//! Telemetry: latency histograms and cycle-windowed statistic sampling.
//!
//! The paper's evaluation is built on *observability artifacts* — the
//! Fig. 3 cycle breakdown, Fig. 16's DRAM bandwidth utilisation, Fig. 17's
//! on-chip traffic. Whole-run aggregates (see [`crate::stats`]) answer
//! "how much"; this module answers "when" and "with what distribution":
//!
//! * [`LatencyHistogram`] — a log2-bucketed histogram with quantile
//!   estimation, cheap enough to sit on per-access paths (one `record` is
//!   a `leading_zeros` and two adds).
//! * [`WindowSampler`] — snapshots a cumulative [`MemStats`] every
//!   `window_cycles` simulated cycles into a time series of per-window
//!   deltas, from which bandwidth-utilisation-over-time, LLC hit rate per
//!   window, NoC bytes per window, and PISC occupancy per window follow.
//! * [`TelemetryReport`] — the bundle a machine returns from
//!   [`crate::MemorySystem::take_telemetry`] after a replay.
//!
//! Everything here is **off by default**: [`TelemetryConfig::default`] is
//! disabled, and every instrumented component guards its hook behind one
//! `Option` check, so the streaming replay hot path pays nothing when
//! telemetry is not requested.

use crate::stats::MemStats;
use crate::Cycle;

/// Telemetry knob carried by [`crate::MachineConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TelemetryConfig {
    /// Whether any telemetry (histograms + window sampling) is collected.
    pub enabled: bool,
    /// Window length in cycles for the [`WindowSampler`] time series.
    pub window_cycles: Cycle,
}

impl TelemetryConfig {
    /// Default sampling window: 65 536 cycles (≈33 µs at 2 GHz), small
    /// enough to resolve Ligra iteration phases at mini scale.
    pub const DEFAULT_WINDOW: Cycle = 1 << 16;

    /// Telemetry disabled (the default): zero per-op cost.
    pub const fn off() -> Self {
        TelemetryConfig {
            enabled: false,
            window_cycles: Self::DEFAULT_WINDOW,
        }
    }

    /// Telemetry enabled with the given sampling window (clamped to ≥ 1).
    pub fn windowed(window_cycles: Cycle) -> Self {
        TelemetryConfig {
            enabled: true,
            window_cycles: window_cycles.max(1),
        }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl crate::fingerprint::Canonicalize for TelemetryConfig {
    fn canonicalize(&self, h: &mut crate::fingerprint::Fnv64) {
        h.write_bool(self.enabled);
        // The window only matters when sampling is on: disabled configs
        // hash identically regardless of their (unused) window length.
        if self.enabled {
            h.write_u64(self.window_cycles);
        }
    }
}

/// Number of histogram buckets: one for zero plus one per power of two.
const N_BUCKETS: usize = 65;

/// A log2-bucketed latency histogram over `u64` values.
///
/// Bucket 0 holds exact zeros; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i - 1]` (bucket 64's upper bound is `u64::MAX`). Exact
/// minimum, maximum, count, and sum are tracked alongside, so single-sample
/// and extreme-value queries are exact; quantiles interpolate linearly
/// within a bucket and are clamped to the observed `[min, max]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; N_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; N_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Branch-free log2 bucketing: `64 − leading_zeros` maps 0 to bucket 0
    /// naturally (`leading_zeros(0) == 64`), so the hot `record` path is a
    /// count-leading-zeros and a subtract with no compare.
    fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive `[lo, hi]` value range of bucket `i`.
    fn bucket_bounds(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 0),
            64 => (1u64 << 63, u64::MAX),
            _ => (1u64 << (i - 1), (1u64 << i) - 1),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`q` clamped to `[0, 1]`), or `None` when
    /// empty. Linear interpolation within the covering bucket, clamped to
    /// the observed `[min, max]`; monotone in `q`, and exact for a single
    /// sample and at the extremes.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extremes are tracked exactly.
        if target == 1 {
            return Some(self.min);
        }
        if target == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let (lo, hi) = Self::bucket_bounds(i);
                let frac = (target - seen) as f64 / n as f64;
                // Saturating: in bucket 64 the span rounds up to 2^63 as
                // an f64, and lo + 2^63 would overflow.
                let pos = lo.saturating_add(((hi - lo) as f64 * frac) as u64);
                return Some(pos.clamp(self.min, self.max));
            }
            seen += n;
        }
        Some(self.max)
    }

    /// Accumulates another histogram's samples into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// The populated buckets as `(lo, hi, count)` triples, in ascending
    /// value order — the stable shape the JSON report serialises.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = Self::bucket_bounds(i);
                (lo, hi, n)
            })
    }

    /// The populated buckets as `(bucket index, count)` pairs, in ascending
    /// index order — the lossless counterpart of
    /// [`LatencyHistogram::nonzero_buckets`], paired with
    /// [`LatencyHistogram::from_raw`] for persistence.
    pub fn raw_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
    }

    /// Rebuilds a histogram from state previously exported via
    /// [`LatencyHistogram::raw_buckets`] plus the exact `sum`, `min`, and
    /// `max`. Returns `None` when the parts are structurally inconsistent
    /// (out-of-range bucket index, non-empty buckets with `min > max`, or
    /// extrema landing outside their claimed buckets) — the store treats
    /// that as corruption and recomputes.
    pub fn from_raw(buckets: &[(usize, u64)], sum: u128, min: u64, max: u64) -> Option<Self> {
        let mut h = LatencyHistogram::new();
        for &(i, n) in buckets {
            if i >= N_BUCKETS || n == 0 {
                return None;
            }
            h.buckets[i] = h.buckets[i].checked_add(n)?;
            h.count = h.count.checked_add(n)?;
        }
        if h.count == 0 {
            return (sum == 0 && min == u64::MAX && max == 0).then_some(h);
        }
        if min > max
            || h.buckets[Self::bucket_index(min)] == 0
            || h.buckets[Self::bucket_index(max)] == 0
        {
            return None;
        }
        h.sum = sum;
        h.min = min;
        h.max = max;
        Some(h)
    }
}

/// One window of the sampled time series: the statistics accumulated
/// between the previous sample point and `end`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSample {
    /// Cycle at which the window closed.
    pub end: Cycle,
    /// Counter deltas over the window (cumulative minus previous sample).
    pub delta: MemStats,
}

/// Snapshots a cumulative [`MemStats`] into per-window deltas every
/// `window_cycles`.
///
/// Its one owner, the replay's memory wrapper (`omega_core::runner`),
/// calls [`WindowSampler::due`] (one compare) before each access and
/// [`WindowSampler::tick`] with the model's merged stats only when a
/// boundary has been crossed, then [`WindowSampler::flush`] once at the end
/// of the replay. The engine's per-core times have bounded divergence — `now` can
/// regress between calls — which is harmless here: boundaries only ever
/// advance, and counter deltas are computed from the monotone cumulative
/// statistics, never from `now`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSampler {
    window: Cycle,
    next_boundary: Cycle,
    last: MemStats,
    samples: Vec<WindowSample>,
}

impl WindowSampler {
    /// A sampler emitting one [`WindowSample`] per `window_cycles`
    /// (clamped to ≥ 1).
    pub fn new(window_cycles: Cycle) -> Self {
        let window = window_cycles.max(1);
        WindowSampler {
            window,
            next_boundary: window,
            last: MemStats::default(),
            samples: Vec::new(),
        }
    }

    /// The configured window length.
    pub fn window_cycles(&self) -> Cycle {
        self.window
    }

    /// Whether `now` has crossed the next window boundary — the one-compare
    /// guard the per-access path uses before paying for [`Self::tick`].
    #[inline]
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.next_boundary
    }

    /// Closes every window boundary at or before `now`. The first window
    /// closed receives the whole delta since the previous sample; any
    /// further boundaries crossed in the same jump close with zero deltas,
    /// keeping the series aligned to absolute cycle boundaries.
    pub fn tick(&mut self, now: Cycle, cumulative: &MemStats) {
        while now >= self.next_boundary {
            self.samples.push(WindowSample {
                end: self.next_boundary,
                delta: cumulative.delta_since(&self.last),
            });
            self.last = *cumulative;
            self.next_boundary += self.window;
        }
    }

    /// Closes all complete windows and emits a final partial window for any
    /// residual activity. Call once, when the replay finishes.
    pub fn flush(&mut self, now: Cycle, cumulative: &MemStats) {
        self.tick(now, cumulative);
        if *cumulative != self.last {
            self.samples.push(WindowSample {
                end: now,
                delta: cumulative.delta_since(&self.last),
            });
            self.last = *cumulative;
        }
    }

    /// The samples collected so far.
    pub fn samples(&self) -> &[WindowSample] {
        &self.samples
    }

    /// Consumes the sampler, returning its time series.
    pub fn into_samples(self) -> Vec<WindowSample> {
        self.samples
    }
}

/// Everything a machine collected during one replay with telemetry
/// enabled. Returned by [`crate::MemorySystem::take_telemetry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryReport {
    /// Window length of the time series.
    pub window_cycles: Cycle,
    /// Per-window [`MemStats`] deltas; the deltas sum to the run totals.
    /// Filled by the replay, which samples the windows; a bare memory
    /// model reports none.
    pub windows: Vec<WindowSample>,
    /// DRAM queueing delay per access (cycles spent behind channel backlog).
    pub dram_queue: LatencyHistogram,
    /// Crossbar port contention per packet (queueing beyond serialisation).
    pub noc_contention: LatencyHistogram,
    /// End-to-end L1-miss service latency per missing access.
    pub miss_latency: LatencyHistogram,
    /// Lock/serialisation wait per atomic (line locks on the baseline,
    /// PISC back-pressure and per-entry serialisation on OMEGA).
    pub lock_wait: LatencyHistogram,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{CacheStats, DramStats, NocStats};

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_is_exact_at_every_quantile() {
        let mut h = LatencyHistogram::new();
        h.record(37);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(37), "q={q}");
        }
        assert_eq!(h.min(), Some(37));
        assert_eq!(h.max(), Some(37));
        assert_eq!(h.mean(), 37.0);
    }

    #[test]
    fn zero_values_land_in_the_zero_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(0.5), Some(0));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(0));
        assert_eq!(h.nonzero_buckets().collect::<Vec<_>>(), vec![(0, 0, 2)]);
    }

    #[test]
    fn u64_max_is_representable() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        assert_eq!(h.max(), Some(u64::MAX));
        // The sum must not overflow.
        assert_eq!(h.sum(), 2u128 * u64::MAX as u128);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = LatencyHistogram::new();
        let mut x = 1664525u64;
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(x >> (x % 50));
        }
        let mut prev = 0u64;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = h.quantile(q).unwrap();
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
        assert_eq!(h.quantile(0.0), Some(h.min().unwrap()));
        assert_eq!(h.quantile(1.0), Some(h.max().unwrap()));
    }

    #[test]
    fn quantiles_stay_within_observed_range() {
        let mut h = LatencyHistogram::new();
        h.record(100);
        h.record(120);
        for i in 0..=10 {
            let v = h.quantile(i as f64 / 10.0).unwrap();
            assert!((100..=120).contains(&v), "got {v}");
        }
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for v in [0u64, 1, 7, 63, 64, 1000, u64::MAX] {
            a.record(v);
            all.record(v);
        }
        for v in [5u64, 5, 12_000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        // Merging an empty histogram changes nothing.
        let before = a.clone();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, before);
    }

    fn stats(l2_hits: u64, dram_bytes: u64, noc_bytes: u64) -> MemStats {
        MemStats {
            l2: CacheStats {
                hits: l2_hits,
                ..Default::default()
            },
            dram: DramStats {
                bytes: dram_bytes,
                ..Default::default()
            },
            noc: NocStats {
                bytes: noc_bytes,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn sampler_emits_deltas_that_merge_back_to_totals() {
        let mut s = WindowSampler::new(100);
        assert!(!s.due(99));
        assert!(s.due(100));
        s.tick(100, &stats(10, 640, 32));
        s.tick(250, &stats(25, 1280, 64)); // crosses 200; 300 not yet due
        s.flush(275, &stats(30, 1281, 65));
        let samples = s.samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].end, 100);
        assert_eq!(samples[0].delta.l2.hits, 10);
        assert_eq!(samples[1].end, 200);
        assert_eq!(samples[1].delta.l2.hits, 15);
        assert_eq!(samples[2].end, 275);
        assert_eq!(samples[2].delta.l2.hits, 5);
        // Window-sampler delta correctness under merge: the per-window
        // deltas recombine to the cumulative totals.
        let mut total = MemStats::default();
        for w in samples {
            total.merge(&w.delta);
        }
        assert_eq!(total, stats(30, 1281, 65));
    }

    #[test]
    fn sampler_crossing_many_boundaries_keeps_alignment() {
        let mut s = WindowSampler::new(10);
        s.tick(35, &stats(7, 0, 0)); // crosses 10, 20, 30 in one jump
        let samples = s.samples();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].end, 10);
        assert_eq!(samples[0].delta.l2.hits, 7);
        assert_eq!(samples[1].end, 20);
        assert_eq!(samples[1].delta.l2.hits, 0);
        assert_eq!(samples[2].end, 30);
        assert!(!s.due(39));
        assert!(s.due(40));
    }

    #[test]
    fn flush_without_residual_adds_nothing() {
        let mut s = WindowSampler::new(100);
        s.tick(100, &stats(10, 0, 0));
        s.flush(150, &stats(10, 0, 0));
        assert_eq!(s.samples().len(), 1);
    }

    #[test]
    fn raw_buckets_round_trip_exactly() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 7, 63, 64, 1000, u64::MAX] {
            h.record(v);
        }
        let raw: Vec<(usize, u64)> = h.raw_buckets().collect();
        let back =
            LatencyHistogram::from_raw(&raw, h.sum(), h.min().unwrap(), h.max().unwrap()).unwrap();
        assert_eq!(back, h);
        // Empty histograms round-trip too.
        let empty = LatencyHistogram::new();
        assert_eq!(
            LatencyHistogram::from_raw(&[], 0, u64::MAX, 0).unwrap(),
            empty
        );
    }

    #[test]
    fn from_raw_rejects_inconsistent_state() {
        // Out-of-range bucket index.
        assert!(LatencyHistogram::from_raw(&[(65, 1)], 1, 1, 1).is_none());
        // Zero count in a listed bucket.
        assert!(LatencyHistogram::from_raw(&[(1, 0)], 0, u64::MAX, 0).is_none());
        // min > max.
        assert!(LatencyHistogram::from_raw(&[(1, 2)], 3, 2, 1).is_none());
        // Extremum outside its claimed bucket: min=1000 lands in bucket 10,
        // but only bucket 1 is populated.
        assert!(LatencyHistogram::from_raw(&[(1, 2)], 2000, 1000, 1000).is_none());
        // Non-empty parts but empty bucket list.
        assert!(LatencyHistogram::from_raw(&[], 5, 1, 4).is_none());
    }

    #[test]
    fn config_canonicalisation_ignores_window_only_when_off() {
        use crate::fingerprint::{Canonicalize, Fnv64};
        let digest = |c: TelemetryConfig| {
            let mut h = Fnv64::new();
            c.canonicalize(&mut h);
            h.finish()
        };
        assert_eq!(
            digest(TelemetryConfig::off()),
            digest(TelemetryConfig {
                enabled: false,
                window_cycles: 123,
            })
        );
        assert_ne!(
            digest(TelemetryConfig::windowed(1024)),
            digest(TelemetryConfig::windowed(2048))
        );
        assert_ne!(
            digest(TelemetryConfig::off()),
            digest(TelemetryConfig::windowed(TelemetryConfig::DEFAULT_WINDOW))
        );
    }

    #[test]
    fn config_default_is_off() {
        let c = TelemetryConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.window_cycles, TelemetryConfig::DEFAULT_WINDOW);
        assert!(TelemetryConfig::windowed(0).window_cycles >= 1);
        assert!(TelemetryConfig::windowed(512).enabled);
    }
}
