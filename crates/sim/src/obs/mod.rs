//! Host-side self-profiling and tracing (`omega_obs`).
//!
//! Everything else in `omega_sim` measures the *simulated machine*; this
//! module measures the *simulator* — where host wall-clock goes while the
//! replay engine, the store, and the figure derivations run. Two data
//! kinds share one process-global registry:
//!
//! * **Host spans** ([`span()`] / [`span_owned`]): RAII scoped timers on a
//!   monotonic clock, nested per thread. Every close updates a per-name
//!   aggregate (count / total / self / min / max); in trace mode the full
//!   span record is kept as well, so the timeline can be exported as
//!   Chrome Trace Events (see `omega_bench::obs_report`).
//! * **Simulated-time intervals** ([`IntervalRecorder`], [`sim_session`]):
//!   per-core epoch activity, DRAM channel busy windows and NoC
//!   contention bursts, in *cycles*, grouped per replay session so host
//!   overhead and simulated behaviour can be inspected in one Perfetto
//!   view.
//!
//! ## Overhead discipline
//!
//! Observability is **off by default** and every hook costs exactly one
//! predictable branch while off: [`span()`] reads one relaxed atomic and
//! returns an inert guard; sim-interval recorders are `Option`-boxed and
//! only allocated when a trace session is active on the constructing
//! thread. Disabled runs are therefore bit-identical to a build without
//! the hooks — enforced by the fuzzer's obs-transparency oracle and the
//! golden disabled-path test. Nothing recorded here ever enters a
//! `RunReport`, a store entry, or a fingerprint: obs state is host-side
//! only and process-global, never part of `MachineConfig`.
//!
//! ## Time bases
//!
//! Host spans are in **nanoseconds** since an arbitrary process epoch
//! ([`now_ns`]); simulated intervals are in **cycles**. The exporter keeps
//! them on separate trace processes — they share a viewer, not a clock.

pub mod sim;
pub mod span;

pub use sim::{sim_active, sim_session, IntervalRecorder, SimSession, SimTrack};
pub use span::{span, span_owned, Span};

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

const PROFILE: u8 = 1;
const TRACE: u8 = 2;

/// Cap on retained full span records in trace mode (aggregates never drop).
const SPAN_CAP: usize = 1 << 20;
/// Cap on retained simulated-time intervals across all sessions.
const SIM_CAP: u64 = 2 << 20;

static FLAGS: AtomicU8 = AtomicU8::new(0);
static OPENED: AtomicU64 = AtomicU64::new(0);
static CLOSED: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-local monotonic epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A small sequential id for the calling thread (1, 2, …), assigned on
/// first use. `std::thread::ThreadId` has no stable integer view, and the
/// trace format wants short stable tids.
pub fn tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

/// Whether any observability (profiling or tracing) is on.
#[inline]
pub fn enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) != 0
}

/// Whether span aggregation is on (implied by tracing).
#[inline]
pub fn profiling_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & PROFILE != 0
}

/// Whether full span records and simulated-time intervals are kept.
#[inline]
pub fn trace_enabled() -> bool {
    FLAGS.load(Ordering::Relaxed) & TRACE != 0
}

/// Per-name span aggregate. `self_ns` excludes time spent in child spans
/// opened on the same thread.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanAgg {
    /// Span name.
    pub name: String,
    /// Number of closed spans with this name.
    pub count: u64,
    /// Total inclusive duration.
    pub total_ns: u64,
    /// Total duration minus same-thread child span time.
    pub self_ns: u64,
    /// Shortest single span.
    pub min_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

/// One fully recorded span (trace mode only).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name.
    pub name: String,
    /// Thread the span ran on (see [`tid`]).
    pub tid: u64,
    /// Start, ns since the process epoch.
    pub start_ns: u64,
    /// Inclusive duration in ns.
    pub dur_ns: u64,
    /// Nesting depth on its thread at open time (0 = root).
    pub depth: u32,
}

#[derive(Default)]
struct AggCell {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

#[derive(Default)]
pub(crate) struct Registry {
    enable_ns: u64,
    main_tid: u64,
    aggregates: HashMap<String, AggCell>,
    root_ns_main: u64,
    counters: HashMap<String, u64>,
    spans: Vec<SpanRecord>,
    spans_dropped: u64,
    sim_sessions: Vec<String>,
    sim_tracks: Vec<SimTrack>,
    sim_intervals: u64,
    sim_dropped: u64,
}

pub(crate) fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Turns observability on. `profile` keeps per-name span aggregates;
/// `trace` additionally retains full span records and simulated-time
/// intervals (and implies `profile`). The calling thread is recorded as
/// the main thread for coverage accounting.
pub fn enable(profile: bool, trace: bool) {
    let mut flags = 0;
    if profile || trace {
        flags |= PROFILE;
    }
    if trace {
        flags |= TRACE;
    }
    let t = tid();
    let mut r = registry();
    r.enable_ns = now_ns();
    r.main_tid = t;
    drop(r);
    FLAGS.store(flags, Ordering::SeqCst);
}

/// Everything the registry collected since [`enable`], drained in one go.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsDump {
    /// Wall-clock ns between [`enable`] and the drain.
    pub wall_ns: u64,
    /// The thread that called [`enable`].
    pub main_tid: u64,
    /// Spans opened while enabled.
    pub opened: u64,
    /// Spans closed while enabled.
    pub closed: u64,
    /// Total inclusive ns of depth-0 spans on the main thread — the
    /// numerator of [`ObsDump::coverage`].
    pub root_ns_main: u64,
    /// Per-name aggregates, sorted by name for determinism.
    pub aggregates: Vec<SpanAgg>,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Full span records (trace mode only), in close order.
    pub spans: Vec<SpanRecord>,
    /// Spans not retained because the retention cap (2^20 spans) was hit.
    pub spans_dropped: u64,
    /// Label per simulated session, 1-based (session id 1 is index 0).
    pub sim_sessions: Vec<String>,
    /// Simulated-time interval tracks.
    pub sim_tracks: Vec<SimTrack>,
    /// Sim intervals not retained because the cap was hit.
    pub sim_dropped: u64,
}

impl ObsDump {
    /// Spans opened but never closed (0 for a balanced run).
    pub fn open_spans(&self) -> u64 {
        self.opened.saturating_sub(self.closed)
    }

    /// Fraction of wall-clock attributed to root spans on the main
    /// thread, in `[0, 1]` (may exceed 1 marginally if spans outlive the
    /// drain point's measurement).
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.root_ns_main as f64 / self.wall_ns as f64
    }
}

/// Disables observability and drains the registry into an [`ObsDump`].
pub fn drain() -> ObsDump {
    FLAGS.store(0, Ordering::SeqCst);
    let now = now_ns();
    let mut r = registry();
    let mut aggregates: Vec<SpanAgg> = r
        .aggregates
        .drain()
        .map(|(name, a)| SpanAgg {
            name,
            count: a.count,
            total_ns: a.total_ns,
            self_ns: a.self_ns,
            min_ns: a.min_ns,
            max_ns: a.max_ns,
        })
        .collect();
    aggregates.sort_by(|a, b| a.name.cmp(&b.name));
    let mut counters: Vec<(String, u64)> = r.counters.drain().collect();
    counters.sort();
    let dump = ObsDump {
        wall_ns: now.saturating_sub(r.enable_ns),
        main_tid: r.main_tid,
        opened: OPENED.swap(0, Ordering::SeqCst),
        closed: CLOSED.swap(0, Ordering::SeqCst),
        root_ns_main: std::mem::take(&mut r.root_ns_main),
        aggregates,
        counters,
        spans: std::mem::take(&mut r.spans),
        spans_dropped: std::mem::take(&mut r.spans_dropped),
        sim_sessions: std::mem::take(&mut r.sim_sessions),
        sim_tracks: std::mem::take(&mut r.sim_tracks),
        sim_dropped: std::mem::take(&mut r.sim_dropped),
    };
    r.sim_intervals = 0;
    dump
}

/// Adds `v` to the named counter. One branch when disabled.
#[inline]
pub fn counter_add(name: &'static str, v: u64) {
    if !profiling_enabled() {
        return;
    }
    let mut r = registry();
    *r.counters.entry(name.to_string()).or_insert(0) += v;
}

/// Sets the named counter to `v` (gauge semantics — last write wins).
/// Monotonic sums use [`counter_add`]; sizes of bounded structures (the
/// `omega-serve` memo entry/byte gauges) use this. One branch when
/// disabled.
#[inline]
pub fn counter_set(name: &'static str, v: u64) {
    if !profiling_enabled() {
        return;
    }
    let mut r = registry();
    r.counters.insert(name.to_string(), v);
}

/// The named counters' current values, sorted by name, *without* draining
/// or disabling anything — the live view a long-running service (the
/// `omega-serve` `stats` method) reads while spans keep recording. Empty
/// when profiling is off.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    let r = registry();
    let mut v: Vec<(String, u64)> = r.counters.iter().map(|(k, &n)| (k.clone(), n)).collect();
    v.sort();
    v
}

pub(crate) fn record_close(
    name: &str,
    t: u64,
    start_ns: u64,
    dur_ns: u64,
    self_ns: u64,
    depth: u32,
) {
    CLOSED.fetch_add(1, Ordering::Relaxed);
    let keep_record = trace_enabled();
    let mut r = registry();
    let a = r.aggregates.entry(name.to_string()).or_default();
    if a.count == 0 {
        a.min_ns = dur_ns;
        a.max_ns = dur_ns;
    } else {
        a.min_ns = a.min_ns.min(dur_ns);
        a.max_ns = a.max_ns.max(dur_ns);
    }
    a.count += 1;
    a.total_ns += dur_ns;
    a.self_ns += self_ns;
    if depth == 0 && t == r.main_tid {
        r.root_ns_main += dur_ns;
    }
    if keep_record {
        if r.spans.len() < SPAN_CAP {
            r.spans.push(SpanRecord {
                name: name.to_string(),
                tid: t,
                start_ns,
                dur_ns,
                depth,
            });
        } else {
            r.spans_dropped += 1;
        }
    }
}

pub(crate) fn bump_opened() {
    OPENED.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn new_sim_session(label: &str) -> u64 {
    let mut r = registry();
    r.sim_sessions.push(label.to_string());
    r.sim_sessions.len() as u64
}

pub(crate) fn emit_sim_track(session: u64, name: String, mut intervals: Vec<(u64, u64)>) {
    let mut r = registry();
    let room = SIM_CAP.saturating_sub(r.sim_intervals) as usize;
    if intervals.len() > room {
        r.sim_dropped += (intervals.len() - room) as u64;
        intervals.truncate(room);
    }
    if intervals.is_empty() {
        return;
    }
    r.sim_intervals += intervals.len() as u64;
    r.sim_tracks.push(SimTrack {
        session,
        name,
        intervals,
    });
}
