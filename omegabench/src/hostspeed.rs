//! The host speed index: a tiny fixed kernel, sampled on a background
//! thread all through a run, that puts host time into reference-host
//! seconds.
//!
//! The machines this benchmark runs on are shared: the same fixed work
//! takes 15–30 % longer in one minute than in the next. A sampler thread
//! therefore times a ~50 µs kernel every 20 ms (0.25 % of one core), and
//! every measured interval is divided by its speed factor: the median
//! sample inside the interval over [`NOMINAL_SAMPLE_S`]. The kernel is the
//! benchmark's own code with a 16 KiB working set, so it tracks the
//! core's speed. It shares the cores with the program under test, so the
//! program's own load can move it a little; `README.md` reports a control
//! (an injected slowdown) that measures how much, and every untraced run
//! prints its figures by the clock as well.

use crate::stats::median;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One sample's time on an idle 2-vCPU Xeon host (factor 1.0).
pub const NOMINAL_SAMPLE_S: f64 = 50e-6;

/// Pause between samples.
const PERIOD: Duration = Duration::from_millis(20);

/// Fewest samples a factor is taken from; shorter intervals borrow the
/// nearest samples around them.
const MIN_SAMPLES: usize = 5;

/// Xorshift updates over a 2048-word table.
fn kernel() -> u64 {
    let mut table = [0u64; 2048];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & 2047;
        acc = acc.wrapping_add(table[j]);
        table[j] = table[j].wrapping_add(x ^ i);
        if acc & 1 == 0 {
            acc = acc.rotate_left(5);
        }
    }
    acc
}

/// `(seconds since start, sample duration)` pairs.
type Samples = Arc<Mutex<Vec<(f64, f64)>>>;

/// The background sampler; stopped and joined when dropped.
pub struct Sampler {
    start: Instant,
    samples: Samples,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling.
    pub fn start() -> Sampler {
        let start = Instant::now();
        let samples: Samples = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (samples, stop) = (Arc::clone(&samples), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("omegabench-hostspeed".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let t = Instant::now();
                        std::hint::black_box(kernel());
                        let d = t.elapsed().as_secs_f64();
                        let at = t.duration_since(start).as_secs_f64();
                        samples
                            .lock()
                            .expect("the sampler never panics holding the lock")
                            .push((at, d));
                        std::thread::sleep(PERIOD);
                    }
                })
                .expect("spawning the host speed sampler")
        };
        Sampler {
            start,
            samples,
            stop,
            thread: Some(thread),
        }
    }

    /// The speed factor of `[from, to]` (above 1 = slower than nominal):
    /// the median sample inside it, or the [`MIN_SAMPLES`] nearest its
    /// middle when it holds fewer.
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        let (a, b) = (
            from.saturating_duration_since(self.start).as_secs_f64(),
            to.saturating_duration_since(self.start).as_secs_f64(),
        );
        let samples = self
            .samples
            .lock()
            .expect("the sampler never panics holding the lock");
        let inside: Vec<f64> = samples
            .iter()
            .filter(|(at, _)| (a..=b).contains(at))
            .map(|s| s.1)
            .collect();
        let chosen = if inside.len() >= MIN_SAMPLES {
            inside
        } else {
            let mid = (a + b) / 2.0;
            let mut near: Vec<(f64, f64)> = samples
                .iter()
                .map(|&(at, d)| ((at - mid).abs(), d))
                .collect();
            near.sort_by(|x, y| x.0.total_cmp(&y.0));
            near.iter().take(MIN_SAMPLES).map(|s| s.1).collect()
        };
        if chosen.is_empty() {
            return 1.0;
        }
        median(&chosen) / NOMINAL_SAMPLE_S
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
