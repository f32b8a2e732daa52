//! The bounded in-process response memo: an LRU over encoded payloads.
//!
//! An entry is a payload's text as `Json::write_to` renders it, encoded
//! once when the payload is computed or loaded from the store; every
//! response that carries it splices that text (`Json::write_spliced`),
//! so a memo hit builds no payload tree and encodes no payload.
//!
//! At most `entries` payloads are retained; an insert past capacity
//! evicts the least-recently-*touched* entry. Entries never go stale:
//! a payload is a deterministic function of its fingerprint, so age
//! alone is no reason to drop one.
//!
//! Eviction is **safe by construction**: every computed payload is also
//! persisted to the content-addressed store before it is memoised — so
//! an evicted entry recomputes (or re-loads) byte-identically, and the
//! memo is purely a latency optimisation, never a correctness layer.
//! `crates/serve/tests/memo.rs` proves exactly that round trip.
//!
//! Counters ([`MemoCounters`]) tick once per logical event and are
//! mirrored into the obs layer (`serve.memo_*`); the entry/byte gauges
//! use [`obs::counter_set`] so the live `stats` view shows current
//! occupancy, not a running sum.

use omega_sim::obs;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Cumulative memo event counters (this handle only).
///
/// `hits + misses` equals the number of [`Memo::get`] calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounters {
    /// Lookups that returned a payload.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Payloads inserted.
    pub inserts: u64,
    /// Entries removed by the LRU capacity bound.
    pub evictions: u64,
}

struct Entry {
    payload: Arc<str>,
    /// The size `Json::dump` gives the payload: its text and the trailing
    /// newline.
    bytes: usize,
    /// Last-touch sequence number; recency is resolved lazily against
    /// the queue below.
    tick: u64,
}

struct Inner {
    map: HashMap<u64, Entry>,
    /// Lazy recency queue of `(key, tick)`; stale pairs (tick no longer
    /// matching the entry) are skipped during eviction and compacted
    /// away when the queue outgrows `4 × capacity`.
    recency: VecDeque<(u64, u64)>,
    next_tick: u64,
    bytes: usize,
    counters: MemoCounters,
}

/// A bounded, thread-safe payload memo. See the module docs.
pub struct Memo {
    inner: Mutex<Inner>,
    cap: usize,
}

impl Memo {
    /// A memo holding at most `entries` payloads (floored at 1).
    pub fn new(entries: usize) -> Memo {
        Memo {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                recency: VecDeque::new(),
                next_tick: 0,
                bytes: 0,
                counters: MemoCounters::default(),
            }),
            cap: entries.max(1),
        }
    }

    /// The configured capacity in entries.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// Whether the memo holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current total payload bytes retained, each entry counted as its
    /// `Json::dump` size.
    pub fn bytes(&self) -> usize {
        lock(&self.inner).bytes
    }

    /// A snapshot of the cumulative event counters.
    pub fn counters(&self) -> MemoCounters {
        lock(&self.inner).counters
    }

    fn remove(inner: &mut Inner, key: u64) {
        if let Some(e) = inner.map.remove(&key) {
            inner.bytes -= e.bytes;
        }
    }

    fn touch(inner: &mut Inner, key: u64) {
        let tick = inner.next_tick;
        inner.next_tick += 1;
        if let Some(e) = inner.map.get_mut(&key) {
            e.tick = tick;
        }
        inner.recency.push_back((key, tick));
    }

    fn mirror_gauges(inner: &Inner) {
        obs::counter_set("serve.memo_entries", inner.map.len() as u64);
        obs::counter_set("serve.memo_bytes", inner.bytes as u64);
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<Arc<str>> {
        let mut inner = lock(&self.inner);
        let inner = &mut *inner;
        match inner.map.get(&key) {
            Some(e) => {
                let payload = Arc::clone(&e.payload);
                inner.counters.hits += 1;
                Self::touch(inner, key);
                self.compact(inner);
                Some(payload)
            }
            None => {
                inner.counters.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) `key`'s encoded payload, then evicts down
    /// to the capacity bound.
    pub fn insert(&self, key: u64, payload: Arc<str>) {
        let bytes = payload.len() + 1;
        let mut inner = lock(&self.inner);
        let inner = &mut *inner;
        Self::remove(inner, key);
        inner.map.insert(
            key,
            Entry {
                payload,
                bytes,
                tick: 0, // set by touch below
            },
        );
        inner.bytes += bytes;
        inner.counters.inserts += 1;
        obs::counter_add("serve.memo_inserts", 1);
        Self::touch(inner, key);

        // LRU eviction down to capacity.
        while inner.map.len() > self.cap {
            let Some((k, tick)) = inner.recency.pop_front() else {
                break; // unreachable: every live entry has a queue pair
            };
            if inner.map.get(&k).is_some_and(|e| e.tick == tick) {
                Self::remove(inner, k);
                inner.counters.evictions += 1;
                obs::counter_add("serve.memo_evictions", 1);
            }
        }
        self.compact(inner);
        Self::mirror_gauges(inner);
    }

    /// Drops stale recency pairs once the queue outgrows its bound, so
    /// a hit-heavy workload cannot grow the queue without limit.
    fn compact(&self, inner: &mut Inner) {
        if inner.recency.len() <= (4 * self.cap).max(16) {
            return;
        }
        inner
            .recency
            .retain(|&(k, tick)| inner.map.get(&k).is_some_and(|e| e.tick == tick));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_bench::Json;
    use omega_graph::rng::SmallRng;

    fn document(tag: u64, len: usize) -> Json {
        let mut o = Json::obj();
        o.set("tag", Json::Num(tag as f64));
        o.set("pad", Json::Str("x".repeat(len)));
        o
    }

    fn payload(tag: u64, len: usize) -> Arc<str> {
        let mut text = String::new();
        document(tag, len).write_to(&mut text);
        text.into()
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let memo = Memo::new(2);
        memo.insert(1, payload(1, 0));
        memo.insert(2, payload(2, 0));
        assert!(memo.get(1).is_some(), "touch 1 so 2 is the LRU");
        memo.insert(3, payload(3, 0));
        assert_eq!(memo.len(), 2);
        assert!(memo.get(2).is_none(), "2 was evicted");
        assert!(memo.get(1).is_some() && memo.get(3).is_some());
        assert_eq!(memo.counters().evictions, 1);
    }

    /// Reference model: exact LRU over a Vec, most-recent last.
    struct Model {
        cap: usize,
        entries: Vec<(u64, usize)>, // (key, bytes)
        counters: MemoCounters,
    }

    impl Model {
        fn get(&mut self, key: u64) -> bool {
            match self.entries.iter().position(|&(k, _)| k == key) {
                Some(i) => {
                    let e = self.entries.remove(i);
                    self.entries.push(e);
                    self.counters.hits += 1;
                    true
                }
                None => {
                    self.counters.misses += 1;
                    false
                }
            }
        }

        fn insert(&mut self, key: u64, bytes: usize) {
            self.entries.retain(|&(k, _)| k != key);
            self.entries.push((key, bytes));
            self.counters.inserts += 1;
            while self.entries.len() > self.cap {
                self.entries.remove(0);
                self.counters.evictions += 1;
            }
        }

        fn bytes(&self) -> usize {
            self.entries.iter().map(|&(_, b)| b).sum()
        }
    }

    /// Seeded property loop: the lazy-recency implementation must agree
    /// with the exact reference model on every observable — presence,
    /// length, byte total, and all four counters — across thousands of
    /// interleaved inserts and gets.
    #[test]
    fn memo_matches_the_reference_model_under_random_ops() {
        for seed in [7u64, 42, 1001] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let cap = rng.gen_range(1usize..6);
            let memo = Memo::new(cap);
            let mut model = Model {
                cap,
                entries: Vec::new(),
                counters: MemoCounters::default(),
            };
            for _ in 0..4_000 {
                let key = rng.gen_range(0u64..12);
                if rng.gen_range(0u32..9) <= 3 {
                    let len = rng.gen_range(0usize..40);
                    let bytes = document(key, len).dump().len();
                    memo.insert(key, payload(key, len));
                    model.insert(key, bytes);
                } else {
                    assert_eq!(memo.get(key).is_some(), model.get(key), "seed {seed}");
                }
                assert_eq!(memo.len(), model.entries.len(), "seed {seed}");
                assert_eq!(memo.bytes(), model.bytes(), "seed {seed}");
                assert_eq!(memo.counters(), model.counters, "seed {seed}");
            }
            assert!(
                memo.counters().evictions > 0 || cap >= 6,
                "seed {seed}: the loop should exercise capacity eviction"
            );
        }
    }
}
