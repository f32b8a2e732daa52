//! Build-once registries and single-flight request coalescing.
//!
//! Both primitives answer the same question — "someone may already be
//! producing what I need" — at two different lifetimes:
//!
//! * [`Registry`] caches **immutable snapshots** (CSR graphs,
//!   functional traces) forever: the first requester builds, everyone
//!   else blocks on the build and then shares the [`Arc`].
//! * [`Flights`] coalesces **in-flight work**: while a replay for a
//!   fingerprint is running, identical requests join the existing
//!   [`Flight`] instead of enqueuing a duplicate; the entry disappears
//!   as soon as the result is delivered (completed work lives in the
//!   memo/store caches, not here).
//!
//! Both are a map of [`OnceLock`] cells behind one `Mutex`: the map
//! lock is held only to find or insert a cell, and builds and replays run
//! with no lock held. A builder that panics leaves its cell empty, so the
//! next caller builds it rather than deadlocking the key.

use omega_core::OmegaError;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // No holder panics while a map is half-written (builds run outside
    // the lock), so poisoning is not meaningful here.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A build-once, share-forever cache keyed by `K`.
pub struct Registry<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
}

impl<K: Eq + Hash, V> Default for Registry<K, V> {
    fn default() -> Self {
        Registry {
            cells: Mutex::new(HashMap::new()),
        }
    }
}

impl<K: Eq + Hash, V> Registry<K, V> {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached value for `key`, building it (outside the map
    /// lock) if this is the first request. Concurrent requesters for the
    /// same key block until the one build finishes; if the builder
    /// panics, the cell stays empty and a waiter becomes the builder.
    pub fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        let cell = Arc::clone(lock(&self.cells).entry(key).or_default());
        Arc::clone(cell.get_or_init(|| Arc::new(build())))
    }

    /// Number of keys requested so far: built, building, or left empty
    /// by a builder that panicked.
    pub fn len(&self) -> usize {
        lock(&self.cells).len()
    }

    /// Whether the registry holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a flight delivers: the response payload, encoded once (the text
/// the memo holds), or the error that ended it. Both sides are
/// [`Arc`]-wrapped so every joiner gets the same allocation
/// ([`OmegaError`] is deliberately not `Clone`).
pub type FlightResult = Result<Arc<str>, Arc<OmegaError>>;

/// One in-flight computation, shared between its leader and followers.
#[derive(Default)]
pub struct Flight(OnceLock<FlightResult>);

impl Flight {
    /// Blocks until the leader (or the worker acting for it) delivers.
    pub fn wait(&self) -> FlightResult {
        self.0.wait().clone()
    }
}

/// The caller's role in a flight.
pub enum Ticket {
    /// First requester: responsible for getting the work scheduled
    /// (or for completing the flight with the scheduling failure).
    Leader(Arc<Flight>),
    /// The work was already in flight: just wait for the result.
    Follower(Arc<Flight>),
}

/// The single-flight table, keyed by experiment fingerprint.
#[derive(Default)]
pub struct Flights {
    inner: Mutex<HashMap<u64, Arc<Flight>>>,
}

impl Flights {
    /// An empty table.
    pub fn new() -> Flights {
        Flights::default()
    }

    /// Joins the flight for `fp`, creating it (as leader) if absent.
    pub fn join(&self, fp: u64) -> Ticket {
        let mut inner = lock(&self.inner);
        if let Some(f) = inner.get(&fp) {
            return Ticket::Follower(Arc::clone(f));
        }
        let f = Arc::new(Flight::default());
        inner.insert(fp, Arc::clone(&f));
        Ticket::Leader(f)
    }

    /// Delivers `result` to everyone waiting on `fp` and retires the
    /// flight. Callers must make the result visible in their own
    /// caches (memo/store) **before** completing, so a request racing
    /// the retirement finds the cache instead of starting a new
    /// flight.
    pub fn complete(&self, fp: u64, result: FlightResult) {
        let f = lock(&self.inner).remove(&fp);
        if let Some(f) = f {
            // A flight is retired, and so delivered, exactly once.
            let _ = f.0.set(result);
        }
    }

    /// Number of open flights.
    pub fn open(&self) -> usize {
        lock(&self.inner).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn registry_builds_each_key_exactly_once_under_contention() {
        let reg = Registry::<u32, u64>::new();
        let builds = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let reg = &reg;
                let builds = &builds;
                s.spawn(move || {
                    for key in 0..4u32 {
                        let v = reg.get_or_build(key, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so contenders pile
                            // onto the Building slot.
                            std::thread::sleep(std::time::Duration::from_millis(2));
                            u64::from(key) * 100 + t
                        });
                        assert_eq!(*v / 100, u64::from(key));
                    }
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 4, "one build per key");
        assert_eq!(reg.len(), 4);
    }

    #[test]
    fn registry_survives_a_panicking_builder() {
        let reg = Registry::<&'static str, u32>::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.get_or_build("k", || panic!("builder died"));
        }));
        assert!(r.is_err());
        // The slot was released: the next requester builds successfully.
        assert_eq!(*reg.get_or_build("k", || 7), 7);
    }

    #[test]
    fn flights_have_one_leader_and_deliver_to_all_followers() {
        let flights = Flights::new();
        let Ticket::Leader(leader) = flights.join(42) else {
            panic!("first joiner must lead");
        };
        let followers: Vec<Arc<Flight>> = (0..5)
            .map(|_| match flights.join(42) {
                Ticket::Follower(f) => f,
                Ticket::Leader(_) => panic!("flight already open"),
            })
            .collect();
        assert_eq!(flights.open(), 1);

        let payload: Arc<str> = Arc::from("{\"done\": true}");
        std::thread::scope(|s| {
            for f in &followers {
                let payload = &payload;
                s.spawn(move || {
                    let got = f.wait().expect("flight succeeded");
                    assert!(Arc::ptr_eq(&got, payload), "all share one allocation");
                });
            }
            flights.complete(42, Ok(Arc::clone(&payload)));
        });
        assert_eq!(flights.open(), 0, "completion retires the flight");
        assert!(leader.wait().is_ok(), "late waiters still see the result");

        // A fresh join after retirement starts a new flight.
        assert!(matches!(flights.join(42), Ticket::Leader(_)));
    }
}
