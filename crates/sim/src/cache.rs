//! Set-associative cache array mechanics: lookup, fill, LRU eviction, and
//! MESI line states. Policy (when to fill, what state to install) is decided
//! by the owning hierarchy; this module only provides the mechanics.

use crate::config::CacheConfig;
use crate::line_of;

/// MESI coherence state of one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Present, clean, possibly in other caches.
    Shared,
    /// Present, clean, only copy.
    Exclusive,
    /// Present, dirty, only copy.
    Modified,
}

impl LineState {
    /// Whether this state permits a store without an upgrade.
    pub fn writable(self) -> bool {
        matches!(self, LineState::Exclusive | LineState::Modified)
    }

    /// Whether a writeback is needed on eviction.
    pub fn dirty(self) -> bool {
        matches!(self, LineState::Modified)
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    state: LineState,
    lru: u64,
    pinned: bool,
}

/// Filler for slots past a set's length; never read as a resident line.
const EMPTY: Slot = Slot {
    line: 0,
    state: LineState::Shared,
    lru: 0,
    pinned: false,
};

/// A set-associative cache array with LRU replacement.
///
/// Addresses are tracked at line (64 B) granularity; the array stores no
/// data, only tags and states — the simulator is timing-only.
///
/// The slots live in one flat `sets × ways` vector: set `s` owns
/// `slots[s * ways..s * ways + len[s]]`, kept dense the way a
/// `Vec<Slot>` per set would be (push to fill, swap-remove to
/// invalidate). The set of a line is a mask of its line index when the
/// set count is a power of two, and a remainder otherwise.
///
/// # Example
///
/// ```
/// use omega_sim::cache::{CacheArray, LineState};
/// use omega_sim::CacheConfig;
///
/// let mut l1 = CacheArray::new(&CacheConfig { capacity: 512, ways: 4, latency: 2 });
/// assert_eq!(l1.lookup(0x40), None); // cold miss
/// l1.insert(0x40, LineState::Exclusive);
/// assert_eq!(l1.lookup(0x40), Some(LineState::Exclusive));
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    slots: Vec<Slot>,
    len: Vec<u32>,
    ways: usize,
    sets: u64,
    /// `sets - 1` when `sets` is a power of two.
    mask: Option<u64>,
    tick: u64,
}

/// Result of inserting a line: the victim, if a valid line was evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line address of the victim.
    pub line: u64,
    /// Its state at eviction (dirty ⇒ the caller must write it back).
    pub state: LineState,
}

impl CacheArray {
    /// Creates an empty array with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets or zero ways.
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        let ways = cfg.ways as usize;
        assert!(
            sets > 0 && ways > 0,
            "cache must have at least one set and way"
        );
        CacheArray {
            slots: vec![EMPTY; sets as usize * ways],
            len: vec![0; sets as usize],
            ways,
            sets,
            mask: sets.is_power_of_two().then(|| sets - 1),
            tick: 0,
        }
    }

    fn set_index(&self, line: u64) -> usize {
        let index = line / crate::LINE_BYTES;
        (match self.mask {
            Some(mask) => index & mask,
            None => index % self.sets,
        }) as usize
    }

    /// The resident slots of set `idx`.
    fn set(&self, idx: usize) -> &[Slot] {
        let base = idx * self.ways;
        &self.slots[base..base + self.len[idx] as usize]
    }

    fn set_mut(&mut self, idx: usize) -> &mut [Slot] {
        let base = idx * self.ways;
        &mut self.slots[base..base + self.len[idx] as usize]
    }

    /// Appends a slot to set `idx`, which must have a free way.
    fn push(&mut self, idx: usize, slot: Slot) {
        let len = self.len[idx] as usize;
        debug_assert!(len < self.ways);
        self.slots[idx * self.ways + len] = slot;
        self.len[idx] += 1;
    }

    /// Index within set `idx` of the least-recently-used unpinned line.
    fn lru_unpinned(&self, idx: usize) -> Option<usize> {
        self.set(idx)
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.pinned)
            .min_by_key(|(_, s)| s.lru)
            .map(|(i, _)| i)
    }

    /// Looks up the line containing `addr`; updates LRU on hit.
    pub fn lookup(&mut self, addr: u64) -> Option<LineState> {
        let line = line_of(addr);
        self.tick += 1;
        let tick = self.tick;
        let idx = self.set_index(line);
        self.set_mut(idx)
            .iter_mut()
            .find(|s| s.line == line)
            .map(|s| {
                s.lru = tick;
                s.state
            })
    }

    /// Peeks at the state without touching LRU (used by directory probes).
    pub fn peek(&self, addr: u64) -> Option<LineState> {
        let line = line_of(addr);
        self.set(self.set_index(line))
            .iter()
            .find(|s| s.line == line)
            .map(|s| s.state)
    }

    /// Changes the state of a resident line; returns `false` if absent.
    pub fn set_state(&mut self, addr: u64, state: LineState) -> bool {
        let line = line_of(addr);
        let idx = self.set_index(line);
        match self.set_mut(idx).iter_mut().find(|s| s.line == line) {
            Some(s) => {
                s.state = state;
                true
            }
            None => false,
        }
    }

    /// Inserts the line containing `addr` in `state`, evicting the LRU
    /// victim if the set is full. Re-inserting a resident line just updates
    /// its state.
    pub fn insert(&mut self, addr: u64, state: LineState) -> Option<Eviction> {
        let line = line_of(addr);
        self.tick += 1;
        let tick = self.tick;
        let idx = self.set_index(line);
        if let Some(s) = self.set_mut(idx).iter_mut().find(|s| s.line == line) {
            s.state = state;
            s.lru = tick;
            return None;
        }
        let slot = Slot {
            line,
            state,
            lru: tick,
            pinned: false,
        };
        if (self.len[idx] as usize) < self.ways {
            self.push(idx, slot);
            return None;
        }
        // Victimise the least-recently-used *unpinned* line (§IX locked
        // cache: pinned lines have their replacement disabled). A set made
        // entirely of pinned lines cannot host the newcomer: the access is
        // served but not cached.
        let Some(victim_idx) = self.lru_unpinned(idx) else {
            return None; // bypass: fully pinned set
        };
        let victim = std::mem::replace(&mut self.set_mut(idx)[victim_idx], slot);
        Some(Eviction {
            line: victim.line,
            state: victim.state,
        })
    }

    /// Pins the line containing `addr` into its set (loading it `Shared` if
    /// absent), disabling its replacement — the locked-cache technique the
    /// paper discusses as an alternative to scratchpads (§IX). As on real
    /// lockdown hardware (e.g. ARM way-lockdown), at most half of a set's
    /// ways may be locked; pinning beyond that is refused (returns
    /// `false`) so ordinary traffic keeps associativity.
    pub fn pin(&mut self, addr: u64) -> bool {
        let line = line_of(addr);
        self.tick += 1;
        let tick = self.tick;
        let idx = self.set_index(line);
        let ways = self.ways;
        if let Some(s) = self.set_mut(idx).iter_mut().find(|s| s.line == line) {
            s.pinned = true;
            return true;
        }
        let pinned_ways = self.set(idx).iter().filter(|s| s.pinned).count();
        if pinned_ways + 1 > (ways / 2).max(1).min(ways - 1) {
            return false; // lockdown cap: at most half the ways, always one free
        }
        let slot = Slot {
            line,
            state: LineState::Shared,
            lru: tick,
            pinned: true,
        };
        if (self.len[idx] as usize) < ways {
            self.push(idx, slot);
            return true;
        }
        let victim_idx = self
            .lru_unpinned(idx)
            .expect("pinned_ways + 1 < ways implies an unpinned way exists");
        self.set_mut(idx)[victim_idx] = slot;
        true
    }

    /// Number of pinned lines.
    pub fn pinned_count(&self) -> usize {
        (0..self.len.len())
            .map(|idx| self.set(idx).iter().filter(|s| s.pinned).count())
            .sum()
    }

    /// Removes the line containing `addr`; returns its state if it was
    /// present (coherence invalidation). The set's last line moves into
    /// the freed way.
    pub fn invalidate(&mut self, addr: u64) -> Option<LineState> {
        let line = line_of(addr);
        let idx = self.set_index(line);
        let set = self.set_mut(idx);
        let i = set.iter().position(|s| s.line == line)?;
        let state = set[i].state;
        let last = set.len() - 1;
        set.swap(i, last);
        self.len[idx] -= 1;
        Some(state)
    }

    /// Number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.len.iter().map(|&n| n as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn tiny() -> CacheArray {
        // 2 sets × 2 ways of 64B lines = 256B.
        CacheArray::new(&CacheConfig {
            capacity: 256,
            ways: 2,
            latency: 1,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert_eq!(c.lookup(0x40), None);
        assert_eq!(c.insert(0x40, LineState::Shared), None);
        assert_eq!(c.lookup(0x40), Some(LineState::Shared));
        // Same line, different offset.
        assert_eq!(c.lookup(0x7F), Some(LineState::Shared));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0x000, 0x080, 0x100 map to set 0 (stride 2 lines).
        c.insert(0x000, LineState::Shared);
        c.insert(0x080, LineState::Shared);
        c.lookup(0x000); // make 0x080 the LRU
        let ev = c.insert(0x100, LineState::Shared).unwrap();
        assert_eq!(ev.line, 0x080);
        assert_eq!(c.lookup(0x000), Some(LineState::Shared));
        assert_eq!(c.lookup(0x080), None);
    }

    #[test]
    fn eviction_reports_dirty_state() {
        let mut c = tiny();
        c.insert(0x000, LineState::Modified);
        c.insert(0x080, LineState::Shared);
        let ev = c.insert(0x100, LineState::Shared).unwrap();
        assert_eq!(ev.state, LineState::Modified);
        assert!(ev.state.dirty());
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.insert(0x40, LineState::Exclusive);
        assert_eq!(c.invalidate(0x40), Some(LineState::Exclusive));
        assert_eq!(c.invalidate(0x40), None);
        assert_eq!(c.lookup(0x40), None);
    }

    #[test]
    fn reinsert_updates_state_without_eviction() {
        let mut c = tiny();
        c.insert(0x40, LineState::Shared);
        assert_eq!(c.insert(0x40, LineState::Modified), None);
        assert_eq!(c.peek(0x40), Some(LineState::Modified));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn set_state_only_touches_resident_lines() {
        let mut c = tiny();
        assert!(!c.set_state(0x40, LineState::Modified));
        c.insert(0x40, LineState::Shared);
        assert!(c.set_state(0x40, LineState::Modified));
    }

    #[test]
    fn writable_states() {
        assert!(!LineState::Shared.writable());
        assert!(LineState::Exclusive.writable());
        assert!(LineState::Modified.writable());
    }

    #[test]
    fn pinned_lines_survive_thrashing() {
        let mut c = tiny();
        assert!(c.pin(0x000));
        // Stream conflicting lines through set 0.
        for i in 1..20u64 {
            c.insert(i * 0x80, LineState::Shared);
        }
        assert_eq!(
            c.lookup(0x000),
            Some(LineState::Shared),
            "pinned line must remain"
        );
        assert_eq!(c.pinned_count(), 1);
    }

    #[test]
    fn pinning_keeps_one_evictable_way() {
        let mut c = tiny(); // 2 ways per set
        assert!(c.pin(0x000));
        assert!(!c.pin(0x080), "second pin would fill set 0 entirely");
        assert_eq!(c.pinned_count(), 1);
    }

    #[test]
    fn fully_pinned_insert_bypasses() {
        // 1-way cache: pinning is refused, so force the scenario manually
        // with a 2-way cache where one way is pinned and one is busy.
        let mut c = tiny();
        c.pin(0x000);
        c.insert(0x080, LineState::Shared);
        // Inserting a third conflicting line evicts the unpinned one.
        let ev = c.insert(0x100, LineState::Shared).unwrap();
        assert_eq!(ev.line, 0x080);
    }

    #[test]
    fn invalidate_moves_the_last_line_into_the_freed_way() {
        let mut c = CacheArray::new(&CacheConfig {
            capacity: 256,
            ways: 4,
            latency: 1,
        }); // one set of four ways
        for line in 0..4u64 {
            c.insert(line * 0x40, LineState::Shared);
        }
        c.lookup(0x40); // line 0 is now the LRU, line 2 next
        assert_eq!(c.invalidate(0x40), Some(LineState::Shared));
        assert_eq!(c.occupancy(), 3);
        // Line 3 took line 1's way and is still found; a refill lands in
        // the freed way, and the next eviction still picks the true LRU.
        assert_eq!(c.peek(0xC0), Some(LineState::Shared));
        assert_eq!(c.insert(0x100, LineState::Shared), None);
        assert_eq!(
            c.insert(0x140, LineState::Shared).map(|e| e.line),
            Some(0x00)
        );
        assert_eq!(
            c.insert(0x180, LineState::Shared).map(|e| e.line),
            Some(0x80)
        );
    }

    /// The pre-flattening array, one `Vec<Slot>` per set, kept as the
    /// reference the flat layout is fuzzed against.
    struct RefArray {
        sets: Vec<Vec<Slot>>,
        ways: usize,
        tick: u64,
    }

    impl RefArray {
        fn new(cfg: &CacheConfig) -> Self {
            let ways = cfg.ways as usize;
            RefArray {
                sets: vec![Vec::with_capacity(ways); cfg.sets() as usize],
                ways,
                tick: 0,
            }
        }

        fn set_index(&self, line: u64) -> usize {
            ((line / crate::LINE_BYTES) % self.sets.len() as u64) as usize
        }

        fn lookup(&mut self, addr: u64) -> Option<LineState> {
            let line = line_of(addr);
            self.tick += 1;
            let tick = self.tick;
            let idx = self.set_index(line);
            self.sets[idx].iter_mut().find(|s| s.line == line).map(|s| {
                s.lru = tick;
                s.state
            })
        }

        fn peek(&self, addr: u64) -> Option<LineState> {
            let line = line_of(addr);
            self.sets[self.set_index(line)]
                .iter()
                .find(|s| s.line == line)
                .map(|s| s.state)
        }

        fn set_state(&mut self, addr: u64, state: LineState) -> bool {
            let line = line_of(addr);
            let idx = self.set_index(line);
            match self.sets[idx].iter_mut().find(|s| s.line == line) {
                Some(s) => {
                    s.state = state;
                    true
                }
                None => false,
            }
        }

        fn victim(set: &[Slot]) -> Option<usize> {
            set.iter()
                .enumerate()
                .filter(|(_, s)| !s.pinned)
                .min_by_key(|(_, s)| s.lru)
                .map(|(i, _)| i)
        }

        fn insert(&mut self, addr: u64, state: LineState) -> Option<Eviction> {
            let line = line_of(addr);
            self.tick += 1;
            let tick = self.tick;
            let idx = self.set_index(line);
            let ways = self.ways;
            let set = &mut self.sets[idx];
            if let Some(s) = set.iter_mut().find(|s| s.line == line) {
                s.state = state;
                s.lru = tick;
                return None;
            }
            let slot = Slot {
                line,
                state,
                lru: tick,
                pinned: false,
            };
            if set.len() < ways {
                set.push(slot);
                return None;
            }
            let v = Self::victim(set)?;
            let victim = std::mem::replace(&mut set[v], slot);
            Some(Eviction {
                line: victim.line,
                state: victim.state,
            })
        }

        fn pin(&mut self, addr: u64) -> bool {
            let line = line_of(addr);
            self.tick += 1;
            let tick = self.tick;
            let idx = self.set_index(line);
            let ways = self.ways;
            let set = &mut self.sets[idx];
            if let Some(s) = set.iter_mut().find(|s| s.line == line) {
                s.pinned = true;
                return true;
            }
            if set.iter().filter(|s| s.pinned).count() + 1 > (ways / 2).max(1).min(ways - 1) {
                return false;
            }
            let slot = Slot {
                line,
                state: LineState::Shared,
                lru: tick,
                pinned: true,
            };
            if set.len() < ways {
                set.push(slot);
            } else {
                let v = Self::victim(set).expect("an unpinned way exists");
                set[v] = slot;
            }
            true
        }

        fn invalidate(&mut self, addr: u64) -> Option<LineState> {
            let line = line_of(addr);
            let idx = self.set_index(line);
            let set = &mut self.sets[idx];
            set.iter()
                .position(|s| s.line == line)
                .map(|i| set.swap_remove(i).state)
        }

        fn pinned_count(&self) -> usize {
            self.sets.iter().flatten().filter(|s| s.pinned).count()
        }

        fn occupancy(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    /// SplitMix64: a seeded stream for the differential fuzz.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn flat_array_matches_the_per_set_reference() {
        const STATES: [LineState; 3] =
            [LineState::Shared, LineState::Exclusive, LineState::Modified];
        // (sets, ways): power-of-two set counts take the mask path, the
        // rest the remainder path; one- and two-way sets hit the pin cap.
        let geometries = [
            (1, 1),
            (2, 2),
            (4, 4),
            (8, 8),
            (3, 2),
            (5, 4),
            (6, 3),
            (7, 1),
        ];
        for (g, &(sets, ways)) in geometries.iter().enumerate() {
            let cfg = CacheConfig {
                capacity: sets * ways * crate::LINE_BYTES,
                ways: ways as u32,
                latency: 1,
            };
            assert_eq!(cfg.sets(), sets);
            let mut flat = CacheArray::new(&cfg);
            let mut reference = RefArray::new(&cfg);
            let mut rng = 0x5EED_0000 + g as u64;
            // Three lines' worth of candidates per slot keeps sets full and
            // contended; random offsets exercise line_of.
            let universe = sets * ways * 3;
            for step in 0..20_000 {
                let r = splitmix(&mut rng);
                let addr = (r >> 8) % universe * crate::LINE_BYTES + (r >> 40) % crate::LINE_BYTES;
                let state = STATES[(r >> 4) as usize % 3];
                let ctx = format!("geometry {sets}x{ways}, step {step}, addr {addr:#x}");
                match r % 16 {
                    0..=4 => assert_eq!(flat.lookup(addr), reference.lookup(addr), "{ctx}"),
                    5..=9 => assert_eq!(
                        flat.insert(addr, state),
                        reference.insert(addr, state),
                        "{ctx}"
                    ),
                    10 => assert_eq!(flat.pin(addr), reference.pin(addr), "{ctx}"),
                    11 | 12 => {
                        assert_eq!(flat.invalidate(addr), reference.invalidate(addr), "{ctx}")
                    }
                    13 => assert_eq!(
                        flat.set_state(addr, state),
                        reference.set_state(addr, state),
                        "{ctx}"
                    ),
                    _ => assert_eq!(flat.peek(addr), reference.peek(addr), "{ctx}"),
                }
                assert_eq!(flat.occupancy(), reference.occupancy(), "{ctx}");
                assert_eq!(flat.pinned_count(), reference.pinned_count(), "{ctx}");
            }
            assert!(flat.occupancy() > 0);
        }
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        c.insert(0x000, LineState::Shared); // set 0
        c.insert(0x040, LineState::Shared); // set 1
        c.insert(0x080, LineState::Shared); // set 0
        assert_eq!(c.occupancy(), 3);
    }
}
