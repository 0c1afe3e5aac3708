//! The first-level (memory) caches.
//!
//! * [`MemResultCache`] — fixed-size result entries under plain LRU in
//!   every policy ("when L1 RC is full, the cache manager will choose the
//!   victim result entries according to the LRU algorithm").
//! * [`MemListCache`] — variable-size inverted-list entries. Under the
//!   LRU baseline the victim is the strict LRU entry; under CBLRU/CBSLRU
//!   the victim is the **lowest-EV entry inside the replace-first
//!   region** (Fig. 12) — recency bounds the candidates, efficiency picks
//!   among them.

use std::collections::VecDeque;

use cachekit::{ByteBudget, LruList, SegmentedLru};
use invariant::{audit, Report, Validate};

use crate::config::{PolicyKind, RESULT_ENTRY_BYTES};
use crate::selection::{efficiency_value, sc_blocks};
use crate::{QueryId, TermKey};

/// An L1 result entry: payload plus access frequency (Fig. 6(a)'s
/// `<R, freq>` value).
#[derive(Debug, Clone)]
pub struct MemResult<V> {
    /// The result payload.
    pub value: V,
    /// Access count while cached.
    pub freq: u64,
}

/// The L1 result cache: an LRU over entries that all cost
/// [`RESULT_ENTRY_BYTES`], so its byte capacity is an entry count.
#[derive(Debug, Clone)]
pub struct MemResultCache<V> {
    lru: LruList<QueryId, MemResult<V>>,
    /// Entries that fit: `⌊capacity_bytes / RESULT_ENTRY_BYTES⌋`.
    capacity: usize,
}

impl<V> MemResultCache<V> {
    /// Capacity in bytes; every entry costs [`RESULT_ENTRY_BYTES`].
    pub fn new(capacity_bytes: u64) -> Self {
        MemResultCache {
            lru: LruList::new(),
            capacity: (capacity_bytes / RESULT_ENTRY_BYTES) as usize,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Look up a result; a hit bumps recency and frequency.
    pub fn get(&mut self, id: QueryId) -> Option<&V> {
        let entry = self.lru.touch(&id)?;
        entry.freq += 1;
        Some(&entry.value)
    }

    /// Insert a fresh result with frequency 1, replacing any cached entry
    /// for `id`; returns the evicted entry (id, payload, freq), if any.
    /// Entries are equal-size, so one insertion evicts at most one. A
    /// cache smaller than one entry "evicts" the insertion immediately —
    /// degenerate but legal in capacity sweeps that zero out L1.
    pub fn insert(&mut self, id: QueryId, value: V) -> Option<(QueryId, V, u64)> {
        if self.capacity == 0 {
            return Some((id, value, 1));
        }
        let evicted = if self.lru.remove(&id).is_none() && self.lru.len() >= self.capacity {
            let (victim, entry) = self.lru.pop_lru().expect("a full cache has an LRU entry");
            Some((victim, entry.value, entry.freq))
        } else {
            None
        };
        self.lru.insert_mru(id, MemResult { value, freq: 1 });
        evicted
    }

    /// Whether `id` is cached (no recency effect).
    pub fn contains(&self, id: QueryId) -> bool {
        self.lru.contains(&id)
    }

    /// Remove an entry outright (TTL expiry / invalidation), returning
    /// its payload.
    pub fn remove(&mut self, id: QueryId) -> Option<V> {
        self.lru.remove(&id).map(|entry| entry.value)
    }
}

impl<V> Validate for MemResultCache<V> {
    /// The cached population fits the entry capacity.
    fn validate(&self, report: &mut Report) {
        report.check(
            self.lru.len() <= self.capacity,
            "MemResultCache",
            "entry-capacity",
            || {
                format!(
                    "{} entries cached against a capacity of {}",
                    self.lru.len(),
                    self.capacity
                )
            },
        );
    }
}

/// Metadata of a cached inverted list in memory (Fig. 6(b)'s
/// `<I, freq, size, PU>` value — the postings themselves live with the
/// engine, the cache tracks identity and accounting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ListMeta {
    /// Used (cached-prefix) size `SI` in bytes.
    pub si_bytes: u64,
    /// Running mean utilization rate `PU` of the full list.
    pub pu: f64,
    /// Access count while cached.
    pub freq: u64,
    /// Full on-disk list size (needed by the LRU baseline, which caches
    /// whole lists on SSD).
    pub full_bytes: u64,
}

impl ListMeta {
    /// The entry's efficiency value.
    pub fn ev(&self) -> f64 {
        efficiency_value(self.freq, sc_blocks(self.si_bytes, self.pu))
    }
}

/// The L1 inverted-list cache, keyed by [`TermKey`].
#[derive(Debug, Clone)]
pub struct MemListCache {
    lru: SegmentedLru<TermKey, ListMeta>,
    budget: ByteBudget,
    policy: PolicyKind,
    /// Entries displaced by [`MemListCache::insert`] or by prefix growth
    /// inside [`MemListCache::touch`], selection order first, awaiting
    /// the manager's selection decision.
    evicted: VecDeque<(TermKey, ListMeta)>,
}

impl MemListCache {
    /// Capacity in bytes under `policy`, with replace-first window
    /// `window`.
    pub fn new(capacity_bytes: u64, policy: PolicyKind, window: usize) -> Self {
        MemListCache {
            lru: SegmentedLru::new(window),
            budget: ByteBudget::new(capacity_bytes),
            policy,
            evicted: VecDeque::new(),
        }
    }

    /// Take the oldest displaced entry; the caller owes each one a
    /// selection decision.
    pub fn pop_evicted(&mut self) -> Option<(TermKey, ListMeta)> {
        self.evicted.pop_front()
    }

    /// Entries cached.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Bytes in use.
    pub fn used_bytes(&self) -> u64 {
        self.budget.used()
    }

    /// Every cached term, LRU first.
    pub fn keys(&self) -> Vec<TermKey> {
        self.lru.iter_lru().map(|(&term, _)| term).collect()
    }

    /// The cached metadata of `term` without touching recency.
    pub fn peek(&self, term: TermKey) -> Option<&ListMeta> {
        self.lru.get(&term)
    }

    /// Hit path: bump recency + frequency, and grow the cached prefix /
    /// refresh PU if this access needed more of the list. Returns the
    /// (updated) metadata on hit.
    pub fn touch(
        &mut self,
        term: TermKey,
        needed_bytes: u64,
        observed_pu: f64,
    ) -> Option<ListMeta> {
        let meta = self.lru.touch(&term)?;
        let grow = needed_bytes.saturating_sub(meta.si_bytes);
        // A prefix the cache could never hold is served at the old
        // footprint.
        if grow == 0 || !self.budget.admissible(meta.si_bytes + grow) {
            let out = count_hit(meta, observed_pu);
            audit!(self, "MemListCache::touch");
            return Some(out);
        }
        // Eviction of other entries to make room never selects `term`
        // itself; the displaced entries are queued for the manager to
        // flush (they deserve the same SM decision as insert-time
        // evictions).
        self.make_room(grow, Some(term));
        self.budget.charge(grow);
        let meta = self.lru.get_mut(&term).expect("make_room keeps `term`");
        meta.si_bytes = needed_bytes;
        let out = count_hit(meta, observed_pu);
        audit!(self, "MemListCache::touch(grow)");
        Some(out)
    }

    /// Insert a new list entry (panics if `term` is cached); returns the
    /// entries it evicted, selection order first, which also stay queued
    /// for [`MemListCache::pop_evicted`]. Entries larger than the whole
    /// cache are refused: the rejected metadata comes back as `Err` so
    /// the caller can flush it onward.
    pub fn insert(
        &mut self,
        term: TermKey,
        meta: ListMeta,
    ) -> Result<&[(TermKey, ListMeta)], ListMeta> {
        assert!(!self.lru.contains(&term), "insert of cached key {term:?}");
        if !self.budget.admissible(meta.si_bytes) {
            return Err(meta);
        }
        let queued = self.evicted.len();
        self.make_room(meta.si_bytes, None);
        self.budget.charge(meta.si_bytes);
        self.lru.insert_mru(term, meta);
        audit!(self, "MemListCache::insert");
        Ok(&self.evicted.make_contiguous()[queued..])
    }

    /// Remove an entry outright (e.g. invalidation).
    pub fn remove(&mut self, term: TermKey) -> Option<ListMeta> {
        let meta = self.lru.remove(&term)?;
        self.budget.credit(meta.si_bytes);
        audit!(self, "MemListCache::remove");
        Some(meta)
    }

    /// Evict until `bytes` fit, excluding `keep` from victim selection.
    fn make_room(&mut self, bytes: u64, keep: Option<TermKey>) {
        while !self.budget.fits(bytes) {
            let victim = self
                .pick_victim(keep)
                .expect("budget full but no evictable entry");
            let meta = self.lru.remove(&victim).expect("victim is cached");
            self.budget.credit(meta.si_bytes);
            self.evicted.push_back((victim, meta));
        }
    }

    /// Victim selection per policy.
    fn pick_victim(&self, keep: Option<TermKey>) -> Option<TermKey> {
        let excluded = |t: &TermKey| Some(*t) == keep;
        if self.policy.is_cost_based() {
            // Lowest EV inside the replace-first region (Fig. 12). The
            // score is negated EV because the primitive maximizes.
            let candidate = self
                .lru
                .best_in_replace_first(|t, meta| {
                    if excluded(t) {
                        f64::NEG_INFINITY
                    } else {
                        -meta.ev()
                    }
                })
                .copied();
            // All-window-excluded corner: fall back to strict LRU scan.
            candidate
                .filter(|t| !excluded(t))
                .or_else(|| self.lru.find_anywhere(|t, _| !excluded(t)).copied())
        } else {
            self.lru.find_anywhere(|t, _| !excluded(t)).copied()
        }
    }
}

impl Validate for MemListCache {
    /// Re-derives the L1 list cache's byte accounting (paper Fig. 6(b)
    /// and Fig. 12): the budget equals the sum of cached prefixes and
    /// stays within capacity.
    fn validate(&self, report: &mut Report) {
        const S: &str = "MemListCache";
        let stored: u64 = self.lru.iter_lru().map(|(_, m)| m.si_bytes).sum();
        report.check(stored == self.budget.used(), S, "budget-accounting", || {
            format!(
                "cached prefixes sum to {stored} bytes but the budget charges {}",
                self.budget.used()
            )
        });
        report.check(
            self.budget.used() <= self.budget.capacity(),
            S,
            "budget-capacity",
            || {
                format!(
                    "{} bytes charged against a capacity of {}",
                    self.budget.used(),
                    self.budget.capacity()
                )
            },
        );
    }
}

/// Count one access of a cached list: frequency and the running PU.
fn count_hit(meta: &mut ListMeta, observed_pu: f64) -> ListMeta {
    meta.freq += 1;
    meta.pu = running_pu(meta.pu, meta.freq, observed_pu);
    *meta
}

/// Running mean of PU over the entry's accesses.
fn running_pu(old: f64, new_freq: u64, observed: f64) -> f64 {
    debug_assert!(new_freq >= 1);
    old + (observed - old) / new_freq as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const SB: u64 = crate::BLOCK_BYTES;

    fn meta(si: u64, pu: f64, freq: u64) -> ListMeta {
        ListMeta {
            si_bytes: si,
            pu,
            freq,
            full_bytes: si * 2,
        }
    }

    mod result_cache {
        use super::super::*;

        #[test]
        fn insert_and_evict_lru_order() {
            let mut c: MemResultCache<&str> = MemResultCache::new(40_000);
            assert_eq!(c.insert(1, "a"), None);
            assert_eq!(c.insert(2, "b"), None);
            assert_eq!(
                c.insert(3, "c"),
                Some((1, "a", 1)),
                "the LRU entry leaves with its payload and frequency"
            );
            assert!(c.contains(3));
        }

        #[test]
        fn get_bumps_frequency_and_recency() {
            let mut c: MemResultCache<&str> = MemResultCache::new(40_000);
            c.insert(1, "a");
            c.insert(2, "b");
            assert_eq!(c.get(1), Some(&"a")); // freq 2, now MRU
            assert_eq!(c.get(9), None);
            let ev = c.insert(3, "c").expect("full");
            assert_eq!(ev.0, 2, "2 is now the LRU entry");
            let ev = c.insert(4, "d").expect("full");
            assert_eq!(ev.0, 1);
            assert_eq!(ev.2, 2, "the get was counted");
        }

        #[test]
        fn contains_and_len() {
            let mut c: MemResultCache<u8> = MemResultCache::new(100_000);
            c.insert(7, 0);
            assert!(c.contains(7));
            assert!(!c.contains(8));
            assert_eq!(c.len(), 1);
        }
    }

    #[test]
    fn list_insert_within_budget() {
        let mut c = MemListCache::new(10 * SB, PolicyKind::Cblru, 2);
        assert!(c.insert(1, meta(3 * SB, 0.5, 1)).unwrap().is_empty());
        assert_eq!(c.used_bytes(), 3 * SB);
        assert_eq!(c.peek(1).unwrap().si_bytes, 3 * SB);
    }

    #[test]
    fn oversized_list_refused() {
        let mut c = MemListCache::new(SB, PolicyKind::Cblru, 2);
        assert!(c.insert(1, meta(2 * SB, 0.5, 1)).is_err());
        assert!(c.is_empty());
    }

    #[test]
    fn lru_policy_evicts_strictly_by_recency() {
        let mut c = MemListCache::new(3 * SB, PolicyKind::Lru, 2);
        c.insert(1, meta(SB, 1.0, 100)).unwrap(); // hot but old
        c.insert(2, meta(SB, 1.0, 1)).unwrap();
        c.insert(3, meta(SB, 1.0, 1)).unwrap();
        let ev = c.insert(4, meta(SB, 1.0, 1)).unwrap();
        assert_eq!(ev[0].0, 1, "LRU ignores frequency");
    }

    #[test]
    fn cost_based_policy_evicts_lowest_ev_in_window() {
        let mut c = MemListCache::new(3 * SB, PolicyKind::Cblru, 2);
        // LRU order will be: 1 (LRU), 2, 3 (MRU). Window = {1, 2}.
        c.insert(1, meta(SB, 1.0, 100)).unwrap(); // EV = 100
        c.insert(2, meta(SB, 1.0, 5)).unwrap(); // EV = 5  <- victim
        c.insert(3, meta(SB, 1.0, 1)).unwrap(); // outside window
        let ev = c.insert(4, meta(SB, 1.0, 50)).unwrap();
        assert_eq!(ev[0].0, 2, "lowest EV inside the window loses");
        assert!(
            c.peek(1).is_some(),
            "high-EV entry survives despite being LRU"
        );
    }

    #[test]
    fn equal_ev_in_window_evicts_the_lru_most() {
        let mut c = MemListCache::new(3 * SB, PolicyKind::Cblru, 3);
        c.insert(1, meta(SB, 1.0, 100)).unwrap(); // LRU, but EV = 100
        c.insert(2, meta(SB, 1.0, 5)).unwrap(); // EV = 5  <- victim
        c.insert(3, meta(SB, 1.0, 5)).unwrap(); // EV = 5, more recent
        let ev = c.insert(4, meta(SB, 1.0, 50)).unwrap();
        assert_eq!(ev[0].0, 2, "2 and 3 tie on EV; list order breaks it");
    }

    #[test]
    fn ev_accounts_for_size() {
        let mut c = MemListCache::new(9 * SB, PolicyKind::Cblru, 3);
        // Same freq: the bigger entry has lower EV.
        c.insert(1, meta(4 * SB, 1.0, 10)).unwrap(); // EV = 2.5
        c.insert(2, meta(SB, 1.0, 10)).unwrap(); // EV = 10
        c.insert(3, meta(2 * SB, 1.0, 10)).unwrap(); // EV = 5
        let ev = c.insert(4, meta(3 * SB, 1.0, 10)).unwrap();
        assert_eq!(ev[0].0, 1, "biggest same-freq entry evicted first");
    }

    #[test]
    fn touch_bumps_freq_and_moves_out_of_window() {
        let mut c = MemListCache::new(3 * SB, PolicyKind::Cblru, 2);
        c.insert(1, meta(SB, 0.5, 1)).unwrap();
        c.insert(2, meta(SB, 0.5, 1)).unwrap();
        c.insert(3, meta(SB, 0.5, 1)).unwrap();
        let m = c.touch(1, SB, 0.7).expect("hit");
        assert_eq!(m.freq, 2);
        assert!((m.pu - 0.6).abs() < 1e-12, "running mean of PU");
        // 1 is now MRU; inserting evicts from {2, 3} (the window), not 1.
        let ev = c.insert(4, meta(SB, 0.5, 1)).unwrap();
        assert_ne!(ev[0].0, 1);
    }

    #[test]
    fn touch_grows_prefix_and_budget() {
        let mut c = MemListCache::new(4 * SB, PolicyKind::Cblru, 2);
        c.insert(1, meta(SB, 0.25, 1)).unwrap();
        let m = c.touch(1, 2 * SB, 0.5).expect("hit");
        assert_eq!(m.si_bytes, 2 * SB);
        assert_eq!(c.used_bytes(), 2 * SB);
        // A shorter access never shrinks the prefix.
        let m = c.touch(1, SB / 2, 0.5).expect("hit");
        assert_eq!(m.si_bytes, 2 * SB);
    }

    #[test]
    fn touch_growth_evicts_others_not_self() {
        let mut c = MemListCache::new(3 * SB, PolicyKind::Cblru, 3);
        c.insert(1, meta(SB, 1.0, 1)).unwrap();
        c.insert(2, meta(SB, 1.0, 1)).unwrap();
        c.insert(3, meta(SB, 1.0, 1)).unwrap();
        // Growing 1 by a block must evict 2 or 3, never 1.
        let m = c.touch(1, 2 * SB, 1.0).expect("hit");
        assert_eq!(m.si_bytes, 2 * SB);
        assert!(c.peek(1).is_some());
        assert_eq!(c.len(), 2);
        assert!(c.used_bytes() <= 3 * SB);
    }

    #[test]
    fn miss_returns_none() {
        let mut c = MemListCache::new(SB, PolicyKind::Lru, 2);
        assert!(c.touch(9, 100, 0.5).is_none());
    }

    #[test]
    fn remove_credits_budget() {
        let mut c = MemListCache::new(4 * SB, PolicyKind::Cblru, 2);
        c.insert(1, meta(2 * SB, 0.5, 3)).unwrap();
        let m = c.remove(1).expect("present");
        assert_eq!(m.freq, 3);
        assert_eq!(c.used_bytes(), 0);
        assert!(c.remove(1).is_none());
    }

    #[test]
    fn evictions_carry_updated_meta() {
        let mut c = MemListCache::new(2 * SB, PolicyKind::Cblru, 2);
        c.insert(1, meta(SB, 0.5, 1)).unwrap();
        c.touch(1, SB, 0.9);
        c.insert(2, meta(SB, 0.5, 1)).unwrap();
        let ev = c.insert(3, meta(2 * SB, 0.5, 1)).unwrap();
        let one = ev.iter().find(|(t, _)| *t == 1).expect("1 evicted");
        assert_eq!(one.1.freq, 2, "evicted meta reflects the touch");
    }
}
