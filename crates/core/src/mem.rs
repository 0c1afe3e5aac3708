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

use fxmap::FxHashMap;

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
    lru: LruList<QueryId>,
    map: FxHashMap<QueryId, MemResult<V>>,
    /// Entries that fit: `⌊capacity_bytes / RESULT_ENTRY_BYTES⌋`.
    capacity: usize,
}

impl<V> MemResultCache<V> {
    /// Capacity in bytes; every entry costs [`RESULT_ENTRY_BYTES`].
    pub fn new(capacity_bytes: u64) -> Self {
        MemResultCache {
            lru: LruList::new(),
            map: FxHashMap::default(),
            capacity: (capacity_bytes / RESULT_ENTRY_BYTES) as usize,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up a result; a hit bumps recency and frequency.
    pub fn get(&mut self, id: QueryId) -> Option<&V> {
        let entry = self.map.get_mut(&id)?;
        self.lru.touch(&id);
        entry.freq += 1;
        Some(&entry.value)
    }

    /// Insert a fresh result with frequency 1 (replacing any cached entry
    /// for `id`); returns evicted entries (id, payload, freq), oldest
    /// first. A cache smaller than one entry "evicts" the insertion
    /// immediately — degenerate but legal in capacity sweeps that zero
    /// out L1.
    pub fn insert(&mut self, id: QueryId, value: V) -> Vec<(QueryId, V, u64)> {
        if self.capacity == 0 {
            return vec![(id, value, 1)];
        }
        if self.map.remove(&id).is_some() {
            self.lru.remove(&id);
        }
        let mut evicted = Vec::new();
        while self.map.len() >= self.capacity {
            let victim = self.lru.pop_lru().expect("a full cache has an LRU entry");
            let entry = self.map.remove(&victim).expect("list/map agree");
            evicted.push((victim, entry.value, entry.freq));
        }
        self.lru.insert_mru(id);
        self.map.insert(id, MemResult { value, freq: 1 });
        evicted
    }

    /// Whether `id` is cached (no recency effect).
    pub fn contains(&self, id: QueryId) -> bool {
        self.map.contains_key(&id)
    }

    /// Remove an entry outright (TTL expiry / invalidation), returning
    /// its payload.
    pub fn remove(&mut self, id: QueryId) -> Option<V> {
        let entry = self.map.remove(&id)?;
        self.lru.remove(&id);
        Some(entry.value)
    }
}

impl<V> Validate for MemResultCache<V> {
    /// The recency list and the entry map describe the same population,
    /// and it fits the entry capacity.
    fn validate(&self, report: &mut Report) {
        const S: &str = "MemResultCache";
        report.check(
            self.lru.len() == self.map.len(),
            S,
            "list-map-agree",
            || {
                format!(
                    "list tracks {} ids, map holds {}",
                    self.lru.len(),
                    self.map.len()
                )
            },
        );
        let mut listed = 0usize;
        for id in self.lru.iter_lru() {
            listed += 1;
            report.check(self.map.contains_key(id), S, "list-map-agree", || {
                format!("{id:?} is on the recency list but has no entry")
            });
        }
        report.check(listed == self.lru.len(), S, "list-link-count", || {
            format!(
                "walking the list visits {listed} nodes but len() says {}",
                self.lru.len()
            )
        });
        report.check(self.map.len() <= self.capacity, S, "entry-capacity", || {
            format!(
                "{} entries cached against a capacity of {}",
                self.map.len(),
                self.capacity
            )
        });
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
    lru: SegmentedLru<TermKey>,
    map: FxHashMap<TermKey, ListMeta>,
    budget: ByteBudget,
    policy: PolicyKind,
    /// Entries displaced by prefix growth inside [`MemListCache::touch`],
    /// awaiting collection by the manager's selection management.
    pending_evictions: Vec<(TermKey, ListMeta)>,
}

impl MemListCache {
    /// Capacity in bytes under `policy`, with replace-first window
    /// `window`.
    pub fn new(capacity_bytes: u64, policy: PolicyKind, window: usize) -> Self {
        MemListCache {
            lru: SegmentedLru::new(window),
            map: FxHashMap::default(),
            budget: ByteBudget::new(capacity_bytes),
            policy,
            pending_evictions: Vec::new(),
        }
    }

    /// Take the entries displaced by prefix growth during recent
    /// [`MemListCache::touch`] calls; the caller owes them a selection
    /// decision exactly like insert-time evictions.
    pub fn drain_evicted(&mut self) -> Vec<(TermKey, ListMeta)> {
        std::mem::take(&mut self.pending_evictions)
    }

    /// Entries cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes in use.
    pub fn used_bytes(&self) -> u64 {
        self.budget.used()
    }

    /// Metadata of a cached term (no recency effect).
    pub fn keys(&self) -> Vec<TermKey> {
        self.map.keys().copied().collect()
    }

    /// The cached metadata of `term` without touching recency.
    pub fn peek(&self, term: TermKey) -> Option<&ListMeta> {
        self.map.get(&term)
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
        if !self.lru.touch(&term) {
            return None;
        }
        // Growing the prefix may exceed the budget; make room first.
        let meta = self.map[&term];
        let grow = needed_bytes.saturating_sub(meta.si_bytes);
        if grow > 0 {
            if !self.budget.admissible(meta.si_bytes + grow) {
                // Cannot ever hold the grown prefix: serve the hit but keep
                // the old footprint.
                let m = self.map.get_mut(&term).expect("touched");
                m.freq += 1;
                m.pu = running_pu(m.pu, m.freq, observed_pu);
                let out = *m;
                audit!(self, "MemListCache::touch(capped)");
                return Some(out);
            }
            // Eviction of other entries to make room never selects `term`
            // itself; the displaced entries are parked for the manager to
            // flush (they deserve the same SM decision as insert-time
            // evictions).
            let evicted = self.make_room(grow, Some(term));
            self.pending_evictions.extend(evicted);
            self.budget.charge(grow);
        }
        let m = self.map.get_mut(&term).expect("touched");
        m.si_bytes = m.si_bytes.max(needed_bytes);
        m.freq += 1;
        m.pu = running_pu(m.pu, m.freq, observed_pu);
        let out = *m;
        audit!(self, "MemListCache::touch");
        Some(out)
    }

    /// Insert a new list entry; returns evicted `(term, meta)` pairs,
    /// selection-order first. Entries larger than the whole cache are
    /// refused: the rejected metadata comes back as `Err` so the caller
    /// can flush it onward.
    pub fn insert(
        &mut self,
        term: TermKey,
        meta: ListMeta,
    ) -> Result<Vec<(TermKey, ListMeta)>, ListMeta> {
        assert!(
            !self.map.contains_key(&term),
            "insert of cached key {term:?}"
        );
        if !self.budget.admissible(meta.si_bytes) {
            return Err(meta);
        }
        let evicted = self.make_room(meta.si_bytes, None);
        self.budget.charge(meta.si_bytes);
        self.map.insert(term, meta);
        self.lru.insert_mru(term);
        audit!(self, "MemListCache::insert");
        Ok(evicted)
    }

    /// Remove an entry outright (e.g. invalidation).
    pub fn remove(&mut self, term: TermKey) -> Option<ListMeta> {
        let meta = self.map.remove(&term)?;
        self.lru.remove(&term);
        self.budget.credit(meta.si_bytes);
        audit!(self, "MemListCache::remove");
        Some(meta)
    }

    /// Evict until `bytes` fit, excluding `keep` from victim selection.
    fn make_room(&mut self, bytes: u64, keep: Option<TermKey>) -> Vec<(TermKey, ListMeta)> {
        let mut evicted = Vec::new();
        while !self.budget.fits(bytes) {
            let victim = self
                .pick_victim(keep)
                .expect("budget full but no evictable entry");
            let meta = self.map.remove(&victim).expect("victim is cached");
            self.lru.remove(&victim);
            self.budget.credit(meta.si_bytes);
            evicted.push((victim, meta));
        }
        evicted
    }

    /// Victim selection per policy.
    fn pick_victim(&self, keep: Option<TermKey>) -> Option<TermKey> {
        let excluded = |t: &TermKey| Some(*t) == keep;
        if self.policy.is_cost_based() {
            // Lowest EV inside the replace-first region (Fig. 12). The
            // score is negated EV because the primitive maximizes.
            let candidate = self
                .lru
                .best_in_replace_first(|t| {
                    if excluded(t) {
                        f64::NEG_INFINITY
                    } else {
                        -self.map[t].ev()
                    }
                })
                .copied();
            // All-window-excluded corner: fall back to strict LRU scan.
            candidate
                .filter(|t| !excluded(t))
                .or_else(|| self.lru.find_anywhere(|t| !excluded(t)).copied())
        } else {
            self.lru.find_anywhere(|t| !excluded(t)).copied()
        }
    }
}

impl Validate for MemListCache {
    /// Re-derives the L1 list cache's bookkeeping (paper Fig. 6(b) and
    /// Fig. 12) and cross-checks it: the recency list and metadata table
    /// hold the same terms, and the byte budget equals the sum of cached
    /// prefixes.
    fn validate(&self, report: &mut Report) {
        const S: &str = "MemListCache";
        report.check(self.lru.len() == self.map.len(), S, "lru-map-agree", || {
            format!(
                "recency list tracks {} terms, metadata table {}",
                self.lru.len(),
                self.map.len()
            )
        });
        for term in self.lru.iter_lru() {
            report.check(self.map.contains_key(term), S, "lru-map-agree", || {
                format!("{term:?} is on the recency list but has no metadata")
            });
        }
        let stored: u64 = self.map.values().map(|m| m.si_bytes).sum();
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
            assert!(c.insert(1, "a").is_empty());
            assert!(c.insert(2, "b").is_empty());
            let ev = c.insert(3, "c");
            assert_eq!(ev.len(), 1);
            assert_eq!(ev[0].0, 1);
            assert_eq!(ev[0].1, "a");
            assert_eq!(ev[0].2, 1, "frequency travels with the eviction");
            assert!(c.contains(3));
        }

        #[test]
        fn get_bumps_frequency_and_recency() {
            let mut c: MemResultCache<&str> = MemResultCache::new(40_000);
            c.insert(1, "a");
            c.insert(2, "b");
            assert_eq!(c.get(1), Some(&"a")); // freq 2, now MRU
            assert_eq!(c.get(9), None);
            let ev = c.insert(3, "c");
            assert_eq!(ev[0].0, 2, "2 is now the LRU entry");
            let ev = c.insert(4, "d");
            assert_eq!(ev[0].0, 1);
            assert_eq!(ev[0].2, 2, "the get was counted");
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
