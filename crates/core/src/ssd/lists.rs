//! The L2 inverted-list cache ("L2 IC"): block-granular list entries on
//! the SSD.
//!
//! Entries are whole numbers of 128 KB blocks (Formula 1's `SC`), written
//! as full-block requests. Replacement follows Fig. 13's cascade: first
//! **replaceable** entries in the replace-first region, then a
//! **same-size** normal entry there, then **assembly** of several
//! region entries, and in the worst case a scan of the whole LRU list.
//! The LRU baseline replaces the strict LRU entry and caches *full*
//! lists rather than the utilized prefix.

use fxmap::FxHashMap;

use cachekit::SegmentedLru;
use invariant::{audit, Report, Validate};
use simclock::SimDuration;
use storagecore::{BlockDevice, IoRequest};

use crate::ssd::slots::{SlotId, SlotRegion};
use crate::ssd::EntryState;
use crate::{TermKey, BLOCK_BYTES};

/// A cached list entry: Fig. 7(c)'s `<ptr, freq, size>` value (the ptr is
/// the block set).
#[derive(Debug, Clone)]
struct ListEntry {
    blocks: Vec<SlotId>,
    cached_bytes: u64,
    freq: u64,
    state: EntryState,
}

/// Store-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ListStoreStats {
    /// Block writes issued.
    pub block_writes: u64,
    /// Rewrites avoided via a still-valid replaceable copy.
    pub rewrites_avoided: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Victims taken from the replaceable pool (cascade step 1).
    pub replaceable_victims: u64,
    /// Victims chosen by exact size match (cascade step 2).
    pub size_match_victims: u64,
    /// Entries rejected because they exceed the region.
    pub oversize_rejections: u64,
    /// Trims issued on invalidation.
    pub trims: u64,
}

/// The SSD inverted-list store, keyed by [`TermKey`].
#[derive(Debug, Clone)]
pub struct ListStore {
    region: SlotRegion,
    cost_based: bool,
    /// Dynamic entries in recency order: the victim domain.
    lru: SegmentedLru<TermKey, ListEntry>,
    /// Static (pinned) entries, outside the recency list.
    statics: FxHashMap<TermKey, ListEntry>,
    /// Blocks reserved for the static partition (consumed as seeded).
    static_blocks: u32,
    static_used: u32,
    stats: ListStoreStats,
}

impl ListStore {
    /// Create over `region` (one slot = one block).
    pub fn new(region: SlotRegion, cost_based: bool, window: usize, static_fraction: f64) -> Self {
        let static_blocks = (region.capacity() as f64 * static_fraction).floor() as u32;
        ListStore {
            region,
            cost_based,
            lru: SegmentedLru::new(window),
            statics: FxHashMap::default(),
            static_blocks,
            static_used: 0,
            stats: ListStoreStats::default(),
        }
    }

    /// Store counters.
    pub fn stats(&self) -> ListStoreStats {
        self.stats
    }

    /// Cached entry count.
    pub fn len(&self) -> usize {
        self.lru.len() + self.statics.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached entry of `term`, dynamic or static.
    fn entry(&self, term: TermKey) -> Option<&ListEntry> {
        self.lru.get(&term).or_else(|| self.statics.get(&term))
    }

    /// Whether `term` is cached, and how many bytes of it.
    pub fn cached_bytes(&self, term: TermKey) -> Option<u64> {
        self.entry(term).map(|e| e.cached_bytes)
    }

    /// Every cached key, in no particular order.
    pub fn keys(&self) -> Vec<TermKey> {
        self.lru
            .iter_lru()
            .map(|(&term, _)| term)
            .chain(self.statics.keys().copied())
            .collect()
    }

    /// The `(cached_bytes, freq)` profile of a cached entry.
    pub fn entry_profile(&self, term: TermKey) -> Option<(u64, u64)> {
        self.entry(term).map(|e| (e.cached_bytes, e.freq))
    }

    /// Blocks currently unallocated in the dynamic partition.
    fn dynamic_free(&self) -> u32 {
        self.region
            .free_count()
            .saturating_sub(self.static_blocks.saturating_sub(self.static_used))
    }

    /// Serve a hit: read `min(needed, cached)` bytes off the entry's
    /// blocks; under the hybrid scheme the entry turns replaceable (it
    /// now also lives in memory). Returns (bytes served, latency).
    pub fn lookup<D: BlockDevice>(
        &mut self,
        term: TermKey,
        needed_bytes: u64,
        device: &mut D,
        mark_replaceable: bool,
    ) -> Option<(u64, SimDuration)> {
        let (entry, is_static) = match self.lru.touch(&term) {
            Some(entry) => (entry, false),
            None => (self.statics.get_mut(&term)?, true),
        };
        let served = needed_bytes.min(entry.cached_bytes);
        let mut latency = SimDuration::ZERO;
        let mut remaining = served;
        for &block in &entry.blocks {
            if remaining == 0 {
                break;
            }
            let take = remaining.min(BLOCK_BYTES);
            let extent = self.region.sub_extent(block, 0, take);
            latency += device.read(extent).expect("list extent is in-region");
            remaining -= take;
        }
        if mark_replaceable && !is_static {
            entry.state = EntryState::Replaceable;
        }
        entry.freq += 1;
        audit!(self, "ListStore::lookup");
        Some((served, latency))
    }

    /// Accept a list evicted from memory: `blocks_needed` blocks covering
    /// `cached_bytes` of useful prefix. Admission (TEV) is the manager's
    /// decision. Returns `(cached, latency)` — `cached == false` when the
    /// entry cannot fit the region.
    pub fn offer<D: BlockDevice>(
        &mut self,
        term: TermKey,
        blocks_needed: u64,
        cached_bytes: u64,
        freq: u64,
        device: &mut D,
    ) -> (bool, SimDuration) {
        debug_assert!(blocks_needed > 0);
        debug_assert!(cached_bytes <= blocks_needed * BLOCK_BYTES);
        // Dedup: the same term's replaceable copy still covers this data —
        // flip it back to normal, no write.
        let cached = match self.lru.get_mut(&term) {
            Some(entry) => Some((entry, false)),
            None => self.statics.get_mut(&term).map(|entry| (entry, true)),
        };
        if let Some((entry, is_static)) = cached {
            if entry.blocks.len() as u64 >= blocks_needed {
                entry.state = EntryState::Normal;
                entry.freq = entry.freq.max(freq);
                entry.cached_bytes = entry.cached_bytes.max(cached_bytes);
                self.stats.rewrites_avoided += 1;
                if !is_static {
                    self.lru.touch(&term);
                }
                audit!(self, "ListStore::offer(dedup)");
                return (false, SimDuration::ZERO);
            }
            // The new prefix is bigger: drop the stale copy and rewrite.
            self.evict(term);
        }
        let dynamic_capacity = self.region.capacity() - self.static_blocks;
        if blocks_needed > dynamic_capacity as u64 {
            self.stats.oversize_rejections += 1;
            return (false, SimDuration::ZERO);
        }
        // Make room.
        while (self.dynamic_free() as u64) < blocks_needed {
            let victim = self
                .pick_victim(blocks_needed)
                .expect("capacity checked, so some entry must be evictable");
            self.evict(victim);
        }
        // Allocate and write whole blocks.
        let mut blocks = Vec::with_capacity(blocks_needed as usize);
        let mut latency = SimDuration::ZERO;
        for _ in 0..blocks_needed {
            let slot = self.region.alloc().expect("room was made");
            latency += device
                .request(&IoRequest::write(self.region.extent(slot)).background())
                .expect("block extent is in-region");
            self.stats.block_writes += 1;
            blocks.push(slot);
        }
        self.lru.insert_mru(
            term,
            ListEntry {
                blocks,
                cached_bytes,
                freq,
                state: EntryState::Normal,
            },
        );
        audit!(self, "ListStore::offer(write)");
        (true, latency)
    }

    /// Fig. 13's victim cascade.
    fn pick_victim(&self, blocks_needed: u64) -> Option<TermKey> {
        if !self.cost_based {
            return self.lru.find_anywhere(|_, _| true).copied();
        }
        // 1. Replaceable entry in the replace-first region.
        if let Some(t) = self
            .lru
            .find_in_replace_first(|_, e| e.state == EntryState::Replaceable)
        {
            return Some(*t);
        }
        // 2. Same-size normal entry in the replace-first region.
        if let Some(t) = self
            .lru
            .find_in_replace_first(|_, e| e.blocks.len() as u64 == blocks_needed)
        {
            return Some(*t);
        }
        // 3. Assembly: take replace-first entries LRU-first (the caller
        //    loops until enough blocks are free).
        if let Some(t) = self.lru.find_in_replace_first(|_, _| true) {
            return Some(*t);
        }
        // 4. Worst case: anywhere in the list.
        self.lru.find_anywhere(|_, _| true).copied()
    }

    /// Evict one entry, releasing its blocks (no trim: the blocks are
    /// about to be overwritten).
    fn evict(&mut self, term: TermKey) {
        debug_assert!(self.lru.contains(&term), "static entries are never evicted");
        let in_window = self.cost_based && self.lru.in_replace_first(&term);
        let entry = self
            .lru
            .remove(&term)
            .or_else(|| self.statics.remove(&term))
            .expect("victim exists");
        match entry.state {
            EntryState::Replaceable => self.stats.replaceable_victims += 1,
            EntryState::Normal => {
                if in_window {
                    // Counted as a size-match or assembly victim; the
                    // distinction is which cascade step chose it — recorded
                    // by the caller via pick order. Size-match bookkeeping:
                    self.stats.size_match_victims += 1;
                }
            }
        }
        for block in entry.blocks {
            self.region.release(block);
        }
        self.stats.evictions += 1;
    }

    /// Remove an entry outright, trimming its blocks ("it's better to
    /// delete the cold data at a proper time … some types of SSD support
    /// Trim").
    pub fn invalidate<D: BlockDevice>(&mut self, term: TermKey, device: &mut D) -> SimDuration {
        let (entry, is_static) = match self.lru.remove(&term) {
            Some(entry) => (entry, false),
            None => match self.statics.remove(&term) {
                Some(entry) => (entry, true),
                None => return SimDuration::ZERO,
            },
        };
        let mut latency = SimDuration::ZERO;
        for block in entry.blocks {
            latency += device
                .request(&IoRequest::trim(self.region.extent(block)).background())
                .expect("block extent is in-region");
            self.stats.trims += 1;
            self.region.release(block);
        }
        if is_static {
            self.static_used -= entry.cached_bytes.div_ceil(BLOCK_BYTES) as u32;
        }
        audit!(self, "ListStore::invalidate");
        latency
    }

    /// Seed the CBSLRU static partition with the most efficient lists
    /// (term, blocks, covered bytes, freq), best first. Stops when the
    /// static budget is exhausted. Returns the write latency.
    pub fn seed_static<D: BlockDevice>(
        &mut self,
        lists: Vec<(TermKey, u64, u64, u64)>,
        device: &mut D,
    ) -> SimDuration {
        let mut latency = SimDuration::ZERO;
        for (term, blocks_needed, cached_bytes, freq) in lists {
            if self.static_used + blocks_needed as u32 > self.static_blocks {
                continue;
            }
            if self.entry(term).is_some() {
                continue;
            }
            let mut blocks = Vec::with_capacity(blocks_needed as usize);
            for _ in 0..blocks_needed {
                let slot = self.region.alloc().expect("static budget fits the region");
                latency += device
                    .request(&IoRequest::write(self.region.extent(slot)).background())
                    .expect("block extent is in-region");
                self.stats.block_writes += 1;
                blocks.push(slot);
            }
            self.static_used += blocks_needed as u32;
            self.statics.insert(
                term,
                ListEntry {
                    blocks,
                    cached_bytes,
                    freq,
                    state: EntryState::Normal,
                },
            );
        }
        audit!(self, "ListStore::seed_static");
        latency
    }

    /// Test hook: force `term`'s entry state, bypassing the hit-path
    /// guards — forcing a *static* entry replaceable reproduces the
    /// out-of-order free → normal → replaceable transition the
    /// `state-machine` validator exists to catch (pinned entries never
    /// leave Normal).
    #[doc(hidden)]
    pub fn debug_force_state(&mut self, term: TermKey, state: EntryState) {
        let entry = match self.lru.get_mut(&term) {
            Some(entry) => entry,
            None => self.statics.get_mut(&term).expect("entry cached"),
        };
        entry.state = state;
    }
}

impl Validate for ListStore {
    /// Re-derives the list store's redundant bookkeeping (paper Sec.
    /// VI-B/C, Figs. 7(c) and 13) and cross-checks it:
    ///
    /// * the entries and the block allocator agree (every cached block
    ///   belongs to exactly one entry, every entry's blocks are allocated
    ///   region slots), and no term is both static and on the recency
    ///   list;
    /// * entries cover whole 128 KB blocks — `cached_bytes` never exceeds
    ///   the blocks that were written for it;
    /// * static (pinned) entries never leave Normal and stay within the
    ///   static block budget.
    fn validate(&self, report: &mut Report) {
        const S: &str = "ListStore";
        self.region.validate(report);

        let mut used_blocks = 0usize;
        let mut block_owners = FxHashMap::default();
        let mut static_used = 0u64;
        let dynamic = self.lru.iter_lru().map(|(t, e)| (t, e, false));
        let pinned = self.statics.iter().map(|(t, e)| (t, e, true));
        for (&term, entry, is_static) in dynamic.chain(pinned) {
            report.check(!entry.blocks.is_empty(), S, "block-accounting", || {
                format!("entry {term:?} is cached with zero blocks")
            });
            report.check(
                entry.cached_bytes <= entry.blocks.len() as u64 * BLOCK_BYTES,
                S,
                "block-alignment",
                || {
                    format!(
                        "entry {term:?} claims {} cached bytes over {} whole blocks",
                        entry.cached_bytes,
                        entry.blocks.len()
                    )
                },
            );
            for &block in &entry.blocks {
                used_blocks += 1;
                report.check(
                    block < self.region.capacity() && !self.region.is_free(block),
                    S,
                    "block-accounting",
                    || format!("entry {term:?} holds unallocated block {block}"),
                );
                if let Some(other) = block_owners.insert(block, term) {
                    report.violation(
                        S,
                        "block-accounting",
                        format!("block {block} is owned by both {other:?} and {term:?}"),
                    );
                }
            }
            if is_static {
                static_used += entry.blocks.len() as u64;
                report.check(
                    entry.state == EntryState::Normal,
                    S,
                    "state-machine",
                    || {
                        format!(
                            "static (pinned) entry {term:?} left Normal: {:?}",
                            entry.state
                        )
                    },
                );
                report.check(!self.lru.contains(&term), S, "lru-membership", || {
                    format!("static (pinned) entry {term:?} is also on the recency list")
                });
            }
        }
        report.check(
            self.region.used_count() as usize == used_blocks,
            S,
            "block-accounting",
            || {
                format!(
                    "region reports {} used blocks but entries own {used_blocks}",
                    self.region.used_count()
                )
            },
        );
        report.check(
            static_used == self.static_used as u64,
            S,
            "static-budget",
            || {
                format!(
                    "static entries own {static_used} blocks but the store accounts {}",
                    self.static_used
                )
            },
        );
        report.check(
            self.static_used <= self.static_blocks,
            S,
            "static-budget",
            || {
                format!(
                    "{} static blocks exceed the {}-block budget",
                    self.static_used, self.static_blocks
                )
            },
        );
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the store's own unit tests drive it below the admission gate"
)]
mod tests {
    use super::*;
    use simclock::SimDuration;
    use storagecore::{IoKind, RamDisk};

    const BLOCK: u64 = BLOCK_BYTES;

    fn device() -> RamDisk {
        RamDisk::with_capacity_bytes(64 << 20, SimDuration::from_micros(10))
    }

    fn store(blocks: u32, cost_based: bool) -> ListStore {
        ListStore::new(SlotRegion::new(0, blocks), cost_based, 2, 0.0)
    }

    #[test]
    fn offer_writes_whole_blocks() {
        let mut s = store(8, true);
        let mut dev = device();
        let (cached, t) = s.offer(1, 3, 3 * BLOCK - 100, 5, &mut dev);
        assert!(cached);
        assert!(t > SimDuration::ZERO);
        assert_eq!(dev.stats().ops(IoKind::Write), 3);
        assert_eq!(dev.stats().kind(IoKind::Write).bytes(), 3 * BLOCK);
        assert_eq!(s.cached_bytes(1), Some(3 * BLOCK - 100));
    }

    #[test]
    fn lookup_serves_prefix_and_marks_replaceable() {
        let mut s = store(8, true);
        let mut dev = device();
        s.offer(1, 2, 2 * BLOCK, 5, &mut dev);
        let (served, t) = s.lookup(1, BLOCK / 2, &mut dev, true).expect("hit");
        assert_eq!(served, BLOCK / 2);
        assert!(t > SimDuration::ZERO);
        // Asked for more than cached: clamped.
        let (served, _) = s.lookup(1, 10 * BLOCK, &mut dev, true).expect("hit");
        assert_eq!(served, 2 * BLOCK);
        // Entry is replaceable but still serving.
        assert_eq!(s.entry(1).unwrap().state, EntryState::Replaceable);
    }

    #[test]
    fn lookup_miss() {
        let mut s = store(4, true);
        let mut dev = device();
        assert!(s.lookup(9, BLOCK, &mut dev, true).is_none());
    }

    #[test]
    fn dedup_flips_replaceable_back() {
        let mut s = store(8, true);
        let mut dev = device();
        s.offer(1, 2, 2 * BLOCK, 5, &mut dev);
        s.lookup(1, BLOCK, &mut dev, true);
        let writes = dev.stats().ops(IoKind::Write);
        let (cached, t) = s.offer(1, 2, 2 * BLOCK, 6, &mut dev);
        assert!(!cached, "no new write needed");
        assert_eq!(t, SimDuration::ZERO);
        assert_eq!(dev.stats().ops(IoKind::Write), writes);
        assert_eq!(s.stats().rewrites_avoided, 1);
        assert_eq!(s.entry(1).unwrap().state, EntryState::Normal);
    }

    #[test]
    fn grown_prefix_rewrites() {
        let mut s = store(8, true);
        let mut dev = device();
        s.offer(1, 1, BLOCK, 5, &mut dev);
        let (cached, _) = s.offer(1, 3, 3 * BLOCK, 6, &mut dev);
        assert!(cached, "bigger prefix must rewrite");
        assert_eq!(s.cached_bytes(1), Some(3 * BLOCK));
        assert_eq!(s.stats().evictions, 1, "the stale copy was evicted");
    }

    #[test]
    fn replaceable_entries_are_preferred_victims() {
        let mut s = store(4, true);
        let mut dev = device();
        s.offer(1, 2, 2 * BLOCK, 5, &mut dev); // LRU
        s.offer(2, 2, 2 * BLOCK, 5, &mut dev); // MRU
                                               // Make the *MRU* entry replaceable; window (2) covers both.
        s.lookup(2, BLOCK, &mut dev, true);
        s.offer(3, 2, 2 * BLOCK, 5, &mut dev);
        assert!(s.cached_bytes(1).is_some(), "normal LRU entry survives");
        assert!(
            s.cached_bytes(2).is_none(),
            "replaceable entry was replaced"
        );
        assert_eq!(s.stats().replaceable_victims, 1);
    }

    #[test]
    fn size_match_beats_plain_lru_order() {
        let mut s = ListStore::new(SlotRegion::new(0, 6), true, 3, 0.0);
        let mut dev = device();
        s.offer(1, 1, BLOCK, 5, &mut dev); // LRU, size 1
        s.offer(2, 4, 4 * BLOCK, 5, &mut dev); // size 4
        s.offer(3, 1, BLOCK, 5, &mut dev); // MRU, size 1
                                           // Need 4 blocks: the size-4 entry is the exact match, even though
                                           // entry 1 is older.
        s.offer(4, 4, 4 * BLOCK, 5, &mut dev);
        assert!(s.cached_bytes(1).is_some());
        assert!(s.cached_bytes(2).is_none(), "size match evicted");
        assert!(s.cached_bytes(4).is_some());
    }

    #[test]
    fn same_size_tie_goes_to_the_lru_most() {
        let mut s = ListStore::new(SlotRegion::new(0, 6), true, 3, 0.0);
        let mut dev = device();
        s.offer(1, 1, BLOCK, 5, &mut dev); // LRU, size 1
        s.offer(2, 2, 2 * BLOCK, 5, &mut dev); // size 2  <- victim
        s.offer(3, 2, 2 * BLOCK, 5, &mut dev); // size 2, more recent
        s.offer(4, 2, 2 * BLOCK, 5, &mut dev);
        assert!(s.cached_bytes(2).is_none(), "list order breaks the tie");
        assert!(s.cached_bytes(1).is_some() && s.cached_bytes(3).is_some());
        assert_eq!(s.stats().size_match_victims, 1);
    }

    #[test]
    fn assembly_evicts_several_small_entries() {
        let mut s = ListStore::new(SlotRegion::new(0, 4), true, 4, 0.0);
        let mut dev = device();
        for t in 1..=4 {
            s.offer(t, 1, BLOCK, 5, &mut dev);
        }
        // A 3-block entry must displace three 1-block entries.
        s.offer(9, 3, 3 * BLOCK, 5, &mut dev);
        assert!(s.cached_bytes(9).is_some());
        assert_eq!(s.len(), 2, "three of four small entries gone");
        assert_eq!(s.stats().evictions, 3);
    }

    #[test]
    fn lru_baseline_evicts_by_recency_only() {
        let mut s = store(4, false);
        let mut dev = device();
        s.offer(1, 2, 2 * BLOCK, 100, &mut dev); // hot but LRU
        s.offer(2, 2, 2 * BLOCK, 1, &mut dev);
        s.offer(3, 2, 2 * BLOCK, 1, &mut dev);
        assert!(s.cached_bytes(1).is_none(), "strict LRU ignores frequency");
        assert!(s.cached_bytes(2).is_some() && s.cached_bytes(3).is_some());
    }

    #[test]
    fn oversize_rejected() {
        let mut s = store(4, true);
        let mut dev = device();
        let (cached, _) = s.offer(1, 5, 5 * BLOCK, 5, &mut dev);
        assert!(!cached);
        assert_eq!(s.stats().oversize_rejections, 1);
        assert!(s.is_empty());
    }

    #[test]
    fn invalidate_trims_blocks() {
        let mut s = store(4, true);
        let mut dev = device();
        s.offer(1, 2, 2 * BLOCK, 5, &mut dev);
        let t = s.invalidate(1, &mut dev);
        assert!(t > SimDuration::ZERO);
        assert_eq!(dev.stats().ops(IoKind::Trim), 2);
        assert!(s.is_empty());
        assert_eq!(s.dynamic_free(), 4);
        // Idempotent.
        assert_eq!(s.invalidate(1, &mut dev), SimDuration::ZERO);
    }

    #[test]
    fn static_partition_survives_pressure() {
        let mut s = ListStore::new(SlotRegion::new(0, 6), true, 2, 0.5);
        let mut dev = device();
        s.seed_static(vec![(100, 2, 2 * BLOCK, 50), (101, 1, BLOCK, 40)], &mut dev);
        assert_eq!(s.cached_bytes(100), Some(2 * BLOCK));
        // Dynamic half (3 blocks) churns; static stays.
        for t in 1..20 {
            s.offer(t, 1, BLOCK, 5, &mut dev);
        }
        assert!(s.cached_bytes(100).is_some());
        assert!(s.cached_bytes(101).is_some());
        // Static lookups never go replaceable.
        s.lookup(100, BLOCK, &mut dev, true);
        assert_eq!(s.entry(100).unwrap().state, EntryState::Normal);
    }

    #[test]
    fn static_budget_is_respected() {
        let mut s = ListStore::new(SlotRegion::new(0, 4), true, 2, 0.5);
        let mut dev = device();
        // Budget = 2 blocks; the 3-block list cannot be seeded.
        s.seed_static(
            vec![(100, 3, 3 * BLOCK, 50), (101, 2, 2 * BLOCK, 40)],
            &mut dev,
        );
        assert!(s.cached_bytes(100).is_none());
        assert_eq!(s.cached_bytes(101), Some(2 * BLOCK));
    }
}
