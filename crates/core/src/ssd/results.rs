//! The L2 result cache ("L2 RC"): result blocks on the SSD.
//!
//! Under the cost-based policies, evicted result entries are staged in a
//! write buffer and flushed as whole 128 KB **result blocks** (Fig. 10(b)
//! — "several small random writes can be assembled into a large
//! sequential write"); the replacement victim is the result block with the
//! largest invalid-entry count (IREN) inside the replace-first region
//! (Fig. 11). Under the LRU baseline every entry is written individually
//! at its slot position — the small-random-write behaviour the paper
//! charges against LRU — and the victim is the strict LRU entry.

use fxmap::{FxHashMap, FxHashSet};

use cachekit::SegmentedLru;
use invariant::{audit, Report, Validate};
use simclock::SimDuration;
use storagecore::{BlockDevice, Extent, IoRequest};

use crate::config::{HybridConfig, RESULT_ENTRY_BYTES};
use crate::ssd::slots::{SlotId, SlotRegion};
use crate::ssd::EntryState;
use crate::QueryId;

/// Result entries per result block.
const ENTRIES_PER_RB: usize = HybridConfig::entries_per_rb();

/// A cached result entry: Fig. 7(a)'s query → (RB, index) mapping and the
/// payload it points at.
#[derive(Debug, Clone)]
struct Stored<V> {
    slot: SlotId,
    idx: u8,
    value: V,
    freq: u64,
    state: EntryState,
}

/// Result-block metadata: Fig. 7(b)'s `<ptr, flag>` — the pointer is the
/// slot, the flag bitmap is `entries` (Some = valid bit set).
#[derive(Debug, Clone)]
struct Rb {
    entries: [Option<QueryId>; ENTRIES_PER_RB],
    is_static: bool,
}

impl Rb {
    fn new(is_static: bool) -> Self {
        Rb {
            entries: [None; ENTRIES_PER_RB],
            is_static,
        }
    }
}

/// The RB in `slot`, if the slot is in range and mapped.
fn rb_at(rbs: &[Option<Rb>], slot: SlotId) -> Option<&Rb> {
    rbs.get(slot as usize)?.as_ref()
}

/// Mapped RB `slot`.
fn rb(rbs: &[Option<Rb>], slot: SlotId) -> &Rb {
    rb_at(rbs, slot).expect("slot holds an RB")
}

/// Mapped RB `slot`, for update.
fn rb_mut(rbs: &mut [Option<Rb>], slot: SlotId) -> &mut Rb {
    rbs[slot as usize].as_mut().expect("slot holds an RB")
}

/// The extent of entry position `idx` inside RB `slot`.
fn entry_extent(region: &SlotRegion, slot: SlotId, idx: u8) -> Extent {
    region.sub_extent(slot, idx as u64 * RESULT_ENTRY_BYTES, RESULT_ENTRY_BYTES)
}

/// Store-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultStoreStats {
    /// Whole-RB writes issued (cost-based path).
    pub rb_writes: u64,
    /// Individual entry writes issued (LRU path).
    pub entry_writes: u64,
    /// Flushes avoided because a replaceable copy was still valid.
    pub rewrites_avoided: u64,
    /// Valid entries destroyed by RB overwrites.
    pub collateral_evictions: u64,
    /// Trims issued for fully-invalid RBs.
    pub trims: u64,
}

/// The SSD result store.
#[derive(Debug, Clone)]
pub struct ResultStore<V> {
    region: SlotRegion,
    cost_based: bool,
    /// RB recency list (cost-based victim domain; static RBs excluded).
    rb_lru: SegmentedLru<SlotId, ()>,
    /// Entry recency list (LRU-baseline victim domain).
    entry_lru: SegmentedLru<QueryId, ()>,
    /// The RB of each slot, indexed by [`SlotId`]; `None` while free.
    rbs: Vec<Option<Rb>>,
    /// The result mapping table: query → its RB position and payload.
    map: FxHashMap<QueryId, Stored<V>>,
    /// LRU mode: open entry positions available for small writes.
    free_entries: Vec<(SlotId, u8)>,
    /// CB mode: staged evictions awaiting assembly.
    write_buffer: Vec<(QueryId, V, u64)>,
    /// Slots reserved for (and consumed by) the CBSLRU static partition.
    static_slots: u32,
    static_used: u32,
    stats: ResultStoreStats,
}

impl<V: Clone> ResultStore<V> {
    /// Create over `region`, one RB per slot. `window` is the
    /// replace-first window over RBs (cost-based) or entries (LRU).
    pub fn new(region: SlotRegion, cost_based: bool, window: usize, static_fraction: f64) -> Self {
        let static_slots = (region.capacity() as f64 * static_fraction).floor() as u32;
        ResultStore {
            rbs: vec![None; region.capacity() as usize],
            region,
            cost_based,
            rb_lru: SegmentedLru::new(window),
            entry_lru: SegmentedLru::new(window),
            map: FxHashMap::default(),
            free_entries: Vec::new(),
            write_buffer: Vec::new(),
            static_slots,
            static_used: 0,
            stats: ResultStoreStats::default(),
        }
    }

    /// Store counters.
    pub fn stats(&self) -> ResultStoreStats {
        self.stats
    }

    /// Cached entry count (staged write-buffer entries excluded).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `id` is cached on the SSD.
    pub fn contains(&self, id: QueryId) -> bool {
        self.map.contains_key(&id)
    }

    /// Serve a hit: reads the entry's sub-extent from the SSD and, under
    /// the hybrid scheme, turns the copy replaceable. Returns the payload,
    /// its frequency and the device latency.
    pub fn lookup<D: BlockDevice>(
        &mut self,
        id: QueryId,
        device: &mut D,
        mark_replaceable: bool,
    ) -> Option<(V, u64, SimDuration)> {
        let stored = self.map.get_mut(&id)?;
        let slot = stored.slot;
        let latency = device
            .read(entry_extent(&self.region, slot, stored.idx))
            .expect("result extent is in-region");
        let is_static = rb(&self.rbs, slot).is_static;
        if mark_replaceable && !is_static {
            stored.state = EntryState::Replaceable;
        }
        let out = (stored.value.clone(), stored.freq, latency);
        if !is_static {
            if self.cost_based {
                self.rb_lru.touch(&slot);
            } else {
                self.entry_lru.touch(&id);
            }
        }
        audit!(self, "ResultStore::lookup");
        Some(out)
    }

    /// Accept an entry evicted from memory. Admission is the manager's
    /// decision; this handles dedup, staging and writes. Returns the SSD
    /// latency incurred now (a buffered stage costs nothing until the RB
    /// flushes).
    pub fn offer<D: BlockDevice>(
        &mut self,
        id: QueryId,
        value: V,
        freq: u64,
        device: &mut D,
    ) -> SimDuration {
        // Dedup: a replaceable copy of the same query is still on the SSD
        // — flip it back to normal instead of rewriting (Sec. VI-C1).
        if let Some(stored) = self.map.get_mut(&id) {
            stored.state = EntryState::Normal;
            stored.freq = stored.freq.max(freq);
            self.stats.rewrites_avoided += 1;
            let slot = stored.slot;
            if !rb(&self.rbs, slot).is_static {
                if self.cost_based {
                    self.rb_lru.touch(&slot);
                } else {
                    self.entry_lru.touch(&id);
                }
            }
            audit!(self, "ResultStore::offer(dedup)");
            return SimDuration::ZERO;
        }
        if self.cost_based {
            // The same query may be evicted again before its first staging
            // flushes (miss → recompute → re-evict); refresh the staged
            // entry rather than duplicating it in the RB.
            if let Some(staged) = self.write_buffer.iter_mut().find(|(q, _, _)| *q == id) {
                staged.1 = value;
                staged.2 = staged.2.max(freq);
                return SimDuration::ZERO;
            }
            self.write_buffer.push((id, value, freq));
            let latency = if self.write_buffer.len() >= ENTRIES_PER_RB {
                self.flush_buffer(device)
            } else {
                SimDuration::ZERO
            };
            audit!(self, "ResultStore::offer(stage)");
            latency
        } else {
            let latency = self.write_single(id, value, freq, device);
            audit!(self, "ResultStore::offer(write)");
            latency
        }
    }

    /// Whether a query is waiting in the write buffer.
    pub fn buffered(&self, id: QueryId) -> bool {
        self.write_buffer.iter().any(|(q, _, _)| *q == id)
    }

    /// CB path: assemble the buffered entries into one RB and write it as
    /// a single large request.
    fn flush_buffer<D: BlockDevice>(&mut self, device: &mut D) -> SimDuration {
        let Some(slot) = self.take_rb_slot() else {
            // Dynamic region has zero capacity (all static): drop.
            self.write_buffer.clear();
            return SimDuration::ZERO;
        };
        let mut rb = Rb::new(false);
        for (i, (id, value, freq)) in self.write_buffer.drain(..).enumerate() {
            rb.entries[i] = Some(id);
            self.map.insert(
                id,
                Stored {
                    slot,
                    idx: i as u8,
                    value,
                    freq,
                    state: EntryState::Normal,
                },
            );
        }
        self.rbs[slot as usize] = Some(rb);
        self.rb_lru.insert_mru(slot, ());
        self.stats.rb_writes += 1;
        device
            .request(&IoRequest::write(self.region.extent(slot)).background())
            .expect("RB extent is in-region")
    }

    /// Fig. 11's IREN of RB `slot`: its free positions plus its
    /// replaceable entries, counted off the validity bitmap.
    fn iren(&self, slot: SlotId) -> usize {
        rb(&self.rbs, slot)
            .entries
            .iter()
            .filter(|e| e.is_none_or(|q| self.map[&q].state == EntryState::Replaceable))
            .count()
    }

    /// A slot for a fresh RB: free pool first, then the CBLRU victim —
    /// the replace-first-region RB with the largest IREN.
    fn take_rb_slot(&mut self) -> Option<SlotId> {
        if self.region.used_count() < self.region.capacity() - self.dynamic_reserved() {
            if let Some(slot) = self.region.alloc() {
                return Some(slot);
            }
        }
        // Fig. 11: the replace-first RB with the largest IREN, ties to the
        // LRU-most; with an empty window (`W` = 0), the strict LRU RB.
        let victim = self
            .rb_lru
            .best_in_replace_first(|&s, _| self.iren(s))
            .or_else(|| self.rb_lru.find_anywhere(|_, _| true))
            .copied()?;
        self.destroy_rb(victim);
        Some(victim)
    }

    /// Slots the static partition may still claim.
    fn dynamic_reserved(&self) -> u32 {
        self.static_slots.saturating_sub(self.static_used)
    }

    /// Drop an RB's remaining valid entries and unmap it (the slot is
    /// reused by the caller, so no trim).
    fn destroy_rb(&mut self, slot: SlotId) {
        let rb = self.rbs[slot as usize].take().expect("victim exists");
        for id in rb.entries.into_iter().flatten() {
            let stored = self.map.remove(&id).expect("bitmap entries are mapped");
            if stored.state == EntryState::Normal {
                self.stats.collateral_evictions += 1;
            }
        }
        self.rb_lru.remove(&slot);
    }

    /// LRU path: write one entry into an open position (a small random
    /// write), evicting the strict LRU entry when no position is open.
    fn write_single<D: BlockDevice>(
        &mut self,
        id: QueryId,
        value: V,
        freq: u64,
        device: &mut D,
    ) -> SimDuration {
        let position = self.free_entries.pop().or_else(|| {
            if let Some(slot) = self.region.alloc() {
                self.rbs[slot as usize] = Some(Rb::new(false));
                self.free_entries
                    .extend((1..ENTRIES_PER_RB as u8).map(|i| (slot, i)));
                return Some((slot, 0));
            }
            let (victim, ()) = self.entry_lru.pop_lru()?;
            let stored = self.map.remove(&victim).expect("victim mapped");
            rb_mut(&mut self.rbs, stored.slot).entries[stored.idx as usize] = None;
            self.stats.collateral_evictions += 1;
            Some((stored.slot, stored.idx))
        });
        let Some((slot, idx)) = position else {
            return SimDuration::ZERO; // zero-capacity region
        };
        rb_mut(&mut self.rbs, slot).entries[idx as usize] = Some(id);
        self.map.insert(
            id,
            Stored {
                slot,
                idx,
                value,
                freq,
                state: EntryState::Normal,
            },
        );
        self.entry_lru.insert_mru(id, ());
        self.stats.entry_writes += 1;
        device
            .request(&IoRequest::write(entry_extent(&self.region, slot, idx)).background())
            .expect("entry extent is in-region")
    }

    /// Remove an entry (exclusive scheme, or explicit invalidation). When
    /// the RB ends up fully invalid under the cost-based policy, the whole
    /// block is trimmed and returned to the free pool.
    pub fn invalidate<D: BlockDevice>(&mut self, id: QueryId, device: &mut D) -> SimDuration {
        let Some(Stored { slot, idx, .. }) = self.map.remove(&id) else {
            return SimDuration::ZERO;
        };
        let rb = rb_mut(&mut self.rbs, slot);
        rb.entries[idx as usize] = None;
        if self.cost_based {
            if !rb.is_static && rb.entries.iter().all(Option::is_none) {
                self.rbs[slot as usize] = None;
                self.rb_lru.remove(&slot);
                self.stats.trims += 1;
                let t = device
                    .request(&IoRequest::trim(self.region.extent(slot)).background())
                    .expect("RB extent is in-region");
                self.region.release(slot);
                audit!(self, "ResultStore::invalidate(trim)");
                return t;
            }
        } else {
            self.entry_lru.remove(&id);
            self.free_entries.push((slot, idx));
        }
        audit!(self, "ResultStore::invalidate");
        SimDuration::ZERO
    }

    /// Seed the CBSLRU static partition: the most valuable entries, known
    /// from query-log analysis, written once and pinned. Entries beyond
    /// the static capacity are ignored. Returns the write latency.
    pub fn seed_static<D: BlockDevice>(
        &mut self,
        entries: Vec<(QueryId, V, u64)>,
        device: &mut D,
    ) -> SimDuration {
        let mut latency = SimDuration::ZERO;
        let capacity = self.static_slots as usize * ENTRIES_PER_RB;
        for chunk in entries
            .into_iter()
            .take(capacity)
            .collect::<Vec<_>>()
            .chunks(ENTRIES_PER_RB)
        {
            let Some(slot) = self.region.alloc() else {
                break;
            };
            let mut rb = Rb::new(true);
            for (i, (id, value, freq)) in chunk.iter().enumerate() {
                rb.entries[i] = Some(*id);
                self.map.insert(
                    *id,
                    Stored {
                        slot,
                        idx: i as u8,
                        value: value.clone(),
                        freq: *freq,
                        state: EntryState::Normal,
                    },
                );
            }
            self.rbs[slot as usize] = Some(rb);
            self.static_used += 1;
            self.stats.rb_writes += 1;
            latency += device
                .request(&IoRequest::write(self.region.extent(slot)).background())
                .expect("RB extent is in-region");
        }
        audit!(self, "ResultStore::seed_static");
        latency
    }

    /// Test hook: force `id`'s entry state, bypassing the hit-path
    /// guards — forcing a *static* entry replaceable reproduces the
    /// out-of-order free → normal → replaceable transition the
    /// `state-machine` validator exists to catch (pinned entries never
    /// leave Normal).
    #[doc(hidden)]
    pub fn debug_force_state(&mut self, id: QueryId, state: EntryState) {
        self.map.get_mut(&id).expect("entry cached").state = state;
    }

    /// Test hook: skew the static-RB counter away from the RBs actually
    /// pinned, the drift the `static-budget` validator exists to catch.
    #[doc(hidden)]
    pub fn debug_corrupt_static_used(&mut self, delta: i32) {
        self.static_used = self.static_used.wrapping_add_signed(delta);
    }
}

impl<V> Validate for ResultStore<V> {
    /// Re-derives the result store's redundant bookkeeping from scratch
    /// (paper Sec. VI-B/C, Figs. 7(a)/(b)) and cross-checks it:
    ///
    /// * the mapping table and the RB bitmaps form one consistent
    ///   bijection;
    /// * slot allocation, recency lists, the static-RB counter and the
    ///   write buffer agree with the mapping table;
    /// * static (pinned) entries never leave the Normal state.
    ///
    /// IREN has no copy to drift: victim selection counts it off the
    /// bitmap. The RB geometry is checked by the compiler.
    fn validate(&self, report: &mut Report) {
        const S: &str = "ResultStore";
        self.region.validate(report);

        // Mapping table ↔ RB bitmaps form a bijection.
        for (&id, stored) in &self.map {
            let (slot, idx) = (stored.slot, stored.idx);
            let Some(rb) = rb_at(&self.rbs, slot) else {
                report.violation(
                    S,
                    "map-rb-agree",
                    format!("query {id} maps to unmapped RB slot {slot}"),
                );
                continue;
            };
            if !report.check((idx as usize) < ENTRIES_PER_RB, S, "map-rb-agree", || {
                format!("query {id} maps to position {idx} of a {ENTRIES_PER_RB}-entry RB")
            }) {
                continue;
            }
            report.check(
                rb.entries[idx as usize] == Some(id),
                S,
                "map-rb-agree",
                || {
                    format!(
                        "query {id} maps to RB {slot}[{idx}] but the bitmap holds {:?}",
                        rb.entries[idx as usize]
                    )
                },
            );
        }
        let bitmap_valid: usize = self
            .rbs
            .iter()
            .flatten()
            .map(|rb| rb.entries.iter().flatten().count())
            .sum();
        report.check(bitmap_valid == self.map.len(), S, "map-rb-agree", || {
            format!(
                "RB bitmaps carry {bitmap_valid} valid entries but the map holds {}",
                self.map.len()
            )
        });

        // Per-RB checks: slot allocation, static pinning.
        let mut static_rbs = 0u32;
        let mut mapped_rbs = 0usize;
        for (slot, rb) in (0..).zip(&self.rbs) {
            let Some(rb) = rb else { continue };
            mapped_rbs += 1;
            report.check(!self.region.is_free(slot), S, "slot-allocated", || {
                format!("RB slot {slot} is not an allocated region slot")
            });
            if rb.is_static {
                static_rbs += 1;
                for id in rb.entries.iter().flatten() {
                    let state = self.map.get(id).map(|s| s.state);
                    report.check(
                        EntryState::may_become(None, state)
                            && state != Some(EntryState::Replaceable),
                        S,
                        "state-machine",
                        || {
                            format!(
                                "static (pinned) entry {id} in RB {slot} left Normal: {state:?}"
                            )
                        },
                    );
                }
            }
            if self.cost_based {
                report.check(
                    self.rb_lru.contains(&slot) != rb.is_static,
                    S,
                    "lru-membership",
                    || {
                        format!(
                            "RB {slot} (static: {}) has wrong recency-list membership",
                            rb.is_static
                        )
                    },
                );
            }
        }
        report.check(static_rbs == self.static_used, S, "static-budget", || {
            format!(
                "{static_rbs} static RBs exist but the store accounts {}",
                self.static_used
            )
        });
        report.check(static_rbs <= self.static_slots, S, "static-budget", || {
            format!(
                "{static_rbs} static RBs exceed the {}-slot budget",
                self.static_slots
            )
        });
        report.check(
            self.region.used_count() as usize == mapped_rbs,
            S,
            "slot-accounting",
            || {
                format!(
                    "region reports {} used slots but {} RBs exist",
                    self.region.used_count(),
                    mapped_rbs
                )
            },
        );

        // Mode-specific structures.
        if self.cost_based {
            report.check(self.entry_lru.is_empty(), S, "lru-membership", || {
                format!(
                    "cost-based mode keeps no entry recency list, found {} entries",
                    self.entry_lru.len()
                )
            });
            report.check(
                self.free_entries.is_empty(),
                S,
                "free-entry-accounting",
                || {
                    format!(
                        "cost-based mode tracks no free entry positions, found {}",
                        self.free_entries.len()
                    )
                },
            );
        } else {
            report.check(self.rb_lru.is_empty(), S, "lru-membership", || {
                format!(
                    "LRU mode keeps no RB recency list, found {} RBs",
                    self.rb_lru.len()
                )
            });
            for (&id, stored) in &self.map {
                let is_static = rb_at(&self.rbs, stored.slot).is_some_and(|rb| rb.is_static);
                report.check(
                    self.entry_lru.contains(&id) != is_static,
                    S,
                    "lru-membership",
                    || {
                        format!(
                            "entry {id} (static: {is_static}) has wrong recency-list membership"
                        )
                    },
                );
            }
            let mut seen = FxHashSet::default();
            for &(slot, idx) in &self.free_entries {
                report.check(seen.insert((slot, idx)), S, "free-entry-accounting", || {
                    format!("position RB {slot}[{idx}] is free-listed twice")
                });
                let open = rb_at(&self.rbs, slot)
                    .and_then(|rb| rb.entries.get(idx as usize))
                    .is_some_and(Option::is_none);
                report.check(open, S, "free-entry-accounting", || {
                    format!("free-listed position RB {slot}[{idx}] is not an open bitmap slot")
                });
            }
            let open_dynamic: usize = self
                .rbs
                .iter()
                .flatten()
                .filter(|rb| !rb.is_static)
                .map(|rb| rb.entries.iter().filter(|e| e.is_none()).count())
                .sum();
            report.check(
                open_dynamic == self.free_entries.len(),
                S,
                "free-entry-accounting",
                || {
                    format!(
                        "{open_dynamic} open bitmap positions but {} free-listed",
                        self.free_entries.len()
                    )
                },
            );
        }

        // Write buffer: staged entries are not yet mapped, each id once.
        report.check(
            self.write_buffer.len() < ENTRIES_PER_RB,
            S,
            "write-buffer-bounded",
            || {
                format!(
                    "{} staged entries never flushed into a {ENTRIES_PER_RB}-entry RB",
                    self.write_buffer.len()
                )
            },
        );
        let mut staged = FxHashSet::default();
        for (id, _, _) in &self.write_buffer {
            report.check(staged.insert(*id), S, "write-buffer-unique", || {
                format!("query {id} is staged twice")
            });
            report.check(!self.map.contains_key(id), S, "write-buffer-unique", || {
                format!("query {id} is both staged and mapped")
            });
        }
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

    const BLOCK: u64 = crate::BLOCK_BYTES;

    fn device() -> RamDisk {
        RamDisk::with_capacity_bytes(64 << 20, SimDuration::from_micros(10))
    }

    fn store(slots: u32, cost_based: bool) -> ResultStore<u32> {
        ResultStore::new(SlotRegion::new(0, slots), cost_based, 2, 0.0)
    }

    fn fill_rb(s: &mut ResultStore<u32>, dev: &mut RamDisk, ids: std::ops::Range<u64>) {
        for id in ids {
            s.offer(id, id as u32, 1, dev);
        }
    }

    #[test]
    fn cb_mode_buffers_until_full_rb() {
        let mut s = store(4, true);
        let mut dev = device();
        for id in 0..5 {
            assert_eq!(s.offer(id, 0, 1, &mut dev), SimDuration::ZERO);
            assert!(s.buffered(id));
            assert!(!s.contains(id));
        }
        // Sixth entry completes the RB: one large write.
        let t = s.offer(5, 0, 1, &mut dev);
        assert!(t > SimDuration::ZERO);
        assert_eq!(dev.stats().ops(IoKind::Write), 1);
        assert_eq!(dev.stats().kind(IoKind::Write).bytes(), BLOCK);
        for id in 0..6 {
            assert!(s.contains(id));
        }
        assert_eq!(s.stats().rb_writes, 1);
    }

    #[test]
    fn lru_mode_writes_each_entry_small() {
        let mut s = store(4, false);
        let mut dev = device();
        s.offer(0, 0, 1, &mut dev);
        s.offer(1, 0, 1, &mut dev);
        assert_eq!(dev.stats().ops(IoKind::Write), 2, "two small writes");
        assert!(dev.stats().kind(IoKind::Write).bytes() < BLOCK);
        assert!(s.contains(0) && s.contains(1));
        assert_eq!(s.stats().entry_writes, 2);
    }

    #[test]
    fn lookup_reads_entry_extent_and_marks_replaceable() {
        let mut s = store(4, true);
        let mut dev = device();
        fill_rb(&mut s, &mut dev, 0..6);
        let (v, freq, t) = s.lookup(3, &mut dev, true).expect("hit");
        assert_eq!(v, 3);
        assert_eq!(freq, 1);
        assert!(t > SimDuration::ZERO);
        // Entry 3 is now replaceable: the RB's IREN is 1.
        assert_eq!(s.iren(s.map[&3].slot), 1);
        // A second lookup still hits (replaceable data stays readable).
        assert!(s.lookup(3, &mut dev, true).is_some());
    }

    #[test]
    fn lookup_miss() {
        let mut s = store(4, true);
        let mut dev = device();
        assert!(s.lookup(42, &mut dev, true).is_none());
    }

    #[test]
    fn dedup_avoids_rewrite() {
        let mut s = store(4, true);
        let mut dev = device();
        fill_rb(&mut s, &mut dev, 0..6);
        s.lookup(2, &mut dev, true); // replaceable now
        let writes_before = dev.stats().ops(IoKind::Write);
        let t = s.offer(2, 2, 5, &mut dev);
        assert_eq!(t, SimDuration::ZERO);
        assert_eq!(dev.stats().ops(IoKind::Write), writes_before);
        assert_eq!(s.stats().rewrites_avoided, 1);
        // Back to normal: IREN drops to 0.
        assert_eq!(s.iren(s.map[&2].slot), 0);
    }

    #[test]
    fn cb_victim_is_max_iren_in_window() {
        let mut s = store(2, true); // 2 slots only
        let mut dev = device();
        fill_rb(&mut s, &mut dev, 0..6); // RB A (slot LRU order: A)
        fill_rb(&mut s, &mut dev, 6..12); // RB B
                                          // Make RB B dirtier: two of its entries replaceable; but touch it
                                          // MRU afterwards? Window = 2 covers both. A has IREN 0, B has 2.
        s.lookup(6, &mut dev, true);
        s.lookup(7, &mut dev, true);
        // Third RB must overwrite B (max IREN), not A.
        fill_rb(&mut s, &mut dev, 12..18);
        assert!(s.contains(0), "RB A untouched");
        assert!(!s.contains(8), "RB B's normal entries were destroyed");
        assert!(s.contains(12));
        assert!(
            s.stats().collateral_evictions >= 4,
            "B had 4 normal entries"
        );
    }

    #[test]
    fn equal_iren_tie_goes_to_the_lru_most() {
        let mut s = ResultStore::new(SlotRegion::new(0, 3), true, 3, 0.0);
        let mut dev = device();
        fill_rb(&mut s, &mut dev, 0..6); // RB A: LRU, IREN 0
        fill_rb(&mut s, &mut dev, 6..12); // RB B: IREN 1  <- victim
        fill_rb(&mut s, &mut dev, 12..18); // RB C: IREN 1, more recent
        s.invalidate(6, &mut dev);
        s.invalidate(12, &mut dev);
        fill_rb(&mut s, &mut dev, 18..24);
        assert!(!s.contains(7), "list order breaks the tie: B goes");
        assert!(s.contains(0) && s.contains(13));
    }

    #[test]
    fn zero_window_still_replaces() {
        // W = 0 is "look up in all the LRU list": the strict LRU RB.
        let mut s = ResultStore::new(SlotRegion::new(0, 2), true, 0, 0.0);
        let mut dev = device();
        fill_rb(&mut s, &mut dev, 0..18);
        assert_eq!(s.stats().rb_writes, 3);
        assert!(!s.contains(0) && s.contains(6) && s.contains(12));
    }

    #[test]
    fn lru_victim_is_strict_lru_entry() {
        let mut s = store(1, false); // 6 entry positions total
        let mut dev = device();
        for id in 0..6 {
            s.offer(id, 0, 1, &mut dev);
        }
        s.lookup(0, &mut dev, false); // touch 0
        s.offer(6, 0, 1, &mut dev); // evicts 1 (LRU), not 0
        assert!(s.contains(0));
        assert!(!s.contains(1));
        assert!(s.contains(6));
    }

    #[test]
    fn invalidate_trims_fully_invalid_rb() {
        let mut s = store(4, true);
        let mut dev = device();
        fill_rb(&mut s, &mut dev, 0..6);
        for id in 0..6 {
            s.invalidate(id, &mut dev);
        }
        assert_eq!(s.stats().trims, 1);
        assert_eq!(dev.stats().ops(IoKind::Trim), 1);
        assert!(s.is_empty());
        // The slot is reusable.
        fill_rb(&mut s, &mut dev, 10..16);
        assert!(s.contains(10));
    }

    #[test]
    fn static_partition_is_pinned() {
        let mut s: ResultStore<u32> = ResultStore::new(
            SlotRegion::new(0, 4),
            true,
            2,
            0.5, // 2 of 4 slots static
        );
        let mut dev = device();
        let seeds: Vec<(QueryId, u32, u64)> = (100..112).map(|q| (q, q as u32, 9)).collect();
        s.seed_static(seeds, &mut dev);
        assert!(s.contains(100) && s.contains(111));
        // Lookups on static entries never turn them replaceable.
        s.lookup(100, &mut dev, true);
        assert_eq!(s.iren(s.map[&100].slot), 0);
        // Fill the dynamic remainder twice over: static entries survive.
        for batch in 0..4u64 {
            fill_rb(&mut s, &mut dev, batch * 6..batch * 6 + 6);
        }
        assert!(s.contains(100) && s.contains(111), "static entries pinned");
    }

    #[test]
    fn lru_invalidate_frees_the_entry_position() {
        let mut s = store(1, false); // 6 positions, LRU mode
        let mut dev = device();
        for id in 0..6 {
            s.offer(id, id as u32, 1, &mut dev);
        }
        // Invalidate one entry: its position must be reused by the next
        // offer instead of evicting the LRU entry.
        s.invalidate(3, &mut dev);
        assert!(!s.contains(3));
        s.offer(9, 9, 1, &mut dev);
        assert!(s.contains(9));
        for id in [0u64, 1, 2, 4, 5] {
            assert!(s.contains(id), "entry {id} must have survived");
        }
    }

    #[test]
    fn restaged_entry_refreshes_payload() {
        // The same query staged twice before its RB flushes must keep the
        // newest payload and one RB slot only.
        let mut s = store(4, true);
        let mut dev = device();
        s.offer(7, 100, 1, &mut dev);
        s.offer(7, 200, 3, &mut dev); // restage with new value + freq
        for id in 0..5 {
            s.offer(id, id as u32, 1, &mut dev); // fills and flushes the RB
        }
        let (v, freq, _) = s.lookup(7, &mut dev, true).expect("flushed");
        assert_eq!(v, 200);
        assert_eq!(freq, 3);
    }

    #[test]
    fn cb_mode_overwrite_victim_when_no_free_slot() {
        let mut s = store(1, true); // single slot: every flush overwrites
        let mut dev = device();
        fill_rb(&mut s, &mut dev, 0..6);
        fill_rb(&mut s, &mut dev, 10..16);
        for id in 0..6 {
            assert!(!s.contains(id), "first RB was overwritten");
        }
        for id in 10..16 {
            assert!(s.contains(id));
        }
        assert!(s.stats().collateral_evictions >= 6);
    }

    #[test]
    fn zero_capacity_region_drops_gracefully() {
        let mut s = store(0, true);
        let mut dev = device();
        fill_rb(&mut s, &mut dev, 0..6);
        assert!(s.is_empty());
        let mut s = store(0, false);
        s.offer(0, 0, 1, &mut dev);
        assert!(s.is_empty());
    }
}
