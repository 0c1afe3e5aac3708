//! The cache manager (the paper's Fig. 2): query management, selection
//! management and replacement management over the two cache levels.

use simclock::SimDuration;
use storagecore::BlockDevice;

use simclock::SimTime;

use crate::admission::AdmissionTier;
use crate::config::{CachingScheme, HybridConfig, BLOCK_BYTES, RESULT_ENTRY_BYTES};
use crate::mem::{ListMeta, MemListCache, MemResultCache};
use crate::selection::{admit_list, sc_blocks};
use crate::ssd::{ListStore, ResultStore, SlotRegion};
use crate::stats::CacheStats;
use crate::ttl::TtlTracker;
use crate::{PairKey, QueryId, TermKey};

/// Where a result lookup was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// L1 (memory) hit — Table I's S1.
    Mem,
    /// L2 (SSD) hit — S3.
    Ssd,
    /// Not cached; the engine must compute from the HDD index — S8.
    Hdd,
}

/// How an inverted-list request was satisfied, byte by byte.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ListServe {
    /// Bytes served from the memory cache.
    pub from_mem: u64,
    /// Bytes served from the SSD cache.
    pub from_ssd: u64,
    /// Bytes the engine must still read from the HDD index.
    pub from_hdd: u64,
    /// Extra HDD bytes the *policy* decided to fetch beyond the request:
    /// the traditional LRU baseline reads and caches complete inverted
    /// lists (Saraiva-style list caching), so on a fill it drags in the
    /// whole tail. Always 0 under the cost-based policies — partial
    /// caching is their contribution.
    pub fill_from_hdd: u64,
    /// SSD time spent serving this lookup (cache reads + any flush work
    /// triggered by insertions).
    pub ssd_latency: SimDuration,
}

impl ListServe {
    /// Total bytes requested.
    pub fn total(&self) -> u64 {
        self.from_mem + self.from_ssd + self.from_hdd
    }
}

/// The two-level hybrid cache manager.
///
/// Generic over the result payload `V` and the SSD block device `D`, so
/// unit tests run against a [`storagecore::RamDisk`] while the engine
/// plugs in a [`flashsim`](https://crates.io/crates/flashsim)-backed SSD.
#[derive(Debug)]
pub struct CacheManager<V, D> {
    config: HybridConfig,
    mem_rc: MemResultCache<V>,
    mem_ic: MemListCache,
    ssd_rc: ResultStore<V>,
    ssd_ic: ListStore,
    device: D,
    stats: CacheStats,
    /// Current instant, fed by the driver for TTL decisions.
    now: SimTime,
    result_ttl: Option<TtlTracker<QueryId>>,
    list_ttl: Option<TtlTracker<TermKey>>,
    /// Three-level mode: the intersection family (memory + SSD).
    mem_xc: Option<MemListCache<PairKey>>,
    ssd_xc: Option<ListStore<PairKey>>,
    /// The SSD admission gate. Inert under [`AdmissionPolicy::Static`]
    /// (the paper's EV/TEV check runs verbatim); under
    /// [`AdmissionPolicy::Sketch`] it replaces the static threshold with
    /// the frequency-sketch + ghost + controller tier.
    admission: AdmissionTier,
}

impl<V: Clone, D: BlockDevice> CacheManager<V, D> {
    /// Build a manager whose SSD cache file lives on `device` from LBA 0
    /// (result region first, then the list region).
    pub fn new(config: HybridConfig, device: D) -> Self {
        config.validate().expect("invalid hybrid-cache config");
        assert!(
            config.ssd_sectors() <= device.geometry().sectors,
            "SSD cache file exceeds the device: need {} sectors, device has {}",
            config.ssd_sectors(),
            device.geometry().sectors
        );
        let spb = HybridConfig::sectors_per_block();
        let result_slots = config.result_slots() as u64;
        let list_blocks = config.list_blocks() as u64;
        let result_region = SlotRegion::new(0, result_slots as u32);
        let list_region = SlotRegion::new(result_slots * spb, list_blocks as u32);
        let intersection_region = SlotRegion::new(
            (result_slots + list_blocks) * spb,
            config.intersection_blocks() as u32,
        );
        let cost_based = config.policy.is_cost_based();
        let sf = config.policy.static_fraction();
        CacheManager {
            mem_rc: MemResultCache::new(config.mem_result_bytes),
            mem_ic: MemListCache::new(config.mem_list_bytes, config.policy, config.window),
            ssd_rc: ResultStore::new(result_region, cost_based, config.window, sf),
            ssd_ic: ListStore::new(list_region, cost_based, config.window, sf),
            device,
            result_ttl: config.ttl.map(TtlTracker::new),
            list_ttl: config.ttl.map(TtlTracker::new),
            mem_xc: config
                .intersections
                .map(|x| MemListCache::new(x.mem_bytes, config.policy, config.window)),
            ssd_xc: config
                .intersections
                .map(|_| ListStore::new(intersection_region, cost_based, config.window, 0.0)),
            admission: AdmissionTier::new(config.admission, config.tev),
            config,
            stats: CacheStats::new(),
            now: SimTime::ZERO,
        }
    }

    /// Whether the three-level intersection family is active.
    pub fn intersections_enabled(&self) -> bool {
        self.mem_xc.is_some()
    }

    /// The admission tier: controller TEV / reset window observability,
    /// and its counters (all zero in the `Static` arm; deliberately
    /// outside [`CacheStats`] so the bit-identity contract over the
    /// seed's figures is untouched).
    pub fn admission(&self) -> &AdmissionTier {
        &self.admission
    }

    // ------------------------------------------------------------------
    // Query management: intersections (three-level mode)
    // ------------------------------------------------------------------

    /// Probe the intersection cache for a term pair's materialized
    /// intersection of `bytes`. Returns `None` when the family is
    /// disabled or the pair is not cached; otherwise the tier split
    /// (intersections are atomic — fully served by whichever level holds
    /// them).
    pub fn lookup_intersection(&mut self, pair: PairKey, bytes: u64) -> Option<ListServe> {
        debug_assert!(pair.0 <= pair.1, "pair keys are normalized (lo, hi)");
        let mem = self.mem_xc.as_mut()?;
        let mut serve = ListServe::default();
        if mem.touch(pair, bytes, 1.0).is_some() {
            // Drain growth evictions into the SSD level.
            let displaced = mem.drain_evicted();
            let mut t = SimDuration::ZERO;
            for (p, m) in displaced {
                t += self.flush_intersection(p, m);
            }
            self.stats.ssd_time += t;
            self.stats.intersections.mem_hits += 1;
            serve.from_mem = bytes;
            return Some(serve);
        }
        let mark = self.config.scheme == CachingScheme::Hybrid;
        let ssd = self.ssd_xc.as_mut().expect("mem_xc implies ssd_xc");
        if let Some((cached, latency)) = ssd.lookup(pair, bytes, &mut self.device, mark) {
            if cached >= bytes {
                self.stats.intersections.ssd_hits += 1;
                self.stats.ssd_time += latency;
                self.stats.ssd_bytes_read += bytes;
                serve.from_ssd = bytes;
                serve.ssd_latency = latency;
                // Promote into memory (hybrid scheme).
                self.install_intersection(pair, bytes);
                return Some(serve);
            }
        }
        self.stats.intersections.misses += 1;
        None
    }

    /// Install a freshly materialized intersection into the memory level
    /// (evictions cascade to the SSD level per the usual SM rules).
    pub fn install_intersection(&mut self, pair: PairKey, bytes: u64) {
        let Some(mem) = self.mem_xc.as_mut() else {
            return;
        };
        if mem.peek(pair).is_some() {
            mem.touch(pair, bytes, 1.0);
            return;
        }
        let meta = ListMeta {
            si_bytes: bytes,
            pu: 1.0,
            freq: 1,
            full_bytes: bytes,
        };
        let mut t = SimDuration::ZERO;
        match mem.insert(pair, meta) {
            Ok(evicted) => {
                for (p, m) in evicted {
                    t += self.flush_intersection(p, m);
                }
            }
            Err(rejected) => {
                t += self.flush_intersection(pair, rejected);
            }
        }
        self.stats.ssd_time += t;
    }

    /// SM decision for an evicted intersection (EV/TEV, like lists —
    /// intersections are always fully utilized, so PU is 1).
    #[expect(
        clippy::disallowed_methods,
        reason = "the admission gate: the store is offered only what the checks above admitted"
    )]
    fn flush_intersection(&mut self, pair: PairKey, meta: ListMeta) -> SimDuration {
        let Some(ssd) = self.ssd_xc.as_mut() else {
            return SimDuration::ZERO;
        };
        let blocks = sc_blocks(meta.si_bytes, 1.0);
        if blocks == 0 {
            self.stats.intersections.ssd_rejections += 1;
            return SimDuration::ZERO;
        }
        if self.config.policy.is_cost_based() && !admit_list(meta.freq, blocks, self.config.tev) {
            self.stats.intersections.ssd_rejections += 1;
            return SimDuration::ZERO;
        }
        let avoided_before = ssd.stats().rewrites_avoided;
        let (written, latency) =
            ssd.offer(pair, blocks, meta.si_bytes, meta.freq, &mut self.device);
        if ssd.stats().rewrites_avoided > avoided_before {
            self.stats.intersections.rewrites_avoided += 1;
        } else if written {
            self.stats.intersections.ssd_admissions += 1;
            self.stats.ssd_bytes_written += blocks * BLOCK_BYTES;
        } else {
            self.stats.intersections.ssd_rejections += 1;
        }
        latency
    }

    /// Advance the manager's notion of "now" (drives TTL expiry in the
    /// dynamic scenario; a no-op in the static one).
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// `(fresh_hits, expirations)` of the result and list TTL trackers
    /// (zeros in the static scenario).
    pub fn ttl_stats(&self) -> ((u64, u64), (u64, u64)) {
        (
            self.result_ttl.as_ref().map_or((0, 0), TtlTracker::stats),
            self.list_ttl.as_ref().map_or((0, 0), TtlTracker::stats),
        )
    }

    /// TTL gate for a result: drop stale copies everywhere, reporting
    /// whether the entry had expired.
    fn expire_result_if_stale(&mut self, id: QueryId) -> bool {
        let Some(ttl) = self.result_ttl.as_mut() else {
            return false;
        };
        if ttl.check(&id, self.now) {
            return false;
        }
        ttl.forget(&id);
        self.mem_rc.remove(id);
        let t = self.ssd_rc.invalidate(id, &mut self.device);
        self.stats.ssd_time += t;
        true
    }

    /// TTL gate for an inverted list.
    fn expire_list_if_stale(&mut self, term: TermKey) {
        let Some(ttl) = self.list_ttl.as_mut() else {
            return;
        };
        if ttl.check(&term, self.now) {
            return;
        }
        ttl.forget(&term);
        self.mem_ic.remove(term);
        self.trim_ssd_list(term);
    }

    /// Drop `key`'s SSD list copy; the trims are background work.
    fn trim_ssd_list(&mut self, key: TermKey) {
        let t = self.ssd_ic.invalidate(key, &mut self.device);
        self.stats.ssd_time += t;
    }

    /// The configuration.
    pub fn config(&self) -> &HybridConfig {
        &self.config
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The SSD device (e.g. to read FTL statistics).
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Mutable device access.
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.device
    }

    /// SSD store statistics (results, lists).
    pub fn store_stats(
        &self,
    ) -> (
        crate::ssd::results::ResultStoreStats,
        crate::ssd::lists::ListStoreStats,
    ) {
        (self.ssd_rc.stats(), self.ssd_ic.stats())
    }

    /// Reset counters (cache contents persist).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    // ------------------------------------------------------------------
    // Query management: results
    // ------------------------------------------------------------------

    /// Look up a query result. On an SSD hit the entry is promoted into
    /// memory (hybrid scheme: the SSD copy stays, turned replaceable;
    /// exclusive scheme: the SSD copy is deleted).
    ///
    /// The returned latency is the **read-path** cost only. Flush work
    /// triggered by the promotion (evictions, trims) happens off the
    /// query's critical path — the drive still does it (erase counts and
    /// wear are real) but the requester does not wait; the time is
    /// accounted in [`CacheStats::ssd_time`].
    pub fn lookup_result(&mut self, id: QueryId) -> (Option<V>, Tier, SimDuration) {
        if self.expire_result_if_stale(id) {
            self.stats.results.misses += 1;
            return (None, Tier::Hdd, SimDuration::ZERO);
        }
        if let Some(v) = self.mem_rc.get(id) {
            self.stats.results.mem_hits += 1;
            self.admission.record_result_access(id, true);
            return (Some(v.clone()), Tier::Mem, SimDuration::ZERO);
        }
        let mark = self.config.scheme == CachingScheme::Hybrid;
        if let Some((value, _freq, read_latency)) = self.ssd_rc.lookup(id, &mut self.device, mark) {
            self.admission.record_result_access(id, true);
            self.stats.results.ssd_hits += 1;
            self.stats.ssd_time += read_latency;
            self.stats.ssd_bytes_read += RESULT_ENTRY_BYTES;
            let mut background = SimDuration::ZERO;
            if self.config.scheme == CachingScheme::Exclusive {
                background += self.ssd_rc.invalidate(id, &mut self.device);
            }
            background += self.admit_result_to_mem(id, value.clone());
            self.stats.ssd_time += background;
            return (Some(value), Tier::Ssd, read_latency);
        }
        self.admission.record_result_access(id, false);
        self.stats.results.misses += 1;
        (None, Tier::Hdd, SimDuration::ZERO)
    }

    /// Install a freshly computed result (after a miss). Flushes of
    /// whatever the insertion evicted run in the background; the returned
    /// duration is the (zero) foreground cost, kept in the signature so
    /// callers charge a future synchronous-admission variant uniformly.
    pub fn complete_result(&mut self, id: QueryId, value: V) -> SimDuration {
        let now = self.now;
        if let Some(ttl) = self.result_ttl.as_mut() {
            ttl.installed(id, now);
        }
        let t = self.admit_result_to_mem(id, value);
        self.stats.ssd_time += t;
        SimDuration::ZERO
    }

    /// L1 insert + selection management over its evictions.
    fn admit_result_to_mem(&mut self, id: QueryId, value: V) -> SimDuration {
        let mut latency = SimDuration::ZERO;
        if self.config.scheme == CachingScheme::Inclusive {
            // Inclusive: the SSD gets a copy up front.
            latency += self.flush_result(id, value.clone(), 1);
        }
        for (qid, v, freq) in self.mem_rc.insert(id, value) {
            latency += self.flush_result(qid, v, freq);
        }
        latency
    }

    /// SM decision for one evicted result entry.
    #[expect(
        clippy::disallowed_methods,
        reason = "the admission gate: the store is offered only what the checks above admitted"
    )]
    fn flush_result(&mut self, id: QueryId, value: V, freq: u64) -> SimDuration {
        if self.admission.is_sketch() {
            // The sketch gate replaces the static frequency floor.
            if !self
                .admission
                .admit_result(id, freq, self.config.result_freq_threshold)
            {
                self.stats.results.ssd_rejections += 1;
                return SimDuration::ZERO;
            }
        } else if freq < self.config.result_freq_threshold {
            self.stats.results.ssd_rejections += 1;
            return SimDuration::ZERO;
        }
        let avoided_before = self.ssd_rc.stats().rewrites_avoided;
        // RB flush: the store queues it as a background write that
        // overlaps foreground reads instead of blocking the miss path.
        let latency = self.ssd_rc.offer(id, value, freq, &mut self.device);
        if self.ssd_rc.stats().rewrites_avoided > avoided_before {
            self.stats.results.rewrites_avoided += 1;
        } else {
            self.stats.results.ssd_admissions += 1;
        }
        self.stats.ssd_bytes_written += if latency > SimDuration::ZERO {
            BLOCK_BYTES
        } else {
            0
        };
        latency
    }

    // ------------------------------------------------------------------
    // Query management: inverted lists
    // ------------------------------------------------------------------

    /// Request the first `needed_bytes` of a term's inverted list.
    /// `full_bytes` is the list's total on-disk size (the LRU baseline
    /// caches whole lists); `observed_pu` is this query's utilization of
    /// the list. Returns the byte split across tiers — the engine charges
    /// HDD time for `from_hdd` itself.
    pub fn lookup_list(
        &mut self,
        term: TermKey,
        needed_bytes: u64,
        full_bytes: u64,
        observed_pu: f64,
    ) -> ListServe {
        debug_assert!(needed_bytes > 0, "zero-byte list request");
        // Expiry drops both copies; the lookup then runs as a miss.
        self.expire_list_if_stale(term);
        let covered_mem = self.mem_ic.peek(term).map(|m| m.si_bytes);
        let mut serve = ListServe::default();
        if covered_mem.is_some_and(|si| si >= needed_bytes) {
            // Fully in memory: S2.
            self.mem_ic.touch(term, needed_bytes, observed_pu);
            self.flush_touch_evictions();
            self.stats.lists.mem_hits += 1;
            self.admission.record_list_access(term, true);
            serve.from_mem = needed_bytes;
            return serve;
        }

        // Memory holds a prefix or nothing: the SSD serves what it caches
        // beyond that prefix, the HDD the rest.
        serve.from_mem = covered_mem.unwrap_or(0);
        let mark = self.config.scheme == CachingScheme::Hybrid;
        if let Some((cached, latency)) =
            self.ssd_ic
                .lookup(term, needed_bytes, &mut self.device, mark)
        {
            serve.from_ssd = cached
                .saturating_sub(serve.from_mem)
                .min(needed_bytes - serve.from_mem);
            serve.ssd_latency += latency;
            self.stats.ssd_time += latency;
            self.stats.ssd_bytes_read += serve.from_ssd;
            if self.config.scheme == CachingScheme::Exclusive {
                self.trim_ssd_list(term);
            }
        }
        serve.from_hdd = needed_bytes - serve.from_mem - serve.from_ssd;
        // QM: "cache the used data in memory" — the whole list under the
        // traditional baseline.
        let target = if self.config.policy.is_cost_based() {
            needed_bytes
        } else {
            full_bytes.max(needed_bytes)
        };
        serve.fill_from_hdd = target.saturating_sub(needed_bytes);
        if covered_mem.is_some() {
            // Grow the memory copy to the target.
            self.mem_ic.touch(term, target, observed_pu);
            self.flush_touch_evictions();
        }
        self.classify_list_hit(&serve);
        self.admission.record_list_access(term, serve.from_hdd == 0);
        if covered_mem.is_none() {
            // Admit to memory. Flushes of the displaced entries run off
            // the critical path; their time lands in stats.ssd_time, not
            // in this lookup's latency.
            let meta = ListMeta {
                si_bytes: target,
                pu: observed_pu,
                freq: 1,
                full_bytes,
            };
            let now = self.now;
            if let Some(ttl) = self.list_ttl.as_mut() {
                ttl.installed(term, now);
            }
            self.admit_list_to_mem(term, meta);
        }
        serve
    }

    /// Flush (in the background) the entries a prefix-growth touch
    /// displaced from the memory list cache.
    fn flush_touch_evictions(&mut self) {
        let displaced = self.mem_ic.drain_evicted();
        let mut t = SimDuration::ZERO;
        for (term, meta) in displaced {
            t += self.flush_list(term, meta);
        }
        self.stats.ssd_time += t;
    }

    fn classify_list_hit(&mut self, serve: &ListServe) {
        if serve.from_hdd == 0 {
            // Memory partial + SSD completion, or pure SSD: an SSD-tier hit.
            self.stats.lists.ssd_hits += 1;
        } else if serve.from_mem > 0 || serve.from_ssd > 0 {
            self.stats.lists.partial_hits += 1;
        } else {
            self.stats.lists.misses += 1;
        }
    }

    /// L1 list insert + selection management over its evictions.
    fn admit_list_to_mem(&mut self, term: TermKey, meta: ListMeta) -> SimDuration {
        let mut latency = SimDuration::ZERO;
        if self.config.scheme == CachingScheme::Inclusive {
            latency += self.flush_list(term, meta);
        }
        match self.mem_ic.insert(term, meta) {
            Ok(evicted) => {
                for (t, m) in evicted {
                    latency += self.flush_list(t, m);
                }
            }
            Err(rejected) => {
                // Larger than the whole memory cache: treat as an eviction
                // of itself — flush straight to SSD.
                latency += self.flush_list(term, rejected);
            }
        }
        self.stats.ssd_time += latency;
        latency
    }

    /// SM decision for one evicted list (Formulas 1 & 2 + TEV).
    #[expect(
        clippy::disallowed_methods,
        reason = "the admission gate: the store is offered only what the checks above admitted"
    )]
    fn flush_list(&mut self, term: TermKey, meta: ListMeta) -> SimDuration {
        let (blocks, cached_bytes) = if self.config.policy.is_cost_based() {
            let sc = sc_blocks(meta.si_bytes, meta.pu);
            (sc, meta.si_bytes.min(sc * BLOCK_BYTES))
        } else {
            // The LRU baseline caches the full inverted list.
            let full = meta.full_bytes.max(meta.si_bytes);
            (full.div_ceil(BLOCK_BYTES), full)
        };
        if blocks == 0 {
            self.stats.lists.ssd_rejections += 1;
            return SimDuration::ZERO;
        }
        if self.admission.is_sketch() {
            // The sketch gate replaces the static EV/TEV threshold.
            if !self.admission.admit_list(term, meta.freq, blocks) {
                self.stats.lists.ssd_rejections += 1;
                return SimDuration::ZERO;
            }
        } else if self.config.policy.is_cost_based()
            && !admit_list(meta.freq, blocks, self.config.tev)
        {
            self.stats.lists.ssd_rejections += 1;
            return SimDuration::ZERO;
        }
        let avoided_before = self.ssd_ic.stats().rewrites_avoided;
        // The store queues its block writes as background work that
        // overlaps foreground reads instead of blocking the miss path.
        let (written, latency) =
            self.ssd_ic
                .offer(term, blocks, cached_bytes, meta.freq, &mut self.device);
        if self.ssd_ic.stats().rewrites_avoided > avoided_before {
            self.stats.lists.rewrites_avoided += 1;
        } else if written {
            self.stats.lists.ssd_admissions += 1;
            self.stats.ssd_bytes_written += blocks * BLOCK_BYTES;
        } else {
            self.stats.lists.ssd_rejections += 1;
        }
        latency
    }

    // ------------------------------------------------------------------
    // CBSLRU static seeding
    // ------------------------------------------------------------------

    /// Seed the static result partition (CBSLRU): the most frequent
    /// queries from log analysis, best first.
    #[expect(
        clippy::disallowed_methods,
        reason = "CBSLRU's static partition is filled once from log analysis, whose ranking is its admission"
    )]
    pub fn seed_static_results(&mut self, entries: Vec<(QueryId, V, u64)>) -> SimDuration {
        let t = self.ssd_rc.seed_static(entries, &mut self.device);
        self.stats.ssd_time += t;
        t
    }

    /// Seed the static list partition (CBSLRU): `(term, si_bytes, pu,
    /// freq)` of the most efficient lists, best first.
    #[expect(
        clippy::disallowed_methods,
        reason = "CBSLRU's static partition is filled once from log analysis, whose ranking is its admission"
    )]
    pub fn seed_static_lists(&mut self, lists: Vec<(TermKey, u64, f64, u64)>) -> SimDuration {
        let prepared = lists
            .into_iter()
            .map(|(term, si, pu, freq)| {
                let blocks = sc_blocks(si, pu);
                (term, blocks, si.min(blocks * BLOCK_BYTES), freq)
            })
            .filter(|(_, blocks, _, _)| *blocks > 0)
            .collect();
        let t = self.ssd_ic.seed_static(prepared, &mut self.device);
        self.stats.ssd_time += t;
        t
    }

    // ------------------------------------------------------------------
    // Segment coherence (live index)
    // ------------------------------------------------------------------

    /// Every `(segment, term)` key cached in either tier, sorted and
    /// deduplicated. The engine sweeps this after a merge to find entries
    /// whose segment has been retired.
    pub fn cached_list_keys(&self) -> Vec<TermKey> {
        let mut keys = self.mem_ic.keys();
        keys.extend(self.ssd_ic.keys());
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The cached profile of `key` — `(si_bytes, pu, freq, full_bytes)` —
    /// preferring the richer L1 metadata, falling back to the SSD entry
    /// (whole cached extent, so `pu = 1.0`). `None` if nowhere cached.
    pub fn list_profile(&self, key: TermKey) -> Option<(u64, f64, u64, u64)> {
        if let Some(m) = self.mem_ic.peek(key) {
            return Some((m.si_bytes, m.pu, m.freq, m.full_bytes));
        }
        self.ssd_ic
            .entry_profile(key)
            .map(|(bytes, freq)| (bytes, 1.0, freq, bytes))
    }

    /// Drop `key` from both tiers: L1 removal plus an SSD invalidate
    /// that Trims the entry's blocks as background work. Returns whether
    /// anything was actually cached.
    pub fn invalidate_list(&mut self, key: TermKey) -> bool {
        let in_mem = self.mem_ic.remove(key).is_some();
        let in_ssd = self.ssd_ic.cached_bytes(key).is_some();
        if in_ssd {
            self.trim_ssd_list(key);
        }
        if let Some(ttl) = self.list_ttl.as_mut() {
            ttl.forget(&key);
        }
        in_mem || in_ssd
    }

    /// The naive merge-coherence arm: drop every cached list from both
    /// tiers. Returns how many keys were invalidated.
    pub fn invalidate_all_lists(&mut self) -> u64 {
        let keys = self.cached_list_keys();
        let mut n = 0;
        for key in keys {
            if self.invalidate_list(key) {
                n += 1;
            }
        }
        n
    }

    /// Cooperative readmission of a freshly merged list under its new
    /// `(segment, term)` key. Goes through the normal selection gate
    /// (Formulas 1 & 2 / the sketch filter), so a merge cannot smuggle a
    /// low-value list past admission; the carried `freq` is what earns
    /// the survivor its slot. Returns whether the SSD accepted it.
    pub fn readmit_list(
        &mut self,
        key: TermKey,
        si_bytes: u64,
        pu: f64,
        freq: u64,
        full_bytes: u64,
    ) -> bool {
        let meta = ListMeta {
            si_bytes,
            pu,
            freq,
            full_bytes: full_bytes.max(si_bytes),
        };
        let t = self.flush_list(key, meta);
        self.stats.ssd_time += t;
        self.ssd_ic.cached_bytes(key).is_some()
    }
}

impl<V, D> invariant::Validate for CacheManager<V, D> {
    /// Cascades over every cache tier: the L1 result/list caches, the L2
    /// SSD stores, and (when the three-level intersection family is
    /// enabled) the intersection caches. Each store checks its own
    /// mapping-table, state-machine and accounting invariants; the
    /// equivalence suites call this after every step when
    /// `INVARIANT_AUDIT` is set.
    fn validate(&self, report: &mut invariant::Report) {
        self.mem_rc.validate(report);
        self.mem_ic.validate(report);
        self.ssd_rc.validate(report);
        self.ssd_ic.validate(report);
        if let Some(xc) = &self.mem_xc {
            xc.validate(report);
        }
        if let Some(xc) = &self.ssd_xc {
            xc.validate(report);
        }
        self.admission.validate(report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;
    use simclock::SimDuration;
    use storagecore::{IoKind, RamDisk};

    const SB: u64 = BLOCK_BYTES;

    fn config(policy: PolicyKind) -> HybridConfig {
        // Small caches: 2 result entries + 2 blocks of lists in memory;
        // 4 RBs + 8 list blocks on SSD.
        HybridConfig {
            ttl: None,
            mem_result_bytes: 40_000,
            mem_list_bytes: 2 * SB,
            ssd_result_bytes: 4 * SB,
            ssd_list_bytes: 8 * SB,
            window: 2,
            tev: 0.0,
            result_freq_threshold: 0,
            policy,
            scheme: CachingScheme::Hybrid,
            intersections: None,
            admission: crate::config::AdmissionConfig::static_default(),
        }
    }

    fn manager(policy: PolicyKind) -> CacheManager<u64, RamDisk> {
        CacheManager::new(
            config(policy),
            RamDisk::with_capacity_bytes(64 << 20, SimDuration::from_micros(10)),
        )
    }

    #[test]
    fn result_miss_then_mem_hit() {
        let mut m = manager(PolicyKind::Cblru);
        let (v, tier, _) = m.lookup_result(1);
        assert!(v.is_none());
        assert_eq!(tier, Tier::Hdd);
        m.complete_result(1, 111);
        let (v, tier, t) = m.lookup_result(1);
        assert_eq!(v, Some(111));
        assert_eq!(tier, Tier::Mem);
        assert_eq!(t, SimDuration::ZERO);
        assert_eq!(m.stats().results.mem_hits, 1);
        assert_eq!(m.stats().results.misses, 1);
    }

    #[test]
    fn evicted_results_flow_to_ssd_and_hit_there() {
        let mut m = manager(PolicyKind::Cblru);
        // Memory holds 2 entries; push through 8 more so 6 get evicted,
        // filling one RB (entries_per_rb = 6).
        for id in 0..10u64 {
            m.lookup_result(id);
            m.complete_result(id, id * 100);
        }
        assert!(m.stats().results.ssd_admissions >= 6);
        // One of the early queries must now hit on SSD.
        let (v, tier, t) = m.lookup_result(0);
        assert_eq!(
            tier,
            Tier::Ssd,
            "query 0 was evicted and assembled into an RB"
        );
        assert_eq!(v, Some(0));
        assert!(t > SimDuration::ZERO);
        assert_eq!(m.stats().results.ssd_hits, 1);
        // And it was promoted back to memory.
        let (_, tier, _) = m.lookup_result(0);
        assert_eq!(tier, Tier::Mem);
    }

    #[test]
    fn lru_policy_writes_entries_cb_writes_blocks() {
        let writes = |policy| {
            let mut m = manager(policy);
            for id in 0..8u64 {
                m.lookup_result(id);
                m.complete_result(id, id);
            }
            let s = m.device().stats();
            (s.ops(IoKind::Write), s.kind(IoKind::Write).bytes())
        };
        let (lru_ops, lru_bytes) = writes(PolicyKind::Lru);
        let (cb_ops, cb_bytes) = writes(PolicyKind::Cblru);
        // LRU: six 20 KB writes. CB: one 128 KB write.
        assert!(lru_ops > cb_ops, "LRU {lru_ops} vs CB {cb_ops}");
        assert_eq!(cb_bytes, SB);
        assert_eq!(lru_bytes, 6 * 20_000_u64.div_ceil(512) * 512);
    }

    #[test]
    fn result_freq_threshold_rejects_cold_entries() {
        let mut cfg = config(PolicyKind::Cblru);
        cfg.result_freq_threshold = 2;
        let mut m = CacheManager::new(
            cfg,
            RamDisk::with_capacity_bytes(64 << 20, SimDuration::from_micros(10)),
        );
        // Entries touched once each: all rejected at eviction.
        for id in 0..6u64 {
            m.lookup_result(id);
            m.complete_result(id, id);
        }
        assert_eq!(m.stats().results.ssd_admissions, 0);
        assert!(m.stats().results.ssd_rejections >= 4);
        // A re-used entry clears the threshold.
        let hot = 100u64;
        m.lookup_result(hot);
        m.complete_result(hot, 1);
        m.lookup_result(hot); // freq 2
        for id in 10..14u64 {
            m.lookup_result(id);
            m.complete_result(id, id);
        }
        assert!(
            m.stats().results.ssd_admissions >= 1 || m.ssd_rc.buffered(hot),
            "hot entry admitted or staged"
        );
    }

    #[test]
    fn list_flow_mem_then_ssd_then_hdd() {
        let mut m = manager(PolicyKind::Cblru);
        // First access: everything from HDD.
        let s = m.lookup_list(7, SB, 4 * SB, 0.5);
        assert_eq!(s.from_hdd, SB);
        assert_eq!(s.from_mem + s.from_ssd, 0);
        assert_eq!(m.stats().lists.misses, 1);
        // Second access: memory hit.
        let s = m.lookup_list(7, SB / 2, 4 * SB, 0.5);
        assert_eq!(s.from_mem, SB / 2);
        assert_eq!(m.stats().lists.mem_hits, 1);
        // Fill memory past capacity: term 8 (freq 1, EV 1) loses to the
        // twice-accessed term 7 (EV 2) under CBLRU and is flushed to SSD.
        m.lookup_list(8, SB, 4 * SB, 0.5);
        m.lookup_list(9, SB, 4 * SB, 0.5);
        assert!(
            m.mem_ic.peek(8).is_none(),
            "lowest-EV term evicted from memory"
        );
        assert!(
            m.mem_ic.peek(7).is_some(),
            "higher-EV term survives in memory"
        );
        assert!(
            m.ssd_ic.cached_bytes(8).is_some(),
            "evicted term flushed to SSD"
        );
        // Next access to the evicted term hits the SSD tier.
        let s = m.lookup_list(8, SB / 2, 4 * SB, 0.5);
        assert!(s.from_ssd > 0);
        assert_eq!(s.from_hdd, 0);
        assert_eq!(m.stats().lists.ssd_hits, 1);
    }

    #[test]
    fn partial_ssd_coverage_leaves_hdd_remainder() {
        let mut m = manager(PolicyKind::Cblru);
        // Cache one block's worth with PU = 0.5: SC = 1 block on flush.
        m.lookup_list(7, SB, 8 * SB, 0.5);
        m.lookup_list(8, SB, 8 * SB, 0.5);
        m.lookup_list(9, SB, 8 * SB, 0.5);
        assert_eq!(m.ssd_ic.cached_bytes(7), Some(SB));
        // Ask for much more than the cached prefix.
        let s = m.lookup_list(7, 3 * SB, 8 * SB, 0.5);
        assert_eq!(s.from_ssd, SB);
        assert_eq!(s.from_hdd, 2 * SB);
        assert_eq!(m.stats().lists.partial_hits, 1);
    }

    #[test]
    fn tev_rejects_low_ev_lists() {
        let mut cfg = config(PolicyKind::Cblru);
        cfg.tev = 5.0; // EV = freq / SC must reach 5
        let mut m = CacheManager::<u64, _>::new(
            cfg,
            RamDisk::with_capacity_bytes(64 << 20, SimDuration::from_micros(10)),
        );
        // freq 1, SC 1 -> EV 1 < 5: rejected on eviction.
        m.lookup_list(1, SB, SB, 1.0);
        m.lookup_list(2, SB, SB, 1.0);
        m.lookup_list(3, SB, SB, 1.0);
        assert_eq!(m.stats().lists.ssd_admissions, 0);
        assert!(m.stats().lists.ssd_rejections >= 1);
        assert!(m.ssd_ic.is_empty());
    }

    #[test]
    fn lru_caches_full_lists_cb_caches_prefixes() {
        // Same access pattern; LRU fills + flushes full_bytes, CB only the
        // utilized prefix (SC blocks).
        let outcome = |policy| {
            let mut m = manager(policy);
            let first = m.lookup_list(1, SB, 2 * SB, 0.5); // used half of a 2-block list
            m.lookup_list(2, SB, 2 * SB, 0.5);
            m.lookup_list(3, SB, 2 * SB, 0.5); // forces term 1 out of memory
            (first.fill_from_hdd, m.ssd_ic.cached_bytes(1))
        };
        let (fill_cb, cached_cb) = outcome(PolicyKind::Cblru);
        assert_eq!(fill_cb, 0, "cost-based policies fetch only what is used");
        assert_eq!(cached_cb, Some(SB), "CB caches SC blocks");
        let (fill_lru, cached_lru) = outcome(PolicyKind::Lru);
        assert_eq!(fill_lru, SB, "the LRU baseline drags in the whole list");
        assert_eq!(cached_lru, Some(2 * SB), "LRU caches the whole list");
    }

    #[test]
    fn exclusive_scheme_deletes_on_ssd_hit() {
        let mut cfg = config(PolicyKind::Cblru);
        cfg.scheme = CachingScheme::Exclusive;
        let mut m = CacheManager::<u64, _>::new(
            cfg,
            RamDisk::with_capacity_bytes(64 << 20, SimDuration::from_micros(10)),
        );
        m.lookup_list(1, SB, SB, 1.0);
        m.lookup_list(2, SB, SB, 1.0);
        m.lookup_list(3, SB, SB, 1.0); // term 1 -> SSD
        assert!(m.ssd_ic.cached_bytes(1).is_some());
        m.lookup_list(1, SB, SB, 1.0); // SSD hit deletes the copy
        assert!(m.ssd_ic.cached_bytes(1).is_none());
        assert!(m.device().stats().ops(IoKind::Trim) > 0);
    }

    #[test]
    fn inclusive_scheme_copies_up_front() {
        let mut cfg = config(PolicyKind::Cblru);
        cfg.scheme = CachingScheme::Inclusive;
        let mut m = CacheManager::<u64, _>::new(
            cfg,
            RamDisk::with_capacity_bytes(64 << 20, SimDuration::from_micros(10)),
        );
        m.lookup_list(1, SB, SB, 1.0);
        assert!(
            m.ssd_ic.cached_bytes(1).is_some(),
            "inclusive scheme writes to SSD on memory admit"
        );
    }

    #[test]
    fn cbslru_static_seeding_serves_hits() {
        let mut m = CacheManager::new(
            config(PolicyKind::Cbslru {
                static_fraction: 0.5,
            }),
            RamDisk::with_capacity_bytes(64 << 20, SimDuration::from_micros(10)),
        );
        m.seed_static_results(vec![(1000, 42u64, 10)]);
        m.seed_static_lists(vec![(500, SB, 1.0, 20)]);
        let (v, tier, _) = m.lookup_result(1000);
        assert_eq!(v, Some(42));
        assert_eq!(tier, Tier::Ssd);
        let s = m.lookup_list(500, SB / 2, 4 * SB, 0.5);
        assert_eq!(s.from_ssd, SB / 2);
        assert_eq!(s.from_hdd, 0);
    }

    #[test]
    fn stats_hit_ratio_reflects_traffic() {
        let mut m = manager(PolicyKind::Cblru);
        m.lookup_result(1); // miss
        m.complete_result(1, 0);
        m.lookup_result(1); // mem hit
        m.lookup_result(1); // mem hit
        assert!((m.stats().results.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert!(m.stats().overall_hit_ratio() > 0.0);
    }

    #[test]
    fn oversized_memory_list_goes_straight_to_ssd() {
        let mut m = manager(PolicyKind::Cblru);
        // 3 blocks > 2-block memory cache.
        let s = m.lookup_list(1, 3 * SB, 3 * SB, 1.0);
        assert_eq!(s.from_hdd, 3 * SB);
        assert!(m.mem_ic.peek(1).is_none());
        assert!(
            m.ssd_ic.cached_bytes(1).is_some(),
            "too big for memory, flushed directly to SSD"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the device")]
    fn undersized_device_is_rejected() {
        let _ = CacheManager::<u64, _>::new(
            config(PolicyKind::Cblru),
            RamDisk::with_capacity_bytes(1024, SimDuration::ZERO),
        );
    }

    #[test]
    fn ttl_expires_results_everywhere() {
        use simclock::SimTime;
        let mut cfg = config(PolicyKind::Cblru);
        cfg.ttl = Some(SimDuration::from_millis(10));
        let mut m = CacheManager::<u64, _>::new(
            cfg,
            RamDisk::with_capacity_bytes(64 << 20, SimDuration::from_micros(10)),
        );
        m.set_now(SimTime::ZERO);
        m.lookup_result(1);
        m.complete_result(1, 7);
        // Fresh: memory hit.
        m.set_now(SimTime::from_nanos(5_000_000));
        let (v, tier, _) = m.lookup_result(1);
        assert_eq!(v, Some(7));
        assert_eq!(tier, Tier::Mem);
        // Stale: treated as a miss, copies dropped.
        m.set_now(SimTime::from_nanos(50_000_000));
        let (v, tier, _) = m.lookup_result(1);
        assert_eq!(v, None);
        assert_eq!(tier, Tier::Hdd);
        let ((fresh, expired), _) = m.ttl_stats();
        assert_eq!(fresh, 1);
        assert_eq!(expired, 1);
        // Recomputing reinstalls with a fresh clock.
        m.complete_result(1, 8);
        m.set_now(SimTime::from_nanos(55_000_000));
        let (v, _, _) = m.lookup_result(1);
        assert_eq!(v, Some(8));
    }

    #[test]
    fn ttl_expires_lists_everywhere() {
        use simclock::SimTime;
        let mut cfg = config(PolicyKind::Cblru);
        cfg.ttl = Some(SimDuration::from_millis(10));
        let mut m = CacheManager::<u64, _>::new(
            cfg,
            RamDisk::with_capacity_bytes(64 << 20, SimDuration::from_micros(10)),
        );
        m.set_now(SimTime::ZERO);
        m.lookup_list(7, SB, 4 * SB, 0.5); // installs
        m.set_now(SimTime::from_nanos(5_000_000));
        let s = m.lookup_list(7, SB, 4 * SB, 0.5);
        assert_eq!(s.from_mem, SB, "fresh entry hits memory");
        m.set_now(SimTime::from_nanos(50_000_000));
        let s = m.lookup_list(7, SB, 4 * SB, 0.5);
        assert_eq!(s.from_hdd, SB, "stale entry forces an HDD read");
        let (_, (fresh, expired)) = m.ttl_stats();
        assert!(fresh >= 1);
        assert_eq!(expired, 1);
    }

    #[test]
    fn intersections_disabled_by_default() {
        let mut m = manager(PolicyKind::Cblru);
        assert!(!m.intersections_enabled());
        assert!(m.lookup_intersection((1, 2), 1000).is_none());
        m.install_intersection((1, 2), 1000); // silently ignored
        assert_eq!(m.stats().intersections.lookups(), 0);
    }

    #[test]
    fn intersection_flow_mem_then_ssd() {
        use crate::config::IntersectionConfig;
        let mut cfg = config(PolicyKind::Cblru);
        cfg.intersections = Some(IntersectionConfig {
            mem_bytes: 2 * SB,
            ssd_bytes: 8 * SB,
            pair_threshold: 2,
        });
        let mut m = CacheManager::<u64, _>::new(
            cfg,
            RamDisk::with_capacity_bytes(64 << 20, SimDuration::from_micros(10)),
        );
        assert!(m.intersections_enabled());
        // Miss, then install, then memory hit.
        assert!(m.lookup_intersection((3, 9), SB).is_none());
        m.install_intersection((3, 9), SB);
        let s = m.lookup_intersection((3, 9), SB).expect("cached");
        assert_eq!(s.from_mem, SB);
        assert_eq!(m.stats().intersections.mem_hits, 1);
        // Push it out of memory: fill with hotter pairs (touched twice so
        // their EV beats the victim's inside the replace-first window).
        for pair in [(1u64, 2u64), (4, 5), (6, 7)] {
            m.install_intersection(pair, SB);
            m.lookup_intersection(pair, SB);
            m.lookup_intersection(pair, SB);
        }
        assert!(m.mem_xc.as_ref().expect("enabled").peek((3, 9)).is_none());
        let s = m.lookup_intersection((3, 9), SB).expect("on SSD");
        assert_eq!(s.from_ssd, SB);
        assert!(s.ssd_latency > SimDuration::ZERO);
        assert_eq!(m.stats().intersections.ssd_hits, 1);
        // Promoted back to memory by the hit.
        let s = m.lookup_intersection((3, 9), SB).expect("promoted");
        assert_eq!(s.from_mem, SB);
    }

    #[test]
    fn intersection_region_extends_ssd_footprint() {
        use crate::config::IntersectionConfig;
        let mut cfg = config(PolicyKind::Cblru);
        let base = cfg.ssd_sectors();
        cfg.intersections = Some(IntersectionConfig {
            mem_bytes: SB,
            ssd_bytes: 4 * SB,
            pair_threshold: 1,
        });
        assert_eq!(cfg.ssd_sectors(), base + 4 * 256);
    }

    #[test]
    fn static_scenario_never_expires() {
        use simclock::SimTime;
        let mut m = manager(PolicyKind::Cblru);
        m.set_now(SimTime::ZERO);
        m.lookup_result(1);
        m.complete_result(1, 7);
        m.set_now(SimTime::from_nanos(u64::MAX / 2));
        let (v, tier, _) = m.lookup_result(1);
        assert_eq!(v, Some(7));
        assert_eq!(tier, Tier::Mem);
        assert_eq!(m.ttl_stats(), ((0, 0), (0, 0)));
    }
}
