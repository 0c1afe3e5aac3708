//! The simulated search engine.

use flashsim::SsdDisk;
use hddsim::{HddDisk, HddParams};
use hybridcache::{CacheManager, Tier};
use searchidx::{
    CorpusSpec, IndexLayout, IndexReader, LiveIndex, PostingsBackend, QueryOutcome, SyntheticIndex,
    TopKProcessor, RESULT_DOC_BYTES,
};
use simclock::{Clock, RunningStats, SimDuration, SimTime};
use storagecore::{
    BlockDevice, Extent, Geometry, IoError, IoEvent, IoRequest, IoStats, Lba, NullSink,
    PipelinedDevice, TraceSink, SECTOR_SIZE,
};
use workload::{Query, QueryLog, QueryLogSpec};

use crate::config::{CompactionMode, EngineConfig, IndexMutability, IndexPlacement};
use crate::mutation::{SegLayout, SegmentArena};
use crate::payload::CachedResult;
use crate::report::{FlashReport, RunReport};
use crate::situations::{classify_list, Situation, SituationTable};

/// The device holding the index files.
#[derive(Debug)]
pub enum IndexDevice {
    /// Mechanical disk (the paper's WD3200AAJS).
    Hdd(Box<HddDisk>),
    /// Flash SSD with the paper's page-mapped FTL.
    Ssd(Box<SsdDisk>),
}

impl BlockDevice for IndexDevice {
    fn geometry(&self) -> Geometry {
        match self {
            IndexDevice::Hdd(d) => d.geometry(),
            IndexDevice::Ssd(d) => d.geometry(),
        }
    }

    fn read(&mut self, extent: Extent) -> Result<SimDuration, IoError> {
        match self {
            IndexDevice::Hdd(d) => d.read(extent),
            IndexDevice::Ssd(d) => d.read(extent),
        }
    }

    fn write(&mut self, extent: Extent) -> Result<SimDuration, IoError> {
        match self {
            IndexDevice::Hdd(d) => d.write(extent),
            IndexDevice::Ssd(d) => d.write(extent),
        }
    }

    fn stats(&self) -> &IoStats {
        match self {
            IndexDevice::Hdd(d) => d.stats(),
            IndexDevice::Ssd(d) => d.stats(),
        }
    }

    fn reset_stats(&mut self) {
        match self {
            IndexDevice::Hdd(d) => d.reset_stats(),
            IndexDevice::Ssd(d) => d.reset_stats(),
        }
    }

    fn head_position(&self) -> Lba {
        match self {
            IndexDevice::Hdd(d) => d.head_position(),
            IndexDevice::Ssd(d) => d.head_position(),
        }
    }
}

/// Trace sink that buffers only when enabled.
#[derive(Debug, Default)]
struct ToggleSink {
    events: Option<Vec<IoEvent>>,
}

impl TraceSink for ToggleSink {
    fn record(&mut self, event: IoEvent) {
        if let Some(events) = &mut self.events {
            events.push(event);
        }
    }
}

/// One query's list charges between the two phases of
/// [`SearchEngine::execute`]: the situation records in term order, and
/// the index-device reads still owed — `extents[i]` completes
/// `records[slots[i]]`.
#[derive(Debug, Default)]
struct ListCharges {
    records: Vec<(Situation, SimDuration)>,
    slots: Vec<usize>,
    extents: Vec<Extent>,
}

/// The end-to-end engine.
#[derive(Debug)]
pub struct SearchEngine {
    config: EngineConfig,
    /// The one index. Until its first mutation every read delegates to
    /// the base corpus; `arena` decides whether a mutation is accepted.
    index: LiveIndex<SyntheticIndex>,
    layout: IndexLayout,
    /// Per-sealed-segment on-device layouts (empty while pristine).
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookups only; the map is never iterated"
    )]
    seg_layouts: std::collections::HashMap<searchidx::SegmentId, SegLayout>,
    /// Ring allocator for WAL appends and segment images in the free
    /// region past the stored fields. `Some` iff `mutability` is
    /// [`IndexMutability::Live`] — the single gate on mutation.
    arena: Option<SegmentArena>,
    /// Cache-coherence strategy for compaction merges.
    compaction_mode: CompactionMode,
    /// Virtual time spent in background mutation I/O (WAL appends, seal
    /// images, merge traffic). Not added to query response times — the
    /// background flag on each request is what models the overlap — but
    /// reported so ingest cost stays visible.
    mutation_io_time: SimDuration,
    /// Order-insensitive digest over every served result (computed or
    /// cache-hit): equal digests ⇒ equal match sets, the equal-correctness
    /// gate of the compaction-mode comparison. Accounting only.
    result_digest: u64,
    /// Index device behind the explicit I/O pipeline: foreground reads
    /// go through submit/wait in windows of the queue depth (which this
    /// wrapper and the cache SSD's always share).
    index_dev: PipelinedDevice<IndexDevice, ToggleSink>,
    /// Payloads are [`CachedResult`] — a result's doc count and digest
    /// term, `Copy`, so the manager's admit/flush clones are 16-byte moves.
    cache: Option<CacheManager<CachedResult, PipelinedDevice<SsdDisk>>>,
    processor: TopKProcessor,
    log: QueryLog,
    clock: Clock,
    situations: SituationTable,
    response: RunningStats,
    queries_run: u64,
    postings_scanned: u64,
    /// Aggregated block-max accounting from the blocked postings backend
    /// (all zeros on the reference backend). Diagnostic only — kept out
    /// of [`RunReport`], which must stay bit-identical across backends.
    block_skips: searchidx::SkipStats,
}

impl SearchEngine {
    /// Build the whole testbed from a configuration. Construction is O(vocabulary).
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookups only; the map is never iterated"
    )]
    pub fn new(config: EngineConfig) -> Self {
        let base = SyntheticIndex::new(CorpusSpec::enwiki_like(config.docs, config.seed));
        // Frozen refuses every mutation, so its policy and compaction
        // mode are never consulted.
        let (segments, compaction_mode) = match &config.mutability {
            IndexMutability::Frozen => Default::default(),
            IndexMutability::Live(live) => (live.segments, live.compaction),
        };
        let index = LiveIndex::new(base, segments);
        let layout = IndexLayout::build(index.base(), 0);
        // Stored fields are reserved right after the posting lists.
        let doc_sectors = (config.docs * RESULT_DOC_BYTES).div_ceil(SECTOR_SIZE as u64);
        let index_dev = match config.index_placement {
            IndexPlacement::Hdd => {
                // The index occupies the low LBAs of a realistically-sized
                // disk, so seek distances within the index stay honest.
                let capacity = ((layout.bytes() + doc_sectors * 512) * 4).max(4 << 30);
                IndexDevice::Hdd(Box::new(HddDisk::new(HddParams::small_test_disk(capacity))))
            }
            IndexPlacement::Ssd => IndexDevice::Ssd(Box::new(SsdDisk::paper(
                layout.bytes() + doc_sectors * 512 + (64 << 20),
            ))),
        };
        let sink = ToggleSink {
            events: config.capture_trace.then(Vec::new),
        };
        let cache = config.cache.clone().map(|hc| {
            let footprint = hc.ssd_sectors() * storagecore::SECTOR_SIZE as u64;
            let mut piped = PipelinedDevice::new(SsdDisk::paper(footprint.max(4 << 20)), NullSink);
            piped.set_depth(config.queue_depth);
            CacheManager::new(hc, piped)
        });
        let log = QueryLog::new(QueryLogSpec::aol_like(
            index.num_terms(),
            config.seed ^ 0xBEEF,
        ));
        let mut processor = TopKProcessor::new(config.topk);
        processor.set_backend(config.postings);
        // A live engine rings its WAL and segment images through the free
        // region past the stored fields; the device capacity formulas above
        // do not depend on mutability, so geometry (and thus seek timing)
        // is the same either way.
        let arena = config.mutability.is_live().then(|| {
            let used = layout.end() + doc_sectors;
            let capacity = index_dev.geometry().sectors;
            SegmentArena::new(used, capacity.saturating_sub(used))
        });
        SearchEngine {
            processor,
            index,
            layout,
            seg_layouts: std::collections::HashMap::new(),
            arena,
            compaction_mode,
            mutation_io_time: SimDuration::ZERO,
            result_digest: 0xcbf2_9ce4_8422_2325,
            index_dev: {
                let mut piped = PipelinedDevice::new(index_dev, sink);
                piped.set_depth(config.queue_depth);
                piped
            },
            cache,
            log,
            clock: Clock::new(),
            situations: SituationTable::new(),
            response: RunningStats::new(),
            queries_run: 0,
            postings_scanned: 0,
            block_skips: searchidx::SkipStats::default(),
            config,
        }
    }

    /// The base synthetic index; ingested segments layer on top without
    /// renumbering its documents.
    pub fn index(&self) -> &SyntheticIndex {
        self.index.base()
    }

    /// The live index, when `mutability` is [`IndexMutability::Live`].
    pub fn live_index(&self) -> Option<&LiveIndex<SyntheticIndex>> {
        self.is_live().then_some(&self.index)
    }

    /// Mutation-lifecycle counters (all zero when frozen: nothing was
    /// ever accepted).
    pub fn mutation_stats(&self) -> searchidx::MutationStats {
        self.index.stats()
    }

    /// Virtual time spent in background mutation I/O (WAL appends, seal
    /// images, merge traffic).
    pub fn mutation_io_time(&self) -> SimDuration {
        self.mutation_io_time
    }

    /// Order-insensitive digest over every result served so far. Two
    /// runs that served the same match sets (same docs, same scores, in
    /// any interleaving) have equal digests — the equal-correctness gate
    /// the compaction-mode benchmark relies on.
    pub fn result_digest(&self) -> u64 {
        self.result_digest
    }

    /// The on-device index layout.
    pub fn layout(&self) -> &IndexLayout {
        &self.layout
    }

    /// The query log generator.
    pub fn log(&self) -> &QueryLog {
        &self.log
    }

    /// The cache manager, when configured.
    pub fn cache(&self) -> Option<&CacheManager<CachedResult, PipelinedDevice<SsdDisk>>> {
        self.cache.as_ref()
    }

    /// Mutable cache access for the corruption-seeding audit tests
    /// (`mutation_audit` plants cache/segment inconsistencies to prove
    /// the validators fire). Not part of the public surface.
    #[doc(hidden)]
    pub fn debug_cache_mut(
        &mut self,
    ) -> Option<&mut CacheManager<CachedResult, PipelinedDevice<SsdDisk>>> {
        self.cache.as_mut()
    }

    /// Mutable live-index access for the corruption-seeding audit tests
    /// (`mutation_audit` plants WAL/segment/tombstone inconsistencies to
    /// prove the validators fire). Not part of the public surface.
    #[doc(hidden)]
    pub fn debug_live_mut(&mut self) -> Option<&mut LiveIndex<SyntheticIndex>> {
        self.is_live().then_some(&mut self.index)
    }

    /// Full I/O statistics of the index device, submission-queue section
    /// included (what the equivalence suites compare bit-for-bit).
    pub fn index_io_stats(&self) -> &IoStats {
        self.index_dev.stats()
    }

    /// Runs the structural invariant validators over every audited piece
    /// of engine state: the two-level cache (memory caches, SSD stores),
    /// the cache SSD's pipeline queue and FTL, and the index device's
    /// pipeline queue. Equivalence suites call this at the end of a run
    /// to prove a full simulation leaves every structure coherent.
    pub fn validation_report(&self) -> invariant::Report {
        use invariant::Validate;
        let mut report = invariant::Report::new();
        if let Some(cache) = &self.cache {
            cache.validate(&mut report);
            cache.device().validate(&mut report);
            cache.device().inner().validate(&mut report);
        }
        self.index_dev.validate(&mut report);
        // The segment stack's own validators (WAL monotonicity,
        // doc-range disjointness, tombstone conservation).
        self.index.validate(&mut report);
        // Cache/segment coherence: no tier may hold a key whose segment
        // has been retired by compaction — a stale prefix there could
        // alias a freshly merged list.
        if let Some(cache) = &self.cache {
            let retired = self.index.retired_ids();
            for key in cache.cached_list_keys() {
                let seg = hybridcache::key_segment(key);
                report.check(
                    !retired.contains(&seg),
                    "SearchEngine",
                    "no-cached-prefix-for-dead-segment",
                    || {
                        format!(
                            "cache holds key (segment {seg}, term {}) but segment {seg} is retired",
                            hybridcache::key_term(key)
                        )
                    },
                );
            }
        }
        report
    }

    /// Change both devices' queue depth at runtime (devices are idle
    /// between queries, so this is always legal there).
    pub fn set_queue_depth(&mut self, depth: usize) {
        self.index_dev.set_depth(depth);
        if let Some(cache) = self.cache.as_mut() {
            cache.device_mut().set_depth(depth);
        }
    }

    /// Route top-K through [`PostingsBackend::Reference`] — the seed's
    /// `HashMap` accumulator over uncompressed postings — when `on`, and
    /// back to the configured [`EngineConfig::postings`] when not. The
    /// processor's backend is the one switch state. Simulated figures are
    /// identical either way; the benchmark's oracle engine runs with this
    /// on.
    pub fn set_reference_mode(&mut self, on: bool) {
        let backend = if on {
            PostingsBackend::Reference
        } else {
            self.config.postings
        };
        self.processor.set_backend(backend);
    }

    /// Aggregated block-max skip accounting since the last measurement
    /// reset (all zeros unless the blocked backend ran): `skip_probes`
    /// block-max bounds consulted, `skipped` postings pruned unread,
    /// `visited` postings read and scored.
    pub fn postings_skip_stats(&self) -> searchidx::SkipStats {
        self.block_skips
    }

    /// Footprint of the processor's block store (the pinned prefixes).
    pub fn postings_store_stats(&self) -> searchidx::BlockStoreStats {
        self.processor.store_stats()
    }

    fn topk(&mut self, terms: &[u32]) -> QueryOutcome {
        let outcome = self.processor.process(&self.index, terms);
        self.block_skips.absorb(outcome.skip_stats);
        outcome
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Take the captured index-device trace (empty unless
    /// `capture_trace` was set; capturing continues afterwards).
    pub fn take_trace(&mut self) -> Vec<IoEvent> {
        match &mut self.index_dev.sink_mut().events {
            Some(events) => std::mem::take(events),
            None => Vec::new(),
        }
    }

    /// Execute the next `n` queries of the log.
    pub fn run(&mut self, n: usize) -> RunReport {
        let queries: Vec<Query> = self.log.stream(n);
        self.run_queries(&queries)
    }

    /// Execute an explicit query stream.
    pub fn run_queries(&mut self, queries: &[Query]) -> RunReport {
        let t0 = self.clock.now();
        let before = self.queries_run;
        for q in queries {
            self.execute(q);
        }
        let elapsed = self.clock.now() - t0;
        let ran = self.queries_run - before;
        self.window_report(ran, elapsed)
    }

    /// Snapshot the cumulative report without executing anything — the
    /// per-shard rows of a `ClusterReport`. The window fields (`queries`,
    /// `elapsed`, `throughput_qps`) are zero: a snapshot has no
    /// measurement window, only cumulative statistics (mean/p99
    /// response, cache and flash counters, situation table).
    pub fn report(&self) -> RunReport {
        self.window_report(0, SimDuration::ZERO)
    }

    /// Execute one query on the virtual clock, returning its response
    /// time. There is one path: cache lookups run inline in term order,
    /// foreground index reads are explicit submissions in windows of the
    /// queue depth, and what they cost derives from completion
    /// timestamps (`finish − submit`), not from summed call latencies.
    /// At depth 1 a window is one request whose completion the host
    /// awaits — the synchronous model every figure is calibrated on (the
    /// `golden_ledger` suite pins it); at larger depths a window's reads
    /// dispatch nearest-first and the window finishes when its last
    /// completion lands.
    pub fn execute(&mut self, query: &Query) -> SimDuration {
        let start = self.clock.now();
        let cost = self.config.cost;
        self.clock.advance(cost.per_query);

        // Query management: the result cache first.
        if let Some(cache) = self.cache.as_mut() {
            // Feed the clock through for TTL expiry (dynamic scenario).
            cache.set_now(start);
            let lookup_start = self.clock.now();
            cache.device_mut().set_now(lookup_start);
            let (result, tier, latency) = cache.lookup_result(query.id);
            self.clock.advance(latency);
            if let Some(result) = result {
                self.clock.advance(cost.mem_read(result.bytes()));
                let service = self.clock.now() - lookup_start;
                let situation = match tier {
                    Tier::Mem => Situation::S1ResultMem,
                    _ => Situation::S3ResultSsd,
                };
                self.situations.record(situation, service);
                self.digest_result(result);
                return self.finish(start);
            }
        }

        // Compute from the index, charging list I/O per visited prefix.
        let outcome = self.topk(&query.terms);
        self.postings_scanned += outcome.postings_scanned();
        let computed = CachedResult::encode(&outcome.result);
        self.digest_result(computed);

        // Phase 1: cache lookups in term order. Index reads are deferred
        // as (record slot, extent) pairs and the situation records are
        // buffered, to be completed by phase 2 and flushed in term order:
        // the `SituationTable`'s running stats are float-order-sensitive.
        let mut lists = ListCharges::default();
        for u in &outcome.usage {
            if u.scanned == 0 {
                // "…or are not traversed at all" — no storage touched.
                continue;
            }
            // Once the index has mutated, a scanned prefix splits into
            // per-layer shares. Pristine it is one part, the base layer's
            // whole prefix.
            match self.index.split_usage(u.term, u.scanned) {
                Some(parts) => self.charge_parts(u.term, &parts, &mut lists),
                None => {
                    let whole = searchidx::UsagePart {
                        segment: searchidx::BASE_SEGMENT,
                        scanned: u.scanned,
                        df: u.df,
                    };
                    self.charge_parts(u.term, &[whole], &mut lists);
                }
            }
        }

        // Phase 2: the deferred reads; each term's situation charge
        // grows by its own read's response time.
        let responses = self.read_in_windows(&lists.extents);
        for (slot, response) in lists.slots.into_iter().zip(responses) {
            lists.records[slot].1 += response;
        }
        for (situation, duration) in lists.records {
            self.situations.record(situation, duration);
        }

        // Scoring + result-page assembly CPU.
        self.clock
            .advance(cost.per_posting * outcome.postings_scanned());
        self.clock
            .advance(cost.per_result_doc * outcome.result.docs.len() as u64);

        if let Some(cache) = self.cache.as_mut() {
            cache.device_mut().set_now(self.clock.now());
            cache.complete_result(query.id, computed);
        }
        self.situations
            .record(Situation::S8ResultHdd, self.clock.now() - start);
        self.finish(start)
    }

    /// Submit `extents` as foreground index-device reads in windows of
    /// the queue depth. Each window is stamped with the clock at its
    /// submission and costs wall-clock until its last completion lands;
    /// returns every read's own response (queue wait + service), in
    /// order.
    fn read_in_windows(&mut self, extents: &[Extent]) -> Vec<SimDuration> {
        let mut responses = Vec::with_capacity(extents.len());
        for window in extents.chunks(self.index_dev.depth()) {
            self.index_dev.set_now(self.clock.now());
            // The clock the window is stamped with: ours, unless depth-1
            // background mutation I/O has carried the device's past it.
            let base = self.index_dev.now();
            let ids: Vec<u64> = window
                .iter()
                .map(|&extent| {
                    self.index_dev
                        .submit(IoRequest::read(extent))
                        .expect("index extents are on-device")
                })
                .collect();
            let mut batch_end = base;
            for id in ids {
                let c = self
                    .index_dev
                    .wait(id)
                    .expect("index extents are on-device");
                responses.push(c.response());
                batch_end = batch_end.max(c.finish_at);
            }
            self.clock.advance(batch_end.since(base));
        }
        responses
    }

    fn finish(&mut self, start: SimTime) -> SimDuration {
        let response = self.clock.now() - start;
        self.response.push_duration(response);
        self.queries_run += 1;
        response
    }

    /// CBSLRU warm start: analyze the first `analysis_len` log entries
    /// offline (uncharged — the paper's "by analyzing the query log") and
    /// seed the static partitions with the hottest results and the most
    /// efficient lists.
    pub fn seed_static_from_log(&mut self, analysis_len: usize) {
        use std::collections::BTreeMap;
        let Some(cache) = self.cache.as_ref() else {
            return;
        };
        if cache.config().policy.static_fraction() == 0.0 {
            return;
        }

        let mut query_freq: BTreeMap<u64, u64> = BTreeMap::new();
        for q in self.log.stream_iter(analysis_len) {
            *query_freq.entry(q.id).or_insert(0) += 1;
        }
        let mut ranked: Vec<(u64, u64)> = query_freq.into_iter().collect();
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        // Process the hottest distinct queries once to learn term usage
        // and produce the result payloads.
        let analyze = ranked.len().min(512);
        let mut term_stats: BTreeMap<u32, (u64, u64, f64)> = BTreeMap::new(); // freq, max bytes, pu sum
        let mut result_seeds = Vec::new();
        for &(qid, freq) in ranked.iter().take(analyze) {
            let terms = self.log.terms_of(qid);
            let outcome = self.topk(&terms);
            for u in &outcome.usage {
                if u.scanned == 0 {
                    continue;
                }
                let e = term_stats.entry(u.term).or_insert((0, 0, 0.0));
                e.0 += freq;
                e.1 = e.1.max(u.bytes_scanned());
                e.2 += u.utilization() * freq as f64;
            }
            result_seeds.push((qid, CachedResult::encode(&outcome.result), freq));
        }

        let mut list_seeds: Vec<(u64, u64, f64, u64)> = term_stats
            .into_iter()
            .map(|(term, (freq, si, pu_sum))| {
                (term as u64, si, (pu_sum / freq as f64).min(1.0), freq)
            })
            .collect();
        // Rank lists by efficiency value; ties break on the term id so
        // the seeded set is reproducible independent of map order.
        list_seeds.sort_by(|a, b| {
            let ev = |x: &(u64, u64, f64, u64)| {
                hybridcache::efficiency_value(x.3, hybridcache::sc_blocks(x.1, x.2))
            };
            ev(b)
                .partial_cmp(&ev(a))
                .expect("EV is finite")
                .then(a.0.cmp(&b.0))
        });

        let cache = self.cache.as_mut().expect("checked above");
        cache.seed_static_results(result_seeds);
        cache.seed_static_lists(list_seeds);
    }

    /// Assemble the report for the queries run so far in this window.
    fn window_report(&self, queries: u64, elapsed: SimDuration) -> RunReport {
        let flash = self.cache.as_ref().map(|c| {
            use flashsim::Ftl as _;
            let dev = c.device();
            let ftl = dev.inner().ftl();
            let nand = ftl.nand().stats();
            let fstats = ftl.stats();
            let io = dev.stats();
            let spp = ftl.params().sectors_per_page().max(1);
            let host_pages = (io.kind(storagecore::IoKind::Read).sectors()
                + io.kind(storagecore::IoKind::Write).sectors())
                / spp;
            FlashReport {
                block_erases: nand.block_erases,
                page_reads: nand.page_reads,
                page_programs: nand.page_programs,
                host_writes: fstats.host_writes,
                gc_runs: fstats.gc_runs,
                pages_moved: fstats.pages_moved,
                write_amplification: fstats.write_amplification(nand.page_programs),
                mean_access: if host_pages == 0 {
                    SimDuration::ZERO
                } else {
                    io.total_busy() / host_pages
                },
            }
        });
        let idx_stats = self.index_dev.stats();
        RunReport {
            queries,
            elapsed,
            mean_response: self.response.mean_duration(),
            throughput_qps: if elapsed == SimDuration::ZERO {
                0.0
            } else {
                queries as f64 / elapsed.as_secs_f64()
            },
            postings_scanned: self.postings_scanned,
            cache: self.cache.as_ref().map(|c| *c.stats()),
            flash,
            index_ops: idx_stats.total_ops(),
            index_mean_latency: idx_stats.mean_latency(),
            situations: self.situations,
        }
    }

    // ------------------------------------------------------------------
    // Live-index mutation path
    // ------------------------------------------------------------------

    /// Whether the index accepts mutations.
    pub fn is_live(&self) -> bool {
        self.arena.is_some()
    }

    /// Ingest one document into the live index: WAL append (background
    /// write), in-memory postings growth, and — at the seal/compaction
    /// thresholds — the background segment lifecycle. Returns the
    /// assigned document slot, or `None` when frozen.
    ///
    /// `terms` must be distinct, ascending, in-vocabulary `(term, tf)`
    /// pairs with `tf > 0`.
    pub fn ingest_document(&mut self, terms: &[(u32, u32)]) -> Option<u32> {
        if !self.is_live() {
            return None;
        }
        let out = self.index.add_document(self.clock.now(), terms);
        self.charge_wal(out.wal_bytes);
        self.sync_processor();
        self.run_segment_lifecycle();
        Some(out.doc)
    }

    /// Tombstone-delete a document from the live index. Returns whether
    /// it was alive (always `false` when frozen).
    pub fn delete_document(&mut self, doc: u32) -> bool {
        if !self.is_live() {
            return false;
        }
        let out = self.index.delete_document(self.clock.now(), doc);
        self.charge_wal(out.wal_bytes);
        self.sync_processor();
        self.run_segment_lifecycle();
        out.deleted
    }

    /// The deterministic background lifecycle: seal at the policy
    /// threshold, then compact at the fan-in threshold.
    fn run_segment_lifecycle(&mut self) {
        let at = self.clock.now();
        if self.index.seal_due() {
            if let Some(out) = self.index.seal(at) {
                self.on_seal(&out);
            }
        }
        if self.index.compaction_due() {
            if let Some(out) = self.index.compact(at) {
                self.on_compact(&out);
            }
        }
    }

    /// Background mutation I/O on the index device, stamped with the
    /// engine clock: `reads`, then one `write`. Its time accrues to
    /// `mutation_io_time`, never to a query's response.
    fn background_io(&mut self, reads: &[Extent], write: Extent) {
        self.index_dev.set_now(self.clock.now());
        let mut t = SimDuration::ZERO;
        for &extent in reads {
            t += self
                .index_dev
                .request(&IoRequest::read(extent).background())
                .expect("segment arena is on-device");
        }
        t += self
            .index_dev
            .request(&IoRequest::write(write).background())
            .expect("WAL ring and segment arena are on-device");
        self.mutation_io_time += t;
    }

    /// Charge a WAL append as a background write into the WAL ring.
    fn charge_wal(&mut self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let arena = self.arena.as_mut().expect("only a live engine mutates");
        let extent = arena.wal_extent(bytes);
        self.background_io(&[], extent);
    }

    /// Lay sealed segment `id` out in the arena and keep its layout;
    /// returns the image extent the caller writes.
    fn place_segment(&mut self, id: searchidx::SegmentId) -> Extent {
        let seg = self
            .index
            .sealed_segment(id)
            .expect("a segment just sealed or merged is active");
        let arena = self.arena.as_mut().expect("only a live engine mutates");
        let layout = SegLayout::build(seg, arena);
        let image = layout.image_extent();
        self.seg_layouts.insert(id, layout);
        image
    }

    /// A freshly sealed segment: lay it out in the arena and charge the
    /// image write as background I/O.
    fn on_seal(&mut self, out: &searchidx::SealOutcome) {
        self.charge_wal(out.wal_bytes);
        let image = self.place_segment(out.segment);
        self.background_io(&[], image);
        self.audit_mutation("SearchEngine::on_seal");
    }

    /// A compaction merge: charge input reads + output write as
    /// background I/O, retire the input layouts, and reconcile the
    /// cache under the configured [`CompactionMode`].
    fn on_compact(&mut self, out: &searchidx::CompactOutcome) {
        self.charge_wal(out.wal_bytes);
        let inputs: Vec<Extent> = out
            .inputs
            .iter()
            .filter_map(|id| self.seg_layouts.remove(id))
            .map(|l| l.image_extent())
            .collect();
        let image = self.place_segment(out.output);
        self.background_io(&inputs, image);
        self.reconcile_cache(out);
        self.sync_processor();
        self.audit_mutation("SearchEngine::on_compact");
    }

    /// Merge-driven cache coherence. Both modes leave zero cached keys
    /// on retired segments (the `no-cached-prefix-for-dead-segment`
    /// audit); they differ in what happens to everything else.
    fn reconcile_cache(&mut self, out: &searchidx::CompactOutcome) {
        if self.cache.is_none() {
            return;
        }
        let now = self.clock.now();
        match self.compaction_mode {
            CompactionMode::InvalidateAll => {
                let cache = self.cache.as_mut().expect("checked above");
                cache.set_now(now);
                cache.device_mut().set_now(now);
                cache.invalidate_all_lists();
            }
            CompactionMode::Cooperative => {
                // Pass 1: invalidate exactly the retired segments' keys,
                // carrying each term's cached profile.
                let mut carried: Vec<(u32, u64, f64, u64)> = Vec::new();
                {
                    let cache = self.cache.as_mut().expect("checked above");
                    cache.set_now(now);
                    cache.device_mut().set_now(now);
                    let mut by_term: std::collections::BTreeMap<u32, (u64, f64, u64)> =
                        std::collections::BTreeMap::new();
                    for key in cache.cached_list_keys() {
                        let seg = hybridcache::key_segment(key);
                        if !out.inputs.contains(&seg) {
                            continue;
                        }
                        if let Some((si, pu, freq, _full)) = cache.list_profile(key) {
                            let e = by_term
                                .entry(hybridcache::key_term(key))
                                .or_insert((0, 0.0, 0));
                            e.0 += si;
                            e.1 = e.1.max(pu);
                            e.2 += freq;
                        }
                        cache.invalidate_list(key);
                    }
                    carried.extend(by_term.into_iter().map(|(t, (si, pu, f))| (t, si, pu, f)));
                }
                // Pass 2: the merged survivor's footprint per term.
                let full_bytes: Vec<u64> = {
                    let seg = self.index.sealed_segment(out.output);
                    carried
                        .iter()
                        .map(|&(t, ..)| seg.map_or(0, |s| s.doc_freq(t) * 8))
                        .collect()
                };
                // Pass 3: readmit under the output segment's key, through
                // the normal admission gate.
                let cache = self.cache.as_mut().expect("checked above");
                for (&(term, si, pu, freq), &full) in carried.iter().zip(&full_bytes) {
                    if full == 0 {
                        continue; // every posting of the term was dropped
                    }
                    let key = hybridcache::list_key(out.output, term);
                    cache.readmit_list(key, si.min(full), pu, freq, full);
                }
            }
        }
    }

    /// Drain the live index's dirty-term set into the processor's
    /// per-term caches (block postings + weight scratch are keyed by
    /// term only, so stale entries must go before the next query).
    fn sync_processor(&mut self) {
        let dirty = self.index.take_dirty();
        if dirty.all {
            self.processor.invalidate_all_terms();
        } else {
            for t in dirty.terms {
                self.processor.invalidate_term(t);
            }
        }
    }

    /// Debug-gated full-state audit after a lifecycle step (includes the
    /// segment validators and the dead-segment cache sweep).
    fn audit_mutation(&mut self, context: &str) {
        #[cfg(debug_assertions)]
        {
            if invariant::audit_enabled() {
                let report = self.validation_report();
                if !report.is_clean() {
                    panic!(
                        "invariant audit failed at {context} ({} violation(s)):\n{}",
                        report.violations().len(),
                        report.summary()
                    );
                }
            }
        }
        let _ = context;
    }

    /// The on-device extent for bytes `[from, to)` of one segment's share
    /// of a term (base layer uses the frozen layout; sealed segments use
    /// their compact arena layouts). `None` only if a sealed segment has
    /// no image yet, which cannot happen after `on_seal` — kept total so
    /// a charging miss degrades to "no HDD read" instead of a panic.
    fn live_range_extent(
        &self,
        segment: searchidx::SegmentId,
        term: u32,
        from: u64,
        to: u64,
    ) -> Option<Extent> {
        if segment == searchidx::BASE_SEGMENT {
            Some(self.layout.range_extent(term, from, to))
        } else {
            self.seg_layouts.get(&segment)?.range_extent(term, from, to)
        }
    }

    /// Charge one term's traversal, layer by layer. Each non-empty part
    /// is an independent cacheable unit keyed by `(segment, term)`; the
    /// write-segment share is RAM-resident and never cached. Cache serves
    /// happen inline; index-device tails are deferred into `out`.
    fn charge_parts(&mut self, term: u32, parts: &[searchidx::UsagePart], out: &mut ListCharges) {
        let cost = self.config.cost;
        for p in parts {
            let needed = p.scanned * searchidx::POSTING_BYTES;
            if p.segment == searchidx::WRITE_SEGMENT {
                let t = cost.mem_read(needed);
                self.clock.advance(t);
                out.records.push((Situation::S2ListMem, t));
                continue;
            }
            let full = p.df * searchidx::POSTING_BYTES;
            let pu = if p.df == 0 {
                0.0
            } else {
                (p.scanned as f64 / p.df as f64).min(1.0)
            };
            let key = hybridcache::list_key(p.segment, term);
            let slot = out.records.len();
            let extent = if let Some(cache) = self.cache.as_mut() {
                cache.device_mut().set_now(self.clock.now());
                let serve = cache.lookup_list(key, needed, full, pu);
                self.clock.advance(serve.ssd_latency);
                self.clock.advance(cost.mem_read(serve.from_mem));
                out.records.push((
                    classify_list(serve.from_mem, serve.from_ssd, serve.from_hdd),
                    serve.ssd_latency + cost.mem_read(serve.from_mem),
                ));
                // The request's own tail, plus whatever extra the policy
                // decided to fill (whole-list reads under the traditional
                // LRU baseline).
                let from = serve.from_mem + serve.from_ssd;
                let to = needed + serve.fill_from_hdd;
                if serve.from_hdd + serve.fill_from_hdd > 0 {
                    self.live_range_extent(p.segment, term, from.min(to - 1), to)
                } else {
                    None
                }
            } else {
                out.records.push((Situation::S9ListHdd, SimDuration::ZERO));
                self.live_range_extent(p.segment, term, 0, needed)
            };
            if let Some(extent) = extent {
                out.slots.push(slot);
                out.extents.push(extent);
            }
        }
    }

    /// Fold one served result into the order-insensitive digest.
    fn digest_result(&mut self, result: CachedResult) {
        // Commutative fold: arrival order must not matter when two runs
        // interleave ingest differently between the same queries.
        self.result_digest = self.result_digest.wrapping_add(result.digest());
    }

    /// Reset measurement windows (cache contents and device wear persist —
    /// use this to measure steady state after a warm-up run).
    pub fn reset_measurements(&mut self) {
        self.situations = SituationTable::new();
        self.response = RunningStats::new();
        self.postings_scanned = 0;
        self.block_skips = searchidx::SkipStats::default();
        self.index_dev.reset_stats();
        if let Some(cache) = self.cache.as_mut() {
            cache.reset_stats();
            cache.device_mut().reset_stats();
        }
    }
}
