//! The golden ledger: one committed 64-bit digest per pinned engine
//! configuration, over every per-query response and every simulated
//! statistic the engine reports. It is the witness that outlived the
//! synchronous `Direct` query path: the constants were recorded on the
//! last commit that had it (depth-1 rows under `Direct`, and unchanged
//! under `Queued { depth: 1 }` + FIFO; deep rows under `Queued { depth:
//! 4 }` + elevator, the nearest-first order the queue now always uses)
//! and must not move unless the change says which figure moved and
//! why. The deep rows pin depth ≥ 2 on their own, where two-arm lockstep
//! suites let both arms drift together. `deep_cblru` replaced a row on a
//! 4-channel cache SSD when the channel model was deleted: it is a new
//! row for the one-channel device, its constant recorded on the commit
//! before the deletion, not the old row re-derived.

use engine::{
    CompactionMode, EngineConfig, IndexMutability, IndexPlacement, LiveConfig, OpenLoopConfig,
    Outcome, RunReport, SearchCluster, SearchEngine, ServingSim, Situation,
};
use hybridcache::{HybridConfig, PolicyKind};
use searchidx::{GrowthPolicy, SegmentPolicy};
use simclock::SimDuration;
use storagecore::{BlockDevice, IoKind, IoStats};
use workload::{ArrivalKind, ArrivalProcess, IngestSpec, IngestStream, MutationOp};

const DOCS: u64 = 40_000;
const SEED: u64 = 7;

/// FNV-1a over the little-endian bytes of 64-bit words; floats enter by
/// `to_bits`, never through `Debug`.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn assert_is(&self, golden: u64) {
        assert_eq!(self.0, golden, "the ledger moved: {:#018x}", self.0);
    }

    fn put(&mut self, words: &[u64]) {
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn io(&mut self, s: &IoStats) {
        for k in [IoKind::Read, IoKind::Write, IoKind::Trim] {
            let k = s.kind(k);
            self.put(&[k.ops(), k.sectors(), k.busy().as_nanos()]);
        }
        let q = s.queue();
        self.put(&[
            q.dispatches(),
            q.max_occupancy(),
            q.mean_occupancy().to_bits(),
            q.total_wait().as_nanos(),
            q.max_wait().as_nanos(),
            // Retired bus-ledger words, 0 in every row; kept so no constant moves.
            0,
            0,
            s.latency_quantile(0.5).as_nanos(),
            s.latency_quantile(0.99).as_nanos(),
        ]);
    }

    /// The simulated fields of one [`RunReport`].
    fn report(&mut self, r: &RunReport) {
        self.put(&[
            r.mean_response.as_nanos(),
            r.p99_response.as_nanos(),
            r.postings_scanned,
            r.index_ops,
            r.index_mean_latency.as_nanos(),
        ]);
        for s in Situation::ALL {
            // Welford state, bit for bit: sensitive to record order.
            let t = r.situations.stats(s);
            self.put(&[t.count(), t.mean().to_bits(), t.variance().to_bits()]);
        }
        let f = r.flash.unwrap_or_default();
        self.put(&[
            f.block_erases,
            f.page_reads,
            f.page_programs,
            f.host_writes,
            f.gc_runs,
            f.pages_moved,
            f.write_amplification.to_bits(),
            f.mean_access.as_nanos(),
        ]);
        let c = r.cache.unwrap_or_default();
        for f in [c.results, c.lists] {
            self.put(&[f.mem_hits, f.ssd_hits, f.partial_hits, f.misses]);
            self.put(&[f.ssd_admissions, f.ssd_rejections, f.rewrites_avoided]);
        }
        // Retired intersection-family words, 0 in every row; kept so no
        // constant moves.
        self.put(&[0; 7]);
        self.put(&[
            c.ssd_time.as_nanos(),
            c.ssd_bytes_written,
            c.ssd_bytes_read,
            c.trims,
        ]);
    }

    fn engine(&mut self, e: &SearchEngine) {
        self.report(&e.report());
        let (rs, ls) = e.cache().map(|m| m.store_stats()).unwrap_or_default();
        self.put(&[
            rs.rb_writes,
            rs.entry_writes,
            rs.rewrites_avoided,
            rs.collateral_evictions,
            rs.trims,
            ls.block_writes,
            ls.rewrites_avoided,
            ls.evictions,
            ls.replaceable_victims,
            ls.size_match_victims,
            ls.oversize_rejections,
            ls.trims,
        ]);
        self.io(e.index_io_stats());
        self.io(e.cache().map_or(&IoStats::new(), |m| m.device().stats()));
        let m = e.mutation_stats();
        self.put(&[
            m.docs_added,
            m.docs_deleted,
            m.wal_records,
            m.wal_bytes,
            m.seals,
            m.seal_bytes,
            m.compactions,
            m.merge_bytes_read,
            m.merge_bytes_written,
            m.tombstones_cleared,
            m.growth.appended,
            m.growth.reallocs,
            m.growth.copied,
            e.mutation_io_time().as_nanos(),
            e.result_digest(),
            // Retired intersection hit and install words, 0 in every row.
            0,
            0,
        ]);
    }
}

fn cached(policy: PolicyKind) -> EngineConfig {
    // A small cache fills, and its SSD garbage-collects, within a few
    // hundred queries; it also bounds the cost under `INVARIANT_AUDIT=1`,
    // where every FTL mutation re-validates the whole page map.
    EngineConfig::cached(DOCS, HybridConfig::paper(256 << 10, 2 << 20, policy), SEED)
}

fn hdd() -> EngineConfig {
    EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, SEED)
}

fn with(mut cfg: EngineConfig, edit: impl FnOnce(&mut EngineConfig)) -> EngineConfig {
    edit(&mut cfg);
    cfg
}

/// An eager lifecycle (seal at 16 docs, compact at fan-in 3).
fn live(cfg: EngineConfig, compaction: CompactionMode) -> EngineConfig {
    let segments = SegmentPolicy {
        seal_threshold_docs: 16,
        compact_fanin: 3,
        growth: GrowthPolicy::Contiguous,
    };
    with(cfg, |c| {
        c.mutability = IndexMutability::Live(LiveConfig {
            segments,
            compaction,
        })
    })
}

/// Depth 4, nearest-first dispatch: the deep rows.
fn deep(cfg: EngineConfig) -> EngineConfig {
    with(cfg, |c| c.queue_depth = 4)
}

/// Run `queries` queries one at a time — on a live configuration each
/// preceded by one `IngestSpec::small` op — and check the digest over
/// every response plus the engine's whole statistics surface.
fn check(cfg: EngineConfig, queries: usize, golden: u64) {
    let mut e = SearchEngine::new(cfg);
    e.seed_static_from_log(2_000); // no-op unless the policy has a static share
    let ops = IngestStream::new(IngestSpec::small(4_000, SEED)).generate(queries);
    let mut alive: Vec<u32> = Vec::new();
    let mut d = Digest::new();
    for (q, m) in e.log().clone().stream(queries).iter().zip(&ops) {
        match &m.op {
            _ if !e.is_live() => {}
            MutationOp::AddDoc { terms } => alive.push(e.ingest_document(terms).unwrap()),
            MutationOp::DeleteDoc { pick } if !alive.is_empty() => {
                let doc = alive.swap_remove((*pick % alive.len() as u64) as usize);
                assert!(e.delete_document(doc));
            }
            MutationOp::DeleteDoc { .. } => {}
        }
        d.put(&[e.execute(q).as_nanos()]);
    }
    d.engine(&e);
    let audit = e.validation_report();
    assert!(audit.is_clean(), "{}", audit.summary());
    assert!(!e.is_live() || e.mutation_stats().compactions >= 1);
    d.assert_is(golden);
}

macro_rules! ledger {
    ($($name:ident: $cfg:expr, $queries:expr => $golden:expr;)*) => {$(
        #[test]
        fn $name() {
            check($cfg, $queries, $golden);
        }
    )*};
}

const CBLRU: PolicyKind = PolicyKind::Cblru;
const CBSLRU: PolicyKind = PolicyKind::Cbslru {
    static_fraction: 0.3,
};
const COOPERATIVE: CompactionMode = CompactionMode::Cooperative;

ledger! {
    cblru: cached(CBLRU), 1_000 => 0xa96a_2f18_a803_e950;
    cbslru_seeded: cached(CBSLRU), 1_000 => 0xaf1e_69ac_4335_a59f;
    lru: cached(PolicyKind::Lru), 600 => 0xb262_fe15_beae_bc70;
    cblru_ttl: with(cached(CBLRU), |c| c.cache.as_mut().unwrap().ttl = Some(SimDuration::from_secs(2))), 600 => 0x510a_fc8a_08c5_aa99;
    uncached_ssd: EngineConfig::no_cache(DOCS, IndexPlacement::Ssd, SEED), 600 => 0xafbd_e524_d450_1b6c;
    uncached_hdd: hdd(), 600 => 0x56c3_f9f7_fc26_a356;
    live_cooperative: live(cached(CBLRU), COOPERATIVE), 600 => 0xf899_0d5d_b0b8_bd9e;
    live_invalidate_all: live(cached(CBLRU), CompactionMode::InvalidateAll), 600 => 0xff44_670c_f0ca_a460;
    live_uncached: live(hdd(), COOPERATIVE), 600 => 0x04ed_13c6_a37a_b38e;
    deep_uncached_hdd: deep(hdd()), 600 => 0xe885_a0b4_5264_59c0;
    deep_cblru: deep(cached(CBLRU)), 1_000 => 0xf615_846c_d13f_093c;
    deep_lru: deep(cached(PolicyKind::Lru)), 600 => 0xbeab_cfe8_fd6d_3c78;
    deep_live: deep(live(cached(CBLRU), COOPERATIVE)), 600 => 0x187b_1035_fb11_a1a0;
}

/// The cluster's only witness: with one way to visit the shards there is
/// no second arm to hold it against. Every `execute_batch` response, then
/// a `run_queries` report field by field, every shard's included.
#[test]
fn cluster_3shard_cblru() {
    let mut c = SearchCluster::new(cached(CBLRU), 3);
    let queries = c.stream(600);
    let mut d = Digest::new();
    for response in c.execute_batch(&queries[..400]) {
        d.put(&[response.as_nanos()]);
    }
    let r = c.run_queries(&queries[400..]);
    d.put(&[
        r.queries,
        r.mean_response.as_nanos(),
        r.throughput_qps.to_bits(),
        r.mean_fastest_shard.as_nanos(),
        r.shards.len() as u64,
    ]);
    for shard in &r.shards {
        d.put(&[
            shard.queries,
            shard.elapsed.as_nanos(),
            shard.throughput_qps.to_bits(),
        ]);
        d.report(shard);
    }
    let audit = c.validation_report();
    assert!(audit.is_clean(), "{}", audit.summary());
    d.assert_is(0x2a3c_a788_5b99_9d84);
}

/// The open-loop front-end past saturation with batching and shedding
/// both live: every arrival's record, then every report field. The
/// constant was recorded on 97f6e93 running this row as written.
#[test]
fn open_loop_batched() {
    let cfg = with(cached(CBLRU), |c| c.docs = DOCS / 2);
    let mut closed = SearchCluster::new(cfg.clone(), 2);
    let mean = closed.run(300).mean_response;
    let arrivals = ArrivalProcess::new(
        closed.log().clone(),
        ArrivalKind::Poisson {
            rate_qps: 1.3 / mean.as_secs_f64(),
        },
    )
    .generate(600);
    let oc = OpenLoopConfig::batched(mean * 4, SimDuration::from_micros(200), 8);
    let mut sim = ServingSim::new(cfg, 2, 2, oc);
    let r = sim.run(&arrivals);
    assert!(r.shed > 0 && r.mean_batch > 1.0);

    let mut d = Digest::new();
    for rec in sim.records() {
        d.put(&[
            rec.seq,
            rec.arrived.as_nanos(),
            rec.deadline.map_or(u64::MAX, |t| t.as_nanos()),
            rec.response().map_or(u64::MAX, |t| t.as_nanos()),
        ]);
        match rec.outcome {
            Outcome::Shed => d.put(&[0]),
            Outcome::Answered {
                dispatched,
                completed,
                service,
            } => d.put(&[
                1,
                dispatched.as_nanos(),
                completed.as_nanos(),
                service.as_nanos(),
            ]),
        }
    }
    d.put(&[
        r.arrivals,
        r.answered,
        r.shed,
        r.deadline_misses,
        r.batches,
        r.mean_batch.to_bits(),
        r.offered_qps.to_bits(),
        r.goodput_qps.to_bits(),
        r.mean_response.as_nanos(),
        r.p50_response.as_nanos(),
        r.p99_response.as_nanos(),
        r.p999_response.as_nanos(),
        r.max_response.as_nanos(),
        r.mean_queue_wait.as_nanos(),
        r.makespan.as_nanos(),
    ]);
    let audit = sim.validation_report();
    assert!(audit.is_clean(), "{}", audit.summary());
    d.assert_is(0xddb4_d7fe_01d3_a76d);
}
