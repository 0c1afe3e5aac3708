//! The golden ledger: one committed 64-bit digest per pinned engine
//! configuration, over every per-query response and every simulated
//! statistic the engine reports. A constant must not move unless the
//! change says which figure moved and why. The deep rows pin depth ≥ 2
//! on their own, where two-arm lockstep suites let both arms drift
//! together. Every constant but `open_loop_batched`'s was recorded on
//! 2c2cd54 running this file as written, the commit before the log₂
//! latency histogram was deleted. That commit also passed the earlier
//! digest, which hashed the histogram's quantiles and eleven retired
//! zero words besides these, so no word still hashed moved with it.

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
        ]);
    }

    /// The simulated fields of one [`RunReport`].
    fn report(&mut self, r: &RunReport) {
        self.put(&[
            r.mean_response.as_nanos(),
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
    cblru: cached(CBLRU), 1_000 => 0xadd6_8363_54d9_2d36;
    cbslru_seeded: cached(CBSLRU), 1_000 => 0x9fe6_ea16_7b66_f52d;
    lru: cached(PolicyKind::Lru), 600 => 0x545a_a943_dbba_b60b;
    cblru_ttl: with(cached(CBLRU), |c| c.cache.as_mut().unwrap().ttl = Some(SimDuration::from_secs(2))), 600 => 0x3764_ffcb_af94_f393;
    uncached_ssd: EngineConfig::no_cache(DOCS, IndexPlacement::Ssd, SEED), 600 => 0x53c7_820b_4964_5b2e;
    uncached_hdd: hdd(), 600 => 0x1fbd_cd23_b971_7e18;
    live_cooperative: live(cached(CBLRU), COOPERATIVE), 600 => 0xfeeb_7044_126a_02c7;
    live_invalidate_all: live(cached(CBLRU), CompactionMode::InvalidateAll), 600 => 0xf78d_4727_fd00_ab59;
    live_uncached: live(hdd(), COOPERATIVE), 600 => 0xbe46_2800_c8ef_aaa1;
    deep_uncached_hdd: deep(hdd()), 600 => 0xa46e_0125_ffbd_feba;
    deep_cblru: deep(cached(CBLRU)), 1_000 => 0x8c2c_cb71_4def_b5d6;
    deep_lru: deep(cached(PolicyKind::Lru)), 600 => 0x50a3_a3fb_6acc_191f;
    deep_live: deep(live(cached(CBLRU), COOPERATIVE)), 600 => 0x2877_0ff9_af74_193f;
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
    d.assert_is(0x1eb3_5477_5034_3662);
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
