//! Extension — concurrent-ingest sweep (DESIGN.md §15, the simulated
//! record is `BENCH_8.json`): the live-index write path priced against the
//! hybrid cache. A frozen engine and a zero-ingest `Live` one come first
//! (bit-identical — `mutation_equivalence` proves it per query). Then,
//! across ingest mixes of 5, 25 and 100 mutation ops per 100 queries under
//! an eager seal/compact lifecycle, `Cooperative` compaction
//! reconciliation runs against naive `InvalidateAll`: the two serve the
//! same results (equal digests — `mutation_equivalence` again) and differ
//! in what the cache keeps.

use bench::{cache_config, print_table};
use engine::{CompactionMode, EngineConfig, IndexMutability, LiveConfig, SearchEngine};
use hybridcache::PolicyKind;
use searchidx::{GrowthPolicy, SegmentPolicy};
use workload::{IngestSpec, IngestStream, MutationOp};

// The pinned mutation workload: the hybrid cache config the
// mutation-equivalence suite pins, an eager segment lifecycle so a few
// thousand ops drive many seals and compactions, swept over ingest mixes
// expressed as mutation ops per 100 queries.
const SEED: u64 = 42;
const DOCS: u64 = 40_000;
const QUERIES: usize = 4_000;
const MEM_BYTES: u64 = 1 << 20;
const SSD_BYTES: u64 = 8 << 20;
const VOCAB: u64 = 4_000;
const MIXES: [u64; 3] = [5, 25, 100];
/// The mixes the efficiency claim is checked on: the churn-heavy ones
/// where compaction is frequent enough for coherence handling to matter
/// (mix 5 drives only a handful of compactions, so its delta is within
/// cache-perturbation noise; it is reported but not gated).
const CLAIM_MIXES: [u64; 2] = [25, 100];

fn live(compaction: CompactionMode) -> IndexMutability {
    IndexMutability::Live(LiveConfig {
        segments: SegmentPolicy {
            seal_threshold_docs: 16,
            compact_fanin: 3,
            growth: GrowthPolicy::Contiguous,
        },
        compaction,
    })
}

/// Run one engine over the shared query stream, interleaving the seeded
/// mutation stream at `mix` ops per 100 queries. The schedule is a pure
/// function of the query index and both coherence modes accept every
/// add, so two arms at the same mix replay identical histories. Returns
/// the row and the SSD-level list hit ratio (full + partial prefix hits
/// over lookups) — the figure compaction coherence moves.
fn run_arm(label: &str, mutability: IndexMutability, mix: u64) -> (Vec<String>, f64) {
    let mut cfg = EngineConfig::cached(
        DOCS,
        cache_config(MEM_BYTES, SSD_BYTES, PolicyKind::Cblru),
        SEED,
    );
    cfg.mutability = mutability;
    let mut e = SearchEngine::new(cfg);
    let queries = e.log().stream(QUERIES);
    let ops = IngestStream::new(IngestSpec::small(VOCAB, SEED))
        .generate((QUERIES as u64 * mix / 100) as usize);
    let mut next = ops.iter();
    let mut alive: Vec<u32> = Vec::new();
    let mut applied = 0u64;
    let sim_start = e.now();
    for (i, q) in queries.iter().enumerate() {
        let target = i as u64 * mix / 100;
        while applied < target {
            let Some(m) = next.next() else { break };
            match &m.op {
                MutationOp::AddDoc { terms } => {
                    alive.push(e.ingest_document(terms).expect("mutating arm is live"));
                }
                MutationOp::DeleteDoc { pick } => {
                    if !alive.is_empty() {
                        let idx = (*pick % alive.len() as u64) as usize;
                        e.delete_document(alive.swap_remove(idx));
                    }
                }
            }
            applied += 1;
        }
        e.execute(q);
    }
    let r = e.report();
    let cache = r.cache.as_ref().expect("cached config");
    let lists = cache.lists;
    let ssd_list_hit = (lists.ssd_hits + lists.partial_hits) as f64 / lists.lookups() as f64;
    let elapsed = (e.now() - sim_start).as_secs_f64();
    let s = e.mutation_stats();
    let row = vec![
        label.to_string(),
        mix.to_string(),
        applied.to_string(),
        format!("{:.3}", applied as f64 / elapsed),
        r.mean_response.as_nanos().to_string(),
        format!("{:.17}", r.hit_ratio()),
        format!("{ssd_list_hit:.17}"),
        cache.ssd_bytes_written.to_string(),
        r.flash.map_or(0, |f| f.block_erases).to_string(),
        format!("{:.6}", r.flash.map_or(0.0, |f| f.write_amplification)),
        s.seals.to_string(),
        s.compactions.to_string(),
        s.wal_bytes.to_string(),
        s.merge_bytes_written.to_string(),
        s.tombstones_cleared.to_string(),
        e.mutation_io_time().as_nanos().to_string(),
        r.postings_scanned.to_string(),
        format!("{:#018x}", e.result_digest()),
    ];
    (row, ssd_list_hit)
}

fn main() {
    let mut rows = vec![
        run_arm("frozen", IndexMutability::Frozen, 0).0,
        run_arm("zero_ingest_live", live(CompactionMode::Cooperative), 0).0,
    ];
    let mut coop_never_worse = true;
    let mut coop_better_somewhere = false;
    for mix in MIXES {
        let (coop_row, coop) = run_arm("cooperative", live(CompactionMode::Cooperative), mix);
        let (naive_row, naive) =
            run_arm("invalidate_all", live(CompactionMode::InvalidateAll), mix);
        if CLAIM_MIXES.contains(&mix) {
            coop_never_worse &= coop >= naive;
            coop_better_somewhere |= coop > naive;
        }
        rows.push(coop_row);
        rows.push(naive_row);
    }
    print_table(
        "Extension: concurrent ingest (40k docs, 4000 queries, CBLRU 1 MiB + 8 MiB, seal 16 / fan-in 3)",
        &[
            "arm",
            "ops_per_100_queries",
            "ops_applied",
            "ingest_ops_per_sim_sec",
            "mean_response_ns",
            "hit_ratio",
            "list_ssd_hit_ratio",
            "ssd_bytes_written",
            "block_erases",
            "write_amplification",
            "seals",
            "compactions",
            "wal_bytes",
            "merge_bytes_written",
            "tombstones_cleared",
            "mutation_io_ns",
            "postings_scanned",
            "result_digest",
        ],
        &rows,
    );
    // The claim no equivalence suite pins: on the churn-heavy mixes
    // cooperative reconciliation never has the worse SSD list hit ratio
    // and is strictly better on at least one.
    assert!(
        coop_never_worse && coop_better_somewhere,
        "cooperative compaction lost its SSD list hit-ratio claim"
    );
    println!(
        "reading: the naive arm's SSD bytes collapse to nothing at high churn —\n\
         it keeps invalidating the list cache before the write buffer can\n\
         flush, so the SSD tier never warms and misses fall through to the\n\
         HDD; cooperative reconciliation (targeted invalidation + readmission\n\
         under the merge output's key) keeps the tier warm at the price of the\n\
         writes that warming costs."
    );
}
