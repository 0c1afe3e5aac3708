//! The cluster's two execution arms must be indistinguishable in every
//! simulated figure: the `Parallel` worker pool may only move
//! wall-clock, never a number a paper figure plots. These tests drive
//! both arms through identical query streams and compare the full
//! [`ClusterReport`] (per-query statistics, virtual clock, per-shard
//! cache/flash counters, situation tables) bit-for-bit, at every worker
//! count, plus determinism across repeated runs and the scatter-gather
//! dominance property.

use engine::{ClusterExecution, ClusterReport, EngineConfig, IndexPlacement, SearchCluster};
use hybridcache::{HybridConfig, PolicyKind};
use proptest::prelude::*;

const DOCS: u64 = 40_000;
const QUERIES: usize = 300;

fn cached_cfg(seed: u64) -> EngineConfig {
    EngineConfig::cached(
        DOCS,
        HybridConfig::paper(1 << 20, 8 << 20, PolicyKind::Cblru),
        seed,
    )
}

fn run_arm(
    cfg: EngineConfig,
    shards: usize,
    exec: ClusterExecution,
    queries: usize,
) -> ClusterReport {
    let mut c = SearchCluster::new(cfg, shards);
    c.set_execution(exec);
    c.run(queries)
}

#[test]
fn parallel_matches_sequential_at_every_worker_count() {
    // Audit every cache/queue/FTL mutation during the runs (debug builds).
    invariant::force_enable();
    let seq = run_arm(cached_cfg(3), 4, ClusterExecution::Sequential, QUERIES);
    // 1 worker (pure dispatch overhead), an uneven split, one per shard
    // explicitly, and one per shard via the 0 default.
    for workers in [1usize, 2, 4, 0] {
        let par = run_arm(
            cached_cfg(3),
            4,
            ClusterExecution::Parallel { workers },
            QUERIES,
        );
        assert_eq!(seq, par, "parallel arm diverged at workers={workers}");
    }
}

#[test]
fn uncached_arms_match_too() {
    // No cache manager in the loop: the equivalence must hold for the
    // bare index/device path as well (3 shards so the worker split is
    // uneven at 2 workers).
    let cfg = || EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, 17);
    let seq = run_arm(cfg(), 3, ClusterExecution::Sequential, QUERIES);
    for workers in [2usize, 3] {
        let par = run_arm(cfg(), 3, ClusterExecution::Parallel { workers }, QUERIES);
        assert_eq!(
            seq, par,
            "uncached parallel arm diverged at workers={workers}"
        );
    }
}

#[test]
fn repeated_parallel_runs_are_deterministic() {
    let exec = ClusterExecution::Parallel { workers: 2 };
    let a = run_arm(cached_cfg(5), 2, exec, QUERIES);
    let b = run_arm(cached_cfg(5), 2, exec, QUERIES);
    assert_eq!(a, b, "same configuration, same stream, same report");
}

#[test]
fn both_arms_stay_structurally_coherent() {
    // End-of-run invariant audit on each arm: sequential validates on the
    // calling thread, parallel ships a Validate job to the worker threads
    // that own the engines.
    invariant::force_enable();
    let mut seq = SearchCluster::new(cached_cfg(21), 3);
    seq.run(QUERIES);
    let rs = seq.validation_report();
    assert!(rs.is_clean(), "sequential arm: {}", rs.summary());

    let mut par = SearchCluster::new(cached_cfg(21), 3);
    par.set_execution(ClusterExecution::Parallel { workers: 2 });
    par.run(QUERIES);
    let rp = par.validation_report();
    assert!(rp.is_clean(), "parallel arm: {}", rp.summary());
}

#[test]
fn per_query_responses_match_across_arms() {
    // Lockstep single-query execution: every individual response time
    // must agree, not just the aggregate report.
    let mut seq = SearchCluster::new(cached_cfg(7), 3);
    let mut par = SearchCluster::new(cached_cfg(7), 3);
    par.set_execution(ClusterExecution::Parallel { workers: 3 });
    let stream = seq.stream(120);
    for (i, q) in stream.iter().enumerate() {
        let ts = seq.execute(q);
        let tp = par.execute(q);
        assert_eq!(ts, tp, "response diverged at query {i}");
    }
    assert_eq!(seq.run_queries(&[]), par.run_queries(&[]));
}

#[test]
fn mid_run_toggle_changes_nothing() {
    // First half sequential, second half parallel — the virtual-time
    // trajectory must equal an all-sequential run, because engines
    // migrate into the pool with their cumulative state intact.
    let mut toggled = SearchCluster::new(cached_cfg(9), 3);
    toggled.run(QUERIES / 2);
    toggled.set_execution(ClusterExecution::Parallel { workers: 3 });
    let toggled_report = toggled.run(QUERIES / 2);

    let mut straight = SearchCluster::new(cached_cfg(9), 3);
    straight.run(QUERIES / 2);
    let straight_report = straight.run(QUERIES / 2);
    assert_eq!(toggled_report, straight_report);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scatter-gather dominance: the cluster's mean response (max over
    /// shards + merge cost) can never undercut any single shard's mean
    /// response, whatever the shard count, seed or arm.
    #[test]
    fn cluster_mean_response_dominates_every_shard(
        seed in 0u64..1_000,
        shards in 1usize..=4,
        parallel: bool,
    ) {
        let mut c = SearchCluster::new(cached_cfg(seed), shards);
        if parallel {
            c.set_execution(ClusterExecution::Parallel { workers: 0 });
        }
        let r = c.run(120);
        for (i, shard) in r.shards.iter().enumerate() {
            prop_assert!(
                r.mean_response >= shard.mean_response,
                "cluster mean {} undercuts shard {i} mean {}",
                r.mean_response,
                shard.mean_response
            );
        }
    }
}
