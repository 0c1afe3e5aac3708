//! Document-partitioned cluster simulation.
//!
//! The paper's introduction motivates the whole problem with scale:
//! "large search engines need to process hundreds of queries per second
//! on collections of millions of documents", served by many index
//! servers. [`SearchCluster`] simulates that deployment shape: the
//! collection is document-partitioned over `n` shards, each shard is a
//! complete [`SearchEngine`] (own caches, own SSD, own index disk), every
//! query is broadcast to all shards, and the per-query response is the
//! **slowest shard** plus a merge step — the classic scatter-gather
//! latency model. Caching wins on a shard therefore only help the query
//! when *every* shard wins, which is exactly why result/list caching
//! matters more, not less, at cluster scale (tail latency).
//!
//! Shards share no mutable state and are visited in turn on the calling
//! thread; host threads exist only around whole simulations
//! (`workload::parallel_map`).

use simclock::{RunningStats, SimDuration};
use workload::{Query, QueryLog, QueryLogSpec};

use crate::config::EngineConfig;
use crate::engine::SearchEngine;
use crate::report::RunReport;

/// Cluster-level measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Queries executed.
    pub queries: u64,
    /// Mean scatter-gather response time (max over shards + merge).
    pub mean_response: SimDuration,
    /// Cluster throughput in queries per second of virtual time.
    pub throughput_qps: f64,
    /// Mean of the *fastest* shard per query — the gap to `mean_response`
    /// is the tail-latency cost of fan-out.
    pub mean_fastest_shard: SimDuration,
    /// Per-shard run reports.
    pub shards: Vec<RunReport>,
}

impl ClusterReport {
    /// Mean hit ratio across shards.
    pub fn mean_hit_ratio(&self) -> f64 {
        if self.shards.is_empty() {
            return 0.0;
        }
        self.shards.iter().map(RunReport::hit_ratio).sum::<f64>() / self.shards.len() as f64
    }
}

/// A document-partitioned search cluster.
#[derive(Debug)]
pub struct SearchCluster {
    shards: Vec<SearchEngine>,
    log: QueryLog,
    merge_cost_per_shard: SimDuration,
    response: RunningStats,
    fastest: RunningStats,
    clock: SimDuration,
    queries_run: u64,
}

impl SearchCluster {
    /// Build `n` shards, each holding `config.docs / n` documents with a
    /// shard-specific seed. The query log is shared (vocabulary of the
    /// shard corpus), modelling a front-end broadcasting to its index
    /// servers.
    pub fn new(config: EngineConfig, n: usize) -> Self {
        assert!(n >= 1, "a cluster needs at least one shard");
        let per_shard = (config.docs / n as u64).max(1_000);
        let shards: Vec<SearchEngine> = (0..n)
            .map(|i| {
                let mut c = config.clone();
                c.docs = per_shard;
                c.seed = config.seed.wrapping_add(i as u64 * 0x9E37);
                SearchEngine::new(c)
            })
            .collect();
        // Share one log across shards: use the smallest vocabulary so
        // every term resolves everywhere.
        let vocab = shards
            .iter()
            .map(|s| searchidx::IndexReader::num_terms(s.index()))
            .min()
            .expect("at least one shard");
        let log = QueryLog::new(QueryLogSpec::aol_like(vocab, config.seed ^ 0xC1A5));
        SearchCluster {
            shards,
            log,
            merge_cost_per_shard: SimDuration::from_micros(200),
            response: RunningStats::new(),
            fastest: RunningStats::new(),
            clock: SimDuration::ZERO,
            queries_run: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Draw the next `n` queries from the shared log (the stream the
    /// front-end would broadcast). Public so harnesses can drive two
    /// clusters through one identical stream.
    pub fn stream(&mut self, n: usize) -> Vec<Query> {
        self.log.stream(n)
    }

    /// The shared query log. Arrival-process generators clone this so
    /// the open-loop front-end draws from the exact universe the shards
    /// were built for (every term resolves on every shard).
    pub fn log(&self) -> &QueryLog {
        &self.log
    }

    /// Broadcast one query; returns the scatter-gather response time.
    pub fn execute(&mut self, query: &Query) -> SimDuration {
        let mut slowest = SimDuration::ZERO;
        let mut fastest = SimDuration::from_nanos(u64::MAX);
        for shard in &mut self.shards {
            let t = shard.execute(query);
            slowest = slowest.max(t);
            fastest = fastest.min(t);
        }
        let response = slowest + self.merge_cost_per_shard * self.shards.len() as u64;
        self.response.push_duration(response);
        self.fastest.push_duration(fastest);
        self.clock += response;
        self.queries_run += 1;
        response
    }

    /// Broadcast a batch and return every query's scatter-gather
    /// response, in query order. The serving front-end's batching layer
    /// dispatches through this, which is what makes its reference
    /// configuration (batch size 1, arrival order) collapse exactly onto
    /// the closed-loop path.
    pub fn execute_batch(&mut self, queries: &[Query]) -> Vec<SimDuration> {
        queries.iter().map(|q| self.execute(q)).collect()
    }

    /// Execute an explicit query stream and report.
    pub fn run_queries(&mut self, queries: &[Query]) -> ClusterReport {
        let before = self.queries_run;
        let t0 = self.clock;
        self.execute_batch(queries);
        let elapsed = self.clock - t0;
        let ran = self.queries_run - before;
        ClusterReport {
            queries: ran,
            mean_response: self.response.mean_duration(),
            throughput_qps: if elapsed == SimDuration::ZERO {
                0.0
            } else {
                ran as f64 / elapsed.as_secs_f64()
            },
            mean_fastest_shard: self.fastest.mean_duration(),
            shards: self.shard_reports(),
        }
    }

    /// Runs the structural invariant validators over every shard and
    /// merges the findings into one report.
    pub fn validation_report(&self) -> invariant::Report {
        let mut merged = invariant::Report::new();
        for shard in &self.shards {
            merged.absorb(shard.validation_report());
        }
        merged
    }

    /// Run `n` queries from the shared log.
    pub fn run(&mut self, n: usize) -> ClusterReport {
        let queries = self.stream(n);
        self.run_queries(&queries)
    }

    /// Snapshot every shard's cumulative report, in shard order.
    fn shard_reports(&self) -> Vec<RunReport> {
        self.shards.iter().map(SearchEngine::report).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexPlacement;
    use hybridcache::{HybridConfig, PolicyKind};

    const DOCS: u64 = 40_000;

    #[test]
    fn cluster_runs_and_reports() {
        let mut c = SearchCluster::new(EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, 5), 4);
        assert_eq!(c.shards(), 4);
        let r = c.run(100);
        assert_eq!(r.queries, 100);
        assert!(r.throughput_qps > 0.0);
        assert_eq!(r.shards.len(), 4);
    }

    #[test]
    fn fanout_response_is_max_plus_merge() {
        // The cluster response must never be faster than its fastest
        // shard, and the fan-out gap must be visible.
        let mut c = SearchCluster::new(EngineConfig::no_cache(DOCS, IndexPlacement::Hdd, 7), 4);
        let r = c.run(200);
        assert!(r.mean_response > r.mean_fastest_shard);
    }

    #[test]
    fn sharding_cuts_per_query_latency() {
        // Smaller shards scan less per query: a 4-shard cluster answers
        // faster than a single engine on the whole collection (at the
        // price of 4x hardware). The effect needs a collection big enough
        // that per-query work actually scales with the shard size (above
        // the accumulator-budget floor).
        let big = 400_000;
        let single = {
            let mut c = SearchCluster::new(EngineConfig::no_cache(big, IndexPlacement::Hdd, 9), 1);
            c.run(80).mean_response
        };
        let sharded = {
            let mut c = SearchCluster::new(EngineConfig::no_cache(big, IndexPlacement::Hdd, 9), 4);
            c.run(80).mean_response
        };
        assert!(
            sharded < single,
            "4 shards {sharded} must beat 1 shard {single}"
        );
    }

    #[test]
    fn cached_cluster_hits_on_every_shard() {
        let cache = HybridConfig::paper(1 << 20, 8 << 20, PolicyKind::Cblru);
        let mut c = SearchCluster::new(EngineConfig::cached(DOCS, cache, 11), 3);
        let r = c.run(600);
        assert!(r.mean_hit_ratio() > 0.15, "hit {}", r.mean_hit_ratio());
        for shard in &r.shards {
            assert!(shard.cache.is_some());
        }
    }
}
