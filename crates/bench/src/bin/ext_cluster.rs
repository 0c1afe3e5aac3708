//! Extension — cluster scale-out: the paper's Sec.-I deployment shape
//! (document-partitioned index servers, scatter-gather queries), swept
//! over shard counts with and without the hybrid cache. `parallel_map`
//! fans the (shards, cached) points out; each cluster visits its shards
//! in turn.

use bench::{cache_config, print_table, Scale};
use engine::{EngineConfig, IndexPlacement, SearchCluster};
use hybridcache::PolicyKind;
use workload::parallel_map;

fn main() {
    let scale = Scale::from_args();
    let docs = scale.docs_5m();
    let queries = (scale.queries() / 4).max(500);
    let mem = scale.bytes(20 << 20);
    let ssd = scale.bytes(200 << 20);

    let points: Vec<(usize, bool)> = [1usize, 2, 4, 8]
        .into_iter()
        .flat_map(|n| [(n, false), (n, true)])
        .collect();
    let results = parallel_map(points, 0, |(shards, cached)| {
        let cfg = if cached {
            EngineConfig::cached(docs, cache_config(mem, ssd, PolicyKind::Cblru), 73)
        } else {
            EngineConfig::no_cache(docs, IndexPlacement::Hdd, 73)
        };
        let r = SearchCluster::new(cfg, shards).run(queries);
        (shards, cached, r)
    });

    let rows: Vec<Vec<String>> = [1usize, 2, 4, 8]
        .iter()
        .map(|&n| {
            let find = |cached: bool| {
                results
                    .iter()
                    .find(|(s, c, _)| *s == n && *c == cached)
                    .map(|(_, _, r)| r)
                    .expect("swept")
            };
            let plain = find(false);
            let cached = find(true);
            vec![
                n.to_string(),
                format!("{:.2}", plain.mean_response.as_millis_f64()),
                format!("{:.2}", cached.mean_response.as_millis_f64()),
                format!("{:.1}", plain.throughput_qps),
                format!("{:.1}", cached.throughput_qps),
                format!("{:.1}", cached.mean_hit_ratio() * 100.0),
            ]
        })
        .collect();
    print_table(
        "Extension: cluster scale-out (scatter-gather, per-shard 2LC cache)",
        &[
            "shards",
            "plain_ms",
            "cached_ms",
            "plain_qps",
            "cached_qps",
            "hit_%",
        ],
        &rows,
    );
    println!(
        "reading: sharding divides per-query work but the response is the\n\
         slowest shard — the hybrid cache compounds with scale-out because\n\
         it tames exactly that tail."
    );
}
