//! Quickstart: build a simulated search engine with the SSD-based hybrid
//! cache and watch the two-level hierarchy work.
//!
//! ```text
//! cargo run --release -p examples --bin quickstart -- --docs 200000 --queries 5000
//! ```

use engine::{EngineConfig, SearchEngine};
use examples::arg_u64;
use hybridcache::{HybridConfig, PolicyKind};

fn main() {
    let docs = arg_u64("--docs", 200_000);
    let queries = arg_u64("--queries", 5_000) as usize;

    // A 4 MB memory cache backed by a 64 MB SSD cache, managed by the
    // paper's CBLRU policy with the 20/80 result/list split.
    let cache = HybridConfig::paper(4 << 20, 64 << 20, PolicyKind::Cblru);
    let mut engine = SearchEngine::new(EngineConfig::cached(docs, cache, 42));

    println!("indexing {docs} synthetic documents ... done (lazy index)");
    println!("running {queries} queries from an AOL-like Zipf log\n");

    let report = engine.run(queries);

    println!("== run summary =====================================");
    println!("{}", report.summary());
    println!();
    println!("mean response time : {}", report.mean_response);
    println!(
        "throughput         : {:.1} queries/s",
        report.throughput_qps
    );
    println!("postings scored    : {}", report.postings_scanned);

    let stats = report.cache.as_ref().expect("cache configured");
    println!();
    println!("== cache behaviour =================================");
    println!(
        "result cache : {:.1}% hits ({} mem / {} ssd / {} miss)",
        stats.results.hit_ratio() * 100.0,
        stats.results.mem_hits,
        stats.results.ssd_hits,
        stats.results.misses
    );
    println!(
        "list cache   : {:.1}% hits ({} mem / {} ssd / {} partial / {} miss)",
        stats.lists.hit_ratio() * 100.0,
        stats.lists.mem_hits,
        stats.lists.ssd_hits,
        stats.lists.partial_hits,
        stats.lists.misses
    );
    println!(
        "ssd traffic  : {} written, {} read, {} rewrites avoided",
        stats.ssd_bytes_written,
        stats.ssd_bytes_read,
        stats.results.rewrites_avoided + stats.lists.rewrites_avoided
    );

    let flash = report.flash.expect("cache SSD present");
    println!();
    println!("== inside the SSD ==================================");
    println!("block erases        : {}", flash.block_erases);
    println!("write amplification : {:.2}", flash.write_amplification);
    println!("mean access time    : {}", flash.mean_access);

    println!();
    println!("== measured Table I ================================");
    print!("{}", report.situations.render());
}
