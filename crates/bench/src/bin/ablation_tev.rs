//! Ablation — the TEV admission threshold.
//!
//! TEV = 0 admits every evicted list to the SSD; raising it trades SSD
//! write traffic (and erases) against L2 hit ratio.

use bench::{cache_config, pct, print_table, run_cached, Scale};
use hybridcache::PolicyKind;
use workload::parallel_map;

fn main() {
    let scale = Scale::from_args();
    let docs = scale.docs_5m();
    let queries = scale.queries();
    let mem = scale.bytes(20 << 20);
    let ssd = scale.bytes(200 << 20);

    let tevs = vec![0.0f64, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0];
    let results = parallel_map(tevs, 0, |tev| {
        let mut cfg = cache_config(mem, ssd, PolicyKind::Cblru);
        cfg.tev = tev;
        let r = run_cached(docs, cfg, queries, 41);
        let flash = r.flash.expect("cache SSD present");
        let cache = r.cache.as_ref().expect("cached run");
        vec![
            format!("{tev:.2}"),
            pct(r.hit_ratio()),
            cache.lists.ssd_admissions.to_string(),
            cache.lists.ssd_rejections.to_string(),
            flash.host_writes.to_string(),
            flash.block_erases.to_string(),
        ]
    });
    print_table(
        "Ablation: TEV admission threshold (CBLRU)",
        &[
            "TEV",
            "hit_%",
            "admitted",
            "rejected",
            "ssd_writes",
            "erases",
        ],
        &results,
    );
    println!(
        "reading: a moderate TEV sheds the low-value tail (most rejected\n\
         lists would never be re-hit): erases fall to zero and the hit\n\
         ratio rises; an aggressive TEV (4 and up) starves the L2 and the\n\
         hit ratio falls below admitting everything."
    );
}
