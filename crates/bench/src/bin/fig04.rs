//! Fig. 4 — efficiency values (EV = Freq/SC) of ranked terms and the TEV
//! threshold bands: the most efficient lists belong in memory, the next
//! band on SSD, and everything under TEV stays on HDD.

use std::collections::BTreeMap;

use bench::{print_table, Scale};
use hybridcache::{efficiency_value, sc_blocks};
use searchidx::{CorpusSpec, IndexReader, SyntheticIndex, TopKConfig, TopKProcessor};
use workload::{QueryLog, QueryLogSpec};

fn main() {
    let scale = Scale::from_args();
    let index = SyntheticIndex::new(CorpusSpec::enwiki_like(scale.docs_5m(), 11));
    let log = QueryLog::new(QueryLogSpec::aol_like(index.num_terms(), 23));
    let processor = TopKProcessor::new(TopKConfig::default());

    let sample = (2_000.0 * (scale.0 * 10.0)) as usize;
    let mut stats: BTreeMap<u32, (u64, u64, f64)> = BTreeMap::new(); // freq, si, pu_sum
    for q in log.stream_iter(sample) {
        let outcome = processor.process(&index, &q.terms);
        for u in &outcome.usage {
            if u.scanned == 0 {
                continue;
            }
            let e = stats.entry(u.term).or_insert((0, 0, 0.0));
            e.0 += 1;
            e.1 = e.1.max(u.bytes_scanned());
            e.2 += u.utilization();
        }
    }

    let mut evs: Vec<f64> = stats
        .values()
        .map(|&(freq, si, pu_sum)| {
            let pu = (pu_sum / freq as f64).min(1.0);
            efficiency_value(freq, sc_blocks(si, pu))
        })
        .collect();
    evs.sort_by(|a, b| b.partial_cmp(a).expect("EVs are finite"));

    // Tier boundaries: top 10% memory, next 40% SSD, rest HDD; TEV is the
    // EV at the SSD/HDD boundary.
    let n = evs.len();
    let mem_cut = n / 10;
    let ssd_cut = n / 2;
    let tev = evs.get(ssd_cut).copied().unwrap_or(0.0);

    let step = (n / 40).max(1);
    let rows: Vec<Vec<String>> = evs
        .iter()
        .step_by(step)
        .enumerate()
        .map(|(i, ev)| {
            let rank = i * step;
            let tier = if rank < mem_cut {
                "memory"
            } else if rank < ssd_cut {
                "SSD"
            } else {
                "HDD"
            };
            vec![rank.to_string(), format!("{ev:.3}"), tier.to_string()]
        })
        .collect();
    print_table(
        "Fig 4 efficiency value vs ranked terms, with placement bands",
        &["term_rank", "EV", "tier"],
        &rows,
    );
    println!("TEV (SSD admission threshold) = {tev:.3}");
    println!(
        "shape check: EV decays steeply with rank — a small head earns\n\
         memory, a middle band earns SSD, the long tail stays on HDD."
    );
    assert!(evs.first().copied().unwrap_or(0.0) > tev);
}
