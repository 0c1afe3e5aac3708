//! Criterion micro-benchmarks of top-K query processing over the
//! synthetic index, with and without early termination, and over a live
//! index's merged view.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use searchidx::{
    CorpusSpec, IndexReader, LiveIndex, SegmentPolicy, SyntheticIndex, TopKConfig, TopKProcessor,
};
use simclock::{Rng, SimTime};
use workload::{QueryLog, QueryLogSpec};

fn bench_topk(c: &mut Criterion) {
    let index = SyntheticIndex::new(CorpusSpec::enwiki_like(100_000, 5));
    let log = QueryLog::new(QueryLogSpec::aol_like(index.num_terms(), 9));
    let mut g = c.benchmark_group("topk");
    g.sample_size(30);

    g.bench_function("log_query_early_term", |b| {
        let proc = TopKProcessor::new(TopKConfig::default());
        let mut rng = Rng::new(1);
        b.iter(|| {
            let q = log.sample(&mut rng);
            black_box(proc.process(&index, &q.terms).postings_scanned())
        });
    });

    // The same query stream with every term a first visit: a fresh
    // processor per iteration has pinned nothing, so each list is
    // scanned off blocks regenerated one at a time into its scratch
    // buffer — the path a once-queried tail term takes. Building the
    // processor and drawing the query are setup and not timed; the
    // accumulator's growth from its initial size and the drop are.
    g.bench_function("first_visit_log_query", |b| {
        let mut rng = Rng::new(1);
        b.iter_batched(
            || {
                (
                    TopKProcessor::new(TopKConfig::default()),
                    log.sample(&mut rng),
                )
            },
            |(proc, q)| proc.process(&index, &q.terms).postings_scanned(),
            BatchSize::SmallInput,
        );
    });

    // The same stream over a live index after a scripted history: 1 500
    // documents ingested with log-drawn terms at tf 1 to 4 (so queries
    // meet delta postings), 500 deletes of base and ingested docs, seals
    // and compactions at the default policy. A fresh processor per
    // iteration, so every list is read through the merged view.
    let mut live = LiveIndex::new(index.clone(), SegmentPolicy::default());
    let mut rng = Rng::new(3);
    for op in 0..2_000u32 {
        if op % 4 == 3 {
            let doc = rng.next_below(live.num_docs()) as u32;
            live.delete_document(SimTime::ZERO, doc);
        } else {
            let terms = log.sample(&mut rng).terms;
            let mut doc: Vec<(u32, u32)> = terms
                .iter()
                .map(|&t| (t, 1 + rng.next_below(4) as u32))
                .collect();
            doc.sort_unstable();
            doc.dedup_by_key(|p| p.0);
            live.add_document(SimTime::ZERO, &doc);
        }
        if live.seal_due() {
            live.seal(SimTime::ZERO);
        }
        if live.compaction_due() {
            live.compact(SimTime::ZERO);
        }
    }
    g.bench_function("live_view_log_query", |b| {
        let mut rng = Rng::new(1);
        b.iter_batched(
            || {
                (
                    TopKProcessor::new(TopKConfig::default()),
                    log.sample(&mut rng),
                )
            },
            |(proc, q)| proc.process(&live, &q.terms).postings_scanned(),
            BatchSize::SmallInput,
        );
    });

    g.bench_function("head_term_query", |b| {
        let proc = TopKProcessor::new(TopKConfig::default());
        b.iter(|| black_box(proc.process(&index, &[0, 1]).postings_scanned()));
    });

    g.bench_function("rare_terms_exact", |b| {
        let proc = TopKProcessor::new(TopKConfig {
            epsilon: 0.0,
            ..TopKConfig::default()
        });
        b.iter(|| black_box(proc.process(&index, &[5_000, 7_000]).postings_scanned()));
    });

    // The pooled open-addressed accumulator against the original
    // `HashMap` path — identical results (see
    // `scratch_accumulator_matches_hashmap_reference`), different
    // allocation behavior. Same RNG seed so both see the same stream.
    g.bench_function("log_query_pooled_scratch", |b| {
        let proc = TopKProcessor::new(TopKConfig::default());
        let mut rng = Rng::new(11);
        b.iter(|| {
            let q = log.sample(&mut rng);
            black_box(proc.process(&index, &q.terms).postings_scanned())
        });
    });
    g.bench_function("log_query_hashmap_reference", |b| {
        let proc = TopKProcessor::new(TopKConfig::default());
        let mut rng = Rng::new(11);
        b.iter(|| {
            let q = log.sample(&mut rng);
            black_box(proc.process_reference(&index, &q.terms).postings_scanned())
        });
    });

    // Deep accumulator: one exact-mode list of >= 4 000 docs, so every
    // posting is a new accumulator entry and the threshold is refreshed
    // dozens of times over a set that keeps growing. The reference pays
    // a whole-accumulator selection at each refresh; `process` reads its
    // heap root.
    let deep_term = (0..index.num_terms() as u32)
        .find(|&t| (4_000..8_000).contains(&index.doc_freq(t)))
        .expect("a term with 4k-8k postings");
    let exact = TopKConfig {
        epsilon: 0.0,
        ..TopKConfig::default()
    };
    g.bench_function("deep_accumulator_exact", |b| {
        let proc = TopKProcessor::new(exact);
        b.iter(|| black_box(proc.process(&index, &[deep_term]).postings_scanned()));
    });
    g.bench_function("deep_accumulator_exact_hashmap_reference", |b| {
        let proc = TopKProcessor::new(exact);
        b.iter(|| {
            black_box(
                proc.process_reference(&index, &[deep_term])
                    .postings_scanned(),
            )
        });
    });
    g.finish();
}

criterion_group!(benches, bench_topk);
criterion_main!(benches);
