//! Criterion micro-benchmarks of top-K query processing over the
//! synthetic index, with and without early termination.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use searchidx::{CorpusSpec, SyntheticIndex, TopKConfig, TopKProcessor};
use simclock::Rng;
use workload::{QueryLog, QueryLogSpec};

fn bench_topk(c: &mut Criterion) {
    let index = SyntheticIndex::new(CorpusSpec::enwiki_like(100_000, 5));
    let log = QueryLog::new(QueryLogSpec::aol_like(
        searchidx::IndexReader::num_terms(&index),
        9,
    ));
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
    let deep_term = (0..searchidx::IndexReader::num_terms(&index) as u32)
        .find(|&t| (4_000..8_000).contains(&searchidx::IndexReader::doc_freq(&index, t)))
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
