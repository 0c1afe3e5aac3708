//! Criterion micro-benchmarks of the blocked postings representation:
//! reading the pinned prefix (doc ids plus tf runs) against regenerating
//! it through `postings_range` (at a list's short-run head and in its
//! tf = 1 tail), a query's first list accumulated into an empty table,
//! and backend-vs-backend top-K over a query log.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use searchidx::{
    BlockPostings, CorpusSpec, IndexReader, MemIndex, PostingsBackend, SyntheticIndex, TermId,
    TopKConfig, TopKProcessor,
};
use simclock::Rng;
use workload::{QueryLog, QueryLogSpec};

fn bench_postings_decode(c: &mut Criterion) {
    let index = SyntheticIndex::new(CorpusSpec::enwiki_like(100_000, 5));
    let log = QueryLog::new(QueryLogSpec::aol_like(IndexReader::num_terms(&index), 9));
    let mut g = c.benchmark_group("postings_decode");
    g.sample_size(30);

    // Steady-state serving cost of a head term's first 4k postings: a
    // read of the pinned prefix vs regeneration through `postings_range`
    // (the head term's head is the generator's worst case: runs of equal
    // tf are a posting or two long, so nearly every position costs an
    // `ln`).
    let head: TermId = 0;
    let depth = 4_096u64;
    let mut warm = BlockPostings::new(index.doc_freq(head));
    warm.ensure(&index, head, depth);
    g.bench_function("pinned_prefix_read", |b| {
        b.iter(|| {
            let ((docs, runs), mut start, mut sum) = (warm.pinned(), 0, 0u64);
            for &(end, tf) in runs {
                let run = &docs[start..end as usize];
                sum += run.iter().map(|&doc| (doc ^ tf) as u64).sum::<u64>();
                start = end as usize;
            }
            black_box(sum)
        });
    });
    g.bench_function("lazy_regen_reference", |b| {
        b.iter(|| black_box(index.postings_range(head, 0, depth).len() as u64));
    });
    // The generator's best case: the same depth at the end of a
    // mid-popularity list, where every tf is 1 and no quantile is
    // evaluated past the first.
    let mid: TermId = 500;
    let df = index.doc_freq(mid);
    assert_eq!(index.postings_range(mid, df - depth, df)[0].tf, 1);
    g.bench_function("lazy_regen_tf1_tail", |b| {
        b.iter(|| black_box(index.postings_range(mid, df - depth, df).len() as u64));
    });

    // What most scored postings are: the first (rarest) list of a query,
    // 2,000 distinct docs in ~20 equal-tf runs, accumulated into a reset
    // table under K = 50. A one-term index of exactly that list, queried
    // warm (pinned from the second visit on), so the time is the reset,
    // the inserts and the 50-entry result.
    let first_list = MemIndex::from_docs((0..2_000u32).map(|d| vec![0; 1 + d as usize % 20]));
    assert_eq!(first_list.doc_freq(0), 2_000);
    g.bench_function("accumulate_first_list", |b| {
        let proc = TopKProcessor::new(TopKConfig {
            epsilon: 0.0,
            ..TopKConfig::default()
        });
        b.iter(|| black_box(proc.process(&first_list, &[0]).postings_scanned()));
    });

    // End-to-end disjunctive top-K over the same seeded query stream on
    // each backend — bit-identical outcomes, different traversal cost.
    g.bench_function("log_query_blocked", |b| {
        let mut proc = TopKProcessor::new(TopKConfig::default());
        proc.set_backend(PostingsBackend::Blocked);
        let mut rng = Rng::new(17);
        b.iter(|| {
            let q = log.sample(&mut rng);
            black_box(proc.process(&index, &q.terms).postings_scanned())
        });
    });
    g.bench_function("log_query_reference_backend", |b| {
        let mut proc = TopKProcessor::new(TopKConfig::default());
        proc.set_backend(PostingsBackend::Reference);
        let mut rng = Rng::new(17);
        b.iter(|| {
            let q = log.sample(&mut rng);
            black_box(proc.process(&index, &q.terms).postings_scanned())
        });
    });
    g.finish();
}

criterion_group!(benches, bench_postings_decode);
criterion_main!(benches);
