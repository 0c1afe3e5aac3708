//! Criterion micro-benchmarks of the statistical samplers driving every
//! workload generator.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use simclock::{Rng, Zipf};

fn bench_samplers(c: &mut Criterion) {
    let mut g = c.benchmark_group("samplers");
    g.bench_function("zipf_1e6", |b| {
        let z = Zipf::new(1_000_000, 1.0);
        let mut rng = Rng::new(1);
        b.iter(|| black_box(z.sample(&mut rng)));
    });
    g.bench_function("xoshiro_u64", |b| {
        let mut rng = Rng::new(2);
        b.iter(|| black_box(rng.next_u64()));
    });
    g.finish();
}

criterion_group!(benches, bench_samplers);
criterion_main!(benches);
