//! Criterion micro-benchmarks of the cache building blocks: the hot-path
//! operations every simulated query exercises.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cachekit::{LruList, SegmentedLru};
use hybridcache::mem::{ListMeta, MemListCache, MemResultCache};
use hybridcache::ssd::{ListStore, SlotRegion};
use hybridcache::PolicyKind;
use simclock::{Rng, SimDuration};
use storagecore::RamDisk;

fn bench_lru_list(c: &mut Criterion) {
    let mut g = c.benchmark_group("lru_list");
    g.bench_function("touch_hot_1k", |b| {
        let mut l = LruList::new();
        for k in 0..1_000u32 {
            l.insert_mru(k, ());
        }
        let mut rng = Rng::new(1);
        b.iter(|| {
            let k = rng.next_below(1_000) as u32;
            black_box(l.touch(&k));
        });
    });
    g.bench_function("insert_pop_cycle", |b| {
        let mut l = LruList::new();
        let mut next = 0u32;
        b.iter(|| {
            l.insert_mru(next, ());
            next = next.wrapping_add(1);
            if l.len() > 1_000 {
                black_box(l.pop_lru());
            }
        });
    });
    g.finish();
}

fn bench_segmented(c: &mut Criterion) {
    let mut g = c.benchmark_group("segmented_lru");
    g.bench_function("best_in_window_w8", |b| {
        let mut s = SegmentedLru::new(8);
        for k in 0..1_000u32 {
            s.insert_mru(k, ());
        }
        b.iter(|| black_box(s.best_in_replace_first(|&k, _| k)));
    });
    g.finish();
}

/// The L1 result cache's hit and miss paths: 200 ids over 64 entries.
fn bench_mem_result_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("mem_result_cache");
    g.bench_function("mixed_get_insert", |b| {
        b.iter_batched(
            || {
                let cache = MemResultCache::<u64>::new(64 * hybridcache::RESULT_ENTRY_BYTES);
                (cache, Rng::new(7))
            },
            |(mut cache, mut rng)| {
                for _ in 0..1_000 {
                    let id = rng.next_below(200);
                    if cache.get(id).is_none() {
                        black_box(cache.insert(id, id));
                    }
                }
                black_box(cache.len())
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// Churn on the victim cascades (Figs. 12 and 13).
#[expect(
    clippy::disallowed_methods,
    reason = "measures the store's victim cascade below the admission gate on purpose"
)]
fn bench_victim_selection(c: &mut Criterion) {
    const BLOCK: u64 = hybridcache::BLOCK_BYTES;
    let mut g = c.benchmark_group("victim_selection");
    g.bench_function("list_store_churn", |b| {
        b.iter_batched(
            || {
                let s = ListStore::new(SlotRegion::new(0, 256), true, 16, 0.0);
                let dev = RamDisk::with_capacity_bytes(64 << 20, SimDuration::from_micros(10));
                (s, dev, Rng::new(3))
            },
            |(mut s, mut dev, mut rng)| {
                for i in 0..512u64 {
                    let term = rng.next_below(192);
                    let blocks = 1 + rng.next_below(4);
                    s.offer(term, blocks, blocks * BLOCK, 1 + i % 7, &mut dev);
                    if i % 3 == 0 {
                        black_box(s.lookup(term, BLOCK, &mut dev, true));
                    }
                }
                black_box(s.stats().evictions)
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("mem_ev_churn", |b| {
        b.iter_batched(
            || {
                let m = MemListCache::new(64 * 1024, PolicyKind::Cblru, 16);
                (m, Rng::new(5))
            },
            |(mut m, mut rng)| {
                for _ in 0..512 {
                    let term = rng.next_below(256);
                    let si_bytes = 1024 * (1 + rng.next_below(4));
                    if m.touch(term, si_bytes, 0.5).is_none() {
                        let _ = m.insert(
                            term,
                            ListMeta {
                                si_bytes,
                                pu: 0.5,
                                freq: 1,
                                full_bytes: 8 * 1024,
                            },
                        );
                    }
                    while m.pop_evicted().is_some() {}
                }
                black_box(m.len())
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_lru_list,
    bench_segmented,
    bench_mem_result_cache,
    bench_victim_selection
);
criterion_main!(benches);
