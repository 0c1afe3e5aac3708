//! Criterion micro-benchmarks of the flash simulator: page-mapped FTL
//! writes under sequential and random (GC-heavy) patterns, and the two
//! sector-level paths the hybrid cache drives — a result read through the
//! I/O pipeline and a whole-block overwrite that runs GC.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use flashsim::{FlashParams, Ftl, PageMapFtl, SsdDisk};
use simclock::Rng;
use storagecore::{BlockDevice, Extent, NullSink, PipelinedDevice};

/// Sectors per 128 KiB flash block.
const BLOCK_SECTORS: u64 = 256;

/// The paper's SSD at `logical_bytes`, every block written once.
fn full_ssd(logical_bytes: u64) -> SsdDisk {
    let mut ssd = SsdDisk::paper(logical_bytes);
    let sectors = ssd.geometry().sectors;
    for lba in (0..sectors).step_by(BLOCK_SECTORS as usize) {
        ssd.write(Extent::new(lba, BLOCK_SECTORS.min(sectors - lba)))
            .expect("in range");
    }
    ssd
}

fn params() -> FlashParams {
    FlashParams::paper(8 << 20)
}

fn bench_ftl(c: &mut Criterion) {
    let mut g = c.benchmark_group("page_map_ftl");
    g.bench_function("sequential_fill", |b| {
        b.iter_batched(
            || PageMapFtl::new(params()),
            |mut ftl| {
                let n = ftl.logical_pages();
                for lpn in 0..n {
                    black_box(ftl.write(lpn).expect("in range"));
                }
            },
            BatchSize::LargeInput,
        );
    });
    g.bench_function("random_overwrite_steady_state", |b| {
        // Pre-filled device: every write is an overwrite, GC active.
        b.iter_batched(
            || {
                let mut ftl = PageMapFtl::new(params());
                let n = ftl.logical_pages();
                for lpn in 0..n {
                    ftl.write(lpn).expect("in range");
                }
                (ftl, Rng::new(3))
            },
            |(mut ftl, mut rng)| {
                let n = ftl.logical_pages();
                for _ in 0..1_000 {
                    black_box(ftl.write(rng.next_below(n)).expect("in range"));
                }
            },
            BatchSize::LargeInput,
        );
    });
    g.bench_function("read_hot_page", |b| {
        let mut ftl = PageMapFtl::new(params());
        ftl.write(0).expect("in range");
        b.iter(|| black_box(ftl.read(0).expect("mapped")));
    });
    g.finish();
}

fn bench_ssd(c: &mut Criterion) {
    let mut g = c.benchmark_group("ssd_disk");
    g.bench_function("ssd_result_read", |b| {
        // A 20 KiB (10-page) read, the size of a result-cache entry,
        // through the pipeline the engine wraps the cache SSD in.
        let mut dev = PipelinedDevice::new(full_ssd(640 << 20), NullSink);
        let pages = dev.geometry().sectors / 4;
        let mut rng = Rng::new(1);
        b.iter(|| {
            let lba = rng.next_below(pages - 10) * 4;
            black_box(dev.read(Extent::new(lba, 40)).expect("in range"))
        });
    });
    g.bench_function("block_overwrite_gc", |b| {
        // Every block is live, so each whole-block overwrite frees one and
        // GC reclaims it.
        let mut ssd = full_ssd(160 << 20);
        let blocks = ssd.geometry().sectors / BLOCK_SECTORS;
        let mut rng = Rng::new(2);
        b.iter(|| {
            let lba = rng.next_below(blocks) * BLOCK_SECTORS;
            black_box(
                ssd.write(Extent::new(lba, BLOCK_SECTORS))
                    .expect("in range"),
            )
        });
    });
    g.finish();
}

criterion_group!(benches, bench_ftl, bench_ssd);
criterion_main!(benches);
