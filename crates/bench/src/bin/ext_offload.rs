//! Extension — in-flash offload sweep (DESIGN.md §14, the simulated record
//! is `BENCH_7.json`): plain host reads against the in-flash postings
//! predicate offload. Two questions, two instruments. **The bus ledger** —
//! a queue-depth × channel-count grid of Host/`InFlash` engine pairs under
//! the reference (timing-neutral) compute model, plus one production-scale
//! headline pair: everything but the bus ledger is bit-identical across
//! each pair (`offload_equivalence` proves it per query), so the ledger is
//! all there is to report. **The price** — a device-level selectivity
//! microbench under the *active* compute model across three regimes:
//! selective intersections (large bus reduction, scan latency amortized
//! across channels), sparse probes (the scan streams a whole extent for a
//! handful of matches), and dense matches (the offload honestly *loses*:
//! it crosses more bytes than the plain read and its serial emit cost
//! grows with channels).

use bench::{cache_config, print_table};
use engine::{EngineConfig, OffloadMode, SearchEngine};
use flashsim::{ComputeParams, FlashParams, PageMapFtl, SsdDisk};
use hybridcache::PolicyKind;
use storagecore::{
    BlockDevice, Extent, IoRequest, OffloadDescriptor, OFFLOAD_DESCRIPTOR_BYTES, SECTOR_SIZE,
};

const SEED: u64 = 42;
// The pinned grid (docs, queries, memory bytes, SSD bytes): a small corpus
// with a deliberately tight memory tier, so postings lists spill to the
// SSD list store — the reads the offload toggle routes — within the first
// few hundred queries of every cell.
const GRID: (u64, usize, u64, u64) = (40_000, 2_000, 256 << 10, 2 << 20);
const DEPTHS: [usize; 3] = [1, 4, 8];
const CHANNELS: [u32; 3] = [1, 4, 8];
// The headline pair: the pinned workload of the queue-depth and admission
// sweeps, at queue depth 1 and 4 channels.
const HEADLINE: (u64, usize, u64, u64) = (400_000, 30_000, 16 << 20, 160 << 20);
/// Entries per microbench list: 128 KiB of postings — 64 paper pages.
const REGIME_ENTRIES: u32 = 16_384;

/// Run one Host/`InFlash` pair; the row is the two bus ledgers.
fn bus_row(
    label: &str,
    (docs, queries, mem, ssd): (u64, usize, u64, u64),
    depth: usize,
    channels: u32,
) -> Vec<String> {
    let run = |mode| {
        let mut cfg = EngineConfig::cached(docs, cache_config(mem, ssd, PolicyKind::Cblru), SEED);
        cfg.ssd_channels = channels;
        cfg.queue_depth = depth;
        let mut e = SearchEngine::new(cfg);
        e.set_offload_mode(mode);
        e.run(queries);
        e.cache_bus_stats()
    };
    let host = run(OffloadMode::Host);
    let flash = run(OffloadMode::InFlash);
    vec![
        label.to_string(),
        depth.to_string(),
        channels.to_string(),
        flash.offload_ops().to_string(),
        flash.saved_bytes().to_string(),
        host.host_crossed_bytes().to_string(),
        flash.host_crossed_bytes().to_string(),
    ]
}

/// One selectivity regime: a pinned list (entry `i` is doc `4i`, tf
/// `i % 7 + 1`) and a predicate `first_doc <= doc <= last_doc, tf >=
/// min_tf`, priced both ways on an SSD running the active compute model
/// at each channel width. Returns the row, the bus-byte reduction, and
/// the in-flash read's latency overhead (ns) per width.
fn regime(
    name: &str,
    (first_doc, last_doc, min_tf): (u32, u32, u32),
) -> (Vec<String>, f64, Vec<u64>) {
    // The compute unit cannot skip: it streams every entry of the extent.
    let entries = REGIME_ENTRIES as u64;
    let emitted = (0..REGIME_ENTRIES)
        .filter(|i| (first_doc..=last_doc).contains(&(i * 4)) && i % 7 + 1 >= min_tf)
        .count() as u64;

    let entry_bytes = searchidx::types::POSTING_BYTES;
    let sectors = (entries * entry_bytes).div_ceil(SECTOR_SIZE as u64);
    let page = flashsim::PAPER_PAGE_BYTES as u64;
    let scanned_bytes = (sectors * SECTOR_SIZE as u64).div_ceil(page) * page;
    let bus_inflash = OFFLOAD_DESCRIPTOR_BYTES + emitted * entry_bytes;

    let mut row = vec![
        name.to_string(),
        entries.to_string(),
        emitted.to_string(),
        scanned_bytes.to_string(),
        bus_inflash.to_string(),
    ];
    let mut overhead = Vec::new();
    let mut energy = (0, 0);
    for channels in CHANNELS {
        let mut params = FlashParams::paper(8 << 20);
        params.channels = channels;
        params.compute = ComputeParams::active();
        let mut d = SsdDisk::with_ftl(PageMapFtl::new(params));
        let extent = Extent::new(0, sectors);
        d.write(extent).expect("regime extent fits the device");
        let host_ns = d.read(extent).expect("in-region").as_nanos();
        let desc = OffloadDescriptor::new(first_doc, last_doc, min_tf, entry_bytes as u32)
            .with_counts((scanned_bytes / entry_bytes) as u32, emitted as u32);
        let flash_ns = d
            .request(&IoRequest::read(extent).with_offload(desc))
            .expect("in-region")
            .as_nanos();
        row.extend([host_ns.to_string(), flash_ns.to_string()]);
        overhead.push(flash_ns - host_ns);
        let c = d.compute_stats();
        energy = (c.scan_energy_nj, c.emit_energy_nj);
    }
    row.extend([energy.0.to_string(), energy.1.to_string()]);
    (row, scanned_bytes as f64 / bus_inflash as f64, overhead)
}

fn main() {
    let mut rows = Vec::new();
    for depth in DEPTHS {
        for channels in CHANNELS {
            rows.push(bus_row("grid", GRID, depth, channels));
        }
    }
    rows.push(bus_row("headline", HEADLINE, 1, 4));
    print_table(
        "Extension: in-flash offload, host-bus ledger (grid 40k docs / 2k queries, headline 400k / 30k)",
        &[
            "workload",
            "depth",
            "channels",
            "offload_ops",
            "bus_saved_bytes",
            "host_bus_bytes",
            "inflash_bus_bytes",
        ],
        &rows,
    );

    // Lists hold docs {0, 4, 8, ...}; the three predicates carve out the
    // regimes the routing rule cares about.
    let doc_span = (REGIME_ENTRIES - 1) * 4;
    let regimes = [
        // ~1/64 of the list matches: the offload's home turf.
        regime("selective_intersection", (0, doc_span / 64, 0)),
        // A handful of matches in one narrow doc range.
        regime("sparse_probes", (40_000, 40_016, 0)),
        // Everything matches: the descriptor is pure overhead.
        regime("dense_matches", (0, doc_span, 1)),
    ];
    let rows: Vec<Vec<String>> = regimes.iter().map(|r| r.0.clone()).collect();
    print_table(
        "Extension: in-flash offload, selectivity regimes (16384 postings, active compute model)",
        &[
            "regime",
            "entries",
            "matches",
            "bus_bytes_host",
            "bus_bytes_inflash",
            "ch1_host_read_ns",
            "ch1_inflash_read_ns",
            "ch4_host_read_ns",
            "ch4_inflash_read_ns",
            "ch8_host_read_ns",
            "ch8_inflash_read_ns",
            "scan_energy_nj",
            "emit_energy_nj",
        ],
        &rows,
    );

    // The claim no equivalence suite pins: on the selective regime the
    // offload crosses at least 4x fewer bus bytes, and its latency
    // overhead shrinks as channels widen (the scan parallelizes across
    // the per-channel compute units; the per-match emit stays serial).
    let (_, reduction, overhead) = &regimes[0];
    assert!(
        *reduction >= 4.0 && overhead[1] < overhead[0] && overhead[2] < overhead[0],
        "selective regime: {reduction:.3}x bus reduction, overhead {overhead:?} ns"
    );
    println!(
        "selective_bus_reduction {reduction:.3} selective_overhead_ns ch1 {} ch4 {} ch8 {}\n",
        overhead[0], overhead[1], overhead[2]
    );
    println!(
        "reading: the engine-level saving is bounded by how page-misaligned\n\
         the SSD-tier list prefixes are (descriptors ride only partial-page\n\
         tails); at the device, the scan's overhead amortizes across lanes\n\
         while the per-match emit stays serial — which is why dense matches\n\
         get worse with more channels and sparse probes are better galloped\n\
         on the host."
    );
}
