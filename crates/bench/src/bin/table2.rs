//! Table II — the test-platform environment, paper vs. this reproduction.

fn main() {
    println!("Table II — hardware & software environment\n");
    let rows = [
        (
            "IR tool",
            "Lucene 3.0.0",
            "searchidx (from-scratch index + top-K)",
        ),
        (
            "Data set",
            "enwiki-20090805 (5M docs)",
            "SyntheticIndex, enwiki-like Zipf corpus",
        ),
        (
            "Query log",
            "AOL-user-ct-collection",
            "workload::QueryLog (Zipf α=0.85)",
        ),
        (
            "I/O trace analyzer",
            "DiskMon 2.0.1",
            "storagecore::PipelinedDevice + tracetools",
        ),
        (
            "SSD simulator",
            "FlashSim/DiskSim 3.0 (PSU)",
            "flashsim (the ideal page-mapped FTL)",
        ),
        (
            "SSD",
            "Intel SSD 320 40GB",
            "flashsim::SsdDisk, Table III parameters",
        ),
        ("HDD", "WDC WD3200AAJS 320GB", "hddsim::HddDisk::wd3200aajs"),
        (
            "OS",
            "Windows Server 2003/Ubuntu 10.04",
            "deterministic virtual-time simulation",
        ),
        (
            "CPU/RAM",
            "Pentium Dual E2180 / 2GB",
            "engine::CpuCostModel (calibrated)",
        ),
    ];
    println!("{:<22} {:<34} this reproduction", "item", "paper");
    for (item, paper, ours) in rows {
        println!("{item:<22} {paper:<34} {ours}");
    }
}
