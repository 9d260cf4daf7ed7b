//! End-to-end throughput of the per-alert solve chain, written as the
//! machine-readable `BENCH_1.json` so future PRs can track the trajectory:
//! bulk alerts/sec, p50/p99 per-alert latency, simplex pivots per LP, the
//! warm-start hit rate, the per-alert *decision* latency of the streaming
//! `DaySession` ingest mode, and the warm-vs-cold speedup on the 5-type
//! game — plus the blocked-kernel vs frozen-reference LP comparison at
//! 28/64/128 types and the certified ε-approximate mode leg. The report is
//! printed as it is written.
//!
//! Usage: `cargo run --release -p sag-bench --bin repro_throughput [seed] [out.json]`

use sag_bench::throughput::{throughput_experiment, ThroughputConfig};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2019);
    let out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_1.json".to_string());

    let config = ThroughputConfig::default_workload(seed);
    println!(
        "Batched replay: scenario {:?} at its registered layout, seed {seed}",
        config.scenario
    );
    let json = throughput_experiment(&config).to_json().render();
    println!("{json}");
    println!("paper reference: ~20000.0 us per alert (2017 laptop hardware)");

    std::fs::write(&out_path, format!("{json}\n")).expect("write throughput report");
    println!("\nwrote {out_path}");
}
