//! Replay the full scenario registry and write `BENCH_2.json`: per-scenario
//! throughput, warm-start hit rate and utility profile, the multi-core
//! scaling curves (sharded replay, service pool, thread-per-shard cluster)
//! and the WAL durability profile. The report is printed as it is written.
//!
//! Usage:
//!   `cargo run --release -p sag-bench --bin repro_scenarios [seed] [out.json] [shards]`
//!
//! `shards` (the per-scenario replays' shard count) defaults to one shard
//! per available core (requires the `parallel` feature for actual
//! concurrency; results are identical either way).

use sag_bench::scenario_suite::{scenario_suite, SuiteConfig};
use sag_core::engine::recommended_shards;

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2019);
    let out_path = args.next().unwrap_or_else(|| "BENCH_2.json".to_string());
    let shards: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| recommended_shards(16));

    println!("Scenario registry replay (seed {seed}, {shards} shard(s))\n");
    let report = scenario_suite(&SuiteConfig::full(seed, shards)).expect("registry replays");
    let json = report.to_json().render();
    println!("{json}");

    std::fs::write(&out_path, format!("{json}\n")).expect("write scenario report");
    println!("\nwrote {out_path}");
}
