//! Drive concurrent tenants against the `sag-net` front door over real
//! sockets and record the `service_network` section of `BENCH_2.json`.
//!
//! ```text
//! load_gen [--addr HOST:PORT] [--scenario NAME] [--tenants N] [--seed N]
//!          [--history-days N] [--test-days N] [--shards N]
//!          [--out BENCH_2.json] [--chaos] [--chaos-kill --server-bin PATH]
//! ```
//!
//! Without `--addr` the generator starts its own in-process server on an
//! ephemeral loopback port (still real sockets and the full wire codec) and
//! additionally runs the deterministic shed probe, whose server config it
//! controls. With `--addr` it drives an already-running `sag_server` — the
//! CI network-smoke job points it at the release binary it just booted; the
//! server must be freshly booted (counters are cumulative) and built over
//! the same scenario/seed/fleet flags so the generated streams match.
//!
//! `--shards N` drives (or, in-process, starts) a consistent-hash cluster
//! of N `AuditService` shards behind the one listener — match the
//! `--shards` the external server was booted with — and records a
//! per-shard shed/latency breakdown next to the aggregate numbers.
//!
//! `--chaos` runs the fault-injection leg instead: the fleet through a
//! seeded [`sag_net::ChaosProxy`], bitwise-compared against an unfaulted
//! control,
//! plus the in-process kill-and-recover probe; the report lands as the
//! `service_chaos` section of `BENCH_2.json`. `--chaos-kill` additionally
//! SIGKILLs a real `--server-bin` release binary mid-burst and requires
//! the redialled client to converge through `--recover`.
//!
//! The measured section is printed in its `BENCH_2.json` form. Exit status
//! is non-zero when the load run fails, when any scraped metrics identity
//! is violated, when a chaos leg diverges from its control, or (in-process)
//! when the shed probe is inconclusive — so CI can gate on the binary
//! alone.

use sag_bench::netload::{
    merge_service_chaos, merge_service_network, run_kill_recover, ChaosLoadConfig, NetLoadConfig,
};

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn run_chaos(args: &[String], out: &str) {
    let seed = parse_flag(args, "--seed", 11u64);
    let mut config = ChaosLoadConfig::bench(seed);
    config.scenario = parse_flag(args, "--scenario", config.scenario);
    config.tenants = parse_flag(args, "--tenants", config.tenants);
    config.history_days = parse_flag(args, "--history-days", config.history_days);
    config.test_days = parse_flag(args, "--test-days", config.test_days);

    println!(
        "chaos load: scenario={} tenants={} seed={} days={} chaos_seed={:#x}",
        config.scenario, config.tenants, config.seed, config.test_days, config.chaos_seed,
    );
    let report = match sag_bench::run_chaos_load(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("chaos run failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", report.to_json().render());

    let mut failed = !report.bitwise_equal || !report.recovery_converged;
    if args.iter().any(|a| a == "--chaos-kill") {
        let server_bin = parse_flag(args, "--server-bin", String::new());
        if server_bin.is_empty() {
            eprintln!("--chaos-kill needs --server-bin PATH");
            std::process::exit(2);
        }
        match run_kill_recover(&config, &server_bin) {
            Ok(kill) => {
                println!(
                    "  kill leg  : SIGKILL after {} alerts, {} reconnects, {}",
                    kill.alerts_before_kill,
                    kill.reconnects,
                    if kill.converged {
                        "converged"
                    } else {
                        "DID NOT CONVERGE"
                    },
                );
                failed |= !kill.converged;
            }
            Err(e) => {
                eprintln!("kill leg failed: {e}");
                failed = true;
            }
        }
    }

    if !out.is_empty() {
        if let Err(e) = merge_service_chaos(out, &report) {
            eprintln!("failed to merge service_chaos into {out}: {e}");
            std::process::exit(1);
        }
        println!("  merged service_chaos into {out}");
    }
    if failed {
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = parse_flag(&args, "--out", String::new());
    if args.iter().any(|a| a == "--chaos" || a == "--chaos-kill") {
        run_chaos(&args, &out);
        return;
    }
    let external = args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let config = NetLoadConfig {
        scenario: parse_flag(&args, "--scenario", String::from("paper-baseline")),
        seed: parse_flag(&args, "--seed", 11u64),
        tenants: parse_flag(&args, "--tenants", 4usize),
        history_days: parse_flag(&args, "--history-days", 5u32),
        test_days: parse_flag(&args, "--test-days", 2u32),
        shards: parse_flag(&args, "--shards", 1usize).max(1),
        external,
    };

    println!(
        "network load: scenario={} tenants={} seed={} days={} shards={} mode={}",
        config.scenario,
        config.tenants,
        config.seed,
        config.test_days,
        config.shards,
        config
            .external
            .as_deref()
            .map_or("in-process".to_owned(), |a| format!("external {a}")),
    );
    let report = match sag_bench::run_network_load(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("load run failed: {e}");
            std::process::exit(1);
        }
    };

    println!("{}", report.to_json().render());

    if !out.is_empty() {
        if let Err(e) = merge_service_network(&out, &report) {
            eprintln!("failed to merge service_network into {out}: {e}");
            std::process::exit(1);
        }
        println!("  merged service_network into {out}");
    }
    if !report.metrics_consistent {
        std::process::exit(1);
    }
}
