//! The repository benchmark: decision latency and throughput of the SAG
//! audit service on two workloads, checked for correctness, with a traced
//! run that breaks the time down layer by layer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-wire --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Prints one human-readable line per measurement, then, as the last line,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, and the spans are written to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`. Exits non-zero when any
//! check fails. See `perfbench/README.md` for the workloads and metrics.

mod gate;
mod ladder;
mod stats;
mod trace;
mod wire;
mod workload;

use gate::{check_metrics, direct_replay, rebuild_times, Sent, Served, Verdict};
use sag_cluster::ShardRouter;
use sag_core::sse::SseCacheTotals;
use stats::{median, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::{layer_self_times, Tracer, WalCounts};
use wire::Fleet;
use workload::{
    find, service_builder, wire_inputs, TenantInput, WireSpec, LADDER, OPEN_SHARE, RATE, REBUILDS,
    SAT_SHARE, WARMUP, WINDOW,
};

/// Where runs write WAL directories and traces, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

/// Rounds (each on a freshly set-up fleet) per untraced run.
const ROUNDS: usize = 3;

/// Most open-loop/saturation slices per round.
const MAX_SLICES: usize = 5;

/// Untraced/traced saturation pairs in a traced run.
const TRACE_ALTERNATIONS: usize = 6;

/// The open loop is invalid when its generator sent the median request
/// this many microseconds late: it kept a backlog, rather than being held
/// up by a passing stall of the host.
const LAG_LIMIT_US: f64 = 1_000.0;

/// Requests in each open-loop block: enough to leave 25 beyond the block's
/// p90.
const LATENCY_BLOCK: usize = 250;

/// The host shares its cores with other machines and goes through spells,
/// some of them many seconds long, in which thread wake-ups and the
/// server's throughput degrade by tens of percent. So timings are taken
/// over short blocks and reported for the run's quieter blocks: the first
/// quartile of per-block figures where lower is better, the third where
/// higher is better.
fn quiet(blocks: &[f64], lower_is_better: bool) -> f64 {
    let q = if lower_is_better { 0.25 } else { 0.75 };
    stats::quantile(&stats::sorted(blocks), q).unwrap_or(f64::NAN)
}

/// Length of the saturation blocks whose rates `peak_aps` is taken over
/// (see [`quiet`]), seconds.
const RATE_BLOCK_S: f64 = 0.1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(args)
}

/// Measurements of one run, printed as lines and as the final JSON.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    invalid: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        println!("{name} = {value:.4} {unit} (n={n})");
        self.metrics.push((name, value, unit));
    }

    fn verdict(&mut self, what: &str, verdict: &Verdict) {
        println!(
            "gate: {what}: {} decisions checked, {} mismatches",
            verdict.checked, verdict.mismatches
        );
        for note in &verdict.notes {
            println!("gate:   {note}");
        }
        self.failed += verdict.mismatches;
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = find(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let out = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", host_line(&out));
    println!(
        "workload {} seed {} seconds {} trace {}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        traced_run(&workload.spec, &args, &out, workload.name)
    } else {
        wire_run(&workload.spec, &args)
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some((name, ..)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not a finite number");
        return ExitCode::FAILURE;
    }
    for reason in &report.invalid {
        println!("INVALID: {reason}");
    }
    println!(
        "failed_frac = {:.6} ratio (n={})",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.attempted
    );
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Cores, compiler, build, and the file system the WAL directory is on.
fn host_line(out: &Path) -> String {
    format!(
        "host: nproc={} rustc=\"{}\" profile={} features=default wal_fs={}",
        std::thread::available_parallelism().map_or(1, usize::from),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        fs_type(out).unwrap_or_else(|| "unknown".to_owned()),
    )
}

/// File-system type of the mount holding `dir`, from the process's own
/// mount table (the longest mount point that is a prefix of `dir`).
fn fs_type(dir: &Path) -> Option<String> {
    let dir = std::fs::canonicalize(dir).ok()?;
    let table = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    table
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount = left.split(' ').nth(4)?;
            let fstype = right.split(' ').next()?;
            dir.starts_with(mount)
                .then(|| (mount.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype)
}

/// A fresh, empty directory under `out`.
fn fresh_dir(out: &Path, tag: &str) -> Result<PathBuf, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = out.join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Decisions served per tenant.
fn decided(served: &[&Served]) -> Vec<u64> {
    served
        .iter()
        .map(|s| s.iter().filter(|o| o.is_some()).count() as u64)
        .collect()
}

/// Mean auditor loss (negated OSSP utility) over the decisions served in
/// stream positions `from[t]..to[t]` of every tenant.
fn ossp_loss(served: &[&Served], from: &[usize], to: &[usize]) -> (f64, usize) {
    let utilities: Vec<f64> = served
        .iter()
        .enumerate()
        .flat_map(|(t, s)| s[from[t]..to[t]].iter().flatten().map(|o| o.ossp_utility))
        .collect();
    (
        -utilities.iter().sum::<f64>() / utilities.len().max(1) as f64,
        utilities.len(),
    )
}

/// What one round of a wire workload measured.
struct Round {
    setup_s: f64,
    /// The open-loop slices.
    open: Vec<wire::Phase>,
    /// Saturation throughput over blocks of about `RATE_BLOCK_S`.
    sat_rates: Vec<f64>,
    ossp_loss: (f64, usize),
    /// Times to rebuild what the first open-loop slice served, one list
    /// per repetition with one figure per tenant.
    rebuild_s: Vec<Vec<f64>>,
    recovered: usize,
}

/// One round of a wire workload on a fresh fleet: set up, warm up, open
/// loop, saturation, then every correctness check. The timed phases share
/// `seconds` per the spec.
fn wire_round(
    spec: &WireSpec,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<Round, String> {
    let begun = Instant::now();
    let tenants = wire_inputs(spec, seed);
    let mut fleet = Fleet::start(spec, &tenants)?;
    let setup_s = begun.elapsed().as_secs_f64();

    let opens = fleet.requests;
    let warm = fleet.warm_up(WARMUP, WINDOW)?;
    let warm_pos = fleet.positions();
    // The open loop and saturation alternate in slices across the round, so
    // a slow spell of the host lands on both. Each slice keeps at least
    // two latency blocks.
    let open_s = seconds * OPEN_SHARE;
    let slices = ((RATE * open_s / (2 * LATENCY_BLOCK) as f64) as usize).clamp(1, MAX_SLICES);
    let mut open = Vec::with_capacity(slices);
    let mut sat = Vec::with_capacity(slices);
    let mut open_pos = Vec::new();
    let mut rebuild_s = Vec::with_capacity(REBUILDS);
    for k in 0..slices {
        open.push(fleet.open_loop(RATE, open_s / slices as f64)?);
        if k == 0 {
            // The first slice follows the warm-up directly, so what has
            // been served up to here depends only on the seed: it is what
            // `ossp_loss` averages and `recover_s` rebuilds.
            open_pos = fleet.positions();
        }
        sat.push(fleet.saturate(
            WINDOW,
            seconds * SAT_SHARE / slices as f64,
            usize::MAX,
            None,
        )?);
        // Rebuilds are spread over the round, so the fastest of them is
        // less likely to fall in one slow spell of the host.
        if k < REBUILDS && k + 1 < slices {
            rebuild_s.push(rebuild_times(&tenants, &fleet.served(), &open_pos)?);
        }
    }
    let sent = Sent {
        requests: fleet.requests,
        alerts: decided(&fleet.served()),
    };
    let (_, notes) = check_metrics(fleet.addr(), &tenants, &sent)?;
    fleet.stop();
    let served = fleet.served();
    let phases = || open.iter().chain(&sat);
    report.attempted += opens + warm.attempted + phases().map(|p| p.attempted).sum::<u64>();
    report.failed += warm.failed + phases().map(|p| p.failed).sum::<u64>() + notes.len() as u64;
    for note in &notes {
        println!("gate: /metrics: {note}");
    }
    println!(
        "round: set-up {setup_s:.3} s, warm-up {} alerts, {slices} slices of open loop at {} alerts/s ({} alerts) and saturation with window {} x {} connections ({} alerts)",
        warm.attempted,
        RATE,
        open.iter().map(|p| p.attempted).sum::<u64>(),
        WINDOW,
        workload::CONNECTIONS,
        sat.iter().map(|p| p.attempted).sum::<u64>(),
    );
    for slice in &open {
        let lag = Summary::of(&slice.lag_us);
        if lag.n == 0 || lag.p50 > LAG_LIMIT_US {
            report.invalid.push(format!(
                "the open-loop generator fell behind (median lag {:.0} us, limit {LAG_LIMIT_US} us)",
                lag.p50
            ));
        }
    }

    let (verdict, replay_s) = direct_replay(&tenants, &served, &open_pos)?;
    report.verdict("wire vs direct AuditService::handle replay", &verdict);
    rebuild_s.push(replay_s);
    Ok(Round {
        setup_s,
        sat_rates: sat
            .iter()
            .flat_map(|p| p.block_rates(((p.seconds / RATE_BLOCK_S).round() as usize).max(1)))
            .collect(),
        ossp_loss: ossp_loss(&served, &warm_pos, &open_pos),
        rebuild_s,
        recovered: open_pos.iter().sum(),
        open,
    })
}

/// The untraced run of a wire workload: `ROUNDS` rounds, each on a fresh
/// fleet, with the timings pooled over the rounds' blocks (see [`quiet`]).
fn wire_run(spec: &WireSpec, args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let rounds: Vec<Round> = (0..ROUNDS)
        .map(|_| wire_round(spec, args.seed, args.seconds / ROUNDS as f64, &mut report))
        .collect::<Result<_, _>>()?;
    let over = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let open = || rounds.iter().flat_map(|r| &r.open);
    let samples: usize = open().map(|p| p.latency_us.len()).sum();
    let blocks: Vec<Summary> = open().flat_map(|p| p.blocks(LATENCY_BLOCK)).collect();
    let p50s: Vec<f64> = blocks.iter().map(|b| b.p50).collect();
    let p90s: Vec<f64> = blocks.iter().filter_map(|b| b.p90).collect();
    if p90s.is_empty() {
        return Err("too few open-loop samples for a p90".to_owned());
    }
    report.metric("decide_p50_us", quiet(&p50s, true), "us", samples);
    report.metric("decide_p90_us", quiet(&p90s, true), "us", samples);
    let lag = Summary::of(
        &open()
            .flat_map(|p| p.lag_us.iter().copied())
            .collect::<Vec<_>>(),
    );
    println!(
        "gen: lag p50 {:.1} us, p99 {:.1} us (n={})",
        lag.p50,
        lag.p99.unwrap_or(f64::NAN),
        lag.n
    );
    let whole = Summary::of(
        &open()
            .flat_map(|p| p.latency_us.iter().copied())
            .collect::<Vec<_>>(),
    );
    println!(
        "decide_p99_us = {:.4} us (n={samples}) over whole open-loop phases, host stalls included; p50 {:.1} us, p90 {:.1} us",
        whole.p99.unwrap_or(f64::NAN),
        whole.p50,
        whole.p90.unwrap_or(f64::NAN),
    );
    let rates: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.sat_rates.iter().copied())
        .collect();
    println!(
        "saturation: median block rate {:.0} alerts/s",
        median(&rates)
    );
    report.metric("peak_aps", quiet(&rates, false), "alerts/s", rates.len());
    let (loss, n_loss) = rounds[0].ossp_loss;
    if rounds
        .iter()
        .any(|r| r.ossp_loss.0.to_bits() != loss.to_bits())
    {
        report.failed += 1;
        println!("gate: ossp_loss differs between rounds on the same inputs");
    }
    report.metric("ossp_loss", loss, "utility", n_loss);
    report.metric("setup_s", over(&|r| r.setup_s), "s", ROUNDS);
    // Every round rebuilds identical state, so each piece's fastest round
    // is its time with the least interference from the host.
    let recover_s: f64 = (0..rounds[0].rebuild_s[0].len())
        .map(|i| {
            rounds
                .iter()
                .flat_map(|r| r.rebuild_s.iter().map(move |rep| rep[i]))
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    report.metric("recover_s", recover_s, "s", rounds[0].recovered);
    Ok(report)
}

/// Per-layer metrics, by name, with their units.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, (f64, &'static str, usize)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, unit: &'static str, n: usize) {
        self.0.insert(name, (value, unit, n));
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| v.0)
    }

    fn into_report(self, report: &mut Report) {
        for (name, (value, unit, n)) in self.0 {
            report.metric(name, value, unit, n);
        }
    }

    fn set_totals(&mut self, t: &SseCacheTotals, second_chain: u64, alerts: usize) {
        let a = alerts.max(1) as f64;
        self.set(
            "lp.solves_per_alert",
            t.lp_solves as f64 / a,
            "count",
            alerts,
        );
        self.set("lp.pivots_per_alert", t.pivots as f64 / a, "count", alerts);
        self.set(
            "lp.warm_hit_frac",
            t.warm_hits as f64 / t.warm_attempts.max(1) as f64,
            "ratio",
            t.warm_attempts as usize,
        );
        self.set(
            "core.pruned_frac",
            t.pruned_lps as f64 / (t.pruned_lps + t.lp_solves).max(1) as f64,
            "ratio",
            (t.pruned_lps + t.lp_solves) as usize,
        );
        self.set(
            "core.second_chain_frac",
            second_chain as f64 / a,
            "ratio",
            alerts,
        );
    }

    fn set_push(&mut self, push_us: &[f64], open_ms: &[f64]) {
        let push = Summary::of(push_us);
        self.set("core.push_us", push.p50, "us", push.n);
        let (_, tail) = push.tail.unwrap_or((0.0, f64::NAN));
        self.set("core.push_p99_us", push.p99.unwrap_or(tail), "us", push.n);
        self.set("core.open_day_ms", median(open_ms), "ms", open_ms.len());
    }
}

/// The traced run of a wire workload.
fn traced_run(spec: &WireSpec, args: &Args, out: &Path, name: &str) -> Result<Report, String> {
    let tenants = wire_inputs(spec, args.seed);
    let mut report = Report::default();
    let tracer = Arc::new(Tracer::default());
    let layers = wire_traced(spec, &tenants, args, out, &tracer, &mut report)?;
    finish_trace(&tracer, out, name, args.seed)?;
    layers.into_report(&mut report);
    Ok(report)
}

/// Traced phases and every ladder rung on `tenants` served per `spec`.
fn wire_traced(
    spec: &WireSpec,
    tenants: &[TenantInput],
    args: &Args,
    out: &Path,
    tracer: &Arc<Tracer>,
    report: &mut Report,
) -> Result<Layers, String> {
    let mut layers = Layers::default();
    let mut verdict = Verdict::default();
    let mut fleet = Fleet::start(spec, tenants)?;
    let opens = fleet.requests;
    let warm = fleet.warm_up(WARMUP, WINDOW)?;
    let open = fleet.open_loop(RATE, args.seconds * OPEN_SHARE * 0.5)?;
    // Untraced and traced saturation alternate, so a slow spell of the
    // host lands on both.
    let sat_s = args.seconds * SAT_SHARE * 0.5 / TRACE_ALTERNATIONS as f64;
    let mut untraced = Vec::with_capacity(TRACE_ALTERNATIONS);
    let mut traced = Vec::with_capacity(TRACE_ALTERNATIONS);
    for i in 0..2 * TRACE_ALTERNATIONS {
        // U T, T U, U T, ...: neither side always runs first.
        if (i % 2 == 0) == (i / 2 % 2 == 0) {
            untraced.push(fleet.saturate(WINDOW, sat_s, usize::MAX, None)?);
        } else {
            let mut phase = fleet.saturate(WINDOW, sat_s, usize::MAX, Some(tracer))?;
            tracer.extend(std::mem::take(&mut phase.spans));
            traced.push(phase);
        }
    }
    let sat: Vec<&wire::Phase> = untraced.iter().chain(&traced).collect();
    let sat_attempted: u64 = sat.iter().map(|p| p.attempted).sum();
    let sent = Sent {
        requests: fleet.requests,
        alerts: decided(&fleet.served()),
    };
    let (shed, notes) = check_metrics(fleet.addr(), tenants, &sent)?;
    for note in &notes {
        println!("gate: /metrics: {note}");
    }
    report.attempted += opens + warm.attempted + open.attempted + sat_attempted;
    report.failed +=
        warm.failed + open.failed + sat.iter().map(|p| p.failed).sum::<u64>() + notes.len() as u64;

    // The first pass over fresh sessions pays the page faults of their
    // memory; an untimed pass first keeps the rungs comparable.
    ladder::push_rung(tenants, LADDER, &Tracer::default())?;
    let push = ladder::push_rung(tenants, LADDER, tracer)?;
    let rtt = ladder::rtt_rung(
        fleet.addr(),
        tenants,
        &fleet.next_ids(),
        LADDER,
        &push.outcomes,
        &mut verdict,
    )?;
    report.attempted += rtt.requests;
    fleet.stop();
    let (replayed, _) = direct_replay(tenants, &fleet.served(), &fleet.positions())?;
    report.verdict("wire vs direct AuditService::handle replay", &replayed);

    let handle = ladder::handle_rung(tenants, LADDER, None, tracer, &push.outcomes, &mut verdict)?;
    let wal_dir = fresh_dir(out, "wal-ladder")?;
    let wal_counts = Arc::new(WalCounts::default());
    let durable = ladder::handle_rung(
        tenants,
        LADDER,
        Some((&wal_dir, &wal_counts)),
        tracer,
        &push.outcomes,
        &mut verdict,
    )?;
    let _ = std::fs::remove_dir_all(&wal_dir);
    let codec = ladder::codec_rung(&handle.pushes, &mut verdict);

    let pool_jobs: Vec<sag_service::ServiceJob<'_>> = tenants
        .iter()
        .flat_map(|t| {
            t.prefix_by_day(LADDER)
                .into_iter()
                .map(move |(d, _)| sag_service::ServiceJob {
                    tenant: &t.id,
                    test_day: &t.days[d],
                    budget: t.budgets[d],
                    history: None,
                })
        })
        .collect();
    let serial = service_builder(tenants)
        .workers(1)
        .build()
        .map_err(|e| e.to_string())?;
    let pooled = service_builder(tenants)
        .workers(2)
        .build()
        .map_err(|e| e.to_string())?;
    let (job_ms, reference) = ladder::serial_jobs(&serial, &pool_jobs)?;
    let walls = ladder::pooled_passes(&pooled, &pool_jobs, &reference, 3, &mut verdict)?;
    report.verdict("in-process ladder rungs agree", &verdict);

    // Layer metrics.
    layers.set_totals(&push.totals, push.second_chain, push.alerts as usize);
    layers.set_push(&push.push_us, &push.open_ms);
    layers.set(
        "forecast.estimate_ns",
        ladder::estimate_ns(tenants, LADDER),
        "ns",
        push.alerts as usize,
    );
    let handle_us = median(&handle.handle_us);
    let durable_us = median(&durable.handle_us);
    layers.set("service.handle_us", handle_us, "us", handle.handle_us.len());
    layers.set(
        "service.overhead_us",
        handle_us - layers.get("core.push_us"),
        "us",
        handle.handle_us.len(),
    );
    let nested = |name: &str| -> Vec<f64> {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name == name && s.parent != 0)
            .map(|s| s.dur() as f64 / 1e3)
            .collect()
    };
    let appends = nested("wal.append");
    let syncs = nested("wal.sync");
    layers.set("wal.append_us", median(&appends), "us", appends.len());
    layers.set("wal.sync_us", median(&syncs), "us", syncs.len());
    let (syncs_per, bytes_per) = ladder::wal_per_alert(&wal_counts, push.alerts);
    layers.set(
        "wal.syncs_per_alert",
        syncs_per,
        "count",
        push.alerts as usize,
    );
    layers.set("wal.bytes_per_alert", bytes_per, "B", push.alerts as usize);
    layers.set(
        "wal.replay_aps",
        push.alerts as f64 / durable.recover_s.max(1e-9),
        "alerts/s",
        push.alerts as usize,
    );
    layers.set("net.encode_ns", codec.encode_ns, "ns", handle.pushes.len());
    layers.set("net.decode_ns", codec.decode_ns, "ns", handle.pushes.len());
    layers.set("net.bytes_per_alert", codec.bytes, "B", handle.pushes.len());
    let rtt_us = median(&rtt.rtt_us);
    layers.set("net.rtt_us", rtt_us, "us", rtt.rtt_us.len());
    let codec_us = (codec.encode_ns + codec.decode_ns) / 1e3;
    let unaccounted = rtt_us - handle_us - codec_us;
    layers.set("net.unaccounted_us", unaccounted, "us", rtt.rtt_us.len());
    let n_sat = sat_attempted as usize;
    layers.set("net.shed_frac", shed / n_sat.max(1) as f64, "ratio", n_sat);
    layers.set(
        "net.retries_per_kreq",
        (rtt.stats.retries + rtt.stats.reconnects) as f64 * 1e3 / rtt.requests.max(1) as f64,
        "count",
        rtt.requests as usize,
    );
    let router = ShardRouter::new(spec.shards);
    let mut per_shard = vec![0.0; spec.shards];
    for (t, alerts) in tenants.iter().zip(&sent.alerts) {
        per_shard[router.shard_for(&t.id)] += *alerts as f64;
    }
    let mean = per_shard.iter().sum::<f64>() / spec.shards as f64;
    let busiest = per_shard.iter().copied().fold(0.0, f64::max);
    layers.set(
        "cluster.shard_skew",
        busiest / mean.max(1e-9),
        "ratio",
        spec.shards,
    );
    let serial_s: f64 = job_ms.iter().sum::<f64>() / 1e3;
    layers.set(
        "pool.speedup",
        serial_s / median(&walls),
        "ratio",
        walls.len(),
    );
    layers.set("pool.job_ms", median(&job_ms), "ms", job_ms.len());
    let lag = Summary::of(&open.lag_us);
    let (_, lag_tail) = lag.tail.unwrap_or((0.0, f64::NAN));
    layers.set("gen.lag_p99_us", lag.p99.unwrap_or(lag_tail), "us", lag.n);
    let rate =
        |phases: &[wire::Phase]| median(&phases.iter().map(|p| p.rate(4)).collect::<Vec<_>>());
    let (rate_u, rate_t) = (rate(&untraced), rate(&traced));
    layers.set(
        "trace.overhead_frac",
        (rate_u - rate_t) / rate_u.max(1e-9),
        "ratio",
        sat.iter().map(|p| p.done_s.len()).sum(),
    );

    // The ladder, beside the open-loop decision latency it explains. The
    // WAL rung is not on this path (no workload serves with a WAL), so it
    // is printed beside the ladder, not in its sum.
    let push_us = layers.get("core.push_us");
    println!(
        "ladder (medians, us): core.push {push_us:.2} -> service.handle {handle_us:.2} (+{:.2}) -> +codec {codec_us:.2} -> net.unaccounted {unaccounted:.2} = net.rtt {rtt_us:.2}; decide_p50 (open loop, {} alerts/s) {:.2}",
        handle_us - push_us,
        RATE,
        Summary::of(&open.latency_us).p50,
    );
    println!(
        "ladder sum: {push_us:.2} + {:.2} + {codec_us:.2} + {unaccounted:.2} = {:.2} us; a WAL with fsync would add {:.2} us to service.handle",
        handle_us - push_us,
        push_us + (handle_us - push_us) + codec_us + unaccounted,
        durable_us - handle_us,
    );
    Ok(layers)
}

/// Print per-layer self times and write the trace out.
fn finish_trace(tracer: &Tracer, out: &Path, name: &str, seed: u64) -> Result<(), String> {
    let spans = tracer.spans();
    for (layer, (n, total, own)) in layer_self_times(&spans) {
        println!(
            "span {layer}: n={n} mean {:.2} us, self mean {:.2} us",
            total as f64 / n as f64 / 1e3,
            own as f64 / n as f64 / 1e3
        );
    }
    let path = out.join(format!("trace-{name}-{seed}.jsonl"));
    trace::export(&spans, &path).map_err(|e| format!("trace export: {e}"))?;
    println!("trace: {} spans written to {}", spans.len(), path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` decisions of every tenant, served in process.
    fn served(tenants: &[TenantInput], n: usize) -> Vec<Served> {
        let mut service = service_builder(tenants).build().expect("fleet");
        tenants
            .iter()
            .map(|t| {
                let sessions = gate::open_days(&mut service, t).expect("open");
                t.stream()
                    .take(n)
                    .map(|(d, alert)| {
                        let request = sag_service::Request::PushAlert {
                            session: sessions[d],
                            alert: *alert,
                        };
                        match service.handle(request) {
                            Ok(sag_service::Response::Decision { outcome, .. }) => Some(outcome),
                            other => panic!("push answered {other:?}"),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn the_same_seed_gives_an_identical_ossp_loss() {
        let mut spec = find("paper-wire").expect("workload").spec;
        spec.tenants = 2;
        spec.days = 1;
        let loss = |seed: u64| {
            let tenants = wire_inputs(&spec, seed);
            let served = served(&tenants, 60);
            let refs: Vec<&Served> = served.iter().collect();
            ossp_loss(&refs, &[10, 10], &[60, 60])
        };
        let (a, n) = loss(4);
        let (b, _) = loss(4);
        let (c, _) = loss(5);
        assert_eq!(n, 100);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_ne!(a.to_bits(), c.to_bits());
        assert!(a > 0.0, "the auditor's loss is positive on the paper game");
    }
}
