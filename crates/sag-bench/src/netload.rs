//! Network load generation against the `sag-net` front door.
//!
//! [`run_network_load`] drives a tenant fleet over *real loopback sockets*
//! — one connection per tenant, concurrent client threads, the full wire
//! codec — and measures what the in-process benches cannot: sustained
//! alerts/sec through the framed protocol, per-decision round-trip latency
//! percentiles, and the shedding behaviour under an over-quota flood. The
//! report lands as the `service_network` section of `BENCH_2.json`
//! ([`merge_service_network`]) and is gated by `scripts/check_perf.py`.
//!
//! Two modes:
//!
//! * **In-process** (default): starts its own [`Server`] on an ephemeral
//!   loopback port, so it also controls the config for the deterministic
//!   shed probe (tiny per-tenant quota plus an injected handle delay).
//! * **External** (`external: Some(addr)`): drives an already-running
//!   `sag_server` booted with the same scenario/seed/fleet flags — the CI
//!   network-smoke job uses this against the real release binary. The
//!   metrics-consistency check assumes the server is freshly booted (its
//!   counters are cumulative); the shed probe is skipped because the
//!   server's quota config is not ours to set.
//!
//! With `shards > 1` the in-process server is a consistent-hash
//! [`sag_cluster`] deployment behind one listener (external mode expects a
//! server booted with the same `--shards`), and the report adds a
//! per-shard breakdown of the burst — tenants, alerts, client retries, and
//! latency percentiles per shard — grouped by the same hash the server
//! routes with. The scraped identities are cluster-wide aggregates either
//! way.

use crate::report::Json;
use sag_cluster::ShardRouter;
use sag_net::{
    fetch_metrics, parse_metric, ChaosPlan, ChaosProxy, Client, ClientConfig, Direction, Fault,
    RandomChaos, RetryPolicy, Server, ServerConfig, WireError,
};
use sag_scenarios::{
    find_scenario, tenant_fleet, tenant_fleet_cluster_parts, tenant_fleet_parts, FleetTenant,
    ReplayOptions,
};
use sag_service::{Request, Response};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What to drive and where.
#[derive(Debug, Clone)]
pub struct NetLoadConfig {
    /// Registered scenario name (see `sag_scenarios::registry`).
    pub scenario: String,
    /// Base seed; tenant `t` generates its stream from `seed + t`.
    pub seed: u64,
    /// Number of tenants, each on its own connection and client thread.
    pub tenants: usize,
    /// Days registered as history at fleet build time.
    pub history_days: u32,
    /// Days driven over the wire per tenant.
    pub test_days: u32,
    /// Shard count of the server: in-process mode starts a consistent-hash
    /// cluster of this many `AuditService` shards behind the one listener;
    /// external mode must match the `--shards` the server was booted with
    /// (it only affects the per-shard breakdown, not the identities).
    pub shards: usize,
    /// Drive this already-running server instead of starting one.
    pub external: Option<String>,
}

impl NetLoadConfig {
    /// The `BENCH_2.json` configuration: 4 tenants x 2 days of the paper
    /// baseline, served in-process.
    #[must_use]
    pub fn bench(seed: u64) -> NetLoadConfig {
        NetLoadConfig {
            scenario: "paper-baseline".to_owned(),
            seed,
            tenants: 4,
            history_days: 5,
            test_days: 2,
            shards: 1,
            external: None,
        }
    }
}

/// Round-trip latency percentiles over every `PushAlert` call, microseconds.
#[derive(Debug, Clone, Copy)]
pub struct LatencyMicros {
    /// Median round trip.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Worst observed round trip.
    pub max: f64,
}

/// Outcome of the deterministic over-quota flood (in-process mode only).
#[derive(Debug, Clone, Copy)]
pub struct ShedProbeReport {
    /// Pipelined pushes sent without reading replies.
    pub burst: usize,
    /// The per-tenant pending quota the probe server enforced.
    pub quota: usize,
    /// Replies that were structured `Overloaded` sheds.
    pub shed: usize,
    /// Replies that were served decisions.
    pub served: usize,
    /// Shed pushes that succeeded on retry once the backlog drained.
    pub retried_ok: usize,
}

/// One shard's slice of the measured burst, grouped by the same
/// consistent hash the server routes with.
#[derive(Debug, Clone, Copy)]
pub struct ShardLoadReport {
    /// Shard index.
    pub shard: usize,
    /// Tenants the hash placed on this shard.
    pub tenants: usize,
    /// Alerts those tenants pushed.
    pub alerts: u64,
    /// Client retries (sheds and transport errors) those tenants absorbed;
    /// 0 in a clean burst.
    pub shed_retries: u64,
    /// Median push round trip for this shard's tenants, microseconds.
    pub p50_micros: f64,
    /// 99th-percentile push round trip for this shard's tenants.
    pub p99_micros: f64,
}

/// Everything the load run measured; rendered into `BENCH_2.json` by
/// [`merge_service_network`].
#[derive(Debug, Clone)]
pub struct NetLoadReport {
    /// Scenario driven.
    pub scenario: String,
    /// Concurrent tenants (= connections = client threads).
    pub tenants: usize,
    /// Shards the fleet was consistent-hashed across (1 = unsharded).
    pub shards: usize,
    /// Days driven per tenant.
    pub days_per_tenant: u32,
    /// Alerts pushed and answered across all tenants.
    pub alerts: u64,
    /// Total protocol requests (opens + pushes + closes).
    pub requests: u64,
    /// Wall-clock of the measured burst, seconds.
    pub wall_seconds: f64,
    /// Sustained decision throughput over the wire.
    pub alerts_per_sec: f64,
    /// Per-decision round-trip latency percentiles.
    pub latency: LatencyMicros,
    /// The burst broken down per shard (one entry when unsharded).
    pub per_shard: Vec<ShardLoadReport>,
    /// Shed-probe outcome; `None` in external mode.
    pub shed_probe: Option<ShedProbeReport>,
    /// Every scraped-counter identity held (see `metrics_notes`).
    pub metrics_consistent: bool,
    /// Human-readable description of each violated identity; empty when
    /// `metrics_consistent`.
    pub metrics_notes: Vec<String>,
    /// `available_parallelism` on the measuring host.
    pub threads_available: usize,
}

/// Run the load: measured burst, metrics scrape, and (in-process) the shed
/// probe.
///
/// # Errors
///
/// A human-readable description of the first failure: an unknown scenario,
/// a fleet/bind error, a connection failure, or a wire-level protocol
/// violation (a shed that never happened, a retry that never landed, a day
/// result whose length disagrees with what was pushed).
pub fn run_network_load(config: &NetLoadConfig) -> Result<NetLoadReport, String> {
    let scenario = find_scenario(&config.scenario)
        .ok_or_else(|| format!("unknown scenario {:?}", config.scenario))?;
    let shards = config.shards.max(1);
    let (builder, tenants) = tenant_fleet_cluster_parts(
        scenario.as_ref(),
        &ReplayOptions::with_layout(
            scenario.as_ref(),
            config.seed,
            config.history_days,
            config.test_days,
        ),
        config.tenants,
        shards,
    );

    // Budgets are precomputed so the worker threads never touch the
    // scenario object.
    let budgets: Vec<Vec<Option<f64>>> = tenants
        .iter()
        .map(|t| {
            t.test_days
                .iter()
                .map(|d| scenario.budget_for_day(d.day()))
                .collect()
        })
        .collect();

    // In-process mode owns a server for the measured burst; external mode
    // borrows yours. Either way the fleet is the same, and a 1-shard
    // cluster is bitwise the plain server.
    let mut own_server = None;
    let addr = match &config.external {
        Some(addr) => addr.clone(),
        None => {
            let cluster = builder
                .build()
                .map_err(|e| format!("fleet build failed: {e}"))?;
            let server = Server::start_cluster(cluster, "127.0.0.1:0", ServerConfig::default())
                .map_err(|e| format!("server start failed: {e}"))?;
            let addr = server.local_addr().to_string();
            own_server = Some(server);
            addr
        }
    };

    let (bursts, wall_seconds) = measured_burst(&addr, &tenants, &budgets)?;
    let alerts: u64 = bursts.iter().map(|b| b.alerts).sum();
    let requests: u64 = bursts.iter().map(|b| b.requests).sum();
    let latencies: Vec<u64> = bursts.iter().flat_map(|b| b.latencies.clone()).collect();

    // Group the burst by the same hash the server routes with, so the
    // per-shard breakdown matches the server's actual placement.
    let router = ShardRouter::new(shards);
    let per_shard: Vec<ShardLoadReport> = (0..shards)
        .map(|shard| {
            let mut shard_latencies: Vec<u64> = Vec::new();
            let (mut shard_tenants, mut shard_alerts, mut shed_retries) = (0usize, 0u64, 0u64);
            for (tenant, burst) in tenants.iter().zip(&bursts) {
                if router.shard_for(&tenant.id) == shard {
                    shard_tenants += 1;
                    shard_alerts += burst.alerts;
                    shed_retries += burst.retries;
                    shard_latencies.extend_from_slice(&burst.latencies);
                }
            }
            shard_latencies.sort_unstable();
            let pct = |p: f64| -> f64 {
                if shard_latencies.is_empty() {
                    return 0.0;
                }
                let idx = ((shard_latencies.len() as f64 - 1.0) * p).round() as usize;
                shard_latencies[idx] as f64
            };
            ShardLoadReport {
                shard,
                tenants: shard_tenants,
                alerts: shard_alerts,
                shed_retries,
                p50_micros: pct(0.50),
                p99_micros: pct(0.99),
            }
        })
        .collect();

    // Scrape over the wire — the same endpoint an operator's curl hits —
    // and check the counters against what we know we sent. Every violated
    // identity is recorded; `check_perf.py` treats any as a hard failure.
    let mut notes = Vec::new();
    let page = fetch_metrics(&addr).map_err(|e| format!("metrics scrape failed: {e}"))?;
    let metric = |name: &str| parse_metric(&page, name);
    let days = (config.tenants as u64) * u64::from(config.test_days);
    let expected = [
        ("sag_requests_total", requests as f64),
        ("sag_alerts_total", alerts as f64),
        ("sag_days_opened_total", days as f64),
        ("sag_days_closed_total", days as f64),
        ("sag_errors_total", 0.0),
        ("sag_frames_in_total", requests as f64),
        ("sag_frames_out_total", requests as f64),
        ("sag_shed_total", 0.0),
        ("sag_queue_depth", 0.0),
        ("sag_dup_suppressed_total", 0.0),
        ("sag_dup_replayed_total", 0.0),
    ];
    for (name, want) in expected {
        match metric(name) {
            Some(got) if (got - want).abs() < 1e-9 => {}
            Some(got) => notes.push(format!("{name} = {got}, expected {want}")),
            None => notes.push(format!("{name} missing from the metrics page")),
        }
    }
    let per_tenant: f64 = tenants
        .iter()
        .map(|t| metric(&format!("sag_tenant_alerts_total{{tenant=\"{}\"}}", t.id)).unwrap_or(-1.0))
        .sum();
    if (per_tenant - alerts as f64).abs() > 1e-9 {
        notes.push(format!(
            "per-tenant alert counts sum to {per_tenant}, expected {alerts}"
        ));
    }
    drop(own_server);

    // The shed probe needs to own the server config (a 2-deep quota and an
    // injected service delay make the flood deterministic), so it only
    // runs in-process, on a fresh fleet.
    let shed_probe = match config.external {
        Some(_) => None,
        None => Some(run_shed_probe(config)?),
    };

    let mut sorted = latencies;
    sorted.sort_unstable();
    let pct = |p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
        sorted[idx] as f64
    };
    Ok(NetLoadReport {
        scenario: config.scenario.clone(),
        tenants: config.tenants,
        shards,
        days_per_tenant: config.test_days,
        alerts,
        requests,
        wall_seconds,
        alerts_per_sec: alerts as f64 / wall_seconds.max(1e-9),
        latency: LatencyMicros {
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: sorted.last().copied().unwrap_or(0) as f64,
        },
        per_shard,
        shed_probe,
        metrics_consistent: notes.is_empty(),
        metrics_notes: notes,
        threads_available: std::thread::available_parallelism().map_or(1, usize::from),
    })
}

/// One tenant's slice of the measured burst.
struct TenantBurst {
    latencies: Vec<u64>,
    alerts: u64,
    requests: u64,
    /// Client-side retries the tenant needed (sheds + transport errors).
    retries: u64,
}

/// One client thread per tenant, synchronized on a barrier; returns each
/// tenant's push latencies/totals (in fleet order) and the burst
/// wall-clock.
fn measured_burst(
    addr: &str,
    tenants: &[FleetTenant],
    budgets: &[Vec<Option<f64>>],
) -> Result<(Vec<TenantBurst>, f64), String> {
    let barrier = Barrier::new(tenants.len() + 1);
    let mut bursts = Vec::with_capacity(tenants.len());
    let mut wall_seconds = 0.0;
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for (tenant, tenant_budgets) in tenants.iter().zip(budgets) {
            let barrier = &barrier;
            handles.push(scope.spawn(move || -> Result<TenantBurst, String> {
                // Connect *before* the barrier but fail *after* it: every
                // thread must reach the barrier exactly once or the rest of
                // the fleet (and the main thread) deadlocks on it.
                let connected = Client::connect(addr, tenant.id.clone());
                barrier.wait();
                let mut client = connected.map_err(|e| format!("{}: connect: {e}", tenant.id))?;
                let mut latencies = Vec::new();
                let mut alerts = 0u64;
                let mut requests = 0u64;
                for (day, budget) in tenant.test_days.iter().zip(tenant_budgets) {
                    let session = client
                        .open_day(*budget, Some(day.day()))
                        .map_err(|e| format!("{}: open day {}: {e}", tenant.id, day.day()))?;
                    for alert in day.alerts() {
                        let start = Instant::now();
                        let outcome = client
                            .push_alert(session, alert)
                            .map_err(|e| format!("{}: push: {e}", tenant.id))?;
                        latencies.push(start.elapsed().as_micros() as u64);
                        if !outcome.ossp_scheme.is_valid() {
                            return Err(format!("{}: invalid signaling scheme served", tenant.id));
                        }
                    }
                    let result = client
                        .finish_day(session)
                        .map_err(|e| format!("{}: finish day {}: {e}", tenant.id, day.day()))?;
                    if result.len() != day.len() {
                        return Err(format!(
                            "{}: day {} closed with {} outcomes, pushed {}",
                            tenant.id,
                            day.day(),
                            result.len(),
                            day.len()
                        ));
                    }
                    alerts += day.len() as u64;
                    requests += day.len() as u64 + 2;
                }
                let retries = client.stats().retries;
                Ok(TenantBurst {
                    latencies,
                    alerts,
                    requests,
                    retries,
                })
            }));
        }
        barrier.wait();
        let start = Instant::now();
        for handle in handles {
            bursts.push(
                handle
                    .join()
                    .map_err(|_| "client thread panicked".to_owned())??,
            );
        }
        wall_seconds = start.elapsed().as_secs_f64();
        Ok(())
    })?;
    Ok((bursts, wall_seconds))
}

/// Flood one tenant past a 2-deep quota on a slowed service and verify the
/// contract: some pushes shed with structured `Overloaded`, some serve,
/// every shed push succeeds on retry, and the closed day accounts for all
/// of them.
fn run_shed_probe(config: &NetLoadConfig) -> Result<ShedProbeReport, String> {
    let scenario = find_scenario(&config.scenario)
        .ok_or_else(|| format!("unknown scenario {:?}", config.scenario))?;
    let fleet = tenant_fleet(
        scenario.as_ref(),
        &ReplayOptions::with_layout(scenario.as_ref(), config.seed, config.history_days, 1),
        1,
    )
    .map_err(|e| format!("shed-probe fleet build failed: {e}"))?;
    let quota = 2usize;
    let server = Server::start(
        fleet.service,
        "127.0.0.1:0",
        ServerConfig {
            queue_capacity: 256,
            tenant_pending_limit: quota,
            handle_delay: Some(Duration::from_millis(10)),
        },
    )
    .map_err(|e| format!("shed-probe server start failed: {e}"))?;
    let tenant = &fleet.tenants[0];
    let day = &tenant.test_days[0];
    // The probe manages retries by hand — it *wants* to see raw
    // `Overloaded` replies — so it disables the client's own policy.
    let mut client = Client::connect_with(
        server.local_addr(),
        tenant.id.clone(),
        ClientConfig {
            retry: RetryPolicy::none(),
            ..ClientConfig::default()
        },
    )
    .map_err(|e| format!("shed-probe connect: {e}"))?;
    let session = client
        .open_day(scenario.budget_for_day(day.day()), Some(day.day()))
        .map_err(|e| format!("shed-probe open: {e}"))?;

    let burst: Vec<_> = day.alerts().iter().take(16).cloned().collect();
    for alert in &burst {
        client
            .send(&Request::PushAlert {
                session,
                alert: *alert,
            })
            .map_err(|e| format!("shed-probe send: {e}"))?;
    }
    let mut shed_indices = Vec::new();
    let mut served = 0usize;
    for (i, _) in burst.iter().enumerate() {
        let (_, reply) = client.recv().map_err(|e| format!("shed-probe recv: {e}"))?;
        match reply {
            Ok(Response::Decision { .. }) => served += 1,
            Err(WireError::Overloaded { .. }) => shed_indices.push(i),
            other => return Err(format!("shed-probe reply {i} was {other:?}")),
        }
    }
    let shed = shed_indices.len();
    if shed == 0 || served == 0 {
        return Err(format!(
            "shed probe inconclusive: {served} served, {shed} shed out of {} \
             (expected both kinds against a quota of {quota})",
            burst.len()
        ));
    }

    let mut retried_ok = 0usize;
    for &i in &shed_indices {
        let mut attempts = 0;
        loop {
            match client
                .call(&Request::PushAlert {
                    session,
                    alert: burst[i],
                })
                .map_err(|e| format!("shed-probe retry: {e}"))?
            {
                Ok(Response::Decision { .. }) => break,
                Err(WireError::Overloaded { .. }) => {
                    attempts += 1;
                    if attempts > 1000 {
                        return Err("shed-probe retry never admitted".to_owned());
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                other => return Err(format!("shed-probe retry answered {other:?}")),
            }
        }
        retried_ok += 1;
    }
    let result = client
        .finish_day(session)
        .map_err(|e| format!("shed-probe finish: {e}"))?;
    if result.len() != burst.len() {
        return Err(format!(
            "shed-probe day closed with {} outcomes, expected {}",
            result.len(),
            burst.len()
        ));
    }
    Ok(ShedProbeReport {
        burst: burst.len(),
        quota,
        shed,
        served,
        retried_ok,
    })
}

/// Configuration for the chaos leg: the same fleet convention as
/// [`NetLoadConfig`], plus seeded fault rates for the [`ChaosProxy`] the
/// traffic is pushed through.
#[derive(Debug, Clone)]
pub struct ChaosLoadConfig {
    /// Registered scenario name.
    pub scenario: String,
    /// Base seed; tenant `t` streams from `seed + t`.
    pub seed: u64,
    /// Number of tenants, each on its own proxied connection.
    pub tenants: usize,
    /// Days registered as history at fleet build time.
    pub history_days: u32,
    /// Days driven over the faulty wire per tenant.
    pub test_days: u32,
    /// Seed for the proxy's fault RNG (and, offset per tenant, for each
    /// client's backoff jitter).
    pub chaos_seed: u64,
    /// Probability any frame is delivered twice.
    pub duplicate_rate: f64,
    /// Probability any frame is held for [`delay`](Self::delay).
    pub delay_rate: f64,
    /// Injected latency spike.
    pub delay: Duration,
    /// Probability the connection is torn down instead of forwarding.
    pub reset_rate: f64,
}

impl ChaosLoadConfig {
    /// The `BENCH_2.json` chaos configuration: 2 tenants x 1 day of the
    /// paper baseline through 5% duplicates, 2% delays and 2% resets.
    #[must_use]
    pub fn bench(seed: u64) -> ChaosLoadConfig {
        ChaosLoadConfig {
            scenario: "paper-baseline".to_owned(),
            seed,
            tenants: 2,
            history_days: 5,
            test_days: 1,
            chaos_seed: seed ^ 0xC4A0_5EED,
            duplicate_rate: 0.05,
            delay_rate: 0.02,
            delay: Duration::from_millis(1),
            reset_rate: 0.02,
        }
    }
}

/// What the chaos leg measured; rendered into `BENCH_2.json` by
/// [`merge_service_chaos`] and gated by `scripts/check_perf.py`.
#[derive(Debug, Clone)]
pub struct ChaosLoadReport {
    /// Scenario driven.
    pub scenario: String,
    /// Concurrent tenants.
    pub tenants: usize,
    /// Days driven per tenant.
    pub days_per_tenant: u32,
    /// Alerts answered (goodput numerator) across all tenants.
    pub alerts: u64,
    /// Wall-clock of the faulty burst, seconds.
    pub wall_seconds: f64,
    /// Useful decisions per second *through the faults* — retries and
    /// replays are overhead, not goodput.
    pub goodput_alerts_per_sec: f64,
    /// Faults the proxy actually injected.
    pub faults_injected: u64,
    /// Client attempts beyond the first (transport + overload retries).
    pub retries: u64,
    /// Client reconnections after resets.
    pub reconnects: u64,
    /// Stale/duplicated replies the clients skipped.
    pub client_duplicates_skipped: u64,
    /// Server-side duplicate requests suppressed (replayed + stale).
    pub duplicates_suppressed: u64,
    /// Server-side duplicates answered from the dedup cache.
    pub duplicates_replayed: u64,
    /// Every tenant's every `CycleResult` matched the unfaulted control
    /// run bitwise.
    pub bitwise_equal: bool,
    /// The kill-and-recover probe converged: a WAL-backed server stopped
    /// mid-day, recovered, and the reconnecting client's final day result
    /// matched the control bitwise.
    pub recovery_converged: bool,
}

/// Wall-clock solve time is the one legitimately nondeterministic field;
/// zero it before bitwise comparison.
fn zero_solve_micros(result: &mut sag_core::CycleResult) {
    for outcome in &mut result.outcomes {
        outcome.solve_micros = 0;
    }
}

/// Drive the fleet in-process, no sockets — the ground truth the faulted
/// run must reproduce bitwise.
fn drive_control(config: &ChaosLoadConfig) -> Result<Vec<Vec<sag_core::CycleResult>>, String> {
    let scenario = find_scenario(&config.scenario)
        .ok_or_else(|| format!("unknown scenario {:?}", config.scenario))?;
    let fleet = tenant_fleet(
        scenario.as_ref(),
        &ReplayOptions::with_layout(
            scenario.as_ref(),
            config.seed,
            config.history_days,
            config.test_days,
        ),
        config.tenants,
    )
    .map_err(|e| format!("control fleet build failed: {e}"))?;
    let mut service = fleet.service;
    let mut all = Vec::with_capacity(fleet.tenants.len());
    for tenant in &fleet.tenants {
        let mut results = Vec::with_capacity(tenant.test_days.len());
        for day in &tenant.test_days {
            let session = match service
                .handle(Request::OpenDay {
                    tenant: tenant.id.clone(),
                    budget: scenario.budget_for_day(day.day()),
                    day: Some(day.day()),
                })
                .map_err(|e| format!("control open: {e}"))?
            {
                Response::DayOpened { session, .. } => session,
                other => return Err(format!("control open answered {other:?}")),
            };
            for alert in day.alerts() {
                service
                    .handle(Request::PushAlert {
                        session,
                        alert: *alert,
                    })
                    .map_err(|e| format!("control push: {e}"))?;
            }
            match service
                .handle(Request::FinishDay { session })
                .map_err(|e| format!("control finish: {e}"))?
            {
                Response::DayClosed { mut result, .. } => {
                    zero_solve_micros(&mut result);
                    results.push(result);
                }
                other => return Err(format!("control finish answered {other:?}")),
            }
        }
        all.push(results);
    }
    Ok(all)
}

/// The retry-happy client configuration every chaos leg uses: short
/// deadlines so blackholed frames fail fast, a deep retry budget so seeded
/// fault bursts cannot exhaust it, per-tenant jitter seeds.
fn chaos_client_config(chaos_seed: u64, tenant_index: u64) -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(3),
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        retry: RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
            jitter_seed: chaos_seed.wrapping_add(tenant_index),
        },
        reconnect: true,
    }
}

/// Run the chaos leg: the fleet through a fault-injecting proxy, compared
/// bitwise against an unfaulted in-process control run, plus the
/// kill-and-recover probe.
///
/// # Errors
///
/// A human-readable description of the first failure — including a call
/// that still failed after exhausting its retry budget, which under this
/// fault plan means the exactly-once machinery is broken.
pub fn run_chaos_load(config: &ChaosLoadConfig) -> Result<ChaosLoadReport, String> {
    let control = drive_control(config)?;

    let scenario = find_scenario(&config.scenario)
        .ok_or_else(|| format!("unknown scenario {:?}", config.scenario))?;
    let fleet = tenant_fleet(
        scenario.as_ref(),
        &ReplayOptions::with_layout(
            scenario.as_ref(),
            config.seed,
            config.history_days,
            config.test_days,
        ),
        config.tenants,
    )
    .map_err(|e| format!("chaos fleet build failed: {e}"))?;
    let budgets: Vec<Vec<Option<f64>>> = fleet
        .tenants
        .iter()
        .map(|t| {
            t.test_days
                .iter()
                .map(|d| scenario.budget_for_day(d.day()))
                .collect()
        })
        .collect();
    let server = Server::start(fleet.service, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("chaos server start failed: {e}"))?;
    // Scripted faults on early frames guarantee at least one retry and one
    // server-side replay per run, whatever the random draws do; the seeded
    // random rates supply the sustained noise.
    let plan = ChaosPlan::clean()
        .fault(Direction::ServerToClient, 2, Fault::Reset)
        .fault(Direction::ClientToServer, 5, Fault::Duplicate)
        .random(RandomChaos {
            seed: config.chaos_seed,
            duplicate_rate: config.duplicate_rate,
            delay_rate: config.delay_rate,
            delay: config.delay,
            reset_rate: config.reset_rate,
        });
    let proxy = ChaosProxy::start(server.local_addr(), plan)
        .map_err(|e| format!("chaos proxy start failed: {e}"))?;
    let proxy_addr = proxy.local_addr();

    let barrier = Barrier::new(fleet.tenants.len() + 1);
    let mut alerts = 0u64;
    let mut wall_seconds = 0.0;
    let mut stats_total = sag_net::ClientStats::default();
    let mut faulted: Vec<Vec<sag_core::CycleResult>> = Vec::new();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for (index, (tenant, tenant_budgets)) in fleet.tenants.iter().zip(&budgets).enumerate() {
            let barrier = &barrier;
            let chaos_seed = config.chaos_seed;
            handles.push(scope.spawn(
                move || -> Result<(Vec<sag_core::CycleResult>, sag_net::ClientStats, u64), String> {
                    let connected = Client::connect_with(
                        proxy_addr,
                        tenant.id.clone(),
                        chaos_client_config(chaos_seed, index as u64),
                    );
                    barrier.wait();
                    let mut client =
                        connected.map_err(|e| format!("{}: chaos connect: {e}", tenant.id))?;
                    let mut results = Vec::new();
                    let mut alerts = 0u64;
                    for (day, budget) in tenant.test_days.iter().zip(tenant_budgets) {
                        let session = client
                            .open_day(*budget, Some(day.day()))
                            .map_err(|e| format!("{}: chaos open: {e}", tenant.id))?;
                        for alert in day.alerts() {
                            client
                                .push_alert(session, alert)
                                .map_err(|e| format!("{}: chaos push: {e}", tenant.id))?;
                            alerts += 1;
                        }
                        let mut result = client
                            .finish_day(session)
                            .map_err(|e| format!("{}: chaos finish: {e}", tenant.id))?;
                        zero_solve_micros(&mut result);
                        results.push(result);
                    }
                    Ok((results, client.stats(), alerts))
                },
            ));
        }
        barrier.wait();
        let start = Instant::now();
        for handle in handles {
            let (results, stats, a) = handle
                .join()
                .map_err(|_| "chaos client thread panicked".to_owned())??;
            faulted.push(results);
            stats_total.retries += stats.retries;
            stats_total.reconnects += stats.reconnects;
            stats_total.duplicates_skipped += stats.duplicates_skipped;
            alerts += a;
        }
        wall_seconds = start.elapsed().as_secs_f64();
        Ok(())
    })?;

    let bitwise_equal = faulted == control;
    // Scrape the *server* directly (the proxy only speaks the frame
    // protocol) for the dedup counters.
    let page = fetch_metrics(server.local_addr().to_string())
        .map_err(|e| format!("chaos metrics scrape failed: {e}"))?;
    let duplicates_suppressed =
        parse_metric(&page, "sag_dup_suppressed_total").unwrap_or(0.0) as u64;
    let duplicates_replayed = parse_metric(&page, "sag_dup_replayed_total").unwrap_or(0.0) as u64;
    let faults_injected = proxy.faults_injected();
    drop(proxy);
    drop(server);

    let recovery_converged = run_recovery_probe(config)?;

    Ok(ChaosLoadReport {
        scenario: config.scenario.clone(),
        tenants: config.tenants,
        days_per_tenant: config.test_days,
        alerts,
        wall_seconds,
        goodput_alerts_per_sec: alerts as f64 / wall_seconds.max(1e-9),
        faults_injected,
        retries: stats_total.retries,
        reconnects: stats_total.reconnects,
        client_duplicates_skipped: stats_total.duplicates_skipped,
        duplicates_suppressed,
        duplicates_replayed,
        bitwise_equal,
        recovery_converged,
    })
}

/// Kill-and-recover, in process: a WAL-backed single-tenant server is
/// stopped mid-day (stop is crash-equivalent — the WAL is a synchronous
/// log-before-ack), recovered from its directory onto a fresh port, and
/// the proxy repointed; the same client then finishes the day through its
/// automatic reconnect. Converged means the final result matches the
/// unfaulted control bitwise.
fn run_recovery_probe(config: &ChaosLoadConfig) -> Result<bool, String> {
    let control_config = ChaosLoadConfig {
        tenants: 1,
        test_days: 1,
        ..config.clone()
    };
    let control = drive_control(&control_config)?;
    let scenario = find_scenario(&config.scenario)
        .ok_or_else(|| format!("unknown scenario {:?}", config.scenario))?;

    let wal_dir = std::env::temp_dir().join(format!(
        "sag_chaos_recovery_{}_{}",
        std::process::id(),
        config.seed
    ));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let (builder, tenants) = tenant_fleet_parts(
        scenario.as_ref(),
        &ReplayOptions::with_layout(scenario.as_ref(), config.seed, config.history_days, 1),
        1,
    );
    let service = builder
        .durable(&wal_dir)
        .build()
        .map_err(|e| format!("recovery probe build failed: {e}"))?;
    let tenant = &tenants[0];
    let day = &tenant.test_days[0];
    let budget = scenario.budget_for_day(day.day());

    let server = Server::start(service, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("recovery probe server start failed: {e}"))?;
    let proxy = ChaosProxy::start(server.local_addr(), ChaosPlan::clean())
        .map_err(|e| format!("recovery probe proxy start failed: {e}"))?;
    let mut client = Client::connect_with(
        proxy.local_addr(),
        tenant.id.clone(),
        chaos_client_config(config.chaos_seed, 0),
    )
    .map_err(|e| format!("recovery probe connect: {e}"))?;

    let session = client
        .open_day(budget, Some(day.day()))
        .map_err(|e| format!("recovery probe open: {e}"))?;
    let alerts = day.alerts();
    let split = alerts.len() / 2;
    for alert in &alerts[..split] {
        client
            .push_alert(session, alert)
            .map_err(|e| format!("recovery probe push: {e}"))?;
    }

    // Crash: tear the server down mid-day with the session open...
    drop(server);
    // ...recover the exact state from the WAL onto a fresh port...
    let (builder, _) = tenant_fleet_parts(
        scenario.as_ref(),
        &ReplayOptions::with_layout(scenario.as_ref(), config.seed, config.history_days, 1),
        1,
    );
    let recovered = builder
        .recover_from(&wal_dir)
        .map_err(|e| format!("recovery probe recover failed: {e}"))?;
    let server = Server::start(recovered, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("recovery probe restart failed: {e}"))?;
    proxy
        .set_upstream(server.local_addr())
        .map_err(|e| format!("recovery probe repoint failed: {e}"))?;

    // ...and keep pushing: the first call rides the dead connection, fails,
    // and the client reconnects through the proxy to the restarted server.
    for alert in &alerts[split..] {
        client
            .push_alert(session, alert)
            .map_err(|e| format!("recovery probe post-crash push: {e}"))?;
    }
    let mut result = client
        .finish_day(session)
        .map_err(|e| format!("recovery probe finish: {e}"))?;
    zero_solve_micros(&mut result);

    drop(proxy);
    drop(server);
    let _ = std::fs::remove_dir_all(&wal_dir);

    if client.stats().reconnects == 0 {
        return Err(
            "recovery probe never reconnected — the crash leg did not exercise \
             the client"
                .to_owned(),
        );
    }
    Ok(result == control[0][0])
}

/// Outcome of the external [`run_kill_recover`] leg.
#[derive(Debug, Clone, Copy)]
pub struct KillRecoverReport {
    /// Alerts acknowledged before the SIGKILL.
    pub alerts_before_kill: u64,
    /// Client reconnects while following the server across the restart.
    pub reconnects: u64,
    /// The post-recovery day result matched the unfaulted control bitwise.
    pub converged: bool,
}

/// Kill-and-recover against the *real release binary*: boot `server_bin`
/// with a WAL directory, drive half a day, SIGKILL it mid-stream, boot a
/// second copy with `--recover` on a fresh port, and redial the same client
/// (same request-id sequence). Convergence means the day's final result is
/// bitwise identical to an unfaulted in-process run.
///
/// # Errors
///
/// A human-readable description of the first failure: spawn/parse trouble,
/// a call that exhausted its retries, or a client that never reconnected.
pub fn run_kill_recover(
    config: &ChaosLoadConfig,
    server_bin: &str,
) -> Result<KillRecoverReport, String> {
    let control_config = ChaosLoadConfig {
        tenants: 1,
        test_days: 1,
        ..config.clone()
    };
    let control = drive_control(&control_config)?;
    let scenario = find_scenario(&config.scenario)
        .ok_or_else(|| format!("unknown scenario {:?}", config.scenario))?;
    let tenant_id = sag_service::TenantId::new(format!("{}-t0", config.scenario));
    let days = {
        let mut days = scenario.generate_days(config.seed, config.history_days + 1);
        days.split_off(config.history_days as usize)
    };
    let day = &days[0];
    let budget = scenario.budget_for_day(day.day());

    let wal_dir = std::env::temp_dir().join(format!(
        "sag_kill_recover_{}_{}",
        std::process::id(),
        config.seed
    ));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).map_err(|e| format!("wal dir create failed: {e}"))?;
    let wal_flag = wal_dir.to_string_lossy().into_owned();
    let spawn = |recover: bool| -> Result<(std::process::Child, String), String> {
        let mut cmd = std::process::Command::new(server_bin);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--scenario",
            &config.scenario,
            "--tenants",
            "1",
            "--seed",
            &config.seed.to_string(),
            "--history-days",
            &config.history_days.to_string(),
            "--test-days",
            "1",
            "--wal-dir",
            &wal_flag,
        ]);
        if recover {
            cmd.arg("--recover");
        }
        let mut child = cmd
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("failed to spawn {server_bin}: {e}"))?;
        let stdout = child.stdout.take().ok_or("no child stdout")?;
        let mut line = String::new();
        std::io::BufRead::read_line(&mut std::io::BufReader::new(stdout), &mut line)
            .map_err(|e| format!("failed to read the server's banner: {e}"))?;
        let addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unparseable server banner {line:?}"))?
            .to_owned();
        Ok((child, addr))
    };

    let (mut child, addr) = spawn(false)?;
    let run = (|| -> Result<KillRecoverReport, String> {
        let mut client = Client::connect_with(
            addr.as_str(),
            tenant_id.clone(),
            chaos_client_config(config.chaos_seed, 0),
        )
        .map_err(|e| format!("kill leg connect: {e}"))?;
        let session = client
            .open_day(budget, Some(day.day()))
            .map_err(|e| format!("kill leg open: {e}"))?;
        let alerts = day.alerts();
        let split = alerts.len() / 2;
        for alert in &alerts[..split] {
            client
                .push_alert(session, alert)
                .map_err(|e| format!("kill leg push: {e}"))?;
        }

        // SIGKILL mid-burst: no drop handlers, no flush, no goodbye.
        child
            .kill()
            .map_err(|e| format!("failed to kill the server: {e}"))?;
        let _ = child.wait();

        let (recovered, new_addr) = spawn(true)?;
        child = recovered;
        client
            .redial(new_addr.as_str())
            .map_err(|e| format!("kill leg redial: {e}"))?;
        for alert in &alerts[split..] {
            client
                .push_alert(session, alert)
                .map_err(|e| format!("kill leg post-recovery push: {e}"))?;
        }
        let mut result = client
            .finish_day(session)
            .map_err(|e| format!("kill leg finish: {e}"))?;
        zero_solve_micros(&mut result);

        if client.stats().reconnects == 0 {
            return Err("kill leg never reconnected".to_owned());
        }
        Ok(KillRecoverReport {
            alerts_before_kill: split as u64,
            reconnects: client.stats().reconnects,
            converged: result == control[0][0],
        })
    })();
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&wal_dir);
    run
}

impl NetLoadReport {
    /// The `service_network` section of `BENCH_2.json`. The per-shard
    /// breakdown appears only for a sharded run, the shed probe only when
    /// it ran, and the notes only when an identity was violated.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let per_shard = (self.shards > 1).then(|| {
            let shards = self.per_shard.iter().map(|s| {
                Json::object()
                    .field("shard", s.shard)
                    .field("tenants", s.tenants)
                    .field("alerts", s.alerts)
                    .field("shed_retries", s.shed_retries)
                    .fixed("p50_micros", s.p50_micros, 1)
                    .fixed("p99_micros", s.p99_micros, 1)
            });
            shards.collect::<Vec<_>>()
        });
        let shed_probe = self.shed_probe.map(|probe| {
            Json::object()
                .field("burst", probe.burst)
                .field("quota", probe.quota)
                .field("shed", probe.shed)
                .field("served", probe.served)
                .field("retried_ok", probe.retried_ok)
        });
        let notes = (!self.metrics_notes.is_empty()).then(|| {
            self.metrics_notes
                .iter()
                .map(|n| n.as_str().into())
                .collect::<Vec<Json>>()
        });
        Json::object()
            .field("scenario", self.scenario.as_str())
            .field("tenants", self.tenants)
            .field("shards", self.shards)
            .field("days_per_tenant", self.days_per_tenant)
            .field("alerts", self.alerts)
            .field("requests", self.requests)
            .fixed("wall_seconds", self.wall_seconds, 6)
            .fixed("alerts_per_sec", self.alerts_per_sec, 2)
            .field(
                "latency_micros",
                Json::object()
                    .fixed("p50", self.latency.p50, 1)
                    .fixed("p95", self.latency.p95, 1)
                    .fixed("p99", self.latency.p99, 1)
                    .fixed("max", self.latency.max, 1),
            )
            .maybe("per_shard", per_shard)
            .maybe("shed_probe", shed_probe)
            .field("metrics_consistent", self.metrics_consistent)
            .maybe("metrics_notes", notes)
            .field("threads_available", self.threads_available)
    }
}

impl ChaosLoadReport {
    /// The `service_chaos` section of `BENCH_2.json`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .field("scenario", self.scenario.as_str())
            .field("tenants", self.tenants)
            .field("days_per_tenant", self.days_per_tenant)
            .field("alerts", self.alerts)
            .fixed("wall_seconds", self.wall_seconds, 6)
            .fixed("goodput_alerts_per_sec", self.goodput_alerts_per_sec, 2)
            .field("faults_injected", self.faults_injected)
            .field("retries", self.retries)
            .field("reconnects", self.reconnects)
            .field("client_duplicates_skipped", self.client_duplicates_skipped)
            .field("duplicates_suppressed", self.duplicates_suppressed)
            .field("duplicates_replayed", self.duplicates_replayed)
            .field("bitwise_equal", self.bitwise_equal)
            .field("recovery_converged", self.recovery_converged)
    }
}

/// Merge the report into `path` as the top-level `"service_network"` key.
///
/// The file is the `BENCH_2.json` written by `repro_scenarios`; an existing
/// `"service_network"` member (from a previous merge) is replaced. When the
/// file does not exist, a minimal document holding only this section is
/// written, so the CI network-smoke job can gate the section without
/// rerunning the whole scenario suite.
///
/// # Errors
///
/// Propagates filesystem errors; rejects a file that does not look like a
/// JSON object.
pub fn merge_service_network(path: &str, report: &NetLoadReport) -> std::io::Result<()> {
    merge_member(path, "service_network", &report.to_json())
}

/// Merge the chaos report into `path` as the top-level `"service_chaos"`
/// key; same document contract as [`merge_service_network`].
///
/// # Errors
///
/// Propagates filesystem errors; rejects a file that does not look like a
/// JSON object.
pub fn merge_service_chaos(path: &str, report: &ChaosLoadReport) -> std::io::Result<()> {
    merge_member(path, "service_chaos", &report.to_json())
}

/// Insert (or replace) one top-level object-valued member of the JSON
/// document at `path`, creating a minimal document when the file is
/// missing.
fn merge_member(path: &str, key: &str, section: &Json) -> std::io::Result<()> {
    let body = match std::fs::read_to_string(path) {
        Ok(text) => {
            let text = strip_member(text.trim_end(), key);
            let Some(close) = text.rfind('}') else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{path} is not a JSON object"),
                ));
            };
            let prefix = text[..close].trim_end();
            // An empty object gets no separating comma.
            let sep = if prefix.ends_with('{') { "\n" } else { ",\n" };
            format!("{prefix}{sep}  \"{key}\": {}\n}}\n", section.render_at(1))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let document = Json::object()
                .field("bench", "service_network_load")
                .field(key, section.clone());
            format!("{}\n", document.render())
        }
        Err(e) => return Err(e),
    };
    std::fs::write(path, body)
}

/// Remove an existing top-level object-valued member from the document
/// text, wherever it sits. Exactly one adjacent comma goes with it — the
/// one before the key when present, else the one after the member — so the
/// document stays valid whether the member was first, middle or last.
fn strip_member(text: &str, key: &str) -> String {
    let needle = format!("\"{key}\"");
    let Some(key_at) = text.find(&needle) else {
        return text.to_owned();
    };
    let Some(open) = text[key_at..].find('{').map(|i| key_at + i) else {
        return text.to_owned();
    };
    let mut depth = 0usize;
    let mut member_end = None;
    for (i, b) in text[open..].bytes().enumerate() {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    member_end = Some(open + i + 1);
                    break;
                }
            }
            _ => {}
        }
    }
    let Some(mut end) = member_end else {
        return text.to_owned();
    };
    let mut start = key_at;
    let before = text[..key_at].trim_end();
    if before.ends_with(',') {
        start = before.len() - 1;
    } else if let Some(rel) = text[end..].find(|c: char| !c.is_whitespace()) {
        if text.as_bytes()[end + rel] == b',' {
            end += rel + 1;
        }
    }
    format!("{}{}", &text[..start], &text[end..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> NetLoadReport {
        NetLoadReport {
            scenario: "paper-baseline".to_owned(),
            tenants: 2,
            shards: 1,
            days_per_tenant: 1,
            alerts: 100,
            requests: 104,
            wall_seconds: 0.5,
            alerts_per_sec: 200.0,
            latency: LatencyMicros {
                p50: 10.0,
                p95: 20.0,
                p99: 30.0,
                max: 40.0,
            },
            per_shard: vec![ShardLoadReport {
                shard: 0,
                tenants: 2,
                alerts: 100,
                shed_retries: 0,
                p50_micros: 10.0,
                p99_micros: 30.0,
            }],
            shed_probe: Some(ShedProbeReport {
                burst: 16,
                quota: 2,
                shed: 12,
                served: 4,
                retried_ok: 12,
            }),
            metrics_consistent: true,
            metrics_notes: Vec::new(),
            threads_available: 1,
        }
    }

    #[test]
    fn merge_inserts_and_replaces_the_section() {
        let dir = std::env::temp_dir().join("sag_netload_merge_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("bench2.json");
        let path = path.to_str().unwrap();
        std::fs::write(path, "{\n  \"bench\": \"x\",\n  \"scenarios\": [1, 2]\n}\n").unwrap();

        let mut report = sample_report();
        merge_service_network(path, &report).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains("\"service_network\": {"));
        assert!(text.contains("\"scenarios\": [1, 2]"));
        assert!(text.contains("\"metrics_consistent\": true"));
        assert_eq!(text.matches("\"alerts_per_sec\"").count(), 1);

        // A second merge replaces, never duplicates.
        report.alerts_per_sec = 999.0;
        merge_service_network(path, &report).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text.matches("\"service_network\"").count(), 1);
        assert!(text.contains("\"alerts_per_sec\": 999.00"));
        assert!(!text.contains(",\n,"), "double comma after strip");

        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn merge_creates_a_minimal_document_when_missing() {
        let dir = std::env::temp_dir().join("sag_netload_create_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("fresh.json");
        let _ = std::fs::remove_file(&path);
        let path = path.to_str().unwrap();
        merge_service_network(path, &sample_report()).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.starts_with("{\n  \"bench\": \"service_network_load\""));
        assert!(text.trim_end().ends_with('}'));
        let _ = std::fs::remove_file(path);
    }

    fn sample_chaos_report() -> ChaosLoadReport {
        ChaosLoadReport {
            scenario: "paper-baseline".to_owned(),
            tenants: 2,
            days_per_tenant: 1,
            alerts: 200,
            wall_seconds: 1.0,
            goodput_alerts_per_sec: 200.0,
            faults_injected: 9,
            retries: 3,
            reconnects: 2,
            client_duplicates_skipped: 4,
            duplicates_suppressed: 3,
            duplicates_replayed: 3,
            bitwise_equal: true,
            recovery_converged: true,
        }
    }

    #[test]
    fn network_and_chaos_sections_merge_independently() {
        let dir = std::env::temp_dir().join("sag_netload_two_sections_test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("bench2.json");
        let path = path.to_str().unwrap();
        std::fs::write(path, "{\n  \"bench\": \"x\",\n  \"scenarios\": [1, 2]\n}\n").unwrap();

        merge_service_network(path, &sample_report()).unwrap();
        merge_service_chaos(path, &sample_chaos_report()).unwrap();
        // Re-merging the *earlier* member must replace it in place without
        // corrupting the later one — the old "section is always last"
        // assumption is exactly what this exercises.
        let mut network = sample_report();
        network.alerts_per_sec = 777.0;
        merge_service_network(path, &network).unwrap();

        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text.matches("\"service_network\"").count(), 1);
        assert_eq!(text.matches("\"service_chaos\"").count(), 1);
        assert!(text.contains("\"alerts_per_sec\": 777.00"));
        assert!(text.contains("\"recovery_converged\": true"));
        assert!(text.contains("\"scenarios\": [1, 2]"));
        assert!(!text.contains(",,"), "double comma after strip");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rendered_section_omits_probe_and_notes_when_absent() {
        let mut report = sample_report();
        report.shed_probe = None;
        report.metrics_consistent = false;
        report.metrics_notes = vec!["sag_shed_total = 1, expected 0".to_owned()];
        let json = report.to_json();
        assert_eq!(json.get("shed_probe"), None);
        assert_eq!(
            json.get("per_shard"),
            None,
            "unsharded report should omit the per-shard breakdown"
        );
        assert_eq!(json.get("metrics_consistent"), Some(&Json::Bool(false)));
        assert_eq!(
            json.get("metrics_notes"),
            Some(&Json::Array(vec!["sag_shed_total = 1, expected 0".into()]))
        );
    }

    #[test]
    fn sharded_section_renders_the_per_shard_breakdown() {
        let mut report = sample_report();
        report.shards = 2;
        report.per_shard = vec![
            ShardLoadReport {
                shard: 0,
                tenants: 1,
                alerts: 60,
                shed_retries: 0,
                p50_micros: 9.0,
                p99_micros: 25.0,
            },
            ShardLoadReport {
                shard: 1,
                tenants: 1,
                alerts: 40,
                shed_retries: 0,
                p50_micros: 11.0,
                p99_micros: 31.0,
            },
        ];
        let json = report.to_json();
        assert_eq!(json.get("shards"), Some(&Json::Int(2)));
        assert_eq!(json.get("per_shard.0.shed_retries"), Some(&Json::Int(0)));
        assert_eq!(json.get("per_shard.1.shed_retries"), Some(&Json::Int(0)));
        assert_eq!(json.get("per_shard.2"), None);
        assert_eq!(
            json.get("per_shard.1.p99_micros"),
            Some(&Json::Fixed(31.0, 1))
        );
    }
}
