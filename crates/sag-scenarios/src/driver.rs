//! Replays scenarios through the engine and aggregates the metrics
//! `BENCH_2.json` tracks.
//!
//! Three replay modes, all configured by one [`ReplayOptions`]:
//!
//! * [`run_scenario`] — the sharded batch driver
//!   ([`AuditCycleEngine::replay`]), which streams each recorded day
//!   through a [`sag_core::DaySession`] internally; the throughput path.
//! * [`stream_scenario`] — the explicit alert-at-a-time path: one
//!   [`sag_core::DaySession`] per day, one
//!   [`push_alert`](sag_core::engine::Session::push_alert) per alert, with
//!   the wall-clock decision latency of every push recorded. This is what a
//!   production deployment's ingest loop looks like, and what the streaming
//!   section of `BENCH_1.json` measures.
//! * [`run_scenario_service`] — the multi-tenant front-door path: the
//!   scenario instantiated as N tenants of one
//!   [`sag_service::AuditService`] (each tenant its own engine and alert
//!   stream), replayed concurrently over the service's worker pool. This is
//!   the service curve of the `scaling` section of `BENCH_2.json`, and —
//!   because every tenant's cycles are pure functions of its own stream —
//!   its results are bitwise identical to replaying each tenant serially.
//!
//! The fleet builders ([`tenant_fleet`], [`tenant_fleet_parts`],
//! [`tenant_fleet_cluster_parts`]) take the same [`ReplayOptions`], so a
//! fleet served over a socket or a cluster runs the engine configuration —
//! accounting mode included — that a replay of the same options runs.

use crate::scenario::Scenario;
use sag_cluster::ClusterBuilder;
use sag_core::engine::{AuditCycleEngine, EngineBuilder, EngineConfig, ReplayJob};
use sag_core::sse::SseCacheTotals;
use sag_core::{CycleResult, Result};
use sag_service::{AuditService, ServiceBuilder, ServiceError, ServiceJob, TenantId};
use sag_sim::{AlertLog, DayLog};
use std::time::Instant;

/// The outcome of replaying one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Registry name of the scenario.
    pub name: &'static str,
    /// Shard count the replay ran with.
    pub shards: usize,
    /// Wall-clock time of the sharded replay (excluding log generation).
    pub wall_seconds: f64,
    /// Per-day cycle results, in day order.
    pub cycles: Vec<CycleResult>,
}

impl ScenarioRun {
    /// Total alerts replayed.
    #[must_use]
    pub fn alerts(&self) -> usize {
        self.cycles.iter().map(CycleResult::len).sum()
    }

    /// End-to-end replay throughput in alerts per second.
    #[must_use]
    pub fn alerts_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.alerts() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Summed solver-work counters across all replayed days.
    #[must_use]
    pub fn sse_totals(&self) -> SseCacheTotals {
        let mut totals = SseCacheTotals::default();
        for c in &self.cycles {
            totals += c.sse_totals;
        }
        totals
    }

    /// Summed certified ε utility-loss bound across all replayed days
    /// (0.0 for exact runs).
    #[must_use]
    pub fn certified_eps_loss(&self) -> f64 {
        self.cycles.iter().map(|c| c.certified_eps_loss).sum()
    }

    /// Alert-weighted mean of a per-outcome quantity. Weighting by alert
    /// count means zero-alert days contribute nothing — empty days can never
    /// skew a scenario average (they would under a day-weighted mean).
    fn mean_outcome(&self, value: impl Fn(&sag_core::AlertOutcome) -> f64) -> f64 {
        let alerts = self.alerts();
        if alerts == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .cycles
            .iter()
            .flat_map(|c| c.outcomes.iter())
            .map(value)
            .sum();
        sum / alerts as f64
    }

    /// Mean per-alert auditor utility under the OSSP.
    #[must_use]
    pub fn mean_ossp(&self) -> f64 {
        self.mean_outcome(|o| o.ossp_utility)
    }

    /// Mean per-alert auditor utility under the online SSE.
    #[must_use]
    pub fn mean_online(&self) -> f64 {
        self.mean_outcome(|o| o.online_sse_utility)
    }

    /// Mean per-alert auditor utility under the offline SSE baseline.
    #[must_use]
    pub fn mean_offline(&self) -> f64 {
        self.mean_outcome(|o| o.offline_sse_utility)
    }

    /// Fraction of alerts where the OSSP is no worse than the online SSE.
    #[must_use]
    pub fn fraction_ossp_not_worse(&self) -> f64 {
        self.mean_outcome(|o| f64::from(u8::from(o.ossp_utility >= o.online_sse_utility - 1e-9)))
    }

    /// Fraction of alerts on which the OSSP fully deterred the attack.
    #[must_use]
    pub fn fraction_deterred(&self) -> f64 {
        self.mean_outcome(|o| f64::from(u8::from(o.ossp_deterred)))
    }
}

/// How a scenario is replayed: the seed of its alert stream, the
/// evaluation layout (`history_days` of fitted history ahead of each of
/// `test_days` rolling test days), and the engine configuration.
/// [`ReplayOptions::new`] takes the layout and configuration from the
/// scenario; benchmarks and equivalence tests edit the fields to flip
/// engine switches (pruning, ε, accounting) or resize the run.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Seed of the recorded stream. A service replay's tenant `t` streams
    /// `seed + t`.
    pub seed: u64,
    /// Days of history fitted ahead of each test day.
    pub history_days: u32,
    /// Rolling test days replayed.
    pub test_days: u32,
    /// Engine configuration every replayed day runs under.
    pub config: EngineConfig,
}

impl ReplayOptions {
    /// The scenario's own evaluation layout and engine configuration.
    #[must_use]
    pub fn new(scenario: &dyn Scenario, seed: u64) -> Self {
        ReplayOptions {
            seed,
            history_days: scenario.history_days(),
            test_days: scenario.test_days(),
            config: scenario.engine_config(),
        }
    }

    /// The scenario's engine configuration over an explicit evaluation
    /// layout: `history_days` of history ahead of `test_days` test days.
    #[must_use]
    pub fn with_layout(
        scenario: &dyn Scenario,
        seed: u64,
        history_days: u32,
        test_days: u32,
    ) -> Self {
        ReplayOptions {
            history_days,
            test_days,
            ..ReplayOptions::new(scenario, seed)
        }
    }

    /// The recorded log of stream `seed`: history and test days together.
    fn log(&self, scenario: &dyn Scenario, seed: u64) -> AlertLog {
        AlertLog::new(scenario.generate_days(seed, self.history_days + self.test_days))
    }

    /// Every test day of `log` against its preceding window of history,
    /// under the scenario's budget schedule.
    fn rolling_jobs<'a>(&self, scenario: &dyn Scenario, log: &'a AlertLog) -> Vec<ReplayJob<'a>> {
        log.rolling_groups(self.history_days as usize)
            .into_iter()
            .map(|(history, test_day)| ReplayJob {
                history,
                test_day,
                budget: scenario.budget_for_day(test_day.day()),
            })
            .collect()
    }
}

/// Replay `scenario` through the engine's batch
/// [`replay`](AuditCycleEngine::replay) over `shards` shards.
///
/// # Errors
///
/// Propagates engine construction and solver errors.
pub fn run_scenario(
    scenario: &dyn Scenario,
    options: &ReplayOptions,
    shards: usize,
) -> Result<ScenarioRun> {
    let engine = AuditCycleEngine::new(options.config.clone())?;
    let log = options.log(scenario, options.seed);
    let jobs = options.rolling_jobs(scenario, &log);

    let started = Instant::now();
    let cycles = engine.replay(&jobs, shards)?;
    let wall_seconds = started.elapsed().as_secs_f64();

    Ok(ScenarioRun {
        name: scenario.name(),
        shards,
        wall_seconds,
        cycles,
    })
}

/// A scenario streamed alert-by-alert through [`sag_core::DaySession`]s,
/// with the per-alert decision latency of every push recorded.
#[derive(Debug, Clone)]
pub struct StreamingRun {
    /// The batch-shaped view of the streamed replay (always 1 shard).
    pub run: ScenarioRun,
    /// Wall-clock latency of each [`push_alert`](sag_core::DaySession::push_alert)
    /// call, in nanoseconds, in arrival order across all replayed days. This
    /// is the full decision latency — forecast update, SSE solve,
    /// signaling scheme, budget charge — not just the solve time the
    /// [`sag_core::AlertOutcome::solve_micros`] field records.
    pub push_nanos: Vec<u64>,
}

/// Stream `scenario` alert-at-a-time: open a [`sag_core::DaySession`] per
/// test day, push every alert of the recorded day individually, and time
/// each push.
///
/// The resulting [`CycleResult`]s are bitwise identical to
/// [`run_scenario`] at any shard count — the batch driver streams the same
/// sessions — so this mode only adds the latency telemetry.
///
/// # Errors
///
/// Propagates engine construction and solver errors.
pub fn stream_scenario(scenario: &dyn Scenario, options: &ReplayOptions) -> Result<StreamingRun> {
    let engine = AuditCycleEngine::new(options.config.clone())?;
    let log = options.log(scenario, options.seed);
    let jobs = options.rolling_jobs(scenario, &log);

    let mut cycles = Vec::with_capacity(jobs.len());
    let mut push_nanos = Vec::with_capacity(log.total_alerts());
    let started = Instant::now();
    for job in &jobs {
        let mut session = engine.open_day(job.history, job.budget)?;
        session.set_day(job.test_day.day());
        for alert in job.test_day.alerts() {
            let arrived = Instant::now();
            session.push_alert(alert)?;
            push_nanos.push(arrived.elapsed().as_nanos() as u64);
        }
        cycles.push(session.finish());
    }
    let wall_seconds = started.elapsed().as_secs_f64();

    Ok(StreamingRun {
        run: ScenarioRun {
            name: scenario.name(),
            shards: 1,
            wall_seconds,
            cycles,
        },
        push_nanos,
    })
}

/// A scenario replayed as N concurrent tenants of one
/// [`sag_service::AuditService`]: each tenant gets its own engine and its
/// own seeded alert stream, and every tenant-day replays as one
/// [`ServiceJob`] over the service's worker pool.
#[derive(Debug, Clone)]
pub struct ServiceRun {
    /// Registry name of the scenario.
    pub name: &'static str,
    /// Number of tenants the service multiplexed.
    pub tenants: usize,
    /// Worker threads of the service pool (0 = inline serial replay).
    pub workers: usize,
    /// Wall-clock time of the concurrent replay (excluding log generation
    /// and service construction).
    pub wall_seconds: f64,
    /// Per-tenant, per-day cycle results: `cycles[t]` holds tenant `t`'s
    /// days in day order.
    pub cycles: Vec<Vec<CycleResult>>,
}

impl ServiceRun {
    /// Total alerts replayed across all tenants.
    #[must_use]
    pub fn alerts(&self) -> usize {
        self.cycles.iter().flatten().map(CycleResult::len).sum()
    }

    /// End-to-end service throughput in alerts per second.
    #[must_use]
    pub fn alerts_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.alerts() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Replay `scenario` as `tenants` concurrent tenants of one service over
/// `workers` pool threads (0 = inline serial replay), each tenant on its
/// own stream seeded `options.seed + tenant_index`.
///
/// # Errors
///
/// Propagates service construction and engine errors.
pub fn run_scenario_service(
    scenario: &dyn Scenario,
    options: &ReplayOptions,
    tenants: usize,
    workers: usize,
) -> std::result::Result<ServiceRun, ServiceError> {
    let tenant_ids: Vec<TenantId> = (0..tenants).map(|t| tenant_id(scenario, t)).collect();
    let mut builder = AuditService::builder().workers(workers);
    for id in &tenant_ids {
        // History rides on the jobs (it varies per rolling group), so the
        // tenants register with empty stored history.
        builder = builder.tenant(
            id.clone(),
            EngineBuilder::from_config(options.config.clone()),
        );
    }
    let service = builder.build()?;

    // Each tenant audits its own alert stream: same regime, distinct seed.
    let logs: Vec<AlertLog> = (0..tenants)
        .map(|t| options.log(scenario, options.seed + t as u64))
        .collect();
    let tenant_jobs: Vec<Vec<ReplayJob<'_>>> = logs
        .iter()
        .map(|log| options.rolling_jobs(scenario, log))
        .collect();
    let jobs: Vec<ServiceJob<'_>> = tenant_ids
        .iter()
        .zip(&tenant_jobs)
        .flat_map(|(id, jobs)| {
            jobs.iter().map(move |job| ServiceJob {
                tenant: id,
                test_day: job.test_day,
                budget: job.budget,
                history: Some(job.history),
            })
        })
        .collect();

    let started = Instant::now();
    let mut flat = service.replay_concurrent(&jobs)?;
    let wall_seconds = started.elapsed().as_secs_f64();

    // Un-flatten the job-ordered results back into per-tenant day vectors
    // (jobs were emitted tenant-major).
    let mut cycles = Vec::with_capacity(tenants);
    for jobs in &tenant_jobs {
        let rest = flat.split_off(jobs.len());
        cycles.push(flat);
        flat = rest;
    }

    Ok(ServiceRun {
        name: scenario.name(),
        tenants,
        workers: service.workers(),
        wall_seconds,
        cycles,
    })
}

/// Tenant `t`'s service id: `"{scenario}-t{t}"`.
fn tenant_id(scenario: &dyn Scenario, t: usize) -> TenantId {
    TenantId::new(format!("{}-t{t}", scenario.name()))
}

/// One tenant of a [`TenantFleet`]: its id and the recorded test days a
/// client should stream at the service.
#[derive(Debug, Clone)]
pub struct FleetTenant {
    /// The tenant's service id (`"{scenario}-t{index}"`).
    pub id: TenantId,
    /// The tenant's test days, in day order (history is already registered
    /// on the service).
    pub test_days: Vec<sag_sim::DayLog>,
}

/// A scenario instantiated as a multi-tenant [`AuditService`] plus the
/// per-tenant alert streams to drive at it — the shared setup of the
/// `sag-net` server binary, the network load generator, and the loopback
/// equivalence tests.
///
/// Tenant `t` is named `"{scenario}-t{t}"`, runs the options' engine
/// configuration and streams days seeded `options.seed + t`, the same
/// convention as [`run_scenario_service`], so results line up across replay
/// modes. Unlike the batch driver (where rolling history rides on each
/// [`ServiceJob`]), every tenant registers its `options.history_days` of
/// history up front and all `options.test_days` test days replay against
/// that fixed window — the convention a wire client can actually follow,
/// since [`sag_service::Request::OpenDay`] sources history from the
/// service, not the request.
#[derive(Debug)]
pub struct TenantFleet {
    /// The built service, one registered tenant per fleet entry.
    pub service: AuditService,
    /// The fleet, in tenant-index order.
    pub tenants: Vec<FleetTenant>,
}

/// Build a [`TenantFleet`]: `tenants` instances of `scenario` under
/// `options`, each with `options.history_days` of registered history and
/// `options.test_days` recorded days to stream.
///
/// # Errors
///
/// Propagates service construction and engine-configuration errors.
pub fn tenant_fleet(
    scenario: &dyn Scenario,
    options: &ReplayOptions,
    tenants: usize,
) -> std::result::Result<TenantFleet, ServiceError> {
    let (builder, fleet) = tenant_fleet_parts(scenario, options, tenants);
    Ok(TenantFleet {
        service: builder.build()?,
        tenants: fleet,
    })
}

/// The unbuilt half of [`tenant_fleet`]: the populated [`ServiceBuilder`]
/// plus the per-tenant streams. Callers that need to decorate the service
/// before building — a WAL directory, a dedup-window size, a recovery
/// (`recover_from`) instead of a fresh build — finish it themselves; the
/// tenant naming and seeding convention stays identical to
/// [`tenant_fleet`], so results remain comparable across entry points.
#[must_use]
pub fn tenant_fleet_parts(
    scenario: &dyn Scenario,
    options: &ReplayOptions,
    tenants: usize,
) -> (ServiceBuilder, Vec<FleetTenant>) {
    let mut builder = AuditService::builder();
    let mut fleet = Vec::with_capacity(tenants);
    for (tenant, engine, history) in fleet_tenants(scenario, options, tenants) {
        builder = builder.tenant_with_history(tenant.id.clone(), engine, history);
        fleet.push(tenant);
    }
    (builder, fleet)
}

/// The sharded counterpart of [`tenant_fleet_parts`]: the same fleet —
/// identical tenant names, seeds, histories, and test-day streams — loaded
/// into a [`ClusterBuilder`] over `shards` consistent-hashed shards instead
/// of one [`ServiceBuilder`]. Because the naming and seeding convention is
/// shared, a cluster built from these parts must produce per-tenant results
/// bitwise identical to the unsharded fleet's at any shard count; the
/// registry-wide suites in this crate's tests hold it to that.
///
/// Callers finish the builder themselves (`workers`, `counters`,
/// `durable`/`recover_from`, or per-shard `recover_shard`), exactly like
/// the unsharded parts function.
#[must_use]
pub fn tenant_fleet_cluster_parts(
    scenario: &dyn Scenario,
    options: &ReplayOptions,
    tenants: usize,
    shards: usize,
) -> (ClusterBuilder, Vec<FleetTenant>) {
    let mut builder = ClusterBuilder::new(shards);
    let mut fleet = Vec::with_capacity(tenants);
    for (tenant, engine, history) in fleet_tenants(scenario, options, tenants) {
        builder = builder.tenant_with_history(tenant.id.clone(), engine, history);
        fleet.push(tenant);
    }
    (builder, fleet)
}

/// The tenants both fleet builders register: tenant `t` is named by
/// [`tenant_id`], runs `options.config`, streams days seeded
/// `options.seed + t`, and splits them into `options.history_days` of
/// registered history (returned with the tenant's engine) and
/// `options.test_days` to stream.
fn fleet_tenants<'a>(
    scenario: &'a dyn Scenario,
    options: &'a ReplayOptions,
    tenants: usize,
) -> impl Iterator<Item = (FleetTenant, EngineBuilder, Vec<DayLog>)> + 'a {
    (0..tenants).map(move |t| {
        let mut days = scenario.generate_days(
            options.seed + t as u64,
            options.history_days + options.test_days,
        );
        let test_days = days.split_off(options.history_days as usize);
        let tenant = FleetTenant {
            id: tenant_id(scenario, t),
            test_days,
        };
        (
            tenant,
            EngineBuilder::from_config(options.config.clone()),
            days,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{BudgetShocks, PaperBaseline};

    #[test]
    fn baseline_run_produces_one_cycle_per_test_day() {
        let run = run_scenario(
            &PaperBaseline,
            &ReplayOptions::with_layout(&PaperBaseline, 11, 6, 3),
            1,
        )
        .unwrap();
        assert_eq!(run.cycles.len(), 3);
        assert!(run.alerts() > 300);
        assert!(run.alerts_per_sec() > 0.0);
        assert!((run.fraction_ossp_not_worse() - 1.0).abs() < 1e-12);
        assert!(run.mean_ossp() >= run.mean_online());
        let totals = run.sse_totals();
        assert_eq!(totals.solves as usize, run.alerts());
        assert!(totals.warm_hit_rate() > 0.5);
    }

    #[test]
    fn streaming_run_matches_the_batch_driver_bitwise() {
        let options = ReplayOptions::with_layout(&PaperBaseline, 19, 5, 2);
        let batch = run_scenario(&PaperBaseline, &options, 1).unwrap();
        let streamed = stream_scenario(&PaperBaseline, &options).unwrap();
        assert_eq!(streamed.push_nanos.len(), batch.alerts());
        assert_eq!(streamed.run.cycles.len(), batch.cycles.len());
        for (s, b) in streamed.run.cycles.iter().zip(&batch.cycles) {
            let mut s = s.clone();
            let mut b = b.clone();
            for o in s.outcomes.iter_mut().chain(b.outcomes.iter_mut()) {
                o.solve_micros = 0;
            }
            assert_eq!(s, b, "day {}", b.day);
        }
    }

    #[test]
    fn service_mode_multiplexes_tenants_and_matches_the_batch_driver() {
        // Three tenants on the baseline regime, concurrent over a 2-worker
        // pool, against three serial single-tenant replays on the same
        // seeds: bitwise identical.
        let service = run_scenario_service(
            &PaperBaseline,
            &ReplayOptions::with_layout(&PaperBaseline, 23, 5, 2),
            3,
            2,
        )
        .unwrap();
        assert_eq!(service.cycles.len(), 3);
        assert!(service.alerts() > 500);
        assert!(service.alerts_per_sec() > 0.0);
        assert_eq!(service.workers, 2);
        for (t, tenant_cycles) in service.cycles.iter().enumerate() {
            let serial = run_scenario(
                &PaperBaseline,
                &ReplayOptions::with_layout(&PaperBaseline, 23 + t as u64, 5, 2),
                1,
            )
            .unwrap();
            assert_eq!(tenant_cycles.len(), serial.cycles.len());
            for (a, b) in tenant_cycles.iter().zip(&serial.cycles) {
                let mut a = a.clone();
                let mut b = b.clone();
                for o in a.outcomes.iter_mut().chain(b.outcomes.iter_mut()) {
                    o.solve_micros = 0;
                }
                assert_eq!(a, b, "tenant {t} day {}", b.day);
            }
        }
    }

    #[test]
    fn budget_shocks_apply_the_schedule() {
        let run = run_scenario(
            &BudgetShocks,
            &ReplayOptions::with_layout(&BudgetShocks, 7, 6, 4),
            1,
        )
        .unwrap();
        // Test days are 6..10: 6 % 4 == 2 -> surge (x1.5), 8 % 4 == 0 ->
        // shock (x0.3), 7 and 9 run at the base budget.
        let by_day: Vec<(u32, f64)> = run
            .cycles
            .iter()
            .map(|c| {
                (
                    c.day,
                    c.outcomes.first().map_or(0.0, |o| o.budget_after_ossp),
                )
            })
            .collect();
        for (day, budget_after_first) in by_day {
            let cap = 50.0 * BudgetShocks::budget_multiplier(day);
            assert!(
                budget_after_first <= cap + 1e-9,
                "day {day}: remaining {budget_after_first} exceeds scheduled cap {cap}"
            );
        }
    }
}
