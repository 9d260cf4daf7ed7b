//! The multi-core scaling rig behind the `scaling` section of
//! `BENCH_2.json`.
//!
//! One loop over shard counts 1/2/4/8 (capped at the tenant count) records
//! three curves, each point the fastest of three runs:
//!
//! * **replay** — `run_scenario` on a multi-day batch at N shards: the
//!   engine's batch driver, whose fan-out needs the `parallel` feature to
//!   use more than one core.
//! * **service** — `run_scenario_service`: the tenant fleet through one
//!   `AuditService` over N pool workers. The 1-point is the serial
//!   reference: inline, with no pool.
//! * **cluster** — the fleet consistent-hashed across N independent
//!   `AuditService` shards (via `sag-cluster`), each shard driven by its own
//!   OS thread. This is the deployment shape of the sharded front door, and
//!   it threads regardless of the `parallel` feature because the shards
//!   themselves are the units of parallelism.
//!
//! Every curve rides the guarantee the rest of the workspace proves:
//! results are bitwise identical at every point, so the curves are pure
//! wall-clock. The rig checks that here too
//! ([`ScalingReport::results_identical`]) and `check_perf.py` hard-fails when
//! it does not hold; the speedup floors themselves are only gated where the
//! measuring host has the cores to show them.

use crate::report::Json;
use sag_core::CycleResult;
use sag_scenarios::{
    run_scenario, run_scenario_service, tenant_fleet_cluster_parts, ReplayOptions, Scenario,
};
use sag_service::ServiceError;
use std::time::Instant;

/// Shard counts of the curves (capped at the tenant count: an empty shard
/// adds a thread but no work).
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Day jobs of the replay curve's batch, unless the suite overrides test
/// days.
const REPLAY_DAYS: u32 = 12;
/// Days per tenant of the service curve's fleet, unless overridden.
const SERVICE_DAYS: u32 = 4;
/// Days per tenant of the cluster curve's fleet, unless overridden.
const CLUSTER_DAYS: u32 = 2;
/// Timed runs per leg; the fastest is kept, since each leg is tens of
/// milliseconds and one scheduler hiccup would otherwise skew the speedups
/// CI gates on.
const ROUNDS: usize = 3;

/// What one curve replays (identical at every point).
#[derive(Debug, Clone, Copy)]
pub struct ScalingWorkload {
    /// Tenants (1 for the replay curve's single batch).
    pub tenants: usize,
    /// Days replayed per tenant.
    pub days_per_tenant: usize,
    /// Total alerts across all tenants and days.
    pub alerts: usize,
}

/// One curve's measurement at one shard count.
#[derive(Debug, Clone, Copy)]
pub struct ScalingLeg {
    /// Fastest wall-clock seconds of the rounds.
    pub wall_seconds: f64,
    /// The curve's alerts divided by the wall clock.
    pub alerts_per_sec: f64,
    /// The curve's 1-point wall clock divided by this one's (1.0 at N=1).
    pub speedup: f64,
}

/// One shard count on the three curves.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Shard count: batch fan-out on the replay curve, pool workers on the
    /// service curve (0, inline, at the 1-point), shard threads on the
    /// cluster curve.
    pub shards: usize,
    /// The sharded batch replay.
    pub replay: ScalingLeg,
    /// The fleet through one service's worker pool.
    pub service: ScalingLeg,
    /// The fleet through a thread-per-shard cluster.
    pub cluster: ScalingLeg,
}

/// The `scaling` section of `BENCH_2.json`: per-shard-count curves plus
/// the bitwise-identity check that makes them pure wall-clock.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// Scenario every curve replays.
    pub scenario: String,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub threads_available: usize,
    /// Whether this binary was built with the `parallel` feature. The
    /// replay curve is sequential without it; the other two thread either
    /// way.
    pub parallel_feature: bool,
    /// The replay curve's batch.
    pub replay: ScalingWorkload,
    /// The service curve's fleet.
    pub service: ScalingWorkload,
    /// The cluster curve's fleet.
    pub cluster: ScalingWorkload,
    /// The curves, in ascending shard count (always starting at 1).
    pub points: Vec<ScalingPoint>,
    /// Whether every point's results, on every curve, were bitwise
    /// identical (timing fields zeroed) to that curve's 1-point results.
    /// Anything but `true` is a correctness bug and `check_perf.py` fails
    /// on it.
    pub results_identical: bool,
    /// Honest caveat when the host cannot show a real speedup.
    pub note: Option<String>,
}

/// One leg's fastest wall clock and its untimed per-tenant results.
#[derive(Debug, Clone)]
struct Measured {
    wall_seconds: f64,
    results: Vec<Vec<CycleResult>>,
}

/// Zero the wall-clock timing field so results can be compared exactly.
pub(crate) fn untimed(mut cycle: CycleResult) -> CycleResult {
    for o in &mut cycle.outcomes {
        o.solve_micros = 0;
    }
    cycle
}

impl Measured {
    fn new(wall_seconds: f64, results: Vec<Vec<CycleResult>>) -> Self {
        let results = results
            .into_iter()
            .map(|tenant| tenant.into_iter().map(untimed).collect())
            .collect();
        Measured {
            wall_seconds,
            results,
        }
    }
}

/// Drive the fleet through a `shards`-shard cluster, one OS thread per
/// shard, each thread streaming only the tenants the router placed on its
/// shard. Returns the wall clock and the per-tenant results in fleet order.
fn drive_cluster(
    scenario: &dyn Scenario,
    options: &ReplayOptions,
    tenants: usize,
    days: u32,
    shards: usize,
) -> Result<(f64, Vec<Vec<CycleResult>>), ServiceError> {
    let options = ReplayOptions {
        test_days: days,
        ..options.clone()
    };
    let (builder, fleet) = tenant_fleet_cluster_parts(scenario, &options, tenants, shards);
    let (router, mut services) = builder.workers(0).build()?.into_shards();
    let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); router.num_shards()];
    for (position, tenant) in fleet.iter().enumerate() {
        per_shard[router.shard_for(&tenant.id)].push(position);
    }

    let fleet = &fleet;
    let started = Instant::now();
    let collected = std::thread::scope(|scope| {
        let handles: Vec<_> = services
            .iter_mut()
            .zip(&per_shard)
            .map(|(service, positions)| {
                scope.spawn(move || {
                    positions
                        .iter()
                        .map(|&position| {
                            let tenant = &fleet[position];
                            let cycles = tenant
                                .test_days
                                .iter()
                                .map(|day| {
                                    let budget = scenario.budget_for_day(day.day());
                                    service.open_day(&tenant.id, budget)?.drive(day)
                                })
                                .collect::<Result<Vec<_>, ServiceError>>()?;
                            Ok((position, cycles))
                        })
                        .collect::<Result<Vec<_>, ServiceError>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cluster bench shard thread panicked"))
            .collect::<Result<Vec<_>, ServiceError>>()
    })?;
    let wall = started.elapsed().as_secs_f64();
    let mut results = vec![Vec::new(); fleet.len()];
    for (position, cycles) in collected.into_iter().flatten() {
        results[position] = cycles;
    }
    Ok((wall, results))
}

/// Measure the three scaling curves of `scenario` over [`SHARD_COUNTS`]
/// with `tenants` tenants in the service and cluster fleets. `options`
/// supplies the seed, the history window and the engine configuration;
/// `test_days`, when set, overrides every curve's day count (12 replay
/// jobs, 4 service days and 2 cluster days per tenant by default).
///
/// # Errors
///
/// Propagates engine and service errors, which indicate workspace bugs for
/// registered scenarios.
pub fn scaling_report(
    scenario: &dyn Scenario,
    options: &ReplayOptions,
    tenants: usize,
    test_days: Option<u32>,
) -> Result<ScalingReport, ServiceError> {
    let tenants = tenants.max(1);
    let replay_options = ReplayOptions {
        test_days: test_days.unwrap_or(REPLAY_DAYS),
        ..options.clone()
    };
    let service_options = ReplayOptions {
        test_days: test_days.unwrap_or(SERVICE_DAYS),
        ..options.clone()
    };
    let cluster_days = test_days.unwrap_or(CLUSTER_DAYS);

    let counts: Vec<usize> = SHARD_COUNTS
        .into_iter()
        .filter(|&n| n == 1 || n <= tenants)
        .collect();
    // The fastest of `ROUNDS` runs per shard count and curve (replay,
    // service, cluster). Each round sweeps every shard count, so one slow
    // spell of the host costs a point one of its runs, not all of them.
    let mut best: Vec<Option<[Measured; 3]>> = vec![None; counts.len()];
    for _ in 0..ROUNDS {
        for (kept, &shards) in best.iter_mut().zip(&counts) {
            let replay = run_scenario(scenario, &replay_options, shards)?;
            let workers = if shards == 1 { 0 } else { shards };
            let service = run_scenario_service(scenario, &service_options, tenants, workers)?;
            let (cluster_wall, cluster) =
                drive_cluster(scenario, options, tenants, cluster_days, shards)?;
            let runs = [
                Measured::new(replay.wall_seconds, vec![replay.cycles]),
                Measured::new(service.wall_seconds, service.cycles),
                Measured::new(cluster_wall, cluster),
            ];
            match kept {
                None => *kept = Some(runs),
                Some(kept) => {
                    for (kept, run) in kept.iter_mut().zip(runs) {
                        if run.wall_seconds < kept.wall_seconds {
                            *kept = run;
                        }
                    }
                }
            }
        }
    }
    let best: Vec<[Measured; 3]> = best
        .into_iter()
        .map(|kept| kept.expect("every round measures every point"))
        .collect();

    // Every point is timed and checked against its curve's 1-point.
    let first = &best[0];
    let mut results_identical = true;
    let points = counts
        .iter()
        .zip(&best)
        .map(|(&shards, measured)| {
            let [replay, service, cluster] = std::array::from_fn(|curve| {
                let (here, base) = (&measured[curve], &first[curve]);
                results_identical &= base.results == here.results;
                let alerts = workload(&here.results).alerts as f64;
                ScalingLeg {
                    wall_seconds: here.wall_seconds,
                    alerts_per_sec: ratio(alerts, here.wall_seconds),
                    speedup: ratio(base.wall_seconds, here.wall_seconds),
                }
            });
            ScalingPoint {
                shards,
                replay,
                service,
                cluster,
            }
        })
        .collect();
    let [replay, service, cluster] = first.each_ref().map(|m| workload(&m.results));

    let threads_available = std::thread::available_parallelism().map_or(1, usize::from);
    let parallel_feature = cfg!(feature = "parallel");
    let note = if threads_available == 1 {
        Some(
            "only 1 core available: no curve can beat its 1-shard point on this host, \
             expect speedup ~1.0 at every point"
                .to_string(),
        )
    } else if !parallel_feature {
        Some(format!(
            "built without the `parallel` feature: the replay curve runs sequentially \
             (expect ~1.0); the service and cluster curves still thread across \
             {threads_available} core(s)"
        ))
    } else if threads_available < 4 {
        Some(format!(
            "only {threads_available} core(s) available: expect modest speedups; the CI \
             floors apply only to points with shards <= cores"
        ))
    } else {
        None
    };

    Ok(ScalingReport {
        scenario: scenario.name().to_string(),
        threads_available,
        parallel_feature,
        replay,
        service,
        cluster,
        points,
        results_identical,
        note,
    })
}

/// `num / den`, or 0 for a zero denominator.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The shape of one curve's per-tenant results.
fn workload(results: &[Vec<CycleResult>]) -> ScalingWorkload {
    ScalingWorkload {
        tenants: results.len(),
        days_per_tenant: results.first().map_or(0, Vec::len),
        alerts: results.iter().flatten().map(CycleResult::len).sum(),
    }
}

impl ScalingWorkload {
    fn to_json(self) -> Json {
        Json::object()
            .field("tenants", self.tenants)
            .field("days_per_tenant", self.days_per_tenant)
            .field("alerts", self.alerts)
    }
}

impl ScalingLeg {
    fn to_json(self) -> Json {
        Json::object()
            .fixed("wall_seconds", self.wall_seconds, 6)
            .fixed("alerts_per_sec", self.alerts_per_sec, 2)
            .fixed("speedup", self.speedup, 2)
    }
}

impl ScalingReport {
    /// The `scaling` section of `BENCH_2.json`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let points = self.points.iter().map(|p| {
            Json::object()
                .field("shards", p.shards)
                .field("replay", p.replay.to_json())
                .field("service", p.service.to_json())
                .field("cluster", p.cluster.to_json())
        });
        Json::object()
            .field("scenario", self.scenario.as_str())
            .field("threads_available", self.threads_available)
            .field("parallel_feature", self.parallel_feature)
            .field("replay", self.replay.to_json())
            .field("service", self.service.to_json())
            .field("cluster", self.cluster.to_json())
            .field("points", points.collect::<Vec<_>>())
            .field("results_identical", self.results_identical)
            .maybe("note", self.note.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_scenarios::find_scenario;

    #[test]
    fn scaling_points_are_identical_and_cover_the_requested_counts() {
        let scenario = find_scenario("paper-baseline").expect("baseline registered");
        let options = ReplayOptions {
            history_days: 3,
            ..ReplayOptions::new(scenario.as_ref(), 7)
        };
        let report = scaling_report(scenario.as_ref(), &options, 4, Some(1)).unwrap();
        assert_eq!(report.scenario, "paper-baseline");
        assert_eq!(report.cluster.tenants, 4);
        assert_eq!(report.cluster.days_per_tenant, 1);
        assert_eq!(report.service.tenants, 4);
        assert_eq!(report.replay.days_per_tenant, 1);
        assert!(report.cluster.alerts > 0, "no alerts driven");
        // 8 > 4 tenants, so the curve stops at 4.
        let counts: Vec<usize> = report.points.iter().map(|p| p.shards).collect();
        assert_eq!(counts, vec![1, 2, 4]);
        assert!(
            report.results_identical,
            "shard count changed results bitwise"
        );
        for point in &report.points {
            for leg in [point.replay, point.service, point.cluster] {
                assert!(leg.wall_seconds > 0.0);
                assert!(leg.alerts_per_sec > 0.0);
            }
        }
        let first = &report.points[0];
        for leg in [first.replay, first.service, first.cluster] {
            assert!((leg.speedup - 1.0).abs() < 1e-9);
        }
    }
}
