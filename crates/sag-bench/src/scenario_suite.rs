//! The scenario-registry benchmark behind `repro_scenarios` / `BENCH_2.json`.
//!
//! Replays every scenario registered in `sag-scenarios` through the engine's
//! sharded batch driver and reports, per scenario: throughput, warm-start
//! hit rate, simplex work, and the utility profile of the three strategies.
//! A `scaling` section (see [`crate::cluster`]) records per-shard-count
//! curves for the sharded replay, the multi-tenant `AuditService` pool and
//! the consistent-hash `sag-cluster` deployment shape, under one
//! results-identical guarantee. A `durability` section prices the
//! write-ahead log: logged decision throughput with the fsync barrier on
//! and off, and the wall-clock cost of recovering a large mid-flight day
//! from its WAL — with the recovered result checked bitwise against the
//! uninterrupted run.

use crate::cluster::{scaling_report, untimed, ScalingReport};
use crate::report::Json;
use sag_core::engine::EngineBuilder;
use sag_scenarios::{find_scenario, registry, run_scenario, ReplayOptions, Scenario, ScenarioRun};
use sag_service::{AuditService, DurabilityOptions, Request, Response, ServiceError, TenantId};
use std::path::PathBuf;
use std::time::Instant;

/// Per-scenario metrics of one registry replay.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Registry name.
    pub name: String,
    /// One-line scenario description.
    pub description: String,
    /// Shard count of the replay.
    pub shards: usize,
    /// Total alerts replayed.
    pub alerts: usize,
    /// Wall-clock seconds of the replay.
    pub wall_seconds: f64,
    /// Replay throughput.
    pub alerts_per_sec: f64,
    /// Warm-start hit rate of the SSE solver over the replay.
    pub warm_hit_rate: f64,
    /// Mean simplex pivots per candidate LP.
    pub pivots_per_lp: f64,
    /// Fraction of candidate LPs skipped by the incremental pruning bound.
    pub pruned_lp_fraction: f64,
    /// Candidate LPs actually solved per SSE solve (the exhaustive method
    /// would solve one per type).
    pub lp_solves_per_solve: f64,
    /// Mean per-alert auditor utility under the OSSP.
    pub mean_ossp: f64,
    /// Mean per-alert auditor utility under the online SSE.
    pub mean_online: f64,
    /// Mean per-alert auditor utility under the offline SSE.
    pub mean_offline: f64,
    /// Fraction of alerts where the OSSP is no worse than the online SSE.
    pub fraction_ossp_not_worse: f64,
    /// Fraction of alerts fully deterred by the OSSP.
    pub fraction_deterred: f64,
}

impl ScenarioReport {
    fn from_run(run: &ScenarioRun, description: &str) -> Self {
        let totals = run.sse_totals();
        ScenarioReport {
            name: run.name.to_string(),
            description: description.to_string(),
            shards: run.shards,
            alerts: run.alerts(),
            wall_seconds: run.wall_seconds,
            alerts_per_sec: run.alerts_per_sec(),
            warm_hit_rate: totals.warm_hit_rate(),
            pivots_per_lp: totals.pivots_per_lp(),
            pruned_lp_fraction: totals.pruned_lp_fraction(),
            lp_solves_per_solve: if totals.solves == 0 {
                0.0
            } else {
                totals.lp_solves as f64 / totals.solves as f64
            },
            mean_ossp: run.mean_ossp(),
            mean_online: run.mean_online(),
            mean_offline: run.mean_offline(),
            fraction_ossp_not_worse: run.fraction_ossp_not_worse(),
            fraction_deterred: run.fraction_deterred(),
        }
    }
}

/// Cost and fidelity of the durable `AuditService`: WAL write throughput
/// with the fsync barrier on/off, and recovery of a large mid-flight day.
#[derive(Debug, Clone)]
pub struct DurabilityReport {
    /// Scenario whose stream and game the durable day runs.
    pub scenario: String,
    /// Alerts logged and recovered — the "10k-alert day".
    pub alerts: usize,
    /// Logged decisions per second with a durability barrier after every
    /// record (an acknowledged decision survives power loss).
    pub fsync_on_alerts_per_sec: f64,
    /// Logged decisions per second without the barrier (survives process
    /// crashes; the OS page cache holds the tail).
    pub fsync_off_alerts_per_sec: f64,
    /// Bytes of the WAL holding the whole day.
    pub wal_bytes: u64,
    /// Wall-clock seconds `ServiceBuilder::recover_from` took to rebuild
    /// the mid-flight day from snapshot + WAL.
    pub recovery_wall_seconds: f64,
    /// Replayed alerts per second during recovery.
    pub recovery_alerts_per_sec: f64,
    /// Whether the recovered day, driven to completion, matched the
    /// uninterrupted run bitwise (timing fields zeroed). Anything but
    /// `true` is a correctness bug, and `check_perf.py` fails on it.
    pub recovered_bitwise_equal: bool,
}

/// The full `BENCH_2.json` payload.
#[derive(Debug, Clone)]
pub struct ScenarioSuiteReport {
    /// Seed every scenario was generated with.
    pub seed: u64,
    /// Per-scenario metrics, in registry order.
    pub scenarios: Vec<ScenarioReport>,
    /// The multi-core scaling curves.
    pub scaling: ScalingReport,
    /// The WAL cost/recovery profile.
    pub durability: DurabilityReport,
}

/// Configuration of a suite run.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// RNG seed of every scenario's synthetic stream.
    pub seed: u64,
    /// Shard count for the per-scenario replays.
    pub shards: usize,
    /// Override of each scenario's history-day count (`None` = its default).
    pub history_days: Option<u32>,
    /// Override of each replay's test-day count (`None` = the scenario's
    /// default, and the scaling curves' own day counts).
    pub test_days: Option<u32>,
    /// Tenants in the scaling section's service and cluster fleets.
    pub tenants: usize,
    /// Alerts in the durability section's logged-and-recovered day.
    pub durability_alerts: usize,
}

impl SuiteConfig {
    /// The full benchmark layout written to `BENCH_2.json`.
    #[must_use]
    pub fn full(seed: u64, shards: usize) -> Self {
        SuiteConfig {
            seed,
            shards,
            history_days: None,
            test_days: None,
            tenants: 8,
            durability_alerts: 10_000,
        }
    }
}

/// Replay the whole registry, then measure the scaling curves and the
/// durability profile on `paper-baseline`.
///
/// # Errors
///
/// Propagates engine, solver and service errors (which indicate workspace
/// bugs for registered scenarios).
pub fn scenario_suite(config: &SuiteConfig) -> Result<ScenarioSuiteReport, ServiceError> {
    let options = |scenario: &dyn Scenario| {
        let mut options = ReplayOptions::new(scenario, config.seed);
        options.history_days = config.history_days.unwrap_or(options.history_days);
        options.test_days = config.test_days.unwrap_or(options.test_days);
        options
    };
    let mut scenarios = Vec::new();
    for scenario in registry() {
        let run = run_scenario(
            scenario.as_ref(),
            &options(scenario.as_ref()),
            config.shards,
        )?;
        scenarios.push(ScenarioReport::from_run(&run, scenario.description()));
    }

    let baseline = find_scenario("paper-baseline").expect("baseline is registered");
    let scaling = scaling_report(
        baseline.as_ref(),
        &options(baseline.as_ref()),
        config.tenants,
        config.test_days,
    )?;
    let durability = durability_report(baseline.as_ref(), config);
    Ok(ScenarioSuiteReport {
        seed: config.seed,
        scenarios,
        scaling,
        durability,
    })
}

/// A scratch WAL directory next to the running binary (inside `target/`),
/// so the bench never depends on the caller's working directory.
fn durability_wal_dir(leg: &str) -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("target"))
        .join(format!("sag-durability-bench-{leg}"))
}

/// Measure the durability layer on `scenario`'s game: one oversized day of
/// `config.durability_alerts` alerts logged with fsync on and off, then
/// recovered from the WAL and driven to completion.
///
/// Panics on service or WAL failures — both indicate workspace bugs here
/// (validated config, scratch directories the bench itself creates).
fn durability_report(scenario: &dyn Scenario, config: &SuiteConfig) -> DurabilityReport {
    let target = config.durability_alerts.max(1);
    let history_days = config
        .history_days
        .unwrap_or_else(|| scenario.history_days());
    // Enough generated days to flatten into one oversized in-flight day.
    let mut days = scenario.generate_days(config.seed, history_days + 4);
    loop {
        let available: usize = days[history_days as usize..]
            .iter()
            .map(sag_sim::DayLog::len)
            .sum();
        if available >= target {
            break;
        }
        let grown = days.len() as u32 + 16;
        days = scenario.generate_days(config.seed, grown);
    }
    let history = days[..history_days as usize].to_vec();
    let day_index = days[history_days as usize].day();
    let alerts: Vec<sag_sim::Alert> = days[history_days as usize..]
        .iter()
        .flat_map(|d| d.alerts().iter().cloned())
        .take(target)
        .collect();

    let builder = |history: Vec<sag_sim::DayLog>| {
        AuditService::builder().workers(0).tenant_with_history(
            "durability-bench",
            EngineBuilder::from_config(scenario.engine_config()),
            history,
        )
    };
    let tenant = TenantId::from("durability-bench");
    let open = |service: &mut AuditService| match service
        .handle(Request::OpenDay {
            tenant: tenant.clone(),
            budget: scenario.budget_for_day(day_index),
            day: Some(day_index),
        })
        .expect("bench day opens")
    {
        Response::DayOpened { session, .. } => session,
        other => panic!("unexpected response {other:?}"),
    };

    // Ground truth: the same day with no WAL at all.
    let mut control_service = builder(history.clone()).build().expect("control build");
    let control_session = open(&mut control_service);
    for alert in &alerts {
        control_service
            .handle(Request::PushAlert {
                session: control_session,
                alert: *alert,
            })
            .expect("control push");
    }
    let Response::DayClosed {
        result: control, ..
    } = control_service
        .handle(Request::FinishDay {
            session: control_session,
        })
        .expect("control finish")
    else {
        panic!("unexpected response");
    };
    let control = untimed(control);
    drop(control_service);

    // Timed legs: the identical day through a durable service, fsync on
    // and off. Each leg ends mid-flight (no FinishDay), leaving the WAL
    // holding the whole day for the recovery leg.
    let leg = |fsync: bool| -> (f64, u64, PathBuf) {
        let dir = durability_wal_dir(if fsync { "fsync-on" } else { "fsync-off" });
        let _ = std::fs::remove_dir_all(&dir);
        let options = DurabilityOptions {
            fsync,
            ..DurabilityOptions::default()
        };
        let mut service = builder(history.clone())
            .durable_with(&dir, options)
            .build()
            .expect("durable build");
        let session = open(&mut service);
        let start = Instant::now();
        for alert in &alerts {
            service
                .handle(Request::PushAlert {
                    session,
                    alert: *alert,
                })
                .expect("durable push");
        }
        let wall = start.elapsed().as_secs_f64();
        drop(service); // the "crash": only the directory survives
        let wal_bytes = std::fs::metadata(dir.join("durability-bench.wal"))
            .map(|m| m.len())
            .unwrap_or(0);
        (target as f64 / wall.max(f64::MIN_POSITIVE), wal_bytes, dir)
    };
    let (fsync_on_aps, _, _) = leg(true);
    let (fsync_off_aps, wal_bytes, recovery_dir) = leg(false);

    // Recovery: rebuild the mid-flight day from the fsync-off leg's WAL
    // (the bytes are identical between legs), then finish it and check the
    // result against the uninterrupted run.
    let start = Instant::now();
    let mut recovered = builder(history)
        .recover_from(&recovery_dir)
        .expect("recovery succeeds");
    let recovery_wall = start.elapsed().as_secs_f64();
    let session = recovered
        .open_session_ids()
        .next()
        .expect("mid-flight session recovered");
    let replayed = recovered
        .session(session)
        .expect("session visible")
        .alerts_processed();
    let Response::DayClosed { result, .. } = recovered
        .handle(Request::FinishDay { session })
        .expect("recovered finish")
    else {
        panic!("unexpected response");
    };
    let recovered_bitwise_equal = replayed == target && untimed(result) == control;

    DurabilityReport {
        scenario: scenario.name().to_string(),
        alerts: target,
        fsync_on_alerts_per_sec: fsync_on_aps,
        fsync_off_alerts_per_sec: fsync_off_aps,
        wal_bytes,
        recovery_wall_seconds: recovery_wall,
        recovery_alerts_per_sec: target as f64 / recovery_wall.max(f64::MIN_POSITIVE),
        recovered_bitwise_equal,
    }
}

impl ScenarioReport {
    fn to_json(&self) -> Json {
        Json::object()
            .field("name", self.name.as_str())
            .field("description", self.description.as_str())
            .field("shards", self.shards)
            .field("alerts", self.alerts)
            .fixed("wall_seconds", self.wall_seconds, 6)
            .fixed("alerts_per_sec", self.alerts_per_sec, 2)
            .fixed("warm_start_hit_rate", self.warm_hit_rate, 4)
            .fixed("pivots_per_lp", self.pivots_per_lp, 3)
            .fixed("pruned_lp_fraction", self.pruned_lp_fraction, 4)
            .fixed("lp_solves_per_solve", self.lp_solves_per_solve, 3)
            .fixed("mean_ossp", self.mean_ossp, 3)
            .fixed("mean_online", self.mean_online, 3)
            .fixed("mean_offline", self.mean_offline, 3)
            .fixed("fraction_ossp_not_worse", self.fraction_ossp_not_worse, 4)
            .fixed("fraction_deterred", self.fraction_deterred, 4)
    }
}

impl DurabilityReport {
    fn to_json(&self) -> Json {
        Json::object()
            .field("scenario", self.scenario.as_str())
            .field("alerts", self.alerts)
            .fixed("fsync_on_alerts_per_sec", self.fsync_on_alerts_per_sec, 2)
            .fixed("fsync_off_alerts_per_sec", self.fsync_off_alerts_per_sec, 2)
            .field("wal_bytes", self.wal_bytes)
            .fixed("recovery_wall_seconds", self.recovery_wall_seconds, 6)
            .fixed("recovery_alerts_per_sec", self.recovery_alerts_per_sec, 2)
            .field("recovered_bitwise_equal", self.recovered_bitwise_equal)
    }
}

impl ScenarioSuiteReport {
    /// The machine-readable `BENCH_2.json` document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let scenarios = self.scenarios.iter().map(ScenarioReport::to_json);
        Json::object()
            .field("bench", "scenario_registry_replay")
            .field("seed", self.seed)
            .field("scenarios", scenarios.collect::<Vec<_>>())
            .field("scaling", self.scaling.to_json())
            .field("durability", self.durability.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::json_escape;

    #[test]
    fn json_escape_handles_metacharacters() {
        assert_eq!(json_escape("plain text, 0.35"), "plain text, 0.35");
        assert_eq!(json_escape(r#"a "quoted" \path"#), r#"a \"quoted\" \\path"#);
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("ctrl\u{1}"), "ctrl\\u0001");
    }

    #[test]
    fn suite_covers_the_whole_registry_and_renders_json() {
        // Scaled-down layout so the debug-mode test stays fast; the release
        // binary (`repro_scenarios`) runs `SuiteConfig::full`.
        let config = SuiteConfig {
            seed: 3,
            shards: 1,
            history_days: Some(5),
            test_days: Some(1),
            tenants: 2,
            durability_alerts: 250,
        };
        let report = scenario_suite(&config).unwrap();
        assert!(report.scenarios.len() >= 7);
        for s in &report.scenarios {
            assert!(s.alerts > 100, "{}: only {} alerts", s.name, s.alerts);
            assert!(s.alerts_per_sec > 0.0, "{}", s.name);
            assert!(
                (0.0..=1.0).contains(&s.warm_hit_rate),
                "{}: hit rate {}",
                s.name,
                s.warm_hit_rate
            );
            // Theorem 2 survives every regime except a leaky channel, where
            // the OSSP can only fall back to the SSE value; either way the
            // replay must stay sane.
            assert!(
                s.fraction_ossp_not_worse > 0.9,
                "{}: {}",
                s.name,
                s.fraction_ossp_not_worse
            );
        }
        let sc = &report.scaling;
        assert_eq!(sc.scenario, "paper-baseline");
        assert_eq!(sc.parallel_feature, cfg!(feature = "parallel"));
        // The test-day override sizes every curve.
        assert_eq!(sc.replay.days_per_tenant, 1);
        assert_eq!(sc.service.tenants, 2);
        assert_eq!(sc.service.days_per_tenant, 1);
        assert!(
            sc.service.alerts > 200,
            "two baseline tenants: {} alerts",
            sc.service.alerts
        );
        assert_eq!(sc.cluster.tenants, 2);
        // 2 tenants cap the curves at 2 shards.
        let counts: Vec<usize> = sc.points.iter().map(|p| p.shards).collect();
        assert_eq!(counts, vec![1, 2]);
        assert!(
            sc.results_identical,
            "shard count changed scaling results bitwise"
        );
        for p in &sc.points {
            for leg in [p.replay, p.service, p.cluster] {
                assert!(leg.wall_seconds > 0.0 && leg.alerts_per_sec > 0.0);
            }
        }
        let d = &report.durability;
        assert_eq!(d.scenario, "paper-baseline");
        assert_eq!(d.alerts, 250);
        assert!(d.fsync_on_alerts_per_sec > 0.0);
        assert!(d.fsync_off_alerts_per_sec > 0.0);
        assert!(d.wal_bytes > 0);
        assert!(d.recovery_wall_seconds > 0.0);
        assert!(
            d.recovered_bitwise_equal,
            "recovered day diverged from the uninterrupted run"
        );
        // Multi-type scenarios must actually exercise the pruning layer.
        let multi_site = report
            .scenarios
            .iter()
            .find(|s| s.name == "multi-site")
            .expect("multi-site registered");
        assert!(
            multi_site.pruned_lp_fraction > 0.5,
            "multi-site pruned fraction {:.3}",
            multi_site.pruned_lp_fraction
        );
        assert!(multi_site.lp_solves_per_solve < 14.0);

        // The document carries every section at its BENCH_2 path.
        let json = report.to_json();
        let names: Vec<&Json> = (0..report.scenarios.len())
            .filter_map(|i| json.get(&format!("scenarios.{i}.name")))
            .collect();
        for name in [
            "paper-baseline",
            "bursty-arrivals",
            "attacker-drift",
            "budget-shocks",
            "noisy-evidence",
            "multi-site",
            "metro-grid",
        ] {
            assert!(
                names.contains(&&Json::from(name)),
                "missing scenario {name}"
            );
        }
        for (path, expected) in [
            ("bench", Json::from("scenario_registry_replay")),
            ("seed", Json::Int(3)),
            (
                "scaling.parallel_feature",
                Json::Bool(cfg!(feature = "parallel")),
            ),
            ("scaling.results_identical", Json::Bool(true)),
            ("scaling.service.tenants", Json::Int(2)),
            ("scaling.points.1.shards", Json::Int(2)),
            ("durability.recovered_bitwise_equal", Json::Bool(true)),
        ] {
            assert_eq!(json.get(path), Some(&expected), "{path}");
        }
        for path in [
            "scenarios.0.pruned_lp_fraction",
            "scenarios.0.lp_solves_per_solve",
            "scaling.points.1.replay.speedup",
            "scaling.points.1.service.speedup",
            "scaling.points.1.cluster.alerts_per_sec",
            "scaling.points.1.cluster.speedup",
            "durability.fsync_on_alerts_per_sec",
            "durability.fsync_off_alerts_per_sec",
            "durability.recovery_alerts_per_sec",
        ] {
            assert!(
                matches!(json.get(path), Some(Json::Fixed(..))),
                "missing {path}"
            );
        }
        assert_eq!(
            json.get("scaling.note").is_some(),
            report.scaling.note.is_some()
        );
    }
}
