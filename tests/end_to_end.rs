//! Cross-crate integration tests: the full pipeline from synthetic world
//! generation through the rule engine, forecasting and the audit-game engine,
//! exercised exactly through the facade crate's public API.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sag::prelude::*;
use sag::sim::access::{AccessConfig, AccessGenerator};
use sag::sim::population::{Population, PopulationConfig};
use sag::sim::rules::RuleEngine;

/// Replay one recorded day through a fresh session.
fn replay_day(engine: &AuditCycleEngine, history: &[DayLog], day: &DayLog) -> CycleResult {
    engine.open_day(history, None).unwrap().drive(day).unwrap()
}

/// Full pipeline: population -> accesses -> rule engine -> audit engine.
#[test]
fn emr_pipeline_produces_consistent_audit_decisions() {
    let mut rng = StdRng::seed_from_u64(31);
    let population = Population::generate(&PopulationConfig::tiny(), &mut rng);
    let generator = AccessGenerator::new(AccessConfig::tiny());
    let rule_engine = RuleEngine::new(AlertCatalog::paper_table1());

    let mut history = Vec::new();
    for day in 0..8 {
        let accesses = generator.generate_day(&population, day, &mut rng);
        history.push(DayLog::new(
            day,
            rule_engine.evaluate_day(&population, &accesses),
        ));
    }
    let accesses = generator.generate_day(&population, 8, &mut rng);
    let test_day = DayLog::new(8, rule_engine.evaluate_day(&population, &accesses));

    let mut config = EngineConfig::paper_multi_type();
    config.game.budget = 5.0;
    let engine = AuditCycleEngine::new(config).unwrap();
    let result = replay_day(&engine, &history, &test_day);

    assert_eq!(result.len(), test_day.len());
    for outcome in &result.outcomes {
        assert!(outcome.ossp_scheme.is_valid());
        assert!(outcome.ossp_utility >= outcome.online_sse_utility - 1e-9);
        assert!((0.0..=1.0 + 1e-9).contains(&outcome.coverage_ossp));
        assert!(outcome.budget_after_ossp >= 0.0);
        assert!(outcome.budget_after_ossp <= engine.config().game.budget + 1e-9);
    }
}

/// The calibrated stream, forecaster and engine agree on type counts and the
/// engine's utility ordering matches the paper's qualitative claim.
#[test]
fn calibrated_stream_replay_matches_paper_shape() {
    let mut generator = StreamGenerator::new(StreamConfig::paper_multi_type(17));
    let history = generator.generate_days(20);
    let test_day = generator.generate_day(20);

    let engine = AuditCycleEngine::new(EngineConfig::paper_multi_type()).unwrap();
    let result = replay_day(&engine, &history, &test_day);
    let summary = ExperimentSummary::from_cycles(std::slice::from_ref(&result));

    // Shape of the paper's Figure 3: OSSP >= online SSE >= offline SSE (on
    // average), and OSSP is strictly better than the no-signaling baselines.
    assert!((summary.fraction_ossp_not_worse - 1.0).abs() < 1e-12);
    assert!(summary.mean_ossp > summary.mean_online);
    assert!(summary.mean_online >= summary.mean_offline - 30.0);
    assert!(summary.mean_ossp > summary.mean_offline);
}

/// The forecaster consumed by the engine is fitted from the same logs the
/// stream generator produced; daily totals must line up with Table 1.
#[test]
fn forecaster_daily_totals_track_catalog_means() {
    let mut generator = StreamGenerator::new(StreamConfig::paper_multi_type(23));
    let history = generator.generate_days(41);
    let model = ArrivalModel::fit(&history, 7);
    let catalog = AlertCatalog::paper_table1();
    for info in catalog.types() {
        let estimated = model.expected_daily_total(info.id);
        let tolerance = 4.0 * info.daily_std / (history.len() as f64).sqrt() + 1.0;
        assert!(
            (estimated - info.daily_mean).abs() < tolerance,
            "type {}: estimated {estimated} vs Table 1 mean {}",
            info.id,
            info.daily_mean
        );
    }
}

/// Budgets are conserved: expected accounting never spends more than the
/// configured cycle budget across the whole day.
#[test]
fn budget_is_never_exceeded_over_a_day() {
    let mut generator = StreamGenerator::new(StreamConfig::paper_single_type(5));
    let history = generator.generate_days(15);
    let test_day = generator.generate_day(15);
    let engine = AuditCycleEngine::new(EngineConfig::paper_single_type()).unwrap();
    let result = replay_day(&engine, &history, &test_day);

    let budget = engine.config().game.budget;
    let total_spent_ossp: f64 = result
        .outcomes
        .iter()
        .map(|o| o.ossp_scheme.expected_audit_cost())
        .sum();
    // The engine clamps the remaining budget at zero, so the total expected
    // consumption can exceed the budget only by at most one alert's worth.
    assert!(
        total_spent_ossp <= budget + 1.0,
        "spent {total_spent_ossp} vs budget {budget}"
    );
    let final_budget = result.outcomes.last().unwrap().budget_after_ossp;
    assert!((0.0..=budget).contains(&final_budget));
}

/// Deterministic replay: the same seeds produce byte-identical utility series.
#[test]
fn replays_are_deterministic() {
    let run = || {
        let mut generator = StreamGenerator::new(StreamConfig::paper_multi_type(77));
        let history = generator.generate_days(10);
        let test_day = generator.generate_day(10);
        let engine = AuditCycleEngine::new(EngineConfig::paper_multi_type()).unwrap();
        let result = replay_day(&engine, &history, &test_day);
        UtilitySeries::from_cycle(&result)
    };
    let a = run();
    let b = run();
    assert_eq!(a.ossp, b.ossp);
    assert_eq!(a.online_sse, b.online_sse);
    assert_eq!(a.offline_sse, b.offline_sse);
    assert_eq!(a.times, b.times);
}

/// The facade's LP re-export is usable on its own.
#[test]
fn facade_exposes_the_lp_substrate() {
    let mut lp = LpProblem::new(LpObjective::Maximize);
    let x = lp.add_var("x", 0.0, 10.0);
    lp.set_objective(x, 1.0);
    lp.add_constraint(&[(x, 2.0)], Relation::Le, 10.0);
    let sol = lp.solve().unwrap();
    assert!((sol.value(x) - 5.0).abs() < 1e-9);
}
