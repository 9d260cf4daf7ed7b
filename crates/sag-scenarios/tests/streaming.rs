//! Streaming equivalence: a `DaySession` fed alert-by-alert produces
//! bitwise-identical `CycleResult`s to `Session::drive`, to the batch
//! `replay` at every shard count, and to the scenario streaming driver —
//! across the full scenario registry, for both budget-accounting modes. This is the contract that lets
//! ingest loops, batch replays and sharded benchmarks share one engine
//! without ever diverging on results.

use sag_core::engine::{AuditCycleEngine, BudgetAccounting};
use sag_core::CycleResult;
use sag_scenarios::{registry, run_scenario, stream_scenario, ReplayOptions, Scenario};
use sag_sim::AlertLog;

/// Zero the wall-clock timing field so results can be compared exactly.
fn untimed(mut cycle: CycleResult) -> CycleResult {
    for o in &mut cycle.outcomes {
        o.solve_micros = 0;
    }
    cycle
}

/// Stream every rolling group of `scenario` through a session and check the
/// results against the batch paths, bitwise.
fn assert_streaming_equivalence(
    scenario: &dyn Scenario,
    accounting: BudgetAccounting,
    seed: u64,
    history_days: u32,
    days: u32,
) {
    let mut options = ReplayOptions::with_layout(scenario, seed, history_days, days - history_days);
    options.config.accounting = accounting;
    let engine = AuditCycleEngine::new(options.config.clone()).expect("scenario engine");
    let log = AlertLog::new(scenario.generate_days(seed, days));
    let groups = log.rolling_groups(history_days as usize);
    assert!(
        groups.len() >= 2,
        "need several days to make the test count"
    );

    // The streaming reference: one session per day, one push per alert.
    let mut streamed: Vec<CycleResult> = Vec::new();
    for &(history, test_day) in &groups {
        let mut session = engine
            .open_day(history, scenario.budget_for_day(test_day.day()))
            .expect("session opens");
        session.set_day(test_day.day());
        for alert in test_day.alerts() {
            session.push_alert(alert).expect("alert processes");
        }
        streamed.push(untimed(session.finish()));
    }
    let name = scenario.name();
    let label = format!("{name} [{accounting:?}]");

    // Batch leg 1: Session::drive per group.
    for (&(history, test_day), reference) in groups.iter().zip(&streamed) {
        let driven = engine
            .open_day(history, scenario.budget_for_day(test_day.day()))
            .expect("session opens")
            .drive(test_day)
            .expect("day replays");
        assert_eq!(
            &untimed(driven),
            reference,
            "{label}: drive disagrees with streaming on day {}",
            test_day.day()
        );
    }

    // Batch leg 2: replay at several shard counts.
    for shards in [1, 2, groups.len() * 2] {
        let sharded: Vec<CycleResult> = run_scenario(scenario, &options, shards)
            .expect("sharded replays")
            .cycles
            .into_iter()
            .map(untimed)
            .collect();
        assert_eq!(
            streamed, sharded,
            "{label}: {shards} shard(s) disagree with streaming"
        );
    }

    // The scenario streaming driver pushes the same alerts.
    let timed: Vec<CycleResult> = stream_scenario(scenario, &options)
        .expect("streamed replay")
        .run
        .cycles
        .into_iter()
        .map(untimed)
        .collect();
    assert_eq!(streamed, timed, "{label}: stream_scenario disagrees");

    // A sampled leg must really charge sampled signals: its budget
    // trajectory departs from the same days streamed under `Expected`, so
    // the legs above covered the sampled charges, not a copy of the
    // expected-cost path.
    if accounting != BudgetAccounting::Expected {
        let mut expected = options.clone();
        expected.config.accounting = BudgetAccounting::Expected;
        let charged_in_expectation = run_scenario(scenario, &expected, 1)
            .expect("expected-accounting replay")
            .cycles;
        assert!(
            streamed
                .iter()
                .flat_map(|c| &c.outcomes)
                .zip(charged_in_expectation.iter().flat_map(|c| &c.outcomes))
                .any(|(s, e)| s.budget_after_ossp != e.budget_after_ossp),
            "{label}: sampled budgets never left the expected-cost trajectory"
        );
    }
}

/// The default-configuration leg: `Expected` accounting, where every alert
/// is charged its expected audit cost.
#[test]
fn every_registered_scenario_streams_identically_under_expected_accounting() {
    for scenario in registry() {
        assert_streaming_equivalence(scenario.as_ref(), BudgetAccounting::Expected, 2026, 4, 7);
    }
}

#[test]
fn every_registered_scenario_streams_identically_under_sampled_accounting() {
    for scenario in registry() {
        assert_streaming_equivalence(
            scenario.as_ref(),
            BudgetAccounting::Sampled { seed: 77 },
            2026,
            4,
            7,
        );
    }
}
