//! Pruned-vs-exhaustive equivalence across the whole scenario registry:
//! replaying any registered workload with incremental candidate pruning
//! enabled produces **bitwise-identical** winners, coverage, budget splits
//! and utilities to the exhaustive multiple-LP reference — for every
//! scenario, multiple seeds and both budget-accounting modes (sampled
//! accounting splits the two worlds' budgets, so it also covers the online
//! world's own LP chain). Only the solver-work counters (LP counts, pivots,
//! pruning skips) may differ.
//!
//! This is the contract that lets the engine default to pruning: it is a
//! pure work optimization, never a behaviour change.

use sag_core::engine::BudgetAccounting;
use sag_core::CycleResult;
use sag_scenarios::{registry, run_scenario, ReplayOptions, Scenario};

/// Strip the fields equivalence deliberately excludes: wall-clock timing
/// and the solver-work counters (pruning exists precisely to change those).
fn comparable(mut cycle: CycleResult) -> CycleResult {
    cycle.sse_totals = Default::default();
    for o in &mut cycle.outcomes {
        o.solve_micros = 0;
        o.sse_stats = Default::default();
    }
    cycle
}

fn replay(
    scenario: &dyn Scenario,
    accounting: BudgetAccounting,
    pruning: bool,
    seed: u64,
    history_days: u32,
    days: u32,
) -> Vec<CycleResult> {
    let mut options = ReplayOptions::with_layout(scenario, seed, history_days, days - history_days);
    options.config.accounting = accounting;
    options.config.pruning = pruning;
    run_scenario(scenario, &options, 1)
        .expect("scenario replays")
        .cycles
        .into_iter()
        .map(comparable)
        .collect()
}

fn assert_pruning_equivalence(scenario: &dyn Scenario, seed: u64, history_days: u32, days: u32) {
    for accounting in [
        BudgetAccounting::Expected,
        BudgetAccounting::Sampled { seed: 77 },
    ] {
        let pruned = replay(scenario, accounting, true, seed, history_days, days);
        let exhaustive = replay(scenario, accounting, false, seed, history_days, days);
        assert_eq!(
            pruned.len(),
            exhaustive.len(),
            "{} seed {seed} {accounting:?}",
            scenario.name()
        );
        // PartialEq over every f64 field of every outcome (winner type,
        // coverage, utilities, budgets, schemes): bitwise-identical or bust.
        assert_eq!(
            pruned,
            exhaustive,
            "{} seed {seed} {accounting:?}: pruning changed results",
            scenario.name()
        );
    }
}

/// Every registered scenario, two seeds, both accounting modes. Federated
/// scenarios (≥ 14 types, the expensive exhaustive arm) run a slightly
/// smaller layout so the debug-mode suite stays quick; they still cover
/// several hundred alerts over multiple days each.
#[test]
fn pruning_is_result_identical_across_the_whole_registry() {
    for scenario in registry() {
        let many_types = scenario.engine_config().game.num_types() >= 14;
        let (history_days, days) = if many_types { (3, 5) } else { (4, 7) };
        for seed in [2019, 7] {
            assert_pruning_equivalence(scenario.as_ref(), seed, history_days, days);
        }
    }
}

/// The pruned replay must actually prune on multi-type workloads — an
/// accidental "always fall back to the exhaustive path" would pass the
/// equivalence test while silently losing the speedup.
#[test]
fn pruning_actually_skips_most_candidate_lps() {
    for name in ["paper-baseline", "multi-site", "metro-grid"] {
        let scenario = sag_scenarios::find_scenario(name).expect("registered");
        let options = ReplayOptions::with_layout(scenario.as_ref(), 11, 3, 1);
        let run = run_scenario(scenario.as_ref(), &options, 1).expect("replays");
        let fraction = run.sse_totals().pruned_lp_fraction();
        assert!(
            fraction > 0.5,
            "{name}: only {:.1}% of candidate LPs pruned",
            fraction * 100.0
        );
    }
}
