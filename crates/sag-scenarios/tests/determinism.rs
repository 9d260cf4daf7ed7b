//! Sharded-replay determinism: for every shard count, `replay` produces
//! bitwise-identical `CycleResult`s to the single-shard replay — only
//! wall-clock time may differ — under both budget-accounting modes. This is
//! the contract that lets the perf-smoke CI job scale shard counts freely
//! without ever changing results.

use sag_core::engine::{recommended_shards, BudgetAccounting};
use sag_core::CycleResult;
use sag_scenarios::library::{BudgetShocks, MultiSite, PaperBaseline};
use sag_scenarios::{run_scenario, ReplayOptions, Scenario};

/// Both accounting modes: the default expected charge, and sampled signals
/// (seeded), under which the online-SSE world diverges from the OSSP world
/// and runs its own LP chain.
const ACCOUNTINGS: [BudgetAccounting; 2] = [
    BudgetAccounting::Expected,
    BudgetAccounting::Sampled { seed: 77 },
];

/// Zero the wall-clock timing field so results can be compared exactly.
fn untimed(mut cycle: CycleResult) -> CycleResult {
    for o in &mut cycle.outcomes {
        o.solve_micros = 0;
    }
    cycle
}

fn assert_sharding_invariant(
    scenario: &dyn Scenario,
    accounting: BudgetAccounting,
    seed: u64,
    history_days: u32,
    days: u32,
) {
    let mut options = ReplayOptions::with_layout(scenario, seed, history_days, days - history_days);
    options.config.accounting = accounting;
    let jobs = options.test_days as usize;
    assert!(jobs >= 4, "need several jobs to shard");
    let replay = |shards: usize| -> Vec<CycleResult> {
        run_scenario(scenario, &options, shards)
            .expect("sharded replays")
            .cycles
            .into_iter()
            .map(untimed)
            .collect()
    };

    // The sequential reference. The default shard count is 1 without the
    // `parallel` feature and the core count with it — the invariant under
    // test says that must not matter.
    let reference = replay(1);
    assert_eq!(reference.len(), jobs, "{}", scenario.name());
    for shards in [recommended_shards(jobs), 2, 3, jobs * 2] {
        let sharded = replay(shards);
        assert_eq!(
            reference.len(),
            sharded.len(),
            "{} [{accounting:?}]: shards = {shards}",
            scenario.name()
        );
        // PartialEq over every f64 field: bitwise-identical or bust.
        assert_eq!(
            reference,
            sharded,
            "{} [{accounting:?}]: shard count {shards} changed results",
            scenario.name()
        );
    }
}

#[test]
fn paper_baseline_sharding_is_bitwise_deterministic() {
    for accounting in ACCOUNTINGS {
        assert_sharding_invariant(&PaperBaseline, accounting, 2019, 6, 11);
    }
}

#[test]
fn multi_site_sharding_is_bitwise_deterministic() {
    // 14 candidate types: with the `parallel` feature this also pushes the
    // per-alert candidate fan-out through its threaded path.
    for accounting in ACCOUNTINGS {
        assert_sharding_invariant(&MultiSite, accounting, 7, 4, 8);
    }
}

#[test]
fn budget_scheduled_sharding_is_bitwise_deterministic() {
    for accounting in ACCOUNTINGS {
        assert_sharding_invariant(&BudgetShocks, accounting, 3, 4, 9);
    }
}
