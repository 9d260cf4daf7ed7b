//! Multi-tenant concurrency equivalence: N tenants' owned sessions, driven
//! interleaved — round-robin through one driver loop and fanned out over
//! `sag-pool` worker threads — produce `CycleResult`s bitwise identical to
//! serial per-tenant replay, across the full scenario registry and both
//! budget-accounting modes. This is the contract that makes the
//! `AuditService` front door safe to scale: concurrency and multiplexing
//! change wall-clock time, never results.

use sag_core::engine::{BudgetAccounting, EngineBuilder};
use sag_core::CycleResult;
use sag_scenarios::{registry, run_scenario, run_scenario_service, ReplayOptions, Scenario};
use sag_service::{AuditService, SessionHandle, TenantId};
use std::collections::HashMap;

const SEED: u64 = 2027;
const TENANTS: usize = 3;
const HISTORY_DAYS: u32 = 4;
const TEST_DAYS: u32 = 2;

/// Zero the wall-clock timing field so results can be compared exactly.
fn untimed(mut cycle: CycleResult) -> CycleResult {
    for o in &mut cycle.outcomes {
        o.solve_micros = 0;
    }
    cycle
}

/// The scenario's options at `seed` on the shared layout, pinned to
/// `accounting`.
fn options(scenario: &dyn Scenario, seed: u64, accounting: BudgetAccounting) -> ReplayOptions {
    let mut options = ReplayOptions::with_layout(scenario, seed, HISTORY_DAYS, TEST_DAYS);
    options.config.accounting = accounting;
    options
}

/// Serial per-tenant reference: each tenant replayed alone, one shard, on
/// its own seed — the ground truth the concurrent paths must reproduce.
fn serial_reference(
    scenario: &dyn Scenario,
    accounting: BudgetAccounting,
) -> Vec<Vec<CycleResult>> {
    (0..TENANTS)
        .map(|t| {
            run_scenario(scenario, &options(scenario, SEED + t as u64, accounting), 1)
                .expect("serial replay")
                .cycles
                .into_iter()
                .map(untimed)
                .collect()
        })
        .collect()
}

/// The pool-threaded leg: tenants fanned out over the service's `sag-pool`
/// workers via `replay_concurrent`.
fn assert_pool_equivalence(scenario: &dyn Scenario, accounting: BudgetAccounting) {
    let reference = serial_reference(scenario, accounting);
    let service = run_scenario_service(scenario, &options(scenario, SEED, accounting), TENANTS, 4)
        .expect("service replay");
    assert_eq!(service.tenants, TENANTS);
    assert_eq!(service.workers, 4);
    let concurrent: Vec<Vec<CycleResult>> = service
        .cycles
        .into_iter()
        .map(|tenant| tenant.into_iter().map(untimed).collect())
        .collect();
    assert_eq!(
        concurrent,
        reference,
        "{} [{accounting:?}]: pool-threaded service replay diverged from serial",
        scenario.name()
    );
}

/// The single-loop leg: owned handles for all tenants held in one map and
/// fed strictly round-robin, one alert per tenant per turn — the maximally
/// interleaved schedule a multiplexing driver loop can produce.
fn assert_interleaved_equivalence(scenario: &dyn Scenario, accounting: BudgetAccounting) {
    let reference = serial_reference(scenario, accounting);

    let mut config = scenario.engine_config();
    config.accounting = accounting;
    let tenant_ids: Vec<TenantId> = (0..TENANTS)
        .map(|t| TenantId::new(format!("{}-t{t}", scenario.name())))
        .collect();
    let mut builder = AuditService::builder().workers(0);
    for id in &tenant_ids {
        builder = builder.tenant(id.clone(), EngineBuilder::from_config(config.clone()));
    }
    let service = builder.build().expect("tenant configs are valid");

    let logs: Vec<sag_sim::AlertLog> = (0..TENANTS)
        .map(|t| {
            sag_sim::AlertLog::new(
                scenario.generate_days(SEED + t as u64, HISTORY_DAYS + TEST_DAYS),
            )
        })
        .collect();
    let groups: Vec<Vec<(&[sag_sim::DayLog], &sag_sim::DayLog)>> = logs
        .iter()
        .map(|log| log.rolling_groups(HISTORY_DAYS as usize))
        .collect();
    let days_per_tenant = groups[0].len();

    let mut results: Vec<Vec<CycleResult>> = vec![Vec::new(); TENANTS];
    // `day_index` picks the same rolling group out of every tenant's log,
    // so the range loop is the honest shape here.
    #[allow(clippy::needless_range_loop)]
    for day_index in 0..days_per_tenant {
        // Open every tenant's cycle for this day, park the owned handles in
        // a map, and round-robin one alert at a time across all of them.
        let mut open: HashMap<usize, SessionHandle> = HashMap::new();
        let mut feeds: Vec<std::slice::Iter<'_, sag_sim::Alert>> = Vec::new();
        for (t, id) in tenant_ids.iter().enumerate() {
            let (history, test_day) = groups[t][day_index];
            let mut handle = service
                .open_day_with_history(id, history, scenario.budget_for_day(test_day.day()))
                .expect("session opens");
            handle.set_day(test_day.day());
            open.insert(t, handle);
            feeds.push(test_day.alerts().iter());
        }
        loop {
            let mut progressed = false;
            for (t, feed) in feeds.iter_mut().enumerate() {
                if let Some(alert) = feed.next() {
                    open.get_mut(&t)
                        .expect("handle parked")
                        .push_alert(alert)
                        .expect("alert processes");
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        for (t, tenant_results) in results.iter_mut().enumerate() {
            let handle = open.remove(&t).expect("handle parked");
            tenant_results.push(untimed(handle.finish()));
        }
    }

    assert_eq!(
        results,
        reference,
        "{} [{accounting:?}]: interleaved driver loop diverged from serial",
        scenario.name()
    );
}

/// The default-configuration leg: `Expected` accounting, where every alert
/// is charged its expected audit cost.
#[test]
fn pool_threaded_service_replay_matches_serial_under_expected_accounting() {
    for scenario in registry() {
        assert_pool_equivalence(scenario.as_ref(), BudgetAccounting::Expected);
    }
}

#[test]
fn pool_threaded_service_replay_matches_serial_under_sampled_accounting() {
    for scenario in registry() {
        assert_pool_equivalence(scenario.as_ref(), BudgetAccounting::Sampled { seed: 77 });
    }
}

/// The default-configuration leg: `Expected` accounting, where every alert
/// is charged its expected audit cost.
#[test]
fn interleaved_owned_sessions_match_serial_under_expected_accounting() {
    for scenario in registry() {
        assert_interleaved_equivalence(scenario.as_ref(), BudgetAccounting::Expected);
    }
}

#[test]
fn interleaved_owned_sessions_match_serial_under_sampled_accounting() {
    for scenario in registry() {
        assert_interleaved_equivalence(scenario.as_ref(), BudgetAccounting::Sampled { seed: 77 });
    }
}
