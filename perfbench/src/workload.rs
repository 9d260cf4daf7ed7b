//! The named workloads and the inputs each one generates from its seed.

use sag_cluster::ClusterBuilder;
use sag_core::engine::{BudgetAccounting, EngineBuilder, EngineConfig};
use sag_service::{ServiceBuilder, TenantId};
use sag_sim::{Alert, DayLog};

/// How a wire workload's engines charge the audit budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accounting {
    /// Expected-value charging.
    Expected,
    /// Charging by a sampled warning signal, seeded per tenant.
    Sampled,
}

/// A workload served over loopback by an in-process `sag-net` server. Both
/// workloads run the paper's 7-type game ([`SCENARIO`]) with the phase
/// settings below; they differ in budget accounting and shard count.
#[derive(Debug, Clone)]
pub struct WireSpec {
    /// Budget accounting of every tenant's engine.
    pub accounting: Accounting,
    /// Shards behind the listener.
    pub shards: usize,
    /// Tenants, multiplexed over [`CONNECTIONS`] connections.
    pub tenants: usize,
    /// Test days opened per tenant before timing; sized so that no phase
    /// runs out of alerts.
    pub days: u32,
}

/// The registered scenario every tenant runs.
pub const SCENARIO: &str = "paper-baseline";

/// Client connections (and generator threads) of every wire workload.
pub const CONNECTIONS: usize = 2;

/// Days of recorded history registered per tenant.
pub const HISTORY_DAYS: u32 = 10;

/// Offered rate of the open loop, alerts per second: about a quarter of
/// the saturation throughput on a 2-core host.
pub const RATE: f64 = 15_000.0;

/// Outstanding requests per connection in saturation.
pub const WINDOW: usize = 16;

/// Shares of `--seconds` spent in the open loop and in saturation.
pub const OPEN_SHARE: f64 = 0.55;

/// See [`OPEN_SHARE`].
pub const SAT_SHARE: f64 = 0.25;

/// Times each round rebuilds, between its slices, what its first open-loop
/// slice served, besides the rebuild the correctness check times at its
/// end (the fastest of all counts for `recover_s`).
pub const REBUILDS: usize = 4;

/// Alerts per tenant pushed, untimed, to warm caches before timing.
pub const WARMUP: usize = 200;

/// Alerts per tenant the in-process ladder replays in the traced run.
pub const LADDER: usize = 600;

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// What it serves.
    pub spec: WireSpec,
}

/// Every workload, in `BENCHMARK.json` order.
#[must_use]
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "paper-wire",
            spec: WireSpec {
                accounting: Accounting::Expected,
                shards: 1,
                tenants: 8,
                days: 100,
            },
        },
        Workload {
            name: "paper-sampled",
            spec: WireSpec {
                accounting: Accounting::Sampled,
                shards: 2,
                tenants: 8,
                days: 100,
            },
        },
    ]
}

/// Look a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// One tenant's generated inputs: its engine, history, and the test days
/// that are each opened as one session.
#[derive(Debug, Clone)]
pub struct TenantInput {
    /// Service id.
    pub id: TenantId,
    /// Engine configuration.
    pub config: EngineConfig,
    /// Registered history, oldest first.
    pub history: Vec<DayLog>,
    /// Test days, in the order their sessions are driven.
    pub days: Vec<DayLog>,
    /// Budget override per test day.
    pub budgets: Vec<Option<f64>>,
}

impl TenantInput {
    /// The tenant's alerts in push order, each tagged with its day's index.
    pub fn stream(&self) -> impl Iterator<Item = (usize, &Alert)> + '_ {
        self.days
            .iter()
            .enumerate()
            .flat_map(|(d, day)| day.alerts().iter().map(move |a| (d, a)))
    }

    /// The first `n` alerts of [`stream`](Self::stream), grouped by day:
    /// `(day index, alerts)` for every day the prefix touches.
    #[must_use]
    pub fn prefix_by_day(&self, n: usize) -> Vec<(usize, &[Alert])> {
        let mut left = n;
        let mut out = Vec::new();
        for (d, day) in self.days.iter().enumerate() {
            if left == 0 {
                break;
            }
            let take = day.len().min(left);
            out.push((d, &day.alerts()[..take]));
            left -= take;
        }
        out
    }
}

/// Per-tenant stream seed: distinct for every (seed, tenant) pair.
fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(tenant as u64)
}

/// The tenants of a wire workload, generated from `seed`.
#[must_use]
pub fn wire_inputs(spec: &WireSpec, seed: u64) -> Vec<TenantInput> {
    let scenario = sag_scenarios::find_scenario(SCENARIO).expect("registered scenario");
    (0..spec.tenants)
        .map(|t| {
            let seed = tenant_seed(seed, t);
            let mut config = scenario.engine_config();
            if spec.accounting == Accounting::Sampled {
                config.accounting = BudgetAccounting::Sampled { seed };
            }
            let mut days = scenario.generate_days(seed, HISTORY_DAYS + spec.days);
            let test = days.split_off(HISTORY_DAYS as usize);
            TenantInput {
                id: TenantId::new(format!("{SCENARIO}-t{t}")),
                config,
                budgets: test
                    .iter()
                    .map(|d| scenario.budget_for_day(d.day()))
                    .collect(),
                history: days,
                days: test,
            }
        })
        .collect()
}

/// A cluster builder holding every tenant.
#[must_use]
pub fn cluster_builder(tenants: &[TenantInput], shards: usize) -> ClusterBuilder {
    tenants.iter().fold(ClusterBuilder::new(shards), |b, t| {
        b.tenant_with_history(
            t.id.clone(),
            EngineBuilder::from_config(t.config.clone()),
            t.history.clone(),
        )
    })
}

/// An unsharded service builder holding every tenant.
#[must_use]
pub fn service_builder(tenants: &[TenantInput]) -> ServiceBuilder {
    tenants.iter().fold(ServiceBuilder::new(), |b, t| {
        b.tenant_with_history(
            t.id.clone(),
            EngineBuilder::from_config(t.config.clone()),
            t.history.clone(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_generates_identical_inputs() {
        let mut spec = find("paper-sampled").expect("workload").spec;
        spec.tenants = 2;
        spec.days = 1;
        let a = wire_inputs(&spec, 5);
        let b = wire_inputs(&spec, 5);
        let c = wire_inputs(&spec, 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.history, y.history);
            assert_eq!(x.days, y.days);
            assert_eq!(x.budgets, y.budgets);
            assert_eq!(x.config.accounting, y.config.accounting);
        }
        assert_ne!(a[0].days, c[0].days);
        assert_ne!(a[0].days, a[1].days, "tenants get distinct streams");
    }

    #[test]
    fn prefix_by_day_spans_days_in_order() {
        let mut spec = find("paper-wire").expect("workload").spec;
        spec.tenants = 1;
        spec.days = 3;
        let t = &wire_inputs(&spec, 1)[0];
        let first = t.days[0].len();
        let prefix = t.prefix_by_day(first + 5);
        assert_eq!(prefix.len(), 2);
        assert_eq!(prefix[0].1.len(), first);
        assert_eq!(prefix[1].1.len(), 5);
        let total: usize = t.days.iter().map(DayLog::len).sum();
        assert_eq!(t.stream().count(), total);
    }
}
