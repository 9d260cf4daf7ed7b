//! Online Strong Stackelberg Equilibrium — the paper's LP (2).
//!
//! Given the remaining budget `B_τ` and, for every alert type, a Poisson
//! estimate of the number of future alerts, the auditor plans a long-term
//! split of the budget across types. Allocating `B^t` to type `t` yields a
//! marginal coverage probability
//!
//! ```text
//! θ^t = E_{d ~ Poisson(λ^t)} [ B^t / (V^t · max(d, 1)) ]  =  B^t · ρ^t,
//! ρ^t = E[1 / max(d, 1)] / V^t,
//! ```
//!
//! which is linear in `B^t`, so the Stackelberg commitment can be computed
//! with the standard *multiple-LP* method: for each candidate attacker
//! best-response type `t`, solve an LP that maximises the auditor's utility
//! against an attack on `t` subject to `t` actually being a best response and
//! to the budget constraints; then keep the best feasible solution.
//!
//! ## Module layout
//!
//! * [`input`] — [`SseInput`], the borrowed per-solve problem data;
//! * [`solution`] — [`SseSolution`] and the per-solve [`SseSolveStats`];
//! * [`cache`] — [`SseCache`] warm-start state and the cumulative
//!   [`SseCacheTotals`] counters;
//! * [`solver`] — [`SseSolver`], the multiple-LP method itself.
//!
//! The engine's [`crate::engine::DaySession`] solves every per-alert
//! equilibrium with one [`SseSolver`] (shared by the engine) through one
//! [`SseCache`]: one solve per alert.
//!
//! ## The per-alert hot path
//!
//! This is the latency-critical computation of the whole system: it runs once
//! per incoming alert, before the warning dialog can be shown. Four
//! optimizations keep it fast:
//!
//! * **Warm starts** — consecutive alerts differ only by a slightly smaller
//!   budget and drifted Poisson estimates, so the optimal basis of each
//!   candidate LP rarely changes. [`SseCache`] remembers the last optimal
//!   basis per candidate and seeds the next solve from it
//!   ([`sag_lp::LpProblem::solve_from_basis`]), falling back to a cold solve
//!   automatically when the basis no longer applies.
//! * **Incremental candidate pruning** — the cached path solves the
//!   previous winner (the *incumbent*) first, then re-prices every other
//!   candidate's last dual solution against the updated coefficients
//!   ([`sag_lp::LpProblem::lagrangian_bound`]) and skips the candidate's LP
//!   when the bound certifies it cannot beat the incumbent. Per-alert solve
//!   cost thereby scales with how much the instance *changed* rather than
//!   with the type count.
//! * **A single-type closed form** — for one-type games LP (2) reduces to a
//!   one-variable program whose optimum is attained at a bound, so the
//!   solver bypasses the LP entirely.
//! * **Candidate-level parallelism** — with the `parallel` crate feature the
//!   engine owns a persistent [`sag_pool::WorkerPool`] (spawned once, never
//!   per call) and exhaustive solves of games with many types fan their
//!   candidate LPs out over it (the selection semantics are preserved by
//!   reducing results in candidate order).
//!
//! ## The pruning invariant
//!
//! Pruned and exhaustive solves are **result-identical**: same winner, same
//! coverage and budget split, same utilities — bitwise. Three ingredients
//! make this hold:
//!
//! 1. the skip certificate is one-sided — a candidate is skipped only when
//!    the re-priced dual bound (a valid upper bound on its objective for
//!    *any* multipliers, by Lagrangian relaxation) sits below the incumbent
//!    by more than a float-safety margin, so no candidate that could win or
//!    tie is ever skipped;
//! 2. the selection rule is the order-independent lexicographic argmax
//!    (highest auditor utility, exact ties to the lowest type index), so
//!    solving the incumbent out of order cannot change the winner;
//! 3. warm-start state is per candidate and day boundaries reset it
//!    ([`SseCache::reset_warm_state`]), so replays stay pure functions
//!    of their own inputs, sharding-independent, with or without pruning.
//!
//! The scenario-registry equivalence tests (`sag-scenarios`,
//! `tests/pruning.rs`) enforce the invariant end to end across every
//! registered workload, both budget-accounting modes and multiple seeds;
//! an `sag-lp` property test pins the bound's one-sidedness itself.
//!
//! One caveat on *bitwise* (as opposed to winner/utility) identity: when a
//! candidate has been pruned for several consecutive solves and then wins,
//! the pruned arm warm-starts it from an older basis than the exhaustive
//! arm does. Both terminate at an optimum of the same LP — the winner and
//! its objective cannot differ — but a *degenerate* LP with multiple
//! optimal vertices could in principle report a different (equally
//! optimal) budget split along the two pivot paths. The registry tests
//! assert full bitwise equality, i.e. they double as evidence that no
//! registered workload sits on such a knife edge; a new workload that
//! trips them should relax the comparison to winner + objective, not
//! weaken the bound.

pub mod cache;
pub mod input;
pub mod solution;
pub mod solver;

pub use cache::{SseCache, SseCacheTotals};
pub use input::SseInput;
pub use solution::{SseSolution, SseSolveStats};
pub use solver::SseSolver;

/// Feasibility/optimality tolerance shared with the LP layer.
pub(crate) const EPS: f64 = sag_lp::EPS;
