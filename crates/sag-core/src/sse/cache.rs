//! Warm-start state and cumulative solver-work counters.

use super::solution::SseSolution;
use super::solver::{CandidateOutcome, CandidateProgram};
use crate::Result;
use sag_lp::{LpSolution, SimplexWorkspace};

/// Warm-start state for repeated SSE solves.
///
/// Holds, per candidate best-response type, a reusable simplex workspace and
/// the optimal basis of the previous solve, plus the incremental-pruning
/// state (the previous winner and each slot's last optimal solution, whose
/// duals price the pruning bound) and cumulative counters. Create one per
/// replay (or per thread) and pass it to
/// [`super::SseSolver::solve_cached`]; the cache is game-shape specific
/// (number of types), and a cache observed with a different shape is reset
/// transparently.
#[derive(Debug, Clone, Default)]
pub struct SseCache {
    pub(super) slots: Vec<CandidateSlot>,
    pub(super) rates: Vec<f64>,
    /// Winning candidate of the previous solve — the incumbent the pruned
    /// path solves first, so its objective can exclude the other candidates.
    pub(super) last_winner: Option<usize>,
    /// Reusable per-solve outcome buffer (one slot per candidate), so
    /// neither the sequential nor the pooled fan-out allocates per solve.
    pub(super) outcomes: Vec<Option<Result<CandidateOutcome>>>,
    /// Scratch for [`sag_lp::LpProblem::lagrangian_bound`].
    pub(super) bound_scratch: Vec<f64>,
    /// Recycled `(coverage, budget_split)` buffers of returned
    /// [`SseSolution`]s, handed back through [`Self::recycle`].
    pub(super) spare_solutions: Vec<(Vec<f64>, Vec<f64>)>,
    /// Cumulative counters across every solve performed with this cache.
    pub totals: SseCacheTotals,
    /// Cumulative certified utility-loss bound of the ε-approximate mode:
    /// the sum over solves of `max(0, max ε-skipped upper bound − winner
    /// utility)`. Each per-solve term is ≤ ε, so this is ≤ ε × solves.
    /// Kept outside [`SseCacheTotals`] because it is a float (the totals
    /// stay `Eq`-comparable integer counters). Always 0.0 at ε = 0.
    pub(super) eps_loss: f64,
}

/// One candidate best-response type's warm-start slot: its cached LP, the
/// previous optimal basis, and a reusable simplex workspace.
#[derive(Debug, Clone, Default)]
pub(super) struct CandidateSlot {
    pub(super) workspace: SimplexWorkspace,
    /// Row-ordered optimal basis of the previous solve; empty = none yet.
    pub(super) basis: Vec<usize>,
    /// The candidate LP, built once per game shape; subsequent solves only
    /// rewrite its coefficients in place (no allocation).
    pub(super) program: Option<CandidateProgram>,
    /// The most recent optimal solution (kept so the winning candidate's
    /// budget split can be extracted without re-solving).
    pub(super) last: Option<LpSolution>,
}

/// Cumulative counters of an [`SseCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SseCacheTotals {
    /// SSE computations performed.
    pub solves: u64,
    /// Candidate LPs solved (excludes closed-form fast-path solves).
    pub lp_solves: u64,
    /// LPs for which a warm basis was available and attempted.
    pub warm_attempts: u64,
    /// LPs for which the warm basis was accepted (no cold fallback).
    pub warm_hits: u64,
    /// Total simplex pivots.
    pub pivots: u64,
    /// Solves answered by the single-type closed form.
    pub fast_path_solves: u64,
    /// Candidate LPs skipped because the incremental pruning bound proved
    /// they could not beat the incumbent winner (see [`super::SseSolver`]).
    pub pruned_lps: u64,
    /// Candidate LPs skipped by the ε-approximate mode (bound above the
    /// incumbent, but by no more than ε). Always zero at ε = 0.
    pub eps_skipped_lps: u64,
}

impl SseCacheTotals {
    /// Counter deltas accumulated since an earlier snapshot of the same
    /// cache (used to attribute work to one replayed day when a cache is
    /// shared across many).
    #[must_use]
    pub fn since(&self, earlier: &SseCacheTotals) -> SseCacheTotals {
        SseCacheTotals {
            solves: self.solves - earlier.solves,
            lp_solves: self.lp_solves - earlier.lp_solves,
            warm_attempts: self.warm_attempts - earlier.warm_attempts,
            warm_hits: self.warm_hits - earlier.warm_hits,
            pivots: self.pivots - earlier.pivots,
            fast_path_solves: self.fast_path_solves - earlier.fast_path_solves,
            pruned_lps: self.pruned_lps - earlier.pruned_lps,
            eps_skipped_lps: self.eps_skipped_lps - earlier.eps_skipped_lps,
        }
    }

    /// Fraction of warm-start attempts that avoided the cold path.
    #[must_use]
    pub fn warm_hit_rate(&self) -> f64 {
        if self.warm_attempts == 0 {
            0.0
        } else {
            self.warm_hits as f64 / self.warm_attempts as f64
        }
    }

    /// Mean simplex pivots per candidate LP.
    #[must_use]
    pub fn pivots_per_lp(&self) -> f64 {
        if self.lp_solves == 0 {
            0.0
        } else {
            self.pivots as f64 / self.lp_solves as f64
        }
    }

    /// Fraction of candidate LPs the incremental pruning bound skipped, out
    /// of every candidate considered (`pruned_lps + lp_solves`).
    #[must_use]
    pub fn pruned_lp_fraction(&self) -> f64 {
        let considered = self.pruned_lps + self.lp_solves;
        if considered == 0 {
            0.0
        } else {
            self.pruned_lps as f64 / considered as f64
        }
    }
}

/// Field-wise sum, for totalling the counters of many replayed days.
impl std::ops::AddAssign for SseCacheTotals {
    fn add_assign(&mut self, other: SseCacheTotals) {
        // Destructured so that a counter added to the struct cannot be left
        // out of the sum: the pattern stops compiling until it is named.
        let SseCacheTotals {
            solves,
            lp_solves,
            warm_attempts,
            warm_hits,
            pivots,
            fast_path_solves,
            pruned_lps,
            eps_skipped_lps,
        } = other;
        self.solves += solves;
        self.lp_solves += lp_solves;
        self.warm_attempts += warm_attempts;
        self.warm_hits += warm_hits;
        self.pivots += pivots;
        self.fast_path_solves += fast_path_solves;
        self.pruned_lps += pruned_lps;
        self.eps_skipped_lps += eps_skipped_lps;
    }
}

impl SseCache {
    /// Create an empty cache.
    #[must_use]
    pub fn new() -> Self {
        SseCache::default()
    }

    /// Cumulative certified utility-loss bound accumulated by ε-approximate
    /// solves through this cache (0.0 when every solve ran exactly).
    #[must_use]
    pub fn certified_eps_loss(&self) -> f64 {
        self.eps_loss
    }

    /// Make sure the cache matches a game with `n` types, resetting the
    /// warm-start slots (and the incumbent) if it was shaped for a
    /// different game.
    pub(super) fn ensure_shape(&mut self, n: usize) {
        if self.slots.len() != n {
            self.slots.clear();
            self.slots.resize_with(n, CandidateSlot::default);
            self.last_winner = None;
        }
    }

    /// Forget the recorded warm-start bases and the pruning state (the next
    /// solve runs cold and exhaustive) while keeping the allocated programs,
    /// workspaces and the cumulative [`totals`](Self::totals).
    ///
    /// The replay engine calls this at every day boundary: a cold day start
    /// makes each replayed day a pure function of its own inputs, so batched
    /// and sharded replays produce bitwise-identical results no matter how
    /// the days are partitioned, at the cost of one cold solve per day.
    pub fn reset_warm_state(&mut self) {
        for slot in &mut self.slots {
            slot.basis.clear();
            if let Some(last) = slot.last.take() {
                slot.workspace.recycle(last);
            }
        }
        self.last_winner = None;
    }

    /// Hand a returned [`SseSolution`]'s buffers back so the next solve can
    /// reuse them instead of allocating (the per-solve counterpart of
    /// [`sag_lp::SimplexWorkspace::recycle`]). Solutions from any cache (or
    /// game shape) are accepted — only the capacity is reused. The spare
    /// list is capped: the steady state pops one pair per solve, so a
    /// longer list can only mean a pop-less call pattern, and unmatched
    /// pushes must not grow the cache without bound.
    pub fn recycle(&mut self, solution: SseSolution) {
        const MAX_SPARE_SOLUTIONS: usize = 8;
        if self.spare_solutions.len() >= MAX_SPARE_SOLUTIONS {
            return;
        }
        let SseSolution {
            coverage,
            budget_split,
            ..
        } = solution;
        self.spare_solutions.push((coverage, budget_split));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PayoffTable;
    use crate::sse::{SseInput, SseSolver};

    #[test]
    fn totals_of_an_untouched_cache_report_zero_rates() {
        let totals = SseCacheTotals::default();
        assert_eq!(totals.solves, 0);
        // No solves: both derived rates must be well-defined zeros, not NaN.
        assert_eq!(totals.warm_hit_rate(), 0.0);
        assert_eq!(totals.pivots_per_lp(), 0.0);
        // The delta of two empty snapshots is empty.
        assert_eq!(totals.since(&SseCacheTotals::default()), totals);
    }

    #[test]
    fn add_assign_sums_every_counter() {
        let day = |k: u64| SseCacheTotals {
            solves: k,
            lp_solves: 2 * k,
            warm_attempts: 3 * k,
            warm_hits: 4 * k,
            pivots: 5 * k,
            fast_path_solves: 6 * k,
            pruned_lps: 7 * k,
            eps_skipped_lps: 8 * k,
        };
        let mut totals = day(1);
        totals += day(10);
        assert_eq!(totals, day(11));
        assert_eq!(totals.eps_skipped_lps, 88);
        // The sum undoes `since`.
        assert_eq!(totals.since(&day(10)), day(1));
    }

    #[test]
    fn since_isolates_the_work_of_one_window() {
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let estimates = vec![196.57, 29.02, 140.46, 10.84, 25.43, 15.14, 43.27];
        let input = SseInput {
            payoffs: &payoffs,
            audit_costs: &costs,
            future_estimates: &estimates,
            budget: 50.0,
        };
        let solver = SseSolver::new();
        let mut cache = SseCache::new();
        for _ in 0..3 {
            solver.solve_cached(&input, &mut cache).unwrap();
        }
        let snapshot = cache.totals;
        assert_eq!(snapshot.solves, 3);
        for _ in 0..2 {
            solver.solve_cached(&input, &mut cache).unwrap();
        }
        let delta = cache.totals.since(&snapshot);
        assert_eq!(delta.solves, 2);
        // Every candidate is either solved or pruned away, each solve.
        assert_eq!(
            delta.lp_solves + delta.pruned_lps,
            14,
            "7 candidates considered per solve"
        );
        // Identical repeated inputs: the incumbent is re-solved, everything
        // else is excluded by its re-priced bound.
        assert_eq!(delta.lp_solves, 2, "only the incumbent LP is solved");
        assert_eq!(delta.pruned_lps, 12);
        // Every solved LP had a basis by the time the window started.
        assert_eq!(delta.warm_attempts, delta.lp_solves);
        // A snapshot delta against itself is empty.
        assert_eq!(cache.totals.since(&cache.totals), SseCacheTotals::default());
    }

    #[test]
    fn fast_path_recycle_keeps_the_spare_list_bounded() {
        // The single-type fast path must pop the spares that per-alert
        // recycling pushes; a pop-less fast path once grew this list by one
        // buffer pair per alert across a whole replay.
        let payoffs = PayoffTable::new(vec![crate::model::Payoffs::new(
            100.0, -400.0, -2000.0, 400.0,
        )]);
        let costs = [1.0];
        let estimates = [50.0];
        let input = SseInput {
            payoffs: &payoffs,
            audit_costs: &costs,
            future_estimates: &estimates,
            budget: 25.0,
        };
        let solver = SseSolver::new();
        let mut cache = SseCache::new();
        for _ in 0..100 {
            let solution = solver.solve_cached(&input, &mut cache).unwrap();
            cache.recycle(solution);
        }
        assert_eq!(cache.totals.fast_path_solves, 100);
        assert!(
            cache.spare_solutions.len() <= 1,
            "fast-path solves must reuse recycled buffers, found {} spares",
            cache.spare_solutions.len()
        );
    }

    #[test]
    fn totals_survive_a_warm_state_reset() {
        let payoffs = PayoffTable::paper_table2();
        let costs = vec![1.0; 7];
        let estimates = vec![50.0; 7];
        let input = SseInput {
            payoffs: &payoffs,
            audit_costs: &costs,
            future_estimates: &estimates,
            budget: 25.0,
        };
        let solver = SseSolver::new();
        let mut cache = SseCache::new();
        solver.solve_cached(&input, &mut cache).unwrap();
        let before_reset = cache.totals;
        cache.reset_warm_state();
        // Resetting the warm state must not touch the cumulative counters.
        assert_eq!(cache.totals, before_reset);

        // The next solve runs cold (no warm attempts in the delta), and a
        // `since` across the reset still only counts the new work.
        solver.solve_cached(&input, &mut cache).unwrap();
        let delta = cache.totals.since(&before_reset);
        assert_eq!(delta.solves, 1);
        assert_eq!(delta.warm_attempts, 0, "post-reset solve starts cold");
        assert_eq!(delta.warm_hit_rate(), 0.0);
        assert!(delta.pivots_per_lp() >= 0.0);
    }

    #[test]
    fn derived_rates_handle_lp_free_windows() {
        // A window that only saw fast-path (closed-form) solves has solves
        // but no LP work; the rates must stay finite.
        let totals = SseCacheTotals {
            solves: 5,
            fast_path_solves: 5,
            ..SseCacheTotals::default()
        };
        assert_eq!(totals.warm_hit_rate(), 0.0);
        assert_eq!(totals.pivots_per_lp(), 0.0);
    }
}
