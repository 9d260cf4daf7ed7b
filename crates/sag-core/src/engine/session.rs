//! The streaming per-day core: [`AuditCycleEngine`] and the generic
//! [`Session`] with its borrowed ([`DaySession`]) and owned
//! ([`OwnedDaySession`]) forms.
//!
//! A session is the online heart of the system: the auditor opens one per
//! audit cycle ([`AuditCycleEngine::open_day`]), feeds it alerts *as they
//! arrive* ([`Session::push_alert`]) — each push commits the warning
//! decision for that alert before the next one is seen, exactly as the
//! paper's online model demands — and closes it at end of cycle
//! ([`Session::finish`]) to obtain the day's [`CycleResult`]. A recorded
//! [`sag_sim::DayLog`] is streamed through a session by [`Session::drive`],
//! which the batch [`AuditCycleEngine::replay`] runs for every job.
//!
//! ## Borrowed vs. owned sessions
//!
//! [`Session<E>`] is generic over *how it holds its engine*: any
//! `E: Borrow<AuditCycleEngine>` works, and the two forms that matter have
//! aliases. [`DaySession<'e>`] borrows the engine (`E = &AuditCycleEngine`) —
//! the zero-overhead form [`AuditCycleEngine::replay`] streams through.
//! [`OwnedDaySession`] holds the engine through an [`Arc`]
//! (`E = Arc<AuditCycleEngine>`), freeing the session from the
//! engine's lifetime: it can be stored in a map, returned from a
//! constructor, and moved across threads — the shape the `sag-service`
//! front door hands out to multi-tenant drivers. Both forms run the exact
//! same code paths, so a day streamed through either is bitwise identical.

use super::config::{BudgetAccounting, EngineConfig};
use super::outcome::{AlertOutcome, CycleResult};
use crate::offline::OfflineSse;
use crate::scheme::SignalingScheme;
use crate::signaling::{evaluate_scheme_under_noise, ossp_closed_form};
use crate::sse::solver::PARALLEL_MIN_TYPES;
use crate::sse::{SseCache, SseCacheTotals, SseInput, SseSolution, SseSolver};
use crate::Result;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sag_forecast::{ArrivalModel, FutureAlertEstimator};
use sag_pool::WorkerPool;
use sag_sim::{Alert, AlertTypeId, DayLog};
use std::borrow::Borrow;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The audit-cycle engine: a validated configuration, the solver every
/// session solves through, and (with the `parallel` feature,
/// on multi-core hosts) a persistent worker pool spawned **once** — lazily,
/// the first time a sharded replay or a many-type candidate fan-out asks
/// for it — and shared by the engine and all its clones, replacing the
/// per-call `std::thread::scope` spawns of earlier revisions. Day-scoped
/// state lives on the [`DaySession`]s the engine opens.
#[derive(Debug, Clone)]
pub struct AuditCycleEngine {
    pub(super) config: EngineConfig,
    solver: SseSolver,
    /// Lazily spawned worker pool, shared across engine clones. Engines
    /// whose workloads never fan out (few-type games, no sharded replays)
    /// never spawn a thread.
    pool: Arc<OnceLock<Option<Arc<WorkerPool>>>>,
}

/// One audit cycle in progress: per-day forecaster state, the remaining
/// budget, the warm-start cache of the per-alert SSE solves, and the
/// outcomes recorded so far.
///
/// Generic over how the engine is held: `E` is any
/// [`Borrow<AuditCycleEngine>`] — a plain reference ([`DaySession`]), an
/// [`Arc`] ([`OwnedDaySession`]), a [`Box`], or the engine by value.
/// Obtained from [`AuditCycleEngine::open_day`] /
/// [`AuditCycleEngine::open_day_owned`] or directly from
/// [`Session::open`]; alerts are fed with
/// [`push_alert`](Self::push_alert) and the day is closed with
/// [`finish`](Self::finish), or a whole recorded [`DayLog`] is streamed
/// with [`drive`](Self::drive). Either way the [`CycleResult`] is bitwise
/// identical, whichever form holds the engine.
#[derive(Debug)]
pub struct Session<E: Borrow<AuditCycleEngine>> {
    engine: E,
    estimator: FutureAlertEstimator,
    offline: OfflineSse,
    rng: Option<StdRng>,
    budget: f64,
    outcomes: Vec<AlertOutcome>,
    /// Warm-start cache of the per-alert SSE solves. Reused across the days
    /// of a replay shard so the steady state stays allocation-free.
    cache: SseCache,
    totals_at_open: SseCacheTotals,
    /// The cache's cumulative certified ε loss when the session opened,
    /// so `finish` can attribute exactly this day's loss (the cache is
    /// reused across the days of a replay shard, like the totals).
    eps_loss_at_open: f64,
    /// Reusable per-alert estimate buffer (one forecast vector per push).
    estimates: Vec<f64>,
    /// Day index reported on the [`CycleResult`]; pinned by
    /// [`set_day`](Self::set_day) or inferred from the first pushed alert.
    day: Option<u32>,
}

/// A [`Session`] borrowing its engine — the form
/// [`AuditCycleEngine::replay`] streams through. Tied to the engine's
/// lifetime but allocation-free to hand out.
pub type DaySession<'e> = Session<&'e AuditCycleEngine>;

/// A [`Session`] that owns its engine through an [`Arc`] — no lifetime
/// parameter, so it can live in a `HashMap`, move across threads, and
/// outlive the binding that created it. The `sag-service` front door hands
/// these out as `SessionHandle`s.
pub type OwnedDaySession = Session<Arc<AuditCycleEngine>>;

impl AuditCycleEngine {
    /// Create an engine after validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SagError::InvalidConfig`] for inconsistent
    /// configurations.
    pub fn new(config: EngineConfig) -> Result<Self> {
        config.validate()?;
        let solver = SseSolver::with_options(config.pruning, config.epsilon);
        Ok(AuditCycleEngine {
            config,
            solver,
            pool: Arc::new(OnceLock::new()),
        })
    }

    /// Spawn the engine's worker pool: one thread per available core.
    /// `None` without the `parallel` feature or on a single-core host,
    /// where every fan-out degrades to the sequential path anyway.
    #[cfg(feature = "parallel")]
    fn spawn_pool() -> Option<Arc<WorkerPool>> {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        (threads > 1).then(|| Arc::new(WorkerPool::new(threads)))
    }

    /// Without the `parallel` feature the engine never spawns threads.
    #[cfg(not(feature = "parallel"))]
    fn spawn_pool() -> Option<Arc<WorkerPool>> {
        None
    }

    /// The shared worker pool, spawning it on first use (engine clones
    /// share one pool through the `Arc<OnceLock>`).
    pub(super) fn pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.get_or_init(Self::spawn_pool).as_ref()
    }

    /// The pool the candidate fan-out runs on. Only handed out (and hence
    /// only spawned) when the game has enough types for the fan-out to ever
    /// run.
    fn fan_out_pool(&self) -> Option<&WorkerPool> {
        if self.config.game.num_types() >= PARALLEL_MIN_TYPES {
            self.pool().map(Arc::as_ref)
        } else {
            None
        }
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Open a streaming session for one audit cycle: fit the forecaster on
    /// `history`, solve the offline whole-day baseline, and set the remaining
    /// budget to `budget` (or the game's configured budget for `None`).
    /// Alerts are then fed with [`DaySession::push_alert`] as they arrive.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SagError::InvalidConfig`] for a non-finite or
    /// negative budget override, and propagates offline-solver errors (which
    /// do not occur for valid configurations).
    pub fn open_day(&self, history: &[DayLog], budget: Option<f64>) -> Result<DaySession<'_>> {
        Session::open(self, history, budget)
    }

    /// [`open_day`](Self::open_day) for an engine shared behind an [`Arc`]:
    /// returns an [`OwnedDaySession`], free of the engine's lifetime. The
    /// session bumps the `Arc`'s reference count, so the engine stays alive
    /// for exactly as long as any of its open sessions; dropping the last
    /// handle drops the engine (and its worker pool).
    ///
    /// # Errors
    ///
    /// Same contract as [`open_day`](Self::open_day).
    pub fn open_day_owned(
        self: &Arc<Self>,
        history: &[DayLog],
        budget: Option<f64>,
    ) -> Result<OwnedDaySession> {
        Session::open(Arc::clone(self), history, budget)
    }

    /// Solve the online SSE for the given forecast and remaining budget,
    /// warm-started from (and recording into) the session's `cache`.
    fn solve_sse(
        &self,
        estimates: &[f64],
        budget: f64,
        cache: &mut SseCache,
    ) -> Result<SseSolution> {
        let game = &self.config.game;
        let input = SseInput {
            payoffs: &game.payoffs,
            audit_costs: &game.audit_costs,
            future_estimates: estimates,
            budget,
        };
        self.solver
            .solve_cached_with(&input, cache, self.fan_out_pool())
    }
}

impl<E: Borrow<AuditCycleEngine>> Session<E> {
    /// Open one audit cycle on `engine`, whatever form holds it: fit the
    /// forecaster on `history`, solve the offline whole-day baseline, and
    /// set the remaining budget to `budget` (or the game's configured budget
    /// for `None`). This is the generic constructor behind
    /// [`AuditCycleEngine::open_day`] (pass `&engine`) and
    /// [`AuditCycleEngine::open_day_owned`] (pass an `Arc`).
    ///
    /// # Errors
    ///
    /// Returns [`crate::SagError::InvalidConfig`] for a non-finite or
    /// negative budget override, and propagates offline-solver errors (which
    /// do not occur for valid configurations).
    pub fn open(engine: E, history: &[DayLog], budget: Option<f64>) -> Result<Self> {
        Self::open_with(engine, history, budget, SseCache::default())
    }

    /// [`open`](Self::open) over a caller-provided cache (replay shards
    /// reuse one across their days). The cache's warm-start state is reset
    /// on entry: day boundaries start cold, which keeps every session a pure
    /// function of its own inputs.
    pub(super) fn open_with(
        engine: E,
        history: &[DayLog],
        budget: Option<f64>,
        mut cache: SseCache,
    ) -> Result<Self> {
        cache.reset_warm_state();

        if let Some(budget) = budget {
            super::replay::validate_budget(budget)?;
        }
        let config = &engine.borrow().config;
        let game = &config.game;
        let cycle_budget = budget.unwrap_or(game.budget);
        let model = ArrivalModel::fit_weighted(history, game.num_types(), config.forecast_decay);
        let estimator = FutureAlertEstimator::new(model, config.rollback);

        let offline = OfflineSse::solve(
            &game.payoffs,
            &game.audit_costs,
            &estimator.expected_daily_totals(),
            cycle_budget,
        )?;

        let rng = match config.accounting {
            BudgetAccounting::Sampled { seed } => Some(StdRng::seed_from_u64(seed)),
            BudgetAccounting::Expected => None,
        };

        let totals_at_open = cache.totals;
        let eps_loss_at_open = cache.certified_eps_loss();
        Ok(Session {
            engine,
            estimator,
            offline,
            rng,
            budget: cycle_budget,
            outcomes: Vec::new(),
            cache,
            totals_at_open,
            eps_loss_at_open,
            estimates: Vec::new(),
            day: None,
        })
    }

    /// The engine this session solves through.
    #[must_use]
    pub fn engine(&self) -> &AuditCycleEngine {
        self.engine.borrow()
    }

    /// Pin the day index reported on the final [`CycleResult`]. Without a
    /// pin the session uses the first pushed alert's day (or 0 for a day
    /// that saw no alerts at all).
    pub fn set_day(&mut self, day: u32) {
        self.day = Some(day);
    }

    /// Number of alerts processed so far.
    #[must_use]
    pub fn alerts_processed(&self) -> usize {
        self.outcomes.len()
    }

    /// The outcomes committed so far, in arrival order. This is the
    /// observable mid-day state a durability layer must reproduce: a
    /// recovered session is correct exactly when its outcome log (and
    /// remaining budget) match the original's bitwise.
    #[must_use]
    pub fn outcomes(&self) -> &[AlertOutcome] {
        &self.outcomes
    }

    /// Remaining budget after the alerts pushed so far.
    #[must_use]
    pub fn remaining_budget_ossp(&self) -> f64 {
        self.budget
    }

    /// Process one arriving alert: solve the online SSE for the remaining
    /// budget, derive the OSSP warning decision from it, charge the budget,
    /// update the forecaster, and record the outcome. Returns the committed
    /// outcome — its [`ossp_scheme`](AlertOutcome::ossp_scheme) is the
    /// signaling scheme the auditor plays for this alert. The outcome's
    /// online-SSE fields report the same equilibrium played without
    /// signaling, and its offline field the whole-day baseline.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (which do not occur for valid
    /// configurations).
    pub fn push_alert(&mut self, alert: &Alert) -> Result<AlertOutcome> {
        if self.day.is_none() {
            self.day = Some(alert.day);
        }
        let engine = self.engine.borrow();
        let game = &engine.config.game;
        self.estimator
            .estimate_all_into(alert.time, &mut self.estimates);

        let started = Instant::now();
        let sse = engine.solve_sse(&self.estimates, self.budget, &mut self.cache)?;
        let type_payoffs = game.payoffs.get(alert.type_id);
        let coverage = sse.coverage_of(alert.type_id);
        let ossp_applied = alert.type_id == sse.best_response;
        let (ossp_scheme, ossp_utility, ossp_attacker_utility, ossp_deterred) = if ossp_applied {
            let mut ossp = ossp_closed_form(type_payoffs, coverage);
            if engine.config.signal_noise > 0.0 {
                // Leaky channel: keep the committed scheme but score it
                // under the attacker's noisy Bayesian posterior.
                ossp = evaluate_scheme_under_noise(
                    type_payoffs,
                    &ossp.scheme,
                    engine.config.signal_noise,
                );
            }
            (
                ossp.scheme,
                ossp.auditor_utility,
                ossp.attacker_utility,
                ossp.deterred,
            )
        } else {
            // Alerts whose type is not the best response are handled
            // with the plain online SSE, as in the paper's evaluation.
            (
                SignalingScheme::no_signaling(coverage),
                sse.auditor_utility,
                sse.attacker_utility,
                false,
            )
        };
        let solve_micros = started.elapsed().as_micros() as u64;

        let cost = game.audit_costs[alert.type_id.index()];
        let charge = match self.rng.as_mut() {
            Some(rng) => {
                let signal = ossp_scheme.sample_signal(rng);
                ossp_scheme.conditional_audit_cost(signal) * cost
            }
            None => ossp_scheme.expected_audit_cost() * cost,
        };
        self.budget = (self.budget - charge).max(0.0);

        self.estimator.observe_alert(alert.time);

        let outcome = AlertOutcome {
            index: self.outcomes.len(),
            day: alert.day,
            time: alert.time,
            type_id: alert.type_id,
            ossp_utility,
            online_sse_utility: sse.auditor_utility,
            offline_sse_utility: self.offline.auditor_utility(),
            ossp_attacker_utility,
            online_attacker_utility: sse.attacker_utility,
            ossp_scheme,
            ossp_deterred,
            ossp_applied,
            coverage_ossp: coverage,
            coverage_online: coverage,
            best_response: sse.best_response,
            budget_after_ossp: self.budget,
            budget_after_online: self.budget,
            solve_micros,
            sse_stats: sse.stats,
        };
        // Hand the solution buffers back to the cache for reuse — the last
        // steady-state allocation of the per-alert path.
        self.cache.recycle(sse);
        self.outcomes.push(outcome.clone());
        Ok(outcome)
    }

    /// Close the cycle and return its [`CycleResult`].
    #[must_use]
    pub fn finish(self) -> CycleResult {
        self.finish_with_cache().0
    }

    /// Stream a recorded day through this session: pin its day index, push
    /// every alert in arrival order, and finish. The one replay loop of the
    /// engine — [`AuditCycleEngine::replay`] runs every job through it — so
    /// a recorded day and the same alerts pushed live agree bitwise.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (which do not occur for valid
    /// configurations).
    pub fn drive(self, day: &DayLog) -> Result<CycleResult> {
        Ok(self.drive_with_cache(day)?.0)
    }

    /// [`drive`](Self::drive) that also hands the warm-start cache back so
    /// replay shards can reuse it for their next day.
    pub(super) fn drive_with_cache(mut self, day: &DayLog) -> Result<(CycleResult, SseCache)> {
        self.set_day(day.day());
        for alert in day.alerts() {
            self.push_alert(alert)?;
        }
        Ok(self.finish_with_cache())
    }

    /// [`finish`](Self::finish) that also hands the warm-start cache back.
    fn finish_with_cache(self) -> (CycleResult, SseCache) {
        let n = self.engine.borrow().config.game.num_types();
        let result = CycleResult {
            day: self.day.unwrap_or(0),
            outcomes: self.outcomes,
            offline_auditor_utility: self.offline.auditor_utility(),
            offline_attacker_utility: self.offline.attacker_utility(),
            offline_coverage: (0..n)
                .map(|t| self.offline.coverage_of(AlertTypeId(t as u16)))
                .collect(),
            sse_totals: self.cache.totals.since(&self.totals_at_open),
            certified_eps_loss: self.cache.certified_eps_loss() - self.eps_loss_at_open,
        };
        (result, self.cache)
    }
}
