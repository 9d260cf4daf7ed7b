//! Batch replay: [`AuditCycleEngine::replay`] streams many recorded
//! [`DayLog`]s through [`DaySession`](super::DaySession)s, sequentially or
//! sharded over the engine's worker pool.
//!
//! Every job's test day is replayed by [`Session::drive`](super::Session::drive)
//! — open a session, push its alerts one at a time, finish — so batch and
//! streaming callers are guaranteed to agree bitwise. A single day needs no
//! batch driver: `engine.open_day(history, None)?.drive(day)`.

use super::outcome::CycleResult;
use super::session::{AuditCycleEngine, Session};
use crate::sse::SseCache;
use crate::{ConfigError, Result};
use sag_sim::DayLog;

/// One unit of replay work: a history window, the test day replayed against
/// it, and an optional per-cycle budget override (budget schedules).
#[derive(Debug, Clone, Copy)]
pub struct ReplayJob<'a> {
    /// Historical days the forecaster is fitted on.
    pub history: &'a [DayLog],
    /// The day whose alerts are replayed.
    pub test_day: &'a DayLog,
    /// Budget for this cycle; `None` uses the game's configured budget.
    pub budget: Option<f64>,
}

/// Check a per-cycle budget override before any session (or shard thread)
/// picks it up.
pub(super) fn validate_budget(budget: f64) -> Result<()> {
    if !budget.is_finite() || budget < 0.0 {
        return Err(ConfigError::InvalidBudget { value: budget }.into());
    }
    Ok(())
}

impl<'a> ReplayJob<'a> {
    /// A job with the game's default budget.
    #[must_use]
    pub fn new(history: &'a [DayLog], test_day: &'a DayLog) -> Self {
        ReplayJob {
            history,
            test_day,
            budget: None,
        }
    }

    /// A job with an explicit cycle budget (budget-schedule scenarios).
    /// Validated at construction so a malformed budget fails here, long
    /// before a shard thread would pick the job up.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SagError::InvalidConfig`] for a non-finite or negative
    /// budget.
    pub fn with_budget(history: &'a [DayLog], test_day: &'a DayLog, budget: f64) -> Result<Self> {
        validate_budget(budget)?;
        Ok(ReplayJob {
            history,
            test_day,
            budget: Some(budget),
        })
    }
}

/// The shard count to hand [`AuditCycleEngine::replay`] for a batch of
/// `num_jobs` day jobs: one shard per available core under the `parallel`
/// feature (capped at the job count), a single shard otherwise.
#[must_use]
pub fn recommended_shards(num_jobs: usize) -> usize {
    #[cfg(feature = "parallel")]
    {
        std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(num_jobs.max(1))
    }
    #[cfg(not(feature = "parallel"))]
    {
        let _ = num_jobs;
        1
    }
}

impl AuditCycleEngine {
    /// Replay a batch of day jobs partitioned into `shards` contiguous
    /// shards. Each shard owns its own warm-start cache (simplex workspaces
    /// and cached candidate LPs), streams its jobs' days sequentially, and —
    /// with the `parallel` feature, on a multi-core host — runs as a task
    /// on the engine's persistent [`sag_pool::WorkerPool`] (spawned once at
    /// engine construction, never per call).
    ///
    /// Every day's session starts from a cold warm-start state (see
    /// [`crate::sse::SseCache::reset_warm_state`]), which makes each
    /// [`CycleResult`] a pure function of its job: the output is **bitwise
    /// identical** for every shard count, with or without the `parallel`
    /// feature. Sharding therefore only changes wall-clock time, never
    /// results.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SagError::InvalidConfig`] if any job carries a malformed
    /// budget override (checked up front, before any shard thread starts),
    /// and propagates solver errors (which do not occur for valid
    /// configurations).
    pub fn replay(&self, jobs: &[ReplayJob<'_>], shards: usize) -> Result<Vec<CycleResult>> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        // Fail fast on malformed budgets: jobs built with struct literals
        // bypass the `with_budget` check, so re-validate the whole batch
        // here before a shard thread picks anything up.
        for job in jobs {
            if let Some(budget) = job.budget {
                validate_budget(budget)?;
            }
        }
        let shards = shards.clamp(1, jobs.len());
        let chunk_size = jobs.len().div_ceil(shards);

        if shards > 1 {
            if let Some(pool) = self.pool() {
                let mut results: Vec<Option<Result<CycleResult>>> =
                    (0..jobs.len()).map(|_| None).collect();
                let tasks: Vec<sag_pool::Task<'_>> = jobs
                    .chunks(chunk_size)
                    .zip(results.chunks_mut(chunk_size))
                    .map(|(job_chunk, result_chunk)| {
                        Box::new(move || {
                            let mut cache = SseCache::default();
                            for (job, out) in job_chunk.iter().zip(result_chunk.iter_mut()) {
                                *out = Some(self.stream_job(job, &mut cache));
                            }
                        }) as sag_pool::Task<'_>
                    })
                    .collect();
                pool.run(tasks);
                return results
                    .into_iter()
                    .map(|r| r.expect("every job replayed"))
                    .collect();
            }
        }

        let mut results = Vec::with_capacity(jobs.len());
        for job_chunk in jobs.chunks(chunk_size) {
            let mut cache = SseCache::default();
            for job in job_chunk {
                results.push(self.stream_job(job, &mut cache)?);
            }
        }
        Ok(results)
    }

    /// Stream one job's test day through a [`super::DaySession`], reusing
    /// the shard's cache (the session resets its warm-start state on open).
    fn stream_job(&self, job: &ReplayJob<'_>, cache: &mut SseCache) -> Result<CycleResult> {
        let (result, used) =
            Session::open_with(self, job.history, job.budget, std::mem::take(cache))?
                .drive_with_cache(job.test_day)?;
        *cache = used;
        Ok(result)
    }
}
