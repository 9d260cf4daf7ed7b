//! The in-process rungs of the per-layer ladder, each timed from outside
//! through a layer's public functions, on the same alerts: the first `n`
//! alerts of every tenant's stream.
//!
//! `core.push` (`Session::push_alert`) → `service.handle`
//! (`AuditService::handle_tagged`, the entry the server calls) → the same
//! with a WAL through [`TimingFs`] → the `sag_net::codec` functions → the
//! `Client` round trip over loopback.

use crate::gate::{same_decision, Verdict};
use crate::trace::{TimingFs, Tracer, WalCounts};
use crate::workload::{service_builder, TenantInput};
use sag_core::engine::{AlertOutcome, AuditCycleEngine, CycleResult};
use sag_core::sse::SseCacheTotals;
use sag_forecast::{ArrivalModel, FutureAlertEstimator};
use sag_net::codec::{decode_reply, decode_request, encode_reply, encode_request};
use sag_net::{Client, ClientStats};
use sag_service::{
    AuditService, DirFs, DurabilityOptions, Handled, Request, Response, ServiceCounters,
    ServiceJob, TenantId,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// `Session::push_alert` on the workload's own streams.
#[derive(Debug, Default)]
pub struct PushRung {
    /// Per-push wall time, microseconds.
    pub push_us: Vec<f64>,
    /// Per-session `open_day` wall time (forecast fit plus offline SSE),
    /// milliseconds.
    pub open_ms: Vec<f64>,
    /// Solver counters summed over the sessions' `CycleResult`s.
    pub totals: SseCacheTotals,
    /// Alerts decided.
    pub alerts: u64,
    /// Alerts whose previous outcome left the two worlds' budgets apart,
    /// so the online world solved on its own.
    pub second_chain: u64,
    /// Decisions per tenant, in stream order.
    pub outcomes: Vec<Vec<AlertOutcome>>,
}

fn add_totals(into: &mut SseCacheTotals, r: &CycleResult) {
    let t = &r.sse_totals;
    into.solves += t.solves;
    into.lp_solves += t.lp_solves;
    into.warm_attempts += t.warm_attempts;
    into.warm_hits += t.warm_hits;
    into.pivots += t.pivots;
    into.pruned_lps += t.pruned_lps;
}

/// Count of outcomes whose predecessor in the same session left the OSSP
/// and online budgets apart.
#[must_use]
pub fn second_chain(outcomes: &[AlertOutcome]) -> u64 {
    outcomes
        .windows(2)
        .filter(|w| w[0].budget_after_online.to_bits() != w[0].budget_after_ossp.to_bits())
        .count() as u64
}

/// Open each session the prefix touches and push its alerts, timing both.
///
/// # Errors
///
/// A description of an engine failure.
pub fn push_rung(tenants: &[TenantInput], n: usize, tracer: &Tracer) -> Result<PushRung, String> {
    let mut rung = PushRung::default();
    for t in tenants {
        let engine = Arc::new(AuditCycleEngine::new(t.config.clone()).map_err(|e| e.to_string())?);
        let mut outcomes = Vec::new();
        for (d, alerts) in t.prefix_by_day(n) {
            let begun = Instant::now();
            let mut session = engine
                .open_day_owned(&t.history, t.budgets[d])
                .map_err(|e| e.to_string())?;
            let opened = Instant::now();
            tracer.record(tracer.id(), 0, "core.open_day", 0, begun, opened);
            rung.open_ms.push((opened - begun).as_secs_f64() * 1e3);
            session.set_day(t.days[d].day());
            for (k, alert) in alerts.iter().enumerate() {
                let begun = Instant::now();
                let outcome = session.push_alert(alert).map_err(|e| e.to_string())?;
                let end = Instant::now();
                tracer.record(tracer.id(), 0, "core.push", k as u64 + 1, begun, end);
                rung.push_us.push((end - begun).as_secs_f64() * 1e6);
                outcomes.push(outcome);
            }
            let result = session.finish();
            rung.second_chain += second_chain(&result.outcomes);
            add_totals(&mut rung.totals, &result);
        }
        rung.alerts += outcomes.len() as u64;
        rung.outcomes.push(outcomes);
    }
    Ok(rung)
}

/// `AuditService::handle_tagged`, with or without a WAL.
#[derive(Debug, Default)]
pub struct HandleRung {
    /// Per-push wall time, microseconds.
    pub handle_us: Vec<f64>,
    /// Every push as sent and answered, for the codec rung.
    pub pushes: Vec<(TenantId, u64, Request, Response)>,
    /// Wall time of `recover_from` over the WAL this rung wrote, seconds.
    pub recover_s: f64,
}

/// Drive the same sessions as [`push_rung`] through a fresh service: the
/// plain one, or a durable one logging through [`TimingFs`] into `wal`,
/// which is then recovered with `recover_from`. Decisions, and the
/// recovered sessions, must equal `expected` (the push rung's).
///
/// # Errors
///
/// A description of a service failure.
pub fn handle_rung(
    tenants: &[TenantInput],
    n: usize,
    wal: Option<(&Path, &Arc<WalCounts>)>,
    tracer: &Arc<Tracer>,
    expected: &[Vec<AlertOutcome>],
    verdict: &mut Verdict,
) -> Result<HandleRung, String> {
    let mut builder = service_builder(tenants).counters(Arc::new(ServiceCounters::new()));
    if let Some((dir, counts)) = wal {
        let fs = DirFs::new(dir).map_err(|e| e.to_string())?;
        builder = builder.durable_on(
            Box::new(TimingFs::new(fs, counts.clone(), tracer.clone())),
            DurabilityOptions::default(),
        );
    }
    let mut service = builder.build().map_err(|e| e.to_string())?;
    let name = if wal.is_some() {
        "service.handle_durable"
    } else {
        "service.handle"
    };
    let mut rung = HandleRung::default();
    let mut handle = |name: &'static str,
                      tenant: &TenantId,
                      id: u64,
                      request: Request|
     -> Result<(Response, f64), String> {
        let span = tracer.id();
        tracer.enter(span, id);
        let begun = Instant::now();
        let handled = service.handle_tagged(tenant, id, request);
        let end = Instant::now();
        tracer.enter(0, 0);
        tracer.record(span, 0, name, id, begun, end);
        match handled {
            Handled::Applied(Ok(response)) => Ok((response, (end - begun).as_secs_f64() * 1e6)),
            other => Err(format!("{tenant}: {other:?}")),
        }
    };
    // Every session opened, with the tenant and the stream positions of
    // the decisions it holds.
    let mut opened = Vec::new();
    for (ti, t) in tenants.iter().enumerate() {
        let mut id = 0;
        let mut k = 0;
        for (d, alerts) in t.prefix_by_day(n) {
            id += 1;
            let open = Request::OpenDay {
                tenant: t.id.clone(),
                budget: t.budgets[d],
                day: Some(t.days[d].day()),
            };
            let (Response::DayOpened { session, .. }, _) =
                handle("service.open_day", &t.id, id, open)?
            else {
                return Err(format!("{}: OpenDay did not open a day", t.id));
            };
            opened.push((ti, session, k..k + alerts.len()));
            for alert in alerts {
                id += 1;
                let request = Request::PushAlert {
                    session,
                    alert: *alert,
                };
                let (response, us) = handle(name, &t.id, id, request.clone())?;
                rung.handle_us.push(us);
                verdict.checked += 1;
                match &response {
                    Response::Decision { outcome, .. }
                        if same_decision(outcome, &expected[ti][k]) => {}
                    _ => verdict.fail(format!("{} alert {k}: {name} differs from core.push", t.id)),
                }
                k += 1;
                rung.pushes.push((t.id.clone(), id, request, response));
            }
        }
    }
    // Close the WAL before recovering from it.
    drop(service);
    if let Some((dir, _)) = wal {
        let begun = Instant::now();
        let recovered = service_builder(tenants)
            .recover_from(dir)
            .map_err(|e| format!("recover: {e}"))?;
        rung.recover_s = begun.elapsed().as_secs_f64();
        for (ti, session, range) in opened {
            let want = &expected[ti][range];
            verdict.checked += want.len() as u64;
            let same = recovered.session(session).is_some_and(|s| {
                s.outcomes().len() == want.len()
                    && s.outcomes()
                        .iter()
                        .zip(want)
                        .all(|(g, w)| same_decision(g, w))
            });
            if !same {
                verdict.fail(format!(
                    "{} session {session}: recovered outcomes differ",
                    tenants[ti].id
                ));
            }
        }
    }
    Ok(rung)
}

/// The codec functions on the rung's own request and reply frames.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecRung {
    /// `encode_request` + `encode_reply` per alert, nanoseconds.
    pub encode_ns: f64,
    /// `decode_request` + `decode_reply` per alert, nanoseconds.
    pub decode_ns: f64,
    /// Request plus reply frame bytes per alert, headers included.
    pub bytes: f64,
}

/// Time encoding and decoding every push of `pushes` (the median of five
/// passes), and check each frame decodes back to what was encoded.
#[must_use]
pub fn codec_rung(
    pushes: &[(TenantId, u64, Request, Response)],
    verdict: &mut Verdict,
) -> CodecRung {
    if pushes.is_empty() {
        return CodecRung::default();
    }
    let frames: Vec<_> = pushes
        .iter()
        .map(|(tenant, id, request, response)| {
            (
                encode_request(*id, tenant, request),
                encode_reply(*id, &Ok(response.clone())),
            )
        })
        .collect();
    for ((tenant, id, request, response), (req, rep)) in pushes.iter().zip(&frames) {
        verdict.checked += 1;
        let round = decode_request(req).ok() == Some((*id, tenant.clone(), request.clone()))
            && decode_reply(rep).ok() == Some((*id, Ok(response.clone())));
        if !round {
            verdict.fail(format!(
                "{tenant} request {id}: frame does not decode to itself"
            ));
        }
    }
    let replies: Vec<_> = pushes
        .iter()
        .map(|(_, id, _, r)| (*id, Ok(r.clone())))
        .collect();
    let n = pushes.len() as f64;
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..5 {
        let begun = Instant::now();
        for ((tenant, id, request, _), (rid, reply)) in pushes.iter().zip(&replies) {
            black_box(encode_request(*id, tenant, black_box(request)));
            black_box(encode_reply(*rid, black_box(reply)));
        }
        encode.push(begun.elapsed().as_secs_f64() * 1e9 / n);
        let begun = Instant::now();
        for (req, rep) in &frames {
            let _ = black_box(decode_request(black_box(req)));
            let _ = black_box(decode_reply(black_box(rep)));
        }
        decode.push(begun.elapsed().as_secs_f64() * 1e9 / n);
    }
    let bytes: usize = frames.iter().map(|(q, p)| q.len() + p.len() + 16).sum();
    CodecRung {
        encode_ns: crate::stats::median(&encode),
        decode_ns: crate::stats::median(&decode),
        bytes: bytes as f64 / n,
    }
}

/// One closed-loop `Client` per tenant, in turn, on the running server:
/// fresh sessions for the days the prefix touches, each push timed.
#[derive(Debug, Default)]
pub struct RttRung {
    /// Per-push round trip, microseconds.
    pub rtt_us: Vec<f64>,
    /// The clients' retry and reconnect counts, summed.
    pub stats: ClientStats,
    /// Requests sent.
    pub requests: u64,
}

/// Run the round-trip rung against `addr`, continuing each tenant's
/// request ids from `next_ids`; decisions must equal `expected`.
///
/// # Errors
///
/// A description of a client failure.
pub fn rtt_rung(
    addr: &str,
    tenants: &[TenantInput],
    next_ids: &[u64],
    n: usize,
    expected: &[Vec<AlertOutcome>],
    verdict: &mut Verdict,
) -> Result<RttRung, String> {
    let mut rung = RttRung::default();
    for (ti, t) in tenants.iter().enumerate() {
        let mut client = Client::connect(addr, t.id.clone()).map_err(|e| e.to_string())?;
        let mut id = next_ids[ti];
        let mut call = |request: Request| -> Result<Response, String> {
            id += 1;
            match client.call_tagged(id - 1, &request) {
                Ok(Ok(response)) => Ok(response),
                other => Err(format!("{}: {other:?}", t.id)),
            }
        };
        let mut k = 0;
        for (d, alerts) in t.prefix_by_day(n) {
            let open = Request::OpenDay {
                tenant: t.id.clone(),
                budget: t.budgets[d],
                day: Some(t.days[d].day()),
            };
            let Response::DayOpened { session, .. } = call(open)? else {
                return Err(format!("{}: OpenDay did not open a day", t.id));
            };
            rung.requests += 1;
            for alert in alerts {
                let request = Request::PushAlert {
                    session,
                    alert: *alert,
                };
                let begun = Instant::now();
                let response = call(request)?;
                rung.rtt_us.push(begun.elapsed().as_secs_f64() * 1e6);
                rung.requests += 1;
                verdict.checked += 1;
                match response {
                    Response::Decision { outcome, .. }
                        if same_decision(&outcome, &expected[ti][k]) => {}
                    _ => verdict.fail(format!("{} alert {k}: client round trip differs", t.id)),
                }
                k += 1;
            }
        }
        let stats = client.stats();
        rung.stats.retries += stats.retries;
        rung.stats.reconnects += stats.reconnects;
    }
    Ok(rung)
}

/// `FutureAlertEstimator::estimate_all_into` (with the `observe_alert`
/// that follows it on the push path) per alert, nanoseconds: the median of
/// three passes over the prefix.
#[must_use]
pub fn estimate_ns(tenants: &[TenantInput], n: usize) -> f64 {
    let mut passes = Vec::new();
    for _ in 0..3 {
        let mut total = 0.0;
        let mut count = 0usize;
        for t in tenants {
            let model = ArrivalModel::fit_weighted(
                &t.history,
                t.config.game.num_types(),
                t.config.forecast_decay,
            );
            let mut estimator = FutureAlertEstimator::new(model, t.config.rollback);
            let mut out = Vec::new();
            for (_, alerts) in t.prefix_by_day(n) {
                estimator.reset_cycle();
                let begun = Instant::now();
                for a in alerts {
                    estimator.estimate_all_into(a.time, &mut out);
                    black_box(&out);
                    estimator.observe_alert(a.time);
                }
                total += begun.elapsed().as_secs_f64();
                count += alerts.len();
            }
        }
        passes.push(total * 1e9 / count.max(1) as f64);
    }
    crate::stats::median(&passes)
}

/// Replay `jobs` one at a time on `service` (inline, on this thread):
/// per-job wall times in milliseconds and the results, in job order.
///
/// # Errors
///
/// A description of a service failure.
pub fn serial_jobs(
    service: &AuditService,
    jobs: &[ServiceJob<'_>],
) -> Result<(Vec<f64>, Vec<CycleResult>), String> {
    let mut job_ms = Vec::with_capacity(jobs.len());
    let mut results = Vec::with_capacity(jobs.len());
    for job in jobs {
        let begun = Instant::now();
        let mut result = service
            .replay_concurrent(std::slice::from_ref(job))
            .map_err(|e| e.to_string())?;
        job_ms.push(begun.elapsed().as_secs_f64() * 1e3);
        results.append(&mut result);
    }
    Ok((job_ms, results))
}

/// Replay the whole batch `passes` times on `pooled` (a service whose
/// `sag-pool` has two workers), checking every result against
/// `reference`. Returns each pass's wall time in seconds.
///
/// # Errors
///
/// A description of a service failure.
pub fn pooled_passes(
    pooled: &AuditService,
    jobs: &[ServiceJob<'_>],
    reference: &[CycleResult],
    passes: usize,
    verdict: &mut Verdict,
) -> Result<Vec<f64>, String> {
    let mut walls = Vec::with_capacity(passes);
    for _ in 0..passes {
        let begun = Instant::now();
        let results = pooled.replay_concurrent(jobs).map_err(|e| e.to_string())?;
        walls.push(begun.elapsed().as_secs_f64());
        for (job, (got, want)) in results.iter().zip(reference).enumerate() {
            verdict.checked += got.len() as u64;
            if got.len() != want.len()
                || got
                    .outcomes
                    .iter()
                    .zip(&want.outcomes)
                    .any(|(g, w)| !same_decision(g, w))
            {
                verdict.fail(format!(
                    "job {job}: pooled replay differs from the serial one"
                ));
            }
        }
    }
    Ok(walls)
}

/// Bytes and syncs the WAL wrapper counted, per alert.
#[must_use]
pub fn wal_per_alert(counts: &WalCounts, alerts: u64) -> (f64, f64) {
    let a = alerts.max(1) as f64;
    (
        counts.syncs.load(Ordering::Relaxed) as f64 / a,
        counts.bytes.load(Ordering::Relaxed) as f64 / a,
    )
}
