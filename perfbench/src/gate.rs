//! The correctness gate: every served decision against a direct
//! in-process replay, and the scraped `/metrics` identities.

use crate::workload::{service_builder, TenantInput};
use sag_core::engine::AlertOutcome;
use sag_net::{fetch_metrics, parse_metric};
use sag_service::{AuditService, Request, Response, SessionId};
use std::time::Instant;

/// A decision in comparable form: `solve_micros` (wall-clock, so never
/// reproducible) zeroed, every other field rendered exactly. The debug
/// rendering of an `f64` is its shortest round-trip form, so two outcomes
/// render equal only if every field has the same bits (NaN payloads
/// aside).
#[must_use]
pub fn canonical(outcome: &AlertOutcome) -> String {
    let mut o = outcome.clone();
    o.solve_micros = 0;
    format!("{o:?}")
}

/// Whether a served decision is bitwise the expected one.
#[must_use]
pub fn same_decision(served: &AlertOutcome, expected: &AlertOutcome) -> bool {
    canonical(served) == canonical(expected)
}

/// What the gate found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Decisions compared.
    pub checked: u64,
    /// Decisions that differed, or could not be compared.
    pub mismatches: u64,
    /// One line per kind of failure, for the report.
    pub notes: Vec<String>,
}

impl Verdict {
    /// Record a failure.
    pub fn fail(&mut self, note: String) {
        self.mismatches += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

/// The served decisions of one tenant, aligned with its stream: `None`
/// where the request failed (and so applied nothing).
pub type Served = Vec<Option<AlertOutcome>>;

/// Replay every served alert directly through [`AuditService::handle`] on
/// a fresh unsharded service and compare each decision with the served
/// one. Tenant by tenant, the session opens and the first `timed[t]`
/// stream positions are replayed under a clock (the comparisons run after
/// it stops): the returned per-tenant seconds are the time to rebuild that
/// prefix of the served state.
///
/// # Errors
///
/// A description of a service failure during the replay itself.
pub fn direct_replay(
    tenants: &[TenantInput],
    served: &[&Served],
    timed: &[usize],
) -> Result<(Verdict, Vec<f64>), String> {
    let mut service = service_builder(tenants)
        .build()
        .map_err(|e| format!("replay fleet build: {e}"))?;
    let mut verdict = Verdict::default();
    let mut seconds = Vec::with_capacity(tenants.len());
    for (t, tenant) in tenants.iter().enumerate() {
        let stream: Vec<(usize, &sag_sim::Alert)> = tenant.stream().collect();
        let served = served[t];
        let split = timed[t].min(served.len());
        let begun = Instant::now();
        let sessions = open_days(&mut service, tenant)?;
        let mut replay = |k: usize| -> Result<Option<AlertOutcome>, String> {
            if served[k].is_none() {
                return Ok(None);
            }
            let (d, alert) = stream[k];
            let request = Request::PushAlert {
                session: sessions[d],
                alert: *alert,
            };
            match service.handle(request) {
                Ok(Response::Decision { outcome, .. }) => Ok(Some(outcome)),
                other => Err(format!("{} alert {k}: replay got {other:?}", tenant.id)),
            }
        };
        let prefix: Vec<Option<AlertOutcome>> =
            (0..split).map(&mut replay).collect::<Result<_, _>>()?;
        seconds.push(begun.elapsed().as_secs_f64());
        let rest = (split..served.len()).map(|k| Ok::<_, String>((k, replay(k)?)));
        for item in prefix.into_iter().enumerate().map(Ok).chain(rest) {
            let (k, replayed) = item?;
            if let (Some(want), Some(got)) = (&served[k], &replayed) {
                verdict.checked += 1;
                if !same_decision(want, got) {
                    verdict.fail(format!(
                        "{} alert {k}: served decision differs from the direct replay",
                        tenant.id
                    ));
                }
            }
        }
    }
    Ok((verdict, seconds))
}

/// Time [`direct_replay`]'s rebuild alone, without comparing: per tenant,
/// the session opens plus the first `timed[t]` served pushes on a fresh
/// service.
///
/// # Errors
///
/// A description of a service failure.
pub fn rebuild_times(
    tenants: &[TenantInput],
    served: &[&Served],
    timed: &[usize],
) -> Result<Vec<f64>, String> {
    let mut service = service_builder(tenants)
        .build()
        .map_err(|e| format!("replay fleet build: {e}"))?;
    let mut seconds = Vec::with_capacity(tenants.len());
    for (t, tenant) in tenants.iter().enumerate() {
        let pushes: Vec<(usize, sag_sim::Alert)> = tenant
            .stream()
            .take(timed[t])
            .zip(served[t].iter())
            .filter(|(_, s)| s.is_some())
            .map(|((d, a), _)| (d, *a))
            .collect();
        let begun = Instant::now();
        let sessions = open_days(&mut service, tenant)?;
        for (d, alert) in pushes {
            let request = Request::PushAlert {
                session: sessions[d],
                alert,
            };
            service
                .handle(request)
                .map_err(|e| format!("{} replay: {e}", tenant.id))?;
        }
        seconds.push(begun.elapsed().as_secs_f64());
    }
    Ok(seconds)
}

/// Open every test day of `tenant`, in day order (the order the wire
/// client opens them), returning the session ids.
///
/// # Errors
///
/// A description of the first open that failed.
pub fn open_days(
    service: &mut AuditService,
    tenant: &TenantInput,
) -> Result<Vec<SessionId>, String> {
    tenant
        .days
        .iter()
        .zip(&tenant.budgets)
        .map(|(day, budget)| {
            match service.handle(Request::OpenDay {
                tenant: tenant.id.clone(),
                budget: *budget,
                day: Some(day.day()),
            }) {
                Ok(Response::DayOpened { session, .. }) => Ok(session),
                other => Err(format!("{}: open day: {other:?}", tenant.id)),
            }
        })
        .collect()
}

/// What the client knows it sent, for the scrape identities.
#[derive(Debug, Clone, Default)]
pub struct Sent {
    /// Protocol requests answered without error (opens and pushes).
    pub requests: u64,
    /// Alerts decided, per tenant, in fleet order.
    pub alerts: Vec<u64>,
}

/// Scrape `/metrics` from `addr` and check its identities against what was
/// sent: `requests == frames_in == frames_out` equal to the requests sent,
/// no errors, sheds or queued jobs, and the per-tenant alert counts summing
/// to the alerts sent. Returns the scraped shed total and the violations.
///
/// # Errors
///
/// A description of a failed scrape.
pub fn check_metrics(
    addr: &str,
    tenants: &[TenantInput],
    sent: &Sent,
) -> Result<(f64, Vec<String>), String> {
    let page = fetch_metrics(addr).map_err(|e| format!("metrics scrape: {e}"))?;
    let metric = |name: &str| parse_metric(&page, name);
    let alerts: u64 = sent.alerts.iter().sum();
    let mut notes = Vec::new();
    let expected = [
        ("sag_requests_total", sent.requests as f64),
        ("sag_frames_in_total", sent.requests as f64),
        ("sag_frames_out_total", sent.requests as f64),
        ("sag_alerts_total", alerts as f64),
        ("sag_errors_total", 0.0),
        ("sag_shed_total", 0.0),
        ("sag_queue_depth", 0.0),
    ];
    for (name, want) in expected {
        match metric(name) {
            Some(got) if got == want => {}
            Some(got) => notes.push(format!("{name} = {got}, expected {want}")),
            None => notes.push(format!("{name} missing from /metrics")),
        }
    }
    let mut per_tenant_sum = 0.0;
    for (t, want) in tenants.iter().zip(&sent.alerts) {
        let name = format!("sag_tenant_alerts_total{{tenant=\"{}\"}}", t.id);
        let got = metric(&name).unwrap_or(-1.0);
        per_tenant_sum += got;
        if got != *want as f64 {
            notes.push(format!("{name} = {got}, expected {want}"));
        }
    }
    if per_tenant_sum != alerts as f64 {
        notes.push(format!(
            "per-tenant alert counts sum to {per_tenant_sum}, sag_alerts_total expects {alerts}"
        ));
    }
    Ok((metric("sag_shed_total").unwrap_or(0.0), notes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, wire_inputs};
    use sag_core::engine::AuditCycleEngine;
    use std::sync::Arc;

    fn sample_outcomes() -> Vec<AlertOutcome> {
        let mut spec = find("paper-wire").expect("workload").spec;
        spec.tenants = 1;
        spec.days = 1;
        let t = &wire_inputs(&spec, 3)[0];
        let engine = Arc::new(AuditCycleEngine::new(t.config.clone()).expect("engine"));
        let mut session = engine.open_day_owned(&t.history, None).expect("open");
        t.days[0].alerts()[..20]
            .iter()
            .map(|a| session.push_alert(a).expect("push"))
            .collect()
    }

    #[test]
    fn the_comparator_ignores_only_solve_time() {
        let outcomes = sample_outcomes();
        let mut retimed = outcomes[5].clone();
        retimed.solve_micros += 1_000;
        assert!(same_decision(&outcomes[5], &retimed));
        assert!(!same_decision(&outcomes[5], &outcomes[6]));
    }

    #[test]
    fn the_comparator_rejects_one_tampered_field() {
        let outcomes = sample_outcomes();
        let original = &outcomes[7];
        let tampered: Vec<AlertOutcome> = vec![
            AlertOutcome {
                ossp_utility: f64::from_bits(original.ossp_utility.to_bits() ^ 1),
                ..original.clone()
            },
            AlertOutcome {
                budget_after_online: original.budget_after_online + 1e-9,
                ..original.clone()
            },
            AlertOutcome {
                ossp_deterred: !original.ossp_deterred,
                ..original.clone()
            },
            AlertOutcome {
                index: original.index + 1,
                ..original.clone()
            },
            AlertOutcome {
                coverage_ossp: -original.coverage_ossp,
                ..original.clone()
            },
        ];
        for t in &tampered {
            assert!(!same_decision(original, t), "missed tampering: {t:?}");
        }
    }
}
