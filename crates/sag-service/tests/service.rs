//! Front-door integration tests: owned handles across threads, the command
//! loop multiplexing tenants, and concurrent batch replay — all bitwise
//! against the engine's own batch `replay`.

use sag_core::{AuditCycleEngine, ConfigError, CycleResult, EngineBuilder, ReplayJob, SagError};
use sag_service::{AuditService, Request, Response, ServiceError, ServiceJob, TenantId};
use sag_sim::{DayLog, StreamConfig, StreamGenerator};
use std::collections::HashMap;

/// A cycle result with the wall-clock timing field zeroed, so independent
/// replays of the same day can be compared for exact (bitwise) equality.
fn untimed(mut cycle: CycleResult) -> CycleResult {
    for o in &mut cycle.outcomes {
        o.solve_micros = 0;
    }
    cycle
}

fn multi_type_logs(seed: u64) -> (Vec<DayLog>, DayLog) {
    let mut gen = StreamGenerator::new(StreamConfig::paper_multi_type(seed));
    let (history, mut tests) = gen.generate_split(8, 1);
    (history, tests.remove(0))
}

fn single_type_logs(seed: u64) -> (Vec<DayLog>, DayLog) {
    let mut gen = StreamGenerator::new(StreamConfig::paper_single_type(seed));
    let (history, mut tests) = gen.generate_split(8, 1);
    (history, tests.remove(0))
}

/// The engine's batch answer for the same logs, for bitwise comparison.
fn reference(engine: &AuditCycleEngine, history: &[DayLog], day: &DayLog) -> CycleResult {
    let job = ReplayJob::new(history, day);
    untimed(engine.replay(&[job], 1).unwrap().remove(0))
}

#[test]
fn session_handles_live_in_maps_move_across_threads_and_match_run_day() {
    let tenants: Vec<(TenantId, Vec<DayLog>, DayLog)> = (0..4)
        .map(|t| {
            let (history, day) = multi_type_logs(100 + t);
            (TenantId::new(format!("site-{t}")), history, day)
        })
        .collect();

    let mut builder = AuditService::builder().workers(0);
    for (id, history, _) in &tenants {
        builder = builder.tenant_with_history(
            id.clone(),
            EngineBuilder::paper_multi_type(),
            history.clone(),
        );
    }
    let service = builder.build().unwrap();

    // Owned handles: opened into a map, then moved wholesale onto threads.
    let mut open: HashMap<TenantId, sag_service::SessionHandle> = HashMap::new();
    for (id, _, _) in &tenants {
        open.insert(id.clone(), service.open_day(id, None).unwrap());
    }
    let results: Vec<(TenantId, CycleResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|(id, _, day)| {
                let handle = open.remove(id).unwrap();
                scope.spawn(move || (id.clone(), handle.drive(day).unwrap()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for ((id, result), (_, history, day)) in results.into_iter().zip(&tenants) {
        let engine = service.engine(&id).unwrap();
        assert_eq!(
            untimed(result),
            reference(engine, history, day),
            "tenant {id}"
        );
    }
}

#[test]
fn command_loop_multiplexes_heterogeneous_tenants_bitwise() {
    let (hospital_history, hospital_day) = multi_type_logs(7);
    let (clinic_history, clinic_day) = single_type_logs(7);
    let mut service = AuditService::builder()
        .workers(0)
        .tenant_with_history(
            "hospital",
            EngineBuilder::paper_multi_type(),
            hospital_history.clone(),
        )
        .tenant_with_history(
            "clinic",
            EngineBuilder::paper_single_type().budget(12.0),
            clinic_history.clone(),
        )
        .build()
        .unwrap();

    let open = |service: &mut AuditService, tenant: &str, day: u32| match service
        .handle(Request::OpenDay {
            tenant: TenantId::from(tenant),
            budget: None,
            day: Some(day),
        })
        .unwrap()
    {
        Response::DayOpened { session, .. } => session,
        other => panic!("unexpected response {other:?}"),
    };
    let hospital = open(&mut service, "hospital", hospital_day.day());
    let clinic = open(&mut service, "clinic", clinic_day.day());
    assert_eq!(service.open_sessions(), 2);

    // Interleave the two tenants' feeds through one driver loop, strictly
    // alternating while both have alerts left.
    let mut hospital_alerts = hospital_day.alerts().iter();
    let mut clinic_alerts = clinic_day.alerts().iter();
    loop {
        let mut progressed = false;
        for (session, alerts) in [
            (hospital, &mut hospital_alerts),
            (clinic, &mut clinic_alerts),
        ] {
            if let Some(alert) = alerts.next() {
                let response = service
                    .handle(Request::PushAlert {
                        session,
                        alert: *alert,
                    })
                    .unwrap();
                match response {
                    Response::Decision { outcome, .. } => {
                        assert!(outcome.ossp_scheme.is_valid());
                    }
                    other => panic!("unexpected response {other:?}"),
                }
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    let mut close = |session| match service.handle(Request::FinishDay { session }).unwrap() {
        Response::DayClosed { result, tenant, .. } => (tenant, untimed(result)),
        other => panic!("unexpected response {other:?}"),
    };
    let (hospital_tenant, hospital_result) = close(hospital);
    let (clinic_tenant, clinic_result) = close(clinic);
    assert_eq!(service.open_sessions(), 0);
    assert_eq!(hospital_tenant.as_str(), "hospital");
    assert_eq!(clinic_tenant.as_str(), "clinic");

    // Interleaving tenants through the shared loop changes nothing: each
    // cycle is bitwise what the tenant's engine computes on its own.
    let hospital_engine = service.engine(&hospital_tenant).unwrap();
    assert_eq!(
        hospital_result,
        reference(hospital_engine, &hospital_history, &hospital_day)
    );
    let clinic_engine = service.engine(&clinic_tenant).unwrap();
    assert_eq!(
        clinic_result,
        reference(clinic_engine, &clinic_history, &clinic_day)
    );
}

#[test]
fn replay_concurrent_is_bitwise_identical_to_inline_replay() {
    let tenants: Vec<(TenantId, Vec<DayLog>, DayLog)> = (0..6)
        .map(|t| {
            let (history, day) = multi_type_logs(300 + t);
            (TenantId::new(format!("tenant-{t}")), history, day)
        })
        .collect();
    let build = |workers: usize| {
        let mut builder = AuditService::builder().workers(workers);
        for (id, history, _) in &tenants {
            builder = builder.tenant_with_history(
                id.clone(),
                EngineBuilder::paper_multi_type(),
                history.clone(),
            );
        }
        builder.build().unwrap()
    };

    let pooled = build(4);
    assert_eq!(pooled.workers(), 4);
    let inline = build(0);
    assert_eq!(inline.workers(), 0);

    let jobs: Vec<ServiceJob<'_>> = tenants
        .iter()
        .map(|(id, _, day)| ServiceJob::new(id, day))
        .collect();
    let concurrent: Vec<CycleResult> = pooled
        .replay_concurrent(&jobs)
        .unwrap()
        .into_iter()
        .map(untimed)
        .collect();
    let serial: Vec<CycleResult> = inline
        .replay_concurrent(&jobs)
        .unwrap()
        .into_iter()
        .map(untimed)
        .collect();
    assert_eq!(concurrent, serial);

    // And both match the engines' own batch path.
    for (result, (id, history, day)) in concurrent.iter().zip(&tenants) {
        let engine = pooled.engine(id).unwrap();
        assert_eq!(*result, reference(engine, history, day), "tenant {id}");
    }
}

#[test]
fn structured_errors_name_the_cause() {
    let (history, day) = single_type_logs(3);
    let mut service = AuditService::builder()
        .workers(0)
        .tenant_with_history("clinic", EngineBuilder::paper_single_type(), history)
        .build()
        .unwrap();

    let ghost = TenantId::from("ghost");
    assert_eq!(
        service.open_day(&ghost, None).unwrap_err(),
        ServiceError::UnknownTenant(ghost.clone())
    );
    assert!(matches!(
        service.replay_concurrent(&[ServiceJob::new(&ghost, &day)]),
        Err(ServiceError::UnknownTenant(_))
    ));

    // Malformed budget overrides carry the engine's structured cause.
    assert!(matches!(
        service.open_day(&TenantId::from("clinic"), Some(f64::NAN)),
        Err(ServiceError::Engine(SagError::InvalidConfig(
            ConfigError::InvalidBudget { .. }
        )))
    ));

    // Finishing a session twice: the second command names a retired id.
    let session = match service
        .handle(Request::OpenDay {
            tenant: TenantId::from("clinic"),
            budget: None,
            day: None,
        })
        .unwrap()
    {
        Response::DayOpened { session, .. } => session,
        other => panic!("unexpected response {other:?}"),
    };
    service.handle(Request::FinishDay { session }).unwrap();
    assert_eq!(
        service.handle(Request::FinishDay { session }).unwrap_err(),
        ServiceError::UnknownSession(session)
    );

    // Duplicate registration fails the build.
    assert!(matches!(
        AuditService::builder()
            .tenant("a", EngineBuilder::paper_single_type())
            .tenant("a", EngineBuilder::paper_multi_type())
            .build(),
        Err(ServiceError::DuplicateTenant(_))
    ));

    // An invalid tenant configuration fails the build with its cause.
    assert!(matches!(
        AuditService::builder()
            .tenant("bad", EngineBuilder::paper_multi_type().forecast_decay(2.0))
            .build(),
        Err(ServiceError::Engine(SagError::InvalidConfig(
            ConfigError::ForecastDecayOutOfRange { .. }
        )))
    ));
}

#[test]
fn recorded_history_rolls_forward_and_stays_windowed() {
    let (history, day) = single_type_logs(5);
    let clinic = TenantId::from("clinic");
    let mut service = AuditService::builder()
        .workers(0)
        .history_window(4)
        .tenant_with_history(
            "clinic",
            EngineBuilder::paper_single_type(),
            history.clone(),
        )
        .build()
        .unwrap();

    // The starting history is trimmed to the window (newest days kept).
    let kept = service.history(&clinic).unwrap();
    assert_eq!(kept.len(), 4);
    assert_eq!(kept[0].day(), history[history.len() - 4].day());

    // Recording more days keeps the window sliding.
    service.record_history(&clinic, day.clone()).unwrap();
    let kept = service.history(&clinic).unwrap();
    assert_eq!(kept.len(), 4);
    assert_eq!(kept.last().unwrap().day(), day.day());

    // Sessions opened after the roll fit on the updated window.
    let handle = service.open_day(&clinic, None).unwrap();
    assert_eq!(handle.tenant(), &clinic);
    assert_eq!(handle.alerts_processed(), 0);
}
