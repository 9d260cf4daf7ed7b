//! The fault matrix: every failure mode [`ChaosProxy`] can inject —
//! duplicated frames, connection resets, partial writes, bitflips,
//! blackholed replies, latency spikes, and a full server crash with WAL
//! recovery — must leave the per-tenant [`CycleResult`] bitwise identical
//! to an unfaulted run, with zero double-applies.
//!
//! The exactly-once argument these tests pin down: the client re-sends
//! ambiguous requests under the *same* request id, and the server's
//! per-tenant dedup window answers redeliveries from its reply cache.
//! `sag_alerts_total` equals the number of *distinct* alerts pushed no
//! matter how many copies of each frame the wire delivered.

use proptest::prelude::*;
use sag_core::CycleResult;
use sag_net::codec::{decode_reply, encode_request, read_frame, write_frame, write_handshake};
use sag_net::{
    fetch_metrics, parse_metric, ChaosPlan, ChaosProxy, Client, ClientConfig, ClientStats,
    Direction, Fault, NetError, RetryPolicy, Server, ServerConfig,
};
use sag_scenarios::{find_scenario, tenant_fleet, tenant_fleet_parts, ReplayOptions, Scenario};
use sag_service::{AuditService, Request, Response, SessionId, TenantId};
use sag_sim::DayLog;
use std::io::Write as _;
use std::time::Duration;

const SCENARIO: &str = "paper-baseline";
const SEED: u64 = 47;
const HISTORY_DAYS: u32 = 3;

fn scenario() -> Box<dyn Scenario> {
    find_scenario(SCENARIO).expect("registry lost the baseline scenario")
}

/// One tenant-day of the baseline: `history_days` of history, then the day
/// driven over the faulty wire.
fn one_day(seed: u64, history_days: u32) -> ReplayOptions {
    ReplayOptions::with_layout(scenario().as_ref(), seed, history_days, 1)
}

fn zero_solve_micros(result: &mut CycleResult) {
    for o in &mut result.outcomes {
        o.solve_micros = 0;
    }
}

/// Drive one tenant-day directly through [`AuditService::handle`] — the
/// faulted wire must reproduce this bit for bit.
fn drive_direct(
    service: &mut AuditService,
    tenant: &TenantId,
    day: &DayLog,
    budget: Option<f64>,
    alerts: usize,
) -> CycleResult {
    let Ok(Response::DayOpened { session, .. }) = service.handle(Request::OpenDay {
        tenant: tenant.clone(),
        budget,
        day: Some(day.day()),
    }) else {
        panic!("direct OpenDay failed")
    };
    for alert in &day.alerts()[..alerts] {
        service
            .handle(Request::PushAlert {
                session,
                alert: *alert,
            })
            .expect("direct PushAlert failed");
    }
    match service.handle(Request::FinishDay { session }) {
        Ok(Response::DayClosed { mut result, .. }) => {
            zero_solve_micros(&mut result);
            result
        }
        other => panic!("direct FinishDay answered {other:?}"),
    }
}

/// The unfaulted reference for the single-tenant fleet every matrix case
/// uses.
fn control_result() -> CycleResult {
    let scenario = scenario();
    let mut fleet = tenant_fleet(scenario.as_ref(), &one_day(SEED, HISTORY_DAYS), 1).unwrap();
    let tenant = fleet.tenants.remove(0);
    let day = &tenant.test_days[0];
    let alerts = day.len();
    drive_direct(
        &mut fleet.service,
        &tenant.id,
        day,
        scenario.budget_for_day(day.day()),
        alerts,
    )
}

fn chaos_client_config(read_timeout: Duration) -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(3),
        read_timeout,
        write_timeout: Duration::from_secs(2),
        retry: RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(100),
            jitter_seed: 0xFA11_FA11,
        },
        reconnect: true,
    }
}

struct FaultRun {
    result: CycleResult,
    stats: ClientStats,
    metrics: String,
    faults_injected: u64,
    alerts: u64,
}

impl FaultRun {
    fn metric(&self, name: &str) -> f64 {
        parse_metric(&self.metrics, name).unwrap_or(-1.0)
    }

    /// Exactly-once, regardless of how the wire misbehaved: each distinct
    /// request was applied exactly once, never twice.
    fn assert_no_double_applies(&self) {
        assert_eq!(self.metric("sag_alerts_total"), self.alerts as f64);
        assert_eq!(self.metric("sag_days_opened_total"), 1.0);
        assert_eq!(self.metric("sag_days_closed_total"), 1.0);
        assert_eq!(self.metric("sag_errors_total"), 0.0);
    }
}

/// One tenant-day driven through a [`ChaosProxy`] under `plan`; the
/// retrying [`Client`] must converge to a clean result anyway.
fn run_faulted(plan: ChaosPlan, read_timeout: Duration) -> FaultRun {
    let scenario = scenario();
    let mut fleet = tenant_fleet(scenario.as_ref(), &one_day(SEED, HISTORY_DAYS), 1).unwrap();
    let tenant = fleet.tenants.remove(0);
    let day = &tenant.test_days[0];
    let server = Server::start(fleet.service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let proxy = ChaosProxy::start(server.local_addr(), plan).unwrap();

    let mut client = Client::connect_with(
        proxy.local_addr(),
        tenant.id.clone(),
        chaos_client_config(read_timeout),
    )
    .unwrap();
    let session = client
        .open_day(scenario.budget_for_day(day.day()), Some(day.day()))
        .unwrap();
    for alert in day.alerts() {
        client.push_alert(session, alert).unwrap();
    }
    let mut result = client.finish_day(session).unwrap();
    zero_solve_micros(&mut result);

    // Scrape the server directly — the proxy only speaks the frame
    // protocol, not HTTP.
    let metrics = fetch_metrics(server.local_addr()).unwrap();
    FaultRun {
        result,
        stats: client.stats(),
        metrics,
        faults_injected: proxy.faults_injected(),
        alerts: day.len() as u64,
    }
}

#[test]
fn duplicated_request_frame_is_replayed_not_reapplied() {
    // Frame 3 client→server is the request with id 4 (a PushAlert). The
    // server sees it twice; the second copy must come from the dedup
    // window, and the client must skip the extra echoed reply.
    let run = run_faulted(
        ChaosPlan::clean().fault(Direction::ClientToServer, 3, Fault::Duplicate),
        Duration::from_secs(2),
    );
    assert_eq!(run.result, control_result(), "duplicate request diverged");
    run.assert_no_double_applies();
    assert!(
        run.metric("sag_dup_replayed_total") >= 1.0,
        "dedup never hit"
    );
    assert!(run.stats.duplicates_skipped >= 1, "client never skipped");
    assert_eq!(run.faults_injected, 1);
}

#[test]
fn duplicated_reply_frame_is_skipped_by_the_client() {
    // Frame 3 server→client is a reply the client already consumed once;
    // the wire-level redelivery must be absorbed client-side (the server
    // never even saw a duplicate).
    let run = run_faulted(
        ChaosPlan::clean().fault(Direction::ServerToClient, 3, Fault::Duplicate),
        Duration::from_secs(2),
    );
    assert_eq!(run.result, control_result(), "duplicate reply diverged");
    run.assert_no_double_applies();
    assert_eq!(run.metric("sag_dup_replayed_total"), 0.0);
    assert_eq!(run.metric("sag_dup_suppressed_total"), 0.0);
    assert!(run.stats.duplicates_skipped >= 1, "client never skipped");
}

#[test]
fn connection_reset_retries_under_the_same_id() {
    // Frame 5 client→server is swallowed and both directions are torn
    // down. The request never reached the server, so the retry applies it
    // fresh — exactly once.
    let run = run_faulted(
        ChaosPlan::clean().fault(Direction::ClientToServer, 5, Fault::Reset),
        Duration::from_secs(2),
    );
    assert_eq!(run.result, control_result(), "reset diverged");
    run.assert_no_double_applies();
    assert!(run.stats.retries >= 1, "reset never forced a retry");
    assert!(run.stats.reconnects >= 1, "reset never forced a reconnect");
}

#[test]
fn partial_reply_write_resolves_via_dedup_replay() {
    // Frame 4 server→client is cut after 10 bytes (header + 2), then the
    // connection dies: the canonical ambiguous failure. The request WAS
    // applied, so the same-id retry must be answered from the reply cache.
    let run = run_faulted(
        ChaosPlan::clean().fault(Direction::ServerToClient, 4, Fault::Truncate(10)),
        Duration::from_secs(2),
    );
    assert_eq!(run.result, control_result(), "partial write diverged");
    run.assert_no_double_applies();
    assert!(run.stats.retries >= 1, "truncation never forced a retry");
    assert!(
        run.metric("sag_dup_replayed_total") >= 1.0,
        "ambiguous retry was not answered from the dedup window"
    );
}

#[test]
fn bitflipped_reply_fails_crc_and_resolves_via_dedup_replay() {
    let run = run_faulted(
        ChaosPlan::clean().fault(Direction::ServerToClient, 2, Fault::Bitflip),
        Duration::from_secs(2),
    );
    assert_eq!(run.result, control_result(), "bitflipped reply diverged");
    run.assert_no_double_applies();
    assert!(run.stats.retries >= 1, "corrupt reply never forced a retry");
    assert!(
        run.metric("sag_dup_replayed_total") >= 1.0,
        "dedup never hit"
    );
}

#[test]
fn bitflipped_request_is_rejected_by_the_server_crc() {
    // The server must refuse the corrupt frame (counted as a decode
    // error), close, and let the client's same-id retry apply it fresh.
    let run = run_faulted(
        ChaosPlan::clean().fault(Direction::ClientToServer, 2, Fault::Bitflip),
        Duration::from_secs(2),
    );
    assert_eq!(run.result, control_result(), "bitflipped request diverged");
    run.assert_no_double_applies();
    assert!(
        run.metric("sag_decode_errors_total") >= 1.0,
        "CRC never fired"
    );
    assert!(
        run.stats.retries >= 1,
        "corrupt request never forced a retry"
    );
}

#[test]
fn blackholed_reply_times_out_and_resolves_via_dedup_replay() {
    // The reply to request id 3 is silently swallowed; the connection
    // stays up. Only the read deadline can save the client — it must
    // surface as a timeout, reconnect, and get the cached reply.
    let run = run_faulted(
        ChaosPlan::clean().fault(Direction::ServerToClient, 2, Fault::Blackhole),
        Duration::from_millis(300),
    );
    assert_eq!(run.result, control_result(), "blackholed reply diverged");
    run.assert_no_double_applies();
    assert!(run.stats.retries >= 1, "blackhole never forced a retry");
    assert!(
        run.stats.reconnects >= 1,
        "timeout never forced a reconnect"
    );
    assert!(
        run.metric("sag_dup_replayed_total") >= 1.0,
        "dedup never hit"
    );
}

#[test]
fn latency_spike_within_deadline_needs_no_retry() {
    let run = run_faulted(
        ChaosPlan::clean().fault(
            Direction::ServerToClient,
            2,
            Fault::Delay(Duration::from_millis(100)),
        ),
        Duration::from_secs(2),
    );
    assert_eq!(run.result, control_result(), "delayed reply diverged");
    run.assert_no_double_applies();
    assert_eq!(run.stats.retries, 0, "a tolerable delay must not retry");
    assert_eq!(run.stats.reconnects, 0);
    assert!(run.faults_injected >= 1, "delay was never injected");
}

#[test]
fn dead_peer_surfaces_as_structured_timeout_not_a_hang() {
    // A listener that accepts and then says nothing: every read must hit
    // its deadline and come back as NetError::Timeout, never block forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        // Keep the accepted sockets alive (and silent) until the test ends.
        let mut held = Vec::new();
        for stream in listener.incoming().take(1) {
            held.push(stream);
            std::thread::sleep(Duration::from_millis(500));
        }
    });
    let config = ClientConfig {
        read_timeout: Duration::from_millis(200),
        retry: RetryPolicy::none(),
        reconnect: false,
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(addr, "icu", config).unwrap();
    match client.call(&Request::FinishDay {
        session: SessionId::from_raw(1),
    }) {
        Err(NetError::Timeout { op }) => assert_eq!(op, "read"),
        other => panic!("silent peer answered {other:?}"),
    }
    drop(client);
    hold.join().unwrap();
}

#[test]
fn sigkill_equivalent_crash_recovers_dedup_and_converges() {
    // Crash the server mid-day (drop kills its threads without any
    // graceful FinishDay), recover a fresh service from the WAL, repoint
    // the proxy, and let the *same* client converge through reconnects.
    let scenario = scenario();
    let wal_dir =
        std::env::temp_dir().join(format!("sag_chaos_recover_{}_{SEED}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).unwrap();

    let control = control_result();

    let (builder, mut fleet) =
        tenant_fleet_parts(scenario.as_ref(), &one_day(SEED, HISTORY_DAYS), 1);
    let tenant = fleet.remove(0);
    let day = &tenant.test_days[0];
    let budget = scenario.budget_for_day(day.day());
    let service = builder.durable(&wal_dir).build().unwrap();
    let server = Server::start(service, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let proxy = ChaosProxy::start(server.local_addr(), ChaosPlan::clean()).unwrap();

    let mut client = Client::connect_with(
        proxy.local_addr(),
        tenant.id.clone(),
        chaos_client_config(Duration::from_secs(2)),
    )
    .unwrap();
    let session = client.open_day(budget, Some(day.day())).unwrap();
    let half = day.len() / 2;
    let mut pre_crash_last = None;
    for alert in &day.alerts()[..half] {
        pre_crash_last = Some(client.push_alert(session, alert).unwrap());
    }
    // OpenDay took id 1, the half pushes ids 2..=half+1.
    let pre_crash_last_id = half as u64 + 1;

    // Crash. Every thread dies with unflushed in-memory state; only the
    // WAL survives.
    drop(server);

    let (builder, _) = tenant_fleet_parts(scenario.as_ref(), &one_day(SEED, HISTORY_DAYS), 1);
    let recovered = builder.recover_from(&wal_dir).unwrap();
    let server = Server::start(recovered, "127.0.0.1:0", ServerConfig::default()).unwrap();
    proxy.set_upstream(server.local_addr()).unwrap();

    // The recovered dedup window must answer a pre-crash id from its
    // cache: re-send the last pre-crash push verbatim and expect the same
    // decision back, not a second application. The send also rides the
    // client's retry loop through the dead connection onto the restarted
    // server. (The window is bounded, so only *recent* ids replay — that
    // is the documented dedup horizon.)
    match client.call_tagged(
        pre_crash_last_id,
        &Request::PushAlert {
            session,
            alert: day.alerts()[half - 1],
        },
    ) {
        Ok(Ok(Response::Decision { mut outcome, .. })) => {
            let mut expected = pre_crash_last.expect("no pre-crash pushes");
            outcome.solve_micros = 0;
            expected.solve_micros = 0;
            assert_eq!(outcome, expected, "replayed decision diverged");
        }
        other => panic!("pre-crash id answered {other:?}"),
    }
    assert!(
        client.stats().reconnects >= 1,
        "the crash was never even noticed"
    );

    for alert in &day.alerts()[half..] {
        client.push_alert(session, alert).unwrap();
    }

    let mut result = client.finish_day(session).unwrap();
    zero_solve_micros(&mut result);
    assert_eq!(result, control, "recovery diverged from the unfaulted run");

    let metrics = fetch_metrics(server.local_addr()).unwrap();
    let replayed = parse_metric(&metrics, "sag_dup_replayed_total").unwrap_or(-1.0);
    assert!(replayed >= 1.0, "recovered dedup window never replayed");
    let _ = std::fs::remove_dir_all(&wal_dir);
}

/// Build the emission order for the double-delivery property: every
/// request frame appears exactly twice, the second copy `offset` original
/// positions after the first, originals keeping their relative order.
fn double_delivery_order(originals: usize, offsets: &[usize]) -> Vec<usize> {
    let mut order = Vec::with_capacity(originals * 2);
    let mut pending: Vec<(usize, usize)> = Vec::new(); // (due_position, frame)
    for (i, &offset) in offsets.iter().enumerate().take(originals) {
        order.push(i);
        pending.push((i + offset.max(1), i));
        pending.retain(|&(due, frame)| {
            if due <= i {
                order.push(frame);
                false
            } else {
                true
            }
        });
    }
    pending.sort_by_key(|&(due, _)| due);
    order.extend(pending.iter().map(|&(_, frame)| frame));
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Deliver every frame of a session twice — duplicates reordered up to
    /// four positions behind their originals — and require the day's
    /// result to be bitwise identical to single delivery, with every
    /// duplicated frame answered by a byte-identical cached reply.
    #[test]
    fn double_delivery_of_every_frame_is_bitwise_invisible(
        case_seed in 0u64..1_000,
        offsets in proptest::collection::vec(1usize..5, 16),
    ) {
        let scenario = scenario();
        let fleet_seed = SEED + case_seed;
        let mut fleet = tenant_fleet(scenario.as_ref(), &one_day(fleet_seed, 2), 1).unwrap();
        let tenant = fleet.tenants.remove(0);
        let day = &tenant.test_days[0];
        let alerts = day.len().min(6);
        let budget = scenario.budget_for_day(day.day());

        // Single-delivery reference on a twin service.
        let mut twin = tenant_fleet(scenario.as_ref(), &one_day(fleet_seed, 2), 1).unwrap();
        let control = drive_direct(&mut twin.service, &tenant.id, day, budget, alerts);

        let server = Server::start(fleet.service, "127.0.0.1:0", ServerConfig::default()).unwrap();

        // Raw frames so the duplication is under the test's control:
        // ids 1 (OpenDay), 2..=alerts+1 (pushes), alerts+2 (FinishDay).
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        write_handshake(&mut stream).unwrap();
        stream.flush().unwrap();
        let open = encode_request(1, &tenant.id, &Request::OpenDay {
            tenant: tenant.id.clone(),
            budget,
            day: Some(day.day()),
        });
        write_frame(&mut stream, &open).unwrap();
        let (open_id, open_reply) = decode_reply(&read_frame(&mut stream).unwrap().unwrap()).unwrap();
        prop_assert_eq!(open_id, 1);
        let Ok(Response::DayOpened { session, .. }) = open_reply else {
            panic!("OpenDay answered {open_reply:?}")
        };

        let mut frames = vec![open];
        for (i, alert) in day.alerts()[..alerts].iter().enumerate() {
            frames.push(encode_request(i as u64 + 2, &tenant.id, &Request::PushAlert {
                session,
                alert: *alert,
            }));
        }
        frames.push(encode_request(alerts as u64 + 2, &tenant.id, &Request::FinishDay { session }));

        // Emit every frame twice (the OpenDay's second copy rides along
        // too), bounded pipelining so nothing sheds, and collect a reply
        // per emission.
        let order = double_delivery_order(frames.len(), &offsets[..frames.len()]);
        let mut replies: Vec<(u64, Vec<u8>)> = Vec::with_capacity(order.len());
        let mut outstanding = 0usize;
        for &frame in &order {
            write_frame(&mut stream, &frames[frame]).unwrap();
            outstanding += 1;
            while outstanding > 4 {
                let payload = read_frame(&mut stream).unwrap().unwrap();
                let (id, _) = decode_reply(&payload).unwrap();
                replies.push((id, payload.to_vec()));
                outstanding -= 1;
            }
        }
        while outstanding > 0 {
            let payload = read_frame(&mut stream).unwrap().unwrap();
            let (id, _) = decode_reply(&payload).unwrap();
            replies.push((id, payload.to_vec()));
            outstanding -= 1;
        }

        // Both deliveries of every id answer with byte-identical frames —
        // the duplicate is the cached reply, not a second application.
        // (Id 1 was also applied once before the storm, so both its storm
        // copies are replays.)
        for id in 1..=(alerts as u64 + 2) {
            let of_id: Vec<&Vec<u8>> = replies
                .iter()
                .filter(|(got, _)| *got == id)
                .map(|(_, p)| p)
                .collect();
            prop_assert_eq!(of_id.len(), 2, "id {} reply count", id);
            prop_assert_eq!(of_id[0], of_id[1], "id {} replies differ", id);
        }

        let close = replies
            .iter()
            .find(|(id, _)| *id == alerts as u64 + 2)
            .expect("FinishDay was never answered");
        let (_, reply) = decode_reply(&close.1).unwrap();
        let Ok(Response::DayClosed { mut result, .. }) = reply else {
            panic!("FinishDay answered {reply:?}")
        };
        zero_solve_micros(&mut result);
        prop_assert_eq!(result, control);

        let metrics = server.render_metrics();
        let metric = |name: &str| parse_metric(&metrics, name).unwrap_or(-1.0);
        prop_assert_eq!(metric("sag_alerts_total"), alerts as f64);
        prop_assert_eq!(metric("sag_days_opened_total"), 1.0);
        prop_assert_eq!(metric("sag_days_closed_total"), 1.0);
        prop_assert!(metric("sag_dup_replayed_total") >= frames.len() as f64);
    }
}
