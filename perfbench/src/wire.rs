//! The wire client: an in-process `sag-net` server on loopback, driven over
//! [`CONNECTIONS`] connections that multiplex every tenant (the frame
//! envelope names the tenant on each request), in three phases: an untimed
//! warm-up, an open loop at a fixed offered rate, and a saturation phase
//! with a fixed window of outstanding requests per connection.

use crate::gate::Served;
use crate::trace::{Span, Tracer};
use crate::workload::{cluster_builder, TenantInput, WireSpec, CONNECTIONS};
use sag_net::codec::{decode_reply, encode_request, read_frame, write_frame, write_handshake};
use sag_net::{Reply, Server, ServerConfig};
use sag_service::{Request, Response, SessionId, TenantId};
use sag_sim::Alert;
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// The sending half of one tenant's state: its alerts and where it is.
struct SendState {
    id: TenantId,
    stream: Vec<(SessionId, Alert)>,
    next: usize,
    next_id: u64,
}

/// One connection and the tenants multiplexed over it.
struct Lane {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Fleet indices of the lane's tenants.
    tenants: Vec<usize>,
    send: Vec<SendState>,
    served: Vec<Served>,
    /// Round-robin position over `send`.
    rr: usize,
}

/// A request on the wire, waiting for its reply.
struct InFlight {
    tenant: usize,
    id: u64,
    due: Instant,
    span: u64,
}

/// A running server with its connections, days open and caches warm.
pub struct Fleet {
    server: Option<Server>,
    addr: String,
    lanes: Vec<Lane>,
    /// Requests answered without error so far (opens and pushes).
    pub requests: u64,
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Round trips in microseconds: from the due time in the open loop,
    /// from the send in saturation.
    pub latency_us: Vec<f64>,
    /// Completion offsets from the phase start, seconds.
    pub done_s: Vec<f64>,
    /// How late the generator sent each open-loop request, microseconds.
    pub lag_us: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed, including sheds.
    pub failed: u64,
    /// Wall time of the phase, seconds.
    pub seconds: f64,
    /// Spans recorded when traced.
    pub spans: Vec<Span>,
}

impl Phase {
    /// Decisions per second over each of `blocks` equal runs of the
    /// completions (the whole phase's rate when the runs would be too
    /// short).
    #[must_use]
    pub fn block_rates(&self, blocks: usize) -> Vec<f64> {
        let done = crate::stats::sorted(&self.done_s);
        let size = done.len() / blocks.max(1);
        if size < 2 {
            return vec![done.len() as f64 / self.seconds.max(1e-9)];
        }
        done.chunks_exact(size)
            .map(|c| (size - 1) as f64 / (c[size - 1] - c[0]).max(1e-9))
            .collect()
    }

    /// The median of [`block_rates`](Self::block_rates): a short stall
    /// moves one block, not the figure.
    #[must_use]
    pub fn rate(&self, blocks: usize) -> f64 {
        crate::stats::median(&self.block_rates(blocks))
    }

    /// Summaries of consecutive runs of `size` latencies, cut in
    /// completion order (a shorter last run is dropped).
    #[must_use]
    pub fn blocks(&self, size: usize) -> Vec<crate::stats::Summary> {
        let mut order: Vec<usize> = (0..self.latency_us.len()).collect();
        order.sort_by(|&a, &b| self.done_s[a].total_cmp(&self.done_s[b]));
        order
            .chunks_exact(size.max(1))
            .map(|c| {
                let block: Vec<f64> = c.iter().map(|&i| self.latency_us[i]).collect();
                crate::stats::Summary::of(&block)
            })
            .collect()
    }
}

/// Shrink this thread's timer slack to 1 µs, so the open-loop generator
/// wakes when a request is due rather than up to 50 µs (the default
/// slack) later.
#[cfg(target_os = "linux")]
fn tight_timer_slack() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: prctl(PR_SET_TIMERSLACK, ns) only sets the calling thread's
    // timer slack; it takes an unsigned long and touches no memory.
    unsafe {
        prctl(PR_SET_TIMERSLACK, std::ffi::c_ulong::from(1_000u32));
    }
}

#[cfg(not(target_os = "linux"))]
fn tight_timer_slack() {}

fn connect(addr: &str) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);
    write_handshake(&mut writer).map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    Ok((reader, writer))
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> Result<(u64, Reply), String> {
    match read_frame(reader) {
        Ok(Some(payload)) => decode_reply(&payload).map_err(|e| format!("decode reply: {e}")),
        Ok(None) => Err("server closed the connection".to_owned()),
        Err(e) => Err(format!("read reply: {e}")),
    }
}

/// Admission limits far above anything the phases keep outstanding, so a
/// stall of the host backs requests up into latency rather than shedding
/// them: a shed would fail the run's correctness check.
fn server_config() -> ServerConfig {
    ServerConfig {
        queue_capacity: 1 << 16,
        tenant_pending_limit: 1 << 16,
        ..ServerConfig::default()
    }
}

impl Fleet {
    /// Build the fleet's service, start the server, connect, and open every
    /// test day of every tenant.
    ///
    /// # Errors
    ///
    /// A description of the first step that failed.
    pub fn start(spec: &WireSpec, tenants: &[TenantInput]) -> Result<Fleet, String> {
        let cluster = cluster_builder(tenants, spec.shards)
            .build()
            .map_err(|e| format!("fleet build: {e}"))?;
        let server = Server::start_cluster(cluster, "127.0.0.1:0", server_config())
            .map_err(|e| format!("server start: {e}"))?;
        let addr = server.local_addr().to_string();

        let mut lanes = Vec::with_capacity(CONNECTIONS);
        for _ in 0..CONNECTIONS {
            let (reader, writer) = connect(&addr)?;
            lanes.push(Lane {
                reader,
                writer,
                tenants: Vec::new(),
                send: Vec::new(),
                served: Vec::new(),
                rr: 0,
            });
        }
        let mut requests = 0;
        for (t, tenant) in tenants.iter().enumerate() {
            let lane = &mut lanes[t % CONNECTIONS];
            let mut next_id = 1;
            let mut days = Vec::with_capacity(tenant.days.len());
            for (day, budget) in tenant.days.iter().zip(&tenant.budgets) {
                let request = Request::OpenDay {
                    tenant: tenant.id.clone(),
                    budget: *budget,
                    day: Some(day.day()),
                };
                write_frame(
                    &mut lane.writer,
                    &encode_request(next_id, &tenant.id, &request),
                )
                .and_then(|()| lane.writer.flush())
                .map_err(|e| format!("send open day: {e}"))?;
                match read_reply(&mut lane.reader)? {
                    (id, Ok(Response::DayOpened { session, .. })) if id == next_id => {
                        days.push(session);
                    }
                    other => return Err(format!("{}: open day answered {other:?}", tenant.id)),
                }
                next_id += 1;
                requests += 1;
            }
            lane.tenants.push(t);
            lane.send.push(SendState {
                id: tenant.id.clone(),
                stream: tenant.stream().map(|(d, a)| (days[d], *a)).collect(),
                next: 0,
                next_id,
            });
            lane.served.push(Vec::new());
        }
        Ok(Fleet {
            server: Some(server),
            addr,
            lanes,
            requests,
        })
    }

    /// The server's address.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The served decisions of every tenant, in fleet order.
    #[must_use]
    pub fn served(&self) -> Vec<&Served> {
        let mut out: Vec<(usize, &Served)> = self
            .lanes
            .iter()
            .flat_map(|l| l.tenants.iter().copied().zip(&l.served))
            .collect();
        out.sort_by_key(|(t, _)| *t);
        out.into_iter().map(|(_, s)| s).collect()
    }

    /// Stream positions consumed so far, per tenant in fleet order.
    #[must_use]
    pub fn positions(&self) -> Vec<usize> {
        self.served().iter().map(|s| s.len()).collect()
    }

    /// The next unused request id of every tenant, in fleet order: another
    /// client of the same tenant must continue from it, or the server's
    /// dedup window answers it as stale.
    #[must_use]
    pub fn next_ids(&self) -> Vec<u64> {
        let mut out: Vec<(usize, u64)> = self
            .lanes
            .iter()
            .flat_map(|l| {
                l.tenants
                    .iter()
                    .copied()
                    .zip(l.send.iter().map(|s| s.next_id))
            })
            .collect();
        out.sort_by_key(|(t, _)| *t);
        out.into_iter().map(|(_, id)| id).collect()
    }

    /// Push `per_tenant` alerts of every tenant, pipelined `window` deep,
    /// untimed: warms the server's caches and the sessions' solvers.
    ///
    /// # Errors
    ///
    /// A transport failure.
    pub fn warm_up(&mut self, per_tenant: usize, window: usize) -> Result<Phase, String> {
        self.saturate(window, f64::INFINITY, per_tenant, None)
    }

    /// Offer `rate` alerts per second for `seconds`, split evenly over the
    /// connections, each with one generator thread sending on schedule and
    /// one thread reading replies. Latency runs from each request's due
    /// time, so a stalled generator charges the wait to every late request.
    ///
    /// # Errors
    ///
    /// A transport failure.
    pub fn open_loop(&mut self, rate: f64, seconds: f64) -> Result<Phase, String> {
        let per_lane = rate / self.lanes.len() as f64;
        let count = (per_lane * seconds).round() as usize;
        let start = Instant::now() + Duration::from_millis(2);
        let results: Vec<Result<Phase, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .map(|lane| {
                    let Lane {
                        reader,
                        writer,
                        send,
                        served,
                        rr,
                        ..
                    } = lane;
                    let (tx, rx) = channel::<InFlight>();
                    let sender = scope.spawn(move || -> Result<Vec<f64>, String> {
                        tight_timer_slack();
                        let mut lags = Vec::with_capacity(count);
                        for i in 0..count {
                            let due = start + Duration::from_secs_f64(i as f64 / per_lane);
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            let Some((tenant, id, payload)) = next_request(send, rr, usize::MAX)
                            else {
                                break;
                            };
                            lags.push(due.elapsed().as_secs_f64() * 1e6);
                            let _ = tx.send(InFlight {
                                tenant,
                                id,
                                due,
                                span: 0,
                            });
                            write_frame(writer, &payload)
                                .and_then(|()| writer.flush())
                                .map_err(|e| format!("send: {e}"))?;
                        }
                        Ok(lags)
                    });
                    let receiver = scope.spawn(move || -> Result<Phase, String> {
                        let mut phase = Phase::default();
                        for f in rx {
                            let reply = read_reply(reader)?;
                            let now = Instant::now();
                            phase.latency_us.push((now - f.due).as_secs_f64() * 1e6);
                            phase
                                .done_s
                                .push(now.saturating_duration_since(start).as_secs_f64());
                            settle(&mut phase, served, &f, reply);
                        }
                        Ok(phase)
                    });
                    (sender, receiver)
                })
                .collect();
            handles
                .into_iter()
                .map(|(sender, receiver)| {
                    let lags = sender.join().expect("generator thread panicked");
                    let mut phase = receiver.join().expect("reply thread panicked")?;
                    phase.lag_us = lags?;
                    Ok(phase)
                })
                .collect()
        });
        let mut phase = merge(results)?;
        phase.seconds = start.elapsed().as_secs_f64();
        self.requests += phase.attempted - phase.failed;
        Ok(phase)
    }

    /// Keep `window` requests outstanding on every connection for
    /// `seconds` (or until every tenant reached stream position `cap`), one
    /// thread per connection. With a tracer, record a `net.request` span
    /// per request with `codec.encode` / `codec.decode` children.
    ///
    /// # Errors
    ///
    /// A transport failure.
    pub fn saturate(
        &mut self,
        window: usize,
        seconds: f64,
        cap: usize,
        tracer: Option<&Tracer>,
    ) -> Result<Phase, String> {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds.min(3_600.0));
        let results: Vec<Result<Phase, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .map(|lane| {
                    scope.spawn(move || -> Result<Phase, String> {
                        let mut phase = Phase::default();
                        let mut queue: VecDeque<InFlight> = VecDeque::with_capacity(window);
                        loop {
                            let mut wrote = false;
                            while queue.len() < window && Instant::now() < deadline {
                                let begun = Instant::now();
                                let Some((tenant, id, payload)) =
                                    next_request(&mut lane.send, &mut lane.rr, cap)
                                else {
                                    break;
                                };
                                let span = tracer.map_or(0, |tr| {
                                    let span = tr.id();
                                    let child = tr.id();
                                    phase.spans.push(Span {
                                        id: child,
                                        parent: span,
                                        name: "codec.encode",
                                        request: id,
                                        start: tr.ns(begun),
                                        end: tr.ns(Instant::now()),
                                    });
                                    phase.spans.push(Span {
                                        id: span,
                                        parent: 0,
                                        name: "net.request",
                                        request: id,
                                        start: tr.ns(begun),
                                        end: 0,
                                    });
                                    span
                                });
                                write_frame(&mut lane.writer, &payload)
                                    .map_err(|e| format!("send: {e}"))?;
                                wrote = true;
                                queue.push_back(InFlight {
                                    tenant,
                                    id,
                                    due: begun,
                                    span,
                                });
                            }
                            if wrote {
                                lane.writer.flush().map_err(|e| format!("send: {e}"))?;
                            }
                            let Some(f) = queue.pop_front() else { break };
                            let reply = match tracer {
                                None => read_reply(&mut lane.reader)?,
                                Some(tr) => {
                                    let payload = match read_frame(&mut lane.reader) {
                                        Ok(Some(p)) => p,
                                        Ok(None) => return Err("server closed".to_owned()),
                                        Err(e) => return Err(format!("read reply: {e}")),
                                    };
                                    let begun = Instant::now();
                                    let reply = decode_reply(&payload)
                                        .map_err(|e| format!("decode reply: {e}"))?;
                                    let end = Instant::now();
                                    phase.spans.push(Span {
                                        id: tr.id(),
                                        parent: f.span,
                                        name: "codec.decode",
                                        request: f.id,
                                        start: tr.ns(begun),
                                        end: tr.ns(end),
                                    });
                                    if let Some(s) =
                                        phase.spans.iter_mut().rev().find(|s| s.id == f.span)
                                    {
                                        s.end = tr.ns(end);
                                    }
                                    reply
                                }
                            };
                            let now = Instant::now();
                            phase.latency_us.push((now - f.due).as_secs_f64() * 1e6);
                            phase.done_s.push((now - start).as_secs_f64());
                            settle(&mut phase, &mut lane.served, &f, reply);
                        }
                        Ok(phase)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("saturation thread panicked"))
                .collect()
        });
        let mut phase = merge(results)?;
        phase.seconds = start.elapsed().as_secs_f64().min(seconds);
        self.requests += phase.attempted - phase.failed;
        Ok(phase)
    }

    /// Close the connections and stop the server, joining its threads.
    pub fn stop(&mut self) {
        for lane in &mut self.lanes {
            let _ = lane.writer.flush();
            let _ = lane.writer.get_ref().shutdown(std::net::Shutdown::Both);
        }
        self.server.take();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The next push of the lane, round-robin over tenants that have alerts
/// left below stream position `cap`: `(tenant slot, request id, payload)`.
fn next_request(
    send: &mut [SendState],
    rr: &mut usize,
    cap: usize,
) -> Option<(usize, u64, bytes::Bytes)> {
    for _ in 0..send.len() {
        let slot = *rr % send.len();
        *rr = rr.wrapping_add(1);
        let s = &mut send[slot];
        if s.next < s.stream.len() && s.next < cap {
            let (session, alert) = s.stream[s.next];
            let id = s.next_id;
            s.next += 1;
            s.next_id += 1;
            let payload = encode_request(id, &s.id, &Request::PushAlert { session, alert });
            return Some((slot, id, payload));
        }
    }
    None
}

/// Record one reply against its request.
fn settle(phase: &mut Phase, served: &mut [Served], f: &InFlight, reply: (u64, Reply)) {
    phase.attempted += 1;
    // Anything but the decision for this request (a shed, an error, or a
    // reply to another id) fails it.
    let outcome = match reply {
        (echoed, Ok(Response::Decision { outcome, .. })) if echoed == f.id => Some(outcome),
        _ => None,
    };
    if outcome.is_none() {
        phase.failed += 1;
    }
    served[f.tenant].push(outcome);
}

fn merge(results: Vec<Result<Phase, String>>) -> Result<Phase, String> {
    let mut out = Phase::default();
    for r in results {
        let p = r?;
        out.latency_us.extend(p.latency_us);
        out.done_s.extend(p.done_s);
        out.lag_us.extend(p.lag_us);
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.spans.extend(p.spans);
    }
    Ok(out)
}
