//! The std-only HTTP layer: one acceptor thread feeding a fixed worker
//! pool over an [`mpsc`] channel. Each worker owns one connection at a
//! time and runs its keep-alive loop; protocol failures answer a
//! structured wire error (best-effort) and close that connection only —
//! the acceptor and the coalescing queue never see them.

use crate::client::StatsSnapshot;
use crate::coalesce::{Frontend, Role, SubmitError};
use crate::proto::{self, Conn, ReadOutcome, Request};
use jury_core::wire::{Envelope, WireError};
use jury_service::{DecisionTask, JuryService, ServiceError, SnapshotError};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// How often blocked reads wake to poll the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// The HTTP front door over a [`Frontend`]. See the crate docs for the
/// protocol.
pub struct HttpServer {
    frontend: Arc<Frontend>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the acceptor plus `workers` connection handlers.
    pub fn start(frontend: Arc<Frontend>, addr: &str, workers: usize) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (sender, receiver) = mpsc::channel::<TcpStream>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..workers.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let frontend = Arc::clone(&frontend);
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("jury-http-{i}"))
                    .spawn(move || {
                        // Channel closed = acceptor gone = shutdown.
                        loop {
                            let next = receiver.lock().expect("receiver poisoned").recv();
                            match next {
                                Ok(stream) => handle_connection(stream, &frontend, &stop),
                                Err(_) => return,
                            }
                        }
                    })
                    .expect("spawn http worker")
            })
            .collect();
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("jury-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                        let _ = stream.set_nodelay(true);
                        if sender.send(stream).is_err() {
                            break;
                        }
                    }
                    // Dropping the sender drains the workers.
                })
                .expect("spawn acceptor")
        };
        Ok(Self { frontend, addr, stop, acceptor: Some(acceptor), workers })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The coalescing front-end this server feeds.
    pub fn frontend(&self) -> &Arc<Frontend> {
        &self.frontend
    }

    /// Graceful shutdown: stops accepting, lets in-flight requests
    /// finish, drains the coalescing queue, and returns the wrapped
    /// service (None if another handle already claimed it).
    pub fn shutdown(mut self) -> Option<JuryService> {
        self.stop_http();
        self.frontend.shutdown()
    }

    fn stop_http(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop_http();
        }
    }
}

fn handle_connection(stream: TcpStream, frontend: &Arc<Frontend>, stop: &AtomicBool) {
    let mut conn = Conn::new(stream);
    loop {
        match conn.read_request(stop) {
            ReadOutcome::Closed => return,
            ReadOutcome::Malformed(msg) => {
                // Best-effort 400 — the peer may already be gone, which
                // is fine; the point is this worker survives.
                count_malformed(frontend);
                let _ = respond_error(&mut conn, 400, None, false, "bad-request", msg);
                return;
            }
            ReadOutcome::TooLarge => {
                count_malformed(frontend);
                let _ = respond_error(
                    &mut conn,
                    413,
                    None,
                    false,
                    "too-large",
                    "request exceeds the configured size limits",
                );
                return;
            }
            ReadOutcome::Request(request) => {
                let keep_alive = request.keep_alive;
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    route(&mut conn, frontend, request)
                }));
                match outcome {
                    Ok(Ok(())) if keep_alive => {}
                    Ok(_) => return,
                    Err(_) => {
                        // A panicking handler costs its connection, not
                        // its worker: count it, answer a best-effort
                        // 500, and go back to the accept loop.
                        frontend.counters().worker_panics.fetch_add(1, Ordering::Relaxed);
                        let _ = respond_error(
                            &mut conn,
                            500,
                            None,
                            false,
                            "internal",
                            "request handler panicked",
                        );
                        return;
                    }
                }
            }
        }
    }
}

fn count_malformed(frontend: &Frontend) {
    frontend.counters().malformed_requests.fetch_add(1, Ordering::Relaxed);
}

fn respond_error(
    conn: &mut Conn,
    status: u16,
    retry_after: Option<Duration>,
    keep_alive: bool,
    kind: &str,
    message: &str,
) -> io::Result<()> {
    let mut error = WireError::new(kind, message);
    if let Some(delay) = retry_after {
        error = error.with_retry_after(delay.as_millis() as u64);
    }
    let body = serde::json::to_string(&Envelope::err(error));
    proto::write_response(&mut conn.stream, status, retry_after, keep_alive, &body)
}

fn respond_ok<T: serde::Serialize>(
    conn: &mut Conn,
    keep_alive: bool,
    result: &T,
) -> io::Result<()> {
    let body = serde::json::to_string(&Envelope::ok(result));
    proto::write_response(&mut conn.stream, 200, None, keep_alive, &body)
}

fn route(conn: &mut Conn, frontend: &Arc<Frontend>, request: Request) -> io::Result<()> {
    let keep = request.keep_alive;
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/solve") => {
            let parsed: Result<SolveRequest, _> = parse_body(&request.body);
            let solve = match parsed {
                Ok(solve) => solve,
                Err(msg) => {
                    count_malformed(frontend);
                    return respond_error(conn, 400, None, keep, "bad-request", &msg);
                }
            };
            match frontend.submit(&solve.tenant, solve.task) {
                Ok(selection) => respond_ok(conn, keep, &*selection),
                Err(SubmitError::Overloaded { retry_after }) => respond_error(
                    conn,
                    429,
                    Some(retry_after),
                    keep,
                    "overloaded",
                    "tenant queue is full",
                ),
                Err(SubmitError::ShuttingDown) => {
                    respond_error(conn, 503, None, keep, "shutting-down", "front-end is draining")
                }
                Err(SubmitError::Service(err)) => {
                    let status = match err {
                        ServiceError::UnknownPool(_) => 404,
                        _ => 422,
                    };
                    respond_error(conn, status, None, keep, error_kind(&err), &err.to_string())
                }
            }
        }
        ("POST", "/v1/pools") => {
            if frontend.is_shutting_down() {
                return respond_error(
                    conn,
                    503,
                    None,
                    keep,
                    "shutting-down",
                    "front-end is draining",
                );
            }
            if let Some(err) = refuse_follower_write(conn, frontend, keep) {
                return err;
            }
            let parsed: Result<CreatePool, _> = parse_body(&request.body);
            match parsed {
                Ok(create) => {
                    let pool = frontend.with_service(|s| s.create_pool(create.jurors));
                    respond_ok(conn, keep, &PoolCreated { pool })
                }
                Err(msg) => {
                    count_malformed(frontend);
                    respond_error(conn, 400, None, keep, "bad-request", &msg)
                }
            }
        }
        ("POST", "/v1/snapshot") => {
            if let Some(err) = refuse_follower_write(conn, frontend, keep) {
                return err;
            }
            let dir = match snapshot_dir(&request.body, frontend) {
                Ok(dir) => dir,
                Err(msg) => {
                    count_malformed(frontend);
                    return respond_error(conn, 422, None, keep, "bad-request", &msg);
                }
            };
            match frontend.with_service(|s| s.snapshot(&dir)) {
                Ok(report) => respond_ok(conn, keep, &report),
                // Another live writer owns the directory, or this
                // writer was fenced out: the request conflicts with
                // the directory's current owner, not with anything the
                // caller can fix by rewording — 409.
                Err(e @ (SnapshotError::LeaseHeld { .. } | SnapshotError::Fenced { .. })) => {
                    respond_error(conn, 409, None, keep, "snapshot-conflict", &e.to_string())
                }
                // A partial failure committed nothing (readers still
                // see the previous generation) but must not masquerade
                // as success: a structured 500 carrying the counts.
                Err(SnapshotError::Partial { written, failed, error }) => {
                    use serde::Serialize as _;
                    let body = serde::json::to_string(&serde::Value::object([
                        ("ok", false.to_value()),
                        (
                            "error",
                            serde::Value::object([
                                ("kind", "snapshot-partial".to_value()),
                                (
                                    "message",
                                    format!(
                                        "snapshot partially failed, no manifest committed: {error}"
                                    )
                                    .to_value(),
                                ),
                                ("written", written.to_value()),
                                ("failed", failed.to_value()),
                            ]),
                        ),
                    ]));
                    proto::write_response(&mut conn.stream, 500, None, keep, &body)
                }
                Err(e) => respond_error(conn, 500, None, keep, "snapshot-failed", &e.to_string()),
            }
        }
        ("POST", "/debug/panic") if frontend.debug_fault_routes() => {
            panic!("debug fault injection requested via /debug/panic")
        }
        ("GET", "/stats") => {
            let stats = frontend.with_service(|service| StatsSnapshot {
                service: service.stats(),
                frontend: frontend.stats(),
                artifact_entries: service.artifact_entries(),
            });
            respond_ok(conn, keep, &stats)
        }
        // Liveness: always 200 while the process serves HTTP at all —
        // a follower is alive, a draining front-end is alive. The body
        // carries role, generation and lag for operators and tests.
        ("GET", "/healthz") => respond_ok(conn, keep, &health_payload(frontend)),
        // Readiness: 503 while draining (load balancers should stop
        // routing here), 200 in both serving roles — followers answer
        // solves, so they are ready.
        ("GET", "/readyz") => {
            if frontend.is_shutting_down() {
                respond_error(conn, 503, None, keep, "shutting-down", "front-end is draining")
            } else {
                respond_ok(conn, keep, &health_payload(frontend))
            }
        }
        _ => {
            count_malformed(frontend);
            respond_error(conn, 404, None, keep, "not-found", "no such route")
        }
    }
}

/// Refuses a mutating route on a follower with 503 + the leader hint
/// (see the `jury-service` crate docs' *failover contract*): solves
/// keep flowing in both roles, writes belong to the writer. Returns
/// `None` on a writer so the route proceeds.
fn refuse_follower_write(
    conn: &mut Conn,
    frontend: &Arc<Frontend>,
    keep: bool,
) -> Option<io::Result<()>> {
    if frontend.role() != Role::Follower {
        return None;
    }
    let message = match frontend.leader_hint() {
        Some(leader) => format!("this front-end is a follower; the writer is \"{leader}\""),
        None => "this front-end is a follower; no writer is currently known".to_string(),
    };
    Some(respond_error(conn, 503, None, keep, "not-leader", &message))
}

/// The `/healthz` / `/readyz` body: current role, the snapshot
/// generation the service reads from, its lag, and the drain flag.
fn health_payload(frontend: &Arc<Frontend>) -> serde::Value {
    use serde::Serialize as _;
    // One role read names the generation pair and the role field alike:
    // a promotion or demotion between two reads would report one role's
    // generation under the other's name.
    let role = frontend.role();
    let stats = frontend.service_stats();
    let (generation, lag_ms) = match role {
        Role::Writer => (stats.snapshot_generation, stats.snapshot_age_ms),
        Role::Follower => (stats.follower_generation, stats.follower_lag_ms),
    };
    serde::Value::object([
        ("role", role.to_string().to_value()),
        ("generation", generation.to_value()),
        ("lag_ms", lag_ms.to_value()),
        ("draining", frontend.is_shutting_down().to_value()),
    ])
}

/// The snapshot target for `POST /v1/snapshot`: the service's
/// configured `snapshot_dir`, and nothing else. The route takes no
/// body, so a request can never point the writer (its lease, entry
/// writes and garbage collection) at a directory of its choosing; a
/// body, or a service with no directory configured, is unprocessable.
fn snapshot_dir(body: &[u8], frontend: &Frontend) -> Result<std::path::PathBuf, String> {
    if !body.is_empty() {
        return Err("POST /v1/snapshot takes no body: it writes only into the configured \
                    snapshot_dir"
            .to_string());
    }
    frontend
        .with_service(|s| s.config().snapshot_dir.clone())
        .ok_or_else(|| "no snapshot_dir configured".to_string())
}

fn error_kind(err: &ServiceError) -> &'static str {
    match err {
        ServiceError::UnknownPool(_) => "unknown-pool",
        ServiceError::JurorOutOfRange { .. } => "juror-out-of-range",
        ServiceError::Solver(_) => "solver",
    }
}

fn parse_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    serde::json::from_str(text).map_err(|e| e.to_string())
}

struct SolveRequest {
    tenant: String,
    task: DecisionTask,
}

impl serde::Deserialize for SolveRequest {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let tenant = value
            .get("tenant")
            .ok_or_else(|| serde::Error::missing_field("tenant"))
            .and_then(String::from_value)?;
        let task = value.get("task").ok_or_else(|| serde::Error::missing_field("task"))?;
        Ok(Self { tenant, task: DecisionTask::from_value(task)? })
    }
}

struct CreatePool {
    jurors: Vec<jury_core::juror::Juror>,
}

impl serde::Deserialize for CreatePool {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let jurors = value.get("jurors").ok_or_else(|| serde::Error::missing_field("jurors"))?;
        Ok(Self { jurors: Vec::from_value(jurors)? })
    }
}

struct PoolCreated {
    pool: jury_service::PoolId,
}

impl serde::Serialize for PoolCreated {
    fn to_value(&self) -> serde::Value {
        serde::Value::object([("pool", self.pool.to_value())])
    }
}
