//! Protocol error paths over a live server: every failure mode answers
//! a structured wire error (or silently drops a vanished peer), and
//! none of them kill the acceptor, a worker, or a coalescing window.

use jury_core::juror::pool_from_rates_and_costs;
use jury_frontend::client::Client;
use jury_frontend::{Frontend, FrontendConfig, HttpServer};
use jury_service::{DecisionTask, JuryService, PoolId, ServiceConfig};
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

fn start_server(config: FrontendConfig) -> (HttpServer, PoolId) {
    start_service_server(ServiceConfig::default(), config)
}

/// A server whose service checkpoints into (and restores from) `dir`.
fn start_snapshot_server(dir: &Path) -> (HttpServer, PoolId) {
    let service = ServiceConfig { snapshot_dir: Some(dir.to_path_buf()), ..Default::default() };
    start_service_server(service, FrontendConfig::default())
}

fn start_service_server(service: ServiceConfig, config: FrontendConfig) -> (HttpServer, PoolId) {
    let jurors =
        pool_from_rates_and_costs(&[(0.1, 0.2), (0.2, 0.1), (0.3, 0.4), (0.25, 0.3)]).unwrap();
    let mut service = JuryService::with_config(service);
    let pool = service.create_pool(jurors);
    let frontend = Frontend::start(service, config);
    let server = HttpServer::start(frontend, "127.0.0.1:0", 2).unwrap();
    (server, pool)
}

fn wait_for<T>(mut probe: impl FnMut() -> Option<T>, what: &str) -> T {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(value) = probe() {
            return value;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn protocol_failures_answer_structured_errors_and_spare_the_server() {
    let (server, pool) = start_server(FrontendConfig::default());
    let addr = server.local_addr();

    // Malformed JSON body: 400 with a wire error, connection stays up
    // for the next (valid) request.
    let mut client = Client::connect(addr).unwrap();
    let response = client.request("POST", "/v1/solve", Some("{this is not json")).unwrap();
    assert_eq!(response.status, 400);
    assert_eq!(response.result.unwrap_err().kind, "bad-request");
    let solved = client.solve("t0", &DecisionTask::altruism(pool)).unwrap().unwrap();
    assert!(!solved.members.is_empty(), "same connection keeps working after a 400");

    // Unknown pool id: 404 with kind unknown-pool.
    let ghost = server.frontend().with_service(|s| {
        let ghost = s.create_pool(pool_from_rates_and_costs(&[(0.2, 0.1)]).unwrap());
        s.remove_pool(ghost).unwrap();
        ghost
    });
    let err = client.solve("t0", &DecisionTask::altruism(ghost)).unwrap().unwrap_err();
    assert_eq!(err.kind, "unknown-pool");

    // Unknown route: 404, still structured.
    let response = client.request("GET", "/v1/nope", None).unwrap();
    assert_eq!(response.status, 404);
    assert_eq!(response.result.unwrap_err().kind, "not-found");

    // Solver refusal (empty pool): 422, kind solver. Invalid budgets
    // never get this far — the wire layer re-validates them at parse
    // time and answers 400.
    let empty = server.frontend().with_service(|s| s.create_pool(Vec::new()));
    let response = client.solve("t0", &DecisionTask::altruism(empty)).unwrap();
    assert_eq!(response.unwrap_err().kind, "solver");
    let response = client
        .request(
            "POST",
            "/v1/solve",
            Some(r#"{"tenant": "t0", "task": {"pool": 0, "task": {"model": "pay-as-you-go", "budget": -1}}}"#),
        )
        .unwrap();
    assert_eq!(response.status, 400);
    assert_eq!(response.result.unwrap_err().kind, "bad-request");

    // Oversized request: the declared body busts the cap, so the 413
    // arrives before any body byte is read (or sent).
    let mut big = TcpStream::connect(addr).unwrap();
    big.write_all(b"POST /v1/solve HTTP/1.1\r\ncontent-length: 10000000\r\n\r\n").unwrap();
    let mut status_line = Vec::new();
    std::io::Read::read_to_end(&mut big, &mut status_line).unwrap();
    let text = String::from_utf8_lossy(&status_line);
    assert!(text.starts_with("HTTP/1.1 413"), "got: {text}");
    assert!(text.contains("too-large"), "got: {text}");

    // Mid-request disconnects (half a head; a declared body that never
    // arrives) are abandoned without hurting anyone else.
    let before = server.frontend().stats().malformed_requests;
    {
        let mut half_head = TcpStream::connect(addr).unwrap();
        half_head.write_all(b"POST /v1/solve HT").unwrap();
    }
    {
        let mut half_body = TcpStream::connect(addr).unwrap();
        half_body
            .write_all(b"POST /v1/solve HTTP/1.1\r\ncontent-length: 64\r\n\r\n{\"ten")
            .unwrap();
    }
    wait_for(
        || (server.frontend().stats().malformed_requests >= before + 2).then_some(()),
        "disconnects to be abandoned",
    );

    // The acceptor and the coalescing machinery shrug all of it off.
    let mut fresh = Client::connect(addr).unwrap();
    let solved = fresh.solve("t0", &DecisionTask::altruism(pool)).unwrap().unwrap();
    assert!(!solved.members.is_empty());
    let stats = fresh.stats().unwrap().unwrap();
    assert!(stats.frontend.malformed_requests >= 4, "400/404s and disconnects are counted");
    assert!(stats.service.tasks_solved >= 2);
    assert_eq!(stats.frontend.queue_rejections, 0);

    let service = server.shutdown().expect("server returns the service");
    assert!(service.stats().tasks_solved >= 2);
}

/// Bodies at the size cap that used to stall a worker (one long string,
/// parsed quadratically) or abort the process (deep nesting, which
/// overflowed the worker's stack) now answer a plain 400.
#[test]
fn adversarial_json_bodies_answer_400_and_spare_the_server() {
    let (server, pool) = start_server(FrontendConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // The request body cap, `proto::MAX_BODY`.
    let max_body = 256 * 1024;
    let long_string = format!("\"{}\"", "x".repeat(max_body - 2));
    let deep_nesting = "[".repeat(200 * 1024);
    for body in [long_string, deep_nesting] {
        let response = client.request("POST", "/v1/solve", Some(&body)).unwrap();
        assert_eq!(response.status, 400);
        assert_eq!(response.result.unwrap_err().kind, "bad-request");
    }

    let solved = client.solve("t0", &DecisionTask::altruism(pool)).unwrap().unwrap();
    assert!(!solved.members.is_empty(), "the same server still solves");
    let stats = client.stats().unwrap().unwrap();
    assert_eq!(stats.frontend.worker_panics, 0);
    drop(client);
    server.shutdown();
}

/// Conflicting duplicate `Content-Length` headers (a request-smuggling
/// vector: the last one used to win silently) and a signed length both
/// answer 400 and close the connection; the server keeps solving.
#[test]
fn ambiguous_content_length_answers_400_and_spares_the_server() {
    use std::io::Read as _;
    let (server, pool) = start_server(FrontendConfig::default());
    let addr = server.local_addr();
    let body = r#"{"tenant": "t0", "task": {"pool": 0, "task": {"model": "altruism"}}}"#;
    // Each head would frame a well-formed solve if the last duplicate won
    // or the sign were ignored, so only the strict framing answers 400.
    for lengths in [vec!["2".to_string(), body.len().to_string()], vec![format!("+{}", body.len())]]
    {
        let mut head = String::from("POST /v1/solve HTTP/1.1\r\nconnection: close\r\n");
        for len in &lengths {
            head.push_str(&format!("content-length: {len}\r\n"));
        }
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(format!("{head}\r\n{body}").as_bytes()).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 400"), "{lengths:?}: got {text}");
        assert!(text.contains("bad-request"), "{lengths:?}: got {text}");
    }

    let mut client = Client::connect(addr).unwrap();
    let solved = client.solve("t0", &DecisionTask::altruism(pool)).unwrap().unwrap();
    assert!(!solved.members.is_empty(), "the same server still solves");
    let stats = client.stats().unwrap().unwrap();
    assert!(stats.frontend.malformed_requests >= 2, "both refusals are counted");
    drop(client);
    server.shutdown();
}

/// A request whose head and body arrive in separate segments, with the
/// body itself split across reads, is answered exactly like the same
/// request sent in one write. [`Client`] always sends one write, so this
/// drives the server's partial-read path by hand; each pause outlasts
/// the server's read timeout, so it also waits across timed-out reads.
#[test]
fn a_request_split_across_segments_answers_like_one_write() {
    use serde::Serialize as _;
    use std::io::Read as _;
    let (server, pool) = start_server(FrontendConfig::default());
    let addr = server.local_addr();
    let task = DecisionTask::altruism(pool);
    // Warm the pool, so both raw exchanges below are hits.
    Client::connect(addr).unwrap().solve("t0", &task).unwrap().unwrap();

    let body = serde::json::to_string(&serde::Value::object([
        ("tenant", "t0".to_value()),
        ("task", task.to_value()),
    ]));
    let head = format!(
        "POST /v1/solve HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    let exchange = |pieces: &[&str]| {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        for (i, piece) in pieces.iter().enumerate() {
            if i > 0 {
                std::thread::sleep(Duration::from_millis(120));
            }
            stream.write_all(piece.as_bytes()).unwrap();
        }
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let body_at = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("a head") + 4;
        (String::from_utf8_lossy(&raw[..body_at]).into_owned(), raw[body_at..].to_vec())
    };

    let (one_head, one_body) = exchange(&[&format!("{head}{body}")]);
    let mid = body.len() / 2;
    let (split_head, split_body) = exchange(&[&head, &body[..mid], &body[mid..]]);
    assert!(one_head.starts_with("HTTP/1.1 200"), "got: {one_head}");
    assert!(split_head.starts_with("HTTP/1.1 200"), "got: {split_head}");
    assert_eq!(split_body, one_body, "split and one-write requests answer the same bytes");
    let envelope = serde::json::parse(std::str::from_utf8(&one_body).unwrap()).unwrap();
    assert_eq!(envelope.get("ok").and_then(serde::Value::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn overflow_returns_429_with_retry_hint() {
    let (server, pool) = start_server(FrontendConfig {
        queue_capacity: 0,
        max_delay: Duration::from_millis(10),
        ..Default::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let err = client.solve("t0", &DecisionTask::altruism(pool)).unwrap().unwrap_err();
    assert_eq!(err.kind, "overloaded");
    assert_eq!(err.retry_after_ms, Some(10), "the body carries the precise backoff");
    let stats = client.stats().unwrap().unwrap();
    assert_eq!(stats.frontend.queue_rejections, 1);
    assert_eq!(stats.frontend.requests, 0, "rejected work is never admitted");
    drop(client);
    server.shutdown();
}

#[test]
fn handler_panics_cost_their_connection_not_their_worker() {
    let (server, pool) =
        start_server(FrontendConfig { debug_fault_routes: true, ..FrontendConfig::default() });
    let addr = server.local_addr();

    // Three panics across a pool of two workers: if a panic killed its
    // worker, the third request would find the pool empty.
    for _ in 0..3 {
        let mut client = Client::connect(addr).unwrap();
        let response = client.request("POST", "/debug/panic", None).unwrap();
        assert_eq!(response.status, 500);
        assert_eq!(response.result.unwrap_err().kind, "internal");
    }

    // The acceptor and every worker survived; the service still solves.
    let mut fresh = Client::connect(addr).unwrap();
    let solved = fresh.solve("t0", &DecisionTask::altruism(pool)).unwrap().unwrap();
    assert!(!solved.members.is_empty());
    let stats = fresh.stats().unwrap().unwrap();
    assert_eq!(stats.frontend.worker_panics, 3);
    drop(fresh);
    server.shutdown();

    // The fault route is gated: off by default, it is an ordinary 404.
    let (server, _) = start_server(FrontendConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let response = client.request("POST", "/debug/panic", None).unwrap();
    assert_eq!(response.status, 404);
    drop(client);
    server.shutdown();
}

#[test]
fn pools_register_over_the_wire_and_solve() {
    let (server, _) = start_server(FrontendConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let jurors = pool_from_rates_and_costs(&[(0.15, 0.3), (0.22, 0.2), (0.31, 0.5)]).unwrap();
    let pool = client.create_pool(&jurors).unwrap().unwrap();
    let selection = client.solve("t9", &DecisionTask::altruism(pool)).unwrap().unwrap();
    let direct =
        server.frontend().with_service(|s| s.solve(&DecisionTask::altruism(pool))).unwrap();
    assert_eq!(selection.members, direct.members);
    assert_eq!(selection.jer.to_bits(), direct.jer.to_bits());
    drop(client);
    server.shutdown();
}

#[test]
fn snapshot_route_persists_and_a_restarted_server_restores() {
    let dir = std::env::temp_dir().join(format!("jury-frontend-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // No configured snapshot_dir: unprocessable, structured.
    let (server, _) = start_server(FrontendConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let response = client.request("POST", "/v1/snapshot", None).unwrap();
    assert_eq!(response.status, 422);
    assert_eq!(response.result.unwrap_err().kind, "bad-request");
    server.shutdown();

    // Warm the pool, then snapshot into the configured directory.
    let (server, pool) = start_snapshot_server(&dir);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let first = client.solve("t0", &DecisionTask::altruism(pool)).unwrap().unwrap();
    let response = client.request("POST", "/v1/snapshot", None).unwrap();
    assert_eq!(response.status, 200);
    let report = response.result.unwrap();
    let entries = report.get("entries").and_then(serde::Value::as_f64).unwrap();
    assert!(entries >= 1.0, "snapshot persisted nothing: {report:?}");
    assert!(dir.join("manifest-1.json").is_file(), "the generation manifest is the commit point");
    server.shutdown();

    // A restarted server over the same juror content and directory
    // answers its first task from the verified snapshot,
    // bit-identically.
    let (server, restarted) = start_snapshot_server(&dir);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let restored = client.solve("t0", &DecisionTask::altruism(restarted)).unwrap().unwrap();
    assert_eq!(restored.members, first.members);
    assert_eq!(restored.jer.to_bits(), first.jer.to_bits());
    let stats = client.stats().unwrap().unwrap();
    assert_eq!(stats.service.snapshot_restores, 1, "first answer came from the snapshot");
    assert_eq!(stats.service.snapshot_rejections, 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_snapshot_body_naming_a_directory_is_refused_and_touches_no_file() {
    use serde::Serialize as _;

    let base = std::env::temp_dir().join(format!("jury-frontend-foreign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (configured, foreign) = (base.join("configured"), base.join("foreign"));
    std::fs::create_dir_all(&foreign).unwrap();
    // Names the snapshot writer would lease, garbage-collect or
    // overwrite if it ever ran in this directory.
    let files = ["notes.tmp", "photo.snap", "manifest.json", "keep.txt"];
    for name in files {
        std::fs::write(foreign.join(name), name).unwrap();
    }
    let listing = |dir: &Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    let before = listing(&foreign);

    let (server, pool) = start_snapshot_server(&configured);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.solve("t0", &DecisionTask::altruism(pool)).unwrap().unwrap();
    let body = serde::json::to_string(&serde::Value::object([(
        "dir",
        foreign.display().to_string().to_value(),
    )]));
    let response = client.request("POST", "/v1/snapshot", Some(&body)).unwrap();
    assert_eq!(response.status, 422);
    assert_eq!(response.result.unwrap_err().kind, "bad-request");
    assert!(!configured.exists(), "a refused request writes nowhere");

    // The configured directory still checkpoints; the foreign one is
    // never touched, not even by the drain snapshot at shutdown.
    let response = client.request("POST", "/v1/snapshot", None).unwrap();
    assert_eq!(response.status, 200);
    assert!(configured.join("manifest-1.json").is_file());
    drop(client);
    server.shutdown();
    assert_eq!(listing(&foreign), before);
    for name in files {
        assert_eq!(std::fs::read_to_string(foreign.join(name)).unwrap(), name);
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// One raw HTTP exchange, bypassing [`Client`]'s typed wire error so
/// the test can read *extra* fields in a structured error body.
fn raw_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, serde::Value) {
    use std::io::Read as _;
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let status: u16 = text.split_whitespace().nth(1).unwrap().parse().unwrap();
    let json = &text[text.find("\r\n\r\n").unwrap() + 4..];
    (status, serde::json::parse(json).unwrap())
}

#[test]
fn partially_failed_snapshot_answers_a_structured_500_with_counts() {
    let dir = std::env::temp_dir().join(format!("jury-frontend-partial-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (server, pool) = start_snapshot_server(&dir);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.solve("t0", &DecisionTask::altruism(pool)).unwrap().unwrap();
    let response = client.request("POST", "/v1/snapshot", None).unwrap();
    assert_eq!(response.status, 200);

    // Sabotage the next write: delete the generation-1 entry file (so
    // the writer must self-heal by rewriting it at generation 2) and
    // squat a *directory* on the exact path that rewrite will take —
    // the atomic rename cannot replace a directory and must fail.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "snap"))
        .expect("one entry file after the first snapshot");
    let healed_name = entry.file_name().unwrap().to_str().unwrap().replace("-g1-", "-g2-");
    std::fs::remove_file(&entry).unwrap();
    std::fs::create_dir(dir.join(&healed_name)).unwrap();

    let (status, envelope) = raw_request(addr, "POST", "/v1/snapshot", "");
    assert_eq!(status, 500, "partial failure must not masquerade as success: {envelope:?}");
    let error = envelope.get("error").expect("structured error body");
    assert_eq!(error.get("kind").and_then(serde::Value::as_str), Some("snapshot-partial"));
    assert_eq!(error.get("written").and_then(serde::Value::as_f64), Some(0.0));
    assert_eq!(error.get("failed").and_then(serde::Value::as_f64), Some(1.0));
    // No manifest was committed over the failure: generation 1 is
    // still the (only) published manifest.
    assert!(dir.join("manifest-1.json").is_file());
    assert!(!dir.join("manifest-2.json").exists());

    // Clearing the obstruction heals on the next snapshot: the entry
    // is rewritten and a new generation commits.
    std::fs::remove_dir(dir.join(&healed_name)).unwrap();
    let mut client = Client::connect(addr).unwrap();
    let response = client.request("POST", "/v1/snapshot", None).unwrap();
    assert_eq!(response.status, 200);
    let report = response.result.unwrap();
    assert!(report.get("written").and_then(serde::Value::as_f64).unwrap() >= 1.0);
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
