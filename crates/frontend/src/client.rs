//! A small blocking keep-alive client for the front-end's protocol —
//! used by the integration tests, the example, and the load generator's
//! over-the-wire spot checks. One [`Client`] is one connection.

use jury_core::problem::Selection;
use jury_core::wire::{Envelope, WireError};
use jury_service::{DecisionTask, PoolId, ServiceStats};
use serde::{json, Deserialize, Serialize, Value};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::coalesce::FrontendStats;
use crate::proto::find_head_end;

/// One HTTP response: status, optional `Retry-After` (milliseconds, as
/// hinted by the error body when present, else the header), and the
/// decoded envelope.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The decoded body envelope, already split ok/err.
    pub result: Result<Value, WireError>,
}

jury_core::stats_record! {
    /// The `GET /stats` result: the server encodes it, [`Client::stats`]
    /// decodes it. The service counters and the entry count are read
    /// under one hold of the service lock, so they describe one instant.
    pub struct StatsSnapshot {
        /// The wrapped service's counters.
        pub service: ServiceStats,
        /// The front-end's counters.
        pub frontend: FrontendStats,
        /// Interned warm-artifact entries.
        pub artifact_entries: usize,
    }
}

/// How [`Client::submit_with_retry`] spaces its attempts: capped
/// exponential backoff with decorrelated jitter, overridden by any
/// `Retry-After` the server sends (its hint is authoritative — it
/// knows its backlog's drain time; the client merely caps it).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts, the first included. 0 behaves as 1.
    pub max_attempts: usize,
    /// First backoff, and the lower bound of every jittered draw.
    pub base: Duration,
    /// Upper bound on any single backoff, server-hinted or drawn.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_attempts: 8, base: Duration::from_millis(10), cap: Duration::from_secs(1) }
    }
}

/// A blocking HTTP/1.1 keep-alive connection to a front-end.
pub struct Client {
    stream: TcpStream,
    pending: Vec<u8>,
    /// The resolved peer, kept so retries can transparently reconnect
    /// after the server restarts.
    addr: SocketAddr,
    /// splitmix64 state for backoff jitter.
    jitter: u64,
}

impl Client {
    /// Connects to a running [`crate::HttpServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        // Seed jitter from the ephemeral local port: deterministic per
        // connection, distinct across concurrent clients.
        let seed =
            0x9e37_79b9_7f4a_7c15u64 ^ u64::from(stream.local_addr().map_or(0, |a| a.port()));
        Ok(Self { stream, pending: Vec::new(), addr, jitter: seed })
    }

    /// Drops the (possibly dead) connection and dials the same peer
    /// again. Any half-read response is discarded.
    fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        self.stream = stream;
        self.pending.clear();
        Ok(())
    }

    /// Sends one request and decodes the envelope. `body = None` sends
    /// no `Content-Length` payload (GET).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<Response> {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: jury\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len(),
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()?;
        self.read_response()
    }

    /// `POST /v1/solve` for `tenant`; `Ok(Err(_))` is a structured
    /// refusal (backpressure, unknown pool, solver error), `Err(_)` a
    /// transport failure.
    pub fn solve(
        &mut self,
        tenant: &str,
        task: &DecisionTask,
    ) -> io::Result<Result<Selection, WireError>> {
        self.solve_once(tenant, task).map(|(_, result)| result)
    }

    fn solve_once(
        &mut self,
        tenant: &str,
        task: &DecisionTask,
    ) -> io::Result<(u16, Result<Selection, WireError>)> {
        let body = json::to_string(&Value::object([
            ("tenant", tenant.to_value()),
            ("task", task.to_value()),
        ]));
        let response = self.request("POST", "/v1/solve", Some(&body))?;
        let status = response.status;
        let result = response.result.and_then(|value| {
            Selection::from_value(&value).map_err(|e| WireError::new("bad-response", e.to_string()))
        });
        Ok((status, result))
    }

    /// [`Client::solve`] with transparent retries: `429` and `503`
    /// refusals (backpressure, drain, a follower without a writer) and
    /// transport failures (connection reset by a restarting server —
    /// reconnects to the same peer) are retried up to
    /// [`RetryPolicy::max_attempts`], sleeping the server's
    /// `Retry-After` hint when one is sent, else a decorrelated-jitter
    /// backoff (`min(cap, uniform(base, 3·previous))`). Anything else —
    /// success, a 4xx the caller must fix, a malformed response — is
    /// returned immediately. When attempts run out the last retryable
    /// outcome is returned as-is, so callers see exactly what the
    /// server last said.
    pub fn submit_with_retry(
        &mut self,
        tenant: &str,
        task: &DecisionTask,
        policy: &RetryPolicy,
    ) -> io::Result<Result<Selection, WireError>> {
        let attempts = policy.max_attempts.max(1);
        let mut previous = policy.base;
        let mut broken = false;
        let mut attempt = 0;
        loop {
            if broken {
                match self.reconnect() {
                    Ok(()) => broken = false,
                    // Server still down: a failed dial is a failed
                    // attempt — keep backing off.
                    Err(e) => {
                        attempt += 1;
                        if attempt >= attempts {
                            return Err(e);
                        }
                        previous = self.backoff(policy, previous, None);
                        continue;
                    }
                }
            }
            match self.solve_once(tenant, task) {
                Ok((status, result)) => match result {
                    Err(err) if status == 429 || status == 503 => {
                        attempt += 1;
                        if attempt >= attempts {
                            return Ok(Err(err));
                        }
                        let hint = err.retry_after_ms.map(Duration::from_millis);
                        previous = self.backoff(policy, previous, hint);
                    }
                    other => return Ok(other),
                },
                Err(transport) => {
                    attempt += 1;
                    if attempt >= attempts {
                        return Err(transport);
                    }
                    broken = true;
                    previous = self.backoff(policy, previous, None);
                }
            }
        }
    }

    /// Sleeps one backoff and returns it (the next draw's upper-bound
    /// seed). The server's hint wins when present; both are capped.
    fn backoff(
        &mut self,
        policy: &RetryPolicy,
        previous: Duration,
        hint: Option<Duration>,
    ) -> Duration {
        let delay = match hint {
            Some(hinted) => hinted.clamp(policy.base, policy.cap),
            None => {
                // Decorrelated jitter: uniform in [base, 3·previous].
                self.jitter = self.jitter.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.jitter;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                let lo = policy.base.as_nanos() as u64;
                let hi = (previous.as_nanos() as u64).saturating_mul(3).max(lo + 1);
                Duration::from_nanos(lo + z % (hi - lo)).min(policy.cap)
            }
        };
        std::thread::sleep(delay);
        delay.max(policy.base)
    }

    /// `POST /v1/pools`.
    pub fn create_pool(
        &mut self,
        jurors: &[jury_core::juror::Juror],
    ) -> io::Result<Result<PoolId, WireError>> {
        let body = json::to_string(&Value::object([("jurors", jurors.to_vec().to_value())]));
        let response = self.request("POST", "/v1/pools", Some(&body))?;
        Ok(response.result.and_then(|value| {
            value
                .get("pool")
                .ok_or_else(|| WireError::new("bad-response", "missing pool id"))
                .and_then(|v| {
                    PoolId::from_value(v).map_err(|e| WireError::new("bad-response", e.to_string()))
                })
        }))
    }

    /// `GET /stats`.
    pub fn stats(&mut self) -> io::Result<Result<StatsSnapshot, WireError>> {
        let response = self.request("GET", "/stats", None)?;
        Ok(response.result.and_then(|value| {
            StatsSnapshot::from_value(&value)
                .map_err(|e| WireError::new("bad-response", e.to_string()))
        }))
    }

    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        self.pending.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let head_end = loop {
            if let Some(end) = find_head_end(&self.pending) {
                break end;
            }
            if self.fill()? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        };
        let head = String::from_utf8_lossy(&self.pending[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad length"))?;
                }
            }
        }
        let body_end = head_end + 4 + content_length;
        while self.pending.len() < body_end {
            if self.fill()? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
        }
        let mut consumed: Vec<u8> = self.pending.drain(..body_end).collect();
        let body = consumed.split_off(head_end + 4);
        let text = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        let envelope: Envelope = json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok(Response { status, result: envelope.into_result() })
    }
}
