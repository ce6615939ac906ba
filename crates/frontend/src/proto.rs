//! Minimal HTTP/1.1 framing over [`std::net::TcpStream`]: request
//! parsing with hard head/body limits, and response writing with
//! `Content-Length` framing. Deliberately tiny — just enough protocol
//! for the coalescing front-end, in the same spirit as the workspace's
//! vendored shims.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Hard cap on request line + headers.
pub(crate) const MAX_HEAD: usize = 8 * 1024;
/// Hard cap on request bodies (a 413 refusal, not a connection kill).
pub(crate) const MAX_BODY: usize = 256 * 1024;
/// How long a *partially received* request may dribble before the
/// connection is abandoned.
const PARTIAL_DEADLINE: Duration = Duration::from_secs(5);

/// One parsed request.
pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) body: Vec<u8>,
    pub(crate) keep_alive: bool,
}

/// What reading from a connection produced.
pub(crate) enum ReadOutcome {
    Request(Request),
    /// Clean end of the connection (EOF between requests, or shutdown
    /// observed while idle). Nothing to answer.
    Closed,
    /// Unparseable or truncated request — answer 400 (best-effort; the
    /// peer may already be gone) and close.
    Malformed(&'static str),
    /// Head or declared body over the caps — answer 413 and close.
    TooLarge,
}

/// A connection with its read-ahead buffer (keep-alive pipelining means
/// one read may span request boundaries).
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pending: Vec<u8>,
}

enum Fill {
    Bytes,
    Eof,
    TimedOut,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> Self {
        Self { stream, pending: Vec::new() }
    }

    fn fill(&mut self) -> io::Result<Fill> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(Fill::Eof),
            Ok(n) => {
                self.pending.extend_from_slice(&chunk[..n]);
                Ok(Fill::Bytes)
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(Fill::TimedOut)
            }
            Err(e) => Err(e),
        }
    }

    /// Reads one request. `stop` is polled on read timeouts so an idle
    /// keep-alive connection lets its worker exit during shutdown; a
    /// request already in flight is still read to completion.
    pub(crate) fn read_request(&mut self, stop: &AtomicBool) -> ReadOutcome {
        let mut partial_since: Option<Instant> = None;
        let head_end = loop {
            if let Some(end) = find_head_end(&self.pending) {
                break end;
            }
            if self.pending.len() > MAX_HEAD {
                return ReadOutcome::TooLarge;
            }
            if !self.pending.is_empty() {
                partial_since.get_or_insert_with(Instant::now);
            }
            match self.fill() {
                Err(_) => return ReadOutcome::Closed,
                Ok(Fill::Eof) => {
                    return if self.pending.is_empty() {
                        ReadOutcome::Closed
                    } else {
                        ReadOutcome::Malformed("client disconnected mid-request")
                    };
                }
                Ok(Fill::TimedOut) => {
                    if partial_since.is_some_and(|t| t.elapsed() > PARTIAL_DEADLINE) {
                        return ReadOutcome::Malformed("request timed out mid-head");
                    }
                    if partial_since.is_none() && stop.load(Ordering::Acquire) {
                        return ReadOutcome::Closed;
                    }
                }
                Ok(Fill::Bytes) => {}
            }
        };
        let head = match std::str::from_utf8(&self.pending[..head_end]) {
            Ok(head) => head,
            Err(_) => return ReadOutcome::Malformed("non-UTF-8 request head"),
        };
        let (method, path, content_length, keep_alive) = match parse_head(head) {
            Ok(parts) => parts,
            Err(msg) => return ReadOutcome::Malformed(msg),
        };
        if content_length > MAX_BODY {
            return ReadOutcome::TooLarge;
        }
        let body_end = head_end + 4 + content_length;
        while self.pending.len() < body_end {
            match self.fill() {
                Err(_) => return ReadOutcome::Closed,
                Ok(Fill::Eof) => return ReadOutcome::Malformed("client disconnected mid-body"),
                Ok(Fill::TimedOut) => {
                    if partial_since.get_or_insert_with(Instant::now).elapsed() > PARTIAL_DEADLINE {
                        return ReadOutcome::Malformed("request timed out mid-body");
                    }
                }
                Ok(Fill::Bytes) => {}
            }
        }
        let body = self.pending[head_end + 4..body_end].to_vec();
        self.pending.drain(..body_end);
        ReadOutcome::Request(Request { method, path, body, keep_alive })
    }
}

pub(crate) fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(head: &str) -> Result<(String, String, usize, bool), &'static str> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split(' ');
    let method = parts.next().filter(|m| !m.is_empty()).ok_or("missing method")?;
    let path = parts.next().filter(|p| p.starts_with('/')).ok_or("missing request path")?;
    let version = parts.next().ok_or("missing HTTP version")?;
    if parts.next().is_some() {
        return Err("malformed request line");
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err("unsupported HTTP version"),
    };
    let mut content_length: Option<usize> = None;
    let mut keep_alive = http11;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            if line.is_empty() {
                continue;
            }
            return Err("malformed header line");
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // `1*DIGIT` only: `str::parse` alone would also accept a
            // leading `+`. A repeated header must repeat the same value —
            // letting the last one win would frame the body differently
            // from any intermediary that honoured the first.
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err("unparseable content-length");
            }
            let len = value.parse().map_err(|_| "unparseable content-length")?;
            if content_length.is_some_and(|seen| seen != len) {
                return Err("conflicting content-length headers");
            }
            content_length = Some(len);
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close")
                && (http11 || value.eq_ignore_ascii_case("keep-alive"));
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err("chunked bodies are not supported");
        }
    }
    Ok((method.to_string(), path.to_string(), content_length.unwrap_or(0), keep_alive))
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

/// Writes one framed JSON response in a single write, so head and body
/// leave together rather than as two segments on the `TCP_NODELAY`
/// socket. `retry_after` becomes a whole-seconds `Retry-After` header
/// (rounded up — the wire error body carries the precise
/// `retry_after_ms`).
pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    retry_after: Option<Duration>,
    keep_alive: bool,
    body: &str,
) -> io::Result<()> {
    let mut message = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
        status_text(status),
        body.len(),
    );
    if let Some(delay) = retry_after {
        message.push_str(&format!("retry-after: {}\r\n", delay.as_secs_f64().ceil() as u64));
    }
    if !keep_alive {
        message.push_str("connection: close\r\n");
    }
    message.push_str("\r\n");
    message.push_str(body);
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heads_parse_and_reject() {
        let (method, path, len, keep) =
            parse_head("POST /v1/solve HTTP/1.1\r\nContent-Length: 12\r\nHost: x").unwrap();
        assert_eq!((method.as_str(), path.as_str(), len, keep), ("POST", "/v1/solve", 12, true));
        let (.., keep) = parse_head("GET /stats HTTP/1.1\r\nConnection: close").unwrap();
        assert!(!keep);
        let (.., keep) = parse_head("GET /stats HTTP/1.0\r\n").unwrap();
        assert!(!keep, "HTTP/1.0 defaults to close");
        assert!(parse_head("GET /x HTTP/2\r\n").is_err());
        assert!(parse_head("GET\r\n").is_err());
        assert!(parse_head("POST /x HTTP/1.1\r\nContent-Length: eel").is_err());
        // Content-Length is `1*DIGIT`: no sign, no whitespace inside, no
        // empty value, no overflow.
        for bad in ["+12", "-0", "1 2", "", "0x10", "12,12", "99999999999999999999999"] {
            let head = format!("POST /x HTTP/1.1\r\nContent-Length: {bad}");
            assert!(parse_head(&head).is_err(), "accepted content-length {bad:?}");
        }
        // A repeated header must repeat the same value.
        let (.., len, _) =
            parse_head("POST /x HTTP/1.1\r\nContent-Length: 7\r\ncontent-length: 7").unwrap();
        assert_eq!(len, 7);
        assert!(parse_head("POST /x HTTP/1.1\r\nContent-Length: 7\r\nContent-Length: 70").is_err());
        assert!(parse_head("POST /x HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 5").is_err());
        assert!(parse_head("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked").is_err());
    }
}
