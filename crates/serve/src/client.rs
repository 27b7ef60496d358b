//! The retrying client: connect, submit, honor backpressure.
//!
//! One query is one connection attempt per retry: connect, write the
//! request line, read the response line. `overloaded` and `draining`
//! replies are *backpressure*, not answers — the client sleeps for the
//! larger of the server's `retry_after_ms` hint and its own capped
//! exponential backoff with deterministic site-seeded jitter
//! ([`mica_fault::io::backoff_ms`], site `serve-client`), then tries
//! again. Transport errors (connection refused, dropped responses — e.g.
//! a server running with `MICA_FAULTS=io:respond`) retry the same way, so
//! a flaky server and a busy server look identical to the caller: either
//! an answer eventually, or a [`ClientError`] after the attempt budget.

use crate::protocol::{status, Request, Response};
use mica_obs as obs;
use serde::Serialize;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Backoff site: seeds the deterministic jitter.
const BACKOFF_SITE: &str = "serve-client";

/// Why a query gave up.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failed on the last attempt (connect, write, read or
    /// parse; the string says which).
    Transport(String),
    /// Every attempt was rejected with backpressure; the last rejection
    /// is enclosed.
    Exhausted(Box<Response>),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport failed: {e}"),
            ClientError::Exhausted(resp) => write!(
                f,
                "server still {} after retries: {}",
                resp.status,
                resp.error.as_deref().unwrap_or("(no detail)")
            ),
        }
    }
}

impl std::error::Error for ClientError {}

fn attempt(addr: &str, line: &str) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("set timeout: {e}"))?;
    stream.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    let mut reader = BufReader::new(stream);
    let n = reader.read_line(&mut reply).map_err(|e| format!("receive: {e}"))?;
    if n == 0 {
        return Err("server closed the connection without replying".into());
    }
    serde_json::from_str::<Response>(reply.trim_end())
        .map_err(|e| format!("unparseable response: {e}"))
}

/// Submit `req` to the server at `addr`, retrying backpressure and
/// transport failures up to `retries` additional attempts.
///
/// The returned [`Response`] may still carry a non-`ok` status (`error`,
/// `panic`, `deadline`): those are definitive answers about the
/// submission and are **not** retried.
///
/// # Errors
///
/// [`ClientError::Transport`] when the final attempt failed in transit;
/// [`ClientError::Exhausted`] when the final attempt was still rejected
/// with backpressure.
pub fn query(addr: &str, req: &Request, retries: u32) -> Result<Response, ClientError> {
    let mut line = render_request(req);
    line.push('\n');
    let mut last_err: Option<ClientError> = None;
    for attempt_no in 1..=retries.saturating_add(1) {
        match attempt(addr, &line) {
            Ok(resp) if resp.status == status::OVERLOADED || resp.status == status::DRAINING => {
                let backoff = mica_fault::io::backoff_ms(BACKOFF_SITE, attempt_no)
                    .max(resp.retry_after_ms.unwrap_or(0));
                obs::debug!(
                    "request {} got {} (attempt {attempt_no}), backing off {backoff}ms",
                    req.id,
                    resp.status
                );
                last_err = Some(ClientError::Exhausted(Box::new(resp)));
                std::thread::sleep(Duration::from_millis(backoff));
            }
            Ok(resp) => return Ok(resp),
            Err(e) => {
                let backoff = mica_fault::io::backoff_ms(BACKOFF_SITE, attempt_no);
                obs::debug!(
                    "request {} transport error (attempt {attempt_no}): {e}; backing off {backoff}ms",
                    req.id
                );
                last_err = Some(ClientError::Transport(e));
                std::thread::sleep(Duration::from_millis(backoff));
            }
        }
    }
    Err(last_err.expect("at least one attempt ran"))
}

/// Render a request as its wire line (no trailing newline).
pub fn render_request(req: &Request) -> String {
    serde_json::to_string(&req.to_value()).expect("Request serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RequestKind;

    #[test]
    fn transport_errors_are_retried_then_reported() {
        // Nothing listens on this port (bound but not accepting is racy;
        // a refused connect on a closed port is reliable).
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let req = Request::new("t1", RequestKind::Table);
        let err = query(&addr, &req, 2).unwrap_err();
        assert!(matches!(err, ClientError::Transport(_)), "got {err}");
    }

    #[test]
    fn request_lines_are_single_line_json() {
        let mut req = Request::new("t2", RequestKind::Asm);
        req.asm = Some("li x7, 1\nhalt".into());
        let line = render_request(&req);
        assert!(!line.contains('\n'), "wire lines must be single-line: {line}");
        assert_eq!(crate::protocol::parse_request(&line).unwrap(), req);
    }
}
