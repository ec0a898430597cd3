//! A minimal blocking client for the serve protocol: one connection, one
//! request line, one reply line — plus a bounded-retry wrapper for the
//! two *transient* failure shapes a client meets in practice:
//! connection-level errors (a daemon restarting or not yet bound) and
//! typed `busy` replies (admission queue full).
//!
//! Retries use exponential backoff with deterministic jitter: the jitter
//! sequence is drawn from a caller-supplied seed, so tests can pin the
//! exact sleep schedule and two clients with different seeds never
//! thundering-herd in lockstep. A `busy` reply's `retry_after_ms` hint
//! takes precedence over the backoff when it is larger.

use crate::protocol;
use sampsim_util::rng::SplitMix64;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Sends one request line to `addr` and returns the reply line (without
/// the trailing newline). No retries — see [`request_line_with_retry`].
///
/// # Errors
///
/// Returns the underlying I/O error on connection failure, or
/// `UnexpectedEof` when the server closes without replying.
pub fn request_line(addr: &str, line: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    while reply.ends_with('\n') || reply.ends_with('\r') {
        reply.pop();
    }
    if reply.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection without replying",
        ));
    }
    Ok(reply)
}

/// Bounded-retry policy for [`request_line_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (>= 1); `1` disables retries entirely.
    pub attempts: u32,
    /// Backoff before the first retry, in milliseconds; doubles per
    /// retry.
    pub base_ms: u64,
    /// Cap on any single backoff (pre-jitter), in milliseconds.
    pub max_ms: u64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

/// The default client policy: 4 attempts, 25 ms → 50 ms → 100 ms
/// backoff (plus jitter), fixed seed.
pub const DEFAULT_RETRY: RetryPolicy = RetryPolicy {
    attempts: 4,
    base_ms: 25,
    max_ms: 2_000,
    seed: 0x5a3b_9e1d_c07f_4421,
};

impl RetryPolicy {
    /// A policy that never retries.
    pub const fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            base_ms: 0,
            max_ms: 0,
            seed: 0,
        }
    }

    /// The deterministic backoff schedule in milliseconds: one entry per
    /// *retry* (so `attempts - 1` entries), each `min(base · 2ⁱ, max)`
    /// plus a jitter draw in `[0, backoff/2]` from the seeded stream.
    /// Pure — tests pin the exact sleeps a client will perform.
    pub fn backoff_schedule_ms(&self) -> Vec<u64> {
        let mut rng = SplitMix64::new(self.seed);
        (0..self.attempts.saturating_sub(1))
            .map(|i| {
                let backoff = self
                    .base_ms
                    .saturating_mul(1u64 << i.min(32))
                    .min(self.max_ms);
                let jitter = if backoff == 0 {
                    0
                } else {
                    rng.next_u64() % (backoff / 2 + 1)
                };
                backoff + jitter
            })
            .collect()
    }
}

/// The outcome of a retried request, for callers that report attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetriedReply {
    /// The final reply line.
    pub reply: String,
    /// Attempts actually made (1 = first try succeeded).
    pub attempts: u32,
}

/// [`request_line`] with bounded retry on *transient* failures: any
/// connection-level I/O error, and `busy` replies (which carry a server
/// `retry_after_ms` hint; the sleep is the larger of the hint and the
/// policy's backoff). Non-busy error replies — `bad-request`,
/// `invalid-config`, `unknown-bench`, `internal` — are definitive
/// answers and are returned immediately, never retried.
///
/// # Errors
///
/// Returns the last I/O error once the attempt budget is exhausted. A
/// `busy` reply that survives every attempt is returned as `Ok` (it is a
/// well-formed reply; callers treat it like any other error reply).
pub fn request_line_with_retry(
    addr: &str,
    line: &str,
    policy: &RetryPolicy,
) -> std::io::Result<RetriedReply> {
    let schedule = policy.backoff_schedule_ms();
    let attempts = policy.attempts.max(1);
    let mut last_err: Option<std::io::Error> = None;
    for attempt in 0..attempts {
        match request_line(addr, line) {
            Ok(reply) => {
                let hint = protocol::busy_retry_after(&reply);
                let is_last = attempt + 1 == attempts;
                match hint {
                    Some(hint_ms) if !is_last => {
                        let backoff = schedule.get(attempt as usize).copied().unwrap_or(0);
                        std::thread::sleep(Duration::from_millis(backoff.max(hint_ms)));
                    }
                    _ => {
                        return Ok(RetriedReply {
                            reply,
                            attempts: attempt + 1,
                        })
                    }
                }
            }
            Err(e) => {
                let is_last = attempt + 1 == attempts;
                if is_last {
                    return Err(e);
                }
                last_err = Some(e);
                let backoff = schedule.get(attempt as usize).copied().unwrap_or(0);
                std::thread::sleep(Duration::from_millis(backoff));
            }
        }
    }
    // attempts >= 1, so the loop always returns; keep the compiler and
    // future refactors honest.
    Err(last_err.unwrap_or_else(|| std::io::Error::other("retry budget exhausted")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn quick_policy(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts,
            base_ms: 1,
            max_ms: 4,
            seed: 42,
        }
    }

    /// One-line reply server: answers each accepted connection with the
    /// next scripted line, then exits.
    fn scripted_server(replies: Vec<String>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for reply in replies {
                let (mut stream, _) = listener.accept().unwrap();
                // Read (and discard) the request line first.
                let mut buf = String::new();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                reader.read_line(&mut buf).unwrap();
                stream.write_all(reply.as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            attempts: 5,
            base_ms: 25,
            max_ms: 60,
            seed: 7,
        };
        let a = policy.backoff_schedule_ms();
        let b = policy.backoff_schedule_ms();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 4);
        // Entry i is min(25·2^i, 60) plus jitter in [0, backoff/2].
        for (i, &ms) in a.iter().enumerate() {
            let backoff = (25u64 << i).min(60);
            assert!(
                ms >= backoff && ms <= backoff + backoff / 2,
                "entry {i}: {ms}"
            );
        }
        // A different seed jitters differently (overwhelmingly likely).
        let other = RetryPolicy { seed: 8, ..policy };
        assert_ne!(a, other.backoff_schedule_ms());
        assert!(RetryPolicy::none().backoff_schedule_ms().is_empty());
    }

    #[test]
    fn busy_replies_are_retried_until_success() {
        let (addr, server) = scripted_server(vec![
            protocol::busy_reply(4),
            protocol::busy_reply(4),
            protocol::pong_reply(),
        ]);
        let got = request_line_with_retry(&addr, "{\"op\":\"ping\"}", &quick_policy(4)).unwrap();
        assert_eq!(got.reply, protocol::pong_reply());
        assert_eq!(got.attempts, 3);
        server.join().unwrap();
    }

    #[test]
    fn busy_after_exhausted_attempts_is_returned_not_an_error() {
        let (addr, server) =
            scripted_server(vec![protocol::busy_reply(4), protocol::busy_reply(4)]);
        let got = request_line_with_retry(&addr, "{\"op\":\"ping\"}", &quick_policy(2)).unwrap();
        assert!(protocol::is_error_reply(&got.reply));
        assert_eq!(got.attempts, 2);
        server.join().unwrap();
    }

    #[test]
    fn definitive_error_replies_are_never_retried() {
        let (addr, server) = scripted_server(vec![protocol::error_reply("bad-request", "nope")]);
        let got = request_line_with_retry(&addr, "{\"op\":\"ping\"}", &quick_policy(4)).unwrap();
        assert_eq!(got.attempts, 1, "bad-request is definitive");
        assert!(got.reply.contains("bad-request"));
        server.join().unwrap();
    }

    #[test]
    fn connect_failures_retry_then_surface_the_io_error() {
        // Bind then drop: the port is (momentarily) certainly dead.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let err =
            request_line_with_retry(&addr, "{\"op\":\"ping\"}", &quick_policy(3)).unwrap_err();
        // Three connect attempts, all refused; the last error surfaces.
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn policy_none_is_a_single_attempt() {
        let (addr, server) = scripted_server(vec![protocol::busy_reply(4)]);
        let got =
            request_line_with_retry(&addr, "{\"op\":\"ping\"}", &RetryPolicy::none()).unwrap();
        assert_eq!(got.attempts, 1);
        assert!(protocol::is_error_reply(&got.reply));
        server.join().unwrap();
    }
}
