//! Readiness-driven connection intake for the daemon.
//!
//! The first daemon handed every accepted socket straight to a worker,
//! which then *blocked* reading the request line — an idle client pinned
//! a worker thread for up to the read timeout, so `workers` slow writers
//! could starve the whole pool. This module inverts that: a single
//! poll-loop thread owns every connection until its request line is
//! complete, and only then dispatches `(socket, line)` to the pool.
//! Workers never block on client I/O; idle clients cost one buffer each.
//!
//! std-only readiness: the listener and every pending socket run in
//! non-blocking mode, and the loop sweeps accept + per-connection reads,
//! sleeping one millisecond only when a full sweep made no progress.
//! (No `epoll` without a libc dependency; at daemon scale — tens of
//! sockets — a sweep is microseconds.)
//!
//! Line discipline at the edge: over-long lines, invalid UTF-8, and
//! idle timeouts are answered with a typed `bad-request` reply and the
//! connection is closed; a complete line is handed to
//! [`AcceptControl::dispatch`] with the socket restored to blocking
//! mode. During shutdown the loop stops accepting but keeps polling
//! already-accepted connections (clamped to [`DRAIN_TIMEOUT`]) so
//! admitted clients are drained, not dropped.

use crate::protocol;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// How long an accepted connection may sit without completing a request
/// line before it is answered with a timeout reply and closed.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Once shutdown is observed, pending connections get at most this long
/// to finish their line — a lingering idle client cannot stall exit.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// The sweep sleep when neither accept nor any read made progress.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// How the poll loop talks to its owner: the daemon, or a fake in the
/// tests below.
pub trait AcceptControl: Sync {
    /// True once no further connections should be accepted. The loop
    /// keeps polling (and dispatching) already-accepted connections,
    /// then returns when none remain.
    fn draining(&self) -> bool;

    /// Handle one complete request line. The stream is back in blocking
    /// mode; the implementor replies (possibly `busy`) and/or enqueues.
    fn dispatch(&self, stream: TcpStream, line: String);
}

/// A connection whose request line has not finished arriving.
struct Pending {
    stream: TcpStream,
    buf: Vec<u8>,
    deadline: Instant,
}

enum Poll {
    /// No complete line yet; keep the connection.
    NotReady,
    /// A full request line arrived.
    Line(String),
    /// Peer vanished (EOF or hard error) — close silently.
    Gone,
    /// Protocol violation — reply `bad-request` with this message, close.
    Reject(String),
}

/// Runs the accept/read poll loop until [`AcceptControl::draining`] is
/// observed *and* every already-accepted connection has been dispatched,
/// rejected, or timed out.
///
/// # Errors
///
/// Returns the I/O error if the listener cannot be switched to
/// non-blocking mode; per-connection errors are handled internally.
pub fn accept_loop<C: AcceptControl>(listener: &TcpListener, ctl: &C) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut pending: Vec<Pending> = Vec::new();
    let mut draining = false;
    loop {
        let mut progress = false;
        if !draining && ctl.draining() {
            draining = true;
            let cap = Instant::now() + DRAIN_TIMEOUT;
            for p in &mut pending {
                p.deadline = p.deadline.min(cap);
            }
        }
        if draining && pending.is_empty() {
            return Ok(());
        }
        if !draining {
            progress |= sweep_accept(listener, &mut pending);
        }
        progress |= sweep_reads(&mut pending, ctl);
        if !progress {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// Accepts every connection the backlog holds right now. Returns whether
/// anything was accepted.
fn sweep_accept(listener: &TcpListener, pending: &mut Vec<Pending>) -> bool {
    let mut progress = false;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                progress = true;
                // A socket we cannot make non-blocking cannot join the
                // poll set; drop it (the client sees a clean close).
                if stream.set_nonblocking(true).is_ok() {
                    pending.push(Pending {
                        stream,
                        buf: Vec::new(),
                        deadline: Instant::now() + IDLE_TIMEOUT,
                    });
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return progress,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return progress,
        }
    }
}

/// Polls every pending connection once. Returns whether any byte moved
/// or any connection was retired.
fn sweep_reads<C: AcceptControl>(pending: &mut Vec<Pending>, ctl: &C) -> bool {
    let mut progress = false;
    let mut i = 0;
    while i < pending.len() {
        match poll_one(&mut pending[i]) {
            Poll::NotReady => {
                if Instant::now() >= pending[i].deadline {
                    let p = pending.swap_remove(i);
                    reject(p.stream, "timed out waiting for a request line");
                    progress = true;
                } else {
                    i += 1;
                }
            }
            Poll::Line(line) => {
                let p = pending.swap_remove(i);
                let _ = p.stream.set_nonblocking(false);
                ctl.dispatch(p.stream, line);
                progress = true;
            }
            Poll::Gone => {
                pending.swap_remove(i);
                progress = true;
            }
            Poll::Reject(message) => {
                let p = pending.swap_remove(i);
                reject(p.stream, &message);
                progress = true;
            }
        }
    }
    progress
}

/// Drains whatever bytes the socket holds into the line buffer and
/// classifies the result.
fn poll_one(p: &mut Pending) -> Poll {
    let mut chunk = [0u8; 4096];
    loop {
        match p.stream.read(&mut chunk) {
            // EOF before a newline: the client gave up mid-line.
            Ok(0) => return Poll::Gone,
            Ok(n) => {
                p.buf.extend_from_slice(&chunk[..n]);
                if let Some(pos) = p.buf.iter().position(|&b| b == b'\n') {
                    // One request per connection; bytes after the
                    // newline are ignored by protocol.
                    let mut line = p.buf[..pos].to_vec();
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return match String::from_utf8(line) {
                        Ok(s) => Poll::Line(s),
                        Err(_) => Poll::Reject("request is not valid UTF-8".into()),
                    };
                }
                if p.buf.len() as u64 >= protocol::MAX_LINE_BYTES {
                    return Poll::Reject(format!(
                        "request line exceeds {} bytes",
                        protocol::MAX_LINE_BYTES
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Poll::NotReady,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Poll::Gone,
        }
    }
}

/// Best-effort typed refusal: one `bad-request` line, then close.
fn reject(stream: TcpStream, message: &str) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    crate::write_reply_line(stream, &protocol::error_reply("bad-request", message));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    /// Test control: collects dispatched lines, replies "ok" to each.
    struct Collect {
        lines: Mutex<Vec<String>>,
        stop: AtomicBool,
    }

    impl AcceptControl for Collect {
        fn draining(&self) -> bool {
            self.stop.load(Ordering::SeqCst)
        }

        fn dispatch(&self, mut stream: TcpStream, line: String) {
            let stop = line == "stop";
            self.lines.lock().unwrap().push(line);
            let _ = stream.write_all(b"ok\n");
            if stop {
                self.stop.store(true, Ordering::SeqCst);
            }
        }
    }

    fn run_collect() -> (String, std::sync::Arc<Collect>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let ctl = std::sync::Arc::new(Collect {
            lines: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        let ctl2 = ctl.clone();
        let handle = std::thread::spawn(move || accept_loop(&listener, &*ctl2).unwrap());
        (addr, ctl, handle)
    }

    fn roundtrip(addr: &str, payload: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(payload).unwrap();
        let mut reply = String::new();
        BufReader::new(s).read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }

    #[test]
    fn slow_writers_do_not_block_fast_ones() {
        let (addr, ctl, handle) = run_collect();
        // A connection that never writes...
        let _idle = TcpStream::connect(&addr).unwrap();
        // ...does not stop a later client from being served, even though
        // it was accepted first.
        assert_eq!(roundtrip(&addr, b"hello\n"), "ok");
        // A line split across writes still assembles.
        let mut split = TcpStream::connect(&addr).unwrap();
        split.write_all(b"wor").unwrap();
        split.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        split.write_all(b"ld\r\n").unwrap();
        let mut reply = String::new();
        BufReader::new(split).read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "ok");

        assert_eq!(roundtrip(&addr, b"stop\n"), "ok");
        handle.join().unwrap();
        assert_eq!(
            *ctl.lines.lock().unwrap(),
            vec!["hello".to_string(), "world".to_string(), "stop".to_string()]
        );
    }

    #[test]
    fn protocol_violations_get_typed_refusals() {
        let (addr, ctl, handle) = run_collect();
        let bad_utf8 = roundtrip(&addr, b"\xff\xfe bad bytes\n");
        assert!(bad_utf8.contains("bad-request"), "{bad_utf8}");
        assert!(bad_utf8.contains("UTF-8"), "{bad_utf8}");
        assert_eq!(roundtrip(&addr, b"stop\n"), "ok");
        handle.join().unwrap();
        // The violation never reached dispatch.
        assert_eq!(*ctl.lines.lock().unwrap(), vec!["stop".to_string()]);
    }

    #[test]
    fn drain_serves_connections_accepted_before_shutdown() {
        let (addr, ctl, handle) = run_collect();
        // Accepted but silent until after the stop request lands.
        let mut late = TcpStream::connect(&addr).unwrap();
        assert_eq!(roundtrip(&addr, b"stop\n"), "ok");
        late.write_all(b"straggler\n").unwrap();
        let mut reply = String::new();
        BufReader::new(late).read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "ok", "drain must serve, not drop");
        handle.join().unwrap();
        assert!(ctl.lines.lock().unwrap().contains(&"straggler".to_string()));
    }
}
