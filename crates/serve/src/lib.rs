//! `sampsim-serve` — sampling-as-a-service.
//!
//! The paper's central economics are amortization: pay for the
//! whole-program profiling pass once, then answer many questions from the
//! stored simulation points. This crate turns the deterministic pipeline
//! into a daemon that serves that consumption model: a TCP server speaking
//! line-delimited JSON ([`protocol`]), a bounded worker pool built on
//! `sampsim_exec`, a two-tier content-addressed cache ([`cache`]) that
//! memoizes both the profiling stage and whole response documents, and
//! request coalescing ([`coalesce`]) so N concurrent identical requests
//! trigger exactly one pipeline execution.
//!
//! # Determinism contract
//!
//! A `run` reply is **byte-identical to `sampsim run` stdout** for the
//! same benchmark and configuration — whether computed cold, answered
//! from the memory or disk cache, coalesced onto another request's
//! flight, or produced under a different `--jobs` value. This holds by
//! construction: both the CLI and the server render documents through
//! [`service::run_document`], responses are cached as the exact reply
//! bytes, and the pipeline itself is bit-deterministic (PR 2).
//!
//! # Lifecycle
//!
//! ```text
//! accept (readiness poll loop, [`acceptor`]) → complete request line
//!        → bounded queue (Busy when full) → worker pool
//!        → validate (analyze lints) → response cache → coalesce → pipeline
//! ```
//!
//! Connection intake is readiness-driven: a single poll-loop thread owns
//! every connection until its request line is complete, so an idle or
//! slow-writing client never pins a worker thread ([`acceptor`]).
//!
//! Shutdown (`{"op":"shutdown"}`) is graceful: the acceptor stops taking
//! connections, drains the request lines of every already-accepted
//! connection, workers drain the queue, and [`Server::serve`] returns
//! the final [`Stats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acceptor;
pub mod cache;
pub mod client;
pub mod coalesce;
pub mod protocol;
pub mod service;

use cache::{Tier, TieredCache};
use coalesce::{Claim, Coalescer};
use protocol::Request;
use sampsim_exec::Jobs;
use sampsim_util::json;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Default listen address.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7411";
/// Default admission-queue depth.
pub const DEFAULT_QUEUE_DEPTH: usize = 32;
/// Default in-memory cache capacity in entries.
pub const DEFAULT_MEM_ENTRIES: usize = 256;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 binds an ephemeral port).
    pub addr: String,
    /// On-disk cache directory (`None` = memory tier only).
    pub cache_dir: Option<PathBuf>,
    /// Worker-pool size.
    pub workers: Jobs,
    /// Admission-queue depth; connections beyond it get a `busy` reply.
    pub queue_depth: usize,
    /// In-memory cache capacity in entries.
    pub mem_entries: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: DEFAULT_ADDR.to_string(),
            cache_dir: None,
            workers: Jobs::Auto,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            mem_entries: DEFAULT_MEM_ENTRIES,
        }
    }
}

/// A snapshot of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Requests handled by workers (every op, including failures).
    pub requests: u64,
    /// Pipeline executions actually started (cache misses that led).
    pub executions: u64,
    /// Run requests that waited on another request's flight.
    pub coalesced: u64,
    /// Run responses answered from the memory tier.
    pub mem_hits: u64,
    /// Run responses answered from the disk tier.
    pub disk_hits: u64,
    /// Run requests that missed the response cache.
    pub misses: u64,
    /// Connections refused with a `busy` reply at admission.
    pub busy_rejects: u64,
    /// Profiling-stage cache hits inside the pipeline.
    pub stage_hits: u64,
}

impl Stats {
    /// The counter names, in reply order (shared by the renderer and the
    /// parser).
    pub const FIELDS: [&'static str; 8] = [
        "requests",
        "executions",
        "coalesced",
        "mem_hits",
        "disk_hits",
        "misses",
        "busy_rejects",
        "stage_hits",
    ];

    fn field(&self, name: &str) -> u64 {
        match name {
            "requests" => self.requests,
            "executions" => self.executions,
            "coalesced" => self.coalesced,
            "mem_hits" => self.mem_hits,
            "disk_hits" => self.disk_hits,
            "misses" => self.misses,
            "busy_rejects" => self.busy_rejects,
            "stage_hits" => self.stage_hits,
            other => unreachable!("unknown stats field {other:?}"),
        }
    }

    fn field_mut(&mut self, name: &str) -> &mut u64 {
        match name {
            "requests" => &mut self.requests,
            "executions" => &mut self.executions,
            "coalesced" => &mut self.coalesced,
            "mem_hits" => &mut self.mem_hits,
            "disk_hits" => &mut self.disk_hits,
            "misses" => &mut self.misses,
            "busy_rejects" => &mut self.busy_rejects,
            "stage_hits" => &mut self.stage_hits,
            other => unreachable!("unknown stats field {other:?}"),
        }
    }

    /// Renders the `stats` reply line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = Self::FIELDS
            .iter()
            .map(|name| format!("\"{name}\":{}", self.field(name)))
            .collect();
        format!("{{\"ok\":\"stats\",{}}}", fields.join(","))
    }

    /// Parses a `stats` reply line back into counters — the inverse of
    /// [`Stats::to_json`], for clients that diff two snapshots. Unknown
    /// fields are ignored (forward compatibility); a missing field reads
    /// as zero.
    pub fn from_json(line: &str) -> Option<Stats> {
        let value = json::parse(line).ok()?;
        if value.get("ok")?.as_str()? != "stats" {
            return None;
        }
        let mut stats = Stats::default();
        for name in Self::FIELDS {
            if let Some(v) = value.get(name).and_then(|v| v.as_f64()) {
                if v.is_finite() && v >= 0.0 {
                    *stats.field_mut(name) = v as u64;
                }
            }
        }
        Some(stats)
    }
}

/// Monotonic counters shared by the acceptor and workers.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    executions: AtomicU64,
    coalesced: AtomicU64,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    busy_rejects: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// State shared across the acceptor and the worker pool. The queue holds
/// complete request lines (the acceptor already read them), so workers
/// never block on client I/O.
struct Shared {
    queue: Mutex<VecDeque<(TcpStream, String)>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Set (under the queue lock) when the acceptor thread has exited;
    /// workers may only stop once no more dispatches can arrive.
    acceptor_done: AtomicBool,
    counters: Counters,
    cache: TieredCache,
    coalescer: Coalescer,
    queue_depth: usize,
}

impl Shared {
    fn stats(&self) -> Stats {
        Stats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            executions: self.counters.executions.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            mem_hits: self.counters.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            busy_rejects: self.counters.busy_rejects.load(Ordering::Relaxed),
            stage_hits: self.cache.stage_hits(),
        }
    }

    fn count_tier(&self, tier: Tier) {
        match tier {
            Tier::Memory => Counters::bump(&self.counters.mem_hits),
            Tier::Disk => Counters::bump(&self.counters.disk_hits),
        }
    }
}

impl acceptor::AcceptControl for Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn dispatch(&self, stream: TcpStream, line: String) {
        let mut queue = self.queue.lock().unwrap();
        if queue.len() >= self.queue_depth {
            drop(queue);
            Counters::bump(&self.counters.busy_rejects);
            write_reply_line(stream, &protocol::busy_reply(self.queue_depth));
        } else {
            queue.push_back((stream, line));
            drop(queue);
            self.available.notify_one();
        }
    }
}

/// A bound, not-yet-serving server.
pub struct Server {
    config: ServeConfig,
    listener: TcpListener,
    addr: SocketAddr,
}

impl Server {
    /// Binds the listen socket (so the port is known before serving).
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the address cannot be bound.
    pub fn bind(config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            config,
            listener,
            addr,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until a `shutdown` request arrives, then drains the queue
    /// and returns the final counters.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the cache directory cannot be created.
    pub fn serve(self) -> std::io::Result<Stats> {
        let cache = TieredCache::new(self.config.mem_entries, self.config.cache_dir.as_deref())?;
        let shared = Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            acceptor_done: AtomicBool::new(false),
            counters: Counters::default(),
            cache,
            coalescer: Coalescer::new(),
            queue_depth: self.config.queue_depth.max(1),
        };
        let worker_ids: Vec<usize> = (0..self.config.workers.get()).collect();
        std::thread::scope(|s| {
            let acceptor = s.spawn(|| {
                let result = acceptor::accept_loop(&self.listener, &shared);
                // Flip the done flag under the queue lock so no worker
                // can check it between a failed pop and its wait.
                let _queue = shared.queue.lock().unwrap();
                shared.acceptor_done.store(true, Ordering::SeqCst);
                shared.available.notify_all();
                result
            });
            // The bounded worker pool: one long-lived task per worker,
            // scheduled by the sampsim_exec pool.
            sampsim_exec::parallel_map(self.config.workers, &worker_ids, |_, _| {
                worker_loop(&shared)
            });
            acceptor.join().expect("acceptor does not panic")?;
            Ok(shared.stats())
        })
    }

    /// Runs [`Server::serve`] on a background thread — the in-process
    /// variant the integration tests use.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let thread = std::thread::spawn(move || self.serve());
        ServerHandle { addr, thread }
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<Stats>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server shuts down and returns its final counters.
    ///
    /// # Errors
    ///
    /// Propagates the server's I/O error.
    ///
    /// # Panics
    ///
    /// Panics if the server thread panicked.
    pub fn wait(self) -> std::io::Result<Stats> {
        self.thread.join().expect("server thread panicked")
    }
}

/// Pops queued requests until the queue is empty *and* the acceptor has
/// exited — dispatched work is always served, and the acceptor itself
/// drains already-accepted connections before exiting, so queued work
/// admitted before a shutdown is never dropped.
fn next_request(shared: &Shared) -> Option<(TcpStream, String)> {
    let mut queue = shared.queue.lock().unwrap();
    loop {
        if let Some(item) = queue.pop_front() {
            return Some(item);
        }
        if shared.acceptor_done.load(Ordering::SeqCst) {
            return None;
        }
        queue = shared.available.wait(queue).unwrap();
    }
}

fn worker_loop(shared: &Shared) {
    while let Some((stream, line)) = next_request(shared) {
        if handle_request(stream, &line, shared) {
            initiate_shutdown(shared);
        }
    }
}

/// Flags shutdown; the acceptor's poll loop observes the flag, drains
/// its pending connections, and exits, which in turn releases the
/// workers once the queue is empty.
fn initiate_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
}

/// Serves one already-read request line (one reply line). Returns
/// whether a shutdown was requested.
fn handle_request(stream: TcpStream, line: &str, shared: &Shared) -> bool {
    Counters::bump(&shared.counters.requests);
    match protocol::parse_request(line) {
        Ok(Request::Run(request)) => {
            let reply = handle_run(&request, shared);
            write_reply_line(stream, &reply);
            false
        }
        Ok(Request::Ping) => {
            write_reply_line(stream, &protocol::pong_reply());
            false
        }
        Ok(Request::Stats) => {
            write_reply_line(stream, &shared.stats().to_json());
            false
        }
        Ok(Request::Shutdown) => {
            write_reply_line(stream, &protocol::shutdown_reply());
            true
        }
        Err(message) => {
            write_reply_line(stream, &protocol::error_reply("bad-request", &message));
            false
        }
    }
}

/// Computes (or fetches) the reply line for a run request. Never panics:
/// validation failures become typed error replies and pipeline panics are
/// caught into `internal` replies.
fn handle_run(request: &service::RunRequest, shared: &Shared) -> String {
    let prepared = match service::prepare(request) {
        Ok(p) => p,
        Err(e) => return e.reply(),
    };
    // Fast path: the response cache.
    if let Some(line) = cached_response(shared, prepared.key) {
        return line;
    }
    match shared.coalescer.claim(prepared.key) {
        Claim::Follower(flight) => {
            Counters::bump(&shared.counters.coalesced);
            flight.wait()
        }
        Claim::Leader(guard) => {
            // Double-check: a previous leader may have published between
            // our miss and our claim (it fills the cache before closing
            // its flight, so this read is guaranteed to see it).
            if let Some(line) = cached_response(shared, prepared.key) {
                guard.complete(line.clone());
                return line;
            }
            Counters::bump(&shared.counters.misses);
            Counters::bump(&shared.counters.executions);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                // Workers provide the concurrency; each pipeline runs
                // serially so `--jobs` workers = `--jobs` concurrent runs.
                service::execute_prepared(&prepared, sampsim_exec::SERIAL, &shared.cache)
            }));
            let line = match outcome {
                Ok(Ok(document)) => {
                    shared.cache.put(prepared.key, document.as_bytes());
                    document
                }
                Ok(Err(e)) => e.reply(),
                Err(_) => protocol::error_reply("internal", "pipeline panicked"),
            };
            guard.complete(line.clone());
            line
        }
    }
}

fn cached_response(shared: &Shared, key: u64) -> Option<String> {
    let (bytes, tier) = shared.cache.get(key)?;
    // The reply line needs owned UTF-8; validate in place on the view and
    // copy once here, at the protocol edge.
    let line = std::str::from_utf8(&bytes).ok()?.to_string();
    shared.count_tier(tier);
    Some(line)
}

/// Writes one reply line and flushes; failures are the client's loss.
fn write_reply_line(mut stream: TcpStream, line: &str) {
    // The client may already be gone; a failed reply write is its loss.
    let _ = stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_roundtrip_through_the_reply_line() {
        let stats = Stats {
            requests: 11,
            executions: 3,
            coalesced: 2,
            mem_hits: 5,
            disk_hits: 1,
            misses: 3,
            busy_rejects: 4,
            stage_hits: 9,
        };
        assert_eq!(Stats::from_json(&stats.to_json()), Some(stats));
        assert_eq!(
            Stats::from_json(&Stats::default().to_json()),
            Some(Stats::default())
        );
    }

    #[test]
    fn stats_parser_ignores_unknown_fields_and_rejects_other_replies() {
        let line = "{\"ok\":\"stats\",\"requests\":7,\"peer_warms\":3,\"shards\":2}";
        let stats = Stats::from_json(line).unwrap();
        assert_eq!(
            stats,
            Stats {
                requests: 7,
                ..Stats::default()
            }
        );
        assert_eq!(Stats::from_json(&protocol::pong_reply()), None);
        assert_eq!(Stats::from_json("not json"), None);
    }
}
