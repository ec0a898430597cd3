//! `serve-mixed`: an in-process daemon with one worker and two client
//! connections racing down a seeded 1 cold : 3 warm schedule, closed
//! loop.

use crate::digests;
use crate::inputs::{self, Item};
use crate::layers::{self, Tally};
use crate::report::{self, Op, Outcome, SETUP_REPS};
use crate::stats;
use crate::trace::Tracer;
use sampsim_core::stage_cache::NoCache;
use sampsim_exec::Jobs;
use sampsim_serve::client::{self, RetryPolicy, DEFAULT_RETRY};
use sampsim_serve::protocol;
use sampsim_serve::service::{self, RunRequest};
use sampsim_serve::{ServeConfig, Server, ServerHandle, Stats};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client connections racing down the schedule.
const CLIENTS: usize = 2;
/// Warm hits timed one at a time, with nothing else in flight, in the
/// traced run.
const WARM_ALONE: usize = 40;
/// Memory-tier capacity in entries. Every cold request adds two (its
/// profile stage and its reply), so the tier is full after about 30 cold
/// requests, early in the window: peak memory then measures the full
/// tier, not how many cold requests a run happened to fit. The four warm
/// entries are hit every few requests and stay resident.
const MEM_ENTRIES: usize = 64;
/// Cold requests the traced run takes apart, evenly spaced over the
/// window; it bounds the traced run's length.
const TRACED_COLDS: usize = 24;

fn request_line(r: &RunRequest) -> String {
    protocol::run_request_line(&r.bench, r.scale, r.slice, r.maxk, None, None)
}

fn stats(addr: &str) -> Result<Stats, String> {
    let reply = client::request_line(addr, "{\"op\":\"stats\"}").map_err(|e| e.to_string())?;
    Stats::from_json(&reply).ok_or_else(|| format!("not a stats reply: {reply}"))
}

fn stop(daemon: ServerHandle) -> Result<(), String> {
    client::request_line(&daemon.addr().to_string(), "{\"op\":\"shutdown\"}")
        .map_err(|e| e.to_string())?;
    daemon.wait().map(drop).map_err(|e| e.to_string())
}

/// Starts a memory-tier daemon with one worker and fills its cache with
/// the warm pool, checking each reply against its committed digest.
fn start(warm_lines: &[(String, String)]) -> Result<ServerHandle, String> {
    let daemon = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: None,
        workers: Jobs::N(NonZeroUsize::MIN),
        mem_entries: MEM_ENTRIES,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot bind the daemon: {e}"))?
    .spawn();
    let addr = daemon.addr().to_string();
    for (line, label) in warm_lines {
        let reply = client::request_line(&addr, line).map_err(|e| e.to_string())?;
        if !digests::matches(label, &reply) {
            return Err(format!("{label}: warm-pool reply differs from its digest"));
        }
    }
    Ok(daemon)
}

/// One reply of the mixed window.
struct Served {
    index: usize,
    ms: f64,
    reply: Option<String>,
    attempts: u32,
}

/// Runs the workload. `tracer` selects the traced run.
///
/// # Errors
///
/// Returns a message when the daemon cannot be set up or queried.
pub fn run(seed: u64, window: Duration, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let inputs = inputs::serve_inputs(seed);
    let warm_lines: Vec<(String, String)> = inputs
        .warm_pool
        .iter()
        .map(|r| (request_line(r), digests::run_label(r)))
        .collect();

    // Set-up spawns the daemon and fills the warm pool; earlier daemons
    // are stopped outside the timed part.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = daemon.take() {
            stop(old)?;
        }
        let started = Instant::now();
        daemon = Some(start(&warm_lines)?);
        setups.push(started.elapsed());
    }
    let daemon = daemon.expect("set-up ran at least once");
    let addr = daemon.addr().to_string();

    let mut out = Outcome::default();
    let mut ops = Vec::new();

    // Traced run only: warm hits one at a time, nothing else in flight.
    let mut alone = Vec::with_capacity(WARM_ALONE);
    if tracer.is_some() {
        for i in 0..WARM_ALONE {
            let (line, label) = &warm_lines[i % warm_lines.len()];
            let t = Instant::now();
            let reply = client::request_line(&addr, line);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            alone.push(ms);
            ops.push(Op {
                ms,
                warm: true,
                ok: reply.is_ok_and(|r| digests::matches(label, &r)),
            });
        }
    }

    let before = stats(&addr)?;
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let deadline = started + window;
    let served: Vec<Served> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (next, schedule, warm_lines, addr) =
                    (&next, &inputs.schedule, &warm_lines, &addr);
                s.spawn(move || {
                    let policy = RetryPolicy {
                        seed: DEFAULT_RETRY.seed ^ seed ^ c as u64,
                        ..DEFAULT_RETRY
                    };
                    let mut served = Vec::new();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = schedule.get(index) else {
                            break;
                        };
                        let (line, name) = match item {
                            Item::Warm(p) => (warm_lines[*p].0.clone(), "client.warm"),
                            Item::Cold(r) => (request_line(r), "client.cold"),
                        };
                        let span = tracer.map(|t| t.open(name, None));
                        let t = Instant::now();
                        let reply = client::request_line_with_retry(addr, &line, &policy);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if let (Some(t), Some(id)) = (tracer, span) {
                            t.close(id);
                        }
                        let (reply, attempts) = match reply {
                            Ok(r) => (Some(r.reply), r.attempts),
                            Err(_) => (None, policy.attempts),
                        };
                        served.push(Served {
                            index,
                            ms,
                            reply,
                            attempts,
                        });
                    }
                    served
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    let elapsed = started.elapsed();
    let peak_mib = report::peak_rss_mib();
    let after = stats(&addr)?;
    stop(daemon)?;

    // Output checks: a warm reply against its committed digest, a cold
    // reply against `service::run_document` for the same request.
    let mut colds = Vec::new();
    for s in &served {
        let ok = match (&inputs.schedule[s.index], &s.reply) {
            (Item::Warm(p), Some(reply)) => digests::matches(&warm_lines[*p].1, reply),
            (Item::Cold(r), Some(reply)) => {
                colds.push((r, reply.as_str(), ops.len()));
                true
            }
            (_, None) => false,
        };
        ops.push(Op {
            ms: s.ms,
            warm: matches!(inputs.schedule[s.index], Item::Warm(_)),
            ok,
        });
    }
    let two = Jobs::N(NonZeroUsize::new(2).expect("2 > 0"));
    let verdicts = sampsim_exec::parallel_map(two, &colds, |_, (r, reply, _)| {
        service::run_document(r, sampsim_exec::SERIAL, &NoCache).is_ok_and(|d| d == *reply)
    });
    for ((r, _, at), ok) in colds.iter().zip(verdicts) {
        if !ok {
            ops[*at].ok = false;
            out.problems.push(format!(
                "cold scale {}: reply differs from run_document",
                r.scale
            ));
        }
    }
    // Traced run: a sample of cold requests again, untraced and through
    // the traced twin, serially as the daemon's one worker runs them.
    let mut tally = Tally::default();
    let mut untraced_ms = 0.0;
    if let Some(tr) = tracer {
        let step = (colds.len() / TRACED_COLDS).max(1);
        for (r, reply, at) in colds.iter().step_by(step) {
            let t = Instant::now();
            let plain = service::run_document(r, sampsim_exec::SERIAL, &NoCache);
            untraced_ms += t.elapsed().as_secs_f64() * 1e3;
            let op = tr.open("op", None);
            let traced = layers::traced_document(r, sampsim_exec::SERIAL, tr, op, &mut tally);
            tr.close(op);
            tally.ops += 1;
            if !(plain.is_ok_and(|d| d == *reply) && traced.is_ok_and(|d| d == *reply)) {
                ops[*at].ok = false;
                out.problems
                    .push(format!("cold scale {}: traced output differs", r.scale));
            }
        }
    }
    out.count(&ops);

    let executions = after.executions - before.executions;
    let stage_hits = after.stage_hits - before.stage_hits;
    let mem_hits = after.mem_hits - before.mem_hits;
    if executions != colds.len() as u64 || stage_hits != 0 {
        out.problems.push(format!(
            "{} cold requests caused {executions} executions and {stage_hits} stage hits",
            colds.len()
        ));
    }
    let served_ops = &ops[alone.len()..];
    match tracer {
        None => out.end_to_end(served_ops, elapsed, &setups, peak_mib),
        Some(tr) => {
            layers::per_layer(&mut out, tr, &tally, untraced_ms);
            for (name, after, before) in [
                ("serve.requests", after.requests, before.requests),
                ("serve.executions", after.executions, before.executions),
                ("serve.mem_hits", after.mem_hits, before.mem_hits),
                ("serve.misses", after.misses, before.misses),
                ("serve.coalesced", after.coalesced, before.coalesced),
                (
                    "serve.busy_rejects",
                    after.busy_rejects,
                    before.busy_rejects,
                ),
                ("serve.stage_hits", after.stage_hits, before.stage_hits),
            ] {
                out.set(name, (after - before) as f64);
            }
            out.set(
                "serve.hit_ratio",
                mem_hits as f64 / served.len().max(1) as f64,
            );
            let alone_p50 = stats::median(&alone).unwrap_or(0.0);
            let warm: Vec<f64> = served_ops.iter().filter(|o| o.warm).map(|o| o.ms).collect();
            let warm_p90 = stats::percentile(&warm, 90.0).unwrap_or(0.0);
            out.set("serve.warm_alone_ms_p50", alone_p50);
            out.set("serve.warm_wait_ms_p90", warm_p90 - alone_p50);
            let retries: u32 = served.iter().map(|s| s.attempts - 1).sum();
            out.set("serve.retries", retries as f64);
            out.note(format!(
                "warm p90 under load {warm_p90} ms (n={}) against a warm hit alone {alone_p50} ms (n={}); hit ratio {} of {} requests",
                warm.len(),
                alone.len(),
                mem_hits,
                served.len()
            ));
        }
    }
    Ok(out)
}
