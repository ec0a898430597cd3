//! `sampsim serve` / `sampsim request` — the daemon and its client.

use super::{create_report_file, CmdResult};
use crate::args::{Options, RequestOp};
use sampsim_serve::client::{self, RetryPolicy};
use sampsim_serve::{protocol, ServeConfig, Server, DEFAULT_MEM_ENTRIES};
use std::io::Write;
use std::path::PathBuf;

/// `sampsim serve [--addr A] [--cache-dir DIR] [--queue-depth N]`.
///
/// Prints the bound address on stdout (flushed) before serving, so
/// scripts can pass `--addr 127.0.0.1:0` and read back the ephemeral
/// port. `--jobs` sets the worker-pool size.
pub fn serve(
    addr: &str,
    cache_dir: Option<&str>,
    queue_depth: usize,
    options: &Options,
) -> CmdResult {
    let config = ServeConfig {
        addr: addr.to_string(),
        cache_dir: cache_dir.map(PathBuf::from),
        workers: options.jobs,
        queue_depth,
        mem_entries: DEFAULT_MEM_ENTRIES,
    };
    let server = Server::bind(config)?;
    println!("sampsim-serve listening on {}", server.local_addr());
    std::io::stdout().flush()?;
    let stats = server.serve()?;
    eprintln!(
        "served {} requests: {} executions, {} coalesced, {} memory hits, \
         {} disk hits, {} busy rejects",
        stats.requests,
        stats.executions,
        stats.coalesced,
        stats.mem_hits,
        stats.disk_hits,
        stats.busy_rejects
    );
    Ok(())
}

/// `sampsim request [bench] [--addr A] [--ping|--stats|--shutdown]
/// [--retries N] [-o FILE]`.
///
/// Sends one request line, prints the reply line to stdout (and `-o
/// FILE` when given). Error replies go to stderr and fail the command, so
/// a zero exit always means the stdout line is a successful reply — for
/// run requests, byte-identical to `sampsim run` stdout.
///
/// Transient failures — connection refused/reset, or a `busy` reply —
/// are retried with exponential backoff and deterministic jitter,
/// honoring the daemon's `retry_after_ms` hint; `--retries N` bounds the
/// attempts (`--retries 1` disables retry).
pub fn request(
    bench: Option<&str>,
    addr: &str,
    op: RequestOp,
    retries: Option<u32>,
    out: Option<&str>,
    options: &Options,
) -> CmdResult {
    let mut sink = out.map(create_report_file).transpose()?;
    let line = match op {
        RequestOp::Run => {
            let bench = bench.ok_or("request needs a benchmark")?;
            protocol::run_request_line(
                bench,
                options.scale.factor(),
                options.slice,
                options.maxk,
                options.strategy.as_deref(),
                options.kmeans_mode.as_deref(),
            )
        }
        RequestOp::Ping => "{\"op\":\"ping\"}".to_string(),
        RequestOp::Stats => "{\"op\":\"stats\"}".to_string(),
        RequestOp::Shutdown => "{\"op\":\"shutdown\"}".to_string(),
    };
    let policy = RetryPolicy {
        attempts: retries.unwrap_or(client::DEFAULT_RETRY.attempts),
        ..client::DEFAULT_RETRY
    };
    let got = client::request_line_with_retry(addr, &line, &policy)?;
    if got.attempts > 1 {
        eprintln!("(succeeded after {} attempts)", got.attempts);
    }
    if protocol::is_error_reply(&got.reply) {
        eprintln!("{}", got.reply);
        return Err(format!("the server at {addr} rejected the request").into());
    }
    println!("{}", got.reply);
    if let Some(file) = &mut sink {
        writeln!(file, "{}", got.reply)?;
    }
    Ok(())
}
