//! End-to-end benchmark for `sampsim run`, `sampsim compare` and
//! `sampsim serve`, with per-layer timing taken from outside the program.
//!
//! ```text
//! e2ebench --workload <run-exact|compare-coarse|serve-mixed> --seed N --seconds S --trace 0|1
//! e2ebench digests
//! ```
//!
//! Each workload runs in this process against the public API. With
//! `--trace 0` the run prints every end-to-end metric; with `--trace 1` a
//! separate traced run prints every per-layer metric and writes its spans
//! to `.bench_trace/<workload>-seed<N>.json`. The last stdout line is the
//! JSON result; the lines before it, each starting with `#`, say the same
//! for a reader. `digests` recomputes the committed output digests.

mod compare_coarse;
mod digests;
mod inputs;
mod layers;
mod report;
mod run_exact;
mod serve_mixed;
mod stats;
mod trace;

use sampsim_exec::Jobs;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::Duration;
use trace::Tracer;

/// Workers for the batch workloads' pipelines.
const JOBS: Jobs = Jobs::N(NonZeroUsize::new(2).expect("2 > 0"));

const USAGE: &str = "usage: e2ebench --workload <run-exact|compare-coarse|serve-mixed> \
                     --seed N --seconds S --trace 0|1\n       e2ebench digests";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("digests") {
        return match digests::generate(JOBS) {
            Ok(lines) => {
                lines.iter().for_each(|l| println!("{l}"));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("e2ebench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracer = args.trace.then(Tracer::new);
    let window = Duration::from_secs(args.seconds);
    let outcome = match args.workload.as_str() {
        "run-exact" => run_exact::run(args.seed, window, JOBS, tracer.as_ref()),
        "compare-coarse" => compare_coarse::run(args.seed, window, JOBS, tracer.as_ref()),
        "serve-mixed" => serve_mixed::run(args.seed, window, tracer.as_ref()),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = &tracer {
        let path = format!(".bench_trace/{}-seed{}.json", args.workload, args.seed);
        if let Err(e) = t.write(std::path::Path::new(&path)) {
            eprintln!("e2ebench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "# workload {} seed {} seconds {} trace {} host nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, NonZeroUsize::get)
    );
    outcome.print(args.trace);
    ExitCode::SUCCESS
}
