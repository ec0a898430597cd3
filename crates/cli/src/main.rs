//! `sampsim` — the command-line interface to the statistical-sampling
//! laboratory.
//!
//! ```text
//! sampsim list                          benchmarks in the suite
//! sampsim run      <bench>              full sampling study, JSON output
//! sampsim profile  <bench>              whole-run profile (mix, caches)
//! sampsim simpoints <bench> -o <dir>    find simulation points, save pinballs
//! sampsim replay   <dir>/<bench>.pb     replay saved pinballs with tools
//! sampsim report   <bench>              full paper-style report (all runs)
//! sampsim compare  <bench>              cross-strategy efficacy study, JSON
//! sampsim plan     <bench>              static cost/precision plan, JSON
//! sampsim trace    <bench> -o FILE      write an execution trace to disk
//! sampsim lint     [bench]              static checks (workloads + config)
//! sampsim audit    [bench]              static-vs-dynamic differential oracle
//! sampsim serve                         sampling-as-a-service daemon
//! sampsim request  <bench>              query a daemon (reply == run stdout)
//! ```
//!
//! Global flags: `--scale <f>` (workload scale, default `$SAMPSIM_SCALE`
//! or 1.0), `--slice <n>`, `--maxk <n>`, `--jobs <n|auto>` (worker
//! threads; results are bit-identical for every job count).

use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    let parsed = match args::parse(std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    let result = match parsed.command {
        args::Command::List => commands::list(),
        args::Command::Run { bench, out } => commands::run(&bench, out.as_deref(), &parsed.options),
        args::Command::Profile { bench } => commands::profile(&bench, &parsed.options),
        args::Command::SimPoints { bench, out } => {
            commands::simpoints(&bench, out.as_deref(), &parsed.options)
        }
        args::Command::Replay { path } => commands::replay(&path, &parsed.options),
        args::Command::Report { bench } => commands::report(&bench, &parsed.options),
        args::Command::Compare {
            bench,
            out,
            reps,
            validate,
        } => commands::compare(
            bench.as_deref(),
            out.as_deref(),
            reps,
            validate.as_deref(),
            &parsed.options,
        ),
        args::Command::Plan {
            bench,
            out,
            validate,
        } => commands::plan(
            bench.as_deref(),
            out.as_deref(),
            validate.as_deref(),
            &parsed.options,
        ),
        args::Command::Trace { bench, out, limit } => {
            commands::trace(&bench, &out, limit, &parsed.options)
        }
        args::Command::Lint {
            bench,
            format,
            deny_warnings,
            artifacts,
            explain,
        } => {
            // `--explain` answers from the rule registry alone — no
            // benchmarks are built, no lint pass runs.
            if let Some(id) = explain {
                return match commands::explain(&id) {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("error: {e}");
                        ExitCode::from(2)
                    }
                };
            }
            // Lint maps findings straight to the exit code: 0 clean,
            // 1 denied findings, 2 usage errors (handled above).
            return match commands::lint(
                bench.as_deref(),
                format,
                deny_warnings,
                artifacts.as_deref(),
                &parsed.options,
            ) {
                Ok(code) => ExitCode::from(code),
                Err(e) => {
                    eprintln!("error: {e}");
                    if e.is::<commands::UsageError>() {
                        return ExitCode::from(2);
                    }
                    ExitCode::FAILURE
                }
            };
        }
        args::Command::Audit {
            bench,
            format,
            deny_warnings,
            artifacts,
            update,
        } => {
            // Same exit-code convention as lint.
            return match commands::audit(
                bench.as_deref(),
                format,
                deny_warnings,
                artifacts.as_deref(),
                update,
                &parsed.options,
            ) {
                Ok(code) => ExitCode::from(code),
                Err(e) => {
                    eprintln!("error: {e}");
                    if e.is::<commands::UsageError>() {
                        return ExitCode::from(2);
                    }
                    ExitCode::FAILURE
                }
            };
        }
        args::Command::Perf {
            quick,
            out,
            artifacts,
            validate,
            baseline,
        } => commands::perf(
            quick,
            out.as_deref(),
            artifacts.as_deref(),
            validate.as_deref(),
            baseline.as_deref(),
            &parsed.options,
        ),
        args::Command::Serve {
            addr,
            cache_dir,
            queue_depth,
        } => commands::serve(&addr, cache_dir.as_deref(), queue_depth, &parsed.options),
        args::Command::Request {
            bench,
            addr,
            op,
            retries,
            out,
        } => commands::request(
            bench.as_deref(),
            &addr,
            op,
            retries,
            out.as_deref(),
            &parsed.options,
        ),
        args::Command::Help => {
            println!("{}", args::USAGE);
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // Usage-class failures (e.g. an unwritable -o path) exit 2,
            // matching the parse-error convention above.
            if e.is::<commands::UsageError>() {
                return ExitCode::from(2);
            }
            ExitCode::FAILURE
        }
    }
}
