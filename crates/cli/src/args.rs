//! Hand-rolled argument parsing (no external dependencies).

use sampsim_exec::Jobs;
use sampsim_util::scale::Scale;

/// Usage text shown by `sampsim help` and on parse errors.
pub const USAGE: &str = "\
usage: sampsim <command> [flags]

commands:
  list                         list the synthetic SPEC CPU2017 suite
  run <bench> [-o FILE]        full sampling study, machine-readable JSON
  profile <bench>              run the whole benchmark under ldstmix+allcache
  simpoints <bench> [-o DIR]   find simulation points; save pinballs to DIR
  replay <FILE>                replay saved regional pinballs with tools
  report <bench>               whole vs regional vs reduced vs warmup report
  compare <bench> [-o FILE]    run every registered sampling strategy and
                               report CPI / miss-rate error vs the whole run
  plan <bench> [-o FILE]       statically predict a strategy's cost, speedup
                               and error bound without running anything
  trace <bench> -o FILE        write an execution trace (--limit N insts)
  lint [bench]                 static checks over workloads and the config
  audit [bench]                differentially check dynamic profiles against
                               static per-slice bounds (executor oracle)
  perf [-o FILE]               time the optimized kernels against their
                               naive references; write a BENCH_kernels.json
  serve                        run the sampling-as-a-service daemon
  request [bench] [-o FILE]    query a running daemon (reply == `run` stdout)
  help                         show this text

flags:
  --scale <f>    workload scale factor (default: $SAMPSIM_SCALE or 1.0)
  --slice <n>    slice size in instructions (default: 10000, scaled)
  --maxk <n>     maximum cluster count (default: 35)
  --jobs <n>     worker threads ('auto' or >= 1; default: auto). Results
                 are bit-identical for every job count.
  --strategy <name>
                 region-selection strategy for run/request/plan (one of:
                 simpoint, stratified2p, rss; default: simpoint), with
                 optional parameters, e.g. rss:set_size=8,replicates=4
  --kmeans-mode <lloyd|minibatch>
                 SimPoint clustering kernel for run/request (default: lloyd,
                 the exact bit-reproducible kernel; minibatch streams with a
                 documented inertia tolerance)

compare flags:
  --reps <n>              replicate selections per strategy for the error
                          bars (>= 1, default: 5)
  --validate <FILE>       only validate an existing report, run nothing

plan flags:
  --validate <FILE>       only validate an existing plan report, run nothing

lint flags:
  --format <human|json>   output format (default: human)
  --deny-warnings         exit non-zero on warnings too
  --artifacts <DIR>       also audit saved .pb pinball files in DIR
  --explain <SA-id>       print one rule's description (e.g. SA140) and exit

audit flags:
  --format / --deny-warnings   as for lint
  --artifacts <DIR>       check shipped .art audit summaries in DIR instead
                          of running the dynamic differential pass
  --update                (re)write the .art summaries in --artifacts DIR

perf flags:
  --quick                 smoke-test sizes (CI); full sizes otherwise
  --artifacts <DIR>       benchmark artifact directory (default: artifacts)
  --validate <FILE>       only validate an existing report, run nothing
  --baseline <FILE>       gate the fresh report against this baseline:
                          fail if any size-normalized rate (ns/access,
                          ns/BBV, ns/slice) regresses by more than 10%.
                          Rates are comparable across --quick and full
                          runs. --jobs sets the clustering worker count
                          (timings only; results stay bit-identical)

serve flags:
  --addr <host:port>      listen address (default: 127.0.0.1:7411; port 0
                          binds an ephemeral port, printed on stdout)
  --cache-dir <DIR>       on-disk response/stage cache (default: memory only)
  --queue-depth <n>       admission queue depth before Busy replies (>= 1,
                          default: 32); --jobs sets the worker-pool size

request flags:
  --addr <host:port>      daemon address (default: 127.0.0.1:7411)
  --ping | --stats | --shutdown
                          control op instead of a run request
  --retries <n>           max attempts on transient connect/busy failures
                          (>= 1; 1 disables retry; default: 4). Backoff is
                          exponential with deterministic jitter and honors
                          the daemon's retry_after_ms hint

<bench> is a SPEC name (e.g. 505.mcf_r) or a unique substring (mcf_r).";

/// Global options shared by all commands.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload scale.
    pub scale: Scale,
    /// Slice size override (`None` = default 10 000, scaled).
    pub slice: Option<u64>,
    /// MaxK override.
    pub maxk: Option<usize>,
    /// Worker threads for parallel replay/profiling.
    pub jobs: Jobs,
    /// Sampling-strategy name (`None` = the pipeline default, SimPoint).
    /// Validated against the strategy registry by the command, not here.
    pub strategy: Option<String>,
    /// K-means kernel for SimPoint clustering (`None` = exact Lloyd;
    /// `"minibatch"` = streaming mini-batch). Validated by the service
    /// layer, not here.
    pub kmeans_mode: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            scale: Scale::from_env(),
            slice: None,
            maxk: None,
            jobs: Jobs::Auto,
            strategy: None,
            kmeans_mode: None,
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// The subcommand.
    pub command: Command,
    /// Global options.
    pub options: Options,
}

/// Subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `sampsim list`
    List,
    /// `sampsim run <bench> [-o FILE]` — the full sampling study with
    /// deterministic JSON output.
    Run {
        /// Benchmark name or substring.
        bench: String,
        /// Also write the report to this path (stdout always gets it).
        out: Option<String>,
    },
    /// `sampsim profile <bench>`
    Profile {
        /// Benchmark name or substring.
        bench: String,
    },
    /// `sampsim simpoints <bench> [-o DIR]`
    SimPoints {
        /// Benchmark name or substring.
        bench: String,
        /// Output directory for pinball files.
        out: Option<String>,
    },
    /// `sampsim replay <FILE>`
    Replay {
        /// Path to a regional-pinball file.
        path: String,
    },
    /// `sampsim report <bench>`
    Report {
        /// Benchmark name or substring.
        bench: String,
    },
    /// `sampsim compare <bench> [--reps N] [-o FILE]` — run every
    /// registered sampling strategy and report its CPI and cache-miss-rate
    /// error against the whole-program run, with confidence intervals.
    Compare {
        /// Benchmark name or substring (`None` only with `--validate`).
        bench: Option<String>,
        /// Also write the JSON report to this path (stdout always gets it).
        out: Option<String>,
        /// Replicates per strategy (`None` = the driver default).
        reps: Option<usize>,
        /// Validate this existing report instead of running the study.
        validate: Option<String>,
    },
    /// `sampsim plan <bench> [-o FILE]` — statically predict a strategy's
    /// simulation cost, speedup bound and conservative CI half-width
    /// bounds without executing anything.
    Plan {
        /// Benchmark name or substring (`None` only with `--validate`).
        bench: Option<String>,
        /// Also write the JSON plan to this path (stdout always gets it).
        out: Option<String>,
        /// Validate this existing plan report instead of planning.
        validate: Option<String>,
    },
    /// `sampsim trace <bench> -o FILE`
    Trace {
        /// Benchmark name or substring.
        bench: String,
        /// Output trace file.
        out: String,
        /// Instruction cap (`None` = whole run).
        limit: Option<u64>,
    },
    /// `sampsim lint [bench]`
    Lint {
        /// Benchmark name or substring (`None` = whole suite).
        bench: Option<String>,
        /// Output format.
        format: LintFormat,
        /// Treat warnings as errors when computing the exit code.
        deny_warnings: bool,
        /// Directory of saved `.pb` pinball files to audit.
        artifacts: Option<String>,
        /// Print this rule's one-paragraph description and exit instead
        /// of linting (e.g. `SA140`).
        explain: Option<String>,
    },
    /// `sampsim audit [bench]` — the static-vs-dynamic oracle.
    Audit {
        /// Benchmark name or substring (`None` = whole suite).
        bench: Option<String>,
        /// Output format.
        format: LintFormat,
        /// Treat warnings as errors when computing the exit code.
        deny_warnings: bool,
        /// Directory of `.art` audit summaries (and `.pb` pinballs) to
        /// check instead of running the dynamic pass.
        artifacts: Option<String>,
        /// Rewrite the `.art` summaries in `--artifacts`.
        update: bool,
    },
    /// `sampsim perf [--quick] [-o FILE] [--baseline FILE]`
    Perf {
        /// Smoke-test sizes instead of measurement sizes.
        quick: bool,
        /// Report path (`None` = stdout only).
        out: Option<String>,
        /// Benchmark artifact directory override.
        artifacts: Option<String>,
        /// Validate this existing report instead of running kernels.
        validate: Option<String>,
        /// Gate the fresh report against this baseline report: fail on
        /// any size-normalized rate regressing by more than 10%.
        baseline: Option<String>,
    },
    /// `sampsim serve [--addr A] [--cache-dir DIR] [--queue-depth N]`
    Serve {
        /// Listen address.
        addr: String,
        /// On-disk cache directory (`None` = memory tier only).
        cache_dir: Option<String>,
        /// Admission-queue depth.
        queue_depth: usize,
    },
    /// `sampsim request [bench] [--addr A] [--ping|--stats|--shutdown]`
    Request {
        /// Benchmark name or substring (required for run requests).
        bench: Option<String>,
        /// Daemon address.
        addr: String,
        /// Which operation to send.
        op: RequestOp,
        /// Attempt bound for transient-failure retry (`None` = default).
        retries: Option<u32>,
        /// Also write the reply to this path (stdout always gets it).
        out: Option<String>,
    },
    /// `sampsim help`
    Help,
}

/// The operation `sampsim request` sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RequestOp {
    /// A full run request (the default).
    #[default]
    Run,
    /// Liveness check.
    Ping,
    /// Counter snapshot.
    Stats,
    /// Graceful shutdown.
    Shutdown,
}

/// Output format of `sampsim lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintFormat {
    /// `rustc`-style human-readable diagnostics.
    #[default]
    Human,
    /// One JSON object per diagnostic (JSON lines).
    Json,
}

/// Parses an argument iterator.
///
/// # Errors
///
/// Returns a human-readable message on unknown commands/flags or missing
/// operands.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Parsed, String> {
    let mut options = Options::default();
    let mut positionals: Vec<String> = Vec::new();
    let mut out: Option<String> = None;
    let mut limit: Option<u64> = None;
    let mut format = LintFormat::default();
    let mut deny_warnings = false;
    let mut artifacts: Option<String> = None;
    let mut quick = false;
    let mut update = false;
    let mut reps: Option<usize> = None;
    let mut validate: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut explain: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut queue_depth: Option<usize> = None;
    let mut request_op: Option<RequestOp> = None;
    let mut retries: Option<u32> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let v = iter.next().ok_or("--scale needs a value")?;
                let f: f64 = v.parse().map_err(|_| format!("bad --scale value: {v}"))?;
                if !(f.is_finite() && f > 0.0) {
                    return Err(format!("bad --scale value: {v}"));
                }
                options.scale = Scale::new(f);
            }
            "--slice" => {
                let v = iter.next().ok_or("--slice needs a value")?;
                options.slice = Some(v.parse().map_err(|_| format!("bad --slice value: {v}"))?);
            }
            "--maxk" => {
                let v = iter.next().ok_or("--maxk needs a value")?;
                options.maxk = Some(v.parse().map_err(|_| format!("bad --maxk value: {v}"))?);
            }
            "--jobs" => {
                let v = iter.next().ok_or("--jobs needs a value")?;
                options.jobs = v.parse()?;
            }
            "--strategy" => {
                options.strategy = Some(iter.next().ok_or("--strategy needs a name")?);
            }
            "--kmeans-mode" => {
                options.kmeans_mode = Some(iter.next().ok_or("--kmeans-mode needs a name")?);
            }
            "--reps" => {
                let v = iter.next().ok_or("--reps needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --reps value: {v}"))?;
                if n == 0 {
                    return Err("--reps must be >= 1".into());
                }
                reps = Some(n);
            }
            "-o" | "--out" => {
                out = Some(iter.next().ok_or("-o needs a path")?);
            }
            "--limit" => {
                let v = iter.next().ok_or("--limit needs a value")?;
                limit = Some(v.parse().map_err(|_| format!("bad --limit value: {v}"))?);
            }
            "--format" => {
                let v = iter.next().ok_or("--format needs a value")?;
                format = match v.as_str() {
                    "human" => LintFormat::Human,
                    "json" => LintFormat::Json,
                    other => return Err(format!("bad --format value: {other}")),
                };
            }
            "--deny-warnings" => deny_warnings = true,
            "--quick" => quick = true,
            "--update" => update = true,
            "--addr" => {
                addr = Some(iter.next().ok_or("--addr needs a host:port value")?);
            }
            "--cache-dir" => {
                cache_dir = Some(iter.next().ok_or("--cache-dir needs a path")?);
            }
            "--queue-depth" => {
                let v = iter.next().ok_or("--queue-depth needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("bad --queue-depth value: {v}"))?;
                if n == 0 {
                    return Err("--queue-depth must be >= 1".into());
                }
                queue_depth = Some(n);
            }
            "--ping" | "--stats" | "--shutdown" => {
                let op = match arg.as_str() {
                    "--ping" => RequestOp::Ping,
                    "--stats" => RequestOp::Stats,
                    _ => RequestOp::Shutdown,
                };
                if request_op.is_some_and(|prev| prev != op) {
                    return Err("--ping, --stats and --shutdown are mutually exclusive".into());
                }
                request_op = Some(op);
            }
            "--retries" => {
                let v = iter.next().ok_or("--retries needs a value")?;
                let n: u32 = v.parse().map_err(|_| format!("bad --retries value: {v}"))?;
                if n == 0 {
                    return Err("--retries must be >= 1".into());
                }
                retries = Some(n);
            }
            "--validate" => {
                validate = Some(iter.next().ok_or("--validate needs a path")?);
            }
            "--baseline" => {
                baseline = Some(iter.next().ok_or("--baseline needs a path")?);
            }
            "--explain" => {
                explain = Some(
                    iter.next()
                        .ok_or("--explain needs a rule id (e.g. SA140)")?,
                );
            }
            "--artifacts" => {
                artifacts = Some(iter.next().ok_or("--artifacts needs a path")?);
            }
            "--help" | "-h" => positionals.insert(0, "help".into()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag: {flag}")),
            _ => positionals.push(arg),
        }
    }
    let mut positionals = positionals.into_iter();
    // `compare` and `plan` take a benchmark or `--validate FILE`, not both.
    let bench_or_validate = |cmd: &str, bench: Option<String>| match (&bench, &validate) {
        (None, None) => Err(format!("{cmd} needs a benchmark (or --validate <FILE>)")),
        (Some(_), Some(_)) => Err(format!("{cmd} --validate takes no benchmark")),
        _ => Ok(bench),
    };
    let command = match positionals.next().as_deref() {
        None | Some("help") => Command::Help,
        Some("list") => Command::List,
        Some("run") => Command::Run {
            bench: positionals.next().ok_or("run needs a benchmark")?,
            out,
        },
        Some("profile") => Command::Profile {
            bench: positionals.next().ok_or("profile needs a benchmark")?,
        },
        Some("simpoints") => Command::SimPoints {
            bench: positionals.next().ok_or("simpoints needs a benchmark")?,
            out,
        },
        Some("replay") => Command::Replay {
            path: positionals.next().ok_or("replay needs a pinball file")?,
        },
        Some("report") => Command::Report {
            bench: positionals.next().ok_or("report needs a benchmark")?,
        },
        Some("compare") => Command::Compare {
            bench: bench_or_validate("compare", positionals.next())?,
            out,
            reps,
            validate,
        },
        Some("plan") => Command::Plan {
            bench: bench_or_validate("plan", positionals.next())?,
            out,
            validate,
        },
        Some("trace") => Command::Trace {
            bench: positionals.next().ok_or("trace needs a benchmark")?,
            out: out.take().ok_or("trace needs -o FILE")?,
            limit,
        },
        Some("lint") => Command::Lint {
            bench: positionals.next(),
            format,
            deny_warnings,
            artifacts,
            explain,
        },
        Some("audit") => {
            if update && artifacts.is_none() {
                return Err("audit --update needs --artifacts <DIR>".into());
            }
            Command::Audit {
                bench: positionals.next(),
                format,
                deny_warnings,
                artifacts,
                update,
            }
        }
        Some("perf") => Command::Perf {
            quick,
            out,
            artifacts,
            validate,
            baseline,
        },
        Some("serve") => Command::Serve {
            addr: addr.unwrap_or_else(|| sampsim_serve::DEFAULT_ADDR.to_string()),
            cache_dir,
            queue_depth: queue_depth.unwrap_or(sampsim_serve::DEFAULT_QUEUE_DEPTH),
        },
        Some("request") => {
            let bench = positionals.next();
            let op = request_op.unwrap_or_default();
            if op == RequestOp::Run && bench.is_none() {
                return Err(
                    "request needs a benchmark (or one of --ping/--stats/--shutdown)".into(),
                );
            }
            if op != RequestOp::Run && bench.is_some() {
                return Err(
                    "control requests (--ping/--stats/--shutdown) take no benchmark".into(),
                );
            }
            Command::Request {
                bench,
                addr: addr.unwrap_or_else(|| sampsim_serve::DEFAULT_ADDR.to_string()),
                op,
                retries,
                out,
            }
        }
        Some(other) => return Err(format!("unknown command: {other}")),
    };
    if let Some(extra) = positionals.next() {
        return Err(format!("unexpected argument: {extra}"));
    }
    Ok(Parsed { command, options })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Parsed, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_commands() {
        assert_eq!(parse_str("list").unwrap().command, Command::List);
        assert_eq!(
            parse_str("profile mcf_r").unwrap().command,
            Command::Profile {
                bench: "mcf_r".into()
            }
        );
        assert_eq!(
            parse_str("simpoints mcf_r -o out").unwrap().command,
            Command::SimPoints {
                bench: "mcf_r".into(),
                out: Some("out".into())
            }
        );
        assert_eq!(
            parse_str("replay out/x.pb").unwrap().command,
            Command::Replay {
                path: "out/x.pb".into()
            }
        );
        assert_eq!(parse_str("").unwrap().command, Command::Help);
        assert_eq!(parse_str("-h").unwrap().command, Command::Help);
    }

    #[test]
    fn parses_flags() {
        let p = parse_str("report gcc_r --scale 0.5 --slice 2000 --maxk 10 --jobs 4").unwrap();
        assert_eq!(p.options.scale.factor(), 0.5);
        assert_eq!(p.options.slice, Some(2000));
        assert_eq!(p.options.maxk, Some(10));
        assert_eq!(p.options.jobs, Jobs::new(4).unwrap());
    }

    #[test]
    fn parses_run_and_jobs() {
        let p = parse_str("run mcf_r --jobs 2").unwrap();
        assert_eq!(
            p.command,
            Command::Run {
                bench: "mcf_r".into(),
                out: None,
            }
        );
        assert_eq!(
            parse_str("run mcf_r -o report.json").unwrap().command,
            Command::Run {
                bench: "mcf_r".into(),
                out: Some("report.json".into()),
            }
        );
        assert_eq!(p.options.jobs, Jobs::new(2).unwrap());
        assert_eq!(parse_str("run mcf_r").unwrap().options.jobs, Jobs::Auto);
        assert_eq!(
            parse_str("run mcf_r --jobs auto").unwrap().options.jobs,
            Jobs::Auto
        );
        assert!(parse_str("run").is_err(), "missing benchmark");
        assert!(parse_str("run mcf_r --jobs 0").is_err(), "zero jobs");
        assert!(parse_str("run mcf_r --jobs nope").is_err());
        assert!(parse_str("run mcf_r --jobs").is_err(), "missing value");
    }

    #[test]
    fn parses_trace() {
        let p = parse_str("trace mcf_r -o t.trace --limit 5000").unwrap();
        assert_eq!(
            p.command,
            Command::Trace {
                bench: "mcf_r".into(),
                out: "t.trace".into(),
                limit: Some(5000),
            }
        );
        assert!(parse_str("trace mcf_r").is_err(), "missing -o");
    }

    #[test]
    fn parses_compare_and_strategy() {
        assert_eq!(
            parse_str("compare mcf_r").unwrap().command,
            Command::Compare {
                bench: Some("mcf_r".into()),
                out: None,
                reps: None,
                validate: None,
            }
        );
        assert_eq!(
            parse_str("compare mcf_r --reps 3 -o cmp.json")
                .unwrap()
                .command,
            Command::Compare {
                bench: Some("mcf_r".into()),
                out: Some("cmp.json".into()),
                reps: Some(3),
                validate: None,
            }
        );
        assert_eq!(
            parse_str("compare --validate cmp.json").unwrap().command,
            Command::Compare {
                bench: None,
                out: None,
                reps: None,
                validate: Some("cmp.json".into()),
            }
        );
        assert!(parse_str("compare").is_err(), "needs bench or --validate");
        assert!(parse_str("compare mcf_r --validate cmp.json").is_err());
        assert!(parse_str("compare mcf_r --reps 0").is_err());
        assert!(parse_str("compare mcf_r --reps nope").is_err());

        let p = parse_str("run mcf_r --strategy rss").unwrap();
        assert_eq!(p.options.strategy.as_deref(), Some("rss"));
        assert_eq!(parse_str("run mcf_r").unwrap().options.strategy, None);
        assert!(parse_str("run mcf_r --strategy").is_err());

        let p = parse_str("run mcf_r --kmeans-mode minibatch").unwrap();
        assert_eq!(p.options.kmeans_mode.as_deref(), Some("minibatch"));
        assert_eq!(parse_str("run mcf_r").unwrap().options.kmeans_mode, None);
        assert!(parse_str("run mcf_r --kmeans-mode").is_err());
    }

    #[test]
    fn parses_lint() {
        assert_eq!(
            parse_str("lint").unwrap().command,
            Command::Lint {
                bench: None,
                format: LintFormat::Human,
                deny_warnings: false,
                artifacts: None,
                explain: None,
            }
        );
        assert_eq!(
            parse_str("lint mcf_r --format json --deny-warnings --artifacts out")
                .unwrap()
                .command,
            Command::Lint {
                bench: Some("mcf_r".into()),
                format: LintFormat::Json,
                deny_warnings: true,
                artifacts: Some("out".into()),
                explain: None,
            }
        );
        assert_eq!(
            parse_str("lint --explain SA140").unwrap().command,
            Command::Lint {
                bench: None,
                format: LintFormat::Human,
                deny_warnings: false,
                artifacts: None,
                explain: Some("SA140".into()),
            }
        );
        assert!(parse_str("lint --format yaml").is_err());
        assert!(parse_str("lint --artifacts").is_err());
        assert!(parse_str("lint --explain").is_err());
    }

    #[test]
    fn parses_plan() {
        assert_eq!(
            parse_str("plan mcf_r").unwrap().command,
            Command::Plan {
                bench: Some("mcf_r".into()),
                out: None,
                validate: None,
            }
        );
        assert_eq!(
            parse_str("plan mcf_r --strategy rss -o plan.json")
                .unwrap()
                .command,
            Command::Plan {
                bench: Some("mcf_r".into()),
                out: Some("plan.json".into()),
                validate: None,
            }
        );
        assert_eq!(
            parse_str("plan --validate plan.json").unwrap().command,
            Command::Plan {
                bench: None,
                out: None,
                validate: Some("plan.json".into()),
            }
        );
        assert!(parse_str("plan").is_err(), "needs bench or --validate");
        assert!(parse_str("plan mcf_r --validate plan.json").is_err());
    }

    #[test]
    fn parses_audit() {
        assert_eq!(
            parse_str("audit").unwrap().command,
            Command::Audit {
                bench: None,
                format: LintFormat::Human,
                deny_warnings: false,
                artifacts: None,
                update: false,
            }
        );
        assert_eq!(
            parse_str("audit mcf_r --format json --deny-warnings --artifacts arts --update")
                .unwrap()
                .command,
            Command::Audit {
                bench: Some("mcf_r".into()),
                format: LintFormat::Json,
                deny_warnings: true,
                artifacts: Some("arts".into()),
                update: true,
            }
        );
        // --update without a directory to write into is a usage error.
        assert!(parse_str("audit --update").is_err());
    }

    #[test]
    fn parses_perf() {
        assert_eq!(
            parse_str("perf").unwrap().command,
            Command::Perf {
                quick: false,
                out: None,
                artifacts: None,
                validate: None,
                baseline: None,
            }
        );
        assert_eq!(
            parse_str("perf --quick -o BENCH_kernels.json --artifacts arts --baseline old.json")
                .unwrap()
                .command,
            Command::Perf {
                quick: true,
                out: Some("BENCH_kernels.json".into()),
                artifacts: Some("arts".into()),
                validate: None,
                baseline: Some("old.json".into()),
            }
        );
        assert_eq!(
            parse_str("perf --validate BENCH_kernels.json")
                .unwrap()
                .command,
            Command::Perf {
                quick: false,
                out: None,
                artifacts: None,
                validate: Some("BENCH_kernels.json".into()),
                baseline: None,
            }
        );
        assert!(parse_str("perf --validate").is_err());
        assert!(parse_str("perf --baseline").is_err());
        assert!(parse_str("perf extra").is_err());
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            parse_str("serve").unwrap().command,
            Command::Serve {
                addr: sampsim_serve::DEFAULT_ADDR.into(),
                cache_dir: None,
                queue_depth: sampsim_serve::DEFAULT_QUEUE_DEPTH,
            }
        );
        assert_eq!(
            parse_str("serve --addr 127.0.0.1:0 --cache-dir /tmp/c --queue-depth 4 --jobs 2")
                .unwrap()
                .command,
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                cache_dir: Some("/tmp/c".into()),
                queue_depth: 4,
            }
        );
        assert!(parse_str("serve --queue-depth 0").is_err());
        assert!(parse_str("serve --queue-depth nope").is_err());
        assert!(parse_str("serve --addr").is_err());
    }

    #[test]
    fn parses_request() {
        assert_eq!(
            parse_str("request mcf_r").unwrap().command,
            Command::Request {
                bench: Some("mcf_r".into()),
                addr: sampsim_serve::DEFAULT_ADDR.into(),
                op: RequestOp::Run,
                retries: None,
                out: None,
            }
        );
        assert_eq!(
            parse_str("request --addr 127.0.0.1:9 --shutdown")
                .unwrap()
                .command,
            Command::Request {
                bench: None,
                addr: "127.0.0.1:9".into(),
                op: RequestOp::Shutdown,
                retries: None,
                out: None,
            }
        );
        assert_eq!(
            parse_str("request --ping").unwrap().command,
            Command::Request {
                bench: None,
                addr: sampsim_serve::DEFAULT_ADDR.into(),
                op: RequestOp::Ping,
                retries: None,
                out: None,
            }
        );
        assert!(parse_str("request").is_err(), "run op needs a benchmark");
        assert!(parse_str("request mcf_r --stats").is_err());
        assert!(parse_str("request --ping --shutdown").is_err());
        assert!(parse_str("request mcf_r --retries 0").is_err());
        assert!(parse_str("request mcf_r --retries nope").is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_str("frobnicate").is_err());
        assert!(parse_str("profile").is_err());
        assert!(parse_str("list --wat").is_err());
        assert!(parse_str("list extra").is_err());
        assert!(parse_str("profile x --scale nope").is_err());
        assert!(parse_str("profile x --scale -1").is_err());
        // There is no fleet, load generator or batch op to parse.
        assert!(parse_str("fleet").is_err());
        assert!(parse_str("loadgen --quick").is_err());
        assert!(parse_str("request --suite").is_err());
        assert!(parse_str("request mcf_r --suite").is_err());
        for flag in [
            "--shards",
            "--fleet",
            "--clients",
            "--requests",
            "--mix",
            "--seed",
        ] {
            assert!(parse_str(&format!("serve {flag} 2")).is_err(), "{flag}");
        }
    }
}
