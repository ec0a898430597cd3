//! `sampsim plan` — the static cost/precision planner.

use super::{build, create_report_file, pipeline_config, validate_file, CmdResult};
use crate::args::Options;
use sampsim_core::plan::{self, SCHEMA};
use sampsim_serve::service::find_benchmark;
use sampsim_util::stats::with_commas;
use std::io::Write;

/// `sampsim plan <bench> [--strategy S] [-o FILE]`, or
/// `sampsim plan --validate FILE`.
///
/// Derives — without executing, profiling or clustering anything — the
/// slice structure, selection shape, predicted simulated-instruction
/// cost, speedup bound and conservative per-metric CI half-width bounds
/// for one strategy on one benchmark, and prints one deterministic
/// `sampsim-plan/v1` JSON line to stdout (and, with `-o`, to `FILE`).
/// The embedded `soundness` array carries the SA140–SA145 findings for
/// the planned configuration. With `--validate`, checks an existing plan
/// against the schema and the strategy registry instead; schema
/// violations and registry drift are usage-class failures (exit 2).
pub fn plan(
    bench: Option<&str>,
    out: Option<&str>,
    validate: Option<&str>,
    options: &Options,
) -> CmdResult {
    if let Some(path) = validate {
        return validate_file(path, plan::validate_report, &format!("{SCHEMA} report"));
    }
    let bench = bench.expect("the parser requires a benchmark without --validate");
    let spec = find_benchmark(bench)?;
    let program = build(&spec, options);
    let config = pipeline_config(options)?;
    eprintln!(
        "planning {} on {} ({} instructions) — static analysis only, nothing runs...",
        config.strategy.name(),
        spec.name(),
        with_commas(program.total_insts())
    );
    let mut sink = out.map(create_report_file).transpose()?;
    let report = plan::plan_strategy(&program, &config, None)?;
    let document = report.to_json();
    println!("{document}");
    if let Some(file) = &mut sink {
        writeln!(file, "{document}")?;
    }
    Ok(())
}
