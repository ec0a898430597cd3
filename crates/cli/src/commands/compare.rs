//! `sampsim compare` — the cross-strategy efficacy study.

use super::{build, create_report_file, pipeline_config, validate_file, CmdResult};
use crate::args::Options;
use sampsim_core::compare::{self, DEFAULT_REPLICATES, SCHEMA};
use sampsim_serve::service::find_benchmark;
use sampsim_simpoint::STRATEGY_NAMES;
use sampsim_util::stats::with_commas;
use std::io::Write;

/// `sampsim compare <bench> [--reps N] [-o FILE]`, or
/// `sampsim compare --validate FILE`.
///
/// Runs every registered sampling strategy against whole-program truth
/// and prints one deterministic `sampsim-compare/v1` JSON line to stdout
/// (and, with `-o`, to `FILE`) — byte-identical for every `--jobs` value.
/// With `--validate`, checks an existing report against the schema and
/// the strategy registry instead of running anything; schema violations
/// and registry drift are usage-class failures (exit 2).
pub fn compare(
    bench: Option<&str>,
    out: Option<&str>,
    reps: Option<usize>,
    validate: Option<&str>,
    options: &Options,
) -> CmdResult {
    if let Some(path) = validate {
        let what = format!("{SCHEMA} report covering the strategy registry");
        return validate_file(path, compare::validate_report, &what);
    }
    let bench = bench.expect("the parser requires a benchmark without --validate");
    let spec = find_benchmark(bench)?;
    let program = build(&spec, options);
    let config = pipeline_config(options)?;
    let reps = reps.unwrap_or(DEFAULT_REPLICATES);
    eprintln!(
        "comparing {} strategies on {} ({} instructions, {} replicates each)...",
        STRATEGY_NAMES.len(),
        spec.name(),
        with_commas(program.total_insts()),
        reps
    );
    let mut sink = out.map(create_report_file).transpose()?;
    let report = compare::compare_strategies(&program, &config, reps, options.jobs)?;
    let document = report.to_json();
    println!("{document}");
    if let Some(file) = &mut sink {
        writeln!(file, "{document}")?;
    }
    Ok(())
}
