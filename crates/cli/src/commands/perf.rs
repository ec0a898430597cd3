//! `sampsim perf` — run (or validate) the kernel microbenchmark harness.

use crate::args::Options;

use super::{validate_file, CmdResult};
use sampsim_perf::{compare_reports, run_kernels, validate_report, PerfOptions};
use sampsim_util::scale::Scale;
use std::path::PathBuf;

/// `sampsim perf [--quick] [-o FILE] [--artifacts DIR] [--baseline FILE]`,
/// or `sampsim perf --validate FILE` to only schema-check an existing
/// report (an invalid report exits 2, like `compare` and `plan`).
///
/// The report JSON goes to stdout and, with `-o`, to `FILE`; progress
/// lines go to stderr. Every freshly produced report is validated before
/// it is written, so a green exit also certifies the schema. With
/// `--baseline`, the fresh report is additionally gated against the given
/// report's size-normalized rates (>10% slower on any shared metric
/// fails) — the regression check `scripts/check.sh` runs against the
/// committed `BENCH_kernels.json`.
pub fn perf(
    quick: bool,
    out: Option<&str>,
    artifacts: Option<&str>,
    validate: Option<&str>,
    baseline: Option<&str>,
    options: &Options,
) -> CmdResult {
    if let Some(path) = validate {
        let what = format!("{} report", sampsim_perf::SCHEMA);
        return validate_file(path, validate_report, &what);
    }
    let mut perf_options = PerfOptions {
        quick,
        // BBV regeneration executes `scale * full_insts` instructions but
        // keeps the full-scale slice count, so the clustering input is
        // full-size either way (see docs/performance.md).
        scale: Scale::new(0.01),
        jobs: options.jobs,
        ..PerfOptions::default()
    };
    if let Some(dir) = artifacts {
        perf_options.artifacts_dir = PathBuf::from(dir);
    }
    eprintln!(
        "timing kernels ({} mode, artifacts from {})...",
        if quick { "quick" } else { "full" },
        perf_options.artifacts_dir.display()
    );
    let report = run_kernels(&perf_options, |line| eprintln!("  {line}"))?;
    let text = report.to_json();
    validate_report(&text).map_err(|e| format!("generated report failed validation: {e}"))?;
    if let Some(path) = baseline {
        let base_text = std::fs::read_to_string(path)?;
        let compared = compare_reports(&text, &base_text).map_err(|e| format!("{path}: {e}"))?;
        for line in compared {
            eprintln!("  baseline: {line}");
        }
    }
    print!("{text}");
    if let Some(path) = out {
        std::fs::write(path, &text)?;
        eprintln!("wrote {path}");
    }
    Ok(())
}
