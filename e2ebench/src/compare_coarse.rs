//! `compare-coarse`: one caller asks `compare::compare_strategies` for a
//! rotation of cross-strategy reports on coarsely sliced programs,
//! closed loop.

use crate::digests;
use crate::inputs;
use crate::layers::{self, CompareShape, Tally};
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use sampsim_core::compare::compare_strategies;
use sampsim_core::metrics::AggregatedMetrics;
use sampsim_core::{PinPointsConfig, Pipeline};
use sampsim_exec::Jobs;
use sampsim_workload::Program;
use std::time::{Duration, Instant};

/// Runs the workload. `tracer` selects the traced run.
///
/// # Errors
///
/// Returns a message when the inputs cannot be set up.
pub fn run(
    seed: u64,
    window: Duration,
    jobs: Jobs,
    tracer: Option<&Tracer>,
) -> Result<Outcome, String> {
    let rotation = inputs::compare_rotation(seed);
    // Set-up builds every program of the rotation and lints its
    // configuration.
    let mut built: Vec<(String, Program, PinPointsConfig)> = Vec::new();
    let setups = report::time_setups(|| {
        built.clear();
        for &(bench, slice) in &rotation {
            let (program, config) = inputs::compare_input(bench, slice)?;
            if Pipeline::new(config.clone())
                .preflight(&program)
                .has_errors()
            {
                return Err(format!("{bench}: compare configuration fails preflight"));
            }
            built.push((digests::compare_label(bench, slice), program, config));
        }
        Ok(())
    })?;

    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let mut untraced_ms = 0.0;
    let (ops, elapsed) = report::rotations(built.len(), window, |i| {
        let (label, program, config) = &built[i];
        let t = Instant::now();
        let report = compare_strategies(program, config, inputs::COMPARE_REPLICATES, jobs);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let mut ok = report
            .as_ref()
            .is_ok_and(|r| digests::matches(label, &r.to_json()));
        if let (Some(tr), Ok(report)) = (tracer, &report) {
            untraced_ms += ms;
            let op = tr.open("op", None);
            let traced = layers::traced_compare(
                program,
                config,
                inputs::COMPARE_REPLICATES,
                jobs,
                tr,
                op,
                &mut tally,
            );
            tr.close(op);
            tally.ops += 1;
            // Host wall-clock is the one truth field the runs may differ in.
            let expected = CompareShape {
                truth: AggregatedMetrics {
                    total_wall_seconds: 0.0,
                    ..report.truth.clone()
                },
                regions: report
                    .strategies
                    .iter()
                    .map(|s| (s.strategy.clone(), s.regions))
                    .collect(),
            };
            ok &= traced.as_ref() == Ok(&expected);
        }
        if !ok {
            out.problems.push(format!("{label}: output check failed"));
        }
        (ms, ok)
    });
    out.finish(
        &ops,
        elapsed,
        &setups,
        tracer.map(|t| (t, &tally, untraced_ms)),
    );
    Ok(out)
}
