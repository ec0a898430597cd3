//! `run-exact`: one caller asks `service::run_document` for a rotation of
//! `run` documents with the exact Lloyd BIC sweep, closed loop.

use crate::digests;
use crate::inputs;
use crate::layers::{self, Tally};
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use sampsim_core::stage_cache::NoCache;
use sampsim_exec::Jobs;
use sampsim_serve::service;
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
    let rotation = inputs::run_exact_rotation(seed);
    // Set-up resolves and validates every request of the rotation.
    let setups = report::time_setups(|| {
        for request in &rotation {
            service::prepare(request).map_err(|e| format!("{}: {e}", request.bench))?;
        }
        Ok(())
    })?;

    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let mut untraced_ms = 0.0;
    let (ops, elapsed) = report::rotations(rotation.len(), window, |i| {
        let request = &rotation[i];
        let label = digests::run_label(request);
        let t = Instant::now();
        let doc = service::run_document(request, jobs, &NoCache);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let mut ok = doc.as_ref().is_ok_and(|d| digests::matches(&label, d));
        if let Some(tr) = tracer {
            untraced_ms += ms;
            let op = tr.open("op", None);
            let traced = layers::traced_document(request, jobs, tr, op, &mut tally);
            tr.close(op);
            tally.ops += 1;
            ok &= traced.is_ok() && traced.ok() == doc.ok();
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
