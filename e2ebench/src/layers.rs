//! The traced twins of `service::run_document` and
//! `compare::compare_strategies`: the same public calls in the same
//! order, each wrapped in a span named after the layer it enters, with
//! the work counts of each layer tallied alongside.

use crate::report::Outcome;
use crate::trace::{SpanId, Tracer};
use sampsim_cache::configs;
use sampsim_core::metrics::{aggregate_weighted, whole_as_aggregate, AggregatedMetrics};
use sampsim_core::runs::{self, WarmupMode};
use sampsim_core::{PinPointsConfig, Pipeline, PipelineResult};
use sampsim_exec::Jobs;
use sampsim_pinball::{RegionalPinball, WholePinball};
use sampsim_serve::service::{self, RunRequest};
use sampsim_simpoint::strategy::reseeded_simpoint_options;
use sampsim_simpoint::{
    Rss, RssOptions, SamplingStrategy, SimPoint, SimPointsResult, StrategyInput, StrategySpec,
};
use sampsim_uarch::CoreConfig;
use sampsim_workload::Program;
use std::collections::BTreeMap;

/// Work counts summed over the traced operations of a run.
#[derive(Debug, Default)]
pub struct Tally {
    counts: BTreeMap<&'static str, f64>,
    /// Traced operations.
    pub ops: usize,
}

impl Tally {
    fn add(&mut self, name: &'static str, v: impl Into<f64>) {
        *self.counts.entry(name).or_insert(0.0) += v.into();
    }

    fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Counts the regions of one replay and the instructions it runs,
    /// warmup included.
    fn add_regions(
        &mut self,
        regions: &'static str,
        insts: &'static str,
        regional: &[RegionalPinball],
    ) {
        self.add(regions, regional.len() as f64);
        let replayed: u64 = regional.iter().map(|p| p.warmup_insts() + p.length).sum();
        self.add(insts, replayed as f64);
    }
}

/// [`service::run_document`] taken apart at its layer boundaries.
///
/// # Errors
///
/// Returns the failure message of whichever call failed.
pub fn traced_document(
    request: &RunRequest,
    jobs: Jobs,
    t: &Tracer,
    op: SpanId,
    tally: &mut Tally,
) -> Result<String, String> {
    let prepared = t
        .span("serve.prepare", op, || service::prepare(request))
        .map_err(|e| e.to_string())?;
    let (program, config) = (&prepared.program, &prepared.config);
    let pipeline = Pipeline::new(config.clone());
    let (bbvs, starts, whole_metrics) =
        t.span("core.profile", op, || pipeline.profile_jobs(program, jobs));
    let selection = t
        .span("simpoint.select", op, || {
            config.strategy.build(&config.simpoint).select(
                &StrategyInput {
                    bbvs: &bbvs,
                    slice_size: config.slice_size,
                },
                jobs,
            )
        })
        .map_err(|e| e.to_string())?;
    let (simpoints, replicates) = selection.into_parts(config.slice_size);
    let regional = t.span("pinball.regionals", op, || {
        pipeline.regionals_for(program, &simpoints, &starts)
    });
    let whole = t.span("pinball.capture", op, || WholePinball::capture(program));
    tally.add("core.profile_insts", whole_metrics.instructions as f64);
    tally.add("simpoint.slices", bbvs.len() as f64);
    tally.add("simpoint.k", simpoints.k as f64);
    tally.add_regions("core.replay_regions", "core.replay_insts", &regional);
    let result = PipelineResult {
        whole,
        whole_metrics,
        simpoints,
        regional,
        num_slices: bbvs.len() as u64,
        replicates,
    };
    let regions = t
        .span("core.replay", op, || {
            runs::run_regions_functional_jobs(
                program,
                &result.regional,
                configs::allcache_table1(),
                WarmupMode::Checkpointed,
                jobs,
            )
        })
        .map_err(|e| e.to_string())?;
    Ok(t.span("serve.render", op, || {
        let agg = aggregate_weighted(&regions);
        let whole = whole_as_aggregate(&result.whole_metrics);
        service::run_json(&prepared.name, &result, &whole, &agg)
    }))
}

/// The parts of a compare report the traced twin must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareShape {
    /// Whole-program truth, with its host wall-clock zeroed: timing is
    /// the one field the two runs may differ in.
    pub truth: AggregatedMetrics,
    /// Strategy name and the region count of its first replicate.
    pub regions: Vec<(String, usize)>,
}

/// `compare::compare_strategies` taken apart at its layer boundaries.
///
/// # Errors
///
/// Returns the failure message of whichever call failed.
pub fn traced_compare(
    program: &Program,
    config: &PinPointsConfig,
    replicates: usize,
    jobs: Jobs,
    t: &Tracer,
    op: SpanId,
    tally: &mut Tally,
) -> Result<CompareShape, String> {
    let pipeline = Pipeline::new(config.clone());
    let preflight = t.span("analyze.preflight", op, || pipeline.preflight(program));
    if preflight.has_errors() {
        return Err("compare configuration failed preflight".to_string());
    }
    let (bbvs, starts, profile) =
        t.span("core.profile", op, || pipeline.profile_jobs(program, jobs));
    tally.add("core.profile_insts", profile.instructions as f64);
    tally.add("simpoint.slices", bbvs.len() as f64);
    let input = StrategyInput {
        bbvs: &bbvs,
        slice_size: config.slice_size,
    };
    let whole = t.span("uarch.truth", op, || {
        runs::run_whole_timing(program, CoreConfig::table3(), configs::i7_table3())
    });
    tally.add("uarch.truth_insts", whole.instructions as f64);
    let truth = AggregatedMetrics {
        total_wall_seconds: 0.0,
        ..whole_as_aggregate(&whole)
    };
    let reps = replicates.max(1);
    let mut regions = Vec::new();
    for spec in StrategySpec::registry() {
        let name = format!("simpoint.select.{}", spec.name());
        let point_sets: Vec<Vec<SimPoint>> = t
            .span(&name, op, || match &spec {
                StrategySpec::Rss(base) => Rss::new(RssOptions {
                    replicates: reps,
                    ..*base
                })
                .select(&input, jobs)
                .map(|s| s.replicates),
                _ => (0..reps as u64)
                    .map(|r| {
                        let simpoint = if matches!(spec, StrategySpec::SimPoint) {
                            reseeded_simpoint_options(&config.simpoint, r)
                        } else {
                            config.simpoint
                        };
                        let strategy = spec.reseeded(r).build(&simpoint);
                        strategy.select(&input, jobs).map(|s| s.points)
                    })
                    .collect(),
            })
            .map_err(|e| e.to_string())?;
        for points in &point_sets {
            let simpoints = SimPointsResult {
                k: points.len(),
                slice_size: config.slice_size,
                assignments: Vec::new(),
                points: points.clone(),
                bic_scores: Vec::new(),
                avg_variance: 0.0,
            };
            let regional = t.span("pinball.regionals", op, || {
                pipeline.regionals_for(program, &simpoints, &starts)
            });
            tally.add_regions("uarch.replay_regions", "uarch.replay_insts", &regional);
            let measured = t
                .span("uarch.replay", op, || {
                    runs::run_regions_timing_jobs(
                        program,
                        &regional,
                        CoreConfig::table3(),
                        configs::i7_table3(),
                        WarmupMode::Checkpointed,
                        jobs,
                    )
                })
                .map_err(|e| e.to_string())?;
            t.span("core.aggregate", op, || aggregate_weighted(&measured));
        }
        if matches!(spec, StrategySpec::SimPoint) {
            tally.add("simpoint.k", point_sets[0].len() as f64);
        }
        regions.push((spec.name().to_string(), point_sets[0].len()));
    }
    Ok(CompareShape { truth, regions })
}

/// Fills every per-layer metric the spans and tallies can give: times
/// and counts as means per traced operation, rates and shares from the
/// run's totals. `untraced_ms` is the summed time of the same operations
/// run untraced, for `trace.overhead_ms`. The serve counters are the
/// workload's to set.
pub fn per_layer(out: &mut Outcome, t: &Tracer, tally: &Tally, untraced_ms: f64) {
    let ops = tally.ops.max(1) as f64;
    let op_ms = t.total_ms("op");
    let selves = t.self_ms_by_layer();
    let self_ms = |layer: &str| selves.get(layer).copied().unwrap_or(0.0);
    let per_op = |v: f64| v / ops;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let share = |ms: f64| ratio(100.0 * ms, op_ms);

    let select_ms = t.total_ms("simpoint.select");
    out.set("simpoint.select_ms", per_op(select_ms));
    for (metric, span) in [
        ("simpoint.select_ms.simpoint", "simpoint.select.simpoint"),
        (
            "simpoint.select_ms.stratified2p",
            "simpoint.select.stratified2p",
        ),
        ("simpoint.select_ms.rss", "simpoint.select.rss"),
    ] {
        out.set(metric, per_op(t.total_ms(span)));
    }
    out.set("simpoint.slices", per_op(tally.get("simpoint.slices")));
    out.set("simpoint.k", per_op(tally.get("simpoint.k")));
    out.set("simpoint.self_ms", per_op(self_ms("simpoint")));
    out.set("simpoint.share_pct", share(select_ms));

    let profile_ms = t.total_ms("core.profile");
    let profile_insts = tally.get("core.profile_insts");
    out.set("core.profile_ms", per_op(profile_ms));
    out.set("core.profile_insts", per_op(profile_insts));
    out.set(
        "core.profile_ns_per_inst",
        ratio(profile_ms * 1e6, profile_insts),
    );
    out.set("core.profile_share_pct", share(profile_ms));
    let replay_ms = t.total_ms("core.replay");
    let regions = tally.get("core.replay_regions");
    out.set("core.replay_ms", per_op(replay_ms));
    out.set("core.replay_regions", per_op(regions));
    out.set("core.replay_insts", per_op(tally.get("core.replay_insts")));
    out.set("core.replay_ms_per_region", ratio(replay_ms, regions));
    out.set("core.self_ms", per_op(self_ms("core")));

    let truth_ms = t.total_ms("uarch.truth");
    out.set("uarch.truth_ms", per_op(truth_ms));
    out.set(
        "uarch.truth_ns_per_inst",
        ratio(truth_ms * 1e6, tally.get("uarch.truth_insts")),
    );
    let replay_ms = t.total_ms("uarch.replay");
    let regions = tally.get("uarch.replay_regions");
    out.set("uarch.replay_ms", per_op(replay_ms));
    out.set("uarch.replay_regions", per_op(regions));
    out.set(
        "uarch.replay_insts",
        per_op(tally.get("uarch.replay_insts")),
    );
    out.set("uarch.replay_ms_per_region", ratio(replay_ms, regions));
    out.set("uarch.replay_share_pct", share(replay_ms));
    out.set("uarch.self_ms", per_op(self_ms("uarch")));

    out.set(
        "pinball.regionals_ms",
        per_op(t.total_ms("pinball.regionals")),
    );
    out.set("pinball.self_ms", per_op(self_ms("pinball")));

    out.set("serve.prepare_ms", per_op(t.total_ms("serve.prepare")));
    out.set("serve.render_ms", per_op(t.total_ms("serve.render")));
    out.set("serve.self_ms", per_op(self_ms("serve")));

    out.set("trace.op_ms", per_op(op_ms));
    out.set("trace.overhead_ms", per_op(op_ms - untraced_ms));
    out.set("trace.spans", t.len() as f64);
    out.note(format!(
        "traced ops n={}; shares of traced op time: simpoint.select {:.1}%, core.profile {:.1}%, uarch.replay {:.1}%",
        tally.ops,
        share(select_ms),
        share(profile_ms),
        share(t.total_ms("uarch.replay"))
    ));
}
