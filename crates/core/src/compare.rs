//! The cross-strategy efficacy study: every registered sampling strategy
//! versus whole-program truth, with error bars.
//!
//! This is the engine behind `sampsim compare`. It profiles the program
//! **once** (the strategy-agnostic BBV pass, exactly what the stage cache
//! shares across strategies), measures whole-program truth in the timing
//! model, then evaluates each strategy in [`STRATEGY_NAMES`] order:
//!
//! 1. Build `replicates` independent selections. Single-shot strategies
//!    (simpoint, stratified2p) are seed-resampled — replicate `r` shifts
//!    the strategy's master seed by `r · φ64` (replicate 0 is the base
//!    configuration); `rss` produces its replicate sets natively.
//! 2. Replay each distinct slice any replicate of any strategy chose,
//!    once, in the timing model (one flat task list over `jobs`), then
//!    form every replicate's weighted aggregate (CPI + per-level cache
//!    miss rates) from the shared results with its own point weights.
//!    Replicates share one warmup policy — the plain preceding-window
//!    warmup that synthetic point sets get — so strategies are compared
//!    like for like, and a region's replay depends on its slice alone.
//! 3. Report each metric as mean over replicates, a normal-theory 95%
//!    confidence half-width (`1.96·s/√R`), and the relative error of the
//!    mean against truth.
//!
//! The report is schema-versioned single-line JSON ([`SCHEMA`]); floats
//! render via `{:?}` (shortest exact representation), and every stage is
//! deterministic per job count, so the bytes are identical across
//! `--jobs` values. [`validate_report`] checks a report against the
//! schema **and the registry**: a strategy registered in the engine but
//! missing from a report (or vice versa) is a validation failure, which
//! is how `scripts/check.sh` fails loudly on registry drift.

use crate::error::CoreError;
use crate::metrics::{aggregate_weighted, whole_as_aggregate, AggregatedMetrics, RunMetrics};
use crate::pipeline::{PinPointsConfig, Pipeline};
use crate::runs::{run_regions_timing_jobs, run_whole_timing, WarmupMode};
use sampsim_cache::configs;
use sampsim_exec::Jobs;
use sampsim_simpoint::strategy::reseeded_simpoint_options;
use sampsim_simpoint::{
    Rss, RssOptions, SamplingStrategy, SimPoint, SimPointsResult, StrategyInput, StrategySpec,
    STRATEGY_NAMES,
};
use sampsim_uarch::CoreConfig;
use sampsim_util::json::{self, Schema};
use sampsim_util::stats::{relative_error_pct, Summary};
use sampsim_workload::{Cursor, Program};

/// Schema identifier stamped into every compare report.
pub const SCHEMA: &str = "sampsim-compare/v1";

/// Default replicate count per strategy.
pub const DEFAULT_REPLICATES: usize = 5;

/// One metric's replicate statistics versus truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Mean of the per-replicate estimates.
    pub mean: f64,
    /// Normal-theory 95% confidence half-width, `1.96·s/√R` (0 when
    /// `R < 2`).
    pub ci95: f64,
    /// Relative error of the mean against whole-program truth, percent.
    pub error_pct: f64,
}

impl Estimate {
    fn from_samples(samples: &[f64], truth: f64) -> Self {
        let mut s = Summary::new();
        for &v in samples {
            s.add(v);
        }
        let mean = s.mean();
        let ci95 = if samples.len() >= 2 {
            1.96 * s.stddev() / (samples.len() as f64).sqrt()
        } else {
            0.0
        };
        Estimate {
            mean,
            ci95,
            error_pct: relative_error_pct(mean, truth),
        }
    }
}

/// Per-level cache miss-rate estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissRateEstimates {
    /// L1 instruction cache.
    pub l1i: Estimate,
    /// L1 data cache.
    pub l1d: Estimate,
    /// Unified L2.
    pub l2: Estimate,
    /// Unified L3 (LLC).
    pub l3: Estimate,
}

/// One strategy's row in the study.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyReport {
    /// Registry name.
    pub strategy: String,
    /// Regions the primary (replicate 0) selection chose.
    pub regions: usize,
    /// Replicates evaluated.
    pub replicates: usize,
    /// CPI estimate versus truth.
    pub cpi: Estimate,
    /// Miss-rate estimates versus truth.
    pub miss_rates: MissRateEstimates,
}

/// The whole study: truth plus one row per registered strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// Benchmark / program name.
    pub bench: String,
    /// Slices the profile divided into.
    pub slices: u64,
    /// Slice length in instructions.
    pub slice_size: u64,
    /// Replicates per strategy.
    pub replicates: usize,
    /// Whole-program truth (timing run over the full execution).
    pub truth: AggregatedMetrics,
    /// One row per strategy, in [`STRATEGY_NAMES`] order.
    pub strategies: Vec<StrategyReport>,
}

/// Runs the study: one shared profile, whole-program truth, then every
/// registered strategy × `replicates` selections through the timing
/// model. Deterministic per job count — the report bytes never depend on
/// `jobs`.
///
/// # Errors
///
/// Returns [`CoreError::Config`] when the configuration fails preflight
/// and [`CoreError::SimPoint`] when the program is too short to slice.
pub fn compare_strategies(
    program: &Program,
    config: &PinPointsConfig,
    replicates: usize,
    jobs: Jobs,
) -> Result<CompareReport, CoreError> {
    let pipeline = Pipeline::new(config.clone());
    let preflight = pipeline.preflight(program);
    if preflight.has_errors() {
        return Err(CoreError::Config(preflight.into_diagnostics()));
    }
    // One strategy-agnostic profiling pass shared by every strategy and
    // replicate — the amortization the stage cache already exploits.
    let (bbvs, starts, _) = pipeline.profile_jobs(program, jobs);
    let input = StrategyInput {
        bbvs: &bbvs,
        slice_size: config.slice_size,
    };
    let truth = whole_as_aggregate(&run_whole_timing(
        program,
        CoreConfig::table3(),
        configs::i7_table3(),
    ));
    let reps = replicates.max(1);

    let registry = StrategySpec::registry();
    let selections = registry
        .iter()
        .map(|spec| replicate_selections(spec, &input, config, reps, jobs))
        .collect::<Result<Vec<_>, _>>()?;
    let (slices, replayed) =
        replay_distinct_slices(program, &pipeline, &starts, &selections, jobs)?;
    let strategies = registry
        .iter()
        .zip(&selections)
        .map(|(spec, point_sets)| {
            let aggregates: Vec<AggregatedMetrics> = point_sets
                .iter()
                .map(|points| {
                    let regions: Vec<(RunMetrics, f64)> = points
                        .iter()
                        .map(|p| {
                            let i = slices
                                .binary_search(&p.slice)
                                .expect("every selected slice was replayed");
                            (replayed[i].clone(), p.weight)
                        })
                        .collect();
                    aggregate_weighted(&regions)
                })
                .collect();
            strategy_row(spec.name(), point_sets, &aggregates, &truth)
        })
        .collect();
    Ok(CompareReport {
        bench: program.name().to_string(),
        slices: bbvs.len() as u64,
        slice_size: config.slice_size,
        replicates: reps,
        truth,
        strategies,
    })
}

/// One strategy's `reps` replicate selections: native for rss,
/// seed-resampled otherwise (replicate `r` shifts the master seed by
/// `r · φ64`).
fn replicate_selections(
    spec: &StrategySpec,
    input: &StrategyInput<'_>,
    config: &PinPointsConfig,
    reps: usize,
    jobs: Jobs,
) -> Result<Vec<Vec<SimPoint>>, CoreError> {
    if let StrategySpec::Rss(base) = spec {
        let rss = Rss::new(RssOptions {
            replicates: reps,
            ..*base
        });
        return Ok(rss.select(input, jobs)?.replicates);
    }
    let mut sets = Vec::with_capacity(reps);
    for r in 0..reps as u64 {
        let simpoint = if matches!(spec, StrategySpec::SimPoint) {
            reseeded_simpoint_options(&config.simpoint, r)
        } else {
            config.simpoint
        };
        let strategy = spec.reseeded(r).build(&simpoint);
        sets.push(strategy.select(input, jobs)?.points);
    }
    Ok(sets)
}

/// A synthetic analysis result for `points`. Empty assignments give
/// every region the plain preceding-window warmup.
fn synthetic_result(points: Vec<SimPoint>, slice_size: u64) -> SimPointsResult {
    SimPointsResult {
        k: points.len(),
        slice_size,
        assignments: Vec::new(),
        points,
        bic_scores: Vec::new(),
        avg_variance: 0.0,
    }
}

/// Replays every distinct slice in `selections` once, in one task list
/// over `jobs`, and returns the sorted slices with their metrics.
///
/// This equals replaying each replicate's regions separately. With empty
/// assignments a region's pinball — start, length and preceding-window
/// warmup — depends only on its slice, and a point's weight and cluster
/// never reach [`RunMetrics`]; weights are applied per replicate
/// afterwards. The only replay error is a pinball/program digest
/// mismatch, which cannot happen for pinballs built from `program`.
fn replay_distinct_slices(
    program: &Program,
    pipeline: &Pipeline,
    starts: &[Cursor],
    selections: &[Vec<Vec<SimPoint>>],
    jobs: Jobs,
) -> Result<(Vec<u64>, Vec<RunMetrics>), CoreError> {
    let mut slices: Vec<u64> = selections
        .iter()
        .flatten()
        .flatten()
        .map(|p| p.slice)
        .collect();
    slices.sort_unstable();
    slices.dedup();
    let points = slices
        .iter()
        .map(|&slice| SimPoint {
            slice,
            cluster: 0,
            weight: 0.0,
        })
        .collect();
    let distinct = synthetic_result(points, pipeline.config().slice_size);
    let regional = pipeline.regionals_for(program, &distinct, starts);
    let replayed = run_regions_timing_jobs(
        program,
        &regional,
        CoreConfig::table3(),
        configs::i7_table3(),
        WarmupMode::Checkpointed,
        jobs,
    )?;
    Ok((slices, replayed.into_iter().map(|(m, _)| m).collect()))
}

/// A strategy's row from its replicate selections and their aggregates.
fn strategy_row(
    name: &str,
    point_sets: &[Vec<SimPoint>],
    aggregates: &[AggregatedMetrics],
    truth: &AggregatedMetrics,
) -> StrategyReport {
    let truth_cpi = truth.cpi.expect("timing truth carries CPI");
    let truth_mr = truth.miss_rates.expect("timing truth carries miss rates");
    let mut cpi = Vec::with_capacity(aggregates.len());
    let mut l1i = Vec::with_capacity(aggregates.len());
    let mut l1d = Vec::with_capacity(aggregates.len());
    let mut l2 = Vec::with_capacity(aggregates.len());
    let mut l3 = Vec::with_capacity(aggregates.len());
    for agg in aggregates {
        cpi.push(agg.cpi.expect("timing replay carries CPI"));
        let mr = agg.miss_rates.expect("timing replay carries miss rates");
        l1i.push(mr.l1i);
        l1d.push(mr.l1d);
        l2.push(mr.l2);
        l3.push(mr.l3);
    }
    StrategyReport {
        strategy: name.to_string(),
        regions: point_sets[0].len(),
        replicates: point_sets.len(),
        cpi: Estimate::from_samples(&cpi, truth_cpi),
        miss_rates: MissRateEstimates {
            l1i: Estimate::from_samples(&l1i, truth_mr.l1i),
            l1d: Estimate::from_samples(&l1d, truth_mr.l1d),
            l2: Estimate::from_samples(&l2, truth_mr.l2),
            l3: Estimate::from_samples(&l3, truth_mr.l3),
        },
    }
}

impl CompareReport {
    /// Renders the single-line `sampsim-compare/v1` JSON document (no
    /// trailing newline). Floats go through [`json::number`] so the text
    /// is the shortest exact representation of the bit pattern —
    /// byte-stable across job counts because every input is.
    pub fn to_json(&self) -> String {
        fn estimate(e: &Estimate) -> String {
            format!(
                "{{\"mean\":{},\"ci95\":{},\"error_pct\":{}}}",
                json::number(e.mean),
                json::number(e.ci95),
                json::number(e.error_pct)
            )
        }
        let truth_mr = self.truth.miss_rates.expect("truth carries miss rates");
        let truth = format!(
            "{{\"cpi\":{},\"miss_rates_pct\":{{\"l1i\":{},\"l1d\":{},\"l2\":{},\"l3\":{}}}}}",
            json::number(self.truth.cpi.expect("truth carries CPI")),
            json::number(truth_mr.l1i),
            json::number(truth_mr.l1d),
            json::number(truth_mr.l2),
            json::number(truth_mr.l3)
        );
        let rows: Vec<String> = self
            .strategies
            .iter()
            .map(|s| {
                format!(
                    "{{\"strategy\":{},\"regions\":{},\"replicates\":{},\"cpi\":{},\
                     \"miss_rates_pct\":{{\"l1i\":{},\"l1d\":{},\"l2\":{},\"l3\":{}}}}}",
                    json::string(&s.strategy),
                    s.regions,
                    s.replicates,
                    estimate(&s.cpi),
                    estimate(&s.miss_rates.l1i),
                    estimate(&s.miss_rates.l1d),
                    estimate(&s.miss_rates.l2),
                    estimate(&s.miss_rates.l3)
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"{}\",\"bench\":{},\"slices\":{},\"slice_size\":{},\
             \"replicates\":{},\"truth\":{},\"strategies\":[{}]}}",
            SCHEMA,
            json::string(&self.bench),
            self.slices,
            self.slice_size,
            self.replicates,
            truth,
            rows.join(",")
        )
    }
}

/// One metric's statistics in a strategy row.
const ESTIMATE: Schema = {
    use Schema::*;
    Object(&[
        ("mean", Num),
        ("ci95", AtLeast(0.0)),
        ("error_pct", AtLeast(0.0)),
    ])
};

/// The `sampsim-compare/v1` document [`CompareReport::to_json`] writes.
const REPORT: Schema = {
    use Schema::*;
    const TRUTH_RATES: Schema = Object(&[("l1i", Num), ("l1d", Num), ("l2", Num), ("l3", Num)]);
    const ROW_RATES: Schema = Object(&[
        ("l1i", ESTIMATE),
        ("l1d", ESTIMATE),
        ("l2", ESTIMATE),
        ("l3", ESTIMATE),
    ]);
    const ROW: Schema = Object(&[
        ("strategy", Str),
        ("regions", AtLeast(1.0)),
        ("replicates", AtLeast(1.0)),
        ("cpi", ESTIMATE),
        ("miss_rates_pct", ROW_RATES),
    ]);
    Object(&[
        ("schema", Tag(SCHEMA)),
        ("bench", NonEmptyStr),
        ("slices", AtLeast(1.0)),
        ("slice_size", AtLeast(1.0)),
        ("replicates", AtLeast(1.0)),
        (
            "truth",
            Object(&[("cpi", Num), ("miss_rates_pct", TRUTH_RATES)]),
        ),
        ("strategies", Keyed("strategy", STRATEGY_NAMES, &ROW)),
    ])
};

/// Validates a compare report against the `sampsim-compare/v1` schema,
/// whose `strategies` rows must cover the registry exactly.
///
/// # Errors
///
/// Every violation, each naming its field.
pub fn validate_report(text: &str) -> Result<(), String> {
    json::validate(text, &REPORT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_simpoint::SimPointOptions;
    use sampsim_workload::spec::{InterleaveSpec, PhaseSpec, WorkloadSpec};

    fn program() -> Program {
        WorkloadSpec::builder("compare-test", 13)
            .total_insts(120_000)
            .phase(PhaseSpec::memory_bound(1.0))
            .phase(PhaseSpec::compute_bound(1.0))
            .interleave(InterleaveSpec {
                mean_segment: 6_000,
                jitter: 0.3,
                align: 0,
            })
            .build()
            .build()
    }

    fn config() -> PinPointsConfig {
        PinPointsConfig {
            slice_size: 1_000,
            simpoint: SimPointOptions {
                max_k: 6,
                ..Default::default()
            },
            warmup_slices: 5,
            profile_cache: None,
            ..Default::default()
        }
    }

    #[test]
    fn report_covers_registry_and_validates() {
        let report = compare_strategies(&program(), &config(), 3, sampsim_exec::SERIAL).unwrap();
        assert_eq!(report.strategies.len(), STRATEGY_NAMES.len());
        for (row, name) in report.strategies.iter().zip(STRATEGY_NAMES) {
            assert_eq!(row.strategy, *name);
            assert_eq!(row.replicates, 3);
            assert!(row.regions >= 1);
            assert!(row.cpi.mean > 0.0, "{name}: cpi {:?}", row.cpi);
            assert!(row.cpi.error_pct >= 0.0);
            assert!(row.cpi.ci95 >= 0.0);
        }
        let json = report.to_json();
        validate_report(&json).unwrap();
    }

    #[test]
    fn report_bytes_are_job_count_invariant() {
        let reference = compare_strategies(&program(), &config(), 2, sampsim_exec::SERIAL)
            .unwrap()
            .to_json();
        for jobs in [Jobs::new(2).unwrap(), Jobs::new(5).unwrap(), Jobs::Auto] {
            let report = compare_strategies(&program(), &config(), 2, jobs)
                .unwrap()
                .to_json();
            assert_eq!(report, reference, "jobs = {jobs}");
        }
    }

    /// The replay loop before distinct slices were shared: every
    /// replicate builds and replays its own regions, weights included.
    /// Returns the report bytes, the points replayed and the distinct
    /// slices among them.
    fn per_replicate_report(
        program: &Program,
        config: &PinPointsConfig,
        reps: usize,
        jobs: Jobs,
    ) -> (String, usize, usize) {
        let pipeline = Pipeline::new(config.clone());
        let (bbvs, starts, _) = pipeline.profile_jobs(program, jobs);
        let input = StrategyInput {
            bbvs: &bbvs,
            slice_size: config.slice_size,
        };
        let truth = whole_as_aggregate(&run_whole_timing(
            program,
            CoreConfig::table3(),
            configs::i7_table3(),
        ));
        let mut strategies = Vec::new();
        let mut slices = Vec::new();
        for spec in StrategySpec::registry() {
            let point_sets = replicate_selections(&spec, &input, config, reps, jobs).unwrap();
            let aggregates: Vec<AggregatedMetrics> = point_sets
                .iter()
                .map(|points| {
                    slices.extend(points.iter().map(|p| p.slice));
                    let simpoints = synthetic_result(points.clone(), config.slice_size);
                    let regional = pipeline.regionals_for(program, &simpoints, &starts);
                    let measured = run_regions_timing_jobs(
                        program,
                        &regional,
                        CoreConfig::table3(),
                        configs::i7_table3(),
                        WarmupMode::Checkpointed,
                        jobs,
                    )
                    .unwrap();
                    aggregate_weighted(&measured)
                })
                .collect();
            strategies.push(strategy_row(spec.name(), &point_sets, &aggregates, &truth));
        }
        let replayed = slices.len();
        slices.sort_unstable();
        slices.dedup();
        let report = CompareReport {
            bench: program.name().to_string(),
            slices: bbvs.len() as u64,
            slice_size: config.slice_size,
            replicates: reps,
            truth,
            strategies,
        };
        (report.to_json(), replayed, slices.len())
    }

    #[test]
    fn shared_replays_match_per_replicate_replays() {
        let program = program();
        for jobs in [sampsim_exec::SERIAL, Jobs::new(2).unwrap(), Jobs::Auto] {
            let (expected, replayed, distinct) = per_replicate_report(&program, &config(), 3, jobs);
            assert!(
                distinct < replayed,
                "replicates must share slices for this test to bite ({distinct} of {replayed})"
            );
            let report = compare_strategies(&program, &config(), 3, jobs)
                .unwrap()
                .to_json();
            assert_eq!(report, expected, "jobs = {jobs}");
        }
    }

    #[test]
    fn validator_rejects_drift() {
        let mut report =
            compare_strategies(&program(), &config(), 2, sampsim_exec::SERIAL).unwrap();
        let json = report.to_json();
        // Dropping a registered strategy must fail loudly.
        report.strategies.pop();
        let err = validate_report(&report.to_json()).unwrap_err();
        assert!(err.contains("rss") && err.contains("missing"), "{err}");
        // A duplicated strategy row must fail loudly.
        let duplicated = json.replace("\"strategy\":\"rss\"", "\"strategy\":\"simpoint\"");
        assert!(validate_report(&duplicated).unwrap_err().contains("twice"));
        // An unregistered strategy must fail loudly.
        let unknown = json.replace("\"strategy\":\"rss\"", "\"strategy\":\"frobnicate\"");
        assert!(validate_report(&unknown)
            .unwrap_err()
            .contains("frobnicate"));
        // Wrong schema tag.
        let wrong = json.replace(SCHEMA, "sampsim-compare/v0");
        assert!(validate_report(&wrong).unwrap_err().contains("schema"));
        // Not JSON at all.
        assert!(validate_report("nonsense").is_err());
    }
}
