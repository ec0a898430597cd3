//! Executing the paper's run kinds.
//!
//! * **Whole Run** — the complete execution under profiling tools.
//! * **Regional Run** — every simulation point replayed individually with
//!   cold microarchitectural state, statistics combined by weight.
//! * **Reduced Regional Run** — the 90th-percentile subset (derived by
//!   re-weighting cached per-region metrics; regions replay identically).
//! * **Warmup Regional Run** — each region primed by replaying its
//!   checkpointed warmup predecessor with statistics disabled (§IV-D).

use crate::error::CoreError;
use crate::metrics::RunMetrics;
use sampsim_cache::HierarchyConfig;
use sampsim_exec::Jobs;
use sampsim_pin::engine;
use sampsim_pin::tools::{CacheSim, LdStMix};
use sampsim_pinball::RegionalPinball;
use sampsim_uarch::{CoreConfig, Sniper};
use sampsim_workload::{Executor, Program};
use std::time::Instant;

/// Whether regions start cold or primed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmupMode {
    /// Cold caches/predictors at every region start (the paper's default
    /// Regional Run — the source of the LLC miss-rate inflation).
    None,
    /// Replay each pinball's checkpointed warmup region first, with
    /// statistics suppressed (the paper's "Warmup Regional Run": 500 M
    /// cycles of functional warming before each simulation point).
    Checkpointed,
    /// Checkpointed warmup plus `rounds` uncounted replays of the region
    /// itself before measurement — the paper's other prescription ("the
    /// set of Regional Pinballs must be run multiple times, thus
    /// exercising the LLC to remove the cold cache effects", §IV-D). At
    /// the 1/3000 scale a region cannot amortize its compulsory misses the
    /// way a 30 M-instruction slice can, so timing runs use this mode.
    Replayed {
        /// Uncounted replays of the region before the measured one.
        rounds: u32,
    },
}

/// Profiles the complete execution with `ldstmix` + `allcache`.
pub fn run_whole_functional(program: &Program, cache: HierarchyConfig) -> RunMetrics {
    let started = Instant::now();
    let mut exec = Executor::new(program);
    let mut mix = LdStMix::new();
    let mut cs = CacheSim::new(cache);
    engine::run(&mut exec, u64::MAX, &mut [&mut mix, &mut cs]);
    RunMetrics {
        instructions: exec.retired(),
        mix: *mix.counts(),
        cache: Some(cs.stats()),
        timing: None,
        wall_seconds: started.elapsed().as_secs_f64(),
    }
}

/// Replays one regional pinball with `ldstmix` + `allcache`.
///
/// # Errors
///
/// Returns [`CoreError::Pinball`] if the pinball belongs to a different
/// program.
pub fn run_region_functional(
    program: &Program,
    pinball: &RegionalPinball,
    cache: HierarchyConfig,
    warmup: WarmupMode,
) -> Result<RunMetrics, CoreError> {
    replay_region_functional(program, pinball, &mut CacheSim::new(cache), warmup)
}

/// [`run_region_functional`] on a caller-held cache simulator, which is
/// first reset to the state [`CacheSim::new`] builds (see
/// [`sampsim_cache::Hierarchy::reset`]). The result is therefore the same
/// bits whatever `cs` replayed before, and a caller replaying many regions
/// builds the hierarchy once instead of per region.
/// `wall_seconds` covers the reset and the replay.
pub(crate) fn replay_region_functional(
    program: &Program,
    pinball: &RegionalPinball,
    cs: &mut CacheSim,
    warmup: WarmupMode,
) -> Result<RunMetrics, CoreError> {
    let started = Instant::now();
    cs.hierarchy_mut().reset();
    if !matches!(warmup, WarmupMode::None) {
        cs.hierarchy_mut().set_warmup(true);
        for (mut wexec, winsts) in pinball.warmup_executors(program)? {
            engine::run_one(&mut wexec, winsts, cs);
        }
        cs.hierarchy_mut().set_warmup(false);
    }
    let mut exec = pinball.attach(program)?;
    if let WarmupMode::Replayed { rounds } = warmup {
        cs.hierarchy_mut().set_warmup(true);
        for _ in 0..rounds {
            let mut replay = pinball.attach(program)?;
            engine::run_one(&mut replay, pinball.length, cs);
        }
        cs.hierarchy_mut().set_warmup(false);
    }
    let mut mix = LdStMix::new();
    let ran = engine::run(&mut exec, pinball.length, &mut [&mut mix, cs]);
    Ok(RunMetrics {
        instructions: ran,
        mix: *mix.counts(),
        cache: Some(cs.stats()),
        timing: None,
        wall_seconds: started.elapsed().as_secs_f64(),
    })
}

/// Replays every regional pinball individually (fresh state per region,
/// exactly as the paper executes them) and pairs each result with its
/// weight.
///
/// # Errors
///
/// Returns [`CoreError::Pinball`] on a program mismatch.
pub fn run_regions_functional(
    program: &Program,
    pinballs: &[RegionalPinball],
    cache: HierarchyConfig,
    warmup: WarmupMode,
) -> Result<Vec<(RunMetrics, f64)>, CoreError> {
    run_regions_functional_jobs(program, pinballs, cache, warmup, sampsim_exec::SERIAL)
}

/// [`run_regions_functional`] fanned out over `jobs` workers.
///
/// Each worker builds one cache hierarchy for the call and resets it
/// before every region it replays, so a region starts from exactly the
/// state a fresh hierarchy would have and its result depends neither on
/// the worker nor on the order. This is therefore bit-identical to the
/// serial loop for every job count: results come back in pinball order,
/// and on failure the lowest-indexed error is returned, exactly as the
/// serial loop would have surfaced it. The hierarchies are dropped when
/// the call returns, so a long-lived caller holds none between calls.
///
/// # Errors
///
/// Returns [`CoreError::Pinball`] on a program mismatch.
pub fn run_regions_functional_jobs(
    program: &Program,
    pinballs: &[RegionalPinball],
    cache: HierarchyConfig,
    warmup: WarmupMode,
    jobs: Jobs,
) -> Result<Vec<(RunMetrics, f64)>, CoreError> {
    sampsim_exec::try_parallel_map_with(
        jobs,
        pinballs,
        || CacheSim::new(cache),
        |cs, _, pb| {
            Ok((
                replay_region_functional(program, pb, cs, warmup)?,
                pb.weight,
            ))
        },
    )
}

/// Runs the complete execution through the timing model.
pub fn run_whole_timing(
    program: &Program,
    core: CoreConfig,
    hierarchy: HierarchyConfig,
) -> RunMetrics {
    let started = Instant::now();
    let mut exec = Executor::new(program);
    let mut mix = LdStMix::new();
    let mut sim = Sniper::new(core, hierarchy);
    engine::run(&mut exec, u64::MAX, &mut [&mut mix, &mut sim]);
    RunMetrics {
        instructions: exec.retired(),
        mix: *mix.counts(),
        cache: Some(sim.cache_stats()),
        timing: Some(sim.stats()),
        wall_seconds: started.elapsed().as_secs_f64(),
    }
}

/// Replays one regional pinball inside the timing model.
///
/// # Errors
///
/// Returns [`CoreError::Pinball`] on a program mismatch.
pub fn run_region_timing(
    program: &Program,
    pinball: &RegionalPinball,
    core: CoreConfig,
    hierarchy: HierarchyConfig,
    warmup: WarmupMode,
) -> Result<RunMetrics, CoreError> {
    let started = Instant::now();
    let mut sim = Sniper::new(core, hierarchy);
    if !matches!(warmup, WarmupMode::None) {
        sim.set_warming(true);
        for (mut wexec, winsts) in pinball.warmup_executors(program)? {
            engine::run_one(&mut wexec, winsts, &mut sim);
        }
        sim.set_warming(false);
    }
    let mut exec = pinball.attach(program)?;
    if let WarmupMode::Replayed { rounds } = warmup {
        sim.set_warming(true);
        for _ in 0..rounds {
            let mut replay = pinball.attach(program)?;
            engine::run_one(&mut replay, pinball.length, &mut sim);
        }
        sim.set_warming(false);
    }
    let mut mix = LdStMix::new();
    let ran = engine::run(&mut exec, pinball.length, &mut [&mut mix, &mut sim]);
    Ok(RunMetrics {
        instructions: ran,
        mix: *mix.counts(),
        cache: Some(sim.cache_stats()),
        timing: Some(sim.stats()),
        wall_seconds: started.elapsed().as_secs_f64(),
    })
}

/// Replays every regional pinball inside the timing model.
///
/// # Errors
///
/// Returns [`CoreError::Pinball`] on a program mismatch.
pub fn run_regions_timing(
    program: &Program,
    pinballs: &[RegionalPinball],
    core: CoreConfig,
    hierarchy: HierarchyConfig,
    warmup: WarmupMode,
) -> Result<Vec<(RunMetrics, f64)>, CoreError> {
    run_regions_timing_jobs(
        program,
        pinballs,
        core,
        hierarchy,
        warmup,
        sampsim_exec::SERIAL,
    )
}

/// [`run_regions_timing`] fanned out over `jobs` workers; see
/// [`run_regions_functional_jobs`] for the determinism argument.
///
/// # Errors
///
/// Returns [`CoreError::Pinball`] on a program mismatch.
pub fn run_regions_timing_jobs(
    program: &Program,
    pinballs: &[RegionalPinball],
    core: CoreConfig,
    hierarchy: HierarchyConfig,
    warmup: WarmupMode,
    jobs: Jobs,
) -> Result<Vec<(RunMetrics, f64)>, CoreError> {
    sampsim_exec::try_parallel_map(jobs, pinballs, |_, pb| {
        Ok((
            run_region_timing(program, pb, core, hierarchy, warmup)?,
            pb.weight,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::aggregate_weighted;
    use crate::pipeline::{PinPointsConfig, Pipeline};
    use sampsim_cache::configs;
    use sampsim_simpoint::SimPointOptions;
    use sampsim_workload::spec::{InterleaveSpec, PhaseSpec, WorkloadSpec};

    fn program() -> Program {
        WorkloadSpec::builder("runs-test", 33)
            .total_insts(150_000)
            .phase(PhaseSpec::balanced(1.0))
            .phase(PhaseSpec::memory_bound(1.0))
            .interleave(InterleaveSpec {
                mean_segment: 6_000,
                jitter: 0.3,
                align: 0,
            })
            .build()
            .build()
    }

    fn pipeline_result(p: &Program) -> crate::pipeline::PipelineResult {
        Pipeline::new(PinPointsConfig {
            slice_size: 1_000,
            simpoint: SimPointOptions {
                max_k: 8,
                ..Default::default()
            },
            warmup_slices: 4,
            profile_cache: None,
            ..Default::default()
        })
        .run(p)
        .unwrap()
    }

    #[test]
    fn regional_mix_close_to_whole() {
        let p = program();
        let r = pipeline_result(&p);
        let whole = run_whole_functional(&p, configs::allcache_table1());
        let regions = run_regions_functional(
            &p,
            &r.regional,
            configs::allcache_table1(),
            WarmupMode::None,
        )
        .unwrap();
        let agg = aggregate_weighted(&regions);
        let whole_agg = crate::metrics::whole_as_aggregate(&whole);
        for (a, b) in agg.mix_pct.iter().zip(&whole_agg.mix_pct) {
            assert!((a - b).abs() < 3.0, "mix {a} vs {b}");
        }
        // Sampling reduces executed instructions dramatically.
        assert!(agg.total_instructions < whole.instructions / 10);
    }

    #[test]
    fn warmup_reduces_l3_miss_rate_error() {
        let p = program();
        let r = pipeline_result(&p);
        let whole = run_whole_functional(&p, configs::allcache_table1());
        let whole_l3 = whole.cache.as_ref().unwrap().l3.miss_rate_pct();
        let cold = run_regions_functional(
            &p,
            &r.regional,
            configs::allcache_table1(),
            WarmupMode::None,
        )
        .unwrap();
        let warm = run_regions_functional(
            &p,
            &r.regional,
            configs::allcache_table1(),
            WarmupMode::Checkpointed,
        )
        .unwrap();
        let cold_l3 = aggregate_weighted(&cold).miss_rates.unwrap().l3;
        let warm_l3 = aggregate_weighted(&warm).miss_rates.unwrap().l3;
        let cold_err = (cold_l3 - whole_l3).abs();
        let warm_err = (warm_l3 - whole_l3).abs();
        assert!(
            warm_err <= cold_err + 1e-9,
            "warmup should not increase L3 error (cold {cold_err:.3}, warm {warm_err:.3})"
        );
        assert!(
            cold_l3 >= whole_l3,
            "cold regions should over-report the L3 miss rate (cold {cold_l3:.3}, whole {whole_l3:.3})"
        );
    }

    #[test]
    fn timing_regions_aggregate_to_plausible_cpi() {
        // A DRAM-light program: at the tiny test scale, heavily
        // memory-bound phases make CPI hypersensitive to which slice
        // represents a cluster, which is not what this test checks.
        let p = WorkloadSpec::builder("runs-cpi-test", 34)
            .total_insts(400_000)
            .phase(PhaseSpec::balanced(1.0))
            .phase(PhaseSpec::compute_bound(1.0))
            .interleave(InterleaveSpec {
                mean_segment: 20_000,
                jitter: 0.3,
                align: 2_000,
            })
            .build()
            .build();
        // Working sets do not shrink with the test scale, so regions need a
        // long warmup (the paper warms for 500 M cycles at full size).
        let r = Pipeline::new(PinPointsConfig {
            slice_size: 2_000,
            simpoint: SimPointOptions {
                max_k: 8,
                ..Default::default()
            },
            warmup_slices: 25,
            profile_cache: None,
            ..Default::default()
        })
        .run(&p)
        .unwrap();
        let whole = run_whole_timing(&p, CoreConfig::table3(), configs::i7_table3());
        let regions = run_regions_timing(
            &p,
            &r.regional,
            CoreConfig::table3(),
            configs::i7_table3(),
            WarmupMode::Checkpointed,
        )
        .unwrap();
        let agg = aggregate_weighted(&regions);
        let whole_cpi = whole.timing.unwrap().cpi();
        let sampled_cpi = agg.cpi.unwrap();
        let err = (sampled_cpi - whole_cpi).abs() / whole_cpi;
        assert!(
            err < 0.35,
            "sampled CPI {sampled_cpi:.3} too far from whole CPI {whole_cpi:.3}"
        );
        // And warmup must beat cold regions.
        let cold = aggregate_weighted(
            &run_regions_timing(
                &p,
                &r.regional,
                CoreConfig::table3(),
                configs::i7_table3(),
                WarmupMode::None,
            )
            .unwrap(),
        );
        let cold_err = (cold.cpi.unwrap() - whole_cpi).abs() / whole_cpi;
        assert!(
            err <= cold_err + 0.05,
            "warmup should not be much worse than cold (warm {err:.3}, cold {cold_err:.3})"
        );
    }

    #[test]
    fn region_length_respected() {
        let p = program();
        let r = pipeline_result(&p);
        let m = run_region_functional(
            &p,
            &r.regional[0],
            configs::allcache_table1(),
            WarmupMode::None,
        )
        .unwrap();
        assert_eq!(m.instructions, 1_000);
    }

    #[test]
    fn foreign_pinball_rejected() {
        let p = program();
        let other = WorkloadSpec::builder("other", 99)
            .total_insts(10_000)
            .phase(PhaseSpec::balanced(1.0))
            .build()
            .build();
        let r = pipeline_result(&p);
        let err = run_region_functional(
            &other,
            &r.regional[0],
            configs::allcache_table1(),
            WarmupMode::None,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Pinball(_)));
    }
}
