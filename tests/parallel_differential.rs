//! Differential harness for the parallel execution layer.
//!
//! The contract under test: for every job count, the parallel profiling
//! pass and the parallel regional replays produce output **bit-identical**
//! to the serial reference — same BBV matrices, same slice checkpoints,
//! same simulation-point selection and weights, same cache miss counts,
//! same aggregated CPI. No tolerances anywhere; floats are compared by
//! their bit patterns. The only field allowed to differ is
//! `wall_seconds`, which measures the host rather than the simulation
//! (`RunMetrics::deterministic_eq` excludes exactly that field).
//!
//! The grid crosses workload seeds and real suite benchmarks with job
//! counts 1, 2, 7 and the machine's available parallelism, so the suite
//! exercises fewer-workers-than-shards, more-workers-than-regions and
//! the dedicated cache-task path regardless of the host's core count.

use sampsim::cache::configs;
use sampsim::core::metrics::{aggregate_weighted, RunMetrics};
use sampsim::core::runs::{
    run_region_functional, run_regions_functional_jobs, run_regions_timing_jobs, WarmupMode,
};
use sampsim::core::stage_cache::{profile_stage_key, MemoryStageCache, ProfileStage, StageCache};
use sampsim::core::{PinPointsConfig, Pipeline};
use sampsim::exec::Jobs;
use sampsim::simpoint::{
    SamplingStrategy, SimPointAnalysis, SimPointOptions, SimPointStrategy, StrategyInput,
    StrategySpec,
};
use sampsim::spec2017::{benchmark, BenchmarkId};
use sampsim::uarch::CoreConfig;
use sampsim::util::scale::Scale;
use sampsim::workload::spec::{InterleaveSpec, PhaseSpec, WorkloadSpec};
use sampsim::workload::Program;

/// The job counts every comparison is repeated for.
fn job_grid() -> Vec<Jobs> {
    vec![
        Jobs::new(1).unwrap(),
        Jobs::new(2).unwrap(),
        Jobs::new(7).unwrap(),
        Jobs::Auto,
    ]
}

/// Synthetic programs with different phase mixes and interleavings, so
/// shard boundaries land in structurally different places per seed.
fn synthetic(seed: u64) -> Program {
    WorkloadSpec::builder("par-diff", seed)
        .total_insts(120_000 + (seed % 3) * 17_000)
        .phase(PhaseSpec::balanced(1.0))
        .phase(PhaseSpec::memory_bound(0.8))
        .phase(PhaseSpec::compute_bound(0.6))
        .interleave(InterleaveSpec {
            mean_segment: 4_000 + (seed % 5) * 700,
            jitter: 0.35,
            align: 0,
        })
        .build()
        .build()
}

fn config(profile_cache: bool) -> PinPointsConfig {
    PinPointsConfig {
        slice_size: 1_000,
        simpoint: SimPointOptions {
            max_k: 8,
            ..Default::default()
        },
        warmup_slices: 5,
        profile_cache: profile_cache.then(configs::allcache_table1),
        strategy: StrategySpec::SimPoint,
    }
}

fn assert_metrics_identical(a: &RunMetrics, b: &RunMetrics, what: &str) {
    assert!(
        a.deterministic_eq(b),
        "{what}: metrics diverge\n serial: {a:?}\n parallel: {b:?}"
    );
}

fn assert_f64_bits(a: f64, b: f64, what: &str) {
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{what}: {a:?} vs {b:?} differ in bits"
    );
}

/// Profiling pass: BBV matrix, slice checkpoints and whole-run metrics
/// (mix + cache counters) must be bit-identical for every job count.
fn check_profile(program: &Program, profile_cache: bool, label: &str) {
    let pipeline = Pipeline::new(config(profile_cache));
    let (ref_bbvs, ref_starts, ref_metrics) = pipeline.profile(program);
    assert!(!ref_bbvs.is_empty());
    for jobs in job_grid() {
        let (bbvs, starts, metrics) = pipeline.profile_jobs(program, jobs);
        assert_eq!(bbvs, ref_bbvs, "{label}: BBV matrix (jobs = {jobs})");
        assert_eq!(starts, ref_starts, "{label}: slice cursors (jobs = {jobs})");
        assert_metrics_identical(
            &ref_metrics,
            &metrics,
            &format!("{label}: whole-run profile (jobs = {jobs})"),
        );
    }
}

/// Full pipeline: the simulation-point selection (k, assignments, BIC
/// scores, weights) and the regional pinballs must be identical.
fn check_pipeline(program: &Program, profile_cache: bool, label: &str) {
    let pipeline = Pipeline::new(config(profile_cache));
    let reference = pipeline.run(program).unwrap();
    for jobs in job_grid() {
        let result = pipeline.run_jobs(program, jobs).unwrap();
        assert_eq!(
            result.simpoints, reference.simpoints,
            "{label}: simpoint selection (jobs = {jobs})"
        );
        assert_eq!(
            result.regional, reference.regional,
            "{label}: regional pinballs (jobs = {jobs})"
        );
        assert_eq!(result.whole, reference.whole, "{label}: whole pinball");
        assert_eq!(result.num_slices, reference.num_slices);
        assert_metrics_identical(
            &reference.whole_metrics,
            &result.whole_metrics,
            &format!("{label}: pipeline whole metrics (jobs = {jobs})"),
        );
        for (r, s) in result.regional.iter().zip(&reference.regional) {
            assert_f64_bits(
                r.weight,
                s.weight,
                &format!("{label}: weight (jobs = {jobs})"),
            );
        }
    }
}

/// Functional regional replays: per-region cache miss counts and the
/// weighted aggregate must be bit-identical. The batch replays reuse one
/// reset hierarchy per worker, so the serial batch is also checked region
/// by region against replays on a freshly built hierarchy.
fn check_functional_replay(program: &Program, label: &str) {
    let pipeline = Pipeline::new(config(false));
    let result = pipeline.run(program).unwrap();
    for warmup in [WarmupMode::None, WarmupMode::Checkpointed] {
        let reference = run_regions_functional_jobs(
            program,
            &result.regional,
            configs::allcache_table1(),
            warmup,
            sampsim::exec::SERIAL,
        )
        .unwrap();
        for (i, (pb, (rm, _))) in result.regional.iter().zip(&reference).enumerate() {
            let fresh =
                run_region_functional(program, pb, configs::allcache_table1(), warmup).unwrap();
            assert_metrics_identical(
                &fresh,
                rm,
                &format!("{label}: region {i} ({warmup:?}) fresh vs reused hierarchy"),
            );
        }
        for jobs in job_grid() {
            let parallel = run_regions_functional_jobs(
                program,
                &result.regional,
                configs::allcache_table1(),
                warmup,
                jobs,
            )
            .unwrap();
            assert_eq!(parallel.len(), reference.len());
            for (i, ((rm, rw), (pm, pw))) in reference.iter().zip(&parallel).enumerate() {
                let what = format!("{label}: region {i} ({warmup:?}, jobs = {jobs})");
                assert_metrics_identical(rm, pm, &what);
                assert_f64_bits(*rw, *pw, &what);
                assert_eq!(
                    rm.cache.as_ref().unwrap().l3.misses,
                    pm.cache.as_ref().unwrap().l3.misses,
                    "{what}: L3 miss count"
                );
            }
            let ra = aggregate_weighted(&reference);
            let pa = aggregate_weighted(&parallel);
            assert_eq!(ra.total_l3_accesses, pa.total_l3_accesses);
            for (a, b) in ra.mix_pct.iter().zip(&pa.mix_pct) {
                assert_f64_bits(*a, *b, &format!("{label}: aggregate mix (jobs = {jobs})"));
            }
            let (rmr, pmr) = (ra.miss_rates.unwrap(), pa.miss_rates.unwrap());
            for (a, b) in [rmr.l1i, rmr.l1d, rmr.l2, rmr.l3]
                .iter()
                .zip(&[pmr.l1i, pmr.l1d, pmr.l2, pmr.l3])
            {
                assert_f64_bits(*a, *b, &format!("{label}: miss rates (jobs = {jobs})"));
            }
        }
    }
}

/// Timing replays: the weighted CPI — a float reduction, the most
/// order-sensitive output in the system — must be bit-identical.
fn check_timing_replay(program: &Program, label: &str) {
    let pipeline = Pipeline::new(config(false));
    let result = pipeline.run(program).unwrap();
    let reference = run_regions_timing_jobs(
        program,
        &result.regional,
        CoreConfig::table3(),
        configs::i7_table3(),
        WarmupMode::Checkpointed,
        sampsim::exec::SERIAL,
    )
    .unwrap();
    let ref_cpi = aggregate_weighted(&reference).cpi.unwrap();
    for jobs in job_grid() {
        let parallel = run_regions_timing_jobs(
            program,
            &result.regional,
            CoreConfig::table3(),
            configs::i7_table3(),
            WarmupMode::Checkpointed,
            jobs,
        )
        .unwrap();
        for (i, ((rm, _), (pm, _))) in reference.iter().zip(&parallel).enumerate() {
            assert_metrics_identical(
                rm,
                pm,
                &format!("{label}: timing region {i} (jobs = {jobs})"),
            );
        }
        let cpi = aggregate_weighted(&parallel).cpi.unwrap();
        assert_f64_bits(
            ref_cpi,
            cpi,
            &format!("{label}: aggregated CPI (jobs = {jobs})"),
        );
    }
}

#[test]
fn profile_is_bit_identical_across_job_counts() {
    for seed in [11, 12, 13] {
        let program = synthetic(seed);
        check_profile(&program, false, &format!("seed {seed}"));
    }
}

#[test]
fn profile_with_cache_task_is_bit_identical() {
    // profile_cache = Some exercises the dedicated whole-run cache task
    // overlapped with the BBV shards.
    for seed in [11, 14] {
        let program = synthetic(seed);
        check_profile(&program, true, &format!("seed {seed} (cache)"));
    }
}

/// The stored profile stage with its host-dependent `wall_seconds`
/// zeroed, re-encoded: the bytes every job count must agree on.
fn stage_bytes_without_wall(bytes: &[u8]) -> Vec<u8> {
    let mut stage = ProfileStage::from_bytes(bytes).expect("stored stage decodes");
    stage.metrics.wall_seconds = 0.0;
    stage.to_bytes()
}

#[test]
fn cached_pipeline_is_bit_identical_on_miss_and_hit() {
    // With `profile_cache` set, every job count from 2 up overlaps the
    // whole-run cache truth with region selection. A stage-cache miss
    // (which stores the stage after the truth joins) and the hit that
    // follows must both reproduce the serial pipeline, and the stored
    // stage must hold the serial profile.
    let program = synthetic(23);
    let pipeline = Pipeline::new(config(true));
    let key = profile_stage_key(&program, pipeline.config());
    let serial_cache = MemoryStageCache::new();
    let reference = pipeline
        .run_jobs_cached(&program, sampsim::exec::SERIAL, &serial_cache)
        .unwrap();
    let reference_stage = stage_bytes_without_wall(&serial_cache.get(key).unwrap());
    for jobs in [1, 2, 3, 7]
        .map(|n| Jobs::new(n).unwrap())
        .into_iter()
        .chain([Jobs::Auto])
    {
        let cache = MemoryStageCache::new();
        for (pass, expect_hits) in [("miss", 0), ("hit", 1)] {
            let hits_before = cache.hits();
            let result = pipeline.run_jobs_cached(&program, jobs, &cache).unwrap();
            let what = format!("{pass} (jobs = {jobs})");
            assert_eq!(
                cache.hits() - hits_before,
                expect_hits,
                "{what}: stage-cache hits"
            );
            assert_eq!(cache.len(), 1, "{what}: one stored stage");
            assert_eq!(result.simpoints, reference.simpoints, "{what}: selection");
            assert_eq!(result.regional, reference.regional, "{what}: pinballs");
            assert_eq!(result.replicates, reference.replicates, "{what}");
            assert_eq!(result.whole, reference.whole, "{what}: whole pinball");
            assert_eq!(result.num_slices, reference.num_slices, "{what}");
            assert_metrics_identical(
                &reference.whole_metrics,
                &result.whole_metrics,
                &format!("{what}: whole metrics"),
            );
            assert_eq!(
                stage_bytes_without_wall(&cache.get(key).unwrap()),
                reference_stage,
                "{what}: stored stage bytes"
            );
        }
    }
}

#[test]
fn pipeline_results_are_bit_identical_across_job_counts() {
    let program = synthetic(21);
    check_pipeline(&program, true, "seed 21");
}

#[test]
fn functional_replays_are_bit_identical_across_job_counts() {
    let program = synthetic(31);
    check_functional_replay(&program, "seed 31");
}

#[test]
fn timing_replays_and_cpi_are_bit_identical_across_job_counts() {
    let program = synthetic(41);
    check_timing_replay(&program, "seed 41");
}

#[test]
fn suite_benchmarks_are_bit_identical_across_job_counts() {
    // Real suite workloads at a reduced scale: phase interleavings and
    // slice counts the synthetic seeds do not produce (including a
    // non-multiple-of-slice tail).
    for id in [BenchmarkId::McfR, BenchmarkId::XzR] {
        let program = benchmark(id).scaled(Scale::new(0.001)).build();
        check_profile(&program, true, id.name());
        check_pipeline(&program, false, id.name());
    }
}

#[test]
fn kmeans_restarts_are_bit_identical_across_job_counts() {
    // The clustering restarts themselves now fan out over the worker
    // pool: the serial best-of fold and every parallel job count must
    // pick the same winner, bit for bit — including the naive reference
    // kernel, which shares the restart seed schedule.
    use sampsim::simpoint::project::RandomProjection;
    use sampsim::simpoint::{kmeans_best_of, kmeans_best_of_jobs, kmeans_best_of_reference};

    let program = synthetic(77);
    let pipeline = Pipeline::new(config(false));
    let (bbvs, _, _) = pipeline.profile(&program);
    let projection = RandomProjection::new(15, 0x51AB_0DD5);
    let data = projection.project_all_normalized(&bbvs);
    let n = bbvs.len();
    for k in [2, 7] {
        let serial = kmeans_best_of(&data, n, 15, k, 60, 9, 5).unwrap();
        let naive = kmeans_best_of_reference(&data, n, 15, k, 60, 9, 5).unwrap();
        assert_eq!(serial.assignments, naive.assignments, "pruned vs naive");
        assert_f64_bits(serial.inertia, naive.inertia, "pruned vs naive inertia");
        for jobs in job_grid() {
            let par = kmeans_best_of_jobs(&data, n, 15, k, 60, 9, 5, jobs).unwrap();
            let what = format!("restarts k={k} (jobs = {jobs})");
            assert_eq!(par.k, serial.k, "{what}: k");
            assert_eq!(par.iterations, serial.iterations, "{what}: iterations");
            assert_eq!(par.assignments, serial.assignments, "{what}: assignments");
            assert_f64_bits(par.inertia, serial.inertia, &format!("{what}: inertia"));
            assert_eq!(par.centroids.len(), serial.centroids.len());
            for (a, b) in par.centroids.iter().zip(&serial.centroids) {
                assert_f64_bits(*a, *b, &format!("{what}: centroid"));
            }
        }
    }
}

#[test]
fn simpoint_through_trait_is_bit_identical_to_legacy() {
    // The strategy refactor's zero-drift guarantee: SimPoint dispatched
    // through the `SamplingStrategy` trait must reproduce the legacy
    // `SimPointAnalysis` entry point bit for bit — selection, weights,
    // assignments, BIC scores, and the regional pinballs (cursors,
    // warmup records) derived from them — across seeds × benchmarks ×
    // job counts.
    let suite: Vec<(String, Program)> = [31u64, 32, 33]
        .iter()
        .map(|&seed| (format!("seed {seed}"), synthetic(seed)))
        .chain([BenchmarkId::McfR, BenchmarkId::XzR].iter().map(|&id| {
            (
                id.name().to_string(),
                benchmark(id).scaled(Scale::new(0.001)).build(),
            )
        }))
        .collect();
    for (label, program) in &suite {
        let pipeline = Pipeline::new(config(false));
        let (bbvs, starts, _) = pipeline.profile(program);
        let opts = config(false).simpoint;
        for jobs in [Jobs::new(1).unwrap(), Jobs::new(2).unwrap(), Jobs::Auto] {
            let legacy = SimPointAnalysis::new(opts)
                .run_jobs(&bbvs, 1_000, jobs)
                .unwrap();
            let selection = SimPointStrategy::new(opts)
                .select(
                    &StrategyInput {
                        bbvs: &bbvs,
                        slice_size: 1_000,
                    },
                    jobs,
                )
                .unwrap();
            let (via_trait, replicates) = selection.into_parts(1_000);
            assert_eq!(via_trait, legacy, "{label}: selection (jobs = {jobs})");
            assert!(replicates.is_empty(), "{label}: simpoint has no replicates");
            for (a, b) in via_trait.points.iter().zip(&legacy.points) {
                assert_f64_bits(a.weight, b.weight, &format!("{label}: weight bits"));
            }
            for (a, b) in via_trait.bic_scores.iter().zip(&legacy.bic_scores) {
                assert_eq!(a.0, b.0, "{label}: BIC k");
                assert_f64_bits(a.1, b.1, &format!("{label}: BIC score bits"));
            }
            // Downstream checkpoints (cursors + warmup) match too.
            let regional_trait = pipeline.regionals_for(program, &via_trait, &starts);
            let regional_legacy = pipeline.regionals_for(program, &legacy, &starts);
            assert_eq!(
                regional_trait, regional_legacy,
                "{label}: regional pinballs (jobs = {jobs})"
            );
        }
        // The full pipeline (which now always dispatches through the
        // trait) agrees with the legacy analysis run serially.
        let result = pipeline.run(program).unwrap();
        let legacy = SimPointAnalysis::new(opts)
            .run_jobs(&bbvs, 1_000, sampsim::exec::SERIAL)
            .unwrap();
        assert_eq!(result.simpoints, legacy, "{label}: pipeline selection");
        assert!(result.replicates.is_empty());
    }
}

#[test]
fn simpoint_analyze_is_bit_identical_across_job_counts_on_both_paths() {
    // Up to `sample_size` slices, `analyze` scores every candidate k on
    // the full matrix and reuses the sweep's winner at the chosen k as
    // its final clustering; above it, k is scored on a subsample and the
    // final clustering runs again over every slice. Both paths must be
    // job-count invariant, and on both the final clustering must be
    // exactly the naive best-of-restarts reference at the chosen k over
    // every slice.
    use sampsim::simpoint::kmeans_best_of_reference;
    use sampsim::simpoint::project::RandomProjection;

    let program = synthetic(61);
    let (bbvs, _, _) = Pipeline::new(config(false)).profile(&program);
    let n = bbvs.len();
    assert!(n >= 30, "need room for a subsample, got {n} slices");
    for (path, sample_size) in [("subsample", n / 3), ("reuse", n)] {
        let opts = SimPointOptions {
            sample_size,
            ..config(false).simpoint
        };
        let serial = SimPointStrategy::new(opts)
            .analyze(&bbvs, 1_000, sampsim::exec::SERIAL)
            .unwrap();
        let data = RandomProjection::new(opts.dim, opts.seed).project_all_normalized(&bbvs);
        let reference = kmeans_best_of_reference(
            &data,
            n,
            opts.dim,
            serial.k,
            opts.max_iter,
            opts.seed.wrapping_add(serial.k as u64),
            opts.n_init,
        )
        .unwrap();
        assert_eq!(serial.assignments, reference.assignments, "{path}: final");
        assert_f64_bits(
            serial.avg_variance,
            reference.avg_variance(),
            &format!("{path}: final variance"),
        );
        for jobs in job_grid() {
            let par = SimPointStrategy::new(opts)
                .analyze(&bbvs, 1_000, jobs)
                .unwrap();
            assert_eq!(par, serial, "{path}: analysis (jobs = {jobs})");
            assert_f64_bits(
                par.avg_variance,
                serial.avg_variance,
                &format!("{path}: variance bits (jobs = {jobs})"),
            );
            for (a, b) in par.bic_scores.iter().zip(&serial.bic_scores) {
                assert_f64_bits(a.1, b.1, &format!("{path}: BIC k={} (jobs = {jobs})", a.0));
            }
            for (a, b) in par.points.iter().zip(&serial.points) {
                assert_f64_bits(
                    a.weight,
                    b.weight,
                    &format!("{path}: weight (jobs = {jobs})"),
                );
            }
        }
    }
}

#[test]
fn new_strategies_are_bit_identical_across_job_counts() {
    // stratified2p and rss are jobs-oblivious by construction, but the
    // pipeline around them (sharded profiling, cached stages) is not —
    // the whole run must still be bit-identical for every job count,
    // including the replicate sets rss derives its error bars from.
    for name in ["stratified2p", "rss"] {
        let program = synthetic(51);
        let mut cfg = config(false);
        cfg.strategy = StrategySpec::parse(name).unwrap();
        let pipeline = Pipeline::new(cfg);
        let reference = pipeline.run(&program).unwrap();
        assert!(!reference.regional.is_empty(), "{name}");
        let weight: f64 = reference.regional.iter().map(|pb| pb.weight).sum();
        assert!((weight - 1.0).abs() < 1e-9, "{name}: weights sum {weight}");
        for jobs in job_grid() {
            let result = pipeline.run_jobs(&program, jobs).unwrap();
            assert_eq!(
                result.simpoints, reference.simpoints,
                "{name}: selection (jobs = {jobs})"
            );
            assert_eq!(
                result.regional, reference.regional,
                "{name}: regional pinballs (jobs = {jobs})"
            );
            assert_eq!(
                result.replicates, reference.replicates,
                "{name}: replicate sets (jobs = {jobs})"
            );
            for (r, s) in result.regional.iter().zip(&reference.regional) {
                assert_f64_bits(r.weight, s.weight, &format!("{name}: weight bits"));
            }
        }
    }
}

#[test]
fn single_slice_program_profiles_identically() {
    // Degenerate sharding: the whole program fits in one slice, so every
    // job count must collapse to the serial path.
    let program = WorkloadSpec::builder("one-slice", 5)
        .total_insts(900)
        .phase(PhaseSpec::balanced(1.0))
        .build()
        .build();
    check_profile(&program, true, "single slice");
}
