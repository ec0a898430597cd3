//! The PinPoints pipeline: one profiling pass → simulation points →
//! checkpoints.

use crate::error::CoreError;
use crate::metrics::RunMetrics;
use sampsim_analyze::{
    lint_sampling_config, lint_soundness, Report, SamplingConfig, SoundnessInput,
};
use sampsim_cache::HierarchyConfig;
use sampsim_exec::Jobs;
use sampsim_pin::engine;
use sampsim_pin::tools::{BbvTool, CacheSim, LdStMix, MixCounts};
use sampsim_pinball::{RegionalPinball, WarmupRecord, WholePinball};
use sampsim_simpoint::bbv::Bbv;
use sampsim_simpoint::{
    RandomProjection, SimPoint, SimPointOptions, SimPointsResult, StrategyInput, StrategySpec,
    StreamingProjector,
};
use sampsim_workload::{Cursor, Executor, Program};
use std::time::Instant;

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PinPointsConfig {
    /// Slice length in instructions (the paper's sweep settles on 30 M,
    /// 1/3000-scaled to 10 000).
    pub slice_size: u64,
    /// SimPoint analysis options (`MaxK`, projection, BIC threshold…).
    pub simpoint: SimPointOptions,
    /// Warmup length recorded into each regional pinball, in slices.
    /// The paper warms for 500 M cycles before each simulation point —
    /// on the order of 1–1.5 B instructions at its CPIs, i.e. ~48 default
    /// slices at the 1/3000 scale.
    pub warmup_slices: u64,
    /// Cache hierarchy profiled during the whole-run pass (Table I), or
    /// `None` to skip cache simulation in the profiling pass.
    pub profile_cache: Option<HierarchyConfig>,
    /// Region-selection strategy. The default (`simpoint`) reproduces the
    /// paper's method via [`SimPointOptions`]; `stratified2p` and `rss`
    /// carry their own parameters. The profiling pass is strategy-agnostic
    /// — stage-cached BBVs are reused across strategies (only
    /// [`crate::stage_cache::response_key`] covers the strategy).
    pub strategy: StrategySpec,
}

impl Default for PinPointsConfig {
    fn default() -> Self {
        Self {
            slice_size: 10_000,
            simpoint: SimPointOptions::default(),
            warmup_slices: 48,
            profile_cache: None,
            strategy: StrategySpec::SimPoint,
        }
    }
}

impl PinPointsConfig {
    /// Runs the `sampsim-analyze` config lint pass over this
    /// configuration. `expected_slices` (when the target program is known)
    /// enables the run-length proportionality checks (`SA022`, `SA028`).
    pub fn lint(&self, expected_slices: Option<u64>) -> Report {
        lint_sampling_config(&SamplingConfig {
            slice_size: self.slice_size,
            warmup_slices: self.warmup_slices,
            simpoint: &self.simpoint,
            profile_cache: self.profile_cache.as_ref(),
            expected_slices,
        })
    }
}

/// Everything the pipeline produces for one program.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Checkpoint of the complete execution.
    pub whole: WholePinball,
    /// Whole-run metrics collected during the profiling pass (instruction
    /// mix always; cache stats when `profile_cache` was set).
    pub whole_metrics: RunMetrics,
    /// The SimPoint analysis outcome.
    pub simpoints: SimPointsResult,
    /// One checkpoint per simulation point, with weights and warmup
    /// records.
    pub regional: Vec<RegionalPinball>,
    /// Number of slices the execution divided into.
    pub num_slices: u64,
    /// Repeated-subsampling point sets, when the strategy produces them
    /// (`rss` does; single-shot strategies leave this empty). Feed each
    /// set through [`Pipeline::regionals_for`] to turn the spread of
    /// per-replicate estimates into error bars.
    pub replicates: Vec<Vec<SimPoint>>,
}

/// Proof that the full static-analysis preflight ran for one
/// (program, configuration) pair — the analysis-deduplication token
/// shared between serve request validation and the pipeline.
///
/// Only [`Pipeline::preflight_checked`] constructs one; the private `key`
/// binds the report to the exact inputs it was computed from, so a token
/// presented with a different program or configuration is ignored and the
/// preflight re-runs (never-wrong, merely slower).
#[derive(Debug, Clone)]
pub struct Preflight {
    report: Report,
    key: u64,
}

impl Preflight {
    /// The preflight's findings (all severities).
    pub fn report(&self) -> &Report {
        &self.report
    }
}

/// Runs the PinPoints flow over a program.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PinPointsConfig,
}

impl Pipeline {
    /// Creates a pipeline.
    pub fn new(config: PinPointsConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PinPointsConfig {
        &self.config
    }

    /// Executes the profiling pass, clustering and checkpoint creation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when the configuration fails its lint
    /// pass (error-severity diagnostics only — warnings do not block the
    /// run), or [`CoreError::SimPoint`] when the program is too short to
    /// produce a single slice.
    pub fn run(&self, program: &Program) -> Result<PipelineResult, CoreError> {
        self.run_jobs(program, sampsim_exec::SERIAL)
    }

    /// [`Pipeline::run`] with the profiling pass sharded over `jobs`
    /// workers. The result is bit-identical to the serial run for every
    /// job count (see `docs/parallelism.md` for the argument and
    /// `tests/parallel_differential.rs` for the proof).
    ///
    /// # Errors
    ///
    /// Exactly as [`Pipeline::run`].
    pub fn run_jobs(&self, program: &Program, jobs: Jobs) -> Result<PipelineResult, CoreError> {
        self.run_jobs_cached(program, jobs, &crate::stage_cache::NoCache)
    }

    /// [`Pipeline::run_jobs`] with the profiling stage memoized through
    /// `cache` (see [`crate::stage_cache`]). On a hit the whole-program
    /// execution is skipped and the stored BBVs, slice cursors and metrics
    /// are reused; undecodable or mismatched entries fall back to a full
    /// recompute, so a corrupt cache can cost time but never correctness.
    /// Every output is bit-identical to the uncached run.
    ///
    /// # Errors
    ///
    /// Exactly as [`Pipeline::run`].
    pub fn run_jobs_cached(
        &self,
        program: &Program,
        jobs: Jobs,
        cache: &dyn crate::stage_cache::StageCache,
    ) -> Result<PipelineResult, CoreError> {
        let preflight = self.preflight_checked(program);
        self.run_jobs_cached_preflighted(program, jobs, cache, &preflight)
    }

    /// [`Pipeline::run_jobs_cached`] reusing an already-computed
    /// [`Preflight`]. This is the analysis-deduplication entry: callers
    /// that already ran the full lint pass to validate a request (the
    /// serve daemon, the CLI `run` path) hand the result back instead of
    /// paying for a second identical pass inside the pipeline. A token
    /// minted for a *different* program or configuration is detected by
    /// its key and the preflight silently re-runs — a stale token can
    /// cost time but never skip validation.
    ///
    /// # Errors
    ///
    /// Exactly as [`Pipeline::run`].
    pub fn run_jobs_cached_preflighted(
        &self,
        program: &Program,
        jobs: Jobs,
        cache: &dyn crate::stage_cache::StageCache,
        preflight: &Preflight,
    ) -> Result<PipelineResult, CoreError> {
        let fresh;
        let preflight = if preflight.key == self.preflight_key(program) {
            preflight
        } else {
            fresh = self.preflight_checked(program);
            &fresh
        };
        if preflight.report.has_errors() {
            return Err(CoreError::Config(
                preflight.report.clone().into_diagnostics(),
            ));
        }
        let (stage, selected) = self.cached_profile_then(program, jobs, cache, |bbvs, starts| {
            self.select_regions(program, bbvs, starts, jobs)
        });
        let (simpoints, replicates, regional) = selected?;
        Ok(PipelineResult {
            whole: WholePinball::capture(program),
            whole_metrics: stage.metrics,
            simpoints,
            regional,
            num_slices: stage.bbvs.len() as u64,
            replicates,
        })
    }

    /// The profile stage of `program`, reused from `cache` or computed and
    /// then stored, with `then` run on its BBVs and slice cursors. On a
    /// miss `then` runs as soon as the BBV pass ends, while the whole-run
    /// cache truth may still be running (see [`Pipeline::profile_then`]),
    /// and the stage is stored once the truth has joined, whether or not
    /// `then` succeeded.
    fn cached_profile_then<R>(
        &self,
        program: &Program,
        jobs: Jobs,
        cache: &dyn crate::stage_cache::StageCache,
        then: impl FnOnce(&[Bbv], &[Cursor]) -> R,
    ) -> (crate::stage_cache::ProfileStage, R) {
        use crate::stage_cache::{profile_stage_key, ProfileStage};

        let key = profile_stage_key(program, &self.config);
        let cached = cache
            .get(key)
            .filter(|bytes| ProfileStage::peek_matches(bytes, program, &self.config))
            .and_then(|bytes| ProfileStage::from_bytes(&bytes).ok())
            .filter(|stage| stage.matches(program, &self.config));
        if let Some(stage) = cached {
            let r = then(&stage.bbvs, &stage.starts);
            return (stage, r);
        }
        let (bbvs, starts, metrics, r) = self.profile_then(program, jobs, Vec::new, then);
        let stage = ProfileStage {
            bbvs,
            starts,
            metrics,
        };
        cache.put(key, &stage.to_bytes());
        (stage, r)
    }

    /// Region selection and checkpoint creation over one profile.
    fn select_regions(
        &self,
        program: &Program,
        bbvs: &[Bbv],
        starts: &[Cursor],
        jobs: Jobs,
    ) -> Result<Selected, CoreError> {
        // -- Region selection through the strategy trait. The `simpoint`
        // strategy runs the exact code `SimPointAnalysis::run_jobs` always
        // ran (every (k, restart) clustering fans out over the same
        // workers); the differential suite pins this dispatch
        // bit-identical to the pre-trait path.
        let strategy = self.config.strategy.build(&self.config.simpoint);
        let selection = strategy.select(
            &StrategyInput {
                bbvs,
                slice_size: self.config.slice_size,
            },
            jobs,
        )?;
        let (simpoints, replicates) = selection.into_parts(self.config.slice_size);

        // -- Regional pinballs.
        let regional = self.make_regionals(program, &simpoints, starts);
        Ok((simpoints, replicates, regional))
    }

    /// The full static-analysis preflight: configuration lints plus the
    /// program-level passes — IR structure, phase-graph shape, and (when a
    /// cache hierarchy is configured) the memory abstract interpretation
    /// against its geometry. [`Pipeline::run`] refuses to execute on
    /// error-severity findings; callers wanting the warnings/notes (CLI
    /// `lint`, the serve daemon) call this directly.
    pub fn preflight(&self, program: &Program) -> sampsim_analyze::Report {
        let expected_slices = (self.config.slice_size > 0)
            .then(|| program.total_insts().div_ceil(self.config.slice_size));
        let mut report = self.config.lint(expected_slices);
        report.merge(sampsim_analyze::lint_program(program));
        report.merge(sampsim_analyze::lint_phase_graph(
            program.name(),
            program.phases().len(),
            program.schedule(),
        ));
        if let Some(hierarchy) = &self.config.profile_cache {
            report.merge(sampsim_analyze::lint_memory(program, hierarchy));
        }
        if let Some(num_slices) = expected_slices {
            report.merge(lint_soundness(&SoundnessInput {
                strategy: &self.config.strategy,
                simpoint: &self.config.simpoint,
                slice_size: self.config.slice_size,
                warmup_slices: self.config.warmup_slices,
                num_slices,
                total_insts: program.total_insts(),
                materialized_budget_bytes: sampsim_analyze::DEFAULT_MATERIALIZED_BUDGET_BYTES,
            }));
        }
        report
    }

    /// Runs [`Pipeline::preflight`] and binds the result to this
    /// (program, configuration) pair. The returned token is what
    /// [`Pipeline::run_jobs_cached_preflighted`] accepts; it cannot be
    /// constructed any other way, so holding one proves the full lint
    /// pass ran.
    pub fn preflight_checked(&self, program: &Program) -> Preflight {
        Preflight {
            report: self.preflight(program),
            key: self.preflight_key(program),
        }
    }

    /// The identity a [`Preflight`] token is bound to: the stage-cache
    /// response key already covers the program digest, slicing, warmup,
    /// SimPoint options and strategy fingerprint — exactly the inputs the
    /// preflight reads.
    fn preflight_key(&self, program: &Program) -> u64 {
        crate::stage_cache::response_key(program, &self.config)
    }

    fn make_regionals(
        &self,
        program: &Program,
        simpoints: &SimPointsResult,
        starts: &[Cursor],
    ) -> Vec<RegionalPinball> {
        let slice = self.config.slice_size;
        simpoints
            .points
            .iter()
            .map(|p| {
                let idx = p.slice as usize;
                let mut pb = RegionalPinball::new(
                    program,
                    p.slice,
                    starts[idx].clone(),
                    slice,
                    p.weight,
                    p.cluster,
                );
                if self.config.warmup_slices > 0 {
                    let chunks = warmup_chunks(
                        idx,
                        p.cluster,
                        &simpoints.assignments,
                        starts,
                        slice,
                        self.config.warmup_slices,
                    );
                    pb = pb.with_warmup(chunks);
                }
                pb
            })
            .collect()
    }

    /// Re-derives regional pinballs for a different analysis result (e.g. a
    /// different `MaxK`) without re-running the profiling pass. `starts`
    /// must come from the same program and slice size.
    pub fn regionals_for(
        &self,
        program: &Program,
        simpoints: &SimPointsResult,
        starts: &[Cursor],
    ) -> Vec<RegionalPinball> {
        self.make_regionals(program, simpoints, starts)
    }

    /// Runs only the profiling pass — a single whole execution collecting
    /// per-slice BBVs, slice-boundary checkpoints, the `ldstmix` profile
    /// and (when `profile_cache` is set) `allcache` statistics. The design
    /// sweeps re-cluster this profile many ways without re-executing.
    pub fn profile(&self, program: &Program) -> (Vec<Bbv>, Vec<Cursor>, RunMetrics) {
        self.profile_jobs(program, sampsim_exec::SERIAL)
    }

    /// [`Pipeline::profile`] sharded over `jobs` workers.
    ///
    /// The slice range is split into contiguous shards. A serial prologue
    /// fast-forwards an untooled executor to capture each shard's resume
    /// cursor (checkpoint/resume is bit-exact, so a shard observes exactly
    /// the instruction stream the whole-program walk would have produced);
    /// shards then profile their slices concurrently and the per-shard
    /// BBVs, slice cursors and mix counts are stitched back together in
    /// slice order. The cache simulator has sequentially-dependent state
    /// across the whole run, so when `profile_cache` is set a dedicated
    /// task walks the full program with only the cache tool, on a worker
    /// of its own beside the BBV shards.
    ///
    /// Every output except `wall_seconds` is bit-identical to the serial
    /// pass for every job count.
    pub fn profile_jobs(
        &self,
        program: &Program,
        jobs: Jobs,
    ) -> (Vec<Bbv>, Vec<Cursor>, RunMetrics) {
        let (bbvs, starts, metrics, ()) = self.profile_then(program, jobs, Vec::new, |_, _| ());
        (bbvs, starts, metrics)
    }

    /// The streaming profile: one profiling pass that projects each
    /// slice's BBV to `simpoint.dim` dimensions *as it is harvested* and
    /// discards the sparse BBV immediately, returning the flat row-major
    /// projected matrix instead of the BBV set. Peak memory is
    /// `O(num_slices * dim + distinct_blocks * dim)` — the full BBV set
    /// (which dominates at large slice counts) is never materialized.
    ///
    /// The rows are **bit-identical** to
    /// `RandomProjection::project_all_normalized(profile())`: each shard
    /// worker owns a [`sampsim_simpoint::StreamingProjector`] (projection
    /// matrix rows are a pure function of `(seed, block)`, so per-shard
    /// row caches cannot diverge), per-BBV accumulation order is
    /// unchanged, and shard outputs concatenate in slice order. The
    /// differential suite pins this across seeds, benchmarks and job
    /// counts.
    pub fn profile_projected(&self, program: &Program) -> (Vec<f64>, Vec<Cursor>, RunMetrics) {
        self.profile_projected_jobs(program, sampsim_exec::SERIAL)
    }

    /// [`Pipeline::profile_projected`] sharded over `jobs` workers; same
    /// sharding scheme as [`Pipeline::profile_jobs`].
    pub fn profile_projected_jobs(
        &self,
        program: &Program,
        jobs: Jobs,
    ) -> (Vec<f64>, Vec<Cursor>, RunMetrics) {
        let o = &self.config.simpoint;
        let projection = RandomProjection::new(o.dim, o.seed);
        let (rows, starts, metrics, ()) =
            self.profile_then(program, jobs, || projection.streaming(), |_, _| ());
        (rows, starts, metrics)
    }

    /// The profiling pass behind every `profile*` method, followed by a
    /// continuation: each shard keeps its harvested slices in a sink from
    /// `new_sink`, and `then` runs on the concatenated sink items and
    /// slice cursors as soon as the BBV pass ends.
    ///
    /// From two workers up, the whole-run cache truth runs on a thread of
    /// its own, started before the BBV shards, which share the remaining
    /// workers. It is joined only after `then` returns, so `then` (region
    /// selection, for [`Pipeline::run_jobs_cached_preflighted`]) overlaps
    /// the rest of the truth. This changes no bits: the truth reads only
    /// the program, and `then` reads only the BBVs and cursors. A panic in
    /// the truth propagates at the join. `wall_seconds` runs from the
    /// start of the pass until both the BBV pass and the truth have
    /// finished, excluding `then`.
    ///
    /// With one worker (or at most one slice) the pass is the serial
    /// single walk with every tool attached, and `then` follows it.
    fn profile_then<S: SliceSink, R>(
        &self,
        program: &Program,
        jobs: Jobs,
        new_sink: impl Fn() -> S + Sync,
        then: impl FnOnce(&[S::Item], &[Cursor]) -> R,
    ) -> (Vec<S::Item>, Vec<Cursor>, RunMetrics, R) {
        let slice = self.config.slice_size;
        assert!(slice > 0, "slice size must be positive");
        let started = Instant::now();
        let num_slices = program.total_insts().div_ceil(slice);
        let workers = jobs.get();
        if workers <= 1 || num_slices <= 1 {
            let (items, starts, metrics) = self.profile_serial(program, new_sink(), started);
            let r = then(&items, &starts);
            return (items, starts, metrics, r);
        }
        let truth = self.config.profile_cache;
        let shard_workers = workers - usize::from(truth.is_some());
        let num_shards = (shard_workers as u64).min(num_slices);
        std::thread::scope(|scope| {
            let truth = truth.map(|config| {
                scope.spawn(move || {
                    let mut cs = CacheSim::new(config);
                    let mut exec = Executor::new(program);
                    engine::run_one(&mut exec, u64::MAX, &mut cs);
                    (cs.stats(), Instant::now())
                })
            });
            let (items, starts, mix, instructions) =
                self.profile_shards(program, num_shards, &new_sink);
            let mut finished = Instant::now();
            let r = then(&items, &starts);
            let cache = truth.map(|handle| {
                let (stats, done) = handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                finished = finished.max(done);
                stats
            });
            let metrics = RunMetrics {
                instructions,
                mix,
                cache,
                timing: None,
                wall_seconds: finished.duration_since(started).as_secs_f64(),
            };
            (items, starts, metrics, r)
        })
    }

    /// The BBV/mix half of a sharded profiling pass: `num_shards`
    /// contiguous shards profiled concurrently, their sink items, slice
    /// cursors, mix counts and instruction counts stitched back together
    /// in slice order.
    fn profile_shards<S: SliceSink>(
        &self,
        program: &Program,
        num_shards: u64,
        new_sink: &(impl Fn() -> S + Sync),
    ) -> (Vec<S::Item>, Vec<Cursor>, MixCounts, u64) {
        let slice = self.config.slice_size;
        let num_slices = program.total_insts().div_ceil(slice);
        let shards = shard_plan(num_slices, num_shards);
        // Serial prologue: fast-forward (untooled) to each shard start.
        let mut tasks: Vec<(Cursor, u64)> = Vec::with_capacity(shards.len());
        let mut exec = Executor::new(program);
        for (i, shard) in shards.iter().enumerate() {
            tasks.push((exec.cursor(), shard.count));
            if i + 1 < shards.len() {
                exec.skip(shard.count * slice);
            }
        }
        let jobs = Jobs::new(tasks.len()).expect("at least one shard");
        let outputs = sampsim_exec::parallel_map(jobs, &tasks, |_, (start, slices)| {
            let mut exec = Executor::with_cursor(program, start.clone());
            let mut tools = (BbvTool::new(program.blocks().len()), LdStMix::new());
            let mut sink = new_sink();
            let mut starts = Vec::with_capacity(*slices as usize);
            let ran = engine::run_slices(&mut exec, slice, *slices, &mut tools, |t, start, _| {
                starts.push(start);
                sink.push(Bbv::from_counts(t.0.harvest()));
            });
            (sink.into_items(), starts, *tools.1.counts(), ran)
        });

        // Deterministic reduction: shard outputs are concatenated in
        // slice order (the task list is ordered by shard start).
        let mut items = Vec::new();
        let mut starts = Vec::with_capacity(num_slices as usize);
        let mut mix_total = MixCounts::new();
        let mut instructions = 0u64;
        for (shard_items, shard_starts, mix, ran) in outputs {
            items.extend(shard_items);
            starts.extend(shard_starts);
            mix_total.merge(&mix);
            instructions += ran;
        }
        (items, starts, mix_total, instructions)
    }

    /// The single-threaded profiling pass with every tool attached (the
    /// reference semantics every sharded run must reproduce bit-for-bit).
    fn profile_serial<S: SliceSink>(
        &self,
        program: &Program,
        mut sink: S,
        started: Instant,
    ) -> (Vec<S::Item>, Vec<Cursor>, RunMetrics) {
        let slice = self.config.slice_size;
        let mut exec = Executor::new(program);
        let mut tools = (
            BbvTool::new(program.blocks().len()),
            LdStMix::new(),
            self.config.profile_cache.map(CacheSim::new),
        );
        let mut starts = Vec::new();
        engine::run_slices(&mut exec, slice, u64::MAX, &mut tools, |t, start, _| {
            starts.push(start);
            sink.push(Bbv::from_counts(t.0.harvest()));
        });
        let metrics = RunMetrics {
            instructions: exec.retired(),
            mix: *tools.1.counts(),
            cache: tools.2.map(|c| c.stats()),
            timing: None,
            wall_seconds: started.elapsed().as_secs_f64(),
        };
        (sink.into_items(), starts, metrics)
    }
}

/// A selection's points, its replicate point sets and one regional
/// pinball per point.
type Selected = (SimPointsResult, Vec<Vec<SimPoint>>, Vec<RegionalPinball>);

/// What a profiling pass keeps of each harvested slice's BBV.
trait SliceSink: Send {
    /// One kept element: a BBV, or one coordinate of a projected row.
    type Item: Send;
    /// Takes the next slice's BBV.
    fn push(&mut self, bbv: Bbv);
    /// The kept elements, in slice order.
    fn into_items(self) -> Vec<Self::Item>;
}

impl SliceSink for Vec<Bbv> {
    type Item = Bbv;
    fn push(&mut self, bbv: Bbv) {
        Vec::push(self, bbv);
    }
    fn into_items(self) -> Vec<Bbv> {
        self
    }
}

/// Project-and-drop: the sparse BBV lives only for the `push` call.
impl SliceSink for StreamingProjector {
    type Item = f64;
    fn push(&mut self, bbv: Bbv) {
        self.push_normalized(&bbv);
    }
    fn into_items(self) -> Vec<f64> {
        self.into_rows()
    }
}

/// A contiguous range of slices owned by one shard.
struct Shard {
    count: u64,
}

/// Splits `num_slices` into `num_shards` contiguous, non-empty, nearly
/// equal ranges (the first `num_slices % num_shards` shards take one
/// extra slice).
fn shard_plan(num_slices: u64, num_shards: u64) -> Vec<Shard> {
    debug_assert!(num_shards >= 1 && num_shards <= num_slices);
    let base = num_slices / num_shards;
    let extra = num_slices % num_shards;
    (0..num_shards)
        .map(|i| Shard {
            count: base + u64::from(i < extra),
        })
        .collect()
}

/// Selects warmup slices for the region at `idx`: the most recent
/// `warmup_slices` slices *belonging to the region's cluster* (plus the
/// region's immediate predecessors, which are usually the same thing),
/// coalesced into contiguous chunks in chronological order.
///
/// Rationale (DESIGN.md scaling policy): at full scale PinPoints warms with
/// the instructions directly preceding the region; at 1/3000 scale those
/// may belong to a different phase, while the whole run's cache state for
/// this region was accumulated across the *phase's* earlier residencies.
/// Warming with same-cluster slices reproduces the resident footprint
/// without touching the region's own transient (streaming/pointer-chase)
/// addresses.
fn warmup_chunks(
    idx: usize,
    cluster: u32,
    assignments: &[u32],
    starts: &[Cursor],
    slice: u64,
    warmup_slices: u64,
) -> Vec<WarmupRecord> {
    let mut picked: Vec<usize> = Vec::new();
    let mut j = idx;
    while j > 0 && (picked.len() as u64) < warmup_slices {
        j -= 1;
        // Same-cluster predecessors; also accept the region's direct
        // neighbours (they share the microarchitectural context even when
        // assigned to an adjacent cluster).
        // Without an assignment vector (baseline samplers build synthetic
        // point sets), fall back to the plain preceding window.
        let same_cluster = assignments.get(j).is_none_or(|&a| a == cluster);
        if same_cluster || idx - j <= 2 {
            picked.push(j);
        }
    }
    picked.reverse();
    // Coalesce consecutive slice indices into chunks.
    let mut chunks: Vec<WarmupRecord> = Vec::new();
    let mut run_start: Option<(usize, usize)> = None; // (first, last)
    for &s in &picked {
        match run_start {
            Some((first, last)) if s == last + 1 => run_start = Some((first, s)),
            Some((first, last)) => {
                chunks.push(WarmupRecord {
                    start: starts[first].clone(),
                    insts: (last - first + 1) as u64 * slice,
                });
                run_start = Some((s, s));
            }
            None => run_start = Some((s, s)),
        }
    }
    if let Some((first, last)) = run_start {
        chunks.push(WarmupRecord {
            start: starts[first].clone(),
            insts: (last - first + 1) as u64 * slice,
        });
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_cache::configs;
    use sampsim_workload::spec::{InterleaveSpec, PhaseSpec, WorkloadSpec};

    fn program() -> Program {
        WorkloadSpec::builder("pipe-test", 21)
            .total_insts(200_000)
            .phase(PhaseSpec::balanced(1.0))
            .phase(PhaseSpec::memory_bound(1.0))
            .phase(PhaseSpec::compute_bound(1.0))
            .interleave(InterleaveSpec {
                mean_segment: 8_000,
                jitter: 0.4,
                align: 0,
            })
            .build()
            .build()
    }

    fn config() -> PinPointsConfig {
        PinPointsConfig {
            slice_size: 1_000,
            simpoint: SimPointOptions {
                max_k: 10,
                ..Default::default()
            },
            warmup_slices: 3,
            profile_cache: None,
            strategy: StrategySpec::SimPoint,
        }
    }

    #[test]
    fn pipeline_end_to_end() {
        let p = program();
        let r = Pipeline::new(config()).run(&p).unwrap();
        assert_eq!(r.num_slices, p.total_insts().div_ceil(1_000));
        assert_eq!(r.whole_metrics.instructions, p.total_insts());
        assert_eq!(r.whole.length, p.total_insts());
        assert!(!r.regional.is_empty());
        assert!(r.regional.len() <= 10);
        let w: f64 = r.regional.iter().map(|pb| pb.weight).sum();
        assert!((w - 1.0).abs() < 1e-9);
        // Regional pinballs start at their slice's boundary.
        for pb in &r.regional {
            assert_eq!(pb.start.retired, pb.slice_index * 1_000);
            assert_eq!(pb.length, 1_000);
        }
    }

    #[test]
    fn warmup_chunks_attached_except_at_program_start() {
        let p = program();
        let r = Pipeline::new(config()).run(&p).unwrap();
        for pb in &r.regional {
            if pb.slice_index == 0 {
                assert!(pb.warmup.is_empty(), "slice 0 has no predecessors");
                continue;
            }
            assert!(
                !pb.warmup.is_empty(),
                "slice {} lacks warmup",
                pb.slice_index
            );
            let total = pb.warmup_insts();
            assert!(total > 0 && total <= 3_000);
            // Chunks are chronological, non-overlapping, slice-aligned,
            // and end at or before the region start.
            let mut prev_end = 0;
            for w in &pb.warmup {
                assert!(w.start.retired >= prev_end);
                assert_eq!(w.start.retired % 1_000, 0);
                prev_end = w.start.retired + w.insts;
            }
            assert!(prev_end <= pb.start.retired + 1_000);
            // The final chunk covers the slice immediately before the
            // region (its direct context).
            let last = pb.warmup.last().unwrap();
            assert_eq!(last.start.retired + last.insts, pb.start.retired);
        }
    }

    #[test]
    fn profile_cache_collects_stats() {
        let p = program();
        let mut cfg = config();
        cfg.profile_cache = Some(configs::allcache_table1());
        let r = Pipeline::new(cfg).run(&p).unwrap();
        let cache = r.whole_metrics.cache.unwrap();
        assert_eq!(cache.l1i.accesses, p.total_insts());
        assert!(cache.l1d.accesses > 0);
    }

    #[test]
    fn failing_selection_still_stores_the_stage_and_returns_the_serial_error() {
        use crate::stage_cache::{profile_stage_key, MemoryStageCache, ProfileStage, StageCache};
        use sampsim_simpoint::{SamplingStrategy, SimPointStrategy};

        let p = program();
        let mut cfg = config();
        cfg.profile_cache = Some(configs::allcache_table1());
        let pipe = Pipeline::new(cfg);
        let key = profile_stage_key(&p, pipe.config());
        // Selection with MaxK 0 fails on any BBVs. From two workers up it
        // runs while the cache truth is still running.
        let broken = SimPointStrategy::new(SimPointOptions {
            max_k: 0,
            ..Default::default()
        });
        let (serial, _, _) = pipe.profile(&p);
        let mut errors = Vec::new();
        for n in [1, 2, 3] {
            let jobs = Jobs::new(n).unwrap();
            let cache = MemoryStageCache::new();
            let (stage, selected) = pipe.cached_profile_then(&p, jobs, &cache, |bbvs, _| {
                broken
                    .select(
                        &StrategyInput {
                            bbvs,
                            slice_size: 1_000,
                        },
                        jobs,
                    )
                    .map_err(CoreError::from)
            });
            errors.push(format!("{:?}", selected.unwrap_err()));
            assert_eq!(cache.len(), 1, "jobs = {n}: the stage is stored");
            let stored = ProfileStage::from_bytes(&cache.get(key).unwrap()).unwrap();
            assert_eq!(stored.bbvs, serial, "jobs = {n}");
            assert!(
                stored.metrics.deterministic_eq(&stage.metrics),
                "jobs = {n}"
            );
            assert!(stage.metrics.cache.is_some(), "jobs = {n}: truth joined");
        }
        assert!(errors[0].contains("ZeroMaxK"), "{}", errors[0]);
        assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
    }

    #[test]
    fn profile_matches_run_bbv_count() {
        let p = program();
        let pipe = Pipeline::new(config());
        let (bbvs, starts, metrics) = pipe.profile(&p);
        let expected = p.total_insts().div_ceil(1_000) as usize;
        assert_eq!(bbvs.len(), expected);
        assert_eq!(starts.len(), expected);
        assert_eq!(metrics.instructions, p.total_insts());
        // Each full BBV accounts for exactly one slice of instructions.
        for bbv in &bbvs[..bbvs.len() - 1] {
            assert_eq!(bbv.l1_norm(), 1_000.0);
        }
    }

    #[test]
    fn projected_profile_matches_materialized_path_bitwise() {
        let p = program();
        let pipe = Pipeline::new(config());
        let (bbvs, starts, metrics) = pipe.profile(&p);
        let o = pipe.config().simpoint;
        let oracle = RandomProjection::new(o.dim, o.seed).project_all_normalized(&bbvs);
        for jobs in [
            sampsim_exec::SERIAL,
            Jobs::new(2).unwrap(),
            Jobs::new(3).unwrap(),
        ] {
            let (rows, s2, m2) = pipe.profile_projected_jobs(&p, jobs);
            assert_eq!(rows.len(), oracle.len(), "jobs={jobs}");
            for (i, (a, b)) in rows.iter().zip(&oracle).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "jobs={jobs} value {i}");
            }
            assert_eq!(s2, starts, "jobs={jobs}");
            assert_eq!(m2.instructions, metrics.instructions, "jobs={jobs}");
            assert_eq!(m2.mix, metrics.mix, "jobs={jobs}");
        }
    }

    #[test]
    fn deterministic_pipeline() {
        let p = program();
        let a = Pipeline::new(config()).run(&p).unwrap();
        let b = Pipeline::new(config()).run(&p).unwrap();
        assert_eq!(a.simpoints, b.simpoints);
        assert_eq!(a.regional, b.regional);
    }

    #[test]
    fn single_slice_program_collapses_to_one_point() {
        // Edge case: slice_size == total_insts, so the whole program is one
        // slice — one cluster, one point of weight 1, no warmup to attach.
        let p = WorkloadSpec::builder("one-slice", 9)
            .total_insts(5_000)
            .phase(PhaseSpec::balanced(1.0))
            .build()
            .build();
        let cfg = PinPointsConfig {
            slice_size: 5_000,
            simpoint: SimPointOptions {
                max_k: 10,
                ..Default::default()
            },
            warmup_slices: 3,
            profile_cache: None,
            strategy: StrategySpec::SimPoint,
        };
        let r = Pipeline::new(cfg).run(&p).unwrap();
        assert_eq!(r.num_slices, 1);
        assert_eq!(r.regional.len(), 1);
        let pb = &r.regional[0];
        assert_eq!(pb.slice_index, 0);
        assert_eq!(pb.length, 5_000);
        assert!((pb.weight - 1.0).abs() < 1e-12);
        assert!(pb.warmup.is_empty(), "slice 0 has no predecessors to warm");
        // A checkpointed-warmup replay of the single region must degrade
        // gracefully to a plain replay of the whole program.
        let m = crate::runs::run_region_functional(
            &p,
            pb,
            configs::allcache_table1(),
            crate::runs::WarmupMode::Checkpointed,
        )
        .unwrap();
        assert_eq!(m.instructions, 5_000);
        assert!(m.deterministic_eq(&m));
    }

    #[test]
    fn preflighted_run_reuses_the_token_instead_of_relinting() {
        // A config whose only defect is lint-visible: one rss replicate
        // is an SA144 error, but the pipeline runs fine mechanically
        // (replicates only matter for error bars). A forged clean token
        // with the *correct* key therefore makes the run succeed — proof
        // the preflight was actually skipped, not silently re-run.
        let p = program();
        let mut cfg = config();
        cfg.strategy =
            StrategySpec::parse_spec("rss:set_size=30,replicates=1").expect("valid spec");
        let pipe = Pipeline::new(cfg);
        assert!(matches!(pipe.run(&p), Err(CoreError::Config(_))));
        let forged = Preflight {
            report: Report::new(),
            key: pipe.preflight_key(&p),
        };
        let r = pipe.run_jobs_cached_preflighted(
            &p,
            sampsim_exec::SERIAL,
            &crate::stage_cache::NoCache,
            &forged,
        );
        assert!(r.is_ok(), "{:?}", r.err());
    }

    #[test]
    fn stale_preflight_tokens_fall_back_to_a_fresh_lint() {
        // A token minted for a clean config must not leak past a broken
        // one: the key mismatch forces a fresh preflight, which rejects.
        let p = program();
        let clean = Pipeline::new(config());
        let token = clean.preflight_checked(&p);
        assert!(!token.report().has_errors());
        let mut bad_cfg = config();
        bad_cfg.simpoint.bic_threshold = 1.5;
        let bad = Pipeline::new(bad_cfg);
        let r = bad.run_jobs_cached_preflighted(
            &p,
            sampsim_exec::SERIAL,
            &crate::stage_cache::NoCache,
            &token,
        );
        assert!(matches!(r, Err(CoreError::Config(_))));
    }

    #[test]
    fn preflight_carries_the_soundness_pass() {
        use sampsim_analyze::Rule;
        let p = program(); // 200 slices at slice_size 1000
        let mut cfg = config();
        // rss with a single replicate: SA144 is error-severity, so the
        // run is refused with the typed config error.
        cfg.strategy = StrategySpec::parse_spec("rss:set_size=30,replicates=1").unwrap();
        let pipe = Pipeline::new(cfg);
        let report = pipe.preflight(&p);
        assert!(report.fired(Rule::InsufficientReplicates));
        match pipe.run(&p) {
            Err(CoreError::Config(diags)) => {
                assert!(diags.iter().any(|d| d.rule == Rule::InsufficientReplicates));
            }
            other => panic!("expected a config error, got {other:?}"),
        }
        // The clean twin (replicates = 2) passes preflight and runs.
        let mut cfg = config();
        cfg.strategy = StrategySpec::parse_spec("rss:set_size=30,replicates=2").unwrap();
        let pipe = Pipeline::new(cfg);
        assert!(!pipe.preflight(&p).fired(Rule::InsufficientReplicates));
        assert!(pipe.run(&p).is_ok());
        // Warning-severity soundness findings surface in the report but
        // do not block: MaxK 10 yields 10 < 30 samples (SA140).
        let pipe = Pipeline::new(config());
        let report = pipe.preflight(&p);
        assert!(report.fired(Rule::SampleBelowClt));
        assert!(!report.has_errors());
        assert!(pipe.run(&p).is_ok());
    }

    #[test]
    fn simpoint_in_slice_zero_with_warmup_configured() {
        // Edge case: a simulation point in slice 0 while warmup_slices > 0.
        // There is nothing before slice 0, so the pinball must carry no
        // warmup records and still replay under every warmup mode.
        let p = program();
        let pipe = Pipeline::new(config());
        let (bbvs, starts, _) = pipe.profile(&p);
        let n = bbvs.len();
        assert!(warmup_chunks(0, 0, &vec![0; n], &starts, 1_000, 3).is_empty());
        let simpoints = SimPointsResult {
            k: 1,
            slice_size: 1_000,
            assignments: vec![0; n],
            points: vec![sampsim_simpoint::select::SimPoint {
                slice: 0,
                cluster: 0,
                weight: 1.0,
            }],
            bic_scores: Vec::new(),
            avg_variance: 0.0,
        };
        let regional = pipe.regionals_for(&p, &simpoints, &starts);
        assert_eq!(regional.len(), 1);
        assert_eq!(regional[0].slice_index, 0);
        assert!(regional[0].warmup.is_empty());
        for mode in [
            crate::runs::WarmupMode::None,
            crate::runs::WarmupMode::Checkpointed,
        ] {
            let m = crate::runs::run_region_functional(
                &p,
                &regional[0],
                configs::allcache_table1(),
                mode,
            )
            .unwrap();
            assert_eq!(m.instructions, 1_000, "{mode:?}");
        }
    }
}
