//! In-repo microbenchmark harness for the hot kernels.
//!
//! The optimized kernels this repo ships — bounds-pruned k-means
//! ([`sampsim_simpoint::kmeans`]), sparse cached-row BBV projection
//! ([`sampsim_simpoint::project`]) and the packed single-pass cache probe
//! ([`sampsim_cache::Cache::access_rw`]) — all promise *bit-identical*
//! results to their naive counterparts. This crate times them against
//! those counterparts on real pipeline inputs (BBVs regenerated from the
//! shipped `artifacts/*.art` benchmarks) and emits a machine-checkable
//! `BENCH_kernels.json` report. Every timed pair is also asserted
//! bit-identical, so a perf run doubles as a differential test.
//!
//! The v2 schema adds two things. Every kernel now carries a reference
//! timing and a speedup — the cache probe is timed against the frozen
//! pre-optimization [`sampsim_cache::ReferenceCache`]
//! (`cache_access_rw_reference`), with hit counters asserted identical.
//! And a *scaling* section sweeps a synthetic slices × MaxK grid (up to
//! a million slices) through the streaming projection + mini-batch
//! clustering path, asserting along the way that the streamed footprint
//! stays bounded by the batch size — peak-RSS deltas are measured from
//! `/proc/self/status` and must not approach what the materialized path
//! would need ([`sampsim_analyze::materialized_bytes_estimate`]).
//!
//! No external crates: timing is `std::time::Instant`, the report is a
//! hand-assembled JSON document, and [`validate_report`] checks it
//! against a schema declared with [`sampsim_util::json::Schema`].
//!
//! Wall-clock numbers are inherently machine-dependent; the report is for
//! trend tracking, not for byte-stable comparison. Everything *other*
//! than the `*_ms` fields is deterministic. [`compare_reports`] turns two
//! reports into a regression gate over the size-normalized rates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sampsim_cache::{Cache, CacheConfig, ReferenceCache};
use sampsim_core::artifacts::ArtifactStore;
use sampsim_core::pipeline::{PinPointsConfig, Pipeline};
use sampsim_core::BenchResult;
use sampsim_exec::Jobs;
use sampsim_simpoint::bbv::Bbv;
use sampsim_simpoint::kmeans::KmeansResult;
use sampsim_simpoint::project::RandomProjection;
use sampsim_simpoint::{
    kmeans_best_of_reference, kmeans_sweep_jobs, KmeansError, MiniBatchKmeans, SimPointOptions,
    MINIBATCH_BATCH,
};
use sampsim_spec2017::{benchmark, BenchmarkId};
use sampsim_util::json::{self, Schema, Value};
use sampsim_util::rng::SplitMix64;
use sampsim_util::scale::Scale;
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

/// Schema identifier written into (and required of) every report.
pub const SCHEMA: &str = "sampsim-perf-kernels/v2";

/// Upper bound on the peak-RSS delta any scaling-grid point may add: the
/// streamed path's state is O(dim * K + batch), so even the million-slice
/// point must fit far under this.
pub const MAX_STREAMING_RSS_DELTA_BYTES: u64 = 64 << 20;

/// Allowed slowdown between a fresh report and a baseline before
/// [`compare_reports`] fails: new rate > `1.10 *` old rate is a
/// regression.
pub const REGRESSION_TOLERANCE: f64 = 1.10;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// Quick mode: smallest shipped benchmark, coarser slices, reduced
    /// `k` sweep and a reduced scaling grid — a CI smoke test rather
    /// than a measurement.
    pub quick: bool,
    /// Directory holding the shipped `*.art` benchmark artifacts.
    pub artifacts_dir: PathBuf,
    /// Workload scale used when regenerating BBVs. The slice size scales
    /// with it, so the *number* of slices (the clustering input size)
    /// matches the full-scale benchmark either way.
    pub scale: Scale,
    /// Worker threads for the clustering restart sweep. Results are
    /// bit-identical for every job count (asserted against the serial
    /// naive reference on every run).
    pub jobs: Jobs,
}

impl Default for PerfOptions {
    fn default() -> Self {
        Self {
            quick: false,
            artifacts_dir: PathBuf::from("artifacts"),
            scale: Scale::TEST,
            jobs: Jobs::Auto,
        }
    }
}

/// Harness failure.
#[derive(Debug)]
pub enum PerfError {
    /// The selected benchmark name is unknown to the suite.
    NoBenchmark(String),
    /// A k-means kernel rejected its input.
    Kmeans(KmeansError),
    /// An optimized kernel diverged from its reference — a correctness
    /// bug, not a measurement problem.
    Mismatch(String),
    /// Artifact store or filesystem failure.
    Store(String),
    /// The streaming path materialized more memory than its contract
    /// allows — the peak-RSS delta of a scaling point exceeded
    /// [`MAX_STREAMING_RSS_DELTA_BYTES`].
    Memory(String),
}

impl fmt::Display for PerfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfError::NoBenchmark(name) => write!(f, "unknown benchmark '{name}'"),
            PerfError::Kmeans(e) => write!(f, "k-means failed: {e}"),
            PerfError::Mismatch(what) => {
                write!(f, "optimized kernel diverged from reference: {what}")
            }
            PerfError::Store(e) => write!(f, "artifact store: {e}"),
            PerfError::Memory(what) => {
                write!(f, "streaming memory contract violated: {what}")
            }
        }
    }
}

impl std::error::Error for PerfError {}

impl From<KmeansError> for PerfError {
    fn from(e: KmeansError) -> Self {
        PerfError::Kmeans(e)
    }
}

/// One timed kernel in the report.
#[derive(Debug, Clone)]
pub struct KernelTiming {
    /// Kernel name (`kmeans_sweep`, `bbv_projection`, `cache_access_rw`).
    pub name: &'static str,
    /// Naive-baseline wall time, when the baseline is kept in-tree.
    pub reference_ms: Option<f64>,
    /// Optimized-kernel wall time.
    pub optimized_ms: f64,
    /// `reference_ms / optimized_ms`, when a reference exists.
    pub speedup: Option<f64>,
    /// Deterministic work/checksum numbers (sizes, counts, inertia…).
    pub details: Vec<(&'static str, f64)>,
}

/// One point of the streaming scaling grid: `slices` synthetic BBVs
/// projected row-by-row and clustered with mini-batch k-means at
/// `max_k`, never materializing the profile.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Synthetic slice count streamed through the pipeline.
    pub slices: u64,
    /// Cluster count the mini-batch kernel ran at.
    pub max_k: usize,
    /// End-to-end wall time (generate + project + cluster).
    pub wall_ms: f64,
    /// `wall_ms * 1e6 / slices` — the size-normalized rate the
    /// regression gate compares.
    pub ns_per_slice: f64,
    /// Sum of the final centroids: a deterministic checksum pinning the
    /// streamed computation across runs and machines.
    pub centroid_checksum: f64,
    /// Peak-RSS growth (`VmHWM` delta) over the point, when the platform
    /// exposes it. Asserted `<=` [`MAX_STREAMING_RSS_DELTA_BYTES`].
    pub streamed_rss_delta_bytes: Option<u64>,
    /// What the materialized path would need for the same slice count
    /// ([`sampsim_analyze::materialized_bytes_estimate`]) — the contrast
    /// the streaming contract is measured against.
    pub materialized_estimate_bytes: u64,
}

/// A full harness run, serializable with [`PerfReport::to_json`].
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Benchmark the BBVs were regenerated from.
    pub benchmark: String,
    /// Whether this was a quick (smoke) run.
    pub quick: bool,
    /// Number of BBV slices fed to the clustering kernels.
    pub num_slices: u64,
    /// Projected dimensionality.
    pub dim: usize,
    /// The timed kernels.
    pub kernels: Vec<KernelTiming>,
    /// The streaming slices × MaxK scaling grid.
    pub scaling: Vec<ScalingPoint>,
}

/// The regenerated input set the kernels run over.
#[derive(Debug)]
pub struct PerfInput {
    /// Benchmark name the BBVs come from.
    pub benchmark: String,
    /// One BBV per slice.
    pub bbvs: Vec<Bbv>,
    /// Projected dimensionality for the clustering kernels.
    pub dim: usize,
    /// Cluster counts the sweep visits.
    pub ks: Vec<usize>,
    /// Restarts per `k`.
    pub n_init: u32,
    /// Lloyd iteration cap.
    pub max_iter: u32,
    /// Master seed (projection and clustering).
    pub seed: u64,
}

fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e3)
}

/// Picks the benchmark to measure: the largest shipped artifact by
/// full-scale work (`num_slices * slice_size`) — or the smallest in quick
/// mode. Falls back to a fixed choice when no artifact decodes.
pub fn select_benchmark(store: &ArtifactStore, quick: bool) -> String {
    let mut best: Option<(u128, String)> = None;
    for key in store.keys() {
        let Some(r) = store.load::<BenchResult>(&key) else {
            continue;
        };
        let work = u128::from(r.num_slices) * u128::from(r.slice_size);
        let better = match &best {
            None => true,
            Some((w, _)) => {
                if quick {
                    work < *w
                } else {
                    work > *w
                }
            }
        };
        if better {
            best = Some((work, r.name));
        }
    }
    best.map_or_else(
        || (if quick { "505.mcf_r" } else { "503.bwaves_r" }).to_string(),
        |(_, name)| name,
    )
}

/// Regenerates the BBV input set for the selected benchmark.
///
/// Slice size scales with `options.scale`, so the slice *count* equals the
/// full-scale benchmark's; quick mode coarsens slices 16x on top of that.
///
/// # Errors
///
/// [`PerfError::Store`] when the artifact directory cannot be opened,
/// [`PerfError::NoBenchmark`] when the selected name is not in the suite.
pub fn prepare_input(options: &PerfOptions) -> Result<PerfInput, PerfError> {
    let store = ArtifactStore::open(options.artifacts_dir.clone())
        .map_err(|e| PerfError::Store(e.to_string()))?;
    let name = select_benchmark(&store, options.quick);
    let id = BenchmarkId::from_name(&name).ok_or_else(|| PerfError::NoBenchmark(name.clone()))?;
    let program = benchmark(id).scaled(options.scale).build();
    let full_slice: u64 = if options.quick { 160_000 } else { 10_000 };
    let config = PinPointsConfig {
        slice_size: options.scale.apply(full_slice).max(1),
        ..PinPointsConfig::default()
    };
    let (bbvs, _, _) = Pipeline::new(config).profile(&program);
    let sp = SimPointOptions::default();
    // Quick mode sweeps a few small k's as a smoke test; measurement mode
    // runs the whole BIC sweep, k = 1..=MaxK, the shape `run` pays for.
    let ks: Vec<usize> = if options.quick {
        vec![2, 5, 8]
    } else {
        (1..=sp.max_k).collect()
    };
    let n = bbvs.len();
    let mut ks: Vec<usize> = ks.into_iter().filter(|&k| k <= n).collect();
    if ks.is_empty() {
        ks.push(1);
    }
    Ok(PerfInput {
        benchmark: name,
        bbvs,
        dim: sp.dim,
        ks,
        n_init: sp.n_init,
        max_iter: sp.max_iter,
        seed: sp.seed,
    })
}

fn ensure_identical(a: &KmeansResult, b: &KmeansResult, what: &str) -> Result<(), PerfError> {
    let same = a.k == b.k
        && a.iterations == b.iterations
        && a.assignments == b.assignments
        && a.inertia.to_bits() == b.inertia.to_bits()
        && a.centroids.len() == b.centroids.len()
        && a.centroids
            .iter()
            .zip(&b.centroids)
            .all(|(x, y)| x.to_bits() == y.to_bits());
    if same {
        Ok(())
    } else {
        Err(PerfError::Mismatch(format!("kmeans {what}")))
    }
}

/// Times the full clustering sweep — a serial per-`k` loop of naive
/// [`kmeans_best_of_reference`] vs one [`kmeans_sweep_jobs`] call, the
/// production sweep with every `(k, restart)` pair in one task list —
/// over every `k` in `input.ks`, asserting each pair of winners
/// bit-identical. The assertion doubles as the determinism proof for
/// `jobs`: whatever the worker count, the optimized side must reproduce
/// the serial naive result bit for bit.
///
/// # Errors
///
/// [`PerfError::Kmeans`] on invalid input, [`PerfError::Mismatch`] if the
/// pruned kernel ever diverges.
pub fn kmeans_sweep_kernel(
    data: &[f64],
    input: &PerfInput,
    reps: u32,
    jobs: Jobs,
) -> Result<KernelTiming, PerfError> {
    let n = input.bbvs.len();
    let dim = input.dim;
    // Each side is timed `reps` times and the minimum kept — the runs are
    // deterministic, so the minimum is the least-perturbed measurement.
    let mut naive = Vec::new();
    let mut reference_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let (r, ms) = time_ms(|| -> Result<Vec<KmeansResult>, KmeansError> {
            input
                .ks
                .iter()
                .map(|&k| {
                    kmeans_best_of_reference(
                        data,
                        n,
                        dim,
                        k,
                        input.max_iter,
                        input.seed,
                        input.n_init,
                    )
                })
                .collect()
        });
        naive = r?;
        reference_ms = reference_ms.min(ms);
    }
    let seeded: Vec<(usize, u64)> = input.ks.iter().map(|&k| (k, input.seed)).collect();
    let mut pruned = Vec::new();
    let mut optimized_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let (r, ms) = time_ms(|| {
            kmeans_sweep_jobs(data, n, dim, &seeded, input.max_iter, input.n_init, jobs)
        });
        pruned = r?;
        optimized_ms = optimized_ms.min(ms);
    }
    for ((a, b), &k) in naive.iter().zip(&pruned).zip(&input.ks) {
        ensure_identical(a, b, &format!("k={k}"))?;
    }
    let last_inertia = pruned.last().map_or(0.0, |r| r.inertia);
    Ok(KernelTiming {
        name: "kmeans_sweep",
        reference_ms: Some(reference_ms),
        optimized_ms,
        speedup: Some(reference_ms / optimized_ms),
        details: vec![
            ("points", n as f64),
            ("dim", dim as f64),
            ("max_k", input.ks.iter().copied().max().unwrap_or(0) as f64),
            ("sweep_len", input.ks.len() as f64),
            ("n_init", f64::from(input.n_init)),
            ("final_inertia", last_inertia),
        ],
    })
}

/// Times BBV projection — the per-slice clone-and-project baseline vs the
/// sparse batched [`RandomProjection::project_all_normalized`] — and
/// asserts the outputs bit-identical.
///
/// # Errors
///
/// [`PerfError::Mismatch`] if the batched path diverges.
pub fn projection_kernel(input: &PerfInput, reps: u32) -> Result<KernelTiming, PerfError> {
    let projection = RandomProjection::new(input.dim, input.seed);
    // Min-of-reps on both sides: every rep is the same deterministic pass,
    // so the minimum is the least-perturbed measurement on a noisy host and
    // the reported ns/BBV stays comparable across runs.
    let mut baseline = Vec::new();
    let mut reference_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let (_, ms) = time_ms(|| {
            baseline.clear();
            for bbv in &input.bbvs {
                baseline.extend(projection.project(&bbv.normalized()));
            }
        });
        reference_ms = reference_ms.min(ms);
    }
    let mut batched = Vec::new();
    let mut optimized_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let (out, ms) = time_ms(|| projection.project_all_normalized(&input.bbvs));
        batched = out;
        optimized_ms = optimized_ms.min(ms);
    }
    if baseline.len() != batched.len()
        || baseline
            .iter()
            .zip(&batched)
            .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err(PerfError::Mismatch("bbv projection".to_string()));
    }
    let checksum: f64 = batched.iter().sum();
    Ok(KernelTiming {
        name: "bbv_projection",
        reference_ms: Some(reference_ms),
        optimized_ms,
        speedup: Some(reference_ms / optimized_ms),
        details: vec![
            ("bbvs", input.bbvs.len() as f64),
            ("dim", input.dim as f64),
            ("reps", f64::from(reps)),
            (
                "ns_per_bbv",
                optimized_ms * 1e6 / input.bbvs.len().max(1) as f64,
            ),
            ("checksum", checksum),
        ],
    })
}

/// Times the [`Cache::access_rw`] probe loop: a seeded random
/// read/write stream over a 128 KiB working set against a 32 KiB 8-way
/// LRU cache (misses exercise the victim path). The packed kernel is
/// timed against the frozen pre-optimization [`ReferenceCache`] on the
/// identical access stream, with the hit counters asserted equal — the
/// fast path's counters are bit-identical by contract.
///
/// Each side is timed `reps` times (fresh simulator, identical stream)
/// and the minimum kept — the loops are deterministic, so the minimum is
/// the least-perturbed measurement.
///
/// # Errors
///
/// [`PerfError::Mismatch`] if the packed cache's hit count ever differs
/// from the reference model's.
pub fn cache_kernel(accesses: u64, reps: u32) -> Result<KernelTiming, PerfError> {
    let config = CacheConfig::new(32 << 10, 8, 64, 1);
    let mut reference_ms = f64::INFINITY;
    let mut ref_hits = 0u64;
    for _ in 0..reps.max(1) {
        let mut reference = ReferenceCache::new(config);
        let mut rng = SplitMix64::new(0xC0FF_EE00);
        let mut run_hits = 0u64;
        let (_, ms) = time_ms(|| {
            for i in 0..accesses {
                let addr = rng.next_u64() & 0x1_FFFF;
                run_hits += u64::from(reference.access_rw(addr, i % 4 == 0, true));
            }
        });
        reference_ms = reference_ms.min(ms);
        ref_hits = run_hits;
    }
    let mut optimized_ms = f64::INFINITY;
    let mut hits = 0u64;
    for _ in 0..reps.max(1) {
        let mut cache = Cache::new(config);
        let mut rng = SplitMix64::new(0xC0FF_EE00);
        let mut run_hits = 0u64;
        let (_, ms) = time_ms(|| {
            for i in 0..accesses {
                let addr = rng.next_u64() & 0x1_FFFF;
                // Branchless accumulation: a data-dependent branch here
                // would mispredict on every fourth access and dominate
                // the timing.
                run_hits += u64::from(cache.access_rw(addr, i % 4 == 0, true));
            }
        });
        optimized_ms = optimized_ms.min(ms);
        hits = run_hits;
    }
    if hits != ref_hits {
        return Err(PerfError::Mismatch(format!(
            "cache hits: packed {hits}, reference {ref_hits}"
        )));
    }
    Ok(KernelTiming {
        name: "cache_access_rw",
        reference_ms: Some(reference_ms),
        optimized_ms,
        speedup: Some(reference_ms / optimized_ms),
        details: vec![
            ("accesses", accesses as f64),
            ("ns_per_access", optimized_ms * 1e6 / accesses as f64),
            ("hits", hits as f64),
        ],
    })
}

/// Current peak resident-set size (`VmHWM`) in bytes, from
/// `/proc/self/status`. `None` on platforms without procfs; the scaling
/// assertion is skipped there.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Deterministic synthetic BBV for the scaling grid: eight phases of 64
/// slices each cycling through disjoint block bases, 16 blocks per slice
/// with seeded counts. The block universe stays ≤ 512, so the projector's
/// per-block row work is bounded and the grid measures streaming
/// throughput rather than hash-table growth.
pub fn synthetic_bbv(seed: u64, i: u64) -> Bbv {
    let mut rng = SplitMix64::new(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let phase = (i / 64) % 8;
    let base = (phase as u32) * 64;
    let counts: Vec<(u32, u32)> = (0..16)
        .map(|j| (base + j * 4, 1 + (rng.next_u64() % 100) as u32))
        .collect();
    Bbv::from_counts(counts)
}

/// Runs one scaling-grid point: streams `slices` synthetic BBVs through
/// per-row projection into [`MiniBatchKmeans`], one pass, discarding each
/// row after it is pushed. Peak memory is O(dim · `max_k` + batch) — the
/// per-slice profile is never materialized, which is the whole contract.
///
/// # Errors
///
/// [`PerfError::Kmeans`] if the mini-batch kernel rejects its shape,
/// [`PerfError::Memory`] if the measured peak-RSS delta exceeds
/// [`MAX_STREAMING_RSS_DELTA_BYTES`].
pub fn scaling_point(
    slices: u64,
    max_k: usize,
    dim: usize,
    seed: u64,
    reps: u32,
) -> Result<ScalingPoint, PerfError> {
    let rss_before = peak_rss_bytes();
    let projection = RandomProjection::new(dim, seed);
    let batch = MINIBATCH_BATCH.min(usize::try_from(slices).unwrap_or(usize::MAX).max(1));
    // Each rep is a complete, independent streaming pass; the minimum wall
    // time is the rate the baseline gate compares, and every rep must land
    // on bit-identical centroids (the pass is fully deterministic).
    let mut wall_ms = f64::INFINITY;
    let mut centroids: Vec<f64> = Vec::new();
    for rep in 0..reps.max(1) {
        let mut mb = MiniBatchKmeans::new(dim, max_k, batch, seed)?;
        let (out, ms) = time_ms(|| -> Result<Vec<f64>, KmeansError> {
            for i in 0..slices {
                let bbv = synthetic_bbv(seed, i);
                let row = projection.project(&bbv.normalized());
                mb.push(&row);
            }
            mb.finish()
        });
        let out = out?;
        if rep > 0
            && (out.len() != centroids.len()
                || out
                    .iter()
                    .zip(&centroids)
                    .any(|(a, b)| a.to_bits() != b.to_bits()))
        {
            return Err(PerfError::Mismatch(format!(
                "streaming pass diverged across reps at {slices} slices, k={max_k}"
            )));
        }
        centroids = out;
        wall_ms = wall_ms.min(ms);
    }
    // VmHWM is a monotonic high-water mark, so the delta is exactly the
    // growth this point caused (saturating: another thread cannot shrink
    // it, but a prior phase may already have raised it past us).
    let streamed_rss_delta_bytes = match (rss_before, peak_rss_bytes()) {
        (Some(before), Some(after)) => Some(after.saturating_sub(before)),
        _ => None,
    };
    if let Some(delta) = streamed_rss_delta_bytes {
        if delta > MAX_STREAMING_RSS_DELTA_BYTES {
            return Err(PerfError::Memory(format!(
                "{slices} slices at k={max_k} grew peak RSS by {delta} bytes \
                 (limit {MAX_STREAMING_RSS_DELTA_BYTES})"
            )));
        }
    }
    Ok(ScalingPoint {
        slices,
        max_k,
        wall_ms,
        ns_per_slice: wall_ms * 1e6 / slices.max(1) as f64,
        centroid_checksum: centroids.iter().sum(),
        streamed_rss_delta_bytes,
        materialized_estimate_bytes: sampsim_analyze::materialized_bytes_estimate(slices, dim),
    })
}

/// The slices × MaxK grid a full run sweeps; quick mode keeps only the
/// smallest point (which the full grid shares, so quick runs remain
/// comparable to a full baseline).
pub fn scaling_grid(quick: bool) -> Vec<(u64, usize)> {
    if quick {
        vec![(10_000, 8)]
    } else {
        vec![
            (10_000, 8),
            (10_000, 35),
            (100_000, 8),
            (100_000, 35),
            (1_000_000, 8),
            (1_000_000, 35),
        ]
    }
}

/// Runs the whole harness: input regeneration, all three kernels and the
/// streaming scaling grid. `progress` receives one human-readable line
/// per completed stage.
///
/// # Errors
///
/// As the individual stages.
pub fn run_kernels(
    options: &PerfOptions,
    mut progress: impl FnMut(&str),
) -> Result<PerfReport, PerfError> {
    let input = prepare_input(options)?;
    progress(&format!(
        "regenerated {} BBV slices from {} (sweep ks = {:?}, {} restarts, {} jobs)",
        input.bbvs.len(),
        input.benchmark,
        input.ks,
        input.n_init,
        options.jobs.get()
    ));
    let projection = RandomProjection::new(input.dim, input.seed);
    let data = projection.project_all_normalized(&input.bbvs);

    let kmeans = kmeans_sweep_kernel(
        &data,
        &input,
        if options.quick { 1 } else { 3 },
        options.jobs,
    )?;
    progress(&format!(
        "kmeans_sweep: {:.1} ms reference, {:.1} ms pruned ({:.2}x)",
        kmeans.reference_ms.unwrap_or(0.0),
        kmeans.optimized_ms,
        kmeans.speedup.unwrap_or(0.0)
    ));

    let reps = if options.quick { 5 } else { 3 };
    let proj = projection_kernel(&input, reps)?;
    progress(&format!(
        "bbv_projection: {:.1} ms baseline, {:.1} ms sparse ({:.2}x)",
        proj.reference_ms.unwrap_or(0.0),
        proj.optimized_ms,
        proj.speedup.unwrap_or(0.0)
    ));

    let accesses = if options.quick { 1_000_000 } else { 16_000_000 };
    let cache = cache_kernel(accesses, if options.quick { 3 } else { 5 })?;
    progress(&format!(
        "cache_access_rw: {:.1} ms packed vs {:.1} ms reference model for {} accesses ({:.2}x)",
        cache.optimized_ms,
        cache.reference_ms.unwrap_or(0.0),
        accesses,
        cache.speedup.unwrap_or(0.0)
    ));

    let mut scaling = Vec::new();
    for (slices, max_k) in scaling_grid(options.quick) {
        // Small points are cheap enough to repeat aggressively; the
        // million-slice passes are long enough to be stable with fewer.
        let point_reps = if slices >= 1_000_000 { 3 } else { 7 };
        let point = scaling_point(slices, max_k, input.dim, input.seed, point_reps)?;
        progress(&format!(
            "scaling: {} slices at k={}: {:.1} ms ({:.0} ns/slice), \
             rss delta {}, materialized would need {} MiB",
            point.slices,
            point.max_k,
            point.wall_ms,
            point.ns_per_slice,
            point
                .streamed_rss_delta_bytes
                .map_or("n/a".to_string(), |b| format!("{} KiB", b >> 10)),
            point.materialized_estimate_bytes >> 20
        ));
        scaling.push(point);
    }

    Ok(PerfReport {
        benchmark: input.benchmark,
        quick: options.quick,
        num_slices: input.bbvs.len() as u64,
        dim: input.dim,
        kernels: vec![kmeans, proj, cache],
        scaling,
    })
}

impl PerfReport {
    /// Renders the report as a JSON document (hand-assembled; floats go
    /// through [`json::number`] like every sampsim writer).
    pub fn to_json(&self) -> String {
        let kernels: Vec<String> = self
            .kernels
            .iter()
            .map(|k| {
                let mut fields = vec![format!("\"name\":{}", json::string(k.name))];
                if let Some(r) = k.reference_ms {
                    fields.push(format!("\"reference_ms\":{}", json::number(r)));
                }
                fields.push(format!("\"optimized_ms\":{}", json::number(k.optimized_ms)));
                if let Some(s) = k.speedup {
                    fields.push(format!("\"speedup\":{}", json::number(s)));
                }
                let details: Vec<String> = k
                    .details
                    .iter()
                    .map(|(name, v)| format!("\"{name}\":{}", json::number(*v)))
                    .collect();
                fields.push(format!("\"details\":{{{}}}", details.join(",")));
                format!("{{{}}}", fields.join(","))
            })
            .collect();
        let scaling: Vec<String> = self
            .scaling
            .iter()
            .map(|p| {
                let rss = p
                    .streamed_rss_delta_bytes
                    .map_or("null".to_string(), |b| b.to_string());
                format!(
                    "{{\"slices\":{},\"max_k\":{},\"wall_ms\":{},\"ns_per_slice\":{},\
                     \"centroid_checksum\":{},\"streamed_rss_delta_bytes\":{},\
                     \"materialized_estimate_bytes\":{}}}",
                    p.slices,
                    p.max_k,
                    json::number(p.wall_ms),
                    json::number(p.ns_per_slice),
                    json::number(p.centroid_checksum),
                    rss,
                    p.materialized_estimate_bytes
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"{}\",\"benchmark\":{},\"quick\":{},\"num_slices\":{},\"dim\":{},\"kernels\":[{}],\"scaling\":[{}]}}\n",
            SCHEMA,
            json::string(&self.benchmark),
            self.quick,
            self.num_slices,
            self.dim,
            kernels.join(","),
            scaling.join(",")
        )
    }
}

/// The v2 document [`PerfReport::to_json`] writes: *every* kernel, the
/// cache probe included, carries a reference timing and a speedup.
const REPORT: Schema = {
    use Schema::*;
    const KERNEL: Schema = Object(&[
        ("name", Str),
        ("reference_ms", AtLeast(0.0)),
        ("optimized_ms", AtLeast(0.0)),
        ("speedup", Above(0.0)),
        ("details", NumMap),
    ]);
    const POINT: Schema = Object(&[
        ("slices", AtLeast(1.0)),
        ("max_k", AtLeast(1.0)),
        ("wall_ms", AtLeast(0.0)),
        ("ns_per_slice", AtLeast(0.0)),
        ("centroid_checksum", Num),
        ("streamed_rss_delta_bytes", OrNull(&AtLeast(0.0))),
        ("materialized_estimate_bytes", AtLeast(0.0)),
    ]);
    const KERNELS: &[&str] = &["kmeans_sweep", "bbv_projection", "cache_access_rw"];
    Object(&[
        ("schema", Tag(SCHEMA)),
        ("benchmark", NonEmptyStr),
        ("quick", Bool),
        ("num_slices", AtLeast(1.0)),
        ("dim", AtLeast(1.0)),
        ("kernels", Keyed("name", KERNELS, &KERNEL)),
        ("scaling", Array(&POINT, 1)),
    ])
};

/// Validates a `BENCH_kernels.json` document against the v2 schema.
///
/// # Errors
///
/// Every violation, each naming its field.
pub fn validate_report(text: &str) -> Result<(), String> {
    json::validate(text, &REPORT)
}

fn detail(kernel: &Value, key: &str) -> Option<f64> {
    kernel.get("details")?.get(key)?.as_f64()
}

fn kernel_by_name<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc.get("kernels")?
        .as_array()?
        .iter()
        .find(|k| k.get("name").and_then(Value::as_str) == Some(name))
}

fn check_rate(
    what: &str,
    new_rate: f64,
    base_rate: f64,
    compared: &mut Vec<String>,
    failures: &mut Vec<String>,
) {
    if !(new_rate.is_finite() && base_rate.is_finite() && base_rate > 0.0) {
        return;
    }
    let ratio = new_rate / base_rate;
    if ratio > REGRESSION_TOLERANCE {
        failures.push(format!(
            "{what}: {new_rate:.2} vs baseline {base_rate:.2} ({ratio:.2}x, \
             tolerance {REGRESSION_TOLERANCE:.2}x)"
        ));
    } else {
        compared.push(format!("{what}: {ratio:.2}x of baseline"));
    }
}

/// Compares a fresh report against a committed baseline and fails on any
/// size-normalized rate regressing by more than [`REGRESSION_TOLERANCE`].
///
/// Only *rates* are compared (ns per access, ns per projected BBV, ns
/// per streamed slice), so a quick run can be gated against a full
/// baseline: the quick scaling grid is a subset of the full grid and the
/// per-unit kernel rates are size-independent. The k-means sweep is only
/// compared when both reports ran the same shape (same benchmark, slice
/// count and sweep), since its cost is superlinear in both.
///
/// # Errors
///
/// A parse/shape problem in either document, every regressing metric
/// (joined), or "nothing comparable" when no metric matched — a silently
/// green gate that compared nothing would be worse than a red one.
pub fn compare_reports(new_text: &str, baseline_text: &str) -> Result<Vec<String>, String> {
    let new_doc = json::parse(new_text).map_err(|e| format!("new report: {e}"))?;
    let base_doc = json::parse(baseline_text).map_err(|e| format!("baseline report: {e}"))?;
    let mut compared = Vec::new();
    let mut failures = Vec::new();

    if let (Some(n), Some(b)) = (
        kernel_by_name(&new_doc, "cache_access_rw"),
        kernel_by_name(&base_doc, "cache_access_rw"),
    ) {
        if let (Some(nr), Some(br)) = (detail(n, "ns_per_access"), detail(b, "ns_per_access")) {
            check_rate("cache ns_per_access", nr, br, &mut compared, &mut failures);
        }
    }

    if let (Some(n), Some(b)) = (
        kernel_by_name(&new_doc, "bbv_projection"),
        kernel_by_name(&base_doc, "bbv_projection"),
    ) {
        // Per-BBV cost is size-dependent (fixed overhead dominates small
        // inputs), so only same-sized runs are comparable — a quick run
        // against a full baseline skips this rate.
        if detail(n, "bbvs").is_some() && detail(n, "bbvs") == detail(b, "bbvs") {
            if let (Some(nr), Some(br)) = (detail(n, "ns_per_bbv"), detail(b, "ns_per_bbv")) {
                check_rate(
                    "projection ns_per_bbv",
                    nr,
                    br,
                    &mut compared,
                    &mut failures,
                );
            }
        }
    }

    if let (Some(n), Some(b)) = (
        kernel_by_name(&new_doc, "kmeans_sweep"),
        kernel_by_name(&base_doc, "kmeans_sweep"),
    ) {
        let shape = |k: &Value| -> Option<(u64, u64, u64, u64)> {
            Some((
                detail(k, "points")? as u64,
                detail(k, "max_k")? as u64,
                detail(k, "sweep_len")? as u64,
                detail(k, "n_init")? as u64,
            ))
        };
        if shape(n).is_some() && shape(n) == shape(b) {
            if let (Some(nm), Some(bm)) = (
                n.get("optimized_ms").and_then(Value::as_f64),
                b.get("optimized_ms").and_then(Value::as_f64),
            ) {
                check_rate("kmeans_sweep ms", nm, bm, &mut compared, &mut failures);
            }
        }
    }

    let points = |doc: &Value| -> Vec<(u64, u64, f64)> {
        doc.get("scaling")
            .and_then(Value::as_array)
            .map(|arr| {
                arr.iter()
                    .filter_map(|p| {
                        Some((
                            p.get("slices")?.as_f64()? as u64,
                            p.get("max_k")?.as_f64()? as u64,
                            p.get("ns_per_slice")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let base_points = points(&base_doc);
    for (slices, max_k, nr) in points(&new_doc) {
        if let Some((_, _, br)) = base_points
            .iter()
            .find(|(s, k, _)| (*s, *k) == (slices, max_k))
        {
            check_rate(
                &format!("scaling {slices}x{max_k} ns_per_slice"),
                nr,
                *br,
                &mut compared,
                &mut failures,
            );
        }
    }

    if !failures.is_empty() {
        return Err(format!("perf regression:\n  {}", failures.join("\n  ")));
    }
    if compared.is_empty() {
        return Err("nothing comparable between the reports".to_string());
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_util::rng::Xoshiro256StarStar;

    fn tiny_input() -> PerfInput {
        // Synthetic BBVs: enough phase structure for clustering to do
        // real work, small enough to keep the test fast.
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let bbvs: Vec<Bbv> = (0..60)
            .map(|i| {
                let base = (i / 20) * 50;
                let counts: Vec<(u32, u32)> = (0..10)
                    .map(|j| (base + j * 3, 1 + (rng.next_u64() % 40) as u32))
                    .collect();
                Bbv::from_counts(counts)
            })
            .collect();
        PerfInput {
            benchmark: "synthetic".to_string(),
            bbvs,
            dim: 8,
            ks: vec![2, 3],
            n_init: 2,
            max_iter: 40,
            seed: 0xBEEF,
        }
    }

    #[test]
    fn kernels_run_and_report_validates() {
        let input = tiny_input();
        let projection = RandomProjection::new(input.dim, input.seed);
        let data = projection.project_all_normalized(&input.bbvs);
        let kmeans = kmeans_sweep_kernel(&data, &input, 2, Jobs::Auto).unwrap();
        assert!(kmeans.speedup.is_some());
        let proj = projection_kernel(&input, 2).unwrap();
        assert!(proj.reference_ms.is_some());
        let cache = cache_kernel(50_000, 2).unwrap();
        assert!(cache.reference_ms.is_some());
        assert!(cache.speedup.is_some());
        let hits = cache
            .details
            .iter()
            .find(|(n, _)| *n == "hits")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(hits > 0.0, "some accesses must hit");

        let point = scaling_point(2_000, 4, input.dim, input.seed, 2).unwrap();
        assert_eq!(point.slices, 2_000);
        assert!(point.ns_per_slice.is_finite());
        assert_eq!(
            point.materialized_estimate_bytes,
            sampsim_analyze::materialized_bytes_estimate(2_000, input.dim)
        );

        let report = PerfReport {
            benchmark: input.benchmark.clone(),
            quick: true,
            num_slices: input.bbvs.len() as u64,
            dim: input.dim,
            kernels: vec![kmeans, proj, cache],
            scaling: vec![point],
        };
        let text = report.to_json();
        validate_report(&text).unwrap();
        // A report is always within tolerance of itself, and every grid
        // point must match.
        let compared = compare_reports(&text, &text).unwrap();
        assert!(compared.iter().any(|c| c.contains("cache")));
        assert!(compared.iter().any(|c| c.contains("scaling")));
    }

    #[test]
    fn kmeans_sweep_is_job_count_invariant() {
        // The sweep asserts the parallel winner bit-identical to the
        // serial naive reference internally; running it at two explicit
        // worker counts proves the jobs knob cannot perturb results.
        let input = tiny_input();
        let projection = RandomProjection::new(input.dim, input.seed);
        let data = projection.project_all_normalized(&input.bbvs);
        for jobs in [sampsim_exec::SERIAL, Jobs::new(2).unwrap(), Jobs::Auto] {
            kmeans_sweep_kernel(&data, &input, 1, jobs).unwrap();
        }
    }

    #[test]
    fn cache_kernel_checksum_is_deterministic() {
        let a = cache_kernel(20_000, 1).unwrap();
        let b = cache_kernel(20_000, 1).unwrap();
        let hits = |k: &KernelTiming| {
            k.details
                .iter()
                .find(|(n, _)| *n == "hits")
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(hits(&a).to_bits(), hits(&b).to_bits());
    }

    #[test]
    fn scaling_point_checksum_is_deterministic_and_streamed() {
        let a = scaling_point(3_000, 5, 8, 42, 2).unwrap();
        let b = scaling_point(3_000, 5, 8, 42, 1).unwrap();
        assert_eq!(a.centroid_checksum.to_bits(), b.centroid_checksum.to_bits());
        // On Linux the harness must actually measure the footprint.
        if peak_rss_bytes().is_some() {
            assert!(a.streamed_rss_delta_bytes.is_some());
        }
    }

    #[test]
    fn validate_rejects_broken_reports() {
        assert!(validate_report("not json").is_err());
        assert!(validate_report("{}").is_err());
        let wrong_schema = r#"{"schema":"other/v9","benchmark":"x","num_slices":1,"kernels":[]}"#;
        assert!(validate_report(wrong_schema)
            .unwrap_err()
            .contains("schema"));
        let kernel = |name: &str| {
            format!(
                r#"{{"name":"{name}","reference_ms":2.0,"optimized_ms":1.0,"speedup":2.0,"details":{{}}}}"#
            )
        };
        let point = r#"{"slices":10,"max_k":2,"wall_ms":1.0,"ns_per_slice":100.0,"centroid_checksum":0.5,"streamed_rss_delta_bytes":null,"materialized_estimate_bytes":1920}"#;
        let missing_kernel = format!(
            r#"{{"schema":"{SCHEMA}","benchmark":"x","num_slices":1,"kernels":[{}],"scaling":[{point}]}}"#,
            kernel("cache_access_rw")
        );
        assert!(validate_report(&missing_kernel)
            .unwrap_err()
            .contains("kmeans_sweep"));
        // v2 demands a speedup on *every* kernel, the cache probe
        // included.
        let no_speedup = format!(
            r#"{{"schema":"{SCHEMA}","benchmark":"x","num_slices":1,"kernels":[
                {},{},
                {{"name":"cache_access_rw","optimized_ms":1.0,"details":{{}}}}],"scaling":[{point}]}}"#,
            kernel("kmeans_sweep"),
            kernel("bbv_projection"),
        );
        assert!(validate_report(&no_speedup)
            .unwrap_err()
            .contains("speedup"));
        // ...and a non-empty scaling grid.
        let no_scaling = format!(
            r#"{{"schema":"{SCHEMA}","benchmark":"x","num_slices":1,"kernels":[{},{},{}],"scaling":[]}}"#,
            kernel("kmeans_sweep"),
            kernel("bbv_projection"),
            kernel("cache_access_rw"),
        );
        assert!(validate_report(&no_scaling)
            .unwrap_err()
            .contains("scaling"));
    }

    /// The committed full-run baseline must hold the paper-grade bounds:
    /// the packed cache probe at or below 15 ns/access, and a
    /// million-slice streaming point whose measured footprint stays far
    /// below what the materialized path would need.
    #[test]
    fn committed_baseline_holds_the_cache_and_streaming_bounds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
        let text = std::fs::read_to_string(path).unwrap();
        validate_report(&text).unwrap();
        let report = json::parse(&text).unwrap();
        let cache = kernel_by_name(&report, "cache_access_rw").unwrap();
        let ns = detail(cache, "ns_per_access").unwrap();
        assert!(
            ns <= 15.0,
            "committed cache probe is {ns} ns/access (bound: 15)"
        );
        let point = report
            .get("scaling")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .find(|p| {
                p.get("slices").and_then(Value::as_f64) == Some(1_000_000.0)
                    && p.get("max_k").and_then(Value::as_f64) == Some(35.0)
            })
            .expect("the grid has the 1M-slice, k=35 point");
        let rss = point.get("streamed_rss_delta_bytes").unwrap();
        assert!(
            *rss == Value::Null || rss.as_f64().unwrap() <= (64u64 << 20) as f64,
            "streamed RSS delta {rss:?} exceeds 64 MiB"
        );
        let estimate = point.get("materialized_estimate_bytes").unwrap();
        assert!(
            estimate.as_f64().unwrap() > (200u64 << 20) as f64,
            "estimate formula drifted"
        );
    }

    #[test]
    fn compare_reports_gates_regressions() {
        let doc = |cache_ns: f64, scale_ns: f64| {
            format!(
                r#"{{"schema":"{SCHEMA}","benchmark":"x","num_slices":1,"kernels":[
                    {{"name":"cache_access_rw","reference_ms":2.0,"optimized_ms":1.0,"speedup":2.0,
                      "details":{{"accesses":1000,"ns_per_access":{cache_ns},"hits":10}}}}],
                  "scaling":[{{"slices":10,"max_k":2,"wall_ms":1.0,"ns_per_slice":{scale_ns},
                    "centroid_checksum":0.5,"streamed_rss_delta_bytes":null,
                    "materialized_estimate_bytes":1920}}]}}"#
            )
        };
        // Identical and slightly-faster reports pass...
        compare_reports(&doc(13.0, 900.0), &doc(13.0, 900.0)).unwrap();
        compare_reports(&doc(12.0, 800.0), &doc(13.0, 900.0)).unwrap();
        // ...a >10% slowdown on either rate fails...
        let err = compare_reports(&doc(15.0, 900.0), &doc(13.0, 900.0)).unwrap_err();
        assert!(err.contains("cache ns_per_access"), "{err}");
        let err = compare_reports(&doc(13.0, 1100.0), &doc(13.0, 900.0)).unwrap_err();
        assert!(err.contains("scaling 10x2"), "{err}");
        // ...and a baseline sharing no metric is an error, not a silent
        // pass.
        let other = format!(
            r#"{{"schema":"{SCHEMA}","benchmark":"x","num_slices":1,"kernels":[],"scaling":[]}}"#
        );
        assert!(compare_reports(&doc(13.0, 900.0), &other)
            .unwrap_err()
            .contains("nothing comparable"));
    }

    #[test]
    fn select_benchmark_falls_back_without_artifacts() {
        let dir = std::env::temp_dir().join(format!("sampsim-perf-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(select_benchmark(&store, false), "503.bwaves_r");
        assert_eq!(select_benchmark(&store, true), "505.mcf_r");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
