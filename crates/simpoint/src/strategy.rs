//! Pluggable sampling strategies: the [`SamplingStrategy`] trait, the
//! registry, and the three built-in estimators.
//!
//! The paper answers "how well does sampled simulation track the whole
//! program" for exactly one selector — SimPoint clustering. This module
//! generalizes the selection step behind a trait so the same profiling
//! pass, replay machinery and aggregation can evaluate interchangeable
//! estimators:
//!
//! * [`SimPointStrategy`] — the paper's method (projection → k-means →
//!   BIC), ported onto the trait with zero behavioral drift.
//!   [`crate::SimPointAnalysis`] is now a thin wrapper around it;
//!   `tests/parallel_differential.rs` pins the port bit-for-bit.
//! * [`Stratified2p`] — two-phase stratified sampling (after Ekman's
//!   NVIDIA method): slices are binned into phase strata by quantiles of
//!   a scalar phase statistic (the first principal component of a seeded
//!   random projection), a seeded pilot subsample estimates each
//!   stratum's spread, and a Neyman allocation assigns the sample budget
//!   before per-stratum random selection.
//! * [`Rss`] — ranked-set sampling over a cheap rank statistic (the
//!   [`phase_scores`] phase statistic), with repeated subsampling: every
//!   replicate is an independent ranked-set draw, so the spread across
//!   replicates yields error bars for the downstream estimate.
//!
//! # Determinism contract
//!
//! A strategy is a pure function of `(input, options, jobs-independent
//! seed schedule)`: every run with the same inputs must produce
//! bit-identical output for every job count. All randomness must flow
//! from the strategy's seed through `sampsim_util::rng` so selections are
//! replayable; sub-draws use [`subseed`] for domain separation. The
//! `strategy_id` (name) plus the parameter [fingerprint][`SamplingStrategy::fingerprint`]
//! identify a selection for caching — see
//! `sampsim_core::stage_cache::response_key`.

use crate::analysis::{SimPointError, SimPointOptions, SimPointsResult};
use crate::bbv::Bbv;
use crate::bic::{bic_score, choose_k};
use crate::kmeans::{
    kmeans_minibatch, kmeans_sweep_jobs, KmeansMode, KmeansResult, MINIBATCH_BATCH,
};
use crate::project::RandomProjection;
use crate::select::{select_simpoints, SimPoint};
use sampsim_exec::Jobs;
use sampsim_util::hash::Fnv64;
use sampsim_util::rng::Xoshiro256StarStar;
use sampsim_util::stats::Summary;

/// Every registered strategy name, in report order. `sampsim compare`
/// runs all of them and its validator fails when one is missing from a
/// report, so registry drift cannot pass CI silently.
pub const STRATEGY_NAMES: &[&str] = &["simpoint", "stratified2p", "rss"];

/// What a strategy selects from: the per-slice BBVs (raw counts;
/// strategies normalize/project internally as needed) plus the slice
/// metadata required to interpret them.
#[derive(Debug, Clone, Copy)]
pub struct StrategyInput<'a> {
    /// One basic-block vector per slice, in execution order.
    pub bbvs: &'a [Bbv],
    /// Slice length in instructions (provenance; recorded in the result).
    pub slice_size: u64,
}

/// The outcome of a strategy's selection: regions with weights, plus
/// whatever per-slice structure the method produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Number of groups (clusters or strata) behind the selection.
    pub k: usize,
    /// Selected regions sorted by slice index; weights are non-negative
    /// and sum to 1.
    pub points: Vec<SimPoint>,
    /// Group assignment per slice, when the method produces one (empty
    /// for methods that sample without partitioning every slice).
    pub assignments: Vec<u32>,
    /// `(k, BIC)` pairs when the method scored candidate group counts.
    pub bic_scores: Vec<(usize, f64)>,
    /// Average intra-group variance, when meaningful (0 otherwise).
    pub avg_variance: f64,
    /// Independent repeated-subsampling point sets (error-bar material).
    /// Empty for single-shot methods; for [`Rss`], `replicates[0] ==
    /// points` and each entry is one complete ranked-set draw.
    pub replicates: Vec<Vec<SimPoint>>,
}

impl Selection {
    /// Splits the selection into the classic [`SimPointsResult`] the
    /// pipeline carries plus the replicate sets.
    pub fn into_parts(self, slice_size: u64) -> (SimPointsResult, Vec<Vec<SimPoint>>) {
        (
            SimPointsResult {
                k: self.k,
                slice_size,
                assignments: self.assignments,
                points: self.points,
                bic_scores: self.bic_scores,
                avg_variance: self.avg_variance,
            },
            self.replicates,
        )
    }
}

/// A pluggable region selector. See the [module docs](self) for the
/// determinism contract.
pub trait SamplingStrategy: Sync {
    /// The stable registry name (the `strategy_id`).
    fn name(&self) -> &'static str;

    /// Deterministic fingerprint of the strategy identity *and* every
    /// parameter that can change the selection — two strategies share a
    /// fingerprint iff their selections are bit-identical on all inputs.
    fn fingerprint(&self) -> u64;

    /// Selects regions from the profiled slices. `jobs` may fan internal
    /// work out over workers but must never change an output bit.
    ///
    /// # Errors
    ///
    /// Returns [`SimPointError::NoSlices`] when the input is empty, or a
    /// kernel error from the underlying method.
    fn select(&self, input: &StrategyInput<'_>, jobs: Jobs) -> Result<Selection, SimPointError>;
}

/// Derives a domain-separated sub-seed so independent draws (pilot vs
/// selection, per-stratum, per-replicate) never share an RNG stream.
pub fn subseed(seed: u64, domain: &str, index: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("sampsim/strategy/seed/v1");
    h.write_str(domain);
    h.write_u64(seed);
    h.write_u64(index);
    h.finish()
}

/// A projection-free scalar BBV statistic: the L2 norm of the
/// L1-normalized BBV. It measures how concentrated a slice's execution
/// is across basic blocks (1 = single block, 1/√nnz = uniform). Kept as
/// the cheap baseline statistic ([`phase_scores`] is what the built-in
/// strategies rank and stratify by — concentration alone is phase-blind
/// on workloads whose phases share a count profile over disjoint
/// blocks).
pub fn bbv_norm_score(bbv: &Bbv) -> f64 {
    let total = bbv.l1_norm();
    if total == 0.0 {
        return 0.0;
    }
    bbv.entries()
        .iter()
        .map(|&(_, v)| (v / total) * (v / total))
        .sum::<f64>()
        .sqrt()
}

// ---------------------------------------------------------------------------
// SimPoint through the trait.
// ---------------------------------------------------------------------------

/// The paper's SimPoint selector behind the trait. Holds the algorithm
/// that used to live in `SimPointAnalysis::run_jobs`; the legacy entry
/// points delegate here, so there is exactly one implementation.
#[derive(Debug, Clone)]
pub struct SimPointStrategy {
    options: SimPointOptions,
}

impl SimPointStrategy {
    /// Creates the strategy with the given analysis options.
    pub fn new(options: SimPointOptions) -> Self {
        Self { options }
    }

    /// The options in use.
    pub fn options(&self) -> &SimPointOptions {
        &self.options
    }

    /// Projection → per-`k` clustering → BIC selection → representative
    /// selection. This is the reference SimPoint implementation; see
    /// [`crate::SimPointAnalysis::run_jobs`] for the public wrapper.
    ///
    /// # Errors
    ///
    /// Returns [`SimPointError::NoSlices`] when `bbvs` is empty,
    /// [`SimPointError::ZeroMaxK`] or [`SimPointError::ZeroSampleSize`]
    /// when no candidate `k` could be scored, [`SimPointError::ZeroMaxIter`]
    /// when Lloyd would never assign a point, and a kernel error otherwise.
    pub fn analyze(
        &self,
        bbvs: &[Bbv],
        slice_size: u64,
        jobs: Jobs,
    ) -> Result<SimPointsResult, SimPointError> {
        if bbvs.is_empty() {
            return Err(SimPointError::NoSlices);
        }
        let o = &self.options;
        if o.max_k == 0 {
            return Err(SimPointError::ZeroMaxK);
        }
        if o.sample_size == 0 {
            return Err(SimPointError::ZeroSampleSize);
        }
        if o.max_iter == 0 && o.kmeans_mode == KmeansMode::Lloyd {
            return Err(SimPointError::ZeroMaxIter);
        }
        let n = bbvs.len();
        let projection = RandomProjection::new(o.dim, o.seed);
        let data = projection.project_all_normalized(bbvs);

        // Score candidate k on a subsample when the slice count is large.
        let subsample;
        let (score_data, score_n): (&[f64], usize) = if n > o.sample_size {
            let mut rng = Xoshiro256StarStar::seed_from_u64(o.seed ^ 0x5A5A);
            let mut idx: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut idx);
            idx.truncate(o.sample_size);
            idx.sort_unstable();
            let mut sub = Vec::with_capacity(o.sample_size * o.dim);
            for &i in &idx {
                sub.extend_from_slice(&data[i * o.dim..(i + 1) * o.dim]);
            }
            subsample = sub;
            (&subsample, o.sample_size)
        } else {
            (&data, n)
        };

        // The clustering kernel: full Lloyd with restarts (the default,
        // bit-identical to the reference oracle), every (k, restart) pair
        // in one task list, or the deterministic mini-batch kernel (single
        // run, tolerance-pinned). The per-k seed schedule is shared so
        // switching modes never perturbs seeds.
        let cluster = |data: &[f64], n: usize, ks: &[usize]| -> Result<Vec<KmeansResult>, _> {
            let seeded: Vec<(usize, u64)> = ks
                .iter()
                .map(|&k| (k, o.seed.wrapping_add(k as u64)))
                .collect();
            match o.kmeans_mode {
                KmeansMode::Lloyd => {
                    kmeans_sweep_jobs(data, n, o.dim, &seeded, o.max_iter, o.n_init, jobs)
                }
                KmeansMode::MiniBatch => seeded
                    .iter()
                    .map(|&(k, seed)| kmeans_minibatch(data, n, o.dim, k, seed, MINIBATCH_BATCH))
                    .collect(),
            }
        };

        let ks: Vec<usize> = (1..=o.max_k.min(score_n)).collect();
        let mut per_k = cluster(score_data, score_n, &ks)?;
        let bic_scores: Vec<(usize, f64)> = ks
            .iter()
            .zip(&per_k)
            .map(|(&k, r)| (k, bic_score(r, o.dim)))
            .collect();
        let best_k = choose_k(&bic_scores, o.bic_threshold);

        // Final clustering at the chosen k over every slice. Without a
        // subsample the sweep already ran it: same data, k and seed.
        let final_result: KmeansResult = if score_n == n {
            per_k.swap_remove(best_k - 1)
        } else {
            cluster(&data, n, &[best_k])?.remove(0)
        };
        let points = select_simpoints(&final_result, &data, o.dim);
        let avg_variance = final_result.avg_variance();
        Ok(SimPointsResult {
            k: best_k,
            slice_size,
            assignments: final_result.assignments,
            points,
            bic_scores,
            avg_variance,
        })
    }
}

impl SamplingStrategy for SimPointStrategy {
    fn name(&self) -> &'static str {
        "simpoint"
    }

    fn fingerprint(&self) -> u64 {
        let o = &self.options;
        let mut h = Fnv64::new();
        h.write_str("sampsim/fp/strategy/simpoint/v2");
        h.write_u64(o.max_k as u64);
        h.write_u64(o.dim as u64);
        h.write_u64(u64::from(o.n_init));
        h.write_u64(u64::from(o.max_iter));
        h.write_f64(o.bic_threshold);
        h.write_u64(o.seed);
        h.write_u64(o.sample_size as u64);
        h.write_str(o.kmeans_mode.label());
        h.finish()
    }

    fn select(&self, input: &StrategyInput<'_>, jobs: Jobs) -> Result<Selection, SimPointError> {
        let r = self.analyze(input.bbvs, input.slice_size, jobs)?;
        Ok(Selection {
            k: r.k,
            points: r.points,
            assignments: r.assignments,
            bic_scores: r.bic_scores,
            avg_variance: r.avg_variance,
            replicates: Vec::new(),
        })
    }
}

// ---------------------------------------------------------------------------
// Two-phase stratified sampling.
// ---------------------------------------------------------------------------

/// Projection dimensionality behind [`Stratified2p`]'s phase statistic.
pub const PHASE_DIM: usize = 8;

/// Power-iteration steps for the principal direction. Phase-structured
/// data has a dominant eigengap, so convergence is fast; the count is
/// fixed (no tolerance test) to keep the iteration trivially
/// deterministic.
const POWER_ITERS: usize = 24;

/// First-principal-component scores of `n` projected slices (`data` is
/// row-major, `n × dim`): each slice's signed coordinate along the top
/// PCA direction of the projected cloud, found by power iteration from a
/// fixed start vector.
///
/// Accumulation (mean and the implicit covariance products) walks the
/// slices in a canonical lexicographic order of the projected vectors,
/// not input order — identical rows are interchangeable terms — so the
/// same slice *multiset* yields bit-identical scores under any
/// permutation of the input. Each slice's final score is a fixed-order
/// dot product of its own row, hence order-independent too.
fn principal_scores(data: &[f64], n: usize, dim: usize) -> Vec<f64> {
    let mut canon: Vec<usize> = (0..n).collect();
    canon.sort_by(|&a, &b| {
        data[a * dim..(a + 1) * dim]
            .partial_cmp(&data[b * dim..(b + 1) * dim])
            .expect("projected coordinates are finite")
    });
    let mut mean = vec![0.0; dim];
    for &i in &canon {
        for (m, v) in mean.iter_mut().zip(&data[i * dim..(i + 1) * dim]) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    let mut v = vec![1.0 / (dim as f64).sqrt(); dim];
    for _ in 0..POWER_ITERS {
        let mut next = vec![0.0; dim];
        for &i in &canon {
            let row = &data[i * dim..(i + 1) * dim];
            let mut dot = 0.0;
            for d in 0..dim {
                dot += (row[d] - mean[d]) * v[d];
            }
            for d in 0..dim {
                next[d] += dot * (row[d] - mean[d]);
            }
        }
        let norm = next.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            break; // degenerate cloud (all rows equal): any direction works
        }
        for x in &mut next {
            *x /= norm;
        }
        v = next;
    }
    (0..n)
        .map(|i| {
            let row = &data[i * dim..(i + 1) * dim];
            (0..dim).map(|d| (row[d] - mean[d]) * v[d]).sum()
        })
        .collect()
}

/// The scalar phase statistic shared by [`Stratified2p`] (stratification)
/// and [`Rss`] (ranking): each slice's coordinate along the first
/// principal component of a seeded [`PHASE_DIM`]-dimensional random
/// projection of the normalized BBVs. Cheap (`O(n·dim)` per power-iteration
/// step), deterministic, and permutation-invariant over slice order — see
/// [`principal_scores`]. On phase-structured workloads the top PCA
/// direction is the phase axis, so the statistic tracks phase identity,
/// which is what makes stratification strata phase-pure and ranked sets
/// phase-spread.
pub fn phase_scores(bbvs: &[Bbv], seed: u64) -> Vec<f64> {
    let data = RandomProjection::new(PHASE_DIM, seed).project_all_normalized(bbvs);
    principal_scores(&data, bbvs.len(), PHASE_DIM)
}

/// Tuning knobs of [`Stratified2p`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stratified2pOptions {
    /// Number of phase strata (equal-count quantile bins; capped at the
    /// slice count).
    pub strata: usize,
    /// Phase-1 pilot draws per stratum used to estimate within-stratum
    /// spread for the Neyman allocation.
    pub pilot: usize,
    /// Total phase-2 sample budget (every non-empty stratum still gets at
    /// least one; capped at the slice count).
    pub samples: usize,
    /// Master seed for the pilot and selection RNG streams.
    pub seed: u64,
}

impl Default for Stratified2pOptions {
    fn default() -> Self {
        Self {
            strata: 8,
            pilot: 4,
            samples: 30,
            seed: 0x5742_11F1,
        }
    }
}

/// Two-phase stratified sampling over phase strata.
///
/// Slices are scored by the first principal component of a seeded
/// [`PHASE_DIM`]-dimensional random projection of the normalized BBVs (a
/// scalar phase statistic: the top PCA direction of bimodal phase data is
/// the phase axis, so it separates phases far more cleanly than a raw 1-D
/// projection) and split into equal-count quantile strata. Phase 1 draws
/// a seeded pilot per stratum to estimate its score spread `s_h`; phase 2
/// allocates the budget by Neyman allocation (`n_h ∝ N_h·s_h`) and
/// selects `n_h` slices per stratum uniformly without replacement. Each
/// selected slice carries weight `(N_h/n)/n_h`, so the estimator is
/// unbiased per stratum and the weights sum to 1.
///
/// The allocation depends only on the *multiset* of scores, so it is
/// invariant under permutations of the slice order (a property test pins
/// this).
#[derive(Debug, Clone)]
pub struct Stratified2p {
    options: Stratified2pOptions,
}

/// The per-stratum structure `Stratified2p` derives before selecting.
struct Strata {
    /// Slice indices sorted by `(score, index)`.
    order: Vec<usize>,
    /// Scores in slice order.
    scores: Vec<f64>,
    /// `(start, len)` of each stratum within `order`.
    bins: Vec<(usize, usize)>,
}

impl Stratified2p {
    /// Creates the strategy.
    pub fn new(options: Stratified2pOptions) -> Self {
        Self { options }
    }

    /// The options in use.
    pub fn options(&self) -> &Stratified2pOptions {
        &self.options
    }

    fn stratify(&self, bbvs: &[Bbv]) -> Strata {
        let n = bbvs.len();
        // The phase statistic, from a seed domain-separated from the
        // selection streams.
        let scores = phase_scores(bbvs, subseed(self.options.seed, "s2p/score", 0));
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            scores[a]
                .partial_cmp(&scores[b])
                .expect("projected scores are finite")
                .then(a.cmp(&b))
        });
        let s = self.options.strata.clamp(1, n);
        let (base, extra) = (n / s, n % s);
        let mut bins = Vec::with_capacity(s);
        let mut start = 0;
        for h in 0..s {
            let len = base + usize::from(h < extra);
            bins.push((start, len));
            start += len;
        }
        Strata {
            order,
            scores,
            bins,
        }
    }

    /// The phase-2 sample allocation: how many slices each stratum gets.
    /// Exposed for the permutation-invariance property test.
    ///
    /// # Errors
    ///
    /// Returns [`SimPointError::NoSlices`] when the input is empty.
    pub fn allocation(&self, input: &StrategyInput<'_>) -> Result<Vec<usize>, SimPointError> {
        if input.bbvs.is_empty() {
            return Err(SimPointError::NoSlices);
        }
        let strata = self.stratify(input.bbvs);
        Ok(self.allocate(input.bbvs.len(), &strata))
    }

    fn allocate(&self, n: usize, strata: &Strata) -> Vec<usize> {
        let s = strata.bins.len();
        // Phase 1: pilot estimate of each stratum's score spread. The
        // pilot draws positions within the sorted stratum, so the
        // estimate depends only on the score multiset.
        let mut spread = Vec::with_capacity(s);
        for (h, &(start, len)) in strata.bins.iter().enumerate() {
            let pilot = self.options.pilot.min(len);
            let mut positions: Vec<usize> = (0..len).collect();
            let mut rng = Xoshiro256StarStar::seed_from_u64(subseed(
                self.options.seed,
                "s2p/pilot",
                h as u64,
            ));
            rng.shuffle(&mut positions);
            positions.truncate(pilot);
            let mut summary = Summary::new();
            for &p in &positions {
                summary.add(strata.scores[strata.order[start + p]]);
            }
            spread.push(if pilot >= 2 { summary.stddev() } else { 0.0 });
        }
        // Phase 2 allocation: Neyman (n_h ∝ N_h·s_h), falling back to
        // proportional when every pilot spread is zero. Every non-empty
        // stratum gets at least one draw; the budget never exceeds n.
        let weight: Vec<f64> = strata
            .bins
            .iter()
            .zip(&spread)
            .map(|(&(_, len), &s_h)| len as f64 * s_h)
            .collect();
        let total_weight: f64 = weight.iter().sum();
        let weight: Vec<f64> = if total_weight > 0.0 {
            weight
        } else {
            strata.bins.iter().map(|&(_, len)| len as f64).collect()
        };
        let total_weight: f64 = weight.iter().sum();
        let target = self.options.samples.max(s).min(n);
        let ideal: Vec<f64> = weight
            .iter()
            .map(|w| target as f64 * w / total_weight)
            .collect();
        let mut alloc: Vec<usize> = vec![1; s];
        let mut assigned = s;
        while assigned < target {
            // Largest remaining demand with spare capacity; ties resolve
            // to the lowest stratum index, keeping the loop deterministic.
            let mut best: Option<(f64, usize)> = None;
            for h in 0..s {
                if alloc[h] >= strata.bins[h].1 {
                    continue;
                }
                let demand = ideal[h] - alloc[h] as f64;
                if best.is_none_or(|(d, _)| demand > d) {
                    best = Some((demand, h));
                }
            }
            match best {
                Some((_, h)) => alloc[h] += 1,
                None => break, // every stratum saturated
            }
            assigned += 1;
        }
        alloc
    }
}

impl SamplingStrategy for Stratified2p {
    fn name(&self) -> &'static str {
        "stratified2p"
    }

    fn fingerprint(&self) -> u64 {
        let o = &self.options;
        let mut h = Fnv64::new();
        h.write_str("sampsim/fp/strategy/stratified2p/v1");
        h.write_u64(o.strata as u64);
        h.write_u64(o.pilot as u64);
        h.write_u64(o.samples as u64);
        h.write_u64(o.seed);
        h.finish()
    }

    fn select(&self, input: &StrategyInput<'_>, _jobs: Jobs) -> Result<Selection, SimPointError> {
        if input.bbvs.is_empty() {
            return Err(SimPointError::NoSlices);
        }
        let n = input.bbvs.len();
        let strata = self.stratify(input.bbvs);
        let alloc = self.allocate(n, &strata);

        let mut assignments = vec![0u32; n];
        for (h, &(start, len)) in strata.bins.iter().enumerate() {
            for &slice in &strata.order[start..start + len] {
                assignments[slice] = h as u32;
            }
        }
        let mut points = Vec::new();
        for (h, &(start, len)) in strata.bins.iter().enumerate() {
            let n_h = alloc[h];
            if n_h == 0 || len == 0 {
                continue;
            }
            let mut positions: Vec<usize> = (0..len).collect();
            let mut rng = Xoshiro256StarStar::seed_from_u64(subseed(
                self.options.seed,
                "s2p/select",
                h as u64,
            ));
            rng.shuffle(&mut positions);
            positions.truncate(n_h);
            let weight = (len as f64 / n as f64) / n_h as f64;
            for &p in &positions {
                points.push(SimPoint {
                    slice: strata.order[start + p] as u64,
                    cluster: h as u32,
                    weight,
                });
            }
        }
        points.sort_by_key(|p| p.slice);
        Ok(Selection {
            k: strata.bins.len(),
            points,
            assignments,
            bic_scores: Vec::new(),
            avg_variance: 0.0,
            replicates: Vec::new(),
        })
    }
}

// ---------------------------------------------------------------------------
// Ranked-set sampling with repeated subsampling.
// ---------------------------------------------------------------------------

/// Tuning knobs of [`Rss`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RssOptions {
    /// Ranked-set size `m`: each replicate draws `m` sets of `m` slices
    /// and keeps one per rank, so a replicate selects `m` regions
    /// (capped at the slice count).
    pub set_size: usize,
    /// Number of independent repeated-subsampling replicates; the spread
    /// of per-replicate estimates yields the error bars.
    pub replicates: usize,
    /// Master seed for the per-replicate RNG streams.
    pub seed: u64,
}

impl Default for RssOptions {
    fn default() -> Self {
        Self {
            set_size: 12,
            replicates: 5,
            seed: 0x0155_C0DE,
        }
    }
}

/// Ranked-set sampling over the scalar phase statistic.
///
/// One replicate of set size `m`: for each rank `i` in `0..m`, draw `m`
/// slices uniformly at random, rank the set by [`phase_scores`] (ties
/// broken by slice index), and keep the `i`-th ranked slice. The `m`
/// keepers carry equal weight `1/m` (duplicates merge by summing
/// weight), giving a sample that is spread across the rank distribution
/// of the statistic — cheaper than clustering, more phase-balanced than
/// plain uniform sampling. Ranked-set sampling beats simple random
/// sampling exactly when the rank statistic correlates with the response,
/// which is why the ranking uses the phase statistic rather than a
/// phase-blind scalar like [`bbv_norm_score`].
///
/// Repeated subsampling runs the whole procedure `replicates` times from
/// domain-separated seeds; `Selection::replicates` carries every draw so
/// callers can turn the spread of per-replicate estimates into
/// confidence intervals (see `docs/sampling-strategies.md`).
#[derive(Debug, Clone)]
pub struct Rss {
    options: RssOptions,
}

impl Rss {
    /// Creates the strategy.
    pub fn new(options: RssOptions) -> Self {
        Self { options }
    }

    /// The options in use.
    pub fn options(&self) -> &RssOptions {
        &self.options
    }

    fn replicate(&self, scores: &[f64], replicate: u64) -> Vec<SimPoint> {
        let n = scores.len();
        let m = self.options.set_size.clamp(1, n);
        let mut rng = Xoshiro256StarStar::seed_from_u64(subseed(
            self.options.seed,
            "rss/replicate",
            replicate,
        ));
        let mut picked: Vec<usize> = Vec::with_capacity(m);
        for rank in 0..m {
            let mut set: Vec<usize> = (0..m).map(|_| rng.next_below(n as u64) as usize).collect();
            set.sort_by(|&a, &b| {
                scores[a]
                    .partial_cmp(&scores[b])
                    .expect("rank statistic is finite")
                    .then(a.cmp(&b))
            });
            picked.push(set[rank]);
        }
        picked.sort_unstable();
        let weight = 1.0 / m as f64;
        let mut points: Vec<SimPoint> = Vec::with_capacity(m);
        for slice in picked {
            match points.last_mut() {
                Some(last) if last.slice == slice as u64 => last.weight += weight,
                _ => points.push(SimPoint {
                    slice: slice as u64,
                    cluster: 0,
                    weight,
                }),
            }
        }
        points
    }
}

impl SamplingStrategy for Rss {
    fn name(&self) -> &'static str {
        "rss"
    }

    fn fingerprint(&self) -> u64 {
        let o = &self.options;
        let mut h = Fnv64::new();
        h.write_str("sampsim/fp/strategy/rss/v1");
        h.write_u64(o.set_size as u64);
        h.write_u64(o.replicates as u64);
        h.write_u64(o.seed);
        h.finish()
    }

    fn select(&self, input: &StrategyInput<'_>, _jobs: Jobs) -> Result<Selection, SimPointError> {
        if input.bbvs.is_empty() {
            return Err(SimPointError::NoSlices);
        }
        let scores = phase_scores(input.bbvs, subseed(self.options.seed, "rss/score", 0));
        let replicates: Vec<Vec<SimPoint>> = (0..self.options.replicates.max(1) as u64)
            .map(|r| self.replicate(&scores, r))
            .collect();
        let points = replicates[0].clone();
        Ok(Selection {
            k: points.len(),
            points,
            assignments: Vec::new(),
            bic_scores: Vec::new(),
            avg_variance: 0.0,
            replicates,
        })
    }
}

// ---------------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------------

/// A serializable description of a strategy choice: which method plus its
/// parameters. The `SimPoint` variant carries no options of its own — it
/// uses the pipeline's [`SimPointOptions`], so existing `MaxK`/seed knobs
/// keep working unchanged.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum StrategySpec {
    /// The paper's SimPoint selector (the default).
    #[default]
    SimPoint,
    /// Two-phase stratified sampling.
    Stratified2p(Stratified2pOptions),
    /// Ranked-set sampling with repeated subsampling.
    Rss(RssOptions),
}

/// The statically derivable shape of a strategy's selection: how many
/// regions it will pick, how many samples contribute to each estimate,
/// and the worst-case weight any single region can carry. Derived by
/// [`StrategySpec::predict`] from the strategy parameters and the slice
/// count alone — no profiling, clustering or replay — and consumed by the
/// `sampsim plan` cost/precision model and the SA14x soundness lints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePlan {
    /// Distinct regions replayed (the simulated-instruction cost driver).
    pub regions: usize,
    /// Samples contributing to each metric estimate (`regions ×
    /// replicates` for replicated strategies).
    pub samples: usize,
    /// Independent replicates the strategy natively produces.
    pub replicates: usize,
    /// Static upper bound on the weight any single selection *draw*
    /// carries, or `f64::INFINITY` when the strategy offers no
    /// parameter-level guarantee (SimPoint cluster sizes are
    /// data-dependent). Strategies that merge duplicate draws (rss) can
    /// report regions whose accumulated weight is a multiple of this
    /// bound; the bound still governs how much estimate mass one *pick*
    /// controls.
    pub max_weight_bound: f64,
}

impl StrategySpec {
    /// Resolves a registry name to a spec with default parameters.
    /// Returns `None` for unregistered names (callers surface the typed
    /// `SA130` diagnostic).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "simpoint" => Some(StrategySpec::SimPoint),
            "stratified2p" => Some(StrategySpec::Stratified2p(Stratified2pOptions::default())),
            "rss" => Some(StrategySpec::Rss(RssOptions::default())),
            _ => None,
        }
    }

    /// Resolves a strategy *spec string*: a registry name optionally
    /// followed by `:key=value,key=value` parameter overrides
    /// (`stratified2p:strata=4,samples=40`, `rss:replicates=9`). The
    /// bare-name form is exactly [`StrategySpec::parse`]. `simpoint`
    /// takes no parameters here — its knobs live in [`SimPointOptions`]
    /// (`--maxk`). Unknown names, unknown keys and malformed values
    /// return a message the caller wraps in the typed `SA130` diagnostic.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        let (name, params) = match spec.split_once(':') {
            Some((name, params)) => (name, Some(params)),
            None => (spec, None),
        };
        let mut parsed = Self::parse(name).ok_or_else(|| {
            format!(
                "`{name}` is not a registered strategy (registry: {})",
                STRATEGY_NAMES.join(", ")
            )
        })?;
        let Some(params) = params else {
            return Ok(parsed);
        };
        for pair in params.split(',') {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("parameter `{pair}` is not of the form key=value"))?;
            let int = |what: &str| {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{what} `{key}={value}` is not a non-negative integer"))
            };
            match (&mut parsed, key) {
                (StrategySpec::SimPoint, _) => {
                    return Err(format!(
                        "`simpoint` takes no spec parameters (got `{key}`); \
                         use --maxk / SimPointOptions"
                    ));
                }
                (StrategySpec::Stratified2p(o), "strata") => o.strata = int("strata")? as usize,
                (StrategySpec::Stratified2p(o), "pilot") => o.pilot = int("pilot")? as usize,
                (StrategySpec::Stratified2p(o), "samples") => o.samples = int("samples")? as usize,
                (StrategySpec::Stratified2p(o), "seed") => o.seed = int("seed")?,
                (StrategySpec::Rss(o), "set_size") => o.set_size = int("set_size")? as usize,
                (StrategySpec::Rss(o), "replicates") => o.replicates = int("replicates")? as usize,
                (StrategySpec::Rss(o), "seed") => o.seed = int("seed")?,
                (spec, _) => {
                    return Err(format!(
                        "`{}` has no parameter `{key}`",
                        StrategySpec::name(spec)
                    ));
                }
            }
        }
        Ok(parsed)
    }

    /// Predicts the selection shape for a run of `num_slices` profiling
    /// slices, from parameters alone (see [`SamplePlan`]). Mirrors the
    /// clamping each strategy applies at selection time: SimPoint picks
    /// one representative per cluster (≤ `min(MaxK, n)`), stratified2p
    /// allocates `samples.max(strata).min(n)` draws, rss keeps
    /// `set_size.clamp(1, n)` regions per replicate.
    pub fn predict(&self, simpoint: &SimPointOptions, num_slices: u64) -> SamplePlan {
        let n = usize::try_from(num_slices).unwrap_or(usize::MAX);
        match self {
            StrategySpec::SimPoint => {
                let regions = simpoint.max_k.min(n);
                SamplePlan {
                    regions,
                    samples: regions,
                    replicates: 1,
                    // A k=1 clustering provably yields one unit-weight
                    // point; for k > 1 cluster sizes are data-dependent,
                    // so no static bound exists.
                    max_weight_bound: if simpoint.max_k <= 1 {
                        1.0
                    } else {
                        f64::INFINITY
                    },
                }
            }
            StrategySpec::Stratified2p(o) => {
                let s = o.strata.clamp(1, n.max(1));
                let target = o.samples.max(s).min(n);
                SamplePlan {
                    regions: target,
                    samples: target,
                    replicates: 1,
                    // A census gives every slice weight 1/n; otherwise
                    // the largest stratum (⌈n/s⌉ slices) can receive a
                    // single draw carrying the whole stratum's mass.
                    max_weight_bound: if n == 0 {
                        1.0
                    } else if target >= n {
                        1.0 / n as f64
                    } else {
                        n.div_ceil(s) as f64 / n as f64
                    },
                }
            }
            StrategySpec::Rss(o) => {
                let m = o.set_size.clamp(1, n.max(1));
                let reps = o.replicates.max(1);
                SamplePlan {
                    regions: m,
                    samples: m * reps,
                    replicates: reps,
                    max_weight_bound: 1.0 / m as f64,
                }
            }
        }
    }

    /// The registry name.
    pub fn name(&self) -> &'static str {
        match self {
            StrategySpec::SimPoint => "simpoint",
            StrategySpec::Stratified2p(_) => "stratified2p",
            StrategySpec::Rss(_) => "rss",
        }
    }

    /// One default-parameter spec per registered strategy, in
    /// [`STRATEGY_NAMES`] order.
    pub fn registry() -> Vec<StrategySpec> {
        STRATEGY_NAMES
            .iter()
            .map(|name| StrategySpec::parse(name).expect("registry names parse"))
            .collect()
    }

    /// Instantiates the strategy. `simpoint` supplies the options for the
    /// `SimPoint` variant; the others carry their own.
    pub fn build(&self, simpoint: &SimPointOptions) -> Box<dyn SamplingStrategy> {
        match self {
            StrategySpec::SimPoint => Box::new(SimPointStrategy::new(*simpoint)),
            StrategySpec::Stratified2p(o) => Box::new(Stratified2p::new(*o)),
            StrategySpec::Rss(o) => Box::new(Rss::new(*o)),
        }
    }

    /// The built strategy's parameter fingerprint (see
    /// [`SamplingStrategy::fingerprint`]).
    pub fn fingerprint(&self, simpoint: &SimPointOptions) -> u64 {
        self.build(simpoint).fingerprint()
    }

    /// A copy with the strategy's master seed shifted by `offset` — the
    /// seed-resampling hook `sampsim compare` uses to build replicate
    /// selections for single-shot strategies. For the `SimPoint` variant
    /// the seed lives in [`SimPointOptions`]; use
    /// [`reseeded_simpoint_options`] instead.
    pub fn reseeded(&self, offset: u64) -> StrategySpec {
        let shift = offset.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        match self {
            StrategySpec::SimPoint => StrategySpec::SimPoint,
            StrategySpec::Stratified2p(o) => StrategySpec::Stratified2p(Stratified2pOptions {
                seed: o.seed.wrapping_add(shift),
                ..*o
            }),
            StrategySpec::Rss(o) => StrategySpec::Rss(RssOptions {
                seed: o.seed.wrapping_add(shift),
                ..*o
            }),
        }
    }
}

/// [`StrategySpec::reseeded`]'s counterpart for the `SimPoint` variant:
/// the same options with the master seed shifted by `offset`.
pub fn reseeded_simpoint_options(options: &SimPointOptions, offset: u64) -> SimPointOptions {
    SimPointOptions {
        seed: options
            .seed
            .wrapping_add(offset.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ..*options
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n_phases` behaviours interleaved round-robin with mild noise.
    fn synthetic_bbvs(n_phases: usize, per: usize) -> Vec<Bbv> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(99);
        let mut out = Vec::new();
        for i in 0..n_phases * per {
            let phase = i % n_phases;
            let base = (phase * 25) as u32;
            out.push(Bbv::from_counts(vec![
                (base, 700 + rng.next_below(60) as u32),
                (base + 1, 200 + rng.next_below(30) as u32),
            ]));
        }
        out
    }

    fn input(bbvs: &[Bbv]) -> StrategyInput<'_> {
        StrategyInput {
            bbvs,
            slice_size: 1_000,
        }
    }

    fn check_selection(sel: &Selection, n: usize) {
        let mut seen = std::collections::HashSet::new();
        let mut sum = 0.0;
        for p in &sel.points {
            assert!(p.weight > 0.0, "non-positive weight {p:?}");
            assert!((p.slice as usize) < n, "out of bounds {p:?}");
            assert!(seen.insert(p.slice), "duplicate slice {p:?}");
            sum += p.weight;
        }
        assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
        let sorted = sel.points.windows(2).all(|w| w[0].slice < w[1].slice);
        assert!(sorted, "points not sorted by slice");
    }

    #[test]
    fn simpoint_strategy_matches_legacy_entry_point() {
        let bbvs = synthetic_bbvs(4, 30);
        let opts = SimPointOptions {
            max_k: 8,
            ..Default::default()
        };
        let legacy = crate::SimPointAnalysis::new(opts)
            .run(&bbvs, 1_000)
            .unwrap();
        let (via_trait, reps) = SimPointStrategy::new(opts)
            .select(&input(&bbvs), sampsim_exec::SERIAL)
            .unwrap()
            .into_parts(1_000);
        assert_eq!(via_trait, legacy);
        assert!(reps.is_empty());
    }

    #[test]
    fn minibatch_mode_selects_validly_and_changes_fingerprint() {
        let bbvs = synthetic_bbvs(4, 30);
        let lloyd_opts = SimPointOptions {
            max_k: 8,
            ..Default::default()
        };
        let mb_opts = SimPointOptions {
            kmeans_mode: crate::kmeans::KmeansMode::MiniBatch,
            ..lloyd_opts
        };
        let a = SimPointStrategy::new(mb_opts)
            .select(&input(&bbvs), sampsim_exec::SERIAL)
            .unwrap();
        let b = SimPointStrategy::new(mb_opts)
            .select(&input(&bbvs), sampsim_exec::SERIAL)
            .unwrap();
        assert_eq!(a, b, "mini-batch mode must stay deterministic");
        check_selection(&a, bbvs.len());
        // Four well-separated phases: the mini-batch sweep still lands on
        // a sensible k.
        assert!((4..=8).contains(&a.k), "k = {}", a.k);
        // The mode is part of the cached-selection identity.
        assert_ne!(
            SimPointStrategy::new(mb_opts).fingerprint(),
            SimPointStrategy::new(lloyd_opts).fingerprint()
        );
    }

    #[test]
    fn stratified2p_selection_is_valid_and_deterministic() {
        let bbvs = synthetic_bbvs(5, 24);
        let strat = Stratified2p::new(Stratified2pOptions::default());
        let a = strat.select(&input(&bbvs), sampsim_exec::SERIAL).unwrap();
        let b = strat.select(&input(&bbvs), sampsim_exec::SERIAL).unwrap();
        assert_eq!(a, b);
        check_selection(&a, bbvs.len());
        assert_eq!(a.assignments.len(), bbvs.len());
        assert_eq!(a.k, 8);
        // The budget lands: default samples = 30 over 120 slices.
        assert_eq!(a.points.len(), 30);
        // Every point's cluster matches its slice's stratum assignment.
        for p in &a.points {
            assert_eq!(a.assignments[p.slice as usize], p.cluster);
        }
    }

    #[test]
    fn stratified2p_allocation_is_permutation_invariant() {
        let bbvs = synthetic_bbvs(3, 20);
        let strat = Stratified2p::new(Stratified2pOptions::default());
        let alloc = strat.allocation(&input(&bbvs)).unwrap();
        let mut permuted = bbvs.clone();
        permuted.reverse();
        let alloc_perm = strat.allocation(&input(&permuted)).unwrap();
        assert_eq!(alloc, alloc_perm);
        assert_eq!(alloc.iter().sum::<usize>(), 30);
    }

    #[test]
    fn rss_selection_is_valid_with_replicates() {
        let bbvs = synthetic_bbvs(4, 25);
        let rss = Rss::new(RssOptions::default());
        let sel = rss.select(&input(&bbvs), sampsim_exec::SERIAL).unwrap();
        check_selection(&sel, bbvs.len());
        assert_eq!(sel.replicates.len(), 5);
        assert_eq!(sel.replicates[0], sel.points);
        for rep in &sel.replicates {
            let sum: f64 = rep.iter().map(|p| p.weight).sum();
            assert!((sum - 1.0).abs() < 1e-9);
        }
        // Replicates are genuinely different draws.
        assert_ne!(sel.replicates[0], sel.replicates[1]);
    }

    #[test]
    fn tiny_inputs_degrade_gracefully() {
        let one = vec![Bbv::from_counts(vec![(0, 10)])];
        for spec in StrategySpec::registry() {
            let strategy = spec.build(&SimPointOptions::default());
            let sel = strategy.select(&input(&one), sampsim_exec::SERIAL).unwrap();
            check_selection(&sel, 1);
            assert_eq!(sel.points.len(), 1, "{}", strategy.name());
            let err = strategy
                .select(&input(&[]), sampsim_exec::SERIAL)
                .unwrap_err();
            assert_eq!(err, SimPointError::NoSlices, "{}", strategy.name());
        }
    }

    #[test]
    fn registry_round_trips_names_and_fingerprints_differ() {
        let opts = SimPointOptions::default();
        let mut fps = std::collections::HashSet::new();
        for (spec, name) in StrategySpec::registry().iter().zip(STRATEGY_NAMES) {
            assert_eq!(spec.name(), *name);
            assert_eq!(StrategySpec::parse(name).as_ref(), Some(spec));
            assert!(fps.insert(spec.fingerprint(&opts)), "fingerprint collision");
            // Reseeding changes the fingerprint for seeded strategies.
            let reseeded = spec.reseeded(1);
            if !matches!(spec, StrategySpec::SimPoint) {
                assert_ne!(reseeded.fingerprint(&opts), spec.fingerprint(&opts));
            }
        }
        assert_eq!(StrategySpec::parse("frobnicate"), None);
        assert_eq!(StrategySpec::default(), StrategySpec::SimPoint);
    }

    #[test]
    fn parse_spec_accepts_bare_names_and_parameter_overrides() {
        for name in STRATEGY_NAMES {
            assert_eq!(
                StrategySpec::parse_spec(name).unwrap(),
                StrategySpec::parse(name).unwrap()
            );
        }
        let spec = StrategySpec::parse_spec("stratified2p:strata=4,pilot=1,samples=40,seed=7");
        assert_eq!(
            spec.unwrap(),
            StrategySpec::Stratified2p(Stratified2pOptions {
                strata: 4,
                pilot: 1,
                samples: 40,
                seed: 7,
            })
        );
        let spec = StrategySpec::parse_spec("rss:set_size=3,replicates=1");
        assert_eq!(
            spec.unwrap(),
            StrategySpec::Rss(RssOptions {
                set_size: 3,
                replicates: 1,
                ..RssOptions::default()
            })
        );
    }

    #[test]
    fn parse_spec_rejects_bad_specs_with_messages() {
        let err = StrategySpec::parse_spec("frobnicate").unwrap_err();
        assert!(err.contains("frobnicate"), "{err}");
        assert!(err.contains("simpoint"), "{err}");
        let err = StrategySpec::parse_spec("simpoint:maxk=5").unwrap_err();
        assert!(err.contains("no spec parameters"), "{err}");
        let err = StrategySpec::parse_spec("rss:strata=4").unwrap_err();
        assert!(err.contains("no parameter `strata`"), "{err}");
        let err = StrategySpec::parse_spec("rss:set_size=x").unwrap_err();
        assert!(err.contains("not a non-negative integer"), "{err}");
        let err = StrategySpec::parse_spec("rss:set_size").unwrap_err();
        assert!(err.contains("key=value"), "{err}");
    }

    #[test]
    fn predict_matches_actual_selection_shapes() {
        let bbvs = synthetic_bbvs(3, 20); // 60 slices
        let n = bbvs.len() as u64;
        let opts = SimPointOptions {
            max_k: 6,
            ..SimPointOptions::default()
        };
        for spec in StrategySpec::registry() {
            let plan = spec.predict(&opts, n);
            let sel = spec
                .build(&opts)
                .select(&input(&bbvs), sampsim_exec::SERIAL)
                .unwrap();
            assert!(
                sel.points.len() <= plan.regions,
                "{}: {} > {}",
                spec.name(),
                sel.points.len(),
                plan.regions
            );
            // The bound governs single draws; rss merges duplicate draws,
            // so its region weights are multiples of the bound instead.
            for p in &sel.points {
                let draws = (p.weight / plan.max_weight_bound).round().max(1.0);
                assert!(
                    p.weight <= draws * plan.max_weight_bound + 1e-12,
                    "{}: weight {} not covered by {} draw(s) x bound {}",
                    spec.name(),
                    p.weight,
                    draws,
                    plan.max_weight_bound
                );
                if matches!(spec, StrategySpec::Stratified2p(_)) {
                    assert!(
                        p.weight <= plan.max_weight_bound + 1e-12,
                        "{}: {} > {}",
                        spec.name(),
                        p.weight,
                        plan.max_weight_bound
                    );
                }
            }
        }
    }

    #[test]
    fn predict_clamps_to_the_slice_count() {
        let opts = SimPointOptions {
            max_k: 10,
            ..SimPointOptions::default()
        };
        // n = 4 slices: every strategy clamps to at most 4 regions, and
        // census selections bound each weight by 1/n.
        let sp = StrategySpec::SimPoint.predict(&opts, 4);
        assert_eq!((sp.regions, sp.samples, sp.replicates), (4, 4, 1));
        assert!(sp.max_weight_bound.is_infinite());
        let s2p = StrategySpec::parse("stratified2p")
            .unwrap()
            .predict(&opts, 4);
        assert_eq!((s2p.regions, s2p.replicates), (4, 1));
        assert_eq!(s2p.max_weight_bound, 0.25);
        let rss = StrategySpec::parse("rss").unwrap().predict(&opts, 4);
        assert_eq!((rss.regions, rss.samples, rss.replicates), (4, 20, 5));
        assert_eq!(rss.max_weight_bound, 0.25);
        // k = 1 is the one SimPoint shape with a static weight bound.
        let k1 = SimPointOptions {
            max_k: 1,
            ..SimPointOptions::default()
        };
        assert_eq!(StrategySpec::SimPoint.predict(&k1, 4).max_weight_bound, 1.0);
    }
}
