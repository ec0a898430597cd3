//! Lloyd's k-means with k-means++ seeding and triangle-inequality pruning.
//!
//! Operates on a flat row-major matrix of projected BBVs. Deterministic for
//! a given seed; empty clusters are reseeded to the point farthest from its
//! centroid so every requested cluster survives when the data supports it.
//!
//! Two kernels compute the same function:
//!
//! * [`kmeans`] — the production kernel. It carries Hamerly-style
//!   per-point bounds (an upper bound on the distance to the assigned
//!   centroid, a lower bound on the distance to every other centroid) plus
//!   inter-centroid half-distances, so most points skip the k-way distance
//!   scan once the iteration settles. When a point does need the scan, its
//!   k distances are filled one dimension at a time over a lane-block
//!   copy of the centroids, one lane per centroid; k-means++ seeding does
//!   the same with one lane per point over a lane-block copy of the data.
//!   Each lane performs exactly the operations of `sq_dist` in the same
//!   order, so every distance keeps its bits; only the order *across*
//!   independent lanes changes. Every centroid update uses the summation
//!   order of the naive code, and a skip is taken only when the bounds
//!   prove — with a safety margin far above accumulated floating-point
//!   error — that the naive scan's argmin could not differ. Assignments,
//!   centroids, inertia and iteration counts are therefore
//!   **bit-identical** to the reference.
//! * [`kmeans_reference`] — the naive full-scan Lloyd kernel, kept verbatim
//!   as the differential-testing oracle (see `tests/property_tests.rs` and
//!   the `pruned_matches_reference_*` tests below).
//!
//! [`kmeans_sweep_jobs`] is the one fan-out for restarts: it flattens
//! every `(k, restart)` pair of a BIC sweep into a single task list over
//! `sampsim_exec`, shares one lane-block copy of the data across all of
//! them, and folds each `k`'s restarts in restart order.
//! [`kmeans_best_of_jobs`] is its one-`k` case.
//!
//! See `docs/performance.md` for the pruning invariants and the
//! bit-identity argument.

use sampsim_exec::{try_parallel_map, Jobs, SERIAL};
use sampsim_util::rng::Xoshiro256StarStar;
use std::fmt;

/// Invalid input to [`kmeans`] / [`kmeans_best_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KmeansError {
    /// No points to cluster (`n == 0`).
    NoPoints,
    /// Zero-dimensional points (`dim == 0`).
    ZeroDim,
    /// Zero clusters requested (`k == 0`).
    ZeroK,
    /// Zero restarts requested (`n_init == 0`).
    ZeroInit,
    /// `data.len()` does not equal `n * dim`.
    ShapeMismatch {
        /// `n * dim`.
        expected: usize,
        /// `data.len()`.
        got: usize,
    },
}

impl fmt::Display for KmeansError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KmeansError::NoPoints => write!(f, "k-means needs at least one point"),
            KmeansError::ZeroDim => write!(f, "k-means needs at least one dimension"),
            KmeansError::ZeroK => write!(f, "k-means needs at least one cluster"),
            KmeansError::ZeroInit => write!(f, "k-means needs at least one restart"),
            KmeansError::ShapeMismatch { expected, got } => {
                write!(
                    f,
                    "data shape mismatch: expected n * dim = {expected} values, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for KmeansError {}

/// Result of one k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansResult {
    /// Number of clusters requested.
    pub k: usize,
    /// Cluster assignment per point.
    pub assignments: Vec<u32>,
    /// Flat row-major centroid matrix (`k * dim`).
    pub centroids: Vec<f64>,
    /// Sum of squared distances of points to their centroids.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: u32,
    /// Points per cluster, computed once from the final assignments.
    sizes: Vec<u64>,
}

impl KmeansResult {
    /// Assembles a result, counting cluster sizes once so the accessors
    /// below never allocate.
    fn assemble(
        k: usize,
        assignments: Vec<u32>,
        centroids: Vec<f64>,
        inertia: f64,
        iterations: u32,
    ) -> Self {
        let mut sizes = vec![0u64; k];
        for &a in &assignments {
            sizes[a as usize] += 1;
        }
        Self {
            k,
            assignments,
            centroids,
            inertia,
            iterations,
            sizes,
        }
    }

    /// Cluster sizes (points per cluster). Precomputed; no allocation.
    pub fn cluster_sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Number of clusters that actually contain points.
    pub fn occupied_clusters(&self) -> usize {
        self.sizes.iter().filter(|&&s| s > 0).count()
    }

    /// Average intra-cluster variance: inertia divided by point count
    /// (the Fig. 4 metric).
    pub fn avg_variance(&self) -> f64 {
        if self.assignments.is_empty() {
            0.0
        } else {
            self.inertia / self.assignments.len() as f64
        }
    }
}

#[inline]
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Rows per lane block: one 512-bit vector of `f64`.
const LANES: usize = 8;

/// Squared distances from `point` to every row of `blocks`, a matrix laid
/// out by [`to_blocks`]; `out` gets one lane per row, padding rows
/// included. Each lane sums `(x - y)²` over the dimensions in ascending
/// order from `0.0`, exactly as [`sq_dist`] does, so lane `j` has the bits
/// of `sq_dist` between `point` and row `j`: the fold's `-0.0` start is
/// absorbed the same way as this `+0.0` one, because every first term is a
/// square, and `x - y` is `-(y - x)` exactly, so which side holds the point
/// does not change the square. Lanes are independent, so a block's
/// [`LANES`] sums run as one vector in registers instead of one serial add
/// chain per row.
#[inline]
fn sq_dists_lanes(point: &[f64], blocks: &[f64], out: &mut [f64]) {
    let block_len = point.len() * LANES;
    for (block, out) in blocks
        .chunks_exact(block_len)
        .zip(out.chunks_exact_mut(LANES))
    {
        let mut acc = [0.0f64; LANES];
        for (&x, ys) in point.iter().zip(block.chunks_exact(LANES)) {
            for (a, &y) in acc.iter_mut().zip(ys) {
                let t = x - y;
                *a += t * t;
            }
        }
        out.copy_from_slice(&acc);
    }
}

/// `rows` rounded up to whole lane blocks.
fn padded(rows: usize) -> usize {
    rows.div_ceil(LANES) * LANES
}

/// Writes a row-major `rows × dim` matrix into `out` in lane blocks: rows
/// are taken [`LANES`] at a time and each group is stored dimension-major,
/// so coordinate `d` of a group's rows is [`LANES`] consecutive values.
/// `out` holds [`padded`]`(rows) * dim` values; padding rows keep whatever
/// `out` had.
fn to_blocks_into(m: &[f64], dim: usize, out: &mut [f64]) {
    for (i, row) in m.chunks_exact(dim).enumerate() {
        let block = &mut out[(i / LANES) * dim * LANES..];
        for (d, &v) in row.iter().enumerate() {
            block[d * LANES + i % LANES] = v;
        }
    }
}

/// [`to_blocks_into`] a fresh buffer with zero padding rows.
fn to_blocks(m: &[f64], rows: usize, dim: usize) -> Vec<f64> {
    let mut out = vec![0.0; padded(rows) * dim];
    to_blocks_into(m, dim, &mut out);
    out
}

/// Four-lane chunked squared distance: independent partial sums over
/// fixed-width chunks so the autovectorizer fires, folded pairwise at the
/// end. **Not** bit-compatible with [`sq_dist`] (different accumulation
/// order) — only the mini-batch kernel, which owns its numerics and is
/// pinned by tolerance rather than bit-identity, may use it.
#[inline]
fn sq_dist_chunked(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let whole = a.len() - a.len() % 4;
    let (a_main, a_tail) = a.split_at(whole);
    let (b_main, b_tail) = b.split_at(whole);
    for (ca, cb) in a_main.chunks_exact(4).zip(b_main.chunks_exact(4)) {
        for lane in 0..4 {
            let d = ca[lane] - cb[lane];
            acc[lane] += d * d;
        }
    }
    for (x, y) in a_tail.iter().zip(b_tail) {
        let d = x - y;
        acc[0] += d * d;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Nearest centroid to `point` under [`sq_dist_chunked`], first minimum
/// wins. Returns `(index, squared distance)`.
#[inline]
fn nearest_chunked(centroids: &[f64], k: usize, dim: usize, point: &[f64]) -> (u32, f64) {
    let mut best = 0u32;
    let mut best_d = f64::INFINITY;
    for c in 0..k {
        let d = sq_dist_chunked(point, &centroids[c * dim..(c + 1) * dim]);
        if d < best_d {
            best_d = d;
            best = c as u32;
        }
    }
    (best, best_d)
}

fn validate(data: &[f64], n: usize, dim: usize, k: usize) -> Result<(), KmeansError> {
    if k == 0 {
        return Err(KmeansError::ZeroK);
    }
    if dim == 0 {
        return Err(KmeansError::ZeroDim);
    }
    if n == 0 {
        return Err(KmeansError::NoPoints);
    }
    if data.len() != n * dim {
        return Err(KmeansError::ShapeMismatch {
            expected: n * dim,
            got: data.len(),
        });
    }
    Ok(())
}

/// Naive full-scan Lloyd update step: recompute every centroid as the mean
/// of its members (point-order summation), reseeding empty clusters at the
/// point farthest from its own centroid. `sums`/`counts` are caller-owned
/// scratch; `centroids` is mutated in place exactly as the reference kernel
/// does — in particular, the reseed scan for an empty cluster `c` sees the
/// already-updated centroids of clusters `< c` and the stale centroids of
/// clusters `>= c`.
#[allow(clippy::too_many_arguments)]
fn update_centroids(
    data: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    assignments: &[u32],
    centroids: &mut [f64],
    sums: &mut [f64],
    counts: &mut [u64],
) {
    sums.fill(0.0);
    counts.fill(0);
    for i in 0..n {
        let c = assignments[i] as usize;
        counts[c] += 1;
        let p = &data[i * dim..(i + 1) * dim];
        for (s, &v) in sums[c * dim..(c + 1) * dim].iter_mut().zip(p) {
            *s += v;
        }
    }
    for c in 0..k {
        if counts[c] == 0 {
            // Reseed an empty cluster at the point farthest from its
            // current centroid.
            let mut far = 0usize;
            let mut far_d = -1.0;
            for i in 0..n {
                let p = &data[i * dim..(i + 1) * dim];
                let c_own = assignments[i] as usize;
                let d = sq_dist(p, &centroids[c_own * dim..(c_own + 1) * dim]);
                if d > far_d {
                    far_d = d;
                    far = i;
                }
            }
            centroids[c * dim..(c + 1) * dim].copy_from_slice(&data[far * dim..(far + 1) * dim]);
        } else {
            for (cc, s) in centroids[c * dim..(c + 1) * dim]
                .iter_mut()
                .zip(&sums[c * dim..(c + 1) * dim])
            {
                *cc = s / counts[c] as f64;
            }
        }
    }
}

/// The naive full-scan Lloyd kernel: every iteration computes all `n * k`
/// distances. Kept as the differential-testing oracle for [`kmeans`];
/// identical output, no pruning.
///
/// # Errors
///
/// Returns a [`KmeansError`] if `k` is zero, `dim` is zero,
/// `data.len() != n * dim`, or there are no points.
pub fn kmeans_reference(
    data: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    max_iter: u32,
    seed: u64,
) -> Result<KmeansResult, KmeansError> {
    validate(data, n, dim, k)?;
    let k = k.min(n);
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut centroids = plus_plus_init(data, n, dim, k, &mut rng);
    let mut assignments = vec![0u32; n];
    let mut iterations = 0;
    let mut inertia = f64::INFINITY;
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0u64; k];
    for iter in 0..max_iter {
        iterations = iter + 1;
        // Assignment step.
        let mut changed = false;
        let mut new_inertia = 0.0;
        for i in 0..n {
            let p = &data[i * dim..(i + 1) * dim];
            let mut best = 0u32;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let d = sq_dist(p, &centroids[c * dim..(c + 1) * dim]);
                if d < best_d {
                    best_d = d;
                    best = c as u32;
                }
            }
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
            new_inertia += best_d;
        }
        inertia = new_inertia;
        if !changed && iter > 0 {
            break;
        }
        update_centroids(
            data,
            n,
            dim,
            k,
            &assignments,
            &mut centroids,
            &mut sums,
            &mut counts,
        );
    }
    Ok(KmeansResult::assemble(
        k,
        assignments,
        centroids,
        inertia,
        iterations,
    ))
}

/// Half the distance from each centroid to its nearest other centroid
/// (Hamerly's `s(c)`; infinite for `k == 1`).
fn half_dists(centroids: &[f64], k: usize, dim: usize, out: &mut [f64]) {
    for c in 0..k {
        let mut m = f64::INFINITY;
        for o in 0..k {
            if o == c {
                continue;
            }
            let d = sq_dist(
                &centroids[c * dim..(c + 1) * dim],
                &centroids[o * dim..(o + 1) * dim],
            );
            if d < m {
                m = d;
            }
        }
        out[c] = 0.5 * m.sqrt();
    }
}

/// Runs k-means on `n` points of `dim` dimensions stored row-major in
/// `data`.
///
/// This is the bounds-pruned kernel; it returns output bit-identical to
/// [`kmeans_reference`] (see the module docs for the argument) while
/// skipping the k-way distance scan for points whose bounds prove the
/// assignment cannot change.
///
/// # Errors
///
/// Returns a [`KmeansError`] if `k` is zero, `dim` is zero,
/// `data.len() != n * dim`, or there are no points.
pub fn kmeans(
    data: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    max_iter: u32,
    seed: u64,
) -> Result<KmeansResult, KmeansError> {
    validate(data, n, dim, k)?;
    Ok(kmeans_lanes(
        data,
        &to_blocks(data, n, dim),
        n,
        dim,
        k,
        max_iter,
        seed,
    ))
}

/// The body of [`kmeans`] on validated input. `data_b` is `data` in lane
/// blocks ([`to_blocks`]), shared by every run of a sweep.
fn kmeans_lanes(
    data: &[f64],
    data_b: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    max_iter: u32,
    seed: u64,
) -> KmeansResult {
    let k = k.min(n);
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut centroids = plus_plus_init_lanes(data, data_b, n, dim, k, &mut rng);
    let mut assignments = vec![0u32; n];
    let mut iterations = 0;
    let mut inertia = f64::INFINITY;

    // Pruning state. `upper[i]` bounds the Euclidean distance from point i
    // to its assigned centroid from above; `lower[i]` bounds the distance
    // to every *other* centroid from below. Both start vacuous so the
    // first iteration scans everything, exactly like the reference.
    let mut upper = vec![f64::INFINITY; n];
    let mut lower = vec![f64::NEG_INFINITY; n];
    let mut half = vec![0.0f64; k];
    let mut drift = vec![0.0f64; k];
    // Scratch reused across iterations (the reference allocates per
    // iteration; zero-filled scratch holds the same values).
    let mut old_centroids = vec![0.0f64; k * dim];
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0u64; k];
    // The centroids in lane blocks, rewritten once per iteration, and the
    // lane distances of the point being scanned (padding lanes unused).
    let mut centroids_b = vec![0.0f64; padded(k) * dim];
    let mut dists = vec![0.0f64; padded(k)];

    // A skip is taken only when a bound gap exceeds `eps`, an absolute
    // margin scaled to the data's magnitude. Accumulated floating-point
    // error in the bounds is below ~1e-13 of the distance scale, so a
    // 1e-9-of-scale margin certifies the reference argmin is unchanged
    // (ties — e.g. duplicate centroids — never show a gap above eps and
    // always fall through to the full scan).
    let radius = (0..n)
        .map(|i| {
            data[i * dim..(i + 1) * dim]
                .iter()
                .map(|x| x * x)
                .sum::<f64>()
        })
        .fold(0.0f64, f64::max)
        .sqrt();
    let eps = 1e-9 * (1.0 + 2.0 * radius);

    for iter in 0..max_iter {
        iterations = iter + 1;
        half_dists(&centroids, k, dim, &mut half);
        to_blocks_into(&centroids, dim, &mut centroids_b);
        let mut changed = false;
        for i in 0..n {
            let a = assignments[i] as usize;
            let bound = half[a].max(lower[i]);
            if bound - upper[i] > eps {
                continue;
            }
            let p = &data[i * dim..(i + 1) * dim];
            // Tightening pass: replace the drift-inflated upper bound by
            // the exact distance to the assigned centroid. Pointless on
            // the first visit (upper is vacuous INFINITY), so skip it
            // there.
            if upper[i].is_finite() {
                let tight = sq_dist(p, &centroids[a * dim..(a + 1) * dim]).sqrt();
                upper[i] = tight;
                if bound - tight > eps {
                    continue;
                }
            }
            // Full scan: all k distances in lanes, each with `sq_dist`'s
            // bits, then the reference argmin over them in centroid order.
            // Strict `<` keeps the first minimum, and the second-smallest
            // distance refreshes the lower bound.
            sq_dists_lanes(p, &centroids_b, &mut dists);
            let mut best = 0u32;
            let mut best_d = f64::INFINITY;
            let mut second_d = f64::INFINITY;
            for (c, &d) in dists[..k].iter().enumerate() {
                if d < best_d {
                    second_d = best_d;
                    best_d = d;
                    best = c as u32;
                } else if d < second_d {
                    second_d = d;
                }
            }
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
            upper[i] = best_d.sqrt();
            lower[i] = second_d.sqrt();
        }
        // The reference overwrites its inertia every iteration, so only
        // the final assignment pass's value survives. Reproduce exactly
        // that value — the same `sq_dist` calls summed in the same point
        // order — on the pass the reference would have exited from.
        let final_pass = (!changed && iter > 0) || iter + 1 == max_iter;
        if final_pass {
            let mut total = 0.0;
            for i in 0..n {
                let p = &data[i * dim..(i + 1) * dim];
                let a = assignments[i] as usize;
                total += sq_dist(p, &centroids[a * dim..(a + 1) * dim]);
            }
            inertia = total;
        }
        if !changed && iter > 0 {
            break;
        }
        old_centroids.copy_from_slice(&centroids);
        update_centroids(
            data,
            n,
            dim,
            k,
            &assignments,
            &mut centroids,
            &mut sums,
            &mut counts,
        );
        // Bound maintenance: each upper bound inflates by its centroid's
        // drift. A lower bound deflates by the most any *other* centroid
        // can have moved: the largest drift overall, or the second
        // largest when the point's own centroid is the largest mover
        // (Hamerly's refinement — it keeps bounds tight through the big
        // single-centroid jumps that empty-cluster reseeds cause).
        let mut d1 = 0.0f64;
        let mut d2 = 0.0f64;
        let mut c1 = 0usize;
        for c in 0..k {
            let d = sq_dist(
                &old_centroids[c * dim..(c + 1) * dim],
                &centroids[c * dim..(c + 1) * dim],
            )
            .sqrt();
            drift[c] = d;
            if d > d1 {
                d2 = d1;
                d1 = d;
                c1 = c;
            } else if d > d2 {
                d2 = d;
            }
        }
        for i in 0..n {
            let a = assignments[i] as usize;
            upper[i] += drift[a];
            lower[i] -= if a == c1 { d2 } else { d1 };
        }
    }
    KmeansResult::assemble(k, assignments, centroids, inertia, iterations)
}

/// k-means++ seeding (Arthur & Vassilvitskii, 2007).
fn plus_plus_init(
    data: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    rng: &mut Xoshiro256StarStar,
) -> Vec<f64> {
    let mut centroids = Vec::with_capacity(k * dim);
    let first = rng.next_below(n as u64) as usize;
    centroids.extend_from_slice(&data[first * dim..(first + 1) * dim]);
    let mut dists: Vec<f64> = (0..n)
        .map(|i| sq_dist(&data[i * dim..(i + 1) * dim], &centroids[0..dim]))
        .collect();
    for c in 1..k {
        let chosen = plus_plus_pick(&dists, rng);
        centroids.extend_from_slice(&data[chosen * dim..(chosen + 1) * dim]);
        for i in 0..n {
            let d = sq_dist(
                &data[i * dim..(i + 1) * dim],
                &centroids[c * dim..(c + 1) * dim],
            );
            if d < dists[i] {
                dists[i] = d;
            }
        }
    }
    centroids
}

/// The next k-means++ centre: a point drawn with probability proportional
/// to its squared distance from the centres chosen so far.
fn plus_plus_pick(dists: &[f64], rng: &mut Xoshiro256StarStar) -> usize {
    let n = dists.len();
    let total: f64 = dists.iter().sum();
    if total <= 0.0 {
        // All points coincide with chosen centroids; any point works.
        return rng.next_below(n as u64) as usize;
    }
    let mut target = rng.next_f64() * total;
    for (i, &d) in dists.iter().enumerate() {
        if target < d {
            return i;
        }
        target -= d;
    }
    n - 1
}

/// [`plus_plus_init`] with each new centre's distances to all `n` points
/// filled in lanes over `data_b` (`data` in lane blocks): same bits, same
/// draws.
fn plus_plus_init_lanes(
    data: &[f64],
    data_b: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    rng: &mut Xoshiro256StarStar,
) -> Vec<f64> {
    let mut centroids = Vec::with_capacity(k * dim);
    let first = rng.next_below(n as u64) as usize;
    centroids.extend_from_slice(&data[first * dim..(first + 1) * dim]);
    let mut dists = vec![0.0f64; padded(n)];
    sq_dists_lanes(&centroids[0..dim], data_b, &mut dists);
    let mut fresh = vec![0.0f64; padded(n)];
    for c in 1..k {
        let chosen = plus_plus_pick(&dists[..n], rng);
        centroids.extend_from_slice(&data[chosen * dim..(chosen + 1) * dim]);
        sq_dists_lanes(&centroids[c * dim..(c + 1) * dim], data_b, &mut fresh);
        for (d, &f) in dists.iter_mut().zip(&fresh) {
            if f < *d {
                *d = f;
            }
        }
    }
    centroids
}

/// Per-restart seed: the same derivation the serial loop has always used.
#[inline]
fn restart_seed(seed: u64, run: u32) -> u64 {
    seed.wrapping_add(u64::from(run) * 0x9E37)
}

/// Runs k-means `n_init` times with different derived seeds, returning the
/// run with the lowest inertia (ties broken by the lowest restart index).
///
/// Serial wrapper around [`kmeans_best_of_jobs`].
///
/// # Errors
///
/// As [`kmeans`]; additionally [`KmeansError::ZeroInit`] if `n_init` is
/// zero.
pub fn kmeans_best_of(
    data: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    max_iter: u32,
    seed: u64,
    n_init: u32,
) -> Result<KmeansResult, KmeansError> {
    kmeans_best_of_jobs(data, n, dim, k, max_iter, seed, n_init, SERIAL)
}

/// [`kmeans_best_of`] running every restart through the naive
/// [`kmeans_reference`] kernel — same seed schedule, same winner fold.
///
/// This is the baseline the perf harness times the pruned kernel against;
/// it must match [`kmeans_best_of`] bit-for-bit.
///
/// # Errors
///
/// As [`kmeans_best_of`].
pub fn kmeans_best_of_reference(
    data: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    max_iter: u32,
    seed: u64,
    n_init: u32,
) -> Result<KmeansResult, KmeansError> {
    if n_init == 0 {
        return Err(KmeansError::ZeroInit);
    }
    let mut best: Option<KmeansResult> = None;
    for run in 0..n_init {
        let r = kmeans_reference(data, n, dim, k, max_iter, restart_seed(seed, run))?;
        if best.as_ref().is_none_or(|b| r.inertia < b.inertia) {
            best = Some(r);
        }
    }
    Ok(best.expect("n_init > 0"))
}

/// [`kmeans_best_of`] with the restarts fanned out over `jobs` workers:
/// the one-`k` case of [`kmeans_sweep_jobs`].
///
/// Restart results are collected in restart order and folded with the
/// strict `inertia <` rule, so the winner — lowest inertia, ties broken
/// by lowest restart index — is identical for every job count.
///
/// # Errors
///
/// As [`kmeans_best_of`].
#[allow(clippy::too_many_arguments)]
pub fn kmeans_best_of_jobs(
    data: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    max_iter: u32,
    seed: u64,
    n_init: u32,
    jobs: Jobs,
) -> Result<KmeansResult, KmeansError> {
    let mut winners = kmeans_sweep_jobs(data, n, dim, &[(k, seed)], max_iter, n_init, jobs)?;
    Ok(winners.pop().expect("one k, one winner"))
}

/// Runs [`kmeans_best_of`] for every `(k, seed)` in `ks` and returns the
/// winners in `ks` order: the BIC sweep as one task list.
///
/// Every `(k, restart)` pair is one task of a single
/// [`try_parallel_map`] over `jobs` workers, so no `k` waits for its own
/// slowest restart while a worker idles, and one lane-block copy of
/// `data` serves every task. Each `k`'s restarts come back in restart
/// order and fold with the strict `inertia <` rule, so every winner is
/// bit-identical to [`kmeans_best_of`] for that `k` and seed, for every
/// job count.
///
/// # Errors
///
/// The error a serial loop over `ks` calling [`kmeans_best_of`] would
/// return first: [`KmeansError::ZeroInit`] if `n_init` is zero and `ks`
/// is not empty, otherwise the first failing `(k, restart)` in order.
pub fn kmeans_sweep_jobs(
    data: &[f64],
    n: usize,
    dim: usize,
    ks: &[(usize, u64)],
    max_iter: u32,
    n_init: u32,
    jobs: Jobs,
) -> Result<Vec<KmeansResult>, KmeansError> {
    let Some(&(first_k, _)) = ks.first() else {
        return Ok(Vec::new());
    };
    if n_init == 0 {
        return Err(KmeansError::ZeroInit);
    }
    // The first task's own check: if the shape is bad, this is the error
    // it would report. Past it, a task can only fail with `ZeroK`.
    validate(data, n, dim, first_k)?;
    let data_b = to_blocks(data, n, dim);
    let tasks: Vec<(usize, u64)> = ks
        .iter()
        .flat_map(|&(k, seed)| (0..n_init).map(move |run| (k, restart_seed(seed, run))))
        .collect();
    let runs = try_parallel_map(jobs, &tasks, |_, &(k, seed)| {
        validate(data, n, dim, k)?;
        Ok(kmeans_lanes(data, &data_b, n, dim, k, max_iter, seed))
    })?;
    let mut runs = runs.into_iter();
    Ok(ks
        .iter()
        .map(|_| {
            let mut best = runs.next().expect("n_init > 0");
            for r in runs.by_ref().take(n_init as usize - 1) {
                if r.inertia < best.inertia {
                    best = r;
                }
            }
            best
        })
        .collect())
}

/// Which clustering kernel the SimPoint analysis runs.
///
/// * [`KmeansMode::Lloyd`] — the default: bounds-pruned full Lloyd
///   ([`kmeans`]), bit-identical to [`kmeans_reference`], `n_init`
///   restarts.
/// * [`KmeansMode::MiniBatch`] — the streaming mini-batch kernel
///   ([`kmeans_minibatch`]): single deterministic run, O(k·dim + batch)
///   working state, inertia within a documented tolerance of the
///   reference rather than bit-identical (see `docs/performance.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KmeansMode {
    /// Full Lloyd with restarts (bit-identical to the reference oracle).
    #[default]
    Lloyd,
    /// Deterministic mini-batch k-means (tolerance-pinned, streaming).
    MiniBatch,
}

impl KmeansMode {
    /// Stable lowercase label (CLI value, fingerprints, JSON).
    pub fn label(self) -> &'static str {
        match self {
            KmeansMode::Lloyd => "lloyd",
            KmeansMode::MiniBatch => "minibatch",
        }
    }

    /// Parses a CLI label produced by [`KmeansMode::label`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lloyd" => Some(KmeansMode::Lloyd),
            "minibatch" => Some(KmeansMode::MiniBatch),
            _ => None,
        }
    }
}

impl fmt::Display for KmeansMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Default mini-batch size for [`MiniBatchKmeans`] / [`kmeans_minibatch`].
pub const MINIBATCH_BATCH: usize = 1024;

/// Passes over the data made by [`kmeans_minibatch`]; Sculley-style
/// per-center learning rates converge in a handful of epochs, and a fixed
/// count keeps the schedule deterministic and cheap.
pub const MINIBATCH_PASSES: u32 = 3;

/// Streaming mini-batch k-means (Sculley, WWW 2010).
///
/// Points are pushed one at a time and buffered into batches of `batch`
/// rows; each full batch is assigned to the nearest centroid and folded in
/// with per-center learning rates `eta = 1 / count(c)`. Working state is
/// `O(k * dim + batch * dim)` — independent of how many points stream
/// through — which is what lets the million-slice perf grid run without
/// materializing its input.
///
/// Determinism: centroids are seeded by k-means++ over the *first* buffered
/// batch using the caller's seed, and every update is applied in push
/// order, so the result is a pure function of `(seed, push sequence)`.
/// The inner distance kernel is the chunked SIMD-friendly one
/// ([`sq_dist_chunked`]); the mini-batch path owns its numerics and is
/// pinned against [`kmeans_reference`] by tolerance, not bit-identity.
#[derive(Debug, Clone)]
pub struct MiniBatchKmeans {
    dim: usize,
    k: usize,
    batch: usize,
    rng: Xoshiro256StarStar,
    centroids: Vec<f64>,
    counts: Vec<u64>,
    buffer: Vec<f64>,
    buffered: usize,
    seen: u64,
    initialized: bool,
}

impl MiniBatchKmeans {
    /// Creates a streaming clusterer for `dim`-dimensional points.
    ///
    /// # Errors
    ///
    /// [`KmeansError::ZeroK`] / [`KmeansError::ZeroDim`] if `k` or `dim`
    /// is zero; [`KmeansError::NoPoints`] if `batch` is zero (a zero-row
    /// batch can never initialize).
    pub fn new(dim: usize, k: usize, batch: usize, seed: u64) -> Result<Self, KmeansError> {
        if k == 0 {
            return Err(KmeansError::ZeroK);
        }
        if dim == 0 {
            return Err(KmeansError::ZeroDim);
        }
        if batch == 0 {
            return Err(KmeansError::NoPoints);
        }
        Ok(Self {
            dim,
            k,
            batch,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            centroids: Vec::new(),
            counts: Vec::new(),
            buffer: Vec::with_capacity(batch * dim),
            buffered: 0,
            seen: 0,
            initialized: false,
        })
    }

    /// Point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Effective cluster count: the requested `k`, capped at the number of
    /// points seen once initialization has happened.
    pub fn k(&self) -> usize {
        if self.initialized {
            self.counts.len()
        } else {
            self.k
        }
    }

    /// Total points pushed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Pushes one point. Panics if `point.len() != dim`.
    pub fn push(&mut self, point: &[f64]) {
        assert_eq!(point.len(), self.dim, "mini-batch point dim mismatch");
        self.buffer.extend_from_slice(point);
        self.buffered += 1;
        self.seen += 1;
        if self.buffered == self.batch {
            self.flush_batch();
        }
    }

    /// Folds the buffered rows into the centroids and clears the buffer.
    fn flush_batch(&mut self) {
        if self.buffered == 0 {
            return;
        }
        if !self.initialized {
            // Seed with k-means++ over the first batch; the same rows are
            // then folded in as an ordinary batch below, so the seeding
            // sample is not privileged beyond its head-of-stream position.
            let k_eff = self.k.min(self.buffered);
            self.centroids =
                plus_plus_init(&self.buffer, self.buffered, self.dim, k_eff, &mut self.rng);
            self.counts = vec![0u64; k_eff];
            self.initialized = true;
        }
        let k = self.counts.len();
        let dim = self.dim;
        for i in 0..self.buffered {
            let p = &self.buffer[i * dim..(i + 1) * dim];
            let (c, _) = nearest_chunked(&self.centroids, k, dim, p);
            let c = c as usize;
            self.counts[c] += 1;
            let eta = 1.0 / self.counts[c] as f64;
            for (cc, &v) in self.centroids[c * dim..(c + 1) * dim].iter_mut().zip(p) {
                *cc += eta * (v - *cc);
            }
        }
        self.buffer.clear();
        self.buffered = 0;
    }

    /// Flushes any partial batch and returns the centroid matrix
    /// (`k_eff * dim`, row-major).
    ///
    /// # Errors
    ///
    /// [`KmeansError::NoPoints`] if nothing was ever pushed.
    pub fn finish(mut self) -> Result<Vec<f64>, KmeansError> {
        self.flush_batch();
        if !self.initialized {
            return Err(KmeansError::NoPoints);
        }
        Ok(self.centroids)
    }

    /// Flushes any partial batch in place (pass boundary in a multi-pass
    /// schedule) so later pushes start a fresh batch.
    pub fn end_pass(&mut self) {
        self.flush_batch();
    }

    /// Current centroids (empty before the first batch completes).
    pub fn centroids(&self) -> &[f64] {
        &self.centroids
    }
}

/// Deterministic mini-batch k-means over a materialized matrix: the
/// convenience wrapper the SimPoint `--kmeans-mode minibatch` path uses.
///
/// Runs [`MINIBATCH_PASSES`] passes, each over a fresh seeded
/// Fisher–Yates permutation of the rows, through a [`MiniBatchKmeans`]
/// with batch size `batch.min(n)`, then computes final assignments and
/// inertia in one full pass with the chunked distance kernel. A single
/// deterministic run — no restarts — so `n_init` does not apply.
///
/// # Errors
///
/// As [`kmeans`].
pub fn kmeans_minibatch(
    data: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    seed: u64,
    batch: usize,
) -> Result<KmeansResult, KmeansError> {
    validate(data, n, dim, k)?;
    let k = k.min(n);
    let mut mb = MiniBatchKmeans::new(dim, k, batch.max(1).min(n), seed)?;
    // The schedule RNG is domain-separated from the seeding RNG inside
    // MiniBatchKmeans so reordering passes never perturbs the init.
    let mut schedule = Xoshiro256StarStar::seed_from_u64(seed ^ 0x5C11_EE75_EED0_F00D);
    let mut order: Vec<usize> = (0..n).collect();
    for _pass in 0..MINIBATCH_PASSES {
        // Fisher–Yates, index-ordered and seeded: deterministic schedule.
        for i in (1..n).rev() {
            let j = schedule.next_below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        for &i in &order {
            mb.push(&data[i * dim..(i + 1) * dim]);
        }
        mb.end_pass();
    }
    let k_eff = mb.k();
    let centroids = mb.finish()?;
    let mut assignments = vec![0u32; n];
    let mut inertia = 0.0;
    for i in 0..n {
        let (c, d) = nearest_chunked(&centroids, k_eff, dim, &data[i * dim..(i + 1) * dim]);
        assignments[i] = c;
        inertia += d;
    }
    Ok(KmeansResult::assemble(
        k_eff,
        assignments,
        centroids,
        inertia,
        MINIBATCH_PASSES,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated 2-D blobs.
    fn blobs() -> (Vec<f64>, usize) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(99);
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)];
        let mut data = Vec::new();
        for &(cx, cy) in &centers {
            for _ in 0..40 {
                data.push(cx + rng.next_f64() - 0.5);
                data.push(cy + rng.next_f64() - 0.5);
            }
        }
        (data, 120)
    }

    #[test]
    fn recovers_blobs() {
        let (data, n) = blobs();
        let r = kmeans(&data, n, 2, 3, 100, 1).unwrap();
        assert_eq!(r.occupied_clusters(), 3);
        let sizes = r.cluster_sizes();
        assert!(sizes.iter().all(|&s| s == 40), "sizes {sizes:?}");
        // Points in the same blob share a cluster.
        for blob in 0..3 {
            let first = r.assignments[blob * 40];
            assert!(r.assignments[blob * 40..(blob + 1) * 40]
                .iter()
                .all(|&a| a == first));
        }
        assert!(r.avg_variance() < 1.0);
    }

    #[test]
    fn k_capped_at_n() {
        let data = vec![0.0, 0.0, 1.0, 1.0];
        let r = kmeans(&data, 2, 2, 10, 50, 1).unwrap();
        assert_eq!(r.k, 2);
        assert_eq!(r.inertia, 0.0);
    }

    #[test]
    fn identical_points_one_cluster_zero_inertia() {
        let data = vec![3.0; 20]; // 10 identical 2-D points
        let r = kmeans(&data, 10, 2, 3, 50, 1).unwrap();
        assert_eq!(r.inertia, 0.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let (data, n) = blobs();
        let a = kmeans(&data, n, 2, 3, 100, 5).unwrap();
        let b = kmeans(&data, n, 2, 3, 100, 5).unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn more_clusters_never_increase_inertia_much() {
        let (data, n) = blobs();
        let k3 = kmeans_best_of(&data, n, 2, 3, 100, 1, 3).unwrap();
        let k6 = kmeans_best_of(&data, n, 2, 6, 100, 1, 3).unwrap();
        assert!(k6.inertia <= k3.inertia * 1.01);
    }

    #[test]
    fn best_of_picks_lowest_inertia() {
        let (data, n) = blobs();
        let single = kmeans(&data, n, 2, 3, 100, 1).unwrap();
        let multi = kmeans_best_of(&data, n, 2, 3, 100, 1, 5).unwrap();
        assert!(multi.inertia <= single.inertia + 1e-9);
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        assert_eq!(
            kmeans(&[1.0, 2.0, 3.0], 2, 2, 1, 10, 1),
            Err(KmeansError::ShapeMismatch {
                expected: 4,
                got: 3
            })
        );
        assert_eq!(kmeans(&[], 0, 2, 1, 10, 1), Err(KmeansError::NoPoints));
        assert_eq!(kmeans(&[1.0], 1, 0, 1, 10, 1), Err(KmeansError::ZeroDim));
        assert_eq!(kmeans(&[1.0], 1, 1, 0, 10, 1), Err(KmeansError::ZeroK));
        assert_eq!(
            kmeans_best_of(&[1.0], 1, 1, 1, 10, 1, 0),
            Err(KmeansError::ZeroInit)
        );
        assert_eq!(
            kmeans_reference(&[], 0, 2, 1, 10, 1),
            Err(KmeansError::NoPoints)
        );
    }

    /// Asserts two results are bit-identical: every float compared by its
    /// bit pattern, not by `==`.
    pub(super) fn assert_bit_identical(a: &KmeansResult, b: &KmeansResult, what: &str) {
        assert_eq!(a.k, b.k, "{what}: k");
        assert_eq!(a.iterations, b.iterations, "{what}: iterations");
        assert_eq!(a.assignments, b.assignments, "{what}: assignments");
        assert_eq!(
            a.inertia.to_bits(),
            b.inertia.to_bits(),
            "{what}: inertia {:?} vs {:?}",
            a.inertia,
            b.inertia
        );
        assert_eq!(a.centroids.len(), b.centroids.len(), "{what}: centroid len");
        for (i, (x, y)) in a.centroids.iter().zip(&b.centroids).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: centroid[{i}] {x:?} vs {y:?}"
            );
        }
        assert_eq!(a.cluster_sizes(), b.cluster_sizes(), "{what}: sizes");
    }

    fn random_matrix(seed: u64, n: usize, dim: usize, spread: f64) -> Vec<f64> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..n * dim)
            .map(|_| (rng.next_f64() - 0.5) * spread)
            .collect()
    }

    #[test]
    fn lane_distances_carry_sq_dist_bits() {
        // Every lane must equal `sq_dist` in every bit, in both
        // orientations the kernel uses: point against centroid columns
        // (the full scan) and centroid against point columns (seeding).
        // Coordinates span many magnitudes, and include signed zeros and
        // an exact copy, so any change in the per-lane summation order
        // or start value shows up as a flipped low bit.
        sampsim_util::prop::run_cases("lane-distance-bits", 64, |g| {
            let dim = g.usize_in(1..21);
            let lanes = g.usize_in(1..40);
            let mut rng = Xoshiro256StarStar::seed_from_u64(g.u64_in(0..u64::MAX - 1));
            let mut coord = || match rng.next_below(8) {
                0 => 0.0,
                1 => -0.0,
                _ => (rng.next_f64() - 0.5) * 10f64.powi(rng.next_below(9) as i32 - 4),
            };
            let point: Vec<f64> = (0..dim).map(|_| coord()).collect();
            let mut cols: Vec<f64> = (0..lanes * dim).map(|_| coord()).collect();
            cols[..dim].copy_from_slice(&point);
            let blocks = to_blocks(&cols, lanes, dim);
            let mut out = vec![f64::NAN; padded(lanes)];
            sq_dists_lanes(&point, &blocks, &mut out);
            for (j, &d) in out[..lanes].iter().enumerate() {
                let col = &cols[j * dim..(j + 1) * dim];
                assert_eq!(d.to_bits(), sq_dist(&point, col).to_bits(), "lane {j}");
                assert_eq!(
                    d.to_bits(),
                    sq_dist(col, &point).to_bits(),
                    "lane {j} swapped"
                );
            }
        });
    }

    #[test]
    fn pruned_matches_reference_on_blobs() {
        let (data, n) = blobs();
        for k in [1, 2, 3, 5, 8] {
            for seed in [0, 1, 7] {
                let p = kmeans(&data, n, 2, k, 100, seed).unwrap();
                let r = kmeans_reference(&data, n, 2, k, 100, seed).unwrap();
                assert_bit_identical(&p, &r, &format!("blobs k={k} seed={seed}"));
            }
        }
    }

    #[test]
    fn pruned_matches_reference_on_random_data() {
        for (n, dim, k) in [(50, 3, 4), (200, 15, 12), (33, 1, 33)] {
            let data = random_matrix(n as u64 * 31 + dim as u64, n, dim, 4.0);
            let p = kmeans(&data, n, dim, k, 60, 9).unwrap();
            let r = kmeans_reference(&data, n, dim, k, 60, 9).unwrap();
            assert_bit_identical(&p, &r, &format!("random n={n} dim={dim} k={k}"));
        }
    }

    #[test]
    fn pruned_matches_reference_with_duplicates_and_reseeds() {
        // Many duplicated points force zero inter-centroid distances
        // (ties) and empty-cluster reseeds; both kernels must walk the
        // same reseed path.
        let mut data = vec![1.0; 30]; // 15 identical 2-D points
        data.extend_from_slice(&[50.0, 50.0, 50.1, 50.0, -9.0, 2.0]);
        let n = 18;
        for k in [2, 5, 18] {
            for seed in [3, 4] {
                let p = kmeans(&data, n, 2, k, 50, seed).unwrap();
                let r = kmeans_reference(&data, n, 2, k, 50, seed).unwrap();
                assert_bit_identical(&p, &r, &format!("dup k={k} seed={seed}"));
            }
        }
    }

    #[test]
    fn pruned_matches_reference_at_iteration_limits() {
        let (data, n) = blobs();
        for max_iter in [0, 1, 2, 3] {
            let p = kmeans(&data, n, 2, 4, max_iter, 2).unwrap();
            let r = kmeans_reference(&data, n, 2, 4, max_iter, 2).unwrap();
            assert_bit_identical(&p, &r, &format!("max_iter={max_iter}"));
        }
    }

    #[test]
    fn parallel_restarts_match_serial() {
        let (data, n) = blobs();
        let serial = kmeans_best_of(&data, n, 2, 4, 100, 11, 6).unwrap();
        for jobs in [Jobs::new(2).unwrap(), Jobs::new(7).unwrap(), Jobs::Auto] {
            let par = kmeans_best_of_jobs(&data, n, 2, 4, 100, 11, 6, jobs).unwrap();
            assert_bit_identical(&serial, &par, &format!("jobs={jobs}"));
        }
    }

    #[test]
    fn sweep_errors_match_the_serial_loop() {
        // The first failing (k, restart) in order, exactly as a serial
        // loop of `kmeans_best_of` over the same ks reports it.
        let (data, n) = blobs();
        let check = |ks: &[(usize, u64)], data: &[f64], n_init: u32| {
            let serial = ks
                .iter()
                .map(|&(k, seed)| kmeans_best_of(data, n, 2, k, 50, seed, n_init))
                .collect::<Result<Vec<_>, _>>();
            for jobs in [SERIAL, Jobs::new(3).unwrap()] {
                let got = kmeans_sweep_jobs(data, n, 2, ks, 50, n_init, jobs);
                assert_eq!(got, serial, "ks={ks:?} n_init={n_init}");
            }
        };
        check(&[(3, 1), (0, 2), (4, 3)], &data, 2);
        check(&[(0, 1), (3, 2)], &data[1..], 2);
        check(&[(3, 1), (4, 2)], &data[1..], 2);
        check(&[(3, 1)], &data, 0);
        check(&[], &data, 0);
    }

    #[test]
    fn best_of_reference_matches_pruned_best_of() {
        let (data, n) = blobs();
        for k in [1, 3, 5] {
            let naive = kmeans_best_of_reference(&data, n, 2, k, 100, 17, 4).unwrap();
            let pruned = kmeans_best_of(&data, n, 2, k, 100, 17, 4).unwrap();
            assert_bit_identical(&naive, &pruned, &format!("best-of k={k}"));
        }
        assert!(matches!(
            kmeans_best_of_reference(&data, n, 2, 2, 100, 17, 0),
            Err(KmeansError::ZeroInit)
        ));
    }

    #[test]
    fn chunked_distance_agrees_with_reference_distance() {
        let a = random_matrix(1, 1, 23, 6.0);
        let b = random_matrix(2, 1, 23, 6.0);
        let exact = sq_dist(&a, &b);
        let chunked = sq_dist_chunked(&a, &b);
        assert!((exact - chunked).abs() <= 1e-12 * exact.max(1.0));
    }

    #[test]
    fn minibatch_mode_labels_round_trip() {
        for mode in [KmeansMode::Lloyd, KmeansMode::MiniBatch] {
            assert_eq!(KmeansMode::parse(mode.label()), Some(mode));
            assert_eq!(format!("{mode}"), mode.label());
        }
        assert_eq!(KmeansMode::parse("hamerly"), None);
        assert_eq!(KmeansMode::default(), KmeansMode::Lloyd);
    }

    #[test]
    fn minibatch_recovers_blobs_within_tolerance() {
        let (data, n) = blobs();
        let mb = kmeans_minibatch(&data, n, 2, 3, 7, 32).unwrap();
        let reference = kmeans_reference(&data, n, 2, 3, 100, 7).unwrap();
        assert_eq!(mb.occupied_clusters(), 3);
        // The documented tolerance: mini-batch inertia within 1.5x of the
        // full-Lloyd reference (plus absolute slack for near-zero optima).
        assert!(
            mb.inertia <= 1.5 * reference.inertia + 1e-9,
            "minibatch inertia {} vs reference {}",
            mb.inertia,
            reference.inertia
        );
    }

    #[test]
    fn minibatch_tolerance_holds_over_random_blob_shapes() {
        // Property form of the tolerance pin: for random blob-shaped
        // inputs (random center count, dimensionality, batch and seed),
        // the streaming kernel's inertia stays within the documented 1.5x
        // of the full-Lloyd reference, and the streamed run is a pure
        // function of its seed. The generator keeps within-cluster spread
        // comparable to the center spread: with vanishing scatter and a
        // small first batch, mini-batch seeding can merge two far blobs —
        // a known Sculley-kernel failure mode outside the tolerance's
        // stated regime (the pipeline's projected BBV rows are bounded,
        // L1-normalized coordinates).
        sampsim_util::prop::run_cases("minibatch-tolerance", 24, |g| {
            let k = g.usize_in(2..6);
            let dim = g.usize_in(2..8);
            let per_cluster = g.usize_in(20..60);
            let n = k * per_cluster;
            let data_seed = g.u64_in(0..u64::MAX - 1);
            let mut rng = Xoshiro256StarStar::seed_from_u64(data_seed);
            let centers: Vec<f64> = (0..k * dim).map(|_| (rng.next_f64() - 0.5) * 4.0).collect();
            let data: Vec<f64> = (0..n)
                .flat_map(|i| {
                    let c = i % k;
                    (0..dim)
                        .map(|d| centers[c * dim + d] + (rng.next_f64() - 0.5) * 2.0)
                        .collect::<Vec<f64>>()
                })
                .collect();
            let batch = g.usize_in(8..128);
            let seed = g.u64_in(0..u64::MAX - 1);
            let mb = kmeans_minibatch(&data, n, dim, k, seed, batch).unwrap();
            let again = kmeans_minibatch(&data, n, dim, k, seed, batch).unwrap();
            assert_bit_identical(&mb, &again, "minibatch replay");
            let reference = kmeans_reference(&data, n, dim, k, 100, seed).unwrap();
            assert!(
                mb.inertia <= 1.5 * reference.inertia + 1e-9,
                "n={n} dim={dim} k={k} batch={batch} seed={seed:#x}: \
                 minibatch inertia {} vs reference {}",
                mb.inertia,
                reference.inertia
            );
        });
    }

    #[test]
    fn minibatch_deterministic_for_seed() {
        let data = random_matrix(42, 300, 15, 4.0);
        let a = kmeans_minibatch(&data, 300, 15, 12, 9, 64).unwrap();
        let b = kmeans_minibatch(&data, 300, 15, 12, 9, 64).unwrap();
        assert_bit_identical(&a, &b, "minibatch determinism");
    }

    #[test]
    fn minibatch_streaming_is_a_pure_function_of_push_order() {
        let data = random_matrix(5, 100, 4, 2.0);
        let mut a = MiniBatchKmeans::new(4, 5, 16, 3).unwrap();
        let mut b = MiniBatchKmeans::new(4, 5, 16, 3).unwrap();
        for i in 0..100 {
            a.push(&data[i * 4..(i + 1) * 4]);
            b.push(&data[i * 4..(i + 1) * 4]);
        }
        assert_eq!(a.seen(), 100);
        let ca = a.finish().unwrap();
        let cb = b.finish().unwrap();
        for (x, y) in ca.iter().zip(&cb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn minibatch_caps_k_and_rejects_bad_shapes() {
        let data = vec![0.0, 0.0, 1.0, 1.0];
        let r = kmeans_minibatch(&data, 2, 2, 10, 1, 8).unwrap();
        assert_eq!(r.k, 2);
        assert!(r.inertia <= 1e-12);
        assert_eq!(
            kmeans_minibatch(&[1.0], 1, 2, 1, 1, 8),
            Err(KmeansError::ShapeMismatch {
                expected: 2,
                got: 1
            })
        );
        assert!(matches!(
            MiniBatchKmeans::new(0, 3, 8, 1),
            Err(KmeansError::ZeroDim)
        ));
        assert!(matches!(
            MiniBatchKmeans::new(2, 0, 8, 1),
            Err(KmeansError::ZeroK)
        ));
        assert!(MiniBatchKmeans::new(2, 3, 8, 1).unwrap().finish().is_err());
    }

    #[test]
    fn minibatch_partial_final_batch_is_folded_in() {
        // 37 points with batch 16: the last 5 only reach the centroids via
        // the finish()-time flush.
        let data = random_matrix(8, 37, 3, 3.0);
        let mut mb = MiniBatchKmeans::new(3, 4, 16, 11).unwrap();
        for i in 0..37 {
            mb.push(&data[i * 3..(i + 1) * 3]);
        }
        let centroids = mb.finish().unwrap();
        assert_eq!(centroids.len(), 4 * 3);
        assert!(centroids.iter().all(|c| c.is_finite()));
    }
}
