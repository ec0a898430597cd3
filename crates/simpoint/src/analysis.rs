//! The end-to-end SimPoint analysis driver.

use crate::bbv::Bbv;
use crate::kmeans::{KmeansError, KmeansMode};
use crate::project::DEFAULT_DIM;
use crate::select::SimPoint;
use crate::strategy::SimPointStrategy;
use sampsim_exec::{Jobs, SERIAL};
use std::fmt;

/// Tuning knobs of the analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimPointOptions {
    /// Maximum number of clusters to consider (the paper's `MaxK`; its
    /// design sweep settles on 35).
    pub max_k: usize,
    /// Projected dimensionality (SimPoint uses 15).
    pub dim: usize,
    /// k-means restarts per candidate `k`.
    pub n_init: u32,
    /// Lloyd iteration cap.
    pub max_iter: u32,
    /// BIC score-range threshold for choosing `k` (SimPoint uses 0.9).
    pub bic_threshold: f64,
    /// Master seed for projection and clustering.
    pub seed: u64,
    /// When more slices than this are present, candidate `k` values are
    /// scored on a deterministic subsample (the final clustering still uses
    /// every slice) — the same cost-control SimPoint 3.0 applies.
    pub sample_size: usize,
    /// Clustering kernel: full Lloyd (default, bit-identical to the
    /// reference oracle) or deterministic mini-batch (tolerance-pinned,
    /// streaming working set).
    pub kmeans_mode: KmeansMode,
}

impl Default for SimPointOptions {
    /// The paper's chosen configuration: `MaxK = 35`, 15 dimensions,
    /// BIC threshold 0.9.
    fn default() -> Self {
        Self {
            max_k: 35,
            dim: DEFAULT_DIM,
            n_init: 2,
            max_iter: 60,
            bic_threshold: 0.9,
            seed: 0x51AB_0DD5,
            sample_size: 8_000,
            kmeans_mode: KmeansMode::Lloyd,
        }
    }
}

/// Errors raised by the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimPointError {
    /// No slices were supplied.
    NoSlices,
    /// `max_k` is zero: no candidate `k` to score.
    ZeroMaxK,
    /// `sample_size` is zero: every candidate `k` would be scored on an
    /// empty subsample.
    ZeroSampleSize,
    /// `max_iter` is zero under [`KmeansMode::Lloyd`]: no point would ever
    /// be assigned, so no clustering could be scored. The mini-batch kernel
    /// runs a fixed pass count and ignores `max_iter`.
    ZeroMaxIter,
    /// The clustering kernel rejected its input.
    Kmeans(KmeansError),
}

impl fmt::Display for SimPointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimPointError::NoSlices => write!(f, "no slices to analyze"),
            SimPointError::ZeroMaxK => write!(f, "max_k is 0; at least one cluster is required"),
            SimPointError::ZeroSampleSize => {
                write!(f, "sample_size is 0; BIC scoring would see no slices")
            }
            SimPointError::ZeroMaxIter => {
                write!(
                    f,
                    "max_iter is 0; Lloyd's algorithm would never assign points"
                )
            }
            SimPointError::Kmeans(e) => write!(f, "clustering failed: {e}"),
        }
    }
}

impl std::error::Error for SimPointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimPointError::Kmeans(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KmeansError> for SimPointError {
    fn from(e: KmeansError) -> Self {
        SimPointError::Kmeans(e)
    }
}

/// The outcome of a SimPoint analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPointsResult {
    /// Chosen number of clusters.
    pub k: usize,
    /// Slice length the BBVs were collected with (for provenance).
    pub slice_size: u64,
    /// Cluster assignment of every slice.
    pub assignments: Vec<u32>,
    /// The simulation points, sorted by slice index; weights sum to 1.
    pub points: Vec<SimPoint>,
    /// `(k, BIC)` pairs for every candidate `k` that was scored.
    pub bic_scores: Vec<(usize, f64)>,
    /// Average intra-cluster variance of the final clustering.
    pub avg_variance: f64,
}

impl SimPointsResult {
    /// Number of simulation points (occupied clusters).
    pub fn num_points(&self) -> usize {
        self.points.len()
    }
}

/// Runs projection → per-`k` clustering → BIC selection → representative
/// selection.
#[derive(Debug, Clone)]
pub struct SimPointAnalysis {
    options: SimPointOptions,
}

impl SimPointAnalysis {
    /// Creates an analysis with the given options.
    pub fn new(options: SimPointOptions) -> Self {
        Self { options }
    }

    /// The options in use.
    pub fn options(&self) -> &SimPointOptions {
        &self.options
    }

    /// Analyzes one program's slice BBVs (raw counts; normalization happens
    /// internally). `slice_size` is recorded for provenance.
    ///
    /// # Errors
    ///
    /// As [`SimPointStrategy::analyze`]: [`SimPointError::NoSlices`] when
    /// `bbvs` is empty, a typed error for an option that makes the sweep
    /// impossible, or a kernel error.
    pub fn run(&self, bbvs: &[Bbv], slice_size: u64) -> Result<SimPointsResult, SimPointError> {
        self.run_jobs(bbvs, slice_size, SERIAL)
    }

    /// [`SimPointAnalysis::run`] with every `(k, restart)` clustering of the
    /// BIC sweep fanned out over `jobs` workers as one task list. The job
    /// count changes wall-clock time only — each `k`'s restart winner is
    /// selected deterministically, so the result is bit-identical to the
    /// serial run.
    ///
    /// This is a thin wrapper over [`SimPointStrategy::analyze`], where the
    /// algorithm lives since the strategy refactor; the differential suite
    /// pins the two entry points bit-identical.
    ///
    /// # Errors
    ///
    /// As [`SimPointAnalysis::run`].
    pub fn run_jobs(
        &self,
        bbvs: &[Bbv],
        slice_size: u64,
        jobs: Jobs,
    ) -> Result<SimPointsResult, SimPointError> {
        SimPointStrategy::new(self.options).analyze(bbvs, slice_size, jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n_phases` behaviours, `per` slices each, interleaved round-robin,
    /// with mild per-slice noise.
    fn synthetic_bbvs(n_phases: usize, per: usize) -> Vec<Bbv> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let mut out = Vec::new();
        for i in 0..n_phases * per {
            let phase = i % n_phases;
            let base = (phase * 20) as u32;
            let mut counts = vec![
                (base, 800 + (rng.next_below(40)) as u32),
                (base + 1, 150 + (rng.next_below(20)) as u32),
                (base + 2, 50 + (rng.next_below(10)) as u32),
            ];
            counts.sort_by_key(|&(b, _)| b);
            out.push(Bbv::from_counts(counts));
        }
        out
    }

    #[test]
    fn recovers_phase_count() {
        let bbvs = synthetic_bbvs(5, 40);
        let r = SimPointAnalysis::new(SimPointOptions::default())
            .run(&bbvs, 1000)
            .unwrap();
        // BIC creeps up slowly past the true phase count (noise gets
        // subdivided), so the threshold rule may land a few clusters above
        // 5 — exactly like the real SimPoint tool. Assert the chosen k is
        // at least the true count and that the *elbow* (largest score jump)
        // sits at the true count.
        assert!(
            (5..=12).contains(&r.k),
            "expected k in 5..=12, got {} (scores {:?})",
            r.k,
            r.bic_scores
        );
        let jumps: Vec<f64> = r.bic_scores.windows(2).map(|w| w[1].1 - w[0].1).collect();
        let elbow = jumps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| r.bic_scores[i + 1].0)
            .unwrap();
        assert_eq!(elbow, 5, "largest BIC jump should occur at the true k");
        assert_eq!(r.assignments.len(), 200);
        let w: f64 = r.points.iter().map(|p| p.weight).sum();
        assert!((w - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weights_reflect_phase_shares() {
        // Phase 0 twice as frequent as phase 1.
        let mut bbvs = Vec::new();
        for i in 0..150 {
            let phase = if i % 3 < 2 { 0u32 } else { 40 };
            bbvs.push(Bbv::from_counts(vec![(phase, 1000), (phase + 1, 100)]));
        }
        let r = SimPointAnalysis::new(SimPointOptions::default())
            .run(&bbvs, 1000)
            .unwrap();
        assert_eq!(r.k, 2, "scores {:?}", r.bic_scores);
        let max_w = r
            .points
            .iter()
            .map(|p| p.weight)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((max_w - 2.0 / 3.0).abs() < 0.05, "dominant weight {max_w}");
    }

    #[test]
    fn empty_input_errors() {
        let err = SimPointAnalysis::new(SimPointOptions::default())
            .run(&[], 1000)
            .unwrap_err();
        assert_eq!(err, SimPointError::NoSlices);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn zero_max_k_is_a_typed_error() {
        let opts = SimPointOptions {
            max_k: 0,
            ..Default::default()
        };
        let err = SimPointAnalysis::new(opts)
            .run(&synthetic_bbvs(2, 5), 1000)
            .unwrap_err();
        assert_eq!(err, SimPointError::ZeroMaxK);
        assert!(err.to_string().contains("max_k"));
    }

    #[test]
    fn zero_sample_size_is_a_typed_error() {
        let opts = SimPointOptions {
            sample_size: 0,
            ..Default::default()
        };
        let err = SimPointAnalysis::new(opts)
            .run(&synthetic_bbvs(2, 5), 1000)
            .unwrap_err();
        assert_eq!(err, SimPointError::ZeroSampleSize);
        assert!(err.to_string().contains("sample_size"));
    }

    #[test]
    fn zero_max_iter_is_a_typed_error_for_lloyd_only() {
        let bbvs = synthetic_bbvs(2, 5);
        let lloyd = SimPointOptions {
            max_iter: 0,
            ..Default::default()
        };
        let err = SimPointAnalysis::new(lloyd).run(&bbvs, 1000).unwrap_err();
        assert_eq!(err, SimPointError::ZeroMaxIter);
        assert!(err.to_string().contains("max_iter"));
        // The mini-batch kernel never reads `max_iter`.
        let minibatch = SimPointOptions {
            kmeans_mode: KmeansMode::MiniBatch,
            ..lloyd
        };
        assert!(SimPointAnalysis::new(minibatch).run(&bbvs, 1000).is_ok());
    }

    #[test]
    fn single_slice_is_one_point() {
        let bbvs = vec![Bbv::from_counts(vec![(0, 100)])];
        let r = SimPointAnalysis::new(SimPointOptions::default())
            .run(&bbvs, 1000)
            .unwrap();
        assert_eq!(r.k, 1);
        assert_eq!(r.points.len(), 1);
        assert_eq!(r.points[0].weight, 1.0);
    }

    #[test]
    fn max_k_limits_clusters() {
        let bbvs = synthetic_bbvs(10, 30);
        let opts = SimPointOptions {
            max_k: 3,
            ..Default::default()
        };
        let r = SimPointAnalysis::new(opts).run(&bbvs, 1000).unwrap();
        assert!(r.k <= 3);
        // Forcing too few clusters raises the intra-cluster variance
        // (Fig. 4's phenomenon).
        let full = SimPointAnalysis::new(SimPointOptions::default())
            .run(&bbvs, 1000)
            .unwrap();
        assert!(r.avg_variance > full.avg_variance);
    }

    #[test]
    fn deterministic() {
        let bbvs = synthetic_bbvs(4, 30);
        let a = SimPointAnalysis::new(SimPointOptions::default())
            .run(&bbvs, 1000)
            .unwrap();
        let b = SimPointAnalysis::new(SimPointOptions::default())
            .run(&bbvs, 1000)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn subsampling_path_works() {
        let bbvs = synthetic_bbvs(3, 300); // 900 slices
        let opts = SimPointOptions {
            sample_size: 200,
            ..Default::default()
        };
        let r = SimPointAnalysis::new(opts).run(&bbvs, 1000).unwrap();
        assert!((3..=9).contains(&r.k), "k = {}", r.k);
        assert_eq!(r.assignments.len(), 900, "final clustering uses all slices");
    }

    use sampsim_util::rng::Xoshiro256StarStar;
}
