//! The complete measurement record for one benchmark.
//!
//! [`BenchResult::compute`] performs every run the paper's evaluation needs
//! for a benchmark (two whole passes + per-region replays) and the record
//! is serializable, so the benchmark harness computes each benchmark once
//! and regenerates all figures from the cached artifact.

use crate::error::CoreError;
use crate::metrics::{aggregate_weighted, AggregatedMetrics, RunMetrics};
use crate::pipeline::{PinPointsConfig, Pipeline};
use crate::runs::{self, WarmupMode};
use sampsim_cache::{configs, HierarchyConfig};
use sampsim_pin::tools::CacheSim;
use sampsim_simpoint::select::{reduce_to_percentile, SimPoint};
use sampsim_simpoint::variance::variance_sweep;
use sampsim_spec2017::BenchmarkSpec;
use sampsim_uarch::{native, CoreConfig, NativeConfig, PerfCounters};
use sampsim_util::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use sampsim_util::scale::Scale;

/// Study-wide configuration: everything an experiment fixes across the
/// suite.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyConfig {
    /// Pipeline (slice size, MaxK, warmup, profile cache).
    pub pinpoints: PinPointsConfig,
    /// Core model for timing runs (Table III).
    pub core: CoreConfig,
    /// Memory system for timing runs (Table III).
    pub timing_hierarchy: HierarchyConfig,
    /// Native-machine perturbation model.
    pub native: NativeConfig,
    /// Cluster counts for the Fig. 4 variance sweep.
    pub fig4_ks: Vec<usize>,
    /// Maximum slices used for the Fig. 4 sweep (subsampled beyond this).
    pub fig4_sample: usize,
}

impl Default for StudyConfig {
    fn default() -> Self {
        let pinpoints = PinPointsConfig {
            profile_cache: Some(configs::allcache_table1()),
            ..PinPointsConfig::default()
        };
        Self {
            pinpoints,
            core: CoreConfig::table3(),
            timing_hierarchy: configs::i7_table3(),
            native: NativeConfig::default(),
            fig4_ks: vec![5, 10, 15, 20, 25, 30, 35],
            fig4_sample: 3_000,
        }
    }
}

impl StudyConfig {
    /// Returns a copy with slice-linked parameters scaled, so tests and
    /// examples can run the same study at reduced size while keeping the
    /// slices-per-program ratio.
    pub fn scaled(&self, scale: Scale) -> Self {
        let mut out = self.clone();
        out.pinpoints.slice_size = scale.apply(self.pinpoints.slice_size);
        out
    }
}

/// Per-region measurements (one simulation point).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionMetrics {
    /// Slice index of the region.
    pub slice: u64,
    /// SimPoint weight.
    pub weight: f64,
    /// Cluster id.
    pub cluster: u32,
    /// Functional replay with cold caches (the default Regional Run).
    pub cold: RunMetrics,
    /// Functional replay after checkpointed warmup (Warmup Regional Run).
    pub warm: RunMetrics,
    /// Timing replay (Sniper) after warmup.
    pub timing: RunMetrics,
}

impl RegionMetrics {
    fn simpoint(&self) -> SimPoint {
        SimPoint {
            slice: self.slice,
            cluster: self.cluster,
            weight: self.weight,
        }
    }
}

/// Everything the paper measures for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// SPEC benchmark name.
    pub name: String,
    /// Sub-suite label.
    pub suite_label: String,
    /// Slice size used.
    pub slice_size: u64,
    /// Number of slices in the whole run.
    pub num_slices: u64,
    /// Chosen cluster count.
    pub chosen_k: usize,
    /// Whole run: functional metrics incl. Table I cache stats; wall time
    /// covers the full profiling pass (checkpoint logging + tools).
    pub whole: RunMetrics,
    /// Whole run through the timing model (Table III machine).
    pub whole_timing: RunMetrics,
    /// Native-hardware perf counters for the whole program.
    pub native: PerfCounters,
    /// Per-simulation-point measurements, sorted by slice.
    pub regions: Vec<RegionMetrics>,
    /// Fig. 4 sweep: `(k, average intra-cluster variance)`.
    pub cluster_variance: Vec<(usize, f64)>,
}

impl BenchResult {
    /// Runs the full study for one benchmark at the given scale.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when the pipeline or a replay fails.
    pub fn compute(
        spec: &BenchmarkSpec,
        scale: Scale,
        config: &StudyConfig,
    ) -> Result<Self, CoreError> {
        let config = config.scaled(scale);
        let program = spec.scaled(scale).build();
        let pipeline = Pipeline::new(config.pinpoints.clone());

        // One profiling pass: BBVs, slice checkpoints, ldstmix + allcache.
        let (bbvs, starts, whole) = pipeline.profile(&program);
        let simpoints = sampsim_simpoint::SimPointAnalysis::new(config.pinpoints.simpoint)
            .run(&bbvs, config.pinpoints.slice_size)?;
        let regional = pipeline.regionals_for(&program, &simpoints, &starts);

        // Fig. 4 variance sweep on a subsample of the same BBVs.
        let sampled: Vec<_> = if bbvs.len() > config.fig4_sample {
            let step = bbvs.len().div_ceil(config.fig4_sample);
            bbvs.iter().step_by(step).cloned().collect()
        } else {
            bbvs.clone()
        };
        let ks: Vec<usize> = config
            .fig4_ks
            .iter()
            .copied()
            .filter(|&k| k <= sampled.len())
            .collect();
        let cluster_variance = variance_sweep(&sampled, &ks, &config.pinpoints.simpoint);
        drop(bbvs);
        drop(starts);

        // Whole timing pass + native perturbation.
        let whole_timing = runs::run_whole_timing(&program, config.core, config.timing_hierarchy);
        let native = native::perturb(
            whole_timing.timing.as_ref().expect("timing run"),
            &config.native,
            0xACE,
            program.digest(),
        );

        // Per-region replays.
        let cache_cfg = config
            .pinpoints
            .profile_cache
            .unwrap_or_else(configs::allcache_table1);
        // One hierarchy, reset before every replay: a region's cold run
        // (what Fig. 5's Regional time sums) pays for the lines it
        // touches, not for building a 16 MB cache model.
        let mut cs = CacheSim::new(cache_cfg);
        let mut regions = Vec::with_capacity(regional.len());
        for pb in &regional {
            let cold = runs::replay_region_functional(&program, pb, &mut cs, WarmupMode::None)?;
            let warm =
                runs::replay_region_functional(&program, pb, &mut cs, WarmupMode::Checkpointed)?;
            let timing = runs::run_region_timing(
                &program,
                pb,
                config.core,
                config.timing_hierarchy,
                WarmupMode::Checkpointed,
            )?;
            regions.push(RegionMetrics {
                slice: pb.slice_index,
                weight: pb.weight,
                cluster: pb.cluster,
                cold,
                warm,
                timing,
            });
        }

        Ok(Self {
            name: spec.name().to_string(),
            suite_label: spec.suite().label().to_string(),
            slice_size: config.pinpoints.slice_size,
            num_slices: simpoints.assignments.len() as u64,
            chosen_k: simpoints.k,
            whole,
            whole_timing,
            native,
            regions,
            cluster_variance,
        })
    }

    /// Number of simulation points.
    pub fn num_points(&self) -> usize {
        self.regions.len()
    }

    /// Number of points covering `percentile` of total weight
    /// (Table II column 3 uses 0.9).
    pub fn num_points_at(&self, percentile: f64) -> usize {
        let points: Vec<SimPoint> = self.regions.iter().map(|r| r.simpoint()).collect();
        reduce_to_percentile(&points, percentile).len()
    }

    /// The subset of regions covering `percentile` of total weight, with
    /// renormalized weights (the Reduced Regional Run derives from the same
    /// per-region replays — each region executes identically cold).
    pub fn reduced_regions(&self, percentile: f64) -> Vec<(&RegionMetrics, f64)> {
        let points: Vec<SimPoint> = self.regions.iter().map(|r| r.simpoint()).collect();
        let reduced = reduce_to_percentile(&points, percentile);
        reduced
            .iter()
            .map(|p| {
                let region = self
                    .regions
                    .iter()
                    .find(|r| r.slice == p.slice)
                    .expect("reduced point maps to a region");
                (region, p.weight)
            })
            .collect()
    }

    /// Weighted aggregate of the cold Regional Run.
    pub fn regional_aggregate(&self) -> AggregatedMetrics {
        let pairs: Vec<(RunMetrics, f64)> = self
            .regions
            .iter()
            .map(|r| (r.cold.clone(), r.weight))
            .collect();
        aggregate_weighted(&pairs)
    }

    /// Weighted aggregate of the Reduced Regional Run at `percentile`.
    pub fn reduced_aggregate(&self, percentile: f64) -> AggregatedMetrics {
        let pairs: Vec<(RunMetrics, f64)> = self
            .reduced_regions(percentile)
            .into_iter()
            .map(|(r, w)| (r.cold.clone(), w))
            .collect();
        aggregate_weighted(&pairs)
    }

    /// Weighted aggregate of the Warmup Regional Run.
    pub fn warmup_aggregate(&self) -> AggregatedMetrics {
        let pairs: Vec<(RunMetrics, f64)> = self
            .regions
            .iter()
            .map(|r| (r.warm.clone(), r.weight))
            .collect();
        aggregate_weighted(&pairs)
    }

    /// Weighted CPI of the timing Regional Run (Sniper on simulation
    /// points).
    pub fn regional_cpi(&self) -> f64 {
        let pairs: Vec<(RunMetrics, f64)> = self
            .regions
            .iter()
            .map(|r| (r.timing.clone(), r.weight))
            .collect();
        aggregate_weighted(&pairs).cpi.expect("timing metrics")
    }

    /// Weighted CPI of the reduced timing run at `percentile`.
    pub fn reduced_cpi(&self, percentile: f64) -> f64 {
        let pairs: Vec<(RunMetrics, f64)> = self
            .reduced_regions(percentile)
            .into_iter()
            .map(|(r, w)| (r.timing.clone(), w))
            .collect();
        aggregate_weighted(&pairs).cpi.expect("timing metrics")
    }

    /// The whole run expressed in aggregate form.
    pub fn whole_aggregate(&self) -> AggregatedMetrics {
        crate::metrics::whole_as_aggregate(&self.whole)
    }
}

impl Encode for RegionMetrics {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.slice);
        enc.put_f64(self.weight);
        enc.put_u32(self.cluster);
        self.cold.encode(enc);
        self.warm.encode(enc);
        self.timing.encode(enc);
    }
}

impl Decode for RegionMetrics {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            slice: dec.take_u64()?,
            weight: dec.take_f64()?,
            cluster: dec.take_u32()?,
            cold: RunMetrics::decode(dec)?,
            warm: RunMetrics::decode(dec)?,
            timing: RunMetrics::decode(dec)?,
        })
    }
}

impl Encode for BenchResult {
    fn encode(&self, enc: &mut Encoder) {
        self.name.encode(enc);
        self.suite_label.encode(enc);
        enc.put_u64(self.slice_size);
        enc.put_u64(self.num_slices);
        self.chosen_k.encode(enc);
        self.whole.encode(enc);
        self.whole_timing.encode(enc);
        self.native.encode(enc);
        self.regions.encode(enc);
        enc.put_u32(self.cluster_variance.len() as u32);
        for &(k, v) in &self.cluster_variance {
            k.encode(enc);
            enc.put_f64(v);
        }
    }
}

impl Decode for BenchResult {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let name = String::decode(dec)?;
        let suite_label = String::decode(dec)?;
        let slice_size = dec.take_u64()?;
        let num_slices = dec.take_u64()?;
        let chosen_k = usize::decode(dec)?;
        let whole = RunMetrics::decode(dec)?;
        let whole_timing = RunMetrics::decode(dec)?;
        let native = PerfCounters::decode(dec)?;
        let regions = Vec::<RegionMetrics>::decode(dec)?;
        let n = dec.take_u32()? as usize;
        let mut cluster_variance = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            let k = usize::decode(dec)?;
            let v = dec.take_f64()?;
            cluster_variance.push((k, v));
        }
        Ok(Self {
            name,
            suite_label,
            slice_size,
            num_slices,
            chosen_k,
            whole,
            whole_timing,
            native,
            regions,
            cluster_variance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_simpoint::SimPointOptions;
    use sampsim_spec2017::BenchmarkId;

    fn small_config() -> StudyConfig {
        let mut c = StudyConfig::default();
        c.pinpoints.simpoint = SimPointOptions {
            max_k: 8,
            sample_size: 1_500,
            ..Default::default()
        };
        c.fig4_ks = vec![2, 4, 8];
        c
    }

    #[test]
    fn compute_small_benchmark() {
        let spec = sampsim_spec2017::benchmark(BenchmarkId::OmnetppS);
        let r = BenchResult::compute(&spec, Scale::new(0.02), &small_config()).unwrap();
        assert_eq!(r.name, "620.omnetpp_s");
        assert!(r.num_points() >= 2, "points {}", r.num_points());
        assert!(r.num_points_at(0.9) <= r.num_points());
        let agg = r.regional_aggregate();
        let whole = r.whole_aggregate();
        // Instruction mix within a few points of the whole run even at
        // tiny scale.
        for (a, b) in agg.mix_pct.iter().zip(&whole.mix_pct) {
            assert!((a - b).abs() < 6.0, "mix {a} vs {b}");
        }
        assert!(r.regional_cpi() > 0.25);
        assert!(r.native.cpi() > 0.25);
        assert_eq!(r.cluster_variance.len(), 3);
        // Variance shrinks with k.
        assert!(r.cluster_variance[0].1 >= r.cluster_variance[2].1 - 1e-12);
    }

    #[test]
    fn codec_roundtrip() {
        let spec = sampsim_spec2017::benchmark(BenchmarkId::OmnetppS);
        let r = BenchResult::compute(&spec, Scale::new(0.01), &small_config()).unwrap();
        let bytes = sampsim_util::codec::to_bytes(&r);
        let back: BenchResult = sampsim_util::codec::from_bytes(&bytes).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn reduced_weights_renormalized() {
        let spec = sampsim_spec2017::benchmark(BenchmarkId::OmnetppS);
        let r = BenchResult::compute(&spec, Scale::new(0.01), &small_config()).unwrap();
        let reduced = r.reduced_regions(0.9);
        let w: f64 = reduced.iter().map(|(_, w)| *w).sum();
        assert!((w - 1.0).abs() < 1e-9);
        assert!(reduced.len() <= r.num_points());
    }
}
