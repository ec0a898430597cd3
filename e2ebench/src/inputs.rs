//! Seeded workload inputs. Every input is a pure function of the workload
//! seed; the program under test only ever sees the generated requests.

use sampsim_core::PinPointsConfig;
use sampsim_serve::service::{self, RunRequest};
use sampsim_util::rng::Xoshiro256StarStar;
use sampsim_util::scale::Scale;
use sampsim_workload::Program;

/// Scale every workload runs at.
pub const SCALE: f64 = 0.01;

/// `run-exact`: the benchmarks its single caller rotates over.
pub const RUN_EXACT_BENCHES: [&str; 4] =
    ["620.omnetpp_s", "605.mcf_s", "503.bwaves_r", "502.gcc_r"];
/// `run-exact`: the `MaxK` of every document.
pub const RUN_EXACT_MAXK: usize = 35;

/// `compare-coarse`: benchmark and slice size, chosen so each divides
/// into about 1 000 slices. Three slice sizes per benchmark give the
/// first rotation, the cold class, six reports instead of two.
pub const COMPARE_INPUTS: [(&str, u64); 6] = [
    ("502.gcc_r", 1_030),
    ("502.gcc_r", 1_040),
    ("502.gcc_r", 1_050),
    ("605.mcf_s", 1_590),
    ("605.mcf_s", 1_600),
    ("605.mcf_s", 1_610),
];
/// `compare-coarse`: replicates per strategy (the CLI default).
pub const COMPARE_REPLICATES: usize = 5;

/// `serve-mixed`: the configs a warm pool is drawn from. Their reply
/// digests are committed in `digests.rs`.
pub const WARM_CANDIDATES: [(&str, usize); 8] = [
    ("505.mcf_r", 4),
    ("505.mcf_r", 5),
    ("505.mcf_r", 6),
    ("557.xz_r", 4),
    ("557.xz_r", 5),
    ("557.xz_r", 6),
    ("620.omnetpp_s", 5),
    ("620.omnetpp_s", 6),
];
/// `serve-mixed`: configs in one run's warm pool.
pub const WARM_POOL: usize = 4;
/// `serve-mixed`: the benchmark every cold request runs.
pub const COLD_BENCH: &str = "620.omnetpp_s";
/// `serve-mixed`: the `MaxK` of every cold request.
pub const COLD_MAXK: usize = 4;
/// `serve-mixed`: distinct scale perturbations available to one run; the
/// largest, ×1.04, keeps every cold request within 4% of the same cost.
pub const COLD_VARIANTS: u64 = 400;
/// `serve-mixed`: requests per schedule block; each block holds exactly
/// one cold request, so the mix is 1 cold : 3 warm at every length.
pub const BLOCK: usize = 4;

/// A run request at [`SCALE`] with default slicing.
pub fn request(bench: &str, scale: f64, maxk: usize) -> RunRequest {
    RunRequest {
        bench: bench.to_string(),
        scale,
        slice: None,
        maxk: Some(maxk),
        strategy: None,
        kmeans: None,
    }
}

fn rng(seed: u64, domain: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(seed ^ domain.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// `run-exact`: the seeded rotation order of its documents.
pub fn run_exact_rotation(seed: u64) -> Vec<RunRequest> {
    let mut benches = RUN_EXACT_BENCHES;
    rng(seed, 1).shuffle(&mut benches);
    benches
        .iter()
        .map(|b| request(b, SCALE, RUN_EXACT_MAXK))
        .collect()
}

/// `compare-coarse`: the seeded rotation order of its reports.
pub fn compare_rotation(seed: u64) -> Vec<(&'static str, u64)> {
    let mut inputs = COMPARE_INPUTS;
    rng(seed, 2).shuffle(&mut inputs);
    inputs.to_vec()
}

/// Builds the program and configuration of one compare report.
pub fn compare_input(bench: &str, slice: u64) -> Result<(Program, PinPointsConfig), String> {
    let spec = service::find_benchmark(bench)?;
    let program = spec.scaled(Scale::new(SCALE)).build();
    let config = PinPointsConfig {
        slice_size: slice,
        ..PinPointsConfig::default()
    };
    Ok((program, config))
}

/// One request of the `serve-mixed` schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A config from the warm pool, by pool index.
    Warm(usize),
    /// A never-seen config.
    Cold(RunRequest),
}

/// The `serve-mixed` inputs of one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInputs {
    /// Configs set-up puts in the daemon's cache.
    pub warm_pool: Vec<RunRequest>,
    /// The schedule both client connections race down.
    pub schedule: Vec<Item>,
}

/// `serve-mixed`: the warm pool and a schedule of
/// [`COLD_VARIANTS`] blocks of [`BLOCK`] requests. A cold request is
/// [`COLD_BENCH`] at `SCALE · (1 + j·1e-4)` for a `j` no other request of
/// the run uses, so it misses both the response and profile-stage
/// caches.
pub fn serve_inputs(seed: u64) -> ServeInputs {
    let mut candidates: Vec<usize> = (0..WARM_CANDIDATES.len()).collect();
    let mut r = rng(seed, 3);
    r.shuffle(&mut candidates);
    let warm_pool = candidates[..WARM_POOL]
        .iter()
        .map(|&i| {
            let (bench, maxk) = WARM_CANDIDATES[i];
            request(bench, SCALE, maxk)
        })
        .collect();
    let mut variants: Vec<u64> = (1..=COLD_VARIANTS).collect();
    r.shuffle(&mut variants);
    let mut schedule = Vec::with_capacity(variants.len() * BLOCK);
    for j in variants {
        let cold_at = r.next_below(BLOCK as u64) as usize;
        for slot in 0..BLOCK {
            schedule.push(if slot == cold_at {
                Item::Cold(request(
                    COLD_BENCH,
                    SCALE * (1.0 + j as f64 * 1e-4),
                    COLD_MAXK,
                ))
            } else {
                Item::Warm(r.next_below(WARM_POOL as u64) as usize)
            });
        }
    }
    ServeInputs {
        warm_pool,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(serve_inputs(7), serve_inputs(7));
        assert_eq!(run_exact_rotation(7), run_exact_rotation(7));
        assert_eq!(compare_rotation(7), compare_rotation(7));
    }

    #[test]
    fn different_seed_different_schedule() {
        let a = serve_inputs(1);
        let b = serve_inputs(2);
        assert_ne!(a.schedule, b.schedule);
        // Rotations have few orders, but some pair of seeds must differ.
        assert!((2..10).any(|s| run_exact_rotation(1) != run_exact_rotation(s)));
        assert!((2..10).any(|s| compare_rotation(1) != compare_rotation(s)));
    }

    #[test]
    fn schedule_mix_and_fresh_colds() {
        let inputs = serve_inputs(42);
        assert_eq!(inputs.warm_pool.len(), WARM_POOL);
        let mut scales = Vec::new();
        for block in inputs.schedule.chunks(BLOCK) {
            let colds: Vec<&RunRequest> = block
                .iter()
                .filter_map(|item| match item {
                    Item::Cold(r) => Some(r),
                    Item::Warm(_) => None,
                })
                .collect();
            assert_eq!(colds.len(), 1, "one cold per block");
            assert!(colds[0].scale > SCALE && colds[0].scale <= SCALE * 1.04);
            scales.push(colds[0].scale.to_bits());
        }
        let n = scales.len();
        scales.sort_unstable();
        scales.dedup();
        assert_eq!(scales.len(), n, "every cold config is new");
        // Warm configs are distinct candidates.
        let mut pool: Vec<(String, Option<usize>)> = inputs
            .warm_pool
            .iter()
            .map(|r| (r.bench.clone(), r.maxk))
            .collect();
        pool.sort();
        pool.dedup();
        assert_eq!(pool.len(), WARM_POOL);
    }
}
