//! Intra-cluster variance sweeps (the Fig. 4 analysis).
//!
//! Fig. 4 of the paper shows, per benchmark, how the average variance in
//! phase similarity within clusters grows as the number of available
//! clusters shrinks — forcing phases to share clusters costs accuracy.

use crate::bbv::Bbv;
use crate::kmeans::kmeans_sweep_jobs;
use crate::project::RandomProjection;
use crate::SimPointOptions;
use sampsim_exec::SERIAL;

/// For each `k` in `ks`, clusters the (normalized, projected) BBVs and
/// reports the average intra-cluster variance. Returns `(k, variance)`
/// pairs in the order given. Every `k` is one entry of a single
/// [`kmeans_sweep_jobs`] call, seeded `seed + k` like SimPoint's own
/// sweep.
///
/// # Panics
///
/// Panics if `bbvs` is empty or any `k` is zero.
pub fn variance_sweep(bbvs: &[Bbv], ks: &[usize], options: &SimPointOptions) -> Vec<(usize, f64)> {
    assert!(!bbvs.is_empty(), "no slices to analyze");
    let projection = RandomProjection::new(options.dim, options.seed);
    let data = projection.project_all_normalized(bbvs);
    let n = bbvs.len();
    assert!(ks.iter().all(|&k| k > 0), "k must be positive");
    let seeded: Vec<(usize, u64)> = ks
        .iter()
        .map(|&k| (k, options.seed.wrapping_add(k as u64)))
        .collect();
    let winners = kmeans_sweep_jobs(
        &data,
        n,
        options.dim,
        &seeded,
        options.max_iter,
        options.n_init,
        SERIAL,
    )
    .expect("validated inputs");
    ks.iter()
        .zip(&winners)
        .map(|(&k, r)| (k, r.avg_variance()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bbvs() -> Vec<Bbv> {
        (0..120u32)
            .map(|i| {
                let phase = (i % 6) * 10;
                Bbv::from_counts(vec![(phase, 900), (phase + 1, 100 + i % 3)])
            })
            .collect()
    }

    #[test]
    fn variance_decreases_with_more_clusters() {
        let sweep = variance_sweep(&bbvs(), &[1, 2, 4, 6], &SimPointOptions::default());
        assert_eq!(sweep.len(), 4);
        for w in sweep.windows(2) {
            assert!(
                w[1].1 <= w[0].1 + 1e-9,
                "variance should not grow with k: {sweep:?}"
            );
        }
        // At the true phase count the clusters are nearly pure.
        assert!(sweep[3].1 < sweep[0].1 * 0.25, "{sweep:?}");
    }

    #[test]
    #[should_panic(expected = "no slices")]
    fn empty_panics() {
        variance_sweep(&[], &[1], &SimPointOptions::default());
    }
}

#[cfg(test)]
mod sweep_extra_tests {
    use super::*;

    #[test]
    fn sweep_reports_requested_ks_in_order() {
        let bbvs: Vec<Bbv> = (0..30u32)
            .map(|i| Bbv::from_counts(vec![((i % 3) * 5, 100)]))
            .collect();
        let sweep = variance_sweep(&bbvs, &[3, 1, 2], &SimPointOptions::default());
        assert_eq!(
            sweep.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![3, 1, 2]
        );
        // Three pure behaviours: k=3 clusters perfectly.
        assert!(sweep[0].1 < 1e-9, "k=3 variance {}", sweep[0].1);
        assert!(sweep[1].1 > sweep[0].1);
    }

    #[test]
    fn sweep_matches_the_per_k_loop_bitwise() {
        use crate::kmeans::kmeans_best_of_reference;
        let bbvs: Vec<Bbv> = (0..90u32)
            .map(|i| {
                Bbv::from_counts(vec![
                    ((i % 7) * 4, 300 + i % 11),
                    ((i % 7) * 4 + 1, 50 + i % 5),
                ])
            })
            .collect();
        let options = SimPointOptions::default();
        let ks = [5, 1, 12, 3, 90, 200];
        // The loop `variance_sweep` ran before it shared one task list:
        // one best-of-restarts clustering per k, seeded `seed + k`, here
        // through the naive reference kernel so the two sides share no
        // code past the seed schedule.
        let data = RandomProjection::new(options.dim, options.seed).project_all_normalized(&bbvs);
        let per_k: Vec<(usize, f64)> = ks
            .iter()
            .map(|&k| {
                let r = kmeans_best_of_reference(
                    &data,
                    bbvs.len(),
                    options.dim,
                    k,
                    options.max_iter,
                    options.seed.wrapping_add(k as u64),
                    options.n_init,
                )
                .unwrap();
                (k, r.avg_variance())
            })
            .collect();
        let sweep = variance_sweep(&bbvs, &ks, &options);
        assert_eq!(sweep.len(), per_k.len());
        for (&(k, v), &(pk, pv)) in sweep.iter().zip(&per_k) {
            assert_eq!(k, pk);
            assert_eq!(v.to_bits(), pv.to_bits(), "k={k}: {v:?} vs {pv:?}");
        }
    }
}
