//! Order statistics for the benchmark's timings and counts.
//!
//! Percentiles use the nearest-rank definition: the `p`th percentile of
//! `n` sorted samples is the sample at 1-based rank `ceil(p/100 · n)`.
//! A tail percentile is only trustworthy when enough samples lie beyond
//! it, so [`tail`] picks the highest standard level that has at least
//! [`TAIL_SUPPORT`] samples above it and reports the count it rests on.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// The percentile levels [`tail`] chooses from, highest first.
const TAIL_LEVELS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A percentile together with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile level, in percent.
    pub level: f64,
    /// The value at that level.
    pub value: f64,
    /// Number of samples it was taken from.
    pub count: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank of percentile `level` among `n` samples.
fn rank(level: f64, n: usize) -> usize {
    ((level / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank percentile `level` of `samples`, or `None` when there
/// are none.
pub fn percentile(samples: &[f64], level: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    Some(v[rank(level, v.len()) - 1])
}

/// The median (the mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The highest percentile in `TAIL_LEVELS` with at least [`TAIL_SUPPORT`]
/// samples beyond it, or `None` when even the median lacks that support
/// (fewer than 20 samples).
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    let v = sorted(samples);
    TAIL_LEVELS.iter().find_map(|&level| {
        let r = rank(level, n.max(1));
        (n >= r + TAIL_SUPPORT).then(|| Tail {
            level,
            value: v[r - 1],
            count: n,
        })
    })
}

/// Failed operations over attempted ones, reported with its base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailRatio {
    /// Operations whose output was wrong or that returned an error.
    pub failed: u64,
    /// Operations attempted.
    pub attempted: u64,
}

impl FailRatio {
    /// The ratio; 0 when nothing was attempted.
    pub fn ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// `ratio (failed/attempted)`, the form every report line uses.
    pub fn render(&self) -> String {
        format!("{} ({}/{})", self.ratio(), self.failed, self.attempted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median (rank 10) has only 9 beyond it.
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: the median (rank 10) has exactly 10 beyond it.
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.level, t.value, t.count), (50.0, 10.0, 20));
        // 40 samples: p75 is rank 30 with 10 beyond; p90 would have 4.
        let t = tail(&ramp(40)).unwrap();
        assert_eq!((t.level, t.value, t.count), (75.0, 30.0, 40));
        // 100 samples: p90 is rank 90 with 10 beyond; p95 would have 5.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.level, t.value, t.count), (90.0, 90.0, 100));
        // 1000 samples: p99 is rank 990 with 10 beyond.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.level, t.count), (99.0, 1000));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn fail_ratio_carries_its_base() {
        let none = FailRatio {
            failed: 0,
            attempted: 12,
        };
        assert_eq!(none.ratio(), 0.0);
        assert_eq!(none.render(), "0 (0/12)");
        let some = FailRatio {
            failed: 1,
            attempted: 4,
        };
        assert_eq!(some.ratio(), 0.25);
        assert_eq!(some.render(), "0.25 (1/4)");
        let empty = FailRatio {
            failed: 0,
            attempted: 0,
        };
        assert_eq!(empty.ratio(), 0.0);
    }
}
