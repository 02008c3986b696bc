//! Exact order statistics and the two ways a run's segments become one
//! reported value.
//!
//! Every timed phase is cut into segments and a statistic (throughput,
//! p50, p95) is computed inside each. `setup_s` reports the **median**
//! over its set-ups. Every other end-to-end metric reports its **best
//! segment** — the lowest time, the highest throughput: other tenants of
//! the host only ever add time, in spells of seconds to minutes, so the
//! quietest segment is the closest the run gets to what the program
//! costs. Ten runs on ten seeds in one noisy quarter of an hour, spread
//! (interquartile range over median) of the median over segments against
//! the best segment: `ready_s`@`batch_cosmo3d` 32% → 15%,
//! `ops_s`@`batch_dayabay10d` 24% → 15%, `p50_us` there 34% → 15%,
//! `ops_s`@`serve_hotspot` 20% → 13%; where the median was already
//! steady (`p50_us`@`serve_hotspot` 3%) the best segment costs a few
//! points (6%). The regression bound is a quarter, so the median would
//! have failed that quarter of an hour on a commit compared with itself.

use crate::spec::Better;

/// A quantile as an exact fraction, so `99/100` of 100 samples is rank
/// 99 and not whatever `0.99 * 100.0` rounds to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Q {
    num: usize,
    den: usize,
}

impl Q {
    pub const Q1: Q = Q { num: 1, den: 4 };
    pub const P50: Q = Q { num: 1, den: 2 };
    pub const Q3: Q = Q { num: 3, den: 4 };
    pub const P95: Q = Q { num: 95, den: 100 };
    pub const P99: Q = Q { num: 99, den: 100 };

    /// Samples a sorted run of `n` must have beyond this quantile's rank
    /// for the quantile to be more than the run's maximum in disguise.
    pub fn samples_beyond(self, n: usize) -> usize {
        n - self.rank(n)
    }

    /// Nearest-rank position (1-based): the smallest rank with at least
    /// `num/den` of the samples at or below it.
    fn rank(self, n: usize) -> usize {
        (n * self.num).div_ceil(self.den).clamp(1, n)
    }
}

/// Nearest-rank quantile of an ascending slice — always one of the
/// samples, never an interpolation.
pub fn quantile_sorted(sorted: &[f64], q: Q) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[q.rank(sorted.len()) - 1]
}

/// Sort a copy and take the quantile.
pub fn quantile(samples: &[f64], q: Q) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// A reported value with the spread behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    /// Median or best over segments, as the constructor says.
    pub value: f64,
    /// First and third quartile over segments.
    pub q1: f64,
    pub q3: f64,
    /// Segments the median was taken over.
    pub segments: usize,
    /// Raw samples inside all segments together.
    pub samples: usize,
}

impl Measured {
    /// Median and quartiles of one value per segment.
    pub fn over_segments(per_segment: &[f64], samples: usize) -> Measured {
        let mut v = per_segment.to_vec();
        v.sort_by(f64::total_cmp);
        Measured {
            value: quantile_sorted(&v, Q::P50),
            q1: quantile_sorted(&v, Q::Q1),
            q3: quantile_sorted(&v, Q::Q3),
            segments: v.len(),
            samples,
        }
    }

    /// The best of one value per segment — lowest when lower is better —
    /// with the segments' quartiles kept beside it. Segments must be long
    /// enough to hold whole cycles of whatever the workload does
    /// periodically (a compaction, a checkpoint), or "best" would mean
    /// "just after one".
    pub fn best_segment(per_segment: &[f64], samples: usize, better: Better) -> Measured {
        let mut m = Measured::over_segments(per_segment, samples);
        let best = match better {
            Better::Lower => f64::min,
            Better::Higher => f64::max,
        };
        m.value = per_segment.iter().copied().fold(m.value, best);
        m
    }

    /// A value measured once (a count, a peak).
    pub fn single(value: f64) -> Measured {
        Measured {
            value,
            q1: value,
            q3: value,
            segments: 1,
            samples: 1,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

/// Quantile `q` inside every non-empty segment.
pub fn per_segment(segments: &[Vec<f64>], q: Q) -> Vec<f64> {
    segments
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| quantile(s, q))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Better;

    #[test]
    fn nearest_rank_is_exact_at_the_edges() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, Q::P99), 99.0);
        assert_eq!(quantile_sorted(&v, Q::P50), 50.0);
        assert_eq!(quantile_sorted(&v, Q::Q1), 25.0);
        assert_eq!(quantile_sorted(&v, Q::Q3), 75.0);
        assert_eq!(Q::P99.samples_beyond(100), 1);
        assert_eq!(Q::P99.samples_beyond(2400), 24);
        // odd count: the middle sample; a single sample is every quantile
        assert_eq!(quantile(&[9.0, 1.0, 5.0], Q::P50), 5.0);
        assert_eq!(quantile(&[7.0], Q::P99), 7.0);
        // even count: nearest rank takes the lower middle, a real sample
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], Q::P50), 2.0);
    }

    #[test]
    fn one_bad_segment_moves_neither_the_median_nor_the_best() {
        // four quiet segments with p99 ≈ 1.0 and one with a 33 ms hiccup
        let quiet: Vec<f64> = (0..200).map(|i| 0.5 + i as f64 * 0.0025).collect();
        let mut noisy = quiet.clone();
        for x in noisy.iter_mut().skip(188) {
            *x = 33.0;
        }
        let segs = vec![
            quiet.clone(),
            quiet.clone(),
            noisy,
            quiet.clone(),
            quiet,
            vec![],
        ];
        let p99 = per_segment(&segs, Q::P99);
        assert_eq!(p99.len(), 5, "the empty segment is skipped");
        assert_eq!(p99[2], 33.0);
        let median = Measured::over_segments(&p99, 1000);
        assert!((median.value - 0.9925).abs() < 1e-9, "got {}", median.value);
        assert_eq!((median.segments, median.samples), (5, 1000));
        let best = Measured::best_segment(&p99, 1000, Better::Lower);
        assert!((best.value - 0.9925).abs() < 1e-9);
        // pooled, the same hiccup would own the tail
        assert_eq!(quantile(&segs.concat(), Q::P99), 33.0);
    }

    #[test]
    fn best_segment_follows_the_direction_and_keeps_the_quartiles() {
        let qps = [90.0, 100.0, 110.0, 95.0, 105.0];
        let hi = Measured::best_segment(&qps, 5, Better::Higher);
        assert_eq!(
            (hi.value, hi.q1, hi.q3, hi.segments),
            (110.0, 95.0, 105.0, 5)
        );
        let lo = Measured::best_segment(&qps, 5, Better::Lower);
        assert_eq!(lo.value, 90.0);
        // two noisy rounds out of three leave the quiet one standing,
        // where the median would report a noisy one
        let rounds = [61.0, 48.0, 63.0];
        assert_eq!(
            Measured::best_segment(&rounds, 3, Better::Lower).value,
            48.0
        );
        assert_eq!(Measured::over_segments(&rounds, 3).value, 61.0);
    }

    #[test]
    fn spread_is_the_interquartile_share() {
        let m = Measured::over_segments(&[90.0, 100.0, 110.0, 95.0, 105.0], 5);
        assert_eq!((m.value, m.q1, m.q3), (100.0, 95.0, 105.0));
        assert!((m.spread() - 0.10).abs() < 1e-12);
        assert_eq!(Measured::single(3.0).spread(), 0.0);
    }
}
