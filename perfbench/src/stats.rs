//! Order statistics for latency samples: the median, and the tail rule —
//! the highest whole percentile that still leaves at least
//! [`TAIL_MIN_BEYOND`] samples above it, taken over the whole run.

/// Highest percentile the tail rule considers. Whole percentiles only, so
/// a run of 1000 or more samples reports its p99.
pub const TAIL_MAX_PCT: u32 = 99;

/// A tail percentile is only reported when at least this many samples lie
/// strictly beyond it, so one outlier cannot move it on its own.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in `n` sorted samples.
pub fn rank_index(p: f64, n: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample set");
    // p * n is exact for whole p, so a whole-number rank is not rounded up.
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Sort in place (total order, NaN last) and return the slice.
pub fn sorted(v: &mut [f64]) -> &[f64] {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank_index(p, sorted.len())]
}

/// Median of already sorted samples: the nearest-rank 50th percentile
/// (the lower middle value for an even count), so a tail taken at the p50
/// rung equals it exactly.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 50.0)
}

/// The tail of a sample set, with the percentile it was taken at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Value at the chosen percentile.
    pub value: f64,
    /// The percentile: a whole number up to [`TAIL_MAX_PCT`], or 100
    /// when the run is too short for any.
    pub pct: f64,
    /// Samples strictly beyond the chosen rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest whole percentile, at most [`TAIL_MAX_PCT`], with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. With fewer than
/// `TAIL_MIN_BEYOND + 1` samples no percentile qualifies and the maximum is
/// reported as percentile 100.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    for pct in (1..=TAIL_MAX_PCT).rev() {
        let idx = rank_index(f64::from(pct), n);
        let beyond = n - 1 - idx;
        if beyond >= TAIL_MIN_BEYOND {
            return Tail {
                value: sorted[idx],
                pct: f64::from(pct),
                beyond,
                samples: n,
            };
        }
    }
    Tail {
        value: sorted[n - 1],
        pct: 100.0,
        beyond: 0,
        samples: n,
    }
}

/// Median and tail of unsorted samples.
pub fn summarize(mut v: Vec<f64>) -> (f64, Tail) {
    let s = sorted(&mut v);
    (median(s), tail(s))
}

/// [`summarize`], or NaN values when there are no samples.
pub fn summarize_or_nan(v: Vec<f64>) -> (f64, Tail) {
    if v.is_empty() {
        let nan = Tail {
            value: f64::NAN,
            pct: f64::NAN,
            beyond: 0,
            samples: 0,
        };
        return (f64::NAN, nan);
    }
    summarize(v)
}

/// Median of unsorted samples, NaN when there are none.
pub fn median_of(v: Vec<f64>) -> f64 {
    summarize_or_nan(v).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in [
            11, 20, 39, 40, 45, 50, 59, 60, 99, 100, 199, 200, 999, 1000, 25_000,
        ] {
            let v = ramp(n);
            let t = tail(&v);
            assert!(t.beyond >= TAIL_MIN_BEYOND, "n {n}: {t:?}");
            assert_eq!(t.samples, n);
            assert_eq!(
                v.iter().filter(|&&x| x > t.value).count(),
                t.beyond,
                "n {n}: beyond must count the samples above the value"
            );
            // No higher whole percentile qualifies.
            let next = t.pct as u32 + 1;
            if next <= TAIL_MAX_PCT {
                let idx = rank_index(f64::from(next), n);
                assert!(n - 1 - idx < TAIL_MIN_BEYOND, "n {n}: p{next}");
            }
        }
    }

    #[test]
    fn tail_reports_the_percentile_it_chose() {
        assert_eq!(tail(&ramp(25_000)).pct, 99.0);
        assert_eq!(tail(&ramp(1_000)).pct, 99.0);
        assert_eq!(tail(&ramp(999)).pct, 98.0);
        assert_eq!(tail(&ramp(100)).pct, 90.0);
        assert_eq!(tail(&ramp(50)).pct, 80.0);
        assert_eq!(tail(&ramp(20)).pct, 50.0);
        assert_eq!(tail(&ramp(11)).pct, 9.0);
        let few = tail(&ramp(10));
        assert_eq!((few.pct, few.value, few.beyond), (100.0, 10.0, 0));
    }

    #[test]
    fn p99_of_a_thousand_is_the_990th_value() {
        let t = tail(&ramp(1_000));
        assert_eq!((t.value, t.beyond), (990.0, 10));
    }

    #[test]
    fn one_slow_stretch_reaches_the_tail() {
        // 990 fast samples and ten slow ones anywhere in the run: the p99
        // leaves exactly those ten beyond it, so the eleventh-slowest, a
        // fast sample, is the tail; an eleventh slow one becomes the tail.
        let mut v: Vec<f64> = vec![1.0; 990];
        v.extend([50.0; 10]);
        assert_eq!(summarize(v.clone()).1.value, 1.0);
        v[0] = 50.0;
        assert_eq!(summarize(v).1.value, 50.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.0);
        let (m, t) = summarize(vec![3.0, 1.0, 2.0]);
        assert_eq!((m, t.pct), (2.0, 100.0));
        assert!(median_of(Vec::new()).is_nan());
    }
}
