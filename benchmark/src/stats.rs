//! Order statistics for repeated timings: median, quartiles, MAD.

/// Median, quartiles, median absolute deviation and range of one
/// metric's repeats.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub mad: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&v);
        Some(Summary {
            median: median(&v),
            q1,
            q3,
            mad: mad(&v),
            min: v[0],
            max: v[v.len() - 1],
            n: v.len(),
        })
    }

    /// Interquartile range as a share of the median: the run-to-run
    /// spread the verdicts are judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of an ascending slice.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of values in any order.
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median(&v)
}

/// First and third quartile of an ascending slice, by the rule of
/// Python's `statistics.quantiles(values, n=4)` (exclusive method), so
/// a spread computed here equals one computed from the printed runs.
/// A single value is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let m = sorted.len();
    if m < 2 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median absolute deviation from the median of an ascending slice.
pub fn mad(sorted: &[f64]) -> f64 {
    let m = median(sorted);
    median_of(&sorted.iter().map(|x| (x - m).abs()).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_of(&[7.0]), 7.0);
    }

    /// Reference values from Python: `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 6.0));
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn mad_ignores_one_outlier() {
        let v = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(mad(&v), 1.0);
    }

    #[test]
    fn summary_reports_spread_as_share_of_median() {
        let s = Summary::of(&[10.0, 9.0, 11.0, 10.5, 9.5, 10.0, 10.0]).unwrap();
        assert_eq!(s.n, 7);
        assert_eq!(s.median, 10.0);
        assert_eq!((s.min, s.max), (9.0, 11.0));
        assert!((s.spread() - (s.q3 - s.q1) / 10.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }
}
