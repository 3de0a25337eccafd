//! Order statistics over small samples.
//!
//! Quartiles use the same rule as Python's `statistics.quantiles(v, n=4)`
//! (the exclusive method), so a spread printed here is the number the
//! benchmark driver computes from the same values.

/// First quartile, median and third quartile of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Summary {
    /// Interquartile distance as a share of the median (0 for a zero
    /// median, which only an all-zero sample has here).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `p`-th of `n` equal cuts of sorted `v`, exclusive method: position
/// `p (len + 1) / n`, counted from one, interpolated between neighbours
/// and clamped to the sample's ends.
fn cut(sorted: &[f64], p: usize, n: usize) -> f64 {
    let len = sorted.len();
    let pos = p * (len + 1);
    let below = (pos / n).clamp(1, len - 1);
    let frac = (pos as f64 - (below * n) as f64) / n as f64;
    let (lo, hi) = (sorted[below - 1], sorted[below]);
    lo + (hi - lo) * frac
}

/// Summarises `values`; a single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let len = sorted.len();
    if len == 1 {
        return Summary {
            q1: sorted[0],
            median: sorted[0],
            q3: sorted[0],
            samples: 1,
        };
    }
    Summary {
        q1: cut(&sorted, 1, 4),
        median: cut(&sorted, 2, 4),
        q3: cut(&sorted, 3, 4),
        samples: len,
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.samples, 10);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates past a two-point sample's ends.
        let s = summarize(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = summarize(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
    }

    #[test]
    fn single_sample_and_spread() {
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.samples), (4.0, 4.0, 4.0, 1));
        assert_eq!(s.spread(), 0.0);
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!(s.spread(), 1.0);
        assert_eq!(summarize(&[0.0, 0.0]).spread(), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
