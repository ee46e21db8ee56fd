//! Order statistics over the benchmark's samples.

/// Median and quartiles of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub count: usize,
}

impl Quartiles {
    /// Inter-quartile range as a share of the median: the spread the
    /// contract compares against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `i`-th of the three cut points Python's
/// `statistics.quantiles(data, n=4)` returns (its default "exclusive"
/// method, which extrapolates past the extremes of a tiny sample).
/// Needs at least two samples.
fn python_quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Median over segments. `None` on an empty set.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let mid = s.len() / 2;
    Some(if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    })
}

/// Quartiles as `statistics.quantiles(samples, n=4)` gives them. A
/// single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> Option<Quartiles> {
    let s = sorted(samples);
    let median = median(&s)?;
    let (q1, q3) = if s.len() == 1 {
        (s[0], s[0])
    } else {
        (python_quartile(&s, 1), python_quartile(&s, 3))
    };
    Some(Quartiles {
        q1,
        median,
        q3,
        count: s.len(),
    })
}

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile `q` in `(0, 1)`. Refuses (`None`) when fewer
/// than [`TAIL_SUPPORT`] samples lie beyond it: such a tail is a handful
/// of outliers, not a distribution.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    // The epsilon keeps 0.9 × 100 = 90.000…01 at rank 90.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < TAIL_SUPPORT {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// The highest quantile not above `want` that [`percentile`] supports
/// for `n` samples, never below the median.
pub fn supported_quantile(n: usize, want: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let limit = (n.saturating_sub(TAIL_SUPPORT)) as f64 / n as f64;
    want.min(limit).max(0.5)
}

/// `want` percentile where the sample supports it, else the highest
/// supported one (the median at worst). Returns the quantile used.
pub fn tail(samples: &[f64], want: f64) -> Option<(f64, f64)> {
    let q = supported_quantile(samples.len(), want);
    let value = if q > 0.5 {
        percentile(samples, q)?
    } else {
        median(samples)?
    };
    Some((q, value))
}

/// How late an open-loop generator ran: each operation's actual send
/// instant minus its due instant, in the unit of the inputs, floored
/// at zero (an early send is not negative lateness).
pub fn lateness(due: &[f64], sent: &[f64]) -> Vec<f64> {
    due.iter()
        .zip(sent)
        .map(|(d, s)| (s - d).max(0.0))
        .collect()
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.count), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        let q = quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (15.0, 40.0, 120.0));
        assert!((q.spread() - 105.0 / 40.0).abs() < 1e-12);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        let q = quartiles(&[1.0, 3.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.5, 2.0, 3.5));
        let q = quartiles(&[7.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.count), (7.0, 7.0, 7.0, 1));
        assert!(quartiles(&[]).is_none());
    }

    #[test]
    fn percentile_refuses_an_unsupported_tail() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten samples beyond it.
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&v[..99], 0.90), None);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_quantile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.90), Some((0.90, 900.0)));
        // 40 samples support at most p75.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(supported_quantile(40, 0.90), 0.75);
        assert_eq!(tail(&v, 0.90), Some((0.75, 30.0)));
        // Below 20 samples only the median is left.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v, 0.90), Some((0.5, 6.5)));
        assert_eq!(tail(&[], 0.90), None);
    }

    #[test]
    fn lateness_is_sent_minus_due_floored_at_zero() {
        let late = lateness(&[0.0, 1.0, 2.0, 3.0], &[0.5, 0.9, 2.0, 7.0]);
        assert_eq!(late, vec![0.5, 0.0, 0.0, 4.0]);
        assert_eq!(max(&late), 4.0);
        assert_eq!(max(&[]), 0.0);
    }
}
