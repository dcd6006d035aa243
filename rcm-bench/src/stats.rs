//! Order statistics over run samples.

/// The median (mean of the two middle values for an even count); 0 for an
/// empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The `p`-quantile (`0 <= p <= 1`) with linear interpolation between
/// closest ranks; 0 for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let position = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    let fraction = position - low as f64;
    sorted[low] + (sorted[high] - sorted[low]) * fraction
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads computed here match
/// spreads computed from the same numbers in Python. Needs two values; a
/// single value is its own quartiles.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => return (0.0, 0.0),
        1 => return (data[0], data[0]),
        _ => {}
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// A five-number-plus summary of one metric's samples within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub p75: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `values`.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let (p25, p75) = quartiles(values);
        Summary {
            n: values.len(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            p25,
            median: median(values),
            p75,
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[1.0, 5.0]), (0.0, 6.0));
    }

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.9), 90.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
    }
}
