//! Order statistics for the metrics: medians, quartiles and tail
//! percentiles over the samples one run collects.

/// A named list of samples, in collection order.
#[derive(Clone, Debug, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (`NaN` when empty).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The `p`-th percentile, linearly interpolated between closest ranks
    /// (`NaN` when empty).
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
    }

    /// First and third quartiles by the method of Python's
    /// `statistics.quantiles(values, n=4)` (exclusive), so in-run spreads
    /// read the same as the ones computed over runs. With fewer than two
    /// samples both quartiles are the single value.
    #[must_use]
    pub fn quartiles(&self) -> (f64, f64) {
        let v = self.sorted();
        match v.len() {
            0 => (f64::NAN, f64::NAN),
            1 => (v[0], v[0]),
            len => {
                let m = len + 1;
                let q = |i: usize| {
                    let j = (i * m / 4).clamp(1, len - 1);
                    let delta = (i * m) as f64 - (j * 4) as f64;
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                (q(1), q(3))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = Samples((1..=10).map(f64::from).collect());
        assert_eq!(s.quartiles(), (2.75, 8.25));
        assert_eq!(s.median(), 5.5);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(Samples(vec![3.0, 1.0]).quartiles(), (0.5, 3.5));
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Samples((0..=100).map(f64::from).collect());
        assert_eq!(s.percentile(90.0), 90.0);
        assert!(Samples::default().median().is_nan());
    }
}
