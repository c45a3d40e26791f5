//! Sample sets: medians, tail percentiles under the ten-beyond rule, and
//! sums, over timings and counts collected by the workloads.

/// A bag of measurements (one per operation).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The median (mean of the two middle values for an even count).
    pub fn median(&mut self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.sort();
        let n = self.values.len();
        Some(if n % 2 == 1 {
            self.values[n / 2]
        } else {
            (self.values[n / 2 - 1] + self.values[n / 2]) / 2.0
        })
    }

    /// The `q`-th percentile (nearest rank), or `None` unless at least ten
    /// samples lie beyond it — a tail figure resting on fewer is noise.
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        let n = self.values.len();
        let rank = ((q / 100.0) * n as f64).ceil() as usize;
        if n == 0 || rank == 0 || n - rank.min(n) < 10 {
            return None;
        }
        self.sort();
        Some(self.values[rank - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        let mut s = Samples::new();
        for v in [3.0, 1.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), Some(2.0));
        s.push(10.0);
        assert_eq!(s.median(), Some(2.5));
        assert_eq!(Samples::new().median(), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let mut s = Samples::new();
        for v in 1..=999 {
            s.push(f64::from(v));
        }
        // 999 samples: p99 is rank 990, leaving 9 beyond it.
        assert_eq!(s.percentile(99.0), None);
        s.push(1000.0);
        assert_eq!(s.percentile(99.0), Some(990.0));
        assert_eq!(s.percentile(50.0), Some(500.0));
    }
}
