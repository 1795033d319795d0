//! Spatial metric maps and their statistics.
//!
//! The paper's evaluation reports heatmaps (Figure 2), medians over a room
//! (Figure 4) and CDFs across locations (Figure 5). [`Heatmap`] is that
//! artefact: values sampled over points, with the order statistics the
//! experiment harness prints.

use surfos_geometry::Vec3;

/// A scalar field sampled over points (RSS, SNR, localization error, …).
#[derive(Debug, Clone, PartialEq)]
pub struct Heatmap {
    /// Sample locations.
    pub points: Vec<Vec3>,
    /// Sampled values, parallel to `points`.
    pub values: Vec<f64>,
}

impl Heatmap {
    /// Creates a heatmap.
    ///
    /// # Panics
    /// Panics if lengths differ or the map is empty.
    pub fn new(points: Vec<Vec3>, values: Vec<f64>) -> Self {
        assert_eq!(points.len(), values.len(), "points/values length mismatch");
        assert!(!points.is_empty(), "heatmap must be non-empty");
        Heatmap { points, values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when empty (cannot happen via [`new`](Self::new)).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let s = self.sorted();
        if s.len() == 1 {
            return s[0];
        }
        let pos = q * (s.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        s[lo] + (s[hi] - s[lo]) * frac
    }

    /// Median value.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Minimum value.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum value.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// The empirical CDF as `(value, fraction ≤ value)` points, one per
    /// sample — exactly the series the paper's Figure 5 plots.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let s = self.sorted();
        let n = s.len() as f64;
        s.into_iter()
            .enumerate()
            .map(|(i, v)| (v, (i + 1) as f64 / n))
            .collect()
    }

    /// Fraction of samples with value ≥ `threshold` (coverage fraction).
    pub fn fraction_at_least(&self, threshold: f64) -> f64 {
        self.values.iter().filter(|v| **v >= threshold).count() as f64 / self.values.len() as f64
    }

    /// Renders an ASCII heatmap for terminal inspection (rows = y buckets,
    /// cols = x buckets), darkest = lowest. Intended for the experiment
    /// binaries' output; not a stable format.
    pub fn ascii(&self, cols: usize, rows: usize) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let (lo, hi) = (self.min(), self.max());
        let span = (hi - lo).max(1e-12);
        let min_x = self
            .points
            .iter()
            .map(|p| p.x)
            .fold(f64::INFINITY, f64::min);
        let max_x = self
            .points
            .iter()
            .map(|p| p.x)
            .fold(f64::NEG_INFINITY, f64::max);
        let min_y = self
            .points
            .iter()
            .map(|p| p.y)
            .fold(f64::INFINITY, f64::min);
        let max_y = self
            .points
            .iter()
            .map(|p| p.y)
            .fold(f64::NEG_INFINITY, f64::max);
        let mut sums = vec![0.0f64; cols * rows];
        let mut counts = vec![0usize; cols * rows];
        for (p, v) in self.points.iter().zip(&self.values) {
            let cx =
                (((p.x - min_x) / (max_x - min_x).max(1e-12)) * (cols - 1) as f64).round() as usize;
            let cy =
                (((p.y - min_y) / (max_y - min_y).max(1e-12)) * (rows - 1) as f64).round() as usize;
            sums[cy * cols + cx] += v;
            counts[cy * cols + cx] += 1;
        }
        let mut out = String::new();
        for r in (0..rows).rev() {
            for c in 0..cols {
                let i = r * cols + c;
                let ch = if counts[i] == 0 {
                    b' '
                } else {
                    let v = sums[i] / counts[i] as f64;
                    let t = ((v - lo) / span * (RAMP.len() - 1) as f64).round() as usize;
                    RAMP[t.min(RAMP.len() - 1)]
                };
                out.push(ch as char);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn map(values: Vec<f64>) -> Heatmap {
        let points = (0..values.len()).map(|i| Vec3::xy(i as f64, 0.0)).collect();
        Heatmap::new(points, values)
    }

    #[test]
    fn order_statistics() {
        let m = map(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(m.median(), 3.0);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 5.0);
        assert_eq!(m.mean(), 3.0);
        assert_eq!(m.quantile(0.0), 1.0);
        assert_eq!(m.quantile(1.0), 5.0);
    }

    #[test]
    fn quantile_interpolates() {
        let m = map(vec![0.0, 10.0]);
        assert_eq!(m.quantile(0.25), 2.5);
        assert_eq!(m.quantile(0.5), 5.0);
    }

    #[test]
    fn cdf_monotone_and_complete() {
        let m = map(vec![3.0, 1.0, 2.0, 2.0]);
        let cdf = m.cdf();
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn fraction_at_least() {
        let m = map(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.fraction_at_least(3.0), 0.5);
        assert_eq!(m.fraction_at_least(0.0), 1.0);
        assert_eq!(m.fraction_at_least(5.0), 0.0);
    }

    #[test]
    fn ascii_shape() {
        let m = map(vec![1.0, 2.0, 3.0, 4.0]);
        let art = m.ascii(4, 2);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.len() == 4));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let _ = Heatmap::new(vec![Vec3::ZERO], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_rejected() {
        let _ = Heatmap::new(vec![], vec![]);
    }

    proptest! {
        #[test]
        fn prop_median_between_min_max(values in prop::collection::vec(-100.0..100.0f64, 1..50)) {
            let m = map(values);
            prop_assert!(m.median() >= m.min() - 1e-12);
            prop_assert!(m.median() <= m.max() + 1e-12);
        }

        #[test]
        fn prop_quantile_monotone(
            values in prop::collection::vec(-100.0..100.0f64, 2..50),
            q1 in 0.0..1.0f64, q2 in 0.0..1.0f64,
        ) {
            let m = map(values);
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(m.quantile(lo) <= m.quantile(hi) + 1e-12);
        }
    }
}
