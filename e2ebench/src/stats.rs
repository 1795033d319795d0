//! Sample statistics, outcome accounting and the seeded generator.

/// SplitMix64: a tiny deterministic generator, so a seed fully fixes
/// every generated input without depending on any external crate.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Samples the tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest nearest-rank percentile that still has at
/// least [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub beyond: usize,
    pub samples: usize,
}

/// The tail of an ascending slice. With `n` samples the highest rank
/// with ten beyond it is `n - 10`, so the value is the eleventh largest
/// and the percentile is `100 (n - 10) / n`. With ten or fewer samples
/// no percentile meets the rule: the maximum is returned with `beyond`
/// telling how short it falls.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    let rank = n.saturating_sub(TAIL_BEYOND).max(1);
    Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
        samples: n,
    }
}

/// How one attempted operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// Answered, but with the wrong kind or wrong content.
    Wrong,
    /// Structured refusal (`Rejected`).
    Refused,
    /// Answered after the workload's latency limit.
    TimedOut,
    /// Never answered before the drain deadline.
    Missing,
}

/// Counts outcomes against operations attempted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub wrong: u64,
    pub refused: u64,
    pub timed_out: u64,
    pub missing: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::Wrong => self.wrong += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::TimedOut => self.timed_out += 1,
            Outcome::Missing => self.missing += 1,
        }
    }

    /// Every attempted operation that did not end `Ok`.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_deterministic() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in [11usize, 12, 50, 100, 999, 1000, 1001, 12_345] {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let t = tail(&v);
            let beyond = v.iter().filter(|x| **x > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(t.beyond, TAIL_BEYOND);
            assert_eq!(t.samples, n);
            assert_eq!(t.percentile, 100.0 * (n - TAIL_BEYOND) as f64 / n as f64);
            // Any higher rank would leave fewer than ten beyond.
            let next = v.iter().filter(|x| **x > t.value + 1.0).count();
            assert!(next < TAIL_BEYOND);
        }
        // 1000 samples: p99 is the highest percentile with ten beyond.
        let v: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(tail(&v).percentile, 99.0);
        assert_eq!(tail(&v).value, 990.0);
    }

    #[test]
    fn tail_of_too_few_samples_reports_the_shortfall() {
        let v = [1.0, 2.0, 3.0];
        let t = tail(&v);
        assert_eq!(t.value, 1.0);
        assert_eq!(t.beyond, 2);
        assert!(t.beyond < TAIL_BEYOND);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.5), 20.0);
        assert_eq!(quantile(&v, 0.75), 30.0);
        assert_eq!(quantile(&v, 1.0), 40.0);
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn error_frac_counts_refused_and_missing_as_failures() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Ok,
            Outcome::Refused,
            Outcome::Missing,
            Outcome::Wrong,
            Outcome::TimedOut,
            Outcome::Ok,
            Outcome::Ok,
        ] {
            t.record(o);
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(t.failed(), 4);
        assert_eq!(t.error_frac(), 0.5);
        assert_eq!(Tally::default().error_frac(), 0.0);
    }
}
