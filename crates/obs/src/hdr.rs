//! Log-linear ("HdrHistogram-style") histogram with exact-bound percentiles.
//!
//! The one distribution type behind `obs::observe` histograms,
//! `obs::observe_ns` timers and span times. An octave-wide (log2) bucket
//! could put a p99 off by 2×; this layout splits every octave finely
//! enough for tail-latency reporting:
//!
//! - values below 256 land in unit-width buckets (exact);
//! - each octave `[2^k, 2^(k+1))` above that is split into 128 linear
//!   sub-buckets of width `2^(k-7)`.
//!
//! Every bucket therefore spans at most `lo/128` above its lower bound,
//! and [`HdrHist::value_at_quantile`] returns the bucket's *upper* bound
//! (clipped to the observed maximum). The reported quantile `q̂` relates to
//! the true sample quantile `q` by
//!
//! ```text
//! q ≤ q̂ ≤ q · (1 + 2⁻⁷)        (2⁻⁷ ≈ 0.78 %)
//! ```
//!
//! i.e. percentiles are exact to better than two significant decimal
//! digits. The slot array grows lazily to the highest observed bucket, so
//! an idle histogram costs a few machine words, a microsecond-scale one a
//! few KiB.

/// Linear sub-buckets per octave as a power of two: 2^7 = 128, giving the
/// documented ≤ 2⁻⁷ relative quantization error.
const SUB_BITS: u32 = 7;

/// Values below this (= 2^(SUB_BITS+1)) get unit-width, exact buckets.
const PRECISE_LIMIT: u64 = 1 << (SUB_BITS + 1);

/// Total number of addressable slots (msb 8..=63 octaves × 128 + 256).
#[cfg(test)]
const MAX_SLOTS: usize = PRECISE_LIMIT as usize + 56 * (1 << SUB_BITS);

/// The slot index of `v`.
#[inline]
fn slot(v: u64) -> usize {
    if v < PRECISE_LIMIT {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64; // 8..=63
        let shift = msb - SUB_BITS as u64; // >= 1
        let sub = (v >> shift) - (1 << SUB_BITS); // 0..128
        (PRECISE_LIMIT + (msb - SUB_BITS as u64 - 1) * (1 << SUB_BITS)) as usize + sub as usize
    }
}

/// The inclusive `[lo, hi]` value range of slot `i`.
fn slot_bounds(i: usize) -> (u64, u64) {
    if i < PRECISE_LIMIT as usize {
        (i as u64, i as u64)
    } else {
        let oct = (i - PRECISE_LIMIT as usize) as u64 >> SUB_BITS;
        let sub = (i - PRECISE_LIMIT as usize) as u64 & ((1 << SUB_BITS) - 1);
        let shift = oct + 1;
        let lo = ((1 << SUB_BITS) + sub) << shift;
        (lo, lo + ((1u64 << shift) - 1))
    }
}

/// A log-linear histogram; see the module docs for the accuracy contract.
#[derive(Clone, Debug)]
pub(crate) struct HdrHist {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    slots: Vec<u64>,
}

/// An empty histogram — `min` starts at the `u64::MAX` sentinel (not 0),
/// so the first recorded value always wins the min.
impl Default for HdrHist {
    fn default() -> Self {
        HdrHist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            slots: Vec::new(),
        }
    }
}

impl HdrHist {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, v: u64) {
        let s = slot(v);
        if s >= self.slots.len() {
            self.slots.resize(s + 1, 0);
        }
        self.slots[s] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &HdrHist) {
        if other.count == 0 {
            return;
        }
        if other.slots.len() > self.slots.len() {
            self.slots.resize(other.slots.len(), 0);
        }
        for (acc, c) in self.slots.iter_mut().zip(other.slots.iter()) {
            *acc += c;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Observed minimum, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The value at quantile `q` (0.0..=1.0): the upper bound of the bucket
    /// holding the `ceil(q·count)`-th smallest sample, clipped to the
    /// observed maximum. Overestimates the true sample quantile by at most
    /// a factor of `1 + 2⁻⁷`.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.slots.iter().enumerate() {
            seen += c;
            if seen >= target {
                return slot_bounds(i).1.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_partition_the_value_range() {
        // Every slot's bounds map back to the same slot, slots are
        // contiguous, and widths stay within the documented lo/128 bound.
        let mut expected_lo = 0u64;
        for i in 0..MAX_SLOTS {
            let (lo, hi) = slot_bounds(i);
            assert_eq!(lo, expected_lo, "slot {i} not contiguous");
            assert_eq!(slot(lo), i);
            assert_eq!(slot(hi), i);
            assert!(hi >= lo);
            if lo >= PRECISE_LIMIT {
                assert!(hi - lo < lo >> SUB_BITS, "slot {i} too wide");
            }
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(expected_lo, 0, "last slot must end at u64::MAX");
        assert_eq!(slot(u64::MAX), MAX_SLOTS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = HdrHist::new();
        for v in [0u64, 1, 7, 100, 255] {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(0.5), 7);
        assert_eq!(h.value_at_quantile(1.0), 255);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max, 255);
    }

    #[test]
    fn uniform_distribution_percentiles_hit_the_documented_bound() {
        // Synthetic known distribution: 1..=100_000 once each. The true
        // p-quantile of the sample is ceil(p·100_000); the histogram must
        // report within the documented relative bound 2⁻⁷, never below.
        let n = 100_000u64;
        let mut h = HdrHist::new();
        for v in 1..=n {
            h.record(v);
        }
        for (q, exact) in [
            (0.50, 50_000u64),
            (0.90, 90_000),
            (0.99, 99_000),
            (0.999, 99_900),
        ] {
            let got = h.value_at_quantile(q);
            assert!(got >= exact, "q={q}: {got} < exact {exact}");
            let rel = (got - exact) as f64 / exact as f64;
            assert!(
                rel <= 1.0 / 128.0,
                "q={q}: {got} vs {exact} off by {rel:.5} > 2^-7"
            );
        }
        assert_eq!(h.count, n);
    }

    #[test]
    fn merge_matches_single_histogram() {
        let mut a = HdrHist::new();
        let mut b = HdrHist::new();
        let mut whole = HdrHist::new();
        // Deterministic pseudo-random values via an LCG; no rand dep here.
        let mut x = 0x2545f491_4f6cdd1du64;
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x >> 40; // ~24-bit values
            whole.record(v);
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        a.merge(&b);
        assert_eq!(a.count, whole.count);
        assert_eq!(a.sum, whole.sum);
        assert_eq!(a.min, whole.min);
        assert_eq!(a.max, whole.max);
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.value_at_quantile(q), whole.value_at_quantile(q));
        }
    }
}
