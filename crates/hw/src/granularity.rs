//! Spatial control granularity and configuration projection.
//!
//! High-frequency programmable surfaces often share element states per
//! column or row (mmWall, NR-Surface, Scrolls), and every real design
//! quantizes phase. The hardware manager must therefore *project* the
//! ideal element-wise configuration the optimizer produces onto what the
//! hardware can realize — and expose that granularity so the optimizer can
//! anticipate the loss.

use surfos_em::complex::Complex;
use surfos_em::phase::{quantize_phase, wrap_phase};

/// How finely a design's element states can be set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reconfigurability {
    /// Configuration frozen at fabrication (MilliMirror, AutoMS, PMSat…).
    Passive,
    /// One shared state per row (Scrolls' row-wise rolling control).
    RowWise,
    /// One shared state per column (mmWall, NR-Surface).
    ColumnWise,
    /// Every element independently settable.
    ElementWise,
}

impl Reconfigurability {
    /// Number of independently controllable state groups for a
    /// `rows × cols` array. Passive counts its single frozen pattern as
    /// fully element-wise (chosen freely, once).
    pub fn degrees_of_freedom(self, rows: usize, cols: usize) -> usize {
        match self {
            Reconfigurability::Passive | Reconfigurability::ElementWise => rows * cols,
            Reconfigurability::RowWise => rows,
            Reconfigurability::ColumnWise => cols,
        }
    }

    /// Projects an ideal element-wise phase configuration (row-major,
    /// `rows × cols`) onto this granularity, then quantizes to `bits`.
    ///
    /// Shared groups take the *circular mean* of their members' phases —
    /// the phase that maximizes coherent combining under a shared state.
    ///
    /// ```
    /// use surfos_hw::granularity::Reconfigurability;
    ///
    /// // A 2×2 grid projected column-wise shares one state per column.
    /// let out = Reconfigurability::ColumnWise.project_phases(&[0.2, 2.0, 0.4, 2.2], 2, 2, 8);
    /// assert!((out[0] - out[2]).abs() < 1e-9);
    /// assert!((out[1] - out[3]).abs() < 1e-9);
    /// ```
    ///
    /// # Panics
    /// Panics if `phases.len() != rows * cols`.
    pub fn project_phases(self, phases: &[f64], rows: usize, cols: usize, bits: u8) -> Vec<f64> {
        assert_eq!(phases.len(), rows * cols, "phase grid shape mismatch");
        let projected: Vec<f64> = match self {
            Reconfigurability::Passive | Reconfigurability::ElementWise => phases.to_vec(),
            Reconfigurability::ColumnWise => {
                let mut out = vec![0.0; rows * cols];
                for c in 0..cols {
                    let mean = circular_mean((0..rows).map(|r| phases[r * cols + c]));
                    for r in 0..rows {
                        out[r * cols + c] = mean;
                    }
                }
                out
            }
            Reconfigurability::RowWise => {
                let mut out = vec![0.0; rows * cols];
                for r in 0..rows {
                    let mean = circular_mean((0..cols).map(|c| phases[r * cols + c]));
                    for c in 0..cols {
                        out[r * cols + c] = mean;
                    }
                }
                out
            }
        };
        projected
            .into_iter()
            .map(|p| quantize_phase(p, bits))
            .collect()
    }
}

/// The circular mean of a set of phases: the argument of the phasor sum.
/// Returns 0 for an empty iterator or a fully-cancelling set.
pub fn circular_mean(phases: impl Iterator<Item = f64>) -> f64 {
    let sum: Complex = phases.map(Complex::cis).sum();
    if sum.abs() < 1e-12 {
        0.0
    } else {
        wrap_phase(sum.arg())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    #[test]
    fn degrees_of_freedom() {
        assert_eq!(Reconfigurability::ElementWise.degrees_of_freedom(4, 8), 32);
        assert_eq!(Reconfigurability::ColumnWise.degrees_of_freedom(4, 8), 8);
        assert_eq!(Reconfigurability::RowWise.degrees_of_freedom(4, 8), 4);
        assert_eq!(Reconfigurability::Passive.degrees_of_freedom(4, 8), 32);
    }

    #[test]
    fn circular_mean_handles_wraparound() {
        // Mean of 350° and 10° is 0°, not 180°.
        let m = circular_mean([350f64.to_radians(), 10f64.to_radians()].into_iter());
        assert!(!(0.02..=2.0 * PI - 0.02).contains(&m), "m={m}");
    }

    #[test]
    fn circular_mean_of_cancelling_set_is_zero() {
        assert_eq!(circular_mean([0.0, PI].into_iter()), 0.0);
    }

    #[test]
    fn elementwise_projection_only_quantizes() {
        let phases = [0.1, 1.7, 3.0, 4.5];
        let out = Reconfigurability::ElementWise.project_phases(&phases, 2, 2, 8);
        for (o, p) in out.iter().zip(&phases) {
            assert!((o - p).abs() < 2.0 * PI / 256.0 + 1e-9);
        }
    }

    #[test]
    fn columnwise_shares_state_per_column() {
        // 2×2 grid, distinct columns.
        let phases = [0.2, 2.0, 0.4, 2.2];
        let out = Reconfigurability::ColumnWise.project_phases(&phases, 2, 2, 8);
        assert!((out[0] - out[2]).abs() < 1e-9, "column 0 shared");
        assert!((out[1] - out[3]).abs() < 1e-9, "column 1 shared");
        // Near the circular means 0.3 and 2.1 (up to quantization).
        assert!((out[0] - 0.3).abs() < 0.05);
        assert!((out[1] - 2.1).abs() < 0.05);
    }

    #[test]
    fn rowwise_shares_state_per_row() {
        let phases = [0.2, 0.4, 2.0, 2.2];
        let out = Reconfigurability::RowWise.project_phases(&phases, 2, 2, 8);
        assert!((out[0] - out[1]).abs() < 1e-9);
        assert!((out[2] - out[3]).abs() < 1e-9);
    }

    #[test]
    fn one_bit_quantization_applied() {
        let phases = [0.3, 2.9, 4.0, 6.0];
        let out = Reconfigurability::ElementWise.project_phases(&phases, 2, 2, 1);
        for o in out {
            assert!(o.abs() < 1e-9 || (o - PI).abs() < 1e-9, "o={o}");
        }
    }

    #[test]
    fn column_projection_preserves_combining_better_than_zero() {
        // A linear phase ramp along columns (beam steering in the
        // column direction) is perfectly representable column-wise.
        let rows = 4;
        let cols = 8;
        let phases: Vec<f64> = (0..rows * cols)
            .map(|i| wrap_phase((i % cols) as f64 * 0.7))
            .collect();
        let out = Reconfigurability::ColumnWise.project_phases(&phases, rows, cols, 8);
        for (o, p) in out.iter().zip(&phases) {
            assert!((o - p).abs() < 0.05, "o={o} p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_rejected() {
        let _ = Reconfigurability::ElementWise.project_phases(&[0.0; 5], 2, 2, 1);
    }

    proptest! {
        #[test]
        fn prop_projection_output_in_range(
            phases in prop::collection::vec(-10.0..10.0f64, 16),
            bits in 1u8..8,
        ) {
            for g in [
                Reconfigurability::ElementWise,
                Reconfigurability::ColumnWise,
                Reconfigurability::RowWise,
            ] {
                let out = g.project_phases(&phases, 4, 4, bits);
                prop_assert_eq!(out.len(), 16);
                for o in out {
                    prop_assert!((0.0..2.0 * PI).contains(&o));
                }
            }
        }

        #[test]
        fn prop_projection_idempotent(
            phases in prop::collection::vec(0.0..6.2f64, 16),
            bits in 1u8..6,
        ) {
            let g = Reconfigurability::ColumnWise;
            let once = g.project_phases(&phases, 4, 4, bits);
            let twice = g.project_phases(&once, 4, 4, bits);
            for (a, b) in once.iter().zip(&twice) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
