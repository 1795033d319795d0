//! # surfos-em
//!
//! Electromagnetic and signal-level math substrate for SurfOS.
//!
//! This crate is the lowest layer of the SurfOS workspace. It provides the
//! numerical vocabulary every other crate speaks:
//!
//! - [`Complex`]: complex arithmetic for phasors and channel coefficients,
//! - [`units`]: decibel / linear / power conversions and physical constants,
//! - [`band`]: frequency bands and wavelengths,
//! - [`antenna`]: element and aperture gain patterns,
//! - [`mod@array`]: planar array geometry and steering vectors,
//! - [`propagation`]: free-space (Friis) propagation and scattering gains,
//! - [`noise`]: thermal noise, SNR and Shannon capacity,
//! - [`phase`]: phase wrapping and quantization,
//! - [`simd`]: a runtime-dispatched SIMD substrate for the tracing and
//!   re-phasing hot paths — a native AVX2 arm and the scalar reference
//!   arm (selected once via CPU detection, overridable with
//!   `SURFOS_SIMD`), plus SoA phasor kernels,
//! - [`ulp`]: ULP-distance helpers backing the SIMD↔scalar equivalence
//!   tests.
//!
//! Everything here is deterministic, `no_std`-shaped (no allocation in hot
//! paths beyond `Vec` for arrays) and extensively unit-tested, in the spirit
//! of small, robust networking substrates.

pub mod antenna;
pub mod array;
pub mod band;
pub mod complex;
pub mod noise;
pub mod phase;
pub mod propagation;
pub mod simd;
pub mod ulp;
pub mod units;

pub use antenna::{ElementPattern, Pattern};
pub use array::{ArrayGeometry, SteeringVector};
pub use band::{Band, NamedBand};
pub use complex::Complex;
pub use noise::{noise_power_dbm, shannon_capacity_bps, snr_db};
pub use phase::{quantize_phase, wrap_phase};
pub use simd::{backend, Backend};
pub use ulp::{approx_eq_ulps_f64, ulp_distance_f32, ulp_distance_f64};
pub use units::{db_to_linear, dbm_to_watts, linear_to_db, watts_to_dbm, SPEED_OF_LIGHT};
