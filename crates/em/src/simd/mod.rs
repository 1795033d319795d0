//! Runtime-dispatched SIMD substrate for the packet-tracing hot path.
//!
//! SurfOS vendors its dependencies, so rather than pull in `wide` or wait
//! for `std::simd` we expose the handful of lane operations the tracing
//! and re-phasing kernels actually need: splat/load, add/sub/mul,
//! `mul_add`, min/max, compares producing lane masks, mask boolean
//! algebra with `bitmask`/`any`/`all`, blend/`select`, and horizontal
//! reductions.
//!
//! # Backends
//!
//! Two kernel arms sit behind one API, selected **once per process** by
//! [`backend()`] (see [`Backend`] for the dispatch and override rules):
//!
//! - **AVX2** ([`Backend::Avx2`], the default on capable hosts): native
//!   8-lane `f32` (`avx2::F32x8A`) and 4-lane `f64` (`avx2::F64x4A`)
//!   registers, selected at startup when `is_x86_feature_detected!`
//!   reports both `"avx2"` and `"fma"`. Only the dispatched kernels
//!   (phasor sweep, packet traversal, interval banks, the `crossing_t`
//!   batch solve) use them; every result they produce is bit-identical
//!   to the scalar arm except the phasor rotation, which is allowed to
//!   fuse (see [`phasor`]).
//! - **Scalar** ([`Backend::Scalar`]): the reference arm, and the only
//!   arm on hosts without AVX2+FMA and on non-x86_64 targets. Dispatched
//!   kernels run their per-candidate scalar loops (no packets, no
//!   prefilter banks), which is what the AVX2 arm is tested against.
//!
//! The only `unsafe` in the workspace is the audited `avx!` wrapper
//! around **value-based** intrinsics (no pointers) plus the
//! `#[target_feature]` kernel entry points in `avx2`, each guarded by the
//! one-time CPU detection.
//!
//! The AVX2 lane types keep SSE operand-order `min`/`max` under NaN,
//! compares that are false on NaN, an **unfused** `mul_add` (`a * b + c`
//! with both roundings) and a fixed `reduce_sum` association, so the
//! packet and bank kernels built on them reach the scalar arm's results
//! bit for bit; fused math is confined to the AVX2 phasor kernel, which
//! documents its ULP budget.
//!
//! The [`phasor`] submodule holds the structure-of-arrays complex
//! helpers used by `ChannelTrace::sweep_evaluate`; see its docs for the
//! reassociation / ULP policy.

use core::sync::atomic::{AtomicU8, Ordering};

#[cfg(target_arch = "x86_64")]
pub mod avx2;
pub mod phasor;

/// Which kernel arm the runtime-dispatched hot paths use.
///
/// Selected **once per process** by [`backend()`]: `Avx2` when the CPU
/// reports both `avx2` and `fma` on an x86_64 build, `Scalar` otherwise.
/// The `SURFOS_SIMD` environment variable overrides the choice for
/// testing:
///
/// - `SURFOS_SIMD=scalar` — per-candidate scalar reference loops in the
///   dispatched kernels (no packets, no prefilter banks).
/// - `SURFOS_SIMD=avx2` — the native AVX2 arm; silently falls back to
///   the detected arm when the CPU or build cannot run it.
///
/// Any other value is ignored. The discriminants are the values
/// `obs_smoke` reports as `em.simd.backend`, unchanged from the earlier
/// three-arm layout so recorded bench metadata stays comparable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Backend {
    /// Scalar reference loops (what the AVX2 arm is tested against).
    Scalar = 1,
    /// Native AVX2 registers (requires `avx2` + `fma` at runtime).
    Avx2 = 3,
}

impl Backend {
    /// Lower-case name, matching the accepted `SURFOS_SIMD` values.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }

    /// `true` if this arm's phasor kernel fuses the complex rotation
    /// (single-rounded multiply-add); see [`phasor`] for the ULP budget.
    pub fn fuses_rotation(self) -> bool {
        matches!(self, Backend::Avx2)
    }
}

/// Cached dispatch decision: 0 = not yet initialised, else the
/// `Backend` discriminant.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// `true` if the native AVX2 arm can run: an x86_64 build on a CPU that
/// reports both `avx2` and `fma`.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The kernel arm the dispatched hot paths use, deciding (and caching)
/// it on first call.
///
/// After the first call this is a single relaxed atomic load — cheap
/// enough to sit inside per-query dispatch without a function-pointer
/// table. Bench and trace artifacts that need to be attributable to a
/// backend record this value themselves.
#[inline]
pub fn backend() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        3 => Backend::Avx2,
        _ => init_backend(),
    }
}

/// One-time dispatch: detect, apply the `SURFOS_SIMD` override, cache.
#[cold]
fn init_backend() -> Backend {
    let detected = if avx2_available() {
        Backend::Avx2
    } else {
        Backend::Scalar
    };
    let chosen = choose(detected, std::env::var("SURFOS_SIMD").ok().as_deref());
    // Keep whichever decision was stored first, so the whole process
    // sees one arm even if first calls race.
    match ACTIVE.compare_exchange(0, chosen as u8, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => chosen,
        Err(_) => backend(),
    }
}

/// Applies a `SURFOS_SIMD` value to the `detected` arm: `"scalar"`
/// forces the reference arm, `"avx2"` is honoured only when `detected`
/// already is AVX2, and anything else (including no value) keeps
/// `detected`.
fn choose(detected: Backend, var: Option<&str>) -> Backend {
    match var {
        Some("scalar") => Backend::Scalar,
        _ => detected,
    }
}

#[cfg(test)]
mod tests;
