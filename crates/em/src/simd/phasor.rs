//! Structure-of-arrays complex phasor kernels for the sweep hot loop.
//!
//! `ChannelTrace::sweep_evaluate` advances one unit phasor per path /
//! per element across a uniform frequency grid: at every probe it
//! sums the current values and multiplies each by a fixed per-step
//! rotation. The AoS form (`Vec<Complex>`) defeats autovectorization
//! because the complex-sum reduction carries a loop dependency LLVM
//! will not reassociate for floats. These kernels keep the phasors in
//! SoA `f64` slices and reassociate the reduction explicitly into
//! [`ACC_LANES`] partial sums.
//!
//! # Backends and the equivalence policy
//!
//! The public entry points dispatch on [`backend()`](super::backend):
//!
//! - **Scalar** runs the portable loop (the compiler may autovectorize
//!   the independent partial sums; the shape — and therefore every
//!   result bit — is the same either way). Each phasor's *rotation* is
//!   bit-identical to the scalar `Complex` multiply (`re·dre − im·dim`,
//!   `re·dim + im·dre`, same operation order, two roundings per term).
//! - **Avx2** runs the native `__m256d` kernel in `avx2`. Its **sums
//!   are bit-identical** to the portable loop (same [`ACC_LANES`]
//!   buckets, same visit order, same final `(s0+s2)+(s1+s3)` fold), but
//!   the rotation is **fused**:
//!   `re′ = fma(re, dre, −(im·dim))` and `im′ = fma(re, dim, im·dre)`
//!   round once where the portable form rounds twice.
//!
//! **ULP budget for the fused rotation**: each advance step changes a
//! phasor by at most 1 ULP of the subtracted/added product magnitude
//! relative to the portable form (the fused product is the
//! infinitely-precise one). With unit phasors and unit rotations every
//! term has magnitude ≤ 1, so after `k` steps the accumulated
//! divergence is ≤ `k · 2⁻⁵²` absolute per component — for the 64-probe
//! sweeps the channel crate runs, ≲ `2⁻⁴⁶ ≈ 1.4e-14`, far inside the
//! `~1e-11` relative deviation `sweep_evaluate` already documents
//! against point-wise evaluation, and inside the `2¹⁴`-ULP bound the
//! channel crate's `sweep_soa_matches_scalar_reference_within_ulp_bound`
//! test enforces. The *sum over paths* is reassociated identically on
//! every backend: deviation from the left-to-right scalar sum is at
//! most `O(n · ε · Σ|vᵢ|)` absolute, `≲ n²·2⁻⁵²` for unit phasors.

use super::Backend;

/// Number of independent accumulators used by the reassociated sums.
pub const ACC_LANES: usize = 4;

/// Sums the phasors `(re[i], im[i])`, each weighted by the *real*
/// scale `w[i]`, then advances every phasor by its per-step rotation
/// `(dre[i], dim[i])`. Returns the (reassociated) weighted sum.
///
/// Dispatches on [`backend()`](super::backend); see the module docs
/// for the per-backend equivalence policy. All slices must have equal
/// length.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn weighted_sum_and_advance(
    re: &mut [f64],
    im: &mut [f64],
    dre: &[f64],
    dim: &[f64],
    w: &[f64],
) -> (f64, f64) {
    weighted_sum_and_advance_with(super::backend(), re, im, dre, dim, w)
}

/// Sums the phasors `(re[i], im[i])` and advances each by its
/// per-step rotation; the unweighted special case of
/// [`weighted_sum_and_advance`].
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn sum_and_advance(re: &mut [f64], im: &mut [f64], dre: &[f64], dim: &[f64]) -> (f64, f64) {
    sum_and_advance_with(super::backend(), re, im, dre, dim)
}

/// [`sum_and_advance`] with an explicit kernel arm, for benches and
/// cross-backend equivalence tests.
///
/// # Panics
/// Panics if the slice lengths differ, or if `Backend::Avx2` is forced
/// on a host without AVX2+FMA.
pub fn sum_and_advance_with(
    backend: Backend,
    re: &mut [f64],
    im: &mut [f64],
    dre: &[f64],
    dim: &[f64],
) -> (f64, f64) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            assert!(
                super::avx2_available(),
                "Backend::Avx2 forced without AVX2+FMA support"
            );
            // SAFETY: avx2 + fma presence asserted just above.
            unsafe { super::avx2::sum_and_advance(re, im, dre, dim) }
        }
        _ => {
            let n = re.len();
            assert!(im.len() == n && dre.len() == n && dim.len() == n);
            let mut sr = [0.0f64; ACC_LANES];
            let mut si = [0.0f64; ACC_LANES];
            for i in 0..n {
                let (r, im_i) = (re[i], im[i]);
                sr[i % ACC_LANES] += r;
                si[i % ACC_LANES] += im_i;
                re[i] = r * dre[i] - im_i * dim[i];
                im[i] = r * dim[i] + im_i * dre[i];
            }
            (
                (sr[0] + sr[2]) + (sr[1] + sr[3]),
                (si[0] + si[2]) + (si[1] + si[3]),
            )
        }
    }
}

/// [`weighted_sum_and_advance`] with an explicit kernel arm, for
/// benches and cross-backend equivalence tests.
///
/// # Panics
/// Panics if the slice lengths differ, or if `Backend::Avx2` is forced
/// on a host without AVX2+FMA.
pub fn weighted_sum_and_advance_with(
    backend: Backend,
    re: &mut [f64],
    im: &mut [f64],
    dre: &[f64],
    dim: &[f64],
    w: &[f64],
) -> (f64, f64) {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            assert!(
                super::avx2_available(),
                "Backend::Avx2 forced without AVX2+FMA support"
            );
            // SAFETY: avx2 + fma presence asserted just above.
            unsafe { super::avx2::weighted_sum_and_advance(re, im, dre, dim, w) }
        }
        _ => {
            let n = re.len();
            assert!(im.len() == n && dre.len() == n && dim.len() == n && w.len() == n);
            let mut sr = [0.0f64; ACC_LANES];
            let mut si = [0.0f64; ACC_LANES];
            for i in 0..n {
                let (r, im_i) = (re[i], im[i]);
                sr[i % ACC_LANES] += r * w[i];
                si[i % ACC_LANES] += im_i * w[i];
                re[i] = r * dre[i] - im_i * dim[i];
                im[i] = r * dim[i] + im_i * dre[i];
            }
            (
                (sr[0] + sr[2]) + (sr[1] + sr[3]),
                (si[0] + si[2]) + (si[1] + si[3]),
            )
        }
    }
}
