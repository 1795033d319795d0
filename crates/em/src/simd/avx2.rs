//! Native AVX2 lane types and the fused phasor kernel.
//!
//! Everything here is reached **only** through a [`Backend::Avx2`](super::Backend::Avx2)
//! dispatch arm (or a test/bench that checks
//! [`avx2_available`](super::avx2_available) first), which requires
//! `is_x86_feature_detected!("avx2")` and `"fma"` to have returned
//! true. That one-time detection is the safety argument for the `avx!`
//! macro below and for the `#[target_feature]` kernel entry points.
//!
//! The lane types pin the semantics the geometry kernels rely on to stay
//! bit-identical to their scalar reference loops: IEEE lane-wise math,
//! `vminps`/`vmaxps` operand-order semantics under NaN (the *second*
//! operand wins on unordered or equal lanes, as with SSE), compares via
//! the ordered non-signalling predicates (false on NaN), an **unfused**
//! `mul_add`, and a `reduce_sum` with the fixed
//! `((a0+a2)+(a1+a3)) + ((a4+a6)+(a5+a7))` association, computed by
//! splitting the 256-bit register into its 128-bit halves. The only
//! deliberately divergent math in this module is the *fused* complex
//! rotation inside `sum_and_advance` / `weighted_sum_and_advance`, whose
//! ULP budget is documented in [`phasor`](super::phasor).
//!
//! Methods are `#[inline(always)]` rather than `#[target_feature]`: they
//! flatten into the `#[target_feature(enable = "avx2")]` kernel entry
//! points their callers compile, so the intrinsics inline into
//! AVX2-enabled code. Called outside such a kernel (tests do this after
//! checking `avx2_available()`), each intrinsic still executes correctly
//! — the CPU has the feature; only scheduling is pessimised.

#![allow(clippy::should_implement_trait)]

use core::arch::x86_64::*;

/// Wraps a value-based AVX2/FMA intrinsic call.
///
/// SAFETY: every public item in this module is documented to be reached
/// only behind the `Backend::Avx2` dispatch decision, which required
/// `is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")`
/// at process startup. All wrapped intrinsics are value-based (no
/// pointers), so no other precondition exists.
macro_rules! avx {
    ($e:expr) => {
        unsafe { $e }
    };
}

/// Eight `f32` lanes in one AVX2 `__m256` register: the ray-packet
/// width of `surfos-geometry`'s packet traversal and interval banks.
#[derive(Clone, Copy, Debug)]
pub struct F32x8A(__m256);

/// Lane mask for [`F32x8A`]: each lane is all-ones (true) or all-zeros.
#[derive(Clone, Copy, Debug)]
pub struct Mask8A(__m256);

/// Four `f64` lanes in one AVX2 `__m256d` register: the exact
/// `crossing_t` batch solve and the phasor kernels.
#[derive(Clone, Copy, Debug)]
pub struct F64x4A(__m256d);

/// Lane mask for [`F64x4A`]: each lane is all-ones (true) or all-zeros.
#[derive(Clone, Copy, Debug)]
pub struct MaskD4A(__m256d);

#[inline(always)]
fn all_ones_256() -> __m256 {
    let z = avx!(_mm256_setzero_ps());
    avx!(_mm256_cmp_ps::<_CMP_EQ_OQ>(z, z))
}

#[inline(always)]
fn all_ones_256d() -> __m256d {
    let z = avx!(_mm256_setzero_pd());
    avx!(_mm256_cmp_pd::<_CMP_EQ_OQ>(z, z))
}

/// The exact SSE `reduce_sum` association on one 128-bit half:
/// `(a[0] + a[2]) + (a[1] + a[3])`.
#[inline(always)]
fn reduce_sum_128(v: __m128) -> f32 {
    let hi = avx!(_mm_movehl_ps(v, v));
    let pair = avx!(_mm_add_ps(v, hi));
    let odd = avx!(_mm_shuffle_ps::<0b01>(pair, pair));
    avx!(_mm_cvtss_f32(_mm_add_ss(pair, odd)))
}

impl F32x8A {
    /// Number of lanes.
    pub const LANES: usize = 8;

    /// Broadcasts `v` to all lanes.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        F32x8A(avx!(_mm256_set1_ps(v)))
    }

    /// Loads the lanes from an array (`a[0]` is lane 0).
    #[inline(always)]
    pub fn from_array(a: [f32; 8]) -> Self {
        F32x8A(avx!(_mm256_setr_ps(
            a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
        )))
    }

    /// Stores the lanes to an array (`a[0]` is lane 0).
    #[inline(always)]
    pub fn to_array(self) -> [f32; 8] {
        let lo = avx!(_mm256_castps256_ps128(self.0));
        let hi = avx!(_mm256_extractf128_ps::<1>(self.0));
        let l = |v: __m128, i: i32| -> f32 {
            match i {
                0 => avx!(_mm_cvtss_f32(v)),
                1 => avx!(_mm_cvtss_f32(_mm_shuffle_ps::<0b01_01_01_01>(v, v))),
                2 => avx!(_mm_cvtss_f32(_mm_shuffle_ps::<0b10_10_10_10>(v, v))),
                _ => avx!(_mm_cvtss_f32(_mm_shuffle_ps::<0b11_11_11_11>(v, v))),
            }
        };
        [
            l(lo, 0),
            l(lo, 1),
            l(lo, 2),
            l(lo, 3),
            l(hi, 0),
            l(hi, 1),
            l(hi, 2),
            l(hi, 3),
        ]
    }

    /// Lane-wise `self + rhs`.
    #[inline(always)]
    pub fn add(self, rhs: Self) -> Self {
        F32x8A(avx!(_mm256_add_ps(self.0, rhs.0)))
    }

    /// Lane-wise `self - rhs`.
    #[inline(always)]
    pub fn sub(self, rhs: Self) -> Self {
        F32x8A(avx!(_mm256_sub_ps(self.0, rhs.0)))
    }

    /// Lane-wise `self * rhs`.
    #[inline(always)]
    pub fn mul(self, rhs: Self) -> Self {
        F32x8A(avx!(_mm256_mul_ps(self.0, rhs.0)))
    }

    /// Lane-wise `self * b + c`, rounded twice (**not** fused).
    #[inline(always)]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        // Deliberately NOT vfmadd: the geometry kernels rely on two
        // roundings to match their scalar reference bit for bit.
        F32x8A(avx!(_mm256_add_ps(_mm256_mul_ps(self.0, b.0), c.0)))
    }

    /// Lane-wise `self / rhs` (IEEE: `±∞` on zero divisors, NaN on `0/0`).
    #[inline(always)]
    pub fn div(self, rhs: Self) -> Self {
        F32x8A(avx!(_mm256_div_ps(self.0, rhs.0)))
    }

    /// Lane-wise absolute value (clears the sign bit; `|NaN|` keeps its payload).
    #[inline(always)]
    pub fn abs(self) -> Self {
        F32x8A(avx!(_mm256_andnot_ps(_mm256_set1_ps(-0.0), self.0)))
    }

    /// Lane-wise minimum; the second operand (`rhs`) wins on unordered (NaN) or equal lanes.
    #[inline(always)]
    pub fn min(self, rhs: Self) -> Self {
        F32x8A(avx!(_mm256_min_ps(self.0, rhs.0)))
    }

    /// Lane-wise maximum; the second operand (`rhs`) wins on unordered (NaN) or equal lanes.
    #[inline(always)]
    pub fn max(self, rhs: Self) -> Self {
        F32x8A(avx!(_mm256_max_ps(self.0, rhs.0)))
    }

    /// Lane-wise `self < rhs` (false on NaN).
    #[inline(always)]
    pub fn simd_lt(self, rhs: Self) -> Mask8A {
        Mask8A(avx!(_mm256_cmp_ps::<_CMP_LT_OQ>(self.0, rhs.0)))
    }

    /// Lane-wise `self <= rhs` (false on NaN).
    #[inline(always)]
    pub fn simd_le(self, rhs: Self) -> Mask8A {
        Mask8A(avx!(_mm256_cmp_ps::<_CMP_LE_OQ>(self.0, rhs.0)))
    }

    /// Lane-wise `self >= rhs` (false on NaN).
    #[inline(always)]
    pub fn simd_ge(self, rhs: Self) -> Mask8A {
        Mask8A(avx!(_mm256_cmp_ps::<_CMP_GE_OQ>(self.0, rhs.0)))
    }

    /// Picks `self` where `mask` is true, `other` where false.
    #[inline(always)]
    pub fn select(self, mask: Mask8A, other: Self) -> Self {
        F32x8A(avx!(_mm256_blendv_ps(other.0, self.0, mask.0)))
    }

    /// Horizontal sum with the fixed `((a0+a2)+(a1+a3)) + ((a4+a6)+(a5+a7))` association.
    #[inline(always)]
    pub fn reduce_sum(self) -> f32 {
        let lo = avx!(_mm256_castps256_ps128(self.0));
        let hi = avx!(_mm256_extractf128_ps::<1>(self.0));
        reduce_sum_128(lo) + reduce_sum_128(hi)
    }
}

impl Mask8A {
    /// Mask with the first `n` lanes set (`n` clamped to 8) — the shape
    /// of a partially filled remainder packet. An index-compare against
    /// the splat of `n`, with no assumption about the register layout.
    #[inline(always)]
    pub fn first_n(n: usize) -> Self {
        let lanes = F32x8A::from_array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        lanes.simd_lt(F32x8A::splat(n.min(F32x8A::LANES) as f32))
    }

    /// Mask with every lane set to `b`.
    #[inline(always)]
    pub fn splat(b: bool) -> Self {
        if b {
            Mask8A(all_ones_256())
        } else {
            Mask8A(avx!(_mm256_setzero_ps()))
        }
    }

    /// Lane-wise AND.
    #[inline(always)]
    pub fn and(self, rhs: Self) -> Self {
        Mask8A(avx!(_mm256_and_ps(self.0, rhs.0)))
    }

    /// Lane-wise OR.
    #[inline(always)]
    pub fn or(self, rhs: Self) -> Self {
        Mask8A(avx!(_mm256_or_ps(self.0, rhs.0)))
    }

    /// Lane-wise NOT.
    #[inline(always)]
    pub fn not(self) -> Self {
        Mask8A(avx!(_mm256_andnot_ps(self.0, all_ones_256())))
    }

    /// One bit per lane, lane 0 in bit 0.
    #[inline(always)]
    pub fn bitmask(self) -> u8 {
        (avx!(_mm256_movemask_ps(self.0)) & 0xFF) as u8
    }

    /// `true` if any lane is set.
    #[inline(always)]
    pub fn any(self) -> bool {
        self.bitmask() != 0
    }

    /// `true` if every lane is set.
    #[inline(always)]
    pub fn all(self) -> bool {
        self.bitmask() == 0xFF
    }
}

impl F64x4A {
    /// Broadcasts `v` to all lanes.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        F64x4A(avx!(_mm256_set1_pd(v)))
    }

    /// Loads the lanes from an array (`a[0]` is lane 0).
    #[inline(always)]
    pub fn from_array(a: [f64; 4]) -> Self {
        F64x4A(avx!(_mm256_setr_pd(a[0], a[1], a[2], a[3])))
    }

    /// Stores the lanes to an array (`a[0]` is lane 0).
    #[inline(always)]
    pub fn to_array(self) -> [f64; 4] {
        let lo = avx!(_mm256_castpd256_pd128(self.0));
        let hi = avx!(_mm256_extractf128_pd::<1>(self.0));
        [
            avx!(_mm_cvtsd_f64(lo)),
            avx!(_mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo))),
            avx!(_mm_cvtsd_f64(hi)),
            avx!(_mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi))),
        ]
    }

    /// Lane-wise `self + rhs`.
    #[inline(always)]
    pub fn add(self, rhs: Self) -> Self {
        F64x4A(avx!(_mm256_add_pd(self.0, rhs.0)))
    }

    /// Lane-wise `self - rhs`.
    #[inline(always)]
    pub fn sub(self, rhs: Self) -> Self {
        F64x4A(avx!(_mm256_sub_pd(self.0, rhs.0)))
    }

    /// Lane-wise `self * rhs`.
    #[inline(always)]
    pub fn mul(self, rhs: Self) -> Self {
        F64x4A(avx!(_mm256_mul_pd(self.0, rhs.0)))
    }

    /// Lane-wise `self * b + c`, rounded twice (**not** fused).
    #[inline(always)]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        // Two roundings (see mul_add_fused for the fused variant the
        // phasor kernel uses).
        F64x4A(avx!(_mm256_add_pd(_mm256_mul_pd(self.0, b.0), c.0)))
    }

    /// Lane-wise **fused** `self * b + c` (single rounding, `vfmadd`).
    ///
    /// Fusion is confined to the phasor rotation; the geometry kernels
    /// keep the unfused [`Self::mul_add`].
    #[inline(always)]
    pub fn mul_add_fused(self, b: Self, c: Self) -> Self {
        F64x4A(avx!(_mm256_fmadd_pd(self.0, b.0, c.0)))
    }

    /// Lane-wise **fused** `self * b - c` (single rounding, `vfmsub`).
    #[inline(always)]
    pub fn mul_sub_fused(self, b: Self, c: Self) -> Self {
        F64x4A(avx!(_mm256_fmsub_pd(self.0, b.0, c.0)))
    }

    /// Lane-wise `self / rhs` (IEEE: `±∞` on zero divisors, NaN on `0/0`).
    #[inline(always)]
    pub fn div(self, rhs: Self) -> Self {
        F64x4A(avx!(_mm256_div_pd(self.0, rhs.0)))
    }

    /// Lane-wise absolute value (clears the sign bit; `|NaN|` keeps its payload).
    #[inline(always)]
    pub fn abs(self) -> Self {
        F64x4A(avx!(_mm256_andnot_pd(_mm256_set1_pd(-0.0), self.0)))
    }

    /// Lane-wise minimum; the second operand (`rhs`) wins on unordered (NaN) or equal lanes.
    #[inline(always)]
    pub fn min(self, rhs: Self) -> Self {
        F64x4A(avx!(_mm256_min_pd(self.0, rhs.0)))
    }

    /// Lane-wise maximum; the second operand (`rhs`) wins on unordered (NaN) or equal lanes.
    #[inline(always)]
    pub fn max(self, rhs: Self) -> Self {
        F64x4A(avx!(_mm256_max_pd(self.0, rhs.0)))
    }

    /// Lane-wise `self < rhs` (false on NaN).
    #[inline(always)]
    pub fn simd_lt(self, rhs: Self) -> MaskD4A {
        MaskD4A(avx!(_mm256_cmp_pd::<_CMP_LT_OQ>(self.0, rhs.0)))
    }

    /// Lane-wise `self <= rhs` (false on NaN).
    #[inline(always)]
    pub fn simd_le(self, rhs: Self) -> MaskD4A {
        MaskD4A(avx!(_mm256_cmp_pd::<_CMP_LE_OQ>(self.0, rhs.0)))
    }

    /// Lane-wise `self >= rhs` (false on NaN).
    #[inline(always)]
    pub fn simd_ge(self, rhs: Self) -> MaskD4A {
        MaskD4A(avx!(_mm256_cmp_pd::<_CMP_GE_OQ>(self.0, rhs.0)))
    }

    /// Picks `self` where `mask` is true, `other` where false.
    #[inline(always)]
    pub fn select(self, mask: MaskD4A, other: Self) -> Self {
        F64x4A(avx!(_mm256_blendv_pd(other.0, self.0, mask.0)))
    }
}

impl MaskD4A {
    /// Mask with every lane set to `b`.
    #[inline(always)]
    pub fn splat(b: bool) -> Self {
        if b {
            MaskD4A(all_ones_256d())
        } else {
            MaskD4A(avx!(_mm256_setzero_pd()))
        }
    }

    /// Lane-wise AND.
    #[inline(always)]
    pub fn and(self, rhs: Self) -> Self {
        MaskD4A(avx!(_mm256_and_pd(self.0, rhs.0)))
    }

    /// Lane-wise OR.
    #[inline(always)]
    pub fn or(self, rhs: Self) -> Self {
        MaskD4A(avx!(_mm256_or_pd(self.0, rhs.0)))
    }

    /// Lane-wise NOT.
    #[inline(always)]
    pub fn not(self) -> Self {
        MaskD4A(avx!(_mm256_andnot_pd(self.0, all_ones_256d())))
    }

    /// One bit per lane, lane 0 in bit 0.
    #[inline(always)]
    pub fn bitmask(self) -> u8 {
        (avx!(_mm256_movemask_pd(self.0)) & 0xF) as u8
    }

    /// `true` if any lane is set.
    #[inline(always)]
    pub fn any(self) -> bool {
        self.bitmask() != 0
    }

    /// `true` if every lane is set.
    #[inline(always)]
    pub fn all(self) -> bool {
        self.bitmask() == 0xF
    }
}

/// AVX2+FMA arm of [`phasor::sum_and_advance`](super::phasor::sum_and_advance).
///
/// The *sums* are bit-identical to the scalar arm: vector lane `j`
/// accumulates exactly the indices `i ≡ j (mod 4)` in ascending order —
/// the same buckets, in the same order, as the scalar arm's `ACC_LANES`
/// partial sums — and the final fold uses the same
/// `(s0+s2) + (s1+s3)` association. Only the *rotation* differs: it is
/// fused (`vfmsub`/`vfmadd`, one rounding instead of two), and the
/// scalar tail matches that fused semantics exactly via
/// `f64::mul_add`. See [`phasor`](super::phasor) for the resulting ULP
/// budget.
///
/// # Safety
/// Requires the `avx2` and `fma` CPU features; callers must have
/// checked [`avx2_available`](super::avx2_available) (the
/// `Backend::Avx2` dispatch arm does).
///
/// # Panics
/// Panics if the slice lengths differ.
#[target_feature(enable = "avx2,fma")]
pub(super) unsafe fn sum_and_advance(
    re: &mut [f64],
    im: &mut [f64],
    dre: &[f64],
    dim: &[f64],
) -> (f64, f64) {
    let n = re.len();
    assert!(im.len() == n && dre.len() == n && dim.len() == n);
    let mut sr = F64x4A::splat(0.0);
    let mut si = F64x4A::splat(0.0);
    let mut i = 0;
    while i + 4 <= n {
        let r = F64x4A::from_array(re[i..i + 4].try_into().unwrap());
        let m = F64x4A::from_array(im[i..i + 4].try_into().unwrap());
        let dr = F64x4A::from_array(dre[i..i + 4].try_into().unwrap());
        let dm = F64x4A::from_array(dim[i..i + 4].try_into().unwrap());
        sr = sr.add(r);
        si = si.add(m);
        let re2 = r.mul_sub_fused(dr, m.mul(dm));
        let im2 = r.mul_add_fused(dm, m.mul(dr));
        re[i..i + 4].copy_from_slice(&re2.to_array());
        im[i..i + 4].copy_from_slice(&im2.to_array());
        i += 4;
    }
    let mut srl = sr.to_array();
    let mut sil = si.to_array();
    while i < n {
        let (r, m) = (re[i], im[i]);
        srl[i % 4] += r;
        sil[i % 4] += m;
        re[i] = r.mul_add(dre[i], -(m * dim[i]));
        im[i] = r.mul_add(dim[i], m * dre[i]);
        i += 1;
    }
    (
        (srl[0] + srl[2]) + (srl[1] + srl[3]),
        (sil[0] + sil[2]) + (sil[1] + sil[3]),
    )
}

/// AVX2+FMA arm of
/// [`phasor::weighted_sum_and_advance`](super::phasor::weighted_sum_and_advance).
///
/// Weighted sums stay bit-identical to the scalar arm (the
/// `w[i] * value` product is a plain lane multiply followed by a plain
/// add — two roundings, exactly like the scalar `sr[j] += r * w[i]`);
/// only the rotation is fused, as in [`sum_and_advance`].
///
/// # Safety
/// Same contract as [`sum_and_advance`].
///
/// # Panics
/// Panics if the slice lengths differ.
#[target_feature(enable = "avx2,fma")]
pub(super) unsafe fn weighted_sum_and_advance(
    re: &mut [f64],
    im: &mut [f64],
    dre: &[f64],
    dim: &[f64],
    w: &[f64],
) -> (f64, f64) {
    let n = re.len();
    assert!(im.len() == n && dre.len() == n && dim.len() == n && w.len() == n);
    let mut sr = F64x4A::splat(0.0);
    let mut si = F64x4A::splat(0.0);
    let mut i = 0;
    while i + 4 <= n {
        let r = F64x4A::from_array(re[i..i + 4].try_into().unwrap());
        let m = F64x4A::from_array(im[i..i + 4].try_into().unwrap());
        let dr = F64x4A::from_array(dre[i..i + 4].try_into().unwrap());
        let dm = F64x4A::from_array(dim[i..i + 4].try_into().unwrap());
        let wv = F64x4A::from_array(w[i..i + 4].try_into().unwrap());
        sr = sr.add(r.mul(wv));
        si = si.add(m.mul(wv));
        let re2 = r.mul_sub_fused(dr, m.mul(dm));
        let im2 = r.mul_add_fused(dm, m.mul(dr));
        re[i..i + 4].copy_from_slice(&re2.to_array());
        im[i..i + 4].copy_from_slice(&im2.to_array());
        i += 4;
    }
    let mut srl = sr.to_array();
    let mut sil = si.to_array();
    while i < n {
        let (r, m) = (re[i], im[i]);
        srl[i % 4] += r * w[i];
        sil[i % 4] += m * w[i];
        re[i] = r.mul_add(dre[i], -(m * dim[i]));
        im[i] = r.mul_add(dim[i], m * dre[i]);
        i += 1;
    }
    (
        (srl[0] + srl[2]) + (srl[1] + srl[3]),
        (sil[0] + sil[2]) + (sil[1] + sil[3]),
    )
}
