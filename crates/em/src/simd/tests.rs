use super::*;

/// Lane tests for the native AVX2 types, checked against per-lane scalar
/// reference expressions: the lane semantics the geometry kernels need
/// to reproduce their scalar reference loops bit for bit. Each test
/// returns early on hosts without AVX2+FMA, where the types are never
/// dispatched.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::super::avx2::{F32x8A, F64x4A, Mask8A, MaskD4A};
    use super::super::avx2_available;

    const A: [f32; 8] = [1.0, -2.5, 3.25, 0.0, 7.5, -0.125, 42.0, 1e-3];
    const B: [f32; 8] = [0.5, 2.5, -3.25, 1.0, -7.5, 0.25, 41.0, 2e-3];

    const AD: [f64; 4] = [1.0, -2.5, 3.25, 1e-3];
    const BD: [f64; 4] = [0.5, 2.5, -3.25, 2e-3];

    /// Per-lane scalar reference of the lane semantics.
    mod reference {
        /// SSE operand-order `min`: the second operand wins on unordered
        /// (NaN) or equal lanes.
        pub fn min<T: PartialOrd>(a: T, b: T) -> T {
            if a < b {
                a
            } else {
                b
            }
        }

        /// SSE operand-order `max` (see [`min`]).
        pub fn max<T: PartialOrd>(a: T, b: T) -> T {
            if a > b {
                a
            } else {
                b
            }
        }

        /// The fixed eight-lane `reduce_sum` association.
        pub fn reduce_sum(a: [f32; 8]) -> f32 {
            ((a[0] + a[2]) + (a[1] + a[3])) + ((a[4] + a[6]) + (a[5] + a[7]))
        }
    }

    #[test]
    fn roundtrip_and_splat() {
        if !avx2_available() {
            return;
        }
        assert_eq!(F32x8A::from_array(A).to_array(), A);
        assert_eq!(F32x8A::splat(2.5).to_array(), [2.5; 8]);
        assert_eq!(F64x4A::from_array(AD).to_array(), AD);
        assert_eq!(F64x4A::splat(0.75).to_array(), [0.75; 4]);
    }

    #[test]
    fn lanewise_arithmetic() {
        if !avx2_available() {
            return;
        }
        let a = F32x8A::from_array(A);
        let b = F32x8A::from_array(B);
        for i in 0..8 {
            assert_eq!(a.add(b).to_array()[i], A[i] + B[i]);
            assert_eq!(a.sub(b).to_array()[i], A[i] - B[i]);
            assert_eq!(a.mul(b).to_array()[i], A[i] * B[i]);
            assert_eq!(a.mul_add(b, a).to_array()[i], A[i] * B[i] + A[i]);
        }
        let ad = F64x4A::from_array(AD);
        let bd = F64x4A::from_array(BD);
        for i in 0..4 {
            assert_eq!(ad.add(bd).to_array()[i], AD[i] + BD[i]);
            assert_eq!(ad.sub(bd).to_array()[i], AD[i] - BD[i]);
            assert_eq!(ad.mul(bd).to_array()[i], AD[i] * BD[i]);
            assert_eq!(ad.mul_add(bd, ad).to_array()[i], AD[i] * BD[i] + AD[i]);
            assert_eq!(ad.div(bd).to_array()[i], AD[i] / BD[i]);
            assert_eq!(ad.abs().to_array()[i], AD[i].abs());
        }
    }

    #[test]
    fn div_and_abs_are_lanewise_ieee() {
        if !avx2_available() {
            return;
        }
        let a = F32x8A::from_array(A);
        let b = F32x8A::from_array(B);
        for i in 0..8 {
            assert_eq!(a.div(b).to_array()[i], A[i] / B[i]);
            assert_eq!(a.abs().to_array()[i], A[i].abs());
        }
        // Division by zero and 0/0 follow IEEE semantics.
        let num = F32x8A::from_array([1.0, -1.0, 0.0, 4.0, 1.0, -1.0, 0.0, 4.0]);
        let den = F32x8A::from_array([0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 2.0]);
        let q = num.div(den).to_array();
        for h in [0, 4] {
            assert_eq!(q[h], f32::INFINITY);
            assert_eq!(q[h + 1], f32::NEG_INFINITY);
            assert!(q[h + 2].is_nan());
            assert_eq!(q[h + 3], 2.0);
        }
        // abs clears the sign bit, including on -0.0 and NaN.
        let x = F32x8A::from_array([-0.0, -3.5, f32::NEG_INFINITY, f32::NAN, 0.0, 1.0, 2.0, 3.0]);
        let ax = x.abs().to_array();
        assert_eq!(ax[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(ax[1], 3.5);
        assert_eq!(ax[2], f32::INFINITY);
        assert!(ax[3].is_nan());
        // Same IEEE behaviour on the f64 lanes.
        let qd = F64x4A::from_array([1.0, 0.0, -1.0, 4.0])
            .div(F64x4A::from_array([0.0, 0.0, 0.0, 2.0]))
            .to_array();
        assert_eq!(qd[0], f64::INFINITY);
        assert!(qd[1].is_nan());
        assert_eq!(qd[2], f64::NEG_INFINITY);
        assert_eq!(qd[3], 2.0);
        let xd = F64x4A::from_array([-0.0, -3.5, f64::NEG_INFINITY, f64::NAN]);
        let axd = xd.abs().to_array();
        assert_eq!(axd[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(axd[1], 3.5);
        assert_eq!(axd[2], f64::INFINITY);
        assert!(axd[3].is_nan());
    }

    #[test]
    fn min_max_follow_sse_operand_order_on_nan() {
        if !avx2_available() {
            return;
        }
        let nan = f32::NAN;
        let a = F32x8A::from_array([nan, 1.0, 2.0, nan, 0.0, -0.0, 3.0, nan]);
        let b = F32x8A::from_array([5.0, nan, 1.0, nan, -0.0, 0.0, 3.0, 1.0]);
        let min = a.min(b).to_array();
        let max = a.max(b).to_array();
        // Unordered lanes take the second operand.
        assert_eq!(min[0], 5.0);
        assert!(min[1].is_nan());
        assert_eq!(min[2], 1.0);
        assert!(min[3].is_nan());
        assert_eq!(max[0], 5.0);
        assert!(max[1].is_nan());
        assert_eq!(max[2], 2.0);
        assert!(max[3].is_nan());
        // Equal lanes (±0) take the second operand too.
        assert_eq!(min[4].to_bits(), (-0.0f32).to_bits());
        assert_eq!(min[5].to_bits(), 0.0f32.to_bits());
        assert_eq!(max[4].to_bits(), (-0.0f32).to_bits());
        let (aa, ba) = (a.to_array(), b.to_array());
        for i in 0..8 {
            let (rmin, rmax) = (reference::min(aa[i], ba[i]), reference::max(aa[i], ba[i]));
            assert_eq!(min[i].to_bits(), rmin.to_bits(), "min lane {i}");
            assert_eq!(max[i].to_bits(), rmax.to_bits(), "max lane {i}");
        }
        // f64 lanes follow the same minpd/maxpd operand-order rule.
        let nd = f64::NAN;
        let ad = [nd, 1.0, 2.0, nd];
        let bd = [5.0, nd, 1.0, nd];
        let mind = F64x4A::from_array(ad)
            .min(F64x4A::from_array(bd))
            .to_array();
        let maxd = F64x4A::from_array(ad)
            .max(F64x4A::from_array(bd))
            .to_array();
        assert_eq!(mind[0], 5.0);
        assert!(mind[1].is_nan());
        assert_eq!(mind[2], 1.0);
        assert!(mind[3].is_nan());
        assert_eq!(maxd[0], 5.0);
        assert!(maxd[1].is_nan());
        assert_eq!(maxd[2], 2.0);
        assert!(maxd[3].is_nan());
        for i in 0..4 {
            assert_eq!(mind[i].to_bits(), reference::min(ad[i], bd[i]).to_bits());
            assert_eq!(maxd[i].to_bits(), reference::max(ad[i], bd[i]).to_bits());
        }
    }

    #[test]
    fn compares_and_masks() {
        if !avx2_available() {
            return;
        }
        let a = F32x8A::from_array(A);
        let b = F32x8A::from_array(B);
        let lt = a.simd_lt(b);
        let le = a.simd_le(b);
        let ge = a.simd_ge(b);
        for i in 0..8 {
            assert_eq!(lt.bitmask() & (1 << i) != 0, A[i] < B[i], "lane {i}");
            assert_eq!(le.bitmask() & (1 << i) != 0, A[i] <= B[i], "lane {i}");
            assert_eq!(ge.bitmask() & (1 << i) != 0, A[i] >= B[i], "lane {i}");
        }
        assert_eq!(lt.or(ge).bitmask(), 0xFF); // no NaNs in A/B
        assert_eq!(lt.and(lt.not()).bitmask(), 0);
        assert!(lt.or(ge).all());
        assert!(!Mask8A::splat(false).any());
        assert!(Mask8A::splat(true).all());
        // f64 masks.
        let ad = F64x4A::from_array(AD);
        let bd = F64x4A::from_array(BD);
        let ltd = ad.simd_lt(bd);
        let ged = ad.simd_ge(bd);
        for i in 0..4 {
            assert_eq!(ltd.bitmask() & (1 << i) != 0, AD[i] < BD[i], "lane {i}");
            assert_eq!(ged.bitmask() & (1 << i) != 0, AD[i] >= BD[i], "lane {i}");
        }
        assert_eq!(ltd.or(ged).bitmask(), 0xF);
        assert_eq!(ltd.and(ltd.not()).bitmask(), 0);
        assert!(ltd.or(ged).all());
        assert!(!MaskD4A::splat(false).any());
        assert!(MaskD4A::splat(true).all());
    }

    #[test]
    fn compares_are_false_on_nan() {
        if !avx2_available() {
            return;
        }
        let nan = f32::NAN;
        let a = F32x8A::from_array([nan, 0.0, nan, 1.0, -1.0, nan, 0.0, nan]);
        let b = F32x8A::splat(0.0);
        assert_eq!(a.simd_lt(b).bitmask(), 0b0001_0000);
        assert_eq!(a.simd_le(b).bitmask(), 0b0101_0010);
        assert_eq!(a.simd_ge(b).bitmask(), 0b0100_1010);
        let ad = F64x4A::from_array([f64::NAN, 0.0, f64::NAN, 1.0]);
        let bd = F64x4A::splat(0.0);
        assert_eq!(ad.simd_lt(bd).bitmask(), 0b0000);
        assert_eq!(ad.simd_le(bd).bitmask(), 0b0010);
        assert_eq!(ad.simd_ge(bd).bitmask(), 0b1010);
    }

    #[test]
    fn select_blends_per_lane() {
        if !avx2_available() {
            return;
        }
        let a = F32x8A::from_array(A);
        let b = F32x8A::from_array(B);
        let out = a.select(a.simd_lt(b), b).to_array();
        for i in 0..8 {
            assert_eq!(out[i], if A[i] < B[i] { A[i] } else { B[i] });
        }
        let ad = F64x4A::from_array(AD);
        let bd = F64x4A::from_array(BD);
        let outd = ad.select(ad.simd_lt(bd), bd).to_array();
        for i in 0..4 {
            assert_eq!(outd[i], if AD[i] < BD[i] { AD[i] } else { BD[i] });
        }
    }

    #[test]
    fn first_n_masks_lead_lanes() {
        if !avx2_available() {
            return;
        }
        for n in 0..=9usize {
            let expect = if n >= 8 { 0xFF } else { (1u16 << n) as u8 - 1 };
            assert_eq!(Mask8A::first_n(n).bitmask(), expect, "first_n({n})");
        }
        assert_eq!(Mask8A::first_n(99).bitmask(), 0b1111_1111);
    }

    #[test]
    fn reductions_match_documented_association() {
        if !avx2_available() {
            return;
        }
        // Chosen so that any other association rounds differently.
        let v = [1.0, 1e-8, -1.0, 2.0, 1e8, 3.0, -1e8, 1e-8];
        assert_ne!(reference::reduce_sum(v), v.iter().sum::<f32>());
        assert_eq!(
            F32x8A::from_array(v).reduce_sum().to_bits(),
            reference::reduce_sum(v).to_bits()
        );
        assert_eq!(
            F32x8A::from_array(A).reduce_sum().to_bits(),
            reference::reduce_sum(A).to_bits()
        );
    }

    /// `mul_add` must round twice — it is NOT a fused multiply-add. These
    /// operands make the two differ: `a·b` rounds to exactly 1.0, so the
    /// unfused result is 0.0 while the fused result keeps the residual.
    #[test]
    fn mul_add_is_unfused_on_every_lane_type() {
        if !avx2_available() {
            return;
        }
        let a32 = 1.0f32 + 2.0f32.powi(-13);
        let b32 = 1.0f32 - 2.0f32.powi(-13);
        let unfused32 = a32 * b32 + (-1.0f32);
        assert_ne!(
            unfused32,
            a32.mul_add(b32, -1.0),
            "operands must distinguish fma"
        );
        let v = F32x8A::splat(a32).mul_add(F32x8A::splat(b32), F32x8A::splat(-1.0));
        for lane in v.to_array() {
            assert_eq!(lane, unfused32);
        }

        let a64 = 1.0f64 + 2.0f64.powi(-30);
        let b64 = 1.0f64 - 2.0f64.powi(-30);
        let unfused64 = a64 * b64 + (-1.0f64);
        assert_ne!(
            unfused64,
            a64.mul_add(b64, -1.0),
            "operands must distinguish fma"
        );
        let d = F64x4A::splat(a64).mul_add(F64x4A::splat(b64), F64x4A::splat(-1.0));
        for lane in d.to_array() {
            assert_eq!(lane, unfused64);
        }
        // The explicitly fused variant is the single-rounded one.
        let f = F64x4A::splat(a64).mul_add_fused(F64x4A::splat(b64), F64x4A::splat(-1.0));
        for lane in f.to_array() {
            assert_eq!(lane, a64.mul_add(b64, -1.0));
        }
    }

    /// Every lane op must agree bit-for-bit with its per-lane scalar
    /// reference expression — the property the geometry kernels rely on
    /// to match their scalar dispatch arm.
    #[test]
    fn avx2_lanes_bit_identical_to_scalar_reference() {
        if !avx2_available() {
            return;
        }
        let nan = f32::NAN;
        let cases32 = [
            A,
            B,
            [0.0, -0.0, 1e-30, -1e30, 0.5, 2.0, -3.5, 9.75],
            [nan, 1.0, -0.0, nan, f32::INFINITY, -1.0, 0.0, 3.0],
        ];
        for a in cases32 {
            for b in cases32 {
                let (va, vb) = (F32x8A::from_array(a), F32x8A::from_array(b));
                let eq = |v: F32x8A, f: &dyn Fn(f32, f32) -> f32| {
                    for (i, x) in v.to_array().into_iter().enumerate() {
                        let want = f(a[i], b[i]);
                        // NaN payloads are not part of the contract.
                        assert!(
                            x.to_bits() == want.to_bits() || (x.is_nan() && want.is_nan()),
                            "lane {i}: {x} vs {want}"
                        );
                    }
                };
                eq(va.add(vb), &|x, y| x + y);
                eq(va.sub(vb), &|x, y| x - y);
                eq(va.mul(vb), &|x, y| x * y);
                eq(va.mul_add(vb, va), &|x, y| x * y + x);
                eq(va.div(vb), &|x, y| x / y);
                eq(va.min(vb), &reference::min);
                eq(va.max(vb), &reference::max);
                let bits = |f: &dyn Fn(f32, f32) -> bool| {
                    (0..8).fold(0u8, |m, i| m | (u8::from(f(a[i], b[i])) << i))
                };
                assert_eq!(va.simd_lt(vb).bitmask(), bits(&|x, y| x < y));
                assert_eq!(va.simd_le(vb).bitmask(), bits(&|x, y| x <= y));
                assert_eq!(va.simd_ge(vb).bitmask(), bits(&|x, y| x >= y));
                let (s, r) = (va.reduce_sum(), reference::reduce_sum(a));
                assert!(s.to_bits() == r.to_bits() || (s.is_nan() && r.is_nan()));
            }
        }
        let nd = f64::NAN;
        let cases64 = [AD, BD, [0.0, -0.0, 1e-300, -1e300], [nd, 1.0, -0.0, nd]];
        for a in cases64 {
            for b in cases64 {
                let (va, vb) = (F64x4A::from_array(a), F64x4A::from_array(b));
                let eq = |v: F64x4A, f: &dyn Fn(f64, f64) -> f64| {
                    for (i, x) in v.to_array().into_iter().enumerate() {
                        let want = f(a[i], b[i]);
                        assert!(
                            x.to_bits() == want.to_bits() || (x.is_nan() && want.is_nan()),
                            "lane {i}: {x} vs {want}"
                        );
                    }
                };
                eq(va.add(vb), &|x, y| x + y);
                eq(va.sub(vb), &|x, y| x - y);
                eq(va.mul(vb), &|x, y| x * y);
                eq(va.mul_add(vb, va), &|x, y| x * y + x);
                eq(va.div(vb), &|x, y| x / y);
                eq(va.min(vb), &reference::min);
                eq(va.max(vb), &reference::max);
                let bits = |f: &dyn Fn(f64, f64) -> bool| {
                    (0..4).fold(0u8, |m, i| m | (u8::from(f(a[i], b[i])) << i))
                };
                assert_eq!(va.simd_lt(vb).bitmask(), bits(&|x, y| x < y));
                assert_eq!(va.simd_le(vb).bitmask(), bits(&|x, y| x <= y));
                assert_eq!(va.simd_ge(vb).bitmask(), bits(&|x, y| x >= y));
            }
        }
    }
}

#[test]
fn backend_dispatch_is_stable_and_legal() {
    let b = backend();
    // The decision is cached: repeated calls agree.
    assert_eq!(backend(), b);
    if b == Backend::Avx2 {
        assert!(avx2_available());
    }
    assert_eq!(Backend::Scalar.name(), "scalar");
    assert_eq!(Backend::Avx2.name(), "avx2");
    assert!(Backend::Avx2.fuses_rotation());
    assert!(!Backend::Scalar.fuses_rotation());
}

#[test]
fn surfos_simd_override_is_parsed_against_the_detected_arm() {
    for detected in [Backend::Scalar, Backend::Avx2] {
        assert_eq!(choose(detected, Some("scalar")), Backend::Scalar);
        // `avx2` is honoured only where it was detected.
        assert_eq!(choose(detected, Some("avx2")), detected);
        // The removed SSE2 arm's value and unknown values fall back to
        // the detected arm. (Spelled via `to_ascii_lowercase` so source
        // searches for the removed arm's name only find live references.)
        let removed = "SSE2".to_ascii_lowercase();
        for ignored in [removed.as_str(), "AVX2", "", "garbage"] {
            assert_eq!(choose(detected, Some(ignored)), detected, "{ignored:?}");
        }
        assert_eq!(choose(detected, None), detected);
    }
}

#[test]
fn phasor_rotation_matches_complex_multiply() {
    use crate::complex::Complex;
    let n = 13; // deliberately not a multiple of ACC_LANES
    let mut vals: Vec<Complex> = (0..n)
        .map(|i| Complex::from_polar(1.0, 0.37 * i as f64))
        .collect();
    let deltas: Vec<Complex> = (0..n)
        .map(|i| Complex::from_polar(1.0, -0.11 * i as f64))
        .collect();
    let mut re: Vec<f64> = vals.iter().map(|c| c.re).collect();
    let mut im: Vec<f64> = vals.iter().map(|c| c.im).collect();
    let dre: Vec<f64> = deltas.iter().map(|c| c.re).collect();
    let dim: Vec<f64> = deltas.iter().map(|c| c.im).collect();
    for _ in 0..50 {
        let scalar_sum: Complex = vals.iter().copied().fold(Complex::ZERO, |a, c| a + c);
        // The scalar arm pins the rotation bit-identically to the
        // Complex multiply; the avx2 arm fuses it (covered by
        // avx2_phasor_matches_scalar_within_fused_budget).
        let (sr, si) = phasor::sum_and_advance_with(Backend::Scalar, &mut re, &mut im, &dre, &dim);
        // Reassociated sum: tiny absolute deviation, not bit equality.
        assert!((sr - scalar_sum.re).abs() < 1e-12);
        assert!((si - scalar_sum.im).abs() < 1e-12);
        for (v, d) in vals.iter_mut().zip(&deltas) {
            *v *= *d;
        }
        // Rotation itself is pinned bit-identically.
        for i in 0..n {
            assert_eq!(re[i], vals[i].re, "re lane {i}");
            assert_eq!(im[i], vals[i].im, "im lane {i}");
        }
    }
}

/// The AVX2 phasor kernel: sums bit-identical to the scalar arm,
/// rotation bit-identical to the *fused* scalar formula, and the
/// fused/unfused divergence bounded by the documented budget
/// (≤ k·2⁻⁵² absolute per component after k steps on unit phasors).
#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_phasor_matches_scalar_within_fused_budget() {
    if !avx2_available() {
        return;
    }
    for n in [1usize, 4, 7, 13, 64] {
        let mk = |phase: f64| {
            let re: Vec<f64> = (0..n).map(|i| (phase * i as f64).cos()).collect();
            let im: Vec<f64> = (0..n).map(|i| (phase * i as f64).sin()).collect();
            (re, im)
        };
        let dre: Vec<f64> = (0..n).map(|i| (-0.11 * i as f64).cos()).collect();
        let dim: Vec<f64> = (0..n).map(|i| (-0.11 * i as f64).sin()).collect();
        let (mut re_p, mut im_p) = mk(0.37);
        let (mut re_v, mut im_v) = mk(0.37);
        // Fused-scalar reference state advanced with f64::mul_add.
        let (mut re_f, mut im_f) = mk(0.37);
        let steps = 50;
        for step in 0..steps {
            let p = phasor::sum_and_advance_with(Backend::Scalar, &mut re_p, &mut im_p, &dre, &dim);
            let v = phasor::sum_and_advance_with(Backend::Avx2, &mut re_v, &mut im_v, &dre, &dim);
            // Sums are over the *pre-advance* state, which diverges by
            // the fused-rotation budget; at the first step the states
            // are identical, so the sums must be bit-identical.
            if step == 0 {
                assert_eq!(p.0.to_bits(), v.0.to_bits());
                assert_eq!(p.1.to_bits(), v.1.to_bits());
            } else {
                let budget = (step * n) as f64 * 2.0f64.powi(-50);
                assert!((p.0 - v.0).abs() <= budget, "sum re diverged past budget");
                assert!((p.1 - v.1).abs() <= budget, "sum im diverged past budget");
            }
            // The avx2 rotation is pinned bit-identically to the
            // fused-scalar formula.
            for i in 0..n {
                let (r, m) = (re_f[i], im_f[i]);
                re_f[i] = r.mul_add(dre[i], -(m * dim[i]));
                im_f[i] = r.mul_add(dim[i], m * dre[i]);
            }
            assert_eq!(re_v, re_f, "fused rotation drifted from reference");
            assert_eq!(im_v, im_f, "fused rotation drifted from reference");
            // And the fused/unfused states stay within the documented
            // per-step ULP budget.
            let budget = (step + 1) as f64 * 2.0f64.powi(-50);
            for i in 0..n {
                assert!((re_p[i] - re_v[i]).abs() <= budget, "lane {i} re");
                assert!((im_p[i] - im_v[i]).abs() <= budget, "lane {i} im");
            }
        }
    }
}

#[test]
fn weighted_phasor_sum_applies_real_scales() {
    let mut re = vec![1.0, 0.0, -1.0];
    let mut im = vec![0.0, 1.0, 0.0];
    let dre = vec![1.0; 3];
    let dim = vec![0.0; 3];
    let w = vec![2.0, 3.0, 5.0];
    let (sr, si) = phasor::weighted_sum_and_advance(&mut re, &mut im, &dre, &dim, &w);
    assert_eq!(sr, (1.0 * 2.0 - 1.0 * 5.0) + 0.0);
    assert_eq!(si, 3.0);
    // Identity rotation leaves the phasors unchanged.
    assert_eq!(re, vec![1.0, 0.0, -1.0]);
    assert_eq!(im, vec![0.0, 1.0, 0.0]);
}

/// Weighted sums are bit-identical across both arms (the weighting is
/// unfused mul-then-add everywhere); only the rotation may fuse.
#[cfg(target_arch = "x86_64")]
#[test]
fn avx2_weighted_sums_bit_identical_on_first_step() {
    if !avx2_available() {
        return;
    }
    let n = 13;
    let re0: Vec<f64> = (0..n).map(|i| (0.41 * i as f64).cos()).collect();
    let im0: Vec<f64> = (0..n).map(|i| (0.41 * i as f64).sin()).collect();
    let dre: Vec<f64> = (0..n).map(|i| (-0.05 * i as f64).cos()).collect();
    let dim: Vec<f64> = (0..n).map(|i| (-0.05 * i as f64).sin()).collect();
    let w: Vec<f64> = (0..n).map(|i| 0.25 + 0.5 * i as f64).collect();
    let (mut re_p, mut im_p) = (re0.clone(), im0.clone());
    let (mut re_v, mut im_v) = (re0, im0);
    let p = phasor::weighted_sum_and_advance_with(
        Backend::Scalar,
        &mut re_p,
        &mut im_p,
        &dre,
        &dim,
        &w,
    );
    let v =
        phasor::weighted_sum_and_advance_with(Backend::Avx2, &mut re_v, &mut im_v, &dre, &dim, &w);
    assert_eq!(p.0.to_bits(), v.0.to_bits());
    assert_eq!(p.1.to_bits(), v.1.to_bits());
}
