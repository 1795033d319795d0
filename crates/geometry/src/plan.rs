//! Floor plans: walls plus named room regions, and propagation queries.
//!
//! The [`FloorPlan`] is the environment model the channel simulator takes as
//! input (the paper's "3D environment model"). It answers the two queries
//! ray tracing needs:
//!
//! - which walls does a segment cross (→ penetration loss), and
//! - is there line of sight between two points.

#[cfg(target_arch = "x86_64")]
use crate::bvh::SegmentPacket;
use crate::bvh::{Aabb, Bvh};
use crate::material::Material;
use crate::vec3::Vec3;
use crate::wall::Wall;
use surfos_em::band::Band;
#[cfg(target_arch = "x86_64")]
use surfos_em::simd::avx2::{F32x8A, F64x4A};
use surfos_em::simd::Backend;

/// Conservative padding on wall bounding boxes: `intersect_segment` accepts
/// crossings up to the 1 mm graze margin beyond a wall's footprint ends, so
/// boxes grow by 2 mm to keep every acceptable crossing point strictly
/// inside (no floating-point edge cases on box faces).
const WALL_AABB_PAD: f64 = 2e-3;

/// A spatial index over a [`FloorPlan`]'s walls: a [`Bvh`] over padded wall
/// boxes plus the per-wall graze margins, so candidate tests skip both the
/// `O(walls)` scan and the per-wall square root.
///
/// Built by [`FloorPlan::build_wall_index`] and valid until the wall set
/// changes; the indexed queries (`*_with`) are bit-identical to their brute
/// counterparts on the plan the index was built from.
#[derive(Debug, Clone, Default)]
pub struct WallIndex {
    bvh: Bvh,
    u_margins: Vec<f64>,
    /// Per-wall intersection operands in the tree's *slot* order, so the
    /// packet-candidate loops read them sequentially within each leaf
    /// instead of chasing the scattered `Wall` structs.
    soa: Vec<WallSoa>,
    /// The same operands as `soa`, columnar (still slot order), for the
    /// four-lane `f64` crossing solve in the batch queries.
    bank: WallBank,
    /// Reflection-geometry operands in *wall* order for the vectorized
    /// specular prefilter.
    spec: SpecularBank,
}

/// Lane width the specular bank is padded to.
const SPEC_LANES: usize = 8;

/// Margin coefficient for the prefilter's interval arithmetic: ~160× the
/// `f32` unit roundoff, so a handful of chained operations stay far inside
/// the bound while the filter still rejects everything that isn't within
/// ~1e-5 relative of a specular acceptance boundary.
const SPEC_EPS: f32 = 1e-5;

/// Per-wall specular-reflection operands in **wall order**, flattened to
/// `f32` rows padded to a multiple of [`SPEC_LANES`] so
/// [`WallIndex::specular_candidates`] streams them eight walls at a time.
/// Padding rows are all-zero, which the filter conservatively keeps and the
/// caller-side index bound discards.
#[derive(Debug, Clone, Default)]
struct SpecularBank {
    /// Wall anchor `a` (plan view).
    ax: Vec<f32>,
    ay: Vec<f32>,
    /// Wall direction `s = b − a`.
    sx: Vec<f32>,
    sy: Vec<f32>,
    /// Unnormalized wall normal `ñ = (−s.y, s.x)`; sign convention is
    /// irrelevant because every use is either sign-symmetric or squared.
    nx: Vec<f32>,
    ny: Vec<f32>,
    /// `1 / |s|²`.
    inv_l2: Vec<f32>,
    height: Vec<f32>,
    /// `|ñ.x| + |ñ.y|` — normal magnitude scale for error bounds.
    nmag: Vec<f32>,
    /// `|a.x| + |a.y|` — anchor magnitude scale for error bounds.
    amag: Vec<f32>,
}

impl SpecularBank {
    fn new(walls: &[Wall]) -> Self {
        let mut b = SpecularBank::default();
        for w in walls {
            let sx = w.b.x - w.a.x;
            let sy = w.b.y - w.a.y;
            b.ax.push(w.a.x as f32);
            b.ay.push(w.a.y as f32);
            b.sx.push(sx as f32);
            b.sy.push(sy as f32);
            b.nx.push(-sy as f32);
            b.ny.push(sx as f32);
            b.inv_l2.push((1.0 / (sx * sx + sy * sy)) as f32);
            b.height.push(w.height as f32);
            b.nmag.push((sy.abs() + sx.abs()) as f32);
            b.amag.push((w.a.x.abs() + w.a.y.abs()) as f32);
        }
        let pad = walls.len().next_multiple_of(SPEC_LANES);
        for v in [
            &mut b.ax,
            &mut b.ay,
            &mut b.sx,
            &mut b.sy,
            &mut b.nx,
            &mut b.ny,
            &mut b.inv_l2,
            &mut b.height,
            &mut b.nmag,
            &mut b.amag,
        ] {
            v.resize(pad, 0.0);
        }
        b
    }
}

/// The operands [`Wall::intersect_segment_with_margins`] reads, flattened
/// to one cache-friendly row. `s = b − a` is precomputed at build time —
/// the exact subtraction the wall test performs per call, so batched tests
/// using these rows stay bit-identical to the struct-walking scalar path.
#[derive(Debug, Clone, Copy)]
struct WallSoa {
    qx: f64,
    qy: f64,
    sx: f64,
    sy: f64,
    height: f64,
    u_margin: f64,
    material: Material,
}

impl WallSoa {
    fn new(w: &Wall) -> Self {
        WallSoa {
            qx: w.a.x,
            qy: w.a.y,
            sx: w.b.x - w.a.x,
            sy: w.b.y - w.a.y,
            height: w.height,
            u_margin: w.u_margin(),
            material: w.material,
        }
    }

    /// The crossing parameter `t` of segment `(p, p + r)` (plan view, with
    /// `fz`/`dz` the 3-D z interpolation operands) through this wall, or
    /// `None` — operation-for-operation the same arithmetic as
    /// [`Wall::intersect_segment_with_margins`], so accepted `t` values
    /// are bit-identical.
    #[inline]
    #[allow(clippy::too_many_arguments)] // flat scalars keep the per-lane call register-resident
    fn crossing_t(
        &self,
        px: f64,
        py: f64,
        rx: f64,
        ry: f64,
        fz: f64,
        dz: f64,
        t_margin: f64,
    ) -> Option<f64> {
        let rxs = rx * self.sy - ry * self.sx;
        if rxs.abs() < 1e-12 {
            return None;
        }
        let qpx = self.qx - px;
        let qpy = self.qy - py;
        let t = (qpx * self.sy - qpy * self.sx) / rxs;
        if t <= t_margin || t >= 1.0 - t_margin {
            return None;
        }
        let u = (qpx * ry - qpy * rx) / rxs;
        if !(u >= -self.u_margin && u <= 1.0 + self.u_margin) {
            return None;
        }
        let z = fz + dz * t;
        if z < 0.0 || z > self.height {
            return None;
        }
        Some(t)
    }
}

/// The [`WallSoa`] operands as `f64` columns (still tree-slot order), so
/// [`crossing_t_x4`] gathers four candidate walls into one vector register
/// per operand. The margin columns are pre-applied forms of the scalar
/// test's runtime expressions — `-u_margin` (exact negation) and
/// `1.0 + u_margin` (same addition, same rounding) — so the vector
/// comparisons see bit-identical thresholds.
#[derive(Debug, Clone, Default)]
struct WallBank {
    qx: Vec<f64>,
    qy: Vec<f64>,
    sx: Vec<f64>,
    sy: Vec<f64>,
    height: Vec<f64>,
    neg_u_margin: Vec<f64>,
    one_plus_u_margin: Vec<f64>,
    /// Low 64 bits of the batch sort key, precomputed per tree slot:
    /// `[wall index : 48][material index : 8]` shifted into place (see
    /// `crossings_batch_impl`). One sequential load per accepted hit
    /// replaces two scattered `order()`/`soa` reads in the hot callback.
    key_lo: Vec<u64>,
}

impl WallBank {
    fn new(soa: &[WallSoa], order: &[u32]) -> Self {
        let mut b = WallBank::default();
        for (w, &wall) in soa.iter().zip(order) {
            b.qx.push(w.qx);
            b.qy.push(w.qy);
            b.sx.push(w.sx);
            b.sy.push(w.sy);
            b.height.push(w.height);
            b.neg_u_margin.push(-w.u_margin);
            b.one_plus_u_margin.push(1.0 + w.u_margin);
            debug_assert!((wall as u64) < (1 << 48));
            b.key_lo
                .push(((wall as u64) << 16) | w.material.index() as u64);
        }
        b
    }
}

/// Four [`WallSoa::crossing_t`] solves at once: the crossing parameters of
/// one segment against the four walls at `slots`, as `(t lanes, accept
/// bitmask)`.
///
/// Every lane runs **operation-for-operation the same arithmetic** as the
/// scalar solve — each vector op is one correctly-rounded IEEE operation
/// per lane, with an unfused `mul_add` and compares that are false on
/// NaN — so an accepted lane's `t` is bit-identical to the scalar
/// `Some(t)` and the accept decision matches the scalar one for all
/// finite inputs (NaN lanes, which finite walls never produce, fall on
/// the reject side of the `false`-on-NaN comparisons).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)] // flat scalars keep the call register-resident
fn crossing_t_x4(
    bank: &WallBank,
    slots: [usize; 4],
    px: f64,
    py: f64,
    rx: f64,
    ry: f64,
    fz: f64,
    dz: f64,
    t_margin: f64,
) -> (F64x4A, u8) {
    let gather = |col: &[f64]| F64x4A::from_array(slots.map(|s| col[s]));
    let sx = gather(&bank.sx);
    let sy = gather(&bank.sy);
    let rxv = F64x4A::splat(rx);
    let ryv = F64x4A::splat(ry);
    // rxs = rx·sy − ry·sx; |rxs| < 1e-12 ⇒ (near-)parallel, reject.
    let rxs = rxv.mul(sy).sub(ryv.mul(sx));
    let keep = rxs.abs().simd_ge(F64x4A::splat(1e-12));
    let qpx = gather(&bank.qx).sub(F64x4A::splat(px));
    let qpy = gather(&bank.qy).sub(F64x4A::splat(py));
    // t along the segment, accepted strictly inside the graze margins.
    let t = qpx.mul(sy).sub(qpy.mul(sx)).div(rxs);
    let keep = keep
        .and(F64x4A::splat(t_margin).simd_lt(t))
        .and(t.simd_lt(F64x4A::splat(1.0 - t_margin)));
    // u along the wall footprint, within the per-wall graze margins.
    let u = qpx.mul(ryv).sub(qpy.mul(rxv)).div(rxs);
    let keep = keep
        .and(u.simd_ge(gather(&bank.neg_u_margin)))
        .and(u.simd_le(gather(&bank.one_plus_u_margin)));
    // Crossing height within the wall's vertical extent.
    let z = F64x4A::splat(fz).add(F64x4A::splat(dz).mul(t));
    let keep = keep
        .and(z.simd_ge(F64x4A::splat(0.0)))
        .and(z.simd_le(gather(&bank.height)));
    (t, keep.bitmask())
}

impl WallIndex {
    /// Number of indexed walls (must match the queried plan's).
    pub fn wall_count(&self) -> usize {
        self.u_margins.len()
    }

    /// The underlying hierarchy (for benchmarks and composition into
    /// higher-level scene indexes).
    pub fn bvh(&self) -> &Bvh {
        &self.bvh
    }

    /// Walls that *might* give a specular reflection between `source` and
    /// `receiver`, in ascending wall order.
    ///
    /// This is a **conservative** vectorized prefilter over
    /// [`crate::reflect::specular_reflection`]'s acceptance tests: it
    /// re-derives the same-side, mirror-point footprint (`u ∈ [0, 1]`) and
    /// height (`z ∈ [0, height]`) conditions in `f32` **interval
    /// arithmetic** — every comparison carries an explicit error bound that
    /// dominates both the `f64 → f32` input rounding and the chained-op
    /// roundoff (coefficient `SPEC_EPS`, ~160× the `f32` unit roundoff),
    /// and NaN comparisons fall on the *keep* side. A wall is dropped only
    /// when the whole `f32` uncertainty interval lies outside the exact
    /// test's acceptance window, so the returned set is a superset of the
    /// walls the exact scan accepts (the property tests pin this). Callers
    /// run the exact test on the survivors; iterating them in the returned
    /// order reproduces the full-scan result exactly.
    ///
    /// Dispatches on [`surfos_em::simd::backend()`]: AVX2 native lanes,
    /// or — on the scalar reference arm — no prefilter at all (every
    /// wall is returned, the trivially conservative superset).
    pub fn specular_candidates(&self, source: Vec3, receiver: Vec3) -> Vec<usize> {
        self.specular_candidates_with(surfos_em::simd::backend(), source, receiver)
    }

    /// [`Self::specular_candidates`] with an explicit kernel arm, for
    /// benches and cross-backend equivalence tests.
    ///
    /// # Panics
    /// Panics if `Backend::Avx2` is forced on a host without AVX2+FMA.
    #[doc(hidden)]
    pub fn specular_candidates_with(
        &self,
        backend: Backend,
        source: Vec3,
        receiver: Vec3,
    ) -> Vec<usize> {
        match backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                assert!(
                    surfos_em::simd::avx2_available(),
                    "Backend::Avx2 forced without AVX2+FMA support"
                );
                // SAFETY: avx2 presence asserted just above.
                unsafe { self.specular_candidates_avx2(source, receiver) }
            }
            _ => (0..self.wall_count()).collect(),
        }
    }

    /// The AVX2 prefilter, on 256-bit lanes.
    ///
    /// # Safety
    /// Requires the `avx2` CPU feature (the dispatch arm checks).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn specular_candidates_avx2(&self, source: Vec3, receiver: Vec3) -> Vec<usize> {
        let n = self.wall_count();
        let b = &self.spec;
        let mut out = Vec::new();
        let eps = F32x8A::splat(SPEC_EPS);
        let zero = F32x8A::splat(0.0);
        let one = F32x8A::splat(1.0);
        let two = F32x8A::splat(2.0);
        let four = F32x8A::splat(4.0);
        let sxp = F32x8A::splat(source.x as f32);
        let syp = F32x8A::splat(source.y as f32);
        let rxp = F32x8A::splat(receiver.x as f32);
        let ryp = F32x8A::splat(receiver.y as f32);
        let szp = F32x8A::splat(source.z as f32);
        let zspan = F32x8A::splat((receiver.z - source.z) as f32);
        let zspan_a = zspan.abs();
        // Endpoint magnitude scale: bounds the absolute rounding error of
        // any planar endpoint coordinate after the f32 conversion.
        let coordmag = F32x8A::splat(
            (source.x.abs() + source.y.abs() + receiver.x.abs() + receiver.y.abs()) as f32,
        );
        for c in (0..b.ax.len()).step_by(SPEC_LANES) {
            let load = |v: &[f32]| F32x8A::from_array(v[c..c + SPEC_LANES].try_into().unwrap());
            let ax = load(&b.ax);
            let ay = load(&b.ay);
            let nx = load(&b.nx);
            let ny = load(&b.ny);
            let nmag = load(&b.nmag);
            let amag = load(&b.amag);
            // Signed side values of both endpoints against ñ.
            let dsx = sxp.sub(ax);
            let dsy = syp.sub(ay);
            let drx = rxp.sub(ax);
            let dry = ryp.sub(ay);
            let p1 = dsx.mul(nx);
            let p2 = dsy.mul(ny);
            let p3 = drx.mul(nx);
            let p4 = dry.mul(ny);
            let ds = p1.add(p2);
            let dr = p3.add(p4);
            // Absolute error bound shared by ds and dr: term magnitudes
            // cover cancellation in the dots, the (coordmag + amag)·nmag
            // term covers input rounding of the endpoints and anchors.
            let e = p1
                .abs()
                .add(p2.abs())
                .add(p3.abs())
                .add(p4.abs())
                .add(coordmag.add(amag).mul(nmag))
                .mul(eps);
            let neg_e = zero.sub(e);
            let ds_pos = e.simd_lt(ds);
            let ds_neg = ds.simd_lt(neg_e);
            let dr_pos = e.simd_lt(dr);
            let dr_neg = dr.simd_lt(neg_e);
            // Certainly-opposite sides → the exact test certainly rejects.
            let opposite = ds_pos.and(dr_neg).or(ds_neg.and(dr_pos));
            // Certainly-same side with margin: t = ds/(ds+dr) is then a
            // well-conditioned value in (0, 1) and the u/z windows below
            // are trustworthy. Ambiguous lanes are kept outright.
            let same = ds_pos.and(dr_pos).or(ds_neg.and(dr_neg));
            let den = ds.add(dr);
            let t = ds.div(den);
            let err_t = e.mul(four).div(den.abs());
            // Mirror image of the source across the wall line, in the
            // unnormalized form image = source − ñ·(2·ds/|s|²).
            let inv_l2 = load(&b.inv_l2);
            let g = two.mul(ds).mul(inv_l2);
            let gx = nx.mul(g);
            let gy = ny.mul(g);
            let ix = sxp.sub(gx);
            let iy = syp.sub(gy);
            // Reflection point p = image + t·(receiver − image), taken
            // relative to the wall anchor for the footprint test.
            let dx = rxp.sub(ix);
            let dy = ryp.sub(iy);
            let px = ix.sub(ax).add(t.mul(dx));
            let py = iy.sub(ay).add(t.mul(dy));
            let sxw = load(&b.sx);
            let syw = load(&b.sy);
            let ux = px.mul(sxw);
            let uy = py.mul(syw);
            let u = ux.add(uy).mul(inv_l2);
            // Error budget for u: e_img bounds the image coordinates'
            // inherited error from E, cs·eps the raw coordinate roundoff,
            // err_t·|d| the lerp's parameter uncertainty; the lumped sums
            // over-count per-axis contributions, which only widens the
            // kept interval.
            let e_img = nmag.mul(two).mul(inv_l2).mul(e);
            let cs = coordmag.add(amag).add(gx.abs()).add(gy.abs());
            let e_c = e_img.add(cs.mul(eps));
            let e_p = e_c.mul(four).add(err_t.mul(dx.abs().add(dy.abs())));
            let e_ud = e_p
                .mul(sxw.abs().add(syw.abs()))
                .add(ux.abs().add(uy.abs()).mul(four).mul(eps));
            let eu = e_ud.mul(inv_l2);
            let u_rej = u.add(eu).simd_lt(zero).or(one.simd_lt(u.sub(eu)));
            // Height window (the mirror does not move z).
            let z = szp.add(zspan.mul(t));
            let ez = zspan_a
                .mul(err_t)
                .add(szp.abs().add(zspan_a).mul(four).mul(eps));
            let height = load(&b.height);
            let z_rej = z.add(ez).simd_lt(zero).or(height.simd_lt(z.sub(ez)));
            let reject = opposite.or(same.and(u_rej.or(z_rej)));
            let mut keep = reject.not().bitmask();
            while keep != 0 {
                let lane = keep.trailing_zeros() as usize;
                keep &= keep - 1;
                let i = c + lane;
                if i < n {
                    out.push(i);
                }
            }
        }
        out
    }
}

/// A named rectangular room region (plan view), used for "optimize coverage
/// in the bedroom"-style service goals and for sampling evaluation grids.
#[derive(Debug, Clone, PartialEq)]
pub struct Room {
    /// Human-readable name, e.g. `"bedroom"`.
    pub name: String,
    /// Minimum corner (plan view).
    pub min: Vec3,
    /// Maximum corner (plan view).
    pub max: Vec3,
}

impl Room {
    /// Creates a room from a name and two opposite corners.
    ///
    /// # Panics
    /// Panics if the region is degenerate.
    pub fn new(name: impl Into<String>, min: Vec3, max: Vec3) -> Self {
        let (min, max) = (min.min(max), min.max(max));
        assert!(
            max.x - min.x > 1e-9 && max.y - min.y > 1e-9,
            "room region is degenerate"
        );
        Room {
            name: name.into(),
            min: min.flat(),
            max: max.flat(),
        }
    }

    /// Plan-view area in square metres.
    pub fn area_m2(&self) -> f64 {
        (self.max.x - self.min.x) * (self.max.y - self.min.y)
    }

    /// Returns `true` if a point lies inside the room (plan view, edges
    /// inclusive).
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// The room centre at a given height.
    pub fn center(&self, z: f64) -> Vec3 {
        Vec3::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
            z,
        )
    }

    /// A uniform `nx × ny` grid of sample points at height `z`, inset from
    /// the walls by `margin` metres. This is the evaluation grid the
    /// paper's heatmaps and CDFs are computed over.
    pub fn sample_grid(&self, nx: usize, ny: usize, z: f64, margin: f64) -> Vec<Vec3> {
        assert!(nx > 0 && ny > 0, "grid must be non-empty");
        let x0 = self.min.x + margin;
        let x1 = self.max.x - margin;
        let y0 = self.min.y + margin;
        let y1 = self.max.y - margin;
        assert!(x1 > x0 && y1 > y0, "margin leaves no room interior");
        let mut pts = Vec::with_capacity(nx * ny);
        for iy in 0..ny {
            for ix in 0..nx {
                let fx = if nx == 1 {
                    0.5
                } else {
                    ix as f64 / (nx - 1) as f64
                };
                let fy = if ny == 1 {
                    0.5
                } else {
                    iy as f64 / (ny - 1) as f64
                };
                pts.push(Vec3::new(x0 + fx * (x1 - x0), y0 + fy * (y1 - y0), z));
            }
        }
        pts
    }
}

/// The environment model: a set of walls and named rooms.
#[derive(Debug, Clone, Default)]
pub struct FloorPlan {
    walls: Vec<Wall>,
    rooms: Vec<Room>,
}

impl FloorPlan {
    /// Creates an empty plan (free space).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a wall and returns its index.
    pub fn add_wall(&mut self, wall: Wall) -> usize {
        self.walls.push(wall);
        self.walls.len() - 1
    }

    /// Adds a room region and returns its index.
    pub fn add_room(&mut self, room: Room) -> usize {
        self.rooms.push(room);
        self.rooms.len() - 1
    }

    /// All walls.
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// All rooms.
    pub fn rooms(&self) -> &[Room] {
        &self.rooms
    }

    /// Looks a room up by name.
    pub fn room(&self, name: &str) -> Option<&Room> {
        self.rooms.iter().find(|r| r.name == name)
    }

    /// All wall crossings of the segment `from → to`, sorted by distance
    /// along the segment.
    pub fn crossings(&self, from: Vec3, to: Vec3) -> Vec<(usize, Material)> {
        let mut hits: Vec<(f64, usize, Material)> = self
            .walls
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.intersect_segment(from, to).map(|h| (h.t, i, w.material)))
            .collect();
        hits.sort_by(|a, b| a.0.total_cmp(&b.0));
        hits.into_iter().map(|(_, i, m)| (i, m)).collect()
    }

    /// Total one-way penetration loss in dB along the segment at `band`.
    /// Zero when the path is clear.
    pub fn penetration_loss_db(&self, from: Vec3, to: Vec3, band: &Band) -> f64 {
        self.crossings(from, to)
            .iter()
            .map(|(_, m)| m.penetration_loss_db(band))
            .sum()
    }

    /// The linear amplitude factor surviving the walls along the segment.
    pub fn transmission_amplitude(&self, from: Vec3, to: Vec3, band: &Band) -> f64 {
        surfos_em::units::db_to_amplitude(-self.penetration_loss_db(from, to, band))
    }

    /// Returns `true` if no wall crosses the segment.
    pub fn has_los(&self, from: Vec3, to: Vec3) -> bool {
        self.walls
            .iter()
            .all(|w| w.intersect_segment(from, to).is_none())
    }

    /// Builds a [`WallIndex`] over the current wall set (binned-SAH packed
    /// tree, see [`Bvh::build`]). Rebuild whenever walls are added or
    /// edited; queries check only the wall *count*, so a stale index over
    /// mutated walls silently returns wrong answers.
    pub fn build_wall_index(&self) -> WallIndex {
        self.index_from(Bvh::build(&self.padded_wall_boxes()))
    }

    /// A [`WallIndex`] whose hierarchy uses the reference median splitter
    /// ([`Bvh::build_median`]) instead of the default binned SAH. Indexed
    /// query results are bit-identical to [`FloorPlan::build_wall_index`]'s
    /// (the property tests pin this); only candidate counts and traversal
    /// cost differ. Kept as the comparison arm for equivalence proptests
    /// and the `plan/crossings_building` benchmarks.
    pub fn build_wall_index_median(&self) -> WallIndex {
        self.index_from(Bvh::build_median(&self.padded_wall_boxes()))
    }

    /// Assembles a [`WallIndex`] around a built hierarchy: per-wall graze
    /// margins in wall order, intersection rows in tree-slot order.
    fn index_from(&self, bvh: Bvh) -> WallIndex {
        let soa: Vec<WallSoa> = bvh
            .order()
            .iter()
            .map(|&i| WallSoa::new(&self.walls[i as usize]))
            .collect();
        let bank = WallBank::new(&soa, bvh.order());
        WallIndex {
            bvh,
            u_margins: self.walls.iter().map(Wall::u_margin).collect(),
            soa,
            bank,
            spec: SpecularBank::new(&self.walls),
        }
    }

    /// Wall bounding boxes grown by [`WALL_AABB_PAD`], the primitive set
    /// both index builders consume.
    fn padded_wall_boxes(&self) -> Vec<Aabb> {
        self.walls
            .iter()
            .map(|w| w.aabb().grown(WALL_AABB_PAD))
            .collect()
    }

    /// [`FloorPlan::crossings`] through a [`WallIndex`]: same result, bit
    /// for bit, touching only candidate walls. Candidates arrive in tree
    /// order, so hits are re-sorted by `(t, wall index)` — exactly the
    /// order the brute scan's stable distance sort produces.
    pub fn crossings_with(
        &self,
        index: &WallIndex,
        from: Vec3,
        to: Vec3,
    ) -> Vec<(usize, Material)> {
        debug_assert_eq!(index.wall_count(), self.walls.len(), "stale wall index");
        let t_margin = Wall::t_margin(from, to);
        let mut hits: Vec<(f64, usize, Material)> = Vec::new();
        index.bvh.for_each_segment_candidate(from, to, |i| {
            let w = &self.walls[i];
            if let Some(h) =
                w.intersect_segment_with_margins(from, to, t_margin, index.u_margins[i])
            {
                hits.push((h.t, i, w.material));
            }
        });
        hits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        hits.into_iter().map(|(_, i, m)| (i, m)).collect()
    }

    /// [`FloorPlan::penetration_loss_db`] through a [`WallIndex`].
    pub fn penetration_loss_db_with(
        &self,
        index: &WallIndex,
        from: Vec3,
        to: Vec3,
        band: &Band,
    ) -> f64 {
        self.crossings_with(index, from, to)
            .iter()
            .map(|(_, m)| m.penetration_loss_db(band))
            .sum()
    }

    /// [`FloorPlan::transmission_amplitude`] through a [`WallIndex`].
    pub fn transmission_amplitude_with(
        &self,
        index: &WallIndex,
        from: Vec3,
        to: Vec3,
        band: &Band,
    ) -> f64 {
        surfos_em::units::db_to_amplitude(-self.penetration_loss_db_with(index, from, to, band))
    }

    /// [`FloorPlan::has_los`] through a [`WallIndex`], with any-hit early
    /// exit.
    pub fn has_los_with(&self, index: &WallIndex, from: Vec3, to: Vec3) -> bool {
        debug_assert_eq!(index.wall_count(), self.walls.len(), "stale wall index");
        let t_margin = Wall::t_margin(from, to);
        !index.bvh.segment_candidates_until(from, to, |i| {
            self.walls[i]
                .intersect_segment_with_margins(from, to, t_margin, index.u_margins[i])
                .is_some()
        })
    }

    /// [`FloorPlan::crossings_with`] for a whole batch of segments: one
    /// `Vec` of `(wall index, material)` crossings per input segment, in
    /// the same order.
    ///
    /// Segments are traced in packets of up to [`SegmentPacket::LANES`]
    /// through [`Bvh::packet_candidates_until`], so coherent batches (the
    /// bounce-leg fans of a link trace) share most of their node visits,
    /// and each lane's surviving candidates run the exact `f64` crossing
    /// solve four walls at a time (`crossing_t_x4`). Every accepted `t`
    /// is bit-identical to the scalar solve and each lane's hits are
    /// re-sorted by `(t, wall index)`, so every per-segment result is
    /// **bit-identical** to [`FloorPlan::crossings_with`] on both SIMD
    /// backends — the wide layers only change which walls get *ruled
    /// out* early.
    pub fn crossings_batch(
        &self,
        index: &WallIndex,
        segments: &[(Vec3, Vec3)],
    ) -> Vec<Vec<(usize, Material)>> {
        self.crossings_batch_with(index, surfos_em::simd::backend(), segments)
    }

    /// [`Self::crossings_batch`] with an explicit kernel arm, for benches
    /// and cross-backend equivalence tests. The scalar reference arm runs
    /// the per-segment scalar query in a loop.
    ///
    /// # Panics
    /// Panics if `Backend::Avx2` is forced on a host without AVX2+FMA.
    #[doc(hidden)]
    pub fn crossings_batch_with(
        &self,
        index: &WallIndex,
        backend: Backend,
        segments: &[(Vec3, Vec3)],
    ) -> Vec<Vec<(usize, Material)>> {
        debug_assert_eq!(index.wall_count(), self.walls.len(), "stale wall index");
        let mut out = Vec::with_capacity(segments.len());
        match backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                assert!(
                    surfos_em::simd::avx2_available(),
                    "Backend::Avx2 forced without AVX2+FMA support"
                );
                // SAFETY: avx2 presence asserted just above.
                unsafe { self.crossings_batch_avx2(index, segments, &mut out) }
            }
            _ => {
                for &(from, to) in segments {
                    out.push(self.crossings_with(index, from, to));
                }
            }
        }
        out
    }

    /// The AVX2 batch crossing solve: `f32` packet lanes for the BVH
    /// traversal and `f64` lanes for the exact crossing test.
    ///
    /// # Safety
    /// Requires the `avx2` CPU feature (the dispatch arm checks).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn crossings_batch_avx2(
        &self,
        index: &WallIndex,
        segments: &[(Vec3, Vec3)],
        out: &mut Vec<Vec<(usize, Material)>>,
    ) {
        // A hit is packed into one sortable u128 key:
        // `[t bits : 64][wall index : 48][material index : 8]` (top 8 bits
        // unused). Accepted `t` values are strictly positive finite
        // doubles, whose IEEE bit patterns order exactly like the values —
        // so an unsigned sort of the keys reproduces the scalar path's
        // `(t, wall_index)` lexicographic order (wall indices are unique
        // per segment, so the material byte never decides). 16-byte POD
        // keys with a branchless integer compare sort measurably faster
        // than 24-byte tuples under `f64::total_cmp`. The low half is
        // precomputed per tree slot in [`WallBank::key_lo`], so packing a
        // hit is one shift-or against one sequential load.
        let pack = |t: f64, slot: usize| -> u128 {
            debug_assert!(t > 0.0);
            ((t.to_bits() as u128) << 64) | index.bank.key_lo[slot] as u128
        };
        // Scratch buffers are reused across packets (drain/clear keep the
        // allocations), so a long batch settles into zero per-chunk
        // intermediate allocations.
        let mut hits: [Vec<u128>; SegmentPacket::LANES] = Default::default();
        // Per-lane pending candidate slots: the f64 solve runs four-wide
        // as soon as a lane has a full group, right inside the traversal
        // callback, so candidate slots are never re-buffered.
        let mut pend = [[0usize; 4]; SegmentPacket::LANES];
        let mut npend = [0usize; SegmentPacket::LANES];
        let mut t_margins = [0.0f64; SegmentPacket::LANES];
        // Per-lane segment operands, hoisted once per chunk in exactly the
        // form the wall test consumes: `p = from.flat()`, `r = to.flat() -
        // p`, plus the z-interpolation endpoints.
        let mut ops = [[0.0f64; 6]; SegmentPacket::LANES];
        for chunk in segments.chunks(SegmentPacket::LANES) {
            let packet = SegmentPacket::new(chunk);
            for (lane, &(from, to)) in chunk.iter().enumerate() {
                t_margins[lane] = Wall::t_margin(from, to);
                ops[lane] = [
                    from.x,
                    from.y,
                    to.x - from.x,
                    to.y - from.y,
                    from.z,
                    to.z - from.z,
                ];
            }
            index
                .bvh
                .for_each_packet_candidate(&packet, |lane, slot, _| {
                    pend[lane][npend[lane]] = slot;
                    npend[lane] += 1;
                    if npend[lane] == 4 {
                        npend[lane] = 0;
                        let slots = pend[lane];
                        let [px, py, rx, ry, fz, dz] = ops[lane];
                        let (t, mut accept) = crossing_t_x4(
                            &index.bank,
                            slots,
                            px,
                            py,
                            rx,
                            ry,
                            fz,
                            dz,
                            t_margins[lane],
                        );
                        if accept != 0 {
                            let ts = t.to_array();
                            while accept != 0 {
                                let j = accept.trailing_zeros() as usize;
                                accept &= accept - 1;
                                hits[lane].push(pack(ts[j], slots[j]));
                            }
                        }
                    }
                });
            for lane in 0..chunk.len() {
                // Remainder candidates run the scalar solve — bit-identical
                // to the vector lanes, so the mix is invisible downstream.
                let [px, py, rx, ry, fz, dz] = ops[lane];
                for &slot in &pend[lane][..npend[lane]] {
                    let w = &index.soa[slot];
                    if let Some(t) = w.crossing_t(px, py, rx, ry, fz, dz, t_margins[lane]) {
                        hits[lane].push(pack(t, slot));
                    }
                }
                npend[lane] = 0;
                hits[lane].sort_unstable();
                out.push(
                    hits[lane]
                        .drain(..)
                        .map(|k| {
                            (
                                ((k >> 16) & 0xFFFF_FFFF_FFFF) as usize,
                                Material::ALL[(k & 0xFF) as usize],
                            )
                        })
                        .collect(),
                );
            }
        }
    }

    /// [`FloorPlan::has_los_with`] for a whole batch of segments: one
    /// bool per input segment, in the same order, bit-identical to the
    /// per-segment query. Lanes retire from the shared packet traversal
    /// as soon as an exact wall crossing confirms them blocked.
    pub fn has_los_batch(&self, index: &WallIndex, segments: &[(Vec3, Vec3)]) -> Vec<bool> {
        self.has_los_batch_with(index, surfos_em::simd::backend(), segments)
    }

    /// [`Self::has_los_batch`] with an explicit kernel arm, for benches
    /// and cross-backend equivalence tests. The scalar reference arm runs
    /// the per-segment scalar query in a loop.
    ///
    /// # Panics
    /// Panics if `Backend::Avx2` is forced on a host without AVX2+FMA.
    #[doc(hidden)]
    pub fn has_los_batch_with(
        &self,
        index: &WallIndex,
        backend: Backend,
        segments: &[(Vec3, Vec3)],
    ) -> Vec<bool> {
        debug_assert_eq!(index.wall_count(), self.walls.len(), "stale wall index");
        let mut out = Vec::with_capacity(segments.len());
        match backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                assert!(
                    surfos_em::simd::avx2_available(),
                    "Backend::Avx2 forced without AVX2+FMA support"
                );
                // SAFETY: avx2 presence asserted just above.
                unsafe { self.has_los_batch_avx2(index, segments, &mut out) }
            }
            _ => {
                for &(from, to) in segments {
                    out.push(self.has_los_with(index, from, to));
                }
            }
        }
        out
    }

    /// The AVX2 batch LOS query. The per-candidate crossing solve stays
    /// scalar here: the any-hit early exit retires lanes after very few
    /// exact tests, so there is rarely a fourth candidate to fill an
    /// `f64` vector with.
    ///
    /// # Safety
    /// Requires the `avx2` CPU feature (the dispatch arm checks).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn has_los_batch_avx2(
        &self,
        index: &WallIndex,
        segments: &[(Vec3, Vec3)],
        out: &mut Vec<bool>,
    ) {
        let mut t_margins = [0.0f64; SegmentPacket::LANES];
        let mut ops = [[0.0f64; 6]; SegmentPacket::LANES];
        for chunk in segments.chunks(SegmentPacket::LANES) {
            let packet = SegmentPacket::new(chunk);
            for (lane, &(from, to)) in chunk.iter().enumerate() {
                t_margins[lane] = Wall::t_margin(from, to);
                ops[lane] = [
                    from.x,
                    from.y,
                    to.x - from.x,
                    to.y - from.y,
                    from.z,
                    to.z - from.z,
                ];
            }
            let blocked = index.bvh.packet_candidates_until(&packet, |lane, slot, _| {
                let [px, py, rx, ry, fz, dz] = ops[lane];
                index.soa[slot]
                    .crossing_t(px, py, rx, ry, fz, dz, t_margins[lane])
                    .is_some()
            });
            for lane in 0..chunk.len() {
                out.push(blocked & (1 << lane) == 0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfos_em::band::NamedBand;

    /// Two 4×4 m rooms split by a drywall partition along x = 4.
    fn two_rooms() -> FloorPlan {
        let mut plan = FloorPlan::new();
        plan.add_wall(Wall::new(
            Vec3::xy(4.0, 0.0),
            Vec3::xy(4.0, 4.0),
            3.0,
            Material::Drywall,
        ));
        plan.add_room(Room::new("left", Vec3::xy(0.0, 0.0), Vec3::xy(4.0, 4.0)));
        plan.add_room(Room::new("right", Vec3::xy(4.0, 0.0), Vec3::xy(8.0, 4.0)));
        plan
    }

    #[test]
    fn los_within_room_blocked_across() {
        let plan = two_rooms();
        let a = Vec3::new(1.0, 2.0, 1.5);
        let b = Vec3::new(3.0, 2.0, 1.5);
        let c = Vec3::new(6.0, 2.0, 1.5);
        assert!(plan.has_los(a, b));
        assert!(!plan.has_los(a, c));
    }

    #[test]
    fn penetration_loss_accumulates() {
        let mut plan = two_rooms();
        plan.add_wall(Wall::new(
            Vec3::xy(6.0, 0.0),
            Vec3::xy(6.0, 4.0),
            3.0,
            Material::Concrete,
        ));
        let band = NamedBand::MmWave28GHz.band();
        let loss =
            plan.penetration_loss_db(Vec3::new(1.0, 2.0, 1.5), Vec3::new(7.0, 2.0, 1.5), &band);
        let want = Material::Drywall.penetration_loss_db(&band)
            + Material::Concrete.penetration_loss_db(&band);
        assert!((loss - want).abs() < 1e-9);
    }

    #[test]
    fn crossings_sorted_by_distance() {
        let mut plan = FloorPlan::new();
        let w_far = plan.add_wall(Wall::new(
            Vec3::xy(6.0, 0.0),
            Vec3::xy(6.0, 4.0),
            3.0,
            Material::Concrete,
        ));
        let w_near = plan.add_wall(Wall::new(
            Vec3::xy(4.0, 0.0),
            Vec3::xy(4.0, 4.0),
            3.0,
            Material::Drywall,
        ));
        let hits = plan.crossings(Vec3::new(1.0, 2.0, 1.0), Vec3::new(7.0, 2.0, 1.0));
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, w_near);
        assert_eq!(hits[1].0, w_far);
    }

    #[test]
    fn clear_path_no_loss() {
        let plan = two_rooms();
        let band = NamedBand::WiFi5GHz.band();
        let loss =
            plan.penetration_loss_db(Vec3::new(1.0, 1.0, 1.0), Vec3::new(2.0, 3.0, 1.0), &band);
        assert_eq!(loss, 0.0);
        assert_eq!(
            plan.transmission_amplitude(Vec3::new(1.0, 1.0, 1.0), Vec3::new(2.0, 3.0, 1.0), &band),
            1.0
        );
    }

    #[test]
    fn room_lookup_and_contains() {
        let plan = two_rooms();
        let left = plan.room("left").expect("room exists");
        assert!(left.contains(Vec3::xy(1.0, 1.0)));
        assert!(!left.contains(Vec3::xy(5.0, 1.0)));
        assert!(plan.room("kitchen").is_none());
    }

    #[test]
    fn sample_grid_inside_room() {
        let plan = two_rooms();
        let room = plan.room("right").unwrap();
        let grid = room.sample_grid(5, 4, 1.2, 0.3);
        assert_eq!(grid.len(), 20);
        for p in &grid {
            assert!(room.contains(*p), "{p} outside room");
            assert_eq!(p.z, 1.2);
            assert!(p.x >= room.min.x + 0.3 - 1e-9 && p.x <= room.max.x - 0.3 + 1e-9);
        }
    }

    #[test]
    fn single_point_grid_is_center() {
        let room = Room::new("r", Vec3::xy(0.0, 0.0), Vec3::xy(2.0, 2.0));
        let grid = room.sample_grid(1, 1, 1.0, 0.1);
        assert_eq!(grid.len(), 1);
        assert!((grid[0] - Vec3::new(1.0, 1.0, 1.0)).norm() < 1e-9);
    }

    #[test]
    fn room_corners_normalized() {
        let r = Room::new("r", Vec3::xy(3.0, 5.0), Vec3::xy(1.0, 2.0));
        assert_eq!(r.min, Vec3::xy(1.0, 2.0));
        assert_eq!(r.max, Vec3::xy(3.0, 5.0));
        assert!((r.area_m2() - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_room_rejected() {
        let _ = Room::new("r", Vec3::xy(1.0, 1.0), Vec3::xy(1.0, 5.0));
    }

    // ── Wall-index equivalence ─────────────────────────────────────────

    use proptest::prelude::*;

    /// The backends the host can actually run, scalar reference first.
    fn runnable_backends() -> Vec<Backend> {
        let mut backends = vec![Backend::Scalar];
        if surfos_em::simd::avx2_available() {
            backends.push(Backend::Avx2);
        }
        backends
    }

    /// Deterministic pseudo-random clutter: `n` short walls scattered over
    /// a 10×10 m area with mixed materials.
    fn cluttered(n: usize, seed: u64) -> FloorPlan {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let materials = [
            Material::Drywall,
            Material::Concrete,
            Material::Glass,
            Material::Wood,
        ];
        let mut plan = FloorPlan::new();
        for i in 0..n {
            let x = next() * 10.0;
            let y = next() * 10.0;
            let ang = next() * std::f64::consts::TAU;
            let len = 0.4 + next() * 2.6;
            plan.add_wall(Wall::new(
                Vec3::xy(x, y),
                Vec3::xy(x + ang.cos() * len, y + ang.sin() * len),
                1.0 + next() * 3.0,
                materials[i % materials.len()],
            ));
        }
        plan
    }

    #[test]
    fn specular_prefilter_keeps_accepted_walls_on_two_rooms() {
        let mut plan = two_rooms();
        // A second partition so there is a wall with both endpoints on the
        // same side (reflective) and one between them (rejected).
        plan.add_wall(Wall::new(
            Vec3::xy(0.0, 0.0),
            Vec3::xy(8.0, 0.0),
            3.0,
            Material::Concrete,
        ));
        let index = plan.build_wall_index();
        let src = Vec3::new(1.0, 2.0, 1.5);
        let rcv = Vec3::new(3.0, 2.0, 1.5);
        let kept = index.specular_candidates(src, rcv);
        for (i, w) in plan.walls().iter().enumerate() {
            if crate::reflect::specular_reflection(src, rcv, w).is_some() {
                assert!(kept.contains(&i), "prefilter dropped accepted wall {i}");
            }
        }
        // The long south wall bounces this same-room pair.
        assert!(kept.contains(&1));
        // Ascending order is part of the contract.
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn indexed_crossings_match_brute_on_two_rooms() {
        let plan = two_rooms();
        let index = plan.build_wall_index();
        let from = Vec3::new(1.0, 2.0, 1.5);
        let to = Vec3::new(6.0, 2.0, 1.5);
        assert_eq!(
            plan.crossings(from, to),
            plan.crossings_with(&index, from, to)
        );
        assert_eq!(plan.has_los(from, to), plan.has_los_with(&index, from, to));
    }

    #[test]
    fn empty_plan_index_answers_clear() {
        let plan = FloorPlan::new();
        let index = plan.build_wall_index();
        let band = NamedBand::WiFi5GHz.band();
        let from = Vec3::new(0.0, 0.0, 1.0);
        let to = Vec3::new(5.0, 5.0, 1.0);
        assert!(plan.crossings_with(&index, from, to).is_empty());
        assert!(plan.has_los_with(&index, from, to));
        assert_eq!(
            plan.transmission_amplitude_with(&index, from, to, &band),
            1.0
        );
    }

    proptest! {
        #[test]
        fn prop_indexed_queries_bit_identical_to_brute(
            seed in 0u64..1_000_000,
            n in 0usize..96,
            x0 in -1.0..11.0f64, y0 in -1.0..11.0f64, z0 in 0.1..4.0f64,
            x1 in -1.0..11.0f64, y1 in -1.0..11.0f64, z1 in 0.1..4.0f64,
        ) {
            let plan = cluttered(n, seed);
            let from = Vec3::new(x0, y0, z0);
            let to = Vec3::new(x1, y1, z1);
            let band = NamedBand::MmWave28GHz.band();

            // Both the SAH-packed tree and the reference median tree must
            // reproduce the brute scan bit for bit.
            for index in [plan.build_wall_index(), plan.build_wall_index_median()] {
                prop_assert_eq!(
                    plan.crossings(from, to),
                    plan.crossings_with(&index, from, to)
                );
                prop_assert_eq!(plan.has_los(from, to), plan.has_los_with(&index, from, to));
                prop_assert_eq!(
                    plan.penetration_loss_db(from, to, &band).to_bits(),
                    plan.penetration_loss_db_with(&index, from, to, &band).to_bits()
                );
                prop_assert_eq!(
                    plan.transmission_amplitude(from, to, &band).to_bits(),
                    plan.transmission_amplitude_with(&index, from, to, &band).to_bits()
                );
            }
        }

        #[test]
        fn prop_specular_prefilter_is_conservative(
            seed in 0u64..1_000_000,
            n in 0usize..96,
            x0 in -1.0..11.0f64, y0 in -1.0..11.0f64, z0 in 0.1..4.0f64,
            x1 in -1.0..11.0f64, y1 in -1.0..11.0f64, z1 in 0.1..4.0f64,
        ) {
            // The f32 prefilter must never drop a wall the exact f64
            // specular test accepts, and must report survivors in
            // ascending wall order. (It may keep extra walls — that only
            // costs an exact test, not correctness.)
            let plan = cluttered(n, seed);
            let index = plan.build_wall_index();
            let src = Vec3::new(x0, y0, z0);
            let rcv = Vec3::new(x1, y1, z1);
            for backend in runnable_backends() {
                let kept = index.specular_candidates_with(backend, src, rcv);
                prop_assert!(kept.windows(2).all(|w| w[0] < w[1]));
                let kept: std::collections::HashSet<usize> = kept.into_iter().collect();
                for (i, w) in plan.walls().iter().enumerate() {
                    if crate::reflect::specular_reflection(src, rcv, w).is_some() {
                        prop_assert!(
                            kept.contains(&i),
                            "{:?} prefilter dropped accepted wall {}", backend, i
                        );
                    }
                }
            }
        }

        #[test]
        fn prop_batch_queries_bit_identical_to_scalar(
            seed in 0u64..1_000_000,
            n in 0usize..96,
            k in 1usize..20,
        ) {
            // Packet-traced batches must reproduce the per-segment scalar
            // queries bit for bit, for every batch length — including
            // remainder packets narrower than the lane width and batches
            // spanning several packets.
            let plan = cluttered(n, seed);
            let mut state = seed ^ 0xA5A5_5A5A;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64) / ((1u64 << 53) as f64)
            };
            let segments: Vec<(Vec3, Vec3)> = (0..k)
                .map(|i| {
                    let from = Vec3::new(next() * 12.0 - 1.0, next() * 12.0 - 1.0, 0.1 + next() * 3.9);
                    let to = match i % 3 {
                        // Axis-parallel lanes exercise the packet slab
                        // test's degenerate containment fallback.
                        0 => Vec3::new(next() * 12.0 - 1.0, from.y, from.z),
                        _ => Vec3::new(next() * 12.0 - 1.0, next() * 12.0 - 1.0, 0.1 + next() * 3.9),
                    };
                    (from, to)
                })
                .collect();

            for index in [plan.build_wall_index(), plan.build_wall_index_median()] {
                // Every runnable kernel arm — scalar reference, native
                // AVX2 — must agree bit for bit with the per-segment
                // scalar queries.
                for backend in runnable_backends() {
                    let crossings = plan.crossings_batch_with(&index, backend, &segments);
                    let los = plan.has_los_batch_with(&index, backend, &segments);
                    prop_assert_eq!(crossings.len(), k);
                    prop_assert_eq!(los.len(), k);
                    for (i, &(from, to)) in segments.iter().enumerate() {
                        prop_assert_eq!(
                            &crossings[i],
                            &plan.crossings_with(&index, from, to),
                            "{:?} crossings diverged for segment {}", backend, i
                        );
                        prop_assert_eq!(
                            los[i],
                            plan.has_los_with(&index, from, to),
                            "{:?} has_los diverged for segment {}", backend, i
                        );
                    }
                }
            }
        }
    }
}
