//! The simulator's physical model of a deployed metasurface.
//!
//! `surfos-hw` owns specs, drivers and wire formats; this type owns the
//! *physics*: where the surface is, its element lattice, and the complex
//! per-element response currently programmed into it. The hardware manager
//! maps driver configurations onto [`SurfaceInstance::set_response`].

use surfos_em::antenna::{ElementPattern, Pattern};
use surfos_em::array::ArrayGeometry;
use surfos_em::complex::Complex;
use surfos_geometry::bvh::Aabb;
use surfos_geometry::{Pose, Vec3};

/// Whether a surface acts on signals by reflection, transmission, or both
/// (transflective, like mmWall).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperationMode {
    /// Signals bounce off the front face (ScatterMIMO, MilliMirror, AutoMS…).
    Reflective,
    /// Signals pass through, front ↔ back (LAIA, RFlens, PMSat…).
    Transmissive,
    /// Both directions supported (RFocus, LLAMA, mmWall).
    Transflective,
}

impl OperationMode {
    /// Can this surface serve a transmitter on side `tx_front` and a
    /// receiver on side `rx_front` (booleans: in front of the plane)?
    pub fn serves(self, tx_front: bool, rx_front: bool) -> bool {
        match self {
            OperationMode::Reflective => tx_front && rx_front,
            OperationMode::Transmissive => tx_front != rx_front,
            OperationMode::Transflective => true,
        }
    }
}

/// A metasurface deployed in the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceInstance {
    /// Unique name, e.g. `"passive0"`.
    pub id: String,
    /// Mounting pose. Local +z is the front face.
    pub pose: Pose,
    /// Element lattice.
    pub geometry: ArrayGeometry,
    /// Per-element radiation pattern (relative to the surface normal).
    pub pattern: ElementPattern,
    /// Element amplitude efficiency in `[0, 1]` (losses in the element).
    pub efficiency: f64,
    /// Reflective / transmissive / transflective.
    pub mode: OperationMode,
    /// Amplitude factor applied to *other* signals whose rays cross this
    /// surface's aperture — the §2.1 off-band interaction ("surfaces
    /// designed for 2.4 GHz may block 3 GHz cellular and 5 GHz Wi-Fi").
    /// `1.0` (default) = transparent; the kernel sets it from the design's
    /// wideband frequency response when simulating other bands.
    pub obstruction_amplitude: f64,
    /// Polarization rotation applied to scattered signals, radians
    /// (LLAMA-style control). Zero = polarization preserved.
    pub polarization_rot: f64,
    /// The surface's resonance: `(centre_hz, fractional_width)`. Elements
    /// only interact strongly near resonance; the scattering efficiency
    /// scales by a Lorentzian in the detuning (Scrolls-style frequency
    /// control re-tunes the centre). `None` = always resonant.
    pub resonance: Option<(f64, f64)>,
    /// The programmed complex response of each element (row-major).
    /// Unit magnitude for pure phase control; see `surfos-hw` for how
    /// driver configurations map here.
    response: Vec<Complex>,
}

impl SurfaceInstance {
    /// Creates a surface with all elements at the identity response
    /// (`1 + 0j`, i.e. specular behaviour).
    ///
    /// # Panics
    /// Panics if `efficiency` is outside `[0, 1]`.
    pub fn new(
        id: impl Into<String>,
        pose: Pose,
        geometry: ArrayGeometry,
        mode: OperationMode,
    ) -> Self {
        SurfaceInstance {
            id: id.into(),
            pose,
            geometry,
            pattern: ElementPattern::LAMBERTIAN,
            efficiency: 0.8,
            mode,
            obstruction_amplitude: 1.0,
            polarization_rot: 0.0,
            resonance: None,
            response: vec![Complex::ONE; geometry.len()],
        }
    }

    /// Sets the resonance `(centre_hz, fractional_width)`.
    ///
    /// # Panics
    /// Panics on non-positive centre or width.
    pub fn with_resonance(mut self, center_hz: f64, fractional_width: f64) -> Self {
        assert!(center_hz > 0.0, "resonance centre must be positive");
        assert!(fractional_width > 0.0, "resonance width must be positive");
        self.resonance = Some((center_hz, fractional_width));
        self
    }

    /// The resonance efficiency factor at an operating frequency:
    /// Lorentzian `1/(1+x²)` with `x = detuning / (width·centre)`.
    pub fn resonance_factor(&self, freq_hz: f64) -> f64 {
        match self.resonance {
            None => 1.0,
            Some((center, width)) => {
                let x = (freq_hz - center) / (width * center);
                1.0 / (1.0 + x * x)
            }
        }
    }

    /// Sets the off-band obstruction amplitude (see field docs).
    ///
    /// # Panics
    /// Panics if outside `[0, 1]`.
    pub fn with_obstruction(mut self, amplitude: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&amplitude),
            "obstruction amplitude must be within [0, 1]"
        );
        self.obstruction_amplitude = amplitude;
        self
    }

    /// Does the open segment `from → to` pass through this surface's
    /// aperture rectangle? Endpoints on the plane (within 1 mm) do not
    /// count, so a surface never obstructs its own scatter legs.
    pub fn intersects_segment(&self, from: Vec3, to: Vec3) -> bool {
        let a = self.pose.world_to_local(from);
        let b = self.pose.world_to_local(to);
        // Must cross the local z = 0 plane strictly between the endpoints.
        if a.z.abs() < 1e-3 || b.z.abs() < 1e-3 || a.z.signum() == b.z.signum() {
            return false;
        }
        let t = a.z / (a.z - b.z);
        let x = a.x + (b.x - a.x) * t;
        let y = a.y + (b.y - a.y) * t;
        let half_w = self.geometry.cols as f64 * self.geometry.dx / 2.0;
        let half_h = self.geometry.rows as f64 * self.geometry.dy / 2.0;
        x.abs() <= half_w && y.abs() <= half_h
    }

    /// The world-space bounding box of the aperture rectangle: the box
    /// around its four corners. Every crossing [`Self::intersects_segment`]
    /// accepts lies in the aperture plane inside this box, so a padded copy
    /// is a conservative prefilter for obstruction tests.
    pub fn aperture_aabb(&self) -> Aabb {
        let half_w = self.geometry.cols as f64 * self.geometry.dx / 2.0;
        let half_h = self.geometry.rows as f64 * self.geometry.dy / 2.0;
        Aabb::from_points(
            [
                Vec3::new(-half_w, -half_h, 0.0),
                Vec3::new(half_w, -half_h, 0.0),
                Vec3::new(-half_w, half_h, 0.0),
                Vec3::new(half_w, half_h, 0.0),
            ]
            .into_iter()
            .map(|c| self.pose.local_to_world(c)),
        )
    }

    /// Sets the element amplitude efficiency.
    ///
    /// # Panics
    /// Panics if outside `[0, 1]`.
    pub fn with_efficiency(mut self, efficiency: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&efficiency),
            "efficiency must be within [0, 1]"
        );
        self.efficiency = efficiency;
        self
    }

    /// Sets the per-element pattern.
    pub fn with_pattern(mut self, pattern: ElementPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.geometry.len()
    }

    /// True if the surface has no elements (impossible by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.geometry.is_empty()
    }

    /// The current per-element response.
    #[inline]
    pub fn response(&self) -> &[Complex] {
        &self.response
    }

    /// Programs the per-element complex response.
    ///
    /// # Panics
    /// Panics if the length does not match the element count, or any value
    /// is non-finite or has magnitude above 1 + 1e-9 (passive surfaces
    /// cannot amplify).
    pub fn set_response(&mut self, response: Vec<Complex>) {
        assert_eq!(
            response.len(),
            self.geometry.len(),
            "response length must match element count"
        );
        for (i, r) in response.iter().enumerate() {
            assert!(!r.is_invalid(), "non-finite response at element {i}");
            assert!(
                r.abs() <= 1.0 + 1e-9,
                "element {i} response magnitude {} exceeds 1 (passive surface cannot amplify)",
                r.abs()
            );
        }
        self.response = response;
    }

    /// Convenience: program pure phase shifts (unit magnitude).
    pub fn set_phases(&mut self, phases: &[f64]) {
        assert_eq!(
            phases.len(),
            self.geometry.len(),
            "phase count must match element count"
        );
        self.response = phases.iter().map(|&p| Complex::cis(p)).collect();
    }

    /// World position of element `index`.
    pub fn element_world_position(&self, index: usize) -> Vec3 {
        let (r, c) = self.geometry.row_col(index);
        let p = self.geometry.element_position(r, c);
        self.pose.local_to_world(Vec3::new(p[0], p[1], p[2]))
    }

    /// Amplitude pattern gain of an element towards a world point
    /// (angle measured from the surface normal).
    pub fn element_gain_towards(&self, p: Vec3) -> f64 {
        let theta = self.pose.off_boresight_angle(p);
        self.pattern.amplitude_gain(theta)
    }

    /// True if the point is on the front side of the surface plane.
    pub fn is_in_front(&self, p: Vec3) -> bool {
        self.pose.is_in_front(p)
    }

    /// Physical aperture area in m².
    pub fn area_m2(&self) -> f64 {
        self.geometry.area_m2()
    }

    /// Area of one element in m².
    pub fn element_area_m2(&self) -> f64 {
        self.geometry.dx * self.geometry.dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn surface() -> SurfaceInstance {
        let pose = Pose::wall_mounted(Vec3::new(0.0, 0.0, 1.5), Vec3::X);
        SurfaceInstance::new(
            "s0",
            pose,
            ArrayGeometry::new(4, 4, 0.005, 0.005),
            OperationMode::Reflective,
        )
    }

    #[test]
    fn identity_response_by_default() {
        let s = surface();
        assert_eq!(s.len(), 16);
        assert!(s
            .response()
            .iter()
            .all(|r| (*r - Complex::ONE).abs() < 1e-12));
    }

    #[test]
    fn set_phases_unit_magnitude() {
        let mut s = surface();
        let phases: Vec<f64> = (0..16).map(|k| k as f64 * 0.3).collect();
        s.set_phases(&phases);
        for (r, &p) in s.response().iter().zip(&phases) {
            assert!((r.abs() - 1.0).abs() < 1e-12);
            assert!((r.arg() - surfos_em::phase::wrap_phase_signed(p)).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "response length must match")]
    fn wrong_length_rejected() {
        surface().set_response(vec![Complex::ONE; 3]);
    }

    #[test]
    #[should_panic(expected = "cannot amplify")]
    fn amplifying_response_rejected() {
        surface().set_response(vec![Complex::new(2.0, 0.0); 16]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_response_rejected() {
        surface().set_response(vec![Complex::new(f64::NAN, 0.0); 16]);
    }

    #[test]
    fn element_positions_span_aperture() {
        let s = surface();
        let p0 = s.element_world_position(0);
        let p15 = s.element_world_position(15);
        // 4×4 at 5 mm pitch: diagonal span = 3·5mm in both local axes.
        let want = ((0.015f64).powi(2) * 2.0).sqrt();
        assert!((p0.distance(p15) - want).abs() < 1e-9);
        // All on the plane x = 0 (surface faces +x).
        for i in 0..16 {
            assert!(s.element_world_position(i).x.abs() < 1e-9);
        }
    }

    #[test]
    fn mode_gating() {
        assert!(OperationMode::Reflective.serves(true, true));
        assert!(!OperationMode::Reflective.serves(true, false));
        assert!(OperationMode::Transmissive.serves(true, false));
        assert!(!OperationMode::Transmissive.serves(true, true));
        assert!(OperationMode::Transflective.serves(true, true));
        assert!(OperationMode::Transflective.serves(false, true));
    }

    #[test]
    fn front_side_detection() {
        let s = surface();
        assert!(s.is_in_front(Vec3::new(1.0, 0.0, 1.5)));
        assert!(!s.is_in_front(Vec3::new(-1.0, 0.0, 1.5)));
    }

    #[test]
    fn areas() {
        let s = surface();
        assert!((s.element_area_m2() - 2.5e-5).abs() < 1e-12);
        assert!((s.area_m2() - 16.0 * 2.5e-5).abs() < 1e-12);
    }
}
