//! Mounting poses and local-frame transforms.
//!
//! A surface (or AP array) is mounted somewhere with some orientation. The
//! [`Pose`] carries that placement and converts between the world frame and
//! the device's local frame, where `surfos-em`'s array math lives: local
//! x–y is the device plane, local +z is the device normal.

use crate::vec3::Vec3;

/// Position plus orientation of a planar device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// Device centre in world coordinates.
    pub position: Vec3,
    /// Unit normal of the device plane (local +z) in world coordinates.
    pub normal: Vec3,
    /// Unit "up" direction of the device (local +y) in world coordinates.
    pub up: Vec3,
}

impl Pose {
    /// Creates a pose. `normal` and `up` are normalized and `up` is
    /// re-orthogonalized against `normal` (Gram–Schmidt), so callers may
    /// pass approximate vectors.
    ///
    /// # Panics
    /// Panics if `normal` is zero or `up` is parallel to `normal`.
    pub fn new(position: Vec3, normal: Vec3, up: Vec3) -> Self {
        let n = normal.normalized();
        let u_raw = up - n * up.dot(n);
        assert!(
            u_raw.norm() > 1e-9,
            "up direction parallel to normal; orientation undefined"
        );
        Pose {
            position,
            normal: n,
            up: u_raw.normalized(),
        }
    }

    /// A wall-mounted pose: device at `position`, facing along `facing`
    /// (horizontal), with local up = world +z.
    pub fn wall_mounted(position: Vec3, facing: Vec3) -> Self {
        let f = Vec3::new(facing.x, facing.y, 0.0);
        Pose::new(position, f, Vec3::Z)
    }

    /// The local x axis (device "right") in world coordinates.
    pub fn right(&self) -> Vec3 {
        self.up.cross(self.normal)
    }

    /// Converts a world-frame point to the device's local frame.
    pub fn world_to_local(&self, p: Vec3) -> Vec3 {
        let d = p - self.position;
        Vec3::new(d.dot(self.right()), d.dot(self.up), d.dot(self.normal))
    }

    /// Converts a local-frame point (e.g. an element offset) to world
    /// coordinates.
    pub fn local_to_world(&self, p: Vec3) -> Vec3 {
        self.position + self.right() * p.x + self.up * p.y + self.normal * p.z
    }

    /// The local-frame direction (unit) from the device centre towards a
    /// world point — the form `surfos_em::array::SteeringVector` expects.
    ///
    /// # Panics
    /// Panics if `p` coincides with the device centre.
    pub fn local_direction_to(&self, p: Vec3) -> [f64; 3] {
        let local = self.world_to_local(p).normalized();
        [local.x, local.y, local.z]
    }

    /// Angle in radians between the device normal and the direction to a
    /// world point: 0 on boresight, > π/2 behind the device.
    pub fn off_boresight_angle(&self, p: Vec3) -> f64 {
        let d = (p - self.position).normalized();
        d.dot(self.normal).clamp(-1.0, 1.0).acos()
    }

    /// Returns `true` if the world point is in front of the device plane.
    pub fn is_in_front(&self, p: Vec3) -> bool {
        (p - self.position).dot(self.normal) > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pose() -> Pose {
        // Mounted on a wall at x=0, facing +x, 1.5 m up.
        Pose::wall_mounted(Vec3::new(0.0, 2.0, 1.5), Vec3::X)
    }

    #[test]
    fn frame_is_orthonormal() {
        let p = Pose::new(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(1.0, 1.0, 0.3),
            Vec3::new(0.1, 0.0, 1.0),
        );
        let (r, u, n) = (p.right(), p.up, p.normal);
        for v in [r, u, n] {
            assert!((v.norm() - 1.0).abs() < 1e-9);
        }
        assert!(r.dot(u).abs() < 1e-9);
        assert!(u.dot(n).abs() < 1e-9);
        assert!(n.dot(r).abs() < 1e-9);
        // right-handed: right × up = normal
        assert!((r.cross(u) - n).norm() < 1e-9);
    }

    #[test]
    fn world_local_roundtrip() {
        let p = pose();
        let w = Vec3::new(3.0, -1.0, 2.0);
        let back = p.local_to_world(p.world_to_local(w));
        assert!((back - w).norm() < 1e-9);
    }

    #[test]
    fn boresight_point_is_local_z() {
        let p = pose();
        let ahead = p.position + Vec3::X * 5.0;
        let local = p.world_to_local(ahead);
        assert!((local - Vec3::new(0.0, 0.0, 5.0)).norm() < 1e-9);
        assert!(p.off_boresight_angle(ahead) < 1e-9);
    }

    #[test]
    fn behind_detection() {
        let p = pose();
        assert!(p.is_in_front(p.position + Vec3::X));
        assert!(!p.is_in_front(p.position - Vec3::X));
        assert!(p.off_boresight_angle(p.position - Vec3::X) > std::f64::consts::FRAC_PI_2);
    }

    #[test]
    fn local_direction_is_unit() {
        let p = pose();
        let d = p.local_direction_to(Vec3::new(4.0, 4.0, 0.0));
        let n = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        assert!((n - 1.0).abs() < 1e-9);
    }

    #[test]
    fn up_gram_schmidt() {
        // Slightly tilted up vector gets squared against the normal.
        let p = Pose::new(Vec3::ZERO, Vec3::X, Vec3::new(0.5, 0.0, 1.0));
        assert!(p.up.dot(p.normal).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "parallel to normal")]
    fn parallel_up_rejected() {
        let _ = Pose::new(Vec3::ZERO, Vec3::X, Vec3::X);
    }

    proptest! {
        #[test]
        fn prop_roundtrip_any_point(
            px in -10.0..10.0f64, py in -10.0..10.0f64, pz in -10.0..10.0f64,
            nx in -1.0..1.0f64, ny in -1.0..1.0f64,
        ) {
            // ensure non-degenerate normal
            let normal = Vec3::new(nx + 2.0, ny, 0.3);
            let pose = Pose::new(Vec3::new(1.0, -2.0, 0.5), normal, Vec3::Z);
            let w = Vec3::new(px, py, pz);
            let back = pose.local_to_world(pose.world_to_local(w));
            prop_assert!((back - w).norm() < 1e-8);
        }

        #[test]
        fn prop_transform_preserves_distance(
            px in -10.0..10.0f64, py in -10.0..10.0f64, pz in -10.0..10.0f64,
        ) {
            let pose = pose();
            let w = Vec3::new(px, py, pz);
            let local = pose.world_to_local(w);
            prop_assert!((local.norm() - (w - pose.position).norm()).abs() < 1e-8);
        }
    }
}
