//! # surfos-geometry
//!
//! 3-D geometry substrate for SurfOS: the indoor environments whose radio
//! propagation the OS manages.
//!
//! The model is 2.5-D, the standard indoor-RF compromise: walls are vertical
//! rectangles described by a 2-D segment in plan view plus a height, while
//! all positions, distances and reflections are computed in full 3-D. This
//! captures what the paper's experiments need — mmWave-opaque walls carving
//! an apartment into rooms, surfaces mounted on walls, ray paths with
//! specular bounces — without a triangle-mesh tracer.
//!
//! Modules:
//! - [`vec3`]: 3-D vector math,
//! - [`material`]: building materials with frequency-dependent losses,
//! - [`wall`]: vertical wall panels and ray intersection,
//! - [`pose`]: surface mounting poses and local-frame transforms,
//! - [`plan`]: floor plans (walls + named room regions) and LOS queries,
//! - [`bvh`]: bounding boxes and a binned-SAH BVH with a packed 32-byte
//!   node layout, for conservative segment queries,
//! - [`reflect`]: specular reflection via the image method,
//! - [`scenario`]: ready-made environments, including the paper's two-room
//!   apartment (Figure 4a).

#![warn(missing_docs)]

pub mod bvh;
pub mod material;
pub mod plan;
pub mod pose;
pub mod reflect;
pub mod scenario;
pub mod vec3;
pub mod wall;

#[cfg(target_arch = "x86_64")]
pub use bvh::SegmentPacket;
pub use bvh::{Aabb, Bvh};
pub use material::Material;
pub use plan::{FloorPlan, Room, WallIndex};
pub use pose::Pose;
pub use vec3::Vec3;
pub use wall::Wall;
