//! Building-scale spatial benchmarks: 1k–4k-wall multi-floor plans, where
//! the SAH/packed tree has to beat both the brute scan *and* the reference
//! median-split tree to earn its keep.
//!
//! `plan/crossings_building` isolates the index (16 probe segments through
//! the whole building, brute vs median tree vs SAH tree — all three return
//! bit-identical crossings, the proptests pin that). The wall counts come
//! from `building_plan`'s parametric layout: (8 floors × 21 rooms/side) =
//! 1024 walls, (16 × 42) = 4064 walls.
//!
//! `channel/linearize_building` is the full production path — direct +
//! wall-reflection + penetration tracing through `ChannelSim`'s epoch
//! cache and `SceneIndex` — on the same scenes, brute control vs indexed.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use surfos::channel::paths::{self, Medium};
use surfos::channel::Endpoint;
use surfos::em::antenna::ElementPattern;
use surfos::em::band::NamedBand;
use surfos::geometry::Vec3;
use surfos_bench::scenes::{building_extent, building_plan, probe_segments_in};

/// (floors, rooms per side) → 1024 and 4064 walls.
const BUILDINGS: [(usize, usize); 2] = [(8, 21), (16, 42)];
const SCENE_SEED: u64 = 2024;

fn bench_crossings_building(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan/crossings_building");
    for (floors, rooms) in BUILDINGS {
        let plan = building_plan(floors, rooms, SCENE_SEED);
        let n = plan.walls().len();
        let sah = plan.build_wall_index();
        let median = plan.build_wall_index_median();
        let (ext_x, ext_y) = building_extent(floors, rooms);
        let probes = probe_segments_in(16, SCENE_SEED ^ 0xBEEF, ext_x, ext_y);
        group.bench_function(format!("brute_{n}w"), |b| {
            b.iter(|| {
                for &(from, to) in &probes {
                    black_box(plan.crossings(from, to));
                }
            })
        });
        group.bench_function(format!("median_{n}w"), |b| {
            b.iter(|| {
                for &(from, to) in &probes {
                    black_box(plan.crossings_with(&median, from, to));
                }
            })
        });
        group.bench_function(format!("sah_{n}w"), |b| {
            b.iter(|| {
                for &(from, to) in &probes {
                    black_box(plan.crossings_with(&sah, from, to));
                }
            })
        });
    }
    group.finish();
}

fn bench_linearize_building(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel/linearize_building");
    let band = NamedBand::MmWave28GHz.band();
    for (floors, rooms) in BUILDINGS {
        let plan = building_plan(floors, rooms, SCENE_SEED);
        let n = plan.walls().len();
        let sim = surfos::channel::ChannelSim::new(plan.clone(), band);
        // A link spanning several rooms and one corridor on the first
        // floor plate: enough walls in play that culling quality decides
        // the trace cost.
        let mut tx = Endpoint::client("tx", Vec3::new(2.0, 2.5, 1.8));
        tx.pattern = ElementPattern::Isotropic;
        let mut rx = Endpoint::client("rx", Vec3::new(rooms as f64 * 4.0 - 2.0, 9.5, 1.2));
        rx.pattern = ElementPattern::Isotropic;
        // Brute control only at the smaller building: O(walls²) per link
        // makes the 4k-wall control pure waiting, and the 1k point already
        // anchors the separation.
        if n <= 2048 {
            group.bench_function(format!("brute_{n}w"), |b| {
                b.iter(|| {
                    let medium = Medium::new(&plan, &[], &[], band);
                    black_box(
                        paths::trace_channel(&medium, &tx, &rx, &[], true, true)
                            .linearize_at(&band),
                    )
                })
            });
        }
        // `sim.linearize` resolves the epoch-cached SAH/packed index and
        // traces through it — the production path.
        group.bench_function(format!("indexed_{n}w"), |b| {
            b.iter(|| black_box(sim.linearize(&tx, &rx)))
        });
    }
    group.finish();
}

fn bench_frequency_response_building(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel/frequency_response_building");
    let band = NamedBand::MmWave28GHz.band();
    // One trace of the 4064-wall building, then a 64-point subcarrier
    // sweep: the trace exercises the packet/prefilter geometry once, the
    // sweep exercises the SoA phasor re-phasing 64 times. The scalar
    // reference arm (`sweep_evaluate_scalar`) rides along to keep the
    // AoS → SoA separation visible in the numbers.
    let (floors, rooms) = BUILDINGS[1];
    let plan = building_plan(floors, rooms, SCENE_SEED);
    let n = plan.walls().len();
    let sim = surfos::channel::ChannelSim::new(plan, band);
    let mut tx = Endpoint::client("tx", Vec3::new(2.0, 2.5, 1.8));
    tx.pattern = ElementPattern::Isotropic;
    let mut rx = Endpoint::client("rx", Vec3::new(rooms as f64 * 4.0 - 2.0, 9.5, 1.2));
    rx.pattern = ElementPattern::Isotropic;
    group.bench_function(format!("sweep64_{n}w"), |b| {
        b.iter(|| black_box(sim.frequency_response(&tx, &rx, 64)))
    });
    // Sweep-only arms on a pre-computed trace: the rephase hot loop with
    // the trace cost excluded, SoA vs the scalar reference.
    let trace = sim.trace(&tx, &rx);
    let responses = sim.responses();
    let (lo, hi) = (band.low_hz(), band.high_hz());
    let probes: Vec<surfos::em::band::Band> = (0..64)
        .map(|i| {
            let f = lo + (hi - lo) * i as f64 / 63.0;
            surfos::em::band::Band::new(f, band.bandwidth_hz.min(f))
        })
        .collect();
    group.bench_function(format!("rephase64_soa_{n}w"), |b| {
        b.iter(|| black_box(trace.sweep_evaluate(&probes, &responses)))
    });
    group.bench_function(format!("rephase64_scalar_{n}w"), |b| {
        b.iter(|| black_box(trace.sweep_evaluate_scalar(&probes, &responses)))
    });
    group.finish();
}

/// The SIMD kernel arms this host can run, labelled for bench ids.
fn runnable_backends() -> Vec<(surfos::em::simd::Backend, &'static str)> {
    use surfos::em::simd::Backend;
    let mut v = vec![(Backend::Scalar, "scalar")];
    if surfos::em::simd::avx2_available() {
        v.push((Backend::Avx2, "avx2"));
    }
    v
}

/// Per-backend arms of the batched wall-crossing query on the 4064-wall
/// building: the AVX2 packet traversal with its four-lane f64
/// `crossing_t` solve against the scalar per-segment reference. All
/// arms return bit-identical crossings — the proptests pin that — so the
/// deltas here are pure kernel cost.
fn bench_crossing_t_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel/crossing_t_f64x4");
    let (floors, rooms) = BUILDINGS[1];
    let plan = building_plan(floors, rooms, SCENE_SEED);
    let n = plan.walls().len();
    let sah = plan.build_wall_index();
    let (ext_x, ext_y) = building_extent(floors, rooms);
    let probes = probe_segments_in(16, SCENE_SEED ^ 0xBEEF, ext_x, ext_y);
    for (backend, name) in runnable_backends() {
        group.bench_function(format!("{name}_{n}w"), |b| {
            b.iter(|| black_box(plan.crossings_batch_with(&sah, backend, &probes)))
        });
    }
    group.finish();
}

/// Per-backend arms of the phasor rotate-and-accumulate kernel on a
/// sweep-sized bank (4096 phasors × 64 steps): the scalar arm's portable
/// reassociated loop against the fused AVX2 `F64x4A` kernel.
fn bench_sweep_mul_add(c: &mut Criterion) {
    use surfos::em::simd::phasor;
    let mut group = c.benchmark_group("channel/sweep_mul_add");
    const N: usize = 4096;
    const STEPS: usize = 64;
    let seed = |i: usize, k: u64| {
        let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k;
        x ^= x >> 29;
        (x % 2000) as f64 / 1000.0 - 1.0
    };
    let re0: Vec<f64> = (0..N).map(|i| seed(i, 1)).collect();
    let im0: Vec<f64> = (0..N).map(|i| seed(i, 2)).collect();
    let (dre, dim): (Vec<f64>, Vec<f64>) = (0..N)
        .map(|i| {
            let a = seed(i, 3) * std::f64::consts::PI;
            (a.cos(), a.sin())
        })
        .unzip();
    for (backend, name) in runnable_backends() {
        group.bench_function(format!("{name}_{N}x{STEPS}"), |b| {
            b.iter(|| {
                let mut re = re0.clone();
                let mut im = im0.clone();
                let mut acc = (0.0, 0.0);
                for _ in 0..STEPS {
                    let (r, i) =
                        phasor::sum_and_advance_with(backend, &mut re, &mut im, &dre, &dim);
                    acc.0 += r;
                    acc.1 += i;
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

/// Per-backend arms of the eight-lane interval-bank sweep over a crowd of
/// blocker-sized boxes (256 boxes × 16 probe segments), against the brute
/// per-box exact test the scalar arm degenerates to. The bank only
/// *narrows* — candidates re-run the exact test — so arms differ in cost,
/// never in survivors.
fn bench_aperture_bank(c: &mut Criterion) {
    use surfos::geometry::bvh::{Aabb, AabbBank};
    let mut group = c.benchmark_group("channel/aperture_bank");
    const BOXES: usize = 256;
    let (floors, rooms) = BUILDINGS[0];
    let (ext_x, ext_y) = building_extent(floors, rooms);
    let hash = |i: usize, k: u64| {
        let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k;
        x ^= x >> 29;
        (x % 10_000) as f64 / 10_000.0
    };
    let boxes: Vec<Aabb> = (0..BOXES)
        .map(|i| {
            let c = Vec3::new(hash(i, 1) * ext_x, hash(i, 2) * ext_y, hash(i, 3) * 3.0);
            let half = Vec3::new(0.3, 0.3, 0.9);
            Aabb::new(c - half, c + half)
        })
        .collect();
    let bank = AabbBank::new(&boxes);
    let probes = probe_segments_in(16, SCENE_SEED ^ 0xD00A, ext_x, ext_y);
    for (backend, name) in runnable_backends() {
        group.bench_function(format!("{name}_{BOXES}b"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for &(from, to) in &probes {
                    bank.for_each_candidate_with(backend, from, to, |i| {
                        if boxes[i].intersects_segment(from, to) {
                            hits += 1;
                        }
                    });
                }
                black_box(hits)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_crossings_building,
    bench_linearize_building,
    bench_frequency_response_building,
    bench_crossing_t_backends,
    bench_sweep_mul_add,
    bench_aperture_bank
);
criterion_main!(benches);
