//! Observability smoke run: boots the apartment scenario, runs the kernel
//! loop with metrics enabled, and prints one JSON line per derived metric
//! and per span — consumed by `scripts/perf_smoke.sh`, which attaches the
//! lines to `BENCH_channel.json` under `"observability"`.
//!
//! The lines deliberately use `"span"`/`"p50_ns"` and `"metric"`/`"value"`
//! keys, *not* the benches' `"id"`/`"median_ns"` pair: span medians vary
//! with optimizer iteration counts and are not perf-gated, so they must
//! stay invisible to the regression extractor.

use surfos::channel::dynamics::BlockerWalk;
use surfos::channel::{ChannelSim, Endpoint, OperationMode, SurfaceInstance};
use surfos::em::antenna::ElementPattern;
use surfos::em::array::ArrayGeometry;
use surfos::em::band::NamedBand;
use surfos::geometry::scenario::two_room_apartment;
use surfos::geometry::{Pose, Vec3};
use surfos::hw::designs;
use surfos::hw::driver::ProgrammableDriver;
use surfos::obs;
use surfos::orchestrator::ServiceRequest;
use surfos::SurfOS;

fn main() {
    obs::set_enabled(true);

    let scen = two_room_apartment();
    let sim = ChannelSim::new(scen.plan.clone(), NamedBand::MmWave28GHz.band());
    let mut os = SurfOS::new(sim);
    let mut spec = designs::scatter_mimo();
    spec.band = NamedBand::MmWave28GHz.band();
    spec.rows = 32;
    spec.cols = 32;
    spec.pitch_m = 0.0053;
    let pose = *scen.anchor("bedroom-north").expect("anchor");
    os.deploy_surface("wall0", Box::new(ProgrammableDriver::new(spec)), pose);
    os.add_endpoint(Endpoint::access_point(
        "ap0",
        Pose::wall_mounted(scen.ap_pose.position, pose.position - scen.ap_pose.position),
    ));
    os.add_endpoint(Endpoint::client("laptop", Vec3::new(6.5, 1.5, 1.2)));
    os.orchestrator_mut().adam_options.iters = 60;
    os.submit(ServiceRequest::optimize_coverage("bedroom", 25.0));
    // A link task exercises the per-pair linearization cache (coverage
    // goes through the sweep path, which is uncached by design).
    os.submit(ServiceRequest::enhance_link("laptop", 20.0, 50.0));
    // A walking person: every step after the first is a blocker-only
    // mutation, exercising the incremental refit/refresh path.
    os.attach_walk(BlockerWalk::new(
        vec![Vec3::xy(5.5, 1.0), Vec3::xy(7.0, 2.5)],
        1.4,
    ));
    for _ in 0..3 {
        os.step(10);
    }

    let snap = obs::snapshot();
    let get = |name: &str| snap.counters.get(name).copied().unwrap_or(0);

    // Which SIMD kernel arm this run dispatched to (1 = scalar reference,
    // 3 = native avx2) — attached so every perf number in
    // BENCH_channel.json is attributable to a backend.
    println!(
        "{{\"metric\": \"em.simd.backend\", \"value\": {}}}",
        surfos::em::simd::backend() as u8
    );

    // Refreshes are warm accesses too: the entry survived a blocker step
    // and was patched in place instead of re-traced.
    let hits = (get("channel.lincache.hits") + get("channel.lincache.refreshes")) as f64;
    let misses = get("channel.lincache.misses") as f64;
    let hit_rate = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    println!("{{\"metric\": \"channel.lincache.hit_rate\", \"value\": {hit_rate:.4}}}");

    let visited = get("geometry.bvh.nodes_visited") as f64;
    let brute = get("geometry.bvh.brute_walls") as f64;
    let cull = if brute > 0.0 { visited / brute } else { 0.0 };
    println!("{{\"metric\": \"geometry.bvh.visit_ratio\", \"value\": {cull:.4}}}");
    println!(
        "{{\"metric\": \"channel.traces\", \"value\": {}}}",
        get("channel.traces")
    );
    println!(
        "{{\"metric\": \"channel.rephasings\", \"value\": {}}}",
        get("channel.rephasings")
    );
    // Incremental dynamics: how often blocker motion refit the index
    // instead of rebuilding it, and how many per-path evaluations the
    // crossing-set diff patched through vs re-traced.
    for name in [
        "channel.refits",
        "channel.index.builds",
        "channel.paths_patched",
        "channel.paths_retraced",
        "channel.lincache.refreshes",
        "geometry.bvh.refits",
    ] {
        println!("{{\"metric\": \"{name}\", \"value\": {}}}", get(name));
    }
    println!(
        "{{\"metric\": \"channel.walk_replay.speedup\", \"value\": {:.2}}}",
        walk_replay_speedup()
    );

    for (path, span) in &snap.spans {
        // Labeled breakdowns (`...{shard=0}`) fold into the flat path and
        // vary with thread scheduling; attach only the flat totals.
        if path.contains('{') {
            continue;
        }
        // Self time: this span's total minus its *direct* children's
        // totals — where the phase itself spent time, not its callees.
        let child_total: u64 = snap
            .spans
            .iter()
            .filter(|(q, _)| {
                q.len() > path.len() + 1
                    && q.starts_with(path.as_str())
                    && q.as_bytes()[path.len()] == b'/'
                    && !q[path.len() + 1..].contains('/')
            })
            .map(|(_, s)| s.total_ns)
            .sum();
        println!(
            "{{\"span\": \"{path}\", \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"self_total_ns\": {}}}",
            span.count,
            span.p50_ns,
            span.p99_ns,
            span.total_ns.saturating_sub(child_total)
        );
    }
}

/// Rebuild-vs-refit wall-clock ratio over a 60-tick walk replay on the
/// dynamics bench's scene (32 cluttered walls, 4 walkers, 16×16 surface).
/// A coarse one-shot measurement — the gated numbers live in the
/// `channel/walk_replay_60ticks` criterion bench; this records the
/// realized speedup alongside the obs counters.
fn walk_replay_speedup() -> f64 {
    let band = NamedBand::MmWave28GHz.band();
    let build = || {
        let mut sim = ChannelSim::new(surfos_bench::scenes::cluttered_plan(32, 42), band);
        let geom = ArrayGeometry::half_wavelength(16, 16, band.wavelength_m());
        sim.add_surface(SurfaceInstance::new(
            "s0",
            Pose::wall_mounted(Vec3::new(10.0, 4.0, 1.8), Vec3::new(0.0, 1.0, 0.0)),
            geom,
            OperationMode::Reflective,
        ));
        sim
    };
    let mut ap = Endpoint::client("ap", Vec3::new(4.0, 10.0, 2.0));
    ap.pattern = ElementPattern::Isotropic;
    let mut rx = Endpoint::client("rx", Vec3::new(16.0, 11.0, 1.2));
    rx.pattern = ElementPattern::Isotropic;
    let walk = BlockerWalk::new(
        vec![
            Vec3::xy(6.0, 9.0),
            Vec3::xy(14.0, 10.5),
            Vec3::xy(11.0, 6.0),
        ],
        1.4,
    );
    let replay = |sim: &mut ChannelSim, rebuild: bool| {
        let start = std::time::Instant::now();
        for k in 0..60 {
            if rebuild {
                sim.invalidate_cache();
            }
            sim.set_blockers(walk.crowd_at(k as f64 * 0.1, 4, 0.8));
            std::hint::black_box(sim.cached_linearization(&ap, &rx));
        }
        start.elapsed().as_secs_f64()
    };
    let mut incremental = build();
    let _ = incremental.cached_linearization(&ap, &rx); // warm
    let t_inc = replay(&mut incremental, false);
    let mut full = build();
    let t_full = replay(&mut full, true);
    if t_inc > 0.0 {
        t_full / t_inc
    } else {
        0.0
    }
}
