//! Labeled observability on the sharded kernel: every `kernel.shard.*`
//! series carries a `{shard=N}` breakdown, the flat total equals the sum
//! over labels, and the deterministic metrics projection stays
//! byte-identical across identical runs with labels present.

use std::sync::Mutex;
use surfos::channel::dynamics::BlockerWalk;
use surfos::channel::{Endpoint, OperationMode, SurfaceInstance};
use surfos::em::array::ArrayGeometry;
use surfos::em::band::NamedBand;
use surfos::geometry::{Pose, Vec3};
use surfos::obs;
use surfos::shard::ShardedKernel;
use surfos_bench::scenes::campus_plan;

/// The obs registry is process-global; tests that reset/enable it must not
/// interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Boots a 3-building campus (one zone per building), runs `ticks`
/// heartbeats with a street walker, and returns the shard count.
fn run_campus(threads: usize, ticks: usize) -> usize {
    let band = NamedBand::MmWave28GHz.band();
    let campus = campus_plan(3, 1, 2, 7);
    let geom = ArrayGeometry::half_wavelength(8, 8, band.wavelength_m());
    let mut kernel = ShardedKernel::new(&campus.plan, band, campus.zones());
    kernel.set_worker_threads(Some(threads));
    for (b, building) in campus.buildings.iter().enumerate() {
        let origin = building.origin;
        kernel.add_surface(SurfaceInstance::new(
            format!("b{b}-wall"),
            Pose::wall_mounted(origin + Vec3::new(1.5, 5.0, 1.5), Vec3::new(0.0, -1.0, 0.0)),
            geom,
            OperationMode::Reflective,
        ));
        kernel
            .add_link(
                Endpoint::client(format!("b{b}-ap"), origin + Vec3::new(4.0, 6.0, 2.5)),
                Endpoint::client(format!("b{b}-rx"), origin + Vec3::new(1.5, 1.5, 1.2)),
            )
            .expect("in-building link");
    }
    kernel.attach_walk(BlockerWalk::new(
        vec![Vec3::xy(2.0, -3.0), Vec3::xy(28.0, -3.0)],
        2.0,
    ));
    for _ in 0..ticks {
        kernel.replay_tick(250);
    }
    std::hint::black_box(kernel.linearizations());
    kernel.shard_count()
}

#[test]
fn labeled_shard_series_sum_to_flat_totals() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    obs::reset();
    let shards = run_campus(3, 6);
    let snap = obs::snapshot();
    obs::set_enabled(false);

    // Every shard shows up as its own labeled series on the eval phase.
    let eval_labels: Vec<&String> = snap
        .spans
        .keys()
        .filter(|k| obs::base_name(k) == "kernel.shard.eval" && k.contains("{shard="))
        .collect();
    assert_eq!(
        eval_labels.len(),
        shards,
        "expected one kernel.shard.eval{{shard=N}} series per shard, got {eval_labels:?}"
    );

    // The flat total of each always-labeled shard phase is exactly the sum
    // of its per-shard breakdowns (the collect-time fold contract).
    for (flat_key, flat) in snap
        .spans
        .iter()
        .filter(|(k, _)| k.starts_with("kernel.shard.") && !k.contains('{'))
    {
        let labeled_sum: u64 = snap
            .spans
            .iter()
            .filter(|(k, _)| k.contains('{') && obs::base_name(k) == *flat_key)
            .map(|(_, s)| s.count)
            .sum();
        assert_eq!(
            flat.count, labeled_sum,
            "span {flat_key}: flat total != sum over shard labels"
        );
    }
}

#[test]
fn deterministic_metrics_with_labels_are_byte_identical() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut runs = Vec::new();
    for _ in 0..2 {
        obs::set_enabled(true);
        obs::reset();
        // One worker thread: journal-event interleaving across shards is
        // scheduling-dependent at higher thread counts, and this test is
        // about byte identity, not parallelism.
        run_campus(1, 4);
        let json = obs::snapshot().deterministic_json();
        obs::set_enabled(false);
        runs.push(json);
    }
    assert!(
        runs[0].contains("{shard="),
        "deterministic projection lost the label axis: {}",
        &runs[0][..runs[0].len().min(400)]
    );
    assert!(
        !runs[0].contains("_ns\""),
        "wall-clock series leaked into the deterministic projection"
    );
    assert_eq!(
        runs[0], runs[1],
        "two identical runs produced different deterministic metrics"
    );
}
