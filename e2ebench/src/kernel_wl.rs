//! The closed-loop kernel workloads: `apartment_optimize` and
//! `campus_walk`. One caller issues heartbeats back to back; each
//! heartbeat is one timed operation.

use crate::layers::SpanLog;
use crate::stats::{Outcome, Rng, Tally};
use crate::{Measured, SETUPS};
use std::hint::black_box;
use std::time::{Duration, Instant};
use surfos::channel::dynamics::BlockerWalk;
use surfos::channel::{Endpoint, Linearization, OperationMode, SurfaceInstance};
use surfos::em::array::ArrayGeometry;
use surfos::em::band::NamedBand;
use surfos::geometry::{Pose, Vec3};
use surfos::obs::{self, Snapshot};
use surfos::shard::{ShardedKernel, Zone};
use surfos::shell::Shell;
use surfos::SurfOS;
use surfos_bench::scenes::{campus_plan, CampusPlan};

/// Length of one traced or untraced block in a traced run: blocks
/// alternate so both halves see the same host conditions.
pub const BLOCK: Duration = Duration::from_millis(500);

/// Latencies and resource use of one timed loop.
pub struct LoopOut {
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Obs snapshot of the first set-up (empty unless traced).
    pub setup_snap: Snapshot,
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    /// Wall and CPU seconds of the timed stretches, set-ups excluded.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub steal_frac: f64,
}

/// Where a heartbeat falls in a run.
#[derive(Debug, Clone, Copy)]
pub struct Beat {
    /// Heartbeats before this one in the run.
    pub i: u64,
    /// Heartbeats before this one since the current set-up.
    pub k: u64,
    /// Set-ups before the current one.
    pub gen: usize,
    pub traced: bool,
}

/// Sets up with `setup`, then runs `op` back to back for `seconds`.
/// Only `op` is timed; `after` checks each result outside the timed
/// region. [`SETUPS`] − 1 more set-ups are spread evenly over the run:
/// each drops the current state first and the loop goes on with the new
/// one. Their time is left out of the run's wall and CPU time, and the
/// peak memory is read before and reset after each of them, so the peak
/// covers the first set-up and the timed stretches. In a
/// traced run the first set-up is traced and obs is switched on for
/// every other [`BLOCK`] of the timed stretches.
pub fn closed_loop<S, R>(
    seconds: f64,
    trace: bool,
    mut setup: impl FnMut() -> S,
    mut op: impl FnMut(&mut S, Beat) -> R,
    mut after: impl FnMut(Beat, R),
) -> (S, LoopOut) {
    if trace {
        obs::reset();
        obs::set_enabled(true);
    }
    let t0 = Instant::now();
    let mut state = setup();
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let mut setup_snap = Snapshot::default();
    if trace {
        obs::set_enabled(false);
        setup_snap = obs::snapshot();
    }
    obs::reset();

    let mut out = LoopOut {
        setup_s: Vec::new(),
        setup_snap,
        untraced_ms: Vec::new(),
        traced_ms: Vec::new(),
        wall_s: 0.0,
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        steal_frac: 0.0,
    };
    let window = Duration::from_secs_f64(seconds);
    let ticks0 = crate::host::cpu_ticks();
    let cpu0 = crate::host::cpu_seconds();
    let start = Instant::now();
    let (mut paused, mut paused_cpu) = (Duration::ZERO, 0.0);
    // Peak memory before each later set-up; the peak is reset after it.
    let mut peak_mb = 0.0f64;
    let mut beat = Beat {
        i: 0,
        k: 0,
        gen: 0,
        traced: false,
    };
    let mut now = start;
    loop {
        let active = now - start - paused;
        if active >= window {
            break;
        }
        if setup_s.len() < SETUPS && active >= window * setup_s.len() as u32 / SETUPS as u32 {
            obs::set_enabled(false);
            let (p0, cpu) = (Instant::now(), crate::host::cpu_seconds());
            peak_mb = peak_mb.max(crate::host::peak_rss_mb());
            drop(state);
            let t0 = Instant::now();
            state = setup();
            setup_s.push(t0.elapsed().as_secs_f64());
            crate::host::reset_peak_rss();
            beat.gen += 1;
            beat.k = 0;
            now = Instant::now();
            paused += now - p0;
            paused_cpu += crate::host::cpu_seconds() - cpu;
            continue;
        }
        beat.traced = trace && active.as_nanos() / BLOCK.as_nanos() % 2 == 1;
        if trace {
            obs::set_enabled(beat.traced);
        }
        let t0 = Instant::now();
        let r = op(&mut state, beat);
        now = Instant::now();
        let ms = (now - t0).as_secs_f64() * 1e3;
        if beat.traced {
            out.traced_ms.push(ms);
        } else {
            out.untraced_ms.push(ms);
        }
        after(beat, r);
        beat.i += 1;
        beat.k += 1;
    }
    obs::set_enabled(false);
    out.setup_s = setup_s;
    out.wall_s = (start.elapsed() - paused).as_secs_f64();
    out.cpu_s = crate::host::cpu_seconds() - cpu0 - paused_cpu;
    out.peak_rss_mb = peak_mb.max(crate::host::peak_rss_mb());
    out.steal_frac = crate::host::steal_frac(ticks0, crate::host::cpu_ticks());
    (state, out)
}

// --- apartment_optimize ---------------------------------------------

/// The paper's Fig. 4 apartment script.
const DEMO_SCRIPT: &str = include_str!("../../examples/demo.surfos");

/// Seed reference for the laptop link after optimization, and the
/// tolerance of the check (the reference is printed to 0.1 dB).
pub const APARTMENT_RSS_DBM: f64 = -65.4;
pub const APARTMENT_SNR_DB: f64 = 13.6;
pub const APARTMENT_TOL_DB: f64 = 0.05;
/// Heartbeats after a set-up by which the laptop link has settled on the
/// reference (a pushed configuration is realized a step later).
const APARTMENT_SETTLE_BEATS: u64 = 4;

/// The demo script's scene and service lines: everything but its own
/// `step`, `budget` and `telemetry` commands, which the workload replaces.
fn apartment_scene() -> String {
    DEMO_SCRIPT
        .lines()
        .filter(|l| {
            let cmd = l.split_whitespace().next().unwrap_or("");
            !matches!(cmd, "step" | "budget" | "telemetry")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn apartment_setup() -> SurfOS {
    let mut shell = Shell::new();
    shell
        .run_script(&apartment_scene())
        .expect("demo scene script runs");
    let os = shell.into_kernel().expect("script boots a kernel");
    // Warm-up: the scene index build and the served link's first
    // linearization. Optimizing is the timed heartbeat's work.
    let orch = os.orchestrator();
    black_box(os.sim().link_budget(
        orch.endpoint("ap0").expect("ap0"),
        orch.endpoint("laptop").expect("laptop"),
    ));
    os
}

/// `apartment_optimize`: closed-loop `SurfOS::step(10)` heartbeats over
/// the demo apartment. The scene is the paper's fixed figure, so the
/// seed changes no input here.
pub fn apartment(_seed: u64, seconds: f64, trace: bool) -> Measured {
    let mut spans = SpanLog::new();
    let mut tally = Tally::default();
    let mut bad_steps = Vec::new();
    let mut since_setup = 0;
    let (mut os, out) = closed_loop(
        seconds,
        trace,
        apartment_setup,
        |os, b| {
            let t0 = Instant::now();
            let report = os.step(10);
            if b.traced {
                spans.record("kernel.step", b.i, t0, Instant::now());
            }
            report
        },
        |b, report| {
            let ok = report.push_errors.is_empty() && report.optimized_slots.len() == 1;
            if !ok && bad_steps.len() < 5 {
                bad_steps.push(format!(
                    "heartbeat {}: {} push errors, {} optimizations",
                    b.i,
                    report.push_errors.len(),
                    report.optimized_slots.len()
                ));
            }
            tally.record(if ok { Outcome::Ok } else { Outcome::Wrong });
            since_setup = b.k + 1;
        },
    );
    let ops_snap = obs::snapshot();
    let mut m = Measured {
        tally,
        ..Measured::default()
    };
    m.checks.extend(bad_steps);
    // A set-up late in a short run leaves too few heartbeats to settle.
    for _ in since_setup..APARTMENT_SETTLE_BEATS {
        os.step(10);
    }

    let orch = os.orchestrator();
    let (ap, laptop) = (
        orch.endpoint("ap0").expect("ap0").clone(),
        orch.endpoint("laptop").expect("laptop").clone(),
    );
    let budget = os.sim().link_budget(&ap, &laptop);
    if (budget.rss_dbm - APARTMENT_RSS_DBM).abs() > APARTMENT_TOL_DB
        || (budget.snr_db - APARTMENT_SNR_DB).abs() > APARTMENT_TOL_DB
    {
        m.checks.push(format!(
            "laptop link RSS {:.3} dBm / SNR {:.3} dB, reference {APARTMENT_RSS_DBM} dBm / \
             {APARTMENT_SNR_DB} dB ± {APARTMENT_TOL_DB}",
            budget.rss_dbm, budget.snr_db
        ));
    }
    m.served_snr_db = Some(budget.snr_db);
    m.finish_loop(out, ops_snap, spans, 1);
    m
}

// --- campus_walk ------------------------------------------------------

/// The `kernel/shard_scale` campus: 4 shelled buildings of 16 floors
/// with 42 rooms per corridor side (16 272 walls).
const BUILDINGS: usize = 4;
const FLOORS: usize = 16;
const ROOMS: usize = 42;
const LINKS: usize = 12;
/// Simulation time per heartbeat, and the cold re-linearization period.
const TICK_MS: u64 = 100;
const COLD_EVERY: u64 = 20;
/// Heartbeats after a set-up whose linearizations are checked against a
/// flat kernel (plus the last cold heartbeat of each set-up).
const CHECKPOINTS: [u64; 3] = [19, 1_999, 19_999];

/// Campus inputs drawn from the seed: the plan's partition materials
/// and every walker's speed.
struct CampusInputs {
    campus: CampusPlan,
    walks: Vec<BlockerWalk>,
}

fn campus_inputs(seed: u64) -> CampusInputs {
    let campus = campus_plan(BUILDINGS, FLOORS, ROOMS, seed);
    let mut rng = Rng::new(seed);
    let mut walks = Vec::new();
    for building in &campus.buildings {
        // One walker pacing each ground-floor corridor, cutting the
        // AP→client lines so every tick refreshes real path state.
        let o = building.origin;
        walks.push(BlockerWalk::new(
            vec![o + Vec3::xy(2.0, 6.0), o + Vec3::xy(166.0, 6.0)],
            1.4 * (0.75 + 0.5 * rng.unit()),
        ));
    }
    // A fast courier in the south street, crossing the zone boundary.
    walks.push(BlockerWalk::new(
        vec![Vec3::xy(84.0, -3.6), Vec3::xy(260.0, -3.6)],
        20.0 * (0.75 + 0.5 * rng.unit()),
    ));
    CampusInputs { campus, walks }
}

/// AP, three clients and a 16×16 reflective surface per building, as in
/// the `kernel/shard_scale` bench; default worker threads.
fn campus_kernel(inputs: &CampusInputs, zones: Vec<Zone>) -> ShardedKernel {
    let band = NamedBand::MmWave28GHz.band();
    let mut kernel = ShardedKernel::new(&inputs.campus.plan, band, zones);
    let geom = ArrayGeometry::half_wavelength(16, 16, band.wavelength_m());
    for (b, building) in inputs.campus.buildings.iter().enumerate() {
        let o = building.origin;
        kernel.add_surface(SurfaceInstance::new(
            format!("b{b}-wall"),
            Pose::wall_mounted(o + Vec3::new(2.0, 5.0, 1.8), Vec3::new(0.0, -1.0, 0.0)),
            geom,
            OperationMode::Reflective,
        ));
        for (i, client) in [
            Vec3::new(2.0, 2.0, 1.2),
            Vec3::new(84.0, 100.0, 1.2),
            Vec3::new(160.0, 216.0, 1.5),
        ]
        .into_iter()
        .enumerate()
        {
            kernel
                .add_link(
                    Endpoint::client(format!("b{b}-ap"), o + Vec3::new(84.0, 6.0, 2.5)),
                    Endpoint::client(format!("b{b}-rx{i}"), o + client),
                )
                .expect("in-building link");
        }
    }
    for walk in &inputs.walks {
        kernel.attach_walk(walk.clone());
    }
    kernel
}

/// True when two linearizations agree to the bit.
pub fn bits_eq(a: &Linearization, b: &Linearization) -> bool {
    let c = |x: &surfos::em::complex::Complex, y: &surfos::em::complex::Complex| {
        x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
    };
    c(&a.constant, &b.constant)
        && a.linear.len() == b.linear.len()
        && a.linear.iter().zip(&b.linear).all(|(x, y)| {
            x.surface == y.surface
                && x.coeffs.len() == y.coeffs.len()
                && x.coeffs.iter().zip(&y.coeffs).all(|(p, q)| c(p, q))
        })
        && a.bilinear.len() == b.bilinear.len()
        && a.bilinear.iter().zip(&b.bilinear).all(|(x, y)| {
            (x.first, x.second) == (y.first, y.second)
                && x.alpha.len() == y.alpha.len()
                && x.beta.len() == y.beta.len()
                && x.alpha.iter().zip(&y.alpha).all(|(p, q)| c(p, q))
                && x.beta.iter().zip(&y.beta).all(|(p, q)| c(p, q))
        })
}

fn all_bits_eq(a: &[Linearization], b: &[Linearization]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits_eq(x, y))
}

/// `campus_walk`: closed-loop `replay_tick(100)` heartbeats over the
/// sharded campus, each reading every link's linearization; every 20th
/// also runs a cold `linearize_links()`.
pub fn campus(seed: u64, seconds: f64, trace: bool) -> Measured {
    // Set-up: plan generation, the kernel and its zone scenes, and the
    // first tick's index build.
    let setup = || {
        let inputs = campus_inputs(seed);
        let mut k = campus_kernel(&inputs, inputs.campus.zones());
        k.replay_tick(TICK_MS);
        (inputs, k)
    };
    let mut spans = SpanLog::new();
    let mut tally = Tally::default();
    // (set-up, simulation time, linearizations) of each checked heartbeat.
    let mut checkpoints: Vec<(usize, u64, Vec<Linearization>)> = Vec::new();
    let mut last_cold: Option<(usize, u64, Vec<Linearization>)> = None;
    let mut cold_mismatch = 0u64;
    let ((inputs, _), out) = closed_loop(
        seconds,
        trace,
        setup,
        |(_, kernel), b| {
            let t0 = Instant::now();
            kernel.replay_tick(TICK_MS);
            let t1 = Instant::now();
            let lins = black_box(kernel.linearizations());
            let cold = (b.k % COLD_EVERY == COLD_EVERY - 1).then(|| {
                let t2 = Instant::now();
                let cold = black_box(kernel.linearize_links());
                if b.traced {
                    spans.record("shard.linearize_links", b.i, t2, Instant::now());
                }
                cold
            });
            if b.traced {
                spans.record("shard.replay_tick", b.i, t0, t1);
            }
            (kernel.now_ms(), lins, cold)
        },
        |b, (now_ms, lins, cold)| {
            let mut ok = lins.len() == LINKS;
            if let Some(cold) = cold {
                // Incremental and cold evaluation must agree to the bit.
                if !all_bits_eq(&lins, &cold) {
                    ok = false;
                    cold_mismatch += 1;
                }
                // Keep the checkpoints and the last cold heartbeat of
                // every set-up.
                if last_cold.as_ref().is_some_and(|l| l.0 != b.gen) {
                    checkpoints.extend(last_cold.take());
                }
                let entry = (b.gen, now_ms, lins);
                if CHECKPOINTS.contains(&b.k) {
                    checkpoints.push(entry);
                } else {
                    last_cold = Some(entry);
                }
            }
            tally.record(if ok { Outcome::Ok } else { Outcome::Wrong });
        },
    );
    let ops_snap = obs::snapshot();
    let mut m = Measured {
        tally,
        ..Measured::default()
    };
    if cold_mismatch > 0 {
        m.checks.push(format!(
            "{cold_mismatch} cold linearize_links() results differ from the incremental ones"
        ));
    }
    checkpoints.extend(last_cold);

    // Sharded vs a 1-zone flat kernel at each checkpoint tick, one flat
    // kernel per set-up.
    let mut flat: Option<(usize, ShardedKernel)> = None;
    for (gen, now_ms, lins) in &checkpoints {
        if flat.as_ref().is_none_or(|f| f.0 != *gen) {
            flat = Some((*gen, campus_kernel(&inputs, vec![Zone::all()])));
        }
        let flat = &mut flat.as_mut().expect("flat kernel").1;
        flat.replay_tick(now_ms - flat.now_ms());
        if !all_bits_eq(lins, &flat.linearizations()) {
            m.checks.push(format!(
                "sharded linearizations differ from the flat kernel at t = {now_ms} ms \
                 after set-up {gen}"
            ));
        }
    }
    if checkpoints.is_empty() {
        m.checks
            .push("run too short: no checkpoint heartbeat reached".into());
    }
    m.notes.push(format!(
        "{} checkpoint ticks compared with a 1-zone flat kernel",
        checkpoints.len()
    ));
    let workers = surfos::channel::par::configured_threads().min(BUILDINGS);
    m.finish_loop(out, ops_snap, spans, workers);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apartment_scene_drops_the_script_heartbeats() {
        let scene = apartment_scene();
        assert!(scene.contains("request link laptop 20"));
        assert!(!scene.lines().any(|l| l.starts_with("step")));
        assert!(!scene.lines().any(|l| l.starts_with("budget")));
    }
}
