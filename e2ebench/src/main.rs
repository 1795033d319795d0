//! End-to-end benchmark for SurfOS.
//!
//! ```text
//! e2ebench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! e2ebench compare <old-result.json> <new-result.json>
//! ```
//!
//! Workloads: `apartment_optimize`, `campus_walk`, `serve_query`,
//! `serve_tick` (see README.md). With `--trace 0` the run measures the
//! end-to-end metrics with observability off; with `--trace 1` it
//! alternates obs-off and obs-on blocks and reports the per-layer table.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Results, the layer
//! table and the benchmark's own spans are written to `results/` beside
//! this package's manifest.

mod host;
mod kernel_wl;
mod layers;
mod serve_wl;
mod stats;

use host::Fingerprint;
use layers::{Extra, LayerRow, SpanLog};
use stats::{median, Tally};
use std::path::PathBuf;
use std::process::ExitCode;
use surfos::obs::{to_json, JsonValue, Snapshot};

/// Set-ups per run; `setup_s` is their median. The first comes before
/// the first timed operation and the others are spread evenly over the
/// run, each between two timed stretches, so that one burst of host
/// interference cannot inflate them all.
pub const SETUPS: usize = 7;

/// Every workload; `BENCHMARK.json` gates the first three (see README.md
/// for why `serve_tick` is run but not gated).
pub const WORKLOADS: [&str; 4] = [
    "apartment_optimize",
    "campus_walk",
    "serve_query",
    "serve_tick",
];

/// The end-to-end metrics: (name, unit, better, bound). Metrics with a
/// bound are the ones `BENCHMARK.json` gates; the others are printed and
/// recorded but are zero, absent or too noisy on a shared host to gate
/// (see README.md).
pub const END_TO_END: [(&str, &str, &str, Option<f64>); 9] = [
    ("setup_s", "s", "lower", Some(0.25)),
    ("op_p50_ms", "ms", "lower", None),
    ("op_tail_ms", "ms", "lower", None),
    ("ops_per_s", "1/s", "higher", None),
    ("cpu_ms_per_op", "ms", "lower", None),
    ("error_frac", "ratio", "lower", None),
    ("gen_late_ms", "ms", "lower", None),
    ("served_snr_db", "dB", "higher", None),
    ("peak_rss_mb", "MiB", "lower", Some(0.2)),
];

/// What one workload run measured.
#[derive(Default)]
pub struct Measured {
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Operation latencies with obs off / on, ms, in the order the
    /// operations were due.
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub tally: Tally,
    pub window_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Share of host CPU time stolen by the hypervisor while timing.
    pub steal_frac: f64,
    pub gen_late_ms: Option<Vec<f64>>,
    pub served_snr_db: Option<f64>,
    /// Failed output checks; empty when correct.
    pub checks: Vec<String>,
    pub notes: Vec<String>,
    pub layers: Option<LayerData>,
}

pub struct LayerData {
    ops_snap: Snapshot,
    setup_snap: Snapshot,
    spans: SpanLog,
    extra: Extra,
    workers: usize,
    traced_ops: u64,
}

impl Measured {
    /// Takes a closed loop's readings.
    pub fn finish_loop(
        &mut self,
        out: kernel_wl::LoopOut,
        ops_snap: Snapshot,
        spans: SpanLog,
        workers: usize,
    ) {
        self.setup_s = out.setup_s;
        self.window_s = out.wall_s;
        self.cpu_s = out.cpu_s;
        self.peak_rss_mb = out.peak_rss_mb;
        self.steal_frac = out.steal_frac;
        let traced_ops = out.traced_ms.len() as u64;
        self.untraced_ms = out.untraced_ms;
        self.traced_ms = out.traced_ms;
        self.set_layers(
            ops_snap,
            out.setup_snap,
            spans,
            Extra::default(),
            workers,
            traced_ops,
        );
    }

    pub fn set_layers(
        &mut self,
        ops_snap: Snapshot,
        setup_snap: Snapshot,
        spans: SpanLog,
        extra: Extra,
        workers: usize,
        traced_ops: u64,
    ) {
        self.layers = Some(LayerData {
            ops_snap,
            setup_snap,
            spans,
            extra,
            workers,
            traced_ops,
        });
    }
}

/// One reported value.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: Option<f64>,
    note: String,
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The nine end-to-end metrics, from the obs-off operations.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    let lat = sorted(&m.untraced_ms);
    let attempted = m.tally.attempted.max(1) as f64;
    let mut out = Vec::new();
    for (name, unit, _, _) in END_TO_END {
        let (value, note) = match name {
            "setup_s" => (
                Some(median(&m.setup_s)),
                format!("median of {} set-ups", m.setup_s.len()),
            ),
            "op_p50_ms" => (
                (!lat.is_empty()).then(|| stats::quantile(&lat, 0.5)),
                format!("{} samples", lat.len()),
            ),
            "op_tail_ms" => match lat.is_empty() {
                true => (None, "no samples".into()),
                false => {
                    let t = stats::tail(&lat);
                    (
                        Some(t.value),
                        format!(
                            "p{:.3} ({} beyond), {} samples",
                            t.percentile, t.beyond, t.samples
                        ),
                    )
                }
            },
            "ops_per_s" => (
                Some(m.tally.ok as f64 / m.window_s),
                format!("{} good ops in {:.3} s", m.tally.ok, m.window_s),
            ),
            "cpu_ms_per_op" => (
                Some(m.cpu_s * 1e3 / attempted),
                format!("{:.2} CPU s over {} ops", m.cpu_s, m.tally.attempted),
            ),
            "error_frac" => (
                Some(m.tally.error_frac()),
                format!(
                    "{} failed of {} (wrong {}, refused {}, timed out {}, missing {})",
                    m.tally.failed(),
                    m.tally.attempted,
                    m.tally.wrong,
                    m.tally.refused,
                    m.tally.timed_out,
                    m.tally.missing
                ),
            ),
            "gen_late_ms" => match &m.gen_late_ms {
                Some(late) if !late.is_empty() => (
                    Some(stats::quantile(&sorted(late), 0.99)),
                    format!("p99 of {} sends", late.len()),
                ),
                _ => (None, "closed loop: no schedule".into()),
            },
            "served_snr_db" => (m.served_snr_db, String::new()),
            "peak_rss_mb" => (Some(m.peak_rss_mb), "VmHWM".into()),
            _ => unreachable!("every end-to-end metric is computed"),
        };
        out.push(Metric {
            name,
            unit,
            value,
            note,
        });
    }
    out
}

fn layer_rows(m: &Measured) -> Vec<LayerRow> {
    let data = m.layers.as_ref().expect("traced run records layers");
    let traced = sorted(&m.traced_ms);
    let untraced = sorted(&m.untraced_ms);
    let p50 = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            stats::quantile(v, 0.5)
        }
    };
    layers::table(&layers::Inputs {
        ops_snap: &data.ops_snap,
        setup_snap: &data.setup_snap,
        spans: &data.spans,
        ops: data.traced_ops,
        op_mean_ms: stats::mean(&m.traced_ms),
        untraced_p50_ms: p50(&untraced),
        traced_p50_ms: p50(&traced),
        workers: data.workers,
        extra: &data.extra,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

pub fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Measured {
    match name {
        "apartment_optimize" => kernel_wl::apartment(seed, seconds, trace),
        "campus_walk" => kernel_wl::campus(seed, seconds, trace),
        "serve_query" => serve_wl::run(&serve_wl::serve_query_config(), seed, seconds, trace),
        "serve_tick" => serve_wl::run(&serve_wl::serve_tick_config(), seed, seconds, trace),
        other => unreachable!("workload {other} was validated"),
    }
}

/// `--workload all`: every workload in a child process of its own, so
/// none reports memory an earlier one left resident. The children's
/// reports pass through; their result lines are merged into one, with
/// each metric prefixed by its workload.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2ebench: locating this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for name in WORKLOADS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let stdout = match child {
            Ok(out) => String::from_utf8_lossy(&out.stdout).into_owned(),
            Err(e) => {
                eprintln!("e2ebench: running {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (shown, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
        println!("{shown}");
        let Ok(result) = JsonValue::parse(last) else {
            eprintln!("e2ebench: {name} ended without a result line");
            return ExitCode::FAILURE;
        };
        let number = |key| result.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
        correct &= result.get("correct").and_then(JsonValue::as_bool) == Some(true);
        attempted += number("attempted");
        failed += number("failed");
        let fields = result.get("metrics").and_then(JsonValue::as_object);
        for (metric, v) in fields.unwrap_or_default() {
            metrics.push((
                format!("{name}.{metric}"),
                v.get("value")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN),
                v.get("unit")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_owned(),
            ));
        }
    }
    println!("{}", final_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn fmt_value(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".into(), |v| format!("{v:.6}"))
}

/// Prints the report, writes the result files and returns the metrics
/// that go on the final JSON line.
fn report(
    name: &str,
    a: &Args,
    fp: &Fingerprint,
    m: &Measured,
) -> std::io::Result<Vec<(String, f64, &'static str)>> {
    let e2e = end_to_end(m);
    println!(
        "== {name}  seed {}  seconds {}  trace {}",
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!("host: {}", fp.describe());
    for n in &m.notes {
        println!("note: {n}");
    }
    println!(
        "note: {:.1}% of host CPU time was stolen by the hypervisor while timing",
        100.0 * m.steal_frac
    );
    let label = if a.trace {
        "end-to-end (obs-off blocks of the traced run)"
    } else {
        "end-to-end"
    };
    println!("{label}:");
    for x in &e2e {
        println!(
            "  {:<14} {:>16} {:<6} {}",
            x.name,
            fmt_value(x.value),
            x.unit,
            x.note
        );
    }
    if m.checks.is_empty() {
        println!("checks: all passed");
    } else {
        for c in &m.checks {
            println!("CHECK FAILED: {c}");
        }
    }

    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let stem = format!("{name}-seed{}-trace{}", a.seed, u8::from(a.trace));
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut layer_json = String::new();
    if a.trace {
        let rows = layer_rows(m);
        let data = m.layers.as_ref().expect("layers");
        let table = layers::render(&rows, name, stats::mean(&m.traced_ms), data.traced_ops);
        print!("{table}");
        std::fs::write(dir.join(format!("{stem}-layers.txt")), &table)?;
        std::fs::write(
            dir.join(format!("{stem}-spans.jsonl")),
            data.spans.to_jsonl(),
        )?;
        layer_json = rows
            .iter()
            .map(|r| {
                format!(
                    "{}: {{\"layer\": {}, \"value\": {}, \"unit\": {}, \"share\": {}, \"base\": {}}}",
                    to_json(r.name),
                    to_json(r.layer),
                    r.value,
                    to_json(r.unit),
                    r.share.map_or("null".into(), |s| s.to_string()),
                    to_json(&r.base)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        out.extend(rows.iter().map(|r| (r.name.to_string(), r.value, r.unit)));
    } else {
        for x in &e2e {
            let gated = END_TO_END.iter().any(|d| d.0 == x.name && d.3.is_some());
            if gated {
                out.push((x.name.to_string(), x.value.unwrap_or(f64::NAN), x.unit));
            }
        }
    }
    let e2e_json = e2e
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"note\": {}}}",
                to_json(x.name),
                x.value.map_or("null".into(), |v| v.to_string()),
                to_json(x.unit),
                to_json(&x.note)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let checks = m.checks.iter().map(to_json).collect::<Vec<_>>().join(", ");
    let result = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"fingerprint\": {}, \
         \"steal_frac\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"checks\": [{checks}], \
         \"end_to_end\": {{{e2e_json}}}, \"per_layer\": {{{layer_json}}}}}\n",
        to_json(name),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        fp.to_json(),
        m.steal_frac,
        m.checks.is_empty(),
        m.tally.attempted,
        m.tally.failed()
    );
    std::fs::write(dir.join(format!("{stem}.json")), result)?;
    println!("results: {}", dir.join(format!("{stem}.json")).display());
    Ok(out)
}

fn final_line<U: AsRef<str>>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, U)],
) -> String {
    let body = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                to_json(n),
                to_json(u.as_ref())
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}")
}

/// `compare OLD NEW`: per gated metric, pass or fail against its bound;
/// "rebaseline" when the two hosts differ.
fn compare(old: &str, new: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        JsonValue::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(old)?, load(new)?);
    let fp = |v: &JsonValue| v.get("fingerprint").cloned().unwrap_or(JsonValue::Null);
    let differ = host::host_mismatches(&fp(&a), &fp(&b));
    if !differ.is_empty() {
        println!("rebaseline: hosts differ in {}", differ.join(", "));
        return Ok(true);
    }
    let mut pass = true;
    for (name, unit, better, bound) in END_TO_END {
        let get = |v: &JsonValue| {
            v.get("end_to_end")
                .and_then(|e| e.get(name))
                .and_then(|x| x.get("value"))
                .and_then(JsonValue::as_f64)
        };
        let (Some(x), Some(y)) = (get(&a), get(&b)) else {
            continue;
        };
        let worse = if better == "lower" { y - x } else { x - y };
        let share = if x != 0.0 { worse / x.abs() } else { 0.0 };
        let verdict = match bound {
            Some(bound) if share > bound => {
                pass = false;
                "FAIL"
            }
            Some(_) => "pass",
            None => "info",
        };
        println!(
            "{verdict:<5} {name:<14} {x:>14.6} -> {y:>14.6} {unit:<6} worse by {:+.1}% (bound {})",
            100.0 * share,
            bound.map_or("none".into(), |b| format!("{:.0}%", 100.0 * b))
        );
    }
    Ok(pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.get(1..3).map(|p| compare(&p[0], &p[1])) {
            Some(Ok(true)) => ExitCode::SUCCESS,
            Some(Ok(false)) => ExitCode::FAILURE,
            Some(Err(e)) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
            None => {
                eprintln!("usage: compare <old-result.json> <new-result.json>");
                ExitCode::from(2)
            }
        };
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if a.workload == "all" {
        return run_all(&a);
    }
    let fp = Fingerprint::detect();
    let m = run_workload(&a.workload, a.seed, a.seconds, a.trace);
    let metrics = match report(&a.workload, &a, &fp, &m) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("e2ebench: writing results: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = m.checks.is_empty();
    println!(
        "{}",
        final_line(correct, m.tally.attempted, m.tally.failed(), &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> JsonValue {
        JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_lists_the_gated_and_per_layer_metrics() {
        let b = manifest();
        let e2e: Vec<(String, String, String, f64)> = b
            .get("end_to_end")
            .and_then(JsonValue::as_array)
            .expect("end_to_end")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_owned(),
                    m.get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_owned(),
                    m.get("better")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_owned(),
                    m.get("bound").and_then(JsonValue::as_f64).unwrap(),
                )
            })
            .collect();
        let gated: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter_map(|(n, u, b, bound)| {
                bound.map(|x| (n.to_string(), u.to_string(), b.to_string(), x))
            })
            .collect();
        assert_eq!(e2e, gated);
        let per_layer: Vec<(String, String, String)> = b
            .get("per_layer")
            .and_then(JsonValue::as_array)
            .expect("per_layer")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_owned(),
                    m.get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_owned(),
                    m.get("better")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_owned(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String)> = layers::PER_LAYER
            .iter()
            .map(|(_, n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(per_layer, ours);
        let workloads: Vec<&str> = b
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS[..3]);
    }

    #[test]
    fn args_parse_and_reject() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let a = parse_args(&s(&[
            "--workload",
            "serve_tick",
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]))
        .expect("valid args");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_tick", 7, 2.0, true)
        );
        assert!(parse_args(&s(&["--workload", "nope"])).is_err());
        assert!(parse_args(&s(&["--workload", "all", "--trace", "2"])).is_err());
        assert!(parse_args(&s(&["--workload", "all", "--bogus"])).is_err());
    }

    /// Tiny runs of every workload: they finish, pass their output
    /// checks and report every metric. Obs is process-global, so the
    /// workloads run one after another in this one test.
    #[test]
    fn every_workload_passes_a_smoke_run() {
        for name in WORKLOADS {
            for trace in [false, true] {
                let m = run_workload(name, 3, 1.5, trace);
                assert!(m.checks.is_empty(), "{name}: {:?}", m.checks);
                assert!(m.tally.attempted > 0, "{name}");
                assert_eq!(m.tally.failed(), 0, "{name}: {:?}", m.tally);
                let e2e = end_to_end(&m);
                for (metric, _, _, bound) in END_TO_END {
                    let v = e2e.iter().find(|x| x.name == metric).and_then(|x| x.value);
                    if bound.is_some() {
                        assert!(v.is_some_and(|v| v > 0.0), "{name}: {metric} = {v:?}");
                    }
                }
                if trace {
                    assert_eq!(layer_rows(&m).len(), layers::PER_LAYER.len());
                }
            }
        }
    }
}
