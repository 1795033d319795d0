//! Metrics-snapshot validation for the service plane.
//!
//! `surfosd serve --metrics-json` must leave behind a machine-readable
//! document with the `rpc.*` series a fleet operator alerts on. These
//! tests check the promise two ways:
//!
//! - in-process: boot a real daemon over loopback, fire a short burst,
//!   and validate its snapshot;
//! - on a file: when `SURFOS_METRICS_CHECK` points at a snapshot written
//!   by `surfosd serve --metrics-json` (wired up by the daemon smoke arm
//!   in `scripts/lint.sh`), validate that.

use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;
use surfos::daemon::{demo_kernel, ServeOptions, Server};
use surfos::obs::{self, JsonValue};
use surfos::rpc::frame::{read_frame, write_frame};
use surfos::rpc::proto::{Request, RequestEnvelope, Response};

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Validates a serve-mode snapshot: parseable, has the request counter,
/// the per-connection accounting, whole HDR histograms (see
/// [`validate_histograms`]) and (in full snapshots) the `rpc.request_ns`
/// HDR timer with percentile fields. Returns the total request count.
fn validate_daemon_metrics(json: &str) -> Result<u64, String> {
    let doc = JsonValue::parse(json).map_err(|e| format!("bad JSON: {e}"))?;
    let counters = doc
        .get("counters")
        .and_then(JsonValue::as_object)
        .ok_or("no counters object")?;
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(k, _)| k == name || k.starts_with(&format!("{name}{{")))
            .and_then(|(_, v)| v.as_f64())
    };
    let requests = counter("rpc.requests").ok_or("no rpc.requests counter")? as u64;
    if requests == 0 {
        return Err("rpc.requests is zero — the daemon served nothing".into());
    }
    counter("rpc.conns.opened").ok_or("no rpc.conns.opened counter")?;

    // Deterministic projections reduce timers to bare counts and drop
    // `*_ns` series entirely; full snapshots (timer values are objects)
    // must expose the HDR percentiles the loadgen reports.
    let timers = doc.get("timers").and_then(JsonValue::as_object);
    let is_full = timers.is_some_and(|t| t.iter().any(|(_, v)| v.as_object().is_some()));
    if let (Some(timers), true) = (timers, is_full) {
        let rpc_timers: Vec<_> = timers
            .iter()
            .filter(|(k, _)| k.starts_with("rpc.request_ns"))
            .collect();
        if rpc_timers.is_empty() {
            return Err("full snapshot without any rpc.request_ns timer".into());
        }
        for (name, t) in rpc_timers {
            for field in ["count", "p50", "p99", "p999"] {
                let v = t
                    .get(field)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("timer {name} lacks {field}"))?;
                if field == "count" && v <= 0.0 {
                    return Err(format!("timer {name} has zero samples"));
                }
            }
        }
    }
    validate_histograms(&doc)?;
    Ok(requests)
}

/// Every `histograms` entry — in full and deterministic snapshots alike —
/// is a whole HDR distribution: all eight fields present and
/// `min ≤ p50 ≤ p90 ≤ p99 ≤ p999 ≤ max`.
fn validate_histograms(doc: &JsonValue) -> Result<(), String> {
    let hists = doc
        .get("histograms")
        .and_then(JsonValue::as_object)
        .ok_or("no histograms object")?;
    for (name, h) in hists {
        let field = |f: &str| {
            h.get(f)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("histogram {name} lacks {f}"))
        };
        field("count")?;
        field("sum")?;
        let ordered = ["min", "p50", "p90", "p99", "p999", "max"]
            .map(|f| field(f).map(|v| (f, v)))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        for pair in ordered.windows(2) {
            let ((lo_name, lo), (hi_name, hi)) = (pair[0], pair[1]);
            if lo > hi {
                return Err(format!("histogram {name}: {lo_name} {lo} > {hi_name} {hi}"));
            }
        }
    }
    Ok(())
}

#[test]
fn live_daemon_snapshot_validates() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_enabled(true);
    obs::reset();

    let server = Server::start(
        demo_kernel(),
        ServeOptions {
            tcp: Some("127.0.0.1:0".into()),
            ..ServeOptions::default()
        },
    )
    .expect("bind loopback");
    let mut c = TcpStream::connect(server.tcp_addr().unwrap()).expect("connect");
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for id in 1..=10u64 {
        let req = if id % 2 == 0 {
            Request::QueryChannel {
                tx: "ap0".into(),
                rx: "laptop".into(),
            }
        } else {
            Request::Ping
        };
        write_frame(&mut c, &RequestEnvelope::new(id, req).encode()).unwrap();
        let body = read_frame(&mut c).unwrap().expect("answer");
        assert!(!matches!(
            Response::decode(&body).unwrap().1,
            Response::Error { .. }
        ));
    }
    drop(c);
    server.stop();

    let snap = obs::snapshot();
    obs::set_enabled(false);
    let full = snap.to_json();
    let requests = validate_daemon_metrics(&full).expect("full snapshot must validate");
    assert!(requests >= 10, "served {requests} < 10");
    // The deterministic projection stays valid too (timers are dropped,
    // counters survive).
    validate_daemon_metrics(&snap.deterministic_json())
        .expect("deterministic projection must validate");
    obs::reset();
}

#[test]
fn validator_rejects_snapshots_missing_the_rpc_series() {
    assert!(validate_daemon_metrics("not json").is_err());
    assert!(validate_daemon_metrics(r#"{"counters":{}}"#)
        .unwrap_err()
        .contains("rpc.requests"));
    assert!(
        validate_daemon_metrics(r#"{"counters":{"rpc.requests":0,"rpc.conns.opened":1}}"#)
            .unwrap_err()
            .contains("zero")
    );
    // A full snapshot (object-valued timers) must carry the request timer.
    let no_timer = concat!(
        r#"{"counters":{"rpc.requests":5,"rpc.conns.opened":1},"#,
        r#""timers":{"other_ns":{"count":1,"p50":1,"p99":1,"p999":1}}}"#
    );
    assert!(validate_daemon_metrics(no_timer)
        .unwrap_err()
        .contains("rpc.request_ns"));
}

#[test]
fn validator_rejects_malformed_histograms() {
    let doc = |hist: &str| {
        format!(
            r#"{{"counters":{{"rpc.requests":5,"rpc.conns.opened":1}},"histograms":{{"h":{hist}}}}}"#
        )
    };
    let whole = r#"{"count":3,"sum":12,"min":2,"max":6,"p50":4,"p90":6,"p99":6,"p999":6}"#;
    assert_eq!(validate_daemon_metrics(&doc(whole)), Ok(5));
    for (hist, needle) in [
        // Buckets without percentiles.
        (r#"{"count":1,"sum":1,"buckets":[[1,1]]}"#, "lacks min"),
        (
            r#"{"count":3,"sum":12,"min":2,"max":6,"p50":4,"p99":6,"p999":6}"#,
            "lacks p90",
        ),
        (
            r#"{"count":3,"sum":12,"min":2,"max":6,"p50":4,"p90":7,"p99":6,"p999":6}"#,
            "p90 7 > p99 6",
        ),
        (
            r#"{"count":3,"sum":12,"min":5,"max":6,"p50":4,"p90":6,"p99":6,"p999":6}"#,
            "min 5 > p50 4",
        ),
    ] {
        let err = validate_daemon_metrics(&doc(hist)).unwrap_err();
        assert!(err.contains(needle), "{hist} -> {err}");
    }
    let no_hists = r#"{"counters":{"rpc.requests":5,"rpc.conns.opened":1}}"#;
    assert!(validate_daemon_metrics(no_hists)
        .unwrap_err()
        .contains("histograms"));
}

/// File-validation arm for `scripts/lint.sh`: when `SURFOS_METRICS_CHECK`
/// names a snapshot written by `surfosd serve --metrics-json`, validate
/// it; otherwise a no-op so plain `cargo test` stays hermetic.
#[test]
fn metrics_file_from_env_validates() {
    let Ok(path) = std::env::var("SURFOS_METRICS_CHECK") else {
        return;
    };
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("SURFOS_METRICS_CHECK={path}: {e}"));
    let requests = validate_daemon_metrics(&json)
        .unwrap_or_else(|e| panic!("{path}: invalid daemon metrics: {e}"));
    assert!(requests > 0, "{path}: no requests recorded");
}
