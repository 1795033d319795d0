//! The traced run's per-layer breakdown.
//!
//! Two sources feed it: the benchmark's own spans around each public call
//! ([`SpanLog`]), and the spans, counters and timers the program already
//! records, read through `surfos_obs::snapshot()`. Span self time is the
//! span's total minus its direct children's totals, per span path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use surfos::obs::Snapshot;

/// Every per-layer metric, in table order: (layer, name, unit, better).
pub const PER_LAYER: [(&str, &str, &str, &str); 44] = [
    ("core::kernel", "kernel.step_ms", "ms", "lower"),
    ("core::kernel", "kernel.schedule.self_ms", "ms", "lower"),
    ("core::kernel", "kernel.optimize.self_ms", "ms", "lower"),
    ("core::kernel", "kernel.push.self_ms", "ms", "lower"),
    ("core::kernel", "kernel.sync.self_ms", "ms", "lower"),
    ("core::kernel", "kernel.useful_opt_ratio", "ratio", "higher"),
    ("orchestrator", "orchestrator.adam.self_ms", "ms", "lower"),
    ("orchestrator", "orchestrator.adam_iter_us", "us", "lower"),
    (
        "orchestrator",
        "orchestrator.adam.iters",
        "iters/step",
        "lower",
    ),
    (
        "orchestrator",
        "orchestrator.optimize_slot.self_ms",
        "ms",
        "lower",
    ),
    ("channel", "channel.linearize.self_ms", "ms", "lower"),
    ("channel", "channel.par.threads_mean", "threads", "lower"),
    ("channel", "channel.par.chunk_items_mean", "items", "higher"),
    ("channel", "channel.lincache.hit_ratio", "ratio", "higher"),
    ("channel", "channel.lincache.lookup_us", "us", "lower"),
    ("channel", "channel.paths_patched_ratio", "ratio", "higher"),
    ("channel", "channel.index.builds", "count", "lower"),
    ("geometry", "geometry.bvh.visit_ratio", "ratio", "lower"),
    ("geometry", "geometry.bvh.build_ms", "ms", "lower"),
    ("core::shard", "shard.replay_tick_ms", "ms", "lower"),
    ("core::shard", "shard.linearize_links_ms", "ms", "lower"),
    ("core::shard", "kernel.shard.route.self_ms", "ms", "lower"),
    ("core::shard", "kernel.shard.eval.self_ms", "ms", "lower"),
    (
        "core::shard",
        "kernel.shard.linearize.self_ms",
        "ms",
        "lower",
    ),
    ("core::shard", "shard.handoffs", "count", "lower"),
    ("core::shard", "shard.tick_unattributed_ms", "ms", "lower"),
    ("hw", "hw.push_us", "us", "lower"),
    ("hw", "hw.wire_bytes_per_push", "B/push", "lower"),
    ("core::rpc", "rpc.codec_us.query", "us", "lower"),
    ("core::rpc", "rpc.codec_us.ping", "us", "lower"),
    ("core::rpc", "rpc.codec_us.register", "us", "lower"),
    ("core::rpc", "rpc.codec_us.release", "us", "lower"),
    ("core::daemon", "daemon.dispatch_us.query", "us", "lower"),
    ("core::daemon", "daemon.dispatch_us.ping", "us", "lower"),
    ("core::daemon", "daemon.dispatch_us.register", "us", "lower"),
    ("core::daemon", "daemon.dispatch_us.release", "us", "lower"),
    ("core::daemon", "daemon.server_p50_us", "us", "lower"),
    ("core::daemon", "daemon.server_p99_us", "us", "lower"),
    ("core::daemon", "daemon.tick_p50_ms", "ms", "lower"),
    ("core::daemon", "daemon.tick_p99_ms", "ms", "lower"),
    ("core::daemon", "daemon.wait_us", "us", "lower"),
    ("broker", "broker.reject_ratio", "ratio", "lower"),
    ("obs", "obs.overhead_frac", "ratio", "lower"),
    ("obs", "kernel.monitor_ms", "ms", "lower"),
];

/// The benchmark's own spans: kept in memory, written once at the end.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    records: Vec<(&'static str, u64, u64, u64)>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            records: Vec::new(),
        }
    }

    /// Records one span of operation `op` that started at `start`.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        let at = start.duration_since(self.epoch).as_nanos() as u64;
        let dur = end.duration_since(start).as_nanos() as u64;
        self.records.push((name, op, at, dur));
    }

    /// Mean duration of the spans called `name`, ms (0 when none).
    pub fn mean_ms(&self, name: &str) -> (f64, u64) {
        let (n, total) = self
            .records
            .iter()
            .filter(|r| r.0 == name)
            .fold((0u64, 0u64), |(n, t), r| (n + 1, t + r.3));
        (
            if n == 0 {
                0.0
            } else {
                total as f64 / n as f64 / 1e6
            },
            n,
        )
    }

    /// One JSON object per span: name, operation id, start and duration.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, op, at, dur) in &self.records {
            let _ = writeln!(
                out,
                "{{\"span\": \"{name}\", \"op\": {op}, \"start_ns\": {at}, \"dur_ns\": {dur}}}"
            );
        }
        out
    }
}

/// One row of the layer table.
#[derive(Debug, Clone)]
pub struct LayerRow {
    pub layer: &'static str,
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Share of the traced operation's mean time, for time metrics.
    pub share: Option<f64>,
    /// The counts the value was derived from.
    pub base: String,
}

/// Measurements the snapshot cannot supply.
#[derive(Debug, Default)]
pub struct Extra {
    /// `rpc.codec_us.<op>` and `daemon.dispatch_us.<op>`, µs.
    pub codec_us: BTreeMap<&'static str, f64>,
    pub dispatch_us: BTreeMap<&'static str, f64>,
    /// Client latency timed from send, median, µs (serve workloads).
    pub client_from_send_p50_us: Option<f64>,
    /// Request mix shares, for the weighted dispatch + codec cost.
    pub mix: BTreeMap<&'static str, f64>,
}

/// Everything the table is computed from.
pub struct Inputs<'a> {
    /// Snapshot over the traced operations only.
    pub ops_snap: &'a Snapshot,
    /// Snapshot over one traced set-up.
    pub setup_snap: &'a Snapshot,
    pub spans: &'a SpanLog,
    /// Traced operations and their mean latency, ms.
    pub ops: u64,
    pub op_mean_ms: f64,
    /// Median op latency with obs off and with obs on (same run).
    pub untraced_p50_ms: f64,
    pub traced_p50_ms: f64,
    /// Worker threads the sharded kernel fans out on.
    pub workers: usize,
    pub extra: &'a Extra,
}

fn leaf(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Unlabeled span paths (labeled keys fold into these).
fn flat_spans(snap: &Snapshot) -> impl Iterator<Item = (&String, &surfos::obs::SpanSnapshot)> {
    snap.spans.iter().filter(|(k, _)| !k.contains('{'))
}

/// Self time of every path whose leaf is `name`: total minus the totals
/// of its direct children. Returns (ns, span count).
pub fn self_ns(snap: &Snapshot, name: &str) -> (u64, u64) {
    let mut ns = 0u64;
    let mut count = 0u64;
    for (path, span) in flat_spans(snap).filter(|(p, _)| leaf(p) == name) {
        let children: u64 = flat_spans(snap)
            .filter(|(q, _)| {
                q.len() > path.len() + 1
                    && q.starts_with(path.as_str())
                    && q.as_bytes()[path.len()] == b'/'
                    && !q[path.len() + 1..].contains('/')
            })
            .map(|(_, s)| s.total_ns)
            .sum();
        ns += span.total_ns.saturating_sub(children);
        count += span.count;
    }
    (ns, count)
}

/// Total time (children included) of every path whose leaf is `name`.
fn total_ns(snap: &Snapshot, name: &str) -> (u64, u64) {
    flat_spans(snap)
        .filter(|(p, _)| leaf(p) == name)
        .fold((0, 0), |(ns, n), (_, s)| (ns + s.total_ns, n + s.count))
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Builds the table: one row per [`PER_LAYER`] metric, in that order.
pub fn table(inp: &Inputs) -> Vec<LayerRow> {
    let s = inp.ops_snap;
    let ops = inp.ops.max(1) as f64;
    let per_op_ms = |ns: u64| ns as f64 / 1e6 / ops;
    let mut rows = Vec::with_capacity(PER_LAYER.len());
    let mut push = |name: &'static str, value: f64, time_ms: Option<f64>, base: String| {
        let &(layer, _, unit, _) = PER_LAYER
            .iter()
            .find(|m| m.1 == name)
            .expect("metric listed in PER_LAYER");
        rows.push(LayerRow {
            layer,
            name,
            unit,
            value,
            share: time_ms.map(|t| ratio(t, inp.op_mean_ms)),
            base,
        });
    };
    let self_row = |name: &str| {
        let (ns, n) = self_ns(s, name);
        (per_op_ms(ns), format!("{n} spans / {} ops", inp.ops))
    };

    // core::kernel
    let (bench_step_ms, bench_steps) = inp.spans.mean_ms("kernel.step");
    let (step_ns, steps) = total_ns(s, "kernel.step");
    let (step_ms, base) = if bench_steps > 0 {
        (bench_step_ms, format!("{bench_steps} benchmark spans"))
    } else {
        (
            ratio(step_ns as f64 / 1e6, steps as f64),
            format!("{steps} kernel.step spans (daemon ticker)"),
        )
    };
    push("kernel.step_ms", step_ms, None, base);
    for (metric, span) in [
        ("kernel.schedule.self_ms", "kernel.schedule"),
        ("kernel.optimize.self_ms", "kernel.optimize"),
        ("kernel.push.self_ms", "kernel.push"),
        ("kernel.sync.self_ms", "kernel.sync"),
    ] {
        let (ms, base) = self_row(span);
        push(metric, ms, Some(ms), base);
    }
    let (pushed, opts) = (
        counter(s, "kernel.configs_pushed"),
        counter(s, "kernel.optimizations"),
    );
    push(
        "kernel.useful_opt_ratio",
        ratio(pushed as f64, opts as f64),
        None,
        format!("{pushed} configs pushed / {opts} optimizations"),
    );

    // orchestrator: Adam's per-iteration spans are part of Adam.
    let (adam_ns, adam_n) = self_ns(s, "orchestrator.adam");
    let (iter_ns, iters) = self_ns(s, "orchestrator.adam.iter");
    let adam_ms = per_op_ms(adam_ns + iter_ns);
    push(
        "orchestrator.adam.self_ms",
        adam_ms,
        Some(adam_ms),
        format!("{adam_n} runs, {iters} iterations / {} ops", inp.ops),
    );
    let (iter_total, iter_n) = total_ns(s, "orchestrator.adam.iter");
    push(
        "orchestrator.adam_iter_us",
        ratio(iter_total as f64 / 1e3, iter_n as f64),
        None,
        format!("{iter_n} iterations"),
    );
    let adam_iters = counter(s, "orchestrator.adam.iters");
    push(
        "orchestrator.adam.iters",
        ratio(adam_iters as f64, steps as f64),
        None,
        format!("{adam_iters} iterations / {steps} kernel steps"),
    );
    let (ms, base) = self_row("orchestrator.optimize_slot");
    push("orchestrator.optimize_slot.self_ms", ms, Some(ms), base);

    // channel
    let (ms, base) = self_row("channel.linearize");
    push("channel.linearize.self_ms", ms, Some(ms), base);
    for (metric, hist) in [
        ("channel.par.threads_mean", "channel.par.threads"),
        ("channel.par.chunk_items_mean", "channel.par.chunk_items"),
    ] {
        let (sum, n) = s.histograms.get(hist).map_or((0, 0), |h| (h.sum, h.count));
        push(
            metric,
            ratio(sum as f64, n as f64),
            None,
            format!("{n} fan-outs"),
        );
    }
    // A refresh is a cache entry patched in place for moved blockers: the
    // cache served it without a full trace, so it counts as a hit.
    let (hits, refreshes, misses) = (
        counter(s, "channel.lincache.hits"),
        counter(s, "channel.lincache.refreshes"),
        counter(s, "channel.lincache.misses"),
    );
    let lookups = hits + refreshes + misses;
    push(
        "channel.lincache.hit_ratio",
        ratio((hits + refreshes) as f64, lookups as f64),
        None,
        format!("({hits} hits + {refreshes} refreshes) / {lookups} lookups"),
    );
    let (lsum, ln) = s
        .timers
        .get("channel.lincache.lookup_ns")
        .map_or((0, 0), |t| (t.sum, t.count));
    push(
        "channel.lincache.lookup_us",
        ratio(lsum as f64 / 1e3, ln as f64),
        None,
        format!("{ln} lookups"),
    );
    let (patched, retraced) = (
        counter(s, "channel.paths_patched"),
        counter(s, "channel.paths_retraced"),
    );
    push(
        "channel.paths_patched_ratio",
        ratio(patched as f64, (patched + retraced) as f64),
        None,
        format!("{patched} patched / {} refreshed paths", patched + retraced),
    );
    let builds = counter(s, "channel.index.builds");
    push(
        "channel.index.builds",
        builds as f64,
        None,
        format!("during {} ops", inp.ops),
    );

    // geometry: BVH builds happen in set-up, so both phases count.
    let (visited, brute) = (
        counter(s, "geometry.bvh.nodes_visited"),
        counter(s, "geometry.bvh.brute_walls"),
    );
    push(
        "geometry.bvh.visit_ratio",
        ratio(visited as f64, brute as f64),
        None,
        format!("{visited} nodes visited / {brute} brute-force wall tests"),
    );
    let (bsum, bn) = [inp.setup_snap, s]
        .iter()
        .filter_map(|snap| snap.histograms.get("geometry.bvh.build_ns"))
        .fold((0u64, 0u64), |(a, b), h| (a + h.sum, b + h.count));
    push(
        "geometry.bvh.build_ms",
        ratio(bsum as f64 / 1e6, bn as f64),
        None,
        format!("{bn} builds (set-up and ops)"),
    );

    // core::shard
    let (tick_ms, ticks) = inp.spans.mean_ms("shard.replay_tick");
    push(
        "shard.replay_tick_ms",
        tick_ms,
        Some(tick_ms),
        format!("{ticks} benchmark spans"),
    );
    let (lin_ms, lins) = inp.spans.mean_ms("shard.linearize_links");
    push(
        "shard.linearize_links_ms",
        lin_ms,
        None,
        format!("{lins} benchmark spans"),
    );
    let mut shard_self_ns = 0;
    for (metric, span) in [
        ("kernel.shard.route.self_ms", "kernel.shard.route"),
        ("kernel.shard.eval.self_ms", "kernel.shard.eval"),
        ("kernel.shard.linearize.self_ms", "kernel.shard.linearize"),
    ] {
        if span != "kernel.shard.linearize" {
            shard_self_ns += total_ns(s, span).0;
        }
        let (ms, base) = self_row(span);
        push(metric, ms, Some(ms), base);
    }
    let handoffs = counter(s, "kernel.shard.handoffs");
    push(
        "shard.handoffs",
        handoffs as f64,
        None,
        format!("during {} ops", inp.ops),
    );
    // Shard spans run on `workers` threads at once; their total divided
    // by the worker count estimates the tick's covered wall time
    // (balanced chunks assumed). The rest is spawn, join and waiting.
    let covered_ms = ratio(
        shard_self_ns as f64 / 1e6 / inp.workers.max(1) as f64,
        ticks as f64,
    );
    let unattributed = if ticks > 0 {
        (tick_ms - covered_ms).max(0.0)
    } else {
        0.0
    };
    push(
        "shard.tick_unattributed_ms",
        unattributed,
        None,
        format!(
            "{ticks} ticks, route+eval spans over {} workers",
            inp.workers
        ),
    );

    // hw
    let (push_ns, pushes) = self_ns(s, "kernel.push");
    push(
        "hw.push_us",
        ratio(push_ns as f64 / 1e3, pushes as f64),
        None,
        format!("{pushes} push phases"),
    );
    let wire = counter(s, "kernel.wire_bytes");
    push(
        "hw.wire_bytes_per_push",
        ratio(wire as f64, pushed as f64),
        None,
        format!("{wire} B / {pushed} configs pushed"),
    );

    // core::rpc and core::daemon (in-process, on the workload's stream)
    for (op, name) in [
        ("query", "rpc.codec_us.query"),
        ("ping", "rpc.codec_us.ping"),
        ("register", "rpc.codec_us.register"),
        ("release", "rpc.codec_us.release"),
    ] {
        let v = inp.extra.codec_us.get(op).copied().unwrap_or(0.0);
        push(name, v, None, "frame + proto round trip".into());
    }
    for (op, name) in [
        ("query", "daemon.dispatch_us.query"),
        ("ping", "daemon.dispatch_us.ping"),
        ("register", "daemon.dispatch_us.register"),
        ("release", "daemon.dispatch_us.release"),
    ] {
        let v = inp.extra.dispatch_us.get(op).copied().unwrap_or(0.0);
        push(name, v, None, "Dispatcher::dispatch in-process".into());
    }
    let server = s.timers.get("rpc.request_ns");
    let server_n = server.map_or(0, |t| t.count);
    push(
        "daemon.server_p50_us",
        server.map_or(0.0, |t| t.p50 as f64 / 1e3),
        None,
        format!("{server_n} requests"),
    );
    push(
        "daemon.server_p99_us",
        server.map_or(0.0, |t| t.p99 as f64 / 1e3),
        None,
        format!("{server_n} requests"),
    );
    let tick = s.spans.get("daemon.tick");
    let tick_n = tick.map_or(0, |t| t.count);
    push(
        "daemon.tick_p50_ms",
        tick.map_or(0.0, |t| t.p50_ns as f64 / 1e6),
        None,
        format!("{tick_n} ticks"),
    );
    push(
        "daemon.tick_p99_ms",
        tick.map_or(0.0, |t| t.p99_ns as f64 / 1e6),
        None,
        format!("{tick_n} ticks"),
    );
    let wait = inp.extra.client_from_send_p50_us.map_or(0.0, |client| {
        let served: f64 = inp
            .extra
            .mix
            .iter()
            .map(|(op, share)| {
                share
                    * (inp.extra.dispatch_us.get(op).copied().unwrap_or(0.0)
                        + inp.extra.codec_us.get(op).copied().unwrap_or(0.0))
            })
            .sum();
        (client - served).max(0.0)
    });
    push(
        "daemon.wait_us",
        wait,
        None,
        "client p50 from send - mix-weighted dispatch - codec".into(),
    );

    // broker
    let (rejected, registers) = (
        counter(s, "rpc.rejected{op=register}"),
        counter(s, "rpc.requests{op=register}"),
    );
    push(
        "broker.reject_ratio",
        ratio(rejected as f64, registers as f64),
        None,
        format!("{rejected} rejected / {registers} admissions"),
    );

    // obs
    push(
        "obs.overhead_frac",
        ratio(inp.traced_p50_ms, inp.untraced_p50_ms) - 1.0,
        None,
        format!(
            "traced p50 {:.4} ms / untraced p50 {:.4} ms",
            inp.traced_p50_ms, inp.untraced_p50_ms
        ),
    );
    let (mon_ns, mon_n) = total_ns(s, "kernel.monitor");
    let mon_ms = per_op_ms(mon_ns);
    push(
        "kernel.monitor_ms",
        mon_ms,
        Some(mon_ms),
        format!("{mon_n} monitor passes (obs-only work)"),
    );
    rows
}

/// The table as aligned text.
pub fn render(rows: &[LayerRow], workload: &str, op_mean_ms: f64, ops: u64) -> String {
    let mut out = format!(
        "layer table: {workload} (traced ops: {ops}, mean {op_mean_ms:.4} ms/op)\n\
         {:<13} {:<34} {:>14} {:<10} {:>8}  base\n",
        "layer", "metric", "value", "unit", "share"
    );
    for r in rows {
        let share = r
            .share
            .map_or_else(|| "-".to_string(), |s| format!("{:.1}%", 100.0 * s));
        let _ = writeln!(
            out,
            "{:<13} {:<34} {:>14.6} {:<10} {:>8}  {}",
            r.layer, r.name, r.value, r.unit, share, r.base
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfos::obs::SpanSnapshot;

    fn span(total_ns: u64, count: u64) -> SpanSnapshot {
        SpanSnapshot {
            count,
            total_ns,
            ..Default::default()
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut snap = Snapshot::default();
        snap.spans.insert("a".into(), span(100, 1));
        snap.spans.insert("a/b".into(), span(60, 2));
        snap.spans.insert("a/b/c".into(), span(50, 2));
        snap.spans.insert("a/d".into(), span(10, 1));
        snap.spans.insert("a/b{shard=0}".into(), span(60, 2));
        assert_eq!(self_ns(&snap, "a"), (30, 1));
        assert_eq!(self_ns(&snap, "b"), (10, 2));
        assert_eq!(self_ns(&snap, "c"), (50, 2));
        assert_eq!(total_ns(&snap, "b"), (60, 2));
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.1).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
