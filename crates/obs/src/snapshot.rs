//! Point-in-time snapshots of the registry: sorted, merged, serializable.

use std::collections::BTreeMap;

use crate::hdr::HdrHist;
use crate::json::{JsonObject, ToJson};

/// A merged log-linear (HDR) distribution of a series recorded with
/// `obs::observe` or `obs::observe_ns`. Percentile fields obey the `hdr`
/// module's accuracy contract — within `2⁻⁷` (< 1 %, i.e. two significant
/// digits) *above* the true sample quantile, never below.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HdrSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub p999: u64,
}

impl HdrSnapshot {
    pub(crate) fn from_hist(h: &HdrHist) -> Self {
        HdrSnapshot {
            count: h.count,
            sum: h.sum,
            min: h.min(),
            max: h.max,
            p50: h.value_at_quantile(0.50),
            p90: h.value_at_quantile(0.90),
            p99: h.value_at_quantile(0.99),
            p999: h.value_at_quantile(0.999),
        }
    }
}

/// One path in the span tree: how many times it ran and for how long, with
/// HDR tail percentiles (same accuracy contract as [`HdrSnapshot`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanSnapshot {
    pub count: u64,
    pub total_ns: u64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
}

impl SpanSnapshot {
    pub(crate) fn from_hist(h: &HdrHist) -> Self {
        SpanSnapshot {
            count: h.count,
            total_ns: h.sum,
            p50_ns: h.value_at_quantile(0.50),
            p90_ns: h.value_at_quantile(0.90),
            p99_ns: h.value_at_quantile(0.99),
            p999_ns: h.value_at_quantile(0.999),
            max_ns: h.max,
        }
    }
}

/// One journal event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventSnapshot {
    pub seq: u64,
    pub category: String,
    pub message: String,
}

/// Everything the registry knows, merged across shards and sorted by name.
///
/// Keys may carry a label suffix (`kernel.steps{shard=3}`, see
/// [`crate::scoped`]); every labeled series is also folded into its
/// unlabeled base key, so flat totals are sums over labels. Counters,
/// gauge values, histograms and journal events are deterministic across
/// identical runs; span durations, timer durations and any `*_ns`-named
/// series are wall-clock and are excluded by
/// [`Snapshot::deterministic_json`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    /// Value distributions recorded via `obs::observe`.
    pub histograms: BTreeMap<String, HdrSnapshot>,
    /// Duration distributions recorded via `obs::observe_ns`.
    pub timers: BTreeMap<String, HdrSnapshot>,
    pub spans: BTreeMap<String, SpanSnapshot>,
    pub events: Vec<EventSnapshot>,
}

/// The metric name without any `{label=value}` suffix.
pub fn base_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// The `dim=value,...` label body of a snapshot key, if it has one.
pub fn label_body(key: &str) -> Option<&str> {
    let start = key.find('{')?;
    key[start + 1..].strip_suffix('}')
}

impl ToJson for HdrSnapshot {
    fn write_json(&self, out: &mut String) {
        JsonObject::new(out)
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("p50", &self.p50)
            .field("p90", &self.p90)
            .field("p99", &self.p99)
            .field("p999", &self.p999)
            .end();
    }
}

impl ToJson for SpanSnapshot {
    fn write_json(&self, out: &mut String) {
        JsonObject::new(out)
            .field("count", &self.count)
            .field("total_ns", &self.total_ns)
            .field("p50_ns", &self.p50_ns)
            .field("p90_ns", &self.p90_ns)
            .field("p99_ns", &self.p99_ns)
            .field("p999_ns", &self.p999_ns)
            .field("max_ns", &self.max_ns)
            .end();
    }
}

impl ToJson for EventSnapshot {
    fn write_json(&self, out: &mut String) {
        JsonObject::new(out)
            .field("seq", &self.seq)
            .field("category", &self.category)
            .field("message", &self.message)
            .end();
    }
}

impl ToJson for Snapshot {
    fn write_json(&self, out: &mut String) {
        JsonObject::new(out)
            .field("counters", &self.counters)
            .field("gauges", &self.gauges)
            .field("histograms", &self.histograms)
            .field("timers", &self.timers)
            .field("spans", &self.spans)
            .field("events", &self.events)
            .end();
    }
}

impl Snapshot {
    /// The full snapshot as a JSON document (includes wall-clock fields).
    pub fn to_json(&self) -> String {
        crate::json::to_json(self)
    }

    /// The deterministic projection as JSON: identical runs produce
    /// byte-identical output. Span and timer durations and `*_ns` series
    /// are dropped; span and timer *counts* and whole histograms are kept.
    /// Label suffixes are ignored when testing the `_ns` convention.
    /// Histograms hold recorded values, not clock readings, so every
    /// field of theirs is run-invariant. See module docs on determinism.
    pub fn deterministic_json(&self) -> String {
        fn stable<V>(map: &BTreeMap<String, V>) -> impl Iterator<Item = (&str, &V)> {
            map.iter()
                .map(|(name, v)| (name.as_str(), v))
                .filter(|(name, _)| !base_name(name).ends_with("_ns"))
        }
        let counters: BTreeMap<&str, u64> = stable(&self.counters).map(|(k, v)| (k, *v)).collect();
        let gauges: BTreeMap<&str, f64> = stable(&self.gauges).map(|(k, v)| (k, *v)).collect();
        let histograms: BTreeMap<&str, &HdrSnapshot> = stable(&self.histograms).collect();
        let timers: BTreeMap<&str, u64> = stable(&self.timers).map(|(k, v)| (k, v.count)).collect();
        let spans: BTreeMap<&str, u64> = self
            .spans
            .iter()
            .map(|(k, v)| (k.as_str(), v.count))
            .collect();
        let mut out = String::new();
        JsonObject::new(&mut out)
            .field("counters", &counters)
            .field("gauges", &gauges)
            .field("histograms", &histograms)
            .field("timers", &timers)
            .field("spans", &spans)
            .field("events", &self.events)
            .end();
        out
    }

    /// Human-readable report: the span tree (indented by nesting depth),
    /// counters, gauges, timers with tail percentiles, the busiest
    /// histograms, and the journal tail.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();

        out.push_str("spans\n");
        if self.spans.is_empty() {
            out.push_str("  (none)\n");
        }
        for (path, s) in &self.spans {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let _ = writeln!(
                out,
                "  {:indent$}{:<w$} count {:>8}  total {:>10}  p50 {:>10}  p99 {:>10}",
                "",
                name,
                s.count,
                fmt_ns(s.total_ns),
                fmt_ns(s.p50_ns),
                fmt_ns(s.p99_ns),
                indent = depth * 2,
                w = 36usize.saturating_sub(depth * 2),
            );
        }

        out.push_str("counters\n");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "  {name:<38} {v}");
        }
        out.push_str("gauges\n");
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "  {name:<38} {v}");
        }

        if !self.timers.is_empty() {
            out.push_str("timers\n");
            for (name, t) in &self.timers {
                let _ = writeln!(
                    out,
                    "  {:<38} count {:>8}  p50 {:>9}  p99 {:>9}  p999 {:>9}  max {:>9}",
                    name,
                    t.count,
                    fmt_ns(t.p50),
                    fmt_ns(t.p99),
                    fmt_ns(t.p999),
                    fmt_ns(t.max),
                );
            }
        }

        out.push_str("histograms (busiest first)\n");
        let mut hists: Vec<_> = self.histograms.iter().collect();
        hists.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(b.0)));
        for (name, h) in hists.into_iter().take(8) {
            let _ = writeln!(
                out,
                "  {:<38} count {:>8}  p50 {:>9}  p99 {:>9}  max {:>9}",
                name, h.count, h.p50, h.p99, h.max,
            );
        }

        out.push_str("journal (tail)\n");
        let skip = self.events.len().saturating_sub(10);
        for e in &self.events[skip..] {
            let _ = writeln!(out, "  [{:>6}] {:<16} {}", e.seq, e.category, e.message);
        }
        out
    }
}

/// Formats nanoseconds with a human unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}
