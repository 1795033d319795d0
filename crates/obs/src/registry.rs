//! The global sharded registry behind the `obs` recording API.
//!
//! Counters, histograms, timers and span stats live in [`NUM_SHARDS`]
//! shards; each thread is pinned round-robin to one shard on first use, so
//! concurrent recorders (the `channel::par` fan-out) take disjoint locks.
//! Gauges and the journal are process-global (last-write-wins and strictly
//! ordered respectively — sharding either would change semantics).
//!
//! Every sharded map is keyed by `(name, label_id)` where the label id is
//! the interned suffix of the active [`crate::scoped`] label scope (0 =
//! unlabeled) — the hot path never formats or hashes label strings.
//! [`collect`] renders labeled keys as `name{shard=3}` and *folds every
//! sample into the unlabeled base key as well*, so flat totals are always
//! the sum over their labeled series and consumers that predate labels
//! (e.g. `Telemetry::from_snapshot`) keep working unchanged.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::hdr::HdrHist;
use crate::journal::Journal;
use crate::labels;
use crate::snapshot::{EventSnapshot, HdrSnapshot, Snapshot, SpanSnapshot};

/// Number of registry shards. More than the machine's thread count is
/// wasted; fewer risks two fan-out workers sharing a lock. 16 covers the
/// `channel::par` pool on every machine this runs on.
pub(crate) const NUM_SHARDS: usize = 16;

/// `(metric name, interned label-suffix id)`; id 0 means unlabeled.
type Key = (&'static str, u32);

#[derive(Default)]
struct Shard {
    counters: Mutex<HashMap<Key, u64>>,
    histograms: Mutex<HashMap<Key, HdrHist>>,
    timers: Mutex<HashMap<Key, HdrHist>>,
    /// Span stats nested by label id so the hot path can look paths up by
    /// `&str` without allocating a tuple key per drop.
    spans: Mutex<HashMap<u32, HashMap<String, HdrHist>>>,
}

struct Registry {
    shards: [Shard; NUM_SHARDS],
    gauges: Mutex<HashMap<Key, f64>>,
    journal: Mutex<Journal>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        shards: std::array::from_fn(|_| Shard::default()),
        gauges: Mutex::new(HashMap::new()),
        journal: Mutex::new(Journal::new()),
    })
}

/// Poison-tolerant lock: metrics must keep working after an unrelated panic
/// in some other recording thread (e.g. a failing test).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn my_shard() -> &'static Shard {
    let idx = MY_SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % NUM_SHARDS;
            s.set(v);
            v
        }
    });
    &registry().shards[idx]
}

pub(crate) fn record_counter(name: &'static str, delta: u64) {
    let key = (name, labels::current());
    *lock(&my_shard().counters).entry(key).or_insert(0) += delta;
}

pub(crate) fn record_gauge(name: &'static str, value: f64) {
    lock(&registry().gauges).insert((name, labels::current()), value);
}

pub(crate) fn record_hist(name: &'static str, value: u64) {
    record_into(&my_shard().histograms, name, value);
}

pub(crate) fn record_timer(name: &'static str, ns: u64) {
    record_into(&my_shard().timers, name, ns);
}

fn record_into(map: &Mutex<HashMap<Key, HdrHist>>, name: &'static str, value: u64) {
    lock(map)
        .entry((name, labels::current()))
        .or_default()
        .record(value);
}

pub(crate) fn record_span(path: &str, ns: u64) {
    let lid = labels::current();
    let mut spans = lock(&my_shard().spans);
    let by_path = spans.entry(lid).or_default();
    match by_path.get_mut(path) {
        Some(h) => h.record(ns),
        None => {
            let mut h = HdrHist::new();
            h.record(ns);
            by_path.insert(path.to_owned(), h);
        }
    }
}

pub(crate) fn record_event(category: &'static str, message: String) {
    lock(&registry().journal).push(category, message);
    if crate::trace::enabled() {
        crate::trace::instant(category);
    }
}

pub(crate) fn reset() {
    let reg = registry();
    for shard in &reg.shards {
        lock(&shard.counters).clear();
        lock(&shard.histograms).clear();
        lock(&shard.timers).clear();
        lock(&shard.spans).clear();
    }
    lock(&reg.gauges).clear();
    lock(&reg.journal).clear();
    labels::reset();
    crate::trace::reset();
}

/// Renders `(name, label_id)` as the snapshot key: `name` or
/// `name{shard=3}`.
fn full_key(name: &str, lid: u32, bodies: &[String]) -> String {
    match lid {
        0 => name.to_owned(),
        _ => {
            let body = bodies
                .get(lid as usize - 1)
                .map(String::as_str)
                .unwrap_or("?");
            format!("{name}{{{body}}}")
        }
    }
}

/// Merges every shard into one sorted snapshot. Sums are deterministic
/// regardless of which thread recorded into which shard; labeled series
/// additionally fold into their unlabeled base key (see module docs).
pub(crate) fn collect() -> Snapshot {
    let reg = registry();
    let bodies = labels::all_bodies();
    let mut snap = Snapshot::default();

    let mut hists: HashMap<Key, HdrHist> = HashMap::new();
    let mut timers: HashMap<Key, HdrHist> = HashMap::new();
    let mut spans: HashMap<(String, u32), HdrHist> = HashMap::new();
    for shard in &reg.shards {
        for ((name, lid), v) in lock(&shard.counters).iter() {
            if *lid != 0 {
                *snap.counters.entry((*name).to_owned()).or_insert(0) += v;
            }
            *snap
                .counters
                .entry(full_key(name, *lid, &bodies))
                .or_insert(0) += v;
        }
        for (src, dst) in [
            (&shard.histograms, &mut hists),
            (&shard.timers, &mut timers),
        ] {
            for (key, h) in lock(src).iter() {
                dst.entry(*key).or_default().merge(h);
                if key.1 != 0 {
                    dst.entry((key.0, 0)).or_default().merge(h);
                }
            }
        }
        for (lid, by_path) in lock(&shard.spans).iter() {
            for (path, h) in by_path {
                spans.entry((path.clone(), *lid)).or_default().merge(h);
                if *lid != 0 {
                    spans.entry((path.clone(), 0)).or_default().merge(h);
                }
            }
        }
    }

    for (dst, merged) in [(&mut snap.histograms, hists), (&mut snap.timers, timers)] {
        for ((name, lid), h) in merged {
            dst.insert(full_key(name, lid, &bodies), HdrSnapshot::from_hist(&h));
        }
    }
    for ((path, lid), h) in spans {
        snap.spans
            .insert(full_key(&path, lid, &bodies), SpanSnapshot::from_hist(&h));
    }
    for ((name, lid), v) in lock(&reg.gauges).iter() {
        snap.gauges.insert(full_key(name, *lid, &bodies), *v);
    }
    let journal = lock(&reg.journal);
    snap.events = journal
        .iter()
        .map(|e| EventSnapshot {
            seq: e.seq,
            category: e.category.to_owned(),
            message: e.message.clone(),
        })
        .collect();
    // Self-observability counters: only present when non-zero so an
    // untouched registry still snapshots empty.
    for (name, v) in [
        ("obs.journal.dropped", journal.dropped()),
        ("obs.labels.dropped", labels::dropped()),
        ("obs.trace.dropped", crate::trace::dropped_total()),
    ] {
        if v > 0 {
            snap.counters.insert(name.to_owned(), v);
        }
    }
    snap
}
