//! Flight-recorder trace timeline: timestamped span/instant events in
//! per-thread lock-free rings, exported as Chrome Trace Event Format JSON.
//!
//! Aggregated spans ([`crate::snapshot`]) answer *how much* time a path
//! took in total; the timeline answers *when* — which shard straggled in
//! heartbeat 14, whether the optimize phases actually overlapped. Each
//! thread owns one bounded single-producer/single-consumer ring
//! (`RING_CAP` = 32k events): the owning thread pushes `Begin`/`End`/`Instant`
//! records with a monotonic nanosecond timestamp, and the exporter is the
//! only consumer. A full ring drops the *new* event and counts it
//! (`obs.trace.dropped` in snapshots) — and a span whose `Begin` was
//! dropped skips its `End`, so the exported stream keeps balanced B/E
//! pairs under drop pressure by construction.
//!
//! Recording is off unless **both** [`crate::enabled`] and
//! [`set_enabled`]`(true)` hold; the disabled path stays the one relaxed
//! atomic load the whole crate is built around.
//!
//! [`export_chrome_json`] groups rings by track label (worker threads get
//! `shard=N`-style labels from [`crate::scoped`]; unlabeled threads get
//! `thread-K`), merges same-label rings in timestamp order, and emits a
//! `chrome://tracing` / Perfetto-loadable document with one named track
//! per label.

use std::cell::{RefCell, UnsafeCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::json::escape_into;

/// Events per thread ring. A campus heartbeat is a few hundred span events
/// per shard; 32k covers multi-minute captures before dropping.
const RING_CAP: usize = 1 << 15;

static TRACING: AtomicBool = AtomicBool::new(false);

/// Whether the trace timeline is recording (requires [`crate::enabled`]
/// too).
#[inline(always)]
pub fn enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turns the trace timeline on or off. Pins the timestamp epoch on first
/// enable so all tracks share one time base.
pub fn set_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    TRACING.store(on, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[inline]
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Begin,
    End,
    Instant,
}

#[derive(Clone, Copy)]
struct Ev {
    kind: Kind,
    name: &'static str,
    ts_ns: u64,
}

/// One thread's event ring. SPSC discipline: only the owning thread calls
/// `push`, only the exporter (serialized by the registry lock) calls
/// `drain`; the head/tail release/acquire pair publishes the slot writes.
struct Ring {
    buf: Box<[UnsafeCell<Ev>]>,
    head: AtomicUsize,
    tail: AtomicUsize,
    dropped: AtomicU64,
    label: Mutex<String>,
    /// Set once the track has been named by a label scope; later scopes on
    /// the same thread don't rename it (first label wins, so a shard
    /// worker's track stays `shard=N` even when bookkeeping scopes open
    /// afterwards).
    named: AtomicBool,
}

// SAFETY: slots between `tail` and `head` are never written concurrently
// with a read — the producer only writes at `head` (unpublished until the
// release store) and the consumer only reads below `head` after acquiring
// it. The label mutex guards itself.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    fn new(label: String) -> Self {
        let init = Ev {
            kind: Kind::Instant,
            name: "",
            ts_ns: 0,
        };
        Ring {
            buf: (0..RING_CAP).map(|_| UnsafeCell::new(init)).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            label: Mutex::new(label),
            named: AtomicBool::new(false),
        }
    }

    /// Producer side; returns false (and counts a drop) when full.
    fn push(&self, ev: Ev) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head.wrapping_sub(tail) >= RING_CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        unsafe { *self.buf[head % RING_CAP].get() = ev };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        true
    }

    /// Consumer side; removes and returns everything published so far.
    fn drain(&self) -> Vec<Ev> {
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        let mut out = Vec::with_capacity(head.wrapping_sub(tail));
        while tail != head {
            out.push(unsafe { *self.buf[tail % RING_CAP].get() });
            tail = tail.wrapping_add(1);
        }
        self.tail.store(tail, Ordering::Release);
        out
    }
}

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_rings() -> MutexGuard<'static, Vec<Arc<Ring>>> {
    rings().lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static MY_RING: RefCell<Option<Arc<Ring>>> = const { RefCell::new(None) };
}

fn with_ring<R>(f: impl FnOnce(&Ring) -> R) -> R {
    MY_RING.with(|cell| {
        let mut cell = cell.borrow_mut();
        let ring = cell.get_or_insert_with(|| {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let ord = NEXT.fetch_add(1, Ordering::Relaxed);
            let label = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{ord}"));
            let ring = Arc::new(Ring::new(label));
            lock_rings().push(Arc::clone(&ring));
            ring
        });
        f(ring)
    })
}

/// Records a span opening; returns whether it was accepted (a rejected
/// begin means the matching [`span_end`] must be skipped to keep B/E pairs
/// balanced). Caller checks [`enabled`].
pub(crate) fn span_begin(name: &'static str) -> bool {
    with_ring(|r| {
        r.push(Ev {
            kind: Kind::Begin,
            name,
            ts_ns: now_ns(),
        })
    })
}

/// Records a span close for an accepted [`span_begin`]. The end event is
/// never dropped: a ring with a published `Begin` reserves room because
/// ends pair LIFO with begins on the same thread, and `RING_CAP` bounds
/// open depth in practice; if the ring is genuinely full the drop counter
/// still records the loss and the exporter re-balances.
pub(crate) fn span_end(name: &'static str) {
    with_ring(|r| {
        r.push(Ev {
            kind: Kind::End,
            name,
            ts_ns: now_ns(),
        })
    });
}

/// Records an instant (zero-duration) event on the current thread's track.
/// No-op unless both the obs flag and the trace flag are on.
pub fn instant(name: &'static str) {
    if crate::enabled() && enabled() {
        with_ring(|r| {
            r.push(Ev {
                kind: Kind::Instant,
                name,
                ts_ns: now_ns(),
            })
        });
    }
}

/// Names the current thread's track after a label scope (so a shard
/// worker's track shows up as `shard=3` rather than `thread-7`). Only the
/// first label scope on a thread names its track.
pub(crate) fn label_current_thread(label: &str) {
    with_ring(|r| {
        if !r.named.swap(true, Ordering::Relaxed) {
            let mut l = r.label.lock().unwrap_or_else(|e| e.into_inner());
            label.clone_into(&mut l);
        }
    });
}

/// Total events dropped to full rings so far.
pub(crate) fn dropped_total() -> u64 {
    lock_rings()
        .iter()
        .map(|r| r.dropped.load(Ordering::Relaxed))
        .sum()
}

/// Discards all buffered events and drop counts (for `obs::reset`).
pub(crate) fn reset() {
    for ring in lock_rings().iter() {
        ring.drain();
        ring.dropped.store(0, Ordering::Relaxed);
    }
}

/// Drains every ring and renders a Chrome Trace Event Format document
/// (`chrome://tracing` / Perfetto). Rings sharing a track label merge into
/// one track, in timestamp order; each track gets a `thread_name` metadata
/// event. Unterminated spans (still open at export time) are closed at the
/// track's last timestamp so B/E pairs always balance.
pub fn export_chrome_json() -> String {
    struct Track {
        events: Vec<Ev>,
        ord: usize,
    }
    let mut tracks: Vec<(String, Track)> = Vec::new();
    let mut dropped = 0u64;
    for ring in lock_rings().iter() {
        let events = ring.drain();
        dropped += ring.dropped.load(Ordering::Relaxed);
        if events.is_empty() {
            continue;
        }
        let label = ring.label.lock().unwrap_or_else(|e| e.into_inner()).clone();
        match tracks.iter_mut().find(|(l, _)| *l == label) {
            Some((_, t)) => t.events.extend(events),
            None => {
                let ord = tracks.len();
                tracks.push((label, Track { events, ord }));
            }
        }
    }
    // Stable name order in the file; tids by first-seen ring order.
    tracks.sort_by(|a, b| a.0.cmp(&b.0));

    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    out.push_str(
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"surfos\"}}",
    );
    for (label, track) in &mut tracks {
        let tid = track.ord + 1;
        let _ = write!(
            out,
            ",{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\""
        );
        escape_into(&mut out, label);
        out.push_str("\"}}");
        // Same-label rings interleave; restore per-track timestamp order.
        track.events.sort_by_key(|e| e.ts_ns);
        let mut open: Vec<&'static str> = Vec::new();
        let mut last_ts = 0u64;
        for ev in &track.events {
            last_ts = ev.ts_ns;
            let ph = match ev.kind {
                Kind::Begin => {
                    open.push(ev.name);
                    "B"
                }
                Kind::End => {
                    // An end without a begin can only appear if a prior
                    // export already consumed the begin; skip to keep the
                    // document balanced.
                    if open.pop().is_none() {
                        continue;
                    }
                    "E"
                }
                Kind::Instant => "i",
            };
            let _ = write!(out, ",{{\"ph\":\"{ph}\",\"name\":\"",);
            escape_into(&mut out, ev.name);
            let _ = write!(
                out,
                "\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3}{}}}",
                ev.ts_ns as f64 / 1e3,
                if ev.kind == Kind::Instant {
                    ",\"s\":\"t\""
                } else {
                    ""
                },
            );
        }
        // Close spans still open at export time at the last seen instant.
        while let Some(name) = open.pop() {
            let _ = write!(out, ",{{\"ph\":\"E\",\"name\":\"");
            escape_into(&mut out, name);
            let _ = write!(
                out,
                "\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3}}}",
                last_ts as f64 / 1e3
            );
        }
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped\":{dropped}}}}}"
    );
    out
}
