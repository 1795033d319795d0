//! The open-loop service-plane workloads: `serve_query` and `serve_tick`.
//!
//! An in-process `surfosd serve` daemon (`Server::start(demo_kernel(),
//! ..)`) on loopback TCP. One generator thread sends a seeded schedule
//! over two connections at a fixed rate, whether or not earlier requests
//! have been answered; one reader thread per connection takes the
//! responses. Every request is timed from when it was due to be sent.

use crate::kernel_wl::BLOCK;
use crate::layers::Extra;
use crate::stats::{Outcome, Rng};
use crate::{Measured, SETUPS};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use surfos::daemon::{demo_kernel, Dispatcher, ServeOptions, Server};
use surfos::obs;
use surfos::rpc::frame::{encode_frame, read_frame, FrameBuf};
use surfos::rpc::proto::{Request, RequestEnvelope, Response};

/// Connections the generator spreads its requests over.
pub const CONNS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Query,
    Ping,
    Register,
    Release,
}

impl Op {
    pub const ALL: [Op; 4] = [Op::Query, Op::Ping, Op::Register, Op::Release];

    pub fn name(self) -> &'static str {
        match self {
            Op::Query => "query",
            Op::Ping => "ping",
            Op::Register => "register",
            Op::Release => "release",
        }
    }
}

/// Services a `register` asks for: (kind, subject, goal).
const SERVICES: [(&str, &str, f64); 2] = [("link", "laptop", 20.0), ("coverage", "bedroom", 25.0)];

/// One service-plane workload's shape.
#[derive(Debug, Clone)]
pub struct Config {
    /// Offered requests per second, all connections together.
    pub rate: f64,
    /// Kernel ticker period (0 = off).
    pub tick_ms: u64,
    /// Global live-lease capacity.
    pub capacity: usize,
    /// Live leases one connection may hold; the schedule never exceeds
    /// it, so with `CONNS × per_conn <= capacity` no admission is refused.
    pub per_conn: usize,
    /// A response later than this (from its due time) is timed out.
    pub limit_ms: f64,
    /// Op weights, in [`Op::ALL`] order.
    pub weights: [f64; 4],
}

pub fn serve_query_config() -> Config {
    Config {
        rate: 400.0,
        tick_ms: 0,
        capacity: 256,
        per_conn: 4,
        limit_ms: 100.0,
        weights: [0.80, 0.10, 0.05, 0.05],
    }
}

pub fn serve_tick_config() -> Config {
    Config {
        rate: 150.0,
        tick_ms: 100,
        capacity: 8,
        per_conn: 4,
        limit_ms: 5_000.0,
        weights: [0.75, 0.15, 0.05, 0.05],
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    pub due_ns: u64,
    pub conn: usize,
    pub op: Op,
    /// Index into [`SERVICES`] for `register`.
    pub service: usize,
}

/// The seeded schedule: `rate × seconds` requests at even spacing, each
/// with a seeded connection and op. Each connection starts holding
/// `per_conn` leases (granted in set-up) and keeps `per_conn - 1` or
/// `per_conn` live: a `register` at `per_conn` becomes a `release`, and a
/// `release` below it becomes a `register`. The live service set, and so
/// the kernel's optimization load, stays steady through the run.
pub fn schedule(seed: u64, cfg: &Config, seconds: f64) -> Vec<Planned> {
    let mut rng = Rng::new(seed);
    let n = (cfg.rate * seconds).round() as u64;
    let total: f64 = cfg.weights.iter().sum();
    let mut live = [cfg.per_conn; CONNS];
    let mut registers = cfg.per_conn;
    (0..n)
        .map(|i| {
            let conn = (rng.next_u64() % CONNS as u64) as usize;
            let mut pick = rng.unit() * total;
            let mut op = Op::Release;
            for (o, w) in Op::ALL.iter().zip(cfg.weights) {
                if pick < w {
                    op = *o;
                    break;
                }
                pick -= w;
            }
            op = match op {
                Op::Register if live[conn] == cfg.per_conn => Op::Release,
                Op::Release if live[conn] < cfg.per_conn => Op::Register,
                other => other,
            };
            let mut service = 0;
            match op {
                Op::Register => {
                    live[conn] += 1;
                    // Kinds alternate, so the live set stays an even mix.
                    service = registers % SERVICES.len();
                    registers += 1;
                }
                Op::Release => live[conn] -= 1,
                _ => {}
            }
            Planned {
                due_ns: (i as f64 * 1e9 / cfg.rate) as u64,
                conn,
                op,
                service,
            }
        })
        .collect()
}

fn request(p: &Planned, lease: Option<u64>) -> Request {
    match p.op {
        Op::Query => Request::QueryChannel {
            tx: "ap0".into(),
            rx: "laptop".into(),
        },
        Op::Ping => Request::Ping,
        Op::Register => {
            let (kind, subject, value) = SERVICES[p.service];
            Request::RegisterService {
                kind: kind.into(),
                subject: subject.into(),
                value,
            }
        }
        Op::Release => Request::ReleaseService {
            service: lease.expect("release needs a lease"),
        },
    }
}

/// How `query` answers are checked during the run.
#[derive(Debug, Clone, Copy)]
enum QueryCheck {
    /// No ticker: the answer equals the in-process `link_budget`.
    Exact {
        rss_dbm: f64,
        snr_db: f64,
        capacity_bps: f64,
    },
    /// Ticker on: the configuration changes with every re-optimization,
    /// so an answer is only checked to be consistent (RSS − SNR is the
    /// noise floor); [`settled_query`] checks one answer exactly after
    /// the run.
    NoiseFloor { noise_dbm: f64 },
}

impl QueryCheck {
    fn accepts(&self, rss: f64, snr: f64, cap: f64) -> bool {
        match *self {
            QueryCheck::Exact {
                rss_dbm,
                snr_db,
                capacity_bps,
            } => rss == rss_dbm && snr == snr_db && cap == capacity_bps,
            QueryCheck::NoiseFloor { noise_dbm } => {
                rss.is_finite()
                    && snr.is_finite()
                    && cap >= 0.0
                    && ((rss - snr) - noise_dbm).abs() < 1e-6
            }
        }
    }
}

/// A request in flight on one connection.
struct Pending {
    id: u64,
    op: Op,
    /// Index into [`SERVICES`] for `register`.
    service: usize,
    due: Instant,
    sent: Instant,
    traced: bool,
}

/// One answered request.
struct Answer {
    id: u64,
    recv: Instant,
    from_due_ms: f64,
    from_send_ms: f64,
    traced: bool,
    outcome: Outcome,
    snr_db: Option<f64>,
}

#[derive(Default)]
struct ConnState {
    pending: Mutex<VecDeque<Pending>>,
    /// Leases granted on this connection, oldest first, with the index
    /// into [`SERVICES`] of what each holds.
    leases: Mutex<VecDeque<(u64, usize)>>,
}

/// Reads responses until the socket closes. Returns the answers and
/// whether the connection died before the benchmark closed it.
fn reader(
    mut stream: TcpStream,
    state: Arc<ConnState>,
    stopping: Arc<AtomicBool>,
    check: QueryCheck,
    limit_ms: f64,
) -> (Vec<Answer>, bool) {
    let mut answers = Vec::new();
    loop {
        let body = match read_frame(&mut stream) {
            Ok(Some(body)) => body,
            _ => return (answers, !stopping.load(Ordering::SeqCst)),
        };
        let recv = Instant::now();
        let Some(p) = state.pending.lock().expect("pending lock").pop_front() else {
            // An answer nobody asked for.
            return (answers, true);
        };
        let mut snr_db = None;
        let outcome = match Response::decode(&body) {
            Ok((id, _)) if id != p.id => Outcome::Wrong,
            Ok((_, Response::Rejected { .. })) => Outcome::Refused,
            Ok((_, response)) => {
                let right = match (p.op, response) {
                    (Op::Ping, Response::Pong { .. }) => true,
                    (Op::Release, Response::Released { .. }) => true,
                    (Op::Register, Response::Registered { service, .. }) => {
                        state
                            .leases
                            .lock()
                            .expect("lease lock")
                            .push_back((service, p.service));
                        true
                    }
                    (
                        Op::Query,
                        Response::Channel {
                            rss_dbm,
                            snr_db: snr,
                            capacity_bps,
                        },
                    ) => {
                        snr_db = Some(snr);
                        check.accepts(rss_dbm, snr, capacity_bps)
                    }
                    _ => false,
                };
                if right {
                    Outcome::Ok
                } else {
                    Outcome::Wrong
                }
            }
            Err(_) => Outcome::Wrong,
        };
        let from_due_ms = (recv - p.due).as_secs_f64() * 1e3;
        let outcome = if outcome == Outcome::Ok && from_due_ms > limit_ms {
            Outcome::TimedOut
        } else {
            outcome
        };
        answers.push(Answer {
            id: p.id,
            recv,
            from_due_ms,
            from_send_ms: (recv - p.sent).as_secs_f64() * 1e3,
            traced: p.traced,
            outcome,
            snr_db,
        });
    }
}

struct Client {
    server: Server,
    streams: Vec<TcpStream>,
    /// Leases granted during set-up, per connection.
    leases: Vec<VecDeque<(u64, usize)>>,
}

impl Client {
    fn stop(self) {
        drop(self.streams);
        self.server.stop();
    }
}

fn options(cfg: &Config) -> ServeOptions {
    ServeOptions {
        tick_ms: cfg.tick_ms,
        capacity: cfg.capacity,
        per_tenant: cfg.per_conn,
        ..ServeOptions::default()
    }
}

/// One request and its answer, blocking (set-up only).
fn round_trip(s: &mut TcpStream, request: Request) -> Response {
    s.write_all(&encode_frame(&RequestEnvelope::new(0, request).encode()))
        .expect("send set-up request");
    let body = read_frame(s)
        .expect("set-up response")
        .expect("daemon answers set-up requests");
    Response::decode(&body).expect("set-up response decodes").1
}

/// Set-up: start the daemon, open the connections and warm up: one ping
/// and one query on each (the first query fills the kernel's
/// linearization cache), then `per_conn` registrations each, so the timed
/// schedule starts with the live lease set it keeps.
fn start(cfg: &Config) -> Client {
    let server = Server::start(demo_kernel(), options(cfg)).expect("start daemon");
    let addr = server.tcp_addr().expect("tcp listener");
    let mut streams = Vec::with_capacity(CONNS);
    let mut leases = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let mut s = TcpStream::connect(addr).expect("connect to daemon");
        s.set_nodelay(true).expect("nodelay");
        let query = request(&planned(Op::Query, 0), None);
        assert!(matches!(
            round_trip(&mut s, Request::Ping),
            Response::Pong { .. }
        ));
        assert!(matches!(
            round_trip(&mut s, query),
            Response::Channel { .. }
        ));
        let granted = (0..cfg.per_conn)
            .map(
                |k| match round_trip(&mut s, request(&planned(Op::Register, k), None)) {
                    Response::Registered { service, .. } => (service, k % SERVICES.len()),
                    other => panic!("set-up registration answered {other:?}"),
                },
            )
            .collect();
        streams.push(s);
        leases.push(granted);
    }
    Client {
        server,
        streams,
        leases,
    }
}

fn planned(op: Op, k: usize) -> Planned {
    Planned {
        due_ns: 0,
        conn: 0,
        op,
        service: k % SERVICES.len(),
    }
}

/// Runs one serve workload.
pub fn run(cfg: &Config, seed: u64, seconds: f64, trace: bool) -> Measured {
    // The daemon under load. SETUPS - 1 more set-ups are timed during
    // the run, each on a spare daemon started beside this one.
    let t0 = Instant::now();
    let Client {
        server,
        streams,
        leases,
    } = start(cfg);
    let mut setup_s = vec![t0.elapsed().as_secs_f64()];
    let addr = server.tcp_addr().expect("tcp listener");
    let mut m = Measured::default();

    let reference = demo_kernel();
    let orch = reference.orchestrator();
    let budget = reference.sim().link_budget(
        orch.endpoint("ap0").expect("ap0"),
        orch.endpoint("laptop").expect("laptop"),
    );
    let check = if cfg.tick_ms == 0 {
        QueryCheck::Exact {
            rss_dbm: budget.rss_dbm,
            snr_db: budget.snr_db,
            capacity_bps: budget.capacity_bps,
        }
    } else {
        QueryCheck::NoiseFloor {
            noise_dbm: budget.noise_dbm,
        }
    };

    let plan = schedule(seed, cfg, seconds);
    let stopping = Arc::new(AtomicBool::new(false));
    let states: Vec<Arc<ConnState>> = leases
        .into_iter()
        .map(|granted| {
            Arc::new(ConnState {
                pending: Mutex::default(),
                leases: Mutex::new(granted),
            })
        })
        .collect();
    let mut writers = Vec::with_capacity(CONNS);
    let mut readers = Vec::with_capacity(CONNS);
    for (stream, state) in streams.into_iter().zip(&states) {
        writers.push(stream.try_clone().expect("clone stream"));
        let (state, stopping) = (state.clone(), stopping.clone());
        let limit = cfg.limit_ms;
        readers.push(
            std::thread::Builder::new()
                .name("e2e-reader".into())
                .spawn(move || reader(stream, state, stopping, check, limit))
                .expect("spawn reader"),
        );
    }

    if trace {
        obs::reset();
    }
    let ticks0 = crate::host::cpu_ticks();
    let cpu0 = crate::host::cpu_seconds();
    let t_start = Instant::now() + Duration::from_millis(20);
    // Time inserted into the schedule for the set-ups, their CPU time,
    // and the peak memory before each.
    let (mut shift, mut setup_cpu, mut peak_mb) = (Duration::ZERO, 0.0, 0.0f64);
    let segment_ns = (seconds * 1e9 / SETUPS as f64) as u64;
    let drain_for = Duration::from_secs_f64((3.0 * cfg.limit_ms / 1e3).max(2.0));
    let mut late_ms = Vec::with_capacity(plan.len());
    // Per-connection send queues, in schedule order. A release waits at
    // the head of its connection's queue until its lease is granted, and
    // the requests behind it wait too, so each connection's requests reach
    // the daemon in schedule order. Everything stays timed from its due
    // time.
    let mut backlog: [VecDeque<(u64, Planned, Instant)>; CONNS] = Default::default();
    let mut traced_now = false;
    let send = |id: u64,
                p: &Planned,
                due: Instant,
                lease: Option<u64>,
                writers: &mut Vec<TcpStream>,
                late: &mut Vec<f64>| {
        let traced = trace && (p.due_ns / BLOCK.as_nanos() as u64) % 2 == 1;
        let bytes = encode_frame(&RequestEnvelope::new(id, request(p, lease)).encode());
        let sent = Instant::now();
        states[p.conn]
            .pending
            .lock()
            .expect("pending lock")
            .push_back(Pending {
                id,
                op: p.op,
                service: p.service,
                due,
                sent,
                traced,
            });
        late.push((sent - due).as_secs_f64() * 1e3);
        writers[p.conn].write_all(&bytes).is_ok()
    };
    let mut write_failures = 0u64;
    // Sends every queued request that can go; returns the failed writes.
    let flush = |backlog: &mut [VecDeque<(u64, Planned, Instant)>; CONNS],
                 writers: &mut Vec<TcpStream>,
                 late: &mut Vec<f64>| {
        let mut failures = 0;
        for queue in backlog.iter_mut() {
            while let Some(&(id, p, due)) = queue.front() {
                let lease = if p.op == Op::Release {
                    match states[p.conn]
                        .leases
                        .lock()
                        .expect("lease lock")
                        .pop_front()
                    {
                        Some((lease, _)) => Some(lease),
                        None => break,
                    }
                } else {
                    None
                };
                queue.pop_front();
                failures += u64::from(!send(id, &p, due, lease, writers, late));
            }
        }
        failures
    };
    let queued = |backlog: &[VecDeque<(u64, Planned, Instant)>; CONNS]| {
        backlog.iter().any(|q| !q.is_empty())
    };
    // Queued, or sent and not yet answered.
    let waiting = |backlog: &[VecDeque<(u64, Planned, Instant)>; CONNS]| {
        queued(backlog)
            || states
                .iter()
                .any(|s| !s.pending.lock().expect("pending lock").is_empty())
    };
    for (id, p) in plan.iter().enumerate() {
        if setup_s.len() < SETUPS && p.due_ns >= segment_ns * setup_s.len() as u64 {
            // A set-up between timed stretches: once every answer is in,
            // a spare daemon is started and stopped, and the schedule
            // resumes with this request due when it is done.
            let settle = Instant::now() + drain_for;
            while waiting(&backlog) && Instant::now() < settle {
                write_failures += flush(&mut backlog, &mut writers, &mut late_ms);
                std::thread::sleep(Duration::from_millis(1));
            }
            obs::set_enabled(false);
            peak_mb = peak_mb.max(crate::host::peak_rss_mb());
            let cpu = crate::host::cpu_seconds();
            let t0 = Instant::now();
            let spare = start(cfg);
            setup_s.push(t0.elapsed().as_secs_f64());
            spare.stop();
            crate::host::reset_peak_rss();
            setup_cpu += crate::host::cpu_seconds() - cpu;
            obs::set_enabled(traced_now);
            let due = t_start + shift + Duration::from_nanos(p.due_ns);
            shift += Instant::now().saturating_duration_since(due);
        }
        let due = t_start + shift + Duration::from_nanos(p.due_ns);
        loop {
            write_failures += flush(&mut backlog, &mut writers, &mut late_ms);
            let now = Instant::now();
            if now >= due {
                break;
            }
            let wait = due - now;
            std::thread::sleep(if queued(&backlog) {
                wait.min(Duration::from_millis(1))
            } else {
                wait
            });
        }
        if trace {
            let traced = (p.due_ns / BLOCK.as_nanos() as u64) % 2 == 1;
            if traced != traced_now {
                obs::set_enabled(traced);
                traced_now = traced;
            }
        }
        backlog[p.conn].push_back((id as u64 + 1, *p, due));
        write_failures += flush(&mut backlog, &mut writers, &mut late_ms);
    }
    // Drain: queued requests, then every outstanding answer.
    let drain_until = Instant::now() + drain_for;
    while waiting(&backlog) && Instant::now() < drain_until {
        write_failures += flush(&mut backlog, &mut writers, &mut late_ms);
        std::thread::sleep(Duration::from_millis(1));
    }
    obs::set_enabled(false);
    let cpu_s = crate::host::cpu_seconds() - cpu0 - setup_cpu;
    m.steal_frac = crate::host::steal_frac(ticks0, crate::host::cpu_ticks());
    let peak_rss_mb = peak_mb.max(crate::host::peak_rss_mb());
    let ops_snap = obs::snapshot();
    let live = server.live_conns();
    if cfg.tick_ms > 0 {
        let held: Vec<Vec<usize>> = states
            .iter()
            .map(|s| {
                let leases = s.leases.lock().expect("lease lock");
                leases.iter().map(|&(_, service)| service).collect()
            })
            .collect();
        m.checks.extend(settled_query(cfg, addr, &held).err());
    }

    stopping.store(true, Ordering::SeqCst);
    for w in &writers {
        let _ = w.shutdown(Shutdown::Both);
    }
    let mut answers = Vec::new();
    let mut dead = 0;
    for r in readers {
        let (a, died) = r.join().expect("reader thread");
        answers.extend(a);
        dead += usize::from(died);
    }
    server.stop();
    answers.sort_by_key(|a| a.id);

    // Outcomes: answered, never answered, never sent.
    let missing = states
        .iter()
        .map(|s| s.pending.lock().expect("pending lock").len())
        .sum::<usize>()
        + backlog.iter().map(VecDeque::len).sum::<usize>();
    for a in &answers {
        m.tally.record(a.outcome);
    }
    for _ in 0..missing {
        m.tally.record(Outcome::Missing);
    }
    if dead > 0 || live != CONNS {
        m.checks.push(format!(
            "{dead} dead connections; daemon saw {live} of {CONNS} live at the end"
        ));
    }
    if write_failures > 0 {
        m.checks
            .push(format!("{write_failures} request writes failed"));
    }
    let wrong = answers
        .iter()
        .filter(|a| a.outcome == Outcome::Wrong)
        .count();
    if wrong > 0 {
        m.checks.push(format!(
            "{wrong} responses of the wrong kind or content (query check: {check:?})"
        ));
    }
    if m.tally.refused > 0 {
        m.checks.push(format!(
            "{} admissions refused: the schedule stays within capacity",
            m.tally.refused
        ));
    }
    m.served_snr_db = answers.iter().rev().find_map(|a| a.snr_db);
    if m.served_snr_db.is_none() {
        m.checks.push("no query was answered".into());
    }

    m.gen_late_ms = Some(late_ms);
    // Goodput window: from the first due time to the last answer, less
    // the time inserted for set-ups.
    m.window_s = answers
        .iter()
        .map(|a| a.recv)
        .max()
        .map_or(seconds, |last| (last - t_start - shift).as_secs_f64());
    m.setup_s = setup_s;
    m.cpu_s = cpu_s;
    m.peak_rss_mb = peak_rss_mb;
    m.notes.push(format!(
        "open loop: {} requests at {} req/s over {CONNS} connections, tick {} ms, \
         capacity {}, latency limit {} ms",
        plan.len(),
        cfg.rate,
        cfg.tick_ms,
        cfg.capacity,
        cfg.limit_ms
    ));
    for a in &answers {
        if trace && a.traced {
            m.traced_ms.push(a.from_due_ms);
        } else {
            m.untraced_ms.push(a.from_due_ms);
        }
    }
    if trace {
        let from_send: Vec<f64> = answers
            .iter()
            .filter(|a| !a.traced)
            .map(|a| a.from_send_ms * 1e3)
            .collect();
        let mut extra = offline_layers(cfg, &plan);
        extra.client_from_send_p50_us =
            (!from_send.is_empty()).then(|| crate::stats::median(&from_send));
        let traced_ops = answers.iter().filter(|a| a.traced).count() as u64;
        m.set_layers(
            ops_snap,
            Default::default(),
            Default::default(),
            extra,
            1,
            traced_ops,
        );
    }
    m
}

/// Ticks the ticker gets to settle after the lease churn stops, and how
/// long the settled answer may take to arrive.
const SETTLE_TICKS: usize = 3;
const SETTLE_WAIT: Duration = Duration::from_secs(30);

/// With the ticker on, once the lease churn stops the kernel settles on
/// the configuration its live services ask for. A `query` on a fresh
/// connection must then answer exactly what the in-process `link_budget`
/// gives on a demo kernel holding the same services (`held`: per
/// connection, indices into [`SERVICES`]) after [`SETTLE_TICKS`] steps.
fn settled_query(
    cfg: &Config,
    addr: std::net::SocketAddr,
    held: &[Vec<usize>],
) -> Result<(), String> {
    let query = request(&planned(Op::Query, 0), None);
    let mut reference = Dispatcher::new(demo_kernel(), &options(cfg));
    for (c, services) in held.iter().enumerate() {
        for &k in services {
            let tenant = format!("conn-{}", c + 1);
            match reference.dispatch(&tenant, &request(&planned(Op::Register, k), None)) {
                Response::Registered { .. } => {}
                other => return Err(format!("in-process registration answered {other:?}")),
            }
        }
    }
    for _ in 0..SETTLE_TICKS {
        reference.kernel_mut().step(cfg.tick_ms);
    }
    let want = reference.dispatch("reference", &query);
    let mut s = TcpStream::connect(addr).map_err(|e| format!("settled query: {e}"))?;
    s.set_nodelay(true)
        .map_err(|e| format!("settled query: {e}"))?;
    let deadline = Instant::now() + SETTLE_WAIT;
    loop {
        let got = round_trip(&mut s, query.clone());
        if got == want {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "settled query answered {got:?}; in-process link_budget with the same \
                 {} live services gives {want:?}",
                held.iter().map(Vec::len).sum::<usize>()
            ));
        }
        std::thread::sleep(Duration::from_millis(cfg.tick_ms));
    }
}

/// Codec and dispatch cost per op, timed in-process on the workload's
/// own request stream (no sockets, no ticker).
fn offline_layers(cfg: &Config, plan: &[Planned]) -> Extra {
    let mut extra = Extra::default();
    for op in Op::ALL {
        let share = plan.iter().filter(|p| p.op == op).count() as f64 / plan.len().max(1) as f64;
        extra.mix.insert(op.name(), share);
    }

    // Dispatch: replay the stream against a fresh dispatcher.
    let mut dispatcher = Dispatcher::new(demo_kernel(), &options(cfg));
    let mut leases: [VecDeque<u64>; CONNS] = Default::default();
    let mut sums: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    let mut samples: BTreeMap<&'static str, (Request, Response)> = BTreeMap::new();
    let tenants: Vec<String> = (1..=CONNS).map(|c| format!("conn-{c}")).collect();
    for p in plan.iter().take(4_000) {
        let lease = if p.op == Op::Release {
            match leases[p.conn].pop_front() {
                Some(l) => Some(l),
                None => continue,
            }
        } else {
            None
        };
        let req = request(p, lease);
        let t0 = Instant::now();
        let resp = dispatcher.dispatch(&tenants[p.conn], &req);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if let Response::Registered { service, .. } = resp {
            leases[p.conn].push_back(service);
        }
        let e = sums.entry(p.op.name()).or_default();
        e.0 += us;
        e.1 += 1;
        samples.entry(p.op.name()).or_insert((req, resp));
    }
    for (op, (total, n)) in sums {
        extra.dispatch_us.insert(op, total / n as f64);
    }

    // Codec: request and response through proto and frame, both ways.
    const REPS: u32 = 2_000;
    for (op, (req, resp)) in samples {
        let t0 = Instant::now();
        for id in 0..REPS as u64 {
            let bytes = encode_frame(&RequestEnvelope::new(id, req.clone()).encode());
            let mut buf = FrameBuf::new();
            buf.extend(&bytes);
            let body = buf.next_frame().expect("frame").expect("whole frame");
            let env = RequestEnvelope::decode(&body).expect("request decodes");
            let bytes = encode_frame(&resp.encode(env.id));
            let mut buf = FrameBuf::new();
            buf.extend(&bytes);
            let body = buf.next_frame().expect("frame").expect("whole frame");
            std::hint::black_box(Response::decode(&body).expect("response decodes"));
        }
        extra
            .codec_us
            .insert(op, t0.elapsed().as_secs_f64() * 1e6 / REPS as f64);
    }
    extra
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let cfg = serve_query_config();
        let a = schedule(42, &cfg, 2.0);
        assert_eq!(a.len(), 800);
        assert_eq!(a, schedule(42, &cfg, 2.0));
        assert_ne!(a, schedule(43, &cfg, 2.0));
        // Even spacing at the offered rate.
        assert_eq!(a[1].due_ns - a[0].due_ns, 2_500_000);
    }

    #[test]
    fn schedule_never_overdraws_leases() {
        for cfg in [serve_query_config(), serve_tick_config()] {
            for seed in 0..20 {
                let mut live = [cfg.per_conn as i64; CONNS];
                for p in schedule(seed, &cfg, 5.0) {
                    match p.op {
                        Op::Register => live[p.conn] += 1,
                        Op::Release => live[p.conn] -= 1,
                        _ => {}
                    }
                    assert!(live[p.conn] + 1 >= cfg.per_conn as i64);
                    assert!(live[p.conn] as usize <= cfg.per_conn);
                }
            }
            assert!(CONNS * cfg.per_conn <= cfg.capacity);
        }
    }

    #[test]
    fn schedule_mix_follows_the_weights() {
        let cfg = serve_query_config();
        let plan = schedule(1, &cfg, 10.0);
        let share = |op| plan.iter().filter(|p| p.op == op).count() as f64 / plan.len() as f64;
        assert!((share(Op::Query) - 0.8).abs() < 0.05);
        assert!(share(Op::Register) > 0.02 && share(Op::Release) > 0.02);
    }
}
