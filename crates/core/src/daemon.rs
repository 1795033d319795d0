//! The `surfosd serve` daemon: many clients, one kernel, over a wire.
//!
//! This module turns an in-process [`SurfOS`] kernel into a long-running
//! network service. Clients connect over TCP or a unix socket, speak the
//! framed protocol in [`rpc`](crate::rpc), and their requests are routed
//! through broker tenant registration
//! ([`TenantRegistry`]) and the
//! kernel's [`resource_model`](SurfOS::resource_model) admission precheck.
//! Over-demand — quota exhausted, registry at capacity, empty resource
//! grid — and registrations the kernel could never serve (non-finite
//! goals, non-positive durations, unknown subjects) always answer with a
//! structured `Rejected{reason}` response; the daemon never parks a
//! request.
//!
//! # Threading model
//!
//! One acceptor thread owns the listeners; a **bounded pool** of session
//! workers (sized by [`surfos_channel::par::configured_threads`], the same
//! `SURFOS_THREADS` discipline as the compute pools) owns the connections.
//! Each worker sweeps its shard of non-blocking connections: drain bytes
//! into a [`FrameBuf`], decode complete frames, dispatch, queue the
//! response bytes, flush. Kernel and registry state live behind one mutex
//! — the kernel is single-threaded by design, so the pool buys *I/O*
//! concurrency (thousands of idle connections are cheap) while dispatch
//! stays serialized and deterministic. An optional ticker thread drives
//! [`SurfOS::step`] so registered services actually get scheduled and
//! optimized while the daemon serves.
//!
//! # Tenancy
//!
//! Every connection gets a tenant id: `conn-N` by default, or the name
//! claimed in the first request's `tenant` field. Auto tenants are torn
//! down on disconnect (their leases released, backing tasks retired);
//! *claimed* tenants outlive their connections, so a client can reconnect
//! and release its leases by id.

use crate::rpc::frame::{write_frame, FrameBuf};
use crate::rpc::proto::{ProtoError, Request, RequestEnvelope, Response, PROTOCOL_VERSION};
use crate::SurfOS;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use surfos_broker::registry::TenantRegistry;
use surfos_obs as obs;
use surfos_orchestrator::task::{TaskId, TaskState};
use surfos_orchestrator::{ServiceRequest, SERVICE_KINDS};

/// How the daemon listens and admits.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCP listen address (e.g. `"127.0.0.1:7464"`, port `0` for an
    /// ephemeral port). `None` disables TCP.
    pub tcp: Option<String>,
    /// Unix socket path. `None` disables the unix listener. A stale
    /// socket file at the path is removed on start.
    pub unix: Option<PathBuf>,
    /// Session worker threads; `0` means the `channel::par` discipline
    /// (`SURFOS_THREADS`, else available parallelism), capped at 8.
    pub workers: usize,
    /// Maximum simultaneously-open connections. Connections beyond the
    /// cap are answered with one `Rejected` frame and closed — never left
    /// hanging in the accept queue.
    pub max_conns: usize,
    /// Kernel heartbeat period. Every `tick_ms` of wall time the daemon
    /// steps the kernel by `tick_ms` of simulation time, scheduling and
    /// optimizing admitted services. `0` disables the ticker — the kernel
    /// only admits (deterministic mode for recorded runs).
    pub tick_ms: u64,
    /// Global live-lease capacity across all tenants.
    pub capacity: usize,
    /// Live-lease cap per tenant.
    pub per_tenant: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            tcp: Some("127.0.0.1:0".into()),
            unix: None,
            workers: 0,
            max_conns: 4096,
            tick_ms: 0,
            capacity: 256,
            per_tenant: 16,
        }
    }
}

/// The request broker: kernel + tenant ledger + dispatch. Public so the
/// loopback tests and benches can drive admission without sockets.
pub struct Dispatcher {
    kernel: SurfOS,
    registry: TenantRegistry,
}

impl Dispatcher {
    /// Wraps a kernel with a tenant ledger sized by `opts`.
    pub fn new(kernel: SurfOS, opts: &ServeOptions) -> Self {
        Dispatcher {
            kernel,
            registry: TenantRegistry::new(opts.capacity, opts.per_tenant),
        }
    }

    /// The kernel being served.
    pub fn kernel(&self) -> &SurfOS {
        &self.kernel
    }

    /// Mutable kernel access (the ticker steps through this).
    pub fn kernel_mut(&mut self) -> &mut SurfOS {
        &mut self.kernel
    }

    /// Serves one request for `tenant`. Infallible by construction: every
    /// failure mode maps to a `Rejected` (admission) or `Error` (caller
    /// mistake) response.
    pub fn dispatch(&mut self, tenant: &str, request: &Request) -> Response {
        match request {
            Request::Ping => Response::Pong {
                version: PROTOCOL_VERSION,
                tenant: tenant.to_owned(),
            },
            Request::RegisterService {
                kind,
                subject,
                value,
            } => self.register(tenant, kind, subject, *value),
            Request::ReleaseService { service } => match self.registry.release(tenant, *service) {
                Ok(lease) => {
                    self.retire(lease.task);
                    Response::Released { service: *service }
                }
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            },
            Request::SubmitIntent { utterance } => self.intent(tenant, utterance),
            Request::QueryChannel { tx, rx } => self.query(tx, rx),
            Request::Metrics { deterministic } => {
                let snap = obs::snapshot();
                Response::Metrics {
                    json: if *deterministic {
                        snap.deterministic_json()
                    } else {
                        snap.to_json()
                    },
                }
            }
        }
    }

    /// The resource-grid precheck shared by register and intent: a grid
    /// with no surfaces or no slots can never run a task, so reject now
    /// rather than queue forever (mirrors `ShardedKernel::submit_service`).
    fn grid_reject(&self) -> Option<Response> {
        let model = self.kernel.resource_model();
        if model.surfaces == 0 {
            return Some(Response::Rejected {
                reason: "no surfaces deployed: the resource grid is empty".into(),
            });
        }
        if model.slots_per_frame == 0 {
            return Some(Response::Rejected {
                reason: "scheduler frame has zero slots".into(),
            });
        }
        None
    }

    fn register(&mut self, tenant: &str, kind: &str, subject: &str, value: f64) -> Response {
        if let Some(reject) = self.grid_reject() {
            return reject;
        }
        let request = match ServiceRequest::parse(kind, subject, value) {
            Ok(request) => request,
            Err(message) if !SERVICE_KINDS.contains(&kind) => return Response::Error { message },
            Err(reason) => return Response::Rejected { reason },
        };
        if let Err(reason) = self.kernel.orchestrator().check_subject(&request) {
            return Response::Rejected { reason };
        }
        if let Err(e) = self.registry.admit(tenant) {
            return Response::Rejected {
                reason: e.to_string(),
            };
        }
        let task = self.kernel.submit(request);
        match self.registry.register(tenant, kind, task) {
            Ok(service) => Response::Registered { service, task },
            // admit() passed above; a race is impossible under the state
            // mutex, but fail closed: retire the freshly admitted task.
            Err(e) => {
                self.retire(task);
                Response::Rejected {
                    reason: e.to_string(),
                }
            }
        }
    }

    fn intent(&mut self, tenant: &str, utterance: &str) -> Response {
        if let Some(reject) = self.grid_reject() {
            return reject;
        }
        if let Err(e) = self.registry.admit(tenant) {
            return Response::Rejected {
                reason: e.to_string(),
            };
        }
        let mut admitted = Vec::new();
        for task in self.kernel.handle_utterance(utterance) {
            match self.registry.register(tenant, "intent", task) {
                Ok(_) => admitted.push(task),
                // Quota ran out mid-intent: the overflow tasks are
                // retired, the admitted prefix stands.
                Err(_) => self.retire(task),
            }
        }
        Response::IntentTasks { tasks: admitted }
    }

    fn query(&mut self, tx: &str, rx: &str) -> Response {
        let orch = self.kernel.orchestrator();
        let (Some(tx_ep), Some(rx_ep)) = (orch.endpoint(tx), orch.endpoint(rx)) else {
            let missing = if orch.endpoint(tx).is_none() { tx } else { rx };
            return Response::Error {
                message: format!("unknown endpoint {missing:?}"),
            };
        };
        let budget = self.kernel.sim().link_budget(tx_ep, rx_ep);
        Response::Channel {
            rss_dbm: budget.rss_dbm,
            snr_db: budget.snr_db,
            capacity_bps: budget.capacity_bps,
        }
    }

    /// Retires the kernel task behind a released lease, following the
    /// release discipline of the sharded kernel: running tasks go idle
    /// first (freeing their slices), pending tasks fail.
    fn retire(&mut self, task: TaskId) {
        let orch = self.kernel.orchestrator_mut();
        match orch.tasks.get(task).map(|t| t.state) {
            Some(TaskState::Running) => {
                orch.set_idle(task);
                orch.tasks.set_state(task, TaskState::Completed);
            }
            Some(TaskState::Idle) => orch.tasks.set_state(task, TaskState::Completed),
            Some(TaskState::Pending) => orch.tasks.set_state(task, TaskState::Failed),
            // Completed/Failed (reaped by expiry) or unknown: nothing to do.
            _ => {}
        }
    }

    /// Tears down an auto-assigned tenant on disconnect: every lease it
    /// holds is released and its backing task retired.
    fn teardown(&mut self, tenant: &str) {
        for lease in self.registry.release_tenant(tenant) {
            self.retire(lease.task);
        }
    }
}

/// The quickstart kernel `surfosd serve` boots when no `--setup` script
/// is given: the two-room apartment with one programmable surface on the
/// bedroom wall, an access point (`ap0`) and a client (`laptop`) — the
/// same scene as the crate-level doctest, ready to take registrations,
/// intents and channel queries out of the box.
pub fn demo_kernel() -> SurfOS {
    use surfos_channel::{ChannelSim, Endpoint};
    let scen = surfos_geometry::scenario::two_room_apartment();
    let sim = ChannelSim::new(
        scen.plan.clone(),
        surfos_em::band::NamedBand::MmWave28GHz.band(),
    );
    let mut os = SurfOS::new(sim);
    let pose = *scen.anchor("bedroom-north").expect("scenario anchor");
    os.deploy_surface(
        "wall0",
        Box::new(surfos_hw::ProgrammableDriver::new(
            surfos_hw::designs::nr_surface(),
        )),
        pose,
    );
    os.add_endpoint(Endpoint::access_point("ap0", scen.ap_pose));
    os.add_endpoint(Endpoint::client(
        "laptop",
        surfos_geometry::Vec3::new(6.5, 1.5, 1.2),
    ));
    os.set_user_room(scen.target_room.clone());
    os
}

/// One live connection, TCP or unix.
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(nb),
            Conn::Unix(s) => s.set_nonblocking(nb),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Per-connection session state owned by one worker.
struct Session {
    conn: Conn,
    inbuf: FrameBuf,
    /// Encoded response bytes not yet accepted by the socket.
    outbuf: Vec<u8>,
    out_pos: usize,
    tenant: String,
    /// False until the first request; that request's `tenant` claim (if
    /// any) rebinds the session.
    bound: bool,
    /// True for `conn-N` tenants, whose leases die with the connection.
    auto_tenant: bool,
    closing: bool,
}

/// Bytes drained per session per sweep — bounds one client's buffered
/// demand without starving its neighbours on the same worker.
const READ_QUANTUM: usize = 64 * 1024;

impl Session {
    fn new(conn: Conn, id: u64) -> Self {
        Session {
            conn,
            inbuf: FrameBuf::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            tenant: format!("conn-{id}"),
            bound: false,
            auto_tenant: true,
            closing: false,
        }
    }

    fn queue(&mut self, body: &str) {
        write_frame(&mut self.outbuf, body).expect("Vec write is infallible");
    }

    /// Pushes queued bytes into the socket; returns false on a dead peer.
    fn flush(&mut self) -> bool {
        while self.out_pos < self.outbuf.len() {
            match self.conn.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.out_pos == self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
        }
        true
    }

    fn flushed(&self) -> bool {
        self.out_pos == self.outbuf.len()
    }
}

/// A running daemon. Dropping it (or calling [`stop`](Server::stop))
/// shuts the listeners, closes every session and joins the threads.
pub struct Server {
    stop: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    live: Arc<AtomicUsize>,
}

impl Server {
    /// Boots the daemon around `kernel`.
    ///
    /// Binds the listeners (so a `port 0` request has its real port in
    /// [`tcp_addr`](Server::tcp_addr) when this returns), then spawns the
    /// acceptor, the session workers and (if `tick_ms > 0`) the kernel
    /// ticker.
    pub fn start(kernel: SurfOS, opts: ServeOptions) -> io::Result<Server> {
        let tcp = match &opts.tcp {
            Some(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let tcp_addr = tcp.as_ref().map(|l| l.local_addr()).transpose()?;
        let unix = match &opts.unix {
            Some(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };

        let state = Arc::new(Mutex::new(Dispatcher::new(kernel, &opts)));
        let stop = Arc::new(AtomicBool::new(false));
        let inbox: Arc<Mutex<VecDeque<Session>>> = Arc::new(Mutex::new(VecDeque::new()));
        let live = Arc::new(AtomicUsize::new(0));
        let workers = if opts.workers > 0 {
            opts.workers
        } else {
            surfos_channel::par::configured_threads().min(8)
        };

        let mut handles = Vec::new();
        {
            let (stop, inbox, live) = (stop.clone(), inbox.clone(), live.clone());
            let max_conns = opts.max_conns;
            handles.push(
                std::thread::Builder::new()
                    .name("rpc-accept".into())
                    .spawn(move || accept_loop(tcp, unix, &stop, &inbox, &live, max_conns))
                    .expect("spawn acceptor"),
            );
        }
        for w in 0..workers {
            let (stop, inbox, live, state) =
                (stop.clone(), inbox.clone(), live.clone(), state.clone());
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rpc-worker-{w}"))
                    .spawn(move || worker_loop(&stop, &inbox, &live, &state, workers))
                    .expect("spawn worker"),
            );
        }
        if opts.tick_ms > 0 {
            let (stop, state) = (stop.clone(), state.clone());
            let tick = Duration::from_millis(opts.tick_ms);
            let dt = opts.tick_ms;
            handles.push(
                std::thread::Builder::new()
                    .name("rpc-ticker".into())
                    .spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            std::thread::sleep(tick);
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let _span = obs::span!("daemon.tick");
                            state.lock().expect("state lock").kernel_mut().step(dt);
                        }
                    })
                    .expect("spawn ticker"),
            );
        }

        Ok(Server {
            stop,
            handles,
            tcp_addr,
            unix_path: opts.unix,
            live,
        })
    }

    /// The bound TCP address (the real port when `0` was requested).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The unix socket path, if one is being served.
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// Connections currently open.
    pub fn live_conns(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Stops the daemon: listeners close, every session is dropped,
    /// threads join, the unix socket file is removed.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long idle loops sleep between sweeps. Short enough that a request
/// round-trip stays well under a millisecond of added latency.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

fn accept_loop(
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    stop: &AtomicBool,
    inbox: &Mutex<VecDeque<Session>>,
    live: &AtomicUsize,
    max_conns: usize,
) {
    let mut conn_seq: u64 = 0;
    while !stop.load(Ordering::Relaxed) {
        let mut accepted = false;
        let mut incoming: Vec<Conn> = Vec::new();
        if let Some(l) = &tcp {
            while let Ok((s, _)) = l.accept() {
                incoming.push(Conn::Tcp(s));
            }
        }
        if let Some(l) = &unix {
            while let Ok((s, _)) = l.accept() {
                incoming.push(Conn::Unix(s));
            }
        }
        for mut conn in incoming {
            accepted = true;
            if live.load(Ordering::Relaxed) >= max_conns {
                // Over the connection cap: structured rejection, then
                // close. The peer gets an answer, not a hang.
                obs::add("rpc.conns.over_capacity", 1);
                let body = Response::Rejected {
                    reason: format!("connection limit reached ({max_conns})"),
                }
                .encode(0);
                let _ = write_frame(&mut conn, &body);
                continue;
            }
            if conn.set_nonblocking(true).is_err() {
                continue;
            }
            conn_seq += 1;
            live.fetch_add(1, Ordering::Relaxed);
            obs::add("rpc.conns.opened", 1);
            obs::gauge("rpc.conns.live", live.load(Ordering::Relaxed) as f64);
            inbox
                .lock()
                .expect("inbox lock")
                .push_back(Session::new(conn, conn_seq));
        }
        if !accepted {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

fn worker_loop(
    stop: &AtomicBool,
    inbox: &Mutex<VecDeque<Session>>,
    live: &AtomicUsize,
    state: &Mutex<Dispatcher>,
    workers: usize,
) {
    let mut sessions: Vec<Session> = Vec::new();
    let mut scratch = [0u8; 4096];
    while !stop.load(Ordering::Relaxed) {
        // Adopt a fair share of newly accepted connections.
        {
            let mut q = inbox.lock().expect("inbox lock");
            let take = q.len().div_ceil(workers).min(q.len());
            for _ in 0..take {
                sessions.push(q.pop_front().expect("len checked"));
            }
        }

        let mut active = false;
        for s in &mut sessions {
            active |= sweep_session(s, state, &mut scratch);
        }

        // Drop closed sessions, tearing down their auto tenants.
        let before = sessions.len();
        let mut dead = Vec::new();
        sessions.retain_mut(|s| {
            if s.closing && s.flushed() {
                dead.push((s.tenant.clone(), s.auto_tenant));
                false
            } else {
                true
            }
        });
        if before != sessions.len() {
            live.fetch_sub(before - sessions.len(), Ordering::Relaxed);
            obs::add("rpc.conns.closed", (before - sessions.len()) as u64);
            obs::gauge("rpc.conns.live", live.load(Ordering::Relaxed) as f64);
            let mut st = state.lock().expect("state lock");
            for (tenant, auto) in dead {
                if auto {
                    st.teardown(&tenant);
                }
            }
        }

        if !active {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// One sweep over one session: drain readable bytes, serve every complete
/// frame, flush. Returns true if any bytes moved (the worker skips its
/// idle sleep).
fn sweep_session(s: &mut Session, state: &Mutex<Dispatcher>, scratch: &mut [u8]) -> bool {
    let mut moved = false;
    if !s.closing {
        let mut drained = 0;
        loop {
            match s.conn.read(scratch) {
                Ok(0) => {
                    s.closing = true;
                    break;
                }
                Ok(n) => {
                    moved = true;
                    s.inbuf.extend(&scratch[..n]);
                    drained += n;
                    if drained >= READ_QUANTUM {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    s.closing = true;
                    break;
                }
            }
        }
    }

    // A mid-frame disconnect (EOF with bytes still pending in the frame
    // buffer) is simply dropped: there is no complete request to serve
    // and nobody left to answer.
    loop {
        match s.inbuf.next_frame() {
            Ok(Some(body)) => {
                moved = true;
                serve_frame(s, state, &body);
            }
            Ok(None) => break,
            // Framing is unrecoverable (we cannot resync a byte stream
            // with a hostile length prefix): answer once, then close.
            Err(e) => {
                obs::add("rpc.frame_errors", 1);
                let body = Response::Error {
                    message: format!("framing error: {e}"),
                }
                .encode(0);
                s.queue(&body);
                s.closing = true;
                break;
            }
        }
    }

    if !s.flush() {
        s.closing = true;
        s.outbuf.clear();
        s.out_pos = 0;
    }
    moved
}

/// Decodes one frame body, binds the session tenant, dispatches, queues
/// the response.
fn serve_frame(s: &mut Session, state: &Mutex<Dispatcher>, body: &str) {
    let t0 = Instant::now();
    let (id, op, response) = match RequestEnvelope::decode(body) {
        Ok(env) => {
            if !s.bound {
                if let Some(claim) = &env.tenant {
                    s.tenant = claim.clone();
                    s.auto_tenant = false;
                }
                s.bound = true;
            }
            let response = state
                .lock()
                .expect("state lock")
                .dispatch(&s.tenant, &env.request);
            (env.id, env.request.op(), response)
        }
        Err(ProtoError(message)) => (0, "invalid", Response::Error { message }),
    };
    let _op_label = obs::scoped(&[("op", op)]);
    obs::observe_ns("rpc.request_ns", t0.elapsed().as_nanos() as u64);
    obs::add("rpc.requests", 1);
    match &response {
        Response::Rejected { .. } => obs::add("rpc.rejected", 1),
        Response::Error { .. } => obs::add("rpc.errors", 1),
        _ => {}
    }
    s.queue(&response.encode(id));
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfos_channel::ChannelSim;
    use surfos_em::band::NamedBand;
    use surfos_geometry::scenario::two_room_apartment;

    fn kernel() -> SurfOS {
        demo_kernel()
    }

    fn dispatcher(capacity: usize, per_tenant: usize) -> Dispatcher {
        let opts = ServeOptions {
            capacity,
            per_tenant,
            ..ServeOptions::default()
        };
        Dispatcher::new(kernel(), &opts)
    }

    #[test]
    fn ping_echoes_tenant_and_version() {
        let mut d = dispatcher(8, 4);
        let resp = d.dispatch("conn-1", &Request::Ping);
        assert_eq!(
            resp,
            Response::Pong {
                version: PROTOCOL_VERSION,
                tenant: "conn-1".into()
            }
        );
    }

    #[test]
    fn register_then_release_round_trips_through_the_kernel() {
        let mut d = dispatcher(8, 4);
        let resp = d.dispatch(
            "t",
            &Request::RegisterService {
                kind: "coverage".into(),
                subject: "bedroom".into(),
                value: 25.0,
            },
        );
        let Response::Registered { service, task } = resp else {
            panic!("expected Registered, got {resp:?}");
        };
        assert!(d.kernel().orchestrator().tasks.get(task).is_some());
        let resp = d.dispatch("t", &Request::ReleaseService { service });
        assert_eq!(resp, Response::Released { service });
        // The backing task was retired, not left pending.
        let state = d.kernel().orchestrator().tasks.get(task).unwrap().state;
        assert!(matches!(state, TaskState::Failed | TaskState::Completed));
    }

    #[test]
    fn quota_exhaustion_rejects_with_reason() {
        let mut d = dispatcher(64, 2);
        let req = Request::RegisterService {
            kind: "coverage".into(),
            subject: "bedroom".into(),
            value: 25.0,
        };
        assert!(matches!(d.dispatch("t", &req), Response::Registered { .. }));
        assert!(matches!(d.dispatch("t", &req), Response::Registered { .. }));
        let Response::Rejected { reason } = d.dispatch("t", &req) else {
            panic!("third registration should exceed the per-tenant cap");
        };
        assert!(reason.contains("quota"), "{reason}");
        // A different tenant still gets in.
        assert!(matches!(d.dispatch("u", &req), Response::Registered { .. }));
    }

    #[test]
    fn unservable_registrations_reject_before_admission() {
        let mut d = dispatcher(256, 256);
        let values = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0, 25.0];
        let mut registered = 0;
        for kind in SERVICE_KINDS {
            let is_duration = matches!(kind, "sensing" | "powering");
            let valid = if matches!(kind, "link" | "powering") {
                "laptop"
            } else {
                "bedroom"
            };
            for subject in ["", "nope", valid] {
                for value in values {
                    let tasks = d.kernel().orchestrator().tasks.all().len();
                    let resp = d.dispatch(
                        "t",
                        &Request::RegisterService {
                            kind: kind.into(),
                            subject: subject.into(),
                            value,
                        },
                    );
                    let servable =
                        subject == valid && value.is_finite() && (!is_duration || value > 0.0);
                    let case = format!("{kind} {subject:?} {value} -> {resp:?}");
                    if servable {
                        assert!(matches!(resp, Response::Registered { .. }), "{case}");
                        registered += 1;
                    } else {
                        assert!(matches!(resp, Response::Rejected { .. }), "{case}");
                        // No task and no lease behind a rejection.
                        let after = d.kernel().orchestrator().tasks.all().len();
                        assert_eq!(after, tasks, "{case}");
                    }
                    assert_eq!(d.registry.live(), registered, "{case}");
                }
            }
        }
        assert_eq!(registered, 3 * 3 + 2);
        // The load-generator mix stays registrable.
        for (kind, subject) in [("link", "laptop"), ("coverage", "bedroom")] {
            let resp = d.dispatch(
                "mix",
                &Request::RegisterService {
                    kind: kind.into(),
                    subject: subject.into(),
                    value: if kind == "link" { 20.0 } else { 25.0 },
                },
            );
            assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
        }
    }

    #[test]
    fn empty_grid_rejects_instead_of_queueing() {
        let scen = two_room_apartment();
        let sim = ChannelSim::new(scen.plan.clone(), NamedBand::MmWave28GHz.band());
        let mut d = Dispatcher::new(SurfOS::new(sim), &ServeOptions::default());
        let Response::Rejected { reason } = d.dispatch(
            "t",
            &Request::RegisterService {
                kind: "coverage".into(),
                subject: "bedroom".into(),
                value: 25.0,
            },
        ) else {
            panic!("no surfaces deployed: must reject");
        };
        assert!(reason.contains("no surfaces"), "{reason}");
    }

    #[test]
    fn unknown_kind_and_endpoint_are_errors_not_rejections() {
        let mut d = dispatcher(8, 4);
        let resp = d.dispatch(
            "t",
            &Request::RegisterService {
                kind: "teleport".into(),
                subject: "bedroom".into(),
                value: 1.0,
            },
        );
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
        let resp = d.dispatch(
            "t",
            &Request::QueryChannel {
                tx: "ap0".into(),
                rx: "ghost".into(),
            },
        );
        let Response::Error { message } = resp else {
            panic!("unknown endpoint must be an error");
        };
        assert!(message.contains("ghost"), "{message}");
    }

    #[test]
    fn query_channel_reports_a_live_link_budget() {
        let mut d = dispatcher(8, 4);
        let resp = d.dispatch(
            "t",
            &Request::QueryChannel {
                tx: "ap0".into(),
                rx: "laptop".into(),
            },
        );
        let Response::Channel {
            rss_dbm,
            snr_db,
            capacity_bps,
        } = resp
        else {
            panic!("expected Channel");
        };
        assert!(rss_dbm.is_finite() && rss_dbm < 0.0);
        assert!(snr_db.is_finite());
        assert!(capacity_bps >= 0.0);
    }

    #[test]
    fn intent_registers_leases_up_to_quota() {
        let mut d = dispatcher(64, 1);
        let resp = d.dispatch(
            "t",
            &Request::SubmitIntent {
                utterance: "I want to watch a movie on my laptop".into(),
            },
        );
        let Response::IntentTasks { tasks } = resp else {
            panic!("expected IntentTasks");
        };
        // per-tenant cap is 1: exactly one lease admitted regardless of
        // how many tasks the utterance grounded into.
        assert_eq!(tasks.len().min(1), tasks.len());
        assert_eq!(d.registry.live_of("t"), tasks.len());
    }

    #[test]
    fn teardown_releases_auto_tenant_leases() {
        let mut d = dispatcher(8, 4);
        let Response::Registered { task, .. } = d.dispatch(
            "conn-1",
            &Request::RegisterService {
                kind: "coverage".into(),
                subject: "bedroom".into(),
                value: 25.0,
            },
        ) else {
            panic!("expected Registered");
        };
        assert_eq!(d.registry.live(), 1);
        d.teardown("conn-1");
        assert_eq!(d.registry.live(), 0);
        let state = d.kernel().orchestrator().tasks.get(task).unwrap().state;
        assert!(matches!(state, TaskState::Failed | TaskState::Completed));
    }

    #[test]
    fn metrics_payload_is_parseable_json() {
        let mut d = dispatcher(8, 4);
        let Response::Metrics { json } = d.dispatch(
            "t",
            &Request::Metrics {
                deterministic: true,
            },
        ) else {
            panic!("expected Metrics");
        };
        surfos_obs::JsonValue::parse(&json).expect("metrics must parse");
    }

    #[test]
    fn deeply_nested_frame_is_an_error_and_the_session_survives() {
        use crate::rpc::frame::{read_frame, MAX_FRAME_LEN};
        let opts = ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        };
        let server = Server::start(kernel(), opts).expect("bind loopback");
        let mut c = TcpStream::connect(server.tcp_addr().expect("tcp")).expect("connect");
        c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let mut call = |body: &str| {
            write_frame(&mut c, body).expect("write frame");
            let reply = read_frame(&mut c).expect("read").expect("an answer");
            Response::decode(&reply).expect("valid response").1
        };
        // A full-size frame of `[` on a default-stack worker thread.
        let resp = call(&"[".repeat(MAX_FRAME_LEN));
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
        let resp = call(&RequestEnvelope::new(1, Request::Ping).encode());
        assert!(matches!(resp, Response::Pong { .. }), "{resp:?}");
        server.stop();
    }
}
