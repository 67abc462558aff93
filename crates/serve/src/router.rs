//! `fvae-router`: a stateless routing tier in front of N `fvae-serve`
//! shards.
//!
//! ## Topology
//!
//! The paper serves production traffic from a fleet of embedding servers
//! behind a router (Fig. 10); this module is that router as a real
//! process. It speaks the same length-prefixed protocol on both sides:
//! downstream it looks exactly like a single `fvae-serve` server (so
//! `Client`, `fvae embed-client`, and `fvae loadgen` work unchanged),
//! upstream it holds a persistent connection pool per shard and forwards
//! each embed request to the shard that owns the request's row hash on a
//! consistent hash ring.
//!
//! ## Routing and failover
//!
//! The ring hashes each shard *index* into `replicas` virtual nodes;
//! a request's `row_hash` binary-searches the ring and walks clockwise to
//! produce a preference order over distinct shards. Every shard serves the
//! full model (sharding is for load spreading and cache affinity, not data
//! partitioning), so any shard can answer any request — a failed RPC
//! re-routes to the next shard in ring order. A shard that fails
//! `fail_threshold` consecutive RPCs is marked **unhealthy** and skipped;
//! after `probe_interval` one request is admitted as a **half-open probe**
//! whose outcome re-admits the shard or re-arms the probe timer. Every
//! request gets exactly one reply on every path: an embedding from the
//! first shard that answers, `Overloaded` when the fleet is saturated, or
//! an `UNAVAILABLE` error when no shard is reachable at all.
//!
//! ## Coordinated reload
//!
//! `ReloadRequest` against the router is transactional across the fleet:
//! the router asks every shard to reload, **commits** only when every
//! shard reports success with the *same* new checkpoint identity, and
//! otherwise **rolls back** every shard to the previous identity via
//! `ReloadToRequest` — so the fleet version reported by `InfoRequest`
//! moves atomically and clients never observe a committed mixed-version
//! fleet.

use std::fmt;
use std::io::{self, Write};
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fvae_obs::{Counter, Gauge, Histogram, Registry, TraceBuffer, TraceEvent};

use crate::cache::row_hash;
use crate::client::{Client, ServerInfo};
use crate::protocol::{
    decode_message, error_code, read_frame, read_payload, write_frame, Message, RecvError,
};
use crate::server::loopback_connect_addr;

// ---------------------------------------------------------------------------
// Trace stages
// ---------------------------------------------------------------------------

/// The router pipeline's trace stages, in request order. `shard_rpc` is
/// recorded once per upstream attempt, so a failover request shows
/// multiple `shard_rpc` spans under one trace id.
pub static ROUTER_TRACE_STAGES: &[&str] = &["decode", "route", "shard_rpc", "reply_write"];

const RT_DECODE: usize = 0;
const RT_ROUTE: usize = 1;
const RT_SHARD_RPC: usize = 2;
const RT_REPLY_WRITE: usize = 3;

/// Idle housekeeping cadence: finished downstream connections are reaped
/// this often even when no new connection arrives.
const IDLE_SWEEP_TICK: Duration = Duration::from_millis(200);

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Router configuration. [`RouterConfig::new`] fills in defaults tuned for
/// small fleets and tests; every knob is public for the CLI.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Shard backend addresses (`host:port`), one per shard index. Ring
    /// positions are derived from the *index*, so a shard restarted on a
    /// new port keeps its ring share.
    pub shards: Vec<String>,
    /// Optional file of shard addresses (line `i` = shard `i`), re-read
    /// before each upstream connect — lets an operator repoint a restarted
    /// shard without restarting the router.
    pub shards_file: Option<PathBuf>,
    /// Listen host (default `127.0.0.1`).
    pub host: String,
    /// Listen port; 0 binds an ephemeral port (see [`Router::addr`]).
    pub port: u16,
    /// Virtual nodes per shard on the hash ring.
    pub replicas: usize,
    /// Persistent upstream connections per shard — also the shard's
    /// bounded in-flight window: at most this many requests are in flight
    /// to one shard at once.
    pub pool_size: usize,
    /// Bound on upstream connection establishment.
    pub connect_timeout: Duration,
    /// Bound on one upstream request/reply exchange.
    pub rpc_timeout: Duration,
    /// How long a request waits for a pooled connection before treating
    /// the shard as saturated and failing over.
    pub pool_wait: Duration,
    /// Maximum distinct shards tried per request (first choice + failover).
    pub max_attempts: usize,
    /// Consecutive RPC failures that mark a shard unhealthy.
    pub fail_threshold: u32,
    /// How long an unhealthy shard sits out before a half-open probe.
    pub probe_interval: Duration,
    /// Slots in the router's trace ring (rounded up to a power of two).
    pub trace_capacity: usize,
}

impl RouterConfig {
    /// Defaults for a small local fleet.
    pub fn new(shards: Vec<String>) -> Self {
        Self {
            shards,
            shards_file: None,
            host: "127.0.0.1".to_string(),
            port: 0,
            replicas: 64,
            pool_size: 4,
            connect_timeout: Duration::from_secs(2),
            rpc_timeout: Duration::from_secs(5),
            pool_wait: Duration::from_millis(250),
            max_attempts: 3,
            fail_threshold: 3,
            probe_interval: Duration::from_millis(500),
            trace_capacity: 4096,
        }
    }
}

/// Errors starting the router.
#[derive(Debug)]
pub enum RouterError {
    /// Socket failure (bind, listen).
    Io(io::Error),
    /// The shard fleet failed validation at startup: a shard was
    /// unreachable, or the shards disagree on architecture / checkpoint
    /// (a mixed-version fleet must never start serving).
    Fleet(String),
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::Io(e) => write!(f, "io error: {e}"),
            RouterError::Fleet(msg) => write!(f, "fleet validation failed: {msg}"),
        }
    }
}

impl std::error::Error for RouterError {}

impl From<io::Error> for RouterError {
    fn from(e: io::Error) -> Self {
        RouterError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct RouterMetrics {
    registry: Registry,
    requests: Counter,
    replies_ok: Counter,
    overloaded: Counter,
    errors: Counter,
    /// Upstream attempts beyond a request's first (failover re-routes).
    retries: Counter,
    connections: Counter,
    latency_us: Histogram,
    /// Number of shards currently marked unhealthy.
    unhealthy_shards: Gauge,
    reloads: Counter,
    reload_noops: Counter,
    reload_errors: Counter,
    /// Failed coordinated reloads whose rollback restored every shard.
    reload_rollbacks: Counter,
    /// Per-stage wall time (`fvae_router_stage_ns{stage=...}`).
    stage_ns: [Histogram; ROUTER_TRACE_STAGES.len()],
}

impl RouterMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        Self {
            requests: registry.counter("fvae_router_requests"),
            replies_ok: registry.counter("fvae_router_replies_ok"),
            overloaded: registry.counter("fvae_router_overloaded"),
            errors: registry.counter("fvae_router_errors"),
            retries: registry.counter("fvae_router_retries"),
            connections: registry.counter("fvae_router_connections"),
            latency_us: registry.histogram("fvae_router_latency_us"),
            unhealthy_shards: registry.gauge("fvae_router_unhealthy_shards"),
            reloads: registry.counter("fvae_router_reloads"),
            reload_noops: registry.counter("fvae_router_reload_noops"),
            reload_errors: registry.counter("fvae_router_reload_errors"),
            reload_rollbacks: registry.counter("fvae_router_reload_rollbacks"),
            stage_ns: std::array::from_fn(|i| {
                registry.histogram_with("fvae_router_stage_ns", &[("stage", ROUTER_TRACE_STAGES[i])])
            }),
            registry,
        }
    }
}

// ---------------------------------------------------------------------------
// Hash ring
// ---------------------------------------------------------------------------

/// splitmix64 finalizer — mixes a shard/vnode pair into a ring point.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Builds the ring: `replicas` points per shard, keyed by shard *index*
/// (not address), sorted by point. Indices keep their ring share across
/// address changes and restarts.
fn build_ring(n_shards: usize, replicas: usize) -> Vec<(u64, u32)> {
    let mut ring = Vec::with_capacity(n_shards * replicas);
    for s in 0..n_shards {
        for v in 0..replicas {
            let point = mix64(((s as u64) << 32) | (v as u64 + 1));
            ring.push((point, s as u32));
        }
    }
    ring.sort_unstable();
    ring
}

/// The request's shard preference order: binary-search the ring for the
/// hash, then walk clockwise collecting distinct shards. Returns every
/// shard exactly once, nearest ring successor first.
fn ring_candidates(ring: &[(u64, u32)], n_shards: usize, hash: u64, out: &mut Vec<u32>) {
    out.clear();
    if ring.is_empty() {
        return;
    }
    let start = ring.partition_point(|&(p, _)| p < hash) % ring.len();
    for i in 0..ring.len() {
        let (_, shard) = ring[(start + i) % ring.len()];
        if !out.contains(&shard) {
            out.push(shard);
            if out.len() == n_shards {
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shard state: health + connection pool
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HealthState {
    /// Serving normally.
    Healthy,
    /// Sat out after `fail_threshold` consecutive failures; requests skip
    /// this shard until `probe_interval` elapses.
    Unhealthy,
    /// One request is in flight as a half-open probe; everyone else still
    /// skips the shard until the probe resolves.
    Probing,
}

struct Health {
    state: HealthState,
    /// When the shard entered `Unhealthy` (probe timer origin).
    since: Instant,
    consecutive_failures: u32,
}

/// One pooled upstream connection. Any RPC error discards it — after a
/// partial exchange the stream may hold a stray reply, and reusing it
/// would desynchronize every later request on this connection.
struct ShardConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
}

impl ShardConn {
    fn rpc(&mut self, msg: &Message) -> Result<Message, RecvError> {
        write_frame(&mut self.stream, msg, &mut self.wbuf)?;
        match read_frame(&mut self.stream, &mut self.rbuf)? {
            Some(reply) => Ok(reply),
            None => Err(RecvError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "shard closed mid-request",
            ))),
        }
    }
}

struct Pool {
    idle: Vec<ShardConn>,
    /// Checked-out + idle connections; bounded by `pool_size`, making the
    /// pool double as the shard's in-flight window.
    live: usize,
}

enum CheckoutError {
    /// The in-flight window is full and stayed full past `pool_wait`.
    Busy,
    /// Establishing a fresh connection failed.
    Connect(io::Error),
}

struct Shard {
    idx: usize,
    /// Current address; refreshed from `shards_file` before each connect.
    addr: Mutex<String>,
    pool: Mutex<Pool>,
    pool_cv: Condvar,
    health: Mutex<Health>,
    /// 1 while this shard is unhealthy or probing
    /// (`fvae_router_shard_unhealthy{shard="i"}`).
    unhealthy: Gauge,
    /// RPC failures charged to this shard
    /// (`fvae_router_shard_failures{shard="i"}`).
    failures: Counter,
    /// Per-attempt upstream exchange time
    /// (`fvae_router_shard_rpc_ns{shard="i"}`).
    rpc_ns: Histogram,
}

impl Shard {
    fn new(idx: usize, addr: String, registry: &Registry) -> Self {
        let label = idx.to_string();
        Self {
            idx,
            addr: Mutex::new(addr),
            pool: Mutex::new(Pool { idle: Vec::new(), live: 0 }),
            pool_cv: Condvar::new(),
            health: Mutex::new(Health {
                state: HealthState::Healthy,
                since: Instant::now(),
                consecutive_failures: 0,
            }),
            unhealthy: registry.gauge_with("fvae_router_shard_unhealthy", &[("shard", &label)]),
            failures: registry.counter_with("fvae_router_shard_failures", &[("shard", &label)]),
            rpc_ns: registry.histogram_with("fvae_router_shard_rpc_ns", &[("shard", &label)]),
        }
    }

    /// Gate for routing a request to this shard. `Some(false)`: healthy,
    /// go ahead. `Some(true)`: the shard is due a half-open probe and this
    /// request *is* the probe. `None`: skip the shard.
    fn admit(&self, probe_interval: Duration) -> Option<bool> {
        let mut h = self.health.lock().expect("health mutex");
        match h.state {
            HealthState::Healthy => Some(false),
            HealthState::Unhealthy if h.since.elapsed() >= probe_interval => {
                h.state = HealthState::Probing;
                Some(true)
            }
            HealthState::Unhealthy | HealthState::Probing => None,
        }
    }

    /// A successful exchange: reset the failure streak and re-admit the
    /// shard if it was sidelined.
    fn record_ok(&self, metrics: &RouterMetrics) {
        let mut h = self.health.lock().expect("health mutex");
        h.consecutive_failures = 0;
        if h.state != HealthState::Healthy {
            h.state = HealthState::Healthy;
            self.unhealthy.set(0.0);
            metrics.unhealthy_shards.dec();
        }
    }

    /// A failed exchange (connect, transport, or shard-side serving
    /// error): extend the streak and sideline the shard once it crosses
    /// `fail_threshold`. A failed probe re-arms the probe timer without
    /// re-counting the shard in the unhealthy gauge.
    fn record_failure(&self, fail_threshold: u32, metrics: &RouterMetrics) {
        self.failures.inc();
        let mut h = self.health.lock().expect("health mutex");
        h.consecutive_failures = h.consecutive_failures.saturating_add(1);
        match h.state {
            HealthState::Probing => {
                h.state = HealthState::Unhealthy;
                h.since = Instant::now();
            }
            HealthState::Healthy if h.consecutive_failures >= fail_threshold => {
                h.state = HealthState::Unhealthy;
                h.since = Instant::now();
                self.unhealthy.set(1.0);
                metrics.unhealthy_shards.inc();
            }
            _ => {}
        }
    }

    /// A probe that could not run (pool saturated): return to `Unhealthy`
    /// with a fresh timer so a later request re-probes.
    fn abort_probe(&self) {
        let mut h = self.health.lock().expect("health mutex");
        if h.state == HealthState::Probing {
            h.state = HealthState::Unhealthy;
            h.since = Instant::now();
        }
    }

    /// Re-reads this shard's address from the shards file (line `idx`),
    /// adopting a changed non-empty entry. Lets a restarted shard re-join
    /// on a new port.
    fn refresh_addr(&self, shards_file: Option<&PathBuf>) -> String {
        if let Some(path) = shards_file {
            if let Ok(text) = std::fs::read_to_string(path) {
                if let Some(line) = text.lines().nth(self.idx) {
                    let line = line.trim();
                    if !line.is_empty() {
                        let mut addr = self.addr.lock().expect("addr mutex");
                        if *addr != line {
                            line.clone_into(&mut addr);
                        }
                        return addr.clone();
                    }
                }
            }
        }
        self.addr.lock().expect("addr mutex").clone()
    }

    /// Takes a pooled connection, dialing a fresh one while the window has
    /// room, or waiting up to `pool_wait` for a checkin.
    fn checkout(&self, cfg: &RouterConfig) -> Result<ShardConn, CheckoutError> {
        let deadline = Instant::now() + cfg.pool_wait;
        let mut pool = self.pool.lock().expect("pool mutex");
        loop {
            if let Some(conn) = pool.idle.pop() {
                return Ok(conn);
            }
            if pool.live < cfg.pool_size {
                pool.live += 1;
                drop(pool);
                return match self.dial(cfg) {
                    Ok(conn) => Ok(conn),
                    Err(e) => {
                        let mut pool = self.pool.lock().expect("pool mutex");
                        pool.live -= 1;
                        self.pool_cv.notify_one();
                        Err(CheckoutError::Connect(e))
                    }
                };
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CheckoutError::Busy);
            }
            let (guard, _) = self
                .pool_cv
                .wait_timeout(pool, deadline - now)
                .expect("pool mutex");
            pool = guard;
        }
    }

    fn dial(&self, cfg: &RouterConfig) -> io::Result<ShardConn> {
        let addr = self.refresh_addr(cfg.shards_file.as_ref());
        let sock_addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable shard address"))?;
        let stream = TcpStream::connect_timeout(&sock_addr, cfg.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(cfg.rpc_timeout))?;
        stream.set_write_timeout(Some(cfg.rpc_timeout))?;
        Ok(ShardConn { stream, rbuf: Vec::new(), wbuf: Vec::new() })
    }

    fn checkin(&self, conn: ShardConn) {
        let mut pool = self.pool.lock().expect("pool mutex");
        pool.idle.push(conn);
        self.pool_cv.notify_one();
    }

    fn discard(&self, conn: ShardConn) {
        drop(conn);
        let mut pool = self.pool.lock().expect("pool mutex");
        pool.live -= 1;
        self.pool_cv.notify_one();
    }
}

// ---------------------------------------------------------------------------
// Shared state + Router handle
// ---------------------------------------------------------------------------

/// The fleet contract every shard agreed to at startup; `ckpt_id` moves
/// only when a coordinated reload commits, so `InfoRequest` never exposes
/// a half-reloaded fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetInfo {
    /// Field count embed requests must supply.
    pub n_fields: usize,
    /// Dimensionality of replied embeddings.
    pub latent_dim: usize,
    /// Committed fleet checkpoint identity.
    pub ckpt_id: u64,
    /// Whether the shards serve the int8 quantized encoder.
    pub quantized: bool,
}

struct RouterConnEntry {
    stream: Option<TcpStream>,
    handle: JoinHandle<()>,
}

struct RouterShared {
    cfg: RouterConfig,
    trace: TraceBuffer,
    metrics: RouterMetrics,
    shards: Vec<Arc<Shard>>,
    ring: Vec<(u64, u32)>,
    fleet: RwLock<FleetInfo>,
    shutdown: AtomicBool,
    conns: Mutex<Vec<RouterConnEntry>>,
    /// Serializes coordinated reloads (two racing fleet transactions
    /// could interleave commit and rollback).
    reload_lock: Mutex<()>,
    addr: SocketAddr,
}

/// Outcome of a coordinated fleet reload.
#[derive(Clone, Debug)]
pub struct FleetReloadOutcome {
    /// Whether the fleet committed the transaction.
    pub ok: bool,
    /// Whether the committed checkpoint differs from the previous one.
    pub changed: bool,
    /// The fleet checkpoint after the attempt (the *old* one when the
    /// transaction rolled back).
    pub ckpt_id: u64,
    /// Human-readable summary (committed path, or which shards failed).
    pub detail: String,
}

/// A running router instance. Dropping it performs a graceful shutdown.
pub struct Router {
    shared: Arc<RouterShared>,
    accept: Option<JoinHandle<()>>,
    housekeeping: Option<JoinHandle<()>>,
}

impl Router {
    /// Validates the shard fleet (every shard reachable and serving the
    /// same architecture + checkpoint) and starts routing.
    pub fn start(cfg: RouterConfig) -> Result<Self, RouterError> {
        if cfg.shards.is_empty() {
            return Err(RouterError::Fleet("no shards configured".into()));
        }
        let metrics = RouterMetrics::new();
        let shards: Vec<Arc<Shard>> = cfg
            .shards
            .iter()
            .enumerate()
            .map(|(i, addr)| Arc::new(Shard::new(i, addr.clone(), &metrics.registry)))
            .collect();

        // Fleet validation: collect every shard's serving contract and
        // refuse to start over a mixed or partly unreachable fleet.
        let mut infos: Vec<ServerInfo> = Vec::with_capacity(shards.len());
        for shard in &shards {
            let addr = shard.refresh_addr(cfg.shards_file.as_ref());
            let mut client = Client::connect_with_timeout(addr.as_str(), cfg.connect_timeout)
                .map_err(|e| RouterError::Fleet(format!("shard {} ({addr}): {e}", shard.idx)))?;
            client
                .set_read_timeout(Some(cfg.rpc_timeout))
                .map_err(RouterError::Io)?;
            let info = client
                .info()
                .map_err(|e| RouterError::Fleet(format!("shard {} ({addr}): {e}", shard.idx)))?;
            infos.push(info);
        }
        let first = infos[0];
        for (i, info) in infos.iter().enumerate() {
            if info != &first {
                return Err(RouterError::Fleet(format!(
                    "mixed fleet: shard 0 serves {first:?} but shard {i} serves {info:?}"
                )));
            }
        }
        let fleet = FleetInfo {
            n_fields: first.n_fields,
            latent_dim: first.latent_dim,
            ckpt_id: first.ckpt_id,
            quantized: first.quantized,
        };

        let ring = build_ring(shards.len(), cfg.replicas.max(1));
        let listener = TcpListener::bind((cfg.host.as_str(), cfg.port))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(RouterShared {
            trace: TraceBuffer::new(cfg.trace_capacity, ROUTER_TRACE_STAGES),
            metrics,
            shards,
            ring,
            fleet: RwLock::new(fleet),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            reload_lock: Mutex::new(()),
            addr,
            cfg,
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fvae-router-accept".into())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        let housekeeping = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fvae-router-sweep".into())
                .spawn(move || {
                    while !shared.shutdown.load(Ordering::Acquire) {
                        std::thread::park_timeout(IDLE_SWEEP_TICK);
                        sweep_finished(&shared);
                    }
                })?
        };
        Ok(Self { shared, accept: Some(accept), housekeeping: Some(housekeeping) })
    }

    /// The bound listen address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The committed fleet contract.
    pub fn fleet_info(&self) -> FleetInfo {
        *self.shared.fleet.read().expect("fleet lock")
    }

    /// Number of shards currently marked unhealthy (or probing).
    pub fn unhealthy_shards(&self) -> usize {
        self.shared
            .shards
            .iter()
            .filter(|s| {
                s.health.lock().expect("health mutex").state != HealthState::Healthy
            })
            .count()
    }

    /// Prometheus text of the router's metrics registry.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics.registry.render()
    }

    /// Chrome `trace_event` JSON of the most recent routed request spans.
    pub fn trace_json(&self) -> String {
        self.shared.trace.chrome_trace_json()
    }

    /// Snapshot of the resident trace events, sorted by start time.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.shared.trace.events()
    }

    /// Runs a coordinated fleet reload (in-process equivalent of a
    /// `ReloadRequest` against the router).
    pub fn reload(&self) -> FleetReloadOutcome {
        coordinated_reload(&self.shared, None)
    }

    /// Coordinated fleet reload pinned to a specific checkpoint identity.
    pub fn reload_to(&self, ckpt_id: u64) -> FleetReloadOutcome {
        coordinated_reload(&self.shared, Some(ckpt_id))
    }

    /// Whether shutdown has been signalled.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until shutdown is signalled — the CLI's routing loop.
    pub fn wait(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Graceful stop: refuse new connections, join every thread.
    /// Idempotent. Shards are left running — they belong to their own
    /// processes.
    pub fn shutdown(&mut self) {
        signal_shutdown(&self.shared);
        if let Some(h) = self.housekeeping.take() {
            h.thread().unpark();
            let _ = h.join();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let entries: Vec<RouterConnEntry> =
            self.shared.conns.lock().expect("conns mutex").drain(..).collect();
        for e in &entries {
            if let Some(s) = &e.stream {
                let _ = s.shutdown(SockShutdown::Read);
            }
        }
        for e in entries {
            let _ = e.handle.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn signal_shutdown(shared: &RouterShared) {
    shared.shutdown.store(true, Ordering::Release);
    // Pop the accept thread out of its blocking accept(); the bind address
    // may be a wildcard, so dial the loopback equivalent.
    let _ = TcpStream::connect(loopback_connect_addr(shared.addr));
}

fn sweep_finished(shared: &RouterShared) {
    let mut finished = Vec::new();
    {
        let mut conns = shared.conns.lock().expect("conns mutex");
        let mut i = 0;
        while i < conns.len() {
            if conns[i].handle.is_finished() {
                finished.push(conns.swap_remove(i));
            } else {
                i += 1;
            }
        }
    }
    for e in finished {
        let _ = e.handle.join();
    }
}

// ---------------------------------------------------------------------------
// Downstream: accept + connection threads
// ---------------------------------------------------------------------------

fn accept_loop(shared: &Arc<RouterShared>, listener: &TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        sweep_finished(shared);
        let _ = stream.set_nodelay(true);
        let clone = stream.try_clone().ok();
        let conn_shared = Arc::clone(shared);
        match std::thread::Builder::new()
            .name("fvae-router-conn".into())
            .spawn(move || connection_loop(&conn_shared, stream))
        {
            Ok(handle) => {
                shared.metrics.connections.inc();
                shared
                    .conns
                    .lock()
                    .expect("conns mutex")
                    .push(RouterConnEntry { stream: clone, handle });
            }
            Err(e) => {
                shared.metrics.errors.inc();
                if let Some(mut s) = clone {
                    let mut wbuf = Vec::new();
                    let reply = Message::ErrorReply {
                        req_id: 0,
                        code: error_code::UNAVAILABLE,
                        msg: format!("router cannot service this connection: {e}"),
                    };
                    let _ = write_frame(&mut s, &reply, &mut wbuf);
                    let _ = s.flush();
                }
            }
        }
    }
}

fn connection_loop(shared: &Arc<RouterShared>, mut stream: TcpStream) {
    let mut rbuf: Vec<u8> = Vec::new();
    let mut wbuf: Vec<u8> = Vec::new();
    let mut candidates: Vec<u32> = Vec::with_capacity(shared.shards.len());
    let trace = &shared.trace;
    loop {
        let len = match read_payload(&mut stream, &mut rbuf) {
            Ok(Some(len)) => len,
            Ok(None) => return,
            Err(RecvError::Io(_)) => return,
            Err(RecvError::Proto(e)) => {
                shared.metrics.errors.inc();
                let reply =
                    Message::ErrorReply { req_id: 0, code: error_code::PROTOCOL, msg: e.to_string() };
                let _ = write_frame(&mut stream, &reply, &mut wbuf);
                return;
            }
        };
        let decode_start = trace.now_ns();
        let msg = match decode_message(&rbuf[..len]) {
            Ok(msg) => msg,
            Err(e) => {
                shared.metrics.errors.inc();
                let reply =
                    Message::ErrorReply { req_id: 0, code: error_code::PROTOCOL, msg: e.to_string() };
                let _ = write_frame(&mut stream, &reply, &mut wbuf);
                return;
            }
        };
        match msg {
            Message::EmbedRequest { req_id, fields } => {
                let trace_id = trace.next_trace_id();
                let decode_dur = trace.now_ns().saturating_sub(decode_start);
                trace.record(trace_id, RT_DECODE, decode_start, decode_dur);
                shared.metrics.stage_ns[RT_DECODE].record(decode_dur);
                let reply = route_embed(shared, trace_id, req_id, fields, &mut candidates);
                let write_start = trace.now_ns();
                let res = write_frame(&mut stream, &reply, &mut wbuf);
                let write_dur = trace.now_ns().saturating_sub(write_start);
                trace.record(trace_id, RT_REPLY_WRITE, write_start, write_dur);
                shared.metrics.stage_ns[RT_REPLY_WRITE].record(write_dur);
                if res.is_err() {
                    return;
                }
            }
            Message::NearestRequest { req_id, k, query } => {
                let trace_id = trace.next_trace_id();
                let decode_dur = trace.now_ns().saturating_sub(decode_start);
                trace.record(trace_id, RT_DECODE, decode_start, decode_dur);
                shared.metrics.stage_ns[RT_DECODE].record(decode_dur);
                let reply = route_nearest(shared, trace_id, req_id, k, query, &mut candidates);
                let write_start = trace.now_ns();
                let res = write_frame(&mut stream, &reply, &mut wbuf);
                let write_dur = trace.now_ns().saturating_sub(write_start);
                trace.record(trace_id, RT_REPLY_WRITE, write_start, write_dur);
                shared.metrics.stage_ns[RT_REPLY_WRITE].record(write_dur);
                if res.is_err() {
                    return;
                }
            }
            Message::Ping { token } => {
                if write_frame(&mut stream, &Message::Pong { token }, &mut wbuf).is_err() {
                    return;
                }
            }
            Message::InfoRequest => {
                let fleet = *shared.fleet.read().expect("fleet lock");
                let reply = Message::InfoReply {
                    n_fields: fleet.n_fields as u32,
                    latent_dim: fleet.latent_dim as u32,
                    ckpt_id: fleet.ckpt_id,
                    quantized: fleet.quantized,
                };
                if write_frame(&mut stream, &reply, &mut wbuf).is_err() {
                    return;
                }
            }
            Message::MetricsRequest => {
                let reply = Message::MetricsReply { text: shared.metrics.registry.render() };
                if write_frame(&mut stream, &reply, &mut wbuf).is_err() {
                    return;
                }
            }
            Message::TraceRequest => {
                let reply = Message::TraceReply { json: shared.trace.chrome_trace_json() };
                if write_frame(&mut stream, &reply, &mut wbuf).is_err() {
                    return;
                }
            }
            Message::ReloadRequest => {
                let out = coordinated_reload(shared, None);
                let reply = Message::ReloadReply {
                    ok: out.ok,
                    changed: out.changed,
                    ckpt_id: out.ckpt_id,
                    detail: out.detail,
                };
                if write_frame(&mut stream, &reply, &mut wbuf).is_err() {
                    return;
                }
            }
            Message::ReloadToRequest { ckpt_id } => {
                let out = coordinated_reload(shared, Some(ckpt_id));
                let reply = Message::ReloadReply {
                    ok: out.ok,
                    changed: out.changed,
                    ckpt_id: out.ckpt_id,
                    detail: out.detail,
                };
                if write_frame(&mut stream, &reply, &mut wbuf).is_err() {
                    return;
                }
            }
            Message::Shutdown => {
                let _ = write_frame(&mut stream, &Message::ShutdownAck, &mut wbuf);
                let _ = stream.flush();
                signal_shutdown(shared);
                return;
            }
            _ => {
                shared.metrics.errors.inc();
                let reply = Message::ErrorReply {
                    req_id: 0,
                    code: error_code::PROTOCOL,
                    msg: "unexpected message kind for router".to_string(),
                };
                if write_frame(&mut stream, &reply, &mut wbuf).is_err() {
                    return;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// True when `reply` is the success kind answering `request` (matching
/// request id) — the one reply kind the router forwards downstream as-is.
fn reply_answers(request: &Message, reply: &Message, req_id: u64) -> bool {
    match (request, reply) {
        (Message::EmbedRequest { .. }, Message::EmbedReply { req_id: r, .. }) => *r == req_id,
        (Message::NearestRequest { .. }, Message::NearestReply { req_id: r, .. }) => *r == req_id,
        _ => false,
    }
}

/// Routes one embed request: hash → ring preference order → first healthy
/// shard that answers, failing over on shard errors. Exactly one reply on
/// every path.
fn route_embed(
    shared: &Arc<RouterShared>,
    trace_id: u64,
    req_id: u64,
    fields: Vec<crate::protocol::FieldRow>,
    candidates: &mut Vec<u32>,
) -> Message {
    shared.metrics.requests.inc();
    let started = Instant::now();
    let route_start = shared.trace.now_ns();
    let n_fields = shared.fleet.read().expect("fleet lock").n_fields;
    if fields.len() != n_fields {
        shared.metrics.errors.inc();
        let dur = shared.trace.now_ns().saturating_sub(route_start);
        shared.trace.record(trace_id, RT_ROUTE, route_start, dur);
        shared.metrics.stage_ns[RT_ROUTE].record(dur);
        return Message::ErrorReply {
            req_id,
            code: error_code::BAD_REQUEST,
            msg: format!("expected {n_fields} fields, got {}", fields.len()),
        };
    }
    let hash = row_hash(&fields);
    // Built once and reused verbatim across failover attempts — the reply
    // must carry the downstream client's request id either way.
    let msg = Message::EmbedRequest { req_id, fields };
    forward_with_failover(shared, trace_id, req_id, started, route_start, hash, msg, candidates)
}

/// Routes one nearest-neighbour request. Every shard indexes the full
/// embedding store, so the ring hash (over the query bits and `k`) only
/// picks a stable preference order; any shard can answer, and failover
/// walks the same ring as embed requests.
fn route_nearest(
    shared: &Arc<RouterShared>,
    trace_id: u64,
    req_id: u64,
    k: u32,
    query: Vec<f32>,
    candidates: &mut Vec<u32>,
) -> Message {
    shared.metrics.requests.inc();
    let started = Instant::now();
    let route_start = shared.trace.now_ns();
    let mut key = Vec::with_capacity(4 + query.len() * 4);
    key.extend_from_slice(&k.to_le_bytes());
    for v in &query {
        key.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let hash = crate::cache::fnv64(&key);
    let msg = Message::NearestRequest { req_id, k, query };
    forward_with_failover(shared, trace_id, req_id, started, route_start, hash, msg, candidates)
}

/// The shared forwarding loop: ring preference order from `hash`, first
/// healthy shard whose reply answers `msg` wins, shard-side errors charge
/// health and fail over. Exactly one reply on every path.
#[allow(clippy::too_many_arguments)]
fn forward_with_failover(
    shared: &Arc<RouterShared>,
    trace_id: u64,
    req_id: u64,
    started: Instant,
    route_start: u64,
    hash: u64,
    msg: Message,
    candidates: &mut Vec<u32>,
) -> Message {
    ring_candidates(&shared.ring, shared.shards.len(), hash, candidates);
    let route_dur = shared.trace.now_ns().saturating_sub(route_start);
    shared.trace.record(trace_id, RT_ROUTE, route_start, route_dur);
    shared.metrics.stage_ns[RT_ROUTE].record(route_dur);

    let cfg = &shared.cfg;
    let mut attempts = 0usize;
    let mut saw_overloaded = false;
    let mut last_error: Option<Message> = None;
    for &shard_idx in candidates.iter() {
        if attempts >= cfg.max_attempts.max(1) {
            break;
        }
        let shard = &shared.shards[shard_idx as usize];
        let Some(is_probe) = shard.admit(cfg.probe_interval) else {
            continue;
        };
        attempts += 1;
        if attempts > 1 {
            shared.metrics.retries.inc();
        }
        let mut conn = match shard.checkout(cfg) {
            Ok(conn) => conn,
            Err(CheckoutError::Busy) => {
                // A full in-flight window is congestion, not sickness —
                // don't poison the health state, just fail over.
                if is_probe {
                    shard.abort_probe();
                }
                saw_overloaded = true;
                continue;
            }
            Err(CheckoutError::Connect(e)) => {
                shard.record_failure(cfg.fail_threshold, &shared.metrics);
                last_error = Some(Message::ErrorReply {
                    req_id,
                    code: error_code::UNAVAILABLE,
                    msg: format!("shard {} unreachable: {e}", shard.idx),
                });
                continue;
            }
        };
        let rpc_start = shared.trace.now_ns();
        let result = conn.rpc(&msg);
        let rpc_dur = shared.trace.now_ns().saturating_sub(rpc_start);
        shared.trace.record(trace_id, RT_SHARD_RPC, rpc_start, rpc_dur);
        shared.metrics.stage_ns[RT_SHARD_RPC].record(rpc_dur);
        shard.rpc_ns.record(rpc_dur);
        match result {
            Ok(reply) if reply_answers(&msg, &reply, req_id) => {
                shard.checkin(conn);
                shard.record_ok(&shared.metrics);
                shared.metrics.replies_ok.inc();
                shared.metrics.latency_us.record(started.elapsed().as_micros() as u64);
                return reply;
            }
            Ok(Message::Overloaded { req_id: r }) if r == req_id => {
                // The shard is alive and answering — shed, don't sideline.
                shard.checkin(conn);
                shard.record_ok(&shared.metrics);
                saw_overloaded = true;
            }
            Ok(Message::ErrorReply { req_id: r, code, msg: emsg })
                if (r == req_id || r == 0) && code == error_code::BAD_REQUEST =>
            {
                // The request itself is bad; every shard would refuse it.
                shard.checkin(conn);
                shard.record_ok(&shared.metrics);
                shared.metrics.errors.inc();
                return Message::ErrorReply { req_id, code, msg: emsg };
            }
            Ok(Message::ErrorReply { req_id: r, code, msg: emsg }) if r == req_id || r == 0 => {
                // A serving-side failure (shutting down, timed out,
                // unavailable): the stream stayed aligned, but charge the
                // shard's health and fail over.
                shard.checkin(conn);
                shard.record_failure(cfg.fail_threshold, &shared.metrics);
                last_error = Some(Message::ErrorReply { req_id, code, msg: emsg });
            }
            Ok(_) => {
                // Wrong kind or mismatched id: the stream is desynchronized
                // beyond recovery.
                shard.discard(conn);
                shard.record_failure(cfg.fail_threshold, &shared.metrics);
            }
            Err(_) => {
                shard.discard(conn);
                shard.record_failure(cfg.fail_threshold, &shared.metrics);
            }
        }
    }
    if saw_overloaded {
        shared.metrics.overloaded.inc();
        return Message::Overloaded { req_id };
    }
    shared.metrics.errors.inc();
    last_error.unwrap_or_else(|| Message::ErrorReply {
        req_id,
        code: error_code::UNAVAILABLE,
        msg: "no healthy shard available".to_string(),
    })
}

// ---------------------------------------------------------------------------
// Coordinated reload
// ---------------------------------------------------------------------------

/// One fleet reload transaction: fan the (targeted) reload to every shard,
/// commit the fleet `ckpt_id` only when every shard reports success with
/// one single new identity, and roll every shard back to the previous
/// identity otherwise. Serialized on the router's reload lock.
fn coordinated_reload(shared: &Arc<RouterShared>, target: Option<u64>) -> FleetReloadOutcome {
    let _serialize = shared.reload_lock.lock().expect("reload mutex");
    let old_id = shared.fleet.read().expect("fleet lock").ckpt_id;
    let cfg = &shared.cfg;
    // Snapshot decode can outlast a routing RPC; give reloads more room.
    let reload_timeout = cfg.rpc_timeout.max(Duration::from_secs(10));

    let mut reports: Vec<Result<crate::client::ReloadReport, String>> =
        Vec::with_capacity(shared.shards.len());
    for shard in &shared.shards {
        let addr = shard.refresh_addr(cfg.shards_file.as_ref());
        let report = (|| {
            let mut client = Client::connect_with_timeout(addr.as_str(), cfg.connect_timeout)
                .map_err(|e| format!("shard {} ({addr}): connect: {e}", shard.idx))?;
            client
                .set_read_timeout(Some(reload_timeout))
                .map_err(|e| format!("shard {} ({addr}): {e}", shard.idx))?;
            let report = match target {
                None => client.reload(),
                Some(t) => client.reload_to(t),
            }
            .map_err(|e| format!("shard {} ({addr}): {e}", shard.idx))?;
            if report.ok {
                Ok(report)
            } else {
                Err(format!("shard {} ({addr}): refused: {}", shard.idx, report.detail))
            }
        })();
        reports.push(report);
    }

    let mut new_ids: Vec<u64> = reports
        .iter()
        .filter_map(|r| r.as_ref().ok().map(|rep| rep.ckpt_id))
        .collect();
    new_ids.dedup();
    let all_ok = reports.iter().all(|r| r.is_ok());

    if all_ok && new_ids.len() == 1 {
        let new_id = new_ids[0];
        if new_id == old_id {
            shared.metrics.reload_noops.inc();
            return FleetReloadOutcome {
                ok: true,
                changed: false,
                ckpt_id: old_id,
                detail: format!(
                    "fleet of {} already serving {old_id:#018x}",
                    shared.shards.len()
                ),
            };
        }
        shared.fleet.write().expect("fleet lock").ckpt_id = new_id;
        shared.metrics.reloads.inc();
        return FleetReloadOutcome {
            ok: true,
            changed: true,
            ckpt_id: new_id,
            detail: format!(
                "fleet of {} committed {old_id:#018x} -> {new_id:#018x}",
                shared.shards.len()
            ),
        };
    }

    // Abort: roll every shard back to the old identity (a no-op for
    // shards that never moved) so the fleet stays single-version.
    shared.metrics.reload_errors.inc();
    let failures: Vec<String> = reports
        .iter()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect();
    let why = if !failures.is_empty() {
        failures.join("; ")
    } else {
        format!("shards diverged: identities {new_ids:?}")
    };
    let mut rollback_failed: Vec<String> = Vec::new();
    for shard in &shared.shards {
        let addr = shard.refresh_addr(cfg.shards_file.as_ref());
        let rolled = (|| {
            let mut client = Client::connect_with_timeout(addr.as_str(), cfg.connect_timeout)
                .map_err(|e| e.to_string())?;
            client
                .set_read_timeout(Some(reload_timeout))
                .map_err(|e| e.to_string())?;
            let rep = client.reload_to(old_id).map_err(|e| e.to_string())?;
            if rep.ok {
                Ok(())
            } else {
                Err(rep.detail)
            }
        })();
        if let Err(e) = rolled {
            rollback_failed.push(format!("shard {} ({addr}): {e}", shard.idx));
        }
    }
    let detail = if rollback_failed.is_empty() {
        shared.metrics.reload_rollbacks.inc();
        format!("reload aborted, fleet rolled back to {old_id:#018x}: {why}")
    } else {
        format!(
            "reload aborted ({why}); ROLLBACK INCOMPLETE — fleet may be mixed-version: {}",
            rollback_failed.join("; ")
        )
    };
    FleetReloadOutcome { ok: false, changed: false, ckpt_id: old_id, detail }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_stable_and_covers_all_shards() {
        let ring = build_ring(3, 64);
        assert_eq!(ring.len(), 3 * 64);
        let mut candidates = Vec::new();
        for h in [0u64, 1, u64::MAX, 0xdead_beef, mix64(42)] {
            ring_candidates(&ring, 3, h, &mut candidates);
            let mut sorted = candidates.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "hash {h:#x} must rank every shard once");
        }
        // Same hash, same order — routing is deterministic.
        let mut a = Vec::new();
        let mut b = Vec::new();
        ring_candidates(&ring, 3, 0x1234_5678, &mut a);
        ring_candidates(&ring, 3, 0x1234_5678, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn ring_spreads_keys_across_shards() {
        let ring = build_ring(4, 64);
        let mut counts = [0usize; 4];
        let mut candidates = Vec::new();
        for i in 0..4096u64 {
            ring_candidates(&ring, 4, mix64(i), &mut candidates);
            counts[candidates[0] as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 4096 / 16,
                "shard {i} owns only {c}/4096 keys — ring badly unbalanced: {counts:?}"
            );
        }
    }
}
