//! The `fvae-serve` server: micro-batched online embedding inference.
//!
//! ## Architecture
//!
//! One **accept thread** hands each TCP connection to its own **connection
//! thread** (blocking reads, framed protocol). Embed requests that miss the
//! LRU cache become [`Pending`] cells on a **bounded queue**; a single
//! **batch thread** drains up to `batch_size` of them the moment it is
//! free — it never waits for stragglers, so a batch is whatever queued up
//! during the previous forward — runs one batched encoder forward on the
//! shared [`fvae_pool`] workers, and fulfils every cell. When the queue is
//! full the connection thread answers `Overloaded` immediately — the queue
//! never grows without bound and every request gets exactly one reply.
//!
//! All allocation happens on connection threads (parsing, reply frames,
//! pre-sized pending cells). The batch loop itself — drain, build input,
//! forward, fulfil, cache — reuses its buffers and is allocation-free in
//! steady state (verified by the soak test through the [`BatchProbe`]
//! hook).
//!
//! ## Hot reload
//!
//! The serving model lives behind `RwLock<Arc<ModelState>>`. A reload
//! decodes and validates the newest snapshot *off to the side* (on a
//! [`fvae_pool::ThreadPool::submit_waitable`] task), then atomically swaps
//! the `Arc` — in-flight batches keep the snapshot they started with, and
//! no request is ever dropped. Checkpoint identity is the FNV-1a hash of
//! the [`fvae_core::normalized_snapshot_bytes`], so re-exporting an
//! identical model is recognised as a no-op and skipped. A reload that
//! finds no usable snapshot (corrupt files, empty dir) fails loudly while
//! the old model keeps serving.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fvae_core::{
    decode_snapshot, normalized_snapshot_bytes, Checkpointer, Encoder, EncoderScratch, InputRows,
    QuantizedEncoder, QuantizedEncoderScratch, SnapshotError,
};
use fvae_obs::{Counter, Gauge, Histogram, Registry, TraceBuffer, TraceEvent};
use fvae_tensor::Matrix;

use crate::cache::{fnv64, row_hash, EmbedCache};
use crate::protocol::{
    decode_message, error_code, read_payload, write_frame, FieldRow, Message, RecvError,
};

// ---------------------------------------------------------------------------
// Trace stages
// ---------------------------------------------------------------------------

/// The serve pipeline's trace stages, in request order. Every embed request
/// carries one trace id through all six; the same names label the
/// `fvae_serve_stage_ns{stage=...}` histograms.
pub static TRACE_STAGES: &[&str] =
    &["decode", "admission", "queue_wait", "batch_form", "encode", "reply_write"];

const ST_DECODE: usize = 0;
const ST_ADMISSION: usize = 1;
const ST_QUEUE_WAIT: usize = 2;
const ST_BATCH_FORM: usize = 3;
const ST_ENCODE: usize = 4;
const ST_REPLY_WRITE: usize = 5;

/// How often the otherwise-blocked batch thread wakes to reap finished
/// connection threads (see [`sweep_finished_conns`]).
const IDLE_SWEEP_TICK: Duration = Duration::from_millis(200);

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Server configuration. [`ServeConfig::new`] fills in serving defaults;
/// every knob is public for tests and the CLI.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Directory holding `.fvck` snapshots; the newest usable one is
    /// served and re-scanned on reload.
    pub checkpoint_dir: PathBuf,
    /// Listen host (default `127.0.0.1`).
    pub host: String,
    /// Listen port; 0 binds an ephemeral port (see [`Server::addr`]).
    pub port: u16,
    /// Maximum requests coalesced into one encoder forward.
    pub batch_size: usize,
    /// Bound on queued (admitted, unserved) requests; beyond it new
    /// requests are answered `Overloaded`.
    pub queue_capacity: usize,
    /// LRU embedding cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// How long a connection thread waits for its batch result before
    /// giving up with a timeout error.
    pub reply_timeout: Duration,
    /// Numeric mode of the serving encoder (`--quant` on the CLI).
    pub quant: QuantMode,
    /// Slots in the trace ring buffer (rounded up to a power of two).
    /// Six events per traced request, newest-wins; 4096 slots ≈ the last
    /// ~680 requests.
    pub trace_capacity: usize,
    /// Optional embedding-store file (the `EmbeddingStore::to_bytes`
    /// format); when set, the server builds an ANN index over it at start
    /// and answers `NearestRequest` frames. Each reload re-reads the file
    /// and swaps in a fresh index iff its bytes changed.
    pub embeddings: Option<PathBuf>,
    /// Test-only fault injector: while non-zero, each accepted connection
    /// decrements it and behaves as if spawning the connection thread
    /// failed (exercising the error-frame + accounting path, which real
    /// spawn failures only hit under fd/thread exhaustion).
    #[doc(hidden)]
    pub fail_conn_spawns: Arc<AtomicU32>,
}

/// Numeric mode the encoder forward runs in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QuantMode {
    /// Full-precision f32 forward (through the dispatched SIMD kernels).
    #[default]
    F32,
    /// Int8 weights + dynamic int8 activations with exact i32 accumulation;
    /// the snapshot's dense trunk is quantized at load (and reload) time.
    Int8,
}

impl std::str::FromStr for QuantMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "f32" | "none" | "off" => Ok(QuantMode::F32),
            "int8" | "i8" => Ok(QuantMode::Int8),
            other => Err(format!("unknown quant mode '{other}' (expected f32 or int8)")),
        }
    }
}

impl ServeConfig {
    /// Defaults tuned for tiny models and tests: small batches, a bounded
    /// queue, and a cache.
    pub fn new(checkpoint_dir: impl Into<PathBuf>) -> Self {
        Self {
            checkpoint_dir: checkpoint_dir.into(),
            host: "127.0.0.1".to_string(),
            port: 0,
            batch_size: 32,
            queue_capacity: 1024,
            cache_capacity: 4096,
            reply_timeout: Duration::from_secs(30),
            quant: QuantMode::F32,
            trace_capacity: 4096,
            embeddings: None,
            fail_conn_spawns: Arc::new(AtomicU32::new(0)),
        }
    }
}

/// Errors starting or reloading a server.
#[derive(Debug)]
pub enum ServeError {
    /// Socket or filesystem failure.
    Io(io::Error),
    /// The checkpoint directory had no usable snapshot (or decoding
    /// failed).
    Snapshot(SnapshotError),
    /// The checkpoint directory exists but holds no snapshot files at all.
    NoCheckpoint(PathBuf),
    /// A reload task failed; the previous model keeps serving.
    Reload(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io error: {e}"),
            ServeError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            ServeError::NoCheckpoint(dir) => {
                write!(f, "no checkpoint files in {}", dir.display())
            }
            ServeError::Reload(msg) => write!(f, "reload failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Handles into the server's metrics [`Registry`] (Prometheus-rendered via
/// `MetricsRequest` or [`Server::metrics_text`]).
struct ServeMetrics {
    registry: Registry,
    requests: Counter,
    replies_ok: Counter,
    overloaded: Counter,
    errors: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    batches: Counter,
    batch_size: Histogram,
    latency_us: Histogram,
    queue_depth: Gauge,
    connections: Counter,
    /// Accepted connections the server could not serve (connection-thread
    /// spawn failure); each got a best-effort `UNAVAILABLE` error frame.
    accept_errors: Counter,
    reloads: Counter,
    reload_noops: Counter,
    reload_errors: Counter,
    nearest_requests: Counter,
    nearest_errors: Counter,
    /// Embedding-store index swaps on reload (unchanged bytes don't count).
    nearest_reloads: Counter,
    /// 1 when the int8 quantized encoder is serving, 0 for f32.
    quantized: Gauge,
    /// Wall time of each batch's encoder forward (the compute core of the
    /// serve path, excluding queueing and reply fan-out).
    encode_ns: Histogram,
    /// Per-stage wall time, one labeled series per [`TRACE_STAGES`] entry
    /// (`fvae_serve_stage_ns{stage=...}`). decode/admission/queue_wait/
    /// reply_write record per request; batch_form/encode once per batch.
    stage_ns: [Histogram; TRACE_STAGES.len()],
}

impl ServeMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        Self {
            requests: registry.counter("fvae_serve_requests"),
            replies_ok: registry.counter("fvae_serve_replies_ok"),
            overloaded: registry.counter("fvae_serve_overloaded"),
            errors: registry.counter("fvae_serve_errors"),
            cache_hits: registry.counter("fvae_serve_cache_hits"),
            cache_misses: registry.counter("fvae_serve_cache_misses"),
            batches: registry.counter("fvae_serve_batches"),
            batch_size: registry.histogram("fvae_serve_batch_size"),
            latency_us: registry.histogram("fvae_serve_latency_us"),
            queue_depth: registry.gauge("fvae_serve_queue_depth"),
            connections: registry.counter("fvae_serve_connections"),
            accept_errors: registry.counter("fvae_serve_accept_errors"),
            reloads: registry.counter("fvae_serve_reloads"),
            reload_noops: registry.counter("fvae_serve_reload_noops"),
            reload_errors: registry.counter("fvae_serve_reload_errors"),
            nearest_requests: registry.counter("fvae_serve_nearest_requests"),
            nearest_errors: registry.counter("fvae_serve_nearest_errors"),
            nearest_reloads: registry.counter("fvae_serve_nearest_reloads"),
            quantized: registry.gauge("fvae_serve_quantized"),
            encode_ns: registry.histogram("fvae_serve_encode_ns"),
            stage_ns: std::array::from_fn(|i| {
                registry.histogram_with("fvae_serve_stage_ns", &[("stage", TRACE_STAGES[i])])
            }),
            registry,
        }
    }
}

// ---------------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------------

/// The immutable serving snapshot: encoder weights plus the identity of
/// the checkpoint they came from. Swapped atomically on reload.
struct ModelState {
    encoder: Encoder,
    /// Present iff the server runs in [`QuantMode::Int8`]: the snapshot's
    /// dense trunk quantized at load time. The f32 encoder above stays the
    /// source of truth for architecture queries (and untouched memory —
    /// the quantized forward never reads its dense weights).
    quant: Option<QuantizedEncoder>,
    ckpt_id: u64,
    path: PathBuf,
}

/// The immutable nearest-neighbour snapshot: an ANN index over the
/// embedding store file, plus the identity of the bytes it was built from.
/// Swapped atomically on reload — a search runs entirely against one
/// `Arc`'d state, so a concurrent swap can never produce a torn top-k.
struct NearestState {
    index: fvae_ann::AnyIndex,
    /// FNV-1a hash of the embedding-store file bytes; stamped into every
    /// `NearestReply` so clients (and the reload-atomicity test) can tell
    /// exactly which index answered.
    index_id: u64,
}

/// Decodes embedding-store bytes and builds the serving index
/// ([`fvae_ann::auto_build`]: flat below threshold, IVF-PQ above).
fn build_nearest_index(path: &Path, raw: &[u8]) -> Result<fvae_ann::AnyIndex, ServeError> {
    let file = fvae_ann::io::read_embeddings(raw)
        .map_err(|e| ServeError::Reload(format!("embedding store {}: {e}", path.display())))?;
    fvae_ann::auto_build(file.dim, &file.ids, &file.data)
        .map_err(|e| ServeError::Reload(format!("embedding store {}: {e}", path.display())))
}

/// Reads the embedding-store file and builds the serving index.
fn load_nearest_state(path: &Path) -> Result<NearestState, ServeError> {
    let raw = std::fs::read(path)?;
    let index_id = fnv64(&raw);
    let index = build_nearest_index(path, &raw)?;
    Ok(NearestState { index, index_id })
}

/// Re-reads the embedding-store file (when one is configured) and swaps in
/// a freshly built index iff the file bytes changed — the `nearest` half of
/// a reload. The swap is a single `Arc` store: queries in flight finish on
/// the index they started with, and no query ever sees a mix. On error the
/// old index keeps serving.
fn refresh_nearest(shared: &Shared) -> Result<(), ServeError> {
    let Some(path) = &shared.cfg.embeddings else {
        return Ok(());
    };
    let raw = std::fs::read(path)?;
    let index_id = fnv64(&raw);
    if shared.nearest.read().expect("nearest lock").as_ref().map(|s| s.index_id) == Some(index_id) {
        return Ok(()); // byte-identical store: keep the built index
    }
    let index = build_nearest_index(path, &raw)?;
    let state = Arc::new(NearestState { index, index_id });
    *shared.nearest.write().expect("nearest lock") = Some(state);
    shared.metrics.nearest_reloads.inc();
    Ok(())
}

/// Where one pending request's reply lands.
enum ReplyState {
    Waiting,
    Ready,
}

struct PendingSlot {
    state: ReplyState,
    ckpt_id: u64,
    /// Pre-sized by the connection thread; the batch thread only copies
    /// into it.
    emb: Vec<f32>,
}

/// One admitted embed request parked on the batch queue.
struct Pending {
    row_hash: u64,
    fields: Vec<FieldRow>,
    /// Request identity in the trace ring; the batch thread records the
    /// queue_wait/batch_form/encode spans under it.
    trace_id: u64,
    /// Trace-clock timestamp of admission — the queue_wait span's start.
    enqueued_ns: u64,
    slot: Mutex<PendingSlot>,
    cv: Condvar,
}

/// Phase marker passed to a [`BatchProbe`]: once before the batch forward
/// begins and once after every reply cell is fulfilled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchPhase {
    /// About to build the batch input and run the encoder.
    Start,
    /// All replies for the batch are fulfilled and cached.
    End,
}

/// Test hook running *on the batch thread* around each batch, receiving
/// the batch size. The soak test uses it to bracket the loop with a
/// counting allocator.
pub type BatchProbe = Box<dyn FnMut(BatchPhase, usize) + Send>;

/// One live (or recently finished) connection: the thread handle plus a
/// read-half socket clone used to pop the thread out of a blocking read at
/// shutdown. Finished entries are swept on every accept *and* on the batch
/// thread's idle tick, so short-lived connections don't accumulate fds and
/// handles — even when no new connection ever arrives to trigger a sweep.
struct ConnEntry {
    /// `None` when `try_clone` failed; the thread still serves, it just
    /// can't be woken early at shutdown.
    stream: Option<TcpStream>,
    handle: JoinHandle<()>,
}

struct Shared {
    cfg: ServeConfig,
    /// Request-span ring; also the clock and id source for tracing.
    trace: TraceBuffer,
    model: RwLock<Arc<ModelState>>,
    /// `None` when the server was started without `--embeddings`.
    nearest: RwLock<Option<Arc<NearestState>>>,
    queue: Mutex<VecDeque<Arc<Pending>>>,
    work_cv: Condvar,
    cache: Mutex<EmbedCache>,
    metrics: ServeMetrics,
    shutdown: AtomicBool,
    conns: Mutex<Vec<ConnEntry>>,
    /// Serializes reloads (concurrent requests would race the swap).
    reload_lock: Mutex<()>,
    addr: SocketAddr,
}

/// Outcome of a successful reload.
#[derive(Clone, Debug)]
pub struct ReloadOutcome {
    /// `false` when the newest snapshot was already being served.
    pub changed: bool,
    /// Identity (normalized-bytes hash) of the active checkpoint.
    pub ckpt_id: u64,
    /// File the active checkpoint was loaded from.
    pub path: PathBuf,
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// A running serve instance. Dropping it performs a full graceful
/// shutdown: queued requests are drained and answered first.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    batch: Option<JoinHandle<()>>,
}

impl Server {
    /// Loads the newest checkpoint and starts serving.
    pub fn start(cfg: ServeConfig) -> Result<Self, ServeError> {
        Self::start_with_probe(cfg, None)
    }

    /// [`Server::start`] with a batch-thread probe installed (test hook).
    pub fn start_with_probe(cfg: ServeConfig, probe: Option<BatchProbe>) -> Result<Self, ServeError> {
        let state = load_model_state(&cfg.checkpoint_dir, cfg.quant)?;
        let nearest = match &cfg.embeddings {
            None => None,
            Some(path) => Some(Arc::new(load_nearest_state(path)?)),
        };
        let dim = state.encoder.latent_dim();
        let listener = TcpListener::bind((cfg.host.as_str(), cfg.port))?;
        let addr = listener.local_addr()?;
        let cache_capacity = cfg.cache_capacity;
        let shared = Arc::new(Shared {
            trace: TraceBuffer::new(cfg.trace_capacity, TRACE_STAGES),
            model: RwLock::new(Arc::new(state)),
            nearest: RwLock::new(nearest),
            queue: Mutex::new(VecDeque::with_capacity(cfg.queue_capacity)),
            work_cv: Condvar::new(),
            cache: Mutex::new(EmbedCache::new(cache_capacity, dim)),
            metrics: ServeMetrics::new(),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            reload_lock: Mutex::new(()),
            addr,
            cfg,
        });
        shared
            .metrics
            .quantized
            .set(if shared.cfg.quant == QuantMode::Int8 { 1.0 } else { 0.0 });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fvae-serve-accept".into())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        let batch = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fvae-serve-batch".into())
                .spawn(move || batch_loop(&shared, probe))?
        };
        Ok(Self { shared, accept: Some(accept), batch: Some(batch) })
    }

    /// The bound listen address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Identity of the checkpoint currently being served.
    pub fn ckpt_id(&self) -> u64 {
        self.shared.model.read().expect("model lock").ckpt_id
    }

    /// Latent dimensionality of served embeddings.
    pub fn latent_dim(&self) -> usize {
        self.shared.model.read().expect("model lock").encoder.latent_dim()
    }

    /// Field count requests must supply.
    pub fn n_fields(&self) -> usize {
        self.shared.model.read().expect("model lock").encoder.n_fields()
    }

    /// Whether the int8 quantized encoder is serving (the `--quant int8`
    /// mode; reload preserves it).
    pub fn quantized(&self) -> bool {
        self.shared.model.read().expect("model lock").quant.is_some()
    }

    /// Identity of the embedding-store index currently answering
    /// `NearestRequest` frames (`None` without `--embeddings`).
    pub fn nearest_index_id(&self) -> Option<u64> {
        self.shared.nearest.read().expect("nearest lock").as_ref().map(|s| s.index_id)
    }

    /// In-process nearest-neighbour query against the same index the
    /// `NearestRequest` frame is answered from, or `None` when no embedding
    /// store is loaded. The RPC path must be bit-identical to this.
    pub fn nearest(&self, query: &[f32], k: usize) -> Option<Vec<(u64, f32)>> {
        use fvae_ann::AnnIndex as _;
        let state = Arc::clone(self.shared.nearest.read().expect("nearest lock").as_ref()?);
        Some(state.index.search(query, k).into_iter().map(|n| (n.id, n.score)).collect())
    }

    /// Prometheus text of the server's metrics registry.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics.registry.render()
    }

    /// Chrome `trace_event` JSON of the most recent request spans
    /// (in-process equivalent of the `TraceRequest` frame).
    pub fn trace_json(&self) -> String {
        self.shared.trace.chrome_trace_json()
    }

    /// Snapshot of the resident trace events, sorted by start time.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.shared.trace.events()
    }

    /// Reloads the newest checkpoint (in-process equivalent of the
    /// `ReloadRequest` frame).
    pub fn reload(&self) -> Result<ReloadOutcome, ServeError> {
        reload(&self.shared)
    }

    /// Activates the snapshot with this exact identity (in-process
    /// equivalent of the `ReloadToRequest` frame); a no-op when already
    /// serving it, an error (old model keeps serving) when no snapshot in
    /// the checkpoint directory matches.
    pub fn reload_to(&self, ckpt_id: u64) -> Result<ReloadOutcome, ServeError> {
        reload_to(&self.shared, ckpt_id)
    }

    /// Number of connection entries currently held (live threads plus
    /// finished ones not yet swept). The idle-sweep regression test
    /// watches this drain to zero without any new connection arriving.
    pub fn live_connections(&self) -> usize {
        self.shared.conns.lock().expect("conns mutex").len()
    }

    /// Whether shutdown has been signalled (by [`Server::shutdown`], drop,
    /// or a client `Shutdown` frame).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until shutdown is signalled — the CLI's serving loop.
    pub fn wait(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Graceful stop: refuse new work, drain the queue (every admitted
    /// request still gets its reply), then join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        signal_shutdown(&self.shared);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.batch.take() {
            let _ = h.join();
        }
        // With the batch thread drained, wake connection threads parked in
        // blocking reads; their replies are already fulfilled.
        let entries: Vec<ConnEntry> = self.shared.conns.lock().expect("conns mutex").drain(..).collect();
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

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Flags shutdown (under the queue lock, so no request can slip past the
/// admission check afterwards) and wakes the accept and batch threads.
fn signal_shutdown(shared: &Shared) {
    {
        let _q = shared.queue.lock().expect("serve queue mutex");
        shared.shutdown.store(true, Ordering::Release);
        shared.work_cv.notify_all();
    }
    // Self-connect to pop the accept thread out of its blocking accept().
    // The bound address may be a wildcard (`0.0.0.0` / `[::]` for a
    // multi-host fleet), which is not a reliable *connect* target on every
    // platform — dial the matching loopback instead.
    let _ = TcpStream::connect(loopback_connect_addr(shared.addr));
}

/// The address a local client should dial to reach a socket bound at
/// `addr`: wildcard binds resolve to the matching loopback, anything else
/// passes through unchanged.
pub(crate) fn loopback_connect_addr(addr: SocketAddr) -> SocketAddr {
    let mut out = addr;
    if addr.ip().is_unspecified() {
        out.set_ip(match addr {
            SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Checkpoint loading / reload
// ---------------------------------------------------------------------------

fn load_model_state(dir: &Path, quant: QuantMode) -> Result<ModelState, ServeError> {
    let loaded = Checkpointer::load_latest(dir)
        .map_err(ServeError::Snapshot)?
        .ok_or_else(|| ServeError::NoCheckpoint(dir.to_path_buf()))?;
    // Hash the same bytes the snapshot was decoded from — a fresh read of
    // the file could race a rewrite and stamp the weights with a different
    // checkpoint's identity (which keys the embedding cache).
    let normalized = normalized_snapshot_bytes(&loaded.raw).map_err(ServeError::Snapshot)?;
    let ckpt_id = fnv64(&normalized);
    let (model, _resume) = loaded.snapshot.into_resume();
    let encoder = Encoder::from(model);
    let quant = match quant {
        QuantMode::F32 => None,
        QuantMode::Int8 => Some(QuantizedEncoder::from_encoder(&encoder)),
    };
    Ok(ModelState { encoder, quant, ckpt_id, path: loaded.path })
}

/// Loads the snapshot in `dir` whose normalized-bytes identity equals
/// `target` — the server half of a router rollback, which must re-activate
/// a *specific* checkpoint rather than whatever is newest. Unreadable or
/// corrupt files are skipped (they can't be the target); a directory with
/// no matching snapshot is an error.
fn load_model_state_with_id(
    dir: &Path,
    quant: QuantMode,
    target: u64,
) -> Result<ModelState, ServeError> {
    for path in Checkpointer::list_snapshot_files(dir)? {
        let Ok(raw) = std::fs::read(&path) else { continue };
        let Ok(normalized) = normalized_snapshot_bytes(&raw) else { continue };
        if fnv64(&normalized) != target {
            continue;
        }
        let snapshot = decode_snapshot(&raw).map_err(ServeError::Snapshot)?;
        let (model, _resume) = snapshot.into_resume();
        let encoder = Encoder::from(model);
        let quant = match quant {
            QuantMode::F32 => None,
            QuantMode::Int8 => Some(QuantizedEncoder::from_encoder(&encoder)),
        };
        return Ok(ModelState { encoder, quant, ckpt_id: target, path });
    }
    Err(ServeError::Reload(format!(
        "no snapshot in {} has identity {target:#018x}",
        dir.display()
    )))
}

/// Loads, validates, and swaps in the newest snapshot. The decode runs as
/// a waitable task on the global compute pool; the swap itself is a single
/// `Arc` store, so in-flight batches finish on the model they started
/// with.
///
/// A snapshot whose architecture (field count or latent dim) differs from
/// the serving setup is rejected: the embedding cache slab, pre-sized
/// reply cells, and admitted requests are all sized for the startup
/// architecture, so swapping one in would panic the batch thread on its
/// next batch and wedge the server. Such a model needs a fresh process.
fn reload(shared: &Arc<Shared>) -> Result<ReloadOutcome, ServeError> {
    reload_inner(shared, None)
}

/// [`reload`] pinned to a specific checkpoint identity instead of "newest
/// usable": activates the snapshot whose normalized-bytes hash is
/// `target`, a no-op when it is already serving. The router's coordinated
/// reload uses this to roll every shard back to the old checkpoint when
/// any shard's forward reload fails.
fn reload_to(shared: &Arc<Shared>, target: u64) -> Result<ReloadOutcome, ServeError> {
    reload_inner(shared, Some(target))
}

fn reload_inner(shared: &Arc<Shared>, target: Option<u64>) -> Result<ReloadOutcome, ServeError> {
    let _serialize = shared.reload_lock.lock().expect("reload mutex");
    // The embedding-store half first: it has its own no-op detection, and a
    // failure here (store file unreadable/corrupt) fails the reload while
    // both the old model and the old index keep serving.
    if let Err(e) = refresh_nearest(shared) {
        shared.metrics.reload_errors.inc();
        return Err(e);
    }
    let (current_id, cur_fields, cur_dim) = {
        let model = shared.model.read().expect("model lock");
        (model.ckpt_id, model.encoder.n_fields(), model.encoder.latent_dim())
    };
    if let Some(t) = target {
        // Targeted no-op resolves without touching the filesystem — the
        // identity is already known to match.
        if t == current_id {
            shared.metrics.reload_noops.inc();
            let path = shared.model.read().expect("model lock").path.clone();
            return Ok(ReloadOutcome { changed: false, ckpt_id: current_id, path });
        }
    }
    let result: Arc<Mutex<Option<Result<ReloadOutcome, ServeError>>>> = Arc::new(Mutex::new(None));
    let task_result = Arc::clone(&result);
    let task_shared = Arc::clone(shared);
    let handle = fvae_pool::global().submit_waitable(move || {
        let outcome = (|| {
            // Reload re-quantizes under the startup mode: the serving
            // numeric contract never changes across a hot swap.
            let state = match target {
                None => load_model_state(&task_shared.cfg.checkpoint_dir, task_shared.cfg.quant)?,
                Some(t) => load_model_state_with_id(
                    &task_shared.cfg.checkpoint_dir,
                    task_shared.cfg.quant,
                    t,
                )?,
            };
            if state.ckpt_id == current_id {
                task_shared.metrics.reload_noops.inc();
                return Ok(ReloadOutcome { changed: false, ckpt_id: current_id, path: state.path });
            }
            let (new_fields, new_dim) = (state.encoder.n_fields(), state.encoder.latent_dim());
            if new_fields != cur_fields || new_dim != cur_dim {
                return Err(ServeError::Reload(format!(
                    "architecture mismatch: serving {cur_fields} fields × {cur_dim} latent, \
                     snapshot {} has {new_fields} fields × {new_dim} latent; \
                     restart the server to change architectures",
                    state.path.display()
                )));
            }
            let out = ReloadOutcome { changed: true, ckpt_id: state.ckpt_id, path: state.path.clone() };
            *task_shared.model.write().expect("model lock") = Arc::new(state);
            task_shared.metrics.reloads.inc();
            Ok(out)
        })();
        *task_result.lock().expect("reload result mutex") = Some(outcome);
    });
    match handle.wait() {
        fvae_pool::JobStatus::Done => {}
        status => {
            shared.metrics.reload_errors.inc();
            return Err(ServeError::Reload(format!("reload task {status:?}")));
        }
    }
    let outcome = result
        .lock()
        .expect("reload result mutex")
        .take()
        .unwrap_or_else(|| Err(ServeError::Reload("reload task returned nothing".into())));
    if outcome.is_err() {
        shared.metrics.reload_errors.inc();
    }
    outcome
}

// ---------------------------------------------------------------------------
// Accept + connection threads
// ---------------------------------------------------------------------------

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Back off: persistent accept errors (fd exhaustion,
                // ENOBUFS) would otherwise busy-spin this thread at 100%.
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return; // the shutdown self-connect, or a straggler: refuse
        }
        sweep_finished_conns(shared);
        let _ = stream.set_nodelay(true);
        let clone = stream.try_clone().ok();
        // Test injector: pretend the spawn below failed (the real failure
        // needs fd/thread exhaustion, which a test can't provoke safely).
        let inject_fail = shared
            .cfg
            .fail_conn_spawns
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok();
        let spawned: io::Result<JoinHandle<()>> = if inject_fail {
            Err(io::Error::other("injected connection-thread spawn failure"))
        } else {
            let conn_shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name("fvae-serve-conn".into())
                .spawn(move || connection_loop(&conn_shared, stream))
        };
        match spawned {
            Ok(handle) => {
                // Count the connection only once it is actually being
                // served — a failed spawn used to inc() first and leave
                // the gauge lying about a connection that never existed.
                shared.metrics.connections.inc();
                shared.conns.lock().expect("conns mutex").push(ConnEntry { stream: clone, handle });
            }
            Err(e) => {
                // The stream itself was consumed by the failed spawn (or
                // never handed off); tell the client why on the clone
                // instead of silently resetting, then drop both halves.
                shared.metrics.accept_errors.inc();
                if let Some(mut s) = clone {
                    let mut wbuf = Vec::new();
                    let reply = Message::ErrorReply {
                        req_id: 0,
                        code: error_code::UNAVAILABLE,
                        msg: format!("server cannot service this connection: {e}"),
                    };
                    let _ = write_frame(&mut s, &reply, &mut wbuf);
                    let _ = s.flush();
                }
            }
        }
    }
}

/// Reaps connections whose thread has exited: joins the handle and drops
/// the socket clone (which otherwise keeps the fd open indefinitely). Runs
/// on the accept thread before each new connection and on the batch
/// thread's idle tick, so the entry list drains even while no client is
/// connecting.
fn sweep_finished_conns(shared: &Shared) {
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
    // Join outside the lock; these threads have already exited.
    for e in finished {
        let _ = e.handle.join();
    }
}

fn connection_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    let mut rbuf: Vec<u8> = Vec::new();
    let mut wbuf: Vec<u8> = Vec::new();
    let trace = &shared.trace;
    loop {
        // The network wait is not a pipeline stage; the decode span starts
        // only once the payload is fully assembled in memory.
        let len = match read_payload(&mut stream, &mut rbuf) {
            Ok(Some(len)) => len,
            Ok(None) => return, // client hung up cleanly
            Err(RecvError::Io(_)) => return,
            Err(RecvError::Proto(e)) => {
                return proto_error(shared, &mut stream, &mut wbuf, e);
            }
        };
        let decode_start = trace.now_ns();
        let msg = match decode_message(&rbuf[..len]) {
            Ok(msg) => msg,
            Err(e) => return proto_error(shared, &mut stream, &mut wbuf, e),
        };
        match msg {
            Message::EmbedRequest { req_id, fields } => {
                // The traced path: one id from decode to reply write.
                let trace_id = trace.next_trace_id();
                let decode_dur = trace.now_ns().saturating_sub(decode_start);
                trace.record(trace_id, ST_DECODE, decode_start, decode_dur);
                shared.metrics.stage_ns[ST_DECODE].record(decode_dur);
                let reply = serve_embed(shared, trace_id, req_id, fields);
                let write_start = trace.now_ns();
                let res = write_frame(&mut stream, &reply, &mut wbuf);
                let write_dur = trace.now_ns().saturating_sub(write_start);
                trace.record(trace_id, ST_REPLY_WRITE, write_start, write_dur);
                shared.metrics.stage_ns[ST_REPLY_WRITE].record(write_dur);
                if res.is_err() {
                    return;
                }
            }
            msg => {
                if handle_message(shared, &mut stream, &mut wbuf, msg) {
                    return;
                }
            }
        }
    }
}

/// Reports an unparseable frame once and drops the connection (framing is
/// lost beyond recovery).
fn proto_error(
    shared: &Shared,
    stream: &mut TcpStream,
    wbuf: &mut Vec<u8>,
    e: crate::protocol::ProtoError,
) {
    shared.metrics.errors.inc();
    let reply =
        Message::ErrorReply { req_id: 0, code: error_code::PROTOCOL, msg: e.to_string() };
    let _ = write_frame(stream, &reply, wbuf);
}

/// Handles one non-embed client message; returns `true` when the
/// connection should close. (`EmbedRequest` is handled inline by
/// [`connection_loop`], which owns the trace-id plumbing.)
fn handle_message(shared: &Arc<Shared>, stream: &mut TcpStream, wbuf: &mut Vec<u8>, msg: Message) -> bool {
    match msg {
        Message::Ping { token } => write_frame(stream, &Message::Pong { token }, wbuf).is_err(),
        Message::TraceRequest => {
            let reply = Message::TraceReply { json: shared.trace.chrome_trace_json() };
            write_frame(stream, &reply, wbuf).is_err()
        }
        Message::InfoRequest => {
            let reply = {
                let model = shared.model.read().expect("model lock");
                Message::InfoReply {
                    n_fields: model.encoder.n_fields() as u32,
                    latent_dim: model.encoder.latent_dim() as u32,
                    ckpt_id: model.ckpt_id,
                    quantized: model.quant.is_some(),
                }
            };
            write_frame(stream, &reply, wbuf).is_err()
        }
        Message::MetricsRequest => {
            let reply = Message::MetricsReply { text: shared.metrics.registry.render() };
            write_frame(stream, &reply, wbuf).is_err()
        }
        Message::ReloadRequest => {
            let reply = match reload(shared) {
                Ok(out) => Message::ReloadReply {
                    ok: true,
                    changed: out.changed,
                    ckpt_id: out.ckpt_id,
                    detail: out.path.display().to_string(),
                },
                Err(e) => Message::ReloadReply {
                    ok: false,
                    changed: false,
                    ckpt_id: shared.model.read().expect("model lock").ckpt_id,
                    detail: e.to_string(),
                },
            };
            write_frame(stream, &reply, wbuf).is_err()
        }
        Message::ReloadToRequest { ckpt_id } => {
            let reply = match reload_to(shared, ckpt_id) {
                Ok(out) => Message::ReloadReply {
                    ok: true,
                    changed: out.changed,
                    ckpt_id: out.ckpt_id,
                    detail: out.path.display().to_string(),
                },
                Err(e) => Message::ReloadReply {
                    ok: false,
                    changed: false,
                    ckpt_id: shared.model.read().expect("model lock").ckpt_id,
                    detail: e.to_string(),
                },
            };
            write_frame(stream, &reply, wbuf).is_err()
        }
        Message::NearestRequest { req_id, k, query } => {
            shared.metrics.nearest_requests.inc();
            // Clone the Arc under the read lock, search outside it: the
            // whole query runs against one index snapshot, and a reload
            // swapping mid-search affects later queries only.
            let state = shared.nearest.read().expect("nearest lock").as_ref().map(Arc::clone);
            let reply = match state {
                None => {
                    shared.metrics.nearest_errors.inc();
                    Message::ErrorReply {
                        req_id,
                        code: error_code::UNAVAILABLE,
                        msg: "no embedding store loaded (start with --embeddings)".to_string(),
                    }
                }
                Some(state) => {
                    use fvae_ann::AnnIndex as _;
                    if query.len() != state.index.dim() {
                        shared.metrics.nearest_errors.inc();
                        Message::ErrorReply {
                            req_id,
                            code: error_code::BAD_REQUEST,
                            msg: format!(
                                "query dim {} does not match store dim {}",
                                query.len(),
                                state.index.dim()
                            ),
                        }
                    } else {
                        let neighbors = state.index.search(&query, k as usize);
                        Message::NearestReply {
                            req_id,
                            index_id: state.index_id,
                            ids: neighbors.iter().map(|n| n.id).collect(),
                            scores: neighbors.iter().map(|n| n.score).collect(),
                        }
                    }
                }
            };
            write_frame(stream, &reply, wbuf).is_err()
        }
        Message::Shutdown => {
            let _ = write_frame(stream, &Message::ShutdownAck, wbuf);
            let _ = stream.flush();
            signal_shutdown(shared);
            true
        }
        _ => {
            // Server-bound streams should never carry reply kinds.
            shared.metrics.errors.inc();
            let reply = Message::ErrorReply {
                req_id: 0,
                code: error_code::PROTOCOL,
                msg: "unexpected message kind for server".to_string(),
            };
            write_frame(stream, &reply, wbuf).is_err()
        }
    }
}

/// Full request path for one embed request: validate → cache probe →
/// bounded enqueue → wait for the batch thread → reply. Exactly one reply
/// per request, on every path.
///
/// The admission span covers validation, the cache probe, and the bounded
/// enqueue — everything up to the request either parking on the queue or
/// resolving terminally (cache hit, error, overload).
fn serve_embed(shared: &Arc<Shared>, trace_id: u64, req_id: u64, fields: Vec<FieldRow>) -> Message {
    shared.metrics.requests.inc();
    let started = Instant::now();
    let adm_start = shared.trace.now_ns();
    let end_admission = || {
        let dur = shared.trace.now_ns().saturating_sub(adm_start);
        shared.trace.record(trace_id, ST_ADMISSION, adm_start, dur);
        shared.metrics.stage_ns[ST_ADMISSION].record(dur);
    };
    let (n_fields, dim, ckpt_id) = {
        let model = shared.model.read().expect("model lock");
        (model.encoder.n_fields(), model.encoder.latent_dim(), model.ckpt_id)
    };
    if fields.len() != n_fields {
        shared.metrics.errors.inc();
        end_admission();
        return Message::ErrorReply {
            req_id,
            code: error_code::BAD_REQUEST,
            msg: format!("expected {n_fields} fields, got {}", fields.len()),
        };
    }
    for (ids, vals) in &fields {
        if ids.len() != vals.len() {
            shared.metrics.errors.inc();
            end_admission();
            return Message::ErrorReply {
                req_id,
                code: error_code::BAD_REQUEST,
                msg: "ids/weights length mismatch".to_string(),
            };
        }
    }
    let hash = row_hash(&fields);
    if let Some(hit) = shared.cache.lock().expect("cache mutex").get(ckpt_id, hash) {
        shared.metrics.cache_hits.inc();
        shared.metrics.replies_ok.inc();
        shared.metrics.latency_us.record(started.elapsed().as_micros() as u64);
        end_admission();
        return Message::EmbedReply { req_id, ckpt_id, embedding: hit.to_vec() };
    }
    shared.metrics.cache_misses.inc();

    let mut pending = Arc::new(Pending {
        row_hash: hash,
        fields,
        trace_id,
        enqueued_ns: 0, // stamped at the push, under the queue lock
        slot: Mutex::new(PendingSlot { state: ReplyState::Waiting, ckpt_id: 0, emb: vec![0.0; dim] }),
        cv: Condvar::new(),
    });
    {
        let mut q = shared.queue.lock().expect("serve queue mutex");
        if shared.shutdown.load(Ordering::Acquire) {
            shared.metrics.errors.inc();
            end_admission();
            return Message::ErrorReply {
                req_id,
                code: error_code::SHUTTING_DOWN,
                msg: "server is shutting down".to_string(),
            };
        }
        if q.len() >= shared.cfg.queue_capacity {
            shared.metrics.overloaded.inc();
            end_admission();
            return Message::Overloaded { req_id };
        }
        // Queue wait starts at the push and ends at the drain, both read
        // under this lock: a request's wait spans exactly the batches
        // drained after it was queued.
        Arc::get_mut(&mut pending).expect("pending not yet shared").enqueued_ns =
            shared.trace.now_ns();
        q.push_back(Arc::clone(&pending));
        shared.metrics.queue_depth.inc();
        shared.work_cv.notify_one();
        drop(q);
        end_admission();
    }

    let deadline = Instant::now() + shared.cfg.reply_timeout;
    let mut slot = pending.slot.lock().expect("pending mutex");
    loop {
        match slot.state {
            ReplyState::Ready => break,
            ReplyState::Waiting => {
                let now = Instant::now();
                if now >= deadline {
                    shared.metrics.errors.inc();
                    return Message::ErrorReply {
                        req_id,
                        code: error_code::TIMEOUT,
                        msg: "timed out waiting for batch".to_string(),
                    };
                }
                let (guard, _timeout) = pending
                    .cv
                    .wait_timeout(slot, deadline - now)
                    .expect("pending mutex");
                slot = guard;
            }
        }
    }
    shared.metrics.replies_ok.inc();
    shared.metrics.latency_us.record(started.elapsed().as_micros() as u64);
    Message::EmbedReply { req_id, ckpt_id: slot.ckpt_id, embedding: std::mem::take(&mut slot.emb) }
}

// ---------------------------------------------------------------------------
// Batch thread
// ---------------------------------------------------------------------------

fn batch_loop(shared: &Arc<Shared>, mut probe: Option<BatchProbe>) {
    let mut batch: Vec<Arc<Pending>> = Vec::with_capacity(shared.cfg.batch_size);
    let mut input = InputRows::default();
    let mut scratch = EncoderScratch::default();
    let mut qscratch = QuantizedEncoderScratch::default();
    let mut mu = Matrix::default();
    loop {
        // Wait for work (or shutdown with an empty queue, which ends the
        // loop — anything still queued at shutdown is drained first).
        let formed_start = {
            let mut q = shared.queue.lock().expect("serve queue mutex");
            loop {
                if !q.is_empty() {
                    break;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Bounded wait so the idle server still ticks: each timeout
                // sweeps finished connection threads (joining handles,
                // dropping socket-clone fds). Sweeping only on the accept
                // path let an idle server hold a burst's worth of dead fds
                // indefinitely after the clients disconnected.
                let (guard, timeout) = shared
                    .work_cv
                    .wait_timeout(q, IDLE_SWEEP_TICK)
                    .expect("serve queue mutex");
                q = guard;
                if timeout.timed_out() && q.is_empty() && !shared.shutdown.load(Ordering::Acquire)
                {
                    drop(q);
                    sweep_finished_conns(shared);
                    q = shared.queue.lock().expect("serve queue mutex");
                }
            }
            // Work-conserving: encode whatever is queued now, never wait
            // for stragglers. Under load the next batch is whatever arrived
            // during this batch's forward.
            let n = q.len().min(shared.cfg.batch_size);
            batch.extend(q.drain(..n));
            // Batch formation starts the moment the drain completes; each
            // member's queue wait ends here too.
            shared.trace.now_ns()
        };
        let n = batch.len();
        shared.metrics.queue_depth.add(-(n as f64));
        for p in &batch {
            let wait = formed_start.saturating_sub(p.enqueued_ns);
            shared.trace.record(p.trace_id, ST_QUEUE_WAIT, p.enqueued_ns, wait);
            shared.metrics.stage_ns[ST_QUEUE_WAIT].record(wait);
        }

        // Snapshot the model for the whole batch: a concurrent reload
        // swaps the Arc for *later* batches only.
        let model = Arc::clone(&shared.model.read().expect("model lock"));

        if let Some(p) = probe.as_mut() {
            p(BatchPhase::Start, n);
        }
        // Reload rejects architecture changes, so every admitted request's
        // field count matches this snapshot and every reply cell is exactly
        // `latent_dim` wide — the indexing and copies below cannot trip.
        input.reset(model.encoder.n_fields());
        for p in &batch {
            debug_assert_eq!(p.fields.len(), model.encoder.n_fields());
            input.push_row(|k| (p.fields[k].0.as_slice(), p.fields[k].1.as_slice()));
        }
        let encode_start = shared.trace.now_ns();
        match &model.quant {
            Some(q) => q.embed_into(&input, &mut qscratch, &mut mu),
            None => model.encoder.embed_into(&input, &mut scratch, &mut mu),
        }
        let encode_dur = shared.trace.now_ns().saturating_sub(encode_start);
        let form_dur = encode_start.saturating_sub(formed_start);
        // Shared batch stages land in every member's trace lane (each
        // request's timeline stays complete) but in the stage histograms
        // only once per batch — they happened once.
        for p in &batch {
            shared.trace.record(p.trace_id, ST_BATCH_FORM, formed_start, form_dur);
            shared.trace.record(p.trace_id, ST_ENCODE, encode_start, encode_dur);
        }
        shared.metrics.stage_ns[ST_BATCH_FORM].record(form_dur);
        shared.metrics.stage_ns[ST_ENCODE].record(encode_dur);
        shared.metrics.encode_ns.record(encode_dur);
        {
            let mut cache = shared.cache.lock().expect("cache mutex");
            for (i, p) in batch.iter().enumerate() {
                let row = mu.row(i);
                let mut slot = p.slot.lock().expect("pending mutex");
                if slot.emb.len() == row.len() {
                    slot.emb.copy_from_slice(row);
                } else {
                    // Unreachable while reload enforces a fixed latent_dim;
                    // stay panic-free regardless — a dead batch thread
                    // would wedge every future request.
                    debug_assert!(false, "reply cell width mismatch");
                    slot.emb.clear();
                    slot.emb.extend_from_slice(row);
                }
                slot.ckpt_id = model.ckpt_id;
                slot.state = ReplyState::Ready;
                p.cv.notify_all();
                cache.insert(model.ckpt_id, p.row_hash, row);
            }
        }
        if let Some(p) = probe.as_mut() {
            p(BatchPhase::End, n);
        }
        shared.metrics.batches.inc();
        shared.metrics.batch_size.record(n as u64);
        batch.clear();
    }
}
