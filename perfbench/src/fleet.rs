//! The serving fleet under test: a router in front of two shards, all
//! in-process, started with the repository's default serving settings.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use fvae_core::{decode_snapshot, normalized_snapshot_bytes, Checkpointer, Encoder};
use fvae_obs::TraceEvent;
use fvae_serve::{fnv64, Router, RouterConfig, ServeConfig, Server};

/// Shards behind the router.
const SHARDS: usize = 2;
/// Trace-ring slots per server when the run is traced: enough to keep
/// every request of a stage's measured window.
const TRACED_RING: usize = 1 << 18;

pub struct Fleet {
    shards: Vec<Server>,
    router: Router,
}

impl Fleet {
    /// Starts the shards on `ckpt_dir` (and `store`, when given, which makes
    /// each shard build its ANN index), then the router over them.
    pub fn start(ckpt_dir: &Path, store: Option<&Path>, traced: bool) -> Result<Self, String> {
        let mut shards = Vec::with_capacity(SHARDS);
        for _ in 0..SHARDS {
            let mut cfg = ServeConfig::new(ckpt_dir);
            cfg.embeddings = store.map(Path::to_path_buf);
            if traced {
                cfg.trace_capacity = TRACED_RING;
            }
            shards.push(Server::start(cfg).map_err(|e| format!("shard start: {e}"))?);
        }
        let mut cfg = RouterConfig::new(shards.iter().map(|s| s.addr().to_string()).collect());
        if traced {
            cfg.trace_capacity = TRACED_RING;
        }
        let router = Router::start(cfg).map_err(|e| format!("router start: {e}"))?;
        Ok(Self { shards, router })
    }

    pub fn addr(&self) -> SocketAddr {
        self.router.addr()
    }

    pub fn router_events(&self) -> Vec<TraceEvent> {
        self.router.trace_events()
    }

    pub fn shard_events(&self) -> Vec<Vec<TraceEvent>> {
        self.shards.iter().map(Server::trace_events).collect()
    }

    /// Sum over shards of a counter in the servers' metrics text.
    pub fn shard_counter(&self, name: &str) -> u64 {
        self.shards
            .iter()
            .map(|s| counter(&s.metrics_text(), name))
            .sum()
    }

    pub fn router_counter(&self, name: &str) -> u64 {
        counter(&self.router.metrics_text(), name)
    }

    /// Router first, then the shards; each drains its queue before exiting.
    pub fn shutdown(mut self) {
        self.router.shutdown();
        for s in &mut self.shards {
            s.shutdown();
        }
    }
}

/// Value of an unlabelled counter line `name <value>` in Prometheus text.
fn counter(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0)
}

/// A snapshot in a checkpoint directory, by the identity servers stamp on
/// replies.
pub struct Snapshot {
    pub path: PathBuf,
    /// Event-log offset the weights stand at (0 for a batch snapshot).
    pub log_offset: u64,
}

/// Every snapshot in `dir`, oldest first, with its checkpoint id (the hash
/// of its normalized bytes, as the servers compute it).
pub fn snapshots(dir: &Path) -> Result<Vec<(u64, Snapshot)>, String> {
    let mut out = Vec::new();
    for path in Checkpointer::list_snapshot_files(dir)
        .map_err(|e| e.to_string())?
        .into_iter()
        .rev()
    {
        let raw = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let id = fnv64(&normalized_snapshot_bytes(&raw).map_err(|e| e.to_string())?);
        let snap = decode_snapshot(&raw).map_err(|e| e.to_string())?;
        let log_offset = snap.stream_progress().map_or(0, |s| s.log_offset);
        out.push((id, Snapshot { path, log_offset }));
    }
    Ok(out)
}

/// The offline encoder of a snapshot file.
pub fn encoder_of(path: &Path) -> Result<Encoder, String> {
    let raw = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (model, _) = decode_snapshot(&raw)
        .map_err(|e| e.to_string())?
        .into_resume();
    Ok(Encoder::from(model))
}
