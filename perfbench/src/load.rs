//! Open-loop load from the benchmark process itself.
//!
//! A schedule fixes every request's send time before the run starts. Each
//! lane owns one thread and one connection and sends its requests at their
//! scheduled times whatever the system does; a request is timed from its
//! scheduled send, so a stall is charged to every request it delays. The
//! client is synchronous, so a lane that is still waiting for a reply sends
//! its next request late; that wait is part of the request's latency. The
//! generator's own lateness (time past schedule while the lane was idle) is
//! reported separately: a late generator is a fault in the benchmark.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use fvae_serve::{Client, EmbedOutcome, FieldRow, NearestOutcome};

use crate::stats::Digest;

/// Most lanes (threads and connections) any stage may use.
pub const MAX_LANES: usize = 2;

/// What one scheduled request asks for.
#[derive(Clone, Copy, Debug)]
pub enum Req {
    /// Embed row `i` of the traffic population.
    Embed(usize),
    /// Top-k neighbours of store vector `i`.
    Nearest(usize),
}

/// One scheduled request: send time as an offset from the schedule start.
#[derive(Clone, Copy, Debug)]
pub struct Shot {
    pub at: Duration,
    pub req: Req,
}

/// What came back.
#[derive(Clone, Debug)]
pub enum Reply {
    Embed {
        ckpt_id: u64,
        values: Vec<f32>,
    },
    Nearest {
        ids: Vec<u64>,
        scores: Vec<f32>,
    },
    /// Shed, refused, errored, timed out, or never sent.
    Failed(String),
}

/// One measured request.
#[derive(Clone, Debug)]
pub struct Sample {
    pub req: Req,
    /// Scheduled send, as an offset from the schedule start.
    pub at: Duration,
    /// Reply time minus scheduled send time.
    pub latency_us: f64,
    /// Send time minus the later of scheduled time and the lane's previous
    /// reply: how late the generator itself was.
    pub late_us: f64,
    /// When the reply arrived.
    pub done: Instant,
    pub reply: Reply,
}

impl Sample {
    pub fn ok(&self) -> bool {
        !matches!(self.reply, Reply::Failed(_))
    }
}

/// `attempted, failed (first reason: …)` for a stage's progress line.
pub fn outcome(samples: &[Sample]) -> String {
    let failed: Vec<&str> = samples
        .iter()
        .filter_map(|x| match &x.reply {
            Reply::Failed(why) => Some(why.as_str()),
            _ => None,
        })
        .collect();
    match failed.first() {
        None => format!("{} attempted, 0 failed", samples.len()),
        Some(why) => format!(
            "{} attempted, {} failed (first: {why})",
            samples.len(),
            failed.len()
        ),
    }
}

/// The inputs requests refer to.
pub struct Payload<'a> {
    pub rows: &'a [Vec<FieldRow>],
    /// Row-major store vectors, `dim` wide.
    pub store: &'a [f32],
    pub dim: usize,
    pub k: u32,
}

/// Stripes a schedule over `lanes` lanes: tick `i` goes to lane `i % lanes`.
pub fn stripe(shots: &[Shot], lanes: usize) -> Vec<Vec<Shot>> {
    let mut out = vec![Vec::new(); lanes];
    for (i, s) in shots.iter().enumerate() {
        out[i % lanes].push(*s);
    }
    out
}

/// Evenly spaced ticks at `rate` per second for `duration`, each turned into
/// a request by `pick`.
pub fn ticks(rate: f64, duration: Duration, mut pick: impl FnMut(usize) -> Req) -> Vec<Shot> {
    let n = (rate * duration.as_secs_f64()).round() as usize;
    (0..n)
        .map(|i| Shot {
            at: Duration::from_secs_f64(i as f64 / rate),
            req: pick(i),
        })
        .collect()
}

/// Folds a schedule into a digest (send offsets and request identities).
pub fn digest_shots(d: &mut Digest, shots: &[Shot]) {
    for s in shots {
        d.u64(s.at.as_nanos() as u64);
        match s.req {
            Req::Embed(i) => d.u64(i as u64),
            Req::Nearest(i) => d.u64((1 << 63) | i as u64),
        }
    }
}

/// Runs every lane on its own thread and connection, starting together at
/// `start`. A lane still sending `give_up` after `start` records the rest
/// of its schedule as failed, so an overloaded run ends in bounded time.
pub fn run_lanes(
    addr: SocketAddr,
    lanes: &[Vec<Shot>],
    payload: &Payload,
    start: Instant,
    give_up: Duration,
) -> Vec<Vec<Sample>> {
    assert!(
        lanes.len() <= MAX_LANES,
        "the generator uses at most {MAX_LANES} connections"
    );
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|shots| scope.spawn(move || run_lane(addr, shots, payload, start, give_up)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load lane panicked"))
            .collect()
    })
}

fn run_lane(
    addr: SocketAddr,
    shots: &[Shot],
    payload: &Payload,
    start: Instant,
    give_up: Duration,
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(shots.len());
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            let now = Instant::now();
            for s in shots {
                let reply = Reply::Failed(format!("connect: {e}"));
                out.push(Sample {
                    req: s.req,
                    at: s.at,
                    latency_us: 0.0,
                    late_us: 0.0,
                    done: now,
                    reply,
                });
            }
            return out;
        }
    };
    let mut prev_done = start;
    for s in shots {
        let target = start + s.at;
        let now = Instant::now();
        if now < target {
            std::thread::sleep(target - now);
        }
        let sent = Instant::now();
        if sent.duration_since(start) > give_up {
            let reply = Reply::Failed("not sent: schedule overran".into());
            out.push(Sample {
                req: s.req,
                at: s.at,
                latency_us: 0.0,
                late_us: 0.0,
                done: sent,
                reply,
            });
            continue;
        }
        let reply = send(&mut client, s.req, payload);
        let done = Instant::now();
        out.push(Sample {
            req: s.req,
            at: s.at,
            latency_us: done.duration_since(target).as_secs_f64() * 1e6,
            late_us: sent.duration_since(target.max(prev_done)).as_secs_f64() * 1e6,
            done,
            reply,
        });
        prev_done = done;
    }
    out
}

fn send(client: &mut Client, req: Req, payload: &Payload) -> Reply {
    match req {
        Req::Embed(i) => match client.embed(&payload.rows[i]) {
            Ok(EmbedOutcome::Embedding { ckpt_id, values }) => Reply::Embed { ckpt_id, values },
            Ok(EmbedOutcome::Overloaded) => Reply::Failed("overloaded".into()),
            Ok(EmbedOutcome::Error { code, msg }) => Reply::Failed(format!("error {code}: {msg}")),
            Err(e) => Reply::Failed(format!("transport: {e}")),
        },
        Req::Nearest(i) => {
            let q = &payload.store[i * payload.dim..(i + 1) * payload.dim];
            match client.nearest(q, payload.k) {
                Ok(NearestOutcome::Neighbors { neighbors, .. }) => Reply::Nearest {
                    ids: neighbors.iter().map(|n| n.0).collect(),
                    scores: neighbors.iter().map(|n| n.1).collect(),
                },
                Ok(NearestOutcome::Error { code, msg }) => {
                    Reply::Failed(format!("error {code}: {msg}"))
                }
                Err(e) => Reply::Failed(format!("transport: {e}")),
            }
        }
    }
}
