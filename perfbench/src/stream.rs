//! The streaming stage: writes beside reads. One generator thread appends
//! an event log at a fixed rate (a base pass, then a drift segment of
//! never-seen users); the publisher tails it, trains 32-user windows,
//! snapshots and pushes coordinated reloads through the router; the other
//! generator thread offers embed traffic at a fixed rate over one
//! connection. The offered load is set by the schedule, not by how fast the
//! trainer runs.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fvae_core::{Checkpointer, StreamTrainer};
use fvae_data::events::LOG_HEADER_LEN;
use fvae_data::{
    dataset_to_events, Event, EventLogReader, EventLogWriter, MultiFieldDataset, StreamBatcher,
    TopicModelConfig,
};
use fvae_serve::{row_hash, Client, FieldRow, PublishConfig, Publisher};

use crate::fleet::{self, Fleet};
use crate::load::{self, Payload, Reply, Req, Sample, Shot};
use crate::report::{Metrics, Record, Tally};
use crate::serve::{bit_equal, latencies, offline_embed, percentiles, sample_evenly, FAILED_US};
use crate::stats::{mean, quantile, Digest, Rng};
use crate::Keys;

/// Events appended per second.
const EVENT_RATE: f64 = 10_000.0;
/// Embed requests offered per second over the stream's one connection.
const EMBED_QPS: f64 = 250.0;
/// Distinct users per training window (the publisher default).
const WINDOW_USERS: usize = 32;
/// Snapshot and push every this many optimizer steps.
const SNAPSHOT_EVERY: u64 = 8;
/// Snapshots kept: all of them, so replies can be checked against the
/// snapshot that answered them.
const KEEP: usize = 100_000;
/// Share of the stream's events from never-seen users.
const DRIFT_SHARE: f64 = 0.4;
/// Identity offset of the drift segment's users.
const USER_BASE: u64 = 1 << 40;
/// How often the appender thread writes what its schedule has made due.
const APPEND_TICK: Duration = Duration::from_millis(2);
/// The publisher exits once the log has been quiet this long.
const IDLE_EXIT: Duration = Duration::from_millis(300);
/// The publisher's sleep between empty polls (its default).
const POLL: Duration = Duration::from_millis(10);
/// Embed traffic runs this long past the last append, to see the final push.
const TAIL: Duration = Duration::from_millis(600);

pub struct StreamSetup {
    fleet: Fleet,
    dir: PathBuf,
    initial: PathBuf,
    log: PathBuf,
    writer: EventLogWriter,
    field_names: Vec<String>,
    field_vocabs: Vec<usize>,
}

/// The stage's inputs, fixed by the seed: events with their due times, and
/// the embed schedule.
pub struct Plan {
    events: Vec<Event>,
    embeds: Vec<Shot>,
}

pub fn plan(
    seed: u64,
    keys: &Keys,
    seconds: f64,
    ds: &MultiFieldDataset,
    digest: &mut Digest,
) -> Plan {
    let duration = Duration::from_secs_f64(0.5 * seconds);
    let total = (EVENT_RATE * duration.as_secs_f64()) as usize;
    let n_drift = (total as f64 * DRIFT_SHARE) as usize;
    let mut events = dataset_to_events(ds, 0, 1, seed);
    events.truncate(total - n_drift);
    // Never-seen users from a re-seeded topic mixture: enough of them to
    // fill the drift segment (the SC preset averages ~56 events a user).
    let drift_users = n_drift / 40 + 64;
    let drift = TopicModelConfig {
        n_users: drift_users,
        seed: seed ^ 0xd1f7,
        ..TopicModelConfig::sc()
    }
    .generate();
    events.extend(
        dataset_to_events(&drift, USER_BASE, 1, seed)
            .into_iter()
            .take(n_drift),
    );
    for (j, ev) in events.iter_mut().enumerate() {
        ev.ts = (j as f64 / EVENT_RATE * 1e6) as u64;
        digest.u64(ev.user);
        digest.u64(u64::from(ev.field) << 32 | u64::from(ev.feature));
        digest.u64(u64::from(ev.weight.to_bits()) << 32);
    }
    let mut rng = Rng::new(seed ^ 0x57e4);
    let embeds = load::ticks(EMBED_QPS, duration + TAIL, |_| {
        Req::Embed(keys.pick(&mut rng))
    });
    load::digest_shots(digest, &embeds);
    Plan { events, embeds }
}

/// Writes the stream's first snapshot (the serving stage's model, log
/// cursor at the top), creates the log, and starts a store-less fleet on the snapshot
/// directory.
pub fn setup(
    work: &Path,
    serve_dir: &Path,
    ds: &MultiFieldDataset,
    traced: bool,
) -> Result<StreamSetup, String> {
    let dir = work.join("stream-ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let loaded = Checkpointer::load_latest(serve_dir)
        .map_err(|e| e.to_string())?
        .ok_or("no serving snapshot")?;
    let (model, _) = loaded.snapshot.into_resume();
    let cp = Checkpointer::new(&dir, SNAPSHOT_EVERY, KEEP).map_err(|e| e.to_string())?;
    let initial = StreamTrainer::new(model, LOG_HEADER_LEN)
        .checkpoint(&cp)
        .map_err(|e| e.to_string())?;
    let log = work.join("events.fvlg");
    let writer = EventLogWriter::create(&log).map_err(|e| e.to_string())?;
    let fleet = Fleet::start(&dir, None, traced)?;
    let field_names = ds.field_names().to_vec();
    let field_vocabs = (0..ds.n_fields()).map(|k| ds.field_vocab(k)).collect();
    Ok(StreamSetup {
        fleet,
        dir,
        initial,
        log,
        writer,
        field_names,
        field_vocabs,
    })
}

impl StreamSetup {
    pub fn shutdown(self) {
        self.fleet.shutdown();
    }
}

/// Publisher-side timings of the traced run.
#[derive(Default)]
struct PublishSpans {
    tail_ns: u64,
    idle_ns: u64,
    events: u64,
    window_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    snapshot_mb: Vec<f64>,
    reload_ms: Vec<f64>,
    wall_ns: u64,
}

/// What the publisher did, whichever way it ran.
struct Published {
    pushed: Vec<u64>,
    push_failures: u64,
    pushes: u64,
    spans: Option<PublishSpans>,
}

pub fn run(
    s: StreamSetup,
    plan: &Plan,
    rows: &[Vec<FieldRow>],
    work: &Path,
    traced: bool,
    rec: &mut Record,
) -> Result<(), String> {
    let Record { e2e, layers, tally } = rec;
    let StreamSetup {
        fleet,
        dir,
        initial,
        log,
        writer,
        field_names,
        field_vocabs,
    } = s;
    let payload = Payload {
        rows,
        store: &[],
        dim: 0,
        k: 0,
    };
    let addr = fleet.addr();
    let (hits0, misses0) = (
        fleet.shard_counter("fvae_serve_cache_hits"),
        fleet.shard_counter("fvae_serve_cache_misses"),
    );
    let rollbacks0 = fleet.router_counter("fvae_router_reload_rollbacks");
    let start = Instant::now() + Duration::from_millis(20);
    let give_up = plan.embeds.last().map_or(Duration::ZERO, |l| l.at) * 2 + Duration::from_secs(2);

    let lanes = [plan.embeds.clone()];
    let (appends, embeds, published) = std::thread::scope(|scope| {
        let appender = scope.spawn(move || append(writer, &plan.events, start));
        let (lanes, payload) = (&lanes, &payload);
        let traffic =
            scope.spawn(move || load::run_lanes(addr, lanes, payload, start, give_up).concat());
        let published = if traced {
            traced_publish(&dir, &log, &field_names, &field_vocabs, &addr.to_string())
        } else {
            publish(&dir, &log, &field_names, &field_vocabs, &addr.to_string())
        };
        let appends = appender.join().expect("appender panicked");
        let embeds = traffic.join().expect("traffic lane panicked");
        (appends, embeds, published)
    });
    let published = published?;
    let appends = appends?;
    let (hits1, misses1) = (
        fleet.shard_counter("fvae_serve_cache_hits"),
        fleet.shard_counter("fvae_serve_cache_misses"),
    );
    let rollbacks = fleet.router_counter("fvae_router_reload_rollbacks") - rollbacks0;
    fleet.shutdown();

    let failed = embeds.iter().filter(|x| !x.ok()).count();
    tally.ops(embeds.len() as u64, failed as u64);
    tally.ops(published.pushes, published.push_failures);
    println!(
        "stream: {EVENT_RATE} events/s and {EMBED_QPS} embeds/s: embeds {}; {} pushes, {} failed",
        load::outcome(&embeds),
        published.pushes,
        published.push_failures
    );
    let embed = percentiles(&latencies(&embeds, |_| true));
    e2e.push("stream_embed_p50_us", "us", embed.p50, Some(embed.n));
    layers.push("stream.embed_p90_us", "us", embed.p90, Some(embed.n));
    layers.push("stream.embed_p99_us", "us", embed.p99, Some(embed.n));

    let snaps = fleet::snapshots(&dir)?;
    let initial_id = snaps
        .first()
        .map(|(id, _)| *id)
        .ok_or("stream snapshots missing")?;
    let freshness = freshness_ms(&embeds, &snaps, &appends);
    e2e.push(
        "freshness_p50_ms",
        "ms",
        quantile(&freshness, 0.5).unwrap_or(FAILED_US),
        Some(freshness.len()),
    );
    e2e.push(
        "freshness_p99_ms",
        "ms",
        quantile(&freshness, 0.99).unwrap_or(FAILED_US),
        Some(freshness.len()),
    );

    check_stream(&embeds, rows, &snaps, &published, initial_id, tally)?;
    if traced {
        // The traced run drove the publisher's building blocks by hand; it
        // must have published exactly what `Publisher::run` publishes on
        // the same log.
        let replay = replay_publisher(work, &initial, &log, &field_names, &field_vocabs)?;
        let same = replay == published.pushed;
        tally.check(
            "stream.traced_matches_publisher",
            same,
            format!(
                "traced run published {} snapshots, Publisher::run {}",
                published.pushed.len(),
                replay.len()
            ),
        );
        let spans = published
            .spans
            .as_ref()
            .expect("traced publish records spans");
        stream_layers(
            spans,
            &embeds,
            &appends,
            rollbacks,
            (hits0, misses0, hits1, misses1),
            layers,
        );
    }
    Ok(())
}

/// Appends every event when its due time comes, a tick at a time; returns
/// `(log offset after the append, when it was appended, how late)` per tick.
fn append(
    mut writer: EventLogWriter,
    events: &[Event],
    start: Instant,
) -> Result<Vec<(u64, Instant, f64)>, String> {
    let mut out = Vec::new();
    let mut next = 0;
    let mut tick = 0u32;
    while next < events.len() {
        tick += 1;
        let due_at = start + APPEND_TICK * tick;
        let now = Instant::now();
        if now < due_at {
            std::thread::sleep(due_at - now);
        }
        let due = events[next..].partition_point(|e| start + Duration::from_micros(e.ts) <= due_at);
        if due == 0 {
            continue;
        }
        let offset = writer
            .append(&events[next..next + due])
            .map_err(|e| e.to_string())?;
        let at = Instant::now();
        out.push((offset, at, at.duration_since(due_at).as_secs_f64() * 1e6));
        next += due;
    }
    Ok(out)
}

fn publish_config(dir: &Path, log: &Path, push: Vec<String>) -> PublishConfig {
    let mut cfg = PublishConfig::new(log, dir);
    cfg.push = push;
    cfg.snapshot_every = SNAPSHOT_EVERY;
    cfg.keep_last = KEEP;
    cfg.batch_users = WINDOW_USERS;
    cfg.poll = POLL;
    cfg.idle_exit = Some(IDLE_EXIT);
    cfg
}

/// The untraced run: `Publisher::run` until the log goes quiet.
fn publish(
    dir: &Path,
    log: &Path,
    names: &[String],
    vocabs: &[usize],
    router: &str,
) -> Result<Published, String> {
    let cfg = publish_config(dir, log, vec![router.to_string()]);
    let mut publisher =
        Publisher::new(cfg, names.to_vec(), vocabs.to_vec(), None).map_err(|e| e.to_string())?;
    let report = publisher.run(None).map_err(|e| e.to_string())?;
    Ok(Published {
        pushed: report.pushed_ckpt_ids,
        push_failures: report.push_failures,
        pushes: report.pushes_committed + report.push_failures,
        spans: None,
    })
}

/// The traced run: the publisher's public building blocks in its order
/// (log reader → batcher, window step, checkpoint, reload through the
/// router), each timed.
fn traced_publish(
    dir: &Path,
    log: &Path,
    names: &[String],
    vocabs: &[usize],
    router: &str,
) -> Result<Published, String> {
    let wall = Instant::now();
    let loaded = Checkpointer::load_latest(dir)
        .map_err(|e| e.to_string())?
        .ok_or("no stream snapshot")?;
    let mut trainer = StreamTrainer::resume(loaded.snapshot).map_err(|e| e.to_string())?;
    let cp = Checkpointer::new(dir, SNAPSHOT_EVERY, KEEP).map_err(|e| e.to_string())?;
    let mut window_start = trainer.stream_progress().log_offset;
    let mut reader = EventLogReader::open(log, window_start).map_err(|e| e.to_string())?;
    let mut batcher = StreamBatcher::new(names.to_vec(), vocabs.to_vec(), WINDOW_USERS);
    let mut spans = PublishSpans::default();
    let mut out = Published {
        pushed: Vec::new(),
        push_failures: 0,
        pushes: 0,
        spans: None,
    };
    let mut steps = 0u64;
    let mut backlog = Vec::new();
    let mut idle_since = Instant::now();

    let snapshot_and_push = |trainer: &StreamTrainer,
                             spans: &mut PublishSpans,
                             out: &mut Published|
     -> Result<(), String> {
        let t = Instant::now();
        let path = trainer.checkpoint(&cp).map_err(|e| e.to_string())?;
        spans.snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        spans
            .snapshot_mb
            .push(std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64 / 1e6));
        let t = Instant::now();
        let report = Client::connect_with_timeout(router, Duration::from_secs(2))
            .ok()
            .and_then(|mut c| c.reload().ok());
        spans.reload_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.pushes += 1;
        match report.filter(|r| r.ok) {
            Some(r) if r.changed && out.pushed.last() != Some(&r.ckpt_id) => {
                out.pushed.push(r.ckpt_id)
            }
            Some(_) => {}
            None => out.push_failures += 1,
        }
        Ok(())
    };

    loop {
        backlog.clear();
        let t = Instant::now();
        let got = reader.poll(256, &mut backlog).map_err(|e| e.to_string())?;
        spans.tail_ns += t.elapsed().as_nanos() as u64;
        if got == 0 {
            if idle_since.elapsed() >= IDLE_EXIT {
                break;
            }
            let t = Instant::now();
            std::thread::sleep(POLL);
            spans.idle_ns += t.elapsed().as_nanos() as u64;
            continue;
        }
        idle_since = Instant::now();
        spans.events += got as u64;
        for &(ev, after) in &backlog {
            let t = Instant::now();
            let sealed = batcher.push(&ev).map_err(|e| e.to_string())?;
            spans.tail_ns += t.elapsed().as_nanos() as u64;
            if let Some((window, events)) = sealed {
                let t = Instant::now();
                trainer.step_window(&window, window_start, events);
                spans.window_ms.push(t.elapsed().as_secs_f64() * 1e3);
                steps += 1;
                if trainer.checkpoint_due(&cp) {
                    snapshot_and_push(&trainer, &mut spans, &mut out)?;
                }
            }
            window_start = after;
        }
    }
    if steps > 0 {
        snapshot_and_push(&trainer, &mut spans, &mut out)?;
    }
    spans.wall_ns = wall.elapsed().as_nanos() as u64;
    out.spans = Some(spans);
    Ok(out)
}

/// `Publisher::run` over the finished log from the same first snapshot, in
/// a directory of its own and with no push targets; returns the ids of the
/// snapshots it wrote after the first, in order, consecutive repeats merged.
fn replay_publisher(
    work: &Path,
    initial: &Path,
    log: &Path,
    names: &[String],
    vocabs: &[usize],
) -> Result<Vec<u64>, String> {
    let dir = work.join("replay-ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let name = initial.file_name().ok_or("snapshot file name")?;
    std::fs::copy(initial, dir.join(name)).map_err(|e| e.to_string())?;
    let mut cfg = publish_config(&dir, log, Vec::new());
    cfg.idle_exit = Some(Duration::from_millis(50));
    let mut publisher =
        Publisher::new(cfg, names.to_vec(), vocabs.to_vec(), None).map_err(|e| e.to_string())?;
    publisher.run(None).map_err(|e| e.to_string())?;
    let mut ids: Vec<u64> = fleet::snapshots(&dir)?
        .into_iter()
        .skip(1)
        .map(|(id, _)| id)
        .collect();
    ids.dedup();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(ids)
}

/// Per reply: reply time minus the append time of the newest event in the
/// snapshot that answered it. Replies from the first snapshot, which holds
/// no event yet, have no freshness.
fn freshness_ms(
    embeds: &[Sample],
    snaps: &[(u64, fleet::Snapshot)],
    appends: &[(u64, Instant, f64)],
) -> Vec<f64> {
    let offset_of: HashMap<u64, u64> = snaps.iter().map(|(id, s)| (*id, s.log_offset)).collect();
    embeds
        .iter()
        .filter_map(|x| {
            let Reply::Embed { ckpt_id, .. } = &x.reply else {
                return None;
            };
            let offset = *offset_of.get(ckpt_id)?;
            if offset <= LOG_HEADER_LEN {
                return None;
            }
            let i = appends.partition_point(|a| a.0 < offset);
            let appended = appends.get(i)?.1;
            Some(x.done.saturating_duration_since(appended).as_secs_f64() * 1e3)
        })
        .collect()
}

/// Every push committed; every reply came from a published snapshot, in
/// publish order per key; sampled replies are bit-identical to an offline
/// encoder on the snapshot that answered them; the snapshots on disk are
/// the ones pushed.
fn check_stream(
    embeds: &[Sample],
    rows: &[Vec<FieldRow>],
    snaps: &[(u64, fleet::Snapshot)],
    published: &Published,
    initial_id: u64,
    tally: &mut Tally,
) -> Result<(), String> {
    tally.check(
        "stream.pushes_committed",
        published.push_failures == 0 && published.pushes > 0,
        format!(
            "{} of {} pushes failed",
            published.push_failures, published.pushes
        ),
    );
    let mut on_disk: Vec<u64> = snaps.iter().skip(1).map(|(id, _)| *id).collect();
    on_disk.dedup();
    tally.check(
        "stream.pushed_are_written",
        on_disk == published.pushed,
        format!(
            "{} snapshots written after the first, {} pushed",
            on_disk.len(),
            published.pushed.len()
        ),
    );

    let order: HashMap<u64, usize> = std::iter::once(initial_id)
        .chain(published.pushed.iter().copied())
        .enumerate()
        .map(|(i, id)| (id, i))
        .collect();
    let mut last_seen: HashMap<u64, usize> = HashMap::new();
    let (mut unknown, mut regressed) = (0, 0);
    let mut by_ckpt: HashMap<u64, Vec<(usize, &[f32])>> = HashMap::new();
    for x in embeds {
        let (Req::Embed(i), Reply::Embed { ckpt_id, values }) = (&x.req, &x.reply) else {
            continue;
        };
        let Some(&pos) = order.get(ckpt_id) else {
            unknown += 1;
            continue;
        };
        let prev = last_seen.entry(row_hash(&rows[*i])).or_insert(pos);
        regressed += usize::from(pos < *prev);
        *prev = pos.max(*prev);
        by_ckpt
            .entry(*ckpt_id)
            .or_default()
            .push((*i, values.as_slice()));
    }
    tally.check(
        "stream.publish_order",
        unknown == 0 && regressed == 0,
        format!(
            "{unknown} replies from unpublished snapshots, {regressed} went back to an older one"
        ),
    );

    let (mut checked, mut differ) = (0, 0);
    for (id, snap) in snaps {
        let Some(replies) = by_ckpt.get(id) else {
            continue;
        };
        let encoder = fleet::encoder_of(&snap.path)?;
        for (i, values) in sample_evenly(replies, 16) {
            checked += 1;
            differ += usize::from(!bit_equal(&offline_embed(&encoder, &rows[i]), values));
        }
    }
    tally.check(
        "stream.embed_bit_identical",
        differ == 0 && checked > 0,
        format!("{differ} of {checked} sampled embeddings differ from the offline encoder"),
    );
    Ok(())
}

fn stream_layers(
    spans: &PublishSpans,
    embeds: &[Sample],
    appends: &[(u64, Instant, f64)],
    rollbacks: u64,
    (hits0, misses0, hits1, misses1): (u64, u64, u64, u64),
    layers: &mut Metrics,
) {
    let mut late: Vec<f64> = embeds.iter().map(|x| x.late_us).collect();
    late.extend(appends.iter().map(|a| a.2));
    layers.push(
        "stream.gen_late_p99_us",
        "us",
        quantile(&late, 0.99).unwrap_or(0.0),
        Some(late.len()),
    );
    let lookups = (hits1 - hits0) + (misses1 - misses0);
    layers.push(
        "stream.cache_hit_frac",
        "ratio",
        (hits1 - hits0) as f64 / lookups.max(1) as f64,
        Some(lookups as usize),
    );
    layers.push(
        "stream.tail_us_per_kevent",
        "us",
        spans.tail_ns as f64 / 1e3 / (spans.events as f64 / 1e3).max(1e-9),
        Some(spans.events as usize),
    );
    let avg = |v: &[f64]| mean(v).unwrap_or(0.0);
    layers.push(
        "stream.window_ms",
        "ms",
        avg(&spans.window_ms),
        Some(spans.window_ms.len()),
    );
    layers.push(
        "stream.snapshot_ms",
        "ms",
        avg(&spans.snapshot_ms),
        Some(spans.snapshot_ms.len()),
    );
    layers.push(
        "stream.snapshot_mb",
        "MB",
        avg(&spans.snapshot_mb),
        Some(spans.snapshot_mb.len()),
    );
    layers.push(
        "stream.reload_commit_ms",
        "ms",
        avg(&spans.reload_ms),
        Some(spans.reload_ms.len()),
    );
    layers.push("stream.reload_rollbacks", "count", rollbacks as f64, None);
    let sum = |v: &[f64]| v.iter().sum::<f64>() * 1e6;
    let busy = spans.tail_ns as f64
        + sum(&spans.window_ms)
        + sum(&spans.snapshot_ms)
        + sum(&spans.reload_ms);
    let wall = spans.wall_ns.max(1) as f64;
    layers.push("stream.coverage", "ratio", busy / wall, None);
    layers.push(
        "stream.idle_frac",
        "ratio",
        spans.idle_ns as f64 / wall,
        None,
    );
}
