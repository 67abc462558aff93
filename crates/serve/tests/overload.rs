//! Overload behaviour under open-loop load: when the offered load exceeds
//! what the server can absorb, the server must degrade by **shedding**
//! (`Overloaded` replies) — never by letting the queue (and therefore
//! served latency) grow without bound.
//!
//! Overload is built, not measured: a [`BatchGate`] holds the batch thread
//! on its first batch while 16 open-loop connections fill the 8-slot
//! queue, and opens only once the queue is full and a request has been
//! shed. Every scheduled tick must still get exactly one answer. The
//! latency contract is stated in batches, not microseconds: from the trace
//! ring, each served request's own batch is at most
//! ⌈queue_capacity / batch_size⌉ batches after its enqueue — bounded
//! queueing is the entire point of admission control, and a batch count
//! does not depend on how fast the machine runs.

use std::collections::BTreeSet;
use std::time::Duration;

mod common;

use common::{metric, tiny_dataset, trained_model, wait_until, BatchGate};
use fvae_core::checkpoint::export_model_snapshot;
use fvae_serve::{run_loadgen, LoadGenConfig, ServeConfig, Server};

#[test]
fn overload_sheds_instead_of_queueing_unboundedly() {
    const BATCH: usize = 4;
    const CAPACITY: usize = 8;

    let ds = tiny_dataset(55);
    let model = trained_model(&ds, 1);
    let dir = std::env::temp_dir().join(format!("fvae-serve-overload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_model_snapshot(&dir, &model).expect("export");

    // A deliberately small admission window: queue_capacity bounds how
    // much latency a served request can ever absorb, and makes shedding
    // reachable by a test-sized burst of concurrent connections.
    let mut cfg = ServeConfig::new(&dir);
    cfg.batch_size = BATCH;
    cfg.queue_capacity = CAPACITY;
    cfg.cache_capacity = 0; // every request pays the full pipeline
    cfg.reply_timeout = Duration::from_secs(20);
    cfg.trace_capacity = 1 << 16; // ≥ 6 events × every tick of the run
    let gate = BatchGate::armed();
    let server = Server::start_with_probe(cfg, Some(gate.probe())).expect("start");

    let mut over_cfg = LoadGenConfig::new(server.addr());
    over_cfg.target_qps = 4000.0;
    over_cfg.duration = Duration::from_millis(1000);
    over_cfg.connections = 16; // > one held batch + a full queue
    over_cfg.seed ^= 0xff;
    let over = std::thread::scope(|s| {
        let run = s.spawn(|| run_loadgen(&over_cfg).expect("overload run"));
        wait_until("a full queue and a shed behind the held batch", || {
            let text = server.metrics_text();
            metric(&text, "fvae_serve_queue_depth") >= CAPACITY as f64
                && metric(&text, "fvae_serve_overloaded") > 0.0
        });
        gate.open();
        run.join().expect("loadgen thread")
    });

    let expected_ticks = (over_cfg.target_qps * over_cfg.duration.as_secs_f64()).ceil() as u64;
    assert_eq!(over.sent, expected_ticks, "every scheduled tick is sent");
    assert_eq!(
        over.ok + over.overloaded + over.errors,
        over.sent,
        "every request gets exactly one answer"
    );
    assert_eq!(over.errors, 0, "overload degrades by shedding, not by erroring");
    assert!(over.ok > 0, "the server keeps serving under overload");
    assert!(over.overloaded > 0, "a full queue must shed; report:\n{}", over.render());

    // Bounded-queue latency contract, in batches: a request is admitted
    // only with fewer than queue_capacity ahead of it, so its own batch is
    // at most ⌈capacity / batch_size⌉ drains after its enqueue. Enqueue
    // and drain are both stamped under the queue lock, so the count is
    // exact on any machine.
    let events = server.trace_events();
    let formed: BTreeSet<u64> =
        events.iter().filter(|e| e.stage == "batch_form").map(|e| e.start_ns).collect();
    let waits: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.stage == "queue_wait")
        .map(|e| (e.start_ns, e.start_ns + e.dur_ns))
        .collect();
    assert_eq!(waits.len() as u64, over.ok, "the trace ring holds every served request");
    let bound = CAPACITY.div_ceil(BATCH);
    for &(enqueued, own) in &waits {
        let batches = formed.range(enqueued + 1..=own).count();
        assert!(
            batches <= bound,
            "a request enqueued at {enqueued} ns waited {batches} batches (bound {bound})\n{}",
            over.render()
        );
    }

    // The queue never grew past its bound (the gauge tracks live depth and
    // is monotonically sampled by the render; capacity is the hard cap).
    let text = server.metrics_text();
    let depth = metric(&text, "fvae_serve_queue_depth");
    assert!(
        (0.0..=CAPACITY as f64).contains(&depth),
        "queue depth {depth} escaped its capacity bound"
    );
    let sheds = metric(&text, "fvae_serve_overloaded");
    assert_eq!(sheds, over.overloaded as f64, "server-side shed count matches the client view");

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
