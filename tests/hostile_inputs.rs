//! One hostile-input battery over every decoder of external bytes: model,
//! checkpoint, dataset, ANN index, embedding store, event log and wire
//! frame. Each decoder gets a valid artifact and then:
//!
//! - every truncated prefix, which must be rejected unless the format
//!   defines that prefix as a complete (older) document;
//! - every single-byte flip;
//! - `u64::MAX / 2` (and its `u32` / `u16` analogues) written at every
//!   offset, which covers every count field of every format;
//! - trailing garbage, which must be rejected.
//!
//! No case may panic, and no case may make the decoder allocate more than
//! the input can justify: a counting allocator records the largest single
//! allocation of every decode.
//!
//! The named tests at the bottom pin the hostile counts that used to panic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use fvae_ann::io::read_embeddings;
use fvae_ann::{
    decode_index, encode_index, synth_clustered, AnyIndex, FlatIndex, IvfConfig, IvfIndex,
};
use fvae_core::{
    decode_snapshot, Checkpointer, Fvae, FvaeConfig, NullObserver, SnapshotError, TrainOptions,
};
use fvae_data::events::put_event;
use fvae_data::{Event, EventDecoder, FieldSpec, MultiFieldDataset, TopicModelConfig};
use fvae_lookalike::EmbeddingStore;
use fvae_serve::protocol::error_code;
use fvae_serve::{decode_message, encode_frame, Message};
use fvae_sparse::serial::{crc32, DecodeError, Put};

/// Largest single allocation made on this thread while `TRACKING` is set.
struct PeakAlloc;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with its arguments unchanged;
// the bookkeeping only touches const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.with(Cell::get) {
            PEAK.with(|p| p.set(p.get().max(layout.size())));
        }
        System.alloc(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.with(Cell::get) {
            PEAK.with(|p| p.set(p.get().max(new_size)));
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Decoded structures may be larger than their encoding (a checkpoint
/// section-table entry takes 24 bytes for 9 encoded), but only by a
/// constant factor, plus a floor for fixed-size parts such as the
/// embedding store's lock shards.
fn alloc_bound(input_len: usize) -> usize {
    4 * input_len + 1024
}

/// Runs `decode` on `bytes`, returning whether it succeeded. Panics with the
/// case name if the decoder panicked or over-allocated.
fn run<T, E: Debug>(
    name: &str,
    case: &str,
    bytes: &[u8],
    decode: &impl Fn(&[u8]) -> Result<T, E>,
) -> Result<(), E> {
    PEAK.with(|p| p.set(0));
    TRACKING.with(|t| t.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| decode(bytes).map(drop)));
    TRACKING.with(|t| t.set(false));
    let peak = PEAK.with(Cell::get);
    let result = outcome.unwrap_or_else(|_| panic!("{name}: {case} panicked"));
    assert!(
        peak <= alloc_bound(bytes.len()),
        "{name}: {case} allocated {peak} bytes from a {}-byte input",
        bytes.len()
    );
    result
}

/// The battery. `complete_prefixes` lists prefix lengths the format itself
/// accepts; `seal` re-frames a mutated buffer (a checkpoint recomputes its
/// CRC so the mutation reaches the section decoders); `decode` is the
/// decoder under test.
fn battery<T, E: Debug>(
    name: &str,
    valid: &[u8],
    complete_prefixes: &[usize],
    seal: impl Fn(&mut [u8]),
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    let sealed = |mut bytes: Vec<u8>| {
        seal(&mut bytes);
        bytes
    };
    if let Err(e) = run(name, "the valid input", valid, &decode) {
        panic!("{name}: the valid input must decode, got {e:?}");
    }
    for len in (0..valid.len()).filter(|len| !complete_prefixes.contains(len)) {
        let cut = sealed(valid[..len].to_vec());
        let case = format!("the {len}-byte prefix");
        assert!(
            run(name, &case, &cut, &decode).is_err(),
            "{name}: {case} was accepted"
        );
    }
    for at in 0..valid.len() {
        let mut flipped = valid.to_vec();
        flipped[at] ^= 0xFF;
        let _ = run(
            name,
            &format!("a flip at byte {at}"),
            &sealed(flipped),
            &decode,
        );
    }
    let hostile: [&[u8]; 3] = [
        &(u64::MAX / 2).to_le_bytes(),
        &(u32::MAX / 2).to_le_bytes(),
        &(u16::MAX / 2).to_le_bytes(),
    ];
    for count in hostile {
        for at in 0..=valid.len().saturating_sub(count.len()) {
            let mut forged = valid.to_vec();
            forged[at..at + count.len()].copy_from_slice(count);
            let case = format!("a {}-byte hostile count at byte {at}", count.len());
            let _ = run(name, &case, &sealed(forged), &decode);
        }
    }
    for extra in [1usize, 4, 8, 9] {
        let mut long = valid.to_vec();
        long.extend(std::iter::repeat_n(0xA5, extra));
        let case = format!("{extra} trailing bytes");
        assert!(
            run(name, &case, &sealed(long), &decode).is_err(),
            "{name}: {case} were accepted"
        );
    }
}

fn no_seal(_: &mut [u8]) {}

/// Recomputes a checkpoint's trailing CRC-32 over everything before it.
fn seal_crc(bytes: &mut [u8]) {
    if bytes.len() >= 4 {
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
    }
}

fn tiny_dataset() -> MultiFieldDataset {
    TopicModelConfig {
        n_users: 24,
        n_topics: 2,
        alpha: 0.2,
        fields: vec![
            FieldSpec::new("ch", 6, 2, 1.0),
            FieldSpec::new("tag", 10, 3, 1.0),
        ],
        pair_prob: 0.0,
        seed: 5,
    }
    .generate()
}

fn tiny_config(ds: &MultiFieldDataset) -> FvaeConfig {
    let mut cfg = FvaeConfig::for_dataset(ds);
    cfg.latent_dim = 2;
    cfg.enc_hidden = 3;
    cfg.enc_extra_hidden = vec![2];
    cfg.dec_hidden = vec![2];
    cfg.batch_size = 12;
    cfg
}

fn tiny_model(ds: &MultiFieldDataset) -> Fvae {
    let mut model = Fvae::new(tiny_config(ds));
    let users: Vec<usize> = (0..ds.n_users()).collect();
    model.train_epochs(ds, &users, 1, |_, _| {});
    model
}

/// A checkpoint with every section an early-stopping run writes.
fn tiny_checkpoint(name: &str) -> Vec<u8> {
    let ds = tiny_dataset();
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let cp = Checkpointer::new(&dir, 0, 1).expect("checkpointer");
    let users: Vec<usize> = (0..ds.n_users()).collect();
    let (train, val) = users.split_at(18);
    let opts = TrainOptions {
        max_epochs: 1,
        patience: 1,
        eval_every: 1,
    };
    Fvae::new(tiny_config(&ds))
        .train_until_checkpointed(&ds, train, val, opts, &mut NullObserver, Some(&cp), None)
        .expect("train");
    let path = Checkpointer::list_snapshot_files(&dir)
        .expect("list")
        .pop()
        .expect("one snapshot");
    let bytes = std::fs::read(path).expect("read snapshot");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

fn tiny_store_bytes() -> Box<[u8]> {
    let store = EmbeddingStore::new(3);
    for user in [2u64, 5, 11, 40] {
        store.put(user, vec![user as f32, 0.5, -1.0]);
    }
    store.to_bytes()
}

/// Decodes exactly one event-log record: a torn record is truncated, and
/// bytes after the record are trailing garbage.
fn decode_record(bytes: &[u8]) -> Result<Event, DecodeError> {
    let mut dec = EventDecoder::new();
    dec.feed(bytes);
    let ev = dec.next_event()?.ok_or(DecodeError::Truncated)?;
    match dec.pending() {
        0 => Ok(ev),
        n => Err(DecodeError::Invalid(format!("{n} trailing bytes"))),
    }
}

/// A frame payload (kind byte + body) as [`decode_message`] sees it.
fn payload(msg: &Message) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame(msg, &mut frame).expect("encode");
    frame.split_off(4)
}

#[test]
fn model_survives_the_battery() {
    let model = tiny_model(&tiny_dataset());
    battery("model", &model.to_bytes(), &[], no_seal, |b| {
        Fvae::from_bytes(b)
    });
}

#[test]
fn checkpoint_survives_the_battery() {
    let bytes = tiny_checkpoint("fvae_hostile_ckpt");
    let snap = decode_snapshot(&bytes).expect("valid snapshot");
    assert!(
        snap.is_early_stopping(),
        "the fixture must carry the early-stop section"
    );
    battery("checkpoint", &bytes, &[], seal_crc, decode_snapshot);
}

#[test]
fn dataset_survives_the_battery() {
    let ds = tiny_dataset();
    let bytes = ds.to_bytes();
    // Files written before the topic-mixture block end after the labels.
    let without_mixtures = bytes.len() - 16 - 4 * ds.user_mixtures.len();
    battery("dataset", &bytes, &[without_mixtures], no_seal, |b| {
        MultiFieldDataset::from_bytes(b)
    });
}

#[test]
fn ann_indexes_survive_the_battery() {
    let (ids, data) = synth_clustered(24, 4, 3, 9);
    let cfg = IvfConfig {
        nlist: 3,
        pq_m: 2,
        pq_ks: 4,
        rerank: 8,
        ..IvfConfig::default()
    };
    let ivf = IvfIndex::build(4, &ids, &data, cfg).expect("ivf");
    battery(
        "ivf index",
        &encode_index(&AnyIndex::Ivf(ivf)),
        &[],
        no_seal,
        |b| decode_index(b),
    );
    let flat = FlatIndex::build(4, &ids[..6], &data[..24]).expect("flat");
    battery(
        "flat index",
        &encode_index(&AnyIndex::Flat(flat)),
        &[],
        no_seal,
        |b| decode_index(b),
    );
}

#[test]
fn embedding_store_survives_the_battery() {
    let bytes = tiny_store_bytes();
    battery("embedding store", &bytes, &[], no_seal, |b| {
        EmbeddingStore::from_bytes(b)
    });
    battery("embedding file", &bytes, &[], no_seal, |b| {
        read_embeddings(b)
    });
}

#[test]
fn event_log_records_survive_the_battery() {
    let mut record = Vec::new();
    put_event(
        &mut record,
        &Event {
            user: 3,
            field: 1,
            feature: 7,
            weight: 0.5,
            ts: 42,
        },
    );
    battery("event record", &record, &[], no_seal, decode_record);
}

#[test]
fn wire_frames_survive_the_battery() {
    let messages = [
        Message::EmbedRequest {
            req_id: 7,
            fields: vec![(vec![1, 99], vec![0.5, -2.0]), (vec![4], vec![1.0])],
        },
        Message::EmbedReply {
            req_id: 7,
            ckpt_id: 0xdead,
            embedding: vec![1.0, -0.25],
        },
        Message::ErrorReply {
            req_id: 9,
            code: error_code::BAD_REQUEST,
            msg: "nope".into(),
        },
        Message::ReloadReply {
            ok: true,
            changed: false,
            ckpt_id: 5,
            detail: "no-op".into(),
        },
        Message::NearestRequest {
            req_id: 11,
            k: 3,
            query: vec![0.25, -1.5],
        },
        Message::NearestReply {
            req_id: 11,
            index_id: 2,
            ids: vec![3, 9],
            scores: vec![-0.5, -1.25],
        },
        Message::InfoReply {
            n_fields: 2,
            latent_dim: 8,
            ckpt_id: 0xbeef,
            quantized: true,
        },
    ];
    for msg in &messages {
        battery("wire frame", &payload(msg), &[], no_seal, decode_message);
    }
}

// ---------------------------------------------------------------------------
// Hostile counts that used to panic
// ---------------------------------------------------------------------------

/// `[magic][version]` followed by `words`.
fn artifact(words: &[u64]) -> Vec<u8> {
    let mut bytes = Vec::new();
    fvae_sparse::serial::put_header(&mut bytes);
    for &w in words {
        bytes.put_u64(w);
    }
    bytes
}

#[test]
fn hostile_mlp_depth_is_a_typed_error() {
    let bytes = (u64::MAX / 2).to_le_bytes();
    let mut r = fvae_sparse::serial::Reader::new(&bytes);
    assert_eq!(
        fvae_nn::serialize::get_mlp(&mut r).err(),
        Some(DecodeError::Truncated)
    );
}

#[test]
fn hostile_dataset_field_count_is_a_typed_error() {
    let bytes = artifact(&[u64::MAX / 2, 0]);
    assert_eq!(
        MultiFieldDataset::from_bytes(&bytes[..]).err(),
        Some(DecodeError::Truncated)
    );
}

#[test]
fn hostile_embedding_dim_is_a_typed_error() {
    let bytes = artifact(&[1 << 62, 1]);
    assert_eq!(
        read_embeddings(&bytes[..]).err(),
        Some(DecodeError::Truncated)
    );
}

#[test]
fn hostile_optimizer_group_count_in_a_resealed_checkpoint_is_a_typed_error() {
    let mut bytes = tiny_checkpoint("fvae_hostile_optim");
    // Section table: `(tag u8, len u64)` entries from byte 7; payloads
    // follow the table in order. The OPTIM payload opens with `n_bags`.
    let n_sections = bytes[6] as usize;
    let mut at = 7 + n_sections * 9;
    for i in 0..n_sections {
        let entry = 7 + i * 9;
        if bytes[entry] == 2 {
            break;
        }
        at += u64::from_le_bytes(bytes[entry + 1..entry + 9].try_into().unwrap()) as usize;
    }
    bytes[at..at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    seal_crc(&mut bytes);
    match decode_snapshot(&bytes) {
        Err(SnapshotError::Decode(DecodeError::Truncated)) => {}
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("a hostile optimizer group count was accepted"),
    }
}
