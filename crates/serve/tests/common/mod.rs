//! Shared fixtures for the serve integration tests: a tiny deterministic
//! dataset, a quickly-trained model, and raw wire-format rows.
#![allow(dead_code)]

use fvae_core::{Fvae, FvaeConfig};
use fvae_data::{FieldSpec, MultiFieldDataset, TopicModelConfig};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fvae_serve::{BatchPhase, BatchProbe, FieldRow};

/// Two-field synthetic dataset, fully determined by `seed`.
pub fn tiny_dataset(seed: u64) -> MultiFieldDataset {
    TopicModelConfig {
        n_users: 60,
        n_topics: 3,
        alpha: 0.2,
        fields: vec![
            FieldSpec::new("ch", 12, 3, 1.0),
            FieldSpec::new("tag", 40, 5, 1.0),
        ],
        pair_prob: 0.0,
        seed,
    }
    .generate()
}

/// Small FVAE trained `epochs` epochs on the full dataset.
pub fn trained_model(ds: &MultiFieldDataset, epochs: usize) -> Fvae {
    let mut cfg = FvaeConfig::for_dataset(ds);
    cfg.latent_dim = 8;
    cfg.enc_hidden = 16;
    cfg.enc_extra_hidden = vec![12];
    cfg.dec_hidden = vec![16];
    cfg.batch_size = 16;
    let mut model = Fvae::new(cfg);
    let users: Vec<usize> = (0..ds.n_users()).collect();
    model.train_epochs(ds, &users, epochs, |_, _| {});
    model
}

/// One user's raw per-field rows exactly as a client would send them
/// (unnormalized — the server applies the offline L2 normalization).
pub fn raw_rows(ds: &MultiFieldDataset, user: usize, n_fields: usize) -> Vec<FieldRow> {
    (0..n_fields)
        .map(|k| {
            let (ix, vs) = ds.user_field(user, k);
            (ix.iter().map(|&i| u64::from(i)).collect(), vs.to_vec())
        })
        .collect()
}

/// Holds the server's batch thread at the `Start` of its next batch once
/// armed, until [`BatchGate::open`]. While it holds, admitted requests pile
/// up on the queue behind it, so a test can build an exact backlog (or a
/// full queue) whatever the machine's speed.
#[derive(Default)]
pub struct BatchGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum GateState {
    #[default]
    Open,
    Armed,
    Holding,
}

impl BatchGate {
    /// A gate that holds the first batch the server forms.
    pub fn armed() -> Arc<Self> {
        let gate = Arc::new(Self::default());
        gate.arm();
        gate
    }

    /// Holds the next batch the server forms.
    pub fn arm(&self) {
        *self.state.lock().unwrap() = GateState::Armed;
    }

    /// Releases a held (or armed) batch.
    pub fn open(&self) {
        *self.state.lock().unwrap() = GateState::Open;
        self.cv.notify_all();
    }

    /// Whether the batch thread is parked in the gate.
    pub fn holding(&self) -> bool {
        *self.state.lock().unwrap() == GateState::Holding
    }

    /// Call on the batch thread at [`BatchPhase::Start`]: parks there while
    /// the gate is armed, until [`BatchGate::open`]. A test that panics
    /// before opening still shuts down: the hold gives up after a minute.
    pub fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        if *state == GateState::Armed {
            *state = GateState::Holding;
            let (mut state, _) = self
                .cv
                .wait_timeout_while(state, Duration::from_secs(60), |s| *s == GateState::Holding)
                .unwrap();
            *state = GateState::Open;
        }
    }

    /// A probe that only runs the gate.
    pub fn probe(self: &Arc<Self>) -> BatchProbe {
        let gate = Arc::clone(self);
        Box::new(move |phase, _| {
            if phase == BatchPhase::Start {
                gate.pass();
            }
        })
    }
}

/// Polls `cond` until it holds; panics (naming `what`) after 30 s.
pub fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The value of an unlabeled metric in a Prometheus render.
pub fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{text}"))
}
