//! The training stage: the paper's speed claim (Table V) and quality claim
//! (Table III) on the SC preset, through `Fvae::train_single_batch`.

use std::time::Instant;

use fvae_baselines::RepresentationModel;
use fvae_core::{Encoder, EncoderScratch, Fvae, FvaeConfig, InputRows, PhaseNs};
use fvae_data::{
    tag_prediction_cases, MultiFieldDataset, SplitIndices, TagEvalCase, TopicModelConfig,
};
use fvae_eval::tagpred::evaluate_tag_prediction;
use fvae_tensor::Matrix;

use crate::report::Record;

/// Users per optimizer step.
const BATCH: usize = 256;
/// Timed steps after the warm-up step. Fixed, so the model the stage hands
/// on, and its tag AUC, depend on the seed alone.
const STEPS: usize = 240;

/// Everything the stage needs before its clock starts.
pub struct TrainSetup {
    ds: MultiFieldDataset,
    train_users: Vec<usize>,
    cases: Vec<TagEvalCase>,
    tag_field: usize,
    channel_fields: Vec<usize>,
    model: Fvae,
}

/// Generates the SC dataset and a fresh model for `seed`.
pub fn setup(seed: u64) -> TrainSetup {
    let ds = TopicModelConfig {
        seed,
        ..TopicModelConfig::sc()
    }
    .generate();
    let split = SplitIndices::random(ds.n_users(), 0.1, 0.1, seed ^ 0x5911);
    let tag_field = ds
        .field_index("tag")
        .expect("the SC preset has a tag field");
    let channel_fields = (0..ds.n_fields()).filter(|&k| k != tag_field).collect();
    let cases = tag_prediction_cases(&ds, &split.test, tag_field, seed ^ 0xca5e);
    let cfg = FvaeConfig {
        batch_size: BATCH,
        seed,
        ..fvae_eval::models::fvae_config(&ds, 1)
    };
    let model = Fvae::new(cfg);
    TrainSetup {
        ds,
        train_users: split.train,
        cases,
        tag_field,
        channel_fields,
        model,
    }
}

/// Trains one warm-up step and [`STEPS`] timed steps, then scores held-out
/// tag prediction. Returns the trained model for the serving stages.
pub fn run(s: TrainSetup, rec: &mut Record) -> (Fvae, MultiFieldDataset) {
    let Record { e2e, layers, tally } = rec;
    let TrainSetup {
        ds,
        train_users,
        cases,
        tag_field,
        channel_fields,
        mut model,
    } = s;
    let n = train_users.len();
    let batches: Vec<Vec<usize>> = (0..=STEPS)
        .map(|s| {
            (0..BATCH)
                .map(|i| train_users[(s * BATCH + i) % n])
                .collect()
        })
        .collect();
    let mut opt = model.make_opt_states();
    let mut bad_loss = 0u64;
    let warm = model.train_single_batch(&ds, &batches[0], &mut opt);
    bad_loss += u64::from(!warm.loss().is_finite());

    let pool0 = fvae_pool::stats();
    let mut allocs_mid = 0;
    let mut step_ns = Vec::with_capacity(STEPS);
    let mut phase_ns = [0u64; PhaseNs::NAMES.len()];
    for (i, batch) in batches[1..].iter().enumerate() {
        if i == STEPS / 2 {
            allocs_mid = opt.scratch_allocs();
        }
        let t = Instant::now();
        let stats = model.train_single_batch(&ds, batch, &mut opt);
        step_ns.push(t.elapsed().as_nanos() as f64);
        bad_loss += u64::from(!stats.loss().is_finite());
        for (sum, (_, ns)) in phase_ns.iter_mut().zip(opt.last_phases().entries()) {
            *sum += ns;
        }
    }
    let pool1 = fvae_pool::stats();
    let allocs1 = opt.scratch_allocs();
    tally.ops(STEPS as u64 + 1, bad_loss);
    tally.check(
        "train.loss_finite",
        bad_loss == 0,
        format!("{bad_loss} steps with a non-finite loss"),
    );

    let scorer = Scorer {
        encoder: model.encoder(),
        model: &model,
    };
    let (auc, _map) = evaluate_tag_prediction(&scorer, &ds, &cases, &channel_fields, tag_field);
    tally.check(
        "train.tag_auc_finite",
        auc.is_finite(),
        format!("auc {auc}"),
    );

    // Users trained over the summed wall time of the timed steps. A mean,
    // not a median step: on a shared machine the step time drifts by ±15 %
    // between half-second spans of one run, and the mean over many spans
    // is the steadier number.
    let train_s = step_ns.iter().sum::<f64>() / 1e9;
    e2e.push(
        "users_per_s",
        "users/s",
        (STEPS * BATCH) as f64 / train_s,
        Some(STEPS),
    );
    e2e.push("tag_auc", "auc", auc, Some(cases.len()));

    let steps = STEPS as f64;
    let mean_step_ms = step_ns.iter().sum::<f64>() / steps / 1e6;
    layers.push("train.step_ms", "ms", mean_step_ms, Some(STEPS));
    for (name, ns) in PhaseNs::NAMES.iter().zip(phase_ns) {
        layers.push(
            &format!("train.{name}_ms"),
            "ms",
            ns as f64 / steps / 1e6,
            Some(STEPS),
        );
    }
    let phases_ms = phase_ns.iter().sum::<u64>() as f64 / steps / 1e6;
    layers.push(
        "train.coverage",
        "ratio",
        phases_ms / mean_step_ms,
        Some(STEPS),
    );
    // The scratch arenas grow while batch shapes are still new; the
    // zero-allocation contract is for a warmed trainer, so count the second
    // half of the timed steps only.
    let late_steps = (STEPS - STEPS / 2) as f64;
    layers.push(
        "train.scratch_allocs_per_step",
        "count",
        (allocs1 - allocs_mid) as f64 / late_steps,
        None,
    );
    layers.push(
        "train.pool_parallel_jobs_per_step",
        "count",
        (pool1.parallel_jobs - pool0.parallel_jobs) as f64 / steps,
        None,
    );
    layers.push(
        "train.pool_serial_jobs_per_step",
        "count",
        (pool1.serial_jobs - pool0.serial_jobs) as f64 / steps,
        None,
    );
    (model, ds)
}

/// The trained model as a [`RepresentationModel`], so held-out tag
/// prediction runs through the repository's own Table III protocol.
struct Scorer<'a> {
    encoder: Encoder,
    model: &'a Fvae,
}

impl RepresentationModel for Scorer<'_> {
    fn name(&self) -> &'static str {
        "FVAE"
    }

    fn fit(&mut self, _ds: &MultiFieldDataset, _users: &[usize]) {
        unreachable!("the benchmark scores an already trained model");
    }

    fn embed(
        &self,
        ds: &MultiFieldDataset,
        users: &[usize],
        input_fields: Option<&[usize]>,
    ) -> Matrix {
        let mut out = Matrix::default();
        let (mut input, mut scratch) = (InputRows::default(), EncoderScratch::default());
        self.encoder
            .embed_users_into(ds, users, input_fields, &mut input, &mut scratch, &mut out);
        out
    }

    fn score_field(
        &self,
        ds: &MultiFieldDataset,
        users: &[usize],
        input_fields: Option<&[usize]>,
        field: usize,
        candidates: &[u32],
    ) -> Matrix {
        let z = self.embed(ds, users, input_fields);
        let mut out = Matrix::zeros(users.len(), candidates.len());
        for r in 0..users.len() {
            out.row_mut(r).copy_from_slice(&self.model.field_logits_one(
                z.row(r),
                field,
                candidates,
            ));
        }
        out
    }
}
