//! Model save/load: the hand-off between the offline training module and
//! the online serving module in the paper's deployment diagram (Fig. 2).
//!
//! Format: the workspace-wide header (`fvae-sparse::serial`), the full
//! configuration, then every parameter group. Loading restores a model that
//! produces bit-identical embeddings and can resume training (dynamic
//! tables keep growing; optimizer moments restart).

use fvae_nn::serialize::{
    get_dense, get_embedding_bag, get_mlp, get_softmax_head, put_dense, put_embedding_bag,
    put_mlp, put_softmax_head, MIN_EMBEDDING_BAG_BYTES, MIN_SOFTMAX_HEAD_BYTES,
};
use fvae_sparse::serial::{put_f32_slice, put_header, DecodeError, Put, Reader, MAGIC, VERSION};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{FvaeConfig, SamplingConfig};
use crate::model::Fvae;
use crate::sampling::SamplingStrategy;

fn strategy_tag(s: SamplingStrategy) -> u8 {
    match s {
        SamplingStrategy::Uniform => 0,
        SamplingStrategy::Frequency => 1,
        SamplingStrategy::Zipfian => 2,
    }
}

fn strategy_from_tag(tag: u8) -> Result<SamplingStrategy, DecodeError> {
    Ok(match tag {
        0 => SamplingStrategy::Uniform,
        1 => SamplingStrategy::Frequency,
        2 => SamplingStrategy::Zipfian,
        other => {
            return Err(DecodeError::Invalid(format!("unknown sampling strategy {other}")))
        }
    })
}

fn put_config(buf: &mut Vec<u8>, cfg: &FvaeConfig) {
    buf.put_u64(cfg.n_fields as u64);
    buf.put_u64(cfg.latent_dim as u64);
    buf.put_u64(cfg.enc_hidden as u64);
    buf.put_u64(cfg.enc_extra_hidden.len() as u64);
    for &d in &cfg.enc_extra_hidden {
        buf.put_u64(d as u64);
    }
    buf.put_u64(cfg.dec_hidden.len() as u64);
    for &d in &cfg.dec_hidden {
        buf.put_u64(d as u64);
    }
    put_f32_slice(buf, &cfg.alpha);
    buf.put_f32(cfg.beta_cap);
    buf.put_f32(cfg.user_beta_gamma);
    buf.put_u64(cfg.anneal_steps);
    buf.put_f32(cfg.dropout);
    buf.put_f32(cfg.field_dropout);
    buf.put_f32(cfg.lr);
    buf.put_u64(cfg.batch_size as u64);
    buf.put_u64(cfg.epochs as u64);
    buf.put_u8(strategy_tag(cfg.sampling.strategy));
    buf.put_f64(cfg.sampling.rate);
    buf.put_f64(cfg.sampling.negative_pad);
    buf.put_u64(cfg.sampling.sampled_fields.len() as u64);
    for &flag in &cfg.sampling.sampled_fields {
        buf.put_u8(flag as u8);
    }
    buf.put_f32(cfg.init_std);
    buf.put_f32(cfg.clip_norm);
    buf.put_u64(cfg.seed);
}

fn get_widths(r: &mut Reader<'_>) -> Result<Vec<usize>, DecodeError> {
    Ok(r.u64_vec()?.into_iter().map(|d| d as usize).collect())
}

fn get_config(r: &mut Reader<'_>) -> Result<FvaeConfig, DecodeError> {
    let n_fields = r.u64()? as usize;
    let latent_dim = r.u64()? as usize;
    let enc_hidden = r.u64()? as usize;
    let enc_extra_hidden = get_widths(r)?;
    let dec_hidden = get_widths(r)?;
    let alpha = r.f32_vec()?;
    let beta_cap = r.f32()?;
    let user_beta_gamma = r.f32()?;
    let anneal_steps = r.u64()?;
    let dropout = r.f32()?;
    let field_dropout = r.f32()?;
    let lr = r.f32()?;
    let batch_size = r.u64()? as usize;
    let epochs = r.u64()? as usize;
    let strategy = strategy_from_tag(r.u8()?)?;
    let rate = r.f64()?;
    let negative_pad = r.f64()?;
    let n_flags = r.count(1)?;
    let sampled_fields = r.bytes(n_flags)?.iter().map(|&flag| flag != 0).collect();
    let init_std = r.f32()?;
    let clip_norm = r.f32()?;
    let seed = r.u64()?;
    let cfg = FvaeConfig {
        n_fields,
        latent_dim,
        enc_hidden,
        enc_extra_hidden,
        dec_hidden,
        alpha,
        beta_cap,
        user_beta_gamma,
        anneal_steps,
        dropout,
        field_dropout,
        lr,
        batch_size,
        epochs,
        sampling: SamplingConfig { strategy, rate, sampled_fields, negative_pad },
        init_std,
        clip_norm,
        seed,
    };
    cfg.validate().map_err(DecodeError::Invalid)?;
    Ok(cfg)
}

impl Fvae {
    /// Serializes the model (configuration + all parameters + step count).
    pub fn to_bytes(&self) -> Box<[u8]> {
        let mut buf = Vec::new();
        self.write_to(&mut buf);
        buf.into_boxed_slice()
    }

    /// Appends the [`Fvae::to_bytes`] encoding to `buf`.
    pub(crate) fn write_to(&self, buf: &mut Vec<u8>) {
        put_header(buf);
        put_config(buf, &self.cfg);
        buf.put_u64(self.step);
        for bag in &self.bags {
            put_embedding_bag(buf, bag);
        }
        put_f32_slice(buf, &self.enc_bias);
        buf.put_u8(self.enc_extra.is_some() as u8);
        if let Some(mlp) = &self.enc_extra {
            put_mlp(buf, mlp);
        }
        put_dense(buf, &self.enc_head);
        put_mlp(buf, &self.trunk);
        for head in &self.heads {
            put_softmax_head(buf, head);
        }
    }

    /// Deserializes a model written by [`Fvae::to_bytes`].
    pub fn from_bytes(bytes: impl AsRef<[u8]>) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes.as_ref());
        r.header(MAGIC, VERSION)?;
        let cfg = get_config(&mut r)?;
        let step = r.u64()?;
        r.fits(cfg.n_fields, MIN_EMBEDDING_BAG_BYTES + MIN_SOFTMAX_HEAD_BYTES)?;
        let mut bags = Vec::with_capacity(cfg.n_fields);
        for _ in 0..cfg.n_fields {
            bags.push(get_embedding_bag(&mut r, cfg.init_std)?);
        }
        let enc_bias = r.f32_vec()?;
        if enc_bias.len() != cfg.enc_hidden {
            return Err(DecodeError::Invalid("encoder bias width mismatch".into()));
        }
        let has_extra = r.u8()? != 0;
        let enc_extra = if has_extra { Some(get_mlp(&mut r)?) } else { None };
        let enc_head = get_dense(&mut r)?;
        let trunk = get_mlp(&mut r)?;
        let mut heads = Vec::with_capacity(cfg.n_fields);
        for _ in 0..cfg.n_fields {
            heads.push(get_softmax_head(&mut r, cfg.init_std)?);
        }
        r.finish()?;
        let rng = StdRng::seed_from_u64(cfg.seed ^ step.wrapping_mul(0x9e37_79b9));
        Ok(Self { cfg, bags, enc_bias, enc_extra, enc_head, trunk, heads, rng, step })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvae_data::{FieldSpec, TopicModelConfig};

    fn trained_model() -> (fvae_data::MultiFieldDataset, Fvae) {
        let ds = TopicModelConfig {
            n_users: 120,
            n_topics: 3,
            alpha: 0.15,
            fields: vec![
                FieldSpec::new("ch1", 12, 3, 1.0),
                FieldSpec::new("tag", 48, 5, 1.0),
            ],
            pair_prob: 0.2,
            seed: 9,
        }
        .generate();
        let mut cfg = FvaeConfig::for_dataset(&ds);
        cfg.latent_dim = 8;
        cfg.enc_hidden = 16;
        cfg.dec_hidden = vec![16];
        cfg.batch_size = 32;
        let mut model = Fvae::new(cfg);
        let users: Vec<usize> = (0..ds.n_users()).collect();
        model.train_epochs(&ds, &users, 2, |_, _| {});
        (ds, model)
    }

    #[test]
    fn roundtrip_preserves_embeddings_exactly() {
        let (ds, model) = trained_model();
        let bytes = model.to_bytes();
        let restored = Fvae::from_bytes(bytes).expect("decode");
        let users: Vec<usize> = (0..20).collect();
        let before = model.embed_users(&ds, &users, None);
        let after = restored.embed_users(&ds, &users, None);
        assert_eq!(before, after, "embeddings must be bit-identical after reload");
    }

    #[test]
    fn roundtrip_preserves_field_scores() {
        let (ds, model) = trained_model();
        let restored = Fvae::from_bytes(model.to_bytes()).expect("decode");
        let z = model.embed_users(&ds, &[3], None);
        let cands: Vec<u32> = (0..48).collect();
        assert_eq!(
            model.field_logits_one(z.row(0), 1, &cands),
            restored.field_logits_one(z.row(0), 1, &cands)
        );
    }

    #[test]
    fn restored_model_can_resume_training() {
        let (ds, model) = trained_model();
        let mut restored = Fvae::from_bytes(model.to_bytes()).expect("decode");
        let users: Vec<usize> = (0..ds.n_users()).collect();
        restored.train_epochs(&ds, &users, 1, |_, s| {
            assert!(s.recon.is_finite());
        });
        let emb = restored.embed_users(&ds, &users[..5], None);
        assert!(emb.is_finite());
    }

    #[test]
    fn truncation_and_corruption_are_rejected() {
        let (_, model) = trained_model();
        let bytes = model.to_bytes();
        let cut = &bytes[..bytes.len() - 7];
        assert!(Fvae::from_bytes(cut).is_err());
        let cut_early = &bytes[..10];
        assert!(Fvae::from_bytes(cut_early).is_err());
    }
}
