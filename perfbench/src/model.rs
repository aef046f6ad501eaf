//! The model every workload runs: `NerConfig::default()` (char-CNN + word
//! embeddings → BiLSTM(48) → CRF), built and trained from the seed.

use crate::inputs::{self, Stream};
use crate::stats::{Clock, Took};
use ner_core::config::{CharRepr, EncoderKind, NerConfig, WordRepr};
use ner_core::prelude::*;
use ner_core::trainer::TrainerKind;
use serde_json::Value;
use std::path::{Path, PathBuf};

/// Epochs the served model is trained for before the serving and
/// annotation workloads start (not part of any measurement).
const MODEL_EPOCHS: usize = 4;

/// Vocabularies and an untrained model for `train`.
pub fn build(train: &Dataset, seed: u64) -> (SentenceEncoder, NerModel) {
    let cfg = NerConfig::default();
    let encoder = SentenceEncoder::from_dataset(train, cfg.scheme, 1);
    let model = NerModel::new(cfg, &encoder, None, &mut inputs::rng(seed, Stream::Model));
    (encoder, model)
}

pub fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch: 16,
        trainer: TrainerKind::Batched,
        patience: None,
        ..TrainConfig::default()
    }
}

/// The model the serving and annotation workloads run, trained on the
/// seed's clean news split, saved as a checkpoint under `dir`.
pub fn prepare_checkpoint(seed: u64, dir: &Path) -> Result<PathBuf, String> {
    let train = inputs::model_train(seed);
    let (encoder, mut model) = build(&train, seed);
    let encoded = encoder.encode_dataset(&train, None);
    ner_core::trainer::train(
        &mut model,
        &encoded,
        None,
        &train_config(MODEL_EPOCHS),
        &mut inputs::rng(seed, Stream::Model),
    );
    save(&NerPipeline::new(encoder, model), dir)
}

pub fn save(pipeline: &NerPipeline, dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join("model.json");
    Checkpoint::capture(pipeline).save(&path).map_err(|e| format!("save checkpoint: {e}"))?;
    Ok(path)
}

/// `Checkpoint::load` + restore (which compiles the plan), timed.
pub fn load(path: &Path) -> Result<(NerPipeline, Took), String> {
    let clock = Clock::start();
    let pipeline = Checkpoint::load(path)
        .and_then(Checkpoint::restore)
        .map_err(|e| format!("load {}: {e}", path.display()))?;
    Ok((pipeline, clock.took()))
}

/// The JSON body `/v1/extract` must answer for `text`: offline
/// `NerPipeline::extract`, in the server's field order.
pub fn extract_body(pipeline: &NerPipeline, text: &str) -> (String, Vec<EntitySpan>) {
    let s = pipeline.extract(text);
    let entities = s
        .entities
        .iter()
        .map(|e| {
            Value::Object(vec![
                ("start".into(), Value::Num(e.start as f64)),
                ("end".into(), Value::Num(e.end as f64)),
                ("label".into(), Value::Str(e.label.clone())),
            ])
        })
        .collect();
    let body = Value::Object(vec![
        (
            "tokens".into(),
            Value::Array(s.tokens.iter().map(|t| Value::Str(t.text.clone())).collect()),
        ),
        ("entities".into(), Value::Array(entities)),
        ("render".into(), Value::Str(s.render_brackets())),
    ]);
    (serde_json::to_string(&body).expect("body serializes"), s.entities)
}

/// Layer widths of the model, for the GEMM shapes it issues.
pub struct Dims {
    pub input: usize,
    pub hidden: usize,
    pub tags: usize,
}

pub fn dims(model: &NerModel) -> Dims {
    let word = match model.cfg.word {
        WordRepr::Random { dim } => dim,
        _ => panic!("the benchmark model uses random word embeddings"),
    };
    let chars = match model.cfg.char_repr {
        CharRepr::Cnn { filters, .. } => filters,
        _ => panic!("the benchmark model uses a char-CNN"),
    };
    let hidden = match model.cfg.encoder {
        EncoderKind::Lstm { hidden, .. } => hidden,
        _ => panic!("the benchmark model uses a BiLSTM"),
    };
    Dims { input: word + chars, hidden, tags: model.tag_set.len() }
}
