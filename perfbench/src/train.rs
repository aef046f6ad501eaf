//! `train-epoch`: `trainer::train` with the batched trainer (batch 16) on a
//! clean news split, with dev F1 every epoch.

use crate::inputs::{self, Stream};
use crate::model;
use crate::probe;
use crate::report::{Outcome, Row};
use crate::serve;
use crate::stats::{self, Clock};
use crate::trace::Tracer;
use crate::Args;
use ner_core::prelude::*;
use ner_core::repr::EncodedSentence;
use ner_core::trainer::{evaluate_model, train};
use ner_tensor::optim::{Adam, Optimizer};
use rand::seq::SliceRandom;
use std::path::Path;
use std::time::{Duration, Instant};

/// Epochs trained for a run of `seconds`: a fixed amount of work (so dev
/// F1 is deterministic for a seed) that takes about that long on a 2-core
/// x86-64 host (an epoch takes ~1.25 s there).
pub fn epochs_for(seconds: u64) -> usize {
    ((seconds as usize * 4).div_ceil(5)).max(2)
}

/// How many times set-up is repeated; `setup_s` is the median. Set-up is
/// ~50 ms here, so more repeats than the other workloads' keep it steady,
/// and they are split between before and after training so that they
/// sample the host across the run rather than within one second.
const SETUPS: usize = 21;

/// Epochs the loss-curve determinism check retrains.
const REPLAY_EPOCHS: usize = 2;

struct Data {
    encoder: SentenceEncoder,
    model: NerModel,
    train: Vec<EncodedSentence>,
    dev: Vec<EncodedSentence>,
}

fn set_up(train: &Dataset, dev: &Dataset, seed: u64) -> Data {
    let (encoder, model) = model::build(train, seed);
    let train = encoder.encode_dataset(train, None);
    let dev = encoder.encode_dataset(dev, None);
    Data { encoder, model, train, dev }
}

/// Sets up `n` times, adding each one's CPU seconds to `setups`, and
/// returns the last.
fn set_up_timed(
    n: usize,
    train: &Dataset,
    dev: &Dataset,
    seed: u64,
    setups: &mut Vec<f64>,
) -> Data {
    let mut data = None;
    for _ in 0..n {
        let clock = Clock::start();
        data = Some(set_up(train, dev, seed));
        setups.push(clock.took().cpu);
    }
    data.expect("at least one set-up")
}

pub fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let (train_ds, dev_ds) = inputs::train_splits(args.seed);
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let first = SETUPS.div_ceil(2);
    let Data { encoder, mut model, train: encs, dev } =
        set_up_timed(first, &train_ds, &dev_ds, args.seed, &mut setups);

    let epochs = epochs_for(args.seconds);
    let untraced = if args.trace { (epochs / 2).max(1) } else { epochs };
    let mut rng = inputs::rng(args.seed, Stream::Train);
    let clock = Clock::start();
    let report = train(&mut model, &encs, Some(&dev), &model::train_config(untraced), &mut rng);
    let took = clock.took();

    let epoch_tokens: u64 = encs.iter().map(|e| e.len() as u64).sum();
    let walls: Vec<f64> = report.epochs.iter().map(|e| e.wall_ms as f64).collect();
    let n = report.epochs.len() as u64;
    let untraced_tps = (n * epoch_tokens) as f64 / took.cpu;
    out.set_e2e("tokens_per_cpu_s", untraced_tps);
    out.set_layer("client.latency_p50_ms", stats::median(&walls));
    out.set_layer("client.latency_p99_ms", stats::quantile(&walls, 0.99));
    out.set_layer("client.tokens_per_s", (n * epoch_tokens) as f64 / took.wall);
    out.set_layer("client.requests_per_s", (n * encs.len() as u64) as f64 / took.wall);
    out.set_e2e("dev_f1", report.best_dev_f1.unwrap_or(f64::NAN));
    out.attempted = n * encs.len() as u64;
    out.failed = report.epochs.iter().map(|e| e.skipped_updates as u64).sum();
    out.set_e2e("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN));
    out.notes.push(format!(
        "{n} epochs of {} sentences ({epoch_tokens} tokens) in {:.2} s wall, {:.2} s CPU; epoch wall ms: {walls:?}",
        encs.len(),
        took.wall,
        took.cpu
    ));

    // Correctness, outside the timed region: finite losses, and the same
    // seed retrains to bit-identical loss values.
    if let Some(e) = report.epochs.iter().find(|e| !e.train_loss.is_finite()) {
        out.problem(format!("epoch {} loss is {}", e.epoch, e.train_loss));
    }
    let again_epochs = REPLAY_EPOCHS.min(untraced);
    let mut again = set_up_timed(SETUPS - first, &train_ds, &dev_ds, args.seed, &mut setups);
    out.set_e2e("setup_s", stats::median(&setups));
    let rerun = train(
        &mut again.model,
        &again.train,
        Some(&again.dev),
        &model::train_config(again_epochs),
        &mut inputs::rng(args.seed, Stream::Train),
    );
    for (a, b) in report.epochs.iter().zip(&rerun.epochs) {
        if a.train_loss.to_bits() != b.train_loss.to_bits() {
            out.problem(format!(
                "same-seed retraining diverged at epoch {}: loss {} then {}",
                a.epoch, a.train_loss, b.train_loss
            ));
            out.failed += encs.len() as u64;
        }
    }
    drop(again);
    out.set_e2e("ok_frac", 1.0 - out.failed as f64 / out.attempted.max(1) as f64);

    if args.trace {
        traced(
            &mut out,
            args,
            scratch,
            encoder,
            model,
            &encs,
            &dev,
            &dev_ds,
            epochs - untraced,
            untraced_tps,
        )?;
    }
    Ok(out)
}

/// Named layers of a training step, and the spans that hold them.
const LAYERS: [&str; 5] =
    ["train.forward", "train.backward", "train.scatter", "train.optimizer", "train.dev_eval"];
const GLUE: [(&str, &str); 4] = [
    ("train.bucket", "bucket glue (tape and buffer set-up, drop)"),
    ("train.buckets", "pool idle (dispatch, imbalance)"),
    ("train.step", "step glue"),
    ("train.epoch", "epoch glue (shuffle)"),
];

/// The traced segment: the remaining epochs replayed through the public
/// step calls, then probes for the layers training does not enter.
#[allow(clippy::too_many_arguments)]
fn traced(
    out: &mut Outcome,
    args: &Args,
    scratch: &Path,
    encoder: SentenceEncoder,
    mut model: NerModel,
    encs: &[EncodedSentence],
    dev: &[EncodedSentence],
    dev_ds: &Dataset,
    epochs: usize,
    untraced_tps: f64,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let mut opt = Adam::new(0.01);
    let mut rng = inputs::rng(args.seed, Stream::Replay);
    let mut order: Vec<usize> = (0..encs.len()).collect();
    let mut steps = probe::Steps::default();
    let segment = Clock::start();
    for epoch in 0..epochs {
        tracer.enter("train.epoch");
        order.shuffle(&mut rng);
        opt.set_learning_rate(0.01 / (1.0 + 0.05 * epoch as f32));
        let st = probe::replay_train(
            &mut model,
            encs,
            &order,
            &mut opt,
            args.seed ^ epoch as u64,
            &mut tracer,
        );
        steps.tokens += st.tokens;
        steps.sentences += st.sentences;
        steps.steps += st.steps;
        steps.skipped += st.skipped;
        tracer.time("train.dev_eval", |_| evaluate_model(&model, dev));
        tracer.exit();
    }
    let took = segment.took();
    let wall = took.wall;
    out.set_overhead(untraced_tps, steps.tokens as f64 / took.cpu);
    let spans = tracer.self_times();
    probe::train_layers(out, &steps, &spans);
    let sample = &encs[..encs.len().min(256)];
    let crf = probe::crf_nll_per_token(sample, model.tag_set.len(), args.seed);
    probe::crf_layers(out, crf, &steps, &spans);
    let toks_per_sentence = steps.tokens as f64 / steps.sentences.max(1) as f64;
    probe::kernel_layers(out, &model, probe::TRAIN_BATCH as f64, toks_per_sentence, args.seed);

    let mut rows: Vec<Row> = LAYERS
        .iter()
        .map(|&n| Row {
            layer: n,
            value: probe::self_time(&spans, n).0,
            share: 0.0,
            source: "span self time",
        })
        .collect();
    let named: f64 = rows.iter().map(|r| r.value).sum();
    for (n, what) in GLUE {
        rows.push(Row { layer: n, value: probe::self_time(&spans, n).0, share: 0.0, source: what });
    }
    let crf_wall = crf * steps.tokens as f64 / ner_par::global_threads() as f64;
    for r in &mut rows {
        r.share = r.value / wall;
    }
    rows.push(Row {
        layer: "  of which decoder.crf_nll",
        value: crf_wall,
        share: crf_wall / wall,
        source: "CRF NLL probe, inside forward+backward",
    });
    out.table = rows;
    out.table_basis = format!("seconds of the {wall:.2} s traced segment ({epochs} epochs)");
    out.set_layer("trace.residual_frac", 1.0 - named / wall);

    // Inference and serving layers, on the trained model and dev texts.
    let pipeline = NerPipeline::new(encoder, model);
    let texts = inputs::labeled_dataset(dev_ds);
    let mut infer = Tracer::new();
    let cache0 = pipeline.plan().token_cache_stats();
    let r = probe::replay_extract(
        &pipeline,
        &texts,
        &mut 0,
        Instant::now() + Duration::from_secs(1),
        usize::MAX,
        false,
        &mut infer,
    );
    let cache1 = pipeline.plan().token_cache_stats();
    probe::replay_layers(out, &r, &infer.self_times(), (cache1.0 - cache0.0, cache1.1 - cache0.1));
    let ckpt = model::save(&pipeline, scratch)?;
    let (_, load) = model::load(&ckpt)?;
    out.set_layer("persist.load_s", load.wall);
    serve::serving_probe(out, &ckpt, &texts, 1.0)?;
    if let Err(e) = tracer.write(&crate::trace_path(args), 200_000) {
        out.notes.push(format!("trace spans not written: {e}"));
    }
    Ok(())
}
