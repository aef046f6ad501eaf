//! Layer measurements made from outside the crates: each replays the
//! public calls one layer is entered through, on the workload's own
//! inputs, inside spans.

use crate::inputs::Labeled;
use crate::model;
use crate::report::Outcome;
use crate::trace::Tracer;
use ner_core::decoder::Crf;
use ner_core::plan::BatchedPlan;
use ner_core::prelude::*;
use ner_core::repr::EncodedSentence;
use ner_tensor::optim::{Adam, Optimizer};
use ner_tensor::{kernels, GradBuffer, ParamStore, Tape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::{Duration, Instant};

/// Sentences per `extract_batch` call on `annotate-bulk`, and per replayed
/// call everywhere.
pub const CALL_BATCH: usize = 32;
/// Sentences per packed training bucket.
pub const TRAIN_BATCH: usize = 16;
/// Global-norm gradient clip, as `TrainConfig::default()`.
const CLIP: f32 = 5.0;

/// Self time per span name: wall-equivalent seconds, busy seconds, count.
pub fn self_time(spans: &[(&'static str, f64, f64, u64)], name: &str) -> (f64, f64) {
    spans.iter().find(|s| s.0 == name).map_or((0.0, 0.0), |s| (s.1, s.2))
}

/// The sentence with its gold spans, tokenized as the program tokenizes.
pub fn sentence(l: &Labeled) -> Sentence {
    let mut s = Sentence::unlabeled(&ner_text::tokenize::tokenize(&l.text));
    s.entities = l.gold.clone();
    s
}

/// What a replay of `extract_batch` did.
#[derive(Default)]
pub struct Replay {
    pub tokens: u64,
    /// Per call: start, milliseconds, tokens.
    pub calls: Vec<(Instant, f64, u64)>,
    pub buckets: u64,
    pub bucket_rows: u64,
    pub outputs: Vec<(usize, Vec<EntitySpan>)>,
}

/// Replays `NerPipeline::extract_batch` through its public steps —
/// `tokenize`, `SentenceEncoder::encode`, `BatchedPlan::buckets`, and one
/// `NerModel::predict_spans_batch` per bucket, fanned out over the global
/// pool exactly as `extract_batch` does — for calls of [`CALL_BATCH`]
/// texts taken cyclically from `texts` starting at `*next`, until `until`
/// or `max_calls`. With `keep`, outputs are returned by text index.
pub fn replay_extract(
    p: &NerPipeline,
    texts: &[Labeled],
    next: &mut usize,
    until: Instant,
    max_calls: usize,
    keep: bool,
    tracer: &mut Tracer,
) -> Replay {
    let pool = ner_par::global();
    let plan = BatchedPlan::new(p.plan());
    let mut r = Replay::default();
    let mut calls = 0;
    while calls < max_calls && Instant::now() < until {
        calls += 1;
        let idx: Vec<usize> = (0..CALL_BATCH).map(|k| (*next + k) % texts.len()).collect();
        *next = (*next + CALL_BATCH) % texts.len();
        let t0 = Instant::now();
        tracer.enter("annotate.call");
        let mut encs: Vec<EncodedSentence> = Vec::with_capacity(idx.len());
        for &i in &idx {
            let toks =
                tracer.time("text.tokenize", |_| ner_text::tokenize::tokenize(&texts[i].text));
            let s = Sentence::unlabeled(&toks);
            encs.push(tracer.time("repr.featurize", |_| p.encoder.encode(&s)));
        }
        let lens: Vec<usize> = encs.iter().map(|e| e.len()).collect();
        let buckets = tracer.time("plan.buckets", |_| plan.buckets(&lens, pool.threads()));
        tracer.enter("score");
        tracer.mark_parallel();
        let forker = tracer.fork();
        let score = |b: usize| {
            let mut t = forker.fork();
            let members: Vec<&EncodedSentence> = buckets[b].iter().map(|&i| &encs[i]).collect();
            let id = t.enter("model.bucket");
            let start = Instant::now();
            let (spans, st) = p.model.predict_spans_batch(p.plan(), &members);
            t.record_stages(
                id,
                start,
                &[
                    ("repr.embed", st.embed_us),
                    ("encoder.encode", st.encode_us),
                    ("decoder.decode", st.decode_us),
                ],
            );
            t.exit();
            (spans, t)
        };
        let scored: Vec<_> = if pool.threads() > 1 && buckets.len() > 1 {
            pool.map(buckets.len(), score)
        } else {
            (0..buckets.len()).map(score).collect()
        };
        let mut results: Vec<Vec<EntitySpan>> = vec![Vec::new(); idx.len()];
        for (bucket, (spans, t)) in buckets.iter().zip(scored) {
            tracer.adopt(t);
            r.buckets += 1;
            r.bucket_rows += bucket.len() as u64;
            for (&i, s) in bucket.iter().zip(spans) {
                results[i] = s;
            }
        }
        tracer.exit();
        tracer.exit();
        let tokens = lens.iter().sum::<usize>() as u64;
        r.calls.push((t0, t0.elapsed().as_secs_f64() * 1e3, tokens));
        r.tokens += tokens;
        if keep {
            r.outputs.extend(idx.into_iter().zip(results));
        }
    }
    r
}

/// The inference-layer metrics of a traced [`replay_extract`].
pub fn replay_layers(
    out: &mut Outcome,
    r: &Replay,
    spans: &[(&'static str, f64, f64, u64)],
    cache: (u64, u64),
) {
    let per_tok = |name: &str| self_time(spans, name).0 * 1e6 / r.tokens.max(1) as f64;
    out.set_layer("text.tokenize_us_per_token", per_tok("text.tokenize"));
    out.set_layer("repr.featurize_us_per_token", per_tok("repr.featurize"));
    out.set_layer("repr.embed_us_per_token", per_tok("repr.embed"));
    out.set_layer("encoder.encode_us_per_token", per_tok("encoder.encode"));
    out.set_layer("decoder.decode_us_per_token", per_tok("decoder.decode"));
    out.set_layer("plan.rows_per_bucket", r.bucket_rows as f64 / r.buckets.max(1) as f64);
    let (hits, misses) = cache;
    out.set_layer("repr.token_cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
}

/// What a replay of training steps did.
#[derive(Default)]
pub struct Steps {
    pub tokens: u64,
    pub sentences: u64,
    pub steps: u64,
    pub skipped: u64,
}

/// Replays one pass of the bucketed trainer over `order` through its
/// public step calls: per chunk of `threads × TRAIN_BATCH` sentences,
/// `NerModel::loss_batch` and `Tape::backward_into_segmented` per bucket
/// on the global pool, then `GradBuffer::apply_to` per sentence and
/// `ParamStore::clip_grad_norm` + `Optimizer::step` on this thread.
/// Dropout masks come from seeded per-sentence streams.
pub fn replay_train(
    m: &mut NerModel,
    encs: &[EncodedSentence],
    order: &[usize],
    opt: &mut dyn Optimizer,
    seed: u64,
    tracer: &mut Tracer,
) -> Steps {
    let pool = ner_par::global();
    let workers = pool.threads().max(1);
    let mut st = Steps::default();
    for (ci, chunk) in order.chunks(workers * TRAIN_BATCH).enumerate() {
        tracer.enter("train.step");
        let buckets: Vec<&[usize]> = chunk.chunks(TRAIN_BATCH).collect();
        tracer.enter("train.buckets");
        tracer.mark_parallel();
        let forker = tracer.fork();
        let model: &NerModel = m;
        let results = pool.map(buckets.len(), |b| {
            let mut t = forker.fork();
            let ids = buckets[b];
            let members: Vec<&EncodedSentence> = ids.iter().map(|&i| &encs[i]).collect();
            let mut rngs: Vec<StdRng> = ids
                .iter()
                .map(|&i| StdRng::seed_from_u64(seed ^ ((ci as u64) << 32) ^ i as u64))
                .collect();
            let mut streams: Vec<&mut dyn RngCore> =
                rngs.iter_mut().map(|r| r as &mut dyn RngCore).collect();
            let mut tape = Tape::new();
            t.enter("train.bucket");
            let (total, losses) =
                t.time("train.forward", |_| model.loss_batch(&mut tape, &members, &mut streams));
            let finite = losses.iter().all(|l| l.is_finite());
            let mut buffers: Vec<GradBuffer> = Vec::new();
            if finite {
                buffers = (0..members.len()).map(|_| GradBuffer::new(model.store.len())).collect();
                t.time("train.backward", |_| tape.backward_into_segmented(total, &mut buffers));
            }
            drop(tape);
            t.exit();
            (buffers, finite, members.len(), t)
        });
        let mut grads = Vec::new();
        for (buffers, finite, n, t) in results {
            tracer.adopt(t);
            if finite {
                grads.extend(buffers);
            } else {
                st.skipped += n as u64;
            }
        }
        tracer.exit();
        let contributed = grads.len() as u64;
        tracer.time("train.scatter", |_| {
            for g in grads {
                g.apply_to(&mut m.store);
            }
        });
        tracer.time("train.optimizer", |_| {
            if contributed > 0 {
                let norm = m.store.clip_grad_norm(CLIP);
                if norm.is_finite() {
                    opt.step(&mut m.store);
                } else {
                    st.skipped += contributed;
                    m.store.zero_grad();
                }
            }
        });
        tracer.exit();
        st.steps += 1;
        st.sentences += chunk.len() as u64;
        st.tokens += chunk.iter().map(|&i| encs[i].len() as u64).sum::<u64>();
    }
    st
}

/// `Crf::nll` + backward on emissions of the given sentences' shapes (their
/// lengths and gold tags, random scores). Returns busy seconds per token.
pub fn crf_nll_per_token(encs: &[EncodedSentence], tags: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let crf = Crf::new(&mut store, &mut rng, "probe.crf", tags);
    let emissions: Vec<Tensor> = encs
        .iter()
        .map(|e| {
            Tensor::from_vec(
                e.len(),
                tags,
                (0..e.len() * tags).map(|_| rng.gen_range(-2.0..2.0)).collect(),
            )
        })
        .collect();
    let mut busy = 0.0;
    let mut tokens = 0usize;
    let deadline = Instant::now() + Duration::from_millis(300);
    while Instant::now() < deadline {
        for (e, em) in encs.iter().zip(&emissions) {
            let t = Instant::now();
            let mut tape = Tape::new();
            let x = tape.constant(em.clone());
            let nll = crf.nll(&mut tape, &store, x, &e.tag_ids);
            let mut g = GradBuffer::new(store.len());
            tape.backward_into(nll, &mut g);
            std::hint::black_box(&g);
            busy += t.elapsed().as_secs_f64();
            tokens += e.len();
        }
    }
    busy / tokens.max(1) as f64
}

/// GFLOP/s of `kernels::matmul`, `matmul_nt` and `matmul_tn` at the shapes
/// the model issues for buckets of `rows` sentences and `toks` tokens:
/// the BiLSTM input projection, one recurrent step and the emission
/// projection, forward (NN) and in backward (NT for input gradients, TN
/// for weight gradients). Operations are 2·m·k·n, computed from shapes.
pub fn gemm_gflops(d: &model::Dims, rows: usize, toks: usize, seed: u64) -> [f64; 3] {
    let (i, h, g, o, k) = (d.input, d.hidden, 4 * d.hidden, 2 * d.hidden, d.tags);
    let mut rng = StdRng::seed_from_u64(seed);
    // (m, k, n) of out[m,n] for each kind.
    let nn = [(toks, i, g), (rows, h, g), (toks, o, k)];
    let nt = [(toks, g, i), (rows, g, h), (toks, k, o)];
    let tn = [(i, toks, g), (h, rows, g), (o, toks, k)];
    let mut res = [0.0; 3];
    for (kind, shapes) in [nn, nt, tn].iter().enumerate() {
        let (mut flops, mut secs) = (0.0, 0.0);
        for &(m, kk, n) in shapes {
            let a: Vec<f32> = (0..m * kk).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..kk * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut c = vec![0.0f32; m * n];
            let deadline = Instant::now() + Duration::from_millis(40);
            while Instant::now() < deadline {
                c.fill(0.0);
                let t = Instant::now();
                match kind {
                    0 => kernels::matmul(&a, &b, &mut c, m, kk, n),
                    // a [m,k] × b[n,k]ᵀ
                    1 => kernels::matmul_nt(&a, &b, &mut c, m, kk, n),
                    // a[k,m]ᵀ × b[k,n]
                    _ => kernels::matmul_tn(&a, &b, &mut c, kk, m, n),
                }
                secs += t.elapsed().as_secs_f64();
                std::hint::black_box(&c);
                flops += 2.0 * (m * kk * n) as f64;
            }
        }
        res[kind] = flops / secs / 1e9;
    }
    res
}

/// Training and kernel layers measured on a workload whose own loop does
/// not train: a training-step replay over (up to) 256 of its sentences
/// on a copy of `p`'s model, the CRF NLL probe on their shapes, and the
/// GEMM probe at its bucket shapes.
pub fn model_layers(
    out: &mut Outcome,
    p: &NerPipeline,
    texts: &[Labeled],
    rows_per_bucket: f64,
    seed: u64,
) -> Result<(), String> {
    let n = texts.len().min(256);
    let encs: Vec<EncodedSentence> =
        texts[..n].iter().map(|l| p.encoder.encode(&sentence(l))).collect();
    let mut copy = Checkpoint::capture(p).restore().map_err(|e| format!("copy model: {e}"))?;
    let mut opt = Adam::new(0.01);
    let mut tracer = Tracer::new();
    let order: Vec<usize> = (0..n).collect();
    let st = replay_train(&mut copy.model, &encs, &order, &mut opt, seed, &mut tracer);
    let spans = tracer.self_times();
    train_layers(out, &st, &spans);
    let crf = crf_nll_per_token(&encs, copy.model.tag_set.len(), seed);
    crf_layers(out, crf, &st, &spans);
    let toks_per_sentence = encs.iter().map(|e| e.len()).sum::<usize>() as f64 / n.max(1) as f64;
    kernel_layers(out, &copy.model, rows_per_bucket, toks_per_sentence, seed);
    Ok(())
}

pub fn train_layers(out: &mut Outcome, st: &Steps, spans: &[(&'static str, f64, f64, u64)]) {
    let per_tok = |name: &str| self_time(spans, name).0 * 1e6 / st.tokens.max(1) as f64;
    out.set_layer("train.forward_us_per_token", per_tok("train.forward"));
    out.set_layer("train.backward_us_per_token", per_tok("train.backward"));
    out.set_layer("train.scatter_us_per_token", per_tok("train.scatter"));
    out.set_layer(
        "train.optimizer_us_per_step",
        self_time(spans, "train.optimizer").0 * 1e6 / st.steps.max(1) as f64,
    );
    out.set_layer("train.skipped_updates", st.skipped as f64);
}

/// The CRF NLL metrics; its share is against the busy time of the traced
/// training steps (forward and backward run on the pool's workers).
pub fn crf_layers(
    out: &mut Outcome,
    crf_s_per_token: f64,
    st: &Steps,
    spans: &[(&'static str, f64, f64, u64)],
) {
    out.set_layer("decoder.crf_nll_us_per_token", crf_s_per_token * 1e6);
    let busy: f64 =
        ["train.forward", "train.backward", "train.bucket", "train.scatter", "train.optimizer"]
            .iter()
            .map(|n| self_time(spans, n).1)
            .sum();
    out.set_layer("decoder.crf_nll_share", crf_s_per_token * st.tokens as f64 / busy.max(1e-12));
}

pub fn kernel_layers(
    out: &mut Outcome,
    m: &NerModel,
    rows: f64,
    toks_per_sentence: f64,
    seed: u64,
) {
    let rows = rows.round().max(1.0) as usize;
    let toks = (rows as f64 * toks_per_sentence).round().max(1.0) as usize;
    let [nn, nt, tn] = gemm_gflops(&model::dims(m), rows, toks, seed);
    out.set_layer("tensor.gemm_gflops.nn", nn);
    out.set_layer("tensor.gemm_gflops.nt", nt);
    out.set_layer("tensor.gemm_gflops.tn", tn);
    out.notes.push(format!(
        "GEMM rates count 2*m*k*n operations computed from the shapes (buckets of {rows} rows, {toks} tokens), not hardware counters"
    ));
}
