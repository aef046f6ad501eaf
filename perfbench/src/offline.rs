//! `annotate-bulk`: offline `NerPipeline::extract_batch` — the
//! `neural-ner tag` path — over noisy text, with no HTTP.

use crate::inputs::{self, Labeled};
use crate::model;
use crate::probe::{self, CALL_BATCH};
use crate::report::{Outcome, Row};
use crate::serve;
use crate::stats::{self, Clock};
use crate::trace::Tracer;
use crate::Args;
use ner_core::prelude::*;
use std::path::Path;
use std::time::{Duration, Instant};

/// Corpus sentences `dev_f1` is computed over (the loop starts at the
/// first and reaches these within a second).
const F1_SENTENCES: usize = 4096;

/// Layers of an `extract_batch` call, in the order they run.
pub const LAYERS: [&str; 6] = [
    "text.tokenize",
    "repr.featurize",
    "plan.buckets",
    "repr.embed",
    "encoder.encode",
    "decoder.decode",
];
/// Spans that hold layers: the call, its parallel scoring section, one
/// packed bucket.
const GLUE: [(&str, &str); 3] = [
    ("annotate.call", "call glue (result assembly)"),
    ("score", "pool idle (dispatch, imbalance)"),
    ("model.bucket", "bucket glue (packing)"),
];

/// Fills the layer table from a traced replay's spans and returns the
/// residual share.
pub fn replay_table(out: &mut Outcome, spans: &[(&'static str, f64, f64, u64)], wall: f64) -> f64 {
    let mut rows = Vec::new();
    for name in LAYERS {
        rows.push(Row {
            layer: name,
            value: probe::self_time(spans, name).0,
            share: 0.0,
            source: "span self time",
        });
    }
    let named: f64 = rows.iter().map(|r| r.value).sum();
    for (name, what) in GLUE {
        rows.push(Row {
            layer: name,
            value: probe::self_time(spans, name).0,
            share: 0.0,
            source: what,
        });
    }
    let traced: f64 = rows.iter().map(|r| r.value).sum();
    rows.push(Row {
        layer: "outside spans (loop)",
        value: wall - traced,
        share: 0.0,
        source: "wall minus all spans",
    });
    for r in &mut rows {
        r.share = r.value / wall;
    }
    out.table = rows;
    out.table_basis = format!("seconds of the {wall:.2} s traced segment");
    1.0 - named / wall
}

/// Every output the loop produced, checked against the first output of
/// the same corpus sentence: a run longer than one pass over the corpus
/// sees each sentence again, and a state-dependent bug (a stale token
/// cache entry, a reused buffer) would show as a changed repeat.
struct Outputs {
    first: Vec<Option<Vec<EntitySpan>>>,
    /// Sentences whose later output differed from their first.
    changed: Vec<usize>,
}

impl Outputs {
    fn new(n: usize) -> Outputs {
        Outputs { first: vec![None; n], changed: Vec::new() }
    }

    fn record(&mut self, i: usize, spans: Vec<EntitySpan>) {
        match &self.first[i] {
            None => self.first[i] = Some(spans),
            Some(f) if *f != spans => self.changed.push(i),
            Some(_) => {}
        }
    }

    /// Fails the run for every changed repeat.
    fn report(&self, corpus: &[Labeled], what: &str, out: &mut Outcome) {
        out.failed += self.changed.len() as u64;
        if let Some(&i) = self.changed.first() {
            out.problem(format!(
                "{} {what} outputs differ from the first output of the same sentence, e.g. {:?}",
                self.changed.len(),
                corpus[i].text
            ));
        }
    }
}

pub fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let corpus = inputs::bulk_corpus(args.seed);
    let texts: Vec<&str> = corpus.iter().map(|l| l.text.as_str()).collect();
    let ckpt = model::prepare_checkpoint(args.seed, scratch)?;
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut pipeline = None;
    for _ in 0..serve::SETUPS {
        let (p, took) = model::load(&ckpt)?;
        setups.push(took);
        pipeline = Some(p);
    }
    let p = pipeline.expect("at least one set-up");
    out.set_e2e("setup_s", stats::median(&setups.iter().map(|t| t.cpu).collect::<Vec<_>>()));
    out.set_layer(
        "persist.load_s",
        stats::median(&setups.iter().map(|t| t.wall).collect::<Vec<_>>()),
    );

    // Traced runs measure an untraced first half and a traced second half;
    // the end-to-end metrics come from the first.
    let secs = if args.trace { args.seconds as f64 / 2.0 } else { args.seconds as f64 };
    let mut outputs = Outputs::new(corpus.len());
    let mut call_ms = Vec::new();
    let (mut sentences, mut tokens, mut cpu, mut next) = (0u64, 0u64, 0.0, 0usize);
    let window = Clock::start();
    let until = Instant::now() + Duration::from_secs_f64(secs);
    while Instant::now() < until {
        let idx: Vec<usize> = (0..CALL_BATCH).map(|k| (next + k) % corpus.len()).collect();
        next = (next + CALL_BATCH) % corpus.len();
        let batch: Vec<&str> = idx.iter().map(|&i| texts[i]).collect();
        let call = Clock::start();
        let outs = p.extract_batch(&batch);
        let took = call.took();
        cpu += took.cpu;
        call_ms.push(took.wall * 1e3);
        for (&i, s) in idx.iter().zip(outs) {
            sentences += 1;
            tokens += corpus[i].tokens as u64;
            outputs.record(i, s.entities);
        }
    }
    let wall = window.took().wall;
    let untraced_tps = tokens as f64 / cpu;
    out.set_e2e("tokens_per_cpu_s", untraced_tps);
    out.set_layer("client.latency_p50_ms", stats::median(&call_ms));
    out.set_layer("client.latency_p99_ms", stats::quantile(&call_ms, 0.99));
    out.set_layer("client.tokens_per_s", tokens as f64 / wall);
    out.set_layer("client.requests_per_s", sentences as f64 / wall);
    out.notes.push(format!(
        "{} calls of {CALL_BATCH} texts, {tokens} tokens in {wall:.2} s wall, {cpu:.2} s CPU",
        call_ms.len()
    ));
    out.attempted = sentences;

    // Correctness, outside the timed calls: every repeat equals the first
    // output, and every first output equals per-sentence `extract` on a
    // separately loaded pipeline.
    outputs.report(&corpus, "repeated extract_batch", &mut out);
    let (reference, _) = model::load(&ckpt)?;
    let checked: Vec<usize> = (0..corpus.len()).filter(|&i| outputs.first[i].is_some()).collect();
    let mismatched = check_per_sentence(&reference, &corpus, &checked, &outputs.first);
    out.failed += mismatched.len() as u64;
    for &i in mismatched.iter().take(3) {
        out.problem(format!("extract_batch differs from extract on {:?}", corpus[i].text));
    }
    if mismatched.len() > 3 {
        out.problem(format!(
            "{} batch outputs differ from per-sentence extract in all",
            mismatched.len()
        ));
    }
    // F1 over a fixed prefix every run reaches, so it does not depend on
    // how far a slow or fast run got.
    let scored = checked.iter().copied().filter(|&i| i < F1_SENTENCES);
    let golds: Vec<Vec<EntitySpan>> = scored.clone().map(|i| corpus[i].gold.clone()).collect();
    let preds: Vec<Vec<EntitySpan>> =
        scored.map(|i| outputs.first[i].clone().expect("checked")).collect();
    out.set_e2e("dev_f1", evaluate(&golds, &preds).micro.f1);
    out.set_e2e("ok_frac", 1.0 - out.failed as f64 / out.attempted.max(1) as f64);
    out.set_e2e("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN));
    if checked.len() < corpus.len() {
        out.notes.push(format!(
            "the timed loop reached {} of {} corpus sentences",
            checked.len(),
            corpus.len()
        ));
    }

    if args.trace {
        let mut tracer = Tracer::new();
        let cache0 = p.plan().token_cache_stats();
        let segment = Clock::start();
        let r = probe::replay_extract(
            &p,
            &corpus,
            &mut next,
            Instant::now() + Duration::from_secs_f64(secs),
            usize::MAX,
            true,
            &mut tracer,
        );
        let took = segment.took();
        let cache1 = p.plan().token_cache_stats();
        // The replay's outputs are checked like the loop's.
        let mut replayed = Outputs { first: outputs.first.clone(), changed: Vec::new() };
        out.attempted += r.outputs.len() as u64;
        for (i, spans) in r.outputs.iter().cloned() {
            replayed.record(i, spans);
        }
        replayed.report(&corpus, "traced replay", &mut out);
        out.set_overhead(untraced_tps, r.tokens as f64 / took.cpu);
        let spans = tracer.self_times();
        probe::replay_layers(&mut out, &r, &spans, (cache1.0 - cache0.0, cache1.1 - cache0.1));
        let residual = replay_table(&mut out, &spans, took.wall);
        out.set_layer("trace.residual_frac", residual);
        let rows = r.bucket_rows as f64 / r.buckets.max(1) as f64;
        probe::model_layers(&mut out, &p, &corpus, rows, args.seed)?;
        serve::serving_probe(&mut out, &ckpt, &corpus, 1.5)?;
        if let Err(e) = tracer.write(&crate::trace_path(args), 200_000) {
            out.notes.push(format!("trace spans not written: {e}"));
        }
    }
    Ok(out)
}

/// Indices in `which` whose `first` output differs from per-sentence
/// `extract`, checked on two threads.
fn check_per_sentence(
    reference: &NerPipeline,
    corpus: &[Labeled],
    which: &[usize],
    first: &[Option<Vec<EntitySpan>>],
) -> Vec<usize> {
    let half = which.len().div_ceil(2);
    std::thread::scope(|s| {
        let parts: Vec<_> = which
            .chunks(half.max(1))
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .copied()
                        .filter(|&i| {
                            first[i].as_ref() != Some(&reference.extract(&corpus[i].text).entities)
                        })
                        .collect::<Vec<usize>>()
                })
            })
            .collect();
        parts.into_iter().flat_map(|h| h.join().expect("check thread")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_after_a_wrap_are_checked_against_the_first_pass() {
        let span = |s: usize| vec![EntitySpan::new(s, s + 1, "PER")];
        let mut o = Outputs::new(3);
        // Two passes over a corpus of three: the second pass repeats the
        // first exactly except for sentence 1.
        for (i, s) in [(0, 0), (1, 1), (2, 2), (0, 0), (1, 5), (2, 2)] {
            o.record(i, span(s));
        }
        assert_eq!(o.changed, vec![1]);
        assert_eq!(o.first[1], Some(span(1)));
        let corpus: Vec<Labeled> = (0..3)
            .map(|i| Labeled { text: format!("s{i}"), gold: Vec::new(), tokens: 1 })
            .collect();
        let mut out = Outcome::default();
        o.report(&corpus, "repeated", &mut out);
        assert_eq!(out.failed, 1);
        assert_eq!(out.problems.len(), 1);
    }
}
