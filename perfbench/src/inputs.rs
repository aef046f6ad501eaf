//! Every input the benchmark feeds the program, generated from `--seed`
//! with the in-repo `ner-corpus` generators. The same seed gives the same
//! inputs; each workload draws from its own stream so that changing one
//! workload's sizes never shifts another's inputs.

use ner_corpus::noise::corrupt_dataset;
use ner_corpus::{GeneratorConfig, NewsGenerator, NoiseModel};
use ner_text::{Dataset, EntitySpan, Sentence};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// One input text with the generator's gold entities, on the tokens that
/// `ner_text::tokenize::tokenize` gives for the text.
#[derive(Clone, Debug, PartialEq)]
pub struct Labeled {
    pub text: String,
    pub gold: Vec<EntitySpan>,
    pub tokens: usize,
}

/// One `serve-open` arrival: when it is due, relative to the start of the
/// measured window, and which pool text it sends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub input: usize,
}

/// Independent generator streams, one per use.
#[derive(Clone, Copy)]
pub enum Stream {
    Model = 1,
    Open = 2,
    Schedule = 3,
    Saturate = 4,
    Bulk = 5,
    Train = 6,
    Replay = 7,
}

pub fn rng(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (stream as u64) << 56)
}

/// Sentences in the prepared model's training split (clean news).
pub const MODEL_TRAIN_SENTENCES: usize = 400;
/// Distinct texts in the `serve-open` pool.
pub const OPEN_POOL: usize = 300;
/// `serve-open` arrival rate, requests per second.
pub const OPEN_RATE: f64 = 200.0;
/// Distinct requests in the `serve-saturate` pool.
pub const SATURATE_POOL: usize = 512;
/// Sentences in the `annotate-bulk` corpus.
pub const BULK_SENTENCES: usize = 20_000;
/// `train-epoch` training and dev split sizes.
pub const TRAIN_SENTENCES: usize = 1536;
pub const DEV_SENTENCES: usize = 256;

fn news(unseen_entity_rate: f64) -> NewsGenerator {
    NewsGenerator::new(GeneratorConfig { unseen_entity_rate, ..GeneratorConfig::default() })
}

fn join(s: &Sentence) -> String {
    s.tokens.iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join(" ")
}

/// The sentence as a text, if the tokenizer gives back exactly its tokens
/// (so gold spans index the served tokens).
fn labeled(s: &Sentence) -> Option<Labeled> {
    let text = join(s);
    let toks = ner_text::tokenize::tokenize(&text);
    let same =
        toks.len() == s.tokens.len() && toks.iter().zip(&s.tokens).all(|(a, b)| *a == b.text);
    (same && !s.tokens.is_empty()).then(|| Labeled {
        text,
        gold: s.entities.clone(),
        tokens: s.tokens.len(),
    })
}

/// Draws `n` labeled texts from `draw`, skipping any that do not re-tokenize.
fn draw_labeled(n: usize, mut draw: impl FnMut() -> Sentence) -> Vec<Labeled> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        if let Some(l) = labeled(&draw()) {
            out.push(l);
        }
    }
    out
}

/// The split the served model is trained on: clean news plus half as many
/// news sentences through the social-media noise channel, so that its F1
/// on `annotate-bulk`'s noisy text does not swing with the seed.
pub fn model_train(seed: u64) -> Dataset {
    let mut r = rng(seed, Stream::Model);
    let gen = news(0.0);
    let clean = gen.dataset(&mut r, MODEL_TRAIN_SENTENCES);
    let extra = gen.dataset(&mut r, MODEL_TRAIN_SENTENCES / 2);
    let noisy = corrupt_dataset(&extra, &NoiseModel::social_media(), &mut r);
    Dataset::new(clean.sentences.into_iter().chain(noisy.sentences).collect())
}

/// `serve-open`: a pool of clean ~13-token news sentences.
pub fn open_pool(seed: u64) -> Vec<Labeled> {
    let gen = news(0.0);
    let mut r = rng(seed, Stream::Open);
    draw_labeled(OPEN_POOL, || gen.sentence(&mut r))
}

/// `serve-open`: the whole arrival schedule, fixed before the run starts —
/// a Poisson process at [`OPEN_RATE`] (independent users) conditioned on
/// exactly `OPEN_RATE × seconds` arrivals, each sending a seeded pool text.
/// Random gaps also keep arrivals from locking onto one phase of the
/// server's poll ticks for a whole run.
pub fn open_schedule(seed: u64, seconds: u64, pool: usize) -> Vec<Arrival> {
    let mut r = rng(seed, Stream::Schedule);
    let n = (seconds as f64 * OPEN_RATE).round() as usize;
    let mut due: Vec<f64> = (0..n).map(|_| r.gen_range(0.0..seconds as f64)).collect();
    due.sort_by(f64::total_cmp);
    due.into_iter()
        .map(|t| Arrival { due: Duration::from_secs_f64(t), input: r.gen_range(0..pool) })
        .collect()
}

/// `serve-saturate`: requests joining 1–6 news sentences (~13–80 tokens)
/// in which about half the entity mentions are unseen in training. Each
/// length from 1 to 6 sentences is equally common in every pool (in a
/// seeded order), so the mean request size does not vary with the seed.
pub fn saturate_pool(seed: u64) -> Vec<Labeled> {
    let gen = news(0.5);
    let mut r = rng(seed, Stream::Saturate);
    let mut parts: Vec<usize> = (0..SATURATE_POOL).map(|i| 1 + i % 6).collect();
    parts.shuffle(&mut r);
    parts
        .into_iter()
        .map(|parts| {
            let sentences = draw_labeled(parts, || gen.sentence(&mut r));
            let mut joined = Labeled { text: String::new(), gold: Vec::new(), tokens: 0 };
            for s in sentences {
                if !joined.text.is_empty() {
                    joined.text.push(' ');
                }
                joined.text.push_str(&s.text);
                let off = joined.tokens;
                joined.gold.extend(
                    s.gold.iter().map(|e| EntitySpan::new(e.start + off, e.end + off, &*e.label)),
                );
                joined.tokens += s.tokens;
            }
            joined
        })
        .collect()
}

/// `annotate-bulk`: W-NUT-style text — news sentences in which half the
/// entity mentions are unseen in training, through the social-media noise
/// channel: three times more distinct surface forms than the token cache
/// holds.
pub fn bulk_corpus(seed: u64) -> Vec<Labeled> {
    let mut r = rng(seed, Stream::Bulk);
    let clean = news(0.5).dataset(&mut r, BULK_SENTENCES);
    let noisy = corrupt_dataset(&clean, &NoiseModel::social_media(), &mut r);
    noisy.sentences.iter().filter_map(labeled).collect()
}

/// `train-epoch`: a clean news train split, and a dev split in which about
/// half the entity mentions are unseen in training (so dev F1 stays below
/// 1 and moves when learning breaks).
pub fn train_splits(seed: u64) -> (Dataset, Dataset) {
    let mut r = rng(seed, Stream::Train);
    let train = news(0.0).dataset(&mut r, TRAIN_SENTENCES);
    let dev = news(0.5).dataset(&mut r, DEV_SENTENCES);
    (train, dev)
}

/// Texts and gold of a dataset, for the probes that need labeled text.
pub fn labeled_dataset(ds: &Dataset) -> Vec<Labeled> {
    ds.sentences.iter().filter_map(labeled).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_inputs_and_different_seed_different_inputs() {
        assert_eq!(open_pool(7), open_pool(7));
        assert_ne!(open_pool(7), open_pool(8));
        assert_eq!(open_schedule(7, 2, OPEN_POOL), open_schedule(7, 2, OPEN_POOL));
        assert_ne!(open_schedule(7, 2, OPEN_POOL), open_schedule(8, 2, OPEN_POOL));
        assert_eq!(saturate_pool(7), saturate_pool(7));
        assert_ne!(saturate_pool(7), saturate_pool(8));
        let (a, b) = (train_splits(7), train_splits(7));
        assert_eq!(labeled_dataset(&a.0), labeled_dataset(&b.0));
        assert_ne!(labeled_dataset(&a.0), labeled_dataset(&train_splits(8).0));
        assert_eq!(labeled_dataset(&model_train(7)), labeled_dataset(&model_train(7)));
        assert_ne!(labeled_dataset(&model_train(7)), labeled_dataset(&model_train(8)));
    }

    #[test]
    fn bulk_corpus_is_seeded_and_outgrows_the_token_cache() {
        let a = bulk_corpus(3);
        assert_eq!(a, bulk_corpus(3));
        assert_ne!(a[..50], bulk_corpus(4)[..50]);
        let forms: HashSet<String> =
            a.iter().flat_map(|l| ner_text::tokenize::tokenize(&l.text)).collect();
        let cache = ner_core::plan::DEFAULT_TOKEN_CACHE;
        assert!(
            forms.len() >= 3 * cache,
            "{} distinct forms for a {cache}-entry cache",
            forms.len()
        );
    }

    #[test]
    fn open_schedule_is_fixed_in_advance_at_the_stated_rate() {
        let s = open_schedule(11, 20, OPEN_POOL);
        assert_eq!(s.len() as f64, 20.0 * OPEN_RATE);
        assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(s.last().unwrap().due < Duration::from_secs(20));
        assert!(s.iter().all(|a| a.input < OPEN_POOL));
    }

    #[test]
    fn joined_requests_keep_gold_aligned_with_tokens() {
        for l in saturate_pool(5).iter().take(64) {
            let toks = ner_text::tokenize::tokenize(&l.text);
            assert_eq!(toks.len(), l.tokens);
            assert!(l.gold.iter().all(|e| e.end <= l.tokens));
            assert!((1..=100).contains(&l.tokens));
        }
    }
}
