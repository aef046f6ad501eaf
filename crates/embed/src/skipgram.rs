//! Skip-gram with negative sampling (word2vec; Mikolov et al. 2013).
//!
//! Implemented with direct manual updates (no autograd tape): each
//! (center, context) pair touches only two embedding rows plus `k` negative
//! rows, so the classic sparse-SGD formulation is both simpler and orders of
//! magnitude faster than a dense graph.

use crate::pretrained::WordEmbeddings;
use ner_tensor::simd::sigmoid;
use ner_tensor::Tensor;
use ner_text::Vocab;
use rand::Rng;

/// Skip-gram training hyperparameters.
#[derive(Clone, Debug)]
pub struct SkipGramConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Max context window radius (the effective radius is sampled 1..=window
    /// per center, as in word2vec).
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Training epochs over the corpus.
    pub epochs: usize,
    /// Initial learning rate (linearly decayed to 1e-4 of itself).
    pub lr: f32,
    /// Minimum token frequency for the vocabulary.
    pub min_count: usize,
}

impl Default for SkipGramConfig {
    fn default() -> Self {
        SkipGramConfig { dim: 32, window: 4, negatives: 5, epochs: 8, lr: 0.05, min_count: 2 }
    }
}

/// Unigram^0.75 negative-sampling table.
pub(crate) struct NegativeTable {
    table: Vec<usize>,
}

impl NegativeTable {
    /// Builds the table from raw token counts per vocab index.
    pub(crate) fn new(counts: &[usize]) -> Self {
        const TABLE_SIZE: usize = 100_000;
        let weights: Vec<f64> = counts.iter().map(|&c| (c as f64).powf(0.75)).collect();
        let total: f64 = weights.iter().sum();
        let mut table = Vec::with_capacity(TABLE_SIZE);
        if total > 0.0 {
            for (i, w) in weights.iter().enumerate() {
                let n = ((w / total) * TABLE_SIZE as f64).round() as usize;
                table.extend(std::iter::repeat_n(i, n.max(if *w > 0.0 { 1 } else { 0 })));
            }
        }
        if table.is_empty() {
            table.push(0);
        }
        NegativeTable { table }
    }

    pub(crate) fn sample(&self, rng: &mut impl Rng) -> usize {
        self.table[rng.gen_range(0..self.table.len())]
    }
}

/// Counts corpus tokens per index of `vocab` (reserved entries get 0).
pub(crate) fn index_counts(corpus: &[Vec<String>], vocab: &Vocab) -> Vec<usize> {
    let mut counts = vec![0usize; vocab.len()];
    for sent in corpus {
        for tok in sent {
            if let Some(i) = vocab.get(&tok.to_lowercase()) {
                counts[i] += 1;
            }
        }
    }
    counts
}

/// Trains skip-gram embeddings on a tokenized corpus.
pub fn train(corpus: &[Vec<String>], cfg: &SkipGramConfig, rng: &mut impl Rng) -> WordEmbeddings {
    let vocab =
        Vocab::build(corpus.iter().flat_map(|s| s.iter().map(|t| t.to_lowercase())), cfg.min_count);
    let counts = index_counts(corpus, &vocab);
    let negatives = NegativeTable::new(&counts);

    let v = vocab.len();
    let d = cfg.dim;
    // Input vectors small-uniform, output vectors zero (word2vec convention).
    let mut w_in: Vec<f32> = (0..v * d).map(|_| (rng.gen::<f32>() - 0.5) / d as f32).collect();
    let mut w_out: Vec<f32> = vec![0.0; v * d];

    let encoded: Vec<Vec<usize>> = corpus
        .iter()
        .map(|s| s.iter().filter_map(|t| vocab.get(&t.to_lowercase())).collect())
        .collect();
    let total_steps: usize = cfg.epochs * encoded.iter().map(Vec::len).sum::<usize>().max(1);
    let mut step = 0usize;

    let mut grad_center = vec![0.0f32; d];
    for _ in 0..cfg.epochs {
        for sent in &encoded {
            for (pos, &center) in sent.iter().enumerate() {
                step += 1;
                let lr = (cfg.lr * (1.0 - step as f32 / total_steps as f32)).max(cfg.lr * 1e-4);
                let radius = rng.gen_range(1..=cfg.window);
                let lo = pos.saturating_sub(radius);
                let hi = (pos + radius + 1).min(sent.len());
                for ctx_pos in lo..hi {
                    if ctx_pos == pos {
                        continue;
                    }
                    let context = sent[ctx_pos];
                    grad_center.iter_mut().for_each(|g| *g = 0.0);
                    // one positive + k negatives
                    for neg in 0..=cfg.negatives {
                        let (target, label) =
                            if neg == 0 { (context, 1.0) } else { (negatives.sample(rng), 0.0) };
                        if neg > 0 && target == context {
                            continue;
                        }
                        let ci = center * d;
                        let ti = target * d;
                        let dot: f32 = (0..d).map(|j| w_in[ci + j] * w_out[ti + j]).sum();
                        let err = (sigmoid(dot) - label) * lr;
                        for j in 0..d {
                            grad_center[j] += err * w_out[ti + j];
                            w_out[ti + j] -= err * w_in[ci + j];
                        }
                    }
                    let ci = center * d;
                    for j in 0..d {
                        w_in[ci + j] -= grad_center[j];
                    }
                }
            }
        }
    }

    WordEmbeddings::new(vocab, Tensor::from_vec(v, d, w_in))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ner_corpus::{GeneratorConfig, NewsGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn negative_table_prefers_frequent_items() {
        let table = NegativeTable::new(&[0, 0, 100, 1]);
        let mut rng = StdRng::seed_from_u64(1);
        let hits2 = (0..1000).filter(|_| table.sample(&mut rng) == 2).count();
        assert!(hits2 > 800, "frequent item should dominate, got {hits2}");
    }

    #[test]
    fn embeddings_capture_distributional_similarity() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let corpus = gen.lm_sentences(&mut rng, 1500);
        let cfg = SkipGramConfig { dim: 24, epochs: 4, ..Default::default() };
        let emb = train(&corpus, &cfg, &mut rng);

        // Words of the same entity class share contexts, so cities should be
        // closer to each other than to unrelated function words.
        let city_city = emb.cosine("brooklyn", "london");
        let city_func = emb.cosine("brooklyn", "percent");
        assert!(
            city_city > city_func,
            "city-city similarity {city_city} should exceed city-function {city_func}"
        );
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let corpus = gen.lm_sentences(&mut StdRng::seed_from_u64(3), 100);
        let cfg = SkipGramConfig { dim: 8, epochs: 1, ..Default::default() };
        let a = train(&corpus, &cfg, &mut StdRng::seed_from_u64(9));
        let b = train(&corpus, &cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.matrix(), b.matrix());
    }
}
