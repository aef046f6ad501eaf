//! The benchmark's workloads and metrics. `BENCHMARK.json` at the
//! repository root is their one list — names, units, directions, bounds,
//! and why each workload was chosen — and is compiled in. This file adds
//! what that file's format has no room for: what each metric measures and,
//! for a per-layer metric, which end-to-end metric it should move on which
//! workload. Later changes cite these names when they claim a gain.

use serde_json::Value;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

pub struct Workload {
    pub name: String,
    pub why: String,
}

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

impl Metric {
    pub fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }

    pub fn note(&self) -> &'static str {
        note(&self.name).unwrap_or("")
    }
}

pub struct Catalog {
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Catalog {
    pub fn workload(&self, name: &str) -> Option<&Workload> {
        self.workloads.iter().find(|w| w.name == name)
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }
}

/// The catalog `BENCHMARK.json` describes.
pub fn get() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json is well formed"))
}

fn parse(text: &str) -> Result<Catalog, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.message().to_string())?;
    let list = |key: &str| -> Result<Vec<Value>, String> {
        Ok(doc.get(key).and_then(Value::as_array).ok_or(format!("no {key} list"))?.to_vec())
    };
    let field = |v: &Value, key: &str| -> Result<String, String> {
        Ok(v.get(key).and_then(Value::as_str).ok_or(format!("an entry lacks {key}"))?.to_string())
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(Metric {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    better: field(m, "better")?,
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok(Catalog {
        workloads: list("workloads")?
            .iter()
            .map(|w| Ok(Workload { name: field(w, "name")?, why: field(w, "why")? }))
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// What a metric measures.
pub fn note(name: &str) -> Option<&'static str> {
    NOTES.iter().find(|(n, _)| *n == name).map(|(_, note)| *note)
}

const NOTES: &[(&str, &str)] = &[
    // End-to-end.
    ("setup_s", "CPU seconds of set-up, median of repeats. serve-*: Checkpoint::load + ServeState::new + bind until the first 200 (5 boots); annotate-bulk: load + plan compile (5); train-epoch: encode the data + build the model (21, split between before and after training)"),
    ("tokens_per_cpu_s", "tokens handled per CPU second of the process over the whole measured window. serve-*: tokens of correct replies over server and client CPU; annotate-bulk: tokens over the CPU of the extract_batch calls; train-epoch: trained tokens over the CPU of trainer::train, dev eval included"),
    ("ok_frac", "1 - fail_frac: attempts that got a correct answer (fail_frac itself is printed beside it; a metric that is usually 0 cannot carry a relative bound)"),
    ("dev_f1", "entity micro-F1 against the generator's gold: of the served outputs (once per distinct input answered), of the annotated outputs of a fixed corpus prefix, and on the dev split for train-epoch"),
    ("peak_rss_mb", "VmHWM of the benchmark process, which hosts the program"),
    // Per-layer: the client's wall-clock view.
    ("client.latency_p50_ms", "whole-window wall-clock p50 per request (serve-open: from when it was due), per extract_batch call (annotate-bulk), per epoch (train-epoch); host steal time dominates its run-to-run spread, so it carries no bound -> what serve.* layers should move on serve-open"),
    ("client.latency_p99_ms", "whole-window wall-clock p99, as client.latency_p50_ms -> serve.batcher.queue_wait_* on serve-saturate"),
    ("client.tokens_per_s", "tokens per wall-clock second over the whole window (serve-open: the offered load); the wall-clock twin of tokens_per_cpu_s"),
    ("client.requests_per_s", "requests (annotate-bulk, train-epoch: sentences) per wall-clock second over the whole window"),
    // Per-layer: ner-serve.
    ("serve.http.parse_us", "http::RequestParser feed+poll per request -> client.latency_p50_ms and tokens_per_cpu_s on serve-open"),
    ("serve.http.respond_us", "http::Response::to_bytes per reply -> client.latency_p50_ms and tokens_per_cpu_s on serve-open"),
    ("serve.outside_us", "client p50 minus server serve.request_us p50: poll loop, sockets, sleep ticks -> client.latency_p50_ms on serve-open (small share on serve-saturate)"),
    ("serve.batcher.queue_wait_p50_us", "serve.queue_wait_us delta p50 -> client.latency_p99_ms on serve-saturate"),
    ("serve.batcher.queue_wait_p99_us", "serve.queue_wait_us delta p99 -> client.latency_p99_ms on serve-saturate"),
    ("serve.batcher.rows_per_batch", "serve.batch_size delta mean -> tokens_per_cpu_s on serve-saturate (about 1 on serve-open)"),
    ("serve.batcher.shed_frac", "429 replies over attempts -> ok_frac on serve-saturate"),
    ("gen.late_p99_ms", "how late the load generator sent against its schedule (closed loop: against the freed slot); a serve-open run later than 20 ms at p99 is marked void in its report"),
    // Per-layer: ner-core inference.
    ("text.tokenize_us_per_token", "tokenize::tokenize -> tokens_per_cpu_s on serve-open"),
    ("repr.featurize_us_per_token", "SentenceEncoder::encode -> tokens_per_cpu_s on serve-open"),
    ("repr.embed_us_per_token", "BatchStageMicros.embed_us of NerModel::predict_spans_batch -> tokens_per_cpu_s on annotate-bulk and serve-saturate"),
    ("encoder.encode_us_per_token", "BatchStageMicros.encode_us -> tokens_per_cpu_s on annotate-bulk and serve-saturate"),
    ("decoder.decode_us_per_token", "BatchStageMicros.decode_us -> tokens_per_cpu_s on annotate-bulk and serve-saturate"),
    ("repr.token_cache_hit_ratio", "token-cache hits over lookups (ForwardPlan::token_cache_stats, infer.cache.* counters): about 1 on serve-open, low on annotate-bulk"),
    ("plan.rows_per_bucket", "sentences per packed bucket (BatchedPlan::buckets) -> tokens_per_cpu_s on annotate-bulk"),
    ("persist.load_s", "wall seconds of Checkpoint::load + restore into NerPipeline::new -> setup_s"),
    // Per-layer: ner-core training and ner-tensor.
    ("train.forward_us_per_token", "NerModel::loss_batch -> tokens_per_cpu_s on train-epoch"),
    ("train.backward_us_per_token", "Tape::backward_into_segmented -> tokens_per_cpu_s on train-epoch"),
    ("train.scatter_us_per_token", "GradBuffer::apply_to -> tokens_per_cpu_s on train-epoch"),
    ("train.optimizer_us_per_step", "ParamStore::clip_grad_norm + Optimizer::step -> tokens_per_cpu_s on train-epoch"),
    ("decoder.crf_nll_us_per_token", "Crf::nll + backward on the workload's emission shapes -> tokens_per_cpu_s on train-epoch"),
    ("decoder.crf_nll_share", "CRF-NLL time over the traced training step time -> tokens_per_cpu_s on train-epoch"),
    ("train.skipped_updates", "skipped or rolled-back updates -> ok_frac on train-epoch"),
    ("tensor.gemm_gflops.nn", "kernels::matmul at the model's shapes, 2mkn operations computed from shapes -> tokens_per_cpu_s on annotate-bulk and train-epoch"),
    ("tensor.gemm_gflops.nt", "kernels::matmul_nt at the backward shapes, 2mkn from shapes -> tokens_per_cpu_s on train-epoch"),
    ("tensor.gemm_gflops.tn", "kernels::matmul_tn at the weight-gradient shapes, 2mkn from shapes -> tokens_per_cpu_s on train-epoch"),
    // Per-layer: ner-obs and the trace itself.
    ("obs.trace_overhead_frac", "tokens_per_cpu_s of the traced segment against the untraced segment of the same run"),
    ("trace.residual_frac", "share of the traced time that no named layer accounts for"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let c = get();
        let names: Vec<&str> = c
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .chain(c.end_to_end.iter().chain(&c.per_layer).map(|m| m.name.as_str()))
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names must be unique");
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(m.unit.len() <= 16);
            assert!(m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.better == "lower" || m.better == "higher");
        }
        for w in &c.workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn every_metric_has_a_note_and_every_note_a_metric() {
        let c = get();
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(note(&m.name).is_some(), "{} has no note", m.name);
        }
        for (n, _) in NOTES {
            assert!(c.metric(n).is_some(), "note for {n}, which BENCHMARK.json does not list");
        }
    }

    #[test]
    fn bounds_follow_the_contract() {
        let c = get();
        assert!(c.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = c.metric("setup_s").and_then(|m| m.bound).expect("setup_s is bounded");
        assert!(c.end_to_end.iter().all(|m| m.bound.unwrap_or(0.0) <= setup));
    }
}
