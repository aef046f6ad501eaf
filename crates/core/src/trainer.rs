//! The training loop: minibatch SGD with gradient clipping, optional
//! learning-rate schedules, dev-set early stopping with best-model
//! restoration, and evaluation helpers.
//!
//! # Backends
//!
//! Two gradient-recording backends drive an epoch ([`TrainerKind`]):
//!
//! * **Batched** (default): each worker packs its bucket of
//!   [`TrainConfig::batch`] sentences into one `[N, d]` row matrix and
//!   records a single [`Tape`] through `ner_tensor::BatchedTapeExec` — one
//!   recurrent GEMM per timestep across the live prefix, exactly the
//!   layout serving uses. A segmented backward scatters each sentence's
//!   gradients into its own [`GradBuffer`], bit-identically to what a
//!   per-sentence tape would have produced (see DESIGN.md "Batched
//!   training").
//! * **Per-sentence**: the historical one-tape-per-sentence formulation,
//!   kept as the parity oracle.
//!
//! # Threading and schedule
//!
//! Each epoch walks the (shuffled) order in chunks of `threads × batch`
//! sentences: every worker processes its bucket independently, and the
//! coordinator merges the gradient buffers **in sentence order**
//! (deterministic for a fixed thread count and batch size), clips once,
//! and takes one optimizer step per chunk. Gradients are summed — not
//! averaged — over the chunk, so the total SGD displacement per epoch
//! matches the serial path's; Adam's update is scale-invariant either way.
//! Dropout streams are seeded per sentence from one draw per chunk, so
//! masks depend only on a sentence's position in the order — which makes
//! the two backends produce bit-identical loss curves and final weights at
//! any thread count. With `NER_THREADS=1` and `batch == 1` the sentences'
//! dropout draws come straight from the shared epoch rng and one step is
//! taken per sentence: the historical serial trajectory, reproduced bit
//! for bit by both backends.

use crate::metrics::{evaluate, EvalResult};
use crate::model::NerModel;
use crate::repr::EncodedSentence;
use ner_tensor::optim::{Adam, LrSchedule, Optimizer, Sgd};
use ner_tensor::{GradBuffer, OpClass, Tape};
use ner_text::EntitySpan;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use serde::Serialize;

/// Multiplier of the within-chunk index that derives each sentence's
/// dropout-stream seed from the chunk's base seed (golden-ratio stride, so
/// neighboring sentences get decorrelated streams).
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Which gradient-recording backend drives each epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum TrainerKind {
    /// One packed tape per bucket of [`TrainConfig::batch`] sentences,
    /// recorded through `ner_tensor::BatchedTapeExec` (default).
    Batched,
    /// One tape per sentence — the historical formulation, kept as the
    /// bit-identity oracle for the batched backend.
    PerSentence,
}

impl std::str::FromStr for TrainerKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "batched" => Ok(TrainerKind::Batched),
            "per-sentence" => Ok(TrainerKind::PerSentence),
            other => Err(format!("unknown trainer '{other}' (expected batched|per-sentence)")),
        }
    }
}

/// Optimizer selection.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum OptimizerKind {
    /// Plain SGD.
    Sgd,
    /// SGD with classical momentum 0.9.
    SgdMomentum,
    /// Adam (β₁=0.9, β₂=0.999).
    Adam,
}

/// Training-loop configuration.
#[derive(Clone, Debug, Serialize)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Base learning rate.
    pub lr: f32,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// Learning-rate schedule applied per epoch.
    pub schedule: LrScheduleKind,
    /// Global-norm gradient clip (0 disables).
    pub clip: f32,
    /// Early-stopping patience in epochs on dev F1 (`None` disables; the
    /// best-dev parameters are restored either way when a dev set is given).
    pub patience: Option<usize>,
    /// Shuffle the training order each epoch.
    pub shuffle: bool,
    /// Gradient-recording backend.
    pub trainer: TrainerKind,
    /// Sentences per packed bucket (per worker). `1` reproduces the
    /// historical per-sentence schedule bit for bit; larger buckets
    /// amortize the recurrent GEMMs across sentences.
    pub batch: usize,
}

/// Serializable schedule selector (mirrors [`LrSchedule`]).
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum LrScheduleKind {
    /// Constant rate.
    Constant,
    /// `lr / (1 + decay·epoch)`.
    InverseTime {
        /// Per-epoch decay.
        decay: f32,
    },
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            lr: 0.01,
            optimizer: OptimizerKind::Adam,
            schedule: LrScheduleKind::InverseTime { decay: 0.05 },
            clip: 5.0,
            patience: Some(4),
            shuffle: true,
            trainer: TrainerKind::Batched,
            batch: 1,
        }
    }
}

/// Per-epoch training record, also emitted as a structured `"epoch"` event
/// through `ner-obs` when a sink is installed.
#[derive(Clone, Debug, Serialize)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss per sentence.
    pub train_loss: f64,
    /// Dev micro-F1 (when a dev set was supplied).
    pub dev_f1: Option<f64>,
    /// Mean pre-clip global gradient norm over applied updates.
    pub grad_norm: f64,
    /// Effective learning rate this epoch (after the schedule).
    pub lr: f32,
    /// Wall-clock milliseconds spent on the epoch (including dev eval).
    pub wall_ms: u64,
    /// Training tokens consumed per wall-clock second this epoch.
    pub tokens_per_s: f64,
    /// Largest autodiff tape built during the epoch, in nodes.
    pub peak_tape_nodes: usize,
    /// Updates skipped because the loss or gradient norm was non-finite.
    pub skipped_updates: usize,
}

/// Outcome of a training run.
#[derive(Clone, Debug, Serialize)]
pub struct TrainReport {
    /// Per-epoch records.
    pub epochs: Vec<EpochRecord>,
    /// Epoch whose parameters the model ended up with.
    pub best_epoch: usize,
    /// Best dev micro-F1 (when a dev set was supplied).
    pub best_dev_f1: Option<f64>,
    /// Why training ended: `"completed"` or an early-stop description.
    pub stop_reason: String,
}

/// Accumulators for one epoch's pass over the training order.
#[derive(Default)]
struct EpochStats {
    total_loss: f64,
    norm_sum: f64,
    applied: usize,
    skipped: usize,
    peak_nodes: usize,
}

/// What one worker produced for one training sentence.
enum SentenceOutcome {
    /// Sentence was empty; nothing to do.
    Empty,
    /// Loss came out non-finite; the coordinator logs and skips it.
    NonFinite { index: usize, loss: f64 },
    /// A usable gradient contribution.
    Update {
        loss: f64,
        grads: GradBuffer,
        nodes: usize,
        ops: Vec<(OpClass, u32)>,
        pool: ner_tensor::pool::PoolStats,
    },
}

/// The original per-sentence serial loop: one tape, one backward, one
/// optimizer step per sentence. Kept verbatim so single-thread runs
/// reproduce historical trajectories exactly.
#[allow(clippy::too_many_arguments)]
fn run_epoch_serial(
    model: &mut NerModel,
    train: &[EncodedSentence],
    order: &[usize],
    opt: &mut dyn Optimizer,
    cfg: &TrainConfig,
    epoch: usize,
    rng: &mut impl Rng,
    op_totals: &mut [u64],
) -> EpochStats {
    let mut stats = EpochStats::default();
    for &i in order {
        let sent = &train[i];
        if sent.is_empty() {
            continue;
        }
        let mut tape = Tape::new();
        let loss = model.loss(&mut tape, sent, rng);
        let loss_val = tape.value(loss).item() as f64;
        if !loss_val.is_finite() {
            stats.skipped += 1;
            ner_obs::warn(format!(
                "epoch {epoch}: non-finite loss ({loss_val}) on sentence {i}; update skipped"
            ));
            continue;
        }
        stats.total_loss += loss_val;
        tape.backward(loss, &mut model.store);
        let norm = if cfg.clip > 0.0 {
            model.store.clip_grad_norm(cfg.clip)
        } else {
            model.store.grad_global_norm()
        };
        if !norm.is_finite() {
            stats.skipped += 1;
            ner_obs::warn(format!(
                "epoch {epoch}: non-finite gradient norm on sentence {i}; update skipped"
            ));
            model.store.zero_grad();
            continue;
        }
        stats.norm_sum += norm as f64;
        stats.applied += 1;
        stats.peak_nodes = stats.peak_nodes.max(tape.len());
        for (class, n) in tape.op_counts() {
            op_totals[class as usize] += n as u64;
        }
        opt.step(&mut model.store);
    }
    stats
}

/// Data-parallel epoch: minibatches of `pool.threads()` sentences, each
/// sentence's forward/backward on its own worker tape, gradients merged in
/// shard order and applied with a single clipped optimizer step per batch.
#[allow(clippy::too_many_arguments)]
fn run_epoch_parallel(
    model: &mut NerModel,
    train: &[EncodedSentence],
    order: &[usize],
    opt: &mut dyn Optimizer,
    cfg: &TrainConfig,
    epoch: usize,
    pool: &ner_par::ThreadPool,
    rng: &mut impl Rng,
    op_totals: &mut [u64],
) -> EpochStats {
    let mut stats = EpochStats::default();
    for chunk in order.chunks(pool.threads()) {
        // One seed per batch; each shard derives an independent stream so
        // dropout masks don't depend on worker scheduling.
        let batch_seed: u64 = rng.gen();
        let model_ref: &NerModel = model;
        let results = pool.map(chunk.len(), |j| {
            let i = chunk[j];
            let sent = &train[i];
            if sent.is_empty() {
                return SentenceOutcome::Empty;
            }
            let mut shard_rng = StdRng::seed_from_u64(
                batch_seed.wrapping_add((j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            );
            let mut tape = Tape::new();
            let loss = model_ref.loss(&mut tape, sent, &mut shard_rng);
            let loss_val = tape.value(loss).item() as f64;
            if !loss_val.is_finite() {
                return SentenceOutcome::NonFinite { index: i, loss: loss_val };
            }
            let mut grads = GradBuffer::new(model_ref.store.len());
            tape.backward_into(loss, &mut grads);
            let ops: Vec<(OpClass, u32)> = tape.op_counts().collect();
            let nodes = tape.len();
            drop(tape); // recycle node buffers into this worker's pool
            SentenceOutcome::Update {
                loss: loss_val,
                grads,
                nodes,
                ops,
                pool: ner_tensor::pool::take_stats(),
            }
        });

        // Merge in shard order — deterministic for a fixed thread count.
        let mut contributed = 0usize;
        for outcome in results {
            match outcome {
                SentenceOutcome::Empty => {}
                SentenceOutcome::NonFinite { index, loss } => {
                    stats.skipped += 1;
                    ner_obs::warn(format!(
                        "epoch {epoch}: non-finite loss ({loss}) on sentence {index}; update skipped"
                    ));
                }
                SentenceOutcome::Update { loss, grads, nodes, ops, pool } => {
                    stats.total_loss += loss;
                    stats.peak_nodes = stats.peak_nodes.max(nodes);
                    for (class, n) in ops {
                        op_totals[class as usize] += n as u64;
                    }
                    ner_obs::counter("pool.hits", pool.hits as f64);
                    ner_obs::counter("pool.misses", pool.misses as f64);
                    ner_obs::counter("pool.recycled", pool.recycled as f64);
                    grads.apply_to(&mut model.store);
                    contributed += 1;
                }
            }
        }
        if contributed == 0 {
            continue;
        }
        let norm = if cfg.clip > 0.0 {
            model.store.clip_grad_norm(cfg.clip)
        } else {
            model.store.grad_global_norm()
        };
        if !norm.is_finite() {
            stats.skipped += contributed;
            ner_obs::warn(format!(
                "epoch {epoch}: non-finite gradient norm on a {contributed}-sentence batch; update skipped"
            ));
            model.store.zero_grad();
            continue;
        }
        stats.norm_sum += norm as f64;
        stats.applied += 1;
        opt.step(&mut model.store);
    }
    stats
}

/// Where a bucket's dropout streams come from.
enum RngSrc<'a> {
    /// Each sentence's stream is `StdRng` seeded with
    /// `base + k·SEED_STRIDE` for its within-chunk index `k` — the same
    /// derivation [`run_epoch_parallel`] uses, so schedules agree.
    Seeded(u64),
    /// The shared epoch rng, passed straight through (the
    /// `threads == 1 && batch == 1` serial replay; at most one live
    /// sentence per bucket).
    Shared(&'a mut dyn RngCore),
}

/// What one worker produced for one sentence of its bucket.
enum BucketItem {
    /// Sentence was empty; nothing to do.
    Empty,
    /// No gradient contribution: the loss was non-finite, or (batched
    /// mode) a bucket-mate's was and the whole bucket was rolled back.
    NonFinite { index: usize, loss: f64, rolled_back: bool },
    /// A usable gradient contribution.
    Update { loss: f64, grads: GradBuffer },
}

/// One worker's result for one bucket.
struct BucketResult {
    /// Per-sentence items, in bucket (= schedule) order.
    items: Vec<BucketItem>,
    nodes: usize,
    ops: Vec<(OpClass, u32)>,
    pool: ner_tensor::pool::PoolStats,
}

/// Forward/backward for one bucket of sentences on one worker, through
/// either backend. `k0` is the within-chunk index of `ids[0]`.
fn run_bucket(
    model: &NerModel,
    train: &[EncodedSentence],
    ids: &[usize],
    k0: u64,
    batched: bool,
    src: RngSrc<'_>,
) -> BucketResult {
    // (within-chunk index, sentence index) of the non-empty sentences;
    // empties keep their slot in the seed derivation, as in the
    // historical parallel path.
    let live: Vec<(u64, usize)> = ids
        .iter()
        .enumerate()
        .filter(|&(_, &i)| !train[i].is_empty())
        .map(|(j, &i)| (k0 + j as u64, i))
        .collect();
    if live.is_empty() {
        return BucketResult {
            items: ids.iter().map(|_| BucketItem::Empty).collect(),
            nodes: 0,
            ops: Vec::new(),
            pool: ner_tensor::pool::take_stats(),
        };
    }
    let (mut owned, mut shared): (Vec<StdRng>, Option<&mut dyn RngCore>) = match src {
        RngSrc::Seeded(base) => (
            live.iter()
                .map(|&(k, _)| {
                    StdRng::seed_from_u64(base.wrapping_add(k.wrapping_mul(SEED_STRIDE)))
                })
                .collect(),
            None,
        ),
        RngSrc::Shared(r) => {
            debug_assert!(live.len() <= 1, "shared-rng replay is single-sentence");
            (Vec::new(), Some(r))
        }
    };

    let mut items = Vec::with_capacity(ids.len());
    let mut nodes = 0usize;
    let mut ops: Vec<(OpClass, u32)> = Vec::new();

    if batched {
        let encs: Vec<&EncodedSentence> = live.iter().map(|&(_, i)| &train[i]).collect();
        let mut streams: Vec<&mut dyn RngCore> = match &mut shared {
            Some(r) => vec![&mut **r],
            None => owned.iter_mut().map(|r| r as &mut dyn RngCore).collect(),
        };
        let mut tape = Tape::new();
        let (total, losses) = model.loss_batch(&mut tape, &encs, &mut streams);
        let total_val = tape.value(total).item() as f64;
        if !total_val.is_finite() || losses.iter().any(|l| !l.is_finite()) {
            // Roll back the whole bucket: a segmented backward from a
            // non-finite loss would poison every segment's buffer, so no
            // sentence in this bucket contributes.
            let mut li = 0usize;
            for &i in ids {
                if train[i].is_empty() {
                    items.push(BucketItem::Empty);
                } else {
                    let loss = losses[li];
                    items.push(BucketItem::NonFinite {
                        index: i,
                        loss,
                        rolled_back: loss.is_finite(),
                    });
                    li += 1;
                }
            }
        } else {
            let mut buffers: Vec<GradBuffer> =
                (0..encs.len()).map(|_| GradBuffer::new(model.store.len())).collect();
            tape.backward_into_segmented(total, &mut buffers);
            nodes = tape.len();
            ops = tape.op_counts().collect();
            drop(tape);
            let mut rest = losses.into_iter().zip(buffers);
            for &i in ids {
                if train[i].is_empty() {
                    items.push(BucketItem::Empty);
                } else {
                    let (loss, grads) = rest.next().expect("one buffer per live sentence");
                    items.push(BucketItem::Update { loss, grads });
                }
            }
        }
    } else {
        let mut li = 0usize;
        for &i in ids {
            if train[i].is_empty() {
                items.push(BucketItem::Empty);
                continue;
            }
            let mut tape = Tape::new();
            let loss = match &mut shared {
                Some(r) => model.loss(&mut tape, &train[i], r),
                None => model.loss(&mut tape, &train[i], &mut owned[li]),
            };
            li += 1;
            let loss_val = tape.value(loss).item() as f64;
            if !loss_val.is_finite() {
                items.push(BucketItem::NonFinite { index: i, loss: loss_val, rolled_back: false });
                continue;
            }
            let mut grads = GradBuffer::new(model.store.len());
            tape.backward_into(loss, &mut grads);
            nodes = nodes.max(tape.len());
            ops.extend(tape.op_counts());
            items.push(BucketItem::Update { loss: loss_val, grads });
        }
    }
    BucketResult { items, nodes, ops, pool: ner_tensor::pool::take_stats() }
}

/// The unified bucketed epoch: chunks of `threads × batch` sentences, one
/// bucket of `batch` per worker, gradients merged in sentence order and
/// applied with a single clipped optimizer step per chunk. Runs both
/// backends so the per-sentence oracle can be compared against the batched
/// path under the *same* schedule.
#[allow(clippy::too_many_arguments)]
fn run_epoch_bucketed(
    model: &mut NerModel,
    train: &[EncodedSentence],
    order: &[usize],
    opt: &mut dyn Optimizer,
    cfg: &TrainConfig,
    epoch: usize,
    pool: &ner_par::ThreadPool,
    rng: &mut impl Rng,
    op_totals: &mut [u64],
) -> EpochStats {
    let batched = cfg.trainer == TrainerKind::Batched;
    let workers = pool.threads().max(1);
    let bucket = cfg.batch.max(1);
    // One worker, one sentence per bucket: replay the historical serial
    // schedule — dropout draws come straight from the shared epoch rng
    // and no per-chunk seed is drawn.
    let serial_replay = workers == 1 && bucket == 1;
    let mut stats = EpochStats::default();
    for chunk in order.chunks(workers * bucket) {
        let results: Vec<BucketResult> = if serial_replay {
            vec![run_bucket(model, train, chunk, 0, batched, RngSrc::Shared(rng))]
        } else {
            // One seed per chunk; each sentence derives an independent
            // stream from its position, so masks don't depend on worker
            // scheduling or the backend.
            let batch_seed: u64 = rng.gen();
            let model_ref: &NerModel = model;
            let buckets: Vec<(usize, &[usize])> =
                chunk.chunks(bucket).enumerate().map(|(w, ids)| (w * bucket, ids)).collect();
            pool.map(buckets.len(), |w| {
                let (k0, ids) = buckets[w];
                run_bucket(model_ref, train, ids, k0 as u64, batched, RngSrc::Seeded(batch_seed))
            })
        };

        // Merge in sentence order — deterministic for a fixed thread
        // count and bucket size, and identical between backends.
        let mut contributed = 0usize;
        for res in results {
            stats.peak_nodes = stats.peak_nodes.max(res.nodes);
            for (class, n) in res.ops {
                op_totals[class as usize] += n as u64;
            }
            let p = res.pool;
            if p.hits + p.misses + p.recycled > 0 {
                ner_obs::counter("pool.hits", p.hits as f64);
                ner_obs::counter("pool.misses", p.misses as f64);
                ner_obs::counter("pool.recycled", p.recycled as f64);
            }
            for item in res.items {
                match item {
                    BucketItem::Empty => {}
                    BucketItem::NonFinite { index, loss, rolled_back } => {
                        stats.skipped += 1;
                        if rolled_back {
                            ner_obs::warn(format!(
                                "epoch {epoch}: sentence {index} rolled back with its bucket (non-finite bucket loss); update skipped"
                            ));
                        } else {
                            ner_obs::warn(format!(
                                "epoch {epoch}: non-finite loss ({loss}) on sentence {index}; update skipped"
                            ));
                        }
                    }
                    BucketItem::Update { loss, grads } => {
                        stats.total_loss += loss;
                        grads.apply_to(&mut model.store);
                        contributed += 1;
                    }
                }
            }
        }
        if contributed == 0 {
            continue;
        }
        let norm = if cfg.clip > 0.0 {
            model.store.clip_grad_norm(cfg.clip)
        } else {
            model.store.grad_global_norm()
        };
        if !norm.is_finite() {
            stats.skipped += contributed;
            ner_obs::warn(format!(
                "epoch {epoch}: non-finite gradient norm on a {contributed}-sentence chunk; update skipped"
            ));
            model.store.zero_grad();
            continue;
        }
        stats.norm_sum += norm as f64;
        stats.applied += 1;
        opt.step(&mut model.store);
    }
    stats
}

fn make_optimizer(cfg: &TrainConfig) -> Box<dyn Optimizer> {
    match cfg.optimizer {
        OptimizerKind::Sgd => Box::new(Sgd::new(cfg.lr)),
        OptimizerKind::SgdMomentum => Box::new(Sgd::new(cfg.lr).with_momentum(0.9)),
        OptimizerKind::Adam => Box::new(Adam::new(cfg.lr)),
    }
}

fn schedule(cfg: &TrainConfig) -> LrSchedule {
    match cfg.schedule {
        LrScheduleKind::Constant => LrSchedule::Constant,
        LrScheduleKind::InverseTime { decay } => LrSchedule::InverseTime { decay },
    }
}

fn effective_lr(cfg: &TrainConfig, epoch: usize) -> f32 {
    match cfg.schedule {
        LrScheduleKind::Constant => cfg.lr,
        LrScheduleKind::InverseTime { decay } => cfg.lr / (1.0 + decay * epoch as f32),
    }
}

/// Trains `model` on `train`, optionally early-stopping on `dev` micro-F1.
pub fn train(
    model: &mut NerModel,
    train: &[EncodedSentence],
    dev: Option<&[EncodedSentence]>,
    cfg: &TrainConfig,
    rng: &mut impl Rng,
) -> TrainReport {
    assert!(!train.is_empty(), "training set is empty");
    let _train_span = ner_obs::span("train");
    ner_obs::gauge("params.scalars", model.store.num_scalars() as f64);
    let pool = ner_par::global();
    ner_obs::gauge("par.threads", pool.threads() as f64);
    // Named gauges so run logs and `report` identify the gradient backend.
    let backend = match cfg.trainer {
        TrainerKind::Batched => "batched",
        TrainerKind::PerSentence => "per-sentence",
    };
    ner_obs::gauge("train.batched", (cfg.trainer == TrainerKind::Batched) as u8 as f64);
    ner_obs::gauge("train.batch", cfg.batch.max(1) as f64);
    ner_obs::info(format!("trainer backend {backend} (batch {})", cfg.batch.max(1)));
    let epoch_tokens: usize = train.iter().map(|s| s.len()).sum();
    let mut opt = make_optimizer(cfg);
    let sched = schedule(cfg);
    let mut order: Vec<usize> = (0..train.len()).collect();

    let mut records = Vec::with_capacity(cfg.epochs);
    let mut best_f1 = f64::NEG_INFINITY;
    let mut best_epoch = 0usize;
    let mut best_params = None;
    let mut stale = 0usize;
    let mut stop_reason = "completed".to_string();
    let mut op_totals = [0u64; ner_tensor::OpClass::ALL.len()];

    for epoch in 0..cfg.epochs {
        let epoch_span = ner_obs::span("epoch");
        let epoch_start = std::time::Instant::now();
        sched.apply(opt.as_mut(), cfg.lr, epoch);
        if cfg.shuffle {
            order.shuffle(rng);
        }
        // The historical per-sentence runners are kept verbatim for the
        // oracle configuration; everything else goes through the unified
        // bucketed runner (which replays them bit for bit at batch == 1).
        let historical = cfg.trainer == TrainerKind::PerSentence && cfg.batch <= 1;
        let stats = if !historical {
            run_epoch_bucketed(
                model,
                train,
                &order,
                opt.as_mut(),
                cfg,
                epoch,
                &pool,
                rng,
                &mut op_totals,
            )
        } else if pool.threads() > 1 {
            run_epoch_parallel(
                model,
                train,
                &order,
                opt.as_mut(),
                cfg,
                epoch,
                &pool,
                rng,
                &mut op_totals,
            )
        } else {
            run_epoch_serial(model, train, &order, opt.as_mut(), cfg, epoch, rng, &mut op_totals)
        };
        let EpochStats { total_loss, norm_sum, applied, skipped, peak_nodes } = stats;
        let train_loss = total_loss / train.len() as f64;

        // Export the coordinator thread's buffer-pool counters (workers
        // export their own deltas per update in the parallel path).
        let pstats = ner_tensor::pool::take_stats();
        if pstats.hits + pstats.misses + pstats.recycled > 0 {
            ner_obs::counter("pool.hits", pstats.hits as f64);
            ner_obs::counter("pool.misses", pstats.misses as f64);
            ner_obs::counter("pool.recycled", pstats.recycled as f64);
        }

        let dev_f1 = dev.map(|d| {
            let _eval_span = ner_obs::span("eval");
            evaluate_model(model, d).micro.f1
        });
        drop(epoch_span);
        let wall = epoch_start.elapsed();
        let tokens_per_s =
            if wall.as_secs_f64() > 0.0 { epoch_tokens as f64 / wall.as_secs_f64() } else { 0.0 };
        let record = EpochRecord {
            epoch,
            train_loss,
            dev_f1,
            grad_norm: if applied > 0 { norm_sum / applied as f64 } else { 0.0 },
            lr: effective_lr(cfg, epoch),
            wall_ms: wall.as_millis() as u64,
            tokens_per_s,
            peak_tape_nodes: peak_nodes,
            skipped_updates: skipped,
        };
        ner_obs::gauge_max("tape.peak_nodes", peak_nodes as f64);
        ner_obs::gauge_max("train.tokens_per_s", tokens_per_s);
        // Always registered (even at 0) so run logs make "no updates were
        // skipped" explicit rather than ambiguous.
        ner_obs::counter("train.skipped_updates", skipped as f64);
        ner_obs::emit_record("epoch", &record);
        ner_obs::info(format!(
            "epoch {:>2}  loss {:>9.4}  |grad| {:>7.3}  lr {:.4}{}  [{} ms]",
            record.epoch,
            record.train_loss,
            record.grad_norm,
            record.lr,
            record.dev_f1.map_or(String::new(), |f| format!("  dev-F1 {:.2}%", 100.0 * f)),
            record.wall_ms,
        ));
        records.push(record);

        if let Some(f1) = dev_f1 {
            if f1 > best_f1 {
                best_f1 = f1;
                best_epoch = epoch;
                best_params = Some(model.store.clone());
                stale = 0;
            } else {
                stale += 1;
                if cfg.patience.is_some_and(|p| stale >= p) {
                    stop_reason = format!(
                        "early-stop: dev F1 stale for {stale} epochs (best {best_f1:.4} at epoch {best_epoch})"
                    );
                    break;
                }
            }
        } else {
            best_epoch = epoch;
        }
    }

    for (class, &n) in ner_tensor::OpClass::ALL.iter().zip(&op_totals) {
        if n > 0 {
            ner_obs::counter(&format!("tape.ops.{}", class.name()), n as f64);
        }
    }
    if stop_reason != "completed" {
        ner_obs::info(stop_reason.clone());
    }
    if let Some(params) = best_params {
        model.store = params;
    }
    TrainReport {
        epochs: records,
        best_epoch,
        best_dev_f1: (best_f1 > f64::NEG_INFINITY).then_some(best_f1),
        stop_reason,
    }
}

/// Predicts spans for every sentence, fanning out over the global
/// `ner-par` pool. Prediction is read-only, so the result is identical at
/// any thread count.
pub fn predict_all(model: &NerModel, data: &[EncodedSentence]) -> Vec<Vec<EntitySpan>> {
    let pool = ner_par::global();
    if pool.threads() <= 1 || data.len() < 2 {
        return data.iter().map(|e| model.predict_spans(e)).collect();
    }
    pool.map(data.len(), |i| model.predict_spans(&data[i]))
}

/// Evaluates the model on encoded data with exact/relaxed span metrics.
pub fn evaluate_model(model: &NerModel, data: &[EncodedSentence]) -> EvalResult {
    let golds: Vec<Vec<EntitySpan>> = data.iter().map(|e| e.gold.clone()).collect();
    let preds = predict_all(model, data);
    evaluate(&golds, &preds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CharRepr, DecoderKind, EncoderKind, NerConfig, WordRepr};
    use crate::repr::SentenceEncoder;
    use ner_corpus::{GeneratorConfig, NewsGenerator};
    use ner_text::TagScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_cfg() -> NerConfig {
        NerConfig {
            scheme: TagScheme::Bio,
            word: WordRepr::Random { dim: 16 },
            char_repr: CharRepr::None,
            encoder: EncoderKind::Lstm { hidden: 16, bidirectional: true, layers: 1 },
            decoder: DecoderKind::Crf,
            dropout: 0.1,
            ..NerConfig::default()
        }
    }

    #[test]
    fn bilstm_crf_learns_the_synthetic_corpus() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let train_ds = gen.dataset(&mut rng, 150);
        let test_ds = gen.dataset(&mut rng, 50);
        let enc = SentenceEncoder::from_dataset(&train_ds, TagScheme::Bio, 1);
        let train_enc = enc.encode_dataset(&train_ds, None);
        let test_enc = enc.encode_dataset(&test_ds, None);

        let mut model = NerModel::new(quick_cfg(), &enc, None, &mut rng);
        let cfg = TrainConfig { epochs: 6, ..Default::default() };
        let report = train(&mut model, &train_enc, None, &cfg, &mut rng);
        assert!(
            report.epochs.last().unwrap().train_loss < report.epochs[0].train_loss,
            "loss should fall"
        );
        let result = evaluate_model(&model, &test_enc);
        assert!(
            result.micro.f1 > 0.6,
            "BiLSTM-CRF should reach reasonable F1 on synthetic news, got {}",
            result.micro.f1
        );
    }

    #[test]
    fn early_stopping_restores_best_parameters() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let train_ds = gen.dataset(&mut rng, 60);
        let dev_ds = gen.dataset(&mut rng, 30);
        let enc = SentenceEncoder::from_dataset(&train_ds, TagScheme::Bio, 1);
        let train_enc = enc.encode_dataset(&train_ds, None);
        let dev_enc = enc.encode_dataset(&dev_ds, None);

        let mut model = NerModel::new(quick_cfg(), &enc, None, &mut rng);
        let cfg = TrainConfig { epochs: 5, patience: Some(2), ..Default::default() };
        let report = train(&mut model, &train_enc, Some(&dev_enc), &cfg, &mut rng);
        let best = report.best_dev_f1.unwrap();
        // The restored model must reproduce the recorded best dev F1.
        let now = evaluate_model(&model, &dev_enc).micro.f1;
        assert!((now - best).abs() < 1e-9, "restored {now} vs recorded best {best}");
    }

    #[test]
    fn nan_loss_skips_every_update_and_exports_the_counter() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let ds = gen.dataset(&mut rng, 8);
        let enc = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1);
        let train_enc = enc.encode_dataset(&ds, None);
        let mut model = NerModel::new(quick_cfg(), &enc, None, &mut rng);
        // Poison every parameter: each per-sentence loss is NaN, so the
        // non-finite guard must skip every optimizer update.
        let ids: Vec<_> = model.store.ids().collect();
        for id in ids {
            model.store.value_mut(id).data_mut().fill(f32::NAN);
        }
        let before = ner_obs::counter_value("train.skipped_updates").unwrap_or(0.0);
        let cfg = TrainConfig { epochs: 2, patience: None, ..Default::default() };
        let report = train(&mut model, &train_enc, None, &cfg, &mut rng);
        for e in &report.epochs {
            assert_eq!(e.skipped_updates, train_enc.len(), "epoch {}", e.epoch);
        }
        let after = ner_obs::counter_value("train.skipped_updates").unwrap_or(0.0);
        let expected = (cfg.epochs * train_enc.len()) as f64;
        assert!(
            after - before >= expected,
            "counter should grow by at least {expected} (before {before}, after {after})"
        );
    }

    #[test]
    fn one_nan_gate_bias_trips_the_skip_guard_at_every_simd_level() {
        // A single NaN forget-gate bias must reach the loss through the
        // lane-exact sigmoid. A vector clamp with its min/max operands the
        // wrong way round turns NaN into a finite bound, and training would
        // silently carry on with a poisoned weight. `with_level` forces the
        // calling thread; pool workers run the configured level, which the
        // suite's `NER_SIMD=off` and `NER_SIMD=sse2` runs in CI vary.
        use ner_tensor::simd::{self, SimdLevel};
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut levels = vec![SimdLevel::Off, simd::configured()];
        levels.dedup();
        for lvl in levels {
            let mut rng = StdRng::seed_from_u64(11);
            let ds = gen.dataset(&mut rng, 6);
            let enc = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1);
            let train_enc = enc.encode_dataset(&ds, None);
            let mut model = NerModel::new(quick_cfg(), &enc, None, &mut rng);
            let b = model
                .store
                .ids()
                .find(|&id| model.store.name(id).ends_with(".l0.fw.b"))
                .expect("forward LSTM bias");
            let hidden = model.store.value(b).cols() / 4;
            model.store.value_mut(b).data_mut()[hidden] = f32::NAN;
            let cfg = TrainConfig { epochs: 1, patience: None, ..Default::default() };
            let report =
                simd::with_level(lvl, || train(&mut model, &train_enc, None, &cfg, &mut rng));
            assert_eq!(report.epochs[0].skipped_updates, train_enc.len(), "at {}", lvl.name());
            assert!(
                model.store.value(b).data()[hidden].is_nan(),
                "the poisoned bias was not updated"
            );
        }
    }

    #[test]
    #[should_panic(expected = "training set is empty")]
    fn empty_training_set_rejected() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let ds = gen.dataset(&mut rng, 5);
        let enc = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1);
        let mut model = NerModel::new(quick_cfg(), &enc, None, &mut rng);
        train(&mut model, &[], None, &TrainConfig::default(), &mut rng);
    }
}
