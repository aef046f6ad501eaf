//! # ner-tensor — the deep-learning substrate for `neural-ner`
//!
//! A small, dependency-light dense-tensor library with reverse-mode automatic
//! differentiation, written from scratch for the `neural-ner` workspace. It
//! provides everything the survey's taxonomy (distributed representations →
//! context encoder → tag decoder) needs to be built on a laptop:
//!
//! * [`Tensor`] — contiguous row-major `f32` storage with shape metadata and
//!   the usual non-differentiable math (BLAS-free matmul, elementwise maps).
//! * [`Tape`] — a build-then-backpropagate autograd graph. Every operation
//!   pushes a node carrying its value and a backward closure; gradients flow
//!   in reverse topological order (which is simply reverse insertion order).
//! * [`ParamStore`] — trainable parameters that persist across tapes, with
//!   gradient accumulation, named registration and (de)serialization.
//! * [`ops`] — the operation set: matmul, elementwise nonlinearities,
//!   softmax / log-softmax / logsumexp, embedding gather with scatter-add
//!   gradients, 1-D (dilated) convolution, max-over-time pooling, layer
//!   normalization, concatenation / slicing, dropout and classification
//!   losses.
//! * [`optim`] — SGD (+momentum), Adagrad, RMSProp, Adam, AdamW, global-norm
//!   gradient clipping and learning-rate schedules.
//! * [`init`] — Xavier/Glorot, He/Kaiming and uniform initializers.
//!
//! The design favours clarity and determinism: graphs are built per sentence
//! (lengths ≤ ~50) and every random component is seeded. Throughput comes
//! from four mechanisms that never change the floats: cache-blocked matmul
//! and transpose kernels that split output rows across the `ner-par`
//! work-stealing pool above a size threshold (accumulation order per output
//! element is preserved exactly, so serial and parallel results are
//! bit-identical), runtime-dispatched [`simd`] lane kernels (`NER_SIMD`,
//! SSE2/AVX2) whose lanes are independent output elements accumulating in
//! scalar order, with the repo's own `exp`/`sigmoid`/`tanh` built from
//! basic IEEE operations — bit-identical by construction, checked against
//! the scalar oracle — a thread-local [`pool`] of `Vec<f32>` buffers that tape nodes
//! recycle on drop, and a [`GradBuffer`] sink that lets data-parallel
//! trainers backpropagate without mutable access to shared parameters.
//!
//! ```
//! use ner_tensor::{ParamStore, Tape, Tensor, init, optim::{Optimizer, Sgd}};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut store = ParamStore::new();
//! let w = store.register("w", init::xavier(&mut rng, 2, 1));
//!
//! // Fit y = x0 + x1 with a linear model.
//! let mut opt = Sgd::new(0.1);
//! for _ in 0..200 {
//!     let mut tape = Tape::new();
//!     let x = tape.constant(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, -1.0]]));
//!     let y = tape.constant(Tensor::from_rows(&[&[3.0], &[2.0]]));
//!     let wv = tape.param(&store, w);
//!     let pred = tape.matmul(x, wv);
//!     let diff = tape.sub(pred, y);
//!     let sq = tape.mul(diff, diff);
//!     let loss = tape.mean(sq);
//!     tape.backward(loss, &mut store);
//!     opt.step(&mut store);
//! }
//! let learned = store.value(w);
//! assert!((learned.at2(0, 0) - 1.0).abs() < 1e-3);
//! assert!((learned.at2(1, 0) - 1.0).abs() < 1e-3);
//! ```

#![warn(missing_docs)]

pub mod exec;
pub mod fused;
pub mod init;
pub mod kernels;
pub mod nn;
pub mod ops;
pub mod optim;
mod param;
pub mod pool;
pub mod simd;
mod tape;
mod tensor;

pub use exec::{
    BatchedExec, BatchedTapeExec, Exec, FusedExec, FusedVal, PackedExec, PeCache, TapeExec,
};
pub use kernels::PAR_MIN_FLOPS;
pub use param::{ParamId, ParamStore};
pub use simd::SimdLevel;
pub use tape::{GradBuffer, GradSink, OpClass, SegEmitter, Tape, Var};
pub use tensor::Tensor;
