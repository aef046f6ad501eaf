//! The execution backend behind every layer forward.
//!
//! Each neural building block in [`crate::nn`] (and every module built on
//! top of it in `ner-core`) has exactly **one** forward implementation,
//! written against the [`Exec`] trait. The trait has two implementations:
//!
//! * [`Tape`] (aliased [`TapeExec`]) — records an autograd node per
//!   operation so the trainer can backpropagate. The trait methods expand
//!   coarse operations (`affine_act`, `lstm_gates`, …) into exactly the
//!   node chains the historical per-layer forwards pushed, so training
//!   trajectories are preserved.
//! * [`FusedExec`] — tape-free inference. Operations write into pooled
//!   buffers via the fused kernels in [`crate::fused`]; nothing is
//!   recorded, parameters are borrowed rather than copied, and every
//!   intermediate buffer is recycled into the thread-local [`crate::pool`]
//!   when the backend is dropped.
//!
//! **Determinism contract.** For every operation the two backends perform
//! the same floating-point arithmetic in the same order, so a forward pass
//! is bit-identical whichever backend runs it (`tests/prop_fused.rs`,
//! `ner-core/tests/plan_parity.rs`). Coarse operations exist precisely
//! where a fused kernel can skip tape bookkeeping without touching the
//! accumulation order.

use crate::fused::{self, Activation};
use crate::{pool, simd, OpClass, ParamId, ParamStore, Tape, Tensor, Var};
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// An execution backend for layer forwards: either records autograd nodes
/// ([`Tape`]) or evaluates eagerly into pooled buffers ([`FusedExec`]).
///
/// Values are lightweight `Copy` handles; [`value`](Exec::value) reads the
/// tensor behind a handle.
pub trait Exec {
    /// Handle to a computed tensor.
    type V: Copy;

    /// Introduces a literal tensor.
    fn constant(&mut self, value: Tensor) -> Self::V;
    /// Leases a parameter.
    fn param(&mut self, store: &ParamStore, id: ParamId) -> Self::V;
    /// Gathers rows of an embedding table: `[ids.len(), dim]`.
    fn lookup(&mut self, store: &ParamStore, id: ParamId, ids: &[usize]) -> Self::V;
    /// Reads the tensor behind a handle.
    fn value(&self, v: Self::V) -> &Tensor;

    /// Matrix product `a·b`.
    fn matmul(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Matrix transpose.
    fn transpose(&mut self, a: Self::V) -> Self::V;
    /// Elementwise sum.
    fn add(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Elementwise difference.
    fn sub(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Elementwise product.
    fn mul(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Multiplication by a scalar.
    fn scale(&mut self, a: Self::V, s: f32) -> Self::V;
    /// Broadcast-adds the row vector `bias [1, d]` to every row of `m`.
    fn add_bias(&mut self, m: Self::V, bias: Self::V) -> Self::V;
    /// Applies a nonlinearity ([`Activation::None`] is the identity and
    /// returns `a` unchanged on both backends).
    fn activation(&mut self, a: Self::V, act: Activation) -> Self::V;

    /// Fused affine layer `act(x·w + b)` — on the tape this is the
    /// `affine` node followed by the activation node.
    fn affine_act(&mut self, x: Self::V, w: Self::V, b: Self::V, act: Activation) -> Self::V;
    /// Fused same-padded 1-D convolution + activation (layouts of
    /// `Tape::conv1d`).
    fn conv1d_act(
        &mut self,
        x: Self::V,
        w: Self::V,
        b: Self::V,
        k: usize,
        dilation: usize,
        act: Activation,
    ) -> Self::V;
    /// Row-wise layer normalization with learned gain/bias.
    fn layer_norm(&mut self, x: Self::V, gain: Self::V, bias: Self::V) -> Self::V;
    /// Row-wise softmax.
    fn softmax_rows(&mut self, a: Self::V) -> Self::V;
    /// Column-wise max over rows `[n, d] → [1, d]`.
    fn max_over_rows(&mut self, a: Self::V) -> Self::V;

    /// Copies columns `[start, start+len)`.
    fn slice_cols(&mut self, a: Self::V, start: usize, len: usize) -> Self::V;
    /// Copies rows `[start, start+len)`.
    fn slice_rows(&mut self, a: Self::V, start: usize, len: usize) -> Self::V;
    /// Copies row `i` as a `[1, d]` tensor.
    fn row(&mut self, a: Self::V, i: usize) -> Self::V;
    /// Stacks parts vertically.
    fn concat_rows(&mut self, parts: &[Self::V]) -> Self::V;
    /// Concatenates parts side by side.
    fn concat_cols(&mut self, parts: &[Self::V]) -> Self::V;
    /// Reverses the row order.
    fn reverse_rows(&mut self, a: Self::V) -> Self::V;

    /// One LSTM gate application on the pre-activation `pre [1, 4·hidden]`
    /// (gate order i, f, g, o) and previous cell state `c [1, hidden]`;
    /// returns `(h', c')`.
    fn lstm_gates(&mut self, pre: Self::V, c: Self::V, hidden: usize) -> (Self::V, Self::V);
    /// One GRU gate application on the bias-added projections
    /// `xp`/`hp [1, 3·hidden]` (gate order z, r, n) and previous hidden
    /// state; returns `h'`.
    fn gru_gates(&mut self, xp: Self::V, hp: Self::V, h_prev: Self::V, hidden: usize) -> Self::V;

    /// Sinusoidal positional encodings `[n, d]` — [`FusedExec`] serves
    /// them from a shared [`PeCache`] when one is attached.
    fn positional_encoding(&mut self, n: usize, d: usize) -> Self::V;

    /// Runs a whole LSTM pass left to right, `xs [n, d_in] → [n, hidden]`
    /// (gate order i, f, g, o). The provided implementation expands to the
    /// historical per-step chain — lease weights and zero states, then per
    /// step `row`, two `matmul`s, `add`, `add_bias`, [`Exec::lstm_gates`] —
    /// which is what the tape records. [`FusedExec`] overrides it with a
    /// sequence-batched input projection and an in-place gate sweep that
    /// compute the same floats in the same per-element order.
    fn lstm_sequence(
        &mut self,
        store: &ParamStore,
        w_ih: ParamId,
        w_hh: ParamId,
        b: ParamId,
        hidden: usize,
        xs: Self::V,
    ) -> Self::V {
        let n = self.value(xs).rows();
        let w_ih = self.param(store, w_ih);
        let w_hh = self.param(store, w_hh);
        let b = self.param(store, b);
        let mut h = self.constant(Tensor::zeros(1, hidden));
        let mut c = self.constant(Tensor::zeros(1, hidden));
        let mut outputs = Vec::with_capacity(n);
        for t in 0..n {
            let x_t = self.row(xs, t);
            let xp = self.matmul(x_t, w_ih);
            let hp = self.matmul(h, w_hh);
            let s = self.add(xp, hp);
            let pre = self.add_bias(s, b);
            let (h_new, c_new) = self.lstm_gates(pre, c, hidden);
            h = h_new;
            c = c_new;
            outputs.push(h);
        }
        self.concat_rows(&outputs)
    }

    /// Runs a whole GRU pass left to right, `xs [n, d_in] → [n, hidden]`
    /// (gate order z, r, n). Same contract as [`Exec::lstm_sequence`]: the
    /// provided implementation is the historical per-step tape chain,
    /// [`FusedExec`] overrides it with a batched equivalent.
    #[allow(clippy::too_many_arguments)]
    fn gru_sequence(
        &mut self,
        store: &ParamStore,
        w_ih: ParamId,
        w_hh: ParamId,
        b_ih: ParamId,
        b_hh: ParamId,
        hidden: usize,
        xs: Self::V,
    ) -> Self::V {
        let n = self.value(xs).rows();
        let w_ih = self.param(store, w_ih);
        let w_hh = self.param(store, w_hh);
        let b_ih = self.param(store, b_ih);
        let b_hh = self.param(store, b_hh);
        let mut h = self.constant(Tensor::zeros(1, hidden));
        let mut outputs = Vec::with_capacity(n);
        for t in 0..n {
            let x_t = self.row(xs, t);
            let xp0 = self.matmul(x_t, w_ih);
            let xp = self.add_bias(xp0, b_ih);
            let hp0 = self.matmul(h, w_hh);
            let hp = self.add_bias(hp0, b_hh);
            h = self.gru_gates(xp, hp, h, hidden);
            outputs.push(h);
        }
        self.concat_rows(&outputs)
    }
}

/// An [`Exec`] backend that evaluates a whole batch of sentences as one
/// *packed-rows* problem: token rows packed into a single `[N, d]` matrix,
/// segment `s` occupying rows `[offset_of(s), offset_of(s) + len_of(s))` in
/// caller order.
///
/// Two implementations share this shape: [`BatchedExec`] (tape-free
/// inference) and [`BatchedTapeExec`] (autograd recording for batched
/// training). Layer forwards that need per-segment work (attention cores,
/// char compositions, decoder losses) are written once against this trait:
/// packed row-wise operations go through the plain [`Exec`] methods, and
/// per-segment subgraphs run inside [`scoped`](PackedExec::scoped), which
/// routes operations to the per-sentence execution path of the backend —
/// the inner [`FusedExec`] for inference, the raw per-sentence [`Tape`]
/// chain (tagged with the owning segment for gradient routing) for
/// training.
pub trait PackedExec: Exec {
    /// Number of segments (sentences) in the batch.
    fn segments(&self) -> usize;
    /// Length of segment `s`.
    fn len_of(&self, s: usize) -> usize;
    /// Packed row offset of segment `s`.
    fn offset_of(&self, s: usize) -> usize;
    /// Total packed rows across all segments.
    fn total_rows(&self) -> usize;
    /// Copies segment `s` out of a packed `[N, d]` value as its own
    /// `[len_of(s), d]` value.
    fn slice_segment(&mut self, v: Self::V, s: usize) -> Self::V;
    /// Runs `f` in segment `s`'s per-sentence scope: every operation
    /// recorded inside behaves exactly as it would on the per-sentence
    /// backend, and (in training) its parameter gradients are routed to
    /// segment `s`'s buffer.
    fn scoped<R>(&mut self, s: usize, f: impl FnOnce(&mut Self) -> R) -> R;
}

/// The recording backend: [`Tape`] itself. Named for symmetry with
/// [`FusedExec`].
pub type TapeExec = Tape;

impl Exec for Tape {
    type V = Var;

    fn constant(&mut self, value: Tensor) -> Var {
        Tape::constant(self, value)
    }

    fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        Tape::param(self, store, id)
    }

    fn lookup(&mut self, store: &ParamStore, id: ParamId, ids: &[usize]) -> Var {
        self.param_rows(store, id, ids)
    }

    fn value(&self, v: Var) -> &Tensor {
        Tape::value(self, v)
    }

    fn matmul(&mut self, a: Var, b: Var) -> Var {
        Tape::matmul(self, a, b)
    }

    fn transpose(&mut self, a: Var) -> Var {
        Tape::transpose(self, a)
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        Tape::add(self, a, b)
    }

    fn sub(&mut self, a: Var, b: Var) -> Var {
        Tape::sub(self, a, b)
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        Tape::mul(self, a, b)
    }

    fn scale(&mut self, a: Var, s: f32) -> Var {
        Tape::scale(self, a, s)
    }

    fn add_bias(&mut self, m: Var, bias: Var) -> Var {
        Tape::add_bias(self, m, bias)
    }

    fn activation(&mut self, a: Var, act: Activation) -> Var {
        match act {
            Activation::None => a,
            Activation::Relu => self.relu(a),
            Activation::Tanh => self.tanh(a),
            Activation::Sigmoid => self.sigmoid(a),
        }
    }

    fn affine_act(&mut self, x: Var, w: Var, b: Var, act: Activation) -> Var {
        let lin = self.affine(x, w, b);
        Exec::activation(self, lin, act)
    }

    fn conv1d_act(
        &mut self,
        x: Var,
        w: Var,
        b: Var,
        k: usize,
        dilation: usize,
        act: Activation,
    ) -> Var {
        let conv = self.conv1d(x, w, b, k, dilation);
        Exec::activation(self, conv, act)
    }

    fn layer_norm(&mut self, x: Var, gain: Var, bias: Var) -> Var {
        Tape::layer_norm(self, x, gain, bias)
    }

    fn softmax_rows(&mut self, a: Var) -> Var {
        Tape::softmax_rows(self, a)
    }

    fn max_over_rows(&mut self, a: Var) -> Var {
        Tape::max_over_rows(self, a)
    }

    fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        Tape::slice_cols(self, a, start, len)
    }

    fn slice_rows(&mut self, a: Var, start: usize, len: usize) -> Var {
        Tape::slice_rows(self, a, start, len)
    }

    fn row(&mut self, a: Var, i: usize) -> Var {
        Tape::row(self, a, i)
    }

    fn concat_rows(&mut self, parts: &[Var]) -> Var {
        Tape::concat_rows(self, parts)
    }

    fn concat_cols(&mut self, parts: &[Var]) -> Var {
        Tape::concat_cols(self, parts)
    }

    fn reverse_rows(&mut self, a: Var) -> Var {
        Tape::reverse_rows(self, a)
    }

    // Expands to exactly the node chain `LstmCell::step` historically
    // pushed, so training tapes are unchanged node for node.
    fn lstm_gates(&mut self, pre: Var, c: Var, hidden: usize) -> (Var, Var) {
        let h = hidden;
        let i_pre = self.slice_cols(pre, 0, h);
        let f_pre = self.slice_cols(pre, h, h);
        let g_pre = self.slice_cols(pre, 2 * h, h);
        let o_pre = self.slice_cols(pre, 3 * h, h);
        let i = self.sigmoid(i_pre);
        let f = self.sigmoid(f_pre);
        let g = self.tanh(g_pre);
        let o = self.sigmoid(o_pre);
        let fc = Tape::mul(self, f, c);
        let ig = Tape::mul(self, i, g);
        let c_new = Tape::add(self, fc, ig);
        let ct = self.tanh(c_new);
        let h_new = Tape::mul(self, o, ct);
        (h_new, c_new)
    }

    // The historical `GruCell::step` chain, node for node.
    fn gru_gates(&mut self, xp: Var, hp: Var, h_prev: Var, hidden: usize) -> Var {
        let h = hidden;
        let xz = self.slice_cols(xp, 0, h);
        let xr = self.slice_cols(xp, h, h);
        let xn = self.slice_cols(xp, 2 * h, h);
        let hz = self.slice_cols(hp, 0, h);
        let hr = self.slice_cols(hp, h, h);
        let hn = self.slice_cols(hp, 2 * h, h);
        let z_pre = Tape::add(self, xz, hz);
        let z = self.sigmoid(z_pre);
        let r_pre = Tape::add(self, xr, hr);
        let r = self.sigmoid(r_pre);
        let rhn = Tape::mul(self, r, hn);
        let n_pre = Tape::add(self, xn, rhn);
        let n = self.tanh(n_pre);
        // h' = (1−z)⊙n + z⊙h  =  n − z⊙n + z⊙h
        let zn = Tape::mul(self, z, n);
        let zh = Tape::mul(self, z, h_prev);
        let n_minus = Tape::sub(self, n, zn);
        Tape::add(self, n_minus, zh)
    }

    fn positional_encoding(&mut self, n: usize, d: usize) -> Var {
        let pe = crate::nn::positional_encoding(n, d);
        Tape::constant(self, pe)
    }
}

/// A shared, thread-safe cache of sinusoidal positional encodings keyed by
/// `(length, dim)` — encodings are deterministic, so one computation per
/// shape serves every sentence.
#[derive(Default)]
pub struct PeCache {
    cache: Mutex<HashMap<(usize, usize), Arc<Tensor>>>,
}

impl PeCache {
    /// An empty cache.
    pub fn new() -> Self {
        PeCache::default()
    }

    /// Returns the `[n, d]` encoding, computing and caching it on a miss.
    pub fn get(&self, n: usize, d: usize) -> Arc<Tensor> {
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            cache.entry((n, d)).or_insert_with(|| Arc::new(crate::nn::positional_encoding(n, d))),
        )
    }

    /// Number of cached shapes.
    pub fn len(&self) -> usize {
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a [`FusedExec`] slot holds.
enum Slot {
    /// A computed intermediate, recycled into the buffer pool on drop.
    Owned(Tensor),
    /// A cache-shared tensor (positional encodings).
    Shared(Arc<Tensor>),
    /// A borrowed parameter — never copied.
    Param(ParamId),
}

/// Handle to a [`FusedExec`] value.
#[derive(Clone, Copy, Debug)]
pub struct FusedVal(usize);

/// The tape-free inference backend: evaluates each operation eagerly with
/// the fused kernels in [`crate::fused`], writing into pooled buffers.
///
/// Parameters are leased by id (no copy); every owned intermediate is
/// returned to the thread-local buffer [`crate::pool`] when the backend is
/// dropped, so a warm evaluation loop allocates nothing per sentence.
pub struct FusedExec<'a> {
    store: &'a ParamStore,
    pe: Option<&'a PeCache>,
    slots: Vec<Slot>,
}

impl<'a> FusedExec<'a> {
    /// A fresh backend reading parameters from `store`.
    pub fn new(store: &'a ParamStore) -> Self {
        FusedExec { store, pe: None, slots: Vec::with_capacity(64) }
    }

    /// Serves positional encodings from `cache` instead of recomputing.
    pub fn with_pe_cache(mut self, cache: &'a PeCache) -> Self {
        self.pe = Some(cache);
        self
    }

    fn push(&mut self, t: Tensor) -> FusedVal {
        self.slots.push(Slot::Owned(t));
        FusedVal(self.slots.len() - 1)
    }

    fn tensor(&self, v: FusedVal) -> &Tensor {
        match &self.slots[v.0] {
            Slot::Owned(t) => t,
            Slot::Shared(t) => t,
            Slot::Param(id) => self.store.value(*id),
        }
    }
}

impl Drop for FusedExec<'_> {
    fn drop(&mut self) {
        // One recycling sweep instead of per-op frees — mirrors how a
        // dropped Tape returns all node buffers to the pool.
        for slot in self.slots.drain(..) {
            if let Slot::Owned(t) = slot {
                pool::recycle(t.into_data());
            }
        }
    }
}

impl Exec for FusedExec<'_> {
    type V = FusedVal;

    fn constant(&mut self, value: Tensor) -> FusedVal {
        self.push(value)
    }

    fn param(&mut self, store: &ParamStore, id: ParamId) -> FusedVal {
        debug_assert!(std::ptr::eq(store, self.store), "FusedExec reads from its own store");
        let _ = store;
        self.slots.push(Slot::Param(id));
        FusedVal(self.slots.len() - 1)
    }

    fn lookup(&mut self, store: &ParamStore, id: ParamId, ids: &[usize]) -> FusedVal {
        let out = {
            let table = store.value(id);
            let mut out = Tensor::zeros_pooled(ids.len(), table.cols());
            for (r, &i) in ids.iter().enumerate() {
                out.row_mut(r).copy_from_slice(table.row(i));
            }
            out
        };
        self.push(out)
    }

    fn value(&self, v: FusedVal) -> &Tensor {
        self.tensor(v)
    }

    fn matmul(&mut self, a: FusedVal, b: FusedVal) -> FusedVal {
        let out = self.tensor(a).matmul(self.tensor(b));
        self.push(out)
    }

    fn transpose(&mut self, a: FusedVal) -> FusedVal {
        let out = self.tensor(a).transposed();
        self.push(out)
    }

    fn add(&mut self, a: FusedVal, b: FusedVal) -> FusedVal {
        let out = {
            let (av, bv) = (self.tensor(a), self.tensor(b));
            let mut out = Tensor::zeros_pooled(av.rows(), av.cols());
            for ((o, &x), &y) in out.data_mut().iter_mut().zip(av.data()).zip(bv.data()) {
                *o = x + y;
            }
            out
        };
        self.push(out)
    }

    fn sub(&mut self, a: FusedVal, b: FusedVal) -> FusedVal {
        let out = {
            let (av, bv) = (self.tensor(a), self.tensor(b));
            let mut out = Tensor::zeros_pooled(av.rows(), av.cols());
            for ((o, &x), &y) in out.data_mut().iter_mut().zip(av.data()).zip(bv.data()) {
                *o = x - y;
            }
            out
        };
        self.push(out)
    }

    fn mul(&mut self, a: FusedVal, b: FusedVal) -> FusedVal {
        let out = {
            let (av, bv) = (self.tensor(a), self.tensor(b));
            let mut out = Tensor::zeros_pooled(av.rows(), av.cols());
            for ((o, &x), &y) in out.data_mut().iter_mut().zip(av.data()).zip(bv.data()) {
                *o = x * y;
            }
            out
        };
        self.push(out)
    }

    fn scale(&mut self, a: FusedVal, s: f32) -> FusedVal {
        let out = {
            let av = self.tensor(a);
            let mut out = Tensor::zeros_pooled(av.rows(), av.cols());
            for (o, &x) in out.data_mut().iter_mut().zip(av.data()) {
                *o = x * s;
            }
            out
        };
        self.push(out)
    }

    fn add_bias(&mut self, m: FusedVal, bias: FusedVal) -> FusedVal {
        let out = {
            let (mv, bv) = (self.tensor(m), self.tensor(bias));
            let mut out = fused::pooled_copy(mv);
            fused::add_bias_in_place(&mut out, bv);
            out
        };
        self.push(out)
    }

    fn activation(&mut self, a: FusedVal, act: Activation) -> FusedVal {
        if act == Activation::None {
            return a;
        }
        let out = {
            let av = self.tensor(a);
            let mut out = fused::pooled_copy(av);
            act.apply(&mut out);
            out
        };
        self.push(out)
    }

    fn affine_act(&mut self, x: FusedVal, w: FusedVal, b: FusedVal, act: Activation) -> FusedVal {
        let out = fused::affine_act(self.tensor(x), self.tensor(w), self.tensor(b), act);
        self.push(out)
    }

    fn conv1d_act(
        &mut self,
        x: FusedVal,
        w: FusedVal,
        b: FusedVal,
        k: usize,
        dilation: usize,
        act: Activation,
    ) -> FusedVal {
        let out =
            fused::conv1d_act(self.tensor(x), self.tensor(w), self.tensor(b), k, dilation, act);
        self.push(out)
    }

    fn layer_norm(&mut self, x: FusedVal, gain: FusedVal, bias: FusedVal) -> FusedVal {
        let out = fused::layer_norm(self.tensor(x), self.tensor(gain), self.tensor(bias));
        self.push(out)
    }

    fn softmax_rows(&mut self, a: FusedVal) -> FusedVal {
        let out = {
            let mut out = fused::pooled_copy(self.tensor(a));
            fused::softmax_rows_in_place(&mut out);
            out
        };
        self.push(out)
    }

    fn max_over_rows(&mut self, a: FusedVal) -> FusedVal {
        let out = fused::max_over_rows(self.tensor(a));
        self.push(out)
    }

    fn slice_cols(&mut self, a: FusedVal, start: usize, len: usize) -> FusedVal {
        let out = fused::slice_cols(self.tensor(a), start, len);
        self.push(out)
    }

    fn slice_rows(&mut self, a: FusedVal, start: usize, len: usize) -> FusedVal {
        let out = {
            let av = self.tensor(a);
            assert!(start + len <= av.rows(), "slice_rows out of bounds");
            let mut out = Tensor::zeros_pooled(len, av.cols());
            for r in 0..len {
                out.row_mut(r).copy_from_slice(av.row(start + r));
            }
            out
        };
        self.push(out)
    }

    fn row(&mut self, a: FusedVal, i: usize) -> FusedVal {
        let out = {
            let av = self.tensor(a);
            let mut out = Tensor::zeros_pooled(1, av.cols());
            out.row_mut(0).copy_from_slice(av.row(i));
            out
        };
        self.push(out)
    }

    fn concat_rows(&mut self, parts: &[FusedVal]) -> FusedVal {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let out = {
            let total: usize = parts.iter().map(|&p| self.tensor(p).rows()).sum();
            let cols = self.tensor(parts[0]).cols();
            let mut out = Tensor::zeros_pooled(total, cols);
            let mut r = 0;
            for &p in parts {
                let pv = self.tensor(p);
                assert_eq!(pv.cols(), cols, "concat_rows width mismatch");
                for pr in 0..pv.rows() {
                    out.row_mut(r).copy_from_slice(pv.row(pr));
                    r += 1;
                }
            }
            out
        };
        self.push(out)
    }

    fn concat_cols(&mut self, parts: &[FusedVal]) -> FusedVal {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let out = {
            let rows = self.tensor(parts[0]).rows();
            let total: usize = parts.iter().map(|&p| self.tensor(p).cols()).sum();
            let mut out = Tensor::zeros_pooled(rows, total);
            let mut c = 0;
            for &p in parts {
                let pv = self.tensor(p);
                assert_eq!(pv.rows(), rows, "concat_cols height mismatch");
                let w = pv.cols();
                for r in 0..rows {
                    out.row_mut(r)[c..c + w].copy_from_slice(pv.row(r));
                }
                c += w;
            }
            out
        };
        self.push(out)
    }

    fn reverse_rows(&mut self, a: FusedVal) -> FusedVal {
        let out = {
            let av = self.tensor(a);
            let (n, d) = av.shape();
            let mut out = Tensor::zeros_pooled(n, d);
            for r in 0..n {
                out.row_mut(r).copy_from_slice(av.row(n - 1 - r));
            }
            out
        };
        self.push(out)
    }

    // The lane kernels compute the tape's expanded gate chain per unit:
    // cₙ = f·c + i·g, h = o·tanh(cₙ), on the same activations.
    fn lstm_gates(&mut self, pre: FusedVal, c: FusedVal, hidden: usize) -> (FusedVal, FusedVal) {
        let (pv, cv) = (self.tensor(pre), self.tensor(c));
        assert_eq!(pv.shape(), (1, 4 * hidden), "lstm_gates pre-activation shape");
        let mut h_new = Tensor::zeros_pooled(1, hidden);
        let mut c_new = fused::pooled_copy(cv);
        simd::lstm_cell(pv.data(), c_new.data_mut(), h_new.data_mut(), None);
        (self.push(h_new), self.push(c_new))
    }

    // h' = (n − z⊙n) + z⊙h, associated exactly as the tape's sub-then-add
    // chain (see `simd::gru_cell`).
    fn gru_gates(
        &mut self,
        xp: FusedVal,
        hp: FusedVal,
        h_prev: FusedVal,
        hidden: usize,
    ) -> FusedVal {
        let (xv, hv, prev) = (self.tensor(xp), self.tensor(hp), self.tensor(h_prev));
        assert_eq!(xv.shape(), (1, 3 * hidden), "gru_gates projection shape");
        let mut out = Tensor::zeros_pooled(1, hidden);
        simd::gru_cell(xv.data(), hv.data(), prev.data(), out.data_mut(), None);
        self.push(out)
    }

    fn positional_encoding(&mut self, n: usize, d: usize) -> FusedVal {
        match self.pe {
            Some(cache) => {
                self.slots.push(Slot::Shared(cache.get(n, d)));
                FusedVal(self.slots.len() - 1)
            }
            None => {
                let pe = crate::nn::positional_encoding(n, d);
                self.push(pe)
            }
        }
    }

    // Batched override: one `[n, 4h]` input projection for the whole
    // sequence instead of n `[1, 4h]` matmuls, then the shared one-segment
    // sweep with no per-step slot bookkeeping. Per output element the
    // accumulation order equals the per-step chain's (row-wise matmul is
    // the same sweep; `(x + h) + b` is the tape's add-then-add_bias
    // association), so the floats are bit-identical to the default.
    fn lstm_sequence(
        &mut self,
        store: &ParamStore,
        w_ih: ParamId,
        w_hh: ParamId,
        b: ParamId,
        hidden: usize,
        xs: FusedVal,
    ) -> FusedVal {
        let xsv = self.tensor(xs);
        let pk = Packing::new(&[xsv.rows()]);
        let xp = xsv.matmul(store.value(w_ih)); // [n, 4h]
        let out = lstm_packed(&pk, &xp, store.value(w_hh), store.value(b), hidden, None);
        fused::recycle(xp);
        self.push(out)
    }

    // Batched override, same contract as `lstm_sequence`.
    fn gru_sequence(
        &mut self,
        store: &ParamStore,
        w_ih: ParamId,
        w_hh: ParamId,
        b_ih: ParamId,
        b_hh: ParamId,
        hidden: usize,
        xs: FusedVal,
    ) -> FusedVal {
        let xsv = self.tensor(xs);
        let pk = Packing::new(&[xsv.rows()]);
        let mut xp = xsv.matmul(store.value(w_ih)); // [n, 3h]
        fused::add_bias_in_place(&mut xp, store.value(b_ih));
        let out = gru_packed(&pk, &xp, store.value(w_hh), store.value(b_hh), hidden, None);
        fused::recycle(xp);
        self.push(out)
    }
}

/// Where each segment's rows sit in a packed `[N, d]` batch, and the
/// longest-first order the recurrent sweeps walk it in.
#[derive(Clone)]
struct Packing {
    /// Per-segment lengths, caller order.
    lens: Vec<usize>,
    /// Packed row offset of each segment, caller order.
    offsets: Vec<usize>,
    /// Segment indices sorted longest-first (ties by index, so the
    /// ordering — and therefore every float — is deterministic).
    order: Vec<usize>,
    /// `lens[order[p]]` — descending.
    sorted_lens: Vec<usize>,
    /// Total packed rows, `Σ lens`.
    total: usize,
}

impl Packing {
    fn new(lens: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(lens.len());
        let mut total = 0;
        for &l in lens {
            offsets.push(total);
            total += l;
        }
        let mut order: Vec<usize> = (0..lens.len()).collect();
        order.sort_by_key(|&s| std::cmp::Reverse(lens[s]));
        let sorted_lens = order.iter().map(|&s| lens[s]).collect();
        Packing { lens: lens.to_vec(), offsets, order, sorted_lens, total }
    }

    /// How many segments are still alive (length > `t`) at timestep `t`.
    /// Sorted longest-first, the live set is always the prefix
    /// `order[..live_at(t)]`.
    fn live_at(&self, t: usize) -> usize {
        self.sorted_lens.partition_point(|&l| l > t)
    }

    /// Packed row of the segment at sorted position `p`, timestep `t`.
    fn row_at(&self, p: usize, t: usize) -> usize {
        self.offsets[self.order[p]] + t
    }
}

/// Keeps the first `live` rows of the recurrent state: the live prefix only
/// ever shrinks, so a segment's sorted position is stable for its lifetime.
fn shrink_state(state: &mut Tensor, live: usize) {
    if live < state.rows() {
        let cols = state.cols();
        *state = Tensor::from_vec(live, cols, state.data()[..live * cols].to_vec());
    }
}

/// Post-activation values of an LSTM pass kept for the tape backward, all
/// in packed row order.
struct LstmStash {
    /// `i | f | g | o` after their activations, `[N, 4h]`.
    gates: Tensor,
    /// `c` after each update, `[N, h]`.
    cells: Tensor,
    /// `tanh(c)`, `[N, h]`.
    cts: Tensor,
}

/// The one LSTM forward every backend runs: given the input projection
/// `xp [N, 4h]`, one `[live, 4h]` recurrent GEMM per timestep over the
/// segments still alive, the `(x + h) + b` pre-activation build, and the
/// [`simd::lstm_cell`] gate kernel per row. The kernels keep every output
/// element's accumulation order independent of GEMM height, so a row's
/// floats do not depend on which other segments share its batch — a
/// sentence alone is the one-segment case.
fn lstm_packed(
    pk: &Packing,
    xp: &Tensor,
    w_hh: &Tensor,
    b: &Tensor,
    h: usize,
    mut stash: Option<&mut LstmStash>,
) -> Tensor {
    let mut out = Tensor::zeros_pooled(pk.total, h);
    let nseg = pk.order.len();
    let mut hstate = Tensor::zeros(nseg, h);
    let mut c = vec![0.0f32; nseg * h];
    let mut pre = vec![0.0f32; 4 * h];
    let lvl = simd::active();
    for t in 0..pk.sorted_lens[0] {
        let live = pk.live_at(t);
        shrink_state(&mut hstate, live);
        let hp = hstate.matmul(w_hh); // [live, 4h]
        for p in 0..live {
            let r = pk.row_at(p, t);
            simd::add3(lvl, &mut pre, xp.row(r), hp.row(p), b.data());
            let cs = &mut c[p * h..(p + 1) * h];
            let rows = stash.as_deref_mut().map(|s| (s.gates.row_mut(r), s.cts.row_mut(r)));
            simd::lstm_cell(&pre, cs, out.row_mut(r), rows);
            if let Some(s) = stash.as_deref_mut() {
                s.cells.row_mut(r).copy_from_slice(cs);
            }
            hstate.row_mut(p).copy_from_slice(out.row(r));
        }
        fused::recycle(hp);
    }
    out
}

/// Post-activation values of a GRU pass kept for the tape backward.
struct GruStash {
    /// `z | r | n` after their activations, `[N, 3h]`.
    gates: Tensor,
    /// The recurrent `n`-projection after its bias, `[N, h]`.
    hns: Tensor,
}

/// The one GRU forward every backend runs, on the bias-added input
/// projection `xp [N, 3h]`; same live-prefix schedule and height-independence
/// argument as [`lstm_packed`], with [`simd::gru_cell`] per row.
fn gru_packed(
    pk: &Packing,
    xp: &Tensor,
    w_hh: &Tensor,
    b_hh: &Tensor,
    h: usize,
    mut stash: Option<&mut GruStash>,
) -> Tensor {
    let mut out = Tensor::zeros_pooled(pk.total, h);
    let mut hstate = Tensor::zeros(pk.order.len(), h);
    for t in 0..pk.sorted_lens[0] {
        let live = pk.live_at(t);
        shrink_state(&mut hstate, live);
        let mut hp = hstate.matmul(w_hh); // [live, 3h]
        fused::add_bias_in_place(&mut hp, b_hh);
        for p in 0..live {
            let r = pk.row_at(p, t);
            let h_row = hp.row(p);
            let gates = stash.as_deref_mut().map(|s| {
                s.hns.row_mut(r).copy_from_slice(&h_row[2 * h..]);
                s.gates.row_mut(r)
            });
            simd::gru_cell(xp.row(r), h_row, hstate.row(p), out.row_mut(r), gates);
            hstate.row_mut(p).copy_from_slice(out.row(r));
        }
        fused::recycle(hp);
    }
    out
}

/// The cross-sentence batched inference backend: evaluates a whole batch of
/// sentences as one *packed-rows* problem.
///
/// The batch's token rows are packed into a single `[N, d]` matrix
/// (`N = Σ lenᵢ`), segment `s` occupying rows
/// `[offset_of(s), offset_of(s) + len_of(s))` in caller order. Row-wise
/// operations (affine layers, activations, layer norm, embedding lookups)
/// need no special handling — the inner [`FusedExec`] computes each packed
/// row exactly as it would the same row of a single sentence. The
/// sequence-shaped operations are overridden to respect segment
/// boundaries:
///
/// * [`lstm_sequence`](Exec::lstm_sequence) / [`gru_sequence`](Exec::gru_sequence)
///   run **one recurrent GEMM per timestep across the whole batch**: the
///   hidden states of every sentence still alive at timestep `t` form a
///   `[live, h]` matrix multiplied against `w_hh` in a single call.
///   Segments are ordered longest-first internally, so the live set at any
///   timestep is a contiguous prefix — the "per-timestep live-row mask" is
///   a prefix length, and shorter sentences drop out cleanly with no
///   padding arithmetic.
/// * [`conv1d_act`](Exec::conv1d_act) and
///   [`reverse_rows`](Exec::reverse_rows) apply per segment (a convolution
///   window must not straddle a sentence boundary).
/// * [`positional_encoding`](Exec::positional_encoding) stacks the
///   per-segment encodings.
///
/// **Float-parity contract.** The kernels in `crate::kernels` keep the
/// per-output-element accumulation order independent of how many rows a
/// GEMM has, and every backend's recurrent pass is the one live-prefix
/// sweep (`lstm_packed`/`gru_packed`) over the lane-exact
/// [`simd::lstm_cell`]/[`simd::gru_cell`] kernels, so every packed output
/// row is **bit-identical** to the row the per-sentence path produces —
/// not just tag-identical (`ner-core/tests/prop_batched.rs` pins this
/// across the model zoo).
///
/// Operations whose inputs are *not* packed token rows (per-word character
/// matrices, per-segment attention scores, greedy decoder steps) must run
/// on the [`inner`](BatchedExec::inner_mut) backend directly; the two share
/// one slot space, so handles interchange freely.
pub struct BatchedExec<'a> {
    inner: FusedExec<'a>,
    pk: Packing,
    /// Inside a [`PackedExec::scoped`] call: packed overrides stand down
    /// and delegate to the inner per-sentence backend, because the values
    /// in flight are per-segment tensors, not packed rows.
    in_scope: bool,
}

impl<'a> BatchedExec<'a> {
    /// A fresh batched backend for segments of the given lengths.
    ///
    /// # Panics
    /// Panics if `lens` is empty or contains a zero length — empty
    /// sentences must be filtered out before packing.
    pub fn new(store: &'a ParamStore, lens: &[usize]) -> Self {
        assert!(!lens.is_empty(), "BatchedExec needs at least one segment");
        assert!(lens.iter().all(|&l| l > 0), "BatchedExec segments must be non-empty");
        BatchedExec { inner: FusedExec::new(store), pk: Packing::new(lens), in_scope: false }
    }

    /// Serves positional encodings from `cache` instead of recomputing.
    pub fn with_pe_cache(mut self, cache: &'a PeCache) -> Self {
        self.inner = self.inner.with_pe_cache(cache);
        self
    }

    /// Number of segments (sentences) in the batch.
    pub fn segments(&self) -> usize {
        self.pk.lens.len()
    }

    /// Length of segment `s`.
    pub fn len_of(&self, s: usize) -> usize {
        self.pk.lens[s]
    }

    /// Packed row offset of segment `s`.
    pub fn offset_of(&self, s: usize) -> usize {
        self.pk.offsets[s]
    }

    /// Total packed rows across all segments.
    pub fn total_rows(&self) -> usize {
        self.pk.total
    }

    /// The inner per-sentence backend, for operations on tensors that are
    /// not packed token rows (char matrices, attention cores, decoders).
    pub fn inner_mut(&mut self) -> &mut FusedExec<'a> {
        &mut self.inner
    }

    /// Copies segment `s` out of a packed `[N, d]` value as its own
    /// `[len_of(s), d]` value.
    pub fn slice_segment(&mut self, v: FusedVal, s: usize) -> FusedVal {
        let (off, len) = (self.pk.offsets[s], self.pk.lens[s]);
        Exec::slice_rows(&mut self.inner, v, off, len)
    }
}

impl Exec for BatchedExec<'_> {
    type V = FusedVal;

    fn constant(&mut self, value: Tensor) -> FusedVal {
        self.inner.constant(value)
    }

    fn param(&mut self, store: &ParamStore, id: ParamId) -> FusedVal {
        self.inner.param(store, id)
    }

    fn lookup(&mut self, store: &ParamStore, id: ParamId, ids: &[usize]) -> FusedVal {
        self.inner.lookup(store, id, ids)
    }

    fn value(&self, v: FusedVal) -> &Tensor {
        self.inner.value(v)
    }

    fn matmul(&mut self, a: FusedVal, b: FusedVal) -> FusedVal {
        self.inner.matmul(a, b)
    }

    fn transpose(&mut self, a: FusedVal) -> FusedVal {
        self.inner.transpose(a)
    }

    fn add(&mut self, a: FusedVal, b: FusedVal) -> FusedVal {
        self.inner.add(a, b)
    }

    fn sub(&mut self, a: FusedVal, b: FusedVal) -> FusedVal {
        self.inner.sub(a, b)
    }

    fn mul(&mut self, a: FusedVal, b: FusedVal) -> FusedVal {
        self.inner.mul(a, b)
    }

    fn scale(&mut self, a: FusedVal, s: f32) -> FusedVal {
        self.inner.scale(a, s)
    }

    fn add_bias(&mut self, m: FusedVal, bias: FusedVal) -> FusedVal {
        self.inner.add_bias(m, bias)
    }

    fn activation(&mut self, a: FusedVal, act: Activation) -> FusedVal {
        self.inner.activation(a, act)
    }

    fn affine_act(&mut self, x: FusedVal, w: FusedVal, b: FusedVal, act: Activation) -> FusedVal {
        self.inner.affine_act(x, w, b, act)
    }

    // A convolution window must not straddle a sentence boundary, so the
    // packed input is convolved per segment; each segment's rows come out
    // bit-identical to convolving that sentence alone.
    fn conv1d_act(
        &mut self,
        x: FusedVal,
        w: FusedVal,
        b: FusedVal,
        k: usize,
        dilation: usize,
        act: Activation,
    ) -> FusedVal {
        if self.in_scope || PackedExec::segments(self) <= 1 {
            return self.inner.conv1d_act(x, w, b, k, dilation, act);
        }
        let out = {
            let xv = self.inner.tensor(x);
            let wv = self.inner.tensor(w);
            let bv = self.inner.tensor(b);
            assert_eq!(
                xv.rows(),
                self.pk.total,
                "BatchedExec::conv1d_act expects packed token rows"
            );
            let mut out: Option<Tensor> = None;
            for s in 0..self.pk.lens.len() {
                let (off, len) = (self.pk.offsets[s], self.pk.lens[s]);
                let mut seg = Tensor::zeros_pooled(len, xv.cols());
                for r in 0..len {
                    seg.row_mut(r).copy_from_slice(xv.row(off + r));
                }
                let res = fused::conv1d_act(&seg, wv, bv, k, dilation, act);
                let dst =
                    out.get_or_insert_with(|| Tensor::zeros_pooled(self.pk.total, res.cols()));
                for r in 0..len {
                    dst.row_mut(off + r).copy_from_slice(res.row(r));
                }
                fused::recycle(res);
                fused::recycle(seg);
            }
            out.expect("at least one segment")
        };
        self.inner.push(out)
    }

    fn layer_norm(&mut self, x: FusedVal, gain: FusedVal, bias: FusedVal) -> FusedVal {
        self.inner.layer_norm(x, gain, bias)
    }

    fn softmax_rows(&mut self, a: FusedVal) -> FusedVal {
        self.inner.softmax_rows(a)
    }

    fn max_over_rows(&mut self, a: FusedVal) -> FusedVal {
        self.inner.max_over_rows(a)
    }

    fn slice_cols(&mut self, a: FusedVal, start: usize, len: usize) -> FusedVal {
        self.inner.slice_cols(a, start, len)
    }

    fn slice_rows(&mut self, a: FusedVal, start: usize, len: usize) -> FusedVal {
        self.inner.slice_rows(a, start, len)
    }

    fn row(&mut self, a: FusedVal, i: usize) -> FusedVal {
        self.inner.row(a, i)
    }

    fn concat_rows(&mut self, parts: &[FusedVal]) -> FusedVal {
        self.inner.concat_rows(parts)
    }

    fn concat_cols(&mut self, parts: &[FusedVal]) -> FusedVal {
        self.inner.concat_cols(parts)
    }

    // Sequence reversal is per sentence: each segment's rows flip in
    // place, never crossing its boundary.
    fn reverse_rows(&mut self, a: FusedVal) -> FusedVal {
        if self.in_scope || PackedExec::segments(self) <= 1 {
            return self.inner.reverse_rows(a);
        }
        let out = {
            let av = self.inner.tensor(a);
            assert_eq!(
                av.rows(),
                self.pk.total,
                "BatchedExec::reverse_rows expects packed token rows"
            );
            let mut out = Tensor::zeros_pooled(self.pk.total, av.cols());
            for s in 0..self.pk.lens.len() {
                let (off, len) = (self.pk.offsets[s], self.pk.lens[s]);
                for r in 0..len {
                    out.row_mut(off + r).copy_from_slice(av.row(off + len - 1 - r));
                }
            }
            out
        };
        self.inner.push(out)
    }

    fn lstm_gates(&mut self, pre: FusedVal, c: FusedVal, hidden: usize) -> (FusedVal, FusedVal) {
        self.inner.lstm_gates(pre, c, hidden)
    }

    fn gru_gates(
        &mut self,
        xp: FusedVal,
        hp: FusedVal,
        h_prev: FusedVal,
        hidden: usize,
    ) -> FusedVal {
        self.inner.gru_gates(xp, hp, h_prev, hidden)
    }

    // Each segment restarts its positional clock: the packed encoding is
    // the per-segment `[len, d]` encodings stacked in caller order.
    fn positional_encoding(&mut self, n: usize, d: usize) -> FusedVal {
        if self.in_scope || PackedExec::segments(self) <= 1 {
            return self.inner.positional_encoding(n, d);
        }
        assert_eq!(n, self.pk.total, "BatchedExec::positional_encoding expects packed token rows");
        let out = {
            let mut out = Tensor::zeros_pooled(n, d);
            for s in 0..self.pk.lens.len() {
                let (off, len) = (self.pk.offsets[s], self.pk.lens[s]);
                match self.inner.pe {
                    Some(cache) => {
                        let pe = cache.get(len, d);
                        for r in 0..len {
                            out.row_mut(off + r).copy_from_slice(pe.row(r));
                        }
                    }
                    None => {
                        let pe = crate::nn::positional_encoding(len, d);
                        for r in 0..len {
                            out.row_mut(off + r).copy_from_slice(pe.row(r));
                        }
                        fused::recycle(pe);
                    }
                }
            }
            out
        };
        self.inner.push(out)
    }

    // One `[N, 4h]` input projection for the whole batch, then the shared
    // live-prefix sweep: every output row is bit-identical to scoring its
    // sentence alone (see `lstm_packed`).
    fn lstm_sequence(
        &mut self,
        store: &ParamStore,
        w_ih: ParamId,
        w_hh: ParamId,
        b: ParamId,
        hidden: usize,
        xs: FusedVal,
    ) -> FusedVal {
        if self.in_scope {
            return self.inner.lstm_sequence(store, w_ih, w_hh, b, hidden, xs);
        }
        let xsv = self.inner.tensor(xs);
        assert_eq!(
            xsv.rows(),
            self.pk.total,
            "BatchedExec::lstm_sequence expects packed token rows"
        );
        let xp = xsv.matmul(store.value(w_ih)); // [N, 4h]
        let out = lstm_packed(&self.pk, &xp, store.value(w_hh), store.value(b), hidden, None);
        fused::recycle(xp);
        self.inner.push(out)
    }

    // Batched override, same contract as `lstm_sequence`.
    fn gru_sequence(
        &mut self,
        store: &ParamStore,
        w_ih: ParamId,
        w_hh: ParamId,
        b_ih: ParamId,
        b_hh: ParamId,
        hidden: usize,
        xs: FusedVal,
    ) -> FusedVal {
        if self.in_scope {
            return self.inner.gru_sequence(store, w_ih, w_hh, b_ih, b_hh, hidden, xs);
        }
        let xsv = self.inner.tensor(xs);
        assert_eq!(
            xsv.rows(),
            self.pk.total,
            "BatchedExec::gru_sequence expects packed token rows"
        );
        let mut xp = xsv.matmul(store.value(w_ih)); // [N, 3h]
        fused::add_bias_in_place(&mut xp, store.value(b_ih));
        let out = gru_packed(&self.pk, &xp, store.value(w_hh), store.value(b_hh), hidden, None);
        fused::recycle(xp);
        self.inner.push(out)
    }
}

impl PackedExec for BatchedExec<'_> {
    fn segments(&self) -> usize {
        self.pk.lens.len()
    }

    fn len_of(&self, s: usize) -> usize {
        self.pk.lens[s]
    }

    fn offset_of(&self, s: usize) -> usize {
        self.pk.offsets[s]
    }

    fn total_rows(&self) -> usize {
        self.pk.total
    }

    fn slice_segment(&mut self, v: FusedVal, s: usize) -> FusedVal {
        BatchedExec::slice_segment(self, v, s)
    }

    // Inside a scope the values in flight are per-segment tensors, so the
    // packed overrides stand down and everything runs on the inner fused
    // backend — exactly what `inner_mut` callers did by hand.
    fn scoped<R>(&mut self, _s: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.in_scope;
        self.in_scope = true;
        let out = f(self);
        self.in_scope = prev;
        out
    }
}

/// Row-copies `[off, off + len)` of `t` into a fresh `[len, cols]` tensor —
/// the bytes a per-sentence oracle would have seen for that segment.
fn rows_of(t: &Tensor, off: usize, len: usize) -> Tensor {
    let mut out = Tensor::zeros(len, t.cols());
    for r in 0..len {
        out.row_mut(r).copy_from_slice(t.row(off + r));
    }
    out
}

/// The batched **training** backend: records autograd nodes over the same
/// packed, length-sorted `[N, d]` layout [`BatchedExec`] uses for
/// inference, on a caller-provided [`Tape`].
///
/// Packed row-wise operations (projections, bias adds, layer norm,
/// convolutions, the whole-sequence LSTM/GRU sweeps) become *one* node for
/// the whole batch: the forward computes the same floats in the same order
/// as the fused batched backend (so `[B, T]` training forwards are
/// bit-identical to serving's), and the backward rule re-derives each
/// **segment's** parameter gradients with the per-sentence formulas on that
/// segment's row slice, emitting them through the tape's
/// [`SegEmitter`](crate::SegEmitter) so
/// [`Tape::backward_into_segmented`] can keep one
/// [`GradBuffer`](crate::GradBuffer) per sentence bit-identical to the historical
/// one-tape-per-sentence trainer. Per-segment subgraphs (char
/// compositions, attention cores, decoder losses) run inside
/// [`PackedExec::scoped`], which records the ordinary per-sentence node
/// chain tagged with the owning segment.
///
/// Two deliberate deviations from naive "replay the oracle" are proven
/// harmless in DESIGN.md ("Batched training"): zero-initialized
/// accumulators and skipped zero-padding adds can flip the sign of a ±0.0
/// gradient, and the full-height `dX` GEMMs rely on the kernels'
/// per-output-element accumulation order being height-independent
/// (pinned by `kernels::tests`).
pub struct BatchedTapeExec<'t> {
    tape: &'t mut Tape,
    pk: Packing,
    /// `Some(s)` inside a [`PackedExec::scoped`] call: every operation
    /// delegates to the raw per-sentence tape chain, tagged with segment
    /// `s` for gradient routing.
    scope: Option<usize>,
}

impl<'t> BatchedTapeExec<'t> {
    /// A fresh batched recording backend over `tape` for segments of the
    /// given lengths.
    ///
    /// # Panics
    /// Panics if `lens` is empty or contains a zero length — empty
    /// sentences must be filtered out before packing.
    pub fn new(tape: &'t mut Tape, lens: &[usize]) -> Self {
        assert!(!lens.is_empty(), "BatchedTapeExec needs at least one segment");
        assert!(lens.iter().all(|&l| l > 0), "BatchedTapeExec segments must be non-empty");
        BatchedTapeExec { tape, pk: Packing::new(lens), scope: None }
    }

    /// Inverted dropout over the packed rows, one RNG stream per segment:
    /// segment `s` draws exactly the `len_of(s) · d` row-major mask values
    /// the per-sentence oracle would draw from `rngs[s]`, so masks — and
    /// therefore every trained float — match the one-tape-per-sentence
    /// trainer. With `p == 0` this is the identity (no node), mirroring
    /// [`Tape::dropout`].
    pub fn dropout_packed(&mut self, a: Var, p: f32, rngs: &mut [impl Rng]) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1)");
        if p == 0.0 {
            return a;
        }
        assert_eq!(rngs.len(), self.pk.lens.len(), "one RNG stream per segment");
        let v = self.tape.value(a);
        assert_eq!(v.rows(), self.pk.total, "dropout_packed expects packed token rows");
        let cols = v.cols();
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let mut mask: Vec<f32> = Vec::with_capacity(self.pk.total * cols);
        for (s, rng) in rngs.iter_mut().enumerate() {
            let n = self.pk.lens[s] * cols;
            mask.extend((0..n).map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 }));
        }
        let mut out = v.clone();
        for (o, &m) in out.data_mut().iter_mut().zip(&mask) {
            *o *= m;
        }
        self.tape.custom_in_class(OpClass::Dropout, out, &[a], move |g| {
            let mut ga = g.clone();
            for (o, &m) in ga.data_mut().iter_mut().zip(&mask) {
                *o *= m;
            }
            vec![Some(ga)]
        })
    }

    /// The underlying tape, for per-segment subgraphs that need
    /// `Tape`-only operations (decoder losses, CRF custom nodes). Use
    /// inside [`PackedExec::scoped`] so the recorded nodes are tagged
    /// with the owning segment; unscoped parameter leaves reached by the
    /// segmented backward panic.
    pub fn tape_mut(&mut self) -> &mut Tape {
        self.tape
    }

    /// Clones of the layout vectors for capture in backward closures.
    fn layout(&self) -> (Vec<usize>, Vec<usize>) {
        (self.pk.lens.clone(), self.pk.offsets.clone())
    }
}

impl Exec for BatchedTapeExec<'_> {
    type V = Var;

    fn constant(&mut self, value: Tensor) -> Var {
        self.tape.constant(value)
    }

    fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.tape.param(store, id)
    }

    // Packed word-level lookup: one gather node for all segments; the
    // backward emits each segment's `(indices, rows)` scatter exactly as
    // its per-sentence `param_rows` leaf would have sunk it. Scoped (or
    // non-packed) lookups fall through to the plain leaf, which routes by
    // its segment tag — an unscoped non-packed lookup would panic in the
    // segmented backward, by design.
    fn lookup(&mut self, store: &ParamStore, id: ParamId, ids: &[usize]) -> Var {
        if self.scope.is_some() || ids.len() != self.pk.total {
            return self.tape.param_rows(store, id, ids);
        }
        let (lens, offsets) = self.layout();
        let ids_c = ids.to_vec();
        let value = store.value(id).gather_rows(ids);
        self.tape.custom_segmented(OpClass::Embedding, value, &[], move |g, em| {
            for s in 0..lens.len() {
                let (off, len) = (offsets[s], lens[s]);
                em.rows(s, id, ids_c[off..off + len].to_vec(), rows_of(g, off, len));
            }
            vec![]
        })
    }

    fn value(&self, v: Var) -> &Tensor {
        self.tape.value(v)
    }

    // A projection of the packed rows by a parameter matrix becomes one
    // packed GEMM node: `dX` is the full-height `g·Wᵀ` (bit-identical per
    // row because the kernels' accumulation order is height-independent),
    // and each segment's `dW = x_sᵀ·g_s` is re-derived on its row slice —
    // the per-sentence formula on the per-sentence bytes.
    fn matmul(&mut self, a: Var, b: Var) -> Var {
        if self.scope.is_none() {
            if let Some(id) = self.tape.param_id_of(b) {
                if self.tape.value(a).rows() == self.pk.total {
                    let (lens, offsets) = self.layout();
                    let va = self.tape.value(a).clone();
                    let vb = self.tape.value(b).clone();
                    let out = va.matmul(&vb);
                    return self.tape.custom_segmented(
                        OpClass::MatMul,
                        out,
                        &[a, b],
                        move |g, em| {
                            for s in 0..lens.len() {
                                let (off, len) = (offsets[s], lens[s]);
                                let xs = rows_of(&va, off, len);
                                let gs = rows_of(g, off, len);
                                em.dense(s, id, xs.matmul_tn(&gs));
                            }
                            vec![Some(g.matmul_nt(&vb)), None]
                        },
                    );
                }
            }
        }
        Tape::matmul(self.tape, a, b)
    }

    fn transpose(&mut self, a: Var) -> Var {
        Tape::transpose(self.tape, a)
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        Tape::add(self.tape, a, b)
    }

    fn sub(&mut self, a: Var, b: Var) -> Var {
        Tape::sub(self.tape, a, b)
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        Tape::mul(self.tape, a, b)
    }

    fn scale(&mut self, a: Var, s: f32) -> Var {
        Tape::scale(self.tape, a, s)
    }

    // Packed bias add: forward is the oracle's row loop over all packed
    // rows; each segment's `db` is the oracle's zero-init column sum over
    // its own rows, ascending.
    fn add_bias(&mut self, m: Var, bias: Var) -> Var {
        if self.scope.is_none() {
            if let Some(id) = self.tape.param_id_of(bias) {
                if self.tape.value(m).rows() == self.pk.total {
                    let (lens, offsets) = self.layout();
                    let vb = self.tape.value(bias).clone();
                    let mut out = self.tape.value(m).clone();
                    for r in 0..out.rows() {
                        for (o, &bv) in out.row_mut(r).iter_mut().zip(vb.row(0)) {
                            *o += bv;
                        }
                    }
                    return self.tape.custom_segmented(
                        OpClass::Elementwise,
                        out,
                        &[m, bias],
                        move |g, em| {
                            for s in 0..lens.len() {
                                let (off, len) = (offsets[s], lens[s]);
                                let mut gb = Tensor::zeros(1, g.cols());
                                for r in 0..len {
                                    let src = g.row(off + r);
                                    for (o, &x) in gb.data_mut().iter_mut().zip(src) {
                                        *o += x;
                                    }
                                }
                                em.dense(s, id, gb);
                            }
                            vec![Some(g.clone()), None]
                        },
                    );
                }
            }
        }
        Tape::add_bias(self.tape, m, bias)
    }

    fn activation(&mut self, a: Var, act: Activation) -> Var {
        match act {
            Activation::None => a,
            Activation::Relu => self.tape.relu(a),
            Activation::Tanh => self.tape.tanh(a),
            Activation::Sigmoid => self.tape.sigmoid(a),
        }
    }

    fn affine_act(&mut self, x: Var, w: Var, b: Var, act: Activation) -> Var {
        let xw = Exec::matmul(self, x, w);
        let lin = Exec::add_bias(self, xw, b);
        Exec::activation(self, lin, act)
    }

    // Packed same-padded convolution: each segment is convolved within its
    // own bounds (windows never straddle a boundary), forward and backward
    // replicating `Tape::conv1d`'s loops — including its `x == 0` sparsity
    // skip — on the segment's rows.
    fn conv1d_act(
        &mut self,
        x: Var,
        w: Var,
        b: Var,
        k: usize,
        dilation: usize,
        act: Activation,
    ) -> Var {
        let packed = self.scope.is_none()
            && self.tape.value(x).rows() == self.pk.total
            && self.tape.param_id_of(w).is_some()
            && self.tape.param_id_of(b).is_some();
        if !packed {
            return Exec::conv1d_act(&mut *self.tape, x, w, b, k, dilation, act);
        }
        assert!(k % 2 == 1, "conv1d requires an odd filter width");
        assert!(dilation >= 1, "dilation must be >= 1");
        let w_id = self.tape.param_id_of(w).expect("checked above");
        let b_id = self.tape.param_id_of(b).expect("checked above");
        let (lens, offsets) = self.layout();
        let vx = self.tape.value(x).clone();
        let vw = self.tape.value(w).clone();
        let vb = self.tape.value(b).clone();
        let d_in = vx.cols();
        let d_out = vw.cols();
        assert_eq!(vw.rows(), k * d_in, "filter bank shape must be [k*d_in, d_out]");
        assert_eq!(vb.shape(), (1, d_out), "bias shape must be [1, d_out]");
        let half = (k / 2) as isize;

        let mut out = Tensor::zeros(self.pk.total, d_out);
        for s in 0..lens.len() {
            let (off, len) = (offsets[s], lens[s]);
            for t in 0..len as isize {
                let out_row = out.row_mut(off + t as usize);
                out_row.copy_from_slice(vb.row(0));
                for j in 0..k as isize {
                    let src = t + (j - half) * dilation as isize;
                    if src < 0 || src >= len as isize {
                        continue;
                    }
                    let x_row = vx.row(off + src as usize);
                    for (i, &xv) in x_row.iter().enumerate() {
                        if xv == 0.0 {
                            continue;
                        }
                        let w_row = vw.row(j as usize * d_in + i);
                        for (o, &wv) in out_row.iter_mut().zip(w_row) {
                            *o += xv * wv;
                        }
                    }
                }
            }
        }

        let total = self.pk.total;
        let conv = self.tape.custom_segmented(OpClass::Conv, out, &[x, w, b], move |g, em| {
            let mut gx = Tensor::zeros(total, d_in);
            for s in 0..lens.len() {
                let (off, len) = (offsets[s], lens[s]);
                let mut gw = Tensor::zeros(k * d_in, d_out);
                let mut gb = Tensor::zeros(1, d_out);
                for t in 0..len as isize {
                    let g_row = g.row(off + t as usize);
                    for (o, &gv) in gb.row_mut(0).iter_mut().zip(g_row) {
                        *o += gv;
                    }
                    for j in 0..k as isize {
                        let src = t + (j - half) * dilation as isize;
                        if src < 0 || src >= len as isize {
                            continue;
                        }
                        let x_row = vx.row(off + src as usize);
                        let gx_row_base = off + src as usize;
                        for i in 0..d_in {
                            let w_row = vw.row(j as usize * d_in + i);
                            let gw_row = gw.row_mut(j as usize * d_in + i);
                            let xv = x_row[i];
                            let mut gx_acc = 0.0;
                            for ((&gv, &wv), gw_v) in g_row.iter().zip(w_row).zip(gw_row.iter_mut())
                            {
                                gx_acc += gv * wv;
                                *gw_v += gv * xv;
                            }
                            gx.row_mut(gx_row_base)[i] += gx_acc;
                        }
                    }
                }
                em.dense(s, b_id, gb);
                em.dense(s, w_id, gw);
            }
            vec![Some(gx), None, None]
        });
        Exec::activation(self, conv, act)
    }

    // Packed layer norm: the statistics are per row, so the forward is the
    // oracle's row loop over the packed matrix; `dx` is row-wise too, and
    // each segment's gain/bias sums run over its own rows, ascending.
    fn layer_norm(&mut self, x: Var, gain: Var, bias: Var) -> Var {
        let packed = self.scope.is_none()
            && self.tape.value(x).rows() == self.pk.total
            && self.tape.param_id_of(gain).is_some()
            && self.tape.param_id_of(bias).is_some();
        if !packed {
            return Tape::layer_norm(self.tape, x, gain, bias);
        }
        const EPS: f32 = 1e-5;
        let gain_id = self.tape.param_id_of(gain).expect("checked above");
        let bias_id = self.tape.param_id_of(bias).expect("checked above");
        let (lens, offsets) = self.layout();
        let vx = self.tape.value(x).clone();
        let vg = self.tape.value(gain).clone();
        let vb = self.tape.value(bias).clone();
        let (n, d) = vx.shape();
        assert_eq!(vg.shape(), (1, d), "gain must be [1, d]");
        assert_eq!(vb.shape(), (1, d), "bias must be [1, d]");

        let mut xhat = Tensor::zeros(n, d);
        let mut inv_std = vec![0.0f32; n];
        let mut out = Tensor::zeros(n, d);
        for r in 0..n {
            let row = vx.row(r);
            let mu: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
            let istd = 1.0 / (var + EPS).sqrt();
            inv_std[r] = istd;
            for c in 0..d {
                let xh = (row[c] - mu) * istd;
                xhat.set2(r, c, xh);
                out.set2(r, c, vg.at2(0, c) * xh + vb.at2(0, c));
            }
        }

        self.tape.custom_segmented(OpClass::Norm, out, &[x, gain, bias], move |g, em| {
            let mut gx = Tensor::zeros(n, d);
            for s in 0..lens.len() {
                let (off, len) = (offsets[s], lens[s]);
                let mut ggain = Tensor::zeros(1, d);
                let mut gbias = Tensor::zeros(1, d);
                for r in off..off + len {
                    let grow = g.row(r);
                    let xhrow = xhat.row(r);
                    let dxhat: Vec<f32> =
                        grow.iter().zip(vg.row(0)).map(|(&gv, &gn)| gv * gn).collect();
                    let mean_dxhat: f32 = dxhat.iter().sum::<f32>() / d as f32;
                    let mean_dxhat_xhat: f32 =
                        dxhat.iter().zip(xhrow).map(|(&a, &b)| a * b).sum::<f32>() / d as f32;
                    let istd = inv_std[r];
                    for c in 0..d {
                        gx.set2(r, c, istd * (dxhat[c] - mean_dxhat - xhrow[c] * mean_dxhat_xhat));
                        ggain.row_mut(0)[c] += grow[c] * xhrow[c];
                        gbias.row_mut(0)[c] += grow[c];
                    }
                }
                em.dense(s, bias_id, gbias);
                em.dense(s, gain_id, ggain);
            }
            vec![Some(gx), None, None]
        })
    }

    fn softmax_rows(&mut self, a: Var) -> Var {
        Tape::softmax_rows(self.tape, a)
    }

    fn max_over_rows(&mut self, a: Var) -> Var {
        Tape::max_over_rows(self.tape, a)
    }

    fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        Tape::slice_cols(self.tape, a, start, len)
    }

    fn slice_rows(&mut self, a: Var, start: usize, len: usize) -> Var {
        Tape::slice_rows(self.tape, a, start, len)
    }

    fn row(&mut self, a: Var, i: usize) -> Var {
        Tape::row(self.tape, a, i)
    }

    fn concat_rows(&mut self, parts: &[Var]) -> Var {
        Tape::concat_rows(self.tape, parts)
    }

    fn concat_cols(&mut self, parts: &[Var]) -> Var {
        Tape::concat_cols(self.tape, parts)
    }

    // Per-segment row reversal, forward and backward (no parameters).
    fn reverse_rows(&mut self, a: Var) -> Var {
        if self.scope.is_some() {
            return Tape::reverse_rows(self.tape, a);
        }
        let av = self.tape.value(a);
        assert_eq!(av.rows(), self.pk.total, "reverse_rows expects packed token rows");
        let (lens, offsets) = self.layout();
        let cols = av.cols();
        let total = self.pk.total;
        let mut out = Tensor::zeros(total, cols);
        for s in 0..lens.len() {
            let (off, len) = (offsets[s], lens[s]);
            for r in 0..len {
                out.row_mut(off + r).copy_from_slice(av.row(off + len - 1 - r));
            }
        }
        self.tape.custom_in_class(OpClass::Shape, out, &[a], move |g| {
            let mut ga = Tensor::zeros(total, cols);
            for s in 0..lens.len() {
                let (off, len) = (offsets[s], lens[s]);
                for r in 0..len {
                    ga.row_mut(off + r).copy_from_slice(g.row(off + len - 1 - r));
                }
            }
            vec![Some(ga)]
        })
    }

    fn lstm_gates(&mut self, pre: Var, c: Var, hidden: usize) -> (Var, Var) {
        Exec::lstm_gates(&mut *self.tape, pre, c, hidden)
    }

    fn gru_gates(&mut self, xp: Var, hp: Var, h_prev: Var, hidden: usize) -> Var {
        Exec::gru_gates(&mut *self.tape, xp, hp, h_prev, hidden)
    }

    // Each segment restarts its positional clock; encodings are constants,
    // so the packed node is just the per-segment stacks.
    fn positional_encoding(&mut self, n: usize, d: usize) -> Var {
        if self.scope.is_some() {
            return Exec::positional_encoding(&mut *self.tape, n, d);
        }
        assert_eq!(n, self.pk.total, "positional_encoding expects packed token rows");
        let mut out = Tensor::zeros(n, d);
        for s in 0..self.pk.lens.len() {
            let (off, len) = (self.pk.offsets[s], self.pk.lens[s]);
            let pe = crate::nn::positional_encoding(len, d);
            for r in 0..len {
                out.row_mut(off + r).copy_from_slice(pe.row(r));
            }
            fused::recycle(pe);
        }
        self.tape.constant(out)
    }

    // One `[N, 4h]` input projection and one `[live, 4h]` recurrent GEMM
    // per timestep, exactly the fused batched forward — plus stashes of the
    // post-activation gates, cell states and tanh(c) so the backward is a
    // hand-rolled BPTT over the same packing. The backward's fold orders
    // mirror the per-sentence tape sweep: `dh` is the output gradient plus
    // the recurrent term, `dc` is the carry (from t+1's `f⊙c` node, visited
    // first) plus the tanh term, and each segment's `db`/`dW_hh`/`dW_ih`
    // accumulate per timestep, descending, through the same `matmul_tn`
    // kernel calls the oracle's `[1, ·]` nodes made.
    fn lstm_sequence(
        &mut self,
        store: &ParamStore,
        w_ih: ParamId,
        w_hh: ParamId,
        b: ParamId,
        hidden: usize,
        xs: Var,
    ) -> Var {
        if self.scope.is_some() {
            return lstm_chain_on_tape(self.tape, store, w_ih, w_hh, b, hidden, xs);
        }
        let h = hidden;
        let xsv = self.tape.value(xs);
        assert_eq!(xsv.rows(), self.pk.total, "lstm_sequence expects packed token rows");
        let d_in = xsv.cols();
        let xs_c = xsv.clone();
        let w_ih_v = store.value(w_ih).clone();
        let w_hh_v = store.value(w_hh).clone();
        let b_v = store.value(b).clone();

        let xp = xs_c.matmul(&w_ih_v); // [N, 4h]
        let total = self.pk.total;
        let mut stash = LstmStash {
            gates: Tensor::zeros(total, 4 * h),
            cells: Tensor::zeros(total, h),
            cts: Tensor::zeros(total, h),
        };
        let out = lstm_packed(&self.pk, &xp, &w_hh_v, &b_v, h, Some(&mut stash));
        fused::recycle(xp);

        let out_c = out.clone();
        let LstmStash { gates, cells, cts } = stash;
        let Packing { lens, offsets, order, sorted_lens, .. } = self.pk.clone();
        self.tape.custom_segmented(OpClass::Custom, out, &[xs], move |g, em| {
            let nseg = lens.len();
            let mut db: Vec<Tensor> = (0..nseg).map(|_| Tensor::zeros(1, 4 * h)).collect();
            let mut dw_hh: Vec<Tensor> = (0..nseg).map(|_| Tensor::zeros(h, 4 * h)).collect();
            let mut dw_ih: Vec<Tensor> = (0..nseg).map(|_| Tensor::zeros(d_in, 4 * h)).collect();
            let mut dxs = Tensor::zeros(total, d_in);
            let mut rec = vec![0.0f32; nseg * h];
            let mut carry = vec![0.0f32; nseg * h];
            let zero_h = vec![0.0f32; h];
            let max_len = sorted_lens[0];
            for t in (0..max_len).rev() {
                let live = sorted_lens.partition_point(|&l| l > t);
                let live_next = sorted_lens.partition_point(|&l| l > t + 1);
                let mut dpre_mat = Tensor::zeros(live, 4 * h);
                for p in 0..live {
                    let s = order[p];
                    let r = offsets[s] + t;
                    let g_row = g.row(r);
                    let gates_row = gates.row(r);
                    let cts_row = cts.row(r);
                    let dpre_row = dpre_mat.row_mut(p);
                    for j in 0..h {
                        // dOut first (set by concat), then the t+1
                        // recurrent matmul's contribution.
                        let dh = if p < live_next { g_row[j] + rec[p * h + j] } else { g_row[j] };
                        let o = gates_row[3 * h + j];
                        let ctv = cts_row[j];
                        let do_ = dh * ctv;
                        let dct = dh * o;
                        let dcnew_t = dct * (1.0 - ctv * ctv);
                        // Carry first: t+1's f⊙c node has the later tape
                        // index and is visited before t's tanh.
                        let dc = if p < live_next { carry[p * h + j] + dcnew_t } else { dcnew_t };
                        let i = gates_row[j];
                        let f = gates_row[h + j];
                        let gg = gates_row[2 * h + j];
                        let c_prev = if t > 0 { cells.row(r - 1)[j] } else { 0.0 };
                        let di = dc * gg;
                        let dg = dc * i;
                        let df = dc * c_prev;
                        carry[p * h + j] = dc * f;
                        dpre_row[j] = di * (i * (1.0 - i));
                        dpre_row[h + j] = df * (f * (1.0 - f));
                        dpre_row[2 * h + j] = dg * (1.0 - gg * gg);
                        dpre_row[3 * h + j] = do_ * (o * (1.0 - o));
                    }
                    // Per-segment parameter gradients via the oracle's own
                    // kernel calls on [1, ·] shapes.
                    let dpre_t = Tensor::row_vector(dpre_mat.row(p));
                    db[s].add_scaled(&dpre_t, 1.0);
                    let h_prev = if t > 0 {
                        Tensor::row_vector(out_c.row(r - 1))
                    } else {
                        Tensor::row_vector(&zero_h)
                    };
                    dw_hh[s].add_scaled(&h_prev.matmul_tn(&dpre_t), 1.0);
                    let x_row = Tensor::row_vector(xs_c.row(r));
                    dw_ih[s].add_scaled(&x_row.matmul_tn(&dpre_t), 1.0);
                }
                let dx_mat = dpre_mat.matmul_nt(&w_ih_v); // [live, d_in]
                let rec_mat = dpre_mat.matmul_nt(&w_hh_v); // [live, h]
                for p in 0..live {
                    let r = offsets[order[p]] + t;
                    dxs.row_mut(r).copy_from_slice(dx_mat.row(p));
                    rec[p * h..(p + 1) * h].copy_from_slice(rec_mat.row(p));
                }
            }
            for (s, ((dbs, dwhhs), dwihs)) in db.into_iter().zip(dw_hh).zip(dw_ih).enumerate() {
                // Oracle sink order: b leaf (latest) first, then w_hh,
                // then w_ih.
                em.dense(s, b, dbs);
                em.dense(s, w_hh, dwhhs);
                em.dense(s, w_ih, dwihs);
            }
            vec![Some(dxs)]
        })
    }

    // Batched GRU, same contract as `lstm_sequence`. The backward's `dh`
    // folds three terms in oracle order — output gradient (set by concat),
    // then t+1's `z⊙h` product (later tape index, visited first), then
    // t+1's recurrent matmul — and `dz`/`dn` reproduce the `set-then-add`
    // order of the gate chain's mul/sub nodes.
    fn gru_sequence(
        &mut self,
        store: &ParamStore,
        w_ih: ParamId,
        w_hh: ParamId,
        b_ih: ParamId,
        b_hh: ParamId,
        hidden: usize,
        xs: Var,
    ) -> Var {
        if self.scope.is_some() {
            return gru_chain_on_tape(self.tape, store, w_ih, w_hh, b_ih, b_hh, hidden, xs);
        }
        let h = hidden;
        let xsv = self.tape.value(xs);
        assert_eq!(xsv.rows(), self.pk.total, "gru_sequence expects packed token rows");
        let d_in = xsv.cols();
        let xs_c = xsv.clone();
        let w_ih_v = store.value(w_ih).clone();
        let w_hh_v = store.value(w_hh).clone();
        let b_ih_v = store.value(b_ih).clone();
        let b_hh_v = store.value(b_hh).clone();

        let mut xp = xs_c.matmul(&w_ih_v); // [N, 3h]
        fused::add_bias_in_place(&mut xp, &b_ih_v);
        let total = self.pk.total;
        let mut stash =
            GruStash { gates: Tensor::zeros(total, 3 * h), hns: Tensor::zeros(total, h) };
        let out = gru_packed(&self.pk, &xp, &w_hh_v, &b_hh_v, h, Some(&mut stash));
        fused::recycle(xp);

        let out_c = out.clone();
        let GruStash { gates, hns } = stash;
        let Packing { lens, offsets, order, sorted_lens, .. } = self.pk.clone();
        self.tape.custom_segmented(OpClass::Custom, out, &[xs], move |g, em| {
            let nseg = lens.len();
            let mut db_ih: Vec<Tensor> = (0..nseg).map(|_| Tensor::zeros(1, 3 * h)).collect();
            let mut db_hh: Vec<Tensor> = (0..nseg).map(|_| Tensor::zeros(1, 3 * h)).collect();
            let mut dw_hh: Vec<Tensor> = (0..nseg).map(|_| Tensor::zeros(h, 3 * h)).collect();
            let mut dw_ih: Vec<Tensor> = (0..nseg).map(|_| Tensor::zeros(d_in, 3 * h)).collect();
            let mut dxs = Tensor::zeros(total, d_in);
            let mut zh_term = vec![0.0f32; nseg * h];
            let mut mat_term = vec![0.0f32; nseg * h];
            let zero_h = vec![0.0f32; h];
            let max_len = sorted_lens[0];
            for t in (0..max_len).rev() {
                let live = sorted_lens.partition_point(|&l| l > t);
                let live_next = sorted_lens.partition_point(|&l| l > t + 1);
                let mut dhp_mat = Tensor::zeros(live, 3 * h);
                let mut dxp_mat = Tensor::zeros(live, 3 * h);
                for p in 0..live {
                    let s = order[p];
                    let r = offsets[s] + t;
                    let g_row = g.row(r);
                    let gates_row = gates.row(r);
                    let hns_row = hns.row(r);
                    let dhp_row = dhp_mat.row_mut(p);
                    let dxp_row = dxp_mat.row_mut(p);
                    for j in 0..h {
                        let dh = if p < live_next {
                            (g_row[j] + zh_term[p * h + j]) + mat_term[p * h + j]
                        } else {
                            g_row[j]
                        };
                        let z = gates_row[j];
                        let r_ = gates_row[h + j];
                        let n = gates_row[2 * h + j];
                        let h_prev = if t > 0 { out_c.row(r - 1)[j] } else { 0.0 };
                        let dzn = -dh;
                        // z⊙h (later node) sets, z⊙n adds.
                        let dz = dh * h_prev + dzn * n;
                        // The sub node sets, z⊙n adds.
                        let dn = dh + dzn * z;
                        let dn_pre = dn * (1.0 - n * n);
                        let drhn = dn_pre;
                        let hn = hns_row[j];
                        let dr = drhn * hn;
                        let dhn = drhn * r_;
                        let dr_pre = dr * (r_ * (1.0 - r_));
                        let dz_pre = dz * (z * (1.0 - z));
                        dhp_row[j] = dz_pre;
                        dhp_row[h + j] = dr_pre;
                        dhp_row[2 * h + j] = dhn;
                        dxp_row[j] = dz_pre;
                        dxp_row[h + j] = dr_pre;
                        dxp_row[2 * h + j] = dn_pre;
                        zh_term[p * h + j] = dh * z;
                    }
                    let dhp_t = Tensor::row_vector(dhp_mat.row(p));
                    db_hh[s].add_scaled(&dhp_t, 1.0);
                    let h_prev = if t > 0 {
                        Tensor::row_vector(out_c.row(r - 1))
                    } else {
                        Tensor::row_vector(&zero_h)
                    };
                    dw_hh[s].add_scaled(&h_prev.matmul_tn(&dhp_t), 1.0);
                    let dxp_t = Tensor::row_vector(dxp_mat.row(p));
                    db_ih[s].add_scaled(&dxp_t, 1.0);
                    let x_row = Tensor::row_vector(xs_c.row(r));
                    dw_ih[s].add_scaled(&x_row.matmul_tn(&dxp_t), 1.0);
                }
                let dx_mat = dxp_mat.matmul_nt(&w_ih_v); // [live, d_in]
                let mt = dhp_mat.matmul_nt(&w_hh_v); // [live, h]
                for p in 0..live {
                    let r = offsets[order[p]] + t;
                    dxs.row_mut(r).copy_from_slice(dx_mat.row(p));
                    mat_term[p * h..(p + 1) * h].copy_from_slice(mt.row(p));
                }
            }
            for (s, (((dbhhs, dbihs), dwhhs), dwihs)) in
                db_hh.into_iter().zip(db_ih).zip(dw_hh).zip(dw_ih).enumerate()
            {
                // Oracle sink order: b_hh, b_ih, w_hh, w_ih.
                em.dense(s, b_hh, dbhhs);
                em.dense(s, b_ih, dbihs);
                em.dense(s, w_hh, dwhhs);
                em.dense(s, w_ih, dwihs);
            }
            vec![Some(dxs)]
        })
    }
}

/// [`Exec::lstm_sequence`]'s provided per-step chain, invoked on the raw
/// tape (used for scoped char-level LSTMs, where `xs` is a per-word matrix
/// rather than packed rows).
fn lstm_chain_on_tape(
    tape: &mut Tape,
    store: &ParamStore,
    w_ih: ParamId,
    w_hh: ParamId,
    b: ParamId,
    hidden: usize,
    xs: Var,
) -> Var {
    Exec::lstm_sequence(tape, store, w_ih, w_hh, b, hidden, xs)
}

/// [`Exec::gru_sequence`]'s provided per-step chain on the raw tape.
#[allow(clippy::too_many_arguments)]
fn gru_chain_on_tape(
    tape: &mut Tape,
    store: &ParamStore,
    w_ih: ParamId,
    w_hh: ParamId,
    b_ih: ParamId,
    b_hh: ParamId,
    hidden: usize,
    xs: Var,
) -> Var {
    Exec::gru_sequence(tape, store, w_ih, w_hh, b_ih, b_hh, hidden, xs)
}

impl PackedExec for BatchedTapeExec<'_> {
    fn segments(&self) -> usize {
        self.pk.lens.len()
    }

    fn len_of(&self, s: usize) -> usize {
        self.pk.lens[s]
    }

    fn offset_of(&self, s: usize) -> usize {
        self.pk.offsets[s]
    }

    fn total_rows(&self) -> usize {
        self.pk.total
    }

    fn slice_segment(&mut self, v: Var, s: usize) -> Var {
        let (off, len) = (self.pk.offsets[s], self.pk.lens[s]);
        Tape::slice_rows(self.tape, v, off, len)
    }

    fn scoped<R>(&mut self, s: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.scope;
        self.scope = Some(s);
        self.tape.set_segment(Some(s));
        let out = f(self);
        self.scope = prev;
        self.tape.set_segment(prev);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill so tests need no RNG plumbing.
    fn filled(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut t = Tensor::zeros(rows, cols);
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for v in t.data_mut() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v = ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
        }
        t
    }

    fn pack(store: &ParamStore, lens: &[usize], d: usize, seed: u64) -> (Tensor, Vec<Tensor>) {
        let _ = store;
        let total: usize = lens.iter().sum();
        let packed = filled(total, d, seed);
        let mut segs = Vec::new();
        let mut off = 0;
        for &l in lens {
            let mut seg = Tensor::zeros(l, d);
            for r in 0..l {
                seg.row_mut(r).copy_from_slice(packed.row(off + r));
            }
            segs.push(seg);
            off += l;
        }
        (packed, segs)
    }

    fn assert_bits_eq(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    const LENS: &[usize] = &[5, 1, 3, 5, 2];

    #[test]
    fn batched_lstm_rows_are_bit_identical_to_per_segment_fused() {
        let h = 7;
        let d = 4;
        let mut store = ParamStore::default();
        let w_ih = store.register("w_ih", filled(d, 4 * h, 1));
        let w_hh = store.register("w_hh", filled(h, 4 * h, 2));
        let b = store.register("b", filled(1, 4 * h, 3));
        let (packed, segs) = pack(&store, LENS, d, 9);

        let mut bx = BatchedExec::new(&store, LENS);
        let xs = bx.constant(packed);
        let out = bx.lstm_sequence(&store, w_ih, w_hh, b, h, xs);
        let batched = bx.value(out).clone();

        let mut off = 0;
        for seg in &segs {
            let mut fx = FusedExec::new(&store);
            let xs = fx.constant(seg.clone());
            let out = fx.lstm_sequence(&store, w_ih, w_hh, b, h, xs);
            let want = fx.value(out);
            for r in 0..seg.rows() {
                assert_bits_eq(batched.row(off + r), want.row(r));
            }
            off += seg.rows();
        }
    }

    #[test]
    fn batched_gru_rows_are_bit_identical_to_per_segment_fused() {
        let h = 6;
        let d = 5;
        let mut store = ParamStore::default();
        let w_ih = store.register("w_ih", filled(d, 3 * h, 4));
        let w_hh = store.register("w_hh", filled(h, 3 * h, 5));
        let b_ih = store.register("b_ih", filled(1, 3 * h, 6));
        let b_hh = store.register("b_hh", filled(1, 3 * h, 7));
        let (packed, segs) = pack(&store, LENS, d, 11);

        let mut bx = BatchedExec::new(&store, LENS);
        let xs = bx.constant(packed);
        let out = bx.gru_sequence(&store, w_ih, w_hh, b_ih, b_hh, h, xs);
        let batched = bx.value(out).clone();

        let mut off = 0;
        for seg in &segs {
            let mut fx = FusedExec::new(&store);
            let xs = fx.constant(seg.clone());
            let out = fx.gru_sequence(&store, w_ih, w_hh, b_ih, b_hh, h, xs);
            let want = fx.value(out);
            for r in 0..seg.rows() {
                assert_bits_eq(batched.row(off + r), want.row(r));
            }
            off += seg.rows();
        }
    }

    #[test]
    fn batched_conv_and_reverse_respect_segment_boundaries() {
        let d = 4;
        let dout = 3;
        let k = 3;
        let mut store = ParamStore::default();
        let w = store.register("w", filled(k * d, dout, 8));
        let b = store.register("b", filled(1, dout, 9));
        let (packed, segs) = pack(&store, LENS, d, 13);

        let mut bx = BatchedExec::new(&store, LENS);
        let xs = bx.constant(packed);
        let (wv, bv) = (bx.param(&store, w), bx.param(&store, b));
        let conv = bx.conv1d_act(xs, wv, bv, k, 1, Activation::Relu);
        let rev = bx.reverse_rows(xs);
        let conv_t = bx.value(conv).clone();
        let rev_t = bx.value(rev).clone();

        let mut off = 0;
        for seg in &segs {
            let mut fx = FusedExec::new(&store);
            let xs = fx.constant(seg.clone());
            let (wv, bv) = (fx.param(&store, w), fx.param(&store, b));
            let conv = fx.conv1d_act(xs, wv, bv, k, 1, Activation::Relu);
            let rev = fx.reverse_rows(xs);
            for r in 0..seg.rows() {
                assert_bits_eq(conv_t.row(off + r), fx.value(conv).row(r));
                assert_bits_eq(rev_t.row(off + r), fx.value(rev).row(r));
            }
            off += seg.rows();
        }
    }

    #[test]
    fn batched_positional_encoding_restarts_per_segment() {
        let d = 8;
        let store = ParamStore::default();
        let cache = PeCache::new();
        for with_cache in [false, true] {
            let mut bx = BatchedExec::new(&store, LENS);
            if with_cache {
                bx = bx.with_pe_cache(&cache);
            }
            let total = bx.total_rows();
            let pe = bx.positional_encoding(total, d);
            let pe_t = bx.value(pe).clone();
            let mut off = 0;
            for &l in LENS {
                let want = crate::nn::positional_encoding(l, d);
                for r in 0..l {
                    assert_bits_eq(pe_t.row(off + r), want.row(r));
                }
                off += l;
            }
        }
    }

    #[test]
    fn single_segment_batch_delegates_to_fused() {
        let h = 4;
        let d = 3;
        let mut store = ParamStore::default();
        let w_ih = store.register("w_ih", filled(d, 4 * h, 1));
        let w_hh = store.register("w_hh", filled(h, 4 * h, 2));
        let b = store.register("b", filled(1, 4 * h, 3));
        let x = filled(6, d, 21);

        let mut bx = BatchedExec::new(&store, &[6]);
        let xs = bx.constant(x.clone());
        let out = bx.lstm_sequence(&store, w_ih, w_hh, b, h, xs);
        let got = bx.value(out).clone();

        let mut fx = FusedExec::new(&store);
        let xs = fx.constant(x);
        let out = fx.lstm_sequence(&store, w_ih, w_hh, b, h, xs);
        assert_bits_eq(got.data(), fx.value(out).data());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_length_segments_are_rejected() {
        let store = ParamStore::default();
        let _ = BatchedExec::new(&store, &[3, 0, 2]);
    }

    #[test]
    fn slice_segment_recovers_caller_order_rows() {
        let store = ParamStore::default();
        let lens = [2usize, 4, 1];
        let (packed, segs) = pack(&store, &lens, 3, 17);
        let mut bx = BatchedExec::new(&store, &lens);
        let xs = bx.constant(packed);
        for (s, seg) in segs.iter().enumerate() {
            let sl = bx.slice_segment(xs, s);
            assert_bits_eq(bx.value(sl).data(), seg.data());
        }
    }
    // ---- BatchedTapeExec: packed autograd vs the per-sentence oracle ----

    use crate::GradBuffer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Gradient comparison under the ±0 license: bit-identical except that
    /// +0.0 and −0.0 are interchangeable (zero-sign differences cannot
    /// reach the weights through clipping or any optimizer — DESIGN.md
    /// "Batched training").
    fn assert_grads_eq(name: &str, a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len(), "{name}: gradient length");
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x == 0.0 && y == 0.0),
                "{name} element {i}: oracle {x} ({:#010x}) vs packed {y} ({:#010x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }

    /// The historical trainer: one tape and one [`GradBuffer`] per
    /// sentence, loss = sum of the graph's output, buffers applied to a
    /// fresh store clone in caller order. Returns that store.
    fn run_oracle(
        store: &ParamStore,
        segs: &[Tensor],
        build: impl Fn(&mut Tape, usize, Var) -> Var,
    ) -> ParamStore {
        let mut oracle = store.clone();
        for (s, seg) in segs.iter().enumerate() {
            let mut t = Tape::default();
            let xs = t.constant(seg.clone());
            let out = build(&mut t, s, xs);
            let loss = t.sum(out);
            let mut buf = GradBuffer::new(store.len());
            t.backward_into(loss, &mut buf);
            buf.apply_to(&mut oracle);
        }
        oracle
    }

    /// The batched trainer: one packed tape, per-segment sums folded left
    /// into one scalar loss, one segmented backward into per-segment
    /// buffers, applied to a fresh store clone in caller order.
    fn run_packed(
        store: &ParamStore,
        lens: &[usize],
        build: impl FnOnce(&mut BatchedTapeExec<'_>) -> Var,
    ) -> ParamStore {
        let mut tape = Tape::default();
        let loss = {
            let mut bx = BatchedTapeExec::new(&mut tape, lens);
            let out = build(&mut bx);
            let mut total = None;
            for s in 0..lens.len() {
                let hs = bx.slice_segment(out, s);
                let ls = bx.scoped(s, |ex| {
                    let t = ex.tape_mut();
                    t.sum(hs)
                });
                total = Some(match total {
                    None => ls,
                    Some(acc) => Exec::add(&mut bx, acc, ls),
                });
            }
            total.expect("at least one segment")
        };
        let mut buffers: Vec<GradBuffer> =
            (0..lens.len()).map(|_| GradBuffer::new(store.len())).collect();
        tape.backward_into_segmented(loss, &mut buffers);
        let mut got = store.clone();
        for buf in buffers {
            buf.apply_to(&mut got);
        }
        got
    }

    fn compare_grads(store: &ParamStore, oracle: &ParamStore, got: &ParamStore) {
        for id in store.ids() {
            assert_grads_eq(store.name(id), oracle.grad(id).data(), got.grad(id).data());
        }
    }

    #[test]
    fn packed_tape_affine_grads_match_oracle() {
        let (d, dout) = (4, 6);
        let mut store = ParamStore::default();
        let w = store.register("w", filled(d, dout, 31));
        let b = store.register("b", filled(1, dout, 32));
        let (packed, segs) = pack(&store, LENS, d, 101);
        let oracle = run_oracle(&store, &segs, |t, _, xs| {
            let wv = Exec::param(t, &store, w);
            let bv = Exec::param(t, &store, b);
            Exec::affine_act(t, xs, wv, bv, Activation::Tanh)
        });
        let got = run_packed(&store, LENS, |bx| {
            let xs = bx.constant(packed.clone());
            let wv = Exec::param(bx, &store, w);
            let bv = Exec::param(bx, &store, b);
            Exec::affine_act(bx, xs, wv, bv, Activation::Tanh)
        });
        compare_grads(&store, &oracle, &got);
    }

    #[test]
    fn packed_tape_conv_grads_match_oracle() {
        let (d, dout, k) = (3, 5, 3);
        for dilation in [1usize, 2] {
            let mut store = ParamStore::default();
            let w = store.register("w", filled(k * d, dout, 33));
            let b = store.register("b", filled(1, dout, 34));
            let (packed, segs) = pack(&store, LENS, d, 103);
            let oracle = run_oracle(&store, &segs, |t, _, xs| {
                let wv = Exec::param(t, &store, w);
                let bv = Exec::param(t, &store, b);
                Exec::conv1d_act(t, xs, wv, bv, k, dilation, Activation::Relu)
            });
            let got = run_packed(&store, LENS, |bx| {
                let xs = bx.constant(packed.clone());
                let wv = Exec::param(bx, &store, w);
                let bv = Exec::param(bx, &store, b);
                Exec::conv1d_act(bx, xs, wv, bv, k, dilation, Activation::Relu)
            });
            compare_grads(&store, &oracle, &got);
        }
    }

    #[test]
    fn packed_tape_layer_norm_grads_match_oracle() {
        let d = 6;
        let mut store = ParamStore::default();
        let gain = store.register("gain", filled(1, d, 35));
        let bias = store.register("bias", filled(1, d, 36));
        let (packed, segs) = pack(&store, LENS, d, 105);
        let oracle = run_oracle(&store, &segs, |t, _, xs| {
            let gv = Exec::param(t, &store, gain);
            let bv = Exec::param(t, &store, bias);
            Exec::layer_norm(t, xs, gv, bv)
        });
        let got = run_packed(&store, LENS, |bx| {
            let xs = bx.constant(packed.clone());
            let gv = Exec::param(bx, &store, gain);
            let bv = Exec::param(bx, &store, bias);
            Exec::layer_norm(bx, xs, gv, bv)
        });
        compare_grads(&store, &oracle, &got);
    }

    #[test]
    fn packed_tape_bilstm_composite_grads_match_oracle() {
        // The real BiLSTM shape: forward LSTM ‖ time-reversed LSTM,
        // concatenated and projected — exercises reverse_rows, both packed
        // sequence nodes, concat_cols and the packed projection together.
        let (d, h, dout) = (4, 5, 3);
        let mut store = ParamStore::default();
        let fw_ih = store.register("f.w_ih", filled(d, 4 * h, 41));
        let fw_hh = store.register("f.w_hh", filled(h, 4 * h, 42));
        let fb = store.register("f.b", filled(1, 4 * h, 43));
        let rw_ih = store.register("r.w_ih", filled(d, 4 * h, 44));
        let rw_hh = store.register("r.w_hh", filled(h, 4 * h, 45));
        let rb = store.register("r.b", filled(1, 4 * h, 46));
        let w = store.register("proj.w", filled(2 * h, dout, 47));
        let b = store.register("proj.b", filled(1, dout, 48));
        let (packed, segs) = pack(&store, LENS, d, 107);
        let oracle = run_oracle(&store, &segs, |t, _, xs| {
            let fwd = Exec::lstm_sequence(t, &store, fw_ih, fw_hh, fb, h, xs);
            let xr = Exec::reverse_rows(t, xs);
            let bwd_r = Exec::lstm_sequence(t, &store, rw_ih, rw_hh, rb, h, xr);
            let bwd = Exec::reverse_rows(t, bwd_r);
            let cat = Exec::concat_cols(t, &[fwd, bwd]);
            let wv = Exec::param(t, &store, w);
            let bv = Exec::param(t, &store, b);
            Exec::affine_act(t, cat, wv, bv, Activation::None)
        });
        let got = run_packed(&store, LENS, |bx| {
            let xs = bx.constant(packed.clone());
            let fwd = Exec::lstm_sequence(bx, &store, fw_ih, fw_hh, fb, h, xs);
            let xr = Exec::reverse_rows(bx, xs);
            let bwd_r = Exec::lstm_sequence(bx, &store, rw_ih, rw_hh, rb, h, xr);
            let bwd = Exec::reverse_rows(bx, bwd_r);
            let cat = Exec::concat_cols(bx, &[fwd, bwd]);
            let wv = Exec::param(bx, &store, w);
            let bv = Exec::param(bx, &store, b);
            Exec::affine_act(bx, cat, wv, bv, Activation::None)
        });
        compare_grads(&store, &oracle, &got);
    }

    #[test]
    fn packed_tape_gru_grads_match_oracle() {
        let (d, h) = (5, 6);
        let mut store = ParamStore::default();
        let w_ih = store.register("w_ih", filled(d, 3 * h, 51));
        let w_hh = store.register("w_hh", filled(h, 3 * h, 52));
        let b_ih = store.register("b_ih", filled(1, 3 * h, 53));
        let b_hh = store.register("b_hh", filled(1, 3 * h, 54));
        let (packed, segs) = pack(&store, LENS, d, 109);
        let oracle = run_oracle(&store, &segs, |t, _, xs| {
            Exec::gru_sequence(t, &store, w_ih, w_hh, b_ih, b_hh, h, xs)
        });
        let got = run_packed(&store, LENS, |bx| {
            let xs = bx.constant(packed.clone());
            Exec::gru_sequence(bx, &store, w_ih, w_hh, b_ih, b_hh, h, xs)
        });
        compare_grads(&store, &oracle, &got);
    }

    #[test]
    fn packed_tape_handles_odd_length_mixes() {
        // Single-sentence buckets, all-equal lengths, a dominant long
        // sentence on either side — the packed paths must not stand down
        // even when one segment makes the packing trivial.
        let (d, h) = (3, 4);
        let mut store = ParamStore::default();
        let w_ih = store.register("w_ih", filled(d, 4 * h, 55));
        let w_hh = store.register("w_hh", filled(h, 4 * h, 56));
        let b = store.register("b", filled(1, 4 * h, 57));
        for lens in
            [&[4usize][..], &[1][..], &[3, 3, 3][..], &[1, 1, 1, 1][..], &[7, 1][..], &[1, 7][..]]
        {
            let (packed, segs) = pack(&store, lens, d, 111);
            let oracle = run_oracle(&store, &segs, |t, _, xs| {
                Exec::lstm_sequence(t, &store, w_ih, w_hh, b, h, xs)
            });
            let got = run_packed(&store, lens, |bx| {
                let xs = bx.constant(packed.clone());
                Exec::lstm_sequence(bx, &store, w_ih, w_hh, b, h, xs)
            });
            compare_grads(&store, &oracle, &got);
        }
    }

    #[test]
    fn packed_tape_lookup_grads_match_oracle() {
        let (vocab, d, dout) = (13, 5, 3);
        let mut store = ParamStore::default();
        let emb = store.register("emb", filled(vocab, d, 61));
        let w = store.register("w", filled(d, dout, 62));
        let b = store.register("b", filled(1, dout, 63));
        let total: usize = LENS.iter().sum();
        // Deliberately repeat ids across segments so scatter rows collide.
        let ids: Vec<usize> = (0..total).map(|i| (i * 7 + 3) % vocab).collect();

        let mut oracle = store.clone();
        let mut off = 0;
        for &l in LENS {
            let mut t = Tape::default();
            let x = Exec::lookup(&mut t, &store, emb, &ids[off..off + l]);
            let wv = Exec::param(&mut t, &store, w);
            let bv = Exec::param(&mut t, &store, b);
            let a = Exec::affine_act(&mut t, x, wv, bv, Activation::Tanh);
            let loss = t.sum(a);
            let mut buf = GradBuffer::new(store.len());
            t.backward_into(loss, &mut buf);
            buf.apply_to(&mut oracle);
            off += l;
        }

        let got = run_packed(&store, LENS, |bx| {
            let x = Exec::lookup(bx, &store, emb, &ids);
            let wv = Exec::param(bx, &store, w);
            let bv = Exec::param(bx, &store, b);
            Exec::affine_act(bx, x, wv, bv, Activation::Tanh)
        });
        compare_grads(&store, &oracle, &got);
    }

    #[test]
    fn packed_tape_dropout_reproduces_per_sentence_masks() {
        let (d, dout, p) = (4, 3, 0.4);
        let mut store = ParamStore::default();
        let w = store.register("w", filled(d, dout, 65));
        let b = store.register("b", filled(1, dout, 66));
        let (packed, segs) = pack(&store, LENS, d, 113);
        let oracle = run_oracle(&store, &segs, |t, s, xs| {
            let mut rng = StdRng::seed_from_u64(900 + s as u64);
            let dx = t.dropout(xs, p, &mut rng);
            let wv = Exec::param(t, &store, w);
            let bv = Exec::param(t, &store, b);
            Exec::affine_act(t, dx, wv, bv, Activation::Tanh)
        });
        let got = run_packed(&store, LENS, |bx| {
            let xs = bx.constant(packed.clone());
            let mut rngs: Vec<StdRng> =
                (0..LENS.len()).map(|s| StdRng::seed_from_u64(900 + s as u64)).collect();
            let dx = bx.dropout_packed(xs, p, &mut rngs);
            let wv = Exec::param(bx, &store, w);
            let bv = Exec::param(bx, &store, b);
            Exec::affine_act(bx, dx, wv, bv, Activation::Tanh)
        });
        compare_grads(&store, &oracle, &got);
    }

    #[test]
    fn scoped_per_segment_params_route_to_owning_buffer() {
        // Per-segment subgraphs (the decoder-loss shape): parameters leased
        // *inside* `scoped` must sink to the owning segment's buffer.
        let (d, dout) = (4, 3);
        let mut store = ParamStore::default();
        let w = store.register("w", filled(d, dout, 71));
        let b = store.register("b", filled(1, dout, 72));
        let (packed, segs) = pack(&store, LENS, d, 115);
        let oracle = run_oracle(&store, &segs, |t, _, xs| {
            let wv = Exec::param(t, &store, w);
            let bv = Exec::param(t, &store, b);
            Exec::affine_act(t, xs, wv, bv, Activation::Sigmoid)
        });
        let got = run_packed(&store, LENS, |bx| {
            let xs = bx.constant(packed.clone());
            let mut parts = Vec::new();
            for s in 0..LENS.len() {
                let hs = bx.slice_segment(xs, s);
                let os = bx.scoped(s, |ex| {
                    let wv = Exec::param(ex, &store, w);
                    let bv = Exec::param(ex, &store, b);
                    Exec::affine_act(ex, hs, wv, bv, Activation::Sigmoid)
                });
                parts.push(os);
            }
            Exec::concat_rows(bx, &parts)
        });
        compare_grads(&store, &oracle, &got);
    }

    #[test]
    fn gemm_rows_are_height_independent() {
        // The packed backward relies on `matmul` / `matmul_nt` computing
        // each output row identically whatever the GEMM height: slicing
        // rows off the left operand must reproduce the full product's rows
        // bit for bit, at both small and kernel-threshold-crossing sizes.
        for (rows, inner, cols) in [(15usize, 24usize, 40usize), (130, 48, 64)] {
            let a = filled(rows, inner, 7);
            let b = filled(inner, cols, 8);
            let bt = filled(cols, inner, 9);
            let full = a.matmul(&b);
            let full_nt = a.matmul_nt(&bt);
            for (off, len) in [(0usize, 1usize), (3, 5), (rows - 1, 1), (2, rows / 2)] {
                let sl = rows_of(&a, off, len);
                let got = sl.matmul(&b);
                let got_nt = sl.matmul_nt(&bt);
                for r in 0..len {
                    assert_bits_eq(got.row(r), full.row(off + r));
                    assert_bits_eq(got_nt.row(r), full_nt.row(off + r));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unscoped parameter leaf")]
    fn unscoped_param_leaf_panics_in_segmented_backward() {
        let mut store = ParamStore::default();
        let w = store.register("w", filled(3, 3, 81));
        let mut tape = Tape::default();
        let x = tape.constant(filled(2, 3, 82));
        let wv = tape.param(&store, w); // unscoped on purpose
        let y = Tape::matmul(&mut tape, x, wv);
        let loss = tape.sum(y);
        let mut buffers = vec![GradBuffer::new(store.len())];
        tape.backward_into_segmented(loss, &mut buffers);
    }
}
