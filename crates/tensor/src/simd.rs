//! Runtime-dispatched SIMD lane kernels behind the `NER_SIMD` knob.
//!
//! Every vector kernel in this module upholds the repo-wide determinism
//! contract (see DESIGN.md "SIMD lane kernels"): results are **bit-identical**
//! to the scalar reference kernels in [`crate::kernels`] and
//! [`crate::fused`], at every shape, alignment and thread count. The trick
//! is the *column-lane layout*: vectors run across the output-column (`n`)
//! dimension, so each lane is an **independent output element** that
//! accumulates over the shared dimension `p` in the same ascending order as
//! the scalar loop. Vectorization then only changes *which elements* are in
//! flight together, never the operation sequence of any one element — the
//! same argument that already makes the blocked/parallel scalar kernels
//! bit-identical to the textbook loop.
//!
//! Two consequences shape the code:
//!
//! - **No FMA, ever.** A fused multiply-add rounds once where `mul` + `add`
//!   round twice, so an FMA kernel would diverge from the scalar oracle in
//!   the last bit. The CPU's FMA units are detected and reported (see
//!   [`cpu_features`]) but deliberately unused.
//! - **Transcendentals are the repo's own.** [`exp`], [`sigmoid`] and
//!   [`tanh`] are built from IEEE basic operations only (`+ − × ÷`, bit
//!   masks, exponent-field scaling), so each vector lane performs exactly
//!   the scalar reference's operation sequence and rounds identically. The
//!   scalar functions are the oracle; `NER_SIMD=off` runs them, and no
//!   platform libm is involved. The recurrent gate sweeps are built on them
//!   ([`lstm_cell`], [`gru_cell`]).
//! - **Sequential reductions stay scalar.** Softmax's running sum and
//!   layer-norm's mean/variance fold in one fixed order, so those loops keep
//!   the scalar code; softmax's exponentials (and the CRF's f64 `exp`)
//!   still use libm.
//!
//! Dispatch is resolved once per process from `NER_SIMD`
//! (`off`/`sse2`/`avx2`, default: best level the CPU supports — threaded
//! through the environment exactly like `NER_THREADS`), with a thread-local
//! [`with_level`] override for tests and benches. Kernels capture the level
//! once at entry on the calling thread and pass it into the row-parallel
//! bodies, so a forced level propagates to `ner-par` workers.

use std::cell::Cell;
use std::sync::OnceLock;

/// Which lane width the compute kernels dispatch to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Scalar reference kernels only — the bit-exact oracle every vector
    /// path is checked against.
    Off,
    /// 4-lane `f32x4` kernels (SSE2, baseline on every x86-64 CPU).
    Sse2,
    /// 8-lane `f32x8` kernels (AVX2, used only when detected at runtime).
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name, used in bench rows, CI logs and the run
    /// manifest (`off` / `sse2` / `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Off => "off",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Vector features detected on the running CPU.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuFeatures {
    /// 128-bit f32 lanes — architecturally guaranteed on x86-64.
    pub sse2: bool,
    /// 256-bit f32 lanes.
    pub avx2: bool,
    /// Fused multiply-add units. Detected and reported for the bench
    /// manifest, but never used by these kernels: FMA rounds once where
    /// `mul`+`add` round twice, which would break bit-identity with the
    /// scalar oracle.
    pub fma: bool,
}

/// Detects the CPU's vector features at runtime (all `false` off x86-64).
pub fn cpu_features() -> CpuFeatures {
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            sse2: is_x86_feature_detected!("sse2"),
            avx2: is_x86_feature_detected!("avx2"),
            fma: is_x86_feature_detected!("fma"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        CpuFeatures::default()
    }
}

/// Whether `level` can execute on this CPU.
pub fn is_supported(level: SimdLevel) -> bool {
    match level {
        SimdLevel::Off => true,
        SimdLevel::Sse2 => cpu_features().sse2,
        SimdLevel::Avx2 => cpu_features().avx2,
    }
}

/// Best level the running CPU supports (`Off` on non-x86-64 targets).
fn best_supported() -> SimdLevel {
    let f = cpu_features();
    if f.avx2 {
        SimdLevel::Avx2
    } else if f.sse2 {
        SimdLevel::Sse2
    } else {
        SimdLevel::Off
    }
}

static CONFIGURED: OnceLock<SimdLevel> = OnceLock::new();

/// The process-wide level resolved from `NER_SIMD` on first use.
///
/// `off` (or `scalar`/`0`) forces the scalar oracle; `sse2`/`avx2` request a
/// specific lane width (silently clamped to what the CPU supports, with a
/// warning on stderr); anything else — including unset — auto-detects the
/// best supported level.
pub fn configured() -> SimdLevel {
    *CONFIGURED.get_or_init(|| match std::env::var("NER_SIMD") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "off" | "scalar" | "0" => SimdLevel::Off,
            "sse2" => {
                if is_supported(SimdLevel::Sse2) {
                    SimdLevel::Sse2
                } else {
                    eprintln!("NER_SIMD=sse2 requested but not available; using scalar kernels");
                    SimdLevel::Off
                }
            }
            "avx2" => {
                if is_supported(SimdLevel::Avx2) {
                    SimdLevel::Avx2
                } else {
                    let best = best_supported();
                    eprintln!(
                        "NER_SIMD=avx2 requested but not detected; falling back to {}",
                        best.name()
                    );
                    best
                }
            }
            "auto" | "" => best_supported(),
            other => {
                let best = best_supported();
                eprintln!("NER_SIMD={other} not recognized; auto-detected {}", best.name());
                best
            }
        },
        Err(_) => best_supported(),
    })
}

thread_local! {
    /// Per-thread override installed by [`with_level`].
    static FORCED: Cell<Option<SimdLevel>> = const { Cell::new(None) };
}

/// The level kernels on this thread dispatch to right now: the
/// [`with_level`] override if one is installed, else [`configured`].
///
/// Matrix kernels read this once at entry on the calling thread and thread
/// the value through their row-parallel bodies, so an override covers the
/// `ner-par` workers of the call it wraps.
pub fn active() -> SimdLevel {
    FORCED.with(|f| f.get()).unwrap_or_else(configured)
}

/// Runs `f` with kernels on this thread forced to `level` — the seam the
/// property tests and `exp_kernels` use to compare vector variants against
/// the scalar oracle inside one process.
///
/// # Panics
/// If `level` is not supported on this CPU (forcing it would execute
/// illegal instructions).
pub fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    assert!(is_supported(level), "SIMD level {} not supported on this CPU", level.name());
    struct Restore(Option<SimdLevel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCED.with(|c| c.replace(Some(level))));
    f()
}

/// One-line description of the configured kernel backend for manifests and
/// reports, e.g. `"avx2 (cpu: sse2+avx2+fma)"`.
pub fn descriptor() -> String {
    let f = cpu_features();
    let mut feats = Vec::new();
    if f.sse2 {
        feats.push("sse2");
    }
    if f.avx2 {
        feats.push("avx2");
    }
    if f.fma {
        feats.push("fma");
    }
    let cpu = if feats.is_empty() { "none".to_string() } else { feats.join("+") };
    format!("{} (cpu: {})", configured().name(), cpu)
}

// ---------------------------------------------------------------------------
// Lane-exact transcendentals. The scalar functions below are the reference;
// the vector forms in `lanes` repeat them operation for operation.
// ---------------------------------------------------------------------------

/// Constants of [`exp`] and [`tanh`], shared by the scalar reference and
/// the lane kernels.
mod tc {
    /// Inputs are clamped to `[LO, HI]` before range reduction: `exp(HI)`
    /// overflows to `+inf` and `exp(LO)` underflows to `0`, so the clamp
    /// changes no result while keeping both exponent-field factors normal.
    pub(super) const HI: f32 = 89.0;
    pub(super) const LO: f32 = -104.0;
    pub(super) const LOG2E: f32 = std::f32::consts::LOG2_E;
    /// `1.5·2²³`: adding and subtracting it rounds `|v| < 2²²` to the
    /// nearest integer (ties to even) with two plain adds, so the 4-lane
    /// path needs no SSE4.1 `roundps`.
    pub(super) const ROUND: f32 = 12_582_912.0;
    /// Cody–Waite split of `ln 2`: `LN2_HI` has 9 significant bits, so
    /// `n·LN2_HI` is exact for every `|n| ≤ 150`.
    pub(super) const LN2_HI: f32 = 0.693_359_4; // = 355/512 exactly
    pub(super) const LN2_LO: f32 = -2.121_944_4e-4;
    /// Cephes `expf` polynomial for `e^r` on `|r| ≤ ln2/2`, highest degree
    /// first; `e^r ≈ (P(r)·r² + r) + 1`.
    pub(super) const EXP_P: [f32; 6] =
        [1.987_569_1e-4, 1.398_199_9e-3, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_6e-1, 0.5];
    /// Below this `|x|`, [`super::tanh`] uses the odd polynomial
    /// (`1 − 2/(e^{2|x|}+1)` cancels badly near zero).
    pub(super) const TANH_SMALL: f32 = 0.625;
    /// Cephes `tanhf` polynomial, highest degree first:
    /// `tanh(a) ≈ (T(a²)·a²)·a + a`.
    pub(super) const TANH_P: [f32; 5] =
        [-5.704_988_7e-3, 2.063_908_8e-2, -5.373_971_5e-2, 1.333_144_2e-1, -3.333_328e-1];
    pub(super) const SIGN: u32 = 0x8000_0000;
}

/// `2^k` for `k ∈ [-126, 127]`, built in the exponent field.
#[inline(always)]
fn pow2i(k: i32) -> f32 {
    f32::from_bits(((k + 127) as u32) << 23)
}

/// `e^x` from IEEE basic operations only — the reference every SIMD level
/// reproduces bit for bit.
///
/// Round `x·log₂e` to `n` (magic-constant add), reduce `r = x − n·ln2` in
/// two Cody–Waite steps, evaluate the Cephes degree-5 polynomial with
/// separate multiplies and adds (never FMA), then scale by `2ⁿ` as two
/// exponent-field factors so overflow gives `+inf` and underflow is
/// gradual. Relative error ≤ 2 ulp on `[-87, 88]` (pinned by a test).
/// `exp(-inf) = 0`, `exp(+inf) = +inf`, and NaN propagates: the clamp
/// compares with the bound first, so an unordered input passes through
/// (the `MINPS`/`MAXPS` operand order the lanes use).
#[inline]
pub fn exp(x: f32) -> f32 {
    let x = if tc::HI < x { tc::HI } else { x };
    let x = if tc::LO > x { tc::LO } else { x };
    let n = (x * tc::LOG2E + tc::ROUND) - tc::ROUND;
    let r = (x - n * tc::LN2_HI) - n * tc::LN2_LO;
    let mut y = tc::EXP_P[0];
    for &c in &tc::EXP_P[1..] {
        y = y * r + c;
    }
    let y = (y * (r * r) + r) + 1.0;
    // `n` is an integer in [-150, 128] (NaN saturates to 0 and stays NaN
    // through `y`); each half stays in the normal exponent range.
    let n = n as i32;
    let n1 = n >> 1;
    (y * pow2i(n1)) * pow2i(n - n1)
}

/// Logistic sigmoid `1 / (1 + e^{-x})` on the repo's [`exp`] — the scalar
/// reference for every activation, tape op and gate sweep. Absolute error
/// ≤ 2⁻²² (pinned by a test).
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// Hyperbolic tangent on the repo's [`exp`]: the Cephes odd polynomial for
/// `|x| < 0.625`, else `1 − 2/(e^{2|x|} + 1)`, with the sign of `x`
/// restored by bit mask (so `tanh(-0.0) = -0.0`). The lanes evaluate both
/// branches and select per lane by the same `|x| < 0.625` mask. Absolute
/// error ≤ 2⁻²².
#[inline]
pub fn tanh(x: f32) -> f32 {
    let a = f32::from_bits(x.to_bits() & !tc::SIGN);
    let t = if a < tc::TANH_SMALL {
        let z = a * a;
        let mut q = tc::TANH_P[0];
        for &c in &tc::TANH_P[1..] {
            q = q * z + c;
        }
        (q * z) * a + a
    } else {
        1.0 - 2.0 / (exp(a + a) + 1.0)
    };
    f32::from_bits(t.to_bits() | (x.to_bits() & tc::SIGN))
}

/// One hidden unit `j` of [`lstm_cell`] — the scalar reference, also the
/// lane kernels' remainder loop.
#[inline]
fn lstm_unit(
    pre: &[f32],
    c: &mut [f32],
    h: &mut [f32],
    stash: &mut Option<(&mut [f32], &mut [f32])>,
    j: usize,
) {
    let hid = c.len();
    let i = sigmoid(pre[j]);
    let f = sigmoid(pre[hid + j]);
    let g = tanh(pre[2 * hid + j]);
    let o = sigmoid(pre[3 * hid + j]);
    let cn = f * c[j] + i * g;
    c[j] = cn;
    let ct = tanh(cn);
    h[j] = o * ct;
    if let Some((gates, cts)) = stash {
        gates[j] = i;
        gates[hid + j] = f;
        gates[2 * hid + j] = g;
        gates[3 * hid + j] = o;
        cts[j] = ct;
    }
}

/// One hidden unit `j` of [`gru_cell`] — scalar reference and remainder.
#[inline]
fn gru_unit(
    xp: &[f32],
    hp: &[f32],
    h_prev: &[f32],
    h: &mut [f32],
    gates: &mut Option<&mut [f32]>,
    j: usize,
) {
    let hid = h.len();
    let z = sigmoid(xp[j] + hp[j]);
    let r = sigmoid(xp[hid + j] + hp[hid + j]);
    let n = tanh(xp[2 * hid + j] + r * hp[2 * hid + j]);
    // h' = (n − z⊙n) + z⊙h, associated as the tape's sub-then-add chain.
    h[j] = (n - z * n) + z * h_prev[j];
    if let Some(gates) = gates {
        gates[j] = z;
        gates[hid + j] = r;
        gates[2 * hid + j] = n;
    }
}

// ---------------------------------------------------------------------------
// Vector kernels (x86-64). Each pub(crate) dispatcher below returns `true`
// when a vector path handled the call, so `kernels.rs`/`fused.rs` fall
// through to their scalar reference loops on `Off` and on non-x86 targets.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod lanes {
    use crate::kernels::{MC, NC, RB};

    /// 4-lane SSE2 primitives with the uniform names the kernel macro uses.
    pub(crate) mod p128 {
        use core::arch::x86_64::*;
        pub(crate) const W: usize = 4;
        pub(crate) type V = __m128;
        #[inline(always)]
        pub(crate) unsafe fn load(p: *const f32) -> V {
            _mm_loadu_ps(p)
        }
        #[inline(always)]
        pub(crate) unsafe fn store(p: *mut f32, v: V) {
            _mm_storeu_ps(p, v)
        }
        #[inline(always)]
        pub(crate) unsafe fn set1(x: f32) -> V {
            _mm_set1_ps(x)
        }
        #[inline(always)]
        pub(crate) unsafe fn zero() -> V {
            _mm_setzero_ps()
        }
        #[inline(always)]
        pub(crate) unsafe fn add(a: V, b: V) -> V {
            _mm_add_ps(a, b)
        }
        #[inline(always)]
        pub(crate) unsafe fn mul(a: V, b: V) -> V {
            _mm_mul_ps(a, b)
        }
        #[inline(always)]
        pub(crate) unsafe fn sub(a: V, b: V) -> V {
            _mm_sub_ps(a, b)
        }
        /// `MAXPS v, 0`: with the value as the *first* operand this returns
        /// the second operand on NaN and on `-0.0` vs `+0.0` ties — exactly
        /// the bits scalar `v.max(0.0)` produces (pinned by a unit test).
        #[inline(always)]
        pub(crate) unsafe fn relu(v: V) -> V {
            _mm_max_ps(v, _mm_setzero_ps())
        }
        /// Lane-wise `if cur > best { cur } else { best }` — the exact
        /// predicate of the scalar max-over-rows fold (NaN never wins,
        /// `+0.0` never replaces `-0.0`), built from cmp/and/or because
        /// blendv needs SSE4.1.
        #[inline(always)]
        pub(crate) unsafe fn pick_gt(cur: V, best: V) -> V {
            let m = _mm_cmpgt_ps(cur, best);
            select(m, cur, best)
        }
        #[inline(always)]
        pub(crate) unsafe fn div(a: V, b: V) -> V {
            _mm_div_ps(a, b)
        }
        /// `MINPS bound, v` = `bound < v ? bound : v`: an unordered `v`
        /// (NaN) is returned unchanged, like the scalar `if HI < x`.
        #[inline(always)]
        pub(crate) unsafe fn clamp_hi(v: V, bound: V) -> V {
            _mm_min_ps(bound, v)
        }
        /// `MAXPS bound, v` = `bound > v ? bound : v`; NaN passes through.
        #[inline(always)]
        pub(crate) unsafe fn clamp_lo(v: V, bound: V) -> V {
            _mm_max_ps(bound, v)
        }
        /// All-ones lanes where `a < b` (ordered: false on NaN).
        #[inline(always)]
        pub(crate) unsafe fn lt(a: V, b: V) -> V {
            _mm_cmplt_ps(a, b)
        }
        #[inline(always)]
        pub(crate) unsafe fn and(a: V, b: V) -> V {
            _mm_and_ps(a, b)
        }
        #[inline(always)]
        pub(crate) unsafe fn or(a: V, b: V) -> V {
            _mm_or_ps(a, b)
        }
        /// `!a & b`.
        #[inline(always)]
        pub(crate) unsafe fn andnot(a: V, b: V) -> V {
            _mm_andnot_ps(a, b)
        }
        #[inline(always)]
        pub(crate) unsafe fn xor(a: V, b: V) -> V {
            _mm_xor_ps(a, b)
        }
        /// Lane-wise `mask ? a : b` from and/andnot/or (blendv needs
        /// SSE4.1).
        #[inline(always)]
        pub(crate) unsafe fn select(mask: V, a: V, b: V) -> V {
            _mm_or_ps(_mm_and_ps(mask, a), _mm_andnot_ps(mask, b))
        }
        /// For integral `n`, the factors `(2^⌊n/2⌋, 2^{n−⌊n/2⌋})` built in
        /// the exponent field — the lane form of the scalar `pow2i` pair.
        #[inline(always)]
        pub(crate) unsafe fn pow2_halves(n: V) -> (V, V) {
            let n = _mm_cvttps_epi32(n);
            let n1 = _mm_srai_epi32::<1>(n);
            let n2 = _mm_sub_epi32(n, n1);
            let bias = _mm_set1_epi32(127);
            (
                _mm_castsi128_ps(_mm_slli_epi32::<23>(_mm_add_epi32(n1, bias))),
                _mm_castsi128_ps(_mm_slli_epi32::<23>(_mm_add_epi32(n2, bias))),
            )
        }
    }

    /// 8-lane AVX2 primitives; same contract as [`p128`].
    pub(crate) mod p256 {
        use core::arch::x86_64::*;
        pub(crate) const W: usize = 8;
        pub(crate) type V = __m256;
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn load(p: *const f32) -> V {
            _mm256_loadu_ps(p)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn store(p: *mut f32, v: V) {
            _mm256_storeu_ps(p, v)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn set1(x: f32) -> V {
            _mm256_set1_ps(x)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn zero() -> V {
            _mm256_setzero_ps()
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn add(a: V, b: V) -> V {
            _mm256_add_ps(a, b)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn mul(a: V, b: V) -> V {
            _mm256_mul_ps(a, b)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn sub(a: V, b: V) -> V {
            _mm256_sub_ps(a, b)
        }
        /// See [`p128::relu`]: value first, zero second, same tie bits as
        /// scalar `v.max(0.0)`.
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn relu(v: V) -> V {
            _mm256_max_ps(v, _mm256_setzero_ps())
        }
        /// See [`p128::pick_gt`]; `GT_OQ` is the quiet ordered `>` — NaN
        /// compares false, matching the scalar predicate.
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn pick_gt(cur: V, best: V) -> V {
            let m = _mm256_cmp_ps::<_CMP_GT_OQ>(cur, best);
            select(m, cur, best)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn div(a: V, b: V) -> V {
            _mm256_div_ps(a, b)
        }
        /// See [`p128::clamp_hi`]: bound first, so NaN passes through.
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn clamp_hi(v: V, bound: V) -> V {
            _mm256_min_ps(bound, v)
        }
        /// See [`p128::clamp_lo`].
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn clamp_lo(v: V, bound: V) -> V {
            _mm256_max_ps(bound, v)
        }
        /// `LT_OQ`: ordered, quiet — false on NaN, like scalar `<`.
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn lt(a: V, b: V) -> V {
            _mm256_cmp_ps::<_CMP_LT_OQ>(a, b)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn and(a: V, b: V) -> V {
            _mm256_and_ps(a, b)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn or(a: V, b: V) -> V {
            _mm256_or_ps(a, b)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn andnot(a: V, b: V) -> V {
            _mm256_andnot_ps(a, b)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn xor(a: V, b: V) -> V {
            _mm256_xor_ps(a, b)
        }
        /// Lane-wise `mask ? a : b`.
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn select(mask: V, a: V, b: V) -> V {
            _mm256_blendv_ps(b, a, mask)
        }
        /// See [`p128::pow2_halves`].
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn pow2_halves(n: V) -> (V, V) {
            let n = _mm256_cvttps_epi32(n);
            let n1 = _mm256_srai_epi32::<1>(n);
            let n2 = _mm256_sub_epi32(n, n1);
            let bias = _mm256_set1_epi32(127);
            (
                _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(n1, bias))),
                _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(n2, bias))),
            )
        }
    }

    /// Expands the full kernel set for one lane width. The generated loops
    /// mirror the scalar kernels in `kernels.rs`/`fused.rs` statement for
    /// statement; only the per-element *grouping* differs.
    macro_rules! lane_kernels {
        ($modname:ident, $prim:ident, $feat:literal) => {
            pub(crate) mod $modname {
                use super::$prim as p;
                use super::{MC, NC, RB};
                use crate::simd::tc;

                /// Register-tile width in columns: two vectors per row keep
                /// `RB × 2` accumulators resident across a full `p` sweep.
                const TW: usize = 2 * p::W;

                /// One row's contribution over the output panel `[jb, je)` —
                /// the vector form of `kernels::row_panel`. Lanes are output
                /// columns; `p` ascends and `av == 0.0` rows are skipped
                /// exactly as in the scalar loop.
                ///
                /// # Safety
                /// Requires the target feature and in-bounds `a`/`b`/`out`
                /// for the `(r0, jb, je, k, n)` panel addressed.
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments)]
                unsafe fn nn_panel(
                    a: &[f32],
                    b: &[f32],
                    out: &mut [f32],
                    i: usize,
                    r0: usize,
                    jb: usize,
                    je: usize,
                    k: usize,
                    n: usize,
                ) {
                    let w = je - jb;
                    let ap = a.as_ptr().add(i * k);
                    let op = out.as_mut_ptr().add((i - r0) * n + jb);
                    for ptick in 0..k {
                        let av = *ap.add(ptick);
                        if av == 0.0 {
                            continue;
                        }
                        let bp = b.as_ptr().add(ptick * n + jb);
                        let vb = p::set1(av);
                        let mut c = 0usize;
                        while c + p::W <= w {
                            let o = op.add(c);
                            p::store(o, p::add(p::load(o), p::mul(vb, p::load(bp.add(c)))));
                            c += p::W;
                        }
                        while c < w {
                            *op.add(c) += av * *bp.add(c);
                            c += 1;
                        }
                    }
                }

                /// Blocked `out[r0..r1] += a × b` — the vector form of
                /// `kernels::matmul_rows`: `MC`/`NC` cache blocks, `RB × TW`
                /// register tiles (accumulators seeded from `out`, per-row
                /// `av == 0.0` skip, ascending `p`), remainders through
                /// [`nn_panel`].
                ///
                /// # Safety
                /// Requires the target feature; `a ⊇ [r1, k]`, `b = [k, n]`,
                /// `out = [r1 - r0, n]`.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn nn_rows(
                    a: &[f32],
                    b: &[f32],
                    out: &mut [f32],
                    r0: usize,
                    r1: usize,
                    k: usize,
                    n: usize,
                ) {
                    debug_assert!(a.len() >= r1 * k);
                    debug_assert_eq!(b.len(), k * n);
                    debug_assert_eq!(out.len(), (r1 - r0) * n);
                    let ap = a.as_ptr();
                    let bp = b.as_ptr();
                    let op = out.as_mut_ptr();
                    for ib in (r0..r1).step_by(MC) {
                        let ie = (ib + MC).min(r1);
                        for jb in (0..n).step_by(NC) {
                            let je = (jb + NC).min(n);
                            let mut i = ib;
                            while i + RB <= ie {
                                let mut j = jb;
                                while j + TW <= je {
                                    let mut acc = [[p::zero(); 2]; RB];
                                    for (r, acc_r) in acc.iter_mut().enumerate() {
                                        let orow = op.add((i + r - r0) * n + j);
                                        acc_r[0] = p::load(orow);
                                        acc_r[1] = p::load(orow.add(p::W));
                                    }
                                    for ptick in 0..k {
                                        let brow = bp.add(ptick * n + j);
                                        let b0 = p::load(brow);
                                        let b1 = p::load(brow.add(p::W));
                                        for (r, acc_r) in acc.iter_mut().enumerate() {
                                            let av = *ap.add((i + r) * k + ptick);
                                            if av == 0.0 {
                                                continue;
                                            }
                                            let vb = p::set1(av);
                                            acc_r[0] = p::add(acc_r[0], p::mul(vb, b0));
                                            acc_r[1] = p::add(acc_r[1], p::mul(vb, b1));
                                        }
                                    }
                                    for (r, acc_r) in acc.iter().enumerate() {
                                        let orow = op.add((i + r - r0) * n + j);
                                        p::store(orow, acc_r[0]);
                                        p::store(orow.add(p::W), acc_r[1]);
                                    }
                                    j += TW;
                                }
                                if j < je {
                                    for ii in i..i + RB {
                                        nn_panel(a, b, out, ii, r0, j, je, k, n);
                                    }
                                }
                                i += RB;
                            }
                            for ii in i..ie {
                                nn_panel(a, b, out, ii, r0, jb, je, k, n);
                            }
                        }
                    }
                }

                /// Vector form of `kernels::matmul_tn_rows` (`a: [k, m]`):
                /// same `p`-outer blocked loop, with the row update
                /// `out_row += av * b_row` run across column lanes.
                ///
                /// # Safety
                /// Requires the target feature; `a = [k, m]`, `b = [k, n]`,
                /// `out = [r1 - r0, n]`.
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments)]
                pub(crate) unsafe fn tn_rows(
                    a: &[f32],
                    b: &[f32],
                    out: &mut [f32],
                    r0: usize,
                    r1: usize,
                    k: usize,
                    n: usize,
                    m: usize,
                ) {
                    debug_assert_eq!(a.len(), k * m);
                    debug_assert_eq!(b.len(), k * n);
                    debug_assert_eq!(out.len(), (r1 - r0) * n);
                    let ap = a.as_ptr();
                    let op = out.as_mut_ptr();
                    for ib in (r0..r1).step_by(MC) {
                        let ie = (ib + MC).min(r1);
                        for ptick in 0..k {
                            let bp = b.as_ptr().add(ptick * n);
                            for i in ib..ie {
                                let av = *ap.add(ptick * m + i);
                                if av == 0.0 {
                                    continue;
                                }
                                let orow = op.add((i - r0) * n);
                                let vb = p::set1(av);
                                let mut c = 0usize;
                                while c + p::W <= n {
                                    let o = orow.add(c);
                                    p::store(o, p::add(p::load(o), p::mul(vb, p::load(bp.add(c)))));
                                    c += p::W;
                                }
                                while c < n {
                                    *orow.add(c) += av * *bp.add(c);
                                    c += 1;
                                }
                            }
                        }
                    }
                }

                /// `R × TW` register tile of the NT kernel over the packed
                /// `bᵀ` panel (`bt: [k, n]`): accumulators start at zero, no
                /// zero-skip, and the tile ends with `out += acc` — the
                /// exact per-element sequence of the historical per-row dot
                /// products.
                ///
                /// # Safety
                /// Requires the target feature and in-bounds `a`/`bt`/`out`
                /// for the `R`-row, `TW`-column tile at `(i0, j0)`.
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments)]
                unsafe fn nt_tile<const R: usize>(
                    a: &[f32],
                    bt: &[f32],
                    out: &mut [f32],
                    i0: usize,
                    r0: usize,
                    j0: usize,
                    k: usize,
                    n: usize,
                ) {
                    let ap = a.as_ptr();
                    let btp = bt.as_ptr();
                    let op = out.as_mut_ptr();
                    let mut acc = [[p::zero(); 2]; R];
                    for ptick in 0..k {
                        let brow = btp.add(ptick * n + j0);
                        let b0 = p::load(brow);
                        let b1 = p::load(brow.add(p::W));
                        for (r, acc_r) in acc.iter_mut().enumerate() {
                            let vb = p::set1(*ap.add((i0 + r) * k + ptick));
                            acc_r[0] = p::add(acc_r[0], p::mul(vb, b0));
                            acc_r[1] = p::add(acc_r[1], p::mul(vb, b1));
                        }
                    }
                    for (r, acc_r) in acc.iter().enumerate() {
                        let orow = op.add((i0 + r - r0) * n + j0);
                        p::store(orow, p::add(p::load(orow), acc_r[0]));
                        let ohi = orow.add(p::W);
                        p::store(ohi, p::add(p::load(ohi), acc_r[1]));
                    }
                }

                /// Blocked `out[r0..r1] += a × bᵀ` over the packed panel
                /// `bt = transpose(b)`; tile remainder columns fall back to
                /// the scalar dot over the original `b: [n, k]` rows, which
                /// is the historical NT loop itself.
                ///
                /// # Safety
                /// Requires the target feature; `a ⊇ [r1, k]`, `b = [n, k]`,
                /// `bt = [k, n]`, `out = [r1 - r0, n]`.
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments)]
                pub(crate) unsafe fn nt_rows(
                    a: &[f32],
                    b: &[f32],
                    bt: &[f32],
                    out: &mut [f32],
                    r0: usize,
                    r1: usize,
                    k: usize,
                    n: usize,
                ) {
                    debug_assert!(a.len() >= r1 * k);
                    debug_assert_eq!(b.len(), n * k);
                    debug_assert_eq!(bt.len(), k * n);
                    debug_assert_eq!(out.len(), (r1 - r0) * n);
                    for ib in (r0..r1).step_by(MC) {
                        let ie = (ib + MC).min(r1);
                        for jb in (0..n).step_by(NC) {
                            let je = (jb + NC).min(n);
                            let mut i = ib;
                            while i + RB <= ie {
                                let mut j = jb;
                                while j + TW <= je {
                                    nt_tile::<RB>(a, bt, out, i, r0, j, k, n);
                                    j += TW;
                                }
                                for ii in i..i + RB {
                                    for jj in j..je {
                                        nt_dot(a, b, out, ii, r0, jj, k, n);
                                    }
                                }
                                i += RB;
                            }
                            while i < ie {
                                let mut j = jb;
                                while j + TW <= je {
                                    nt_tile::<1>(a, bt, out, i, r0, j, k, n);
                                    j += TW;
                                }
                                for jj in j..je {
                                    nt_dot(a, b, out, i, r0, jj, k, n);
                                }
                                i += 1;
                            }
                        }
                    }
                }

                /// One NT output element as the historical dot product over a
                /// contiguous row of `b: [n, k]` (accumulate from zero, no
                /// skip, final `out += acc`).
                #[inline]
                #[allow(clippy::too_many_arguments)]
                fn nt_dot(
                    a: &[f32],
                    b: &[f32],
                    out: &mut [f32],
                    i: usize,
                    r0: usize,
                    j: usize,
                    k: usize,
                    n: usize,
                ) {
                    let a_row = &a[i * k..(i + 1) * k];
                    let b_row = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0;
                    for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                        acc += av * bv;
                    }
                    out[(i - r0) * n + j] += acc;
                }

                /// `out[i] += src[i]` across lanes (bias broadcast rows).
                ///
                /// # Safety
                /// Requires the target feature; `out.len() == src.len()`.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn add_in_place(out: &mut [f32], src: &[f32]) {
                    debug_assert_eq!(out.len(), src.len());
                    let op = out.as_mut_ptr();
                    let sp = src.as_ptr();
                    let len = out.len();
                    let mut c = 0usize;
                    while c + p::W <= len {
                        p::store(op.add(c), p::add(p::load(op.add(c)), p::load(sp.add(c))));
                        c += p::W;
                    }
                    while c < len {
                        *op.add(c) += *sp.add(c);
                        c += 1;
                    }
                }

                /// `out[i] += s * src[i]` across lanes (conv taps).
                ///
                /// # Safety
                /// Requires the target feature; `out.len() == src.len()`.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn axpy_in_place(out: &mut [f32], src: &[f32], s: f32) {
                    debug_assert_eq!(out.len(), src.len());
                    let op = out.as_mut_ptr();
                    let sp = src.as_ptr();
                    let len = out.len();
                    let vs = p::set1(s);
                    let mut c = 0usize;
                    while c + p::W <= len {
                        p::store(
                            op.add(c),
                            p::add(p::load(op.add(c)), p::mul(vs, p::load(sp.add(c)))),
                        );
                        c += p::W;
                    }
                    while c < len {
                        *op.add(c) += s * *sp.add(c);
                        c += 1;
                    }
                }

                /// `out[i] *= s` across lanes (softmax's reciprocal scale).
                ///
                /// # Safety
                /// Requires the target feature.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn scale_in_place(out: &mut [f32], s: f32) {
                    let op = out.as_mut_ptr();
                    let len = out.len();
                    let vs = p::set1(s);
                    let mut c = 0usize;
                    while c + p::W <= len {
                        p::store(op.add(c), p::mul(p::load(op.add(c)), vs));
                        c += p::W;
                    }
                    while c < len {
                        *op.add(c) *= s;
                        c += 1;
                    }
                }

                /// `out[i] = out[i].max(0.0)` across lanes; operand order
                /// chosen so NaN and `-0.0` produce the scalar bits.
                ///
                /// # Safety
                /// Requires the target feature.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn relu_in_place(out: &mut [f32]) {
                    let op = out.as_mut_ptr();
                    let len = out.len();
                    let mut c = 0usize;
                    while c + p::W <= len {
                        p::store(op.add(c), p::relu(p::load(op.add(c))));
                        c += p::W;
                    }
                    while c < len {
                        let v = *op.add(c);
                        *op.add(c) = v.max(0.0);
                        c += 1;
                    }
                }

                /// Layer-norm's normalize step across lanes:
                /// `out[c] = gain[c] * ((x[c] - mu) * istd) + bias[c]`, the
                /// same four rounding steps as the scalar loop.
                ///
                /// # Safety
                /// Requires the target feature; all slices share one length.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn norm_scale_shift(
                    out: &mut [f32],
                    x: &[f32],
                    gain: &[f32],
                    bias: &[f32],
                    mu: f32,
                    istd: f32,
                ) {
                    debug_assert_eq!(out.len(), x.len());
                    debug_assert_eq!(out.len(), gain.len());
                    debug_assert_eq!(out.len(), bias.len());
                    let op = out.as_mut_ptr();
                    let len = out.len();
                    let vmu = p::set1(mu);
                    let vistd = p::set1(istd);
                    let mut c = 0usize;
                    while c + p::W <= len {
                        let t = p::mul(p::sub(p::load(x.as_ptr().add(c)), vmu), vistd);
                        let v = p::add(
                            p::mul(p::load(gain.as_ptr().add(c)), t),
                            p::load(bias.as_ptr().add(c)),
                        );
                        p::store(op.add(c), v);
                        c += p::W;
                    }
                    while c < len {
                        *op.add(c) = gain[c] * ((x[c] - mu) * istd) + bias[c];
                        c += 1;
                    }
                }

                /// `dst[i] = (x[i] + h[i]) + b[i]` across lanes — the LSTM/GRU
                /// pre-activation build, same two-add sequence as the scalar
                /// zip.
                ///
                /// # Safety
                /// Requires the target feature; all slices share one length.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn add3(dst: &mut [f32], x: &[f32], h: &[f32], b: &[f32]) {
                    debug_assert_eq!(dst.len(), x.len());
                    debug_assert_eq!(dst.len(), h.len());
                    debug_assert_eq!(dst.len(), b.len());
                    let dp = dst.as_mut_ptr();
                    let len = dst.len();
                    let mut c = 0usize;
                    while c + p::W <= len {
                        let v = p::add(
                            p::add(p::load(x.as_ptr().add(c)), p::load(h.as_ptr().add(c))),
                            p::load(b.as_ptr().add(c)),
                        );
                        p::store(dp.add(c), v);
                        c += p::W;
                    }
                    while c < len {
                        *dp.add(c) = (x[c] + h[c]) + b[c];
                        c += 1;
                    }
                }

                /// `best[i] = if row[i] > best[i] { row[i] } else { best[i] }`
                /// across lanes — one fold step of max-over-rows with the
                /// exact scalar `>` predicate.
                ///
                /// # Safety
                /// Requires the target feature; `best.len() == row.len()`.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn colmax_in_place(best: &mut [f32], row: &[f32]) {
                    debug_assert_eq!(best.len(), row.len());
                    let bp = best.as_mut_ptr();
                    let len = best.len();
                    let mut c = 0usize;
                    while c + p::W <= len {
                        p::store(
                            bp.add(c),
                            p::pick_gt(p::load(row.as_ptr().add(c)), p::load(bp.add(c))),
                        );
                        c += p::W;
                    }
                    while c < len {
                        let v = row[c];
                        if v > *bp.add(c) {
                            *bp.add(c) = v;
                        }
                        c += 1;
                    }
                }

                /// Lane form of [`crate::simd::exp`], operation for
                /// operation (the clamp keeps NaN; see `p::clamp_hi`).
                #[target_feature(enable = $feat)]
                #[inline]
                unsafe fn exp_v(x: p::V) -> p::V {
                    let x = p::clamp_hi(x, p::set1(tc::HI));
                    let x = p::clamp_lo(x, p::set1(tc::LO));
                    let round = p::set1(tc::ROUND);
                    let n = p::sub(p::add(p::mul(x, p::set1(tc::LOG2E)), round), round);
                    let r = p::sub(
                        p::sub(x, p::mul(n, p::set1(tc::LN2_HI))),
                        p::mul(n, p::set1(tc::LN2_LO)),
                    );
                    let mut y = p::set1(tc::EXP_P[0]);
                    for &c in &tc::EXP_P[1..] {
                        y = p::add(p::mul(y, r), p::set1(c));
                    }
                    let y = p::add(p::add(p::mul(y, p::mul(r, r)), r), p::set1(1.0));
                    let (s1, s2) = p::pow2_halves(n);
                    p::mul(p::mul(y, s1), s2)
                }

                /// Lane form of [`crate::simd::sigmoid`].
                #[target_feature(enable = $feat)]
                #[inline]
                unsafe fn sigmoid_v(x: p::V) -> p::V {
                    let one = p::set1(1.0);
                    let neg = p::xor(x, p::set1(-0.0));
                    p::div(one, p::add(one, exp_v(neg)))
                }

                /// Lane form of [`crate::simd::tanh`]: both branches, then
                /// a per-lane select on `|x| < 0.625`.
                #[target_feature(enable = $feat)]
                #[inline]
                unsafe fn tanh_v(x: p::V) -> p::V {
                    let sign = p::set1(-0.0);
                    let a = p::andnot(sign, x);
                    let z = p::mul(a, a);
                    let mut q = p::set1(tc::TANH_P[0]);
                    for &c in &tc::TANH_P[1..] {
                        q = p::add(p::mul(q, z), p::set1(c));
                    }
                    let small = p::add(p::mul(p::mul(q, z), a), a);
                    let one = p::set1(1.0);
                    let e = exp_v(p::add(a, a));
                    let big = p::sub(one, p::div(p::set1(2.0), p::add(e, one)));
                    let t = p::select(p::lt(a, p::set1(tc::TANH_SMALL)), small, big);
                    p::or(t, p::and(x, sign))
                }

                lane_map!(exp_in_place, exp_v, exp, $feat);
                lane_map!(sigmoid_in_place, sigmoid_v, sigmoid, $feat);
                lane_map!(tanh_in_place, tanh_v, tanh, $feat);

                /// Lane form of [`crate::simd::lstm_cell`]; remainder units
                /// run the scalar reference.
                ///
                /// # Safety
                /// Requires the target feature; shapes as checked by the
                /// safe dispatcher.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn lstm_cell(
                    pre: &[f32],
                    c: &mut [f32],
                    h: &mut [f32],
                    mut stash: Option<(&mut [f32], &mut [f32])>,
                ) {
                    let hid = c.len();
                    let pp = pre.as_ptr();
                    let cp = c.as_mut_ptr();
                    let hp = h.as_mut_ptr();
                    let mut j = 0usize;
                    while j + p::W <= hid {
                        let i = sigmoid_v(p::load(pp.add(j)));
                        let f = sigmoid_v(p::load(pp.add(hid + j)));
                        let g = tanh_v(p::load(pp.add(2 * hid + j)));
                        let o = sigmoid_v(p::load(pp.add(3 * hid + j)));
                        let cn = p::add(p::mul(f, p::load(cp.add(j))), p::mul(i, g));
                        p::store(cp.add(j), cn);
                        let ct = tanh_v(cn);
                        p::store(hp.add(j), p::mul(o, ct));
                        if let Some((gates, cts)) = &mut stash {
                            let gp = gates.as_mut_ptr();
                            p::store(gp.add(j), i);
                            p::store(gp.add(hid + j), f);
                            p::store(gp.add(2 * hid + j), g);
                            p::store(gp.add(3 * hid + j), o);
                            p::store(cts.as_mut_ptr().add(j), ct);
                        }
                        j += p::W;
                    }
                    while j < hid {
                        crate::simd::lstm_unit(pre, c, h, &mut stash, j);
                        j += 1;
                    }
                }

                /// Lane form of [`crate::simd::gru_cell`]; remainder units
                /// run the scalar reference.
                ///
                /// # Safety
                /// Requires the target feature; shapes as checked by the
                /// safe dispatcher.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn gru_cell(
                    xp: &[f32],
                    hp: &[f32],
                    h_prev: &[f32],
                    h: &mut [f32],
                    mut gates: Option<&mut [f32]>,
                ) {
                    let hid = h.len();
                    let (xq, hq, pq, oq) =
                        (xp.as_ptr(), hp.as_ptr(), h_prev.as_ptr(), h.as_mut_ptr());
                    let mut j = 0usize;
                    while j + p::W <= hid {
                        let z = sigmoid_v(p::add(p::load(xq.add(j)), p::load(hq.add(j))));
                        let r =
                            sigmoid_v(p::add(p::load(xq.add(hid + j)), p::load(hq.add(hid + j))));
                        let n = tanh_v(p::add(
                            p::load(xq.add(2 * hid + j)),
                            p::mul(r, p::load(hq.add(2 * hid + j))),
                        ));
                        let zh = p::mul(z, p::load(pq.add(j)));
                        p::store(oq.add(j), p::add(p::sub(n, p::mul(z, n)), zh));
                        if let Some(g) = &mut gates {
                            let gp = g.as_mut_ptr();
                            p::store(gp.add(j), z);
                            p::store(gp.add(hid + j), r);
                            p::store(gp.add(2 * hid + j), n);
                        }
                        j += p::W;
                    }
                    while j < hid {
                        crate::simd::gru_unit(xp, hp, h_prev, h, &mut gates, j);
                        j += 1;
                    }
                }
            }
        };
    }

    /// An in-place elementwise sweep: vector lanes, then the scalar
    /// reference on the remainder.
    macro_rules! lane_map {
        ($name:ident, $vf:ident, $sf:ident, $feat:literal) => {
            /// # Safety
            /// Requires the target feature.
            #[target_feature(enable = $feat)]
            pub(crate) unsafe fn $name(out: &mut [f32]) {
                let op = out.as_mut_ptr();
                let len = out.len();
                let mut c = 0usize;
                while c + p::W <= len {
                    p::store(op.add(c), $vf(p::load(op.add(c))));
                    c += p::W;
                }
                while c < len {
                    *op.add(c) = crate::simd::$sf(*op.add(c));
                    c += 1;
                }
            }
        };
    }

    lane_kernels!(sse2, p128, "sse2");
    lane_kernels!(avx2, p256, "avx2");
}

macro_rules! dispatch {
    ($lvl:expr, $($call:tt)*) => {
        #[cfg(target_arch = "x86_64")]
        match $lvl {
            SimdLevel::Off => {}
            // Safety: `SimdLevel::Sse2`/`Avx2` values only come from
            // `configured()`/`with_level()`, both of which verify CPU
            // support, so the target features are present.
            SimdLevel::Sse2 => return unsafe { lanes::sse2::$($call)* },
            SimdLevel::Avx2 => return unsafe { lanes::avx2::$($call)* },
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = $lvl;
    };
}

/// As [`dispatch!`], for the matmul dispatchers that report whether a
/// vector path handled the call.
macro_rules! dispatch_handled {
    ($lvl:expr, $($call:tt)*) => {
        #[cfg(target_arch = "x86_64")]
        match $lvl {
            SimdLevel::Off => {}
            // Safety: as `dispatch!` — non-`Off` levels imply CPU support.
            SimdLevel::Sse2 => {
                unsafe { lanes::sse2::$($call)* };
                return true;
            }
            SimdLevel::Avx2 => {
                unsafe { lanes::avx2::$($call)* };
                return true;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = $lvl;
    };
}

/// Runs the vector NN kernel for `lvl`, returning `false` on [`SimdLevel::Off`]
/// (and always off x86-64) so the caller falls back to the scalar oracle.
#[allow(clippy::too_many_arguments)]
pub(crate) fn nn_rows(
    lvl: SimdLevel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
) -> bool {
    dispatch_handled!(lvl, nn_rows(a, b, out, r0, r1, k, n));
    let _ = (a, b, out, r0, r1, k, n);
    false
}

/// Vector TN kernel dispatch; see [`nn_rows`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn tn_rows(
    lvl: SimdLevel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
    m: usize,
) -> bool {
    dispatch_handled!(lvl, tn_rows(a, b, out, r0, r1, k, n, m));
    let _ = (a, b, out, r0, r1, k, n, m);
    false
}

/// Vector NT kernel dispatch over the packed `bt` panel; see [`nn_rows`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn nt_rows(
    lvl: SimdLevel,
    a: &[f32],
    b: &[f32],
    bt: &[f32],
    out: &mut [f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
) -> bool {
    dispatch_handled!(lvl, nt_rows(a, b, bt, out, r0, r1, k, n));
    let _ = (a, b, bt, out, r0, r1, k, n);
    false
}

/// `out[i] += src[i]`, lane-parallel when `lvl` allows.
pub(crate) fn add_in_place(lvl: SimdLevel, out: &mut [f32], src: &[f32]) {
    assert_eq!(out.len(), src.len());
    dispatch!(lvl, add_in_place(out, src));
    for (o, &s) in out.iter_mut().zip(src.iter()) {
        *o += s;
    }
}

/// `out[i] += s * src[i]`, lane-parallel when `lvl` allows.
pub(crate) fn axpy_in_place(lvl: SimdLevel, out: &mut [f32], src: &[f32], s: f32) {
    assert_eq!(out.len(), src.len());
    dispatch!(lvl, axpy_in_place(out, src, s));
    for (o, &v) in out.iter_mut().zip(src.iter()) {
        *o += s * v;
    }
}

/// `out[i] *= s`, lane-parallel when `lvl` allows.
pub(crate) fn scale_in_place(lvl: SimdLevel, out: &mut [f32], s: f32) {
    dispatch!(lvl, scale_in_place(out, s));
    for o in out.iter_mut() {
        *o *= s;
    }
}

/// `out[i] = out[i].max(0.0)`, lane-parallel when `lvl` allows.
pub(crate) fn relu_in_place(lvl: SimdLevel, out: &mut [f32]) {
    dispatch!(lvl, relu_in_place(out));
    for o in out.iter_mut() {
        *o = o.max(0.0);
    }
}

/// Layer-norm normalize step, lane-parallel when `lvl` allows.
pub(crate) fn norm_scale_shift(
    lvl: SimdLevel,
    out: &mut [f32],
    x: &[f32],
    gain: &[f32],
    bias: &[f32],
    mu: f32,
    istd: f32,
) {
    assert_eq!(out.len(), x.len());
    assert_eq!(out.len(), gain.len());
    assert_eq!(out.len(), bias.len());
    dispatch!(lvl, norm_scale_shift(out, x, gain, bias, mu, istd));
    for c in 0..out.len() {
        out[c] = gain[c] * ((x[c] - mu) * istd) + bias[c];
    }
}

/// `dst[i] = (x[i] + h[i]) + b[i]`, lane-parallel when `lvl` allows.
pub(crate) fn add3(lvl: SimdLevel, dst: &mut [f32], x: &[f32], h: &[f32], b: &[f32]) {
    assert_eq!(dst.len(), x.len());
    assert_eq!(dst.len(), h.len());
    assert_eq!(dst.len(), b.len());
    dispatch!(lvl, add3(dst, x, h, b));
    for c in 0..dst.len() {
        dst[c] = (x[c] + h[c]) + b[c];
    }
}

/// One max-over-rows fold step, lane-parallel when `lvl` allows.
pub(crate) fn colmax_in_place(lvl: SimdLevel, best: &mut [f32], row: &[f32]) {
    assert_eq!(best.len(), row.len());
    dispatch!(lvl, colmax_in_place(best, row));
    for (b, &v) in best.iter_mut().zip(row.iter()) {
        if v > *b {
            *b = v;
        }
    }
}

/// `xs[i] = exp(xs[i])` at the thread's [`active`] level — bit-identical to
/// mapping the scalar [`exp`].
pub fn exp_in_place(xs: &mut [f32]) {
    dispatch!(active(), exp_in_place(xs));
    for v in xs.iter_mut() {
        *v = exp(*v);
    }
}

/// `xs[i] = sigmoid(xs[i])` at the thread's [`active`] level.
pub fn sigmoid_in_place(xs: &mut [f32]) {
    dispatch!(active(), sigmoid_in_place(xs));
    for v in xs.iter_mut() {
        *v = sigmoid(*v);
    }
}

/// `xs[i] = tanh(xs[i])` at the thread's [`active`] level.
pub fn tanh_in_place(xs: &mut [f32]) {
    dispatch!(active(), tanh_in_place(xs));
    for v in xs.iter_mut() {
        *v = tanh(*v);
    }
}

/// One LSTM cell update for one row, at the thread's [`active`] level:
/// from the pre-activations `pre = [i | f | g | o]` (`4·h` wide) and the
/// cell state `c` (`h` wide, updated in place to `c' = f·c + i·g`), writes
/// `h' = o·tanh(c')` into `h`. With a stash `(gates, tanh_c)` it also
/// stores the post-activation gates (`4·h`) and `tanh(c')` (`h`) for the
/// tape backward. Every unit is [`sigmoid`]/[`tanh`] on the same operands
/// in the same order at every level.
///
/// # Panics
/// On mismatched widths.
pub fn lstm_cell(
    pre: &[f32],
    c: &mut [f32],
    h: &mut [f32],
    mut stash: Option<(&mut [f32], &mut [f32])>,
) {
    let hid = c.len();
    assert_eq!(pre.len(), 4 * hid, "lstm_cell pre-activation width");
    assert_eq!(h.len(), hid, "lstm_cell hidden width");
    if let Some((gates, cts)) = &stash {
        assert_eq!((gates.len(), cts.len()), (4 * hid, hid), "lstm_cell stash widths");
    }
    dispatch!(active(), lstm_cell(pre, c, h, stash));
    for j in 0..hid {
        lstm_unit(pre, c, h, &mut stash, j);
    }
}

/// One GRU cell update for one row, at the thread's [`active`] level: from
/// the bias-added projections `xp`, `hp = [z | r | n]` (`3·h` wide) and the
/// previous state `h_prev`, writes `h' = (n − z·n) + z·h_prev` into `h`,
/// where `n = tanh(xₙ + r·hₙ)`. With a stash it also stores the
/// post-activation gates `[z | r | n]` for the tape backward.
///
/// # Panics
/// On mismatched widths.
pub fn gru_cell(
    xp: &[f32],
    hp: &[f32],
    h_prev: &[f32],
    h: &mut [f32],
    mut gates: Option<&mut [f32]>,
) {
    let hid = h.len();
    assert_eq!((xp.len(), hp.len()), (3 * hid, 3 * hid), "gru_cell projection widths");
    assert_eq!(h_prev.len(), hid, "gru_cell state width");
    if let Some(g) = &gates {
        assert_eq!(g.len(), 3 * hid, "gru_cell stash width");
    }
    dispatch!(active(), gru_cell(xp, hp, h_prev, h, gates));
    for j in 0..hid {
        gru_unit(xp, hp, h_prev, h, &mut gates, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levels() -> Vec<SimdLevel> {
        let mut out = vec![SimdLevel::Off];
        if is_supported(SimdLevel::Sse2) {
            out.push(SimdLevel::Sse2);
        }
        if is_supported(SimdLevel::Avx2) {
            out.push(SimdLevel::Avx2);
        }
        out
    }

    fn ramp(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i % 13) as f32 - 6.0) * scale).collect()
    }

    #[test]
    fn with_level_overrides_and_restores() {
        let before = active();
        with_level(SimdLevel::Off, || {
            assert_eq!(active(), SimdLevel::Off);
        });
        assert_eq!(active(), before);
    }

    #[test]
    fn relu_lane_kernel_matches_scalar_bits_on_edge_values() {
        // The scalar oracle is `v.max(0.0)`; the vector kernels must
        // reproduce its exact bits for -0.0 ties, NaN and -inf, which pins
        // the MAXPS operand order (value first, zero second).
        let edge = [-0.0f32, 0.0, -1.5, 3.25, f32::NAN, f32::NEG_INFINITY, -f32::MIN_POSITIVE];
        for lvl in levels() {
            for width in 0..=9 {
                let input: Vec<f32> = edge.iter().cycle().take(width + 8).copied().collect();
                let mut want = input.clone();
                for v in want.iter_mut() {
                    *v = v.max(0.0);
                }
                let mut got = input.clone();
                relu_in_place(lvl, &mut got);
                let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb, "level {} width {}", lvl.name(), width);
            }
        }
    }

    #[test]
    fn elementwise_lane_kernels_match_scalar_bits_at_remainder_widths() {
        for lvl in levels() {
            for len in [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33] {
                let x = ramp(len, 0.3);
                let h = ramp(len, 0.7);
                let b = ramp(len, 0.11);

                let mut want = x.clone();
                for (o, &s) in want.iter_mut().zip(h.iter()) {
                    *o += s;
                }
                let mut got = x.clone();
                add_in_place(lvl, &mut got, &h);
                assert_eq!(got, want, "add len {len}");

                let mut want = x.clone();
                for (o, &s) in want.iter_mut().zip(h.iter()) {
                    *o += 0.37 * s;
                }
                let mut got = x.clone();
                axpy_in_place(lvl, &mut got, &h, 0.37);
                assert_eq!(got, want, "axpy len {len}");

                let mut want = x.clone();
                for o in want.iter_mut() {
                    *o *= 1.73;
                }
                let mut got = x.clone();
                scale_in_place(lvl, &mut got, 1.73);
                assert_eq!(got, want, "scale len {len}");

                let mut want = vec![0.0; len];
                for c in 0..len {
                    want[c] = h[c] * ((x[c] - 0.21) * 3.5) + b[c];
                }
                let mut got = vec![0.0; len];
                norm_scale_shift(lvl, &mut got, &x, &h, &b, 0.21, 3.5);
                assert_eq!(got, want, "norm len {len}");

                let mut want = vec![0.0; len];
                for c in 0..len {
                    want[c] = (x[c] + h[c]) + b[c];
                }
                let mut got = vec![0.0; len];
                add3(lvl, &mut got, &x, &h, &b);
                assert_eq!(got, want, "add3 len {len}");

                let mut want = x.clone();
                for (o, &v) in want.iter_mut().zip(h.iter()) {
                    if v > *o {
                        *o = v;
                    }
                }
                let mut got = x.clone();
                colmax_in_place(lvl, &mut got, &h);
                assert_eq!(got, want, "colmax len {len}");
            }
        }
    }

    /// Bit equality, except that any NaN matches any NaN (payloads are not
    /// part of the contract; NaN-ness is).
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (&g, &w)) in got.iter().zip(want).enumerate() {
            let same = if w.is_nan() { g.is_nan() } else { g.to_bits() == w.to_bits() };
            assert!(
                same,
                "{what}[{k}]: got {g:e} ({:08x}), want {w:e} ({:08x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    fn edge_values() -> Vec<f32> {
        let up = |v: f32| f32::from_bits(v.to_bits() + 1);
        vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            tc::HI,
            up(tc::HI),
            -up(-tc::HI),
            tc::LO,
            -up(-tc::LO),
            up(tc::LO),
            88.722_83,
            88.722_84,
            -87.336_55,
            -103.97,
            tc::TANH_SMALL,
            -tc::TANH_SMALL,
            -up(-tc::TANH_SMALL),
            44.5,
            -44.5,
            1e30,
            -1e30,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ]
    }

    /// Edge values interleaved with a ramp, long enough that every edge
    /// lands in vector lanes as well as the scalar remainder.
    fn mixed_inputs(len: usize) -> Vec<f32> {
        let edges = edge_values();
        (0..len)
            .map(
                |i| {
                    if i % 3 == 0 {
                        edges[(i / 3) % edges.len()]
                    } else {
                        (i as f32 - 20.0) * 0.73
                    }
                },
            )
            .collect()
    }

    type Sweep = (&'static str, fn(&mut [f32]), fn(f32) -> f32);
    const SWEEPS: [Sweep; 3] = [
        ("exp", exp_in_place, exp),
        ("sigmoid", sigmoid_in_place, sigmoid),
        ("tanh", tanh_in_place, tanh),
    ];

    #[test]
    fn transcendental_lanes_match_scalar_bits_at_every_width() {
        for lvl in levels() {
            for (name, sweep, scalar) in SWEEPS {
                for len in (1..=17).chain([edge_values().len() * 3 + 5]) {
                    let input = mixed_inputs(len);
                    let want: Vec<f32> = input.iter().map(|&v| scalar(v)).collect();
                    let mut got = input.clone();
                    with_level(lvl, || sweep(&mut got));
                    assert_same_bits(&got, &want, &format!("{name} {} len {len}", lvl.name()));
                }
            }
        }
    }

    #[test]
    fn transcendentals_handle_edge_values() {
        for lvl in levels() {
            let run = |f: fn(&mut [f32]), xs: &[f32]| {
                let mut v = xs.to_vec();
                with_level(lvl, || f(&mut v));
                v
            };
            let e = run(
                exp_in_place,
                &[0.0, -0.0, f32::from_bits(1), f32::INFINITY, f32::NEG_INFINITY],
            );
            assert_eq!(e[..3], [1.0, 1.0, 1.0], "exp(±0, subnormal) at {}", lvl.name());
            assert_eq!(e[3..], [f32::INFINITY, 0.0], "exp(±inf) at {}", lvl.name());
            let s = run(sigmoid_in_place, &[0.0, f32::INFINITY, f32::NEG_INFINITY, 1e30]);
            assert_eq!(s, [0.5, 1.0, 0.0, 1.0], "sigmoid at {}", lvl.name());
            let sub = f32::from_bits(3);
            let t = run(tanh_in_place, &[-0.0, 0.0, sub, -sub, f32::INFINITY, f32::NEG_INFINITY]);
            assert_eq!(t[0].to_bits(), (-0.0f32).to_bits(), "tanh(-0) keeps its sign");
            assert_eq!(t[1].to_bits(), 0);
            assert_eq!((t[2], t[3]), (sub, -sub), "tanh of a subnormal is itself");
            assert_eq!(t[4..], [1.0, -1.0], "tanh(±inf) at {}", lvl.name());
            // Overflow and underflow at the clamp edges are IEEE, not
            // saturated finite values.
            let e = run(exp_in_place, &[88.722_84, tc::HI, 1e30, tc::LO, -1e30]);
            assert_eq!(e, [f32::INFINITY, f32::INFINITY, f32::INFINITY, 0.0, 0.0]);
            assert!(exp(88.722_83).is_finite());
        }
    }

    #[test]
    fn nan_in_gives_nan_out_at_every_level() {
        // A min/max clamp with the operands the wrong way round silently
        // turns NaN into a bound; every sweep and cell must propagate it.
        for lvl in levels() {
            for (name, sweep, _) in SWEEPS {
                for len in [1, 4, 8, 9, 17] {
                    let mut v = vec![f32::NAN; len];
                    with_level(lvl, || sweep(&mut v));
                    assert!(v.iter().all(|x| x.is_nan()), "{name} at {} len {len}", lvl.name());
                }
            }
            for hid in [1, 8, 11] {
                for gate in 0..4 {
                    let mut pre = vec![0.3; 4 * hid];
                    pre[gate * hid] = f32::NAN;
                    let (mut c, mut h) = (vec![0.5; hid], vec![0.0; hid]);
                    with_level(lvl, || lstm_cell(&pre, &mut c, &mut h, None));
                    let at = format!("lstm gate {gate} hid {hid} at {}", lvl.name());
                    assert!(h[0].is_nan(), "{at}: h");
                    // The output gate does not feed the cell.
                    assert_eq!(c[0].is_nan(), gate != 3, "{at}: c");
                }
                for gate in 0..3 {
                    let mut xp = vec![0.3; 3 * hid];
                    xp[gate * hid] = f32::NAN;
                    let (hp, prev, mut h) = (vec![0.1; 3 * hid], vec![0.2; hid], vec![0.0; hid]);
                    with_level(lvl, || gru_cell(&xp, &hp, &prev, &mut h, None));
                    assert!(h[0].is_nan(), "gru gate {gate} hid {hid} at {}", lvl.name());
                }
            }
        }
    }

    fn pseudo(len: usize, seed: u32, scale: f32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(2_654_435_761).max(1);
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                ((s >> 8) as f32 / (1u32 << 24) as f32 * 2.0 - 1.0) * scale
            })
            .collect()
    }

    #[test]
    fn gate_cells_match_scalar_bits_at_every_width() {
        for hid in 1..=17 {
            let pre = pseudo(4 * hid, hid as u32, 6.0);
            let c0 = pseudo(hid, 100 + hid as u32, 3.0);
            let xp = pseudo(3 * hid, 200 + hid as u32, 5.0);
            let hp = pseudo(3 * hid, 300 + hid as u32, 5.0);
            let prev = pseudo(hid, 400 + hid as u32, 1.0);
            let lstm = |lvl| {
                let (mut c, mut h) = (c0.clone(), vec![0.0; hid]);
                let (mut g, mut ct) = (vec![0.0; 4 * hid], vec![0.0; hid]);
                with_level(lvl, || lstm_cell(&pre, &mut c, &mut h, Some((&mut g, &mut ct))));
                // The stash-free call must compute the same state.
                let (mut c2, mut h2) = (c0.clone(), vec![0.0; hid]);
                with_level(lvl, || lstm_cell(&pre, &mut c2, &mut h2, None));
                assert_same_bits(&c2, &c, "lstm c without stash");
                assert_same_bits(&h2, &h, "lstm h without stash");
                [c, h, g, ct]
            };
            let gru = |lvl| {
                let (mut h, mut g) = (vec![0.0; hid], vec![0.0; 3 * hid]);
                with_level(lvl, || gru_cell(&xp, &hp, &prev, &mut h, Some(&mut g)));
                [h, g]
            };
            let (lstm_ref, gru_ref) = (lstm(SimdLevel::Off), gru(SimdLevel::Off));
            // The reference is the scalar activations, unit by unit.
            for j in 0..hid {
                let i = sigmoid(pre[j]);
                let f = sigmoid(pre[hid + j]);
                let g = tanh(pre[2 * hid + j]);
                let cn = f * c0[j] + i * g;
                assert_eq!(lstm_ref[0][j].to_bits(), cn.to_bits());
                assert_eq!(
                    lstm_ref[1][j].to_bits(),
                    (sigmoid(pre[3 * hid + j]) * tanh(cn)).to_bits()
                );
            }
            for lvl in levels() {
                for (k, (got, want)) in lstm(lvl).iter().zip(&lstm_ref).enumerate() {
                    assert_same_bits(got, want, &format!("lstm part {k} hid {hid} {}", lvl.name()));
                }
                for (k, (got, want)) in gru(lvl).iter().zip(&gru_ref).enumerate() {
                    assert_same_bits(got, want, &format!("gru part {k} hid {hid} {}", lvl.name()));
                }
            }
        }
    }

    #[test]
    fn exp_is_within_two_ulp_of_f64_on_its_range() {
        let (lo, hi, steps) = (-87.0f64, 88.0f64, 1 << 20);
        let xs: Vec<f32> =
            (0..=steps).map(|k| (lo + (hi - lo) * k as f64 / steps as f64) as f32).collect();
        let mut ys = xs.clone();
        exp_in_place(&mut ys);
        let mut worst = (0.0f64, 0.0f32);
        for (&x, &y) in xs.iter().zip(&ys) {
            let want = (x as f64).exp();
            let ulp = 2f64.powi(want.log2().floor() as i32 - 23);
            let err = (y as f64 - want).abs() / ulp;
            if err > worst.0 {
                worst = (err, x);
            }
        }
        assert!(worst.0 <= 2.0, "exp: {:.3} ulp at x = {}", worst.0, worst.1);
    }

    #[test]
    fn sigmoid_and_tanh_are_within_2_pow_minus_22_of_f64() {
        let (lo, hi, steps) = (-30.0f64, 30.0f64, 1 << 19);
        let xs: Vec<f32> =
            (0..=steps).map(|k| (lo + (hi - lo) * k as f64 / steps as f64) as f32).collect();
        let bound = 2f64.powi(-22);
        for (name, sweep, f64_ref) in [
            (
                "sigmoid",
                sigmoid_in_place as fn(&mut [f32]),
                (|x: f64| 1.0 / (1.0 + (-x).exp())) as fn(f64) -> f64,
            ),
            ("tanh", tanh_in_place, f64::tanh),
        ] {
            let mut ys = xs.clone();
            sweep(&mut ys);
            let (err, at) = xs
                .iter()
                .zip(&ys)
                .map(|(&x, &y)| ((y as f64 - f64_ref(x as f64)).abs(), x))
                .fold((0.0, 0.0), |a, b| if b.0 > a.0 { b } else { a });
            assert!(err <= bound, "{name}: |err| {err:e} at x = {at}");
        }
    }

    #[test]
    fn descriptor_names_the_configured_level() {
        let d = descriptor();
        assert!(d.contains(configured().name()), "{d}");
    }
}
