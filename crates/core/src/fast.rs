//! Allocation-light inference kernels for online serving.
//!
//! The paper's deployment runs both models on spare CPU cores and leans on
//! aggressive implementation work — "we aggressively employ vectorization
//! based on AVX512 instructions and use C++ ... we get more than 10×
//! performance improvement, compared with no optimization" (§VI-C). This
//! module is the analogous optimization in the reproduction: a forward pass
//! over raw `f32` slices with preallocated scratch buffers, bypassing the
//! autograd tape entirely, with three kernel lanes selected at runtime
//! ([`KernelLane`]): a portable scalar lane that doubles as the correctness
//! oracle, an AVX2+FMA lane whose vector loads are unit-stride across the
//! batch axis, and an AVX-512 lane whose dense layers run 16 wide
//! ([`linear_avx512`]) and which runs the AVX2 code everywhere else. The
//! lane is resolved once per forward ([`on_lane`]); everything below it is
//! inlined into that lane's code context.
//!
//! **What is approximated.** No libm transcendental runs in a forward:
//! every `tanh`, sigmoid and softmax `exp` — LSTM gates, attention, the
//! prefetch `fc` layer and both output heads — goes through
//! [`tanh_approx`], [`sigmoid_approx`] and [`exp_approx`], written once
//! with `*`, `+`, `/` only. Their error against an `f64` reference is
//! bounded by the constants beside them (a few 1e-7; the `approx_*` tests
//! check the bounds over dense grids), which keeps the forward within the
//! 1e-5 the tape-parity tests allow. Rust never contracts `a * b + c` into
//! an FMA, so the same body compiled with or without AVX2 or AVX-512 —
//! however wide LLVM vectorizes it — gives **bit-identical** results: on
//! every epilogue the lanes are equal, not close. The vector lanes differ
//! from the scalar one only where they ask for FMA by name — the matmul
//! and the attention dot products — which skips one rounding per
//! multiply-add; the 1e-5 lane-parity suite bounds that. The AVX-512 lane
//! asks for the same FMAs in the same order as the AVX2 lane, so those two
//! are bit-identical everywhere.
//!
//! Every kernel is *batched*: it advances `bsz` independent sequences per
//! pass over the weights, so a guidance plane serving many shards reads
//! each weight matrix once per drained batch instead of once per chunk
//! (the Software-Defined-Memory move applied to model weights instead of
//! embedding tiers). The single-item entry points are the `bsz == 1` case
//! of the same code path, which is what makes batched-vs-single parity a
//! structural property rather than a numerical accident: per item, the
//! sequence of f32 operations is identical regardless of batch size — the
//! scalar lane accumulates with plain multiply-add, the vector lanes with
//! FMA, each uniformly across every batch size.
//!
//! Batched tensors are flat row-major slices in *batch-interleaved*
//! time-major layout: `[t, dim, bsz]`, element `(t, b, j)` at
//! `(t·dim + j)·bsz + b`. The `bsz` lanes of one feature are contiguous, so
//! an 8-wide SIMD load advances 8 lanes of the same feature at once; at
//! `bsz == 1` the layout coincides with a plain `[t, dim]` sequence.
//! When the last [`LANE_BLOCK`] of a bucket is at least three quarters
//! full, [`forward_buckets`] pads the lane stride to the block width with
//! dead lanes that repeat the bucket's last chunk: a 6-chunk batch then
//! runs every epilogue and the softmax as one full vector instead of six
//! scalar lanes, the dead lanes cost nothing extra (the matmul's and the
//! attention reductions' vectors were 8 wide anyway) and their outputs
//! are never read. (Repeats,
//! not zeros: an all-zero lane would hand the int8 path a subnormal
//! activation scale.) An emptier block stays unpadded — up to five scalar
//! lanes cost no more than a vector's worth of epilogue, and the int8
//! matmul's narrow-batch path pays per lane. On the AVX-512 lane a padded
//! block also runs the dense layers as 16-wide tiles, so padding from half
//! full pays there (B4 37.1 → 25.3 µs per caching chunk, B5 31.7 → 19.6,
//! 20 of 20 interleaved reps) but costs on the AVX2 lane (B4 40.5 → 47.6,
//! B5 34.8 → 35.7; prefetch 79.3 → 82.2 at B5), so the ¾ rule stands for
//! both.
//!
//! **Register blocking.** Both AVX2 kernels hold their outputs in ymm
//! accumulators across the whole reduction and store each once: the
//! matmul ([`matacc_avx2`]) and the attention's score and context
//! reductions ([`stripe_dots_avx2`]), per block of ≤ 8 lanes and group of
//! up to 8 outputs. The AVX-512 lane's dense layer ([`linear_avx512`])
//! holds up to 48 outputs of a full 8-lane block in 24 zmm accumulators,
//! with one 128-bit weight broadcast per two 16-wide FMAs where AVX2 needs
//! one broadcast per 8-wide FMA; the LSTM step is one such layer over
//! `x` and `h`. A B8 caching forward (default config, 2-vCPU Xeon, both
//! lanes timed back to back, rdtsc split, timer overhead included) splits
//! as follows, AVX2 → AVX-512: encoder matmul 29.5 → 14.4 µs, decoder matmul 40.4 → 19.0,
//! gate sweeps 33.0 → 22.3, attention 27 → 22 (combine matmul 10.5 → 5.5,
//! softmax 5.5 → 6.0, the two reductions 8.1 → 8.6, tanh 2.8 → 1.9) and
//! the rest 8.1 → 8.6, of 138 → 86. The gate sweeps are now the largest
//! single part, above either matmul.
//!
//! Weight layout is taken from the owning model's parameter order, which is
//! fixed by construction: embedding table, then per stack
//! `(enc.wx, enc.wh, enc.b, dec.wx, dec.wh, dec.b, attn.w, attn.b)`, then
//! the head layers. Weight matrices are wrapped in [`FastMat`], which is
//! either the exact `f32` tensor or its int8 quantization
//! ([`GuidancePrecision::Int8`]); biases and the embedding table stay
//! `f32` in both modes.

use recmg_tensor::align::AlignedVec;
use recmg_tensor::quant::{QuantScratch, QuantizedMatrix};
use recmg_tensor::Tensor;

pub use recmg_tensor::simd::{active_lane, KernelLane};

use crate::config::GuidancePrecision;

/// Lanes per AVX2 vector: the batch-block width of [`matacc_avx2`] and
/// [`stripe_dots_avx2`], and the stride multiple [`forward_buckets`] pads
/// to.
const LANE_BLOCK: usize = 8;

/// A lane as [`on_lane`] resolved and entered: `Avx2` only inside its
/// AVX2+FMA context, `Avx512` only inside its AVX-512 context (which
/// enables AVX2 and FMA too), `Scalar` anywhere. Only `on_lane` builds one,
/// which is what lets the kernels below call the intrinsic kernels of the
/// lane they are handed.
#[derive(Clone, Copy)]
struct Resolved(KernelLane);

impl Resolved {
    /// Whether AVX2 and FMA are enabled here: on both vector lanes.
    #[inline(always)]
    fn avx2(self) -> bool {
        self.0 != KernelLane::Scalar
    }
}

/// Resolves `lane` once and runs `f` in that lane's code context: inlined
/// into an AVX-512 function (`avx512f/vl/dq` with `avx2,fma`) when the lane
/// is [`KernelLane::Avx512`] and the CPU has every one of those features,
/// into an AVX2+FMA function for [`KernelLane::Avx2`] on a CPU with both,
/// and into plain code otherwise (an unavailable lane runs scalar). `f`
/// receives the lane it actually runs on. Everything that runs under `f`
/// must be the closure itself or `#[inline(always)]`: a helper left out of
/// line is compiled without the features, and its `mul_add` becomes a libm
/// call.
#[inline(always)]
fn on_lane<R>(lane: KernelLane, f: impl FnOnce(Resolved) -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx2,fma")]
        fn avx2<R>(f: impl FnOnce(Resolved) -> R) -> R {
            f(Resolved(KernelLane::Avx2))
        }
        #[target_feature(enable = "avx2,fma,avx512f,avx512vl,avx512dq")]
        fn avx512<R>(f: impl FnOnce(Resolved) -> R) -> R {
            f(Resolved(KernelLane::Avx512))
        }
        use recmg_tensor::simd::{avx2_fma_available, avx512_available};
        match lane {
            // SAFETY: the CPU supports AVX-512F/VL/DQ, AVX2 and FMA
            // (`avx512_available` checks all five).
            KernelLane::Avx512 if avx512_available() => return unsafe { avx512(f) },
            // SAFETY: the CPU supports AVX2 and FMA (`avx2_fma_available`).
            KernelLane::Avx2 if avx2_fma_available() => return unsafe { avx2(f) },
            _ => {}
        }
    }
    let _ = lane;
    f(Resolved(KernelLane::Scalar))
}

/// Max |[`tanh_approx`] − tanh| and max |[`sigmoid_approx`] − sigmoid| over
/// all of `f32` (checked on [−20, 20]; both are constant beyond the clamp).
#[cfg(test)]
const TANH_MAX_ABS_ERR: f64 = 4e-7;

/// Rational `tanh`: odd degree 13 over even degree 6 on the clamped
/// argument, the coefficients Eigen and XLA use. The clamp is written as
/// comparisons, not `min`/`max`, so a NaN argument stays NaN.
#[inline(always)]
pub(crate) fn tanh_approx(x: f32) -> f32 {
    /// Beyond this the rational form would round above 1.
    const TANH_CLAMP: f32 = 7.905_311;
    let x = if x > TANH_CLAMP { TANH_CLAMP } else { x };
    let x = if x < -TANH_CLAMP { -TANH_CLAMP } else { x };
    let x2 = x * x;
    let p = x2 * -2.760_768_4e-16 + 2.000_188e-13;
    let p = x2 * p + -8.604_672e-11;
    let p = x2 * p + 5.122_297_3e-8;
    let p = x2 * p + 1.485_722_35e-5;
    let p = x2 * p + 6.372_619_5e-4;
    let p = x2 * p + 4.893_524_6e-3;
    let q = x2 * 1.198_258_4e-6 + 1.185_347_1e-4;
    let q = x2 * q + 2.268_434_7e-3;
    let q = x2 * q + 4.893_525e-3;
    x * p / q
}

/// Logistic sigmoid through [`tanh_approx`]: in [0, 1], exactly 0.5 at 0.
#[inline(always)]
pub(crate) fn sigmoid_approx(x: f32) -> f32 {
    0.5 * tanh_approx(0.5 * x) + 0.5
}

/// Max relative error of [`exp_approx`] on [[`EXP_MIN_ARG`], 0].
#[cfg(test)]
const EXP_MAX_REL_ERR: f64 = 2e-7;

/// Arguments below this are clamped to it: `exp` there is under 1.7e-38, a
/// softmax weight that cannot move an f32 sum whose largest term is 1.
const EXP_MIN_ARG: f32 = -87.0;

/// `exp(x)` for the softmax's `x ≤ 0` (valid up to 88): `x = n·ln 2 + r`
/// with `n` rounded by the add-and-subtract of 1.5·2²³, a degree-5
/// polynomial on `|r| ≤ ln 2 / 2` (Cephes `expf`), and `2ⁿ` built from
/// `n`'s low bits, which that same sum left in its mantissa.
#[inline(always)]
fn exp_approx(x: f32) -> f32 {
    const ROUND: f32 = 12_582_912.0;
    let x = if x < EXP_MIN_ARG { EXP_MIN_ARG } else { x };
    let shifted = x * std::f32::consts::LOG2_E + ROUND;
    let n = shifted - ROUND;
    let r = x - n * 0.693_359_4 - n * -2.121_944_4e-4;
    let p = r * 1.987_569_1e-4 + 1.398_199_9e-3;
    let p = r * p + 8.333_452e-3;
    let p = r * p + 4.166_579_6e-2;
    let p = r * p + 1.666_666_6e-1;
    let p = r * p + 0.5;
    let e = r * r * p + r + 1.0;
    e * f32::from_bits((shifted.to_bits() << 23).wrapping_add(0x3f80_0000))
}

/// `v ← act(v)` elementwise on `lane`, for the model heads: `act` is
/// [`tanh_approx`] (the prefetch `fc` layer) or [`sigmoid_approx`] (both
/// output heads).
pub(crate) fn map_batch(lane: KernelLane, v: &mut [f32], act: impl Fn(f32) -> f32) {
    on_lane(
        lane,
        #[inline(always)]
        |_| v.iter_mut().for_each(|x| *x = act(*x)),
    )
}

/// The LSTM gate epilogue as one sweep over the four contiguous blocks of
/// `gates` (`[i, f, g, o]`, each as long as `h` and `c`):
/// `c ← σ(f)·c + σ(i)·tanh(g)`, `h ← σ(o)·tanh(c)`.
#[inline(always)]
fn gate_sweep(gates: &[f32], h: &mut [f32], c: &mut [f32]) {
    let n = c.len();
    let (h, gi, gf) = (&mut h[..n], &gates[..n], &gates[n..2 * n]);
    let (gg, go) = (&gates[2 * n..3 * n], &gates[3 * n..4 * n]);
    for k in 0..n {
        let cv = sigmoid_approx(gf[k]) * c[k] + sigmoid_approx(gi[k]) * tanh_approx(gg[k]);
        c[k] = cv;
        h[k] = sigmoid_approx(go[k]) * tanh_approx(cv);
    }
}

/// Softmax over the steps of interleaved `scores` (`[t, bsz]`), every lane
/// of a stripe at once; `work` is `[2, bsz]` (running maxima, then
/// denominators). Per lane the denominator accumulates in step order.
#[inline(always)]
fn softmax_stripes(scores: &mut [f32], work: &mut [f32], bsz: usize) {
    let (mx, dn) = work.split_at_mut(bsz);
    let dn = &mut dn[..bsz];
    mx.fill(f32::NEG_INFINITY);
    for sc in scores.chunks_exact(bsz) {
        for b in 0..bsz {
            mx[b] = if sc[b] > mx[b] { sc[b] } else { mx[b] };
        }
    }
    dn.fill(0.0);
    for sc in scores.chunks_exact_mut(bsz) {
        for b in 0..bsz {
            sc[b] = exp_approx(sc[b] - mx[b]);
            dn[b] += sc[b];
        }
    }
    for sc in scores.chunks_exact_mut(bsz) {
        for b in 0..bsz {
            sc[b] /= dn[b];
        }
    }
}

/// A compiled weight matrix: exact `f32` or symmetric int8.
///
/// Both variants expose the same batch-interleaved accumulating matmul, so
/// every kernel in this module is precision-agnostic.
#[derive(Debug, Clone)]
pub(crate) enum FastMat {
    F32(Tensor),
    Int8(QuantizedMatrix),
}

impl FastMat {
    pub(crate) fn compile(w: Tensor, precision: GuidancePrecision) -> Self {
        match precision {
            GuidancePrecision::F32 => FastMat::F32(w),
            GuidancePrecision::Int8 => FastMat::Int8(QuantizedMatrix::quantize(&w)),
        }
    }

    pub(crate) fn rows(&self) -> usize {
        match self {
            FastMat::F32(w) => w.rows(),
            FastMat::Int8(q) => q.rows(),
        }
    }

    pub(crate) fn cols(&self) -> usize {
        match self {
            FastMat::F32(w) => w.cols(),
            FastMat::Int8(q) => q.cols(),
        }
    }

    /// Weight footprint in bytes.
    pub(crate) fn size_bytes(&self) -> usize {
        match self {
            FastMat::F32(w) => w.len() * std::mem::size_of::<f32>(),
            FastMat::Int8(q) => q.size_bytes(),
        }
    }

    /// `out[c·bsz + b] += (x_b @ W)[c]` over the interleaved batch.
    #[inline(always)]
    fn accumulate(
        &self,
        lane: Resolved,
        bsz: usize,
        xs: &[f32],
        out: &mut [f32],
        qs: &mut QuantScratch,
    ) {
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a vector `Resolved` exists only inside `on_lane`'s
            // context for it, which enables AVX2 and FMA; `matacc_avx2`
            // checks the slice lengths it indexes by.
            FastMat::F32(w) if lane.avx2() => unsafe {
                matacc_avx2(w.data(), w.rows(), w.cols(), bsz, xs, out)
            },
            FastMat::F32(w) => matacc_scalar(w.data(), w.rows(), w.cols(), bsz, xs, out),
            FastMat::Int8(q) => q.vecmul_batch(lane.0, bsz, xs, out, qs),
        }
    }
}

/// The scalar lane of the batch-interleaved accumulating f32 matmul
/// `out[g·bsz + b] += Σ_i xs[i·bsz + b] · w[i·out_dim + g]`.
///
/// Both lanes accumulate every output element in input-feature order — this
/// one with plain multiply-add, [`matacc_avx2`] with FMA — uniformly across
/// batch sizes, so per-item results within a lane are independent of `bsz`
/// (the structural batched-vs-single parity the session tests pin down
/// bit-exactly). The lanes differ only at rounding level (FMA skips the
/// intermediate rounding), which the 1e-5 lane-parity suite bounds.
fn matacc_scalar(
    w: &[f32],
    in_dim: usize,
    out_dim: usize,
    bsz: usize,
    xs: &[f32],
    out: &mut [f32],
) {
    debug_assert_eq!(w.len(), in_dim * out_dim);
    debug_assert_eq!(xs.len(), in_dim * bsz);
    debug_assert_eq!(out.len(), out_dim * bsz);
    if bsz == 1 {
        for (i, row) in w.chunks_exact(out_dim).enumerate().take(in_dim) {
            let xv = xs[i];
            if xv == 0.0 {
                continue;
            }
            for (o, &wv) in out.iter_mut().zip(row) {
                *o += xv * wv;
            }
        }
    } else {
        for (i, row) in w.chunks_exact(out_dim).enumerate().take(in_dim) {
            let x = &xs[i * bsz..(i + 1) * bsz];
            if x.iter().all(|&v| v == 0.0) {
                continue;
            }
            for (g, &wv) in row.iter().enumerate() {
                let o = &mut out[g * bsz..(g + 1) * bsz];
                for (ov, &xv) in o.iter_mut().zip(x) {
                    *ov += xv * wv;
                }
            }
        }
    }
}

/// The load/store masks of the AVX2 kernels: the 8 words from
/// `LANE_BLOCK − n` on enable the first `n` lanes of a block.
#[cfg(target_arch = "x86_64")]
const LANE_MASKS: [i32; 2 * LANE_BLOCK] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// The AVX2+FMA lane. At `bsz == 1` it vectorizes 8-wide over the output
/// axis. At `bsz > 1` the interleaved layout makes the batch axis
/// unit-stride: per block of ≤ 8 lanes and group of `G` outputs it holds
/// the `G` output stripes in registers across the whole input loop and
/// stores each once — one activation load and `G` weight broadcasts per `G`
/// FMAs, where a load-FMA-store per `(input, output)` pair paid three
/// memory operations per FMA. A block narrower than 8 lanes is the same
/// code under a load/store mask, so no batch size falls onto a per-lane
/// path. Every element accumulates in input-feature order with FMA in all
/// paths.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn matacc_avx2(
    w: &[f32],
    in_dim: usize,
    out_dim: usize,
    bsz: usize,
    xs: &[f32],
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    assert_eq!(w.len(), in_dim * out_dim);
    assert_eq!(xs.len(), in_dim * bsz);
    assert_eq!(out.len(), out_dim * bsz);
    if bsz == 1 {
        for i in 0..in_dim {
            let xv = xs[i];
            if xv == 0.0 {
                continue;
            }
            let row = &w[i * out_dim..(i + 1) * out_dim];
            let xvv = _mm256_set1_ps(xv);
            let mut g = 0;
            while g + 8 <= out_dim {
                let o = _mm256_loadu_ps(out.as_ptr().add(g));
                let wv = _mm256_loadu_ps(row.as_ptr().add(g));
                _mm256_storeu_ps(out.as_mut_ptr().add(g), _mm256_fmadd_ps(xvv, wv, o));
                g += 8;
            }
            while g < out_dim {
                out[g] = xv.mul_add(row[g], out[g]);
                g += 1;
            }
        }
        return;
    }
    matacc_avx2_blocks(w, in_dim, out_dim, bsz, xs, out, 0..bsz, 0);
}

/// The `bsz > 1` path of [`matacc_avx2`] over the lanes in `lanes`, in
/// blocks of ≤ 8 from its start, and the outputs from `g0`: the whole
/// matrix for the AVX2 lane, the part its 16-wide tiles leave for
/// [`linear_avx512`].
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn matacc_avx2_blocks(
    w: &[f32],
    in_dim: usize,
    out_dim: usize,
    bsz: usize,
    xs: &[f32],
    out: &mut [f32],
    lanes: std::ops::Range<usize>,
    g0: usize,
) {
    use std::arch::x86_64::*;
    assert_eq!(w.len(), in_dim * out_dim);
    assert_eq!(xs.len(), in_dim * bsz);
    assert_eq!(out.len(), out_dim * bsz);
    assert!(lanes.end <= bsz);
    /// `o[g·bsz + l] += Σ_i x[i·bsz + l] · w[i·out_dim + g]` for `g < G`
    /// and the lanes `l` enabled in `mask`.
    #[inline(always)]
    unsafe fn block<const G: usize>(
        (w, x, o): (*const f32, *const f32, *mut f32),
        (in_dim, out_dim, bsz): (usize, usize, usize),
        mask: __m256i,
    ) {
        let mut acc = [_mm256_setzero_ps(); G];
        for (g, a) in acc.iter_mut().enumerate() {
            *a = _mm256_maskload_ps(o.add(g * bsz), mask);
        }
        for i in 0..in_dim {
            let xv = _mm256_maskload_ps(x.add(i * bsz), mask);
            for (g, a) in acc.iter_mut().enumerate() {
                *a = _mm256_fmadd_ps(xv, _mm256_set1_ps(*w.add(i * out_dim + g)), *a);
            }
        }
        for (g, a) in acc.iter().enumerate() {
            _mm256_maskstore_ps(o.add(g * bsz), mask, *a);
        }
    }
    let (wp, xp, op) = (w.as_ptr(), xs.as_ptr(), out.as_mut_ptr());
    let dims = (in_dim, out_dim, bsz);
    // SAFETY (every pointer below): a block starts at lane `b` with
    // `b < lanes.end ≤ bsz` and enables `n = min(8, lanes.end − b)` lanes,
    // so it reads `xs[i·bsz + b + l]` and `out[g·bsz + b + l]` for `l < n`,
    // `i < in_dim` and `g` below the group's end `≤ out_dim` — inside the
    // lengths asserted above — and `w[i·out_dim + g]` likewise. Masked-off
    // lanes are not accessed, and the mask itself is 8 consecutive words
    // of the 16 in `LANE_MASKS`. `matacc_order_matches_a_naive_fma_reference`
    // sweeps the whole matrix, `avx512_linear_matches_avx2_bit_for_bit` the
    // parts `linear_avx512` leaves.
    for b in lanes.clone().step_by(LANE_BLOCK) {
        let n = (lanes.end - b).min(LANE_BLOCK);
        let mask = _mm256_loadu_si256(LANE_MASKS.as_ptr().add(LANE_BLOCK - n) as *const __m256i);
        let mut g = g0;
        while g < out_dim {
            let at = (wp.add(g), xp.add(b), op.add(g * bsz + b));
            if g + 8 <= out_dim {
                block::<8>(at, dims, mask);
                g += 8;
            } else {
                block::<1>(at, dims, mask);
                g += 1;
            }
        }
    }
}

/// Output quads per [`linear_avx512`] tile: 12 quads hold 24 zmm
/// accumulators, which leaves room for the two spread activations, the
/// weight broadcast and the two spread indices in the 32 registers.
#[cfg(target_arch = "x86_64")]
const TILE_QUADS: usize = 12;

/// The AVX-512 lane of [`linear_on`] on `f32` weights:
/// `out = b + Σ_s W_s · x_s` over one or two input segments `(W_s, x_s)`
/// (`W_s` is `[in_s, out]` row-major, `x_s` is `[in_s, bsz]`, `out` is
/// `[out, bsz]`).
///
/// Each full 8-lane block runs as tiles of up to [`TILE_QUADS`] output
/// quads (4 consecutive outputs). A quad's 8 lanes are two zmm
/// accumulators, one per 4-lane group, element `4·l + k` holding output
/// `k` of lane `l`. Each starts from a `vbroadcastf32x4` of the quad's
/// bias; per input, one `vbroadcastf32x4` of the quad's 4 weights feeds two
/// 16-element FMAs, against the group's activations spread by one `vpermps`
/// each (lane `l` to elements `4l..4l + 4`). A fixed `vpermt2ps` turns the
/// two accumulators back into the quad's 4 output stripes, and each is
/// stored once. Where AVX2 needs one weight broadcast per 8-lane FMA, this
/// needs one per two 16-lane FMAs. The `out % 4` tail outputs and a
/// partial last block run the AVX2 code ([`matacc_avx2_blocks`]) from the
/// bias.
///
/// Every element starts from its bias and accumulates with FMA in
/// input-feature order, segment 0 first — exactly the AVX2 lane's
/// `bias fill + matacc_avx2` per segment, so the two lanes agree bit for
/// bit.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX-512VL, AVX-512DQ, AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avx512f,avx512vl,avx512dq")]
unsafe fn linear_avx512(bsz: usize, segs: &[(&[f32], &[f32])], b: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let out_dim = b.len();
    assert_eq!(out.len(), out_dim * bsz);
    for (w, x) in segs {
        assert_eq!(x.len() % bsz, 0);
        assert_eq!(w.len(), x.len() / bsz * out_dim);
    }
    /// `out = b + Σ_s W_s · x_s` for the 8 lanes from `l0` and the `4·Q`
    /// outputs from `g0`.
    #[inline(always)]
    unsafe fn tile<const Q: usize>(
        segs: &[(&[f32], &[f32])],
        (b, o): (*const f32, *mut f32),
        (out_dim, bsz): (usize, usize),
        (l0, g0): (usize, usize),
    ) {
        let spread = [
            _mm512_setr_epi32(0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3),
            _mm512_setr_epi32(4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7),
        ];
        // Per quad, the accumulators of lanes 0–3 and of lanes 4–7.
        let mut acc = [(_mm512_setzero_ps(), _mm512_setzero_ps()); Q];
        for (q, (lo, hi)) in acc.iter_mut().enumerate() {
            let bias = _mm512_broadcast_f32x4(_mm_loadu_ps(b.add(g0 + 4 * q)));
            (*lo, *hi) = (bias, bias);
        }
        for (w, x) in segs {
            let (wp, xp) = (w.as_ptr().add(g0), x.as_ptr().add(l0));
            for i in 0..x.len() / bsz {
                let xv = _mm512_castps256_ps512(_mm256_loadu_ps(xp.add(i * bsz)));
                let xlo = _mm512_permutexvar_ps(spread[0], xv);
                let xhi = _mm512_permutexvar_ps(spread[1], xv);
                for (q, (lo, hi)) in acc.iter_mut().enumerate() {
                    let wv = _mm512_broadcast_f32x4(_mm_loadu_ps(wp.add(i * out_dim + 4 * q)));
                    *lo = _mm512_fmadd_ps(xlo, wv, *lo);
                    *hi = _mm512_fmadd_ps(xhi, wv, *hi);
                }
            }
        }
        // Outputs `2k` and `2k + 1` of the quad, 8 lanes each.
        let pick = [
            _mm512_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28, 1, 5, 9, 13, 17, 21, 25, 29),
            _mm512_setr_epi32(2, 6, 10, 14, 18, 22, 26, 30, 3, 7, 11, 15, 19, 23, 27, 31),
        ];
        for (q, &(lo, hi)) in acc.iter().enumerate() {
            let o = o.add((g0 + 4 * q) * bsz + l0);
            for (k, p) in pick.iter().enumerate() {
                let v = _mm512_permutex2var_ps(lo, *p, hi);
                _mm256_storeu_ps(o.add(2 * k * bsz), _mm512_castps512_ps256(v));
                _mm256_storeu_ps(o.add((2 * k + 1) * bsz), _mm512_extractf32x8_ps::<1>(v));
            }
        }
    }
    let (full, quads) = (bsz / LANE_BLOCK * LANE_BLOCK, out_dim / 4);
    let ptrs = (b.as_ptr(), out.as_mut_ptr());
    let dims = (out_dim, bsz);
    // SAFETY (every pointer below): a tile covers the lanes `l0..l0 + 8`
    // with `l0 + 8 ≤ full ≤ bsz` and the outputs `g0..g0 + 4·Q` with
    // `g0 + 4·Q ≤ 4·quads ≤ out_dim`. With `in_s = x_s.len() / bsz`, it
    // reads `b[g]` and `W_s[i·out_dim + g]` for those `g` and `i < in_s`,
    // `x_s[i·bsz + l]` for those lanes `l`, and writes `out[g·bsz + l]` —
    // inside the lengths asserted above (`W_s.len() = in_s·out_dim`).
    // `avx512_linear_matches_avx2_bit_for_bit` sweeps full and partial
    // blocks, one and two segments and every `out % 4` tail.
    for l0 in (0..full).step_by(LANE_BLOCK) {
        for q in (0..quads).step_by(TILE_QUADS) {
            let at = (l0, 4 * q);
            match quads - q {
                1 => tile::<1>(segs, ptrs, dims, at),
                2 => tile::<2>(segs, ptrs, dims, at),
                3 => tile::<3>(segs, ptrs, dims, at),
                4 => tile::<4>(segs, ptrs, dims, at),
                5 => tile::<5>(segs, ptrs, dims, at),
                6 => tile::<6>(segs, ptrs, dims, at),
                7 => tile::<7>(segs, ptrs, dims, at),
                8 => tile::<8>(segs, ptrs, dims, at),
                9 => tile::<9>(segs, ptrs, dims, at),
                10 => tile::<10>(segs, ptrs, dims, at),
                11 => tile::<11>(segs, ptrs, dims, at),
                _ => tile::<TILE_QUADS>(segs, ptrs, dims, at),
            }
        }
    }
    // The rest runs the AVX2 lane's code (its features are a subset of
    // this function's): the tail outputs of the full blocks, then every
    // output of the partial block.
    for (lanes, g0) in [(0..full, 4 * quads), (full..bsz, 0)] {
        for g in g0..out_dim {
            out[g * bsz..][lanes.clone()].fill(b[g]);
        }
        for (w, x) in segs {
            let in_dim = x.len() / bsz;
            matacc_avx2_blocks(w, in_dim, out_dim, bsz, x, out, lanes.clone(), g0);
        }
    }
}

/// The two reductions of [`FastStack::attend_on`] as one shape:
/// `out[g·bsz + l] = Σ_i a[i·bsz + l] · x[g·gs + i·is + l]` over the
/// interleaved batch, for `i < a.len() / bsz` and `g < out.len() / bsz`.
/// The scores take `a` = the query, `i` = hidden unit and `g` = encoder
/// step (`(is, gs) = (bsz, h·bsz)`); the context takes `a` = the attention
/// weights, `i` = step and `g` = hidden unit (`(is, gs) = (h·bsz, bsz)`).
/// Every element accumulates from 0 in `i` order: fused on the AVX2 lane
/// ([`stripe_dots_avx2`]), with plain multiply-add here.
#[inline(always)]
fn stripe_dots(
    lane: Resolved,
    bsz: usize,
    a: &[f32],
    x: &[f32],
    strides: (usize, usize),
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if lane.avx2() {
        // SAFETY: a vector `Resolved` exists only inside `on_lane`'s
        // context for it, which enables AVX2 and FMA; `stripe_dots_avx2`
        // checks the slice lengths it indexes by.
        return unsafe { stripe_dots_avx2(bsz, a, x, strides, out) };
    }
    let _ = lane;
    let (is, gs) = strides;
    out.fill(0.0);
    // `i` outermost: consecutive multiply-adds go to different outputs.
    for (i, ai) in a.chunks_exact(bsz).enumerate() {
        for (g, o) in out.chunks_exact_mut(bsz).enumerate() {
            let xs = &x[g * gs + i * is..][..bsz];
            for ((o, &av), &xv) in o.iter_mut().zip(ai).zip(xs) {
                *o += av * xv;
            }
        }
    }
}

/// The AVX2+FMA lane of [`stripe_dots`], register-blocked like
/// [`matacc_avx2`]: per block of ≤ 8 lanes and group of up to 8 outputs
/// it holds the group's stripes in registers across the whole `i` loop
/// and stores each once — one load of `a` and `G` loads of `x` per `G`
/// FMAs, where a load-FMA-store per `(i, g)` pair paid four memory
/// operations per FMA. A block narrower than 8 lanes runs the same code
/// under a load/store mask, so `bsz == 1` takes no separate path.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn stripe_dots_avx2(
    bsz: usize,
    a: &[f32],
    x: &[f32],
    (is, gs): (usize, usize),
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let (len, groups) = (a.len() / bsz, out.len() / bsz);
    assert_eq!(a.len(), len * bsz);
    assert_eq!(out.len(), groups * bsz);
    if len == 0 || groups == 0 {
        out.fill(0.0);
        return;
    }
    assert!((groups - 1) * gs + (len - 1) * is + bsz <= x.len());
    /// `o[g·bsz + l] = Σ_i a[i·bsz + l] · x[g·gs + i·is + l]` for `g < G`
    /// and the lanes `l` enabled in `mask`.
    #[inline(always)]
    unsafe fn block<const G: usize>(
        (a, x, o): (*const f32, *const f32, *mut f32),
        (len, is, gs, bsz): (usize, usize, usize, usize),
        mask: __m256i,
    ) {
        let mut acc = [_mm256_setzero_ps(); G];
        for i in 0..len {
            let av = _mm256_maskload_ps(a.add(i * bsz), mask);
            for (g, c) in acc.iter_mut().enumerate() {
                let xv = _mm256_maskload_ps(x.add(g * gs + i * is), mask);
                *c = _mm256_fmadd_ps(av, xv, *c);
            }
        }
        for (g, c) in acc.iter().enumerate() {
            _mm256_maskstore_ps(o.add(g * bsz), mask, *c);
        }
    }
    let (ap, xp, op) = (a.as_ptr(), x.as_ptr(), out.as_mut_ptr());
    let dims = (len, is, gs, bsz);
    // SAFETY (every pointer below): a block starts at lane `b < bsz` and
    // enables `n = min(8, bsz − b)` lanes, so for `l < n`, `i < len` and
    // `g < groups` it reads `a[i·bsz + b + l]` and
    // `x[g·gs + i·is + b + l]` and writes `out[g·bsz + b + l]` — inside
    // the bounds asserted above. Masked-off lanes are not accessed, and the
    // mask is 8 consecutive words of the 16 in `LANE_MASKS`.
    // `attend_order_matches_a_naive_fma_reference` sweeps partial lane
    // blocks and partial groups on both reductions.
    for b in (0..bsz).step_by(LANE_BLOCK) {
        let n = (bsz - b).min(LANE_BLOCK);
        let mask = _mm256_loadu_si256(LANE_MASKS.as_ptr().add(LANE_BLOCK - n) as *const __m256i);
        for g in (0..groups).step_by(8) {
            let at = (ap.add(b), xp.add(g * gs + b), op.add(g * bsz + b));
            match groups - g {
                1 => block::<1>(at, dims, mask),
                2 => block::<2>(at, dims, mask),
                3 => block::<3>(at, dims, mask),
                4 => block::<4>(at, dims, mask),
                5 => block::<5>(at, dims, mask),
                6 => block::<6>(at, dims, mask),
                7 => block::<7>(at, dims, mask),
                _ => block::<8>(at, dims, mask),
            }
        }
    }
}

/// Reusable buffers for batched fast-model forwards
/// ([`FastCachingModel::probs_batch_with`] /
/// [`FastPrefetchModel::codes_batch_with`]).
///
/// One `FastScratch` per serving thread removes every per-forward heap
/// allocation from the guidance hot loop: the stack-level scratch
/// (`gates`/`enc`/`scores`/`cat` plus the int8 activation buffers) and the
/// two ping-pong sequence buffers that carry activations between LSTM
/// stacks. Buffers grow to the largest batch seen and are reused verbatim
/// afterwards.
///
/// [`FastCachingModel::probs_batch_with`]: crate::FastCachingModel::probs_batch_with
/// [`FastPrefetchModel::codes_batch_with`]: crate::FastPrefetchModel::codes_batch_with
#[derive(Debug, Clone)]
pub struct FastScratch {
    pub(crate) stack: Scratch,
    pub(crate) seq_a: AlignedVec<f32>,
    pub(crate) seq_b: AlignedVec<f32>,
}

impl Default for FastScratch {
    fn default() -> Self {
        FastScratch {
            stack: Scratch::default(),
            seq_a: AlignedVec::with_stagger(1920),
            seq_b: AlignedVec::with_stagger(2112),
        }
    }
}

/// One LSTM cell's weights.
#[derive(Debug, Clone)]
pub(crate) struct FastLstm {
    wx: FastMat, // [e, 4h]
    wh: FastMat, // [h, 4h]
    b: Tensor,   // [4h]
    e: usize,
    h: usize,
}

impl FastLstm {
    pub(crate) fn new(wx: Tensor, wh: Tensor, b: Tensor, precision: GuidancePrecision) -> Self {
        let e = wx.rows();
        let h = wh.rows();
        debug_assert_eq!(wx.cols(), 4 * h);
        debug_assert_eq!(b.len(), 4 * h);
        FastLstm {
            wx: FastMat::compile(wx, precision),
            wh: FastMat::compile(wh, precision),
            b,
            e,
            h,
        }
    }

    pub(crate) fn size_bytes(&self) -> usize {
        self.wx.size_bytes() + self.wh.size_bytes() + self.b.len() * std::mem::size_of::<f32>()
    }

    /// One step over `bsz` independent lanes: consumes `x` (`[e, bsz]`
    /// interleaved), updates `h`/`c` (`[h, bsz]`) in place, using `gates`
    /// (`[4h, bsz]`) as scratch. The gates are one dense layer over two
    /// segments, `b + Wx·x + Wh·h`; each weight row is read once and
    /// applied to every lane, so the weight traffic of a step is
    /// independent of `bsz`. The gate epilogue is one sweep over the four
    /// contiguous `[h·bsz]` blocks of `gates`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn step_on(
        &self,
        lane: Resolved,
        bsz: usize,
        x: &[f32],
        h: &mut [f32],
        c: &mut [f32],
        gates: &mut [f32],
        qs: &mut QuantScratch,
    ) {
        let n = self.h * bsz;
        debug_assert_eq!(x.len(), bsz * self.e);
        debug_assert_eq!(gates.len(), 4 * n);
        let segs = [(&self.wx, x), (&self.wh, &*h)];
        linear_on(lane, &segs, &self.b, bsz, gates, qs);
        gate_sweep(gates, &mut h[..n], &mut c[..n]);
    }

    /// [`FastLstm::step_on`] on an explicit lane, for the parity proptests
    /// (production code steps inside [`FastStack::forward_batch`]).
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step_batch(
        &self,
        lane: KernelLane,
        bsz: usize,
        x: &[f32],
        h: &mut [f32],
        c: &mut [f32],
        gates: &mut [f32],
        qs: &mut QuantScratch,
    ) {
        on_lane(
            lane,
            #[inline(always)]
            |lane| self.step_on(lane, bsz, x, h, c, gates, qs),
        )
    }

    /// One step of a single sequence — the `bsz == 1` case of
    /// [`FastLstm::step_batch`], kept as the per-item reference for the
    /// parity proptests.
    #[cfg(test)]
    pub(crate) fn step(
        &self,
        lane: KernelLane,
        x: &[f32],
        h: &mut [f32],
        c: &mut [f32],
        gates: &mut [f32],
    ) {
        let mut qs = QuantScratch::default();
        self.step_batch(lane, 1, x, h, c, gates, &mut qs);
    }

    pub(crate) fn hidden(&self) -> usize {
        self.h
    }
}

/// Batched dense layer `Y = X W + b` in interleaved layout: `xs` is
/// `[in, bsz]`, `out` is `[out, bsz]`. One pass over the weight matrix
/// serves all `bsz` lanes.
pub(crate) fn fast_linear_batch(
    lane: KernelLane,
    w: &FastMat,
    b: &Tensor,
    bsz: usize,
    xs: &[f32],
    out: &mut [f32],
    qs: &mut QuantScratch,
) {
    on_lane(
        lane,
        #[inline(always)]
        |lane| linear_on(lane, &[(w, xs)], b, bsz, out, qs),
    )
}

/// `out = b + Σ_s W_s · x_s` over the interleaved batch, for one or two
/// input segments `(W_s, x_s)` (`x_s` is `[in_s, bsz]`, `out` is
/// `[out, bsz]`). Every element starts from its bias and accumulates the
/// segments in order, each in input-feature order: on the AVX-512 lane a
/// batch with a full 8-lane block of `f32` weights runs [`linear_avx512`],
/// anything else fills the bias and accumulates segment by segment.
#[inline(always)]
fn linear_on(
    lane: Resolved,
    segs: &[(&FastMat, &[f32])],
    b: &Tensor,
    bsz: usize,
    out: &mut [f32],
    qs: &mut QuantScratch,
) {
    debug_assert_eq!(out.len(), bsz * b.len());
    #[cfg(target_arch = "x86_64")]
    if lane.0 == KernelLane::Avx512 && bsz >= LANE_BLOCK {
        // SAFETY: an `Avx512` `Resolved` exists only inside `on_lane`'s
        // AVX-512 context; `linear_avx512` checks the lengths it indexes
        // by.
        match *segs {
            [(FastMat::F32(w), x)] => {
                return unsafe { linear_avx512(bsz, &[(w.data(), x)], b.data(), out) };
            }
            [(FastMat::F32(wx), x), (FastMat::F32(wh), h)] => {
                let segs = [(wx.data(), x), (wh.data(), h)];
                return unsafe { linear_avx512(bsz, &segs, b.data(), out) };
            }
            _ => {}
        }
    }
    for (stripe, &bv) in out.chunks_exact_mut(bsz).zip(b.data()) {
        stripe.fill(bv);
    }
    for &(w, x) in segs {
        debug_assert_eq!(x.len(), bsz * w.rows());
        w.accumulate(lane, bsz, x, out, qs);
    }
}

/// Dense layer `y = x W + b` over slices — the `bsz == 1` case of
/// [`fast_linear_batch`], kept as the per-item reference for the parity
/// tests.
#[cfg(test)]
pub(crate) fn fast_linear(lane: KernelLane, w: &FastMat, b: &Tensor, x: &[f32], out: &mut [f32]) {
    let mut qs = QuantScratch::default();
    fast_linear_batch(lane, w, b, 1, x, out, &mut qs);
}

/// Shared driver for the batched model forwards: buckets non-empty
/// `chunks` by length, and per bucket gathers the interleaved time-major
/// `[t, d, bsz]` embedding batch from `emb`/`vocab` and runs it through
/// `stacks` (all aligned when `out_len` is `None`; the final stack
/// autoregressive for `Some(n)`). For each finished bucket, `emit`
/// receives `(bucket chunk indices, t, bsz, activations, spare, quant
/// scratch)` — the final interleaved activations plus a reusable spare
/// buffer for the head computation — and scatters into the model's output.
/// `bsz` there is the lane *stride*: the bucket's chunk count, padded up to
/// a multiple of [`LANE_BLOCK`] when its last block is ≥ ¾ full;
/// lane `b` of the bucket sits at offset `b`, and the lanes past the bucket
/// repeat its last chunk and are read by nobody.
/// Both fast models run their forwards through this one path, so
/// bucketing, gathering, and stack chaining cannot drift apart between
/// them.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
pub(crate) fn forward_buckets(
    lane: KernelLane,
    emb: &Tensor,
    vocab: usize,
    stacks: &[FastStack],
    out_len: Option<usize>,
    chunks: &[&[recmg_trace::VectorKey]],
    scratch: &mut FastScratch,
    mut emit: impl FnMut(
        &[usize],
        usize,
        usize,
        &mut AlignedVec<f32>,
        &mut AlignedVec<f32>,
        &mut QuantScratch,
    ),
) {
    let d = emb.cols();
    let mut by_len: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, c) in chunks.iter().enumerate() {
        if !c.is_empty() {
            by_len.entry(c.len()).or_default().push(i);
        }
    }
    let FastScratch {
        stack,
        seq_a,
        seq_b,
    } = scratch;
    for (t, bucket) in by_len {
        let bsz = match bucket.len() {
            n if n % LANE_BLOCK >= LANE_BLOCK * 3 / 4 => n.next_multiple_of(LANE_BLOCK),
            n => n,
        };
        seq_a.clear();
        seq_a.resize(t * bsz * d, 0.0);
        for b in 0..bsz {
            // A dead lane repeats the bucket's last chunk.
            let ci = bucket[b.min(bucket.len() - 1)];
            for (ti, key) in chunks[ci].iter().enumerate() {
                let row = key.bucket(vocab);
                let src = &emb.data()[row * d..(row + 1) * d];
                let dst = &mut seq_a[ti * d * bsz..(ti + 1) * d * bsz];
                for (j, &v) in src.iter().enumerate() {
                    dst[j * bsz + b] = v;
                }
            }
        }
        let (mut cur, mut next) = (&mut *seq_a, &mut *seq_b);
        let last = stacks.len() - 1;
        for (i, s) in stacks.iter().enumerate() {
            let mode = if i == last { out_len } else { None };
            s.forward_batch(lane, bsz, t, cur, mode, stack, next);
            std::mem::swap(&mut cur, &mut next);
        }
        emit(&bucket, t, bsz, cur, next, &mut stack.quant);
    }
}

/// Stack-level scratch for [`FastStack::forward_batch`]: encoder/decoder
/// state, gate buffers, the interleaved encoder-state tape, the attention
/// workspace, and the int8 activation buffers. Reused across forwards so
/// the hot loop allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct Scratch {
    gates: AlignedVec<f32>,  // [4h, bsz]
    hs: AlignedVec<f32>,     // [h, bsz] encoder hidden
    cs: AlignedVec<f32>,     // [h, bsz] encoder cell
    dh: AlignedVec<f32>,     // [h, bsz] decoder hidden
    dc: AlignedVec<f32>,     // [h, bsz] decoder cell
    enc: AlignedVec<f32>,    // [t_in, h, bsz] encoder states
    scores: AlignedVec<f32>, // [t_in, bsz] attention scores
    denom: AlignedVec<f32>,  // [2, bsz] softmax maxima, then denominators
    cat: AlignedVec<f32>,    // [2h, bsz] context ++ query
    feed: AlignedVec<f32>,   // [h, bsz] autoregressive feed
    pub(crate) quant: QuantScratch,
}

impl Default for Scratch {
    fn default() -> Self {
        // Distinct 4 KiB-page staggers per buffer (see `AlignedVec`):
        // kernel throughput is then independent of which scratch instance
        // a thread happens to own. `FastScratch`'s sequence buffers take
        // 1920/2112 and `QuantScratch` takes 2496..3264.
        Scratch {
            gates: AlignedVec::with_stagger(0),
            hs: AlignedVec::with_stagger(192),
            cs: AlignedVec::with_stagger(384),
            dh: AlignedVec::with_stagger(576),
            dc: AlignedVec::with_stagger(768),
            enc: AlignedVec::with_stagger(960),
            scores: AlignedVec::with_stagger(1152),
            denom: AlignedVec::with_stagger(1344),
            cat: AlignedVec::with_stagger(1536),
            feed: AlignedVec::with_stagger(1728),
            quant: QuantScratch::default(),
        }
    }
}

impl Scratch {
    fn prepare(&mut self, bsz: usize, t_in: usize, h: usize) {
        // Only the encoder state (`hs`/`cs`) must start at zero; every
        // other buffer is fully overwritten before its first read, so a
        // plain resize — which zeroes growth only — keeps the lengths
        // exact without re-memsetting the (large) tape and gate buffers
        // on every forward.
        let fit = |v: &mut AlignedVec<f32>, n: usize| v.resize(n, 0.0);
        fit(&mut self.gates, bsz * 4 * h);
        fit(&mut self.dh, bsz * h);
        fit(&mut self.dc, bsz * h);
        fit(&mut self.enc, t_in * bsz * h);
        fit(&mut self.scores, bsz * t_in);
        fit(&mut self.denom, 2 * bsz);
        fit(&mut self.cat, bsz * 2 * h);
        fit(&mut self.feed, bsz * h);
        self.hs.clear();
        self.hs.resize(bsz * h, 0.0);
        self.cs.clear();
        self.cs.resize(bsz * h, 0.0);
    }
}

/// One seq2seq stack (encoder + decoder + attention).
#[derive(Debug, Clone)]
pub(crate) struct FastStack {
    pub(crate) enc: FastLstm,
    pub(crate) dec: FastLstm,
    attn_w: FastMat, // [2h, h]
    attn_b: Tensor,  // [h]
}

impl FastStack {
    pub(crate) fn new(
        enc: FastLstm,
        dec: FastLstm,
        attn_w: Tensor,
        attn_b: Tensor,
        precision: GuidancePrecision,
    ) -> Self {
        debug_assert_eq!(attn_w.rows(), 2 * enc.hidden());
        debug_assert_eq!(attn_w.cols(), enc.hidden());
        FastStack {
            enc,
            dec,
            attn_w: FastMat::compile(attn_w, precision),
            attn_b,
        }
    }

    pub(crate) fn size_bytes(&self) -> usize {
        self.enc.size_bytes()
            + self.dec.size_bytes()
            + self.attn_w.size_bytes()
            + self.attn_b.len() * std::mem::size_of::<f32>()
    }

    /// Batched Luong attention, fused: for every lane `b`, scores the
    /// decoder state `s.dh[·, b]` against the `t_in` encoder states of that
    /// lane (`s.enc`, `[t_in, h, bsz]` interleaved), softmaxes, builds the
    /// context ++ query concatenation in `s.cat`, and writes the combined
    /// tanh output into `out` (`[h, bsz]`). Every loop's innermost axis is
    /// the unit-stride batch stripe. Per lane, a score accumulates over the
    /// hidden units in order, the denominator and the context over the
    /// encoder steps in order — the single-item order at every `bsz`.
    #[inline(always)]
    fn attend_on(&self, lane: Resolved, bsz: usize, s: &mut Scratch, out: &mut [f32]) {
        let (query, enc, scores) = (&s.dh[..], &s.enc[..], &mut s.scores[..]);
        let n = query.len();
        stripe_dots(lane, bsz, query, enc, (bsz, n), scores);
        // The denominator is folded into the scores, so the context
        // reduction reads ready-made attention weights.
        softmax_stripes(scores, &mut s.denom, bsz);
        let (ctx, tail) = s.cat.split_at_mut(n);
        stripe_dots(lane, bsz, scores, enc, (n, bsz), ctx);
        tail.copy_from_slice(query);
        let (w, b) = (&self.attn_w, &self.attn_b);
        linear_on(lane, &[(w, &s.cat)], b, bsz, out, &mut s.quant);
        out.iter_mut().for_each(|o| *o = tanh_approx(*o));
    }

    /// Runs the stack over `bsz` same-length sequences. `inputs` is
    /// interleaved time-major `[t_in, e, bsz]`; the output written to
    /// `out` is interleaved time-major `[t_out, h, bsz]`. `out_len = None`
    /// runs aligned (one output per input); `Some(n)` runs autoregressive.
    /// All intermediate state lives in `s` — the forward allocates nothing
    /// beyond growing `out`/`s` on first use. The lane is resolved here,
    /// once: every step, attention pass and epilogue runs inlined in that
    /// lane's code context.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn forward_batch(
        &self,
        lane: KernelLane,
        bsz: usize,
        t_in: usize,
        inputs: &[f32],
        out_len: Option<usize>,
        s: &mut Scratch,
        out: &mut AlignedVec<f32>,
    ) {
        let (e, n) = (self.enc.e, self.enc.hidden() * bsz);
        debug_assert_eq!(inputs.len(), t_in * bsz * e);
        s.prepare(bsz, t_in, self.enc.hidden());
        out.clear();
        out.resize(out_len.unwrap_or(t_in) * n, 0.0);
        on_lane(
            lane,
            #[inline(always)]
            |lane| {
                for (t, x) in inputs.chunks_exact(bsz * e).enumerate() {
                    let (h, c) = (&mut s.hs[..], &mut s.cs[..]);
                    self.enc
                        .step_on(lane, bsz, x, h, c, &mut s.gates, &mut s.quant);
                    s.enc[t * n..(t + 1) * n].copy_from_slice(&s.hs);
                }
                s.dh.copy_from_slice(&s.hs);
                s.dc.copy_from_slice(&s.cs);
                s.feed.copy_from_slice(&s.hs);
                for (t, slot) in out.chunks_exact_mut(n).enumerate() {
                    // Aligned decoding reads the encoder state of its own step;
                    // autoregressive decoding its previous output.
                    let x = match out_len {
                        None => &s.enc[t * n..(t + 1) * n],
                        Some(_) => &s.feed[..],
                    };
                    let (h, c) = (&mut s.dh[..], &mut s.dc[..]);
                    self.dec
                        .step_on(lane, bsz, x, h, c, &mut s.gates, &mut s.quant);
                    self.attend_on(lane, bsz, s, slot);
                    s.feed.copy_from_slice(slot);
                }
            },
        )
    }

    /// Runs the stack over a single sequence — the `bsz == 1` case of
    /// [`FastStack::forward_batch`], kept as the per-item reference for
    /// the parity proptests and tape-equivalence tests.
    #[cfg(test)]
    pub(crate) fn forward(
        &self,
        lane: KernelLane,
        inputs: &[Vec<f32>],
        out_len: Option<usize>,
    ) -> Vec<Vec<f32>> {
        let h = self.enc.hidden();
        let mut flat = Vec::with_capacity(inputs.len() * self.enc.e);
        for x in inputs {
            flat.extend_from_slice(x);
        }
        let mut scratch = Scratch::default();
        let mut out = AlignedVec::new();
        self.forward_batch(
            lane,
            1,
            inputs.len(),
            &flat,
            out_len,
            &mut scratch,
            &mut out,
        );
        out.chunks(h).map(|c| c.to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use recmg_tensor::nn::{DecoderFeed, Module, Seq2SeqStack};
    use recmg_tensor::quant::QuantScratch;
    use recmg_tensor::{ParamStore, Tape, Tensor};

    /// The lanes the host can execute: scalar always, AVX2 and AVX-512
    /// when available (every CI leg runs on an AVX2-capable host, so the
    /// SIMD kernels are exercised explicitly even when dispatch is forced
    /// to scalar).
    fn lanes() -> Vec<KernelLane> {
        [KernelLane::Scalar, KernelLane::Avx2, KernelLane::Avx512]
            .into_iter()
            .filter(|l| l.available())
            .collect()
    }

    /// The vector lanes the host can execute.
    fn vector_lanes() -> Vec<KernelLane> {
        lanes().into_iter().skip(1).collect()
    }

    /// Whether both the AVX2 and the AVX-512 lane can run here; prints why
    /// a test that compares them returns early when they cannot.
    fn avx512_host(test: &str) -> bool {
        let ok = KernelLane::Avx512.available();
        if !ok {
            println!("{test}: skipped, this host has no AVX-512 lane");
        }
        ok
    }

    /// Builds a tape stack and its fast mirror from the same weights.
    fn paired_stack(seed: u64, e: usize, h: usize) -> (ParamStore, Seq2SeqStack, FastStack) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let stack = Seq2SeqStack::new(&mut store, &mut rng, "s", e, h);
        let ids = stack.params(); // enc(wx,wh,b), dec(wx,wh,b), attn(w,b)
        let w = |i: usize| store.value(ids[i]).clone();
        let p = GuidancePrecision::F32;
        let fast = FastStack::new(
            FastLstm::new(w(0), w(1), w(2), p),
            FastLstm::new(w(3), w(4), w(5), p),
            w(6),
            w(7),
            p,
        );
        (store, stack, fast)
    }

    fn tape_forward(
        store: &ParamStore,
        stack: &Seq2SeqStack,
        inputs: &[Vec<f32>],
        feed: DecoderFeed,
    ) -> Vec<Vec<f32>> {
        let mut tape = Tape::new(store);
        let vars: Vec<_> = inputs
            .iter()
            .map(|x| tape.constant(Tensor::from_vec(x.clone(), &[1, x.len()])))
            .collect();
        let outs = stack.forward(&mut tape, store, &vars, feed);
        outs.iter()
            .map(|&o| tape.value(o).data().to_vec())
            .collect()
    }

    fn inputs(e: usize, t: usize) -> Vec<Vec<f32>> {
        (0..t)
            .map(|i| {
                (0..e)
                    .map(|j| ((i * e + j) as f32 * 0.13).sin() * 0.5)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn aligned_matches_tape_on_every_lane() {
        let (store, stack, fast) = paired_stack(5, 6, 8);
        let xs = inputs(6, 7);
        let a = tape_forward(&store, &stack, &xs, DecoderFeed::Aligned);
        for lane in lanes() {
            let b = fast.forward(lane, &xs, None);
            assert_eq!(a.len(), b.len());
            for (ra, rb) in a.iter().zip(&b) {
                for (x, y) in ra.iter().zip(rb) {
                    assert!((x - y).abs() < 1e-5, "lane {}: {x} vs {y}", lane.name());
                }
            }
        }
    }

    #[test]
    fn autoregressive_matches_tape_on_every_lane() {
        let (store, stack, fast) = paired_stack(9, 5, 7);
        let xs = inputs(5, 10);
        let a = tape_forward(&store, &stack, &xs, DecoderFeed::Autoregressive(4));
        for lane in lanes() {
            let b = fast.forward(lane, &xs, Some(4));
            assert_eq!(b.len(), 4);
            for (ra, rb) in a.iter().zip(&b) {
                for (x, y) in ra.iter().zip(rb) {
                    assert!((x - y).abs() < 1e-5, "lane {}: {x} vs {y}", lane.name());
                }
            }
        }
    }

    #[test]
    fn fast_linear_matches_tensor() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = Tensor::rand_uniform(&mut rng, &[5, 3], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[3], -1.0, 1.0);
        let x = vec![0.1, -0.2, 0.3, 0.0, 0.5];
        let exact = Tensor::from_vec(x.clone(), &[1, 5]).matmul(&w);
        let wm = FastMat::compile(w, GuidancePrecision::F32);
        for lane in lanes() {
            let mut out = vec![0.0; 3];
            fast_linear(lane, &wm, &b, &x, &mut out);
            for (j, &o) in out.iter().enumerate() {
                assert!((o - (exact.at(0, j) + b.data()[j])).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn quantized_stack_sizes_shrink() {
        let (_s, _t, f32_stack) = paired_stack(11, 6, 8);
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let stack = Seq2SeqStack::new(&mut store, &mut rng, "s", 6, 8);
        let ids = stack.params();
        let w = |i: usize| store.value(ids[i]).clone();
        let p = GuidancePrecision::Int8;
        let q_stack = FastStack::new(
            FastLstm::new(w(0), w(1), w(2), p),
            FastLstm::new(w(3), w(4), w(5), p),
            w(6),
            w(7),
            p,
        );
        assert!(q_stack.size_bytes() * 3 < f32_stack.size_bytes());
    }

    /// Dense grid over `[lo, hi]` in steps of 2⁻¹⁰.
    fn grid(lo: f32, hi: f32) -> impl Iterator<Item = f32> {
        let steps = ((hi - lo) * 1024.0) as usize;
        (0..=steps).map(move |i| lo + i as f32 / 1024.0)
    }

    #[test]
    fn approx_tanh_and_sigmoid_stay_under_their_stated_error() {
        let (mut worst_t, mut worst_s) = (0.0f64, 0.0f64);
        for x in grid(-20.0, 20.0) {
            let xd = x as f64;
            worst_t = worst_t.max((tanh_approx(x) as f64 - xd.tanh()).abs());
            worst_s = worst_s.max((sigmoid_approx(x) as f64 - 1.0 / (1.0 + (-xd).exp())).abs());
        }
        println!("max abs error: tanh {worst_t:.3e}, sigmoid {worst_s:.3e}");
        assert!(worst_t < TANH_MAX_ABS_ERR, "tanh error {worst_t:e}");
        assert!(worst_s < TANH_MAX_ABS_ERR, "sigmoid error {worst_s:e}");
    }

    #[test]
    fn approx_exp_stays_under_its_stated_error() {
        let mut worst = 0.0f64;
        let floor = exp_approx(EXP_MIN_ARG);
        assert!(floor > 0.0 && floor < 1.7e-38);
        for x in grid(-90.0, 0.0) {
            let got = exp_approx(x);
            if x < EXP_MIN_ARG {
                assert_eq!(got.to_bits(), floor.to_bits(), "exp({x}) below the clamp");
            } else {
                let exact = (x as f64).exp();
                worst = worst.max((got as f64 - exact).abs() / exact);
            }
        }
        println!("max relative error: exp {worst:.3e}");
        assert!(worst < EXP_MAX_REL_ERR, "exp error {worst:e}");
        assert_eq!(exp_approx(0.0), 1.0);
    }

    #[test]
    fn approx_tanh_and_sigmoid_are_bounded_odd_and_monotone() {
        // Non-decreasing from one grid point to the next wherever a step
        // moves the exact function by more than f32 rounding does (tanh on
        // |x| ≤ 4.5, sigmoid on |x| ≤ 9). In the flat tails the quotient's
        // last bits jitter, by less than the stated error.
        let (mut prev_t, mut prev_s) = (-1.0f32, 0.0f32);
        for x in grid(-20.0, 20.0) {
            let (t, s) = (tanh_approx(x), sigmoid_approx(x));
            assert!((-1.0..=1.0).contains(&t), "tanh({x}) = {t}");
            assert!((0.0..=1.0).contains(&s), "sigmoid({x}) = {s}");
            assert_eq!(tanh_approx(-x).to_bits(), (-t).to_bits(), "tanh odd at {x}");
            let slack = |steep: f32| {
                if x.abs() <= steep {
                    0.0
                } else {
                    TANH_MAX_ABS_ERR
                }
            };
            assert!(
                ((prev_t - t) as f64) <= slack(4.5),
                "tanh steps back at {x}"
            );
            assert!(
                ((prev_s - s) as f64) <= slack(9.0),
                "sigmoid steps back at {x}"
            );
            (prev_t, prev_s) = (t, s);
        }
        assert_eq!(sigmoid_approx(0.0), 0.5);
        // Constant beyond the clamp, infinities included.
        for x in [8.0f32, 20.0, 1e30, f32::INFINITY] {
            assert_eq!(tanh_approx(x).to_bits(), tanh_approx(7.95).to_bits());
            assert_eq!(tanh_approx(-x).to_bits(), tanh_approx(-7.95).to_bits());
            assert_eq!(
                sigmoid_approx(2.0 * x).to_bits(),
                sigmoid_approx(15.9).to_bits()
            );
            assert_eq!(
                sigmoid_approx(-2.0 * x).to_bits(),
                sigmoid_approx(-15.9).to_bits()
            );
        }
    }

    /// A NaN logit must not come out as a confident bit.
    #[test]
    fn approx_nan_in_is_nan_out_on_every_lane() {
        assert!(tanh_approx(f32::NAN).is_nan());
        assert!(sigmoid_approx(f32::NAN).is_nan());
        assert!(exp_approx(f32::NAN).is_nan());
        for lane in lanes() {
            let mut v = [0.25, f32::NAN, -3.0, f32::NAN, 1.0, 2.0, 3.0, 4.0, f32::NAN];
            map_batch(lane, &mut v, sigmoid_approx);
            let nan_at: Vec<usize> = (0..v.len()).filter(|&i| v[i].is_nan()).collect();
            assert_eq!(nan_at, [1, 3, 8], "lane {}", lane.name());
            let mut v = [f32::NAN, 0.5];
            map_batch(lane, &mut v, tanh_approx);
            assert!(v[0].is_nan() && !v[1].is_nan());
            // One NaN score poisons its own lane's softmax and no other.
            let mut scores = [0.1, f32::NAN, 0.3, 0.2, 0.5, 0.4];
            let mut work = [0.0; 4];
            on_lane(
                lane,
                #[inline(always)]
                |_| softmax_stripes(&mut scores, &mut work, 2),
            );
            assert!(scores[1].is_nan() && scores[3].is_nan() && scores[5].is_nan());
            assert!((scores[0] + scores[2] + scores[4] - 1.0).abs() < 1e-6);
        }
    }

    /// Everything that is not a matmul or an FMA dot — the gate sweep, the
    /// softmax, the `tanh`/`sigmoid` passes — is the same f32 operation
    /// sequence on every lane, however wide the compiler vectorizes it, so
    /// the outputs are equal bit for bit.
    #[test]
    fn approx_epilogues_are_bit_equal_across_lanes() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let mut rng = StdRng::seed_from_u64(0xE91);
        for bsz in 1usize..=17 {
            let (h, t) = (7usize, 9usize);
            let mut draw =
                |n: usize, r: f32| -> Vec<f32> { (0..n).map(|_| rng.gen_range(-r..r)).collect() };
            let (gates, h0, c0) = (
                draw(4 * h * bsz, 12.0),
                draw(h * bsz, 1.0),
                draw(h * bsz, 3.0),
            );
            let (scores0, acts) = (draw(t * bsz, 30.0), draw(h * bsz, 20.0));
            let mut per_lane = Vec::new();
            for lane in lanes() {
                let (mut hh, mut cc, mut sc) = (h0.clone(), c0.clone(), scores0.clone());
                let mut work = vec![0.0f32; 2 * bsz];
                on_lane(
                    lane,
                    #[inline(always)]
                    |_| {
                        gate_sweep(&gates, &mut hh, &mut cc);
                        softmax_stripes(&mut sc, &mut work, bsz);
                    },
                );
                let (mut th, mut sg) = (acts.clone(), acts.clone());
                map_batch(lane, &mut th, tanh_approx);
                map_batch(lane, &mut sg, sigmoid_approx);
                per_lane.push([bits(&hh), bits(&cc), bits(&sc), bits(&th), bits(&sg)]);
            }
            for (lane, got) in lanes().iter().zip(&per_lane).skip(1) {
                assert_eq!(per_lane[0], *got, "bsz {bsz}, lane {}", lane.name());
            }
        }
    }

    /// Random batched input, interleaved time-major `[t, e, bsz]`.
    fn batch_inputs(rng: &mut StdRng, t: usize, bsz: usize, e: usize) -> Vec<f32> {
        (0..t * bsz * e).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// Lane `b` of an interleaved batch, as the per-item `Vec<Vec<f32>>`.
    fn item(flat: &[f32], t: usize, bsz: usize, dim: usize, b: usize) -> Vec<Vec<f32>> {
        (0..t)
            .map(|ti| (0..dim).map(|j| flat[(ti * dim + j) * bsz + b]).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `fast_linear_batch` over B lanes matches B single-item calls on
        /// every lane, f32 and int8.
        #[test]
        fn fast_linear_batch_matches_single(
            seed in 0u64..1_000,
            bsz in 1usize..12,
            in_dim in 1usize..12,
            out_dim in 1usize..10,
            quantized in 0u32..2,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = Tensor::rand_uniform(&mut rng, &[in_dim, out_dim], -1.0, 1.0);
            let b = Tensor::rand_uniform(&mut rng, &[out_dim], -1.0, 1.0);
            let p = if quantized == 0 { GuidancePrecision::F32 } else { GuidancePrecision::Int8 };
            let wm = FastMat::compile(w, p);
            // Interleaved input [in_dim, bsz].
            let xs: Vec<f32> = (0..bsz * in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            for lane in lanes() {
                let mut batched = vec![0.0f32; bsz * out_dim];
                let mut qs = recmg_tensor::quant::QuantScratch::default();
                fast_linear_batch(lane, &wm, &b, bsz, &xs, &mut batched, &mut qs);
                let mut single = vec![0.0f32; out_dim];
                for bi in 0..bsz {
                    let x: Vec<f32> = (0..in_dim).map(|i| xs[i * bsz + bi]).collect();
                    fast_linear(lane, &wm, &b, &x, &mut single);
                    for (j, &y) in single.iter().enumerate() {
                        let x = batched[j * bsz + bi];
                        prop_assert!(
                            (x - y).abs() < 1e-5,
                            "lane {} item {} col {}: {} vs {}", lane.name(), bi, j, x, y
                        );
                    }
                }
            }
        }

        /// SIMD-vs-scalar lane parity on `fast_linear_batch`: every lane
        /// runs explicitly and agrees with the scalar one to 1e-5.
        #[test]
        fn lane_parity_fast_linear_batch(
            seed in 0u64..1_000,
            bsz in 1usize..17,
            in_dim in 1usize..16,
            out_dim in 1usize..12,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = Tensor::rand_uniform(&mut rng, &[in_dim, out_dim], -1.0, 1.0);
            let b = Tensor::rand_uniform(&mut rng, &[out_dim], -1.0, 1.0);
            let wm = FastMat::compile(w, GuidancePrecision::F32);
            let xs: Vec<f32> = (0..bsz * in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut qs = recmg_tensor::quant::QuantScratch::default();
            let mut scalar = vec![0.0f32; bsz * out_dim];
            fast_linear_batch(KernelLane::Scalar, &wm, &b, bsz, &xs, &mut scalar, &mut qs);
            for lane in vector_lanes() {
                let mut simd = vec![0.0f32; bsz * out_dim];
                fast_linear_batch(lane, &wm, &b, bsz, &xs, &mut simd, &mut qs);
                for (i, (s, v)) in scalar.iter().zip(&simd).enumerate() {
                    prop_assert!(
                        (s - v).abs() < 1e-5, "elem {}: scalar {} vs {} {}", i, s, lane.name(), v
                    );
                }
            }
        }

        /// `step_batch` over B lanes matches B single-lane steps on every
        /// lane.
        #[test]
        fn step_batch_matches_single(
            seed in 0u64..1_000,
            bsz in 1usize..12,
            e in 1usize..8,
            h in 1usize..8,
            steps in 1usize..5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cell = FastLstm::new(
                Tensor::rand_uniform(&mut rng, &[e, 4 * h], -0.5, 0.5),
                Tensor::rand_uniform(&mut rng, &[h, 4 * h], -0.5, 0.5),
                Tensor::rand_uniform(&mut rng, &[4 * h], -0.5, 0.5),
                GuidancePrecision::F32,
            );
            let xs: Vec<Vec<f32>> = (0..steps).map(|_| batch_inputs(&mut rng, 1, bsz, e)).collect();
            for lane in lanes() {
                let mut bh = vec![0.0f32; bsz * h];
                let mut bc = vec![0.0f32; bsz * h];
                let mut bg = vec![0.0f32; bsz * 4 * h];
                let mut qs = recmg_tensor::quant::QuantScratch::default();
                let mut sh = vec![vec![0.0f32; h]; bsz];
                let mut sc = vec![vec![0.0f32; h]; bsz];
                let mut sg = vec![0.0f32; 4 * h];
                for x in &xs {
                    cell.step_batch(lane, bsz, x, &mut bh, &mut bc, &mut bg, &mut qs);
                    for b in 0..bsz {
                        let xi: Vec<f32> = (0..e).map(|i| x[i * bsz + b]).collect();
                        cell.step(lane, &xi, &mut sh[b], &mut sc[b], &mut sg);
                    }
                }
                for b in 0..bsz {
                    for j in 0..h {
                        prop_assert!((bh[j * bsz + b] - sh[b][j]).abs() < 1e-5);
                        prop_assert!((bc[j * bsz + b] - sc[b][j]).abs() < 1e-5);
                    }
                }
            }
        }

        /// SIMD-vs-scalar lane parity on `step_batch`: every lane runs the
        /// same multi-step recurrence explicitly and agrees with the scalar
        /// one to 1e-5.
        #[test]
        fn lane_parity_step_batch(
            seed in 0u64..1_000,
            bsz in 1usize..17,
            e in 1usize..8,
            h in 1usize..8,
            steps in 1usize..5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cell = FastLstm::new(
                Tensor::rand_uniform(&mut rng, &[e, 4 * h], -0.5, 0.5),
                Tensor::rand_uniform(&mut rng, &[h, 4 * h], -0.5, 0.5),
                Tensor::rand_uniform(&mut rng, &[4 * h], -0.5, 0.5),
                GuidancePrecision::F32,
            );
            let xs: Vec<Vec<f32>> = (0..steps).map(|_| batch_inputs(&mut rng, 1, bsz, e)).collect();
            let mut results = Vec::new();
            for lane in lanes() {
                let mut bh = vec![0.0f32; bsz * h];
                let mut bc = vec![0.0f32; bsz * h];
                let mut bg = vec![0.0f32; bsz * 4 * h];
                let mut qs = recmg_tensor::quant::QuantScratch::default();
                for x in &xs {
                    cell.step_batch(lane, bsz, x, &mut bh, &mut bc, &mut bg, &mut qs);
                }
                results.push((bh, bc));
            }
            for simd in &results[1..] {
                for i in 0..bsz * h {
                    prop_assert!((results[0].0[i] - simd.0[i]).abs() < 1e-5);
                    prop_assert!((results[0].1[i] - simd.1[i]).abs() < 1e-5);
                }
            }
        }

        /// `forward_batch` over B same-length sequences matches B per-item
        /// forwards, aligned and autoregressive, with a reused scratch, on
        /// every lane.
        #[test]
        fn forward_batch_matches_per_item(
            seed in 0u64..1_000,
            bsz in 1usize..10,
            t in 1usize..9,
            out_n in 1usize..5,
            aligned in 0u32..2,
        ) {
            let (_store, _stack, fast) = paired_stack(seed, 5, 6);
            let h = 6usize;
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
            let flat = batch_inputs(&mut rng, t, bsz, 5);
            let out_len = if aligned == 0 { None } else { Some(out_n) };
            for lane in lanes() {
                let mut scratch = Scratch::default();
                let mut out = AlignedVec::new();
                // Run twice through the same scratch: reuse must not change
                // results.
                fast.forward_batch(lane, bsz, t, &flat, out_len, &mut scratch, &mut out);
                fast.forward_batch(lane, bsz, t, &flat, out_len, &mut scratch, &mut out);
                let t_out = out_len.unwrap_or(t);
                prop_assert_eq!(out.len(), t_out * bsz * h);
                for b in 0..bsz {
                    let single = fast.forward(lane, &item(&flat, t, bsz, 5, b), out_len);
                    prop_assert_eq!(single.len(), t_out);
                    for (ti, row) in single.iter().enumerate() {
                        for (j, &y) in row.iter().enumerate() {
                            let x = out[(ti * h + j) * bsz + b];
                            prop_assert!(
                                (x - y).abs() < 1e-5,
                                "lane {} item {} t {} j {}: {} vs {}",
                                lane.name(), b, ti, j, x, y
                            );
                        }
                    }
                }
            }
        }

        /// SIMD-vs-scalar lane parity on `forward_batch` (the full stack:
        /// LSTM steps, attention, dense head) to 1e-5, on every lane.
        #[test]
        fn lane_parity_forward_batch(
            seed in 0u64..1_000,
            bsz in 1usize..10,
            t in 1usize..9,
            out_n in 1usize..5,
            aligned in 0u32..2,
        ) {
            let (_store, _stack, fast) = paired_stack(seed, 5, 6);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x51D);
            let flat = batch_inputs(&mut rng, t, bsz, 5);
            let out_len = if aligned == 0 { None } else { Some(out_n) };
            let mut outs = Vec::new();
            for lane in lanes() {
                let mut scratch = Scratch::default();
                let mut out = AlignedVec::new();
                fast.forward_batch(lane, bsz, t, &flat, out_len, &mut scratch, &mut out);
                outs.push(out);
            }
            for simd in &outs[1..] {
                prop_assert_eq!(outs[0].len(), simd.len());
                for (i, (s, v)) in outs[0].iter().zip(simd.iter()).enumerate() {
                    prop_assert!((s - v).abs() < 1e-5, "elem {}: scalar {} vs simd {}", i, s, v);
                }
            }
        }
        /// The register-blocked matmul of every vector lane accumulates
        /// every output element from its bias in input-feature order with
        /// FMA, for every batch size: equal bit for bit to a naive `mul_add`
        /// loop, across 4-output remainders, 8-lane remainders and
        /// masked-off lanes.
        #[test]
        fn matacc_order_matches_a_naive_fma_reference(
            seed in 0u64..1_000,
            bsz in 1usize..18,
            in_dim in 1usize..41,
            out_dim in 1usize..131,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = Tensor::rand_uniform(&mut rng, &[in_dim, out_dim], -1.0, 1.0);
            let b = Tensor::rand_uniform(&mut rng, &[out_dim], -1.0, 1.0);
            let xs: Vec<f32> = (0..bsz * in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut naive = vec![0.0f32; bsz * out_dim];
            for g in 0..out_dim {
                for l in 0..bsz {
                    let mut acc = b.data()[g];
                    for i in 0..in_dim {
                        acc = xs[i * bsz + l].mul_add(w.at(i, g), acc);
                    }
                    naive[g * bsz + l] = acc;
                }
            }
            let wm = FastMat::compile(w, GuidancePrecision::F32);
            for lane in vector_lanes() {
                let mut got = vec![0.0f32; bsz * out_dim];
                let mut qs = recmg_tensor::quant::QuantScratch::default();
                fast_linear_batch(lane, &wm, &b, bsz, &xs, &mut got, &mut qs);
                for (i, (x, y)) in got.iter().zip(&naive).enumerate() {
                    prop_assert_eq!(
                        x.to_bits(), y.to_bits(), "{} elem {}: {} vs {}", lane.name(), i, x, y
                    );
                }
            }
        }

        /// The register-blocked attention of every vector lane accumulates
        /// every score over the hidden units and every context element over
        /// the steps, from 0 and in order, with FMA: its output equals a
        /// naive per-lane `mul_add` attention bit for bit, across partial
        /// step groups, partial hidden-unit groups and masked-off lanes.
        #[test]
        fn attend_order_matches_a_naive_fma_reference(
            seed in 0u64..1_000,
            bsz in 1usize..18,
            t_in in 1usize..18,
            h in 1usize..41,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let lstm = || FastLstm::new(
                Tensor::zeros(&[1, 4 * h]),
                Tensor::zeros(&[h, 4 * h]),
                Tensor::zeros(&[4 * h]),
                GuidancePrecision::F32,
            );
            let (enc_cell, dec_cell) = (lstm(), lstm());
            let w = Tensor::rand_uniform(&mut rng, &[2 * h, h], -0.5, 0.5);
            let b = Tensor::rand_uniform(&mut rng, &[h], -0.5, 0.5);
            let p = GuidancePrecision::F32;
            let stack = FastStack::new(enc_cell, dec_cell, w.clone(), b.clone(), p);
            let mut s = Scratch::default();
            s.prepare(bsz, t_in, h);
            s.dh.iter_mut().for_each(|v| *v = rng.gen_range(-1.0..1.0));
            s.enc.iter_mut().for_each(|v| *v = rng.gen_range(-1.0..1.0));
            let (q, enc) = (s.dh.to_vec(), s.enc.to_vec());
            let gots: Vec<Vec<f32>> = vector_lanes().into_iter().map(|lane| {
                let mut got = vec![0.0f32; h * bsz];
                on_lane(
                    lane,
                    #[inline(always)]
                    |lane| stack.attend_on(lane, bsz, &mut s, &mut got),
                );
                got
            }).collect();
            let at = |t: usize, j: usize, l: usize| enc[(t * h + j) * bsz + l];
            for l in 0..bsz {
                let qs: Vec<f32> = (0..h).map(|j| q[j * bsz + l]).collect();
                let scores: Vec<f32> = (0..t_in)
                    .map(|t| (0..h).fold(0.0, |acc, j| qs[j].mul_add(at(t, j, l), acc)))
                    .collect();
                let mx = scores.iter().fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m });
                let e: Vec<f32> = scores.iter().map(|&v| exp_approx(v - mx)).collect();
                let dn = e.iter().fold(0.0, |d, &v| d + v);
                let cat: Vec<f32> = (0..h)
                    .map(|j| (0..t_in).fold(0.0, |acc, t| (e[t] / dn).mul_add(at(t, j, l), acc)))
                    .chain(qs)
                    .collect();
                for g in 0..h {
                    let pre = (0..2 * h).fold(b.data()[g], |a, i| cat[i].mul_add(w.at(i, g), a));
                    for got in &gots {
                        let (x, y) = (got[g * bsz + l], tanh_approx(pre));
                        prop_assert_eq!(
                            x.to_bits(), y.to_bits(), "lane {} unit {}: {} vs {}", l, g, x, y
                        );
                    }
                }
            }
        }

        /// The AVX-512 dense layer equals the AVX2 one bit for bit: one
        /// and two input segments (the LSTM's `b + Wx·x + Wh·h`), batch
        /// sizes with and without full 8-lane blocks and partial last
        /// blocks, and output counts with every `% 4` tail and one to three
        /// tiles.
        #[test]
        fn avx512_linear_matches_avx2_bit_for_bit(
            seed in 0u64..1_000,
            bsz in 1usize..18,
            e in 1usize..20,
            h in 1usize..41,
            two in 0u32..2,
            out_dim in 1usize..131,
        ) {
            if !avx512_host("avx512_linear_matches_avx2_bit_for_bit") {
                return;
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mat = |rows: usize| FastMat::compile(
                Tensor::rand_uniform(&mut rng, &[rows, out_dim], -1.0, 1.0),
                GuidancePrecision::F32,
            );
            let (wx, wh) = (mat(e), mat(h));
            let b = Tensor::rand_uniform(&mut rng, &[out_dim], -1.0, 1.0);
            let x = batch_inputs(&mut rng, 1, bsz, e);
            let hs = batch_inputs(&mut rng, 1, bsz, h);
            let segs: &[(&FastMat, &[f32])] = &[(&wx, &x), (&wh, &hs)];
            let segs = &segs[..1 + two as usize];
            let run = |lane: KernelLane| {
                let mut out = vec![0.0f32; out_dim * bsz];
                let mut qs = QuantScratch::default();
                on_lane(
                    lane,
                    #[inline(always)]
                    |lane| linear_on(lane, segs, &b, bsz, &mut out, &mut qs),
                );
                out
            };
            let (avx2, avx512) = (run(KernelLane::Avx2), run(KernelLane::Avx512));
            for (i, (x, y)) in avx512.iter().zip(&avx2).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "elem {}: avx512 {} vs avx2 {}", i, x, y);
            }
        }
    }

    /// Chunks of default-length keys for the whole-model lane tests.
    fn model_chunks(n: usize, len: usize) -> Vec<Vec<recmg_trace::VectorKey>> {
        use recmg_trace::{RowId, TableId, VectorKey};
        let mut rng = StdRng::seed_from_u64(0xA5);
        (0..n)
            .map(|_| {
                (0..len)
                    .map(|_| {
                        VectorKey::new(TableId(rng.gen_range(0..4)), RowId(rng.gen_range(0..5_000)))
                    })
                    .collect()
            })
            .collect()
    }

    /// `to_bits` of every output of a model forward.
    fn model_bits(outs: &[Vec<f32>]) -> Vec<Vec<u32>> {
        outs.iter()
            .map(|o| o.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// Whole default-config caching and prefetch forwards on the AVX-512
    /// lane equal the AVX2 lane's bit for bit at batch sizes below, at and
    /// above one 8-lane block (6 is padded to a full block, 5 is not), in
    /// `f32` and in int8 (whose matmul is the AVX2 kernel on both lanes).
    #[test]
    fn avx512_forward_is_bit_identical_to_avx2() {
        if !avx512_host("avx512_forward_is_bit_identical_to_avx2") {
            return;
        }
        let cfg = crate::RecMgConfig::default();
        let chunks = model_chunks(16, cfg.input_len);
        let mut scratch = FastScratch::default();
        for p in [GuidancePrecision::F32, GuidancePrecision::Int8] {
            let cm = crate::CachingModel::new(&cfg).compile_with(p);
            let pm = crate::PrefetchModel::new(&cfg).compile_with(p);
            for bsz in [1usize, 5, 6, 8, 16] {
                let batch: Vec<&[recmg_trace::VectorKey]> =
                    chunks[..bsz].iter().map(Vec::as_slice).collect();
                let [p5, p2] = [KernelLane::Avx512, KernelLane::Avx2]
                    .map(|lane| model_bits(&cm.probs_batch_on(lane, &batch, &mut scratch)));
                assert_eq!(p5, p2, "caching {p:?}, bsz {bsz}");
                let [c5, c2] = [KernelLane::Avx512, KernelLane::Avx2]
                    .map(|lane| model_bits(&pm.codes_batch_on(lane, &batch, &mut scratch)));
                assert_eq!(c5, c2, "prefetch {p:?}, bsz {bsz}");
            }
        }
    }
}
