//! Symmetric int8 weight quantization.
//!
//! §VI-C of the paper lists quantization among the optimizations used to
//! keep RecMG's model inference cheap enough to run on spare CPU cores
//! ("(3) quantization ... we get more than 10× performance improvement,
//! compared with no optimization"). This module provides the per-tensor
//! symmetric scheme used by the serving path: weights are stored as `i8`
//! with one `f32` scale, and matrix-vector products run in integer domain
//! with a single rescale at the end.

use crate::align::AlignedVec;
use crate::simd::{avx2_fma_available, KernelLane};
use crate::tensor::Tensor;

/// Reusable buffers for [`QuantizedMatrix::vecmul_batch`]: quantized
/// activations, integer accumulators, and per-lane activation scales. One
/// per serving thread keeps the quantized hot loop allocation-free. The
/// buffers are [`AlignedVec`]s with distinct staggers so kernel throughput
/// does not depend on allocator placement luck.
#[derive(Debug, Clone)]
pub struct QuantScratch {
    xq: AlignedVec<i8>,
    acc: AlignedVec<i32>,
    scales: AlignedVec<f32>,
    // One-lane staging for the narrow-batch AVX2 path (`1 < bsz < 8`):
    // a deinterleaved activation column and its contiguous accumulator.
    xl: AlignedVec<i8>,
    al: AlignedVec<i32>,
}

impl Default for QuantScratch {
    fn default() -> Self {
        // Staggers 2496..3264 (the guidance scratch in recmg-core uses
        // 0..2112): every hot buffer in one serving thread sits at a
        // distinct offset modulo 4 KiB.
        QuantScratch {
            xq: AlignedVec::with_stagger(2496),
            acc: AlignedVec::with_stagger(2688),
            scales: AlignedVec::with_stagger(2880),
            xl: AlignedVec::with_stagger(3072),
            al: AlignedVec::with_stagger(3264),
        }
    }
}

/// A per-tensor symmetric int8 quantized matrix.
///
/// # Examples
///
/// ```
/// use recmg_tensor::quant::QuantizedMatrix;
/// use recmg_tensor::Tensor;
///
/// let w = Tensor::from_vec(vec![0.5, -1.0, 0.25, 1.0], &[2, 2]);
/// let q = QuantizedMatrix::quantize(&w);
/// let back = q.dequantize();
/// for (a, b) in w.data().iter().zip(back.data().iter()) {
///     assert!((a - b).abs() < 0.02);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    scale: f32,
    values: Vec<i8>,
}

impl QuantizedMatrix {
    /// Quantizes a 2-D tensor with a symmetric per-tensor scale.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not 2-D.
    pub fn quantize(w: &Tensor) -> Self {
        let (rows, cols) = (w.rows(), w.cols());
        let max_abs = w
            .data()
            .iter()
            .fold(0.0f32, |acc, &x| acc.max(x.abs()))
            .max(f32::MIN_POSITIVE);
        let scale = max_abs / 127.0;
        let values = w
            .data()
            .iter()
            .map(|&x| (x / scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        QuantizedMatrix {
            rows,
            cols,
            scale,
            values,
        }
    }

    /// Reconstructs an `f32` tensor (lossy).
    pub fn dequantize(&self) -> Tensor {
        let data = self.values.iter().map(|&q| q as f32 * self.scale).collect();
        Tensor::from_vec(data, &[self.rows, self.cols])
    }

    /// Computes `x @ W` where `x` is a row vector of length `rows`.
    ///
    /// The multiply-accumulate runs in `i32`, matching how an AVX-512 VNNI
    /// kernel would execute it; the result is rescaled once.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn vecmul(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.rows, "input length must match matrix rows");
        // Quantize the activation on the fly (per-call dynamic quantization).
        let x_max = x
            .iter()
            .fold(0.0f32, |acc, &v| acc.max(v.abs()))
            .max(f32::MIN_POSITIVE);
        let x_scale = x_max / 127.0;
        let xq: Vec<i32> = x
            .iter()
            .map(|&v| (v / x_scale).round().clamp(-127.0, 127.0) as i32)
            .collect();
        let mut out = vec![0i32; self.cols];
        for (r, &xv) in xq.iter().enumerate() {
            if xv == 0 {
                continue;
            }
            let row = &self.values[r * self.cols..(r + 1) * self.cols];
            for (o, &wv) in out.iter_mut().zip(row.iter()) {
                *o += xv * wv as i32;
            }
        }
        let rescale = self.scale * x_scale;
        out.into_iter().map(|acc| acc as f32 * rescale).collect()
    }

    /// Batch-interleaved accumulating matmul: `out[c·bsz + b] += (x_b @ W)[c]`
    /// for `bsz` independent lanes, where `xs` is `[rows, bsz]`
    /// (lanes contiguous per feature) and `out` is `[cols, bsz]`.
    ///
    /// Each lane's activation vector is quantized on the fly with its own
    /// per-call symmetric scale — exactly [`QuantizedMatrix::vecmul`]'s
    /// scheme, so at `bsz == 1` the contribution added to `out` is
    /// bit-identical to `vecmul(x)`. The multiply-accumulate runs in `i32`,
    /// which makes the scalar and AVX2 lanes produce *identical* results
    /// (integer arithmetic is exact in any order).
    ///
    /// # Panics
    ///
    /// Panics if `xs` / `out` lengths don't match `rows·bsz` / `cols·bsz`.
    pub fn vecmul_batch(
        &self,
        lane: KernelLane,
        bsz: usize,
        xs: &[f32],
        out: &mut [f32],
        s: &mut QuantScratch,
    ) {
        assert_eq!(xs.len(), self.rows * bsz, "xs must be [rows, bsz]");
        assert_eq!(out.len(), self.cols * bsz, "out must be [cols, bsz]");
        // Per-lane dynamic activation quantization (strided max over the
        // lane's column of the interleaved input).
        s.scales.clear();
        s.scales.resize(bsz, 0.0);
        for b in 0..bsz {
            let mut mx = 0.0f32;
            let mut r = b;
            while r < xs.len() {
                mx = mx.max(xs[r].abs());
                r += bsz;
            }
            s.scales[b] = mx.max(f32::MIN_POSITIVE) / 127.0;
        }
        s.xq.clear();
        s.xq.resize(self.rows * bsz, 0);
        for r in 0..self.rows {
            for b in 0..bsz {
                let v = xs[r * bsz + b];
                s.xq[r * bsz + b] = (v / s.scales[b]).round().clamp(-127.0, 127.0) as i8;
            }
        }
        s.acc.clear();
        s.acc.resize(self.cols * bsz, 0);
        match lane {
            #[cfg(target_arch = "x86_64")]
            // The AVX-512 lane has no int8 kernel of its own: it runs AVX2's.
            KernelLane::Avx2 | KernelLane::Avx512 if avx2_fma_available() => {
                if bsz == 1 {
                    unsafe { self.mac_avx2_one(&s.xq, &mut s.acc) }
                } else if bsz < 8 {
                    // Too narrow for the 8-wide batch-axis vectors: run the
                    // column-vectorized one-lane kernel per batch lane on
                    // deinterleaved staging buffers instead (int8 weights
                    // are compute-bound, so 8-wide columns beat 4-wide
                    // batch stripes). i32 accumulation is exact in any
                    // order, so the results are bit-identical either way.
                    s.xl.clear();
                    s.xl.resize(self.rows, 0);
                    s.al.clear();
                    s.al.resize(self.cols, 0);
                    for b in 0..bsz {
                        for r in 0..self.rows {
                            s.xl[r] = s.xq[r * bsz + b];
                        }
                        s.al.fill(0);
                        unsafe { self.mac_avx2_one(&s.xl, &mut s.al) }
                        for c in 0..self.cols {
                            s.acc[c * bsz + b] = s.al[c];
                        }
                    }
                } else {
                    unsafe { self.mac_avx2_stripe(bsz, &s.xq, &mut s.acc) }
                }
            }
            _ => self.mac_scalar(bsz, &s.xq, &mut s.acc),
        }
        for c in 0..self.cols {
            let a = &s.acc[c * bsz..(c + 1) * bsz];
            let o = &mut out[c * bsz..(c + 1) * bsz];
            for b in 0..bsz {
                o[b] += a[b] as f32 * (self.scale * s.scales[b]);
            }
        }
    }

    fn mac_scalar(&self, bsz: usize, xq: &[i8], acc: &mut [i32]) {
        let cols = self.cols;
        if bsz == 1 {
            for (r, &xv) in xq.iter().enumerate() {
                if xv == 0 {
                    continue;
                }
                let xv = xv as i32;
                let row = &self.values[r * cols..(r + 1) * cols];
                for (a, &wv) in acc.iter_mut().zip(row) {
                    *a += xv * wv as i32;
                }
            }
        } else {
            for r in 0..self.rows {
                let x = &xq[r * bsz..(r + 1) * bsz];
                let row = &self.values[r * cols..(r + 1) * cols];
                for (c, &wv) in row.iter().enumerate() {
                    if wv == 0 {
                        continue;
                    }
                    let wv = wv as i32;
                    let a = &mut acc[c * bsz..(c + 1) * bsz];
                    for (av, &xv) in a.iter_mut().zip(x) {
                        *av += xv as i32 * wv;
                    }
                }
            }
        }
    }

    /// One-lane integer MAC with 8-wide `i32` vectors over the columns:
    /// `i8` operands are sign-extended on load, so the arithmetic (and
    /// thus the result) is identical to [`QuantizedMatrix::mac_scalar`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn mac_avx2_one(&self, xq: &[i8], acc: &mut [i32]) {
        use std::arch::x86_64::*;
        let cols = self.cols;
        for (r, &xv) in xq.iter().enumerate() {
            if xv == 0 {
                continue;
            }
            let row = &self.values[r * cols..(r + 1) * cols];
            let xvv = _mm256_set1_epi32(xv as i32);
            let mut c = 0;
            while c + 8 <= cols {
                let w8 =
                    _mm256_cvtepi8_epi32(_mm_loadl_epi64(row.as_ptr().add(c) as *const __m128i));
                let a = _mm256_loadu_si256(acc.as_ptr().add(c) as *const __m256i);
                let a = _mm256_add_epi32(a, _mm256_mullo_epi32(xvv, w8));
                _mm256_storeu_si256(acc.as_mut_ptr().add(c) as *mut __m256i, a);
                c += 8;
            }
            let xv = xv as i32;
            while c < cols {
                acc[c] += xv * row[c] as i32;
                c += 1;
            }
        }
    }

    /// Wide-batch integer MAC with 8-wide `i32` vectors over the batch
    /// stripes (`bsz >= 8`): one pass over the weights for the whole
    /// batch. Same exact `i32` arithmetic as the scalar path.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn mac_avx2_stripe(&self, bsz: usize, xq: &[i8], acc: &mut [i32]) {
        use std::arch::x86_64::*;
        let cols = self.cols;
        for r in 0..self.rows {
            let x = &xq[r * bsz..(r + 1) * bsz];
            let row = &self.values[r * cols..(r + 1) * cols];
            for (c, &wv) in row.iter().enumerate() {
                if wv == 0 {
                    continue;
                }
                let wvv = _mm256_set1_epi32(wv as i32);
                let a = &mut acc[c * bsz..(c + 1) * bsz];
                let mut b = 0;
                while b + 8 <= bsz {
                    let x8 =
                        _mm256_cvtepi8_epi32(_mm_loadl_epi64(x.as_ptr().add(b) as *const __m128i));
                    let av = _mm256_loadu_si256(a.as_ptr().add(b) as *const __m256i);
                    let av = _mm256_add_epi32(av, _mm256_mullo_epi32(x8, wvv));
                    _mm256_storeu_si256(a.as_mut_ptr().add(b) as *mut __m256i, av);
                    b += 8;
                }
                let wv = wv as i32;
                while b < bsz {
                    a[b] += x[b] as i32 * wv;
                    b += 1;
                }
            }
        }
    }

    /// Matrix row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Matrix column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The quantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Memory footprint in bytes (weights only).
    pub fn size_bytes(&self) -> usize {
        self.values.len() + std::mem::size_of::<f32>()
    }
}

/// Maximum absolute elementwise error introduced by quantizing `w`.
pub fn quantization_error(w: &Tensor) -> f32 {
    let q = QuantizedMatrix::quantize(w);
    let back = q.dequantize();
    w.data()
        .iter()
        .zip(back.data().iter())
        .map(|(&a, &b)| (a - b).abs())
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_error_bounded_by_half_step() {
        let mut rng = StdRng::seed_from_u64(42);
        let w = Tensor::rand_uniform(&mut rng, &[16, 16], -2.0, 2.0);
        let q = QuantizedMatrix::quantize(&w);
        let err = quantization_error(&w);
        assert!(
            err <= q.scale() * 0.5 + 1e-6,
            "err {err}, scale {}",
            q.scale()
        );
    }

    #[test]
    fn vecmul_close_to_float() {
        let mut rng = StdRng::seed_from_u64(43);
        let w = Tensor::rand_uniform(&mut rng, &[32, 8], -1.0, 1.0);
        let x: Vec<f32> = (0..32).map(|i| ((i as f32) * 0.1).sin()).collect();
        let q = QuantizedMatrix::quantize(&w);
        let got = q.vecmul(&x);
        let exact = Tensor::from_vec(x.clone(), &[1, 32]).matmul(&w);
        for (g, e) in got.iter().zip(exact.data().iter()) {
            assert!((g - e).abs() < 0.15, "quantized {g} vs exact {e}");
        }
    }

    #[test]
    fn zero_matrix_quantizes_safely() {
        let w = Tensor::zeros(&[4, 4]);
        let q = QuantizedMatrix::quantize(&w);
        assert!(q.dequantize().data().iter().all(|&x| x == 0.0));
        let out = q.vecmul(&[0.0; 4]);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn size_is_quarter_of_f32() {
        let w = Tensor::zeros(&[100, 100]);
        let q = QuantizedMatrix::quantize(&w);
        assert!(q.size_bytes() < 100 * 100 * 4 / 3);
    }

    fn lanes() -> Vec<KernelLane> {
        // The scalar lane always runs; each vector lane is exercised
        // whenever the host supports it (every CI leg has an AVX2 host —
        // the "no-SIMD" leg forces scalar *dispatch* but still tests the
        // vector kernels here, explicitly).
        [KernelLane::Scalar, KernelLane::Avx2, KernelLane::Avx512]
            .into_iter()
            .filter(|l| l.available())
            .collect()
    }

    #[test]
    fn vecmul_batch_at_bsz1_is_bitwise_vecmul() {
        let mut rng = StdRng::seed_from_u64(44);
        let w = Tensor::rand_uniform(&mut rng, &[23, 9], -1.0, 1.0);
        let q = QuantizedMatrix::quantize(&w);
        let x: Vec<f32> = (0..23).map(|i| ((i as f32) * 0.37).cos()).collect();
        let reference = q.vecmul(&x);
        for lane in lanes() {
            let mut out = vec![0.0f32; 9];
            let mut s = QuantScratch::default();
            q.vecmul_batch(lane, 1, &x, &mut out, &mut s);
            assert_eq!(out, reference, "lane {}", lane.name());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Every int8 lane is *identical* to the scalar one (integer MAC), and
        /// each interleaved lane matches a per-item `vecmul` bitwise.
        #[test]
        fn lane_parity_vecmul_batch(
            seed in 0u64..1_000,
            rows in 1usize..24,
            cols in 1usize..20,
            bsz in 1usize..12,
        ) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let w = Tensor::rand_uniform(&mut rng, &[rows, cols], -1.5, 1.5);
            let q = QuantizedMatrix::quantize(&w);
            let xs: Vec<f32> = (0..rows * bsz).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mut outs = Vec::new();
            for lane in lanes() {
                let mut out = vec![0.0f32; cols * bsz];
                let mut s = QuantScratch::default();
                q.vecmul_batch(lane, bsz, &xs, &mut out, &mut s);
                outs.push(out);
            }
            for (lane, out) in lanes().iter().zip(&outs).skip(1) {
                proptest::prop_assert_eq!(&outs[0], out, "scalar vs {} int8", lane.name());
            }
            // Interleaved batch matches vecmul per lane, exactly.
            for b in 0..bsz {
                let x: Vec<f32> = (0..rows).map(|r| xs[r * bsz + b]).collect();
                let single = q.vecmul(&x);
                for c in 0..cols {
                    proptest::prop_assert_eq!(outs[0][c * bsz + b], single[c]);
                }
            }
        }

        /// Quantized output divergence from the exact f32 product is
        /// bounded by the analytic estimate built from
        /// [`quantization_error`] (weight rounding) plus the activation
        /// half-step — per output element:
        /// `rows · ((|x|max + sx/2)·qe + |w|max·sx/2)`.
        #[test]
        fn quantized_divergence_bounded_by_error_estimate(
            seed in 0u64..1_000,
            rows in 1usize..24,
            cols in 1usize..16,
            bsz in 1usize..8,
        ) {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x0E55);
            let w = Tensor::rand_uniform(&mut rng, &[rows, cols], -2.0, 2.0);
            let q = QuantizedMatrix::quantize(&w);
            let qe = quantization_error(&w);
            let wmax = w.data().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
            let xs: Vec<f32> = (0..rows * bsz).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let mut got = vec![0.0f32; cols * bsz];
            let mut s = QuantScratch::default();
            q.vecmul_batch(KernelLane::Scalar, bsz, &xs, &mut got, &mut s);
            for b in 0..bsz {
                let xmax = (0..rows).fold(0.0f32, |a, r| a.max(xs[r * bsz + b].abs()));
                let sx = xmax.max(f32::MIN_POSITIVE) / 127.0;
                let bound = rows as f32 * ((xmax + 0.5 * sx) * qe + wmax * 0.5 * sx);
                for c in 0..cols {
                    let exact: f32 = (0..rows).map(|r| xs[r * bsz + b] * w.at(r, c)).sum();
                    let err = (got[c * bsz + b] - exact).abs();
                    proptest::prop_assert!(
                        err <= bound * 1.01 + 1e-5,
                        "lane {} col {}: err {} exceeds bound {}", b, c, err, bound
                    );
                }
            }
        }
    }
}
