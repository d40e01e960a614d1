//! The prefetch model (paper §V-B).
//!
//! Two seq2seq LSTM stacks with attention followed by a fully-connected
//! projection head that emits `|PO|` *continuous index codes* in `[0, 1]`.
//! Codes are decoded to concrete vectors by an [`IndexCodec`].
//!
//! Training minimizes the symmetric normalized Chamfer measure (Eq. 5)
//! between the emitted codes and the codes of the next `|W|` OPT-missing
//! vectors, where `|W| = 3 × |PO|` — the decoupled evaluation window that
//! §VII-C shows is essential (an L2 loss with a coupled window stalls; the
//! [`PrefetchLoss::L2`] variant reproduces that baseline for Fig. 11).

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use recmg_tensor::nn::{DecoderFeed, Embedding, Linear, Module, StackedSeq2Seq};
use recmg_tensor::optim::{Adam, Optimizer};
use recmg_tensor::{ParamStore, Tape, Tensor, Var};
use recmg_trace::VectorKey;

use crate::codec::IndexCodec;
use crate::config::{GuidancePrecision, RecMgConfig};
use crate::fast::{
    fast_linear_batch, map_batch, sigmoid_approx, tanh_approx, FastLstm, FastMat, FastScratch,
    FastStack,
};
use crate::labeling::PrefetchExample;

/// Loss used for prefetch training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefetchLoss {
    /// The paper's symmetric normalized Chamfer measure over the decoupled
    /// window (Eq. 5).
    Chamfer {
        /// Weight of the `PO → W` term.
        alpha: f32,
    },
    /// Position-wise L2 against the first `|PO|` window entries — the
    /// ablation baseline whose "training loss does not decrease after 10
    /// training steps" (Fig. 11).
    L2,
}

/// Per-step loss trace from training (Fig. 11 plots this curve).
#[derive(Debug, Clone)]
pub struct PrefetchTrainingReport {
    /// Loss at every optimizer step.
    pub step_losses: Vec<f32>,
    /// Wall-clock training time.
    pub wall: Duration,
}

impl PrefetchTrainingReport {
    /// Mean loss over the final quarter of steps.
    pub fn tail_loss(&self) -> f32 {
        let n = self.step_losses.len();
        if n == 0 {
            return f32::NAN;
        }
        let tail = &self.step_losses[n - n.div_ceil(4)..];
        tail.iter().sum::<f32>() / tail.len() as f32
    }

    /// Mean loss over the first quarter of steps.
    pub fn head_loss(&self) -> f32 {
        let n = self.step_losses.len();
        if n == 0 {
            return f32::NAN;
        }
        let head = &self.step_losses[..n.div_ceil(4)];
        head.iter().sum::<f32>() / head.len() as f32
    }
}

/// Quality of the prefetch model against held-out examples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrefetchEval {
    /// Fraction of predicted vectors that appear in the evaluation window
    /// (the paper's prefetch "accuracy"/correctness).
    pub accuracy: f64,
    /// Eq. 2 coverage: unique predicted ∩ window over unique window.
    pub coverage: f64,
}

/// The prefetch model.
#[derive(Debug, Clone)]
pub struct PrefetchModel {
    cfg: RecMgConfig,
    store: ParamStore,
    emb: Embedding,
    stacks: StackedSeq2Seq,
    proj_hidden: Linear,
    proj_out: Linear,
}

impl PrefetchModel {
    /// Builds an untrained model with `cfg.prefetch_stacks` stacks.
    pub fn new(cfg: &RecMgConfig) -> Self {
        Self::with_stacks(cfg, cfg.prefetch_stacks)
    }

    /// Builds with an explicit stack count (Table III).
    ///
    /// # Panics
    ///
    /// Panics if `stacks` is zero.
    pub fn with_stacks(cfg: &RecMgConfig, stacks: usize) -> Self {
        cfg.validate();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xFE7C);
        let emb = Embedding::new(&mut store, &mut rng, "pm.emb", cfg.vocab, cfg.embed_dim);
        let stacks = StackedSeq2Seq::new(
            &mut store,
            &mut rng,
            "pm",
            cfg.embed_dim,
            cfg.prefetch_hidden,
            stacks,
        );
        // "The prefetch model has an output embedding layer (i.e., fully
        // connected and projection layer) after the attention layer" §V-B.
        let proj_hidden = Linear::new(
            &mut store,
            &mut rng,
            "pm.fc",
            cfg.prefetch_hidden,
            cfg.prefetch_hidden,
        );
        let proj_out = Linear::new(&mut store, &mut rng, "pm.proj", cfg.prefetch_hidden, 1);
        PrefetchModel {
            cfg: cfg.clone(),
            store,
            emb,
            stacks,
            proj_hidden,
            proj_out,
        }
    }

    /// Total learnable parameters.
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// Number of LSTM stacks.
    pub fn n_stacks(&self) -> usize {
        self.stacks.n_stacks()
    }

    fn tokens(&self, keys: &[VectorKey]) -> Vec<usize> {
        keys.iter().map(|k| k.bucket(self.cfg.vocab)).collect()
    }

    /// Forward pass: `|PO|` sigmoid-bounded codes as a `[output_len, 1]`
    /// variable.
    fn forward(&self, tape: &mut Tape, keys: &[VectorKey]) -> Var {
        let tokens = self.tokens(keys);
        let x = self.emb.forward(tape, &self.store, &tokens);
        let xs: Vec<Var> = (0..tokens.len())
            .map(|i| tape.gather_rows(x, &[i]))
            .collect();
        let outs = self.stacks.forward(
            tape,
            &self.store,
            &xs,
            DecoderFeed::Autoregressive(self.cfg.output_len),
        );
        let codes: Vec<Var> = outs
            .into_iter()
            .map(|o| {
                let h = self.proj_hidden.forward(tape, &self.store, o);
                let h = tape.tanh(h);
                let z = self.proj_out.forward(tape, &self.store, h);
                tape.sigmoid(z)
            })
            .collect();
        tape.concat_rows(&codes)
    }

    /// The raw predicted codes for an input chunk.
    pub fn predict_codes(&self, keys: &[VectorKey]) -> Vec<f32> {
        if keys.is_empty() {
            return Vec::new();
        }
        let mut tape = Tape::new(&self.store);
        let out = self.forward(&mut tape, keys);
        tape.value(out).data().to_vec()
    }

    /// Predicted vectors to prefetch (decoded and deduplicated, order
    /// preserved).
    pub fn predict(&self, keys: &[VectorKey], codec: &dyn IndexCodec) -> Vec<VectorKey> {
        let mut out = Vec::with_capacity(self.cfg.output_len);
        for code in self.predict_codes(keys) {
            if let Some(k) = codec.decode(code) {
                if !out.contains(&k) {
                    out.push(k);
                }
            }
        }
        out
    }

    /// Encodes a window into target codes, skipping vectors outside the
    /// codec vocabulary.
    fn encode_window(&self, window: &[VectorKey], codec: &dyn IndexCodec) -> Vec<f32> {
        window.iter().filter_map(|&k| codec.encode(k)).collect()
    }

    /// Trains the model. With [`PrefetchLoss::L2`] the window is coupled to
    /// the output length (the Fig. 11 baseline); with Chamfer the full
    /// decoupled window is used.
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty or `epochs`/`minibatch` is zero.
    pub fn train(
        &mut self,
        examples: &[PrefetchExample],
        codec: &dyn IndexCodec,
        loss_kind: PrefetchLoss,
        epochs: usize,
        minibatch: usize,
    ) -> PrefetchTrainingReport {
        assert!(!examples.is_empty(), "no training examples");
        assert!(epochs > 0 && minibatch > 0, "epochs/minibatch must be > 0");
        let start = Instant::now();
        let params: Vec<_> = self
            .emb
            .params()
            .into_iter()
            .chain(self.stacks.params())
            .chain(self.proj_hidden.params())
            .chain(self.proj_out.params())
            .collect();
        let mut opt = Adam::new(params, self.cfg.lr);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x11EF);
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut step_losses = Vec::new();
        for _ in 0..epochs {
            order.shuffle(&mut rng);
            let mut in_batch = 0usize;
            let mut batch_sum = 0.0f32;
            for &ei in &order {
                let ex = &examples[ei];
                let targets = self.encode_window(&ex.window, codec);
                if targets.is_empty() {
                    continue;
                }
                let mut tape = Tape::new(&self.store);
                let codes = self.forward(&mut tape, &ex.input);
                let loss = match loss_kind {
                    PrefetchLoss::Chamfer { alpha } => {
                        tape.chamfer(codes, Tensor::from_slice(&targets), alpha)
                    }
                    PrefetchLoss::L2 => {
                        // Coupled window: compare position-wise against the
                        // first |PO| targets (padding by repetition).
                        let t: Vec<f32> = (0..self.cfg.output_len)
                            .map(|i| targets[i.min(targets.len() - 1)])
                            .collect();
                        tape.mse(codes, Tensor::from_vec(t, &[self.cfg.output_len, 1]))
                    }
                };
                batch_sum += tape.value(loss).data()[0];
                tape.backward(loss, &mut self.store);
                in_batch += 1;
                if in_batch >= minibatch {
                    self.store.clip_grad_norm(5.0);
                    opt.step(&mut self.store);
                    step_losses.push(batch_sum / in_batch as f32);
                    in_batch = 0;
                    batch_sum = 0.0;
                }
            }
            if in_batch > 0 {
                self.store.clip_grad_norm(5.0);
                opt.step(&mut self.store);
                step_losses.push(batch_sum / in_batch as f32);
            }
        }
        PrefetchTrainingReport {
            step_losses,
            wall: start.elapsed(),
        }
    }

    /// Compiles a fast, tape-free inference snapshot for online serving
    /// (§VI-C), at exact `f32` precision.
    pub fn compile(&self) -> FastPrefetchModel {
        self.compile_with(GuidancePrecision::default())
    }

    /// Compiles with an explicit weight precision:
    /// [`GuidancePrecision::Int8`] quantizes every weight matrix at build
    /// time (§VI-C's quantization optimization).
    pub fn compile_with(&self, precision: GuidancePrecision) -> FastPrefetchModel {
        let emb = self.store.value(self.emb.params()[0]).clone();
        let sids = self.stacks.params();
        let stacks = (0..self.stacks.n_stacks())
            .map(|s| {
                let w = |i: usize| self.store.value(sids[8 * s + i]).clone();
                FastStack::new(
                    FastLstm::new(w(0), w(1), w(2), precision),
                    FastLstm::new(w(3), w(4), w(5), precision),
                    w(6),
                    w(7),
                    precision,
                )
            })
            .collect();
        FastPrefetchModel {
            vocab: self.cfg.vocab,
            output_len: self.cfg.output_len,
            emb,
            stacks,
            fc_w: FastMat::compile(
                self.store.value(self.proj_hidden.weight_id()).clone(),
                precision,
            ),
            fc_b: self.store.value(self.proj_hidden.bias_id()).clone(),
            proj_w: FastMat::compile(
                self.store.value(self.proj_out.weight_id()).clone(),
                precision,
            ),
            proj_b: self.store.value(self.proj_out.bias_id()).clone(),
            precision,
        }
    }

    /// Evaluates accuracy (Fig. 9's correctness) and Eq. 2 coverage
    /// (Fig. 10) against examples.
    pub fn evaluate(&self, examples: &[PrefetchExample], codec: &dyn IndexCodec) -> PrefetchEval {
        let mut acc_sum = 0.0;
        let mut cov_sum = 0.0;
        let mut n = 0u64;
        for ex in examples {
            let preds = self.predict(&ex.input, codec);
            if preds.is_empty() {
                continue;
            }
            let gt: std::collections::HashSet<VectorKey> = ex.window.iter().copied().collect();
            let hits = preds.iter().filter(|k| gt.contains(k)).count();
            acc_sum += hits as f64 / preds.len() as f64;
            let uniq: std::collections::HashSet<VectorKey> = preds.iter().copied().collect();
            cov_sum += uniq.intersection(&gt).count() as f64 / gt.len() as f64;
            n += 1;
        }
        if n == 0 {
            PrefetchEval::default()
        } else {
            PrefetchEval {
                accuracy: acc_sum / n as f64,
                coverage: cov_sum / n as f64,
            }
        }
    }
}

/// A weight snapshot of a [`PrefetchModel`] with an allocation-light
/// forward pass, suitable for per-thread online serving.
#[derive(Debug, Clone)]
pub struct FastPrefetchModel {
    vocab: usize,
    output_len: usize,
    emb: Tensor,
    stacks: Vec<FastStack>,
    fc_w: FastMat,
    fc_b: Tensor,
    proj_w: FastMat,
    proj_b: Tensor,
    precision: GuidancePrecision,
}

impl FastPrefetchModel {
    /// The weight precision this snapshot was compiled at.
    pub fn precision(&self) -> GuidancePrecision {
        self.precision
    }

    /// Whether the weights are int8-quantized.
    pub fn is_quantized(&self) -> bool {
        self.precision == GuidancePrecision::Int8
    }

    /// Weight footprint in bytes (embedding table included).
    pub fn size_bytes(&self) -> usize {
        self.emb.len() * std::mem::size_of::<f32>()
            + self.stacks.iter().map(FastStack::size_bytes).sum::<usize>()
            + self.fc_w.size_bytes()
            + self.proj_w.size_bytes()
            + (self.fc_b.len() + self.proj_b.len()) * std::mem::size_of::<f32>()
    }

    /// Raw predicted codes (matches [`PrefetchModel::predict_codes`] to
    /// ≤1e-5) — the batch-of-one case of
    /// [`FastPrefetchModel::codes_batch`].
    pub fn codes(&self, keys: &[VectorKey]) -> Vec<f32> {
        self.codes_batch(&[keys]).pop().unwrap_or_default()
    }

    /// Decoded, deduplicated prefetch predictions.
    pub fn predict(&self, keys: &[VectorKey], codec: &dyn IndexCodec) -> Vec<VectorKey> {
        let mut out = Vec::with_capacity(self.output_len);
        for code in self.codes(keys) {
            if let Some(k) = codec.decode(code) {
                if !out.contains(&k) {
                    out.push(k);
                }
            }
        }
        out
    }

    /// Raw predicted codes for many chunks in one batched forward
    /// (allocating a fresh [`FastScratch`]; hot loops should hold one and
    /// call [`FastPrefetchModel::codes_batch_with`]).
    pub fn codes_batch(&self, chunks: &[&[VectorKey]]) -> Vec<Vec<f32>> {
        let mut scratch = FastScratch::default();
        self.codes_batch_with(chunks, &mut scratch)
    }

    /// Raw predicted codes for many chunks, batched and allocation-light:
    /// chunks are bucketed by input length, each bucket runs the aligned
    /// stacks plus the final autoregressive stack as one batch-interleaved
    /// time-major forward (one pass over the weights per bucket) on the
    /// runtime-selected kernel lane, and the fully-connected + projection
    /// head runs one interleaved dense batch per output step. Per chunk,
    /// the result is bit-identical to [`FastPrefetchModel::codes`].
    pub fn codes_batch_with(
        &self,
        chunks: &[&[VectorKey]],
        scratch: &mut FastScratch,
    ) -> Vec<Vec<f32>> {
        self.codes_batch_on(crate::fast::active_lane(), chunks, scratch)
    }

    /// [`FastPrefetchModel::codes_batch_with`] on an explicit kernel lane.
    pub(crate) fn codes_batch_on(
        &self,
        lane: crate::fast::KernelLane,
        chunks: &[&[VectorKey]],
        scratch: &mut FastScratch,
    ) -> Vec<Vec<f32>> {
        let mut out: Vec<Vec<f32>> = chunks
            .iter()
            .map(|c| {
                if c.is_empty() {
                    Vec::new()
                } else {
                    vec![0.0f32; self.output_len]
                }
            })
            .collect();
        let n = self.output_len;
        let h = self.fc_w.cols();
        crate::fast::forward_buckets(
            lane,
            &self.emb,
            self.vocab,
            &self.stacks,
            Some(n),
            chunks,
            scratch,
            |bucket, _t, bsz, cur, spare, qs| {
                // Output head per step group: fc + tanh into `spare`
                // ([n, h, bsz]), then the scalar projection back into the
                // head of `cur` ([n, bsz]) — all fc reads finish before
                // the projection overwrites `cur`'s prefix.
                spare.clear();
                spare.resize(n * bsz * h, 0.0);
                for ti in 0..n {
                    fast_linear_batch(
                        lane,
                        &self.fc_w,
                        &self.fc_b,
                        bsz,
                        &cur[ti * h * bsz..(ti + 1) * h * bsz],
                        &mut spare[ti * h * bsz..(ti + 1) * h * bsz],
                        qs,
                    );
                }
                map_batch(lane, spare, tanh_approx);
                for ti in 0..n {
                    fast_linear_batch(
                        lane,
                        &self.proj_w,
                        &self.proj_b,
                        bsz,
                        &spare[ti * h * bsz..(ti + 1) * h * bsz],
                        &mut cur[ti * bsz..(ti + 1) * bsz],
                        qs,
                    );
                }
                map_batch(lane, &mut cur[..n * bsz], sigmoid_approx);
                for (b, &ci) in bucket.iter().enumerate() {
                    for oi in 0..n {
                        out[ci][oi] = cur[oi * bsz + b];
                    }
                }
            },
        );
        out
    }

    /// Batched decoded, deduplicated prefetch predictions (allocating a
    /// fresh scratch).
    pub fn predict_batch(
        &self,
        chunks: &[&[VectorKey]],
        codec: &dyn IndexCodec,
    ) -> Vec<Vec<VectorKey>> {
        let mut scratch = FastScratch::default();
        self.predict_batch_with(chunks, codec, &mut scratch)
    }

    /// Batched decoded, deduplicated prefetch predictions over a
    /// caller-held scratch — the guidance plane's entry point
    /// ([`crate::session`]).
    pub fn predict_batch_with(
        &self,
        chunks: &[&[VectorKey]],
        codec: &dyn IndexCodec,
        scratch: &mut FastScratch,
    ) -> Vec<Vec<VectorKey>> {
        self.codes_batch_with(chunks, scratch)
            .into_iter()
            .map(|codes| {
                let mut preds = Vec::with_capacity(self.output_len);
                for code in codes {
                    if let Some(k) = codec.decode(code) {
                        if !preds.contains(&k) {
                            preds.push(k);
                        }
                    }
                }
                preds
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FrequencyRankCodec;
    use crate::labeling::build_training_data;
    use recmg_trace::{RowId, SyntheticConfig, TableId};

    fn key(r: u64) -> VectorKey {
        VectorKey::new(TableId(0), RowId(r))
    }

    /// Examples with a deterministic relationship: after seeing a chunk
    /// ending in key k, the misses are {k+1, k+2, k+3} (mod a small ring).
    fn ring_examples(cfg: &RecMgConfig, n: usize) -> Vec<PrefetchExample> {
        use rand::Rng;
        let ring = 24u64;
        let mut rng = StdRng::seed_from_u64(77);
        (0..n)
            .map(|_| {
                let start: u64 = rng.gen_range(0..ring);
                let input: Vec<VectorKey> = (0..cfg.input_len as u64)
                    .map(|i| key((start + i) % ring))
                    .collect();
                let last = (start + cfg.input_len as u64 - 1) % ring;
                let window: Vec<VectorKey> = (1..=cfg.window_len() as u64)
                    .map(|i| key((last + i) % ring))
                    .collect();
                PrefetchExample { input, window }
            })
            .collect()
    }

    fn ring_codec() -> FrequencyRankCodec {
        let accesses: Vec<VectorKey> = (0..24).map(key).collect();
        FrequencyRankCodec::from_accesses(&accesses)
    }

    #[test]
    fn output_length_is_config() {
        let cfg = RecMgConfig::tiny();
        let m = PrefetchModel::new(&cfg);
        let keys: Vec<VectorKey> = (0..cfg.input_len as u64).map(key).collect();
        assert_eq!(m.predict_codes(&keys).len(), cfg.output_len);
        let codes = m.predict_codes(&keys);
        assert!(codes.iter().all(|&c| (0.0..=1.0).contains(&c)));
    }

    #[test]
    fn chamfer_training_reduces_loss() {
        let cfg = RecMgConfig::tiny();
        let mut m = PrefetchModel::new(&cfg);
        let ex = ring_examples(&cfg, 48);
        let codec = ring_codec();
        let r = m.train(&ex, &codec, PrefetchLoss::Chamfer { alpha: 0.7 }, 6, 4);
        assert!(
            r.tail_loss() < r.head_loss() * 0.8,
            "loss head {} tail {}",
            r.head_loss(),
            r.tail_loss()
        );
    }

    #[test]
    fn trained_model_beats_untrained_on_accuracy() {
        let cfg = RecMgConfig::tiny();
        let ex = ring_examples(&cfg, 60);
        let codec = ring_codec();
        let untrained = PrefetchModel::new(&cfg).evaluate(&ex, &codec);
        let mut m = PrefetchModel::new(&cfg);
        m.train(&ex, &codec, PrefetchLoss::Chamfer { alpha: 0.7 }, 8, 4);
        let trained = m.evaluate(&ex, &codec);
        assert!(
            trained.accuracy > untrained.accuracy,
            "untrained {untrained:?} vs trained {trained:?}"
        );
        assert!(trained.coverage > 0.0);
    }

    #[test]
    fn l2_baseline_trains_but_stalls_relative_to_chamfer() {
        // The Fig. 11 story: same data, two losses; Chamfer keeps
        // improving, L2 plateaus quickly. We check the *relative* loss
        // decrease (each loss has its own scale).
        let cfg = RecMgConfig::tiny();
        let ex = ring_examples(&cfg, 48);
        let codec = ring_codec();
        let mut chamfer = PrefetchModel::new(&cfg);
        let rc = chamfer.train(&ex, &codec, PrefetchLoss::Chamfer { alpha: 0.7 }, 6, 4);
        let mut l2 = PrefetchModel::new(&cfg);
        let rl = l2.train(&ex, &codec, PrefetchLoss::L2, 6, 4);
        let chamfer_drop = rc.head_loss() / rc.tail_loss().max(1e-6);
        let l2_drop = rl.head_loss() / rl.tail_loss().max(1e-6);
        // Both must train on this easy ring; the decisive Fig. 11
        // comparison (L2 stalling on realistic traces) is regenerated by
        // the exp_fig11 harness — here we pin down that the Chamfer loss
        // optimizes robustly.
        assert!(
            chamfer_drop > 1.2,
            "chamfer did not train: drop {chamfer_drop}"
        );
        assert!(l2_drop.is_finite());
    }

    #[test]
    fn works_on_synthetic_trace_pipeline() {
        // End-to-end: generate → label → train → evaluate.
        let cfg = RecMgConfig::tiny();
        let trace = SyntheticConfig::tiny(71).generate();
        let td = build_training_data(trace.accesses(), &cfg, 64);
        assert!(!td.prefetch.is_empty());
        let codec = FrequencyRankCodec::from_accesses(trace.accesses());
        let mut m = PrefetchModel::new(&cfg);
        let subset = &td.prefetch[..td.prefetch.len().min(40)];
        m.train(subset, &codec, PrefetchLoss::Chamfer { alpha: 0.7 }, 3, 4);
        let eval = m.evaluate(subset, &codec);
        assert!(eval.accuracy.is_finite());
    }

    #[test]
    fn stack_count_constructor() {
        let cfg = RecMgConfig::tiny();
        assert_eq!(PrefetchModel::with_stacks(&cfg, 3).n_stacks(), 3);
        let p1 = PrefetchModel::with_stacks(&cfg, 1).num_params();
        let p2 = PrefetchModel::with_stacks(&cfg, 2).num_params();
        assert!(p2 > p1);
    }

    #[test]
    fn compiled_model_matches_tape_forward() {
        let cfg = RecMgConfig::tiny();
        let m = PrefetchModel::new(&cfg);
        let fast = m.compile();
        let keys: Vec<VectorKey> = (0..cfg.input_len as u64).map(|r| key(r * 5 % 19)).collect();
        let a = m.predict_codes(&keys);
        let b = fast.codes(&keys);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5, "tape {x} vs fast {y}");
        }
        let codec = ring_codec();
        assert_eq!(m.predict(&keys, &codec), fast.predict(&keys, &codec));
    }

    /// The approximated epilogue does not move decoded keys: on a trained
    /// model the compiled forward decodes the tape's keys on every chunk
    /// none of whose tape codes sits within 1e-5 (the fast-vs-tape bound)
    /// of a decode boundary.
    #[test]
    fn trained_fast_model_decodes_the_tape_keys() {
        use rand::Rng;
        let cfg = RecMgConfig::tiny();
        let codec = ring_codec();
        let mut m = PrefetchModel::new(&cfg);
        m.train(
            &ring_examples(&cfg, 48),
            &codec,
            PrefetchLoss::Chamfer { alpha: 0.7 },
            6,
            4,
        );
        let fast = m.compile();
        let mut rng = StdRng::seed_from_u64(0xDEC2);
        let (mut compared, mut on_the_line) = (0usize, 0usize);
        for _ in 0..500 {
            let keys: Vec<VectorKey> = (0..cfg.input_len)
                .map(|_| key(rng.gen_range(0..24)))
                .collect();
            let near_boundary = m
                .predict_codes(&keys)
                .iter()
                .any(|&c| codec.decode(c - 1e-5) != codec.decode(c + 1e-5));
            if near_boundary {
                on_the_line += 1;
            } else {
                compared += 1;
                assert_eq!(fast.predict(&keys, &codec), m.predict(&keys, &codec));
            }
        }
        println!("{compared} chunks decode equal; {on_the_line} within 1e-5 of a boundary skipped");
        assert!(compared >= 400);
    }

    #[test]
    fn quantized_compile_shrinks_and_tracks_f32() {
        let cfg = RecMgConfig::tiny();
        let m = PrefetchModel::new(&cfg);
        let f = m.compile();
        let q = m.compile_with(GuidancePrecision::Int8);
        assert!(!f.is_quantized());
        assert!(q.is_quantized());
        assert!(
            q.size_bytes() * 2 < f.size_bytes(),
            "{} vs {}",
            q.size_bytes(),
            f.size_bytes()
        );
        let keys: Vec<VectorKey> = (0..cfg.input_len as u64).map(|r| key(r * 5 % 19)).collect();
        let cf = f.codes(&keys);
        let cq = q.codes(&keys);
        assert_eq!(cf.len(), cq.len());
        for (a, b) in cf.iter().zip(&cq) {
            assert!((a - b).abs() < 0.25, "f32 {a} vs int8 {b}");
        }
    }

    #[test]
    fn codes_batch_handles_empty_and_mixed_lengths() {
        let cfg = RecMgConfig::tiny();
        let fast = PrefetchModel::new(&cfg).compile();
        let a: Vec<VectorKey> = (0..cfg.input_len as u64).map(key).collect();
        let b: Vec<VectorKey> = Vec::new();
        let c: Vec<VectorKey> = (0..4).map(|r| key(r * 3 % 11)).collect();
        let got = fast.codes_batch(&[&a, &b, &c]);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].len(), cfg.output_len);
        assert!(got[1].is_empty());
        assert_eq!(got[2].len(), cfg.output_len);
        assert_eq!(got[0], fast.codes(&a));
        assert_eq!(got[2], fast.codes(&c));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]

        /// `codes_batch` / `predict_batch` match the per-item path across
        /// random batch sizes and sequence lengths.
        #[test]
        fn codes_batch_matches_per_item(
            seed in 0u64..500,
            lens in proptest::prelude::prop::collection::vec(1usize..16, 1..6),
        ) {
            use rand::Rng;
            let cfg = RecMgConfig::tiny();
            let fast = PrefetchModel::new(&cfg).compile();
            let codec = ring_codec();
            let mut rng = StdRng::seed_from_u64(seed);
            let chunks: Vec<Vec<VectorKey>> = lens
                .iter()
                .map(|&n| (0..n).map(|_| key(rng.gen_range(0..100))).collect())
                .collect();
            let refs: Vec<&[VectorKey]> = chunks.iter().map(Vec::as_slice).collect();
            let batched = fast.codes_batch(&refs);
            for (chunk, got) in chunks.iter().zip(&batched) {
                let single = fast.codes(chunk);
                proptest::prop_assert_eq!(single.len(), got.len());
                for (x, y) in got.iter().zip(&single) {
                    proptest::prop_assert!((x - y).abs() < 1e-5, "batched {} vs single {}", x, y);
                }
            }
            let preds = fast.predict_batch(&refs, &codec);
            for (chunk, got) in chunks.iter().zip(&preds) {
                proptest::prop_assert_eq!(got, &fast.predict(chunk, &codec));
            }
        }
    }

    #[test]
    fn default_param_count_near_paper() {
        // Paper Table III: prefetch model with 2 stacks = 74,290 params.
        let m = PrefetchModel::new(&RecMgConfig::default());
        let p = m.num_params() as f64;
        assert!(
            (p / 74_290.0 - 1.0).abs() < 0.25,
            "param count {p} not within 25% of the paper's 74,290"
        );
    }
}
