//! The caching model (paper §V-A).
//!
//! A seq2seq LSTM stack with attention that reads a chunk of hashed
//! `(table, row)` tokens and emits, per position, a 1-bit priority: should
//! this vector stay in the GPU buffer? Trained with binary cross-entropy
//! against the OPTgen caching trace, which is what lets a 37K-parameter
//! model "approximate the optimal policy" (§VII-B).

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use recmg_tensor::nn::{DecoderFeed, Embedding, Linear, Module, StackedSeq2Seq};
use recmg_tensor::optim::{Adam, Optimizer};
use recmg_tensor::{ParamStore, Tape, Tensor, Var};
use recmg_trace::VectorKey;

use crate::config::{GuidancePrecision, RecMgConfig};
use crate::fast::{FastLstm, FastMat, FastScratch, FastStack};
use crate::labeling::Chunk;

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Wall-clock training time.
    pub wall: Duration,
}

impl TrainingReport {
    /// Final epoch's mean loss.
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }
}

/// The caching model.
#[derive(Debug, Clone)]
pub struct CachingModel {
    cfg: RecMgConfig,
    store: ParamStore,
    emb: Embedding,
    stacks: StackedSeq2Seq,
    head: Linear,
    threshold: f32,
}

impl CachingModel {
    /// Builds an untrained model with `cfg.caching_stacks` LSTM stacks.
    pub fn new(cfg: &RecMgConfig) -> Self {
        Self::with_stacks(cfg, cfg.caching_stacks)
    }

    /// Builds with an explicit stack count (the Table III sensitivity
    /// study).
    ///
    /// # Panics
    ///
    /// Panics if `stacks` is zero.
    pub fn with_stacks(cfg: &RecMgConfig, stacks: usize) -> Self {
        cfg.validate();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let emb = Embedding::new(&mut store, &mut rng, "cm.emb", cfg.vocab, cfg.embed_dim);
        let stacks = StackedSeq2Seq::new(
            &mut store,
            &mut rng,
            "cm",
            cfg.embed_dim,
            cfg.caching_hidden,
            stacks,
        );
        let head = Linear::new(&mut store, &mut rng, "cm.head", cfg.caching_hidden, 1);
        CachingModel {
            cfg: cfg.clone(),
            store,
            emb,
            stacks,
            head,
            threshold: 0.5,
        }
    }

    /// Total learnable parameters (Table III's "model size").
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// Number of LSTM stacks.
    pub fn n_stacks(&self) -> usize {
        self.stacks.n_stacks()
    }

    /// The configuration.
    pub fn config(&self) -> &RecMgConfig {
        &self.cfg
    }

    /// Replaces runtime configuration fields (e.g. `eviction_speed`,
    /// `input_len`). Architecture-defining fields must be unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `vocab`, `embed_dim`, or `caching_hidden` differ from the
    /// weights this model was built with.
    pub fn set_config(&mut self, cfg: RecMgConfig) {
        cfg.validate();
        assert_eq!(cfg.vocab, self.cfg.vocab, "vocab is architectural");
        assert_eq!(
            cfg.embed_dim, self.cfg.embed_dim,
            "embed_dim is architectural"
        );
        assert_eq!(
            cfg.caching_hidden, self.cfg.caching_hidden,
            "hidden size is architectural"
        );
        self.cfg = cfg;
    }

    fn tokens(&self, keys: &[VectorKey]) -> Vec<usize> {
        keys.iter().map(|k| k.bucket(self.cfg.vocab)).collect()
    }

    /// Forward pass: per-position logits `[T, 1]`.
    fn forward(&self, tape: &mut Tape, keys: &[VectorKey]) -> Var {
        let tokens = self.tokens(keys);
        let x = self.emb.forward(tape, &self.store, &tokens);
        let xs: Vec<Var> = (0..tokens.len())
            .map(|i| tape.gather_rows(x, &[i]))
            .collect();
        let outs = self
            .stacks
            .forward(tape, &self.store, &xs, DecoderFeed::Aligned);
        let logits: Vec<Var> = outs
            .into_iter()
            .map(|o| self.head.forward(tape, &self.store, o))
            .collect();
        tape.concat_rows(&logits)
    }

    /// Per-position keep probabilities.
    pub fn predict_probs(&self, keys: &[VectorKey]) -> Vec<f32> {
        if keys.is_empty() {
            return Vec::new();
        }
        let mut tape = Tape::new(&self.store);
        let logits = self.forward(&mut tape, keys);
        tape.value(logits)
            .data()
            .iter()
            .map(|&z| recmg_tensor::stable_sigmoid(z))
            .collect()
    }

    /// The 1-bit priorities of Algorithm 1 (probability above the
    /// calibrated threshold).
    pub fn predict(&self, keys: &[VectorKey]) -> Vec<bool> {
        let t = self.threshold;
        self.predict_probs(keys).iter().map(|&p| p > t).collect()
    }

    /// The current decision threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Calibrates the decision threshold so the predicted keep-rate matches
    /// the label base rate on `chunks`.
    ///
    /// OPTgen labels are heavily imbalanced (hot traces are ~80% "keep"),
    /// so an uncalibrated 0.5 cut over-predicts keep and protects vectors
    /// the optimal policy would bypass. Quantile calibration restores the
    /// base rate without retraining — a standard fix for imbalanced binary
    /// classifiers.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is empty.
    pub fn calibrate_threshold(&mut self, chunks: &[Chunk]) {
        assert!(!chunks.is_empty(), "no calibration chunks");
        let mut probs = Vec::new();
        let mut positives = 0usize;
        let mut total = 0usize;
        for c in chunks {
            probs.extend(self.predict_probs(&c.keys));
            positives += c.labels.iter().filter(|&&l| l).count();
            total += c.labels.len();
        }
        probs.sort_by(|a, b| a.partial_cmp(b).expect("finite probs"));
        let neg_rate = 1.0 - positives as f64 / total.max(1) as f64;
        let idx = ((probs.len() as f64) * neg_rate) as usize;
        self.threshold = probs[idx.min(probs.len() - 1)];
    }

    /// Trains with BCE against OPTgen labels, accumulating gradients over
    /// `minibatch` chunks per optimizer step.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is empty or `minibatch`/`epochs` is zero.
    pub fn train(&mut self, chunks: &[Chunk], epochs: usize, minibatch: usize) -> TrainingReport {
        assert!(!chunks.is_empty(), "no training chunks");
        assert!(epochs > 0 && minibatch > 0, "epochs/minibatch must be > 0");
        let start = Instant::now();
        let params: Vec<_> = self
            .emb
            .params()
            .into_iter()
            .chain(self.stacks.params())
            .chain(self.head.params())
            .collect();
        let mut opt = Adam::new(params, self.cfg.lr);
        let mut order: Vec<usize> = (0..chunks.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xCAC11E);
        let mut epoch_losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            order.shuffle(&mut rng);
            let mut sum = 0.0f32;
            let mut in_batch = 0usize;
            for &ci in &order {
                let c = &chunks[ci];
                let target: Vec<f32> = c
                    .labels
                    .iter()
                    .map(|&l| if l { 1.0 } else { 0.0 })
                    .collect();
                let mut tape = Tape::new(&self.store);
                let logits = self.forward(&mut tape, &c.keys);
                let loss =
                    tape.bce_with_logits(logits, Tensor::from_vec(target, &[c.keys.len(), 1]));
                sum += tape.value(loss).data()[0];
                tape.backward(loss, &mut self.store);
                in_batch += 1;
                if in_batch >= minibatch {
                    self.store.clip_grad_norm(5.0);
                    opt.step(&mut self.store);
                    in_batch = 0;
                }
            }
            if in_batch > 0 {
                self.store.clip_grad_norm(5.0);
                opt.step(&mut self.store);
            }
            epoch_losses.push(sum / chunks.len() as f32);
        }
        TrainingReport {
            epoch_losses,
            wall: start.elapsed(),
        }
    }

    /// Compiles a fast, tape-free inference snapshot of the current
    /// weights for online serving (§VI-C), at exact `f32` precision.
    pub fn compile(&self) -> FastCachingModel {
        self.compile_with(GuidancePrecision::default())
    }

    /// Compiles with an explicit weight precision:
    /// [`GuidancePrecision::Int8`] quantizes every weight matrix at build
    /// time (§VI-C's quantization optimization), shrinking weight traffic
    /// ~4× at a bounded output divergence.
    pub fn compile_with(&self, precision: GuidancePrecision) -> FastCachingModel {
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
        FastCachingModel {
            vocab: self.cfg.vocab,
            emb,
            stacks,
            head_w: FastMat::compile(self.store.value(self.head.weight_id()).clone(), precision),
            head_b: self.store.value(self.head.bias_id()).clone(),
            threshold: self.threshold,
            precision,
        }
    }

    /// Binary accuracy against labeled chunks (the "Acc" of Table III and
    /// the dashed line of Fig. 8).
    pub fn accuracy(&self, chunks: &[Chunk]) -> f64 {
        let mut correct = 0u64;
        let mut total = 0u64;
        for c in chunks {
            let pred = self.predict(&c.keys);
            for (p, &l) in pred.iter().zip(&c.labels) {
                if *p == l {
                    correct += 1;
                }
                total += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}

/// A weight snapshot of a [`CachingModel`] with an allocation-light forward
/// pass (no autograd tape), suitable for per-thread online serving.
#[derive(Debug, Clone)]
pub struct FastCachingModel {
    vocab: usize,
    emb: Tensor,
    stacks: Vec<FastStack>,
    head_w: FastMat,
    head_b: Tensor,
    threshold: f32,
    precision: GuidancePrecision,
}

impl FastCachingModel {
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
            + self.head_w.size_bytes()
            + self.head_b.len() * std::mem::size_of::<f32>()
    }

    /// Per-position keep probabilities (matches
    /// [`CachingModel::predict_probs`] to ≤1e-5) — the batch-of-one case
    /// of [`FastCachingModel::probs_batch`].
    pub fn probs(&self, keys: &[VectorKey]) -> Vec<f32> {
        self.probs_batch(&[keys]).pop().unwrap_or_default()
    }

    /// The 1-bit priorities (probability above the calibrated threshold).
    pub fn predict(&self, keys: &[VectorKey]) -> Vec<bool> {
        let t = self.threshold;
        self.probs(keys).iter().map(|&p| p > t).collect()
    }

    /// Per-position keep probabilities for many chunks in one batched
    /// forward (allocating a fresh [`FastScratch`]; hot loops should hold
    /// one and call [`FastCachingModel::probs_batch_with`]).
    pub fn probs_batch(&self, chunks: &[&[VectorKey]]) -> Vec<Vec<f32>> {
        let mut scratch = FastScratch::default();
        self.probs_batch_with(chunks, &mut scratch)
    }

    /// Per-position keep probabilities for many chunks, batched and
    /// allocation-light: chunks are bucketed by length, each bucket runs
    /// one batch-interleaved time-major `[t, d, bsz]` forward through the
    /// LSTM stacks (one pass over the weights per bucket, not per chunk)
    /// on the runtime-selected kernel lane, and the head runs one
    /// interleaved dense batch per step. Per chunk, the result is
    /// bit-identical to [`FastCachingModel::probs`]: lanes are independent
    /// and each item's f32 operation sequence matches the single-item
    /// path.
    pub fn probs_batch_with(
        &self,
        chunks: &[&[VectorKey]],
        scratch: &mut FastScratch,
    ) -> Vec<Vec<f32>> {
        self.probs_batch_on(crate::fast::active_lane(), chunks, scratch)
    }

    /// [`FastCachingModel::probs_batch_with`] on an explicit kernel lane.
    pub(crate) fn probs_batch_on(
        &self,
        lane: crate::fast::KernelLane,
        chunks: &[&[VectorKey]],
        scratch: &mut FastScratch,
    ) -> Vec<Vec<f32>> {
        let mut out: Vec<Vec<f32>> = chunks.iter().map(|c| vec![0.0f32; c.len()]).collect();
        let h = self.head_w.rows();
        crate::fast::forward_buckets(
            lane,
            &self.emb,
            self.vocab,
            &self.stacks,
            None,
            chunks,
            scratch,
            |bucket, t, bsz, cur, spare, qs| {
                // Head per step group: [h, bsz] → [1, bsz]; `spare`
                // collects the interleaved [t, bsz] logits.
                spare.clear();
                spare.resize(t * bsz, 0.0);
                for ti in 0..t {
                    crate::fast::fast_linear_batch(
                        lane,
                        &self.head_w,
                        &self.head_b,
                        bsz,
                        &cur[ti * h * bsz..(ti + 1) * h * bsz],
                        &mut spare[ti * bsz..(ti + 1) * bsz],
                        qs,
                    );
                }
                crate::fast::map_batch(lane, spare, crate::fast::sigmoid_approx);
                for (b, &ci) in bucket.iter().enumerate() {
                    for ti in 0..t {
                        out[ci][ti] = spare[ti * bsz + b];
                    }
                }
            },
        );
        out
    }

    /// Batched 1-bit priorities (allocating a fresh scratch).
    pub fn predict_batch(&self, chunks: &[&[VectorKey]]) -> Vec<Vec<bool>> {
        let mut scratch = FastScratch::default();
        self.predict_batch_with(chunks, &mut scratch)
    }

    /// Batched 1-bit priorities over a caller-held scratch — the guidance
    /// plane's entry point ([`crate::session`]).
    pub fn predict_batch_with(
        &self,
        chunks: &[&[VectorKey]],
        scratch: &mut FastScratch,
    ) -> Vec<Vec<bool>> {
        let t = self.threshold;
        self.probs_batch_with(chunks, scratch)
            .into_iter()
            .map(|probs| probs.into_iter().map(|p| p > t).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmg_trace::{RowId, TableId};

    fn key(r: u64) -> VectorKey {
        VectorKey::new(TableId(0), RowId(r))
    }

    /// Chunks where even rows are "keep" and odd rows "evict" — a pattern
    /// the model must be able to learn from token identity alone.
    fn separable_chunks(n: usize, len: usize) -> Vec<Chunk> {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(9);
        (0..n)
            .map(|_| {
                let keys: Vec<VectorKey> = (0..len).map(|_| key(rng.gen_range(0..40))).collect();
                let labels = keys.iter().map(|k| k.row().0 % 2 == 0).collect();
                Chunk { keys, labels }
            })
            .collect()
    }

    #[test]
    fn untrained_accuracy_near_chance() {
        let cfg = RecMgConfig::tiny();
        let m = CachingModel::new(&cfg);
        let chunks = separable_chunks(40, cfg.input_len);
        let acc = m.accuracy(&chunks);
        assert!(acc > 0.2 && acc < 0.8, "untrained accuracy {acc}");
    }

    #[test]
    fn learns_separable_labels() {
        let cfg = RecMgConfig::tiny();
        let mut m = CachingModel::new(&cfg);
        let chunks = separable_chunks(60, cfg.input_len);
        let report = m.train(&chunks, 6, 4);
        assert!(
            report.final_loss() < report.epoch_losses[0],
            "loss did not decrease: {:?}",
            report.epoch_losses
        );
        let acc = m.accuracy(&chunks);
        assert!(acc > 0.85, "trained accuracy {acc}");
    }

    #[test]
    fn predict_len_matches_input() {
        let cfg = RecMgConfig::tiny();
        let m = CachingModel::new(&cfg);
        let keys: Vec<VectorKey> = (0..5).map(key).collect();
        assert_eq!(m.predict(&keys).len(), 5);
        assert!(m.predict(&[]).is_empty());
    }

    #[test]
    fn param_count_grows_with_stacks() {
        let cfg = RecMgConfig::tiny();
        let p1 = CachingModel::with_stacks(&cfg, 1).num_params();
        let p2 = CachingModel::with_stacks(&cfg, 2).num_params();
        let p3 = CachingModel::with_stacks(&cfg, 3).num_params();
        assert!(p1 < p2 && p2 < p3);
        assert_eq!(CachingModel::with_stacks(&cfg, 2).n_stacks(), 2);
    }

    #[test]
    fn compiled_model_matches_tape_forward() {
        let cfg = RecMgConfig::tiny();
        let m = CachingModel::new(&cfg);
        let fast = m.compile();
        let keys: Vec<VectorKey> = (0..cfg.input_len as u64).map(|r| key(r * 3 % 17)).collect();
        let a = m.predict_probs(&keys);
        let b = fast.probs(&keys);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5, "tape {x} vs fast {y}");
        }
        assert_eq!(m.predict(&keys), fast.predict(&keys));
    }

    /// The approximated epilogue does not move decisions: on a trained and
    /// calibrated model the compiled forward takes the tape's side of the
    /// threshold at every position whose tape probability is not within
    /// 1e-5 (the fast-vs-tape bound) of it.
    #[test]
    fn trained_fast_model_decides_like_the_tape() {
        use rand::Rng;
        let cfg = RecMgConfig::tiny();
        let mut m = CachingModel::new(&cfg);
        let chunks = separable_chunks(60, cfg.input_len);
        m.train(&chunks, 6, 4);
        m.calibrate_threshold(&chunks);
        let fast = m.compile();
        let mut rng = StdRng::seed_from_u64(0xDEC1);
        let (mut compared, mut on_the_line) = (0usize, 0usize);
        for _ in 0..500 {
            let keys: Vec<VectorKey> = (0..cfg.input_len)
                .map(|_| key(rng.gen_range(0..40)))
                .collect();
            let (tape, bits) = (m.predict_probs(&keys), fast.predict(&keys));
            for (i, &p) in tape.iter().enumerate() {
                if (p - m.threshold()).abs() < 1e-5 {
                    on_the_line += 1;
                } else {
                    compared += 1;
                    assert_eq!(bits[i], p > m.threshold(), "position {i}: tape prob {p}");
                }
            }
        }
        println!("{compared} decisions equal; {on_the_line} within 1e-5 of the threshold skipped");
        assert!(compared >= 500 * cfg.input_len / 2);
    }

    #[test]
    fn quantized_compile_shrinks_and_tracks_f32() {
        let cfg = RecMgConfig::tiny();
        let m = CachingModel::new(&cfg);
        let f = m.compile();
        let q = m.compile_with(GuidancePrecision::Int8);
        assert!(!f.is_quantized());
        assert!(q.is_quantized());
        assert_eq!(q.precision(), GuidancePrecision::Int8);
        // Embedding + biases stay f32, so the shrink is below 4× but must
        // be substantial (> 1.5× even at tiny dims).
        assert!(
            q.size_bytes() * 3 < f.size_bytes() * 2,
            "{} vs {}",
            q.size_bytes(),
            f.size_bytes()
        );
        let keys: Vec<VectorKey> = (0..cfg.input_len as u64).map(|r| key(r * 3 % 29)).collect();
        let pf = f.probs(&keys);
        let pq = q.probs(&keys);
        assert_eq!(pf.len(), pq.len());
        for (a, b) in pf.iter().zip(&pq) {
            assert!((a - b).abs() < 0.25, "f32 {a} vs int8 {b}");
        }
    }

    #[test]
    fn probs_batch_handles_empty_and_mixed_lengths() {
        let cfg = RecMgConfig::tiny();
        let fast = CachingModel::new(&cfg).compile();
        let a: Vec<VectorKey> = (0..5).map(key).collect();
        let b: Vec<VectorKey> = Vec::new();
        let c: Vec<VectorKey> = (0..9).map(|r| key(r * 7 % 23)).collect();
        let got = fast.probs_batch(&[&a, &b, &c]);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].len(), 5);
        assert!(got[1].is_empty());
        assert_eq!(got[2].len(), 9);
        assert_eq!(got[0], fast.probs(&a));
        assert_eq!(got[2], fast.probs(&c));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// `probs_batch` / `predict_batch` match the per-item path across
        /// random batch sizes and sequence lengths (mixed lengths exercise
        /// the bucketing).
        #[test]
        fn probs_batch_matches_per_item(
            seed in 0u64..500,
            lens in proptest::prelude::prop::collection::vec(1usize..20, 1..7),
        ) {
            use rand::Rng;
            let cfg = RecMgConfig::tiny();
            let fast = CachingModel::new(&cfg).compile();
            let mut rng = StdRng::seed_from_u64(seed);
            let chunks: Vec<Vec<VectorKey>> = lens
                .iter()
                .map(|&n| (0..n).map(|_| key(rng.gen_range(0..200))).collect())
                .collect();
            let refs: Vec<&[VectorKey]> = chunks.iter().map(Vec::as_slice).collect();
            let batched = fast.probs_batch(&refs);
            for (chunk, got) in chunks.iter().zip(&batched) {
                let single = fast.probs(chunk);
                proptest::prop_assert_eq!(single.len(), got.len());
                for (x, y) in got.iter().zip(&single) {
                    proptest::prop_assert!((x - y).abs() < 1e-5, "batched {} vs single {}", x, y);
                }
            }
            let bits = fast.predict_batch(&refs);
            for (chunk, got) in chunks.iter().zip(&bits) {
                proptest::prop_assert_eq!(got, &fast.predict(chunk));
            }
        }
    }

    #[test]
    fn default_config_param_count_near_paper() {
        // Paper Table III row 1: 37,055 parameters.
        let m = CachingModel::new(&RecMgConfig::default());
        let p = m.num_params() as f64;
        assert!(
            (p / 37_055.0 - 1.0).abs() < 0.2,
            "param count {p} not within 20% of the paper's 37,055"
        );
    }
}
