//! RecMG configuration.
//!
//! Defaults follow the paper's §VII-A configuration: input length 15,
//! output length 5, evaluation window 15 (3× the output), one LSTM stack
//! for the caching model, two for the prefetch model, α = 0.7, eviction
//! speed 4.
//!
//! Besides the model/buffer configuration, this module holds the serving
//! policies of the streaming session API ([`crate::session`]): the
//! [`AdmissionPolicy`] bounding the request queue and the [`SlaBudget`]
//! driving latency-pressure degradation (skip-ahead first, then
//! prefetch-off — the Software-Defined-Memory direction over the paper's
//! §VI-C machinery).

use std::time::Duration;

/// Numeric precision of the compiled guidance-model weights (§VI-C lists
/// quantization among the serving-path optimizations).
///
/// Selected at compile time via
/// [`SystemBuilder::precision`](crate::SystemBuilder::precision); `F32`
/// keeps the exact training weights, `Int8` stores every weight matrix as
/// a symmetric per-tensor [`QuantizedMatrix`](recmg_tensor::quant::QuantizedMatrix)
/// (biases and the embedding table stay `f32`), trading a bounded output
/// divergence for ~4× smaller weight traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GuidancePrecision {
    /// Exact `f32` weights (the default).
    #[default]
    F32,
    /// Symmetric per-tensor int8 weights with dynamic per-lane activation
    /// quantization.
    Int8,
}

impl GuidancePrecision {
    /// Stable lower-case name used in reports and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            GuidancePrecision::F32 => "f32",
            GuidancePrecision::Int8 => "int8",
        }
    }
}

/// Configuration shared by both models and the buffer manager.
#[derive(Debug, Clone, PartialEq)]
pub struct RecMgConfig {
    /// Input-sequence (chunk) length.
    pub input_len: usize,
    /// Prefetch-model output-sequence length `|PO|`.
    pub output_len: usize,
    /// Evaluation-window multiplier: `|W| = window_ratio × output_len`.
    pub window_ratio: usize,
    /// Chamfer loss weighting α (Eq. 5).
    pub alpha: f32,
    /// The `eviction_speed` constant of Algorithms 1–2.
    pub eviction_speed: u64,
    /// Hash vocabulary of the model input tokens.
    pub vocab: usize,
    /// Token-embedding dimensionality.
    pub embed_dim: usize,
    /// Caching-model hidden size.
    pub caching_hidden: usize,
    /// Caching-model LSTM stack count (paper default 1).
    pub caching_stacks: usize,
    /// Prefetch-model hidden size.
    pub prefetch_hidden: usize,
    /// Prefetch-model LSTM stack count (paper default 2).
    pub prefetch_stacks: usize,
    /// Adam learning rate for both models.
    pub lr: f32,
    /// OPTgen labeling runs at this fraction of the GPU buffer ("80% of
    /// the GPU buffer capacity to ensure sufficient space for placing
    /// prefetched embedding vectors", §VI-A).
    pub optgen_buffer_fraction: f64,
    /// Initialisation seed.
    pub seed: u64,
}

impl Default for RecMgConfig {
    fn default() -> Self {
        RecMgConfig {
            input_len: 15,
            output_len: 5,
            window_ratio: 3,
            alpha: 0.7,
            eviction_speed: 4,
            vocab: 2048,
            embed_dim: 12,
            caching_hidden: 32,
            caching_stacks: 1,
            prefetch_hidden: 40,
            prefetch_stacks: 2,
            lr: 2e-3,
            optgen_buffer_fraction: 0.8,
            seed: 0x9EC,
        }
    }
}

impl RecMgConfig {
    /// The evaluation-window length `|W|`.
    pub fn window_len(&self) -> usize {
        self.window_ratio * self.output_len
    }

    /// A scaled-down configuration for unit tests (short sequences, tiny
    /// models).
    pub fn tiny() -> Self {
        RecMgConfig {
            input_len: 8,
            output_len: 3,
            window_ratio: 3,
            vocab: 128,
            embed_dim: 12,
            caching_hidden: 12,
            prefetch_hidden: 12,
            lr: 5e-3,
            ..Self::default()
        }
    }

    /// Validates invariant relationships.
    ///
    /// # Panics
    ///
    /// Panics if any length is zero, `alpha` is outside `(0, 1)`, or the
    /// OPTgen fraction is outside `(0, 1]`.
    pub fn validate(&self) {
        assert!(self.input_len > 0, "input_len must be positive");
        assert!(self.output_len > 0, "output_len must be positive");
        assert!(self.window_ratio > 0, "window_ratio must be positive");
        assert!(
            self.alpha > 0.0 && self.alpha < 1.0,
            "alpha must be in (0, 1)"
        );
        assert!(
            self.optgen_buffer_fraction > 0.0 && self.optgen_buffer_fraction <= 1.0,
            "optgen fraction must be in (0, 1]"
        );
        assert!(self.caching_stacks > 0, "caching model needs a stack");
        assert!(self.prefetch_stacks > 0, "prefetch model needs a stack");
    }
}

/// Access-cost model of one memory tier, in nanoseconds per buffer event.
///
/// The costs parameterize the hit/miss/prefetch-fill accounting of
/// [`crate::RecMgBuffer`]: a buffer placed in a tier charges `hit_ns` per
/// resident access, `miss_ns` per on-demand fetch into the tier, and
/// `fill_ns` per speculative (prefetch) fill. The accumulated
/// hit-weighted cost is what [`crate::PlacementPolicy`] implementations
/// compete on — RecShard-style placement wins exactly when it moves access
/// mass onto cheaper tiers.
///
/// Costs come from one of two places, explicit at every call site:
///
/// * **Synthetic** — [`TierCost::synthetic`] injects deterministic
///   numbers (tests, repeatable benches).
/// * **Calibrated** — tiers marked
///   [`MemoryTier::calibrated`](crate::MemoryTier::calibrated) get their
///   numbers *measured* against their storage backend at
///   [`SystemBuilder::build`](crate::SystemBuilder::build)
///   ([`crate::backend::calibrate`]), reported via
///   [`CalibrationReport`](crate::CalibrationReport).
///
/// Either way the costs are pure accounting: serving multiplies event
/// counts by them and never waits on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierCost {
    /// Cost of serving one resident access from this tier.
    pub hit_ns: u64,
    /// Cost of one on-demand fetch into this tier.
    pub miss_ns: u64,
    /// Cost of one speculative (prefetch) fill into this tier.
    pub fill_ns: u64,
}

impl TierCost {
    /// All-zero cost: pure counting, no latency model. The implicit tier
    /// of pre-topology buffers.
    pub const FREE: TierCost = TierCost::synthetic(0, 0, 0);

    /// Local-DRAM-like tier: fast access, on-demand fetches dominated by
    /// the host-side copy.
    pub fn dram() -> Self {
        TierCost::synthetic(80, 900, 300)
    }

    /// CXL-/far-NUMA-like slow tier: ~4× the load latency of local DRAM
    /// and costlier fills (the regime of the Software-Defined-Memory
    /// measurements).
    pub fn cxl_like() -> Self {
        TierCost::synthetic(350, 1800, 900)
    }

    /// Explicitly injected (made-up) costs — the deterministic model for
    /// tests and repeatable benches, as opposed to the measured numbers a
    /// calibrated tier gets at build.
    pub const fn synthetic(hit_ns: u64, miss_ns: u64, fill_ns: u64) -> Self {
        TierCost {
            hit_ns,
            miss_ns,
            fill_ns,
        }
    }
}

impl Default for TierCost {
    fn default() -> Self {
        TierCost::FREE
    }
}

/// Shape of the working-set sketches every [`crate::RecMgBuffer`] keeps on
/// its demand path ([`crate::sketch`]): HyperLogLog register count, the
/// exact-mode threshold, and the sliding epoch window.
///
/// The defaults size the sketch for serving buffers: 256 registers
/// (~6.5% standard error, 256 bytes per epoch sketch), exact counting up
/// to 64 distinct keys (toy/test buffers pay zero estimation error), and
/// a four-epoch window of 1024 demand accesses each — long enough to
/// smooth per-batch noise, short enough that a skew flip dominates the
/// window within a few thousand accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchConfig {
    /// HyperLogLog registers `m` (power of two in `[16, 65536]`); the
    /// relative standard error is `1.04/√m`.
    pub registers: usize,
    /// Distinct-key count up to which the sketch counts exactly before
    /// upgrading to HLL registers.
    pub exact_threshold: usize,
    /// Demand accesses per epoch (epoch boundaries are access-counted,
    /// never wall-clock, so sketch behaviour is deterministic).
    pub epoch_len: u64,
    /// Epochs in the sliding window (current epoch included).
    pub window_epochs: usize,
}

impl Default for SketchConfig {
    fn default() -> Self {
        SketchConfig {
            registers: 256,
            exact_threshold: 64,
            epoch_len: 1024,
            window_epochs: 4,
        }
    }
}

impl SketchConfig {
    /// A small configuration for unit tests: short epochs so phase changes
    /// surface after tens of accesses instead of thousands.
    pub fn tiny() -> Self {
        SketchConfig {
            epoch_len: 64,
            ..Self::default()
        }
    }

    /// Sketch preset for DLRM-scale footprints: 4096 registers (~1.6%
    /// standard error, `1.04/√4096`, at 4 KiB per sketch) and a 256-key
    /// exact threshold. The default 256-register shape is sized for serving
    /// buffers with hundreds of distinct keys; per-table footprint profiles
    /// ([`crate::TableProfile`]) see millions of unique rows, where the
    /// default's ~6.5% error would blur the pin-threshold decision between
    /// adjacent table sizes. This is the preset
    /// [`crate::TableProfiler`] selects automatically.
    pub fn high_cardinality() -> Self {
        SketchConfig {
            registers: 4096,
            exact_threshold: 256,
            ..Self::default()
        }
    }

    /// Validates invariant relationships.
    ///
    /// # Panics
    ///
    /// Panics if `registers` is not a power of two in `[16, 65536]`, or a
    /// window/epoch dimension is zero.
    pub fn validate(&self) {
        assert!(
            self.registers.is_power_of_two() && (16..=65536).contains(&self.registers),
            "registers must be a power of two in [16, 65536]"
        );
        assert!(self.epoch_len > 0, "epoch_len must be positive");
        assert!(self.window_epochs > 0, "window_epochs must be positive");
    }
}

/// Admission control for a [`crate::session::ServingSession`]'s request
/// queue: how many requests may wait, and what happens to requests whose
/// deadline cannot be met.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Maximum requests waiting in the queue (not yet picked up by a
    /// worker); a submit beyond this depth is rejected (load shedding).
    pub queue_depth: usize,
    /// Reject a request at submission when its deadline is already blown.
    pub reject_blown: bool,
    /// Shed a queued request at dequeue when its deadline expired while it
    /// waited (serving it would only burn capacity on a guaranteed miss).
    pub shed_blown: bool,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            queue_depth: 1024,
            reject_blown: true,
            shed_blown: true,
        }
    }
}

impl AdmissionPolicy {
    /// No admission control at all: unbounded queue, nothing rejected or
    /// shed. This is the policy behind the batch-mode
    /// [`ShardedRecMgSystem::serve`](crate::ShardedRecMgSystem::serve)
    /// wrapper, which must serve every submitted batch.
    pub fn unbounded() -> Self {
        AdmissionPolicy {
            queue_depth: usize::MAX,
            reject_blown: false,
            shed_blown: false,
        }
    }
}

/// How far a request may be degraded to protect latency.
///
/// Ordered by severity: [`DegradeLevel::SkipAhead`] drops fresh model
/// guidance for the request's chunks (they run on stale buffer priorities,
/// the paper's §VI-C skip-ahead rule — saves the CPU model forwards);
/// [`DegradeLevel::PrefetchOff`] additionally stops applying prefetch
/// predictions (saves tier bandwidth and buffer slots on top).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum DegradeLevel {
    /// Full guidance: caching bits and prefetches as configured.
    #[default]
    None,
    /// Skip fresh guidance for this request (stale bits, no new model
    /// work); already-computed background guidance still applies.
    SkipAhead,
    /// [`DegradeLevel::SkipAhead`] plus prefetch application suppressed.
    PrefetchOff,
}

/// Per-request latency budget with pressure thresholds.
///
/// Workers compare each request's queueing delay against `target`: at
/// `skip_ahead_at × target` the request is served with
/// [`DegradeLevel::SkipAhead`], at `prefetch_off_at × target` with
/// [`DegradeLevel::PrefetchOff`]. The session reports how many requests
/// met the budget and how many ran degraded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaBudget {
    /// Target end-to-end (arrival → completion) latency.
    pub target: Duration,
    /// Queue-wait fraction of `target` that triggers skip-ahead.
    pub skip_ahead_at: f64,
    /// Queue-wait fraction of `target` that additionally turns prefetch
    /// application off. Must be at least `skip_ahead_at`.
    pub prefetch_off_at: f64,
}

impl SlaBudget {
    /// A budget with the default pressure thresholds: skip-ahead at half
    /// the budget spent queueing, prefetch-off once the whole budget is
    /// gone.
    pub fn new(target: Duration) -> Self {
        SlaBudget {
            target,
            skip_ahead_at: 0.5,
            prefetch_off_at: 1.0,
        }
    }

    /// Validates the thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `target` is zero, a threshold is negative or non-finite,
    /// or `prefetch_off_at < skip_ahead_at`.
    pub fn validate(&self) {
        assert!(!self.target.is_zero(), "SLA target must be positive");
        assert!(
            self.skip_ahead_at >= 0.0 && self.skip_ahead_at.is_finite(),
            "skip_ahead_at must be non-negative and finite"
        );
        assert!(
            self.prefetch_off_at >= self.skip_ahead_at && self.prefetch_off_at.is_finite(),
            "prefetch_off_at must be finite and at least skip_ahead_at"
        );
    }

    /// The degradation level for a request that waited `queue_wait` before
    /// a worker picked it up.
    pub fn level(&self, queue_wait: Duration) -> DegradeLevel {
        let budget = self.target.as_secs_f64();
        let wait = queue_wait.as_secs_f64();
        if wait >= budget * self.prefetch_off_at {
            DegradeLevel::PrefetchOff
        } else if wait >= budget * self.skip_ahead_at {
            DegradeLevel::SkipAhead
        } else {
            DegradeLevel::None
        }
    }
}

/// One tenant of a multi-tenant [`crate::session::ServingSession`]
/// ([`SessionBuilder::tenants`](crate::SessionBuilder::tenants)).
///
/// A tenant owns a dequeue weight (workers pick the nonempty tenant queue
/// with the smallest served/weight ratio, so capacity divides in weight
/// proportion under contention), an optional per-tenant [`SlaBudget`]
/// overriding the session-wide one, and an optional queue quota capping
/// how much of the shared queue depth the tenant's burst may occupy.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name, echoed in its [`crate::session::TenantReport`].
    pub name: String,
    /// Weighted-fair dequeue share; must be positive and finite.
    pub weight: f64,
    /// Per-tenant latency budget; `None` inherits the session SLA.
    pub sla: Option<SlaBudget>,
    /// Maximum requests this tenant may have waiting in the queue; a
    /// submit beyond the quota is rejected as
    /// [`Rejection::QueueFull`](crate::Rejection::QueueFull) even when
    /// the global [`AdmissionPolicy::queue_depth`] has room. `None`
    /// leaves the tenant bounded only by the global depth.
    pub queue_quota: Option<usize>,
}

impl TenantSpec {
    /// A tenant with weight 1, no private SLA, and no quota.
    pub fn new(name: &str) -> Self {
        TenantSpec {
            name: name.to_string(),
            weight: 1.0,
            sla: None,
            queue_quota: None,
        }
    }

    /// Sets the weighted-fair dequeue share.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Sets a per-tenant latency budget overriding the session SLA.
    pub fn with_sla(mut self, sla: SlaBudget) -> Self {
        self.sla = Some(sla);
        self
    }

    /// Caps this tenant's share of the request queue.
    pub fn with_quota(mut self, quota: usize) -> Self {
        self.queue_quota = Some(quota);
        self
    }

    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty, the weight is not positive and
    /// finite, or the tenant SLA is invalid.
    pub fn validate(&self) {
        assert!(!self.name.is_empty(), "tenant name must be non-empty");
        assert!(
            self.weight > 0.0 && self.weight.is_finite(),
            "tenant weight must be positive and finite"
        );
        if let Some(sla) = &self.sla {
            sla.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RecMgConfig::default();
        assert_eq!(c.input_len, 15);
        assert_eq!(c.output_len, 5);
        assert_eq!(c.window_len(), 15);
        assert_eq!(c.eviction_speed, 4);
        assert_eq!(c.caching_stacks, 1);
        assert_eq!(c.prefetch_stacks, 2);
        assert!((c.alpha - 0.7).abs() < 1e-6);
        c.validate();
    }

    #[test]
    fn tiny_is_valid() {
        RecMgConfig::tiny().validate();
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1)")]
    fn bad_alpha_rejected() {
        let c = RecMgConfig {
            alpha: 1.5,
            ..RecMgConfig::default()
        };
        c.validate();
    }

    #[test]
    fn sla_levels_escalate_with_wait() {
        let sla = SlaBudget::new(Duration::from_millis(10));
        sla.validate();
        assert_eq!(sla.level(Duration::ZERO), DegradeLevel::None);
        assert_eq!(sla.level(Duration::from_millis(4)), DegradeLevel::None);
        assert_eq!(sla.level(Duration::from_millis(5)), DegradeLevel::SkipAhead);
        assert_eq!(
            sla.level(Duration::from_millis(10)),
            DegradeLevel::PrefetchOff
        );
        assert!(DegradeLevel::None < DegradeLevel::SkipAhead);
        assert!(DegradeLevel::SkipAhead < DegradeLevel::PrefetchOff);
    }

    #[test]
    #[should_panic(expected = "prefetch_off_at must be finite")]
    fn sla_thresholds_must_order() {
        let sla = SlaBudget {
            target: Duration::from_millis(1),
            skip_ahead_at: 0.9,
            prefetch_off_at: 0.5,
        };
        sla.validate();
    }

    #[test]
    fn high_cardinality_sketch_preset_is_valid_and_tighter() {
        let hc = SketchConfig::high_cardinality();
        hc.validate();
        let def = SketchConfig::default();
        assert!(hc.registers > def.registers);
        assert!(hc.exact_threshold > def.exact_threshold);
        // σ = 1.04/√m: the preset's documented ~1.6% error.
        let sigma = 1.04 / (hc.registers as f64).sqrt();
        assert!(sigma < 0.017, "expected ~1.6% error, got {sigma}");
    }

    #[test]
    fn tier_cost_presets_order_sensibly() {
        let dram = TierCost::dram();
        let cxl = TierCost::cxl_like();
        assert!(dram.hit_ns < cxl.hit_ns);
        assert!(dram.miss_ns < cxl.miss_ns);
        assert!(dram.fill_ns < cxl.fill_ns);
        assert_eq!(TierCost::default(), TierCost::FREE);
        let synth = TierCost::synthetic(10, 100, 40);
        assert_eq!((synth.hit_ns, synth.miss_ns, synth.fill_ns), (10, 100, 40));
    }

    #[test]
    fn unbounded_admission_never_rejects() {
        let p = AdmissionPolicy::unbounded();
        assert_eq!(p.queue_depth, usize::MAX);
        assert!(!p.reject_blown);
        assert!(!p.shed_blown);
        let d = AdmissionPolicy::default();
        assert!(d.queue_depth > 0);
        assert!(d.reject_blown && d.shed_blown);
    }
}
