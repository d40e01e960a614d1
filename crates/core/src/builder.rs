//! Fluent construction of tier-aware sharded systems.
//!
//! [`SystemBuilder`] is the one construction path for
//! [`ShardedRecMgSystem`]s: the memory hierarchy ([`TierTopology`]), the
//! shard placement ([`PlacementPolicy`]), and the default guidance
//! scheduling ([`GuidanceMode`]) are explicit, named, and individually
//! defaultable.
//!
//! ```
//! use recmg_core::{
//!     CachingModel, FrequencyRankCodec, HotFirst, RecMgConfig, SystemBuilder, TierTopology,
//! };
//! use recmg_trace::{RowId, TableId, VectorKey};
//!
//! let cfg = RecMgConfig::tiny();
//! let caching = CachingModel::new(&cfg);
//! let codec =
//!     FrequencyRankCodec::from_accesses(&[VectorKey::new(TableId(0), RowId(1))]);
//! let system = SystemBuilder::new(&caching, None, codec)
//!     .shards(4)
//!     .topology(TierTopology::two_tier(32, 96))
//!     .placement(HotFirst)
//!     .build();
//! assert_eq!(system.num_shards(), 4);
//! assert_eq!(system.capacity(), 128);
//! ```

use std::sync::{Arc, Mutex};

use crate::backend::{FillHandle, FillMode, FillQueue};
use crate::caching_model::CachingModel;
use crate::codec::FrequencyRankCodec;
use crate::config::{GuidancePrecision, SketchConfig};
use crate::engine::GuidanceMode;
use crate::prefetch_model::PrefetchModel;
use crate::sharding::{GuidanceCtx, Shard, ShardRouter, ShardedRecMgSystem};
use crate::system::{RecMgSystem, TrainedRecMg};
use crate::tier::{EvenSplit, PlacementPolicy, TierTopology};

/// Configures and assembles a [`ShardedRecMgSystem`] over an explicit
/// memory hierarchy.
///
/// Defaults: 1 shard, [`EvenSplit`] placement, the default
/// [`GuidanceMode`]. The topology is mandatory — set it with
/// [`topology`](SystemBuilder::topology), or use
/// [`capacity`](SystemBuilder::capacity) for the historical single-tier
/// layout.
#[derive(Debug)]
pub struct SystemBuilder<'a> {
    caching: &'a CachingModel,
    prefetch: Option<&'a PrefetchModel>,
    codec: FrequencyRankCodec,
    shards: usize,
    topology: Option<TierTopology>,
    placement: Arc<dyn PlacementPolicy>,
    guidance: GuidanceMode,
    sketch: SketchConfig,
    precision: GuidancePrecision,
    fill: FillMode,
}

impl<'a> SystemBuilder<'a> {
    /// Starts a builder from trained (or untrained) model parts. Pass
    /// `prefetch: None` for the caching-model-only configuration.
    pub fn new(
        caching: &'a CachingModel,
        prefetch: Option<&'a PrefetchModel>,
        codec: FrequencyRankCodec,
    ) -> Self {
        SystemBuilder {
            caching,
            prefetch,
            codec,
            shards: 1,
            topology: None,
            placement: Arc::new(EvenSplit),
            guidance: GuidanceMode::default(),
            sketch: SketchConfig::default(),
            precision: GuidancePrecision::default(),
            fill: FillMode::default(),
        }
    }

    /// Starts a builder from full training artifacts.
    pub fn from_trained(trained: &'a TrainedRecMg) -> Self {
        Self::new(
            &trained.caching,
            Some(&trained.prefetch),
            trained.codec.clone(),
        )
    }

    /// Number of shards (default 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The memory hierarchy the system is placed onto.
    pub fn topology(mut self, topology: TierTopology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Shorthand for the historical flat layout:
    /// `.topology(TierTopology::uniform(capacity))`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn capacity(self, capacity: usize) -> Self {
        self.topology(TierTopology::uniform(capacity))
    }

    /// The placement policy sizing shard buffers and routing them to
    /// tiers (default [`EvenSplit`]). The policy stays with the system:
    /// [`ShardedRecMgSystem::rebalance`] re-applies it against live
    /// per-shard stats.
    pub fn placement(mut self, placement: impl PlacementPolicy + 'static) -> Self {
        self.placement = Arc::new(placement);
        self
    }

    /// Default guidance scheduling for sessions built over this system
    /// (a [`SessionBuilder`](crate::SessionBuilder) without an explicit
    /// guidance mode inherits it).
    pub fn guidance(mut self, guidance: GuidanceMode) -> Self {
        self.guidance = guidance;
        self
    }

    /// The configured default guidance mode.
    pub fn guidance_mode(&self) -> GuidanceMode {
        self.guidance
    }

    /// Weight precision of the compiled guidance models (default
    /// [`GuidancePrecision::F32`]). [`GuidancePrecision::Int8`] quantizes
    /// every weight matrix at build time — §VI-C's quantization
    /// optimization — shrinking guidance weight traffic ~4× at a bounded
    /// hit-rate delta.
    pub fn precision(mut self, precision: GuidancePrecision) -> Self {
        self.precision = precision;
        self
    }

    /// The configured guidance-model precision.
    pub fn guidance_precision(&self) -> GuidancePrecision {
        self.precision
    }

    /// How slow-tier misses are filled (default [`FillMode::Blocking`]).
    /// [`FillMode::Async`] routes every miss through a bounded,
    /// coalescing queue drained by background fill threads (spawned by
    /// the serving session): the miss itself pays only the slow-read
    /// cost, and the install cost lands later when the fill promotes.
    pub fn fill_mode(mut self, fill: FillMode) -> Self {
        self.fill = fill;
        self
    }

    /// The configured fill mode.
    pub fn fill(&self) -> FillMode {
        self.fill
    }

    /// Shape of the per-shard working-set sketches (default
    /// [`SketchConfig::default`]): HLL register count, exact-mode
    /// threshold, and the sliding epoch window the phase-change trigger
    /// reads. Validated at build.
    pub fn sketch(mut self, sketch: SketchConfig) -> Self {
        self.sketch = sketch;
        self
    }

    /// Assembles the system: the placement policy runs once with no
    /// observed mass (its deterministic cold-start placement), and each
    /// shard's buffer is created in its assigned tier with that tier's
    /// cost model.
    ///
    /// # Panics
    ///
    /// Panics if no topology was set, `shards` is zero, or the sketch
    /// configuration is invalid.
    pub fn build(self) -> ShardedRecMgSystem {
        let mut topology = self
            .topology
            .expect("SystemBuilder needs a topology: call .topology(..) or .capacity(..)");
        self.sketch.validate();
        // Bind-time calibration: probe every tier marked `.calibrated()`
        // against its real backend and overwrite the injected cost with
        // measured numbers BEFORE placement runs, so policies compare
        // tiers by what the hardware actually does.
        let calibration = topology.calibrate();
        // A table-aware policy (table_capacity > 0) gets a pin-capable
        // router plus a per-shard demand profiler; every other policy pays
        // nothing — no pin directory, no profiling on the demand path.
        let table_capacity = self.placement.table_capacity();
        let router = ShardRouter::with_pin_capacity(self.shards, table_capacity);
        let cfg = self.caching.config().clone();
        let placements = self.placement.place(self.shards, &topology, &[]);
        assert_eq!(
            placements.len(),
            self.shards,
            "placement policy must return one placement per shard"
        );
        let topology = Arc::new(topology);
        let fill_queue = match self.fill {
            FillMode::Async { queue_depth, .. } => Some(Arc::new(FillQueue::new(queue_depth))),
            FillMode::Blocking => None,
        };
        let shards: Vec<Shard> = placements
            .iter()
            .enumerate()
            .map(|(id, p)| {
                let mut shard = Shard::placed(id, cfg.eviction_speed, p, &topology, self.sketch);
                if table_capacity > 0 {
                    shard.profiler = Some(crate::table_profile::TableProfiler::new(table_capacity));
                }
                if let Some(queue) = &fill_queue {
                    shard.buffer.set_fill_handle(Some(FillHandle {
                        queue: Arc::clone(queue),
                        shard: id,
                    }));
                }
                shard
            })
            .collect();
        ShardedRecMgSystem {
            ctx: GuidanceCtx {
                caching: Arc::new(self.caching.compile_with(self.precision)),
                prefetch: self
                    .prefetch
                    .map(|p| Arc::new(p.compile_with(self.precision))),
                codec: Arc::new(self.codec),
                prefetch_warmup: RecMgSystem::PREFETCH_WARMUP.div_ceil(self.shards as u64),
                cfg,
                guidance_stride: 1,
                prefetch_gate: 0.10,
                topology,
                placement: self.placement,
                guidance_default: self.guidance,
                calibration: Arc::new(calibration),
                fill_mode: self.fill,
                fill_queue,
            },
            router,
            shards: shards.into_iter().map(Mutex::new).collect(),
            runtime: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RecMgConfig;
    use crate::tier::{HotFirst, WorkingSet};
    use recmg_trace::{RowId, TableId, VectorKey};

    fn parts() -> (CachingModel, PrefetchModel, FrequencyRankCodec) {
        let cfg = RecMgConfig::tiny();
        (
            CachingModel::new(&cfg),
            PrefetchModel::new(&cfg),
            FrequencyRankCodec::from_accesses(&[VectorKey::new(TableId(0), RowId(1))]),
        )
    }

    #[test]
    fn builder_defaults_reproduce_historical_layout() {
        let (cm, pm, codec) = parts();
        let sys = SystemBuilder::new(&cm, Some(&pm), codec)
            .shards(4)
            .capacity(10)
            .build();
        assert_eq!(sys.num_shards(), 4);
        // ceil(10/4) = 3 per shard, all in the single DRAM tier.
        assert_eq!(sys.capacity(), 12);
        for i in 0..4 {
            assert_eq!(sys.shard_buffer(i).capacity(), 3);
            assert_eq!(sys.shard_tier(i), 0);
        }
        assert_eq!(sys.topology().num_tiers(), 1);
        assert!(sys.has_prefetch());
    }

    #[test]
    fn builder_places_across_tiers() {
        let (cm, _pm, codec) = parts();
        let sys = SystemBuilder::new(&cm, None, codec)
            .shards(4)
            .topology(TierTopology::two_tier(16, 48))
            .placement(HotFirst)
            .build();
        // Cold start: even 16-vector shards, shard 0 in the fast tier.
        assert_eq!(sys.shard_tier(0), 0);
        for i in 1..4 {
            assert_eq!(sys.shard_tier(i), 1);
        }
        let usage = sys.tier_usage();
        assert_eq!(usage.len(), 2);
        assert_eq!(usage[0].shards, 1);
        assert_eq!(usage[1].shards, 3);
        assert_eq!(usage[0].capacity + usage[1].capacity, sys.capacity());
    }

    #[test]
    fn builder_threads_guidance_default() {
        let (cm, _pm, codec) = parts();
        let b = SystemBuilder::new(&cm, None, codec)
            .capacity(8)
            .guidance(GuidanceMode::Inline);
        assert_eq!(b.guidance_mode(), GuidanceMode::Inline);
        let sys = b.build();
        assert_eq!(sys.default_guidance(), GuidanceMode::Inline);
    }

    #[test]
    fn builder_keeps_placement_for_rebalance() {
        let (cm, _pm, codec) = parts();
        let sys = SystemBuilder::new(&cm, None, codec)
            .shards(2)
            .capacity(64)
            .placement(WorkingSet::default())
            .build();
        assert_eq!(sys.placement_name(), "working_set");
    }

    #[test]
    fn builder_enables_profiling_only_for_table_aware_placement() {
        let (cm, _pm, codec) = parts();
        let sys = SystemBuilder::new(&cm, None, codec)
            .shards(4)
            .topology(TierTopology::two_tier(64, 64))
            .placement(crate::table_profile::StatisticalPlacement::default())
            .build();
        assert_eq!(sys.placement_name(), "statistical");
        assert!(sys.router().pin_capacity() > 0);
        // Nothing observed yet → no profiles, no pins.
        assert!(sys.table_profiles().is_empty());
        let (cm2, _pm2, codec2) = parts();
        let plain = SystemBuilder::new(&cm2, None, codec2)
            .shards(4)
            .capacity(64)
            .build();
        assert_eq!(plain.router().pin_capacity(), 0);
        assert!(plain.table_profiles().is_empty());
    }

    #[test]
    #[should_panic(expected = "needs a topology")]
    fn builder_without_topology_panics() {
        let (cm, _pm, codec) = parts();
        let _ = SystemBuilder::new(&cm, None, codec).shards(2).build();
    }

    #[test]
    fn builder_calibrates_marked_tiers_before_placement() {
        let (cm, _pm, codec) = parts();
        let sys = SystemBuilder::new(&cm, None, codec)
            .shards(2)
            .topology(TierTopology::sdm_ladder(16, 32, 64))
            .build();
        let report = sys.calibration_report();
        assert_eq!(report.tiers.len(), 3);
        for cal in &report.tiers {
            assert!(cal.hit_ns > 0 && cal.fill_ns > 0);
            assert!(cal.miss_ns >= cal.hit_ns.max(cal.fill_ns));
        }
        // The measured costs are the live tier costs placement saw.
        for (i, cal) in report.tiers.iter().enumerate() {
            assert_eq!(sys.topology().tier(i).cost, cal.cost());
            assert!(!sys.topology().tier(i).calibrate, "flag must clear");
        }
    }

    #[test]
    fn builder_wires_async_fill_queue_to_every_shard() {
        use crate::backend::FillMode;
        let (cm, _pm, codec) = parts();
        let sys = SystemBuilder::new(&cm, None, codec)
            .shards(3)
            .capacity(12)
            .fill_mode(FillMode::Async {
                threads: 1,
                queue_depth: 8,
            })
            .build();
        assert!(matches!(sys.fill_mode(), FillMode::Async { .. }));
        for i in 0..3 {
            assert!(sys.shard_recmg_buffer(i).has_fill_handle());
        }
        let blocking = {
            let (cm2, _pm2, codec2) = parts();
            SystemBuilder::new(&cm2, None, codec2).capacity(8).build()
        };
        assert!(matches!(blocking.fill_mode(), FillMode::Blocking));
        assert!(!blocking.shard_recmg_buffer(0).has_fill_handle());
    }

    #[test]
    fn builder_threads_precision_into_compiled_models() {
        let (cm, pm, codec) = parts();
        let b = SystemBuilder::new(&cm, Some(&pm), codec).capacity(8);
        assert_eq!(b.guidance_precision(), GuidancePrecision::F32);
        let sys = b.precision(GuidancePrecision::Int8).build();
        assert!(sys.guidance_models_quantized());
    }
}
