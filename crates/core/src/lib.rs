//! # recmg-core
//!
//! RecMG: machine-learning-guided caching and prefetching of DLRM embedding
//! vectors on tiered memory — the primary contribution of "Machine
//! Learning-Guided Memory Optimization for DLRM Inference on Tiered Memory"
//! (HPCA 2025), reproduced in Rust.
//!
//! The system (paper Fig. 4):
//!
//! 1. **Offline** ([`labeling`], [`train_recmg`]): DLRM access traces are
//!    labeled by OPTgen (Belady-optimal decisions); the caching trace
//!    trains the [`CachingModel`], and the OPT-miss subsequence trains the
//!    [`PrefetchModel`] under the symmetric Chamfer loss (Eq. 5) with a
//!    decoupled evaluation window.
//! 2. **Online** ([`RecMgSystem`]): the GPU buffer is co-managed by both
//!    models via Algorithms 1–2 ([`RecMgBuffer`]): the caching model emits
//!    a 1-bit priority per accessed vector, the prefetch model fetches
//!    predicted vectors, and eviction decays priorities and removes the
//!    minimum.
//! 3. **Serving** ([`serving`], [`FastCachingModel`],
//!    [`FastPrefetchModel`]): compiled, tape-free model snapshots run on
//!    CPU threads with near-linear scaling (Fig. 7).
//! 4. **Scale-out** ([`ShardedRecMgSystem`]): the buffer is partitioned
//!    into hash-routed shards, each serving its home keys through one
//!    demand loop (`Shard::serve`) that cuts every completed chunk and
//!    decides its fate: Algorithm 1 inline, an offer to the non-blocking
//!    background guidance plane (the private `plane` module — the paper's
//!    §VI-C skip-ahead rule), or stale priorities. One shard reproduces
//!    [`RecMgSystem`] exactly; [`engine`] keeps the batch-shaped
//!    `serve()` entry point and the run report.
//! 5. **Streaming** ([`session`]): a [`RequestSource`] (batches, Poisson /
//!    uniform / Markov-modulated synthetic arrivals, trace replay, or a
//!    closed loop over any of them) feeds a [`ServingSession`] — bounded
//!    weighted-fair tenant queues, admission control, worker threads over
//!    the shards, per-request latency percentiles, and SLA-pressure
//!    degradation (skip-ahead first, then prefetch-off). The batch
//!    `serve()` above is a thin wrapper over a batch-backed session.
//! 6. **Tiered memory** ([`tier`], [`SystemBuilder`]): systems are built
//!    against an explicit [`TierTopology`] (fast → slow [`MemoryTier`]s
//!    with access-cost models); a [`PlacementPolicy`] ([`EvenSplit`],
//!    RecShard-style [`WorkingSet`], [`HotFirst`]) sizes per-shard buffer
//!    shares and routes them to tiers, a [`Rebalancer`] re-places live
//!    systems from observed per-shard mass, and per-tier occupancy /
//!    traffic / hit-weighted cost surfaces in every report.
//! 7. **Working-set sketches** ([`sketch`]): every shard buffer keeps an
//!    allocation-light HyperLogLog working-set tracker on its demand path
//!    (windowed epochs, exact small-set mode), reporting a unique-key
//!    footprint alongside its tier traffic; [`CardinalityWorkingSet`]
//!    apportions capacity by that sketched footprint instead of miss
//!    mass, and the [`Rebalancer`]'s phase-change trigger re-places a
//!    live system within one sketch epoch of a skew flip (placement runs
//!    on per-epoch traffic deltas, never cumulative history).
//! 8. **Live migration** ([`migrate`]): sessions built with
//!    [`SessionBuilder::live`] re-place shards without a drain — a
//!    background rebalancer runs the quiescent planner and makes the
//!    quiescent shard move under the shard mutex, which is the whole
//!    fence between a move and the requests around it, and a
//!    sketch-driven [`ReplicationPolicy`] gives read-hot slow-tier shards
//!    fast-tier replicas whose entries decay on a route-epoch clock.
//! 9. **Statistical per-table placement** ([`table_profile`]): a
//!    [`TableProfiler`] on the demand path builds per-table
//!    [`TableProfile`]s (size, demand share, fitted power-law skew,
//!    high-cardinality-sketched unique-row footprint);
//!    [`StatisticalPlacement`] pins tiny tables whole in the fastest
//!    tier — direct-routed, eviction-exempt, floors and tier-fill order
//!    pin-adjusted — and splits big skewed tables at the closed-form
//!    [`hot_boundary`] so only the hot prefix earns buffer capacity.
//!    [`TableArraySpec`] generates the heterogeneous libai-style
//!    table-size-array workloads this placement is built for.
//! 10. **Software-defined memory** ([`backend`]): every buffer's row
//!     bytes live on a real storage backend behind the [`TierBackend`]
//!     trait — heap ([`DramBackend`]), an `mmap`'d temp file, or a
//!     `pread`/`pwrite` file — so [`TierTopology::sdm_ladder`] builds a
//!     three-rung DRAM → mapped-file → file stack whose costs are
//!     *measured* by a bind-time calibration probe
//!     ([`CalibrationReport`]) instead of injected, and an async fill
//!     plane ([`FillMode::Async`]) turns slow-tier misses into queued,
//!     coalesced background fills that promote when they land.
//!
//! # Examples
//!
//! Train RecMG on a trace prefix and serve the rest:
//!
//! ```
//! use recmg_core::{train_recmg, RecMgConfig, RecMgSystem, TrainOptions};
//! use recmg_dlrm::{BatchAccessStats, BufferManager};
//! use recmg_trace::{SyntheticConfig, TraceStats};
//!
//! let cfg = RecMgConfig::tiny();
//! let trace = SyntheticConfig::tiny(1).generate();
//! let capacity = TraceStats::compute(&trace).buffer_capacity(20.0);
//! let trained = train_recmg(&trace.accesses()[..2000], &cfg, capacity, &TrainOptions::tiny());
//! let mut system = RecMgSystem::from_trained(&trained, capacity);
//! let mut stats = BatchAccessStats::default();
//! for batch in trace.batches(20) {
//!     stats.accumulate(system.process_batch(batch));
//! }
//! assert!(stats.hits() > 0);
//! ```

mod arrival;
pub mod backend;
mod buffer_mgmt;
mod builder;
mod caching_model;
mod codec;
mod config;
pub mod engine;
mod fast;
pub mod json;
pub mod labeling;
pub mod migrate;
mod plane;
mod prefetch_model;
mod report;
pub mod serving;
pub mod session;
mod sharding;
pub mod sketch;
mod source;
mod system;
pub mod table_profile;
pub mod tier;
pub mod trace;

#[cfg(unix)]
pub use backend::FileBackend;
#[cfg(recmg_mmap)]
pub use backend::MappedFileBackend;
pub use backend::{
    calibrate, live_backend_files, synth_row, BackendAdvice, BackendSpec, CalibrationReport,
    DramBackend, FillMode, FillPlaneReport, TierBackend, TierCalibration, ROW_BYTES,
};
pub use buffer_mgmt::{RecMgBuffer, TierTraffic};
pub use builder::SystemBuilder;
pub use caching_model::{CachingModel, FastCachingModel, TrainingReport};
pub use codec::{FrequencyRankCodec, GlobalIdCodec, IndexCodec};
pub use config::{
    AdmissionPolicy, DegradeLevel, GuidancePrecision, RecMgConfig, SketchConfig, SlaBudget,
    TenantSpec, TierCost,
};
pub use engine::{EngineReport, GuidanceMode, GuidancePlaneReport, ServeOptions};
pub use fast::{active_lane, FastScratch, KernelLane};
pub use json::JsonWriter;
pub use labeling::{build_training_data, Chunk, PrefetchExample, TrainingData};
pub use migrate::{LiveRebalanceConfig, MigrationReport, ReplicationPolicy, ReplicationReport};
pub use prefetch_model::{
    FastPrefetchModel, PrefetchEval, PrefetchLoss, PrefetchModel, PrefetchTrainingReport,
};
pub use serving::{TableArraySpec, WorkloadSpec};
pub use session::{
    ArrivalProcess, BatchSource, ClosedLoopSource, LatencySummary, MarkovArrivals, PacedSource,
    Rejection, Request, RequestSample, RequestSource, ServingSession, SessionBuilder,
    SessionProgress, SessionReport, SlaOutcome, SyntheticSource, TenantReport, TraceReplaySource,
};
pub use sharding::{ShardRouter, ShardedRecMgSystem};
pub use sketch::{CardinalitySketch, WorkingSetStats, WorkingSetTracker};
pub use system::{train_recmg, CmPolicy, PmPrefetcher, RecMgSystem, TrainOptions, TrainedRecMg};
pub use table_profile::{
    hot_boundary, StatisticalPlacement, TableDecision, TablePlacement, TableProfile, TableProfiler,
    TableReport,
};
pub use tier::{
    CardinalityWorkingSet, EvenSplit, HotFirst, MemoryTier, PlacementPolicy, RebalanceDeferred,
    Rebalancer, ShardPlacement, TierTopology, TierUsage, WorkingSet,
};
pub use trace::{
    parse_criteo_line, parse_indices_line, profile_trace, read_trace, FileTraceSource, TraceFormat,
    TraceProfile, CRITEO_TABLES,
};
