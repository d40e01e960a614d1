//! Sharded model-guided buffer management.
//!
//! The paper's deployment serves DLRM batches against one logical GPU
//! buffer. To scale the online path across CPU workers (the ROADMAP's
//! production target, and the direction RecShard / SDM take for the same
//! bottleneck), the buffer is partitioned into N independent *shards*, each
//! a full [`RecMgBuffer`] with its own pending-chunk state, keyed by a hash
//! of [`VectorKey`]. Because shards are disjoint (the router is a
//! partition), per-shard hit/miss accounting merges losslessly, and with a
//! single shard the system is byte-for-byte the sequential [`RecMgSystem`]
//! — the reference oracle the integration tests pin it against.
//!
//! The demand path has exactly one loop: [`Shard::serve`] records each
//! access, cuts every completed `input_len`-key chunk and decides its
//! fate — Algorithm 1 now, the background plane, or stale priorities
//! (§VI-C) — as told by a [`Guide`]. Concurrency lives one layer up:
//! [`crate::session`] owns the worker threads that call it under each
//! shard's mutex, and the crate-private `plane` module the background
//! guidance threads. This module's
//! [`ShardedRecMgSystem::process_batch`] drives the same loop
//! synchronously (inline guidance at every chunk boundary, exactly like
//! [`RecMgSystem`]), which is what makes the parity guarantee testable.
//!
//! [`RecMgSystem`]: crate::RecMgSystem

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use recmg_cache::{BufferAccess, GpuBuffer};
use recmg_dlrm::{BatchAccessStats, BufferManager};
use recmg_trace::VectorKey;

use crate::buffer_mgmt::{RecMgBuffer, TierTraffic};
use crate::builder::SystemBuilder;
use crate::caching_model::{CachingModel, FastCachingModel};
use crate::codec::FrequencyRankCodec;
use crate::config::RecMgConfig;
use crate::engine::GuidanceMode;
use crate::fast::FastScratch;
use crate::plane::PlanePort;
use crate::prefetch_model::{FastPrefetchModel, PrefetchModel};
use crate::system::RecMgSystem;
use crate::table_profile::{pinned_tables_per_shard, TableDecision, TableProfile, TableProfiler};
use crate::tier::{PlacementPolicy, ShardPlacement, TierTopology, TierUsage};

/// Maps embedding-vector keys onto shards.
///
/// The mapping is a pure function of the key plus the router's *pin
/// directory*: by default every key is multiplicatively hashed over the
/// packed `u64`, but a table pinned by a statistical placement
/// ([`crate::StatisticalPlacement`]) resolves by one direct table-id
/// lookup instead — no hash rounds at all, the RecShard fast path for
/// tiny tables. Routing is still a partition: every key has exactly one
/// home shard at any instant. Clones share the pin directory, so a pin
/// installed through any clone is visible to all of them.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    num_shards: usize,
    /// Pin directory, indexed by table id: the pinned home shard, or −1
    /// for hash-routed. Empty (the default) disables pinning entirely —
    /// `shard_of` then never even branches on the table id beyond one
    /// always-false length check.
    pins: Arc<[AtomicI64]>,
    /// Per-table hot/cold row boundaries installed alongside pins
    /// (0 = unsplit). Reporting only — routing ignores it; placement
    /// uses it to size fast-tier capacity and reports surface it.
    hot_rows: Arc<[AtomicU64]>,
}

impl ShardRouter {
    /// Creates a router over `num_shards` shards (pinning disabled).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn new(num_shards: usize) -> Self {
        Self::with_pin_capacity(num_shards, 0)
    }

    /// Creates a router with a pin directory covering table ids
    /// `0..pin_capacity` (0 disables pinning).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero.
    pub fn with_pin_capacity(num_shards: usize, pin_capacity: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        ShardRouter {
            num_shards,
            pins: (0..pin_capacity).map(|_| AtomicI64::new(-1)).collect(),
            hot_rows: (0..pin_capacity).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Table-id capacity of the pin directory (0 = pinning disabled).
    pub fn pin_capacity(&self) -> usize {
        self.pins.len()
    }

    /// Pins every key of `table` to `shard` (direct-lookup routing).
    ///
    /// # Panics
    ///
    /// Panics if `table` is outside the pin directory or `shard` is out
    /// of range.
    pub fn pin_table(&self, table: u32, shard: usize) {
        assert!(
            (table as usize) < self.pins.len(),
            "table outside the pin directory"
        );
        assert!(shard < self.num_shards, "shard out of range");
        self.pins[table as usize].store(shard as i64, Ordering::Relaxed);
    }

    /// The shard `table` is pinned to, if any.
    pub fn pinned_shard(&self, table: u32) -> Option<usize> {
        let slot = self.pins.get(table as usize)?;
        let p = slot.load(Ordering::Relaxed);
        (p >= 0).then_some(p as usize)
    }

    /// Clears every pin and hot-row mark (back to pure hash routing).
    pub fn clear_pins(&self) {
        for slot in self.pins.iter() {
            slot.store(-1, Ordering::Relaxed);
        }
        for slot in self.hot_rows.iter() {
            slot.store(0, Ordering::Relaxed);
        }
    }

    /// Records `table`'s hot/cold row boundary (0 = unsplit). No routing
    /// effect; out-of-directory tables are ignored.
    pub fn set_hot_rows(&self, table: u32, rows: u64) {
        if let Some(slot) = self.hot_rows.get(table as usize) {
            slot.store(rows, Ordering::Relaxed);
        }
    }

    /// The recorded hot/cold boundary of `table` (0 = unsplit/unknown).
    pub fn hot_rows(&self, table: u32) -> u64 {
        self.hot_rows
            .get(table as usize)
            .map_or(0, |s| s.load(Ordering::Relaxed))
    }

    /// Installs a placement's table decisions atomically enough for the
    /// demand path (per-slot atomics; a request split mid-install may mix
    /// old and new homes for *different* tables, never for one key).
    /// Returns whether any slot changed. Decisions for tables outside the
    /// directory are ignored.
    pub(crate) fn install(&self, decisions: &[TableDecision]) -> bool {
        let mut changed = false;
        // Reset-and-apply: a table pinned by the previous placement but
        // absent from this one reverts to hash routing.
        let mut new_pins: Vec<i64> = vec![-1; self.pins.len()];
        let mut new_hot: Vec<u64> = vec![0; self.hot_rows.len()];
        for d in decisions {
            let t = d.table as usize;
            if t >= new_pins.len() {
                continue;
            }
            if let Some(shard) = d.pinned_shard {
                assert!(shard < self.num_shards, "pin decision shard out of range");
                new_pins[t] = shard as i64;
            }
            new_hot[t] = d.hot_rows;
        }
        for (slot, pin) in self.pins.iter().zip(&new_pins) {
            changed |= slot.swap(*pin, Ordering::Relaxed) != *pin;
        }
        for (slot, hot) in self.hot_rows.iter().zip(&new_hot) {
            changed |= slot.swap(*hot, Ordering::Relaxed) != *hot;
        }
        changed
    }

    /// The home shard of `key`.
    pub fn shard_of(&self, key: VectorKey) -> usize {
        if self.num_shards == 1 {
            return 0;
        }
        // Pinned-table fast path: one bounds check + one relaxed load
        // instead of the two multiply-fold rounds below. The check lives
        // *here*, not in a caller, so every routing consumer — request
        // splitting, the guidance plane's prediction filter, parity
        // tests — sees the same partition.
        let t = key.table().0 as usize;
        if t < self.pins.len() {
            let p = self.pins[t].load(Ordering::Relaxed);
            if p >= 0 {
                return p as usize;
            }
        }
        self.hash_shard_of(key)
    }

    /// The hash half of [`ShardRouter::shard_of`], ignoring pins — what
    /// routing resolves to for every unpinned table (and the reference
    /// the pinned-bypass parity test compares against).
    pub fn hash_shard_of(&self, key: VectorKey) -> usize {
        if self.num_shards == 1 {
            return 0;
        }
        // Fibonacci-style multiplicative hash with a two-round
        // fold-multiply finalizer (splitmix64-style). A single
        // `h ^ (h >> 32)` fold is not enough here: the table id lives in
        // bits 48–63 of the packed key, so after one multiply it only
        // influences bits ≥ 48, the fold moves those to bits ≥ 16, and a
        // power-of-two `num_shards` (which reads the low bits) would
        // ignore the table entirely — every same-row key of every table
        // piled onto one shard. The second multiply spreads the folded
        // high bits across the whole word.
        let mut h = key.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        h ^= h >> 32;
        (h % self.num_shards as u64) as usize
    }

    /// Splits a batch into per-shard key sequences, preserving the relative
    /// order of keys within each shard. Allocates a fresh `Vec<Vec<_>>`
    /// per call — hot paths should hold a scratch vector and use
    /// [`ShardRouter::split_into`] instead.
    pub fn split(&self, batch: &[VectorKey]) -> Vec<Vec<VectorKey>> {
        let mut parts = Vec::new();
        self.split_into(batch, &mut parts);
        parts
    }

    /// Allocation-reusing [`ShardRouter::split`]: clears and refills
    /// `parts` (resizing it to the shard count), so a caller that serves
    /// many batches re-uses the per-shard vectors' capacity instead of
    /// allocating `1 + num_shards` vectors per call — the serving
    /// session's per-request path.
    pub fn split_into(&self, batch: &[VectorKey], parts: &mut Vec<Vec<VectorKey>>) {
        parts.resize_with(self.num_shards, Vec::new);
        for part in parts.iter_mut() {
            part.clear();
        }
        if self.num_shards == 1 {
            parts[0].extend_from_slice(batch);
            return;
        }
        for &key in batch {
            parts[self.shard_of(key)].push(key);
        }
    }
}

/// Immutable guidance context shared by every shard (and, in background
/// mode, by the guidance plane's threads): the compiled models, the codec,
/// and the serving knobs.
#[derive(Debug, Clone)]
pub(crate) struct GuidanceCtx {
    pub(crate) cfg: RecMgConfig,
    pub(crate) caching: Arc<FastCachingModel>,
    pub(crate) prefetch: Option<Arc<FastPrefetchModel>>,
    pub(crate) codec: Arc<FrequencyRankCodec>,
    pub(crate) guidance_stride: usize,
    pub(crate) prefetch_gate: f64,
    /// Per-shard prefetch warmup threshold:
    /// [`RecMgSystem::PREFETCH_WARMUP`] divided by the shard count. Each
    /// shard only issues the (shard-filtered) ~1/N share of predictions,
    /// so holding every shard to the global constant would keep the whole
    /// system in always-armed warmup ~N× longer than the sequential
    /// system — and the guidance plane paying the prefetch model on every
    /// chunk for the duration.
    pub(crate) prefetch_warmup: u64,
    /// The memory hierarchy the shards are placed onto.
    pub(crate) topology: Arc<TierTopology>,
    /// The placement policy that sized/routed the shards — kept so
    /// [`ShardedRecMgSystem::rebalance`] can re-apply it against live
    /// per-shard stats.
    pub(crate) placement: Arc<dyn PlacementPolicy>,
    /// Default guidance scheduling for sessions over this system.
    pub(crate) guidance_default: GuidanceMode,
    /// Bind-time calibration results of the topology's probed tiers
    /// (empty when nothing was marked calibrated).
    pub(crate) calibration: Arc<crate::backend::CalibrationReport>,
    /// How demand misses reach slow storage (blocking read-through or the
    /// async fill plane).
    pub(crate) fill_mode: crate::backend::FillMode,
    /// The shared miss queue of an async-fill system (`None` in blocking
    /// mode). Sessions spawn the fill threads that drain it.
    pub(crate) fill_queue: Option<Arc<crate::backend::FillQueue>>,
}

impl GuidanceCtx {
    /// The kernel-lane label reported by sessions over this context:
    /// the runtime-dispatched lane name plus an `+int8` suffix when the
    /// compiled models are quantized (`scalar`, `avx2`, `scalar+int8`,
    /// `avx2+int8`).
    pub(crate) fn kernel_label(&self) -> &'static str {
        use crate::fast::{active_lane, KernelLane};
        match (active_lane(), self.caching.is_quantized()) {
            (KernelLane::Scalar, false) => "scalar",
            (KernelLane::Scalar, true) => "scalar+int8",
            (KernelLane::Avx2, false) => "avx2",
            (KernelLane::Avx2, true) => "avx2+int8",
        }
    }

    /// The one re-placement planner, shared by the quiescent
    /// [`ShardedRecMgSystem::rebalance_from`] and the live rebalancer
    /// ([`crate::migrate`]): runs the placement policy on per-shard
    /// `stats` and merged table profiles, publishes its table routing,
    /// and returns whether the routing changed plus each shard's placement
    /// and buffer pin set.
    ///
    /// Routing goes out before any buffer shrinks, so a key re-homed by a
    /// new pin stops landing on (and refilling) the shard about to lose
    /// capacity; copies stranded under the old routing go cold and evict.
    /// Callers install a shard's pin set before moving it, so neither a
    /// resize nor a move can displace a freshly pinned footprint.
    pub(crate) fn plan(
        &self,
        router: &ShardRouter,
        stats: &[TierTraffic],
        tables: &[TableProfile],
    ) -> (bool, Vec<(ShardPlacement, Vec<u32>)>) {
        let shards = router.num_shards();
        assert_eq!(stats.len(), shards, "need one stat entry per shard");
        let placement = self
            .placement
            .place_with_tables(shards, &self.topology, stats, tables);
        assert_eq!(
            placement.placements.len(),
            shards,
            "placement policy must return one placement per shard"
        );
        let changed = router.install(&placement.tables);
        let pins = pinned_tables_per_shard(&placement.tables, shards);
        (
            changed,
            placement.placements.into_iter().zip(pins).collect(),
        )
    }
}

/// Guidance computed for one chunk: the caching model's keep bits plus the
/// shard-filtered prefetch predictions.
pub(crate) type ChunkGuidance = (Vec<bool>, Vec<VectorKey>);

/// One shard: an independent RecMG buffer plus the per-stream state the
/// sequential system keeps ([`RecMgSystem`]'s pending chunk, chunk counter,
/// and prefetch-gate counters), replicated per shard so shards never share
/// mutable state.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) id: usize,
    /// Index of the memory tier currently backing this shard's buffer.
    pub(crate) tier: usize,
    pub(crate) buffer: RecMgBuffer,
    // Stream state, written only by [`Shard::serve`] and
    // [`Shard::apply_guidance`].
    pending: Vec<VectorKey>,
    chunk_counter: usize,
    prefetches_issued: u64,
    prefetch_hits_seen: u64,
    /// Chunks that received model guidance.
    guided_chunks: u64,
    /// Chunks skipped by the stride (inline), the lagging guidance plane
    /// (background) or an SLA-degraded request — they ran with stale
    /// guidance, the paper's §VI-C case.
    unguided_chunks: u64,
    /// Reused model-forward buffers for this shard's inline guidance, so
    /// the inline hot path allocates nothing per chunk (the background
    /// plane threads and pacing workers hold their own per-thread scratch).
    scratch: FastScratch,
    /// Fast-tier replica of this shard's read-hot keys, installed by a
    /// live session's [`ReplicationPolicy`](crate::ReplicationPolicy).
    /// Lives under the same mutex as the shard, so replica bookkeeping is
    /// exact with respect to the demand stream; stripped (and its
    /// counters folded into the replication report) at session drain.
    pub(crate) replica: Option<crate::migrate::ReplicaState>,
    /// Per-table demand profiler, installed by the builder when the
    /// placement policy asks for table profiles
    /// ([`PlacementPolicy::table_capacity`] > 0). Observes every demand
    /// access under the shard's existing synchronization; merged across
    /// shards at rebalance/report time.
    pub(crate) profiler: Option<TableProfiler>,
}

impl Shard {
    /// A shard whose buffer lives in the placement's assigned tier,
    /// accounting under that tier's cost model, with the system's
    /// working-set sketch shape.
    pub(crate) fn placed(
        id: usize,
        eviction_speed: u64,
        placement: &ShardPlacement,
        topology: &TierTopology,
        sketch: crate::config::SketchConfig,
    ) -> Self {
        let tier = topology.tier(placement.tier);
        Shard {
            id,
            tier: placement.tier,
            buffer: RecMgBuffer::with_backend_spec(
                placement.capacity.max(1),
                eviction_speed,
                tier.cost,
                sketch,
                tier.backend,
            ),
            pending: Vec::new(),
            chunk_counter: 0,
            prefetches_issued: 0,
            prefetch_hits_seen: 0,
            guided_chunks: 0,
            unguided_chunks: 0,
            scratch: FastScratch::default(),
            replica: None,
            profiler: None,
        }
    }

    /// Applies a new placement in place: a tier change is a shard move
    /// that keeps the buffer's own residents, re-sized (shrinking evicts
    /// coldest entries first); a capacity-only change re-sizes. Returns
    /// whether anything changed.
    pub(crate) fn apply_placement(
        &mut self,
        placement: &ShardPlacement,
        topology: &TierTopology,
    ) -> bool {
        let capacity = placement.capacity.max(1);
        if placement.tier != self.tier {
            self.buffer
                .commit_move(topology.tier(placement.tier), capacity);
            self.tier = placement.tier;
        } else if capacity != self.buffer.capacity() {
            self.buffer.resize(capacity);
        } else {
            return false;
        }
        true
    }

    /// Demand access bookkeeping.
    ///
    /// When a fast-tier replica is installed, a hit on a fresh
    /// replica-resident key is re-priced at the replica tier's cost
    /// (counts stay canonical on the home shard — replication never
    /// changes hit/miss totals), other hits are offered to the replica's
    /// two-touch admission (the second fresh hit copies the key in and
    /// charges the fill), and a miss write-invalidates the replica entry.
    fn record_access(&mut self, key: VectorKey, stats: &mut BatchAccessStats) {
        if let Some(profiler) = self.profiler.as_mut() {
            profiler.observe(key);
        }
        let outcome = self.buffer.access(key);
        match outcome {
            BufferAccess::CacheHit => stats.cache_hits += 1,
            BufferAccess::PrefetchHit => {
                stats.prefetch_hits += 1;
                self.prefetch_hits_seen += 1;
            }
            BufferAccess::Miss => stats.misses += 1,
        }
        if let Some(replica) = self.replica.as_mut() {
            if outcome == BufferAccess::Miss {
                replica.invalidate(key);
            } else if replica.probe(key) {
                let saved = self.buffer.refund_hit(replica.hit_ns());
                replica.report.replica_hits += 1;
                replica.report.saved_cost_ns += saved;
            } else if replica.offer(key) {
                self.buffer.charge_cost_ns(replica.fill_ns());
            }
        }
    }

    /// Mirror of [`RecMgSystem`]'s `prefetch_armed`, evaluated against this
    /// shard's own counters (warmup scaled to the shard's share of the
    /// prediction stream — see [`GuidanceCtx::prefetch_warmup`]).
    fn prefetch_armed(&self, ctx: &GuidanceCtx) -> bool {
        if self.prefetches_issued < ctx.prefetch_warmup {
            return true;
        }
        let ratio = self.prefetch_hits_seen as f64 / self.prefetches_issued as f64;
        ratio >= ctx.prefetch_gate
            || self
                .chunk_counter
                .is_multiple_of(RecMgSystem::PREFETCH_PROBE_PERIOD)
    }

    /// Computes guidance — the CPU-side model work — for a batch of
    /// chunks: caching bits for every chunk and prefetch predictions for
    /// the armed ones with *one* batched forward per model instead of one
    /// per chunk, amortizing weight traffic across shards. Entries are
    /// `(chunk, armed, home shard)`; predictions are filtered to each
    /// chunk's home shard so the partition invariant holds. Returns
    /// per-chunk `(bits, prefetched)` in input order plus the number of
    /// model forwards run (for plane accounting). All buffers come from
    /// the caller-held scratch.
    ///
    /// Inline guidance is the one-chunk batch: the batched kernels are
    /// lane-independent ([`crate::fast`]), so per chunk the results do not
    /// depend on what else was in the batch.
    pub(crate) fn compute_guidance_batch(
        batch: &[(&[VectorKey], bool, usize)],
        ctx: &GuidanceCtx,
        router: &ShardRouter,
        scratch: &mut FastScratch,
    ) -> (Vec<ChunkGuidance>, u64) {
        let chunks: Vec<&[VectorKey]> = batch.iter().map(|&(c, _, _)| c).collect();
        let bits = ctx.caching.predict_batch_with(&chunks, scratch);
        let mut forwards = 1u64;
        let mut prefetched: Vec<Vec<VectorKey>> = vec![Vec::new(); batch.len()];
        if let Some(pm) = &ctx.prefetch {
            let armed_idx: Vec<usize> = batch
                .iter()
                .enumerate()
                .filter(|&(_, &(_, armed, _))| armed)
                .map(|(i, _)| i)
                .collect();
            if !armed_idx.is_empty() {
                let armed_chunks: Vec<&[VectorKey]> =
                    armed_idx.iter().map(|&i| batch[i].0).collect();
                let preds = pm.predict_batch_with(&armed_chunks, ctx.codec.as_ref(), scratch);
                forwards += 1;
                for (&i, pred) in armed_idx.iter().zip(preds) {
                    let home = batch[i].2;
                    prefetched[i] = pred
                        .into_iter()
                        .filter(|&k| router.shard_of(k) == home)
                        .collect();
                }
            }
        }
        (bits.into_iter().zip(prefetched).collect(), forwards)
    }

    /// Applies computed guidance to the buffer — the GPU-side update.
    pub(crate) fn apply_guidance(
        &mut self,
        chunk: &[VectorKey],
        bits: &[bool],
        prefetched: &[VectorKey],
    ) {
        self.prefetches_issued += prefetched.len() as u64;
        self.buffer.load_embeddings(chunk, bits, prefetched);
        self.guided_chunks += 1;
    }

    /// The one demand loop: serves a sub-stream of this shard's home keys
    /// and gives every completed `input_len`-key chunk exactly one fate,
    /// counted exactly once (`guided + unguided == chunks formed` once
    /// whatever was offered to the plane has been applied):
    ///
    /// * [`Guide::Inline`] — Algorithm 1 now, on the serving thread, on
    ///   every `guidance_stride`-th chunk (§VI-B): the exact control flow
    ///   of [`RecMgSystem::process_batch`] applied to this shard's
    ///   sub-stream;
    /// * [`Guide::Plane`] — guidance the plane has finished is applied
    ///   before each access; the chunk is offered to the plane unless the
    ///   shard is at its lag limit, in which case the producer paces
    ///   itself after the skip (computing queued plane batches meanwhile);
    /// * [`Guide::Stale`] — no fresh guidance at all (a degraded request;
    ///   its worker first applies whatever the plane had already parked);
    ///
    /// and every chunk that found no consumer rides on the priorities the
    /// buffer already holds: "GPU moves on to the next DLRM inference
    /// batch" (§VI-C). A chunk is only copied out of the pending window
    /// when something will consume it.
    pub(crate) fn serve(
        &mut self,
        keys: &[VectorKey],
        stats: &mut BatchAccessStats,
        ctx: &GuidanceCtx,
        guide: &Guide<'_>,
    ) {
        let input_len = ctx.cfg.input_len;
        for &key in keys {
            if let Guide::Plane(port) = guide {
                port.apply_ready(self, true);
            }
            self.record_access(key, stats);
            self.pending.push(key);
            while self.pending.len() >= input_len {
                self.chunk_counter += 1;
                match guide {
                    Guide::Inline(router)
                        if (self.chunk_counter - 1).is_multiple_of(ctx.guidance_stride) =>
                    {
                        let chunk: Vec<VectorKey> = self.pending.drain(..input_len).collect();
                        let job = [(chunk.as_slice(), self.prefetch_armed(ctx), self.id)];
                        let (mut guidance, _) =
                            Self::compute_guidance_batch(&job, ctx, router, &mut self.scratch);
                        let (bits, prefetched) = guidance.pop().expect("one chunk in, one out");
                        self.apply_guidance(&chunk, &bits, &prefetched);
                    }
                    Guide::Plane(port) if port.has_room() => {
                        port.apply_ready(self, true);
                        let armed = self.prefetch_armed(ctx);
                        let chunk: Vec<VectorKey> = self.pending.drain(..input_len).collect();
                        if !port.offer(self.id, chunk, armed) {
                            self.unguided_chunks += 1;
                        }
                    }
                    _ => {
                        self.pending.drain(..input_len);
                        self.unguided_chunks += 1;
                        if let Guide::Plane(port) = guide {
                            port.pace(ctx);
                        }
                    }
                }
            }
        }
    }
}

/// What [`Shard::serve`] does with a completed chunk — the three guidance
/// schedules of the serving path, resolved once per served sub-batch.
pub(crate) enum Guide<'a> {
    /// Compute and apply on the serving thread (stride permitting);
    /// predictions are filtered to the shard's key space by the router.
    Inline(&'a ShardRouter),
    /// Offer to the background guidance plane through the shard's port.
    Plane(PlanePort<'a>),
    /// No fresh guidance: every chunk is formed, counted and skipped — the
    /// §VI-C skip-ahead applied deliberately, which is how an SLA-pressured
    /// session degrades a request ([`crate::config::DegradeLevel`]).
    Stale,
}

/// The sharded online RecMG system: N disjoint model-guided buffers.
///
/// With `num_shards == 1` this is behaviourally identical to
/// [`RecMgSystem`] (same hit/miss/prefetch counts on any access stream);
/// with more shards, the total buffer capacity is divided across shards and
/// each shard serves only its home keys. [`crate::session`] drives the
/// shards from concurrent worker threads.
#[derive(Debug)]
pub struct ShardedRecMgSystem {
    pub(crate) ctx: GuidanceCtx,
    pub(crate) router: ShardRouter,
    pub(crate) shards: Vec<Shard>,
}

impl ShardedRecMgSystem {
    /// Starts a [`SystemBuilder`] over the given model parts — the
    /// construction API: explicit shards, [`TierTopology`], placement
    /// policy, and default guidance. Pass `prefetch: None` for the
    /// caching-model-only configuration.
    pub fn builder<'a>(
        caching: &'a CachingModel,
        prefetch: Option<&'a PrefetchModel>,
        codec: FrequencyRankCodec,
    ) -> SystemBuilder<'a> {
        SystemBuilder::new(caching, prefetch, codec)
    }

    /// The memory hierarchy the shards are placed onto.
    pub fn topology(&self) -> &TierTopology {
        &self.ctx.topology
    }

    /// The tier index backing shard `i`'s buffer.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_tier(&self, i: usize) -> usize {
        self.shards[i].tier
    }

    /// Name of the placement policy that sized/routed the shards.
    pub fn placement_name(&self) -> &'static str {
        self.ctx.placement.name()
    }

    /// Default guidance scheduling configured at build time (sessions
    /// without an explicit mode inherit it).
    pub fn default_guidance(&self) -> GuidanceMode {
        self.ctx.guidance_default
    }

    /// Bind-time calibration results of the topology's probed tiers
    /// (empty when no tier was marked
    /// [`MemoryTier::calibrated`](crate::MemoryTier::calibrated)).
    pub fn calibration_report(&self) -> &crate::backend::CalibrationReport {
        &self.ctx.calibration
    }

    /// How demand misses reach slow storage (set at build via
    /// [`SystemBuilder::fill_mode`](crate::SystemBuilder::fill_mode)).
    pub fn fill_mode(&self) -> crate::backend::FillMode {
        self.ctx.fill_mode
    }

    /// Cumulative async-fill-plane counters (all zero in blocking mode).
    /// Reports snapshot-and-delta this per run.
    pub fn fill_report(&self) -> crate::backend::FillPlaneReport {
        self.ctx
            .fill_queue
            .as_ref()
            .map(|q| q.report())
            .unwrap_or_default()
    }

    /// Synchronously drains the async fill queue, promoting every queued
    /// key into its shard (the in-session equivalent runs on background
    /// fill threads). Returns the number of fills that landed. A no-op
    /// (0) in blocking mode, and right after a session, whose drain
    /// already landed the backlog. The sequential path
    /// ([`BufferManager::process_batch`]) calls this after every batch.
    pub fn drain_fills(&mut self) -> u64 {
        let Some(queue) = self.ctx.fill_queue.clone() else {
            return 0;
        };
        let mut landed = 0;
        while let Some((sid, key, fill_ns)) = queue.pop_now() {
            if self.shards[sid].buffer.promote_fill(key, fill_ns) {
                queue.note_promoted();
                landed += 1;
            }
        }
        landed
    }

    /// Cumulative tier traffic of shard `i`'s buffer.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_traffic(&self, i: usize) -> TierTraffic {
        self.shards[i].buffer.traffic()
    }

    /// Cumulative tier traffic of every shard buffer, in shard order —
    /// the stat vector the [`crate::Rebalancer`] snapshots and deltas.
    pub fn shard_traffics(&self) -> Vec<TierTraffic> {
        self.shards.iter().map(|s| s.buffer.traffic()).collect()
    }

    /// Point-in-time working-set statistics of shard `i`'s demand stream
    /// (sketched unique keys, last epoch footprint, phase score).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_working_set(&self, i: usize) -> crate::sketch::WorkingSetStats {
        self.shards[i].buffer.working_set()
    }

    /// Cumulative demand accesses of every shard buffer, in shard order —
    /// raw counters only (no sketch work), cheap enough to poll on every
    /// batch.
    pub fn shard_demands(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.buffer.demand_count())
            .collect()
    }

    /// Cached per-shard phase scores, in shard order — `O(shards)`, no
    /// sketch merges; the vector the phase trigger scans on every check.
    pub fn shard_phase_scores(&self) -> Vec<f64> {
        self.shards.iter().map(|s| s.buffer.phase_score()).collect()
    }

    /// The largest phase score across shards — the "did any shard's
    /// working set just flip?" signal the phase-reactive
    /// [`crate::Rebalancer`] trigger reads.
    pub fn max_phase_score(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| s.buffer.phase_score())
            .fold(0.0, f64::max)
    }

    /// Sketched unique-key footprint summed across shards (lossless: the
    /// router is a partition, so shard footprints are disjoint).
    pub fn unique_keys(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.buffer.working_set().unique_keys)
            .sum()
    }

    /// Cumulative demand accesses (hits + misses) observed across all
    /// shard buffers — the mass signal rebalancing runs on. Raw counters
    /// only: polling this never pays for sketch estimation.
    pub fn demand_accesses(&self) -> u64 {
        self.shards.iter().map(|s| s.buffer.demand_count()).sum()
    }

    /// Per-tier occupancy and cumulative traffic: which shards live
    /// where, how full each tier is, and what its traffic cost under the
    /// tier's cost model. Reports subtract snapshots of this to show
    /// per-run deltas.
    pub fn tier_usage(&self) -> Vec<TierUsage> {
        let mut usages: Vec<TierUsage> = self
            .ctx
            .topology
            .tiers()
            .iter()
            .map(|t| TierUsage {
                name: t.name.clone(),
                shards: 0,
                capacity: 0,
                resident: 0,
                traffic: Default::default(),
            })
            .collect();
        for shard in &self.shards {
            let u = &mut usages[shard.tier];
            u.shards += 1;
            u.capacity += shard.buffer.capacity();
            u.resident += shard.buffer.len();
            u.traffic.accumulate(shard.buffer.traffic());
        }
        usages
    }

    /// Re-places every shard by running the system's placement policy
    /// against the observed *cumulative* per-shard demand mass — see
    /// [`ShardedRecMgSystem::rebalance_from`] for the stat-vector form the
    /// [`crate::Rebalancer`] uses to feed epoch deltas instead. Returns
    /// whether anything moved. Call between serves/drains — the system
    /// must be quiescent.
    pub fn rebalance(&mut self) -> bool {
        let stats = self.shard_traffics();
        self.rebalance_from(&stats)
    }

    /// Re-places every shard by running the system's placement policy
    /// against a caller-supplied per-shard stat vector (typically the
    /// traffic observed since the last rebalance, so placement tracks the
    /// current phase instead of cumulative history), re-sizing buffers in
    /// place (shrinking evicts coldest entries; tier moves charge the
    /// migration to the destination tier). Returns whether anything
    /// moved. Call between serves/drains — the system must be quiescent.
    ///
    /// # Panics
    ///
    /// Panics if `stats` does not hold one entry per shard.
    pub fn rebalance_from(&mut self, stats: &[TierTraffic]) -> bool {
        let (mut changed, plan) = self.ctx.plan(&self.router, stats, &self.table_profiles());
        for (shard, (placement, pins)) in self.shards.iter_mut().zip(&plan) {
            shard.buffer.set_pinned_tables(pins);
            changed |= shard.apply_placement(placement, &self.ctx.topology);
        }
        changed
    }

    /// Merged per-table demand profiles across shards, sorted by table id
    /// — empty unless the placement policy enabled profiling
    /// ([`PlacementPolicy::table_capacity`] > 0).
    pub fn table_profiles(&self) -> Vec<TableProfile> {
        TableProfiler::merge(self.shards.iter().filter_map(|s| s.profiler.as_ref()))
    }

    /// Per-table report rows: each merged profile joined with the routing
    /// decision currently installed for it in the router's pin directory
    /// — what [`crate::EngineReport`] serializes.
    pub fn table_report(&self) -> Vec<crate::table_profile::TableReport> {
        self.table_profiles()
            .into_iter()
            .map(|p| {
                let pinned = self.router.pinned_shard(p.table);
                let hot = self.router.hot_rows(p.table);
                crate::table_profile::TableReport {
                    profile: p,
                    pinned_shard: pinned,
                    hot_rows: hot,
                }
            })
            .collect()
    }

    /// The shard router (a handle — clones share the pin directory).
    pub fn router(&self) -> ShardRouter {
        self.router.clone()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.router.num_shards()
    }

    /// Whether the prefetch model is active.
    pub fn has_prefetch(&self) -> bool {
        self.ctx.prefetch.is_some()
    }

    /// Whether the compiled guidance models carry int8-quantized weights
    /// (built with [`GuidancePrecision::Int8`](crate::GuidancePrecision)).
    pub fn guidance_models_quantized(&self) -> bool {
        self.ctx.caching.is_quantized()
    }

    /// The kernel lane label sessions over this system will report:
    /// the runtime-dispatched SIMD lane plus a `+int8` suffix when the
    /// guidance models are quantized.
    pub fn kernel_label(&self) -> &'static str {
        self.ctx.kernel_label()
    }

    /// Runs inline guidance only on every `stride`-th chunk per shard
    /// (mirrors [`RecMgSystem::set_guidance_stride`]).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn set_guidance_stride(&mut self, stride: usize) {
        assert!(stride > 0, "stride must be positive");
        self.ctx.guidance_stride = stride;
    }

    /// Sets the prefetch usefulness gate (mirrors
    /// [`RecMgSystem::set_prefetch_gate`]).
    ///
    /// # Panics
    ///
    /// Panics if `min_accuracy` is not in `[0, 1]`.
    pub fn set_prefetch_gate(&mut self, min_accuracy: f64) {
        assert!(
            (0.0..=1.0).contains(&min_accuracy),
            "gate must be in [0, 1]"
        );
        self.ctx.prefetch_gate = min_accuracy;
    }

    /// Read access to shard `i`'s buffer.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_buffer(&self, i: usize) -> &GpuBuffer {
        self.shards[i].buffer.buffer()
    }

    /// Read access to shard `i`'s full tier-aware buffer (row storage,
    /// backend spec, traffic counters).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard_recmg_buffer(&self, i: usize) -> &RecMgBuffer {
        &self.shards[i].buffer
    }

    /// Total resident vectors across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.buffer.len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.buffer.is_empty())
    }

    /// Total capacity across shards (≥ the constructor capacity because of
    /// even splitting).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.buffer.capacity()).sum()
    }

    /// Prefetches issued across shards.
    pub fn prefetches_issued(&self) -> u64 {
        self.shards.iter().map(|s| s.prefetches_issued).sum()
    }

    /// Chunks that received model guidance, across shards.
    pub fn guided_chunks(&self) -> u64 {
        self.shards.iter().map(|s| s.guided_chunks).sum()
    }

    /// Chunks that ran on stale guidance (stride-skipped inline, or
    /// skipped by a lagging guidance plane), across shards. Background
    /// guidance still in flight at session teardown is computed and
    /// applied during drain (counted guided, reported as plane lag), so
    /// after a drained session `guided + unguided == total`.
    pub fn unguided_chunks(&self) -> u64 {
        self.shards.iter().map(|s| s.unguided_chunks).sum()
    }

    /// Chunks formed so far, across shards.
    pub fn total_chunks(&self) -> u64 {
        self.shards.iter().map(|s| s.chunk_counter as u64).sum()
    }

    /// Fraction of chunks that ran with fresh model guidance
    /// ([`recmg_dlrm::PipelineReport`] semantics).
    pub fn guided_fraction(&self) -> f64 {
        let total = self.total_chunks();
        if total == 0 {
            0.0
        } else {
            self.guided_chunks() as f64 / total as f64
        }
    }
}

impl BufferManager for ShardedRecMgSystem {
    fn name(&self) -> String {
        let base = if self.has_prefetch() { "RecMG" } else { "CM" };
        if self.num_shards() == 1 {
            base.to_string()
        } else {
            format!("{base}x{}", self.num_shards())
        }
    }

    fn process_batch(&mut self, batch: &[VectorKey]) -> BatchAccessStats {
        // A system whose shards were moved into a session that panicked
        // mid-serve has no shards; zipping against the empty vec would
        // silently drop every key, so fail loudly instead.
        assert_eq!(
            self.shards.len(),
            self.router.num_shards(),
            "shard count must match the router (was a serving session abandoned mid-panic?)"
        );
        // Deterministic sequential path: shards are disjoint, so serving
        // them one after another produces the same counts as any
        // interleaving that preserves per-shard order.
        let mut stats = BatchAccessStats::default();
        let guide = Guide::Inline(&self.router);
        if self.router.num_shards() == 1 {
            self.shards[0].serve(batch, &mut stats, &self.ctx, &guide);
        } else {
            let parts = self.router.split(batch);
            for (shard, keys) in self.shards.iter_mut().zip(&parts) {
                shard.serve(keys, &mut stats, &self.ctx, &guide);
            }
        }
        // Fill threads exist only inside a session. Here the misses this
        // batch queued land now, so on this path fills arrive between
        // batches, deterministically.
        self.drain_fills();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmg_trace::{RowId, SyntheticConfig, TableId};

    fn key(t: u32, r: u64) -> VectorKey {
        VectorKey::new(TableId(t), RowId(r))
    }

    fn untrained_system(num_shards: usize, capacity: usize) -> ShardedRecMgSystem {
        let cfg = RecMgConfig::tiny();
        let caching = CachingModel::new(&cfg);
        let prefetch = PrefetchModel::new(&cfg);
        let codec = FrequencyRankCodec::from_accesses(&[key(0, 1), key(0, 2), key(1, 3)]);
        ShardedRecMgSystem::builder(&caching, Some(&prefetch), codec)
            .shards(num_shards)
            .capacity(capacity)
            .build()
    }

    #[test]
    fn async_fills_land_between_sequential_batches() {
        use crate::backend::{synth_row, FillMode, ROW_BYTES};
        let cfg = RecMgConfig::tiny();
        let caching = CachingModel::new(&cfg);
        let codec = FrequencyRankCodec::from_accesses(&[key(0, 1)]);
        let mut sys = ShardedRecMgSystem::builder(&caching, None, codec)
            .shards(2)
            .capacity(512)
            .fill_mode(FillMode::Async {
                threads: 1,
                queue_depth: 256,
            })
            .build();
        let batch: Vec<VectorKey> = (0..100).map(|r| key(0, r)).collect();
        let mut stats = BatchAccessStats::default();
        for _ in 0..3 {
            stats.accumulate(sys.process_batch(&batch));
        }
        assert!(stats.hits() >= 100, "nothing was promoted: {stats:?}");
        let fills = sys.fill_report();
        assert!(fills.queued >= 100);
        assert_eq!(fills.promoted, fills.queued);
        assert_eq!(fills.dropped, 0);
        for shard in 0..2 {
            let buffer = sys.shard_recmg_buffer(shard);
            for k in buffer.buffer().keys() {
                let mut want = [0u8; ROW_BYTES];
                synth_row(k, &mut want);
                assert_eq!(buffer.read_row(k), Some(want));
            }
        }
        assert_eq!(sys.len(), 100);
    }

    #[test]
    fn router_is_a_partition() {
        let router = ShardRouter::new(4);
        for t in 0..8u32 {
            for r in 0..64u64 {
                let s = router.shard_of(key(t, r));
                assert!(s < 4);
                // Routing is a pure function.
                assert_eq!(s, router.shard_of(key(t, r)));
            }
        }
    }

    #[test]
    fn unpinned_routing_is_hash_routing_exactly() {
        // Parity: a router with a pin directory but nothing pinned must
        // route every key exactly like the plain hash router — the fast
        // path is a bypass, not a different partition.
        let plain = ShardRouter::new(8);
        let pinnable = ShardRouter::with_pin_capacity(8, 64);
        for t in 0..128u32 {
            for r in 0..256u64 {
                let k = key(t, r);
                assert_eq!(plain.shard_of(k), pinnable.shard_of(k));
                assert_eq!(pinnable.shard_of(k), pinnable.hash_shard_of(k));
            }
        }
    }

    #[test]
    fn pins_override_hash_and_preserve_the_partition() {
        let router = ShardRouter::with_pin_capacity(4, 8);
        router.pin_table(2, 3);
        router.pin_table(5, 0);
        assert_eq!(router.pinned_shard(2), Some(3));
        assert_eq!(router.pinned_shard(5), Some(0));
        assert_eq!(router.pinned_shard(0), None);
        // Out-of-directory tables have no pin slot and hash-route.
        assert_eq!(router.pinned_shard(100), None);
        for r in 0..512u64 {
            // Every key of a pinned table lands on the pinned shard...
            assert_eq!(router.shard_of(key(2, r)), 3);
            assert_eq!(router.shard_of(key(5, r)), 0);
            // ...while unpinned tables keep their hash homes.
            assert_eq!(router.shard_of(key(0, r)), router.hash_shard_of(key(0, r)));
            assert_eq!(
                router.shard_of(key(100, r)),
                router.hash_shard_of(key(100, r))
            );
        }
        // split() still places each key on exactly its shard_of home.
        let batch: Vec<VectorKey> = (0..400).map(|i| key(i % 7, i as u64)).collect();
        for (sid, part) in router.split(&batch).iter().enumerate() {
            for &k in part {
                assert_eq!(router.shard_of(k), sid);
            }
        }
        router.clear_pins();
        assert_eq!(router.pinned_shard(2), None);
        assert_eq!(router.shard_of(key(2, 9)), router.hash_shard_of(key(2, 9)));
    }

    #[test]
    fn install_replaces_the_whole_directory() {
        use crate::table_profile::TableDecision;
        let router = ShardRouter::with_pin_capacity(4, 8);
        let first = vec![
            TableDecision {
                table: 1,
                pinned_shard: Some(2),
                hot_rows: 0,
            },
            TableDecision {
                table: 3,
                pinned_shard: None,
                hot_rows: 77,
            },
        ];
        assert!(router.install(&first));
        assert_eq!(router.pinned_shard(1), Some(2));
        assert_eq!(router.hot_rows(3), 77);
        // Re-installing the same decisions changes nothing.
        assert!(!router.install(&first));
        // A new placement that drops table 1 reverts it to hash routing.
        let second = vec![TableDecision {
            table: 3,
            pinned_shard: Some(0),
            hot_rows: 50,
        }];
        assert!(router.install(&second));
        assert_eq!(router.pinned_shard(1), None);
        assert_eq!(router.pinned_shard(3), Some(0));
        assert_eq!(router.hot_rows(3), 50);
        // Clones share the directory.
        let clone = router.clone();
        assert_eq!(clone.pinned_shard(3), Some(0));
        clone.clear_pins();
        assert_eq!(router.pinned_shard(3), None);
    }

    #[test]
    fn split_preserves_every_key_once() {
        let router = ShardRouter::new(3);
        let batch: Vec<VectorKey> = (0..100).map(|i| key(i % 5, i as u64)).collect();
        let parts = router.split(&batch);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, batch.len());
        for (sid, part) in parts.iter().enumerate() {
            for &k in part {
                assert_eq!(router.shard_of(k), sid);
            }
        }
    }

    #[test]
    fn single_shard_split_is_identity() {
        let router = ShardRouter::new(1);
        let batch: Vec<VectorKey> = (0..20).map(|i| key(0, i)).collect();
        let parts = router.split(&batch);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], batch);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = ShardRouter::new(0);
    }

    #[test]
    fn sharded_totals_cover_the_trace() {
        let trace = SyntheticConfig::tiny(33).generate();
        let mut sys = untrained_system(4, 64);
        let mut stats = BatchAccessStats::default();
        for batch in trace.batches(10) {
            stats.accumulate(sys.process_batch(batch));
        }
        assert_eq!(stats.total(), trace.len() as u64);
        assert!(sys.len() <= sys.capacity());
        assert!(sys.total_chunks() > 0);
        assert!(sys.guided_fraction() > 0.0);
        assert_eq!(sys.name(), "RecMGx4");
    }

    #[test]
    fn capacity_splits_evenly() {
        let sys = untrained_system(4, 10);
        // ceil(10 / 4) = 3 per shard.
        for i in 0..4 {
            assert_eq!(sys.shard_buffer(i).capacity(), 3);
            assert_eq!(sys.shard_tier(i), 0);
        }
        assert_eq!(sys.capacity(), 12);
        assert!(sys.is_empty());
        assert_eq!(sys.placement_name(), "even_split");
    }

    #[test]
    fn split_into_reuses_and_matches_split() {
        let router = ShardRouter::new(3);
        let a: Vec<VectorKey> = (0..60).map(|i| key(i % 4, i as u64)).collect();
        let b: Vec<VectorKey> = (0..10).map(|i| key(i % 2, 99 + i as u64)).collect();
        let mut parts = Vec::new();
        router.split_into(&a, &mut parts);
        assert_eq!(parts, router.split(&a));
        // Second call over the same scratch: fully refilled, no stale keys.
        router.split_into(&b, &mut parts);
        assert_eq!(parts, router.split(&b));
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, b.len());
    }

    /// Distinct keys routed to one shard (forcing misses, since every key
    /// is fresh).
    fn fresh_keys_for_shard(
        router: &ShardRouter,
        shard: usize,
        n: usize,
        salt: u64,
    ) -> Vec<VectorKey> {
        (0..)
            .map(|i| key(1, salt + i as u64))
            .filter(|&k| router.shard_of(k) == shard)
            .take(n)
            .collect()
    }

    /// Regression (PR 5): the rebalancer must feed the placement policy
    /// per-epoch traffic *deltas*, not cumulative history. Before the fix
    /// it re-placed from cumulative counters, so a shard that dominated
    /// an old phase kept its oversized share forever — and the stale mass
    /// was re-acted on at every subsequent fire.
    fn delta_rebalancer_system() -> ShardedRecMgSystem {
        use crate::tier::WorkingSet;
        let cfg = RecMgConfig::tiny();
        let caching = CachingModel::new(&cfg);
        let codec = FrequencyRankCodec::from_accesses(&[key(0, 1)]);
        ShardedRecMgSystem::builder(&caching, None, codec)
            .shards(2)
            .capacity(64)
            .placement(WorkingSet::with_floor(4))
            .build()
    }

    #[test]
    fn rebalancer_snapshots_and_deltas_per_epoch() {
        use crate::tier::Rebalancer;
        let mut sys = delta_rebalancer_system();
        let router = sys.router();
        let mut rb = Rebalancer::new(1);
        // Phase A: 400 fresh keys (all misses) into shard 0's key space.
        let a = fresh_keys_for_shard(&router, 0, 400, 0);
        sys.process_batch(&a);
        assert!(rb.maybe_rebalance(&mut sys), "phase A mass moves capacity");
        assert!(
            sys.shard_buffer(0).capacity() > sys.shard_buffer(1).capacity(),
            "phase A: shard 0 dominates"
        );
        // Quiescent: no fresh traffic, no fire — stale counters must not
        // keep re-triggering.
        let fires_before = rb.fires();
        for _ in 0..5 {
            assert!(!rb.maybe_rebalance(&mut sys), "quiescent system refired");
        }
        assert_eq!(rb.fires(), fires_before);
        // Phase B: *less* traffic than phase A, but all of it on shard 1.
        // Cumulative mass still favors shard 0 (400 vs 200); the epoch
        // delta favors shard 1 (0 vs 200) — placement must track the
        // current phase.
        let b = fresh_keys_for_shard(&router, 1, 200, 1_000_000);
        sys.process_batch(&b);
        assert!(rb.maybe_rebalance(&mut sys), "phase B delta moves capacity");
        assert!(
            sys.shard_buffer(1).capacity() > sys.shard_buffer(0).capacity(),
            "delta-driven placement follows the new phase: {} vs {}",
            sys.shard_buffer(0).capacity(),
            sys.shard_buffer(1).capacity()
        );
        assert_eq!(sys.capacity(), 64, "working-set shares conserve capacity");
        assert_eq!(rb.rebalances(), 2);
        assert_eq!(rb.phase_fires(), 0, "no phase trigger configured");
    }

    #[test]
    fn rebalance_fire_defers_while_queue_nonempty() {
        use crate::tier::Rebalancer;
        let mut sys = delta_rebalancer_system();
        let router = sys.router();
        let mut rb = Rebalancer::new(1);
        let a = fresh_keys_for_shard(&router, 0, 400, 0);
        sys.process_batch(&a);
        let before = sys.shard_buffer(0).capacity();
        // A fire during nonzero queue depth is a typed deferral that
        // neither acts nor consumes the trigger.
        let err = rb.try_rebalance(&mut sys, 3).unwrap_err();
        assert_eq!(err.queue_depth, 3);
        assert_eq!(sys.shard_buffer(0).capacity(), before, "did not act");
        assert_eq!((rb.fires(), rb.deferrals()), (0, 1));
        assert!(err.to_string().contains("queue depth 3"));
        // The same fire re-raises on the next quiescent check.
        assert!(rb.try_rebalance(&mut sys, 0).expect("quiescent"));
        assert_eq!((rb.fires(), rb.rebalances()), (1, 1));
        // No pending fire: Ok(false) regardless of queue depth.
        assert!(!rb.try_rebalance(&mut sys, 9).expect("no fire pending"));
        assert_eq!(rb.deferrals(), 1);
    }

    #[test]
    fn working_set_stats_flow_through_system_accessors() {
        let mut sys = delta_rebalancer_system();
        let router = sys.router();
        let batch = fresh_keys_for_shard(&router, 0, 50, 0);
        sys.process_batch(&batch);
        let ws = sys.shard_working_set(0);
        assert_eq!(ws.unique_keys, 50, "exact below the sketch threshold");
        assert_eq!(sys.shard_working_set(1).unique_keys, 0);
        assert_eq!(sys.unique_keys(), 50);
        assert_eq!(sys.shard_traffics()[0].unique_keys, 50);
        // No epoch completed yet at default epoch length: no phase signal.
        assert_eq!(sys.max_phase_score(), 0.0);
    }

    #[test]
    fn rebalance_grows_hot_shard_under_working_set() {
        use crate::tier::WorkingSet;
        let cfg = RecMgConfig::tiny();
        let caching = CachingModel::new(&cfg);
        let codec = FrequencyRankCodec::from_accesses(&[key(0, 1)]);
        let mut sys = ShardedRecMgSystem::builder(&caching, None, codec)
            .shards(2)
            .capacity(64)
            .placement(WorkingSet::with_floor(4))
            .build();
        // Drive all traffic to one shard's key space.
        let hot_shard = sys.router().shard_of(key(0, 7));
        let stream: Vec<VectorKey> = (0..400)
            .map(|i| key(0, 7 + 1000 * (i % 3) as u64))
            .filter(|&k| sys.router().shard_of(k) == hot_shard)
            .collect();
        assert!(!stream.is_empty());
        sys.process_batch(&stream);
        assert!(sys.demand_accesses() > 0);
        let before = sys.shard_buffer(hot_shard).capacity();
        assert!(sys.rebalance(), "skewed mass must move capacity");
        let after = sys.shard_buffer(hot_shard).capacity();
        assert!(after > before, "hot shard grew: {before} -> {after}");
        // Total capacity is conserved exactly under WorkingSet.
        assert_eq!(sys.capacity(), 64);
    }
}
