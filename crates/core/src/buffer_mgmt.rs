//! Algorithms 1 and 2: model-guided GPU-buffer management (paper §VI-B).
//!
//! * **Algorithm 1** (`load_embeddings`): after each chunk of accesses, the
//!   caching model's bit `C[i]` sets the priority of trunk entry `T[i]` to
//!   `C[i] + eviction_speed`, and every prefetch-model output is fetched
//!   into the buffer at priority `eviction_speed` (protected from premature
//!   eviction).
//! * **Algorithm 2** (`gpu_buffer_populate`): when space is needed, every
//!   resident entry's priority decays by one and the minimum-priority entry
//!   is evicted — realized lazily by [`GpuBuffer::populate`].
//!
//! A larger `eviction_speed` keeps prefetched embeddings resident longer
//! relative to model-demoted entries; the default of 4 follows the paper
//! ("inspired by the RRIP hardware prefetcher algorithm").

use recmg_cache::{BufferAccess, GpuBuffer};
use recmg_trace::VectorKey;

use crate::backend::{BackendAdvice, BackendSpec, TierBackend, ROW_BYTES};
use crate::config::{SketchConfig, TierCost};
use crate::sketch::{WorkingSetStats, WorkingSetTracker};
use crate::tier::MemoryTier;

pub(crate) use crate::backend::FillHandle;

/// Cumulative tier-traffic accounting of one [`RecMgBuffer`]: how many
/// buffer events the backing memory tier served and what they cost under
/// that tier's [`TierCost`] model. Counters merge losslessly across shards
/// (per-tier aggregation in [`crate::TierUsage`]) and subtract cleanly
/// between snapshots (per-run deltas in engine/session reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierTraffic {
    /// Resident accesses served from the tier (cache + prefetch hits).
    pub hits: u64,
    /// On-demand fetches into the tier.
    pub misses: u64,
    /// Speculative (prefetch) fills into the tier.
    pub prefetch_fills: u64,
    /// Demand fills that landed asynchronously: a missed key promoted by
    /// a background fill thread after the miss was already served at slow
    /// cost ([`crate::FillMode::Async`]). Always 0 in blocking mode,
    /// where the fill is folded into the miss itself.
    pub demand_fills: u64,
    /// Accumulated hit-weighted access cost in nanoseconds
    /// (`hits × hit_ns + misses × miss_ns + fills × fill_ns`, plus any
    /// rebalance migration charges).
    pub cost_ns: u64,
    /// Sketched working-set footprint: estimated distinct keys demanded
    /// over the buffer's sliding sketch window ([`crate::sketch`]).
    /// Unlike the counters above this is a *point-in-time estimate*, not
    /// a cumulative count: [`TierTraffic::accumulate`] sums it (shard key
    /// spaces are disjoint, so per-shard footprints add losslessly into a
    /// tier footprint) and [`TierTraffic::delta_since`] keeps the current
    /// value (a "delta of cardinalities" has no meaning — reports show
    /// the live footprint, exactly like `TierUsage`'s occupancy fields).
    pub unique_keys: u64,
}

impl TierTraffic {
    /// Demand accesses observed (hits + misses) — the access-mass signal
    /// working-set placement sizes shard buffers from.
    pub fn demand(&self) -> u64 {
        self.hits + self.misses
    }

    /// Adds `other` into `self` (lossless merge across shards — the shard
    /// router is a partition, so even the sketched `unique_keys`
    /// footprints add without double counting).
    pub fn accumulate(&mut self, other: TierTraffic) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.prefetch_fills += other.prefetch_fills;
        self.demand_fills += other.demand_fills;
        self.cost_ns += other.cost_ns;
        self.unique_keys += other.unique_keys;
    }

    /// Counter-wise `self - before` (both cumulative snapshots of the same
    /// buffers; saturating so a rebalanced/rebuilt shard never underflows).
    /// `unique_keys` is point-in-time, not a counter: the delta keeps the
    /// later snapshot's value.
    pub fn delta_since(&self, before: &TierTraffic) -> TierTraffic {
        TierTraffic {
            hits: self.hits.saturating_sub(before.hits),
            misses: self.misses.saturating_sub(before.misses),
            prefetch_fills: self.prefetch_fills.saturating_sub(before.prefetch_fills),
            demand_fills: self.demand_fills.saturating_sub(before.demand_fills),
            cost_ns: self.cost_ns.saturating_sub(before.cost_ns),
            unique_keys: self.unique_keys,
        }
    }
}

/// The RecMG-managed GPU buffer: eviction metadata ([`GpuBuffer`]) plus
/// the actual row bytes on this tier's storage backend
/// ([`crate::backend`]). The entry's slot is the row's slot: the
/// metadata alone says which keys are resident and where, and the row of
/// a resident key is whatever the backend holds at that slot.
#[derive(Debug)]
pub struct RecMgBuffer {
    buffer: GpuBuffer,
    /// Row bytes (heap, mapped file, or plain file), addressed by
    /// `buffer`'s slots.
    rows: Box<dyn TierBackend>,
    /// The spec `rows` was created from (where a platform lacks the file
    /// APIs, the backend standing in reports a different one).
    backend: BackendSpec,
    /// When present, demand misses queue here instead of filling inline
    /// ([`crate::FillMode::Async`]).
    fill: Option<FillHandle>,
    eviction_speed: u64,
    /// Access-cost model of the memory tier backing this buffer.
    cost: TierCost,
    traffic: TierTraffic,
    /// Sliding-window unique-key sketch over the demand stream — the
    /// working-set footprint and phase-change signal placement reacts to.
    tracker: WorkingSetTracker,
}

impl Clone for RecMgBuffer {
    fn clone(&self) -> Self {
        RecMgBuffer {
            buffer: self.buffer.clone(),
            rows: Self::rows_for(&self.buffer, self.backend),
            backend: self.backend,
            fill: self.fill.clone(),
            eviction_speed: self.eviction_speed,
            cost: self.cost,
            traffic: self.traffic,
            tracker: self.tracker.clone(),
        }
    }
}

impl RecMgBuffer {
    /// Creates a buffer of `capacity` vectors with the given eviction
    /// speed, backed by an implicit free tier ([`TierCost::FREE`]: events
    /// are counted but cost nothing) on the heap, with the default sketch
    /// shape.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, eviction_speed: u64) -> Self {
        Self::with_backend_spec(
            capacity,
            eviction_speed,
            TierCost::FREE,
            SketchConfig::default(),
            BackendSpec::Dram,
        )
    }

    /// Creates a buffer priced by a memory tier's access-cost model, with
    /// an explicit working-set sketch shape, whose row bytes live on an
    /// explicit storage backend
    /// ([`SystemBuilder::build`](crate::SystemBuilder::build) routes every
    /// shard buffer through here with its tier's cost and [`BackendSpec`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `sketch` is invalid.
    pub fn with_backend_spec(
        capacity: usize,
        eviction_speed: u64,
        cost: TierCost,
        sketch: SketchConfig,
        backend: BackendSpec,
    ) -> Self {
        let buffer = GpuBuffer::new(capacity);
        RecMgBuffer {
            rows: Self::rows_for(&buffer, backend),
            buffer,
            backend,
            fill: None,
            eviction_speed,
            cost,
            traffic: TierTraffic::default(),
            tracker: WorkingSetTracker::new(sketch),
        }
    }

    /// The storage backend holding this buffer's row bytes.
    pub fn backend_spec(&self) -> BackendSpec {
        self.backend
    }

    /// A fresh backend of `spec` sized to `buffer`'s capacity, hinted for
    /// random access (the demand path's pattern) and holding the rows of
    /// exactly `buffer`'s residents, each at its slot. Rows are a pure
    /// function of the key, so this is also how they are cloned, resized
    /// and moved between backends: nothing is copied tier-to-tier.
    fn rows_for(buffer: &GpuBuffer, spec: BackendSpec) -> Box<dyn TierBackend> {
        let mut rows = spec.create(buffer.capacity());
        rows.advise(BackendAdvice::Random);
        rows.fill_batch(&buffer.slots().collect::<Vec<_>>());
        rows
    }

    /// Re-creates the rows on `spec` from the metadata as it is now; the
    /// old backend — and any temp file it held — is dropped here.
    fn rebuild_rows(&mut self, spec: BackendSpec) {
        self.rows = Self::rows_for(&self.buffer, spec);
        self.backend = spec;
    }

    /// Attaches (or detaches, with `None`) the async fill handle — set by
    /// the builder for every shard of a [`crate::FillMode::Async`] system.
    pub(crate) fn set_fill_handle(&mut self, fill: Option<FillHandle>) {
        self.fill = fill;
    }

    /// Whether misses route through an async fill queue.
    pub fn has_fill_handle(&self) -> bool {
        self.fill.is_some()
    }

    /// Copies `key`'s row bytes out of the backend, `None` when the key
    /// is not resident. This is the parity oracle's read path: identical
    /// bytes across backends for the same key.
    pub fn read_row(&self, key: VectorKey) -> Option<[u8; ROW_BYTES]> {
        let mut row = [0u8; ROW_BYTES];
        self.rows.read_row(self.buffer.slot_of(key)?, &mut row);
        Some(row)
    }

    /// The configured eviction speed.
    pub fn eviction_speed(&self) -> u64 {
        self.eviction_speed
    }

    /// The tier access-cost model currently applied.
    pub fn cost(&self) -> TierCost {
        self.cost
    }

    /// Cumulative tier traffic of this buffer, with the sketched
    /// working-set footprint filled in (`unique_keys` is the tracker's
    /// current windowed estimate, computed at call time — an `O(m)`
    /// register scan, cheap at reporting/rebalancing frequency and free
    /// on the per-access path).
    pub fn traffic(&self) -> TierTraffic {
        let mut t = self.traffic;
        t.unique_keys = self.tracker.unique_keys();
        t
    }

    /// Point-in-time working-set statistics of the demand stream: windowed
    /// unique keys, last epoch's footprint, and the phase score the
    /// rebalancer's phase trigger fires on.
    pub fn working_set(&self) -> WorkingSetStats {
        self.tracker.stats()
    }

    /// Cumulative demand accesses (hits + misses) from the raw counters —
    /// unlike [`RecMgBuffer::traffic`] this never touches the sketch, so
    /// it is safe to poll on every batch (the rebalancer's trigger check).
    pub fn demand_count(&self) -> u64 {
        self.traffic.demand()
    }

    /// Phase score of the last completed sketch epoch — cached on the
    /// tracker, `O(1)` (no window merge), safe to poll on every batch.
    pub fn phase_score(&self) -> f64 {
        self.tracker.phase_score()
    }

    /// Demand accesses per sketch epoch (phase scores update at this
    /// granularity).
    pub fn sketch_epoch_len(&self) -> u64 {
        self.tracker.epoch_len()
    }

    /// Re-sizes the buffer in place (shrinking evicts minimum-priority
    /// entries first), keeping traffic counters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn resize(&mut self, capacity: usize) {
        self.buffer.set_capacity(capacity);
        // Fresh rows at the new slot count: a shrink evicted the coldest
        // and may have renumbered the survivors' slots.
        self.rebuild_rows(self.backend);
    }

    /// The one shard move, for the quiescent rebalance and a live
    /// migration alike: keeps the buffer's own residents re-sized to
    /// `capacity` (shrinking evicts coldest unpinned entries first),
    /// rebuilds their rows once on the destination tier's backend,
    /// re-prices at its cost model and charges every kept entry its
    /// `fill_ns`. Returns the charge.
    ///
    /// Traffic counters, the working-set tracker and the eviction speed
    /// stay: only where the vectors live changes. The charge lands in the
    /// *cumulative* counters, which a moved shard's whole history follows
    /// to its new tier — so callers that want churn in a metric snapshot
    /// *per-shard* traffic
    /// ([`ShardedRecMgSystem::shard_traffic`](crate::ShardedRecMgSystem::shard_traffic))
    /// around the move, as the serving bench does, not per-tier traffic.
    pub(crate) fn commit_move(&mut self, to: &MemoryTier, capacity: usize) -> u64 {
        self.buffer.set_capacity(capacity);
        let charge = self.buffer.len() as u64 * to.cost.fill_ns;
        self.cost = to.cost;
        self.traffic.cost_ns += charge;
        // The old store (and its temp file, for file-backed tiers) is
        // dropped here.
        self.rebuild_rows(to.backend);
        charge
    }

    /// Declares which tables' vectors are exempt from victim selection in
    /// this buffer (RecShard-style pins — see
    /// [`GpuBuffer::set_pinned_tables`]); an empty slice clears the set.
    pub fn set_pinned_tables(&mut self, tables: &[u32]) {
        self.buffer.set_pinned_tables(tables);
    }

    /// Demand access on the critical path: classifies the access and, on a
    /// miss, fetches the vector on demand (evicting via Algorithm 2 if
    /// full). Newly fetched vectors enter at neutral priority
    /// `eviction_speed`; their final priority arrives with the next
    /// caching-model output (Algorithm 1).
    ///
    /// Tier accounting: hits charge `hit_ns`, misses charge `miss_ns`.
    pub fn access(&mut self, key: VectorKey) -> BufferAccess {
        // Every demand access feeds the working-set sketch (hits and
        // misses alike — the footprint is about reuse, not residency);
        // speculative prefetch fills deliberately do not, so a
        // mispredicting prefetcher cannot inflate the footprint signal
        // placement sizes capacity from.
        self.tracker.observe(key.as_u64());
        let mut row = [0u8; ROW_BYTES];
        let Some((slot, hit)) = self.buffer.lookup_slot(key) else {
            self.traffic.misses += 1;
            match &self.fill {
                // Async: serve the miss from the slow side now (the fill
                // portion of the miss cost is deferred to the promotion
                // that a background thread lands later) and queue the key.
                // The deferred fill cost travels with the queue entry so
                // the promotion charges *this* tier's fill_ns even if the
                // shard migrates (re-prices) before the fill lands.
                // Residency is untouched until then, so accesses in
                // between are honest misses.
                Some(handle) => {
                    let fill_ns = self.cost.fill_ns;
                    self.traffic.cost_ns += self.cost.miss_ns.saturating_sub(fill_ns);
                    handle.queue.push(handle.shard, key, fill_ns);
                }
                // Blocking: the historical read-through — install the row
                // and serve it inline (the demand fetch crosses the tier
                // once for the write and once for the serve), one miss_ns
                // covering both.
                None => {
                    self.traffic.cost_ns += self.cost.miss_ns;
                    let slot = self.install(key);
                    self.rows.read_row(slot, &mut row);
                }
            }
            return BufferAccess::Miss;
        };
        self.traffic.hits += 1;
        self.traffic.cost_ns += self.cost.hit_ns;
        // The serve itself: a resident access really reads the row off
        // this tier's storage.
        self.rows.read_row(slot, &mut row);
        hit
    }

    /// Makes `key` resident at neutral priority — Algorithm 2 first when
    /// the buffer is full, and the victim's slot is then the one `key`
    /// takes — and writes its row there. Returns the slot.
    fn install(&mut self, key: VectorKey) -> usize {
        if self.buffer.is_full() {
            self.buffer.populate();
        }
        let slot = self.buffer.insert(key, self.eviction_speed, false);
        self.rows.fill_batch(&[(slot, key)]);
        slot
    }

    /// Lands one asynchronous demand fill (called by a background fill
    /// thread under the shard lock): installs the row, promotes the key
    /// into residency at neutral priority, and charges `fill_ns` — the
    /// deferred fill cost carried on the queue entry from the miss, so
    /// the miss/promotion pair always sums to the *origin* tier's
    /// `miss_ns` even when the shard migrated in between. Returns `false`
    /// — and changes nothing — when the key is already resident (a
    /// prefetch or an earlier fill won the race).
    pub(crate) fn promote_fill(&mut self, key: VectorKey, fill_ns: u64) -> bool {
        if self.buffer.contains(key) {
            return false;
        }
        self.install(key);
        self.traffic.demand_fills += 1;
        self.traffic.cost_ns += fill_ns;
        true
    }

    /// Algorithm 1: applies the caching model's bits `c` to the trunk `t`
    /// and fetches the prefetch model's outputs `p`.
    ///
    /// The 1-bit priority maps to the buffer's priority scale as
    /// keep → `eviction_speed + 1`, evict → `0`. The paper's literal
    /// `C[i] + eviction_speed` encodes the same one-unit relative gap on a
    /// per-eviction decay scale; with this buffer's per-pass decay
    /// (see [`recmg_cache::GpuBuffer`]) the gap must span the full scale,
    /// otherwise model-rejected vectors — which OPTgen labels precisely
    /// because the optimal policy would *bypass* them — would pollute the
    /// buffer for a pass and the system could not approach the optgen
    /// hit rates of Fig. 8.
    ///
    /// # Panics
    ///
    /// Panics if `t` and `c` differ in length.
    pub fn load_embeddings(&mut self, t: &[VectorKey], c: &[bool], p: &[VectorKey]) {
        assert_eq!(t.len(), c.len(), "one caching bit per trunk entry");
        // Lines 4-6: keep-labeled trunk entries are protected, evict-labeled
        // ones drop to the eviction floor (OPT-bypass approximation).
        for (&key, &bit) in t.iter().zip(c) {
            let prio = if bit { self.eviction_speed + 1 } else { 0 };
            self.buffer.set_priority(key, prio);
        }
        // Lines 9-14: prefetch P[i] and protect it. A prefetch is dropped
        // rather than inserted when every resident entry is still
        // protected (min priority ≥ eviction_speed): evicting a
        // model-endorsed or not-yet-classified vector for a speculative
        // one inverts the system's own priority order and, at moderate
        // prefetch accuracy, pollutes the buffer (the failure mode
        // Table IV attributes to Berti/MAB).
        for &key in p {
            // Already resident: just refresh its protection.
            if self.buffer.set_priority(key, self.eviction_speed) {
                continue;
            }
            if self.buffer.is_full() {
                if self.buffer.min_priority().unwrap_or(0) >= self.eviction_speed {
                    continue;
                }
                self.buffer.evict_min();
            }
            // Speculative entries start with one decay period of
            // protection; a prefetch hit upgrades them through the normal
            // Algorithm-1 path on their first demand touch. Holding them at
            // full `eviction_speed` protection would let mispredictions
            // occupy ~eviction_speed passes of capacity.
            let slot = self.buffer.insert(key, 1, true);
            self.rows.fill_batch(&[(slot, key)]);
            // A real fill into the tier: charge it.
            self.traffic.prefetch_fills += 1;
            self.traffic.cost_ns += self.cost.fill_ns;
        }
    }

    /// Read access to the underlying buffer.
    pub fn buffer(&self) -> &GpuBuffer {
        &self.buffer
    }

    /// Buffer capacity in vectors.
    pub fn capacity(&self) -> usize {
        self.buffer.capacity()
    }

    /// Current residency.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use recmg_trace::{RowId, TableId};

    fn key(r: u64) -> VectorKey {
        VectorKey::new(TableId(0), RowId(r))
    }

    /// A heap-backed buffer at eviction speed 4 priced at `cost`.
    fn priced(capacity: usize, cost: TierCost) -> RecMgBuffer {
        RecMgBuffer::with_backend_spec(
            capacity,
            4,
            cost,
            SketchConfig::default(),
            BackendSpec::Dram,
        )
    }

    #[test]
    fn demand_miss_inserts() {
        let mut b = RecMgBuffer::new(2, 4);
        assert_eq!(b.access(key(1)), BufferAccess::Miss);
        assert_eq!(b.access(key(1)), BufferAccess::CacheHit);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn prefetched_vectors_classified_on_first_touch() {
        let mut b = RecMgBuffer::new(4, 4);
        b.load_embeddings(&[], &[], &[key(9)]);
        assert_eq!(b.access(key(9)), BufferAccess::PrefetchHit);
        assert_eq!(b.access(key(9)), BufferAccess::CacheHit);
    }

    #[test]
    fn caching_bits_bias_eviction() {
        let mut b = RecMgBuffer::new(3, 4);
        for r in 1..=3 {
            b.access(key(r));
        }
        // Model says: keep 1 and 3 (bit 1), demote 2 (bit 0).
        b.load_embeddings(&[key(1), key(2), key(3)], &[true, false, true], &[]);
        // Next demand miss must evict key(2).
        b.access(key(4));
        assert!(!b.buffer().contains(key(2)));
        assert!(b.buffer().contains(key(1)));
        assert!(b.buffer().contains(key(3)));
    }

    #[test]
    fn prefetches_outlive_demoted_entries() {
        let mut b = RecMgBuffer::new(3, 4);
        b.access(key(1));
        b.access(key(2));
        b.load_embeddings(&[key(1), key(2)], &[false, false], &[key(7)]);
        assert!(b.buffer().contains(key(7)));
        // Two more demand misses: the demoted 1 and 2 go first.
        b.access(key(8));
        b.access(key(9));
        assert!(b.buffer().contains(key(7)), "prefetch evicted early");
    }

    #[test]
    fn algorithm1_full_buffer_populates_before_prefetch() {
        let mut b = RecMgBuffer::new(2, 4);
        b.access(key(1));
        b.access(key(2));
        assert_eq!(b.len(), 2);
        // Both entries demoted: the prefetch may displace one.
        b.load_embeddings(&[key(1), key(2)], &[false, false], &[key(3)]);
        assert_eq!(b.len(), 2); // one was evicted to make room
        assert!(b.buffer().contains(key(3)));
    }

    #[test]
    fn prefetch_never_displaces_protected_entries() {
        let mut b = RecMgBuffer::new(2, 4);
        b.access(key(1));
        b.access(key(2));
        b.load_embeddings(&[key(1), key(2)], &[true, true], &[key(3)]);
        // Everything resident is protected: the speculative insert is
        // dropped instead of displacing an endorsed vector.
        assert!(!b.buffer().contains(key(3)));
        assert!(b.buffer().contains(key(1)));
        assert!(b.buffer().contains(key(2)));
    }

    #[test]
    fn eviction_speed_accessor() {
        let b = RecMgBuffer::new(2, 7);
        assert_eq!(b.eviction_speed(), 7);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "one caching bit per trunk entry")]
    fn mismatched_bits_panic() {
        let mut b = RecMgBuffer::new(2, 4);
        b.load_embeddings(&[key(1)], &[], &[]);
    }

    #[test]
    fn tier_traffic_accounts_hits_misses_and_fills() {
        let cost = TierCost::synthetic(10, 100, 40);
        let mut b = priced(8, cost);
        assert_eq!(b.cost(), cost);
        b.access(key(1)); // miss
        b.access(key(1)); // hit
        b.load_embeddings(&[key(1)], &[true], &[key(2), key(1)]); // 1 fill (key 1 resident)
        b.access(key(2)); // prefetch hit
        let t = b.traffic();
        assert_eq!(t.misses, 1);
        assert_eq!(t.hits, 2);
        assert_eq!(t.prefetch_fills, 1);
        assert_eq!(t.cost_ns, 100 + 2 * 10 + 40);
        assert_eq!(t.demand(), 3);
        // Two distinct keys demanded (the prefetch fill of key 2 does not
        // count until its demand touch).
        assert_eq!(t.unique_keys, 2);
    }

    #[test]
    fn working_set_tracks_distinct_demand_keys() {
        let mut b = RecMgBuffer::new(8, 4);
        for r in 0..5 {
            b.access(key(r));
            b.access(key(r)); // repeats are free
        }
        let ws = b.working_set();
        assert_eq!(ws.unique_keys, 5);
        assert_eq!(b.traffic().unique_keys, 5);
        assert_eq!(ws.epochs, 0, "default epoch length not reached");
        assert!(b.sketch_epoch_len() > 0);
        // Prefetch fills do not inflate the footprint.
        b.load_embeddings(&[], &[], &[key(77)]);
        assert_eq!(b.working_set().unique_keys, 5);
    }

    #[test]
    fn sketch_config_shapes_the_tracker() {
        let sketch = SketchConfig {
            epoch_len: 4,
            window_epochs: 2,
            ..SketchConfig::tiny()
        };
        let mut b = RecMgBuffer::with_backend_spec(8, 4, TierCost::FREE, sketch, BackendSpec::Dram);
        assert_eq!(b.sketch_epoch_len(), 4);
        for r in 0..8 {
            b.access(key(r));
        }
        assert_eq!(b.working_set().epochs, 2);
    }

    #[test]
    fn free_tier_counts_but_costs_nothing() {
        let mut b = RecMgBuffer::new(4, 4);
        b.access(key(1));
        b.access(key(1));
        let t = b.traffic();
        assert_eq!(t.misses, 1);
        assert_eq!(t.hits, 1);
        assert_eq!(t.cost_ns, 0);
    }

    #[test]
    fn traffic_merge_and_delta_are_lossless() {
        let a = TierTraffic {
            hits: 5,
            misses: 2,
            prefetch_fills: 1,
            demand_fills: 1,
            cost_ns: 70,
            unique_keys: 4,
        };
        let mut m = a;
        m.accumulate(TierTraffic {
            hits: 1,
            misses: 1,
            prefetch_fills: 0,
            demand_fills: 2,
            cost_ns: 30,
            unique_keys: 3,
        });
        assert_eq!(m.hits, 6);
        assert_eq!(m.demand_fills, 3);
        assert_eq!(m.cost_ns, 100);
        // Disjoint shard footprints add.
        assert_eq!(m.unique_keys, 7);
        let d = m.delta_since(&a);
        assert_eq!(d.hits, 1);
        assert_eq!(d.misses, 1);
        assert_eq!(d.cost_ns, 30);
        // Point-in-time field: the delta carries the later snapshot.
        assert_eq!(d.unique_keys, 7);
        // Saturation guard (counters zero; unique_keys stays `a`'s view).
        let sat = a.delta_since(&m);
        assert_eq!((sat.hits, sat.misses, sat.cost_ns), (0, 0, 0));
        assert_eq!(sat.unique_keys, 4);
    }

    #[test]
    fn a_move_keeps_history_and_reprices() {
        let mut b = priced(4, TierCost::cxl_like());
        for r in 1..=3 {
            b.access(key(r));
        }
        let before = b.traffic();
        let footprint = b.working_set().unique_keys;
        let fast = MemoryTier::dram(8);
        let charge = b.commit_move(&fast, 8);
        assert_eq!(charge, 3 * fast.cost.fill_ns, "three kept residents");
        assert_eq!(b.capacity(), 8);
        assert_eq!(b.cost(), fast.cost);
        // The kept residents' rows materialized on the new backend.
        assert!(b.read_row(key(1)).is_some());
        assert!(b.read_row(key(4)).is_none());
        let t = b.traffic();
        assert_eq!((t.hits, t.misses), (before.hits, before.misses));
        assert_eq!(t.cost_ns, before.cost_ns + charge);
        assert_eq!(b.working_set().unique_keys, footprint, "sketch continuous");
        assert_eq!(b.access(key(1)), BufferAccess::CacheHit);
    }

    #[test]
    fn resize_and_migration_charge() {
        let mut b = priced(4, TierCost::synthetic(0, 0, 0));
        for r in 1..=4 {
            b.access(key(r));
        }
        assert_eq!(b.len(), 4);
        b.resize(3);
        assert_eq!((b.capacity(), b.len()), (3, 3));
        // An in-place move re-sizes first and charges the survivors.
        let slow = MemoryTier::cxl(2);
        assert_eq!(b.commit_move(&slow, 2), 2 * slow.cost.fill_ns);
        assert_eq!((b.capacity(), b.len()), (2, 2));
        assert_eq!(b.traffic().cost_ns, 2 * slow.cost.fill_ns);
        assert_eq!(b.cost(), slow.cost);
    }

    #[test]
    fn rows_track_residency_across_demand_prefetch_and_resize() {
        let mut b = RecMgBuffer::new(3, 4);
        assert_eq!(b.backend_spec(), crate::backend::BackendSpec::Dram);
        b.access(key(1));
        b.load_embeddings(&[], &[], &[key(2)]);
        let mut expect = [0u8; ROW_BYTES];
        crate::backend::synth_row(key(1), &mut expect);
        assert_eq!(b.read_row(key(1)), Some(expect));
        assert!(b.read_row(key(2)).is_some());
        assert!(b.read_row(key(9)).is_none());
        // Evictions free rows: demote everything, then miss twice.
        b.load_embeddings(&[key(1), key(2)], &[false, false], &[]);
        b.access(key(3));
        b.access(key(4));
        for r in 1..=4 {
            assert_eq!(
                b.read_row(key(r)).is_some(),
                b.buffer().contains(key(r)),
                "row {r} does not follow residency"
            );
        }
        // A shrink keeps rows only for the metadata survivors.
        b.resize(2);
        assert_eq!(b.len(), 2);
        for r in 1..=4 {
            assert_eq!(b.read_row(key(r)).is_some(), b.buffer().contains(key(r)));
        }
        // Moving to a file backend preserves the exact bytes.
        let survivors: Vec<_> = b.buffer().keys().collect();
        let file = MemoryTier::new("file", 2, TierCost::FREE).with_backend(BackendSpec::File);
        b.commit_move(&file, 2);
        assert_eq!(b.backend_spec(), crate::backend::BackendSpec::File);
        for k in survivors {
            let mut expect = [0u8; ROW_BYTES];
            crate::backend::synth_row(k, &mut expect);
            assert_eq!(b.read_row(k), Some(expect));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // The row side of the one-table design: whatever the metadata
        // does to slots — reuse on eviction, renumbering on a shrink,
        // a fresh store on resize or move — a resident key's row is
        // its own bytes, inside the backend, at a slot nobody shares.
        #[test]
        fn rows_follow_slots(
            capacity in 1usize..12,
            ops in prop::collection::vec((0u8..9, 0u64..24, 0u64..24, 0u8..4), 1..80),
        ) {
            use crate::backend::synth_row;
            for spec in [BackendSpec::Dram, BackendSpec::MappedFile, BackendSpec::File] {
                let mut b = RecMgBuffer::with_backend_spec(
                    capacity,
                    4,
                    TierCost::FREE,
                    SketchConfig::default(),
                    spec,
                );
                for &(op, r, other, bits) in &ops {
                    match op {
                        0..=3 => {
                            b.access(key(r));
                        }
                        4 | 5 => b.load_embeddings(
                            &[key(r), key(other)],
                            &[bits & 1 == 1, bits & 2 == 2],
                            &[key(r + 1), key(other + 1)],
                        ),
                        6 => {
                            b.promote_fill(key(r), 5);
                        }
                        7 => b.resize(other as usize % 12 + 1),
                        _ => {
                            let to = MemoryTier::new("to", 1, TierCost::FREE).with_backend(
                                match bits % 3 {
                                    0 => BackendSpec::Dram,
                                    1 => BackendSpec::MappedFile,
                                    _ => BackendSpec::File,
                                },
                            );
                            b.commit_move(&to, other as usize % 12 + 1);
                        }
                    }
                    let mut slots: Vec<usize> = b.buffer().slots().map(|(s, _)| s).collect();
                    slots.sort_unstable();
                    slots.dedup();
                    prop_assert_eq!(slots.len(), b.len(), "two residents share a slot");
                    prop_assert!(slots.last().is_none_or(|&s| s < b.capacity()));
                    for (slot, k) in b.buffer().slots() {
                        prop_assert_eq!(b.buffer().slot_of(k), Some(slot));
                        let mut expect = [0u8; ROW_BYTES];
                        synth_row(k, &mut expect);
                        prop_assert_eq!(b.read_row(k), Some(expect));
                    }
                    // Clones re-synthesize: same residents, same bytes.
                    if op == 7 {
                        let c = b.clone();
                        for k in b.buffer().keys() {
                            prop_assert_eq!(c.read_row(k), b.read_row(k));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn async_misses_defer_fill_and_promotion_lands_it() {
        use crate::backend::{FillHandle, FillQueue};
        use std::sync::Arc;
        let cost = TierCost::synthetic(10, 100, 40);
        let queue = Arc::new(FillQueue::new(8));
        let mut b = priced(4, cost);
        b.set_fill_handle(Some(FillHandle {
            queue: Arc::clone(&queue),
            shard: 0,
        }));
        // Miss: served at miss − fill, nothing resident yet.
        assert_eq!(b.access(key(1)), BufferAccess::Miss);
        assert_eq!(b.len(), 0);
        assert_eq!(b.traffic().cost_ns, 100 - 40);
        // Missing again before the fill lands is an honest miss; the
        // queue coalesces the duplicate.
        assert_eq!(b.access(key(1)), BufferAccess::Miss);
        let r = queue.report();
        assert_eq!((r.queued, r.coalesced), (1, 1));
        // The fill lands: row installed, the fill cost the queue entry
        // carried from the miss is charged.
        let (shard, k, fill_ns) = queue.pop_now().expect("queued fill");
        assert_eq!((shard, fill_ns), (0, 40));
        assert!(b.promote_fill(k, fill_ns));
        assert_eq!(b.traffic().demand_fills, 1);
        assert_eq!(b.traffic().cost_ns, 2 * (100 - 40) + 40);
        assert!(b.read_row(key(1)).is_some());
        assert_eq!(b.access(key(1)), BufferAccess::CacheHit);
        // A duplicate promotion is refused and charges nothing.
        let before = b.traffic();
        assert!(!b.promote_fill(key(1), fill_ns));
        assert_eq!(b.traffic(), before);
        // Conservation: every access was exactly one hit or one miss.
        let t = b.traffic();
        assert_eq!(t.hits + t.misses, 3);
        assert!(t.demand_fills <= t.misses);
    }

    #[test]
    fn promote_fill_charges_the_carried_cost_not_the_current_tier() {
        // A shard can migrate (be re-priced) between the miss and the
        // fill landing; the promotion must charge the origin tier's fill
        // cost carried on the queue entry, not the destination's, so the
        // deferred pair still sums to the origin miss_ns.
        let mut b = priced(4, TierCost::synthetic(10, 100, 40));
        let before = b.traffic().cost_ns;
        assert!(b.promote_fill(key(1), 25));
        assert_eq!(b.traffic().cost_ns - before, 25);
    }

    #[test]
    fn promote_fill_evicts_when_full_and_frees_the_victim_row() {
        let mut b = RecMgBuffer::new(2, 4);
        b.access(key(1));
        b.access(key(2));
        b.load_embeddings(&[key(1), key(2)], &[false, false], &[]);
        assert!(b.promote_fill(key(3), 5));
        assert_eq!(b.len(), 2);
        assert!(b.read_row(key(3)).is_some());
        // Exactly one of the demoted residents was displaced, and its row
        // slot was freed alongside the metadata.
        let survivors = [key(1), key(2)]
            .iter()
            .filter(|&&k| b.buffer().contains(k))
            .count();
        assert_eq!(survivors, 1);
        for k in [key(1), key(2)] {
            assert_eq!(b.read_row(k).is_some(), b.buffer().contains(k));
        }
    }
}
