//! Live migration: zero-quiescence rebalancing and hot-shard replication.
//!
//! The quiescent [`Rebalancer`](crate::Rebalancer) detects a hot-set flip
//! within ~1 sketch epoch and then has to wait for a session drain before
//! it may act — in production the system never drains. This module lets a
//! [`ServingSession`](crate::ServingSession) re-place shards **while
//! requests flow**, through the quiescent path's own pipeline: the same
//! planner (placement policy, routing install, per-shard pin sets) and the
//! same shard-move commit (rows rebuilt once on the destination tier,
//! re-priced, every copied entry charged its `fill_ns`). Only where the
//! kept residents come from differs — a warmed staging buffer instead of
//! the buffer's own, re-sized in place:
//!
//! * **Epoch-versioned routing** ([`RouteTable`] / [`RouteEpoch`]): every
//!   shard is routed [`ShardRoute::Direct`] or [`ShardRoute::Migrating`]
//!   (also mirror into a staging buffer), behind an arc-swap-style atomic
//!   pointer. Workers [`pin`](RouteTable::pin) the current epoch once per
//!   request without locks; a single writer publishes a new epoch with one
//!   pointer store and retires the old one only after every pinned reader
//!   has drained past the epoch fence. Replica installs and removals tick
//!   the epoch too: it is the clock replica TTLs are measured against.
//! * **Double-buffered placement** ([`LiveState`] + the background
//!   rebalancer loop): on a phase-trigger or access-count fire, the
//!   affected shard's new buffer is built at its new capacity/tier while
//!   the old one keeps serving. Staging starts with the shard's pin set
//!   and warms by *copy-on-access* (workers mirror the demanded keys the
//!   primary holds) plus a *paced background fill* of the primary's
//!   residents, pinned tables first, hottest first; once warm the route
//!   goes back to direct, in-flight requests drain past the fence, and the
//!   staged storage is committed under the shard lock
//!   ([`MigrationReport`]).
//! * **Read-hot replication** ([`ReplicationPolicy`] / `ReplicaState`):
//!   the working-set sketch decides
//!   replication degree — shards that are hot *and* read-dominant get a
//!   fast-tier replica of their celebrity keys, the way consistent-hash
//!   fleets replicate celebrity keys. Admission is two-touch: a key
//!   earns its replica slot on its second fresh primary hit, so a hot
//!   set larger than the replica cannot churn it with one-touch fills.
//!   Replica entries are stamped with
//!   the route epoch and invalidate through the same fence: a primary
//!   miss (the "write") evicts the entry immediately, and entries older
//!   than `TTL_EPOCHS` route epochs decay to absent. Counts stay
//!   canonical on the home shard; replication only re-prices hits
//!   ([`ReplicationReport`]).
//!
//! Demand conservation is the load-bearing invariant: every demand access
//! is recorded exactly once on whatever buffer is primary under the shard
//! mutex, staging/replica fills never count as demand, and the
//! double-buffer swap replaces only the storage — traffic counters and
//! the sketch stay on the shard. A migration is therefore invisible to
//! hit/miss totals (pinned by the 1-shard parity oracle in
//! `tests/integration_migration.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use recmg_cache::GpuBuffer;
use recmg_trace::VectorKey;

use crate::buffer_mgmt::{Kept, TierTraffic};
use crate::json::JsonWriter;
use crate::sharding::{GuidanceCtx, Shard};
use crate::table_profile::TableProfiler;
use crate::tier::{RebalanceTrigger, ShardPlacement, TierTopology};

/// Trigger-poll interval of the live rebalancer's background thread.
const CHECK_EVERY: Duration = Duration::from_micros(500);
/// Entries copied per background-fill step (under brief shard locks).
const FILL_BATCH: usize = 64;
/// Maximum replication degree per shard.
const MAX_DEGREE: usize = 4;
/// Replica entries older than this many route epochs decay to absent
/// (lease-style freshness through the epoch fence).
const TTL_EPOCHS: u64 = 8;

/// Per-shard serving route within one [`RouteEpoch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRoute {
    /// Serve the primary buffer only.
    Direct,
    /// Primary stays authoritative; workers additionally mirror demanded
    /// keys into the shard's staging buffer (copy-on-access warming).
    Migrating,
}

/// One immutable routing snapshot: the route of every shard, versioned by
/// a monotonically increasing epoch. Workers read a whole epoch at once,
/// so a request can never observe a torn route update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteEpoch {
    epoch: u64,
    routes: Vec<ShardRoute>,
}

impl RouteEpoch {
    /// The epoch number of this snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The route of shard `shard` ([`ShardRoute::Direct`] out of range).
    pub fn route(&self, shard: usize) -> ShardRoute {
        self.routes
            .get(shard)
            .copied()
            .unwrap_or(ShardRoute::Direct)
    }
}

/// An arc-swap-style epoch-versioned pointer to the current
/// [`RouteEpoch`].
///
/// Readers are wait-free in the absence of a concurrent publish (two
/// atomic loads + two counter RMWs, no locks); the single writer swaps
/// the pointer, bumps the epoch, then spins until every reader pinned in
/// the *previous* epoch's slot has dropped its guard — the epoch fence —
/// before freeing the retired snapshot. Slots alternate by epoch parity,
/// so readers of the new epoch never delay retirement of the old one.
///
/// ```
/// use recmg_core::migrate::{RouteTable, ShardRoute};
///
/// let table = RouteTable::new(2);
/// assert_eq!(table.pin().route(0), ShardRoute::Direct);
/// table.publish_with(|routes| routes[1] = ShardRoute::Migrating);
/// let pinned = table.pin();
/// assert_eq!(pinned.epoch(), 1);
/// assert_eq!(pinned.route(1), ShardRoute::Migrating);
/// ```
#[derive(Debug)]
pub struct RouteTable {
    ptr: AtomicPtr<RouteEpoch>,
    /// Shared with replica buffers so decay-TTL checks read the live
    /// epoch without reaching back into the table.
    epoch: Arc<AtomicU64>,
    /// Reader pin counts, indexed by epoch parity.
    pins: [AtomicUsize; 2],
    /// Serializes publishers (the rebalancer thread plus any manual
    /// migration/replication calls).
    writer: Mutex<()>,
}

/// A pinned, immutably borrowed [`RouteEpoch`]. Holding the guard keeps
/// the snapshot alive; the writer's fence waits for it.
#[derive(Debug)]
pub struct RouteGuard<'a> {
    table: &'a RouteTable,
    slot: usize,
    epoch: &'a RouteEpoch,
}

impl std::ops::Deref for RouteGuard<'_> {
    type Target = RouteEpoch;

    fn deref(&self) -> &RouteEpoch {
        self.epoch
    }
}

impl Drop for RouteGuard<'_> {
    fn drop(&mut self) {
        self.table.pins[self.slot].fetch_sub(1, Ordering::Release);
    }
}

impl RouteTable {
    /// A table over `num_shards` shards, all [`ShardRoute::Direct`], at
    /// epoch 0.
    pub fn new(num_shards: usize) -> Self {
        let first = Box::new(RouteEpoch {
            epoch: 0,
            routes: vec![ShardRoute::Direct; num_shards],
        });
        RouteTable {
            ptr: AtomicPtr::new(Box::into_raw(first)),
            epoch: Arc::new(AtomicU64::new(0)),
            pins: [AtomicUsize::new(0), AtomicUsize::new(0)],
            writer: Mutex::new(()),
        }
    }

    /// The current epoch number (monotonic).
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Handle to the live epoch counter (replica TTL checks read it).
    pub(crate) fn epoch_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.epoch)
    }

    /// Pins and returns the current route snapshot. Lock-free: retries
    /// only if a publish lands between the pin and its validation.
    pub fn pin(&self) -> RouteGuard<'_> {
        loop {
            let e = self.epoch.load(Ordering::SeqCst);
            let slot = (e & 1) as usize;
            // SeqCst handshake with `publish_with` (standard hazard-
            // pointer protocol): reader = pin store, epoch load; writer
            // = epoch store, pin load. All four being SeqCst puts them
            // in one total order, so at least one side observes the
            // other — if the writer's drain read our slot as 0, our
            // increment came later in that order, so the validation
            // below reads the *new* epoch and we retry. Release/Acquire
            // is NOT enough here: it permits the store->load reordering
            // (real even on x86 TSO) where the writer drains past a pin
            // it never saw while the reader validates the stale epoch —
            // a use-after-free once the writer frees the snapshot.
            self.pins[slot].fetch_add(1, Ordering::SeqCst);
            if self.epoch.load(Ordering::SeqCst) == e {
                // The pin is visible to any writer that will retire the
                // snapshot this slot guards, so the pointer is stable
                // until the guard drops.
                let ptr = self.ptr.load(Ordering::Acquire);
                // SAFETY: `ptr` was published by a `Box::into_raw` and is
                // only freed by a writer after it observes this slot's
                // pin count at zero; we hold a pin in the slot of the
                // epoch we validated, and validation-after-pin means the
                // writer that retires this snapshot has not passed its
                // fence yet.
                let epoch = unsafe { &*ptr };
                return RouteGuard {
                    table: self,
                    slot,
                    epoch,
                };
            }
            // A publish raced us: unpin the stale slot and retry against
            // the new epoch.
            self.pins[slot].fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Publishes a new epoch derived from the current routes, waits for
    /// readers of the previous epoch to drain past the fence, and retires
    /// the old snapshot. Returns the new epoch number.
    pub fn publish_with(&self, f: impl FnOnce(&mut Vec<ShardRoute>)) -> u64 {
        let _writer = self.writer.lock().expect("route writer lock poisoned");
        let cur = self.epoch.load(Ordering::Acquire);
        let old = self.ptr.load(Ordering::Acquire);
        // SAFETY: only the (serialized) writer frees snapshots, and this
        // writer has not freed `old` yet.
        let mut routes = unsafe { (*old).routes.clone() };
        f(&mut routes);
        let next = Box::new(RouteEpoch {
            epoch: cur + 1,
            routes,
        });
        // Order matters: the pointer store must be visible before the
        // epoch bump, so a reader that validates the new epoch always
        // loads the new pointer (release-sequenced before the SeqCst
        // `epoch` store, acquire in `pin`).
        self.ptr.store(Box::into_raw(next), Ordering::Release);
        self.epoch.store(cur + 1, Ordering::SeqCst);
        // Epoch fence: readers still pinned in the old parity slot hold
        // the retiring snapshot (or raced the bump and will unpin); wait
        // until they drain, then the old snapshot is unreachable. The
        // SeqCst store above + SeqCst loads here are the writer half of
        // the handshake documented in `pin`. Spin briefly, then yield:
        // guards are held for whole requests, so a pinned worker that
        // got descheduled would otherwise pin this core (and every
        // queued publisher behind the writer lock) until it runs again.
        let old_slot = (cur & 1) as usize;
        let mut spins = 0u32;
        while self.pins[old_slot].load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // SAFETY: the pointer was replaced above and every reader that
        // could hold it has unpinned; no new reader can validate the old
        // epoch.
        drop(unsafe { Box::from_raw(old) });
        cur + 1
    }
}

impl Drop for RouteTable {
    fn drop(&mut self) {
        // SAFETY: exclusive access; the only remaining snapshot is the
        // current one.
        drop(unsafe { Box::from_raw(*self.ptr.get_mut()) });
    }
}

// SAFETY: the pointee is immutable after publication and retirement is
// fenced on reader pin counts; all other fields are atomics/locks.
unsafe impl Send for RouteTable {}
unsafe impl Sync for RouteTable {}

/// Sketch-driven replication policy: how many fast-tier replica slots a
/// hot, read-dominant shard earns.
///
/// Degree scales with the shard's share of fresh demand the way
/// consistent-hash fleets scale celebrity-key replication with observed
/// request share; the sketched per-window footprint caps the replica so
/// it never out-sizes the keys it could usefully hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationPolicy {
    /// Replica slots granted per degree.
    pub unit: usize,
    /// Minimum share of fresh demand (0..1] for a shard to qualify.
    pub hot_share: f64,
    /// Minimum hit fraction of fresh demand — replicas accelerate reads;
    /// a miss-heavy (write-like) stream invalidates faster than it
    /// serves.
    pub read_dominance: f64,
}

impl Default for ReplicationPolicy {
    fn default() -> Self {
        ReplicationPolicy {
            unit: 32,
            hot_share: 0.25,
            read_dominance: 0.7,
        }
    }
}

impl ReplicationPolicy {
    /// Replication degree for a shard with the given share of fresh
    /// demand and hit fraction: 0 unless both thresholds qualify, then
    /// `ceil(share × max)` clamped to `[1, max]`, for a maximum degree of
    /// 4.
    pub fn degree_for(&self, share: f64, hit_fraction: f64) -> usize {
        if share < self.hot_share || hit_fraction < self.read_dominance {
            return 0;
        }
        ((share * MAX_DEGREE as f64).ceil() as usize).clamp(1, MAX_DEGREE)
    }

    /// Replica capacity for a shard: `degree × unit`, capped by the
    /// shard's sketched window footprint (replicating more slots than
    /// distinct demanded keys is dead weight).
    pub fn capacity_for(&self, share: f64, hit_fraction: f64, sketched_keys: u64) -> usize {
        let degree = self.degree_for(share, hit_fraction);
        (degree * self.unit).min(sketched_keys as usize)
    }
}

/// Configuration of the session-embedded live rebalancer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveRebalanceConfig {
    /// Access-count trigger: fire when this many fresh demand accesses
    /// accumulated since the last fire (0 disables the count trigger).
    pub min_new_accesses: u64,
    /// Phase trigger: fire when any shard's sketch phase score reaches
    /// the threshold (the [`Rebalancer`](crate::Rebalancer)'s trigger,
    /// with its per-shard hysteresis and significance gate).
    pub phase_threshold: Option<f64>,
    /// Minimum fresh accesses between any two fires — the cooldown that
    /// keeps a noisy phase score from thrashing placements.
    pub cooldown: u64,
    /// Pause between background-fill steps — the pacing that keeps
    /// warming from starving serving.
    pub fill_pause: Duration,
    /// Staging is warm enough to commit once it holds this fraction of
    /// `min(primary residency, staging capacity)`.
    pub warm_fraction: f64,
    /// Optional read-hot replication on top of migration.
    pub replication: Option<ReplicationPolicy>,
}

impl Default for LiveRebalanceConfig {
    fn default() -> Self {
        LiveRebalanceConfig {
            min_new_accesses: 0,
            phase_threshold: Some(0.5),
            cooldown: 256,
            fill_pause: Duration::from_micros(50),
            warm_fraction: 0.9,
            replication: None,
        }
    }
}

impl LiveRebalanceConfig {
    /// Enables the access-count trigger.
    pub fn with_min_new_accesses(mut self, min: u64) -> Self {
        self.min_new_accesses = min;
        self
    }

    /// Sets (or disables, with `None`) the phase trigger.
    pub fn with_phase_threshold(mut self, threshold: Option<f64>) -> Self {
        self.phase_threshold = threshold;
        self
    }

    /// Sets the fresh-access cooldown between fires.
    pub fn with_cooldown(mut self, cooldown: u64) -> Self {
        self.cooldown = cooldown;
        self
    }

    /// Enables sketch-driven read-hot replication.
    pub fn with_replication(mut self, policy: ReplicationPolicy) -> Self {
        self.replication = Some(policy);
        self
    }

    /// The trigger the background loop polls.
    pub(crate) fn trigger(&self) -> RebalanceTrigger {
        RebalanceTrigger::new(self.min_new_accesses, self.phase_threshold, self.cooldown)
    }
}

/// Migration activity of one session, reported in
/// [`EngineReport`](crate::EngineReport) and all bench JSON. All zero when
/// the session ran without a live rebalancer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Completed double-buffered tier migrations.
    pub migrations: u64,
    /// In-place capacity-only re-sizes (no tier change, no staging).
    pub resizes: u64,
    /// Staging entries warmed by copy-on-access mirroring.
    pub copy_fills: u64,
    /// Staging entries warmed by the paced background filler.
    pub background_fills: u64,
    /// Fill charges of committed migrations (`fills × destination
    /// fill_ns`), also added to the migrated shard's cumulative cost.
    pub migration_cost_ns: u64,
    /// Route epochs published (0 = the route never changed).
    pub route_epoch: u64,
}

impl MigrationReport {
    /// JSON object with stable field names.
    pub fn to_json(&self) -> String {
        JsonWriter::render(|w| self.write_json(w))
    }

    /// Writes the counters as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("migrations").raw(self.migrations);
            w.key("resizes").raw(self.resizes);
            w.key("copy_fills").raw(self.copy_fills);
            w.key("background_fills").raw(self.background_fills);
            w.key("migration_cost_ns").raw(self.migration_cost_ns);
            w.key("route_epoch").raw(self.route_epoch);
        });
    }
}

/// Replication activity of one session, reported alongside
/// [`MigrationReport`]. All zero when replication was not enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationReport {
    /// Shards holding a replica at session end.
    pub replicated_shards: u64,
    /// Hits re-priced at the replica tier's cost.
    pub replica_hits: u64,
    /// Copy-on-access fills into replicas.
    pub replica_fills: u64,
    /// Replica entries invalidated (primary-miss writes plus TTL decay).
    pub invalidations: u64,
    /// Total cost refunded by replica-served hits.
    pub saved_cost_ns: u64,
    /// Total fill cost charged for replica warming.
    pub replica_cost_ns: u64,
}

impl ReplicationReport {
    /// JSON object with stable field names.
    pub fn to_json(&self) -> String {
        JsonWriter::render(|w| self.write_json(w))
    }

    /// Writes the counters as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("replicated_shards").raw(self.replicated_shards);
            w.key("replica_hits").raw(self.replica_hits);
            w.key("replica_fills").raw(self.replica_fills);
            w.key("invalidations").raw(self.invalidations);
            w.key("saved_cost_ns").raw(self.saved_cost_ns);
            w.key("replica_cost_ns").raw(self.replica_cost_ns);
        });
    }

    /// Adds `other`'s counters into `self` (a replica retiring into the
    /// session totals).
    pub(crate) fn accumulate(&mut self, other: &ReplicationReport) {
        self.replicated_shards += other.replicated_shards;
        self.replica_hits += other.replica_hits;
        self.replica_fills += other.replica_fills;
        self.invalidations += other.invalidations;
        self.saved_cost_ns += other.saved_cost_ns;
        self.replica_cost_ns += other.replica_cost_ns;
    }
}

/// The double-buffered destination of one in-flight shard migration: a
/// fresh buffer at the new capacity, carrying the shard's pin set.
#[derive(Debug)]
pub(crate) struct StagingBuffer {
    pub(crate) buffer: GpuBuffer,
    pub(crate) tier: usize,
    pub(crate) copy_fills: u64,
    pub(crate) background_fills: u64,
}

impl StagingBuffer {
    fn new(placement: &ShardPlacement, pinned_tables: &[u32]) -> Self {
        let mut buffer = GpuBuffer::new(placement.capacity.max(1));
        // Pins hold from the first copy: neither admission below nor a
        // concurrent mirror may evict a staged pinned row.
        buffer.set_pinned_tables(pinned_tables);
        StagingBuffer {
            buffer,
            tier: placement.tier,
            copy_fills: 0,
            background_fills: 0,
        }
    }

    /// Copy-on-access admission: mirrors a just-demanded key. A full
    /// staging buffer only displaces a colder entry.
    pub(crate) fn admit(&mut self, key: VectorKey, priority: u64, prefetched: bool) -> bool {
        if self.buffer.contains(key) {
            return false;
        }
        if self.buffer.is_full() {
            if self.buffer.min_priority().unwrap_or(0) >= priority {
                return false;
            }
            self.buffer.evict_min();
        }
        self.buffer.insert(key, priority, prefetched);
        true
    }

    /// One paced background-fill step: copies up to `batch` of the
    /// primary's residents, pinned tables first and hottest first within
    /// each class (priority and prefetch flag preserved, so first-touch
    /// classification survives the swap). A smaller destination thus keeps
    /// the pinned footprint, as an in-place shrink does. Returns how many
    /// were copied — 0 means there is nothing left worth copying.
    fn fill_step(&mut self, primary: &GpuBuffer, batch: usize) -> usize {
        let pinned = |key: VectorKey| {
            primary
                .pinned_tables()
                .binary_search(&key.table().0)
                .is_ok()
        };
        let order = primary
            .iter_hot_first()
            .filter(|e| pinned(e.0))
            .chain(primary.iter_hot_first().filter(|e| !pinned(e.0)));
        let mut filled = 0;
        for (key, priority, prefetched) in order {
            if filled >= batch || self.buffer.is_full() {
                break;
            }
            if self.buffer.contains(key) {
                continue;
            }
            self.buffer.insert(key, priority, prefetched);
            self.background_fills += 1;
            filled += 1;
        }
        filled
    }

    fn warm_enough(&self, primary_len: usize, warm_fraction: f64) -> bool {
        let target = primary_len.min(self.buffer.capacity());
        self.buffer.len() as f64 >= target as f64 * warm_fraction
    }
}

/// Shared state of a live-migration-enabled session: the route table,
/// one staging slot per shard, the session totals, and the rebalancer's
/// stop flag.
#[derive(Debug)]
pub(crate) struct LiveState {
    pub(crate) cfg: LiveRebalanceConfig,
    pub(crate) routes: RouteTable,
    staging: Vec<Mutex<Option<StagingBuffer>>>,
    /// Serializes whole-migration critical sections (the background loop
    /// plus manual [`ServingSession::migrate_shard`]
    /// (crate::ServingSession::migrate_shard) calls).
    migrating: Mutex<()>,
    /// Session totals. They change only when a migration commits or is
    /// abandoned, a shard re-sizes in place, or a replica retires; the
    /// session fills in `route_epoch` and the still-installed replicas at
    /// drain. Taken after any shard lock, never before one.
    pub(crate) totals: Mutex<(MigrationReport, ReplicationReport)>,
    pub(crate) stop: AtomicBool,
}

impl LiveState {
    pub(crate) fn new(num_shards: usize, cfg: LiveRebalanceConfig) -> Self {
        LiveState {
            cfg,
            routes: RouteTable::new(num_shards),
            staging: (0..num_shards).map(|_| Mutex::new(None)).collect(),
            migrating: Mutex::new(()),
            totals: Mutex::default(),
            stop: AtomicBool::new(false),
        }
    }

    fn totals(&self) -> std::sync::MutexGuard<'_, (MigrationReport, ReplicationReport)> {
        self.totals.lock().expect("live totals lock poisoned")
    }

    /// Copy-on-access mirroring, called by workers for shards routed
    /// [`ShardRoute::Migrating`] — under the shard mutex, after the part
    /// was served against the (authoritative) primary.
    pub(crate) fn mirror(&self, shard: &Shard, keys: &[VectorKey]) {
        let mut slot = self.staging[shard.id]
            .lock()
            .expect("staging lock poisoned");
        let Some(staging) = slot.as_mut() else {
            // The migration committed (or was abandoned) after this
            // request pinned its route: the primary already is the new
            // buffer, nothing to mirror.
            return;
        };
        for &key in keys {
            // Only rows the primary holds, at its current priority so the
            // staged copy preserves relative eviction order. A served key
            // is absent when its miss only queued an async fill (or a
            // later miss evicted it); staging it would make it resident at
            // commit without the fill ever being charged.
            if let Some(priority) = shard.buffer.buffer().priority(key) {
                if staging.admit(key, priority, false) {
                    staging.copy_fills += 1;
                }
            }
        }
    }
}

/// Runs one full double-buffered migration of shard `sid` to `placement`:
/// install staging, publish [`ShardRoute::Migrating`], paced warm-up,
/// publish [`ShardRoute::Direct`] (the route CAS + epoch fence), then
/// commit the staged storage under the shard lock. Returns `false` if the
/// migration was abandoned by a session stop.
pub(crate) fn migrate_shard(
    live: &LiveState,
    shards: &[Mutex<Shard>],
    topology: &TierTopology,
    sid: usize,
    placement: &ShardPlacement,
) -> bool {
    let _serial = live.migrating.lock().expect("migration lock poisoned");
    {
        let shard = shards[sid].lock().expect("shard mutex poisoned");
        let pinned = shard.buffer.buffer().pinned_tables();
        *live.staging[sid].lock().expect("staging lock poisoned") =
            Some(StagingBuffer::new(placement, pinned));
    }
    live.routes
        .publish_with(|routes| routes[sid] = ShardRoute::Migrating);
    // Paced warm-up: brief shard+staging critical sections, sleeping
    // between steps so serving traffic keeps the locks most of the time.
    let committed = loop {
        let warm = {
            let shard = shards[sid].lock().expect("shard mutex poisoned");
            let mut slot = live.staging[sid].lock().expect("staging lock poisoned");
            let staging = slot.as_mut().expect("staging installed above");
            let filled = staging.fill_step(shard.buffer.buffer(), FILL_BATCH);
            filled == 0 || staging.warm_enough(shard.buffer.len(), live.cfg.warm_fraction)
        };
        if warm {
            break true;
        }
        if live.stop.load(Ordering::Acquire) {
            // Session is draining: abandon the migration. The primary
            // never stopped being authoritative, so nothing is lost.
            break false;
        }
        std::thread::sleep(live.cfg.fill_pause);
    };
    // The route CAS: after this publish returns, the epoch fence has
    // drained every request that could still mirror into staging.
    live.routes
        .publish_with(|routes| routes[sid] = ShardRoute::Direct);
    let mut shard = shards[sid].lock().expect("shard mutex poisoned");
    let staging = live.staging[sid]
        .lock()
        .expect("staging lock poisoned")
        .take()
        .expect("staging survives until commit or abandon");
    let copied = staging.copy_fills + staging.background_fills;
    let charge = if committed {
        shard.tier = staging.tier;
        let to = topology.tier(staging.tier);
        shard
            .buffer
            .commit_move(to, Kept::Staged(staging.buffer, copied))
    } else {
        0
    };
    let (migration, _) = &mut *live.totals();
    migration.migrations += u64::from(committed);
    migration.copy_fills += staging.copy_fills;
    migration.background_fills += staging.background_fills;
    migration.migration_cost_ns += charge;
    committed
}

/// Installs, re-sizes, or removes shard `sid`'s fast-tier replica under
/// the shard mutex (`capacity == 0` removes; a retired replica's counters
/// fold into the session totals). Every change publishes one route epoch,
/// the clock replica TTLs run on. Returns whether anything changed.
pub(crate) fn set_replica(
    live: &LiveState,
    shards: &[Mutex<Shard>],
    topology: &TierTopology,
    sid: usize,
    capacity: usize,
) -> bool {
    let changed = {
        let mut shard = shards[sid].lock().expect("shard mutex poisoned");
        match (&mut shard.replica, capacity) {
            (None, 0) => false,
            (Some(_), 0) => {
                let retired = shard.replica.take().expect("checked above");
                live.totals().1.accumulate(&retired.report);
                true
            }
            (Some(replica), cap) => replica.set_capacity(cap),
            (None, cap) => {
                let fast = topology.tier(0).cost;
                let epoch = live.routes.epoch_handle();
                shard.replica = Some(ReplicaState::new(cap, fast.hit_ns, fast.fill_ns, epoch));
                true
            }
        }
    };
    if changed {
        live.routes.publish_with(|_| {});
    }
    changed
}

/// One reading per shard, in shard order, each under a brief lock.
fn read_shards<T>(shards: &[Mutex<Shard>], read: impl Fn(&Shard) -> T) -> Vec<T> {
    shards
        .iter()
        .map(|s| read(&s.lock().expect("shard mutex poisoned")))
        .collect()
}

/// The background live-rebalancer loop, run on its own thread for the
/// lifetime of a live-enabled [`ServingSession`](crate::ServingSession):
/// poll the trigger, run the shared planner on fresh traffic deltas and
/// merged table profiles, install every shard's pin set, migrate shards
/// whose tier changed and re-size those whose capacity did, and apply the
/// replication policy.
pub(crate) fn live_loop(
    live: &LiveState,
    shards: &[Mutex<Shard>],
    ctx: &GuidanceCtx,
    router: &crate::ShardRouter,
) {
    let mut trigger = live.cfg.trigger();
    while !live.stop.load(Ordering::Acquire) {
        std::thread::sleep(CHECK_EVERY);
        if live.stop.load(Ordering::Acquire) {
            break;
        }
        let (demands, scores): (Vec<u64>, Vec<f64>) = read_shards(shards, |s| {
            (s.buffer.demand_count(), s.buffer.phase_score())
        })
        .into_iter()
        .unzip();
        let Some(fire) = trigger.check(&demands, &scores) else {
            continue;
        };
        let deltas = trigger.commit(fire, read_shards(shards, |s| s.buffer.traffic()));
        let profilers = read_shards(shards, |s| s.profiler.clone());
        let tables = TableProfiler::merge(profilers.iter().flatten());
        let (_, plan) = ctx.plan(router, &deltas, &tables);
        for (shard, (_, pins)) in shards.iter().zip(&plan) {
            let mut shard = shard.lock().expect("shard mutex poisoned");
            shard.buffer.set_pinned_tables(pins);
        }
        for (sid, (placement, _)) in plan.iter().enumerate() {
            if live.stop.load(Ordering::Acquire) {
                return;
            }
            let mut shard = shards[sid].lock().expect("shard mutex poisoned");
            if shard.tier != placement.tier {
                drop(shard);
                migrate_shard(live, shards, &ctx.topology, sid, placement);
            } else if shard.apply_placement(placement, &ctx.topology) {
                live.totals().0.resizes += 1;
            }
        }
        if let Some(policy) = live.cfg.replication {
            replication_pass(live, shards, ctx, &policy, &deltas);
        }
    }
}

/// One replication-policy evaluation over fresh traffic deltas.
fn replication_pass(
    live: &LiveState,
    shards: &[Mutex<Shard>],
    ctx: &GuidanceCtx,
    policy: &ReplicationPolicy,
    deltas: &[TierTraffic],
) {
    let total: u64 = deltas.iter().map(TierTraffic::demand).sum();
    if total == 0 {
        return;
    }
    for (sid, delta) in deltas.iter().enumerate() {
        if live.stop.load(Ordering::Acquire) {
            return;
        }
        let demand = delta.demand();
        let share = demand as f64 / total as f64;
        let hit_fraction = if demand == 0 {
            0.0
        } else {
            delta.hits as f64 / demand as f64
        };
        let in_fast_tier = {
            let s = shards[sid].lock().expect("shard mutex poisoned");
            s.tier == 0
        };
        // A shard already living in the fast tier gains nothing from a
        // same-tier replica.
        let capacity = if in_fast_tier {
            0
        } else {
            policy.capacity_for(share, hit_fraction, delta.unique_keys)
        };
        set_replica(live, shards, &ctx.topology, sid, capacity);
    }
}

/// Read-hot fast-tier replica of a shard's celebrity keys. Lives under
/// the shard mutex; consulted by `Shard::record_access` after the primary
/// classifies each demand access.
///
/// Entries are epoch-stamped against the session's route epoch: a primary
/// miss (the write signal) invalidates immediately; an entry older than
/// `TTL_EPOCHS` route epochs decays to absent (lease-style freshness —
/// hammered keys get cheaply re-filled, abandoned ones age out).
/// Admission is two-touch ([`ReplicaState::offer`]): a key fills only on
/// its second fresh hit, so one-touch keys never churn the replica.
#[derive(Debug)]
pub(crate) struct ReplicaState {
    capacity: usize,
    hit_ns: u64,
    fill_ns: u64,
    epoch: Arc<AtomicU64>,
    entries: HashMap<VectorKey, u64>,
    /// Two-touch admission ledger: keys a primary hit has nominated but
    /// that have not yet earned a replica slot (see
    /// [`ReplicaState::offer`]). Bounded like `entries`.
    candidates: HashMap<VectorKey, u64>,
    /// This replica's activity (`replicated_shards` stays 0), folded into
    /// the session totals when it retires.
    pub(crate) report: ReplicationReport,
}

impl ReplicaState {
    pub(crate) fn new(capacity: usize, hit_ns: u64, fill_ns: u64, epoch: Arc<AtomicU64>) -> Self {
        ReplicaState {
            capacity: capacity.max(1),
            hit_ns,
            fill_ns,
            epoch,
            entries: HashMap::new(),
            candidates: HashMap::new(),
            report: ReplicationReport::default(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The replica tier's hit cost (what a replica-served hit is
    /// re-priced to).
    pub(crate) fn hit_ns(&self) -> u64 {
        self.hit_ns
    }

    /// The replica tier's fill cost (charged per copy-on-access fill).
    pub(crate) fn fill_ns(&self) -> u64 {
        self.fill_ns
    }

    /// Current replica residency.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether `key` is replica-resident and fresh. A stale (decayed)
    /// entry is removed and counted as an invalidation.
    pub(crate) fn probe(&mut self, key: VectorKey) -> bool {
        let now = self.now();
        match self.entries.get(&key) {
            Some(&stamp) if now.saturating_sub(stamp) < TTL_EPOCHS => true,
            Some(_) => {
                self.entries.remove(&key);
                self.report.invalidations += 1;
                false
            }
            None => false,
        }
    }

    /// Copy-on-access admission: a key earns its replica slot on its
    /// *second* fresh primary hit. The first hit only nominates the key
    /// into the candidate ledger; the second (within the TTL) fills.
    /// Without the gate, a shard whose hot set dwarfs the replica
    /// capacity churns it — most hits pay `fill_ns` and displace an
    /// entry that would have earned a refund, so enabling replication
    /// could *raise* modeled cost on flat intra-shard distributions.
    /// Two touches spend replica slots only on keys with demonstrated
    /// re-reference. Returns whether the key was filled (the caller
    /// charges the fill against the home buffer only then).
    pub(crate) fn offer(&mut self, key: VectorKey) -> bool {
        let now = self.now();
        match self.candidates.get(&key) {
            Some(&stamp) if now.saturating_sub(stamp) < TTL_EPOCHS => {
                self.candidates.remove(&key);
                self.fill(key);
                true
            }
            _ => {
                // First (or staled) touch: (re-)nominate, displacing the
                // stalest candidate when the ledger is full.
                if self.candidates.len() >= self.capacity && !self.candidates.contains_key(&key) {
                    evict_stalest(&mut self.candidates);
                }
                self.candidates.insert(key, now);
                false
            }
        }
    }

    /// Copy-on-access fill of a hit key, displacing the stalest entry
    /// when full. Charges `fill_ns`.
    pub(crate) fn fill(&mut self, key: VectorKey) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            evict_stalest(&mut self.entries);
        }
        self.entries.insert(key, self.now());
        self.report.replica_fills += 1;
        self.report.replica_cost_ns += self.fill_ns;
    }

    /// Write invalidation: a primary miss means the replica copy (if any)
    /// is no longer trustworthy — and neither is a pending nomination
    /// (dropping it never counts as an invalidation; the replica never
    /// held the key).
    pub(crate) fn invalidate(&mut self, key: VectorKey) {
        self.candidates.remove(&key);
        if self.entries.remove(&key).is_some() {
            self.report.invalidations += 1;
        }
    }

    /// Re-sizes the replica, evicting stalest entries first. Returns
    /// whether the capacity changed.
    pub(crate) fn set_capacity(&mut self, capacity: usize) -> bool {
        let capacity = capacity.max(1);
        if capacity == self.capacity {
            return false;
        }
        while self.entries.len() > capacity {
            evict_stalest(&mut self.entries);
            self.report.invalidations += 1;
        }
        // The candidate ledger shares the replica's bound; trimming
        // nominations is not an invalidation (nothing was ever served).
        while self.candidates.len() > capacity {
            evict_stalest(&mut self.candidates);
        }
        self.capacity = capacity;
        true
    }
}

/// Removes the stalest entry (if any) of an epoch-stamped replica map —
/// oldest stamp first, ties to the lower key so the victim never depends
/// on hash order.
fn evict_stalest(stamps: &mut HashMap<VectorKey, u64>) {
    let victim = stamps
        .iter()
        .min_by_key(|&(&k, &stamp)| (stamp, k.as_u64()))
        .map(|(&k, _)| k);
    if let Some(victim) = victim {
        stamps.remove(&victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SketchConfig;
    use recmg_trace::{RowId, TableId};

    fn key(r: u64) -> VectorKey {
        VectorKey::new(TableId(0), RowId(r))
    }

    #[test]
    fn route_table_publishes_and_reads_consistently() {
        let table = RouteTable::new(3);
        assert_eq!(table.current_epoch(), 0);
        let e = table.publish_with(|r| r[2] = ShardRoute::Migrating);
        assert_eq!(e, 1);
        {
            let pinned = table.pin();
            assert_eq!(pinned.epoch(), 1);
            assert_eq!(pinned.route(0), ShardRoute::Direct);
            assert_eq!(pinned.route(2), ShardRoute::Migrating);
            assert_eq!(pinned.route(99), ShardRoute::Direct);
        }
        table.publish_with(|r| r[2] = ShardRoute::Direct);
        let pinned = table.pin();
        assert_eq!(pinned.epoch(), 2);
        assert_eq!(pinned.route(2), ShardRoute::Direct);
    }

    #[test]
    fn route_table_fence_under_concurrent_readers() {
        use std::sync::atomic::{AtomicBool, AtomicU64};
        let table = Arc::new(RouteTable::new(4));
        let stop = Arc::new(AtomicBool::new(false));
        let pin_counts: Vec<Arc<AtomicU64>> = (0..4).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let readers: Vec<_> = pin_counts
            .iter()
            .map(|pins| {
                let table = Arc::clone(&table);
                let stop = Arc::clone(&stop);
                let pins = Arc::clone(pins);
                std::thread::spawn(move || {
                    let mut last_epoch = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let pinned = table.pin();
                        // Epochs are monotone per reader, and the routes
                        // vec is never torn (always full length).
                        assert!(pinned.epoch() >= last_epoch);
                        assert_eq!(pinned.routes.len(), 4);
                        last_epoch = pinned.epoch();
                        pins.fetch_add(1, Ordering::Release);
                    }
                })
            })
            .collect();
        for i in 0..500u64 {
            let sid = (i % 4) as usize;
            table.publish_with(|r| {
                r[sid] = if r[sid] == ShardRoute::Direct {
                    ShardRoute::Migrating
                } else {
                    ShardRoute::Direct
                };
            });
        }
        // Don't stop until every reader has raced the publishes at least
        // once: under a loaded test host a reader may not have been
        // scheduled yet, and stopping early would prove nothing.
        while pin_counts.iter().any(|p| p.load(Ordering::Acquire) == 0) {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        for h in readers {
            h.join().expect("reader panicked");
        }
        assert!(pin_counts.iter().all(|p| p.load(Ordering::Acquire) > 0));
        assert_eq!(table.current_epoch(), 500);
    }

    #[test]
    fn replication_policy_degree_scales_with_share() {
        let p = ReplicationPolicy::default();
        // Below either threshold: no replica.
        assert_eq!(p.degree_for(0.1, 0.99), 0);
        assert_eq!(p.degree_for(0.9, 0.3), 0);
        // Qualifying shards scale with demand share.
        assert_eq!(p.degree_for(0.25, 0.9), 1);
        assert_eq!(p.degree_for(0.5, 0.9), 2);
        assert_eq!(p.degree_for(1.0, 1.0), 4);
        // Capacity is sketch-capped.
        assert_eq!(p.capacity_for(1.0, 1.0, 1_000), 4 * 32);
        assert_eq!(p.capacity_for(1.0, 1.0, 10), 10);
        assert_eq!(p.capacity_for(0.05, 1.0, 1_000), 0);
    }

    #[test]
    fn replica_probe_fill_and_write_invalidation() {
        let epoch = Arc::new(AtomicU64::new(0));
        let mut rep = ReplicaState::new(2, 80, 300, Arc::clone(&epoch));
        assert!(!rep.probe(key(1)));
        rep.fill(key(1));
        assert!(rep.probe(key(1)));
        assert_eq!(rep.report.replica_cost_ns, 300);
        // Capacity bound: filling a third key displaces the stalest.
        rep.fill(key(2));
        epoch.store(1, Ordering::Release);
        rep.fill(key(3));
        assert_eq!(rep.len(), 2);
        assert!(!rep.probe(key(1)), "stalest entry displaced");
        // Write invalidation.
        rep.invalidate(key(3));
        assert!(!rep.probe(key(3)));
        assert!(rep.report.invalidations >= 1);
    }

    #[test]
    fn replica_two_touch_admission_gates_fills() {
        let epoch = Arc::new(AtomicU64::new(0));
        let mut rep = ReplicaState::new(2, 80, 300, Arc::clone(&epoch));
        // First touch nominates without filling (and without charging).
        assert!(!rep.offer(key(1)));
        assert_eq!(
            (rep.report.replica_fills, rep.report.replica_cost_ns),
            (0, 0)
        );
        assert!(!rep.probe(key(1)));
        // Second fresh touch fills.
        assert!(rep.offer(key(1)));
        assert!(rep.probe(key(1)));
        assert_eq!(rep.report.replica_fills, 1);
        // A nomination staled past the TTL does not count as a touch:
        // the key re-nominates and must re-earn its slot.
        assert!(!rep.offer(key(2)));
        epoch.store(TTL_EPOCHS, Ordering::Release);
        assert!(!rep.offer(key(2)), "stale nomination re-nominates");
        assert!(rep.offer(key(2)));
        // A write drops the pending nomination too, without counting an
        // invalidation (the replica never held the key).
        assert!(!rep.offer(key(3)));
        let inval_before = rep.report.invalidations;
        rep.invalidate(key(3));
        assert_eq!(rep.report.invalidations, inval_before);
        assert!(!rep.offer(key(3)), "invalidated nomination starts over");
    }

    #[test]
    fn replica_entries_decay_past_ttl_epochs() {
        let epoch = Arc::new(AtomicU64::new(0));
        let mut rep = ReplicaState::new(4, 80, 300, Arc::clone(&epoch));
        rep.fill(key(7));
        epoch.store(TTL_EPOCHS - 1, Ordering::Release);
        assert!(rep.probe(key(7)), "within TTL");
        epoch.store(TTL_EPOCHS, Ordering::Release);
        let inval_before = rep.report.invalidations;
        assert!(!rep.probe(key(7)), "decayed past the epoch fence");
        assert_eq!(rep.report.invalidations, inval_before + 1);
        // A refill restores service at the new epoch.
        rep.fill(key(7));
        assert!(rep.probe(key(7)));
    }

    /// Regression: under async fills a miss only queues its fill, so the
    /// key is not resident in the primary. The mirror used to stage it
    /// anyway ("a miss inserts"), and the commit then made it resident
    /// without the queued fill ever being charged.
    #[test]
    fn mirror_stages_only_rows_the_primary_holds() {
        use crate::backend::{FillHandle, FillQueue};
        let topology = TierTopology::two_tier(8, 8);
        let live = LiveState::new(1, LiveRebalanceConfig::default());
        let home = ShardPlacement {
            capacity: 8,
            tier: 0,
        };
        let mut shard = Shard::placed(0, 4, &home, &topology, SketchConfig::default());
        shard.buffer.set_fill_handle(Some(FillHandle {
            queue: Arc::new(FillQueue::new(8)),
            shard: 0,
        }));
        let dest = ShardPlacement {
            capacity: 8,
            tier: 1,
        };
        *live.staging[0].lock().expect("staging lock") = Some(StagingBuffer::new(&dest, &[]));
        let fresh: Vec<VectorKey> = (0..4).map(key).collect();
        for &k in &fresh {
            assert_eq!(shard.buffer.access(k), recmg_cache::BufferAccess::Miss);
        }
        live.mirror(&shard, &fresh);
        {
            let slot = live.staging[0].lock().expect("staging lock");
            let staging = slot.as_ref().expect("installed");
            assert!(staging.buffer.is_empty(), "a queued miss was staged");
            assert_eq!(staging.copy_fills, 0);
        }
        // Once its fill lands, the key is the primary's and mirrors.
        assert!(shard.buffer.promote_fill(key(0), 5));
        live.mirror(&shard, &fresh);
        let slot = live.staging[0].lock().expect("staging lock");
        let staging = slot.as_ref().expect("installed");
        assert_eq!(staging.buffer.keys().collect::<Vec<_>>(), vec![key(0)]);
        assert_eq!(staging.copy_fills, 1);
    }

    /// Regression: a staged move to a smaller capacity used to copy the
    /// hottest rows first and drop a pinned table whose rows sat colder;
    /// the in-place shrink keeps them. Both must keep every pinned row.
    #[test]
    fn staged_move_keeps_pinned_rows_like_the_in_place_move() {
        let topology = TierTopology::two_tier(16, 16);
        let pinned: Vec<VectorKey> = (0..2)
            .map(|r| VectorKey::new(TableId(1), RowId(r)))
            .collect();
        let shard = || {
            let home = ShardPlacement {
                capacity: 8,
                tier: 0,
            };
            let mut shard = Shard::placed(0, 4, &home, &topology, SketchConfig::default());
            shard.buffer.set_pinned_tables(&[1]);
            let hot: Vec<VectorKey> = (0..6).map(key).collect();
            let all: Vec<VectorKey> = pinned.iter().chain(&hot).copied().collect();
            for &k in &all {
                shard.buffer.access(k);
            }
            // Pinned rows at priority 0, below six hotter unpinned rows.
            let bits: Vec<bool> = all.iter().map(|k| k.table().0 != 1).collect();
            shard.buffer.load_embeddings(&all, &bits, &[]);
            shard
        };
        let dest = ShardPlacement {
            capacity: 4,
            tier: 1,
        };

        let mut in_place = shard();
        assert!(in_place.apply_placement(&dest, &topology));
        let live = LiveState::new(
            1,
            LiveRebalanceConfig {
                fill_pause: Duration::ZERO,
                warm_fraction: 1.0,
                ..LiveRebalanceConfig::default()
            },
        );
        let shards = vec![Mutex::new(shard())];
        assert!(migrate_shard(&live, &shards, &topology, 0, &dest));
        let staged = shards[0].lock().expect("shard lock");

        for moved in [&in_place, &*staged] {
            assert_eq!((moved.tier, moved.buffer.capacity()), (1, 4));
            for &k in &pinned {
                assert!(moved.buffer.buffer().contains(k), "pinned {k:?} dropped");
            }
        }
    }

    #[test]
    fn staging_admission_keeps_hottest() {
        let placement = ShardPlacement {
            capacity: 2,
            tier: 0,
        };
        let mut s = StagingBuffer::new(&placement, &[]);
        assert!(s.admit(key(1), 5, false));
        assert!(!s.admit(key(1), 5, false), "already staged");
        assert!(s.admit(key(2), 3, false));
        // Full: colder entries are refused, hotter displace the minimum.
        assert!(!s.admit(key(3), 2, false));
        assert!(s.admit(key(4), 9, true));
        assert!(s.buffer.contains(key(4)));
        assert!(!s.buffer.contains(key(2)));
        assert!(s.warm_enough(2, 0.9));
        assert!(!StagingBuffer::new(&placement, &[]).warm_enough(2, 0.5));
    }
}
