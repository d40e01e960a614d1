//! Live migration: zero-drain rebalancing and hot-shard replication.
//!
//! The quiescent [`Rebalancer`](crate::Rebalancer) detects a hot-set flip
//! within ~1 sketch epoch and then has to wait for a session drain before
//! it may act — in production the system never drains. This module lets a
//! [`ServingSession`](crate::ServingSession) re-place shards **while
//! requests flow**, through the quiescent path's own pipeline: the same
//! planner (placement policy, routing install, per-shard pin sets) and the
//! same shard move.
//!
//! * **The shard mutex is the fence** (`LiveState` + the background
//!   rebalancer loop): on a phase-trigger or access-count fire, every
//!   shard whose tier changed is moved under its own mutex — its tier is
//!   set and its buffer keeps its own residents at the new capacity, with
//!   their rows rebuilt once on the destination backend, re-priced, and
//!   every kept entry charged the destination's `fill_ns`
//!   ([`MigrationReport`]). Workers serve a shard under the same mutex, so
//!   a request sees the shard entirely before the move or entirely after
//!   it. Moves are rare, planned events (a few per phase flip), so
//!   a worker waiting out one rebuild costs less than any per-request
//!   handshake would.
//! * **Read-hot replication** ([`ReplicationPolicy`] / `ReplicaState`):
//!   the working-set sketch decides
//!   replication degree — shards that are hot *and* read-dominant get a
//!   fast-tier replica of their celebrity keys, the way consistent-hash
//!   fleets replicate celebrity keys. Admission is two-touch: a key
//!   earns its replica slot on its second fresh primary hit, so a hot
//!   set larger than the replica cannot churn it with one-touch fills.
//!   Replica entries are stamped with the route epoch — a session clock
//!   that ticks once per shard move, replica change and
//!   [`refresh_routes`](crate::ServingSession::refresh_routes) call. A
//!   primary miss (the "write") evicts the entry immediately, and entries
//!   older than `TTL_EPOCHS` route epochs decay to absent. Counts stay
//!   canonical on the home shard; replication only re-prices hits
//!   ([`ReplicationReport`]).
//!
//! Demand conservation is the load-bearing invariant: every demand access
//! is recorded exactly once on the shard's buffer under the shard mutex,
//! replica fills never count as demand, and a move replaces only the
//! storage — traffic counters and the sketch stay on the shard. A
//! migration is therefore invisible to hit/miss totals (pinned by the
//! 1-shard parity oracle in `tests/integration_migration.rs`).
//!
//! [`RouteTable`], [`RouteEpoch`] and [`ShardRoute`] are not used by the
//! serving path; they remain only because the benchmark harness times
//! [`RouteTable::pin`] (`benchmark/src/micro.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use recmg_trace::VectorKey;

use crate::buffer_mgmt::TierTraffic;
use crate::json::JsonWriter;
use crate::sharding::{GuidanceCtx, Shard};
use crate::table_profile::TableProfiler;
use crate::tier::{RebalanceTrigger, ShardPlacement, TierTopology};

/// Trigger-poll interval of the live rebalancer's background thread.
const CHECK_EVERY: Duration = Duration::from_micros(500);
/// Maximum replication degree per shard.
const MAX_DEGREE: usize = 4;
/// Replica entries older than this many route epochs decay to absent
/// (lease-style freshness through the epoch fence).
const TTL_EPOCHS: u64 = 8;

/// Per-shard serving route within one [`RouteEpoch`].
///
/// Kept only for the benchmark harness (`benchmark/src/micro.rs`).
#[doc(hidden)]
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
///
/// Kept only for the benchmark harness (`benchmark/src/micro.rs`).
#[doc(hidden)]
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
///
/// Kept only for the benchmark harness (`benchmark/src/micro.rs`).
#[doc(hidden)]
#[derive(Debug)]
pub struct RouteTable {
    ptr: AtomicPtr<RouteEpoch>,
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
    /// Optional read-hot replication on top of migration.
    pub replication: Option<ReplicationPolicy>,
}

impl Default for LiveRebalanceConfig {
    fn default() -> Self {
        LiveRebalanceConfig {
            min_new_accesses: 0,
            phase_threshold: Some(0.5),
            cooldown: 256,
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
    /// Shard moves, each committed under the shard mutex.
    pub migrations: u64,
    /// In-place capacity-only re-sizes (no tier change).
    pub resizes: u64,
    /// Fill charges of the moves (`kept residents × destination
    /// fill_ns`), also added to each moved shard's cumulative cost.
    pub migration_cost_ns: u64,
    /// The route-epoch clock at drain: one tick per shard move, replica
    /// change and `refresh_routes` call (0 = nothing ever ticked).
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

/// Shared state of a live-rebalancing session: the route-epoch clock, the
/// session totals, and the rebalancer's stop flag.
#[derive(Debug)]
pub(crate) struct LiveState {
    pub(crate) cfg: LiveRebalanceConfig,
    /// The route-epoch clock replica TTLs run on, shared with every
    /// replica. Ticks once per shard move, replica change and
    /// [`refresh_routes`](crate::ServingSession::refresh_routes) call.
    epoch: Arc<AtomicU64>,
    /// Session totals. They change only when a shard moves or re-sizes in
    /// place, or a replica retires; the session fills in `route_epoch`
    /// and the still-installed replicas at drain. Taken after any shard
    /// lock, never before one.
    pub(crate) totals: Mutex<(MigrationReport, ReplicationReport)>,
    pub(crate) stop: AtomicBool,
}

impl LiveState {
    pub(crate) fn new(cfg: LiveRebalanceConfig) -> Self {
        LiveState {
            cfg,
            epoch: Arc::new(AtomicU64::new(0)),
            totals: Mutex::default(),
            stop: AtomicBool::new(false),
        }
    }

    fn totals(&self) -> std::sync::MutexGuard<'_, (MigrationReport, ReplicationReport)> {
        self.totals.lock().expect("live totals lock poisoned")
    }

    /// The current route epoch.
    pub(crate) fn route_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advances the route-epoch clock; returns the new epoch.
    pub(crate) fn tick(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }
}

/// Moves shard `sid` to `placement` while requests flow: the quiescent
/// shard move, under the shard mutex. The destination tier is resolved
/// before the lock is taken, so an out-of-range tier panics without
/// poisoning the shard. Ticks the route epoch and counts the move and its
/// charge.
pub(crate) fn migrate_shard(
    live: &LiveState,
    shards: &[Mutex<Shard>],
    topology: &TierTopology,
    sid: usize,
    placement: &ShardPlacement,
) {
    let to = topology.tier(placement.tier);
    let charge = {
        let mut shard = shards[sid].lock().expect("shard mutex poisoned");
        shard.tier = placement.tier;
        shard.buffer.commit_move(to, placement.capacity.max(1))
    };
    live.tick();
    let (migration, _) = &mut *live.totals();
    migration.migrations += 1;
    migration.migration_cost_ns += charge;
}

/// Installs, re-sizes, or removes shard `sid`'s fast-tier replica under
/// the shard mutex (`capacity == 0` removes; a retired replica's counters
/// fold into the session totals). Every change ticks the route epoch,
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
                let epoch = Arc::clone(&live.epoch);
                shard.replica = Some(ReplicaState::new(cap, fast.hit_ns, fast.fill_ns, epoch));
                true
            }
        }
    };
    if changed {
        live.tick();
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

    /// A live move is the quiescent move under the shard mutex: a move to
    /// a smaller capacity keeps the pinned table's cold rows, and a key
    /// whose async fill is still queued is not resident afterwards, so the
    /// charge covers exactly the kept residents.
    #[test]
    fn a_live_move_keeps_pinned_rows_and_copies_only_residents() {
        use crate::backend::{FillHandle, FillQueue};
        let topology = TierTopology::two_tier(16, 16);
        let home = ShardPlacement {
            capacity: 8,
            tier: 0,
        };
        let mut shard = Shard::placed(0, 4, &home, &topology, SketchConfig::default());
        shard.buffer.set_pinned_tables(&[1]);
        let pinned: Vec<VectorKey> = (0..2)
            .map(|r| VectorKey::new(TableId(1), RowId(r)))
            .collect();
        let hot: Vec<VectorKey> = (0..6).map(key).collect();
        let all: Vec<VectorKey> = pinned.iter().chain(&hot).copied().collect();
        for &k in &all {
            shard.buffer.access(k);
        }
        // Pinned rows at priority 0, below six hotter unpinned rows.
        let bits: Vec<bool> = all.iter().map(|k| k.table().0 != 1).collect();
        shard.buffer.load_embeddings(&all, &bits, &[]);
        // From here on a miss only queues its fill.
        shard.buffer.set_fill_handle(Some(FillHandle {
            queue: Arc::new(FillQueue::new(8)),
            shard: 0,
        }));
        let queued = key(99);
        assert_eq!(shard.buffer.access(queued), recmg_cache::BufferAccess::Miss);

        let live = LiveState::new(LiveRebalanceConfig::default());
        let shards = vec![Mutex::new(shard)];
        let dest = ShardPlacement {
            capacity: 4,
            tier: 1,
        };
        migrate_shard(&live, &shards, &topology, 0, &dest);

        let moved = shards[0].lock().expect("shard lock");
        assert_eq!((moved.tier, moved.buffer.capacity()), (1, 4));
        for &k in &pinned {
            assert!(moved.buffer.buffer().contains(k), "pinned {k:?} dropped");
        }
        assert!(
            !moved.buffer.buffer().contains(queued),
            "a queued fill moved"
        );
        let (migration, _) = *live.totals();
        assert_eq!(migration.migrations, 1);
        assert_eq!(
            migration.migration_cost_ns,
            moved.buffer.len() as u64 * topology.tier(1).cost.fill_ns
        );
        assert_eq!(live.route_epoch(), 1);
    }
}
