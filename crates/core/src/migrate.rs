//! Live migration: zero-drain rebalancing.
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
//!
//! Demand conservation is the load-bearing invariant: every demand access
//! is recorded exactly once on the shard's buffer under the shard mutex,
//! and a move replaces only the storage — traffic counters and the sketch
//! stay on the shard. A migration is therefore invisible to hit/miss
//! totals (pinned by the 1-shard parity oracle in
//! `tests/integration_migration.rs`).
//!
//! [`RouteTable`], [`RouteEpoch`] and [`ShardRoute`] are not used by the
//! serving path; they remain only because the benchmark harness times
//! [`RouteTable::pin`] (`benchmark/src/micro.rs`).

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::json::JsonWriter;
use crate::sharding::Shard;
use crate::table_profile::TableProfiler;
use crate::tier::{RebalanceTrigger, ShardPlacement, TierTopology};

/// Trigger-poll interval of the live rebalancer's background thread.
const CHECK_EVERY: Duration = Duration::from_micros(500);

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
    /// Serializes publishers.
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
}

impl Default for LiveRebalanceConfig {
    fn default() -> Self {
        LiveRebalanceConfig {
            min_new_accesses: 0,
            phase_threshold: Some(0.5),
            cooldown: 256,
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
}

impl MigrationReport {
    /// Writes the counters as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("migrations").raw(self.migrations);
            w.key("resizes").raw(self.resizes);
            w.key("migration_cost_ns").raw(self.migration_cost_ns);
        });
    }
}

/// Shared state of a live-rebalancing session: the session totals and the
/// rebalancer's stop flag.
#[derive(Debug)]
pub(crate) struct LiveState {
    pub(crate) cfg: LiveRebalanceConfig,
    /// Session totals. They change only when a shard moves or re-sizes in
    /// place. Taken after any shard lock, never before one.
    totals: Mutex<MigrationReport>,
    pub(crate) stop: AtomicBool,
    /// Shard locks the rebalancer is waiting for. A std mutex lets a
    /// worker that just released a shard take it straight back, so under
    /// a saturated closed loop the rebalancer would wait for the load to
    /// drop; serving workers step aside while this is non-zero
    /// ([`LiveState::step_aside`]). Advisory, so `Relaxed`: it publishes
    /// nothing, and a stale read only costs a worker one more yield or
    /// the rebalancer one more lost race.
    wanted: AtomicUsize,
}

impl LiveState {
    pub(crate) fn new(cfg: LiveRebalanceConfig) -> Self {
        LiveState {
            cfg,
            totals: Mutex::default(),
            stop: AtomicBool::new(false),
            wanted: AtomicUsize::new(0),
        }
    }

    /// Locks `shard` for the rebalancer, ahead of the serving workers.
    fn lock<'a>(&self, shard: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        self.wanted.fetch_add(1, Ordering::Relaxed);
        let locked = shard.lock();
        self.wanted.fetch_sub(1, Ordering::Relaxed);
        locked.expect("shard mutex poisoned")
    }

    /// Called by a serving worker, holding no shard lock, before it locks
    /// a shard: yields while the rebalancer waits for one.
    pub(crate) fn step_aside(&self) {
        while self.wanted.load(Ordering::Relaxed) > 0 {
            std::thread::yield_now();
        }
    }

    /// One reading per shard, in shard order, each under a brief lock.
    fn read_shards<T>(&self, shards: &[Mutex<Shard>], read: impl Fn(&Shard) -> T) -> Vec<T> {
        shards.iter().map(|s| read(&self.lock(s))).collect()
    }

    pub(crate) fn totals(&self) -> MutexGuard<'_, MigrationReport> {
        self.totals.lock().expect("live totals lock poisoned")
    }
}

/// Moves shard `sid` to `placement` while requests flow: the quiescent
/// shard move, under the shard mutex. The destination tier is resolved
/// before the lock is taken, so an out-of-range tier panics without
/// poisoning the shard. Counts the move and its charge.
pub(crate) fn migrate_shard(
    live: &LiveState,
    shards: &[Mutex<Shard>],
    topology: &TierTopology,
    sid: usize,
    placement: &ShardPlacement,
) {
    let to = topology.tier(placement.tier);
    let charge = {
        let mut shard = live.lock(&shards[sid]);
        shard.tier = placement.tier;
        shard.buffer.commit_move(to, placement.capacity.max(1))
    };
    let mut migration = live.totals();
    migration.migrations += 1;
    migration.migration_cost_ns += charge;
}

/// The background live-rebalancer loop, run on its own thread for the
/// lifetime of a live-enabled [`ServingSession`](crate::ServingSession):
/// poll the trigger, run the shared planner on fresh traffic deltas and
/// merged table profiles, install every shard's pin set, migrate shards
/// whose tier changed and re-size those whose capacity did.
pub(crate) fn live_loop(live: &LiveState, system: &crate::ShardedRecMgSystem) {
    let (shards, ctx, router) = (&system.shards, &system.ctx, &system.router);
    let mut trigger = live.cfg.trigger();
    while !live.stop.load(Ordering::Acquire) {
        std::thread::sleep(CHECK_EVERY);
        if live.stop.load(Ordering::Acquire) {
            break;
        }
        let (demands, scores): (Vec<u64>, Vec<f64>) = live
            .read_shards(shards, |s| {
                (s.buffer.demand_count(), s.buffer.phase_score())
            })
            .into_iter()
            .unzip();
        let Some(fire) = trigger.check(&demands, &scores) else {
            continue;
        };
        let deltas = trigger.commit(fire, live.read_shards(shards, |s| s.buffer.traffic()));
        let profilers = live.read_shards(shards, |s| s.profiler.clone());
        let tables = TableProfiler::merge(profilers.iter().flatten());
        let (_, plan) = ctx.plan(router, &deltas, &tables);
        for (shard, (_, pins)) in shards.iter().zip(&plan) {
            live.lock(shard).buffer.set_pinned_tables(pins);
        }
        for (sid, (placement, _)) in plan.iter().enumerate() {
            if live.stop.load(Ordering::Acquire) {
                return;
            }
            let mut shard = live.lock(&shards[sid]);
            if shard.tier != placement.tier {
                drop(shard);
                migrate_shard(live, shards, &ctx.topology, sid, placement);
            } else if shard.apply_placement(placement, &ctx.topology) {
                live.totals().resizes += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SketchConfig;
    use recmg_trace::{RowId, TableId, VectorKey};

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
        let migration = *live.totals();
        assert_eq!(migration.migrations, 1);
        assert_eq!(
            migration.migration_cost_ns,
            moved.buffer.len() as u64 * topology.tier(1).cost.fill_ns
        );
    }
}
