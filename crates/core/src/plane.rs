//! The background guidance plane: the paper's §VI-C skip-ahead rule.
//!
//! "The DLRM inference does not wait for the CPU completion. Instead, GPU
//! moves on to the next DLRM inference batch, and CPU moves on to infer
//! for the future batch." Serving workers never wait *on a guidance
//! result*: a completed chunk is offered to this plane's threads
//! ([`PlanePort::offer`], through [`Guide::Plane`](crate::sharding::Guide)
//! in the one demand loop, [`Shard::serve`]), the plane computes guidance
//! for every pending chunk in one batched forward per model
//! ([`Plane::run`]), and the shard applies whatever has finished before
//! its next access ([`PlanePort::apply_ready`]). A shard whose backlog is
//! at `max_lag` skips the chunk instead — it rides on stale priorities —
//! and then paces itself ([`PlanePort::pace`]).
//!
//! The handshake between a serving worker (holding its shard's mutex) and
//! the plane threads, per shard:
//!
//! * **mailbox** (`CompletedSlot`): the plane parks computed updates under
//!   the slot's mutex and mirrors the count into `len` (`Release`); the
//!   worker's per-access check is one `Acquire` load of `len`, and only a
//!   non-zero count takes the lock.
//! * **`in_flight`**: incremented by the worker before the send,
//!   decremented by the plane only *after* the update is parked — a shard
//!   never sees "plane idle" with its guidance still un-parked, which is
//!   what lets a caller wait for quiescence on [`Plane::pending`].
//! * **lag gate**: a condvar the plane notifies after every drained
//!   batch. The notify takes (and drops) the gate lock first, so it is
//!   ordered after any `in_flight` check a waiter made before blocking
//!   and the wakeup cannot be missed.
//! * **helper**: a worker pacing at the lag limit does not sleep while a
//!   full batch waits behind the one the plane is computing
//!   ([`Plane::pending`] ≥ 2 × `max_batch`): it drains that batch itself
//!   and runs the plane's own drain tail ([`Plane::compute_and_park`]),
//!   so its idle core becomes a second guidance consumer. Lock order is
//!   shard mutex → receiver (`try_lock` only: a plane thread holds it
//!   while draining, or while blocked in `recv` on an empty channel) →
//!   slot mutex; the plane never takes a shard lock. The gate lock is *not*
//!   held while computing — the drain tail's own notify takes it — and
//!   the helper re-checks `in_flight` under it before each wait, exactly
//!   as the pure waiter did.
//!
//! The pacing wait is *bounded* (5 × 5 ms, helping included) because it
//! runs with the shard mutex held: sibling workers' demand accesses to
//! that shard — including SLA-degraded ones, and the fill plane's
//! promotions — queue behind it. A healthy plane notifies well inside one
//! quantum; one that made no progress costs the shard a few more §VI-C
//! skips, never a stall.
//!
//! Everything here is private to the crate: the session owns a [`Plane`]
//! for the lifetime of a background-guided run and reads it back as a
//! [`GuidancePlaneReport`] ([`Plane::finish`]).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

use recmg_trace::VectorKey;

use crate::engine::GuidancePlaneReport;
use crate::fast::FastScratch;
use crate::sharding::{GuidanceCtx, Shard, ShardRouter};

/// A chunk handed to the plane.
pub(crate) struct GuidanceJob {
    shard: usize,
    chunk: Vec<VectorKey>,
    armed: bool,
}

/// The workers' end of the plane's job channel. The plane threads exit
/// once every clone is dropped.
pub(crate) type JobSender = mpsc::Sender<GuidanceJob>;

/// One lag-gate wait of [`PlanePort::pace`], and how many of them bound
/// the whole pace (helping included).
const PACE_QUANTUM: Duration = Duration::from_millis(5);
const PACE_QUANTA: u32 = 5;

/// Computed guidance waiting to be applied to a shard.
struct GuidanceUpdate {
    chunk: Vec<VectorKey>,
    bits: Vec<bool>,
    prefetched: Vec<VectorKey>,
}

/// Per-shard mailbox of computed guidance. `len` mirrors the vector length
/// (both only change under the mutex) so the serving fast path can check
/// "anything to apply?" with one atomic load instead of taking the lock on
/// every access.
#[derive(Default)]
struct CompletedSlot {
    updates: Mutex<Vec<GuidanceUpdate>>,
    len: AtomicUsize,
}

/// Plane state shared by serving workers and plane threads.
pub(crate) struct Plane {
    rx: Mutex<mpsc::Receiver<GuidanceJob>>,
    completed: Vec<CompletedSlot>,
    in_flight: Vec<AtomicUsize>,
    /// Exact-wakeup gate for producer pacing: the plane notifies after
    /// every drained batch; a worker whose shard is at the lag limit waits
    /// here instead of sleeping blind, so it resumes the moment the
    /// backlog clears rather than a sleep-quantum later.
    lag_gate: Mutex<()>,
    lag_cv: Condvar,
    max_lag: usize,
    max_batch: usize,
    /// Batched model forwards run (one per model invocation per drain).
    model_forwards: AtomicU64,
    /// Drain iterations that processed at least one chunk.
    drains: AtomicU64,
    /// Chunks computed by the plane.
    chunks: AtomicU64,
    /// Largest coalesced batch observed.
    max_batch_seen: AtomicU64,
}

impl Plane {
    /// A plane over `num_shards` mailboxes, plus the sender workers clone.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub(crate) fn new(num_shards: usize, max_lag: usize, max_batch: usize) -> (Self, JobSender) {
        assert!(max_batch > 0, "need a positive guidance batch size");
        let (tx, rx) = mpsc::channel();
        let plane = Plane {
            rx: Mutex::new(rx),
            completed: (0..num_shards).map(|_| CompletedSlot::default()).collect(),
            in_flight: (0..num_shards).map(|_| AtomicUsize::new(0)).collect(),
            lag_gate: Mutex::new(()),
            lag_cv: Condvar::new(),
            max_lag,
            max_batch,
            model_forwards: AtomicU64::new(0),
            drains: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            max_batch_seen: AtomicU64::new(0),
        };
        (plane, tx)
    }

    /// Chunks offered to the plane whose guidance has not been computed
    /// yet, across shards.
    pub(crate) fn pending(&self) -> usize {
        self.in_flight
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .sum()
    }

    /// Shard `sid`'s side of the handshake, for one served sub-batch.
    /// `router` and `scratch` (the serving worker's own) are what the port
    /// needs to compute a batch when it helps while pacing.
    pub(crate) fn port<'a>(
        &'a self,
        sid: usize,
        tx: &'a JobSender,
        router: &'a ShardRouter,
        scratch: &'a RefCell<FastScratch>,
    ) -> PlanePort<'a> {
        PlanePort {
            plane: self,
            slot: &self.completed[sid],
            in_flight: &self.in_flight[sid],
            tx,
            router,
            scratch,
        }
    }

    /// Plane-thread body: coalesce every pending chunk (up to `max_batch`)
    /// into one batched model forward per model, then scatter the
    /// per-shard updates. Exits when every sender (worker) is gone.
    ///
    /// Under multi-shard load the plane's weight traffic is O(drained
    /// batches), not O(chunks) — while a drain is being computed, workers
    /// keep appending jobs to the channel, so the next drain naturally
    /// coalesces the backlog.
    pub(crate) fn run(&self, ctx: &GuidanceCtx, router: &ShardRouter) {
        let mut jobs: Vec<GuidanceJob> = Vec::with_capacity(self.max_batch);
        let mut scratch = FastScratch::default();
        loop {
            {
                // Hold the receiver only while draining; the batched forward
                // below runs lock-free so sibling plane threads (and pacing
                // helpers) can drain the next backlog concurrently.
                let rx = self.rx.lock().expect("rx lock");
                let Ok(first) = rx.recv() else {
                    break; // all workers done
                };
                jobs.push(first);
                jobs.extend(rx.try_iter().take(self.max_batch - 1));
            }
            self.compute_and_park(&mut jobs, ctx, router, &mut scratch);
        }
    }

    /// A pacing worker's turn as a plane consumer: takes one full batch
    /// off the job channel and runs the drain tail on it. Declines —
    /// returning `false` — unless a full batch waits behind the one the
    /// plane is computing (`pending ≥ 2 × max_batch`), so a helper never
    /// splits what the plane would have coalesced, and when the receiver
    /// is held (a plane thread is blocked in `recv` on an empty channel,
    /// or is draining it right now).
    fn help(&self, ctx: &GuidanceCtx, router: &ShardRouter, scratch: &mut FastScratch) -> bool {
        if self.pending() < 2 * self.max_batch {
            return false;
        }
        let Ok(rx) = self.rx.try_lock() else {
            return false;
        };
        let mut jobs: Vec<GuidanceJob> = rx.try_iter().take(self.max_batch).collect();
        drop(rx);
        if jobs.is_empty() {
            return false;
        }
        self.compute_and_park(&mut jobs, ctx, router, scratch);
        true
    }

    /// The one drain tail, shared by plane threads and pacing helpers:
    /// one batched forward per model over `jobs`, each update parked in
    /// its shard's mailbox, `in_flight` decremented after parking, then
    /// the lag gate notified. Leaves `jobs` empty.
    fn compute_and_park(
        &self,
        jobs: &mut Vec<GuidanceJob>,
        ctx: &GuidanceCtx,
        router: &ShardRouter,
        scratch: &mut FastScratch,
    ) {
        self.drains.fetch_add(1, Ordering::Relaxed);
        self.chunks.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        self.max_batch_seen
            .fetch_max(jobs.len() as u64, Ordering::Relaxed);

        let batch: Vec<(&[VectorKey], bool, usize)> = jobs
            .iter()
            .map(|j| (j.chunk.as_slice(), j.armed, j.shard))
            .collect();
        let (guidance, forwards) = Shard::compute_guidance_batch(&batch, ctx, router, scratch);
        self.model_forwards.fetch_add(forwards, Ordering::Relaxed);

        for (job, (bits, prefetched)) in jobs.drain(..).zip(guidance) {
            let slot = &self.completed[job.shard];
            {
                let mut updates = slot.updates.lock().expect("completed lock");
                updates.push(GuidanceUpdate {
                    chunk: job.chunk,
                    bits,
                    prefetched,
                });
                slot.len.store(updates.len(), Ordering::Release);
            }
            // Decrement only after the update is visible, so a shard never
            // sees "plane idle" with its guidance still un-parked.
            self.in_flight[job.shard].fetch_sub(1, Ordering::AcqRel);
        }
        // Wake producers pacing on the lag gate. Taking (and dropping) the
        // gate lock orders this notify after any in-flight check a waiter
        // made before blocking, so the wakeup cannot be missed.
        drop(self.lag_gate.lock().expect("lag gate lock"));
        self.lag_cv.notify_all();
    }

    /// Closes out a run once every worker and plane thread is joined:
    /// applies the guidance still parked in the mailboxes and returns the
    /// plane's accounting (all zeros for `None`, an inline-guided run).
    ///
    /// Guidance computed after its shard went idle is still valid buffer
    /// reprioritization — applying it hands the system back warm. The
    /// model ran and the update lands exactly as an inline apply between
    /// batches would, so it counts as guided; it is *also* tallied as
    /// plane lag (`late_chunks`: it landed after the last access of the
    /// run), which is the metric a capacity planner should watch.
    pub(crate) fn finish(
        plane: Option<Plane>,
        shards: &mut [Shard],
        kernel_lane: &'static str,
    ) -> GuidancePlaneReport {
        let mut report = GuidancePlaneReport {
            kernel_lane,
            ..GuidancePlaneReport::default()
        };
        let Some(plane) = plane else {
            return report;
        };
        report.model_forwards = plane.model_forwards.into_inner();
        report.drains = plane.drains.into_inner();
        report.chunks = plane.chunks.into_inner();
        report.max_batch = plane.max_batch_seen.into_inner();
        for (shard, slot) in shards.iter_mut().zip(plane.completed) {
            for u in slot.updates.into_inner().expect("completed lock") {
                report.late_chunks += 1;
                shard.apply_guidance(&u.chunk, &u.bits, &u.prefetched);
            }
        }
        report
    }
}

/// One shard's view of the plane while a worker serves a sub-batch on it:
/// the shard's mailbox and backlog counter (resolved once, not per key)
/// plus the worker's sender, router and model scratch.
pub(crate) struct PlanePort<'a> {
    plane: &'a Plane,
    slot: &'a CompletedSlot,
    in_flight: &'a AtomicUsize,
    tx: &'a JobSender,
    router: &'a ShardRouter,
    scratch: &'a RefCell<FastScratch>,
}

impl PlanePort<'_> {
    /// Applies (and clears) whatever guidance the plane has parked for
    /// this shard — bounded staleness, never blocking: one atomic load
    /// when there is nothing to apply. `keep_prefetch: false` strips the
    /// prefetch lists (the [`DegradeLevel::PrefetchOff`] case).
    ///
    /// [`DegradeLevel::PrefetchOff`]: crate::config::DegradeLevel::PrefetchOff
    #[inline]
    pub(crate) fn apply_ready(&self, shard: &mut Shard, keep_prefetch: bool) {
        if self.slot.len.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut updates = self.slot.updates.lock().expect("completed lock");
        for u in updates.drain(..) {
            let prefetched: &[VectorKey] = if keep_prefetch { &u.prefetched } else { &[] };
            shard.apply_guidance(&u.chunk, &u.bits, prefetched);
        }
        self.slot.len.store(0, Ordering::Release);
    }

    /// Whether the shard is below the plane's lag limit. At the limit the
    /// arriving chunk runs on stale guidance — the §VI-C skip, verbatim.
    pub(crate) fn has_room(&self) -> bool {
        self.in_flight.load(Ordering::Acquire) < self.plane.max_lag
    }

    /// Producer pacing after a skip. What changes with the coalescing
    /// plane is what happens *next*: instead of racing further ahead and
    /// converting every following chunk into a skip too (which is how
    /// `guided_fraction` collapsed under multi-shard load), the producer
    /// paces itself on the lag gate until the plane has drained the
    /// backlog to a low-water mark. The hysteresis makes production bursty
    /// on purpose — one wake/sleep cycle per `max_lag - low_water` chunks,
    /// so context switches amortize over the burst and the plane always
    /// wakes to a full coalescing batch. Under sustained saturation the
    /// steady state is one skipped chunk per burst (guided fraction ≈
    /// 1 - 1/burst); when the plane keeps up nothing is skipped at all.
    ///
    /// While a full batch is queued behind the plane's, the producer
    /// computes it instead of waiting ([`Plane::help`]): the core it would
    /// have slept on becomes a second guidance consumer.
    pub(crate) fn pace(&self, ctx: &GuidanceCtx) {
        if self.plane.max_lag == 0 {
            // The plane accepts no work: plain skip-ahead.
            return;
        }
        let low_water = self.plane.max_lag / 4;
        // The pacing wait runs with this shard's mutex held, so it must
        // stay short: a healthy plane drains a batch in well under a
        // timeout quantum (the notify is what actually wakes the
        // producer), and if it has made no progress after a few quanta —
        // or helping has used up their time — we fall back to racing
        // ahead (more §VI-C skips) rather than stalling sibling workers'
        // — including SLA-degraded — demand accesses on the lock.
        let give_up = Instant::now() + PACE_QUANTUM * PACE_QUANTA;
        let mut waits = 0u32;
        while self.in_flight.load(Ordering::Acquire) > low_water && waits < PACE_QUANTA {
            let now = Instant::now();
            if now >= give_up {
                break;
            }
            if self
                .plane
                .help(ctx, self.router, &mut self.scratch.borrow_mut())
            {
                continue;
            }
            let gate = self.plane.lag_gate.lock().expect("lag gate lock");
            if self.in_flight.load(Ordering::Acquire) > low_water {
                let quantum = PACE_QUANTUM.min(give_up - now);
                drop(
                    self.plane
                        .lag_cv
                        .wait_timeout(gate, quantum)
                        .expect("lag gate lock"),
                );
            }
            waits += 1;
        }
    }

    /// Hands shard `shard`'s completed chunk to the plane, `armed` saying
    /// whether the shard's own prefetch gate is open. Returns `false` if
    /// the plane already shut down (can only happen at teardown): the
    /// chunk found no consumer.
    ///
    /// Plane-pressure degradation, mirroring the SLA ladder
    /// ([`DegradeLevel::PrefetchOff`]): when the plane's total backlog has
    /// built past an eighth of its aggregate lag budget (`shards ×
    /// max_lag`, so the threshold scales with the shard count instead of
    /// choking prefetch at high shard counts), the chunk is sent for
    /// caching guidance only. The autoregressive prefetch forward is ~2×
    /// the caching forward; shedding it first keeps the plane's priority
    /// signal fresh for everyone instead of letting speculative work
    /// starve it. With an idle plane (backlog 0) arming is exactly the
    /// sequential system's rule, which is what the 1-shard lockstep oracle
    /// pins. `.max(1)` guards the integer-division cliff: with a tiny
    /// aggregate budget (e.g. 1 shard × max_lag 1) the threshold would
    /// otherwise be 0 and prefetch would be shed on *any* in-flight chunk,
    /// starving the warmup counter forever.
    ///
    /// [`DegradeLevel::PrefetchOff`]: crate::config::DegradeLevel::PrefetchOff
    pub(crate) fn offer(&self, shard: usize, chunk: Vec<VectorKey>, armed: bool) -> bool {
        let shed_at = (self.plane.completed.len() * self.plane.max_lag / 8).max(1);
        let armed = armed && self.plane.pending() <= shed_at;
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        let job = GuidanceJob {
            shard,
            chunk,
            armed,
        };
        let sent = self.tx.send(job).is_ok();
        if !sent {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
        }
        sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::system;
    use recmg_trace::{RowId, TableId};

    /// Chunk `c` of a made-up stream: `len` distinct keys.
    fn chunk(c: u64, len: usize) -> Vec<VectorKey> {
        (0..len as u64)
            .map(|i| VectorKey::new(TableId((c % 3) as u32), RowId(c * 31 + i)))
            .collect()
    }

    fn parked(plane: &Plane, sid: usize) -> usize {
        let slot = &plane.completed[sid];
        let len = slot.len.load(Ordering::Acquire);
        assert_eq!(len, slot.updates.lock().expect("completed lock").len());
        len
    }

    fn take_queued(plane: &Plane) -> usize {
        plane.rx.lock().expect("rx lock").try_iter().count()
    }

    /// With no plane thread at all, the paced worker is the only consumer:
    /// it computes full batches until its shard is at the low-water mark,
    /// parks the updates in the mailbox, and counts them as plane drains.
    #[test]
    fn a_paced_worker_drains_its_backlog_without_a_plane_thread() {
        let sys = system(2);
        let input_len = sys.ctx.cfg.input_len;
        let (max_lag, max_batch) = (8, 2);
        let (plane, tx) = Plane::new(2, max_lag, max_batch);
        let scratch = RefCell::new(FastScratch::default());
        let port = plane.port(0, &tx, &sys.router, &scratch);
        for c in 0..max_lag as u64 {
            assert!(port.offer(0, chunk(c, input_len), c % 2 == 0));
        }

        port.pace(&sys.ctx);

        let low_water = max_lag / 4;
        let in_flight = plane.in_flight[0].load(Ordering::Acquire);
        assert!(
            in_flight <= low_water,
            "in_flight {in_flight} > {low_water}"
        );
        assert_eq!(parked(&plane, 0), max_lag - in_flight);
        assert_eq!(parked(&plane, 1), 0);
        assert_eq!(take_queued(&plane), in_flight);
        assert_eq!(
            plane.chunks.load(Ordering::Relaxed),
            (max_lag - in_flight) as u64
        );
        assert_eq!(
            plane.drains.load(Ordering::Relaxed),
            ((max_lag - in_flight) / max_batch) as u64
        );
        assert_eq!(
            plane.max_batch_seen.load(Ordering::Relaxed),
            max_batch as u64
        );
        assert!(plane.model_forwards.load(Ordering::Relaxed) > 0);
    }

    /// The helper takes a batch only while a full one would still be left
    /// for the plane: below 2 × `max_batch` pending it computes nothing,
    /// and at exactly 2 × `max_batch` it takes one full batch and leaves
    /// the other queued.
    #[test]
    fn pace_never_takes_a_partial_batch() {
        let sys = system(2);
        let input_len = sys.ctx.cfg.input_len;
        let (max_lag, max_batch) = (8, 4);
        let (plane, tx) = Plane::new(2, max_lag, max_batch);
        let scratch = RefCell::new(FastScratch::default());
        let port = plane.port(1, &tx, &sys.router, &scratch);
        let below = 2 * max_batch - 1;
        for c in 0..below as u64 {
            assert!(port.offer(1, chunk(c, input_len), true));
        }

        port.pace(&sys.ctx);
        assert_eq!(plane.in_flight[1].load(Ordering::Acquire), below);
        assert_eq!(parked(&plane, 1), 0);
        assert_eq!(plane.drains.load(Ordering::Relaxed), 0);
        assert_eq!(plane.model_forwards.load(Ordering::Relaxed), 0);

        assert!(port.offer(1, chunk(below as u64, input_len), true));
        port.pace(&sys.ctx);
        assert_eq!(plane.in_flight[1].load(Ordering::Acquire), max_batch);
        assert_eq!(parked(&plane, 1), max_batch);
        assert_eq!(plane.drains.load(Ordering::Relaxed), 1);
        assert_eq!(plane.chunks.load(Ordering::Relaxed), max_batch as u64);
        assert_eq!(
            plane.max_batch_seen.load(Ordering::Relaxed),
            max_batch as u64
        );
        assert_eq!(take_queued(&plane), max_batch);
    }
}
