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
//! The handshake between the serving workers (each holding its shard's
//! mutex) and the plane threads is one lock. The job queue, every shard's
//! parked updates and in-flight count, the `closed` flag, the idle-thread
//! count and the work counters are one `PlaneState` under one mutex, with
//! two condvars beside it: plane threads wait on `work` for a job, and
//! workers pacing at the lag limit wait on `progress` for their shard's
//! backlog to fall. Every waiter checks its condition under the lock its
//! waker changes it under, so no wakeup is lost, and a chunk is queued,
//! being computed, or parked — never two of these — whenever anyone looks.
//!
//! * **offer**: queue the chunk and count it in flight for its shard;
//!   notify `work` only when a plane thread is idle.
//! * **take and park**: a plane thread — or a worker pacing at the lag
//!   limit while a full batch waits behind the one being computed
//!   ([`Plane::pending`] ≥ 2 × `max_batch`, so it never splits a batch) —
//!   takes up to `max_batch` queued chunks, computes them with no lock
//!   held, and parks the updates, dropping the in-flight counts in the
//!   same critical section ([`Plane::compute_and_park`]).
//! * **apply**: the one read outside the lock is a per-shard mirror of the
//!   parked count, written under it, so a worker's per-access check is
//!   one atomic load; only a non-zero count takes the lock, and the
//!   updates are applied after it is released.
//!
//! Lock order is shard mutex → plane lock; the plane never takes a shard
//! lock, and no model forward runs under the plane lock.
//!
//! The pacing wait is *bounded* (5 × 5 ms, helping included) because it
//! runs with the shard mutex held: sibling workers' demand accesses to
//! that shard — including SLA-degraded ones, and the fill plane's
//! promotions — queue behind it. A healthy plane notifies well inside one
//! quantum; one that made no progress costs the shard a few more §VI-C
//! skips, never a stall.
//!
//! A plane lives as long as the session that started it. Every
//! `serve()` call on a system's held runtime closes with [`Plane::land`]:
//! the guidance already parked is applied, and what is still queued stays
//! queued, so the plane threads compute it while the next call serves, on
//! the cores that call keeps busy, rather than at the end of this one with
//! the serving core idle. Stopping the session closes the plane, joins its
//! threads once they have computed the rest, and lands it.
//!
//! Everything here is private to the crate; a run's accounting leaves as
//! a [`GuidancePlaneReport`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use recmg_trace::VectorKey;

use crate::engine::GuidancePlaneReport;
use crate::fast::FastScratch;
use crate::sharding::{GuidanceCtx, Shard, ShardRouter, ShardedRecMgSystem};

/// A chunk handed to the plane.
struct GuidanceJob {
    shard: usize,
    chunk: Vec<VectorKey>,
    armed: bool,
}

/// One `progress` wait of [`PlanePort::pace`], and how many of them bound
/// the whole pace (helping included).
const PACE_QUANTUM: Duration = Duration::from_millis(5);
const PACE_QUANTA: u32 = 5;

/// Computed guidance waiting to be applied to a shard.
struct GuidanceUpdate {
    chunk: Vec<VectorKey>,
    bits: Vec<bool>,
    prefetched: Vec<VectorKey>,
}

impl GuidanceUpdate {
    fn apply(&self, shard: &mut Shard, keep_prefetch: bool) {
        let prefetched: &[VectorKey] = if keep_prefetch { &self.prefetched } else { &[] };
        shard.apply_guidance(&self.chunk, &self.bits, prefetched);
    }
}

/// One shard's share of the plane state.
#[derive(Default)]
struct ShardMail {
    /// Computed guidance not yet applied.
    parked: Vec<GuidanceUpdate>,
    /// Chunks offered and not yet parked: queued or being computed.
    in_flight: usize,
}

/// Everything the plane threads and the serving workers share, under the
/// plane's one lock.
struct PlaneState {
    jobs: VecDeque<GuidanceJob>,
    shards: Vec<ShardMail>,
    /// Set by [`Plane::close`]: offers are refused, and plane threads exit
    /// once the queue is dry.
    closed: bool,
    /// Plane threads blocked on `work`.
    idle: usize,
    /// Work since the last [`Plane::land`] (`late_chunks` is counted
    /// there, the kernel lane by the caller).
    report: GuidancePlaneReport,
}

impl PlaneState {
    /// Chunks offered whose guidance is not parked yet, across shards.
    fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.in_flight).sum()
    }
}

/// Plane state shared by serving workers and plane threads.
pub(crate) struct Plane {
    state: Mutex<PlaneState>,
    /// Where plane threads wait for a job (or for the close).
    work: Condvar,
    /// Where pacing workers wait for parked guidance.
    progress: Condvar,
    /// `ShardMail::parked.len()` per shard, stored under the lock: the
    /// serving path's "anything to apply?" is one load. `Relaxed` is
    /// enough, because the mirror publishes nothing: the updates are only
    /// read under the lock, and a stale zero only defers an apply to a
    /// later access.
    parked: Vec<AtomicUsize>,
    max_lag: usize,
    max_batch: usize,
}

impl Plane {
    /// An open plane over `num_shards` shards, with nothing queued.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub(crate) fn new(num_shards: usize, max_lag: usize, max_batch: usize) -> Self {
        assert!(max_batch > 0, "need a positive guidance batch size");
        Plane {
            state: Mutex::new(PlaneState {
                jobs: VecDeque::new(),
                shards: (0..num_shards).map(|_| ShardMail::default()).collect(),
                closed: false,
                idle: 0,
                report: GuidancePlaneReport::default(),
            }),
            work: Condvar::new(),
            progress: Condvar::new(),
            parked: (0..num_shards).map(|_| AtomicUsize::new(0)).collect(),
            max_lag,
            max_batch,
        }
    }

    fn lock(&self) -> MutexGuard<'_, PlaneState> {
        self.state.lock().expect("plane lock")
    }

    /// Chunks offered to the plane whose guidance has not been computed
    /// yet, across shards.
    pub(crate) fn pending(&self) -> usize {
        self.lock().pending()
    }

    /// Refuses every later offer; plane threads compute what is still
    /// queued and then return from [`Plane::run`].
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.work.notify_all();
    }

    /// Shard `sid`'s side of the handshake, for one served sub-batch.
    /// `router` and `scratch` (the serving worker's own) are what the port
    /// needs to compute a batch when it helps while pacing.
    pub(crate) fn port<'a>(
        &'a self,
        sid: usize,
        router: &'a ShardRouter,
        scratch: &'a RefCell<FastScratch>,
    ) -> PlanePort<'a> {
        PlanePort {
            plane: self,
            sid,
            router,
            scratch,
        }
    }

    /// Plane-thread body: coalesce every pending chunk (up to `max_batch`)
    /// into one batched model forward per model, then park the per-shard
    /// updates. Returns once the plane is closed and its queue is dry.
    ///
    /// Under multi-shard load the plane's weight traffic is O(batches),
    /// not O(chunks) — while a batch is being computed, workers keep
    /// queueing chunks, so the next take naturally coalesces the backlog.
    pub(crate) fn run(&self, system: &ShardedRecMgSystem) {
        let (ctx, router) = (&system.ctx, &system.router);
        let mut jobs: Vec<GuidanceJob> = Vec::with_capacity(self.max_batch);
        let mut scratch = FastScratch::default();
        let mut state = self.lock();
        loop {
            if self.take(&mut state, &mut jobs) {
                drop(state);
                state = self.compute_and_park(&mut jobs, ctx, router, &mut scratch);
            } else if state.closed {
                return;
            } else {
                state.idle += 1;
                state = self.work.wait(state).expect("plane lock");
                state.idle -= 1;
            }
        }
    }

    /// Moves up to `max_batch` queued chunks into `jobs` and counts the
    /// batch; `false` when nothing is queued.
    fn take(&self, state: &mut PlaneState, jobs: &mut Vec<GuidanceJob>) -> bool {
        let n = state.jobs.len().min(self.max_batch);
        if n == 0 {
            return false;
        }
        jobs.extend(state.jobs.drain(..n));
        let report = &mut state.report;
        report.drains += 1;
        report.chunks += n as u64;
        report.max_batch = report.max_batch.max(n as u64);
        true
    }

    /// The one batch tail, shared by plane threads and pacing helpers:
    /// one batched forward per model over `jobs` with no lock held; then,
    /// back under the lock (returned to the caller), every update parked
    /// with its shard's in-flight count dropped, and pacing workers woken.
    /// Leaves `jobs` empty.
    fn compute_and_park(
        &self,
        jobs: &mut Vec<GuidanceJob>,
        ctx: &GuidanceCtx,
        router: &ShardRouter,
        scratch: &mut FastScratch,
    ) -> MutexGuard<'_, PlaneState> {
        let batch: Vec<(&[VectorKey], bool, usize)> = jobs
            .iter()
            .map(|j| (j.chunk.as_slice(), j.armed, j.shard))
            .collect();
        let (guidance, forwards) = Shard::compute_guidance_batch(&batch, ctx, router, scratch);

        let mut state = self.lock();
        state.report.model_forwards += forwards;
        for (job, (bits, prefetched)) in jobs.drain(..).zip(guidance) {
            let mail = &mut state.shards[job.shard];
            mail.in_flight -= 1;
            mail.parked.push(GuidanceUpdate {
                chunk: job.chunk,
                bits,
                prefetched,
            });
            self.parked[job.shard].store(mail.parked.len(), Ordering::Relaxed);
        }
        self.progress.notify_all();
        state
    }

    /// Takes shard `sid`'s parked updates and zeroes its mirror.
    fn take_parked(&self, state: &mut PlaneState, sid: usize) -> Vec<GuidanceUpdate> {
        self.parked[sid].store(0, Ordering::Relaxed);
        std::mem::take(&mut state.shards[sid].parked)
    }

    /// Closes out a run once its workers are idle: applies the guidance
    /// parked for every shard and returns the plane's accounting since
    /// the previous close-out (the counters restart at zero, so a plane
    /// that serves several runs reports each one's share). The kernel
    /// lane is the caller's to fill in. Takes every shard lock, in shard
    /// order, before the plane lock.
    ///
    /// Guidance computed after its shard went idle is still valid buffer
    /// reprioritization — applying it hands the system back warm. The
    /// model ran and the update lands exactly as an inline apply between
    /// batches would, so it counts as guided. `late_chunks` is the plane
    /// lag a capacity planner should watch: every chunk whose guidance had
    /// not landed when the run's last access was served — parked and
    /// applied here, or still queued on a plane that runs on past the run
    /// (its guidance lands at the next run's first access of the shard).
    pub(crate) fn land(&self, shards: &[Mutex<Shard>]) -> GuidancePlaneReport {
        let mut shards: Vec<MutexGuard<'_, Shard>> = shards
            .iter()
            .map(|s| s.lock().expect("shard lock"))
            .collect();
        let mut state = self.lock();
        let mut report = std::mem::take(&mut state.report);
        for (sid, shard) in shards.iter_mut().enumerate() {
            let mail = &state.shards[sid];
            report.late_chunks += (mail.parked.len() + mail.in_flight) as u64;
            for update in self.take_parked(&mut state, sid) {
                update.apply(shard, true);
            }
        }
        report
    }
}

/// One shard's view of the plane while a worker serves a sub-batch on it,
/// plus the worker's router and model scratch.
pub(crate) struct PlanePort<'a> {
    plane: &'a Plane,
    sid: usize,
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
        if self.plane.parked[self.sid].load(Ordering::Relaxed) == 0 {
            return;
        }
        let parked = self.plane.take_parked(&mut self.plane.lock(), self.sid);
        for update in parked {
            update.apply(shard, keep_prefetch);
        }
    }

    /// Whether the shard is below the plane's lag limit. At the limit the
    /// arriving chunk runs on stale guidance — the §VI-C skip, verbatim.
    pub(crate) fn has_room(&self) -> bool {
        self.plane.lock().shards[self.sid].in_flight < self.plane.max_lag
    }

    /// Producer pacing after a skip. What changes with the coalescing
    /// plane is what happens *next*: instead of racing further ahead and
    /// converting every following chunk into a skip too (which is how
    /// `guided_fraction` collapsed under multi-shard load), the producer
    /// paces itself on `progress` until the plane has drained the
    /// backlog to a low-water mark. The hysteresis makes production bursty
    /// on purpose — one wake/sleep cycle per `max_lag - low_water` chunks,
    /// so context switches amortize over the burst and the plane always
    /// wakes to a full coalescing batch. Under sustained saturation the
    /// steady state is one skipped chunk per burst (guided fraction ≈
    /// 1 - 1/burst); when the plane keeps up nothing is skipped at all.
    ///
    /// While a full batch is queued behind the one being computed, the
    /// producer computes it instead of waiting: the core it would have
    /// slept on becomes a second guidance consumer.
    pub(crate) fn pace(&self, ctx: &GuidanceCtx) {
        let plane = self.plane;
        if plane.max_lag == 0 {
            // The plane accepts no work: plain skip-ahead.
            return;
        }
        let low_water = plane.max_lag / 4;
        // The pacing wait runs with this shard's mutex held, so it must
        // stay short: a healthy plane parks a batch in well under a
        // timeout quantum (the notify is what actually wakes the
        // producer), and if it has made no progress after a few quanta —
        // or helping has used up their time — we fall back to racing
        // ahead (more §VI-C skips) rather than stalling sibling workers'
        // — including SLA-degraded — demand accesses on the lock.
        let give_up = Instant::now() + PACE_QUANTUM * PACE_QUANTA;
        let mut waits = 0u32;
        let mut jobs = Vec::new();
        let mut state = plane.lock();
        while state.shards[self.sid].in_flight > low_water && waits < PACE_QUANTA {
            let now = Instant::now();
            if now >= give_up {
                break;
            }
            if state.pending() >= 2 * plane.max_batch && plane.take(&mut state, &mut jobs) {
                drop(state);
                let scratch = &mut self.scratch.borrow_mut();
                state = plane.compute_and_park(&mut jobs, ctx, self.router, scratch);
                continue;
            }
            let quantum = PACE_QUANTUM.min(give_up - now);
            state = plane
                .progress
                .wait_timeout(state, quantum)
                .expect("plane lock")
                .0;
            waits += 1;
        }
    }

    /// Queues the shard's completed chunk for the plane, `armed` saying
    /// whether the shard's own prefetch gate is open. Returns `false` if
    /// the plane is closed (can only happen at teardown): the chunk found
    /// no consumer.
    ///
    /// Plane-pressure degradation, mirroring the SLA ladder
    /// ([`DegradeLevel::PrefetchOff`]): when the plane's total backlog has
    /// built past an eighth of its aggregate lag budget (`shards ×
    /// max_lag`, so the threshold scales with the shard count instead of
    /// choking prefetch at high shard counts), the chunk is queued for
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
    pub(crate) fn offer(&self, chunk: Vec<VectorKey>, armed: bool) -> bool {
        let plane = self.plane;
        let mut state = plane.lock();
        if state.closed {
            return false;
        }
        let shed_at = (state.shards.len() * plane.max_lag / 8).max(1);
        let armed = armed && state.pending() <= shed_at;
        state.shards[self.sid].in_flight += 1;
        state.jobs.push_back(GuidanceJob {
            shard: self.sid,
            chunk,
            armed,
        });
        // A futex notify is a syscall even with nobody waiting.
        let wake = state.idle > 0;
        drop(state);
        if wake {
            plane.work.notify_one();
        }
        true
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
        let len = plane.lock().shards[sid].parked.len();
        assert_eq!(plane.parked[sid].load(Ordering::Relaxed), len);
        len
    }

    fn take_queued(plane: &Plane) -> usize {
        plane.lock().jobs.drain(..).count()
    }

    fn in_flight(plane: &Plane, sid: usize) -> usize {
        plane.lock().shards[sid].in_flight
    }

    fn counters(plane: &Plane) -> GuidancePlaneReport {
        plane.lock().report
    }

    /// With no plane thread at all, the paced worker is the only consumer:
    /// it computes full batches until its shard is at the low-water mark,
    /// parks the updates, and counts them as plane drains.
    #[test]
    fn a_paced_worker_drains_its_backlog_without_a_plane_thread() {
        let sys = system(2);
        let input_len = sys.ctx.cfg.input_len;
        let (max_lag, max_batch) = (8, 2);
        let plane = Plane::new(2, max_lag, max_batch);
        let scratch = RefCell::new(FastScratch::default());
        let port = plane.port(0, &sys.router, &scratch);
        for c in 0..max_lag as u64 {
            assert!(port.offer(chunk(c, input_len), c % 2 == 0));
        }

        port.pace(&sys.ctx);

        let low_water = max_lag / 4;
        let in_flight = in_flight(&plane, 0);
        assert!(
            in_flight <= low_water,
            "in_flight {in_flight} > {low_water}"
        );
        assert_eq!(parked(&plane, 0), max_lag - in_flight);
        assert_eq!(parked(&plane, 1), 0);
        let report = counters(&plane);
        assert_eq!(report.chunks, (max_lag - in_flight) as u64);
        assert_eq!(report.drains, ((max_lag - in_flight) / max_batch) as u64);
        assert_eq!(report.max_batch, max_batch as u64);
        assert!(report.model_forwards > 0);
        assert_eq!(take_queued(&plane), in_flight);
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
        let plane = Plane::new(2, max_lag, max_batch);
        let scratch = RefCell::new(FastScratch::default());
        let port = plane.port(1, &sys.router, &scratch);
        let below = 2 * max_batch - 1;
        for c in 0..below as u64 {
            assert!(port.offer(chunk(c, input_len), true));
        }

        port.pace(&sys.ctx);
        assert_eq!(in_flight(&plane, 1), below);
        assert_eq!(parked(&plane, 1), 0);
        assert_eq!(counters(&plane), GuidancePlaneReport::default());

        assert!(port.offer(chunk(below as u64, input_len), true));
        port.pace(&sys.ctx);
        assert_eq!(in_flight(&plane, 1), max_batch);
        assert_eq!(parked(&plane, 1), max_batch);
        let report = counters(&plane);
        assert_eq!(report.drains, 1);
        assert_eq!(report.chunks, max_batch as u64);
        assert_eq!(report.max_batch, max_batch as u64);
        assert_eq!(take_queued(&plane), max_batch);
    }

    /// Closing out a run applies what is parked and leaves what is queued
    /// for the plane to compute; both count as late, once per close-out
    /// while they stay unlanded, and the work counters restart each time.
    #[test]
    fn land_applies_the_parked_and_leaves_the_queued_to_the_plane() {
        let sys = system(2);
        let input_len = sys.ctx.cfg.input_len;
        let (max_lag, max_batch) = (8, 4);
        let plane = Plane::new(2, max_lag, max_batch);
        let scratch = RefCell::new(FastScratch::default());
        let port = plane.port(1, &sys.router, &scratch);
        for c in 0..max_lag as u64 {
            assert!(port.offer(chunk(c, input_len), true));
        }
        // The helper computes one full batch; the other stays queued.
        port.pace(&sys.ctx);
        assert_eq!(parked(&plane, 1), max_batch);

        let first = plane.land(&sys.shards);
        assert_eq!(first.late_chunks, max_lag as u64);
        assert_eq!((first.drains, first.chunks), (1, max_batch as u64));
        assert_eq!(first.max_batch, max_batch as u64);
        assert_eq!(parked(&plane, 1), 0);
        assert_eq!(sys.guided_chunks(), max_batch as u64);

        let again = plane.land(&sys.shards);
        assert_eq!(again.late_chunks, (max_lag - max_batch) as u64);
        assert_eq!((again.drains, again.chunks, again.max_batch), (0, 0, 0));
        assert_eq!(sys.guided_chunks(), max_batch as u64);

        // A closed plane's thread computes the rest before it returns.
        plane.close();
        plane.run(&sys);
        assert_eq!(plane.pending(), 0);
        let last = plane.land(&sys.shards);
        assert_eq!(last.late_chunks, (max_lag - max_batch) as u64);
        assert_eq!(last.chunks, (max_lag - max_batch) as u64);
        assert_eq!(sys.guided_chunks(), max_lag as u64);
        assert_eq!(plane.land(&sys.shards), GuidancePlaneReport::default());
    }

    /// `close` wakes an idle plane thread, which returns; a closed plane
    /// refuses offers without counting them, and `run` on it, closed and
    /// empty, returns at once.
    #[test]
    fn a_closed_plane_refuses_offers_and_stops_its_threads() {
        let sys = system(2);
        let input_len = sys.ctx.cfg.input_len;
        let plane = std::sync::Arc::new(Plane::new(2, 8, 4));
        let idle = {
            let (plane, system) = (std::sync::Arc::clone(&plane), sys.share());
            std::thread::spawn(move || plane.run(&system))
        };
        while plane.lock().idle == 0 {
            std::thread::yield_now();
        }

        plane.close();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !idle.is_finished() {
            assert!(
                Instant::now() < deadline,
                "close left the idle thread asleep"
            );
            std::thread::yield_now();
        }
        idle.join().expect("plane thread does not panic");

        let scratch = RefCell::new(FastScratch::default());
        let port = plane.port(0, &sys.router, &scratch);
        assert!(!port.offer(chunk(0, input_len), true));
        assert_eq!(plane.pending(), 0);
        assert_eq!(take_queued(&plane), 0);
        plane.run(&sys);
        assert_eq!(plane.land(&sys.shards), GuidancePlaneReport::default());
        assert_eq!(sys.total_chunks(), 0);
    }
}
