//! The background guidance plane: the paper's §VI-C skip-ahead rule.
//!
//! "The DLRM inference does not wait for the CPU completion. Instead, GPU
//! moves on to the next DLRM inference batch, and CPU moves on to infer
//! for the future batch." Serving workers never wait *on a guidance
//! result*. A worker meets the plane twice, through the shard's
//! [`PlanePort`]: when it takes the shard it lands the guidance parked
//! for it ([`PlanePort::land`]), and at every chunk boundary of the one
//! demand loop, [`Shard::serve`] (through
//! [`Guide::Plane`](crate::sharding::Guide)), it hands the completed chunk
//! over and takes what was parked meanwhile ([`PlanePort::exchange`]) —
//! the paper's "after each chunk of accesses" (Algorithm 1). The plane
//! computes guidance for every pending chunk in one batched forward per
//! model ([`Plane::run`]). A shard whose backlog is at `max_lag` skips the
//! chunk instead — it rides on stale priorities — and then paces itself.
//! The whole lag policy (skip, pace, help, shed) lives here.
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
//! * **exchange**: in one critical section, take the shard's parked
//!   updates and, unless the shard is at `max_lag` or the plane is
//!   closed, queue the chunk and count it in flight; notify `work` only
//!   when a plane thread is idle. The updates are applied after the lock
//!   is released.
//! * **take and park**: a plane thread — or a worker pacing at the lag
//!   limit while a full batch waits behind the one being computed
//!   ([`Plane::pending`] ≥ 2 × `max_batch`, so it never splits a batch) —
//!   takes up to `max_batch` queued chunks, computes them with no lock
//!   held, and parks the updates, dropping the in-flight counts in the
//!   same critical section ([`Plane::compute_and_park`]).
//! * **land**: take the shard's parked updates under the lock, apply them
//!   after releasing it — once per shard visit, before its first access.
//!
//! Lock order is shard mutex → plane lock: plane threads never take a
//! shard lock, the close-out ([`Plane::land`]) takes every shard's before
//! the plane's, and no model forward runs under the plane lock.
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
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use recmg_trace::VectorKey;

use crate::engine::GuidancePlaneReport;
use crate::fast::FastScratch;
use crate::sharding::{Shard, ShardedRecMgSystem};

/// A chunk handed to the plane.
struct GuidanceJob {
    shard: usize,
    chunk: Vec<VectorKey>,
    armed: bool,
}

/// One `progress` wait of a worker pacing at the lag limit, and how many of them bound
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
    /// Set by [`Plane::close`]: chunks are refused, and plane threads exit
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

    /// Refuses every later chunk; plane threads compute what is still
    /// queued and then return from [`Plane::run`].
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.work.notify_all();
    }

    /// Shard `sid`'s side of the handshake, for one served sub-batch.
    /// `system` (for its guidance context and router) and `scratch` (the
    /// serving worker's own) are what the port needs to compute a batch
    /// when it helps while pacing.
    pub(crate) fn port<'a>(
        &'a self,
        sid: usize,
        system: &'a ShardedRecMgSystem,
        scratch: &'a RefCell<FastScratch>,
    ) -> PlanePort<'a> {
        PlanePort {
            plane: self,
            sid,
            system,
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
        let mut jobs: Vec<GuidanceJob> = Vec::with_capacity(self.max_batch);
        let mut scratch = FastScratch::default();
        let mut state = self.lock();
        loop {
            if self.take(&mut state, &mut jobs) {
                drop(state);
                state = self.compute_and_park(&mut jobs, system, &mut scratch);
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
        system: &ShardedRecMgSystem,
        scratch: &mut FastScratch,
    ) -> MutexGuard<'_, PlaneState> {
        let batch: Vec<(&[VectorKey], bool, usize)> = jobs
            .iter()
            .map(|j| (j.chunk.as_slice(), j.armed, j.shard))
            .collect();
        let (guidance, forwards) =
            Shard::compute_guidance_batch(&batch, &system.ctx, &system.router, scratch);

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
        }
        self.progress.notify_all();
        state
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
    /// (its guidance lands at the next run's first visit of the shard).
    pub(crate) fn land(&self, shards: &[Mutex<Shard>]) -> GuidancePlaneReport {
        let mut shards: Vec<MutexGuard<'_, Shard>> = shards
            .iter()
            .map(|s| s.lock().expect("shard lock"))
            .collect();
        let mut state = self.lock();
        let mut report = std::mem::take(&mut state.report);
        for (shard, mail) in shards.iter_mut().zip(&mut state.shards) {
            report.late_chunks += (mail.parked.len() + mail.in_flight) as u64;
            for update in mail.parked.drain(..) {
                update.apply(shard, true);
            }
        }
        report
    }
}

/// One shard's view of the plane while a worker serves a sub-batch on it,
/// plus the worker's system handle and model scratch.
pub(crate) struct PlanePort<'a> {
    plane: &'a Plane,
    sid: usize,
    system: &'a ShardedRecMgSystem,
    scratch: &'a RefCell<FastScratch>,
}

impl PlanePort<'_> {
    /// Applies (and clears) whatever guidance the plane has parked for
    /// this shard — bounded staleness, never blocking. A worker calls it
    /// once when it takes the shard, before the first access.
    /// `keep_prefetch: false` strips the prefetch lists (the
    /// [`DegradeLevel::PrefetchOff`] case).
    ///
    /// [`DegradeLevel::PrefetchOff`]: crate::config::DegradeLevel::PrefetchOff
    pub(crate) fn land(&self, shard: &mut Shard, keep_prefetch: bool) {
        let parked = std::mem::take(&mut self.plane.lock().shards[self.sid].parked);
        for update in parked {
            update.apply(shard, keep_prefetch);
        }
    }

    /// The chunk-boundary handshake: one critical section takes the
    /// shard's parked updates and queues its completed chunk, `armed`
    /// saying whether the shard's own prefetch gate is open; the updates
    /// are applied after the lock is released. Returns whether the chunk
    /// was queued. It is not when the plane is closed (only at teardown;
    /// `false` at once) or when the shard's backlog is at `max_lag`: the
    /// chunk runs on stale guidance — the §VI-C skip, verbatim — and the
    /// producer paces itself before returning `false`.
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
    pub(crate) fn exchange(&self, shard: &mut Shard, chunk: Vec<VectorKey>, armed: bool) -> bool {
        let plane = self.plane;
        let mut state = plane.lock();
        let parked = std::mem::take(&mut state.shards[self.sid].parked);
        let closed = state.closed;
        let queued = !closed && state.shards[self.sid].in_flight < plane.max_lag;
        // A futex notify is a syscall even with nobody waiting.
        let mut wake = false;
        if queued {
            let shed_at = (state.shards.len() * plane.max_lag / 8).max(1);
            let armed = armed && state.pending() <= shed_at;
            state.shards[self.sid].in_flight += 1;
            state.jobs.push_back(GuidanceJob {
                shard: self.sid,
                chunk,
                armed,
            });
            wake = state.idle > 0;
        }
        drop(state);
        if wake {
            plane.work.notify_one();
        }
        for update in parked {
            update.apply(shard, true);
        }
        if !queued && !closed {
            self.pace();
        }
        queued
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
    fn pace(&self) {
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
                state = plane.compute_and_park(&mut jobs, self.system, scratch);
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

    /// Hands chunk `c` to the port's shard at a chunk boundary, under the
    /// shard lock, as the demand loop does.
    fn exchange(port: &PlanePort<'_>, c: u64, armed: bool) -> bool {
        let sys = port.system;
        let mut shard = sys.shards[port.sid].lock().expect("shard lock");
        port.exchange(&mut shard, chunk(c, sys.ctx.cfg.input_len), armed)
    }

    fn parked(plane: &Plane, sid: usize) -> usize {
        plane.lock().shards[sid].parked.len()
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
    /// the exchange that finds its shard at the lag limit refuses the
    /// chunk and computes full batches until the shard is at the low-water
    /// mark, parks the updates, and counts them as plane drains.
    #[test]
    fn a_paced_worker_drains_its_backlog_without_a_plane_thread() {
        let sys = system(2);
        let (max_lag, max_batch) = (8, 2);
        let plane = Plane::new(2, max_lag, max_batch);
        let scratch = RefCell::new(FastScratch::default());
        let port = plane.port(0, &sys, &scratch);
        for c in 0..max_lag as u64 {
            assert!(exchange(&port, c, c % 2 == 0));
        }

        assert!(!exchange(&port, max_lag as u64, true));

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
        let (max_lag, max_batch) = (8, 4);
        let plane = Plane::new(2, max_lag, max_batch);
        let scratch = RefCell::new(FastScratch::default());
        let port = plane.port(1, &sys, &scratch);
        let below = 2 * max_batch - 1;
        for c in 0..below as u64 {
            assert!(exchange(&port, c, true));
        }

        port.pace();
        assert_eq!(in_flight(&plane, 1), below);
        assert_eq!(parked(&plane, 1), 0);
        assert_eq!(counters(&plane), GuidancePlaneReport::default());

        assert!(exchange(&port, below as u64, true));
        port.pace();
        assert_eq!(in_flight(&plane, 1), max_batch);
        assert_eq!(parked(&plane, 1), max_batch);
        let report = counters(&plane);
        assert_eq!(report.drains, 1);
        assert_eq!(report.chunks, max_batch as u64);
        assert_eq!(report.max_batch, max_batch as u64);
        assert_eq!(take_queued(&plane), max_batch);
    }

    /// At the lag limit `exchange` refuses the chunk, but the guidance
    /// parked for the shard still lands before the worker paces.
    ///
    /// Through the port alone a shard never holds parked guidance at the
    /// limit: queueing empties its parked list and parking drops its
    /// in-flight count, so in flight + parked never passes `max_lag`. The
    /// update is parked by hand to pin that the take comes first.
    #[test]
    fn exchange_at_the_lag_limit_refuses_the_chunk_but_lands_the_parked() {
        let sys = system(2);
        let input_len = sys.ctx.cfg.input_len;
        let (max_lag, max_batch) = (4, 2);
        let plane = Plane::new(2, max_lag, max_batch);
        let scratch = RefCell::new(FastScratch::default());
        let port = plane.port(1, &sys, &scratch);
        for c in 0..max_lag as u64 {
            assert!(exchange(&port, c, true));
        }
        plane.lock().shards[1].parked.push(GuidanceUpdate {
            chunk: chunk(99, input_len),
            bits: vec![true; input_len],
            prefetched: Vec::new(),
        });

        assert!(!exchange(&port, max_lag as u64, true));

        // The hand-parked update landed; pacing then helped with the one
        // full batch it may take and parked it for the next boundary.
        assert_eq!(sys.guided_chunks(), 1);
        assert_eq!(parked(&plane, 1), max_batch);
        assert_eq!(in_flight(&plane, 1), max_lag - max_batch);
        assert_eq!(counters(&plane).chunks, max_batch as u64);
        assert_eq!(take_queued(&plane), max_lag - max_batch);
    }

    /// A closed plane refuses a chunk at once: even at the lag limit, with
    /// full batches queued that a pacing worker would help with, nothing
    /// is queued or computed.
    #[test]
    fn exchange_on_a_closed_plane_returns_false_without_pacing() {
        let sys = system(2);
        let (max_lag, max_batch) = (8, 2);
        let plane = Plane::new(2, max_lag, max_batch);
        let scratch = RefCell::new(FastScratch::default());
        let port = plane.port(0, &sys, &scratch);
        for c in 0..max_lag as u64 {
            assert!(exchange(&port, c, true));
        }
        plane.close();

        assert!(!exchange(&port, max_lag as u64, true));
        assert_eq!(counters(&plane), GuidancePlaneReport::default());
        assert_eq!(in_flight(&plane, 0), max_lag);
        assert_eq!(take_queued(&plane), max_lag);
    }

    /// Closing out a run applies what is parked and leaves what is queued
    /// for the plane to compute; both count as late, once per close-out
    /// while they stay unlanded, and the work counters restart each time.
    #[test]
    fn land_applies_the_parked_and_leaves_the_queued_to_the_plane() {
        let sys = system(2);
        let (max_lag, max_batch) = (8, 4);
        let plane = Plane::new(2, max_lag, max_batch);
        let scratch = RefCell::new(FastScratch::default());
        let port = plane.port(1, &sys, &scratch);
        for c in 0..max_lag as u64 {
            assert!(exchange(&port, c, true));
        }
        // The helper computes one full batch; the other stays queued.
        port.pace();
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
    /// refuses chunks without counting them, and `run` on it, closed and
    /// empty, returns at once.
    #[test]
    fn a_closed_plane_refuses_offers_and_stops_its_threads() {
        let sys = system(2);
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
        let port = plane.port(0, &sys, &scratch);
        assert!(!exchange(&port, 0, true));
        assert_eq!(plane.pending(), 0);
        assert_eq!(take_queued(&plane), 0);
        plane.run(&sys);
        assert_eq!(plane.land(&sys.shards), GuidancePlaneReport::default());
        assert_eq!(sys.total_chunks(), 0);
    }
}
