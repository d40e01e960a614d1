//! Streaming request serving: [`RequestSource`] → [`ServingSession`] →
//! [`SessionReport`].
//!
//! The paper's online pipeline serves a continuous inference stream; DLRM
//! serving is judged on *per-request latency* under an SLA, not only on
//! throughput (the framing of the Software-Defined-Memory line of work).
//! This module is the request lifecycle — queue, admission, workers,
//! drain:
//!
//! * a [`RequestSource`] produces timestamped [`Request`]s (the sources,
//!   their arrival processes and the closed loop live in the private
//!   `source` and `arrival` modules and are re-exported here);
//! * a [`ServingSession`] (built by [`SessionBuilder`]) runs worker
//!   threads over the shards of a [`ShardedRecMgSystem`] and exposes
//!   non-blocking [`submit`](ServingSession::submit) /
//!   [`drain`](ServingSession::drain) over bounded per-tenant queues with
//!   admission control ([`AdmissionPolicy`]): requests are rejected when
//!   the queue is full or their deadline is already blown, shed at dequeue
//!   when the deadline expired while queueing, and dequeued weighted-fair
//!   across tenants;
//! * a worker serves a request by splitting its keys across their home
//!   shards and calling the one demand loop, `Shard::serve`, under each
//!   shard's mutex with the `Guide` the request's [`DegradeLevel`] and
//!   the session's guidance mode select — under latency pressure
//!   ([`SlaBudget`]) guidance degrades per request, skip-ahead first, then
//!   prefetch-off, reusing the paper's §VI-C skip machinery. The
//!   background guidance threads and their one-lock handshake are the
//!   private `plane` module's; this one starts and joins them;
//! * [`drain`](ServingSession::drain) joins every thread and folds the
//!   per-worker logs (each behind its own worker's lock, so workers never
//!   contend on them) into a [`SessionReport`] (private `report` module,
//!   re-exported here). Dropping an undrained session joins its threads
//!   too.
//!
//! The batch API is a thin wrapper:
//! [`ShardedRecMgSystem::serve`](crate::ShardedRecMgSystem::serve) submits
//! to a batch-backed session the system holds across calls, so there is
//! exactly one serving path. With one
//! worker, inline guidance, and an unbounded queue, a session reproduces
//! the sequential [`RecMgSystem`](crate::RecMgSystem) counts exactly — the
//! parity oracle of `tests/integration_streaming.rs`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use recmg_dlrm::BatchAccessStats;
use recmg_trace::VectorKey;

use crate::backend::{FillMode, FillPlaneReport};
use crate::builder::SystemBuilder;
use crate::config::{AdmissionPolicy, DegradeLevel, SlaBudget, TenantSpec};
use crate::engine::{EngineReport, GuidanceMode, GuidancePlaneReport};
use crate::fast::FastScratch;
use crate::migrate::{self, LiveRebalanceConfig, LiveState};
use crate::plane::Plane;
use crate::sharding::{Guide, ShardedRecMgSystem};
use crate::tier::{ShardPlacement, TierUsage};

pub use crate::arrival::{ArrivalProcess, MarkovArrivals};
pub use crate::report::{LatencySummary, RequestSample, SessionReport, SlaOutcome, TenantReport};
pub use crate::source::{
    BatchSource, Batches, ClosedLoopSource, KeyStream, PacedSource, Replayed, Request,
    RequestSource, SessionProgress, SpecKeys, SyntheticSource, TraceReplaySource,
};

// ---------------------------------------------------------------------------
// Session internals
// ---------------------------------------------------------------------------

/// An admitted request waiting in the session queue.
struct Admitted {
    id: u64,
    tenant: usize,
    keys: Vec<VectorKey>,
    arrival_at: Instant,
    deadline_at: Option<Instant>,
}

/// Per-tenant admission/shed counters — the only place these events are
/// counted: the session-level totals of a [`SessionReport`] are their
/// sums across tenants, so tenant and session accounting cannot diverge.
/// (Completions are counted from the per-worker sample logs at drain.)
#[derive(Debug, Default)]
pub(crate) struct TenantCounters {
    pub(crate) submitted: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_deadline: AtomicU64,
    shed_in_queue: AtomicU64,
}

impl TenantCounters {
    /// Requests rejected at submit or shed in queue.
    pub(crate) fn unserved(&self) -> u64 {
        self.rejected_queue_full.load(Ordering::Relaxed)
            + self.rejected_deadline.load(Ordering::Relaxed)
            + self.shed_in_queue.load(Ordering::Relaxed)
    }
}

/// Everything a [`SessionProgress`] reads, in an allocation of its own
/// (see there for why), and the condvar its readers wait on.
#[derive(Debug)]
pub(crate) struct ProgressCounters {
    /// Completions so far — the one session-wide counter, because
    /// [`SessionProgress`] reads it from closed-loop sources.
    pub(crate) completed_requests: AtomicU64,
    /// Index = [`Request::tenant`].
    pub(crate) tenants: Vec<TenantCounters>,
    /// Set once the session's workers and fill threads are joined, or a
    /// worker panicked.
    pub(crate) drained: AtomicBool,
    /// Threads blocked in [`ProgressCounters::wait`], counted under the
    /// lock `changed` waits on, so a notifier with nobody to wake makes no
    /// futex call.
    waiters: Mutex<usize>,
    /// Notified after every completion, rejection and shed, and when the
    /// session is drained.
    changed: Condvar,
}

impl ProgressCounters {
    /// Wakes every waiter to re-check its condition. Callers change the
    /// counters first; a waiter checks them under the lock taken here, so
    /// no change is missed.
    fn notify(&self) {
        if *self.waiters.lock().expect("progress lock") > 0 {
            self.changed.notify_all();
        }
    }

    /// Blocks until `done` holds or the session is drained.
    pub(crate) fn wait(&self, done: impl Fn() -> bool) {
        let mut waiters = self.waiters.lock().expect("progress lock");
        while !done() && !self.drained.load(Ordering::Acquire) {
            *waiters += 1;
            waiters = self.changed.wait(waiters).expect("progress lock");
            *waiters -= 1;
        }
    }
}

/// Held by a serving worker: if the worker panics, the session counts as
/// drained, so a `serve()` call waiting for its completions wakes up
/// instead of blocking for good.
struct PanicNotice<'a>(&'a ProgressCounters);

impl Drop for PanicNotice<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.drained.store(true, Ordering::Release);
            self.0.notify();
        }
    }
}

/// The session's per-tenant request queues, the weighted-fair
/// bookkeeping and the `closed` flag, all under the one queue mutex.
struct TenantQueues {
    queues: Vec<VecDeque<Admitted>>,
    /// Set when the session stops: workers exit once the queues are
    /// empty.
    closed: bool,
    /// The weighted-fair share history: requests dequeued per tenant,
    /// lifted on a return from idle ([`TenantQueues::push`]).
    served: Vec<u64>,
    /// Normalized share (`served / weight`) the last dequeued tenant held
    /// when it won its pop — the smallest share among the tenants
    /// backlogged at that moment (start-time fair queuing's virtual time).
    virtual_time: f64,
}

impl TenantQueues {
    fn new(tenants: usize) -> Self {
        TenantQueues {
            queues: (0..tenants).map(|_| VecDeque::new()).collect(),
            closed: false,
            served: vec![0; tenants],
            virtual_time: 0.0,
        }
    }

    fn total_len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Enqueues an admitted request. A tenant whose queue was empty gets
    /// no credit for its idle time: its share history is lifted to the
    /// virtual time, so it rejoins level with the tenants that kept the
    /// workers busy instead of winning every contested pop until a
    /// lifetime of their service is matched. A continuously backlogged
    /// tenant is never touched.
    fn push(&mut self, request: Admitted, tenants: &[TenantSpec]) {
        let t = request.tenant;
        if self.queues[t].is_empty() {
            let level = (self.virtual_time * tenants[t].weight) as u64;
            self.served[t] = self.served[t].max(level);
        }
        self.queues[t].push_back(request);
    }

    /// Weighted-fair dequeue: among tenants with queued requests, pop from
    /// the one with the smallest `served / weight` — the tenant furthest
    /// below its weighted share. A burst from one tenant can grow only its
    /// own queue; it cannot starve another tenant's dequeues, because the
    /// burster's normalized share races ahead and the quiet tenant wins
    /// every contested pop until the shares level out — shares earned
    /// while backlogged, that is: [`TenantQueues::push`] keeps a tenant
    /// from banking its idle time. With one tenant this is exactly the old
    /// FIFO.
    fn pop_fair(&mut self, tenants: &[TenantSpec]) -> Option<Admitted> {
        let mut best: Option<usize> = None;
        let mut best_score = f64::INFINITY;
        for (t, q) in self.queues.iter().enumerate() {
            if q.is_empty() {
                continue;
            }
            let score = self.served[t] as f64 / tenants[t].weight;
            if score < best_score {
                best_score = score;
                best = Some(t);
            }
        }
        let t = best?;
        self.virtual_time = best_score;
        self.served[t] += 1;
        self.queues[t].pop_front()
    }
}

/// State shared between the submitting side and every session thread.
pub(crate) struct SessionShared {
    /// The system served: its context, router and the shards it shares
    /// with every other handle on them.
    system: ShardedRecMgSystem,
    queue: Mutex<TenantQueues>,
    available: Condvar,
    admission: AdmissionPolicy,
    sla: Option<SlaBudget>,
    /// The tenant table (always at least the one default tenant); index =
    /// [`Request::tenant`].
    tenants: Vec<TenantSpec>,
    counters: Arc<ProgressCounters>,
    plane: Option<Plane>,
    /// Live-migration state when the session was built with
    /// [`SessionBuilder::live`].
    live: Option<LiveState>,
    /// One serving log per worker, each behind its own lock: the worker
    /// appends every request it finishes, and a report takes the logs.
    logs: Vec<Mutex<WorkerLog>>,
}

/// Per-worker serving log since the last report.
#[derive(Default)]
struct WorkerLog {
    stats: BatchAccessStats,
    samples: Vec<RequestSample>,
}

/// Where a report's deltas start: the system's counters when the session
/// started, or when the running `serve()` call submitted its batches.
struct Mark {
    at: Instant,
    guided: u64,
    chunks: u64,
    tiers: Vec<TierUsage>,
    fills: FillPlaneReport,
}

impl Mark {
    fn now(system: &ShardedRecMgSystem) -> Self {
        Mark {
            at: Instant::now(),
            guided: system.guided_chunks(),
            chunks: system.total_chunks(),
            tiers: system.tier_usage(),
            fills: system.fill_report(),
        }
    }
}

/// Why [`ServingSession::submit`] refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The bounded queue is at [`AdmissionPolicy::queue_depth`].
    QueueFull,
    /// The request's deadline had already passed at submission.
    DeadlineBlown,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::QueueFull => write!(f, "request queue is full"),
            Rejection::DeadlineBlown => write!(f, "deadline already blown at submission"),
        }
    }
}

impl std::error::Error for Rejection {}

// ---------------------------------------------------------------------------
// Builder and session
// ---------------------------------------------------------------------------

/// Configures and starts a [`ServingSession`] over a
/// [`ShardedRecMgSystem`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionBuilder {
    workers: usize,
    guidance: Option<GuidanceMode>,
    admission: AdmissionPolicy,
    sla: Option<SlaBudget>,
    tenants: Vec<TenantSpec>,
    live: Option<LiveRebalanceConfig>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionBuilder {
    /// One worker, guidance inherited from the system
    /// ([`SystemBuilder::guidance`]), default admission, no SLA, one
    /// default tenant.
    pub fn new() -> Self {
        SessionBuilder {
            workers: 1,
            guidance: None,
            admission: AdmissionPolicy::default(),
            sla: None,
            tenants: Vec::new(),
            live: None,
        }
    }

    /// Serving worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Guidance scheduling ([`GuidanceMode`]), overriding the system's
    /// default ([`SystemBuilder::guidance`]).
    pub fn guidance(mut self, guidance: GuidanceMode) -> Self {
        self.guidance = Some(guidance);
        self
    }

    /// Admission control for the request queue.
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Latency budget; enables the SLA section of the report and
    /// pressure degradation.
    pub fn sla(mut self, sla: SlaBudget) -> Self {
        self.sla = Some(sla);
        self
    }

    /// Multi-tenant mode: the session tracks admission, shed, latency
    /// percentiles, and SLA outcomes per tenant, and dequeues
    /// weighted-fair across tenants so one tenant's burst cannot starve
    /// another's deadline. [`Request::tenant`] indexes into this table.
    /// Unset (or empty) leaves the session single-tenant with one
    /// implicit `"default"` tenant at index 0.
    pub fn tenants(mut self, tenants: Vec<TenantSpec>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Enables zero-quiescence live rebalancing: a background thread
    /// watches the shards' sketches and re-places them while requests
    /// flow ([`crate::migrate`]).
    pub fn live(mut self, cfg: LiveRebalanceConfig) -> Self {
        self.live = Some(cfg);
        self
    }

    /// Builds the system from a [`SystemBuilder`] and starts the session
    /// over it — the fluent end-to-end construction path. The session
    /// inherits the system builder's guidance mode unless
    /// [`guidance`](SessionBuilder::guidance) set one explicitly.
    ///
    /// # Panics
    ///
    /// As [`SessionBuilder::build`] and [`SystemBuilder::build`].
    pub fn build_system(self, system: SystemBuilder<'_>) -> ServingSession {
        self.build(system.build())
    }

    /// Consumes `system` and starts the session's worker (and, in
    /// background guidance mode, plane) threads. [`ServingSession::drain`]
    /// returns the system. Guidance scheduling falls back to the system's
    /// build-time default when not set on this builder. The runtime a
    /// [`serve`](ShardedRecMgSystem::serve) call left running stops first,
    /// and its guidance lands
    /// ([`ShardedRecMgSystem::settle_guidance`]).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero, background guidance is configured with
    /// zero threads or a zero `max_batch`, or the SLA budget is invalid.
    pub fn build(self, mut system: ShardedRecMgSystem) -> ServingSession {
        assert!(self.workers > 0, "need at least one serving worker");
        if let Some(sla) = &self.sla {
            sla.validate();
        }
        let tenants = if self.tenants.is_empty() {
            vec![TenantSpec::new("default")]
        } else {
            self.tenants.clone()
        };
        for tenant in &tenants {
            tenant.validate();
        }
        let (plane, plane_threads) = match self.guidance.unwrap_or(system.default_guidance()) {
            GuidanceMode::Inline => (None, 0),
            GuidanceMode::Background {
                threads,
                max_lag,
                max_batch,
            } => {
                assert!(threads > 0, "need at least one guidance thread");
                let plane = Plane::new(system.num_shards(), max_lag, max_batch);
                (Some(plane), threads)
            }
        };
        // Stopping the held runtime lands what its plane owes before the
        // counters are marked.
        system.settle_guidance();
        let mark = Mark::now(&system);
        let shared = Arc::new(SessionShared {
            system,
            queue: Mutex::new(TenantQueues::new(tenants.len())),
            available: Condvar::new(),
            admission: self.admission,
            sla: self.sla,
            counters: Arc::new(ProgressCounters {
                completed_requests: AtomicU64::new(0),
                tenants: (0..tenants.len())
                    .map(|_| TenantCounters::default())
                    .collect(),
                drained: AtomicBool::new(false),
                waiters: Mutex::new(0),
                changed: Condvar::new(),
            }),
            tenants,
            plane,
            live: self.live.map(LiveState::new),
            logs: (0..self.workers).map(|_| Mutex::default()).collect(),
        });

        let workers = (0..self.workers)
            .map(|i| spawn(&shared, move |s| worker_loop(s, &s.logs[i])))
            .collect();
        let plane_threads = (0..plane_threads)
            .map(|_| spawn(&shared, |s| s.plane.as_ref().expect("plane").run(&s.system)))
            .collect();
        let rebalancer = shared
            .live
            .iter()
            .map(|_| {
                spawn(&shared, |s| {
                    migrate::live_loop(s.live.as_ref().expect("live"), &s.system)
                })
            })
            .collect();
        // Async fill plane: re-arm the queue (a prior session's stop
        // closed it) and spawn the fill threads that promote queued
        // slow-tier misses into residency.
        let ctx = &shared.system.ctx;
        let fill_threads = match (&ctx.fill_queue, ctx.fill_mode) {
            (Some(queue), FillMode::Async { threads, .. }) => {
                queue.open();
                (0..threads.max(1))
                    .map(|_| spawn(&shared, fill_loop))
                    .collect()
            }
            _ => Vec::new(),
        };

        ServingSession {
            shared,
            rebalancer,
            workers,
            fill_threads,
            plane_threads,
            mark,
        }
    }
}

/// Runs `body` on a new thread that holds the session's shared state.
fn spawn(
    shared: &Arc<SessionShared>,
    body: impl FnOnce(&SessionShared) + Send + 'static,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || body(&shared))
}

/// Joins `threads`; returns whether none of them panicked.
fn join_all(threads: &mut Vec<JoinHandle<()>>) -> bool {
    let mut clean = true;
    for handle in threads.drain(..) {
        clean &= handle.join().is_ok();
    }
    clean
}

/// A running streaming-serving instance: threads over the shards of a
/// [`ShardedRecMgSystem`] between [`SessionBuilder::build`] and
/// [`ServingSession::drain`]. Dropping it undrained stops it too: its
/// threads serve what was admitted and are joined, so none outlives it
/// holding the shards.
pub struct ServingSession {
    shared: Arc<SessionShared>,
    // Joined in this order when the session stops.
    rebalancer: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    fill_threads: Vec<JoinHandle<()>>,
    plane_threads: Vec<JoinHandle<()>>,
    mark: Mark,
}

impl std::fmt::Debug for ServingSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingSession")
            .field("workers", &self.workers.len())
            .field("plane_pending", &self.plane_pending())
            .field("queue_len", &self.queue_len())
            .finish_non_exhaustive()
    }
}

impl Drop for ServingSession {
    /// Stops the session like [`drain`](ServingSession::drain) without
    /// the report; a thread's panic is not raised again here.
    fn drop(&mut self) {
        self.halt();
    }
}

/// Returns at `due` or as soon after as the thread is running: sleeps
/// while more than `SPIN_MARGIN` remains, then spins on the clock. A due
/// instant already past (every `serve()` request: arrival offset 0)
/// returns at once.
fn pace_until(due: Instant) {
    /// `thread::sleep` overshoots its argument by ≈ 80 µs at the median and
    /// ≈ 140 µs at p99 (timer slack plus idle exit); the margin covers the
    /// p99 so the sleep itself almost never runs past `due`.
    const SPIN_MARGIN: Duration = Duration::from_micros(200);
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN_MARGIN {
            std::thread::sleep(left - SPIN_MARGIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

impl ServingSession {
    /// Offers one request; returns immediately. The request is admitted to
    /// the bounded queue or rejected per the [`AdmissionPolicy`].
    pub fn submit(&self, request: Request) -> Result<(), Rejection> {
        self.submit_at(request, Instant::now())
    }

    /// Admission with an explicit arrival instant (ingest passes the
    /// scheduled arrival so queueing delay is measured from when the
    /// request *arrived*, not from when the submission loop got to it).
    fn submit_at(&self, request: Request, arrival_at: Instant) -> Result<(), Rejection> {
        let shared = &*self.shared;
        let tenant = request.tenant;
        assert!(
            tenant < shared.tenants.len(),
            "request tenant {} out of range ({} tenants configured)",
            tenant,
            shared.tenants.len()
        );
        let counters = &shared.counters.tenants[tenant];
        counters.submitted.fetch_add(1, Ordering::Relaxed);
        let deadline_at = request.deadline.map(|d| arrival_at + d);
        if shared.admission.reject_blown {
            if let Some(d) = deadline_at {
                if Instant::now() > d {
                    counters.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                    shared.counters.notify();
                    return Err(Rejection::DeadlineBlown);
                }
            }
        }
        {
            let mut queue = shared.queue.lock().expect("queue lock");
            let over_quota = shared.tenants[tenant]
                .queue_quota
                .is_some_and(|quota| queue.queues[tenant].len() >= quota);
            if over_quota || queue.total_len() >= shared.admission.queue_depth {
                counters.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                shared.counters.notify();
                return Err(Rejection::QueueFull);
            }
            queue.push(
                Admitted {
                    id: request.id,
                    tenant,
                    keys: request.keys,
                    arrival_at,
                    deadline_at,
                },
                &shared.tenants,
            );
        }
        shared.available.notify_one();
        Ok(())
    }

    /// Pulls `source` dry, pacing submissions to each request's arrival
    /// offset: it sleeps to shortly before `start + arrival` and spins on
    /// the clock for the rest ([`pace_until`]), because latency is timed
    /// from the due instant and a bare `thread::sleep` wakes ≈ 80 µs past
    /// it — lateness of the generator that every request would carry as
    /// queue wait. Returns the number of requests pulled; admission
    /// outcomes land in the final [`SessionReport`].
    pub fn ingest(&self, source: &mut dyn RequestSource) -> usize {
        self.ingest_multi(&mut [source])
    }

    /// Pulls several sources dry concurrently in arrival order: a k-way
    /// merge on each source's next arrival offset, so interleaved tenants
    /// share one paced submission clock. Returns the number of requests
    /// pulled across all sources.
    pub fn ingest_multi(&self, sources: &mut [&mut dyn RequestSource]) -> usize {
        let start = Instant::now();
        let mut pulled = 0usize;
        // One lookahead head per source, refilled only after the consumed
        // request is submitted: a feedback-driven source
        // ([`ClosedLoopSource`]) blocks in `next_request` until a slot
        // frees, which the request still in hand could never do.
        let mut heads: Vec<Option<Request>> =
            sources.iter_mut().map(|s| s.next_request()).collect();
        loop {
            let next = heads
                .iter()
                .enumerate()
                .filter_map(|(i, h)| h.as_ref().map(|r| (i, r.arrival)))
                .min_by_key(|&(_, arrival)| arrival)
                .map(|(i, _)| i);
            let Some(i) = next else { break };
            let request = heads[i].take().expect("head checked nonempty");
            pulled += 1;
            let arrival_at = start + request.arrival;
            pace_until(arrival_at);
            let _ = self.submit_at(request, arrival_at);
            heads[i] = sources[i].next_request();
        }
        pulled
    }

    /// Requests currently waiting in the queue (all tenants).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.lock().expect("queue lock").total_len()
    }

    /// Requests served to completion so far.
    pub fn completed_requests(&self) -> u64 {
        self.shared
            .counters
            .completed_requests
            .load(Ordering::Acquire)
    }

    /// A clonable progress view for feedback-driven sources
    /// ([`ClosedLoopSource`]). The view shares only the counters and the
    /// condvar that signals them: it never keeps session state alive, and
    /// saturates once the session is drained.
    pub fn progress(&self) -> SessionProgress {
        SessionProgress::new(Arc::clone(&self.shared.counters))
    }

    /// Chunks offered to the background guidance plane whose guidance has
    /// not been computed yet (0 in inline mode). Together with
    /// [`completed_requests`](ServingSession::completed_requests) this lets
    /// a caller wait for full guidance quiescence — the lockstep oracle of
    /// `tests/integration_streaming.rs`.
    pub fn plane_pending(&self) -> usize {
        self.shared.plane.as_ref().map_or(0, Plane::pending)
    }

    /// Manually moves shard `shard` to `placement` while requests flow —
    /// the move the background rebalancer makes: the quiescent shard move,
    /// under the shard mutex, so a request serves the shard entirely
    /// before or entirely after it. Returns `true` once the move is done;
    /// `false` only when the session was built without
    /// [`SessionBuilder::live`].
    ///
    /// # Panics
    ///
    /// Panics if `shard` or `placement.tier` is out of range, before any
    /// shard is locked.
    pub fn migrate_shard(&self, shard: usize, placement: ShardPlacement) -> bool {
        let Some(live) = &self.shared.live else {
            return false;
        };
        let system = &self.shared.system;
        assert!(shard < system.shards.len(), "shard out of range");
        let tiers = system.ctx.topology.num_tiers();
        assert!(
            placement.tier < tiers,
            "tier {} out of range ({tiers} tiers)",
            placement.tier
        );
        migrate::migrate_shard(
            live,
            &system.shards,
            &system.ctx.topology,
            shard,
            &placement,
        );
        true
    }

    /// Closes the queue, serves everything already admitted, joins all
    /// threads, and returns the (warm) system together with the session
    /// report. The guidance a background plane still owed is computed
    /// and applied before this returns, and the report counts it.
    pub fn drain(mut self) -> (ShardedRecMgSystem, SessionReport) {
        let plane = self.stop();
        let (mut engine, samples) = self.report(plane);
        let shared = &*self.shared;
        if let Some(live) = &shared.live {
            engine.migration = *live.totals();
        }

        let (sla, counters) = (shared.sla, &shared.counters);
        let latency = LatencySummary::from_durations(samples.iter().map(|s| s.latency).collect());
        let queue_wait =
            LatencySummary::from_durations(samples.iter().map(|s| s.queue_wait).collect());
        let sla_outcome = sla.map(|budget| SlaOutcome::over(budget, samples.iter()));
        let tenant_reports: Vec<TenantReport> = shared
            .tenants
            .iter()
            .zip(&counters.tenants)
            .enumerate()
            .map(|(t, (spec, counters))| {
                let own: Vec<&RequestSample> = samples.iter().filter(|s| s.tenant == t).collect();
                let budget = spec.sla.or(sla);
                TenantReport {
                    name: spec.name.clone(),
                    weight: spec.weight,
                    submitted: counters.submitted.load(Ordering::Relaxed),
                    completed: own.len() as u64,
                    rejected_queue_full: counters.rejected_queue_full.load(Ordering::Relaxed),
                    rejected_deadline: counters.rejected_deadline.load(Ordering::Relaxed),
                    shed_in_queue: counters.shed_in_queue.load(Ordering::Relaxed),
                    latency: LatencySummary::from_durations(
                        own.iter().map(|s| s.latency).collect(),
                    ),
                    queue_wait: LatencySummary::from_durations(
                        own.iter().map(|s| s.queue_wait).collect(),
                    ),
                    sla: budget.map(|b| SlaOutcome::over(b, own.iter().copied())),
                }
            })
            .collect();
        // Session totals are the tenant sums: one count per event.
        let across_tenants =
            |field: fn(&TenantReport) -> u64| -> u64 { tenant_reports.iter().map(field).sum() };
        let report = SessionReport {
            engine,
            submitted: across_tenants(|t| t.submitted),
            rejected_queue_full: across_tenants(|t| t.rejected_queue_full),
            rejected_deadline: across_tenants(|t| t.rejected_deadline),
            shed_in_queue: across_tenants(|t| t.shed_in_queue),
            completed: samples.len() as u64,
            latency,
            queue_wait,
            sla: sla_outcome,
            tenants: tenant_reports,
        };
        (shared.system.share(), report)
    }

    /// Serves `batches` on the session's threads and blocks until every
    /// one is served and the fills its misses queued have landed: one
    /// [`ShardedRecMgSystem::serve`] call on the runtime its system holds.
    /// The report covers this call only; the guidance the plane has not
    /// computed yet stays queued on it.
    pub(crate) fn serve(&mut self, batches: &[&[VectorKey]]) -> EngineReport {
        self.mark = Mark::now(&self.shared.system);
        let target = self.completed_requests() + batches.len() as u64;
        self.ingest(&mut BatchSource::new(batches));
        let done = || self.completed_requests() >= target;
        self.shared.counters.wait(done);
        assert!(done(), "a serving worker panicked");
        if let Some(queue) = &self.shared.system.ctx.fill_queue {
            queue.wait_idle();
        }
        self.report(self.land()).0
    }

    /// Stops the session ([`ServingSession::halt`]) and lands what its
    /// plane owes. Returns the plane's accounting since the last landing.
    pub(crate) fn stop(&mut self) -> GuidancePlaneReport {
        assert!(self.halt(), "a session thread panicked");
        self.land()
    }

    /// Stops every thread, in dependency order: the live rebalancer
    /// finishes the shard move in hand, the workers serve everything
    /// already admitted, the fill threads land every fill the workers
    /// queued, and the plane threads compute every chunk still queued.
    /// Each is joined before the next is told to stop. Returns whether
    /// every thread ran to its end without a panic; panics itself only
    /// on a lock a panicking thread poisoned.
    fn halt(&mut self) -> bool {
        let shared = &*self.shared;
        if let Some(live) = &shared.live {
            live.stop.store(true, Ordering::Release);
        }
        let mut clean = join_all(&mut self.rebalancer);
        // Setting the flag leaves the queues valid even if a panicking
        // thread poisoned their lock.
        shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        shared.available.notify_all();
        clean &= join_all(&mut self.workers);
        if let Some(queue) = &shared.system.ctx.fill_queue {
            queue.close();
        }
        clean &= join_all(&mut self.fill_threads);
        shared.counters.drained.store(true, Ordering::Release);
        shared.counters.notify();
        if let Some(plane) = &shared.plane {
            plane.close();
        }
        clean & join_all(&mut self.plane_threads)
    }

    /// Applies the guidance the plane has parked and returns its
    /// accounting since the last landing, kernel lane included.
    fn land(&self) -> GuidancePlaneReport {
        let (system, plane) = (&self.shared.system, self.shared.plane.as_ref());
        let report = plane.map_or_else(Default::default, |p| p.land(&system.shards));
        GuidancePlaneReport {
            kernel_lane: system.ctx.kernel_label(),
            ..report
        }
    }

    /// The engine report of the work since the mark, with the request
    /// samples it merged: the worker logs are taken, `plane` comes from
    /// the landing, and the rest is read off the system (migration is the
    /// drain's to fill in).
    fn report(&self, plane: GuidancePlaneReport) -> (EngineReport, Vec<RequestSample>) {
        let (mut stats, mut samples) = (BatchAccessStats::default(), Vec::new());
        for log in &self.shared.logs {
            let log = std::mem::take(&mut *log.lock().expect("worker log lock"));
            stats.accumulate(log.stats);
            samples.extend(log.samples);
        }
        let (system, mark) = (&self.shared.system, &self.mark);
        let engine = EngineReport {
            stats,
            batches: samples.len(),
            guided_chunks: system.guided_chunks() - mark.guided,
            total_chunks: system.total_chunks() - mark.chunks,
            elapsed_secs: mark.at.elapsed().as_secs_f64(),
            plane,
            tiers: system
                .tier_usage()
                .iter()
                .zip(&mark.tiers)
                .map(|(now, before)| now.delta_since(before))
                .collect(),
            unique_keys: system.unique_keys(),
            max_phase_score: system.max_phase_score(),
            migration: Default::default(),
            tables: system.table_report(),
            calibration: system.calibration_report().clone(),
            fills: system.fill_report().delta_since(&mark.fills),
        };
        (engine, samples)
    }
}

// ---------------------------------------------------------------------------
// Worker and fill loops
// ---------------------------------------------------------------------------

/// Blocks until a request is available or the session is closed and the
/// queue is empty. Dequeues weighted-fair across tenants
/// ([`TenantQueues::pop_fair`]); with one tenant this is plain FIFO.
fn pop_request(shared: &SessionShared) -> Option<Admitted> {
    let mut queue = shared.queue.lock().expect("queue lock");
    loop {
        if let Some(request) = queue.pop_fair(&shared.tenants) {
            return Some(request);
        }
        if queue.closed {
            return None;
        }
        queue = shared.available.wait(queue).expect("queue lock");
    }
}

fn worker_loop(shared: &SessionShared, log: &Mutex<WorkerLog>) {
    let _notice = PanicNotice(&shared.counters);
    // Per-worker shard-split scratch: the router refills these vectors on
    // every request, so the per-request path allocates nothing once the
    // per-shard capacities have warmed up.
    let mut parts: Vec<Vec<VectorKey>> = Vec::new();
    // Model-forward buffers for the plane batches this worker computes
    // while pacing at a shard's lag limit (`PlanePort::pace`).
    let scratch = RefCell::new(FastScratch::default());
    let counters = &shared.counters;
    while let Some(request) = pop_request(shared) {
        let dequeued = Instant::now();
        let tenant = &counters.tenants[request.tenant];
        if shared.admission.shed_blown {
            if let Some(d) = request.deadline_at {
                if dequeued > d {
                    tenant.shed_in_queue.fetch_add(1, Ordering::Relaxed);
                    counters.notify();
                    continue;
                }
            }
        }
        let queue_wait = dequeued.saturating_duration_since(request.arrival_at);
        // A tenant's own budget overrides the session-wide one for
        // pressure degradation (and later, its report's SLA section).
        let budget = shared.tenants[request.tenant].sla.or(shared.sla);
        let degrade = budget.map_or(DegradeLevel::None, |sla| sla.level(queue_wait));
        let mut stats = BatchAccessStats::default();
        serve_request(
            shared,
            &request.keys,
            degrade,
            &mut stats,
            &mut parts,
            &scratch,
        );
        let finished = Instant::now();
        let mut log = log.lock().expect("worker log lock");
        log.stats.accumulate(stats);
        log.samples.push(RequestSample {
            id: request.id,
            tenant: request.tenant,
            queue_wait,
            service: finished.saturating_duration_since(dequeued),
            latency: finished.saturating_duration_since(request.arrival_at),
            deadline_met: request.deadline_at.map(|d| finished <= d),
            degrade,
        });
        drop(log);
        // Published after the log, so whoever sees the count finds the
        // sample.
        counters.completed_requests.fetch_add(1, Ordering::AcqRel);
        counters.notify();
    }
}

/// Serves one request's keys across its home shards at the chosen
/// degradation level. `parts` is the worker's reusable split scratch
/// ([`ShardRouter::split_into`]) and `scratch` its model scratch for
/// pacing help.
fn serve_request(
    shared: &SessionShared,
    keys: &[VectorKey],
    degrade: DegradeLevel,
    stats: &mut BatchAccessStats,
    parts: &mut Vec<Vec<VectorKey>>,
    scratch: &RefCell<FastScratch>,
) {
    let system = &shared.system;
    system.router.split_into(keys, parts);
    for (sid, part) in parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        if let Some(live) = &shared.live {
            live.step_aside();
        }
        let mut shard = system.shards[sid].lock().expect("shard lock");
        let port = shared.plane.as_ref().map(|p| p.port(sid, system, scratch));
        // Background guidance that already finished lands before the first
        // access, for a degraded request too — with its prefetch lists
        // stripped at PrefetchOff.
        if let Some(port) = &port {
            port.land(&mut shard, degrade != DegradeLevel::PrefetchOff);
        }
        let guide = match (degrade, port) {
            (DegradeLevel::None, Some(port)) => Guide::Plane(port),
            (DegradeLevel::None, None) => Guide::Inline(&system.router),
            // Degraded: no fresh guidance for this request (§VI-C
            // skip-ahead on purpose).
            _ => Guide::Stale,
        };
        shard.serve(part, stats, &system.ctx, &guide);
    }
}

/// Fill-plane thread body: pops coalesced slow-tier misses off the
/// bounded queue and installs each row into its shard at the fill cost
/// the entry carried from its origin miss
/// ([`crate::RecMgBuffer`]`::promote_fill`). Exits once the session
/// stops, closing the queue, and the backlog is dry, so every queued fill
/// either lands as a promotion or stays counted (`coalesced`/`dropped`)
/// in the [`FillPlaneReport`].
fn fill_loop(shared: &SessionShared) {
    let system = &shared.system;
    let queue = system.ctx.fill_queue.as_ref();
    let queue = queue.expect("fill threads only run in async fill mode");
    while let Some((sid, key, fill_ns)) = queue.pop_wait() {
        let mut shard = system.shards[sid].lock().expect("shard mutex poisoned");
        if shard.buffer.promote_fill(key, fill_ns) {
            queue.note_promoted();
        }
        drop(shard);
        queue.done();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::caching_model::CachingModel;
    use crate::codec::FrequencyRankCodec;
    use crate::config::RecMgConfig;
    use crate::json::JsonWriter;
    use crate::prefetch_model::PrefetchModel;
    use recmg_trace::SyntheticConfig;
    use std::sync::{mpsc, Weak};
    use std::time::Duration;

    /// The state every thread of the runtime `sys` holds, if it holds
    /// one: alive exactly as long as one of those threads is.
    pub(crate) fn held_runtime(sys: &ShardedRecMgSystem) -> Option<Weak<SessionShared>> {
        let (_, session) = sys.runtime.as_ref()?;
        Some(Arc::downgrade(&session.shared))
    }

    /// The untrained 64-slot system the session, source and engine unit
    /// tests serve against.
    pub(crate) fn system(num_shards: usize) -> ShardedRecMgSystem {
        let cfg = RecMgConfig::tiny();
        let caching = CachingModel::new(&cfg);
        let prefetch = PrefetchModel::new(&cfg);
        let trace = SyntheticConfig::tiny(5).generate();
        let codec = FrequencyRankCodec::from_accesses(&trace.accesses()[..500]);
        ShardedRecMgSystem::builder(&caching, Some(&prefetch), codec)
            .shards(num_shards)
            .capacity(64)
            .build()
    }

    #[test]
    fn batch_backed_session_serves_everything() {
        let trace = SyntheticConfig::tiny(11).generate();
        let batches = trace.batches(10);
        let session = SessionBuilder::new()
            .workers(2)
            .guidance(GuidanceMode::Background {
                threads: 1,
                max_lag: 4,
                max_batch: 8,
            })
            .admission(AdmissionPolicy::unbounded())
            .build(system(4));
        session.ingest(&mut BatchSource::new(&batches));
        let (sys, report) = session.drain();
        assert_eq!(report.submitted, batches.len() as u64);
        assert_eq!(report.completed, batches.len() as u64);
        assert_eq!(report.engine.stats.total(), trace.len() as u64);
        assert_eq!(report.shed_rate(), 0.0);
        assert_eq!(report.latency.count, batches.len());
        assert!(report.latency.p50 <= report.latency.p95);
        assert!(report.latency.p95 <= report.latency.p99);
        assert!(report.latency.p99 <= report.latency.max);
        assert!(sys.total_chunks() > 0);
        assert!(JsonWriter::render(|w| report.write_json(w)).contains("\"shed_rate\": 0.0000"));
    }

    #[test]
    fn zero_depth_queue_rejects_every_submit() {
        let session = SessionBuilder::new()
            .admission(AdmissionPolicy {
                queue_depth: 0,
                ..AdmissionPolicy::default()
            })
            .guidance(GuidanceMode::Inline)
            .build(system(1));
        for i in 0..5u64 {
            let got = session.submit(Request {
                id: i,
                keys: vec![],
                arrival: Duration::ZERO,
                deadline: None,
                tenant: 0,
            });
            assert_eq!(got, Err(Rejection::QueueFull));
        }
        let (_sys, report) = session.drain();
        assert_eq!(report.submitted, 5);
        assert_eq!(report.rejected_queue_full, 5);
        assert_eq!(report.completed, 0);
        assert_eq!(report.shed_rate(), 1.0);
    }

    #[test]
    fn blown_deadline_is_rejected_at_submit() {
        let session = SessionBuilder::new()
            .guidance(GuidanceMode::Inline)
            .build(system(1));
        // An arrival far enough in the past that its deadline has expired.
        let Some(past) = Instant::now().checked_sub(Duration::from_millis(50)) else {
            return; // process younger than 50ms; cannot construct the case
        };
        let got = session.submit_at(
            Request {
                id: 0,
                keys: vec![],
                arrival: Duration::ZERO,
                deadline: Some(Duration::from_millis(1)),
                tenant: 0,
            },
            past,
        );
        assert_eq!(got, Err(Rejection::DeadlineBlown));
        let (_sys, report) = session.drain();
        assert_eq!(report.rejected_deadline, 1);
    }

    #[test]
    fn forced_sla_pressure_degrades_to_prefetch_off() {
        let trace = SyntheticConfig::tiny(13).generate();
        let batches = trace.batches(10);
        let session = SessionBuilder::new()
            .guidance(GuidanceMode::Inline)
            .admission(AdmissionPolicy::unbounded())
            .sla(SlaBudget {
                target: Duration::from_nanos(1),
                skip_ahead_at: 0.0,
                prefetch_off_at: 0.0,
            })
            .build(system(2));
        session.ingest(&mut BatchSource::new(&batches));
        let (sys, report) = session.drain();
        // Zero queue-wait already exceeds both thresholds: every request
        // runs at PrefetchOff, so no chunk ever receives fresh guidance.
        assert_eq!(report.engine.guided_chunks, 0);
        assert!(report.engine.total_chunks > 0);
        assert_eq!(sys.prefetches_issued(), 0);
        let sla = report.sla.expect("sla configured");
        assert_eq!(sla.degraded_prefetch_off, report.completed);
        assert_eq!(sla.met, 0);
        assert!((sla.attainment() - 0.0).abs() < 1e-9);
        // Every access is still served — degradation sheds model work,
        // never demand accesses.
        assert_eq!(report.engine.stats.total(), trace.len() as u64);
    }

    #[test]
    #[should_panic(expected = "at least one serving worker")]
    fn zero_worker_builder_panics() {
        let _ = SessionBuilder::new().workers(0).build(system(1));
    }

    #[test]
    #[should_panic(expected = "need a positive guidance batch size")]
    fn zero_guidance_batch_builder_panics() {
        let _ = SessionBuilder::new()
            .guidance(GuidanceMode::Background {
                threads: 1,
                max_lag: 4,
                max_batch: 0,
            })
            .build(system(1));
    }

    /// Guidance parked for a shard lands when a worker takes the shard,
    /// for a degraded request too: with its prefetches at SkipAhead, with
    /// its caching bits only at PrefetchOff. Each degraded request's own
    /// chunk runs unguided.
    #[test]
    fn degraded_requests_land_parked_guidance_when_they_take_the_shard() {
        let (guided, skip_ahead, prefetch_off) = (0, 1, 2);
        let hour = Duration::from_secs(3600);
        let session = SessionBuilder::new()
            .workers(1)
            .guidance(GuidanceMode::Background {
                threads: 1,
                max_lag: 64,
                max_batch: 16,
            })
            .admission(AdmissionPolicy::unbounded())
            .tenants(vec![
                TenantSpec::new("guided"),
                TenantSpec::new("skip_ahead").with_sla(SlaBudget {
                    target: hour,
                    skip_ahead_at: 0.0,
                    prefetch_off_at: 1.0,
                }),
                TenantSpec::new("prefetch_off").with_sla(SlaBudget {
                    target: hour,
                    skip_ahead_at: 0.0,
                    prefetch_off_at: 0.0,
                }),
            ])
            .build(system(1));
        let sys = &session.shared.system;
        let trace = SyntheticConfig::tiny(17).generate();
        let accesses = trace.accesses();
        let mut chunks = accesses.chunks_exact(sys.ctx.cfg.input_len);
        // One chunk per request, so a guided request parks exactly one
        // update; waits until it is served and the plane is idle.
        let mut id = 0;
        let mut serve = |tenant: usize| {
            let keys = chunks.next().expect("enough keys").to_vec();
            let request = Request {
                id,
                keys,
                arrival: Duration::ZERO,
                deadline: None,
                tenant,
            };
            session.submit(request).expect("unbounded admission");
            id += 1;
            while session.completed_requests() < id || session.plane_pending() > 0 {
                std::thread::yield_now();
            }
        };
        let counts = || {
            let prefetches = sys.prefetches_issued();
            (sys.guided_chunks(), sys.unguided_chunks(), prefetches)
        };

        serve(guided);
        assert_eq!(counts(), (0, 0, 0), "the guidance is parked, not landed");
        serve(skip_ahead);
        let (_, _, prefetches) = counts();
        assert!(prefetches > 0, "SkipAhead lands the parked prefetches");
        assert_eq!(counts(), (1, 1, prefetches));
        serve(guided);
        assert_eq!(counts(), (1, 1, prefetches));
        serve(prefetch_off);
        assert_eq!(counts(), (2, 2, prefetches), "PrefetchOff lands bits only");

        let (sys, report) = session.drain();
        assert_eq!(sys.total_chunks(), 4);
        let sla = |t: usize| report.tenants[t].sla.expect("tenant budget");
        assert_eq!(sla(skip_ahead).degraded_skip_ahead, 1);
        assert_eq!(sla(prefetch_off).degraded_prefetch_off, 1);
    }

    /// 300 one-key requests due 1 ms apart; records the instant of every
    /// pull (`pulls[0]` hands out request 1).
    struct FixedGapSource {
        issued: u64,
        pulls: Vec<Instant>,
    }

    impl RequestSource for FixedGapSource {
        fn next_request(&mut self) -> Option<Request> {
            self.pulls.push(Instant::now());
            (self.issued < 300).then(|| {
                self.issued += 1;
                Request {
                    id: self.issued,
                    keys: vec![VectorKey::new(
                        recmg_trace::TableId(0),
                        recmg_trace::RowId(1),
                    )],
                    arrival: Duration::from_millis(self.issued),
                    deadline: None,
                    tenant: 0,
                }
            })
        }
    }

    fn median(mut v: Vec<Duration>) -> Duration {
        v.sort();
        v[v.len() / 2]
    }

    #[test]
    fn ingest_pacing_submits_on_time_not_a_sleep_overshoot_late() {
        // What a bare `thread::sleep` pacer would add to every request,
        // measured here and now rather than assumed.
        let gap = Duration::from_millis(1);
        let overshoot = median(
            (0..300)
                .map(|_| {
                    let t = Instant::now();
                    std::thread::sleep(gap);
                    t.elapsed() - gap
                })
                .collect(),
        );
        let session = SessionBuilder::new()
            .workers(1)
            .guidance(GuidanceMode::Inline)
            .admission(AdmissionPolicy::unbounded())
            .build(system(1));
        let mut source = FixedGapSource {
            issued: 0,
            pulls: Vec::new(),
        };
        let before = Instant::now();
        assert_eq!(session.ingest(&mut source), 300);
        let (_sys, report) = session.drain();
        assert_eq!(report.completed, 300);
        // `ingest` took its start instant after `before`, so request k was
        // due no earlier than `before + k ms`; it pulls the next request
        // right after submitting k, so `pulls[k]` bounds submit k from above.
        let pulls = &source.pulls;
        assert_eq!(pulls.len(), 301);
        let late: Vec<Duration> = (1u32..=300)
            .zip(&pulls[1..])
            .map(|(k, &pull)| {
                let due = before + gap * k;
                // Submit k waited for its due instant and pull k came
                // after it: a pacer that wakes early shows here.
                assert!(pull >= due, "request {k} left before it was due");
                pull - due
            })
            .collect();
        let late = median(late);
        println!("median lateness: paced {late:?}, bare sleep {overshoot:?}");
        assert!(
            late < overshoot,
            "paced submissions run {late:?} late; a bare sleep overshoots by {overshoot:?}"
        );
    }

    #[test]
    fn ingest_pacing_never_returns_early() {
        for us in [0u64, 30, 150, 400, 1500] {
            let due = Instant::now() + Duration::from_micros(us);
            pace_until(due);
            assert!(Instant::now() >= due);
        }
        // A due instant in the past returns at once.
        let t = Instant::now();
        pace_until(t - Duration::from_millis(5));
        assert!(t.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn ingest_submits_before_pulling_so_one_outstanding_terminates() {
        // `ingest` must hand a request to the session before it asks the
        // source for the next one: with one outstanding request the closed
        // loop otherwise waits for a completion of a request nobody
        // submitted. Run on a thread so a regression fails, not hangs.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let batches = SyntheticConfig::tiny(17).generate();
            let batches = batches.batches(10);
            let session = SessionBuilder::new()
                .workers(1)
                .guidance(GuidanceMode::Inline)
                .build(system(1));
            let mut source =
                ClosedLoopSource::new(BatchSource::new(&batches), 1, session.progress());
            let pulled = session.ingest(&mut source);
            let (_sys, report) = session.drain();
            let _ = tx.send((pulled, batches.len(), report.completed));
        });
        let (pulled, requests, completed) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("ingest over a 1-outstanding closed loop deadlocked");
        assert_eq!(pulled, requests);
        assert_eq!(completed, requests as u64);
    }

    #[test]
    fn drain_is_immune_to_a_thread_polling_progress() {
        // A progress read used to borrow the session's whole shared state
        // for the length of the call, and a drain that ran into one took
        // the "all threads joined" `unreachable!`.
        let mut sys = system(1);
        for round in 0..200u64 {
            let session = SessionBuilder::new()
                .workers(1)
                .guidance(GuidanceMode::Inline)
                .build(sys);
            let progress = session.progress();
            let poller = std::thread::spawn(move || {
                while progress.finished() != u64::MAX {}
                progress
            });
            let request = Request {
                id: round,
                keys: vec![VectorKey::from_u64(round)],
                arrival: Duration::ZERO,
                deadline: None,
                tenant: 0,
            };
            session.submit(request).expect("admitted");
            let (back, report) = session.drain();
            assert_eq!(report.completed, 1);
            let progress = poller.join().expect("poller does not panic");
            assert_eq!(progress.finished(), u64::MAX);
            assert_eq!(progress.completed(), u64::MAX);
            sys = back;
        }
    }

    #[test]
    fn session_inherits_system_guidance_default() {
        let cfg = RecMgConfig::tiny();
        let caching = CachingModel::new(&cfg);
        let trace = SyntheticConfig::tiny(5).generate();
        let codec = FrequencyRankCodec::from_accesses(&trace.accesses()[..200]);
        // Inline set on the *system* builder: the session without an
        // explicit mode spawns no plane threads.
        let session = SessionBuilder::new().build_system(
            ShardedRecMgSystem::builder(&caching, None, codec)
                .shards(2)
                .capacity(64)
                .guidance(GuidanceMode::Inline),
        );
        assert!(session.shared.plane.is_none());
        session.ingest(&mut BatchSource::new(&trace.batches(10)));
        let (_sys, report) = session.drain();
        assert_eq!(report.engine.stats.total(), trace.len() as u64);
        // Per-tier stats surfaced through the session report.
        assert_eq!(report.engine.tiers.len(), 1);
        assert_eq!(report.engine.tiers[0].name, "dram");
        assert_eq!(report.engine.tiers[0].traffic.demand(), trace.len() as u64);
        assert!(report.engine.access_cost_ns() > 0);
        assert!(JsonWriter::render(|w| report.write_json(w)).contains("\"tiers\""));
    }

    // -- Multi-tenant sessions --------------------------------------------

    #[test]
    fn default_session_reports_one_default_tenant() {
        let session = SessionBuilder::new()
            .guidance(GuidanceMode::Inline)
            .build(system(1));
        session.ingest(&mut BatchSource::from_vecs(vec![vec![], vec![]]));
        let (_sys, report) = session.drain();
        assert_eq!(report.tenants.len(), 1);
        let t = &report.tenants[0];
        assert_eq!(t.name, "default");
        assert_eq!(t.submitted, 2);
        assert_eq!(t.completed, 2);
        assert!(JsonWriter::render(|w| report.write_json(w)).contains("\"tenants\""));
    }

    #[test]
    fn tenant_accounting_is_split_and_conserved() {
        let session = SessionBuilder::new()
            .guidance(GuidanceMode::Inline)
            .admission(AdmissionPolicy::unbounded())
            .tenants(vec![
                TenantSpec::new("budgeted").with_weight(3.0),
                TenantSpec::new("besteffort"),
            ])
            .build(system(2));
        let mut a = BatchSource::from_vecs(vec![vec![]; 5]);
        let mut b = BatchSource::from_vecs(vec![vec![]; 3]).for_tenant(1);
        let pulled = session.ingest_multi(&mut [&mut a, &mut b]);
        assert_eq!(pulled, 8);
        let (_sys, report) = session.drain();
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.tenants[0].submitted, 5);
        assert_eq!(report.tenants[0].completed, 5);
        assert_eq!(report.tenants[1].submitted, 3);
        assert_eq!(report.tenants[1].completed, 3);
        // Cross-tenant sums match the global counters exactly.
        let sub: u64 = report.tenants.iter().map(|t| t.submitted).sum();
        let comp: u64 = report.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(sub, report.submitted);
        assert_eq!(comp, report.completed);
        assert_eq!(report.tenants[0].latency.count, 5);
        assert_eq!(report.tenants[1].latency.count, 3);
    }

    #[test]
    fn tenant_quota_rejects_before_global_depth() {
        let session = SessionBuilder::new()
            .guidance(GuidanceMode::Inline)
            .workers(1)
            .admission(AdmissionPolicy {
                queue_depth: 100,
                reject_blown: false,
                shed_blown: false,
            })
            .tenants(vec![
                TenantSpec::new("quota").with_quota(0),
                TenantSpec::new("free"),
            ])
            .build(system(1));
        // Quota 0: every submit for tenant 0 bounces even though the
        // global queue has room.
        let got = session.submit(Request {
            id: 0,
            keys: vec![],
            arrival: Duration::ZERO,
            deadline: None,
            tenant: 0,
        });
        assert_eq!(got, Err(Rejection::QueueFull));
        session
            .submit(Request {
                id: 1,
                keys: vec![],
                arrival: Duration::ZERO,
                deadline: None,
                tenant: 1,
            })
            .expect("unquota'd tenant admitted");
        let (_sys, report) = session.drain();
        assert_eq!(report.tenants[0].rejected_queue_full, 1);
        assert_eq!(report.tenants[0].completed, 0);
        assert_eq!(report.tenants[1].completed, 1);
        assert_eq!(report.rejected_queue_full, 1);
    }

    #[test]
    fn weighted_fair_pop_divides_service_by_weight() {
        let tenants = vec![
            TenantSpec::new("heavy").with_weight(3.0),
            TenantSpec::new("light"),
        ];
        let mut queues = TenantQueues::new(2);
        for i in 0..8u64 {
            let admitted = Admitted {
                id: i,
                tenant: (i % 2) as usize,
                keys: vec![],
                arrival_at: Instant::now(),
                deadline_at: None,
            };
            queues.queues[admitted.tenant].push_back(admitted);
        }
        // First four pops at weights 3:1 serve heavy 3 times for every
        // light serve (ratios 0/3 < 1/1 until heavy has 3 served).
        let order: Vec<usize> = (0..4)
            .map(|_| queues.pop_fair(&tenants).unwrap().tenant)
            .collect();
        assert_eq!(order.iter().filter(|&&t| t == 0).count(), 3);
        assert_eq!(order.iter().filter(|&&t| t == 1).count(), 1);
        // Drains completely.
        let mut rest = 0;
        while queues.pop_fair(&tenants).is_some() {
            rest += 1;
        }
        assert_eq!(rest, 4);
        assert!(queues.pop_fair(&tenants).is_none());
        assert_eq!(queues.total_len(), 0);
    }

    #[test]
    fn returning_tenant_gets_no_credit_for_idle_time() {
        let tenants = vec![TenantSpec::new("busy"), TenantSpec::new("returning")];
        let mut queues = TenantQueues::new(2);
        let push = |queues: &mut TenantQueues, tenant: usize| {
            let admitted = Admitted {
                id: 0,
                tenant,
                keys: vec![],
                arrival_at: Instant::now(),
                deadline_at: None,
            };
            queues.push(admitted, &tenants);
        };
        // Tenant 0 is served 1000 requests while tenant 1 is idle.
        for _ in 0..1000 {
            push(&mut queues, 0);
            assert_eq!(queues.pop_fair(&tenants).unwrap().tenant, 0);
        }
        // Tenant 1 shows up: both hold 64 queued at equal weight. Its
        // idle time is not credit — the next 64 pops split evenly instead
        // of all going to tenant 1 (and the 936 contested pops after).
        for _ in 0..64 {
            push(&mut queues, 1);
            push(&mut queues, 0);
        }
        let to_returning = (0..64)
            .filter(|_| queues.pop_fair(&tenants).unwrap().tenant == 1)
            .count();
        assert!(
            (31..=33).contains(&to_returning),
            "returning tenant took {to_returning} of 64 contested pops"
        );
    }

    #[test]
    fn per_tenant_sla_overrides_session_budget_in_report() {
        let tight = SlaBudget::new(Duration::from_nanos(1));
        let loose = SlaBudget::new(Duration::from_secs(3600));
        let session = SessionBuilder::new()
            .guidance(GuidanceMode::Inline)
            .admission(AdmissionPolicy::unbounded())
            .sla(loose)
            .tenants(vec![
                TenantSpec::new("tight").with_sla(tight),
                TenantSpec::new("inherit"),
            ])
            .build(system(1));
        let mut a = BatchSource::from_vecs(vec![vec![]; 4]);
        let mut b = BatchSource::from_vecs(vec![vec![]; 4]).for_tenant(1);
        session.ingest_multi(&mut [&mut a, &mut b]);
        let (_sys, report) = session.drain();
        let tight_sla = report.tenants[0].sla.expect("tenant SLA present");
        let inherit_sla = report.tenants[1].sla.expect("inherited SLA present");
        assert_eq!(tight_sla.budget, Duration::from_nanos(1));
        assert_eq!(inherit_sla.budget, Duration::from_secs(3600));
        assert_eq!(inherit_sla.met, 4, "an hour budget is always met");
        assert_eq!(tight_sla.met + tight_sla.missed, 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_tenant_panics_at_submit() {
        let session = SessionBuilder::new()
            .guidance(GuidanceMode::Inline)
            .build(system(1));
        let _ = session.submit(Request {
            id: 0,
            keys: vec![],
            arrival: Duration::ZERO,
            deadline: None,
            tenant: 5,
        });
    }
}
