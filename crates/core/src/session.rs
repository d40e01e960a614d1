//! Streaming request serving: [`RequestSource`] → [`ServingSession`] →
//! [`SessionReport`].
//!
//! The paper's online pipeline serves a continuous inference stream; DLRM
//! serving is judged on *per-request latency* under an SLA, not only on
//! throughput (the framing of the Software-Defined-Memory line of work).
//! This module replaces the blocking batch-slice entry point with a
//! streaming API:
//!
//! * a [`RequestSource`] produces timestamped [`Request`]s — from
//!   pre-materialized batches ([`BatchSource`], the back-compat path), a
//!   synthetic arrival process ([`SyntheticSource`], Poisson or uniform
//!   inter-arrivals over a [`WorkloadSpec`]), or an external-trace replay
//!   ([`TraceReplaySource`]);
//! * a [`ServingSession`] (built by [`SessionBuilder`]) owns the shards
//!   and worker threads of a [`ShardedRecMgSystem`] and exposes
//!   non-blocking [`submit`](ServingSession::submit) /
//!   [`drain`](ServingSession::drain) over a bounded queue with admission
//!   control ([`AdmissionPolicy`]): requests are rejected when the queue is
//!   full or their deadline is already blown, and shed at dequeue when the
//!   deadline expired while queueing;
//! * a [`SessionReport`] extends [`EngineReport`] with per-request latency
//!   percentiles (p50/p95/p99, from per-worker sample logs that take no
//!   locks on the serving path and are merged at drain) and an SLA section:
//!   under latency pressure the guidance plane degrades per request —
//!   skip-ahead first, then prefetch-off — reusing the paper's §VI-C
//!   skip machinery ([`SlaBudget`], [`DegradeLevel`]).
//!
//! The batch API is a thin wrapper:
//! [`ShardedRecMgSystem::serve`](crate::ShardedRecMgSystem::serve) builds a
//! 1:1 batch-backed session, so there is exactly one serving path. With one
//! worker, inline guidance, and an unbounded queue, a session reproduces
//! the sequential [`RecMgSystem`](crate::RecMgSystem) counts exactly — the
//! parity oracle of `tests/integration_streaming.rs`.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recmg_dlrm::BatchAccessStats;
use recmg_trace::{Trace, VectorKey};

use crate::backend::{FillMode, FillPlaneReport};
use crate::builder::SystemBuilder;
use crate::config::{AdmissionPolicy, DegradeLevel, SlaBudget, TenantSpec};
use crate::engine::{EngineReport, GuidanceMode, GuidancePlaneReport};
use crate::fast::FastScratch;
use crate::json::JsonWriter;
use crate::migrate::{
    self, LiveRebalanceConfig, LiveState, MigrationReport, ReplicationReport, ShardRoute,
};
use crate::serving::WorkloadSpec;
use crate::sharding::{GuidanceCtx, Shard, ShardRouter, ShardedRecMgSystem};
use crate::tier::{ShardPlacement, TierUsage};

// ---------------------------------------------------------------------------
// Requests and sources
// ---------------------------------------------------------------------------

/// One inference request: a batch of embedding-vector keys with a stream
/// timestamp and an optional latency deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Caller-assigned identifier, echoed in [`RequestSample`].
    pub id: u64,
    /// The embedding accesses of this request, in access order.
    pub keys: Vec<VectorKey>,
    /// Arrival offset from the start of the stream. [`ServingSession::ingest`]
    /// paces submission to this schedule; a direct
    /// [`submit`](ServingSession::submit) treats "now" as the arrival.
    pub arrival: Duration,
    /// Latency budget relative to arrival; `None` means best-effort.
    pub deadline: Option<Duration>,
    /// Index into the session's tenant table
    /// ([`SessionBuilder::tenants`]). Sessions built without tenants have
    /// exactly one (index 0, the default every source emits), so
    /// single-tenant callers never touch this field.
    pub tenant: usize,
}

/// A stream of timestamped requests.
///
/// Sources are pull-based iterators so replay, synthesis, and
/// pre-materialized batches share one ingestion path
/// ([`ServingSession::ingest`]).
pub trait RequestSource {
    /// The next request, or `None` when the stream is exhausted.
    fn next_request(&mut self) -> Option<Request>;

    /// Requests still to come, when known (used for sizing logs).
    fn remaining_hint(&self) -> Option<usize> {
        None
    }
}

/// Inter-arrival process of a synthetic or replayed request stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate_hz` requests per second (exponential
    /// inter-arrival gaps — a Poisson process).
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_hz: f64,
    },
    /// Fixed inter-arrival interval.
    Uniform {
        /// Gap between consecutive arrivals.
        interval: Duration,
    },
    /// All requests arrive immediately (no pacing) — an offered load far
    /// above capacity, useful for exercising admission control.
    Immediate,
    /// Markov-modulated arrivals ([`MarkovArrivals`]): a discrete state
    /// chain where each state carries its own simple arrival process and
    /// the chain steps after every arrival — the MMPP-style model behind
    /// flash-crowd and diurnal load shapes
    /// ([`ArrivalProcess::flash_crowd`], [`ArrivalProcess::diurnal`]).
    MarkovModulated(MarkovArrivals),
}

impl ArrivalProcess {
    fn validate(&self) {
        match self {
            ArrivalProcess::Poisson { rate_hz } => {
                assert!(
                    *rate_hz > 0.0 && rate_hz.is_finite(),
                    "Poisson rate must be positive and finite"
                );
            }
            ArrivalProcess::MarkovModulated(chain) => chain.validate(),
            ArrivalProcess::Uniform { .. } | ArrivalProcess::Immediate => {}
        }
    }

    fn next_gap(&mut self, rng: &mut StdRng) -> Duration {
        match self {
            ArrivalProcess::Poisson { rate_hz } => {
                // Inverse-CDF sample of Exp(rate). The unit sample is
                // clamped away from both endpoints: at u → 1 the ln
                // argument hits zero and the gap diverges to infinity (a
                // permanently stalled source); at u → 0 the gap collapses
                // to zero and defeats pacing. The 1 ns floor keeps the
                // virtual clock strictly monotone even at rates where the
                // exponential gap rounds below timer resolution.
                let u: f64 = rng.gen_range(0.0..1.0);
                let u = u.clamp(1e-12, 1.0 - 1e-12);
                Duration::from_secs_f64(-(1.0 - u).ln() / *rate_hz).max(Duration::from_nanos(1))
            }
            ArrivalProcess::Uniform { interval } => *interval,
            ArrivalProcess::Immediate => Duration::ZERO,
            ArrivalProcess::MarkovModulated(chain) => chain.next_gap(rng),
        }
    }

    /// Two-state flash-crowd preset: a `steady` state at `steady_hz` and a
    /// `flash` state at `spike_factor × steady_hz`, with geometric dwell
    /// times of `steady_arrivals` and `spike_arrivals` requests
    /// respectively (the chain steps once per arrival).
    ///
    /// # Panics
    ///
    /// Panics if a rate, factor, or dwell length is not positive.
    pub fn flash_crowd(
        steady_hz: f64,
        spike_factor: f64,
        steady_arrivals: u64,
        spike_arrivals: u64,
    ) -> Self {
        assert!(
            spike_factor > 1.0 && spike_factor.is_finite(),
            "spike factor must exceed 1"
        );
        assert!(
            steady_arrivals > 0 && spike_arrivals > 0,
            "dwell lengths must be positive"
        );
        let leave_steady = 1.0 / steady_arrivals as f64;
        let leave_spike = 1.0 / spike_arrivals as f64;
        ArrivalProcess::MarkovModulated(MarkovArrivals::new(
            vec![
                ("steady", ArrivalProcess::Poisson { rate_hz: steady_hz }),
                (
                    "flash",
                    ArrivalProcess::Poisson {
                        rate_hz: steady_hz * spike_factor,
                    },
                ),
            ],
            vec![
                vec![1.0 - leave_steady, leave_steady],
                vec![leave_spike, 1.0 - leave_spike],
            ],
        ))
    }

    /// Four-state diurnal preset: a trough → ramp → peak → ramp cycle
    /// between `trough_hz` and `peak_hz` (the ramp runs at the geometric
    /// mean), advancing with probability `1 / dwell_arrivals` per arrival.
    ///
    /// # Panics
    ///
    /// Panics if a rate or the dwell length is not positive.
    pub fn diurnal(trough_hz: f64, peak_hz: f64, dwell_arrivals: u64) -> Self {
        assert!(dwell_arrivals > 0, "dwell length must be positive");
        assert!(
            trough_hz > 0.0 && peak_hz > trough_hz,
            "need peak_hz > trough_hz > 0"
        );
        let ramp_hz = (trough_hz * peak_hz).sqrt();
        let advance = 1.0 / dwell_arrivals as f64;
        let stay = 1.0 - advance;
        let p = |rate_hz: f64| ArrivalProcess::Poisson { rate_hz };
        ArrivalProcess::MarkovModulated(MarkovArrivals::new(
            vec![
                ("trough", p(trough_hz)),
                ("rise", p(ramp_hz)),
                ("peak", p(peak_hz)),
                ("fall", p(ramp_hz)),
            ],
            vec![
                vec![stay, advance, 0.0, 0.0],
                vec![0.0, stay, advance, 0.0],
                vec![0.0, 0.0, stay, advance],
                vec![advance, 0.0, 0.0, stay],
            ],
        ))
    }
}

/// A Markov-modulated arrival chain: named states each holding a *simple*
/// [`ArrivalProcess`] (Poisson / Uniform / Immediate — nesting another
/// chain is rejected), plus a row-stochastic transition matrix sampled
/// once per emitted arrival. The state is exposed
/// ([`MarkovArrivals::state`]) so a workload generator can couple key
/// choice to the regime — a flash crowd that also flips the hot set.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovArrivals {
    states: Vec<(String, ArrivalProcess)>,
    transitions: Vec<Vec<f64>>,
    current: usize,
}

impl MarkovArrivals {
    /// Builds the chain, starting in state 0.
    ///
    /// # Panics
    ///
    /// Panics (via [`MarkovArrivals::validate`]) if there are no states, a
    /// state nests another chain, the matrix is not square over the
    /// states, or a row is not a probability distribution.
    pub fn new(states: Vec<(&str, ArrivalProcess)>, transitions: Vec<Vec<f64>>) -> Self {
        let chain = MarkovArrivals {
            states: states
                .into_iter()
                .map(|(name, p)| (name.to_string(), p))
                .collect(),
            transitions,
            current: 0,
        };
        chain.validate();
        chain
    }

    /// Validates the chain shape.
    ///
    /// # Panics
    ///
    /// See [`MarkovArrivals::new`].
    pub fn validate(&self) {
        let n = self.states.len();
        assert!(n > 0, "Markov chain needs at least one state");
        for (name, process) in &self.states {
            assert!(
                !matches!(process, ArrivalProcess::MarkovModulated(_)),
                "state {name:?} nests a Markov chain"
            );
            process.validate();
        }
        assert_eq!(self.transitions.len(), n, "transition matrix must be n×n");
        for (i, row) in self.transitions.iter().enumerate() {
            assert_eq!(row.len(), n, "transition row {i} must have {n} entries");
            let mut sum = 0.0;
            for &p in row {
                assert!(
                    (0.0..=1.0).contains(&p) && p.is_finite(),
                    "transition probabilities must be in [0, 1]"
                );
                sum += p;
            }
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "transition row {i} must sum to 1 (got {sum})"
            );
        }
    }

    /// Index of the current state.
    pub fn state(&self) -> usize {
        self.current
    }

    /// Name of the current state.
    pub fn state_name(&self) -> &str {
        &self.states[self.current].0
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Samples one inter-arrival gap from the current state's process,
    /// then steps the chain. Public so a workload generator can drive the
    /// chain itself and read [`MarkovArrivals::state`] between arrivals.
    pub fn next_gap(&mut self, rng: &mut StdRng) -> Duration {
        let gap = self.states[self.current].1.next_gap(rng);
        let u: f64 = rng.gen_range(0.0..1.0);
        let row = &self.transitions[self.current];
        let mut acc = 0.0;
        for (next, &p) in row.iter().enumerate() {
            acc += p;
            if u < acc {
                self.current = next;
                break;
            }
        }
        gap
    }
}

/// Shared pacing state of the generated sources: a virtual clock advanced
/// by the arrival process.
#[derive(Debug)]
pub(crate) struct Pacer {
    clock: Duration,
    arrivals: ArrivalProcess,
    rng: StdRng,
}

impl Pacer {
    pub(crate) fn new(arrivals: ArrivalProcess, seed: u64) -> Self {
        arrivals.validate();
        Pacer {
            clock: Duration::ZERO,
            arrivals,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub(crate) fn next_arrival(&mut self) -> Duration {
        self.clock += self.arrivals.next_gap(&mut self.rng);
        self.clock
    }
}

/// Where a [`PacedSource`] gets each request's keys from. Plumbing of the
/// four source aliases, not an extension point.
#[doc(hidden)]
pub trait KeyStream {
    /// The keys of request number `id`, or `None` once exhausted.
    fn next_keys(&mut self, id: u64) -> Option<Vec<VectorKey>>;

    /// Requests still to come, when known.
    fn remaining(&self) -> Option<usize> {
        None
    }
}

/// The one open-loop request source: a [`KeyStream`] says *what* each
/// request touches, an [`ArrivalProcess`] says *when* it arrives, and the
/// builders attach a deadline and a tenant. [`BatchSource`],
/// [`SyntheticSource`], [`TraceReplaySource`] and
/// [`FileTraceSource`](crate::FileTraceSource) are this type over their
/// key streams; request ids count up from 0.
#[derive(Debug)]
pub struct PacedSource<K> {
    keys: K,
    pacer: Pacer,
    next_id: u64,
    deadline: Option<Duration>,
    tenant: usize,
}

impl<K> PacedSource<K> {
    pub(crate) fn paced(keys: K, arrivals: ArrivalProcess, seed: u64) -> Self {
        PacedSource {
            keys,
            pacer: Pacer::new(arrivals, seed),
            next_id: 0,
            deadline: None,
            tenant: 0,
        }
    }

    /// Attaches a deadline (relative to arrival) to every request.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Tags every request with a tenant index ([`SessionBuilder::tenants`]).
    pub fn for_tenant(mut self, tenant: usize) -> Self {
        self.tenant = tenant;
        self
    }
}

impl<K: KeyStream> RequestSource for PacedSource<K> {
    fn next_request(&mut self) -> Option<Request> {
        let id = self.next_id;
        let keys = self.keys.next_keys(id)?;
        self.next_id += 1;
        Some(Request {
            id,
            keys,
            arrival: self.pacer.next_arrival(),
            deadline: self.deadline,
            tenant: self.tenant,
        })
    }

    fn remaining_hint(&self) -> Option<usize> {
        self.keys.remaining()
    }
}

/// Key stream of [`BatchSource`] and [`TraceReplaySource`]:
/// pre-materialized requests, handed out in order. `Tag` only keeps the
/// two aliases distinct types, so each has its own `new`.
#[doc(hidden)]
#[derive(Debug)]
pub struct Batches<Tag = ()>(std::vec::IntoIter<Vec<VectorKey>>, PhantomData<Tag>);

impl<Tag> Batches<Tag> {
    fn new(requests: Vec<Vec<VectorKey>>) -> Self {
        Batches(requests.into_iter(), PhantomData)
    }
}

impl<Tag> KeyStream for Batches<Tag> {
    fn next_keys(&mut self, _id: u64) -> Option<Vec<VectorKey>> {
        self.0.next()
    }

    fn remaining(&self) -> Option<usize> {
        Some(self.0.len())
    }
}

/// Back-compat source over pre-materialized batches: every batch is a
/// request arriving at stream start (offset zero), so ingestion never
/// sleeps and the session serves exactly like the old blocking `serve()`.
pub type BatchSource = PacedSource<Batches>;

impl BatchSource {
    /// Wraps borrowed batch slices (the historical `serve` signature).
    pub fn new(batches: &[&[VectorKey]]) -> Self {
        Self::from_vecs(batches.iter().map(|b| b.to_vec()).collect())
    }

    /// Wraps owned batches.
    pub fn from_vecs(batches: Vec<Vec<VectorKey>>) -> Self {
        Self::paced(Batches::new(batches), ArrivalProcess::Immediate, 0)
    }
}

/// Key stream of [`SyntheticSource`]: `remaining` requests of `input_len`
/// keys each drawn from a [`WorkloadSpec`].
#[doc(hidden)]
#[derive(Debug)]
pub struct SpecKeys {
    spec: WorkloadSpec,
    input_len: usize,
    remaining: usize,
}

impl KeyStream for SpecKeys {
    fn next_keys(&mut self, id: u64) -> Option<Vec<VectorKey>> {
        self.remaining = self.remaining.checked_sub(1)?;
        Some(
            (0..self.input_len)
                .map(|i| self.spec.key(id as usize, i))
                .collect(),
        )
    }

    fn remaining(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

/// Synthetic open-loop arrival stream: request keys come from a
/// [`WorkloadSpec`] (tables × rows × skew), arrival times from an
/// [`ArrivalProcess`].
pub type SyntheticSource = PacedSource<SpecKeys>;

impl SyntheticSource {
    /// A stream of `requests` requests of `input_len` keys each.
    ///
    /// # Panics
    ///
    /// Panics if the spec or arrival process is invalid, or `input_len`
    /// is zero.
    pub fn new(
        spec: WorkloadSpec,
        input_len: usize,
        requests: usize,
        arrivals: ArrivalProcess,
        seed: u64,
    ) -> Self {
        spec.validate();
        assert!(input_len > 0, "input_len must be positive");
        let keys = SpecKeys {
            spec,
            input_len,
            remaining: requests,
        };
        Self::paced(keys, arrivals, seed)
    }
}

/// Replays a recorded [`Trace`] as a request stream: each request is
/// `queries_per_request` consecutive queries, paced by an
/// [`ArrivalProcess`] (external DLRM traces rarely carry wall-clock
/// timestamps, so the arrival process is supplied).
pub type TraceReplaySource = PacedSource<Batches<Replayed>>;

/// Type tag of [`TraceReplaySource`]'s key stream.
#[doc(hidden)]
#[derive(Debug)]
pub enum Replayed {}

impl TraceReplaySource {
    /// Builds the replay stream.
    ///
    /// # Panics
    ///
    /// Panics if `queries_per_request` is zero or the arrival process is
    /// invalid.
    pub fn new(
        trace: &Trace,
        queries_per_request: usize,
        arrivals: ArrivalProcess,
        seed: u64,
    ) -> Self {
        assert!(
            queries_per_request > 0,
            "queries_per_request must be positive"
        );
        let requests: Vec<Vec<VectorKey>> = trace
            .batches(queries_per_request)
            .into_iter()
            .map(|b| b.to_vec())
            .collect();
        Self::paced(Batches::new(requests), arrivals, seed)
    }
}

/// Cheap, clonable view of a running session's progress counters. It
/// shares only the counters, never the session's state (shards, queues):
/// a read on another thread cannot hold that state alive — not even for
/// the length of one call, which is what [`ServingSession::drain`] relies
/// on to take the system back. Reads against a drained session saturate
/// (every request counts as finished) so a [`ClosedLoopSource`] can never
/// deadlock on a session that went away.
#[derive(Debug, Clone)]
pub struct SessionProgress {
    counters: Arc<ProgressCounters>,
}

impl SessionProgress {
    fn drained(&self) -> bool {
        self.counters.drained.load(Ordering::Acquire)
    }

    /// Requests served to completion so far.
    pub fn completed(&self) -> u64 {
        if self.drained() {
            return u64::MAX;
        }
        self.counters.completed_requests.load(Ordering::Acquire)
    }

    /// Requests whose lifecycle is over: completed, rejected at submit
    /// (queue full / blown deadline), or shed in queue. This is the
    /// closed-loop "a slot freed up" signal — rejections free a slot just
    /// like completions, otherwise an overloaded closed loop would hang.
    pub fn finished(&self) -> u64 {
        if self.drained() {
            return u64::MAX;
        }
        let c = &self.counters;
        let unserved: u64 = c.tenants.iter().map(TenantCounters::unserved).sum();
        c.completed_requests.load(Ordering::Acquire) + unserved
    }
}

/// Closed-loop arrival process over any inner source: at most
/// `outstanding` requests are in flight, and the next request "arrives"
/// the moment a slot frees up (completion, rejection, or shed) — the
/// classic N-client closed loop, versus the open-loop sources above whose
/// arrivals ignore the server entirely.
///
/// The inner source's arrival offsets are ignored; each emitted request's
/// arrival is the instant its slot opened, so latency percentiles measure
/// service + queueing under self-limiting load.
#[derive(Debug)]
pub struct ClosedLoopSource<S> {
    inner: S,
    outstanding: u64,
    progress: SessionProgress,
    issued: u64,
    epoch: Option<Instant>,
}

impl<S: RequestSource> ClosedLoopSource<S> {
    /// Wraps `inner`, keeping at most `outstanding` requests in flight in
    /// the session observed through `progress`
    /// ([`ServingSession::progress`]).
    ///
    /// # Panics
    ///
    /// Panics if `outstanding` is zero.
    pub fn new(inner: S, outstanding: usize, progress: SessionProgress) -> Self {
        assert!(outstanding > 0, "need at least one outstanding request");
        ClosedLoopSource {
            inner,
            outstanding: outstanding as u64,
            progress,
            issued: 0,
            epoch: None,
        }
    }
}

impl<S: RequestSource> RequestSource for ClosedLoopSource<S> {
    fn next_request(&mut self) -> Option<Request> {
        let epoch = *self.epoch.get_or_insert_with(Instant::now);
        // Wait for a free slot on a spin → yield → sleep ladder (the
        // migration epoch fence's backoff shape): a few pipeline-hint
        // spins catch the common case where a worker retires a request
        // within a service time, a yield burst hands the core to that
        // worker on a loaded box, and past that the source parks in
        // bounded sleep quanta — a saturated closed loop costs a timer
        // tick, not a core. `finished()` saturates to u64::MAX if the
        // session is gone, so this cannot hang on a drained session.
        let mut spins = 0u32;
        while self.issued.saturating_sub(self.progress.finished()) >= self.outstanding {
            spins = spins.saturating_add(1);
            if spins < 16 {
                std::hint::spin_loop();
            } else if spins < 64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        let mut request = self.inner.next_request()?;
        request.arrival = epoch.elapsed();
        self.issued += 1;
        Some(request)
    }

    fn remaining_hint(&self) -> Option<usize> {
        self.inner.remaining_hint()
    }
}

// ---------------------------------------------------------------------------
// Session internals
// ---------------------------------------------------------------------------

/// A chunk handed to the background guidance plane.
pub(crate) struct GuidanceJob {
    shard: usize,
    chunk: Vec<VectorKey>,
    armed: bool,
}

/// Computed guidance waiting to be applied to a shard.
pub(crate) struct GuidanceUpdate {
    pub(crate) chunk: Vec<VectorKey>,
    pub(crate) bits: Vec<bool>,
    pub(crate) prefetched: Vec<VectorKey>,
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

impl CompletedSlot {
    /// Applies (and clears) every parked update. `keep_prefetch: false`
    /// strips prefetch lists (the [`DegradeLevel::PrefetchOff`] case).
    fn apply_to(&self, shard: &mut Shard, keep_prefetch: bool) {
        let mut updates = self.updates.lock().expect("completed lock");
        for u in updates.drain(..) {
            let prefetched: &[VectorKey] = if keep_prefetch { &u.prefetched } else { &[] };
            shard.apply_guidance(&u.chunk, &u.bits, prefetched);
        }
        self.len.store(0, Ordering::Release);
    }
}

/// Background guidance plane state shared by workers and plane threads.
struct PlaneState {
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

impl PlaneState {
    /// Chunks offered to the plane whose guidance has not been computed
    /// yet, across shards.
    fn pending(&self) -> usize {
        self.in_flight
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .sum()
    }
}

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
struct TenantCounters {
    submitted: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_deadline: AtomicU64,
    shed_in_queue: AtomicU64,
}

impl TenantCounters {
    /// Requests rejected at submit or shed in queue.
    fn unserved(&self) -> u64 {
        self.rejected_queue_full.load(Ordering::Relaxed)
            + self.rejected_deadline.load(Ordering::Relaxed)
            + self.shed_in_queue.load(Ordering::Relaxed)
    }
}

/// Everything a [`SessionProgress`] reads, in an allocation of its own
/// (see there for why).
#[derive(Debug)]
struct ProgressCounters {
    /// Completions so far — the one session-wide counter, because
    /// [`SessionProgress`] polls it from closed-loop sources.
    completed_requests: AtomicU64,
    /// Index = [`Request::tenant`].
    tenants: Vec<TenantCounters>,
    /// Set by [`ServingSession::drain`] once every session thread has
    /// been joined.
    drained: AtomicBool,
}

/// The session's per-tenant request queues plus the weighted-fair
/// bookkeeping, all under the one queue mutex (so `closed` and the
/// condvar protocol are unchanged from the single-queue session).
struct TenantQueues {
    queues: Vec<VecDeque<Admitted>>,
    /// Requests dequeued per tenant — the weighted-fair share history.
    served: Vec<u64>,
}

impl TenantQueues {
    fn new(tenants: usize) -> Self {
        TenantQueues {
            queues: (0..tenants).map(|_| VecDeque::new()).collect(),
            served: vec![0; tenants],
        }
    }

    fn total_len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Weighted-fair dequeue: among tenants with queued requests, pop from
    /// the one with the smallest `served / weight` — the tenant furthest
    /// below its weighted share. A burst from one tenant can grow only its
    /// own queue; it cannot starve another tenant's dequeues, because the
    /// burster's normalized share races ahead and the quiet tenant wins
    /// every contested pop until the shares level out. With one tenant
    /// this is exactly the old FIFO.
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
        self.served[t] += 1;
        self.queues[t].pop_front()
    }
}

/// State shared between the submitting side, serving workers, and the
/// guidance plane.
struct SessionShared {
    ctx: GuidanceCtx,
    router: ShardRouter,
    shards: Vec<Mutex<Shard>>,
    queue: Mutex<TenantQueues>,
    available: Condvar,
    closed: AtomicBool,
    admission: AdmissionPolicy,
    sla: Option<SlaBudget>,
    /// The tenant table (always at least the one default tenant); index =
    /// [`Request::tenant`].
    tenants: Vec<TenantSpec>,
    counters: Arc<ProgressCounters>,
    plane: Option<PlaneState>,
    /// Live-migration state when the session was built with
    /// [`SessionBuilder::live`]; `None` keeps the serving path free of
    /// route pins entirely.
    live: Option<LiveState>,
}

/// Per-worker serving log. Workers append to their own log without taking
/// any lock on the serving path; logs are merged once at drain.
#[derive(Default)]
struct WorkerLog {
    stats: BatchAccessStats,
    samples: Vec<RequestSample>,
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

/// Latency record of one completed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSample {
    /// The request's caller-assigned id.
    pub id: u64,
    /// The request's tenant index ([`Request::tenant`]).
    pub tenant: usize,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Time a worker spent serving the request.
    pub service: Duration,
    /// End-to-end latency (arrival → completion).
    pub latency: Duration,
    /// Whether the request's own deadline was met (`None` if it had none).
    pub deadline_met: Option<bool>,
    /// The degradation level the request was served at.
    pub degrade: DegradeLevel,
}

/// Order statistics over a set of durations (nearest-rank percentiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Samples summarized.
    pub count: usize,
    /// Median.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Maximum.
    pub max: Duration,
}

impl LatencySummary {
    /// Summarizes `samples` (empty input yields an all-zero summary).
    pub fn from_durations(mut samples: Vec<Duration>) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let rank = |q: f64| samples[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
        let total: Duration = samples.iter().sum();
        LatencySummary {
            count: n,
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            mean: total / n as u32,
            max: samples[n - 1],
        }
    }

    /// Writes the summary as one JSON object, durations in milliseconds.
    pub fn write_json(&self, w: &mut JsonWriter) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        w.object(|w| {
            w.key("count").raw(self.count);
            w.key("p50_ms").fixed(ms(self.p50), 3);
            w.key("p95_ms").fixed(ms(self.p95), 3);
            w.key("p99_ms").fixed(ms(self.p99), 3);
            w.key("mean_ms").fixed(ms(self.mean), 3);
            w.key("max_ms").fixed(ms(self.max), 3);
        });
    }
}

/// SLA section of a [`SessionReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlaOutcome {
    /// The configured latency budget.
    pub budget: Duration,
    /// Completed requests whose end-to-end latency met the budget.
    pub met: u64,
    /// Completed requests over budget.
    pub missed: u64,
    /// Requests served at [`DegradeLevel::SkipAhead`].
    pub degraded_skip_ahead: u64,
    /// Requests served at [`DegradeLevel::PrefetchOff`].
    pub degraded_prefetch_off: u64,
}

impl SlaOutcome {
    /// Fraction of completed requests within budget.
    pub fn attainment(&self) -> f64 {
        let total = self.met + self.missed;
        if total == 0 {
            1.0
        } else {
            self.met as f64 / total as f64
        }
    }

    /// Computes the outcome of `budget` over a sample set.
    fn over<'a>(budget: SlaBudget, samples: impl Iterator<Item = &'a RequestSample>) -> Self {
        let mut outcome = SlaOutcome {
            budget: budget.target,
            met: 0,
            missed: 0,
            degraded_skip_ahead: 0,
            degraded_prefetch_off: 0,
        };
        for s in samples {
            if s.latency <= budget.target {
                outcome.met += 1;
            } else {
                outcome.missed += 1;
            }
            match s.degrade {
                DegradeLevel::SkipAhead => outcome.degraded_skip_ahead += 1,
                DegradeLevel::PrefetchOff => outcome.degraded_prefetch_off += 1,
                DegradeLevel::None => {}
            }
        }
        outcome
    }

    /// JSON object with stable field names.
    pub fn to_json(&self) -> String {
        JsonWriter::render(|w| self.write_json(w))
    }

    /// Writes the outcome as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("budget_ms").fixed(self.budget.as_secs_f64() * 1e3, 3);
            w.key("met").raw(self.met);
            w.key("missed").raw(self.missed);
            w.key("attainment").fixed(self.attainment(), 4);
            w.key("degraded_skip_ahead").raw(self.degraded_skip_ahead);
            w.key("degraded_prefetch_off")
                .raw(self.degraded_prefetch_off);
        });
    }
}

/// Writes an optional SLA section: the outcome object, or `null`.
fn write_sla(sla: &Option<SlaOutcome>, w: &mut JsonWriter) {
    match sla {
        Some(outcome) => outcome.write_json(w),
        None => w.raw("null"),
    }
}

/// Per-tenant slice of a [`SessionReport`]: admission/shed accounting,
/// latency percentiles, and the tenant's SLA outcome (under its own
/// budget when its [`TenantSpec`] set one, else the session budget). The
/// counters obey the same conservation law as the session totals —
/// `completed + rejected_queue_full + rejected_deadline + shed_in_queue
/// == submitted` — and summing any field across tenants reproduces the
/// session-level value exactly.
#[derive(Debug, Clone, Default)]
pub struct TenantReport {
    /// The tenant's name ([`TenantSpec::name`]).
    pub name: String,
    /// The tenant's weighted-fair dequeue weight.
    pub weight: f64,
    /// Requests this tenant offered to [`ServingSession::submit`].
    pub submitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests rejected at submit: session queue at capacity, or this
    /// tenant at its [`TenantSpec::queue_quota`].
    pub rejected_queue_full: u64,
    /// Requests rejected at submit with an already-blown deadline.
    pub rejected_deadline: u64,
    /// Admitted requests shed at dequeue (deadline expired while queued).
    pub shed_in_queue: u64,
    /// End-to-end latency percentiles over this tenant's completions.
    pub latency: LatencySummary,
    /// Queueing-delay percentiles over this tenant's completions.
    pub queue_wait: LatencySummary,
    /// SLA accounting under the tenant's effective budget, when one
    /// applies.
    pub sla: Option<SlaOutcome>,
}

impl TenantReport {
    /// Requests not served: rejected at submit plus shed in queue.
    pub fn unserved(&self) -> u64 {
        self.rejected_queue_full + self.rejected_deadline + self.shed_in_queue
    }

    /// JSON object with stable field names.
    pub fn to_json(&self) -> String {
        JsonWriter::render(|w| self.write_json(w))
    }

    /// Writes the tenant slice as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("name").string(&self.name);
            w.key("weight").raw(self.weight);
            w.key("submitted").raw(self.submitted);
            w.key("completed").raw(self.completed);
            w.key("rejected_queue_full").raw(self.rejected_queue_full);
            w.key("rejected_deadline").raw(self.rejected_deadline);
            w.key("shed_in_queue").raw(self.shed_in_queue);
            self.latency.write_json(w.key("latency"));
            self.queue_wait.write_json(w.key("queue_wait"));
            write_sla(&self.sla, w.key("sla"));
        });
    }
}

/// Outcome of a drained [`ServingSession`]: the batch-mode
/// [`EngineReport`] plus admission accounting, latency percentiles, and
/// the SLA section.
#[derive(Debug, Clone, Default)]
pub struct SessionReport {
    /// Merged access stats, guidance accounting, and wall-clock — the
    /// fields the batch API reported (`batches` counts completed
    /// requests).
    pub engine: EngineReport,
    /// Requests offered to [`ServingSession::submit`].
    pub submitted: u64,
    /// Requests rejected because the queue was at capacity.
    pub rejected_queue_full: u64,
    /// Requests rejected because their deadline was blown at submission.
    pub rejected_deadline: u64,
    /// Admitted requests shed at dequeue (deadline expired while queued).
    pub shed_in_queue: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// End-to-end latency percentiles over completed requests.
    pub latency: LatencySummary,
    /// Queueing-delay percentiles over completed requests.
    pub queue_wait: LatencySummary,
    /// SLA accounting, when the session had a budget.
    pub sla: Option<SlaOutcome>,
    /// Per-tenant accounting, one entry per [`SessionBuilder::tenants`]
    /// entry (a single default tenant when none were configured).
    pub tenants: Vec<TenantReport>,
}

impl SessionReport {
    /// Fraction of submitted requests that were not served (rejected or
    /// shed).
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            (self.rejected_queue_full + self.rejected_deadline + self.shed_in_queue) as f64
                / self.submitted as f64
        }
    }

    /// Machine-readable summary with fixed field names; embeds the
    /// [`EngineReport`] under `"engine"`.
    pub fn to_json(&self) -> String {
        JsonWriter::render(|w| self.write_json(w))
    }

    /// Writes the report as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            self.engine.write_json(w.key("engine"));
            w.key("submitted").raw(self.submitted);
            w.key("completed").raw(self.completed);
            w.key("rejected_queue_full").raw(self.rejected_queue_full);
            w.key("rejected_deadline").raw(self.rejected_deadline);
            w.key("shed_in_queue").raw(self.shed_in_queue);
            w.key("shed_rate").fixed(self.shed_rate(), 4);
            self.latency.write_json(w.key("latency"));
            self.queue_wait.write_json(w.key("queue_wait"));
            write_sla(&self.sla, w.key("sla"));
            w.key("tenants")
                .array(&self.tenants, TenantReport::write_json);
        });
    }
}

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
    /// watches the shards' sketches and re-places / replicates them while
    /// requests flow ([`crate::migrate`]).
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
    /// build-time default when not set on this builder.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero, background guidance is configured with
    /// zero threads, or the SLA budget is invalid.
    pub fn build(self, system: ShardedRecMgSystem) -> ServingSession {
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
        let guidance = self.guidance.unwrap_or(system.default_guidance());
        let tiers_before = system.tier_usage();
        let fills_before = system.fill_report();
        let ShardedRecMgSystem {
            ctx,
            router,
            shards,
        } = system;
        let num_shards = router.num_shards();
        let guided_before: u64 = shards.iter().map(|s| s.guided_chunks).sum();
        let chunks_before: u64 = shards.iter().map(|s| s.chunk_counter as u64).sum();

        let (plane, proto_tx, plane_cfg) = match guidance {
            GuidanceMode::Inline => (None, None, None),
            GuidanceMode::Background {
                threads,
                max_lag,
                max_batch,
            } => {
                assert!(threads > 0, "need at least one guidance thread");
                assert!(max_batch > 0, "need a positive guidance batch size");
                let (tx, rx) = mpsc::channel::<GuidanceJob>();
                let plane = PlaneState {
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
                (Some(plane), Some(tx), Some(threads))
            }
        };

        let shared = Arc::new(SessionShared {
            ctx,
            router,
            shards: shards.into_iter().map(Mutex::new).collect(),
            queue: Mutex::new(TenantQueues::new(tenants.len())),
            available: Condvar::new(),
            closed: AtomicBool::new(false),
            admission: self.admission,
            sla: self.sla,
            counters: Arc::new(ProgressCounters {
                completed_requests: AtomicU64::new(0),
                tenants: (0..tenants.len())
                    .map(|_| TenantCounters::default())
                    .collect(),
                drained: AtomicBool::new(false),
            }),
            tenants,
            plane,
            live: self.live.map(|cfg| LiveState::new(num_shards, cfg)),
        });

        let plane_threads = plane_cfg
            .map(|threads| {
                (0..threads)
                    .map(|_| {
                        let shared = Arc::clone(&shared);
                        std::thread::spawn(move || plane_loop(&shared))
                    })
                    .collect()
            })
            .unwrap_or_default();

        let workers = (0..self.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let tx = proto_tx.clone();
                std::thread::spawn(move || worker_loop(&shared, tx))
            })
            .collect();

        let rebalancer = shared.live.is_some().then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let live = shared.live.as_ref().expect("live state checked above");
                migrate::live_loop(live, &shared.shards, &shared.ctx, &shared.router);
            })
        });

        // Async fill plane: re-arm the queue (a prior session's drain
        // closed it) and spawn the fill threads that promote queued
        // slow-tier misses into residency.
        let fill_threads = match (&shared.ctx.fill_queue, shared.ctx.fill_mode) {
            (Some(queue), FillMode::Async { threads, .. }) => {
                queue.open();
                (0..threads.max(1))
                    .map(|_| {
                        let shared = Arc::clone(&shared);
                        std::thread::spawn(move || fill_loop(&shared))
                    })
                    .collect()
            }
            _ => Vec::new(),
        };

        ServingSession {
            shared,
            workers,
            plane_threads,
            rebalancer,
            fill_threads,
            proto_tx,
            epoch: Instant::now(),
            guided_before,
            chunks_before,
            tiers_before,
            fills_before,
        }
    }
}

/// A running streaming-serving instance: owns the shards and threads of a
/// [`ShardedRecMgSystem`] between [`SessionBuilder::build`] and
/// [`ServingSession::drain`].
pub struct ServingSession {
    shared: Arc<SessionShared>,
    workers: Vec<JoinHandle<WorkerLog>>,
    plane_threads: Vec<JoinHandle<()>>,
    rebalancer: Option<JoinHandle<()>>,
    fill_threads: Vec<JoinHandle<()>>,
    proto_tx: Option<mpsc::Sender<GuidanceJob>>,
    epoch: Instant,
    guided_before: u64,
    chunks_before: u64,
    tiers_before: Vec<TierUsage>,
    fills_before: FillPlaneReport,
}

impl std::fmt::Debug for ServingSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingSession")
            .field("workers", &self.workers.len())
            .field("plane_threads", &self.plane_threads.len())
            .field("queue_len", &self.queue_len())
            .finish_non_exhaustive()
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
                return Err(Rejection::QueueFull);
            }
            queue.queues[tenant].push_back(Admitted {
                id: request.id,
                tenant,
                keys: request.keys,
                arrival_at,
                deadline_at,
            });
        }
        shared.available.notify_one();
        Ok(())
    }

    /// Pulls `source` dry, pacing submissions to each request's arrival
    /// offset (sleeping until `start + arrival`). Returns the number of
    /// requests pulled; admission outcomes land in the final
    /// [`SessionReport`].
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
            let now = Instant::now();
            if arrival_at > now {
                std::thread::sleep(arrival_at - now);
            }
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
    /// ([`ClosedLoopSource`]). The view shares only the counters: it
    /// never keeps session state alive, and saturates once the session is
    /// drained.
    pub fn progress(&self) -> SessionProgress {
        SessionProgress {
            counters: Arc::clone(&self.shared.counters),
        }
    }

    /// Chunks offered to the background guidance plane whose guidance has
    /// not been computed yet (0 in inline mode). Together with
    /// [`completed_requests`](ServingSession::completed_requests) this lets
    /// a caller wait for full guidance quiescence — the lockstep oracle of
    /// `tests/integration_streaming.rs`.
    pub fn plane_pending(&self) -> usize {
        self.shared.plane.as_ref().map_or(0, PlaneState::pending)
    }

    /// Manually live-migrates shard `shard` to `placement` while requests
    /// flow — the same double-buffered dance the background rebalancer
    /// runs, blocking until the migration commits (or is abandoned by a
    /// concurrent drain). Returns whether the migration committed; `false`
    /// also when the session was built without [`SessionBuilder::live`].
    ///
    /// # Panics
    ///
    /// Panics if `shard` or `placement.tier` is out of range.
    pub fn migrate_shard(&self, shard: usize, placement: ShardPlacement) -> bool {
        let Some(live) = &self.shared.live else {
            return false;
        };
        assert!(shard < self.shared.shards.len(), "shard out of range");
        migrate::migrate_shard(
            live,
            &self.shared.shards,
            &self.shared.ctx.topology,
            shard,
            &placement,
        )
    }

    /// Manually installs (or, with `capacity == 0`, removes) a fast-tier
    /// replica on shard `shard`. Returns whether anything changed; `false`
    /// also when the session was built without [`SessionBuilder::live`].
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn replicate_shard(&self, shard: usize, capacity: usize) -> bool {
        let Some(live) = &self.shared.live else {
            return false;
        };
        assert!(shard < self.shared.shards.len(), "shard out of range");
        let ttl_epochs = live.cfg.replication.unwrap_or_default().ttl_epochs;
        migrate::set_replica(
            live,
            &self.shared.shards,
            &self.shared.ctx.topology,
            shard,
            capacity,
            ttl_epochs,
        )
    }

    /// The current route epoch (0 when live rebalancing is off or the
    /// route never changed).
    pub fn route_epoch(&self) -> u64 {
        self.shared
            .live
            .as_ref()
            .map_or(0, |live| live.routes.current_epoch())
    }

    /// Publishes a no-op route epoch — advances the epoch clock that
    /// replica-entry TTLs are measured against (useful for tests pinning
    /// decay behaviour). Returns the new epoch; 0 when live rebalancing
    /// is off.
    pub fn refresh_routes(&self) -> u64 {
        self.shared
            .live
            .as_ref()
            .map_or(0, |live| live.routes.publish_with(|_| {}))
    }

    /// Closes the queue, serves everything already admitted, joins all
    /// threads, and returns the (warm) system together with the session
    /// report.
    pub fn drain(mut self) -> (ShardedRecMgSystem, SessionReport) {
        // Stop the live rebalancer before anything else: a warm-up loop
        // mid-flight abandons its staging (the primary never stopped being
        // authoritative), so teardown never waits on a fill schedule.
        if let Some(live) = &self.shared.live {
            live.stop.store(true, Ordering::Release);
        }
        if let Some(handle) = self.rebalancer.take() {
            handle.join().expect("live rebalancer does not panic");
        }
        {
            // Set `closed` under the queue lock: a worker holds that lock
            // from its empty-check to its condvar wait, so the flag cannot
            // slip into that window and lose the wakeup.
            let _queue = self.shared.queue.lock().expect("queue lock");
            self.shared.closed.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();

        let mut stats = BatchAccessStats::default();
        let mut samples: Vec<RequestSample> = Vec::new();
        for handle in self.workers.drain(..) {
            let log = handle.join().expect("session worker does not panic");
            stats.accumulate(log.stats);
            samples.extend(log.samples);
        }
        // All worker-held senders are dropped; dropping the prototype
        // closes the channel and lets the plane exit.
        drop(self.proto_tx.take());
        for handle in self.plane_threads.drain(..) {
            handle.join().expect("guidance plane does not panic");
        }
        // Close the fill queue last among the planes: `close` lets the
        // fill threads drain the backlog, so every queued fill either
        // lands as a promotion or stays counted in the report.
        if let Some(queue) = &self.shared.ctx.fill_queue {
            queue.close();
        }
        for handle in self.fill_threads.drain(..) {
            handle.join().expect("fill plane does not panic");
        }
        let elapsed_secs = self.epoch.elapsed().as_secs_f64();

        // Every thread that held the shared state is joined, and progress
        // views hold only the counters, so this is the last reference.
        self.shared.counters.drained.store(true, Ordering::Release);
        let shared = match Arc::try_unwrap(self.shared) {
            Ok(shared) => shared,
            Err(_) => unreachable!("all session threads joined"),
        };
        let SessionShared {
            ctx,
            router,
            shards,
            plane,
            live,
            sla,
            tenants,
            counters,
            ..
        } = shared;
        let mut shards: Vec<Shard> = shards
            .into_iter()
            .map(|m| m.into_inner().expect("shard lock"))
            .collect();
        // Strip replicas before handing the system back: replicas are a
        // session-lifetime accelerator, not part of the durable placement.
        // Their counters fold into the replication report.
        let mut migration = MigrationReport::default();
        let mut replication = ReplicationReport::default();
        if let Some(live) = &live {
            let mut replicated_shards = 0u64;
            for shard in &mut shards {
                if let Some(replica) = shard.replica.take() {
                    replicated_shards += 1;
                    live.fold_replica(&replica);
                }
            }
            migration = live.migration_report();
            replication = live.replication_report();
            replication.replicated_shards = replicated_shards;
        }
        // Guidance computed after its shard went idle is still valid
        // buffer reprioritization — apply it so the returned system starts
        // warm. The model ran and the update lands exactly as an inline
        // apply between batches would, so it counts as guided; it is
        // *also* tallied as plane lag (`late_chunks`: it landed after the
        // last access of this session), which is the metric a capacity
        // planner should watch.
        let mut plane_report = GuidancePlaneReport {
            kernel_lane: ctx.kernel_label(),
            ..GuidancePlaneReport::default()
        };
        if let Some(plane) = plane {
            plane_report = GuidancePlaneReport {
                model_forwards: plane.model_forwards.into_inner(),
                drains: plane.drains.into_inner(),
                chunks: plane.chunks.into_inner(),
                max_batch: plane.max_batch_seen.into_inner(),
                late_chunks: 0,
                kernel_lane: ctx.kernel_label(),
            };
            for (sid, slot) in plane.completed.into_iter().enumerate() {
                for u in slot.updates.into_inner().expect("completed lock") {
                    plane_report.late_chunks += 1;
                    shards[sid].apply_guidance(&u.chunk, &u.bits, &u.prefetched);
                }
            }
        }
        let system = ShardedRecMgSystem {
            ctx,
            router,
            shards,
        };
        // Per-tier report: occupancy at drain, traffic as the delta over
        // this session (tier counters are cumulative on the buffers).
        let tiers: Vec<TierUsage> = system
            .tier_usage()
            .iter()
            .zip(&self.tiers_before)
            .map(|(now, before)| now.delta_since(before))
            .collect();

        let latency = LatencySummary::from_durations(samples.iter().map(|s| s.latency).collect());
        let queue_wait =
            LatencySummary::from_durations(samples.iter().map(|s| s.queue_wait).collect());
        let sla_outcome = sla.map(|budget| SlaOutcome::over(budget, samples.iter()));
        let tenant_reports: Vec<TenantReport> = tenants
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
            engine: EngineReport {
                stats,
                batches: samples.len(),
                guided_chunks: system.guided_chunks() - self.guided_before,
                total_chunks: system.total_chunks() - self.chunks_before,
                elapsed_secs,
                plane: plane_report,
                tiers,
                unique_keys: system.unique_keys(),
                max_phase_score: system.max_phase_score(),
                migration,
                replication,
                tables: system.table_report(),
                calibration: system.calibration_report().clone(),
                fills: system.fill_report().delta_since(&self.fills_before),
            },
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
        (system, report)
    }
}

// ---------------------------------------------------------------------------
// Worker and plane loops
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
        if shared.closed.load(Ordering::Acquire) {
            return None;
        }
        queue = shared.available.wait(queue).expect("queue lock");
    }
}

fn worker_loop(shared: &SessionShared, tx: Option<mpsc::Sender<GuidanceJob>>) -> WorkerLog {
    let mut log = WorkerLog::default();
    // Per-worker shard-split scratch: the router refills these vectors on
    // every request, so the per-request path allocates nothing once the
    // per-shard capacities have warmed up.
    let mut parts: Vec<Vec<VectorKey>> = Vec::new();
    while let Some(request) = pop_request(shared) {
        let dequeued = Instant::now();
        let counters = &shared.counters.tenants[request.tenant];
        if shared.admission.shed_blown {
            if let Some(d) = request.deadline_at {
                if dequeued > d {
                    counters.shed_in_queue.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            }
        }
        let queue_wait = dequeued.saturating_duration_since(request.arrival_at);
        // A tenant's own budget overrides the session-wide one for
        // pressure degradation (and later, its report's SLA section).
        let budget = shared.tenants[request.tenant].sla.or(shared.sla);
        let degrade = budget.map_or(DegradeLevel::None, |sla| sla.level(queue_wait));
        serve_request(
            shared,
            &request.keys,
            degrade,
            tx.as_ref(),
            &mut log.stats,
            &mut parts,
        );
        let finished = Instant::now();
        log.samples.push(RequestSample {
            id: request.id,
            tenant: request.tenant,
            queue_wait,
            service: finished.saturating_duration_since(dequeued),
            latency: finished.saturating_duration_since(request.arrival_at),
            deadline_met: request.deadline_at.map(|d| finished <= d),
            degrade,
        });
        shared
            .counters
            .completed_requests
            .fetch_add(1, Ordering::AcqRel);
    }
    // Dropping `tx` here (worker exit) releases the plane channel.
    log
}

/// Serves one request's keys across its home shards at the chosen
/// degradation level. `parts` is the worker's reusable split scratch
/// ([`ShardRouter::split_into`]).
fn serve_request(
    shared: &SessionShared,
    keys: &[VectorKey],
    degrade: DegradeLevel,
    tx: Option<&mpsc::Sender<GuidanceJob>>,
    stats: &mut BatchAccessStats,
    parts: &mut Vec<Vec<VectorKey>>,
) {
    shared.router.split_into(keys, parts);
    // One route pin covers the whole request: the snapshot cannot tear,
    // and a concurrent migration commit waits at its epoch fence until
    // this guard drops (so a mirror below never races the buffer swap).
    let route = shared.live.as_ref().map(|live| live.routes.pin());
    for (sid, part) in parts.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        let mut shard = shared.shards[sid].lock().expect("shard lock");
        match degrade {
            DegradeLevel::None => match (&shared.plane, tx) {
                (Some(plane), Some(tx)) => {
                    serve_shard_background(&mut shard, part, stats, &shared.ctx, tx, plane, sid)
                }
                _ => stats.accumulate(shard.process_keys(part, &shared.ctx, &shared.router)),
            },
            DegradeLevel::SkipAhead | DegradeLevel::PrefetchOff => {
                // Degraded: no fresh guidance for this request (§VI-C
                // skip-ahead on purpose). Background guidance that already
                // finished is still applied — with its prefetch list
                // stripped at PrefetchOff.
                if let Some(plane) = &shared.plane {
                    let keep_prefetch = degrade == DegradeLevel::SkipAhead;
                    if plane.completed[sid].len.load(Ordering::Acquire) > 0 {
                        plane.completed[sid].apply_to(&mut shard, keep_prefetch);
                    }
                }
                shard.process_keys_unguided(part, shared.ctx.cfg.input_len, stats);
            }
        }
        // Copy-on-access warming: a shard mid-migration gets the keys this
        // request just demanded mirrored into its staging buffer, still
        // under the shard mutex (the primary stayed authoritative above).
        if let Some(route) = &route {
            if route.route(sid) == ShardRoute::Migrating {
                shared
                    .live
                    .as_ref()
                    .expect("route pin implies live state")
                    .mirror(&mut shard, part);
            }
        }
    }
}

/// Fill-plane thread body: pops coalesced slow-tier misses off the
/// bounded queue and installs each row into its shard at the fill cost
/// the entry carried from its origin miss
/// ([`crate::RecMgBuffer`]`::promote_fill`). Exits once `drain` closes
/// the queue and the backlog is dry, so every queued fill either lands
/// as a promotion or stays counted (`coalesced`/`dropped`) in the
/// [`FillPlaneReport`].
fn fill_loop(shared: &SessionShared) {
    let queue = shared
        .ctx
        .fill_queue
        .as_ref()
        .expect("fill threads only run in async fill mode");
    while let Some((sid, key, fill_ns)) = queue.pop_wait() {
        let mut shard = shared.shards[sid].lock().expect("shard mutex poisoned");
        if shard.buffer.promote_fill(key, fill_ns) {
            queue.note_promoted();
        }
    }
}

/// Guidance-plane thread body: coalesce every pending chunk (up to
/// `max_batch`) into one batched model forward per model, then scatter the
/// per-shard updates. Exits when every sender (worker) is gone.
///
/// This is the tentpole of the batched plane: under multi-shard load the
/// plane's weight traffic is O(drained batches), not O(chunks) — while a
/// drain is being computed, workers keep appending jobs to the channel, so
/// the next drain naturally coalesces the backlog.
fn plane_loop(shared: &SessionShared) {
    let plane = shared
        .plane
        .as_ref()
        .expect("plane threads only run in background mode");
    let mut jobs: Vec<GuidanceJob> = Vec::with_capacity(plane.max_batch);
    let mut scratch = FastScratch::default();
    loop {
        jobs.clear();
        {
            // Hold the receiver only while draining; the batched forward
            // below runs lock-free so sibling plane threads can drain the
            // next backlog concurrently.
            let rx = plane.rx.lock().expect("rx lock");
            match rx.recv() {
                Ok(job) => jobs.push(job),
                Err(_) => break, // all workers done
            }
            while jobs.len() < plane.max_batch {
                match rx.try_recv() {
                    Ok(job) => jobs.push(job),
                    Err(_) => break,
                }
            }
        }
        plane.drains.fetch_add(1, Ordering::Relaxed);
        plane.chunks.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        plane
            .max_batch_seen
            .fetch_max(jobs.len() as u64, Ordering::Relaxed);

        let batch: Vec<(&[VectorKey], bool, usize)> = jobs
            .iter()
            .map(|j| (j.chunk.as_slice(), j.armed, j.shard))
            .collect();
        let (guidance, forwards) =
            Shard::compute_guidance_batch(&batch, &shared.ctx, &shared.router, &mut scratch);
        plane.model_forwards.fetch_add(forwards, Ordering::Relaxed);

        for (job, (bits, prefetched)) in jobs.drain(..).zip(guidance) {
            let slot = &plane.completed[job.shard];
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
            plane.in_flight[job.shard].fetch_sub(1, Ordering::AcqRel);
        }
        // Wake producers pacing on the lag gate. Taking (and dropping) the
        // gate lock orders this notify after any in-flight check a waiter
        // made before blocking, so the wakeup cannot be missed.
        drop(plane.lag_gate.lock().expect("lag gate lock"));
        plane.lag_cv.notify_all();
    }
}

/// Serves one shard sub-batch under the background guidance plane: demand
/// accesses never wait; completed guidance is applied as soon as it is
/// available (one atomic load on the fast path); new chunks are offered to
/// the plane unless it lags more than `max_lag` (the paper's §VI-C
/// skip-ahead rule).
fn serve_shard_background(
    shard: &mut Shard,
    keys: &[VectorKey],
    stats: &mut BatchAccessStats,
    ctx: &GuidanceCtx,
    tx: &mpsc::Sender<GuidanceJob>,
    plane: &PlaneState,
    sid: usize,
) {
    let input_len = ctx.cfg.input_len;
    let slot = &plane.completed[sid];
    let in_flight = &plane.in_flight[sid];
    for &key in keys {
        if slot.len.load(Ordering::Acquire) > 0 {
            // Apply whatever the plane has finished before this access
            // (bounded staleness, never blocking).
            slot.apply_to(shard, true);
        }
        shard.record_access(key, stats);
        shard.pending.push(key);
        while shard.pending.len() >= input_len {
            let chunk: Vec<VectorKey> = shard.pending.drain(..input_len).collect();
            shard.chunk_counter += 1;
            if in_flight.load(Ordering::Acquire) >= plane.max_lag {
                // The shard is at the plane's lag limit: this chunk runs
                // on stale guidance (the §VI-C skip, verbatim). What
                // changes with the coalescing plane is what happens
                // *next*: instead of racing further ahead and converting
                // every following chunk into a skip too (which is how
                // `guided_fraction` collapsed under multi-shard load), the
                // producer paces itself on the lag gate until the plane
                // has drained the backlog to a low-water mark. The
                // hysteresis makes production bursty on purpose — one
                // wake/sleep cycle per `max_lag - low_water` chunks, so
                // context switches amortize over the burst and the plane
                // always wakes to a full coalescing batch. Under sustained
                // saturation the steady state is one skipped chunk per
                // burst (guided fraction ≈ 1 - 1/burst); when the plane
                // keeps up nothing is skipped at all.
                shard.unguided_chunks += 1;
                if plane.max_lag == 0 {
                    // The plane accepts no work: plain skip-ahead.
                    continue;
                }
                let low_water = plane.max_lag / 4;
                let mut gate = plane.lag_gate.lock().expect("lag gate lock");
                let mut waits = 0u32;
                // The pacing wait runs with this shard's mutex held, so it
                // must stay short: a healthy plane drains a batch in well
                // under a timeout quantum (the notify is what actually
                // wakes the producer), and if it has made no progress
                // after a few quanta we fall back to racing ahead (more
                // §VI-C skips) rather than stalling sibling workers' —
                // including SLA-degraded — demand accesses on the lock.
                while in_flight.load(Ordering::Acquire) > low_water && waits < 5 {
                    let (g, _) = plane
                        .lag_cv
                        .wait_timeout(gate, Duration::from_millis(5))
                        .expect("lag gate lock");
                    gate = g;
                    waits += 1;
                }
                drop(gate);
                continue;
            }
            if slot.len.load(Ordering::Acquire) > 0 {
                slot.apply_to(shard, true);
            }
            // Plane-pressure degradation, mirroring the SLA ladder
            // ([`DegradeLevel::PrefetchOff`]): when the plane's total
            // backlog has built past an eighth of its aggregate lag budget
            // (`shards × max_lag`, so the threshold scales with the shard
            // count instead of choking prefetch at high shard counts),
            // send the chunk for caching guidance only. The autoregressive
            // prefetch forward is ~2× the caching forward; shedding it
            // first keeps the plane's priority signal fresh for everyone
            // instead of letting speculative work starve it. With an idle
            // plane (backlog 0) arming is exactly the sequential system's
            // rule, which is what the 1-shard lockstep oracle pins.
            // `.max(1)` guards the integer-division cliff: with a tiny
            // aggregate budget (e.g. 1 shard × max_lag 1) the threshold
            // would otherwise be 0 and prefetch would be shed on *any*
            // in-flight chunk, starving the warmup counter forever.
            let shed_at = (plane.completed.len() * plane.max_lag / 8).max(1);
            let armed = shard.prefetch_armed(ctx) && plane.pending() <= shed_at;
            in_flight.fetch_add(1, Ordering::AcqRel);
            if tx
                .send(GuidanceJob {
                    shard: shard.id,
                    chunk,
                    armed,
                })
                .is_err()
            {
                // Plane already shut down (can only happen at teardown).
                in_flight.fetch_sub(1, Ordering::AcqRel);
                shard.unguided_chunks += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caching_model::CachingModel;
    use crate::codec::FrequencyRankCodec;
    use crate::config::RecMgConfig;
    use crate::prefetch_model::PrefetchModel;
    use recmg_trace::SyntheticConfig;

    fn system(num_shards: usize) -> ShardedRecMgSystem {
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
    fn batch_source_yields_every_batch_at_time_zero() {
        let trace = SyntheticConfig::tiny(7).generate();
        let batches = trace.batches(10);
        let mut src = BatchSource::new(&batches);
        assert_eq!(src.remaining_hint(), Some(batches.len()));
        let mut total = 0usize;
        let mut count = 0usize;
        while let Some(req) = src.next_request() {
            assert_eq!(req.id, count as u64);
            assert_eq!(req.arrival, Duration::ZERO);
            assert_eq!(req.deadline, None);
            total += req.keys.len();
            count += 1;
        }
        assert_eq!(count, batches.len());
        assert_eq!(total, trace.len());
        assert_eq!(src.remaining_hint(), Some(0));
    }

    #[test]
    fn synthetic_poisson_arrivals_are_monotone() {
        let spec = WorkloadSpec::default();
        let mut src = SyntheticSource::new(
            spec,
            8,
            50,
            ArrivalProcess::Poisson { rate_hz: 10_000.0 },
            42,
        )
        .with_deadline(Duration::from_millis(5));
        let mut last = Duration::ZERO;
        let mut n = 0usize;
        while let Some(req) = src.next_request() {
            assert_eq!(req.keys.len(), 8);
            assert!(req.arrival >= last, "arrivals must be non-decreasing");
            assert_eq!(req.deadline, Some(Duration::from_millis(5)));
            last = req.arrival;
            n += 1;
        }
        assert_eq!(n, 50);
        assert!(last > Duration::ZERO, "Poisson gaps are a.s. positive");
    }

    #[test]
    fn trace_replay_covers_the_trace() {
        let trace = SyntheticConfig::tiny(9).generate();
        let mut src = TraceReplaySource::new(
            &trace,
            5,
            ArrivalProcess::Uniform {
                interval: Duration::from_micros(3),
            },
            0,
        );
        let mut total = 0usize;
        let mut i = 0usize;
        while let Some(req) = src.next_request() {
            total += req.keys.len();
            assert_eq!(req.arrival, Duration::from_micros(3) * (i as u32 + 1));
            i += 1;
        }
        assert_eq!(total, trace.len());
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
        assert!(report.to_json().contains("\"shed_rate\": 0.0000"));
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
    fn latency_summary_nearest_rank() {
        let ms = Duration::from_millis;
        let s = LatencySummary::from_durations((1..=100).map(ms).collect());
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, ms(50));
        assert_eq!(s.p95, ms(95));
        assert_eq!(s.p99, ms(99));
        assert_eq!(s.max, ms(100));
        assert_eq!(LatencySummary::from_durations(vec![]).count, 0);
        let one = LatencySummary::from_durations(vec![ms(7)]);
        assert_eq!(one.p50, ms(7));
        assert_eq!(one.p99, ms(7));
        assert_eq!(one.mean, ms(7));
    }

    #[test]
    #[should_panic(expected = "at least one serving worker")]
    fn zero_worker_builder_panics() {
        let _ = SessionBuilder::new().workers(0).build(system(1));
    }

    #[test]
    fn closed_loop_source_bounds_outstanding_and_serves_all() {
        let trace = SyntheticConfig::tiny(17).generate();
        let batches = trace.batches(10);
        let requests = batches.len();
        let session = SessionBuilder::new()
            .workers(1)
            .guidance(GuidanceMode::Inline)
            .admission(AdmissionPolicy {
                // Queue depth below the request count: only the closed
                // loop's self-limiting keeps everything admitted.
                queue_depth: 2,
                ..AdmissionPolicy::default()
            })
            .build(system(2));
        let mut source = ClosedLoopSource::new(BatchSource::new(&batches), 2, session.progress());
        let pulled = session.ingest(&mut source);
        let (_sys, report) = session.drain();
        assert_eq!(pulled, requests);
        assert_eq!(report.submitted, requests as u64);
        // With 2 outstanding and 1 worker, at most 1 request queues at a
        // time — nothing is ever rejected despite the tiny queue.
        assert_eq!(report.rejected_queue_full, 0);
        assert_eq!(report.completed, requests as u64);
        assert_eq!(report.engine.stats.total(), trace.len() as u64);
    }

    /// Wraps a source and records, at every pull, how many requests the
    /// session has been handed but not finished.
    struct InFlightProbe<S> {
        inner: S,
        progress: SessionProgress,
        max_in_flight: u64,
    }

    impl<S: RequestSource> RequestSource for InFlightProbe<S> {
        fn next_request(&mut self) -> Option<Request> {
            let submitted = self.progress.counters.tenants[0]
                .submitted
                .load(Ordering::Relaxed);
            let in_flight = submitted.saturating_sub(self.progress.finished());
            self.max_in_flight = self.max_in_flight.max(in_flight);
            self.inner.next_request()
        }
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
    fn closed_loop_ingest_keeps_all_outstanding_slots_in_flight() {
        // One worker, requests that take milliseconds to serve: request k
        // is submitted microseconds after the completion of k-2 opened its
        // slot, while k-1 is still in service — so 2 outstanding means 2 in
        // flight at the next pull, not 1.
        let requests: Vec<Vec<VectorKey>> = (0..12u64)
            .map(|r| {
                (0..20_000u64)
                    .map(|i| VectorKey::from_u64(r * 20_000 + i))
                    .collect()
            })
            .collect();
        let session = SessionBuilder::new()
            .workers(1)
            .guidance(GuidanceMode::Inline)
            .build(system(1));
        let mut probe = InFlightProbe {
            inner: ClosedLoopSource::new(BatchSource::from_vecs(requests), 2, session.progress()),
            progress: session.progress(),
            max_in_flight: 0,
        };
        assert_eq!(session.ingest(&mut probe), 12);
        let max_in_flight = probe.max_in_flight;
        drop(probe);
        let (_sys, report) = session.drain();
        assert_eq!(report.completed, 12);
        assert_eq!(max_in_flight, 2);
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
    fn closed_loop_arrivals_are_monotone() {
        let session = SessionBuilder::new()
            .guidance(GuidanceMode::Inline)
            .build(system(1));
        let inner =
            SyntheticSource::new(WorkloadSpec::default(), 4, 10, ArrivalProcess::Immediate, 3);
        let mut src = ClosedLoopSource::new(inner, 4, session.progress());
        assert_eq!(src.remaining_hint(), Some(10));
        let mut last = Duration::ZERO;
        let mut n = 0usize;
        while let Some(req) = src.next_request() {
            assert!(req.arrival >= last, "closed-loop arrivals move forward");
            last = req.arrival;
            n += 1;
            session.submit(req).expect("admitted");
        }
        assert_eq!(n, 10);
        let (_sys, report) = session.drain();
        assert_eq!(report.completed, 10);
    }

    #[test]
    #[should_panic(expected = "at least one outstanding")]
    fn closed_loop_zero_outstanding_panics() {
        let session = SessionBuilder::new()
            .guidance(GuidanceMode::Inline)
            .build(system(1));
        let _ = ClosedLoopSource::new(BatchSource::from_vecs(vec![]), 0, session.progress());
    }

    #[test]
    fn progress_saturates_after_drain() {
        let session = SessionBuilder::new()
            .guidance(GuidanceMode::Inline)
            .build(system(1));
        let progress = session.progress();
        assert_eq!(progress.completed(), 0);
        assert_eq!(progress.finished(), 0);
        let (_sys, _report) = session.drain();
        // The weak view saturates: a closed loop can never hang on it.
        assert_eq!(progress.completed(), u64::MAX);
        assert_eq!(progress.finished(), u64::MAX);
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
        assert_eq!(session.plane_threads.len(), 0);
        session.ingest(&mut BatchSource::new(&trace.batches(10)));
        let (_sys, report) = session.drain();
        assert_eq!(report.engine.stats.total(), trace.len() as u64);
        // Per-tier stats surfaced through the session report.
        assert_eq!(report.engine.tiers.len(), 1);
        assert_eq!(report.engine.tiers[0].name, "dram");
        assert_eq!(report.engine.tiers[0].traffic.demand(), trace.len() as u64);
        assert!(report.engine.access_cost_ns() > 0);
        assert!(report.to_json().contains("\"tiers\""));
    }

    // -- Poisson gap sampler (bugfix pin) ---------------------------------

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The inverse-CDF exponential sampler must never emit an
        /// infinite gap (u → 1 stalls the source forever), a zero gap
        /// (defeats pacing), or a NaN — at any rate and seed.
        #[test]
        fn poisson_gaps_are_always_finite_and_positive(
            seed in 0u64..u64::MAX,
            rate_exp in -3i32..9,
        ) {
            let rate_hz = 10f64.powi(rate_exp);
            let mut arrivals = ArrivalProcess::Poisson { rate_hz };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut clock = Duration::ZERO;
            for _ in 0..256 {
                let gap = arrivals.next_gap(&mut rng);
                proptest::prop_assert!(gap > Duration::ZERO, "gap must be positive");
                // ~27.7 mean gaps is the clamp ceiling: -ln(1e-12)/rate.
                proptest::prop_assert!(
                    gap.as_secs_f64() <= 28.0 / rate_hz,
                    "gap {:?} exceeds the clamp ceiling at rate {rate_hz}",
                    gap
                );
                let next = clock + gap;
                proptest::prop_assert!(next > clock, "virtual clock must advance");
                clock = next;
            }
        }
    }

    // -- LatencySummary nearest-rank indexing (bugfix pin) ----------------

    fn summary_of_millis(ms: &[u64]) -> LatencySummary {
        LatencySummary::from_durations(ms.iter().map(|&m| Duration::from_millis(m)).collect())
    }

    #[test]
    fn latency_summary_empty_is_all_zero() {
        let s = summary_of_millis(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, Duration::ZERO);
        assert_eq!(s.p95, Duration::ZERO);
        assert_eq!(s.p99, Duration::ZERO);
        assert_eq!(s.max, Duration::ZERO);
    }

    #[test]
    fn latency_summary_single_sample_is_every_percentile() {
        let s = summary_of_millis(&[7]);
        assert_eq!(s.count, 1);
        assert_eq!(s.p50, Duration::from_millis(7));
        assert_eq!(s.p95, Duration::from_millis(7));
        assert_eq!(s.p99, Duration::from_millis(7));
        assert_eq!(s.max, Duration::from_millis(7));
    }

    #[test]
    fn latency_summary_two_samples_split_at_the_median() {
        // Nearest-rank: ceil(0.5 × 2) = rank 1 → the smaller sample;
        // ceil(0.95 × 2) = ceil(0.99 × 2) = rank 2 → the larger. The top
        // rank must index samples[1], not overflow to samples[2].
        let s = summary_of_millis(&[10, 20]);
        assert_eq!(s.count, 2);
        assert_eq!(s.p50, Duration::from_millis(10));
        assert_eq!(s.p95, Duration::from_millis(20));
        assert_eq!(s.p99, Duration::from_millis(20));
        assert_eq!(s.max, Duration::from_millis(20));
    }

    #[test]
    fn latency_summary_hundred_samples_hit_exact_ranks() {
        // 1..=100 ms: nearest-rank percentile q over n=100 is exactly
        // the ceil(q·100)-th smallest, i.e. q·100 ms.
        let ms: Vec<u64> = (1..=100).rev().collect();
        let s = summary_of_millis(&ms);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, Duration::from_millis(50));
        assert_eq!(s.p95, Duration::from_millis(95));
        assert_eq!(s.p99, Duration::from_millis(99));
        assert_eq!(s.max, Duration::from_millis(100));
    }

    // -- ClosedLoopSource backoff (bugfix pin) ----------------------------

    #[test]
    fn blocked_closed_loop_makes_progress_without_busy_spinning() {
        let session = SessionBuilder::new()
            .guidance(GuidanceMode::Inline)
            .admission(AdmissionPolicy::unbounded())
            .build(system(1));
        let progress = session.progress();
        let (tx, rx) = mpsc::channel::<Request>();
        let puller = std::thread::spawn(move || {
            let inner = BatchSource::from_vecs(vec![vec![], vec![]]);
            let mut src = ClosedLoopSource::new(inner, 1, progress);
            // Request 1 issues immediately; request 2 blocks until the
            // session completes request 1.
            let first = src.next_request().expect("first request");
            tx.send(first).expect("main listening");
            let second = src.next_request().expect("second request unblocks");
            tx.send(second).expect("main listening");
            assert!(src.next_request().is_none());
        });
        let first = rx.recv().expect("first request arrives");
        // The puller is now blocked in the backoff loop (request 1 not
        // finished). Give it a beat, then unblock it by serving.
        assert!(rx.try_recv().is_err(), "second request must be blocked");
        session.submit(first).expect("admitted");
        let second = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("blocked source resumed after completion");
        session.submit(second).expect("admitted");
        puller.join().expect("puller exits cleanly");
        let (_sys, report) = session.drain();
        assert_eq!(report.completed, 2);
    }

    // -- Markov-modulated arrivals ----------------------------------------

    #[test]
    fn markov_arrivals_sample_finite_monotone_gaps_and_visit_states() {
        let mut arrivals = ArrivalProcess::flash_crowd(1000.0, 10.0, 20, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let ArrivalProcess::MarkovModulated(chain) = &mut arrivals else {
            panic!("flash_crowd builds a Markov chain");
        };
        assert_eq!(chain.num_states(), 2);
        assert_eq!(chain.state_name(), "steady");
        let mut visited = [false; 2];
        let mut clock = Duration::ZERO;
        for _ in 0..2000 {
            visited[chain.state()] = true;
            let gap = chain.next_gap(&mut rng);
            assert!(gap > Duration::ZERO);
            clock += gap;
        }
        assert!(visited[0] && visited[1], "chain must visit both states");
        assert!(clock > Duration::ZERO);
    }

    #[test]
    fn diurnal_preset_cycles_through_four_states() {
        let mut arrivals = ArrivalProcess::diurnal(100.0, 10_000.0, 8);
        let mut rng = StdRng::seed_from_u64(11);
        let ArrivalProcess::MarkovModulated(chain) = &mut arrivals else {
            panic!("diurnal builds a Markov chain");
        };
        assert_eq!(chain.num_states(), 4);
        let mut visited = [false; 4];
        for _ in 0..500 {
            visited[chain.state()] = true;
            chain.next_gap(&mut rng);
        }
        assert!(visited.iter().all(|&v| v), "cycle must reach every state");
    }

    #[test]
    #[should_panic(expected = "row")]
    fn markov_rejects_non_stochastic_rows() {
        let _ = MarkovArrivals::new(
            vec![
                ("a", ArrivalProcess::Immediate),
                ("b", ArrivalProcess::Immediate),
            ],
            vec![vec![0.7, 0.7], vec![0.5, 0.5]],
        );
    }

    #[test]
    #[should_panic(expected = "nests a Markov chain")]
    fn markov_rejects_nested_chains() {
        let inner = MarkovArrivals::new(vec![("x", ArrivalProcess::Immediate)], vec![vec![1.0]]);
        let _ = MarkovArrivals::new(
            vec![("outer", ArrivalProcess::MarkovModulated(inner))],
            vec![vec![1.0]],
        );
    }

    #[test]
    fn markov_source_arrivals_are_monotone() {
        let spec = WorkloadSpec::default();
        let mut src = SyntheticSource::new(
            spec,
            4,
            200,
            ArrivalProcess::flash_crowd(10_000.0, 20.0, 30, 10),
            5,
        );
        let mut last = Duration::ZERO;
        while let Some(req) = src.next_request() {
            assert!(req.arrival > last, "arrivals strictly increase");
            last = req.arrival;
        }
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
        assert!(report.to_json().contains("\"tenants\""));
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
