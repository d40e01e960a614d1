//! Request sources: *what* a session is asked to serve.
//!
//! A [`RequestSource`] is a pull-based stream of timestamped
//! [`Request`]s. The open-loop sources are all one type, [`PacedSource`]
//! — a key stream ([`KeyStream`]: pre-materialized batches, a
//! [`WorkloadSpec`], a trace replay, or a trace file in
//! [`crate::trace`]) stamped by an [`ArrivalProcess`] — so their arrivals
//! ignore the server entirely. [`ClosedLoopSource`] wraps any of them
//! into the classic N-client closed loop, watching the session through a
//! [`SessionProgress`] view that shares only counters, never session
//! state. Re-exported from [`crate::session`].

use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use recmg_trace::{Trace, VectorKey};

use crate::arrival::{ArrivalProcess, Pacer};
use crate::serving::WorkloadSpec;
use crate::session::{ProgressCounters, TenantCounters};
#[cfg(doc)]
use crate::session::{RequestSample, ServingSession, SessionBuilder};

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
/// shares only the counters and the condvar that signals them, never the
/// session's state (shards, queues): a view on another thread cannot hold
/// that state alive. Reads against a drained session saturate (every
/// request counts as finished) and waits on one return, so a
/// [`ClosedLoopSource`] can never deadlock on a session that went away.
#[derive(Debug, Clone)]
pub struct SessionProgress {
    counters: Arc<ProgressCounters>,
}

impl SessionProgress {
    pub(crate) fn new(counters: Arc<ProgressCounters>) -> Self {
        SessionProgress { counters }
    }

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
        // Block until a slot is free: fewer than `outstanding` of the
        // requests issued so far are unfinished. Every completion,
        // rejection and shed wakes the wait to re-check, and a drained
        // session ends it.
        let progress = &self.progress;
        let freed = (self.issued + 1).saturating_sub(self.outstanding);
        progress.counters.wait(|| progress.finished() >= freed);
        let mut request = self.inner.next_request()?;
        request.arrival = epoch.elapsed();
        self.issued += 1;
        Some(request)
    }

    fn remaining_hint(&self) -> Option<usize> {
        self.inner.remaining_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdmissionPolicy;
    use crate::engine::GuidanceMode;
    use crate::session::tests::system;
    use crate::session::SessionBuilder;
    use recmg_trace::SyntheticConfig;
    use std::sync::mpsc;

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
}
