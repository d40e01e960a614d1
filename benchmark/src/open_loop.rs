//! The open-loop measured phase of `open_poisson`: Poisson arrivals
//! through a `ServingSession`, latency timed from each request's due
//! time.

use std::time::{Duration, Instant};

use recmg_core::{
    ArrivalProcess, LatencySummary, Request, RequestSource, SessionBuilder, SessionReport,
    ShardedRecMgSystem, TraceReplaySource,
};
use recmg_trace::Trace;

use crate::alloc;
use crate::metrics::share;
use crate::run::{latency_note, ms, Checks, Ctx, Measured, RunArgs, Totals};
use crate::spans::Recorder;
use crate::workloads::{
    Spec, OPEN_DEADLINE, OPEN_QUERIES_PER_REQUEST, OPEN_RATE_HZ, OPEN_SIDE_RATES_HZ,
};

/// Wraps a request source: stops it at a time horizon, counts what it
/// offered, and notes when the ingest loop came back for the next
/// request — which is when the previous one had been submitted.
struct TimedSource<S> {
    inner: S,
    horizon: Duration,
    /// One instant per `next_request` call (the last returned `None`).
    pulls: Vec<Instant>,
    arrivals: Vec<Duration>,
    offered_keys: u64,
}

impl<S: RequestSource> TimedSource<S> {
    fn new(inner: S, horizon: Duration) -> Self {
        TimedSource {
            inner,
            horizon,
            pulls: Vec::new(),
            arrivals: Vec::new(),
            offered_keys: 0,
        }
    }

    /// How late each request was submitted: the ingest loop's next pull
    /// minus the request's due time.
    fn lag(&self) -> Vec<Duration> {
        let Some(&origin) = self.pulls.first() else {
            return Vec::new();
        };
        self.arrivals
            .iter()
            .zip(&self.pulls[1..])
            .map(|(&due, &next_pull)| next_pull.saturating_duration_since(origin + due))
            .collect()
    }
}

impl<S: RequestSource> RequestSource for TimedSource<S> {
    fn next_request(&mut self) -> Option<Request> {
        self.pulls.push(Instant::now());
        let request = self.inner.next_request()?;
        if request.arrival > self.horizon {
            return None;
        }
        self.arrivals.push(request.arrival);
        self.offered_keys += request.keys.len() as u64;
        Some(request)
    }
}

/// One open-loop step at a fixed arrival rate.
struct OpenStep {
    report: SessionReport,
    totals: Totals,
    /// How late the generator submitted each request.
    lag: LatencySummary,
    drain_ms: f64,
}

impl OpenStep {
    fn failed(&self) -> u64 {
        self.report.rejected_queue_full + self.report.rejected_deadline + self.report.shed_in_queue
    }

    /// Requests completed inside the latency limit, of those submitted:
    /// a refused or shed request misses.
    fn sla_ok_share(&self) -> f64 {
        let met = self.report.sla.map_or(0, |s| s.met);
        share(met, self.report.submitted)
    }

    fn service_mean_ms(&self) -> f64 {
        ms(self.report.latency.mean) - ms(self.report.queue_wait.mean)
    }
}

#[allow(clippy::too_many_arguments)]
fn open_step(
    spec: &Spec,
    system: ShardedRecMgSystem,
    trace: &Trace,
    rate_hz: f64,
    seconds: f64,
    seed: u64,
    step: u64,
    rec: &mut Recorder,
) -> (ShardedRecMgSystem, OpenStep) {
    let (admission, sla) = Spec::open_policy();
    let replay = TraceReplaySource::new(
        trace,
        OPEN_QUERIES_PER_REQUEST,
        ArrivalProcess::Poisson { rate_hz },
        seed ^ (step << 32),
    )
    .with_deadline(OPEN_DEADLINE);
    let mut source = TimedSource::new(replay, Duration::from_secs_f64(seconds));
    let session = SessionBuilder::new()
        .workers(1)
        .guidance(spec.guidance)
        .admission(admission)
        .sla(sla)
        .build(system);
    let start = Instant::now();
    rec.enter("measure.ingest", step);
    session.ingest(&mut source);
    rec.exit();
    let ingested = Instant::now();
    rec.enter("measure.drain", step);
    let (system, report) = session.drain();
    rec.exit();
    let done = Instant::now();
    let mut totals = Totals::default();
    totals.add(
        &report.engine,
        source.offered_keys,
        (done - start).as_secs_f64(),
    );
    (
        system,
        OpenStep {
            report,
            totals,
            lag: LatencySummary::from_durations(source.lag()),
            drain_ms: (done - ingested).as_secs_f64() * 1e3,
        },
    )
}

/// The open-loop measured phase: one gated step at 800 req/s (twice in
/// the traced run — tracing off, then on — followed by the two ungated
/// context rates), its end-to-end metrics and the session's counters.
pub(crate) fn run_open(
    spec: &Spec,
    mut system: ShardedRecMgSystem,
    trace: &Trace,
    args: &RunArgs,
    ctx: &mut Ctx,
) -> (ShardedRecMgSystem, Measured) {
    let Ctx {
        rec,
        checks,
        values,
        notes,
    } = ctx;
    let mut step_no = 0u64;
    let mut step = |system: ShardedRecMgSystem, rate: f64, secs: f64, rec: &mut Recorder| {
        step_no += 1;
        open_step(spec, system, trace, rate, secs, args.seed, step_no, rec)
    };
    let (mut overhead, mut allocs_per_key) = (0.0, 0.0);
    let gate;
    if args.trace {
        alloc::set_enabled(false);
        let (s, plain) = step(system, OPEN_RATE_HZ, args.seconds / 2.0, rec);
        alloc::set_enabled(true);
        let allocs_before = alloc::allocs();
        let (s, traced) = step(s, OPEN_RATE_HZ, args.seconds / 2.0, rec);
        allocs_per_key = share(alloc::allocs() - allocs_before, traced.totals.stats.total());
        // The open loop's rate is fixed by the schedule, so its overhead
        // shows in latency; the median, because the mean is carried by a
        // few lag-gate stalls.
        let p50 = |s: &OpenStep| s.report.latency.p50.as_secs_f64();
        overhead = 1.0 - p50(&plain) / p50(&traced).max(1e-12);
        let (s, low) = step(s, OPEN_SIDE_RATES_HZ[0], args.seconds / 5.0, rec);
        let (s, high) = step(s, OPEN_SIDE_RATES_HZ[1], args.seconds / 5.0, rec);
        system = s;
        values.set("open.p99_ms_at_400", ms(low.report.latency.p99));
        values.set("open.p99_ms_at_1200", ms(high.report.latency.p99));
        let max_ok = [
            (OPEN_SIDE_RATES_HZ[0], &low),
            (OPEN_RATE_HZ, &traced),
            (OPEN_SIDE_RATES_HZ[1], &high),
        ]
        .iter()
        .filter(|(_, s)| s.sla_ok_share() >= 0.99)
        .map(|(rate, _)| *rate)
        .fold(0.0, f64::max);
        values.set("open.max_rate_ok_hz", max_ok);
        for s in [&plain, &low, &high] {
            check_open_step(s, checks);
        }
        gate = traced;
    } else {
        let (s, only) = step(system, OPEN_RATE_HZ, args.seconds, rec);
        system = s;
        gate = only;
    }
    check_open_step(&gate, checks);

    let r = &gate.report;
    let served = gate.totals.stats;
    values.set("keys_per_s", served.total() as f64 / gate.totals.secs);
    values.set("latency_p50_ms", ms(r.latency.p50));
    values.set("latency.mean_ms", ms(r.latency.mean));
    values.set("latency.p99_ms", ms(r.latency.p99));
    values.set("sla_ok_share", gate.sla_ok_share());
    values.set("served_share", share(r.completed, r.submitted));
    values.set("miss_share", share(served.misses, served.total()));
    notes.push(latency_note("completed requests", &r.latency));
    values.set("session.queue_wait_p50_ms", ms(r.queue_wait.p50));
    values.set("session.queue_wait_p99_ms", ms(r.queue_wait.p99));
    values.set("session.service_mean_ms", gate.service_mean_ms());
    values.set("session.rejected_queue_full", r.rejected_queue_full as f64);
    values.set("session.rejected_deadline", r.rejected_deadline as f64);
    values.set("session.shed_in_queue", r.shed_in_queue as f64);
    let sla = r.sla.expect("the open loop sets a latency limit");
    values.set(
        "session.degraded_skip_ahead",
        sla.degraded_skip_ahead as f64,
    );
    values.set(
        "session.degraded_prefetch_off",
        sla.degraded_prefetch_off as f64,
    );
    values.set("session.drain_ms", gate.drain_ms);
    values.set("loadgen.lag_p99_ms", ms(gate.lag.p99));
    let measured = Measured {
        attempted: r.submitted,
        failed: gate.failed(),
        overhead,
        allocs_per_key,
        totals: gate.totals,
    };
    (system, measured)
}

/// Conservation of an open-loop step: every submitted request is
/// accounted for exactly once, and the served keys are those of the
/// completed requests.
fn check_open_step(step: &OpenStep, checks: &mut Checks) {
    let r = &step.report;
    checks.check(
        r.completed + r.rejected_queue_full + r.rejected_deadline + r.shed_in_queue == r.submitted,
        || {
            format!(
                "conservation: completed {} + rejected {} + {} + shed {} != submitted {}",
                r.completed,
                r.rejected_queue_full,
                r.rejected_deadline,
                r.shed_in_queue,
                r.submitted
            )
        },
    );
    let served = step.totals.stats.total();
    let offered = step.totals.offered_keys;
    // The report does not say which requests were refused, so the exact
    // equality is only checkable when none were.
    let ok = if step.failed() == 0 {
        served == offered
    } else {
        served < offered
    };
    checks.check(ok, || {
        format!(
            "hits + misses = {served}, offered {offered} keys, {} requests unserved",
            step.failed()
        )
    });
}
