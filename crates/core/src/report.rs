//! Session reports: what a drained [`ServingSession`] hands back.
//!
//! [`SessionReport`] extends the batch-mode [`EngineReport`] with
//! admission accounting, nearest-rank latency percentiles
//! ([`LatencySummary`], computed once at drain from the per-worker
//! [`RequestSample`] logs), the SLA section ([`SlaOutcome`]) and one
//! [`TenantReport`] per tenant. Session totals are the tenant sums, so
//! the two levels cannot diverge. Every type writes itself through the
//! one [`JsonWriter`]. Re-exported from [`crate::session`].

use std::time::Duration;

#[cfg(doc)]
use crate::config::TenantSpec;
use crate::config::{DegradeLevel, SlaBudget};
use crate::engine::EngineReport;
use crate::json::JsonWriter;
#[cfg(doc)]
use crate::session::{Request, ServingSession, SessionBuilder};

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
    pub(crate) fn over<'a>(
        budget: SlaBudget,
        samples: impl Iterator<Item = &'a RequestSample>,
    ) -> Self {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
