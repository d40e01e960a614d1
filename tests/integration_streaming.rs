//! Streaming-session correctness: the session against its sequential
//! oracle, and admission-control safety.
//!
//! Extends the parity oracle of `integration_sharding.rs` to the streaming
//! path: a 1-shard batch-backed `ServingSession` (one worker, inline
//! guidance, unbounded queue) runs the exact control flow of the
//! sequential `RecMgSystem`, so its hit/miss/prefetch counts must match
//! *exactly*. The property test pins the admission-control guarantee the
//! SLA machinery rests on: a request whose deadline is satisfiable at zero
//! load is never rejected or shed.

use std::time::Duration;

use proptest::prelude::*;

use recmg_repro::core::{
    train_recmg, AdmissionPolicy, ArrivalProcess, BatchSource, GuidanceMode, GuidancePrecision,
    RecMgConfig, RecMgSystem, Request, RequestSource, SessionBuilder, ShardedRecMgSystem,
    SlaBudget, TenantSpec, TraceReplaySource, TrainOptions,
};
use recmg_repro::dlrm::{BatchAccessStats, BufferManager};
use recmg_repro::trace::{RowId, SyntheticConfig, TableId, TraceStats, VectorKey};

fn trained_setup() -> (
    recmg_repro::trace::Trace,
    recmg_repro::core::TrainedRecMg,
    usize,
) {
    let cfg = RecMgConfig::tiny();
    let trace = SyntheticConfig::tiny(101).generate();
    let capacity = TraceStats::compute(&trace).buffer_capacity(20.0);
    let trained = train_recmg(
        &trace.accesses()[..trace.len() / 2],
        &cfg,
        capacity,
        &TrainOptions::tiny(),
    );
    (trace, trained, capacity)
}

#[test]
fn one_shard_batch_backed_session_matches_recmg_system_exactly() {
    let (trace, trained, capacity) = trained_setup();
    let mut reference = RecMgSystem::from_trained(&trained, capacity);
    let mut ref_stats = BatchAccessStats::default();
    for batch in trace.batches(10) {
        ref_stats.accumulate(reference.process_batch(batch));
    }

    let session = SessionBuilder::new()
        .workers(1)
        .guidance(GuidanceMode::Inline)
        .admission(AdmissionPolicy::unbounded())
        .build(
            recmg_repro::core::SystemBuilder::from_trained(&trained)
                .capacity(capacity)
                .build(),
        );
    let batches = trace.batches(10);
    session.ingest(&mut BatchSource::new(&batches));
    let (sharded, report) = session.drain();

    // Exact parity, not approximate: same cache hits, same prefetch hits,
    // same misses, same prefetch volume — the streaming path serves the
    // identical control flow.
    assert_eq!(report.engine.stats, ref_stats);
    assert_eq!(reference.prefetches_issued(), sharded.prefetches_issued());
    assert_eq!(report.completed, batches.len() as u64);
    assert_eq!(report.submitted, batches.len() as u64);
    assert_eq!(report.shed_rate(), 0.0);
    assert_eq!(report.latency.count, batches.len());
}

/// The batched background guidance plane reproduces inline-guidance
/// hit/miss/prefetch counts on one shard when driven in lockstep.
///
/// Requests are exactly one chunk (`input_len` *keys* each — not
/// `Trace::batches`, which groups by query), and the driver waits for both
/// the worker and the plane to go quiescent between requests. Under that
/// schedule the background plane applies chunk k's guidance before any
/// access of chunk k+1 — the same effective ordering as inline guidance —
/// so every count must match *exactly*: the batched kernels are
/// lane-independent and bit-identical to the per-item path.
#[test]
fn batched_background_session_matches_inline_counts_on_one_shard() {
    let (trace, trained, capacity) = trained_setup();
    let input_len = trained.caching.config().input_len;

    let mut reference = recmg_repro::core::SystemBuilder::from_trained(&trained)
        .capacity(capacity)
        .build();
    let mut ref_stats = BatchAccessStats::default();
    for chunk in trace.accesses().chunks(input_len) {
        ref_stats.accumulate(reference.process_batch(chunk));
    }

    let session = SessionBuilder::new()
        .workers(1)
        .guidance(GuidanceMode::Background {
            threads: 1,
            max_lag: 64,
            max_batch: 16,
        })
        .admission(AdmissionPolicy::unbounded())
        .build(
            recmg_repro::core::SystemBuilder::from_trained(&trained)
                .capacity(capacity)
                .build(),
        );
    for (i, chunk) in trace.accesses().chunks(input_len).enumerate() {
        session
            .submit(Request {
                id: i as u64,
                keys: chunk.to_vec(),
                arrival: Duration::ZERO,
                deadline: None,
                tenant: 0,
            })
            .expect("unbounded admission");
        while session.completed_requests() < (i + 1) as u64 || session.plane_pending() > 0 {
            std::thread::yield_now();
        }
    }
    let (sys, report) = session.drain();

    assert_eq!(report.engine.stats, ref_stats);
    assert_eq!(sys.prefetches_issued(), reference.prefetches_issued());
    assert_eq!(report.engine.total_chunks, reference.total_chunks());
    // Every chunk went through the plane and was applied; only the final
    // chunk's guidance lands at drain (late), every other chunk was
    // guided before its successor's accesses.
    assert_eq!(report.engine.guided_chunks, report.engine.total_chunks);
    assert_eq!(report.engine.plane.chunks, report.engine.guided_chunks);
    assert!(report.engine.plane.late_chunks <= 1);
    assert!(report.engine.plane.model_forwards > 0);
}

/// An int8-quantized guidance plane drives the buffer within a small
/// tolerance of the f32 plane on the same trace.
///
/// Both sessions run the lockstep schedule of
/// `batched_background_session_matches_inline_counts_on_one_shard`, so the
/// only difference is the weight precision of the compiled models.
/// Quantization shifts keep/prefetch probabilities by at most the
/// per-matrix `quantization_error` bound, so only near-threshold decisions
/// can flip: totals must match exactly and hit/prefetch counts must stay
/// within a few percent of the f32 plane's.
#[test]
fn quantized_background_session_tracks_f32_counts() {
    let (trace, trained, capacity) = trained_setup();
    let input_len = trained.caching.config().input_len;

    let run = |precision: GuidancePrecision| {
        let session = SessionBuilder::new()
            .workers(1)
            .guidance(GuidanceMode::Background {
                threads: 1,
                max_lag: 64,
                max_batch: 16,
            })
            .admission(AdmissionPolicy::unbounded())
            .build(
                recmg_repro::core::SystemBuilder::from_trained(&trained)
                    .capacity(capacity)
                    .precision(precision)
                    .build(),
            );
        for (i, chunk) in trace.accesses().chunks(input_len).enumerate() {
            session
                .submit(Request {
                    id: i as u64,
                    keys: chunk.to_vec(),
                    arrival: Duration::ZERO,
                    deadline: None,
                    tenant: 0,
                })
                .expect("unbounded admission");
            while session.completed_requests() < (i + 1) as u64 || session.plane_pending() > 0 {
                std::thread::yield_now();
            }
        }
        session.drain()
    };
    let (fsys, f) = run(GuidancePrecision::F32);
    let (qsys, q) = run(GuidancePrecision::Int8);

    assert!(!fsys.guidance_models_quantized());
    assert!(qsys.guidance_models_quantized());
    assert!(
        !f.engine.plane.kernel_lane.ends_with("+int8"),
        "f32 lane: {}",
        f.engine.plane.kernel_lane
    );
    assert!(
        q.engine.plane.kernel_lane.ends_with("+int8"),
        "int8 lane: {}",
        q.engine.plane.kernel_lane
    );

    // Identical traffic and guidance coverage; only decision quality may
    // drift, and only by a little.
    assert_eq!(f.engine.stats.total(), q.engine.stats.total());
    assert_eq!(f.engine.guided_chunks, q.engine.guided_chunks);
    assert_eq!(f.engine.plane.chunks, q.engine.plane.chunks);
    let total = f.engine.stats.total() as f64;
    let hit_gap = (f.engine.stats.hits() as f64 - q.engine.stats.hits() as f64).abs();
    assert!(
        hit_gap <= (0.05 * total).max(8.0),
        "hit gap {hit_gap} over {total} keys (f32 {} vs int8 {})",
        f.engine.stats.hits(),
        q.engine.stats.hits()
    );
    let pf_gap = (fsys.prefetches_issued() as f64 - qsys.prefetches_issued() as f64).abs();
    let pf_base = fsys.prefetches_issued().max(1) as f64;
    assert!(
        pf_gap <= (0.10 * pf_base).max(8.0),
        "prefetch gap {pf_gap} (f32 {} vs int8 {})",
        fsys.prefetches_issued(),
        qsys.prefetches_issued()
    );
}

#[test]
fn trace_replay_session_covers_the_trace() {
    let (trace, trained, capacity) = trained_setup();
    let session = SessionBuilder::new()
        .workers(2)
        .guidance(GuidanceMode::Background {
            threads: 1,
            max_lag: 4,
            max_batch: 8,
        })
        .admission(AdmissionPolicy::unbounded())
        .sla(SlaBudget::new(Duration::from_secs(30)))
        .build(
            recmg_repro::core::SystemBuilder::from_trained(&trained)
                .shards(4)
                .capacity(capacity)
                .build(),
        );
    let mut source = TraceReplaySource::new(&trace, 10, ArrivalProcess::Immediate, 7);
    let pulled = session.ingest(&mut source);
    let (sys, report) = session.drain();
    assert_eq!(report.completed, pulled as u64);
    assert_eq!(report.engine.stats.total(), trace.len() as u64);
    assert!(sys.total_chunks() > 0);
    let sla = report.sla.expect("sla configured");
    // A 30s budget at zero offered-load pressure is always met.
    assert_eq!(sla.missed, 0);
    assert!((sla.attainment() - 1.0).abs() < 1e-9);
}

/// Stress for the plane's one lock: with `max_lag: 2` and `max_batch: 1`
/// both workers pace, and help, on nearly every chunk while one or two
/// plane threads take from the same queue. Every round must conserve
/// chunks and keys; a deadlock trips the watchdog instead of hanging the
/// suite.
#[test]
fn paced_helping_conserves_chunks_under_two_workers() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let cfg = RecMgConfig::tiny();
        let caching = recmg_repro::core::CachingModel::new(&cfg);
        let prefetch = recmg_repro::core::PrefetchModel::new(&cfg);
        let trace = SyntheticConfig::tiny(29).generate();
        let accesses = trace.accesses();
        for threads in [1, 2] {
            for round in 0..120usize {
                let codec = recmg_repro::core::FrequencyRankCodec::from_accesses(&accesses[..500]);
                let system = ShardedRecMgSystem::builder(&caching, Some(&prefetch), codec)
                    .shards(4)
                    .capacity(64)
                    .build();
                let session = SessionBuilder::new()
                    .workers(2)
                    .guidance(GuidanceMode::Background {
                        threads,
                        max_lag: 2,
                        max_batch: 1,
                    })
                    .admission(AdmissionPolicy::unbounded())
                    .build(system);
                let start = (round * 97) % (accesses.len() - 800);
                let requests: Vec<Vec<VectorKey>> = accesses[start..start + 800]
                    .chunks(40)
                    .map(<[VectorKey]>::to_vec)
                    .collect();
                session.ingest(&mut BatchSource::from_vecs(requests));
                let (sys, report) = session.drain();
                assert_eq!(
                    sys.guided_chunks() + sys.unguided_chunks(),
                    sys.total_chunks(),
                    "{threads} threads, round {round}: a chunk was counted twice or not at all"
                );
                assert_eq!(
                    report.engine.plane.chunks, report.engine.guided_chunks,
                    "{threads} threads, round {round}: plane output not applied"
                );
                assert_eq!(
                    report.engine.stats.total(),
                    800,
                    "{threads} threads, round {round}: keys served"
                );
            }
        }
        done_tx.send(()).expect("watchdog alive");
    });
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("paced helping deadlocked or panicked");
}

fn key_strategy() -> impl Strategy<Value = VectorKey> {
    (0u32..16, 0u64..512).prop_map(|(t, r)| VectorKey::new(TableId(t), RowId(r)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Admission control never drops a request whose deadline is
    /// satisfiable at zero load: with an empty queue, enough queue depth,
    /// and a deadline far beyond the service time, every request must be
    /// admitted, served, and completed within its deadline.
    #[test]
    fn zero_load_satisfiable_deadlines_are_never_dropped(
        requests in prop::collection::vec(
            prop::collection::vec(key_strategy(), 1..60),
            1..12,
        ),
        num_shards in 1usize..5,
    ) {
        let cfg = RecMgConfig::tiny();
        let caching = recmg_repro::core::CachingModel::new(&cfg);
        let codec = recmg_repro::core::FrequencyRankCodec::from_accesses(
            &[VectorKey::new(TableId(0), RowId(1))],
        );
        let system = ShardedRecMgSystem::builder(&caching, None, codec)
            .shards(num_shards)
            .capacity(64)
            .build();
        let session = SessionBuilder::new()
            .workers(1)
            .guidance(GuidanceMode::Inline)
            .admission(AdmissionPolicy {
                queue_depth: 64, // >= the request count: zero-load queue never fills
                ..AdmissionPolicy::default()
            })
            .build(system);
        let total_keys: usize = requests.iter().map(Vec::len).sum();
        for (i, keys) in requests.iter().enumerate() {
            let got = session.submit(Request {
                id: i as u64,
                keys: keys.clone(),
                arrival: Duration::ZERO,
                deadline: Some(Duration::from_secs(60)),
                tenant: 0,
            });
            prop_assert_eq!(got, Ok(()), "zero-load submit {} must be admitted", i);
        }
        let (_sys, report) = session.drain();
        prop_assert_eq!(report.submitted, requests.len() as u64);
        prop_assert_eq!(report.completed, requests.len() as u64);
        prop_assert_eq!(report.rejected_queue_full, 0);
        prop_assert_eq!(report.rejected_deadline, 0);
        prop_assert_eq!(report.shed_in_queue, 0);
        prop_assert_eq!(report.shed_rate(), 0.0);
        prop_assert_eq!(report.engine.stats.total(), total_keys as u64);
    }

    /// Per-tenant shed accounting keeps the conservation law exact under
    /// admission pressure: for every tenant, completed + rejected_queue +
    /// rejected_deadline + shed_in_queue == submitted, and the per-tenant
    /// counters sum to the global ones — no request is double-counted or
    /// lost, whatever mix of quotas, blown deadlines, and queue pressure
    /// the generator throws at the session.
    #[test]
    fn tenant_shed_accounting_is_exactly_conserved(
        per_tenant in prop::collection::vec(
            prop::collection::vec(
                (prop::collection::vec(key_strategy(), 1..20), 0u32..4),
                1..16,
            ),
            1..4,
        ),
        queue_depth in 1usize..8,
    ) {
        let cfg = RecMgConfig::tiny();
        let caching = recmg_repro::core::CachingModel::new(&cfg);
        let codec = recmg_repro::core::FrequencyRankCodec::from_accesses(
            &[VectorKey::new(TableId(0), RowId(1))],
        );
        let system = ShardedRecMgSystem::builder(&caching, None, codec)
            .shards(2)
            .capacity(64)
            .build();
        let tenants: Vec<TenantSpec> = per_tenant
            .iter()
            .enumerate()
            .map(|(t, _)| {
                let spec = TenantSpec::new(&format!("tenant-{t}")).with_weight(t as f64 + 1.0);
                // Odd tenants get a tight quota so some submits bounce off
                // the per-tenant cap rather than the global depth.
                if t % 2 == 1 { spec.with_quota(1) } else { spec }
            })
            .collect();
        let num_tenants = tenants.len();
        let session = SessionBuilder::new()
            .workers(1)
            .guidance(GuidanceMode::Inline)
            .admission(AdmissionPolicy {
                queue_depth,
                ..AdmissionPolicy::default()
            })
            .tenants(tenants)
            .build(system);
        let mut id = 0u64;
        for (t, requests) in per_tenant.iter().enumerate() {
            for (keys, blown) in requests {
                // blown == 0 submits an already-expired deadline (rejected
                // at submit or shed in queue); others are satisfiable.
                let deadline = if *blown == 0 {
                    Some(Duration::ZERO)
                } else {
                    Some(Duration::from_secs(60))
                };
                let _ = session.submit(Request {
                    id,
                    keys: keys.clone(),
                    arrival: Duration::ZERO,
                    deadline,
                    tenant: t,
                });
                id += 1;
            }
        }
        let (_sys, report) = session.drain();
        prop_assert_eq!(report.tenants.len(), num_tenants);
        let mut sums = [0u64; 5];
        for (t, tenant) in report.tenants.iter().enumerate() {
            prop_assert_eq!(tenant.submitted, per_tenant[t].len() as u64);
            prop_assert_eq!(
                tenant.completed
                    + tenant.rejected_queue_full
                    + tenant.rejected_deadline
                    + tenant.shed_in_queue,
                tenant.submitted,
                "tenant {} leaks requests", t
            );
            sums[0] += tenant.submitted;
            sums[1] += tenant.completed;
            sums[2] += tenant.rejected_queue_full;
            sums[3] += tenant.rejected_deadline;
            sums[4] += tenant.shed_in_queue;
        }
        prop_assert_eq!(sums[0], report.submitted);
        prop_assert_eq!(sums[1], report.completed);
        prop_assert_eq!(sums[2], report.rejected_queue_full);
        prop_assert_eq!(sums[3], report.rejected_deadline);
        prop_assert_eq!(sums[4], report.shed_in_queue);
        prop_assert_eq!(
            report.completed + report.rejected_queue_full + report.rejected_deadline
                + report.shed_in_queue,
            report.submitted
        );
    }

    /// The batch-backed source is lossless: every key of every batch comes
    /// back out, in order, with arrival offset zero.
    #[test]
    fn batch_source_is_lossless(
        batches in prop::collection::vec(
            prop::collection::vec(key_strategy(), 0..40),
            0..10,
        ),
    ) {
        let refs: Vec<&[VectorKey]> = batches.iter().map(Vec::as_slice).collect();
        let mut src = BatchSource::new(&refs);
        let mut seen = Vec::new();
        while let Some(req) = src.next_request() {
            prop_assert_eq!(req.arrival, Duration::ZERO);
            seen.push(req.keys);
        }
        prop_assert_eq!(seen, batches);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chunk accounting is conserved in every guidance mode: after a
    /// drained session (or a sequential `process_batch` run) every chunk
    /// formed was counted exactly once, guided or unguided; chunks form
    /// per shard from the keys routed there; everything the plane computed
    /// was applied; and every offered key was served.
    #[test]
    fn chunk_accounting_is_conserved_in_every_mode(
        requests in prop::collection::vec(
            prop::collection::vec(key_strategy(), 0..60),
            1..12,
        ),
    ) {
        let cfg = RecMgConfig::tiny();
        let caching = recmg_repro::core::CachingModel::new(&cfg);
        let prefetch = recmg_repro::core::PrefetchModel::new(&cfg);
        let build = |stride: usize| {
            let codec = recmg_repro::core::FrequencyRankCodec::from_accesses(
                &[VectorKey::new(TableId(0), RowId(1))],
            );
            let mut system = ShardedRecMgSystem::builder(&caching, Some(&prefetch), codec)
                .shards(2)
                .capacity(64)
                .build();
            system.set_guidance_stride(stride);
            system
        };
        let offered: usize = requests.iter().map(Vec::len).sum();
        let router = build(1).router();
        let mut routed = [0usize; 2];
        for key in requests.iter().flatten() {
            routed[router.shard_of(*key)] += 1;
        }
        let expected_chunks: u64 = routed.iter().map(|&n| (n / cfg.input_len) as u64).sum();
        let conserved = |sys: &ShardedRecMgSystem, served: u64, mode: &str| {
            prop_assert_eq!(
                sys.guided_chunks() + sys.unguided_chunks(),
                sys.total_chunks(),
                "{}: a chunk was counted twice or not at all", mode
            );
            prop_assert_eq!(sys.total_chunks(), expected_chunks, "{}: chunks formed", mode);
            prop_assert_eq!(served, offered as u64, "{}: keys served", mode);
        };

        let background = |max_lag: usize, max_batch: usize| GuidanceMode::Background {
            threads: 1,
            max_lag,
            max_batch,
        };
        // An SLA whose thresholds sit at zero queue wait: every request is
        // served degraded (stale guidance only).
        let always_degraded = SlaBudget {
            target: Duration::from_nanos(1),
            skip_ahead_at: 0.0,
            prefetch_off_at: 0.0,
        };
        let modes = [
            ("inline stride 1", 1, GuidanceMode::Inline, None),
            ("inline stride 3", 3, GuidanceMode::Inline, None),
            ("background max_lag 0", 1, background(0, 16), None),
            ("background max_lag 2", 1, background(2, 2), None),
            ("degraded inline", 1, GuidanceMode::Inline, Some(always_degraded)),
            ("degraded background", 1, background(2, 2), Some(always_degraded)),
        ];
        for (mode, stride, guidance, sla) in modes {
            let mut builder = SessionBuilder::new()
                .workers(1)
                .guidance(guidance)
                .admission(AdmissionPolicy::unbounded());
            if let Some(sla) = sla {
                builder = builder.sla(sla);
            }
            let session = builder.build(build(stride));
            session.ingest(&mut BatchSource::from_vecs(requests.clone()));
            let (sys, report) = session.drain();
            conserved(&sys, report.engine.stats.total(), mode);
            prop_assert_eq!(report.engine.total_chunks, expected_chunks, "{}", mode);
            prop_assert_eq!(report.engine.guided_chunks, sys.guided_chunks(), "{}", mode);
            if matches!(guidance, GuidanceMode::Background { .. }) {
                prop_assert_eq!(
                    report.engine.plane.chunks,
                    report.engine.guided_chunks,
                    "{}: plane output not applied", mode
                );
            }
            if sla.is_some() || mode == "background max_lag 0" {
                prop_assert_eq!(sys.guided_chunks(), 0, "{}", mode);
            }
        }

        // The sequential path runs the same loop.
        let mut sys = build(3);
        let mut stats = BatchAccessStats::default();
        for keys in &requests {
            stats.accumulate(sys.process_batch(keys));
        }
        conserved(&sys, stats.total(), "process_batch stride 3");
    }
}
