//! Live-migration correctness: rebalancing without a drain is invisible
//! to serving results, and demand counts are conserved exactly while
//! shards move under concurrent load.
//!
//! These oracles pin the subsystem:
//!
//! * **1-shard parity**: a session that live-migrates its only shard
//!   between tiers after every batch (the quiescent shard move under the
//!   shard mutex: residents kept, rows rebuilt on the destination)
//!   produces byte-identical hit/miss/prefetch counts to the sequential
//!   system — migration moves vectors, never results. The capacity is
//!   sized to the trace's unique-key footprint so residency membership
//!   (which the move preserves exactly) is the only thing that matters,
//!   independent of eviction tie-breaking.
//! * **Conservation under concurrency**: workers hammer all shards while
//!   the main thread flips tiers and toggles replicas mid-flight; every
//!   submitted key is served exactly once (no lost or duplicated hits),
//!   pinned both as a stress test and as a property over random key
//!   streams.
//! * **Replica freshness**: a fast-tier replica re-prices hits of a
//!   slow-tier shard (cost refund, counts untouched), and its entries
//!   decay once the route-epoch clock outruns the TTL — decayed entries
//!   count as invalidations and must be re-filled before serving again.
//! * **Storage hygiene**: a migration stress over file-backed tiers swaps
//!   shard storage (the shard-move commit) on every tier flip; once the
//!   session drains and the system drops, every `mmap`/file backing
//!   object must be gone — no leaked fds or temp files.
//! * **One shard move**: a quiescent `rebalance()` and a live migration
//!   to the same placements leave every shard with the same tier,
//!   capacity, residents, rows and charged cost.
//! * **Bad input**: an out-of-range tier panics before any shard is
//!   locked, so the session keeps serving and drains cleanly.

use std::collections::HashSet;
use std::time::Duration;

use proptest::prelude::*;

use recmg_repro::core::{
    live_backend_files, synth_row, train_recmg, AdmissionPolicy, BackendSpec, CachingModel,
    FrequencyRankCodec, GuidanceMode, LiveRebalanceConfig, MemoryTier, PlacementPolicy,
    RecMgConfig, Request, SessionBuilder, ShardPlacement, ShardedRecMgSystem, SystemBuilder,
    TierCost, TierTopology, TierTraffic, TrainOptions, ROW_BYTES,
};
use recmg_repro::dlrm::{BatchAccessStats, BufferManager};
use recmg_repro::trace::{RowId, SyntheticConfig, TableId, TraceStats, VectorKey};

/// A live config with every automatic trigger disabled: migrations and
/// replicas move only when a test says so.
fn manual_live() -> LiveRebalanceConfig {
    LiveRebalanceConfig {
        min_new_accesses: 0,
        phase_threshold: None,
        ..LiveRebalanceConfig::default()
    }
}

fn untrained_system(shards: usize, fast: usize, slow: usize) -> ShardedRecMgSystem {
    let cfg = RecMgConfig::tiny();
    let caching = CachingModel::new(&cfg);
    let codec = FrequencyRankCodec::from_accesses(&[VectorKey::new(TableId(0), RowId(1))]);
    SystemBuilder::new(&caching, None, codec)
        .shards(shards)
        .topology(TierTopology::two_tier(fast, slow))
        .guidance(GuidanceMode::Inline)
        .build()
}

fn request(id: u64, keys: Vec<VectorKey>) -> Request {
    Request {
        id,
        keys,
        arrival: Duration::ZERO,
        deadline: None,
        tenant: 0,
    }
}

/// Live tier migration after every batch is invisible to results: the
/// session matches the sequential system's counts exactly, while the
/// migration report proves the shard really moved.
#[test]
fn one_shard_live_migration_matches_sequential_results_exactly() {
    let cfg = RecMgConfig::tiny();
    let trace = SyntheticConfig::tiny(211).generate();
    // Capacity covers the whole key space: residency membership (which
    // the move preserves exactly) fully determines hit/miss.
    let capacity = TraceStats::compute(&trace).buffer_capacity(100.0);
    let trained = train_recmg(
        &trace.accesses()[..trace.len() / 2],
        &cfg,
        capacity,
        &TrainOptions::tiny(),
    );
    let topology = TierTopology::two_tier(capacity, capacity);

    let mut reference = SystemBuilder::from_trained(&trained)
        .topology(topology.clone())
        .build();
    let mut ref_stats = BatchAccessStats::default();
    for batch in trace.batches(10) {
        ref_stats.accumulate(reference.process_batch(batch));
    }

    let subject = SystemBuilder::from_trained(&trained)
        .topology(topology)
        .build();
    let shard_capacity = subject.capacity();
    let session = SessionBuilder::new()
        .workers(1)
        .guidance(GuidanceMode::Inline)
        .admission(AdmissionPolicy::unbounded())
        .live(manual_live())
        .build(subject);

    let mut flips = 0u64;
    for (i, batch) in trace.batches(10).iter().enumerate() {
        session
            .submit(request(i as u64, batch.to_vec()))
            .expect("unbounded admission");
        while session.completed_requests() < (i + 1) as u64 {
            std::thread::yield_now();
        }
        // Quiesced between batches: bounce the shard to the other tier.
        let committed = session.migrate_shard(
            0,
            ShardPlacement {
                capacity: shard_capacity,
                tier: (flips as usize + 1) % 2,
            },
        );
        assert!(committed, "manual migration commits");
        flips += 1;
    }
    let (system, report) = session.drain();

    assert_eq!(report.engine.stats, ref_stats, "migration changed results");
    assert_eq!(system.prefetches_issued(), reference.prefetches_issued());
    assert_eq!(report.engine.migration.migrations, flips);
    assert_eq!(report.engine.migration.route_epoch, flips);
    assert!(report.engine.migration.migration_cost_ns > 0);
    // Odd number of batches left the shard wherever the last flip put it.
    assert_eq!(system.shard_tier(0), (flips as usize) % 2);
}

/// Workers hammer every shard while the main thread flips tiers and
/// toggles replicas mid-flight: every submitted key is served exactly
/// once — totals conserve with zero lost or duplicated hits.
#[test]
fn concurrent_migrations_and_replicas_conserve_every_access() {
    const REQUESTS: u64 = 200;
    const KEYS_PER_REQUEST: usize = 32;

    let system = untrained_system(4, 64, 192);
    let shard_caps: Vec<usize> = (0..4).map(|i| system.shard_buffer(i).capacity()).collect();
    let session = SessionBuilder::new()
        .workers(4)
        .guidance(GuidanceMode::Inline)
        .admission(AdmissionPolicy::unbounded())
        .live(manual_live())
        .build(system);

    for id in 0..REQUESTS {
        let keys = (0..KEYS_PER_REQUEST)
            .map(|i| {
                VectorKey::new(
                    TableId((id as u32 + i as u32) % 8),
                    RowId((id * 37 + i as u64 * 11) % 96),
                )
            })
            .collect();
        session
            .submit(request(id, keys))
            .expect("unbounded admission");
    }

    // Flip routes while the workers chew through the queue.
    let mut flips = 0u64;
    let mut replica_on = false;
    while session.completed_requests() < REQUESTS {
        let sid = (flips % 4) as usize;
        session.migrate_shard(
            sid,
            ShardPlacement {
                capacity: shard_caps[sid],
                tier: (flips / 4).is_multiple_of(2) as usize,
            },
        );
        session.replicate_shard(2, if replica_on { 0 } else { 16 });
        replica_on = !replica_on;
        flips += 1;
    }
    let (system, report) = session.drain();

    let total = REQUESTS * KEYS_PER_REQUEST as u64;
    assert_eq!(report.completed, REQUESTS);
    assert_eq!(
        report.engine.stats.total(),
        total,
        "lost or duplicated accesses under route flips"
    );
    assert_eq!(
        system.demand_accesses(),
        total,
        "shard demand counters drifted from served totals"
    );
    assert_eq!(report.engine.migration.migrations, flips);
    assert!(report.engine.migration.route_epoch > 0);
}

/// Migration stress over file-backed tiers: every route flip swaps the
/// shard's storage onto the destination tier's backend through the
/// shard-move commit. Conservation still holds, the surviving storage is
/// readable, and — once the session drains and the system drops — every
/// backing file is gone.
#[test]
fn file_backed_migration_stress_leaks_no_backing_files() {
    const REQUESTS: u64 = 120;
    const KEYS_PER_REQUEST: usize = 24;

    let baseline = live_backend_files();
    {
        let cfg = RecMgConfig::tiny();
        let caching = CachingModel::new(&cfg);
        let codec = FrequencyRankCodec::from_accesses(&[VectorKey::new(TableId(0), RowId(1))]);
        // DRAM + mapped-file + file rungs with injected costs (no
        // calibration: this test is about storage lifetime, not timing).
        let topology = TierTopology::new(vec![
            MemoryTier::dram(48),
            MemoryTier::new("mapped_file", 96, TierCost::cxl_like())
                .with_backend(BackendSpec::MappedFile),
            MemoryTier::new("file", 144, TierCost::synthetic(2_000, 12_000, 5_000))
                .with_backend(BackendSpec::File),
        ]);
        let system = SystemBuilder::new(&caching, None, codec)
            .shards(3)
            .topology(topology)
            .guidance(GuidanceMode::Inline)
            .build();
        let shard_caps: Vec<usize> = (0..3).map(|i| system.shard_buffer(i).capacity()).collect();
        let session = SessionBuilder::new()
            .workers(3)
            .guidance(GuidanceMode::Inline)
            .admission(AdmissionPolicy::unbounded())
            .live(manual_live())
            .build(system);

        for id in 0..REQUESTS {
            let keys = (0..KEYS_PER_REQUEST)
                .map(|i| {
                    VectorKey::new(
                        TableId((id as u32 + i as u32) % 6),
                        RowId((id * 31 + i as u64 * 7) % 80),
                    )
                })
                .collect();
            session
                .submit(request(id, keys))
                .expect("unbounded admission");
        }

        // Walk every shard through every rung while workers serve.
        let mut flips = 0u64;
        while session.completed_requests() < REQUESTS {
            let sid = (flips % 3) as usize;
            session.migrate_shard(
                sid,
                ShardPlacement {
                    capacity: shard_caps[sid],
                    tier: ((flips / 3) % 3) as usize,
                },
            );
            flips += 1;
        }
        let (system, report) = session.drain();

        assert_eq!(report.completed, REQUESTS);
        assert_eq!(
            report.engine.stats.total(),
            REQUESTS * KEYS_PER_REQUEST as u64,
            "lost or duplicated accesses under file-backed route flips"
        );
        assert_eq!(report.engine.migration.migrations, flips);
        // Surviving storage is live and readable on whatever backend each
        // shard landed on.
        for sid in 0..3 {
            let buffer = system.shard_recmg_buffer(sid);
            for key in buffer.buffer().keys() {
                assert!(
                    buffer.read_row(key).is_some(),
                    "shard {sid}: resident key lost its row after migrations"
                );
            }
        }
    }
    assert_eq!(
        live_backend_files(),
        baseline,
        "migration storage swaps leaked backing files"
    );
}

/// A fast-tier replica on a slow-tier shard re-prices hits without
/// touching counts, and its entries decay once the route-epoch clock
/// outruns the TTL: decayed probes count as invalidations and force a
/// re-fill before the replica serves again.
#[test]
fn replica_hits_save_cost_and_decay_past_ttl() {
    let system = untrained_system(1, 16, 240);
    let shard_capacity = system.capacity();
    let session = SessionBuilder::new()
        .workers(1)
        .guidance(GuidanceMode::Inline)
        .admission(AdmissionPolicy::unbounded())
        .live(manual_live())
        .build(system);

    // Home the shard on the slow tier, then give it a small fast-tier
    // replica for its celebrity keys.
    assert!(session.migrate_shard(
        0,
        ShardPlacement {
            capacity: shard_capacity,
            tier: 1,
        }
    ));
    assert!(session.replicate_shard(0, 8));

    let hot: Vec<VectorKey> = (0..8)
        .map(|r| VectorKey::new(TableId(0), RowId(r)))
        .collect();
    let mut next_id = 0u64;
    let mut serve_hot = |rounds: u64| {
        for _ in 0..rounds {
            session
                .submit(request(next_id, hot.clone()))
                .expect("unbounded admission");
            next_id += 1;
            while session.completed_requests() < next_id {
                std::thread::yield_now();
            }
        }
    };

    // Round 1 faults the keys in (replica untouched); round 2 nominates
    // them (two-touch admission), round 3 fills, round 4 serves from the
    // replica.
    serve_hot(4);

    // Advance the epoch clock past the replica TTL (default policy: 8
    // epochs): every replica entry is now stale.
    for _ in 0..9 {
        session.refresh_routes();
    }
    // First post-decay round invalidates + re-nominates, the second
    // re-fills, the third hits again.
    serve_hot(3);

    let (_, report) = session.drain();
    // One migration + one replica install + nine refreshes.
    assert_eq!(report.engine.migration.route_epoch, 11);
    let replication = report.engine.replication;
    assert_eq!(replication.replicated_shards, 1);
    assert!(
        replication.replica_fills >= 16,
        "initial fill + post-decay re-fill: {replication:?}"
    );
    assert!(
        replication.invalidations >= 8,
        "decayed entries must count as invalidations: {replication:?}"
    );
    assert!(replication.replica_hits > 0);
    assert!(replication.saved_cost_ns > 0, "fast-tier refund missing");
    assert!(replication.replica_cost_ns > 0, "fills are not free");
    // Counts stay canonical: every access of every round is accounted.
    assert_eq!(report.engine.stats.total(), next_id * hot.len() as u64);
}

/// A placement script: `before` until the policy has observations,
/// `after` from then on.
#[derive(Debug)]
struct Scripted {
    before: Vec<ShardPlacement>,
    after: Vec<ShardPlacement>,
}

impl PlacementPolicy for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn place(&self, _: usize, _: &TierTopology, stats: &[TierTraffic]) -> Vec<ShardPlacement> {
        if stats.iter().all(|t| t.demand() == 0) {
            self.before.clone()
        } else {
            self.after.clone()
        }
    }
}

/// The two re-placement paths end in the same shard move: a quiescent
/// `rebalance()` and a live migration leave every shard on the same tier,
/// at the same capacity, with the same residents and rows, having charged
/// the same cost.
#[test]
fn live_and_quiescent_moves_agree() {
    let place = |capacity, tier| ShardPlacement { capacity, tier };
    // Every shard changes tier, and each destination holds all the
    // residents its source buffer can have.
    let script = || Scripted {
        before: vec![place(24, 0), place(24, 1)],
        after: vec![place(40, 1), place(24, 0)],
    };
    let build = || {
        let cfg = RecMgConfig::tiny();
        let caching = CachingModel::new(&cfg);
        let codec = FrequencyRankCodec::from_accesses(&[VectorKey::new(TableId(0), RowId(1))]);
        SystemBuilder::new(&caching, None, codec)
            .shards(2)
            .topology(TierTopology::two_tier(64, 64))
            .placement(script())
            .guidance(GuidanceMode::Inline)
            .build()
    };
    let batches: Vec<Vec<VectorKey>> = (0..40u64)
        .map(|b| {
            (0..16u64)
                .map(|i| VectorKey::new(TableId((i % 3) as u32), RowId((b * 7 + i * 5) % 120)))
                .collect()
        })
        .collect();

    let mut in_place = build();
    for batch in &batches {
        in_place.process_batch(batch);
    }
    assert!(in_place.rebalance());

    let session = SessionBuilder::new()
        .workers(1)
        .guidance(GuidanceMode::Inline)
        .admission(AdmissionPolicy::unbounded())
        .live(manual_live())
        .build(build());
    for (id, batch) in batches.iter().enumerate() {
        session
            .submit(request(id as u64, batch.clone()))
            .expect("unbounded admission");
    }
    while session.completed_requests() < batches.len() as u64 {
        std::thread::yield_now();
    }
    for (sid, placement) in script().after.into_iter().enumerate() {
        assert!(
            session.migrate_shard(sid, placement),
            "quiesced move commits"
        );
    }
    let (live, _) = session.drain();

    for sid in 0..2 {
        assert_eq!(in_place.shard_tier(sid), 1 - sid, "shard {sid} moved");
        assert_eq!(in_place.shard_tier(sid), live.shard_tier(sid));
        let (a, b) = (in_place.shard_buffer(sid), live.shard_buffer(sid));
        assert_eq!(a.capacity(), b.capacity());
        assert!(!a.is_empty());
        let residents = |buffer: &recmg_repro::cache::GpuBuffer| -> HashSet<VectorKey> {
            buffer.keys().collect()
        };
        assert_eq!(residents(a), residents(b), "shard {sid} residents");
        assert_eq!(
            in_place.shard_traffic(sid).cost_ns,
            live.shard_traffic(sid).cost_ns,
            "shard {sid} charge"
        );
        for system in [&in_place, &live] {
            let buffer = system.shard_recmg_buffer(sid);
            for key in buffer.buffer().keys() {
                let mut want = [0u8; ROW_BYTES];
                synth_row(key, &mut want);
                assert_eq!(buffer.read_row(key), Some(want));
            }
        }
    }
}

/// An out-of-range tier panics before the shard is locked: the shard is
/// not poisoned, so the next request is served and the session drains.
#[test]
fn migrate_shard_rejects_a_bad_tier_without_poisoning_the_shard() {
    let system = untrained_system(1, 16, 48);
    let capacity = system.capacity();
    let session = SessionBuilder::new()
        .workers(1)
        .guidance(GuidanceMode::Inline)
        .admission(AdmissionPolicy::unbounded())
        .live(manual_live())
        .build(system);

    let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session.migrate_shard(0, ShardPlacement { capacity, tier: 9 })
    }));
    assert!(bad.is_err(), "an out-of-range tier must panic");

    let keys = (0..8)
        .map(|r| VectorKey::new(TableId(0), RowId(r)))
        .collect();
    session
        .submit(request(0, keys))
        .expect("unbounded admission");
    let (_, report) = session.drain();
    assert_eq!(report.completed, 1);
    assert_eq!(report.engine.migration.migrations, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Demand-count conservation is exact for any key stream and shard
    /// count, with tier migrations racing the serving workers.
    #[test]
    fn demand_counts_conserve_under_live_migration(
        keys in prop::collection::vec(
            (0u32..8, 0u64..256).prop_map(|(t, r)| VectorKey::new(TableId(t), RowId(r))),
            20..400,
        ),
        shards in 1usize..4,
    ) {
        let system = untrained_system(shards, 32, 96);
        let shard_caps: Vec<usize> =
            (0..shards).map(|i| system.shard_buffer(i).capacity()).collect();
        let session = SessionBuilder::new()
            .workers(2)
            .guidance(GuidanceMode::Inline)
            .admission(AdmissionPolicy::unbounded())
            .live(manual_live())
            .build(system);

        let mut submitted = 0u64;
        let mut total_keys = 0u64;
        for chunk in keys.chunks(20) {
            session
                .submit(request(submitted, chunk.to_vec()))
                .expect("unbounded admission");
            submitted += 1;
            total_keys += chunk.len() as u64;
        }
        let mut flips = 0u64;
        loop {
            let done = session.completed_requests() >= submitted;
            let sid = (flips % shards as u64) as usize;
            session.migrate_shard(
                sid,
                ShardPlacement {
                    capacity: shard_caps[sid],
                    tier: (flips / shards as u64).is_multiple_of(2) as usize,
                },
            );
            flips += 1;
            if done {
                break;
            }
        }
        let (system, report) = session.drain();
        prop_assert_eq!(report.completed, submitted);
        prop_assert_eq!(report.engine.stats.total(), total_keys);
        prop_assert_eq!(system.demand_accesses(), total_keys);
        prop_assert_eq!(report.engine.migration.migrations, flips);
    }
}
