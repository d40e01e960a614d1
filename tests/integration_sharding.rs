//! Sharding correctness: the sharded system against its sequential oracle.
//!
//! The load-bearing guarantee is **1-shard parity**: `ShardedRecMgSystem`
//! with one shard must reproduce `RecMgSystem`'s hit/miss/prefetch counts
//! *exactly* on any access stream, because the single shard runs the same
//! control flow over the same (whole) stream. The property tests then pin
//! the two facts the multi-shard case rests on: routing is a partition, and
//! per-shard statistics merge losslessly.

use proptest::prelude::*;

use recmg_repro::core::{
    train_recmg, GuidanceMode, RecMgConfig, RecMgSystem, ServeOptions, ShardRouter,
    ShardedRecMgSystem, TrainOptions,
};
use recmg_repro::dlrm::{BatchAccessStats, BufferManager};
use recmg_repro::trace::{RowId, SyntheticConfig, TableId, TraceStats, VectorKey};

fn trained_setup() -> (
    recmg_repro::trace::Trace,
    recmg_repro::core::TrainedRecMg,
    usize,
) {
    let cfg = RecMgConfig::tiny();
    let trace = SyntheticConfig::tiny(97).generate();
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
fn one_shard_matches_recmg_system_exactly() {
    let (trace, trained, capacity) = trained_setup();
    let mut reference = RecMgSystem::from_trained(&trained, capacity);
    let mut sharded = recmg_repro::core::SystemBuilder::from_trained(&trained)
        .capacity(capacity)
        .build();
    assert_eq!(sharded.name(), reference.name());
    let mut a = BatchAccessStats::default();
    let mut b = BatchAccessStats::default();
    for batch in trace.batches(10) {
        a.accumulate(reference.process_batch(batch));
    }
    for batch in trace.batches(10) {
        b.accumulate(sharded.process_batch(batch));
    }
    // Exact parity, not approximate: same cache hits, same prefetch hits,
    // same misses, same prefetch volume.
    assert_eq!(a, b);
    assert_eq!(reference.prefetches_issued(), sharded.prefetches_issued());
}

#[test]
fn one_shard_cm_only_matches_reference() {
    let (trace, trained, capacity) = trained_setup();
    let mut reference = RecMgSystem::new(&trained.caching, None, trained.codec.clone(), capacity);
    let mut sharded = ShardedRecMgSystem::builder(&trained.caching, None, trained.codec.clone())
        .capacity(capacity)
        .build();
    let mut a = BatchAccessStats::default();
    let mut b = BatchAccessStats::default();
    for batch in trace.batches(10) {
        a.accumulate(reference.process_batch(batch));
    }
    for batch in trace.batches(10) {
        b.accumulate(sharded.process_batch(batch));
    }
    assert_eq!(a, b);
    assert_eq!(b.prefetch_hits, 0);
}

#[test]
fn multi_shard_covers_trace_and_stays_competitive() {
    let (trace, trained, capacity) = trained_setup();
    let mut single = recmg_repro::core::SystemBuilder::from_trained(&trained)
        .capacity(capacity)
        .build();
    let mut sharded = recmg_repro::core::SystemBuilder::from_trained(&trained)
        .shards(4)
        .capacity(capacity)
        .build();
    let mut s1 = BatchAccessStats::default();
    let mut s4 = BatchAccessStats::default();
    for batch in trace.batches(10) {
        s1.accumulate(single.process_batch(batch));
    }
    for batch in trace.batches(10) {
        s4.accumulate(sharded.process_batch(batch));
    }
    assert_eq!(s4.total(), trace.len() as u64);
    assert_eq!(s1.total(), s4.total());
    // Hash-partitioning a skewed key space costs some hit rate versus one
    // global buffer (per-shard capacities cannot rebalance); it must stay
    // in the same regime, not collapse.
    assert!(
        s4.hit_rate() > s1.hit_rate() - 0.15,
        "sharded {:.3} vs single {:.3}",
        s4.hit_rate(),
        s1.hit_rate()
    );
}

#[test]
fn concurrent_engine_matches_totals_and_reports_guidance() {
    let (trace, trained, capacity) = trained_setup();
    let batches = trace.batches(10);
    let mut sys = recmg_repro::core::SystemBuilder::from_trained(&trained)
        .shards(4)
        .capacity(capacity)
        .build();
    let report = sys.serve(
        &batches,
        &ServeOptions {
            workers: 4,
            guidance: GuidanceMode::Background {
                threads: 2,
                max_lag: 4,
                max_batch: 8,
            },
        },
    );
    assert_eq!(report.stats.total(), trace.len() as u64);
    assert_eq!(report.batches, batches.len());
    assert!(report.total_chunks > 0);
    assert!(report.guided_fraction() >= 0.0 && report.guided_fraction() <= 1.0);
    // Every chunk is guided, skipped, or (rarely) still in flight at the
    // end of the run — never double-counted.
    assert!(report.guided_chunks + sys.unguided_chunks() <= report.total_chunks);
}

/// A run of background `serve()` calls shares one runtime and its
/// guidance plane: each call leaves the chunks the plane has not computed
/// to the next, and every chunk's guidance still lands exactly once — in
/// the call that served it, a later call, or the final settle — with no
/// call owing more than `max_lag` chunks per shard.
#[test]
fn serve_calls_share_one_runtime_and_land_every_chunk_once() {
    let (trace, trained, capacity) = trained_setup();
    let batches = trace.batches(10);
    let (shards, max_lag) = (4, 4);
    let mut sys = recmg_repro::core::SystemBuilder::from_trained(&trained)
        .shards(shards)
        .capacity(capacity)
        .build();
    let opts = ServeOptions {
        workers: 2,
        guidance: GuidanceMode::Background {
            threads: 2,
            max_lag,
            max_batch: 8,
        },
    };
    let (mut served, mut guided, mut computed) = (0, 0, 0);
    for call in batches.chunks(batches.len().div_ceil(8)) {
        let report = sys.serve(call, &opts);
        served += report.stats.total();
        guided += report.guided_chunks;
        computed += report.plane.chunks;
        assert!(report.plane.late_chunks <= (shards * max_lag) as u64);
    }
    let settled = sys.settle_guidance();
    assert_eq!(served, trace.len() as u64);
    assert_eq!(
        computed + settled.chunks,
        guided + settled.late_chunks,
        "a plane chunk was lost or counted twice"
    );
    assert_eq!(guided + settled.late_chunks, sys.guided_chunks());
    assert_eq!(
        sys.guided_chunks() + sys.unguided_chunks(),
        sys.total_chunks()
    );
}

fn key_strategy() -> impl Strategy<Value = VectorKey> {
    (0u32..16, 0u64..512).prop_map(|(t, r)| VectorKey::new(TableId(t), RowId(r)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn routing_is_a_partition(
        keys in prop::collection::vec(key_strategy(), 1..400),
        num_shards in 1usize..9,
    ) {
        let router = ShardRouter::new(num_shards);
        let parts = router.split(&keys);
        prop_assert_eq!(parts.len(), num_shards);
        // Every key lands in exactly one shard, its own.
        let total: usize = parts.iter().map(Vec::len).sum();
        prop_assert_eq!(total, keys.len());
        for (sid, part) in parts.iter().enumerate() {
            for &k in part {
                prop_assert_eq!(router.shard_of(k), sid);
            }
        }
        // Per-shard order preserves stream order (stable partition).
        for (sid, part) in parts.iter().enumerate() {
            let filtered: Vec<VectorKey> = keys
                .iter()
                .copied()
                .filter(|&k| router.shard_of(k) == sid)
                .collect();
            prop_assert_eq!(part.clone(), filtered);
        }
    }

    #[test]
    fn stats_merge_is_lossless(
        counts in prop::collection::vec((0u64..1000, 0u64..1000, 0u64..1000), 1..9),
    ) {
        let parts: Vec<BatchAccessStats> = counts
            .iter()
            .map(|&(cache_hits, prefetch_hits, misses)| BatchAccessStats {
                cache_hits,
                prefetch_hits,
                misses,
            })
            .collect();
        let merged = BatchAccessStats::merged(&parts);
        let want_hits: u64 = counts.iter().map(|c| c.0 + c.1).sum();
        let want_total: u64 = counts.iter().map(|c| c.0 + c.1 + c.2).sum();
        prop_assert_eq!(merged.hits(), want_hits);
        prop_assert_eq!(merged.total(), want_total);
    }
}
