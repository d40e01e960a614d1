//! Zero-quiescence rebalancing: a serving session that re-places and
//! resizes its shards *while requests are in flight*.
//!
//! An 8-shard system over a DRAM + CXL-like topology serves a phase-flip
//! workload: a skewed hot set (3:2:1 across three shards) that moves to
//! three different shards halfway through. Two sessions serve the exact
//! same stream:
//!
//! * `static` — placement frozen at its cold-start guess;
//! * `live`   — the session's live rebalancer
//!   ([`SessionBuilder::live`]) watches the per-shard sketches and,
//!   on count/phase-trigger fires, moves shards to better
//!   tiers/capacities under each shard's own mutex (the quiescent shard
//!   move, no drain).
//!
//! Every copy the migrator makes is charged into the same hit-weighted
//! cost counters the serving path uses, so the comparison is honest: the
//! live session pays for its own migrations.
//!
//! Run with: `cargo run --release --example live_rebalance`

use recmg_repro::core::{
    AdmissionPolicy, BatchSource, CachingModel, CardinalityWorkingSet, ClosedLoopSource,
    FrequencyRankCodec, GuidanceMode, LiveRebalanceConfig, MemoryTier, RecMgConfig, SessionBuilder,
    ShardRouter, ShardedRecMgSystem, SketchConfig, SystemBuilder, TierCost, TierTopology,
};
use recmg_repro::trace::{RowId, TableId, VectorKey};

const SHARDS: usize = 8;
const BATCHES_PER_PHASE: usize = 100;
const EPOCH: u64 = 128;

/// Keys homed on one shard, found by walking row ids through the router.
fn keys_on_shard(router: &ShardRouter, shard: usize, n: usize, salt: u64) -> Vec<VectorKey> {
    (0..)
        .map(|i| VectorKey::new(TableId(1), RowId(salt + i as u64)))
        .filter(|&k| router.shard_of(k) == shard)
        .take(n)
        .collect()
}

/// One phase: 60-key batches, 2/3 cycling a skewed hot set homed on
/// `targets` (30/20/10 keys), 1/3 cycling a 100-key background tail.
fn phase(targets: [usize; 3], salt: u64) -> Vec<Vec<VectorKey>> {
    let router = ShardRouter::new(SHARDS);
    let hot: Vec<VectorKey> = targets
        .iter()
        .zip([30usize, 20, 10])
        .flat_map(|(&t, n)| keys_on_shard(&router, t, n, salt))
        .collect();
    let bg: Vec<VectorKey> = (0..100)
        .map(|i| VectorKey::new(TableId(2), RowId(i)))
        .collect();
    (0..BATCHES_PER_PHASE)
        .map(|round| {
            let mut keys = Vec::with_capacity(60);
            for i in 0..40 {
                keys.push(hot[(round * 40 + i) % hot.len()]);
            }
            for i in 0..20 {
                keys.push(bg[(round * 20 + i) % bg.len()]);
            }
            keys
        })
        .collect()
}

fn build_system(caching: &CachingModel, codec_keys: &[VectorKey]) -> ShardedRecMgSystem {
    let topology = TierTopology::new(vec![
        MemoryTier::dram(96),
        MemoryTier::new("cxl", 160, TierCost::cxl_like()),
    ]);
    SystemBuilder::new(caching, None, FrequencyRankCodec::from_accesses(codec_keys))
        .shards(SHARDS)
        .topology(topology)
        .placement(CardinalityWorkingSet::with_floor(20))
        .guidance(GuidanceMode::Inline)
        .sketch(SketchConfig {
            epoch_len: EPOCH,
            window_epochs: 4,
            ..SketchConfig::default()
        })
        .build()
}

fn main() {
    let phase_a = phase([0, 1, 2], 0);
    let phase_b = phase([5, 6, 7], 1_000_000);
    let stream: Vec<Vec<VectorKey>> = phase_a.iter().chain(phase_b.iter()).cloned().collect();
    let accesses_per_phase = (BATCHES_PER_PHASE * 60) as u64;

    let cfg = RecMgConfig::tiny();
    let caching = CachingModel::new(&cfg);
    let codec_keys = phase_a.concat();

    println!(
        "phase-flip stream: {} batches x 60 keys, hot set flips shards {{0,1,2}} -> {{5,6,7}}\n",
        stream.len()
    );

    for live in [false, true] {
        let mut builder = SessionBuilder::new()
            .workers(2)
            .guidance(GuidanceMode::Inline)
            .admission(AdmissionPolicy::unbounded());
        if live {
            builder = builder.live(
                LiveRebalanceConfig::default()
                    .with_min_new_accesses(accesses_per_phase / 2)
                    .with_cooldown(2 * EPOCH),
            );
        }
        let session = builder.build(build_system(&caching, &codec_keys));
        let mut source = ClosedLoopSource::new(
            BatchSource::from_vecs(stream.clone()),
            2,
            session.progress(),
        );
        session.ingest(&mut source);
        let (sys, report) = session.drain();

        let cost_ns: u64 = (0..sys.num_shards())
            .map(|i| sys.shard_traffic(i).cost_ns)
            .sum();
        let tag = if live { "live" } else { "static" };
        println!(
            "{tag:<8} cost {:.3}ms  p99 {:.3}ms  hit rate {:.2}%",
            cost_ns as f64 / 1e6,
            report.latency.p99.as_secs_f64() * 1e3,
            report.engine.stats.hit_rate() * 100.0,
        );
        if live {
            let m = &report.engine.migration;
            println!(
                "         {} migrations, {} resizes, {:.3}ms charged fill cost",
                m.migrations,
                m.resizes,
                m.migration_cost_ns as f64 / 1e6,
            );
            for i in 0..sys.num_shards() {
                // The buffer guard holds the shard's lock: read the
                // capacity on its own, before the shard is read again.
                let capacity = sys.shard_buffer(i).capacity();
                let traffic = sys.shard_traffic(i);
                println!(
                    "         shard {i}: tier {} cap {capacity:>3} ({} hits / {} misses)",
                    sys.shard_tier(i),
                    traffic.hits,
                    traffic.misses,
                );
            }
        }
    }

    println!(
        "\nThe live session never drains: triggers fire mid-stream, shards are\n\
         moved to their new tier under their own mutex while the other shards\n\
         keep serving, and a request sees each shard before or after a move.\n\
         The flip's new hot shards get promoted within a sketch epoch or two,\n\
         which is where the cost gap comes from.\n\
         The serving bench's online_rebalance section runs this same scenario\n\
         against a drain-based reactive baseline: `cargo bench -p recmg-bench\n\
         --bench serving`."
    );
}
