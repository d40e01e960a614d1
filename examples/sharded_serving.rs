//! Sharded concurrent serving versus the sequential reference system.
//!
//! Trains RecMG on half a synthetic trace, then serves the whole trace
//! three ways: the sequential `RecMgSystem` oracle, the sharded system with
//! inline guidance (bitwise-identical at one shard), and the concurrent
//! engine with the background guidance plane (the paper's §VI-C
//! non-blocking skip-ahead — serving never waits for the models).
//!
//! Run with: `cargo run --release --example sharded_serving`

use recmg_repro::core::{
    train_recmg, GuidanceMode, RecMgConfig, RecMgSystem, ServeOptions, SystemBuilder, TrainOptions,
};
use recmg_repro::dlrm::{BatchAccessStats, BufferManager};
use recmg_repro::trace::{SyntheticConfig, TraceStats};

fn main() {
    let trace = SyntheticConfig::dataset_scaled(0, 0.02).generate();
    let stats = TraceStats::compute(&trace);
    let capacity = stats.buffer_capacity(20.0);
    let half = trace.len() / 2;
    println!(
        "trace: {} accesses, {} unique vectors, buffer capacity {capacity}",
        trace.len(),
        stats.unique
    );
    println!("training RecMG models on {half} accesses...");
    let trained = train_recmg(
        &trace.accesses()[..half],
        &RecMgConfig::default(),
        capacity,
        &TrainOptions::tiny(),
    );
    let batches = trace.batches(20);

    // Sequential reference.
    let mut reference = RecMgSystem::from_trained(&trained, capacity);
    let start = std::time::Instant::now();
    let mut ref_stats = BatchAccessStats::default();
    for batch in &batches {
        ref_stats.accumulate(reference.process_batch(batch));
    }
    let ref_kps = trace.len() as f64 / start.elapsed().as_secs_f64();

    // One shard, inline guidance: must match the reference exactly.
    let mut one = SystemBuilder::from_trained(&trained)
        .capacity(capacity)
        .build();
    let one_report = one.serve(
        &batches,
        &ServeOptions {
            workers: 1,
            guidance: GuidanceMode::Inline,
        },
    );
    assert_eq!(
        one_report.stats, ref_stats,
        "1-shard parity with RecMgSystem"
    );

    println!(
        "\n{:<26} {:>9} {:>12} {:>9}",
        "engine", "hit rate", "keys/sec", "guided"
    );
    println!(
        "{:<26} {:>8.2}% {:>12.0} {:>8.0}%",
        "sequential RecMgSystem",
        ref_stats.hit_rate() * 100.0,
        ref_kps,
        100.0
    );
    println!(
        "{:<26} {:>8.2}% {:>12.0} {:>8.0}%  (bit-identical to reference)",
        "sharded x1 (inline)",
        one_report.stats.hit_rate() * 100.0,
        one_report.keys_per_sec(),
        one_report.guided_fraction() * 100.0
    );

    for shards in [2usize, 4, 8] {
        let mut sys = SystemBuilder::from_trained(&trained)
            .shards(shards)
            .capacity(capacity)
            .build();
        let report = sys.serve(
            &batches,
            &ServeOptions {
                workers: shards,
                guidance: GuidanceMode::Background {
                    threads: 2,
                    max_lag: 8,
                    max_batch: 16,
                },
            },
        );
        // The plane outlives the call; land what it still owed before
        // reading the system's guidance coverage.
        sys.settle_guidance();
        println!(
            "{:<26} {:>8.2}% {:>12.0} {:>8.0}%  ({:.2}x vs sequential)",
            format!("sharded x{shards} (background)"),
            report.stats.hit_rate() * 100.0,
            report.keys_per_sec(),
            sys.guided_fraction() * 100.0,
            report.keys_per_sec() / ref_kps
        );
    }

    println!(
        "\nThe background plane never blocks serving: when the CPU cannot keep\n\
         up, chunks run on stale guidance and are counted as unguided — the\n\
         paper's skip-ahead rule (§VI-C). Hit rate holds even as guidance\n\
         coverage drops. Wall-clock scaling depends on available cores and on\n\
         how much of the serving cost is model guidance; `cargo bench -p\n\
         recmg-bench --bench serving` sweeps that regime and writes\n\
         BENCH_serving.json."
    );
}
