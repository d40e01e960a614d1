//! Tiered-memory shard placement: even split vs working-set vs hot-first.
//!
//! Trains RecMG on half a synthetic trace, then serves the whole trace on
//! a 4-shard system over a two-tier topology (a small fast DRAM tier plus
//! a large, slower CXL-like tier) under three placement policies:
//!
//! * `EvenSplit` — even capacity shares, tiers filled in shard-id order
//!   (the historical, placement-oblivious layout);
//! * `WorkingSet` — RecShard-style: capacity shares proportional to each
//!   shard's observed demand mass (with a floor), hottest shards into the
//!   fast tier;
//! * `HotFirst` — even shares, but the shards whose traffic benefits most
//!   from fast memory own the DRAM tier;
//! * `CardinalityWorkingSet` — capacity shares proportional to each
//!   shard's *sketched unique-key footprint* (a HyperLogLog working-set
//!   estimate maintained on the demand path), the signal RecShard-style
//!   placement actually wants: reuse footprint, not miss volume.
//!
//! Each run does a warm observation pass, a `Rebalancer` step (placement
//! reacts to the observed per-shard stats), then a measured pass whose
//! per-tier traffic deltas produce the hit-weighted access cost the
//! policies compete on.
//!
//! Run with: `cargo run --release --example tiered_placement`

use recmg_repro::core::{
    train_recmg, CardinalityWorkingSet, EvenSplit, GuidanceMode, HotFirst, MemoryTier, Rebalancer,
    RecMgConfig, ServeOptions, SystemBuilder, TierCost, TierTopology, TierUsage, TrainOptions,
    WorkingSet,
};
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

    // Half the budget in DRAM, half in a CXL-like slow tier. The fast tier
    // holds two of the four even shard shares — with headroom, so a
    // working-set-grown hot shard still fits in DRAM instead of falling
    // through to the slow tier (shares are sized before tiers are
    // assigned; see `WorkingSet` docs).
    let fast = capacity / 2;
    let slow = capacity.saturating_sub(fast).max(1);
    let topology = || {
        TierTopology::new(vec![
            MemoryTier::dram(fast),
            MemoryTier::new("cxl", slow.max(1), TierCost::cxl_like()),
        ])
    };
    println!(
        "topology: dram {fast} vectors + cxl {slow} vectors (hit {}ns vs {}ns)\n",
        TierCost::dram().hit_ns,
        TierCost::cxl_like().hit_ns,
    );

    println!(
        "{:<24} {:>9} {:>12} {:>14} {:>10} {:>12}",
        "placement", "hit rate", "keys/sec", "cost (ms)", "dram hits", "rebalanced"
    );
    let mut even_cost = None;
    for policy in [
        "even_split",
        "working_set",
        "cardinality_working_set",
        "hot_first",
    ] {
        let builder = SystemBuilder::from_trained(&trained)
            .shards(4)
            .topology(topology())
            .guidance(GuidanceMode::Inline);
        let mut sys = match policy {
            "even_split" => builder.placement(EvenSplit).build(),
            "working_set" => builder.placement(WorkingSet::default()).build(),
            "cardinality_working_set" => {
                builder.placement(CardinalityWorkingSet::default()).build()
            }
            _ => builder.placement(HotFirst).build(),
        };
        // Observation pass, then let the rebalancer react to the stats.
        let opts = ServeOptions {
            workers: 1,
            guidance: GuidanceMode::Inline,
        };
        sys.serve(&batches, &opts);
        let mut rebalancer = Rebalancer::new(1);
        let moved = rebalancer.maybe_rebalance(&mut sys);
        // Measured pass: the report's tier section is the per-run delta.
        let report = sys.serve(&batches, &opts);
        let cost_ms = report.access_cost_ns() as f64 / 1e6;
        let dram_hits = report
            .tiers
            .iter()
            .find(|t| t.name == "dram")
            .map_or(0, |t| t.traffic.hits);
        println!(
            "{:<24} {:>8.2}% {:>12.0} {:>14.3} {:>10} {:>12}",
            sys.placement_name(),
            report.stats.hit_rate() * 100.0,
            report.keys_per_sec(),
            cost_ms,
            dram_hits,
            if moved { "yes" } else { "no" },
        );
        if policy == "even_split" {
            even_cost = Some(TierUsage::total_cost_ns(&report.tiers));
        } else if let Some(even) = even_cost {
            let saved = 100.0 * (1.0 - report.access_cost_ns() as f64 / even.max(1) as f64);
            println!("{:<24}   -> {saved:.1}% cheaper than even_split", "");
        }
        if policy == "cardinality_working_set" {
            println!(
                "{:<24}   -> sketched footprint {} unique keys across shards",
                "", report.unique_keys,
            );
        }
    }

    println!(
        "\nPlacement never changes what is served — only how big each shard's\n\
         buffer share is and which memory tier pays for its traffic. Working-set\n\
         sizing grows hot shards' buffers (more hits overall); hot-first routing\n\
         moves the most fast-tier-profitable shards into DRAM (same hits, cheaper).\n\
         On this trace the hash router spreads unique keys evenly, so footprint\n\
         (cardinality) shares stay near even — miss mass is the better signal for\n\
         a stationary skew. Footprint sizing earns its keep when footprints\n\
         genuinely differ and when the workload *changes phase*: the\n\
         working_set_estimation section of BENCH_serving.json pairs it with the\n\
         sketch phase trigger on a hot-set flip, where it beats miss-mass +\n\
         periodic rebalancing outright.\n\
         `cargo bench -p recmg-bench --bench serving` sweeps both sections."
    );
}
