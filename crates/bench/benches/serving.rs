//! The serving policy bench: six behaviour comparisons over the sharded,
//! tiered serving system — `tier_placement`, `statistical_placement`,
//! `sdm_ladder`, `working_set_estimation`, `online_rebalance` and
//! `multi_tenant_burst`, each described at its function below — every one
//! checked against its own invariants before anything is written.
//!
//! What the system *costs* — keys/s, latency, per-layer ns — is measured
//! by `benchmark/` (see `benchmark/README.md`); this bench keeps the
//! comparisons that are claims about *policy*, stated in counted events
//! and modelled hit-weighted cost.
//!
//! Each section builds typed rows, runs its `recmg_bench::policy::check_*`
//! function on them and prints `<section> ok: …`; a violated invariant
//! exits non-zero and writes nothing, so a `BENCH_serving.json` (at the
//! workspace root, or under `RECMG_OUT`) is by construction one that
//! passed. `RECMG_SMOKE=1` shrinks every section to seconds and relaxes
//! the wall-clock-sensitive comparisons (see `policy`).

use std::path::PathBuf;
use std::time::Duration;

use rand::{rngs::StdRng, SeedableRng};
use recmg_bench::policy::{
    check_multi_tenant_burst, check_online_rebalance, check_sdm_ladder,
    check_statistical_placement, check_tier_placement, check_working_set_estimation, median_run,
    write_rows, LadderRow, PolicyRow, RebalanceRow, ScenarioRow, SpreadRow, StrategyRow,
};
use recmg_core::serving::WorkloadSpec;
use recmg_core::{
    AdmissionPolicy, ArrivalProcess, BatchSource, CachingModel, CardinalityWorkingSet,
    ClosedLoopSource, EvenSplit, FillMode, FrequencyRankCodec, GuidanceMode, HotFirst, JsonWriter,
    LiveRebalanceConfig, MarkovArrivals, PrefetchModel, Rebalancer, RecMgConfig, Request,
    RequestSource, ServeOptions, SessionBuilder, SessionReport, ShardRouter, ShardedRecMgSystem,
    SketchConfig, SlaBudget, StatisticalPlacement, SystemBuilder, TableArraySpec, TenantSpec,
    TierTopology, TierUsage, WorkingSet,
};
use recmg_dlrm::BufferManager;
use recmg_trace::{RowId, TableId, VectorKey};

/// A finished section: its JSON object, or why its invariants failed.
type Section = Result<String, String>;
/// A section: runs, checks and renders itself (`smoke` = reduced scale).
type SectionFn = fn(&Models, bool) -> Section;

/// Deterministic serving (1 worker, inline guidance): cost comes from
/// exact per-tier counters, so rows differ only by policy, never by
/// thread interleaving.
const INLINE: ServeOptions = ServeOptions {
    workers: 1,
    guidance: GuidanceMode::Inline,
};

/// Shards of every section but `sdm_ladder`.
const SHARDS: usize = 8;

/// Renders one section object: its scalar members, its methodology note,
/// then whatever `body` writes (the rows, one per line).
fn section(
    scalars: impl FnOnce(&mut JsonWriter),
    methodology: &str,
    body: impl FnOnce(&mut JsonWriter),
) -> String {
    JsonWriter::render(|w| {
        w.object(|w| {
            w.newline(4);
            scalars(w);
            w.newline(4);
            w.key("methodology").string(methodology);
            w.newline(4);
            body(w);
            w.newline(2);
        })
    })
}

/// The untrained guidance models every section serves with (the forward
/// cost and control flow are a trained model's; only the weights differ).
struct Models {
    /// Keys per request (one guidance chunk).
    input_len: usize,
    caching: CachingModel,
    prefetch: PrefetchModel,
}

impl Models {
    fn new(cfg: &RecMgConfig) -> Self {
        Models {
            input_len: cfg.input_len,
            caching: CachingModel::new(cfg),
            prefetch: PrefetchModel::new(cfg),
        }
    }

    /// A [`SHARDS`]-shard builder over a 256-vector DRAM + CXL topology
    /// with `fast` vectors of DRAM; the codec is fit to `keys`' first
    /// 2000 accesses.
    fn builder(&self, keys: &[VectorKey], fast: usize) -> SystemBuilder<'_> {
        SystemBuilder::new(&self.caching, Some(&self.prefetch), codec_of(keys))
            .shards(SHARDS)
            .topology(TierTopology::two_tier(fast, 256 - fast))
    }
}

/// Short sketch epochs, so a hot shard's window rotates within a few
/// batches of a flip.
fn sketch(epoch_len: u64) -> SketchConfig {
    SketchConfig {
        epoch_len,
        window_epochs: 4,
        ..SketchConfig::default()
    }
}

/// The first `n` keys of table 1 (row ids from `salt` up) that the hash
/// router homes on one of `targets` — deterministic, and exactly where
/// serving will route them.
fn keys_on_shards(router: &ShardRouter, targets: &[usize], n: usize, salt: u64) -> Vec<VectorKey> {
    (0..)
        .map(|i| VectorKey::new(TableId(1), RowId(salt + i)))
        .filter(|&k| targets.contains(&router.shard_of(k)))
        .take(n)
        .collect()
}

/// Cumulative hit-weighted cost of the system's whole history, rebalance
/// charges included.
fn total_cost_ns(sys: &ShardedRecMgSystem) -> u64 {
    TierUsage::total_cost_ns(&sys.tier_usage())
}

/// The first 2000 accesses' frequency-rank codec.
fn codec_of(keys: &[VectorKey]) -> FrequencyRankCodec {
    FrequencyRankCodec::from_accesses(&keys[..2_000.min(keys.len())])
}

/// Tier-placement sweep: a skewed workload over an 8-shard system on a
/// DRAM + CXL topology, served under each placement policy. Per policy: a
/// deterministic warm pass observes per-shard mass, one rebalance applies
/// the policy to the observations, and a measured pass produces the
/// per-tier traffic deltas whose hit-weighted cost the policies compete
/// on. `HotFirst` keeps EvenSplit's capacities (identical hit/miss counts)
/// and must therefore never cost more; `WorkingSet` additionally re-sizes
/// shares toward the hot shards.
fn tier_placement(models: &Models, smoke: bool) -> Section {
    let requests = if smoke { 200 } else { 1000 };
    // Few tables + strong row skew: the hot rows hash into an uneven
    // per-shard mass, and at 400 rows/table the 256-vector budget covers
    // enough of the working set that capacity re-sizing actually moves
    // hit rates (at paper-scale sparsity the even split is off the
    // capacity cliff everywhere and only tier routing matters).
    let spec = WorkloadSpec {
        num_tables: 2,
        rows_per_table: 400,
        skew: 4.0,
    };
    let batches = spec.requests(requests, models.input_len);
    let refs: Vec<&[VectorKey]> = batches.iter().map(Vec::as_slice).collect();
    let keys = batches.concat();
    let rows: Vec<PolicyRow> = ["even_split", "working_set", "hot_first"]
        .into_iter()
        .map(|policy| {
            // Half the budget in DRAM (four of the eight even shard
            // shares — and enough headroom that a working-set-swollen
            // hot shard still fits), half in the slow tier.
            let builder = models.builder(&keys, 128);
            let mut sys = match policy {
                "even_split" => builder.placement(EvenSplit).build(),
                "working_set" => builder.placement(WorkingSet::default()).build(),
                _ => builder.placement(HotFirst).build(),
            };
            sys.serve(&refs, &INLINE); // observation pass
            // Migration churn is charged to the cumulative per-shard
            // counters at rebalance time, between report snapshots —
            // surface it as its own field. (Per-tier snapshots would not
            // work here: a moved shard's whole traffic history follows it
            // to its new tier.)
            let before_rebalance = total_cost_ns(&sys);
            let rebalanced = sys.rebalance();
            let migration_cost_ns = total_cost_ns(&sys) - before_rebalance;
            let report = sys.serve(&refs, &INLINE); // measured pass
            println!(
                "tier_placement/{policy}: {:.2}% hits, cost {:.3}ms (+{:.3}ms migration), rebalanced={rebalanced}",
                report.stats.hit_rate() * 100.0,
                report.access_cost_ns() as f64 / 1e6,
                migration_cost_ns as f64 / 1e6,
            );
            PolicyRow {
                policy,
                rebalanced,
                migration_cost_ns: Some(migration_cost_ns),
                report,
            }
        })
        .collect();
    println!("tier_placement ok: {}", check_tier_placement(&rows)?);
    Ok(section(
        |w| {
            w.key("shards").raw(SHARDS);
            w.key("skew").fixed(spec.skew, 1);
            w.key("requests").raw(requests);
            w.key("topology").string("dram + cxl");
        },
        "deterministic inline serving; per policy: observation pass, one rebalance, measured \
         pass; hit_weighted_cost_ns = per-tier hit-weighted access cost of the measured pass \
         (serving only); migration_cost_ns = one-time rebalance churn, reported separately",
        |w| write_rows(w, "results", 4, &rows, PolicyRow::write_json),
    ))
}

/// Statistical per-table placement at DLRM scale: a heterogeneous-table
/// workload (26 tables, per-table skews) over an 8-shard DRAM + CXL
/// system, served under hash-even routing ([`EvenSplit`]) versus
/// RecShard-style [`StatisticalPlacement`] (tiny tables pinned whole to
/// one fast-tier shard, large skewed tables hot/cold split for capacity
/// sizing). Two table-size spreads make the scaling claim testable: a mild
/// geometric spread (3 orders of magnitude) and the libai production size
/// array (7 orders, 3 to ~40M rows) — the statistical policy's cost margin
/// over hash-even must *grow* with the spread, because the wider the size
/// range, the more demand tiny tables carry per row and the more an even
/// split wastes capacity on cold giants.
fn statistical_placement(models: &Models, smoke: bool) -> Section {
    let requests = if smoke { 300 } else { 1500 };
    let variants: [(&str, TableArraySpec); 2] = [
        ("mild_spread", TableArraySpec::geometric(26, 50, 50_000)),
        ("libai_dlrm", TableArraySpec::libai()),
    ];
    let rows: Vec<SpreadRow> = variants
        .iter()
        .map(|&(variant, ref spec)| {
            let min_rows = *spec.sizes.iter().min().expect("non-empty") as f64;
            let max_rows = *spec.sizes.iter().max().expect("non-empty") as f64;
            let batches = spec.requests(requests, models.input_len);
            let refs: Vec<&[VectorKey]> = batches.iter().map(Vec::as_slice).collect();
            let keys = batches.concat();
            let policies: Vec<PolicyRow> = ["hash_even", "statistical"]
                .into_iter()
                .map(|policy| {
                    let builder = models.builder(&keys, 128);
                    let mut sys = match policy {
                        "hash_even" => builder.placement(EvenSplit).build(),
                        _ => builder.placement(StatisticalPlacement::default()).build(),
                    };
                    sys.serve(&refs, &INLINE); // observation pass
                    let rebalanced = sys.rebalance();
                    sys.serve(&refs, &INLINE); // post-rebalance warmup (re-homed pins re-admit)
                    let report = sys.serve(&refs, &INLINE); // measured pass
                    println!(
                        "statistical_placement/{variant}/{policy}: {:.2}% hits, cost {:.3}ms",
                        report.stats.hit_rate() * 100.0,
                        report.access_cost_ns() as f64 / 1e6,
                    );
                    PolicyRow {
                        policy,
                        rebalanced,
                        migration_cost_ns: None,
                        report,
                    }
                })
                .collect();
            let tables = &policies[1].report.tables;
            SpreadRow {
                variant,
                num_tables: spec.num_tables() as usize,
                size_orders_of_magnitude: (max_rows / min_rows).log10(),
                pinned_tables: tables.iter().filter(|t| t.pinned_shard.is_some()).count(),
                split_tables: tables.iter().filter(|t| t.hot_rows > 0).count(),
                cost_margin_vs_hash_even: 1.0
                    - policies[1].cost_ns() as f64 / policies[0].cost_ns().max(1) as f64,
                policies,
            }
        })
        .collect();
    println!(
        "statistical_placement ok: {}",
        check_statistical_placement(&rows, smoke)?
    );
    Ok(section(
        |w| {
            w.key("shards").raw(SHARDS);
            w.key("requests").raw(requests);
            w.key("topology").string("dram + cxl");
        },
        "heterogeneous 26-table workload with per-table skews; per variant and policy: \
                 observation pass, one rebalance (installs pins/splits for the statistical \
                 policy), post-rebalance warmup pass, measured pass; cost_margin_vs_hash_even = \
                 1 - statistical_cost / hash_even_cost on the measured pass's hit-weighted \
                 per-tier access cost; the margin must grow from mild_spread to libai_dlrm",
        |w| {
            write_rows(w, "results", 4, &rows, SpreadRow::write_json);
        },
    ))
}

/// Software-defined memory ladder: a DRAM → mapped-file → file stack
/// serving a skewed stream whose footprint is 4× the fast tier, under
/// blocking versus async slow-tier fills. One bind-time calibration probe
/// prices the tiers for *both* rows (re-probing per system would make the
/// cost comparison measure probe noise, not the fill plane); serving then
/// multiplies exact per-tier counters by those measured costs, so the
/// only difference between the rows is how misses are charged: blocking
/// pays the full read-through inline, async pays the slow read on-path
/// and the install only when a queued, coalesced fill actually lands —
/// every coalesced or dropped fill is an install the async plane never
/// paid for.
fn sdm_ladder(models: &Models, smoke: bool) -> Section {
    let shards = 4usize;
    let fast = 128usize;
    let requests = if smoke { 150 } else { 800 };
    let mut topology = TierTopology::sdm_ladder(fast, fast, 2 * fast);
    let calibration = topology.calibrate();
    for cal in &calibration.tiers {
        println!(
            "sdm_ladder/calibration: {} ({}) hit {} ns, miss {} ns, fill {} ns",
            cal.tier, cal.backend, cal.hit_ns, cal.miss_ns, cal.fill_ns
        );
    }
    // 2/3 of accesses cycle a hot set that fits in DRAM; 1/3 walk the
    // cold tail only the file rungs can hold. Footprint = 4× fast tier =
    // the ladder's exact total capacity.
    let footprint = 4 * fast as u64;
    let hot = (fast / 2) as u64;
    let batches: Vec<Vec<VectorKey>> = (0..requests)
        .map(|r| {
            (0..models.input_len)
                .map(|i| {
                    let n = (r * models.input_len + i) as u64;
                    let row = if n % 3 < 2 {
                        (n * 17) % hot
                    } else {
                        hot + (n * 101) % (footprint - hot)
                    };
                    VectorKey::new(TableId(0), RowId(row))
                })
                .collect()
        })
        .collect();
    let refs: Vec<&[VectorKey]> = batches.iter().map(Vec::as_slice).collect();
    let keys = batches.concat();

    let ladder_row = |fill: FillMode| {
        let fill_mode = fill.name();
        let system = SystemBuilder::new(&models.caching, None, codec_of(&keys))
            .shards(shards)
            .topology(topology.clone())
            .placement(HotFirst)
            .guidance(GuidanceMode::Inline)
            .fill_mode(fill)
            .build();
        let session = SessionBuilder::new()
            .workers(2)
            .admission(AdmissionPolicy::unbounded())
            .build(system);
        session.ingest(&mut BatchSource::new(&refs));
        let (_system, report) = session.drain();
        let fills = &report.engine.fills;
        println!(
            "sdm_ladder/{fill_mode}: {:.2}% hits, cost {:.3}ms, fills queued {} coalesced {} dropped {} promoted {}",
            report.engine.stats.hit_rate() * 100.0,
            report.engine.access_cost_ns() as f64 / 1e6,
            fills.queued,
            fills.coalesced,
            fills.dropped,
            fills.promoted,
        );
        LadderRow {
            fill_mode,
            report: report.engine,
        }
    };
    // Async is held to blocking's cost: both are medians.
    let rows: Vec<LadderRow> = [
        FillMode::Blocking,
        FillMode::Async {
            threads: 2,
            queue_depth: 256,
        },
    ]
    .into_iter()
    .map(|fill| median_run(smoke, || ladder_row(fill), LadderRow::cost_ns))
    .collect();
    println!(
        "sdm_ladder ok: {}",
        check_sdm_ladder(fast, footprint as usize, &calibration, &rows, smoke)?
    );
    Ok(section(
        |w| {
            w.key("shards").raw(shards);
            w.key("fast_rows").raw(fast);
            w.key("footprint_rows").raw(footprint);
            w.key("requests").raw(requests);
            w.key("topology")
                .string("dram -> mapped_file -> file (calibrated)");
        },
        "one bind-time calibration probe prices all three tiers for both rows (measured \
                 hit/miss/fill ns, not injected); the stream's footprint is 4x the fast tier; \
                 rows differ only in fill mode: blocking pays full read-through per miss, async \
                 pays the slow read on-path and the install only when a queued, coalesced \
                 background fill lands",
        |w| {
            calibration.write_json(w.key("calibration"));
            w.newline(4);
            write_rows(w, "results", 4, &rows, LadderRow::write_json);
        },
    ))
}

/// The phase-flip workload shared by the `working_set_estimation` and
/// `online_rebalance` sections — the paper's regime: a stable hot
/// embedding set dominating traffic, over a long cold tail. Hot phase A
/// lives on shards `{0,1,2}`; at the flip the hot set moves to shards
/// `{5,6,7}` (a table/popularity shift concentrating on differently-
/// hashed rows); 100 background keys keep every shard's sketch window
/// warm throughout. 2/3 of each 60-key batch cycles the `hot_keys`-sized
/// hot set, 1/3 cycles the background. The hot-set size picks the regime:
/// 300 keys out-sizes every shard buffer (miss-dominated, the sketch
/// stress case), 90 keys fits them (hit-dominated, where tier pricing
/// carries the cost). With `skew`, the hot keys split
/// 3:2:1 across the trio instead of evenly — embedding-table popularity
/// is never flat, and the gradient makes the fast-tier benefit ranking
/// unambiguous: the lightest hot shard is *always* the one squeezed out
/// of the fast tier, instead of the three trading places on sampling
/// noise at every rebalance.
fn phase_flip_phases(
    batches_per_phase: usize,
    hot_keys: usize,
    skew: bool,
) -> (Vec<Vec<VectorKey>>, Vec<Vec<VectorKey>>) {
    let router = ShardRouter::new(SHARDS);
    let hot_set = |targets: &[usize; 3], salt: u64| -> Vec<VectorKey> {
        if skew {
            let counts = [
                hot_keys / 2,
                hot_keys / 3,
                hot_keys - hot_keys / 2 - hot_keys / 3,
            ];
            targets
                .iter()
                .zip(counts)
                .flat_map(|(&t, n)| keys_on_shards(&router, &[t], n, salt))
                .collect()
        } else {
            keys_on_shards(&router, targets, hot_keys, salt)
        }
    };
    let hot_a = hot_set(&[0, 1, 2], 0);
    let hot_b = hot_set(&[5, 6, 7], 1_000_000);
    let bg: Vec<VectorKey> = (0..100)
        .map(|i| VectorKey::new(TableId(2), RowId(i)))
        .collect();
    let batch_of = |hot: &[VectorKey], round: usize| -> Vec<VectorKey> {
        let mut keys = Vec::with_capacity(60);
        for i in 0..40 {
            keys.push(hot[(round * 40 + i) % hot.len()]);
        }
        for i in 0..20 {
            keys.push(bg[(round * 20 + i) % bg.len()]);
        }
        keys
    };
    let phase_a = (0..batches_per_phase)
        .map(|r| batch_of(&hot_a, r))
        .collect();
    let phase_b = (0..batches_per_phase)
        .map(|r| batch_of(&hot_b, r))
        .collect();
    (phase_a, phase_b)
}

/// Working-set estimation sweep: a *phase-flipping* skewed workload over
/// an 8-shard, 2-tier system, served under two placement/rebalancing
/// strategies:
///
/// * `miss_mass_periodic` — [`WorkingSet`] (capacity from miss counts),
///   rebalanced on the count trigger alone;
/// * `cardinality_phase_reactive` — [`CardinalityWorkingSet`] (capacity
///   from the sketched unique-key footprint) with the phase trigger armed
///   on top of the same count trigger.
///
/// Halfway through, the 300-key hot set (two thirds of all traffic)
/// moves from shards `{0,1,2}` to shards `{5,6,7}` — the hash image of a
/// popularity shift onto differently-hashed rows. The phase-reactive
/// strategy re-places within a sketch epoch or two of the flip; the
/// periodic one serves the new phase on stale placement until its count
/// trigger comes around. Serving is deterministic (sequential
/// `process_batch`, inline guidance), so the per-tier cost counters —
/// including the rebalance migration charges — are exact.
fn working_set_estimation(models: &Models, smoke: bool) -> Section {
    let batches_per_phase = if smoke { 60 } else { 300 };
    let (phase_a, phase_b) = phase_flip_phases(batches_per_phase, 300, false);
    let accesses_per_phase = (batches_per_phase * 60) as u64;
    // Sketch epochs small enough that a hot shard rotates a few batches
    // after the flip; the shared count trigger fires twice per phase.
    let epoch = 128u64;
    let period = accesses_per_phase / 2;
    let keys = phase_a.concat();
    let rows: Vec<StrategyRow> = [
        ("miss_mass_periodic", false),
        ("cardinality_phase_reactive", true),
    ]
    .into_iter()
    .map(|(strategy, phase_reactive)| {
        let builder = models.builder(&keys, 128).sketch(sketch(epoch));
        let (mut sys, mut rb) = if phase_reactive {
            (
                builder.placement(CardinalityWorkingSet::default()).build(),
                Rebalancer::new(period).with_phase_trigger(0.5, epoch),
            )
        } else {
            (
                builder.placement(WorkingSet::default()).build(),
                Rebalancer::new(period),
            )
        };
        // Deterministic serving: one request at a time, rebalance check
        // between requests (the system is quiescent there).
        let mut serve = |batches: &[Vec<VectorKey>]| {
            for batch in batches {
                sys.process_batch(batch);
                rb.maybe_rebalance(&mut sys);
            }
            total_cost_ns(&sys)
        };
        let flip_cost_ns = serve(&phase_a);
        let cost_ns = serve(&phase_b);
        println!(
            "working_set_estimation/{strategy}: total {:.3}ms, post-flip {:.3}ms, \
             fires {} (phase {}), rebalances {}, footprint {}",
            cost_ns as f64 / 1e6,
            (cost_ns - flip_cost_ns) as f64 / 1e6,
            rb.fires(),
            rb.phase_fires(),
            rb.rebalances(),
            sys.unique_keys(),
        );
        StrategyRow {
            strategy,
            policy: sys.placement_name(),
            phase_reactive,
            fires: rb.fires(),
            phase_fires: rb.phase_fires(),
            rebalances: rb.rebalances(),
            unique_keys: sys.unique_keys(),
            cost_ns,
            post_flip_cost_ns: cost_ns - flip_cost_ns,
        }
    })
    .collect();
    println!(
        "working_set_estimation ok: {}",
        check_working_set_estimation(&rows)?
    );
    Ok(section(
        |w| {
            w.key("shards").raw(SHARDS);
            w.key("batches_per_phase").raw(batches_per_phase);
            w.key("sketch_epoch").raw(epoch);
            w.key("workload").string(
                "300-key hot set (2/3 of traffic) moves shards {0,1,2} -> {5,6,7} at \
                         halftime; 100-key background",
            );
        },
        "deterministic sequential serving; both strategies share the same count-trigger \
                 period; the reactive row adds the sketch phase trigger; hit_weighted_cost_ns is \
                 cumulative over both phases including migration charges; post_flip_cost_ns \
                 covers the second phase only",
        |w| {
            write_rows(w, "results", 4, &rows, StrategyRow::write_json);
        },
    ))
}

/// Online-rebalance rows: the `working_set_estimation` phase-flip
/// workload, but served through streaming sessions and compared on what
/// quiescence actually costs. Three strategies over identical key
/// streams (closed loop, 2 outstanding, 2 workers):
///
/// * `steady` — the flip never happens (phase A twice) and no rebalancer
///   runs: the clean latency/cost floor the p99 bound anchors to;
/// * `quiescent_reactive` — the flip served by a system that can only
///   re-place while drained: one stop-the-world drain at the flip to
///   snapshot traffic, a second one 8 batches into phase B (charitably,
///   about when a sketch window could have detected the flip) where
///   [`Rebalancer::maybe_rebalance`] re-places on the pure phase-B delta;
/// * `live` — one session with a [`LiveRebalanceConfig`]: the background
///   rebalancer detects the flip by phase trigger and re-places under
///   load (the quiescent shard move, under each moved shard's mutex).
///
/// `hit_weighted_cost_ns` is the cumulative per-tier access cost
/// including migration fills, so live vs
/// quiescent is an honest total-cost comparison; `p99_ns` is closed-loop
/// per-request latency, which never sees the quiescent drains (those
/// cost throughput, not in-flight latency).
fn online_rebalance(models: &Models, smoke: bool) -> Section {
    let batches_per_phase = if smoke { 60 } else { 300 };
    // The hit-dominated regime: 60 hot keys fit the hot shards' buffers,
    // so per-access cost is dominated by which tier prices the hits. The
    // 3:2:1 skew pins which hot shard loses the fast-tier squeeze.
    let (phase_a, phase_b) = phase_flip_phases(batches_per_phase, 60, true);
    let epoch = 128u64;
    let codec_keys = phase_a.concat();
    let build_system = || {
        // 96 fast vectors, deliberately tighter than the working-set
        // section's 50/50 split: the three hot shards cannot all fit the
        // fast tier, so placement has to pick which one pays slow-tier
        // hits.
        models
            .builder(&codec_keys, 96)
            // The floor keeps a phase-cold shard large enough to re-warm
            // quickly when the hot set lands on it — placement reacts to
            // a flip, the floor bounds how hard the flip can hurt before
            // it does (both strategies get the same policy).
            .placement(CardinalityWorkingSet::with_floor(20))
            .guidance(GuidanceMode::Inline)
            .sketch(sketch(epoch))
            .build()
    };
    let serve = |sys: ShardedRecMgSystem,
                 live: Option<LiveRebalanceConfig>,
                 batches: Vec<Vec<VectorKey>>| {
        let mut builder = SessionBuilder::new()
            .workers(2)
            .guidance(GuidanceMode::Inline)
            .admission(AdmissionPolicy::unbounded());
        if let Some(cfg) = live {
            builder = builder.live(cfg);
        }
        let session = builder.build(sys);
        let mut source =
            ClosedLoopSource::new(BatchSource::from_vecs(batches), 2, session.progress());
        session.ingest(&mut source);
        session.drain()
    };
    // A strategy's row from the session(s) it was served through:
    // completions add up, p99 is the worst session's, the migration
    // accounting is the last session's.
    let row = |strategy: &'static str,
               drains: usize,
               sys: &ShardedRecMgSystem,
               sessions: &[&SessionReport]| {
        let last = &sessions[sessions.len() - 1].engine;
        let row = RebalanceRow {
            strategy,
            flip: strategy != "steady",
            drains,
            completed: sessions.iter().map(|s| s.completed).sum(),
            p99: sessions
                .iter()
                .map(|s| s.latency.p99)
                .max()
                .unwrap_or_default(),
            cost_ns: total_cost_ns(sys),
            migration: last.migration,
        };
        println!(
            "online_rebalance/{strategy}: p99 {:.3}ms, cost {:.3}ms, {} migrations",
            row.p99.as_secs_f64() * 1e3,
            row.cost_ns as f64 / 1e6,
            row.migration.migrations,
        );
        row
    };

    let mut rows = Vec::new();

    // steady: same load, no flip, no rebalancer.
    let steady_stream = [phase_a.clone(), phase_a.clone()].concat();
    // The live row's p99 is held to 2x this row's: both are medians.
    let steady = || {
        let (sys, report) = serve(build_system(), None, steady_stream.clone());
        row("steady", 0, &sys, &[&report])
    };
    rows.push(median_run(smoke, steady, |row| row.p99));

    // quiescent_reactive: re-placement requires a drained system, so the
    // flip costs two stop-the-worlds — one to snapshot phase-A traffic,
    // one at the (charitable) reaction point where the pure phase-B
    // delta drives the re-placement.
    let react_after = 8usize;
    let mut rb = Rebalancer::new((react_after * 60) as u64);
    let (mut sys, r1) = serve(build_system(), None, phase_a.clone());
    rb.maybe_rebalance(&mut sys);
    let (mut sys, r2) = serve(sys, None, phase_b[..react_after].to_vec());
    rb.maybe_rebalance(&mut sys);
    let (sys, r3) = serve(sys, None, phase_b[react_after..].to_vec());
    rows.push(row("quiescent_reactive", 2, &sys, &[&r1, &r2, &r3]));

    // live: one session, zero drains, with the same trigger recipe as
    // the working-set section's reactive strategy — a once-per-phase
    // count fire keeps the snapshot deltas pure (so the phase fire that
    // follows the flip ranks on phase-B traffic, not a mixed history),
    // the phase trigger owns the flip edge, and a two-epoch cooldown
    // stops back-to-back fires from churning residency the workload
    // just paid to warm.
    let accesses_per_phase = (batches_per_phase * 60) as u64;
    let live_cfg = LiveRebalanceConfig::default()
        .with_min_new_accesses(accesses_per_phase / 2)
        .with_cooldown(2 * epoch);
    let flip_stream = [phase_a.clone(), phase_b.clone()].concat();
    let live = || {
        let (sys, report) = serve(build_system(), Some(live_cfg), flip_stream.clone());
        row("live", 0, &sys, &[&report])
    };
    rows.push(median_run(smoke, live, |row| row.p99));

    println!(
        "online_rebalance ok: {}",
        check_online_rebalance(&rows, smoke)?
    );
    Ok(section(
        |w| {
            w.key("shards").raw(SHARDS);
            w.key("batches_per_phase").raw(batches_per_phase);
        },
        "phase-flip stream served closed-loop (2 outstanding, 2 workers); the live row \
                 never drains (background phase-triggered migration); quiescent_reactive stops \
                 the world twice (flip snapshot, then maybe_rebalance 8 batches into phase B); \
                 hit_weighted_cost_ns is cumulative per-tier access cost including migration \
                 fills; p99_ns is closed-loop per-request latency",
        |w| write_rows(w, "results", 4, &rows, RebalanceRow::write_json),
    ))
}

/// Markov-modulated burst workload for the multi-tenant section: a
/// request source whose arrival chain *and key population* are coupled —
/// in the `flash` state it issues at the spike rate from the flipped hot
/// set (`hot_b`, homed on different shards), so a flash crowd is both a
/// load spike and a phase change, exactly the combination the live
/// rebalancer's phase trigger plus admission control must absorb.
struct BurstSource {
    chain: MarkovArrivals,
    rng: StdRng,
    clock: Duration,
    hot_a: Vec<VectorKey>,
    hot_b: Vec<VectorKey>,
    keys_per_request: usize,
    issued: usize,
    total: usize,
    deadline: Option<Duration>,
    tenant: usize,
}

impl BurstSource {
    /// A single-state chain: plain Poisson arrivals dressed as a Markov
    /// chain so steady and bursty tenants share one source type.
    fn steady_chain(rate_hz: f64) -> MarkovArrivals {
        MarkovArrivals::new(
            vec![("steady", ArrivalProcess::Poisson { rate_hz })],
            vec![vec![1.0]],
        )
    }
}

impl RequestSource for BurstSource {
    fn next_request(&mut self) -> Option<Request> {
        if self.issued >= self.total {
            return None;
        }
        // The pool is chosen by the state the arrival happens *in* (the
        // chain steps when the gap is sampled below): flash arrivals draw
        // from the flipped hot set.
        let pool = if self.chain.state_name() == "flash" {
            &self.hot_b
        } else {
            &self.hot_a
        };
        let base = self.issued * self.keys_per_request;
        let keys = (0..self.keys_per_request)
            .map(|i| pool[(base + i) % pool.len()])
            .collect();
        self.clock += self.chain.next_gap(&mut self.rng);
        let id = self.issued as u64;
        self.issued += 1;
        Some(Request {
            id,
            keys,
            arrival: self.clock,
            deadline: self.deadline,
            tenant: self.tenant,
        })
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.total - self.issued)
    }
}

/// Multi-tenant SLA serving under bursty traffic: two tenants share one
/// live session — `budgeted` (weight 3, per-tenant SLA, steady Poisson on
/// the shard-{0,1,2} hot set in both scenarios) and `besteffort` (weight
/// 1, queue quota, deadline-carrying). The `steady` scenario has both
/// tenants at a fraction of the measured service rate; `flash_crowd`
/// switches the best-effort tenant to a Markov-modulated flash crowd
/// whose spike state floods at 48× the steady rate *from the flipped hot
/// set* (shards {5,6,7}) — saturating the queue and moving the hot shards
/// at once. Admission (quota + shed) makes the best-effort tenant absorb
/// the overload, weighted-fair dequeue keeps the budgeted tenant's p99
/// within 2× of its steady-state value, and the live rebalancer's phase
/// trigger fires on the flip.
fn multi_tenant_burst(models: &Models, smoke: bool) -> Section {
    let keys_per_request = 20usize;
    let budgeted_requests = if smoke { 150 } else { 500 };
    let besteffort_requests = if smoke { 200 } else { 700 };
    let epoch = 128u64;

    let router = ShardRouter::new(SHARDS);
    let hot_a = keys_on_shards(&router, &[0, 1, 2], 60, 0);
    let hot_b = keys_on_shards(&router, &[5, 6, 7], 60, 1_000_000);

    let build_system = || {
        models
            .builder(&hot_a, 96)
            .placement(CardinalityWorkingSet::with_floor(20))
            .guidance(GuidanceMode::Inline)
            .sketch(sketch(epoch))
            .build()
    };

    // Calibrate the offered rates against this machine: serve the steady
    // hot set batch-backed once and take the observed request rate.
    let calib_batches: Vec<Vec<VectorKey>> = (0..200)
        .map(|r| {
            (0..keys_per_request)
                .map(|i| hot_a[(r * keys_per_request + i) % hot_a.len()])
                .collect()
        })
        .collect();
    let refs: Vec<&[VectorKey]> = calib_batches.iter().map(Vec::as_slice).collect();
    let calib_report = build_system().serve(&refs, &INLINE);
    let service_rate = calib_report.batches as f64 / calib_report.elapsed_secs.max(1e-9);
    // Batch-mode calibration overstates what the session path sustains
    // (no ingest pacing, no queue, no per-request accounting), so the
    // per-tenant steady rate targets a conservative fraction of it —
    // the steady scenario must stay subcritical for the flash contrast.
    let steady_hz = (service_rate * 0.15).max(50.0);
    let mean_service =
        Duration::from_secs_f64(1.0 / service_rate.max(1e-9)).max(Duration::from_micros(1));

    // One flash burst's hot-set accesses halve the trigger's count gate,
    // so the phase fire lands inside the burst that caused it.
    let live_cfg = LiveRebalanceConfig::default()
        .with_min_new_accesses((200 * keys_per_request / 2) as u64)
        .with_cooldown(2 * epoch);

    let run_scenario = |scenario: &'static str, besteffort_chain: MarkovArrivals| {
        let session = SessionBuilder::new()
            .workers(2)
            .guidance(GuidanceMode::Inline)
            .admission(AdmissionPolicy {
                queue_depth: 64,
                ..AdmissionPolicy::default()
            })
            .tenants(vec![
                TenantSpec::new("budgeted")
                    .with_weight(3.0)
                    .with_sla(SlaBudget::new(mean_service * 12)),
                TenantSpec::new("besteffort").with_quota(4),
            ])
            .live(live_cfg)
            .build(build_system());
        let mut budgeted = BurstSource {
            chain: BurstSource::steady_chain(steady_hz),
            rng: StdRng::seed_from_u64(0xB0D6),
            clock: Duration::ZERO,
            hot_a: hot_a.clone(),
            hot_b: hot_b.clone(), // never drawn from: a steady chain has no flash state
            keys_per_request,
            issued: 0,
            total: budgeted_requests,
            deadline: None,
            tenant: 0,
        };
        let mut besteffort = BurstSource {
            chain: besteffort_chain,
            // Seed chosen so the chain actually exercises the flash
            // state within the bench's request budget (a geometric
            // 1/60-per-arrival entry leaves ~3.5% of seeds flash-free).
            rng: StdRng::seed_from_u64(4),
            clock: Duration::ZERO,
            hot_a: hot_a.clone(),
            hot_b: hot_b.clone(),
            keys_per_request,
            issued: 0,
            total: besteffort_requests,
            deadline: Some(mean_service * 5),
            tenant: 1,
        };
        session.ingest_multi(&mut [&mut budgeted, &mut besteffort]);
        let (_sys, session) = session.drain();
        let (budgeted, besteffort) = (&session.tenants[0], &session.tenants[1]);
        println!(
            "multi_tenant_burst/{scenario}: budgeted p99 {:.3}ms ({}/{} done), \
             besteffort shed+rejected {} of {}, {} migrations",
            budgeted.latency.p99.as_secs_f64() * 1e3,
            budgeted.completed,
            budgeted.submitted,
            besteffort.unserved(),
            besteffort.submitted,
            session.engine.migration.migrations,
        );
        ScenarioRow { scenario, session }
    };

    let flash_chain = match ArrivalProcess::flash_crowd(steady_hz, 48.0, 60, 200) {
        ArrivalProcess::MarkovModulated(chain) => chain,
        _ => unreachable!("flash_crowd builds a Markov chain"),
    };
    // The budgeted tenant's p99 under flash is held to 2x its steady p99:
    // each scenario's row is its median repetition by that p99.
    let budgeted_p99 = |row: &ScenarioRow| row.session.tenants[0].latency.p99;
    let steady = || run_scenario("steady", BurstSource::steady_chain(steady_hz));
    let flash = || run_scenario("flash_crowd", flash_chain.clone());
    let rows = [
        median_run(smoke, steady, budgeted_p99),
        median_run(smoke, flash, budgeted_p99),
    ];
    println!(
        "multi_tenant_burst ok: {}",
        check_multi_tenant_burst(&rows, smoke)?
    );
    Ok(section(
        |w| {
            w.key("shards").raw(SHARDS);
            w.key("budgeted_requests").raw(budgeted_requests);
            w.key("besteffort_requests").raw(besteffort_requests);
        },
        "two tenants, one live session (weighted-fair dequeue 3:1, best-effort queue \
                 quota 4 of depth 64, per-tenant SLA on the budgeted tenant); rates calibrated to \
                 the measured service rate; flash_crowd switches the best-effort tenant to a \
                 Markov-modulated chain whose spike state floods at 48x the steady rate from the \
                 flipped hot set (shards {5,6,7}), so the burst is a load spike and a phase \
                 change at once; the budgeted tenant's stream is identical in both scenarios",
        |w| {
            write_rows(w, "results", 4, &rows, ScenarioRow::write_json);
        },
    ))
}

fn main() {
    // `RECMG_SMOKE=1` shrinks every section so CI can run the bench, and
    // every invariant, in seconds.
    let smoke = std::env::var("RECMG_SMOKE").is_ok_and(|v| v == "1");
    let models = Models::new(&RecMgConfig::default());
    let sections: [(&str, SectionFn); 6] = [
        ("tier_placement", tier_placement),
        ("statistical_placement", statistical_placement),
        ("sdm_ladder", sdm_ladder),
        ("working_set_estimation", working_set_estimation),
        ("online_rebalance", online_rebalance),
        ("multi_tenant_burst", multi_tenant_burst),
    ];
    let json = JsonWriter::render(|w| {
        w.object(|w| {
            w.newline(2);
            w.key("bench").string("serving");
            w.key("smoke").raw(smoke);
            for (name, run) in sections {
                let section = run(&models, smoke).unwrap_or_else(|why| {
                    eprintln!("{name} FAILED: {why}; no artifact written");
                    std::process::exit(1);
                });
                w.newline(2);
                w.key(name).raw(section);
            }
            w.newline(0);
        })
    }) + "\n";
    let out_dir = std::env::var("RECMG_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));
    let path = out_dir.join("BENCH_serving.json");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {}", path.display());
}
