//! One benchmark run of one workload: set-up, warm-up, the measured
//! phase, the correctness checks, and — in the traced run — the
//! micro-costs and the attribution of where each µs/key goes.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use recmg_core::{
    live_backend_files, synth_row, EngineReport, FillPlaneReport, LatencySummary,
    ShardedRecMgSystem, TierTraffic, ROW_BYTES,
};
use recmg_dlrm::{BatchAccessStats, BufferManager};
use recmg_trace::VectorKey;

use crate::alloc;
use crate::metrics::{share, Values};
use crate::micro;
use crate::open_loop::run_open;
use crate::spans::Recorder;
use crate::stats::{highest_supported_percentile, median};
use crate::workloads::{self, build_system, oracle_pair, Inputs, Mode, Models, Spec};

/// `serve()` calls per slice of the traced run's measured phase; slices
/// alternate tracing off and on, so both rates see the same stretch of
/// the stream and the same machine weather.
const SLICE_CALLS: u64 = 16;
/// Accesses the 1-shard oracle replays (whole batches of the warm-up
/// prefix, capped at the training prefix's length: inline guidance costs
/// ≈ 0.4 ms per 15 keys, twice over).
const ORACLE_ACCESSES: usize = 20_000;
/// Resident rows compared against `synth_row` after a ladder run.
const ROW_SAMPLES: usize = 1_000;

/// Arguments of `recmg-benchmark run`.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 1/10-length smoke mode: every phase and check, tiny budgets.
    pub quick: bool,
    /// Directory for span files and backend temp files.
    pub out: PathBuf,
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks (empty = correct).
    pub failures: Vec<String>,
    /// Human-readable context lines (sample counts, span self times).
    pub notes: Vec<String>,
}

#[derive(Debug, Default)]
pub(crate) struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What every phase of a run writes into.
pub(crate) struct Ctx {
    pub(crate) rec: Recorder,
    pub(crate) checks: Checks,
    pub(crate) values: Values,
    pub(crate) notes: Vec<String>,
}

/// Everything the public reports of a phase add up to.
#[derive(Debug, Default)]
pub(crate) struct Totals {
    pub(crate) calls: u64,
    /// Keys offered (the harness's own count, for conservation).
    pub(crate) offered_keys: u64,
    /// Time inside the program (`serve()` calls, or ingest + drain).
    pub(crate) secs: f64,
    pub(crate) stats: BatchAccessStats,
    guided_chunks: u64,
    total_chunks: u64,
    model_forwards: u64,
    drains: u64,
    plane_chunks: u64,
    late_chunks: u64,
    /// Per-tier traffic, fast tier first.
    tiers: Vec<TierTraffic>,
    fills: FillPlaneReport,
}

impl Totals {
    pub(crate) fn add(&mut self, report: &EngineReport, offered_keys: u64, secs: f64) {
        self.calls += 1;
        self.offered_keys += offered_keys;
        self.secs += secs;
        self.stats.merge(&report.stats);
        self.guided_chunks += report.guided_chunks;
        self.total_chunks += report.total_chunks;
        self.model_forwards += report.plane.model_forwards;
        self.drains += report.plane.drains;
        self.plane_chunks += report.plane.chunks;
        self.late_chunks += report.plane.late_chunks;
        self.tiers
            .resize(report.tiers.len(), TierTraffic::default());
        for (sum, tier) in self.tiers.iter_mut().zip(&report.tiers) {
            sum.accumulate(tier.traffic);
        }
        self.fills.queued += report.fills.queued;
        self.fills.coalesced += report.fills.coalesced;
        self.fills.dropped += report.fills.dropped;
        self.fills.promoted += report.fills.promoted;
    }
}

/// Keys served and time spent in the slices of one tracing state.
#[derive(Debug, Default, Clone, Copy)]
struct Rate {
    keys: u64,
    secs: f64,
}

impl Rate {
    fn keys_per_s(&self) -> f64 {
        self.keys as f64 / self.secs.max(1e-9)
    }
}

/// A built workload: inputs, models, and the warmed system.
struct Built {
    inputs: Inputs,
    models: Models,
    system: ShardedRecMgSystem,
}

/// The whole set-up a user waits for before the first request: generate
/// inputs, train/compile models, build the system (calibration probe and
/// backend files included), warm up over the first 10 % of the stream.
fn set_up(spec: &Spec, seed: u64, scale: f64, rec: &mut Recorder) -> Built {
    let inputs = rec.scope("setup.generate", 0, |_| Inputs::generate(spec, seed, scale));
    let models = rec.scope("setup.train", 0, |_| Models::prepare(spec, &inputs, scale));
    let mut system = rec.scope("setup.build", 0, |rec| {
        // The bind-time probe, run here so it gets its own span; `build`
        // finds the tiers already priced and does not probe again.
        let mut topology = workloads::topology(spec, &inputs);
        rec.scope("setup.calibrate", 0, |_| topology.calibrate());
        build_system(spec, &models, topology)
    });
    rec.scope("warmup.serve", 0, |_| {
        let warm = inputs.batches(0..inputs.warmup_batches());
        system.serve(&warm, &spec.serve_options());
    });
    Built {
        inputs,
        models,
        system,
    }
}

/// Result of the closed-loop measured phase.
struct ServePhase {
    totals: Totals,
    /// Slices with tracing off (all of them in the end-to-end run).
    off: Rate,
    /// Slices with spans and allocation counting on.
    on: Rate,
    call_times: Vec<Duration>,
    wall_secs: f64,
    allocs_on: u64,
}

fn measure_serve(
    spec: &Spec,
    built: &mut Built,
    seconds: f64,
    trace: bool,
    rec: &mut Recorder,
) -> ServePhase {
    let Mode::Serve { calls_batches } = spec.mode else {
        unreachable!("closed-loop phase of an open-loop workload");
    };
    let inputs = &built.inputs;
    let blocks: Vec<Vec<&[VectorKey]>> = (0..inputs.num_batches())
        .step_by(calls_batches)
        .map(|i| inputs.batches(i..(i + calls_batches).min(inputs.num_batches())))
        .collect();
    let block_keys: Vec<u64> = blocks
        .iter()
        .map(|b| b.iter().map(|s| s.len() as u64).sum())
        .collect();
    let opts = spec.serve_options();
    let budget = Duration::from_secs_f64(seconds);
    let mut phase = ServePhase {
        totals: Totals::default(),
        off: Rate::default(),
        on: Rate::default(),
        call_times: Vec::new(),
        wall_secs: 0.0,
        allocs_on: 0,
    };
    // Carry on where the warm-up stopped.
    let mut at = inputs.warmup_batches().div_ceil(calls_batches) % blocks.len();
    let (mut call, mut pass) = (0u64, 0u64);
    rec.enter("measure", 0);
    let start = Instant::now();
    loop {
        let traced = trace && (call / SLICE_CALLS) % 2 == 1;
        alloc::set_enabled(traced);
        let allocs_before = alloc::allocs();
        let t0 = Instant::now();
        let report = built.system.serve(&blocks[at], &opts);
        let t1 = Instant::now();
        let secs = (t1 - t0).as_secs_f64();
        let rate = if traced {
            phase.allocs_on += alloc::allocs() - allocs_before;
            rec.leaf("measure.serve", pass, t0, t1);
            &mut phase.on
        } else {
            &mut phase.off
        };
        rate.keys += report.stats.total();
        rate.secs += secs;
        phase.totals.add(&report, block_keys[at], secs);
        phase.call_times.push(t1 - t0);
        call += 1;
        at += 1;
        if at == blocks.len() {
            at = 0;
            pass += 1;
        }
        if t1 - start >= budget {
            phase.wall_secs = (t1 - start).as_secs_f64();
            break;
        }
    }
    alloc::set_enabled(trace);
    rec.exit();
    phase
}

/// 1-shard inline `ShardedRecMgSystem` against the sequential
/// `RecMgSystem`, count for count, over the head of the warm-up prefix.
fn oracle(spec: &Spec, built: &Built, checks: &mut Checks, values: &mut Values) {
    let inputs = &built.inputs;
    let mut batches = 0;
    let mut accesses = 0;
    for batch in inputs.batches(0..inputs.warmup_batches()) {
        if accesses + batch.len() > ORACLE_ACCESSES && batches > 0 {
            break;
        }
        accesses += batch.len();
        batches += 1;
    }
    let capacity = (built.system.capacity() / spec.shards).max(1);
    let (mut sharded, mut sequential) = oracle_pair(spec, &built.models, capacity);
    let mut a = BatchAccessStats::default();
    let mut b = BatchAccessStats::default();
    for batch in inputs.batches(0..batches) {
        a.accumulate(sharded.process_batch(batch));
        b.accumulate(sequential.process_batch(batch));
    }
    checks.check(a == b, || {
        format!("oracle: 1-shard inline {a:?} != sequential {b:?}")
    });
    checks.check(
        sharded.prefetches_issued() == sequential.prefetches_issued(),
        || {
            format!(
                "oracle: prefetches issued {} != {}",
                sharded.prefetches_issued(),
                sequential.prefetches_issued()
            )
        },
    );
    checks.check(a.total() == accesses as u64, || {
        format!(
            "oracle: {} accesses counted, {accesses} replayed",
            a.total()
        )
    });
    values.set("oracle.cache_hits", a.cache_hits as f64);
    values.set("oracle.prefetch_hits", a.prefetch_hits as f64);
    values.set("oracle.misses", a.misses as f64);
    values.set(
        "oracle.prefetches_issued",
        sharded.prefetches_issued() as f64,
    );
}

/// Residency and row-byte checks on the system a run leaves behind.
fn check_system(spec: &Spec, system: &ShardedRecMgSystem, checks: &mut Checks) {
    checks.check(system.len() <= system.capacity(), || {
        format!("{} resident > capacity {}", system.len(), system.capacity())
    });
    if !spec.name.starts_with("ladder") {
        return;
    }
    let per_shard = ROW_SAMPLES.div_ceil(system.num_shards());
    let mut compared = 0;
    for shard in 0..system.num_shards() {
        let mut resident: Vec<VectorKey> = system.shard_buffer(shard).keys().collect();
        resident.sort_unstable_by_key(|k| k.as_u64());
        let stride = (resident.len() / per_shard).max(1);
        for &key in resident.iter().step_by(stride).take(per_shard) {
            let mut want = [0u8; ROW_BYTES];
            synth_row(key, &mut want);
            let got = system.shard_recmg_buffer(shard).read_row(key);
            checks.check(got == Some(want), || {
                format!("shard {shard}: row bytes of {key:?} differ from synth_row")
            });
            compared += 1;
        }
    }
    checks.check(compared >= ROW_SAMPLES.min(system.len()), || {
        format!("only {compared} resident rows compared")
    });
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The counts-and-ratios block every traced run prints, from the merged
/// reports of its measured phase.
fn report_counts(totals: &Totals, prefetches_issued: u64, values: &mut Values) {
    let keys = totals.stats.total();
    values.set(
        "buffer.cache_hit_share",
        share(totals.stats.cache_hits, keys),
    );
    values.set(
        "buffer.prefetch_hit_share",
        share(totals.stats.prefetch_hits, keys),
    );
    values.set("buffer.prefetches_issued", prefetches_issued as f64);
    values.set(
        "buffer.prefetch_useful_share",
        share(totals.stats.prefetch_hits, prefetches_issued),
    );
    values.set(
        "plane.guided_share",
        share(totals.guided_chunks, totals.total_chunks),
    );
    values.set("plane.model_forwards", totals.model_forwards as f64);
    values.set(
        "plane.mean_batch",
        share(totals.plane_chunks, totals.drains),
    );
    values.set("plane.late_chunks", totals.late_chunks as f64);
    let fast = totals.tiers.first().copied().unwrap_or_default();
    values.set("tier.fast_hit_share", share(fast.hits, keys));
    let cost_ns: u64 = totals.tiers.iter().map(|t| t.cost_ns).sum();
    let cost_per_key = share(cost_ns, keys);
    values.set("tier.cost_ns_per_key", cost_per_key);
    let wall_ns_per_key = totals.secs * 1e9 / keys.max(1) as f64;
    values.set(
        "tier.model_vs_wall",
        cost_per_key / wall_ns_per_key.max(1e-9),
    );
    values.set("fill.queued", totals.fills.queued as f64);
    values.set("fill.coalesced", totals.fills.coalesced as f64);
    values.set("fill.dropped", totals.fills.dropped as f64);
    values.set("fill.promoted", totals.fills.promoted as f64);
    values.set(
        "fill.useful_share",
        share(
            totals.fills.promoted,
            totals.fills.queued + totals.fills.dropped,
        ),
    );
}

/// Where the measured phase's time goes: micro-cost × operation count
/// from the reports, over the time spent inside the program.
///
/// The layers are kept disjoint: `RecMgBuffer::access` includes a sketch
/// observation and a heap row copy, so those are subtracted from the
/// buffer's share and counted once, under their own layers. The plane
/// and fill threads run beside the worker, so the shares of a
/// background-guided workload can add up to more than one — the
/// unattributed share is then negative and says how much overlapped.
fn attribute(spec: &Spec, totals: &Totals, micro: &Values, values: &mut Values) {
    let cost = |name: &str| micro.get(name).unwrap_or(0.0);
    let wall_ns = totals.secs * 1e9;
    let keys = totals.stats.total() as f64;

    // Guidance: forwards at the plane's mean batch, priced between the
    // B1 and B8 per-chunk costs. Prefetch forwards run on the armed
    // subset; the report counts them per drain, not per chunk.
    let mean_batch = share(totals.plane_chunks, totals.drains).clamp(1.0, 8.0);
    let at_batch = |b1: &str, b8: &str| {
        let t = (mean_batch - 1.0) / 7.0;
        (cost(b1) * (1.0 - t) + cost(b8) * t) * 1e3
    };
    let guided = totals.guided_chunks as f64;
    let prefetch_forwards = totals.model_forwards.saturating_sub(totals.drains);
    let armed_share = if matches!(spec.guidance, recmg_core::GuidanceMode::Inline) {
        0.0
    } else {
        share(prefetch_forwards, totals.drains)
    };
    let guidance_ns = guided
        * (at_batch(
            "guidance.caching_us_per_chunk_b1",
            "guidance.caching_us_per_chunk_b8",
        ) + armed_share
            * at_batch(
                "guidance.prefetch_us_per_chunk_b1",
                "guidance.prefetch_us_per_chunk_b8",
            ));

    let router_sketch_ns =
        keys * (cost("router.split_into_ns_per_key") + cost("sketch.observe_ns"));

    // Backend: a hit reads the row, a blocking miss writes then reads it
    // back, a landed fill (prefetch or async) writes it.
    let tier_backends: [(&str, &str); 3] = [
        ("backend.dram_read_ns", "backend.dram_write_ns"),
        ("backend.mmap_read_ns", "backend.mmap_write_ns"),
        ("backend.file_read_ns", "backend.file_write_ns"),
    ];
    let blocking = matches!(spec.fill, recmg_core::FillMode::Blocking);
    let mut backend_ns = 0.0;
    for (i, tier) in totals.tiers.iter().enumerate() {
        // Single-tier systems are heap; the ladder's rungs map 1:1.
        let (read, write) = tier_backends[i.min(2)];
        let installs = tier.prefetch_fills + tier.demand_fills;
        backend_ns += tier.hits as f64 * cost(read) + installs as f64 * cost(write);
        if blocking {
            backend_ns += tier.misses as f64 * (cost(write) + cost(read));
        }
    }

    let heap_read = cost("backend.dram_read_ns");
    let heap_write = cost("backend.dram_write_ns");
    let sketch = cost("sketch.observe_ns");
    let hit_ns = (cost("recmg_buffer.access_hit_ns") - sketch - heap_read).max(0.0);
    let miss_ns = (cost("recmg_buffer.access_miss_ns") - sketch - heap_read - heap_write).max(0.0);
    let buffer_ns = totals.stats.hits() as f64 * hit_ns
        + totals.stats.misses as f64 * miss_ns
        + guided * cost("recmg_buffer.load_embeddings_us_per_chunk") * 1e3;

    let of_wall = |ns: f64| ns / wall_ns.max(1.0);
    values.set("attrib.guidance_share", of_wall(guidance_ns));
    values.set("attrib.buffer_share", of_wall(buffer_ns));
    values.set("attrib.backend_share", of_wall(backend_ns));
    values.set("attrib.router_sketch_share", of_wall(router_sketch_ns));
    values.set(
        "attrib.unattributed_share",
        1.0 - of_wall(guidance_ns + buffer_ns + backend_ns + router_sketch_ns),
    );
}

/// The `#` line that says how far into the tail the samples reach.
pub(crate) fn latency_note(kind: &str, latency: &LatencySummary) -> String {
    let reach = match highest_supported_percentile(latency.count) {
        Some(p) => format!("highest percentile with >= 10 samples beyond it is p{p}"),
        None => "too few samples for any percentile".to_string(),
    };
    format!(
        "latency over {} {kind}: {reach}; p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        latency.count,
        ms(latency.p95),
        ms(latency.p99),
        ms(latency.max)
    )
}

pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What a measured phase hands to the shared tail of [`run`].
pub(crate) struct Measured {
    pub(crate) totals: Totals,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// 1 − traced / untraced speed (traced run only).
    pub(crate) overhead: f64,
    /// Allocations per key in the traced slices (traced run only).
    pub(crate) allocs_per_key: f64,
}

/// The closed-loop measured phase and its end-to-end metrics.
fn run_serve(spec: &Spec, built: &mut Built, args: &RunArgs, ctx: &mut Ctx) -> Measured {
    let Ctx {
        rec,
        checks,
        values,
        notes,
    } = ctx;
    let phase = measure_serve(spec, built, args.seconds, args.trace, rec);
    let all = phase.totals;
    checks.check(all.stats.total() == all.offered_keys, || {
        format!(
            "hits + misses = {} but {} keys were offered",
            all.stats.total(),
            all.offered_keys
        )
    });
    // The same order statistics the session reports for requests.
    let calls = LatencySummary::from_durations(phase.call_times);
    values.set("keys_per_s", all.stats.total() as f64 / phase.wall_secs);
    values.set("latency_p50_ms", ms(calls.p50));
    values.set("latency.mean_ms", ms(calls.mean));
    values.set("latency.p99_ms", ms(calls.p99));
    // Batch mode has no deadline and refuses nothing.
    values.set("sla_ok_share", 1.0);
    values.set("served_share", 1.0);
    values.set("miss_share", share(all.stats.misses, all.stats.total()));
    notes.push(latency_note("serve() calls", &calls));
    // No session, no queue, no arrival schedule in batch mode.
    for def in &crate::metrics::PER_LAYER {
        if ["session.", "open.", "loadgen."]
            .iter()
            .any(|prefix| def.name.starts_with(prefix))
        {
            values.set(def.name, 0.0);
        }
    }
    Measured {
        attempted: all.calls,
        failed: 0,
        overhead: 1.0 - phase.on.keys_per_s() / phase.off.keys_per_s().max(1e-9),
        allocs_per_key: share(phase.allocs_on, phase.on.keys),
        totals: all,
    }
}

/// Runs one workload once. Never panics on a failed check: failures are
/// returned so the caller can print the result and exit non-zero.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let spec = workloads::spec(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (one of {})",
            args.workload,
            workloads::WORKLOADS.join(", ")
        )
    })?;
    let scale = if args.quick { 0.1 } else { 1.0 };
    let files_at_start = live_backend_files();

    alloc::set_enabled(args.trace);
    let mut ctx = Ctx {
        rec: Recorder::new(args.trace),
        checks: Checks::default(),
        values: Values::default(),
        notes: Vec::new(),
    };

    // Set-up, several times over so `setup_s` is a median (cheap set-ups
    // repeat more often); the last one built is the one measured.
    let mut setup_secs = Vec::new();
    let mut built: Option<Built> = None;
    loop {
        drop(built.take());
        let start = Instant::now();
        let next = set_up(&spec, args.seed, scale, &mut ctx.rec);
        setup_secs.push(start.elapsed().as_secs_f64());
        built = Some(next);
        let total: f64 = setup_secs.iter().sum();
        let reps = setup_secs.len();
        if args.trace || args.quick || (reps >= 3 && (total >= 1.5 || reps >= 9)) {
            break;
        }
    }
    let mut built = built.expect("at least one set-up ran");
    ctx.values.set("setup_s", median(&setup_secs));
    ctx.notes.push(format!(
        "set-up repeated {} times; stream hash {:016x} over {} keys",
        setup_secs.len(),
        built.inputs.stream_hash(),
        built.inputs.keys().len()
    ));

    let issued_before = built.system.prefetches_issued();
    let measured = match spec.mode {
        Mode::Serve { .. } => run_serve(&spec, &mut built, args, &mut ctx),
        Mode::OpenLoop => {
            let trace = built
                .inputs
                .trace
                .take()
                .expect("open-loop inputs carry a trace");
            let (system, measured) = run_open(&spec, built.system, &trace, args, &mut ctx);
            built.system = system;
            measured
        }
    };
    ctx.checks.check(measured.attempted >= 1, || {
        "nothing was attempted".to_string()
    });
    ctx.values.set("peak_rss_mb", peak_rss_mb());

    check_system(&spec, &built.system, &mut ctx.checks);
    ctx.rec.enter("check.oracle", 0);
    oracle(&spec, &built, &mut ctx.checks, &mut ctx.values);
    ctx.rec.exit();

    if args.trace {
        let issued = built.system.prefetches_issued() - issued_before;
        report_counts(&measured.totals, issued, &mut ctx.values);
        let micro = micro::run_all(
            &mut ctx.rec,
            built.inputs.keys(),
            &built.models,
            spec.shards,
            (built.system.capacity() / spec.shards).max(1),
            args.seed,
            args.quick,
        );
        attribute(&spec, &measured.totals, &micro, &mut ctx.values);
        ctx.values.extend(micro);
        ctx.values.set("trace.overhead_share", measured.overhead);
        ctx.values
            .set("mem.allocs_per_key", measured.allocs_per_key);
        ctx.values.set(
            "mem.live_peak_mb",
            alloc::live_peak_bytes() as f64 / (1024.0 * 1024.0),
        );
    }
    alloc::set_enabled(false);

    drop(built);
    ctx.checks
        .check(live_backend_files() == files_at_start, || {
            format!(
                "{} backend files still live after the system dropped",
                live_backend_files() - files_at_start
            )
        });

    if args.trace {
        let path = args.out.join(format!("{}.spans.jsonl", spec.name));
        ctx.rec
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        for (name, self_ns, count) in crate::spans::self_time_by_name(ctx.rec.spans()) {
            if !name.starts_with("micro.") {
                ctx.notes.push(format!(
                    "span {name}: {count} x, self time {:.3} ms",
                    self_ns as f64 / 1e6
                ));
            }
        }
    }

    Ok(Outcome {
        values: ctx.values,
        attempted: measured.attempted,
        failed: measured.failed,
        failures: ctx.checks.failures,
        notes: ctx.notes,
    })
}
