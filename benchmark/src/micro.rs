//! Per-layer micro-costs: each layer's public operations timed from
//! outside, over keys drawn from the workload's own stream.
//!
//! Every cost is the median of `REPS` time-boxed repetitions. Numbers
//! for the file-backed rungs are this sandbox's page-cache latency, not
//! a device's.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use recmg_cache::GpuBuffer;
use recmg_core::migrate::RouteTable;
use recmg_core::{
    parse_criteo_line, AdmissionPolicy, CachingModel, DramBackend, FastScratch, FileBackend,
    FrequencyRankCodec, GuidanceMode, GuidancePrecision, PrefetchModel, RecMgBuffer, RecMgConfig,
    Request, SessionBuilder, ShardRouter, SketchConfig, SystemBuilder, TableProfiler, TierBackend,
    WorkingSetTracker, ROW_BYTES,
};
use recmg_trace::{SyntheticConfig, VectorKey};

use crate::metrics::Values;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{ladder_topology, Models};

/// Repetitions per micro-cost; the median is reported.
const REPS: usize = 5;
/// Operations between two clock reads.
const BATCH: usize = 1_024;
/// Stream prefix the micro-costs draw keys from.
const PREFIX: usize = 200_000;
/// Row slots of the backends under test (the ladder's file rung).
const BACKEND_ROWS: usize = 4_096;

/// Runs `batch` (which returns how many operations it did) until `budget`
/// has passed, `REPS` times; median nanoseconds per operation.
fn cost_ns(
    rec: &mut Recorder,
    span: &'static str,
    budget: Duration,
    mut batch: impl FnMut() -> usize,
) -> f64 {
    rec.enter(span, 0);
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let mut ops = 0usize;
            loop {
                ops += batch();
                let elapsed = start.elapsed();
                if elapsed >= budget {
                    break elapsed.as_nanos() as f64 / ops.max(1) as f64;
                }
            }
        })
        .collect();
    rec.exit();
    median(&reps)
}

/// Walks `list` in `BATCH`-sized windows, wrapping at the end, without a
/// division per element.
struct Cycle<'a, T> {
    list: &'a [T],
    at: usize,
}

impl<'a, T> Cycle<'a, T> {
    fn new(list: &'a [T]) -> Self {
        assert!(!list.is_empty(), "micro-cost over an empty key list");
        Cycle { list, at: 0 }
    }

    fn next_window(&mut self, len: usize) -> &'a [T] {
        if self.at >= self.list.len() {
            self.at = 0;
        }
        let end = (self.at + len).min(self.list.len());
        let window = &self.list[self.at..end];
        self.at = end;
        window
    }
}

/// Keys of the stream prefix, split by residency in a buffer warmed with
/// the first `cap` unique keys.
struct KeySets {
    /// Unique keys in first-seen order (at least `2 × cap` of them).
    uniq: Vec<VectorKey>,
    cap: usize,
    /// Stream keys that hit a buffer holding `uniq[..cap]`.
    hits: Vec<VectorKey>,
    /// Stream keys that miss it.
    misses: Vec<VectorKey>,
}

impl KeySets {
    fn new(keys: &[VectorKey], shard_capacity: usize) -> Self {
        let mut seen = HashSet::new();
        let uniq: Vec<VectorKey> = keys.iter().copied().filter(|k| seen.insert(*k)).collect();
        let cap = shard_capacity.min(uniq.len() / 2).max(1);
        let resident: HashSet<VectorKey> = uniq[..cap].iter().copied().collect();
        let (hits, misses) = keys.iter().partition(|k| resident.contains(k));
        KeySets {
            uniq,
            cap,
            hits,
            misses,
        }
    }
}

fn gpu_buffer(rec: &mut Recorder, budget: Duration, sets: &KeySets, out: &mut Values) {
    let mut buf = GpuBuffer::new(sets.cap);
    for &k in &sets.uniq[..sets.cap] {
        buf.insert(k, 4, false);
    }
    let mut hits = Cycle::new(&sets.hits);
    let hit = cost_ns(rec, "micro.gpu_buffer.lookup_hit", budget, || {
        let window = hits.next_window(BATCH);
        for &k in window {
            black_box(buf.lookup(black_box(k)));
        }
        window.len()
    });
    let mut misses = Cycle::new(&sets.misses);
    let miss = cost_ns(rec, "micro.gpu_buffer.lookup_miss", budget, || {
        let window = misses.next_window(BATCH);
        for &k in window {
            black_box(buf.lookup(black_box(k)));
        }
        window.len()
    });
    // Equal priorities make eviction FIFO, and the unique keys outnumber
    // the capacity two to one, so every key cycled in here was evicted
    // before it comes round again (`insert` asserts as much).
    let mut fresh = Cycle::new(&sets.uniq);
    fresh.at = sets.cap;
    let insert = cost_ns(rec, "micro.gpu_buffer.insert_evict", budget, || {
        let window = fresh.next_window(BATCH);
        for &k in window {
            black_box(buf.populate());
            buf.insert(k, 4, false);
        }
        window.len()
    });
    // On the churned buffer the insert loop leaves behind: residents are
    // spread over the stamps of the last few decay passes.
    let mut resident: Vec<VectorKey> = buf.keys().collect();
    resident.sort_unstable_by_key(|k| k.as_u64());
    let mut targets = Cycle::new(&resident);
    let mut flip = 0u64;
    let set_priority = cost_ns(rec, "micro.gpu_buffer.set_priority", budget, || {
        let window = targets.next_window(BATCH);
        for &k in window {
            flip += 1;
            black_box(buf.set_priority(k, if flip.is_multiple_of(2) { 0 } else { 5 }));
        }
        window.len()
    });
    out.set("gpu_buffer.lookup_hit_ns", hit);
    out.set("gpu_buffer.lookup_miss_ns", miss);
    out.set("gpu_buffer.insert_evict_ns", insert);
    out.set("gpu_buffer.set_priority_ns", set_priority);
}

fn recmg_buffer(
    rec: &mut Recorder,
    budget: Duration,
    sets: &KeySets,
    keys: &[VectorKey],
    cfg: &RecMgConfig,
    out: &mut Values,
) {
    let warmed = || {
        let mut buf = RecMgBuffer::new(sets.cap, cfg.eviction_speed);
        for &k in &sets.uniq[..sets.cap] {
            buf.access(k);
        }
        buf
    };
    let mut buf = warmed();
    let mut hits = Cycle::new(&sets.hits);
    let hit = cost_ns(rec, "micro.recmg_buffer.access_hit", budget, || {
        let window = hits.next_window(BATCH);
        for &k in window {
            black_box(buf.access(black_box(k)));
        }
        window.len()
    });
    // FIFO again (no guidance touches the priorities): cycling the unique
    // keys from `cap` on misses every time.
    let mut fresh = Cycle::new(&sets.uniq);
    fresh.at = sets.cap;
    let miss = cost_ns(rec, "micro.recmg_buffer.access_miss", budget, || {
        let window = fresh.next_window(BATCH);
        for &k in window {
            black_box(buf.access(black_box(k)));
        }
        window.len()
    });
    // Algorithm 1 as serving drives it: a chunk's demand accesses land
    // first (untimed), then its guidance is applied — alternating keep
    // bits, the next keys of the stream as predictions. Each call is
    // timed on its own so the accesses stay out of the cost.
    let mut buf = warmed();
    let chunks: Vec<&[VectorKey]> = keys.chunks_exact(cfg.input_len).collect();
    let bits: Vec<bool> = (0..cfg.input_len).map(|i| i % 2 == 0).collect();
    rec.enter("micro.recmg_buffer.load_embeddings", 0);
    let reps: Vec<f64> = (0..REPS)
        .map(|rep| {
            let start = Instant::now();
            let (mut spent, mut calls) = (Duration::ZERO, 0u32);
            let mut at = rep * 997 % chunks.len();
            while start.elapsed() < budget {
                let chunk = chunks[at];
                let predicted = &chunks[(at + 1) % chunks.len()][..cfg.output_len];
                for &k in chunk {
                    buf.access(k);
                }
                let t0 = Instant::now();
                buf.load_embeddings(chunk, &bits, predicted);
                spent += t0.elapsed();
                calls += 1;
                at = (at + 1) % chunks.len();
            }
            spent.as_nanos() as f64 / 1e3 / f64::from(calls.max(1))
        })
        .collect();
    rec.exit();
    out.set("recmg_buffer.access_hit_ns", hit);
    out.set("recmg_buffer.access_miss_ns", miss);
    out.set("recmg_buffer.load_embeddings_us_per_chunk", median(&reps));
}

/// The mapped-file rung exists where `recmg-core`'s build script says its
/// mmap FFI is sound; elsewhere the spec degrades to heap rows and so
/// does this probe.
#[cfg(any(
    target_os = "macos",
    all(target_os = "linux", target_pointer_width = "64")
))]
fn mapped_backend(rows: usize) -> Box<dyn TierBackend> {
    Box::new(recmg_core::MappedFileBackend::new(rows))
}

#[cfg(not(any(
    target_os = "macos",
    all(target_os = "linux", target_pointer_width = "64")
)))]
fn mapped_backend(rows: usize) -> Box<dyn TierBackend> {
    Box::new(DramBackend::new(rows))
}

fn backends(rec: &mut Recorder, budget: Duration, keys: &[VectorKey], out: &mut Values) {
    // Slot order follows the stream: the same key lands on the same slot.
    let slots: Vec<usize> = keys
        .iter()
        .map(|k| (k.as_u64().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) as usize % BACKEND_ROWS)
        .collect();
    let row = [0xa5u8; ROW_BYTES];
    let mut probe = |backend: &mut dyn TierBackend, read: &'static str, write: &'static str| {
        for slot in 0..BACKEND_ROWS {
            backend.write_row(slot, &row);
        }
        let mut buf = [0u8; ROW_BYTES];
        let mut at = Cycle::new(&slots);
        let read_ns = cost_ns(rec, read, budget, || {
            let window = at.next_window(BATCH);
            for &slot in window {
                backend.read_row(slot, &mut buf);
                black_box(&buf);
            }
            window.len()
        });
        let mut at = Cycle::new(&slots);
        let write_ns = cost_ns(rec, write, budget, || {
            let window = at.next_window(BATCH);
            for &slot in window {
                backend.write_row(slot, black_box(&row));
            }
            window.len()
        });
        (read_ns, write_ns)
    };
    let (r, w) = probe(
        &mut DramBackend::new(BACKEND_ROWS),
        "micro.backend.dram_read",
        "micro.backend.dram_write",
    );
    out.set("backend.dram_read_ns", r);
    out.set("backend.dram_write_ns", w);
    let (r, w) = probe(
        mapped_backend(BACKEND_ROWS).as_mut(),
        "micro.backend.mmap_read",
        "micro.backend.mmap_write",
    );
    out.set("backend.mmap_read_ns", r);
    out.set("backend.mmap_write_ns", w);
    let (r, w) = probe(
        &mut FileBackend::new(BACKEND_ROWS),
        "micro.backend.file_read",
        "micro.backend.file_write",
    );
    out.set("backend.file_read_ns", r);
    out.set("backend.file_write_ns", w);

    rec.enter("micro.backend.calibrate", 0);
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut topology = ladder_topology();
            let start = Instant::now();
            black_box(topology.calibrate());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rec.exit();
    out.set("backend.calibrate_ms", median(&reps));
}

fn sketch_and_router(
    rec: &mut Recorder,
    budget: Duration,
    keys: &[VectorKey],
    shards: usize,
    out: &mut Values,
) {
    let mut tracker = WorkingSetTracker::new(SketchConfig::default());
    let mut at = Cycle::new(keys);
    let observe = cost_ns(rec, "micro.sketch.observe", budget, || {
        let window = at.next_window(BATCH);
        for k in window {
            tracker.observe(black_box(k.as_u64()));
        }
        window.len()
    });
    black_box(tracker.unique_keys());
    out.set("sketch.observe_ns", observe);

    let tables = keys.iter().map(|k| k.table().0).max().unwrap_or(0) as usize + 1;
    let mut profiler = TableProfiler::new(tables);
    let mut at = Cycle::new(keys);
    let profile = cost_ns(rec, "micro.table_profile.observe", budget, || {
        let window = at.next_window(BATCH);
        for &k in window {
            profiler.observe(black_box(k));
        }
        window.len()
    });
    black_box(profiler.is_empty());
    out.set("table_profile.observe_ns", profile);

    let router = ShardRouter::new(shards);
    let mut at = Cycle::new(keys);
    let mut acc = 0usize;
    let shard_of = cost_ns(rec, "micro.router.shard_of", budget, || {
        let window = at.next_window(BATCH);
        for &k in window {
            acc = acc.wrapping_add(router.shard_of(black_box(k)));
        }
        window.len()
    });
    black_box(acc);
    out.set("router.shard_of_ns", shard_of);

    let mut parts = Vec::new();
    let mut at = Cycle::new(keys);
    let split = cost_ns(rec, "micro.router.split_into", budget, || {
        let window = at.next_window(BATCH);
        router.split_into(black_box(window), &mut parts);
        black_box(&parts);
        window.len()
    });
    out.set("router.split_into_ns_per_key", split);

    let table = RouteTable::new(shards);
    let pin = cost_ns(rec, "micro.route_table.pin", budget, || {
        for _ in 0..BATCH {
            let guard = table.pin();
            black_box(guard.route(0));
        }
        BATCH
    });
    out.set("route_table.pin_ns", pin);
}

fn guidance(
    rec: &mut Recorder,
    budget: Duration,
    keys: &[VectorKey],
    models: &Models,
    out: &mut Values,
) {
    let cfg = models.caching().config().clone();
    let fresh_prefetch;
    let fresh_codec;
    let (prefetch, codec): (&PrefetchModel, &FrequencyRankCodec) = match models {
        Models::Trained(t) => (&t.prefetch, &t.codec),
        // Forward cost does not depend on the weights' values.
        Models::Untrained(_, _) => {
            fresh_prefetch = PrefetchModel::new(&cfg);
            fresh_codec = FrequencyRankCodec::from_accesses(&keys[..2_000.min(keys.len())]);
            (&fresh_prefetch, &fresh_codec)
        }
    };
    let chunks: Vec<&[VectorKey]> = keys.chunks_exact(cfg.input_len).take(1_024).collect();
    let mut scratch = FastScratch::default();
    // Microseconds per chunk of one batched forward over `bsz` chunks.
    let mut run = |metric: &'static str,
                   span: &'static str,
                   bsz: usize,
                   forward: &dyn Fn(&[&[VectorKey]], &mut FastScratch)| {
        let mut at = Cycle::new(&chunks);
        let ns = cost_ns(rec, span, budget, || {
            let mut window = at.next_window(bsz);
            if window.len() < bsz {
                window = at.next_window(bsz);
            }
            forward(window, &mut scratch);
            window.len()
        });
        out.set(metric, ns / 1e3);
    };
    let cm = models.caching().compile_with(GuidancePrecision::F32);
    let pm = prefetch.compile_with(GuidancePrecision::F32);
    let cm8 = models.caching().compile_with(GuidancePrecision::Int8);
    let pm8 = prefetch.compile_with(GuidancePrecision::Int8);
    let caching = |m: &recmg_core::FastCachingModel, w: &[&[VectorKey]], s: &mut FastScratch| {
        black_box(m.predict_batch_with(w, s));
    };
    let prefetching =
        |m: &recmg_core::FastPrefetchModel, w: &[&[VectorKey]], s: &mut FastScratch| {
            black_box(m.predict_batch_with(w, codec, s));
        };
    run(
        "guidance.caching_us_per_chunk_b1",
        "micro.guidance.caching_b1",
        1,
        &|w, s| caching(&cm, w, s),
    );
    run(
        "guidance.caching_us_per_chunk_b8",
        "micro.guidance.caching_b8",
        8,
        &|w, s| caching(&cm, w, s),
    );
    run(
        "guidance.prefetch_us_per_chunk_b1",
        "micro.guidance.prefetch_b1",
        1,
        &|w, s| prefetching(&pm, w, s),
    );
    run(
        "guidance.prefetch_us_per_chunk_b8",
        "micro.guidance.prefetch_b8",
        8,
        &|w, s| prefetching(&pm, w, s),
    );
    run(
        "guidance.caching_int8_us_per_chunk_b8",
        "micro.guidance.caching_int8_b8",
        8,
        &|w, s| caching(&cm8, w, s),
    );
    run(
        "guidance.prefetch_int8_us_per_chunk_b8",
        "micro.guidance.prefetch_int8_b8",
        8,
        &|w, s| prefetching(&pm8, w, s),
    );
}

fn trace_layer(rec: &mut Recorder, budget: Duration, seed: u64, out: &mut Values) {
    const ACCESSES: usize = 50_000;
    let cfg = SyntheticConfig {
        num_accesses: ACCESSES,
        seed,
        ..SyntheticConfig::dataset(0)
    };
    let generate = cost_ns(rec, "micro.trace.generate", budget, || {
        black_box(cfg.generate());
        ACCESSES
    });
    out.set("trace.generate_keys_per_s", 1e9 / generate);

    // Criteo TSV: label, 13 dense columns, 26 hex categorical tokens.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let lines: Vec<String> = (0..2_000)
        .map(|_| {
            let mut line = format!("{}", next() % 2);
            for _ in 0..13 {
                line.push_str(&format!("\t{}", next() % 1_000));
            }
            for _ in 0..26 {
                line.push_str(&format!("\t{:08x}", next() as u32));
            }
            line
        })
        .collect();
    let mut at = Cycle::new(&lines);
    let parse = cost_ns(rec, "micro.trace.parse_criteo", budget, || {
        let window = at.next_window(256);
        for line in window {
            black_box(parse_criteo_line(black_box(line), 1 << 20));
        }
        window.len()
    });
    out.set("trace.parse_criteo_lines_per_s", 1e9 / parse);
}

/// `submit` of 1-key requests into an unbounded queue while one worker
/// drains it: the admission path a request pays before any serving.
fn session_submit(rec: &mut Recorder, keys: &[VectorKey], quick: bool, out: &mut Values) {
    let requests = if quick { 2_000 } else { 20_000 };
    let cfg = RecMgConfig::default();
    let caching = CachingModel::new(&cfg);
    rec.enter("micro.session.submit", 0);
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let codec = FrequencyRankCodec::from_accesses(&keys[..2_000.min(keys.len())]);
            let mut system = SystemBuilder::new(&caching, None, codec)
                .capacity(1_024)
                .build();
            system.set_guidance_stride(1 << 30);
            let session = SessionBuilder::new()
                .workers(1)
                .guidance(GuidanceMode::Inline)
                .admission(AdmissionPolicy::unbounded())
                .build(system);
            let batch: Vec<Request> = keys
                .iter()
                .cycle()
                .take(requests)
                .enumerate()
                .map(|(id, &k)| Request {
                    id: id as u64,
                    keys: vec![k],
                    arrival: Duration::ZERO,
                    deadline: None,
                    tenant: 0,
                })
                .collect();
            let start = Instant::now();
            for request in batch {
                session
                    .submit(request)
                    .expect("an unbounded queue admits everything");
            }
            let ns = start.elapsed().as_nanos() as f64 / requests as f64;
            let (_system, report) = session.drain();
            assert_eq!(report.completed as usize, requests, "every request served");
            ns
        })
        .collect();
    rec.exit();
    out.set("session.submit_ns", median(&reps));
}

/// Every micro-cost, over the first `PREFIX` keys of `keys`.
pub fn run_all(
    rec: &mut Recorder,
    keys: &[VectorKey],
    models: &Models,
    shards: usize,
    shard_capacity: usize,
    seed: u64,
    quick: bool,
) -> Values {
    let budget = Duration::from_millis(if quick { 3 } else { 30 });
    let keys = &keys[..PREFIX.min(keys.len())];
    let sets = KeySets::new(keys, shard_capacity);
    let cfg = models.caching().config().clone();
    let mut out = Values::default();
    gpu_buffer(rec, budget, &sets, &mut out);
    recmg_buffer(rec, budget, &sets, keys, &cfg, &mut out);
    backends(rec, budget, keys, &mut out);
    sketch_and_router(rec, budget, keys, shards, &mut out);
    guidance(rec, budget, keys, models, &mut out);
    trace_layer(rec, budget, seed, &mut out);
    session_submit(rec, keys, quick, &mut out);
    out
}
