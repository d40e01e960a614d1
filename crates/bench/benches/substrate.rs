//! Substrate micro-benchmarks: the hot paths every experiment leans on
//! (cache access, OPTgen labeling, reuse-distance analysis, buffer
//! populate, and the fast model forward).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use recmg_cache::{optgen, CachePolicy, FullyAssocLru, GpuBuffer, SetAssocLru};
use recmg_core::{CachingModel, FastScratch, PrefetchModel, RecMgConfig};
use recmg_trace::{reuse_distances, RowId, SyntheticConfig, TableId, VectorKey};

fn bench_substrate(c: &mut Criterion) {
    let trace = SyntheticConfig::dataset_scaled(0, 0.02).generate();
    let acc = trace.accesses();
    let mut group = c.benchmark_group("substrate");
    group.sample_size(15);

    group.bench_function("lru_full_10k_accesses", |b| {
        b.iter(|| {
            let mut lru = FullyAssocLru::new(1024);
            for &k in acc.iter().take(10_000) {
                black_box(lru.access(k));
            }
        });
    });

    group.bench_function("lru_32way_10k_accesses", |b| {
        b.iter(|| {
            let mut lru = SetAssocLru::new(1024, 32);
            for &k in acc.iter().take(10_000) {
                black_box(lru.access(k));
            }
        });
    });

    group.bench_function("optgen_label_10k", |b| {
        b.iter(|| black_box(optgen(&acc[..10_000.min(acc.len())], 1024)));
    });

    group.bench_function("reuse_distances_10k", |b| {
        b.iter(|| black_box(reuse_distances(&acc[..10_000.min(acc.len())])));
    });

    group.bench_function("gpu_buffer_populate_cycle", |b| {
        let keys: Vec<VectorKey> = (0..2_000u64)
            .map(|r| VectorKey::new(TableId(0), RowId(r)))
            .collect();
        b.iter(|| {
            let mut buf = GpuBuffer::new(1_000);
            for &k in &keys {
                if buf.is_full() {
                    black_box(buf.populate());
                }
                buf.insert(k, 4, false);
            }
        });
    });

    // The guidance kernels' batch curve (default config, f32, the plane's
    // entry points over a held scratch): one sample is `REPS` forwards of
    // `bsz` chunks, so µs/chunk = 1e6 / the printed elem/s.
    const REPS: usize = 100;
    let cfg = RecMgConfig::default();
    let cm = CachingModel::new(&cfg).compile();
    let pm = PrefetchModel::new(&cfg).compile();
    let chunks: Vec<&[VectorKey]> = acc.chunks_exact(cfg.input_len).take(32).collect();
    let mut scratch = FastScratch::default();
    for bsz in [1usize, 2, 4, 5, 8, 16, 32] {
        group.throughput(Throughput::Elements((REPS * bsz) as u64));
        let id = BenchmarkId::new("caching_model_fast_forward", bsz);
        group.bench_with_input(id, &chunks[..bsz], |b, batch| {
            b.iter(|| {
                for _ in 0..REPS {
                    black_box(cm.probs_batch_with(batch, &mut scratch));
                }
            });
        });
        let id = BenchmarkId::new("prefetch_model_fast_forward", bsz);
        group.bench_with_input(id, &chunks[..bsz], |b, batch| {
            b.iter(|| {
                for _ in 0..REPS {
                    black_box(pm.codes_batch_with(batch, &mut scratch));
                }
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_substrate);
criterion_main!(benches);
