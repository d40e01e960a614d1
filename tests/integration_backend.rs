//! Software-defined memory backends: storage is swappable, serving is not.
//!
//! The load-bearing property is **backend parity on one shard**: the
//! [`TierBackend`] behind a buffer decides where row bytes live (heap,
//! `mmap`'d file, plain file) and how much an access costs — never which
//! keys hit, miss, or get prefetched, and never what bytes come back.
//! With identical injected [`TierCost::synthetic`] costs, the same
//! access stream through all three backends must produce identical
//! hit/miss/prefetch counts and bit-identical resident rows.
//!
//! The async-fill conservation suite then pins the fill plane's
//! accounting: every access is exactly one hit or one miss, every miss
//! is accounted to the queue (queued + coalesced + dropped), and every
//! promotion that landed is a demand fill some tier recorded.

use proptest::prelude::*;

use recmg_repro::core::{
    live_backend_files, AdmissionPolicy, BackendSpec, BatchSource, CachingModel, EvenSplit,
    FillMode, FrequencyRankCodec, GuidanceMode, MemoryTier, ServeOptions, SessionBuilder,
    ShardedRecMgSystem, SystemBuilder, TierCost, TierTopology,
};
use recmg_repro::dlrm::{BatchAccessStats, BufferManager};
use recmg_repro::trace::{RowId, SyntheticConfig, TableId, VectorKey};

fn key_strategy() -> impl Strategy<Value = VectorKey> {
    (0u32..8, 0u64..256).prop_map(|(t, r)| VectorKey::new(TableId(t), RowId(r)))
}

/// Serializes the tests that create file-backed storage: the leak test
/// compares [`live_backend_files`] (a process-global counter) against a
/// baseline, so no other test may hold backing files concurrently.
static FILE_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn file_test_guard() -> std::sync::MutexGuard<'static, ()> {
    FILE_TESTS.lock().unwrap_or_else(|e| e.into_inner())
}

/// A 1-shard system whose single tier stores rows on `backend`, with a
/// fixed injected cost (no calibration — decisions and accounting must be
/// deterministic across backends).
fn one_shard_on(
    caching: &CachingModel,
    codec: FrequencyRankCodec,
    backend: BackendSpec,
) -> ShardedRecMgSystem {
    let tier =
        MemoryTier::new("probe", 24, TierCost::synthetic(100, 900, 400)).with_backend(backend);
    SystemBuilder::new(caching, None, codec)
        .shards(1)
        .topology(TierTopology::new(vec![tier]))
        .placement(EvenSplit)
        .guidance(GuidanceMode::Inline)
        .build()
}

const ALL_BACKENDS: [BackendSpec; 3] = [
    BackendSpec::Dram,
    BackendSpec::MappedFile,
    BackendSpec::File,
];

/// The parity oracle: same stream, three backends, identical outcomes —
/// counts, cost accounting, and the actual row bytes.
#[test]
fn backends_are_bit_identical_under_the_same_stream() {
    let _files = file_test_guard();
    let cfg = recmg_repro::core::RecMgConfig::tiny();
    let caching = CachingModel::new(&cfg);
    let codec = FrequencyRankCodec::from_accesses(&[VectorKey::new(TableId(0), RowId(1))]);
    let trace = SyntheticConfig::tiny(77).generate();

    let mut outcomes = Vec::new();
    for backend in ALL_BACKENDS {
        let mut sys = one_shard_on(&caching, codec.clone(), backend);
        assert_eq!(sys.shard_recmg_buffer(0).backend_spec(), backend);
        let mut stats = BatchAccessStats::default();
        for batch in trace.batches(16) {
            stats.accumulate(sys.process_batch(batch));
        }
        let usage = sys.tier_usage();
        let resident: Vec<(VectorKey, [u8; recmg_repro::core::ROW_BYTES])> = {
            let buffer = sys.shard_recmg_buffer(0);
            let mut keys: Vec<VectorKey> = buffer.buffer().keys().collect();
            keys.sort();
            keys.iter()
                .map(|&k| (k, buffer.read_row(k).expect("resident key has a row")))
                .collect()
        };
        outcomes.push((backend, stats, usage, resident));
    }

    let (_, ref_stats, ref_usage, ref_resident) = &outcomes[0];
    for (backend, stats, usage, resident) in &outcomes[1..] {
        let name = backend.name();
        assert_eq!(stats.hits(), ref_stats.hits(), "{name}: hits diverge");
        assert_eq!(stats.misses, ref_stats.misses, "{name}: misses diverge");
        assert_eq!(
            stats.prefetch_hits, ref_stats.prefetch_hits,
            "{name}: prefetch hits diverge"
        );
        assert_eq!(
            usage[0].traffic.cost_ns, ref_usage[0].traffic.cost_ns,
            "{name}: identical injected costs must give identical accounting"
        );
        assert_eq!(
            resident, ref_resident,
            "{name}: resident rows must be bit-identical"
        );
    }
}

/// Every row read back from any backend is the deterministic synthesis of
/// its key — the contract that makes rebuild-don't-copy migration sound.
#[test]
fn rows_match_their_synthesized_bytes_on_every_backend() {
    let _files = file_test_guard();
    let cfg = recmg_repro::core::RecMgConfig::tiny();
    let caching = CachingModel::new(&cfg);
    let codec = FrequencyRankCodec::from_accesses(&[VectorKey::new(TableId(0), RowId(1))]);
    for backend in ALL_BACKENDS {
        let mut sys = one_shard_on(&caching, codec.clone(), backend);
        let keys: Vec<VectorKey> = (0..20)
            .map(|r| VectorKey::new(TableId(3), RowId(r)))
            .collect();
        sys.process_batch(&keys);
        let buffer = sys.shard_recmg_buffer(0);
        for key in buffer.buffer().keys() {
            let row = buffer.read_row(key).expect("resident");
            let mut expect = [0u8; recmg_repro::core::ROW_BYTES];
            recmg_repro::core::synth_row(key, &mut expect);
            assert_eq!(row, expect, "{}: stored row differs", backend.name());
        }
    }
}

/// File-backed systems clean up after themselves: dropping the system
/// returns the live backing-file count to its baseline — also right after
/// a system whose `serve()` runtime still runs is dropped, since the drop
/// joins the runtime's threads.
#[test]
fn dropping_file_backed_systems_leaks_no_files() {
    let _files = file_test_guard();
    let cfg = recmg_repro::core::RecMgConfig::tiny();
    let caching = CachingModel::new(&cfg);
    let codec = FrequencyRankCodec::from_accesses(&[VectorKey::new(TableId(0), RowId(1))]);
    let baseline = live_backend_files();
    {
        let mut sys = one_shard_on(&caching, codec.clone(), BackendSpec::MappedFile);
        let mut sys2 = one_shard_on(&caching, codec, BackendSpec::File);
        assert!(live_backend_files() >= baseline + 2);
        let keys: Vec<VectorKey> = (0..12)
            .map(|r| VectorKey::new(TableId(1), RowId(r)))
            .collect();
        sys.process_batch(&keys);
        sys2.process_batch(&keys);
        let background = ServeOptions {
            workers: 2,
            guidance: GuidanceMode::Background {
                threads: 1,
                max_lag: 4,
                max_batch: 4,
            },
        };
        sys2.serve(&[&keys, &keys], &background);
    }
    assert_eq!(
        live_backend_files(),
        baseline,
        "backing files must die with their systems"
    );
}

/// A session dropped without a drain stops like a drained one: its
/// workers serve what was admitted and are joined before the drop
/// returns, so none is left waiting on the queue while it holds the
/// shards and their backing file.
#[test]
fn dropping_an_undrained_session_joins_its_threads() {
    let _files = file_test_guard();
    let cfg = recmg_repro::core::RecMgConfig::tiny();
    let caching = CachingModel::new(&cfg);
    let codec = FrequencyRankCodec::from_accesses(&[VectorKey::new(TableId(0), RowId(1))]);
    let baseline = live_backend_files();
    let system = one_shard_on(&caching, codec, BackendSpec::File);
    assert_eq!(live_backend_files(), baseline + 1);
    let session = SessionBuilder::new().workers(2).build(system);
    let keys: Vec<VectorKey> = (0..64)
        .map(|r| VectorKey::new(TableId(2), RowId(r)))
        .collect();
    let batches: Vec<&[VectorKey]> = keys.chunks(8).collect();
    session.ingest(&mut BatchSource::new(&batches));
    drop(session);
    assert_eq!(
        live_backend_files(),
        baseline,
        "a dropped session's threads still hold the shards"
    );
}

/// Drives a full async-fill serving session and returns the report.
fn async_session_report(
    keys: &[VectorKey],
    queue_depth: usize,
) -> recmg_repro::core::SessionReport {
    let cfg = recmg_repro::core::RecMgConfig::tiny();
    let caching = CachingModel::new(&cfg);
    let codec = FrequencyRankCodec::from_accesses(&[VectorKey::new(TableId(0), RowId(1))]);
    let system = SystemBuilder::new(&caching, None, codec)
        .shards(2)
        .topology(TierTopology::two_tier(8, 16))
        .fill_mode(FillMode::Async {
            threads: 2,
            queue_depth,
        })
        .guidance(GuidanceMode::Inline)
        .build();
    let session = SessionBuilder::new()
        .workers(2)
        .admission(AdmissionPolicy::unbounded())
        .build(system);
    let batches: Vec<&[VectorKey]> = keys.chunks(16).collect();
    session.ingest(&mut BatchSource::new(&batches));
    let (_system, report) = session.drain();
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Async-fill conservation: every access is exactly one hit or miss,
    /// every miss is accounted to the fill queue, and every landed
    /// promotion is a demand fill some tier recorded. Holds at any queue
    /// depth — a tiny queue just shifts weight from `queued` to `dropped`.
    #[test]
    fn async_fill_conserves_every_access(
        keys in prop::collection::vec(key_strategy(), 1..300),
        queue_depth in 1usize..64,
    ) {
        let report = async_session_report(&keys, queue_depth);
        let stats = &report.engine.stats;
        prop_assert_eq!(stats.total(), keys.len() as u64);
        prop_assert_eq!(stats.hits() + stats.misses, keys.len() as u64);

        let fills = &report.engine.fills;
        prop_assert_eq!(
            fills.queued + fills.coalesced + fills.dropped,
            stats.misses,
            "every miss routes through the fill queue exactly once"
        );
        let demand_fills: u64 = report.engine.tiers.iter().map(|t| t.traffic.demand_fills).sum();
        prop_assert_eq!(fills.promoted, demand_fills, "a promotion IS a demand fill");
        prop_assert!(fills.promoted <= fills.queued, "only queued fills can land");
        prop_assert!(demand_fills <= stats.misses);
    }
}
