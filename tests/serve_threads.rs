//! The runtime a system holds across `serve()` calls: after the first
//! call starts its threads — serving workers, the guidance plane and the
//! async fill threads — later calls with the same options submit to them
//! and spawn none.
//!
//! This is its own test binary, with one test, because it compares the
//! process's whole thread set: no other test may start threads meanwhile.

use recmg_repro::core::{
    CachingModel, FillMode, FrequencyRankCodec, GuidanceMode, PrefetchModel, RecMgConfig,
    ServeOptions, ShardedRecMgSystem,
};
use recmg_repro::trace::SyntheticConfig;

/// Thread ids of this process, sorted.
#[cfg(target_os = "linux")]
fn threads() -> Vec<u64> {
    let mut tids: Vec<u64> = std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .map(|entry| {
            let name = entry.expect("task entry").file_name();
            name.to_string_lossy().parse().expect("numeric thread id")
        })
        .collect();
    tids.sort_unstable();
    tids
}

#[cfg(target_os = "linux")]
#[test]
fn serve_spawns_no_thread_after_the_first_call() {
    let cfg = RecMgConfig::tiny();
    let trace = SyntheticConfig::tiny(51).generate();
    let codec = FrequencyRankCodec::from_accesses(&trace.accesses()[..500]);
    let (caching, prefetch) = (CachingModel::new(&cfg), PrefetchModel::new(&cfg));
    let mut sys = ShardedRecMgSystem::builder(&caching, Some(&prefetch), codec)
        .shards(2)
        .capacity(64)
        .fill_mode(FillMode::Async {
            threads: 1,
            queue_depth: 64,
        })
        .build();
    let opts = ServeOptions {
        workers: 2,
        guidance: GuidanceMode::Background {
            threads: 1,
            max_lag: 4,
            max_batch: 4,
        },
    };
    let batches = trace.batches(10);
    let calls: Vec<&[&[_]]> = batches.chunks(4).cycle().take(101).collect();
    let before = threads();
    sys.serve(calls[0], &opts);
    let started = threads();
    // Two workers, one plane thread, one fill thread.
    assert_eq!(started.len(), before.len() + 4, "{before:?} -> {started:?}");
    let mut served = 0;
    for call in &calls[1..] {
        served += sys.serve(call, &opts).stats.total();
        assert_eq!(threads(), started, "a serve() call spawned a thread");
    }
    let expected: usize = calls[1..]
        .iter()
        .flat_map(|c| c.iter())
        .map(|b| b.len())
        .sum();
    assert_eq!(served, expected as u64);
    drop(sys);
    // A joined thread can linger in procfs for a moment after its join
    // returns, so give the listing a short while to catch up.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while threads() != before {
        assert!(
            std::time::Instant::now() < deadline,
            "dropping the system left a runtime thread"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
