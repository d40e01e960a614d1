//! Batch-mode serving API over the streaming session.
//!
//! The paper's deployment overlaps CPU model inference with GPU batch
//! execution and never blocks the GPU: "the DLRM inference does not wait
//! for the CPU completion. Instead, GPU moves on to the next DLRM inference
//! batch, and CPU moves on to infer for the future batch". That
//! non-blocking skip-ahead rule (§VI-C) is implemented by the streaming
//! [`ServingSession`](crate::session::ServingSession); this module keeps
//! the batch-shaped entry point: [`ShardedRecMgSystem::serve`] submits the
//! given batches to a session with an unbounded queue (nothing is shed —
//! every batch is served) that the system holds from its first call on,
//! waits until they are served, and returns the call's [`EngineReport`].
//! There is exactly one serving path; the batch API is a thin adapter over
//! it.
//!
//! [`EngineReport::guided_fraction`] reports the fraction of chunks that
//! received model guidance, matching
//! [`recmg_dlrm::PipelineReport::guided_fraction`] semantics.

use recmg_dlrm::BatchAccessStats;
use recmg_trace::VectorKey;

use crate::backend::{CalibrationReport, FillPlaneReport};
use crate::config::AdmissionPolicy;
use crate::json::JsonWriter;
use crate::migrate::MigrationReport;
use crate::session::SessionBuilder;
use crate::sharding::ShardedRecMgSystem;
use crate::table_profile::TableReport;
use crate::tier::TierUsage;

/// How model guidance is scheduled during serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuidanceMode {
    /// Guidance runs synchronously on the serving worker at every chunk
    /// boundary (the sequential system's behaviour; fully deterministic
    /// with one worker).
    Inline,
    /// Guidance runs on a background thread pool; serving never waits *on
    /// a guidance result* — demand accesses always proceed on whatever
    /// priorities the buffer currently holds. A shard with `max_lag` or
    /// more chunks already in flight skips fresh guidance for the
    /// arriving chunk (the paper's non-blocking skip-ahead rule), so
    /// `max_lag: 0` disables guidance entirely; after such a skip the
    /// producing worker paces itself (bounded, ~tens of ms worst case,
    /// while holding that shard's lock) until the backlog drains, instead
    /// of every following chunk skipping too. While a full batch is queued
    /// behind the one a plane thread is computing, the pacing worker
    /// computes it on its own core rather than waiting; otherwise it
    /// waits on the plane. Each plane thread drains up to `max_batch` pending
    /// chunks per wakeup and runs them as *one* batched model forward per
    /// model, amortizing weight traffic across shards — which is why
    /// `max_lag` tolerates a deeper backlog than the pre-batching plane
    /// did: a backlog of N chunks costs one coalesced forward, not N.
    Background {
        /// Guidance-plane threads.
        threads: usize,
        /// In-flight guidance chunks tolerated per shard; at or above this
        /// count, new chunks are skipped.
        max_lag: usize,
        /// Maximum chunks coalesced into one batched model forward.
        max_batch: usize,
    },
}

impl Default for GuidanceMode {
    fn default() -> Self {
        GuidanceMode::Background {
            threads: 1,
            max_lag: 8,
            max_batch: 16,
        }
    }
}

/// Guidance-plane accounting of one serve run: how hard the background
/// plane worked and whether it kept up. All zeros under
/// [`GuidanceMode::Inline`] (inline guidance is counted by
/// `guided_chunks`, not here).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuidancePlaneReport {
    /// Batched model forwards run (caching and prefetch invocations each
    /// count once, regardless of batch size).
    pub model_forwards: u64,
    /// Plane wakeups that drained at least one chunk.
    pub drains: u64,
    /// Chunks the plane computed guidance for.
    pub chunks: u64,
    /// Largest number of chunks coalesced into one drain.
    pub max_batch: u64,
    /// Plane lag at teardown: chunks whose guidance had not landed when
    /// the run's last access was served. A drained session computes and
    /// applies them before it returns; a `serve()` call applies those
    /// already computed and leaves the rest to the plane of the runtime
    /// the system holds, so they land during the next call (or when the
    /// runtime stops). Either way they count as guided
    /// once applied (the model ran, and the update warms the buffer
    /// exactly like an inline apply between batches), but a plane that
    /// keeps up holds this near `shards × max_lag` or below — it is the
    /// lag signal a capacity planner should watch.
    pub late_chunks: u64,
    /// Kernel lane the guidance forwards ran on: the runtime-dispatched
    /// SIMD lane plus a `+int8` suffix when the compiled models are
    /// quantized (`"scalar"`, `"avx2"`, `"avx512"`, each optionally `+int8`).
    /// Empty in a default report that never touched a system.
    pub kernel_lane: &'static str,
}

impl GuidancePlaneReport {
    /// Mean chunks per drained batch (0 when the plane never ran).
    pub fn mean_batch(&self) -> f64 {
        if self.drains == 0 {
            0.0
        } else {
            self.chunks as f64 / self.drains as f64
        }
    }

    /// Writes the plane accounting as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("model_forwards").raw(self.model_forwards);
            w.key("drains").raw(self.drains);
            w.key("chunks").raw(self.chunks);
            w.key("mean_batch").fixed(self.mean_batch(), 2);
            w.key("max_batch").raw(self.max_batch);
            w.key("late_chunks").raw(self.late_chunks);
            w.key("kernel_lane").string(self.kernel_lane);
        });
    }
}

/// Options for [`ShardedRecMgSystem::serve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Serving worker threads.
    pub workers: usize,
    /// Guidance scheduling.
    pub guidance: GuidanceMode,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 1,
            guidance: GuidanceMode::default(),
        }
    }
}

/// Outcome of one batch-mode serve run (also embedded in
/// [`SessionReport`](crate::session::SessionReport) for streaming runs).
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Merged access outcomes across all batches and shards.
    pub stats: BatchAccessStats,
    /// Request batches served.
    pub batches: usize,
    /// Chunks whose model guidance was applied during this run (after a
    /// `serve()` call, the last chunks' guidance may land in the next
    /// call — see [`GuidancePlaneReport::late_chunks`]).
    pub guided_chunks: u64,
    /// Chunks formed during this run.
    pub total_chunks: u64,
    /// Wall-clock serving time.
    pub elapsed_secs: f64,
    /// Background guidance-plane accounting (zeros under inline guidance).
    pub plane: GuidancePlaneReport,
    /// Per-tier occupancy (end of run) and traffic/cost (delta over this
    /// run), one entry per [`crate::MemoryTier`] of the system's topology.
    pub tiers: Vec<TierUsage>,
    /// Sketched working-set footprint across shards at end of run
    /// (point-in-time windowed estimate, not a per-run delta — see
    /// [`crate::TierTraffic::unique_keys`]).
    pub unique_keys: u64,
    /// Largest per-shard sketch phase score at end of run (`[0, 1]`; high
    /// values mean a shard's working set flipped within the last epoch —
    /// the signal the phase-reactive [`crate::Rebalancer`] fires on).
    pub max_phase_score: f64,
    /// Live-migration accounting (all zeros when the run had no
    /// [`crate::LiveRebalanceConfig`] attached).
    pub migration: MigrationReport,
    /// Per-table demand profiles and placement decisions at end of run,
    /// sorted by table id — empty unless the system's placement policy
    /// profiles tables ([`crate::StatisticalPlacement`]).
    pub tables: Vec<TableReport>,
    /// Bind-time tier-cost calibration: one entry per tier built with
    /// [`crate::MemoryTier::calibrated`] (measured hit/miss/fill ns
    /// against the tier's real backend); empty when every tier kept its
    /// injected [`crate::TierCost::synthetic`] cost.
    pub calibration: CalibrationReport,
    /// Async fill-plane accounting for this run (all zeros under
    /// [`crate::FillMode::Blocking`]).
    pub fills: FillPlaneReport,
}

impl EngineReport {
    /// Fraction of chunks with fresh guidance (cf.
    /// [`recmg_dlrm::PipelineReport::guided_fraction`]).
    pub fn guided_fraction(&self) -> f64 {
        if self.total_chunks == 0 {
            0.0
        } else {
            self.guided_chunks as f64 / self.total_chunks as f64
        }
    }

    /// Embedding accesses served per second.
    pub fn keys_per_sec(&self) -> f64 {
        self.stats.total() as f64 / self.elapsed_secs.max(1e-9)
    }

    /// Total hit-weighted access cost across tiers for this run, in
    /// nanoseconds — the metric placement policies compete on.
    pub fn access_cost_ns(&self) -> u64 {
        TierUsage::total_cost_ns(&self.tiers)
    }

    /// Writes the report as one JSON object with fixed field names — the
    /// single serializer every bench that emits an engine report uses, so
    /// `guided_fraction` / `keys_per_sec` are never re-derived ad hoc.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("batches").raw(self.batches);
            w.key("keys").raw(self.stats.total());
            w.key("hit_rate").fixed(self.stats.hit_rate(), 4);
            w.key("guided_fraction").fixed(self.guided_fraction(), 4);
            w.key("keys_per_sec").fixed(self.keys_per_sec(), 1);
            w.key("elapsed_secs").fixed(self.elapsed_secs, 4);
            self.plane.write_json(w.key("plane"));
            w.key("access_cost_ns").raw(self.access_cost_ns());
            w.key("unique_keys").raw(self.unique_keys);
            w.key("max_phase_score").fixed(self.max_phase_score, 4);
            self.migration.write_json(w.key("migration"));
            self.calibration.write_json(w.key("calibration"));
            self.fills.write_json(w.key("fills"));
            w.key("tiers").array(&self.tiers, TierUsage::write_json);
            w.key("tables").array(&self.tables, TableReport::write_json);
        });
    }
}

impl ShardedRecMgSystem {
    /// Serves `batches` with `opts.workers` threads and blocks until every
    /// batch is served and the fills its misses queued have landed (or
    /// were counted coalesced or dropped). Returns merged stats plus
    /// guidance accounting for this call.
    ///
    /// The first call starts the system's runtime: a session with an
    /// unbounded admission queue (every batch is served; nothing is
    /// rejected or shed), its serving workers, its guidance plane under
    /// [`GuidanceMode::Background`] and its fill threads under
    /// [`FillMode::Async`](crate::FillMode::Async). Later calls with the
    /// same options submit to those threads; a call with other options
    /// stops the runtime and starts a new one. A call returns once its
    /// last request is served; the chunks the plane has not computed by
    /// then stay queued on its threads, which keep computing them, and
    /// their guidance lands at each shard's first visit in the next call,
    /// so a run of calls computes it while serving instead of at the end
    /// of every call, with the serving core idle.
    /// [`settle_guidance`](ShardedRecMgSystem::settle_guidance) stops the
    /// runtime and lands it without another call, and so does every other
    /// `&mut` entry point; dropping the system joins the runtime.
    ///
    /// Queued requests own their keys, so each call copies the batch
    /// slices once on submission; callers that already hold owned batches
    /// can skip the copy by driving a session directly with
    /// [`BatchSource::from_vecs`](crate::session::BatchSource::from_vecs).
    ///
    /// Per-shard access order follows the order workers acquire each shard,
    /// so multi-worker hit counts can vary slightly between runs; totals
    /// always equal the summed batch lengths. With `workers == 1` and
    /// [`GuidanceMode::Inline`], the result is exactly
    /// [`ShardedRecMgSystem::process_batch`] over the batches in order.
    ///
    /// # Panics
    ///
    /// Panics if `opts.workers` is zero, or background guidance is
    /// configured with zero threads or a zero `max_batch`.
    pub fn serve(&mut self, batches: &[&[VectorKey]], opts: &ServeOptions) -> EngineReport {
        if self.runtime.as_ref().is_none_or(|(held, _)| held != opts) {
            self.settle_guidance();
            let session = SessionBuilder::new()
                .workers(opts.workers)
                .guidance(opts.guidance)
                .admission(AdmissionPolicy::unbounded())
                .build(self.share());
            self.runtime = Some((*opts, session));
        }
        let (_, session) = self.runtime.as_mut().expect("started above");
        session.serve(batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caching_model::CachingModel;
    use crate::codec::FrequencyRankCodec;
    use crate::config::RecMgConfig;
    use crate::session::tests::{held_runtime, system};
    use recmg_dlrm::BufferManager;
    use recmg_trace::SyntheticConfig;

    #[test]
    fn inline_single_worker_matches_process_batch() {
        let trace = SyntheticConfig::tiny(41).generate();
        let batches = trace.batches(10);
        let mut a = system(2);
        let mut b = system(2);
        let mut seq = BatchAccessStats::default();
        for batch in &batches {
            seq.accumulate(a.process_batch(batch));
        }
        let report = b.serve(
            &batches,
            &ServeOptions {
                workers: 1,
                guidance: GuidanceMode::Inline,
            },
        );
        assert_eq!(report.stats, seq);
        assert_eq!(report.batches, batches.len());
        assert_eq!(report.total_chunks, b.total_chunks());
    }

    #[test]
    fn background_guidance_serves_every_access() {
        let trace = SyntheticConfig::tiny(42).generate();
        let batches = trace.batches(10);
        let mut sys = system(4);
        let report = sys.serve(
            &batches,
            &ServeOptions {
                workers: 2,
                guidance: GuidanceMode::Background {
                    threads: 1,
                    max_lag: 8,
                    max_batch: 4,
                },
            },
        );
        assert_eq!(report.stats.total(), trace.len() as u64);
        assert!(report.total_chunks > 0);
        assert!(report.guided_fraction() <= 1.0);
        assert!(report.keys_per_sec() > 0.0);
        assert!(report.elapsed_secs > 0.0);
        // Plane accounting: no drained batch exceeded the knob, and the
        // plane owes at most `max_lag` chunks per shard at the end.
        assert!(report.plane.max_batch <= 4);
        assert!(report.plane.model_forwards > 0);
        assert!(report.plane.mean_batch() >= 1.0);
        assert!(report.plane.late_chunks <= 4 * 8);
        // Every chunk the plane took is computed once, in the call or
        // after it, and lands once: in the call, or when the guidance it
        // still owed is settled.
        let settled = sys.settle_guidance();
        assert!(settled.late_chunks <= report.plane.late_chunks);
        assert!(report.plane.late_chunks <= report.plane.chunks + settled.chunks);
        assert_eq!(
            report.plane.chunks + settled.chunks,
            report.guided_chunks + settled.late_chunks
        );
        assert_eq!(
            sys.guided_chunks(),
            report.guided_chunks + settled.late_chunks
        );
        assert_eq!(
            sys.guided_chunks() + sys.unguided_chunks(),
            sys.total_chunks()
        );
    }

    const BACKGROUND: ServeOptions = ServeOptions {
        workers: 1,
        guidance: GuidanceMode::Background {
            threads: 1,
            max_lag: 4,
            max_batch: 4,
        },
    };

    /// Two background calls share one runtime: the second submits to the
    /// threads the first started, whose plane still owed guidance, and
    /// every chunk lands exactly once across the calls and the settle.
    #[test]
    fn the_runtime_outlives_a_serve_call() {
        let trace = SyntheticConfig::tiny(46).generate();
        let batches = trace.batches(10);
        let (first, second) = batches.split_at(batches.len() / 2);
        let mut sys = system(4);
        let a = sys.serve(first, &BACKGROUND);
        let runtime = held_runtime(&sys).expect("the runtime runs on");
        let b = sys.serve(second, &BACKGROUND);
        let still = held_runtime(&sys).expect("the runtime runs on");
        assert!(runtime.ptr_eq(&still));
        let settled = sys.settle_guidance();
        assert!(sys.runtime.is_none());
        assert!(
            runtime.upgrade().is_none(),
            "a runtime thread outlived the settle"
        );
        assert_eq!(sys.settle_guidance(), GuidancePlaneReport::default());
        assert!(settled.late_chunks <= b.plane.late_chunks);
        assert_eq!(
            a.plane.chunks + b.plane.chunks + settled.chunks,
            a.guided_chunks + b.guided_chunks + settled.late_chunks
        );
        assert_eq!(
            a.guided_chunks + b.guided_chunks + settled.late_chunks,
            sys.guided_chunks()
        );
        assert_eq!(
            sys.guided_chunks() + sys.unguided_chunks(),
            sys.total_chunks()
        );
        assert_eq!(a.stats.total() + b.stats.total(), trace.len() as u64);
    }

    /// Dropping a system joins its runtime before the drop returns: no
    /// worker, fill or plane thread is left holding the shards.
    #[test]
    fn dropping_the_system_joins_its_runtime() {
        use crate::backend::FillMode;
        use crate::prefetch_model::PrefetchModel;
        let cfg = RecMgConfig::tiny();
        let trace = SyntheticConfig::tiny(48).generate();
        let codec = FrequencyRankCodec::from_accesses(&trace.accesses()[..500]);
        let (caching, prefetch) = (CachingModel::new(&cfg), PrefetchModel::new(&cfg));
        let mut sys = ShardedRecMgSystem::builder(&caching, Some(&prefetch), codec)
            .shards(4)
            .capacity(64)
            .fill_mode(FillMode::Async {
                threads: 1,
                queue_depth: 64,
            })
            .build();
        sys.serve(&trace.batches(10), &BACKGROUND);
        let runtime = held_runtime(&sys).expect("running");
        let shards = std::sync::Arc::downgrade(&sys.shards);
        drop(sys);
        assert!(
            runtime.upgrade().is_none(),
            "a runtime thread outlived its system"
        );
        assert!(
            shards.upgrade().is_none(),
            "the shards outlived their system"
        );
    }

    /// Whatever else drives the shards after a background `serve()` stops
    /// the runtime first, landing the guidance its plane still owes, so
    /// chunk accounting is whole again without a `settle_guidance` call.
    #[test]
    fn other_entry_points_stop_the_runtime_first() {
        let trace = SyntheticConfig::tiny(47).generate();
        let batches = trace.batches(10);
        fn drained(sys: &mut ShardedRecMgSystem, guidance: GuidanceMode) {
            let owned = std::mem::replace(sys, system(1));
            *sys = SessionBuilder::new()
                .guidance(guidance)
                .build(owned)
                .drain()
                .0;
        }
        type Entry = fn(&mut ShardedRecMgSystem, &[&[VectorKey]]);
        let entry_points: [(&str, Entry); 6] = [
            ("inline serve", |sys, b| {
                let inline = ServeOptions {
                    workers: 1,
                    guidance: GuidanceMode::Inline,
                };
                sys.serve(b, &inline);
            }),
            ("process_batch", |sys, b| {
                sys.process_batch(b[0]);
            }),
            ("rebalance", |sys, _| {
                sys.rebalance();
            }),
            ("set_guidance_stride", |sys, _| sys.set_guidance_stride(2)),
            ("drained session, same mode", |sys, _| {
                drained(sys, BACKGROUND.guidance)
            }),
            ("drained session, inline", |sys, _| {
                drained(sys, GuidanceMode::Inline)
            }),
        ];
        for (name, enter) in entry_points {
            let mut sys = system(4);
            sys.serve(&batches, &BACKGROUND);
            let runtime = held_runtime(&sys).expect("running");
            enter(&mut sys, &batches);
            assert!(
                runtime.upgrade().is_none(),
                "{name}: the runtime was not stopped"
            );
            assert_eq!(
                sys.guided_chunks() + sys.unguided_chunks(),
                sys.total_chunks(),
                "{name}: a chunk's guidance was lost"
            );
        }
    }

    /// Promoting fills drives the shards too: on an async-fill system,
    /// `drain_fills` stops the runtime, landing the guidance its plane
    /// still owes, before the first fill.
    #[test]
    fn draining_fills_stops_the_runtime_first() {
        use crate::backend::FillMode;
        use crate::prefetch_model::PrefetchModel;
        let cfg = RecMgConfig::tiny();
        let trace = SyntheticConfig::tiny(49).generate();
        let codec = FrequencyRankCodec::from_accesses(&trace.accesses()[..500]);
        let (caching, prefetch) = (CachingModel::new(&cfg), PrefetchModel::new(&cfg));
        let mut sys = ShardedRecMgSystem::builder(&caching, Some(&prefetch), codec)
            .shards(4)
            .capacity(64)
            .fill_mode(FillMode::Async {
                threads: 1,
                queue_depth: 64,
            })
            .build();
        sys.serve(&trace.batches(10), &BACKGROUND);
        assert!(sys.runtime.is_some());
        sys.drain_fills();
        assert!(
            sys.runtime.is_none(),
            "fills were promoted before the runtime stopped"
        );
        assert_eq!(
            sys.guided_chunks() + sys.unguided_chunks(),
            sys.total_chunks()
        );
    }

    #[test]
    fn background_skips_count_as_unguided() {
        let trace = SyntheticConfig::tiny(43).generate();
        let batches = trace.batches(10);
        let mut sys = system(1);
        let report = sys.serve(
            &batches,
            &ServeOptions {
                workers: 1,
                guidance: GuidanceMode::Background {
                    threads: 1,
                    max_lag: 0, // plane can never accept work
                    max_batch: 16,
                },
            },
        );
        assert_eq!(report.guided_chunks, 0);
        assert_eq!(report.guided_fraction(), 0.0);
        assert_eq!(report.stats.total(), trace.len() as u64);
        assert_eq!(report.plane.chunks, 0);
        assert_eq!(report.plane.model_forwards, 0);
    }

    #[test]
    fn multi_worker_totals_are_exact() {
        let trace = SyntheticConfig::tiny(44).generate();
        let batches = trace.batches(5);
        let mut sys = system(4);
        let report = sys.serve(
            &batches,
            &ServeOptions {
                workers: 4,
                guidance: GuidanceMode::Inline,
            },
        );
        assert_eq!(report.stats.total(), trace.len() as u64);
        assert!(report.stats.hits() > 0);
    }

    #[test]
    fn report_json_has_fixed_field_names() {
        let trace = SyntheticConfig::tiny(45).generate();
        let batches = trace.batches(10);
        let mut sys = system(1);
        let report = sys.serve(
            &batches,
            &ServeOptions {
                workers: 1,
                guidance: GuidanceMode::Inline,
            },
        );
        let json = JsonWriter::render(|w| report.write_json(w));
        for field in [
            "\"batches\"",
            "\"keys\"",
            "\"hit_rate\"",
            "\"guided_fraction\"",
            "\"keys_per_sec\"",
            "\"elapsed_secs\"",
            "\"plane\"",
            "\"model_forwards\"",
            "\"mean_batch\"",
            "\"late_chunks\"",
            "\"kernel_lane\"",
            "\"access_cost_ns\"",
            "\"unique_keys\"",
            "\"max_phase_score\"",
            "\"migration\"",
            "\"migrations\"",
            "\"calibration\"",
            "\"fills\"",
            "\"queued\"",
            "\"coalesced\"",
            "\"promoted\"",
            "\"tiers\"",
            "\"tier\": \"dram\"",
            "\"tables\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn statistical_system_reports_per_table_profiles() {
        use crate::table_profile::StatisticalPlacement;
        use crate::tier::TierTopology;
        use recmg_trace::{RowId, TableId, VectorKey};

        let cfg = RecMgConfig::tiny();
        let caching = CachingModel::new(&cfg);
        let codec = FrequencyRankCodec::from_accesses(&[VectorKey::new(TableId(0), RowId(0))]);
        let mut sys = ShardedRecMgSystem::builder(&caching, None, codec)
            .shards(2)
            .topology(TierTopology::two_tier(64, 64))
            .placement(StatisticalPlacement::default())
            .build();
        // Two tables: tiny (4 rows, hammered) and large-ish (round-robin).
        let keys: Vec<VectorKey> = (0..2000)
            .map(|i| {
                if i % 2 == 0 {
                    VectorKey::new(TableId(0), RowId((i / 2) as u64 % 4))
                } else {
                    VectorKey::new(TableId(1), RowId(i as u64))
                }
            })
            .collect();
        let report = sys.serve(
            &[&keys],
            &ServeOptions {
                workers: 1,
                guidance: GuidanceMode::Inline,
            },
        );
        assert_eq!(report.tables.len(), 2);
        let t0 = &report.tables[0];
        assert_eq!(t0.profile.table, 0);
        assert_eq!(t0.profile.unique_rows, 4);
        assert!((t0.profile.demand_share - 0.5).abs() < 0.05);
        let json = JsonWriter::render(|w| report.write_json(w));
        for field in [
            "\"demand_share\"",
            "\"skew\"",
            "\"unique_rows\"",
            "\"pinned_shard\"",
            "\"hot_rows\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one serving worker")]
    fn zero_workers_panics() {
        let mut sys = system(1);
        let _ = sys.serve(
            &[],
            &ServeOptions {
                workers: 0,
                guidance: GuidanceMode::Inline,
            },
        );
    }
}
