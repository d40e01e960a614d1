//! The five workloads: seeded input streams and the systems they drive.
//!
//! Every generator is a pure function of the `--seed` argument (pinned
//! by `stream_hash` in the unit tests); the program under test only ever
//! sees the generated keys.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recmg_core::{
    train_recmg, AdmissionPolicy, CachingModel, FillMode, FrequencyRankCodec, GuidanceMode,
    HotFirst, RecMgConfig, ServeOptions, ShardedRecMgSystem, SlaBudget, SystemBuilder,
    TierTopology, TrainOptions, TrainedRecMg,
};
use recmg_trace::{RowId, SyntheticConfig, TableId, Trace, TraceStats, VectorKey};

/// Workload names, in the order `run.sh` runs them (and `BENCHMARK.json`
/// lists them).
pub const WORKLOADS: [&str; 5] = [
    "guided_plane",
    "churn_unguided",
    "ladder_blocking",
    "ladder_async",
    "open_poisson",
];

/// Inline guidance stride that leaves every chunk after a shard's first
/// unguided — the §VI-C / `DegradeLevel::SkipAhead` serving path.
const UNGUIDED_STRIDE: usize = 1 << 30;

/// Accesses of the `guided_plane` / `open_poisson` trace: ≈ 11 900
/// five-query requests, so 12 s at 800 req/s does not run it dry.
const GUIDED_ACCESSES: usize = 800_000;
/// Accesses of the hot/cold streams; a run serves as many passes as its
/// duration needs.
const HOT_COLD_ACCESSES: usize = 2_000_000;
/// Keys per inference batch on the hot/cold streams.
const HOT_COLD_BATCH: usize = 1_024;
/// Queries per inference batch on the guided trace (≈ 13.5 keys/query).
const GUIDED_BATCH_QUERIES: usize = 20;

/// Open-loop arrival rate of `open_poisson`'s gated step — fixed, never
/// calibrated to the machine (≈ half of `guided_plane`'s batch capacity
/// on the box this was sized on).
pub const OPEN_RATE_HZ: f64 = 800.0;
/// The two ungated context steps of the traced run.
pub const OPEN_SIDE_RATES_HZ: [f64; 2] = [400.0, 1_200.0];
/// Queries per open-loop request.
pub const OPEN_QUERIES_PER_REQUEST: usize = 5;
/// Latency limit a request must meet (due time → completion).
pub const OPEN_LATENCY_LIMIT: Duration = Duration::from_millis(10);
/// Deadline after which a request is refused or shed.
pub const OPEN_DEADLINE: Duration = Duration::from_millis(50);
/// Admission queue bound.
pub const OPEN_QUEUE_DEPTH: usize = 64;

/// The background plane of the production configuration. One plane
/// thread beside one worker: the box has two cores.
pub const PLANE: GuidanceMode = GuidanceMode::Background {
    threads: 1,
    max_lag: 16,
    max_batch: 8,
};

/// How a workload's stream is offered to the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Closed loop, one caller: `ShardedRecMgSystem::serve` over
    /// consecutive blocks of `calls_batches` inference batches.
    Serve {
        /// Batches handed to one `serve()` call.
        calls_batches: usize,
    },
    /// Open loop: Poisson arrivals through a `ServingSession`.
    OpenLoop,
}

/// Static description of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub mode: Mode,
    pub shards: usize,
    pub guidance: GuidanceMode,
    /// Trained models and a dataset-shaped trace (`guided_plane`,
    /// `open_poisson`) or untrained caching model over a hot/cold stream.
    pub guided: bool,
    pub fill: FillMode,
}

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    let inline = GuidanceMode::Inline;
    Some(match name {
        "guided_plane" => Spec {
            name: "guided_plane",
            mode: Mode::Serve { calls_batches: 16 },
            shards: 4,
            guidance: PLANE,
            guided: true,
            fill: FillMode::Blocking,
        },
        "churn_unguided" => Spec {
            name: "churn_unguided",
            mode: Mode::Serve { calls_batches: 24 },
            shards: 8,
            guidance: inline,
            guided: false,
            fill: FillMode::Blocking,
        },
        "ladder_blocking" => Spec {
            name: "ladder_blocking",
            mode: Mode::Serve { calls_batches: 16 },
            shards: 4,
            guidance: inline,
            guided: false,
            fill: FillMode::Blocking,
        },
        "ladder_async" => Spec {
            name: "ladder_async",
            mode: Mode::Serve { calls_batches: 16 },
            shards: 4,
            guidance: inline,
            guided: false,
            fill: FillMode::Async {
                threads: 1,
                queue_depth: 256,
            },
        },
        "open_poisson" => Spec {
            name: "open_poisson",
            mode: Mode::OpenLoop,
            shards: 4,
            guidance: PLANE,
            guided: true,
            fill: FillMode::Blocking,
        },
        _ => return None,
    })
}

impl Spec {
    /// `serve()` options: one worker (plus the plane or fill thread the
    /// mode brings) — sized for two cores.
    pub fn serve_options(&self) -> ServeOptions {
        ServeOptions {
            workers: 1,
            guidance: self.guidance,
        }
    }

    /// Admission policy and SLA of the open-loop session.
    pub fn open_policy() -> (AdmissionPolicy, SlaBudget) {
        (
            AdmissionPolicy {
                queue_depth: OPEN_QUEUE_DEPTH,
                reject_blown: true,
                shed_blown: true,
            },
            SlaBudget::new(OPEN_LATENCY_LIMIT),
        )
    }
}

/// splitmix64 finalizer: decorrelates the small integers users pass as
/// `--seed` before they reach a generator.
fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `SyntheticConfig::dataset(0)`'s shape under the run's seed.
fn guided_trace(seed: u64, accesses: usize) -> Trace {
    SyntheticConfig {
        num_accesses: accesses,
        seed: mix_seed(seed, 0x6775_6964),
        ..SyntheticConfig::dataset(0)
    }
    .generate()
}

/// `tables × rows` universe with `hot_share` of accesses on the first
/// `hot_fraction` of every table's rows and the rest uniform.
fn hot_cold_stream(
    seed: u64,
    tables: u32,
    rows: u64,
    hot_share: f64,
    hot_fraction: f64,
    accesses: usize,
) -> Vec<VectorKey> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hot_rows = ((rows as f64 * hot_fraction) as u64).max(1);
    (0..accesses)
        .map(|_| {
            let table = TableId(rng.gen_range(0..tables));
            let row = if rng.gen_bool(hot_share) {
                rng.gen_range(0..hot_rows)
            } else {
                rng.gen_range(0..rows)
            };
            VectorKey::new(table, RowId(row))
        })
        .collect()
}

/// The generated inputs of one workload: the access stream cut into
/// inference batches (and, for the guided trace, the query-structured
/// trace the open loop replays).
#[derive(Debug)]
pub struct Inputs {
    keys: Vec<VectorKey>,
    /// End offset of each inference batch in `keys`.
    batch_ends: Vec<usize>,
    /// The query-structured trace behind `keys` (guided workloads only).
    pub trace: Option<Trace>,
}

impl Inputs {
    /// Generates the workload's inputs from the seed. `scale` shrinks the
    /// stream for `--quick` smoke runs.
    pub fn generate(spec: &Spec, seed: u64, scale: f64) -> Inputs {
        let scaled = |n: usize| ((n as f64 * scale) as usize).max(20_000);
        if spec.guided {
            let trace = guided_trace(seed, scaled(GUIDED_ACCESSES));
            let mut batch_ends = Vec::new();
            let mut end = 0;
            for batch in trace.batches(GUIDED_BATCH_QUERIES) {
                end += batch.len();
                batch_ends.push(end);
            }
            return Inputs {
                keys: trace.accesses().to_vec(),
                batch_ends,
                trace: Some(trace),
            };
        }
        let n = scaled(HOT_COLD_ACCESSES);
        let keys = match spec.name {
            // Capacity 8 000 against a 160 K universe: the buffer is used
            // for misses, and eviction metadata does most of the work.
            "churn_unguided" => {
                hot_cold_stream(mix_seed(seed, 0x6368_7572), 8, 20_000, 0.5, 0.05, n)
            }
            // Footprint 4× the whole ladder.
            _ => hot_cold_stream(mix_seed(seed, 0x6c61_6464), 4, 8_192, 0.6, 0.05, n),
        };
        let batch_ends = (1..=keys.len().div_ceil(HOT_COLD_BATCH))
            .map(|i| (i * HOT_COLD_BATCH).min(keys.len()))
            .collect();
        Inputs {
            keys,
            batch_ends,
            trace: None,
        }
    }

    /// The whole access stream.
    pub fn keys(&self) -> &[VectorKey] {
        &self.keys
    }

    /// Number of inference batches.
    pub fn num_batches(&self) -> usize {
        self.batch_ends.len()
    }

    /// Batches `range` as slices into the stream.
    pub fn batches(&self, range: std::ops::Range<usize>) -> Vec<&[VectorKey]> {
        range
            .map(|i| {
                let start = if i == 0 { 0 } else { self.batch_ends[i - 1] };
                &self.keys[start..self.batch_ends[i]]
            })
            .collect()
    }

    /// Batches of the warm-up prefix: the first 10 % of the stream.
    pub fn warmup_batches(&self) -> usize {
        (self.num_batches() / 10).max(1)
    }

    /// FNV-1a over the packed keys and the batch boundaries — the
    /// "same seed, same stream" fingerprint.
    pub fn stream_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for k in &self.keys {
            eat(k.as_u64());
        }
        for &e in &self.batch_ends {
            eat(e as u64);
        }
        h
    }
}

/// Model parts a system is built from.
#[derive(Debug)]
pub enum Models {
    /// Both models trained in set-up (`guided_plane`, `open_poisson`).
    Trained(Box<TrainedRecMg>),
    /// Untrained caching model, no prefetch model: the unguided
    /// workloads never run a forward past each shard's first chunk.
    Untrained(Box<CachingModel>, FrequencyRankCodec),
}

impl Models {
    /// Trains (guided workloads) or initialises the models.
    pub fn prepare(spec: &Spec, inputs: &Inputs, scale: f64) -> Models {
        let cfg = RecMgConfig::default();
        if !spec.guided {
            let prefix = &inputs.keys()[..2_000.min(inputs.keys().len())];
            return Models::Untrained(
                Box::new(CachingModel::new(&cfg)),
                FrequencyRankCodec::from_accesses(prefix),
            );
        }
        let capacity = guided_capacity(inputs);
        let prefix = ((20_000.0 * scale) as usize).max(4_000);
        let opts = TrainOptions {
            cm_epochs: 2,
            pm_epochs: 2,
            minibatch: 8,
            max_chunks: ((400.0 * scale) as usize).max(60),
            max_prefetch_examples: ((300.0 * scale) as usize).max(40),
        };
        Models::Trained(Box::new(train_recmg(
            &inputs.keys()[..prefix.min(inputs.keys().len())],
            &cfg,
            capacity,
            &opts,
        )))
    }

    /// The caching model (for the guidance micro-costs).
    pub fn caching(&self) -> &CachingModel {
        match self {
            Models::Trained(t) => &t.caching,
            Models::Untrained(c, _) => c,
        }
    }

    fn builder(&self) -> SystemBuilder<'_> {
        match self {
            Models::Trained(t) => SystemBuilder::from_trained(t),
            Models::Untrained(c, codec) => SystemBuilder::new(c, None, codec.clone()),
        }
    }
}

/// 20 % of the guided trace's unique vectors.
fn guided_capacity(inputs: &Inputs) -> usize {
    let trace = inputs.trace.as_ref().expect("guided inputs carry a trace");
    TraceStats::compute(trace).buffer_capacity(20.0)
}

/// The ladder both `ladder_*` workloads serve from: heap → mmap → `pread`
/// file, every rung calibrated at bind time.
pub fn ladder_topology() -> TierTopology {
    TierTopology::sdm_ladder(2_048, 2_048, 4_096)
}

/// The memory hierarchy the workload's system is placed onto.
pub fn topology(spec: &Spec, inputs: &Inputs) -> TierTopology {
    match spec.name {
        "guided_plane" | "open_poisson" => TierTopology::uniform(guided_capacity(inputs)),
        "churn_unguided" => TierTopology::uniform(8_000),
        _ => ladder_topology(),
    }
}

/// Builds the workload's system on `topology` (backend files included).
pub fn build_system(spec: &Spec, models: &Models, topology: TierTopology) -> ShardedRecMgSystem {
    let mut system = models
        .builder()
        .shards(spec.shards)
        .guidance(spec.guidance)
        .fill_mode(spec.fill)
        .topology(topology)
        .placement(HotFirst)
        .build();
    if !spec.guided {
        system.set_guidance_stride(UNGUIDED_STRIDE);
    }
    system
}

/// A 1-shard inline system and the matching sequential reference, for
/// the oracle check: same models, same capacity, same stride.
pub fn oracle_pair(
    spec: &Spec,
    models: &Models,
    capacity: usize,
) -> (ShardedRecMgSystem, recmg_core::RecMgSystem) {
    let mut sharded = models
        .builder()
        .shards(1)
        .capacity(capacity)
        .guidance(GuidanceMode::Inline)
        .build();
    let mut sequential = match models {
        Models::Trained(t) => recmg_core::RecMgSystem::from_trained(t, capacity),
        Models::Untrained(c, codec) => {
            recmg_core::RecMgSystem::new(c, None, codec.clone(), capacity)
        }
    };
    if !spec.guided {
        sharded.set_guidance_stride(UNGUIDED_STRIDE);
        sequential.set_guidance_stride(UNGUIDED_STRIDE);
    }
    (sharded, sequential)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_generator_is_a_pure_function_of_the_seed() {
        for name in WORKLOADS {
            let spec = spec(name).expect("listed workload");
            let a = Inputs::generate(&spec, 7, 0.02);
            let b = Inputs::generate(&spec, 7, 0.02);
            let c = Inputs::generate(&spec, 8, 0.02);
            assert_eq!(a.stream_hash(), b.stream_hash(), "{name}: same seed");
            assert_ne!(a.stream_hash(), c.stream_hash(), "{name}: other seed");
            assert!(a.num_batches() > 10, "{name}: stream has batches");
            assert_eq!(
                a.batches(0..a.num_batches())
                    .iter()
                    .map(|b| b.len())
                    .sum::<usize>(),
                a.keys().len(),
                "{name}: batches cover the stream"
            );
        }
    }

    #[test]
    fn unknown_workload_has_no_spec() {
        assert!(spec("nope").is_none());
    }
}
