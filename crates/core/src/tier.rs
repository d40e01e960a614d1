//! Tiered-memory topology and working-set-driven shard placement.
//!
//! The paper's premise is DLRM inference on *tiered* memory, and the
//! RecShard line of work (Sethi et al., 2022) shows the big lever is
//! statistical, working-set-driven placement of embedding state across
//! tiers; Meta's Software Defined Memory work (Ardestani et al., 2021)
//! adds tier-cost-aware serving. This module makes the hierarchy explicit:
//!
//! * a [`MemoryTier`] describes one tier (name, capacity in vectors, and a
//!   [`TierCost`] access-latency model);
//! * a [`TierTopology`] is the ordered fast → slow tier list a system is
//!   built against;
//! * a [`PlacementPolicy`] maps shard count + topology + observed
//!   per-shard access mass to per-shard [`ShardPlacement`]s (capacity
//!   share and home tier): [`EvenSplit`] (the historical behaviour),
//!   [`WorkingSet`] (RecShard-style capacity shares proportional to
//!   observed mass, with a floor), and [`HotFirst`] (even capacities, but
//!   the hottest shards' buffers routed to the fastest tier);
//! * a [`Rebalancer`] re-places a live system between session drains from
//!   per-epoch traffic deltas (snapshot-and-delta, never cumulative
//!   history), on an access-count trigger and, optionally, a sketch-based
//!   phase-change trigger ([`crate::sketch`]).
//!
//! Placement changes capacity shares and tier routing — never the serving
//! *semantics*: with one shard every policy yields the identical system
//! (the parity property `tests/integration_tiering.rs` pins), and with
//! many shards the hash router still owns key → shard; placement only
//! decides how big each shard's buffer is and which tier pays for it.

use crate::backend::{calibrate, BackendSpec, CalibrationReport};
use crate::config::TierCost;
use crate::json::JsonWriter;
use crate::sharding::ShardedRecMgSystem;
use crate::table_profile::{TablePlacement, TableProfile};

use crate::buffer_mgmt::TierTraffic;

/// One memory tier: a name for reports, a capacity budget in embedding
/// vectors, the storage backend realizing it, and the access-cost model
/// buffers placed here account under (declared synthetic numbers, or
/// measured at build when [`MemoryTier::calibrated`] is set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryTier {
    /// Tier name as it appears in reports/bench JSON (e.g. `"dram"`).
    pub name: String,
    /// Capacity budget of this tier, in embedding vectors.
    pub capacity: usize,
    /// Access-latency cost model.
    pub cost: TierCost,
    /// Storage medium backing buffers placed in this tier (default
    /// [`BackendSpec::Dram`] — the historical behaviour).
    pub backend: BackendSpec,
    /// When set, [`SystemBuilder::build`](crate::SystemBuilder::build)
    /// replaces `cost` with numbers measured against `backend`
    /// ([`crate::backend::calibrate`]).
    pub calibrate: bool,
}

impl MemoryTier {
    /// A tier with an explicit cost model (DRAM-backed, not calibrated).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: impl Into<String>, capacity: usize, cost: TierCost) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        MemoryTier {
            name: name.into(),
            capacity,
            cost,
            backend: BackendSpec::Dram,
            calibrate: false,
        }
    }

    /// A local-DRAM-like fast tier.
    pub fn dram(capacity: usize) -> Self {
        Self::new("dram", capacity, TierCost::dram())
    }

    /// A CXL-/far-NUMA-like slow tier.
    pub fn cxl(capacity: usize) -> Self {
        Self::new("cxl", capacity, TierCost::cxl_like())
    }

    /// Routes buffers placed here onto `backend` storage.
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Marks the tier's costs as measured-at-build: the declared `cost`
    /// becomes a placeholder the calibration probe overwrites.
    pub fn calibrated(mut self) -> Self {
        self.calibrate = true;
        self
    }
}

/// The ordered memory hierarchy a system is built against: index 0 is the
/// fastest tier, later indices slower (placement fills fast tiers first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierTopology {
    tiers: Vec<MemoryTier>,
}

impl TierTopology {
    /// Builds a topology from an ordered (fast → slow) tier list.
    ///
    /// # Panics
    ///
    /// Panics if `tiers` is empty.
    pub fn new(tiers: Vec<MemoryTier>) -> Self {
        assert!(!tiers.is_empty(), "topology needs at least one tier");
        TierTopology { tiers }
    }

    /// The single-tier topology every pre-topology constructor implied:
    /// one DRAM tier holding the whole capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn uniform(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self::new(vec![MemoryTier::dram(capacity)])
    }

    /// A DRAM + slow-tier topology with the given capacities.
    pub fn two_tier(fast_capacity: usize, slow_capacity: usize) -> Self {
        Self::new(vec![
            MemoryTier::dram(fast_capacity),
            MemoryTier::cxl(slow_capacity),
        ])
    }

    /// The software-defined-memory ladder (Meta SDM's device memory →
    /// cached host memory → cached SSD, realized here as heap → mapped
    /// file → plain file): all three tiers are
    /// [`calibrated`](MemoryTier::calibrated), so the declared costs are
    /// placeholders the build-time probe replaces with measured numbers.
    /// Embedding stores far larger than the fast-tier budget become
    /// expressible — the slow rungs are files, not RAM.
    pub fn sdm_ladder(fast: usize, mapped: usize, file: usize) -> Self {
        Self::new(vec![
            MemoryTier::dram(fast)
                .with_backend(BackendSpec::Dram)
                .calibrated(),
            MemoryTier::new("mapped_file", mapped, TierCost::cxl_like())
                .with_backend(BackendSpec::MappedFile)
                .calibrated(),
            MemoryTier::new("file", file, TierCost::synthetic(2_000, 12_000, 5_000))
                .with_backend(BackendSpec::File)
                .calibrated(),
        ])
    }

    /// The ordered tier list.
    pub fn tiers(&self) -> &[MemoryTier] {
        &self.tiers
    }

    /// Number of tiers.
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Tier `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tier(&self, i: usize) -> &MemoryTier {
        &self.tiers[i]
    }

    /// Total capacity across tiers.
    pub fn total_capacity(&self) -> usize {
        self.tiers.iter().map(|t| t.capacity).sum()
    }

    /// Runs the bind-time probe on every tier marked
    /// [`MemoryTier::calibrated`], overwriting its declared cost with the
    /// measured numbers ([`SystemBuilder::build`](crate::SystemBuilder::build)
    /// calls this before placement, so policies compare measured costs).
    /// Returns one [`CalibrationReport`] entry per probed tier; empty
    /// when nothing was marked.
    pub fn calibrate(&mut self) -> CalibrationReport {
        let mut report = CalibrationReport::default();
        for tier in &mut self.tiers {
            if !tier.calibrate {
                continue;
            }
            let cal = calibrate(tier.backend, tier.capacity, &tier.name);
            tier.cost = cal.cost();
            tier.calibrate = false;
            report.tiers.push(cal);
        }
        report
    }
}

/// Where one shard's buffer lives: its capacity share and home tier index
/// into the [`TierTopology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlacement {
    /// Buffer capacity of the shard, in vectors.
    pub capacity: usize,
    /// Index of the tier backing the shard's buffer.
    pub tier: usize,
}

/// Maps shard count + topology + observed per-shard traffic to per-shard
/// placements.
///
/// `stats[i]` is shard `i`'s cumulative [`TierTraffic`] (hit/miss/fill
/// counts); an empty or all-zero slice means "no observations yet" and
/// every policy must degrade to a deterministic, observation-free
/// placement. Implementations must return exactly `num_shards` placements
/// with positive capacities and in-range tier indices — placement changes
/// capacity and tier routing, never correctness.
pub trait PlacementPolicy: std::fmt::Debug + Send + Sync {
    /// Short policy name for reports/bench JSON (e.g. `"working_set"`).
    fn name(&self) -> &'static str;

    /// Computes the placement.
    fn place(
        &self,
        num_shards: usize,
        topology: &TierTopology,
        stats: &[TierTraffic],
    ) -> Vec<ShardPlacement>;

    /// Table-aware placement: like [`PlacementPolicy::place`], but the
    /// caller additionally hands over merged per-table profiles
    /// ([`TableProfile`]), and the policy may return per-table routing
    /// decisions (pins and hot/cold splits) alongside the per-shard
    /// placements. The default ignores the profiles — every existing
    /// policy is table-oblivious — so only statistical policies override
    /// this.
    fn place_with_tables(
        &self,
        num_shards: usize,
        topology: &TierTopology,
        stats: &[TierTraffic],
        tables: &[TableProfile],
    ) -> TablePlacement {
        let _ = tables;
        TablePlacement {
            placements: self.place(num_shards, topology, stats),
            tables: Vec::new(),
        }
    }

    /// How many table ids this policy wants profiled and routable via the
    /// router's pin directory; 0 (the default) disables per-table
    /// profiling entirely, so table-oblivious systems pay nothing on the
    /// demand path.
    fn table_capacity(&self) -> usize {
        0
    }
}

/// Assigns shards (visited in `order`) to tiers greedily fast → slow:
/// each shard lands in the first tier whose remaining capacity fits its
/// buffer, and a shard that fits *no* tier spills into the last one (the
/// topology's backstop). The backstop means the last tier's allocated
/// capacity can exceed its declared budget — from ceil rounding (exactly
/// like the historical even split), or when shares don't bin-pack (a
/// single share larger than any tier, e.g. one shard over a multi-tier
/// topology). Capacity conservation is the invariant placement must keep
/// — shrinking a share to fit would change serving results — so the
/// over-commit is deliberate and visible in [`TierUsage::capacity`]
/// (reported allocation vs the topology's declared budget).
pub(crate) fn assign_tiers(
    capacities: &[usize],
    order: &[usize],
    topology: &TierTopology,
) -> Vec<ShardPlacement> {
    let mut remaining: Vec<isize> = topology
        .tiers()
        .iter()
        .map(|t| t.capacity as isize)
        .collect();
    let last = topology.num_tiers() - 1;
    let mut out = vec![
        ShardPlacement {
            capacity: 0,
            tier: last,
        };
        capacities.len()
    ];
    for &shard in order {
        let cap = capacities[shard];
        let tier = remaining
            .iter()
            .position(|&r| r >= cap as isize)
            .unwrap_or(last);
        remaining[tier] -= cap as isize;
        out[shard] = ShardPlacement {
            capacity: cap,
            tier,
        };
    }
    out
}

/// Even per-shard capacities: `ceil(total / n)` each, minimum 1 — exactly
/// the historical constructor split.
pub(crate) fn even_capacities(num_shards: usize, total: usize) -> Vec<usize> {
    vec![total.div_ceil(num_shards).max(1); num_shards]
}

/// How much cheaper a shard's observed traffic becomes when served from
/// the topology's fastest tier instead of its slowest: each event counts
/// the per-event cost difference, so shards are ranked by what fast-tier
/// residency actually saves — a miss-heavy shard outranks a hit-heavy one
/// of equal demand, because misses carry the larger tier penalty.
pub(crate) fn fast_tier_benefit(traffic: &TierTraffic, topology: &TierTopology) -> u128 {
    let fast = &topology.tiers()[0].cost;
    let slow = &topology.tiers()[topology.num_tiers() - 1].cost;
    traffic.hits as u128 * slow.hit_ns.saturating_sub(fast.hit_ns) as u128
        + traffic.misses as u128 * slow.miss_ns.saturating_sub(fast.miss_ns) as u128
        + traffic.prefetch_fills as u128 * slow.fill_ns.saturating_sub(fast.fill_ns) as u128
}

/// Shard ids sorted by descending fast-tier benefit (stable: ties keep id
/// order; with a one-tier topology or no observations this is the
/// identity order). For equal-size shards on a two-tier topology, filling
/// the fast tier in this order is the cost-minimizing assignment — the
/// property the `tier_placement` bench holds `HotFirst` to.
pub(crate) fn hotness_order(
    num_shards: usize,
    stats: &[TierTraffic],
    topology: &TierTopology,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..num_shards).collect();
    if stats.len() == num_shards && stats.iter().any(|t| t.demand() > 0) {
        order.sort_by_key(|&i| std::cmp::Reverse(fast_tier_benefit(&stats[i], topology)));
    }
    order
}

/// The historical placement: even capacity shares, tiers filled in shard-id
/// order. Mass-oblivious, so rebalancing under it is a no-op — this is the
/// [`SystemBuilder`](crate::SystemBuilder) default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvenSplit;

impl PlacementPolicy for EvenSplit {
    fn name(&self) -> &'static str {
        "even_split"
    }

    fn place(
        &self,
        num_shards: usize,
        topology: &TierTopology,
        _stats: &[TierTraffic],
    ) -> Vec<ShardPlacement> {
        let caps = even_capacities(num_shards, topology.total_capacity());
        let order: Vec<usize> = (0..num_shards).collect();
        assign_tiers(&caps, &order, topology)
    }
}

/// RecShard-style working-set placement: each shard's capacity share is
/// apportioned from its observed *miss* mass (subject to a per-shard
/// `floor`), and tiers are then assigned first-fit in hotness order.
/// Shares sum *exactly* to the topology's total capacity
/// (largest-remainder apportionment). Without observations it degrades to
/// [`EvenSplit`] capacities in hotness order (= id order).
///
/// Because shares are sized before tiers are assigned, a hot shard whose
/// grown share exceeds the fast tier's capacity falls through to a slower
/// tier, and smaller (colder) shards take the fast tier instead — which
/// is the best assignment *given those shares* (an un-splittable buffer
/// bigger than the tier cannot live there, and leaving the fast tier
/// empty would be strictly worse), but it does mean capacity growth
/// trades against tier placement. Size the fast tier to hold at least one
/// grown share (e.g. the half-DRAM/half-CXL split the serving bench uses)
/// when both effects should cooperate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkingSet {
    /// Minimum capacity any shard keeps, however cold it looks — a shard
    /// sized to zero could never re-warm and its keys would miss forever.
    pub floor: usize,
}

impl WorkingSet {
    /// Working-set placement with the given per-shard floor (clamped to at
    /// least 1).
    pub fn with_floor(floor: usize) -> Self {
        WorkingSet {
            floor: floor.max(1),
        }
    }
}

impl Default for WorkingSet {
    /// Floor of 8 vectors: small enough to matter on toy buffers, large
    /// enough that a cold shard can still form a working set.
    fn default() -> Self {
        WorkingSet { floor: 8 }
    }
}

impl PlacementPolicy for WorkingSet {
    fn name(&self) -> &'static str {
        "working_set"
    }

    fn place(
        &self,
        num_shards: usize,
        topology: &TierTopology,
        stats: &[TierTraffic],
    ) -> Vec<ShardPlacement> {
        // Capacity shares follow *miss* mass, not raw demand: misses are
        // the signal that a shard's working set exceeds its share (a
        // shard hammering three hot keys hits forever in three slots —
        // handing it capacity for its demand would starve the shards
        // whose working sets genuinely don't fit). Falling back to demand
        // keeps the policy defined on miss-free observations.
        let misses: u64 = stats.iter().map(|t| t.misses).sum();
        let mass: Vec<u64> = if misses > 0 {
            stats.iter().map(|t| t.misses).collect()
        } else {
            stats.iter().map(TierTraffic::demand).collect()
        };
        apportion_by_mass(num_shards, topology, stats, &mass, self.floor)
    }
}

/// Largest-remainder apportionment of the topology's capacity to per-shard
/// `mass`, with a per-shard `floor`, assigned to tiers in hotness order —
/// the sizing machinery shared by [`WorkingSet`] (miss mass) and
/// [`CardinalityWorkingSet`] (sketched footprint). Shares sum *exactly* to
/// the topology total; degenerate inputs (no mass, infeasible floor, wrong
/// stat arity) fall back to [`EvenSplit`] capacities in hotness order.
fn apportion_by_mass(
    num_shards: usize,
    topology: &TierTopology,
    stats: &[TierTraffic],
    mass: &[u64],
    floor: usize,
) -> Vec<ShardPlacement> {
    let total = topology.total_capacity();
    let floor = floor.max(1);
    let order = hotness_order(num_shards, stats, topology);
    let total_mass: u128 = mass.iter().map(|&m| m as u128).sum();
    // Degenerate cases fall back to even shares (still hottest-first
    // into the fast tier, which is the identity order here).
    if mass.len() != num_shards || total_mass == 0 || total < num_shards * floor {
        let caps = even_capacities(num_shards, total);
        return assign_tiers(&caps, &order, topology);
    }
    let mut caps = vec![floor; num_shards];
    add_by_largest_remainder(&mut caps, total - num_shards * floor, mass, total_mass);
    assign_tiers(&caps, &order, topology)
}

/// The largest-remainder core of both apportioners: adds `available`
/// units to `caps` in proportion to `mass` (one entry per cap, summing to
/// a positive `total_mass`) — exact integer quotas first, then the
/// rounding residue one unit each to the largest remainders (ties to the
/// lower shard id), so Σ caps grows by exactly `available`.
fn add_by_largest_remainder(caps: &mut [usize], available: usize, mass: &[u64], total_mass: u128) {
    let before: usize = caps.iter().sum();
    let available = available as u128;
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(caps.len());
    let mut assigned: u128 = 0;
    for (i, cap) in caps.iter_mut().enumerate() {
        let exact = available * mass[i] as u128;
        *cap += (exact / total_mass) as usize;
        assigned += exact / total_mass;
        remainders.push((exact % total_mass, i));
    }
    let mut residue = (available - assigned) as usize;
    remainders.sort_by_key(|&(rem, i)| (std::cmp::Reverse(rem), i));
    for &(_, i) in remainders.iter().take(residue.min(caps.len())) {
        caps[i] += 1;
        residue -= 1;
    }
    debug_assert_eq!(residue, 0, "largest-remainder residue fits one pass");
    debug_assert_eq!(caps.iter().sum::<usize>(), before + available as usize);
}

/// [`apportion_by_mass`] with *per-shard* floors instead of one uniform
/// floor, and an explicit tier-fill order instead of the traffic-derived
/// [`hotness_order`] — the variant [`crate::StatisticalPlacement`] needs:
/// a shard hosting pinned tables must keep at least its hosted pinned
/// footprint while its siblings only keep the base floor, and the policy
/// front-loads host shards in `order` so their whole pinned footprint
/// lands in the fastest tier (a host carries a non-host's hash traffic
/// *plus* its pinned tables' near-resident hit traffic, so hosts-first is
/// the cost-minimizing fill for any demand mix). Shares still sum exactly
/// to the topology total (largest-remainder over `total − Σ floors`);
/// zero floors are clamped to 1 so no shard is ever sized away entirely.
/// Degenerate inputs (floor arity mismatch, infeasible floor sum) fall
/// back to even shares; a missing/zero mass spreads the above-floor
/// remainder evenly.
pub(crate) fn apportion_with_floors_in_order(
    num_shards: usize,
    topology: &TierTopology,
    order: &[usize],
    mass: &[u64],
    floors: &[usize],
) -> Vec<ShardPlacement> {
    let total = topology.total_capacity();
    let floors: Vec<usize> = floors.iter().map(|&f| f.max(1)).collect();
    let floor_sum: usize = floors.iter().sum();
    if floors.len() != num_shards || total < floor_sum {
        let caps = even_capacities(num_shards, total);
        return assign_tiers(&caps, order, topology);
    }
    let available = total - floor_sum;
    let total_mass: u128 = mass.iter().map(|&m| m as u128).sum();
    let mut caps = floors;
    if mass.len() != num_shards || total_mass == 0 {
        // No sizing signal: spread the above-floor remainder evenly.
        for (i, c) in caps.iter_mut().enumerate() {
            *c += available / num_shards + usize::from(i < available % num_shards);
        }
        debug_assert_eq!(caps.iter().sum::<usize>(), total);
        return assign_tiers(&caps, order, topology);
    }
    add_by_largest_remainder(&mut caps, available, mass, total_mass);
    assign_tiers(&caps, order, topology)
}

/// Footprint-driven working-set placement: capacity shares are apportioned
/// from each shard's *sketched unique-key cardinality*
/// ([`TierTraffic::unique_keys`], maintained by the per-buffer
/// [`WorkingSetTracker`](crate::sketch::WorkingSetTracker) over a sliding
/// epoch window) instead of miss counts. Misses conflate capacity pressure
/// with pure access volume — a shard thrashing three cold keys looks as
/// hungry as one whose reuse footprint genuinely exceeds its share; the
/// footprint measures what RecShard actually sizes placements from, the
/// number of distinct vectors a shard needs resident. Same invariants as
/// [`WorkingSet`]: shares sum exactly to the topology capacity
/// (largest-remainder), every shard keeps at least `floor`, tiers are
/// assigned first-fit in hotness order. Falls back to miss mass, then
/// demand, then even shares when footprint observations are missing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CardinalityWorkingSet {
    /// Minimum capacity any shard keeps, however small it sketches — a
    /// shard sized to zero could never re-warm.
    pub floor: usize,
}

impl CardinalityWorkingSet {
    /// Footprint placement with the given per-shard floor (clamped to at
    /// least 1).
    pub fn with_floor(floor: usize) -> Self {
        CardinalityWorkingSet {
            floor: floor.max(1),
        }
    }
}

impl Default for CardinalityWorkingSet {
    /// The same 8-vector floor as [`WorkingSet`], for like-for-like policy
    /// comparisons.
    fn default() -> Self {
        CardinalityWorkingSet { floor: 8 }
    }
}

impl PlacementPolicy for CardinalityWorkingSet {
    fn name(&self) -> &'static str {
        "cardinality_working_set"
    }

    fn place(
        &self,
        num_shards: usize,
        topology: &TierTopology,
        stats: &[TierTraffic],
    ) -> Vec<ShardPlacement> {
        let footprint: u64 = stats.iter().map(|t| t.unique_keys).sum();
        let misses: u64 = stats.iter().map(|t| t.misses).sum();
        let mass: Vec<u64> = if footprint > 0 {
            stats.iter().map(|t| t.unique_keys).collect()
        } else if misses > 0 {
            stats.iter().map(|t| t.misses).collect()
        } else {
            stats.iter().map(TierTraffic::demand).collect()
        };
        apportion_by_mass(num_shards, topology, stats, &mass, self.floor)
    }
}

/// Hot-first tier routing: capacities stay even (identical hit/miss
/// behaviour to [`EvenSplit`] — only the cost accounting moves), but the
/// shards with the highest observed fast-tier benefit are routed to the
/// fastest tier. With equal-size shards on a two-tier topology, the
/// benefit-ordered greedy assignment minimizes total access cost *for
/// traffic distributed like the observations*: on a replayed or
/// stationary workload it never places worse than the id-order split.
/// (If the observation window's mix diverges from steady state — e.g. it
/// is dominated by one-time cold-start misses — the ranking can be off;
/// re-observe and rebalance again.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotFirst;

impl PlacementPolicy for HotFirst {
    fn name(&self) -> &'static str {
        "hot_first"
    }

    fn place(
        &self,
        num_shards: usize,
        topology: &TierTopology,
        stats: &[TierTraffic],
    ) -> Vec<ShardPlacement> {
        let caps = even_capacities(num_shards, topology.total_capacity());
        assign_tiers(&caps, &hotness_order(num_shards, stats, topology), topology)
    }
}

/// Per-tier usage and traffic of one system (or the delta over one run):
/// which shards live where, how full the tier is, and what its traffic
/// cost under the tier's [`TierCost`] model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierUsage {
    /// Tier name (from [`MemoryTier::name`]).
    pub name: String,
    /// Shards whose buffers live in this tier.
    pub shards: usize,
    /// Capacity allocated to those shards, in vectors.
    pub capacity: usize,
    /// Vectors currently resident.
    pub resident: usize,
    /// Merged traffic of the tier's shard buffers.
    pub traffic: TierTraffic,
}

impl TierUsage {
    /// Hit-weighted access cost of this tier's traffic, in nanoseconds.
    pub fn access_cost_ns(&self) -> u64 {
        self.traffic.cost_ns
    }

    /// Writes the usage as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("tier").string(&self.name);
            w.key("shards").raw(self.shards);
            w.key("capacity").raw(self.capacity);
            w.key("resident").raw(self.resident);
            w.key("hits").raw(self.traffic.hits);
            w.key("misses").raw(self.traffic.misses);
            w.key("prefetch_fills").raw(self.traffic.prefetch_fills);
            w.key("demand_fills").raw(self.traffic.demand_fills);
            w.key("cost_ns").raw(self.traffic.cost_ns);
            w.key("unique_keys").raw(self.traffic.unique_keys);
        });
    }

    /// Counter-wise traffic delta against an earlier snapshot of the same
    /// tier (occupancy fields stay point-in-time).
    pub fn delta_since(&self, before: &TierUsage) -> TierUsage {
        TierUsage {
            name: self.name.clone(),
            shards: self.shards,
            capacity: self.capacity,
            resident: self.resident,
            traffic: self.traffic.delta_since(&before.traffic),
        }
    }

    /// Total hit-weighted cost across a set of tier usages.
    pub fn total_cost_ns(usages: &[TierUsage]) -> u64 {
        usages.iter().map(TierUsage::access_cost_ns).sum()
    }
}

/// Re-places a live system from its per-shard demand stats — RecShard-style
/// capacity rebalancing driven by the same signals PR 3's plane
/// observability made trustworthy.
///
/// Call [`Rebalancer::maybe_rebalance`] between session drains (the system
/// must be quiescent: rebalancing resizes buffers in place). Two triggers:
///
/// * **Access count** — fires after at least `min_new_accesses` fresh
///   demand accesses since the last fire, so placement follows the
///   workload instead of chasing noise.
/// * **Phase change** (opt-in via
///   [`Rebalancer::with_phase_trigger`]) — fires as soon as any shard's
///   sketch [`phase score`](crate::sketch::WorkingSetStats::phase_score)
///   crosses a threshold, i.e. within one sketch epoch of a working-set
///   flip, without waiting out the access count. A cooldown (in fresh
///   accesses, gating every fire) bounds re-fire churn while the flip is
///   still draining out of the sketch window.
///
/// Placement always runs on **epoch deltas**, not cumulative history: the
/// rebalancer snapshots every shard's [`TierTraffic`] at each fire and
/// hands the policy only the traffic observed *since the previous fire*
/// (the point-in-time `unique_keys` footprint rides along unchanged).
/// Cumulative counters would let months of stale history outvote the
/// current phase — and, on a quiescent system, would re-trigger the count
/// condition forever off traffic that was already acted on.
#[derive(Debug, Clone)]
pub struct Rebalancer {
    trigger: RebalanceTrigger,
    fires: u64,
    rebalances: u64,
    phase_fires: u64,
}

/// The one count + phase rebalance trigger, shared by the quiescent
/// [`Rebalancer`] and the live rebalancer's background loop
/// ([`crate::migrate`]) — they differ only in how they read the shards
/// and what they do with a fire.
///
/// [`check`](RebalanceTrigger::check) decides from cheap per-shard
/// signals (raw demand counters, cached phase scores);
/// [`commit`](RebalanceTrigger::commit) consumes the fire against a full
/// traffic snapshot — materialized only then, because its `unique_keys`
/// estimate merges every shard's sketch window — and returns the
/// per-shard deltas placement acts on. A fire that is never committed
/// consumes nothing and re-raises on the next check.
///
/// * **Count**: at least `min_new_accesses` fresh demand accesses since
///   the last committed fire (0 disables the count trigger).
/// * **Phase**: some shard's score is at or above `phase_threshold`
///   while the shard is *armed* and *significant*. Hysteresis: a shard
///   any fire was committed on stays disarmed until its score falls back
///   below the threshold, so one flip is acted on once even though the
///   score stays high for a full sketch window. Significance: the shard
///   carries at least half an even split of the fresh traffic — a
///   near-idle shard rotates its sketch rarely, and a single tail-key
///   epoch would otherwise pin a stale high score that re-fires forever.
/// * **Cooldown** gates every fire, count and phase alike: at least
///   `cooldown` fresh accesses between two fires.
#[derive(Debug, Clone)]
pub(crate) struct RebalanceTrigger {
    min_new_accesses: u64,
    phase_threshold: Option<f64>,
    cooldown: u64,
    /// Per-shard phase hysteresis (grown on first sight of a shard).
    armed: Vec<bool>,
    /// Per-shard traffic at the last committed fire (empty before it).
    last_traffic: Vec<TierTraffic>,
    last_total: u64,
}

/// A raised, not yet committed fire ([`RebalanceTrigger::check`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TriggerFire {
    /// Raised by the phase trigger alone (the count had not come round).
    pub(crate) phase: bool,
    /// Shards whose phase event this fire consumes.
    qualified: Vec<usize>,
    total: u64,
}

impl RebalanceTrigger {
    pub(crate) fn new(min_new_accesses: u64, phase_threshold: Option<f64>, cooldown: u64) -> Self {
        RebalanceTrigger {
            min_new_accesses,
            phase_threshold,
            cooldown,
            armed: Vec::new(),
            last_traffic: Vec::new(),
            last_total: 0,
        }
    }

    /// Evaluates both triggers against the shards' cumulative demand
    /// counts and phase scores (shard order). Re-arming runs on every
    /// check, so it is never delayed until the next fire.
    pub(crate) fn check(&mut self, demands: &[u64], scores: &[f64]) -> Option<TriggerFire> {
        let total: u64 = demands.iter().sum();
        let fresh = total.saturating_sub(self.last_total);
        let count_fire = self.min_new_accesses > 0 && fresh >= self.min_new_accesses;
        let mut qualified = Vec::new();
        if let Some(threshold) = self.phase_threshold {
            self.armed.resize(scores.len(), true);
            let significant = (fresh / (2 * demands.len().max(1) as u64)).max(1);
            for (i, (&score, &demand)) in scores.iter().zip(demands).enumerate() {
                let seen = self.last_traffic.get(i).map_or(0, TierTraffic::demand);
                if score < threshold {
                    self.armed[i] = true;
                } else if self.armed[i] && demand.saturating_sub(seen) >= significant {
                    qualified.push(i);
                }
            }
        }
        if (!count_fire && qualified.is_empty()) || fresh < self.cooldown {
            return None;
        }
        Some(TriggerFire {
            phase: !count_fire,
            qualified,
            total,
        })
    }

    /// Consumes `fire`: disarms the shards it fired on (a flip handled by
    /// a count fire must not phase-fire again one cooldown later — while
    /// an idle shard whose cold sketch scores high stays armed for a real
    /// flip), snapshots `traffic`, and returns the per-shard deltas since
    /// the previous fire. Snapshot-and-delta: placement reacts to this
    /// epoch's traffic, not to cumulative history that would let stale
    /// phases outvote the current one.
    pub(crate) fn commit(
        &mut self,
        fire: TriggerFire,
        traffic: Vec<TierTraffic>,
    ) -> Vec<TierTraffic> {
        for i in fire.qualified {
            self.armed[i] = false;
        }
        self.last_traffic
            .resize(traffic.len(), TierTraffic::default());
        let deltas = traffic
            .iter()
            .zip(&self.last_traffic)
            .map(|(now, before)| now.delta_since(before))
            .collect();
        self.last_traffic = traffic;
        self.last_total = fire.total;
        deltas
    }
}

impl Rebalancer {
    /// A rebalancer that re-places after every `min_new_accesses` observed
    /// demand accesses (count trigger only).
    ///
    /// # Panics
    ///
    /// Panics if `min_new_accesses` is zero.
    pub fn new(min_new_accesses: u64) -> Self {
        assert!(min_new_accesses > 0, "need a positive rebalance period");
        Rebalancer {
            trigger: RebalanceTrigger::new(min_new_accesses, None, 0),
            fires: 0,
            rebalances: 0,
            phase_fires: 0,
        }
    }

    /// Adds the phase-change trigger: fire as soon as any
    /// significant-traffic shard's sketch phase score reaches `threshold`
    /// (a fraction in `(0, 1]`; scores near 1 mean the latest epoch's
    /// working set is almost entirely new), with at least `cooldown`
    /// fresh demand accesses between any two fires — one sketch epoch is
    /// a sensible floor, and a cooldown above the count period would
    /// delay count fires too. The trigger is edge-sensitive: each shard fires
    /// once per excursion of its score above the threshold and re-arms
    /// only after the score falls back below, so a single flip causes a
    /// single reactive re-placement even though the score stays elevated
    /// until the flip drains out of the sketch window (the count trigger
    /// owns steady-state follow-up).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not in `(0, 1]` or `cooldown` is zero.
    pub fn with_phase_trigger(mut self, threshold: f64, cooldown: u64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "phase threshold must be in (0, 1]"
        );
        assert!(cooldown > 0, "need a positive phase cooldown");
        self.trigger.phase_threshold = Some(threshold);
        self.trigger.cooldown = cooldown;
        self
    }

    /// Re-places `system` if a trigger fired; returns whether anything
    /// actually moved. Placement sees only the per-shard traffic deltas
    /// since the previous fire.
    ///
    /// The no-fire path is cheap by construction — raw demand counters
    /// and cached phase scores only; the full per-shard traffic (whose
    /// `unique_keys` estimate merges each shard's sketch window) is
    /// materialized only when a trigger actually fires. This is what
    /// makes "call it after every batch" a reasonable contract.
    pub fn maybe_rebalance(&mut self, system: &mut ShardedRecMgSystem) -> bool {
        let Some(fire) = self
            .trigger
            .check(&system.shard_demands(), &system.shard_phase_scores())
        else {
            return false;
        };
        self.fires += 1;
        self.phase_fires += u64::from(fire.phase);
        let deltas = self.trigger.commit(fire, system.shard_traffics());
        let changed = system.rebalance_from(&deltas);
        self.rebalances += u64::from(changed);
        changed
    }

    /// Trigger firings (whether or not placement moved anything).
    pub fn fires(&self) -> u64 {
        self.fires
    }

    /// Firings caused by the phase trigger rather than the access count.
    pub fn phase_fires(&self) -> u64 {
        self.phase_fires
    }

    /// Rebalances that moved at least one shard.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo_2tier(fast: usize, slow: usize) -> TierTopology {
        TierTopology::two_tier(fast, slow)
    }

    /// Traffic with the given demand mass (all hits).
    fn mass(demands: &[u64]) -> Vec<TierTraffic> {
        demands
            .iter()
            .map(|&hits| TierTraffic {
                hits,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn uniform_topology_is_one_dram_tier() {
        let t = TierTopology::uniform(64);
        assert_eq!(t.num_tiers(), 1);
        assert_eq!(t.total_capacity(), 64);
        assert_eq!(t.tier(0).name, "dram");
        assert_eq!(t.tier(0).cost, TierCost::dram());
    }

    #[test]
    #[should_panic(expected = "at least one tier")]
    fn empty_topology_panics() {
        let _ = TierTopology::new(vec![]);
    }

    #[test]
    fn even_split_matches_historical_shares() {
        let t = TierTopology::uniform(10);
        let p = EvenSplit.place(4, &t, &[]);
        assert_eq!(p.len(), 4);
        for s in &p {
            assert_eq!(s.capacity, 3); // ceil(10/4)
            assert_eq!(s.tier, 0);
        }
    }

    #[test]
    fn even_split_fills_tiers_in_id_order() {
        let t = topo_2tier(8, 24);
        let p = EvenSplit.place(4, &t, &[]);
        // 8 vectors each: shard 0 fits in the fast tier, 1–3 spill slow.
        assert_eq!(
            p[0],
            ShardPlacement {
                capacity: 8,
                tier: 0
            }
        );
        for s in &p[1..] {
            assert_eq!(s.tier, 1);
        }
    }

    #[test]
    fn hot_first_routes_hottest_to_fast_tier() {
        let t = topo_2tier(8, 24);
        let stats = mass(&[1, 100, 3, 7]);
        let p = HotFirst.place(4, &t, &stats);
        // Capacities identical to EvenSplit…
        for s in &p {
            assert_eq!(s.capacity, 8);
        }
        // …but the hottest shard (1) owns the fast tier.
        assert_eq!(p[1].tier, 0);
        assert_eq!(p[0].tier, 1);
        assert_eq!(p[2].tier, 1);
        assert_eq!(p[3].tier, 1);
    }

    #[test]
    fn hot_first_without_mass_equals_even_split() {
        let t = topo_2tier(16, 16);
        assert_eq!(HotFirst.place(4, &t, &[]), EvenSplit.place(4, &t, &[]));
        assert_eq!(
            HotFirst.place(4, &t, &mass(&[0, 0, 0, 0])),
            EvenSplit.place(4, &t, &[])
        );
    }

    #[test]
    fn working_set_sums_exactly_and_respects_floor() {
        let t = TierTopology::uniform(100);
        let policy = WorkingSet::with_floor(5);
        let stats = mass(&[1000, 10, 10, 1]);
        let p = policy.place(4, &t, &stats);
        let total: usize = p.iter().map(|s| s.capacity).sum();
        assert_eq!(total, 100, "shares must sum exactly to total capacity");
        for s in &p {
            assert!(s.capacity >= 5, "floor respected: {:?}", p);
        }
        // The dominant shard takes the lion's share.
        assert!(p[0].capacity > 80, "hot shard share: {:?}", p);
        assert!(p[3].capacity >= 5 && p[3].capacity < 10);
    }

    #[test]
    fn working_set_degrades_to_even_without_mass() {
        let t = TierTopology::uniform(64);
        let p = WorkingSet::default().place(4, &t, &[]);
        for s in &p {
            assert_eq!(s.capacity, 16);
            assert_eq!(s.tier, 0);
        }
    }

    #[test]
    fn working_set_infeasible_floor_falls_back_to_even() {
        let t = TierTopology::uniform(10);
        let p = WorkingSet::with_floor(100).place(4, &t, &mass(&[5, 5, 5, 5]));
        for s in &p {
            assert_eq!(s.capacity, 3);
        }
    }

    /// Traffic with the given sketched footprints (hits equal so hotness
    /// order alone cannot explain sizing differences).
    fn footprints(unique: &[u64]) -> Vec<TierTraffic> {
        unique
            .iter()
            .map(|&unique_keys| TierTraffic {
                hits: 10,
                unique_keys,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn cardinality_working_set_sizes_by_footprint_not_volume() {
        let t = TierTopology::uniform(100);
        // Shard 0 hammers few keys with huge volume; shard 1 touches many
        // distinct keys with modest volume. Miss-mass sizing would feed
        // shard 0; footprint sizing must feed shard 1.
        let stats = vec![
            TierTraffic {
                hits: 90_000,
                misses: 9_000,
                unique_keys: 10,
                ..Default::default()
            },
            TierTraffic {
                hits: 1_000,
                misses: 900,
                unique_keys: 90,
                ..Default::default()
            },
        ];
        let policy = CardinalityWorkingSet::with_floor(5);
        let p = policy.place(2, &t, &stats);
        assert_eq!(p.iter().map(|s| s.capacity).sum::<usize>(), 100);
        assert!(
            p[1].capacity > p[0].capacity,
            "footprint-heavy shard gets the larger share: {p:?}"
        );
        // Under miss mass the order flips — the two policies genuinely
        // disagree on this workload.
        let miss = WorkingSet::with_floor(5).place(2, &t, &stats);
        assert!(miss[0].capacity > miss[1].capacity);
    }

    #[test]
    fn cardinality_working_set_invariants_and_fallbacks() {
        let t = topo_2tier(32, 96);
        let policy = CardinalityWorkingSet::default();
        // With footprints: exact sum + floor.
        let p = policy.place(4, &t, &footprints(&[500, 50, 5, 0]));
        assert_eq!(p.iter().map(|s| s.capacity).sum::<usize>(), 128);
        for s in &p {
            assert!(s.capacity >= 8);
        }
        // No footprints: falls back to miss mass.
        let stats = mass(&[0, 0, 0, 0])
            .into_iter()
            .enumerate()
            .map(|(i, mut t)| {
                t.misses = [100, 10, 1, 1][i];
                t
            })
            .collect::<Vec<_>>();
        let p = policy.place(4, &t, &stats);
        assert!(p[0].capacity > p[1].capacity, "miss-mass fallback: {p:?}");
        // No observations at all: even shares.
        let p = policy.place(4, &t, &[]);
        for s in &p {
            assert_eq!(s.capacity, 32);
        }
        assert_eq!(policy.name(), "cardinality_working_set");
    }

    #[test]
    fn cardinality_working_set_one_shard_takes_everything() {
        let t = topo_2tier(16, 48);
        let p = CardinalityWorkingSet::default().place(1, &t, &footprints(&[123]));
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].capacity, 64);
    }

    #[test]
    fn live_and_quiescent_triggers_fire_identically() {
        // The same demand/score sequence through the trigger a
        // `Rebalancer` builds and the one the live loop builds: a count
        // fire, a phase fire on the flipped shard, silence while that
        // shard stays disarmed (and while an idle shard scores high),
        // a re-arm, a second phase fire, and the count coming round.
        let quiescent = Rebalancer::new(400).with_phase_trigger(0.5, 64);
        let live = crate::migrate::LiveRebalanceConfig::default()
            .with_min_new_accesses(400)
            .with_phase_threshold(Some(0.5))
            .with_cooldown(64)
            .trigger();
        let steps: [([u64; 4], [f64; 4]); 7] = [
            ([100, 100, 100, 100], [0.0, 0.0, 0.0, 0.0]),
            ([160, 120, 110, 110], [0.9, 0.0, 0.0, 0.0]),
            ([230, 130, 120, 120], [0.9, 0.0, 0.0, 0.9]),
            ([240, 140, 130, 120], [0.2, 0.0, 0.0, 0.9]),
            ([300, 150, 140, 120], [0.8, 0.0, 0.0, 0.9]),
            ([310, 160, 150, 120], [0.8, 0.0, 0.0, 0.9]),
            ([500, 300, 200, 140], [0.8, 0.0, 0.0, 0.0]),
        ];
        let drive = |mut trigger: RebalanceTrigger| -> Vec<Option<(bool, Vec<u64>)>> {
            steps
                .iter()
                .map(|(demands, scores)| {
                    let fire = trigger.check(demands, scores)?;
                    let phase = fire.phase;
                    let traffic = demands
                        .iter()
                        .map(|&hits| TierTraffic {
                            hits,
                            ..TierTraffic::default()
                        })
                        .collect();
                    let deltas = trigger.commit(fire, traffic);
                    Some((phase, deltas.iter().map(TierTraffic::demand).collect()))
                })
                .collect()
        };
        let fires = drive(live);
        assert_eq!(fires, drive(quiescent.trigger));
        assert_eq!(
            fires,
            vec![
                Some((false, vec![100, 100, 100, 100])),
                Some((true, vec![60, 20, 10, 10])),
                None,
                None,
                Some((true, vec![140, 30, 30, 10])),
                None,
                Some((false, vec![200, 150, 60, 20])),
            ]
        );
    }

    #[test]
    fn cooldown_gates_count_fires_too() {
        // One rule for both users of the trigger: a fire of either kind
        // needs `cooldown` fresh accesses, even once the count is reached.
        let mut trigger = RebalanceTrigger::new(100, None, 300);
        assert_eq!(
            trigger.check(&[150], &[0.0]),
            None,
            "count reached, cooling"
        );
        let fire = trigger.check(&[300], &[0.0]).expect("cooldown served");
        assert!(!fire.phase);
        trigger.commit(fire, mass(&[300]));
        assert_eq!(trigger.check(&[599], &[0.0]), None);
        assert!(trigger.check(&[600], &[0.0]).is_some());
    }

    #[test]
    #[should_panic(expected = "phase threshold must be in (0, 1]")]
    fn phase_trigger_threshold_validated() {
        let _ = Rebalancer::new(10).with_phase_trigger(1.5, 64);
    }

    #[test]
    #[should_panic(expected = "positive phase cooldown")]
    fn phase_trigger_cooldown_validated() {
        let _ = Rebalancer::new(10).with_phase_trigger(0.5, 0);
    }

    #[test]
    fn assign_tiers_overflow_lands_in_last_tier() {
        let t = topo_2tier(4, 4);
        // One shard bigger than any tier: backstopped by the last tier.
        let p = assign_tiers(&[16], &[0], &t);
        assert_eq!(p[0].tier, 1);
        assert_eq!(p[0].capacity, 16);
    }

    #[test]
    fn tier_usage_json_and_totals() {
        let u = TierUsage {
            name: "dram".into(),
            shards: 2,
            capacity: 32,
            resident: 10,
            traffic: TierTraffic {
                hits: 7,
                misses: 3,
                prefetch_fills: 1,
                demand_fills: 2,
                cost_ns: 1234,
                unique_keys: 5,
            },
        };
        let json = JsonWriter::render(|w| u.write_json(w));
        for field in [
            "\"tier\": \"dram\"",
            "\"shards\": 2",
            "\"hits\": 7",
            "\"demand_fills\": 2",
            "\"cost_ns\": 1234",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert_eq!(TierUsage::total_cost_ns(&[u.clone(), u.clone()]), 2468);
        let mut later = u.clone();
        later.traffic.hits += 5;
        later.traffic.cost_ns += 100;
        let d = later.delta_since(&u);
        assert_eq!(d.traffic.hits, 5);
        assert_eq!(d.traffic.cost_ns, 100);
        assert_eq!(d.capacity, 32);
    }

    #[test]
    fn sdm_ladder_builds_three_calibrated_rungs() {
        let t = TierTopology::sdm_ladder(16, 32, 64);
        assert_eq!(t.num_tiers(), 3);
        assert_eq!(t.total_capacity(), 112);
        let names: Vec<&str> = t.tiers().iter().map(|tier| tier.name.as_str()).collect();
        assert_eq!(names, ["dram", "mapped_file", "file"]);
        let backends: Vec<&str> = t.tiers().iter().map(|tier| tier.backend.name()).collect();
        assert_eq!(backends, ["dram", "mapped_file", "file"]);
        assert!(t.tiers().iter().all(|tier| tier.calibrate));
    }

    #[test]
    fn topology_calibrate_overwrites_marked_costs_only() {
        let injected = TierCost::synthetic(123, 456, 234);
        let mut t = TierTopology::new(vec![
            MemoryTier::new("fixed", 8, injected),
            MemoryTier::new("probed", 8, TierCost::FREE)
                .with_backend(BackendSpec::Dram)
                .calibrated(),
        ]);
        let report = t.calibrate();
        assert_eq!(report.tiers.len(), 1, "only the marked tier is probed");
        let cal = &report.tiers[0];
        assert_eq!(cal.tier, "probed");
        assert_eq!(cal.backend, "dram");
        assert!(cal.hit_ns > 0 && cal.miss_ns > 0 && cal.fill_ns > 0);
        assert_eq!(t.tier(0).cost, injected, "unmarked tier keeps its cost");
        assert_eq!(t.tier(1).cost, cal.cost());
        assert!(!t.tier(1).calibrate, "probe is once per bind");
        // A second pass finds nothing left to probe.
        assert!(t.calibrate().tiers.is_empty());
    }
}
