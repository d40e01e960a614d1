//! Per-table access statistics and RecShard-style statistical placement.
//!
//! Everything the placement layer sized until now was *per shard*:
//! hash-routed traffic, miss mass, sketched shard footprints. Real DLRM
//! table arrays are wildly heterogeneous — the libai config spans 3 to
//! 39.9M rows across 26 sparse features — and RecShard (Sethi et al.,
//! 2022) shows the big win comes from *per-table* statistics: tiny tables
//! whose whole footprint fits in fast memory should be pinned there
//! outright, while huge power-law tables should be split at a learned
//! hot/cold row boundary so only the hot prefix competes for fast-tier
//! capacity. This module supplies both halves:
//!
//! * [`TableProfiler`] — a per-shard, lock-free-by-ownership accumulator
//!   hooked into the demand path ([`Shard::record_access`]): per table it
//!   tracks total accesses, the maximum observed row (a size estimate), a
//!   bounded per-row frequency sample (for the skew fit), and a
//!   high-cardinality [`CardinalitySketch`] of the unique-row footprint
//!   ([`SketchConfig::high_cardinality`], ~1.6% σ — libai-scale tables
//!   have millions of unique rows, far past the default sketch shape).
//! * [`TableProfile`] — the cross-shard merge: per-table size, demand
//!   share, fitted power-law exponent (least squares on the log-log
//!   rank/frequency sample), and sketched footprint.
//! * [`StatisticalPlacement`] — a [`PlacementPolicy`] that pins tables
//!   whose sketched footprint fits a threshold into the fastest tier
//!   (routed by direct table-id lookup, no hashing — see
//!   [`ShardRouter`](crate::ShardRouter)), splits large skewed tables at
//!   the closed-form [`hot_boundary`], and apportions shard capacities
//!   from the resulting per-shard footprint mass with per-shard floors
//!   that keep every pinned table resident.
//!
//! Profiles are deterministic functions of the access stream (the sketch
//! is deterministic, the row sample is insertion-capped, the fit is least
//! squares), so placement decisions are reproducible run to run.

use std::collections::HashMap;

use recmg_trace::VectorKey;

use crate::buffer_mgmt::TierTraffic;
use crate::config::SketchConfig;
use crate::json::JsonWriter;
use crate::sketch::CardinalitySketch;
use crate::tier::{
    apportion_with_floors_in_order, even_capacities, fast_tier_benefit, PlacementPolicy,
    ShardPlacement,
};
use crate::tier::{assign_tiers, TierTopology};

/// Per-row frequency samples kept per table, per shard. At the cap only
/// already-sampled rows keep counting — under a power-law stream the hot
/// rows appear within the first few thousand draws with overwhelming
/// probability, so the cap biases the skew fit toward exactly the rows
/// the fit is about.
const ROW_SAMPLE_CAP: usize = 4096;

/// Merged per-table access profile — what [`StatisticalPlacement`] reads
/// and what [`EngineReport`](crate::EngineReport) surfaces per table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableProfile {
    /// Table id ([`VectorKey::table`]).
    pub table: u32,
    /// Size estimate in rows: maximum observed row id + 1. A lower bound
    /// on the true table size that converges quickly under any skew.
    pub size: u64,
    /// Demand accesses observed for this table.
    pub accesses: u64,
    /// This table's share of all profiled demand, in `[0, 1]`.
    pub demand_share: f64,
    /// Fitted power-law exponent α of the observed rank/frequency curve
    /// (least squares on log(freq) vs log(rank), clamped to `[0, 8]`);
    /// 0 means uniform or too few samples to fit.
    pub skew: f64,
    /// Sketched unique-row footprint
    /// ([`SketchConfig::high_cardinality`] shape, ~1.6% σ).
    pub unique_rows: u64,
}

/// One table's routing decision from a table-aware placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableDecision {
    /// Table id the decision applies to.
    pub table: u32,
    /// Shard the whole table is pinned to (routed without hashing), or
    /// `None` for hash-routed tables.
    pub pinned_shard: Option<usize>,
    /// Learned hot/cold row boundary: rows below it are the hot prefix
    /// fast-tier capacity is sized for. 0 means unsplit.
    pub hot_rows: u64,
}

/// Result of [`PlacementPolicy::place_with_tables`]: per-shard placements
/// plus per-table routing decisions (empty for table-oblivious policies).
#[derive(Debug, Clone, PartialEq)]
pub struct TablePlacement {
    /// Per-shard capacity/tier placements (always `num_shards` long).
    pub placements: Vec<ShardPlacement>,
    /// Per-table pin/split decisions.
    pub tables: Vec<TableDecision>,
}

/// One table's entry in an [`EngineReport`](crate::EngineReport): the
/// merged demand profile plus the routing decision currently installed
/// for it.
#[derive(Debug, Clone, PartialEq)]
pub struct TableReport {
    /// Merged demand profile across shards.
    pub profile: TableProfile,
    /// Shard the table is pinned to (`None` = hash-routed).
    pub pinned_shard: Option<usize>,
    /// Installed hot/cold row boundary (0 = unsplit).
    pub hot_rows: u64,
}

impl TableReport {
    /// Writes the row as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("table").raw(self.profile.table);
            w.key("size").raw(self.profile.size);
            w.key("accesses").raw(self.profile.accesses);
            w.key("demand_share").fixed(self.profile.demand_share, 4);
            w.key("skew").fixed(self.profile.skew, 3);
            w.key("unique_rows").raw(self.profile.unique_rows);
            w.key("pinned_shard")
                .raw(self.pinned_shard.map_or(-1, |s| s as i64));
            w.key("hot_rows").raw(self.hot_rows);
        });
    }
}

/// Per-shard accumulator of per-table statistics. Owned by its shard (no
/// locking beyond the shard mutex the demand path already holds);
/// merged across shards on demand by [`TableProfiler::merge`].
#[derive(Debug, Clone)]
pub struct TableProfiler {
    /// Table ids at or above this are counted but not profiled (bounds
    /// memory against adversarial id spaces).
    capacity: usize,
    tables: HashMap<u32, TableStats>,
}

#[derive(Debug, Clone)]
struct TableStats {
    accesses: u64,
    max_row: u64,
    rows: HashMap<u64, u64>,
    sketch: CardinalitySketch,
}

impl TableStats {
    fn new() -> Self {
        TableStats {
            accesses: 0,
            max_row: 0,
            rows: HashMap::new(),
            sketch: CardinalitySketch::from_config(&SketchConfig::high_cardinality()),
        }
    }
}

impl TableProfiler {
    /// A profiler covering table ids `0..capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "profiler needs a positive table capacity");
        TableProfiler {
            capacity,
            tables: HashMap::new(),
        }
    }

    /// Table-id capacity this profiler covers.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Observes one demand access on this shard.
    #[inline]
    pub fn observe(&mut self, key: VectorKey) {
        let table = key.table().0;
        if table as usize >= self.capacity {
            return;
        }
        let row = key.row().0;
        let stats = self.tables.entry(table).or_insert_with(TableStats::new);
        stats.accesses += 1;
        stats.max_row = stats.max_row.max(row);
        stats.sketch.insert(row);
        if stats.rows.len() < ROW_SAMPLE_CAP {
            *stats.rows.entry(row).or_insert(0) += 1;
        } else if let Some(count) = stats.rows.get_mut(&row) {
            *count += 1;
        }
    }

    /// Whether any access was observed.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Clears all per-table state (shape preserved).
    pub fn reset(&mut self) {
        self.tables.clear();
    }

    /// Merges per-shard profilers into one profile per table, sorted by
    /// table id: accesses and row samples sum, sketches union, the skew
    /// is fitted on the merged rank/frequency sample, and demand shares
    /// are normalized over the merged total.
    pub fn merge<'a>(profilers: impl IntoIterator<Item = &'a TableProfiler>) -> Vec<TableProfile> {
        let mut merged: HashMap<u32, TableStats> = HashMap::new();
        for profiler in profilers {
            for (&table, stats) in &profiler.tables {
                match merged.entry(table) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(stats.clone());
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let acc = e.get_mut();
                        acc.accesses += stats.accesses;
                        acc.max_row = acc.max_row.max(stats.max_row);
                        acc.sketch.merge(&stats.sketch);
                        for (&row, &count) in &stats.rows {
                            // The merged sample may exceed the per-shard
                            // cap; it is still a sample, and a larger one
                            // only improves the fit.
                            *acc.rows.entry(row).or_insert(0) += count;
                        }
                    }
                }
            }
        }
        let total: u64 = merged.values().map(|s| s.accesses).sum();
        let mut profiles: Vec<TableProfile> = merged
            .into_iter()
            .map(|(table, stats)| TableProfile {
                table,
                size: stats.max_row + 1,
                accesses: stats.accesses,
                demand_share: if total > 0 {
                    stats.accesses as f64 / total as f64
                } else {
                    0.0
                },
                skew: fit_skew(&stats.rows),
                unique_rows: stats.sketch.estimate_u64(),
            })
            .collect();
        profiles.sort_by_key(|p| p.table);
        profiles
    }
}

/// Per-shard pinned-table lists from a placement's table decisions: entry
/// `s` holds the table ids pinned to shard `s` (empty for non-hosts), the
/// shape [`crate::RecMgBuffer::set_pinned_tables`] consumes. Decisions
/// pointing at out-of-range shards are dropped, mirroring
/// [`ShardRouter::install`](crate::ShardRouter)'s bounds discipline.
pub(crate) fn pinned_tables_per_shard(
    decisions: &[TableDecision],
    num_shards: usize,
) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); num_shards];
    for d in decisions {
        if let Some(host) = d.pinned_shard {
            if host < num_shards {
                out[host].push(d.table);
            }
        }
    }
    out
}

/// Least-squares fit of the power-law exponent α from a per-row frequency
/// sample: counts are sorted descending, and the slope of
/// `log(freq) ~ log(rank)` (ranks from 1) is negated and clamped to
/// `[0, 8]`. Fewer than three sampled rows — or a degenerate spread —
/// fit as 0 (uniform).
fn fit_skew(rows: &HashMap<u64, u64>) -> f64 {
    let mut counts: Vec<u64> = rows.values().copied().filter(|&c| c > 0).collect();
    if counts.len() < 3 {
        return 0.0;
    }
    counts.sort_unstable_by_key(|&c| std::cmp::Reverse(c));
    let n = counts.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (i, &c) in counts.iter().enumerate() {
        let x = ((i + 1) as f64).ln();
        let y = (c as f64).ln();
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    let denom = n * sxx - sx * sx;
    if denom <= 0.0 {
        return 0.0;
    }
    let slope = (n * sxy - sx * sy) / denom;
    (-slope).clamp(0.0, 8.0)
}

/// Closed-form hot/cold row boundary: the smallest prefix of a
/// `rows`-row Zipf-α table that captures demand share `q`, from the
/// continuous approximation `Σ_{r≤b} r^(−α) / Σ_{r≤R} r^(−α) ≈
/// (b^(1−α) − 1) / (R^(1−α) − 1)`:
///
/// ```text
/// b = (1 + q · (R^(1−α) − 1))^(1/(1−α))      (α ≠ 1)
/// b = R^q                                     (α → 1)
/// ```
///
/// Monotone non-increasing in α (steeper skew ⇒ smaller hot prefix — the
/// invariant the placement proptests pin) and clamped to `[1, R]`.
///
/// # Panics
///
/// Panics if `rows` is zero, `alpha` is negative/non-finite, or `q` is
/// outside `(0, 1]`.
pub fn hot_boundary(rows: u64, alpha: f64, q: f64) -> u64 {
    assert!(rows > 0, "need at least one row");
    assert!(
        alpha >= 0.0 && alpha.is_finite(),
        "alpha must be finite ≥ 0"
    );
    assert!(q > 0.0 && q <= 1.0, "q must be in (0, 1]");
    let r = rows as f64;
    let b = if (1.0 - alpha).abs() < 1e-9 {
        r.powf(q)
    } else {
        let e = 1.0 - alpha;
        (1.0 + q * (r.powf(e) - 1.0)).powf(1.0 / e)
    };
    (b.ceil() as u64).clamp(1, rows)
}

/// RecShard-style statistical placement over merged [`TableProfile`]s.
///
/// * **Pinning** — tables whose sketched footprint fits `pin_threshold`
///   are pin candidates; smallest-footprint first, they are pinned while
///   the cumulative pinned footprint fits the pin budget
///   (`fast_pin_budget` of the fastest tier, and never more than the
///   capacity left above the base floors). Pinned tables route to their
///   host shard by direct table-id lookup (no hashing) and the host's
///   capacity floor covers the full pinned footprint, so a pinned table
///   is never resized below residency.
/// * **Splitting** — unpinned tables with a fitted skew are split at
///   [`hot_boundary`] for demand share `hot_share`: only the hot prefix
///   contributes to the footprint mass that sizes shard capacities, so
///   the cold tail stops inflating fast-tier demand.
/// * **Sizing** — shard capacities are apportioned from the per-shard
///   footprint mass (pinned footprints on their hosts, capped hot
///   footprints of hash-routed tables spread evenly) by largest-remainder
///   with per-shard floors ([`apportion_with_floors_in_order`]): capacities sum
///   exactly to the topology total, every shard keeps at least `floor`.
///
/// Without profiles ([`PlacementPolicy::place`], or an empty profile
/// slice) it degrades to the even split, so cold starts are identical to
/// [`EvenSplit`](crate::EvenSplit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatisticalPlacement {
    /// Sketched-footprint threshold (rows) below which a table is a pin
    /// candidate.
    pub pin_threshold: u64,
    /// Fraction of the fastest tier's capacity the pinned footprints may
    /// occupy, in `(0, 1]`.
    pub fast_pin_budget: f64,
    /// Base per-shard capacity floor (hosts of pinned tables get this
    /// plus their hosted pinned footprint, since pinned rows are
    /// permanently resident and would otherwise squeeze out hash
    /// traffic).
    pub floor: usize,
    /// Router pin-directory size: only table ids below this can be
    /// pinned or carry a split mark (also the profiler's table-id
    /// capacity via [`PlacementPolicy::table_capacity`]).
    pub max_tables: usize,
    /// Demand share the hot prefix of a split table must capture, in
    /// `(0, 1]`.
    pub hot_share: f64,
}

impl Default for StatisticalPlacement {
    /// Pin tables sketching ≤ 128 rows, half the fast tier for pins,
    /// 8-vector base floor, 64 routable tables, hot prefix sized for 80%
    /// of demand.
    fn default() -> Self {
        StatisticalPlacement {
            pin_threshold: 128,
            fast_pin_budget: 0.5,
            floor: 8,
            max_tables: 64,
            hot_share: 0.8,
        }
    }
}

impl StatisticalPlacement {
    /// Validates the knobs.
    ///
    /// # Panics
    ///
    /// Panics if a fraction is outside `(0, 1]`, the pin threshold is
    /// zero, or `max_tables` is zero.
    pub fn validate(&self) {
        assert!(self.pin_threshold > 0, "pin_threshold must be positive");
        assert!(
            self.fast_pin_budget > 0.0 && self.fast_pin_budget <= 1.0,
            "fast_pin_budget must be in (0, 1]"
        );
        assert!(
            self.hot_share > 0.0 && self.hot_share <= 1.0,
            "hot_share must be in (0, 1]"
        );
        assert!(self.max_tables > 0, "max_tables must be positive");
    }
}

impl PlacementPolicy for StatisticalPlacement {
    fn name(&self) -> &'static str {
        "statistical"
    }

    /// Cold start (no profiles yet): the even split, so a freshly built
    /// system behaves exactly like the default policy until the first
    /// table-aware rebalance.
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

    fn table_capacity(&self) -> usize {
        self.max_tables
    }

    fn place_with_tables(
        &self,
        num_shards: usize,
        topology: &TierTopology,
        stats: &[TierTraffic],
        tables: &[TableProfile],
    ) -> TablePlacement {
        self.validate();
        let observed: Vec<&TableProfile> = tables.iter().filter(|p| p.accesses > 0).collect();
        if observed.is_empty() {
            return TablePlacement {
                placements: self.place(num_shards, topology, stats),
                tables: Vec::new(),
            };
        }
        let total = topology.total_capacity();
        let base_floor = self.floor.max(1);
        // Pin budget: a fraction of the fastest tier, and never more than
        // what remains above every shard's base floor — which is what
        // guarantees Σ floors ≤ total below.
        let fast_cap = topology.tier(0).capacity;
        let above_floors = total.saturating_sub(num_shards * base_floor) as u64;
        let budget = (((fast_cap as f64) * self.fast_pin_budget) as u64).min(above_floors);

        // Pin candidates smallest-footprint first (ties to the lower id):
        // pinning k tiny tables beats pinning one table of their combined
        // footprint, because each pin removes a whole table's hashing and
        // slow-tier exposure.
        let mut candidates: Vec<&TableProfile> = observed
            .iter()
            .copied()
            .filter(|p| p.unique_rows <= self.pin_threshold && (p.table as usize) < self.max_tables)
            .collect();
        candidates.sort_by_key(|p| (p.unique_rows, p.table));
        let mut pinned: Vec<&TableProfile> = Vec::new();
        let mut pinned_footprint = 0u64;
        for p in candidates {
            let fp = p.unique_rows.max(1);
            if pinned_footprint + fp > budget {
                break;
            }
            pinned_footprint += fp;
            pinned.push(p);
        }

        // Hosts round-robin over shards, largest pinned footprint first,
        // so hosted floors stay balanced.
        pinned.sort_by_key(|p| (std::cmp::Reverse(p.unique_rows), p.table));
        let mut decisions: Vec<TableDecision> = Vec::new();
        let mut floors = vec![base_floor; num_shards];
        let mut mass = vec![0u64; num_shards];
        let mut hosted = vec![0usize; num_shards];
        let mut hosted_demand = vec![0u64; num_shards];
        for (i, p) in pinned.iter().enumerate() {
            let host = i % num_shards;
            let fp = p.unique_rows.max(1);
            hosted[host] += fp as usize;
            mass[host] += fp;
            hosted_demand[host] += p.accesses;
            decisions.push(TableDecision {
                table: p.table,
                pinned_shard: Some(host),
                hot_rows: 0,
            });
        }
        // Hosts keep the base floor *plus* their hosted footprint: the
        // pinned rows are permanently resident (exempt from eviction), so
        // without the additive headroom the host's hash-routed traffic
        // would thrash in whatever sliver the pins leave over. Σ floors =
        // n·base + Σ hosted ≤ n·base + budget ≤ total, by the budget cap
        // above.
        for (f, &h) in floors.iter_mut().zip(&hosted) {
            *f += h;
        }

        // Hash-routed tables: the capacity-worthy footprint is the hot
        // prefix (the whole footprint when unsplit), spread evenly — the
        // router distributes each table's rows uniformly over shards.
        let pinned_ids: Vec<u32> = pinned.iter().map(|p| p.table).collect();
        for p in &observed {
            if pinned_ids.contains(&p.table) {
                continue;
            }
            let split = p.skew > 0.0 && p.size > self.pin_threshold;
            let hot_rows = if split {
                hot_boundary(p.size, p.skew, self.hot_share)
            } else {
                0
            };
            if split && (p.table as usize) < self.max_tables {
                decisions.push(TableDecision {
                    table: p.table,
                    pinned_shard: None,
                    hot_rows,
                });
            }
            let worthy = if split {
                p.unique_rows.min(hot_rows)
            } else {
                p.unique_rows
            }
            .max(1);
            let per_shard = worthy / num_shards as u64;
            let extra = (worthy % num_shards as u64) as usize;
            for (s, m) in mass.iter_mut().enumerate() {
                *m += per_shard + u64::from(s < extra);
            }
        }
        decisions.sort_by_key(|d| d.table);
        // Tier-fill order: the observed per-shard benefit ranks shards by
        // *pre-pin* traffic, but installing the pins moves every pinned
        // table's (near-resident, hence hit-dominated) traffic off its
        // hash spread and onto its host — so adjust each shard's benefit
        // by exactly that flow before ordering. A host whose pinned
        // demand doesn't beat the displaced shard's margin simply stays
        // where the traffic ranking put it.
        let fast = &topology.tier(0).cost;
        let slow = &topology.tier(topology.num_tiers() - 1).cost;
        let hit_save = slow.hit_ns.saturating_sub(fast.hit_ns) as u128;
        let mut benefit: Vec<u128> = if stats.len() == num_shards {
            stats
                .iter()
                .map(|t| fast_tier_benefit(t, topology))
                .collect()
        } else {
            vec![0; num_shards]
        };
        let pinned_demand: u128 = pinned.iter().map(|p| p.accesses as u128).sum();
        let hash_share = pinned_demand * hit_save / num_shards as u128;
        for (b, &gained) in benefit.iter_mut().zip(&hosted_demand) {
            *b = (*b + gained as u128 * hit_save).saturating_sub(hash_share);
        }
        let mut order: Vec<usize> = (0..num_shards).collect();
        order.sort_by_key(|&s| (std::cmp::Reverse(benefit[s]), s));
        TablePlacement {
            placements: apportion_with_floors_in_order(
                num_shards, topology, &order, &mass, &floors,
            ),
            tables: decisions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmg_trace::{RowId, TableId};

    fn key(table: u32, row: u64) -> VectorKey {
        VectorKey::new(TableId(table), RowId(row))
    }

    #[test]
    fn profiler_tracks_size_share_and_footprint() {
        let mut p = TableProfiler::new(16);
        // Table 0: 10 distinct rows × 3 passes = 30 accesses. Table 1:
        // 3 distinct rows × 10 passes = 30 accesses. Equal demand shares,
        // very different footprints.
        for _ in 0..3 {
            for row in 0..10u64 {
                p.observe(key(0, row));
            }
        }
        for _ in 0..10 {
            for row in 0..3u64 {
                p.observe(key(1, row));
            }
        }
        // Table ids beyond the profiler capacity are dropped.
        p.observe(key(99, 5));
        let profiles = TableProfiler::merge([&p]);
        assert_eq!(profiles.len(), 2);
        let t0 = &profiles[0];
        assert_eq!(t0.table, 0);
        assert_eq!(t0.size, 10);
        assert_eq!(t0.accesses, 30);
        assert_eq!(t0.unique_rows, 10);
        assert!((t0.demand_share - 0.5).abs() < 1e-9);
        let t1 = &profiles[1];
        assert_eq!(t1.size, 3);
        assert_eq!(t1.unique_rows, 3);
    }

    #[test]
    fn merge_unions_across_shards() {
        let mut a = TableProfiler::new(8);
        let mut b = TableProfiler::new(8);
        for row in 0..20u64 {
            a.observe(key(2, row));
        }
        for row in 10..40u64 {
            b.observe(key(2, row));
        }
        let profiles = TableProfiler::merge([&a, &b]);
        assert_eq!(profiles.len(), 1);
        let t = &profiles[0];
        assert_eq!(t.accesses, 50);
        assert_eq!(t.size, 40);
        assert_eq!(t.unique_rows, 40, "sketch union, not sum");
        assert!((t.demand_share - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skew_fit_separates_uniform_from_power_law() {
        let mut uniform = TableProfiler::new(4);
        let mut skewed = TableProfiler::new(4);
        for i in 0..20_000u64 {
            uniform.observe(key(0, i % 500));
            // Zipf-ish: row r drawn with frequency ∝ 1/(r+1).
            let mut r = 0u64;
            let mut acc = 0.0f64;
            let target =
                ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64) * 6.79; // ≈ H_500
            while acc + 1.0 / (r + 1) as f64 <= target && r < 499 {
                acc += 1.0 / (r + 1) as f64;
                r += 1;
            }
            skewed.observe(key(0, r));
        }
        let u = &TableProfiler::merge([&uniform])[0];
        let s = &TableProfiler::merge([&skewed])[0];
        assert!(u.skew < 0.3, "uniform table fits flat: {}", u.skew);
        assert!(s.skew > 0.6, "zipf table fits steep: {}", s.skew);
    }

    #[test]
    fn hot_boundary_shapes() {
        // Uniform: the hot prefix is just q of the table.
        let b0 = hot_boundary(1_000_000, 0.0, 0.8);
        assert!((b0 as f64 - 800_000.0).abs() < 2.0);
        // Strong skew: tiny prefix.
        let b2 = hot_boundary(1_000_000, 2.0, 0.8);
        assert!(b2 < 100, "α=2 hot prefix is tiny: {b2}");
        // α = 1 branch: R^q.
        let b1 = hot_boundary(1_000_000, 1.0, 0.5);
        assert!((b1 as f64 - 1_000.0).abs() < 2.0);
        // Clamped to [1, rows].
        assert_eq!(hot_boundary(1, 3.0, 0.5), 1);
        assert!(hot_boundary(100, 0.0, 1.0) <= 100);
    }

    #[test]
    fn hot_boundary_monotone_in_skew() {
        let mut last = u64::MAX;
        for step in 0..40 {
            let alpha = step as f64 * 0.1;
            let b = hot_boundary(10_000_000, alpha, 0.8);
            assert!(b <= last, "boundary must not grow with skew");
            last = b;
        }
    }

    fn profile(table: u32, size: u64, accesses: u64, skew: f64, unique: u64) -> TableProfile {
        TableProfile {
            table,
            size,
            accesses,
            demand_share: 0.0,
            skew,
            unique_rows: unique,
        }
    }

    #[test]
    fn statistical_pins_tiny_tables_and_splits_big_ones() {
        let policy = StatisticalPlacement::default();
        let topo = TierTopology::two_tier(256, 256);
        let tables = vec![
            profile(0, 4, 1000, 0.0, 4),
            profile(1, 50, 1000, 0.0, 50),
            profile(2, 1_000_000, 1000, 1.5, 400_000),
        ];
        let tp = policy.place_with_tables(4, &topo, &[], &tables);
        assert_eq!(tp.placements.len(), 4);
        assert_eq!(tp.placements.iter().map(|p| p.capacity).sum::<usize>(), 512);
        let pins: Vec<&TableDecision> = tp
            .tables
            .iter()
            .filter(|d| d.pinned_shard.is_some())
            .collect();
        assert_eq!(pins.len(), 2, "both tiny tables pinned: {:?}", tp.tables);
        let split = tp
            .tables
            .iter()
            .find(|d| d.table == 2)
            .expect("big table split");
        assert_eq!(split.pinned_shard, None);
        assert!(split.hot_rows > 0 && split.hot_rows < 1_000_000);
        // Host shards keep at least the hosted pinned footprint.
        for d in &pins {
            let host = d.pinned_shard.unwrap();
            let fp = tables
                .iter()
                .find(|p| p.table == d.table)
                .unwrap()
                .unique_rows;
            assert!(tp.placements[host].capacity as u64 >= fp);
        }
    }

    #[test]
    fn statistical_without_profiles_is_even_split() {
        let policy = StatisticalPlacement::default();
        let topo = TierTopology::uniform(64);
        let p = policy.place(4, &topo, &[]);
        for s in &p {
            assert_eq!(s.capacity, 16);
            assert_eq!(s.tier, 0);
        }
        let tp = policy.place_with_tables(4, &topo, &[], &[]);
        assert_eq!(tp.placements, p);
        assert!(tp.tables.is_empty());
        assert_eq!(policy.name(), "statistical");
        assert_eq!(policy.table_capacity(), 64);
    }

    #[test]
    fn pin_budget_bounds_pins() {
        // Fast tier of 64, budget 0.5 → 32 rows of pins; three 20-row
        // tables: only one fits.
        let policy = StatisticalPlacement {
            pin_threshold: 30,
            fast_pin_budget: 0.5,
            ..StatisticalPlacement::default()
        };
        let topo = TierTopology::two_tier(64, 512);
        let tables = vec![
            profile(0, 20, 100, 0.0, 20),
            profile(1, 20, 100, 0.0, 20),
            profile(2, 20, 100, 0.0, 20),
        ];
        let tp = policy.place_with_tables(2, &topo, &[], &tables);
        let pins = tp
            .tables
            .iter()
            .filter(|d| d.pinned_shard.is_some())
            .count();
        assert_eq!(pins, 1, "32-row budget fits one 20-row table");
    }
}
