//! Typed rows and invariants of the serving policy bench
//! (`benches/serving.rs`).
//!
//! Each section of the bench builds the rows below from the typed reports
//! the system hands it and, before anything is written, runs the section's
//! `check_*` function on them. A check returns the one-line summary the
//! bench prints after `<section> ok:` or the reason the section failed; a
//! failed section aborts the bench before `BENCH_serving.json` is
//! written, so a committed artifact is one that passed every check.
//!
//! `smoke` marks a `RECMG_SMOKE=1` run: counts and structure are checked
//! exactly as in a full run, comparisons between two wall-clock-sensitive
//! rows are skipped or given a tolerance (noted at each check).
//!
//! A full run's wall-clock comparisons (live p99 vs steady, budgeted p99
//! under flash vs steady, async vs blocking cost) are not judged on one
//! sample: the section produces each compared row three times through
//! [`median_run`] and the check — and the artifact — see the repetition
//! holding the median of the compared quantity.

use std::time::Duration;

use recmg_core::{
    CalibrationReport, EngineReport, JsonWriter, MigrationReport, SessionReport, TenantReport,
};

/// A section's verdict: the summary printed after `<section> ok:`, or why
/// the section failed.
pub type Check = Result<String, String>;

fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// The row called `name`, or an error naming the one that is missing.
fn named<'a, T>(rows: &'a [T], name_of: impl Fn(&T) -> &str, name: &str) -> Result<&'a T, String> {
    rows.iter()
        .find(|r| name_of(r) == name)
        .ok_or_else(|| format!("row {name:?} is missing"))
}

/// `100 × (1 − ours / baseline)`, for the summaries.
fn pct_cheaper(ours: u64, baseline: u64) -> f64 {
    100.0 * (1.0 - ours as f64 / baseline.max(1) as f64)
}

/// Produces a row that a wall-clock comparison reads: once in a smoke
/// run; three times in a full run, keeping the repetition that holds the
/// median of `quantity`, so one slow or lucky sample on a loaded box
/// decides nothing.
pub fn median_run<T, K: Ord>(smoke: bool, run: impl FnMut() -> T, quantity: impl Fn(&T) -> K) -> T {
    let reps = if smoke { 1 } else { 3 };
    let mut runs: Vec<T> = std::iter::repeat_with(run).take(reps).collect();
    runs.sort_by_key(|row| quantity(row));
    runs.swap_remove(runs.len() / 2)
}

/// `"name": [` + one row per line at `indent` + `]`.
pub fn write_rows<T>(
    w: &mut JsonWriter,
    name: &str,
    indent: usize,
    rows: &[T],
    each: impl Fn(&T, &mut JsonWriter),
) {
    w.key(name).array(rows, |row, w| {
        w.newline(indent);
        each(row, w);
    });
}

/// One placement policy's measured pass (`tier_placement`,
/// `statistical_placement`).
#[derive(Debug, Clone, Default)]
pub struct PolicyRow {
    /// Policy name.
    pub policy: &'static str,
    /// Whether the one rebalance before the measured pass moved anything.
    pub rebalanced: bool,
    /// One-time rebalance churn, where the section reports it.
    pub migration_cost_ns: Option<u64>,
    /// The measured pass.
    pub report: EngineReport,
}

impl PolicyRow {
    /// Hit-weighted per-tier access cost of the measured pass.
    pub fn cost_ns(&self) -> u64 {
        self.report.access_cost_ns()
    }

    /// Writes the row as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("policy").string(self.policy);
            w.key("rebalanced").raw(self.rebalanced);
            w.key("hit_weighted_cost_ns").raw(self.cost_ns());
            if let Some(ns) = self.migration_cost_ns {
                w.key("migration_cost_ns").raw(ns);
            }
            self.report.write_json(w.key("report"));
        });
    }
}

/// `tier_placement`: hot-first keeps even-split's capacities and assigns
/// tiers by benefit, so it may never cost more; every report spans the
/// two tiers.
pub fn check_tier_placement(rows: &[PolicyRow]) -> Check {
    let by = |name| named(rows, |r| r.policy, name);
    let (even, hot) = (by("even_split")?.cost_ns(), by("hot_first")?.cost_ns());
    by("working_set")?;
    ensure(hot <= even, || {
        format!("hot_first {hot} must not cost more than even_split {even}")
    })?;
    ensure(rows.iter().all(|r| r.report.tiers.len() == 2), || {
        "every policy report must span the two tiers".into()
    })?;
    Ok(format!(
        "even {even} vs hot_first {hot} ({:.1}% cheaper)",
        pct_cheaper(hot, even)
    ))
}

/// One table-size spread of `statistical_placement`.
#[derive(Debug, Clone, Default)]
pub struct SpreadRow {
    /// Variant name (`mild_spread`, `libai_dlrm`).
    pub variant: &'static str,
    /// Tables in the workload.
    pub num_tables: usize,
    /// log10(largest table / smallest table).
    pub size_orders_of_magnitude: f64,
    /// Tables the statistical policy pinned whole.
    pub pinned_tables: usize,
    /// Tables the statistical policy split hot/cold.
    pub split_tables: usize,
    /// `1 − statistical cost / hash-even cost`.
    pub cost_margin_vs_hash_even: f64,
    /// The `hash_even` and `statistical` passes.
    pub policies: Vec<PolicyRow>,
}

impl SpreadRow {
    /// Writes the row as one JSON object (policies one per line).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("variant").string(self.variant);
            w.key("num_tables").raw(self.num_tables);
            w.key("size_orders_of_magnitude")
                .fixed(self.size_orders_of_magnitude, 2);
            w.key("pinned_tables").raw(self.pinned_tables);
            w.key("split_tables").raw(self.split_tables);
            w.key("cost_margin_vs_hash_even")
                .fixed(self.cost_margin_vs_hash_even, 4);
            w.newline(5);
            write_rows(w, "policies", 6, &self.policies, PolicyRow::write_json);
        });
    }
}

/// `statistical_placement`: the RecShard-style policy never costs more
/// than hash-even routing on either spread, pins and splits at least one
/// table, and its margin grows with the spread. A full run also checks
/// the libai array's shape, that every table is profiled, and that the
/// wider spread pins more tables.
pub fn check_statistical_placement(rows: &[SpreadRow], smoke: bool) -> Check {
    let mild = named(rows, |r| r.variant, "mild_spread")?;
    let libai = named(rows, |r| r.variant, "libai_dlrm")?;
    for r in [mild, libai] {
        let name = r.variant;
        let hash = named(&r.policies, |p| p.policy, "hash_even")?.cost_ns();
        let stat = named(&r.policies, |p| p.policy, "statistical")?;
        ensure(stat.cost_ns() <= hash, || {
            format!(
                "{name}: statistical {} must not cost more than hash-even {hash}",
                stat.cost_ns()
            )
        })?;
        ensure(r.pinned_tables >= 1 && r.split_tables >= 1, || {
            format!("{name}: expected at least one pinned and one split table")
        })?;
        if !smoke {
            ensure(stat.report.tables.len() == r.num_tables, || {
                format!(
                    "{name}: {} of {} tables profiled",
                    stat.report.tables.len(),
                    r.num_tables
                )
            })?;
        }
    }
    ensure(
        libai.cost_margin_vs_hash_even >= mild.cost_margin_vs_hash_even,
        || {
            format!(
                "margin must grow with size spread: libai {:.4} vs mild {:.4}",
                libai.cost_margin_vs_hash_even, mild.cost_margin_vs_hash_even
            )
        },
    )?;
    if !smoke {
        ensure(
            libai.num_tables >= 20 && libai.size_orders_of_magnitude >= 5.0,
            || "libai array must span >= 20 tables and >= 5 orders".into(),
        )?;
        ensure(libai.pinned_tables > mild.pinned_tables, || {
            "the wider spread must pin more tables".into()
        })?;
    }
    Ok(format!(
        "mild margin {:.2}% -> libai margin {:.2}% ({} pinned, {} split)",
        100.0 * mild.cost_margin_vs_hash_even,
        100.0 * libai.cost_margin_vs_hash_even,
        libai.pinned_tables,
        libai.split_tables
    ))
}

/// One rebalancing strategy of `working_set_estimation`.
#[derive(Debug, Clone, Default)]
pub struct StrategyRow {
    /// Strategy name.
    pub strategy: &'static str,
    /// Placement policy it runs.
    pub policy: &'static str,
    /// Whether the phase trigger is armed.
    pub phase_reactive: bool,
    /// Trigger fires.
    pub fires: u64,
    /// Fires raised by the phase trigger alone.
    pub phase_fires: u64,
    /// Fires that moved something.
    pub rebalances: u64,
    /// Sketched footprint at the end.
    pub unique_keys: u64,
    /// Cumulative cost over both phases, migration charges included.
    pub cost_ns: u64,
    /// Cost of the second phase only.
    pub post_flip_cost_ns: u64,
}

impl StrategyRow {
    /// Writes the row as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("strategy").string(self.strategy);
            w.key("policy").string(self.policy);
            w.key("phase_reactive").raw(self.phase_reactive);
            w.key("fires").raw(self.fires);
            w.key("phase_fires").raw(self.phase_fires);
            w.key("rebalances").raw(self.rebalances);
            w.key("unique_keys").raw(self.unique_keys);
            w.key("hit_weighted_cost_ns").raw(self.cost_ns);
            w.key("post_flip_cost_ns").raw(self.post_flip_cost_ns);
        });
    }
}

/// `working_set_estimation`: the phase trigger fires on the flip and the
/// phase-reactive strategy never costs more than the periodic one.
pub fn check_working_set_estimation(rows: &[StrategyRow]) -> Check {
    let periodic = named(rows, |r| r.strategy, "miss_mass_periodic")?;
    let reactive = named(rows, |r| r.strategy, "cardinality_phase_reactive")?;
    ensure(reactive.phase_fires >= 1, || {
        "phase trigger never fired on the flip".into()
    })?;
    ensure(reactive.cost_ns <= periodic.cost_ns, || {
        format!(
            "phase-reactive {} must not cost more than periodic {}",
            reactive.cost_ns, periodic.cost_ns
        )
    })?;
    Ok(format!(
        "periodic {} vs reactive {} ({:.1}% cheaper, {} phase fires)",
        periodic.cost_ns,
        reactive.cost_ns,
        pct_cheaper(reactive.cost_ns, periodic.cost_ns),
        reactive.phase_fires
    ))
}

/// One serving strategy of `online_rebalance`.
#[derive(Debug, Clone, Default)]
pub struct RebalanceRow {
    /// Strategy name.
    pub strategy: &'static str,
    /// Whether the hot set flips halfway.
    pub flip: bool,
    /// Stop-the-world drains the strategy paid.
    pub drains: usize,
    /// Requests completed.
    pub completed: u64,
    /// Closed-loop per-request p99.
    pub p99: Duration,
    /// Cumulative per-tier cost, migration charges included.
    pub cost_ns: u64,
    /// Live-migration accounting.
    pub migration: MigrationReport,
}

impl RebalanceRow {
    /// Writes the row as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("strategy").string(self.strategy);
            w.key("flip").raw(self.flip);
            w.key("drains").raw(self.drains);
            w.key("completed").raw(self.completed);
            w.key("p99_ns").raw(self.p99.as_nanos());
            w.key("hit_weighted_cost_ns").raw(self.cost_ns);
            self.migration.write_json(w.key("migration"));
        });
    }
}

/// `online_rebalance`: the live row migrates without ever draining and the
/// quiescent baseline pays its drains. A full run also holds the live row
/// to the quiescent row's total cost and to 2× the steady row's p99 —
/// both wall-clock sensitive at smoke scale.
pub fn check_online_rebalance(rows: &[RebalanceRow], smoke: bool) -> Check {
    let by = |name| named(rows, |r| r.strategy, name);
    let (steady, quiescent, live) = (by("steady")?, by("quiescent_reactive")?, by("live")?);
    ensure(live.drains == 0, || "live strategy must never drain".into())?;
    ensure(quiescent.drains >= 1, || {
        "quiescent baseline must pay drains".into()
    })?;
    ensure(live.migration.migrations >= 1, || {
        "live path never migrated".into()
    })?;
    if !smoke {
        ensure(live.p99 <= 2 * steady.p99, || {
            format!("live p99 {:?} exceeds 2x steady {:?}", live.p99, steady.p99)
        })?;
        ensure(live.cost_ns <= quiescent.cost_ns, || {
            format!(
                "live {} must not cost more than quiescent {}",
                live.cost_ns, quiescent.cost_ns
            )
        })?;
    }
    Ok(format!(
        "live {} vs quiescent {} ({:.1}% cheaper, {} migrations)",
        live.cost_ns,
        quiescent.cost_ns,
        pct_cheaper(live.cost_ns, quiescent.cost_ns),
        live.migration.migrations
    ))
}

/// One scenario of `multi_tenant_burst`.
#[derive(Debug, Clone, Default)]
pub struct ScenarioRow {
    /// `steady` or `flash_crowd`.
    pub scenario: &'static str,
    /// The drained session.
    pub session: SessionReport,
}

impl ScenarioRow {
    /// Writes the row as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("scenario").string(self.scenario);
            self.session.write_json(w.key("session"));
        });
    }
}

fn tenant<'a>(session: &'a SessionReport, name: &str) -> Result<&'a TenantReport, String> {
    named(&session.tenants, |t| t.name.as_str(), name)
}

/// `multi_tenant_burst`: admission accounting conserves exactly, per
/// tenant and summed back to the session totals; the flash crowd sheds
/// best-effort requests and fires a migration. A full run also holds the
/// budgeted tenant to zero loss and 2× its steady p99, and the
/// best-effort tenant to absorbing more than it did in steady state and
/// at least as much as the budgeted tenant — latency- and rate-sensitive
/// at smoke scale.
pub fn check_multi_tenant_burst(rows: &[ScenarioRow], smoke: bool) -> Check {
    let steady = &named(rows, |r| r.scenario, "steady")?.session;
    let flash = &named(rows, |r| r.scenario, "flash_crowd")?.session;
    type Field = (
        &'static str,
        fn(&TenantReport) -> u64,
        fn(&SessionReport) -> u64,
    );
    let fields: [Field; 5] = [
        ("submitted", |t| t.submitted, |s| s.submitted),
        ("completed", |t| t.completed, |s| s.completed),
        (
            "rejected_queue_full",
            |t| t.rejected_queue_full,
            |s| s.rejected_queue_full,
        ),
        (
            "rejected_deadline",
            |t| t.rejected_deadline,
            |s| s.rejected_deadline,
        ),
        ("shed_in_queue", |t| t.shed_in_queue, |s| s.shed_in_queue),
    ];
    for (scenario, s) in [("steady", steady), ("flash_crowd", flash)] {
        for t in &s.tenants {
            ensure(t.completed + t.unserved() == t.submitted, || {
                format!("{scenario}/{}: tenant accounting leaked", t.name)
            })?;
        }
        for (field, of_tenant, of_session) in fields {
            ensure(
                s.tenants.iter().map(of_tenant).sum::<u64>() == of_session(s),
                || format!("{scenario}: tenant {field} does not sum to the session total"),
            )?;
        }
    }
    let (steady_budgeted, steady_besteffort) =
        (tenant(steady, "budgeted")?, tenant(steady, "besteffort")?);
    let (budgeted, besteffort) = (tenant(flash, "budgeted")?, tenant(flash, "besteffort")?);
    ensure(besteffort.unserved() > 0, || {
        "flash crowd shed nothing".into()
    })?;
    ensure(flash.engine.migration.migrations >= 1, || {
        "phase trigger never fired during the flash crowd".into()
    })?;
    if !smoke {
        ensure(budgeted.completed == budgeted.submitted, || {
            "budgeted tenant lost requests to the flash crowd".into()
        })?;
        ensure(
            budgeted.latency.p99 <= 2 * steady_budgeted.latency.p99,
            || {
                format!(
                    "budgeted p99 {:?} under flash exceeds 2x steady {:?}",
                    budgeted.latency.p99, steady_budgeted.latency.p99
                )
            },
        )?;
        ensure(besteffort.unserved() >= budgeted.unserved(), || {
            "the budgeted tenant absorbed more of the flash than best-effort".into()
        })?;
        ensure(besteffort.unserved() > steady_besteffort.unserved(), || {
            "flash must shed more best-effort requests than steady state".into()
        })?;
    }
    Ok(format!(
        "budgeted p99 {:.3}ms steady -> {:.3}ms flash, best-effort unserved {} -> {} of {}, \
         {} migrations",
        steady_budgeted.latency.p99.as_secs_f64() * 1e3,
        budgeted.latency.p99.as_secs_f64() * 1e3,
        steady_besteffort.unserved(),
        besteffort.unserved(),
        besteffort.submitted,
        flash.engine.migration.migrations
    ))
}

/// One fill mode of `sdm_ladder`.
#[derive(Debug, Clone, Default)]
pub struct LadderRow {
    /// `blocking` or `async`.
    pub fill_mode: &'static str,
    /// The drained session's engine report.
    pub report: EngineReport,
}

impl LadderRow {
    /// Hit-weighted access cost of the row's session.
    pub fn cost_ns(&self) -> u64 {
        self.report.access_cost_ns()
    }

    /// Writes the row as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("fill_mode").string(self.fill_mode);
            w.key("hit_weighted_cost_ns").raw(self.cost_ns());
            self.report.write_json(w.key("report"));
        });
    }
}

/// `sdm_ladder`: the stream's footprint is at least 4× the fast tier,
/// every rung carries measured (nonzero) costs, the async row promoted
/// fills, and async fills cost no more than blocking read-through — with
/// a 10% tolerance at smoke scale, where the few hundred requests leave
/// the measured comparison inside scheduler noise.
pub fn check_sdm_ladder(
    fast_rows: usize,
    footprint_rows: usize,
    calibration: &CalibrationReport,
    rows: &[LadderRow],
    smoke: bool,
) -> Check {
    ensure(footprint_rows >= 4 * fast_rows, || {
        "ladder must be exercised at >= 4x fast-tier footprint".into()
    })?;
    for tier in ["dram", "mapped_file", "file"] {
        let c = named(&calibration.tiers, |c| c.tier.as_str(), tier)?;
        ensure(c.hit_ns > 0 && c.miss_ns > 0 && c.fill_ns > 0, || {
            format!("{tier}: hit/miss/fill costs must be measured, got {c:?}")
        })?;
    }
    let blocking = named(rows, |r| r.fill_mode, "blocking")?
        .report
        .access_cost_ns();
    let async_row = named(rows, |r| r.fill_mode, "async")?;
    let async_ns = async_row.report.access_cost_ns();
    let limit = if smoke {
        blocking + blocking / 10
    } else {
        blocking
    };
    ensure(async_ns <= limit, || {
        format!("async fills {async_ns} cost more than blocking {blocking} (limit {limit})")
    })?;
    let fills = &async_row.report.fills;
    ensure(fills.promoted > 0, || {
        "async row never promoted a fill".into()
    })?;
    Ok(format!(
        "blocking {blocking} vs async {async_ns} ({:.1}% cheaper, {} promoted, {} coalesced)",
        pct_cheaper(async_ns, blocking),
        fills.promoted,
        fills.coalesced
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmg_core::{TierCalibration, TierTraffic, TierUsage};

    /// A two-tier engine report whose total access cost is `cost_ns`.
    fn engine(cost_ns: u64) -> EngineReport {
        let tier = |name: &str, cost_ns| TierUsage {
            name: name.to_string(),
            shards: 4,
            capacity: 128,
            resident: 100,
            traffic: TierTraffic {
                cost_ns,
                ..TierTraffic::default()
            },
        };
        EngineReport {
            tiers: vec![tier("dram", cost_ns), tier("cxl", 0)],
            ..EngineReport::default()
        }
    }

    fn policy(policy: &'static str, cost_ns: u64) -> PolicyRow {
        PolicyRow {
            policy,
            report: engine(cost_ns),
            ..PolicyRow::default()
        }
    }

    fn fails(check: Check, needle: &str) {
        let why = check.expect_err("the violating row must fail the check");
        assert!(why.contains(needle), "unexpected reason: {why}");
    }

    #[test]
    fn tier_placement_rejects_hot_first_costlier_than_even_split() {
        let rows = |hot| {
            vec![
                policy("even_split", 100),
                policy("working_set", 90),
                policy("hot_first", hot),
            ]
        };
        assert!(check_tier_placement(&rows(100)).is_ok());
        fails(check_tier_placement(&rows(101)), "must not cost more");
        fails(check_tier_placement(&rows(100)[..2]), "hot_first");
    }

    fn spread(variant: &'static str, pinned: usize, hash: u64, stat: u64) -> SpreadRow {
        SpreadRow {
            variant,
            num_tables: 26,
            size_orders_of_magnitude: 7.1,
            pinned_tables: pinned,
            split_tables: 3,
            cost_margin_vs_hash_even: 1.0 - stat as f64 / hash as f64,
            policies: vec![policy("hash_even", hash), policy("statistical", stat)],
        }
    }

    #[test]
    fn statistical_placement_rejects_a_losing_policy_and_a_shrinking_margin() {
        let ok = [
            spread("mild_spread", 1, 100, 98),
            spread("libai_dlrm", 5, 100, 94),
        ];
        // Smoke skips the per-table profile count (fixtures have none).
        assert!(check_statistical_placement(&ok, true).is_ok());
        fails(check_statistical_placement(&ok, false), "tables profiled");
        let losing = [ok[0].clone(), spread("libai_dlrm", 5, 100, 101)];
        fails(
            check_statistical_placement(&losing, true),
            "must not cost more than hash-even",
        );
        let shrinking = [
            spread("mild_spread", 1, 100, 90),
            spread("libai_dlrm", 5, 100, 94),
        ];
        fails(
            check_statistical_placement(&shrinking, true),
            "margin must grow",
        );
        let unpinned = [spread("mild_spread", 0, 100, 98), ok[1].clone()];
        fails(
            check_statistical_placement(&unpinned, true),
            "at least one pinned",
        );
    }

    #[test]
    fn working_set_estimation_rejects_a_silent_trigger_and_a_costlier_reactive_row() {
        let rows = |phase_fires, reactive_cost| {
            [
                StrategyRow {
                    strategy: "miss_mass_periodic",
                    cost_ns: 100,
                    ..StrategyRow::default()
                },
                StrategyRow {
                    strategy: "cardinality_phase_reactive",
                    phase_fires,
                    cost_ns: reactive_cost,
                    ..StrategyRow::default()
                },
            ]
        };
        assert!(check_working_set_estimation(&rows(2, 80)).is_ok());
        fails(check_working_set_estimation(&rows(0, 80)), "never fired");
        fails(
            check_working_set_estimation(&rows(2, 101)),
            "must not cost more",
        );
    }

    fn rebalance(strategy: &'static str, drains: usize, p99_us: u64, cost_ns: u64) -> RebalanceRow {
        RebalanceRow {
            strategy,
            drains,
            p99: Duration::from_micros(p99_us),
            cost_ns,
            migration: MigrationReport {
                migrations: u64::from(strategy == "live"),
                ..MigrationReport::default()
            },
            ..RebalanceRow::default()
        }
    }

    #[test]
    fn median_run_judges_the_middle_repetition_not_an_outlier() {
        // Live p99 over three repetitions against a 100 µs steady row.
        let verdict = |live_p99_us: [u64; 3]| {
            let mut samples = live_p99_us.into_iter();
            let live = median_run(
                false,
                || rebalance("live", 0, samples.next().expect("three repetitions"), 80),
                |row| row.p99,
            );
            let rows = [
                rebalance("steady", 0, 100, 50),
                rebalance("quiescent_reactive", 2, 100, 90),
                live,
            ];
            check_online_rebalance(&rows, false)
        };
        // One repetition over the 2x limit does not fail the section …
        assert!(verdict([150, 900, 180]).is_ok());
        // … two do, and the reason names the median, not the worst.
        fails(verdict([150, 900, 260]), "live p99 260µs exceeds 2x steady");
        // A smoke run is its one repetition.
        let mut calls = 0;
        let once = || {
            calls += 1;
            calls
        };
        assert_eq!(median_run(true, once, |&x| x), 1);
    }

    #[test]
    fn online_rebalance_rejects_a_draining_or_costlier_live_row() {
        let rows = |live_drains, live_p99, live_cost| {
            [
                rebalance("steady", 0, 100, 50),
                rebalance("quiescent_reactive", 2, 100, 90),
                rebalance("live", live_drains, live_p99, live_cost),
            ]
        };
        assert!(check_online_rebalance(&rows(0, 150, 80), false).is_ok());
        fails(
            check_online_rebalance(&rows(1, 150, 80), true),
            "never drain",
        );
        fails(
            check_online_rebalance(&rows(0, 201, 80), false),
            "exceeds 2x steady",
        );
        fails(
            check_online_rebalance(&rows(0, 150, 91), false),
            "must not cost more than quiescent",
        );
        // The two wall-clock comparisons are full-run only.
        assert!(check_online_rebalance(&rows(0, 201, 91), true).is_ok());
        let mut unmoved = rows(0, 150, 80);
        unmoved[2].migration.migrations = 0;
        fails(check_online_rebalance(&unmoved, true), "never migrated");
    }

    fn tenant(name: &str, submitted: u64, shed: u64, p99_us: u64) -> TenantReport {
        let mut t = TenantReport {
            name: name.to_string(),
            submitted,
            completed: submitted - shed,
            shed_in_queue: shed,
            ..TenantReport::default()
        };
        t.latency.p99 = Duration::from_micros(p99_us);
        t
    }

    fn scenario(
        scenario: &'static str,
        tenants: Vec<TenantReport>,
        migrations: u64,
    ) -> ScenarioRow {
        let sum = |f: fn(&TenantReport) -> u64| -> u64 { tenants.iter().map(f).sum() };
        let mut session = SessionReport {
            submitted: sum(|t| t.submitted),
            completed: sum(|t| t.completed),
            shed_in_queue: sum(|t| t.shed_in_queue),
            ..SessionReport::default()
        };
        session.engine.migration.migrations = migrations;
        session.tenants = tenants;
        ScenarioRow { scenario, session }
    }

    #[test]
    fn multi_tenant_burst_rejects_leaks_and_a_starved_budgeted_tenant() {
        let steady = || {
            scenario(
                "steady",
                vec![
                    tenant("budgeted", 50, 0, 100),
                    tenant("besteffort", 70, 1, 100),
                ],
                0,
            )
        };
        let flash = |budgeted_shed, budgeted_p99, besteffort_shed, migrations| {
            scenario(
                "flash_crowd",
                vec![
                    tenant("budgeted", 50, budgeted_shed, budgeted_p99),
                    tenant("besteffort", 70, besteffort_shed, 900),
                ],
                migrations,
            )
        };
        assert!(check_multi_tenant_burst(&[steady(), flash(0, 150, 30, 1)], false).is_ok());
        let mut leaky = flash(0, 150, 30, 1);
        leaky.session.tenants[1].completed -= 1;
        fails(
            check_multi_tenant_burst(&[steady(), leaky], true),
            "tenant accounting leaked",
        );
        let mut skewed = flash(0, 150, 30, 1);
        skewed.session.submitted += 1;
        fails(
            check_multi_tenant_burst(&[steady(), skewed], true),
            "does not sum to the session total",
        );
        fails(
            check_multi_tenant_burst(&[steady(), flash(0, 150, 0, 1)], true),
            "shed nothing",
        );
        fails(
            check_multi_tenant_burst(&[steady(), flash(0, 150, 30, 0)], true),
            "never fired",
        );
        fails(
            check_multi_tenant_burst(&[steady(), flash(2, 150, 30, 1)], false),
            "lost requests",
        );
        fails(
            check_multi_tenant_burst(&[steady(), flash(0, 201, 30, 1)], false),
            "exceeds 2x steady",
        );
        fails(
            check_multi_tenant_burst(&[steady(), flash(0, 150, 1, 1)], false),
            "more best-effort requests than steady",
        );
        // Latency and shed-ordering comparisons are full-run only.
        assert!(check_multi_tenant_burst(&[steady(), flash(2, 201, 1, 1)], true).is_ok());
    }

    #[test]
    fn sdm_ladder_rejects_unmeasured_rungs_and_costlier_async_fills() {
        let calibration = |file_fill_ns| CalibrationReport {
            tiers: ["dram", "mapped_file", "file"]
                .iter()
                .map(|&tier| TierCalibration {
                    tier: tier.to_string(),
                    backend: "dram",
                    probe_rows: 128,
                    hit_ns: 10,
                    miss_ns: 100,
                    fill_ns: if tier == "file" { file_fill_ns } else { 40 },
                })
                .collect(),
        };
        let rows = |async_ns, promoted| {
            let mut async_report = engine(async_ns);
            async_report.fills.promoted = promoted;
            [
                LadderRow {
                    fill_mode: "blocking",
                    report: engine(1000),
                },
                LadderRow {
                    fill_mode: "async",
                    report: async_report,
                },
            ]
        };
        let good = calibration(40);
        assert!(check_sdm_ladder(128, 512, &good, &rows(950, 7), false).is_ok());
        fails(
            check_sdm_ladder(128, 511, &good, &rows(950, 7), false),
            "4x fast-tier footprint",
        );
        fails(
            check_sdm_ladder(128, 512, &calibration(0), &rows(950, 7), false),
            "must be measured",
        );
        fails(
            check_sdm_ladder(128, 512, &good, &rows(1001, 7), false),
            "cost more than blocking",
        );
        // Smoke tolerates 10%, no more.
        assert!(check_sdm_ladder(128, 512, &good, &rows(1100, 7), true).is_ok());
        fails(
            check_sdm_ladder(128, 512, &good, &rows(1101, 7), true),
            "cost more than blocking",
        );
        fails(
            check_sdm_ladder(128, 512, &good, &rows(950, 0), false),
            "never promoted",
        );
    }
}
