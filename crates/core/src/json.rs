//! The one JSON emitter behind every report and bench artifact.
//!
//! JSON is write-only in this workspace (nothing reads an artifact back),
//! so the whole surface is a [`JsonWriter`] that a report drives field by
//! field: each `write_json` names a key once, right beside the value it
//! writes. Separators are derived from what was written last, so callers
//! never track "first element" state.

use std::fmt::{Display, Write};

/// Streaming JSON writer over a `String`: `", "` between siblings,
/// `": "` after keys, no whitespace inside brackets — the layout every
/// report has always had.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
}

impl JsonWriter {
    /// The JSON text of the one value `body` writes.
    pub fn render(body: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::default();
        body(&mut w);
        w.out
    }

    /// Puts a comma after the previous sibling, if there is one: nothing
    /// directly after an opening bracket or a key; otherwise `", "`, or a
    /// bare `","` tucked in before a [`newline`](JsonWriter::newline).
    fn sep(&mut self) {
        let body = self.out.trim_end().len();
        if body == 0 || self.out[..body].ends_with(['{', '[', ':']) {
            return;
        }
        if body == self.out.len() {
            self.out.push_str(", ");
        } else {
            self.out.insert(body, ',');
        }
    }

    /// Starts an object member; the next write is its value.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.sep();
        write!(self.out, "\"{name}\": ").expect("String writes are infallible");
        self
    }

    /// A value whose `Display` is already JSON: integers, bools, `null`.
    pub fn raw(&mut self, value: impl Display) {
        self.sep();
        write!(self.out, "{value}").expect("String writes are infallible");
    }

    /// A float with a fixed number of decimals.
    pub fn fixed(&mut self, value: f64, decimals: usize) {
        self.sep();
        write!(self.out, "{value:.decimals$}").expect("String writes are infallible");
    }

    /// A quoted string (`"` and `\` escaped).
    pub fn string(&mut self, value: &str) {
        self.sep();
        self.out.push('"');
        for c in value.chars() {
            if matches!(c, '"' | '\\') {
                self.out.push('\\');
            }
            self.out.push(c);
        }
        self.out.push('"');
    }

    /// `{` + whatever members `body` writes + `}`.
    pub fn object(&mut self, body: impl FnOnce(&mut Self)) {
        self.sep();
        self.out.push('{');
        body(self);
        self.out.push('}');
    }

    /// `[` + one `each` call per item + `]`. `each` takes the item first so
    /// a report's `write_json` method can be passed by path.
    pub fn array<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut each: impl FnMut(T, &mut Self),
    ) {
        self.sep();
        self.out.push('[');
        for item in items {
            each(item, self);
        }
        self.out.push(']');
    }

    /// Line break plus `indent` spaces, for artifacts meant to be diffed
    /// (the bench document puts one row per line). Reports never call it.
    pub fn newline(&mut self, indent: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n(' ', indent));
    }
}

/// Golden fixtures: every report's JSON, byte for byte, as the
/// hand-written `format!` templates this writer replaced produced it.
#[cfg(test)]
mod tests {
    use super::JsonWriter;
    use std::time::Duration;

    use recmg_dlrm::BatchAccessStats;

    use crate::backend::{CalibrationReport, FillPlaneReport, TierCalibration};
    use crate::buffer_mgmt::TierTraffic;
    use crate::engine::{EngineReport, GuidancePlaneReport};
    use crate::migrate::MigrationReport;
    use crate::session::{LatencySummary, SessionReport, SlaOutcome, TenantReport};
    use crate::table_profile::{TableProfile, TableReport};
    use crate::tier::TierUsage;

    fn tier(name: &str, shards: usize, hits: u64) -> TierUsage {
        TierUsage {
            name: name.to_string(),
            shards,
            capacity: 128,
            resident: 97,
            traffic: TierTraffic {
                hits,
                misses: 30,
                prefetch_fills: 7,
                demand_fills: 3,
                cost_ns: 98_765,
                unique_keys: 41,
            },
        }
    }

    fn plane() -> GuidancePlaneReport {
        GuidancePlaneReport {
            model_forwards: 18,
            drains: 9,
            chunks: 31,
            max_batch: 8,
            late_chunks: 2,
            kernel_lane: "avx2+int8",
        }
    }

    fn migration() -> MigrationReport {
        MigrationReport {
            migrations: 2,
            resizes: 1,
            migration_cost_ns: 46_800,
        }
    }

    fn calibrated(tier: &str, backend: &'static str, hit_ns: u64) -> TierCalibration {
        TierCalibration {
            tier: tier.to_string(),
            backend,
            probe_rows: 128,
            hit_ns,
            miss_ns: 340,
            fill_ns: 95,
        }
    }

    fn calibration() -> CalibrationReport {
        CalibrationReport {
            tiers: vec![
                calibrated("dram", "dram", 12),
                calibrated("mapped_file", "mmap", 57),
            ],
        }
    }

    fn fills() -> FillPlaneReport {
        FillPlaneReport {
            queued: 50,
            coalesced: 9,
            dropped: 2,
            promoted: 39,
        }
    }

    fn table(id: u32, pinned_shard: Option<usize>) -> TableReport {
        TableReport {
            profile: TableProfile {
                table: id,
                size: 40_000,
                accesses: 1_234,
                demand_share: 0.038_46,
                skew: 1.234_5,
                unique_rows: 812,
            },
            pinned_shard,
            hot_rows: 64,
        }
    }

    fn engine() -> EngineReport {
        EngineReport {
            stats: BatchAccessStats {
                cache_hits: 100,
                prefetch_hits: 20,
                misses: 30,
            },
            batches: 25,
            guided_chunks: 30,
            total_chunks: 40,
            elapsed_secs: 0.123_456,
            plane: plane(),
            tiers: vec![tier("dram", 3, 120), tier("cxl", 5, 0)],
            unique_keys: 77,
            max_phase_score: 0.512_39,
            migration: migration(),
            tables: vec![table(3, Some(2)), table(9, None)],
            calibration: calibration(),
            fills: fills(),
        }
    }

    fn latency(count: usize) -> LatencySummary {
        LatencySummary {
            count,
            p50: Duration::from_micros(1_500),
            p95: Duration::from_micros(4_250),
            p99: Duration::from_nanos(9_875_400),
            mean: Duration::from_micros(2_001),
            max: Duration::from_millis(12),
        }
    }

    fn sla() -> SlaOutcome {
        SlaOutcome {
            budget: Duration::from_millis(8),
            met: 22,
            missed: 3,
            degraded_skip_ahead: 4,
            degraded_prefetch_off: 1,
        }
    }

    fn tenant(name: &str, weight: f64, sla: Option<SlaOutcome>) -> TenantReport {
        TenantReport {
            name: name.to_string(),
            weight,
            submitted: 20,
            completed: 15,
            rejected_queue_full: 2,
            rejected_deadline: 1,
            shed_in_queue: 2,
            latency: latency(15),
            queue_wait: latency(15),
            sla,
        }
    }

    fn session(sla: Option<SlaOutcome>) -> SessionReport {
        SessionReport {
            engine: engine(),
            submitted: 40,
            rejected_queue_full: 4,
            rejected_deadline: 2,
            shed_in_queue: 4,
            completed: 30,
            latency: latency(30),
            queue_wait: latency(30),
            sla,
            tenants: vec![
                tenant("budgeted", 3.0, Some(self::sla())),
                tenant("besteffort", 0.5, None),
            ],
        }
    }

    #[test]
    fn writer_escapes_strings_and_places_commas_around_newlines() {
        let doc = JsonWriter::render(|w| {
            w.object(|w| {
                w.newline(2);
                w.key("name").string("a\"b\\c");
                w.key("rows").array([1, 2], |n, w| {
                    w.newline(4);
                    w.raw(n);
                });
                w.newline(2);
                w.key("none").raw("null");
                w.newline(0);
            });
        });
        assert_eq!(
            doc,
            "{\n  \"name\": \"a\\\"b\\\\c\", \"rows\": [\n    1,\n    2],\n  \"none\": null\n}"
        );
    }

    #[test]
    fn golden_tier_usage() {
        assert_eq!(
            JsonWriter::render(|w| tier("dram", 3, 120).write_json(w)),
            r#"{"tier": "dram", "shards": 3, "capacity": 128, "resident": 97, "hits": 120, "misses": 30, "prefetch_fills": 7, "demand_fills": 3, "cost_ns": 98765, "unique_keys": 41}"#
        );
    }

    #[test]
    fn golden_guidance_plane_report() {
        let json = JsonWriter::render(|w| plane().write_json(w));
        assert_eq!(
            json,
            r#"{"model_forwards": 18, "drains": 9, "chunks": 31, "mean_batch": 3.44, "max_batch": 8, "late_chunks": 2, "kernel_lane": "avx2+int8"}"#
        );
    }

    #[test]
    fn golden_migration_report() {
        assert_eq!(
            JsonWriter::render(|w| migration().write_json(w)),
            r#"{"migrations": 2, "resizes": 1, "migration_cost_ns": 46800}"#
        );
    }

    #[test]
    fn golden_tier_calibration() {
        assert_eq!(
            JsonWriter::render(|w| calibrated("dram", "dram", 12).write_json(w)),
            r#"{"tier": "dram", "backend": "dram", "probe_rows": 128, "hit_ns": 12, "miss_ns": 340, "fill_ns": 95}"#
        );
    }

    #[test]
    fn golden_calibration_report() {
        assert_eq!(
            JsonWriter::render(|w| calibration().write_json(w)),
            r#"[{"tier": "dram", "backend": "dram", "probe_rows": 128, "hit_ns": 12, "miss_ns": 340, "fill_ns": 95}, {"tier": "mapped_file", "backend": "mmap", "probe_rows": 128, "hit_ns": 57, "miss_ns": 340, "fill_ns": 95}]"#
        );
        assert_eq!(
            JsonWriter::render(|w| CalibrationReport::default().write_json(w)),
            "[]"
        );
    }

    #[test]
    fn golden_fill_plane_report() {
        assert_eq!(
            JsonWriter::render(|w| fills().write_json(w)),
            r#"{"queued": 50, "coalesced": 9, "dropped": 2, "promoted": 39}"#
        );
    }

    #[test]
    fn golden_table_report() {
        assert_eq!(
            JsonWriter::render(|w| table(3, Some(2)).write_json(w)),
            r#"{"table": 3, "size": 40000, "accesses": 1234, "demand_share": 0.0385, "skew": 1.234, "unique_rows": 812, "pinned_shard": 2, "hot_rows": 64}"#
        );
        assert_eq!(
            JsonWriter::render(|w| table(9, None).write_json(w)),
            r#"{"table": 9, "size": 40000, "accesses": 1234, "demand_share": 0.0385, "skew": 1.234, "unique_rows": 812, "pinned_shard": -1, "hot_rows": 64}"#
        );
    }

    #[test]
    fn golden_engine_report() {
        assert_eq!(
            JsonWriter::render(|w| engine().write_json(w)),
            r#"{"batches": 25, "keys": 150, "hit_rate": 0.8000, "guided_fraction": 0.7500, "keys_per_sec": 1215.0, "elapsed_secs": 0.1235, "plane": {"model_forwards": 18, "drains": 9, "chunks": 31, "mean_batch": 3.44, "max_batch": 8, "late_chunks": 2, "kernel_lane": "avx2+int8"}, "access_cost_ns": 197530, "unique_keys": 77, "max_phase_score": 0.5124, "migration": {"migrations": 2, "resizes": 1, "migration_cost_ns": 46800}, "calibration": [{"tier": "dram", "backend": "dram", "probe_rows": 128, "hit_ns": 12, "miss_ns": 340, "fill_ns": 95}, {"tier": "mapped_file", "backend": "mmap", "probe_rows": 128, "hit_ns": 57, "miss_ns": 340, "fill_ns": 95}], "fills": {"queued": 50, "coalesced": 9, "dropped": 2, "promoted": 39}, "tiers": [{"tier": "dram", "shards": 3, "capacity": 128, "resident": 97, "hits": 120, "misses": 30, "prefetch_fills": 7, "demand_fills": 3, "cost_ns": 98765, "unique_keys": 41}, {"tier": "cxl", "shards": 5, "capacity": 128, "resident": 97, "hits": 0, "misses": 30, "prefetch_fills": 7, "demand_fills": 3, "cost_ns": 98765, "unique_keys": 41}], "tables": [{"table": 3, "size": 40000, "accesses": 1234, "demand_share": 0.0385, "skew": 1.234, "unique_rows": 812, "pinned_shard": 2, "hot_rows": 64}, {"table": 9, "size": 40000, "accesses": 1234, "demand_share": 0.0385, "skew": 1.234, "unique_rows": 812, "pinned_shard": -1, "hot_rows": 64}]}"#
        );
    }

    #[test]
    fn golden_latency_summary() {
        let json = JsonWriter::render(|w| latency(15).write_json(w));
        assert_eq!(
            json,
            r#"{"count": 15, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}"#
        );
    }

    #[test]
    fn golden_sla_outcome() {
        assert_eq!(
            JsonWriter::render(|w| sla().write_json(w)),
            r#"{"budget_ms": 8.000, "met": 22, "missed": 3, "attainment": 0.8800, "degraded_skip_ahead": 4, "degraded_prefetch_off": 1}"#
        );
    }

    #[test]
    fn golden_tenant_report() {
        assert_eq!(
            JsonWriter::render(|w| tenant("budgeted", 3.0, Some(sla())).write_json(w)),
            r#"{"name": "budgeted", "weight": 3, "submitted": 20, "completed": 15, "rejected_queue_full": 2, "rejected_deadline": 1, "shed_in_queue": 2, "latency": {"count": 15, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}, "queue_wait": {"count": 15, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}, "sla": {"budget_ms": 8.000, "met": 22, "missed": 3, "attainment": 0.8800, "degraded_skip_ahead": 4, "degraded_prefetch_off": 1}}"#
        );
        assert_eq!(
            JsonWriter::render(|w| tenant("besteffort", 0.5, None).write_json(w)),
            r#"{"name": "besteffort", "weight": 0.5, "submitted": 20, "completed": 15, "rejected_queue_full": 2, "rejected_deadline": 1, "shed_in_queue": 2, "latency": {"count": 15, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}, "queue_wait": {"count": 15, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}, "sla": null}"#
        );
    }

    #[test]
    fn golden_session_report() {
        assert_eq!(
            JsonWriter::render(|w| session(Some(sla())).write_json(w)),
            r#"{"engine": {"batches": 25, "keys": 150, "hit_rate": 0.8000, "guided_fraction": 0.7500, "keys_per_sec": 1215.0, "elapsed_secs": 0.1235, "plane": {"model_forwards": 18, "drains": 9, "chunks": 31, "mean_batch": 3.44, "max_batch": 8, "late_chunks": 2, "kernel_lane": "avx2+int8"}, "access_cost_ns": 197530, "unique_keys": 77, "max_phase_score": 0.5124, "migration": {"migrations": 2, "resizes": 1, "migration_cost_ns": 46800}, "calibration": [{"tier": "dram", "backend": "dram", "probe_rows": 128, "hit_ns": 12, "miss_ns": 340, "fill_ns": 95}, {"tier": "mapped_file", "backend": "mmap", "probe_rows": 128, "hit_ns": 57, "miss_ns": 340, "fill_ns": 95}], "fills": {"queued": 50, "coalesced": 9, "dropped": 2, "promoted": 39}, "tiers": [{"tier": "dram", "shards": 3, "capacity": 128, "resident": 97, "hits": 120, "misses": 30, "prefetch_fills": 7, "demand_fills": 3, "cost_ns": 98765, "unique_keys": 41}, {"tier": "cxl", "shards": 5, "capacity": 128, "resident": 97, "hits": 0, "misses": 30, "prefetch_fills": 7, "demand_fills": 3, "cost_ns": 98765, "unique_keys": 41}], "tables": [{"table": 3, "size": 40000, "accesses": 1234, "demand_share": 0.0385, "skew": 1.234, "unique_rows": 812, "pinned_shard": 2, "hot_rows": 64}, {"table": 9, "size": 40000, "accesses": 1234, "demand_share": 0.0385, "skew": 1.234, "unique_rows": 812, "pinned_shard": -1, "hot_rows": 64}]}, "submitted": 40, "completed": 30, "rejected_queue_full": 4, "rejected_deadline": 2, "shed_in_queue": 4, "shed_rate": 0.2500, "latency": {"count": 30, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}, "queue_wait": {"count": 30, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}, "sla": {"budget_ms": 8.000, "met": 22, "missed": 3, "attainment": 0.8800, "degraded_skip_ahead": 4, "degraded_prefetch_off": 1}, "tenants": [{"name": "budgeted", "weight": 3, "submitted": 20, "completed": 15, "rejected_queue_full": 2, "rejected_deadline": 1, "shed_in_queue": 2, "latency": {"count": 15, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}, "queue_wait": {"count": 15, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}, "sla": {"budget_ms": 8.000, "met": 22, "missed": 3, "attainment": 0.8800, "degraded_skip_ahead": 4, "degraded_prefetch_off": 1}}, {"name": "besteffort", "weight": 0.5, "submitted": 20, "completed": 15, "rejected_queue_full": 2, "rejected_deadline": 1, "shed_in_queue": 2, "latency": {"count": 15, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}, "queue_wait": {"count": 15, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}, "sla": null}]}"#
        );
        assert_eq!(
            JsonWriter::render(|w| session(None).write_json(w)),
            r#"{"engine": {"batches": 25, "keys": 150, "hit_rate": 0.8000, "guided_fraction": 0.7500, "keys_per_sec": 1215.0, "elapsed_secs": 0.1235, "plane": {"model_forwards": 18, "drains": 9, "chunks": 31, "mean_batch": 3.44, "max_batch": 8, "late_chunks": 2, "kernel_lane": "avx2+int8"}, "access_cost_ns": 197530, "unique_keys": 77, "max_phase_score": 0.5124, "migration": {"migrations": 2, "resizes": 1, "migration_cost_ns": 46800}, "calibration": [{"tier": "dram", "backend": "dram", "probe_rows": 128, "hit_ns": 12, "miss_ns": 340, "fill_ns": 95}, {"tier": "mapped_file", "backend": "mmap", "probe_rows": 128, "hit_ns": 57, "miss_ns": 340, "fill_ns": 95}], "fills": {"queued": 50, "coalesced": 9, "dropped": 2, "promoted": 39}, "tiers": [{"tier": "dram", "shards": 3, "capacity": 128, "resident": 97, "hits": 120, "misses": 30, "prefetch_fills": 7, "demand_fills": 3, "cost_ns": 98765, "unique_keys": 41}, {"tier": "cxl", "shards": 5, "capacity": 128, "resident": 97, "hits": 0, "misses": 30, "prefetch_fills": 7, "demand_fills": 3, "cost_ns": 98765, "unique_keys": 41}], "tables": [{"table": 3, "size": 40000, "accesses": 1234, "demand_share": 0.0385, "skew": 1.234, "unique_rows": 812, "pinned_shard": 2, "hot_rows": 64}, {"table": 9, "size": 40000, "accesses": 1234, "demand_share": 0.0385, "skew": 1.234, "unique_rows": 812, "pinned_shard": -1, "hot_rows": 64}]}, "submitted": 40, "completed": 30, "rejected_queue_full": 4, "rejected_deadline": 2, "shed_in_queue": 4, "shed_rate": 0.2500, "latency": {"count": 30, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}, "queue_wait": {"count": 30, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}, "sla": null, "tenants": [{"name": "budgeted", "weight": 3, "submitted": 20, "completed": 15, "rejected_queue_full": 2, "rejected_deadline": 1, "shed_in_queue": 2, "latency": {"count": 15, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}, "queue_wait": {"count": 15, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}, "sla": {"budget_ms": 8.000, "met": 22, "missed": 3, "attainment": 0.8800, "degraded_skip_ahead": 4, "degraded_prefetch_off": 1}}, {"name": "besteffort", "weight": 0.5, "submitted": 20, "completed": 15, "rejected_queue_full": 2, "rejected_deadline": 1, "shed_in_queue": 2, "latency": {"count": 15, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}, "queue_wait": {"count": 15, "p50_ms": 1.500, "p95_ms": 4.250, "p99_ms": 9.875, "mean_ms": 2.001, "max_ms": 12.000}, "sla": null}]}"#
        );
    }
}
