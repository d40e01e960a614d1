//! The metric names, units and directions this benchmark prints — the
//! same tables `BENCHMARK.json` lists (a unit test keeps the two equal).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// Checked against `BENCHMARK.json` by the unit test; `compare` reads
    /// directions and bounds from that file.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// What a user of the system sees; every workload reports every one
/// (tracing off). All are non-zero on every workload, which is why the
/// three shares count the good outcome instead of the failure. The
/// latency tail is not here: on `open_poisson` p99 and the mean ride on
/// ≈ 1.5 % of requests that hit a lag-gate stall, and over ten seeds
/// their spread was 84 % and 40 % — beyond any bound the contract allows.
/// They are per-layer metrics (`latency.p99_ms`, `latency.mean_ms`).
pub const END_TO_END: [MetricDef; 7] = [
    hi("keys_per_s", "keys/s"),
    lo("latency_p50_ms", "ms"),
    hi("sla_ok_share", "share"),
    lo("miss_share", "share"),
    hi("served_share", "share"),
    lo("setup_s", "s"),
    lo("peak_rss_mb", "MB"),
];

/// Single-layer costs, counts and ratios of the traced run. No bounds:
/// they explain a move in an end-to-end metric, they are not gates.
pub const PER_LAYER: [MetricDef; 71] = [
    // Micro-costs, timed from here over keys of the workload's own stream.
    lo("gpu_buffer.lookup_hit_ns", "ns"),
    lo("gpu_buffer.lookup_miss_ns", "ns"),
    lo("gpu_buffer.insert_evict_ns", "ns"),
    lo("gpu_buffer.set_priority_ns", "ns"),
    lo("recmg_buffer.access_hit_ns", "ns"),
    lo("recmg_buffer.access_miss_ns", "ns"),
    lo("recmg_buffer.load_embeddings_us_per_chunk", "us"),
    lo("backend.dram_read_ns", "ns"),
    lo("backend.mmap_read_ns", "ns"),
    lo("backend.file_read_ns", "ns"),
    lo("backend.dram_write_ns", "ns"),
    lo("backend.mmap_write_ns", "ns"),
    lo("backend.file_write_ns", "ns"),
    lo("backend.calibrate_ms", "ms"),
    lo("sketch.observe_ns", "ns"),
    lo("table_profile.observe_ns", "ns"),
    lo("router.shard_of_ns", "ns"),
    lo("router.split_into_ns_per_key", "ns"),
    lo("route_table.pin_ns", "ns"),
    lo("guidance.caching_us_per_chunk_b1", "us"),
    lo("guidance.caching_us_per_chunk_b8", "us"),
    lo("guidance.prefetch_us_per_chunk_b1", "us"),
    lo("guidance.prefetch_us_per_chunk_b8", "us"),
    lo("guidance.caching_int8_us_per_chunk_b8", "us"),
    lo("guidance.prefetch_int8_us_per_chunk_b8", "us"),
    hi("trace.generate_keys_per_s", "keys/s"),
    hi("trace.parse_criteo_lines_per_s", "lines/s"),
    lo("session.submit_ns", "ns"),
    // Counts and ratios read from the public reports of the traced run.
    hi("buffer.cache_hit_share", "share"),
    hi("buffer.prefetch_hit_share", "share"),
    lo("buffer.prefetches_issued", "count"),
    hi("buffer.prefetch_useful_share", "share"),
    hi("plane.guided_share", "share"),
    lo("plane.model_forwards", "count"),
    hi("plane.mean_batch", "chunks"),
    lo("plane.late_chunks", "count"),
    hi("tier.fast_hit_share", "share"),
    lo("tier.cost_ns_per_key", "ns"),
    hi("tier.model_vs_wall", "ratio"),
    lo("fill.queued", "count"),
    hi("fill.coalesced", "count"),
    lo("fill.dropped", "count"),
    hi("fill.promoted", "count"),
    hi("fill.useful_share", "share"),
    lo("session.queue_wait_p50_ms", "ms"),
    lo("session.queue_wait_p99_ms", "ms"),
    lo("session.service_mean_ms", "ms"),
    lo("session.rejected_queue_full", "count"),
    lo("session.rejected_deadline", "count"),
    lo("session.shed_in_queue", "count"),
    lo("session.degraded_skip_ahead", "count"),
    lo("session.degraded_prefetch_off", "count"),
    lo("session.drain_ms", "ms"),
    lo("latency.mean_ms", "ms"),
    lo("latency.p99_ms", "ms"),
    lo("open.p99_ms_at_400", "ms"),
    lo("open.p99_ms_at_1200", "ms"),
    hi("open.max_rate_ok_hz", "1/s"),
    lo("loadgen.lag_p99_ms", "ms"),
    lo("mem.live_peak_mb", "MB"),
    lo("mem.allocs_per_key", "count"),
    hi("oracle.cache_hits", "count"),
    hi("oracle.prefetch_hits", "count"),
    lo("oracle.misses", "count"),
    lo("oracle.prefetches_issued", "count"),
    lo("attrib.guidance_share", "share"),
    lo("attrib.buffer_share", "share"),
    lo("attrib.backend_share", "share"),
    lo("attrib.router_sketch_share", "share"),
    lo("attrib.unattributed_share", "share"),
    lo("trace.overhead_share", "share"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name`; a second write replaces the first.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Takes over every value of `other`.
    pub fn extend(&mut self, other: Values) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn share(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `BENCHMARK.json` and these tables name the same metrics, in the
    /// same order, with the same units and directions; the workloads
    /// match `workloads::WORKLOADS`.
    #[test]
    fn contract_file_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Value::as_array).expect("metric list");
            assert_eq!(listed.len(), table.len(), "{key}: count");
            for (entry, def) in listed.iter().zip(table) {
                let field = |f| entry.get(f).and_then(Value::as_str).expect("string field");
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                assert_eq!(field("better"), def.better.name(), "{}", def.name);
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_values_replace() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        let mut v = Values::default();
        v.set("keys_per_s", 1.0);
        v.set("keys_per_s", 2.0);
        assert_eq!(v.get("keys_per_s"), Some(2.0));
        assert_eq!(v.get("absent"), None);
        assert_eq!(share(1, 0), 0.0);
    }
}
