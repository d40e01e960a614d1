//! Multi-threaded CPU model serving (paper §VI-C, Fig. 7).
//!
//! The paper maximizes thread-level parallelism by "wrapping up a batch of
//! DLRM inference requests into n inference requests, and sending them to
//! CPU (where n is the number of idle CPU cores). Each request is served by
//! one thread" — one thread per request, not many threads per request.
//! Fig. 7 shows near-linear throughput scaling, which is what justifies
//! that choice; [`measure_throughput`] reproduces that measurement with
//! compiled (tape-free) model snapshots shared read-only across threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use recmg_trace::{RowId, TableId, VectorKey};

use crate::caching_model::FastCachingModel;
use crate::prefetch_model::FastPrefetchModel;

/// One point of the Fig. 7 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Worker threads used.
    pub threads: usize,
    /// Model-inference throughput in indices (input tokens) per second.
    pub indices_per_sec: f64,
    /// Requests served.
    pub requests: usize,
}

/// Shape of the synthetic request stream used by the throughput
/// measurements (previously hard-coded to 13 tables × 997 rows).
///
/// `skew` concentrates rows toward low row-ids: `0.0` keeps the uniform
/// stride pattern, larger values map the row space through `x^(1+skew)`,
/// approximating the paper's power-law access popularity so sweeps can vary
/// both table count and key skew.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Number of embedding tables keys are drawn from.
    pub num_tables: u32,
    /// Rows per table.
    pub rows_per_table: u64,
    /// Row-popularity skew exponent (`>= 0`).
    pub skew: f64,
}

impl Default for WorkloadSpec {
    /// The historical workload: 13 tables, 997 rows, no skew.
    fn default() -> Self {
        WorkloadSpec {
            num_tables: 13,
            rows_per_table: 997,
            skew: 0.0,
        }
    }
}

impl WorkloadSpec {
    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `skew` is negative/non-finite.
    pub fn validate(&self) {
        assert!(self.num_tables > 0, "need at least one table");
        assert!(self.rows_per_table > 0, "need at least one row");
        assert!(
            self.skew >= 0.0 && self.skew.is_finite(),
            "skew must be non-negative and finite"
        );
    }

    /// Deterministic key for position `i` of request `r`.
    pub fn key(&self, r: usize, i: usize) -> VectorKey {
        let table = TableId((r % self.num_tables as usize) as u32);
        let raw = ((r as u64) * 31 + (i as u64) * 7) % self.rows_per_table;
        let row = if self.skew == 0.0 {
            raw
        } else {
            // Power-map the unit interval: mass concentrates at low rows.
            let u = raw as f64 / self.rows_per_table as f64;
            let mapped = u.powf(1.0 + self.skew);
            ((mapped * self.rows_per_table as f64) as u64).min(self.rows_per_table - 1)
        };
        VectorKey::new(table, RowId(row))
    }

    /// Pre-generates `requests` request inputs of `input_len` keys each.
    pub fn requests(&self, requests: usize, input_len: usize) -> Vec<Vec<VectorKey>> {
        (0..requests)
            .map(|r| (0..input_len).map(|i| self.key(r, i)).collect())
            .collect()
    }
}

/// Heterogeneous-table workload: per-table sizes and per-table Zipf-style
/// skews, the `table_size_array` shape real DLRM configs use (the libai
/// config spans 3 to 39.9M rows across 26 sparse features).
///
/// Unlike [`WorkloadSpec`] (uniform tables, one global skew), every table
/// here has its own row count and its own popularity exponent, which is
/// what makes statistical placement pay: a 3-row table and a 39.9M-row
/// table receive the same demand share, so the tiny table's per-row heat
/// is ~7 orders of magnitude higher — exactly the signal
/// [`crate::StatisticalPlacement`] pins on.
#[derive(Debug, Clone, PartialEq)]
pub struct TableArraySpec {
    /// Rows per table (`sizes.len()` tables; table `t` has `sizes[t]`
    /// rows).
    pub sizes: Vec<u64>,
    /// Per-table row-popularity skew exponents (same length as `sizes`).
    pub skews: Vec<f64>,
}

impl TableArraySpec {
    /// The libai production table-size array: 26 sparse features spanning
    /// 3 to 39,979,771 rows (~7 orders of magnitude). Skews follow the
    /// DLRM pattern that large id-spaces are strongly power-law while
    /// tiny categorical tables are near-uniform: each table's exponent
    /// grows with its size decade.
    pub fn libai() -> Self {
        let sizes: Vec<u64> = vec![
            39_884_406, 39_043, 17_289, 7_420, 20_263, 3, 7_120, 1_543, 63, 38_532_951, 2_953_546,
            403_346, 10, 2_208, 11_938, 155, 4, 976, 14, 39_979_771, 25_641_295, 39_664_984,
            585_935, 12_972, 108, 36,
        ];
        let skews = sizes.iter().map(|&s| Self::skew_for_size(s)).collect();
        TableArraySpec { sizes, skews }
    }

    /// Log-spaced synthetic array: `num_tables` tables with sizes running
    /// geometrically from `min_rows` to `max_rows`, skews assigned by
    /// size decade as in [`TableArraySpec::libai`]. Varying the
    /// `min_rows..max_rows` span varies the table-size skew of the whole
    /// array — the knob the `statistical_placement` bench sweeps.
    pub fn geometric(num_tables: u32, min_rows: u64, max_rows: u64) -> Self {
        assert!(num_tables > 0, "need at least one table");
        assert!(min_rows > 0 && max_rows >= min_rows, "bad size range");
        let n = num_tables as usize;
        let (lo, hi) = ((min_rows as f64).ln(), (max_rows as f64).ln());
        let sizes: Vec<u64> = (0..n)
            .map(|t| {
                let frac = if n == 1 {
                    0.0
                } else {
                    t as f64 / (n - 1) as f64
                };
                (lo + frac * (hi - lo)).exp().round().max(1.0) as u64
            })
            .collect();
        let skews = sizes.iter().map(|&s| Self::skew_for_size(s)).collect();
        TableArraySpec { sizes, skews }
    }

    /// Default skew exponent for a table of `rows` rows: near-uniform for
    /// tiny categorical tables, strongly power-law for huge id tables
    /// (about half the size's decade count, capped at 3).
    fn skew_for_size(rows: u64) -> f64 {
        (0.5 * (rows as f64).log10()).clamp(0.0, 3.0)
    }

    /// Number of tables.
    pub fn num_tables(&self) -> u32 {
        self.sizes.len() as u32
    }

    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are empty or length-mismatched, a size is
    /// zero, or a skew is negative/non-finite.
    pub fn validate(&self) {
        assert!(!self.sizes.is_empty(), "need at least one table");
        assert_eq!(
            self.sizes.len(),
            self.skews.len(),
            "sizes and skews must align"
        );
        assert!(self.sizes.iter().all(|&s| s > 0), "table sizes must be > 0");
        assert!(
            self.skews.iter().all(|&s| s >= 0.0 && s.is_finite()),
            "skews must be non-negative and finite"
        );
    }

    /// Deterministic key for position `i` of request `r`: position `i`
    /// draws from table `(r + i) mod T` (every table receives an equal
    /// demand share, so per-row heat scales inversely with table size),
    /// with the row drawn from that table's own power-law.
    pub fn key(&self, r: usize, i: usize) -> VectorKey {
        let n = self.sizes.len();
        let t = (r + i) % n;
        let rows = self.sizes[t];
        let skew = self.skews[t];
        // Avalanche the (request, position) pair so row draws are
        // uniform before the power-map, independent across tables.
        let mut h = (r as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        let raw = h % rows;
        let row = if skew == 0.0 {
            raw
        } else {
            let u = raw as f64 / rows as f64;
            ((u.powf(1.0 + skew) * rows as f64) as u64).min(rows - 1)
        };
        VectorKey::new(TableId(t as u32), RowId(row))
    }

    /// Pre-generates `requests` request inputs of `input_len` keys each.
    pub fn requests(&self, requests: usize, input_len: usize) -> Vec<Vec<VectorKey>> {
        (0..requests)
            .map(|r| (0..input_len).map(|i| self.key(r, i)).collect())
            .collect()
    }
}

/// Measures joint caching+prefetch model serving throughput with
/// `threads` workers, each serving whole requests (chunks) from a shared
/// queue, over the default [`WorkloadSpec`].
///
/// # Panics
///
/// Panics if `threads` or `requests` is zero or `input_len` is zero.
pub fn measure_throughput(
    caching: &FastCachingModel,
    prefetch: &FastPrefetchModel,
    input_len: usize,
    threads: usize,
    requests: usize,
) -> ThroughputPoint {
    assert!(threads > 0, "need at least one thread");
    assert!(requests > 0, "need at least one request");
    assert!(input_len > 0, "input_len must be positive");
    // Pre-generate request inputs (excluded from timing).
    let inputs = WorkloadSpec::default().requests(requests, input_len);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= inputs.len() {
                    break;
                }
                let keys = &inputs[i];
                let bits = caching.predict(keys);
                let codes = prefetch.codes(keys);
                // Keep results observable so the work cannot be elided.
                std::hint::black_box((bits, codes));
            });
        }
    });
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    ThroughputPoint {
        threads,
        indices_per_sec: (requests * input_len) as f64 / secs,
        requests,
    }
}

/// Sweeps thread counts, producing the Fig. 7 series.
pub fn throughput_sweep(
    caching: &FastCachingModel,
    prefetch: &FastPrefetchModel,
    input_len: usize,
    thread_counts: &[usize],
    requests_per_point: usize,
) -> Vec<ThroughputPoint> {
    thread_counts
        .iter()
        .map(|&t| measure_throughput(caching, prefetch, input_len, t, requests_per_point))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::caching_model::CachingModel;
    use crate::config::RecMgConfig;
    use crate::prefetch_model::PrefetchModel;

    fn compiled() -> (FastCachingModel, FastPrefetchModel) {
        let cfg = RecMgConfig::tiny();
        (
            CachingModel::new(&cfg).compile(),
            PrefetchModel::new(&cfg).compile(),
        )
    }

    #[test]
    fn throughput_is_positive() {
        let (cm, pm) = compiled();
        let p = measure_throughput(&cm, &pm, 8, 1, 50);
        assert!(p.indices_per_sec > 0.0);
        assert_eq!(p.requests, 50);
        assert_eq!(p.threads, 1);
    }

    #[test]
    fn more_threads_not_catastrophically_slower() {
        // CI machines vary; we only assert that 4 threads achieve at least
        // the single-thread throughput (Fig. 7 shows ~linear gains).
        let (cm, pm) = compiled();
        let one = measure_throughput(&cm, &pm, 15, 1, 1500);
        let four = measure_throughput(&cm, &pm, 15, 4, 1500);
        assert!(
            four.indices_per_sec > one.indices_per_sec * 0.7,
            "1t {} vs 4t {}",
            one.indices_per_sec,
            four.indices_per_sec
        );
    }

    #[test]
    fn sweep_covers_requested_counts() {
        let (cm, pm) = compiled();
        let pts = throughput_sweep(&cm, &pm, 8, &[1, 2], 40);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].threads, 1);
        assert_eq!(pts[1].threads, 2);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let (cm, pm) = compiled();
        let _ = measure_throughput(&cm, &pm, 8, 0, 1);
    }

    #[test]
    fn workload_spec_respects_dimensions() {
        let spec = WorkloadSpec {
            num_tables: 3,
            rows_per_table: 50,
            skew: 0.0,
        };
        for r in 0..40 {
            for i in 0..8 {
                let k = spec.key(r, i);
                assert!(k.table().0 < 3);
                assert!(k.row().0 < 50);
            }
        }
    }

    #[test]
    fn workload_skew_concentrates_rows() {
        let flat = WorkloadSpec {
            num_tables: 2,
            rows_per_table: 1000,
            skew: 0.0,
        };
        let skewed = WorkloadSpec { skew: 2.0, ..flat };
        let mean = |s: &WorkloadSpec| {
            let ks = s.requests(200, 10);
            let (sum, n) = ks
                .iter()
                .flatten()
                .fold((0u64, 0u64), |(s, n), k| (s + k.row().0, n + 1));
            sum as f64 / n as f64
        };
        assert!(
            mean(&skewed) < mean(&flat),
            "skew should lower the mean row id"
        );
    }

    #[test]
    fn libai_array_spans_seven_orders() {
        let spec = TableArraySpec::libai();
        spec.validate();
        assert_eq!(spec.num_tables(), 26);
        let min = *spec.sizes.iter().min().unwrap();
        let max = *spec.sizes.iter().max().unwrap();
        assert_eq!(min, 3);
        assert_eq!(max, 39_979_771);
        assert!((max as f64 / min as f64).log10() >= 6.0, "≥7 size decades");
        // Tiny tables near-uniform, huge tables strongly skewed.
        let tiny = spec.sizes.iter().position(|&s| s == 3).unwrap();
        let huge = spec.sizes.iter().position(|&s| s == 39_979_771).unwrap();
        assert!(spec.skews[tiny] < 0.5);
        assert!(spec.skews[huge] > 2.0);
    }

    #[test]
    fn table_array_keys_respect_dimensions_and_cover_tables() {
        let spec = TableArraySpec::libai();
        let mut seen = vec![false; spec.sizes.len()];
        for r in 0..100 {
            for i in 0..16 {
                let k = spec.key(r, i);
                let t = k.table().0 as usize;
                assert!(t < spec.sizes.len());
                assert!(k.row().0 < spec.sizes[t]);
                seen[t] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every table receives demand");
    }

    #[test]
    fn table_array_skew_concentrates_rows_per_table() {
        // One big table with skew 2 vs the same table with skew 0: the
        // skewed draw must lower the mean row id.
        let flat = TableArraySpec {
            sizes: vec![100_000],
            skews: vec![0.0],
        };
        let skewed = TableArraySpec {
            sizes: vec![100_000],
            skews: vec![2.0],
        };
        let mean = |s: &TableArraySpec| {
            let ks = s.requests(300, 8);
            let (sum, n) = ks
                .iter()
                .flatten()
                .fold((0u64, 0u64), |(acc, n), k| (acc + k.row().0, n + 1));
            sum as f64 / n as f64
        };
        assert!(mean(&skewed) < mean(&flat) * 0.6);
    }

    #[test]
    fn geometric_array_is_log_spaced_and_valid() {
        let spec = TableArraySpec::geometric(20, 100, 1_000_000);
        spec.validate();
        assert_eq!(spec.num_tables(), 20);
        assert_eq!(spec.sizes[0], 100);
        assert_eq!(spec.sizes[19], 1_000_000);
        assert!(spec.sizes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "sizes and skews must align")]
    fn mismatched_table_array_panics() {
        let spec = TableArraySpec {
            sizes: vec![10, 20],
            skews: vec![0.0],
        };
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "at least one table")]
    fn zero_tables_panics() {
        let spec = WorkloadSpec {
            num_tables: 0,
            rows_per_table: 1,
            skew: 0.0,
        };
        spec.validate();
    }
}
