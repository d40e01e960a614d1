//! # recmg-bench
//!
//! Experiment harnesses regenerating every table and figure of the RecMG
//! paper's evaluation (§II Table I, §III Fig. 3, §VI Fig. 7, §VII Figs.
//! 8–19 and Tables II–IV), plus two ablations beyond the paper.
//!
//! Each experiment is a library function in [`experiments`] returning an
//! [`ExpResult`]; thin binaries (`exp_table1`, `exp_fig03`, …, `run_all`)
//! print the result and write a CSV under `results/`. Experiments share a
//! [`Bundle`] that caches generated traces and trained models so `run_all`
//! trains each dataset's models once.
//!
//! Scale is controlled by the `RECMG_SCALE` environment variable
//! (fraction of the full synthetic dataset size, default 0.05) and
//! `RECMG_OUT` (output directory, default `results`).

pub mod experiments;
pub mod policy;

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::rc::Rc;

use recmg_core::{train_recmg, RecMgConfig, TrainOptions, TrainedRecMg};
use recmg_trace::{SyntheticConfig, Trace, TraceStats};

/// Experiment environment: scale and output location.
#[derive(Debug, Clone)]
pub struct ExpEnv {
    /// Fraction of the full synthetic dataset size (`(0, 1]`).
    pub scale: f64,
    /// Directory for CSV output.
    pub out_dir: PathBuf,
}

impl ExpEnv {
    /// Reads `RECMG_SCALE` / `RECMG_OUT` with defaults.
    pub fn from_env() -> Self {
        let scale = std::env::var("RECMG_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0 && *s <= 1.0)
            .unwrap_or(0.05);
        let out_dir = std::env::var("RECMG_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        ExpEnv { scale, out_dir }
    }

    /// A fixed small environment for tests.
    pub fn test_env() -> Self {
        ExpEnv {
            scale: 0.02,
            out_dir: std::env::temp_dir().join("recmg-results"),
        }
    }
}

/// A finished experiment: an id (table/figure), a title, and tabular rows.
#[derive(Debug, Clone)]
pub struct ExpResult {
    /// Identifier, e.g. `"fig08"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Row values (stringified).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (assumptions, paper-vs-measured commentary).
    pub notes: Vec<String>,
}

impl ExpResult {
    /// Creates an empty result.
    pub fn new(id: &str, title: &str, header: &[&str]) -> Self {
        ExpResult {
            id: id.to_string(),
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Appends a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Pretty-prints the table to stdout.
    pub fn print(&self) {
        println!("\n=== {} — {} ===", self.id, self.title);
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.header));
        for r in &self.rows {
            println!("{}", fmt_row(r));
        }
        for n in &self.notes {
            println!("  note: {n}");
        }
    }

    /// Writes `<out_dir>/<id>.csv`.
    ///
    /// # Panics
    ///
    /// Panics if the output directory cannot be created or written.
    pub fn save(&self, env: &ExpEnv) {
        fs::create_dir_all(&env.out_dir).expect("create results dir");
        let mut s = String::new();
        s.push_str(&self.header.join(","));
        s.push('\n');
        for r in &self.rows {
            s.push_str(&r.join(","));
            s.push('\n');
        }
        for n in &self.notes {
            s.push_str(&format!("# {n}\n"));
        }
        let path = env.out_dir.join(format!("{}.csv", self.id));
        fs::write(&path, s).expect("write csv");
        println!("  wrote {}", path.display());
    }
}

/// Shared, lazily-populated store of traces and trained models.
pub struct Bundle {
    env: ExpEnv,
    traces: RefCell<HashMap<usize, Rc<Trace>>>,
    stats: RefCell<HashMap<usize, Rc<TraceStats>>>,
    trained: RefCell<HashMap<(usize, u32), Rc<TrainedRecMg>>>,
}

impl Bundle {
    /// Creates a bundle for the environment.
    pub fn new(env: ExpEnv) -> Self {
        Bundle {
            env,
            traces: RefCell::new(HashMap::new()),
            stats: RefCell::new(HashMap::new()),
            trained: RefCell::new(HashMap::new()),
        }
    }

    /// The environment.
    pub fn env(&self) -> &ExpEnv {
        &self.env
    }

    /// The default model configuration used across experiments.
    pub fn config(&self) -> RecMgConfig {
        RecMgConfig::default()
    }

    /// Training budget scaled to the environment.
    pub fn train_options(&self) -> TrainOptions {
        if self.env.scale <= 0.03 {
            TrainOptions {
                cm_epochs: 2,
                pm_epochs: 2,
                minibatch: 8,
                max_chunks: 400,
                max_prefetch_examples: 250,
            }
        } else {
            TrainOptions::default()
        }
    }

    /// The scaled synthetic trace for dataset `i` (cached).
    pub fn trace(&self, i: usize) -> Rc<Trace> {
        self.traces
            .borrow_mut()
            .entry(i)
            .or_insert_with(|| {
                Rc::new(SyntheticConfig::dataset_scaled(i, self.env.scale).generate())
            })
            .clone()
    }

    /// Statistics of dataset `i` (cached).
    pub fn stats(&self, i: usize) -> Rc<TraceStats> {
        let trace = self.trace(i);
        self.stats
            .borrow_mut()
            .entry(i)
            .or_insert_with(|| Rc::new(TraceStats::compute(&trace)))
            .clone()
    }

    /// Buffer capacity for dataset `i` at `pct`% of unique vectors.
    pub fn capacity(&self, i: usize, pct: f64) -> usize {
        self.stats(i).buffer_capacity(pct)
    }

    /// Models trained on the first half of dataset `i`, labeled for a
    /// buffer of `pct`% of unique vectors (cached per `(i, pct)`).
    pub fn trained(&self, i: usize, pct: f64) -> Rc<TrainedRecMg> {
        let key = (i, (pct * 10.0).round() as u32);
        if let Some(t) = self.trained.borrow().get(&key) {
            return t.clone();
        }
        let trace = self.trace(i);
        let capacity = self.capacity(i, pct);
        let half = trace.len() / 2;
        let t = Rc::new(train_recmg(
            &trace.accesses()[..half],
            &self.config(),
            capacity,
            &self.train_options(),
        ));
        self.trained.borrow_mut().insert(key, t.clone());
        t
    }

    /// The held-out second half of dataset `i` (the evaluation stream).
    pub fn eval_accesses(&self, i: usize) -> Vec<recmg_trace::VectorKey> {
        let trace = self.trace(i);
        trace.accesses()[trace.len() / 2..].to_vec()
    }
}

/// Geometric mean of positive values (ignores non-positive entries).
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|&&v| v > 0.0)
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// Formats a float with a precision suited to table cells.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[0.0, -1.0]), 0.0);
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.12345), "0.1235");
        assert_eq!(fmt(1234.6), "1235");
    }

    #[test]
    fn exp_result_roundtrip() {
        let env = ExpEnv::test_env();
        let mut r = ExpResult::new("testexp", "Test", &["a", "b"]);
        r.push_row(vec!["1".into(), "2".into()]);
        r.note("hello");
        r.save(&env);
        let content =
            std::fs::read_to_string(env.out_dir.join("testexp.csv")).expect("csv written");
        assert!(content.contains("a,b"));
        assert!(content.contains("1,2"));
        assert!(content.contains("# hello"));
    }

    #[test]
    fn bundle_caches_traces() {
        let b = Bundle::new(ExpEnv::test_env());
        let t1 = b.trace(0);
        let t2 = b.trace(0);
        assert!(Rc::ptr_eq(&t1, &t2));
        assert!(b.stats(0).unique > 0);
        assert!(b.capacity(0, 20.0) > 0);
    }
}
