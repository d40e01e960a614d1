//! `recmg-benchmark compare <set_a> <set_b>`: the two-sets-agree check
//! and every later parent-vs-change comparison.
//!
//! A set is a JSON-lines file of run rows (`run --record` appends them).
//! Per workload × end-to-end metric it prints both medians, how much
//! worse B is than A in the metric's own direction, and the bound from
//! `BENCHMARK.json`. A row is a **breach** when B is worse by more than
//! the bound, **unresolved** when either set's own run-to-run spread
//! exceeds the bound (unless every run of B beats every run of A), and
//! the command fails on any breach or when B fails a larger share of
//! what it attempted.

use crate::json::{self, Value};
use crate::metrics::Better;
use crate::stats::{median, spread};

/// One end-to-end metric of the contract file.
#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end metrics and workload order of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bounded>,
}

impl Contract {
    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or("BENCHMARK.json: workload without a name".to_string())
            })
            .collect::<Result<_, _>>()?;
        let end_to_end = list("end_to_end")?
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Value::as_str);
                let better = match m.get("better").and_then(Value::as_str) {
                    Some("higher") => Some(Better::Higher),
                    Some("lower") => Some(Better::Lower),
                    _ => None,
                };
                let bound = m.get("bound").and_then(Value::as_f64);
                match (name, better, bound) {
                    (Some(name), Some(better), Some(bound)) => Ok(Bounded {
                        name: name.to_string(),
                        better,
                        bound,
                    }),
                    _ => Err(format!("BENCHMARK.json: malformed end_to_end entry {m:?}")),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Contract {
            workloads,
            end_to_end,
        })
    }
}

/// One recorded end-to-end run.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Reads the end-to-end rows (`"trace": 0`) of a set file.
pub fn parse_set(text: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("line {}: no {key}", i + 1))
        };
        if num("trace")? != 0.0 {
            continue;
        }
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("line {}: no metrics", i + 1))?
            .iter()
            .filter_map(|(name, m)| {
                m.get("value")
                    .and_then(Value::as_f64)
                    .map(|value| (name.clone(), value))
            })
            .collect();
        rows.push(Row {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: no workload", i + 1))?
                .to_string(),
            seed: num("seed")? as u64,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        });
    }
    Ok(rows)
}

/// Verdict on one workload × metric row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Unresolved,
    Breach,
    /// The metric is missing from one of the sets.
    Missing,
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse B's median is than A's, as a share of A's, in the
    /// metric's own direction (negative = better).
    pub worse_by: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub bound: f64,
    pub status: Status,
}

/// The whole comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub lines: Vec<Line>,
    /// Workloads where B failed a larger share of what it attempted.
    pub more_failures: Vec<String>,
}

impl Comparison {
    /// Whether `compare` exits non-zero.
    pub fn failed(&self) -> bool {
        !self.more_failures.is_empty()
            || self
                .lines
                .iter()
                .any(|l| matches!(l.status, Status::Breach | Status::Missing))
    }

    pub fn unresolved(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| l.status == Status::Unresolved)
            .count()
    }
}

fn values_of(rows: &[Row], workload: &str, metric: &str) -> Vec<f64> {
    rows.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

fn failed_share(rows: &[Row], workload: &str) -> f64 {
    let (failed, attempted) = rows
        .iter()
        .filter(|r| r.workload == workload)
        .fold((0u64, 0u64), |(f, a), r| (f + r.failed, a + r.attempted));
    crate::metrics::share(failed, attempted)
}

/// Compares set B against set A under the contract's bounds.
pub fn compare(contract: &Contract, a: &[Row], b: &[Row]) -> Comparison {
    let mut lines = Vec::new();
    let mut more_failures = Vec::new();
    for workload in &contract.workloads {
        if failed_share(b, workload) > failed_share(a, workload) {
            more_failures.push(workload.clone());
        }
        for metric in &contract.end_to_end {
            let va = values_of(a, workload, &metric.name);
            let vb = values_of(b, workload, &metric.name);
            if va.is_empty() || vb.is_empty() {
                lines.push(Line {
                    workload: workload.clone(),
                    metric: metric.name.clone(),
                    a: 0.0,
                    b: 0.0,
                    worse_by: 0.0,
                    spread_a: 0.0,
                    spread_b: 0.0,
                    bound: metric.bound,
                    status: Status::Missing,
                });
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse_by = match metric.better {
                Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
                Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
            };
            let (spread_a, spread_b) = (spread(&va), spread(&vb));
            // Every run of B better than every run of A settles a row no
            // matter how wide either set is.
            let b_always_better = match metric.better {
                Better::Lower => max(&vb) < min(&va),
                Better::Higher => min(&vb) > max(&va),
            };
            // Set-up time is exempt from the spread rule (the driver
            // exempts it too): short set-ups are dominated by noise the
            // program does not control.
            let wide = metric.name != "setup_s" && spread_a.max(spread_b) > metric.bound;
            let status = if worse_by > metric.bound {
                Status::Breach
            } else if wide && !b_always_better {
                Status::Unresolved
            } else {
                Status::Ok
            };
            lines.push(Line {
                workload: workload.clone(),
                metric: metric.name.clone(),
                a: ma,
                b: mb,
                worse_by,
                spread_a,
                spread_b,
                bound: metric.bound,
                status,
            });
        }
    }
    Comparison {
        lines,
        more_failures,
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Prints the comparison table.
pub fn print(c: &Comparison) {
    println!(
        "{:<16} {:<15} {:>14} {:>14} {:>9} {:>8} {:>8} {:>7}  status",
        "workload", "metric", "median A", "median B", "worse by", "spread A", "spread B", "bound"
    );
    for l in &c.lines {
        println!(
            "{:<16} {:<15} {:>14.5} {:>14.5} {:>8.2}% {:>7.2}% {:>7.2}% {:>6.1}%  {}",
            l.workload,
            l.metric,
            l.a,
            l.b,
            l.worse_by * 100.0,
            l.spread_a * 100.0,
            l.spread_b * 100.0,
            l.bound * 100.0,
            match l.status {
                Status::Ok => "ok",
                Status::Unresolved => "unresolved",
                Status::Breach => "BREACH",
                Status::Missing => "MISSING",
            }
        );
    }
    for w in &c.more_failures {
        println!("{w}: set B failed a larger share of what it attempted");
    }
    println!(
        "{} rows, {} unresolved, {}",
        c.lines.len(),
        c.unresolved(),
        if c.failed() { "FAILED" } else { "ok" }
    );
}

/// The model-vs-wall-clock verdict for the ladder pair: does the cost
/// model rank blocking and async fills the way measured throughput does?
/// Compares the medians of the traced rows' modelled ns/key and of the
/// end-to-end rows' keys/s; `None` unless `text` has both for both
/// workloads.
pub fn ladder_verdict(text: &str) -> Option<String> {
    let mut model: [Vec<f64>; 2] = Default::default();
    let mut wall: [Vec<f64>; 2] = Default::default();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line).ok()?;
        let slot = match v.get("workload").and_then(Value::as_str)? {
            "ladder_blocking" => 0,
            "ladder_async" => 1,
            _ => continue,
        };
        let metric = |name: &str| {
            v.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
        };
        model[slot].extend(metric("tier.cost_ns_per_key"));
        wall[slot].extend(metric("keys_per_s"));
    }
    if model.iter().chain(&wall).any(Vec::is_empty) {
        return None;
    }
    let (mb, ma, wb, wa) = (
        median(&model[0]),
        median(&model[1]),
        median(&wall[0]),
        median(&wall[1]),
    );
    let model_prefers_async = ma < mb;
    let wall_prefers_async = wa > wb;
    Some(format!(
        "ladder model-vs-wall: model ranks {} cheaper ({:.1} vs {:.1} modelled ns/key, async vs \
         blocking); wall-clock ranks {} faster ({:.0} vs {:.0} keys/s, async vs blocking): {}",
        if model_prefers_async {
            "async"
        } else {
            "blocking"
        },
        ma,
        mb,
        if wall_prefers_async {
            "async"
        } else {
            "blocking"
        },
        wa,
        wb,
        if model_prefers_async == wall_prefers_async {
            "SAME RANKING"
        } else {
            "RANKINGS DISAGREE"
        }
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTRACT: &str = r#"{
        "workloads": [{"name": "w", "why": "fixture"}],
        "end_to_end": [
            {"name": "keys_per_s", "unit": "keys/s", "better": "higher", "bound": 0.1},
            {"name": "latency_p99_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
        ]
    }"#;

    fn set(rows: &[(f64, f64, f64, u64)]) -> Vec<Row> {
        let text: String = rows
            .iter()
            .enumerate()
            .map(|(seed, (rate, p99, setup, failed))| {
                format!(
                    "{{\"workload\": \"w\", \"seed\": {seed}, \"trace\": 0, \"correct\": true, \
                     \"attempted\": 100, \"failed\": {failed}, \"metrics\": {{\
                     \"keys_per_s\": {{\"value\": {rate}, \"unit\": \"keys/s\"}}, \
                     \"latency_p99_ms\": {{\"value\": {p99}, \"unit\": \"ms\"}}, \
                     \"setup_s\": {{\"value\": {setup}, \"unit\": \"s\"}}}}}}\n"
                )
            })
            .collect();
        parse_set(&text).expect("fixture parses")
    }

    fn status(c: &Comparison, metric: &str) -> Status {
        c.lines
            .iter()
            .find(|l| l.metric == metric)
            .expect("metric compared")
            .status
    }

    #[test]
    fn agreeing_sets_pass() {
        let contract = Contract::parse(CONTRACT).expect("contract parses");
        let a = set(&[
            (100.0, 5.0, 1.0, 0),
            (101.0, 5.1, 1.1, 0),
            (99.0, 4.9, 0.9, 0),
        ]);
        let b = set(&[
            (100.5, 5.05, 1.0, 0),
            (99.5, 5.0, 1.2, 0),
            (101.0, 5.1, 0.8, 0),
        ]);
        let c = compare(&contract, &a, &b);
        assert!(!c.failed());
        assert_eq!(c.unresolved(), 0);
        assert_eq!(c.lines.len(), 3);
    }

    #[test]
    fn a_worse_median_beyond_the_bound_is_a_breach_in_the_metrics_direction() {
        let contract = Contract::parse(CONTRACT).expect("contract parses");
        let a = set(&[(100.0, 5.0, 1.0, 0), (100.0, 5.0, 1.0, 0)]);
        // Throughput down 20 % (breach), p99 down 20 % (an improvement).
        let b = set(&[(80.0, 4.0, 1.0, 0), (80.0, 4.0, 1.0, 0)]);
        let c = compare(&contract, &a, &b);
        assert_eq!(status(&c, "keys_per_s"), Status::Breach);
        assert_eq!(status(&c, "latency_p99_ms"), Status::Ok);
        assert!(c.failed());
        // The same numbers the other way round breach on latency instead.
        let c = compare(&contract, &b, &a);
        assert_eq!(status(&c, "keys_per_s"), Status::Ok);
        assert_eq!(status(&c, "latency_p99_ms"), Status::Breach);
    }

    #[test]
    fn wide_sets_are_unresolved_unless_b_wins_every_run() {
        let contract = Contract::parse(CONTRACT).expect("contract parses");
        // p99 spread far beyond 10 % in both sets, medians equal.
        let a = set(&[
            (100.0, 4.0, 1.0, 0),
            (100.0, 5.0, 3.0, 0),
            (100.0, 6.0, 5.0, 0),
        ]);
        let c = compare(&contract, &a, &a);
        assert_eq!(status(&c, "latency_p99_ms"), Status::Unresolved);
        // Set-up time is as wide but exempt from the spread rule.
        assert_eq!(status(&c, "setup_s"), Status::Ok);
        assert!(!c.failed(), "unresolved alone does not fail the command");
        assert_eq!(c.unresolved(), 1);
        // Every run of B below every run of A: resolved, and better.
        let b = set(&[
            (100.0, 1.0, 1.0, 0),
            (100.0, 2.0, 1.0, 0),
            (100.0, 3.0, 1.0, 0),
        ]);
        let c = compare(&contract, &a, &b);
        assert_eq!(status(&c, "latency_p99_ms"), Status::Ok);
    }

    #[test]
    fn more_failures_or_a_missing_metric_fail_the_command() {
        let contract = Contract::parse(CONTRACT).expect("contract parses");
        let a = set(&[(100.0, 5.0, 1.0, 0), (100.0, 5.0, 1.0, 0)]);
        let b = set(&[(100.0, 5.0, 1.0, 1), (100.0, 5.0, 1.0, 0)]);
        let c = compare(&contract, &a, &b);
        assert_eq!(c.more_failures, vec!["w".to_string()]);
        assert!(c.failed());
        assert!(
            !compare(&contract, &b, &a).failed(),
            "fewer failures is fine"
        );
        let c = compare(&contract, &a, &[]);
        assert!(c.lines.iter().all(|l| l.status == Status::Missing));
        assert!(c.failed());
    }

    #[test]
    fn traced_rows_are_not_end_to_end_samples() {
        let text = "{\"workload\": \"w\", \"seed\": 1, \"trace\": 1, \"correct\": true, \
                    \"attempted\": 1, \"failed\": 0, \"metrics\": {}}\n";
        assert!(parse_set(text).expect("parses").is_empty());
        assert!(parse_set("{\"workload\": \"w\"}").is_err());
    }

    #[test]
    fn ladder_verdict_reports_a_ranking_disagreement() {
        let row = |w: &str, trace: u8, metric: &str, value: f64| {
            format!(
                "{{\"workload\": \"{w}\", \"seed\": 1, \"trace\": {trace}, \"metrics\": \
                 {{\"{metric}\": {{\"value\": {value}, \"unit\": \"x\"}}}}}}\n"
            )
        };
        let text = [
            row("ladder_blocking", 0, "keys_per_s", 2.4e6),
            row("ladder_async", 0, "keys_per_s", 1.8e6),
            row("ladder_blocking", 1, "tier.cost_ns_per_key", 187.0),
            row("ladder_async", 1, "tier.cost_ns_per_key", 168.0),
        ]
        .concat();
        let verdict = ladder_verdict(&text).expect("all four numbers present");
        assert!(verdict.contains("RANKINGS DISAGREE"), "{verdict}");
        assert_eq!(
            ladder_verdict(&row("ladder_async", 0, "keys_per_s", 1.0)),
            None
        );
    }
}
