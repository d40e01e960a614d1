//! `recmg-benchmark`: the repo's performance contract (see README.md).
//!
//! ```text
//! recmg-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1]
//!                     [--quick] [--out DIR] [--record SET.jsonl]
//! recmg-benchmark compare SET_A.jsonl SET_B.jsonl [--contract BENCHMARK.json]
//! recmg-benchmark summary SET.jsonl [--history FILE --commit ID]
//! ```
//!
//! `run` prints one `workload metric value unit` line per metric, then
//! one JSON object as its last line, and exits non-zero when a
//! correctness check fails.

mod alloc;
mod compare;
mod json;
mod metrics;
mod micro;
mod open_loop;
mod run;
mod spans;
mod stats;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{MetricDef, END_TO_END, PER_LAYER};
use run::{Outcome, RunArgs};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// `--flag value` pairs and bare words of a command line.
struct Cli {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Cli {
    /// Flags that take no value.
    const SWITCHES: [&'static str; 1] = ["--quick"];

    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            if Self::SWITCHES.contains(&arg.as_str()) {
                cli.flags.push((arg, String::new()));
            } else if arg.starts_with("--") {
                let value = args.next().ok_or(format!("{arg} needs a value"))?;
                cli.flags.push((arg, value));
            } else {
                cli.words.push(arg);
            }
        }
        Ok(cli)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: bad value {v:?}")),
        }
    }
}

fn result_json(table: &[MetricDef], outcome: &Outcome) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|def| {
            let value = outcome
                .values
                .get(def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
            assert!(value.is_finite(), "metric {} is {value}", def.name);
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn cmd_run(cli: &Cli) -> Result<ExitCode, String> {
    let trace = match cli.flag("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    let quick = cli.flag("--quick").is_some();
    let args = RunArgs {
        workload: cli
            .flag("--workload")
            .ok_or("run needs --workload")?
            .to_string(),
        seed: cli.number("--seed", 1u64)?,
        seconds: cli.number("--seconds", if quick { 1.0 } else { 10.0 })?,
        trace,
        quick,
        out: PathBuf::from(cli.flag("--out").unwrap_or("benchmark/out")),
    };
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds: {} is outside (0, 60]", args.seconds));
    }
    // Backend temp files go where `std::env::temp_dir` points: keep them
    // inside the checkout. Set before any thread exists.
    std::fs::create_dir_all(args.out.join("tmp")).map_err(|e| format!("create out dir: {e}"))?;
    let tmp = std::fs::canonicalize(args.out.join("tmp")).map_err(|e| format!("out dir: {e}"))?;
    std::env::set_var("TMPDIR", tmp);

    let outcome = run::run(&args)?;
    let table: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
    for def in table {
        let value = outcome.values.get(def.name).unwrap_or(f64::NAN);
        println!("{} {} {} {}", args.workload, def.name, value, def.unit);
    }
    for note in &outcome.notes {
        println!("# {}: {note}", args.workload);
    }
    for failure in &outcome.failures {
        println!("CHECK FAILED {}: {failure}", args.workload);
    }
    let result = result_json(table, &outcome);
    if let Some(path) = cli.flag("--record") {
        let row = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, {}\n",
            json::escape(&args.workload),
            args.seed,
            u8::from(trace),
            args.seconds,
            &result[1..]
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(row.as_bytes()))
            .map_err(|e| format!("record {path}: {e}"))?;
    }
    println!("{result}");
    Ok(if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

fn cmd_compare(cli: &Cli) -> Result<ExitCode, String> {
    let [_, a, b] = cli.words.as_slice() else {
        return Err("usage: compare SET_A SET_B [--contract BENCHMARK.json]".to_string());
    };
    let contract =
        compare::Contract::parse(&read(cli.flag("--contract").unwrap_or("BENCHMARK.json"))?)?;
    let rows_a = compare::parse_set(&read(a)?).map_err(|e| format!("{a}: {e}"))?;
    let rows_b = compare::parse_set(&read(b)?).map_err(|e| format!("{b}: {e}"))?;
    let comparison = compare::compare(&contract, &rows_a, &rows_b);
    compare::print(&comparison);
    Ok(if comparison.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// After a full run: the ladder pair's model-vs-wall verdict, and one
/// appended history row per end-to-end run so the trajectory survives
/// regeneration.
fn cmd_summary(cli: &Cli) -> Result<ExitCode, String> {
    let [_, set] = cli.words.as_slice() else {
        return Err("usage: summary SET [--history FILE --commit ID]".to_string());
    };
    let text = read(set)?;
    match compare::ladder_verdict(&text) {
        Some(verdict) => println!("{verdict}"),
        None => println!(
            "ladder model-vs-wall: needs an end-to-end and a traced row of both ladder workloads"
        ),
    }
    let Some(history) = cli.flag("--history") else {
        return Ok(ExitCode::SUCCESS);
    };
    let commit = cli.flag("--commit").unwrap_or("unknown");
    let mut rows = String::new();
    for row in compare::parse_set(&text)? {
        let metrics: Vec<String> = row
            .metrics
            .iter()
            .map(|(name, value)| format!("\"{}\": {value}", json::escape(name)))
            .collect();
        rows.push_str(&format!(
            "{{\"commit\": \"{}\", \"seed\": {}, \"workload\": \"{}\", \"failed\": {}, \"metrics\": {{{}}}}}\n",
            json::escape(commit),
            row.seed,
            json::escape(&row.workload),
            row.failed,
            metrics.join(", ")
        ));
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(history)
        .and_then(|mut f| f.write_all(rows.as_bytes()))
        .map_err(|e| format!("append {history}: {e}"))?;
    println!("appended {} rows to {history}", rows.lines().count());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let outcome = Cli::parse(std::env::args().skip(1)).and_then(|cli| {
        match cli.words.first().map(String::as_str) {
            Some("run") => cmd_run(&cli),
            Some("compare") => cmd_compare(&cli),
            Some("summary") => cmd_summary(&cli),
            _ => Err("usage: recmg-benchmark run|compare|summary ... (see README.md)".to_string()),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("recmg-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
