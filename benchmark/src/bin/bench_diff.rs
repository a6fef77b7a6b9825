//! `bench_diff [--benchmark BENCHMARK.json] BEFORE AFTER`
//!
//! Compares two sets of `bench_layers` results — each a result file, or
//! a directory of them (sub-directories are repeats) — under the bounds
//! in `BENCHMARK.json`. Per workload and end-to-end metric it prints
//! better / same / worse / unresolved; per-layer metrics follow as
//! information only. Exits 1 on any `worse`, 2 when it cannot compare.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use widx_benchmark::diff::{compare, gates, Side, Verdict};
use widx_benchmark::json;

fn run(benchmark: &Path, before: &Path, after: &Path) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let rows = compare(&gates(&doc)?, &Side::load(before)?, &Side::load(after)?)?;
    println!(
        "{:<13} {:<32} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "before", "after", "change"
    );
    let mut any_worse = false;
    for row in &rows {
        let change = (row.after - row.before) / row.before.abs() * 100.0;
        let verdict = row.verdict.map_or("-", Verdict::name);
        println!(
            "{:<13} {:<32} {:>14.4} {:>14.4} {:>+7.1}%  {verdict}",
            row.workload, row.metric, row.before, row.after, change
        );
        any_worse |= row.verdict == Some(Verdict::Worse);
    }
    Ok(any_worse)
}

fn main() -> ExitCode {
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut sides = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--benchmark" {
            benchmark = PathBuf::from(argv.next().unwrap_or_default());
        } else {
            sides.push(PathBuf::from(arg));
        }
    }
    let [before, after] = &sides[..] else {
        eprintln!("usage: bench_diff [--benchmark BENCHMARK.json] BEFORE AFTER");
        return ExitCode::from(2);
    };
    match run(&benchmark, before, after) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => {
            eprintln!("bench_diff: at least one end-to-end metric is worse by more than its bound");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("bench_diff: {message}");
            ExitCode::from(2)
        }
    }
}
