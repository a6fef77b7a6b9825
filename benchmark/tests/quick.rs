//! The `--quick` run end to end: every workload, untraced and traced,
//! through the real binaries.

use std::path::Path;
use std::process::Command;

use widx_benchmark::json::{self, Value};
use widx_benchmark::report::{Metric, END_TO_END, PER_LAYER};
use widx_benchmark::workload::WORKLOADS;

fn names(table: &[Metric]) -> Vec<&str> {
    table.iter().map(|m| m.name).collect()
}

#[test]
fn quick_run_reports_every_metric_and_is_not_comparable() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-out");
    let _ = std::fs::remove_dir_all(&out);
    for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        for spec in &WORKLOADS {
            let run = Command::new(env!("CARGO_BIN_EXE_bench_layers"))
                .args([
                    "--workload",
                    spec.name,
                    "--quick",
                    "--seconds",
                    "1",
                    "--seed",
                    "3",
                ])
                .args(["--trace", trace, "--out"])
                .arg(&out)
                .output()
                .expect("bench_layers starts");
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert!(
                run.status.success(),
                "{} trace {trace}: {stderr}",
                spec.name
            );

            let stdout = String::from_utf8(run.stdout).unwrap();
            let last = json::parse(stdout.lines().last().unwrap()).unwrap();
            let keys: Vec<_> = last
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(last.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let metrics = last.get("metrics").unwrap().as_obj().unwrap();
            let reported: Vec<_> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(reported, names(table), "{} trace {trace}", spec.name);
            for (metric, (name, value)) in table.iter().zip(metrics) {
                assert_eq!(value.get("unit").and_then(Value::as_str), Some(metric.unit));
                let number = value.get("value").and_then(Value::as_f64);
                assert!(
                    number.is_some_and(f64::is_finite),
                    "{} {name}: {value}",
                    spec.name
                );
                // Every metric is also printed by name with its unit.
                let line = format!("{} {name} ", spec.name);
                assert!(
                    stdout.lines().any(|l| l.starts_with(&line)),
                    "no line for {name}"
                );
            }

            let file = out.join(format!("result-{}-trace{trace}.json", spec.name));
            let result = json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
            assert_eq!(result.get("quick"), Some(&Value::Bool(true)));
            assert_eq!(result.get("seed").and_then(Value::as_f64), Some(3.0));
        }
        if trace == "1" {
            let spans = std::fs::read_to_string(out.join("trace-rw_hot.jsonl")).unwrap();
            let first = json::parse(spans.lines().next().unwrap()).unwrap();
            assert_eq!(
                first.get("name").and_then(Value::as_str),
                Some("serve.request")
            );
        }
    }

    let benchmark = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let diff = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .arg("--benchmark")
        .arg(benchmark)
        .args([&out, &out])
        .output()
        .expect("bench_diff starts");
    assert_eq!(
        diff.status.code(),
        Some(2),
        "bench_diff refuses --quick results"
    );
    assert!(String::from_utf8_lossy(&diff.stderr).contains("--quick"));
}
