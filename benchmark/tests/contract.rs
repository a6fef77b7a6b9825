//! `BENCHMARK.json` at the repo root and the tables in the code say the
//! same thing: the driver reads one, `bench_layers` prints the other.

use std::path::Path;

use widx_benchmark::diff::gates;
use widx_benchmark::json::{self, Value};
use widx_benchmark::report::{Metric, END_TO_END, PER_LAYER};
use widx_benchmark::workload::WORKLOADS;

fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    let text = |entry: &Value, field: &str| {
        entry
            .get(field)
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    };
    let entries = doc.get(key).and_then(Value::as_arr).unwrap();
    entries
        .iter()
        .map(|e| (text(e, "name"), text(e, "unit"), text(e, "better")))
        .collect()
}

fn coded(table: &[Metric]) -> Vec<(String, String, String)> {
    table
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let keys: Vec<_> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads: Vec<_> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .collect();
    let named: Vec<_> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(named, WORKLOADS.map(|w| w.name));
    for workload in workloads {
        let why = workload.get("why").and_then(Value::as_str).unwrap();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    assert_eq!(listed(&doc, "end_to_end"), coded(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), coded(&PER_LAYER));
    for gate in gates(&doc).unwrap() {
        assert!(gate.bound > 0.0 && gate.bound <= 0.25, "{gate:?}");
    }
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}
