//! Comparing two sets of runs under the bounds `BENCHMARK.json` fixes:
//! the rule every later performance claim in this repo is judged by.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::stats::median;

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the baseline's median the metric may worsen by.
    pub bound: f64,
}

/// Reads the `end_to_end` gates of a parsed `BENCHMARK.json`.
///
/// # Errors
///
/// A message naming the first entry that is not a gate.
pub fn gates(benchmark: &Value) -> Result<Vec<Gate>, String> {
    let entries = benchmark
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|entry| {
            let gate = (|| {
                Some(Gate {
                    name: entry.get("name")?.as_str()?.to_string(),
                    lower_is_better: match entry.get("better")?.as_str()? {
                        "lower" => true,
                        "higher" => false,
                        _ => return None,
                    },
                    bound: entry.get("bound")?.as_f64()?,
                })
            })();
            gate.ok_or_else(|| format!("not an end_to_end entry: {entry}"))
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs of one side spread wider than the bound and the two
    /// sides overlap: the runs cannot tell, and "same" would be a claim.
    Unresolved,
}

impl Verdict {
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `after`'s median is than `before`'s, as a share of
/// `before`'s (negative when it is better).
#[must_use]
pub fn worsening(before: &[f64], after: &[f64], lower_is_better: bool) -> f64 {
    let (b, a) = (median(before), median(after));
    let change = (a - b) / b.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// Judges `after` against `before` (each one value per run).
#[must_use]
pub fn verdict(before: &[f64], after: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let range = |runs: &[f64]| {
        let lo = runs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = runs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    let spread = |runs: &[f64]| {
        let (lo, hi) = range(runs);
        (hi - lo) / median(runs).abs()
    };
    let ((b_lo, b_hi), (a_lo, a_hi)) = (range(before), range(after));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    if spread(before).max(spread(after)) > bound && overlap {
        return Verdict::Unresolved;
    }
    let worse_by = worsening(before, after, lower_is_better);
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The runs of one side: per `(workload, metric)`, one value per run,
/// split into the gated end-to-end metrics (untraced runs) and the
/// per-layer ones (traced runs). Workloads keep first-seen order.
#[derive(Default)]
pub struct Side {
    pub workloads: Vec<String>,
    pub end_to_end: BTreeMap<(String, String), Vec<f64>>,
    pub per_layer: BTreeMap<(String, String), Vec<f64>>,
}

impl Side {
    /// Loads one result file, or every `result-*.json` in a directory
    /// and in its immediate sub-directories (one per repeat).
    ///
    /// # Errors
    ///
    /// Unreadable or malformed files, an empty side, and `--quick`
    /// results, which exist to smoke the harness and are not numbers.
    pub fn load(path: &Path) -> Result<Side, String> {
        let mut files = Vec::new();
        if path.is_dir() {
            let mut dirs = vec![path.to_path_buf()];
            for entry in read_dir_sorted(path)? {
                if entry.is_dir() {
                    dirs.push(entry);
                }
            }
            for dir in dirs {
                files.extend(read_dir_sorted(&dir)?.into_iter().filter(|f| {
                    let name = f.file_name().and_then(|n| n.to_str()).unwrap_or("");
                    f.is_file() && name.starts_with("result-") && name.ends_with(".json")
                }));
            }
        } else {
            files.push(path.to_path_buf());
        }
        let mut side = Side::default();
        for file in &files {
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
            side.add(&doc)
                .map_err(|e| format!("{}: {e}", file.display()))?;
        }
        if side.workloads.is_empty() {
            return Err(format!("{}: no result files", path.display()));
        }
        Ok(side)
    }

    /// Adds one parsed result document.
    ///
    /// # Errors
    ///
    /// A `--quick` result, a failed run, or a document that is not a
    /// result.
    pub fn add(&mut self, doc: &Value) -> Result<(), String> {
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("no \"{key}\" field"));
        if field("quick")? != &Value::Bool(false) {
            return Err("a --quick result smokes the harness; it is not compared".to_string());
        }
        if field("correct")? != &Value::Bool(true) {
            return Err("a run with failed requests has no figures to compare".to_string());
        }
        let workload = field("workload")?
            .as_str()
            .ok_or("\"workload\" is not a string")?;
        let traced = field("trace")?.as_f64() == Some(1.0);
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("\"metrics\" is not an object")?;
        if !self.workloads.iter().any(|w| w == workload) {
            self.workloads.push(workload.to_string());
        }
        let table = if traced {
            &mut self.per_layer
        } else {
            &mut self.end_to_end
        };
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(Value::as_f64);
            let value = value.ok_or_else(|| format!("metric {name} has no numeric value"))?;
            table
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
        Ok(())
    }
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<std::path::PathBuf>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    Ok(paths)
}

/// One compared metric.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub before: f64,
    pub after: f64,
    /// `None` for a per-layer metric: information, never a gate.
    pub verdict: Option<Verdict>,
}

/// Compares two sides: every workload x gated metric gets a verdict
/// (a pairing missing on either side is an error, not a pass), every
/// per-layer metric present on both gets a row of information.
///
/// # Errors
///
/// A gated metric that one side did not measure.
pub fn compare(gates: &[Gate], before: &Side, after: &Side) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in &before.workloads {
        for gate in gates {
            let key = (workload.clone(), gate.name.clone());
            let (Some(b), Some(a)) = (before.end_to_end.get(&key), after.end_to_end.get(&key))
            else {
                return Err(format!(
                    "{workload} {}: not measured on both sides",
                    gate.name
                ));
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: gate.name.clone(),
                before: median(b),
                after: median(a),
                verdict: Some(verdict(b, a, gate.lower_is_better, gate.bound)),
            });
        }
    }
    for (key, b) in &before.per_layer {
        if let Some(a) = after.per_layer.get(key) {
            rows.push(Row {
                workload: key.0.clone(),
                metric: key.1.clone(),
                before: median(b),
                after: median(a),
                verdict: None,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    #[test]
    fn verdicts_on_synthetic_runs() {
        use Verdict::{Better, Same, Unresolved, Worse};
        // Latency, lower is better, bound 10 %.
        assert_eq!(verdict(&[100.0], &[105.0], true, 0.10), Same);
        assert_eq!(verdict(&[100.0], &[111.0], true, 0.10), Worse);
        assert_eq!(verdict(&[100.0], &[89.0], true, 0.10), Better);
        // Throughput, higher is better: the same numbers flip.
        assert_eq!(verdict(&[100.0], &[111.0], false, 0.10), Better);
        assert_eq!(verdict(&[100.0], &[89.0], false, 0.10), Worse);
        // Tight runs on both sides: the medians decide.
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0], true, 0.10),
            Worse
        );
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[102.0, 103.0, 101.0], true, 0.10),
            Same
        );
        // One side spreads 30 % and the sides overlap: cannot tell.
        assert_eq!(
            verdict(&[100.0, 130.0, 115.0], &[118.0, 120.0, 119.0], true, 0.10),
            Unresolved
        );
        // As wide, but every run of one side beats every run of the other.
        assert_eq!(
            verdict(&[100.0, 130.0, 115.0], &[60.0, 70.0, 65.0], true, 0.10),
            Better
        );
        assert_eq!(
            verdict(&[100.0, 130.0, 115.0], &[160.0, 170.0, 165.0], true, 0.10),
            Worse
        );
        // A zero bound (a failure share): any worsening is worse.
        assert_eq!(verdict(&[0.5], &[0.6], true, 0.0), Worse);
        // Worsening is signed by the metric's direction.
        assert!((worsening(&[1000.0], &[800.0], false) - 0.2).abs() < 1e-12);
        assert!((worsening(&[1000.0], &[800.0], true) + 0.2).abs() < 1e-12);
    }

    fn result(workload: &str, trace: u64, quick: bool, metrics: &[(&str, f64)]) -> Value {
        obj([
            ("workload", Value::from(workload)),
            ("trace", Value::from(trace)),
            ("quick", Value::from(quick)),
            ("correct", Value::from(true)),
            (
                "metrics",
                obj(metrics
                    .iter()
                    .map(|&(name, v)| (name, obj([("value", Value::from(v))])))),
            ),
        ])
    }

    #[test]
    fn compare_gates_end_to_end_and_only_reports_layers() {
        let benchmark = json::parse(
            r#"{"end_to_end": [
                {"name": "keys_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "req_p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let gates = gates(&benchmark).unwrap();
        assert_eq!(gates.len(), 2);
        assert!(!gates[0].lower_is_better && gates[1].lower_is_better);

        let mut before = Side::default();
        let mut after = Side::default();
        for (side, rate, p50, walk) in [
            (&mut before, 1000.0, 50.0, 200.0),
            (&mut after, 800.0, 52.0, 900.0),
        ] {
            side.add(&result(
                "join_dram",
                0,
                false,
                &[("keys_per_s", rate), ("req_p50_us", p50)],
            ))
            .unwrap();
            side.add(&result(
                "join_dram",
                1,
                false,
                &[("soft.amac_ns_per_key", walk)],
            ))
            .unwrap();
        }
        let rows = compare(&gates, &before, &after).unwrap();
        let verdicts: Vec<_> = rows
            .iter()
            .map(|r| (r.metric.as_str(), r.verdict))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("keys_per_s", Some(Verdict::Worse)),
                ("req_p50_us", Some(Verdict::Same)),
                ("soft.amac_ns_per_key", None),
            ]
        );
        assert_eq!((rows[0].before, rows[0].after), (1000.0, 800.0));

        // A gated metric one side lacks is an error, not a pass.
        let mut thin = Side::default();
        thin.add(&result("join_dram", 0, false, &[("keys_per_s", 1000.0)]))
            .unwrap();
        assert!(compare(&gates, &before, &thin).is_err());
    }

    #[test]
    fn quick_results_are_refused() {
        let mut side = Side::default();
        let error = side
            .add(&result("rw_hot", 0, true, &[("keys_per_s", 1.0)]))
            .unwrap_err();
        assert!(error.contains("--quick"), "{error}");
    }
}
