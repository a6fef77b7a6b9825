//! Prometheus text-exposition builder.
//!
//! Emits the classic `name{label="value"} 123` line format (exposition
//! format version 0.0.4) without pulling in a client library. Metric and
//! label names are supplied by the caller and assumed well-formed; label
//! values are escaped.

use std::collections::BTreeMap;

/// Incremental builder for a Prometheus text-exposition document.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

impl PromText {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a metric family: its `# HELP` and `# TYPE` (`counter`,
    /// `gauge`, `summary`, ...) lines, which its samples must follow.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) -> &mut Self {
        self.out
            .push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        self
    }

    /// Emit one sample line with optional labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) -> &mut Self {
        self.out.push_str(name);
        if !labels.is_empty() {
            let pairs: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                .collect();
            self.out.push_str(&format!("{{{}}}", pairs.join(",")));
        }
        self.out.push(' ');
        if value.fract() == 0.0 && value.abs() < 1e15 {
            self.out.push_str(&format!("{}", value as i64));
        } else {
            self.out.push_str(&format!("{value}"));
        }
        self.out.push('\n');
        self
    }

    /// Convenience for integer-valued samples.
    pub fn sample_u64(&mut self, name: &str, labels: &[(&str, &str)], value: u64) -> &mut Self {
        self.sample(name, labels, value as f64)
    }

    /// Finish the document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Lint a Prometheus text exposition: every metric family named by a
/// `# HELP` or `# TYPE` line must carry exactly one of each, names must
/// match `[a-zA-Z_:][a-zA-Z0-9_:]*`, every sample line's metric name must
/// be valid, no family may repeat a `# TYPE` line, and all of a family's
/// samples must form one contiguous group (the text format forbids
/// interleaving two families' lines).
///
/// Returns the list of violations (empty = clean). Sample names ending in
/// `_sum` / `_count` / `_bucket` belong to their base family when that
/// family is typed `summary` or `histogram`, per the conventions.
pub fn lint_exposition(text: &str) -> Vec<String> {
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    let mut errors = Vec::new();
    // Per family named by metadata: HELP lines, TYPE lines, and whether
    // it is a summary/histogram (so owns `_sum`/`_count`/`_bucket`).
    let mut meta: BTreeMap<&str, (usize, usize, bool)> = BTreeMap::new();
    // Families whose sample group has closed, and the one still open.
    let (mut closed, mut open): (Vec<&str>, Option<&str>) = (Vec::new(), None);
    for (lineno, line) in text.lines().enumerate().map(|(i, l)| (i + 1, l)) {
        let words: Vec<&str> = line.split(' ').collect();
        match words[..] {
            [""] => {}
            ["#", what @ ("HELP" | "TYPE"), name, ref rest @ ..] => {
                if !valid_name(name) {
                    errors.push(format!(
                        "line {lineno}: invalid {what} metric name {name:?}"
                    ));
                }
                let entry = meta.entry(name).or_default();
                if what == "HELP" {
                    entry.0 += 1;
                    continue;
                }
                entry.1 += 1;
                let kind = rest.first().copied().unwrap_or("");
                entry.2 = matches!(kind, "summary" | "histogram");
                if !(entry.2 || matches!(kind, "counter" | "gauge" | "untyped")) {
                    errors.push(format!("line {lineno}: unknown metric type {kind:?}"));
                }
            }
            // Other comments are allowed and ignored.
            _ if line.starts_with('#') => {}
            _ => {
                let name = &line[..line.find(['{', ' ']).unwrap_or(line.len())];
                if !valid_name(name) {
                    errors.push(format!(
                        "line {lineno}: invalid sample metric name {name:?}"
                    ));
                }
                let family = ["_sum", "_count", "_bucket"]
                    .iter()
                    .find_map(|suffix| name.strip_suffix(suffix))
                    .filter(|base| meta.get(base).is_some_and(|m| m.2))
                    .unwrap_or(name);
                if open != Some(family) {
                    if closed.contains(&family) {
                        errors.push(format!(
                            "line {lineno}: family {family}'s samples are not contiguous"
                        ));
                    }
                    closed.extend(open.replace(family));
                }
            }
        }
    }
    for (name, (helps, types, _)) in meta {
        for (count, what, other) in [(helps, "HELP", "TYPE"), (types, "TYPE", "HELP")] {
            match count {
                0 => errors.push(format!("metric {name}: {other} without {what}")),
                1 => {}
                n => errors.push(format!("metric {name}: {n} {what} lines (want 1)")),
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_help_type_and_samples() {
        let mut p = PromText::new();
        p.family("widx_keys_total", "counter", "Probed keys.")
            .sample_u64("widx_keys_total", &[("tier", "point"), ("shard", "0")], 42)
            .sample("widx_occupancy", &[], 0.5);
        let text = p.finish();
        assert_eq!(
            text,
            "# HELP widx_keys_total Probed keys.\n\
             # TYPE widx_keys_total counter\n\
             widx_keys_total{tier=\"point\",shard=\"0\"} 42\n\
             widx_occupancy 0.5\n"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let mut p = PromText::new();
        p.sample_u64("m", &[("k", "a\"b\\c\nd")], 1);
        assert_eq!(p.finish(), "m{k=\"a\\\"b\\\\c\\nd\"} 1\n");
    }

    #[test]
    fn lint_accepts_well_formed_exposition() {
        let mut p = PromText::new();
        p.family("widx_keys_total", "counter", "Probed keys.")
            .sample_u64("widx_keys_total", &[("shard", "0")], 42)
            .family("widx_latency_ns", "summary", "Latency summary.")
            .sample_u64("widx_latency_ns_sum", &[], 100)
            .sample_u64("widx_latency_ns_count", &[], 3);
        assert_eq!(lint_exposition(&p.finish()), Vec::<String>::new());
    }

    #[test]
    fn lint_flags_interleaved_families() {
        // Two workers' samples written worker by worker split both
        // families; a summary's _sum/_count lines stay in its group.
        let text = "# HELP widx_keys_total k\n\
                    # TYPE widx_keys_total counter\n\
                    # HELP widx_batches_total b\n\
                    # TYPE widx_batches_total counter\n\
                    widx_keys_total{shard=\"0\"} 1\n\
                    widx_batches_total{shard=\"0\"} 1\n\
                    widx_keys_total{shard=\"1\"} 2\n\
                    widx_batches_total{shard=\"1\"} 2\n\
                    # HELP widx_stage_ns s\n\
                    # TYPE widx_stage_ns summary\n\
                    widx_stage_ns{stage=\"walk\",quantile=\"0.5\"} 1\n\
                    widx_stage_ns_sum{stage=\"walk\"} 1\n\
                    widx_stage_ns{stage=\"gather\",quantile=\"0.5\"} 1\n\
                    widx_stage_ns_count{stage=\"gather\"} 1\n";
        let errors = lint_exposition(text);
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors[0].contains("widx_keys_total") && errors[0].contains("not contiguous"));
        assert!(errors[1].contains("widx_batches_total"));
    }

    #[test]
    fn lint_flags_duplicates_missing_pairs_and_bad_names() {
        let text = "# HELP widx_a one\n\
                    # TYPE widx_a counter\n\
                    # TYPE widx_a counter\n\
                    # HELP widx_b two\n\
                    # TYPE widx_c widget\n\
                    widx_a 1\n\
                    9bad_name 2\n";
        let errors = lint_exposition(text);
        assert!(errors
            .iter()
            .any(|e| e.contains("widx_a") && e.contains("2 TYPE")));
        assert!(errors
            .iter()
            .any(|e| e.contains("widx_b") && e.contains("without TYPE")));
        assert!(errors
            .iter()
            .any(|e| e.contains("widx_c") && e.contains("without HELP")));
        assert!(errors.iter().any(|e| e.contains("widget")));
        assert!(errors.iter().any(|e| e.contains("9bad_name")));
    }
}
