//! The metric tables — names, units and directions, which
//! `BENCHMARK.json` at the repo root repeats and `tests/contract.rs`
//! holds it to — and the three ways a run reports them: one line per
//! metric, the result file, and the final JSON line the driver reads.

use crate::json::{obj, Value};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the system sees; every workload reports all six,
/// from an untraced run. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [Metric; 6] = [
    lower("setup_s", "s"),
    higher("keys_per_s", "1/s"),
    lower("req_p50_us", "us"),
    lower("req_p90_us", "us"),
    lower("cpu_ns_per_key", "ns"),
    lower("rss_bytes_per_entry", "B"),
];

/// One layer each, from the traced run; none is gated. "key" is the
/// workload's unit of work throughout (see `Spec::unit`).
pub const PER_LAYER: [Metric; 41] = [
    lower("db.build_ns_per_entry", "ns"),
    lower("db.read_ns_per_key", "ns"),
    lower("db.nodes_per_key", "count"),
    lower("db.update_ns_per_op", "ns"),
    lower("db.bytes_per_entry", "B"),
    lower("soft.scalar_ns_per_key", "ns"),
    lower("soft.group_ns_per_key", "ns"),
    lower("soft.amac_ns_per_key", "ns"),
    higher("soft.amac_mlp", "count"),
    higher("soft.amac_speedup", "ratio"),
    higher("serve.keys_per_s", "1/s"),
    lower("serve.cpu_ns_per_key", "ns"),
    lower("serve.req_p50_us", "us"),
    lower("serve.submit_ns_per_req", "ns"),
    lower("serve.queue_wait_ns", "ns"),
    lower("serve.batch_wait_ns", "ns"),
    lower("serve.gather_ns", "ns"),
    lower("serve.shard_ns_per_key", "ns"),
    lower("serve.write_share", "ratio"),
    higher("serve.mean_batch", "count"),
    lower("serve.deadline_flush_frac", "ratio"),
    higher("serve.occupancy", "ratio"),
    higher("serve.epoch_reclaimed_per_write", "count"),
    lower("serve.tax_cpu_ns_per_key", "ns"),
    lower("net.codec_ns_per_req", "ns"),
    lower("net.req_bytes", "B"),
    lower("net.reply_bytes", "B"),
    lower("net.send_ns_per_req", "ns"),
    lower("net.recv_ns_per_req", "ns"),
    lower("net.reply_write_ns", "ns"),
    lower("net.busy_rejects", "count"),
    lower("net.decode_errors", "count"),
    lower("net.tax_cpu_ns_per_key", "ns"),
    lower("net.tax_p50_us", "us"),
    lower("obs.hist_record_ns", "ns"),
    lower("obs.scrape_us", "us"),
    lower("obs.trace_overhead_frac", "ratio"),
    lower("client.req_p99_us", "us"),
    lower("client.window_iqr_frac", "ratio"),
    lower("client.steal_frac", "ratio"),
    lower("client.busy_replies", "count"),
];

/// Measured values, in table order.
pub struct Values<'t> {
    table: &'t [Metric],
    values: Vec<(Metric, f64)>,
}

impl<'t> Values<'t> {
    #[must_use]
    pub fn of(table: &'t [Metric]) -> Values<'t> {
        Values {
            table,
            values: Vec::with_capacity(table.len()),
        }
    }

    /// Sets the next metric of the table, which must be `name`: a
    /// value cannot land under the wrong name or be left out.
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = self.table[self.values.len()];
        assert_eq!(metric.name, name, "metrics are set in table order");
        self.values.push((metric, value));
    }

    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(m, _)| m.name == name)
            .map_or(f64::NAN, |&(_, v)| v)
    }

    /// Prints `workload metric value unit`, one line per metric.
    pub fn print(&self, workload: &str) {
        assert_eq!(self.values.len(), self.table.len(), "every metric is set");
        for (metric, value) in &self.values {
            println!("{workload} {} {value} {}", metric.name, metric.unit);
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    #[must_use]
    pub fn to_json(&self) -> Value {
        obj(self.values.iter().map(|(metric, value)| {
            let fields = [
                ("value", Value::from(*value)),
                ("unit", Value::from(metric.unit)),
            ];
            (metric.name, obj(fields))
        }))
    }
}

/// The last line of standard output: what the driver parses.
#[must_use]
pub fn final_line(attempted: u64, failed: u64, metrics: &Values<'_>) -> String {
    obj([
        ("correct", Value::from(failed == 0)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("metrics", metrics.to_json()),
    ])
    .to_string()
}
