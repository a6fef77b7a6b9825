//! Metric tables: every scalar a snapshot exposes is declared once.
//!
//! A [`Metric`] row names a scalar's JSON key, its Prometheus family, its
//! kind and help text, and how to read it off the snapshot type. The JSON
//! documents and the Prometheus exposition are two short drivers over the
//! same rows — [`write_fields`] and [`expose`] — so the two views cannot
//! drift, and adding a metric is adding one row.

use crate::json::Writer;
use crate::prom::PromText;

/// How Prometheus should interpret a metric family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotone total.
    Counter,
    /// Point-in-time level.
    Gauge,
}

/// One reading of a metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// An integer count or level.
    U64(u64),
    /// A ratio, written to JSON with the given number of decimals. `None`
    /// (the denominator never ticked) is `null` in JSON and no sample in
    /// Prometheus.
    F64(Option<f64>, usize),
    /// A flag: `true` / `false` in JSON, `1` / `0` in Prometheus.
    Bool(bool),
    /// A label-like constant; JSON only.
    Str(&'static str),
}

impl Value {
    fn sample(self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(v as f64),
            Value::F64(v, _) => v.filter(|v| v.is_finite()),
            Value::Bool(v) => Some(f64::from(u8::from(v))),
            Value::Str(_) => None,
        }
    }
}

/// One scalar of the snapshot type `T`, declared once for both views.
#[derive(Debug)]
pub struct Metric<T> {
    /// JSON key; empty when the scalar is not part of the JSON view.
    pub key: &'static str,
    /// Prometheus family; empty when the scalar is JSON-only.
    pub family: &'static str,
    /// Prometheus type of the family.
    pub kind: Kind,
    /// Prometheus help text.
    pub help: &'static str,
    /// Reads the scalar off a snapshot.
    pub get: fn(&T) -> Value,
}

/// Label pairs identifying one series of a family.
pub type Labels = Vec<(&'static str, String)>;

impl<T> Metric<T> {
    /// A scalar present in both views.
    pub const fn new(
        kind: Kind,
        key: &'static str,
        family: &'static str,
        get: fn(&T) -> Value,
        help: &'static str,
    ) -> Metric<T> {
        Metric {
            key,
            family,
            kind,
            help,
            get,
        }
    }

    /// A scalar carried by the JSON view only.
    pub const fn json_only(key: &'static str, get: fn(&T) -> Value) -> Metric<T> {
        Metric::new(Kind::Gauge, key, "", get, "")
    }

    /// Write this scalar as one member of the currently open JSON object.
    pub fn write(&self, w: &mut Writer, snapshot: &T) {
        if self.key.is_empty() {
            return;
        }
        w.key(self.key);
        match (self.get)(snapshot) {
            Value::U64(v) => w.u64(v),
            Value::F64(v, decimals) => w.f64(v, decimals),
            Value::Bool(v) => w.bool(v),
            Value::Str(v) => w.str(v),
        };
    }
}

/// The JSON driver: write every keyed row of `table` as a member of the
/// currently open object, in table order.
pub fn write_fields<T>(w: &mut Writer, table: &[Metric<T>], snapshot: &T) {
    for metric in table {
        metric.write(w, snapshot);
    }
}

/// The Prometheus driver: for every row of `table` with a family, emit
/// its `HELP` / `TYPE` lines followed by one sample per series — so a
/// family's samples are always one contiguous group, as the text format
/// requires. A family none of whose series has a reading is left out.
pub fn expose<T>(p: &mut PromText, table: &[Metric<T>], series: &[(Labels, &T)]) {
    for metric in table.iter().filter(|m| !m.family.is_empty()) {
        let samples: Vec<(&Labels, f64)> = series
            .iter()
            .filter_map(|(labels, snapshot)| Some((labels, (metric.get)(snapshot).sample()?)))
            .collect();
        if samples.is_empty() {
            continue;
        }
        let kind = match metric.kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        };
        p.family(metric.family, kind, metric.help);
        for (labels, value) in samples {
            let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            p.sample(metric.family, &labels, value);
        }
    }
}
