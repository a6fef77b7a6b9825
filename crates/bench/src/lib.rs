//! # widx-bench — experiment harnesses
//!
//! Every table, figure and ablation of the paper is a harness: a
//! function that prints the rows and series the paper reports, plus the
//! workload seeds for reproducibility. [`HARNESSES`] lists them in run
//! order, and the crate's one binary, `all_experiments`, runs them in
//! one process. The harnesses that measure probe workloads read their
//! points from one [`grid::Grid`], so each design point is simulated
//! once per run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod figures;
pub mod grid;
pub mod prof;
pub mod runner;
pub mod table;

use ablations::*;
use figures::*;
use grid::{Grid, Size};

/// A harness: its name, the argument its header shows for a run of a
/// given size, and the harness itself.
pub type Harness = (&'static str, fn(&Size) -> String, fn(&mut Grid));

/// Every harness, in run order.
pub const HARNESSES: [Harness; 16] = [
    ("table1_isa", none, |_| table1_isa()),
    ("table2_params", none, |_| table2_params()),
    ("fig2_breakdown", scale, |g| fig2_breakdown(&g.size)),
    ("fig4_bottlenecks", none, |_| fig4_bottlenecks()),
    ("fig5_utilization", none, |_| fig5_utilization()),
    ("fig8_hashjoin", kernel, fig8_hashjoin),
    ("fig9_dss", dss, fig9_dss),
    ("fig10_speedup", dss, fig10_speedup),
    ("fig11_energy", dss, fig11_energy),
    ("table3_area", none, |_| table3_area()),
    ("ablation_dispatcher", kernel, |g| {
        ablation_dispatcher(&g.size)
    }),
    ("ablation_queue_depth", kernel, ablation_queue_depth),
    ("ablation_llc_widx", kernel, ablation_llc_widx),
    ("ablation_touch", kernel, ablation_touch),
    ("ablation_btree", dss, ablation_btree),
    ("ablation_skew", kernel, |g| ablation_skew(&g.size)),
];

fn none(_: &Size) -> String {
    String::new()
}

fn scale(s: &Size) -> String {
    format!("{:?}", s.fig2_scale)
}

fn kernel(s: &Size) -> String {
    s.kernel_probes.to_string()
}

fn dss(s: &Size) -> String {
    s.dss_probes.to_string()
}
