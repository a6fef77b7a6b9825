//! The paper's tables and figures, each a harness that prints the rows
//! and series the paper reports.

use widx_core::config::WidxConfig;
use widx_db::column::{Column, ColumnType};
use widx_db::ops::hash_join;
use widx_energy::{figure11, AreaParams, PowerParams, Runtimes};
use widx_isa::{Opcode, UnitClass};
use widx_model::{
    l1_bandwidth_series, mshr_series, walker_utilization_series, walkers_per_mc_series, ModelParams,
};
use widx_sim::config::SystemConfig;
use widx_sim::stats::BreakdownPer;
use widx_workloads::datagen;
use widx_workloads::dss::{tpcds_fig2_with, tpch_fig2_with, OperatorCosts};
use widx_workloads::kernel::{KernelConfig, KernelSize};
use widx_workloads::profiles::{QueryProfile, Suite};

use crate::grid::{Engine, Grid, Size, Workload};
use crate::runner::geomean;
use crate::table::{f2, pct, Table};

/// A per-tuple breakdown's comp, mem, tlb, idle and total cycles.
fn breakdown(per: BreakdownPer) -> [f64; 5] {
    [per.comp, per.mem, per.tlb, per.idle, per.total()]
}

/// Table 1 — the Widx ISA and its per-unit-class usage matrix, printed
/// directly from the `widx-isa` implementation (so the table can never
/// drift from the code).
pub fn table1_isa() {
    println!("== Table 1: Widx ISA ==\n");
    let mut t = Table::new(&["Instruction", "H", "W", "P"]);
    for op in Opcode::ALL {
        let cell = |c: UnitClass| if c.allows(op) { "X" } else { "" }.to_string();
        t.row(&[
            op.mnemonic().to_uppercase(),
            cell(UnitClass::Dispatcher),
            cell(UnitClass::Walker),
            cell(UnitClass::Producer),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(HALT is this implementation's explicit form of the unit-done status \
         write implied by the paper's configuration interface; queue transfers \
         use the IN/OUT port registers rather than extra instructions.)"
    );
}

/// Table 2 — evaluation parameters, printed from the live
/// `SystemConfig` defaults (so the table can never drift from the
/// simulator's configuration).
pub fn table2_params() {
    let c = SystemConfig::default();
    println!("== Table 2: evaluation parameters ==\n");
    let mut t = Table::new(&["Parameter", "Value"]);
    let mut row = |k: &str, v: String| {
        t.row(&[k.to_string(), v]);
    };
    row("Technology", format!("40nm, {} GHz", c.freq_ghz));
    row(
        "Core types",
        format!(
            "In-order (A8-like): {}-wide; OoO (Xeon-like): {}-wide, {}-entry ROB",
            c.inorder.width, c.ooo.width, c.ooo.rob
        ),
    );
    row(
        "L1-D cache",
        format!(
            "{} KB, {} ports, {} B blocks, {} MSHRs, {}-cycle load-to-use",
            c.l1d.size_bytes / 1024,
            c.l1d.ports,
            c.l1d.block_bytes,
            c.l1d.mshrs,
            c.l1d.hit_latency
        ),
    );
    row(
        "LLC",
        format!(
            "{} MB, {}-cycle hit latency",
            c.llc.size_bytes / (1024 * 1024),
            c.llc.hit_latency
        ),
    );
    row(
        "TLB",
        format!(
            "{} in-flight translations, {} entries, {} KB pages",
            c.tlb.in_flight,
            c.tlb.entries,
            c.tlb.page_bytes / 1024
        ),
    );
    row(
        "Interconnect",
        format!("crossbar, {}-cycle latency", c.xbar_latency),
    );
    row(
        "Main memory",
        format!(
            "{} MCs, {:.1} GB/s peak each ({}% effective), {} ns access latency",
            c.memory.controllers,
            c.memory.peak_bytes_per_cycle * c.freq_ghz,
            (c.memory.efficiency * 100.0) as u32,
            c.memory.access_latency as f64 / c.freq_ghz
        ),
    );
    println!("{}", t.render());
}

/// Figure 2 — query execution-time breakdown on the software engine,
/// with operator row counts scaled by the run's `fig2_scale`.
///
/// * **2a**: % of execution time in Index / Scan / Sort&Join / Other for
///   16 TPC-H + 9 TPC-DS synthetic query plans, executed for real on the
///   `widx-db` operators (wall-clock attribution).
/// * **2b**: index time split into Hash vs Walk, from the decoupled
///   probe passes of the hash-join operator, for the 12 queries the
///   paper simulates.
pub fn fig2_breakdown(size: &Size) {
    let scale = size.fig2_scale;
    let costs = OperatorCosts::measure();
    println!(
        "host-calibrated operator costs (ns/row): probe {:.1}, scan {:.2}, sort {:.1}, agg {:.1}",
        costs.probe_ns, costs.scan_ns, costs.sort_ns, costs.agg_ns
    );
    println!("== Figure 2a: execution-time breakdown (scale {scale}) ==\n");

    let mut t = Table::new(&["suite", "query", "Index", "Scan", "Sort&Join", "Other"]);
    let mut index_fracs_h = Vec::new();
    let mut index_fracs_ds = Vec::new();
    let specs = tpch_fig2_with(&costs).into_iter();
    for spec in specs.chain(tpcds_fig2_with(&costs)) {
        let (suite, name) = (spec.suite, spec.name);
        let b = spec.scaled(scale).run().breakdown();
        match suite {
            Suite::TpcH => index_fracs_h.push(b[0]),
            Suite::TpcDs => index_fracs_ds.push(b[0]),
        }
        t.row_fmt(&[suite.name(), name], &b, pct);
    }
    println!("{}", t.render());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let max = |v: &[f64]| v.iter().copied().fold(0.0f64, f64::max);
    println!(
        "TPC-H: indexing mean {} / max {} (paper: 35% / 94%); \
         TPC-DS: mean {} / max {} (paper: 45% / 77%)\n",
        pct(mean(&index_fracs_h)),
        pct(max(&index_fracs_h)),
        pct(mean(&index_fracs_ds)),
        pct(max(&index_fracs_ds)),
    );

    println!("== Figure 2b: index time split (Hash vs Walk) ==\n");
    let mut t = Table::new(&["suite", "query", "Walk", "Hash"]);
    let mut hash_fracs = Vec::new();
    for q in QueryProfile::all() {
        // Execute the probe on the software engine with the profile's
        // own hash recipe and size; the decoupled hash/walk passes give
        // the split directly.
        // Index sizes x4 so the big queries exceed the *host* LLC and
        // the hash/walk split reflects real memory behaviour.
        let entries = ((q.entries as f64 * 4.0 * scale) as usize).max(512);
        let probes = ((q.probes as f64 * 16.0 * scale.max(0.2)) as usize).max(2048);
        let keys = datagen::unique_shuffled_keys(q.seed, entries);
        let dim = Column::new("dim", ColumnType::U64, keys);
        let keys = datagen::uniform_keys(q.seed ^ 1, probes, entries as u64);
        let fact = Column::new("fact", ColumnType::U64, keys);
        let join = hash_join(&dim, &fact, q.recipe.recipe(), entries);
        let hash_frac = join.hash_fraction();
        hash_fracs.push(hash_frac);
        t.row_fmt(
            &[q.suite.name(), q.name],
            &[1.0 - hash_frac, hash_frac],
            pct,
        );
    }
    println!("{}", t.render());
    println!(
        "mean hash fraction {} (paper: 30% mean, up to 68% for L1-resident indexes)",
        pct(hash_fracs.iter().sum::<f64>() / hash_fracs.len() as f64)
    );
}

/// Figure 4 — accelerator bottleneck analysis (Section 3.2 model).
///
/// * **4a**: L1-D accesses/cycle vs LLC miss ratio for 1–10 walkers,
///   against the 1- and 2-port limits.
/// * **4b**: outstanding L1 misses vs walker count, against 8–10 MSHRs.
/// * **4c**: walkers one 9 GB/s memory controller sustains vs LLC miss
///   ratio.
pub fn fig4_bottlenecks() {
    let p = ModelParams::default();

    println!("== Figure 4a: L1-D bandwidth constraint ==");
    println!("(mem ops/cycle; a value above the port count saturates the L1)\n");
    let walkers = [1u32, 2, 4, 8, 10];
    let series = l1_bandwidth_series(&p, &walkers, 10);
    let mut header = vec!["llc miss".to_string()];
    header.extend(walkers.iter().map(|w| format!("{w}w")));
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for i in 0..=10 {
        let mut row = vec![i as f64 / 10.0];
        row.extend(series.iter().map(|(_, points)| points[i].y));
        t.row_fmt(&[], &row, f2);
    }
    println!("{}", t.render());
    let at_low = |n: f64| widx_model::l1_pressure(&p, 0.0, n);
    let single_port_limit = (1..=16)
        .take_while(|n| at_low(f64::from(*n)) <= 1.0)
        .count();
    println!(
        "single-ported L1 saturates beyond {single_port_limit} walkers; two ports sustain 10 \
         (pressure at 10w, low miss: {:.2} <= 2)\n",
        at_low(10.0)
    );

    println!("== Figure 4b: MSHR constraint ==\n");
    let mut t = Table::new(&["walkers", "outstanding L1 misses"]);
    for pt in mshr_series(&p, 10) {
        t.row_fmt(&[&(pt.x as u32).to_string()], &[pt.y], f2);
    }
    println!("{}", t.render());
    println!("8-10 MSHRs limit concurrent walkers to 4-5 (paper Section 3.2)\n");

    println!("== Figure 4c: off-chip bandwidth constraint ==\n");
    let mut t = Table::new(&["llc miss", "walkers per MC"]);
    for pt in walkers_per_mc_series(&p, 10) {
        t.row_fmt(&[], &[pt.x, pt.y], f2);
    }
    println!("{}", t.render());
    println!(
        "one MC serves ~{:.0} walkers at 10% LLC misses, ~{:.0} at 100% (paper: ~8 down to 4)",
        widx_model::walkers_per_mc(&p, 0.1),
        widx_model::walkers_per_mc(&p, 1.0),
    );
}

/// Figure 5 — walkers a single dispatcher can feed (Equation 6), as a
/// function of LLC miss ratio and bucket depth.
pub fn fig5_utilization() {
    let p = ModelParams::default();
    let walkers = [8u32, 4, 2];

    for nodes_per_bucket in [1.0, 2.0, 3.0] {
        println!(
            "== Figure 5{}: walker utilization, {} node(s) per bucket ==\n",
            match nodes_per_bucket as u32 {
                1 => "a",
                2 => "b",
                _ => "c",
            },
            nodes_per_bucket
        );
        let series = walker_utilization_series(&p, nodes_per_bucket, &walkers, 10);
        let mut header = vec!["llc miss".to_string()];
        header.extend(walkers.iter().map(|w| format!("{w} walkers")));
        let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
        for i in 0..=10 {
            let mut row = vec![i as f64 / 10.0];
            row.extend(series.iter().map(|(_, points)| points[i].1));
            t.row_fmt(&[], &row, f2);
        }
        println!("{}", t.render());
    }
    println!(
        "conclusion (paper): one dispatcher feeds up to 4 walkers except for \
         very shallow buckets (1 node/bucket) at low LLC miss ratios"
    );
}

/// Figure 8 — Hash Join kernel analysis.
///
/// * **Fig. 8a**: Widx walker cycles-per-tuple breakdown
///   (Comp/Mem/TLB/Idle) for Small/Medium/Large × 1/2/4 walkers,
///   normalized to Small on 1 walker.
/// * **Fig. 8b**: indexing speedup over the OoO baseline for the same
///   sweep (the paper reports a 4 % geomean win for 1 walker and up to
///   4x for the Large index with 4 walkers).
pub fn fig8_hashjoin(grid: &mut Grid) {
    let probes = grid.size.kernel_probes;
    println!("== Figure 8: Hash Join kernel (probes/sample = {probes}) ==\n");

    let mut fig8a = Table::new(&[
        "size", "walkers", "comp/t", "mem/t", "tlb/t", "idle/t", "total/t", "norm",
    ]);
    let mut fig8b = Table::new(&["size", "ooo cpt", "1w", "2w", "4w"]);
    let mut norm_base = None;
    let mut speedups_1w = Vec::new();
    let mut speedups_4w = Vec::new();

    for size in KernelSize::ALL {
        let cfg = KernelConfig::new(size).with_probes(probes);
        println!(
            "building {} ({} tuples, seed {:#x})...",
            size.name(),
            size.tuples(),
            cfg.seed
        );
        let w = Workload::Kernel(cfg);
        for walkers in [1usize, 2, 4] {
            let per = grid.point(&w, Engine::walkers(walkers)).walker;
            let norm = per.total() / *norm_base.get_or_insert(per.total());
            let label = [size.name(), &walkers.to_string()];
            fig8a.row_fmt(&label, &[breakdown(per).as_slice(), &[norm]].concat(), f2);
        }
        let (ooo, s) = grid.speedups(&w);
        speedups_1w.push(s[0]);
        speedups_4w.push(s[2]);
        fig8b.row_fmt(&[size.name()], &[ooo, s[0], s[1], s[2]], f2);
    }

    println!("\n-- Fig. 8a: Widx walker cycle breakdown per tuple --");
    println!(
        "(norm = total normalized to Small/1-walker; paper's y-axis)\n{}",
        fig8a.render()
    );
    println!(
        "-- Fig. 8b: indexing speedup over OoO --\n{}",
        fig8b.render()
    );
    println!(
        "geomean speedup: 1 walker {:.2}x (paper: ~1.04x), 4 walkers {:.2}x (paper: up to 4x on Large)",
        geomean(&speedups_1w),
        geomean(&speedups_4w),
    );
}

/// Figure 9 — Widx walker cycles-per-tuple breakdown on the DSS query
/// profiles (9a: TPC-H, 9b: TPC-DS), for 1/2/4 walkers.
pub fn fig9_dss(grid: &mut Grid) {
    for (fig, suite) in [("9a", Suite::TpcH), ("9b", Suite::TpcDs)] {
        println!(
            "== Figure {fig}: {} walker cycle breakdown (cycles/tuple) ==\n",
            suite.name()
        );
        let mut t = Table::new(&["query", "walkers", "comp", "mem", "tlb", "idle", "total"]);
        for q in QueryProfile::all().into_iter().filter(|q| q.suite == suite) {
            let w = Workload::query(&q, grid.size.dss_probes);
            for walkers in [1usize, 2, 4] {
                let per = grid.point(&w, Engine::walkers(walkers)).walker;
                t.row_fmt(&[q.name, &walkers.to_string()], &breakdown(per), f2);
            }
        }
        println!("{}", t.render());
    }
    println!(
        "expected shape (paper Sec. 6.2): linear cycles-per-tuple reduction with \
         walker count; TPC-DS totals far below TPC-H (note the paper's y-axis change); \
         idle cycles on L1-resident TPC-DS queries (5, 37, 64, 82); TLB cycles only \
         on the memory-intensive TPC-H queries (19, 20, 22)."
    );
}

/// Figure 10 — indexing speedup of Widx over the OoO baseline on the
/// twelve DSS queries, plus the Section 6.2 whole-query projection.
///
/// The paper reports 1.5x–5.5x indexing speedups (geomean 3.1x) for
/// four walkers — maximum on TPC-H q20 (large index, heavy hashing),
/// minimum on TPC-DS q37 (L1-resident index) — and, projecting onto the
/// Figure 2a indexing fractions, whole-query speedups of up to 3.1x
/// (q17) with a 1.5x geomean.
pub fn fig10_speedup(grid: &mut Grid) {
    println!("== Figure 10: indexing speedup over OoO ==\n");
    let mut t = Table::new(&[
        "suite",
        "query",
        "ooo cpt",
        "1w",
        "2w",
        "4w",
        "query-level (4w)",
    ]);
    let mut speedups_4w = Vec::new();
    let mut query_speedups = Vec::new();
    for q in QueryProfile::all() {
        let w = Workload::query(&q, grid.size.dss_probes);
        let (ooo, s) = grid.speedups(&w);
        // Section 6.2 projection: only the indexing fraction accelerates.
        let f = q.index_fraction;
        let query_level = 1.0 / ((1.0 - f) + f / s[2]);
        speedups_4w.push(s[2]);
        query_speedups.push(query_level);
        t.row_fmt(
            &[q.suite.name(), q.name],
            &[ooo, s[0], s[1], s[2], query_level],
            f2,
        );
    }
    println!("{}", t.render());
    println!(
        "4-walker indexing speedup: geomean {:.2}x, min {:.2}x, max {:.2}x \
         (paper: 3.1x geomean, 1.5x min on qry37, 5.5x max on qry20)",
        geomean(&speedups_4w),
        speedups_4w.iter().copied().fold(f64::INFINITY, f64::min),
        speedups_4w.iter().copied().fold(0.0f64, f64::max),
    );
    println!(
        "whole-query projection: geomean {:.2}x, max {:.2}x \
         (paper: 1.5x geomean, 3.1x max on qry17)",
        geomean(&query_speedups),
        query_speedups.iter().copied().fold(0.0f64, f64::max),
    );
}

/// Figure 11 — indexing runtime, energy, and energy-delay product of
/// OoO vs in-order vs Widx (normalized to OoO, lower is better).
///
/// Runtimes are measured on the DSS query profiles (summed
/// cycles-per-tuple across the mix, i.e. time-weighted); powers are the
/// published constants of `widx-energy`.
pub fn fig11_energy(grid: &mut Grid) {
    // Aggregate as *total indexing time* across the query mix (the
    // paper's Figure 11 is the runtime of the indexing portions, which
    // the memory-heavy queries dominate), i.e. arithmetic sums of
    // cycles-per-tuple at equal probe counts.
    let mut total = |engine: Engine| -> f64 {
        QueryProfile::all()
            .iter()
            .map(|q| {
                let w = Workload::query(q, grid.size.dss_probes);
                grid.point(&w, engine.clone()).cpt
            })
            .sum()
    };
    let runtimes = Runtimes {
        ooo: total(Engine::Ooo),
        inorder: total(Engine::InOrder),
        widx: total(Engine::Widx(WidxConfig::paper_default())),
    };
    println!(
        "total indexing cycles across the 12-query mix (normalized): \
         OoO {:.0}, in-order {:.0} ({:.2}x slower; paper: 2.2x), \
         Widx-4 {:.0} ({:.2}x faster; paper: 3.1x)\n",
        runtimes.ooo,
        runtimes.inorder,
        runtimes.inorder / runtimes.ooo,
        runtimes.widx,
        runtimes.ooo / runtimes.widx,
    );

    let fig = figure11(runtimes, &PowerParams::default());
    println!("== Figure 11 (normalized to OoO; lower is better) ==\n");
    let mut t = Table::new(&["design", "Indexing Runtime", "Energy", "Energy-Delay"]);
    for p in [fig.ooo, fig.inorder, fig.widx] {
        t.row_fmt(&[p.name], &[p.runtime, p.energy, p.edp], f2);
    }
    println!("{}", t.render());
    println!(
        "energy reduction: in-order {} (paper 86%), Widx {} (paper 83%)",
        pct(fig.inorder_energy_reduction()),
        pct(fig.widx_energy_reduction()),
    );
    println!(
        "EDP improvement of Widx: {:.1}x over OoO (paper 17.5x), {:.1}x over in-order (paper 5.5x)",
        fig.widx_edp_gain_vs_ooo(),
        fig.widx_edp_gain_vs_inorder(),
    );
}

/// Section 6.3 area analysis, rendered as a table: the paper's
/// synthesized Widx area/power against the published comparison points.
pub fn table3_area() {
    let a = AreaParams::default();
    let p = PowerParams::default();
    println!("== Section 6.3: area and power (40 nm, 2 GHz) ==\n");
    let mut t = Table::new(&["Block", "Area (mm^2)", "Power (W)"]);
    t.row(&[
        "Widx unit (incl. 2-entry queues)".into(),
        format!("{:.3}", a.widx_unit_mm2),
        format!("{:.3}", p.widx_unit_w),
    ]);
    let x6 = "Widx x6 (dispatcher + 4 walkers + producer)";
    t.row_fmt(&[x6], &[a.widx_total_mm2, p.widx_total_w], f2);
    let a8 = "ARM Cortex-A8-like in-order core (incl. L1)";
    t.row_fmt(&[a8], &[a.a8_mm2, p.inorder_w], f2);
    t.row(&[
        "ARM Cortex-M4 microcontroller".into(),
        f2(a.m4_mm2),
        "-".into(),
    ]);
    println!("{}", t.render());
    println!(
        "Widx occupies {:.0}% of the A8's area (paper: 18%) at comparable power; \
         one Widx unit is about one Cortex-M4.",
        a.widx_vs_a8() * 100.0
    );
}
