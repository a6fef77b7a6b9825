//! Ablation — Widx on a B+-tree index (paper Section 7: "Widx can
//! easily be extended to accelerate other index structures, such as
//! balanced trees").
//!
//! Compares the OoO baseline descending the tree in software against
//! Widx walkers running the tree-walker program, across fanouts, plus a
//! hash-index reference on the same data.
//!
//! With `--profile`, the software walker engines (scalar /
//! group-prefetch / AMAC) run the same workloads on *this* CPU under
//! `perf-event` counter groups — a probe sweep on the hash reference
//! and a range-scan sweep on the tree — reporting the paper-style
//! per-engine cycle breakdown (IPC, LLC MPKI, stall fraction,
//! effective MLP) next to the simulated speedups.
//!
//! Usage: `ablation_btree [probes] [--profile]`.

use widx_bench::prof::{profile_btree_engines, profile_engines, render_engine_table};
use widx_bench::runner::ProbeSetup;
use widx_bench::table::{f2, Table};
use widx_core::btree::offload_btree_probe;
use widx_core::config::WidxConfig;
use widx_db::hash::HashRecipe;
use widx_db::index::{BTreeIndex, HashIndex};
use widx_sim::config::SystemConfig;
use widx_sim::core::run_ooo;
use widx_sim::mem::{MemorySystem, RegionAllocator};
use widx_soft::ScanRange;
use widx_workloads::btree_img::materialize_btree;
use widx_workloads::datagen;
use widx_workloads::trace::btree_probe_trace;

fn main() {
    let mut probes_n: usize = 4096;
    let mut profile = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--profile" => profile = true,
            other => probes_n = other.parse().expect("probes count"),
        }
    }
    let entries = 400_000u64; // DRAM-resident tree

    println!("== Ablation: B+-tree index traversal on Widx (Section 7 extension) ==\n");
    let mut t = Table::new(&["index", "height", "ooo cpt", "1w", "2w", "4w (speedup)"]);

    for fanout in [8usize, 16] {
        let keys = datagen::unique_shuffled_keys(51, entries as usize);
        let tree = BTreeIndex::build(fanout, keys.iter().enumerate().map(|(r, k)| (*k, r as u64)));
        let probes = datagen::uniform_keys(52, probes_n, entries);

        let mut mem = MemorySystem::new(SystemConfig::default());
        let mut alloc = RegionAllocator::new();
        let image = materialize_btree(&mut mem, &mut alloc, &tree, &probes);

        let trace = btree_probe_trace(&tree, &image, &probes);
        let sys = SystemConfig::default();
        let ooo = run_ooo(&sys.ooo, &trace, &mut mem.clone(), 0);

        let mut cpts = Vec::new();
        for walkers in [1usize, 2, 4] {
            let mut m = mem.clone();
            let r = offload_btree_probe(&mut m, &image, &WidxConfig::with_walkers(walkers));
            cpts.push(r.stats.cycles_per_tuple());
        }
        t.row(&[
            format!("btree f={fanout}"),
            tree.height().to_string(),
            f2(ooo.cycles_per_tuple()),
            f2(ooo.cycles_per_tuple() / cpts[0]),
            f2(ooo.cycles_per_tuple() / cpts[1]),
            f2(ooo.cycles_per_tuple() / cpts[2]),
        ]);
    }

    // Hash-index reference on the same scale.
    let setup = ProbeSetup::kernel(
        &widx_workloads::kernel::KernelConfig::new(widx_workloads::kernel::KernelSize::Large)
            .with_probes(probes_n),
    );
    let ooo = setup.run_ooo();
    let mut row = vec!["hash (Large)".to_string(), "2".to_string(), f2(ooo.cpt)];
    for walkers in [1usize, 2, 4] {
        let (r, _) = setup.run_widx(&WidxConfig::with_walkers(walkers));
        row.push(f2(ooo.cpt / r.stats.cycles_per_tuple()));
    }
    t.row(&row);

    println!("{}", t.render());
    println!(
        "(tree descents are longer pointer chases than hash chains, so \
         parallel walkers pay off on trees too — the paper's Section 7 claim)"
    );

    if profile {
        // The same engine comparison measured on this CPU: hash probes
        // first, then B+-tree range scans, each engine under its own
        // counter group.
        let (backend, hw, fallback) = widx_bench::prof::prof_backend();
        println!(
            "\n== live per-engine profile (backend {backend}, hw counters {}) ==",
            if hw { "on" } else { "off" }
        );
        if let Some(reason) = fallback {
            println!("(hardware counters unavailable — {reason}; software clock backend)");
        }
        let keys = datagen::unique_shuffled_keys(53, entries as usize);
        let index = HashIndex::build(
            HashRecipe::robust64(),
            entries as usize,
            keys.iter().enumerate().map(|(r, k)| (*k, r as u64)),
        );
        let probes = datagen::uniform_keys(54, probes_n, entries);
        println!("\nhash probes ({probes_n} uniform keys):");
        println!(
            "{}",
            render_engine_table(&profile_engines(&index, &probes, 8, 16))
        );

        let tree = BTreeIndex::build(16, keys.iter().enumerate().map(|(r, k)| (*k, r as u64)));
        let scans: Vec<ScanRange> = datagen::uniform_keys(55, probes_n / 8, entries)
            .into_iter()
            .map(|lo| ScanRange {
                lo,
                hi: lo.saturating_add(256),
                limit: 128,
                desc: false,
            })
            .collect();
        println!("btree range scans ({} scans, limit 128):", scans.len());
        println!(
            "{}",
            render_engine_table(&profile_btree_engines(&tree, &scans, 8, 16))
        );
        println!(
            "(soft MLP = walker occupancy / rounds — the AMAC rows should hold \
             the deepest memory-level parallelism on both index shapes)"
        );
    }
}
