//! Probe a B+-tree with Widx — the paper's Section 7 "other index
//! structures" extension in action.
//!
//! ```text
//! cargo run --release --example btree_index
//! ```

use widx_repro::accel::btree::run_btree;
use widx_repro::accel::config::WidxConfig;
use widx_repro::db::index::BTreeIndex;
use widx_repro::workloads::datagen;

fn main() {
    let entries = 100_000u64;
    let fanout = 8;
    println!("building a fanout-{fanout} B+-tree over {entries} entries...");
    let keys = datagen::unique_shuffled_keys(5, entries as usize);
    let tree = BTreeIndex::build(fanout, keys.iter().enumerate().map(|(r, k)| (*k, r as u64)));
    println!(
        "height {} ({} inner levels + leaf)",
        tree.height(),
        tree.height() - 1
    );

    let probes = datagen::uniform_keys(6, 2048, entries * 2); // ~50% hit rate
    for walkers in [1usize, 2, 4] {
        let (result, image) = run_btree(&tree, &probes, &WidxConfig::with_walkers(walkers));
        let per = result.stats.walker_cycles_per_tuple();
        println!(
            "Widx {walkers}w: {:>7.1} cycles/tuple, {} matches  \
             [comp {:.1} | mem {:.1} | tlb {:.1} | idle {:.1}]  tree {} KB",
            result.stats.cycles_per_tuple(),
            result.stats.matches,
            per.comp,
            per.mem,
            per.tlb,
            per.idle,
            image.tree_bytes / 1024,
        );
    }

    // Verify against the software tree, pair for pair.
    let (result, _) = run_btree(&tree, &probes, &WidxConfig::paper_default());
    let mut got = result.matches().to_vec();
    got.sort_unstable();
    let mut oracle: Vec<(u64, u64)> = probes
        .iter()
        .filter_map(|&p| tree.lookup(p).map(|v| (p, v)))
        .collect();
    oracle.sort_unstable();
    assert_eq!(got, oracle, "Widx matches must equal the software tree's");
    println!(
        "verified {} (key, payload) matches against the software tree",
        oracle.len()
    );
}
