//! Ablation — decoupled hashing (Figure 3d, the Widx design) vs the
//! coupled design (Figure 3b: walkers hash their own keys).
//!
//! The paper's Section 1 claim: "decoupling key hashing from list
//! traversal takes the hashing operation off the critical path, which
//! reduces the time per list traversal by 29% on average". The coupled
//! walkers also lose the dispatcher-only fused `XOR-SHF`/`AND-SHF`
//! instructions (Table 1), paying the unfused expansion.
//!
//! Usage: `ablation_dispatcher [probes]`. It ends with a host-CPU table
//! of each recipe's ns/key through its `eval` kernel and its step fold.

use std::hint::black_box;
use widx_bench::runner::ProbeSetup;
use widx_bench::table::{f2, pct, Table};
use widx_core::config::WidxConfig;
use widx_core::offload::offload_probe_coupled;
use widx_db::hash::HashRecipe;
use widx_db::index::NodeLayout;
use widx_workloads::datagen;

fn main() {
    let probes_n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8192);
    println!(
        "== Ablation: shared decoupled dispatcher (Fig. 3d) vs coupled hashing (Fig. 3b) ==\n"
    );

    let mut t = Table::new(&["hash", "walkers", "decoupled cpt", "coupled cpt", "saving"]);
    for recipe in [HashRecipe::robust64(), HashRecipe::heavy128()] {
        // LLC-resident index so hashing is a meaningful share of time.
        let entries = 32 * 1024u64;
        let pairs: Vec<(u64, u64)> = datagen::unique_shuffled_keys(7, entries as usize)
            .into_iter()
            .zip(0..)
            .collect();
        let probes = datagen::uniform_keys(11, probes_n, entries);
        let setup = ProbeSetup::new(&recipe, entries, &pairs, probes, NodeLayout::direct8());
        for walkers in [1usize, 2, 4] {
            let cfg = WidxConfig::with_walkers(walkers);
            let (dec, _) = setup.run_widx(&cfg);
            let mut mem = setup.mem.clone();
            widx_workloads::memimg::warm(&mut mem, &setup.image);
            let cou = offload_probe_coupled(&mut mem, &setup.image, &cfg);
            let d = dec.stats.cycles_per_tuple();
            let c = cou.stats.cycles_per_tuple();
            t.row(&[
                recipe.name().into(),
                walkers.to_string(),
                f2(d),
                f2(c),
                pct((c - d) / c),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "(paper: decoupling cuts time per traversal by ~29% on average — visible \
         at 1-2 walkers. At 4 walkers over an LLC-resident index the coupled \
         design wins because it has four private hash units while the shared \
         dispatcher saturates: exactly the Figure 3c vs 3d trade-off, and the \
         \"very shallow buckets with low LLC miss ratios\" exception the \
         paper's Equation 6 analysis calls out.)"
    );
    println!("\n== Host CPU hash cost ==\n\n{}", host_hash_cost());
}

/// Median ns/key of 15 interleaved rounds of each recipe's kernel and
/// step fold; the two XOR accumulators must match.
fn host_hash_cost() -> String {
    let keys: Vec<u64> = (0..4096u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let mut t = Table::new(&["hash", "kernel ns/key", "fold ns/key"]);
    for r in [
        HashRecipe::trivial(),
        HashRecipe::robust64(),
        HashRecipe::heavy128(),
    ] {
        let mut ns = [vec![], vec![]];
        for _ in 0..15 {
            let kernel = time_xor(&keys, &mut ns[0], |k| r.eval(k));
            let fold = time_xor(&keys, &mut ns[1], |k| {
                r.steps().iter().fold(k, |x, s| s.apply(x))
            });
            assert_eq!(kernel, fold, "{}: kernel and fold disagree", r.name());
        }
        let [kernel, fold] = ns.map(|mut v| {
            v.sort_by(f64::total_cmp);
            f2(v[v.len() / 2])
        });
        t.row(&[r.name().into(), kernel, fold]);
    }
    t.render()
}

/// XORs `hash` over `keys` and returns the accumulator; pushes ns/key.
fn time_xor(keys: &[u64], ns: &mut Vec<f64>, hash: impl Fn(u64) -> u64) -> u64 {
    let started = std::time::Instant::now();
    let acc = black_box(black_box(keys).iter().fold(0, |acc, &k| acc ^ hash(k)));
    ns.push(started.elapsed().as_nanos() as f64 / keys.len() as f64);
    acc
}
