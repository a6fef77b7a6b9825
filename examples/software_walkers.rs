//! Software walkers on your actual CPU: scalar vs group-prefetch vs AMAC
//! probing of a hash index — the paper's inter-key parallelism insight
//! applied in software — swept over group size and ring depth, in
//! 512-key batches (a ring drains at each batch's end, as the serving
//! tier's does). The engines must find the same matches at every depth;
//! a mismatch panics (exit 101). Prints ns/key per engine and depth, and
//! the knee: the shallowest AMAC ring within 5 % of the fastest, the
//! evidence behind `ServeConfig::inflight`'s default. The default 2^21
//! entries (~50 MB of index) is quick; 2^24 (~0.4 GB) is DRAM-resident
//! even under a large last-level cache.
//!
//! ```text
//! cargo run --release --example software_walkers        # 2^21 entries
//! cargo run --release --example software_walkers -- 24  # 2^24 entries
//! ```

use std::time::Instant;

use widx_repro::db::hash::HashRecipe;
use widx_repro::db::index::HashIndex;
use widx_repro::soft::{probe_amac, probe_group_prefetch, probe_scalar};
use widx_repro::workloads::datagen;

const DEPTHS: [usize; 4] = [4, 8, 16, 32];
const ROUNDS: usize = 7;
const BATCH: usize = 512;

#[derive(Clone, Copy, Debug)]
enum Engine {
    Scalar,
    Group(usize),
    Amac(usize),
}

impl Engine {
    fn probe(self, index: &HashIndex, probes: &[u64], out: &mut Vec<(u64, u64)>) {
        for batch in probes.chunks(BATCH) {
            match self {
                Engine::Scalar => probe_scalar(index, batch, out),
                Engine::Group(size) => probe_group_prefetch(index, batch, size, out),
                Engine::Amac(depth) => probe_amac(index, batch, depth, out),
            };
        }
    }
}

fn main() {
    let log2: u32 = std::env::args()
        .nth(1)
        .map_or(21, |arg| arg.parse().expect("log2 of the entry count"));
    let entries = 1 << log2;
    let probe_count = 1 << 18;
    println!("building a 2^{log2}-entry index...");
    let keys = datagen::unique_shuffled_keys(1, entries);
    let index = HashIndex::build(
        HashRecipe::robust64(),
        entries / 2,
        keys.iter().enumerate().map(|(r, k)| (*k, r as u64)),
    );
    let probes = datagen::uniform_keys(2, probe_count, entries as u64);
    let sweep = DEPTHS.map(|d| [Engine::Group(d), Engine::Amac(d)]);
    let engines: Vec<Engine> = [Engine::Scalar].into_iter().chain(sweep.concat()).collect();

    // Warm every engine once and check it against the scalar loop.
    let mut out = Vec::with_capacity(probe_count * 2);
    let mut want = Vec::new();
    for engine in &engines {
        out.clear();
        engine.probe(&index, &probes, &mut out);
        out.sort_unstable();
        if want.is_empty() {
            want.clone_from(&out);
        }
        assert!(out == want, "{engine:?} disagrees with the scalar loop");
    }

    // Interleaved rounds, so host drift lands on every engine alike; the
    // median round per engine.
    let mut ns = vec![Vec::with_capacity(ROUNDS); engines.len()];
    for _ in 0..ROUNDS {
        for (engine, ns) in engines.iter().zip(&mut ns) {
            out.clear();
            let t0 = Instant::now();
            engine.probe(&index, &probes, &mut out);
            ns.push(t0.elapsed().as_nanos() as f64 / probe_count as f64);
        }
    }
    let median: Vec<f64> = ns
        .iter_mut()
        .map(|ns| {
            ns.sort_by(f64::total_cmp);
            ns[ROUNDS / 2]
        })
        .collect();

    println!(
        "\n{:>6} {:>14} {:>14}",
        "depth", "group ns/key", "AMAC ns/key"
    );
    let (group, amac): (Vec<f64>, Vec<f64>) = median[1..].chunks(2).map(|g| (g[0], g[1])).unzip();
    for (i, depth) in DEPTHS.iter().enumerate() {
        println!("{depth:>6} {:>14.1} {:>14.1}", group[i], amac[i]);
    }
    let best = amac.iter().copied().fold(f64::INFINITY, f64::min);
    let knee = amac.iter().position(|&ns| ns <= best * 1.05).unwrap_or(0);
    println!(
        "scalar (Listing 1) {:.1} ns/key; AMAC knee at depth {} ({:.2}x scalar)",
        median[0],
        DEPTHS[knee],
        median[0] / amac[knee]
    );
}
