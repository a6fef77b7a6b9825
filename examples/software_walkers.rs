//! Software walkers on your actual CPU: measure scalar vs group-prefetch
//! vs AMAC probing of a DRAM-resident hash index — the paper's inter-key
//! parallelism insight applied in software. The three engines must find
//! the same matches; a mismatch panics (exit 101).
//!
//! ```text
//! cargo run --release --example software_walkers
//! ```

use std::time::Instant;

use widx_repro::db::hash::HashRecipe;
use widx_repro::db::index::HashIndex;
use widx_repro::soft::{probe_amac, probe_group_prefetch, probe_scalar};
use widx_repro::workloads::datagen;

fn main() {
    let entries = 1 << 21; // ~96 MB materialized: DRAM-resident
    let probe_count = 1 << 16;
    println!("building a {entries}-entry index (~96 MB)...");
    let keys = datagen::unique_shuffled_keys(1, entries);
    let index = HashIndex::build(
        HashRecipe::robust64(),
        entries / 2,
        keys.iter().enumerate().map(|(r, k)| (*k, r as u64)),
    );
    let probes = datagen::uniform_keys(2, probe_count, entries as u64);

    type ProbeFn<'a> = &'a dyn Fn(&mut Vec<(u64, u64)>);
    // Times `f` and returns its rate and its sorted matches.
    let time = |name: &str, f: ProbeFn<'_>| {
        // Warm once, then measure the best of 3.
        let mut out = Vec::with_capacity(probe_count * 2);
        f(&mut out);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            out.clear();
            let t0 = Instant::now();
            f(&mut out);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        let mps = probe_count as f64 / best / 1e6;
        println!("{name:<22} {mps:>7.1} M probes/s  ({} matches)", out.len());
        out.sort_unstable();
        (mps, out)
    };

    let (scalar, want) = time("scalar (Listing 1)", &|out| {
        probe_scalar(&index, &probes, out);
    });
    let (gp, got) = time("group prefetch (G=8)", &|out| {
        probe_group_prefetch(&index, &probes, 8, out);
    });
    assert!(got == want, "group prefetch disagrees with the scalar loop");
    let (amac, got) = time("AMAC (8 in flight)", &|out| {
        probe_amac(&index, &probes, 8, out);
    });
    assert!(got == want, "AMAC disagrees with the scalar loop");

    println!(
        "\ninter-key parallelism speedup on this host: GP {:.2}x, AMAC {:.2}x \
         (the software shadow of the paper's parallel walkers)",
        gp / scalar,
        amac / scalar
    );
}
