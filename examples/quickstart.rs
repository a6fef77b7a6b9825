//! Quickstart: build a hash index, offload a probe batch to Widx, and
//! compare against the out-of-order software baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use widx_repro::accel::config::WidxConfig;
use widx_repro::accel::offload;
use widx_repro::db::hash::HashRecipe;
use widx_repro::db::index::{HashIndex, NodeLayout};
use widx_repro::sim::config::SystemConfig;
use widx_repro::sim::core::run_ooo;
use widx_repro::sim::mem::{MemorySystem, RegionAllocator};
use widx_repro::workloads::{memimg, trace};

fn main() {
    // 1. A table of a million 8-byte keys, indexed with a robust hash.
    let entries = 1 << 17;
    let pairs: Vec<(u64, u64)> = (0..entries as u64).map(|k| (k * 3, k)).collect(); // key -> row id
    let index = HashIndex::build(HashRecipe::robust64(), entries, pairs.iter().copied());
    println!(
        "built index: {} entries, {} buckets",
        index.len(),
        index.bucket_count()
    );

    // 2. Materialize the index + a probe batch into simulated memory.
    let probes: Vec<u64> = (0..4096u64)
        .map(|i| (i * 31) % (3 * entries as u64))
        .collect();
    let sys = SystemConfig::default(); // Table 2 parameters
    let mut mem = MemorySystem::new(sys.clone());
    let mut alloc = RegionAllocator::new();
    let image = memimg::materialize(
        &mut mem,
        &mut alloc,
        index.recipe(),
        index.bucket_count() as u64,
        &pairs,
        &probes,
        NodeLayout::direct8(),
    );
    memimg::warm(&mut mem, &image);

    // 3. Offload to Widx with the paper's 4-walker design point.
    let mut widx_mem = mem.clone();
    let result = offload::offload_probe(&mut widx_mem, &image, &WidxConfig::paper_default());
    println!(
        "Widx: {} tuples, {} matches, {} cycles ({:.1} cycles/tuple)",
        result.stats.tuples,
        result.stats.matches,
        result.stats.total_cycles,
        result.stats.cycles_per_tuple()
    );
    let per = result.stats.walker_cycles_per_tuple();
    println!(
        "walker breakdown per tuple: comp {:.1}, mem {:.1}, tlb {:.1}, idle {:.1}",
        per.comp, per.mem, per.tlb, per.idle
    );

    // 4. The OoO baseline runs the equivalent software loop.
    let t = trace::probe_trace(&mem, &image, &probes);
    let baseline = run_ooo(&sys.ooo, &t, &mut mem, 0);
    println!(
        "OoO baseline: {:.1} cycles/tuple -> Widx speedup {:.2}x",
        baseline.cycles_per_tuple(),
        baseline.cycles_per_tuple() / result.stats.cycles_per_tuple()
    );

    // 5. Results are real bytes — verify against the index oracle.
    let expected_count: usize = probes.iter().map(|p| index.lookup_all(*p).len()).sum();
    assert_eq!(result.matches().len(), expected_count);
    println!(
        "verified {} matches against the software oracle",
        expected_count
    );
}
