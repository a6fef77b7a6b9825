//! The six ablations: design choices the paper argues for, and the
//! Section 7 extensions, each swept on the simulator.

use std::hint::black_box;

use widx_core::btree::offload_btree_probe;
use widx_core::config::WidxConfig;
use widx_core::placement::Placement;
use widx_db::hash::HashRecipe;
use widx_db::index::{BTreeIndex, HashIndex, NodeLayout};
use widx_sim::config::SystemConfig;
use widx_sim::core::run_ooo;
use widx_sim::mem::{MemorySystem, RegionAllocator};
use widx_soft::ScanRange;
use widx_workloads::btree_img::materialize_btree;
use widx_workloads::datagen::{self, Zipf};
use widx_workloads::kernel::{KernelConfig, KernelSize};
use widx_workloads::trace::btree_probe_trace;

use crate::grid::{Engine, Grid, Size, Workload};
use crate::prof::{prof_backend, profile_btree_engines, profile_engines, render_engine_table};
use crate::runner::ProbeSetup;
use crate::table::{f2, pct, Table};

/// Entries of `ablation_btree`'s DRAM-resident tree and of its profiled
/// host index.
const BTREE_ENTRIES: u64 = 400_000;

/// Ablation — decoupled hashing (Figure 3d, the Widx design) vs the
/// coupled design (Figure 3b: walkers hash their own keys), at the
/// run's kernel probe count.
///
/// The paper's Section 1 claim: "decoupling key hashing from list
/// traversal takes the hashing operation off the critical path, which
/// reduces the time per list traversal by 29% on average". The coupled
/// walkers also lose the dispatcher-only fused `XOR-SHF`/`AND-SHF`
/// instructions (Table 1), paying the unfused expansion. It ends with a
/// host-CPU table of each recipe's ns/key through its `eval` kernel and
/// its step fold.
pub fn ablation_dispatcher(size: &Size) {
    let probes_n = size.kernel_probes;
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
            let d = setup.run_widx(&cfg).0.stats.cycles_per_tuple();
            let c = setup.run_coupled(&cfg).0.stats.cycles_per_tuple();
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

/// Ablation — inter-unit queue depth.
///
/// The paper's Section 3.2 model assumes an "infinite queue" between
/// hashing units and walkers, then notes that real designs throttle the
/// dispatcher through finite buffers; the evaluated hardware uses
/// 2-entry queues. This sweep quantifies what depth buys.
pub fn ablation_queue_depth(grid: &mut Grid) {
    println!("== Ablation: walker input-queue depth (4 walkers) ==\n");
    let mut t = Table::new(&["size", "depth 1", "depth 2 (paper)", "depth 4", "depth 8"]);
    for size in KernelSize::ALL {
        let w = Workload::kernel(size, grid.size.kernel_probes);
        let cpts = [1, 2, 4, 8].map(|depth| {
            let cfg = WidxConfig::with_walkers(4).with_queue_depth(depth);
            grid.point(&w, Engine::Widx(cfg)).cpt
        });
        t.row_fmt(&[size.name()], &cpts, f2);
    }
    println!("{}", t.render());
    println!(
        "(cycles per tuple; deeper queues mainly help when walker service \
         times vary — diminishing returns past the paper's 2 entries)"
    );
}

/// Ablation — LLC-side Widx (paper Section 7).
///
/// "The advantages of LLC-side placement include lower LLC access
/// latencies and reduced MSHR pressure. The disadvantages include the
/// need for a dedicated address translation logic \[and\] a dedicated
/// low-latency storage next to Widx to exploit data locality." This
/// sweep measures both placements across the kernel sizes.
pub fn ablation_llc_widx(grid: &mut Grid) {
    println!("== Ablation: core-coupled vs LLC-side Widx (4 walkers) ==\n");
    let mut t = Table::new(&["size", "core-coupled cpt", "LLC-side cpt", "winner"]);
    for size in KernelSize::ALL {
        let w = Workload::kernel(size, grid.size.kernel_probes);
        let c = grid.point(&w, Engine::walkers(4)).cpt;
        let llc = WidxConfig::with_walkers(4).with_placement(Placement::LlcSide);
        let l = grid.point(&w, Engine::Widx(llc)).cpt;
        let winner = if c <= l { "core-coupled" } else { "LLC-side" };
        t.row(&[size.name().into(), f2(c), f2(l), winner.into()]);
    }
    println!("{}", t.render());
    println!(
        "(paper's judgement: \"the balance is in favor of a core-coupled design\" — \
         the L1 locality of small indexes and the shared MMU outweigh the \
         shorter LLC path; LLC-side catches up when nothing fits in the L1)"
    );
}

/// Ablation — dispatcher `TOUCH`-ahead prefetching.
///
/// Table 1 gives every unit the `TOUCH` instruction "to reduce memory
/// time ... by demanding data blocks in advance of their use". This
/// sweep has the dispatcher touch each bucket header right after
/// hashing, so the line is (ideally) in flight before a walker pops the
/// key — trading L1/MSHR pressure for walker stall time.
pub fn ablation_touch(grid: &mut Grid) {
    println!("== Ablation: dispatcher TOUCH-ahead of bucket headers (4 walkers) ==\n");
    let mut t = Table::new(&["size", "no touch cpt", "touch cpt", "change"]);
    for size in KernelSize::ALL {
        let w = Workload::kernel(size, grid.size.kernel_probes);
        let p = grid.point(&w, Engine::walkers(4)).cpt;
        let touch = WidxConfig::with_walkers(4).with_touch_ahead();
        let q = grid.point(&w, Engine::Widx(touch)).cpt;
        t.row(&[size.name().into(), f2(p), f2(q), pct((p - q) / p)]);
    }
    println!("{}", t.render());
    println!(
        "(touch-ahead helps when walkers are memory-bound and queues give \
         the prefetch time to fly; it wastes L1 ports/MSHRs when the \
         index is cache-resident)"
    );
}

/// Ablation — Widx on a B+-tree index (paper Section 7: "Widx can
/// easily be extended to accelerate other index structures, such as
/// balanced trees").
///
/// Compares the OoO baseline descending the tree in software against
/// Widx walkers running the tree-walker program, across fanouts, plus a
/// hash-index reference on the same data.
pub fn ablation_btree(grid: &mut Grid) {
    let probes_n = grid.size.dss_probes;
    println!("== Ablation: B+-tree index traversal on Widx (Section 7 extension) ==\n");
    let mut t = Table::new(&["index", "height", "ooo cpt", "1w", "2w", "4w (speedup)"]);

    for fanout in [8usize, 16] {
        let keys = datagen::unique_shuffled_keys(51, BTREE_ENTRIES as usize);
        let tree = BTreeIndex::build(fanout, keys.iter().enumerate().map(|(r, k)| (*k, r as u64)));
        let probes = datagen::uniform_keys(52, probes_n, BTREE_ENTRIES);

        let mut mem = MemorySystem::new(SystemConfig::default());
        let mut alloc = RegionAllocator::new();
        let image = materialize_btree(&mut mem, &mut alloc, &tree, &probes);

        let trace = btree_probe_trace(&tree, &image, &probes);
        let ooo_cfg = SystemConfig::default().ooo;
        let ooo = run_ooo(&ooo_cfg, &trace, &mut mem.clone(), 0).cycles_per_tuple();
        let s = [1, 2, 4].map(|n| {
            let r = offload_btree_probe(&mut mem.clone(), &image, &WidxConfig::with_walkers(n));
            ooo / r.stats.cycles_per_tuple()
        });
        let label = [&format!("btree f={fanout}"), &tree.height().to_string()];
        t.row_fmt(&label.map(String::as_str), &[ooo, s[0], s[1], s[2]], f2);
    }

    // Hash-index reference on the same scale.
    let (ooo, s) = grid.speedups(&Workload::kernel(KernelSize::Large, probes_n));
    t.row_fmt(&["hash (Large)", "2"], &[ooo, s[0], s[1], s[2]], f2);

    println!("{}", t.render());
    println!(
        "(tree descents are longer pointer chases than hash chains, so \
         parallel walkers pay off on trees too — the paper's Section 7 claim)"
    );
}

/// `ablation_btree`'s live half (`all_experiments --profile`): the
/// software walker engines (scalar / group-prefetch / AMAC) run the same
/// workloads on *this* CPU under `perf-event` counter groups — a probe
/// sweep on the hash reference and a range-scan sweep on the tree —
/// reporting the paper-style per-engine cycle breakdown (IPC, LLC MPKI,
/// stall fraction, effective MLP) next to the simulated speedups.
pub fn btree_engine_profile(probes_n: usize) {
    let (backend, hw, fallback) = prof_backend();
    println!(
        "\n== live per-engine profile (backend {backend}, hw counters {}) ==",
        if hw { "on" } else { "off" }
    );
    if let Some(reason) = fallback {
        println!("(hardware counters unavailable — {reason}; software clock backend)");
    }
    let keys = datagen::unique_shuffled_keys(53, BTREE_ENTRIES as usize);
    let index = HashIndex::build(
        HashRecipe::robust64(),
        BTREE_ENTRIES as usize,
        keys.iter().enumerate().map(|(r, k)| (*k, r as u64)),
    );
    let probes = datagen::uniform_keys(54, probes_n, BTREE_ENTRIES);
    println!("\nhash probes ({probes_n} uniform keys):");
    let table = render_engine_table(&profile_engines(&index, &probes, 8, 16));
    println!("{table}");

    let tree = BTreeIndex::build(16, keys.iter().enumerate().map(|(r, k)| (*k, r as u64)));
    let scans: Vec<ScanRange> = datagen::uniform_keys(55, probes_n / 8, BTREE_ENTRIES)
        .into_iter()
        .map(|lo| ScanRange {
            lo,
            hi: lo.saturating_add(256),
            limit: 128,
            desc: false,
        })
        .collect();
    println!("btree range scans ({} scans, limit 128):", scans.len());
    let table = render_engine_table(&profile_btree_engines(&tree, &scans, 8, 16));
    println!("{table}");
    println!(
        "(soft MLP = walker occupancy / rounds — the AMAC rows should hold \
         the deepest memory-level parallelism on both index shapes)"
    );
}

/// Ablation — probe-key skew on the Large kernel, at the run's kernel
/// probe count.
///
/// The paper's kernel probes are uniform. Real decision-support probe
/// streams are often Zipf-skewed (hot keys), which makes the hot part of
/// the index cache-resident and shifts the bottleneck from memory to the
/// dispatcher — moving a "Large" index's behaviour toward the paper's
/// "Small" regime. This sweep quantifies that shift.
pub fn ablation_skew(size: &Size) {
    let probes_n = size.kernel_probes;
    let cfg = KernelConfig::new(KernelSize::Large);
    let recipe = cfg.recipe();
    let (pairs, _) = cfg.build();
    let tuples = KernelSize::Large.tuples();

    println!("== Ablation: probe-key skew on the Large kernel (4 walkers) ==\n");
    let mut t = Table::new(&[
        "distribution",
        "widx cpt",
        "mem/t",
        "idle/t",
        "ooo cpt",
        "speedup",
    ]);
    for (name, theta) in [
        ("uniform", None),
        ("zipf 0.75", Some(0.75)),
        ("zipf 0.99", Some(0.99)),
    ] {
        let probes = match theta {
            None => datagen::uniform_keys(7, probes_n, tuples as u64),
            Some(theta) => {
                let z = Zipf::new(tuples, theta);
                let mut rng = datagen::rng(7);
                z.sample_n(&mut rng, probes_n)
            }
        };
        let setup = ProbeSetup::new(&recipe, cfg.bucket_count(), &pairs, probes, cfg.layout());
        let ooo = setup.run_ooo().cpt;
        let stats = setup.run_widx(&WidxConfig::with_walkers(4)).0.stats;
        let (cpt, per) = (stats.cycles_per_tuple(), stats.walker_cycles_per_tuple());
        t.row_fmt(&[name], &[cpt, per.mem, per.idle, ooo, ooo / cpt], f2);
    }
    println!("{}", t.render());
    println!(
        "(skew shrinks the hot working set: walker Mem cycles fall and Idle \
         rises as the dispatcher becomes the bottleneck — the DRAM-resident \
         index behaves like the paper's Small configuration)"
    );
}
