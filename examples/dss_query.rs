//! Run one DSS query's indexing phase on every engine: the OoO and
//! in-order cores, and Widx with 1, 2, and 4 walkers.
//!
//! ```text
//! cargo run --release --example dss_query [qry20]
//! ```

use widx_repro::accel::config::WidxConfig;
use widx_repro::accel::offload;
use widx_repro::sim::config::SystemConfig;
use widx_repro::sim::core::{run_inorder, run_ooo};
use widx_repro::sim::mem::{MemorySystem, RegionAllocator};
use widx_repro::workloads::profiles::QueryProfile;
use widx_repro::workloads::{memimg, trace};

fn main() {
    let which = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "qry20".to_string());
    let q = QueryProfile::all()
        .into_iter()
        .find(|q| q.name == which)
        .unwrap_or_else(|| panic!("unknown query `{which}`; try qry2..qry82"))
        .with_probes(4096);
    println!(
        "{} ({}): {} entries (~{} KB index), {} probes, {} hash, indexing = {:.0}% of query time",
        q.name,
        q.suite.name(),
        q.entries,
        q.index_bytes() / 1024,
        q.probes,
        match q.recipe {
            widx_repro::workloads::profiles::RecipeKind::Robust => "robust64",
            widx_repro::workloads::profiles::RecipeKind::Heavy => "heavy128",
        },
        q.index_fraction * 100.0
    );

    let (pairs, probes) = q.build();
    let sys = SystemConfig::default();
    let mut mem = MemorySystem::new(sys.clone());
    let mut alloc = RegionAllocator::new();
    let image = memimg::materialize(
        &mut mem,
        &mut alloc,
        &q.recipe.recipe(),
        q.bucket_count(),
        &pairs,
        &probes,
        q.layout,
    );
    memimg::warm(&mut mem, &image);

    let t = trace::probe_trace(&mem, &image, &probes);
    let ooo = run_ooo(&sys.ooo, &t, &mut mem.clone(), 0);
    let ino = run_inorder(&sys.inorder, &t, &mut mem.clone(), 0);
    println!(
        "\nOoO baseline : {:>8.1} cycles/tuple",
        ooo.cycles_per_tuple()
    );
    println!(
        "in-order     : {:>8.1} cycles/tuple",
        ino.cycles_per_tuple()
    );

    for walkers in [1usize, 2, 4] {
        let mut m = mem.clone();
        let r = offload::offload_probe(&mut m, &image, &WidxConfig::with_walkers(walkers));
        let per = r.stats.walker_cycles_per_tuple();
        println!(
            "Widx {walkers}w      : {:>8.1} cycles/tuple ({:.2}x vs OoO)  \
             [comp {:.1} | mem {:.1} | tlb {:.1} | idle {:.1}]",
            r.stats.cycles_per_tuple(),
            ooo.cycles_per_tuple() / r.stats.cycles_per_tuple(),
            per.comp,
            per.mem,
            per.tlb,
            per.idle
        );
    }
}
