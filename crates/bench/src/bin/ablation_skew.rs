//! Ablation — probe-key skew.
//!
//! The paper's kernel probes are uniform. Real decision-support probe
//! streams are often Zipf-skewed (hot keys), which makes the hot part of
//! the index cache-resident and shifts the bottleneck from memory to the
//! dispatcher — moving a "Large" index's behaviour toward the paper's
//! "Small" regime. This sweep quantifies that shift.
//!
//! Usage: `ablation_skew [probes]`.

use widx_bench::runner::ProbeSetup;
use widx_bench::table::{f2, Table};
use widx_core::config::WidxConfig;
use widx_workloads::datagen::{self, Zipf};
use widx_workloads::kernel::{KernelConfig, KernelSize};

fn main() {
    let probes_n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8192);
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
        let ooo = setup.run_ooo();
        let (r, _) = setup.run_widx(&WidxConfig::with_walkers(4));
        let per = r.stats.walker_cycles_per_tuple();
        t.row(&[
            name.into(),
            f2(r.stats.cycles_per_tuple()),
            f2(per.mem),
            f2(per.idle),
            f2(ooo.cpt),
            f2(ooo.cpt / r.stats.cycles_per_tuple()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(skew shrinks the hot working set: walker Mem cycles fall and Idle \
         rises as the dispatcher becomes the bottleneck — the DRAM-resident \
         index behaves like the paper's Small configuration)"
    );
}
