//! Ablation — LLC-side Widx (paper Section 7).
//!
//! "The advantages of LLC-side placement include lower LLC access
//! latencies and reduced MSHR pressure. The disadvantages include the
//! need for a dedicated address translation logic \[and\] a dedicated
//! low-latency storage next to Widx to exploit data locality." This
//! sweep measures both placements across the kernel sizes.
//!
//! Usage: `ablation_llc_widx [probes]`.

use widx_bench::runner::ProbeSetup;
use widx_bench::table::{f2, Table};
use widx_core::config::WidxConfig;
use widx_core::placement::Placement;
use widx_workloads::kernel::{KernelConfig, KernelSize};

fn main() {
    let probes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8192);
    println!("== Ablation: core-coupled vs LLC-side Widx (4 walkers) ==\n");
    let mut t = Table::new(&["size", "core-coupled cpt", "LLC-side cpt", "winner"]);
    for size in KernelSize::ALL {
        let setup = ProbeSetup::kernel(&KernelConfig::new(size).with_probes(probes));
        let (core, _) = setup.run_widx(&WidxConfig::with_walkers(4));
        let (llc, _) =
            setup.run_widx(&WidxConfig::with_walkers(4).with_placement(Placement::LlcSide));
        let c = core.stats.cycles_per_tuple();
        let l = llc.stats.cycles_per_tuple();
        t.row(&[
            size.name().into(),
            f2(c),
            f2(l),
            if c <= l {
                "core-coupled".into()
            } else {
                "LLC-side".into()
            },
        ]);
    }
    println!("{}", t.render());
    println!(
        "(paper's judgement: \"the balance is in favor of a core-coupled design\" — \
         the L1 locality of small indexes and the shared MMU outweigh the \
         shorter LLC path; LLC-side catches up when nothing fits in the L1)"
    );
}
