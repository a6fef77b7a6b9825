//! Shared experiment runners: set up a workload once, then measure the
//! OoO baseline, the in-order core, and Widx design points on clones of
//! the same warmed memory image.

use widx_core::config::WidxConfig;
use widx_core::offload::{self, OffloadResult};
use widx_db::hash::HashRecipe;
use widx_db::index::NodeLayout;
use widx_sim::config::SystemConfig;
use widx_sim::core::{run_inorder, run_ooo, CoreRunResult};
use widx_sim::mem::{MemorySystem, RegionAllocator};
use widx_sim::stats::MemStats;
use widx_workloads::kernel::KernelConfig;
use widx_workloads::memimg::{self, IndexImage};
use widx_workloads::profiles::QueryProfile;
use widx_workloads::trace::probe_trace;

/// A fully materialized probe workload, ready to measure on any engine.
pub struct ProbeSetup {
    /// System parameters (Table 2).
    pub sys: SystemConfig,
    /// Cold memory with the workload image materialized (cloned and
    /// warmed per measurement).
    pub mem: MemorySystem,
    /// The materialized image.
    pub image: IndexImage,
    /// The probe stream.
    pub probes: Vec<u64>,
}

/// Measurement of one engine on a [`ProbeSetup`].
#[derive(Clone, Debug)]
pub struct Measured {
    /// Total cycles for the probe stream.
    pub cycles: u64,
    /// Cycles per tuple.
    pub cpt: f64,
    /// Memory-system counters for the run.
    pub mem_stats: MemStats,
}

impl ProbeSetup {
    /// Materializes the build side `pairs`, placed by `recipe` into
    /// `bucket_count` buckets (a power of two), and `probes` into a cold
    /// memory system.
    #[must_use]
    pub fn new(
        recipe: &HashRecipe,
        bucket_count: u64,
        pairs: &[(u64, u64)],
        probes: Vec<u64>,
        layout: NodeLayout,
    ) -> ProbeSetup {
        let sys = SystemConfig::default();
        let mut mem = MemorySystem::new(sys.clone());
        let mut alloc = RegionAllocator::new();
        let image = memimg::materialize(
            &mut mem,
            &mut alloc,
            recipe,
            bucket_count,
            pairs,
            &probes,
            layout,
        );
        ProbeSetup {
            sys,
            mem,
            image,
            probes,
        }
    }

    /// Builds the setup for a hash-join kernel configuration.
    #[must_use]
    pub fn kernel(cfg: &KernelConfig) -> ProbeSetup {
        let recipe = cfg.recipe();
        let (pairs, probes) = cfg.build();
        ProbeSetup::new(&recipe, cfg.bucket_count(), &pairs, probes, cfg.layout())
    }

    /// Builds the setup for a DSS query profile.
    #[must_use]
    pub fn profile(q: &QueryProfile) -> ProbeSetup {
        let recipe = q.recipe.recipe();
        let (pairs, probes) = q.build();
        ProbeSetup::new(&recipe, q.bucket_count(), &pairs, probes, q.layout)
    }

    fn warmed_mem(&self) -> MemorySystem {
        let mut mem = self.mem.clone();
        memimg::warm(&mut mem, &self.image);
        mem.reset_stats();
        mem
    }

    /// Runs Widx with `config`, returning the offload result and the
    /// memory counters.
    #[must_use]
    pub fn run_widx(&self, config: &WidxConfig) -> (OffloadResult, MemStats) {
        let mut mem = self.warmed_mem();
        let r = offload::offload_probe(&mut mem, &self.image, config);
        let stats = mem.stats();
        (r, stats)
    }

    /// Runs the OoO baseline core over the software probe trace.
    #[must_use]
    pub fn run_ooo(&self) -> Measured {
        let trace = probe_trace(&self.mem, &self.image, &self.probes);
        let mut mem = self.warmed_mem();
        let r = run_ooo(&self.sys.ooo, &trace, &mut mem, 0);
        measured(r, mem.stats())
    }

    /// Runs the in-order comparison core over the software probe trace.
    #[must_use]
    pub fn run_inorder(&self) -> Measured {
        let trace = probe_trace(&self.mem, &self.image, &self.probes);
        let mut mem = self.warmed_mem();
        let r = run_inorder(&self.sys.inorder, &trace, &mut mem, 0);
        measured(r, mem.stats())
    }
}

fn measured(r: CoreRunResult, mem_stats: MemStats) -> Measured {
    Measured {
        cycles: r.cycles,
        cpt: r.cycles_per_tuple(),
        mem_stats,
    }
}

/// Geometric mean of a series (1.0 for an empty series).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use widx_workloads::kernel::KernelSize;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn small_kernel_round_trip() {
        let cfg = KernelConfig::new(KernelSize::Small).with_probes(256);
        let setup = ProbeSetup::kernel(&cfg);
        let (widx, _) = setup.run_widx(&WidxConfig::with_walkers(2));
        assert_eq!(widx.stats.tuples, 256);
        // Every kernel probe matches exactly once.
        assert_eq!(widx.stats.matches, 256);
        let ooo = setup.run_ooo();
        assert!(ooo.cycles > 0);
    }
}
