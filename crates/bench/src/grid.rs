//! The measured grid every figure reads: `(workload, engine) → point`.
//! Each workload's [`ProbeSetup`] is built the first time a harness asks
//! for a point on it, and each point is simulated once per process.

use widx_core::config::WidxConfig;
use widx_sim::stats::BreakdownPer;
use widx_workloads::kernel::{KernelConfig, KernelSize};
use widx_workloads::profiles::QueryProfile;

use crate::runner::ProbeSetup;

/// How large a run is: `quick` (the golden's size) or full.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Probes per hash-join kernel sample (Figure 8, kernel ablations).
    pub kernel_probes: usize,
    /// Probes per DSS query (Figures 9–11, `ablation_btree`).
    pub dss_probes: usize,
    /// Scale factor on Figure 2's operator row counts.
    pub fig2_scale: f64,
}

impl Size {
    /// The smoke run CI diffs against the golden.
    pub const QUICK: Size = Size {
        kernel_probes: 2048,
        dss_probes: 2048,
        fig2_scale: 0.05,
    };
    /// The full run.
    pub const FULL: Size = Size {
        kernel_probes: KernelConfig::DEFAULT_PROBES,
        dss_probes: QueryProfile::DEFAULT_PROBES,
        fig2_scale: 1.0,
    };
}

/// A probe workload at its probe count.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Workload {
    /// A hash-join kernel (Figure 8).
    Kernel(KernelConfig),
    /// A DSS query profile (Figures 9–11).
    Query(QueryProfile),
}

impl Workload {
    /// The kernel of `size` at `probes` probes.
    #[must_use]
    pub(crate) fn kernel(size: KernelSize, probes: usize) -> Workload {
        Workload::Kernel(KernelConfig::new(size).with_probes(probes))
    }

    /// The query `q` at `probes` probes.
    #[must_use]
    pub(crate) fn query(q: &QueryProfile, probes: usize) -> Workload {
        Workload::Query(q.clone().with_probes(probes))
    }
}

/// The engine a point is measured on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Engine {
    /// The OoO baseline core.
    Ooo,
    /// The in-order comparison core.
    InOrder,
    /// Widx at a design point.
    Widx(WidxConfig),
}

impl Engine {
    /// Widx with `walkers` walkers and otherwise the paper's defaults.
    #[must_use]
    pub(crate) fn walkers(walkers: usize) -> Engine {
        Engine::Widx(WidxConfig::with_walkers(walkers))
    }
}

/// One measured point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Point {
    /// Total cycles per tuple.
    pub(crate) cpt: f64,
    /// The mean walker's cycle breakdown per tuple (zero on the cores).
    pub(crate) walker: BreakdownPer,
}

/// Every setup and point measured so far in this process.
pub struct Grid {
    /// The run's size.
    pub size: Size,
    pub(crate) setups: Vec<(Workload, ProbeSetup)>,
    pub(crate) points: Vec<(usize, Engine, Point)>,
}

impl Grid {
    /// An empty grid for a run of `size`.
    #[must_use]
    pub fn new(size: Size) -> Grid {
        Grid {
            size,
            setups: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Measures `engine` on `workload`, building and simulating only what
    /// no earlier call did.
    pub(crate) fn point(&mut self, workload: &Workload, engine: Engine) -> Point {
        let w = match self.setups.iter().position(|(w, _)| w == workload) {
            Some(w) => w,
            None => {
                let setup = match workload {
                    Workload::Kernel(cfg) => ProbeSetup::kernel(cfg),
                    Workload::Query(q) => ProbeSetup::profile(q),
                };
                self.setups.push((workload.clone(), setup));
                self.setups.len() - 1
            }
        };
        if let Some((_, _, p)) = self.points.iter().find(|(i, e, _)| *i == w && *e == engine) {
            return *p;
        }
        let setup = &self.setups[w].1;
        let (cpt, walker) = match &engine {
            Engine::Ooo => (setup.run_ooo().cpt, BreakdownPer::default()),
            Engine::InOrder => (setup.run_inorder().cpt, BreakdownPer::default()),
            Engine::Widx(config) => {
                let stats = setup.run_widx(config).0.stats;
                (stats.cycles_per_tuple(), stats.walker_cycles_per_tuple())
            }
        };
        let point = Point { cpt, walker };
        self.points.push((w, engine, point));
        point
    }

    /// OoO cycles per tuple on `workload`, and Widx's speedup over it at
    /// 1, 2 and 4 walkers.
    pub(crate) fn speedups(&mut self, workload: &Workload) -> (f64, [f64; 3]) {
        let ooo = self.point(workload, Engine::Ooo).cpt;
        let widx = [1, 2, 4].map(|n| self.point(workload, Engine::walkers(n)).cpt);
        (ooo, widx.map(|cpt| ooo / cpt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{fig10_speedup, fig9_dss};

    #[test]
    fn dss_figures_share_one_setup_per_query() {
        let mut grid = Grid::new(Size {
            dss_probes: 64,
            ..Size::QUICK
        });
        fig9_dss(&mut grid);
        fig10_speedup(&mut grid);
        assert_eq!(grid.setups.len(), 12);
        // Widx at 1/2/4 walkers from Figure 9, plus OoO from Figure 10.
        assert_eq!(grid.points.len(), 12 * 4);
    }
}
