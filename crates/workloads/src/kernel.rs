//! The hash-join kernel workloads (paper Section 5).
//!
//! The paper configures the "no partitioning" kernel of Balkesen et al.
//! with 4-byte keys and payloads, up to two nodes per bucket, and three
//! index sizes: Small (4 K tuples / 32 KB raw), Medium (512 K / 4 MB),
//! Large (128 M / 1 GB), probed by 128 M uniform keys.
//!
//! # Scaling
//!
//! Cycle simulation of 128 M probes is infeasible, so the reproduction
//! preserves the *cache-residency relationships* rather than absolute
//! sizes, using the materialized layout's 32-byte headers:
//!
//! | Config | Paper | Here | Residency (32 KB L1 / 4 MB LLC) |
//! |---|---|---|---|
//! | Small  | 32 KB | 1 K tuples → 32 KB | L1-resident |
//! | Medium | 4 MB  | 128 K tuples → 4 MB | ≈ LLC-sized |
//! | Large  | 1 GB  | 2 M tuples → 64 MB | far exceeds the LLC |
//!
//! The probe stream is a SMARTS-style sample (default 16 K keys) of the
//! paper's 128 M-key outer relation; harnesses report confidence
//! intervals over windows of it.

use widx_db::hash::HashRecipe;
use widx_db::index::NodeLayout;

use crate::datagen;

/// The kernel's three index-size configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelSize {
    /// L1-resident index (paper: 4 K tuples, 32 KB).
    Small,
    /// LLC-sized index (paper: 512 K tuples, 4 MB).
    Medium,
    /// DRAM-resident index (paper: 128 M tuples, 1 GB).
    Large,
}

impl KernelSize {
    /// All sizes, smallest first.
    pub const ALL: [KernelSize; 3] = [KernelSize::Small, KernelSize::Medium, KernelSize::Large];

    /// Display name matching the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelSize::Small => "Small",
            KernelSize::Medium => "Medium",
            KernelSize::Large => "Large",
        }
    }

    /// Build-side tuple count at reproduction scale.
    #[must_use]
    pub fn tuples(self) -> usize {
        match self {
            KernelSize::Small => 1 << 10,
            KernelSize::Medium => 1 << 17,
            KernelSize::Large => 1 << 21,
        }
    }
}

/// A fully specified kernel workload.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelConfig {
    /// Which index size.
    pub size: KernelSize,
    /// Number of sampled probe keys.
    pub probes: usize,
    /// Workload seed.
    pub seed: u64,
}

impl KernelConfig {
    /// Default probe-sample size.
    pub const DEFAULT_PROBES: usize = 16 * 1024;

    /// Creates the standard configuration for `size`.
    #[must_use]
    pub fn new(size: KernelSize) -> KernelConfig {
        KernelConfig {
            size,
            probes: Self::DEFAULT_PROBES,
            seed: 0x5EED + size.tuples() as u64,
        }
    }

    /// Overrides the probe-sample size (for quick tests).
    #[must_use]
    pub fn with_probes(mut self, probes: usize) -> KernelConfig {
        self.probes = probes;
        self
    }

    /// The kernel's physical layout: 4-byte direct keys.
    #[must_use]
    pub fn layout(&self) -> NodeLayout {
        NodeLayout::kernel4()
    }

    /// The kernel's hash: the trivial masked-XOR of Listing 1 (the paper
    /// notes the kernel "implements an oversimplified hash function").
    #[must_use]
    pub fn recipe(&self) -> HashRecipe {
        HashRecipe::trivial()
    }

    /// Buckets in the kernel's index: half the tuple count, rounded up to
    /// a power of two, giving exactly the paper's "up to two nodes per
    /// bucket" occupancy (a header node plus one chained node).
    #[must_use]
    pub fn bucket_count(&self) -> u64 {
        (self.size.tuples() / 2).max(1).next_power_of_two() as u64
    }

    /// Builds the `(key, row)` pairs in input order and the sampled probe
    /// stream.
    ///
    /// Build keys are the dense set `0..tuples` (every probe can match);
    /// probes are uniform over the key space, like the paper's uniform
    /// outer relation.
    #[must_use]
    pub fn build(&self) -> (Vec<(u64, u64)>, Vec<u64>) {
        let tuples = self.size.tuples();
        let pairs: Vec<(u64, u64)> = datagen::unique_shuffled_keys(self.seed, tuples)
            .into_iter()
            .zip(0..)
            .collect();
        let probes = datagen::uniform_keys(self.seed ^ 0xABCD, self.probes, tuples as u64);
        (pairs, probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use widx_db::index::HashIndex;

    #[test]
    fn sizes_scale() {
        assert!(KernelSize::Small.tuples() < KernelSize::Medium.tuples());
        assert!(KernelSize::Medium.tuples() < KernelSize::Large.tuples());
        // Small bucket array fits L1 (32 KB), Large far exceeds LLC.
        let header = NodeLayout::HEADER_STRIDE;
        assert!(KernelSize::Small.tuples() * header <= 32 * 1024);
        assert!(KernelSize::Large.tuples() * header >= 16 * 4 * 1024 * 1024);
    }

    /// The logical index over the kernel's build side.
    fn index(cfg: &KernelConfig) -> (HashIndex, Vec<u64>) {
        let (pairs, probes) = cfg.build();
        let index = HashIndex::build(cfg.recipe(), cfg.bucket_count() as usize, pairs);
        assert_eq!(index.bucket_count() as u64, cfg.bucket_count());
        (index, probes)
    }

    #[test]
    fn build_produces_probeable_index() {
        let cfg = KernelConfig::new(KernelSize::Small).with_probes(100);
        let (index, probes) = index(&cfg);
        assert_eq!(index.len(), KernelSize::Small.tuples());
        assert_eq!(probes.len(), 100);
        // All probes fall in the key space and hence match exactly once.
        for p in &probes {
            assert_eq!(index.lookup_all(*p).len(), 1);
        }
    }

    #[test]
    fn bucket_occupancy_matches_paper() {
        let (index, _) = index(&KernelConfig::new(KernelSize::Small));
        let stats = index.stats();
        // Dense keys over half as many buckets: exactly two nodes per
        // bucket, the paper's kernel occupancy.
        assert!(
            (stats.mean_chain - 2.0).abs() < 0.5,
            "mean chain {}",
            stats.mean_chain
        );
        assert!(stats.max_chain <= 2, "max chain {}", stats.max_chain);
    }

    #[test]
    fn deterministic() {
        let a = KernelConfig::new(KernelSize::Small)
            .with_probes(64)
            .build()
            .1;
        let b = KernelConfig::new(KernelSize::Small)
            .with_probes(64)
            .build()
            .1;
        assert_eq!(a, b);
    }
}
