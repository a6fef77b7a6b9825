//! Widx configuration: unit counts, queue depths, and the memory-mapped
//! configuration registers of the paper's Section 4.3.

use widx_sim::mem::VAddr;
use widx_workloads::btree_img::BTreeImage;
use widx_workloads::memimg::IndexImage;

use crate::placement::Placement;
use crate::POISON_KEY;

/// Accelerator configuration.
///
/// The paper's evaluated design points are 1, 2, and 4 walkers, always
/// with one shared dispatcher and one result producer, and "2-entry
/// queues at the input and output of each walker unit" (Section 5).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WidxConfig {
    /// Number of walker units (the paper evaluates 1, 2, 4; its
    /// Section 3.2 model bounds useful counts at ~4).
    pub walkers: usize,
    /// Per-walker input queue depth in pairs.
    pub queue_depth: usize,
    /// Producer input queue depth in pairs.
    pub producer_queue_depth: usize,
    /// Whether the dispatcher issues a `TOUCH` for the bucket header
    /// before handing the key to a walker (prefetch ablation; off by
    /// default, matching the paper's described design).
    pub touch_ahead: bool,
    /// Where Widx sits in the hierarchy (core-coupled by default; the
    /// Section 7 LLC-side ablation is available via
    /// [`with_placement`](WidxConfig::with_placement)).
    pub placement: Placement,
}

impl WidxConfig {
    /// The paper's default design point: 4 walkers, 2-entry queues.
    #[must_use]
    pub fn paper_default() -> WidxConfig {
        WidxConfig::with_walkers(4)
    }

    /// A design point with `walkers` walkers and 2-entry queues.
    ///
    /// # Panics
    ///
    /// Panics if `walkers` is zero.
    #[must_use]
    pub fn with_walkers(walkers: usize) -> WidxConfig {
        assert!(walkers > 0, "at least one walker is required");
        WidxConfig {
            walkers,
            queue_depth: 2,
            producer_queue_depth: 2 * walkers,
            touch_ahead: false,
            placement: Placement::CoreCoupled,
        }
    }

    /// Overrides the placement (LLC-side ablation).
    #[must_use]
    pub fn with_placement(mut self, placement: Placement) -> WidxConfig {
        self.placement = placement;
        self
    }

    /// Overrides the per-walker queue depth (queue-depth ablation).
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> WidxConfig {
        assert!(depth > 0, "queue depth must be positive");
        self.queue_depth = depth;
        self.producer_queue_depth = self.producer_queue_depth.max(depth);
        self
    }

    /// Enables dispatcher touch-ahead (prefetch ablation).
    #[must_use]
    pub fn with_touch_ahead(mut self) -> WidxConfig {
        self.touch_ahead = true;
        self
    }

    /// Total unit count (dispatcher + walkers + producer) — the paper's
    /// area/power numbers are quoted for 6 units (4 walkers).
    #[must_use]
    pub fn unit_count(&self) -> usize {
        self.walkers + 2
    }
}

impl Default for WidxConfig {
    fn default() -> WidxConfig {
        WidxConfig::paper_default()
    }
}

/// The memory-mapped configuration registers the host writes before
/// signalling Widx to begin (paper Section 4.3): "base address and
/// length of the input table, base address of the hash table, starting
/// address of the results region, and a NULL value identifier". The
/// programs are generated from them: the dispatcher reads the input
/// table, the hash walk or tree descent starts at `hash_table_base`, the
/// producer stores from `results_base`, and every unit compares against
/// `null_id`. The offload routine checks the input length and reads the
/// matches back from the results region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigRegisters {
    /// Base of the probe-key input table.
    pub input_base: VAddr,
    /// Number of input keys.
    pub input_len: u64,
    /// Base of the index: the hash table's bucket array, or the B+-tree
    /// root.
    pub hash_table_base: VAddr,
    /// Base of the results region.
    pub results_base: VAddr,
    /// NULL identifier (doubles as the poison key).
    pub null_id: u64,
}

impl ConfigRegisters {
    /// The registers for probing a hash `image` with its own probe
    /// column into its own output region.
    #[must_use]
    pub fn hash_probe(image: &IndexImage) -> ConfigRegisters {
        ConfigRegisters {
            input_base: image.input_base,
            input_len: image.input_count,
            hash_table_base: image.bucket_base,
            results_base: image.output_base,
            null_id: POISON_KEY,
        }
    }

    /// The registers for probing a B+-tree `image` with its own probe
    /// column into its own output region.
    #[must_use]
    pub fn btree_probe(image: &BTreeImage) -> ConfigRegisters {
        ConfigRegisters {
            input_base: image.input_base,
            input_len: image.input_count,
            hash_table_base: image.root_addr,
            results_base: image.output_base,
            null_id: POISON_KEY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_four_walkers() {
        let c = WidxConfig::paper_default();
        assert_eq!(c.walkers, 4);
        assert_eq!(c.queue_depth, 2);
        assert_eq!(c.unit_count(), 6);
        assert!(!c.touch_ahead);
    }

    #[test]
    fn builders() {
        let c = WidxConfig::with_walkers(2)
            .with_queue_depth(8)
            .with_touch_ahead();
        assert_eq!(c.walkers, 2);
        assert_eq!(c.queue_depth, 8);
        assert!(c.touch_ahead);
        assert!(c.producer_queue_depth >= 8);
    }

    #[test]
    #[should_panic(expected = "at least one walker")]
    fn zero_walkers_rejected() {
        let _ = WidxConfig::with_walkers(0);
    }
}
