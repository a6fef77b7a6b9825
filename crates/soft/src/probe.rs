//! The hash-index [`Step`]: hash the key to its bucket, then visit the
//! bucket header and each chain node in turn, one node per visit.

use widx_db::index::{HashIndex, NONE};
use widx_obs::WalkCounters;

use crate::prefetch::prefetch_lines;
use crate::Step;

/// A hash probe in flight: its key and tag, and the chain node it
/// visits next.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    key: u64,
    tag: u32,
    /// Chain position of the next node: 1 is bucket header `at`, a
    /// deeper position is overflow node `at`.
    depth: u32,
    at: usize,
}

// `inline(always)`: the serving tier runs this step from another crate,
// where a call per node visit cost ~25 % of `join_dram`'s CPU per key.
impl Step for HashIndex {
    type Unit = u64;
    type Cursor = Probe;

    #[inline(always)]
    fn start(&self, tag: u32, key: u64) -> Option<Probe> {
        let at = self.recipe().bucket_of(key, self.buckets().len() as u64) as usize;
        Some(Probe {
            key,
            tag,
            depth: 1,
            at,
        })
    }

    #[inline(always)]
    fn visit<F: FnMut(u32, u64, u64)>(
        &self,
        probe: Probe,
        counters: &mut WalkCounters,
        emit: &mut F,
    ) -> Option<Probe> {
        counters.nodes += 1;
        counters.max_chain = counters.max_chain.max(u64::from(probe.depth));
        let (key, payload, next) = if probe.depth == 1 {
            let b = &self.buckets()[probe.at];
            if b.count == 0 {
                return None;
            }
            (b.key, b.payload, b.next)
        } else {
            let n = &self.nodes()[probe.at];
            (n.key, n.payload, n.next)
        };
        if key == probe.key {
            emit(probe.tag, key, payload);
        }
        (next != NONE).then_some(Probe {
            depth: probe.depth + 1,
            at: next as usize,
            ..probe
        })
    }

    #[inline(always)]
    fn prefetch(&self, probe: &Probe) -> bool {
        // Both lines of a record that straddles two: a demand miss on
        // the second would stall every probe in the ring.
        if probe.depth == 1 {
            prefetch_lines(&self.buckets()[probe.at], 1);
        } else {
            prefetch_lines(&self.nodes()[probe.at], 1);
        }
        true
    }
}
