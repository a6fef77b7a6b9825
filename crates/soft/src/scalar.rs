//! The scalar schedule (paper Listing 1): start one unit, visit its
//! nodes to the end, then move to the next unit — every node miss
//! stalls the core.

use widx_db::index::HashIndex;
use widx_obs::WalkCounters;

use crate::{Match, Step};

/// Walks `units` one at a time, each to the end, never prefetching;
/// unit `i` emits under tag `i`. One unit is in flight at a time, so
/// `rounds == occupancy == nodes` (soft MLP 1.0) and `prefetches == 0`
/// — the node-visit count is the cross-engine parity invariant the
/// interleaved schedules are tested against.
pub fn walk_scalar<S: Step, F: FnMut(u32, u64, u64)>(
    index: &S,
    units: &[S::Unit],
    emit: &mut F,
) -> WalkCounters {
    let mut counters = WalkCounters::default();
    for (tag, &unit) in (0..).zip(units) {
        let mut cursor = index.start(tag, unit);
        while let Some(at) = cursor {
            cursor = index.visit(at, &mut counters, emit);
        }
    }
    counters.rounds = counters.nodes;
    counters.occupancy = counters.nodes;
    counters
}

/// Probes `keys` one at a time, appending every `(key, payload)` match
/// to `out`: [`walk_scalar`] over the hash index.
pub fn probe_scalar(index: &HashIndex, keys: &[u64], out: &mut Vec<Match>) -> WalkCounters {
    walk_scalar(index, keys, &mut |_, key, payload| out.push((key, payload)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use widx_db::hash::HashRecipe;

    #[test]
    fn finds_all_matches() {
        let index = HashIndex::build(
            HashRecipe::robust64(),
            32,
            [(1u64, 10u64), (2, 20), (1, 11)],
        );
        let mut out = Vec::new();
        let counters = probe_scalar(&index, &[1, 2, 3], &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![(1, 10), (1, 11), (2, 20)]);
        assert!(counters.nodes >= 3, "every probe visits its header");
        assert_eq!(
            counters.rounds, counters.nodes,
            "serial: one visit per round"
        );
        assert_eq!(counters.occupancy, counters.nodes, "serial MLP is 1.0");
        assert_eq!(counters.prefetches, 0, "the baseline never prefetches");
    }

    #[test]
    fn empty_inputs() {
        let index = HashIndex::build(HashRecipe::robust64(), 8, std::iter::empty());
        let mut out = Vec::new();
        assert!(probe_scalar(&index, &[], &mut out).is_zero());
        let counters = probe_scalar(&index, &[42], &mut out);
        assert!(out.is_empty());
        assert_eq!(counters.nodes, 1, "a missing key still visits its header");
        assert_eq!(counters.max_chain, 1);
    }
}
