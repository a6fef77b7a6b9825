//! The group-prefetch schedule: stage-synchronized batches.
//!
//! Chen et al.'s group prefetching (the paper's reference \[5\]) splits
//! the walk into stages and runs each stage across a whole group of
//! units before advancing, issuing the next stage's prefetches at the
//! end of the current one. Simpler control flow than AMAC, but stalls
//! when walk lengths diverge within a group — the "lock-step" weakness
//! the paper attributes to vector-style approaches.

use widx_db::index::HashIndex;
use widx_obs::WalkCounters;

use crate::{Match, Ring, Step};

/// Walks `units` in groups of `group`; unit `i` emits under tag `i`.
/// Each group starts together, prefetching every first node, then
/// advances in lock-step passes — every live cursor visits one node and
/// prefetches its next — and the next group starts only once the whole
/// group is done: a [`Ring`] of `group` slots, drained at every group
/// boundary. Each pass counts one round with its live cursor count as
/// occupancy, so `occupancy ÷ rounds` reads the group's mean in-flight
/// width.
///
/// # Panics
///
/// Panics if `group` is zero.
pub(crate) fn walk_group<S: Step, F: FnMut(u32, u64, u64)>(
    index: &S,
    units: &[S::Unit],
    group: usize,
    emit: &mut F,
) -> WalkCounters {
    assert!(group > 0, "group size must be positive");
    let mut ring = Ring::new(index, group);
    for (base, chunk) in (0..).step_by(group).zip(units.chunks(group)) {
        ring.walk((base..).zip(chunk.iter().copied()), emit);
    }
    ring.take_counters()
}

/// Probes `keys` in groups of `group` keys, appending matches to `out`:
/// the group schedule over the hash index.
///
/// # Panics
///
/// Panics if `group` is zero.
pub fn probe_group_prefetch(
    index: &HashIndex,
    keys: &[u64],
    group: usize,
    out: &mut Vec<Match>,
) -> WalkCounters {
    walk_group(index, keys, group, &mut |_, key, payload| {
        out.push((key, payload))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe_scalar;
    use widx_db::hash::HashRecipe;

    #[test]
    fn equivalent_to_scalar() {
        let pairs: Vec<(u64, u64)> = (0..300).map(|k| (k % 70, k)).collect();
        let index = HashIndex::build(HashRecipe::robust64(), 32, pairs);
        let probes: Vec<u64> = (0..150).collect();
        let mut scalar = Vec::new();
        let sc = probe_scalar(&index, &probes, &mut scalar);
        scalar.sort_unstable();
        for group in [1, 3, 8, 64, 200] {
            let mut gp = Vec::new();
            let gc = probe_group_prefetch(&index, &probes, group, &mut gp);
            gp.sort_unstable();
            assert_eq!(scalar, gp, "group={group}");
            assert_eq!(gc.nodes, sc.nodes, "same traversal, group={group}");
            assert_eq!(gc.max_chain, sc.max_chain, "group={group}");
        }
    }

    #[test]
    fn partial_final_group() {
        let index = HashIndex::build(HashRecipe::robust64(), 8, [(1u64, 1u64), (2, 2)]);
        let mut out = Vec::new();
        probe_group_prefetch(&index, &[1, 2, 1], 2, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![(1, 1), (1, 1), (2, 2)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_group_rejected() {
        let index = HashIndex::build(HashRecipe::robust64(), 8, std::iter::empty());
        probe_group_prefetch(&index, &[1], 0, &mut Vec::new());
    }
}
