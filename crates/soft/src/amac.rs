//! The AMAC schedule: a resumable ring of cursors.
//!
//! Asynchronous memory-access chaining (Kocberber et al.'s own software
//! follow-up to Widx) keeps `inflight` walks in distinct states of
//! their traversal. When a walk is about to dereference a node that is
//! probably not cached, it issues a prefetch and *yields*; by the time
//! the round-robin scheduler returns to it, the line has (hopefully)
//! arrived. This is exactly the inter-key parallelism the paper's
//! hardware walkers exploit — `inflight` plays the role of the walker
//! count, bounded in practice by the same MSHR limits the paper's
//! Section 3.2 model identifies.
//!
//! The [`Ring`] is resumable: a serving layer [`feed`](Ring::feed)s
//! units in one at a time (keeping earlier walks in flight while later
//! requests are still being dequeued) and [`drain`](Ring::drain)s at
//! batch boundaries. Each unit carries a caller-chosen `tag`, so matches
//! can be attributed back to the originating request even when the same
//! key value appears in several concurrently batched requests.

use widx_db::index::{BTreeIndex, HashIndex};
use widx_obs::WalkCounters;

use crate::{Match, Step};

/// A resumable ring of `inflight` cursors over one index.
///
/// [`feed`](Ring::feed) starts a new unit, advancing the whole ring
/// round-robin while every slot is busy; [`drain`](Ring::drain) runs the
/// ring until no cursor remains. A slot refills as soon as its cursor
/// retires. Matches are reported through an `emit(tag, key, payload)`
/// callback as soon as they are found — which may be during a later
/// `feed` of unrelated units, so callers that need batch isolation must
/// drain before reusing tags.
pub struct Ring<'idx, S: Step> {
    index: &'idx S,
    /// The cursors in flight, oldest first; never more than `inflight`.
    live: Vec<S::Cursor>,
    inflight: usize,
    counters: WalkCounters,
}

/// The ring over a hash index: interleaved probes.
pub type AmacWalker<'idx> = Ring<'idx, HashIndex>;

/// The ring over a B+-tree: interleaved range-scan cursors.
pub type BTreeRangeWalker<'idx> = Ring<'idx, BTreeIndex>;

impl<'idx, S: Step> Ring<'idx, S> {
    /// Creates a ring of `inflight` slots over `index`.
    ///
    /// # Panics
    ///
    /// Panics if `inflight` is zero.
    #[must_use]
    pub fn new(index: &'idx S, inflight: usize) -> Ring<'idx, S> {
        assert!(inflight > 0, "need at least one in-flight slot");
        Ring {
            index,
            live: Vec::with_capacity(inflight),
            inflight,
            counters: WalkCounters::default(),
        }
    }

    /// Returns the [`WalkCounters`] accumulated since the last call and
    /// resets them, so a serving layer can attribute one batch's work to
    /// its requests.
    pub fn take_counters(&mut self) -> WalkCounters {
        std::mem::take(&mut self.counters)
    }

    /// Number of cursors currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.live.len()
    }

    /// Starts `unit` under `tag`, prefetching its first node. If every
    /// slot is busy, the ring is advanced until one frees — matches for
    /// *earlier* units may be emitted during this call. A unit that
    /// visits nothing (an empty scan range) takes no slot.
    pub fn feed<F: FnMut(u32, u64, u64)>(&mut self, tag: u32, unit: S::Unit, emit: &mut F) {
        let Some(cursor) = self.index.start(tag, unit) else {
            return;
        };
        while self.live.len() == self.inflight {
            self.step_all(emit);
        }
        self.counters.prefetches += u64::from(self.index.prefetch(&cursor));
        self.live.push(cursor);
    }

    /// Runs the ring until every in-flight cursor has completed.
    pub fn drain<F: FnMut(u32, u64, u64)>(&mut self, emit: &mut F) {
        while self.live.len() > 1 {
            self.step_all(emit);
        }
        // The last cursor has nothing to interleave with: it runs to its
        // end, one node a round and prefetching as in the ring, but held
        // in registers instead of the ring's slot.
        if let Some(mut cursor) = self.live.pop() {
            let (index, mut counters) = (self.index, self.counters);
            loop {
                counters.rounds += 1;
                counters.occupancy += 1;
                let Some(next) = index.visit(cursor, &mut counters, emit) else {
                    break;
                };
                counters.prefetches += u64::from(index.prefetch(&next));
                cursor = next;
            }
            self.counters = counters;
        }
    }

    /// Feeds every `(tag, unit)` of `units` and drains — one batch,
    /// start to finish.
    pub fn walk<I, F>(&mut self, units: I, emit: &mut F)
    where
        I: IntoIterator<Item = (u32, S::Unit)>,
        F: FnMut(u32, u64, u64),
    {
        for (tag, unit) in units {
            self.feed(tag, unit, emit);
        }
        self.drain(emit);
    }

    /// One round: every live cursor visits one node and prefetches its
    /// next before yielding; a finished cursor frees its slot.
    fn step_all<F: FnMut(u32, u64, u64)>(&mut self, emit: &mut F) {
        // A local copy of the counters stays in registers for the pass.
        let (index, mut counters) = (self.index, self.counters);
        counters.rounds += 1;
        counters.occupancy += self.live.len() as u64;
        self.live
            .retain_mut(|cursor| match index.visit(*cursor, &mut counters, emit) {
                Some(next) => {
                    counters.prefetches += u64::from(index.prefetch(&next));
                    *cursor = next;
                    true
                }
                None => false,
            });
        self.counters = counters;
    }
}

/// Probes `keys` with `inflight` interleaved cursors, appending every
/// `(key, payload)` match to `out`: one [`Ring`] batch over the hash
/// index.
///
/// # Panics
///
/// Panics if `inflight` is zero.
pub fn probe_amac(
    index: &HashIndex,
    keys: &[u64],
    inflight: usize,
    out: &mut Vec<Match>,
) -> WalkCounters {
    let mut ring = Ring::new(index, inflight);
    ring.walk((0..).zip(keys.iter().copied()), &mut |_, key, payload| {
        out.push((key, payload))
    });
    ring.take_counters()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe_scalar;
    use widx_db::hash::HashRecipe;

    fn check_equivalence(pairs: Vec<(u64, u64)>, probes: Vec<u64>, inflight: usize) {
        let index = HashIndex::build(HashRecipe::robust64(), 16, pairs);
        let mut scalar = Vec::new();
        let mut amac = Vec::new();
        probe_scalar(&index, &probes, &mut scalar);
        probe_amac(&index, &probes, inflight, &mut amac);
        scalar.sort_unstable();
        amac.sort_unstable();
        assert_eq!(scalar, amac, "inflight={inflight}");
    }

    #[test]
    fn equivalent_to_scalar() {
        let pairs: Vec<(u64, u64)> = (0..200).map(|k| (k % 50, k)).collect();
        let probes: Vec<u64> = (0..120).collect();
        for inflight in [1, 2, 4, 8, 16] {
            check_equivalence(pairs.clone(), probes.clone(), inflight);
        }
    }

    #[test]
    fn more_inflight_than_keys() {
        check_equivalence(vec![(1, 1)], vec![1, 2], 64);
    }

    #[test]
    fn empty_probe_stream() {
        let index = HashIndex::build(HashRecipe::robust64(), 8, [(1u64, 2u64)]);
        let mut out = Vec::new();
        probe_amac(&index, &[], 4, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_inflight_rejected() {
        let index = HashIndex::build(HashRecipe::robust64(), 8, std::iter::empty());
        probe_amac(&index, &[1], 0, &mut Vec::new());
    }

    #[test]
    fn walker_reused_across_chunks_matches_scalar() {
        let pairs: Vec<(u64, u64)> = (0..400).map(|k| (k % 90, k)).collect();
        let index = HashIndex::build(HashRecipe::robust64(), 32, pairs);
        let probes: Vec<u64> = (0..300).map(|i| i % 110).collect();

        let mut scalar = Vec::new();
        probe_scalar(&index, &probes, &mut scalar);
        scalar.sort_unstable();

        let mut ring = Ring::new(&index, 8);
        let mut got: Vec<Match> = Vec::new();
        for chunk in probes.chunks(37) {
            ring.walk(chunk.iter().map(|&k| (0u32, k)), &mut |_t, k, p| {
                got.push((k, p));
            });
            assert_eq!(ring.in_flight(), 0, "drained between chunks");
        }
        got.sort_unstable();
        assert_eq!(scalar, got);
    }

    #[test]
    fn feed_keeps_probes_in_flight_until_drain() {
        // A chain long enough that probes cannot finish in one step.
        let pairs: Vec<(u64, u64)> = (0..64).map(|v| (7u64, v)).collect();
        let index = HashIndex::build(HashRecipe::robust64(), 8, pairs);
        let mut ring = Ring::new(&index, 4);
        let mut out = Vec::new();
        for _ in 0..4 {
            ring.feed(0, 7, &mut |_t, k, p| out.push((k, p)));
        }
        assert_eq!(ring.in_flight(), 4);
        ring.drain(&mut |_t, k, p| out.push((k, p)));
        assert_eq!(ring.in_flight(), 0);
        assert_eq!(out.len(), 4 * 64);
    }

    #[test]
    fn counters_track_chain_depth_and_occupancy() {
        // One bucket with a 5-long chain (header + 4 overflow nodes).
        let pairs: Vec<(u64, u64)> = (0..5).map(|v| (3u64, v)).collect();
        let index = HashIndex::build(HashRecipe::robust64(), 1, pairs);
        let mut ring = Ring::new(&index, 2);
        assert!(ring.take_counters().is_zero());
        let mut out = Vec::new();
        ring.walk([(0u32, 3u64)], &mut |_t, k, p| out.push((k, p)));
        assert_eq!(out.len(), 5);
        let c = ring.take_counters();
        assert_eq!(c.nodes, 5, "header + 4 overflow nodes visited");
        assert_eq!(c.max_chain, 5);
        assert_eq!(c.rounds, 5, "one live probe advances once per round");
        assert_eq!(c.occupancy, 5);
        assert_eq!(c.prefetches, 5, "bucket prefetch + 4 node prefetches");
        // take_counters resets.
        assert!(ring.take_counters().is_zero());
        // A missing key still visits its (empty or mismatched) bucket.
        ring.walk([(0u32, 999u64)], &mut |_t, _k, _p| {});
        assert!(ring.take_counters().nodes >= 1);
    }

    #[test]
    fn tags_attribute_matches_to_requests() {
        // Same key fed under different tags: each tag sees its own copy.
        let index = HashIndex::build(HashRecipe::robust64(), 8, [(5u64, 50u64), (5, 51)]);
        let mut ring = Ring::new(&index, 2);
        let mut per_tag = [Vec::new(), Vec::new(), Vec::new()];
        ring.walk([(0u32, 5u64), (1, 5), (2, 9)], &mut |tag, key, payload| {
            per_tag[tag as usize].push((key, payload))
        });
        for (tag, matches) in per_tag.iter_mut().take(2).enumerate() {
            matches.sort_unstable();
            assert_eq!(matches, &[(5, 50), (5, 51)], "tag {tag}");
        }
        assert!(per_tag[2].is_empty(), "missing key matched nothing");
    }
}
