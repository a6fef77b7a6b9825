//! The B+-tree range-scan [`Step`], and the three range engines over it.
//!
//! A range scan has two phases with different memory behaviour: a
//! pointer-chasing *descent* (one dependent load per level, exactly the
//! traversal the paper's walkers accelerate) and a sequential
//! *leaf-chain scan* (streaming through sibling leaves). One visit reads
//! one node of either — an inner node on the way down, or one leaf of
//! the chain — and hands back a cursor naming the next, which the group
//! and ring schedules prefetch before any cursor visits it.
//!
//! Every engine emits `(tag, key, payload)` with the guarantee that the
//! emissions *for one tag* are in key order — ascending (duplicates in
//! build order), or descending (duplicates in reverse build order) for
//! a [`ScanRange`] with `desc` set, which descends toward `hi` and
//! walks the leaf chain *backwards* — and truncated to the scan's
//! `limit`. Emissions of different tags interleave arbitrarily.

use widx_db::index::BTreeIndex;
use widx_obs::WalkCounters;

use crate::prefetch::prefetch_lines;
use crate::{walk_group, walk_scalar, Ring, Step};

/// One range-scan query: all entries with keys in `[lo, hi]`, truncated
/// to the first `limit` in key order — ascending by default, descending
/// with [`desc`](ScanRange::desc) set (the `ORDER BY key DESC` shape:
/// the *largest* keys survive the limit, duplicates in reverse build
/// order). Use `usize::MAX` for an unbounded scan; `lo > hi` and
/// `limit == 0` are valid, empty scans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanRange {
    /// Inclusive lower key bound.
    pub lo: u64,
    /// Inclusive upper key bound.
    pub hi: u64,
    /// Maximum entries to emit.
    pub limit: usize,
    /// Scan direction: `false` ascends from `lo`, `true` descends from
    /// `hi` (descend-to-hi, then walk the leaf chain backwards).
    pub desc: bool,
}

impl ScanRange {
    /// An unbounded-count ascending scan of `[lo, hi]`.
    #[must_use]
    pub fn new(lo: u64, hi: u64) -> ScanRange {
        ScanRange {
            lo,
            hi,
            limit: usize::MAX,
            desc: false,
        }
    }

    /// The same scan truncated to `limit` entries.
    #[must_use]
    pub fn with_limit(mut self, limit: usize) -> ScanRange {
        self.limit = limit;
        self
    }

    /// The same scan in descending key order.
    #[must_use]
    pub fn descending(mut self) -> ScanRange {
        self.desc = true;
        self
    }

    /// Whether the scan can match anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi || self.limit == 0
    }
}

/// A range scan in flight: its range (`limit` counting down what it may
/// still emit), its tag, and the node it visits next.
#[derive(Clone, Copy, Debug)]
pub struct Scan {
    range: ScanRange,
    tag: u32,
    at: At,
}

#[derive(Clone, Copy, Debug)]
enum At {
    /// Inner node `node`, `depth` levels below the root.
    Inner { depth: usize, node: u32 },
    /// Leaf `leaf`; `seek` on the first leaf only, which must still
    /// locate the boundary key (a sibling leaf continues from its edge:
    /// slot 0 ascending, the last slot descending).
    Leaf { leaf: u32, seek: bool },
}

impl Scan {
    /// Where the scan enters `keys`, an inner node's separators or a
    /// leaf's keys. Ascending, at the first key `>= lo`: the strict
    /// comparison descends toward the *leftmost* subtree that can hold
    /// one (duplicates of one key may span several leaves). Descending,
    /// just past the last key `<= hi`: toward the *rightmost*.
    fn seek(&self, keys: &[u64]) -> usize {
        let ScanRange { lo, hi, desc, .. } = self.range;
        if desc {
            keys.partition_point(|k| *k <= hi)
        } else {
            keys.partition_point(|k| *k < lo)
        }
    }

    /// Emits `run` in scan order until a key passes the far bound or the
    /// limit runs out; whether the scan goes on past the run (all of it
    /// emitted, limit left).
    fn emit_run<'a, F: FnMut(u32, u64, u64)>(
        &mut self,
        run: impl ExactSizeIterator<Item = (&'a u64, &'a u64)>,
        emit: &mut F,
    ) -> bool {
        let ScanRange { lo, hi, desc, .. } = self.range;
        let past = |key| if desc { key < lo } else { key > hi };
        let len = run.len();
        let mut emitted = 0;
        for (&key, &payload) in run.take(self.range.limit) {
            if past(key) {
                break;
            }
            emit(self.tag, key, payload);
            emitted += 1;
        }
        self.range.limit -= emitted;
        emitted == len && self.range.limit > 0
    }
}

// `inline(always)` for the same reason as the hash step's.
impl Step for BTreeIndex {
    type Unit = ScanRange;
    type Cursor = Scan;

    #[inline(always)]
    fn start(&self, tag: u32, range: ScanRange) -> Option<Scan> {
        // No inner levels means a single live leaf (splits grow a level
        // immediately, and levels never shrink).
        let at = match self.inner_level_count() {
            0 => At::Leaf {
                leaf: self.first_leaf(),
                seek: true,
            },
            _ => At::Inner { depth: 0, node: 0 },
        };
        (!range.is_empty()).then_some(Scan { range, tag, at })
    }

    #[inline(always)]
    fn visit<F: FnMut(u32, u64, u64)>(
        &self,
        mut scan: Scan,
        counters: &mut WalkCounters,
        emit: &mut F,
    ) -> Option<Scan> {
        counters.nodes += 1;
        let levels = self.inner_level_count();
        match scan.at {
            At::Inner { depth, node } => {
                let child = self.inner_child(depth, node, scan.seek(self.inner_keys(depth, node)));
                scan.at = if depth + 1 == levels {
                    At::Leaf {
                        leaf: child,
                        seek: true,
                    }
                } else {
                    At::Inner {
                        depth: depth + 1,
                        node: child,
                    }
                };
                Some(scan)
            }
            At::Leaf { leaf, seek } => {
                counters.max_chain = counters.max_chain.max(levels as u64 + 1);
                let (keys, payloads) = self.leaf_entries(leaf);
                let (more, sibling) = if scan.range.desc {
                    let end = if seek { scan.seek(keys) } else { keys.len() };
                    let run = keys[..end].iter().zip(&payloads[..end]).rev();
                    (scan.emit_run(run, emit), self.leaf_prev(leaf))
                } else {
                    let from = if seek { scan.seek(keys) } else { 0 };
                    let run = keys[from..].iter().zip(&payloads[from..]);
                    (scan.emit_run(run, emit), self.leaf_next(leaf))
                };
                scan.at = At::Leaf {
                    leaf: sibling?,
                    seek: false,
                };
                more.then_some(scan)
            }
        }
    }

    #[inline(always)]
    fn prefetch(&self, scan: &Scan) -> bool {
        // A node is one slot of its level's arena: two header words,
        // `fanout + 1` keys, then as many payloads or children (the
        // layout `BTreeIndex` documents). Fetch every line the visit
        // reads: the header (a leaf's chain links) and the live keys,
        // then the live payloads or children.
        let (keys, values, live) = match scan.at {
            At::Inner { depth, node } => {
                let keys = self.inner_keys(depth, node);
                let children = keys.as_ptr().wrapping_add(self.fanout() + 1);
                (keys, children, keys.len() + 1)
            }
            At::Leaf { leaf, .. } => {
                let (keys, payloads) = self.leaf_entries(leaf);
                (keys, payloads.as_ptr(), keys.len())
            }
        };
        prefetch_lines(keys.as_ptr().wrapping_sub(2), 2 + keys.len());
        prefetch_lines(values, live);
        true
    }
}

/// Scans `scans` one at a time — the serial baseline, [`walk_scalar`]
/// over the tree's public accessors (and therefore an implementation
/// independent of [`BTreeIndex::range_scan`]). Emits `(scan index, key,
/// payload)`.
pub fn scan_btree_scalar<F: FnMut(u32, u64, u64)>(
    tree: &BTreeIndex,
    scans: &[ScanRange],
    emit: &mut F,
) -> WalkCounters {
    walk_scalar(tree, scans, emit)
}

/// Scans `scans` in stage-synchronized groups of `group` cursors: the
/// whole group descends one level per pass, then scans one leaf per
/// pass in lock-step. Emits `(scan index, key,
/// payload)`.
///
/// # Panics
///
/// Panics if `group` is zero.
pub fn scan_btree_group<F: FnMut(u32, u64, u64)>(
    tree: &BTreeIndex,
    scans: &[ScanRange],
    group: usize,
    emit: &mut F,
) -> WalkCounters {
    walk_group(tree, scans, group, emit)
}

/// Scans `scans` with `inflight` interleaved cursors — one [`Ring`]
/// batch. Emits `(scan index, key, payload)`.
///
/// # Panics
///
/// Panics if `inflight` is zero.
pub fn scan_btree_amac<F: FnMut(u32, u64, u64)>(
    tree: &BTreeIndex,
    scans: &[ScanRange],
    inflight: usize,
    emit: &mut F,
) -> WalkCounters {
    let mut ring = Ring::new(tree, inflight);
    ring.walk((0..).zip(scans.iter().copied()), emit);
    ring.take_counters()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(entries: u64, fanout: usize) -> BTreeIndex {
        BTreeIndex::build(fanout, (0..entries).map(|k| (k * 3, k)))
    }

    /// Collects per-tag results from an engine run.
    fn per_tag<E>(n: usize, run: E) -> Vec<Vec<(u64, u64)>>
    where
        E: FnOnce(&mut dyn FnMut(u32, u64, u64)),
    {
        let mut out = vec![Vec::new(); n];
        run(&mut |tag, key, payload| out[tag as usize].push((key, payload)));
        out
    }

    fn check_all_engines(t: &BTreeIndex, scans: &[ScanRange]) {
        let want: Vec<Vec<(u64, u64)>> = scans
            .iter()
            .map(|r| {
                if r.desc {
                    t.range_scan_desc(r.lo, r.hi, r.limit)
                } else {
                    t.range_scan(r.lo, r.hi, r.limit)
                }
            })
            .collect();
        let scalar = per_tag(scans.len(), |emit| {
            scan_btree_scalar(t, scans, &mut |a, b, c| emit(a, b, c));
        });
        assert_eq!(scalar, want, "scalar vs range_scan oracle");
        for group in [1usize, 3, 8] {
            let grouped = per_tag(scans.len(), |emit| {
                scan_btree_group(t, scans, group, &mut |a, b, c| emit(a, b, c));
            });
            assert_eq!(grouped, want, "group={group}");
        }
        for inflight in [1usize, 2, 5, 16] {
            let amac = per_tag(scans.len(), |emit| {
                scan_btree_amac(t, scans, inflight, &mut |a, b, c| emit(a, b, c));
            });
            assert_eq!(amac, want, "inflight={inflight}");
        }
    }

    #[test]
    fn engines_agree_with_oracle() {
        let t = tree(2000, 8);
        let scans: Vec<ScanRange> = (0..40u64)
            .map(|i| ScanRange::new(i * 131, i * 131 + 400))
            .collect();
        check_all_engines(&t, &scans);
    }

    #[test]
    fn limits_and_degenerate_ranges() {
        let t = tree(500, 4);
        let scans = vec![
            ScanRange::new(0, u64::MAX),
            ScanRange::new(100, 400).with_limit(7),
            ScanRange::new(400, 100), // inverted
            ScanRange::new(10, 10),   // single key (miss: 10 % 3 != 0)
            ScanRange::new(9, 9),     // single key (hit)
            ScanRange::new(0, 1000).with_limit(0),
            ScanRange::new(5000, 9000), // past the end
        ];
        check_all_engines(&t, &scans);
    }

    #[test]
    fn duplicates_spanning_leaves() {
        let mut pairs: Vec<(u64, u64)> = (0..40u64).map(|i| (77, i)).collect();
        pairs.extend((0..100u64).map(|k| (k * 2, k)));
        let t = BTreeIndex::build(4, pairs);
        let scans = vec![
            ScanRange::new(77, 77),
            ScanRange::new(70, 80).with_limit(11),
            ScanRange::new(0, 200),
        ];
        check_all_engines(&t, &scans);
    }

    #[test]
    fn empty_and_single_leaf_trees() {
        check_all_engines(
            &BTreeIndex::build(8, std::iter::empty()),
            &[ScanRange::new(0, u64::MAX)],
        );
        check_all_engines(&tree(5, 8), &[ScanRange::new(0, 100), ScanRange::new(3, 3)]);
    }

    #[test]
    fn descending_engines_agree_with_the_reverse_oracle() {
        let t = tree(2000, 8);
        let mut scans: Vec<ScanRange> = (0..30u64)
            .map(|i| ScanRange::new(i * 157, i * 157 + 500).descending())
            .collect();
        scans.push(ScanRange::new(0, u64::MAX).descending());
        scans.push(ScanRange::new(100, 400).with_limit(7).descending());
        scans.push(ScanRange::new(400, 100).descending()); // inverted
        scans.push(ScanRange::new(9, 9).descending()); // single key hit
        scans.push(ScanRange::new(0, 1000).with_limit(0).descending());
        scans.push(ScanRange::new(9000, 9999).descending()); // past the end
        check_all_engines(&t, &scans);
    }

    #[test]
    fn mixed_direction_batches_keep_per_tag_order() {
        let t = tree(1500, 4);
        let scans: Vec<ScanRange> = (0..24u64)
            .map(|i| {
                let r = ScanRange::new(i * 97, i * 97 + 800);
                if i % 2 == 0 {
                    r.descending()
                } else {
                    r
                }
            })
            .collect();
        check_all_engines(&t, &scans);
    }

    #[test]
    fn descending_duplicates_span_leaves_in_reverse_build_order() {
        let mut pairs: Vec<(u64, u64)> = (0..40u64).map(|i| (77, i)).collect();
        pairs.extend((0..100u64).map(|k| (k * 2, k)));
        let t = BTreeIndex::build(4, pairs);
        let scans = vec![
            ScanRange::new(77, 77).descending(),
            ScanRange::new(70, 80).with_limit(11).descending(),
            ScanRange::new(0, 200).descending(),
        ];
        check_all_engines(&t, &scans);
    }

    #[test]
    fn descending_empty_and_single_leaf_trees() {
        check_all_engines(
            &BTreeIndex::build(8, std::iter::empty()),
            &[ScanRange::new(0, u64::MAX).descending()],
        );
        check_all_engines(
            &tree(5, 8),
            &[
                ScanRange::new(0, 100).descending(),
                ScanRange::new(3, 3).descending(),
            ],
        );
    }

    #[test]
    fn walker_is_resumable_across_batches() {
        let t = tree(3000, 8);
        let mut ring = Ring::new(&t, 4);
        let mut got: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 30];
        for batch in 0..3 {
            for j in 0..10u32 {
                let tag = batch * 10 + j;
                let lo = u64::from(tag) * 100;
                ring.feed(tag, ScanRange::new(lo, lo + 250), &mut |t2, k, p| {
                    got[t2 as usize].push((k, p))
                });
            }
            ring.drain(&mut |t2, k, p| got[t2 as usize].push((k, p)));
            assert_eq!(ring.in_flight(), 0, "drained between batches");
        }
        for (tag, results) in got.iter().enumerate() {
            let lo = tag as u64 * 100;
            assert_eq!(
                results,
                &t.range_scan(lo, lo + 250, usize::MAX),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn feed_keeps_scans_in_flight_until_drain() {
        let t = tree(50_000, 8);
        let mut ring = Ring::new(&t, 4);
        let mut count = 0usize;
        for i in 0..4u32 {
            ring.feed(
                i,
                ScanRange::new(u64::from(i) * 1000, u64::from(i) * 1000 + 10),
                &mut |_, _, _| count += 1,
            );
        }
        assert_eq!(ring.in_flight(), 4, "descents still in flight");
        ring.drain(&mut |_, _, _| count += 1);
        assert_eq!(ring.in_flight(), 0);
        assert!(count > 0);
    }

    #[test]
    fn counters_track_depth_rounds_and_prefetches() {
        let t = tree(2000, 8);
        let mut ring = Ring::new(&t, 4);
        assert!(ring.take_counters().is_zero());
        let mut n = 0usize;
        ring.walk([(0u32, ScanRange::new(0, 300))], &mut |_, _, _| n += 1);
        assert_eq!(n, 101); // keys 0,3,...,300
        let c = ring.take_counters();
        assert_eq!(c.max_chain, t.inner_level_count() as u64 + 1);
        assert!(c.nodes >= c.max_chain, "visited at least one full descent");
        assert!(c.rounds >= c.nodes, "single cursor: one node per round");
        assert_eq!(c.occupancy, c.nodes, "single live cursor each round");
        assert!(c.prefetches > 0);
        assert!(ring.take_counters().is_zero(), "take_counters resets");
        // Degenerate scans touch nothing.
        ring.feed(0, ScanRange::new(9, 3), &mut |_, _, _| {});
        assert!(ring.take_counters().is_zero());
    }

    #[test]
    fn degenerate_feed_does_not_occupy_a_slot() {
        let t = tree(100, 4);
        let mut ring = Ring::new(&t, 2);
        ring.feed(0, ScanRange::new(9, 3), &mut |_, _, _| panic!("no matches"));
        ring.feed(1, ScanRange::new(0, 9).with_limit(0), &mut |_, _, _| {
            panic!("no matches")
        });
        assert_eq!(ring.in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_inflight_rejected() {
        let t = tree(10, 4);
        let _ = Ring::new(&t, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_group_rejected() {
        let t = tree(10, 4);
        scan_btree_group(&t, &[ScanRange::new(0, 1)], 0, &mut |_, _, _| {});
    }
}
