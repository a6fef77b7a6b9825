//! Pinned schedule counters: every engine's five [`WalkCounters`] fields
//! and every tag's emission sequence, compared against literal values.
//!
//! `engine_parity` checks what the engines must agree on (node visits,
//! deepest chain, matches). This suite pins what they may *not* drift
//! on either: `rounds` and `occupancy` (the soft MLP that
//! `soft.amac_mlp` and the profile report), the prefetch count, and the
//! order in which each tag's matches are emitted. Inputs are fixed and
//! small; each engine runs at several group and in-flight sizes, and
//! the resumable ring is fed across two `feed` / `drain` batches.
//!
//! A line reads `case engine: nodes max_chain rounds occupancy
//! prefetches | emitted digest`, where `digest` is an FNV-1a hash of
//! every tag's emission sequence in tag order (so different tags may
//! interleave freely, one tag's order may not change).

use widx_db::hash::HashRecipe;
use widx_db::index::{BTreeIndex, HashIndex};
use widx_obs::WalkCounters;
use widx_soft::{
    probe_amac, probe_group_prefetch, probe_scalar, scan_btree_amac, scan_btree_group,
    scan_btree_scalar, AmacWalker, BTreeRangeWalker, ScanRange,
};

const GROUPS: [usize; 3] = [1, 3, 8];
const INFLIGHTS: [usize; 4] = [1, 2, 5, 16];

/// One tag's emissions, in emission order.
type Seq = Vec<(u64, u64)>;

/// A scan engine's `(tag, key, payload)` sink.
type Emit<'a> = &'a mut dyn FnMut(u32, u64, u64);

fn digest(per_tag: &[Seq]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (tag, seq) in per_tag.iter().enumerate() {
        for word in [tag as u64, seq.len() as u64]
            .into_iter()
            .chain(seq.iter().flat_map(|&(k, p)| [k, p]))
        {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn line(case: &str, engine: &str, c: &WalkCounters, per_tag: &[Seq]) -> String {
    let emitted: usize = per_tag.iter().map(Vec::len).sum();
    format!(
        "{case} {engine}: {} {} {} {} {} | {emitted} {:#018x}",
        c.nodes,
        c.max_chain,
        c.rounds,
        c.occupancy,
        c.prefetches,
        digest(per_tag)
    )
}

/// Splits untagged `(key, payload)` output by probe key, in emission
/// order: with every probe key distinct, each key is one tag.
fn by_key(keys: &[u64], out: &[(u64, u64)]) -> Vec<Seq> {
    keys.iter()
        .map(|&k| out.iter().copied().filter(|&(o, _)| o == k).collect())
        .collect()
}

fn hash_lines(case: &str, index: &HashIndex, keys: &[u64]) -> Vec<String> {
    let mut lines = Vec::new();
    let mut out = Vec::new();
    let c = probe_scalar(index, keys, &mut out);
    lines.push(line(case, "scalar", &c, &by_key(keys, &out)));
    for group in GROUPS {
        out.clear();
        let c = probe_group_prefetch(index, keys, group, &mut out);
        lines.push(line(
            case,
            &format!("group={group}"),
            &c,
            &by_key(keys, &out),
        ));
    }
    for inflight in INFLIGHTS {
        out.clear();
        let c = probe_amac(index, keys, inflight, &mut out);
        lines.push(line(
            case,
            &format!("amac={inflight}"),
            &c,
            &by_key(keys, &out),
        ));
    }
    // The resumable ring, fed across two batches under explicit tags;
    // the first key is fed again under a tag of its own in each batch.
    for inflight in INFLIGHTS {
        let mut ring = AmacWalker::new(index, inflight);
        let (first, second) = keys.split_at(keys.len() / 2);
        let mut per_tag = vec![Seq::new(); keys.len() + 2];
        let mut tag = 0u32;
        for (batch, half) in [first, second].into_iter().enumerate() {
            let mut emit = |t: u32, k, p| per_tag[t as usize].push((k, p));
            for &key in half.iter().chain(&keys[..1]) {
                ring.feed(tag, key, &mut emit);
                tag += 1;
            }
            ring.drain(&mut emit);
            assert_eq!(ring.in_flight(), 0);
            let c = ring.take_counters();
            lines.push(line(
                case,
                &format!("ring={inflight}/{batch}"),
                &c,
                &per_tag,
            ));
        }
    }
    lines
}

fn btree_lines(case: &str, tree: &BTreeIndex, scans: &[ScanRange]) -> Vec<String> {
    let mut lines = Vec::new();
    let mut per_tag = vec![Seq::new(); scans.len()];
    let mut run = |engine: String, run: &mut dyn FnMut(Emit<'_>) -> WalkCounters| {
        per_tag.iter_mut().for_each(Vec::clear);
        let c = run(&mut |t, k, p| per_tag[t as usize].push((k, p)));
        lines.push(line(case, &engine, &c, &per_tag));
    };
    run("scalar".into(), &mut |emit| {
        scan_btree_scalar(tree, scans, &mut |t, k, p| emit(t, k, p))
    });
    for group in GROUPS {
        run(format!("group={group}"), &mut |emit| {
            scan_btree_group(tree, scans, group, &mut |t, k, p| emit(t, k, p))
        });
    }
    for inflight in INFLIGHTS {
        run(format!("amac={inflight}"), &mut |emit| {
            scan_btree_amac(tree, scans, inflight, &mut |t, k, p| emit(t, k, p))
        });
    }
    for inflight in INFLIGHTS {
        let mut ring = BTreeRangeWalker::new(tree, inflight);
        let mut per_tag = vec![Seq::new(); scans.len()];
        let (first, second) = scans.split_at(scans.len() / 2);
        let mut tag = 0u32;
        for (batch, half) in [first, second].into_iter().enumerate() {
            let mut emit = |t: u32, k, p| per_tag[t as usize].push((k, p));
            for &range in half {
                ring.feed(tag, range, &mut emit);
                tag += 1;
            }
            ring.drain(&mut emit);
            assert_eq!(ring.in_flight(), 0);
            let c = ring.take_counters();
            lines.push(line(
                case,
                &format!("ring={inflight}/{batch}"),
                &c,
                &per_tag,
            ));
        }
    }
    lines
}

fn check(got: &[String], want: &str) {
    let want: Vec<&str> = want
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w);
    }
    assert_eq!(
        got.len(),
        want.len(),
        "line count; got:\n{}",
        got.join("\n")
    );
}

#[test]
fn hash_engines_keep_their_counters_and_emission_order() {
    // Keys 0..40, key k stored k % 5 times (0 to 4 copies), in 8
    // buckets: chains of mixed length, some buckets shared by several
    // keys. Probes hit, miss (k % 5 == 0, and keys past 40), in a fixed
    // shuffled order.
    let pairs: Vec<(u64, u64)> = (0..40u64)
        .flat_map(|k| (0..k % 5).map(move |c| (k, k * 100 + c)))
        .collect();
    let chains = HashIndex::build(HashRecipe::robust64(), 8, pairs);
    let probes: Vec<u64> = (0..48u64).map(|i| (i * 29 + 7) % 48).collect();
    let mut got = hash_lines("chains", &chains, &probes);

    // One bucket, one long chain, and a second key interleaved in it.
    let pairs: Vec<(u64, u64)> = (0..12u64).map(|v| (3 + (v % 3 == 0) as u64, v)).collect();
    let long = HashIndex::build(HashRecipe::robust64(), 1, pairs);
    got.extend(hash_lines("long", &long, &[4, 3, 9]));

    // An empty index: every probe visits one empty header.
    let empty = HashIndex::build(HashRecipe::robust64(), 4, std::iter::empty());
    got.extend(hash_lines("empty", &empty, &[1, 2, 3]));

    check(&got, HASH_EXPECTED);
}

#[test]
fn btree_engines_keep_their_counters_and_emission_order() {
    let tree = BTreeIndex::build(4, (0..300u64).map(|k| (k * 3, k)));
    let asc: Vec<ScanRange> = (0..10u64)
        .map(|i| ScanRange::new(i * 83, i * 83 + 120))
        .collect();
    let mut got = btree_lines("asc", &tree, &asc);
    let desc: Vec<ScanRange> = asc.iter().map(|r| r.descending()).collect();
    got.extend(btree_lines("desc", &tree, &desc));
    let limits = [
        ScanRange::new(0, u64::MAX).with_limit(25),
        ScanRange::new(100, 700).with_limit(7),
        ScanRange::new(400, 100),
        ScanRange::new(10, 10),
        ScanRange::new(9, 9),
        ScanRange::new(0, 1000).with_limit(0),
        ScanRange::new(5000, 9000),
        ScanRange::new(200, 800).with_limit(30).descending(),
        ScanRange::new(0, 50).descending(),
        ScanRange::new(9000, 9999).descending(),
    ];
    got.extend(btree_lines("limits", &tree, &limits));

    let mut pairs: Vec<(u64, u64)> = (0..40u64).map(|i| (77, i)).collect();
    pairs.extend((0..100u64).map(|k| (k * 2, k)));
    let dups = BTreeIndex::build(4, pairs);
    let scans = [
        ScanRange::new(77, 77),
        ScanRange::new(70, 80).with_limit(11),
        ScanRange::new(77, 77).descending(),
        ScanRange::new(70, 80).with_limit(11).descending(),
        ScanRange::new(0, 200),
        ScanRange::new(0, 200).descending(),
    ];
    got.extend(btree_lines("dups", &dups, &scans));

    let empty = BTreeIndex::build(8, std::iter::empty());
    let scans = [
        ScanRange::new(0, u64::MAX),
        ScanRange::new(0, u64::MAX).descending(),
    ];
    got.extend(btree_lines("empty", &empty, &scans));

    let single = BTreeIndex::build(8, (0..5u64).map(|k| (k * 3, k)));
    let scans = [
        ScanRange::new(0, 100),
        ScanRange::new(3, 3),
        ScanRange::new(0, 100).descending(),
        ScanRange::new(3, 9).with_limit(2).descending(),
    ];
    got.extend(btree_lines("single", &single, &scans));

    check(&got, BTREE_EXPECTED);
}

const HASH_EXPECTED: &str = "
    chains scalar: 559 20 559 559 0 | 80 0xb84ca30e63d72d41
    chains group=1: 559 20 559 559 559 | 80 0xb84ca30e63d72d41
    chains group=3: 559 20 266 559 559 | 80 0xb84ca30e63d72d41
    chains group=8: 559 20 112 559 559 | 80 0xb84ca30e63d72d41
    chains amac=1: 559 20 559 559 559 | 80 0xb84ca30e63d72d41
    chains amac=2: 559 20 284 559 559 | 80 0xb84ca30e63d72d41
    chains amac=5: 559 20 116 559 559 | 80 0xb84ca30e63d72d41
    chains amac=16: 559 20 44 559 559 | 80 0xb84ca30e63d72d41
    chains ring=1/0: 284 20 284 284 284 | 44 0x5d1d684e2670727d
    chains ring=1/1: 281 20 281 281 281 | 84 0x305a7f80dcd6a120
    chains ring=2/0: 284 20 147 284 284 | 44 0x5d1d684e2670727d
    chains ring=2/1: 281 20 143 281 281 | 84 0x305a7f80dcd6a120
    chains ring=5/0: 284 20 67 284 284 | 44 0x5d1d684e2670727d
    chains ring=5/1: 281 20 60 281 281 | 84 0x305a7f80dcd6a120
    chains ring=16/0: 284 20 31 284 284 | 44 0x5d1d684e2670727d
    chains ring=16/1: 281 20 27 281 281 | 84 0x305a7f80dcd6a120
    long scalar: 36 12 36 36 0 | 12 0xc0d9da50e0dba56a
    long group=1: 36 12 36 36 36 | 12 0xc0d9da50e0dba56a
    long group=3: 36 12 12 36 36 | 12 0xc0d9da50e0dba56a
    long group=8: 36 12 12 36 36 | 12 0xc0d9da50e0dba56a
    long amac=1: 36 12 36 36 36 | 12 0xc0d9da50e0dba56a
    long amac=2: 36 12 24 36 36 | 12 0xc0d9da50e0dba56a
    long amac=5: 36 12 12 36 36 | 12 0xc0d9da50e0dba56a
    long amac=16: 36 12 12 36 36 | 12 0xc0d9da50e0dba56a
    long ring=1/0: 24 12 24 24 24 | 8 0x672515b793494861
    long ring=1/1: 36 12 36 36 36 | 20 0x1f809bc9e0311bed
    long ring=2/0: 24 12 12 24 24 | 8 0x672515b793494861
    long ring=2/1: 36 12 24 36 36 | 20 0x1f809bc9e0311bed
    long ring=5/0: 24 12 12 24 24 | 8 0x672515b793494861
    long ring=5/1: 36 12 12 36 36 | 20 0x1f809bc9e0311bed
    long ring=16/0: 24 12 12 24 24 | 8 0x672515b793494861
    long ring=16/1: 36 12 12 36 36 | 20 0x1f809bc9e0311bed
    empty scalar: 3 1 3 3 0 | 0 0x39410d03a00cc6e6
    empty group=1: 3 1 3 3 3 | 0 0x39410d03a00cc6e6
    empty group=3: 3 1 1 3 3 | 0 0x39410d03a00cc6e6
    empty group=8: 3 1 1 3 3 | 0 0x39410d03a00cc6e6
    empty amac=1: 3 1 3 3 3 | 0 0x39410d03a00cc6e6
    empty amac=2: 3 1 2 3 3 | 0 0x39410d03a00cc6e6
    empty amac=5: 3 1 1 3 3 | 0 0x39410d03a00cc6e6
    empty amac=16: 3 1 1 3 3 | 0 0x39410d03a00cc6e6
    empty ring=1/0: 2 1 2 2 2 | 0 0x3351ed9895e31861
    empty ring=1/1: 3 1 3 3 3 | 0 0x3351ed9895e31861
    empty ring=2/0: 2 1 1 2 2 | 0 0x3351ed9895e31861
    empty ring=2/1: 3 1 2 3 3 | 0 0x3351ed9895e31861
    empty ring=5/0: 2 1 1 2 2 | 0 0x3351ed9895e31861
    empty ring=5/1: 3 1 1 3 3 | 0 0x3351ed9895e31861
    empty ring=16/0: 2 1 1 2 2 | 0 0x3351ed9895e31861
    empty ring=16/1: 3 1 1 3 3 | 0 0x3351ed9895e31861
";

const BTREE_EXPECTED: &str = "
    asc scalar: 153 5 153 153 0 | 404 0x25c08d2342ca14b5
    asc group=1: 153 5 153 153 153 | 404 0x25c08d2342ca14b5
    asc group=3: 153 5 62 153 153 | 404 0x25c08d2342ca14b5
    asc group=8: 153 5 31 153 153 | 404 0x25c08d2342ca14b5
    asc amac=1: 153 5 153 153 153 | 404 0x25c08d2342ca14b5
    asc amac=2: 153 5 77 153 153 | 404 0x25c08d2342ca14b5
    asc amac=5: 153 5 31 153 153 | 404 0x25c08d2342ca14b5
    asc amac=16: 153 5 16 153 153 | 404 0x25c08d2342ca14b5
    asc ring=1/0: 78 5 78 78 78 | 202 0x3b07d10a469ff55e
    asc ring=1/1: 75 5 75 75 75 | 404 0x25c08d2342ca14b5
    asc ring=2/0: 78 5 46 78 78 | 202 0x3b07d10a469ff55e
    asc ring=2/1: 75 5 45 75 75 | 404 0x25c08d2342ca14b5
    asc ring=5/0: 78 5 16 78 78 | 202 0x3b07d10a469ff55e
    asc ring=5/1: 75 5 15 75 75 | 404 0x25c08d2342ca14b5
    asc ring=16/0: 78 5 16 78 78 | 202 0x3b07d10a469ff55e
    asc ring=16/1: 75 5 15 75 75 | 404 0x25c08d2342ca14b5
    desc scalar: 150 5 150 150 0 | 404 0xd0c77b1d813b17bd
    desc group=1: 150 5 150 150 150 | 404 0xd0c77b1d813b17bd
    desc group=3: 150 5 60 150 150 | 404 0xd0c77b1d813b17bd
    desc group=8: 150 5 30 150 150 | 404 0xd0c77b1d813b17bd
    desc amac=1: 150 5 150 150 150 | 404 0xd0c77b1d813b17bd
    desc amac=2: 150 5 75 150 150 | 404 0xd0c77b1d813b17bd
    desc amac=5: 150 5 30 150 150 | 404 0xd0c77b1d813b17bd
    desc amac=16: 150 5 15 150 150 | 404 0xd0c77b1d813b17bd
    desc ring=1/0: 75 5 75 75 75 | 202 0xea61e9ab9ab9da2e
    desc ring=1/1: 75 5 75 75 75 | 404 0xd0c77b1d813b17bd
    desc ring=2/0: 75 5 45 75 75 | 202 0xea61e9ab9ab9da2e
    desc ring=2/1: 75 5 45 75 75 | 404 0xd0c77b1d813b17bd
    desc ring=5/0: 75 5 15 75 75 | 202 0xea61e9ab9ab9da2e
    desc ring=5/1: 75 5 15 75 75 | 404 0xd0c77b1d813b17bd
    desc ring=16/0: 75 5 15 75 75 | 202 0xea61e9ab9ab9da2e
    desc ring=16/1: 75 5 15 75 75 | 404 0xd0c77b1d813b17bd
    limits scalar: 61 5 61 61 0 | 80 0x190eb384fa8465aa
    limits group=1: 61 5 61 61 61 | 80 0x190eb384fa8465aa
    limits group=3: 61 5 34 61 61 | 80 0x190eb384fa8465aa
    limits group=8: 61 5 21 61 61 | 80 0x190eb384fa8465aa
    limits amac=1: 61 5 61 61 61 | 80 0x190eb384fa8465aa
    limits amac=2: 61 5 32 61 61 | 80 0x190eb384fa8465aa
    limits amac=5: 61 5 17 61 61 | 80 0x190eb384fa8465aa
    limits amac=16: 61 5 12 61 61 | 80 0x190eb384fa8465aa
    limits ring=1/0: 30 5 30 30 30 | 33 0xa1bd9b27176d1423
    limits ring=1/1: 31 5 31 31 31 | 80 0x190eb384fa8465aa
    limits ring=2/0: 30 5 17 30 30 | 33 0xa1bd9b27176d1423
    limits ring=2/1: 31 5 17 31 31 | 80 0x190eb384fa8465aa
    limits ring=5/0: 30 5 11 30 30 | 33 0xa1bd9b27176d1423
    limits ring=5/1: 31 5 12 31 31 | 80 0x190eb384fa8465aa
    limits ring=16/0: 30 5 11 30 30 | 33 0xa1bd9b27176d1423
    limits ring=16/1: 31 5 12 31 31 | 80 0x190eb384fa8465aa
    dups scalar: 118 4 118 118 0 | 382 0x8b82d0e7cd56cec1
    dups group=1: 118 4 118 118 118 | 382 0x8b82d0e7cd56cec1
    dups group=3: 118 4 52 118 118 | 382 0x8b82d0e7cd56cec1
    dups group=8: 118 4 38 118 118 | 382 0x8b82d0e7cd56cec1
    dups amac=1: 118 4 118 118 118 | 382 0x8b82d0e7cd56cec1
    dups amac=2: 118 4 59 118 118 | 382 0x8b82d0e7cd56cec1
    dups amac=5: 118 4 45 118 118 | 382 0x8b82d0e7cd56cec1
    dups amac=16: 118 4 38 118 118 | 382 0x8b82d0e7cd56cec1
    dups ring=1/0: 35 4 35 35 35 | 91 0x06620e3778ca48a9
    dups ring=1/1: 83 4 83 83 83 | 382 0x8b82d0e7cd56cec1
    dups ring=2/0: 35 4 21 35 35 | 91 0x06620e3778ca48a9
    dups ring=2/1: 83 4 45 83 83 | 382 0x8b82d0e7cd56cec1
    dups ring=5/0: 35 4 14 35 35 | 91 0x06620e3778ca48a9
    dups ring=5/1: 83 4 38 83 83 | 382 0x8b82d0e7cd56cec1
    dups ring=16/0: 35 4 14 35 35 | 91 0x06620e3778ca48a9
    dups ring=16/1: 83 4 38 83 83 | 382 0x8b82d0e7cd56cec1
    empty scalar: 2 1 2 2 0 | 0 0xbd83fab03a75dd64
    empty group=1: 2 1 2 2 2 | 0 0xbd83fab03a75dd64
    empty group=3: 2 1 1 2 2 | 0 0xbd83fab03a75dd64
    empty group=8: 2 1 1 2 2 | 0 0xbd83fab03a75dd64
    empty amac=1: 2 1 2 2 2 | 0 0xbd83fab03a75dd64
    empty amac=2: 2 1 1 2 2 | 0 0xbd83fab03a75dd64
    empty amac=5: 2 1 1 2 2 | 0 0xbd83fab03a75dd64
    empty amac=16: 2 1 1 2 2 | 0 0xbd83fab03a75dd64
    empty ring=1/0: 1 1 1 1 1 | 0 0xbd83fab03a75dd64
    empty ring=1/1: 1 1 1 1 1 | 0 0xbd83fab03a75dd64
    empty ring=2/0: 1 1 1 1 1 | 0 0xbd83fab03a75dd64
    empty ring=2/1: 1 1 1 1 1 | 0 0xbd83fab03a75dd64
    empty ring=5/0: 1 1 1 1 1 | 0 0xbd83fab03a75dd64
    empty ring=5/1: 1 1 1 1 1 | 0 0xbd83fab03a75dd64
    empty ring=16/0: 1 1 1 1 1 | 0 0xbd83fab03a75dd64
    empty ring=16/1: 1 1 1 1 1 | 0 0xbd83fab03a75dd64
    single scalar: 4 1 4 4 0 | 13 0xe869b4e58103e8ca
    single group=1: 4 1 4 4 4 | 13 0xe869b4e58103e8ca
    single group=3: 4 1 2 4 4 | 13 0xe869b4e58103e8ca
    single group=8: 4 1 1 4 4 | 13 0xe869b4e58103e8ca
    single amac=1: 4 1 4 4 4 | 13 0xe869b4e58103e8ca
    single amac=2: 4 1 2 4 4 | 13 0xe869b4e58103e8ca
    single amac=5: 4 1 1 4 4 | 13 0xe869b4e58103e8ca
    single amac=16: 4 1 1 4 4 | 13 0xe869b4e58103e8ca
    single ring=1/0: 2 1 2 2 2 | 6 0x4918fa7bf8a73d07
    single ring=1/1: 2 1 2 2 2 | 13 0xe869b4e58103e8ca
    single ring=2/0: 2 1 1 2 2 | 6 0x4918fa7bf8a73d07
    single ring=2/1: 2 1 1 2 2 | 13 0xe869b4e58103e8ca
    single ring=5/0: 2 1 1 2 2 | 6 0x4918fa7bf8a73d07
    single ring=5/1: 2 1 1 2 2 | 13 0xe869b4e58103e8ca
    single ring=16/0: 2 1 1 2 2 | 6 0x4918fa7bf8a73d07
    single ring=16/1: 2 1 1 2 2 | 13 0xe869b4e58103e8ca
";
