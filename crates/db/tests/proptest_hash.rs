//! Property tests: a compiled hash kernel *is* the interpreter.
//!
//! `HashRecipe::eval` runs straight-line code for the step lists it
//! recognises and folds over the steps for every other list. The steps
//! are the contract (the ISA, sim and trace generators compile them), so
//! whichever path `eval` takes must compute the fold — written out here
//! a second time, sharing no code with `widx_db::hash`.
//!
//! And a prefetched build *is* the insert loop: `HashIndex::build` and
//! `insert_batch` must leave the index byte-for-byte as one `insert` per
//! pair in input order would — same chains, same free-list pops.

use proptest::prelude::*;
use widx_db::hash::{HashRecipe, HashStep};
use widx_db::index::HashIndex;

/// The reference semantics of a step list.
fn reference(steps: &[HashStep], key: u64) -> u64 {
    steps.iter().fold(key, |x, step| match *step {
        HashStep::XorConst(c) => x ^ c,
        HashStep::AddConst(c) => x.wrapping_add(c),
        HashStep::AndConst(c) => x & c,
        HashStep::XorShr(a) => x ^ (x >> a),
        HashStep::XorShl(a) => x ^ (x << a),
        HashStep::AddShl(a) => x.wrapping_add(x << a),
        HashStep::AddShr(a) => x.wrapping_add(x >> a),
    })
}

fn step() -> impl Strategy<Value = HashStep> {
    prop_oneof![
        any::<u64>().prop_map(HashStep::XorConst),
        any::<u64>().prop_map(HashStep::AddConst),
        any::<u64>().prop_map(HashStep::AndConst),
        (0u8..64).prop_map(HashStep::XorShr),
        (0u8..64).prop_map(HashStep::XorShl),
        (0u8..64).prop_map(HashStep::AddShl),
        (0u8..64).prop_map(HashStep::AddShr),
    ]
}

fn named() -> [HashRecipe; 3] {
    [
        HashRecipe::trivial(),
        HashRecipe::robust64(),
        HashRecipe::heavy128(),
    ]
}

/// `eval`, and both reductions of it, against the reference.
fn assert_is_the_fold(recipe: &HashRecipe, key: u64, pow2: u64, odd: u64) {
    let hash = reference(recipe.steps(), key);
    assert_eq!(recipe.eval(key), hash, "{recipe} on {key:#x}");
    assert_eq!(recipe.bucket_of(key, pow2), hash & (pow2 - 1));
    let upper = hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    for shards in [pow2, odd] {
        assert_eq!(recipe.shard_of(key, shards), upper % shards, "{shards}");
    }
}

proptest! {
    #[test]
    fn named_recipes_are_their_steps(
        key in any::<u64>(),
        log2 in 0u32..40,
        odd in (0u64..4096).prop_map(|n| 2 * n + 1),
    ) {
        for recipe in named() {
            assert_is_the_fold(&recipe, key, 1 << log2, odd);
        }
    }

    #[test]
    fn arbitrary_step_lists_are_their_steps(
        steps in prop::collection::vec(step(), 0..24),
        key in any::<u64>(),
        log2 in 0u32..40,
        odd in (0u64..4096).prop_map(|n| 2 * n + 1),
    ) {
        assert_is_the_fold(&HashRecipe::new("arbitrary", steps), key, 1 << log2, odd);
    }

    /// A recognised list is recognised by its steps, whatever it is
    /// called: same values, and equality still sees the name.
    #[test]
    fn a_known_list_under_another_name_hashes_alike(
        which in 0usize..3,
        key in any::<u64>(),
        log2 in 0u32..40,
        odd in (0u64..4096).prop_map(|n| 2 * n + 1),
    ) {
        let known = &named()[which];
        let alias = HashRecipe::new("alias", known.steps().to_vec());
        assert_is_the_fold(&alias, key, 1 << log2, odd);
        prop_assert_eq!(alias.eval(key), known.eval(key));
        prop_assert_eq!(alias.steps(), known.steps());
        prop_assert_ne!(&alias, known);
    }

    /// One step changed, dropped or added and the list is no longer the
    /// kernel's: `eval` must follow the steps, not the resemblance.
    #[test]
    fn a_known_list_with_one_step_off_falls_back(
        which in 0usize..3,
        at in any::<usize>(),
        edit in 0u8..3,
        with in step(),
        key in any::<u64>(),
        log2 in 0u32..40,
        odd in (0u64..4096).prop_map(|n| 2 * n + 1),
    ) {
        let known = &named()[which];
        let mut steps = known.steps().to_vec();
        let at = at % steps.len();
        match edit {
            0 => steps[at] = with,
            1 => { steps.remove(at); }
            _ => steps.insert(at, with),
        }
        let edited = HashRecipe::new(known.name(), steps);
        assert_is_the_fold(&edited, key, 1 << log2, odd);
        // Same name, so equality is exactly equality of the steps.
        prop_assert_eq!(&edited == known, edited.steps() == known.steps());
    }

    /// A clone is indistinguishable from its original.
    #[test]
    fn clones_are_equal_and_hash_alike(
        steps in prop::collection::vec(step(), 0..24),
        key in any::<u64>(),
    ) {
        for recipe in named().into_iter().chain([HashRecipe::new("arbitrary", steps.clone())]) {
            let clone = recipe.clone();
            prop_assert_eq!(&clone, &recipe);
            prop_assert_eq!(clone.name(), recipe.name());
            prop_assert_eq!(clone.steps(), recipe.steps());
            prop_assert_eq!(clone.eval(key), recipe.eval(key));
            prop_assert_eq!(clone.op_count(), recipe.op_count());
        }
    }
}

/// The prefix trap: `robust64` is a strict prefix of `heavy128`, and
/// `heavy128` plus one step extends it — neither may run the other's
/// kernel.
#[test]
fn prefixes_and_extensions_of_known_lists_are_their_own_recipes() {
    let (robust, heavy) = (HashRecipe::robust64(), HashRecipe::heavy128());
    let mut longer = heavy.steps().to_vec();
    longer.push(HashStep::XorShr(1));
    let candidates = [
        heavy.steps()[..robust.steps().len()].to_vec(),
        heavy.steps()[..robust.steps().len() + 1].to_vec(),
        heavy.steps()[robust.steps().len()..].to_vec(),
        robust.steps()[..robust.steps().len() - 1].to_vec(),
        longer,
        Vec::new(),
    ];
    for steps in candidates {
        let recipe = HashRecipe::new("cut", steps);
        for key in [0, 1, 42, u64::MAX, 0x1234_5678_9abc_def0] {
            assert_is_the_fold(&recipe, key, 1 << 20, 7);
        }
    }
}

/// Keys drawn from `0..KEYS`, so streams repeat keys and chains grow.
const KEYS: u64 = 24;

/// Pair streams from empty to a few 16-pair prefetch windows plus an
/// odd tail.
fn pair_stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0..KEYS, any::<u64>()), 0..75)
}

fn insert_loop(mut index: HashIndex, pairs: &[(u64, u64)]) -> HashIndex {
    for &(key, payload) in pairs {
        index.insert(key, payload);
    }
    index
}

fn assert_same_index(got: &HashIndex, want: &HashIndex) {
    assert!(got.buckets() == want.buckets(), "bucket arrays differ");
    assert!(got.nodes() == want.nodes(), "node pools differ");
    assert_eq!(got.len(), want.len());
    assert_eq!(got.free_nodes(), want.free_nodes());
    for key in 0..KEYS {
        assert_eq!(got.lookup_all(key), want.lookup_all(key), "key {key}");
    }
}

proptest! {
    #[test]
    fn build_is_the_insert_loop(pairs in pair_stream(), min_buckets in 1usize..=64) {
        let recipe = HashRecipe::robust64();
        let built = HashIndex::build(recipe.clone(), min_buckets, pairs.iter().copied());
        let empty = HashIndex::build(recipe, min_buckets, std::iter::empty());
        assert_same_index(&built, &insert_loop(empty, &pairs));
    }

    /// Into an index whose free list is not empty, `insert_batch` pops
    /// the freed slots in the order the insert loop does.
    #[test]
    fn insert_batch_reuses_freed_slots_like_the_insert_loop(
        base in pair_stream(),
        doomed in prop::collection::vec(0..KEYS, 0..6),
        pairs in pair_stream(),
        min_buckets in 1usize..=64,
    ) {
        // Two entries under one key share a bucket, so deleting that key
        // frees at least one overflow slot.
        let twice = doomed.first().copied().unwrap_or(0);
        let mut index = HashIndex::build(HashRecipe::robust64(), min_buckets, base);
        index.insert(twice, 0);
        index.insert(twice, 1);
        for key in doomed.iter().copied().chain([twice]) {
            index.delete(key);
        }
        prop_assert!(index.free_nodes() > 0);
        let mut batched = index.clone();
        batched.insert_batch(pairs.iter().copied());
        assert_same_index(&batched, &insert_loop(index, &pairs));
    }
}
