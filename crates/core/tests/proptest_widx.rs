//! Property test: for arbitrary build/probe multisets, layouts, hash
//! recipes, and walker counts, the Widx accelerator's output equals the
//! software oracle on both the decoupled and the coupled (Figure 3b)
//! program sets — the strongest end-to-end guarantee the functional
//! simulation offers. The named recipes between them use every hash
//! step, so the walker's unfused expansions run too.

use proptest::prelude::*;
use widx_core::config::WidxConfig;
use widx_core::offload::{offload_probe, offload_probe_coupled};
use widx_db::hash::HashRecipe;
use widx_db::index::{HashIndex, KeyKind, NodeLayout};
use widx_sim::config::SystemConfig;
use widx_sim::mem::{MemorySystem, RegionAllocator};
use widx_workloads::memimg;

fn arb_layout() -> impl Strategy<Value = NodeLayout> {
    prop_oneof![
        Just(NodeLayout::kernel4()),
        Just(NodeLayout::direct8()),
        Just(NodeLayout::indirect8()),
        Just(NodeLayout {
            key_width: 4,
            key_kind: KeyKind::Indirect
        }),
    ]
}

fn arb_recipe() -> impl Strategy<Value = HashRecipe> {
    prop_oneof![
        Just(HashRecipe::trivial()),
        Just(HashRecipe::robust64()),
        Just(HashRecipe::heavy128()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn widx_equals_oracle(
        // Keys bounded so 4-byte layouts are exact.
        pairs in prop::collection::vec((0u64..5000, 0u64..1000), 0..120),
        probes in prop::collection::vec(0u64..6000, 0..60),
        layout in arb_layout(),
        recipe in arb_recipe(),
        walkers in 1usize..=4,
        buckets in 1usize..64,
    ) {
        // Indirect layouts require payloads to be build-row ids (they
        // index the materialized key column); renumber accordingly.
        let pairs: Vec<(u64, u64)> = if layout.key_kind == KeyKind::Indirect {
            pairs.iter().enumerate().map(|(row, (k, _))| (*k, row as u64)).collect()
        } else {
            pairs.clone()
        };
        let index = HashIndex::build(recipe, buckets, pairs.iter().copied());
        let mut mem = MemorySystem::new(SystemConfig::default());
        let mut alloc = RegionAllocator::new();
        let image = memimg::materialize(
            &mut mem, &mut alloc, index.recipe(), index.bucket_count() as u64, &pairs, &probes, layout,
        );
        let mut want: Vec<(u64, u64)> = probes
            .iter()
            .flat_map(|p| index.lookup_all(*p).into_iter().map(move |v| (*p, v)))
            .collect();
        want.sort_unstable();
        let config = WidxConfig::with_walkers(walkers);
        for offload in [offload_probe, offload_probe_coupled] {
            let result = offload(&mut mem.clone(), &image, &config);
            let mut got = result.matches().to_vec();
            got.sort_unstable();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(result.stats.tuples as usize, probes.len());
            // Time accounting sanity: every walker's breakdown sums to
            // no more than the elapsed window.
            for w in &result.stats.walkers {
                prop_assert!(w.total() <= result.stats.total_cycles + 2);
            }
        }
    }
}
