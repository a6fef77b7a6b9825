//! Per-query index profiles for the 12 DSS queries the paper simulates.
//!
//! The paper runs TPC-H queries 2, 11, 17, 19, 20, 22 and TPC-DS queries
//! 5, 37, 40, 52, 64, 82 on MonetDB over 100 GB datasets. We cannot ship
//! MonetDB or the datasets; what determines *indexing* behaviour is
//! captured per query instead:
//!
//! * **index size**, scaled to preserve cache residency against our
//!   32 KB L1 / 4 MB LLC (the paper's own TPC-DS footnote explains why
//!   its per-column indexes are small: 429 columns share the dataset);
//! * **node layout** — MonetDB stores keys *indirectly* (pointers into
//!   the base column), adding a dereference and address arithmetic
//!   (Section 6.2's explanation of the higher Comp fraction);
//! * **hash cost** — robust mixing for all, with TPC-H q20's
//!   "computationally intensive hashing" of double integers modelled by
//!   the double-round [`HashRecipe::heavy128`];
//! * **probe count** (sampled) and **match fraction**;
//! * the query-level **indexing-time fraction** from Figure 2a, used to
//!   project indexing speedup to whole-query speedup exactly as the
//!   paper does in Section 6.2.

use widx_db::hash::HashRecipe;
use widx_db::index::NodeLayout;

use crate::datagen;

/// Which benchmark suite a query belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Suite {
    /// TPC-H.
    TpcH,
    /// TPC-DS.
    TpcDs,
}

impl Suite {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Suite::TpcH => "TPC-H",
            Suite::TpcDs => "TPC-DS",
        }
    }
}

/// Hash-function class used by a query profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecipeKind {
    /// Standard robust mixer.
    Robust,
    /// Double-width mixer for computationally expensive keys (q20).
    Heavy,
}

impl RecipeKind {
    /// Instantiates the recipe.
    #[must_use]
    pub fn recipe(self) -> HashRecipe {
        match self {
            RecipeKind::Robust => HashRecipe::robust64(),
            RecipeKind::Heavy => HashRecipe::heavy128(),
        }
    }
}

/// The indexing profile of one simulated DSS query.
#[derive(Clone, Debug)]
pub struct QueryProfile {
    /// Query name as in the paper's figures (e.g. `qry17`).
    pub name: &'static str,
    /// Benchmark suite.
    pub suite: Suite,
    /// Index entries at reproduction scale.
    pub entries: usize,
    /// Physical layout (MonetDB-style indirect keys).
    pub layout: NodeLayout,
    /// Hash-function class.
    pub recipe: RecipeKind,
    /// Sampled probe count.
    pub probes: usize,
    /// Fraction of probes that find a match.
    pub match_fraction: f64,
    /// Fraction of total query time spent indexing (Figure 2a), used for
    /// whole-query speedup projection.
    pub index_fraction: f64,
    /// Workload seed.
    pub seed: u64,
}

impl QueryProfile {
    /// Default sampled probes per query.
    pub const DEFAULT_PROBES: usize = 12 * 1024;

    /// Buckets in the query's index: one per entry, rounded up to a power
    /// of two.
    #[must_use]
    pub fn bucket_count(&self) -> u64 {
        self.entries.max(1).next_power_of_two() as u64
    }

    /// Builds the query's `(key, row)` pairs in input order and the probe
    /// stream.
    ///
    /// Build keys are unique and shuffled; the probe stream mixes hits
    /// and misses per [`match_fraction`](QueryProfile::match_fraction).
    #[must_use]
    pub fn build(&self) -> (Vec<(u64, u64)>, Vec<u64>) {
        let pairs: Vec<(u64, u64)> = datagen::unique_shuffled_keys(self.seed, self.entries)
            .into_iter()
            .zip(0..)
            .collect();
        // Probes: hits are uniform over the key space [0, entries);
        // misses use keys >= entries which can never match.
        let raw = datagen::uniform_keys(self.seed ^ 0x9999, self.probes, self.entries as u64);
        let miss_mark = datagen::uniform_keys(self.seed ^ 0x7777, self.probes, 1_000_000);
        let threshold = (self.match_fraction * 1_000_000.0) as u64;
        let probes = raw
            .into_iter()
            .zip(miss_mark)
            .map(|(k, m)| {
                if m < threshold {
                    k
                } else {
                    k + self.entries as u64
                }
            })
            .collect();
        (pairs, probes)
    }

    /// Approximate bytes of the materialized index (headers + overflow
    /// nodes + key column).
    #[must_use]
    pub fn index_bytes(&self) -> usize {
        self.bucket_count() as usize * NodeLayout::HEADER_STRIDE
            + self.entries * self.layout.key_width
    }

    /// Overrides the probe count (for quick tests).
    #[must_use]
    pub fn with_probes(mut self, probes: usize) -> QueryProfile {
        self.probes = probes;
        self
    }

    /// The six simulated TPC-H queries (Figure 9a order).
    #[must_use]
    pub fn tpch() -> Vec<QueryProfile> {
        let q = |name, entries, recipe, match_fraction, index_fraction, seed| QueryProfile {
            name,
            suite: Suite::TpcH,
            entries,
            layout: NodeLayout::indirect8(),
            recipe,
            probes: Self::DEFAULT_PROBES,
            match_fraction,
            index_fraction,
            seed,
        };
        vec![
            // Small indexes with "no TLB misses" (Sec. 6.2): LLC-resident.
            q("qry2", 16 * 1024, RecipeKind::Robust, 0.80, 0.55, 102),
            q("qry11", 24 * 1024, RecipeKind::Robust, 0.85, 0.45, 111),
            q("qry17", 48 * 1024, RecipeKind::Robust, 0.90, 0.94, 117),
            // Memory-intensive queries with TLB-miss cycles (Sec. 6.2).
            q("qry19", 768 * 1024, RecipeKind::Robust, 0.75, 0.60, 119),
            q("qry20", 1024 * 1024, RecipeKind::Heavy, 0.80, 0.70, 120),
            q("qry22", 512 * 1024, RecipeKind::Robust, 0.70, 0.50, 122),
        ]
    }

    /// The six simulated TPC-DS queries (Figure 9b order) — small,
    /// often L1-resident indexes per the paper's 429-column footnote.
    #[must_use]
    pub fn tpcds() -> Vec<QueryProfile> {
        let q = |name, entries, match_fraction, index_fraction, seed| QueryProfile {
            name,
            suite: Suite::TpcDs,
            entries,
            layout: NodeLayout::indirect8(),
            recipe: RecipeKind::Robust,
            probes: Self::DEFAULT_PROBES,
            match_fraction,
            index_fraction,
            seed,
        };
        vec![
            q("qry5", 768, 0.85, 0.35, 205),
            // "Only a handful of unique index entries ... L1-resident
            // index (L1-D miss ratio < 1%)" — the paper's 1.5x floor.
            q("qry37", 256, 0.90, 0.29, 237),
            q("qry40", 24 * 1024, 0.80, 0.45, 240),
            q("qry52", 32 * 1024, 0.80, 0.50, 252),
            q("qry64", 512, 0.85, 0.55, 264),
            q("qry82", 640, 0.90, 0.40, 282),
        ]
    }

    /// All twelve simulated queries, TPC-H first.
    #[must_use]
    pub fn all() -> Vec<QueryProfile> {
        let mut v = Self::tpch();
        v.extend(Self::tpcds());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use widx_db::index::HashIndex;

    #[test]
    fn twelve_queries() {
        let all = QueryProfile::all();
        assert_eq!(all.len(), 12);
        assert_eq!(all.iter().filter(|q| q.suite == Suite::TpcH).count(), 6);
        assert_eq!(all.iter().filter(|q| q.suite == Suite::TpcDs).count(), 6);
    }

    #[test]
    fn tpcds_indexes_are_smaller() {
        let h: usize = QueryProfile::tpch().iter().map(|q| q.entries).sum();
        let ds: usize = QueryProfile::tpcds().iter().map(|q| q.entries).sum();
        assert!(
            ds * 10 < h,
            "TPC-DS {ds} should be far smaller than TPC-H {h}"
        );
    }

    #[test]
    fn q37_is_l1_resident() {
        let q37 = QueryProfile::tpcds()
            .into_iter()
            .find(|q| q.name == "qry37")
            .unwrap();
        assert!(
            q37.index_bytes() <= 32 * 1024,
            "bytes {}",
            q37.index_bytes()
        );
    }

    #[test]
    fn q20_uses_heavy_hash() {
        let q20 = QueryProfile::tpch()
            .into_iter()
            .find(|q| q.name == "qry20")
            .unwrap();
        assert_eq!(q20.recipe, RecipeKind::Heavy);
        assert!(
            q20.index_bytes() > 4 * 1024 * 1024,
            "q20 must exceed the LLC"
        );
    }

    #[test]
    fn match_fraction_is_respected() {
        let q = QueryProfile::tpcds().remove(0).with_probes(4000);
        let (pairs, probes) = q.build();
        let index = HashIndex::build(q.recipe.recipe(), q.bucket_count() as usize, pairs);
        let hits = probes
            .iter()
            .filter(|p| index.lookup(**p).is_some())
            .count();
        let frac = hits as f64 / probes.len() as f64;
        assert!((frac - q.match_fraction).abs() < 0.05, "fraction {frac}");
    }

    #[test]
    fn index_fractions_match_paper_quotes() {
        // Figure 2a commentary: q17 is 94% indexing; q37 is 29%.
        let all = QueryProfile::all();
        let q17 = all.iter().find(|q| q.name == "qry17").unwrap();
        let q37 = all.iter().find(|q| q.name == "qry37").unwrap();
        assert!((q17.index_fraction - 0.94).abs() < 1e-9);
        assert!((q37.index_fraction - 0.29).abs() < 1e-9);
    }
}
