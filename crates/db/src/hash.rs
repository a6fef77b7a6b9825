//! Hash functions as *recipes* — sequences of ALU steps.
//!
//! The paper stresses that real DBMS hash functions are "more robust than
//! what is shown [in Listing 1], employing a sequence of arithmetic
//! operations with multiple constants", and that key hashing is
//! ALU-intensive (up to 68 % of lookup time). Crucially, the Widx ISA of
//! Table 1 has **no multiply** — its fused `ADD-SHF`/`AND-SHF`/`XOR-SHF`
//! instructions exist precisely to build robust mixers out of shift +
//! logic steps.
//!
//! To keep one source of truth between (a) the software engine, (b) the
//! Widx program generator, and (c) the µop trace generator for the
//! baseline cores, a hash function is represented as a [`HashRecipe`]:
//! a list of [`HashStep`]s, each trivially mappable to 1–2 Widx
//! instructions. The steps are the contract; the other layers compile
//! them, and so does the software engine for the lists it knows:
//! [`HashRecipe::new`] recognises the step lists of `trivial`,
//! `robust64` and `heavy128` and [`HashRecipe::eval`] runs them as
//! straight-line code (the paper's decoupled hashing unit, in software),
//! folding over the steps only for a list it has no kernel for.

use std::fmt;

/// One ALU step of a hash recipe, operating on a 64-bit running value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HashStep {
    /// `x ^= constant`
    XorConst(u64),
    /// `x = x.wrapping_add(constant)`
    AddConst(u64),
    /// `x &= constant`
    AndConst(u64),
    /// `x ^= x >> amount` (maps to one fused `XOR-SHF`)
    XorShr(u8),
    /// `x ^= x << amount` (maps to one fused `XOR-SHF`)
    XorShl(u8),
    /// `x = x.wrapping_add(x << amount)` (maps to one fused `ADD-SHF`)
    AddShl(u8),
    /// `x = x.wrapping_add(x >> amount)` (maps to one fused `ADD-SHF`)
    AddShr(u8),
}

impl HashStep {
    /// Applies the step to `x`.
    #[must_use]
    #[inline]
    pub fn apply(self, x: u64) -> u64 {
        match self {
            HashStep::XorConst(c) => x ^ c,
            HashStep::AddConst(c) => x.wrapping_add(c),
            HashStep::AndConst(c) => x & c,
            HashStep::XorShr(a) => x ^ (x >> a),
            HashStep::XorShl(a) => x ^ (x << a),
            HashStep::AddShl(a) => x.wrapping_add(x << a),
            HashStep::AddShr(a) => x.wrapping_add(x >> a),
        }
    }

    /// Number of Widx instructions the step compiles to (constants live
    /// in pre-loaded registers, so every step is a single instruction).
    #[must_use]
    pub fn widx_ops(self) -> usize {
        1
    }
}

impl fmt::Display for HashStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HashStep::XorConst(c) => write!(f, "x ^= {c:#x}"),
            HashStep::AddConst(c) => write!(f, "x += {c:#x}"),
            HashStep::AndConst(c) => write!(f, "x &= {c:#x}"),
            HashStep::XorShr(a) => write!(f, "x ^= x >> {a}"),
            HashStep::XorShl(a) => write!(f, "x ^= x << {a}"),
            HashStep::AddShl(a) => write!(f, "x += x << {a}"),
            HashStep::AddShr(a) => write!(f, "x += x >> {a}"),
        }
    }
}

/// Declares one step list twice from one spelling: as the `$steps`
/// slice a recipe is built from (and recognised by), and as `$kernel`,
/// the same steps applied to literals one after another — which the
/// compiler folds to straight-line shifts and adds, with no `match`
/// and no loop left.
macro_rules! kernel {
    ($steps:ident, $kernel:ident: $($step:expr),+ $(,)?) => {
        const $steps: &[HashStep] = &[$($step),+];

        #[inline(always)]
        fn $kernel(x: u64) -> u64 {
            $(let x = $step.apply(x);)+
            x
        }
    };
}

kernel!(TRIVIAL, trivial_kernel:
    HashStep::AndConst(0xFFFF_FFFF),
    HashStep::XorConst(0xB1C9),
);

kernel!(ROBUST64, robust64_kernel:
    HashStep::XorShr(33),
    HashStep::AddConst(0xff51_afd7_ed55_8ccd),
    HashStep::XorShl(21),
    HashStep::AddShl(3),
    HashStep::XorShr(29),
    HashStep::AddConst(0xc4ce_b9fe_1a85_ec53),
    HashStep::XorShl(17),
    HashStep::AddShr(7),
    HashStep::XorShr(32),
);

// `heavy128` is `robust64` followed by this second round.
kernel!(HEAVY128_TAIL, heavy128_tail_kernel:
    HashStep::AddConst(0x9e37_79b9_7f4a_7c15),
    HashStep::XorShr(30),
    HashStep::AddShl(13),
    HashStep::XorShl(27),
    HashStep::AddShr(11),
    HashStep::XorShr(31),
    HashStep::AddConst(0xbf58_476d_1ce4_e5b9),
    HashStep::XorShl(19),
    HashStep::AddShl(5),
    HashStep::XorShr(28),
);

/// Which code [`HashRecipe::eval`] runs. A function of the steps alone
/// (never of the name), so equal step lists hash alike whatever they
/// are called.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    /// No kernel for this list: fold over the steps.
    Fold,
    Trivial,
    Robust64,
    Heavy128,
}

impl Kernel {
    fn of(steps: &[HashStep]) -> Kernel {
        if steps == TRIVIAL {
            Kernel::Trivial
        } else if steps == ROBUST64 {
            Kernel::Robust64
        } else if steps.strip_prefix(ROBUST64) == Some(HEAVY128_TAIL) {
            Kernel::Heavy128
        } else {
            Kernel::Fold
        }
    }
}

/// A named hash function expressed as a sequence of [`HashStep`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HashRecipe {
    name: &'static str,
    steps: Vec<HashStep>,
    kernel: Kernel,
}

impl HashRecipe {
    /// Builds a recipe from raw steps.
    #[must_use]
    pub fn new(name: &'static str, steps: Vec<HashStep>) -> HashRecipe {
        let kernel = Kernel::of(&steps);
        HashRecipe {
            name,
            steps,
            kernel,
        }
    }

    /// The trivial masked-XOR hash of the paper's Listing 1:
    /// `HASH(X) = ((X) & MASK) ^ HPRIME`. Used by the optimized hash-join
    /// kernel, which the paper notes "implements an oversimplified hash
    /// function".
    #[must_use]
    pub fn trivial() -> HashRecipe {
        HashRecipe::new("trivial", TRIVIAL.to_vec())
    }

    /// A robust 64-bit finalizer-style mixer (xorshift chains in the
    /// spirit of SplitMix/Murmur finalizers, but multiply-free so it maps
    /// 1:1 onto the fused Widx instructions). This is the "robust hashing
    /// function ... to distribute the keys uniformly" the paper ascribes
    /// to production DBMS indexes.
    #[must_use]
    pub fn robust64() -> HashRecipe {
        HashRecipe::new("robust64", ROBUST64.to_vec())
    }

    /// A computation-heavy hash for wide/double-integer keys, modelled on
    /// the paper's TPC-H query 20 discussion ("a large index with double
    /// integers that require computationally intensive hashing"): two
    /// chained robust rounds.
    #[must_use]
    pub fn heavy128() -> HashRecipe {
        HashRecipe::new("heavy128", [ROBUST64, HEAVY128_TAIL].concat())
    }

    /// The recipe's name (for reports).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The steps in evaluation order.
    #[must_use]
    pub fn steps(&self) -> &[HashStep] {
        &self.steps
    }

    /// Number of ALU steps (= Widx instructions = baseline ALU µops).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.steps.iter().map(|s| s.widx_ops()).sum()
    }

    /// Evaluates the hash of `key` in software: one dispatch to the
    /// list's kernel, or the fold over [`steps`](HashRecipe::steps) for
    /// a list without one. Both compute the same value.
    #[must_use]
    #[inline]
    pub fn eval(&self, key: u64) -> u64 {
        match self.kernel {
            Kernel::Trivial => trivial_kernel(key),
            Kernel::Robust64 => robust64_kernel(key),
            Kernel::Heavy128 => heavy128_tail_kernel(robust64_kernel(key)),
            Kernel::Fold => self.steps.iter().fold(key, |x, s| s.apply(x)),
        }
    }

    /// Hashes `key` and reduces it to a bucket index below
    /// `bucket_count` (which must be a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `bucket_count` is not a power of two.
    #[must_use]
    #[inline]
    pub fn bucket_of(&self, key: u64, bucket_count: u64) -> u64 {
        assert!(
            bucket_count.is_power_of_two(),
            "bucket count must be a power of two"
        );
        self.eval(key) & (bucket_count - 1)
    }

    /// Hashes `key` and reduces it to a shard index below `shard_count`.
    ///
    /// The recipe's hash is remixed with a Fibonacci multiply and the
    /// *upper* 32 bits of the product select the shard, while
    /// [`bucket_of`](HashRecipe::bucket_of) masks the hash's raw lower
    /// bits — so shard and bucket selection stay effectively
    /// independent even for recipes whose output fits in 32 bits (e.g.
    /// [`trivial`](HashRecipe::trivial), whose raw upper word is always
    /// zero). The multiply is fine here: shard routing runs on the
    /// serving host, not on the multiply-free Widx units, so the ISA
    /// constraint on recipe *steps* does not apply. Any shard count ≥ 1
    /// is accepted (shards are thread-level, not layout-level, so there
    /// is no power-of-two requirement).
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero.
    #[must_use]
    #[inline]
    pub fn shard_of(&self, key: u64, shard_count: u64) -> u64 {
        assert!(shard_count > 0, "need at least one shard");
        let upper = self.eval(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        // Same value either way; the mask spares the router a divide
        // per key at the usual power-of-two shard counts.
        if shard_count.is_power_of_two() {
            upper & (shard_count - 1)
        } else {
            upper % shard_count
        }
    }
}

impl fmt::Display for HashRecipe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} ops)", self.name, self.op_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_matches_listing_1() {
        let h = HashRecipe::trivial();
        assert_eq!(h.eval(0x1234_5678_9abc_def0), (0x9abc_def0u64) ^ 0xB1C9);
        assert_eq!(h.op_count(), 2);
    }

    #[test]
    fn recipes_are_deterministic() {
        let h = HashRecipe::robust64();
        assert_eq!(h.eval(42), h.eval(42));
        assert_ne!(h.eval(42), h.eval(43));
    }

    #[test]
    fn robust_spreads_sequential_keys() {
        // Sequential keys must spread across buckets — the whole point of
        // a robust mixer. Require every one of 256 buckets hit and no
        // bucket to exceed 3x the mean for 64k sequential keys.
        let h = HashRecipe::robust64();
        let buckets = 256u64;
        let mut counts = vec![0u32; buckets as usize];
        let n = 65_536u64;
        for k in 0..n {
            counts[h.bucket_of(k, buckets) as usize] += 1;
        }
        let mean = (n / buckets) as u32;
        assert!(counts.iter().all(|c| *c > 0), "empty bucket");
        assert!(
            counts.iter().all(|c| *c < mean * 3),
            "overloaded bucket: max {}",
            counts.iter().max().unwrap()
        );
    }

    #[test]
    fn trivial_does_not_spread_high_bits() {
        // The trivial hash keeps low-bit structure: keys differing only
        // above bit 32 collide. This is what makes it "oversimplified".
        let h = HashRecipe::trivial();
        assert_eq!(h.bucket_of(5, 256), h.bucket_of(5 | (1 << 40), 256));
    }

    #[test]
    fn heavy_has_more_ops_than_robust() {
        assert!(HashRecipe::heavy128().op_count() > HashRecipe::robust64().op_count());
        assert!(HashRecipe::robust64().op_count() > HashRecipe::trivial().op_count());
    }

    #[test]
    fn avalanche_single_bit_flip() {
        // Flipping one input bit should flip a substantial number of
        // output bits on average (weak avalanche test).
        let h = HashRecipe::robust64();
        let mut total_flips = 0u32;
        let samples = 200u64;
        for k in 0..samples {
            let a = h.eval(k * 0x9e37_79b9);
            let b = h.eval((k * 0x9e37_79b9) ^ 1);
            total_flips += (a ^ b).count_ones();
        }
        let avg = f64::from(total_flips) / samples as f64;
        assert!(avg > 20.0, "average bit flips {avg} too low");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bucket_of_requires_power_of_two() {
        let _ = HashRecipe::trivial().bucket_of(1, 100);
    }

    #[test]
    fn shard_of_spreads_and_stays_in_range() {
        let h = HashRecipe::robust64();
        for shards in [1u64, 2, 3, 4, 7, 16] {
            let mut counts = vec![0u32; shards as usize];
            for k in 0..8192u64 {
                counts[h.shard_of(k, shards) as usize] += 1;
            }
            let mean = 8192 / shards as u32;
            assert!(
                counts.iter().all(|c| *c > mean / 2 && *c < mean * 2),
                "imbalanced shards for count {shards}: {counts:?}"
            );
        }
    }

    #[test]
    fn shard_of_independent_of_bucket_of() {
        // Keys co-located in one shard must still spread over buckets:
        // within any shard, no single bucket of 64 captures more than a
        // small multiple of its fair share.
        let h = HashRecipe::robust64();
        let shards = 4u64;
        let buckets = 64u64;
        let mut per_bucket = vec![vec![0u32; buckets as usize]; shards as usize];
        let n = 32_768u64;
        for k in 0..n {
            let s = h.shard_of(k, shards) as usize;
            per_bucket[s][h.bucket_of(k, buckets) as usize] += 1;
        }
        let fair = (n / shards / buckets) as u32;
        for (s, counts) in per_bucket.iter().enumerate() {
            assert!(counts.iter().all(|c| *c > 0), "empty bucket in shard {s}");
            assert!(
                counts.iter().all(|c| *c < fair * 3),
                "bucket aliasing in shard {s}: max {}",
                counts.iter().max().unwrap()
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn shard_of_rejects_zero() {
        let _ = HashRecipe::robust64().shard_of(1, 0);
    }

    #[test]
    fn shard_of_spreads_32bit_recipes_too() {
        // `trivial` outputs fit in 32 bits (its upper hash word is
        // always zero): shard selection must still use all of them
        // rather than collapsing every key onto shard 0.
        let h = HashRecipe::trivial();
        for shards in [2u64, 3, 4, 8] {
            let mut counts = vec![0u32; shards as usize];
            for k in 0..8192u64 {
                counts[h.shard_of(k, shards) as usize] += 1;
            }
            let mean = 8192 / shards as u32;
            assert!(
                counts.iter().all(|c| *c > mean / 2 && *c < mean * 2),
                "trivial recipe imbalanced for {shards} shards: {counts:?}"
            );
        }
    }

    #[test]
    fn step_display() {
        assert_eq!(HashStep::XorShr(33).to_string(), "x ^= x >> 33");
        assert_eq!(HashStep::AddConst(0x10).to_string(), "x += 0x10");
    }
}
