//! The ordered tier's one sort: a stable LSD radix sort of `(key,
//! payload)` pairs by key, eight bits a pass, skipping digits in which no
//! key varies. A pass split over threads gives each a contiguous run of
//! the input and cuts the output into per-bucket, per-run slices, run
//! `t`'s share of a bucket ahead of run `t + 1`'s: stable, in safe code.

use super::shard::run_jobs;

/// Bits per digit, and the buckets a pass sorts into.
const BITS: u32 = 8;
const BUCKETS: usize = 1 << BITS;

type Pair = (u64, u64);

/// Sorts `pairs` by key, stably (equal keys keep their input order),
/// splitting each pass over `threads` (at least one; `1` spawns no
/// thread).
pub(super) fn sort_pairs(pairs: &mut Vec<Pair>, threads: usize) {
    // One read finds both whether there is work and which digits do it.
    let first = pairs.first().map_or(0, |(key, _)| *key);
    let (mut sorted, mut varying, mut prev) = (true, 0u64, first);
    for &(key, _) in pairs.iter() {
        sorted &= prev <= key;
        varying |= key ^ first;
        prev = key;
    }
    if sorted {
        return;
    }
    let mut scratch = vec![(0, 0); pairs.len()];
    let mut odd = false;
    for shift in (0..u64::BITS).step_by(BITS as usize) {
        if digit(varying, shift) != 0 {
            scatter(pairs, &mut scratch, shift, threads);
            std::mem::swap(pairs, &mut scratch);
            odd = !odd;
        }
    }
    // End in the caller's buffer so the scratch is freed before anything
    // is built above it in the heap, where it would stay resident.
    if odd {
        scratch.copy_from_slice(pairs);
        std::mem::swap(pairs, &mut scratch);
    }
}

/// The `BITS`-wide digit of `key` at `shift`.
fn digit(key: u64, shift: u32) -> usize {
    (key >> shift) as usize & (BUCKETS - 1)
}

/// One stable pass: `src` scattered into `dst` by the digit at `shift`.
fn scatter(src: &[Pair], dst: &mut [Pair], shift: u32, threads: usize) {
    let runs: Vec<&[Pair]> = src.chunks(src.len().div_ceil(threads)).collect();
    let jobs = runs.iter().map(|run| move || count(run, shift));
    let counts = run_jobs(threads > 1, jobs);
    // Bucket-major, run-minor: run `t`'s share of a bucket follows `t - 1`'s.
    let mut outs: Vec<[&mut [Pair]; BUCKETS]> = counts
        .iter()
        .map(|_| std::array::from_fn(|_| <&mut [Pair]>::default()))
        .collect();
    let mut rest = dst;
    for bucket in 0..BUCKETS {
        for (out, count) in outs.iter_mut().zip(&counts) {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(count[bucket]);
            out[bucket] = head;
            rest = tail;
        }
    }
    let work = runs.into_iter().zip(outs);
    let jobs = work.map(|(run, out)| move || place(run, out, shift));
    run_jobs(threads > 1, jobs);
}

/// How many keys of `run` fall in each bucket of the digit at `shift`.
fn count(run: &[Pair], shift: u32) -> [usize; BUCKETS] {
    let mut count = [0; BUCKETS];
    for &(key, _) in run {
        count[digit(key, shift)] += 1;
    }
    count
}

/// Writes `run` in order into its per-bucket slices `out`.
fn place(run: &[Pair], out: [&mut [Pair]; BUCKETS], shift: u32) {
    let mut filled = [0; BUCKETS];
    for &pair in run {
        let bucket = digit(pair.0, shift);
        out[bucket][filled[bucket]] = pair;
        filled[bucket] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(pairs: &[Pair]) -> Vec<Pair> {
        let mut want = pairs.to_vec();
        want.sort_by_key(|(k, _)| *k);
        want
    }

    #[test]
    fn split_passes_below_the_floor_sort_stably() {
        // Payload = input position, so any reordering of equal keys shows.
        let inputs: [Vec<u64>; 5] = [
            (0..500u64).map(|i| (i * 7919) % 13).collect(),
            (0..500u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            (0..300u64)
                .rev()
                .map(|i| i << 40 | u64::MAX >> 62)
                .collect(),
            vec![u64::MAX, 0, u64::MAX, 1 << 63, 5, 1 << 63],
            vec![42],
        ];
        for keys in &inputs {
            let pairs: Vec<Pair> = keys
                .iter()
                .enumerate()
                .map(|(i, k)| (*k, i as u64))
                .collect();
            for threads in [1, 2, 3] {
                let mut sorted = pairs.clone();
                sort_pairs(&mut sorted, threads);
                assert_eq!(sorted, reference(&pairs), "{threads} threads over {keys:?}");
            }
        }
    }

    #[test]
    fn sorted_and_empty_input_are_left_alone() {
        let mut empty: Vec<Pair> = Vec::new();
        sort_pairs(&mut empty, 2);
        assert!(empty.is_empty());
        let mut sorted: Vec<Pair> = (0..100u64).map(|k| (k / 3, 100 - k)).collect();
        let want = sorted.clone();
        sort_pairs(&mut sorted, 3);
        assert_eq!(sorted, want);
    }
}
