//! Uniform fixed-size subset sampling.
//!
//! The composed randomizer's resampling branch needs a uniformly random
//! string at a given Hamming distance `w` from a base string — i.e. a
//! uniformly random `w`-subset of the `k` coordinate positions to flip.
//! [`sample_subset`] implements Floyd's algorithm: `O(w)` expected time and
//! memory, independent of `k`, which matters because `k` may be large while
//! the annulus keeps `w` near `k·p`.
//!
//! For a ground set of at most 64 elements (every client's `b̃` at
//! `k ≤ 64`, and every population over `d ≤ 64` periods) the chosen set
//! lives in a `u64` bitmask: the same draws in the same order, no hashing
//! and, in [`flip_random_subset`], no allocation. Larger sets keep a
//! `HashSet`.

use rand::Rng;
use std::collections::HashSet;

/// Floyd's draws over `{0, …, n−1}` for `n ≤ 64`, the chosen set as a
/// bitmask. Draw for draw the sequence [`sample_subset`] makes for any
/// `n`: none when `w == 0` or `w == n`.
fn subset_mask<R: Rng + ?Sized>(n: usize, w: usize, rng: &mut R) -> u64 {
    debug_assert!(n <= 64);
    assert!(w <= n, "cannot sample {w} elements from a set of {n}");
    if w == n {
        return u64::MAX.checked_shr((64 - n) as u32).unwrap_or(0);
    }
    let mut mask = 0u64;
    for j in (n - w)..n {
        let t = rng.random_range(0..=j);
        mask |= if (mask >> t) & 1 == 0 {
            1u64 << t
        } else {
            1u64 << j
        };
    }
    mask
}

/// The set bits of `mask`, ascending.
fn mask_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Draws a uniformly random `w`-element subset of `{0, …, n−1}`.
///
/// The returned indices are sorted ascending (callers iterate them against
/// coordinate vectors; sorted order makes that cache-friendly and the output
/// deterministic given the chosen set).
///
/// # Panics
/// Panics if `w > n`.
pub fn sample_subset<R: Rng + ?Sized>(n: usize, w: usize, rng: &mut R) -> Vec<usize> {
    if n <= 64 {
        return mask_bits(subset_mask(n, w, rng)).collect();
    }
    assert!(w <= n, "cannot sample {w} elements from a set of {n}");
    if w == 0 {
        return Vec::new();
    }
    if w == n {
        return (0..n).collect();
    }
    // Floyd's algorithm: for j = n−w .. n−1, insert a uniform t ∈ {0..j};
    // on collision insert j itself. Produces uniform w-subsets.
    let mut chosen: HashSet<usize> = HashSet::with_capacity(w * 2);
    for j in (n - w)..n {
        let t = rng.random_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    let mut out: Vec<usize> = chosen.into_iter().collect();
    out.sort_unstable();
    out
}

/// Flips the signs of `base` at a uniformly random `w`-subset of positions,
/// in place. This realises "a uniform string at Hamming distance exactly `w`
/// from `base`". Makes exactly the draws of
/// `sample_subset(base.len(), w, rng)`; allocation-free for
/// `base.len() ≤ 64`.
///
/// # Panics
/// Panics if `w > base.len()`.
pub fn flip_random_subset<R: Rng + ?Sized>(base: &mut [crate::sign::Sign], w: usize, rng: &mut R) {
    if base.len() <= 64 {
        for i in mask_bits(subset_mask(base.len(), w, rng)) {
            base[i] = base[i].flipped();
        }
    } else {
        for i in sample_subset(base.len(), w, rng) {
            base[i] = base[i].flipped();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sign::Sign;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn subset_size_and_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1usize, 5, 64, 1000] {
            for w in [0usize, 1, n / 2, n] {
                let s = sample_subset(n, w, &mut rng);
                assert_eq!(s.len(), w);
                assert!(s.iter().all(|&i| i < n));
                assert!(s.windows(2).all(|p| p[0] < p[1]), "sorted & distinct");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversized_subset_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let _ = sample_subset(3, 4, &mut rng);
    }

    #[test]
    fn subsets_are_uniform() {
        // All C(5,2)=10 subsets should appear with equal frequency.
        let mut rng = StdRng::seed_from_u64(3);
        let draws = 100_000;
        let mut counts: HashMap<Vec<usize>, usize> = HashMap::new();
        for _ in 0..draws {
            *counts.entry(sample_subset(5, 2, &mut rng)).or_default() += 1;
        }
        assert_eq!(counts.len(), 10);
        for (s, &c) in &counts {
            let f = c as f64 / draws as f64;
            assert!((f - 0.1).abs() < 0.01, "subset {s:?} freq {f}");
        }
    }

    #[test]
    fn element_inclusion_probability_is_w_over_n() {
        let mut rng = StdRng::seed_from_u64(4);
        let (n, w) = (20usize, 7usize);
        let draws = 50_000;
        let mut hits = vec![0usize; n];
        for _ in 0..draws {
            for i in sample_subset(n, w, &mut rng) {
                hits[i] += 1;
            }
        }
        let expect = w as f64 / n as f64;
        for (i, &h) in hits.iter().enumerate() {
            let f = h as f64 / draws as f64;
            assert!((f - expect).abs() < 0.015, "position {i} freq {f}");
        }
    }

    #[test]
    fn flip_random_subset_changes_exactly_w_positions() {
        let mut rng = StdRng::seed_from_u64(5);
        let base = vec![Sign::Plus; 40];
        for w in [0usize, 1, 17, 40] {
            let mut v = base.clone();
            flip_random_subset(&mut v, w, &mut rng);
            let dist = v.iter().filter(|&&s| s == Sign::Minus).count();
            assert_eq!(dist, w);
        }
    }
}
