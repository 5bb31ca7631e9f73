//! Uniform fixed-size subset sampling.
//!
//! The composed randomizer's resampling branch needs a uniformly random
//! string at a given Hamming distance `w` from a base string — i.e. a
//! uniformly random `w`-subset of the `k` coordinate positions to flip.
//! [`Subset::draw`] implements Floyd's algorithm: `O(w)` expected time and
//! memory, independent of `k`, which matters because `k` may be large while
//! the annulus keeps `w` near `k·p`.
//!
//! A [`Subset`] makes every draw when it is built and then yields the
//! chosen set ascending. For a ground set of at most 64 elements (every
//! client's `b̃` at `k ≤ 64`, and every population over `d ≤ 64` periods)
//! the set lives in a `u64` bitmask it owns: the same draws in the same
//! order, no hashing and no allocation. Larger sets keep a `HashSet` and
//! own the sorted `Vec`. [`sample_subset`] and [`flip_random_subset`] read
//! one.

use rand::Rng;
use std::collections::HashSet;

/// Floyd's draws over `{0, …, n−1}` for `n ≤ 64`, the chosen set as a
/// bitmask. Draw for draw the sequence the `HashSet` path makes for any
/// `n`: none when `w == 0` or `w == n`.
fn subset_mask<R: Rng + ?Sized>(n: usize, w: usize, rng: &mut R) -> u64 {
    debug_assert!(n <= 64 && w <= n);
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

/// A uniformly random `w`-element subset of `{0, …, n−1}`, drawn in full
/// by [`draw`](Self::draw) and yielded in ascending order (callers iterate
/// it against coordinate vectors or append it as sorted change times).
///
/// Holds the chosen set's remaining bits for `n ≤ 64`, or its sorted
/// elements for larger `n`; iterating draws nothing, so the caller's rng is
/// free inside the loop.
#[derive(Debug, Clone)]
pub struct Subset {
    mask: u64,
    sorted: std::vec::IntoIter<usize>,
}

impl Subset {
    /// Draws the subset with Floyd's algorithm: for `j = n−w … n−1`, insert
    /// a uniform `t ∈ {0..j}`, or `j` itself on a collision.
    ///
    /// # Panics
    /// Panics if `w > n`.
    pub fn draw<R: Rng + ?Sized>(n: usize, w: usize, rng: &mut R) -> Self {
        assert!(w <= n, "cannot sample {w} elements from a set of {n}");
        if n <= 64 {
            return Subset {
                mask: subset_mask(n, w, rng),
                sorted: Vec::new().into_iter(),
            };
        }
        let sorted = if w == 0 {
            Vec::new()
        } else if w == n {
            (0..n).collect()
        } else {
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
        };
        Subset {
            mask: 0,
            sorted: sorted.into_iter(),
        }
    }
}

impl Iterator for Subset {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.mask != 0 {
            let i = self.mask.trailing_zeros() as usize;
            self.mask &= self.mask - 1;
            Some(i)
        } else {
            self.sorted.next()
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.mask.count_ones() as usize + self.sorted.len();
        (len, Some(len))
    }
}

impl ExactSizeIterator for Subset {}

/// Draws a uniformly random `w`-element subset of `{0, …, n−1}`, sorted
/// ascending: [`Subset::draw`] collected.
///
/// # Panics
/// Panics if `w > n`.
pub fn sample_subset<R: Rng + ?Sized>(n: usize, w: usize, rng: &mut R) -> Vec<usize> {
    Subset::draw(n, w, rng).collect()
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
    for i in Subset::draw(base.len(), w, rng) {
        base[i] = base[i].flipped();
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
