//! Property-based tests for the numerical primitives.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rtf_primitives::logspace::{ln_binomial, ln_factorial, log_add_exp, log_sum_exp, LogSumExp};
use rtf_primitives::seeding::{splitmix64, SeedSequence};
use rtf_primitives::sign::{Sign, Ternary};
use rtf_primitives::subset::{flip_random_subset, sample_subset, Subset};
use std::collections::HashSet;

proptest! {
    /// ln n! is strictly increasing and super-additive-ish:
    /// ln (n+1)! = ln n! + ln(n+1).
    #[test]
    fn ln_factorial_recurrence(n in 0u64..100_000) {
        let lhs = ln_factorial(n + 1);
        let rhs = ln_factorial(n) + ((n + 1) as f64).ln();
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    /// Pascal's rule in log space: C(n,k) = C(n-1,k-1) + C(n-1,k).
    #[test]
    fn pascals_rule(n in 1u64..2_000, k_frac in 0.0f64..1.0) {
        let k = ((n as f64) * k_frac) as u64;
        let lhs = ln_binomial(n, k);
        let rhs = log_add_exp(
            ln_binomial(n - 1, k.wrapping_sub(1).min(n)),
            ln_binomial(n - 1, k),
        );
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()),
            "n={n} k={k}: {lhs} vs {rhs}");
    }

    /// Binomial symmetry: C(n, k) = C(n, n−k).
    #[test]
    fn binomial_symmetry(n in 0u64..50_000, k_frac in 0.0f64..=1.0) {
        let k = ((n as f64) * k_frac) as u64;
        let a = ln_binomial(n, k);
        let b = ln_binomial(n, n - k);
        prop_assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
    }

    /// log_sum_exp equals the naive computation when it doesn't overflow.
    #[test]
    fn lse_matches_naive(terms in prop::collection::vec(-50.0f64..50.0, 1..50)) {
        let naive: f64 = terms.iter().map(|t| t.exp()).sum::<f64>().ln();
        let lse = log_sum_exp(&terms);
        prop_assert!((naive - lse).abs() < 1e-9 * (1.0 + naive.abs()));
    }

    /// Streaming LSE is permutation-invariant.
    #[test]
    fn lse_permutation_invariant(mut terms in prop::collection::vec(-300.0f64..300.0, 2..40)) {
        let forward = log_sum_exp(&terms);
        terms.reverse();
        let backward = log_sum_exp(&terms);
        prop_assert!((forward - backward).abs() < 1e-9 * (1.0 + forward.abs()));
        let mut acc = LogSumExp::new();
        for &t in &terms { acc.add(t); }
        prop_assert!((acc.value() - forward).abs() < 1e-9 * (1.0 + forward.abs()));
    }

    /// Subsets are always the right size, sorted, distinct, in range.
    #[test]
    fn subset_invariants(n in 1usize..2_000, w_frac in 0.0f64..=1.0, seed in 0u64..1_000) {
        let w = ((n as f64) * w_frac) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let s = sample_subset(n, w, &mut rng);
        prop_assert_eq!(s.len(), w);
        prop_assert!(s.iter().all(|&i| i < n));
        prop_assert!(s.windows(2).all(|p| p[0] < p[1]));
    }

    /// Sign arithmetic is a group action consistent with i8 arithmetic.
    #[test]
    fn sign_algebra(a in 0usize..2, b in 0usize..2) {
        let (x, y) = (Sign::ALL[a], Sign::ALL[b]);
        prop_assert_eq!(x.mul(y).value(), x.value() * y.value());
        prop_assert_eq!(x.mul(y), y.mul(x));
        prop_assert_eq!(x.mul(x), Sign::Plus);
        prop_assert_eq!((-x).value(), -x.value());
    }

    /// Ternary × Sign multiplication matches i8 arithmetic for non-zeros.
    #[test]
    fn ternary_mul(v in -1i8..=1, s in 0usize..2) {
        let sign = Sign::ALL[s];
        if v != 0 {
            let t = Ternary::from_i8(v);
            prop_assert_eq!(t.mul_sign(sign).value(), v * sign.value());
        }
    }

    /// Seed derivation: same path ⇒ same seed, sibling paths differ.
    #[test]
    fn seeding_paths(master in 0u64..u64::MAX, a in 0u64..10_000, b in 0u64..10_000) {
        let root = SeedSequence::new(master);
        prop_assert_eq!(root.child(a).seed(), root.child(a).seed());
        if a != b {
            prop_assert_ne!(root.child(a).seed(), root.child(b).seed());
            prop_assert_ne!(root.child(a).child(b).seed(), root.child(b).child(a).seed());
        }
    }

    /// splitmix64 has no fixed points on sampled inputs (injective mixing).
    #[test]
    fn splitmix_mixes(x in 0u64..u64::MAX) {
        // Not a theorem for every x, but a fixed point would be astonishing;
        // more importantly adjacent inputs must diverge.
        prop_assert_ne!(splitmix64(x), splitmix64(x ^ 1));
    }
}

/// Floyd's algorithm over a `HashSet`, for any `n` — the reference the
/// bitmask path of [`Subset`] (`n ≤ 64`) must match draw for draw.
fn floyd_reference(n: usize, w: usize, rng: &mut StdRng) -> Vec<usize> {
    if w == 0 {
        return Vec::new();
    }
    if w == n {
        return (0..n).collect();
    }
    let mut chosen = HashSet::new();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For every `n ≤ 64` and every `w ≤ n`, the bitmask subset is the
    /// `HashSet` reference's subset and leaves the rng where the
    /// reference leaves it, whether `sample_subset` collects it or a
    /// [`Subset`] yields it (all draws made before the first element) or
    /// lends it as a bitmask (`as_mask`);
    /// `flip_random_subset` flips exactly those positions with the same
    /// draws.
    #[test]
    fn bitmask_subsets_match_the_hashset_reference(seed in 0u64..u64::MAX) {
        for n in 0..=64usize {
            for w in 0..=n {
                let start = StdRng::seed_from_u64(seed ^ ((n as u64) << 8 | w as u64));
                let mut reference = start.clone();
                let expect = floyd_reference(n, w, &mut reference);
                let next = reference.next_u64();
                let mut a = start.clone();
                prop_assert_eq!(sample_subset(n, w, &mut a), expect.clone(), "n={} w={}", n, w);
                prop_assert_eq!(a.next_u64(), next, "rng state, n={} w={}", n, w);

                let mut b = start.clone();
                let subset = Subset::draw(n, w, &mut b);
                prop_assert_eq!(b.next_u64(), next, "iterator rng state, n={} w={}", n, w);
                prop_assert_eq!(subset.len(), w, "iterator length, n={} w={}", n, w);
                let mask = expect.iter().fold(0u64, |m, &i| m | 1 << i);
                prop_assert_eq!(subset.as_mask(), Some(mask), "mask, n={} w={}", n, w);
                prop_assert_eq!(subset.collect::<Vec<_>>(), expect.clone(), "iterator, n={} w={}", n, w);

                let base: Vec<Sign> = (0..n).map(|i| Sign::from_bool(i % 3 == 0)).collect();
                let mut flipped = base.clone();
                let mut c = start;
                flip_random_subset(&mut flipped, w, &mut c);
                let mut want = base;
                for i in expect {
                    want[i] = want[i].flipped();
                }
                prop_assert_eq!(flipped, want, "flip, n={} w={}", n, w);
                prop_assert_eq!(c.next_u64(), next, "flip rng state, n={} w={}", n, w);
            }
        }
    }
}
