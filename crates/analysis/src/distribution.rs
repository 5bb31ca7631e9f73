//! First-principles output laws, independent of `rtf-core`'s log-domain
//! implementation.
//!
//! Everything here is linear-space `f64` arithmetic built from Pascal's
//! triangle — deliberately *different code* from
//! `rtf_core::gap::WeightClassLaw`, so the two act as independent
//! derivations of the same mathematics. Limited to moderate `k`
//! (binomials overflow `f64` near `k ≈ 1000`), which is all the audits
//! need.

use rtf_core::annulus::Annulus;
use rtf_primitives::sign::Ternary;

/// One row of Pascal's triangle: `C(k, 0..=k)` in `f64`.
///
/// # Panics
/// Panics for `k > 1000` (overflow territory — use
/// `rtf_core::gap::WeightClassLaw` for large `k`).
pub fn binomial_row(k: usize) -> Vec<f64> {
    assert!(k <= 1000, "binomial_row overflows f64 beyond k ≈ 1000");
    let mut row = vec![1.0f64];
    for i in 0..k {
        row.push(row[i] * (k - i) as f64 / (i + 1) as f64);
    }
    row
}

/// Per-string output probabilities of the composed randomizer `R̃` by
/// Hamming distance: `result[w] = Pr[R̃(b) = s]` for any `s` with
/// `‖b − s‖₀ = w`, derived from the definition in linear space.
pub fn composed_per_string_probs(k: usize, eps_tilde: f64) -> Vec<f64> {
    let annulus = Annulus::for_parameters(k, eps_tilde);
    composed_per_string_probs_with_annulus(k, eps_tilde, &annulus)
}

/// Same as [`composed_per_string_probs`] but over an explicit annulus
/// (used to audit the Bun et al. parameterisation too).
pub fn composed_per_string_probs_with_annulus(
    k: usize,
    eps_tilde: f64,
    annulus: &Annulus,
) -> Vec<f64> {
    assert_eq!(annulus.k(), k, "annulus built for different k");
    let p = 1.0 / (eps_tilde.exp() + 1.0);
    let row = binomial_row(k);
    let g = |w: usize| p.powi(w as i32) * (1.0 - p).powi((k - w) as i32);
    // P*_out = Σ_out C·g / Σ_out C.
    let mut num = 0.0;
    let mut den = 0.0;
    for w in annulus.outside() {
        num += row[w] * g(w);
        den += row[w];
    }
    let p_star = num / den;
    (0..=k)
        .map(|w| if annulus.contains(w) { g(w) } else { p_star })
        .collect()
}

/// Every `≤ k`-sparse ternary sequence of length `l`, for brute-force
/// audits. Sequences are generated in lexicographic order of support.
pub fn enumerate_sparse_ternary(l: usize, k: usize) -> Vec<Vec<Ternary>> {
    let mut out = Vec::new();
    // Iterate over support masks with ≤ k bits, then over sign patterns.
    for mask in 0u32..(1u32 << l) {
        let m = mask.count_ones() as usize;
        if m > k {
            continue;
        }
        let positions: Vec<usize> = (0..l).filter(|&j| mask & (1 << j) != 0).collect();
        for signs in 0u32..(1u32 << m) {
            let mut v = vec![Ternary::Zero; l];
            for (i, &j) in positions.iter().enumerate() {
                v[j] = if signs & (1 << i) != 0 {
                    Ternary::Minus
                } else {
                    Ternary::Plus
                };
            }
            out.push(v);
        }
    }
    out
}

/// The exact output pmf of the *online* FutureRand over all `2^l` report
/// sequences, for input `v` (length `l`, at most `k` non-zeros).
///
/// Outputs are indexed by bitmask: bit `j` set means `ω_{j+1} = +1`.
///
/// Derivation (Sections 5.3–5.4): with support positions
/// `j_1 < … < j_m`, the output satisfies `ω_{j_i} = v_{j_i}·b̃_i`, so
/// `Pr[ω | v] = 2^{−(l−m)} · Σ_{s ∈ G} Pr[b̃ = s]` where `G` pins the
/// first `m` coordinates of `s` to `ω_{j_i}·v_{j_i}` and leaves the rest
/// free; `Pr[b̃ = s]` depends only on the number of `−1`s in `s`.
pub fn futurerand_output_pmf(l: usize, k: usize, epsilon: f64, v: &[Ternary]) -> Vec<f64> {
    assert_eq!(v.len(), l, "input length mismatch");
    assert!(l <= 24, "2^l outputs — keep l small");
    let m = v.iter().filter(|t| t.is_nonzero()).count();
    assert!(m <= k, "input has {m} non-zeros > k = {k}");
    let eps_tilde = epsilon / (5.0 * (k as f64).sqrt());
    let q = composed_per_string_probs(k, eps_tilde);
    let free = k - m;
    let free_row = binomial_row(free);
    let support: Vec<usize> = (0..l).filter(|&j| v[j].is_nonzero()).collect();

    let mut pmf = Vec::with_capacity(1 << l);
    let zero_factor = 0.5f64.powi((l - m) as i32);
    for omega in 0u32..(1u32 << l) {
        // c = number of pinned coordinates of s equal to −1.
        let mut c = 0usize;
        for (i, &j) in support.iter().enumerate() {
            let omega_j = if omega & (1 << j) != 0 { 1i8 } else { -1i8 };
            let pinned = omega_j * v[j].value();
            debug_assert!(pinned != 0);
            if pinned < 0 {
                c += 1;
            }
            let _ = i;
        }
        // Σ over the free coordinates: w' of them −1.
        let mut mass = 0.0;
        for (w_free, &cnt) in free_row.iter().enumerate() {
            mass += cnt * q[c + w_free];
        }
        pmf.push(zero_factor * mass);
    }
    pmf
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_core::gap::WeightClassLaw;

    #[test]
    #[allow(clippy::needless_range_loop)] // w indexes two parallel laws
    fn per_string_probs_match_core_law() {
        // Independent linear-space derivation vs rtf-core's log-space law.
        for k in [1usize, 3, 8, 40, 200] {
            for eps in [0.3, 1.0] {
                let et = eps / (5.0 * (k as f64).sqrt());
                let ours = composed_per_string_probs(k, et);
                let law = WeightClassLaw::for_protocol(k, eps);
                for w in 0..=k {
                    let core_val = law.ln_per_string_prob(w).exp();
                    let rel = (ours[w] - core_val).abs() / core_val.max(1e-300);
                    assert!(rel < 1e-9, "k={k} w={w}: {} vs {core_val}", ours[w]);
                }
            }
        }
    }

    #[test]
    fn per_string_probs_normalise() {
        for k in [2usize, 5, 17, 64] {
            let et = 1.0 / (5.0 * (k as f64).sqrt());
            let q = composed_per_string_probs(k, et);
            let row = binomial_row(k);
            let total: f64 = q.iter().zip(&row).map(|(a, b)| a * b).sum();
            assert!((total - 1.0).abs() < 1e-10, "k={k}: {total}");
        }
    }

    #[test]
    fn enumerate_counts_match_formula() {
        // #sequences = Σ_{m ≤ k} C(l,m)·2^m.
        for (l, k) in [(3usize, 1usize), (4, 2), (5, 5), (6, 3)] {
            let row = binomial_row(l);
            let expect: f64 = (0..=k.min(l)).map(|m| row[m] * 2f64.powi(m as i32)).sum();
            let got = enumerate_sparse_ternary(l, k).len();
            assert_eq!(got as f64, expect, "l={l} k={k}");
        }
    }

    #[test]
    fn enumerate_respects_sparsity() {
        for v in enumerate_sparse_ternary(6, 2) {
            assert!(v.iter().filter(|t| t.is_nonzero()).count() <= 2);
        }
    }

    #[test]
    fn futurerand_pmf_sums_to_one() {
        for v in [
            vec![Ternary::Zero; 4],
            vec![Ternary::Plus, Ternary::Zero, Ternary::Minus, Ternary::Zero],
            vec![Ternary::Plus, Ternary::Plus, Ternary::Zero, Ternary::Zero],
        ] {
            let pmf = futurerand_output_pmf(4, 2, 1.0, &v);
            let total: f64 = pmf.iter().sum();
            assert!((total - 1.0).abs() < 1e-10, "{v:?}: {total}");
        }
    }

    #[test]
    fn all_zero_input_gives_uniform_output() {
        // Property III: with no non-zeros every output sequence has
        // probability 2^{-l}.
        let pmf = futurerand_output_pmf(5, 3, 1.0, &[Ternary::Zero; 5]);
        for &p in &pmf {
            assert!((p - 1.0 / 32.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_matches_monte_carlo() {
        // Simulate the actual online FutureRand and compare the empirical
        // output distribution against the exact pmf.
        use rand::SeedableRng;
        use rtf_core::composed::ComposedRandomizer;
        use rtf_core::randomizer::{FutureRand, LocalRandomizer};
        use rtf_primitives::sign::Sign;

        let l = 4usize;
        let k = 2usize;
        let eps = 1.0;
        let v = vec![Ternary::Plus, Ternary::Zero, Ternary::Minus, Ternary::Zero];
        let exact = futurerand_output_pmf(l, k, eps, &v);
        let composed = ComposedRandomizer::for_protocol(k, eps);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let draws = 200_000usize;
        let mut counts = vec![0u64; 1 << l];
        for _ in 0..draws {
            let mut m = FutureRand::init(l, &composed, &mut rng);
            let mut omega = 0u32;
            for (j, &vj) in v.iter().enumerate() {
                if m.next(vj) == Sign::Plus {
                    omega |= 1 << j;
                }
            }
            counts[omega as usize] += 1;
        }
        let expected: Vec<f64> = exact.iter().map(|p| p * draws as f64).collect();
        let (chi2, dof) = crate::stats::chi_square_stat(&counts, &expected, 5.0);
        assert!(
            chi2 < crate::stats::chi_square_critical_999(dof),
            "chi2 {chi2} dof {dof}"
        );
    }

    #[test]
    fn bounded_support_case_matches_full_support_marginals() {
        // Section 5.4: with |supp| = 1 < k = 2 the law uses only the first
        // b̃ bit. The marginal of ω at the support position must show gap
        // c_gap; zero positions must be exactly uniform.
        let l = 3usize;
        let k = 2usize;
        let eps = 0.8;
        let v = vec![Ternary::Zero, Ternary::Plus, Ternary::Zero];
        let pmf = futurerand_output_pmf(l, k, eps, &v);
        let law = WeightClassLaw::for_protocol(k, eps);
        // Marginal Pr[ω_2 = +1] − Pr[ω_2 = −1] must equal c_gap.
        let mut gap = 0.0;
        let mut zero_bias = 0.0;
        for (omega, &p) in pmf.iter().enumerate() {
            gap += if omega & 0b010 != 0 { p } else { -p };
            zero_bias += if omega & 0b001 != 0 { p } else { -p };
        }
        assert!(
            (gap - law.c_gap()).abs() < 1e-10,
            "gap {gap} vs {}",
            law.c_gap()
        );
        assert!(zero_bias.abs() < 1e-12);
    }
}
