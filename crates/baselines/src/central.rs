//! The central-model binary-tree mechanism (Dwork et al. 2010, Chan et
//! al. 2011) — the trusted-curator reference point of Section 6.
//!
//! A trusted curator sees the exact per-period derivative totals
//! `Σ_u X_u[t]`, builds the dyadic tree of interval sums, adds independent
//! Laplace noise to every node, and answers prefix queries via `C(t)`.
//!
//! **Sensitivity.** One user's whole longitudinal record changes at most
//! `k` leaf values by ±1 each, and each leaf feeds `1 + log d` nodes, so
//! the ℓ₁ sensitivity of the node vector is `k·(1 + log d)`; Laplace scale
//! `k·(1 + log d)/ε` gives `ε`-DP for the *entire* horizon — the
//! apples-to-apples counterpart of the local protocols' user-level `ε`.
//! Per-time error is `O((k/ε)·(log d)^{1.5})`, independent of `n`: the
//! local-vs-central gap the `exp_central_gap` bench measures is `Θ(√n)`.

use rtf_core::params::ProtocolParams;
use rtf_core::protocol::ProtocolOutcome;
use rtf_dyadic::tree::DyadicTree;
use rtf_primitives::laplace::Laplace;
use rtf_primitives::seeding::SeedSequence;
use rtf_streams::population::Population;

/// Runs the central-model tree mechanism over a population.
///
/// Returns estimates of `a[t]` for every `t`; `reports_sent` counts the
/// (unperturbed) per-period contributions users would upload to the
/// curator.
pub fn run_central_tree(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
) -> ProtocolOutcome {
    assert_eq!(population.n(), params.n(), "population/params n mismatch");
    assert_eq!(population.d(), params.d(), "population/params d mismatch");
    let d = params.d();
    // Exact per-period derivative totals (the curator sees the truth).
    let mut leaves = vec![0.0f64; d as usize];
    for s in population.streams() {
        for (i, &c) in s.change_times().iter().enumerate() {
            leaves[(c - 1) as usize] += if i % 2 == 0 { 1.0 } else { -1.0 };
        }
    }
    let mut tree = DyadicTree::from_leaves(params.horizon(), &leaves);
    let scale = (params.k() as f64) * (1.0 + f64::from(params.log_d())) / params.epsilon();
    let lap = Laplace::new(scale);
    let mut rng = SeedSequence::new(seed).child(0xCE47).rng();
    tree.perturb(|_| lap.sample(&mut rng));
    let estimates: Vec<f64> = (1..=d).map(|t| tree.prefix_sum(t)).collect();
    ProtocolOutcome::from_parts(estimates, vec![params.n()], params.n() as u64 * d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_streams::generator::UniformChanges;

    fn linf(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn error_is_n_free_and_small() {
        // Error depends on (k, d, ε) only: same envelope for n = 100 and
        // n = 10_000.
        let d = 64u64;
        let k = 4usize;
        // (1+log d) nodes per query, each Laplace(k(1+log d)/ε):
        // whp bound ≈ (1+log d)·scale·ln(2d/β).
        let scale = (k as f64) * 7.0 / 1.0;
        let envelope = 7.0 * scale * (2.0 * d as f64 / 0.05f64).ln();
        for n in [100usize, 10_000] {
            let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
            let mut rng = SeedSequence::new(6).rng();
            let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
            let o = run_central_tree(&params, &pop, 9);
            let err = linf(o.estimates(), pop.true_counts());
            assert!(err < envelope, "n={n}: err {err} vs envelope {envelope}");
        }
    }

    #[test]
    fn zero_noise_limit_recovers_truth() {
        // With a huge ε the Laplace scale shrinks; error must be tiny
        // relative to n. (ε ≤ 1 in ProtocolParams, so emulate by checking
        // the unperturbed tree path through DyadicTree directly.)
        let n = 500usize;
        let d = 32u64;
        let mut rng = SeedSequence::new(7).rng();
        let pop = Population::generate(&UniformChanges::new(d, 3, 0.8), n, &mut rng);
        let mut leaves = vec![0.0f64; d as usize];
        for s in pop.streams() {
            for (i, &c) in s.change_times().iter().enumerate() {
                leaves[(c - 1) as usize] += if i % 2 == 0 { 1.0 } else { -1.0 };
            }
        }
        let tree = DyadicTree::from_leaves(rtf_dyadic::interval::Horizon::new(d), &leaves);
        for t in 1..=d {
            assert!(
                (tree.prefix_sum(t) - pop.true_counts()[(t - 1) as usize]).abs() < 1e-9,
                "t = {t}"
            );
        }
    }

    #[test]
    fn central_crushes_local_at_moderate_n() {
        let n = 5_000usize;
        let d = 64u64;
        let k = 4usize;
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(8).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        let central = run_central_tree(&params, &pop, 3);
        let table = rtf_core::composed::ComposedRandomizer::per_order(&params);
        let local = rtf_core::protocol::run_in_memory(&params, &pop, 3, &table);
        let err_c = linf(central.estimates(), pop.true_counts());
        let err_l = linf(local.estimates(), pop.true_counts());
        assert!(
            err_l > 5.0 * err_c,
            "local {err_l} should dwarf central {err_c}"
        );
    }

    #[test]
    fn determinism() {
        let params = ProtocolParams::new(100, 16, 2, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(9).rng();
        let pop = Population::generate(&UniformChanges::new(16, 2, 0.5), 100, &mut rng);
        let a = run_central_tree(&params, &pop, 5);
        let b = run_central_tree(&params, &pop, 5);
        assert_eq!(a.estimates(), b.estimates());
    }
}
