//! Ablation: the paper's hierarchical framework with the *naive
//! independent* randomizer of Example 4.2 instead of FutureRand.
//!
//! Identical to `rtf_core::protocol::run_in_memory` except each client's
//! sequence randomizer perturbs every non-zero partial sum with an
//! independent basic randomized response of budget `ε/k_eff` (and zeros
//! uniformly). Its gap is `Θ(ε/k)` instead of `Θ(ε/√k)`, so comparing the
//! two runs isolates exactly the composed randomizer's `√k` contribution
//! — everything else (sampling, hierarchy, estimation) is shared code:
//! both run the same client schedule and server through
//! `rtf_core::protocol::run_clients`, and only the randomizer factory
//! differs.

use rtf_core::params::ProtocolParams;
use rtf_core::protocol::{run_clients, ProtocolOutcome};
use rtf_core::randomizer::IndependentRand;
use rtf_core::server::Server;
use rtf_streams::population::Population;

/// Runs the hierarchical framework with the Example 4.2 randomizer.
pub fn run_independent(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
) -> ProtocolOutcome {
    let gaps: Vec<f64> = (0..params.num_orders())
        .map(|h| IndependentRand::gap(params.k_for_order(h), params.epsilon()))
        .collect();
    let mut server = Server::new(*params, &gaps);
    run_clients(params, population, seed, &mut server, |h, _, rng| {
        IndependentRand::new(
            params.sequence_len(h),
            params.k_for_order(h),
            params.epsilon(),
            rng,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_primitives::seeding::SeedSequence;
    use rtf_streams::generator::UniformChanges;

    fn linf(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn runs_and_is_deterministic() {
        let params = ProtocolParams::new(300, 32, 4, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(20).rng();
        let pop = Population::generate(&UniformChanges::new(32, 4, 0.8), 300, &mut rng);
        let a = run_independent(&params, &pop, 3);
        let b = run_independent(&params, &pop, 3);
        assert_eq!(a.estimates(), b.estimates());
    }

    #[test]
    fn future_rand_beats_independent_at_large_k() {
        // The √k-vs-k ablation. With exact constants the two gaps are
        // tanh(ε/(2k)) ≈ ε/(2k) (independent) vs ≈ 0.08·ε/√k (FutureRand),
        // so the crossover sits near k ≈ 40 at ε = 1 (the `exp_error_vs_k`
        // bench prints both columns); by k = 256 FutureRand wins by ≈ 2.6×.
        let n = 1_000usize;
        let d = 256u64;
        let k = 256usize;
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(21).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 1.0), n, &mut rng);
        let trials = 4;
        let table = rtf_core::composed::ComposedRandomizer::per_order(&params);
        let (mut fr, mut ind) = (0.0, 0.0);
        for s in 0..trials {
            let a = rtf_core::protocol::run_in_memory(&params, &pop, 500 + s, &table);
            let b = run_independent(&params, &pop, 500 + s);
            fr += linf(a.estimates(), pop.true_counts()) / trials as f64;
            ind += linf(b.estimates(), pop.true_counts()) / trials as f64;
        }
        assert!(ind > 1.5 * fr, "independent {ind} vs FutureRand {fr}");
    }

    #[test]
    fn unbiasedness() {
        let n = 300usize;
        let d = 8u64;
        let params = ProtocolParams::new(n, d, 2, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(22).rng();
        let pop = Population::generate(&UniformChanges::new(d, 2, 1.0), n, &mut rng);
        let trials = 600;
        let mut mean = vec![0.0; d as usize];
        for s in 0..trials {
            let o = run_independent(&params, &pop, 2_000 + s);
            for (m, &e) in mean.iter_mut().zip(o.estimates()) {
                *m += e / trials as f64;
            }
        }
        let gap = (1.0f64 / 2.0 / 2.0).tanh(); // k_eff = 2 at low orders
        let per_trial_sd = 4.0 / gap * (n as f64).sqrt();
        let tol = 5.0 * per_trial_sd / (trials as f64).sqrt();
        let bias = linf(&mean, pop.true_counts());
        assert!(bias < tol, "bias {bias} vs tol {tol}");
    }
}
