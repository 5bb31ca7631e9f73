//! Exact variance prediction for the protocol's estimates.
//!
//! Beyond unbiasedness, the estimator's *second* moment is predictable in
//! closed form, which pins the entire pipeline (sampling, randomizer,
//! scaling, aggregation) far more tightly than error bounds do.
//!
//! For user `u` and period `t`, the contribution
//! `Y_u = Σ_{I ∈ C(t)} z_u[I]` is non-zero for at most one interval (the
//! one whose order matches `h_u`), where it equals `±scale(h)` with
//! `scale(h) = (1 + log d)/c_gap(h)`. Therefore, exactly,
//!
//! ```text
//! E[Y_u²] = Σ_{h ∈ orders(C(t))} scale(h)² / (1 + log d)
//! Var[Y_u] = E[Y_u²] − st_u[t]²     (E[Y_u] = st_u[t] by unbiasedness)
//! ```
//!
//! and `Var[â[t]] = Σ_u Var[Y_u]` by independence across users. The
//! [`predicted_variance`] function evaluates this; tests (and the T8-style
//! experiments) check the empirical variance against it.

use rtf_core::gap::WeightClassLaw;
use rtf_core::params::ProtocolParams;
use rtf_streams::population::Population;

/// The per-order scales `(1 + log d)/c_gap(h)` of the FutureRand
/// protocol's estimator (paper parameterisation).
pub fn future_rand_scales(params: &ProtocolParams) -> Vec<f64> {
    let factor = 1.0 + f64::from(params.log_d());
    (0..params.num_orders())
        .map(|h| {
            factor / WeightClassLaw::for_protocol(params.k_for_order(h), params.epsilon()).c_gap()
        })
        .collect()
}

/// Exact `Var[â[t]]` for every `t`, for a concrete population (the
/// variance is over the protocol's randomness: order sampling, the
/// randomizers, and the report bits).
pub fn predicted_variance(params: &ProtocolParams, population: &Population) -> Vec<f64> {
    let scales = future_rand_scales(params);
    let orders_f = 1.0 + f64::from(params.log_d());
    let d = params.d();
    // Per-period second moment of one user's contribution: depends only
    // on which orders appear in C(t) (the set bits of t).
    let mut e_y2 = vec![0.0f64; d as usize];
    for (t, slot) in e_y2.iter_mut().enumerate() {
        let tt = (t + 1) as u64;
        let mut sum = 0.0;
        for (h, scale) in scales.iter().enumerate() {
            if tt & (1 << h) != 0 {
                sum += scale * scale;
            }
        }
        *slot = sum / orders_f;
    }
    // Var[â[t]] = Σ_u (E[Y²] − st_u[t]²) = n·E[Y²] − Σ_u st_u[t]
    // (st ∈ {0,1} so st² = st, and Σ_u st_u[t] = a[t]).
    let n = params.n() as f64;
    e_y2.iter()
        .zip(population.true_counts())
        .map(|(&m2, &a_t)| n * m2 - a_t)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_core::composed::ComposedRandomizer;
    use rtf_primitives::seeding::SeedSequence;
    use rtf_streams::generator::UniformChanges;

    #[test]
    fn empirical_variance_matches_prediction() {
        // The strongest pipeline check we have: the measured Var[â[t]] of
        // the exact engine must match the closed form at every period.
        // Per shape: (n, d, k, ε), the population seed, the first protocol
        // seed, the trial count and the relative tolerance. The sample
        // variance of a (roughly normal) statistic has relative sd
        // ≈ √(2/trials): ≈ 3.7% at 1,500 trials, where 22% is 6σ, and
        // ≈ 8% at 300, where 35% is about 4σ.
        for (n, d, k, eps, pop_seed, base_seed, trials, tol) in [
            (
                400usize, 16u64, 3usize, 1.0, 70u64, 9_000u64, 1_500u64, 0.22,
            ),
            (300, 16, 3, 1.0, 40, 1_000, 300, 0.35),
            (150, 32, 2, 0.5, 41, 1_000, 300, 0.35),
        ] {
            let params = ProtocolParams::new(n, d, k, eps, 0.05).unwrap();
            let mut rng = SeedSequence::new(pop_seed).rng();
            let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
            let predicted = predicted_variance(&params, &pop);
            let table = ComposedRandomizer::per_order(&params);

            let mut mean = vec![0.0f64; d as usize];
            let mut m2 = vec![0.0f64; d as usize];
            for s in 0..trials {
                let o = rtf_sim::engine::batched(&params, &pop, base_seed + s, &table, 1);
                for (t, &e) in o.estimates.iter().enumerate() {
                    mean[t] += e;
                    m2[t] += e * e;
                }
            }
            for t in 0..d as usize {
                let m = mean[t] / trials as f64;
                let var = m2[t] / trials as f64 - m * m;
                let rel = (var - predicted[t]).abs() / predicted[t];
                assert!(
                    rel < tol,
                    "{params}, t={}: empirical var {var:.3e} vs predicted {:.3e} (rel {rel:.3})",
                    t + 1,
                    predicted[t]
                );
            }
        }
    }

    #[test]
    fn variance_grows_with_popcount_of_t() {
        // More set bits in t ⇒ more orders contribute ⇒ larger variance
        // (monotone in the subset of orders when scales are comparable).
        let params = ProtocolParams::new(1_000, 64, 4, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(71).rng();
        let pop = Population::generate(&UniformChanges::new(64, 4, 0.5), 1_000, &mut rng);
        let v = predicted_variance(&params, &pop);
        // t = 63 (six set bits) must exceed t = 32 (one set bit, the
        // largest single order).
        assert!(v[62] > v[31], "v(63)={} v(32)={}", v[62], v[31]);
        // And every variance is positive for n ≫ a[t].
        assert!(v.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn scales_match_server() {
        let params = ProtocolParams::new(100, 32, 4, 0.7, 0.05).unwrap();
        let server = rtf_core::server::Server::for_future_rand(params);
        let ours = future_rand_scales(&params);
        for (a, b) in ours.iter().zip(server.scales()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
