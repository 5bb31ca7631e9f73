//! Differential + statistical proof of the client counter stream.
//!
//! Zero-slot reports come from a pure function of `(client key, report
//! index)` instead of per-report RNG draws. Two things must hold for it
//! to be sound:
//!
//! 1. **Determinism across execution paths** — in-memory ≡ sequential
//!    ≡ parallel{1,2,8} ≡ live (with kills and mid-period restarts),
//!    honest and under a fault storm, pinning the packed word-at-a-time
//!    path against the per-report path.
//! 2. **The statistics survive** — Property III's uniform signs: the
//!    estimator stays unbiased and its empirical variance matches
//!    `rtf_analysis`'s closed form. Per-bit uniformity of the raw
//!    generator is pinned in `rtf_primitives::fastseed`.

use proptest::prelude::*;
use rtf_analysis::variance::predicted_variance;
use rtf_core::composed::ComposedRandomizer;
use rtf_core::params::ProtocolParams;
use rtf_core::protocol::run_in_memory;
use rtf_primitives::seeding::SeedSequence;
use rtf_scenarios::oracle::{
    assert_exact_agreement, assert_live_agreement, assert_mode_agreement, tolerance_band,
};
use rtf_scenarios::Scenario;
use rtf_streams::generator::UniformChanges;
use rtf_streams::population::Population;

fn setup(n: usize, d: u64, k: usize, seed: u64) -> (ProtocolParams, Population) {
    let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
    let mut rng = SeedSequence::new(seed).rng();
    let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
    (params, pop)
}

fn storm() -> Scenario {
    Scenario::honest()
        .with_dropout(0.05)
        .with_stragglers(0.1, 3)
        .with_duplicates(0.05)
        .with_byzantine(0.1)
}

#[test]
fn fast_schema_agrees_across_all_paths_honest() {
    let (params, pop) = setup(110, 16, 2, 200);
    assert_exact_agreement(&params, &pop, 61);
    assert_live_agreement(&params, &pop, 61, &Scenario::honest());
}

#[test]
fn fast_schema_agrees_across_all_paths_under_a_fault_storm() {
    let (params, pop) = setup(110, 16, 2, 201);
    assert_mode_agreement(&params, &pop, 62, &storm());
    assert_live_agreement(&params, &pop, 62, &storm());
}

#[test]
fn fast_schema_estimator_is_unbiased_within_variance() {
    // Repeated independent deployments (fresh seed ⇒ fresh client keys ⇒
    // fresh counter streams): the per-period mean error must sit inside a
    // z-band of the standard error, and the empirical variance must match
    // the closed form, within 6 standard errors and 35%.
    let (params, pop) = setup(250, 16, 3, 203);
    let table = ComposedRandomizer::per_order(&params);
    let trials = 250u64;
    let d = params.d() as usize;
    let truth = pop.true_counts();
    let (mut sum, mut sq) = (vec![0.0f64; d], vec![0.0f64; d]);
    for s in 0..trials {
        let out = run_in_memory(&params, &pop, 5_000 + s, &table);
        for (t, &e) in out.estimates().iter().enumerate() {
            sum[t] += e;
            sq[t] += e * e;
        }
    }
    let predicted = predicted_variance(&params, &pop);
    let n = trials as f64;
    for t in 0..d {
        let mean = sum[t] / n;
        let var = (sq[t] / n - mean * mean).max(0.0);
        let se = (var / n).sqrt().max(1e-12);
        let z = (mean - truth[t]).abs() / se;
        assert!(z <= 6.0, "period {}: mean error z-score {z}", t + 1);
        let rel = (var - predicted[t]).abs() / predicted[t];
        assert!(
            rel <= 0.35,
            "period {}: empirical variance {var} off the closed form {} by {rel}",
            t + 1,
            predicted[t]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random protocol shapes: a single honest deployment stays inside
    /// the closed-form tolerance band around the truth.
    #[test]
    fn fast_schema_runs_sit_inside_the_variance_band(
        n in 300usize..600,
        log_d in 3u32..=5,
        k in 1usize..=3,
        seed in 0u64..10_000,
    ) {
        let d = 1u64 << log_d;
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        let table = ComposedRandomizer::per_order(&params);
        let out = run_in_memory(&params, &pop, seed ^ 0xFA57, &table);
        let band = tolerance_band(&params, &pop, 5.5);
        let truth = pop.true_counts();
        for (t, ((e, a), b)) in out.estimates().iter().zip(truth).zip(&band).enumerate() {
            prop_assert!(
                (e - a).abs() <= *b,
                "period {}: |{} - {}| > {}", t + 1, e, a, b
            );
        }
    }
}
