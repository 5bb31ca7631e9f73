//! Integration: the extension layers (window queries, calibration,
//! post-processing, categorical domains) compose with the core protocol.

use randomize_future::analysis::metrics::linf_error;
use randomize_future::analysis::postprocess::{clip, moving_average};
use randomize_future::analysis::variance::predicted_variance;
use randomize_future::core::calibrate::calibrate;
use randomize_future::core::composed::{ComposedRandomizer, RandomizerTable};
use randomize_future::core::params::ProtocolParams;
use randomize_future::core::protocol::{keyed_future_rand, run_clients};
use randomize_future::core::server::Server;
use randomize_future::domain::generator::ZipfChurn;
use randomize_future::domain::protocol::{run_domain_tracker, DomainParams};
use randomize_future::primitives::seeding::SeedSequence;
use randomize_future::scenarios::{run, Mode, RunSpec};
use randomize_future::streams::generator::UniformChanges;
use randomize_future::streams::population::Population;

/// One run of the batched event engine on one worker under `table`.
fn exact(params: &ProtocolParams, pop: &Population, seed: u64, table: RandomizerTable) -> Vec<f64> {
    let spec = RunSpec::new(params, pop, seed, Mode::Batched(1)).with_table(table);
    run(&spec).estimates
}

#[test]
fn window_queries_are_unbiased_and_sharper_for_short_windows() {
    // Mean window-change estimates over trials converge to the true
    // change; the window estimator's variance beats prefix differencing
    // for short windows away from dyadic boundaries.
    let n = 2_000usize;
    let d = 64u64;
    let params = ProtocolParams::new(n, d, 4, 1.0, 0.05).unwrap();
    let mut rng = SeedSequence::new(80).rng();
    let pop = Population::generate(&UniformChanges::new(d, 4, 0.9), n, &mut rng);
    let (l, r) = (37u64, 42u64);
    let true_change = pop.true_counts()[(r - 1) as usize] - pop.true_counts()[(l - 2) as usize];
    let trials = 300u64;
    let mut mean_window = 0.0;
    let mut var_window = 0.0;
    let mut var_prefix = 0.0;
    let table = ComposedRandomizer::per_order(&params);
    for s in 0..trials {
        let mut server = Server::for_table(params, &table);
        server.enable_store();
        let outcome = run_clients(
            &params,
            &pop,
            7_000 + s,
            &mut server,
            keyed_future_rand(&params, &table),
        );
        let w = server.store().expect("store enabled").window_change(l, r);
        let p = outcome.estimates()[(r - 1) as usize] - outcome.estimates()[(l - 2) as usize];
        mean_window += w / trials as f64;
        var_window += w * w / trials as f64;
        var_prefix += p * p / trials as f64;
    }
    let bias = (mean_window - true_change).abs();
    let sd = (var_window / trials as f64).sqrt();
    assert!(bias < 6.0 * sd + 1.0, "window bias {bias} vs sd {sd}");
    // [37..42] covers ≤ 2·log(6) ≈ 5 intervals vs the prefixes' up to
    // 2(1+log d); expect a clear variance advantage.
    assert!(
        var_window < 0.8 * var_prefix,
        "window var {var_window} vs prefix-difference var {var_prefix}"
    );
}

#[test]
fn calibration_end_to_end_improvement_with_certified_privacy() {
    let n = 5_000usize;
    let d = 64u64;
    let k = 8usize;
    let params = ProtocolParams::new(n, d, k, 0.5, 0.05).unwrap();
    let mut rng = SeedSequence::new(81).rng();
    let pop = Population::generate(&UniformChanges::new(d, k, 1.0), n, &mut rng);
    // Certified privacy at every order's k_eff.
    for h in 0..params.num_orders() {
        let cal = calibrate(params.k_for_order(h), params.epsilon());
        assert!(cal.realized_epsilon <= params.epsilon() + 1e-9);
    }
    let trials = 8u64;
    let (mut cal_err, mut paper_err) = (0.0, 0.0);
    for s in 0..trials {
        let a = exact(&params, &pop, 600 + s, RandomizerTable::Calibrated);
        let b = exact(&params, &pop, 600 + s, RandomizerTable::Paper);
        cal_err += linf_error(&a, pop.true_counts()) / trials as f64;
        paper_err += linf_error(&b, pop.true_counts()) / trials as f64;
    }
    assert!(
        cal_err < 0.8 * paper_err,
        "calibrated {cal_err} vs paper {paper_err}"
    );
}

#[test]
fn postprocessing_never_hurts_and_often_helps() {
    let n = 3_000usize;
    let d = 128u64;
    let params = ProtocolParams::new(n, d, 2, 1.0, 0.05).unwrap();
    let mut rng = SeedSequence::new(82).rng();
    let pop = Population::generate(&UniformChanges::new(d, 2, 0.6), n, &mut rng);
    let raw = &exact(&params, &pop, 5, RandomizerTable::Paper);
    let clipped = clip(raw, n);
    assert!(linf_error(&clipped, pop.true_counts()) <= linf_error(raw, pop.true_counts()) + 1e-9);
    // Smoothing: k ≪ d means counts drift slowly, so a modest window
    // should reduce the ℓ∞ error on this instance.
    let smoothed = moving_average(&clipped, 5);
    assert!(linf_error(&smoothed, pop.true_counts()) < linf_error(&clipped, pop.true_counts()));
}

#[test]
fn variance_prediction_spans_crates() {
    // predicted_variance (analysis) vs the event engine (sim, through
    // scenarios' run seam) on a population (streams) under core params:
    // the cross-crate contract.
    let n = 300usize;
    let d = 8u64;
    let params = ProtocolParams::new(n, d, 2, 1.0, 0.05).unwrap();
    let mut rng = SeedSequence::new(83).rng();
    let pop = Population::generate(&UniformChanges::new(d, 2, 0.7), n, &mut rng);
    let predicted = predicted_variance(&params, &pop);
    let trials = 800u64;
    let mut mean = vec![0.0f64; d as usize];
    let mut m2 = vec![0.0f64; d as usize];
    for s in 0..trials {
        let o = exact(&params, &pop, 20_000 + s, RandomizerTable::Paper);
        for (t, &e) in o.iter().enumerate() {
            mean[t] += e;
            m2[t] += e * e;
        }
    }
    for t in 0..d as usize {
        let m = mean[t] / trials as f64;
        let var = m2[t] / trials as f64 - m * m;
        let rel = (var - predicted[t]).abs() / predicted[t];
        assert!(rel < 0.3, "t={}: {var:.3e} vs {:.3e}", t + 1, predicted[t]);
    }
}

#[test]
fn domain_tracker_composes_with_calibration() {
    let d = 16u64;
    let params = DomainParams {
        n: 3_000,
        d,
        k: 2,
        domain: 4,
        epsilon: 1.0,
        beta: 0.05,
        table: RandomizerTable::Calibrated,
    };
    let g = ZipfChurn::new(d, 4, 2, 1.2);
    let mut rng = SeedSequence::new(84).rng();
    let pop = g.population(3_000, &mut rng);
    let a = run_domain_tracker(&params, &pop, 1);
    let b = run_domain_tracker(&params, &pop, 1);
    assert_eq!(
        a.estimates(),
        b.estimates(),
        "calibrated tracker deterministic"
    );
    assert_eq!(a.estimates().len(), 4);
    // Calibrated variant differs from the uncalibrated one (different ε̃).
    let mut params_uncal = params;
    params_uncal.table = RandomizerTable::Paper;
    let c = run_domain_tracker(&params_uncal, &pop, 1);
    assert_ne!(a.estimates(), c.estimates());
}
