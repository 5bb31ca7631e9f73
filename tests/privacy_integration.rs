//! Integration: privacy guarantees audited across crate boundaries.
//!
//! `rtf-core` computes the output laws in log space for the protocol;
//! `rtf-analysis` re-derives them linearly from first principles and
//! brute-forces the end-to-end client. These tests pin the two against
//! each other and against the paper's lemmas on a broad grid.

use randomize_future::analysis::audit::{
    erlingsson_sequence_audit, futurerand_sequence_audit, independent_sequence_audit,
    realized_epsilon_composed,
};
use randomize_future::analysis::distribution::{composed_per_string_probs, futurerand_output_pmf};
use randomize_future::analysis::stats::{chi_square_critical_999, chi_square_stat, tv_distance};
use randomize_future::baselines::bun::BunRandomizer;
use randomize_future::core::composed::ComposedRandomizer;
use randomize_future::core::gap::WeightClassLaw;
use randomize_future::core::params::ProtocolParams;
use randomize_future::primitives::fastseed::SeedSchema;
use randomize_future::primitives::seeding::SeedSequence;
use randomize_future::primitives::sign::Sign;
use randomize_future::sim::engine::build_order_groups;
use randomize_future::streams::population::Population;
use randomize_future::streams::stream::BoolStream;

#[test]
fn lemma_5_2_grid() {
    for k in [
        1usize, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987,
    ] {
        for eps in [0.05, 0.1, 0.2, 0.4, 0.8, 1.0] {
            let law = WeightClassLaw::for_protocol(k, eps);
            let realized = law.realized_epsilon();
            assert!(
                realized <= eps + 1e-9,
                "privacy violation at k={k} eps={eps}: realized {realized}"
            );
            // And the realized loss is meaningful (not degenerate).
            assert!(realized > 0.01 * eps, "degenerate law at k={k} eps={eps}");
        }
    }
}

#[test]
fn core_and_analysis_agree_on_the_law() {
    for k in [1usize, 7, 32, 200, 800] {
        let eps = 0.7;
        let et = eps / (5.0 * (k as f64).sqrt());
        let linear = composed_per_string_probs(k, et);
        let law = WeightClassLaw::for_protocol(k, eps);
        for (w, &p_lin) in linear.iter().enumerate() {
            let p_log = law.ln_per_string_prob(w).exp();
            let rel = (p_lin - p_log).abs() / p_log.max(1e-300);
            assert!(rel < 1e-8, "k={k} w={w}: {p_lin} vs {p_log}");
        }
        let independent = realized_epsilon_composed(k, et);
        assert!((independent - law.realized_epsilon()).abs() < 1e-9);
    }
}

#[test]
fn theorem_4_5_end_to_end_client_grid() {
    for (l, k) in [(2usize, 1usize), (4, 1), (4, 2), (5, 2), (6, 3), (8, 2)] {
        for eps in [0.4, 1.0] {
            let audit = futurerand_sequence_audit(l, k, eps);
            assert!(
                audit.realized_epsilon <= eps + 1e-9,
                "Theorem 4.5 violated at L={l} k={k} eps={eps}: {}",
                audit.realized_epsilon
            );
        }
    }
}

#[test]
fn baseline_privacy_contracts() {
    // Independent randomizer: exactly ε (saturates the budget).
    let a = independent_sequence_audit(5, 2, 1.0);
    assert!((a.realized_epsilon - 1.0).abs() < 1e-9);
    // Erlingsson: exactly ε/2 as restated in Section 6 (documented
    // slack).
    let e = erlingsson_sequence_audit(6, 1.0);
    assert!((e.realized_epsilon - 0.5).abs() < 1e-9);
    // Bun: within ε, strictly positive.
    for k in [64usize, 512] {
        let b = BunRandomizer::solve(k, 1.0).expect("feasible");
        let r = b.law().realized_epsilon();
        assert!(r > 0.0 && r <= 1.0 + 1e-9, "k={k}: {r}");
    }
}

#[test]
fn privacy_holds_under_every_supported_epsilon_shape() {
    // ε at the boundary of the supported range and very small ε, where
    // rounding of the annulus bounds is most delicate.
    for k in [1usize, 10, 100, 1000] {
        for eps in [1e-3, 1e-2, 1.0] {
            let law = WeightClassLaw::for_protocol(k, eps);
            assert!(
                law.realized_epsilon() <= eps + 1e-9,
                "k={k} eps={eps}: {}",
                law.realized_epsilon()
            );
            assert!(law.c_gap() > 0.0);
        }
    }
}

/// Gates the engines' own emission path against the exact FutureRand
/// output law. For each `(k, change times)` case, many users share the
/// one change pattern over `d` periods; `build_order_groups` builds them
/// exactly as every batched engine does (order and `b̃` from each user's
/// seed node, keys from `client_key` over neighbouring nodes, each lane's
/// non-zero span sums resolved against its `b̃`), and `emit_span` emits
/// them span by span. The
/// order-0 lanes' report strings are gated against
/// `futurerand_output_pmf` by chi-square and total-variation distance.
/// This ties the ε the audit certifies to the bits the engines emit.
fn assert_emission_follows_output_law(d: u64, cases: &[(usize, &[u64])]) {
    const LANES: usize = 100_000;
    let epsilon = 1.0;
    for &(k, changes) in cases {
        let case = format!("d={d}, k={k}, changes {changes:?}");
        // Orders are uniform over 0..=log d: ~5% headroom above LANES.
        let n = LANES * (d.ilog2() as usize + 1) * 21 / 20;
        let params = ProtocolParams::new(n, d, k, epsilon, 0.05).unwrap();
        let stream = BoolStream::from_change_times(d, changes.to_vec());
        let input = stream.derivative().to_vec();
        let population = Population::from_streams(vec![stream; n]);
        let composed: Vec<ComposedRandomizer> = (0..params.num_orders())
            .map(|h| ComposedRandomizer::for_protocol(params.k_for_order(h), epsilon))
            .collect();
        let root = SeedSequence::new(d << 32 | (k as u64) << 16 | changes.len() as u64);
        let mut groups = build_order_groups(
            &params,
            &population,
            &composed,
            &root,
            0..n,
            SeedSchema::V2Fast,
        );
        let group = &mut groups[0];
        let draws = group.len();
        assert!(draws >= LANES, "{case}: {draws} order-0 lanes");

        // Bit t − 1 of a lane's string is its report for period t.
        let mut strings = vec![0usize; draws];
        for t in 1..=d {
            group.emit_span(t);
            for (lane, string) in strings.iter_mut().enumerate() {
                if group.signs.get(lane) == Sign::Plus {
                    *string |= 1 << (t - 1);
                }
            }
        }
        let mut counts = vec![0u64; 1 << d];
        for s in strings {
            counts[s] += 1;
        }

        let exact = futurerand_output_pmf(d as usize, params.k_for_order(0), epsilon, &input);
        let n_draws = draws as f64;
        let expected: Vec<f64> = exact.iter().map(|p| p * n_draws).collect();
        let (chi2, dof) = chi_square_stat(&counts, &expected, 5.0);
        let critical = chi_square_critical_999(dof);
        assert!(
            chi2 < critical,
            "{case}: chi2 {chi2:.1} ≥ {critical:.1} at {dof} dof"
        );
        // A cell's sampling error |p̂ − p| averages √(2p(1−p)/(πN)).
        let typical_tv: f64 = exact
            .iter()
            .map(|p| (2.0 * p * (1.0 - p) / (std::f64::consts::PI * n_draws)).sqrt())
            .sum::<f64>()
            / 2.0;
        let empirical: Vec<f64> = counts.iter().map(|&c| c as f64 / n_draws).collect();
        let tv = tv_distance(&empirical, &exact);
        assert!(
            tv < 2.0 * typical_tv,
            "{case}: TV {tv:.4} vs typical sampling TV {typical_tv:.4}"
        );
    }
}

/// `(k, change times)`: all zero, full support (mixed signs once
/// k ≥ 2), and bounded support `|supp| < k`, single-signed and mixed.
#[test]
fn engine_emission_follows_the_exact_output_law_d4() {
    assert_emission_follows_output_law(
        4,
        &[
            (1, &[]),
            (1, &[2]),
            (2, &[1, 3]),
            (2, &[3]),
            (3, &[1, 2, 4]),
            (3, &[2, 3]),
        ],
    );
}

/// As [`engine_emission_follows_the_exact_output_law_d4`], over 2⁸
/// report strings.
#[test]
fn engine_emission_follows_the_exact_output_law_d8() {
    assert_emission_follows_output_law(
        8,
        &[
            (1, &[5]),
            (2, &[]),
            (2, &[2, 7]),
            (3, &[3]),
            (3, &[1, 4, 8]),
            (3, &[6, 7]),
        ],
    );
}
