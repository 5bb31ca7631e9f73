//! Integration: the full protocol pipeline across all workspace crates.

use randomize_future::analysis::metrics::linf_error;
use randomize_future::baselines::registry::{LongitudinalProtocol, ProtocolKind};
use randomize_future::core::gap::WeightClassLaw;
use randomize_future::core::params::ProtocolParams;
use randomize_future::core::protocol::ProtocolOutcome;
use randomize_future::primitives::seeding::SeedSequence;
use randomize_future::scenarios::{run, Mode, RunSpec};
use randomize_future::streams::generator::{StreamGenerator, UniformChanges};
use randomize_future::streams::population::Population;

/// FutureRand on the batched event engine with one worker.
fn future_rand(params: &ProtocolParams, pop: &Population, seed: u64) -> ProtocolOutcome {
    run(&RunSpec::new(params, pop, seed, Mode::Batched(1))).into()
}

fn setup(n: usize, d: u64, k: usize, seed: u64) -> (ProtocolParams, Population) {
    let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
    let mut rng = SeedSequence::new(seed).rng();
    let pop = Population::generate(&UniformChanges::new(d, k, 0.9), n, &mut rng);
    (params, pop)
}

/// The rigorous Hoeffding envelope with exact per-order gaps.
fn exact_envelope(params: &ProtocolParams) -> f64 {
    let worst_scale = (0..params.num_orders())
        .map(|h| {
            let gap = WeightClassLaw::for_protocol(params.k_for_order(h), params.epsilon()).c_gap();
            (1.0 + f64::from(params.log_d())) / gap
        })
        .fold(0.0f64, f64::max);
    worst_scale * (2.0 * params.n() as f64 * (2.0 * params.d() as f64 / params.beta()).ln()).sqrt()
}

#[test]
fn full_pipeline_error_within_envelope() {
    let (params, pop) = setup(30_000, 128, 4, 1);
    let outcome = future_rand(&params, &pop, 11);
    let err = linf_error(outcome.estimates(), pop.true_counts());
    let envelope = exact_envelope(&params);
    assert!(err < envelope, "err {err} vs envelope {envelope}");
    assert!(err > 0.0, "estimates cannot be exact under LDP");
}

#[test]
fn every_protocol_full_run_is_deterministic() {
    let (params, pop) = setup(500, 32, 3, 2);
    for kind in ProtocolKind::ALL {
        let a = kind.run(&params, &pop, 7);
        let b = kind.run(&params, &pop, 7);
        assert_eq!(
            a.estimates(),
            b.estimates(),
            "{} not deterministic",
            kind.name()
        );
        assert_eq!(a.estimates().len(), 32, "{}", kind.name());
        let c = kind.run(&params, &pop, 8);
        assert_ne!(
            a.estimates(),
            c.estimates(),
            "{} ignores its seed",
            kind.name()
        );
    }
}

#[test]
fn headline_comparison_future_rand_wins_at_high_churn() {
    // The paper's main claim, end to end: at large k the √k protocol
    // beats the k-linear one. (Constants put the crossover near k ≈ 10
    // vs Erlingsson at ε = 1; `exp_error_vs_k` prints the sweep.)
    let (params, pop) = setup(2_000, 128, 64, 3);
    let trials = 5u64;
    let (mut ours, mut erl) = (0.0, 0.0);
    for s in 0..trials {
        let a = future_rand(&params, &pop, 100 + s);
        let b = ProtocolKind::Erlingsson.run(&params, &pop, 100 + s);
        ours += linf_error(a.estimates(), pop.true_counts()) / trials as f64;
        erl += linf_error(b.estimates(), pop.true_counts()) / trials as f64;
    }
    assert!(erl > 1.8 * ours, "Erlingsson {erl} vs FutureRand {ours}");
}

#[test]
fn protocols_handle_degenerate_horizons() {
    // d = 1: a single period; d = 2: a single split.
    for d in [1u64, 2] {
        let (params, pop) = setup(50, d, 1, 4 + d);
        for kind in ProtocolKind::ALL {
            let o = kind.run(&params, &pop, 5);
            assert_eq!(o.estimates().len(), d as usize, "{} at d={d}", kind.name());
            assert!(o.estimates().iter().all(|e| e.is_finite()));
        }
    }
}

#[test]
fn extreme_populations_run_cleanly() {
    let d = 32u64;
    let n = 200usize;
    let params = ProtocolParams::new(n, d, 32, 1.0, 0.05).unwrap();
    // Everyone changes every period (k = d = 32 after clamping).
    let busy = Population::from_streams(
        (0..n)
            .map(|_| {
                randomize_future::streams::stream::BoolStream::from_change_times(
                    d,
                    (1..=32).collect(),
                )
            })
            .collect(),
    );
    let o = future_rand(&params, &busy, 1);
    assert_eq!(o.estimates().len(), 32);
    // Nobody ever changes.
    let silent = Population::from_streams(
        (0..n)
            .map(|_| randomize_future::streams::stream::BoolStream::all_zero(d))
            .collect(),
    );
    let o2 = future_rand(&params, &silent, 1);
    assert!(o2.estimates().iter().all(|e| e.is_finite()));
}

#[test]
fn group_sizes_partition_population_across_protocols() {
    let (params, pop) = setup(3_333, 64, 4, 6);
    let o = future_rand(&params, &pop, 9);
    assert_eq!(o.group_sizes().iter().sum::<usize>(), 3_333);
    assert_eq!(o.group_sizes().len(), 7); // 1 + log2(64)

    // Orders are sampled uniformly: no group should be empty at this n,
    // and none should hold more than half the users.
    for (h, &sz) in o.group_sizes().iter().enumerate() {
        assert!(sz > 0, "order {h} empty");
        assert!(sz < 3_333 / 2, "order {h} oversized: {sz}");
    }
}

#[test]
fn generator_contract_respected_by_pipeline() {
    // The pipeline must reject populations that violate k-sparsity.
    let d = 16u64;
    let gen = UniformChanges::new(d, 4, 1.0);
    let mut rng = SeedSequence::new(10).rng();
    let pop = Population::generate(&gen, 100, &mut rng);
    assert_eq!(gen.k(), 4);
    let tight = ProtocolParams::new(100, d, 3, 1.0, 0.05).unwrap();
    let result = std::panic::catch_unwind(|| future_rand(&tight, &pop, 1));
    assert!(result.is_err(), "k-sparsity violation must be rejected");
}
