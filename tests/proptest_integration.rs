//! Cross-crate property-based tests: arbitrary parameters and workloads
//! through the full pipeline.

use proptest::prelude::*;
use randomize_future::analysis::metrics::{l1_error, l2_error, linf_error};
use randomize_future::core::params::ProtocolParams;
use randomize_future::primitives::seeding::SeedSequence;
use randomize_future::runtime::ExecMode;
use randomize_future::scenarios::{run_scenario_with, Scenario};
use randomize_future::sim::aggregate::run_future_rand_aggregate;
use randomize_future::sim::engine::{run_event_driven, run_event_driven_with};
use randomize_future::streams::generator::UniformChanges;
use randomize_future::streams::population::Population;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pipeline runs for arbitrary valid parameters and produces
    /// well-formed, finite, deterministic estimates.
    #[test]
    fn pipeline_total_function(
        n in 10usize..400,
        log_d in 1u32..7,
        k_raw in 1usize..10,
        eps in 0.1f64..=1.0,
        seed in 0u64..1_000,
    ) {
        let d = 1u64 << log_d;
        let k = k_raw.min(d as usize);
        let params = ProtocolParams::new(n, d, k, eps, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        let a = run_future_rand_aggregate(&params, &pop, seed);
        prop_assert_eq!(a.estimates().len(), d as usize);
        prop_assert!(a.estimates().iter().all(|e| e.is_finite()));
        let b = run_future_rand_aggregate(&params, &pop, seed);
        prop_assert_eq!(a.estimates(), b.estimates());
    }

    /// The two exact execution paths agree bit-for-bit on arbitrary
    /// instances.
    #[test]
    fn exact_paths_agree(
        n in 5usize..120,
        log_d in 1u32..6,
        k_raw in 1usize..6,
        seed in 0u64..500,
    ) {
        let d = 1u64 << log_d;
        let k = k_raw.min(d as usize);
        let params = ProtocolParams::new(n, d, k, 0.9, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        let mem = randomize_future::core::protocol::run_in_memory(&params, &pop, seed ^ 0xF0F0);
        let ev = run_event_driven(&params, &pop, seed ^ 0xF0F0);
        prop_assert_eq!(mem.estimates(), &ev.estimates[..]);
    }

    /// Parallel execution is worker-count-invariant on arbitrary
    /// instances: for random `(n, d, k, ε)` grids, the batched pipeline
    /// at 1/2/8 workers reproduces the sequential engine's estimates,
    /// delivery log, and wire stats exactly — on the honest schedule and
    /// under a fault mix whose mailbox order is load-bearing.
    #[test]
    fn parallel_execution_is_worker_count_invariant(
        n in 20usize..150,
        log_d in 2u32..6,
        k_raw in 1usize..5,
        eps in 0.25f64..=1.0,
        seed in 0u64..500,
    ) {
        let d = 1u64 << log_d;
        let k = k_raw.min(d as usize);
        let params = ProtocolParams::new(n, d, k, eps, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);

        let ev_seq = run_event_driven_with(&params, &pop, seed, ExecMode::Sequential);
        let storm = Scenario::honest()
            .with_dropout(0.05)
            .with_stragglers(0.1, 2)
            .with_duplicates(0.05)
            .with_byzantine(0.1);
        let sc_seq = run_scenario_with(&params, &pop, seed, &storm, ExecMode::Sequential);
        for w in [1usize, 2, 8] {
            let ev = run_event_driven_with(&params, &pop, seed, ExecMode::Parallel(w));
            prop_assert_eq!(&ev.estimates, &ev_seq.estimates, "honest, {} workers", w);
            prop_assert_eq!(&ev.group_sizes, &ev_seq.group_sizes, "honest, {} workers", w);
            prop_assert_eq!(ev.wire, ev_seq.wire, "honest, {} workers", w);

            let sc = run_scenario_with(&params, &pop, seed, &storm, ExecMode::Parallel(w));
            prop_assert_eq!(&sc.estimates, &sc_seq.estimates, "faulty, {} workers", w);
            prop_assert_eq!(&sc.delivery, &sc_seq.delivery, "faulty, {} workers", w);
            prop_assert_eq!(sc.wire, sc_seq.wire, "faulty, {} workers", w);
            prop_assert_eq!(&sc.faults, &sc_seq.faults, "faulty, {} workers", w);
        }
    }

    /// Metric sanity on arbitrary estimate/truth pairs produced by the
    /// pipeline: norm ordering and scaling relations hold.
    #[test]
    fn metric_relations(
        n in 10usize..200,
        seed in 0u64..300,
    ) {
        let d = 16u64;
        let params = ProtocolParams::new(n, d, 2, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, 2, 0.8), n, &mut rng);
        let o = run_future_rand_aggregate(&params, &pop, seed);
        let (est, truth) = (o.estimates(), pop.true_counts());
        let (inf, two, one) = (
            linf_error(est, truth),
            l2_error(est, truth),
            l1_error(est, truth),
        );
        prop_assert!(inf <= two + 1e-9);
        prop_assert!(two <= one + 1e-9);
        prop_assert!(one <= (d as f64) * inf + 1e-9);
    }

    /// Reports sent always equal Σ_h |U_h| · d/2^h — communication is a
    /// deterministic function of the order assignment.
    #[test]
    fn communication_identity(
        n in 10usize..300,
        log_d in 1u32..7,
        seed in 0u64..300,
    ) {
        let d = 1u64 << log_d;
        let params = ProtocolParams::new(n, d, 1, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, 1, 0.5), n, &mut rng);
        let o = run_future_rand_aggregate(&params, &pop, seed);
        let expect: u64 = o
            .group_sizes()
            .iter()
            .enumerate()
            .map(|(h, &sz)| sz as u64 * (d >> h as u32))
            .sum();
        prop_assert_eq!(o.reports_sent(), expect);
    }
}
