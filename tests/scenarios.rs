//! Integration: fault-injected longitudinal workloads, end to end.
//!
//! The acceptance surface of the scenario subsystem, with fixed seeds:
//!
//! * under the honest scenario the differential oracle proves the
//!   execution paths agree value-for-value for the same seed;
//! * under dropout / churn / straggler / duplicate / Byzantine scenarios
//!   the server never panics, publishes an estimate for every period,
//!   reports per-period delivery stats that add up, and honest-majority
//!   estimates stay within the analysis-derived tolerance envelope.

use randomize_future::core::params::ProtocolParams;
use randomize_future::primitives::seeding::SeedSequence;
use randomize_future::scenarios::oracle::{
    assert_exact_agreement, assert_live_agreement, assert_mode_agreement, assert_within_band,
    faulty_envelope, tolerance_band, MODE_AGREEMENT_WORKERS,
};
use randomize_future::scenarios::{run, Mode, RunSpec, Scenario};
use randomize_future::sim::Outcome;
use randomize_future::streams::generator::UniformChanges;
use randomize_future::streams::population::Population;

fn setup(n: usize, d: u64, k: usize, seed: u64) -> (ProtocolParams, Population) {
    let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
    let mut rng = SeedSequence::new(seed).rng();
    let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
    (params, pop)
}

/// `scenario` on the checked engine in the `RTF_WORKERS` mode.
fn checked_run(
    params: &ProtocolParams,
    pop: &Population,
    seed: u64,
    scenario: &Scenario,
) -> Outcome {
    run(&RunSpec::new(params, pop, seed, Mode::from_env()).with_scenario(scenario))
}

/// The oracle's honest-scenario guarantee, at integration scale.
#[test]
fn honest_scenario_all_paths_agree() {
    for (n, d, k, seed) in [(400usize, 64u64, 4usize, 1u64), (150, 32, 2, 2)] {
        let (params, pop) = setup(n, d, k, seed);
        for protocol_seed in [7u64, 77] {
            let agreed = assert_exact_agreement(&params, &pop, protocol_seed);
            assert_eq!(agreed.estimates.len(), d as usize);
        }
    }
}

/// The runtime's determinism guarantee, end to end: the sequential
/// schedule and the batched pipeline at w ∈ {1, 2, 8} workers are
/// value-for-value identical — on the honest schedule and on a scenario
/// mixing every fault class (where the mailbox order the shard merge
/// must reconstruct actually decides acceptances).
#[test]
fn sequential_equals_parallel_for_all_worker_counts() {
    assert_eq!(MODE_AGREEMENT_WORKERS, [1, 2, 8]);
    let (params, pop) = setup(500, 32, 3, 11);
    assert_mode_agreement(&params, &pop, 201, &Scenario::honest());
    let storm = Scenario::honest()
        .with_dropout(0.05)
        .with_churn(0.005)
        .with_stragglers(0.1, 3)
        .with_duplicates(0.05)
        .with_byzantine(0.1);
    assert_mode_agreement(&params, &pop, 201, &storm);
}

/// The streaming-service guarantee, end to end: streaming ≡ batched ≡
/// sequential, value-for-value (estimates, delivery stats, wire stats,
/// fault counts), on the honest schedule and on a scenario mixing every
/// fault class — at w ∈ {1, 2, 8} ingestion workers, through single-slot
/// backpressured mailboxes, each with and without a worker killed
/// mid-horizon and recovered from the delivery-log journal.
#[test]
fn streaming_equals_batched_equals_sequential() {
    let (params, pop) = setup(400, 32, 3, 13);
    assert_live_agreement(&params, &pop, 401, &Scenario::honest());
    let storm = Scenario::honest()
        .with_dropout(0.05)
        .with_churn(0.005)
        .with_stragglers(0.1, 3)
        .with_duplicates(0.05)
        .with_byzantine(0.1);
    assert_live_agreement(&params, &pop, 401, &storm);
}

#[test]
fn dropout_keeps_server_alive_and_estimates_in_envelope() {
    let (params, pop) = setup(1_200, 32, 3, 3);
    let scenario = Scenario::honest().with_dropout(0.05);
    let out = checked_run(&params, &pop, 101, &scenario);

    // Every period closed and published, despite missing reports.
    assert_eq!(out.estimates.len(), 32);
    assert_eq!(out.delivery.len(), 32);
    assert!(out.faults.dropped > 0);
    let missing: u64 = out.delivery.iter().map(|r| r.missing()).sum();
    assert_eq!(missing, out.faults.dropped);
    assert!(out.accepted_fraction() > 0.9);

    // Estimates remain inside the analysis-derived envelope.
    let env = faulty_envelope(&params, &pop, &out, 4.5);
    assert_within_band(&out.estimates, pop.true_counts(), &env);
}

#[test]
fn stragglers_are_dropped_late_not_crashed() {
    let (params, pop) = setup(1_000, 32, 3, 4);
    let scenario = Scenario::honest().with_stragglers(0.15, 4);
    let out = checked_run(&params, &pop, 102, &scenario);

    let late: u64 = out.delivery.iter().map(|r| r.late).sum();
    assert!(late > 0, "delays must surface as late deliveries");
    assert_eq!(late + out.faults.expired, out.faults.delayed);

    let env = faulty_envelope(&params, &pop, &out, 4.5);
    assert_within_band(&out.estimates, pop.true_counts(), &env);
}

#[test]
fn duplicates_change_nothing() {
    // Dedupe by (user, period): a duplicate-only scenario yields the
    // exact honest estimates.
    let (params, pop) = setup(500, 64, 4, 5);
    let honest = checked_run(&params, &pop, 103, &Scenario::honest());
    let dup = checked_run(&params, &pop, 103, &Scenario::honest().with_duplicates(0.4));
    assert_eq!(dup.estimates, honest.estimates);
    assert!(dup.faults.duplicates_injected > 0);
    let deduped: u64 = dup.delivery.iter().map(|r| r.duplicate).sum();
    assert!(deduped > 0);
}

#[test]
fn churn_degrades_gracefully() {
    let (params, pop) = setup(1_500, 32, 3, 6);
    let scenario = Scenario::honest().with_churn(0.01);
    let out = checked_run(&params, &pop, 104, &scenario);

    assert!(out.faults.churned_clients > 0);
    // Missing traffic only accumulates (clients never come back).
    let cum = out.cumulative_missing();
    assert!(cum.windows(2).all(|w| w[0] <= w[1]));
    assert!(*cum.last().unwrap() > 0);

    let env = faulty_envelope(&params, &pop, &out, 4.5);
    assert_within_band(&out.estimates, pop.true_counts(), &env);
}

#[test]
fn byzantine_minority_cannot_break_the_pipeline() {
    let (params, pop) = setup(1_000, 32, 3, 7);
    let scenario = Scenario::honest().with_byzantine(0.05);
    let out = checked_run(&params, &pop, 105, &scenario);

    // The server screened every fabricated frame without panicking...
    assert!(out.faults.byzantine_messages > 0);
    assert!(out.estimates.iter().all(|e| e.is_finite()));
    // ...classifying rejections by cause: fabricated periods mostly miss
    // the sender's stride (invalid), out-of-range ids are unknown, and
    // future boundaries are premature. The classes partition rejected().
    let (mut unknown, mut invalid, mut premature) = (0u64, 0u64, 0u64);
    for row in &out.delivery {
        unknown += row.unknown_user;
        invalid += row.invalid_period;
        premature += row.premature;
        assert_eq!(
            row.rejected(),
            row.unknown_user + row.invalid_period + row.premature,
            "t={}",
            row.t
        );
    }
    assert!(unknown > 0, "impersonations of junk ids must surface");
    assert!(invalid > 0, "off-stride fabrications must surface");
    assert!(premature > 0, "future-boundary fabrications must surface");
    // ...and the honest majority keeps the estimates inside the envelope
    // (which charges one max-scale unit per missing or accepted-forged
    // report).
    let env = faulty_envelope(&params, &pop, &out, 4.5);
    assert_within_band(&out.estimates, pop.true_counts(), &env);
}

#[test]
fn the_full_storm_survives() {
    // All fault classes at once — the "unreliable network" workload.
    let (params, pop) = setup(2_000, 64, 4, 8);
    let scenario = Scenario::honest()
        .with_dropout(0.03)
        .with_churn(0.002)
        .with_stragglers(0.05, 3)
        .with_duplicates(0.03)
        .with_byzantine(0.02);
    let out = checked_run(&params, &pop, 106, &scenario);

    assert_eq!(out.estimates.len(), 64);
    assert!(out.estimates.iter().all(|e| e.is_finite()));
    // Delivery rows are internally consistent at every period.
    for row in &out.delivery {
        assert!(row.accepted <= row.due, "t={}", row.t);
    }
    assert!(out.accepted_fraction() > 0.7);
    let env = faulty_envelope(&params, &pop, &out, 4.5);
    assert_within_band(&out.estimates, pop.true_counts(), &env);
}

#[test]
fn scenario_runs_are_reproducible() {
    let (params, pop) = setup(300, 32, 3, 9);
    let scenario = Scenario::honest()
        .with_dropout(0.1)
        .with_stragglers(0.1, 2)
        .with_byzantine(0.1);
    let a = checked_run(&params, &pop, 107, &scenario);
    checked_run(&params, &pop, 107, &scenario).assert_values_eq(&a, "rerun");
}

#[test]
fn honest_band_is_the_zero_fault_envelope() {
    let (params, pop) = setup(800, 16, 2, 10);
    let out = checked_run(&params, &pop, 108, &Scenario::honest());
    let band = tolerance_band(&params, &pop, 4.5);
    let env = faulty_envelope(&params, &pop, &out, 4.5);
    for (b, e) in band.iter().zip(&env) {
        assert!((b - e).abs() < 1e-9, "honest envelope must equal the band");
    }
    assert_within_band(&out.estimates, pop.true_counts(), &band);
}
