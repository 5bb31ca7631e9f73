//! Property tests for the streaming ingestion service.
//!
//! The tentpole claim — streaming execution is bit-identical to the
//! offline engines under arbitrary backpressure and across a mid-run
//! worker restart — checked over random protocol shapes `(n, d, k, ε)`,
//! random hostile service configurations (mailbox capacity down to a
//! single batch, chunk sizes down to a single row), worker counts
//! `{1, 2, 8}`, and a randomly placed worker kill.

use proptest::prelude::*;
use rtf_core::params::ProtocolParams;
use rtf_primitives::seeding::SeedSequence;
use rtf_runtime::ingest::LiveConfig;
use rtf_runtime::ExecMode;
use rtf_scenarios::config::Scenario;
use rtf_scenarios::engine::run_scenario_with;
use rtf_scenarios::live::run_scenario_live_with;
use rtf_sim::engine::run_event_driven_with;
use rtf_sim::live::run_event_driven_live_with;
use rtf_streams::generator::UniformChanges;
use rtf_streams::population::Population;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bounded-mailbox ingest under random backpressure, with a mid-run
    /// worker restart, produces estimates (and wire accounting)
    /// bit-identical to `run_event_driven` — over random `(n, d, k, ε)`
    /// and workers {1, 2, 8}.
    #[test]
    fn live_ingest_is_bit_identical_to_event_driven(
        n in 40usize..160,
        d_exp in 3u32..6,            // d ∈ {8, 16, 32}
        k in 1usize..4,
        eps_hundredths in 30u64..=100,
        seed in 0u64..10_000,
        mailbox_cap in 1usize..5,    // down to a single-slot mailbox
        chunk_rows in 1usize..24,    // down to one row per batch
        kill_worker in 0usize..8,
        kill_frac in 0u64..100,
    ) {
        let d = 1u64 << d_exp;
        let eps = eps_hundredths as f64 / 100.0;
        let params = ProtocolParams::new(n, d, k, eps, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed ^ 0xC0FF_EE00).rng();
        let population = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);

        let seq = run_event_driven_with(&params, &population, seed, ExecMode::Sequential);
        let kill_at = 1 + kill_frac * (d - 1) / 100;
        for workers in [1usize, 2, 8] {
            for kill in [false, true] {
                let mut cfg = LiveConfig::new(workers)
                    .with_mailbox_cap(mailbox_cap)
                    .with_chunk_rows(chunk_rows);
                if kill {
                    cfg = cfg.with_kill(kill_worker % workers, kill_at);
                }
                let (live, stats) = run_event_driven_live_with(
                    &params,
                    &population,
                    seed,
                    &cfg,
                );
                prop_assert_eq!(
                    &live.estimates, &seq.estimates,
                    "w={} cap={} chunk={} kill={}", workers, mailbox_cap, chunk_rows, kill
                );
                prop_assert_eq!(&live.group_sizes, &seq.group_sizes);
                prop_assert_eq!(&live.wire, &seq.wire);
                prop_assert_eq!(stats.recoveries, u64::from(kill));
                prop_assert_eq!(stats.rows, seq.wire.payload_bits);
            }
        }
    }

    /// The same claim for the fault-injected engine: a streaming run
    /// through per-emitter mailboxes reproduces the sequential scenario
    /// outcome field-for-field, with and without a worker restart.
    #[test]
    fn live_scenario_is_bit_identical_to_sequential(
        n in 40usize..140,
        d_exp in 3u32..6,
        k in 1usize..3,
        seed in 0u64..10_000,
        mailbox_cap in 1usize..4,
        chunk_rows in 1usize..16,
        kill_frac in 0u64..100,
    ) {
        let d = 1u64 << d_exp;
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed ^ 0xBAD_F00D).rng();
        let population = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        let storm = Scenario::honest()
            .with_dropout(0.05)
            .with_stragglers(0.1, 3)
            .with_duplicates(0.05)
            .with_byzantine(0.1);

        let seq = run_scenario_with(&params, &population, seed, &storm, ExecMode::Sequential);
        let kill_at = 1 + kill_frac * (d - 1) / 100;
        for workers in [1usize, 2, 8] {
            for kill in [false, true] {
                let mut cfg = LiveConfig::new(workers)
                    .with_mailbox_cap(mailbox_cap)
                    .with_chunk_rows(chunk_rows);
                if kill {
                    cfg = cfg.with_kill(workers - 1, kill_at);
                }
                let (live, stats) = run_scenario_live_with(
                    &params,
                    &population,
                    seed,
                    &storm,
                    &cfg,
                );
                prop_assert_eq!(&live.estimates, &seq.estimates,
                    "w={} cap={} chunk={} kill={}", workers, mailbox_cap, chunk_rows, kill);
                prop_assert_eq!(&live.delivery, &seq.delivery);
                prop_assert_eq!(&live.wire, &seq.wire);
                prop_assert_eq!(&live.faults, &seq.faults);
                prop_assert_eq!(
                    &live.byzantine_accepted_by_period,
                    &seq.byzantine_accepted_by_period
                );
                prop_assert_eq!(stats.recoveries, u64::from(kill));
            }
        }
    }
}
