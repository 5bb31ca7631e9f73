//! Span-native fault-layer value-identity property tests.
//!
//! The batched scenario engine walks each client's whole fault plan at
//! once as slot bitmasks (the plan's mask walk), folds honest on-time spans
//! arithmetically as packed sign words, counts the verdicts of late and
//! retransmitted honest copies where the pre-walk finds them, and runs
//! only Byzantine fabrications through the floor-checked ingestion
//! ladder. The sequential
//! engine asks the same plan at every report and routes each one
//! individually. These properties pin the two against each other over
//! random protocol shapes × fault storms × worker counts, on every
//! observable field — the fault counts included, which tally every
//! decision the plan made.

use proptest::prelude::*;
use rtf_core::params::ProtocolParams;
use rtf_primitives::seeding::SeedSequence;
use rtf_scenarios::config::Scenario;
use rtf_scenarios::{run, Mode, RunSpec};
use rtf_streams::generator::UniformChanges;
use rtf_streams::population::Population;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random `(n, d, k, ε)` × random fault storm (dropout, churn,
    /// stragglers, duplicates, Byzantine spam, in-flight corruption) ×
    /// workers {1, 2, 8}: the span-native batched
    /// path equals the sequential reference on estimates, delivery log,
    /// wire stats, fault counts and per-period Byzantine acceptance.
    #[test]
    fn span_native_path_is_value_identical_to_sequential(
        n in 60usize..160,
        log_d in 3u32..=5,
        k in 1usize..=3,
        epsilon in 0.3f64..=1.0,
        drop in 0.0f64..=0.2,
        churn in 0.0f64..=0.05,
        straggle in 0.0f64..=0.4,
        dup in 0.0f64..=0.3,
        byz in 0.0f64..=0.25,
        malformed in 0.0f64..=0.2,
        seed in 0u64..10_000,
    ) {
        let d = 1u64 << log_d;
        let params = ProtocolParams::new(n, d, k, epsilon, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        let scenario = Scenario::honest()
            .with_dropout(drop)
            .with_churn(churn)
            .with_stragglers(straggle, 3)
            .with_duplicates(dup)
            .with_byzantine(byz)
            .with_malformed(malformed);

        let spec = RunSpec::new(&params, &pop, seed ^ 0x5BA7, Mode::Sequential)
            .with_scenario(&scenario);
        let seq = run(&spec);
        for w in [1usize, 2, 8] {
            run(&spec.clone().with_mode(Mode::Batched(w)))
                .assert_values_eq(&seq, &format!("batched({w})"));
        }
    }
}
