//! Duplicate-storm value-identity property tests.
//!
//! Retransmission storms, straggler pile-ups, and Byzantine spam fill a
//! delivery period's merged mailbox with more frames than are due. The
//! live service classifies them at period close
//! (`rtf_runtime::replay_frames_checked`). The batched engine frames
//! none of the honest copies: its fault pre-walk counts each one `Late`
//! or `Duplicate` from the sender's folded boundaries, and the checked
//! ladder runs on Byzantine fabrications only, correcting the copies of
//! every client a fabrication impersonated. Sequential ≡ batched ≡ live
//! agreement under a random storm therefore pins duplicate
//! classification on both against the sequential reference: estimates,
//! every `PeriodDelivery` row (accepted/duplicate/late/…), wire totals,
//! and fault counts, for every worker count.

use proptest::prelude::*;
use rtf_core::params::ProtocolParams;
use rtf_primitives::seeding::SeedSequence;
use rtf_runtime::ingest::LiveConfig;
use rtf_scenarios::config::Scenario;
use rtf_scenarios::{run, Mode, RunSpec};
use rtf_streams::generator::UniformChanges;
use rtf_streams::population::Population;

/// A deterministic heavy storm that provably oversubscribes periods, so
/// the checked path's duplicate filter is known to engage — and the
/// batched and live paths still agree with the sequential reference.
#[test]
fn heavy_storm_engages_the_filter_and_stays_identical() {
    let params = ProtocolParams::new(200, 32, 3, 1.0, 0.05).unwrap();
    let mut rng = SeedSequence::new(77).rng();
    let pop = Population::generate(&UniformChanges::new(32, 3, 0.8), 200, &mut rng);
    let scenario = Scenario::honest().with_duplicates(0.9).with_byzantine(0.2);
    let spec = RunSpec::new(&params, &pop, 177, Mode::Sequential).with_scenario(&scenario);
    let seq = run(&spec);
    let oversubscribed = seq.delivery.iter().any(|r| {
        r.accepted + r.duplicate + r.late + r.unknown_user + r.invalid_period + r.premature > r.due
    });
    assert!(oversubscribed, "the storm must oversubscribe some period");
    for w in [1usize, 4] {
        for mode in [Mode::Batched(w), Mode::Live(LiveConfig::new(w))] {
            let label = mode.to_string();
            run(&spec.clone().with_mode(mode)).assert_values_eq(&seq, &label);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random storm intensity (duplicates, stragglers, Byzantine spam,
    /// in-flight corruption) over random protocol shapes: the batched and
    /// streaming paths agree with the sequential reference on every
    /// outcome field.
    #[test]
    fn duplicate_storms_are_value_identical_across_paths(
        n in 60usize..160,
        log_d in 3u32..=5,
        k in 1usize..=3,
        dup in 0.2f64..=0.9,
        straggle in 0.0f64..=0.4,
        byz in 0.0f64..=0.25,
        malformed in 0.0f64..=0.2,
        seed in 0u64..10_000,
    ) {
        let d = 1u64 << log_d;
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        let scenario = Scenario::honest()
            .with_duplicates(dup)
            .with_stragglers(straggle, 3)
            .with_byzantine(byz)
            .with_malformed(malformed);

        let spec = RunSpec::new(&params, &pop, seed ^ 0xD00F, Mode::Sequential)
            .with_scenario(&scenario);
        let seq = run(&spec);
        let batched = [1usize, 3, 8].map(Mode::Batched);
        let live = [1usize, 4].map(|w| Mode::Live(LiveConfig::new(w)));
        for mode in batched.into_iter().chain(live) {
            let label = mode.to_string();
            run(&spec.clone().with_mode(mode)).assert_values_eq(&seq, &label);
        }
    }
}
