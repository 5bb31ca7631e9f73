//! Integration: the execution paths implement the same protocol, across
//! a seeded parameter grid.
//!
//! Powered by the differential oracle in `rtf_scenarios::oracle`:
//!
//! * `run_in_memory` (rtf-core), the event engine and the honest
//!   checked engine (both through `rtf_scenarios::run`) must be
//!   **bit-identical** for the same seed — they consume each user's RNG
//!   stream in the same order and all arithmetic is exact.
//!
//! Agreement alone cannot tell whether every path changed together, so
//! the client randomness stream is also frozen by golden hashes, under
//! the paper's randomizer table and the audit-calibrated one.

use randomize_future::baselines::{run_calibrated, run_independent};
use randomize_future::core::composed::{ComposedRandomizer, RandomizerTable};
use randomize_future::core::params::ProtocolParams;
use randomize_future::core::protocol::{run_in_memory, ProtocolOutcome};
use randomize_future::core::snapshot::fnv1a64;
use randomize_future::primitives::seeding::SeedSequence;
use randomize_future::runtime::ingest::LiveConfig;
use randomize_future::scenarios::oracle::assert_exact_agreement;
use randomize_future::scenarios::{run, Mode, RunSpec, Scenario};
use randomize_future::sim::Outcome;
use randomize_future::streams::generator::UniformChanges;
use randomize_future::streams::population::Population;

/// The differential grid: `(n, d, k, ε)` points spanning small/large
/// populations, short/long horizons, tight/loose sparsity and budget.
const GRID: &[(usize, u64, usize, f64)] = &[
    (100, 16, 2, 1.0),
    (321, 64, 5, 1.0),
    (57, 128, 3, 0.5),
    (250, 32, 1, 0.25),
    (800, 8, 4, 0.8),
];

fn setup(n: usize, d: u64, k: usize, eps: f64, seed: u64) -> (ProtocolParams, Population) {
    let params = ProtocolParams::new(n, d, k, eps, 0.05).unwrap();
    let mut rng = SeedSequence::new(seed).rng();
    let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
    (params, pop)
}

#[test]
fn exact_paths_agree_value_for_value_across_the_grid() {
    for (i, &(n, d, k, eps)) in GRID.iter().enumerate() {
        let (params, pop) = setup(n, d, k, eps, i as u64 + 1);
        for protocol_seed in [5u64, 99, 12345] {
            // Panics with the diverging (params, seed, t) on failure.
            let agreed = assert_exact_agreement(&params, &pop, protocol_seed);
            assert_eq!(agreed.estimates.len(), d as usize);
            assert_eq!(agreed.group_sizes.iter().sum::<usize>(), n);
        }
    }
}

#[test]
fn communication_accounting_consistent_across_paths() {
    let (params, pop) = setup(150, 64, 3, 1.0, 6);
    let ev = run(&RunSpec::new(&params, &pop, 17, Mode::from_env()));
    let mem = run_in_memory(&params, &pop, 17, &ComposedRandomizer::per_order(&params));
    // Event-driven counts payload bits; in-memory counts reports — one
    // bit each, so they must match.
    assert_eq!(ev.wire.payload_bits, mem.reports_sent());
    // Announcements: one per user.
    assert_eq!(ev.wire.messages, mem.reports_sent() + 150);
}

/// Little-endian words hashed with FNV-1a 64.
#[derive(Default)]
struct Golden(Vec<u8>);

impl Golden {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.u64(v.to_bits());
        }
    }

    fn sizes(&mut self, vs: &[usize]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v as u64);
        }
    }

    fn finish(&self) -> u64 {
        fnv1a64(&self.0)
    }
}

/// Estimates, groups and report count of a trusted in-memory run.
fn outcome_hash(out: &ProtocolOutcome) -> u64 {
    let mut h = Golden::default();
    h.f64s(out.estimates());
    h.sizes(out.group_sizes());
    h.u64(out.reports_sent());
    h.finish()
}

fn event_hash(out: &Outcome) -> u64 {
    let mut h = Golden::default();
    h.f64s(&out.estimates);
    h.sizes(&out.group_sizes);
    h.u64(out.wire.messages);
    h.u64(out.wire.wire_bytes);
    h.u64(out.wire.payload_bits);
    h.finish()
}

/// Estimates, groups, wire stats, delivery rows, fault counts and
/// per-period Byzantine acceptance.
fn scenario_hash(out: &Outcome) -> u64 {
    let mut h = Golden::default();
    h.f64s(&out.estimates);
    h.sizes(&out.group_sizes);
    h.u64(out.wire.messages);
    h.u64(out.wire.wire_bytes);
    h.u64(out.wire.payload_bits);
    h.u64(out.delivery.len() as u64);
    for row in &out.delivery {
        for v in [
            row.t,
            row.due,
            row.accepted,
            row.duplicate,
            row.late,
            row.unknown_user,
            row.invalid_period,
            row.premature,
        ] {
            h.u64(v);
        }
    }
    let f = &out.faults;
    for v in [
        f.dropped,
        f.churned_clients,
        f.lost_to_churn,
        f.delayed,
        f.duplicates_injected,
        f.byzantine_messages,
        f.byzantine_accepted,
        f.expired,
        f.malformed,
    ] {
        h.u64(v);
    }
    for &v in &out.byzantine_accepted_by_period {
        h.u64(v);
    }
    h.finish()
}

/// The one client randomness stream, frozen: every engine's output on a
/// small shape (d = 128, so the counter words cross a 64-span block)
/// hashes to the values the counter stream produced when it was
/// introduced; a d = 64 shape pins the population's change times and
/// the event engine's output as they were before subsets moved into a
/// bitmask. `STORM` pins the fault plan's keyed words as the sequential
/// engine turns them into faults, and `CALIBRATED` the audit-calibrated
/// table's keyed clients, on the reference schedule and on every engine
/// mode. A change to `fastseed`, `FutureRand`, client construction, the
/// randomizer tables or the fault plan that moves any report bit or
/// fault fails here even if all engines move together.
#[test]
fn client_stream_outputs_match_golden_hashes() {
    const IN_MEMORY: u64 = 0xf882_5d63_76f1_5d33;
    const EVENT: u64 = 0x2e1f_1ece_ceed_5ad3;
    const STORM: u64 = 0x9119_2677_394e_9db8;

    let (params, pop) = setup(150, 128, 3, 1.0, 2026);
    let seed = 41;
    let storm = Scenario::honest()
        .with_dropout(0.05)
        .with_stragglers(0.1, 3)
        .with_duplicates(0.05)
        .with_byzantine(0.1);

    let paper = ComposedRandomizer::per_order(&params);
    assert_eq!(
        outcome_hash(&run_in_memory(&params, &pop, seed, &paper)),
        IN_MEMORY,
        "in-memory"
    );
    // The two baselines that run Algorithm 1's client schedule with
    // another randomizer table or factory.
    const CALIBRATED: u64 = 0x2c8d_bb49_dd82_7c9d;
    const INDEPENDENT: u64 = 0x7efe_3408_bffd_9b44;
    let calibrated = run_calibrated(&params, &pop, seed);
    assert_eq!(outcome_hash(&calibrated), CALIBRATED, "calibrated");
    let independent = run_independent(&params, &pop, seed);
    assert_eq!(outcome_hash(&independent), INDEPENDENT, "independent");

    let modes = [
        Mode::Sequential,
        Mode::Batched(3),
        Mode::Live(LiveConfig::new(2)),
    ];
    for mode in &modes {
        let spec = RunSpec::new(&params, &pop, seed, mode.clone());
        assert_eq!(event_hash(&run(&spec)), EVENT, "event {mode}");
        let cal = run(&spec.clone().with_table(RandomizerTable::Calibrated));
        assert_eq!(outcome_hash(&cal.into()), CALIBRATED, "calibrated {mode}");
        let sc = run(&spec.with_scenario(&storm));
        assert_eq!(scenario_hash(&sc), STORM, "storm {mode}");
    }

    // d = 64: the population's change times are drawn over a ground set
    // of at most 64 periods too, not only every client's b̃ (k ≤ 64).
    const POPULATION_64: u64 = 0x75b8_0207_e0f5_11fc;
    const EVENT_64: u64 = 0x99e8_32ce_d40b_ab6b;
    let (params, pop) = setup(150, 64, 4, 1.0, 2026);
    let mut h = Golden::default();
    for stream in pop.streams() {
        let times = stream.change_times();
        h.u64(times.len() as u64);
        for &t in times {
            h.u64(t);
        }
    }
    assert_eq!(h.finish(), POPULATION_64, "d = 64 population");
    for mode in modes {
        let label = format!("d = 64 event {mode}");
        assert_eq!(
            event_hash(&run(&RunSpec::new(&params, &pop, seed, mode))),
            EVENT_64,
            "{label}"
        );
    }
}
