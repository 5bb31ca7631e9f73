//! Crash-recovery chaos property tests.
//!
//! Random protocol shapes × random faults — worker kills,
//! mid-period whole-service snapshot/restarts, between-period restarts,
//! and their compositions (restart-then-kill in the same period, double
//! restarts) — driven through [`rtf_scenarios::assert_chaos_recovery`]:
//! both live engines, worker counts {1, 2, 8}, every outcome field
//! value-identical to the sequential reference, and every configured
//! fault asserted to have actually fired.

use proptest::prelude::*;
use rtf_core::params::ProtocolParams;
use rtf_primitives::seeding::SeedSequence;
use rtf_runtime::ingest::{ServiceRestart, WorkerKill};
use rtf_scenarios::chaos::assert_chaos_recovery;
use rtf_scenarios::config::Scenario;
use rtf_streams::generator::UniformChanges;
use rtf_streams::population::Population;

fn storm() -> Scenario {
    Scenario::honest()
        .with_dropout(0.05)
        .with_stragglers(0.1, 3)
        .with_duplicates(0.05)
        .with_byzantine(0.1)
}

/// Maps a `0..100` fraction onto a valid fault period `1..=d`.
fn period_at(frac: u64, d: u64) -> u64 {
    1 + frac * (d - 1) / 100
}

/// A mid-period (`mid_period`) or between-periods restart at `period`.
fn restart(period: u64, mid_period: bool) -> ServiceRestart {
    ServiceRestart { period, mid_period }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A single randomly placed fault of each kind — kill, mid-period
    /// restart, between-periods restart — recovers exactly under a fault
    /// storm.
    #[test]
    fn single_faults_recover_exactly(
        n in 40usize..120,
        d_exp in 3u32..5,            // d ∈ {8, 16}
        k in 1usize..3,
        seed in 0u64..10_000,
        victim in 0usize..8,
        frac in 0u64..100,
    ) {
        let d = 1u64 << d_exp;
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed ^ 0x0DDB_A115).rng();
        let population = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        let at = period_at(frac, d);

        let kill = WorkerKill { worker: victim, period: at };
        for (kills, restarts) in [
            (vec![], vec![]),
            (vec![kill], vec![]),
            (vec![], vec![restart(at, true)]),
            (vec![], vec![restart(at, false)]),
        ] {
            assert_chaos_recovery(&params, &population, seed, &storm(), &kills, &restarts);
        }
    }

    /// Composed faults — restart-then-kill in the same period, double
    /// restarts (two mid-period restarts of the same period, i.e. the
    /// freshly restored service is immediately killed again), and a
    /// clean restart later — still recover exactly.
    #[test]
    fn composed_faults_recover_exactly(
        n in 40usize..120,
        d_exp in 3u32..5,
        k in 1usize..3,
        seed in 0u64..10_000,
        victim in 0usize..8,
        frac_a in 0u64..100,
        frac_b in 0u64..100,
    ) {
        let d = 1u64 << d_exp;
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed ^ 0xCAFE_D00D).rng();
        let population = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        let a = period_at(frac_a, d);
        let b = period_at(frac_b, d);

        let kill = WorkerKill { worker: victim, period: a };
        for (kills, restarts) in [
            // Restart mid-period, then kill a worker in the same period:
            // the restored service must survive a second, partial loss.
            (vec![kill], vec![restart(a, true)]),
            // Double restart: the freshly restored service is dropped
            // and restored again before the period closes.
            (vec![], vec![restart(a, true), restart(a, true)]),
            // Independent placements plus a clean between-close restart.
            (vec![kill], vec![restart(b, true), restart(a, false)]),
        ] {
            assert_chaos_recovery(&params, &population, seed, &storm(), &kills, &restarts);
        }
    }
}
