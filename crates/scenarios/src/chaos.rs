//! Crash-recovery chaos harness: worker kills and service restarts over
//! the streaming service, checked against the sequential oracle.
//!
//! The snapshot/restart machinery (`rtf_runtime::ingest`) claims that a
//! process can die at *any* point — mid-period with journals full,
//! between periods, repeatedly, composed with worker kills — and a
//! fresh process restored from the snapshot continues **bit-identically**.
//! This module turns that claim into a harness the proptest suite
//! (`tests/proptest_chaos.rs`) can drive with randomized fault
//! placements: [`assert_chaos_recovery`] runs a list of worker kills and
//! service restarts (a [`LiveConfig`]'s fault lists) through **both**
//! live engines (event and checked) at every worker count in
//! [`MODE_AGREEMENT_WORKERS`], asserting value-for-value agreement with
//! the sequential reference *and* that every configured fault actually
//! fired (`IngestStats::{recoveries, restarts}`) — a chaos test that
//! can't fire its faults is vacuous, and that vacuity is itself a
//! failure here.

use crate::config::Scenario;
use crate::oracle::{both_engines, MODE_AGREEMENT_WORKERS};
use crate::run_spec::{run, Mode};
use rtf_core::params::ProtocolParams;
use rtf_runtime::ingest::{LiveConfig, ServiceRestart, WorkerKill};
use rtf_streams::population::Population;

/// Runs `kills` and `restarts` through both live engines — the event
/// engine and the checked engine under `scenario` — at every worker
/// count in [`MODE_AGREEMENT_WORKERS`], and asserts:
///
/// * every value field of the outcome is identical to the sequential
///   reference ([`Outcome::assert_values_eq`](rtf_sim::Outcome::assert_values_eq));
/// * every configured fault fired: `recoveries` equals the number of
///   kills and `restarts` the number of restarts, on both engines.
///
/// Each leg runs its own worker count with a deliberately hostile
/// service shape (2-batch mailboxes, 7-row chunks); kills take the
/// worker index modulo the worker count.
///
/// # Examples
///
/// A worker kill composed with a mid-period service restart; the
/// crashed-and-recovered live runs must match the never-crashed
/// sequential reference value-for-value:
///
/// ```
/// use rtf_core::params::ProtocolParams;
/// use rtf_primitives::seeding::SeedSequence;
/// use rtf_runtime::ingest::{ServiceRestart, WorkerKill};
/// use rtf_scenarios::chaos::assert_chaos_recovery;
/// use rtf_scenarios::config::Scenario;
/// use rtf_streams::generator::UniformChanges;
/// use rtf_streams::population::Population;
///
/// let params = ProtocolParams::new(30, 8, 2, 1.0, 0.05).unwrap();
/// let mut rng = SeedSequence::new(11).rng();
/// let population = Population::generate(&UniformChanges::new(8, 2, 0.8), 30, &mut rng);
/// let kills = [WorkerKill { worker: 0, period: 3 }];
/// let restarts = [ServiceRestart { period: 5, mid_period: true }];
/// assert_chaos_recovery(
///     &params,
///     &population,
///     11,
///     &Scenario::honest().with_dropout(0.1),
///     &kills,
///     &restarts,
/// );
/// ```
///
/// # Panics
/// Panics naming the faults, engine, and worker count of the first
/// divergence — or the fault that silently failed to fire.
pub fn assert_chaos_recovery(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    scenario: &Scenario,
    kills: &[WorkerKill],
    restarts: &[ServiceRestart],
) {
    let faults = format!("kills {kills:?}, restarts {restarts:?}");
    for (engine, spec) in both_engines(params, population, seed, scenario) {
        let seq = run(&spec);
        for w in MODE_AGREEMENT_WORKERS {
            let config = LiveConfig {
                kills: kills.to_vec(),
                restarts: restarts.to_vec(),
                ..LiveConfig::new(w).with_mailbox_cap(2).with_chunk_rows(7)
            };
            let label = format!("chaos[{faults}] {engine} live({w}) (seed {seed})");
            let live = run(&spec.clone().with_mode(Mode::Live(config)));
            live.assert_values_eq(&seq, &label);
            // The anti-vacuity clause: every configured fault must have fired.
            let stats = live.ingest.expect("live runs report their ledger");
            assert_eq!(
                stats.recoveries,
                kills.len() as u64,
                "{label}: a configured worker kill never fired"
            );
            assert_eq!(
                stats.restarts,
                restarts.len() as u64,
                "{label}: a configured service restart never fired"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_primitives::seeding::SeedSequence;
    use rtf_streams::generator::UniformChanges;

    fn setup(n: usize, d: u64, k: usize, seed: u64) -> (ProtocolParams, Population) {
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        (params, pop)
    }

    #[test]
    fn double_restart_composed_with_kill_recovers_exactly() {
        // The hardest hand-written composition: restart mid-period,
        // kill a worker in the same period, restart again cleanly later
        // — on a storm whose frame order is load-bearing.
        let (params, pop) = setup(100, 16, 2, 96);
        let storm = Scenario::honest()
            .with_dropout(0.05)
            .with_stragglers(0.1, 3)
            .with_duplicates(0.05)
            .with_byzantine(0.1);
        let kills = [WorkerKill {
            worker: 1,
            period: 8,
        }];
        let restarts = [
            ServiceRestart {
                period: 8,
                mid_period: true,
            },
            ServiceRestart {
                period: 12,
                mid_period: false,
            },
        ];
        assert_chaos_recovery(&params, &pop, 57, &storm, &kills, &restarts);
    }

    #[test]
    fn vacuous_plans_are_caught() {
        // A fault at a period past the horizon can never fire; the
        // harness must fail loudly instead of passing vacuously.
        let (params, pop) = setup(60, 8, 2, 97);
        let restarts = [ServiceRestart {
            period: 99,
            mid_period: true,
        }];
        let caught = std::panic::catch_unwind(|| {
            assert_chaos_recovery(&params, &pop, 3, &Scenario::honest(), &[], &restarts);
        });
        assert!(caught.is_err());
    }
}
