//! Crash-recovery chaos harness: composable fault plans over the
//! streaming service, checked against the sequential oracle.
//!
//! The snapshot/restart machinery (`rtf_runtime::ingest`) claims that a
//! process can die at *any* point — mid-period with journals full,
//! between periods, repeatedly, composed with worker kills — and a
//! fresh process restored from the snapshot continues **bit-identically**.
//! This module turns that claim into a harness the proptest suite
//! (`tests/proptest_chaos.rs`) can drive with randomized fault
//! placements:
//!
//! * [`ChaosPlan`] — a declarative plan of worker kills, mid-period
//!   service restarts, and between-period service restarts, each pinned
//!   to a period;
//! * [`assert_chaos_recovery`] — runs the plan through **both** live
//!   engines (honest event-driven and fault-injected scenario) at every
//!   worker count in [`MODE_AGREEMENT_WORKERS`], asserting
//!   value-for-value agreement with the sequential reference *and* that
//!   every configured fault actually fired (`IngestStats::{recoveries,
//!   restarts}`) — a chaos test that can't fire its faults is vacuous,
//!   and that vacuity is itself a failure here.

use crate::config::Scenario;
use crate::engine::{run_scenario_with, ScenarioOutcome};
use crate::live::run_scenario_live_with;
use crate::oracle::MODE_AGREEMENT_WORKERS;
use rtf_core::params::ProtocolParams;
use rtf_runtime::ingest::LiveConfig;
use rtf_runtime::ExecMode;
use rtf_sim::engine::{run_event_driven_with, EventDrivenOutcome};
use rtf_sim::live::run_event_driven_live_with;
use rtf_streams::population::Population;

/// A declarative crash plan: which faults strike at which periods.
///
/// Worker indices are taken modulo the worker count (the plan is reused
/// across worker counts); periods must lie in `1..=d` — the live
/// drivers reject a fault that could never fire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// `(worker, period)` worker kills — the worker dies after the
    /// period's traffic is in flight, before the close.
    pub kills: Vec<(usize, u64)>,
    /// Periods at which the whole service is snapshot, dropped, and
    /// restored **mid-period** (journals full — the worst moment).
    pub mid_restarts: Vec<u64>,
    /// Periods after whose close the service is snapshot, dropped, and
    /// restored (journals empty — the clean moment).
    pub between_restarts: Vec<u64>,
}

impl ChaosPlan {
    /// The empty plan (no faults — the control leg).
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// Adds a worker kill at `period`.
    pub fn with_kill(mut self, worker: usize, period: u64) -> Self {
        self.kills.push((worker, period));
        self
    }

    /// Adds a mid-period whole-service restart at `period`.
    pub fn with_mid_restart(mut self, period: u64) -> Self {
        self.mid_restarts.push(period);
        self
    }

    /// Adds a between-periods whole-service restart after `period`.
    pub fn with_between_restart(mut self, period: u64) -> Self {
        self.between_restarts.push(period);
        self
    }

    /// Total number of configured faults.
    pub fn fault_count(&self) -> usize {
        self.kills.len() + self.mid_restarts.len() + self.between_restarts.len()
    }

    /// Number of worker kills the plan will fire.
    pub fn expected_kills(&self) -> u64 {
        self.kills.len() as u64
    }

    /// Number of whole-service restarts the plan will fire.
    pub fn expected_restarts(&self) -> u64 {
        (self.mid_restarts.len() + self.between_restarts.len()) as u64
    }

    /// Materializes the plan onto a [`LiveConfig`] for `workers`.
    pub fn configure(&self, workers: usize) -> LiveConfig {
        let mut cfg = LiveConfig::new(workers);
        for &(worker, period) in &self.kills {
            cfg = cfg.with_kill(worker, period);
        }
        for &period in &self.mid_restarts {
            cfg = cfg.with_restart(period);
        }
        for &period in &self.between_restarts {
            cfg = cfg.with_restart_after(period);
        }
        cfg
    }

    /// A human-readable tag for assertion messages.
    pub fn label(&self) -> String {
        format!(
            "kills {:?}, mid-restarts {:?}, between-restarts {:?}",
            self.kills, self.mid_restarts, self.between_restarts
        )
    }
}

/// Runs `plan` through both live engines — the honest event-driven
/// schedule and the fault-injected `scenario` — at every worker count in
/// [`MODE_AGREEMENT_WORKERS`], with a deliberately hostile
/// service shape (2-batch mailboxes, 7-row chunks), and asserts:
///
/// * every outcome field is value-for-value identical to the sequential
///   reference (estimates, group sizes, wire stats, delivery log, fault
///   counts, per-period Byzantine acceptance);
/// * every configured fault fired: `recoveries == plan.expected_kills()`
///   and `restarts == plan.expected_restarts()` on both engines.
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
/// use rtf_scenarios::chaos::{assert_chaos_recovery, ChaosPlan};
/// use rtf_scenarios::config::Scenario;
/// use rtf_streams::generator::UniformChanges;
/// use rtf_streams::population::Population;
///
/// let params = ProtocolParams::new(30, 8, 2, 1.0, 0.05).unwrap();
/// let mut rng = SeedSequence::new(11).rng();
/// let population = Population::generate(&UniformChanges::new(8, 2, 0.8), 30, &mut rng);
/// let plan = ChaosPlan::new().with_kill(0, 3).with_mid_restart(5);
/// assert_chaos_recovery(
///     &params,
///     &population,
///     11,
///     &Scenario::honest().with_dropout(0.1),
///     &plan,
/// );
/// ```
///
/// # Panics
/// Panics naming the plan, engine, and worker count of the first
/// divergence — or the fault that silently failed to fire.
pub fn assert_chaos_recovery(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    scenario: &Scenario,
    plan: &ChaosPlan,
) {
    let ev_seq = run_event_driven_with(params, population, seed, ExecMode::Sequential);
    let sc_seq = run_scenario_with(params, population, seed, scenario, ExecMode::Sequential);
    for w in MODE_AGREEMENT_WORKERS {
        assert_chaos_recovery_at(
            params, population, seed, scenario, plan, w, &ev_seq, &sc_seq,
        );
    }
}

/// One worker count's leg of [`assert_chaos_recovery`], against
/// precomputed sequential references.
#[allow(clippy::too_many_arguments)]
fn assert_chaos_recovery_at(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    scenario: &Scenario,
    plan: &ChaosPlan,
    workers: usize,
    ev_seq: &EventDrivenOutcome,
    sc_seq: &ScenarioOutcome,
) {
    let cfg = plan
        .configure(workers)
        .with_mailbox_cap(2)
        .with_chunk_rows(7);
    let label = format!("chaos[{}] live({workers})", plan.label());

    let (ev, ev_stats) = run_event_driven_live_with(params, population, seed, &cfg);
    assert_eq!(
        ev.estimates, ev_seq.estimates,
        "{label}: event-driven estimates diverge from sequential (seed {seed})"
    );
    assert_eq!(ev.group_sizes, ev_seq.group_sizes, "{label}: groups");
    assert_eq!(ev.wire, ev_seq.wire, "{label}: wire stats");

    let (sc, sc_stats) = run_scenario_live_with(params, population, seed, scenario, &cfg);
    assert_eq!(
        sc.estimates, sc_seq.estimates,
        "{label}: scenario estimates diverge from sequential (seed {seed})"
    );
    assert_eq!(sc.group_sizes, sc_seq.group_sizes, "{label}: groups");
    assert_eq!(sc.delivery, sc_seq.delivery, "{label}: delivery log");
    assert_eq!(sc.wire, sc_seq.wire, "{label}: wire stats");
    assert_eq!(sc.faults, sc_seq.faults, "{label}: fault counts");
    assert_eq!(
        sc.byzantine_accepted_by_period, sc_seq.byzantine_accepted_by_period,
        "{label}: per-period Byzantine acceptance"
    );

    // The anti-vacuity clause: every configured fault must have fired.
    for stats in [&ev_stats, &sc_stats] {
        assert_eq!(
            stats.recoveries,
            plan.expected_kills(),
            "{label}: a configured worker kill never fired"
        );
        assert_eq!(
            stats.restarts,
            plan.expected_restarts(),
            "{label}: a configured service restart never fired"
        );
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
    fn plan_builders_compose_and_count() {
        let plan = ChaosPlan::new()
            .with_kill(3, 4)
            .with_kill(0, 7)
            .with_mid_restart(4)
            .with_between_restart(6);
        assert_eq!(plan.fault_count(), 4);
        assert_eq!(plan.expected_kills(), 2);
        assert_eq!(plan.expected_restarts(), 2);
        let cfg = plan.configure(2);
        assert_eq!(cfg.kills.len(), 2);
        assert_eq!(cfg.restarts.len(), 2);
        assert_eq!(cfg.fault_count(), 4);
        assert!(plan.label().contains("mid-restarts [4]"));
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
        let plan = ChaosPlan::new()
            .with_mid_restart(8)
            .with_kill(1, 8)
            .with_between_restart(12);
        assert_chaos_recovery(&params, &pop, 57, &storm, &plan);
    }

    #[test]
    fn vacuous_plans_are_caught() {
        // A fault at a period past the horizon can never fire; the
        // harness must fail loudly instead of passing vacuously.
        let (params, pop) = setup(60, 8, 2, 97);
        let plan = ChaosPlan::new().with_mid_restart(99);
        let caught = std::panic::catch_unwind(|| {
            assert_chaos_recovery(&params, &pop, 3, &Scenario::honest(), &plan);
        });
        assert!(caught.is_err());
    }
}
