//! Registered post-run expectations: every spec names exactly one, it is
//! validated for consistency at [`ScenarioSpec::compile`] time (a
//! required fault whose rate is zero in every period is an authoring
//! error, not a silent pass), and [`check_expectation`] runs it against
//! the actual outcome — asserting not just the bound but that the faults
//! the spec promised actually fired. No workload can be vacuously green.

use super::{CompiledSpec, FaultKnob, ScenarioSpec, SpecError};
use crate::chaos::ChaosPlan;
use crate::config::FaultTimeline;
use crate::engine::{FaultCounts, ScenarioOutcome};
use crate::oracle::{assert_within_band, faulty_envelope};
use rtf_runtime::ingest::IngestStats;
use rtf_runtime::ExecMode;
use rtf_sim::engine::run_event_driven_with;
use rtf_streams::population::Population;

/// One observable counter of [`FaultCounts`], addressable from a spec's
/// `require` list by its kebab-case name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultField {
    /// Reports lost by per-report dropout.
    Dropped,
    /// Clients that departed permanently before the horizon ended.
    ChurnedClients,
    /// Reports suppressed because their sender had churned.
    LostToChurn,
    /// Reports delivered late.
    Delayed,
    /// Extra retransmitted copies injected.
    DuplicatesInjected,
    /// Fabricated messages emitted by Byzantine clients.
    ByzantineMessages,
    /// Fabricated messages the server accepted as on-time reports.
    ByzantineAccepted,
    /// Messages delayed past the horizon (never delivered).
    Expired,
    /// Delivered frames whose encoding was corrupted in flight.
    Malformed,
}

impl FaultField {
    /// Every addressable field, in declaration order.
    pub const ALL: [FaultField; 9] = [
        FaultField::Dropped,
        FaultField::ChurnedClients,
        FaultField::LostToChurn,
        FaultField::Delayed,
        FaultField::DuplicatesInjected,
        FaultField::ByzantineMessages,
        FaultField::ByzantineAccepted,
        FaultField::Expired,
        FaultField::Malformed,
    ];

    /// The field's TOML name.
    pub fn name(&self) -> &'static str {
        match self {
            FaultField::Dropped => "dropped",
            FaultField::ChurnedClients => "churned-clients",
            FaultField::LostToChurn => "lost-to-churn",
            FaultField::Delayed => "delayed",
            FaultField::DuplicatesInjected => "duplicates-injected",
            FaultField::ByzantineMessages => "byzantine-messages",
            FaultField::ByzantineAccepted => "byzantine-accepted",
            FaultField::Expired => "expired",
            FaultField::Malformed => "malformed",
        }
    }

    /// Parses a TOML field name.
    pub fn parse(s: &str) -> Option<Self> {
        FaultField::ALL.into_iter().find(|f| f.name() == s)
    }

    /// Reads the field out of a [`FaultCounts`].
    pub fn get(&self, c: &FaultCounts) -> u64 {
        match self {
            FaultField::Dropped => c.dropped,
            FaultField::ChurnedClients => c.churned_clients,
            FaultField::LostToChurn => c.lost_to_churn,
            FaultField::Delayed => c.delayed,
            FaultField::DuplicatesInjected => c.duplicates_injected,
            FaultField::ByzantineMessages => c.byzantine_messages,
            FaultField::ByzantineAccepted => c.byzantine_accepted,
            FaultField::Expired => c.expired,
            FaultField::Malformed => c.malformed,
        }
    }
}

/// The registered post-run assertion a spec names.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpectationSpec {
    /// The run must be value-for-value identical to the honest
    /// event-driven engine under the same seed: estimates, group sizes,
    /// wire accounting, zero fault counters, zero missing reports. Only
    /// valid for specs with no faults, no shapes, and no chaos.
    ExactHonest,
    /// Every listed fault counter must be positive (the spec's faults
    /// actually fired) and the estimates must sit inside the bias-aware
    /// [`faulty_envelope`] at `z` standard deviations.
    Envelope {
        /// Band width in standard deviations (> 0).
        z: f64,
        /// Counters that must have fired (non-empty).
        require: Vec<FaultField>,
    },
    /// Duplicates must have been injected, every one must be accounted
    /// for (deduplicated or expired), and the estimates must equal the
    /// honest run's exactly — retransmissions are free.
    DuplicatesFree,
    /// [`Envelope`](ExpectationSpec::Envelope) plus the chaos ledger:
    /// on the live engine every configured kill must have been recovered
    /// and every configured restart must have happened.
    ChaosRecovery {
        /// Band width in standard deviations (> 0).
        z: f64,
        /// Counters that must have fired (may be empty — the chaos
        /// ledger itself is the anti-vacuity check).
        require: Vec<FaultField>,
    },
}

impl ExpectationSpec {
    /// The expectation's TOML `kind` name.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ExpectationSpec::ExactHonest => "exact-honest",
            ExpectationSpec::Envelope { .. } => "envelope",
            ExpectationSpec::DuplicatesFree => "duplicates-free",
            ExpectationSpec::ChaosRecovery { .. } => "chaos-recovery",
        }
    }
}

/// The maximum a knob's rate reaches anywhere on the timeline.
fn max_rate(timeline: &FaultTimeline, d: u64, knob: FaultKnob) -> f64 {
    (1..=d)
        .map(|t| knob.get(timeline.at(t)))
        .fold(0.0, f64::max)
}

/// Whether `field` can fire at all under this timeline.
fn reachable(field: FaultField, timeline: &FaultTimeline, d: u64) -> bool {
    let max = |knob| max_rate(timeline, d, knob) > 0.0;
    match field {
        FaultField::Dropped => max(FaultKnob::Dropout),
        FaultField::ChurnedClients | FaultField::LostToChurn => max(FaultKnob::Churn),
        FaultField::Delayed => max(FaultKnob::Straggle),
        FaultField::DuplicatesInjected => max(FaultKnob::Duplicate),
        FaultField::ByzantineMessages | FaultField::ByzantineAccepted => {
            timeline.byzantine_frac() > 0.0
        }
        FaultField::Expired => max(FaultKnob::Straggle) || max(FaultKnob::Duplicate),
        FaultField::Malformed => max(FaultKnob::Malformed),
    }
}

fn check_z(z: f64) -> Result<(), SpecError> {
    if !(z.is_finite() && z > 0.0) {
        return Err(
            SpecError::range(format!("z = {z} must be positive and finite"))
                .in_field("expectation.z"),
        );
    }
    Ok(())
}

fn check_require(
    require: &[FaultField],
    timeline: &FaultTimeline,
    d: u64,
) -> Result<(), SpecError> {
    for field in require {
        if !reachable(*field, timeline, d) {
            return Err(SpecError::expectation(format!(
                "required counter `{}` can never fire: its fault rate is 0 in every period",
                field.name()
            ))
            .in_field("expectation.require"));
        }
    }
    Ok(())
}

/// Compile-time consistency check, called by [`ScenarioSpec::compile`]:
/// rejects expectations that could pass without testing anything.
pub(crate) fn validate_expectation(
    expectation: &ExpectationSpec,
    spec: &ScenarioSpec,
    timeline: &FaultTimeline,
) -> Result<(), SpecError> {
    let d = spec.protocol.d;
    match expectation {
        ExpectationSpec::ExactHonest => {
            let any_fault = FaultKnob::ALL
                .into_iter()
                .any(|knob| max_rate(timeline, d, knob) > 0.0)
                || timeline.byzantine_frac() > 0.0;
            if any_fault {
                return Err(SpecError::expectation(
                    "exact-honest requires a fault-free spec; use `envelope` for faulty runs"
                        .to_string(),
                )
                .in_field("expectation.kind"));
            }
            if !spec.chaos.is_empty() {
                return Err(SpecError::expectation(
                    "exact-honest ignores the chaos ledger; use `chaos-recovery` instead"
                        .to_string(),
                )
                .in_field("expectation.kind"));
            }
        }
        ExpectationSpec::Envelope { z, require } => {
            check_z(*z)?;
            if require.is_empty() {
                return Err(SpecError::expectation(
                    "envelope with an empty `require` list is vacuous; name at least one \
                     counter that must fire"
                        .to_string(),
                )
                .in_field("expectation.require"));
            }
            check_require(require, timeline, d)?;
        }
        ExpectationSpec::DuplicatesFree => {
            if max_rate(timeline, d, FaultKnob::Duplicate) <= 0.0 {
                return Err(SpecError::expectation(
                    "duplicates-free requires a nonzero duplicate rate".to_string(),
                )
                .in_field("expectation.kind"));
            }
            let lossy = [
                FaultKnob::Dropout,
                FaultKnob::Churn,
                FaultKnob::Straggle,
                FaultKnob::Malformed,
            ]
            .into_iter()
            .any(|knob| max_rate(timeline, d, knob) > 0.0)
                || timeline.byzantine_frac() > 0.0;
            if lossy {
                return Err(SpecError::expectation(
                    "duplicates-free demands exact equality with the honest run, so every \
                     fault other than duplication must be 0"
                        .to_string(),
                )
                .in_field("expectation.kind"));
            }
        }
        ExpectationSpec::ChaosRecovery { z, require } => {
            check_z(*z)?;
            if spec.chaos.is_empty() {
                return Err(SpecError::expectation(
                    "chaos-recovery with an empty chaos plan is vacuous; configure at least \
                     one kill or restart in [chaos]"
                        .to_string(),
                )
                .in_field("expectation.kind"));
            }
            check_require(require, timeline, d)?;
        }
    }
    Ok(())
}

/// What an expectation actually verified, for reporting.
#[derive(Debug, Clone)]
pub struct ExpectationReport {
    /// The expectation's kind name.
    pub label: String,
    /// Number of individual assertions that ran (always > 0).
    pub checks: usize,
    /// Human-readable evidence lines, one per assertion.
    pub details: Vec<String>,
}

/// Runs a compiled spec's expectation against an outcome, panicking with
/// a descriptive message on any violation (test-harness style, like the
/// oracle it wraps).
///
/// `live` carries the live engine's ledger when a live leg ran; for a
/// `chaos-recovery` spec checked without one, the ledger assertions are
/// skipped and noted in the report.
pub fn check_expectation(
    compiled: &CompiledSpec,
    population: &Population,
    outcome: &ScenarioOutcome,
    live: Option<(&IngestStats, &ChaosPlan)>,
) -> ExpectationReport {
    let mut details = Vec::new();
    let mut checks = 0usize;
    let honest_reference = || {
        run_event_driven_with(
            &compiled.params,
            population,
            compiled.seed,
            ExecMode::Sequential,
        )
    };

    match &compiled.expectation {
        ExpectationSpec::ExactHonest => {
            let honest = honest_reference();
            assert_eq!(
                outcome.estimates, honest.estimates,
                "exact-honest: estimates diverge from the event-driven engine"
            );
            assert_eq!(
                outcome.group_sizes, honest.group_sizes,
                "exact-honest: group sizes diverge"
            );
            assert_eq!(
                outcome.wire, honest.wire,
                "exact-honest: wire stats diverge"
            );
            assert_eq!(
                outcome.faults,
                FaultCounts::default(),
                "exact-honest: fault counters fired"
            );
            let missing: u64 = outcome.delivery.iter().map(|r| r.missing()).sum();
            assert_eq!(missing, 0, "exact-honest: reports went missing");
            checks += 5;
            details.push("estimates, group sizes and wire ≡ honest event-driven run".into());
            details.push("zero fault counters, zero missing reports".into());
        }
        ExpectationSpec::Envelope { z, require } => {
            checks += assert_fired(require, outcome, &mut details);
            assert_envelope(compiled, population, outcome, *z, &mut details);
            checks += 1;
        }
        ExpectationSpec::DuplicatesFree => {
            let injected = outcome.faults.duplicates_injected;
            assert!(injected > 0, "duplicates-free: no duplicates were injected");
            let deduped: u64 = outcome.delivery.iter().map(|r| r.duplicate).sum();
            assert_eq!(
                deduped + outcome.faults.expired,
                injected,
                "duplicates-free: injected duplicates not fully accounted for \
                 (deduped {deduped} + expired {} ≠ injected {injected})",
                outcome.faults.expired
            );
            let honest = honest_reference();
            assert_eq!(
                outcome.estimates, honest.estimates,
                "duplicates-free: retransmissions moved the estimates"
            );
            assert_eq!(
                outcome.group_sizes, honest.group_sizes,
                "duplicates-free: group sizes diverge"
            );
            checks += 4;
            details.push(format!(
                "{injected} duplicates injected, {deduped} deduplicated, {} expired",
                outcome.faults.expired
            ));
            details.push("estimates ≡ honest event-driven run, exactly".into());
        }
        ExpectationSpec::ChaosRecovery { z, require } => {
            checks += assert_fired(require, outcome, &mut details);
            assert_envelope(compiled, population, outcome, *z, &mut details);
            checks += 1;
            match live {
                Some((stats, plan)) => {
                    assert_eq!(
                        stats.recoveries,
                        plan.expected_kills(),
                        "chaos-recovery: not every configured kill was recovered"
                    );
                    assert_eq!(
                        stats.restarts,
                        plan.expected_restarts(),
                        "chaos-recovery: not every configured restart happened"
                    );
                    checks += 2;
                    details.push(format!(
                        "live ledger: {} kill(s) recovered, {} restart(s) survived",
                        stats.recoveries, stats.restarts
                    ));
                }
                None => {
                    details.push("no live leg in this run: chaos ledger not checked here".into());
                }
            }
        }
    }

    assert!(checks > 0, "expectation ran zero checks (vacuous)");
    ExpectationReport {
        label: compiled.expectation.kind_name().to_string(),
        checks,
        details,
    }
}

/// Asserts every required counter actually fired; returns how many.
fn assert_fired(
    require: &[FaultField],
    outcome: &ScenarioOutcome,
    details: &mut Vec<String>,
) -> usize {
    for field in require {
        let v = field.get(&outcome.faults);
        assert!(
            v > 0,
            "required counter `{}` never fired (the spec promised it would)",
            field.name()
        );
        details.push(format!("`{}` fired {v} time(s)", field.name()));
    }
    require.len()
}

/// Asserts the estimates sit inside the bias-aware faulty envelope.
fn assert_envelope(
    compiled: &CompiledSpec,
    population: &Population,
    outcome: &ScenarioOutcome,
    z: f64,
    details: &mut Vec<String>,
) {
    let env = faulty_envelope(&compiled.params, population, outcome, z);
    assert_within_band(&outcome.estimates, population.true_counts(), &env);
    details.push(format!(
        "all {} periods inside the z = {z} faulty envelope",
        outcome.estimates.len()
    ));
}
