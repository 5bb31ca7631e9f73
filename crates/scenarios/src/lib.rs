//! Fault-injected longitudinal workloads and the differential oracle.
//!
//! The paper's guarantee is for an online protocol in which every client
//! reports once per assigned boundary, losslessly. Real longitudinal
//! deployments are not like that: clients drop out, straggle, retransmit,
//! churn away for good, or lie. This crate makes those failure modes a
//! first-class, deterministic test surface:
//!
//! * [`config`] — declarative [`Scenario`] specs: per-report dropout,
//!   per-period permanent churn, straggler delays `Δ`, retransmitted
//!   duplicates, and a Byzantine client fraction;
//! * [`engine`] — [`run_scenario`]: the message-level round loop of
//!   `rtf_sim::engine` wrapped in a seeded fault layer. Client protocol
//!   randomness is never touched, so the honest scenario is value-for-
//!   value identical to `run_event_driven`, and honest clients' bits are
//!   identical across all scenarios of the same seed;
//! * [`live`] — [`run_scenario_live`]: the same fault-injected schedule
//!   served through the streaming ingestion service
//!   (`rtf_runtime::ingest`): per-emitter bounded mailboxes with
//!   blocking backpressure, period-close merge back into the exact
//!   sequential mailbox order, and exact journal-replay recovery of a
//!   killed worker;
//! * [`oracle`] — the differential oracle: asserts exact agreement of the
//!   exact paths under one seed (including
//!   [`oracle::assert_live_agreement`]: streaming ≡ batched ≡
//!   sequential), distributional agreement (tolerance bands from
//!   `rtf_analysis::variance`) for the aggregate sampler, and
//!   bias-aware envelopes for faulty runs;
//! * [`chaos`] — the crash-recovery harness: [`ChaosPlan`]s compose
//!   worker kills, mid-period whole-service snapshot/restarts, and
//!   between-period restarts; [`chaos::assert_chaos_recovery`] proves
//!   every plan recovers bit-identically on both engines and that every
//!   configured fault actually fired;
//! * [`dsl`] — the scenario-authoring layer: [`ScenarioSpec`], a fluent
//!   builder and TOML front end composing protocol, population, shaped
//!   fault timeline, chaos plan, and a registered (never vacuous)
//!   expectation; the named workload library under `workloads/*.toml`
//!   ([`dsl::resolve_workload`]); and the spec-level oracle
//!   [`dsl::verify_workload`] (sequential ≡ batched ≡ live, expectation
//!   asserted to fire). See
//!   `docs/authoring-scenarios.md` and `docs/workload-catalog.md`.
//!
//! Entry points: [`run_scenario`] for one fault-injected execution,
//! [`oracle::assert_exact_agreement`] /
//! [`oracle::measure_aggregate_agreement`] for differential checks,
//! [`dsl::verify_workload`] for a declarative spec end to end.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod chaos;
pub mod config;
pub mod dsl;
pub mod engine;
pub mod live;
pub mod oracle;
mod plan;

pub use chaos::{assert_chaos_recovery, ChaosPlan};
pub use config::{DelayLaw, FaultTimeline, Scenario};
pub use dsl::{ExpectationSpec, ScenarioSpec, SpecError};
pub use engine::{
    run_scenario, run_scenario_batched_timed, run_scenario_schema, run_scenario_sequential_timed,
    run_scenario_timeline, run_scenario_with, FaultCounts, ScenarioOutcome, ScenarioStageTimings,
};
pub use live::{run_scenario_live, run_scenario_live_timeline, run_scenario_live_with};
pub use oracle::{
    assert_exact_agreement, assert_live_agreement, assert_mode_agreement, faulty_envelope,
    measure_aggregate_agreement, measure_aggregate_agreement_with, tolerance_band,
};
