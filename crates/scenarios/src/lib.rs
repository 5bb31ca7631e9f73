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
//! * [`run()`] — the one run seam: a [`RunSpec`] names params,
//!   population, seed, a per-order randomizer table (the paper's `ε̃`, or
//!   the audit-calibrated one), an [`Engine`] (the trusted event engine,
//!   or the checked engine under a [`FaultTimeline`]) and a [`Mode`]
//!   (sequential, batched over `w` workers, or live through the
//!   streaming ingestion service under a `LiveConfig`). `run` checks the
//!   inputs, builds the table once, calls the one engine body the spec
//!   names and returns one `rtf_sim::Outcome`, whose value fields are
//!   identical across modes. [`Mode::from_env`] reads `RTF_WORKERS`;
//! * [`engine`] — the checked engine's bodies: the message-level round
//!   loop of `rtf_sim::engine` wrapped in a seeded fault layer. Client
//!   protocol randomness is never touched, so the honest scenario is
//!   value-for-value identical to the event engine, and honest clients'
//!   bits are identical across all scenarios of the same seed. The live
//!   drivers of both engines serve the same schedules through the
//!   streaming ingestion service (`rtf_runtime::ingest`): bounded
//!   per-worker mailboxes with blocking backpressure, a period-close
//!   merge back into the exact sequential mailbox order, and exact
//!   journal-replay recovery of a killed worker;
//! * [`oracle`] — the differential oracle: asserts exact agreement of the
//!   exact paths under one seed (including
//!   [`oracle::assert_live_agreement`]: streaming ≡ batched ≡
//!   sequential), and bias-aware envelopes (tolerance bands from
//!   `rtf_analysis::variance`) for faulty runs;
//! * [`chaos`] — the crash-recovery harness:
//!   [`chaos::assert_chaos_recovery`] runs lists of worker kills,
//!   mid-period whole-service snapshot/restarts and between-period
//!   restarts (the fault lists of a `LiveConfig`) through both engines, proves every one recovers
//!   bit-identically and that every configured fault actually fired;
//! * [`dsl`] — the scenario-authoring layer: [`ScenarioSpec`], a fluent
//!   builder and TOML front end composing protocol, population, shaped
//!   fault timeline, chaos, and a registered (never vacuous)
//!   expectation; the named workload library under `workloads/*.toml`
//!   ([`dsl::resolve_workload`]); and the spec-level oracle
//!   [`dsl::verify_workload`] (sequential ≡ batched ≡ live, expectation
//!   asserted to fire). See
//!   `docs/authoring-scenarios.md` and `docs/workload-catalog.md`.
//!
//! Entry points: [`run()`] for one execution,
//! [`oracle::assert_exact_agreement`] /
//! [`oracle::assert_live_agreement`] for differential checks,
//! [`dsl::verify_workload`] for a declarative spec end to end.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod chaos;
pub mod config;
pub mod dsl;
pub mod engine;
mod live;
pub mod oracle;
mod plan;
mod run_spec;

pub use chaos::assert_chaos_recovery;
pub use config::{DelayLaw, FaultTimeline, Scenario};
pub use dsl::{ExpectationSpec, ScenarioSpec, SpecError};
pub use oracle::{
    assert_exact_agreement, assert_live_agreement, assert_mode_agreement, faulty_envelope,
    tolerance_band,
};
pub use rtf_core::composed::RandomizerTable;
pub use run_spec::{run, Engine, Mode, RunSpec};
