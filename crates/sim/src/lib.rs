//! Deterministic message-passing simulation of longitudinal LDP
//! deployments.
//!
//! The paper assumes `n` devices reporting one bit to an untrusted server
//! whenever one of their dyadic intervals completes. This crate simulates
//! that deployment faithfully enough for every claim that depends on it:
//!
//! * [`message`] — serialisable wire formats for order announcements and
//!   report bits, with exact byte/bit accounting (the communication-cost
//!   experiment `exp_communication`);
//! * [`engine`] — the event-driven round loop: at every period each client
//!   observes its own new datum, emits any due report, and the server
//!   closes the period. Two bodies run it: **sequentially** with real
//!   serialised framing (the reference oracle), or through the **batched
//!   multi-worker pipeline** of `rtf-runtime` (columnar report batches,
//!   shard accumulators merged in shard-index order) — value-for-value
//!   identical for any worker count. Both take the per-order randomizer
//!   table, the paper's or the audit-calibrated one.
//!   `rtf_scenarios::run` is the entry point that checks a run's inputs,
//!   builds the table and picks the body; it also drives the same order
//!   groups through the streaming ingestion service;
//! * [`outcome`] — [`Outcome`], the one result type of every engine run,
//!   with its fault tallies, stage timings and one comparator over its
//!   value fields;
//! * [`runner`] — a parallel, deterministically seeded trial runner over
//!   the shared `rtf_runtime::WorkerPool`, returning per-trial metrics in
//!   trial order. Every accuracy experiment runs its trials on an engine
//!   body (one worker per trial), so every number it reports comes from
//!   an engine the differential oracle proves value-for-value against the
//!   sequential reference.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod engine;
pub mod message;
pub mod outcome;
pub mod runner;

pub use engine::{build_order_groups, SpanGroup};
pub use message::{OrderAnnouncement, ReportMsg, WireStats};
pub use outcome::{FaultCounts, Outcome, StageTimings};
pub use runner::{run_trials, TrialPlan, TrialResults};
