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
//!   identical for any worker count. `rtf_scenarios::run` is the entry
//!   point that checks a run's inputs and picks the body; it also drives
//!   the same order groups through the streaming ingestion service;
//! * [`outcome`] — [`Outcome`], the one result type of every engine run,
//!   with its fault tallies, stage timings and one comparator over its
//!   value fields;
//! * [`aggregate`] — a distribution-identical `O(n·(k + d/2^h))`
//!   aggregate sampler for the FutureRand protocol (zero partial sums
//!   contribute an exact `Binomial(m, ½)` of uniform bits; non-zero ones
//!   walk each user's pre-computed `b̃`), enabling million-user
//!   experiments;
//! * [`runner`] — a parallel, deterministically seeded trial runner over
//!   the shared `rtf_runtime::WorkerPool`, returning per-trial metrics in
//!   trial order.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod aggregate;
pub mod engine;
pub mod message;
pub mod outcome;
pub mod runner;

pub use aggregate::{run_calibrated_aggregate, run_future_rand_aggregate};
pub use engine::{build_order_groups, SpanGroup};
pub use message::{OrderAnnouncement, ReportMsg, WireStats};
pub use outcome::{FaultCounts, Outcome, StageTimings};
pub use runner::{run_future_rand, run_trials, TrialPlan, TrialResults};
