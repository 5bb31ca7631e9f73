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
//!   closes the period. Runs either **sequentially** with real serialised
//!   framing (the reference oracle) or through the **batched
//!   multi-worker pipeline** of `rtf-runtime` (columnar report batches,
//!   shard accumulators merged in shard-index order) — value-for-value
//!   identical for any worker count; `RTF_WORKERS` selects the default;
//! * [`aggregate`] — a distribution-identical `O(n·(k + d/2^h))`
//!   aggregate sampler for the FutureRand protocol (zero partial sums
//!   contribute an exact `Binomial(m, ½)` of uniform bits; non-zero ones
//!   walk each user's pre-computed `b̃`), enabling million-user
//!   experiments;
//! * [`runner`] — a parallel, deterministically seeded trial runner over
//!   the shared `rtf_runtime::WorkerPool`, returning per-trial metrics in
//!   trial order;
//! * [`live`] — [`run_event_driven_live`]: the honest schedule driven
//!   through the **streaming ingestion service**
//!   (`rtf_runtime::ingest`): per-period chunked intake into bounded
//!   per-worker mailboxes with blocking backpressure, shard accumulators
//!   flushed at period close, and exact journal-replay recovery of a
//!   worker killed mid-horizon — value-for-value identical to the
//!   offline engines.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod aggregate;
pub mod engine;
pub mod live;
pub mod message;
pub mod runner;

pub use aggregate::{run_calibrated_aggregate, run_future_rand_aggregate};
pub use engine::{
    build_order_groups, run_event_driven, run_event_driven_with, EventDrivenOutcome, SpanGroup,
};
pub use live::{run_event_driven_live, run_event_driven_live_with};
pub use message::{OrderAnnouncement, ReportMsg, WireStats};
pub use runner::{run_future_rand, run_trials, TrialPlan, TrialResults};
