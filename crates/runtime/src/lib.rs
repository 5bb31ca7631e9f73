//! Deterministic parallel runtime for the longitudinal LDP pipelines.
//!
//! The paper's server (Algorithm 2) is a sum of ±1 report bits per open
//! dyadic interval — an embarrassingly shardable reduction — and every
//! per-user randomness stream already derives from
//! `SeedSequence(seed).child(user)`, independent of scheduling. This
//! crate supplies the three pieces that turn those facts into
//! bit-reproducible parallel execution:
//!
//! * [`mode`] — [`ExecMode`]: `Sequential` (the legacy single-threaded
//!   reference schedule) vs `Parallel(workers)` (the batched pipeline);
//!   `RTF_WORKERS` selects the default at runtime;
//! * [`pool`] — [`WorkerPool`]: a fixed-size pool (a locked job
//!   injector + scoped threads) whose sharded maps return results in
//!   shard-index order, making every downstream reduction
//!   schedule-independent;
//! * [`batch`] — columnar `{user, order, sign}` report batches that
//!   replace per-report byte frames on the hot path, folding straight
//!   into mergeable shard accumulators;
//! * [`ingest`] — [`IngestService`]: the long-running streaming
//!   ingestion front — per-period batch intake into bounded per-worker
//!   `std::sync::mpsc` mailboxes (backpressure blocks producers, never
//!   drops), untrusted frames classified on arrival by the worker owning
//!   the claimed id, shard accumulators and checked tallies absorbed by
//!   the server at period close, a delivery-log journal that replays a
//!   killed worker's open period into its replacement exactly, and
//!   whole-service snapshot/restore — a versioned,
//!   checksummed byte format covering server state, stats, and open
//!   journals, so a killed process resumes bit-identically
//!   (`RTF_SNAPSHOT_DIR` gates the file-backed convenience wrappers).
//!
//! The execution engines themselves live with their protocols —
//! `rtf_sim::engine` (honest schedule) and `rtf_scenarios::engine`
//! (fault-injected schedule) — and are proven equivalent across modes by
//! the differential oracle (`rtf_scenarios::oracle`): `sequential ≡
//! parallel(w)` value-for-value for every worker count `w`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod batch;
pub mod ingest;
pub mod mode;
pub mod pool;

pub use batch::{Frame, FrameBatch, MailboxMerge, ReportBatch, SignLane};
pub use ingest::{
    replay_frames_checked, snapshot_dir_from_env, IngestService, IngestStats, LiveConfig,
    PeriodClose, ServiceRestart, SnapshotFileError, WorkerKill,
};
pub use mode::ExecMode;
pub use pool::{partition, shard_of, Shard, WorkerPool};
