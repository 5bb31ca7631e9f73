//! Execution-mode selection for the protocol pipelines.

/// How an execution path should run: on the calling thread with the
/// legacy per-report schedule, or through the batched multi-worker
/// pipeline.
///
/// Both modes are value-for-value identical for every worker count —
/// per-user randomness derives from `SeedSequence(seed).child(user)` and
/// shard accumulators merge exactly (integer-valued sums) — so the mode
/// is purely a throughput choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The single-threaded reference schedule (per-report framing on the
    /// hot path). This is the oracle the batched pipeline is differenced
    /// against.
    Sequential,
    /// The batched pipeline over a fixed-size pool of this many workers
    /// (≥ 1). `Parallel(1)` exercises the full sharded machinery on one
    /// worker — useful for isolating batching wins from threading wins.
    Parallel(usize),
}

impl ExecMode {
    /// Reads the mode from the `RTF_WORKERS` environment variable:
    /// unset, empty, unparsable, or `0` means [`ExecMode::Sequential`];
    /// `w ≥ 1` means [`ExecMode::Parallel`]`(w)`. CI sets `RTF_WORKERS=4`
    /// to run the whole test pyramid through the parallel pipeline.
    pub fn from_env() -> Self {
        match std::env::var("RTF_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(w) if w >= 1 => ExecMode::Parallel(w),
            _ => ExecMode::Sequential,
        }
    }

    /// Like [`from_env`](Self::from_env), but for surfaces whose natural
    /// default is parallel (throughput benches, large examples): unset
    /// or unparsable `RTF_WORKERS` means `Parallel(available
    /// parallelism)`, an explicit `0` means `Parallel(1)` (single-worker
    /// batched pipeline — no threading, still batched), `w ≥ 1` means
    /// `Parallel(w)`.
    pub fn from_env_or_parallel() -> Self {
        match std::env::var("RTF_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(w) => ExecMode::Parallel(w.max(1)),
            None => ExecMode::Parallel(
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1),
            ),
        }
    }

    /// The worker count this mode runs on (`Sequential` ⇒ 1).
    pub fn workers(&self) -> usize {
        match *self {
            ExecMode::Sequential => 1,
            ExecMode::Parallel(w) => w.max(1),
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecMode::Sequential => write!(f, "sequential"),
            ExecMode::Parallel(w) => write!(f, "parallel({w})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_and_flags() {
        assert_eq!(ExecMode::Sequential.workers(), 1);
        assert_eq!(ExecMode::Parallel(4).workers(), 4);
        // Degenerate Parallel(0) clamps to one worker.
        assert_eq!(ExecMode::Parallel(0).workers(), 1);
    }

    #[test]
    fn display_names() {
        assert_eq!(ExecMode::Sequential.to_string(), "sequential");
        assert_eq!(ExecMode::Parallel(8).to_string(), "parallel(8)");
    }
}
