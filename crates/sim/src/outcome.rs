//! What one engine run returns, whichever engine and mode produced it.
//!
//! [`Outcome`] is the one result type of every engine (`rtf_scenarios::run`
//! and the benchmark's pinned entry points). Its *value* fields are pure
//! functions of `(params, population, seed, faults)` and are identical
//! across execution modes and worker counts; [`Outcome::assert_values_eq`]
//! is the one comparator over them. The remaining fields measure one
//! execution (memory, stage wall clock, service accounting) and are never
//! compared.

use crate::message::WireStats;
use rtf_core::protocol::ProtocolOutcome;
use rtf_core::server::PeriodDelivery;
use rtf_runtime::ingest::IngestStats;

/// Tallies of every fault the injection layer applied.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Reports lost by per-report dropout.
    pub dropped: u64,
    /// Clients that departed permanently before the horizon ended.
    pub churned_clients: u64,
    /// Reports suppressed because their sender had churned.
    pub lost_to_churn: u64,
    /// Reports delivered late.
    pub delayed: u64,
    /// Extra retransmitted copies injected.
    pub duplicates_injected: u64,
    /// Fabricated messages emitted by Byzantine clients.
    pub byzantine_messages: u64,
    /// Fabricated messages the server accepted as on-time reports.
    pub byzantine_accepted: u64,
    /// Messages delayed past the horizon (never delivered).
    pub expired: u64,
    /// Delivered frames whose encoding was corrupted in flight — they
    /// fail `ReportMsg::try_decode` and are dropped before ingestion.
    pub malformed: u64,
}

impl FaultCounts {
    /// Adds another shard's tallies into `self` (exact integer merge).
    pub fn merge(&mut self, other: &FaultCounts) {
        self.dropped += other.dropped;
        self.churned_clients += other.churned_clients;
        self.lost_to_churn += other.lost_to_churn;
        self.delayed += other.delayed;
        self.duplicates_injected += other.duplicates_injected;
        self.byzantine_messages += other.byzantine_messages;
        self.byzantine_accepted += other.byzantine_accepted;
        self.expired += other.expired;
        self.malformed += other.malformed;
    }
}

/// Wall-clock decomposition of one engine run into three stages that run
/// one after another and add up to the run's wall time.
///
/// In the checked engine's batched mode:
/// - `emission_s` is the shard fan-out: client build, the fault
///   pre-walk with its tally of honest residue verdicts, routing each
///   Byzantine fabrication to its recipient's roster shard in mailbox
///   order, and the span walk;
/// - `merge_s` is the pool phase: one job per roster shard merges the
///   fabrications addressed to it and runs the checked ladder on its
///   slice, then corrects the residue verdicts of the honest clients an
///   accepted fabrication impersonated;
/// - `ingest_s` is the serial rest: registration, then per period the
///   absorb of every tally and span fold, and the period close.
///
/// The four emission sub-stages (`build_s`, `prewalk_s`, `fabricate_s`,
/// `span_walk_s`) come from the shard whose emission finished last, so
/// they sum to at most `emission_s`: what is left is that shard's wait
/// for a pool thread and the fan-out's own overhead.
///
/// In the checked engine's sequential mode `emission_s` is client build
/// plus per-period emission, `merge_s` stays zero (one mailbox needs no
/// merge), `ingest_s` is checked ingestion plus period close, and the
/// sub-stages stay zero.
///
/// In the event engine's batched mode `emission_s` is the pool phase,
/// `build_s` and `span_walk_s` come from the shard that finished last,
/// `ingest_s` is the serial registration, absorb and period close, and
/// `merge_s`, `prewalk_s` and `fabricate_s` stay zero. Its sequential
/// and live modes carry no stages.
///
/// Exists to make cross-mode and cross-worker-count comparisons
/// diagnosable — a slower parallel(2) than parallel(1) at large `n` is a
/// very different bug depending on which stage grew. `scripts/perf_gate.py`
/// checks the stages are present on every scenario bench row and every
/// batched event row, and sum to the row's elapsed time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Seconds in emission (client state machines, fault layer, and in
    /// batched mode the residue tally and the routing of fabrications to
    /// roster shards).
    pub emission_s: f64,
    /// Seconds in the batched pool phase: per roster shard, merging its
    /// fabrications, classifying them through the checked ladder, and
    /// correcting the residue verdicts of impersonated clients.
    pub merge_s: f64,
    /// Seconds in registration, the serial absorb of tallies and folds,
    /// and period close (all of checked ingestion in sequential mode).
    pub ingest_s: f64,
    /// Batched emission sub-stage, from the shard whose emission finished
    /// last: building its clients' order groups.
    pub build_s: f64,
    /// Batched emission sub-stage, same shard: the fault pre-walk (one
    /// mask walk per client, the on-time bitmap and the residue tally).
    pub prewalk_s: f64,
    /// Batched emission sub-stage, same shard: fabricating, routing and
    /// addressing the Byzantine frames.
    pub fabricate_s: f64,
    /// Batched emission sub-stage, same shard: the span walk (packed sign
    /// words and their masked folds).
    pub span_walk_s: f64,
}

/// The result of one engine run.
///
/// The event engine leaves the checked engine's fields (`delivery`,
/// `faults`, `byzantine_accepted_by_period`) empty.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The online estimates `â[t]` the server published.
    pub estimates: Vec<f64>,
    /// Per-order group sizes `|U_h|`.
    pub group_sizes: Vec<usize>,
    /// Accounting of *delivered* traffic (announcements + reports that
    /// reached the server, on time or not).
    pub wire: WireStats,
    /// The server's per-period delivery rows (due/accepted/late/…).
    pub delivery: Vec<PeriodDelivery>,
    /// What the fault layer did.
    pub faults: FaultCounts,
    /// Per-period count of Byzantine fabrications the server accepted
    /// (`[t-1] = count at period t`) — input to the oracle's bias bound.
    pub byzantine_accepted_by_period: Vec<u64>,
    /// Heap bytes held by the event engine's accumulation state: in
    /// batched mode the sum over every per-period shard accumulator, in
    /// sequential mode the server's one live accumulator, in live mode
    /// every flushed shard. Zero on the checked engine.
    pub acc_bytes: u64,
    /// Per-stage wall clock of the checked engine's sequential and
    /// batched modes and of the event engine's batched mode.
    pub stages: Option<StageTimings>,
    /// The ingestion service's accounting, in live mode.
    pub ingest: Option<IngestStats>,
}

impl Outcome {
    /// Cumulative missing reports by period: `[t-1] = Σ_{s ≤ t} missing(s)`.
    pub fn cumulative_missing(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.delivery
            .iter()
            .map(|row| {
                acc += row.missing();
                acc
            })
            .collect()
    }

    /// Fraction of due reports that arrived on time, over the whole run.
    pub fn accepted_fraction(&self) -> f64 {
        let due: u64 = self.delivery.iter().map(|r| r.due).sum();
        let acc: u64 = self.delivery.iter().map(|r| r.accepted).sum();
        if due == 0 {
            return 1.0;
        }
        acc as f64 / due as f64
    }

    /// Asserts that `self` and `other` agree on every value field —
    /// estimates, group sizes, wire stats, delivery rows, fault counts
    /// and per-period Byzantine acceptance — naming `label` and the first
    /// field that differs. `acc_bytes`, `stages` and `ingest` measure one
    /// execution and are not compared.
    ///
    /// # Panics
    /// Panics on the first differing value field.
    pub fn assert_values_eq(&self, other: &Outcome, label: &str) {
        assert_eq!(self.estimates, other.estimates, "{label}: estimates");
        assert_eq!(self.group_sizes, other.group_sizes, "{label}: group sizes");
        assert_eq!(self.wire, other.wire, "{label}: wire stats");
        assert_eq!(self.delivery, other.delivery, "{label}: delivery rows");
        assert_eq!(self.faults, other.faults, "{label}: fault counts");
        assert_eq!(
            self.byzantine_accepted_by_period, other.byzantine_accepted_by_period,
            "{label}: per-period Byzantine acceptance"
        );
    }
}

/// An engine run as the trusted drivers' result type, so the trial
/// runner and the metrics take any engine's run: the estimates, the
/// group sizes, and the delivered report bits (`wire.payload_bits`; on
/// the event engine every report sent).
impl From<Outcome> for ProtocolOutcome {
    fn from(outcome: Outcome) -> Self {
        ProtocolOutcome::from_parts(
            outcome.estimates,
            outcome.group_sizes,
            outcome.wire.payload_bits,
        )
    }
}
