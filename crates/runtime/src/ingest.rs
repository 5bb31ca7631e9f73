//! The streaming ingestion service — the long-running front of the
//! longitudinal pipeline.
//!
//! The protocol of Algorithm 2 is inherently a *service*: clients emit
//! one report per assigned boundary forever, and the server must fold
//! them in as they arrive, period after period, without ever seeing the
//! whole horizon at once. The offline modes of `rtf_scenarios::run`
//! (sequential and batched, on the event and the checked engine)
//! simulate that schedule over whole-horizon shards; [`IngestService`]
//! is the online counterpart, which `run`'s live mode drives:
//!
//! * **Per-period intake.** Producers stream columnar
//!   [`ReportBatch`]es (trusted traffic, folded into shard accumulators
//!   by the owning worker) or [`FrameBatch`]es (untrusted traffic) into
//!   per-worker mailboxes. Worker `w` owns the wire ids
//!   `partition(n, workers)[w]` (the split of [`shard_of`]) and an owned
//!   copy of their roster slots ([`RosterSlice`]). It runs the checked
//!   ladder on every frame as its batch arrives, keeping a
//!   [`CheckedTally`], the verdicts in arrival order and the ids it
//!   accepted, so classification is off the publish path.
//!   [`submit_frames`](IngestService::submit_frames) checks on the
//!   caller's thread that each frame reaches the worker owning the id it
//!   claims, in mailbox order.
//! * **Bounded mailboxes with backpressure.** Every mailbox is a
//!   `std::sync::mpsc::sync_channel` of [`LiveConfig::mailbox_cap`]
//!   batches. A full mailbox **blocks the producer** — messages are
//!   never dropped and never reordered, so the observable outcome is
//!   independent of how far ahead producers run. Backpressure changes
//!   timing, never values.
//! * **Period-close flush.** [`close_period`](IngestService::close_period)
//!   first checks that it names the open period (a misnumbered close
//!   panics before it touches a worker, so it loses nothing), then
//!   barriers every worker and collects its shard accumulator and
//!   classified frames **in worker index order**. It only absorbs: for
//!   each worker in turn it commits the accepted ids into the server's
//!   roster and absorbs the tally and the shard, then finalises the
//!   period via [`Server::end_of_period`]. A verdict reads only its
//!   sender's roster slot and the open period, and every worker sees its
//!   own ids' frames in mailbox order, so streaming execution is
//!   value-for-value identical to batched and sequential execution
//!   (proven by `rtf_scenarios::oracle::assert_live_agreement`). Between
//!   closes the server's roster is the closed-period state.
//! * **Restart recovery.** Every submitted batch is journalled (per
//!   worker, per open period) before it enters a mailbox — a delivery
//!   log. [`kill_worker`](IngestService::kill_worker) abandons a worker
//!   thread and its entire un-flushed state mid-period, spawns a
//!   replacement from the server's closed-period roster slice, and
//!   replays the journal into it. Folding and classification are
//!   deterministic, so the replacement's flush is bit-identical to the
//!   one the dead worker would have produced: **recovery is exact**, and
//!   the oracle asserts it on honest and fault-injected schedules alike.
//! * **Worker panics.** A worker that panics fails the next call that
//!   reaches it (a submit or a close) with its own panic payload.
//!   Recovering from the journal after a panic is not implemented.
//!
//! Journals are truncated at every period close (flushed shards already
//! live in the server), so the journal holds one open period of traffic
//! per worker — O(period volume), not O(horizon).
//!
//! * **Whole-service snapshot/restart.** The pair above — closed-period
//!   server state plus open-period journals — is *exactly* the durable
//!   state of the service, so [`snapshot`](IngestService::snapshot)
//!   serializes it (versioned, checksummed — see `rtf_core::snapshot`)
//!   and [`restore`](IngestService::restore) rebuilds a bit-identical
//!   service in a fresh process: fresh workers are spawned and the open
//!   period's journals are replayed into them, exactly like
//!   `kill_worker` recovers a single worker.
//!   [`restart`](IngestService::restart) composes the two in place and
//!   surfaces the event in [`IngestStats::restarts`]. File-backed
//!   convenience wrappers are gated on the `RTF_SNAPSHOT_DIR`
//!   environment variable. The chaos suite
//!   (`rtf_scenarios::chaos`) proves restarted ≡ streaming ≡ batched ≡
//!   sequential, value for value, under proptest-chosen kill/restart
//!   placements.

use crate::batch::{FrameBatch, ReportBatch};
use crate::pool::partition;
#[cfg(doc)]
use crate::pool::shard_of;
use rtf_core::accumulator::{Accumulator, AccumulatorError, AnyAccumulator};
use rtf_core::server::{CheckedTally, Delivery, RosterSlice, Server};
use rtf_core::snapshot::{SnapReader, SnapWriter, SnapshotError};
use rtf_primitives::sign::Sign;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default mailbox capacity, in batches.
///
/// Deliberately small: with the live drivers' 4096-row chunks, 32
/// batches bound the in-flight rows per worker to ~128K — enough to
/// keep workers busy, small enough that batches are still cache-warm
/// when folded. A deep mailbox is effectively unbounded buffering: the
/// producer runs megabytes ahead and every fold streams cold memory.
pub const DEFAULT_MAILBOX_CAP: usize = 32;

/// How long a period close polls a worker's flush, yielding its thread
/// between polls, before it sleeps on the channel. A close waits for each
/// worker to classify what it still has queued, typically a fraction of
/// a millisecond; sleeping instead adds a thread wake-up to every
/// published estimate, which a virtualised host can stretch to tens of
/// microseconds.
const FLUSH_POLL: Duration = Duration::from_micros(250);

/// A mid-horizon worker failure to inject: after period `period`'s
/// traffic has been submitted (but before the period closes), worker
/// `worker` is killed and recovered from the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerKill {
    /// Worker index to kill (taken modulo the worker count).
    pub worker: usize,
    /// Period during which the kill strikes (1-based).
    pub period: u64,
}

/// A whole-service restart to inject: at period `period` the service is
/// snapshotted, torn down, and restored from its own bytes — as if the
/// process had been killed and relaunched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceRestart {
    /// Period during which the restart strikes (1-based).
    pub period: u64,
    /// `true`: restart *mid-period*, after the period's traffic has been
    /// submitted but before the close — the worst moment, forcing a full
    /// journal replay. `false`: restart between periods, after the close,
    /// when the journals are empty.
    pub mid_period: bool,
}

/// Configuration of a live (streaming) run: service shape plus the
/// driver's submission granularity and optional fault injection.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Number of ingestion workers (≥ 1; 0 clamps to 1).
    pub workers: usize,
    /// Bounded mailbox capacity, in batches (≥ 1). Small caps force
    /// producers to stall on the backpressure path; values never change.
    pub mailbox_cap: usize,
    /// Maximum rows per submitted batch — the streaming granularity of
    /// the live drivers (smaller chunks ⇒ more intake messages per
    /// period).
    pub chunk_rows: usize,
    /// Injected worker failures (see [`WorkerKill`]); applied in order
    /// when their period arrives, after any same-period mid-period
    /// restarts.
    pub kills: Vec<WorkerKill>,
    /// Injected whole-service restarts (see [`ServiceRestart`]), applied
    /// in order when their period arrives.
    pub restarts: Vec<ServiceRestart>,
}

impl LiveConfig {
    /// A config for `workers` workers with [`DEFAULT_MAILBOX_CAP`]-batch
    /// mailboxes, a 4096-row chunk, and no injected failure.
    pub fn new(workers: usize) -> Self {
        LiveConfig {
            workers: workers.max(1),
            mailbox_cap: DEFAULT_MAILBOX_CAP,
            chunk_rows: 4096,
            kills: Vec::new(),
            restarts: Vec::new(),
        }
    }

    /// Sets the mailbox capacity (0 clamps to 1: a capacity-0 channel
    /// would be a rendezvous, not a mailbox).
    pub fn with_mailbox_cap(mut self, cap: usize) -> Self {
        self.mailbox_cap = cap.max(1);
        self
    }

    /// Sets the submission chunk size (0 clamps to 1).
    pub fn with_chunk_rows(mut self, rows: usize) -> Self {
        self.chunk_rows = rows.max(1);
        self
    }

    /// Adds a worker kill (see [`WorkerKill`]). May be called repeatedly
    /// — every added kill fires.
    pub fn with_kill(mut self, worker: usize, period: u64) -> Self {
        self.kills.push(WorkerKill { worker, period });
        self
    }

    /// Adds a *mid-period* whole-service restart at `period`: the
    /// service is snapshotted and rebuilt after the period's traffic is
    /// in flight, before the close. May be called repeatedly.
    pub fn with_restart(mut self, period: u64) -> Self {
        self.restarts.push(ServiceRestart {
            period,
            mid_period: true,
        });
        self
    }

    /// Adds a *between-periods* whole-service restart: the service is
    /// snapshotted and rebuilt right after period `period` closes.
    pub fn with_restart_after(mut self, period: u64) -> Self {
        self.restarts.push(ServiceRestart {
            period,
            mid_period: false,
        });
        self
    }

    /// Panics unless every configured fault lands on the horizon
    /// `[1..d]`. A fault scheduled at period 0 or past `d` would
    /// silently never fire — turning a chaos test into a vacuous pass —
    /// so the live drivers call this before running.
    ///
    /// # Panics
    /// Panics, naming the offending fault, if any kill or restart period
    /// is outside `[1..d]`.
    pub fn validate_for_horizon(&self, d: u64) {
        for kill in &self.kills {
            assert!(
                (1..=d).contains(&kill.period),
                "configured worker kill at period {} can never fire on horizon d={d}",
                kill.period
            );
        }
        for restart in &self.restarts {
            assert!(
                (1..=d).contains(&restart.period),
                "configured service restart at period {} can never fire on horizon d={d}",
                restart.period
            );
        }
    }

    /// Applies this config's faults that strike during period `t`,
    /// *before* the close: mid-period restarts first (in config order),
    /// then worker kills — so a restart-then-kill composition exercises
    /// a kill inside a freshly restored service.
    pub fn apply_pre_close(&self, mut service: IngestService, t: u64) -> IngestService {
        for restart in &self.restarts {
            if restart.mid_period && restart.period == t {
                service = service
                    .restart()
                    .expect("a service's own snapshot always restores");
            }
        }
        for kill in &self.kills {
            if kill.period == t {
                service.kill_worker(kill.worker);
            }
        }
        service
    }

    /// Applies this config's between-period restarts that strike right
    /// after period `t` closes.
    pub fn apply_post_close(&self, mut service: IngestService, t: u64) -> IngestService {
        for restart in &self.restarts {
            if !restart.mid_period && restart.period == t {
                service = service
                    .restart()
                    .expect("a service's own snapshot always restores");
            }
        }
        service
    }
}

/// One intake message for a worker mailbox. Batches are shared with the
/// journal through an [`Arc`] — submission hands the same allocation to
/// both, so the hot path never deep-copies a batch.
enum WorkerMsg {
    /// Trusted rows: fold into the worker's shard accumulator.
    Reports(Arc<ReportBatch>),
    /// Untrusted frames: classify on the worker's roster slice.
    Frames(Arc<FrameBatch>),
    /// Period-close barrier: ship the period's state back and open the
    /// next period.
    Flush,
}

/// The server state a worker classifies from: the closed-period roster
/// slots of the ids it owns, and the number of closed periods.
struct WorkerStart {
    roster: RosterSlice,
    closed: u64,
}

/// A worker's untrusted traffic of the open period, classified on
/// arrival.
struct FrameIntake {
    /// The frames, in arrival order (mailbox order, by the submit
    /// contract).
    frames: FrameBatch,
    /// One verdict per frame, parallel to `frames`.
    outcomes: Vec<Delivery>,
    /// Verdict counts and accepted signs, for [`Server::absorb_checked`].
    tally: CheckedTally,
    /// The ids whose report was accepted, for
    /// [`Server::commit_accepted`].
    accepted: Vec<u32>,
}

impl FrameIntake {
    fn new(orders: usize) -> Self {
        FrameIntake {
            frames: FrameBatch::new(),
            outcomes: Vec::new(),
            tally: CheckedTally::new(orders),
            accepted: Vec::new(),
        }
    }

    /// Runs the checked ladder on every frame of `batch`, in order, while
    /// period `closed + 1` is open.
    fn classify(&mut self, roster: &mut RosterSlice, closed: u64, batch: &FrameBatch) {
        let mut shard = roster.shard();
        self.outcomes.reserve(batch.len());
        for (user, t, bit) in batch.payload() {
            let bit = if bit { Sign::Plus } else { Sign::Minus };
            let verdict = shard.classify(user, u64::from(t), bit, 0, closed, &mut self.tally);
            if verdict == Delivery::Accepted {
                self.accepted.push(user);
            }
            self.outcomes.push(verdict);
        }
        self.frames.append(batch);
    }
}

/// What a worker hands back at every flush barrier.
struct ShardFlush {
    acc: AnyAccumulator,
    intake: FrameIntake,
}

/// A journalled intake batch for the currently open period. Entries
/// share their batch allocation with the in-flight [`WorkerMsg`] (and
/// with every replay clone) — journalling costs one refcount bump, not
/// a deep copy.
#[derive(Clone)]
enum JournalEntry {
    Reports(Arc<ReportBatch>),
    Frames(Arc<FrameBatch>),
}

impl JournalEntry {
    /// The mailbox message that replays this entry.
    fn msg(&self) -> WorkerMsg {
        match self {
            JournalEntry::Reports(b) => WorkerMsg::Reports(Arc::clone(b)),
            JournalEntry::Frames(b) => WorkerMsg::Frames(Arc::clone(b)),
        }
    }
}

/// Checks `batch` against the routing and order contract of
/// [`IngestService::submit_frames`] for the worker that owns the wire ids
/// `ids` of `0..n` and whose last frame of the period has the
/// `(emitted, emitter)` key `last`. Returns the worker's new last key.
fn check_route(
    ids: &Range<usize>,
    n: usize,
    last: Option<(u32, u32)>,
    batch: &FrameBatch,
) -> Result<Option<(u32, u32)>, String> {
    let Some(end) = batch.len().checked_sub(1) else {
        return Ok(last);
    };
    if !batch.is_sorted() {
        return Err("frames are not in mailbox order".into());
    }
    if let Some(last) = last.filter(|&last| batch.key(0) < last) {
        return Err(format!(
            "frames start at {:?}, before the worker's last frame {last:?}",
            batch.key(0)
        ));
    }
    // A worker that owns every id takes any frame.
    if ids.start > 0 || ids.end < n {
        for &user in batch.users() {
            let user = user as usize;
            if user < n && !ids.contains(&user) {
                return Err(format!("a frame claims wire id {user}, outside {ids:?}"));
            }
        }
    }
    Ok(Some(batch.key(end)))
}

/// One live ingestion worker: mailbox sender, flush receiver, thread.
/// Dropping a slot stops its worker.
struct WorkerSlot {
    tx: Option<SyncSender<WorkerMsg>>,
    flushes: Receiver<ShardFlush>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl WorkerSlot {
    fn spawn(
        index: usize,
        mailbox_cap: usize,
        template: AnyAccumulator,
        start: WorkerStart,
    ) -> Self {
        let (tx, rx) = sync_channel::<WorkerMsg>(mailbox_cap);
        let (flush_tx, flushes) = channel::<ShardFlush>();
        let handle = std::thread::Builder::new()
            .name(format!("rtf-ingest-{index}"))
            .spawn(move || worker_loop(rx, flush_tx, template, start))
            .expect("spawn ingest worker");
        WorkerSlot {
            tx: Some(tx),
            flushes,
            handle: Some(handle),
        }
    }

    /// Waits for the worker's answer to a flush barrier: polls for
    /// [`FLUSH_POLL`], then sleeps on the channel.
    fn await_flush(&mut self, index: usize) -> ShardFlush {
        let start = Instant::now();
        loop {
            match self.flushes.try_recv() {
                Ok(flush) => return flush,
                Err(TryRecvError::Empty) if start.elapsed() < FLUSH_POLL => {
                    std::thread::yield_now();
                }
                Err(_) => break,
            }
        }
        match self.flushes.recv() {
            Ok(flush) => flush,
            Err(_) => self.fail(index),
        }
    }

    /// The worker hung up on its mailbox or its flush channel, which it
    /// does only by panicking: joins it and fails the caller with the
    /// worker's own panic payload.
    fn fail(&mut self, index: usize) -> ! {
        self.tx.take();
        if let Some(Err(payload)) = self.handle.take().map(std::thread::JoinHandle::join) {
            std::panic::resume_unwind(payload);
        }
        panic!("ingest worker {index} is gone");
    }

    /// Closes the mailbox and joins the thread. The worker drains every
    /// message still queued, then exits on disconnect — its state is
    /// simply never collected again, which is what "crashed" means to
    /// the rest of the service.
    fn stop(&mut self) {
        self.tx.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerSlot {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The worker body: fold trusted rows, classify untrusted frames on the
/// worker's roster slice as they arrive, ship both back at every flush
/// barrier.
fn worker_loop(
    rx: Receiver<WorkerMsg>,
    out: Sender<ShardFlush>,
    template: AnyAccumulator,
    start: WorkerStart,
) {
    let orders = template.orders();
    let WorkerStart {
        mut roster,
        mut closed,
    } = start;
    let mut acc = template.clone();
    let mut intake = FrameIntake::new(orders);
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Reports(batch) => batch.fold_into(&mut acc),
            WorkerMsg::Frames(batch) => intake.classify(&mut roster, closed, &batch),
            WorkerMsg::Flush => {
                let flush = ShardFlush {
                    acc: std::mem::replace(&mut acc, template.clone()),
                    intake: std::mem::replace(&mut intake, FrameIntake::new(orders)),
                };
                // The roster slice already holds the period's acceptances,
                // which the close commits to the server's roster.
                closed += 1;
                if out.send(flush).is_err() {
                    break; // service gone mid-flush: nothing left to serve
                }
            }
        }
    }
}

/// Replays one delivery period's frame stream in mailbox order
/// (ascending `(emitted, emitter)`) through the server's checked
/// ingestion path while period `t` is open, returning one [`Delivery`]
/// per frame. The service classifies on its workers instead; this is the
/// one-thread form of the same ladder.
///
/// # Panics
/// Panics unless `t` is the server's open period — frames classified
/// against another period would be absorbed into the wrong estimate.
pub fn replay_frames_checked(server: &mut Server, t: u64, frames: &FrameBatch) -> Vec<Delivery> {
    assert_open_period(server, t);
    frames
        .payload()
        .map(|(user, t, bit)| {
            let bit = if bit { Sign::Plus } else { Sign::Minus };
            server.ingest_checked(user, u64::from(t), bit)
        })
        .collect()
}

/// One period's frames and verdicts from the workers' intakes, in worker
/// index order: moved out when at most one worker received frames,
/// otherwise merged into mailbox order, ascending `(emitted, emitter)`,
/// with each verdict carried along.
fn merge_intakes(intakes: impl Iterator<Item = FrameIntake>) -> (FrameBatch, Vec<Delivery>) {
    let mut intakes: Vec<FrameIntake> = intakes.filter(|i| !i.frames.is_empty()).collect();
    if intakes.len() <= 1 {
        return intakes
            .pop()
            .map_or_else(Default::default, |i| (i.frames, i.outcomes));
    }
    let total = intakes.iter().map(|i| i.outcomes.len()).sum();
    let mut frames = FrameBatch::new();
    let mut outcomes = Vec::with_capacity(total);
    let mut merge = FrameBatch::merge_sorted(intakes.iter().map(|i| &i.frames));
    while let Some((r, row)) = merge.next_row() {
        frames.push(intakes[r].frames.frame(row));
        outcomes.push(intakes[r].outcomes[row]);
    }
    (frames, outcomes)
}

/// Panics unless `t` is `server`'s open period.
fn assert_open_period(server: &Server, t: u64) {
    let open = server.estimates().len() as u64 + 1;
    assert_eq!(t, open, "period {t} is not the open period {open}");
}

/// Aggregate accounting of one service lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Periods closed.
    pub periods: u64,
    /// Intake batches submitted (journal entries written).
    pub batches: u64,
    /// Trusted report rows submitted.
    pub rows: u64,
    /// Untrusted frames submitted.
    pub frames: u64,
    /// Workers killed and recovered.
    pub recoveries: u64,
    /// Journal batches replayed into replacement workers — by
    /// single-worker recovery and by whole-service restarts.
    pub replayed_batches: u64,
    /// Cumulative heap bytes of every flushed shard accumulator — the
    /// live counterpart of the event engine's `Outcome::acc_bytes`.
    pub flushed_acc_bytes: u64,
    /// Whole-service snapshot/restore restarts performed (see
    /// [`IngestService::restart`]) — the proof a configured restart
    /// actually fired.
    pub restarts: u64,
}

/// The result of closing one period.
#[derive(Debug, Clone)]
pub struct PeriodClose {
    /// The period just closed.
    pub t: u64,
    /// The published estimate `â[t]`.
    pub estimate: f64,
    /// The period's untrusted frames in the exact ingestion (sequential
    /// mailbox) order — empty for trusted-only intake.
    pub frames: FrameBatch,
    /// Per-frame verdicts of the checked ladder, as the owning workers
    /// classified the frames on arrival, parallel to
    /// [`frames`](Self::frames).
    pub outcomes: Vec<Delivery>,
}

/// The long-running streaming ingestion service (see the module docs).
///
/// Owns the [`Server`] for the duration of the run;
/// [`finish`](Self::finish) hands it back with the final accounting.
///
/// # Examples
///
/// Stream trusted rows across two workers, kill one mid-period, and
/// recover it exactly from the journal:
///
/// ```
/// use rtf_core::params::ProtocolParams;
/// use rtf_core::server::Server;
/// use rtf_primitives::sign::Sign;
/// use rtf_runtime::ingest::IngestService;
/// use rtf_runtime::ReportBatch;
///
/// let params = ProtocolParams::new(100, 8, 2, 1.0, 0.05).unwrap();
/// let mut server = Server::for_future_rand(params);
/// for _ in 0..4 {
///     server.register_user(0); // four order-0 clients
/// }
///
/// let mut svc = IngestService::new(server, /* workers */ 2, /* mailbox_cap */ 4);
/// for t in 1..=8u64 {
///     let mut batch = ReportBatch::new();
///     for user in 0..4u32 {
///         batch.push(user, 0, Sign::Plus);
///     }
///     svc.submit_reports((t % 2) as usize, batch);
///     if t == 3 {
///         // Worker 0 dies with un-flushed state; the journal replays it.
///         svc.kill_worker(0);
///     }
///     let close = svc.close_period(t).unwrap();
///     assert!(close.estimate.is_finite());
/// }
/// let (server, stats) = svc.finish();
/// assert_eq!(server.reports_ingested(), 4 * 8);
/// assert_eq!(stats.recoveries, 1);
/// ```
pub struct IngestService {
    server: Server,
    workers: Vec<WorkerSlot>,
    /// The wire ids each worker owns: `partition(n, workers)`.
    slices: Vec<Range<usize>>,
    /// Per-worker delivery log of the currently open period.
    journal: Vec<Vec<JournalEntry>>,
    /// Per worker, the `(emitted, emitter)` key of the last frame
    /// submitted in the open period.
    last_key: Vec<Option<(u32, u32)>>,
    stats: IngestStats,
    mailbox_cap: usize,
}

impl IngestService {
    /// Starts `workers` ingestion workers (≥ 1; 0 clamps to 1) in front
    /// of `server`, with `mailbox_cap`-batch bounded mailboxes. Worker
    /// shard accumulators take the server's shape via
    /// [`Server::new_shard`]; worker `w` takes a copy of the roster slots
    /// of the ids `partition(n, workers)[w]`.
    ///
    /// All user registration must already have happened — the service
    /// starts at period 1.
    pub fn new(server: Server, workers: usize, mailbox_cap: usize) -> Self {
        let workers = workers.max(1);
        let journal = vec![Vec::new(); workers];
        IngestService::start(server, mailbox_cap.max(1), journal, IngestStats::default())
            .expect("empty journals keep the routing contract")
    }

    /// Spawns one worker per journal from `server`'s closed-period state
    /// and replays each open-period journal into its worker, without
    /// counting the replay.
    ///
    /// # Errors
    /// [`SnapshotError::Corrupt`] if a journalled frame batch breaks the
    /// routing and order contract of [`submit_frames`](Self::submit_frames).
    fn start(
        server: Server,
        mailbox_cap: usize,
        journal: Vec<Vec<JournalEntry>>,
        stats: IngestStats,
    ) -> Result<Self, SnapshotError> {
        let workers = journal.len();
        let n = server.params().n();
        let slices: Vec<Range<usize>> = partition(n, workers)
            .iter()
            .map(|shard| shard.range())
            .collect();
        let mut last_key = vec![None; workers];
        for (w, entries) in journal.iter().enumerate() {
            for entry in entries {
                if let JournalEntry::Frames(batch) = entry {
                    last_key[w] = check_route(&slices[w], n, last_key[w], batch).map_err(|_| {
                        SnapshotError::Corrupt("journalled frames break the routing contract")
                    })?;
                }
            }
        }
        let mut service = IngestService {
            server,
            workers: Vec::with_capacity(workers),
            slices,
            journal,
            last_key,
            stats,
            mailbox_cap,
        };
        for w in 0..workers {
            let slot = service.spawn(w);
            service.workers.push(slot);
            service.replay(w);
        }
        Ok(service)
    }

    /// A fresh worker `w` at the server's closed-period state: it
    /// classifies from the server's closed-period slots of the ids it
    /// owns.
    fn spawn(&self, w: usize) -> WorkerSlot {
        let start = WorkerStart {
            roster: self.server.roster_slice(self.slices[w].clone()),
            closed: self.server.estimates().len() as u64,
        };
        WorkerSlot::spawn(w, self.mailbox_cap, self.server.new_shard(), start)
    }

    /// Replays worker `w`'s open-period journal into its mailbox and
    /// returns the number of batches sent. The journal keeps its entries
    /// in case the worker dies again before the period closes.
    fn replay(&mut self, w: usize) -> u64 {
        for i in 0..self.journal[w].len() {
            let msg = self.journal[w][i].msg();
            self.send(w, msg);
        }
        self.journal[w].len() as u64
    }

    /// Number of ingestion workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The bounded mailbox capacity, in batches.
    pub fn mailbox_cap(&self) -> usize {
        self.mailbox_cap
    }

    /// The accounting so far.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Streams one trusted report batch into worker `worker`'s mailbox,
    /// journalling it first. **Blocks while the mailbox is full** — the
    /// backpressure contract: producers stall, batches are never dropped.
    ///
    /// # Panics
    /// Panics if `worker` is out of range.
    pub fn submit_reports(&mut self, worker: usize, batch: ReportBatch) {
        self.stats.batches += 1;
        self.stats.rows += batch.len() as u64;
        let batch = Arc::new(batch);
        self.journal[worker].push(JournalEntry::Reports(Arc::clone(&batch)));
        self.send(worker, WorkerMsg::Reports(batch));
    }

    /// Streams one untrusted frame batch into worker `worker`'s mailbox,
    /// journalling it first; the worker classifies it on arrival. Same
    /// blocking backpressure contract as
    /// [`submit_reports`](Self::submit_reports).
    ///
    /// The routing and order contract, checked on the caller's thread
    /// before anything is journalled: a frame claiming an id below `n`
    /// goes to the worker that owns that id (`shard_of(n, workers, id)`;
    /// ids `≥ n` may go to any worker), and each worker's frames arrive
    /// in mailbox order, ascending `(emitted, emitter)`, within a period.
    /// A verdict reads only its claimed sender's roster slot, so each
    /// worker then classifies exactly as the sequential mailbox would.
    ///
    /// # Panics
    /// Panics if `worker` is out of range, if a frame claims an id another
    /// worker owns, or if the batch is out of mailbox order (within itself
    /// or against the worker's last frame of the period). The service is
    /// then unchanged.
    pub fn submit_frames(&mut self, worker: usize, batch: FrameBatch) {
        let n = self.server.params().n();
        self.last_key[worker] = check_route(&self.slices[worker], n, self.last_key[worker], &batch)
            .unwrap_or_else(|e| panic!("ingest worker {worker} refused a frame batch: {e}"));
        self.stats.batches += 1;
        self.stats.frames += batch.len() as u64;
        let batch = Arc::new(batch);
        self.journal[worker].push(JournalEntry::Frames(Arc::clone(&batch)));
        self.send(worker, WorkerMsg::Frames(batch));
    }

    /// Sends `msg` to worker `worker`, failing with the worker's own
    /// panic if it died.
    fn send(&mut self, worker: usize, msg: WorkerMsg) {
        let slot = &mut self.workers[worker];
        let tx = slot.tx.as_ref().expect("worker mailbox open");
        if tx.send(msg).is_err() {
            slot.fail(worker);
        }
    }

    /// Closes period `t`: barriers every worker, commits the ids each
    /// accepted into the server's roster, absorbs the flushed tallies and
    /// shard accumulators (in worker index order), then finalises `â[t]`
    /// and truncates the journals. Frames were classified as they arrived,
    /// so no frame is classified here. With one worker, the period's
    /// frames and verdicts are returned by move; with more they are merged
    /// into mailbox order.
    ///
    /// # Errors
    /// Never: the call returns `Ok` or panics. Every shard is cut by
    /// [`Server::new_shard`] from the server it merges into, and a
    /// restored server refuses an accumulator of another shape, so
    /// absorbing a shard cannot fail.
    ///
    /// # Panics
    /// Panics unless `t` is the open period. The check runs before the
    /// flush barrier, so after the panic the service still holds the open
    /// period's traffic and a correctly numbered close publishes it. Also
    /// fails with a worker's own panic if that worker died.
    pub fn close_period(&mut self, t: u64) -> Result<PeriodClose, AccumulatorError> {
        assert_open_period(&self.server, t);
        // Barrier: one flush marker per mailbox. Workers drain in FIFO
        // order, so everything submitted for this period lands before the
        // marker.
        for w in 0..self.workers.len() {
            self.send(w, WorkerMsg::Flush);
        }
        // Collect in worker index order — the deterministic merge order.
        let flushes: Vec<ShardFlush> = (0..self.workers.len())
            .map(|w| self.workers[w].await_flush(w))
            .collect();

        let server = &mut self.server;
        for flush in &flushes {
            server.commit_accepted(&flush.intake.accepted);
            server.absorb_checked(&flush.intake.tally);
            server
                .absorb_shard(&flush.acc)
                .expect("every shard is cut from the server it merges into");
            self.stats.flushed_acc_bytes += flush.acc.heap_bytes() as u64;
        }
        let estimate = server.end_of_period(t);
        for (entries, last) in self.journal.iter_mut().zip(&mut self.last_key) {
            entries.clear();
            *last = None;
        }
        self.stats.periods += 1;
        let (frames, outcomes) = merge_intakes(flushes.into_iter().map(|flush| flush.intake));
        Ok(PeriodClose {
            t,
            estimate,
            frames,
            outcomes,
        })
    }

    /// Kills worker `worker % workers()` mid-period and recovers it: the
    /// thread is abandoned along with **all** of its un-flushed state
    /// (folded accumulator, roster slice, classified frames, queued
    /// mailbox), a replacement is spawned from the server's closed-period
    /// roster slice, and the open period's journal is replayed into it.
    /// Folding and classification are deterministic, so the
    /// replacement's next flush is bit-identical to what the dead worker
    /// would have produced.
    ///
    /// The index is taken modulo the worker count — matching the
    /// documented [`WorkerKill`] contract, so every caller can pass a
    /// raw configured index without its own wrap-around copy.
    pub fn kill_worker(&mut self, worker: usize) {
        let worker = worker % self.workers.len();
        self.workers[worker].stop();
        self.workers[worker] = self.spawn(worker);
        self.stats.recoveries += 1;
        self.stats.replayed_batches += self.replay(worker);
    }

    /// Serializes the whole service — worker count, mailbox capacity,
    /// accounting, the complete server state, and every open-period
    /// journal — into versioned, checksummed snapshot bytes.
    ///
    /// The un-flushed in-worker state is deliberately *not* serialized:
    /// between closes it is a pure deterministic function of the
    /// journals, so [`restore`](Self::restore) rebuilds it by replay.
    /// Snapshotting is non-destructive and deterministic: equal service
    /// states produce equal bytes, and a restored service re-snapshots
    /// to exactly the bytes it was restored from.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.usize(self.workers.len());
        w.usize(self.mailbox_cap);
        let s = &self.stats;
        for v in [
            s.periods,
            s.batches,
            s.rows,
            s.frames,
            s.recoveries,
            s.replayed_batches,
            s.flushed_acc_bytes,
            s.restarts,
        ] {
            w.u64(v);
        }
        self.server.write_snapshot(&mut w);
        for entries in &self.journal {
            w.usize(entries.len());
            for entry in entries {
                match entry {
                    JournalEntry::Reports(b) => {
                        w.u8(0);
                        b.write_state(&mut w);
                    }
                    JournalEntry::Frames(b) => {
                        w.u8(1);
                        b.write_state(&mut w);
                    }
                }
            }
        }
        w.finish()
    }

    /// Rebuilds a service from [`snapshot`](Self::snapshot) bytes — in
    /// this process or a completely fresh one. Fresh workers are spawned
    /// and the open period's journals are replayed into their mailboxes
    /// (without re-journalling), so the first subsequent
    /// [`close_period`](Self::close_period) flushes exactly what the
    /// snapshotted workers would have: recovery is bit-identical.
    ///
    /// Restoring is pure state reconstruction — stats are restored
    /// verbatim, so `restore(snapshot())` re-snapshots byte-identically.
    /// Use [`restart`](Self::restart) to also account the event.
    ///
    /// # Errors
    /// A typed [`SnapshotError`] for anything malformed: truncated or
    /// corrupted bytes, a foreign file, an unsupported format version,
    /// state written under the removed seed schema v1, a journalled frame
    /// batch that breaks the routing and order contract of
    /// [`submit_frames`](Self::submit_frames), or any other violated
    /// structural invariant. Never panics on bad bytes.
    pub fn restore(bytes: &[u8]) -> Result<IngestService, SnapshotError> {
        let mut r = SnapReader::new(bytes)?;
        let workers = r.usize()?;
        if workers == 0 {
            return Err(SnapshotError::Corrupt("service has no workers"));
        }
        if workers > 65_536 {
            return Err(SnapshotError::Corrupt("implausible worker count"));
        }
        let mailbox_cap = r.usize()?;
        if mailbox_cap == 0 {
            return Err(SnapshotError::Corrupt("zero mailbox capacity"));
        }
        let stats = IngestStats {
            periods: r.u64()?,
            batches: r.u64()?,
            rows: r.u64()?,
            frames: r.u64()?,
            recoveries: r.u64()?,
            replayed_batches: r.u64()?,
            flushed_acc_bytes: r.u64()?,
            restarts: r.u64()?,
        };
        let server = Server::read_snapshot(&mut r)?;
        let mut journal = Vec::with_capacity(workers);
        for _ in 0..workers {
            let entries_len = r.len(1)?;
            let mut entries = Vec::with_capacity(entries_len);
            for _ in 0..entries_len {
                entries.push(match r.u8()? {
                    0 => JournalEntry::Reports(Arc::new(ReportBatch::read_state(&mut r)?)),
                    1 => JournalEntry::Frames(Arc::new(FrameBatch::read_state(&mut r)?)),
                    _ => return Err(SnapshotError::Corrupt("unknown journal entry tag")),
                });
            }
            journal.push(entries);
        }
        r.finish()?;
        // Rebuild the open period inside fresh workers. The entries stay
        // journalled (they are still un-flushed), so a later kill or
        // second restart replays them again.
        IngestService::start(server, mailbox_cap, journal, stats)
    }

    /// Kills and relaunches the whole service in place:
    /// [`snapshot`](Self::snapshot), tear everything down, then
    /// [`restore`](Self::restore) — the in-process equivalent of a
    /// process crash between or during periods. The event is surfaced in
    /// [`IngestStats::restarts`], and the journal batches the restore
    /// replayed are counted in [`IngestStats::replayed_batches`], so a
    /// chaos schedule can assert every configured restart actually
    /// fired.
    ///
    /// # Errors
    /// A [`SnapshotError`] only if the snapshot/restore roundtrip itself
    /// is broken — which the proptests prove it is not.
    pub fn restart(self) -> Result<IngestService, SnapshotError> {
        let bytes = self.snapshot();
        let replayed: u64 = self.journal.iter().map(|j| j.len() as u64).sum();
        drop(self); // every worker thread joins; nothing survives
        let mut service = IngestService::restore(&bytes)?;
        service.stats.restarts += 1;
        service.stats.replayed_batches += replayed;
        Ok(service)
    }

    /// Writes [`snapshot`](Self::snapshot) bytes to `dir/name`, creating
    /// `dir` if needed, and returns the full path.
    ///
    /// The bytes go to a temporary file in `dir`, are synced, and the
    /// file is then renamed over `dir/name`, so a crash mid-write leaves
    /// the previous snapshot intact instead of a torn one.
    ///
    /// # Errors
    /// Any I/O error from creating the directory or writing, syncing or
    /// renaming the file; the temporary file is removed on failure.
    pub fn write_snapshot_to(&self, dir: &Path, name: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(name);
        let tmp = dir.join(format!(".{name}.{}.tmp", std::process::id()));
        let written = std::fs::File::create(&tmp)
            .and_then(|mut file| {
                file.write_all(&self.snapshot())?;
                file.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // The rename is a directory update: sync the directory too, or a
        // crash after this returns can still leave the previous snapshot.
        #[cfg(unix)]
        std::fs::File::open(dir)?.sync_all()?;
        Ok(path)
    }

    /// [`write_snapshot_to`](Self::write_snapshot_to) into the
    /// `RTF_SNAPSHOT_DIR` directory; returns `Ok(None)` without touching
    /// the filesystem when the variable is unset or empty.
    ///
    /// # Errors
    /// Any I/O error from the underlying write.
    pub fn write_snapshot_file(&self, name: &str) -> std::io::Result<Option<PathBuf>> {
        match snapshot_dir_from_env() {
            Some(dir) => self.write_snapshot_to(&dir, name).map(Some),
            None => Ok(None),
        }
    }

    /// Restores a service from a snapshot file written by
    /// [`write_snapshot_to`](Self::write_snapshot_to) /
    /// [`write_snapshot_file`](Self::write_snapshot_file).
    ///
    /// # Errors
    /// [`SnapshotFileError::Io`] if the file cannot be read,
    /// [`SnapshotFileError::Snapshot`] if its bytes are rejected (see
    /// [`restore`](Self::restore)).
    pub fn restore_from_file(path: &Path) -> Result<IngestService, SnapshotFileError> {
        let bytes = std::fs::read(path)?;
        Ok(IngestService::restore(&bytes)?)
    }

    /// Stops every worker and hands back the server with the final
    /// accounting.
    pub fn finish(self) -> (Server, IngestStats) {
        let IngestService {
            server,
            workers,
            stats,
            ..
        } = self;
        drop(workers);
        (server, stats)
    }
}

/// The snapshot directory selected by the `RTF_SNAPSHOT_DIR` environment
/// variable; `None` when unset or empty (file-backed snapshotting off).
pub fn snapshot_dir_from_env() -> Option<PathBuf> {
    match std::env::var("RTF_SNAPSHOT_DIR") {
        Ok(dir) if !dir.trim().is_empty() => Some(PathBuf::from(dir)),
        _ => None,
    }
}

/// Why a file-backed snapshot restore failed: the file itself, or its
/// contents.
#[derive(Debug)]
pub enum SnapshotFileError {
    /// The snapshot file could not be read.
    Io(std::io::Error),
    /// The file's bytes were rejected by the snapshot parser.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for SnapshotFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotFileError::Io(e) => write!(f, "reading snapshot file: {e}"),
            SnapshotFileError::Snapshot(e) => write!(f, "parsing snapshot file: {e}"),
        }
    }
}

impl std::error::Error for SnapshotFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotFileError::Io(e) => Some(e),
            SnapshotFileError::Snapshot(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for SnapshotFileError {
    fn from(e: std::io::Error) -> Self {
        SnapshotFileError::Io(e)
    }
}

impl From<SnapshotError> for SnapshotFileError {
    fn from(e: SnapshotError) -> Self {
        SnapshotFileError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_core::params::ProtocolParams;

    fn params() -> ProtocolParams {
        ProtocolParams::new(100, 8, 2, 1.0, 0.05).unwrap()
    }

    /// A trusted server with `users` order-0 clients registered.
    fn trusted_server(users: usize) -> Server {
        let mut server = Server::for_future_rand(params());
        for _ in 0..users {
            server.register_user(0);
        }
        server
    }

    /// A deterministic report batch for one period.
    fn batch_for(t: u64, users: std::ops::Range<u32>) -> ReportBatch {
        let mut batch = ReportBatch::new();
        for u in users {
            let sign = if (u as u64 + t) % 3 == 0 {
                Sign::Minus
            } else {
                Sign::Plus
            };
            batch.push(u, 0, sign);
        }
        batch
    }

    /// Reference: the same traffic pushed straight through a server.
    fn reference_estimates() -> Vec<f64> {
        let mut server = trusted_server(12);
        let mut estimates = Vec::new();
        for t in 1..=8u64 {
            let batch = batch_for(t, 0..12);
            let mut shard = server.new_shard();
            batch.fold_into(&mut shard);
            server.absorb_shard(&shard).unwrap();
            estimates.push(server.end_of_period(t));
        }
        estimates
    }

    #[test]
    fn streamed_intake_matches_direct_ingestion_on_every_backend() {
        let expect = reference_estimates();
        for workers in [1usize, 2, 5] {
            let server = trusted_server(12);
            let mut svc = IngestService::new(server, workers, 4);
            let mut estimates = Vec::new();
            for t in 1..=8u64 {
                // Rows split arbitrarily across workers and chunks —
                // the shard sums commute exactly.
                for (w, span) in [(0usize, 0u32..5), (workers - 1, 5..12)] {
                    svc.submit_reports(w, batch_for(t, span));
                }
                estimates.push(svc.close_period(t).unwrap().estimate);
            }
            assert_eq!(estimates, expect, "{workers} workers");
            let (server, stats) = svc.finish();
            assert_eq!(server.reports_ingested(), 12 * 8);
            assert_eq!(stats.periods, 8);
            assert_eq!(stats.rows, 12 * 8);
            assert_eq!(stats.recoveries, 0);
        }
    }

    #[test]
    fn tiny_mailboxes_stall_producers_without_changing_values() {
        // cap = 1: every second submit must wait for the worker to drain
        // the first. The values are identical to the uncontended run.
        let expect = reference_estimates();
        let server = trusted_server(12);
        let mut svc = IngestService::new(server, 2, 1);
        assert_eq!(svc.mailbox_cap(), 1);
        let mut estimates = Vec::new();
        for t in 1..=8u64 {
            // Many small chunks through few mailbox slots.
            for u in 0..12u32 {
                svc.submit_reports((u % 2) as usize, batch_for(t, u..u + 1));
            }
            estimates.push(svc.close_period(t).unwrap().estimate);
        }
        assert_eq!(estimates, expect);
        assert_eq!(svc.stats().batches, 12 * 8);
    }

    #[test]
    fn killed_worker_recovers_exactly_from_the_journal() {
        let expect = reference_estimates();
        let server = trusted_server(12);
        let mut svc = IngestService::new(server, 3, 2);
        let mut estimates = Vec::new();
        for t in 1..=8u64 {
            svc.submit_reports(0, batch_for(t, 0..4));
            svc.submit_reports(1, batch_for(t, 4..8));
            svc.submit_reports(2, batch_for(t, 8..12));
            if t == 4 {
                // Mid-period kill: worker 1 has (maybe) folded its batch;
                // the replacement must replay it from the journal.
                svc.kill_worker(1);
            }
            estimates.push(svc.close_period(t).unwrap().estimate);
        }
        assert_eq!(estimates, expect, "recovery must be exact");
        let (_, stats) = svc.finish();
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.replayed_batches, 1, "one open-period batch replayed");
    }

    #[test]
    fn misnumbered_close_loses_no_traffic() {
        // Closing period 2 while period 1 is open must fail before the
        // flush barrier: the workers keep period 1's folded rows, and the
        // correctly numbered close publishes them.
        let expect = reference_estimates();
        let mut svc = IngestService::new(trusted_server(12), 2, 4);
        let mut estimates = Vec::new();
        for t in 1..=8u64 {
            svc.submit_reports(0, batch_for(t, 0..6));
            svc.submit_reports(1, batch_for(t, 6..12));
            if t == 1 {
                let wrong =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.close_period(2)));
                assert!(
                    wrong.is_err(),
                    "closing a period that is not open must panic"
                );
            }
            estimates.push(svc.close_period(t).unwrap().estimate);
        }
        assert_eq!(estimates, expect, "the misnumbered close lost traffic");
    }

    #[test]
    fn double_kill_in_one_period_still_recovers() {
        let expect = reference_estimates();
        let server = trusted_server(12);
        let mut svc = IngestService::new(server, 2, 2);
        let mut estimates = Vec::new();
        for t in 1..=8u64 {
            svc.submit_reports(0, batch_for(t, 0..3));
            if t == 2 {
                svc.kill_worker(0); // replays 1 batch
            }
            svc.submit_reports(0, batch_for(t, 3..6));
            if t == 2 {
                svc.kill_worker(0); // replays 2 batches
            }
            svc.submit_reports(1, batch_for(t, 6..12));
            estimates.push(svc.close_period(t).unwrap().estimate);
        }
        assert_eq!(estimates, expect);
        let (_, stats) = svc.finish();
        assert_eq!(stats.recoveries, 2);
        assert_eq!(stats.replayed_batches, 3);
    }

    #[test]
    fn frame_intake_replays_the_merged_mailbox_through_the_checked_path() {
        use crate::batch::Frame;
        // Two registered order-0 users, one per worker's roster slice
        // (0..50 and 50..100), reporting through frames; junk frames must
        // classify, not panic. Each frame goes to the worker owning the
        // id it claims (ids ≥ n to any), and the period's frames come back
        // in (emitted, emitter) order with their verdicts.
        let mut server = Server::for_future_rand(params());
        assert!(server.register_client(0, 0));
        assert!(server.register_client(50, 0));
        let mut svc = IngestService::new(server, 2, 4);
        let frame = |emitter: u32, user: u32, byzantine: bool| Frame {
            emitted: 1,
            emitter,
            user,
            t: 1,
            bit: user % 2 == 0,
            byzantine,
        };
        let mut w0 = FrameBatch::new();
        let mut w1 = FrameBatch::new();
        w0.push(frame(0, 0, false));
        // A fabrication claiming an id at or above n.
        w0.push(frame(9, 1000, true));
        // A fabrication claiming an unregistered id of worker 1's slice.
        w1.push(frame(7, 99, true));
        w1.push(frame(50, 50, false));
        svc.submit_frames(0, w0);
        svc.submit_frames(1, w1);
        let close = svc.close_period(1).unwrap();
        let order: Vec<u32> = close.frames.iter().map(|f| f.emitter).collect();
        assert_eq!(order, vec![0, 7, 9, 50], "merged mailbox order");
        assert_eq!(
            close.outcomes,
            vec![
                Delivery::Accepted,
                Delivery::UnknownUser,
                Delivery::UnknownUser,
                Delivery::Accepted
            ]
        );
        let (server, stats) = svc.finish();
        assert_eq!(server.delivery_log()[0].accepted, 2);
        assert_eq!(server.delivery_log()[0].unknown_user, 2);
        assert_eq!(stats.frames, 4);
    }

    /// Period `t`'s frames in mailbox order for a 12-id roster where ids
    /// 0..10 are registered at order `u % 3` (10 and 11 never register):
    /// id 0 impersonates one registered id per period ahead of its honest
    /// report, every third honest report of period `t − 1` is delivered
    /// again, and emitters 30 and 31 claim an id `≥ n` and an unregistered
    /// id below n.
    fn checked_period(t: u64) -> Vec<crate::batch::Frame> {
        use crate::batch::Frame;
        let t = t as u32;
        let frame = |emitted: u32, emitter: u32, user: u32, claim: u32, bit: bool| Frame {
            emitted,
            emitter,
            user,
            t: claim,
            bit,
            byzantine: emitter == 0 || emitter >= 30,
        };
        let due = |u: u32, at: u32| at >= 1 && at % (1 << (u % 3)) == 0;
        let mut frames = Vec::new();
        for u in (1..10).filter(|&u| u % 3 == 1 && due(u, t - 1)) {
            frames.push(frame(t - 1, u, u, t - 1, (u + t) % 2 == 0));
        }
        frames.push(frame(t, 0, 1 + (t * 5) % 9, t, false));
        for u in (1..10).filter(|&u| due(u, t)) {
            frames.push(frame(t, u, u, t, (u + t) % 3 != 0));
        }
        frames.push(frame(t, 30, 99, t, true));
        frames.push(frame(t, 31, 11, t, true));
        frames
    }

    /// A checked server for [`checked_period`]'s roster.
    fn checked_server() -> Server {
        let mut server = Server::for_future_rand(ProtocolParams::new(12, 8, 2, 1.0, 0.05).unwrap());
        for u in 0..10u32 {
            assert!(server.register_client(u, u % 3));
        }
        server
    }

    /// Submits `frames` (in mailbox order) to the worker owning each
    /// claimed id, ids `≥ n` to worker `emitter % workers`, in chunks of
    /// at most `chunk`.
    fn submit_by_recipient(svc: &mut IngestService, frames: &[crate::batch::Frame], chunk: usize) {
        let workers = svc.workers();
        let mut pieces: Vec<FrameBatch> = (0..workers).map(|_| FrameBatch::new()).collect();
        for &f in frames {
            let w = if (f.user as usize) < 12 {
                crate::shard_of(12, workers, f.user as usize)
            } else {
                f.emitter as usize % workers
            };
            pieces[w].push(f);
            if pieces[w].len() >= chunk {
                svc.submit_frames(w, std::mem::take(&mut pieces[w]));
            }
        }
        for (w, piece) in pieces.into_iter().enumerate() {
            if !piece.is_empty() {
                svc.submit_frames(w, piece);
            }
        }
    }

    /// Every period of [`checked_period`] through one server's checked
    /// ladder, in mailbox order: per period the verdicts and `â[t]`, and
    /// the delivery log.
    fn checked_reference() -> (
        Vec<(Vec<Delivery>, f64)>,
        Vec<rtf_core::server::PeriodDelivery>,
    ) {
        let mut server = checked_server();
        let periods = (1..=8u64)
            .map(|t| {
                let verdicts = checked_period(t)
                    .iter()
                    .map(|f| {
                        let bit = if f.bit { Sign::Plus } else { Sign::Minus };
                        server.ingest_checked(f.user, u64::from(f.t), bit)
                    })
                    .collect();
                (verdicts, server.end_of_period(t))
            })
            .collect();
        (periods, server.delivery_log().to_vec())
    }

    #[test]
    fn checked_snapshot_bytes_match_the_golden_hashes() {
        // Pins the snapshot format and the closed-period server state of a
        // three-worker checked run with impersonations, duplicates and
        // unknown senders; every close also matches the one-server ladder.
        let (reference, delivery) = checked_reference();
        let mut svc = IngestService::new(checked_server(), 3, 2);
        let mut hashes = Vec::new();
        for t in 1..=8u64 {
            let frames = checked_period(t);
            submit_by_recipient(&mut svc, &frames, 3);
            let close = svc.close_period(t).unwrap();
            assert_eq!(close.frames.iter().collect::<Vec<_>>(), frames, "t = {t}");
            assert_eq!((close.outcomes, close.estimate), reference[t as usize - 1]);
            if [1, 3, 8].contains(&t) {
                hashes.push(rtf_core::snapshot::fnv1a64(&svc.snapshot()));
            }
        }
        let (server, _) = svc.finish();
        assert_eq!(server.delivery_log(), delivery);
        let accepted: u64 = delivery.iter().map(|r| r.accepted).sum();
        let duplicate: u64 = delivery.iter().map(|r| r.duplicate).sum();
        assert!(accepted > 0 && duplicate > 0);
        // Taken when the service classified each period at its close on
        // one thread; where the ladder runs must not change the bytes.
        assert_eq!(
            hashes,
            [
                0xb1fb_6507_72f8_d9e8,
                0x6a24_6144_0559_9ac0,
                0x71d9_5cfc_d08b_8318
            ]
        );
    }

    #[test]
    fn misrouted_and_out_of_order_frames_panic_before_journalling() {
        // Workers own ids 0..4, 4..8 and 8..12. Period 1's frames are
        // (emitted 1, emitter → claimed id): 0 → 6 (an impersonation),
        // 3 → 3, 6 → 6, 9 → 9, 30 → 99 and 31 → 11.
        let (reference, _) = checked_reference();
        let period = checked_period(1);
        let by = |emitter: u32| *period.iter().find(|f| f.emitter == emitter).unwrap();
        let batch = |frames: &[crate::batch::Frame]| {
            let mut b = FrameBatch::new();
            for &f in frames {
                b.push(f);
            }
            b
        };
        let mut svc = IngestService::new(checked_server(), 3, 2);
        let refused = |svc: &mut IngestService, worker: usize, b: FrameBatch| {
            let journals =
                |svc: &IngestService| svc.journal.iter().map(Vec::len).collect::<Vec<_>>();
            let before = (svc.stats(), journals(svc));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                svc.submit_frames(worker, b)
            }));
            assert!(
                caught.is_err(),
                "worker {worker} took a batch it must refuse"
            );
            assert_eq!(
                (svc.stats(), journals(svc)),
                before,
                "a refused batch left a trace"
            );
        };
        // Id 6 belongs to worker 1.
        refused(&mut svc, 0, batch(&[by(0)]));
        // Out of mailbox order within the batch.
        refused(&mut svc, 1, batch(&[by(6), by(0)]));
        // Starts before worker 2's last frame of the period, (1, 9).
        svc.submit_frames(2, batch(&[by(9)]));
        let mut early = by(9);
        (early.emitter, early.user) = (8, 8);
        refused(&mut svc, 2, batch(&[early]));

        // The correct submissions still publish the reference period.
        svc.submit_frames(0, batch(&[by(3), by(30)]));
        svc.submit_frames(1, batch(&[by(0), by(6)]));
        svc.submit_frames(2, batch(&[by(31)]));
        for t in 1..=8u64 {
            if t > 1 {
                submit_by_recipient(&mut svc, &checked_period(t), 2);
            }
            let close = svc.close_period(t).unwrap();
            assert_eq!((close.outcomes, close.estimate), reference[t as usize - 1]);
        }
    }

    #[test]
    fn empty_slices_and_a_killed_acceptor_reach_the_reference_verdicts() {
        // More workers than ids: workers 12..16 own no id and take only
        // frames claiming ids ≥ n. Every period, the worker owning the
        // impersonated id is killed after the period's frames are in; its
        // replacement starts from the closed-period roster and replays the
        // journal, so it reaches the same verdicts.
        let (reference, delivery) = checked_reference();
        let mut svc = IngestService::new(checked_server(), 16, 2);
        for t in 1..=8u64 {
            let frames = checked_period(t);
            submit_by_recipient(&mut svc, &frames, 2);
            let victim = frames.iter().find(|f| f.emitter == 0).unwrap().user;
            svc.kill_worker(crate::shard_of(12, 16, victim as usize));
            let close = svc.close_period(t).unwrap();
            assert_eq!(close.frames.iter().collect::<Vec<_>>(), frames, "t = {t}");
            assert_eq!((close.outcomes, close.estimate), reference[t as usize - 1]);
        }
        let (server, stats) = svc.finish();
        assert_eq!(server.delivery_log(), delivery);
        assert_eq!(stats.recoveries, 8);
        assert!(stats.replayed_batches >= 8);
    }

    /// Sends a batch claiming id 5 straight into worker 0's mailbox,
    /// past [`IngestService::submit_frames`]' routing check, so the
    /// worker's own ladder panics on it.
    fn poison_worker_0(svc: &mut IngestService) {
        let mut batch = FrameBatch::new();
        batch.push(crate::batch::Frame {
            emitted: 1,
            emitter: 5,
            user: 5,
            t: 1,
            bit: true,
            byzantine: false,
        });
        svc.send(0, WorkerMsg::Frames(Arc::new(batch)));
    }

    /// The message of a caught panic payload.
    fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default()
    }

    #[test]
    fn a_panicking_worker_fails_its_caller_with_its_own_payload() {
        // The close that barriers a dead worker fails with its panic.
        let mut svc = IngestService::new(checked_server(), 3, 2);
        poison_worker_0(&mut svc);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.close_period(1)));
        let message = panic_message(&*caught.expect_err("the close must fail"));
        assert!(
            message.contains("routed to roster shard"),
            "close failed with {message:?}"
        );

        // So does the next submit to a worker that is already gone.
        let mut svc = IngestService::new(checked_server(), 3, 2);
        poison_worker_0(&mut svc);
        let dead = std::time::Instant::now();
        while !svc.workers[0].handle.as_ref().unwrap().is_finished() {
            assert!(dead.elapsed().as_secs() < 30, "the worker never panicked");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            svc.submit_reports(0, batch_for(1, 0..4))
        }));
        let message = panic_message(&*caught.expect_err("the submit must fail"));
        assert!(
            message.contains("routed to roster shard"),
            "submit failed with {message:?}"
        );
    }

    #[test]
    fn dropping_an_unfinished_service_does_not_hang() {
        let server = trusted_server(4);
        let mut svc = IngestService::new(server, 2, 1);
        svc.submit_reports(0, batch_for(1, 0..4));
        drop(svc); // workers drain and exit on mailbox disconnect
    }

    #[test]
    fn live_config_builders() {
        let cfg = LiveConfig::new(0);
        assert_eq!(cfg.workers, 1, "0 workers clamps to 1");
        assert!(cfg.kills.is_empty());
        assert!(cfg.restarts.is_empty());
        let cfg = LiveConfig::new(4)
            .with_mailbox_cap(0)
            .with_chunk_rows(0)
            .with_kill(2, 9)
            .with_kill(0, 3)
            .with_restart(5)
            .with_restart_after(7);
        assert_eq!(cfg.mailbox_cap, 1);
        assert_eq!(cfg.chunk_rows, 1);
        assert_eq!(
            cfg.kills,
            vec![
                WorkerKill {
                    worker: 2,
                    period: 9
                },
                WorkerKill {
                    worker: 0,
                    period: 3
                }
            ]
        );
        assert_eq!(
            cfg.restarts,
            vec![
                ServiceRestart {
                    period: 5,
                    mid_period: true
                },
                ServiceRestart {
                    period: 7,
                    mid_period: false
                }
            ]
        );
    }

    #[test]
    fn off_horizon_faults_fail_validation_loudly() {
        // A fault period past the horizon (or zero) would silently never
        // fire, making a chaos test vacuous — validation must catch it.
        LiveConfig::new(2).with_kill(0, 8).validate_for_horizon(8);
        LiveConfig::new(2).with_restart(1).validate_for_horizon(8);
        for bad in [
            LiveConfig::new(2).with_kill(0, 9),
            LiveConfig::new(2).with_kill(0, 0),
            LiveConfig::new(2).with_restart(99),
            LiveConfig::new(2).with_restart_after(0),
        ] {
            let caught = std::panic::catch_unwind(|| bad.validate_for_horizon(8));
            assert!(caught.is_err(), "fault config {bad:?} must be rejected");
        }
    }

    #[test]
    fn kill_worker_wraps_out_of_range_indices() {
        // The WorkerKill contract says "taken modulo the worker count";
        // kill_worker itself must honor it instead of panicking.
        let expect = reference_estimates();
        let server = trusted_server(12);
        let mut svc = IngestService::new(server, 3, 2);
        let mut estimates = Vec::new();
        for t in 1..=8u64 {
            svc.submit_reports(0, batch_for(t, 0..6));
            svc.submit_reports(2, batch_for(t, 6..12));
            if t == 3 {
                svc.kill_worker(5); // 5 % 3 = worker 2, which holds a batch
            }
            estimates.push(svc.close_period(t).unwrap().estimate);
        }
        assert_eq!(estimates, expect);
        let (_, stats) = svc.finish();
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.replayed_batches, 1);
    }

    #[test]
    fn snapshot_restore_roundtrips_mid_period_on_every_backend() {
        let expect = reference_estimates();
        let server = trusted_server(12);
        let mut svc = IngestService::new(server, 2, 3);
        let mut estimates = Vec::new();
        for t in 1..=3u64 {
            svc.submit_reports(0, batch_for(t, 0..6));
            svc.submit_reports(1, batch_for(t, 6..12));
            estimates.push(svc.close_period(t).unwrap().estimate);
        }
        // Period 4 is open with un-flushed traffic when we snapshot.
        svc.submit_reports(0, batch_for(4, 0..6));
        svc.submit_reports(1, batch_for(4, 6..12));
        let bytes = svc.snapshot();
        drop(svc); // the "process" dies mid-period

        let mut restored = IngestService::restore(&bytes).unwrap();
        assert_eq!(
            restored.snapshot(),
            bytes,
            "restore must re-snapshot byte-identically"
        );
        for t in 4..=8u64 {
            if t > 4 {
                restored.submit_reports(0, batch_for(t, 0..6));
                restored.submit_reports(1, batch_for(t, 6..12));
            }
            estimates.push(restored.close_period(t).unwrap().estimate);
        }
        assert_eq!(estimates, expect, "exact recovery");
        let (server, stats) = restored.finish();
        assert_eq!(server.reports_ingested(), 12 * 8);
        assert_eq!(stats.periods, 8);
    }

    #[test]
    fn restart_in_place_is_exact_and_accounted() {
        let expect = reference_estimates();
        let server = trusted_server(12);
        let mut svc = IngestService::new(server, 3, 2);
        let mut estimates = Vec::new();
        for t in 1..=8u64 {
            svc.submit_reports(0, batch_for(t, 0..4));
            svc.submit_reports(1, batch_for(t, 4..8));
            svc.submit_reports(2, batch_for(t, 8..12));
            if t == 5 {
                svc = svc.restart().unwrap(); // worst moment: mid-period
            }
            estimates.push(svc.close_period(t).unwrap().estimate);
            if t == 6 {
                svc = svc.restart().unwrap(); // between periods too
            }
        }
        assert_eq!(estimates, expect, "restarted run must be exact");
        let (_, stats) = svc.finish();
        assert_eq!(stats.restarts, 2);
        assert_eq!(
            stats.replayed_batches, 3,
            "mid-period restart replays the open period's 3 batches; the \
             between-periods restart has nothing to replay"
        );
        assert_eq!(stats.recoveries, 0, "restarts are not worker kills");
        assert_eq!(stats.periods, 8);
        assert_eq!(stats.rows, 12 * 8);
    }

    #[test]
    fn restore_rejects_malformed_bytes_with_typed_errors() {
        use rtf_core::snapshot::SnapshotError;
        assert_eq!(
            IngestService::restore(b"not a snapshot").err().unwrap(),
            SnapshotError::BadMagic
        );
        let server = trusted_server(4);
        let mut svc = IngestService::new(server, 2, 2);
        svc.submit_reports(0, batch_for(1, 0..4));
        let bytes = svc.snapshot();
        // Truncation at any point fails (checksum or header).
        for cut in [bytes.len() - 1, bytes.len() / 2, 10] {
            assert!(
                IngestService::restore(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // A future format version is named, not guessed at.
        let mut vers = bytes.clone();
        vers[8..12].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(
            IngestService::restore(&vers).err().unwrap(),
            SnapshotError::UnsupportedVersion { found: 7 }
        );
        // Every single-bit corruption of the payload is caught.
        let mut evil = bytes.clone();
        evil[bytes.len() / 2] ^= 0x10;
        assert!(IngestService::restore(&evil).is_err());
        // The pristine bytes still restore.
        let restored = IngestService::restore(&bytes).unwrap();
        assert_eq!(restored.workers(), 2);
    }

    #[test]
    fn restore_rejects_journals_that_break_the_routing_contract() {
        // A journal can only hold what submit_frames accepted; bytes that
        // put a frame claiming id 5 (worker 1's) in worker 0's journal
        // are corrupt, not a worker panic waiting to happen.
        let mut svc = IngestService::new(checked_server(), 3, 2);
        submit_by_recipient(&mut svc, &checked_period(1), 2);
        let bytes = svc.snapshot();
        assert!(IngestService::restore(&bytes).is_ok());
        let mut misrouted = FrameBatch::new();
        misrouted.push(*checked_period(1).iter().find(|f| f.user == 6).unwrap());
        svc.journal[0].push(JournalEntry::Frames(Arc::new(misrouted)));
        assert_eq!(
            IngestService::restore(&svc.snapshot()).err().unwrap(),
            SnapshotError::Corrupt("journalled frames break the routing contract")
        );
    }

    #[test]
    fn service_snapshots_record_the_seed_schema_and_guard_cross_schema_resume() {
        // The header carries the one seed schema; state written under the
        // removed schema v1 is a typed error on every restore path, never
        // a silent continuation with different report bits.
        let mut svc = IngestService::new(trusted_server(4), 2, 2);
        svc.submit_reports(0, batch_for(1, 0..4));
        let bytes = svc.snapshot();
        assert_eq!(bytes[12], 2, "schema byte");
        let restored = IngestService::restore(&bytes).unwrap();
        assert_eq!(restored.snapshot(), bytes);

        let reseal = |mut b: Vec<u8>| {
            let end = b.len() - 8;
            let sum = rtf_core::snapshot::fnv1a64(&b[..end]);
            b[end..].copy_from_slice(&sum.to_le_bytes());
            b
        };
        let mut schema_v1 = bytes.clone();
        schema_v1[12] = 1;
        let schema_v1 = reseal(schema_v1);
        // Version 1 bytes have no schema byte.
        let mut version_1 = bytes[..12].to_vec();
        version_1[8..12].copy_from_slice(&1u32.to_le_bytes());
        version_1.extend_from_slice(&bytes[13..]);
        let version_1 = reseal(version_1);
        let dir = std::env::temp_dir().join(format!("rtf-snap-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (old, expect) in [
            (
                schema_v1,
                SnapshotError::Corrupt("seed schema v1 was removed"),
            ),
            (version_1, SnapshotError::UnsupportedVersion { found: 1 }),
        ] {
            assert_eq!(IngestService::restore(&old).err().unwrap(), expect);
            let path = dir.join("old.rtfsnap");
            std::fs::write(&path, &old).unwrap();
            match IngestService::restore_from_file(&path) {
                Err(SnapshotFileError::Snapshot(e)) => assert_eq!(e, expect),
                other => panic!("expected {expect:?}, got {:?}", other.map(|_| ())),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_files_are_replaced_not_overwritten() {
        // A hard link keeps the previous snapshot's inode reachable: an
        // in-place write would change the bytes behind it, a rename over
        // the target leaves them alone.
        let dir = std::env::temp_dir().join(format!("rtf-snap-replace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut svc = IngestService::new(trusted_server(12), 2, 2);
        svc.submit_reports(0, batch_for(1, 0..12));
        svc.close_period(1).unwrap();
        let path = svc.write_snapshot_to(&dir, "svc.rtfsnap").unwrap();
        let previous = std::fs::read(&path).unwrap();
        std::fs::hard_link(&path, dir.join("previous.rtfsnap")).unwrap();

        svc.submit_reports(1, batch_for(2, 0..12));
        svc.close_period(2).unwrap();
        assert_eq!(svc.write_snapshot_to(&dir, "svc.rtfsnap").unwrap(), path);
        assert_eq!(
            std::fs::read(dir.join("previous.rtfsnap")).unwrap(),
            previous,
            "the previous snapshot was overwritten in place"
        );
        let restored = IngestService::restore_from_file(&path).unwrap();
        assert_eq!(restored.snapshot(), svc.snapshot());
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["previous.rtfsnap", "svc.rtfsnap"], "temp file left");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backed_snapshots_roundtrip_via_explicit_dir() {
        // Exercises the file layer through write_snapshot_to (the
        // explicit-directory core of the RTF_SNAPSHOT_DIR convenience;
        // the env wrapper is not driven here because env mutation races
        // parallel test threads).
        let expect = reference_estimates();
        let dir = std::env::temp_dir().join(format!("rtf-snap-test-{}", std::process::id()));
        let server = trusted_server(12);
        let mut svc = IngestService::new(server, 2, 2);
        for t in 1..=4u64 {
            svc.submit_reports(0, batch_for(t, 0..6));
            svc.submit_reports(1, batch_for(t, 6..12));
            svc.close_period(t).unwrap();
        }
        let path = svc.write_snapshot_to(&dir, "mid-horizon.rtfsnap").unwrap();
        drop(svc);

        let mut restored = IngestService::restore_from_file(&path).unwrap();
        let mut estimates = Vec::new();
        for t in 5..=8u64 {
            restored.submit_reports(0, batch_for(t, 0..6));
            restored.submit_reports(1, batch_for(t, 6..12));
            estimates.push(restored.close_period(t).unwrap().estimate);
        }
        assert_eq!(estimates, expect[4..], "resumed from disk exactly");

        // Missing files and corrupt files surface as typed errors.
        assert!(matches!(
            IngestService::restore_from_file(&dir.join("absent.rtfsnap")),
            Err(SnapshotFileError::Io(_))
        ));
        std::fs::write(dir.join("junk.rtfsnap"), b"junk").unwrap();
        assert!(matches!(
            IngestService::restore_from_file(&dir.join("junk.rtfsnap")),
            Err(SnapshotFileError::Snapshot(SnapshotError::BadMagic))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_dir_env_parsing_is_the_only_env_touchpoint() {
        // Read-only check of the parser contract (set/remove_var would
        // race other tests): whatever the ambient value, the function
        // returns None exactly when the variable is unset or blank.
        let ambient = std::env::var("RTF_SNAPSHOT_DIR").ok();
        let parsed = snapshot_dir_from_env();
        match ambient {
            None => assert!(parsed.is_none()),
            Some(v) if v.trim().is_empty() => assert!(parsed.is_none()),
            Some(v) => assert_eq!(parsed, Some(std::path::PathBuf::from(v))),
        }
    }
}
