//! Algorithm 2 — the server `Asvr`.
//!
//! The server partitions users by announced order, accumulates the ±1
//! report bits of each currently open dyadic interval per order, and when
//! the order-`h` interval ending at `t` completes, finalises the estimate
//!
//! ```text
//! Ŝ(I_{h,j}) = Σ_{u ∈ U_h} (1 + log d) · c_gap(h)^{-1} · ω_u[j]
//! ```
//!
//! (line 5). At every period it answers the prefix query
//! `â[t] = Σ_{I ∈ C(t)} Ŝ(I)` (line 6) from the `O(log d)` streaming
//! frontier — the order-`h` member of `C(t)` is always the most recently
//! completed order-`h` interval.
//!
//! The per-report accumulation state lives in a mergeable accumulator
//! ([`AnyAccumulator`], see [`crate::accumulator`]); the server itself is
//! a thin checked-ingestion/finalisation facade over it. Worker shards
//! built by the parallel runtime accumulate independently and are folded
//! in via [`Server::absorb_shard`] — value-for-value identical to
//! sequential ingestion because report sums are integer-valued and the
//! accumulator stores them exactly.
//!
//! The checked ladder exists once, over one roster slot. Its one-slot
//! form is [`Server::ingest_checked`]; [`Server::roster_shards`] lends
//! disjoint wire-id ranges out as [`RosterShard`]s that classify on
//! their own threads into [`CheckedTally`]s, which
//! [`Server::absorb_checked`] adds back — exact in any order for the
//! same integer-sum reason. A long-lived worker instead keeps an owned
//! [`RosterSlice`] ([`Server::roster_slice`]) across periods and hands
//! back the ids it accepted, which [`Server::commit_accepted`] writes
//! into the roster at the period close.

use crate::accumulator::{Accumulator, AccumulatorError, AccumulatorKind, AnyAccumulator};
use crate::composed::ComposedRandomizer;
use crate::params::ProtocolParams;
use crate::queries::EstimateStore;
use crate::snapshot::{SnapReader, SnapWriter, SnapshotError};
use rtf_dyadic::frontier::Frontier;
use rtf_dyadic::interval::DyadicInterval;
use rtf_primitives::fastseed::SeedSchema;
use rtf_primitives::sign::Sign;
use std::ops::Range;

/// The fate of one report submitted through the checked ingestion path
/// ([`Server::ingest_checked`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// On time for the sender's currently open interval; counted.
    Accepted,
    /// A resend of the sender's most recently accepted report; dropped.
    Duplicate,
    /// The target interval already closed (straggler or stale resend);
    /// dropped.
    Late,
    /// The sender never announced an order; dropped.
    UnknownUser,
    /// `t` is not a reporting boundary of the sender's order (zero, past
    /// the horizon, or not a multiple of `2^h`); dropped.
    InvalidPeriod,
    /// `t` is a boundary beyond the period currently being drained —
    /// honest clients cannot produce this; dropped.
    Premature,
}

/// Per-period delivery accounting for the checked ingestion path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeriodDelivery {
    /// The period this row describes.
    pub t: u64,
    /// Reports due this period: `Σ |U_h|` over orders with `2^h | t`.
    pub due: u64,
    /// On-time reports counted into the estimates.
    pub accepted: u64,
    /// Resends of already-accepted reports, dropped by dedupe.
    pub duplicate: u64,
    /// Reports for already-closed intervals.
    pub late: u64,
    /// Reports from senders that never announced an order.
    pub unknown_user: u64,
    /// Reports for periods that are not reporting boundaries of the
    /// sender's order (zero, off-horizon, or not a multiple of `2^h`).
    pub invalid_period: u64,
    /// Reports for boundaries beyond the period being drained — forged
    /// traffic that honest clients cannot produce.
    pub premature: u64,
}

impl PeriodDelivery {
    /// Reports due this period that never arrived on time — the quantity
    /// that drives estimator bias under dropout and churn.
    pub fn missing(&self) -> u64 {
        self.due.saturating_sub(self.accepted)
    }

    /// All hard rejections: unknown senders, invalid periods, premature
    /// boundaries. (Duplicates and stragglers are tracked separately —
    /// they are expected client behaviour, not protocol violations.)
    pub fn rejected(&self) -> u64 {
        self.unknown_user + self.invalid_period + self.premature
    }
}

/// One wire id's slot in the checked ingestion path's roster.
#[derive(Debug, Clone, Copy)]
struct RosterEntry {
    /// The announced order, or `u32::MAX` for an id that never registered.
    order: u32,
    /// Boundary of the most recently accepted report (0 = none yet). A
    /// period fits `u32` because `ProtocolParams` caps `d` at `2^31`.
    last_accepted: u32,
}

impl RosterEntry {
    /// The slot of an id that never registered.
    const VACANT: RosterEntry = RosterEntry {
        order: u32::MAX,
        last_accepted: 0,
    };

    fn is_registered(&self) -> bool {
        self.order != u32::MAX
    }
}

/// The checked ingestion ladder over one roster slot: classifies a
/// report claiming boundary `t` from the sender whose slot is `slot`
/// (`None` for an id outside the roster) while period `current_t + 1` is
/// open on a horizon of `d` periods. The verdict is counted into `row`;
/// an acceptance advances the slot's last accepted boundary. Returns the
/// verdict and the slot's order (meaningful once the sender is known).
///
/// `floor` is an acceptance the caller knows of but the slot never saw
/// (`0` = none): the span-native scenario engine folds honest on-time
/// runs arithmetically without touching the roster, so it passes each
/// frame the most recent folded boundary of its sender. Only the
/// duplicate rung reads it. Accepted boundaries strictly increase per
/// sender (acceptance requires `t == current_t + 1`), so
/// `max(last_accepted, floor)` is exactly the sender's most recent
/// acceptance and every verdict matches the fully sequential
/// classification.
#[inline]
fn classify_slot(
    slot: Option<&mut RosterEntry>,
    d: u64,
    current_t: u64,
    t: u64,
    floor: u64,
    row: &mut PeriodDelivery,
) -> (Delivery, u32) {
    let Some(entry) = slot.filter(|e| e.is_registered()) else {
        row.unknown_user += 1;
        return (Delivery::UnknownUser, RosterEntry::VACANT.order);
    };
    let h = entry.order;
    let stride = 1u64 << h;
    if t == 0 || t > d || t % stride != 0 {
        row.invalid_period += 1;
        return (Delivery::InvalidPeriod, h);
    }
    if t == u64::from(entry.last_accepted).max(floor) {
        row.duplicate += 1;
        return (Delivery::Duplicate, h);
    }
    if t <= current_t {
        row.late += 1;
        return (Delivery::Late, h);
    }
    // On time means *this* period: honest clients emit at the boundary
    // period itself, so during the period current_t + 1 only reports for
    // exactly that boundary can be genuine. Any later boundary is a
    // fabrication arriving before its interval closed — accepting it
    // would also mis-attribute it to a delivery row whose `due` excludes
    // its order.
    if t != current_t + 1 {
        row.premature += 1;
        return (Delivery::Premature, h);
    }
    // t ≤ d ≤ 2^31 (checked above), so the boundary fits the slot.
    entry.last_accepted = t as u32;
    row.accepted += 1;
    (Delivery::Accepted, h)
}

/// Verdict counts and accepted report signs of checked ingestion, held
/// apart from the server so disjoint [`RosterShard`]s can classify on
/// different threads. [`Server::absorb_checked`] adds a tally to the
/// open period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckedTally {
    /// Verdict counts. `t` and `due` stay zero: the period close sets
    /// them.
    pub delivery: PeriodDelivery,
    /// Per order `h`: the accepted reports' `(plus, minus)` counts.
    pub signs: Vec<(u64, u64)>,
}

impl CheckedTally {
    /// An empty tally for `orders` orders (`1 + log d`).
    pub fn new(orders: usize) -> Self {
        CheckedTally {
            delivery: PeriodDelivery::default(),
            signs: vec![(0, 0); orders],
        }
    }

    /// Counts a run of `count` accepted order-`h` reports of which `plus`
    /// carried `+1` — how the span-native scenario engine takes in an
    /// honest on-time span it folded arithmetically. The roster is not
    /// touched: the caller owns the dedupe state of folded runs (the
    /// acceptance floor of [`RosterShard::classify`]).
    ///
    /// # Panics
    /// Panics if `h` is off the tally's horizon or `plus > count`.
    pub fn accept_run(&mut self, h: u32, plus: u64, count: u64) {
        assert!(plus <= count, "{plus} +1 reports out of {count}");
        let signs = &mut self.signs[h as usize];
        signs.0 += plus;
        signs.1 += count - plus;
        self.delivery.accepted += count;
    }
}

/// A contiguous slice of the checked roster, lent out by
/// [`Server::roster_shards`]: the ladder for the wire ids it owns.
#[derive(Debug)]
pub struct RosterShard<'a> {
    /// Wire ids this shard owns.
    ids: Range<usize>,
    /// Their slots; empty while no client is registered.
    slots: &'a mut [RosterEntry],
    n: usize,
    d: u64,
}

impl RosterShard<'_> {
    /// Runs the checked ladder for one report on this shard's slice,
    /// while period `current_t + 1` is open, counting the verdict and an
    /// accepted report's sign into `tally`. `floor` is an acceptance the
    /// slot never saw (`0` = none; see [`CheckedTally::accept_run`]).
    ///
    /// An id `≥ n` is an [`UnknownUser`](Delivery::UnknownUser) on any
    /// shard: its verdict reads no roster state.
    ///
    /// # Panics
    /// Panics if `user < n` lies outside this shard's ids: a frame handed
    /// to the wrong shard is a routing bug, never an unknown sender. Also
    /// panics if `tally` is shaped for a shorter horizon.
    pub fn classify(
        &mut self,
        user: u32,
        t: u64,
        bit: Sign,
        floor: u64,
        current_t: u64,
        tally: &mut CheckedTally,
    ) -> Delivery {
        let id = user as usize;
        let slot = if id < self.n {
            assert!(
                self.ids.contains(&id),
                "wire id {user} routed to roster shard {:?}",
                self.ids
            );
            self.slots.get_mut(id - self.ids.start)
        } else {
            None
        };
        let (verdict, h) = classify_slot(slot, self.d, current_t, t, floor, &mut tally.delivery);
        if verdict == Delivery::Accepted {
            let signs = &mut tally.signs[h as usize];
            if bit == Sign::Plus {
                signs.0 += 1;
            } else {
                signs.1 += 1;
            }
        }
        verdict
    }
}

/// An owned copy of a contiguous slice of the checked roster, taken by
/// [`Server::roster_slice`]. A worker thread keeps one across periods and
/// lends it out as a [`RosterShard`] to classify; its acceptances reach
/// the server only through [`Server::commit_accepted`].
#[derive(Debug, Clone)]
pub struct RosterSlice {
    ids: Range<usize>,
    /// Their slots; empty while no client is registered.
    slots: Vec<RosterEntry>,
    n: usize,
    d: u64,
}

impl RosterSlice {
    /// Lends the slice out as a [`RosterShard`], so the ladder runs on it
    /// exactly as on a slice of the server's own roster.
    pub fn shard(&mut self) -> RosterShard<'_> {
        RosterShard {
            ids: self.ids.clone(),
            slots: &mut self.slots,
            n: self.n,
            d: self.d,
        }
    }
}

/// The streaming server of Algorithm 2.
#[derive(Debug, Clone)]
pub struct Server {
    params: ProtocolParams,
    /// Per-order scale `(1 + log d) / c_gap(h)`.
    scale: Vec<f64>,
    /// Per-order count of registered users (`|U_h|`, diagnostic only).
    group_sizes: Vec<usize>,
    /// Mergeable accumulation state: per-order running sums of report
    /// bits for the currently open intervals, plus the report counter.
    acc: AnyAccumulator,
    frontier: Frontier<f64>,
    estimates: Vec<f64>,
    current_t: u64,
    /// Optional full-tree retention of every `Ŝ(I)` for window queries.
    store: Option<EstimateStore>,
    /// Announced users, indexed by wire id: empty until the first
    /// successful [`register_client`](Self::register_client) (the checked
    /// path), then one slot per id in `0..n`.
    roster: Vec<RosterEntry>,
    /// Accounting for the period currently being filled.
    current_delivery: PeriodDelivery,
    /// One finalised accounting row per closed period (checked path only).
    delivery_log: Vec<PeriodDelivery>,
}

/// The one settings check: panics if `RTF_BACKEND` or `RTF_SEED_SCHEMA`
/// names a removed accumulator layout or seed schema
/// ([`AccumulatorKind::from_env`], [`SeedSchema::from_env`]), so a stale
/// script never silently runs the one remaining choice. Every server
/// constructor and every engine run calls it.
pub fn check_settings() {
    AccumulatorKind::from_env();
    SeedSchema::from_env();
}

impl Server {
    /// Builds a server from explicit per-order preservation gaps
    /// `c_gap(h)` (index `h ∈ [0..log d]`). The gaps must match the
    /// clients' randomizers or estimates will be biased.
    ///
    /// # Panics
    /// Panics if the gap vector has the wrong length or a non-positive
    /// entry, or if `RTF_BACKEND` or `RTF_SEED_SCHEMA` names a removed
    /// setting ([`AccumulatorKind::from_env`], [`SeedSchema::from_env`]).
    pub fn new(params: ProtocolParams, c_gaps: &[f64]) -> Self {
        check_settings();
        Self::build(params, c_gaps)
    }

    fn build(params: ProtocolParams, c_gaps: &[f64]) -> Self {
        let orders = params.num_orders() as usize;
        assert_eq!(
            c_gaps.len(),
            orders,
            "need one c_gap per order ({orders}), got {}",
            c_gaps.len()
        );
        let factor = 1.0 + f64::from(params.log_d());
        let scale: Vec<f64> = c_gaps
            .iter()
            .map(|&g| {
                assert!(g > 0.0 && g.is_finite(), "c_gap must be positive, got {g}");
                factor / g
            })
            .collect();
        Server {
            params,
            scale,
            group_sizes: vec![0; orders],
            acc: AnyAccumulator::new(orders),
            frontier: Frontier::new(params.horizon()),
            // Grows as periods close: reserving `d` up front would take
            // 16 GiB at the horizon cap before a single report arrived.
            estimates: Vec::new(),
            current_t: 0,
            store: None,
            roster: Vec::new(),
            current_delivery: PeriodDelivery::default(),
            delivery_log: Vec::new(),
        }
    }

    /// Enables full-tree retention of every interval estimate, unlocking
    /// [`store`](Self::store)-based window queries after the run. Costs
    /// `2d − 1` floats of memory; must be called before period 1.
    ///
    /// # Panics
    /// Panics if the protocol already started.
    pub fn enable_store(&mut self) {
        assert!(self.current_t == 0, "enable_store before period 1");
        self.store = Some(EstimateStore::new(&self.params));
    }

    /// The retained estimate store, if [`enable_store`](Self::enable_store)
    /// was called.
    pub fn store(&self) -> Option<&EstimateStore> {
        self.store.as_ref()
    }

    /// Builds a server whose per-order gaps are the exact `c_gap`s of the
    /// clients' randomizer table (one [`ComposedRandomizer`] per order,
    /// [`RandomizerTable::build`](crate::composed::RandomizerTable::build)).
    ///
    /// # Panics
    /// Panics if the table has the wrong length, or if `RTF_BACKEND` or
    /// `RTF_SEED_SCHEMA` names a removed setting
    /// ([`AccumulatorKind::from_env`], [`SeedSchema::from_env`]).
    pub fn for_table(params: ProtocolParams, table: &[ComposedRandomizer]) -> Self {
        let gaps: Vec<f64> = table.iter().map(ComposedRandomizer::c_gap).collect();
        Self::new(params, &gaps)
    }

    /// [`for_table`](Self::for_table) over the paper's table
    /// ([`ComposedRandomizer::per_order`]: `k_eff = max(1, min(k, L))`,
    /// `ε̃ = ε/(5√k_eff)`).
    ///
    /// # Panics
    /// Panics if `RTF_BACKEND` or `RTF_SEED_SCHEMA` names a removed
    /// setting ([`AccumulatorKind::from_env`], [`SeedSchema::from_env`]).
    pub fn for_future_rand(params: ProtocolParams) -> Self {
        Self::for_table(params, &ComposedRandomizer::per_order(&params))
    }

    /// [`for_future_rand`](Self::for_future_rand) under the one-value
    /// accumulator layout and seed schema. Kept for
    /// `examples/benchmark/src/adapter.rs`, which names both.
    pub fn for_future_rand_schema(
        params: ProtocolParams,
        _backend: AccumulatorKind,
        _schema: SeedSchema,
    ) -> Self {
        Self::for_future_rand(params)
    }

    /// Registers a user's announced order (Algorithm 2, line 1).
    ///
    /// # Panics
    /// Panics if `h > log d` or if the protocol already started.
    pub fn register_user(&mut self, h: u32) {
        assert!(
            self.current_t == 0,
            "all users must register before period 1"
        );
        assert!(
            h <= self.params.log_d(),
            "order {h} exceeds log d = {}",
            self.params.log_d()
        );
        self.group_sizes[h as usize] += 1;
    }

    /// `|U_h|` for each order.
    pub fn group_sizes(&self) -> &[usize] {
        &self.group_sizes
    }

    /// Ingests one report bit from a user with announced order `h`, for
    /// the currently open order-`h` interval.
    pub fn ingest(&mut self, h: u32, bit: Sign) {
        assert!(
            h <= self.params.log_d(),
            "order {h} exceeds log d = {}",
            self.params.log_d()
        );
        self.acc.record(h, bit);
    }

    /// An empty accumulator of this server's shape, for a worker shard to
    /// fill independently and hand back via
    /// [`absorb_shard`](Self::absorb_shard).
    pub fn new_shard(&self) -> AnyAccumulator {
        AnyAccumulator::new(self.acc.orders())
    }

    /// Merges a worker shard's accumulated reports into the live
    /// accumulation state — equivalent, report for report, to having
    /// called [`ingest`](Self::ingest) for each of the shard's bits
    /// (exactly: the sums are integer-valued, so addition order cannot
    /// matter).
    ///
    /// # Errors
    /// Returns [`AccumulatorError`] — not a debug assertion — when the
    /// shard's order count differs from this server's, so a shape-mixing
    /// bug fails loudly in release builds too.
    pub fn absorb_shard(&mut self, shard: &AnyAccumulator) -> Result<(), AccumulatorError> {
        self.acc.try_merge(shard)
    }

    /// Registers a user *by wire id* for the checked ingestion path.
    /// Wire ids must be `< n`: the roster is a dense array indexed by id.
    ///
    /// Unlike [`register_user`](Self::register_user) this never panics on
    /// adversarial input: it returns `false` (and registers nothing) for a
    /// duplicate id, an id `≥ n`, an order beyond `log d`, or a
    /// registration after period 1 — the graceful behaviours an untrusted
    /// deployment needs.
    ///
    /// The first successful call allocates the roster, 8 bytes for each of
    /// the `n` ids; the trusted paths never do.
    pub fn register_client(&mut self, user: u32, h: u32) -> bool {
        let n = self.params.n();
        if self.current_t != 0 || h > self.params.log_d() || user as usize >= n {
            return false;
        }
        if self.roster.is_empty() {
            self.roster = vec![RosterEntry::VACANT; n];
        }
        let slot = &mut self.roster[user as usize];
        if slot.is_registered() {
            return false;
        }
        *slot = RosterEntry {
            order: h,
            last_accepted: 0,
        };
        self.group_sizes[h as usize] += 1;
        true
    }

    /// Ingests one report through the *checked* path: the sender must be
    /// registered via [`register_client`](Self::register_client) (so its
    /// wire id is `< n`), `t` must be the boundary of the sender's
    /// currently open interval, and each `(user, period)` pair is counted
    /// at most once. Anything else is classified and dropped — never a
    /// panic, whatever a Byzantine client puts in a well-formed message; an
    /// id `≥ n` is an [`UnknownUser`](Delivery::UnknownUser).
    ///
    /// This is the one-slot case of the ladder [`RosterShard::classify`]
    /// runs on a roster slice, with no acceptance floor. Per-period
    /// tallies are finalised by [`end_of_period`](Self::end_of_period)
    /// into [`delivery_log`](Self::delivery_log).
    pub fn ingest_checked(&mut self, user: u32, t: u64, bit: Sign) -> Delivery {
        let slot = self.roster.get_mut(user as usize);
        let (verdict, h) = classify_slot(
            slot,
            self.params.d(),
            self.current_t,
            t,
            0,
            &mut self.current_delivery,
        );
        if verdict == Delivery::Accepted {
            self.acc.record(h, bit);
        }
        verdict
    }

    /// Lends the checked roster out as disjoint, contiguous slices, so
    /// each can run the ladder on its own thread
    /// ([`RosterShard::classify`]). Shard `i` owns the wire ids
    /// `ends[i − 1]..ends[i]` (the first starts at 0). What the shards
    /// count comes back through [`absorb_checked`](Self::absorb_checked).
    ///
    /// A verdict reads only its sender's slot, the open period and the
    /// acceptance floor, so frames to different slices classify
    /// independently; each slice must still see its own frames in
    /// mailbox order.
    ///
    /// # Panics
    /// Panics unless `ends` ascend (empty shards allowed) to exactly `n`,
    /// so the shards cover `0..n`.
    pub fn roster_shards(&mut self, ends: &[usize]) -> Vec<RosterShard<'_>> {
        let n = self.params.n();
        let d = self.params.d();
        assert!(
            ends.windows(2).all(|w| w[0] <= w[1]) && ends.last() == Some(&n),
            "roster shards must cover 0..{n} in order, not end at {ends:?}"
        );
        // Before the first registration the roster is unallocated and
        // every slice is empty: all senders are unknown.
        let allocated = !self.roster.is_empty();
        let mut rest: &mut [RosterEntry] = &mut self.roster;
        let mut start = 0;
        ends.iter()
            .map(|&end| {
                let take = if allocated { end - start } else { 0 };
                let (slots, tail) = std::mem::take(&mut rest).split_at_mut(take);
                rest = tail;
                let ids = start..end;
                start = end;
                RosterShard { ids, slots, n, d }
            })
            .collect()
    }

    /// Copies the checked roster's slots for the wire ids `ids` into an
    /// owned [`RosterSlice`]: the closed-period state a worker starts
    /// classifying from. Before the first registration the slice is empty
    /// and every sender is unknown.
    ///
    /// # Panics
    /// Panics unless `ids` lies within `0..n`.
    pub fn roster_slice(&self, ids: Range<usize>) -> RosterSlice {
        let n = self.params.n();
        assert!(
            ids.start <= ids.end && ids.end <= n,
            "roster slice {ids:?} outside 0..{n}"
        );
        let slots = if self.roster.is_empty() {
            Vec::new()
        } else {
            self.roster[ids.clone()].to_vec()
        };
        RosterSlice {
            ids,
            slots,
            n,
            d: self.params.d(),
        }
    }

    /// Writes into the roster that each id in `accepted` had a report
    /// accepted for the open period on a [`RosterSlice`] — the roster half
    /// of what [`ingest_checked`](Self::ingest_checked) does on an
    /// acceptance. [`absorb_checked`](Self::absorb_checked) takes the
    /// verdict counts and signs.
    ///
    /// # Panics
    /// Panics if an id is not registered, or already accepted a report for
    /// the open period (or a later one).
    pub fn commit_accepted(&mut self, accepted: &[u32]) {
        let open = self.current_t + 1;
        for &user in accepted {
            let slot = self
                .roster
                .get_mut(user as usize)
                .filter(|e| e.is_registered())
                .unwrap_or_else(|| panic!("accepted wire id {user} is not registered"));
            assert!(
                u64::from(slot.last_accepted) < open,
                "wire id {user} accepted period {open} twice"
            );
            // An acceptance needs open ≤ d ≤ 2^31, so the period fits.
            slot.last_accepted = open as u32;
        }
    }

    /// Adds a [`CheckedTally`] to the open period: its verdict counts to
    /// the period's delivery row and its accepted signs to the
    /// accumulator, with one `record_counts` per order. Report sums are
    /// integers held exactly in `f64`, so absorbing tallies in any order,
    /// or in pieces, leaves the state that classifying their reports one
    /// by one through [`ingest_checked`](Self::ingest_checked) would.
    ///
    /// # Panics
    /// Panics if the tally is shaped for another horizon, or if its
    /// accepted count differs from its sign counts.
    pub fn absorb_checked(&mut self, tally: &CheckedTally) {
        assert_eq!(
            tally.signs.len(),
            self.acc.orders(),
            "tally has the wrong number of orders"
        );
        let signed: u64 = tally.signs.iter().map(|&(plus, minus)| plus + minus).sum();
        assert_eq!(
            signed, tally.delivery.accepted,
            "a tally's accepted reports are its signed ones"
        );
        let row = &mut self.current_delivery;
        let add = &tally.delivery;
        row.accepted += add.accepted;
        row.duplicate += add.duplicate;
        row.late += add.late;
        row.unknown_user += add.unknown_user;
        row.invalid_period += add.invalid_period;
        row.premature += add.premature;
        for (h, &(plus, minus)) in tally.signs.iter().enumerate() {
            if plus + minus > 0 {
                self.acc.record_counts(h as u32, plus, minus);
            }
        }
    }

    /// One finalised [`PeriodDelivery`] row per closed period, in period
    /// order. Only populated when the checked path is in use (at least one
    /// [`register_client`](Self::register_client) call); the trusted
    /// `ingest`/`absorb_shard` paths keep it empty.
    pub fn delivery_log(&self) -> &[PeriodDelivery] {
        &self.delivery_log
    }

    /// Reports due at period `t`: `Σ |U_h|` over orders whose stride
    /// divides `t`.
    pub fn due_at(&self, t: u64) -> u64 {
        assert!(t >= 1 && t <= self.params.d(), "period {t} off the horizon");
        (0..=t.trailing_zeros().min(self.params.log_d()))
            .map(|h| self.group_sizes[h as usize] as u64)
            .sum()
    }

    /// Closes period `t`: finalises every interval completing at `t`,
    /// computes and stores `â[t]`, and returns it.
    ///
    /// Must be called once per period, in order, after all of that
    /// period's reports have been ingested.
    pub fn end_of_period(&mut self, t: u64) -> f64 {
        assert_eq!(
            t,
            self.current_t + 1,
            "periods must close in order: expected {}, got {t}",
            self.current_t + 1
        );
        assert!(
            t <= self.params.d(),
            "period {t} beyond horizon d = {}",
            self.params.d()
        );
        if !self.roster.is_empty() {
            let mut row = std::mem::take(&mut self.current_delivery);
            row.t = t;
            row.due = self.due_at(t);
            self.delivery_log.push(row);
        }
        self.current_t = t;
        // Orders whose interval completes at t: all h with 2^h | t.
        for h in 0..=t.trailing_zeros().min(self.params.log_d()) {
            let j = t >> h;
            let s_hat = self.scale[h as usize] * self.acc.take_order(h);
            let interval = DyadicInterval::new(h, j);
            self.frontier.record(interval, s_hat);
            if let Some(store) = &mut self.store {
                store.record(interval, s_hat);
            }
        }
        let estimate = self.frontier.prefix_sum(t, |&v| v);
        self.estimates.push(estimate);
        estimate
    }

    /// All estimates `â[1..t]` produced so far (`estimates()[t−1] = â[t]`).
    pub fn estimates(&self) -> &[f64] {
        &self.estimates
    }

    /// Total number of report bits ingested — the server-side view of the
    /// communication cost.
    pub fn reports_ingested(&self) -> u64 {
        self.acc.reports()
    }

    /// The live accumulation state (diagnostic).
    pub fn accumulator(&self) -> &AnyAccumulator {
        &self.acc
    }

    /// The protocol parameters.
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    /// The per-order scale factors `(1 + log d)/c_gap(h)` (diagnostic).
    pub fn scales(&self) -> &[f64] {
        &self.scale
    }

    /// Serializes the complete server state — parameters, scales, group
    /// sizes, accumulator lanes, frontier, estimates, retained store,
    /// registered roster entries (in wire-id order, so snapshots of equal
    /// state are byte-identical), and delivery accounting — into `w`.
    pub fn write_snapshot(&self, w: &mut SnapWriter) {
        w.usize(self.params.n());
        w.u64(self.params.d());
        w.usize(self.params.k());
        w.f64(self.params.epsilon());
        w.f64(self.params.beta());
        for &s in &self.scale {
            w.f64(s);
        }
        for &g in &self.group_sizes {
            w.usize(g);
        }
        self.acc.write_state(w);
        for slot in self.frontier.slots() {
            match slot {
                None => w.bool(false),
                Some((j, v)) => {
                    w.bool(true);
                    w.u64(*j);
                    w.f64(*v);
                }
            }
        }
        w.u64(self.current_t);
        for &e in &self.estimates {
            w.f64(e);
        }
        match &self.store {
            None => w.bool(false),
            Some(store) => {
                w.bool(true);
                store.write_state(w);
            }
        }
        w.usize(self.roster.iter().filter(|e| e.is_registered()).count());
        // Slot order is wire-id order; the roster has n ≤ 2^32 slots, so
        // every slot index fits a u32 id.
        for (user, entry) in self.roster.iter().enumerate() {
            if entry.is_registered() {
                w.u32(user as u32);
                w.u32(entry.order);
                w.u64(u64::from(entry.last_accepted));
            }
        }
        write_delivery(w, &self.current_delivery);
        w.usize(self.delivery_log.len());
        for row in &self.delivery_log {
            write_delivery(w, row);
        }
    }

    /// Rebuilds a server from bytes written by
    /// [`write_snapshot`](Self::write_snapshot). Every field is
    /// validated against the protocol invariants (parameter validity,
    /// per-order shape, frontier indices on the horizon, roster ids below
    /// `n` with orders within `log d`, estimate count equal to the
    /// closed-period count), and every allocation is bounded by the
    /// remaining payload or reserved fallibly.
    ///
    /// # Errors
    /// A typed [`SnapshotError`]; malformed bytes never panic, never abort
    /// on a header-sized allocation, and never produce a structurally
    /// invalid server.
    pub fn read_snapshot(r: &mut SnapReader<'_>) -> Result<Server, SnapshotError> {
        let n = r.usize()?;
        let d = r.u64()?;
        let k = r.usize()?;
        let epsilon = r.f64()?;
        let beta = r.f64()?;
        let params = ProtocolParams::new(n, d, k, epsilon, beta)
            .map_err(|_| SnapshotError::Corrupt("invalid protocol parameters"))?;
        let orders = params.num_orders() as usize;
        let mut scale = Vec::with_capacity(orders);
        for _ in 0..orders {
            let s = r.f64()?;
            if !(s > 0.0 && s.is_finite()) {
                return Err(SnapshotError::Corrupt("non-positive per-order scale"));
            }
            scale.push(s);
        }
        let mut group_sizes = Vec::with_capacity(orders);
        for _ in 0..orders {
            group_sizes.push(r.usize()?);
        }
        let acc = AnyAccumulator::read_state(r)?;
        if acc.orders() != orders {
            return Err(SnapshotError::Corrupt("accumulator shape off the horizon"));
        }
        let mut slots: Vec<Option<(u64, f64)>> = Vec::with_capacity(orders);
        for _ in 0..orders {
            slots.push(if r.bool()? {
                Some((r.u64()?, r.f64()?))
            } else {
                None
            });
        }
        let frontier =
            Frontier::from_slots(params.horizon(), slots).map_err(SnapshotError::Corrupt)?;
        let current_t = r.u64()?;
        if current_t > d {
            return Err(SnapshotError::Corrupt("current period beyond the horizon"));
        }
        let mut estimates = Vec::with_capacity(r.room_for(current_t, 8)?);
        for _ in 0..current_t {
            estimates.push(r.f64()?);
        }
        let store = if r.bool()? {
            Some(EstimateStore::read_state(&params, r)?)
        } else {
            None
        };
        let roster_len = r.len(16)?;
        let mut roster = Vec::new();
        if roster_len > 0 {
            roster
                .try_reserve_exact(n)
                .map_err(|_| SnapshotError::Corrupt("roster of n ids does not fit in memory"))?;
            roster.resize(n, RosterEntry::VACANT);
        }
        let mut prev_user: Option<u32> = None;
        for _ in 0..roster_len {
            let user = r.u32()?;
            if prev_user.is_some_and(|p| user <= p) {
                return Err(SnapshotError::Corrupt("roster not sorted by wire id"));
            }
            prev_user = Some(user);
            if user as usize >= n {
                return Err(SnapshotError::Corrupt("roster id not below n"));
            }
            let order = r.u32()?;
            if order > params.log_d() {
                return Err(SnapshotError::Corrupt("roster order beyond log d"));
            }
            let last_accepted = r.u64()?;
            if last_accepted > d {
                return Err(SnapshotError::Corrupt("roster acceptance beyond horizon"));
            }
            // last_accepted ≤ d ≤ 2^31, so it fits the slot.
            roster[user as usize] = RosterEntry {
                order,
                last_accepted: last_accepted as u32,
            };
        }
        let current_delivery = read_delivery(r)?;
        let log_len = r.len(64)?;
        if log_len as u64 > current_t {
            return Err(SnapshotError::Corrupt("delivery log longer than horizon"));
        }
        let mut delivery_log = Vec::with_capacity(log_len);
        for _ in 0..log_len {
            delivery_log.push(read_delivery(r)?);
        }
        Ok(Server {
            params,
            scale,
            group_sizes,
            acc,
            frontier,
            estimates,
            current_t,
            store,
            roster,
            current_delivery,
            delivery_log,
        })
    }
}

fn write_delivery(w: &mut SnapWriter, row: &PeriodDelivery) {
    w.u64(row.t);
    w.u64(row.due);
    w.u64(row.accepted);
    w.u64(row.duplicate);
    w.u64(row.late);
    w.u64(row.unknown_user);
    w.u64(row.invalid_period);
    w.u64(row.premature);
}

fn read_delivery(r: &mut SnapReader<'_>) -> Result<PeriodDelivery, SnapshotError> {
    Ok(PeriodDelivery {
        t: r.u64()?,
        due: r.u64()?,
        accepted: r.u64()?,
        duplicate: r.u64()?,
        late: r.u64()?,
        unknown_user: r.u64()?,
        invalid_period: r.u64()?,
        premature: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{SnapReader, SnapWriter, SnapshotError};

    fn params() -> ProtocolParams {
        ProtocolParams::new(100, 8, 2, 1.0, 0.05).unwrap()
    }

    #[test]
    fn scales_are_factor_over_gap() {
        let p = params();
        let gaps = vec![0.5, 0.25, 0.1, 0.05];
        let s = Server::new(p, &gaps);
        let factor = 1.0 + 3.0; // log d = 3
        for (i, &g) in gaps.iter().enumerate() {
            assert!((s.scales()[i] - factor / g).abs() < 1e-12);
        }
    }

    #[test]
    fn noiseless_reports_reconstruct_counts() {
        // Feed the server "perfect" reports: pretend c_gap = 1 (no noise)
        // and hand-craft one user at order 0 whose bits equal its partial
        // sums (+1 encodes +1, −1 encodes −1; zero partial sums
        // contribute the average of ±1 — emulate by two users cancelling).
        // Simpler exact check: a single order-0 user with derivative
        // (+1, 0, 0, −1, 0, 0, 0, 0), encoded as bits where zero slots are
        // sent as +1 and −1 by two mirrored users ⇒ their sum is
        // 2·S_u(I). With c_gap = 1 and (1+log d) compensated by dividing
        // the expectation at the end, we just verify the linear pipeline:
        // Ŝ = scale · Σ bits and â[t] = Σ_{C(t)} Ŝ.
        let p = params();
        let s_scale = 1.0 + 3.0;
        let mut server = Server::new(p, &[1.0; 4]);
        server.register_user(0);
        // Bits per period for the single user: +1, −1, +1, −1, ...
        let bits = [
            Sign::Plus,
            Sign::Minus,
            Sign::Plus,
            Sign::Minus,
            Sign::Plus,
            Sign::Minus,
            Sign::Plus,
            Sign::Minus,
        ];
        for t in 1..=8u64 {
            server.ingest(0, bits[(t - 1) as usize]);
            let est = server.end_of_period(t);
            // Order-0 interval of C(t) contributes scale·bit(t); higher
            // orders got no reports so their Ŝ is 0.
            // C(t) = set bits of t; only order-0 member has nonzero Ŝ.
            let expect = s_scale * bits[(t - 1) as usize].as_f64();
            if t % 2 == 1 {
                assert_eq!(est, expect, "t = {t}");
            }
        }
        assert_eq!(server.reports_ingested(), 8);
    }

    #[test]
    fn multi_order_aggregation() {
        // One user at order 1 sending +1 at every even period; check that
        // â[t] composes Ŝ across orders via C(t).
        let p = params();
        let mut server = Server::new(p, &[1.0; 4]);
        server.register_user(1);
        let scale = 4.0; // (1+log d)/1
        let mut estimates = Vec::new();
        for t in 1..=8u64 {
            if t % 2 == 0 {
                server.ingest(1, Sign::Plus);
            }
            estimates.push(server.end_of_period(t));
        }
        // C(2) = {I_{1,1}} ⇒ â[2] = scale·1 = 4.
        assert_eq!(estimates[1], scale);
        // C(6) = {I_{2,1}, I_{1,3}}: order-2 got no reports (Ŝ=0), order-1
        // member is the interval ending at 6 with one +1 report.
        assert_eq!(estimates[5], scale);
        // C(3) = {I_{1,1}, I_{0,3}}: order-0 slot has Ŝ = 0 ⇒ â[3] = 4.
        assert_eq!(estimates[2], scale);
    }

    #[test]
    fn for_future_rand_uses_per_order_gaps() {
        let p = ProtocolParams::new(100, 16, 8, 1.0, 0.05).unwrap();
        let s = Server::for_future_rand(p);
        // k_eff shrinks for high orders (L < k), so c_gap grows and scale
        // shrinks: scales must be non-increasing in h once L < k.
        let scales = s.scales();
        assert!(scales[3] <= scales[2], "{scales:?}"); // L=2 vs L=4
        assert!(scales[4] <= scales[3], "{scales:?}"); // L=1 vs L=2
    }

    #[test]
    #[should_panic(expected = "must register before")]
    fn late_registration_rejected() {
        let p = params();
        let mut server = Server::new(p, &[1.0; 4]);
        let _ = server.end_of_period(1);
        server.register_user(0);
    }

    #[test]
    #[should_panic(expected = "periods must close in order")]
    fn skipped_period_rejected() {
        let p = params();
        let mut server = Server::new(p, &[1.0; 4]);
        let _ = server.end_of_period(1);
        let _ = server.end_of_period(3);
    }

    #[test]
    fn checked_path_accepts_on_time_reports() {
        let p = params();
        let mut server = Server::new(p, &[1.0; 4]);
        assert!(server.register_client(7, 0));
        assert!(server.register_client(8, 1));
        for t in 1..=8u64 {
            assert_eq!(server.ingest_checked(7, t, Sign::Plus), Delivery::Accepted);
            if t % 2 == 0 {
                assert_eq!(server.ingest_checked(8, t, Sign::Minus), Delivery::Accepted);
            }
            let _ = server.end_of_period(t);
        }
        let log = server.delivery_log();
        assert_eq!(log.len(), 8);
        for row in log {
            assert_eq!(row.due, row.accepted, "t={}", row.t);
            assert_eq!(row.missing(), 0);
        }
        assert_eq!(server.reports_ingested(), 8 + 4);
    }

    #[test]
    fn span_run_ingest_matches_per_report_acceptance() {
        // Absorbing a whole accepted span as a tally must leave the
        // accumulator, delivery tally, and estimates exactly where the
        // per-report checked path would.
        let p = params();
        let mut folded = Server::new(p, &[1.0; 4]);
        let mut perreport = Server::new(p, &[1.0; 4]);
        for u in 0..6u32 {
            assert!(folded.register_client(u, 0));
            assert!(perreport.register_client(u, 0));
        }
        for t in 1..=4u64 {
            // 4 of 6 bits are +1 every period.
            let mut run = CheckedTally::new(4);
            run.accept_run(0, 4, 6);
            folded.absorb_checked(&run);
            for u in 0..6u32 {
                let bit = if u < 4 { Sign::Plus } else { Sign::Minus };
                assert_eq!(perreport.ingest_checked(u, t, bit), Delivery::Accepted);
            }
            assert_eq!(folded.end_of_period(t), perreport.end_of_period(t));
        }
        assert_eq!(folded.delivery_log(), perreport.delivery_log());
        assert_eq!(folded.reports_ingested(), perreport.reports_ingested());
    }

    #[test]
    fn floor_drives_only_the_duplicate_rung() {
        let p = params();
        let mut server = Server::new(p, &[1.0; 4]);
        assert!(server.register_client(3, 0));
        let mut tally = CheckedTally::new(4);
        // Period 1's report was folded outside the roster; the caller
        // passes floor = 1 so a re-claim of t = 1 dedupes exactly as if
        // the acceptance had gone through the roster.
        tally.accept_run(0, 1, 1);
        let mut shards = server.roster_shards(&[100]);
        let roster = &mut shards[0];
        assert_eq!(
            roster.classify(3, 1, Sign::Plus, 1, 0, &mut tally),
            Delivery::Duplicate
        );
        // Floor below the claimed boundary changes nothing: t = 2 is the
        // open boundary of period 2 and is accepted, floor or not.
        let mut next = CheckedTally::new(4);
        assert_eq!(
            roster.classify(3, 2, Sign::Plus, 1, 1, &mut next),
            Delivery::Accepted
        );
        // A stale claim of the folded boundary is Late once the roster's
        // own acceptance (t = 2) is more recent than the floor.
        let mut third = CheckedTally::new(4);
        assert_eq!(
            roster.classify(3, 1, Sign::Plus, 1, 2, &mut third),
            Delivery::Late
        );
        // Unknown users stay unknown regardless of floor.
        assert_eq!(
            roster.classify(99, 3, Sign::Plus, 3, 2, &mut third),
            Delivery::UnknownUser
        );
        for (t, tally) in [(1, &tally), (2, &next), (3, &third)] {
            server.absorb_checked(tally);
            let _ = server.end_of_period(t);
        }
        let log = server.delivery_log();
        assert_eq!(log[0].accepted, 1, "the folded report");
        assert_eq!(log[0].duplicate, 1, "the floored re-claim");
        assert_eq!(log[1].accepted, 1);
        assert_eq!((log[2].late, log[2].unknown_user), (1, 1));
        assert_eq!(server.reports_ingested(), 2);
    }

    #[test]
    fn roster_shards_classify_like_the_whole_roster() {
        // Three uneven slices (one empty) against ingest_checked on a
        // twin: same verdicts, and after absorbing the tallies in shard
        // order the same rows, estimates and snapshot bytes.
        let mut sharded = Server::new(params(), &[1.0; 4]);
        let mut whole = Server::new(params(), &[1.0; 4]);
        for (user, h) in [(2u32, 0u32), (40, 1), (41, 0), (99, 0)] {
            assert!(sharded.register_client(user, h));
            assert!(whole.register_client(user, h));
        }
        let ends = [40, 40, 100];
        let frames = [
            (2u32, 1u64),
            (41, 1),
            (40, 2),
            (2, 1),
            (99, 1),
            (7, 1),
            (150, 1),
        ];
        for t in 1..=2u64 {
            let mut tallies = vec![CheckedTally::new(4); ends.len()];
            let mut shards = sharded.roster_shards(&ends);
            for &(user, claim) in &frames {
                let claim = claim + t - 1;
                let r = ends
                    .iter()
                    .position(|&end| (user as usize) < end)
                    .unwrap_or(user as usize % ends.len());
                let bit = if user % 2 == 0 {
                    Sign::Plus
                } else {
                    Sign::Minus
                };
                assert_eq!(
                    shards[r].classify(user, claim, bit, 0, t - 1, &mut tallies[r]),
                    whole.ingest_checked(user, claim, bit),
                    "user {user} claim {claim}"
                );
            }
            drop(shards);
            for tally in &tallies {
                sharded.absorb_checked(tally);
            }
            assert_eq!(sharded.end_of_period(t), whole.end_of_period(t));
        }
        assert_eq!(sharded.delivery_log(), whole.delivery_log());
        assert_eq!(snapshot_bytes(&sharded), snapshot_bytes(&whole));
    }

    #[test]
    #[should_panic(expected = "routed to roster shard")]
    fn in_range_id_on_a_foreign_shard_panics() {
        let mut server = Server::new(params(), &[1.0; 4]);
        assert!(server.register_client(60, 0));
        let mut shards = server.roster_shards(&[50, 100]);
        let mut tally = CheckedTally::new(4);
        // Id 60 < n belongs to shard 1; shard 0 must not call it unknown.
        let _ = shards[0].classify(60, 1, Sign::Plus, 0, 0, &mut tally);
    }

    #[test]
    #[should_panic(expected = "must cover 0..100")]
    fn roster_shards_must_cover_every_id() {
        let mut server = Server::new(params(), &[1.0; 4]);
        let _ = server.roster_shards(&[50, 99]);
    }

    #[test]
    fn checked_path_classifies_misbehaviour_without_panicking() {
        let p = params();
        let mut server = Server::new(p, &[1.0; 4]);
        assert!(server.register_client(0, 0));
        assert!(server.register_client(1, 2));
        // Duplicate id and off-horizon order are rejected, not panics.
        assert!(!server.register_client(0, 1));
        assert!(!server.register_client(9, 11));
        assert_eq!(server.group_sizes(), &[1, 0, 1, 0]);

        // Period 1: unknown sender, premature boundary, wrong stride.
        assert_eq!(
            server.ingest_checked(42, 1, Sign::Plus),
            Delivery::UnknownUser
        );
        assert_eq!(server.ingest_checked(0, 2, Sign::Plus), Delivery::Premature);
        // The order-2 user's own open boundary (t = 4) is still premature
        // before period 4 — a forgery must not pre-empt the honest report.
        assert_eq!(server.ingest_checked(1, 4, Sign::Plus), Delivery::Premature);
        assert_eq!(
            server.ingest_checked(1, 3, Sign::Plus),
            Delivery::InvalidPeriod
        );
        assert_eq!(
            server.ingest_checked(1, 0, Sign::Plus),
            Delivery::InvalidPeriod
        );
        assert_eq!(
            server.ingest_checked(1, 16, Sign::Plus),
            Delivery::InvalidPeriod
        );
        // On-time, then its resend.
        assert_eq!(server.ingest_checked(0, 1, Sign::Plus), Delivery::Accepted);
        assert_eq!(server.ingest_checked(0, 1, Sign::Plus), Delivery::Duplicate);
        let _ = server.end_of_period(1);

        // Period 2: resending the most recent accepted report is still a
        // duplicate; the user's (never-sent) report for t=2 goes missing.
        assert_eq!(server.ingest_checked(0, 1, Sign::Plus), Delivery::Duplicate);
        let _ = server.end_of_period(2);

        // Period 3: the report for the now-closed t=2 interval is late.
        assert_eq!(server.ingest_checked(0, 2, Sign::Plus), Delivery::Late);
        let _ = server.end_of_period(3);

        let log = server.delivery_log();
        assert_eq!(log[0].t, 1);
        assert_eq!(log[0].due, 1);
        assert_eq!(log[0].accepted, 1);
        assert_eq!(log[0].duplicate, 1);
        // The six rejections split by class: one unknown sender, three
        // invalid periods (wrong stride, zero, off-horizon), two
        // premature boundaries.
        assert_eq!(log[0].unknown_user, 1);
        assert_eq!(log[0].invalid_period, 3);
        assert_eq!(log[0].premature, 2);
        assert_eq!(log[0].rejected(), 6);
        assert_eq!(log[1].duplicate, 1);
        assert_eq!(log[1].missing(), 1); // the order-0 user skipped t=2
        assert_eq!(log[2].late, 1);
        // Registration after period 1 is refused gracefully.
        assert!(!server.register_client(5, 0));
    }

    #[test]
    fn checked_path_closes_periods_with_missing_reports() {
        // A fully silent population: every period closes, every report is
        // missing, and the estimates are all zero (no bits, no noise).
        let p = params();
        let mut server = Server::new(p, &[1.0; 4]);
        for u in 0..4u32 {
            assert!(server.register_client(u, 0));
        }
        for t in 1..=8u64 {
            assert_eq!(server.end_of_period(t), 0.0);
        }
        assert!(server.delivery_log().iter().all(|r| r.missing() == 4));
    }

    #[test]
    fn due_at_sums_divisible_orders() {
        let p = params();
        let mut server = Server::new(p, &[1.0; 4]);
        for _ in 0..3 {
            server.register_user(0);
        }
        for _ in 0..2 {
            server.register_user(1);
        }
        server.register_user(3);
        assert_eq!(server.due_at(1), 3);
        assert_eq!(server.due_at(2), 5);
        assert_eq!(server.due_at(8), 6);
    }

    #[test]
    fn absorbed_shards_match_direct_ingestion() {
        // Two servers over the same report stream: one ingests directly,
        // one through worker-shard accumulators merged in shard order.
        // Estimates must agree exactly at every period.
        use crate::accumulator::Accumulator;
        let p = params();
        let mut direct = Server::new(p, &[1.0; 4]);
        let mut sharded = Server::new(p, &[1.0; 4]);
        for _ in 0..6 {
            direct.register_user(0);
            sharded.register_user(0);
        }
        let bits = [
            Sign::Plus,
            Sign::Plus,
            Sign::Minus,
            Sign::Plus,
            Sign::Minus,
            Sign::Minus,
        ];
        for t in 1..=8u64 {
            for &bit in &bits {
                direct.ingest(0, bit);
            }
            // Shard split 6 users as 4 + 2.
            let mut s1 = sharded.new_shard();
            let mut s2 = sharded.new_shard();
            for &bit in &bits[..4] {
                s1.record(0, bit);
            }
            for &bit in &bits[4..] {
                s2.record(0, bit);
            }
            sharded.absorb_shard(&s1).unwrap();
            sharded.absorb_shard(&s2).unwrap();
            assert_eq!(direct.end_of_period(t), sharded.end_of_period(t));
        }
        assert_eq!(direct.reports_ingested(), sharded.reports_ingested());
    }

    #[test]
    fn absorb_shard_rejects_mismatches_with_typed_errors() {
        let mut server = Server::for_future_rand(params());
        // Wrong shape: a shard sized for a different horizon.
        let mut misshapen = AnyAccumulator::new(9);
        misshapen.record(0, Sign::Plus);
        assert_eq!(
            server.absorb_shard(&misshapen),
            Err(AccumulatorError::ShapeMismatch {
                expected: 4,
                got: 9
            })
        );
        // The failed merge did not touch the live state.
        assert_eq!(server.reports_ingested(), 0);
        // A well-formed shard still merges.
        let mut ok = server.new_shard();
        ok.record(0, Sign::Plus);
        assert!(server.absorb_shard(&ok).is_ok());
        assert_eq!(server.reports_ingested(), 1);
    }

    #[test]
    fn trusted_paths_keep_delivery_log_empty() {
        let p = params();
        let mut server = Server::new(p, &[1.0; 4]);
        server.register_user(0);
        for t in 1..=8u64 {
            server.ingest(0, Sign::Plus);
            let _ = server.end_of_period(t);
        }
        assert!(server.delivery_log().is_empty());
        assert_eq!(server.roster.capacity(), 0, "no roster allocated");
    }

    /// Drives a server mid-horizon through the checked path (roster,
    /// delivery accounting, retained store, a partially filled period),
    /// snapshots it, restores, and demands byte-identical re-snapshots
    /// plus field-level equality of everything observable.
    #[test]
    fn server_snapshot_roundtrips_mid_horizon_on_every_backend() {
        let mut server = Server::for_future_rand(params());
        server.enable_store();
        for u in 0..12u32 {
            assert!(server.register_client(u, u % 3));
        }
        for t in 1..=5u64 {
            for u in 0..12u32 {
                let h = u % 3;
                if t % (1 << h) == 0 {
                    let bit = if (u + t as u32) % 3 == 0 {
                        Sign::Minus
                    } else {
                        Sign::Plus
                    };
                    server.ingest_checked(u, t, bit);
                }
            }
            let _ = server.end_of_period(t);
        }
        // Half-fill period 6 so open-interval state is live too.
        for u in 0..6u32 {
            if u % 3 == 0 {
                server.ingest_checked(u, 6, Sign::Plus);
            }
        }
        let mut w = SnapWriter::new();
        server.write_snapshot(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let back = Server::read_snapshot(&mut r).unwrap();
        r.finish().unwrap();
        let mut w2 = SnapWriter::new();
        back.write_snapshot(&mut w2);
        assert_eq!(w2.finish(), bytes, "re-snapshot differs");
        assert_eq!(back.estimates(), server.estimates());
        assert_eq!(back.delivery_log(), server.delivery_log());
        assert_eq!(back.group_sizes(), server.group_sizes());
        assert_eq!(back.reports_ingested(), server.reports_ingested());
        // Both copies must close the remaining horizon identically.
        let mut live = server.clone();
        let mut restored = back;
        for t in 6..=8u64 {
            assert_eq!(
                live.end_of_period(t).to_bits(),
                restored.end_of_period(t).to_bits(),
                "t={t}"
            );
        }
        assert_eq!(live.delivery_log(), restored.delivery_log());
    }

    #[test]
    fn server_snapshot_rejects_inconsistent_fields() {
        let server = Server::for_future_rand(params());
        // A wrong parameter quintuple (d not a power of two) is Corrupt.
        let mut w = SnapWriter::new();
        w.usize(100);
        w.u64(7);
        w.usize(2);
        w.f64(1.0);
        w.f64(0.05);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(
            Server::read_snapshot(&mut r).unwrap_err(),
            SnapshotError::Corrupt("invalid protocol parameters")
        );
        // Truncating a valid snapshot anywhere is caught by the checksum.
        let mut w = SnapWriter::new();
        server.write_snapshot(&mut w);
        let bytes = w.finish();
        assert!(SnapReader::new(&bytes[..bytes.len() / 2]).is_err());
        // An accumulator of another shape than the horizon's is Corrupt, so
        // no restored server absorbs a shard cut to a foreign shape.
        let p = params();
        let orders = p.num_orders() as usize;
        let mut w = SnapWriter::new();
        w.usize(p.n());
        w.u64(p.d());
        w.usize(p.k());
        w.f64(p.epsilon());
        w.f64(p.beta());
        for _ in 0..orders {
            w.f64(1.0);
        }
        for _ in 0..orders {
            w.usize(0);
        }
        AnyAccumulator::new(orders + 1).write_state(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(
            Server::read_snapshot(&mut r).unwrap_err(),
            SnapshotError::Corrupt("accumulator shape off the horizon")
        );
    }

    /// A checked-path server mid-period 4 with a gappy roster (ids
    /// {3, 7, 8, 41} of n = 100, registered out of id order) and exact
    /// power-of-two gaps, so its bytes depend on nothing ambient.
    fn gappy_checked_server() -> Server {
        let mut server = Server::build(params(), &[0.5, 0.25, 0.125, 0.0625]);
        for (user, h) in [(41, 1), (3, 0), (8, 2), (7, 0)] {
            assert!(server.register_client(user, h));
        }
        for t in 1..=3u64 {
            // On-time, off-stride, premature and unknown (id 5) reports,
            // then a duplicate.
            for user in [3u32, 7, 8, 41, 5] {
                let bit = if (u64::from(user) + t) % 3 == 0 {
                    Sign::Minus
                } else {
                    Sign::Plus
                };
                let _ = server.ingest_checked(user, t, bit);
            }
            let _ = server.ingest_checked(3, t, Sign::Plus);
            let _ = server.end_of_period(t);
        }
        let _ = server.ingest_checked(3, 4, Sign::Minus);
        let _ = server.ingest_checked(8, 4, Sign::Plus);
        let _ = server.ingest_checked(7, 2, Sign::Plus);
        server
    }

    /// The snapshot of [`gappy_checked_server`]: the wire format must not
    /// move with the in-memory layout. First pinned before the roster
    /// became a dense array, re-stamped with schema byte 2 (byte 12 and
    /// the checksum are all that changed) when seed schema v1 was
    /// removed.
    const GAPPY_ROSTER_SNAPSHOT: &str = concat!(
        "525446534e415000020000000264000000000000000800000000000000020000",
        "0000000000000000000000f03f9a9999999999a93f0000000000002040000000",
        "0000003040000000000000404000000000000050400200000000000000010000",
        "0000000000010000000000000000000000000000000004000000000000000000",
        "00000000f0bf0000000000000000000000000000f03f00000000000000000900",
        "0000000000000103000000000000000000000000000000010100000000000000",
        "0000000000003040000003000000000000000000000000003040000000000000",
        "3040000000000000304000040000000000000003000000000000000400000000",
        "0000000700000000000000030000000000000008000000020000000400000000",
        "0000002900000001000000020000000000000000000000000000000000000000",
        "0000000200000000000000000000000000000001000000000000000000000000",
        "0000000000000000000000000000000000000003000000000000000100000000",
        "0000000200000000000000020000000000000001000000000000000000000000",
        "0000000100000000000000020000000000000000000000000000000200000000",
        "0000000300000000000000030000000000000001000000000000000000000000",
        "0000000100000000000000010000000000000000000000000000000300000000",
        "0000000200000000000000020000000000000001000000000000000000000000",
        "0000000100000000000000020000000000000000000000000000001d39add3ef",
        "294c89",
    );

    /// The same snapshot as written under the removed seed schema v1
    /// (header schema byte 1): restores must refuse it.
    const GAPPY_ROSTER_SNAPSHOT_V1: &str = concat!(
        "525446534e415000020000000164000000000000000800000000000000020000",
        "0000000000000000000000f03f9a9999999999a93f0000000000002040000000",
        "0000003040000000000000404000000000000050400200000000000000010000",
        "0000000000010000000000000000000000000000000004000000000000000000",
        "00000000f0bf0000000000000000000000000000f03f00000000000000000900",
        "0000000000000103000000000000000000000000000000010100000000000000",
        "0000000000003040000003000000000000000000000000003040000000000000",
        "3040000000000000304000040000000000000003000000000000000400000000",
        "0000000700000000000000030000000000000008000000020000000400000000",
        "0000002900000001000000020000000000000000000000000000000000000000",
        "0000000200000000000000000000000000000001000000000000000000000000",
        "0000000000000000000000000000000000000003000000000000000100000000",
        "0000000200000000000000020000000000000001000000000000000000000000",
        "0000000100000000000000020000000000000000000000000000000200000000",
        "0000000300000000000000030000000000000001000000000000000000000000",
        "0000000100000000000000010000000000000000000000000000000300000000",
        "0000000200000000000000020000000000000001000000000000000000000000",
        "000000010000000000000002000000000000000000000000000000b075c5f007",
        "bb066c",
    );

    fn snapshot_bytes(server: &Server) -> Vec<u8> {
        let mut w = SnapWriter::new();
        server.write_snapshot(&mut w);
        w.finish()
    }

    fn restore(bytes: &[u8]) -> Result<Server, SnapshotError> {
        let mut r = SnapReader::new(bytes)?;
        let server = Server::read_snapshot(&mut r)?;
        r.finish()?;
        Ok(server)
    }

    /// `bytes` with the header's `n` rewritten and the checksum resealed.
    fn with_n(bytes: &[u8], n: u64) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[13..21].copy_from_slice(&n.to_le_bytes());
        let end = out.len() - 8;
        let sum = crate::snapshot::fnv1a64(&out[..end]);
        out[end..].copy_from_slice(&sum.to_le_bytes());
        out
    }

    #[test]
    fn gappy_roster_snapshot_bytes_are_pinned() {
        let bytes = snapshot_bytes(&gappy_checked_server());
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GAPPY_ROSTER_SNAPSHOT);
        let back = restore(&bytes).unwrap();
        assert_eq!(snapshot_bytes(&back), bytes, "re-snapshot differs");
    }

    #[test]
    fn removed_schema_v1_snapshot_is_refused() {
        let bytes: Vec<u8> = (0..GAPPY_ROSTER_SNAPSHOT_V1.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GAPPY_ROSTER_SNAPSHOT_V1[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(
            restore(&bytes).unwrap_err(),
            SnapshotError::Corrupt("seed schema v1 was removed")
        );
    }

    #[test]
    fn estimates_grow_as_periods_close() {
        // At the horizon cap, reserving d estimates up front would take
        // 16 GiB before the first period closed.
        let cap = crate::params::MAX_HORIZON;
        let params = ProtocolParams::new(1000, cap, 2, 1.0, 0.05).unwrap();
        let mut server = Server::for_future_rand(params);
        assert_eq!(server.estimates.capacity(), 0);
        server.register_user(0);
        server.ingest(0, Sign::Plus);
        let _ = server.end_of_period(1);
        assert_eq!(server.estimates().len(), 1);
        assert!(
            server.estimates.capacity() < 64,
            "{}",
            server.estimates.capacity()
        );
    }

    #[test]
    fn roster_is_dense_over_ids_below_n() {
        let mut server = Server::new(params(), &[1.0; 4]);
        // Trusted registration and refused checked ones allocate nothing.
        server.register_user(0);
        assert!(!server.register_client(100, 0), "id = n");
        assert!(!server.register_client(u32::MAX, 0));
        assert!(!server.register_client(3, 4), "order beyond log d");
        assert_eq!(server.roster.capacity(), 0);
        assert!(server.register_client(99, 1), "id = n − 1");
        assert!(!server.register_client(99, 0), "repeat");
        assert_eq!(server.roster.len(), 100);
        assert_eq!(server.group_sizes(), &[1, 1, 0, 0]);
        for user in [100, u32::MAX, 98] {
            assert_eq!(
                server.ingest_checked(user, 1, Sign::Plus),
                Delivery::UnknownUser,
                "id {user}"
            );
        }
        assert_eq!(
            server.ingest_checked(99, 2, Sign::Plus),
            Delivery::Premature
        );
        let _ = server.end_of_period(1);
        assert_eq!(server.ingest_checked(99, 2, Sign::Plus), Delivery::Accepted);
        assert_eq!(server.delivery_log()[0].unknown_user, 3);
    }

    #[test]
    fn roster_ids_at_or_above_n_are_corrupt() {
        let bytes = snapshot_bytes(&gappy_checked_server());
        // Id 41 is not below n = 41; n = 42 still holds every id.
        assert_eq!(
            restore(&with_n(&bytes, 41)).unwrap_err(),
            SnapshotError::Corrupt("roster id not below n")
        );
        let back = restore(&with_n(&bytes, 42)).unwrap();
        assert_eq!(back.roster.len(), 42);
        // An n beyond the u32 id space is rejected with the parameters.
        assert_eq!(
            restore(&with_n(&bytes, crate::params::MAX_USERS + 1)).unwrap_err(),
            SnapshotError::Corrupt("invalid protocol parameters")
        );
    }

    /// Valid snapshot bytes through the period counter whose `current_t`
    /// (and, with `store`, the store flag) promise more data than
    /// follows. Sizing the `current_t` estimates or the `2d − 1` store
    /// tree from these headers alone would abort the process.
    fn crafted_header(d: u64, current_t: u64, store: bool) -> Vec<u8> {
        let orders = d.trailing_zeros() as usize + 1;
        let mut w = SnapWriter::new();
        w.usize(100);
        w.u64(d);
        w.usize(1);
        w.f64(1.0);
        w.f64(0.05);
        for _ in 0..orders {
            w.f64(1.0);
        }
        for _ in 0..orders {
            w.usize(0);
        }
        AnyAccumulator::new(orders).write_state(&mut w);
        for _ in 0..orders {
            w.bool(false);
        }
        w.u64(current_t);
        if store {
            w.bool(true);
            w.u64(0);
        }
        w.finish()
    }

    #[test]
    fn crafted_headers_are_typed_errors_not_aborts() {
        let cap = crate::params::MAX_HORIZON;
        for (d, current_t, store) in [(1 << 40, 1 << 40, false), (1 << 40, 0, true)] {
            assert_eq!(
                restore(&crafted_header(d, current_t, store)).unwrap_err(),
                SnapshotError::Corrupt("invalid protocol parameters"),
                "d = 2^40"
            );
        }
        // At the horizon cap the parameters are valid, so the payload
        // guards are what refuse the 16 GiB estimate vector and the
        // 32 GiB store tree.
        for (current_t, store) in [(cap, false), (0, true)] {
            assert_eq!(
                restore(&crafted_header(cap, current_t, store)).unwrap_err(),
                SnapshotError::Truncated,
                "current_t = {current_t}, store = {store}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "need one c_gap per order")]
    fn wrong_gap_count_rejected() {
        let _ = Server::new(params(), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "c_gap must be positive")]
    fn non_positive_gap_rejected() {
        let _ = Server::new(params(), &[1.0, 0.0, 1.0, 1.0]);
    }
}
