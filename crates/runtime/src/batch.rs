//! Columnar (struct-of-arrays) report batches — the hot-path wire
//! representation of the batched pipeline.
//!
//! The sequential engines frame every report into a fixed-width byte
//! message and decode it on the server side, one report at a time.
//! Workers in the batched pipeline append to reusable columnar buffers
//! instead — one `Vec` per field, no per-report framing — and fold them
//! straight into a shard accumulator
//! ([`rtf_core::accumulator::AnyAccumulator`]).
//!
//! Two batch shapes exist:
//!
//! * [`ReportBatch`] — the honest schedule: `{user, order, sign}` rows
//!   for one period, folded into the accumulator by the worker itself;
//! * [`FrameBatch`] — the fault-injected schedule: delivered frames as
//!   payload columns `{user, t, bit}` (what the checked ladder reads) with
//!   their *emission* provenance `(emitted period, emitting user)`, so
//!   shard batches can be merged into exactly the sequential engine's
//!   mailbox order before checked ingestion (acceptance under
//!   impersonation depends on frame order, so the merge must reproduce
//!   it bit-for-bit). Provenance and the Byzantine flag default to the
//!   payload (`emitted = t`, `emitter = user`, not Byzantine) and are
//!   stored per row only once some row differs, so an honest frame takes
//!   9 bytes.

use rtf_core::accumulator::Accumulator;
use rtf_core::snapshot::{SnapReader, SnapWriter, SnapshotError};
use rtf_primitives::sign::Sign;
use std::ops::Range;

/// The low `n` bits set (`n ≤ 64`).
#[inline]
fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// A bit-packed lane of `±1` signs: bit `i` of word `i / 64` is `1` for
/// `+1`. The protocol payload *is* one bit per report, so this is the
/// information-theoretically tight in-memory representation — 64 reports
/// per word, folded with masked popcounts instead of per-row byte adds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SignLane {
    words: Vec<u64>,
    len: usize,
}

impl SignLane {
    /// An empty lane.
    pub fn new() -> Self {
        SignLane::default()
    }

    /// An empty lane with capacity for `bits` signs reserved.
    pub fn with_capacity(bits: usize) -> Self {
        SignLane {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Number of signs in the lane.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the lane holds no signs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears the lane, keeping the word allocation for reuse.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Appends one sign.
    #[inline]
    pub fn push(&mut self, sign: Sign) {
        let off = self.len % 64;
        if off == 0 {
            self.words.push(0);
        }
        if sign == Sign::Plus {
            *self.words.last_mut().expect("word just ensured") |= 1u64 << off;
        }
        self.len += 1;
    }

    /// The sign at index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Sign {
        debug_assert!(i < self.len);
        if (self.words[i / 64] >> (i % 64)) & 1 == 1 {
            Sign::Plus
        } else {
            Sign::Minus
        }
    }

    /// Appends `count` signs given as the low bits of `bits`
    /// (bit `j` = sign `j`, `1` = `+1`).
    ///
    /// Public so word-at-a-time producers (the fast-seed span path in the
    /// engines) can append packed randomness without materialising `Sign`s.
    ///
    /// # Panics
    /// Panics (debug) if `count > 64`.
    #[inline]
    pub fn push_bits(&mut self, bits: u64, count: usize) {
        debug_assert!(count <= 64);
        if count == 0 {
            return;
        }
        let bits = bits & low_mask(count);
        let off = self.len % 64;
        if off == 0 {
            self.words.push(bits);
        } else {
            *self.words.last_mut().expect("non-empty at off > 0") |= bits << off;
            let spill = 64 - off;
            if count > spill {
                self.words.push(bits >> spill);
            }
        }
        self.len += count;
    }

    /// Appends `other[range]` to `self` — a word-at-a-time shifted copy,
    /// the bulk path [`ReportBatch::extend_packed`] rides on.
    pub fn extend_from_range(&mut self, other: &SignLane, range: Range<usize>) {
        assert!(range.start <= range.end && range.end <= other.len);
        let mut s = range.start;
        while s < range.end {
            let bi = s % 64;
            let take = (64 - bi).min(range.end - s);
            self.push_bits(other.words[s / 64] >> bi, take);
            s += take;
        }
    }

    /// Counts the `+1` signs in `self[range]` via masked popcounts —
    /// 64 reports per `count_ones`.
    pub fn count_plus(&self, range: Range<usize>) -> u64 {
        assert!(range.start <= range.end && range.end <= self.len);
        let mut total = 0u64;
        let mut s = range.start;
        while s < range.end {
            let bi = s % 64;
            let take = (64 - bi).min(range.end - s);
            let chunk = (self.words[s / 64] >> bi) & low_mask(take);
            total += u64::from(chunk.count_ones());
            s += take;
        }
        total
    }

    /// Counts the `+1` signs among the lanes selected by `mask` (bit `i`
    /// of `mask[i / 64]` selects sign `i`) — one masked popcount per
    /// word, the span-native scenario fold's inner loop. The mask must
    /// have exactly one word per lane word; bits past `len` are ignored
    /// because the lane keeps its tail bits zero.
    ///
    /// # Panics
    /// Panics if `mask` does not span the lane word-for-word.
    pub fn count_plus_masked(&self, mask: &[u64]) -> u64 {
        assert_eq!(
            mask.len(),
            self.words.len(),
            "mask must cover the lane word-for-word"
        );
        self.words
            .iter()
            .zip(mask)
            .map(|(&w, &m)| u64::from((w & m).count_ones()))
            .sum()
    }

    /// Iterates the signs in lane order.
    pub fn iter(&self) -> impl Iterator<Item = Sign> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

/// One period's reports for one shard of users, struct-of-arrays with a
/// bit-packed sign lane ([`SignLane`]): a fold consumes 64 reports per
/// word op instead of one per byte.
#[derive(Debug, Clone, Default)]
pub struct ReportBatch {
    users: Vec<u32>,
    orders: Vec<u8>,
    signs: SignLane,
}

impl ReportBatch {
    /// An empty batch.
    pub fn new() -> Self {
        ReportBatch::default()
    }

    /// An empty batch with row capacity reserved.
    pub fn with_capacity(rows: usize) -> Self {
        ReportBatch {
            users: Vec::with_capacity(rows),
            orders: Vec::with_capacity(rows),
            signs: SignLane::with_capacity(rows),
        }
    }

    /// Appends one report row.
    #[inline]
    pub fn push(&mut self, user: u32, order: u8, sign: Sign) {
        self.users.push(user);
        self.orders.push(order);
        self.signs.push(sign);
    }

    /// Bulk-appends one order group's span: `users` get order `order`
    /// and the signs `lane[range]` — two memcpys and a shifted word copy
    /// instead of `users.len()` per-row pushes.
    pub fn extend_packed(
        &mut self,
        users: &[u32],
        order: u8,
        lane: &SignLane,
        range: Range<usize>,
    ) {
        debug_assert_eq!(users.len(), range.end - range.start, "one sign per user");
        self.users.extend_from_slice(users);
        self.orders.resize(self.orders.len() + users.len(), order);
        self.signs.extend_from_range(lane, range);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Clears all rows, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.users.clear();
        self.orders.clear();
        self.signs.clear();
    }

    /// Iterates `(user, order, sign)` rows in append order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u8, Sign)> + '_ {
        self.users
            .iter()
            .zip(&self.orders)
            .enumerate()
            .map(|(i, (&u, &h))| (u, h, self.signs.get(i)))
    }

    /// Folds every row into a shard accumulator — the batched
    /// replacement for per-report `Server::ingest`.
    ///
    /// Rows are walked as **runs of equal order** (the batched pipelines
    /// append whole order groups contiguously, so a batch is a handful of
    /// runs); each run's `+1` count comes from masked popcounts over the
    /// packed sign lane — 64 reports per word op — and is recorded with
    /// one `record_counts`. Report sums are integer-valued, so the result
    /// is exactly the row-by-row
    /// [`fold_into_rows`](Self::fold_into_rows), asserted equivalent by
    /// unit + property tests.
    pub fn fold_into<A: Accumulator>(&self, acc: &mut A) {
        let n = self.len();
        let mut a = 0usize;
        while a < n {
            let h = self.orders[a];
            let mut b = a + 1;
            while b < n && self.orders[b] == h {
                b += 1;
            }
            let plus = self.signs.count_plus(a..b);
            acc.record_counts(u32::from(h), plus, (b - a) as u64 - plus);
            a = b;
        }
    }

    /// The pre-batching reference fold: one `record` call per row. Kept
    /// for the packed-vs-row comparison in `exp_backends` and as the
    /// equivalence oracle for [`fold_into`](Self::fold_into).
    pub fn fold_into_rows<A: Accumulator>(&self, acc: &mut A) {
        for (i, &h) in self.orders.iter().enumerate() {
            acc.record(u32::from(h), self.signs.get(i));
        }
    }

    /// Serializes the batch (one shared row count, then each column) —
    /// used by the ingestion service to persist open-period journals.
    /// The byte layout predates the packed sign lane and is kept
    /// unchanged (one `i8` per sign), so existing snapshots stay
    /// readable.
    pub fn write_state(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for &u in &self.users {
            w.u32(u);
        }
        for &h in &self.orders {
            w.u8(h);
        }
        for s in self.signs.iter() {
            w.i8(s.value());
        }
    }

    /// Rebuilds a batch from bytes written by
    /// [`write_state`](Self::write_state), rejecting sign bytes outside
    /// `{−1, +1}` (which would panic later in `Sign::from_i8`).
    ///
    /// # Errors
    /// A typed [`SnapshotError`] on truncation or an invalid sign.
    pub fn read_state(r: &mut SnapReader<'_>) -> Result<ReportBatch, SnapshotError> {
        let rows = r.len(6)?;
        let mut users = Vec::with_capacity(rows);
        for _ in 0..rows {
            users.push(r.u32()?);
        }
        let mut orders = Vec::with_capacity(rows);
        for _ in 0..rows {
            orders.push(r.u8()?);
        }
        let mut signs = SignLane::with_capacity(rows);
        for _ in 0..rows {
            let s = r.i8()?;
            if s != 1 && s != -1 {
                return Err(SnapshotError::Corrupt("report sign not ±1"));
            }
            signs.push(Sign::from_i8(s));
        }
        Ok(ReportBatch {
            users,
            orders,
            signs,
        })
    }
}

/// A provenance column: it repeats a per-row default (a payload column
/// or a constant) until the first row that differs, and only then holds
/// rows of its own. Whether it holds them is fixed for a batch's
/// lifetime once set, so the branch in [`get`](Self::get) is constant
/// per batch.
#[derive(Debug, Clone, Default)]
struct Provenance<T>(Option<Vec<T>>);

impl<T: Copy + PartialEq> Provenance<T> {
    /// The column built from every row's value, or none if each equals
    /// its default.
    fn from_rows(rows: Vec<T>, defaults: impl Iterator<Item = T>) -> Self {
        Provenance((!rows.iter().copied().eq(defaults)).then_some(rows))
    }

    /// Row `i`'s own value, or `None` while the column repeats its
    /// default (which the caller reads only then).
    #[inline]
    fn get(&self, i: usize) -> Option<T> {
        self.0.as_ref().map(|rows| rows[i])
    }

    /// The column's own rows, materialized from the defaults of the rows
    /// so far with room for `cap` rows. Out of line: it runs at most
    /// once per batch, and keeps [`push`](Self::push) small enough to
    /// inline into a producer's loop.
    #[cold]
    #[inline(never)]
    fn materialize(&mut self, cap: usize, defaults: impl Iterator<Item = T>) -> &mut Vec<T> {
        self.0.get_or_insert_with(|| {
            let mut rows = Vec::with_capacity(cap);
            rows.extend(defaults);
            rows
        })
    }

    /// Appends one row whose default is `default`; `defaults` yields the
    /// defaults of the rows before it and is read only if this is the
    /// first differing row.
    #[inline]
    fn push(&mut self, value: T, default: T, cap: usize, defaults: impl Iterator<Item = T>) {
        match &mut self.0 {
            Some(rows) => rows.push(value),
            None if value == default => {}
            None => self.materialize(cap, defaults).push(value),
        }
    }

    /// Appends `other`'s rows; `mine` and `theirs` yield the row defaults
    /// of either side.
    fn append(
        &mut self,
        other: &Self,
        cap: usize,
        mine: impl Iterator<Item = T>,
        theirs: impl Iterator<Item = T>,
    ) {
        match (&mut self.0, &other.0) {
            (None, None) => {}
            (Some(rows), None) => rows.extend(theirs),
            (_, Some(their_rows)) => self.materialize(cap, mine).extend_from_slice(their_rows),
        }
    }

    /// Heap bytes of the column's own rows, counted by capacity.
    fn heap_bytes(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |rows| rows.capacity() * std::mem::size_of::<T>())
    }
}

/// Delivered frames for one period, struct-of-arrays.
///
/// Every row stores its **payload** — the claimed sender, the claimed
/// reporting period and the report bit, all the checked ladder reads —
/// in three columns. The emission **provenance** `(emitted period,
/// emitting client)`, which orders shard batches into the sequential
/// engine's mailbox, and the Byzantine flag default to what an honest
/// frame carries: `emitted = t`, `emitter = user`, `byzantine = false`.
/// Each becomes a column of its own, sized to the batch, only when the
/// first row that differs is pushed or appended. So honest traffic (on
/// time, delayed or retransmitted) takes 9 bytes a frame, and a batch
/// with fabrications at most 18.
#[derive(Debug, Clone)]
pub struct FrameBatch {
    /// The frame's claimed sender.
    users: Vec<u32>,
    /// The frame's claimed reporting period.
    periods: Vec<u32>,
    /// The frame's report bit (`true` = +1).
    bits: Vec<bool>,
    /// Emission period of each frame (the mailbox's primary sort key);
    /// defaults to the claimed period.
    emitted: Provenance<u32>,
    /// The client that put the frame on the wire (secondary sort key —
    /// *not* necessarily the user id inside the frame: Byzantine clients
    /// impersonate); defaults to the claimed sender.
    emitter: Provenance<u32>,
    /// Whether the emitting client is Byzantine (accounting only);
    /// defaults to `false`.
    byzantine: Provenance<bool>,
    /// Whether rows are known ascending by `(emitted, emitter)` —
    /// maintained on every mutation, so mailbox order is checked in O(1)
    /// (the ingestion service's submit contract, the run precondition of
    /// [`merge_sorted`](Self::merge_sorted)).
    sorted: bool,
}

impl Default for FrameBatch {
    fn default() -> Self {
        FrameBatch {
            users: Vec::new(),
            periods: Vec::new(),
            bits: Vec::new(),
            emitted: Provenance::default(),
            emitter: Provenance::default(),
            byzantine: Provenance::default(),
            // An empty batch is vacuously in mailbox order.
            sorted: true,
        }
    }
}

/// One delivered frame, as yielded by [`FrameBatch::iter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Emission period.
    pub emitted: u32,
    /// Emitting client.
    pub emitter: u32,
    /// Claimed sender id in the frame payload.
    pub user: u32,
    /// Claimed reporting period in the frame payload.
    pub t: u32,
    /// Report bit (`true` = +1).
    pub bit: bool,
    /// Whether the emitter is Byzantine.
    pub byzantine: bool,
}

impl FrameBatch {
    /// An empty batch.
    pub fn new() -> Self {
        FrameBatch::default()
    }

    /// Appends one frame row.
    #[inline]
    pub fn push(&mut self, frame: Frame) {
        let row = self.len();
        if self.sorted && row > 0 && (frame.emitted, frame.emitter) < self.key(row - 1) {
            self.sorted = false;
        }
        self.users.push(frame.user);
        self.periods.push(frame.t);
        self.bits.push(frame.bit);
        let cap = self.users.capacity();
        let (users, periods) = (&self.users[..row], &self.periods[..row]);
        self.emitted
            .push(frame.emitted, frame.t, cap, periods.iter().copied());
        self.emitter
            .push(frame.emitter, frame.user, cap, users.iter().copied());
        self.byzantine.push(
            frame.byzantine,
            false,
            cap,
            std::iter::repeat(false).take(row),
        );
    }

    /// The frame at row `i` (column reads, no intermediate storage).
    #[inline]
    pub fn frame(&self, i: usize) -> Frame {
        let (user, t) = (self.users[i], self.periods[i]);
        Frame {
            emitted: self.emitted.get(i).unwrap_or(t),
            emitter: self.emitter.get(i).unwrap_or(user),
            user,
            t,
            bit: self.bits[i],
            byzantine: self.byzantine.get(i).unwrap_or(false),
        }
    }

    /// Row `i`'s mailbox key `(emitted, emitter)`.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> (u32, u32) {
        (
            self.emitted.get(i).unwrap_or_else(|| self.periods[i]),
            self.emitter.get(i).unwrap_or_else(|| self.users[i]),
        )
    }

    /// Each row's payload `(user, t, bit)` in row order — the claimed
    /// sender, the claimed period and the report bit, which is all the
    /// checked ladder reads.
    pub fn payload(&self) -> impl ExactSizeIterator<Item = (u32, u32, bool)> + '_ {
        self.users
            .iter()
            .zip(&self.periods)
            .zip(&self.bits)
            .map(|((&user, &t), &bit)| (user, t, bit))
    }

    /// Each row's claimed sender, in row order.
    pub(crate) fn users(&self) -> &[u32] {
        &self.users
    }

    /// Whether rows are known ascending by `(emitted, emitter)`: mailbox
    /// order, the precondition of [`merge_sorted`](Self::merge_sorted).
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the batch holds no frames.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Heap bytes held by the batch, counted by capacity: 9 a row for the
    /// payload, plus 4, 4 and 1 a row for each provenance column some row
    /// made the batch hold.
    pub fn heap_bytes(&self) -> usize {
        self.users.capacity() * std::mem::size_of::<u32>()
            + self.periods.capacity() * std::mem::size_of::<u32>()
            + self.bits.capacity() * std::mem::size_of::<bool>()
            + self.emitted.heap_bytes()
            + self.emitter.heap_bytes()
            + self.byzantine.heap_bytes()
    }

    /// Appends every frame of `other`, preserving row order — how an
    /// ingestion worker accumulates the batches streamed into its mailbox
    /// over one period.
    pub fn append(&mut self, other: &FrameBatch) {
        if other.is_empty() {
            return;
        }
        let rows = self.len();
        if self.sorted {
            self.sorted = other.sorted && (rows == 0 || self.key(rows - 1) <= other.key(0));
        }
        self.users.extend_from_slice(&other.users);
        self.periods.extend_from_slice(&other.periods);
        self.bits.extend_from_slice(&other.bits);
        let cap = self.users.capacity();
        let (users, periods) = (&self.users[..rows], &self.periods[..rows]);
        self.emitted.append(
            &other.emitted,
            cap,
            periods.iter().copied(),
            other.periods.iter().copied(),
        );
        self.emitter.append(
            &other.emitter,
            cap,
            users.iter().copied(),
            other.users.iter().copied(),
        );
        self.byzantine.append(
            &other.byzantine,
            cap,
            std::iter::repeat(false).take(rows),
            std::iter::repeat(false).take(other.len()),
        );
    }

    /// Iterates frames in row order.
    pub fn iter(&self) -> impl Iterator<Item = Frame> + '_ {
        (0..self.len()).map(move |i| self.frame(i))
    }

    /// A k-way merge of batches that are each in mailbox order, yielding
    /// their frames in ascending `(emitted, emitter)` without building a
    /// merged batch: each step is one linear-min scan of the run heads
    /// and a direct column read. Equal keys (never produced by the
    /// engines) go to the earlier run.
    ///
    /// # Panics
    /// Panics if a run is not in mailbox order — the merge is only
    /// correct on sorted runs.
    pub fn merge_sorted<'a, I>(runs: I) -> MailboxMerge<'a>
    where
        I: IntoIterator<Item = &'a FrameBatch>,
    {
        let runs: Vec<&FrameBatch> = runs
            .into_iter()
            .inspect(|run| assert!(run.sorted, "a merged run must be in mailbox order"))
            .collect();
        let heads = (0..runs.len())
            .filter(|&r| !runs[r].is_empty())
            .map(|r| (r, 0))
            .collect();
        MailboxMerge { runs, heads }
    }

    /// Serializes the batch (one shared row count, then each of the six
    /// columns in full, provenance included, whether or not the batch
    /// holds it) — used by the ingestion service to persist open-period
    /// journals.
    pub fn write_state(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (i, &t) in self.periods.iter().enumerate() {
            w.u32(self.emitted.get(i).unwrap_or(t));
        }
        for (i, &u) in self.users.iter().enumerate() {
            w.u32(self.emitter.get(i).unwrap_or(u));
        }
        for &u in &self.users {
            w.u32(u);
        }
        for &t in &self.periods {
            w.u32(t);
        }
        for &b in &self.bits {
            w.bool(b);
        }
        for i in 0..self.len() {
            w.bool(self.byzantine.get(i).unwrap_or(false));
        }
    }

    /// Rebuilds a batch from bytes written by
    /// [`write_state`](Self::write_state), keeping a provenance column
    /// only if some row differs from its default.
    ///
    /// # Errors
    /// A typed [`SnapshotError`] on truncation or a malformed boolean
    /// column.
    pub fn read_state(r: &mut SnapReader<'_>) -> Result<FrameBatch, SnapshotError> {
        let rows = r.len(18)?;
        let read_u32s = |r: &mut SnapReader<'_>| -> Result<Vec<u32>, SnapshotError> {
            let mut col = Vec::with_capacity(rows);
            for _ in 0..rows {
                col.push(r.u32()?);
            }
            Ok(col)
        };
        let emitted = read_u32s(r)?;
        let emitter = read_u32s(r)?;
        let users = read_u32s(r)?;
        let periods = read_u32s(r)?;
        let read_bools = |r: &mut SnapReader<'_>| -> Result<Vec<bool>, SnapshotError> {
            let mut col = Vec::with_capacity(rows);
            for _ in 0..rows {
                col.push(r.bool()?);
            }
            Ok(col)
        };
        let bits = read_bools(r)?;
        let byzantine = read_bools(r)?;
        // The byte layout predates the sorted flag; recompute it so
        // restored journals still take the zero-copy merge fast path.
        let sorted =
            (1..rows).all(|i| (emitted[i - 1], emitter[i - 1]) <= (emitted[i], emitter[i]));
        Ok(FrameBatch {
            emitted: Provenance::from_rows(emitted, periods.iter().copied()),
            emitter: Provenance::from_rows(emitter, users.iter().copied()),
            byzantine: Provenance::from_rows(byzantine, std::iter::repeat(false).take(rows)),
            users,
            periods,
            bits,
            sorted,
        })
    }
}

/// The k-way mailbox merge of [`FrameBatch::merge_sorted`]: yields the
/// frames of its runs in ascending `(emitted, emitter)`.
#[derive(Debug)]
pub struct MailboxMerge<'a> {
    /// Every run, in the caller's order.
    runs: Vec<&'a FrameBatch>,
    /// The runs with frames left, in the caller's order: run index and
    /// head row.
    heads: Vec<(usize, usize)>,
}

impl MailboxMerge<'_> {
    /// Advances the merge and returns where its next frame sits: the
    /// run's index in the sequence given to
    /// [`FrameBatch::merge_sorted`], and the row within that run — so a
    /// caller can carry per-row data of each run along.
    pub fn next_row(&mut self) -> Option<(usize, usize)> {
        let mut best: Option<(usize, (u32, u32))> = None;
        for (h, &(r, i)) in self.heads.iter().enumerate() {
            let key = self.runs[r].key(i);
            let better = match best {
                Some((_, k)) => key < k,
                None => true,
            };
            if better {
                best = Some((h, key));
            }
        }
        let (h, _) = best?;
        let (r, i) = &mut self.heads[h];
        let at = (*r, *i);
        *i += 1;
        if *i == self.runs[*r].len() {
            // `remove`, not `swap_remove`: the run order breaks ties.
            self.heads.remove(h);
        }
        Some(at)
    }
}

impl Iterator for MailboxMerge<'_> {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        let (r, i) = self.next_row()?;
        Some(self.runs[r].frame(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_core::accumulator::DenseAccumulator;

    #[test]
    fn report_batch_folds_like_direct_ingestion() {
        let mut batch = ReportBatch::with_capacity(4);
        batch.push(0, 0, Sign::Plus);
        batch.push(1, 2, Sign::Minus);
        batch.push(2, 2, Sign::Minus);
        batch.push(3, 1, Sign::Plus);
        assert_eq!(batch.len(), 4);

        let mut from_batch = DenseAccumulator::new(3);
        batch.fold_into(&mut from_batch);

        let mut direct = DenseAccumulator::new(3);
        for (_, h, s) in batch.iter() {
            direct.record(u32::from(h), s);
        }
        assert_eq!(from_batch, direct);
        assert_eq!(from_batch.reports(), 4);
        assert_eq!(from_batch.sums(), &[1.0, 1.0, -2.0]);

        batch.clear();
        assert!(batch.is_empty());
    }

    #[test]
    fn preaggregated_fold_equals_row_by_row_on_every_backend() {
        // The run-wise fold is observation-for-observation identical to
        // the row-by-row reference, including a batch that touches one
        // order many times and another not at all.
        let mut batch = ReportBatch::new();
        for i in 0..200u32 {
            let h = [0u8, 0, 3, 5][i as usize % 4];
            let s = if i % 3 == 0 { Sign::Minus } else { Sign::Plus };
            batch.push(i, h, s);
        }
        let mut fast = DenseAccumulator::new(6);
        let mut slow = DenseAccumulator::new(6);
        batch.fold_into(&mut fast);
        batch.fold_into_rows(&mut slow);
        assert_eq!(fast, slow);
        assert_eq!(fast.reports(), 200);
        // Empty batches fold to nothing.
        let empty = ReportBatch::new();
        let mut acc = DenseAccumulator::new(4);
        empty.fold_into(&mut acc);
        assert!(acc.is_empty());
    }

    #[test]
    fn masked_count_matches_per_index_filter() {
        // 150 lanes across three words, an irregular mask: the masked
        // popcount must equal filtering get() by the mask bit by bit.
        let mut lane = SignLane::new();
        for i in 0..150usize {
            lane.push(if i % 3 == 0 { Sign::Plus } else { Sign::Minus });
        }
        let mask: Vec<u64> = vec![0xDEAD_BEEF_0F0F_3355, u64::MAX, low_mask(150 % 64)];
        let expect: u64 = (0..150)
            .filter(|&i| (mask[i / 64] >> (i % 64)) & 1 == 1 && lane.get(i) == Sign::Plus)
            .count() as u64;
        assert_eq!(lane.count_plus_masked(&mask), expect);
        // Full mask degenerates to count_plus; empty lane takes an empty mask.
        assert_eq!(
            lane.count_plus_masked(&[u64::MAX, u64::MAX, u64::MAX]),
            lane.count_plus(0..150)
        );
        assert_eq!(SignLane::new().count_plus_masked(&[]), 0);
    }

    #[test]
    fn frame_batch_append_preserves_row_order() {
        let mut a = FrameBatch::new();
        a.push(frame(1, 0));
        a.push(frame(1, 2));
        let mut b = FrameBatch::new();
        b.push(frame(2, 1));
        a.append(&b);
        let keys: Vec<(u32, u32)> = a.iter().map(|f| (f.emitted, f.emitter)).collect();
        assert_eq!(keys, vec![(1, 0), (1, 2), (2, 1)]);
        assert_eq!(b.len(), 1, "append borrows, never drains");
    }

    #[test]
    fn report_batch_folds_identically_into_every_backend() {
        let mut batch = ReportBatch::new();
        batch.push(0, 0, Sign::Plus);
        batch.push(1, 1, Sign::Minus);
        batch.push(2, 1, Sign::Minus);
        batch.push(3, 2, Sign::Plus);
        let mut acc = DenseAccumulator::new(3);
        batch.fold_into(&mut acc);
        assert_eq!(acc.sums(), &[1.0, -2.0, 1.0]);
        assert_eq!(acc.reports(), 4);
    }

    fn frame(emitted: u32, emitter: u32) -> Frame {
        Frame {
            emitted,
            emitter,
            user: emitter,
            t: emitted,
            bit: emitter % 2 == 0,
            byzantine: false,
        }
    }

    #[test]
    fn sorted_flag_tracks_mailbox_order() {
        let mut b = FrameBatch::new();
        assert!(b.is_sorted(), "empty is vacuously sorted");
        b.push(frame(1, 3));
        b.push(frame(1, 5));
        b.push(frame(2, 0));
        assert!(b.is_sorted());
        b.push(frame(1, 9)); // earlier emission period: order lost
        assert!(!b.is_sorted());

        // Append: sorted ⊕ sorted with an ascending boundary stays
        // sorted; a descending boundary or an unsorted operand does not.
        let mut lo = FrameBatch::new();
        lo.push(frame(1, 0));
        let mut hi = FrameBatch::new();
        hi.push(frame(2, 0));
        let mut ab = lo.clone();
        ab.append(&hi);
        assert!(ab.is_sorted());
        let mut ba = hi.clone();
        ba.append(&lo);
        assert!(!ba.is_sorted());
    }

    #[test]
    fn merge_sorted_walks_runs_and_refuses_unsorted_ones() {
        let mut a = FrameBatch::new();
        a.push(frame(1, 2));
        a.push(frame(3, 0));
        let mut b = FrameBatch::new();
        b.push(frame(1, 5));
        b.push(frame(2, 1));
        let keys: Vec<(u32, u32)> = FrameBatch::merge_sorted([&a, &FrameBatch::new(), &b])
            .map(|f| (f.emitted, f.emitter))
            .collect();
        assert_eq!(keys, vec![(1, 2), (1, 5), (2, 1), (3, 0)]);
        let empty = FrameBatch::new();
        let mut merge = FrameBatch::merge_sorted([&a, &empty, &b]);
        let rows: Vec<(usize, usize)> = std::iter::from_fn(|| merge.next_row()).collect();
        assert_eq!(rows, vec![(0, 0), (2, 0), (2, 1), (0, 1)], "run index, row");

        let mut scrambled = b.clone();
        scrambled.push(frame(1, 0));
        let refused = std::panic::catch_unwind(|| FrameBatch::merge_sorted([&scrambled]).count());
        assert!(refused.is_err(), "an unsorted run must not be merged");
    }

    #[test]
    fn batches_roundtrip_through_snapshot_state() {
        use rtf_core::snapshot::{SnapReader, SnapWriter};
        let mut rb = ReportBatch::new();
        rb.push(7, 0, Sign::Plus);
        rb.push(8, 3, Sign::Minus);
        let mut fb = FrameBatch::new();
        fb.push(frame(1, 4));
        fb.push(frame(2, 9));
        let mut w = SnapWriter::new();
        rb.write_state(&mut w);
        fb.write_state(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let rb2 = ReportBatch::read_state(&mut r).unwrap();
        let fb2 = FrameBatch::read_state(&mut r).unwrap();
        r.finish().unwrap();
        let rows: Vec<_> = rb.iter().collect();
        let rows2: Vec<_> = rb2.iter().collect();
        assert_eq!(rows, rows2);
        let frames: Vec<Frame> = fb.iter().collect();
        let frames2: Vec<Frame> = fb2.iter().collect();
        assert_eq!(frames, frames2);
    }

    #[test]
    fn report_batch_rejects_non_sign_bytes() {
        use rtf_core::snapshot::{SnapReader, SnapWriter, SnapshotError};
        let mut w = SnapWriter::new();
        w.usize(1);
        w.u32(0); // user
        w.u8(0); // order
        w.i8(3); // not a ±1 sign
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        assert_eq!(
            ReportBatch::read_state(&mut r).unwrap_err(),
            SnapshotError::Corrupt("report sign not ±1")
        );
    }
}
