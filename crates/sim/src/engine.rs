//! The event-driven round loop — the honest deployment schedule.
//!
//! At every period `t`:
//!
//! 1. each client observes its own new derivative value `X_u[t]` (clients
//!    see *only* their own data, one period at a time — the online
//!    constraint);
//! 2. clients whose order divides `t` emit their report; the server
//!    ingests it and closes the period, publishing `â[t]`.
//!
//! Two execution modes run this schedule ([`ExecMode`]):
//!
//! * **Sequential** — the reference implementation: the reference client
//!   schedule ([`Clients`]) steps every client every period, and every
//!   report is *serialised into bytes* ([`ReportMsg`]), queued in the
//!   server's mailbox, decoded and ingested, so the accounting reflects
//!   real framing. `O(n·d)`; this is the oracle.
//! * **Parallel(w)** — the batched pipeline: users are partitioned into
//!   `w` contiguous shards, each worker runs its shard's client state
//!   machines locally, appending reports to columnar
//!   [`ReportBatch`](rtf_runtime::ReportBatch)es (no per-report
//!   allocation) folded into a
//!   mergeable shard accumulator per period; the server absorbs shard
//!   accumulators in shard-index order. Because per-user randomness
//!   derives from `SeedSequence(seed).child(user)` and report sums are
//!   integer-valued, the result is **value-for-value identical** to
//!   Sequential for every worker count (asserted by the differential
//!   oracle in `rtf-scenarios`).
//!
//! [`sequential`] and [`batched`] are the two bodies. Both check their
//! inputs (the settings, and the population's shape and k-sparsity), so
//! no caller can run a population the params do not describe; this is
//! `O(n·k)`, negligible beside a run.

use crate::message::{OrderAnnouncement, ReportMsg, WireStats};
use crate::outcome::Outcome;
use rtf_core::accumulator::{Accumulator, AccumulatorKind, AnyAccumulator};
use rtf_core::client::{Client, Clients};
use rtf_core::composed::ComposedRandomizer;
use rtf_core::params::ProtocolParams;
use rtf_core::protocol::{check_population, keyed_future_rand};
use rtf_core::randomizer::{FutureRand, SpanRandomizers};
use rtf_core::server::{check_settings, Server};
use rtf_primitives::fastseed::{self, SeedSchema};
use rtf_primitives::seeding::SeedSequence;
use rtf_primitives::sign::Sign;
use rtf_runtime::{ExecMode, SignLane, WorkerPool};
use rtf_streams::population::Population;

/// The pinned benchmark signature of the event engine: runs
/// [`sequential`] or [`batched`]. Kept for
/// `examples/benchmark/src/adapter.rs` until the benchmark moves onto
/// `rtf_scenarios::run`; the layout and schema have one value each.
pub fn run_event_driven_schema(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    mode: ExecMode,
    _backend: AccumulatorKind,
    _schema: SeedSchema,
) -> Outcome {
    match mode {
        ExecMode::Sequential => sequential(params, population, seed),
        ExecMode::Parallel(w) => batched(params, population, seed, w.max(1)),
    }
}

/// One order group's client state in the batched/streaming pipelines,
/// struct-of-arrays: parallel lanes of user ids, a precomputed
/// span-event schedule, and one shared [`SpanRandomizers`] arena.
///
/// Construction ([`build_order_groups`]) draws every lane's `b̃` straight
/// into the arena — no per-client `FutureRand` or heap vector. A span
/// emission ([`emit_span`](Self::emit_span)) is one randomizer pass
/// over the span's sparse event list, filling the packed [`SignLane`]
/// word by word — bit-identical to stepping each lane's [`Client`] with
/// `observe` at every period of the span.
///
/// Public because the span-native scenario engine
/// (`rtf_scenarios::engine`) drives the same groups through its fault
/// layer — client construction and span emission must live in exactly
/// one place for the engines' bit-identity proofs to mean anything.
pub struct SpanGroup {
    /// User ids in lane order.
    pub users: Vec<u32>,
    /// This group's report signs for the current span, bit-packed —
    /// valid after [`emit_span`](Self::emit_span), consumed via
    /// `ReportBatch::extend_packed` or masked span folds.
    pub signs: SignLane,
    /// The group's non-zero span sums, precomputed at build: entry
    /// `span_events[t / stride − 1]` lists `(lane, ±1)`, lanes
    /// ascending, for exactly the lanes whose partial sum over the span
    /// ending at `t` is non-zero. The population is static, so walking
    /// each user's change times **once** here replaces summing each
    /// lane's derivative over every span — the former hottest load in
    /// the repo: a million scattered change arrays chased per period,
    /// for sums that are ~90% zero.
    span_events: Vec<Vec<(u32, Sign)>>,
    spans: SpanRandomizers,
    /// The group's reporting stride `2^h`.
    stride: u64,
}

impl SpanGroup {
    /// Number of clients in the group.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the group holds no clients.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Emits the whole group's reports for the span ending at period `t`
    /// into [`signs`](Self::signs): every lane's counter-stream bit, 64
    /// lanes per word, with this span's precomputed events overwritten
    /// by their `b̃` bits — exactly the bits each lane's [`Client`] would
    /// report at `t` when stepped with `observe` at every period.
    ///
    /// # Panics
    /// Panics unless `t` is the group's next span boundary — a
    /// non-empty group must emit at **every** boundary, in order, or the
    /// shared randomizer arena falls out of lockstep with the clients
    /// (and another span's events would be emitted).
    pub fn emit_span(&mut self, t: u64) {
        let span = self.spans.position();
        assert_eq!(
            t,
            (span as u64 + 1) * self.stride,
            "span boundary out of lockstep"
        );
        self.signs.clear();
        let SpanGroup {
            signs,
            spans,
            span_events,
            ..
        } = self;
        let events = span_events.get(span).map_or(&[][..], Vec::as_slice);
        spans.fill_span_events(events, |bits, count| signs.push_bits(bits, count));
    }
}

/// Builds one user range's clients grouped by announced order — at
/// period `t` only orders dividing `t` report, so the round loop walks
/// exactly the reporting clients: `O(reports + changes)` per shard
/// instead of `O(users · periods)`.
///
/// This is the **one** client-construction path of the batched engine,
/// the event engine's live driver (behind `rtf_scenarios::run`), and the
/// span-native scenario engine (`rtf_scenarios::engine`); the per-report reference
/// paths build the same clients through [`Clients`]. Both must consume
/// per-user RNG identically for the batched ≡ streaming ≡ sequential
/// proofs to hold: each client's order and `b̃` come from its seed
/// node's rng, in the order `FutureRand::init_keyed` draws them, with
/// `b̃` written straight into its group's lane arena
/// ([`SpanRandomizers::draw_lane`]). The seed schema has one value; the
/// parameter stays for callers that name it.
pub fn build_order_groups(
    params: &ProtocolParams,
    population: &Population,
    composed: &[ComposedRandomizer],
    root: &SeedSequence,
    users: std::ops::Range<usize>,
    _schema: SeedSchema,
) -> Vec<SpanGroup> {
    let orders = params.num_orders() as usize;
    let d = params.d();
    let mut groups: Vec<SpanGroup> = (0..orders)
        .map(|h| SpanGroup {
            users: Vec::new(),
            signs: SignLane::new(),
            span_events: vec![Vec::new(); params.sequence_len(h as u32)],
            spans: SpanRandomizers::new(params.sequence_len(h as u32), &composed[h]),
            stride: 1u64 << h,
        })
        .collect();
    for u in users {
        let node = root.child(u as u64);
        let mut rng = node.rng();
        let h = Client::<FutureRand>::sample_order(params, &mut rng) as usize;
        let group = &mut groups[h];
        let lane = group.users.len() as u32;
        group.users.push(u as u32);
        group
            .spans
            .draw_lane(&composed[h], &mut rng, fastseed::client_key(&node));
        // One pass over the user's (sorted) change times builds the
        // lane's non-zero span sums: a span's sum is the parity flip of
        // the change count across it (`st(end) − st(start − 1)`, each
        // the parity of its prefix) — exactly the running sum a `Client`
        // stepped with `observe` at every period holds at each boundary,
        // computed once instead of once per period. Users are walked in
        // ascending order, so every span's event list is lane-ascending.
        let stride = group.stride;
        let stream = population.stream(u);
        let changes = stream.change_times();
        let mut i = 0usize;
        let mut parity_before = false;
        while i < changes.len() && changes[i] <= d {
            let span_end = changes[i].div_ceil(stride) * stride;
            let mut count = 0u64;
            while i < changes.len() && changes[i] <= span_end {
                i += 1;
                count += 1;
            }
            let parity_after = parity_before ^ (count % 2 == 1);
            let v = match (parity_before, parity_after) {
                (false, true) => Some(Sign::Plus),
                (true, false) => Some(Sign::Minus),
                _ => None,
            };
            if let Some(v) = v {
                group.span_events[(span_end / stride - 1) as usize].push((lane, v));
            }
            parity_before = parity_after;
        }
    }
    groups
}

/// The event engine's single-threaded reference schedule with real
/// (serialised) framing.
///
/// # Panics
/// Panics if a setting names a removed value or the population does not
/// match `params` ([`check_population`]).
pub fn sequential(params: &ProtocolParams, population: &Population, seed: u64) -> Outcome {
    check_settings();
    check_population(params, population);
    let mut server = Server::for_future_rand(*params);
    let mut wire = WireStats::default();
    let mut clients = Clients::new(params, population, seed, keyed_future_rand(params));

    // Send order announcements through the wire.
    for u in 0..clients.len() {
        let ann = OrderAnnouncement {
            user: u as u32,
            order: clients.order(u) as u8,
        };
        let decoded = OrderAnnouncement::decode(&ann.encode());
        server.register_user(u32::from(decoded.order));
        wire.record_announcement();
    }

    // Round loop with a real (serialised) mailbox per period.
    let mut estimates = Vec::with_capacity(params.d() as usize);
    let mut mailbox: Vec<[u8; ReportMsg::WIRE_BYTES]> = Vec::new();
    for t in 1..=params.d() {
        mailbox.clear();
        clients.step(t, |u, _, report| {
            if let Some(report) = report {
                let msg = ReportMsg {
                    user: u as u32,
                    t: t as u32,
                    bit: report.bit == Sign::Plus,
                };
                mailbox.push(msg.encode());
            }
        });
        // Server drains the mailbox: decode, attribute to the sender's
        // order, ingest.
        for raw in &mailbox {
            let msg = ReportMsg::decode(raw);
            let h = clients.order(msg.user as usize);
            let bit = if msg.bit { Sign::Plus } else { Sign::Minus };
            server.ingest(h, bit);
            wire.record_report();
        }
        estimates.push(server.end_of_period(t));
    }

    let acc_bytes = server.accumulator().heap_bytes() as u64;
    Outcome {
        estimates,
        group_sizes: server.group_sizes().to_vec(),
        wire,
        acc_bytes,
        ..Outcome::default()
    }
}

/// One worker's whole-horizon contribution: a mergeable accumulator per
/// period, plus the shard's share of the registration/wire accounting.
struct ShardRun {
    /// `per_period[t-1]` holds the shard's report sums for period `t`.
    per_period: Vec<AnyAccumulator>,
    group_sizes: Vec<usize>,
    wire: WireStats,
    /// Heap bytes of this shard's per-period accumulators after the
    /// horizon completed.
    acc_bytes: u64,
}

/// The event engine's batched multi-worker pipeline on `workers` (≥ 1)
/// workers: contiguous user shards, columnar report batches, shard
/// accumulators merged in shard-index order.
///
/// # Panics
/// Panics if a setting names a removed value or the population does not
/// match `params` ([`check_population`]).
pub fn batched(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    workers: usize,
) -> Outcome {
    check_settings();
    check_population(params, population);
    let composed = ComposedRandomizer::per_order(params);
    let root = SeedSequence::new(seed);
    let d = params.d();
    let orders = params.num_orders() as usize;
    let pool = WorkerPool::new(workers);

    let shards: Vec<ShardRun> = pool.map_shards(params.n(), |shard| {
        let mut wire = WireStats::default();
        for _ in shard.range() {
            wire.record_announcement();
        }
        let mut groups = build_order_groups(
            params,
            population,
            &composed,
            &root,
            shard.range(),
            SeedSchema::V2Fast,
        );
        let group_sizes: Vec<usize> = groups.iter().map(SpanGroup::len).collect();

        let mut per_period: Vec<AnyAccumulator> =
            (0..d).map(|_| AnyAccumulator::new(orders)).collect();
        for t in 1..=d {
            let acc = &mut per_period[(t - 1) as usize];
            let max_h = t.trailing_zeros().min(params.log_d());
            let mut rows = 0u64;
            for h in 0..=max_h {
                let group = &mut groups[h as usize];
                if group.is_empty() {
                    continue;
                }
                // The whole order-h interval ending at t, one columnar
                // pass: partial sums off the span-event schedule, one
                // randomizer sweep, then a masked-popcount fold of the
                // packed span
                // straight into the accumulator. A group span is one
                // constant-order run by construction, so there is no
                // batch to materialise and re-scan: the per-order totals
                // are exactly what `ReportBatch::fold_into` would hand
                // over (one `record_counts` per order, ascending), so the
                // sums are identical.
                group.emit_span(t);
                let len = group.len() as u64;
                let plus = group.signs.count_plus(0..group.len());
                acc.record_counts(h, plus, len - plus);
                rows += len;
            }
            wire.record_report_batch(rows);
        }

        let acc_bytes: u64 = per_period.iter().map(|a| a.heap_bytes() as u64).sum();
        ShardRun {
            per_period,
            group_sizes,
            wire,
            acc_bytes,
        }
    });

    // Deterministic merge: shard-index order, exactly the order
    // `map_shards` returned.
    let mut server = Server::for_future_rand(*params);
    let mut wire = WireStats::default();
    let mut acc_bytes = 0u64;
    for shard in &shards {
        for (h, &count) in shard.group_sizes.iter().enumerate() {
            for _ in 0..count {
                server.register_user(h as u32);
            }
        }
        wire.merge(&shard.wire);
        acc_bytes += shard.acc_bytes;
    }
    let mut estimates = Vec::with_capacity(d as usize);
    for t in 1..=d {
        for shard in &shards {
            server
                .absorb_shard(&shard.per_period[(t - 1) as usize])
                .expect("shard accumulators share the server's shape");
        }
        estimates.push(server.end_of_period(t));
    }

    Outcome {
        estimates,
        group_sizes: server.group_sizes().to_vec(),
        wire,
        acc_bytes,
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_streams::generator::UniformChanges;

    fn setup(n: usize, d: u64, k: usize, seed: u64) -> (ProtocolParams, Population) {
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        (params, pop)
    }

    /// The body `RTF_WORKERS` selects ([`ExecMode::from_env`]).
    fn env_mode(params: &ProtocolParams, pop: &Population, seed: u64) -> Outcome {
        match ExecMode::from_env() {
            ExecMode::Sequential => sequential(params, pop, seed),
            ExecMode::Parallel(w) => batched(params, pop, seed, w),
        }
    }

    #[test]
    fn matches_in_memory_fast_path_exactly() {
        // Same seed ⇒ identical estimates: both paths draw each user's
        // order and b̃ from the same RNG stream and key the same counter
        // stream. This pins down that the in-memory path in rtf-core
        // really is the same protocol.
        let (params, pop) = setup(150, 32, 3, 40);
        let ev = env_mode(&params, &pop, 99);
        let mem = rtf_core::protocol::run_in_memory(&params, &pop, 99);
        assert_eq!(ev.estimates, mem.estimates());
        assert_eq!(ev.group_sizes, mem.group_sizes());
    }

    #[test]
    fn batched_pipeline_is_worker_count_invariant() {
        // The tentpole determinism claim at unit scale: sequential and
        // parallel(w) agree value-for-value for every w, including more
        // workers than convenient shard sizes.
        let (params, pop) = setup(157, 32, 3, 44);
        let seq = sequential(&params, &pop, 21);
        for w in [1usize, 2, 3, 8] {
            batched(&params, &pop, 21, w).assert_values_eq(&seq, &format!("{w} workers"));
        }
    }

    #[test]
    fn wire_accounting_matches_group_structure() {
        let (params, pop) = setup(100, 16, 2, 41);
        let ev = env_mode(&params, &pop, 7);
        let expected_reports: u64 = ev
            .group_sizes
            .iter()
            .enumerate()
            .map(|(h, &sz)| sz as u64 * (16u64 >> h))
            .sum();
        assert_eq!(ev.wire.payload_bits, expected_reports);
        assert_eq!(ev.wire.messages, 100 + expected_reports);
        assert_eq!(
            ev.wire.wire_bytes,
            100 * OrderAnnouncement::WIRE_BYTES as u64
                + expected_reports * ReportMsg::WIRE_BYTES as u64
        );
    }

    #[test]
    fn bits_per_user_period_is_below_one() {
        // Users at order h > 0 report less than once per period, so the
        // average payload is < 1 bit/user/period (≈ 2/log d).
        let (params, pop) = setup(400, 64, 3, 42);
        let ev = env_mode(&params, &pop, 8);
        let rate = ev.wire.bits_per_user_period(400, 64);
        assert!(rate < 1.0, "rate {rate}");
        assert!(rate > 0.1, "rate {rate} suspiciously low");
    }

    #[test]
    fn deterministic_under_seed() {
        let (params, pop) = setup(80, 16, 2, 43);
        let a = env_mode(&params, &pop, 5);
        env_mode(&params, &pop, 5).assert_values_eq(&a, "rerun");
    }
}
