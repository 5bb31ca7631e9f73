//! The fault-injected round loop.
//!
//! Wraps the honest message-level schedule of `rtf_sim::engine` with a
//! perturbation layer: every emitted [`ReportMsg`] passes through a
//! seeded fault model (dropout, permanent churn, straggler delay,
//! retransmission) before reaching the server, and Byzantine clients
//! replace their honest traffic with arbitrary well-formed payloads.
//!
//! Under [`ExecMode::Sequential`] — the oracle reference — the engine
//! steps the reference client schedule ([`Clients`]) and asks each
//! client's fault plan what it sends at every period
//! (`ClientPlan::emit`, shared with the checked engine's live driver);
//! each routed message is queued on the simulated network as its
//! fixed-width wire bytes and decoded at delivery. All three scenario
//! engines register clients through one helper.
//!
//! Three determinism invariants hold by construction:
//!
//! 1. **Client randomness is untouched.** Clients draw from the same
//!    `SeedSequence(seed).child(user)` streams as every other execution
//!    path, and every fault decision comes from the fault plan (the
//!    crate's `plan` module): keyed words under the disjoint subtree
//!    `child(FAULT_STREAM).child(user)`, a pure function of (seed,
//!    client, knob, slot) — so for a fixed seed, an honest client's
//!    reported bits are identical across all scenarios.
//! 2. **The honest scenario is the honest engine.** With all rates zero
//!    every message is delivered on time exactly once, and the outcome is
//!    value-for-value equal to the event engine's (asserted by the
//!    differential oracle in [`crate::oracle`]).
//! 3. **Worker count is invisible.** Under [`ExecMode::Parallel`] the
//!    emission side runs on contiguous user shards through the
//!    **span-native fault layer**: a shard's clients are the event
//!    engine's order groups ([`rtf_sim::engine::build_order_groups`] —
//!    the one client-construction path), a pre-walk jumps through each
//!    honest client's fault plan from one faulted boundary to the next
//!    (the same hits the sequential engine finds by asking the plan at
//!    every report), and honest on-time spans are folded arithmetically
//!    as whole packed sign words. The server is online: a delayed or
//!    retransmitted honest copy arrives after its period closed, so it
//!    is `Late` or `Duplicate` and never moves a roster slot. The
//!    pre-walk tallies those verdicts per delivery period from the
//!    client's own folded boundaries and frames none of them. Only
//!    Byzantine fabrications become provenance-tagged frames: each goes
//!    to the roster shard of the id it claims (an id `≥ n` stays with its
//!    emitter), pushed in the sequential mailbox order of ascending
//!    `(emission period, emitting user)`. A verdict reads only its
//!    sender's roster slot, the open period and the acceptance floor, so
//!    one pool job per roster shard merges its own fabrications and runs
//!    the checked ladder on its own slice
//!    ([`RosterShard::classify`](rtf_core::server::RosterShard::classify)),
//!    for the whole horizon. Its verdicts are bit-for-bit the sequential
//!    classification: an accepted Byzantine impersonation still displaces
//!    the honest report it races (the displaced lane leaves its span's
//!    fold and counts as the duplicate it would have been), and the
//!    impersonated client's residue verdicts are recomputed with that
//!    acceptance ahead of them. The tallies and folds are integer sums,
//!    absorbed per period in shard order. Every outcome field is
//!    identical for any worker count.

use crate::config::{FaultTimeline, Scenario};
use crate::plan::{ClientPlan, FaultPlan, Routing};
use crate::run_spec::{run, Mode, RunSpec};
use rtf_core::accumulator::AccumulatorKind;
use rtf_core::client::Clients;
use rtf_core::composed::ComposedRandomizer;
use rtf_core::params::ProtocolParams;
use rtf_core::protocol::keyed_future_rand;
use rtf_core::randomizer::FutureRand;
use rtf_core::server::{CheckedTally, Delivery, PeriodDelivery, Server};
use rtf_primitives::fastseed::SeedSchema;
use rtf_primitives::seeding::SeedSequence;
use rtf_primitives::sign::Sign;
use rtf_runtime::{partition, shard_of, ExecMode, Frame, FrameBatch, SignLane, WorkerPool};
use rtf_sim::engine::build_order_groups;
use rtf_sim::message::{OrderAnnouncement, ReportMsg, WireStats};
use rtf_sim::{FaultCounts, Outcome, StageTimings};
use rtf_streams::population::Population;

/// One message on the unreliable network, with provenance for
/// accounting: the first `len` bytes of `frame` arrive, fewer than the
/// layout's if the frame was corrupted in flight.
#[derive(Clone, Copy)]
struct InFlight {
    frame: [u8; ReportMsg::WIRE_BYTES],
    len: usize,
    byzantine: bool,
}

/// The pinned benchmark signature of the checked engine under a
/// constant scenario: [`crate::run`] in `mode`. Kept for
/// `examples/benchmark/src/adapter.rs` until the benchmark moves onto
/// `run`; the layout and schema have one value each.
pub fn run_scenario_schema(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    scenario: &Scenario,
    mode: ExecMode,
    _backend: AccumulatorKind,
    _schema: SeedSchema,
) -> Outcome {
    run(&RunSpec::new(params, population, seed, mode.into()).with_scenario(scenario))
}

/// The pinned benchmark signature of the batched checked engine with its
/// stage timings: [`crate::run`] in `Mode::Batched(workers)`. Kept for
/// `examples/benchmark/src/adapter.rs` until the benchmark moves onto
/// `run`; the layout and schema have one value each.
pub fn run_scenario_batched_timed(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    scenario: &Scenario,
    workers: usize,
    _backend: AccumulatorKind,
    _schema: SeedSchema,
) -> (Outcome, StageTimings) {
    let spec = RunSpec::new(params, population, seed, Mode::Batched(workers));
    let outcome = run(&spec.with_scenario(scenario));
    let stages = outcome
        .stages
        .expect("the batched checked engine times its stages");
    (outcome, stages)
}

/// Announces each client's order over the wire, in ascending user
/// order, and registers it with the server — every scenario engine's
/// registration, with its wire count.
pub(crate) fn register_clients(
    server: &mut Server,
    wire: &mut WireStats,
    orders: impl IntoIterator<Item = u32>,
) {
    for (user, order) in orders.into_iter().enumerate() {
        let ann = OrderAnnouncement {
            user: user as u32,
            order: order as u8,
        };
        let decoded = OrderAnnouncement::decode(&ann.encode());
        let registered = server.register_client(decoded.user, u32::from(decoded.order));
        assert!(registered, "simulation user ids are unique");
        wire.record_announcement();
    }
}

/// The reference clients of a scenario run and their fault plans, with
/// every client registered and every churned client counted.
pub(crate) fn reference_clients<'a, 'p>(
    params: &ProtocolParams,
    population: &'a Population,
    seed: u64,
    plan: &'p FaultPlan<'p>,
    server: &mut Server,
    wire: &mut WireStats,
    faults: &mut FaultCounts,
) -> (Clients<'a, FutureRand>, Vec<ClientPlan<'p>>) {
    let clients = Clients::new(params, population, seed, keyed_future_rand(params));
    let orders = (0..clients.len()).map(|u| clients.order(u));
    register_clients(server, wire, orders.clone());
    let plans = orders
        .enumerate()
        .map(|(u, h)| plan.client(u, h as usize, faults))
        .collect();
    (clients, plans)
}

/// The checked engine's sequential reference body (see the module
/// docs). Inputs are checked by [`crate::run`].
pub(crate) fn sequential(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    timeline: &FaultTimeline,
) -> Outcome {
    let mut server = Server::for_future_rand(*params);
    let mut wire = WireStats::default();
    let mut faults = FaultCounts::default();
    let plan = FaultPlan::new(params, seed, timeline);
    let d = params.d();
    let mut timings = StageTimings::default();
    let build_start = std::time::Instant::now();
    let (mut clients, mut plans) = reference_clients(
        params,
        population,
        seed,
        &plan,
        &mut server,
        &mut wire,
        &mut faults,
    );
    timings.emission_s += build_start.elapsed().as_secs_f64();

    // pending[t] = messages the network will deliver during period t.
    let mut pending: Vec<Vec<InFlight>> = (0..=d as usize).map(|_| Vec::new()).collect();
    let mut estimates = Vec::with_capacity(d as usize);
    let mut byz_accepted_by_period = vec![0u64; d as usize];

    for t in 1..=d {
        // Every client observes its own datum every period — the online
        // constraint is about observation, not delivery — so protocol
        // randomness is consumed identically in every scenario.
        let emit_start = std::time::Instant::now();
        clients.step(t, |u, _, report| {
            if let Some((msg, byzantine, routing)) = plans[u].emit(u as u32, t, report, &mut faults)
            {
                dispatch(msg, byzantine, routing, &mut pending);
            }
        });
        timings.emission_s += emit_start.elapsed().as_secs_f64();

        // The server drains whatever the network delivered this period —
        // original, late, duplicated, or fabricated — and classifies every
        // frame through the checked ingestion path.
        let ingest_start = std::time::Instant::now();
        for inflight in pending[t as usize].drain(..) {
            // Untrusted bytes: a corrupted frame is classified and
            // counted here, never a panic, and never reaches the server.
            let msg = match ReportMsg::try_decode(&inflight.frame[..inflight.len]) {
                Ok(msg) => msg,
                Err(_) => {
                    faults.malformed += 1;
                    continue;
                }
            };
            wire.record_report();
            let bit = if msg.bit { Sign::Plus } else { Sign::Minus };
            let status = server.ingest_checked(msg.user, u64::from(msg.t), bit);
            if inflight.byzantine && status == Delivery::Accepted {
                faults.byzantine_accepted += 1;
                byz_accepted_by_period[(t - 1) as usize] += 1;
            }
        }
        estimates.push(server.end_of_period(t));
        timings.ingest_s += ingest_start.elapsed().as_secs_f64();
    }

    Outcome {
        estimates,
        group_sizes: server.group_sizes().to_vec(),
        wire,
        delivery: server.delivery_log().to_vec(),
        faults,
        byzantine_accepted_by_period: byz_accepted_by_period,
        stages: Some(timings),
        ..Outcome::default()
    }
}

/// One worker's span-native emission result for a contiguous user shard.
///
/// The expensive product is *arithmetic*, not frames: per `(order, span)`
/// the popcount fold of every honest on-time lane, per delivery period
/// the verdict counts of the honest residue, and packed plan/sign lanes
/// the ingestion side consults for the fabrications that race them. Only
/// Byzantine fabrications are materialised as frames, already routed to
/// the roster shard whose ladder classifies them and in mailbox order.
struct ShardEmission {
    /// First global user id of the shard.
    start: usize,
    /// Announced order per shard user, ascending user id.
    orders: Vec<u8>,
    /// Lane index within the user's order group, ascending user id.
    lanes: Vec<u32>,
    /// Per order `h`: number of shard users announcing order `h`.
    group_len: Vec<usize>,
    /// Per order `h`, per span `s`: `(plus, count)` of the honest
    /// on-time lanes folded arithmetically for that span.
    folds: Vec<Vec<(u64, u64)>>,
    /// Per order `h`: every lane's report bit for every span, span-major
    /// (`s * group_len[h] + lane`) — consulted when an accepted Byzantine
    /// impersonation displaces a folded honest report.
    horizon_signs: Vec<SignLane>,
    /// Per order `h`: whether each `(span, lane)` report was folded on
    /// time (`Plus` = folded), span-major. [`planned_floor`] derives each
    /// fabrication's dedupe floor from these bits.
    plan: Vec<SignLane>,
    /// `residue[t]`: the `late` and `duplicate` verdicts of the honest
    /// copies (delayed originals and retransmissions) the network
    /// delivers during period `t`, as if no fabrication were accepted
    /// ([`residue_copies`]). The pool phase corrects the copies of the
    /// senders a fabrication impersonated ([`correct_residue`]).
    residue: Vec<PeriodDelivery>,
    /// `byzantine[r][t]`: the fabrications delivered during period `t`
    /// whose [`recipient`] is roster shard `r`, pushed in mailbox order.
    byzantine: Vec<Vec<FrameBatch>>,
    /// Emission-side fault tallies (`byzantine_accepted` stays 0 — that
    /// is decided at ingestion).
    faults: FaultCounts,
}

/// Clears one lane's bit in a packed membership mask.
#[inline]
fn clear_bit(words: &mut [u64], lane: u32) {
    words[(lane / 64) as usize] &= !(1u64 << (lane % 64));
}

/// The roster shard whose ladder classifies a frame claiming sender
/// `user`: the owner of an id below `n`, else the emitting shard — an id
/// `≥ n` is unknown on every shard, so its verdict reads no roster state.
fn recipient(n: usize, workers: usize, emitting: usize, user: u32) -> usize {
    if (user as usize) < n {
        shard_of(n, workers, user as usize)
    } else {
        emitting
    }
}

/// The dedupe floor the sequential drain would have seen for a
/// fabrication delivered at period `t` whose claimed sender (an id below
/// `n`) lives in `owner`: the highest span boundary of that sender whose
/// report was folded arithmetically (i.e. accepted) *before this frame's
/// position* in the sequential mailbox order. Folded accepts never touch
/// the roster, so the ladder
/// ([`RosterShard::classify`](rtf_core::server::RosterShard::classify))
/// takes the max of both sources.
///
/// Accepted boundaries are strictly increasing per user (acceptance
/// requires `t == current_t + 1`), so the max over "folded before this
/// frame" is the first set plan bit scanning down from `t` — including
/// `t` itself only when the claimed user's own on-time report sits
/// earlier in this period's mailbox, i.e. the frame was emitted this
/// period by a higher user id.
fn planned_floor(owner: &ShardEmission, t: u64, frame: &Frame) -> u64 {
    let local = frame.user as usize - owner.start;
    let h = owner.orders[local] as usize;
    let lane = owner.lanes[local] as usize;
    let glen = owner.group_len[h];
    let stride = 1u64 << h;
    let mut b = (t / stride) * stride;
    if b == t {
        let own_precedes = u64::from(frame.emitted) == t && frame.emitter > frame.user;
        if !own_precedes {
            b = b.saturating_sub(stride);
        }
    }
    while b >= stride {
        let idx = (b / stride - 1) as usize * glen + lane;
        if owner.plan[h].get(idx) == Sign::Plus {
            return b;
        }
        b -= stride;
    }
    0
}

/// Walks an honest client's faulted reports into `hits` as `(boundary,
/// routing)`, in ascending boundary order, tallying their faults into
/// `faults`: the pre-walk's walk, which [`correct_residue`] replays. A
/// corrupted copy is counted where its decode would have failed, and no
/// frame materialises.
fn walk_faulted(
    client: &mut ClientPlan<'_>,
    faults: &mut FaultCounts,
    hits: &mut Vec<(u64, Routing)>,
) {
    hits.clear();
    while let Some(b) = client.next_faulted(client.churn_at) {
        let routing = client.route(b, faults);
        if routing.malformed {
            faults.malformed += routing.delivered();
        }
        hits.push((b, routing));
    }
}

/// Calls `copy(b, at, floor)` for every intact copy of an honest client's
/// boundary-`b` report that arrives in a later period `at`, given the
/// client's faulted reports `hits` (as [`walk_faulted`] leaves them), its
/// order `h` and its churn period.
///
/// `floor` is the highest boundary below `at` whose report was folded on
/// time (emitted before churn, not dropped, delayed or corrupted), or 0:
/// the sender's last acceptance ahead of the copy in mailbox order,
/// fabrications aside. The copy was emitted at `b < at`, so the sender's
/// own report of boundary `at` comes after it. Every boundary the walk
/// skipped was folded.
fn residue_copies(
    hits: &[(u64, Routing)],
    h: usize,
    churn_at: u64,
    mut copy: impl FnMut(u64, u64, u64),
) {
    // The last boundary the client emits before it churns.
    let last = (churn_at - 1) >> h << h;
    for (i, &(b, routing)) in hits.iter().enumerate() {
        routing.late_copies(b, |at| {
            let mut c = ((at - 1) >> h << h).min(last);
            // hits[..j] are the faulted boundaries at or below c; c ≥ b.
            let mut j = i + 1;
            while j < hits.len() && hits[j].0 <= c {
                j += 1;
            }
            while c > 0 && j > 0 && hits[j - 1].0 == c && !hits[j - 1].1.on_time(c) {
                j -= 1;
                c -= 1 << h;
            }
            copy(b, at, c);
        });
    }
}

/// The checked ladder's verdict on a copy of boundary `b` that arrives
/// after period `b` closed, when the sender's last acceptance ahead of it
/// was folded at `floor` and fabricated at `last` (0 = none): a resend of
/// the last acceptance is a duplicate, anything older is late. Such a
/// copy is never accepted, so it never moves the roster.
fn residue_verdict(b: u64, floor: u64, last: u64) -> Delivery {
    if b == floor.max(last) {
        Delivery::Duplicate
    } else {
        Delivery::Late
    }
}

/// The count of `row` a [`residue_verdict`] lands in.
fn residue_count(row: &mut PeriodDelivery, verdict: Delivery) -> &mut u64 {
    if verdict == Delivery::Duplicate {
        &mut row.duplicate
    } else {
        &mut row.late
    }
}

/// What one roster shard's ladder produced for one period.
struct PeriodLadder {
    /// Verdicts and accepted signs of the fabrications addressed to the
    /// shard, the verdicts of its honest residue copies, and one
    /// duplicate per displaced honest report.
    tally: CheckedTally,
    /// Frames classified (all delivered and decoded), honest residue
    /// copies included.
    frames: u64,
    /// Byzantine fabrications accepted.
    byzantine_accepted: u64,
    /// `(order, lane)` of each folded honest report an accepted
    /// impersonation displaced; its span fold must give it back.
    displaced: Vec<(usize, u32)>,
}

/// Replaces the provisional verdicts (see [`ShardEmission::residue`]) of
/// the honest residue copies whose sender a fabrication impersonated, in
/// the roster shard's `ladder`. `accepted` holds the in-range
/// fabrications the shard accepted as `(delivery period, frame)`, in
/// mailbox order; a copy's exact verdict reads the claim of the last one
/// ahead of it, since accepted claims rise per sender. Each impersonated
/// honest client's plan, a pure function of (seed, client), is walked
/// again through [`walk_faulted`]. Returns how many verdicts changed.
fn correct_residue(
    fault_plan: &FaultPlan<'_>,
    own: &ShardEmission,
    accepted: &mut [(u64, Frame)],
    ladder: &mut [PeriodLadder],
) -> u64 {
    // Stable, so each sender's claims stay in mailbox order.
    accepted.sort_by_key(|&(_, f)| f.user);
    let mut hits = Vec::new();
    let mut changed = 0;
    let mut rest = &accepted[..];
    while let Some(&(_, first)) = rest.first() {
        let (claims, tail) = rest.split_at(rest.partition_point(|&(_, f)| f.user == first.user));
        rest = tail;
        let v = first.user;
        let h = own.orders[v as usize - own.start] as usize;
        let mut scratch = FaultCounts::default();
        let mut client = fault_plan.client(v as usize, h, &mut scratch);
        if client.byzantine {
            // Every report of a Byzantine sender is a fabrication.
            continue;
        }
        walk_faulted(&mut client, &mut scratch, &mut hits);
        residue_copies(&hits, h, client.churn_at, |b, at, floor| {
            let key = (at, b, u64::from(v));
            let last = claims
                .iter()
                .take_while(|&&(t, f)| (t, u64::from(f.emitted), u64::from(f.emitter)) < key)
                .last()
                .map_or(0, |&(_, f)| u64::from(f.t));
            let provisional = residue_verdict(b, floor, 0);
            let exact = residue_verdict(b, floor, last);
            if exact != provisional {
                let row = &mut ladder[at as usize - 1].tally.delivery;
                *residue_count(row, provisional) -= 1;
                *residue_count(row, exact) += 1;
                changed += 1;
            }
        });
    }
    changed
}

/// The checked engine's batched body on `workers` workers (see the
/// module docs): the outcome with its stage timings, and how many residue
/// verdicts [`correct_residue`] changed. Inputs are checked by
/// [`crate::run`].
pub(crate) fn batched(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    timeline: &FaultTimeline,
    workers: usize,
) -> (Outcome, u64) {
    let composed = ComposedRandomizer::per_order(params);
    let root = SeedSequence::new(seed);
    let fault_plan = FaultPlan::new(params, seed, timeline);
    let d = params.d();
    let n = params.n();
    let workers = workers.max(1);
    let pool = WorkerPool::new(workers);
    let num_orders = params.num_orders();
    let mut timings = StageTimings::default();

    let emission_start = std::time::Instant::now();
    let shards: Vec<ShardEmission> = pool.map_shards(n, |shard| {
        let mut groups = build_order_groups(
            params,
            population,
            &composed,
            &root,
            shard.range(),
            SeedSchema::V2Fast,
        );
        let mut orders = vec![0u8; shard.len()];
        let mut lanes = vec![0u32; shard.len()];
        for (h, group) in groups.iter().enumerate() {
            for (lane, &u) in group.users.iter().enumerate() {
                orders[u as usize - shard.start] = h as u8;
                lanes[u as usize - shard.start] = lane as u32;
            }
        }
        let group_len: Vec<usize> = groups.iter().map(|g| g.len()).collect();

        // Per order: the honest on-time membership mask, narrowed as the
        // pre-walk classifies lanes — Byzantine lanes leave for good,
        // churned lanes leave from their first silenced span on, and
        // faulted boundaries leave for exactly one span.
        let mut active: Vec<Vec<u64>> = group_len
            .iter()
            .map(|&len| {
                let mut words = vec![u64::MAX; len.div_ceil(64)];
                let tail = len % 64;
                if tail != 0 {
                    if let Some(last) = words.last_mut() {
                        *last = (1u64 << tail) - 1;
                    }
                }
                words
            })
            .collect();
        // clears[h][s] = lanes churn silences from span s onward;
        // dirty[h][s] = lanes excluded from span s only (drop, straggle,
        // corruption).
        let mut clears: Vec<Vec<Vec<u32>>> = (0..num_orders)
            .map(|h| vec![Vec::new(); params.sequence_len(h)])
            .collect();
        let mut dirty = clears.clone();
        let mut residue = vec![PeriodDelivery::default(); d as usize + 1];
        let mut byzantine: Vec<Vec<FrameBatch>> = (0..workers)
            .map(|_| (0..=d as usize).map(|_| FrameBatch::new()).collect())
            .collect();
        let mut faults = FaultCounts::default();

        // Phase 1 — fault pre-walk: every faulted reporting boundary of
        // every honest client, whole horizon per user. Each client's
        // fault plan is a pure function of its key, so the walk jumps from
        // one faulted boundary to the next and visits no other: the
        // boundaries it skips are delivered on time, exactly once. A late
        // or retransmitted copy arrives after its period closed, so it is
        // classified and counted here, never framed.
        let mut hits = Vec::new();
        let mut fabricators: Vec<(u32, ClientPlan<'_>)> = Vec::new();
        for u in shard.range() {
            let local = u - shard.start;
            let h = orders[local] as usize;
            let lane = lanes[local];
            let stride = 1u64 << h;
            let mut client = fault_plan.client(u, h, &mut faults);
            if client.byzantine {
                // Byzantine lanes never contribute honest folds; their
                // fabrications are emitted in phase 2.
                clear_bit(&mut active[h], lane);
                fabricators.push((u as u32, client));
                continue;
            }
            walk_faulted(&mut client, &mut faults, &mut hits);
            for &(b, routing) in &hits {
                if !routing.on_time(b) {
                    dirty[h][(b / stride - 1) as usize].push(lane);
                }
            }
            residue_copies(&hits, h, client.churn_at, |b, at, floor| {
                *residue_count(&mut residue[at as usize], residue_verdict(b, floor, 0)) += 1;
            });
            let churn_at = client.churn_at;
            if churn_at <= d {
                let first_lost = churn_at.div_ceil(stride) * stride;
                if first_lost <= d {
                    faults.lost_to_churn += d / stride - first_lost / stride + 1;
                    clears[h][(first_lost / stride - 1) as usize].push(lane);
                }
            }
        }

        // Phase 2 — fabrications, one period at a time and ascending user
        // within a period, so every batch is pushed in mailbox order. Each
        // goes to the roster shard of the id it claims.
        for t in 1..=d {
            for (u, client) in &mut fabricators {
                if let Some((msg, _, routing)) = client.emit(*u, t, None, &mut faults) {
                    dispatch_frame(msg, t, *u, true, routing, &mut faults, |at, frame| {
                        let r = recipient(n, workers, shard.index, frame.user);
                        byzantine[r][at as usize].push(frame);
                    });
                }
            }
        }

        // Phase 3 — span walk: emit every group's packed sign words in
        // horizon order. Faulted and Byzantine lanes still draw (client
        // randomness is untouched by faults — invariant 1), and the
        // honest on-time majority is folded by masked popcount.
        let mut folds: Vec<Vec<(u64, u64)>> = (0..num_orders)
            .map(|h| Vec::with_capacity(params.sequence_len(h)))
            .collect();
        let mut horizon_signs: Vec<SignLane> = (0..num_orders).map(|_| SignLane::new()).collect();
        let mut plan: Vec<SignLane> = (0..num_orders).map(|_| SignLane::new()).collect();
        let mut scratch: Vec<u64> = Vec::new();
        for t in 1..=d {
            let max_h = t.trailing_zeros().min(params.log_d()) as usize;
            for h in 0..=max_h {
                let group = &mut groups[h];
                if group.is_empty() {
                    continue;
                }
                let s = ((t >> h) - 1) as usize;
                group.emit_span(t);
                for &lane in &clears[h][s] {
                    clear_bit(&mut active[h], lane);
                }
                scratch.clear();
                scratch.extend_from_slice(&active[h]);
                for &lane in &dirty[h][s] {
                    clear_bit(&mut scratch, lane);
                }
                let plus = group.signs.count_plus_masked(&scratch);
                let count: u64 = scratch.iter().map(|w| u64::from(w.count_ones())).sum();
                folds[h].push((plus, count));
                let len = group.len();
                horizon_signs[h].extend_from_range(&group.signs, 0..len);
                let mut rem = len;
                for &w in &scratch {
                    let take = rem.min(64);
                    plan[h].push_bits(w, take);
                    rem -= take;
                }
            }
        }

        ShardEmission {
            start: shard.start,
            orders,
            lanes,
            group_len,
            folds,
            horizon_signs,
            plan,
            residue,
            byzantine,
            faults,
        }
    });
    timings.emission_s = emission_start.elapsed().as_secs_f64();

    // Register every user in ascending id order (shards are contiguous
    // and returned in shard-index order).
    let register_start = std::time::Instant::now();
    let mut server = Server::for_future_rand(*params);
    let mut wire = WireStats::default();
    let mut faults = FaultCounts::default();
    for sh in &shards {
        faults.merge(&sh.faults);
    }
    let orders = shards.iter().flat_map(|sh| &sh.orders);
    register_clients(&mut server, &mut wire, orders.map(|&h| u32::from(h)));
    timings.ingest_s += register_start.elapsed().as_secs_f64();

    // Pool phase: one job per roster shard walks the whole horizon. A
    // verdict reads only its sender's slot, the open period and the
    // floor, so shard r needs only the fabrications addressed to it, in
    // mailbox order, and its own emission's plan bits and residue tally.
    let ladder_start = std::time::Instant::now();
    let ends: Vec<usize> = partition(n, workers).iter().map(|s| s.end).collect();
    let ladders: Vec<(Vec<PeriodLadder>, u64)> =
        pool.map_owned(server.roster_shards(&ends), |r, mut roster| {
            let own = &shards[r];
            let mut accepted: Vec<(u64, Frame)> = Vec::new();
            let mut ladder: Vec<PeriodLadder> = (1..=d)
                .map(|t| {
                    let residue = own.residue[t as usize];
                    let mut period = PeriodLadder {
                        tally: CheckedTally::new(num_orders as usize),
                        frames: residue.late + residue.duplicate,
                        byzantine_accepted: 0,
                        displaced: Vec::new(),
                    };
                    period.tally.delivery = residue;
                    let runs = shards.iter().map(|sh| &sh.byzantine[r][t as usize]);
                    for f in FrameBatch::merge_sorted(runs) {
                        period.frames += 1;
                        let bit = if f.bit { Sign::Plus } else { Sign::Minus };
                        let claim = u64::from(f.t);
                        let floor = if (f.user as usize) < n {
                            planned_floor(own, t, &f)
                        } else {
                            0
                        };
                        let status =
                            roster.classify(f.user, claim, bit, floor, t - 1, &mut period.tally);
                        if status != Delivery::Accepted {
                            continue;
                        }
                        period.byzantine_accepted += 1;
                        accepted.push((t, f));
                        // An accepted impersonation racing a folded honest
                        // report displaces it: in the sequential drain the
                        // honest copy, arriving later in the mailbox, would
                        // have been the period's duplicate. At most one
                        // displacement per (user, period) — a second
                        // impersonation hits the roster's fresh
                        // `last_accepted` and dedupes.
                        let local = f.user as usize - own.start;
                        let h = own.orders[local] as usize;
                        let s = (claim >> h) as usize - 1;
                        let lane = own.lanes[local];
                        if own.plan[h].get(s * own.group_len[h] + lane as usize) == Sign::Plus {
                            period.displaced.push((h, lane));
                            period.tally.delivery.duplicate += 1;
                        }
                    }
                    period
                })
                .collect();
            let corrected = correct_residue(&fault_plan, own, &mut accepted, &mut ladder);
            (ladder, corrected)
        });
    timings.merge_s = ladder_start.elapsed().as_secs_f64();

    // Serial rest, per period: absorb the recipient tallies in shard
    // order, then each shard's span folds minus its displaced lanes, and
    // close. Every sum is an integer, so the absorb order is free.
    let close_start = std::time::Instant::now();
    let mut estimates = Vec::with_capacity(d as usize);
    let mut byz_accepted_by_period = vec![0u64; d as usize];
    for t in 1..=d {
        let ti = (t - 1) as usize;
        let max_h = t.trailing_zeros().min(params.log_d()) as usize;
        let mut delivered = 0u64;
        for (ladder, _) in &ladders {
            let period = &ladder[ti];
            server.absorb_checked(&period.tally);
            delivered += period.frames;
            byz_accepted_by_period[ti] += period.byzantine_accepted;
        }
        for (sh, (ladder, _)) in shards.iter().zip(&ladders) {
            let mut folded = CheckedTally::new(num_orders as usize);
            for h in 0..=max_h {
                if sh.group_len[h] == 0 {
                    continue;
                }
                let s = ((t >> h) - 1) as usize;
                let (mut plus, mut count) = sh.folds[h][s];
                // Every folded report was delivered and decoded; displaced
                // ones were too — they just classify as duplicates.
                delivered += count;
                for &(dh, lane) in &ladder[ti].displaced {
                    if dh == h {
                        let idx = s * sh.group_len[h] + lane as usize;
                        if sh.horizon_signs[h].get(idx) == Sign::Plus {
                            plus -= 1;
                        }
                        count -= 1;
                    }
                }
                folded.accept_run(h as u32, plus, count);
            }
            server.absorb_checked(&folded);
        }
        wire.record_report_batch(delivered);
        faults.byzantine_accepted += byz_accepted_by_period[ti];
        estimates.push(server.end_of_period(t));
    }
    timings.ingest_s += close_start.elapsed().as_secs_f64();

    let outcome = Outcome {
        estimates,
        group_sizes: server.group_sizes().to_vec(),
        wire,
        delivery: server.delivery_log().to_vec(),
        faults,
        byzantine_accepted_by_period: byz_accepted_by_period,
        stages: Some(timings),
        ..Outcome::default()
    };
    (
        outcome,
        ladders.iter().map(|(_, corrected)| corrected).sum(),
    )
}

/// Sequential-mode dispatch: queues the serialised frame of one routed
/// message on the pending network, once per delivered copy.
fn dispatch(msg: ReportMsg, byzantine: bool, routing: Routing, pending: &mut [Vec<InFlight>]) {
    let inflight = InFlight {
        frame: msg.encode(),
        // In-flight corruption: the frame arrives truncated to its
        // 4-byte prefix, below the fixed-width layout, so the drain's
        // `try_decode` must classify it instead of panicking.
        len: if routing.malformed {
            4
        } else {
            ReportMsg::WIRE_BYTES
        },
        byzantine,
    };
    for at in [routing.deliver, routing.duplicate].into_iter().flatten() {
        pending[at as usize].push(inflight);
    }
}

/// Batched- and live-mode dispatch: hands each delivered copy of one
/// routed message to `deliver(period, frame)` as a columnar frame row
/// tagged with its emission provenance `(t, emitter)` — the mailbox-order
/// key.
pub(crate) fn dispatch_frame(
    msg: ReportMsg,
    t: u64,
    emitter: u32,
    byzantine: bool,
    routing: Routing,
    faults: &mut FaultCounts,
    mut deliver: impl FnMut(u64, Frame),
) {
    if routing.malformed {
        // The sequential engine queues the corrupted bytes and counts
        // each delivered copy at the drain's failed `try_decode`; the
        // columnar path never materializes an undecodable row, so it
        // counts the same delivered copies here and skips them.
        faults.malformed += routing.delivered();
        return;
    }
    let frame = Frame {
        emitted: t as u32,
        emitter,
        user: msg.user,
        t: msg.t,
        bit: msg.bit,
        byzantine,
    };
    if let Some(at) = routing.deliver {
        deliver(at, frame);
    }
    if let Some(at) = routing.duplicate {
        deliver(at, frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DelayLaw;
    use proptest::prelude::*;
    use rand::Rng;
    use rtf_primitives::fastseed;
    use rtf_streams::generator::UniformChanges;
    use std::collections::BTreeMap;

    fn setup(n: usize, d: u64, k: usize, seed: u64) -> (ProtocolParams, Population) {
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        (params, pop)
    }

    /// `scenario` on the checked engine in the `RTF_WORKERS` mode.
    fn run_env(
        params: &ProtocolParams,
        pop: &Population,
        seed: u64,
        scenario: &Scenario,
    ) -> Outcome {
        run(&RunSpec::new(params, pop, seed, Mode::from_env()).with_scenario(scenario))
    }

    #[test]
    fn honest_scenario_matches_event_driven_exactly() {
        let (params, pop) = setup(180, 32, 3, 60);
        let ev = run(&RunSpec::new(&params, &pop, 11, Mode::from_env()));
        let sc = run_env(&params, &pop, 11, &Scenario::honest());
        assert_eq!(sc.estimates, ev.estimates);
        assert_eq!(sc.group_sizes, ev.group_sizes);
        assert_eq!(sc.wire, ev.wire);
        assert_eq!(sc.faults, FaultCounts::default());
        assert!(sc.delivery.iter().all(|r| r.missing() == 0));
        assert!((sc.accepted_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batched_pipeline_is_worker_count_invariant_under_faults() {
        // The hard case for parallel determinism: Byzantine impersonation
        // races honest reports, so acceptance depends on mailbox order —
        // which each roster shard's merge must reconstruct exactly, with
        // fabrications crossing shards. n = 130 splits unevenly over 3
        // and 8 workers; n = 6 over 8 workers leaves two shards empty
        // (run seed 9 makes one of the six clients Byzantine).
        let scenario = Scenario::honest()
            .with_dropout(0.05)
            .with_churn(0.01)
            .with_stragglers(0.15, 3)
            .with_duplicates(0.1)
            .with_byzantine(0.15);
        for (n, seed, workers) in [(130, 19, &[1usize, 2, 3, 8][..]), (6, 9, &[8][..])] {
            let (params, pop) = setup(n, 32, 3, 68);
            let spec = RunSpec::new(&params, &pop, seed, Mode::Sequential).with_scenario(&scenario);
            let seq = run(&spec);
            assert!(
                seq.faults.byzantine_accepted > 0,
                "n = {n}: test must exercise the order-sensitive acceptance race"
            );
            for &w in workers {
                run(&spec.clone().with_mode(Mode::Batched(w)))
                    .assert_values_eq(&seq, &format!("n = {n}, {w} workers"));
            }
        }
    }

    #[test]
    fn impersonated_residue_is_corrected_for_every_worker_count() {
        // Byzantine spam over stragglers and retransmissions: fabrications
        // accepted under honest ids land ahead of some of those clients'
        // late copies, so their provisional verdicts are wrong and the pool
        // phase must correct them, whatever shard holds the claimed id.
        let (params, pop) = setup(64, 16, 2, 24);
        let scenario = Scenario::honest()
            .with_dropout(0.05)
            .with_churn(0.01)
            .with_stragglers(0.3, 3)
            .with_duplicates(0.3)
            .with_byzantine(0.3);
        let timeline = FaultTimeline::constant(scenario);
        let seq = sequential(&params, &pop, 24, &timeline);
        for w in [1usize, 2, 3, 8] {
            let (par, corrected) = batched(&params, &pop, 24, &timeline, w);
            assert!(corrected > 0, "{w} workers: no verdict was corrected");
            par.assert_values_eq(&seq, &format!("{w} workers"));
        }
    }

    /// A mailbox position: `(delivery period, emitted, emitter)`.
    type MailboxKey = (u64, u64, u64);

    /// A message in a one-client mailbox.
    #[derive(Clone, Copy)]
    enum Sent {
        /// A copy of the client's own report of this boundary.
        Own(u64),
        /// A fabrication claiming the client at this period.
        Fake(u64),
    }

    /// What a one-client server made of a mailbox.
    struct Replay {
        /// The verdict on each own copy that arrives after its boundary,
        /// keyed `(boundary, delivery period)`.
        copies: BTreeMap<(u64, u64), Delivery>,
        /// The accepted fabrications as `(key, claim)`, in mailbox order.
        accepted: Vec<(MailboxKey, u64)>,
    }

    /// Replays `mailbox` in mailbox order through a server that holds
    /// client 0 alone, at order `h`.
    fn replay(d: u64, h: usize, mailbox: &BTreeMap<MailboxKey, Sent>) -> Replay {
        let params = ProtocolParams::new(1, d, 1, 1.0, 0.05).unwrap();
        let mut server = Server::for_future_rand(params);
        assert!(server.register_client(0, h as u32));
        let mut copies = BTreeMap::new();
        let mut accepted = Vec::new();
        let mut open = 1;
        for (&(at, emitted, emitter), &sent) in mailbox {
            while open < at {
                server.end_of_period(open);
                open += 1;
            }
            match sent {
                Sent::Own(b) => {
                    let verdict = server.ingest_checked(0, b, Sign::Plus);
                    if at != b {
                        copies.insert((b, at), verdict);
                    }
                }
                Sent::Fake(claim) => {
                    if server.ingest_checked(0, claim, Sign::Minus) == Delivery::Accepted {
                        accepted.push(((at, emitted, emitter), claim));
                    }
                }
            }
        }
        Replay { copies, accepted }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The residue verdicts against the checked ladder itself. A random
        /// history of one client — its order, faulted and folded
        /// boundaries, churn, delayed and retransmitted copies, and
        /// fabrications claiming it at random mailbox keys — is replayed
        /// through a one-client server. Each copy's verdict is what
        /// `residue_copies` and `residue_verdict` give when handed the
        /// fabrications the server accepted, and the server accepts the
        /// same fabrications when the copies are left out.
        #[test]
        fn residue_verdicts_match_a_one_client_server(
            log_d in 1u32..=5,
            order in 0u32..=5,
            history in 0u64..u64::MAX,
        ) {
            let d = 1u64 << log_d;
            let h = order.min(log_d) as usize;
            let mut rng = SeedSequence::new(history).rng();
            let churn_at = if rng.random_bool(0.25) {
                rng.random_range(1..=d)
            } else {
                u64::MAX
            };
            let mut hits = Vec::new();
            let mut on_time = BTreeMap::new();
            let mut copies = BTreeMap::new();
            for b in (1..=d >> h).map(|j| j << h).take_while(|&b| b < churn_at) {
                if rng.random_bool(0.5) {
                    on_time.insert((b, b, 0), Sent::Own(b));
                    continue;
                }
                let delay = if rng.random_bool(0.5) { rng.random_range(1..=3) } else { 0 };
                let deliver = (!rng.random_bool(0.2)).then_some(b + delay);
                let duplicate = deliver.filter(|_| rng.random_bool(0.5)).map(|at| at + 1);
                let routing = Routing {
                    deliver: deliver.filter(|&at| at <= d),
                    duplicate: duplicate.filter(|&at| at <= d),
                    malformed: rng.random_bool(0.15),
                };
                hits.push((b, routing));
                if routing.malformed {
                    continue;
                }
                for at in [routing.deliver, routing.duplicate].into_iter().flatten() {
                    let inbox = if at == b { &mut on_time } else { &mut copies };
                    inbox.insert((at, b, 0), Sent::Own(b));
                }
            }
            let mut fakes = BTreeMap::new();
            for _ in 0..rng.random_range(0..16) {
                let at = rng.random_range(1..=d);
                // Only a claim of the delivery period itself can be accepted.
                let claim = if rng.random_bool(0.5) { at } else { rng.random_range(1..=d) };
                let key = (at, rng.random_range(1..=at), rng.random_range(1..=4u64));
                fakes.insert(key, Sent::Fake(claim));
            }

            let mut quiet = on_time;
            quiet.extend(fakes);
            let mut mailbox = quiet.clone();
            mailbox.extend(copies);
            let full = replay(d, h, &mailbox);
            let alone = replay(d, h, &quiet);
            prop_assert!(alone.copies.is_empty());
            prop_assert_eq!(&full.accepted, &alone.accepted);

            let mut expected = BTreeMap::new();
            residue_copies(&hits, h, churn_at, |b, at, floor| {
                let last = full
                    .accepted
                    .iter()
                    .take_while(|&&(key, _)| key < (at, b, 0))
                    .last()
                    .map_or(0, |&(_, claim)| claim);
                expected.insert((b, at), residue_verdict(b, floor, last));
            });
            prop_assert_eq!(expected, full.copies);
        }
    }

    #[test]
    fn scenario_is_deterministic_under_seed() {
        let (params, pop) = setup(120, 16, 2, 61);
        let scenario = Scenario::honest()
            .with_dropout(0.1)
            .with_stragglers(0.2, 3)
            .with_duplicates(0.1)
            .with_byzantine(0.05);
        let a = run_env(&params, &pop, 7, &scenario);
        run_env(&params, &pop, 7, &scenario).assert_values_eq(&a, "rerun");
    }

    #[test]
    fn honest_clients_bits_unchanged_by_faults() {
        // Faults perturb delivery, never the protocol randomness: under
        // pure dropout, every *accepted* report carries the same bit it
        // would have carried in the honest run, so the faulty estimates
        // differ from honest only by the missing contributions.
        let (params, pop) = setup(100, 16, 2, 62);
        let honest = run_env(&params, &pop, 5, &Scenario::honest());
        let faulty = run_env(&params, &pop, 5, &Scenario::honest().with_dropout(1.0));
        // Everything dropped: estimates are exactly zero...
        assert!(faulty.estimates.iter().all(|&e| e == 0.0));
        assert_eq!(faulty.faults.dropped, honest.wire.payload_bits);
        // ...and the honest run was not all zero.
        assert!(honest.estimates.iter().any(|&e| e != 0.0));
    }

    #[test]
    fn dropout_shows_up_in_delivery_stats() {
        let (params, pop) = setup(300, 32, 3, 63);
        let out = run_env(&params, &pop, 9, &Scenario::honest().with_dropout(0.2));
        assert!(out.faults.dropped > 0);
        let missing: u64 = out.delivery.iter().map(|r| r.missing()).sum();
        assert_eq!(missing, out.faults.dropped);
        assert!(out.accepted_fraction() > 0.6 && out.accepted_fraction() < 0.95);
        // cumulative_missing is a prefix sum.
        let cum = out.cumulative_missing();
        assert_eq!(*cum.last().unwrap(), missing);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn stragglers_are_classified_late_or_expire() {
        let (params, pop) = setup(200, 16, 2, 64);
        let out = run_env(
            &params,
            &pop,
            13,
            &Scenario::honest().with_stragglers(0.5, 4),
        );
        let late: u64 = out.delivery.iter().map(|r| r.late).sum();
        assert_eq!(late + out.faults.expired, out.faults.delayed);
        assert!(out.faults.delayed > 0);
    }

    #[test]
    fn duplicates_are_deduped_exactly() {
        // Duplicates alone must not change a single estimate: the checked
        // path drops every retransmitted copy.
        let (params, pop) = setup(150, 32, 3, 65);
        let honest = run_env(&params, &pop, 21, &Scenario::honest());
        let dup = run_env(&params, &pop, 21, &Scenario::honest().with_duplicates(0.5));
        assert_eq!(dup.estimates, honest.estimates);
        assert!(dup.faults.duplicates_injected > 0);
        let deduped: u64 = dup.delivery.iter().map(|r| r.duplicate).sum();
        assert_eq!(
            deduped + dup.faults.expired,
            dup.faults.duplicates_injected,
            "every injected duplicate is either deduped or expired"
        );
    }

    #[test]
    fn churn_silences_clients_permanently() {
        let (params, pop) = setup(250, 32, 3, 66);
        let out = run_env(&params, &pop, 31, &Scenario::honest().with_churn(0.05));
        assert!(out.faults.churned_clients > 0);
        assert!(out.faults.lost_to_churn > 0);
        // Later periods lose at least as much cumulative traffic.
        let cum = out.cumulative_missing();
        assert!(cum[(params.d() - 1) as usize] >= cum[0]);
    }

    #[test]
    fn byzantine_traffic_never_panics_the_server() {
        let (params, pop) = setup(200, 32, 3, 67);
        let out = run_env(&params, &pop, 41, &Scenario::honest().with_byzantine(0.2));
        assert!(out.faults.byzantine_messages > 0);
        // Fabrications hit every rejection class at this scale.
        let rejected: u64 = out.delivery.iter().map(|r| r.rejected()).sum();
        assert!(rejected > 0, "random periods must produce rejections");
        // Random fabrications hit the finer-grained rejection classes too:
        // off-stride periods dominate, and impersonations of unregistered
        // ids surface as unknown senders.
        let invalid: u64 = out.delivery.iter().map(|r| r.invalid_period).sum();
        let unknown: u64 = out.delivery.iter().map(|r| r.unknown_user).sum();
        let premature: u64 = out.delivery.iter().map(|r| r.premature).sum();
        assert_eq!(invalid + unknown + premature, rejected);
        assert!(invalid > 0 && unknown > 0 && premature > 0);
        assert_eq!(
            out.byzantine_accepted_by_period.iter().sum::<u64>(),
            out.faults.byzantine_accepted
        );
        // Estimates still exist for every period.
        assert_eq!(out.estimates.len(), 32);
        assert!(out.estimates.iter().all(|e| e.is_finite()));
    }

    #[test]
    fn malformed_frames_are_counted_and_skipped_in_every_mode() {
        let (params, pop) = setup(150, 32, 3, 70);
        let scenario = Scenario::honest()
            .with_malformed(0.2)
            .with_duplicates(0.1)
            .with_byzantine(0.1);
        let spec = RunSpec::new(&params, &pop, 17, Mode::Sequential).with_scenario(&scenario);
        let seq = run(&spec);
        assert!(seq.faults.malformed > 0, "corruption must fire at 20%");
        assert!(seq.estimates.iter().all(|e| e.is_finite()));
        for w in [1usize, 2, 8] {
            run(&spec.clone().with_mode(Mode::Batched(w)))
                .assert_values_eq(&seq, &format!("{w} workers"));
        }
        // Total corruption: every frame fails `try_decode`, so nothing
        // reaches the server and no report is ever accounted delivered.
        let dead = run_env(&params, &pop, 17, &Scenario::honest().with_malformed(1.0));
        assert!(dead.estimates.iter().all(|&e| e == 0.0));
        assert_eq!(dead.wire.payload_bits, 0, "no report survives decode");
        assert!(dead.delivery.iter().all(|r| r.accepted == 0));
    }

    #[test]
    fn churn_sampler_is_geometric_shaped() {
        // d = 1024 makes the horizon's truncation of the geometric law
        // negligible at p = 1/4.
        let params = ProtocolParams::new(20_000, 1024, 2, 1.0, 0.05).unwrap();
        let churn_at = |p: f64, u: usize| {
            let timeline = FaultTimeline::constant(Scenario::honest().with_churn(p));
            FaultPlan::new(&params, 99, &timeline)
                .client(u, 0, &mut FaultCounts::default())
                .churn_at
        };
        assert_eq!(churn_at(0.0, 0), u64::MAX);
        assert_eq!(churn_at(1.0, 0), 1);
        let timeline = FaultTimeline::constant(Scenario::honest().with_churn(0.25));
        let plan = FaultPlan::new(&params, 99, &timeline);
        let n = params.n();
        let mean = (0..n)
            .map(|u| plan.client(u, 0, &mut FaultCounts::default()).churn_at as f64)
            .sum::<f64>()
            / n as f64;
        // E[T] = 1/p = 4; Monte-Carlo tolerance.
        assert!((mean - 4.0).abs() < 0.2, "mean churn period {mean}");
    }

    #[test]
    fn constant_timeline_is_the_scenario_path_bit_for_bit() {
        // The pinned scenario signatures are the seam under a constant
        // timeline.
        let (params, pop) = setup(130, 32, 3, 68);
        let scenario = Scenario::honest()
            .with_dropout(0.05)
            .with_stragglers(0.15, 3)
            .with_duplicates(0.1)
            .with_byzantine(0.15);
        let timeline = FaultTimeline::constant(scenario);
        let (dense, v2) = (AccumulatorKind::Dense, SeedSchema::V2Fast);
        for mode in [ExecMode::Sequential, ExecMode::Parallel(3)] {
            let a = run_scenario_schema(&params, &pop, 19, &scenario, mode, dense, v2);
            let spec = RunSpec::new(&params, &pop, 19, mode.into());
            a.assert_values_eq(
                &run(&spec.with_timeline(timeline.clone())),
                &mode.to_string(),
            );
        }
        let (a, stages) = run_scenario_batched_timed(&params, &pop, 19, &scenario, 3, dense, v2);
        assert_eq!(a.stages, Some(stages));
        let spec = RunSpec::new(&params, &pop, 19, Mode::Batched(3));
        a.assert_values_eq(&run(&spec.with_timeline(timeline)), "timed batched(3)");
    }

    #[test]
    fn shaped_timeline_of_constant_rows_is_the_constant_timeline() {
        // A row equal to the base runs at the knob's peak rate, so no
        // thinning word is read and the shaped timeline is the constant
        // one, value for value. With churn = 0 there is no churn process
        // at all on either side; with churn > 0 both read the same words.
        let (params, pop) = setup(140, 32, 3, 75);
        let quiet = Scenario::honest()
            .with_dropout(0.05)
            .with_stragglers(0.2, 4)
            .with_duplicates(0.1)
            .with_byzantine(0.15);
        for base in [quiet, quiet.with_churn(0.02)] {
            let constant = FaultTimeline::constant(base);
            let shaped = FaultTimeline::shaped(base, vec![base; params.d() as usize]);
            let modes = [
                Mode::Sequential,
                Mode::Batched(3),
                Mode::Live(rtf_runtime::ingest::LiveConfig::new(2)),
            ];
            let runs = |timeline: &FaultTimeline| {
                modes.clone().map(|mode| {
                    run(&RunSpec::new(&params, &pop, 37, mode).with_timeline(timeline.clone()))
                })
            };
            let expected = runs(&constant);
            let label = format!("churn {}", base.churn_prob);
            assert!(expected[0].faults.byzantine_messages > 0, "{label}");
            assert!(expected[0].faults.delayed > 0, "{label}");
            assert!(expected[0].faults.duplicates_injected > 0, "{label}");
            assert_eq!(
                expected[0].faults.churned_clients > 0,
                base.churn_prob > 0.0
            );
            for (mode, (a, b)) in modes.iter().zip(expected.iter().zip(&runs(&shaped))) {
                b.assert_values_eq(a, &format!("{label}, {mode}"));
            }
        }
    }

    #[test]
    fn shaped_timeline_is_worker_count_invariant() {
        // A pulse of dropout + duplicates mid-horizon over a Byzantine
        // base, with per-period churn hazards concentrated in a storm
        // window and a zipf delay tail: every axis the timeline adds,
        // exercised at once, must stay worker-count invariant.
        let (params, pop) = setup(140, 32, 3, 72);
        let base = Scenario::honest().with_byzantine(0.1);
        let rows: Vec<Scenario> = (1..=32u64)
            .map(|t| {
                let mut row = base;
                if (12..=20).contains(&t) {
                    row = row.with_dropout(0.3).with_duplicates(0.25);
                }
                if (8..=10).contains(&t) {
                    row = row.with_churn(0.05);
                }
                row.with_stragglers(0.2, 6)
            })
            .collect();
        let timeline =
            FaultTimeline::shaped(base, rows).with_delay_law(DelayLaw::Zipf { alpha: 1.5 });
        timeline.validate(params.d());
        let spec = RunSpec::new(&params, &pop, 23, Mode::Sequential).with_timeline(timeline);
        let seq = run(&spec);
        assert!(seq.faults.dropped > 0, "the pulse must fire");
        assert!(seq.faults.churned_clients > 0, "the churn storm must fire");
        assert!(seq.faults.delayed > 0, "the zipf stragglers must fire");
        for w in [1usize, 2, 3, 8] {
            run(&spec.clone().with_mode(Mode::Batched(w)))
                .assert_values_eq(&seq, &format!("{w} workers"));
        }
    }

    #[test]
    fn shaped_quiet_periods_inject_nothing() {
        // A pulse confined to periods 5..=8 must leave every other
        // period's traffic untouched: all drops happen inside the window.
        let (params, pop) = setup(200, 16, 2, 73);
        let base = Scenario::honest();
        let rows: Vec<Scenario> = (1..=16u64)
            .map(|t| {
                if (5..=8).contains(&t) {
                    base.with_dropout(1.0)
                } else {
                    base
                }
            })
            .collect();
        let timeline = FaultTimeline::shaped(base, rows);
        let out = run(&RunSpec::new(&params, &pop, 31, Mode::Sequential).with_timeline(timeline));
        assert!(out.faults.dropped > 0);
        for (i, row) in out.delivery.iter().enumerate() {
            let t = (i + 1) as u64;
            if (5..=8).contains(&t) {
                assert_eq!(row.accepted, 0, "period {t} is inside the blackout");
            } else {
                assert_eq!(row.missing(), 0, "period {t} is outside the pulse");
            }
        }
    }

    #[test]
    fn zipf_delay_law_draws_once_and_clamps() {
        // One word per delay.
        let key = fastseed::client_key(&SeedSequence::new(101));
        let law = DelayLaw::Zipf { alpha: 1.0 };
        for c in 0..10_000 {
            let delta = law.sample(fastseed::word(key, 0, c), 5);
            assert!((1..=5).contains(&delta), "delta {delta} out of range");
        }
        assert_eq!(law.sample(u64::MAX, 5), 1, "U = 1 is the shortest delay");
        assert_eq!(law.sample(0, 5), 5, "the smallest U clamps to the cap");
        let mut ones = 0usize;
        for c in 0..10_000 {
            if law.sample(fastseed::word(key, 1, c), 1_000) == 1 {
                ones += 1;
            }
        }
        // P(delta = 1) = 1 - 2^{-alpha} = 0.5 for alpha=1.
        assert!(
            (4_000..=6_000).contains(&ones),
            "P(delta=1) ~ 0.5, got {ones}"
        );
    }
}
