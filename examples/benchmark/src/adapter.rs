//! Every call the benchmark makes into the program lives in this file.
//!
//! The rest of the benchmark sees only these functions and the types they
//! return, so a change to the program's public surface (for example the
//! planned single `run(&RunSpec)` entry point) is absorbed here, and this
//! file is the list of entry points the benchmark depends on.
//!
//! Backend and seed schema are what the program's own `from_env`
//! selectors return. `main` refuses to start while any `RTF_*` variable is
//! set, so these are always the program defaults.

use randomize_future::analysis::variance::predicted_variance;
use randomize_future::core::accumulator::{Accumulator, AccumulatorKind};
use randomize_future::core::composed::ComposedRandomizer;
use randomize_future::primitives::fastseed::SeedSchema;
use randomize_future::primitives::seeding::SeedSequence;
use randomize_future::primitives::sign::Sign;
use randomize_future::runtime::ingest::{IngestService, IngestStats, DEFAULT_MAILBOX_CAP};
use randomize_future::runtime::ExecMode;
use randomize_future::scenarios::config::Scenario;
use randomize_future::scenarios::engine::{run_scenario_batched_timed, run_scenario_schema};
use randomize_future::sim::engine::{build_order_groups, run_event_driven_schema};
use randomize_future::streams::generator::UniformChanges;

pub use randomize_future::core::accumulator::AnyAccumulator;
pub use randomize_future::core::params::ProtocolParams;
pub use randomize_future::core::server::{Delivery, PeriodDelivery, Server};
pub use randomize_future::runtime::{shard_of, Frame, FrameBatch};
pub use randomize_future::sim::engine::SpanGroup;
pub use randomize_future::streams::population::Population;

/// Changes per user allowed by the protocol (`k`).
const K: usize = 4;
/// Privacy budget `ε`.
const EPSILON: f64 = 1.0;
/// Failure probability `β`.
const BETA: f64 = 0.05;
/// Share of the `k` changes each generated user actually makes.
const CHANGE_DENSITY: f64 = 0.8;
/// Label of the population's RNG stream under the run seed. Outside the
/// `u32` range of per-user client streams, so it never reuses one.
const POPULATION_STREAM: u64 = 0xB3AC_0000_0000_0001;

/// Protocol parameters for `n` users over `d` periods.
pub fn params(n: usize, d: u64) -> ProtocolParams {
    ProtocolParams::new(n, d, K, EPSILON, BETA).expect("benchmark shapes are valid parameters")
}

/// The population of `params.n()` users drawn from `seed`.
pub fn population(params: &ProtocolParams, seed: u64) -> Population {
    let mut rng = SeedSequence::new(seed).child(POPULATION_STREAM).rng();
    let generator = UniformChanges::new(params.d(), K, CHANGE_DENSITY);
    Population::generate(&generator, params.n(), &mut rng)
}

/// Closed-form standard deviation of every published estimate.
pub fn predicted_sigma(params: &ProtocolParams, population: &Population) -> Vec<f64> {
    predicted_variance(params, population)
        .into_iter()
        .map(f64::sqrt)
        .collect()
}

fn backend() -> AccumulatorKind {
    AccumulatorKind::from_env()
}

fn schema() -> SeedSchema {
    SeedSchema::from_env()
}

/// The default backend and schema, for the run metadata.
pub fn defaults() -> (String, String) {
    (backend().to_string(), schema().to_string())
}

/// What one batch engine call published.
pub struct EngineRun {
    /// `estimates[t - 1]` is the estimate published for period `t`.
    pub estimates: Vec<f64>,
    /// Per-period delivery rows (scenario engine only; empty otherwise).
    pub delivery: Vec<PeriodDelivery>,
    /// Reports delivered to the server.
    pub reports: u64,
    /// Stage split `(emission, merge, ingest)` in seconds (batched
    /// scenario engine only).
    pub stages: Option<(f64, f64, f64)>,
    /// Byzantine fabrications the server accepted (scenario engine only).
    pub byzantine_accepted: u64,
}

/// The honest event engine on the batched pipeline with `workers` workers.
pub fn event_engine(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    workers: usize,
) -> EngineRun {
    event_run(params, population, seed, ExecMode::Parallel(workers))
}

/// The event engine's sequential reference schedule.
pub fn event_reference(params: &ProtocolParams, population: &Population, seed: u64) -> EngineRun {
    event_run(params, population, seed, ExecMode::Sequential)
}

fn event_run(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    mode: ExecMode,
) -> EngineRun {
    let out = run_event_driven_schema(params, population, seed, mode, backend(), schema());
    EngineRun {
        estimates: out.estimates,
        delivery: Vec::new(),
        reports: out.wire.payload_bits,
        stages: None,
        byzantine_accepted: 0,
    }
}

/// A fault mix for the scenario engine.
#[derive(Debug, Clone, Copy)]
pub struct FaultMix {
    pub dropout: f64,
    pub duplicates: f64,
    pub byzantine: f64,
    pub stragglers: f64,
    pub max_delay: u64,
}

fn scenario(mix: FaultMix) -> Scenario {
    Scenario::honest()
        .with_dropout(mix.dropout)
        .with_duplicates(mix.duplicates)
        .with_byzantine(mix.byzantine)
        .with_stragglers(mix.stragglers, mix.max_delay)
}

/// The batched scenario engine with `workers` workers, with its stage split.
pub fn scenario_engine(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    mix: FaultMix,
    workers: usize,
) -> EngineRun {
    let (out, t) = run_scenario_batched_timed(
        params,
        population,
        seed,
        &scenario(mix),
        workers,
        backend(),
        schema(),
    );
    EngineRun {
        estimates: out.estimates,
        delivery: out.delivery,
        reports: out.wire.payload_bits,
        stages: Some((t.emission_s, t.merge_s, t.ingest_s)),
        byzantine_accepted: out.faults.byzantine_accepted,
    }
}

/// The scenario engine's sequential reference schedule.
pub fn scenario_reference(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    mix: FaultMix,
) -> EngineRun {
    let out = run_scenario_schema(
        params,
        population,
        seed,
        &scenario(mix),
        ExecMode::Sequential,
        backend(),
        schema(),
    );
    EngineRun {
        estimates: out.estimates,
        delivery: out.delivery,
        reports: out.wire.payload_bits,
        stages: None,
        byzantine_accepted: out.faults.byzantine_accepted,
    }
}

// ---------------------------------------------------------------------------
// Core layers, called one by one (the single-threaded re-drive).
// ---------------------------------------------------------------------------

/// Every user's clients grouped by announced order, exactly as the batched
/// engines build them.
pub fn order_groups(params: &ProtocolParams, population: &Population, seed: u64) -> Vec<SpanGroup> {
    let composed: Vec<ComposedRandomizer> = (0..params.num_orders())
        .map(|h| ComposedRandomizer::for_protocol(params.k_for_order(h), params.epsilon()))
        .collect();
    build_order_groups(
        params,
        population,
        &composed,
        &SeedSequence::new(seed),
        0..params.n(),
        schema(),
    )
}

/// Orders whose reporting stride divides `t`.
pub fn reporting_orders(params: &ProtocolParams, t: u64) -> std::ops::RangeInclusive<u32> {
    0..=t.trailing_zeros().min(params.log_d())
}

/// Emits one group's reports for the span ending at `t`.
pub fn emit_span(group: &mut SpanGroup, t: u64) {
    group.emit_span(t);
}

/// The report bit of lane `lane` after [`emit_span`].
pub fn lane_bit(group: &SpanGroup, lane: usize) -> bool {
    group.signs.get(lane) == Sign::Plus
}

/// A fresh per-period shard accumulator on the default backend.
pub fn period_accumulator(params: &ProtocolParams) -> AnyAccumulator {
    backend().new_accumulator(params.num_orders() as usize)
}

/// Folds the group's emitted span into `acc` (popcount plus one
/// `record_counts`), returning the rows folded.
pub fn span_fold(group: &SpanGroup, h: u32, acc: &mut AnyAccumulator) -> u64 {
    let len = group.len() as u64;
    let plus = group.signs.count_plus(0..group.len());
    acc.record_counts(h, plus, len - plus);
    len
}

/// Heap bytes held by an accumulator.
pub fn acc_bytes(acc: &AnyAccumulator) -> u64 {
    acc.heap_bytes() as u64
}

/// A server for the trusted path with every group registered.
pub fn trusted_server(params: &ProtocolParams, groups: &[SpanGroup]) -> Server {
    let mut server = Server::for_future_rand_schema(*params, backend(), schema());
    for (h, group) in groups.iter().enumerate() {
        for _ in 0..group.len() {
            server.register_user(h as u32);
        }
    }
    server
}

/// A server for the checked path with every user registered by wire id,
/// in ascending user order.
pub fn checked_server(params: &ProtocolParams, groups: &[SpanGroup]) -> Server {
    let mut order = vec![0u32; params.n()];
    for (h, group) in groups.iter().enumerate() {
        for &u in &group.users {
            order[u as usize] = h as u32;
        }
    }
    let mut server = Server::for_future_rand_schema(*params, backend(), schema());
    for (u, &h) in order.iter().enumerate() {
        assert!(server.register_client(u as u32, h), "user ids are unique");
    }
    server
}

/// Merges a shard accumulator into the server.
pub fn absorb_shard(server: &mut Server, acc: &AnyAccumulator) {
    server
        .absorb_shard(acc)
        .expect("shards are cut on the server's backend");
}

/// Closes period `t` and returns its estimate.
pub fn end_of_period(server: &mut Server, t: u64) -> f64 {
    server.end_of_period(t)
}

/// One report through the checked ingestion ladder.
pub fn ingest_checked(server: &mut Server, frame: &Frame) -> Delivery {
    let bit = if frame.bit { Sign::Plus } else { Sign::Minus };
    server.ingest_checked(frame.user, u64::from(frame.t), bit)
}

/// One period's frames through the public replay function.
pub fn replay_frames_checked(server: &mut Server, t: u64, frames: &FrameBatch) -> Vec<Delivery> {
    randomize_future::runtime::ingest::replay_frames_checked(server, t, frames)
}

/// The server's delivery rows so far.
pub fn delivery_log(server: &Server) -> Vec<PeriodDelivery> {
    server.delivery_log().to_vec()
}

// ---------------------------------------------------------------------------
// The streaming ingestion service.
// ---------------------------------------------------------------------------

/// The service in front of a copy of `server`, with the default mailbox
/// capacity.
pub fn ingest_service(server: &Server, workers: usize) -> IngestService {
    IngestService::new(server.clone(), workers, DEFAULT_MAILBOX_CAP)
}

/// A copy of a registered server, for a pass that must start fresh.
pub fn fresh_server(server: &Server) -> Server {
    server.clone()
}

/// Appends `other`'s frames to `batch`.
pub fn append_frames(batch: &mut FrameBatch, other: &FrameBatch) {
    batch.append(other);
}

/// A copy of a frame batch, as a network receive buffer would hold it.
pub fn copy_frames(batch: &FrameBatch) -> FrameBatch {
    batch.clone()
}

/// Streams one frame batch into worker `worker`'s mailbox (blocks while
/// the mailbox is full).
pub fn submit_frames(service: &mut IngestService, worker: usize, batch: FrameBatch) {
    service.submit_frames(worker, batch);
}

/// Closes period `t`, returning the estimate and the period's outcomes.
pub fn close_period(service: &mut IngestService, t: u64) -> (f64, Vec<Delivery>) {
    let close = service
        .close_period(t)
        .expect("service shards share the server's backend and shape");
    (close.estimate, close.outcomes)
}

/// Serializes the whole service (checkpoint).
pub fn snapshot(service: &IngestService) -> Vec<u8> {
    service.snapshot()
}

/// Stops the service's workers and returns its server and accounting.
pub fn finish(service: IngestService) -> (Server, IngestStats) {
    service.finish()
}
