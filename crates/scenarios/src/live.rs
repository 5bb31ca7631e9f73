//! The live (streaming) drivers: both engines' schedules served through
//! the **streaming ingestion service** (`rtf_runtime::ingest`).
//!
//! * [`event`] drives the event engine's order groups (the one
//!   client-construction path, `rtf_sim::engine::build_order_groups`):
//!   every period, each shard's due reports are chunked into columnar
//!   batches and streamed into the owning worker's bounded mailbox
//!   (blocking when full — backpressure, never loss), and the period is
//!   closed by flushing every worker's shard accumulator into the server
//!   via `Server::close_period_with_shards`.
//! * [`checked`] drives the checked engine's emission schedule — the same
//!   reference clients ([`Clients`](rtf_core::client::Clients)) stepped
//!   in the same order, and the fault plan's `ClientPlan::emit` asked at
//!   every period, as in the sequential engine — but turns each routed
//!   message into a columnar frame and delivers each period's surviving
//!   frames through the service: frames are routed to the mailbox of the
//!   worker owning their *emitting* client, buffered per worker, and at
//!   period close merged back into the exact sequential mailbox order
//!   (`FrameBatch::merge_ordered`) before the server's checked ingestion
//!   classifies every frame.
//!
//! Frame order is load-bearing under Byzantine impersonation (an
//! accepted forgery displaces the honest report it races), so the merge
//! is what makes the streaming outcome **value-for-value identical** to
//! the sequential and batched engines — estimates, delivery log, wire
//! stats, fault counts — for every worker count, mailbox capacity,
//! chunk size, and across injected worker kills and whole-service
//! snapshot/restarts (journal replay restores the lost buffers
//! exactly). Proven by [`crate::oracle::assert_live_agreement`] and the
//! [`crate::chaos`] proptest suite.
//!
//! Unlike the batched engine's span-native layer, the checked live
//! driver keeps the per-frame route — every report crosses the
//! ingestion service individually because the service's contract
//! (mailbox backpressure, journaled recovery) is per-message by design.
//! The span-native fold is an offline-throughput optimisation; the live
//! path is the fidelity reference for deployment semantics, and both are
//! pinned to the same sequential oracle.
//!
//! Both drivers are private to [`crate::run`], which checks their inputs
//! (population shape, timeline, fault periods) before calling them.

use crate::config::FaultTimeline;
use crate::engine::{dispatch_frame, reference_clients};
use crate::plan::FaultPlan;
use rtf_core::composed::ComposedRandomizer;
use rtf_core::params::ProtocolParams;
use rtf_core::server::{Delivery, Server};
use rtf_primitives::fastseed::SeedSchema;
use rtf_primitives::seeding::SeedSequence;
use rtf_runtime::ingest::{IngestService, LiveConfig};
use rtf_runtime::{shard_of, FrameBatch, ReportBatch, WorkerPool};
use rtf_sim::engine::build_order_groups;
use rtf_sim::message::WireStats;
use rtf_sim::{FaultCounts, Outcome};
use rtf_streams::population::Population;

/// The event engine's schedule through the streaming ingestion service
/// configured by `config`.
pub(crate) fn event(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    config: &LiveConfig,
) -> Outcome {
    let composed = ComposedRandomizer::per_order(params);
    let root = SeedSequence::new(seed);
    let d = params.d();
    let workers = config.workers.max(1);
    let chunk = config.chunk_rows.max(1);

    let mut server = Server::for_future_rand(*params);
    let mut wire = WireStats::default();

    // Per worker shard, clients grouped by order (the one shared
    // construction path of the batched engine — RNG consumption must be
    // identical for the streaming ≡ batched ≡ sequential proof), built
    // on the pool exactly as `rtf_sim::engine::batched` builds them: the same
    // partition, returned in shard order.
    let mut shard_groups = WorkerPool::new(workers).map_shards(params.n(), |shard| {
        build_order_groups(
            params,
            population,
            &composed,
            &root,
            shard.range(),
            SeedSchema::V2Fast,
        )
    });
    for groups in &shard_groups {
        for (h, group) in groups.iter().enumerate() {
            for _ in 0..group.len() {
                server.register_user(h as u32);
                wire.record_announcement();
            }
        }
    }

    // Registration is complete; the service takes the server and runs
    // the horizon online.
    let mut service = IngestService::new(server, workers, config.mailbox_cap);
    let mut estimates = Vec::with_capacity(d as usize);
    for t in 1..=d {
        let max_h = t.trailing_zeros().min(params.log_d());
        for (w, groups) in shard_groups.iter_mut().enumerate() {
            let mut batch = ReportBatch::with_capacity(chunk);
            for h in 0..=max_h {
                let group = &mut groups[h as usize];
                if group.is_empty() {
                    continue;
                }
                group.emit_span(t);
                // Chunk-split bulk appends: fill the in-flight batch to
                // exactly `chunk` rows before each flush — the same
                // batch-size pattern the per-row loop produced.
                let len = group.len();
                let mut a = 0usize;
                while a < len {
                    let take = (chunk - batch.len()).min(len - a);
                    batch.extend_packed(
                        &group.users[a..a + take],
                        h as u8,
                        &group.signs,
                        a..a + take,
                    );
                    a += take;
                    if batch.len() >= chunk {
                        wire.record_report_batch(batch.len() as u64);
                        let full = std::mem::replace(&mut batch, ReportBatch::with_capacity(chunk));
                        service.submit_reports(w, full);
                    }
                }
            }
            if !batch.is_empty() {
                wire.record_report_batch(batch.len() as u64);
                service.submit_reports(w, batch);
            }
        }
        // Faults strike after this period's traffic is in flight and
        // before the close — the worst moment (mid-period restarts and
        // kills must recover from journals alone).
        service = config.apply_pre_close(service, t);
        let close = service
            .close_period(t)
            .expect("service shards share the server's shape");
        estimates.push(close.estimate);
        service = config.apply_post_close(service, t);
    }

    let (server, stats) = service.finish();
    Outcome {
        estimates,
        group_sizes: server.group_sizes().to_vec(),
        wire,
        acc_bytes: stats.flushed_acc_bytes,
        ingest: Some(stats),
        ..Outcome::default()
    }
}

/// The checked engine's schedule under `timeline` through the streaming
/// ingestion service configured by `config`.
pub(crate) fn checked(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    timeline: &FaultTimeline,
    config: &LiveConfig,
) -> Outcome {
    let plan = FaultPlan::new(params, seed, timeline);
    let d = params.d();
    let n = params.n();
    let workers = config.workers.max(1);
    let chunk = config.chunk_rows.max(1);

    // Build and register clients exactly like the sequential engine (same
    // RNG order, same fault plan), so honest bits and fault decisions are
    // identical.
    let mut server = Server::for_future_rand(*params);
    let mut wire = WireStats::default();
    let mut faults = FaultCounts::default();
    let (mut clients, mut plans) = reference_clients(
        params,
        population,
        seed,
        &plan,
        &mut server,
        &mut wire,
        &mut faults,
    );

    // Registration is complete; the service runs the horizon online. The
    // driver plays the network: `pending[t]` holds the frames the
    // network will deliver during period `t`, appended in emission order
    // (ascending `(emitted, emitter)` by construction of the loop).
    let mut service = IngestService::new(server, workers, config.mailbox_cap);
    let mut pending: Vec<FrameBatch> = (0..=d as usize).map(|_| FrameBatch::new()).collect();
    let mut estimates = Vec::with_capacity(d as usize);
    let mut byz_accepted_by_period = vec![0u64; d as usize];

    for t in 1..=d {
        // Emission: identical to the sequential engine, frame for frame.
        clients.step(t, |u, _, report| {
            if let Some((msg, byzantine, routing)) = plans[u].emit(u as u32, t, report, &mut faults)
            {
                dispatch_frame(
                    msg,
                    t,
                    u as u32,
                    byzantine,
                    routing,
                    &mut faults,
                    |at, frame| pending[at as usize].push(frame),
                );
            }
        });

        // Intake: stream this period's deliveries to the mailbox of the
        // worker owning each frame's *emitter*, in chunks, in one pass.
        // Any split works — the period-close merge restores the total
        // order — but emitter affinity is the deployment shape: a worker
        // fronts its own clients.
        let delivered = std::mem::take(&mut pending[t as usize]);
        let mut pieces: Vec<FrameBatch> = (0..workers).map(|_| FrameBatch::new()).collect();
        for frame in delivered.iter() {
            let w = shard_of(n, workers, frame.emitter as usize);
            pieces[w].push(frame);
            if pieces[w].len() >= chunk {
                service.submit_frames(w, std::mem::take(&mut pieces[w]));
            }
        }
        for (w, piece) in pieces.into_iter().enumerate() {
            if !piece.is_empty() {
                service.submit_frames(w, piece);
            }
        }

        // Faults strike after this period's frames are in flight and
        // before the close — recovery must come from journals alone.
        service = config.apply_pre_close(service, t);
        let close = service
            .close_period(t)
            .expect("service shards share the server's shape");
        wire.record_report_batch(close.frames.len() as u64);
        for (frame, outcome) in close.frames.iter().zip(&close.outcomes) {
            if frame.byzantine && *outcome == Delivery::Accepted {
                faults.byzantine_accepted += 1;
                byz_accepted_by_period[(t - 1) as usize] += 1;
            }
        }
        estimates.push(close.estimate);
        service = config.apply_post_close(service, t);
    }

    let (server, stats) = service.finish();
    Outcome {
        estimates,
        group_sizes: server.group_sizes().to_vec(),
        wire,
        delivery: server.delivery_log().to_vec(),
        faults,
        byzantine_accepted_by_period: byz_accepted_by_period,
        ingest: Some(stats),
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{DelayLaw, FaultTimeline, Scenario};
    use crate::run_spec::{run, Mode, RunSpec};
    use rtf_core::params::ProtocolParams;
    use rtf_primitives::seeding::SeedSequence;
    use rtf_runtime::ingest::LiveConfig;
    use rtf_sim::{FaultCounts, Outcome};
    use rtf_streams::generator::UniformChanges;
    use rtf_streams::population::Population;

    fn setup(n: usize, d: u64, k: usize, seed: u64) -> (ProtocolParams, Population) {
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        (params, pop)
    }

    fn storm() -> Scenario {
        Scenario::honest()
            .with_dropout(0.05)
            .with_churn(0.01)
            .with_stragglers(0.15, 3)
            .with_duplicates(0.1)
            .with_byzantine(0.15)
    }

    /// Runs `spec` live under `config`, asserts its values equal the
    /// sequential run of the same spec, and returns the live outcome.
    fn live_equals_sequential(spec: &RunSpec, config: LiveConfig, label: &str) -> Outcome {
        let seq = run(&spec.clone().with_mode(Mode::Sequential));
        let live = run(&spec.clone().with_mode(Mode::Live(config)));
        live.assert_values_eq(&seq, label);
        live
    }

    #[test]
    fn live_matches_sequential_for_every_worker_count() {
        let (params, pop) = setup(150, 32, 3, 90);
        let spec = RunSpec::new(&params, &pop, 13, Mode::Sequential);
        for workers in [1usize, 2, 3, 8] {
            let label = format!("{workers} workers");
            live_equals_sequential(&spec, LiveConfig::new(workers), &label);
        }
    }

    #[test]
    fn backpressure_and_chunking_never_change_values() {
        let (params, pop) = setup(120, 16, 2, 91);
        let spec = RunSpec::new(&params, &pop, 5, Mode::Sequential);
        for (cap, chunk) in [(1usize, 1usize), (1, 7), (2, 3), (64, 1000)] {
            let cfg = LiveConfig::new(3)
                .with_mailbox_cap(cap)
                .with_chunk_rows(chunk);
            let live = live_equals_sequential(&spec, cfg, &format!("cap {cap}, chunk {chunk}"));
            let stats = live.ingest.expect("live runs report their ledger");
            assert_eq!(stats.periods, 16);
            assert_eq!(stats.rows, live.wire.payload_bits, "every report streamed");
        }
    }

    #[test]
    fn worker_kill_mid_horizon_recovers_exactly() {
        let (params, pop) = setup(140, 32, 3, 92);
        let spec = RunSpec::new(&params, &pop, 23, Mode::Sequential);
        for workers in [1usize, 2, 8] {
            let cfg = LiveConfig::new(workers)
                .with_mailbox_cap(2)
                .with_chunk_rows(5)
                .with_kill(workers.saturating_sub(1), 16);
            let live = live_equals_sequential(&spec, cfg, &format!("{workers} workers"));
            let stats = live.ingest.unwrap();
            assert_eq!(stats.recoveries, 1, "{workers} workers");
            assert!(stats.replayed_batches > 0, "journal replay must happen");
        }
    }

    #[test]
    fn service_restart_mid_horizon_recovers_exactly() {
        let (params, pop) = setup(140, 32, 3, 94);
        let spec = RunSpec::new(&params, &pop, 29, Mode::Sequential);
        for workers in [1usize, 2, 8] {
            // A mid-period restart at t=16 (journals full), a clean
            // restart after t=24 closes, and a worker kill at t=20 —
            // every composition must still be value-for-value exact.
            let cfg = LiveConfig::new(workers)
                .with_mailbox_cap(2)
                .with_chunk_rows(5)
                .with_restart(16)
                .with_kill(workers + 1, 20)
                .with_restart_after(24);
            let live = live_equals_sequential(&spec, cfg, &format!("{workers} workers"));
            let stats = live.ingest.unwrap();
            assert_eq!(stats.restarts, 2, "{workers} workers: both restarts fired");
            assert_eq!(stats.recoveries, 1, "{workers} workers: the kill fired");
            assert!(
                stats.replayed_batches > 0,
                "{workers} workers: the mid-period restart replays journals"
            );
        }
    }

    #[test]
    fn fast_schema_live_matches_fast_schema_sequential_through_faults() {
        let (params, pop) = setup(140, 32, 3, 96);
        let spec = RunSpec::new(&params, &pop, 37, Mode::Sequential);
        for workers in [1usize, 2, 8] {
            // Mid-period restart + kill: the snapshot/restore cycle
            // carries the service across the counter stream unchanged.
            let cfg = LiveConfig::new(workers)
                .with_mailbox_cap(2)
                .with_chunk_rows(5)
                .with_restart(16)
                .with_kill(0, 20);
            let live = live_equals_sequential(&spec, cfg, &format!("{workers} workers"));
            let stats = live.ingest.unwrap();
            assert_eq!(stats.restarts, 1, "{workers} workers");
            assert_eq!(stats.recoveries, 1, "{workers} workers");
        }
    }

    #[test]
    fn off_horizon_fault_config_is_rejected() {
        let (params, pop) = setup(60, 8, 2, 95);
        let cfg = LiveConfig::new(2).with_restart(9);
        let caught =
            std::panic::catch_unwind(|| run(&RunSpec::new(&params, &pop, 1, Mode::Live(cfg))));
        assert!(caught.is_err(), "a fault that can never fire must panic");
    }

    #[test]
    fn live_matches_sequential_under_a_fault_storm() {
        let (params, pop) = setup(130, 32, 3, 68);
        let spec = RunSpec::new(&params, &pop, 19, Mode::Sequential).with_scenario(&storm());
        for workers in [1usize, 2, 3, 8] {
            let live = live_equals_sequential(
                &spec,
                LiveConfig::new(workers),
                &format!("{workers} workers"),
            );
            assert!(
                live.faults.byzantine_accepted > 0,
                "the storm must exercise the order-sensitive acceptance race"
            );
        }
    }

    #[test]
    fn live_honest_scenario_matches_the_honest_engine() {
        let (params, pop) = setup(100, 16, 2, 69);
        let spec =
            RunSpec::new(&params, &pop, 7, Mode::Sequential).with_scenario(&Scenario::honest());
        let live = live_equals_sequential(&spec, LiveConfig::new(4), "honest");
        assert_eq!(live.faults, FaultCounts::default());
        let event = run(&RunSpec::new(&params, &pop, 7, Mode::Sequential));
        assert_eq!(live.estimates, event.estimates);
        assert_eq!(live.wire, event.wire);
    }

    #[test]
    fn worker_kill_mid_storm_recovers_exactly() {
        let (params, pop) = setup(120, 32, 3, 70);
        let spec = RunSpec::new(&params, &pop, 11, Mode::Sequential).with_scenario(&storm());
        for workers in [1usize, 2, 8] {
            let cfg = LiveConfig::new(workers)
                .with_mailbox_cap(1)
                .with_chunk_rows(4)
                .with_kill(0, 16);
            let live = live_equals_sequential(&spec, cfg, &format!("kill at w={workers}"));
            assert_eq!(live.ingest.unwrap().recoveries, 1);
        }
    }

    #[test]
    fn service_restart_mid_storm_recovers_exactly() {
        // The hardest composition: restart the whole service mid-period
        // while the storm is raging (journals hold frames whose order is
        // load-bearing), then kill a worker in the same period later,
        // then restart again cleanly between periods.
        let (params, pop) = setup(120, 32, 3, 71);
        let spec = RunSpec::new(&params, &pop, 17, Mode::Sequential).with_scenario(&storm());
        for workers in [1usize, 2, 8] {
            let cfg = LiveConfig::new(workers)
                .with_mailbox_cap(2)
                .with_chunk_rows(4)
                .with_restart(12)
                .with_kill(workers.saturating_sub(1), 12)
                .with_restart_after(20);
            let live = live_equals_sequential(&spec, cfg, &format!("restart at w={workers}"));
            assert!(
                live.faults.byzantine_accepted > 0,
                "the storm must exercise the order-sensitive acceptance race"
            );
            let stats = live.ingest.unwrap();
            assert_eq!(stats.restarts, 2, "w={workers}: both restarts fired");
            assert_eq!(stats.recoveries, 1, "w={workers}: the kill fired");
        }
    }

    #[test]
    fn live_matches_sequential_on_a_shaped_timeline() {
        let (params, pop) = setup(120, 32, 3, 74);
        let base = Scenario::honest().with_byzantine(0.1);
        let rows: Vec<Scenario> = (1..=32u64)
            .map(|t| {
                let mut row = base;
                if (10..=18).contains(&t) {
                    row = row.with_dropout(0.25).with_duplicates(0.2);
                }
                row.with_stragglers(0.15, 5)
            })
            .collect();
        let timeline =
            FaultTimeline::shaped(base, rows).with_delay_law(DelayLaw::Zipf { alpha: 2.0 });
        let spec = RunSpec::new(&params, &pop, 29, Mode::Sequential).with_timeline(timeline);
        for workers in [1usize, 2, 8] {
            let cfg = LiveConfig::new(workers)
                .with_mailbox_cap(2)
                .with_chunk_rows(7);
            let live = live_equals_sequential(&spec, cfg, &format!("shaped, {workers} workers"));
            assert!(live.faults.dropped > 0 && live.faults.delayed > 0);
        }
    }
}
