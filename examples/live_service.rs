//! The streaming ingestion service, end to end — intake, backpressure,
//! a worker crash, exact recovery.
//!
//! Where `million_users` runs the offline batched pipeline over the
//! whole horizon, this demo runs the deployment the paper actually
//! describes: a **long-running service**. Every period, each ingestion
//! worker's bounded mailbox receives its shard's due reports in small
//! columnar chunks (producers block while a mailbox is full — nothing is
//! ever dropped), shard accumulators are flushed into the server at
//! period close, and halfway through the horizon one worker is killed
//! mid-period and rebuilt from the delivery-log journal.
//!
//! The run then proves three things:
//!
//! 1. the streamed estimates are **bit-identical** to the offline
//!    batched engine's (recovery included),
//! 2. exactly one recovery happened and its journal replay was non-empty,
//! 3. the estimates sit inside the closed-form variance envelope.
//!
//! ```text
//! cargo run --release --example live_service
//! # knobs: RTF_WORKERS=8 RTF_MAILBOX_CAP=4 ...
//! ```

use randomize_future::prelude::*;
use randomize_future::runtime::ingest::LiveConfig;
use randomize_future::scenarios::oracle::{assert_within_band, tolerance_band};
use randomize_future::scenarios::{run, Mode, RunSpec};
use std::time::Instant;

fn main() {
    let n = 200_000usize;
    let d = 64u64;
    let k = 4usize;
    let params = ProtocolParams::new(n, d, k, 1.0, 0.05).expect("valid parameters");
    let workers = ExecMode::from_env_or_parallel().workers();
    let kill_at = d / 2;
    // LiveConfig::new already reads RTF_MAILBOX_CAP for the mailboxes.
    let config = LiveConfig::new(workers).with_kill(workers - 1, kill_at);

    println!(
        "live service: n={n}, d={d}, k={k}, eps=1.0, workers={workers}, \
         mailbox cap {} x {} rows/batch",
        config.mailbox_cap, config.chunk_rows
    );
    let t0 = Instant::now();
    let mut rng = SeedSequence::new(64).rng();
    let population = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
    println!(
        "  population generated in {:.2}s",
        t0.elapsed().as_secs_f64()
    );

    let t1 = Instant::now();
    let spec = RunSpec::new(&params, &population, 4242, Mode::Live(config));
    let live = run(&spec);
    let stats = live.ingest.expect("live runs report their ledger");
    let elapsed = t1.elapsed().as_secs_f64();
    let reports = live.wire.payload_bits;
    println!(
        "  horizon served in {elapsed:.2}s — {} periods, {reports} reports in {} batches, \
         {:.1}M reports/sec sustained",
        stats.periods,
        stats.batches,
        reports as f64 / elapsed / 1e6,
    );
    println!(
        "  worker {} killed mid-period at t={kill_at}: {} recovery, {} journalled \
         batches replayed",
        workers - 1,
        stats.recoveries,
        stats.replayed_batches,
    );

    // Proof 1: the streamed run is the batched run, value for value —
    // crash and recovery included.
    let offline = run(&spec.with_mode(Mode::Batched(workers)));
    live.assert_values_eq(&offline, "streaming vs the offline pipeline");

    // Proof 2: the failure actually struck and was recovered from.
    assert_eq!(stats.recoveries, 1, "exactly one injected worker kill");
    assert!(
        stats.replayed_batches > 0,
        "the journal replay must have restored in-flight batches"
    );

    // Proof 3: the estimates are still correct, not merely consistent.
    let truth = population.true_counts();
    let band = tolerance_band(&params, &population, 5.0);
    assert_within_band(&live.estimates, truth, &band);
    let err = linf_error(&live.estimates, truth);
    println!(
        "  linf error {err:.0} — inside the closed-form 5-sigma envelope; streamed estimates \
         bit-identical to the offline pipeline. PASS"
    );
}
