//! Whole-service crash recovery, end to end — snapshot, kill, restore,
//! resume, bit-for-bit.
//!
//! Where `live_service` survives a single worker crash via journal
//! replay, this demo kills the **entire service process** — twice — and
//! proves the run still lands exactly where an uncrashed one does:
//!
//! 1. a chaos plan restarts the service mid-period at `t = d/2` (open
//!    journals, un-flushed worker shards), kills a worker in the same
//!    period, and restarts again cleanly after `t = 3d/4`; the streamed
//!    estimates are **bit-identical** to the offline batched engine's,
//!    and every configured fault is proven to have fired;
//! 2. a hand-driven service is snapshot mid-period; the restored copy
//!    re-snapshots to **byte-identical** bytes and both the original
//!    and the clone finish the horizon with identical estimates;
//! 3. with `RTF_SNAPSHOT_DIR` set, the same snapshot roundtrips
//!    through a file on disk.
//!
//! ```text
//! cargo run --release --example snapshot_restart
//! # knobs: RTF_WORKERS=8 RTF_SNAPSHOT_DIR=/tmp/rtf ...
//! ```

use randomize_future::core::server::Server;
use randomize_future::prelude::*;
use randomize_future::runtime::ingest::{IngestService, LiveConfig};
use randomize_future::runtime::ReportBatch;
use randomize_future::scenarios::{run, Mode, RunSpec};
use rtf_primitives::sign::Sign;
use std::time::Instant;

fn main() {
    let n = 50_000usize;
    let d = 32u64;
    let k = 3usize;
    let params = ProtocolParams::new(n, d, k, 1.0, 0.05).expect("valid parameters");
    let workers = ExecMode::from_env_or_parallel().workers();
    let restart_at = d / 2;
    let later = d * 3 / 4;
    let config = LiveConfig::new(workers)
        .with_restart(restart_at)
        .with_kill(workers - 1, restart_at)
        .with_restart_after(later);

    println!(
        "snapshot/restart: n={n}, d={d}, k={k}, workers={workers} — \
         service restarted mid-period t={restart_at} (plus a worker kill), \
         clean restart after t={later}"
    );
    let t0 = Instant::now();
    let mut rng = SeedSequence::new(77).rng();
    let population = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
    println!(
        "  population generated in {:.2}s",
        t0.elapsed().as_secs_f64()
    );

    // Proof 1: the twice-restarted, once-killed streaming run is the
    // offline batched run, value for value.
    let t1 = Instant::now();
    let spec = RunSpec::new(&params, &population, 7171, Mode::Live(config));
    let live = run(&spec);
    let stats = live.ingest.expect("live runs report their ledger");
    println!(
        "  horizon served across 2 process generations in {:.2}s — {} restarts, \
         {} worker recovery, {} journalled batches replayed",
        t1.elapsed().as_secs_f64(),
        stats.restarts,
        stats.recoveries,
        stats.replayed_batches,
    );
    let offline = run(&spec.with_mode(Mode::Batched(workers)));
    live.assert_values_eq(&offline, "restarted streaming vs the offline pipeline");
    assert_eq!(stats.restarts, 2, "both configured restarts must fire");
    assert_eq!(stats.recoveries, 1, "the worker kill must fire");
    assert!(stats.replayed_batches > 0, "replay must have happened");

    // Proof 2: the snapshot format itself — snapshot a hand-driven
    // service mid-period, restore it, and race the two copies to the
    // end of the horizon.
    let users = 64u32;
    let small = ProtocolParams::new(users as usize + 1, 8, 1, 1.0, 0.05).unwrap();
    let mut server = Server::for_future_rand(small);
    for _ in 0..users {
        server.register_user(0);
    }
    let mut svc = IngestService::new(server, 2, 4);
    let feed = |svc: &mut IngestService, t: u64| {
        let mut batch = ReportBatch::new();
        for u in 0..users {
            let sign = if (u as u64 + t) % 3 == 0 {
                Sign::Minus
            } else {
                Sign::Plus
            };
            batch.push(u, 0, sign);
        }
        svc.submit_reports((t % 2) as usize, batch);
    };
    for t in 1..=4u64 {
        feed(&mut svc, t);
        svc.close_period(t).unwrap();
    }
    feed(&mut svc, 5); // period 5 is open: journals non-empty
    let bytes = svc.snapshot();
    let mut clone = IngestService::restore(&bytes).expect("own snapshot restores");
    assert_eq!(
        clone.snapshot(),
        bytes,
        "restore must re-snapshot byte-identically"
    );
    let mut a = Vec::new();
    let mut b = Vec::new();
    for t in 5..=8u64 {
        if t > 5 {
            feed(&mut svc, t);
            feed(&mut clone, t);
        }
        a.push(svc.close_period(t).unwrap().estimate);
        b.push(clone.close_period(t).unwrap().estimate);
    }
    assert_eq!(a, b, "original and restored clone must agree bit-for-bit");
    println!(
        "  {}-byte snapshot restored byte-identically; original and clone \
         agree on periods 5..=8",
        bytes.len()
    );

    // Proof 3 (optional): the file-backed convenience, gated on
    // RTF_SNAPSHOT_DIR.
    match svc.write_snapshot_file("snapshot_restart.rtfsnap") {
        Ok(Some(path)) => {
            let from_disk = IngestService::restore_from_file(&path).expect("file restores");
            assert_eq!(from_disk.workers(), svc.workers());
            println!("  file roundtrip via {} OK", path.display());
        }
        Ok(None) => println!("  RTF_SNAPSHOT_DIR unset — file roundtrip skipped"),
        Err(e) => panic!("snapshot file write failed: {e}"),
    }
    println!("  PASS");
}
