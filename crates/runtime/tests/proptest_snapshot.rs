//! Property tests for the whole-service snapshot format.
//!
//! Over random protocol shapes `(n, d, k, ε)`, worker counts, and
//! snapshot points (mid-period with journals full vs
//! between periods with journals empty):
//!
//! * snapshot → restore → re-snapshot is **byte-identical** (restore is
//!   pure state reconstruction — it never perturbs what it rebuilds);
//! * the restored service finishes the horizon value-for-value with a
//!   control service that never crashed;
//! * corrupted, truncated, or future-versioned bytes are rejected with
//!   a typed [`SnapshotError`] — never a panic, never a silent
//!   misparse.

use proptest::prelude::*;
use rtf_core::params::ProtocolParams;
use rtf_core::server::Server;
use rtf_core::snapshot::SnapshotError;
use rtf_primitives::sign::Sign;
use rtf_runtime::ingest::IngestService;
use rtf_runtime::ReportBatch;

/// A server with `users` order-0 clients registered.
fn trusted_server(params: ProtocolParams, users: u32) -> Server {
    let mut server = Server::for_future_rand(params);
    for _ in 0..users {
        server.register_user(0);
    }
    server
}

/// A deterministic per-period batch: every user reports, signs vary
/// with `(user, period, seed)`.
fn batch_for(t: u64, users: u32, seed: u64) -> ReportBatch {
    let mut batch = ReportBatch::new();
    for u in 0..users {
        let sign = if (u as u64 + t + seed) % 3 == 0 {
            Sign::Minus
        } else {
            Sign::Plus
        };
        batch.push(u, 0, sign);
    }
    batch
}

/// Splits one period's traffic across the service's workers.
fn submit_period(svc: &mut IngestService, t: u64, users: u32, seed: u64) {
    let workers = svc.workers();
    let batch = batch_for(t, users, seed);
    let per = (users as usize).div_ceil(workers).max(1);
    let mut piece = ReportBatch::new();
    let mut w = 0usize;
    for (i, (user, order, sign)) in batch.iter().enumerate() {
        piece.push(user, order, sign);
        if (i + 1) % per == 0 {
            svc.submit_reports(w % workers, std::mem::take(&mut piece));
            w += 1;
        }
    }
    if !piece.is_empty() {
        svc.submit_reports(w % workers, piece);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Roundtrip: a service snapshot at a random point restores to a
    /// byte-identical re-snapshot and finishes the horizon exactly like
    /// an uncrashed control run.
    #[test]
    fn snapshot_roundtrips_and_resumes_exactly(
        users in 4u32..40,
        d_exp in 3u32..5,            // d ∈ {8, 16}
        k in 1usize..3,
        eps_hundredths in 30u64..=100,
        seed in 0u64..10_000,
        workers in 1usize..5,
        snap_frac in 0u64..100,
        mid_period in proptest::bool::ANY,
    ) {
        let d = 1u64 << d_exp;
        let eps = eps_hundredths as f64 / 100.0;
        let params = ProtocolParams::new(users as usize + 1, d, k, eps, 0.05).unwrap();
        let snap_t = 1 + snap_frac * (d - 1) / 100;

        // Control: the same traffic, never crashed.
        let mut control = IngestService::new(
            trusted_server(params, users), workers, 2);
        let mut expect = Vec::new();
        for t in 1..=d {
            submit_period(&mut control, t, users, seed);
            expect.push(control.close_period(t).unwrap().estimate);
        }
        let (control_server, control_stats) = control.finish();

        // Crashed run: snapshot at `snap_t` (mid-period: traffic in
        // journals, close not yet done; else: just after the close),
        // drop the process, restore from bytes.
        let mut svc = IngestService::new(
            trusted_server(params, users), workers, 2);
        let mut estimates = Vec::new();
        let mut bytes = Vec::new();
        for t in 1..=snap_t {
            submit_period(&mut svc, t, users, seed);
            if t == snap_t && mid_period {
                bytes = svc.snapshot();
                break;
            }
            estimates.push(svc.close_period(t).unwrap().estimate);
            if t == snap_t {
                bytes = svc.snapshot();
            }
        }
        drop(svc);

        let mut restored = IngestService::restore(&bytes).unwrap();
        prop_assert_eq!(
            restored.snapshot(), bytes.clone(),
            "re-snapshot after restore must be byte-identical \
             ({} workers, snap at t={}, mid={})",
            workers, snap_t, mid_period
        );
        let resume_from = if mid_period { snap_t } else { snap_t + 1 };
        for t in resume_from..=d {
            if !(mid_period && t == snap_t) {
                submit_period(&mut restored, t, users, seed);
            }
            estimates.push(restored.close_period(t).unwrap().estimate);
        }
        prop_assert_eq!(
            estimates, expect,
            "restored horizon diverges ({} workers, snap at t={}, mid={})",
            workers, snap_t, mid_period
        );
        let (server, stats) = restored.finish();
        prop_assert_eq!(server.reports_ingested(), control_server.reports_ingested());
        prop_assert_eq!(server.estimates(), control_server.estimates());
        prop_assert_eq!(server.delivery_log(), control_server.delivery_log());
        prop_assert_eq!(stats.periods, control_stats.periods);
        prop_assert_eq!(stats.rows, control_stats.rows);
    }

    /// Adversarial bytes: truncation at every prefix length, a bit flip
    /// at a random offset, and a future version stamp are all rejected
    /// with a typed error — never a panic or a silent misparse.
    #[test]
    fn malformed_snapshots_are_rejected_not_misparsed(
        users in 4u32..24,
        seed in 0u64..10_000,
        flip_pos_frac in 0u64..100,
        flip_bit in 0u32..8,
        version in 2u32..u32::MAX,
    ) {
        let params = ProtocolParams::new(users as usize + 1, 8, 1, 1.0, 0.05).unwrap();
        let mut svc = IngestService::new(
            trusted_server(params, users), 2, 2);
        for t in 1..=3u64 {
            submit_period(&mut svc, t, users, seed);
            svc.close_period(t).unwrap();
        }
        submit_period(&mut svc, 4, users, seed); // journals non-empty
        let bytes = svc.snapshot();
        drop(svc);

        // Every strict prefix fails loudly.
        for cut in 0..bytes.len() {
            prop_assert!(
                IngestService::restore(&bytes[..cut]).is_err(),
                "truncation to {} bytes must be rejected", cut
            );
        }
        // Any single-bit flip fails loudly (checksum).
        let pos = (flip_pos_frac as usize * (bytes.len() - 1)) / 100;
        let mut evil = bytes.clone();
        evil[pos] ^= 1 << flip_bit;
        prop_assert!(
            IngestService::restore(&evil).is_err(),
            "bit {} of byte {} flipped must be rejected", flip_bit, pos
        );
        // A future version is named precisely.
        let mut vers = bytes.clone();
        vers[8..12].copy_from_slice(&version.to_le_bytes());
        prop_assert_eq!(
            IngestService::restore(&vers).err(),
            Some(SnapshotError::UnsupportedVersion { found: version })
        );
        // The pristine bytes still restore and re-snapshot identically.
        let restored = IngestService::restore(&bytes).unwrap();
        prop_assert_eq!(restored.snapshot(), bytes);
    }
}
