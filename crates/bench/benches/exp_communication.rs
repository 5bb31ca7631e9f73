//! T11 — communication cost.
//!
//! Paper context (Sections 1/4.2): every report is a single bit; a user
//! at order `h` reports `d/2^h` times, so the expected per-user payload is
//! `E[d/2^h] = Σ_h (d/2^h)/(1+log d) ≈ 2d/(1+log d)` bits over the whole
//! horizon — under 2 bits per period even for small `d`, versus exactly
//! `d` bits (1/period) for naive repeated reporting.
//!
//! Measured through the event-driven engine, which serialises every
//! message and counts real framed bytes as well as payload bits.
//!
//! Run with `cargo bench --bench exp_communication`.

use rtf_bench::{banner, trials_from_env, Table};
use rtf_core::params::ProtocolParams;
use rtf_primitives::seeding::SeedSequence;
use rtf_scenarios::{run, Mode, RunSpec};
use rtf_streams::generator::UniformChanges;
use rtf_streams::population::Population;

fn main() {
    let n = 2_000usize;
    let k = 4usize;
    let trials = trials_from_env(4).min(8);

    banner(
        "T11",
        &format!("communication cost (event-driven, serialised messages; n={n}, k={k})"),
        "one bit per completed interval: ~2d/(1+log d) payload bits per user vs d for naive",
    );

    let table = Table::new(&[
        ("d", 6),
        ("bits/user", 11),
        ("theory", 9),
        ("bits/user/period", 17),
        ("naive", 7),
        ("wire B/user", 12),
        ("msgs", 10),
    ]);
    for &d in &[64u64, 128, 256, 512, 1024] {
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let gen = UniformChanges::new(d, k, 0.8);
        let mut bits = 0.0;
        let mut bytes = 0.0;
        let mut msgs = 0.0;
        for s in 0..trials {
            let mut rng = SeedSequence::new(600 + s as u64).rng();
            let pop = Population::generate(&gen, n, &mut rng);
            let out = run(&RunSpec::new(
                &params,
                &pop,
                700 + s as u64,
                Mode::from_env(),
            ));
            bits += out.wire.payload_bits as f64 / trials as f64;
            bytes += out.wire.wire_bytes as f64 / trials as f64;
            msgs += out.wire.messages as f64 / trials as f64;
        }
        let per_user = bits / n as f64;
        let orders = 1.0 + (d as f64).log2();
        // E[d/2^h] = (d/orders)·Σ_h 2^{-h} = (d/orders)·(2 − 2^{-log d}).
        let theory = (d as f64 / orders) * (2.0 - 1.0 / d as f64);
        table.row(&[
            d.to_string(),
            format!("{per_user:.1}"),
            format!("{theory:.1}"),
            format!("{:.3}", per_user / d as f64),
            format!("{d}"),
            format!("{:.1}", bytes / n as f64),
            format!("{:.0}", msgs),
        ]);
        assert!(
            (per_user - theory).abs() < 0.1 * theory,
            "payload {per_user} far from theory {theory} at d={d}"
        );
    }

    println!("\nresult: one-bit reports, ~2d/(1+log d) per user — matches the cost model. PASS");
}
