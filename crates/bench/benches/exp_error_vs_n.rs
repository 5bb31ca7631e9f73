//! T3 — ℓ∞ error versus the population size `n`.
//!
//! Paper claim (Theorem 4.1): absolute error grows as `√n`, i.e. the
//! relative error shrinks as `1/√n` — local privacy is affordable only at
//! scale. Every point runs the batched event engine, one worker per
//! trial, up to a million users.
//!
//! Run with `cargo bench --bench exp_error_vs_n`.

use rtf_bench::{banner, fmt, future_rand, loglog_slope, measure_linf, trials_from_env, Table};
use rtf_core::composed::RandomizerTable;
use rtf_core::params::ProtocolParams;
use rtf_streams::generator::UniformChanges;

fn main() {
    let d = 256u64;
    let k = 8usize;
    let eps = 1.0;
    let beta = 0.05;
    let trials = trials_from_env(8);

    banner(
        "T3",
        &format!("linf error vs n   (d={d}, k={k}, eps={eps}, {trials} trials)"),
        "absolute error ∝ sqrt(n); relative error ∝ 1/sqrt(n)",
    );

    let ns = [4_000usize, 16_000, 64_000, 256_000, 1_024_000];
    let table = Table::new(&[
        ("n", 9),
        ("linf error", 12),
        ("(std)", 10),
        ("error/n", 10),
        ("error/sqrt(n)", 13),
    ]);

    let mut xs = Vec::new();
    let mut series = Vec::new();
    for &n in &ns {
        let params = ProtocolParams::new(n, d, k, eps, beta).unwrap();
        let gen = UniformChanges::new(d, k, 1.0);
        let r = measure_linf(
            params,
            &gen,
            trials,
            0xAB + n as u64,
            future_rand(RandomizerTable::Paper),
        );
        xs.push(n as f64);
        series.push(r.mean());
        table.row(&[
            n.to_string(),
            fmt(r.mean()),
            fmt(r.std()),
            format!("{:.4}", r.mean() / n as f64),
            fmt(r.mean() / (n as f64).sqrt()),
        ]);
    }

    let slope = loglog_slope(&xs, &series);
    println!("\nshape: error ∝ n^slope");
    println!("  measured slope = {slope:.3}   (paper: 0.5)");
    let pass = (0.4..=0.6).contains(&slope);
    println!(
        "\nresult: {}",
        if pass {
            "shape reproduced. PASS"
        } else {
            "UNEXPECTED SHAPE — see numbers above"
        }
    );
}
