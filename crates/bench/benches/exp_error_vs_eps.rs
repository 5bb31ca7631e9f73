//! T4 — ℓ∞ error versus the privacy budget `ε`.
//!
//! Paper claim (Theorem 4.1): error scales as `1/ε` for both this
//! protocol and Erlingsson et al. (the paper's improvement is in `k`,
//! not in `ε`).
//!
//! Run with `cargo bench --bench exp_error_vs_eps`.

use rtf_baselines::erlingsson::run_erlingsson;
use rtf_bench::{banner, fmt, future_rand, loglog_slope, measure_linf, trials_from_env, Table};
use rtf_core::composed::RandomizerTable;
use rtf_core::params::ProtocolParams;
use rtf_streams::generator::UniformChanges;

fn main() {
    let n = 20_000usize;
    let d = 256u64;
    let k = 8usize;
    let beta = 0.05;
    let trials = trials_from_env(10);

    banner(
        "T4",
        &format!("linf error vs eps   (n={n}, d={d}, k={k}, {trials} trials)"),
        "error ∝ 1/eps for both protocols",
    );

    let epss = [0.125f64, 0.25, 0.5, 1.0];
    let table = Table::new(&[
        ("eps", 7),
        ("future-rand", 12),
        ("err*eps", 10),
        ("erlingsson", 12),
        ("erl/ours", 9),
    ]);

    let mut xs = Vec::new();
    let (mut ours_series, mut erl_series) = (Vec::new(), Vec::new());
    for &eps in &epss {
        let params = ProtocolParams::new(n, d, k, eps, beta).unwrap();
        let gen = UniformChanges::new(d, k, 1.0);
        let ours = measure_linf(
            params,
            &gen,
            trials,
            0x11 + (eps * 1000.0) as u64,
            future_rand(RandomizerTable::Paper),
        );
        let erl = measure_linf(
            params,
            &gen,
            trials,
            0x21 + (eps * 1000.0) as u64,
            run_erlingsson,
        );
        xs.push(eps);
        ours_series.push(ours.mean());
        erl_series.push(erl.mean());
        table.row(&[
            format!("{eps}"),
            fmt(ours.mean()),
            fmt(ours.mean() * eps),
            fmt(erl.mean()),
            format!("{:.2}", erl.mean() / ours.mean()),
        ]);
    }

    let s_ours = loglog_slope(&xs, &ours_series);
    let s_erl = loglog_slope(&xs, &erl_series);
    println!("\nshape: error ∝ eps^slope");
    println!("  future-rand slope = {s_ours:.3}   (paper: -1)");
    println!("  erlingsson  slope = {s_erl:.3}   (paper: -1)");
    let pass = (-1.2..=-0.8).contains(&s_ours) && (-1.2..=-0.8).contains(&s_erl);
    println!(
        "\nresult: {}",
        if pass {
            "shape reproduced. PASS"
        } else {
            "UNEXPECTED SHAPE — see numbers above"
        }
    );
}
