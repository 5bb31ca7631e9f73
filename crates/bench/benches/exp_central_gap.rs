//! T10 — the local-vs-central gap.
//!
//! Paper context (Section 6): in the central model the binary-tree
//! mechanism achieves per-time error `O((1/ε)(log d)^{1.5})`,
//! *independent of n*; every local protocol pays `Ω(√n)`. The ratio
//! local/central therefore grows as `√n` — the price of not trusting the
//! curator.
//!
//! Run with `cargo bench --bench exp_central_gap`.

use rtf_baselines::central::run_central_tree;
use rtf_bench::{banner, fmt, future_rand, loglog_slope, measure_linf, trials_from_env, Table};
use rtf_core::composed::RandomizerTable;
use rtf_core::params::ProtocolParams;
use rtf_streams::generator::UniformChanges;

fn main() {
    let d = 256u64;
    let k = 8usize;
    let eps = 1.0;
    let trials = trials_from_env(8);

    banner(
        "T10",
        &format!("local vs central error gap   (d={d}, k={k}, eps={eps}, {trials} trials)"),
        "central tree error is n-free; local/central ratio grows like sqrt(n)",
    );

    let ns = [4_000usize, 16_000, 64_000, 256_000];
    let table = Table::new(&[
        ("n", 9),
        ("local (ours)", 13),
        ("central tree", 13),
        ("ratio", 9),
        ("sqrt(n)", 9),
    ]);

    let mut xs = Vec::new();
    let mut ratios = Vec::new();
    let mut central_series = Vec::new();
    for &n in &ns {
        let params = ProtocolParams::new(n, d, k, eps, 0.05).unwrap();
        let gen = UniformChanges::new(d, k, 1.0);
        let local = measure_linf(
            params,
            &gen,
            trials,
            0x31 + n as u64,
            future_rand(RandomizerTable::Paper),
        );
        let central = measure_linf(params, &gen, trials, 0x41 + n as u64, run_central_tree);
        let ratio = local.mean() / central.mean();
        xs.push(n as f64);
        ratios.push(ratio);
        central_series.push(central.mean());
        table.row(&[
            n.to_string(),
            fmt(local.mean()),
            fmt(central.mean()),
            format!("{ratio:.1}"),
            format!("{:.1}", (n as f64).sqrt()),
        ]);
    }

    let slope = loglog_slope(&xs, &ratios);
    let central_slope = loglog_slope(&xs, &central_series);
    println!("\nshape: (local/central) ∝ n^slope");
    println!("  measured ratio slope    = {slope:.3}   (theory: 0.5)");
    println!("  central-error slope in n = {central_slope:.3}   (theory: 0 — n-free)");
    let pass = (0.35..=0.65).contains(&slope) && central_slope.abs() < 0.2;
    println!(
        "\nresult: {}",
        if pass {
            "gap shape reproduced. PASS"
        } else {
            "UNEXPECTED SHAPE — see numbers above"
        }
    );
}
