//! T2 — ℓ∞ error versus the horizon `d`.
//!
//! Paper claim (Theorem 4.1): error grows polylogarithmically in `d`
//! (`∝ log d` for ours, `∝ (log d)^{3/2}` for Erlingsson et al.), in
//! contrast with the naive `ε/d` split whose error grows linearly in `d`.
//!
//! Run with `cargo bench --bench exp_error_vs_d`.

use rtf_baselines::erlingsson::run_erlingsson;
use rtf_baselines::naive::run_naive_split;
use rtf_bench::{banner, fmt, future_rand, loglog_slope, measure_linf, trials_from_env, Table};
use rtf_core::composed::RandomizerTable;
use rtf_core::params::ProtocolParams;
use rtf_streams::generator::UniformChanges;

fn main() {
    let n = 20_000usize;
    let k = 8usize;
    let eps = 1.0;
    let beta = 0.05;
    let trials = trials_from_env(8);

    banner(
        "T2",
        &format!("linf error vs d   (n={n}, k={k}, eps={eps}, {trials} trials)"),
        "ours ∝ log d; Erlingsson ∝ (log d)^1.5; naive eps/d split ∝ d",
    );

    let ds = [16u64, 64, 256, 1024, 4096];
    let table = Table::new(&[
        ("d", 6),
        ("log2 d", 7),
        ("future-rand", 12),
        ("erlingsson", 12),
        ("naive-split", 12),
        ("ours/log d", 11),
        ("naive/ours", 11),
    ]);

    let mut log_ds = Vec::new();
    let mut ds_f = Vec::new();
    let (mut ours_series, mut erl_series, mut naive_series) = (Vec::new(), Vec::new(), Vec::new());
    for &d in &ds {
        let params = ProtocolParams::new(n, d, k, eps, beta).unwrap();
        let gen = UniformChanges::new(d, k, 1.0);
        let paper = future_rand(RandomizerTable::Paper);
        let ours = measure_linf(params, &gen, trials, 0xD1 + d, paper);
        let erl = measure_linf(params, &gen, trials, 0xE1 + d, run_erlingsson);
        let naive = measure_linf(params, &gen, trials, 0xF1 + d, run_naive_split);
        let log_d = (d as f64).log2();
        log_ds.push(log_d);
        ds_f.push(d as f64);
        ours_series.push(ours.mean());
        erl_series.push(erl.mean());
        naive_series.push(naive.mean());
        table.row(&[
            d.to_string(),
            format!("{log_d:.0}"),
            fmt(ours.mean()),
            fmt(erl.mean()),
            fmt(naive.mean()),
            fmt(ours.mean() / log_d),
            format!("{:.2}", naive.mean() / ours.mean()),
        ]);
    }

    // Shape in log d: ours should be ≈ linear in log d (slope ≈ 1 in
    // ln(log d)); Erlingsson ≈ 1.5; naive ≈ linear in d (slope 1 in ln d).
    let s_ours = loglog_slope(&log_ds, &ours_series);
    let s_erl = loglog_slope(&log_ds, &erl_series);
    let s_naive_in_d = loglog_slope(&ds_f, &naive_series);
    println!("\nshape: error ∝ (log d)^slope   [naive measured against d itself]");
    println!("  future-rand slope in log d = {s_ours:.3}   (paper: ~1, plus the sqrt(ln(d/beta)) factor)");
    println!("  erlingsson  slope in log d = {s_erl:.3}   (paper: ~1.5, plus the same factor)");
    println!("  naive-split slope in d     = {s_naive_in_d:.3}   (theory: ~1)");
    // The √ln(d/β) factor inflates both polylog slopes a little; accept a
    // generous band and require the separations.
    let pass = s_ours < s_erl && s_naive_in_d > 0.7 && (0.6..=2.0).contains(&s_ours);
    println!(
        "\nresult: {}",
        if pass {
            "shape reproduced. PASS"
        } else {
            "UNEXPECTED SHAPE — see numbers above"
        }
    );
}
