//! T1 — ℓ∞ error versus the change bound `k`.
//!
//! Paper claim (Theorem 4.1 vs Section 1): this paper's error scales as
//! `√k`, Erlingsson et al.'s as `k` — so the ratio grows as `√k` and
//! FutureRand eventually wins. The framework + Example 4.2 randomizer
//! ("independent") also scales as `k`, isolating the composed
//! randomizer's contribution.
//!
//! Run with `cargo bench --bench exp_error_vs_k`.

use rtf_baselines::erlingsson::run_erlingsson;
use rtf_baselines::independent::run_independent;
use rtf_bench::{banner, fmt, future_rand, loglog_slope, measure_linf, trials_from_env, Table};
use rtf_core::bounds;
use rtf_core::composed::RandomizerTable;
use rtf_core::params::ProtocolParams;
use rtf_streams::generator::UniformChanges;

fn main() {
    let n = 20_000usize;
    let d = 256u64;
    let eps = 1.0;
    let beta = 0.05;
    let trials = trials_from_env(10);

    banner(
        "T1",
        &format!("linf error vs k   (n={n}, d={d}, eps={eps}, {trials} trials)"),
        "ours O((log d/eps)*sqrt(k n ln(d/beta))) vs Erlingsson O((1/eps)(log d)^1.5 k sqrt(n log(d/beta)))",
    );

    let ks = [1usize, 2, 4, 8, 16, 32, 64];
    let table = Table::new(&[
        ("k", 4),
        ("future-rand", 12),
        ("(std)", 9),
        ("erlingsson", 12),
        ("independent", 12),
        ("erl/ours", 9),
        ("sqrt(k)", 8),
        ("bound-ratio", 11),
    ]);

    let mut xs = Vec::new();
    let (mut ours_series, mut erl_series, mut ind_series) = (Vec::new(), Vec::new(), Vec::new());
    for &k in &ks {
        let params = ProtocolParams::new(n, d, k, eps, beta).unwrap();
        let gen = UniformChanges::new(d, k, 1.0);
        let ours = measure_linf(
            params,
            &gen,
            trials,
            0xA1 + k as u64,
            future_rand(RandomizerTable::Paper),
        );
        let erl = measure_linf(params, &gen, trials, 0xB1 + k as u64, run_erlingsson);
        let ind = measure_linf(params, &gen, trials, 0xC1 + k as u64, run_independent);
        xs.push(k as f64);
        ours_series.push(ours.mean());
        erl_series.push(erl.mean());
        ind_series.push(ind.mean());
        table.row(&[
            k.to_string(),
            fmt(ours.mean()),
            fmt(ours.std()),
            fmt(erl.mean()),
            fmt(ind.mean()),
            format!("{:.2}", erl.mean() / ours.mean()),
            format!("{:.2}", (k as f64).sqrt()),
            format!(
                "{:.2}",
                ours.mean() / bounds::future_rand_bound(n, d, k, eps, beta)
            ),
        ]);
    }

    let s_ours = loglog_slope(&xs, &ours_series);
    let s_erl = loglog_slope(&xs, &erl_series);
    let s_ind = loglog_slope(&xs, &ind_series);
    println!("\nshape: error ∝ k^slope");
    println!("  future-rand slope = {s_ours:.3}   (paper: 0.5)");
    println!("  erlingsson  slope = {s_erl:.3}   (paper: 1.0)");
    println!("  independent slope = {s_ind:.3}   (paper: ~1.0, Example 4.2)");
    let crossover = xs
        .iter()
        .zip(ours_series.iter().zip(&erl_series))
        .find(|(_, (o, e))| e > o)
        .map(|(k, _)| *k);
    println!(
        "  FutureRand overtakes Erlingsson at k ≈ {}",
        crossover.map_or("<not in sweep>".into(), |k| format!("{k}")),
    );

    let pass = (0.3..=0.7).contains(&s_ours) && s_erl > 0.75;
    println!(
        "\nresult: {}",
        if pass {
            "shape reproduced. PASS"
        } else {
            "UNEXPECTED SHAPE — see numbers above"
        }
    );
}
