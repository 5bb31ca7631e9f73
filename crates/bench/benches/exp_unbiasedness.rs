//! T8 — unbiasedness of the server's estimator.
//!
//! Paper claims (Observation 4.3, Equation 12): `E[c_gap^{-1}·M(v)] = v`
//! for every input value, hence `E[Ŝ(I)] = S(I)` and `E[â[t]] = a[t]`.
//! Measured by averaging over many protocol runs on one fixed population
//! and comparing the bias against its Monte-Carlo confidence radius.
//!
//! Run with `cargo bench --bench exp_unbiasedness`.

use rtf_baselines::erlingsson::run_erlingsson;
use rtf_baselines::independent::run_independent;
use rtf_bench::{banner, future_rand, trials_from_env, Table};
use rtf_core::composed::RandomizerTable;
use rtf_core::params::ProtocolParams;
use rtf_core::protocol::ProtocolOutcome;
use rtf_primitives::seeding::SeedSequence;
use rtf_streams::generator::UniformChanges;
use rtf_streams::population::Population;

fn mean_bias_and_sigma<F>(
    params: &ProtocolParams,
    pop: &Population,
    trials: u64,
    run: F,
) -> (f64, f64)
where
    F: Fn(&ProtocolParams, &Population, u64) -> ProtocolOutcome,
{
    let d = params.d() as usize;
    let mut mean = vec![0.0; d];
    let mut m2 = vec![0.0; d];
    for s in 0..trials {
        let o = run(params, pop, 40_000 + s);
        for (t, &e) in o.estimates().iter().enumerate() {
            mean[t] += e;
            m2[t] += e * e;
        }
    }
    // Worst absolute bias across periods, and its largest per-period
    // standard error (for the CI check).
    let mut worst_bias = 0.0f64;
    let mut worst_sigma = 0.0f64;
    for t in 0..d {
        let m = mean[t] / trials as f64;
        let var = (m2[t] / trials as f64 - m * m).max(0.0);
        let se = (var / trials as f64).sqrt();
        let bias = (m - pop.true_counts()[t]).abs();
        if bias > worst_bias {
            worst_bias = bias;
            worst_sigma = se;
        }
        worst_sigma = worst_sigma.max(se);
    }
    (worst_bias, worst_sigma)
}

fn main() {
    let trials = trials_from_env(10) as u64 * 60;
    let n = 600usize;
    let d = 16u64;
    let k = 3usize;
    let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
    let mut rng = SeedSequence::new(808).rng();
    let pop = Population::generate(&UniformChanges::new(d, k, 1.0), n, &mut rng);

    banner(
        "T8",
        &format!("estimator unbiasedness   (n={n}, d={d}, k={k}, {trials} runs per protocol)"),
        "Obs. 4.3 / Eq. 12: E[a^[t]] = a[t] for every t (exact c_gap on the server)",
    );

    let table = Table::new(&[
        ("protocol", 14),
        ("max |bias|", 12),
        ("5*std-err", 12),
        ("verdict", 10),
    ]);
    let mut all_pass = true;
    type Runner = Box<dyn Fn(&ProtocolParams, &Population, u64) -> ProtocolOutcome>;
    let cases: Vec<(&str, Runner)> = vec![
        ("future-rand", Box::new(future_rand(RandomizerTable::Paper))),
        ("erlingsson20", Box::new(run_erlingsson)),
        ("independent", Box::new(run_independent)),
    ];
    for (name, run) in cases {
        let (bias, sigma) = mean_bias_and_sigma(&params, &pop, trials, run);
        // The worst of d periods: use a 5-sigma radius (Bonferroni-ish).
        let ok = bias <= 5.0 * sigma;
        all_pass &= ok;
        table.row(&[
            name.into(),
            format!("{bias:.2}"),
            format!("{:.2}", 5.0 * sigma),
            if ok {
                "unbiased".into()
            } else {
                "BIASED".into()
            },
        ]);
    }

    println!(
        "\nresult: {}",
        if all_pass {
            "all estimators are unbiased within Monte-Carlo resolution. PASS"
        } else {
            "BIAS DETECTED — investigate!"
        }
    );
    assert!(all_pass);
}
