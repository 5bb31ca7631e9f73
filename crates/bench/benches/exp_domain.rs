//! T12 — richer domains: categorical frequency tracking and heavy
//! hitters via element sampling.
//!
//! Paper context (Section 1): "our algorithm can be adapted to solve
//! frequency estimation and heavy hitter problems in richer domains via
//! existing techniques". The element-sampled adaptation (`rtf-domain`)
//! inherits `ε`-LDP and pays `√D` in per-element error:
//! each element is estimated from `≈ n/D` users and rescaled by `D`, so
//! per-element error `∝ D·√(n/D)·scale = √(D·n)·scale`.
//!
//! Run with `cargo bench --bench exp_domain`.

use rtf_bench::{banner, fmt, loglog_slope, trials_from_env, Table};
use rtf_core::composed::RandomizerTable;
use rtf_domain::generator::ZipfChurn;
use rtf_domain::heavy::precision_at_r;
use rtf_domain::protocol::{run_domain_tracker, DomainParams};
use rtf_primitives::seeding::SeedSequence;

fn max_element_error(
    outcome: &rtf_domain::protocol::DomainOutcome,
    pop: &rtf_domain::population::CategoricalPopulation,
) -> f64 {
    outcome
        .estimates()
        .iter()
        .zip(pop.true_counts())
        .flat_map(|(est, truth)| est.iter().zip(truth).map(|(e, t)| (e - t).abs()))
        .fold(0.0, f64::max)
}

fn main() {
    let trials = trials_from_env(6);
    banner(
        "T12",
        "categorical domains: error vs D, heavy hitters vs n",
        "element sampling inherits eps-LDP; per-element error ~ sqrt(D n); top-1 recovery improves with n",
    );

    // ---- (a) error vs domain size D ------------------------------------
    let n = 60_000usize;
    let d = 64u64;
    let k = 2usize;
    println!(
        "\n(a) max per-element error vs domain size D (n={n}, d={d}, k={k}, {trials} trials):\n"
    );
    let ta = Table::new(&[
        ("D", 5),
        ("max |err|", 11),
        ("err/sqrt(D)", 12),
        ("min assigned", 13),
    ]);
    let mut xs = Vec::new();
    let mut series = Vec::new();
    for &dom in &[2u32, 4, 8, 16, 32] {
        let params = DomainParams {
            n,
            d,
            k,
            domain: dom,
            epsilon: 1.0,
            beta: 0.05,
            table: RandomizerTable::Paper,
        };
        let g = ZipfChurn::new(d, dom, k, 1.0);
        let mut err = 0.0;
        let mut min_assigned = usize::MAX;
        for s in 0..trials as u64 {
            let mut rng = SeedSequence::new(500 + s).rng();
            let pop = g.population(n, &mut rng);
            let o = run_domain_tracker(&params, &pop, 900 + s);
            err += max_element_error(&o, &pop) / trials as f64;
            min_assigned = min_assigned.min(*o.assigned().iter().min().unwrap());
        }
        xs.push(dom as f64);
        series.push(err);
        ta.row(&[
            dom.to_string(),
            fmt(err),
            fmt(err / (dom as f64).sqrt()),
            min_assigned.to_string(),
        ]);
    }
    let slope = loglog_slope(&xs, &series);
    println!("  error ∝ D^slope: measured {slope:.3} (theory: 0.5)");

    // ---- (b) heavy-hitter precision vs n --------------------------------
    let dom = 8u32;
    println!("\n(b) heavy hitters: precision@1 / precision@3 at t=d vs n (D={dom}, Zipf 1.8, {trials} trials):\n");
    let tb = Table::new(&[("n", 9), ("prec@1", 8), ("prec@3", 8)]);
    for &nn in &[20_000usize, 80_000, 320_000] {
        let params = DomainParams {
            n: nn,
            d,
            k,
            domain: dom,
            epsilon: 1.0,
            beta: 0.05,
            table: RandomizerTable::Paper,
        };
        let g = ZipfChurn::new(d, dom, k, 1.8);
        let (mut p1, mut p3) = (0.0, 0.0);
        for s in 0..trials as u64 {
            let mut rng = SeedSequence::new(800 + s).rng();
            let pop = g.population(nn, &mut rng);
            let o = run_domain_tracker(&params, &pop, 100 + s);
            p1 += precision_at_r(&o, &pop, d, 1) / trials as f64;
            p3 += precision_at_r(&o, &pop, d, 3) / trials as f64;
        }
        tb.row(&[nn.to_string(), format!("{p1:.2}"), format!("{p3:.2}")]);
    }
    println!("  → precision improves with n, top-1 earliest (largest margin).");

    let pass = (0.25..=0.75).contains(&slope);
    println!(
        "\nresult: {}",
        if pass {
            "domain adaptation shapes reproduced. PASS"
        } else {
            "UNEXPECTED SHAPE — see numbers above"
        }
    );
}
