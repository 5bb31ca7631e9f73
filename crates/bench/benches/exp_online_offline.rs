//! T7 — the pre-computation trick: online FutureRand ≡ offline `R̃`.
//!
//! Paper claim (Sections 5.3–5.4): drawing `b̃ = R̃(1^k)` ahead of time
//! and emitting `v_j · b̃_nnz` online yields *exactly* the law of the
//! offline composed randomizer applied to the non-zero coordinates —
//! including when the input has fewer than `k` non-zeros.
//!
//! Checks here:
//!   1. exact output pmf of the online algorithm (closed form) vs Monte
//!      Carlo of the real implementation (chi-square);
//!   2. the two sampling paths of `R̃` (literal per-coordinate vs
//!      weight-class) agree (chi-square on weight histograms);
//!   3. per-coordinate marginals: gap `c_gap` on support, exactly `½` off
//!      support.
//!
//! Run with `cargo bench --bench exp_online_offline`.

use rand::SeedableRng;
use rtf_analysis::distribution::futurerand_output_pmf;
use rtf_analysis::stats::{chi_square_critical_999, chi_square_stat, tv_distance};
use rtf_bench::{banner, trials_from_env, Table};
use rtf_core::composed::ComposedRandomizer;
use rtf_core::gap::WeightClassLaw;
use rtf_core::randomizer::{FutureRand, LocalRandomizer};
use rtf_primitives::sign::{Sign, Ternary};

fn main() {
    let draws = trials_from_env(10) * 20_000;
    banner(
        "T7",
        &format!("online FutureRand ≡ offline composed randomizer ({draws} draws per case)"),
        "Sections 5.3-5.4: the pre-computed b~ makes the online law identical to the offline one",
    );

    println!("\n(1) online implementation vs exact offline pmf (chi-square / TV):\n");
    let table = Table::new(&[
        ("L", 4),
        ("k", 4),
        ("|supp|", 7),
        ("chi2", 10),
        ("crit(99.9%)", 12),
        ("TV", 9),
        ("verdict", 8),
    ]);
    let cases: Vec<(usize, usize, Vec<Ternary>)> = vec![
        (
            4,
            2,
            vec![Ternary::Plus, Ternary::Zero, Ternary::Minus, Ternary::Zero],
        ),
        (
            4,
            2,
            vec![Ternary::Zero, Ternary::Plus, Ternary::Zero, Ternary::Zero],
        ), // |supp| < k
        (4, 2, vec![Ternary::Zero; 4]), // |supp| = 0
        (
            6,
            3,
            vec![
                Ternary::Minus,
                Ternary::Zero,
                Ternary::Plus,
                Ternary::Zero,
                Ternary::Minus,
                Ternary::Zero,
            ],
        ),
    ];
    let mut all_pass = true;
    for (case_idx, (l, k, v)) in cases.into_iter().enumerate() {
        let exact = futurerand_output_pmf(l, k, 1.0, &v);
        let composed = ComposedRandomizer::for_protocol(k, 1.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(900 + case_idx as u64);
        let mut counts = vec![0u64; 1 << l];
        for _ in 0..draws {
            let mut m = FutureRand::init(l, &composed, &mut rng);
            let mut omega = 0usize;
            for (j, &vj) in v.iter().enumerate() {
                if m.next(vj) == Sign::Plus {
                    omega |= 1 << j;
                }
            }
            counts[omega] += 1;
        }
        let expected: Vec<f64> = exact.iter().map(|p| p * draws as f64).collect();
        let (chi2, dof) = chi_square_stat(&counts, &expected, 5.0);
        let crit = chi_square_critical_999(dof);
        let empirical: Vec<f64> = counts.iter().map(|&c| c as f64 / draws as f64).collect();
        let tv = tv_distance(&empirical, &exact);
        let ok = chi2 < crit;
        all_pass &= ok;
        table.row(&[
            l.to_string(),
            k.to_string(),
            v.iter().filter(|t| t.is_nonzero()).count().to_string(),
            format!("{chi2:.1}"),
            format!("{crit:.1}"),
            format!("{tv:.4}"),
            if ok { "ok".into() } else { "MISMATCH".into() },
        ]);
    }

    println!("\n(2) literal per-coordinate path vs weight-class path of R~:\n");
    let t2 = Table::new(&[("k", 4), ("chi2", 10), ("crit(99.9%)", 12), ("verdict", 8)]);
    for &k in &[6usize, 12] {
        let r = ComposedRandomizer::for_protocol(k, 0.8);
        let b = vec![Sign::Minus; k];
        let mut rng = rand::rngs::StdRng::seed_from_u64(77 + k as u64);
        let mut literal = vec![0u64; k + 1];
        let mut by_class = vec![0u64; k + 1];
        for _ in 0..draws {
            let hamming = |out: &[Sign]| out.iter().zip(&b).filter(|(x, y)| x != y).count();
            literal[hamming(&r.randomize(&b, &mut rng))] += 1;
            by_class[hamming(&r.randomize_weight_class(&b, &mut rng))] += 1;
        }
        // Compare the literal path against the exact law.
        let expected: Vec<f64> = (0..=k)
            .map(|w| r.law().class_prob(w) * draws as f64)
            .collect();
        let (chi_a, dof_a) = chi_square_stat(&literal, &expected, 5.0);
        let (chi_b, dof_b) = chi_square_stat(&by_class, &expected, 5.0);
        let (crit_a, crit_b) = (
            chi_square_critical_999(dof_a),
            chi_square_critical_999(dof_b),
        );
        let ok = chi_a < crit_a && chi_b < crit_b;
        all_pass &= ok;
        t2.row(&[
            k.to_string(),
            format!("{chi_a:.1}/{chi_b:.1}"),
            format!("{crit_a:.1}"),
            if ok { "ok".into() } else { "MISMATCH".into() },
        ]);
    }

    println!("\n(3) per-coordinate marginals of the online randomizer:\n");
    let t3 = Table::new(&[
        ("k", 4),
        ("measured gap", 13),
        ("exact c_gap", 12),
        ("zero-slot bias", 15),
        ("verdict", 8),
    ]);
    for &k in &[2usize, 5] {
        let composed = ComposedRandomizer::for_protocol(k, 1.0);
        let exact = WeightClassLaw::for_protocol(k, 1.0).c_gap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(55 + k as u64);
        let mut gap_acc = 0i64;
        let mut zero_acc = 0i64;
        for _ in 0..draws {
            let mut m = FutureRand::init(3, &composed, &mut rng);
            let out_nz = m.next(Ternary::Minus);
            let out_zero = m.next(Ternary::Zero);
            gap_acc += if out_nz == Sign::Minus { 1 } else { -1 };
            zero_acc += if out_zero == Sign::Plus { 1 } else { -1 };
        }
        let gap = gap_acc as f64 / draws as f64;
        let zero_bias = zero_acc as f64 / draws as f64;
        let tol = 6.0 / (draws as f64).sqrt();
        let ok = (gap - exact).abs() < tol && zero_bias.abs() < tol;
        all_pass &= ok;
        t3.row(&[
            k.to_string(),
            format!("{gap:.5}"),
            format!("{exact:.5}"),
            format!("{zero_bias:.5}"),
            if ok { "ok".into() } else { "MISMATCH".into() },
        ]);
    }

    println!(
        "\nresult: {}",
        if all_pass {
            "online and offline laws agree everywhere. PASS"
        } else {
            "DISTRIBUTION MISMATCH — investigate!"
        }
    );
    assert!(all_pass);
}
