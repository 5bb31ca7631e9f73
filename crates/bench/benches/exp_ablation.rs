//! T9 — ablations over FutureRand's design choices.
//!
//! Four knobs, each isolating one design decision of Section 5:
//!
//!   (a) **annulus conditioning** — without the resample step, composing
//!       `k` copies of `RR(ε̃)` spends `k·ε̃ = ε√k/5` of budget, blowing
//!       past `ε` for `k > 25`; the annulus buys the `√k` composition.
//!   (b) **the constant in `ε̃ = ε/(c√k)`** — the paper proves `c = 5`
//!       suffices; the exact audit shows how much slack that leaves and
//!       what a tighter constant would buy in `c_gap`.
//!   (c) **hierarchy** — replacing the dyadic hierarchy with flat
//!       per-period reporting (everyone at order 0) makes the error grow
//!       with `√t` instead of `polylog d`.
//!   (d) **per-order `k_eff = min(k, L)`** — the bounded-support argument
//!       (Section 5.4) lets high orders use a smaller sparsity parameter;
//!       compare against instantiating every order with the global `k`.
//!
//! Run with `cargo bench --bench exp_ablation`.

use rtf_bench::{banner, fmt, future_rand, measure_linf, trials_from_env, Table};
use rtf_core::composed::{ComposedRandomizer, RandomizerTable};
use rtf_core::gap::WeightClassLaw;
use rtf_core::params::ProtocolParams;
use rtf_core::protocol::{run_clients, ProtocolOutcome};
use rtf_core::randomizer::{FutureRand, LocalRandomizer};
use rtf_core::server::Server;
use rtf_primitives::seeding::SeedSequence;
use rtf_streams::generator::UniformChanges;
use rtf_streams::population::Population;

/// Flat variant: every user reports every period at order 0; the server
/// integrates per-period sums. Unbiased, but the noise accumulates.
fn run_flat(params: &ProtocolParams, population: &Population, seed: u64) -> ProtocolOutcome {
    let d = params.d();
    let k = params.k();
    let composed = ComposedRandomizer::for_protocol(k, params.epsilon());
    let c_gap = composed.c_gap();
    let root = SeedSequence::new(seed);
    let mut per_period = vec![0.0f64; d as usize + 1];
    for u in 0..params.n() {
        let mut rng = root.child(u as u64).rng();
        let mut m = FutureRand::init(d as usize, &composed, &mut rng);
        let x = population.stream(u).derivative();
        for t in 1..=d {
            let bit = m.next(x.at(t));
            per_period[t as usize] += bit.as_f64();
        }
    }
    let mut estimates = Vec::with_capacity(d as usize);
    let mut acc = 0.0;
    for &sum in per_period.iter().skip(1) {
        acc += sum / c_gap;
        estimates.push(acc);
    }
    ProtocolOutcome::from_parts(estimates, vec![params.n()], params.n() as u64 * d)
}

/// Hierarchical variant with the *global* `k` at every order (no
/// `min(k, L)` refinement).
fn run_global_k(params: &ProtocolParams, population: &Population, seed: u64) -> ProtocolOutcome {
    let k = params.k();
    let composed = ComposedRandomizer::for_protocol(k, params.epsilon());
    let gaps = vec![composed.c_gap(); params.num_orders() as usize];
    let mut server = Server::new(*params, &gaps);
    run_clients(params, population, seed, &mut server, |h, _, mut rng| {
        FutureRand::init(params.sequence_len(h), &composed, &mut rng)
    })
}

fn main() {
    let trials = trials_from_env(8);

    banner(
        "T9",
        "design ablations: annulus, eps~ constant, hierarchy, per-order k_eff",
        "Section 5's choices are necessary: each ablation loses privacy or accuracy",
    );

    // ---- (a) annulus conditioning on/off (exact, no sampling) ----------
    println!("\n(a) annulus conditioning (exact):\n");
    let ta = Table::new(&[
        ("k", 6),
        ("gap(cond)", 11),
        ("gap(uncond)", 12),
        ("eps(cond)", 10),
        ("eps(uncond)", 12),
        ("uncond ok?", 11),
    ]);
    for &k in &[4usize, 16, 25, 64, 256, 1024] {
        let eps = 1.0;
        let law = WeightClassLaw::for_protocol(k, eps);
        let eps_tilde = law.eps_tilde();
        // Unconditioned product of k independent RR(ε̃): realized ε is
        // exactly k·ε̃; gap is tanh(ε̃/2).
        let uncond_eps = k as f64 * eps_tilde;
        let uncond_gap = (eps_tilde / 2.0).tanh();
        ta.row(&[
            k.to_string(),
            format!("{:.6}", law.c_gap()),
            format!("{uncond_gap:.6}"),
            format!("{:.3}", law.realized_epsilon()),
            format!("{uncond_eps:.3}"),
            if uncond_eps <= eps {
                "yes".into()
            } else {
                "VIOLATES eps".into()
            },
        ]);
    }
    println!("  → the conditioning keeps ~the same gap while capping the privacy loss at eps.");

    // ---- (b) the constant in ε̃ = ε/(c√k) ------------------------------
    println!(
        "\n(b) constant sweep eps~ = eps/(c*sqrt k), exact realized eps (worst over k grid):\n"
    );
    let tb = Table::new(&[
        ("c", 6),
        ("worst realized/eps", 19),
        ("gap at k=64", 12),
        ("vs c=5", 8),
        ("eps-LDP?", 9),
    ]);
    let k_grid = [1usize, 2, 4, 8, 16, 64, 256, 1024, 4096];
    let gap_c5 = WeightClassLaw::new(64, 1.0 / (5.0 * 8.0)).c_gap();
    let mut best_feasible_c = f64::INFINITY;
    for &c in &[2.0f64, 2.25, 2.5, 3.0, 4.0, 5.0, 6.0] {
        let mut worst = 0.0f64;
        for &k in &k_grid {
            let et = 1.0 / (c * (k as f64).sqrt());
            let realized = WeightClassLaw::new(k, et).realized_epsilon();
            worst = worst.max(realized);
        }
        let gap64 = WeightClassLaw::new(64, 1.0 / (c * 8.0)).c_gap();
        let ok = worst <= 1.0 + 1e-9;
        if ok {
            best_feasible_c = best_feasible_c.min(c);
        }
        tb.row(&[
            format!("{c}"),
            format!("{worst:.3}"),
            format!("{gap64:.6}"),
            format!("{:.2}x", gap64 / gap_c5),
            if ok { "yes".into() } else { "no".into() },
        ]);
    }
    println!(
        "  → the paper's c = 5 is safe but conservative; c ≈ {best_feasible_c} already \
         suffices on this grid, roughly doubling c_gap."
    );

    // ---- (c) hierarchy vs flat reporting -------------------------------
    // Flat error integrates per-period noise (∝ √(d·n)), the hierarchy
    // pays polylog d; the gap widens with d, so measure at d = 1024.
    let n = 20_000usize;
    let d = 1024u64;
    let k = 8usize;
    let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
    let gen = UniformChanges::new(d, k, 1.0);
    println!(
        "\n(c) hierarchy vs flat per-period reporting (n={n}, d={d}, k={k}, {trials} trials):\n"
    );
    let paper = future_rand(RandomizerTable::Paper);
    let hier = measure_linf(params, &gen, trials, 0x9A, paper);
    let flat = measure_linf(params, &gen, trials, 0x9B, run_flat);
    let tc = Table::new(&[
        ("variant", 14),
        ("linf error", 12),
        ("(std)", 10),
        ("vs hier", 9),
    ]);
    tc.row(&[
        "hierarchical".into(),
        fmt(hier.mean()),
        fmt(hier.std()),
        "1.00x".into(),
    ]);
    tc.row(&[
        "flat".into(),
        fmt(flat.mean()),
        fmt(flat.std()),
        format!("{:.2}x", flat.mean() / hier.mean()),
    ]);
    println!("  → flat error integrates noise over time (∝ sqrt(d·n)/c_gap), the hierarchy caps it at polylog d.");

    // ---- (d) per-order k_eff = min(k, L) vs global k --------------------
    let n2 = 6_000usize;
    let d = 256u64;
    let params2 = ProtocolParams::new(n2, d, k, 1.0, 0.05).unwrap();
    let gen = UniformChanges::new(d, k, 1.0);
    println!(
        "\n(d) per-order k_eff = min(k, L) vs global k (n={n2}, d={d}, k={k}, {trials} trials):\n"
    );
    let per_order = measure_linf(params2, &gen, trials, 0x9C, paper);
    let global = measure_linf(params2, &gen, trials, 0x9D, run_global_k);
    let td = Table::new(&[
        ("variant", 16),
        ("linf error", 12),
        ("(std)", 10),
        ("vs k_eff", 9),
    ]);
    td.row(&[
        "k_eff=min(k,L)".into(),
        fmt(per_order.mean()),
        fmt(per_order.std()),
        "1.00x".into(),
    ]);
    td.row(&[
        "global k".into(),
        fmt(global.mean()),
        fmt(global.std()),
        format!("{:.2}x", global.mean() / per_order.mean()),
    ]);
    println!("  → a mild but free win: high orders have short sequences, so their randomizers can use smaller k.");

    println!("\nresult: ablations quantified. PASS");
}
