//! Quickstart: track how many of `n` users hold a Boolean flag, every
//! period, under ε-local differential privacy.
//!
//! Local privacy is expensive: any ε-LDP longitudinal protocol pays
//! `Ω(√(k·n))/ε` absolute error, so meaningful accuracy needs a large
//! population. This example runs `n = 2·10⁶` users through the batched
//! event engine (one worker per hardware thread unless `RTF_WORKERS`
//! says otherwise) and reports both absolute and relative error next to
//! the rigorous error envelope.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use randomize_future::analysis::metrics::linf_error;
use randomize_future::core::gap::WeightClassLaw;
use randomize_future::core::params::ProtocolParams;
use randomize_future::primitives::seeding::SeedSequence;
use randomize_future::runtime::ExecMode;
use randomize_future::scenarios::{run, Mode, RunSpec};
use randomize_future::streams::generator::UniformChanges;
use randomize_future::streams::population::Population;

fn main() {
    // Protocol parameters: n users, d periods (power of two), each user's
    // flag changes at most k times, privacy budget ε, failure prob. β.
    let params = ProtocolParams::builder()
        .n(2_000_000)
        .d(64)
        .k(2)
        .epsilon(1.0)
        .beta(0.05)
        .build()
        .expect("valid parameters");

    println!("params: {params}");
    println!(
        "Theorem 4.1 assumption satisfied: {}",
        params.satisfies_theorem_4_1_assumption()
    );

    // A synthetic population: each user flips its flag ≤ k times at
    // uniformly random periods.
    let generator = UniformChanges::new(params.d(), params.k(), 0.75);
    let mut rng = SeedSequence::new(7).rng();
    let population = Population::generate(&generator, params.n(), &mut rng);

    // Run the full online protocol (clients perturb locally; the server
    // never sees raw data).
    let mode = Mode::from(ExecMode::from_env_or_parallel());
    let outcome = run(&RunSpec::new(&params, &population, 42, mode));

    // Compare the private estimates against the ground truth.
    let truth = population.true_counts();
    let estimates = &outcome.estimates;
    println!("\n  t      truth    estimate   |error|   rel. to n");
    for t in (0..params.d() as usize).step_by(8) {
        let err = (estimates[t] - truth[t]).abs();
        println!(
            "{:4} {:10.0} {:11.0} {:9.0} {:10.4}",
            t + 1,
            truth[t],
            estimates[t],
            err,
            err / params.n() as f64
        );
    }

    // The rigorous all-periods error envelope (Lemma 4.6's proof with the
    // exact per-order preservation gaps).
    let worst_scale = (0..params.num_orders())
        .map(|h| {
            let gap = WeightClassLaw::for_protocol(params.k_for_order(h), params.epsilon()).c_gap();
            (1.0 + f64::from(params.log_d())) / gap
        })
        .fold(0.0f64, f64::max);
    let envelope = worst_scale
        * (2.0 * params.n() as f64 * (2.0 * params.d() as f64 / params.beta()).ln()).sqrt();

    let err = linf_error(estimates, truth);
    println!(
        "\nmax_t |a^[t] - a[t]|   = {err:11.0}  ({:.2}% of n)",
        100.0 * err / params.n() as f64
    );
    println!("error envelope (94%)   = {envelope:11.0}  (rigorous, exact constants)");
    println!(
        "Theorem 4.1 shape      = {:11.0}  (constant-free)",
        params.error_bound_theorem_4_1()
    );
    let reports = outcome.wire.payload_bits;
    println!(
        "total report bits      = {reports} ({:.2} bits/user/period)",
        reports as f64 / (params.n() as f64 * params.d() as f64)
    );
    println!(
        "\nprivacy: each user is {} -LDP over ALL {} periods — no decay.",
        params.epsilon(),
        params.d()
    );
}
