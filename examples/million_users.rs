//! One million clients through the batched parallel pipeline.
//!
//! The deployment the paper is written for: `n = 10⁶` users reporting
//! one perturbed bit per completed dyadic interval over `d = 64`
//! periods. This demo runs the full event-driven schedule — every client
//! state machine, every report — through `ExecMode::Parallel`, prints
//! the sustained reports/sec, and asserts the estimates stay inside the
//! closed-form variance envelope of `rtf-analysis` (the protocol is
//! unbiased, so a `z·σ[t]` band around the truth must hold at every
//! period).
//!
//! ```text
//! cargo run --release --example million_users
//! # worker count: RTF_WORKERS=8 cargo run --release --example million_users
//! ```

use randomize_future::analysis::metrics::linf_error;
use randomize_future::analysis::variance::predicted_variance;
use randomize_future::prelude::*;
use randomize_future::scenarios::oracle::{assert_within_band, tolerance_band};
use randomize_future::scenarios::{run, Mode, RunSpec};
use std::time::Instant;

fn main() {
    let n = 1_000_000usize;
    let d = 64u64;
    let k = 4usize;
    let params = ProtocolParams::new(n, d, k, 1.0, 0.05).expect("valid parameters");
    let mode = ExecMode::from_env_or_parallel();

    println!("million users: n={n}, d={d}, k={k}, eps=1.0, mode={mode}");
    let t0 = Instant::now();
    let mut rng = SeedSequence::new(64).rng();
    let population = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
    println!(
        "  population generated in {:.2}s",
        t0.elapsed().as_secs_f64()
    );

    let t1 = Instant::now();
    let outcome = run(&RunSpec::new(&params, &population, 4242, Mode::from(mode)));
    let elapsed = t1.elapsed().as_secs_f64();
    let reports = outcome.wire.payload_bits;
    println!(
        "  protocol executed in {elapsed:.2}s — {reports} reports, {:.1}M reports/sec, \
         {:.2} payload bits/user over the horizon",
        reports as f64 / elapsed / 1e6,
        reports as f64 / n as f64,
    );

    // The closed-form envelope: â[t] is unbiased with variance Var[â[t]]
    // from rtf-analysis; z = 5 keeps the union bound over d = 64 periods
    // comfortably below the β = 0.05 failure budget.
    let truth = population.true_counts();
    let band = tolerance_band(&params, &population, 5.0);
    assert_within_band(&outcome.estimates, truth, &band);
    let err = linf_error(&outcome.estimates, truth);
    let sigma_max = predicted_variance(&params, &population)
        .into_iter()
        .fold(0.0f64, f64::max)
        .sqrt();
    println!(
        "  linf error {err:.0} vs envelope 5·sigma = {:.0} — inside the closed-form variance \
         envelope at every period. PASS",
        5.0 * sigma_max
    );
}
