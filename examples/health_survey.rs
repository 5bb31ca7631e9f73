//! Longitudinal health surveillance under LDP.
//!
//! A health agency tracks how many participants currently report a
//! symptom, hourly over `d = 512` periods, without ever collecting raw
//! symptom status. An outbreak wave makes each participant's status flip
//! in a short personal burst (sick → recovered), i.e. the `BurstyChanges`
//! regime. The example reports online estimates, the error envelope, and
//! the communication footprint per device.
//!
//! ```text
//! cargo run --release --example health_survey
//! ```

use randomize_future::analysis::metrics::linf_error;
use randomize_future::core::gap::WeightClassLaw;
use randomize_future::core::params::ProtocolParams;
use randomize_future::primitives::seeding::SeedSequence;
use randomize_future::runtime::ExecMode;
use randomize_future::scenarios::{run, Mode, RunSpec};
use randomize_future::streams::generator::BurstyChanges;
use randomize_future::streams::population::Population;

fn main() {
    let n = 2_000_000usize;
    let d = 256u64;
    let k = 2usize; // symptom onset + recovery
    let eps = 1.0f64;
    let params = ProtocolParams::new(n, d, k, eps, 0.01).expect("valid parameters");

    let generator = BurstyChanges::new(d, k, 64);
    let mut rng = SeedSequence::new(31).rng();
    let population = Population::generate(&generator, n, &mut rng);
    let truth = population.true_counts();

    let mode = Mode::from(ExecMode::from_env_or_parallel());
    let outcome = run(&RunSpec::new(&params, &population, 7, mode));
    let estimates = &outcome.estimates;

    println!("health surveillance: n={n}, d={d}, k={k}, eps={eps}\n");
    println!("hour    truth  estimate  |error|");
    for t in (0..d as usize).step_by(32) {
        println!(
            "{:4} {:8.0} {:9.0} {:8.0}",
            t + 1,
            truth[t],
            estimates[t],
            (estimates[t] - truth[t]).abs()
        );
    }

    // The rigorous Hoeffding envelope with the exact per-order gaps
    // (Lemma 4.6's proof), holding for all periods w.p. ≥ 1 − β.
    let worst_scale = (0..params.num_orders())
        .map(|h| {
            let gap = WeightClassLaw::for_protocol(params.k_for_order(h), eps).c_gap();
            (1.0 + f64::from(params.log_d())) / gap
        })
        .fold(0.0f64, f64::max);
    let envelope = worst_scale * (2.0 * n as f64 * (2.0 * d as f64 / params.beta()).ln()).sqrt();

    let err = linf_error(estimates, truth);
    println!("\nmax error (measured)     = {err:12.0}");
    println!("error envelope (1-beta)  = {envelope:12.0}");
    println!("relative error at peak   = {:12.4}", err / n as f64);
    let reports = outcome.wire.payload_bits as f64;
    println!(
        "\nper-device communication  = {:.1} bits total ({:.3} bits/hour)",
        reports / n as f64,
        reports / (n as f64 * d as f64),
    );
    println!(
        "privacy: every device is eps-LDP across ALL {d} reports (no decay; \
         naive hourly reporting would have spent {:.0} eps)",
        eps * d as f64
    );
}
