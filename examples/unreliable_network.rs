//! Longitudinal frequency estimation over an unreliable network.
//!
//! The paper's deployment model is ideal: every report arrives, once, on
//! time. This demo runs the same protocol through the `rtf-scenarios`
//! fault layer — 3% dropout, 5% stragglers (up to 3 periods late), 3%
//! duplicated retransmissions, slow permanent churn, and a 2% Byzantine
//! client fraction — and shows what the hardened server does about it:
//! periods still close, duplicates are deduped, stragglers are classified
//! late, forged frames are screened, and the estimates stay inside the
//! analysis-derived tolerance envelope.
//!
//! ```text
//! cargo run --release --example unreliable_network
//! ```

use randomize_future::analysis::metrics::linf_error;
use randomize_future::core::params::ProtocolParams;
use randomize_future::primitives::seeding::SeedSequence;
use randomize_future::scenarios::oracle::{band_violations, faulty_envelope};
use randomize_future::scenarios::{run, Mode, RunSpec, Scenario};
use randomize_future::streams::generator::UniformChanges;
use randomize_future::streams::population::Population;

fn main() {
    let n = 500_000usize;
    let d = 32u64;
    let k = 2usize;
    let params = ProtocolParams::new(n, d, k, 1.0, 0.05).expect("valid parameters");

    let mut rng = SeedSequence::new(90).rng();
    let population = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
    let truth = population.true_counts();

    let scenario = Scenario::honest()
        .with_dropout(0.03)
        .with_stragglers(0.05, 3)
        .with_duplicates(0.03)
        .with_churn(0.001)
        .with_byzantine(0.02);

    println!("unreliable network: n={n}, d={d}, k={k}, eps=1.0");
    println!(
        "faults: drop 3%, straggle 5% (<=3 periods), dup 3%, churn 0.1%/period, byzantine 2%\n"
    );

    let spec = RunSpec::new(&params, &population, 42, Mode::from_env());
    let honest = run(&spec.clone().with_scenario(&Scenario::honest()));
    let faulty = run(&spec.with_scenario(&scenario));

    println!("period    truth  estimate  |error|     due  accepted  late  dup  rej");
    for t in (0..d as usize).step_by(4) {
        let row = &faulty.delivery[t];
        println!(
            "{:>6} {:>8.0} {:>9.1} {:>8.1} {:>7} {:>9} {:>5} {:>4} {:>4}",
            t + 1,
            truth[t],
            faulty.estimates[t],
            (faulty.estimates[t] - truth[t]).abs(),
            row.due,
            row.accepted,
            row.late,
            row.duplicate,
            row.rejected(),
        );
    }

    let f = &faulty.faults;
    println!("\nfault layer totals:");
    println!("  dropped            {:>8}", f.dropped);
    println!(
        "  delayed            {:>8}  (expired past horizon: {})",
        f.delayed, f.expired
    );
    println!("  duplicates         {:>8}", f.duplicates_injected);
    println!(
        "  churned clients    {:>8}  (reports lost: {})",
        f.churned_clients, f.lost_to_churn
    );
    println!(
        "  byzantine frames   {:>8}  (accepted by screen: {})",
        f.byzantine_messages, f.byzantine_accepted
    );
    println!(
        "  on-time delivery   {:>7.1}%",
        100.0 * faulty.accepted_fraction()
    );

    let err_honest = linf_error(&honest.estimates, truth);
    let err_faulty = linf_error(&faulty.estimates, truth);
    println!("\nlinf error: honest {err_honest:.1}  vs  faulty {err_faulty:.1}");

    let envelope = faulty_envelope(&params, &population, &faulty, 4.5);
    let violations = band_violations(&faulty.estimates, truth, &envelope);
    assert!(
        violations.is_empty(),
        "estimates escaped the tolerance envelope: {violations:?}"
    );
    println!(
        "every period inside the analysis-derived envelope (4.5 sigma + bias allowance). PASS"
    );
}
