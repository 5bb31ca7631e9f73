//! Heavy-hitter emergence: detect a newly viral item under ε-LDP.
//!
//! `n` users each hold one item from a catalogue of `D`; item choices
//! follow a Zipf law, and mid-horizon one unremarkable item goes viral.
//! The categorical tracker (element sampling on top of the Boolean
//! FutureRand protocol — the paper's "richer domains" adaptation) watches
//! all per-item counts online; the example reports when the hot item
//! first enters the estimated top-3, versus when it truly does.
//!
//! ```text
//! cargo run --release --example heavy_hitters
//! ```

use randomize_future::core::composed::RandomizerTable;
use randomize_future::domain::generator::{TrendingItem, ZipfChurn};
use randomize_future::domain::heavy::{top_r, true_top_r};
use randomize_future::domain::protocol::{run_domain_tracker, DomainParams};
use randomize_future::primitives::seeding::SeedSequence;

fn main() {
    let n = 400_000usize;
    let d = 64u64;
    let domain = 8u32;
    let k = 3usize;
    let hot = 6u32; // a tail item that will surge
    let params = DomainParams {
        n,
        d,
        k,
        domain,
        epsilon: 1.0,
        beta: 0.05,
        // Audit-calibrated ε̃: certified the same ε-LDP, ≈ 2× accuracy.
        table: RandomizerTable::Calibrated,
    };

    let base = ZipfChurn::new(d, domain, k, 1.4);
    let generator = TrendingItem::new(base, hot, d / 2, 0.7);
    let mut rng = SeedSequence::new(99).rng();
    let population = generator.population(n, &mut rng);

    let outcome = run_domain_tracker(&params, &population, 7);

    println!("heavy-hitter tracking: n={n}, d={d}, D={domain}, k={k}, eps=1.0");
    println!("hot item: {hot} (surge starts at t={})\n", d / 2);

    println!("  t   true top-3        est. top-3         hot truth   hot est.");
    let mut first_true = None;
    let mut first_est = None;
    for t in (4..=d).step_by(4) {
        let truth3 = true_top_r(&population, t, 3);
        let est3: Vec<u32> = top_r(&outcome, t, 3).into_iter().map(|(e, _)| e).collect();
        if first_true.is_none() && truth3.contains(&hot) {
            first_true = Some(t);
        }
        if first_est.is_none() && est3.contains(&hot) {
            first_est = Some(t);
        }
        println!(
            "{:4}  {:<17} {:<18} {:>9.0} {:>10.0}",
            t,
            format!("{truth3:?}"),
            format!("{est3:?}"),
            population.true_counts()[hot as usize][(t - 1) as usize],
            outcome.element(hot)[(t - 1) as usize],
        );
    }

    println!(
        "\nhot item entered TRUE top-3 at t = {}",
        first_true.map_or("never".into(), |t| t.to_string())
    );
    println!(
        "hot item entered ESTIMATED top-3 at t = {}",
        first_est.map_or("never".into(), |t| t.to_string())
    );
    println!("\nall of this is computed from eps-LDP reports only: one bit per user per");
    println!("completed dyadic interval, with the full-horizon budget fixed at eps = 1.");
}
