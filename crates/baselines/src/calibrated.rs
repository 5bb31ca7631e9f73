//! The audit-calibrated FutureRand protocol — this paper's protocol with
//! the per-coordinate budget raised to the largest value whose *exact*
//! realized privacy loss still fits `ε` (see `rtf_core::calibrate`).
//!
//! Same framework, same randomizer family, same server; only `ε̃`
//! changes. The exact audit certifies `ε`-LDP, and the ~2× larger
//! `c_gap` halves the estimation error — quantified in `exp_calibrated`.
//! Every engine runs it too, under
//! `rtf_core::composed::RandomizerTable::Calibrated`.

use rtf_core::composed::ComposedRandomizer;
use rtf_core::params::ProtocolParams;
use rtf_core::protocol::{run_in_memory, ProtocolOutcome};
use rtf_streams::population::Population;

/// Runs the calibrated FutureRand protocol end to end: the reference
/// client schedule over the calibrated table
/// ([`ComposedRandomizer::calibrated_per_order`]) with the keyed clients
/// every engine runs.
pub fn run_calibrated(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
) -> ProtocolOutcome {
    let table = ComposedRandomizer::calibrated_per_order(params);
    run_in_memory(params, population, seed, &table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_core::calibrate::calibrate;
    use rtf_primitives::seeding::SeedSequence;
    use rtf_streams::generator::UniformChanges;

    /// ℓ∞ distance, kept local so this crate needs no metrics dependency.
    fn linf(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn calibrated_beats_paper_parameterisation_in_error() {
        let n = 3_000usize;
        let d = 64u64;
        let k = 8usize;
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(60).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 1.0), n, &mut rng);
        let trials = 6u64;
        let paper_table = ComposedRandomizer::per_order(&params);
        let (mut cal, mut paper) = (0.0, 0.0);
        for s in 0..trials {
            let a = run_calibrated(&params, &pop, 300 + s);
            let b = run_in_memory(&params, &pop, 300 + s, &paper_table);
            cal += linf(a.estimates(), pop.true_counts()) / trials as f64;
            paper += linf(b.estimates(), pop.true_counts()) / trials as f64;
        }
        assert!(
            cal < 0.75 * paper,
            "calibrated {cal} should clearly beat paper {paper}"
        );
    }

    #[test]
    fn calibrated_is_deterministic_and_unbiased() {
        let n = 400usize;
        let d = 16u64;
        let params = ProtocolParams::new(n, d, 2, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(61).rng();
        let pop = Population::generate(&UniformChanges::new(d, 2, 1.0), n, &mut rng);
        let a = run_calibrated(&params, &pop, 9);
        let b = run_calibrated(&params, &pop, 9);
        assert_eq!(a.estimates(), b.estimates());
        // Unbiasedness over trials.
        let trials = 400u64;
        let mut mean = vec![0.0; d as usize];
        for s in 0..trials {
            let o = run_calibrated(&params, &pop, 5_000 + s);
            for (m, &e) in mean.iter_mut().zip(o.estimates()) {
                *m += e / trials as f64;
            }
        }
        let cal = calibrate(2, 1.0);
        let per_trial_sd = 5.0 / cal.law.c_gap() * (n as f64).sqrt();
        let tol = 5.0 * per_trial_sd / (trials as f64).sqrt();
        let bias = linf(&mean, pop.true_counts());
        assert!(bias < tol, "bias {bias} vs tol {tol}");
    }
}
