//! The composed randomizer `R̃ : {−1,1}^k → {−1,1}^k` (Algorithm 3,
//! lines 3–7).
//!
//! Two distribution-identical sampling paths are provided:
//!
//! * [`randomize`](ComposedRandomizer::randomize) — the literal pseudo-code:
//!   apply the basic randomizer independently to every coordinate; if the
//!   resulting noise weight leaves the annulus, replace the output with a
//!   uniform sample from `{−1,1}^k \ Ann(b)`;
//! * [`randomize_weight_class`](ComposedRandomizer::randomize_weight_class)
//!   — sample the *final* noise weight first (exact `Binomial(k, p)`
//!   through an alias table, redirected through the outside-class
//!   distribution when it leaves the annulus) and then flip a uniform
//!   subset of that size. Conditioned on the weight, both paths produce a
//!   uniform string of that distance, so the laws coincide; the tests
//!   cross-validate them.
//!
//! The weight-class path is what `FutureRand::init` and the engines' span
//! randomizer use ([`sample_for_all_ones_into`](ComposedRandomizer::sample_for_all_ones_into)):
//! its cost is `O(k)` with *no* retry loop, it reuses the per-`(k, ε̃)`
//! tables across all users, and for `k ≤ 64` it allocates nothing.

use crate::annulus::Annulus;
use crate::gap::WeightClassLaw;
use crate::params::ProtocolParams;
use rand::Rng;
use rtf_primitives::alias::AliasTable;
use rtf_primitives::binomial::BinomialSampler;
use rtf_primitives::logspace::ln_binomial;
use rtf_primitives::rr::BasicRandomizer;
use rtf_primitives::sign::Sign;
use rtf_primitives::subset::flip_random_subset;

/// Which `ε̃` a per-order randomizer table uses — the one choice that
/// fixes every order's `c_gap`, so the clients' randomizers and the
/// server's gaps always come from the same table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RandomizerTable {
    /// The paper's `ε̃ = ε/(5√k_eff)` (Lemma 5.2):
    /// [`ComposedRandomizer::per_order`].
    #[default]
    Paper,
    /// The audit-calibrated `ε̃` (an extension, [`mod@crate::calibrate`]):
    /// [`ComposedRandomizer::calibrated_per_order`].
    Calibrated,
}

impl RandomizerTable {
    /// One composed randomizer per order of `params`.
    pub fn build(self, params: &ProtocolParams) -> Vec<ComposedRandomizer> {
        match self {
            RandomizerTable::Paper => ComposedRandomizer::per_order(params),
            RandomizerTable::Calibrated => ComposedRandomizer::calibrated_per_order(params),
        }
    }
}

/// The composed randomizer `R̃`, reusable across users for one `(k, ε̃)`.
///
/// [`sample_for_all_ones_into`](Self::sample_for_all_ones_into) writes a
/// client's `b̃` into caller storage, so the engines draw every client's
/// `b̃` into one reused scratch buffer without allocating.
#[derive(Debug, Clone)]
pub struct ComposedRandomizer {
    k: usize,
    basic: BasicRandomizer,
    annulus: Annulus,
    law: WeightClassLaw,
    /// Exact `Binomial(k, p)` over the raw noise weight.
    noise_weight: BinomialSampler,
    /// Outside weight classes, and the alias table over them with weights
    /// `∝ C(k, w)` (uniform over outside *strings*).
    outside_classes: Vec<usize>,
    outside_alias: AliasTable,
}

impl ComposedRandomizer {
    /// Builds `R̃` for sparsity `k` and per-coordinate budget `ε̃`, with
    /// the protocol's annulus (Equation 15).
    pub fn new(k: usize, eps_tilde: f64) -> Self {
        Self::with_annulus(k, eps_tilde, Annulus::for_parameters(k, eps_tilde))
    }

    /// Builds `R̃` with the protocol's parameterisation `ε̃ = ε/(5√k)`
    /// (Lemma 5.2), the configuration `FutureRand` uses.
    pub fn for_protocol(k: usize, epsilon: f64) -> Self {
        let eps_tilde = epsilon / (5.0 * (k as f64).sqrt());
        Self::new(k, eps_tilde)
    }

    /// The paper's randomizer table: one [`for_protocol`](Self::for_protocol)
    /// randomizer per order `h` of `params`, at `k_eff = k_for_order(h)` —
    /// shared by every client of that order, since the tables cost `O(k)`
    /// to build.
    pub fn per_order(params: &ProtocolParams) -> Vec<Self> {
        (0..params.num_orders())
            .map(|h| Self::for_protocol(params.k_for_order(h), params.epsilon()))
            .collect()
    }

    /// The audit-calibrated randomizer table: one
    /// [`calibrated`](Self::calibrated) randomizer per order `h` of
    /// `params`, at `k_eff = k_for_order(h)`.
    pub fn calibrated_per_order(params: &ProtocolParams) -> Vec<Self> {
        (0..params.num_orders())
            .map(|h| Self::calibrated(params.k_for_order(h), params.epsilon()))
            .collect()
    }

    /// Builds `R̃` with the **audit-calibrated** `ε̃` (see
    /// [`mod@crate::calibrate`]): the largest per-coordinate budget whose
    /// exact realized privacy loss still fits `ε`. Roughly doubles
    /// `c_gap` versus [`for_protocol`](Self::for_protocol) at the same
    /// certified privacy.
    pub fn calibrated(k: usize, epsilon: f64) -> Self {
        let cal = crate::calibrate::calibrate(k, epsilon);
        Self::new(k, cal.eps_tilde)
    }

    /// Builds `R̃` over an explicit annulus (the Bun et al. baseline path).
    pub fn with_annulus(k: usize, eps_tilde: f64, annulus: Annulus) -> Self {
        let law = WeightClassLaw::with_annulus(k, eps_tilde, annulus);
        let basic = BasicRandomizer::new(eps_tilde);
        let noise_weight = BinomialSampler::new(k as u64, basic.p_flip());
        let outside_classes: Vec<usize> = annulus.outside().collect();
        let log_weights: Vec<f64> = outside_classes
            .iter()
            .map(|&w| ln_binomial(k as u64, w as u64))
            .collect();
        let outside_alias = AliasTable::from_log_weights(&log_weights);
        ComposedRandomizer {
            k,
            basic,
            annulus,
            law,
            noise_weight,
            outside_classes,
            outside_alias,
        }
    }

    /// The sparsity `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The per-coordinate budget `ε̃`.
    #[inline]
    pub fn eps_tilde(&self) -> f64 {
        self.basic.eps_tilde()
    }

    /// The annulus `[LB..UB]`.
    #[inline]
    pub fn annulus(&self) -> &Annulus {
        &self.annulus
    }

    /// The exact output law (per-string probabilities, `c_gap`,
    /// realized ε).
    #[inline]
    pub fn law(&self) -> &WeightClassLaw {
        &self.law
    }

    /// The exact preservation gap `c_gap` (Lemma 5.3).
    #[inline]
    pub fn c_gap(&self) -> f64 {
        self.law.c_gap()
    }

    /// Literal Algorithm 3: per-coordinate basic randomization, then
    /// annulus conditioning.
    pub fn randomize<R: Rng + ?Sized>(&self, b: &[Sign], rng: &mut R) -> Vec<Sign> {
        assert_eq!(b.len(), self.k, "input length {} ≠ k = {}", b.len(), self.k);
        let mut out = self.basic.randomize_vec(b, rng);
        let dist = b.iter().zip(&out).filter(|(x, y)| x != y).count();
        if !self.annulus.contains(dist) {
            // Resample uniformly from {−1,1}^k \ Ann(b): weight class
            // ∝ C(k,w) over outside classes, then a uniform string at that
            // distance.
            let w = self.sample_outside_class(rng);
            out.copy_from_slice(b);
            flip_random_subset(&mut out, w, rng);
        }
        out
    }

    /// Weight-class path: sample the final output distance, then flip a
    /// uniform subset of that size. Identical in distribution to
    /// [`randomize`](Self::randomize).
    pub fn randomize_weight_class<R: Rng + ?Sized>(&self, b: &[Sign], rng: &mut R) -> Vec<Sign> {
        assert_eq!(b.len(), self.k, "input length {} ≠ k = {}", b.len(), self.k);
        let w = self.sample_output_distance(rng);
        let mut out = b.to_vec();
        flip_random_subset(&mut out, w, rng);
        out
    }

    /// Samples the distance `‖R̃(b) − b‖₀` of the final output: a raw
    /// `Binomial(k, p)` draw, redirected through the outside-class law when
    /// it leaves the annulus.
    pub fn sample_output_distance<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let raw = self.noise_weight.sample(rng) as usize;
        if self.annulus.contains(raw) {
            raw
        } else {
            self.sample_outside_class(rng)
        }
    }

    /// Samples a weight class outside the annulus, `∝ C(k, w)`.
    fn sample_outside_class<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.outside_classes[self.outside_alias.sample(rng)]
    }

    /// `b̃ = R̃(1^k)` — the pre-computation of `M.init` (Algorithm 3,
    /// line 10), via the weight-class path, written into `out` (the
    /// scratch of [`SpanRandomizers`](crate::randomizer::SpanRandomizers)
    /// or a client's own vector). Allocation-free for `k ≤ 64`.
    ///
    /// # Panics
    /// Panics unless `out.len() == k`.
    pub fn sample_for_all_ones_into<R: Rng + ?Sized>(&self, out: &mut [Sign], rng: &mut R) {
        assert_eq!(out.len(), self.k, "b̃ takes k slots");
        let w = self.sample_output_distance(rng);
        out.fill(Sign::Plus);
        flip_random_subset(out, w, rng);
    }

    /// [`sample_for_all_ones_into`](Self::sample_for_all_ones_into) into a
    /// fresh vector.
    pub fn sample_for_all_ones<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<Sign> {
        let mut out = vec![Sign::Plus; self.k];
        self.sample_for_all_ones_into(&mut out, rng);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hamming(a: &[Sign], b: &[Sign]) -> usize {
        a.iter().zip(b).filter(|(x, y)| x != y).count()
    }

    #[test]
    fn outputs_have_annulus_or_outside_distances() {
        let r = ComposedRandomizer::for_protocol(16, 1.0);
        let b = vec![Sign::Plus; 16];
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let out = r.randomize(&b, &mut rng);
            assert_eq!(out.len(), 16);
            let d = hamming(&b, &out);
            assert!(d <= 16);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // w indexes counts against the law
    fn distance_distribution_matches_exact_law() {
        // Empirical weight-class frequencies of the literal path vs the
        // exact law, via a chi-square-style bound per class.
        let k = 10usize;
        let r = ComposedRandomizer::for_protocol(k, 1.0);
        let b: Vec<Sign> = (0..k)
            .map(|i| if i % 3 == 0 { Sign::Minus } else { Sign::Plus })
            .collect();
        let mut rng = StdRng::seed_from_u64(2);
        let draws = 120_000;
        let mut counts = vec![0usize; k + 1];
        for _ in 0..draws {
            counts[hamming(&b, &r.randomize(&b, &mut rng))] += 1;
        }
        for w in 0..=k {
            let expect = r.law().class_prob(w) * draws as f64;
            let sd = (expect.max(1.0)).sqrt();
            assert!(
                (counts[w] as f64 - expect).abs() < 6.0 * sd + 3.0,
                "w={w}: observed {} expected {expect}",
                counts[w]
            );
        }
    }

    #[test]
    fn both_paths_agree_in_distribution() {
        // Compare weight-class histograms of the two sampling paths.
        let k = 12usize;
        let r = ComposedRandomizer::for_protocol(k, 0.7);
        let b = vec![Sign::Minus; k];
        let mut rng = StdRng::seed_from_u64(3);
        let draws = 60_000;
        let mut h1 = vec![0f64; k + 1];
        let mut h2 = vec![0f64; k + 1];
        for _ in 0..draws {
            h1[hamming(&b, &r.randomize(&b, &mut rng))] += 1.0;
            h2[hamming(&b, &r.randomize_weight_class(&b, &mut rng))] += 1.0;
        }
        for w in 0..=k {
            let diff = (h1[w] - h2[w]).abs() / draws as f64;
            assert!(diff < 0.012, "w={w}: |{} − {}|/n = {diff}", h1[w], h2[w]);
        }
    }

    #[test]
    fn conditional_uniformity_within_class() {
        // Conditioned on distance w, each position should be flipped
        // equally often (w/k of the time).
        let k = 8usize;
        let r = ComposedRandomizer::for_protocol(k, 1.0);
        let b = vec![Sign::Plus; k];
        let mut rng = StdRng::seed_from_u64(4);
        let draws = 80_000;
        let mut flips = vec![0f64; k];
        let mut total_flips = 0f64;
        for _ in 0..draws {
            let out = r.randomize(&b, &mut rng);
            for (i, (&x, &y)) in b.iter().zip(&out).enumerate() {
                if x != y {
                    flips[i] += 1.0;
                    total_flips += 1.0;
                }
            }
        }
        let expect = total_flips / k as f64;
        for (i, &f) in flips.iter().enumerate() {
            assert!(
                (f - expect).abs() / expect < 0.05,
                "position {i}: {f} vs {expect}"
            );
        }
    }

    #[test]
    fn empirical_gap_matches_exact_c_gap() {
        let k = 6usize;
        let r = ComposedRandomizer::for_protocol(k, 1.0);
        let b = vec![Sign::Plus; k];
        let mut rng = StdRng::seed_from_u64(5);
        let draws = 400_000;
        let mut keep_minus_flip = 0i64;
        for _ in 0..draws {
            let out = r.randomize(&b, &mut rng);
            // Coordinate 0 preserved or flipped.
            if out[0] == b[0] {
                keep_minus_flip += 1;
            } else {
                keep_minus_flip -= 1;
            }
        }
        let emp = keep_minus_flip as f64 / draws as f64;
        let exact = r.c_gap();
        // Standard error of a ±1 mean is ≤ 1/√draws.
        let tol = 6.0 / (draws as f64).sqrt();
        assert!(
            (emp - exact).abs() < tol,
            "empirical {emp} vs exact {exact} (tol {tol})"
        );
    }

    #[test]
    fn all_ones_helper_matches_explicit_input() {
        let k = 9usize;
        let r = ComposedRandomizer::for_protocol(k, 0.9);
        let ones = vec![Sign::Plus; k];
        let mut rng = StdRng::seed_from_u64(6);
        let draws = 50_000;
        let mut h1 = vec![0f64; k + 1];
        let mut h2 = vec![0f64; k + 1];
        for _ in 0..draws {
            h1[hamming(&ones, &r.sample_for_all_ones(&mut rng))] += 1.0;
            h2[hamming(&ones, &r.randomize(&ones, &mut rng))] += 1.0;
        }
        for w in 0..=k {
            let diff = (h1[w] - h2[w]).abs() / draws as f64;
            assert!(diff < 0.012, "w={w}: {} vs {}", h1[w], h2[w]);
        }
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn wrong_length_rejected() {
        let r = ComposedRandomizer::for_protocol(4, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let _ = r.randomize(&[Sign::Plus; 3], &mut rng);
    }

    #[test]
    fn k_equals_one_is_plain_conditioned_rr() {
        // k=1, ε=1: annulus = {0}, outside = {1}. Output keeps the input
        // w.p. 1−p and flips w.p. p where p = 1/(e^{0.2}+1).
        let r = ComposedRandomizer::for_protocol(1, 1.0);
        let p = 1.0 / (0.2f64.exp() + 1.0);
        assert!((r.law().class_prob(1) - p).abs() < 1e-12);
        assert!((r.c_gap() - (1.0 - 2.0 * p)).abs() < 1e-12);
    }
}
