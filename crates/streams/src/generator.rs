//! Synthetic workload generators.
//!
//! The paper's theorems are worst-case over *any* `k`-sparse change
//! pattern, and its motivation names concrete regimes (URL lists that
//! "change little every day", telemetry counters, trends). Each generator
//! below produces streams from one such regime; together they cover the
//! behaviours that stress different terms of the error bound:
//!
//! * [`UniformChanges`] — change times scattered uniformly over `[1..d]`;
//! * [`BurstyChanges`] — all changes packed into one short window;
//! * [`PeriodicToggle`] — regular toggling at a fixed period;
//! * [`AdversarialAligned`] — every user's changes inside the *same* dyadic
//!   block, concentrating error on a few partial sums;
//! * [`TrendingPopulation`] — users track a global trend curve `p(t)`;
//! * [`WaveTrend`] — a data-parameterized sinusoidal trend (the
//!   TOML-representable sibling of [`TrendingPopulation`]);
//! * [`StaticPopulation`] — the `k = 0`/`k = 1` regime of users who never
//!   change after an initial draw.

use crate::stream::BoolStream;
use rand::Rng;
use rtf_primitives::subset::Subset;

/// A source of `k`-sparse longitudinal Boolean streams.
///
/// [`generate_into`](Self::generate_into) is the one required draw: it
/// appends one user's change times to a caller's buffer, which is how
/// [`Population::generate`](crate::population::Population::generate)
/// fills its change-time column without a heap vector per user.
/// [`generate`](Self::generate) wraps it into an owned [`BoolStream`]
/// with the same draws.
pub trait StreamGenerator {
    /// The horizon length `d` of generated streams.
    fn d(&self) -> u64;

    /// The change bound `k`: every generated stream has
    /// `change_count() ≤ k`.
    fn k(&self) -> usize;

    /// Draws one user stream and appends its change times (strictly
    /// increasing, each in `[1..d]`) to `out`.
    fn generate_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<u64>);

    /// Draws one user stream.
    fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> BoolStream {
        let mut change_times = Vec::new();
        self.generate_into(rng, &mut change_times);
        BoolStream::from_change_times(self.d(), change_times)
    }
}

/// The opportunity/segment scheme of the trend generators: `k` change
/// opportunities, a uniform subset of `[1..d]`, all drawn first; then at
/// each opportunity `t`, ascending, the user holds 1 with probability
/// `curve(t)` (clamped to `[0, 1]`), and a change is recorded only when
/// the held value flips. So every user changes at most `k` times.
fn trend_into<R: Rng + ?Sized>(
    d: u64,
    k: usize,
    curve: impl Fn(u64) -> f64,
    rng: &mut R,
    out: &mut Vec<u64>,
) {
    let mut current = false; // st_u[0] = 0
    for i in Subset::draw(d as usize, k, rng) {
        let t = i as u64 + 1;
        let next = rng.random::<f64>() < curve(t).clamp(0.0, 1.0);
        if next != current {
            out.push(t);
            current = next;
        }
    }
}

/// Change times scattered uniformly over the horizon.
///
/// Each user flips `c ~ Binomial(k, density)` times, at a uniformly random
/// set of `c` distinct periods. `density = 1.0` pins every user at exactly
/// `k` changes (the worst case for the protocol); smaller densities model
/// heterogeneous populations.
#[derive(Debug, Clone, Copy)]
pub struct UniformChanges {
    d: u64,
    k: usize,
    density: f64,
}

impl UniformChanges {
    /// Creates the generator.
    ///
    /// # Panics
    /// Panics unless `k ≤ d` and `density ∈ [0, 1]`.
    pub fn new(d: u64, k: usize, density: f64) -> Self {
        assert!(k as u64 <= d, "cannot change {k} times in {d} periods");
        assert!(
            (0.0..=1.0).contains(&density),
            "density must be in [0,1], got {density}"
        );
        UniformChanges { d, k, density }
    }
}

impl StreamGenerator for UniformChanges {
    fn d(&self) -> u64 {
        self.d
    }
    fn k(&self) -> usize {
        self.k
    }
    fn generate_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<u64>) {
        let c = (0..self.k)
            .filter(|_| rng.random::<f64>() < self.density)
            .count();
        out.extend(Subset::draw(self.d as usize, c, rng).map(|i| i as u64 + 1));
    }
}

/// All of a user's changes land inside one short, user-specific window —
/// the "everything happened during one event" regime.
#[derive(Debug, Clone, Copy)]
pub struct BurstyChanges {
    d: u64,
    k: usize,
    burst_len: u64,
}

impl BurstyChanges {
    /// Creates the generator; bursts are `burst_len` periods long.
    ///
    /// # Panics
    /// Panics unless `k ≤ burst_len ≤ d`.
    pub fn new(d: u64, k: usize, burst_len: u64) -> Self {
        assert!(burst_len <= d, "burst {burst_len} longer than horizon {d}");
        assert!(
            k as u64 <= burst_len,
            "cannot fit {k} changes in a burst of {burst_len}"
        );
        BurstyChanges { d, k, burst_len }
    }
}

impl StreamGenerator for BurstyChanges {
    fn d(&self) -> u64 {
        self.d
    }
    fn k(&self) -> usize {
        self.k
    }
    fn generate_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<u64>) {
        let start = rng.random_range(0..=(self.d - self.burst_len));
        let c = rng.random_range(0..=self.k);
        out.extend(Subset::draw(self.burst_len as usize, c, rng).map(|i| start + i as u64 + 1));
    }
}

/// Toggles at a fixed period from a random phase, truncated to `k` changes
/// — the "weekly pattern" regime.
#[derive(Debug, Clone, Copy)]
pub struct PeriodicToggle {
    d: u64,
    k: usize,
    period: u64,
}

impl PeriodicToggle {
    /// Creates the generator with toggling period `period ≥ 1`.
    ///
    /// # Panics
    /// Panics if `period == 0` or if `k` toggles at that period cannot be
    /// k-sparse… (they always can; only `period ≥ 1` is required).
    pub fn new(d: u64, k: usize, period: u64) -> Self {
        assert!(period >= 1, "period must be ≥ 1");
        PeriodicToggle { d, k, period }
    }
}

impl StreamGenerator for PeriodicToggle {
    fn d(&self) -> u64 {
        self.d
    }
    fn k(&self) -> usize {
        self.k
    }
    fn generate_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<u64>) {
        let phase = rng.random_range(1..=self.period.min(self.d));
        out.extend(
            (0..)
                .map(|i| phase + i * self.period)
                .take_while(|&t| t <= self.d)
                .take(self.k),
        );
    }
}

/// Every user's changes fall inside the *same* dyadic interval, chosen at
/// construction — the adversarial case where the population's entire churn
/// hits a handful of partial sums.
#[derive(Debug, Clone, Copy)]
pub struct AdversarialAligned {
    d: u64,
    k: usize,
    block_start: u64,
    block_len: u64,
}

impl AdversarialAligned {
    /// Creates the generator with changes confined to the order-`h` dyadic
    /// interval with index `j`.
    ///
    /// # Panics
    /// Panics if the block lies outside `[1..d]` or is shorter than `k`.
    pub fn new(d: u64, k: usize, h: u32, j: u64) -> Self {
        let block = rtf_dyadic::interval::DyadicInterval::new(h, j);
        assert!(block.end() <= d, "block {block} beyond horizon {d}");
        assert!(
            k as u64 <= block.len(),
            "cannot fit {k} changes in block of length {}",
            block.len()
        );
        AdversarialAligned {
            d,
            k,
            block_start: block.start(),
            block_len: block.len(),
        }
    }
}

impl StreamGenerator for AdversarialAligned {
    fn d(&self) -> u64 {
        self.d
    }
    fn k(&self) -> usize {
        self.k
    }
    fn generate_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<u64>) {
        let c = rng.random_range(0..=self.k);
        out.extend(
            Subset::draw(self.block_len as usize, c, rng).map(|i| self.block_start + i as u64),
        );
    }
}

/// Users track a global trend: the population-level probability of holding
/// value 1 follows a caller-supplied curve `p(t)`, while each user still
/// changes at most `k` times.
///
/// Each user draws `c ≤ k` change *opportunities* uniformly over time;
/// between consecutive opportunities the user holds a value drawn from the
/// curve at the segment start. Opportunities where the drawn value equals
/// the previous one produce no change, so the `k`-sparsity bound holds by
/// construction.
pub struct TrendingPopulation<F: Fn(u64) -> f64> {
    d: u64,
    k: usize,
    curve: F,
}

impl<F: Fn(u64) -> f64> TrendingPopulation<F> {
    /// Creates the generator; `curve(t)` must return a probability for
    /// every `t ∈ [1..d]`.
    ///
    /// # Panics
    /// Panics if `k == 0` (a trend requires at least one opportunity) or
    /// `k > d`.
    pub fn new(d: u64, k: usize, curve: F) -> Self {
        assert!(k >= 1, "trending users need k ≥ 1");
        assert!(k as u64 <= d, "cannot change {k} times in {d} periods");
        TrendingPopulation { d, k, curve }
    }
}

impl<F: Fn(u64) -> f64> StreamGenerator for TrendingPopulation<F> {
    fn d(&self) -> u64 {
        self.d
    }
    fn k(&self) -> usize {
        self.k
    }
    fn generate_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<u64>) {
        trend_into(self.d, self.k, &self.curve, rng, out);
    }
}

/// A data-parameterized sinusoidal trend: the population-level probability
/// of holding value 1 oscillates between `low` and `high` with period
/// `wave_period`.
///
/// This is [`TrendingPopulation`] with the fixed curve
/// `p(t) = mid + amp · sin(2πt / wave_period)` where `mid = (low+high)/2`
/// and `amp = (high-low)/2`. Unlike the closure-based generator it is
/// plain data, so a scenario spec (`rtf_scenarios::dsl`) can name it in a
/// TOML file and round-trip it losslessly.
#[derive(Debug, Clone, Copy)]
pub struct WaveTrend {
    d: u64,
    k: usize,
    low: f64,
    high: f64,
    wave_period: u64,
}

impl WaveTrend {
    /// Creates the generator.
    ///
    /// # Panics
    /// Panics unless `0 ≤ low ≤ high ≤ 1`, `wave_period ≥ 1`,
    /// and `1 ≤ k ≤ d`.
    pub fn new(d: u64, k: usize, low: f64, high: f64, wave_period: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high) && low <= high,
            "wave bounds must satisfy 0 ≤ low ≤ high ≤ 1, got [{low}, {high}]"
        );
        assert!(wave_period >= 1, "wave_period must be ≥ 1");
        assert!(k >= 1, "trending users need k ≥ 1");
        assert!(k as u64 <= d, "cannot change {k} times in {d} periods");
        WaveTrend {
            d,
            k,
            low,
            high,
            wave_period,
        }
    }

    /// The trend curve value at period `t`.
    pub fn curve(&self, t: u64) -> f64 {
        let mid = (self.low + self.high) / 2.0;
        let amp = (self.high - self.low) / 2.0;
        let phase = 2.0 * std::f64::consts::PI * t as f64 / self.wave_period as f64;
        (mid + amp * phase.sin()).clamp(0.0, 1.0)
    }
}

impl StreamGenerator for WaveTrend {
    fn d(&self) -> u64 {
        self.d
    }
    fn k(&self) -> usize {
        self.k
    }
    fn generate_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<u64>) {
        trend_into(self.d, self.k, |t| self.curve(t), rng, out);
    }
}

/// Users draw an initial value once and never change it (at most one change
/// at `t = 1`) — the regime where longitudinal tracking is cheapest and a
/// sanity baseline for `k = 1`.
#[derive(Debug, Clone, Copy)]
pub struct StaticPopulation {
    d: u64,
    p_one: f64,
}

impl StaticPopulation {
    /// Creates the generator; each user holds 1 with probability `p_one`.
    ///
    /// # Panics
    /// Panics unless `p_one ∈ [0, 1]`.
    pub fn new(d: u64, p_one: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_one), "p_one must be a probability");
        StaticPopulation { d, p_one }
    }
}

impl StreamGenerator for StaticPopulation {
    fn d(&self) -> u64 {
        self.d
    }
    fn k(&self) -> usize {
        1
    }
    fn generate_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<u64>) {
        if rng.random::<f64>() < self.p_one {
            out.push(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_sparsity<G: StreamGenerator>(g: &G, trials: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..trials {
            let s = g.generate(&mut rng);
            assert_eq!(s.d(), g.d());
            assert!(
                s.change_count() <= g.k(),
                "stream has {} changes > k = {}",
                s.change_count(),
                g.k()
            );
        }
    }

    #[test]
    fn all_generators_respect_k() {
        check_sparsity(&UniformChanges::new(64, 5, 0.8), 300, 1);
        check_sparsity(&BurstyChanges::new(64, 5, 16), 300, 2);
        check_sparsity(&PeriodicToggle::new(64, 5, 7), 300, 3);
        check_sparsity(&AdversarialAligned::new(64, 5, 3, 2), 300, 4);
        check_sparsity(&TrendingPopulation::new(64, 5, |t| t as f64 / 64.0), 300, 5);
        check_sparsity(&StaticPopulation::new(64, 0.3), 300, 6);
        check_sparsity(&WaveTrend::new(64, 5, 0.1, 0.9, 16), 300, 7);
    }

    #[test]
    fn uniform_full_density_hits_exactly_k() {
        let g = UniformChanges::new(128, 9, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(g.generate(&mut rng).change_count(), 9);
        }
    }

    #[test]
    fn uniform_zero_density_never_changes() {
        let g = UniformChanges::new(128, 9, 0.0);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..50 {
            assert_eq!(g.generate(&mut rng).change_count(), 0);
        }
    }

    #[test]
    fn bursty_changes_stay_in_some_window() {
        let g = BurstyChanges::new(256, 8, 16);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let s = g.generate(&mut rng);
            if let (Some(&first), Some(&last)) = (s.change_times().first(), s.change_times().last())
            {
                assert!(last - first < 16, "changes span {} > burst", last - first);
            }
        }
    }

    #[test]
    fn periodic_spacing_is_exact() {
        let g = PeriodicToggle::new(256, 10, 12);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..100 {
            let s = g.generate(&mut rng);
            for w in s.change_times().windows(2) {
                assert_eq!(w[1] - w[0], 12);
            }
        }
    }

    #[test]
    fn adversarial_changes_confined_to_block() {
        // Block I_{3,2} = [9..16] on d = 64.
        let g = AdversarialAligned::new(64, 6, 3, 2);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let s = g.generate(&mut rng);
            for &c in s.change_times() {
                assert!((9..=16).contains(&c), "change at {c} outside block");
            }
        }
    }

    #[test]
    fn trending_population_tracks_curve() {
        // Step curve: 0 before midpoint, 0.9 after. Late-time fraction of
        // ones should be near 0.9.
        let d = 64u64;
        let g = TrendingPopulation::new(d, 8, |t| if t > 32 { 0.9 } else { 0.0 });
        let mut rng = StdRng::seed_from_u64(12);
        let n = 3000;
        let ones_at_end = (0..n).filter(|_| g.generate(&mut rng).value_at(d)).count();
        let f = ones_at_end as f64 / n as f64;
        assert!((f - 0.9).abs() < 0.05, "fraction of ones at d: {f}");
    }

    #[test]
    fn static_population_frequency_matches() {
        let g = StaticPopulation::new(32, 0.25);
        let mut rng = StdRng::seed_from_u64(13);
        let n = 8000;
        let ones = (0..n).filter(|_| g.generate(&mut rng).value_at(1)).count();
        let f = ones as f64 / n as f64;
        assert!((f - 0.25).abs() < 0.02, "fraction {f}");
        // And static: value at 1 equals value at d.
        for _ in 0..100 {
            let s = g.generate(&mut rng);
            assert_eq!(s.value_at(1), s.value_at(32));
        }
    }

    #[test]
    fn wave_trend_matches_its_closure_twin() {
        // WaveTrend is TrendingPopulation with a fixed curve; drawn with
        // the same RNG stream they must produce identical streams.
        let wave = WaveTrend::new(64, 6, 0.2, 0.8, 12);
        let twin = TrendingPopulation::new(64, 6, |t| wave.curve(t));
        let mut a = StdRng::seed_from_u64(21);
        let mut b = StdRng::seed_from_u64(21);
        for _ in 0..200 {
            assert_eq!(
                wave.generate(&mut a).change_times(),
                twin.generate(&mut b).change_times()
            );
        }
    }

    #[test]
    #[should_panic(expected = "wave bounds")]
    fn wave_trend_rejects_inverted_bounds() {
        let _ = WaveTrend::new(64, 5, 0.9, 0.1, 8);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn bursty_rejects_tiny_window() {
        let _ = BurstyChanges::new(64, 10, 4);
    }

    #[test]
    #[should_panic(expected = "cannot change")]
    fn uniform_rejects_k_above_d() {
        let _ = UniformChanges::new(4, 5, 1.0);
    }
}
