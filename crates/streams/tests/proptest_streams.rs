//! Property-based tests for the longitudinal data model.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rtf_dyadic::decompose::decompose_prefix;
use rtf_dyadic::interval::Horizon;
use rtf_streams::generator::{
    AdversarialAligned, BurstyChanges, PeriodicToggle, StaticPopulation, StreamGenerator,
    TrendingPopulation, UniformChanges, WaveTrend,
};
use rtf_streams::population::Population;
use rtf_streams::stream::BoolStream;

/// Horizons on both sides of the 64-element bitmask branch of
/// `rtf_primitives::subset::Subset`: uniform and trend draws use all `d`
/// periods as their ground set, bursts and adversarial blocks `d / 2`.
const HORIZONS: [u64; 4] = [16, 64, 256, 1024];

/// `Population::generate` over the change-time column is the population
/// `from_streams` builds from `n` per-user `generate()` draws of an
/// identically seeded rng: every user's change times, the true counts,
/// the largest change count and `n` agree, and both leave the rng in the
/// same state.
fn assert_column_identity<G: StreamGenerator>(g: &G, n: usize, seed: u64, label: &str) {
    let mut a = StdRng::seed_from_u64(seed);
    let mut b = StdRng::seed_from_u64(seed);
    let column = Population::generate(g, n, &mut a);
    let rows = Population::from_streams((0..n).map(|_| g.generate(&mut b)).collect());
    assert_eq!(column.n(), n, "{label}: n");
    assert_eq!(rows.n(), n, "{label}: n");
    for (u, (x, y)) in column.streams().zip(rows.streams()).enumerate() {
        assert_eq!(x.d(), g.d(), "{label}: user {u} horizon");
        assert_eq!(x.change_times(), y.change_times(), "{label}: user {u}");
        assert_eq!(column.stream(u), x, "{label}: user {u} by index");
    }
    assert_eq!(
        column.true_counts(),
        rows.true_counts(),
        "{label}: true counts"
    );
    assert_eq!(
        column.max_change_count(),
        rows.max_change_count(),
        "{label}: max change count"
    );
    assert!(column.max_change_count() <= g.k(), "{label}: k bound");
    assert_eq!(a.next_u64(), b.next_u64(), "{label}: rng state");
}

/// Strategy: a sorted set of distinct change times within [1..d].
fn change_times(d: u64) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::btree_set(1..=d, 0..16).prop_map(|s| s.into_iter().collect())
}

proptest! {
    /// Values ↔ change-times round trip.
    #[test]
    fn stream_round_trip(times in change_times(64)) {
        let s = BoolStream::from_change_times(64, times.clone());
        let back = BoolStream::from_values(&s.values());
        prop_assert_eq!(back.change_times(), &times[..]);
    }

    /// Observation 3.9 (single user): st_u[t] = Σ_{I ∈ C(t)} S_u(I).
    #[test]
    fn prefix_identity_obs_3_9(times in change_times(128), t in 1u64..=128) {
        let s = BoolStream::from_change_times(128, times);
        let x = s.derivative();
        let sum: i64 = decompose_prefix(t)
            .into_iter()
            .map(|i| x.partial_sum(i).value() as i64)
            .sum();
        prop_assert_eq!(sum, i64::from(s.value_at(t)));
    }

    /// Observation 3.7: every partial sum is in {−1, 0, 1} and equals
    /// st(end) − st(start−1).
    #[test]
    fn partial_sums_obs_3_7(times in change_times(64)) {
        let s = BoolStream::from_change_times(64, times);
        let x = s.derivative();
        for i in Horizon::new(64).iset() {
            let ps = x.partial_sum(i).value() as i64;
            let direct = i64::from(s.value_at(i.end())) - i64::from(s.value_at(i.start() - 1));
            prop_assert_eq!(ps, direct);
        }
    }

    /// Observation 3.6: at most ‖X_u‖₀ non-zero partial sums per order.
    #[test]
    fn per_order_sparsity_obs_3_6(times in change_times(64)) {
        let s = BoolStream::from_change_times(64, times);
        let x = s.derivative();
        let hz = Horizon::new(64);
        for h in hz.orders() {
            let nz = hz.iset_at_order(h).filter(|&i| x.partial_sum(i).is_nonzero()).count();
            prop_assert!(nz <= s.change_count());
        }
    }

    /// The derivative's support is exactly the change-time set, with
    /// alternating signs summing to st_u[d] ∈ {0,1}.
    #[test]
    fn derivative_structure(times in change_times(64)) {
        let s = BoolStream::from_change_times(64, times.clone());
        let x = s.derivative();
        prop_assert_eq!(x.support(), &times[..]);
        let total: i64 = x.to_vec().iter().map(|t| t.value() as i64).sum();
        prop_assert!(total == 0 || total == 1);
        prop_assert_eq!(total, i64::from(s.value_at(64)));
    }

    /// Population ground truth equals the brute-force count at every t.
    #[test]
    fn population_counts(seed in 0u64..500, n in 1usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = UniformChanges::new(32, 5, 0.7);
        let pop = Population::generate(&gen, n, &mut rng);
        for t in 1..=32u64 {
            let expect = pop.streams().filter(|s| s.value_at(t)).count() as f64;
            prop_assert_eq!(pop.true_counts()[(t - 1) as usize], expect);
        }
    }

    /// Every generator respects its own k bound and horizon.
    #[test]
    fn generators_respect_contracts(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = 64u64;
        macro_rules! check {
            ($g:expr) => {{
                let g = $g;
                let s = g.generate(&mut rng);
                prop_assert_eq!(s.d(), g.d());
                prop_assert!(s.change_count() <= g.k());
            }};
        }
        check!(UniformChanges::new(d, 6, 0.9));
        check!(BurstyChanges::new(d, 6, 16));
        check!(PeriodicToggle::new(d, 6, 5));
        check!(TrendingPopulation::new(d, 6, |t| t as f64 / d as f64));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// All seven generators, at every horizon of [`HORIZONS`]: the column
    /// `Population::generate` fills is draw for draw the per-user streams.
    #[test]
    fn generated_column_matches_per_user_streams(seed in 0u64..u64::MAX, n in 1usize..40) {
        for d in HORIZONS {
            let half = d / 2;
            assert_column_identity(&UniformChanges::new(d, 6, 0.9), n, seed, &format!("uniform d={d}"));
            assert_column_identity(&BurstyChanges::new(d, 6, half), n, seed, &format!("bursty d={d}"));
            assert_column_identity(&PeriodicToggle::new(d, 6, 5), n, seed, &format!("periodic d={d}"));
            // The second order-log2(d/2) block: periods d/2+1..=d.
            assert_column_identity(
                &AdversarialAligned::new(d, 6, half.trailing_zeros(), 2),
                n,
                seed,
                &format!("adversarial d={d}"),
            );
            assert_column_identity(
                &TrendingPopulation::new(d, 6, |t| t as f64 / d as f64),
                n,
                seed,
                &format!("trending d={d}"),
            );
            assert_column_identity(&WaveTrend::new(d, 6, 0.1, 0.9, 12), n, seed, &format!("wave d={d}"));
            assert_column_identity(&StaticPopulation::new(d, 0.3), n, seed, &format!("static d={d}"));
        }
    }

    /// Every read of a population's `StreamRef` agrees with the owned
    /// `BoolStream` the same user's `generate()` draw builds from an
    /// identically seeded rng: `value_at`, `derivative().at`, every
    /// dyadic `partial_sum` and the cursor.
    #[test]
    fn stream_ref_reads_match_the_owned_stream(seed in 0u64..u64::MAX, n in 1usize..6) {
        for d in HORIZONS {
            let g = UniformChanges::new(d, 8, 0.9);
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let pop = Population::generate(&g, n, &mut a);
            for view in pop.streams() {
                let owned = g.generate(&mut b);
                prop_assert_eq!(view.change_times(), owned.change_times());
                prop_assert_eq!(view.change_count(), owned.change_count());
                prop_assert_eq!(view.values(), owned.values());
                let (x, y) = (view.derivative(), owned.derivative());
                let mut cursor = x.cursor();
                for t in 0..=d {
                    prop_assert_eq!(view.value_at(t), owned.value_at(t), "t={}", t);
                    if t >= 1 {
                        prop_assert_eq!(x.at(t), y.at(t), "t={}", t);
                        prop_assert_eq!(cursor.next_at(t), y.at(t), "cursor t={}", t);
                    }
                }
                for i in Horizon::new(d).iset() {
                    prop_assert_eq!(x.partial_sum(i), y.partial_sum(i), "{}", i);
                }
            }
        }
    }
}
