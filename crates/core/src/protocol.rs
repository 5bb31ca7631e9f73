//! An in-memory end-to-end driver for the full protocol.
//!
//! [`run_clients`] wires the reference client schedule
//! ([`Clients`], Algorithm 1) to one trusted [`Server`] (Algorithm 2)
//! over direct function calls, preserving the online schedule: at each
//! period `t` every client observes its datum and those whose order
//! divides `t` report, then the server closes the period and emits
//! `â[t]`. [`run_in_memory`] is FutureRand on that driver, under the
//! per-order randomizer table its caller passes; the baselines that swap
//! the randomizer run the driver too. The message-level (serialised,
//! byte-counted) version of the same loop lives in `rtf-sim`.
//!
//! Determinism: all randomness derives from a single `seed` via
//! `SeedSequence` — `trial → user` for client randomness — so outcomes are
//! reproducible across runs and thread counts.

use crate::client::Clients;
use crate::composed::ComposedRandomizer;
use crate::params::ProtocolParams;
use crate::randomizer::{FutureRand, LocalRandomizer};
use crate::server::Server;
use rand::rngs::StdRng;
use rtf_primitives::fastseed;
use rtf_primitives::seeding::SeedSequence;
use rtf_streams::population::Population;

/// The result of one end-to-end protocol execution.
#[derive(Debug, Clone)]
pub struct ProtocolOutcome {
    estimates: Vec<f64>,
    group_sizes: Vec<usize>,
    reports_sent: u64,
}

impl ProtocolOutcome {
    /// Assembles an outcome from its parts — used by the baseline
    /// protocols in `rtf-baselines`, which share this result type.
    pub fn from_parts(estimates: Vec<f64>, group_sizes: Vec<usize>, reports_sent: u64) -> Self {
        ProtocolOutcome {
            estimates,
            group_sizes,
            reports_sent,
        }
    }

    /// The online estimates `â[t]` (`estimates()[t−1] = â[t]`).
    pub fn estimates(&self) -> &[f64] {
        &self.estimates
    }

    /// `|U_h|` per order — how the population split across the hierarchy.
    pub fn group_sizes(&self) -> &[usize] {
        &self.group_sizes
    }

    /// Total report bits sent by all clients over the whole horizon.
    pub fn reports_sent(&self) -> u64 {
        self.reports_sent
    }
}

/// Runs the full FutureRand protocol in memory over a concrete
/// population, with one composed randomizer per order from `table`
/// ([`RandomizerTable::build`](crate::composed::RandomizerTable::build))
/// and the server's gaps from the same table.
///
/// # Panics
/// Panics if the population does not match `params` (`n`, `d`) or violates
/// the `k`-sparsity bound, or if the table has the wrong length.
pub fn run_in_memory(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    table: &[ComposedRandomizer],
) -> ProtocolOutcome {
    let mut server = Server::for_table(*params, table);
    run_clients(
        params,
        population,
        seed,
        &mut server,
        keyed_future_rand(params, table),
    )
}

/// Panics unless `population` has `params`' `n` users over `params`'
/// horizon `d`, each changing at most `k` times — the input check of
/// every engine.
pub fn check_population(params: &ProtocolParams, population: &Population) {
    assert_eq!(
        population.n(),
        params.n(),
        "population has {} users, params say {}",
        population.n(),
        params.n()
    );
    assert_eq!(
        population.d(),
        params.d(),
        "population horizon {} ≠ params d = {}",
        population.d(),
        params.d()
    );
    population.assert_k_sparse(params.k());
}

/// The FutureRand randomizer factory of the protocol's keyed clients,
/// for [`Clients::new`] and [`run_clients`]: a user of order `h` draws
/// `b̃` from its seed node's generator through `table[h]` and takes its
/// counter key from the node ([`fastseed::client_key`]) — the clients
/// `build_order_groups` packs into lanes for the batched engines.
pub fn keyed_future_rand<'t>(
    params: &ProtocolParams,
    table: &'t [ComposedRandomizer],
) -> impl FnMut(u32, &SeedSequence, StdRng) -> FutureRand + 't {
    let params = *params;
    move |h, node, mut rng| {
        FutureRand::init_keyed(
            params.sequence_len(h),
            &table[h as usize],
            &mut rng,
            fastseed::client_key(node),
        )
    }
}

/// Drives a trusted `server` over the whole horizon with the reference
/// client schedule ([`Clients`]): every user is built by `make` and
/// registers its order, then at each period every report is ingested,
/// in ascending user order, and the period is closed.
///
/// `make(h, node, rng)` builds the randomizer of a user of order `h`
/// (see [`Clients::new`]); `server` must carry the matching gaps. Report
/// sums are exact integers, so the ingest order cannot change a value.
///
/// # Panics
/// Panics if the population does not match `params` (`n`, `d`) or
/// violates the `k`-sparsity bound.
pub fn run_clients<M, F>(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    server: &mut Server,
    make: F,
) -> ProtocolOutcome
where
    M: LocalRandomizer,
    F: FnMut(u32, &SeedSequence, StdRng) -> M,
{
    check_population(params, population);

    let mut clients = Clients::new(params, population, seed, make);
    for u in 0..clients.len() {
        server.register_user(clients.order(u));
    }
    for t in 1..=params.d() {
        clients.step(t, |_, h, report| {
            if let Some(r) = report {
                server.ingest(h, r.bit);
            }
        });
        server.end_of_period(t);
    }
    ProtocolOutcome {
        estimates: server.estimates().to_vec(),
        group_sizes: server.group_sizes().to_vec(),
        reports_sent: server.reports_ingested(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_streams::generator::{StaticPopulation, UniformChanges};

    /// FutureRand under the paper's table.
    fn run_paper(params: &ProtocolParams, pop: &Population, seed: u64) -> ProtocolOutcome {
        run_in_memory(params, pop, seed, &ComposedRandomizer::per_order(params))
    }

    fn linf(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    /// The rigorous high-probability envelope from the proof of Lemma 4.6
    /// (Equation 13 + union bound over d periods), with the *exact*
    /// per-order c_gap the implementation uses:
    /// `(1 + log d) · max_h c_gap(h)^{-1} · √(2 n ln(2d/β))`.
    fn exact_envelope(params: &ProtocolParams) -> f64 {
        let worst_scale = (0..params.num_orders())
            .map(|h| {
                let gap = crate::gap::WeightClassLaw::for_protocol(
                    params.k_for_order(h),
                    params.epsilon(),
                )
                .c_gap();
                (1.0 + f64::from(params.log_d())) / gap
            })
            .fold(0.0, f64::max);
        worst_scale
            * (2.0 * params.n() as f64 * (2.0 * params.d() as f64 / params.beta()).ln()).sqrt()
    }

    #[test]
    fn outcome_shape_and_determinism() {
        let params = ProtocolParams::new(500, 32, 4, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(9).rng();
        let pop = Population::generate(&UniformChanges::new(32, 4, 0.7), 500, &mut rng);
        let o1 = run_paper(&params, &pop, 1234);
        let o2 = run_paper(&params, &pop, 1234);
        assert_eq!(o1.estimates(), o2.estimates(), "same seed ⇒ same run");
        assert_eq!(o1.estimates().len(), 32);
        assert_eq!(o1.group_sizes().iter().sum::<usize>(), 500);
        assert!(o1.reports_sent() > 0);
        let o3 = run_paper(&params, &pop, 9999);
        assert_ne!(
            o1.estimates(),
            o3.estimates(),
            "different seed ⇒ different noise"
        );
    }

    #[test]
    fn error_within_theoretical_envelope() {
        // A mid-size instance: the measured ℓ∞ error must sit inside the
        // rigorous Hoeffding envelope (holds w.p. ≥ 1−β; the seed is
        // fixed, and Hoeffding is loose, so this is stable).
        let params = ProtocolParams::new(4_000, 64, 4, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(10).rng();
        let pop = Population::generate(&UniformChanges::new(64, 4, 0.8), 4_000, &mut rng);
        let outcome = run_paper(&params, &pop, 77);
        let err = linf(outcome.estimates(), pop.true_counts());
        let envelope = exact_envelope(&params);
        assert!(err < envelope, "ℓ∞ error {err} vs envelope {envelope}");
        // And the error is genuinely driven by the noise scale, not by a
        // systematic bias: it should be well above 0 but below the
        // envelope by some margin on typical seeds.
        assert!(err > 0.0);
    }

    #[test]
    fn estimates_track_a_static_population() {
        // Static population: truth is constant ≈ 0.3·n at all times; the
        // protocol's estimates stay inside the rigorous envelope.
        let n = 8_000usize;
        let params = ProtocolParams::new(n, 64, 1, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(11).rng();
        let pop = Population::generate(&StaticPopulation::new(64, 0.3), n, &mut rng);
        let outcome = run_paper(&params, &pop, 3);
        let truth = pop.true_counts();
        let err = linf(outcome.estimates(), truth);
        let envelope = exact_envelope(&params);
        assert!(err < envelope, "err {err} vs envelope {envelope}");
    }

    #[test]
    fn reports_sent_matches_group_structure() {
        // Each user at order h sends d/2^h reports.
        let params = ProtocolParams::new(300, 16, 2, 0.5, 0.1).unwrap();
        let mut rng = SeedSequence::new(12).rng();
        let pop = Population::generate(&UniformChanges::new(16, 2, 0.5), 300, &mut rng);
        let outcome = run_paper(&params, &pop, 5);
        let expect: u64 = outcome
            .group_sizes()
            .iter()
            .enumerate()
            .map(|(h, &sz)| (sz as u64) * (16 >> h))
            .sum();
        assert_eq!(outcome.reports_sent(), expect);
    }

    #[test]
    #[should_panic(expected = "population has")]
    fn population_size_mismatch_rejected() {
        let params = ProtocolParams::new(10, 16, 2, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(13).rng();
        let pop = Population::generate(&UniformChanges::new(16, 2, 0.5), 5, &mut rng);
        let _ = run_paper(&params, &pop, 1);
    }

    #[test]
    fn store_variant_supports_window_queries() {
        let params = ProtocolParams::new(2_000, 64, 4, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(14).rng();
        let pop = Population::generate(&UniformChanges::new(64, 4, 0.8), 2_000, &mut rng);
        let table = ComposedRandomizer::per_order(&params);
        let mut server = Server::for_table(params, &table);
        server.enable_store();
        let outcome = run_clients(
            &params,
            &pop,
            21,
            &mut server,
            keyed_future_rand(&params, &table),
        );
        let store = server.store().expect("store enabled");
        // Prefix queries through the store agree with the streaming
        // estimates exactly.
        for t in 1..=64u64 {
            let a = store.prefix(t);
            let b = outcome.estimates()[(t - 1) as usize];
            assert!((a - b).abs() < 1e-9, "t={t}: {a} vs {b}");
        }
        // Window change estimates are the prefix difference (same linear
        // combination of interval estimates when windows start at 1).
        let w = store.window_change(1, 32);
        assert!((w - store.prefix(32)).abs() < 1e-9);
        // Short-window queries use few intervals.
        assert!(crate::queries::EstimateStore::window_cost(17, 20) <= 4);
    }

    #[test]
    #[should_panic(expected = "exceeding k")]
    fn sparsity_violation_rejected() {
        let params = ProtocolParams::new(5, 16, 1, 1.0, 0.05).unwrap();
        let streams = (0..5)
            .map(|_| rtf_streams::stream::BoolStream::from_change_times(16, vec![1, 2]))
            .collect();
        let pop = Population::from_streams(streams);
        let _ = run_paper(&params, &pop, 1);
    }
}
