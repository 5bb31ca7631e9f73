//! The differential oracle over the execution paths.
//!
//! The repo has four ways to execute the same `(params, population,
//! seed)` triple:
//!
//! * `rtf_core::protocol::run_in_memory` — the fast exact path;
//! * `rtf_sim::engine::run_event_driven` — the serialised message loop;
//! * [`crate::engine::run_scenario`] — the fault-injected message loop
//!   (honest scenario = no faults);
//! * `rtf_sim::aggregate::run_future_rand_aggregate` — the batched
//!   sampler (identical per-user randomness, its own server noise
//!   stream).
//!
//! The first three consume identical randomness and must agree
//! **value-for-value**; the aggregate path is identical **in
//! distribution**, which the oracle checks with mean/variance tolerance
//! bands derived from `rtf_analysis::variance`. For faulty scenarios the
//! oracle supplies an *envelope*: the honest band plus an exact bias
//! allowance computed from the server's delivery log.
//!
//! Orthogonally to the choice of path, the engines carry an execution
//! *mode* (`rtf_runtime::ExecMode`): the sequential reference schedule
//! vs the batched multi-worker pipeline. [`assert_mode_agreement`]
//! proves `sequential ≡ parallel(w)` value-for-value for
//! `w ∈ {1, 2, 8}` on the honest schedule **and** on arbitrary faulty
//! scenarios (where mailbox order matters).

use crate::config::{FaultTimeline, Scenario};
use crate::engine::{run_scenario, run_scenario_timeline, run_scenario_with, ScenarioOutcome};
use crate::live::run_scenario_live_with;
use rtf_analysis::variance::{future_rand_scales, predicted_variance};
use rtf_core::params::ProtocolParams;
use rtf_core::protocol::run_in_memory;
use rtf_runtime::ingest::LiveConfig;
use rtf_runtime::{ExecMode, WorkerPool};
use rtf_sim::aggregate::run_future_rand_aggregate;
use rtf_sim::engine::{run_event_driven, run_event_driven_with};
use rtf_sim::live::run_event_driven_live_with;
use rtf_streams::population::Population;

/// The worker counts the mode-agreement check proves equivalent to the
/// sequential schedule.
pub const MODE_AGREEMENT_WORKERS: [usize; 3] = [1, 2, 8];

/// The values all exact paths agreed on.
#[derive(Debug, Clone)]
pub struct ExactAgreement {
    /// The (shared) estimates `â[t]`.
    pub estimates: Vec<f64>,
    /// The (shared) per-order group sizes.
    pub group_sizes: Vec<usize>,
    /// The (shared) total report count.
    pub reports: u64,
}

/// Runs one seed through every execution path and asserts agreement:
/// value-for-value across `run_in_memory`, `run_event_driven`, and the
/// honest scenario engine; shared per-user randomness (group sizes,
/// report counts) also for the aggregate sampler.
///
/// # Examples
///
/// ```
/// use rtf_core::params::ProtocolParams;
/// use rtf_primitives::seeding::SeedSequence;
/// use rtf_scenarios::oracle::assert_exact_agreement;
/// use rtf_streams::generator::UniformChanges;
/// use rtf_streams::population::Population;
///
/// let params = ProtocolParams::new(40, 8, 2, 1.0, 0.05).unwrap();
/// let mut rng = SeedSequence::new(7).rng();
/// let population = Population::generate(&UniformChanges::new(8, 2, 0.8), 40, &mut rng);
/// let agreed = assert_exact_agreement(&params, &population, 7);
/// assert_eq!(agreed.estimates.len(), 8); // one estimate per period
/// ```
///
/// # Panics
/// Panics with the first diverging period/value if any path disagrees.
pub fn assert_exact_agreement(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
) -> ExactAgreement {
    let mem = run_in_memory(params, population, seed);
    let ev = run_event_driven(params, population, seed);
    let sc = run_scenario(params, population, seed, &Scenario::honest());
    let agg = run_future_rand_aggregate(params, population, seed);

    for (label, estimates) in [("event-driven", &ev.estimates), ("scenario", &sc.estimates)] {
        for (t, (a, b)) in mem.estimates().iter().zip(estimates).enumerate() {
            assert!(
                a == b,
                "{label} diverges from in-memory at t={} ({params}, seed {seed}): {a} vs {b}",
                t + 1
            );
        }
        assert_eq!(
            mem.estimates().len(),
            estimates.len(),
            "{label} produced a different horizon"
        );
    }
    for (label, sizes) in [
        ("event-driven", &ev.group_sizes),
        ("scenario", &sc.group_sizes),
        ("aggregate", &agg.group_sizes().to_vec()),
    ] {
        assert_eq!(
            mem.group_sizes(),
            &sizes[..],
            "{label} split the population differently (seed {seed})"
        );
    }
    assert_eq!(mem.reports_sent(), ev.wire.payload_bits);
    assert_eq!(mem.reports_sent(), sc.wire.payload_bits);
    assert_eq!(mem.reports_sent(), agg.reports_sent());

    // The runtime claim: the batched parallel pipeline is the sequential
    // schedule, value-for-value, for every worker count.
    assert_mode_agreement(params, population, seed, &Scenario::honest());

    ExactAgreement {
        estimates: mem.estimates().to_vec(),
        group_sizes: mem.group_sizes().to_vec(),
        reports: mem.reports_sent(),
    }
}

/// Asserts `sequential ≡ parallel(w)` **value-for-value** for every
/// `w ∈` [`MODE_AGREEMENT_WORKERS`], on both engines that carry an
/// execution mode:
///
/// * the honest event-driven engine (estimates, group sizes, wire
///   stats), and
/// * the fault-injected engine under `scenario` (estimates, delivery
///   log, wire stats, fault counts, per-period Byzantine acceptance).
///
/// Frame order matters under Byzantine impersonation, so passing a
/// faulty scenario here proves the shard merge reconstructs the
/// sequential mailbox order exactly — not merely that sums commute. The
/// fault counts are compared too: the span-native pre-walk, which visits
/// only faulted boundaries, must find exactly the faults the sequential
/// engine finds by asking the fault plan at every report.
///
/// # Panics
/// Panics naming the first diverging engine/worker count.
pub fn assert_mode_agreement(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    scenario: &Scenario,
) {
    let timeline = FaultTimeline::constant(*scenario);
    let ev_seq = run_event_driven_with(params, population, seed, ExecMode::Sequential);
    let sc_seq = run_scenario_timeline(params, population, seed, &timeline, ExecMode::Sequential);
    for w in MODE_AGREEMENT_WORKERS {
        let ev = run_event_driven_with(params, population, seed, ExecMode::Parallel(w));
        assert_eq!(
            ev.estimates, ev_seq.estimates,
            "event-driven parallel({w}) diverges from sequential (seed {seed})"
        );
        assert_eq!(ev.group_sizes, ev_seq.group_sizes, "parallel({w}) groups");
        assert_eq!(ev.wire, ev_seq.wire, "parallel({w}) wire stats");

        let sc = run_scenario_timeline(params, population, seed, &timeline, ExecMode::Parallel(w));
        assert_eq!(
            sc.estimates, sc_seq.estimates,
            "scenario parallel({w}) diverges from sequential (seed {seed})"
        );
        assert_eq!(sc.delivery, sc_seq.delivery, "parallel({w}) delivery log");
        assert_eq!(sc.wire, sc_seq.wire, "parallel({w}) wire stats");
        assert_eq!(sc.faults, sc_seq.faults, "parallel({w}) fault counts");
        assert_eq!(
            sc.byzantine_accepted_by_period, sc_seq.byzantine_accepted_by_period,
            "parallel({w}) per-period Byzantine acceptance"
        );
    }
}

/// Asserts **streaming ≡ batched ≡ sequential**, value-for-value, on
/// both engines:
///
/// * the honest schedule — sequential `run_event_driven` vs the batched
///   pipeline vs the streaming ingestion service
///   (`run_event_driven_live_with`): estimates, group sizes, wire
///   stats;
/// * the fault-injected schedule under `scenario` — sequential
///   `run_scenario` vs batched vs `run_scenario_live_with`: estimates,
///   delivery log, wire stats, fault counts, per-period Byzantine
///   acceptance.
///
/// The streaming runs use a deliberately hostile service shape — a
/// 2-batch mailbox and a small chunk size, so producers stall on
/// backpressure and journals hold several entries — for every worker
/// count in [`MODE_AGREEMENT_WORKERS`], each under four fault plans:
///
/// 1. no faults;
/// 2. a worker killed mid-horizon and recovered from the journal;
/// 3. a whole-service snapshot/restart mid-period (journals full);
/// 4. the composition — a mid-period restart *and* a worker kill in the
///    same period, plus a clean between-periods restart later.
///
/// Every configured fault is asserted to have actually fired (via
/// `IngestStats::{recoveries, restarts}`), so none of these legs can
/// pass vacuously.
///
/// # Panics
/// Panics naming the first diverging engine/worker count/fault
/// injection.
pub fn assert_live_agreement(
    params: &ProtocolParams,
    population: &Population,
    seed: u64,
    scenario: &Scenario,
) {
    let ev_seq = run_event_driven_with(params, population, seed, ExecMode::Sequential);
    let sc_seq = run_scenario_with(params, population, seed, scenario, ExecMode::Sequential);
    // Complete the three-way claim: the batched pipeline sits between
    // sequential and streaming.
    let ev_bat = run_event_driven_with(params, population, seed, ExecMode::Parallel(2));
    assert_eq!(
        ev_bat.estimates, ev_seq.estimates,
        "batched event-driven diverges from sequential (seed {seed})"
    );
    assert_eq!(ev_bat.wire, ev_seq.wire, "batched wire stats");
    let sc_bat = run_scenario_with(params, population, seed, scenario, ExecMode::Parallel(2));
    assert_eq!(
        sc_bat.estimates, sc_seq.estimates,
        "batched scenario diverges from sequential (seed {seed})"
    );
    assert_eq!(sc_bat.delivery, sc_seq.delivery, "batched delivery log");

    let fault_at = (params.d() / 2).max(1);
    let later = (params.d() * 3 / 4).max(1);
    for w in MODE_AGREEMENT_WORKERS {
        let base = || LiveConfig::new(w).with_mailbox_cap(2).with_chunk_rows(7);
        let victim = w.saturating_sub(1);
        // (config, label, expected kills fired, expected restarts fired)
        let plans: [(LiveConfig, String, u64, u64); 4] = [
            (base(), format!("live({w})"), 0, 0),
            (
                base().with_kill(victim, fault_at),
                format!("live({w}), worker {victim} killed at t={fault_at}"),
                1,
                0,
            ),
            (
                base().with_restart(fault_at),
                format!("live({w}), service restarted mid-period t={fault_at}"),
                0,
                1,
            ),
            (
                base()
                    .with_restart(fault_at)
                    .with_kill(victim, fault_at)
                    .with_restart_after(later),
                format!("live({w}), restart+kill at t={fault_at}, clean restart after t={later}"),
                1,
                2,
            ),
        ];
        for (cfg, label, kills, restarts) in plans {
            let (ev, ev_stats) = run_event_driven_live_with(params, population, seed, &cfg);
            assert_eq!(
                ev.estimates, ev_seq.estimates,
                "{label}: event-driven estimates diverge from sequential (seed {seed})"
            );
            assert_eq!(ev.group_sizes, ev_seq.group_sizes, "{label}: groups");
            assert_eq!(ev.wire, ev_seq.wire, "{label}: wire stats");

            let (sc, sc_stats) = run_scenario_live_with(params, population, seed, scenario, &cfg);
            assert_eq!(
                sc.estimates, sc_seq.estimates,
                "{label}: scenario estimates diverge from sequential (seed {seed})"
            );
            assert_eq!(sc.group_sizes, sc_seq.group_sizes, "{label}: groups");
            assert_eq!(sc.delivery, sc_seq.delivery, "{label}: delivery log");
            assert_eq!(sc.wire, sc_seq.wire, "{label}: wire stats");
            assert_eq!(sc.faults, sc_seq.faults, "{label}: fault counts");
            assert_eq!(
                sc.byzantine_accepted_by_period, sc_seq.byzantine_accepted_by_period,
                "{label}: per-period Byzantine acceptance"
            );
            // No vacuous passes: every configured fault must have fired.
            for stats in [&ev_stats, &sc_stats] {
                assert_eq!(stats.recoveries, kills, "{label}: kills fired");
                assert_eq!(stats.restarts, restarts, "{label}: restarts fired");
            }
        }
    }
}

/// Distributional distance between the aggregate sampler and the exact
/// path, measured over repeated seeds.
#[derive(Debug, Clone, Copy)]
pub struct DistributionalAgreement {
    /// Number of paired runs.
    pub trials: u64,
    /// Max over `t` of `|mean_agg − mean_exact| / SE` (z-score units).
    pub max_mean_z: f64,
    /// Max over `t` of the relative variance mismatch between paths.
    pub max_var_rel_diff: f64,
    /// Max over `t` and both paths of the relative error of the
    /// empirical variance against `rtf_analysis`'s closed form.
    pub max_pred_rel_err: f64,
}

impl DistributionalAgreement {
    /// Asserts every measured distance is inside its tolerance.
    ///
    /// # Panics
    /// Panics naming the offending statistic.
    pub fn assert_within(&self, mean_z: f64, var_rel: f64, pred_rel: f64) {
        assert!(
            self.max_mean_z <= mean_z,
            "aggregate/exact mean z-score {} exceeds {mean_z}",
            self.max_mean_z
        );
        assert!(
            self.max_var_rel_diff <= var_rel,
            "aggregate/exact variance mismatch {} exceeds {var_rel}",
            self.max_var_rel_diff
        );
        assert!(
            self.max_pred_rel_err <= pred_rel,
            "empirical variance off the closed form by {} (> {pred_rel})",
            self.max_pred_rel_err
        );
    }
}

/// Runs `trials` paired executions (seeds `base_seed..base_seed+trials`)
/// of the aggregate sampler and `run_in_memory` and measures their
/// distributional agreement per period. Trials fan out over the worker
/// pool selected by `RTF_WORKERS` ([`ExecMode::from_env`]).
pub fn measure_aggregate_agreement(
    params: &ProtocolParams,
    population: &Population,
    base_seed: u64,
    trials: u64,
) -> DistributionalAgreement {
    measure_aggregate_agreement_with(params, population, base_seed, trials, ExecMode::from_env())
}

/// [`measure_aggregate_agreement`] on an explicit [`ExecMode`]'s pool.
///
/// The paired runs are embarrassingly parallel (one seed each); the
/// moment sums are folded afterwards **in trial order**, so the measured
/// statistics are bit-identical to the sequential loop for any worker
/// count — floating-point accumulation order never depends on
/// scheduling.
pub fn measure_aggregate_agreement_with(
    params: &ProtocolParams,
    population: &Population,
    base_seed: u64,
    trials: u64,
    mode: ExecMode,
) -> DistributionalAgreement {
    assert!(trials >= 2, "need at least two trials");
    let d = params.d() as usize;
    let pool = WorkerPool::for_mode(mode);
    let per_trial: Vec<(Vec<f64>, Vec<f64>)> = pool.map_indexed(trials as usize, |s| {
        let seed = base_seed + s as u64;
        let a = run_future_rand_aggregate(params, population, seed);
        let e = run_in_memory(params, population, seed);
        (a.estimates().to_vec(), e.estimates().to_vec())
    });
    let (mut sum_a, mut sum_e) = (vec![0.0; d], vec![0.0; d]);
    let (mut sq_a, mut sq_e) = (vec![0.0; d], vec![0.0; d]);
    for (a, e) in &per_trial {
        for t in 0..d {
            sum_a[t] += a[t];
            sum_e[t] += e[t];
            sq_a[t] += a[t].powi(2);
            sq_e[t] += e[t].powi(2);
        }
    }
    let predicted = predicted_variance(params, population);
    let n = trials as f64;
    let (mut max_mean_z, mut max_var_rel, mut max_pred_rel) = (0.0f64, 0.0f64, 0.0f64);
    for t in 0..d {
        let (ma, me) = (sum_a[t] / n, sum_e[t] / n);
        let va = (sq_a[t] / n - ma * ma).max(0.0);
        let ve = (sq_e[t] / n - me * me).max(0.0);
        let se = ((va + ve) / n).sqrt().max(1e-12);
        max_mean_z = max_mean_z.max((ma - me).abs() / se);
        max_var_rel = max_var_rel.max((va - ve).abs() / va.max(ve).max(1e-12));
        for v in [va, ve] {
            max_pred_rel = max_pred_rel.max((v - predicted[t]).abs() / predicted[t]);
        }
    }
    DistributionalAgreement {
        trials,
        max_mean_z,
        max_var_rel_diff: max_var_rel,
        max_pred_rel_err: max_pred_rel,
    }
}

/// The largest per-order estimator scale `(1 + log d)/c_gap(h)` — the
/// worst-case impact of one perturbed report bit on any `â[t]`.
pub fn max_scale(params: &ProtocolParams) -> f64 {
    future_rand_scales(params).into_iter().fold(0.0, f64::max)
}

/// The honest tolerance band: `z·√Var[â[t]]` per period, from
/// `rtf_analysis`'s closed-form variance.
pub fn tolerance_band(params: &ProtocolParams, population: &Population, z: f64) -> Vec<f64> {
    predicted_variance(params, population)
        .into_iter()
        .map(|v| z * v.max(0.0).sqrt())
        .collect()
}

/// The faulty-scenario envelope: the honest band plus an exact bias
/// allowance. Every report missing by period `t` removes at most one
/// `±max_scale` contribution from `â[t]`; every accepted Byzantine
/// fabrication adds one *and* may displace the slot's honest report
/// (which then dedupes away as a duplicate without ever counting as
/// missing), so forgeries are charged double:
///
/// ```text
/// |â[t] − a[t]| ≤ z·σ[t] + max_scale·(missing≤t + 2·byz_accepted≤t)
/// ```
///
/// holds whenever the honest run sits inside its own `z·σ` band.
pub fn faulty_envelope(
    params: &ProtocolParams,
    population: &Population,
    outcome: &ScenarioOutcome,
    z: f64,
) -> Vec<f64> {
    let band = tolerance_band(params, population, z);
    let scale = max_scale(params);
    let cum_missing = outcome.cumulative_missing();
    let mut cum_byz = 0u64;
    band.iter()
        .zip(cum_missing.iter())
        .zip(outcome.byzantine_accepted_by_period.iter())
        .map(|((b, &m), &bz)| {
            cum_byz += bz;
            b + scale * (m + 2 * cum_byz) as f64
        })
        .collect()
}

/// One period whose error escaped its bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandViolation {
    /// The period (1-based).
    pub t: u64,
    /// `|â[t] − a[t]|`.
    pub error: f64,
    /// The bound it exceeded.
    pub bound: f64,
}

/// Every period whose estimate leaves `truth ± bound`.
pub fn band_violations(estimates: &[f64], truth: &[f64], bounds: &[f64]) -> Vec<BandViolation> {
    assert_eq!(estimates.len(), truth.len(), "length mismatch");
    assert_eq!(estimates.len(), bounds.len(), "length mismatch");
    estimates
        .iter()
        .zip(truth)
        .zip(bounds)
        .enumerate()
        .filter_map(|(t, ((e, a), b))| {
            let error = (e - a).abs();
            (error > *b).then_some(BandViolation {
                t: (t + 1) as u64,
                error,
                bound: *b,
            })
        })
        .collect()
}

/// Asserts a run stays inside its per-period bounds.
///
/// # Panics
/// Panics listing every violating period.
pub fn assert_within_band(estimates: &[f64], truth: &[f64], bounds: &[f64]) {
    let violations = band_violations(estimates, truth, bounds);
    assert!(
        violations.is_empty(),
        "{} period(s) escaped the tolerance band: {violations:?}",
        violations.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_primitives::seeding::SeedSequence;
    use rtf_streams::generator::UniformChanges;

    fn setup(n: usize, d: u64, k: usize, seed: u64) -> (ProtocolParams, Population) {
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(seed).rng();
        let pop = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        (params, pop)
    }

    #[test]
    fn exact_agreement_holds_on_honest_runs() {
        let (params, pop) = setup(140, 32, 3, 80);
        let agreed = assert_exact_agreement(&params, &pop, 17);
        assert_eq!(agreed.estimates.len(), 32);
        assert_eq!(agreed.group_sizes.iter().sum::<usize>(), 140);
        assert!(agreed.reports > 0);
    }

    #[test]
    fn distributional_agreement_is_tight_for_true_pairs() {
        let (params, pop) = setup(250, 16, 3, 81);
        let m = measure_aggregate_agreement(&params, &pop, 4_000, 250);
        m.assert_within(6.0, 0.5, 0.35);
    }

    #[test]
    fn pooled_aggregate_sampling_matches_sequential_bitwise() {
        // The parallel fan-out folds moment sums in trial order, so the
        // measured statistics must be bit-identical for any pool size.
        let (params, pop) = setup(120, 16, 2, 85);
        let seq = measure_aggregate_agreement_with(&params, &pop, 9_000, 40, ExecMode::Sequential);
        for w in [1usize, 3, 8] {
            let par =
                measure_aggregate_agreement_with(&params, &pop, 9_000, 40, ExecMode::Parallel(w));
            assert_eq!(par.trials, seq.trials);
            assert_eq!(par.max_mean_z.to_bits(), seq.max_mean_z.to_bits(), "{w}");
            assert_eq!(
                par.max_var_rel_diff.to_bits(),
                seq.max_var_rel_diff.to_bits(),
                "{w}"
            );
            assert_eq!(
                par.max_pred_rel_err.to_bits(),
                seq.max_pred_rel_err.to_bits(),
                "{w}"
            );
        }
    }

    #[test]
    fn live_agreement_holds_on_honest_and_faulty_schedules() {
        // The streaming tentpole claim at unit scale: streaming ≡
        // batched ≡ sequential on both engines, with backpressure,
        // mid-horizon worker kills, and whole-service restarts (and
        // their composition) in the mix.
        let (params, pop) = setup(110, 16, 2, 88);
        assert_live_agreement(&params, &pop, 51, &Scenario::honest());
        let storm = Scenario::honest()
            .with_dropout(0.05)
            .with_stragglers(0.1, 3)
            .with_duplicates(0.05)
            .with_byzantine(0.1);
        assert_live_agreement(&params, &pop, 51, &storm);
    }

    #[test]
    fn mode_agreement_holds_on_a_faulty_scenario() {
        // sequential ≡ parallel(w) even when faults make the mailbox
        // order load-bearing.
        let (params, pop) = setup(150, 16, 2, 86);
        let storm = Scenario::honest()
            .with_dropout(0.05)
            .with_stragglers(0.1, 3)
            .with_duplicates(0.05)
            .with_byzantine(0.1);
        assert_mode_agreement(&params, &pop, 31, &storm);
    }

    #[test]
    fn distributional_check_catches_a_wrong_scale() {
        // Sanity that the oracle has teeth: doubling every estimate of one
        // path must blow the variance tolerance.
        let (params, pop) = setup(250, 16, 3, 81);
        let m = measure_aggregate_agreement(&params, &pop, 4_000, 250);
        let broken = DistributionalAgreement {
            max_var_rel_diff: 3.0, // what a 2× scale bug produces (4× var)
            ..m
        };
        let caught = std::panic::catch_unwind(|| broken.assert_within(6.0, 0.5, 0.35));
        assert!(caught.is_err());
    }

    #[test]
    fn honest_runs_sit_inside_the_band() {
        let (params, pop) = setup(600, 32, 3, 82);
        let out = run_scenario(&params, &pop, 23, &Scenario::honest());
        let band = tolerance_band(&params, &pop, 4.5);
        assert_within_band(&out.estimates, pop.true_counts(), &band);
    }

    #[test]
    fn band_violations_detect_escapes() {
        let truth = [10.0, 10.0, 10.0];
        let est = [11.0, 15.0, 10.0];
        let band = [2.0, 2.0, 2.0];
        let v = band_violations(&est, &truth, &band);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].t, 2);
        assert!((v[0].error - 5.0).abs() < 1e-12);
    }

    #[test]
    fn faulty_envelope_grows_with_missing_traffic() {
        let (params, pop) = setup(400, 16, 2, 83);
        let honest = run_scenario(&params, &pop, 29, &Scenario::honest());
        let faulty = run_scenario(&params, &pop, 29, &Scenario::honest().with_dropout(0.3));
        let env_honest = faulty_envelope(&params, &pop, &honest, 4.0);
        let env_faulty = faulty_envelope(&params, &pop, &faulty, 4.0);
        // With no faults the envelope *is* the band.
        let band = tolerance_band(&params, &pop, 4.0);
        for (a, b) in env_honest.iter().zip(&band) {
            assert!((a - b).abs() < 1e-9);
        }
        // With dropout it is strictly wider at the end of the horizon.
        assert!(env_faulty.last().unwrap() > env_honest.last().unwrap());
        // And the faulty run still sits inside its envelope.
        assert_within_band(&faulty.estimates, pop.true_counts(), &env_faulty);
    }
}
