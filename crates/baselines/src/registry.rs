//! A uniform interface over every protocol in the workspace, so the
//! benches and the simulator can sweep them generically.

use rtf_core::params::ProtocolParams;
use rtf_core::protocol::ProtocolOutcome;
use rtf_streams::population::Population;

/// Every runnable longitudinal frequency-estimation protocol.
pub trait LongitudinalProtocol {
    /// A short stable identifier (used in bench table rows).
    fn name(&self) -> &'static str;

    /// Whether the protocol is `ε`-LDP at the nominal budget (the naive
    /// decay variant and the central model are not *local* `ε`; flagged so
    /// tables can annotate them).
    fn is_eps_ldp(&self) -> bool;

    /// Runs the protocol end to end.
    fn run(&self, params: &ProtocolParams, population: &Population, seed: u64) -> ProtocolOutcome;
}

/// The concrete protocols, as unit structs for easy arraying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// This paper: hierarchical framework + FutureRand.
    FutureRand,
    /// This paper with the audit-calibrated `ε̃` (exact-audit-certified;
    /// ~2× better `c_gap` at the same ε).
    FutureRandCalibrated,
    /// Erlingsson et al. 2020: change sampling + basic RR, error ∝ k.
    Erlingsson,
    /// Hierarchical framework + Example 4.2 independent randomizer
    /// (ablation).
    Independent,
    /// Repeated RR with per-period budget ε/d.
    NaiveSplit,
    /// Repeated RR with per-period budget ε (privacy decays to ε·d).
    NaiveDecay,
    /// Central-model binary tree mechanism (trusted curator).
    CentralTree,
}

impl ProtocolKind {
    /// All protocols, in the order bench tables print them.
    pub const ALL: [ProtocolKind; 7] = [
        ProtocolKind::FutureRand,
        ProtocolKind::FutureRandCalibrated,
        ProtocolKind::Erlingsson,
        ProtocolKind::Independent,
        ProtocolKind::NaiveSplit,
        ProtocolKind::NaiveDecay,
        ProtocolKind::CentralTree,
    ];

    /// The `ε`-LDP protocols only (fair comparison set).
    pub const LOCAL_EPS: [ProtocolKind; 5] = [
        ProtocolKind::FutureRand,
        ProtocolKind::FutureRandCalibrated,
        ProtocolKind::Erlingsson,
        ProtocolKind::Independent,
        ProtocolKind::NaiveSplit,
    ];
}

impl LongitudinalProtocol for ProtocolKind {
    fn name(&self) -> &'static str {
        match self {
            ProtocolKind::FutureRand => "future-rand",
            ProtocolKind::FutureRandCalibrated => "future-rand-cal",
            ProtocolKind::Erlingsson => "erlingsson20",
            ProtocolKind::Independent => "independent",
            ProtocolKind::NaiveSplit => "naive-split",
            ProtocolKind::NaiveDecay => "naive-decay",
            ProtocolKind::CentralTree => "central-tree",
        }
    }

    fn is_eps_ldp(&self) -> bool {
        !matches!(self, ProtocolKind::NaiveDecay | ProtocolKind::CentralTree)
    }

    fn run(&self, params: &ProtocolParams, population: &Population, seed: u64) -> ProtocolOutcome {
        match self {
            ProtocolKind::FutureRand => rtf_core::protocol::run_in_memory(
                params,
                population,
                seed,
                &rtf_core::composed::ComposedRandomizer::per_order(params),
            ),
            ProtocolKind::FutureRandCalibrated => {
                crate::calibrated::run_calibrated(params, population, seed)
            }
            ProtocolKind::Erlingsson => crate::erlingsson::run_erlingsson(params, population, seed),
            ProtocolKind::Independent => {
                crate::independent::run_independent(params, population, seed)
            }
            ProtocolKind::NaiveSplit => crate::naive::run_naive_split(params, population, seed),
            ProtocolKind::NaiveDecay => crate::naive::run_naive_decay(params, population, seed).0,
            ProtocolKind::CentralTree => crate::central::run_central_tree(params, population, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_primitives::seeding::SeedSequence;
    use rtf_streams::generator::UniformChanges;

    #[test]
    fn every_protocol_runs_and_produces_d_estimates() {
        let params = ProtocolParams::new(200, 16, 2, 1.0, 0.05).unwrap();
        let mut rng = SeedSequence::new(30).rng();
        let pop = Population::generate(&UniformChanges::new(16, 2, 0.7), 200, &mut rng);
        for p in ProtocolKind::ALL {
            let o = p.run(&params, &pop, 77);
            assert_eq!(o.estimates().len(), 16, "{}", p.name());
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = ProtocolKind::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ProtocolKind::ALL.len());
    }

    #[test]
    fn ldp_flags() {
        assert!(ProtocolKind::FutureRand.is_eps_ldp());
        assert!(ProtocolKind::FutureRandCalibrated.is_eps_ldp());
        assert!(ProtocolKind::Erlingsson.is_eps_ldp());
        assert!(ProtocolKind::NaiveSplit.is_eps_ldp());
        assert!(!ProtocolKind::NaiveDecay.is_eps_ldp());
        assert!(!ProtocolKind::CentralTree.is_eps_ldp());
        for p in ProtocolKind::LOCAL_EPS {
            assert!(p.is_eps_ldp());
        }
    }
}
