//! # randomize-future
//!
//! A production-quality Rust reproduction of *Randomize the Future:
//! Asymptotically Optimal Locally Private Frequency Estimation Protocol for
//! Longitudinal Data* (Olga Ohrimenko, Anthony Wirth, Hao Wu — PODS 2022,
//! arXiv:2112.12279).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] (`rtf-core`) — the paper's contribution: the **FutureRand**
//!   randomizer and the hierarchical `ε`-LDP longitudinal frequency
//!   estimation protocol with `O((1/ε)·log d·√(k·n·ln(d/β)))` error;
//! * [`primitives`] (`rtf-primitives`) — randomized response, log-domain
//!   probability arithmetic, exact samplers;
//! * [`dyadic`] (`rtf-dyadic`) — dyadic interval algebra and the streaming
//!   frontier aggregator;
//! * [`streams`] (`rtf-streams`) — the longitudinal Boolean data model and
//!   synthetic workload generators;
//! * [`baselines`] (`rtf-baselines`) — Erlingsson et al. 2020, the
//!   Bun–Nelson–Stemmer composed randomizer, naive repeated randomized
//!   response, and the central-model binary tree mechanism;
//! * [`sim`] (`rtf-sim`) — the event engine's message-passing bodies, the
//!   one engine result type, and the parallel trial runner;
//! * [`runtime`] (`rtf-runtime`) — the deterministic parallel runtime:
//!   execution modes, the sharded worker pool, and the columnar report
//!   batches the engines run on;
//! * [`analysis`] (`rtf-analysis`) — exact output distributions, privacy
//!   audits, error metrics, variance prediction and post-processing;
//! * [`domain`] (`rtf-domain`) — categorical-domain frequency tracking and
//!   heavy hitters via element sampling (the paper's "richer domains"
//!   adaptation);
//! * [`scenarios`] (`rtf-scenarios`) — the one run seam (`run` over a
//!   `RunSpec`: engine, execution mode and randomizer table),
//!   fault-injected longitudinal workloads (dropout, churn, stragglers,
//!   duplicates, Byzantine clients) and the differential oracle over the
//!   execution paths.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`, or in short:
//!
//! ```
//! use randomize_future::prelude::*;
//!
//! // 1. Protocol parameters: n users, d time periods, ≤ k changes, budget ε.
//! let params = ProtocolParams::builder()
//!     .n(2_000)
//!     .d(64)
//!     .k(4)
//!     .epsilon(1.0)
//!     .beta(0.05)
//!     .build()
//!     .expect("valid parameters");
//!
//! // 2. A synthetic population of longitudinal Boolean streams.
//! let mut rng = SeedSequence::new(7).rng();
//! let population = Population::generate(
//!     &UniformChanges::new(params.d(), params.k(), 0.5),
//!     params.n(),
//!     &mut rng,
//! );
//!
//! // 3. Run the full online protocol on the batched event engine (one
//! //    worker) and compare with the ground truth.
//! let outcome = run(&RunSpec::new(&params, &population, 42, Mode::Batched(1)));
//! assert_eq!(outcome.estimates.len(), 64);
//! let err = linf_error(&outcome.estimates, population.true_counts());
//! assert!(err.is_finite());
//! ```

#![warn(missing_docs)]

pub use rtf_analysis as analysis;
pub use rtf_baselines as baselines;
pub use rtf_core as core;
pub use rtf_domain as domain;
pub use rtf_dyadic as dyadic;
pub use rtf_primitives as primitives;
pub use rtf_runtime as runtime;
pub use rtf_scenarios as scenarios;
pub use rtf_sim as sim;
pub use rtf_streams as streams;

/// One-stop imports for applications.
pub mod prelude {
    pub use rtf_analysis::metrics::linf_error;
    pub use rtf_core::params::ProtocolParams;
    pub use rtf_core::randomizer::FutureRand;
    pub use rtf_primitives::seeding::SeedSequence;
    pub use rtf_runtime::{ExecMode, WorkerPool};
    pub use rtf_scenarios::{run, Mode, RandomizerTable, RunSpec};
    pub use rtf_streams::generator::UniformChanges;
    pub use rtf_streams::population::Population;
}
