//! Numerical and randomization primitives for the `randomize-future`
//! workspace.
//!
//! This crate is the lowest layer of the reproduction of *Randomize the
//! Future: Asymptotically Optimal Locally Private Frequency Estimation
//! Protocol for Longitudinal Data* (Ohrimenko, Wirth, Wu — PODS 2022). It
//! contains nothing specific to the paper's protocol; instead it provides the
//! building blocks every layer above needs:
//!
//! * [`sign`] — the `{−1, +1}` and `{−1, 0, +1}` value domains used by the
//!   randomizers, as proper enums rather than loose integers;
//! * [`logspace`] — log-domain probability arithmetic (`ln n!`, `ln C(n,k)`,
//!   streaming log-sum-exp) that stays finite for `k` in the millions;
//! * [`rr`] — Warner's randomized response, the paper's *basic randomizer*
//!   `R` (Equation 14);
//! * [`binomial`] — exact binomial samplers: a popcount sampler for
//!   `Binomial(m, ½)`, an inversion sampler, and a reusable alias-table
//!   sampler for arbitrary weight distributions over `[0..k]`;
//! * [`subset`] — uniform fixed-size subset sampling (Floyd's algorithm);
//! * [`laplace`] — Laplace noise for the central-model baseline;
//! * [`seeding`] — deterministic hierarchical seeding so that every
//!   experiment in the workspace is exactly reproducible;
//! * [`fastseed`] — the counter-based word generator every client's
//!   zero-report signs come from ([`SeedSchema`] names it).
//!
//! # Design notes
//!
//! All samplers take `&mut impl Rng` so callers control determinism; nothing
//! in this crate touches a global RNG. Probability computations are done in
//! log space wherever intermediate quantities could underflow `f64` (for the
//! paper's parameters, probabilities like `2^{-k}` underflow for `k > 1074`).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod alias;
pub mod binomial;
pub mod fastseed;
pub mod laplace;
pub mod logspace;
pub mod rr;
pub mod seeding;
pub mod sign;
pub mod subset;

pub use alias::AliasTable;
pub use binomial::{sample_binomial_half, BinomialSampler};
pub use fastseed::SeedSchema;
pub use laplace::Laplace;
pub use logspace::{ln_binomial, ln_factorial, LogSumExp};
pub use rr::BasicRandomizer;
pub use seeding::SeedSequence;
pub use sign::{Sign, Ternary};
