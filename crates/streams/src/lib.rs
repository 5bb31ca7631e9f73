//! The longitudinal Boolean user-data model and synthetic workload
//! generators.
//!
//! Implements the data side of Section 2 and Definition 3.1 of *Randomize
//! the Future* (Ohrimenko, Wirth, Wu — PODS 2022):
//!
//! * [`stream::BoolStream`] — one user's Boolean value sequence
//!   `st_u ∈ {0,1}^d`, stored compactly as its ≤ `k` change times (the
//!   paper's convention `st_u[0] = 0` makes the change-time list a complete
//!   description);
//! * [`stream::StreamRef`] — a borrowed `(d, &[u64])` view of one user's
//!   change times that carries every read (`value_at`, `derivative`,
//!   `change_count`); a `BoolStream` lends one, and so does each user of
//!   a population;
//! * [`stream::Derivative`] — the discrete derivative `X_u ∈ {−1,0,1}^d`
//!   (Definition 3.1) and its dyadic partial sums `S_u(I)` (Definition 3.4,
//!   Observations 3.6/3.7);
//! * [`generator`] — synthetic workload generators covering the regimes the
//!   paper's motivation describes (rarely-changing URL lists, bursts,
//!   periodic toggles, population-level trends, adversarially aligned
//!   changes); each appends one user's change times to a buffer
//!   (`StreamGenerator::generate_into`);
//! * [`population`] — `n` users plus the ground-truth counts
//!   `a[t] = Σ_u st_u[t]` (Equation 1). The users' change times are one
//!   column with `n + 1` offsets, not a heap vector per user, and the
//!   largest change count is cached, so the `k`-sparsity check is `O(1)`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod generator;
pub mod population;
pub mod stream;

pub use generator::{
    AdversarialAligned, BurstyChanges, PeriodicToggle, StaticPopulation, StreamGenerator,
    TrendingPopulation, UniformChanges,
};
pub use population::Population;
pub use stream::{BoolStream, Derivative, StreamRef};
