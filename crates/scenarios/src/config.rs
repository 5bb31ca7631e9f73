//! Scenario specifications: which faults to inject, at what rates.
//!
//! A [`Scenario`] is a declarative description of how a longitudinal
//! deployment misbehaves. All rates are per-event Bernoulli probabilities
//! decided by the fault plan (the crate's `plan` module), keyed words in
//! a seed subtree disjoint from the clients' protocol randomness, so the
//! honest scenario — all rates zero — leaves the wire schedule, and
//! therefore every estimate, bit-identical to
//! `rtf_sim::engine::run_event_driven`.
//!
//! The rates also decide how much of a batched run stays on the
//! span-native fast path (`rtf_scenarios::engine`): a client/boundary
//! pair whose report is delivered on time, exactly once, stays inside
//! the packed sign-word fold; any knob that perturbs that pair —
//! `drop_prob`, `straggle_prob`, `duplicate_prob`, `malformed_prob` per
//! report, `churn_prob` from the departure period onward, and
//! `byzantine_frac` for the whole client — takes just that residue off
//! the fold: a late or retransmitted honest copy is counted by verdict,
//! and a Byzantine fabrication goes through the per-report ingestion
//! ladder. Fast-path coverage therefore
//! degrades linearly with the configured rates, not with a cliff: a
//! storm touching 10% of reports still folds the other 90% as whole
//! words.

use crate::plan::{below, open_unit};

/// A fault-injection plan for one longitudinal deployment.
///
/// Build with [`Scenario::honest`] plus the `with_*` combinators:
///
/// ```
/// use rtf_scenarios::Scenario;
/// let s = Scenario::honest()
///     .with_dropout(0.05)
///     .with_stragglers(0.1, 3)
///     .with_duplicates(0.02);
/// assert!(!s.is_honest());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Per-report probability that the network loses the message.
    pub drop_prob: f64,
    /// Per-period hazard of a client leaving permanently (all later
    /// reports are lost).
    pub churn_prob: f64,
    /// Per-report probability of delayed delivery.
    pub straggle_prob: f64,
    /// Straggler delay is uniform in `1..=max_delay` periods.
    pub max_delay: u64,
    /// Per-delivered-report probability of an extra retransmitted copy.
    pub duplicate_prob: f64,
    /// Fraction of clients that are Byzantine: they suppress their honest
    /// reports and instead emit one arbitrary-but-well-formed `ReportMsg`
    /// every period.
    pub byzantine_frac: f64,
    /// Per-emitted-report probability that the frame's encoding is
    /// corrupted in flight (truncated below the fixed-width layout). A
    /// malformed frame fails `ReportMsg::try_decode` at the server and is
    /// classified and counted, never a panic.
    pub malformed_prob: f64,
}

impl Scenario {
    /// The lossless, honest deployment — no fault of any kind.
    pub fn honest() -> Self {
        Scenario {
            drop_prob: 0.0,
            churn_prob: 0.0,
            straggle_prob: 0.0,
            max_delay: 1,
            duplicate_prob: 0.0,
            byzantine_frac: 0.0,
            malformed_prob: 0.0,
        }
    }

    /// Sets the per-report network loss probability.
    pub fn with_dropout(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Sets the per-period permanent-departure hazard.
    pub fn with_churn(mut self, p: f64) -> Self {
        self.churn_prob = p;
        self
    }

    /// Sets the per-report delay probability and the maximum delay `Δ`.
    pub fn with_stragglers(mut self, p: f64, max_delay: u64) -> Self {
        self.straggle_prob = p;
        self.max_delay = max_delay;
        self
    }

    /// Sets the per-report retransmission probability.
    pub fn with_duplicates(mut self, p: f64) -> Self {
        self.duplicate_prob = p;
        self
    }

    /// Sets the fraction of Byzantine clients.
    pub fn with_byzantine(mut self, frac: f64) -> Self {
        self.byzantine_frac = frac;
        self
    }

    /// Sets the per-emitted-report frame-corruption probability.
    pub fn with_malformed(mut self, p: f64) -> Self {
        self.malformed_prob = p;
        self
    }

    /// Whether this scenario perturbs nothing (all rates zero).
    pub fn is_honest(&self) -> bool {
        self.drop_prob == 0.0
            && self.churn_prob == 0.0
            && self.straggle_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.byzantine_frac == 0.0
            && self.malformed_prob == 0.0
    }

    /// Validates all rates.
    ///
    /// # Panics
    /// Panics if any probability leaves `[0, 1]` or `max_delay == 0`.
    pub fn validate(&self) {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("churn_prob", self.churn_prob),
            ("straggle_prob", self.straggle_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("byzantine_frac", self.byzantine_frac),
            ("malformed_prob", self.malformed_prob),
        ] {
            assert!(
                (0.0..=1.0).contains(&p) && p.is_finite(),
                "{name} = {p} must be a probability in [0, 1]"
            );
        }
        assert!(self.max_delay >= 1, "max_delay must be at least 1 period");
    }
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario::honest()
    }
}

/// The straggler delay distribution: how many periods a delayed report
/// waits before delivery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayLaw {
    /// Uniform in `1..=max_delay` — the default law, and the one every
    /// constant scenario uses.
    Uniform,
    /// Heavy (Pareto/zipf) tail: `Δ = ⌊U^{-1/α}⌋` for `U ∈ (0, 1]`,
    /// clamped to `1..=max_delay`. Small `α` means long tails — most
    /// stragglers are barely late, a few arrive near the horizon.
    Zipf {
        /// Tail exponent; must be positive and finite.
        alpha: f64,
    },
}

impl DelayLaw {
    /// Validates the law's parameters.
    ///
    /// # Panics
    /// Panics if a zipf `alpha` is not positive and finite.
    pub fn validate(&self) {
        if let DelayLaw::Zipf { alpha } = self {
            assert!(
                alpha.is_finite() && *alpha > 0.0,
                "zipf alpha = {alpha} must be positive and finite"
            );
        }
    }

    /// The delay a straggler waits, read from one word `w` of its fault
    /// plan: the uniform law maps the word into `1..=max_delay` by
    /// multiply-shift, the zipf law inverts its CDF.
    pub(crate) fn sample(&self, w: u64, max_delay: u64) -> u64 {
        match *self {
            DelayLaw::Uniform => 1 + below(w, max_delay),
            DelayLaw::Zipf { alpha } => {
                // Inverse CDF of the Pareto tail P(Δ ≥ x) = x^{-α},
                // truncated at max_delay. U ∈ (0, 1], so raw ≥ 1.
                let raw = open_unit(w).powf(-1.0 / alpha);
                if raw >= max_delay as f64 {
                    max_delay
                } else {
                    (raw as u64).max(1)
                }
            }
        }
    }
}

/// A per-period fault schedule: the scenario the fault layer applies may
/// change from period to period, which is what turns a flat fault mix
/// into a *workload* — load waves, flash crowds, churn storms.
///
/// A timeline is either **constant** (one [`Scenario`] for the whole
/// horizon) or **shaped** (one effective [`Scenario`] row per period
/// `t ∈ 1..=d`). All three execution engines (sequential, span-native
/// batched, live streaming) ask the same fault plan, which reads each
/// report's rates at its emission period, so the differential oracle's
/// value-identity guarantee carries over unchanged. A shaped timeline
/// whose rows all equal its base is the constant timeline of that base,
/// value for value.
///
/// Two rates are special because they are per-*client*, not per-report:
///
/// * `byzantine_frac` is drawn once per client before the horizon starts,
///   so it cannot vary per period — [`FaultTimeline::validate`] rejects
///   rows that disagree with the base;
/// * `churn_prob` rows form a per-period *hazard*: the departure period
///   is the first hit of a Bernoulli process over periods at those
///   rates, so it follows the survival curve `Π_{s ≤ t}(1 - p_s)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTimeline {
    base: Scenario,
    rows: Option<Vec<Scenario>>,
    delay_law: DelayLaw,
}

impl FaultTimeline {
    /// The timeline that applies `base` every period.
    pub fn constant(base: Scenario) -> Self {
        FaultTimeline {
            base,
            rows: None,
            delay_law: DelayLaw::Uniform,
        }
    }

    /// A shaped timeline: `rows[t-1]` is the effective scenario during
    /// period `t`. `base` still decides the per-client rates
    /// (`byzantine_frac`); `rows` must agree with it there.
    pub fn shaped(base: Scenario, rows: Vec<Scenario>) -> Self {
        FaultTimeline {
            base,
            rows: Some(rows),
            delay_law: DelayLaw::Uniform,
        }
    }

    /// Replaces the straggler delay distribution (default
    /// [`DelayLaw::Uniform`]).
    pub fn with_delay_law(mut self, law: DelayLaw) -> Self {
        self.delay_law = law;
        self
    }

    /// The base scenario (the whole schedule when [`Self::is_constant`]).
    pub fn base(&self) -> &Scenario {
        &self.base
    }

    /// Whether this timeline applies one scenario to every period.
    pub fn is_constant(&self) -> bool {
        self.rows.is_none()
    }

    /// The straggler delay distribution.
    pub fn delay_law(&self) -> DelayLaw {
        self.delay_law
    }

    /// The Byzantine client fraction — constant across the horizon
    /// because each client's nature is drawn once, before period 1.
    pub fn byzantine_frac(&self) -> f64 {
        self.base.byzantine_frac
    }

    /// The effective scenario during period `t` (1-based).
    #[inline]
    pub fn at(&self, t: u64) -> &Scenario {
        match &self.rows {
            None => &self.base,
            Some(rows) => &rows[(t - 1) as usize],
        }
    }

    /// The highest value `rate` takes over the horizon: the peak rate
    /// the fault plan samples a knob's skips at.
    pub(crate) fn peak(&self, rate: impl Fn(&Scenario) -> f64) -> f64 {
        match &self.rows {
            None => rate(&self.base),
            Some(rows) => rows.iter().map(rate).fold(0.0, f64::max),
        }
    }

    /// Validates the whole schedule for a horizon of `d` periods.
    ///
    /// # Panics
    /// Panics if the base or any row fails [`Scenario::validate`], if the
    /// row count is not exactly `d`, if any row's `byzantine_frac`
    /// disagrees with the base, or if the delay law is invalid.
    pub fn validate(&self, d: u64) {
        self.base.validate();
        self.delay_law.validate();
        if let Some(rows) = &self.rows {
            assert_eq!(
                rows.len(),
                d as usize,
                "shaped timeline must have exactly one row per period"
            );
            for (i, row) in rows.iter().enumerate() {
                row.validate();
                assert!(
                    row.byzantine_frac == self.base.byzantine_frac,
                    "byzantine_frac is per-client (drawn once before period 1) \
                     and cannot vary per period: row {} = {}, base = {}",
                    i + 1,
                    row.byzantine_frac,
                    self.base.byzantine_frac
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_is_honest() {
        let s = Scenario::honest();
        assert!(s.is_honest());
        s.validate();
        assert_eq!(s, Scenario::default());
    }

    #[test]
    fn combinators_set_rates() {
        let s = Scenario::honest()
            .with_dropout(0.1)
            .with_churn(0.01)
            .with_stragglers(0.2, 4)
            .with_duplicates(0.05)
            .with_byzantine(0.02);
        assert!(!s.is_honest());
        s.validate();
        assert_eq!(s.max_delay, 4);
        assert_eq!(s.drop_prob, 0.1);
    }

    #[test]
    #[should_panic(expected = "must be a probability")]
    fn out_of_range_rate_rejected() {
        Scenario::honest().with_dropout(1.5).validate();
    }

    #[test]
    #[should_panic(expected = "max_delay")]
    fn zero_delay_rejected() {
        Scenario::honest().with_stragglers(0.1, 0).validate();
    }
}
