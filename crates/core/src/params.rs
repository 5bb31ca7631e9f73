//! Validated protocol parameters and derived per-order quantities.

use rtf_dyadic::interval::Horizon;

/// The most users a protocol can address: wire ids are `u32`, so ids
/// `0..n` need `n ≤ 2^32`.
pub const MAX_USERS: u64 = 1 << 32;

/// The longest horizon a protocol can address: wire periods are `u32`, and
/// `2^31` is the largest power of two whose periods `1..=d` all fit.
pub const MAX_HORIZON: u64 = 1 << 31;

/// Why a parameter set was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamsError {
    /// `n` must be at least 1.
    NoUsers,
    /// `n` must not exceed [`MAX_USERS`].
    TooManyUsers(usize),
    /// `d` must be a power of two, at least 1.
    BadHorizon(u64),
    /// `d` must not exceed [`MAX_HORIZON`].
    HorizonTooLong(u64),
    /// `k` must satisfy `1 ≤ k ≤ d`.
    BadChangeBound {
        /// The offending `k`.
        k: usize,
        /// The horizon `d`.
        d: u64,
    },
    /// `ε` must satisfy `0 < ε ≤ 1` (Theorem 4.1 assumes `ε ≤ 1`).
    BadEpsilon(f64),
    /// `β` must satisfy `0 < β < 1`.
    BadBeta(f64),
}

impl std::fmt::Display for ParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamsError::NoUsers => write!(f, "protocol needs at least one user"),
            ParamsError::TooManyUsers(n) => {
                write!(f, "n = {n} users exceed the u32 wire-id space (n ≤ 2^32)")
            }
            ParamsError::BadHorizon(d) => {
                write!(f, "horizon d = {d} must be a power of two ≥ 1")
            }
            ParamsError::HorizonTooLong(d) => {
                write!(f, "horizon d = {d} exceeds the u32 wire periods (d ≤ 2^31)")
            }
            ParamsError::BadChangeBound { k, d } => {
                write!(f, "change bound k = {k} must satisfy 1 ≤ k ≤ d = {d}")
            }
            ParamsError::BadEpsilon(e) => {
                write!(f, "privacy budget ε = {e} must satisfy 0 < ε ≤ 1")
            }
            ParamsError::BadBeta(b) => {
                write!(f, "failure probability β = {b} must be in (0, 1)")
            }
        }
    }
}

impl std::error::Error for ParamsError {}

/// The protocol's public parameters: `n` users, `d` time periods, at most
/// `k` changes per user, privacy budget `ε`, failure probability `β`
/// (Problem 2.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolParams {
    n: usize,
    d: u64,
    k: usize,
    epsilon: f64,
    beta: f64,
}

impl ProtocolParams {
    /// Starts a builder.
    pub fn builder() -> ProtocolParamsBuilder {
        ProtocolParamsBuilder::default()
    }

    /// Validates and constructs a parameter set. User ids and periods
    /// travel as `u32` on the wire, so `n ≤ 2^32` ([`MAX_USERS`]) and
    /// `d ≤ 2^31` ([`MAX_HORIZON`]).
    pub fn new(n: usize, d: u64, k: usize, epsilon: f64, beta: f64) -> Result<Self, ParamsError> {
        if n == 0 {
            return Err(ParamsError::NoUsers);
        }
        if n as u64 > MAX_USERS {
            return Err(ParamsError::TooManyUsers(n));
        }
        if d == 0 || !d.is_power_of_two() {
            return Err(ParamsError::BadHorizon(d));
        }
        if d > MAX_HORIZON {
            return Err(ParamsError::HorizonTooLong(d));
        }
        if k == 0 || k as u64 > d {
            return Err(ParamsError::BadChangeBound { k, d });
        }
        if !(epsilon > 0.0 && epsilon <= 1.0 && epsilon.is_finite()) {
            return Err(ParamsError::BadEpsilon(epsilon));
        }
        if !(beta > 0.0 && beta < 1.0) {
            return Err(ParamsError::BadBeta(beta));
        }
        Ok(ProtocolParams {
            n,
            d,
            k,
            epsilon,
            beta,
        })
    }

    /// Number of users `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of time periods `d` (a power of two).
    #[inline]
    pub fn d(&self) -> u64 {
        self.d
    }

    /// Per-user change bound `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Privacy budget `ε ∈ (0, 1]`.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Failure probability `β ∈ (0, 1)`.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The time horizon `[1..d]`.
    pub fn horizon(&self) -> Horizon {
        Horizon::new(self.d)
    }

    /// `1 + log₂ d` — the number of orders a client samples from
    /// (Algorithm 1, line 1).
    pub fn num_orders(&self) -> u32 {
        self.horizon().num_orders()
    }

    /// The report-sequence length at order `h`: `L = d / 2^h`.
    pub fn sequence_len(&self, h: u32) -> usize {
        self.horizon().intervals_at_order(h) as usize
    }

    /// The sparsity parameter the randomizer is instantiated with at order
    /// `h`: `k_eff = max(1, min(k, L))`. A length-`L` sequence has at most
    /// `L` non-zeros, so by the bounded-support argument of Section 5.4 the
    /// smaller parameter gives the same privacy with better utility.
    pub fn k_for_order(&self, h: u32) -> usize {
        self.k.min(self.sequence_len(h)).max(1)
    }

    /// The composed randomizer's per-coordinate budget at order `h`:
    /// `ε̃ = ε / (5·√k_eff)` (Lemma 5.2).
    pub fn eps_tilde_for_order(&self, h: u32) -> f64 {
        self.epsilon / (5.0 * (self.k_for_order(h) as f64).sqrt())
    }

    /// Theorem 4.1's non-triviality assumption
    /// `ε^{-1}·(log d)·√(k·ln(d/β)) ≤ √n`. The protocol runs either way;
    /// callers can check this to know whether the error bound is
    /// meaningful.
    pub fn satisfies_theorem_4_1_assumption(&self) -> bool {
        let lhs = (1.0 / self.epsilon)
            * (self.log_d() as f64)
            * ((self.k as f64) * (self.d as f64 / self.beta).ln()).sqrt();
        lhs <= (self.n as f64).sqrt()
    }

    /// `log₂ d`.
    pub fn log_d(&self) -> u32 {
        self.horizon().log_d()
    }

    /// Theorem 4.1's error bound (the function inside the `O(·)`):
    /// `(log d / ε) · √(k · n · ln(d/β))`.
    pub fn error_bound_theorem_4_1(&self) -> f64 {
        crate::bounds::future_rand_bound(self.n, self.d, self.k, self.epsilon, self.beta)
    }
}

impl std::fmt::Display for ProtocolParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} d={} k={} ε={} β={}",
            self.n, self.d, self.k, self.epsilon, self.beta
        )
    }
}

/// Builder for [`ProtocolParams`].
#[derive(Debug, Clone, Default)]
pub struct ProtocolParamsBuilder {
    n: Option<usize>,
    d: Option<u64>,
    k: Option<usize>,
    epsilon: Option<f64>,
    beta: Option<f64>,
}

impl ProtocolParamsBuilder {
    /// Sets the number of users.
    pub fn n(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    /// Sets the number of time periods (must be a power of two).
    pub fn d(mut self, d: u64) -> Self {
        self.d = Some(d);
        self
    }

    /// Sets the per-user change bound.
    pub fn k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Sets the privacy budget.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = Some(epsilon);
        self
    }

    /// Sets the failure probability.
    pub fn beta(mut self, beta: f64) -> Self {
        self.beta = Some(beta);
        self
    }

    /// Validates and builds.
    ///
    /// Missing fields default to nothing — all five must be provided.
    pub fn build(self) -> Result<ProtocolParams, ParamsError> {
        let n = self.n.ok_or(ParamsError::NoUsers)?;
        let d = self.d.ok_or(ParamsError::BadHorizon(0))?;
        let k = self.k.ok_or(ParamsError::BadChangeBound { k: 0, d })?;
        let epsilon = self.epsilon.ok_or(ParamsError::BadEpsilon(f64::NAN))?;
        let beta = self.beta.ok_or(ParamsError::BadBeta(f64::NAN))?;
        ProtocolParams::new(n, d, k, epsilon, beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> ProtocolParams {
        ProtocolParams::new(10_000, 256, 8, 1.0, 0.05).unwrap()
    }

    #[test]
    fn builder_round_trip() {
        let p = ProtocolParams::builder()
            .n(10_000)
            .d(256)
            .k(8)
            .epsilon(1.0)
            .beta(0.05)
            .build()
            .unwrap();
        assert_eq!(p, good());
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        assert_eq!(
            ProtocolParams::new(0, 256, 8, 1.0, 0.05).unwrap_err(),
            ParamsError::NoUsers
        );
        assert!(matches!(
            ProtocolParams::new(10, 100, 8, 1.0, 0.05).unwrap_err(),
            ParamsError::BadHorizon(100)
        ));
        assert!(matches!(
            ProtocolParams::new(10, 256, 0, 1.0, 0.05).unwrap_err(),
            ParamsError::BadChangeBound { .. }
        ));
        assert!(matches!(
            ProtocolParams::new(10, 256, 300, 1.0, 0.05).unwrap_err(),
            ParamsError::BadChangeBound { .. }
        ));
        assert!(matches!(
            ProtocolParams::new(10, 256, 8, 0.0, 0.05).unwrap_err(),
            ParamsError::BadEpsilon(_)
        ));
        assert!(matches!(
            ProtocolParams::new(10, 256, 8, 1.5, 0.05).unwrap_err(),
            ParamsError::BadEpsilon(_)
        ));
        assert!(matches!(
            ProtocolParams::new(10, 256, 8, 1.0, 0.0).unwrap_err(),
            ParamsError::BadBeta(_)
        ));
        assert!(matches!(
            ProtocolParams::new(10, 256, 8, 1.0, 1.0).unwrap_err(),
            ParamsError::BadBeta(_)
        ));
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn user_count_capped_at_the_u32_id_space() {
        let max = MAX_USERS as usize;
        assert!(ProtocolParams::new(max, 256, 8, 1.0, 0.05).is_ok());
        assert_eq!(
            ProtocolParams::new(max + 1, 256, 8, 1.0, 0.05).unwrap_err(),
            ParamsError::TooManyUsers(max + 1)
        );
    }

    #[test]
    fn horizon_capped_at_the_u32_periods() {
        let p = ProtocolParams::new(10, MAX_HORIZON, 8, 1.0, 0.05).unwrap();
        assert_eq!(p.log_d(), 31);
        assert_eq!(
            ProtocolParams::new(10, 1 << 32, 8, 1.0, 0.05).unwrap_err(),
            ParamsError::HorizonTooLong(1 << 32)
        );
        let msg = ParamsError::HorizonTooLong(1 << 32).to_string();
        assert!(msg.contains("2^31"), "{msg}");
    }

    #[test]
    fn derived_quantities() {
        let p = good();
        assert_eq!(p.log_d(), 8);
        assert_eq!(p.num_orders(), 9);
        assert_eq!(p.sequence_len(0), 256);
        assert_eq!(p.sequence_len(8), 1);
        // k_eff = min(k, L), at least 1.
        assert_eq!(p.k_for_order(0), 8);
        assert_eq!(p.k_for_order(5), 8); // L = 8
        assert_eq!(p.k_for_order(6), 4); // L = 4
        assert_eq!(p.k_for_order(8), 1); // L = 1
    }

    #[test]
    fn eps_tilde_formula() {
        let p = good();
        let expect = 1.0 / (5.0 * (8f64).sqrt());
        assert!((p.eps_tilde_for_order(0) - expect).abs() < 1e-15);
        // At order 8 k_eff = 1 so ε̃ = ε/5.
        assert!((p.eps_tilde_for_order(8) - 0.2).abs() < 1e-15);
    }

    #[test]
    fn assumption_check_scales_with_n() {
        // Tiny n fails, huge n passes.
        let small = ProtocolParams::new(10, 256, 8, 1.0, 0.05).unwrap();
        assert!(!small.satisfies_theorem_4_1_assumption());
        let big = ProtocolParams::new(10_000_000, 256, 8, 1.0, 0.05).unwrap();
        assert!(big.satisfies_theorem_4_1_assumption());
    }

    #[test]
    fn error_bound_monotonicity() {
        let base = good();
        let more_changes = ProtocolParams::new(10_000, 256, 32, 1.0, 0.05).unwrap();
        let more_users = ProtocolParams::new(40_000, 256, 8, 1.0, 0.05).unwrap();
        let less_privacy = ProtocolParams::new(10_000, 256, 8, 0.5, 0.05).unwrap();
        assert!(more_changes.error_bound_theorem_4_1() > base.error_bound_theorem_4_1());
        assert!(more_users.error_bound_theorem_4_1() > base.error_bound_theorem_4_1());
        assert!(less_privacy.error_bound_theorem_4_1() > base.error_bound_theorem_4_1());
        // √k and √n scaling, 1/ε scaling — exact ratios.
        let r_k = more_changes.error_bound_theorem_4_1() / base.error_bound_theorem_4_1();
        assert!((r_k - 2.0).abs() < 1e-12, "√(32/8) = 2, got {r_k}");
        let r_n = more_users.error_bound_theorem_4_1() / base.error_bound_theorem_4_1();
        assert!((r_n - 2.0).abs() < 1e-12);
        let r_e = less_privacy.error_bound_theorem_4_1() / base.error_bound_theorem_4_1();
        assert!((r_e - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_contains_all_fields() {
        let s = format!("{}", good());
        for needle in ["10000", "256", "8", "1", "0.05"] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }

    #[test]
    fn missing_builder_fields_error() {
        assert!(ProtocolParams::builder().build().is_err());
        assert!(ProtocolParams::builder().n(5).d(8).k(2).build().is_err());
    }
}
