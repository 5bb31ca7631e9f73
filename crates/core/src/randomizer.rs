//! Online sequence randomizers: the paper's **FutureRand** (Algorithm 3)
//! and the naive independent randomizer of Example 4.2.
//!
//! Both implement [`LocalRandomizer`], the interface Algorithm 1 consumes:
//! a stateful perturbation of a `{−1,0,1}` sequence of length `L` with at
//! most `k` non-zeros, emitting one `{−1,+1}` bit per element, online.
//! Properties I–III of Section 4.2 are what make a type a valid
//! implementation; the tests and `rtf-analysis` audits verify them.

use crate::composed::ComposedRandomizer;
use rand::{Rng, RngCore};
use rtf_primitives::fastseed;
use rtf_primitives::rr::BasicRandomizer;
use rtf_primitives::sign::{Sign, Ternary};

/// Errors from feeding a randomizer an invalid sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RandomizerError {
    /// More non-zero inputs than the sparsity bound `k` the randomizer was
    /// initialised with — the protocol's precondition was violated
    /// upstream.
    TooManyNonZeros {
        /// The sparsity bound.
        k: usize,
    },
    /// More inputs than the declared sequence length `L`.
    SequenceExhausted {
        /// The declared length.
        l: usize,
    },
}

impl std::fmt::Display for RandomizerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RandomizerError::TooManyNonZeros { k } => {
                write!(f, "input sequence has more than k = {k} non-zero elements")
            }
            RandomizerError::SequenceExhausted { l } => {
                write!(f, "input sequence longer than declared L = {l}")
            }
        }
    }
}

impl std::error::Error for RandomizerError {}

/// A stateful online randomizer for one user's length-`L`, `k`-sparse
/// report sequence (the `M` of Section 4.2).
pub trait LocalRandomizer {
    /// The declared sequence length `L`.
    fn sequence_len(&self) -> usize;

    /// How many elements have been consumed so far.
    fn position(&self) -> usize;

    /// The preservation gap `c_gap` of Property II — the server divides by
    /// this to unbias estimates (Observation 4.3).
    fn c_gap(&self) -> f64;

    /// Perturbs the next element `v_j`, returning the report bit
    /// `M^{(j)}(v_j)`.
    fn try_next(&mut self, v: Ternary, rng: &mut dyn RngCore) -> Result<Sign, RandomizerError>;

    /// Like [`try_next`](Self::try_next) but panicking on protocol
    /// violations.
    fn next(&mut self, v: Ternary, rng: &mut dyn RngCore) -> Sign {
        self.try_next(v, rng)
            .unwrap_or_else(|e| panic!("randomizer protocol violation: {e}"))
    }
}

/// The **FutureRand** randomizer (Algorithm 3).
///
/// `init` pre-computes `b̃ = R̃(1^k)` — "randomizing the future": by the
/// symmetry of the input space, the correlated noise for all `k` potential
/// non-zero elements can be drawn before any input arrives. The online
/// step `M^{(j)}(v_j)` then emits
///
/// * a uniform `±1` when `v_j = 0` (Property III), and
/// * `v_j · b̃_nnz` when `v_j ≠ 0`, consuming the next pre-computed bit
///   (Section 5.3).
///
/// The uniform zero-report signs come from the stateless counter
/// generator [`fastseed::word`] keyed by the client's private key: bit
/// `j − 1` of the key's stream for element `j`, a pure function of
/// `(key, position)`. Every execution mode therefore derives the
/// identical stream, and the `rng` handed to
/// [`next`](LocalRandomizer::next) is never consumed.
#[derive(Debug, Clone)]
pub struct FutureRand {
    l: usize,
    k: usize,
    b_tilde: Vec<Sign>,
    nnz: usize,
    position: usize,
    c_gap: f64,
    key: u64,
}

impl FutureRand {
    /// `M.init(L, k, ε)`: draws the pre-computed vector from a shared
    /// [`ComposedRandomizer`] (one per `(k, ε̃)`, reused across users),
    /// then the client's private counter-stream key from the same `rng`.
    pub fn init<R: Rng + ?Sized>(l: usize, composed: &ComposedRandomizer, rng: &mut R) -> Self {
        let mut m = Self::init_keyed(l, composed, rng, 0);
        m.key = rng.next_u64();
        m
    }

    /// [`init`](Self::init) with a key derived elsewhere — the engines
    /// pass [`fastseed::client_key`] of the user's seed node, so `rng`
    /// is consumed by the `b̃` draws only.
    pub fn init_keyed<R: Rng + ?Sized>(
        l: usize,
        composed: &ComposedRandomizer,
        rng: &mut R,
        key: u64,
    ) -> Self {
        FutureRand {
            l,
            k: composed.k(),
            b_tilde: composed.sample_for_all_ones(rng),
            nnz: 0,
            position: 0,
            c_gap: composed.c_gap(),
            key,
        }
    }

    /// Convenience: builds its own composed randomizer with the protocol
    /// parameterisation `ε̃ = ε/(5√k)`. Prefer sharing a
    /// [`ComposedRandomizer`] across users — its tables cost `O(k)` to
    /// build.
    pub fn init_standalone<R: Rng + ?Sized>(l: usize, k: usize, epsilon: f64, rng: &mut R) -> Self {
        let composed = ComposedRandomizer::for_protocol(k, epsilon);
        Self::init(l, &composed, rng)
    }

    /// The sparsity bound `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// How many non-zero elements have been consumed.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The pre-computed vector `b̃` (exposed for the online-vs-offline
    /// equivalence tests).
    #[inline]
    pub fn b_tilde(&self) -> &[Sign] {
        &self.b_tilde
    }

    /// The client's private counter-generator key.
    #[inline]
    pub fn key(&self) -> u64 {
        self.key
    }
}

impl LocalRandomizer for FutureRand {
    fn sequence_len(&self) -> usize {
        self.l
    }

    fn position(&self) -> usize {
        self.position
    }

    fn c_gap(&self) -> f64 {
        self.c_gap
    }

    fn try_next(&mut self, v: Ternary, _rng: &mut dyn RngCore) -> Result<Sign, RandomizerError> {
        if self.position >= self.l {
            return Err(RandomizerError::SequenceExhausted { l: self.l });
        }
        self.position += 1;
        match v {
            // Positional and rng-free: bit (position − 1) of the client's
            // private counter stream, so sequential, batched, and live
            // consumption cannot drift.
            Ternary::Zero => Ok(Sign::from_bool(fastseed::sign_at(
                self.key,
                (self.position - 1) as u64,
            ))),
            nonzero => {
                if self.nnz >= self.k {
                    // Roll back the position so the state stays consistent
                    // if the caller recovers.
                    self.position -= 1;
                    return Err(RandomizerError::TooManyNonZeros { k: self.k });
                }
                let bit = nonzero.mul_sign(self.b_tilde[self.nnz]);
                self.nnz += 1;
                Ok(bit)
            }
        }
    }
}

/// A whole order group's [`FutureRand`] lanes in one contiguous arena —
/// the batched client-side randomizer of the hot pipelines.
///
/// Every client in an order group reports at the same boundaries, so
/// their randomizer positions advance in lockstep: one shared `position`
/// replaces a per-client counter, the pre-computed `b̃` vectors pack
/// into a single `lanes × k` arena (no per-client heap allocation or
/// pointer chase), and [`fill_span_words`](Self::fill_span_words) draws
/// the group's whole ±1 report vector for one span as packed sign words.
///
/// **Bit-compatible with the per-report stream**: each lane emits
/// exactly what `FutureRand::next` would (its counter-stream bit for a
/// zero partial sum, `b̃[nnz]` for non-zeros) — the
/// `span_lanes_match_per_report_draws` tests and the
/// `proptest_randomizer` suite pin it down bit-for-bit.
#[derive(Debug, Clone)]
pub struct SpanRandomizers {
    l: usize,
    k: usize,
    c_gap: f64,
    /// Shared position: every lane has consumed this many elements.
    position: usize,
    /// Per-lane non-zero count (`nnz < k` or the protocol was violated).
    nnz: Vec<u32>,
    /// Packed `b̃` arena: lane `i` owns `b_tilde[i*k .. (i+1)*k]`.
    b_tilde: Vec<Sign>,
    /// Per-lane counter-generator keys.
    keys: Vec<u64>,
    /// Per-lane cached counter words for `cached_block`: one
    /// [`fastseed::word`] covers 64 consecutive spans per lane.
    words: Vec<u64>,
    /// Which 64-span counter block `words` currently holds, if any.
    cached_block: Option<u64>,
}

impl SpanRandomizers {
    /// An empty group of length-`l` lanes drawing from `composed`'s
    /// `(k, ε̃)` parameterisation.
    pub fn new(l: usize, composed: &ComposedRandomizer) -> Self {
        SpanRandomizers {
            l,
            k: composed.k(),
            c_gap: composed.c_gap(),
            position: 0,
            nnz: Vec::new(),
            b_tilde: Vec::new(),
            keys: Vec::new(),
            words: Vec::new(),
            cached_block: None,
        }
    }

    /// Adopts one client's freshly initialised [`FutureRand`] as a lane,
    /// copying its `b̃` into the arena and its key into the key table.
    /// The randomizer must be unused (position 0) and shaped like the
    /// group.
    ///
    /// # Panics
    /// Panics on a length/sparsity mismatch or a non-fresh randomizer.
    pub fn push_lane(&mut self, m: &FutureRand) {
        assert_eq!(m.sequence_len(), self.l, "lane length mismatch");
        assert_eq!(m.k(), self.k, "lane sparsity mismatch");
        assert_eq!(m.position(), 0, "lane must be unused");
        assert_eq!(m.nnz(), 0, "lane must be unused");
        assert_eq!(m.b_tilde().len(), self.k, "b̃ must hold k entries");
        self.nnz.push(0);
        self.b_tilde.extend_from_slice(m.b_tilde());
        self.keys.push(m.key());
        self.cached_block = None;
    }

    /// Number of lanes (clients) in the group.
    pub fn len(&self) -> usize {
        self.nnz.len()
    }

    /// Whether the group holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.nnz.is_empty()
    }

    /// The shared lane position — how many spans every lane has emitted.
    pub fn position(&self) -> usize {
        self.position
    }

    /// The declared per-lane sequence length `L`.
    pub fn sequence_len(&self) -> usize {
        self.l
    }

    /// The preservation gap shared by every lane.
    pub fn c_gap(&self) -> f64 {
        self.c_gap
    }

    /// Draws the group's whole ±1 report vector for the next span
    /// directly as packed sign words: `sums[i]` is lane `i`'s partial sum
    /// over the span, and `out` receives `(bits, count)` chunks of up to
    /// 64 lanes, bit `i` of `bits` being lane `chunk_start + i`'s sign
    /// (`1` ⇒ `+1`, the packed-lane convention), ready for a `SignLane`
    /// bulk append. No per-report `Sign` materialization, no RNG draws:
    /// zero sums read a cached [`fastseed::word`] per lane (refreshed
    /// once every 64 spans), and non-zero sums overlay their `b̃` bit.
    /// Value-identical to `FutureRand::next(sums[i], _)`, lane for lane.
    ///
    /// # Panics
    /// Panics on exhausted lanes (`position ≥ L`), a lane exceeding its
    /// sparsity bound, or a `sums` length other than the lane count —
    /// the same protocol violations [`LocalRandomizer::next`] panics on.
    pub fn fill_span_words<F>(&mut self, sums: &[Ternary], mut out: F)
    where
        F: FnMut(u64, usize),
    {
        assert_eq!(sums.len(), self.nnz.len(), "one sum per lane");
        if self.position >= self.l {
            panic!(
                "randomizer protocol violation: {}",
                RandomizerError::SequenceExhausted { l: self.l }
            );
        }
        self.position += 1;
        let j = (self.position - 1) as u64;
        let (block, bit) = (j >> 6, (j & 63) as u32);
        if self.cached_block != Some(block) {
            self.words.clear();
            self.words.extend(
                self.keys
                    .iter()
                    .map(|&key| fastseed::word(key, fastseed::SIGN_LANE, block)),
            );
            self.cached_block = Some(block);
        }
        let k = self.k;
        let lanes = sums.len();
        let mut start = 0usize;
        while start < lanes {
            let chunk = (lanes - start).min(64);
            let mut w = 0u64;
            // Slice-zip iteration so the compiler drops the per-lane
            // bounds checks on the sum/word columns in this hottest of
            // loops; `nnz`/`b_tilde` are only touched on the (sparse)
            // non-zero lanes.
            let sums_chunk = &sums[start..start + chunk];
            let words_chunk = &self.words[start..start + chunk];
            for (off, (&s, &word)) in sums_chunk.iter().zip(words_chunk).enumerate() {
                let plus = match s {
                    Ternary::Zero => (word >> bit) & 1 == 1,
                    nonzero => {
                        let i = start + off;
                        let n = self.nnz[i] as usize;
                        if n >= k {
                            panic!(
                                "randomizer protocol violation: {}",
                                RandomizerError::TooManyNonZeros { k }
                            );
                        }
                        self.nnz[i] = (n + 1) as u32;
                        nonzero.mul_sign(self.b_tilde[i * k + n]) == Sign::Plus
                    }
                };
                w |= u64::from(plus) << off;
            }
            out(w, chunk);
            start += chunk;
        }
    }
}

/// The naive independent randomizer of Example 4.2: each non-zero element
/// gets an independent basic randomized response with budget `ε/k`; zeros
/// are uniform.
///
/// Satisfies Properties I–III with `c_gap = (e^{ε/k}−1)/(e^{ε/k}+1) ∈
/// Θ(ε/k)` — a factor `√k` worse than FutureRand, which is exactly the gap
/// the paper's Theorem 4.4 closes. Kept as the in-crate ablation baseline.
#[derive(Debug, Clone)]
pub struct IndependentRand {
    l: usize,
    k: usize,
    basic: BasicRandomizer,
    nnz: usize,
    position: usize,
}

impl IndependentRand {
    /// Builds the Example 4.2 randomizer for length `L`, sparsity `k`,
    /// budget `ε` (per-element budget `ε/k`).
    pub fn new(l: usize, k: usize, epsilon: f64) -> Self {
        assert!(k >= 1, "k must be ≥ 1");
        IndependentRand {
            l,
            k,
            basic: BasicRandomizer::new(epsilon / k as f64),
            nnz: 0,
            position: 0,
        }
    }
}

impl LocalRandomizer for IndependentRand {
    fn sequence_len(&self) -> usize {
        self.l
    }

    fn position(&self) -> usize {
        self.position
    }

    fn c_gap(&self) -> f64 {
        self.basic.gap()
    }

    fn try_next(&mut self, v: Ternary, rng: &mut dyn RngCore) -> Result<Sign, RandomizerError> {
        if self.position >= self.l {
            return Err(RandomizerError::SequenceExhausted { l: self.l });
        }
        self.position += 1;
        match v {
            Ternary::Zero => Ok(Sign::uniform(rng)),
            nonzero => {
                if self.nnz >= self.k {
                    self.position -= 1;
                    return Err(RandomizerError::TooManyNonZeros { k: self.k });
                }
                self.nnz += 1;
                let sign = nonzero.sign().expect("non-zero");
                Ok(self.basic.randomize(sign, rng))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn future_rand_consumes_b_tilde_in_order() {
        let mut rng = StdRng::seed_from_u64(1);
        let composed = ComposedRandomizer::for_protocol(4, 1.0);
        let mut m = FutureRand::init(8, &composed, &mut rng);
        let b_tilde = m.b_tilde().to_vec();
        // Feed +1, 0, −1, 0, +1, +1: non-zeros use b̃ entries 0,1,2,3.
        let inputs = [
            Ternary::Plus,
            Ternary::Zero,
            Ternary::Minus,
            Ternary::Zero,
            Ternary::Plus,
            Ternary::Plus,
        ];
        let mut nz_seen = 0;
        for v in inputs {
            let out = m.next(v, &mut rng);
            if v.is_nonzero() {
                assert_eq!(out, v.mul_sign(b_tilde[nz_seen]));
                nz_seen += 1;
            }
        }
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.position(), 6);
    }

    #[test]
    fn property_iii_zeros_are_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let composed = ComposedRandomizer::for_protocol(2, 1.0);
        let trials = 40_000;
        let mut plus = 0usize;
        for _ in 0..trials {
            let mut m = FutureRand::init(1, &composed, &mut rng);
            if m.next(Ternary::Zero, &mut rng) == Sign::Plus {
                plus += 1;
            }
        }
        let f = plus as f64 / trials as f64;
        assert!((f - 0.5).abs() < 0.01, "zero-coordinate bias: {f}");
    }

    #[test]
    fn property_ii_empirical_gap_matches_exact() {
        // Pr[out = v] − Pr[out = −v] must equal c_gap for non-zero v of
        // either sign and any position among the non-zeros.
        let mut rng = StdRng::seed_from_u64(3);
        let composed = ComposedRandomizer::for_protocol(3, 1.0);
        let exact = composed.c_gap();
        for v in [Ternary::Plus, Ternary::Minus] {
            let trials = 300_000;
            let mut acc = 0i64;
            for _ in 0..trials {
                let mut m = FutureRand::init(4, &composed, &mut rng);
                // Consume one non-zero before the measured one to test a
                // non-first position as well.
                let _ = m.next(Ternary::Minus, &mut rng);
                let out = m.next(v, &mut rng);
                acc += if out == v.mul_sign(Sign::Plus) { 1 } else { -1 };
            }
            let emp = acc as f64 / trials as f64;
            let tol = 6.0 / (trials as f64).sqrt();
            assert!(
                (emp - exact).abs() < tol,
                "v={v:?}: empirical {emp} vs exact {exact}"
            );
        }
    }

    #[test]
    fn too_many_nonzeros_rejected_then_recoverable() {
        let mut rng = StdRng::seed_from_u64(4);
        let composed = ComposedRandomizer::for_protocol(2, 1.0);
        let mut m = FutureRand::init(8, &composed, &mut rng);
        let _ = m.next(Ternary::Plus, &mut rng);
        let _ = m.next(Ternary::Minus, &mut rng);
        let err = m.try_next(Ternary::Plus, &mut rng).unwrap_err();
        assert_eq!(err, RandomizerError::TooManyNonZeros { k: 2 });
        // Zeros still work after the rejected call.
        assert!(m.try_next(Ternary::Zero, &mut rng).is_ok());
    }

    #[test]
    fn sequence_exhaustion_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let composed = ComposedRandomizer::for_protocol(2, 1.0);
        let mut m = FutureRand::init(2, &composed, &mut rng);
        let _ = m.next(Ternary::Zero, &mut rng);
        let _ = m.next(Ternary::Zero, &mut rng);
        assert_eq!(
            m.try_next(Ternary::Zero, &mut rng).unwrap_err(),
            RandomizerError::SequenceExhausted { l: 2 }
        );
    }

    #[test]
    fn independent_rand_gap_is_theta_eps_over_k() {
        for k in [1usize, 4, 16, 64] {
            let m = IndependentRand::new(10, k, 1.0);
            let expect = (1.0f64 / k as f64 / 2.0).tanh();
            assert!((m.c_gap() - expect).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn future_rand_gap_beats_independent_by_sqrt_k() {
        // The whole point of the paper: c_gap ratio grows like √k.
        for k in [16usize, 64, 256] {
            let fr = ComposedRandomizer::for_protocol(k, 1.0).c_gap();
            let ind = IndependentRand::new(10, k, 1.0).c_gap();
            let ratio = fr / ind;
            let sqrt_k = (k as f64).sqrt();
            assert!(
                ratio > 0.1 * sqrt_k,
                "k={k}: ratio {ratio} not ≈ √k = {sqrt_k}"
            );
        }
    }

    #[test]
    fn independent_rand_zeros_uniform_and_errors_match() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut m = IndependentRand::new(2, 1, 1.0);
        let _ = m.next(Ternary::Zero, &mut rng);
        let _ = m.next(Ternary::Plus, &mut rng);
        assert_eq!(
            m.try_next(Ternary::Zero, &mut rng).unwrap_err(),
            RandomizerError::SequenceExhausted { l: 2 }
        );
        let mut m2 = IndependentRand::new(8, 1, 1.0);
        let _ = m2.next(Ternary::Plus, &mut rng);
        assert_eq!(
            m2.try_next(Ternary::Minus, &mut rng).unwrap_err(),
            RandomizerError::TooManyNonZeros { k: 1 }
        );
    }

    /// Drives one group through [`SpanRandomizers::fill_span_words`] and
    /// the same lanes per report through `FutureRand::next`, span by
    /// span, asserting identical signs; `pattern(lane, span)` must keep
    /// every lane within its sparsity bound.
    fn assert_span_words_match_per_report(
        composed: &ComposedRandomizer,
        l: usize,
        mut per_report: Vec<FutureRand>,
        pattern: impl Fn(usize, usize) -> Ternary,
    ) {
        let mut group = SpanRandomizers::new(l, composed);
        for m in &per_report {
            group.push_lane(m);
        }
        assert_eq!(group.len(), per_report.len());
        // FutureRand never draws from the per-report RNG.
        let mut rng = StdRng::seed_from_u64(999);
        for t in 0..l {
            let sums: Vec<Ternary> = (0..per_report.len()).map(|i| pattern(i, t)).collect();
            let mut packed: Vec<Sign> = Vec::new();
            group.fill_span_words(&sums, |w, count| {
                for off in 0..count {
                    packed.push(Sign::from_bool((w >> off) & 1 == 1));
                }
            });
            let direct: Vec<Sign> = sums
                .iter()
                .zip(per_report.iter_mut())
                .map(|(&s, m)| m.next(s, &mut rng))
                .collect();
            assert_eq!(packed, direct, "span {t} diverged");
        }
        assert_eq!(group.position(), l);
        assert!(per_report.iter().all(|m| m.position() == l));
        assert_eq!(
            rng.random::<u64>(),
            StdRng::seed_from_u64(999).random::<u64>()
        );
    }

    #[test]
    fn span_lanes_match_per_report_draws() {
        // The batched group randomizer must be bit-identical to driving
        // each lane's FutureRand per report.
        let composed = ComposedRandomizer::for_protocol(3, 1.0);
        let mut init_rng = StdRng::seed_from_u64(7);
        let lanes: Vec<FutureRand> = (0..5)
            .map(|_| FutureRand::init(6, &composed, &mut init_rng))
            .collect();
        // Deterministic sum pattern with ≤ k non-zeros per lane.
        assert_span_words_match_per_report(&composed, 6, lanes, |lane, t| {
            match ((lane + t) % 3, t < 3) {
                (1, true) => Ternary::Plus,
                (2, true) => Ternary::Minus,
                _ => Ternary::Zero,
            }
        });
    }

    #[test]
    fn fast_span_words_match_scalar_and_per_report_draws() {
        // Across counter-block boundaries (l > 64) and for > 64 lanes
        // (multi-word output chunks), with engine-derived keys.
        let composed = ComposedRandomizer::for_protocol(3, 1.0);
        let l = 130;
        let root = rtf_primitives::seeding::SeedSequence::new(31);
        let mut init_rng = StdRng::seed_from_u64(30);
        let lanes: Vec<FutureRand> = (0..70)
            .map(|i| {
                let key = fastseed::client_key(&root.child(i as u64));
                FutureRand::init_keyed(l, &composed, &mut init_rng, key)
            })
            .collect();
        // At most two non-zeros per lane (k = 3), spread across both
        // counter blocks.
        assert_span_words_match_per_report(&composed, l, lanes, |lane, t| {
            if t == lane % l {
                Ternary::Plus
            } else if t == (lane * 7 + 91) % l {
                Ternary::Minus
            } else {
                Ternary::Zero
            }
        });
    }

    #[test]
    fn span_lanes_reject_exhaustion_and_excess_nonzeros() {
        let composed = ComposedRandomizer::for_protocol(1, 1.0);
        let mut group = SpanRandomizers::new(1, &composed);
        let mut init_rng = StdRng::seed_from_u64(8);
        group.push_lane(&FutureRand::init(1, &composed, &mut init_rng));
        group.fill_span_words(&[Ternary::Plus], |_, _| {});
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            group.fill_span_words(&[Ternary::Zero], |_, _| {});
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("longer than declared L"), "{msg}");

        let mut group = SpanRandomizers::new(4, &composed);
        let mut init_rng = StdRng::seed_from_u64(10);
        group.push_lane(&FutureRand::init(4, &composed, &mut init_rng));
        group.fill_span_words(&[Ternary::Plus], |_, _| {});
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            group.fill_span_words(&[Ternary::Minus], |_, _| {});
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("more than k"), "{msg}");
    }

    #[test]
    fn init_draws_its_key_after_b_tilde() {
        // `init` consumes exactly what `init_keyed` does (the b̃ draws),
        // then one word for the key — group composition and b̃ do not
        // depend on where the key comes from.
        let composed = ComposedRandomizer::for_protocol(3, 1.0);
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        let drawn = FutureRand::init(6, &composed, &mut rng_a);
        let keyed = FutureRand::init_keyed(6, &composed, &mut rng_b, 0xBEEF);
        assert_eq!(drawn.b_tilde(), keyed.b_tilde());
        assert_eq!(drawn.key(), rng_b.next_u64());
        assert_eq!(rng_a.random::<u64>(), rng_b.random::<u64>());
        assert_eq!(keyed.key(), 0xBEEF);
    }

    #[test]
    fn fast_schema_zeros_come_from_the_counter_stream_without_rng_draws() {
        let composed = ComposedRandomizer::for_protocol(2, 1.0);
        let mut init_rng = StdRng::seed_from_u64(22);
        let key = 0x1234_5678_9ABC_DEF0u64;
        let mut m = FutureRand::init_keyed(8, &composed, &mut init_rng, key);
        let b_tilde = m.b_tilde().to_vec();
        let mut rng = StdRng::seed_from_u64(23);
        let mut untouched = rng.clone();
        let inputs = [
            Ternary::Zero,
            Ternary::Plus,
            Ternary::Zero,
            Ternary::Minus,
            Ternary::Zero,
        ];
        let mut nz = 0usize;
        for (j, &v) in inputs.iter().enumerate() {
            let out = m.next(v, &mut rng);
            if v.is_nonzero() {
                assert_eq!(out, v.mul_sign(b_tilde[nz]));
                nz += 1;
            } else {
                let expect = Sign::from_bool(fastseed::sign_at(key, j as u64));
                assert_eq!(out, expect, "zero at position {j}");
            }
        }
        // The per-report RNG is never touched.
        assert_eq!(rng.random::<u64>(), untouched.random::<u64>());
    }

    #[test]
    fn error_display_messages() {
        let e1 = RandomizerError::TooManyNonZeros { k: 3 };
        let e2 = RandomizerError::SequenceExhausted { l: 7 };
        assert!(format!("{e1}").contains("k = 3"));
        assert!(format!("{e2}").contains("L = 7"));
    }
}
