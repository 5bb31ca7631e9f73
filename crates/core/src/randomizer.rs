//! Online sequence randomizers: the paper's **FutureRand** (Algorithm 3)
//! and the naive independent randomizer of Example 4.2.
//!
//! Both implement [`LocalRandomizer`], the interface Algorithm 1 consumes:
//! a stateful perturbation of a `{−1,0,1}` sequence of length `L` with at
//! most `k` non-zeros, emitting one `{−1,+1}` bit per element, online.
//! Properties I–III of Section 4.2 are what make a type a valid
//! implementation; the tests and `rtf-analysis` audits verify them.

use crate::composed::ComposedRandomizer;
use rand::rngs::StdRng;
use rand::Rng;
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
    /// `M^{(j)}(v_j)`. A randomizer that draws per report owns its
    /// generator.
    fn try_next(&mut self, v: Ternary) -> Result<Sign, RandomizerError>;

    /// Like [`try_next`](Self::try_next) but panicking on protocol
    /// violations.
    fn next(&mut self, v: Ternary) -> Sign {
        self.try_next(v)
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
/// identical stream, and no generator is read after `init`.
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

    fn try_next(&mut self, v: Ternary) -> Result<Sign, RandomizerError> {
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

/// A whole order group's [`FutureRand`] lanes, struct-of-arrays — the
/// batched client-side randomizer of the hot pipelines.
///
/// Every client in an order group reports at the same boundaries, so
/// their randomizer positions advance in lockstep: one shared `position`
/// replaces a per-client counter. The engines' population is static, so
/// each lane arrives with its whole list of non-zero span sums, and
/// [`draw_lane`](Self::draw_lane) resolves the `j`-th of them against
/// `b̃[j]` as soon as `b̃` is drawn: what is kept is the bit the lane will
/// send, in a lane-major event table (one offsets column, one
/// `span << 1 | bit` entry per non-zero span). No `b̃` and no per-lane
/// non-zero counter survive the draw.
///
/// [`fill_span`](Self::fill_span) then emits the group's whole ±1 report
/// vector for one span as packed sign words. At each 64-span block every
/// lane's counter word is computed and that lane's events for the block
/// are patched in; each 64-lane chunk is then transposed, so a span's
/// packed signs are one row copy per chunk.
///
/// **Bit-compatible with the per-report stream**: a lane makes exactly
/// the `b̃` draws `FutureRand::init_keyed` makes from the same rng, and
/// emits exactly what `FutureRand::next` would (its counter-stream bit
/// for a zero partial sum, `v · b̃[j]` for the `j`-th non-zero `v`) — the
/// `span_lanes_match_per_report_draws` tests and the `proptest_core`
/// suite pin it down bit-for-bit.
#[derive(Debug, Clone)]
pub struct SpanRandomizers {
    l: usize,
    k: usize,
    c_gap: f64,
    /// Shared position: every lane has consumed this many elements.
    position: usize,
    /// Per-lane counter-generator keys.
    keys: Vec<u64>,
    /// Lane `i`'s events are `events[offsets[i] .. offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// One entry per non-zero span sum, spans ascending within a lane:
    /// `span << 1 | bit`, bit `1` ⇔ the lane sends `+1` there.
    events: Vec<u32>,
    /// The `k` slots each new lane's `b̃` is drawn into, reused across lanes.
    scratch: Vec<Sign>,
    /// The current 64-span block, transposed per 64-lane chunk: with
    /// `height` the block's spans below `L` (at most 64), word
    /// `height·c + s` holds chunk `c`'s signs at span `64·block + s`, bit
    /// `i` for lane `64·c + i` (zero past the last lane).
    rows: Vec<u64>,
}

impl SpanRandomizers {
    /// An empty group of length-`l` lanes drawing from `composed`'s
    /// `(k, ε̃)` parameterisation.
    ///
    /// # Panics
    /// Panics if `l > 2^31` (spans are stored as `u32` with the sent bit).
    pub fn new(l: usize, composed: &ComposedRandomizer) -> Self {
        assert!(l <= 1 << 31, "sequence length {l} exceeds the span table");
        SpanRandomizers {
            l,
            k: composed.k(),
            c_gap: composed.c_gap(),
            position: 0,
            keys: Vec::new(),
            offsets: vec![0],
            events: Vec::new(),
            scratch: vec![Sign::Plus; composed.k()],
            rows: Vec::new(),
        }
    }

    /// Reserves room for `lanes` more lanes holding `events` more
    /// non-zero span sums between them.
    pub fn reserve(&mut self, lanes: usize, events: usize) {
        self.keys.reserve(lanes);
        self.offsets.reserve(lanes);
        self.events.reserve(events);
    }

    /// Adopts one client as a new lane: draws its `b̃ = R̃(1^k)` from the
    /// client's `rng` — the draws [`FutureRand::init_keyed`] makes — and
    /// resolves each of its non-zero span sums against it, recording the
    /// bit the lane sends there. `sums` lists `(span, v)`, spans strictly
    /// ascending and below `L`, for exactly the spans whose partial sum is
    /// the non-zero `v`; the `j`-th sends `v · b̃[j]`. `key` is the lane's
    /// counter-stream key and `composed` the group's `(k, ε̃)` table.
    ///
    /// # Panics
    /// Panics on a sparsity mismatch, once the group has emitted a span
    /// (lanes advance in lockstep from position 0), and — before any draw
    /// — on the protocol violations [`LocalRandomizer::next`] panics on:
    /// more than `k` sums, or a span at or past `L`; also on spans that
    /// are not strictly ascending.
    pub fn draw_lane<R: Rng + ?Sized>(
        &mut self,
        composed: &ComposedRandomizer,
        rng: &mut R,
        key: u64,
        sums: &[(u32, Sign)],
    ) {
        assert_eq!(composed.k(), self.k, "lane sparsity mismatch");
        assert_eq!(self.position, 0, "lanes join before the first span");
        if sums.len() > self.k {
            protocol_violation(RandomizerError::TooManyNonZeros { k: self.k });
        }
        let mut floor = 0usize;
        for &(span, _) in sums {
            let span = span as usize;
            assert!(span >= floor, "span sums must be strictly ascending");
            if span >= self.l {
                protocol_violation(RandomizerError::SequenceExhausted { l: self.l });
            }
            floor = span + 1;
        }
        composed.sample_for_all_ones_into(&mut self.scratch, rng);
        self.events.extend(
            sums.iter()
                .zip(&self.scratch)
                .map(|(&(span, v), &b)| span << 1 | u32::from(v * b == Sign::Plus)),
        );
        let end = u32::try_from(self.events.len()).expect("span event table exceeds u32 offsets");
        self.offsets.push(end);
        self.keys.push(key);
    }

    /// Number of lanes (clients) in the group.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the group holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
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

    /// Emits the group's whole ±1 report vector for the next span as
    /// packed sign words: `out` receives `(bits, count)` chunks of up to
    /// 64 lanes, bit `i` of `bits` being lane `chunk_start + i`'s sign
    /// (`1` ⇒ `+1`, the packed-lane convention), ready for a `SignLane`
    /// bulk append.
    ///
    /// Every 64 spans, one [`fastseed::word`] per lane covers the block,
    /// with the lane's sent bits for the block patched in, and each
    /// 64-lane chunk is transposed; each span in the block is then one
    /// row per chunk. No RNG draws. Value-identical to
    /// `FutureRand::next`, lane for lane.
    ///
    /// # Panics
    /// Panics on exhausted lanes (`position ≥ L`), the protocol violation
    /// [`LocalRandomizer::next`] panics on.
    pub fn fill_span<F>(&mut self, mut out: F)
    where
        F: FnMut(u64, usize),
    {
        if self.position >= self.l {
            protocol_violation(RandomizerError::SequenceExhausted { l: self.l });
        }
        let j = self.position;
        self.position += 1;
        let height = (self.l - j / 64 * 64).min(64);
        if j % 64 == 0 {
            self.load_block((j / 64) as u64, height);
        }
        let lanes = self.keys.len();
        for (c, rows) in self.rows.chunks_exact(height).enumerate() {
            out(rows[j % 64], (lanes - 64 * c).min(64));
        }
    }

    /// Fills `rows` with the `height` spans of 64-span
    /// block `block`: per 64-lane chunk, each lane's counter word with its
    /// events in the block patched in, transposed, keeping the rows of
    /// spans below `L`.
    fn load_block(&mut self, block: u64, height: usize) {
        // The block's entries: spans 64·block .. 64·block + 64.
        let entries = (block << 7)..((block + 1) << 7);
        self.rows.clear();
        let mut chunk = [0u64; 64];
        for (c, keys) in self.keys.chunks(64).enumerate() {
            for (i, &key) in keys.iter().enumerate() {
                let lane = 64 * c + i;
                let events =
                    &self.events[self.offsets[lane] as usize..self.offsets[lane + 1] as usize];
                let mut word = fastseed::word(key, fastseed::SIGN_LANE, block);
                for &e in events {
                    if entries.contains(&u64::from(e)) {
                        let at = (e >> 1) & 63;
                        word = (word & !(1 << at)) | (u64::from(e & 1) << at);
                    }
                }
                chunk[i] = word;
            }
            chunk[keys.len()..].fill(0);
            transpose64(&mut chunk);
            self.rows.extend_from_slice(&chunk[..height]);
        }
    }
}

/// Panics with `err` as the protocol violation [`LocalRandomizer::next`]
/// reports.
fn protocol_violation(err: RandomizerError) -> ! {
    panic!("randomizer protocol violation: {err}")
}

/// Transposes a 64×64 bit matrix in place: afterwards bit `i` of `a[j]`
/// is what bit `j` of `a[i]` was. Six rounds of block swaps, halving the
/// block width each round.
fn transpose64(a: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask = 0x0000_0000_FFFF_FFFFu64;
    while width != 0 {
        for base in (0..64).step_by(2 * width) {
            for i in base..base + width {
                let t = ((a[i] >> width) ^ a[i + width]) & mask;
                a[i] ^= t << width;
                a[i + width] ^= t;
            }
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// The naive independent randomizer of Example 4.2: each non-zero element
/// gets an independent basic randomized response with budget `ε/k`; zeros
/// are uniform.
///
/// Satisfies Properties I–III with `c_gap = (e^{ε/k}−1)/(e^{ε/k}+1) ∈
/// Θ(ε/k)` — a factor `√k` worse than FutureRand, which is exactly the gap
/// the paper's Theorem 4.4 closes. Kept as the in-crate ablation baseline.
///
/// The only randomizer that draws per report: it owns the client's
/// generator and draws every zero's uniform sign and every non-zero's
/// response from it.
#[derive(Debug, Clone)]
pub struct IndependentRand {
    l: usize,
    k: usize,
    basic: BasicRandomizer,
    nnz: usize,
    position: usize,
    rng: StdRng,
}

impl IndependentRand {
    /// Builds the Example 4.2 randomizer for length `L`, sparsity `k`,
    /// budget `ε` (per-element budget `ε/k`), drawing from `rng`.
    pub fn new(l: usize, k: usize, epsilon: f64, rng: StdRng) -> Self {
        IndependentRand {
            l,
            k,
            basic: Self::basic(k, epsilon),
            nnz: 0,
            position: 0,
            rng,
        }
    }

    /// The preservation gap of [`new`](Self::new)`(_, k, ε, _)`, for a
    /// server built before any client.
    pub fn gap(k: usize, epsilon: f64) -> f64 {
        Self::basic(k, epsilon).gap()
    }

    fn basic(k: usize, epsilon: f64) -> BasicRandomizer {
        assert!(k >= 1, "k must be ≥ 1");
        BasicRandomizer::new(epsilon / k as f64)
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

    fn try_next(&mut self, v: Ternary) -> Result<Sign, RandomizerError> {
        if self.position >= self.l {
            return Err(RandomizerError::SequenceExhausted { l: self.l });
        }
        self.position += 1;
        match v {
            Ternary::Zero => Ok(Sign::uniform(&mut self.rng)),
            nonzero => {
                if self.nnz >= self.k {
                    self.position -= 1;
                    return Err(RandomizerError::TooManyNonZeros { k: self.k });
                }
                self.nnz += 1;
                let sign = nonzero.sign().expect("non-zero");
                Ok(self.basic.randomize(sign, &mut self.rng))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

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
            let out = m.next(v);
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
            if m.next(Ternary::Zero) == Sign::Plus {
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
                let _ = m.next(Ternary::Minus);
                let out = m.next(v);
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
        let _ = m.next(Ternary::Plus);
        let _ = m.next(Ternary::Minus);
        let err = m.try_next(Ternary::Plus).unwrap_err();
        assert_eq!(err, RandomizerError::TooManyNonZeros { k: 2 });
        // Zeros still work after the rejected call.
        assert!(m.try_next(Ternary::Zero).is_ok());
    }

    #[test]
    fn sequence_exhaustion_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let composed = ComposedRandomizer::for_protocol(2, 1.0);
        let mut m = FutureRand::init(2, &composed, &mut rng);
        let _ = m.next(Ternary::Zero);
        let _ = m.next(Ternary::Zero);
        assert_eq!(
            m.try_next(Ternary::Zero).unwrap_err(),
            RandomizerError::SequenceExhausted { l: 2 }
        );
    }

    #[test]
    fn independent_rand_gap_is_theta_eps_over_k() {
        for k in [1usize, 4, 16, 64] {
            let m = IndependentRand::new(10, k, 1.0, StdRng::seed_from_u64(0));
            let expect = (1.0f64 / k as f64 / 2.0).tanh();
            assert!((m.c_gap() - expect).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn future_rand_gap_beats_independent_by_sqrt_k() {
        // The whole point of the paper: c_gap ratio grows like √k.
        for k in [16usize, 64, 256] {
            let fr = ComposedRandomizer::for_protocol(k, 1.0).c_gap();
            let ind = IndependentRand::gap(k, 1.0);
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
        let mut m = IndependentRand::new(2, 1, 1.0, StdRng::seed_from_u64(6));
        let _ = m.next(Ternary::Zero);
        let _ = m.next(Ternary::Plus);
        assert_eq!(
            m.try_next(Ternary::Zero).unwrap_err(),
            RandomizerError::SequenceExhausted { l: 2 }
        );
        let mut m2 = IndependentRand::new(8, 1, 1.0, StdRng::seed_from_u64(7));
        let _ = m2.next(Ternary::Plus);
        assert_eq!(
            m2.try_next(Ternary::Minus).unwrap_err(),
            RandomizerError::TooManyNonZeros { k: 1 }
        );
    }

    /// The non-zero span sums of a lane whose ternary inputs are
    /// `inputs`, in [`SpanRandomizers::draw_lane`]'s form.
    fn lane_sums(inputs: impl IntoIterator<Item = Ternary>) -> Vec<(u32, Sign)> {
        inputs
            .into_iter()
            .enumerate()
            .filter_map(|(t, x)| x.sign().map(|v| (t as u32, v)))
            .collect()
    }

    /// Builds one group lane by lane with [`SpanRandomizers::draw_lane`]
    /// and the same clients with `FutureRand::init_keyed` on clones of
    /// the same rngs (asserting both leave the rng in the same state),
    /// then drives the group through [`SpanRandomizers::fill_span`] and
    /// the clients per report through `FutureRand::next`, span by span,
    /// asserting identical signs; `pattern(lane, span)` must keep every
    /// lane within its sparsity bound.
    fn assert_span_events_match_per_report(
        composed: &ComposedRandomizer,
        l: usize,
        clients: Vec<(StdRng, u64)>,
        pattern: impl Fn(usize, usize) -> Ternary,
    ) {
        let mut group = SpanRandomizers::new(l, composed);
        let mut per_report = Vec::new();
        for (i, (rng, key)) in clients.into_iter().enumerate() {
            let (mut lane_rng, mut client_rng) = (rng.clone(), rng);
            let sums = lane_sums((0..l).map(|t| pattern(i, t)));
            group.draw_lane(composed, &mut lane_rng, key, &sums);
            per_report.push(FutureRand::init_keyed(l, composed, &mut client_rng, key));
            assert_eq!(lane_rng.next_u64(), client_rng.next_u64(), "b̃ draws");
        }
        assert_eq!(group.len(), per_report.len());
        for t in 0..l {
            let mut packed: Vec<Sign> = Vec::new();
            group.fill_span(|w, count| {
                assert!(count == 64 || w >> count == 0, "bits past the chunk");
                packed.extend((0..count).map(|off| Sign::from_bool((w >> off) & 1 == 1)));
            });
            let direct: Vec<Sign> = per_report
                .iter_mut()
                .enumerate()
                .map(|(i, m)| m.next(pattern(i, t)))
                .collect();
            assert_eq!(packed, direct, "span {t} diverged");
        }
        assert_eq!(group.position(), l);
        assert!(per_report.iter().all(|m| m.position() == l));
    }

    #[test]
    fn span_lanes_match_per_report_draws() {
        // The batched group randomizer must be bit-identical to driving
        // each lane's FutureRand per report.
        let composed = ComposedRandomizer::for_protocol(3, 1.0);
        let clients = (0..5u64)
            .map(|i| (StdRng::seed_from_u64(7 + i), 0x1000 + i))
            .collect();
        // Deterministic sum pattern with ≤ k non-zeros per lane.
        assert_span_events_match_per_report(&composed, 6, clients, |lane, t| {
            match ((lane + t) % 3, t < 3) {
                (1, true) => Ternary::Plus,
                (2, true) => Ternary::Minus,
                _ => Ternary::Zero,
            }
        });
        // At k > 64 a lane's 65th and later non-zeros spend b̃[64..]:
        // lane i is non-zero at its first 68 + i spans (k = 70).
        let composed = ComposedRandomizer::for_protocol(70, 1.0);
        let clients = (0..3u64)
            .map(|i| (StdRng::seed_from_u64(70 + i), 0x7000 + i))
            .collect();
        assert_span_events_match_per_report(&composed, 100, clients, |lane, t| {
            match (t < 68 + lane, t % 2) {
                (false, _) => Ternary::Zero,
                (true, 0) => Ternary::Plus,
                (true, _) => Ternary::Minus,
            }
        });
    }

    #[test]
    fn span_events_match_per_report_draws_across_blocks_and_chunks() {
        // Across counter-block boundaries (l > 64) and for > 64 lanes
        // (multi-word output chunks, a partial last chunk), with
        // engine-derived rngs and keys.
        let composed = ComposedRandomizer::for_protocol(3, 1.0);
        let l = 130;
        let root = rtf_primitives::seeding::SeedSequence::new(31);
        let clients = (0..70u64)
            .map(|i| {
                let node = root.child(i);
                (node.rng(), fastseed::client_key(&node))
            })
            .collect();
        // At most two non-zeros per lane (k = 3), spread across both
        // counter blocks and both output words.
        assert_span_events_match_per_report(&composed, l, clients, |lane, t| {
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
    fn transpose64_matches_its_bit_by_bit_definition() {
        let transposed = |a: [u64; 64]| {
            let mut b = a;
            transpose64(&mut b);
            b
        };
        let check = |a: [u64; 64], label: &str| {
            let b = transposed(a);
            for (i, &row) in a.iter().enumerate() {
                for (j, &col) in b.iter().enumerate() {
                    assert_eq!((col >> i) & 1, (row >> j) & 1, "{label}: a[{i}] bit {j}");
                }
            }
            assert_eq!(transposed(b), a, "{label}: transposing twice");
        };
        let mut rng = StdRng::seed_from_u64(64);
        for trial in 0..8 {
            check(
                std::array::from_fn(|_| rng.next_u64()),
                &format!("random {trial}"),
            );
        }
        for (i, j) in [(0, 0), (0, 63), (63, 0), (17, 42), (63, 63)] {
            let mut a = [0u64; 64];
            a[i] = 1 << j;
            let b = transposed(a);
            let mut expect = [0u64; 64];
            expect[j] = 1 << i;
            assert_eq!(b, expect, "single bit at a[{i}] bit {j}");
        }
        assert_eq!(transposed([u64::MAX; 64]), [u64::MAX; 64], "all ones");
        // A partial last chunk: rows past the lane count are zero, so
        // every transposed row has no bit at or past it.
        for lanes in [1usize, 6, 63] {
            let a: [u64; 64] = std::array::from_fn(|i| if i < lanes { rng.next_u64() } else { 0 });
            check(a, &format!("{lanes} lanes"));
            assert!(
                transposed(a).iter().all(|&row| row >> lanes == 0),
                "{lanes} lanes"
            );
        }
    }

    /// One lane of length `l` at sparsity `k` with non-zero sums `sums`.
    fn one_lane(l: usize, k: usize, seed: u64, sums: &[(u32, Sign)]) -> SpanRandomizers {
        let composed = ComposedRandomizer::for_protocol(k, 1.0);
        let mut group = SpanRandomizers::new(l, &composed);
        group.draw_lane(&composed, &mut StdRng::seed_from_u64(seed), seed, sums);
        group
    }

    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
        match err.downcast_ref::<String>() {
            Some(msg) => msg.clone(),
            None => err.downcast_ref::<&str>().unwrap().to_string(),
        }
    }

    #[test]
    fn span_lanes_reject_exhaustion_and_excess_nonzeros() {
        // Exhaustion is an emission past L.
        let mut group = one_lane(1, 1, 8, &[(0, Sign::Plus)]);
        group.fill_span(|_, _| {});
        let msg = panic_message(|| group.fill_span(|_, _| {}));
        assert!(msg.contains("longer than declared L"), "{msg}");

        // More than k non-zero sums are refused when the lane is added,
        // before any draw.
        let composed = ComposedRandomizer::for_protocol(1, 1.0);
        let mut group = SpanRandomizers::new(4, &composed);
        let mut rng = StdRng::seed_from_u64(10);
        let untouched = rng.clone().next_u64();
        let msg = panic_message(|| {
            group.draw_lane(
                &composed,
                &mut rng,
                10,
                &[(0, Sign::Plus), (1, Sign::Minus)],
            )
        });
        assert!(msg.contains("more than k"), "{msg}");
        assert_eq!(rng.next_u64(), untouched, "a refused lane draws nothing");
        assert!(group.is_empty());

        let mut group = one_lane(4, 1, 11, &[]);
        group.fill_span(|_, _| {});
        let msg =
            panic_message(|| group.draw_lane(&composed, &mut StdRng::seed_from_u64(1), 1, &[]));
        assert!(msg.contains("before the first span"), "{msg}");
    }

    #[test]
    fn lane_sums_reject_unsorted_and_out_of_range_spans() {
        let composed = ComposedRandomizer::for_protocol(2, 1.0);
        let ascending = "strictly ascending";
        let past_l = "longer than declared L";
        for (l, spans, expect) in [
            // Out of order within one 64-span block, and across blocks.
            (100, vec![5, 3], ascending),
            (100, vec![70, 3], ascending),
            // A repeated span would spend two b̃ entries in one span.
            (100, vec![3, 3], ascending),
            (100, vec![100], past_l),
            (65, vec![64, 70], past_l),
            (3, vec![1, 64], past_l),
            (1, vec![1], past_l),
        ] {
            let mut g = SpanRandomizers::new(l, &composed);
            let sums: Vec<(u32, Sign)> = spans.into_iter().map(|s| (s, Sign::Plus)).collect();
            let msg = panic_message(|| {
                g.draw_lane(&composed, &mut StdRng::seed_from_u64(l as u64), 0, &sums)
            });
            assert!(msg.contains(expect), "L = {l}, {sums:?}: {msg}");
        }
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
        let inputs = [
            Ternary::Zero,
            Ternary::Plus,
            Ternary::Zero,
            Ternary::Minus,
            Ternary::Zero,
        ];
        let mut nz = 0usize;
        for (j, &v) in inputs.iter().enumerate() {
            let out = m.next(v);
            if v.is_nonzero() {
                assert_eq!(out, v.mul_sign(b_tilde[nz]));
                nz += 1;
            } else {
                let expect = Sign::from_bool(fastseed::sign_at(key, j as u64));
                assert_eq!(out, expect, "zero at position {j}");
            }
        }
    }

    #[test]
    fn error_display_messages() {
        let e1 = RandomizerError::TooManyNonZeros { k: 3 };
        let e2 = RandomizerError::SequenceExhausted { l: 7 };
        assert!(format!("{e1}").contains("k = 3"));
        assert!(format!("{e2}").contains("L = 7"));
    }
}
