//! One user's longitudinal Boolean data and its discrete derivative.
//!
//! The paper fixes `st_u[0] = 0` (Definition 3.1), so a value sequence is
//! fully described by the *times at which it flips*. We store exactly that:
//! a strictly increasing list of change times in `[1..d]`. The number of
//! changes is `‖X_u‖₀`, the quantity bounded by `k` throughout the paper,
//! and all queries the protocol needs — `st_u[t]`, `X_u[t]`, partial sums
//! `S_u(I)` — are `O(log k)` via binary search.
//!
//! Every read goes through [`StreamRef`], a borrowed `(d, &[u64])` view:
//! an owned [`BoolStream`] lends one, and so does each user of a
//! [`Population`](crate::population::Population), whose change times
//! live in one shared column.

use rtf_dyadic::interval::DyadicInterval;
use rtf_primitives::sign::Ternary;

/// Checks what makes a change-time list valid on `[1..d]`: strictly
/// increasing, each time in `[1..d]`.
///
/// # Panics
/// Panics if a change time is out of range or the list is not strictly
/// increasing.
pub(crate) fn check_change_times(d: u64, change_times: &[u64]) {
    for w in change_times.windows(2) {
        assert!(
            w[0] < w[1],
            "change times must be strictly increasing, got {} then {}",
            w[0],
            w[1]
        );
    }
    if let (Some(&first), Some(&last)) = (change_times.first(), change_times.last()) {
        assert!(first >= 1, "change times are 1-based");
        assert!(last <= d, "change time {last} beyond horizon {d}");
    }
}

/// A user's Boolean value sequence over `[1..d]`, stored as change times.
///
/// Invariants: change times are strictly increasing and within `[1..d]`.
/// By the paper's convention the value before time 1 is 0, so the value at
/// time `t` is the parity of the number of changes at or before `t`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoolStream {
    d: u64,
    change_times: Vec<u64>,
}

impl BoolStream {
    /// Builds a stream on `[1..d]` from its change times (strictly
    /// increasing, each in `[1..d]`).
    ///
    /// # Panics
    /// Panics if a change time is out of range or the list is not strictly
    /// increasing.
    pub fn from_change_times(d: u64, change_times: Vec<u64>) -> Self {
        assert!(d >= 1, "horizon must be non-empty");
        check_change_times(d, &change_times);
        BoolStream { d, change_times }
    }

    /// Builds a stream from an explicit value sequence (`values[t−1]` is
    /// `st_u[t]`), deriving the change times.
    pub fn from_values(values: &[bool]) -> Self {
        assert!(!values.is_empty(), "horizon must be non-empty");
        let mut change_times = Vec::new();
        let mut prev = false; // st_u[0] = 0
        for (i, &v) in values.iter().enumerate() {
            if v != prev {
                change_times.push((i + 1) as u64);
                prev = v;
            }
        }
        BoolStream {
            d: values.len() as u64,
            change_times,
        }
    }

    /// A stream that is 0 everywhere.
    pub fn all_zero(d: u64) -> Self {
        Self::from_change_times(d, Vec::new())
    }

    /// The borrowed view every read goes through.
    #[inline]
    pub fn view(&self) -> StreamRef<'_> {
        StreamRef::new(self.d, &self.change_times)
    }

    /// The horizon length `d`.
    #[inline]
    pub fn d(&self) -> u64 {
        self.d
    }

    /// The change times (strictly increasing, 1-based).
    #[inline]
    pub fn change_times(&self) -> &[u64] {
        &self.change_times
    }

    /// `‖X_u‖₀` — the number of value changes, the quantity the protocol
    /// bounds by `k`.
    #[inline]
    pub fn change_count(&self) -> usize {
        self.change_times.len()
    }

    /// `st_u[t]` for `t ∈ [0..d]` ([`StreamRef::value_at`]).
    ///
    /// # Panics
    /// Panics if `t > d`.
    pub fn value_at(&self, t: u64) -> bool {
        self.view().value_at(t)
    }

    /// The full value sequence (`result[t−1] = st_u[t]`).
    pub fn values(&self) -> Vec<bool> {
        self.view().values()
    }

    /// The discrete derivative `X_u` (Definition 3.1), borrowing this
    /// stream's change-time list.
    pub fn derivative(&self) -> Derivative<'_> {
        self.view().derivative()
    }
}

/// A borrowed view of one user's stream: the horizon `d` and the change
/// times, which an owned [`BoolStream`] or a population's change-time
/// column holds. Copyable; every read of a stream is a method here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRef<'a> {
    d: u64,
    change_times: &'a [u64],
}

impl<'a> StreamRef<'a> {
    /// A view of change times its owner has already checked.
    #[inline]
    pub(crate) fn new(d: u64, change_times: &'a [u64]) -> Self {
        StreamRef { d, change_times }
    }

    /// The horizon length `d`.
    #[inline]
    pub fn d(&self) -> u64 {
        self.d
    }

    /// The change times (strictly increasing, 1-based).
    #[inline]
    pub fn change_times(&self) -> &'a [u64] {
        self.change_times
    }

    /// `‖X_u‖₀` — the number of value changes.
    #[inline]
    pub fn change_count(&self) -> usize {
        self.change_times.len()
    }

    /// `st_u[t]` for `t ∈ [0..d]` — the paper defines `st_u[0] = 0`.
    ///
    /// # Panics
    /// Panics if `t > d`.
    pub fn value_at(&self, t: u64) -> bool {
        assert!(t <= self.d, "time {t} beyond horizon {}", self.d);
        // Number of changes in [1..t]; parity gives the value.
        let changes_up_to = self.change_times.partition_point(|&c| c <= t);
        changes_up_to % 2 == 1
    }

    /// The full value sequence (`result[t−1] = st_u[t]`).
    pub fn values(&self) -> Vec<bool> {
        let mut out = vec![false; self.d as usize];
        let mut v = false;
        let mut next_change = 0usize;
        for t in 1..=self.d {
            if next_change < self.change_times.len() && self.change_times[next_change] == t {
                v = !v;
                next_change += 1;
            }
            out[(t - 1) as usize] = v;
        }
        out
    }

    /// The discrete derivative `X_u` (Definition 3.1) over this view's
    /// change times.
    #[inline]
    pub fn derivative(self) -> Derivative<'a> {
        Derivative { stream: self }
    }
}

/// The discrete derivative `X_u ∈ {−1, 0, 1}^d` of a stream
/// (Definition 3.1): `X_u[t] = st_u[t] − st_u[t−1]`.
///
/// Because `st_u[0] = 0`, the non-zeros of `X_u` are exactly the change
/// times, alternating `+1, −1, +1, …` starting with `+1`.
#[derive(Debug, Clone, Copy)]
pub struct Derivative<'a> {
    stream: StreamRef<'a>,
}

impl<'a> Derivative<'a> {
    /// The horizon length `d`.
    #[inline]
    pub fn d(&self) -> u64 {
        self.stream.d
    }

    /// `X_u[t]` for `t ∈ [1..d]`.
    ///
    /// # Panics
    /// Panics if `t` is off-horizon.
    pub fn at(&self, t: u64) -> Ternary {
        assert!(
            (1..=self.stream.d).contains(&t),
            "time {t} outside [1..{}]",
            self.stream.d
        );
        match self.stream.change_times.binary_search(&t) {
            // The (i+1)-th change: odd-numbered changes are 0→1 (+1).
            Ok(i) => {
                if i % 2 == 0 {
                    Ternary::Plus
                } else {
                    Ternary::Minus
                }
            }
            Err(_) => Ternary::Zero,
        }
    }

    /// The support `supp(X_u)` — exactly the change times.
    #[inline]
    pub fn support(&self) -> &'a [u64] {
        self.stream.change_times
    }

    /// `‖X_u‖₀`.
    #[inline]
    pub fn nonzero_count(&self) -> usize {
        self.stream.change_count()
    }

    /// The dyadic partial sum `S_u(I) = Σ_{t ∈ I} X_u[t]` (Definition 3.4).
    ///
    /// Computed as `st_u[end(I)] − st_u[start(I)−1]` (Observation 3.7), so
    /// the result is always in `{−1, 0, 1}` and costs `O(log k)`.
    pub fn partial_sum(&self, interval: DyadicInterval) -> Ternary {
        assert!(
            interval.end() <= self.stream.d,
            "interval {interval} beyond horizon {}",
            self.stream.d
        );
        let before = self.stream.value_at(interval.start() - 1);
        let after = self.stream.value_at(interval.end());
        match (before, after) {
            (false, true) => Ternary::Plus,
            (true, false) => Ternary::Minus,
            _ => Ternary::Zero,
        }
    }

    /// The full derivative as a dense vector (`result[t−1] = X_u[t]`).
    pub fn to_vec(&self) -> Vec<Ternary> {
        let mut out = vec![Ternary::Zero; self.stream.d as usize];
        for (i, &c) in self.stream.change_times.iter().enumerate() {
            out[(c - 1) as usize] = if i % 2 == 0 {
                Ternary::Plus
            } else {
                Ternary::Minus
            };
        }
        out
    }

    /// A streaming cursor over this derivative: [`DerivativeCursor::next_at`]
    /// yields `X_u[t]` for ascending `t` in `O(1)` amortised, replacing
    /// the per-period binary search of [`at`](Self::at) on loops that
    /// sweep every period anyway (the reference client schedule). The
    /// cursor borrows the underlying change times, not this (freely
    /// copyable) derivative view, so it outlives the view expression.
    pub fn cursor(&self) -> DerivativeCursor<'a> {
        DerivativeCursor {
            stream: self.stream,
            idx: 0,
            last_t: 0,
        }
    }
}

/// A streaming cursor over one derivative (see [`Derivative::cursor`]).
///
/// Holds only a [`StreamRef`] and an index, so a million cursors cost a
/// million `(d, &[u64], usize)` triples and each step is a single
/// predictable comparison — the reference client schedule
/// (`rtf_core::client::Clients`) keeps one per client state machine.
#[derive(Debug, Clone)]
pub struct DerivativeCursor<'a> {
    stream: StreamRef<'a>,
    idx: usize,
    last_t: u64,
}

impl DerivativeCursor<'_> {
    /// `X_u[t]` for the next period. Periods must be consumed in order
    /// (`t` strictly ascending from 1), mirroring the client state
    /// machine's own in-order contract; debug builds assert it (the
    /// release hot path keeps only the branch it needs).
    #[inline]
    pub fn next_at(&mut self, t: u64) -> Ternary {
        debug_assert!(
            t == self.last_t + 1 && t <= self.stream.d,
            "cursor periods must ascend: expected {}, got {t} (d = {})",
            self.last_t + 1,
            self.stream.d
        );
        self.last_t = t;
        let changes = self.stream.change_times;
        if self.idx < changes.len() && changes[self.idx] == t {
            let x = if self.idx % 2 == 0 {
                Ternary::Plus
            } else {
                Ternary::Minus
            };
            self.idx += 1;
            x
        } else {
            Ternary::Zero
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_dyadic::interval::Horizon;

    #[test]
    fn cursor_matches_random_access_everywhere() {
        for changes in [
            vec![],
            vec![1],
            vec![16],
            vec![1, 5, 6, 11, 16],
            vec![2, 3, 4, 5],
        ] {
            let s = BoolStream::from_change_times(16, changes.clone());
            let x = s.derivative();
            let mut cursor = x.cursor();
            for t in 1..=16u64 {
                assert_eq!(cursor.next_at(t), x.at(t), "t={t}, changes {changes:?}");
            }
        }
    }

    /// The running example of the paper: st_u = (0, 1, 1, 0).
    fn paper_example() -> BoolStream {
        BoolStream::from_values(&[false, true, true, false])
    }

    #[test]
    fn paper_example_derivative() {
        // Definition 3.1 example: st = (0,1,1,0) ⇒ X = (0,1,0,−1).
        let s = paper_example();
        assert_eq!(s.change_times(), &[2, 4]);
        let x = s.derivative();
        let dense: Vec<i8> = x.to_vec().iter().map(|t| t.value()).collect();
        assert_eq!(dense, vec![0, 1, 0, -1]);
    }

    #[test]
    fn paper_example_3_5_partial_sums() {
        // Example 3.5: all partial sums of X_u = (0,1,0,−1).
        let s = paper_example();
        let x = s.derivative();
        let expect = [
            ((0u32, 1u64), 0i8),
            ((0, 2), 1),
            ((0, 3), 0),
            ((0, 4), -1),
            ((1, 1), 1),
            ((1, 2), -1),
            ((2, 1), 0),
        ];
        for ((h, j), v) in expect {
            assert_eq!(
                x.partial_sum(DyadicInterval::new(h, j)).value(),
                v,
                "S(I_{{{h},{j}}})"
            );
        }
    }

    #[test]
    fn observation_3_9_prefix_identity() {
        // st_u[t] = Σ_{I ∈ C(t)} S_u(I) for every t (Observation 3.9,
        // single-user form).
        let s = BoolStream::from_change_times(16, vec![1, 5, 6, 11, 16]);
        let x = s.derivative();
        for t in 1..=16u64 {
            let sum: i64 = rtf_dyadic::decompose::decompose_prefix(t)
                .into_iter()
                .map(|i| x.partial_sum(i).value() as i64)
                .sum();
            assert_eq!(sum, s.value_at(t) as i64, "t = {t}");
        }
    }

    #[test]
    fn observation_3_6_sparsity_per_order() {
        // At most k non-zero partial sums at each order.
        let s = BoolStream::from_change_times(64, vec![3, 17, 40]);
        let x = s.derivative();
        let hz = Horizon::new(64);
        for h in hz.orders() {
            let nonzero = hz
                .iset_at_order(h)
                .filter(|&i| x.partial_sum(i).is_nonzero())
                .count();
            assert!(nonzero <= 3, "order {h}: {nonzero} non-zeros");
        }
    }

    #[test]
    fn values_round_trip() {
        let patterns: [&[bool]; 4] = [
            &[false, false, false],
            &[true, false, true, true],
            &[true; 7],
            &[false, true, false, true, false, true],
        ];
        for p in patterns {
            let s = BoolStream::from_values(p);
            assert_eq!(s.values(), p, "round trip for {p:?}");
            for (i, &v) in p.iter().enumerate() {
                assert_eq!(s.value_at((i + 1) as u64), v);
            }
        }
    }

    #[test]
    fn value_at_zero_is_false() {
        let s = BoolStream::from_change_times(8, vec![1]);
        assert!(!s.value_at(0), "st_u[0] = 0 by convention");
        assert!(s.value_at(1));
    }

    #[test]
    fn change_count_equals_derivative_l0() {
        let s = BoolStream::from_change_times(32, vec![2, 9, 10, 31]);
        assert_eq!(s.change_count(), 4);
        let dense = s.derivative().to_vec();
        let l0 = dense.iter().filter(|t| t.is_nonzero()).count();
        assert_eq!(l0, 4);
    }

    #[test]
    fn derivative_alternates_signs() {
        let s = BoolStream::from_change_times(32, vec![4, 8, 15, 16, 23]);
        let x = s.derivative();
        let signs: Vec<i8> = s.change_times().iter().map(|&c| x.at(c).value()).collect();
        assert_eq!(signs, vec![1, -1, 1, -1, 1]);
    }

    #[test]
    fn all_zero_stream() {
        let s = BoolStream::all_zero(16);
        assert_eq!(s.change_count(), 0);
        assert!((0..=16).all(|t| !s.value_at(t)));
        let x = s.derivative();
        assert!(x.to_vec().iter().all(|t| !t.is_nonzero()));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_change_times_rejected() {
        let _ = BoolStream::from_change_times(8, vec![3, 3]);
    }

    #[test]
    #[should_panic(expected = "beyond horizon")]
    fn out_of_range_change_time_rejected() {
        let _ = BoolStream::from_change_times(8, vec![9]);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_change_time_rejected() {
        let _ = BoolStream::from_change_times(8, vec![0, 1]);
    }

    #[test]
    fn partial_sum_always_in_ternary_range() {
        // Observation 3.7: S_u(I) ∈ {−1, 0, 1} no matter how many changes
        // fall inside I.
        let s = BoolStream::from_change_times(16, (1..=16).collect());
        let x = s.derivative();
        let hz = Horizon::new(16);
        for i in hz.iset() {
            let v = x.partial_sum(i).value();
            assert!((-1..=1).contains(&v));
        }
    }
}
