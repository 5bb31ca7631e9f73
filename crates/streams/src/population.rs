//! A population of users and its ground truth.
//!
//! The server's target quantity is `a[t] = Σ_u st_u[t]` (Equation 1). The
//! population stores all `n` user streams as one change-time column —
//! user `u`'s change times are `change_times[offsets[u]..offsets[u + 1]]`
//! — so it holds no heap allocation per user. It computes the true counts
//! once in `O(n·k + d)` via a difference array over change times and
//! caches the largest change count, so the `k`-sparsity check the
//! protocol's preconditions need is `O(1)`.

use crate::generator::StreamGenerator;
use crate::stream::{check_change_times, BoolStream, StreamRef};
use rand::Rng;

/// `n` longitudinal Boolean user streams plus the ground-truth counts.
#[derive(Debug, Clone)]
pub struct Population {
    d: u64,
    /// Every user's change times, user after user.
    change_times: Vec<u64>,
    /// `n + 1` ascending offsets into `change_times`, from 0.
    offsets: Vec<usize>,
    /// The largest change count across users.
    max_changes: usize,
    true_counts: Vec<f64>,
}

/// The column under construction: each user's change times are appended
/// to `change_times`, then [`seal_user`](Self::seal_user) checks them,
/// adds them to the difference array and closes the user's range.
struct Column {
    d: u64,
    change_times: Vec<u64>,
    offsets: Vec<usize>,
    max_changes: usize,
    /// `diff[c]` is the net count of users switching on at period `c`.
    diff: Vec<i64>,
}

impl Column {
    fn new(d: u64, n: usize, changes: usize) -> Self {
        assert!(n >= 1, "population must have at least one user");
        assert!(d >= 1, "horizon must be non-empty");
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        Column {
            d,
            change_times: Vec::with_capacity(changes),
            offsets,
            max_changes: 0,
            diff: vec![0; d as usize + 1],
        }
    }

    /// Closes the user whose change times were appended since the last
    /// seal, under the checks of [`BoolStream::from_change_times`]. Each
    /// change at time `c` adds ±1 to every `a[t]` with `t ≥ c`.
    fn seal_user(&mut self) {
        let start = self.offsets[self.offsets.len() - 1];
        let times = &self.change_times[start..];
        check_change_times(self.d, times);
        for (i, &c) in times.iter().enumerate() {
            self.diff[c as usize] += if i % 2 == 0 { 1 } else { -1 };
        }
        self.max_changes = self.max_changes.max(times.len());
        self.offsets.push(self.change_times.len());
    }

    fn finish(mut self) -> Population {
        self.change_times.shrink_to_fit();
        let mut true_counts = Vec::with_capacity(self.d as usize);
        let mut acc = 0i64;
        for (t, &delta) in self.diff.iter().enumerate().skip(1) {
            acc += delta;
            debug_assert!(acc >= 0, "count went negative at t = {t}");
            true_counts.push(acc as f64);
        }
        Population {
            d: self.d,
            change_times: self.change_times,
            offsets: self.offsets,
            max_changes: self.max_changes,
            true_counts,
        }
    }
}

impl Population {
    /// Builds a population from explicit streams.
    ///
    /// # Panics
    /// Panics if the streams disagree on `d` or the list is empty.
    pub fn from_streams(streams: Vec<BoolStream>) -> Self {
        assert!(
            !streams.is_empty(),
            "population must have at least one user"
        );
        let d = streams[0].d();
        assert!(
            streams.iter().all(|s| s.d() == d),
            "all streams must share the same horizon"
        );
        let changes = streams.iter().map(BoolStream::change_count).sum();
        let mut column = Column::new(d, streams.len(), changes);
        for s in &streams {
            column.change_times.extend_from_slice(s.change_times());
            column.seal_user();
        }
        column.finish()
    }

    /// Draws `n` users from a generator, appending each straight into the
    /// change-time column ([`StreamGenerator::generate_into`]). Draw for
    /// draw the population [`from_streams`](Self::from_streams) builds
    /// from `n` calls of [`StreamGenerator::generate`].
    ///
    /// The column reserves its bound, `n·min(k, d)` change times, up
    /// front and shrinks to fit at the end, so it never grows by copying;
    /// the pages it reserves but does not write are never touched.
    ///
    /// # Panics
    /// Panics if `n == 0` or the generator emits an invalid change-time
    /// list (the checks of [`BoolStream::from_change_times`]).
    pub fn generate<G: StreamGenerator, R: Rng + ?Sized>(
        generator: &G,
        n: usize,
        rng: &mut R,
    ) -> Self {
        let bound = generator.k().min(generator.d() as usize);
        let mut column = Column::new(generator.d(), n, n.saturating_mul(bound));
        for _ in 0..n {
            generator.generate_into(rng, &mut column.change_times);
            column.seal_user();
        }
        column.finish()
    }

    /// The horizon length `d`.
    #[inline]
    pub fn d(&self) -> u64 {
        self.d
    }

    /// The number of users `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Every user's stream, in user order.
    pub fn streams(&self) -> impl ExactSizeIterator<Item = StreamRef<'_>> + '_ {
        self.offsets
            .windows(2)
            .map(|w| StreamRef::new(self.d, &self.change_times[w[0]..w[1]]))
    }

    /// One user's stream.
    #[inline]
    pub fn stream(&self, user: usize) -> StreamRef<'_> {
        StreamRef::new(
            self.d,
            &self.change_times[self.offsets[user]..self.offsets[user + 1]],
        )
    }

    /// The ground truth `a[t]` (`true_counts()[t−1] = a[t]`, Equation 1).
    #[inline]
    pub fn true_counts(&self) -> &[f64] {
        &self.true_counts
    }

    /// Bytes of heap memory the population holds, counted by capacity:
    /// the change-time column, its offsets and the true counts.
    pub fn heap_bytes(&self) -> usize {
        self.change_times.capacity() * std::mem::size_of::<u64>()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.true_counts.capacity() * std::mem::size_of::<f64>()
    }

    /// The largest change count across users — must be `≤ k` for the
    /// protocol's guarantees to apply. Cached at construction.
    #[inline]
    pub fn max_change_count(&self) -> usize {
        self.max_changes
    }

    /// Asserts every user changes at most `k` times, in `O(1)` unless
    /// some user does not.
    ///
    /// # Panics
    /// Panics (with the first offending user) if some stream exceeds the
    /// bound.
    pub fn assert_k_sparse(&self, k: usize) {
        if self.max_changes <= k {
            return;
        }
        let (u, s) = self
            .streams()
            .enumerate()
            .find(|(_, s)| s.change_count() > k)
            .expect("the largest change count belongs to some user");
        panic!(
            "user {u} changes {} times, exceeding k = {k}",
            s.change_count()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::UniformChanges;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn counts_match_brute_force() {
        let streams = vec![
            BoolStream::from_values(&[false, true, true, false]),
            BoolStream::from_values(&[true, true, false, false]),
            BoolStream::from_values(&[false, false, false, true]),
        ];
        let pop = Population::from_streams(streams.clone());
        for t in 1..=4u64 {
            let expect = streams.iter().filter(|s| s.value_at(t)).count() as f64;
            assert_eq!(pop.true_counts()[(t - 1) as usize], expect, "t = {t}");
        }
    }

    #[test]
    fn counts_match_brute_force_random() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = UniformChanges::new(64, 7, 0.9);
        let pop = Population::generate(&g, 200, &mut rng);
        for t in 1..=64u64 {
            let expect = pop.streams().filter(|s| s.value_at(t)).count() as f64;
            assert_eq!(pop.true_counts()[(t - 1) as usize], expect, "t = {t}");
        }
    }

    #[test]
    fn generate_respects_n_and_d() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = UniformChanges::new(32, 3, 0.5);
        let pop = Population::generate(&g, 57, &mut rng);
        assert_eq!(pop.n(), 57);
        assert_eq!(pop.d(), 32);
        assert_eq!(pop.true_counts().len(), 32);
    }

    #[test]
    fn max_change_count_and_sparsity() {
        let streams = vec![
            BoolStream::from_change_times(8, vec![1, 2]),
            BoolStream::from_change_times(8, vec![1, 2, 3, 4]),
        ];
        let pop = Population::from_streams(streams);
        assert_eq!(pop.max_change_count(), 4);
        pop.assert_k_sparse(4);
    }

    #[test]
    #[should_panic(expected = "exceeding k")]
    fn sparsity_violation_detected() {
        let pop = Population::from_streams(vec![BoolStream::from_change_times(8, vec![1, 2, 3])]);
        pop.assert_k_sparse(2);
    }

    #[test]
    #[should_panic(expected = "same horizon")]
    fn mixed_horizons_rejected() {
        let _ = Population::from_streams(vec![BoolStream::all_zero(8), BoolStream::all_zero(16)]);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn empty_population_rejected() {
        let _ = Population::from_streams(Vec::new());
    }

    #[test]
    fn counts_are_bounded_by_n() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = UniformChanges::new(128, 10, 1.0);
        let pop = Population::generate(&g, 50, &mut rng);
        for (&c, t) in pop.true_counts().iter().zip(1..) {
            assert!((0.0..=50.0).contains(&c), "a[{t}] = {c}");
        }
    }
}
