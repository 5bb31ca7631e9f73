//! Derived queries over the server's interval estimates.
//!
//! Algorithm 2 answers prefix queries (`â[t]`). But the same per-interval
//! estimates `Ŝ(I_{h,j})` support more: any *window change*
//! `a[r] − a[l−1]` decomposes over `decompose_range(l, r)` into at most
//! `2·⌈log(r−l+1)⌉` dyadic intervals (the remark after Fact 3.8), each of
//! which the server has already estimated. Because every `Ŝ` is unbiased,
//! so is every such combination — and no extra privacy budget is spent:
//! this is pure post-processing of the already-released values.
//!
//! [`EstimateStore`] retains the full dyadic tree of finalized `Ŝ`
//! values (`2d − 1` floats) and answers:
//!
//! * `prefix(t)` — the standard `â[t]` (identical to the streaming
//!   frontier's answer);
//! * `window_change(l, r)` — unbiased estimate of `a[r] − a[l−1]` with
//!   error `O(√(log(r−l+1)))·noise-scale`, independent of `t` — much
//!   sharper than the difference of two prefixes when the window is
//!   short;
//! * `interval_sum(I)` — the raw `Ŝ(I)` for custom post-processing.

use crate::params::ProtocolParams;
use crate::snapshot::{SnapReader, SnapWriter, SnapshotError};
use rtf_dyadic::decompose::{decompose_prefix, decompose_range};
use rtf_dyadic::interval::DyadicInterval;
use rtf_dyadic::tree::DyadicTree;

/// Dense storage of every finalized interval estimate `Ŝ(I_{h,j})`.
#[derive(Debug, Clone)]
pub struct EstimateStore {
    tree: DyadicTree<f64>,
    finalized_through: u64,
}

impl EstimateStore {
    /// An empty store for the given parameters.
    pub fn new(params: &ProtocolParams) -> Self {
        EstimateStore {
            tree: DyadicTree::new(params.horizon()),
            finalized_through: 0,
        }
    }

    /// Records the finalized estimate of one interval. Must be called for
    /// every interval ending at `t`, for `t = 1, 2, …` in order (the
    /// server does this as periods close).
    ///
    /// # Panics
    /// Panics if the interval ends after the last closed period + 1.
    pub fn record(&mut self, interval: DyadicInterval, s_hat: f64) {
        assert!(
            interval.end() <= self.finalized_through + 1,
            "interval {interval} recorded before its completion period"
        );
        *self.tree.get_mut(interval) = s_hat;
        self.finalized_through = self.finalized_through.max(interval.end());
    }

    /// The last period through which all intervals are finalized.
    pub fn finalized_through(&self) -> u64 {
        self.finalized_through
    }

    /// The raw interval estimate `Ŝ(I)`.
    ///
    /// # Panics
    /// Panics if the interval has not completed yet.
    pub fn interval_sum(&self, interval: DyadicInterval) -> f64 {
        assert!(
            interval.end() <= self.finalized_through,
            "interval {interval} not finalized yet (through {})",
            self.finalized_through
        );
        *self.tree.get(interval)
    }

    /// The prefix estimate `â[t] = Σ_{I ∈ C(t)} Ŝ(I)` (Algorithm 2,
    /// line 6).
    pub fn prefix(&self, t: u64) -> f64 {
        assert!(
            t >= 1 && t <= self.finalized_through,
            "prefix query at t={t} outside finalized range [1..{}]",
            self.finalized_through
        );
        decompose_prefix(t)
            .into_iter()
            .map(|i| self.interval_sum(i))
            .sum()
    }

    /// Unbiased estimate of the *window change* `a[r] − a[l−1]`
    /// (`= Σ_{t ∈ [l..r]} Σ_u X_u[t]`), via the minimal dyadic cover of
    /// `[l..r]`.
    ///
    /// Uses at most `2⌈log(r−l+1)⌉ + 2` interval estimates, so its noise
    /// is governed by the window length, not the absolute time — for
    /// short windows this is much sharper than `prefix(r) − prefix(l−1)`.
    pub fn window_change(&self, l: u64, r: u64) -> f64 {
        assert!(l >= 1 && l <= r, "bad window [{l}..{r}]");
        assert!(
            r <= self.finalized_through,
            "window end {r} not finalized yet (through {})",
            self.finalized_through
        );
        decompose_range(l, r)
            .into_iter()
            .map(|i| self.interval_sum(i))
            .sum()
    }

    /// Number of interval estimates a window query combines — the error
    /// of [`window_change`](Self::window_change) scales with the square
    /// root of this.
    pub fn window_cost(l: u64, r: u64) -> usize {
        decompose_range(l, r).len()
    }

    /// Serializes the store: `finalized_through`, then every interval
    /// value in canonical tree order (order-major, index-ascending — the
    /// shape is fully determined by the horizon, so no lengths needed).
    pub fn write_state(&self, w: &mut SnapWriter) {
        w.u64(self.finalized_through);
        for (_, v) in self.tree.iter() {
            w.f64(*v);
        }
    }

    /// Rebuilds a store for `params` from bytes written by
    /// [`write_state`](Self::write_state).
    ///
    /// # Errors
    /// Typed [`SnapshotError`] on truncation or a `finalized_through`
    /// beyond the horizon. The `2d − 1` tree is allocated only once the
    /// payload is known to hold all of it.
    pub fn read_state(
        params: &ProtocolParams,
        r: &mut SnapReader<'_>,
    ) -> Result<Self, SnapshotError> {
        let finalized_through = r.u64()?;
        if finalized_through > params.d() {
            return Err(SnapshotError::Corrupt(
                "estimate store finalized beyond the horizon",
            ));
        }
        r.room_for(2 * params.d() - 1, 8)?;
        let hz = params.horizon();
        let mut tree = DyadicTree::new(hz);
        for h in 0..hz.num_orders() {
            for j in 1..=hz.intervals_at_order(h) {
                *tree.get_mut(DyadicInterval::new(h, j)) = r.f64()?;
            }
        }
        Ok(EstimateStore {
            tree,
            finalized_through,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_dyadic::interval::Horizon;

    /// Fills a store with the *exact* interval sums of a known series, so
    /// every query must be exact.
    fn exact_store(d: u64, leaves: &[f64]) -> EstimateStore {
        let params = ProtocolParams::new(10, d, 1, 1.0, 0.05).unwrap();
        let mut store = EstimateStore::new(&params);
        let hz = Horizon::new(d);
        for t in 1..=d {
            for h in 0..=t.trailing_zeros().min(hz.log_d()) {
                let i = DyadicInterval::new(h, t >> h);
                let sum: f64 = i.times().map(|x| leaves[(x - 1) as usize]).sum();
                store.record(i, sum);
            }
        }
        store
    }

    #[test]
    fn prefix_matches_direct_sum() {
        let d = 32u64;
        let leaves: Vec<f64> = (0..d).map(|i| ((i % 7) as f64) - 3.0).collect();
        let store = exact_store(d, &leaves);
        let mut acc = 0.0;
        for t in 1..=d {
            acc += leaves[(t - 1) as usize];
            assert_eq!(store.prefix(t), acc, "t={t}");
        }
    }

    #[test]
    fn window_change_matches_direct_sum() {
        let d = 64u64;
        let leaves: Vec<f64> = (0..d).map(|i| (i as f64).sin()).collect();
        let store = exact_store(d, &leaves);
        for l in 1..=d {
            for r in l..=d {
                let direct: f64 = (l..=r).map(|t| leaves[(t - 1) as usize]).sum();
                let got = store.window_change(l, r);
                assert!((got - direct).abs() < 1e-9, "[{l}..{r}]: {got} vs {direct}");
            }
        }
    }

    #[test]
    fn window_cost_is_logarithmic() {
        for (l, r) in [(1u64, 64u64), (3, 60), (17, 18), (5, 5)] {
            let len = r - l + 1;
            let bound = 2 * (64 - len.leading_zeros()) as usize + 2;
            assert!(EstimateStore::window_cost(l, r) <= bound, "[{l}..{r}]");
        }
    }

    #[test]
    fn queries_on_unfinalized_data_panic() {
        let params = ProtocolParams::new(10, 8, 1, 1.0, 0.05).unwrap();
        let mut store = EstimateStore::new(&params);
        store.record(DyadicInterval::new(0, 1), 1.0);
        assert!(std::panic::catch_unwind(|| store.prefix(2)).is_err());
        assert!(std::panic::catch_unwind(|| store.window_change(1, 3)).is_err());
        // But finalized data answers.
        assert_eq!(store.prefix(1), 1.0);
    }

    #[test]
    fn premature_record_rejected() {
        let params = ProtocolParams::new(10, 8, 1, 1.0, 0.05).unwrap();
        let mut store = EstimateStore::new(&params);
        // I_{1,1} ends at 2 but nothing is finalized yet.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.record(DyadicInterval::new(1, 1), 0.0)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn store_state_roundtrips_bit_identically() {
        let d = 16u64;
        let leaves: Vec<f64> = (0..d).map(|i| (i as f64 * 0.3).sin()).collect();
        let store = exact_store(d, &leaves);
        let params = ProtocolParams::new(10, d, 1, 1.0, 0.05).unwrap();
        let mut w = crate::snapshot::SnapWriter::new();
        store.write_state(&mut w);
        let bytes = w.finish();
        let mut r = crate::snapshot::SnapReader::new(&bytes).unwrap();
        let back = EstimateStore::read_state(&params, &mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.finalized_through(), store.finalized_through());
        for t in 1..=d {
            assert_eq!(back.prefix(t).to_bits(), store.prefix(t).to_bits(), "t={t}");
        }
    }

    #[test]
    fn window_vs_prefix_difference_identity() {
        // With exact (noise-free) values the two query styles coincide;
        // with noise they differ in variance, not in expectation.
        let d = 32u64;
        let leaves: Vec<f64> = (0..d).map(|i| (i as f64 * 0.7).cos()).collect();
        let store = exact_store(d, &leaves);
        for l in 2..=d {
            for r in l..=d {
                let a = store.window_change(l, r);
                let b = store.prefix(r) - store.prefix(l - 1);
                assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
