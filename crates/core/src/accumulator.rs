//! Mergeable accumulation state — the storage-engine layer of Algorithm 2.
//!
//! The server's only per-report state is, per order `h`, the running sum
//! of ±1 report bits of the currently open order-`h` dyadic interval.
//! That is a commutative monoid: accumulating a shard of users on its own
//! [`Accumulator`] and [`merge`](Accumulator::merge)-ing the shards gives
//! exactly the sum the sequential server would have built — report bits
//! are ±1 and batch totals are integer-valued, so every intermediate sum
//! is an integer far below 2⁵³ and `f64` addition over them is exact,
//! associative, and commutative. This is what makes user-partitioned
//! parallel execution value-for-value identical to sequential execution
//! for any worker count.
//!
//! The sums live in one layout, [`DenseAccumulator`]: one `f64` per order
//! plus a report counter. Any exact layout publishes the same estimates,
//! and an interleaved measurement of the dense, fixed-point `i64`, sparse
//! order→sum and ±1 count-lane layouts put all four within 2% of each
//! other at every measured shape, so only the dense one is kept.
//! [`AnyAccumulator`] is its name in the engines' signatures, and
//! [`AccumulatorKind`] (env var `RTF_BACKEND`) selects it.
//!
//! [`Server`](crate::server::Server) owns one accumulator and is a thin
//! checked-ingestion/finalisation facade over it; the parallel runtime
//! builds one shard accumulator per worker and merges them in
//! shard-index order. Merging shards of different shapes is a typed
//! [`AccumulatorError`], never UB or a silent wrong answer.

use crate::snapshot::{SnapReader, SnapWriter, SnapshotError};
use rtf_primitives::sign::Sign;

/// Why two accumulators refused to merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumulatorError {
    /// The order counts differ — the shards track different horizons.
    ShapeMismatch {
        /// Orders of the accumulator being merged into.
        expected: usize,
        /// Orders of the offending shard.
        got: usize,
    },
}

impl std::fmt::Display for AccumulatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccumulatorError::ShapeMismatch { expected, got } => write!(
                f,
                "cannot merge accumulators of different shapes: {expected} vs {got} orders"
            ),
        }
    }
}

impl std::error::Error for AccumulatorError {}

/// Mergeable per-order report accumulation.
///
/// Implementations must form a commutative monoid under
/// [`merge`](Self::merge) for integer-valued contents: `merge` is how
/// worker shards combine, and the runtime relies on
/// `a ⊕ (b ⊕ c) = (a ⊕ b) ⊕ c` and `a ⊕ b = b ⊕ a` to make results
/// independent of the worker count and partition.
pub trait Accumulator: Send {
    /// Number of orders (`1 + log d`) this accumulator tracks.
    fn orders(&self) -> usize;

    /// Records one ±1 report bit for the currently open order-`h`
    /// interval.
    fn record(&mut self, h: u32, bit: Sign);

    /// Records a batch given as separate `+1`/`−1` counts — the shape the
    /// packed sign lanes produce from masked popcounts: `plus − minus`
    /// joins the order's sum and `plus + minus` its report count, exactly
    /// as that many [`record`](Self::record) calls would.
    fn record_counts(&mut self, h: u32, plus: u64, minus: u64);

    /// Adds another shard of the same shape into `self`, rejecting
    /// mismatched shapes with a typed error.
    fn try_merge(&mut self, other: &Self) -> Result<(), AccumulatorError>;

    /// Adds another shard of the same shape into `self`.
    ///
    /// # Panics
    /// Panics if the shapes (order counts) differ; use
    /// [`try_merge`](Self::try_merge) where a recoverable error is
    /// wanted.
    fn merge(&mut self, other: &Self) {
        if let Err(e) = self.try_merge(other) {
            panic!("{e}");
        }
    }

    /// The running sum of the currently open order-`h` interval.
    fn order_sum(&self, h: u32) -> f64;

    /// Returns the order-`h` sum and resets it to zero — called by the
    /// server when the order-`h` interval completes.
    fn take_order(&mut self, h: u32) -> f64;

    /// Total number of report bits recorded (including merged shards).
    fn reports(&self) -> u64;

    /// Bytes of heap memory this accumulator's storage currently holds.
    fn heap_bytes(&self) -> usize;
}

/// The dense per-order shard implementation: one running `f64` sum per
/// order plus a report counter. This is the accumulation state formerly
/// embedded in `Server` (`open_sums` + `reports_ingested`), extracted so
/// shards of users can accumulate independently and merge.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseAccumulator {
    sums: Vec<f64>,
    reports: u64,
}

/// The accumulator the server and engines hold — the dense layout.
pub type AnyAccumulator = DenseAccumulator;

/// Snapshot tag byte of the dense layout. Tags 1–3 belonged to the
/// removed fixed-point, sparse and count-lane layouts.
const DENSE_TAG: u8 = 0;

impl DenseAccumulator {
    /// An empty accumulator for `orders` orders (`1 + log d`).
    pub fn new(orders: usize) -> Self {
        DenseAccumulator {
            sums: vec![0.0; orders],
            reports: 0,
        }
    }

    /// The per-order running sums.
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Whether nothing has been recorded (all sums zero, zero reports).
    pub fn is_empty(&self) -> bool {
        self.reports == 0 && self.sums.iter().all(|&s| s == 0.0)
    }

    /// Serializes the full accumulator state — layout tag, lanes and
    /// report counter — so a restore is bit-identical.
    pub fn write_state(&self, w: &mut SnapWriter) {
        w.u8(DENSE_TAG);
        w.usize(self.sums.len());
        for &s in &self.sums {
            w.f64(s);
        }
        w.u64(self.reports);
    }

    /// Rebuilds an accumulator from bytes written by
    /// [`write_state`](Self::write_state).
    ///
    /// # Errors
    /// A typed [`SnapshotError`] for truncation, for a tag of a removed
    /// layout (fixed, sparse or soa), or for an unknown tag — never a
    /// panic.
    pub fn read_state(r: &mut SnapReader<'_>) -> Result<DenseAccumulator, SnapshotError> {
        match r.u8()? {
            DENSE_TAG => {
                let n = r.len(8)?;
                let mut sums = Vec::with_capacity(n);
                for _ in 0..n {
                    sums.push(r.f64()?);
                }
                let reports = r.u64()?;
                Ok(DenseAccumulator { sums, reports })
            }
            1..=3 => Err(SnapshotError::Corrupt(
                "accumulator layout removed: only dense snapshots are readable",
            )),
            _ => Err(SnapshotError::Corrupt("unknown accumulator backend tag")),
        }
    }
}

impl Accumulator for DenseAccumulator {
    fn orders(&self) -> usize {
        self.sums.len()
    }

    #[inline]
    fn record(&mut self, h: u32, bit: Sign) {
        self.sums[h as usize] += bit.as_f64();
        self.reports += 1;
    }

    #[inline]
    fn record_counts(&mut self, h: u32, plus: u64, minus: u64) {
        // Integer difference first, one exact f64 add after — identical
        // value to per-bit records (the difference is integral and small).
        self.sums[h as usize] += (plus as i64 - minus as i64) as f64;
        self.reports += plus + minus;
    }

    fn try_merge(&mut self, other: &Self) -> Result<(), AccumulatorError> {
        if self.sums.len() != other.sums.len() {
            return Err(AccumulatorError::ShapeMismatch {
                expected: self.sums.len(),
                got: other.sums.len(),
            });
        }
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
        self.reports += other.reports;
        Ok(())
    }

    #[inline]
    fn order_sum(&self, h: u32) -> f64 {
        self.sums[h as usize]
    }

    #[inline]
    fn take_order(&mut self, h: u32) -> f64 {
        std::mem::take(&mut self.sums[h as usize])
    }

    fn reports(&self) -> u64 {
        self.reports
    }

    fn heap_bytes(&self) -> usize {
        self.sums.capacity() * std::mem::size_of::<f64>()
    }
}

/// The accumulator layout selector. Dense is the only layout; the
/// selector and its `RTF_BACKEND` variable remain so that a setting naming
/// a removed layout fails loudly instead of silently running dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccumulatorKind {
    /// [`DenseAccumulator`] — one `f64` per order.
    Dense,
}

impl AccumulatorKind {
    /// Reads the layout from the `RTF_BACKEND` environment variable:
    /// unset, empty or `dense` (any case) selects
    /// [`AccumulatorKind::Dense`].
    ///
    /// # Panics
    /// Panics on any other value, so a stale script or CI setting naming
    /// a removed layout (`fixed`, `sparse`, `soa`) never silently tests
    /// dense.
    pub fn from_env() -> Self {
        Self::from_setting(&std::env::var("RTF_BACKEND").unwrap_or_default())
    }

    fn from_setting(value: &str) -> Self {
        let v = value.trim();
        if v.is_empty() || v.eq_ignore_ascii_case("dense") {
            return AccumulatorKind::Dense;
        }
        panic!(
            "unsupported RTF_BACKEND {value:?}: dense is the only accumulator layout \
             (fixed, sparse and soa were removed)"
        )
    }

    /// An empty accumulator of this layout for `orders` orders.
    pub fn new_accumulator(self, orders: usize) -> AnyAccumulator {
        DenseAccumulator::new(orders)
    }
}

impl std::fmt::Display for AccumulatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dense")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rtf_primitives::seeding::SeedSequence;

    fn random_acc(rng: &mut impl Rng, orders: usize, events: usize) -> DenseAccumulator {
        let mut acc = DenseAccumulator::new(orders);
        for _ in 0..events {
            let h = rng.random_range(0..orders) as u32;
            if rng.random_bool(0.5) {
                let bit = if rng.random_bool(0.5) {
                    Sign::Plus
                } else {
                    Sign::Minus
                };
                acc.record(h, bit);
            } else {
                // Integer batch totals, as the packed span folds record.
                let count = rng.random_range(0..50u64);
                let plus = rng.random_range(0..=count);
                acc.record_counts(h, plus, count - plus);
            }
        }
        acc
    }

    fn merged(parts: &[&DenseAccumulator]) -> DenseAccumulator {
        let mut out = DenseAccumulator::new(parts[0].orders());
        for p in parts {
            out.merge(p);
        }
        out
    }

    /// A random event stream of `(h, Sign)` pairs.
    fn random_events(rng: &mut impl Rng, orders: usize, events: usize) -> Vec<(u32, Sign)> {
        (0..events)
            .map(|_| {
                let h = rng.random_range(0..orders) as u32;
                let bit = if rng.random_bool(0.5) {
                    Sign::Plus
                } else {
                    Sign::Minus
                };
                (h, bit)
            })
            .collect()
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        // The monoid laws the parallel runtime depends on, over randomly
        // built integer-valued accumulators: every grouping and every
        // ordering of shard merges produces the identical accumulator.
        let mut rng = SeedSequence::new(4242).rng();
        for _ in 0..50 {
            let orders = rng.random_range(1..8usize);
            let a = random_acc(&mut rng, orders, 40);
            let b = random_acc(&mut rng, orders, 40);
            let c = random_acc(&mut rng, orders, 40);

            // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            assert_eq!(ab_c, a_bc);

            // Commutativity: every permutation of {a, b, c} agrees.
            let abc = merged(&[&a, &b, &c]);
            for perm in [
                [&a, &c, &b],
                [&b, &a, &c],
                [&b, &c, &a],
                [&c, &a, &b],
                [&c, &b, &a],
            ] {
                assert_eq!(merged(&perm), abc);
            }

            // Identity: merging an empty accumulator changes nothing.
            let mut with_unit = abc.clone();
            with_unit.merge(&DenseAccumulator::new(orders));
            assert_eq!(with_unit, abc);
        }
    }

    #[test]
    fn merge_equals_sequential_accumulation() {
        // Splitting one event stream across shards and merging gives the
        // same state as recording everything on one accumulator.
        let mut rng = SeedSequence::new(77).rng();
        let orders = 5usize;
        let events = random_events(&mut rng, orders, 500);
        let mut whole = DenseAccumulator::new(orders);
        for &(h, bit) in &events {
            whole.record(h, bit);
        }
        for shards in [1usize, 2, 3, 8] {
            let chunk = events.len().div_ceil(shards);
            let mut out = DenseAccumulator::new(orders);
            for part in events.chunks(chunk) {
                let mut acc = DenseAccumulator::new(orders);
                for &(h, bit) in part {
                    acc.record(h, bit);
                }
                out.merge(&acc);
            }
            assert_eq!(out, whole, "{shards} shards");
        }
        assert_eq!(whole.reports(), 500);
    }

    #[test]
    fn take_order_drains_one_slot() {
        let mut acc = DenseAccumulator::new(3);
        acc.record(1, Sign::Plus);
        acc.record(1, Sign::Plus);
        acc.record(2, Sign::Minus);
        assert_eq!(acc.order_sum(1), 2.0);
        assert_eq!(acc.take_order(1), 2.0);
        assert_eq!(acc.order_sum(1), 0.0);
        assert_eq!(acc.order_sum(2), -1.0);
        assert_eq!(acc.reports(), 3);
        assert!(!acc.is_empty());
        assert!(DenseAccumulator::new(3).is_empty());
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn shape_mismatch_rejected() {
        let mut a = DenseAccumulator::new(3);
        a.merge(&DenseAccumulator::new(4));
    }

    #[test]
    fn shape_mismatch_is_a_typed_error() {
        let mut a = DenseAccumulator::new(3);
        assert_eq!(
            a.try_merge(&DenseAccumulator::new(4)),
            Err(AccumulatorError::ShapeMismatch {
                expected: 3,
                got: 4
            })
        );
        // A failed merge leaves the target untouched.
        assert!(a.is_empty());
        assert_eq!(a.orders(), 3);
    }

    #[test]
    fn kind_parsing_and_construction() {
        for setting in ["", "  ", "dense", "DENSE", " Dense "] {
            assert_eq!(
                AccumulatorKind::from_setting(setting),
                AccumulatorKind::Dense,
                "{setting:?}"
            );
        }
        let acc = AccumulatorKind::Dense.new_accumulator(5);
        assert_eq!(acc.orders(), 5);
        assert_eq!(acc.reports(), 0);
        assert_eq!(AccumulatorKind::Dense.to_string(), "dense");
    }

    #[test]
    #[should_panic(expected = "fixed, sparse and soa were removed")]
    fn removed_backend_settings_fail_loudly() {
        AccumulatorKind::from_setting("sparse");
    }

    #[test]
    fn any_accumulator_state_roundtrips_on_every_backend() {
        let mut acc = DenseAccumulator::new(4);
        acc.record(0, Sign::Plus);
        acc.record(0, Sign::Plus);
        acc.record(2, Sign::Minus);
        acc.record_counts(1, 4, 1);
        let mut w = SnapWriter::new();
        acc.write_state(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let back = DenseAccumulator::read_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, acc);
        // The restored value must serialize to the same bytes again.
        let mut w2 = SnapWriter::new();
        back.write_state(&mut w2);
        assert_eq!(w2.finish(), bytes);
    }

    #[test]
    fn accumulator_read_state_rejects_malformed_payloads() {
        let bad = |build: &dyn Fn(&mut SnapWriter)| {
            let mut w = SnapWriter::new();
            build(&mut w);
            let bytes = w.finish();
            let mut r = SnapReader::new(&bytes).unwrap();
            DenseAccumulator::read_state(&mut r).unwrap_err()
        };
        // Unknown backend tag.
        assert!(matches!(
            bad(&|w| w.u8(42)),
            SnapshotError::Corrupt("unknown accumulator backend tag")
        ));
        // Well-formed payloads of the removed layouts, as they were
        // written: fixed-point (tag 1), sparse (tag 2), count lanes (tag 3).
        let removed: [&dyn Fn(&mut SnapWriter); 3] = [
            &|w| {
                w.u8(1);
                w.usize(1);
                w.i64(2);
                w.u64(2);
                w.i64(200);
                w.bool(false);
            },
            &|w| {
                w.u8(2);
                w.usize(4);
                w.usize(1);
                w.u32(3);
                w.f64(1.0);
                w.u64(1);
            },
            &|w| {
                w.u8(3);
                w.usize(2);
                w.u64(2);
                w.u64(1);
                w.u64(3);
            },
        ];
        for build in removed {
            assert_eq!(
                bad(build),
                SnapshotError::Corrupt(
                    "accumulator layout removed: only dense snapshots are readable"
                )
            );
        }
        // A dense payload that simply runs out of bytes.
        assert!(matches!(
            bad(&|w| {
                w.u8(0);
                w.usize(1);
            }),
            SnapshotError::Truncated
        ));
    }
}
