//! Property tests for the deterministic pool and batch primitives.

use proptest::prelude::*;
use rtf_core::accumulator::{Accumulator, DenseAccumulator};
use rtf_primitives::sign::Sign;
use rtf_runtime::{partition, FrameBatch, WorkerPool};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The partition is a contiguous, near-equal, exact cover for any
    /// (items, workers) — the shard boundaries the whole determinism
    /// story rests on.
    #[test]
    fn partition_is_a_contiguous_cover(items in 0usize..10_000, workers in 1usize..64) {
        let shards = partition(items, workers);
        prop_assert_eq!(shards.len(), workers);
        let mut expected_start = 0usize;
        for (i, s) in shards.iter().enumerate() {
            prop_assert_eq!(s.index, i);
            prop_assert_eq!(s.start, expected_start);
            prop_assert!(s.end >= s.start);
            expected_start = s.end;
        }
        prop_assert_eq!(expected_start, items);
        let lens: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        prop_assert!(max - min <= 1, "near-equal split");
    }

    /// map_indexed returns results in index order for any job count and
    /// worker count, and sharded accumulation merged in shard order
    /// equals direct accumulation — the pool + monoid contract end to
    /// end on random event streams.
    #[test]
    fn sharded_accumulation_is_schedule_independent(
        events in proptest::collection::vec((0u32..6, prop::bool::ANY), 0..400),
        workers in 1usize..9,
    ) {
        let mut direct = DenseAccumulator::new(6);
        for &(h, plus) in &events {
            direct.record(h, if plus { Sign::Plus } else { Sign::Minus });
        }

        let pool = WorkerPool::new(workers);
        let shard_accs = pool.map_shards(events.len(), |shard| {
            let mut acc = DenseAccumulator::new(6);
            for &(h, plus) in &events[shard.range()] {
                acc.record(h, if plus { Sign::Plus } else { Sign::Minus });
            }
            acc
        });
        let mut merged = DenseAccumulator::new(6);
        for acc in &shard_accs {
            merged.merge(acc);
        }
        prop_assert_eq!(merged, direct);
    }

    /// The mailbox merge is partition-invariant: however delivered frames
    /// are split into contiguous emitter shards, the merged row order is
    /// the same total (emission, emitter) order.
    #[test]
    fn frame_merge_is_partition_invariant(
        rows in proptest::collection::vec((1u32..16, 0u32..64), 0..120),
        workers_a in 1usize..7,
        workers_b in 1usize..7,
    ) {
        // Deduplicate the (emitted, emitter) key — the engines guarantee
        // uniqueness per delivery batch.
        let mut keyed: Vec<(u32, u32)> = rows;
        keyed.sort_unstable();
        keyed.dedup();
        // Shard by emitter (contiguous ranges of the emitter space).
        let build = |workers: usize| -> Vec<rtf_runtime::Frame> {
            let shards: Vec<FrameBatch> = partition(64, workers)
                .into_iter()
                .map(|s| {
                    let mut b = FrameBatch::new();
                    for &(emitted, emitter) in &keyed {
                        if s.range().contains(&(emitter as usize)) {
                            b.push(rtf_runtime::Frame {
                                emitted,
                                emitter,
                                user: emitter,
                                t: emitted,
                                bit: (emitter + emitted) % 2 == 0,
                                byzantine: false,
                            });
                        }
                    }
                    b
                })
                .collect();
            FrameBatch::merge_sorted(shards.iter()).collect()
        };
        let a = build(workers_a);
        let b = build(workers_b);
        let ka: Vec<(u32, u32, bool)> = a.iter().map(|f| (f.emitted, f.emitter, f.bit)).collect();
        let kb: Vec<(u32, u32, bool)> = b.iter().map(|f| (f.emitted, f.emitter, f.bit)).collect();
        prop_assert_eq!(ka, kb);
        // And the order really is ascending (emitted, emitter).
        let keys: Vec<(u32, u32)> = a.iter().map(|f| (f.emitted, f.emitter)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        prop_assert_eq!(keys, sorted);
    }
}
