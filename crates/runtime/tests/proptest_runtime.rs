//! Property tests for the deterministic pool and batch primitives.

use proptest::prelude::*;
use rtf_core::accumulator::{Accumulator, DenseAccumulator};
use rtf_core::snapshot::{SnapReader, SnapWriter};
use rtf_primitives::sign::Sign;
use rtf_runtime::{partition, Frame, FrameBatch, WorkerPool};

/// One frame of the `FrameBatch` model test, at mailbox position `cursor`
/// (emission period `cursor / 8 + 1`, emitter `cursor % 8`). `kind`
/// picks an honest frame, a delayed honest copy (emitted a period
/// earlier, so it breaks mailbox order), an own-id fabrication, a
/// foreign-id fabrication, or an honest-looking frame flagged Byzantine;
/// `claim` is a fabrication's claimed period.
fn model_frame(kind: u8, cursor: u32, claim: u32, bit: bool) -> Frame {
    let (at, emitter) = (cursor / 8 + 1, cursor % 8);
    let honest = Frame {
        emitted: at,
        emitter,
        user: emitter,
        t: at,
        bit,
        byzantine: false,
    };
    match kind % 5 {
        0 => honest,
        1 => Frame {
            emitted: at - 1,
            t: at - 1,
            ..honest
        },
        2 => Frame {
            t: claim,
            byzantine: true,
            ..honest
        },
        3 => Frame {
            user: 8 + (emitter + claim) % 8,
            t: claim,
            byzantine: true,
            ..honest
        },
        _ => Frame {
            byzantine: true,
            ..honest
        },
    }
}

/// The snapshot bytes of `frames` in the six-column layout every
/// snapshot has used: the row count, then emitted, emitter, user and
/// claimed period as `u32` columns, then the bit and Byzantine columns.
fn six_column_bytes(frames: &[Frame]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.usize(frames.len());
    for column in [
        |f: &Frame| f.emitted,
        |f: &Frame| f.emitter,
        |f: &Frame| f.user,
        |f: &Frame| f.t,
    ] {
        for f in frames {
            w.u32(column(f));
        }
    }
    for column in [|f: &Frame| f.bit, |f: &Frame| f.byzantine] {
        for f in frames {
            w.bool(column(f));
        }
    }
    w.finish()
}

fn state_bytes(batch: &FrameBatch) -> Vec<u8> {
    let mut w = SnapWriter::new();
    batch.write_state(&mut w);
    w.finish()
}

fn mailbox_key(f: &Frame) -> (u32, u32) {
    (f.emitted, f.emitter)
}

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

    /// A `FrameBatch` driven by random `push` and `append` sequences
    /// behaves as a `Vec<Frame>`: length, every row, iteration, mailbox
    /// order, the k-way merge, and snapshot bytes identical to the
    /// six-column layout, which `read_state` restores. The frames mix
    /// honest rows, delayed honest copies, own-id and foreign-id
    /// fabrications and Byzantine flags, so a provenance column first
    /// differs at row 0 (`shape` 1), mid-way (`shape` 0), or only in an
    /// appended batch (`shape` 2, whose pushes are honest); empty batches
    /// are appended, and appended onto.
    #[test]
    fn frame_batch_matches_a_vec_of_frames_model(
        ops in proptest::collection::vec(
            (0u8..3, proptest::collection::vec((0u8..5, 0u32..3, 0u32..6, prop::bool::ANY), 0..6)),
            0..8,
        ),
        shape in 0u8..3,
    ) {
        let mut batch = FrameBatch::new();
        let mut model: Vec<Frame> = Vec::new();
        let mut cursor = 8u32;
        let mut next_frames = |specs: &[(u8, u32, u32, bool)], honest_only: bool| -> Vec<Frame> {
            specs
                .iter()
                .map(|&(kind, step, claim, bit)| {
                    cursor += step;
                    model_frame(if honest_only { kind % 2 } else { kind }, cursor, claim, bit)
                })
                .collect()
        };
        if shape == 1 {
            let lead = next_frames(&[(3, 0, 2, true)], false);
            batch.push(lead[0]);
            model.extend(lead);
        }
        for (op, specs) in &ops {
            match op {
                // Row by row.
                0 => {
                    for f in next_frames(specs, shape == 2) {
                        batch.push(f);
                        model.push(f);
                    }
                }
                // A batch of its own (maybe empty), appended.
                1 => {
                    let frames = next_frames(specs, false);
                    let mut other = FrameBatch::new();
                    frames.iter().for_each(|&f| other.push(f));
                    batch.append(&other);
                    model.extend(frames);
                }
                // The batch so far appended onto a new one (maybe empty).
                _ => {
                    let frames = next_frames(specs, false);
                    let mut front = FrameBatch::new();
                    frames.iter().for_each(|&f| front.push(f));
                    front.append(&batch);
                    batch = front;
                    model.splice(0..0, frames);
                }
            }
        }

        prop_assert_eq!(batch.len(), model.len());
        prop_assert_eq!(batch.is_empty(), model.is_empty());
        for (i, f) in model.iter().enumerate() {
            prop_assert_eq!(batch.frame(i), *f, "row {}", i);
        }
        prop_assert_eq!(batch.iter().collect::<Vec<_>>(), model.clone());
        let payload: Vec<(u32, u32, bool)> = model.iter().map(|f| (f.user, f.t, f.bit)).collect();
        prop_assert_eq!(batch.payload().collect::<Vec<_>>(), payload);
        let sorted = model.windows(2).all(|w| mailbox_key(&w[0]) <= mailbox_key(&w[1]));
        prop_assert_eq!(batch.is_sorted(), sorted);

        // The merge: this batch (when in mailbox order), an empty run and
        // the model re-sorted into a run of its own, against a stable
        // sort of every run's rows by key, ties to the earlier run.
        let mut resorted_rows = model.clone();
        resorted_rows.sort_by_key(mailbox_key);
        let mut resorted = FrameBatch::new();
        resorted_rows.iter().for_each(|&f| resorted.push(f));
        let empty = FrameBatch::new();
        let mut runs: Vec<(&FrameBatch, &[Frame])> = Vec::new();
        if sorted {
            runs.push((&batch, &model));
        }
        runs.push((&empty, &[]));
        runs.push((&resorted, &resorted_rows));
        let mut expect: Vec<(usize, usize)> = runs
            .iter()
            .enumerate()
            .flat_map(|(r, (_, rows))| (0..rows.len()).map(move |i| (r, i)))
            .collect();
        expect.sort_by_key(|&(r, i)| (mailbox_key(&runs[r].1[i]), r, i));
        let mut merge = FrameBatch::merge_sorted(runs.iter().map(|(b, _)| *b));
        let rows: Vec<(usize, usize)> = std::iter::from_fn(|| merge.next_row()).collect();
        prop_assert_eq!(&rows, &expect);
        let merged: Vec<Frame> = FrameBatch::merge_sorted(runs.iter().map(|(b, _)| *b)).collect();
        let want: Vec<Frame> = expect.iter().map(|&(r, i)| runs[r].1[i]).collect();
        prop_assert_eq!(merged, want);

        // Snapshot bytes are the six-column layout, and restore rebuilds
        // a batch that is frame for frame the same, holding a provenance
        // column only where some row differs from its default.
        let bytes = state_bytes(&batch);
        prop_assert_eq!(&bytes, &six_column_bytes(&model));
        let mut r = SnapReader::new(&bytes).unwrap();
        let restored = FrameBatch::read_state(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert_eq!(restored.iter().collect::<Vec<_>>(), model.clone());
        prop_assert_eq!(restored.is_sorted(), sorted);
        prop_assert_eq!(state_bytes(&restored), bytes);
        let differ = |column: fn(&Frame) -> bool| model.iter().any(column);
        let row_bytes = 9
            + 4 * usize::from(differ(|f| f.emitted != f.t))
            + 4 * usize::from(differ(|f| f.emitter != f.user))
            + usize::from(differ(|f| f.byzantine));
        prop_assert_eq!(restored.heap_bytes(), row_bytes * model.len());
    }
}
