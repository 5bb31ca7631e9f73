//! The fixed-size worker pool and deterministic sharded map.
//!
//! Determinism contract: results are always returned **in job/shard
//! index order**, never in completion order, and shard boundaries depend
//! only on `(items, workers)` — so any reduction the caller performs over
//! the returned `Vec` is independent of scheduling. Combined with
//! per-user seeding (`SeedSequence(seed).child(user)`) and the exact
//! mergeability of [`rtf_core::accumulator::DenseAccumulator`], this
//! makes every pipeline built on the pool value-for-value reproducible
//! for any worker count.
//!
//! Mechanics: a `Mutex` over the enumerated items acts as the job
//! injector (each worker locks it only to take its next job, until it
//! drains — dynamic load balancing for free), and a
//! `Mutex<Vec<Option<T>>>` collects results by index.
//! Workers are scoped threads (`std::thread::scope`), so jobs may borrow
//! the caller's data without `Arc`, and each is joined by its handle, so
//! a map returns only after its threads have exited.

use std::sync::Mutex;

/// One contiguous slice of the item space, assigned to one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Shard index (reduction order).
    pub index: usize,
    /// First item (inclusive).
    pub start: usize,
    /// One past the last item.
    pub end: usize,
}

impl Shard {
    /// Number of items in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the shard holds no items (more workers than items).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The item range, for iteration.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// Splits `0..items` into exactly `shards` contiguous, near-equal shards
/// (the first `items % shards` shards hold one extra item). Depends only
/// on the two arguments — the partition is part of the determinism
/// contract.
pub fn partition(items: usize, shards: usize) -> Vec<Shard> {
    assert!(shards >= 1, "need at least one shard");
    let base = items / shards;
    let extra = items % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    for index in 0..shards {
        let len = base + usize::from(index < extra);
        out.push(Shard {
            index,
            start,
            end: start + len,
        });
        start += len;
    }
    debug_assert_eq!(start, items);
    out
}

/// The shard index that owns `item` under `partition(items, shards)`,
/// computed analytically (no search): the first `items % shards` shards
/// hold `⌈items/shards⌉` items, the rest `⌊items/shards⌋`. Streaming
/// fronts use this to route a report to its owner's mailbox without
/// materialising the partition.
///
/// # Panics
/// Panics if `item >= items` or `shards == 0`.
pub fn shard_of(items: usize, shards: usize, item: usize) -> usize {
    assert!(shards >= 1, "need at least one shard");
    assert!(item < items, "item {item} outside 0..{items}");
    let base = items / shards;
    let extra = items % shards;
    let boundary = extra * (base + 1);
    if item < boundary {
        item / (base + 1)
    } else {
        extra + (item - boundary) / base
    }
}

/// A fixed-size worker pool.
///
/// The pool is a lightweight handle; threads live only for the duration
/// of each `map_*` call (scoped and joined, down to their exit), so
/// borrowed data flows into jobs without reference counting and a
/// panicking job fails the caller.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool of `workers` threads (≥ 1; 0 clamps to 1).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps every index in `0..jobs` through `map`, fanning out over the
    /// pool, and returns the results **in index order**. Jobs are pulled
    /// from a shared injector, so long and short jobs balance across
    /// workers without affecting the result order.
    pub fn map_indexed<T, F>(&self, jobs: usize, map: F) -> Vec<T>
    where
        F: Fn(usize) -> T + Sync,
        T: Send,
    {
        self.map_owned((0..jobs).collect(), |i, _| map(i))
    }

    /// Maps every item through `map(index, item)`, fanning out over the
    /// pool, and returns the results **in index order**. Items move into
    /// their jobs through the injector, so each reaches exactly one job
    /// by value — a job may own a `&mut` borrow, such as one
    /// slice of a roster split by `rtf_core::server::Server::roster_shards`.
    pub fn map_owned<I, T, F>(&self, items: Vec<I>, map: F) -> Vec<T>
    where
        F: Fn(usize, I) -> T + Sync,
        I: Send,
        T: Send,
    {
        let jobs = items.len();
        if self.workers == 1 || jobs <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| map(i, item))
                .collect();
        }
        let mut slots: Vec<Option<T>> = Vec::with_capacity(jobs);
        slots.resize_with(jobs, || None);
        let results = Mutex::new(slots);
        let injector = Mutex::new(items.into_iter().enumerate());

        // Every worker is joined by its handle before the call returns.
        // The scope alone returns once the job closures finish, while their
        // threads may still be exiting and holding their allocator arenas;
        // the next call's workers would then start in fresh arenas, and the
        // process would keep the freed memory of both. A panicking job
        // fails the caller with its own payload once every worker joined.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers.min(jobs))
                .map(|_| {
                    scope.spawn(|| {
                        // The lock is held only while the next job is
                        // taken, never while it runs.
                        let jobs = std::iter::from_fn(|| {
                            injector.lock().expect("no job runs under the lock").next()
                        });
                        for (i, item) in jobs {
                            let value = map(i, item);
                            results.lock().expect("no job panics under the lock")[i] = Some(value);
                        }
                    })
                })
                .collect();
            let mut panicked = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    panicked.get_or_insert(payload);
                }
            }
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
        });

        results
            .into_inner()
            .expect("no job panics under the lock")
            .into_iter()
            .map(|slot| slot.expect("every job completed"))
            .collect()
    }

    /// Partitions `0..items` into one contiguous shard per worker, maps
    /// each shard on its own worker, and returns the results **in shard
    /// index order** — the caller's fold over the returned `Vec` is the
    /// deterministic shard-merge order.
    pub fn map_shards<T, F>(&self, items: usize, map: F) -> Vec<T>
    where
        F: Fn(Shard) -> T + Sync,
        T: Send,
    {
        let shards = partition(items, self.workers);
        if self.workers == 1 {
            return shards.into_iter().map(map).collect();
        }
        self.map_indexed(shards.len(), |i| map(shards[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn partition_covers_contiguously() {
        for items in [0usize, 1, 7, 100, 101] {
            for shards in [1usize, 2, 3, 8, 200] {
                let parts = partition(items, shards);
                assert_eq!(parts.len(), shards);
                assert_eq!(parts[0].start, 0);
                assert_eq!(parts.last().unwrap().end, items);
                for w in parts.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                }
                let (min, max) = parts.iter().fold((usize::MAX, 0), |(lo, hi), s| {
                    (lo.min(s.len()), hi.max(s.len()))
                });
                assert!(max - min <= 1, "near-equal: {items}/{shards}");
            }
        }
    }

    #[test]
    fn shard_of_agrees_with_partition() {
        for items in [1usize, 2, 7, 100, 101, 1000] {
            for shards in [1usize, 2, 3, 8, 64] {
                let parts = partition(items, shards);
                for item in 0..items {
                    let owner = shard_of(items, shards, item);
                    assert!(
                        parts[owner].range().contains(&item),
                        "item {item} of {items}/{shards} routed to shard {owner} {:?}",
                        parts[owner]
                    );
                }
            }
        }
    }

    #[test]
    fn map_indexed_returns_in_index_order() {
        let pool = WorkerPool::new(4);
        // Uneven job costs: results must still land by index.
        let out = pool.map_indexed(50, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i * i
        });
        assert_eq!(out, (0..50).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_shards_agrees_across_worker_counts() {
        let reference: Vec<usize> = vec![(0..103).sum()];
        let total = |counts: Vec<usize>| vec![counts.into_iter().sum::<usize>()];
        for workers in [1usize, 2, 3, 8] {
            let pool = WorkerPool::new(workers);
            let partials = pool.map_shards(103, |s| s.range().sum::<usize>());
            assert_eq!(partials.len(), workers);
            assert_eq!(total(partials), reference, "{workers} workers");
        }
    }

    #[test]
    fn map_owned_hands_each_item_to_one_job_in_index_order() {
        // Each job owns a disjoint `&mut` slice and writes through it.
        for workers in [1usize, 2, 3, 8] {
            let mut data = vec![0usize; 10];
            let (a, rest) = data.split_at_mut(3);
            let (b, c) = rest.split_at_mut(0);
            let sums = WorkerPool::new(workers).map_owned(vec![a, b, c], |i, slice| {
                for x in slice.iter_mut() {
                    *x = i + 1;
                }
                slice.len()
            });
            assert_eq!(sums, vec![3, 0, 7], "{workers} workers");
            assert_eq!(data, [1, 1, 1, 3, 3, 3, 3, 3, 3, 3]);
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let pool = WorkerPool::new(3);
        let out = pool.map_indexed(200, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), 200);
        assert_eq!(out.len(), 200);
    }

    #[test]
    fn workers_have_exited_when_a_map_returns() {
        // A thread's exit runs its thread-local destructors and then hands
        // its allocator arena back; a map must not return before that.
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct SlowExit;
        impl Drop for SlowExit {
            fn drop(&mut self) {
                std::thread::sleep(std::time::Duration::from_millis(20));
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local!(static EXIT: SlowExit = {
            STARTED.fetch_add(1, Ordering::SeqCst);
            SlowExit
        });
        for workers in [2usize, 3, 8] {
            WorkerPool::new(workers).map_indexed(16, |i| EXIT.with(|_| i));
            let started = STARTED.load(Ordering::SeqCst);
            assert!(started > 0, "{workers} workers");
            assert_eq!(EXITED.load(Ordering::SeqCst), started, "{workers} workers");
        }
    }

    #[test]
    fn a_panicking_job_fails_the_caller_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            WorkerPool::new(3).map_indexed(10, |i| {
                assert_ne!(i, 7, "job seven fails");
                i
            })
        });
        let payload = caught.expect_err("the job's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("an assert panics with a formatted message");
        assert!(message.contains("job seven fails"), "{message}");
    }

    #[test]
    fn zero_jobs_and_zero_workers_degenerate_gracefully() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert!(pool.map_indexed(0, |i| i).is_empty());
        let shards = WorkerPool::new(4).map_shards(2, |s| s.len());
        assert_eq!(shards.iter().sum::<usize>(), 2);
        assert_eq!(shards.len(), 4, "empty tail shards are preserved");
    }
}
