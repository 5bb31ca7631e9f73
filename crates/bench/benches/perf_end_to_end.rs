//! P3 — end-to-end trial wall time, across the three execution paths:
//!
//! * `run_in_memory` — direct function calls, walks every period;
//! * the event engine through `rtf_scenarios::run` — serialised
//!   messages, walks every period;
//! * `run_future_rand_aggregate` — batched zero-slot noise (the path
//!   that makes million-user experiments cheap).

use criterion::{criterion_group, criterion_main, Criterion};
use rtf_core::params::ProtocolParams;
use rtf_primitives::seeding::SeedSequence;
use rtf_scenarios::{run, Mode, RunSpec};
use rtf_sim::aggregate::run_future_rand_aggregate;
use rtf_streams::generator::UniformChanges;
use rtf_streams::population::Population;
use std::hint::black_box;

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    let n = 5_000usize;
    let d = 256u64;
    let k = 4usize;
    let params = ProtocolParams::new(n, d, k, 1.0, 0.05).unwrap();
    let gen = UniformChanges::new(d, k, 0.8);
    let mut rng = SeedSequence::new(12).rng();
    let pop = Population::generate(&gen, n, &mut rng);

    group.bench_function("in_memory_n5k_d256", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(rtf_core::protocol::run_in_memory(&params, &pop, seed))
        });
    });
    group.bench_function("event_driven_n5k_d256", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(run(&RunSpec::new(&params, &pop, seed, Mode::from_env())))
        });
    });
    group.bench_function("aggregate_n5k_d256", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(run_future_rand_aggregate(&params, &pop, seed))
        });
    });

    // The aggregate path at 20x the population, to show the scaling the
    // EXPERIMENTS.md campaigns rely on.
    let n_big = 100_000usize;
    let params_big = ProtocolParams::new(n_big, d, k, 1.0, 0.05).unwrap();
    let mut rng2 = SeedSequence::new(13).rng();
    let pop_big = Population::generate(&gen, n_big, &mut rng2);
    group.bench_function("aggregate_n100k_d256", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(run_future_rand_aggregate(&params_big, &pop_big, seed))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
