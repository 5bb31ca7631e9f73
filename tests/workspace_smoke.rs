//! Workspace smoke tests: the `prelude` end-to-end path from the
//! `src/lib.rs` quickstart, sized to finish in well under 5 seconds, plus
//! determinism checks pinning the seeded-reproducibility contract.

use randomize_future::prelude::*;

/// Small-instance parameters shared by the smoke tests.
fn small_params() -> ProtocolParams {
    ProtocolParams::builder()
        .n(500)
        .d(32)
        .k(3)
        .epsilon(1.0)
        .beta(0.05)
        .build()
        .expect("valid parameters")
}

#[test]
fn prelude_end_to_end_path() {
    // Mirrors the library doc example: params → population → protocol →
    // metric, but smaller.
    let params = small_params();
    let mut rng = SeedSequence::new(7).rng();
    let population = Population::generate(
        &UniformChanges::new(params.d(), params.k(), 0.5),
        params.n(),
        &mut rng,
    );

    let outcome = run(&RunSpec::new(&params, &population, 42, Mode::Batched(1)));
    assert_eq!(outcome.estimates.len(), 32);
    assert!(outcome.estimates.iter().all(|e| e.is_finite()));

    let err = linf_error(&outcome.estimates, population.true_counts());
    assert!(err.is_finite());
    assert!(err >= 0.0);
}

#[test]
fn same_seed_same_estimates() {
    let params = small_params();
    let generator = UniformChanges::new(params.d(), params.k(), 0.5);

    let mut rng_a = SeedSequence::new(99).rng();
    let pop_a = Population::generate(&generator, params.n(), &mut rng_a);
    let mut rng_b = SeedSequence::new(99).rng();
    let pop_b = Population::generate(&generator, params.n(), &mut rng_b);

    // Identical population from identical population seed…
    assert_eq!(pop_a.true_counts(), pop_b.true_counts());

    // …and identical estimates from identical protocol seed.
    let out_a = run(&RunSpec::new(&params, &pop_a, 1234, Mode::Batched(1)));
    let out_b = run(&RunSpec::new(&params, &pop_b, 1234, Mode::Batched(1)));
    assert_eq!(out_a.estimates, out_b.estimates);
}

#[test]
fn different_seeds_differ() {
    let params = small_params();
    let mut rng = SeedSequence::new(5).rng();
    let population = Population::generate(
        &UniformChanges::new(params.d(), params.k(), 0.5),
        params.n(),
        &mut rng,
    );

    let out_a = run(&RunSpec::new(&params, &population, 1, Mode::Batched(1)));
    let out_b = run(&RunSpec::new(&params, &population, 2, Mode::Batched(1)));
    assert_ne!(
        out_a.estimates, out_b.estimates,
        "independent protocol seeds must produce different noise"
    );
}

#[test]
fn seed_hierarchy_is_path_stable() {
    // The seeding contract the parallel trial runner relies on: the seed
    // at a path depends only on the path.
    let a = SeedSequence::new(11).child(3).child(1).seed();
    let b = SeedSequence::new(11).child(3).child(1).seed();
    assert_eq!(a, b);
    assert_ne!(a, SeedSequence::new(11).child(1).child(3).seed());
}

#[test]
fn randomizer_is_constructible_from_prelude() {
    // FutureRand is re-exported through the prelude; building one via the
    // composed randomizer exercises the full weight-class machinery.
    use randomize_future::core::composed::ComposedRandomizer;
    use randomize_future::core::randomizer::LocalRandomizer;
    let composed = ComposedRandomizer::for_protocol(3, 1.0);
    let mut rng = SeedSequence::new(0).child(8).rng();
    let m = FutureRand::init(8, &composed, &mut rng);
    assert_eq!(m.position(), 0);
    assert_eq!(m.nnz(), 0);
}
