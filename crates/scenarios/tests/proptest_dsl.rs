//! Property tests for the scenario-authoring DSL.
//!
//! Three claims, over random specs and random garbage:
//!
//! * **Roundtrip identity** — `from_toml(to_toml(spec)) == spec` for
//!   arbitrary specs (valid or not: the TOML layer is a faithful codec,
//!   validation is `compile`'s job), including strings that need every
//!   supported escape.
//! * **Totality** — `from_toml` never panics: arbitrary byte soup and
//!   randomly truncated valid documents produce `Ok` or a typed
//!   [`SpecError`], nothing else.
//! * **Spec-level differential agreement** — random *valid* compiled
//!   specs run value-identically through sequential ≡ batched ≡ live
//!   (the [`assert_spec_agreement`] oracle), so the DSL adds no
//!   execution path of its own.

use proptest::prelude::*;
use rtf_scenarios::config::DelayLaw;
use rtf_scenarios::dsl::{
    assert_spec_agreement, ExpectationSpec, FaultField, FaultKnob, PopulationSpec, ScenarioSpec,
    ShapeSpec, SpecErrorKind,
};
use rtf_scenarios::Scenario;

/// Deterministically builds an arbitrary (not necessarily valid) spec
/// from a bag of primitive draws. Probabilities are hundredths, so every
/// float in the spec roundtrips exactly through `{:?}` formatting.
#[allow(clippy::too_many_arguments)]
fn build_spec(
    name_tag: u64,
    summary_sel: usize,
    n: usize,
    d: u64,
    k: usize,
    eps_h: u64,
    beta_h: u64,
    seed: u64,
    pop_sel: usize,
    pop_a: u64,
    rates_h: [u64; 6],
    max_delay: u64,
    law_sel: usize,
    alpha_tenths: u64,
    shape_draws: Vec<(usize, usize, u64, u64, u64)>,
    chaos_draws: (Vec<(usize, u64)>, Vec<u64>, Vec<u64>),
    expect_sel: usize,
    z_tenths: u64,
    require_mask: usize,
) -> ScenarioSpec {
    const SUMMARIES: [&str; 4] = [
        "",
        "a plain summary",
        "escapes: \"quoted\", back\\slash, tab\t, newline\n, cr\r done",
        "unicode: ε-差分プライバシー",
    ];
    let mut spec = ScenarioSpec::new(format!("spec-{name_tag}"))
        .with_summary(SUMMARIES[summary_sel % SUMMARIES.len()])
        .with_protocol(n, d, k, eps_h as f64 / 100.0, beta_h as f64 / 100.0)
        .with_seed(seed);

    spec = spec.with_population(match pop_sel % 5 {
        0 => PopulationSpec::Uniform {
            density: (pop_a % 101) as f64 / 100.0,
        },
        1 => PopulationSpec::Bursty {
            burst_len: 1 + pop_a % 16,
        },
        2 => PopulationSpec::Periodic {
            period: 1 + pop_a % 16,
        },
        3 => PopulationSpec::Static {
            p_one: (pop_a % 101) as f64 / 100.0,
        },
        _ => PopulationSpec::WaveTrend {
            low: (pop_a % 40) as f64 / 100.0,
            high: (50 + pop_a % 50) as f64 / 100.0,
            wave_period: 1 + pop_a % 16,
        },
    });

    let mut faults = Scenario::honest();
    faults.drop_prob = rates_h[0] as f64 / 100.0;
    faults.churn_prob = rates_h[1] as f64 / 100.0;
    faults.straggle_prob = rates_h[2] as f64 / 100.0;
    faults.duplicate_prob = rates_h[3] as f64 / 100.0;
    faults.byzantine_frac = rates_h[4] as f64 / 100.0;
    faults.malformed_prob = rates_h[5] as f64 / 100.0;
    faults.max_delay = max_delay;
    spec = spec.with_faults(faults).with_delay_law(match law_sel % 2 {
        0 => DelayLaw::Uniform,
        _ => DelayLaw::Zipf {
            alpha: alpha_tenths as f64 / 10.0,
        },
    });

    const KNOBS: [FaultKnob; 5] = FaultKnob::ALL;
    for (kind, knob, a, b, c) in shape_draws {
        let knob = KNOBS[knob % KNOBS.len()];
        spec = spec.with_shape(match kind % 3 {
            0 => ShapeSpec::Wave {
                knob,
                amplitude: (a % 101) as f64 / 100.0,
                period: 1 + b % 32,
                phase: (c % 64) as f64 / 2.0,
            },
            1 => ShapeSpec::Pulse {
                knob,
                from: 1 + a % 32,
                until: 1 + b % 32,
                scale: (c % 80) as f64 / 10.0,
            },
            _ => ShapeSpec::Ramp {
                knob,
                to: (a % 101) as f64 / 100.0,
            },
        });
    }

    let (kills, mids, betweens) = chaos_draws;
    for (w, p) in kills {
        spec = spec.with_chaos_kill(w % 8, 1 + p % 64);
    }
    for p in mids {
        spec = spec.with_chaos_mid_restart(1 + p % 64);
    }
    for p in betweens {
        spec = spec.with_chaos_between_restart(1 + p % 64);
    }

    let require: Vec<FaultField> = FaultField::ALL
        .into_iter()
        .enumerate()
        .filter(|(i, _)| require_mask & (1 << i) != 0)
        .map(|(_, f)| f)
        .collect();
    spec.with_expectation(match expect_sel % 4 {
        0 => ExpectationSpec::ExactHonest,
        1 => ExpectationSpec::Envelope {
            z: z_tenths as f64 / 10.0,
            require: require.clone(),
        },
        2 => ExpectationSpec::DuplicatesFree,
        _ => ExpectationSpec::ChaosRecovery {
            z: z_tenths as f64 / 10.0,
            require,
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `from_toml ∘ to_toml` is the identity on arbitrary specs — the
    /// emitter and parser are exact inverses, field for field, including
    /// strings needing every supported escape and all enum variants.
    #[test]
    fn toml_roundtrip_is_identity(
        name_tag in 0u64..10_000,
        summary_sel in 0usize..4,
        n in 1usize..5_000,
        d in 1u64..256,
        k in 1usize..8,
        eps_h in 1u64..=150,
        beta_h in 1u64..99,
        seed in 0u64..u64::MAX,
        pop_sel in 0usize..5,
        pop_a in 0u64..1_000,
        rates_h in ((0u64..=100, 0u64..=100, 0u64..=100), (0u64..=100, 0u64..=100, 0u64..=100)),
        max_delay in 1u64..16,
        law_sel in 0usize..2,
        alpha_tenths in 1u64..40,
        shape_draws in prop::collection::vec(
            (0usize..3, 0usize..5, (0u64..1_000, 0u64..1_000, 0u64..1_000)), 0..4),
        kills in prop::collection::vec((0usize..8, 0u64..64), 0..3),
        mids in prop::collection::vec(0u64..64, 0..3),
        betweens in prop::collection::vec(0u64..64, 0..3),
        expect_sel in 0usize..4,
        z_tenths in 1u64..200,
        require_mask in 0usize..512,
    ) {
        let ((r0, r1, r2), (r3, r4, r5)) = rates_h;
        let shapes: Vec<(usize, usize, u64, u64, u64)> = shape_draws
            .into_iter()
            .map(|(kind, knob, (a, b, c))| (kind, knob, a, b, c))
            .collect();
        let spec = build_spec(
            name_tag, summary_sel, n, d, k, eps_h, beta_h, seed, pop_sel, pop_a,
            [r0, r1, r2, r3, r4, r5], max_delay, law_sel, alpha_tenths, shapes,
            (kills, mids, betweens), expect_sel, z_tenths, require_mask,
        );
        let text = spec.to_toml();
        let reparsed = ScenarioSpec::from_toml(&text)
            .unwrap_or_else(|e| panic!("emitted TOML failed to parse: {e}\n---\n{text}"));
        prop_assert_eq!(reparsed, spec);
    }

    /// `from_toml` is total: arbitrary bytes (lossily decoded) never
    /// panic the parser — they either parse or yield a typed error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..600)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = ScenarioSpec::from_toml(&text);
    }

    /// Truncating a valid document anywhere never panics either — the
    /// error path is exercised at every prefix length.
    #[test]
    fn truncated_valid_spec_never_panics(cut_permille in 0usize..=1000, seed in 0u64..1000) {
        let spec = ScenarioSpec::new("truncate-me")
            .with_seed(seed)
            .with_shape(ShapeSpec::Pulse {
                knob: FaultKnob::Dropout, from: 2, until: 5, scale: 3.0,
            })
            .with_faults(Scenario::honest().with_dropout(0.1))
            .with_chaos_kill(1, 3)
            .with_expectation(ExpectationSpec::Envelope {
                z: 6.0,
                require: vec![FaultField::Dropped],
            });
        let text = spec.to_toml();
        let mut cut = text.len() * cut_permille / 1000;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let _ = ScenarioSpec::from_toml(&text[..cut]);
    }

    /// Random *valid* specs — random population, random shaped fault
    /// mix — agree value-for-value across sequential ≡ batched ≡ live.
    /// The DSL compiles to the same engines it found.
    #[test]
    fn compiled_specs_agree_across_engines(
        n in 40usize..120,
        d_exp in 3u32..5,            // d ∈ {8, 16}
        k in 1usize..3,
        seed in 0u64..10_000,
        pop_sel in 0usize..5,
        pop_a in 0u64..1_000,
        drop_h in 20u64..=60,
        dup_h in 0u64..=40,
        wave in prop::bool::ANY,
    ) {
        let d = 1u64 << d_exp;
        let mut spec = ScenarioSpec::new("prop-agreement")
            .with_protocol(n, d, k, 1.0, 0.05)
            .with_seed(seed)
            .with_population(match pop_sel % 5 {
                0 => PopulationSpec::Uniform { density: 0.8 },
                1 => PopulationSpec::Bursty { burst_len: (k as u64) + pop_a % (d - k as u64 + 1) },
                2 => PopulationSpec::Periodic { period: 1 + pop_a % d },
                3 => PopulationSpec::Static { p_one: (pop_a % 101) as f64 / 100.0 },
                _ => PopulationSpec::WaveTrend {
                    low: 0.2, high: 0.8, wave_period: 1 + pop_a % d,
                },
            })
            .with_faults(
                Scenario::honest()
                    .with_dropout(drop_h as f64 / 100.0)
                    .with_duplicates(dup_h as f64 / 100.0),
            )
            .with_expectation(ExpectationSpec::Envelope {
                z: 8.0,
                require: vec![FaultField::Dropped],
            });
        if wave {
            spec = spec.with_shape(ShapeSpec::Wave {
                knob: FaultKnob::Dropout, amplitude: 0.9, period: d / 2, phase: 0.0,
            });
        }
        // Panics on any cross-engine divergence.
        assert_spec_agreement(&spec);
    }
}

// ---------------------------------------------------------------------------
// Typed-error unit cases: each malformed class yields its kind, with
// line/field context pointing at the offending text.
// ---------------------------------------------------------------------------

fn minimal_valid() -> String {
    ScenarioSpec::new("minimal").to_toml()
}

#[test]
fn minimal_valid_spec_parses_and_compiles() {
    let spec = ScenarioSpec::from_toml(&minimal_valid()).unwrap();
    spec.compile().unwrap();
}

#[test]
fn missing_expectation_is_a_missing_field_at_parse() {
    let text = "name = \"x\"\n\n[protocol]\nn = 100\nd = 8\nk = 2\n";
    let err = ScenarioSpec::from_toml(text).unwrap_err();
    assert_eq!(err.kind, SpecErrorKind::MissingField);
    assert_eq!(err.context.field.as_deref(), Some("expectation"));
}

#[test]
fn unknown_key_is_rejected_with_its_line() {
    let text = minimal_valid().replace("[protocol]", "[protocol]\ndropuot = 0.5");
    let err = ScenarioSpec::from_toml(&text).unwrap_err();
    assert_eq!(err.kind, SpecErrorKind::UnknownField);
    assert_eq!(err.context.field.as_deref(), Some("protocol.dropuot"));
    let line = err.context.line.expect("line recorded") as usize;
    assert_eq!(text.lines().nth(line - 1).unwrap(), "dropuot = 0.5");
}

#[test]
fn wrong_type_is_a_typed_error() {
    let err = ScenarioSpec::from_toml("name = 42\n").unwrap_err();
    assert!(matches!(
        err.kind,
        SpecErrorKind::Type {
            expected: "string",
            ..
        }
    ));
    assert_eq!(err.context.line, Some(1));
}

#[test]
fn bad_syntax_reports_the_line() {
    let text = "name = \"x\"\nthis line has no equals sign\n";
    let err = ScenarioSpec::from_toml(text).unwrap_err();
    assert!(matches!(err.kind, SpecErrorKind::Syntax(_)));
    assert_eq!(err.context.line, Some(2));
}

#[test]
fn unterminated_string_is_syntax_not_panic() {
    let err = ScenarioSpec::from_toml("name = \"oops\n").unwrap_err();
    assert!(matches!(err.kind, SpecErrorKind::Syntax(_)));
}

#[test]
fn out_of_range_rate_is_a_range_error_from_compile() {
    let spec = ScenarioSpec::new("hot").with_faults(Scenario::honest().with_dropout(1.5));
    let err = spec.compile().unwrap_err();
    assert!(matches!(err.kind, SpecErrorKind::Range(_)));
    assert_eq!(err.context.field.as_deref(), Some("faults.dropout"));
}

#[test]
fn non_power_of_two_horizon_is_a_params_error() {
    let spec = ScenarioSpec::new("odd").with_protocol(100, 24, 2, 1.0, 0.05);
    let err = spec.compile().unwrap_err();
    assert!(matches!(err.kind, SpecErrorKind::Params(_)));
}

#[test]
fn vacuous_requirement_is_an_expectation_error() {
    // Requiring `dropped` with a zero dropout rate can never fire.
    let spec = ScenarioSpec::new("vacuous").with_expectation(ExpectationSpec::Envelope {
        z: 6.0,
        require: vec![FaultField::Dropped],
    });
    let err = spec.compile().unwrap_err();
    assert!(matches!(err.kind, SpecErrorKind::Expectation(_)));
}

#[test]
fn empty_require_list_is_vacuous() {
    let spec = ScenarioSpec::new("empty")
        .with_faults(Scenario::honest().with_dropout(0.2))
        .with_expectation(ExpectationSpec::Envelope {
            z: 6.0,
            require: vec![],
        });
    let err = spec.compile().unwrap_err();
    assert!(matches!(err.kind, SpecErrorKind::Expectation(_)));
}

#[test]
fn exact_honest_with_faults_is_rejected() {
    let spec = ScenarioSpec::new("lying").with_faults(Scenario::honest().with_dropout(0.1));
    let err = spec.compile().unwrap_err();
    assert!(matches!(err.kind, SpecErrorKind::Expectation(_)));
}

#[test]
fn chaos_recovery_without_chaos_is_rejected() {
    let spec = ScenarioSpec::new("calm")
        .with_faults(Scenario::honest().with_dropout(0.2))
        .with_expectation(ExpectationSpec::ChaosRecovery {
            z: 6.0,
            require: vec![FaultField::Dropped],
        });
    let err = spec.compile().unwrap_err();
    assert!(matches!(err.kind, SpecErrorKind::Expectation(_)));
}

#[test]
fn shape_on_a_zero_base_rate_is_rejected() {
    let spec = ScenarioSpec::new("dead-wave").with_shape(ShapeSpec::Wave {
        knob: FaultKnob::Dropout,
        amplitude: 0.5,
        period: 8,
        phase: 0.0,
    });
    let err = spec.compile().unwrap_err();
    assert!(matches!(err.kind, SpecErrorKind::Expectation(_)));
    assert_eq!(err.context.field.as_deref(), Some("shape[0].knob"));
}

#[test]
fn chaos_outside_the_horizon_is_rejected() {
    let spec = ScenarioSpec::new("late-kill").with_chaos_kill(0, 99);
    let err = spec.compile().unwrap_err();
    assert!(matches!(err.kind, SpecErrorKind::Range(_)));
    assert_eq!(err.context.field.as_deref(), Some("chaos.kill[0].period"));
}

#[test]
fn duplicate_key_is_rejected() {
    let text = minimal_valid().replace("n = 1000", "n = 1000\nn = 2000");
    let err = ScenarioSpec::from_toml(&text).unwrap_err();
    assert!(matches!(err.kind, SpecErrorKind::Syntax(_)));
}
