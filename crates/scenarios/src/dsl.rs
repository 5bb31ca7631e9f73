//! The scenario-authoring DSL: declarative workload specs.
//!
//! A [`ScenarioSpec`] composes three orthogonal parts:
//!
//! * a **workload** — the traffic shape: the protocol dimensions, the
//!   population generator ([`PopulationSpec`]), and per-period
//!   [`ShapeSpec`]s (waves, pulses, ramps) that turn a flat fault mix
//!   into load waves, flash crowds, or churn storms;
//! * **faults** — a base [`Scenario`] rate mix, a straggler
//!   [`DelayLaw`], and a [`ChaosSpec`] of worker kills and service
//!   restarts for the live engine;
//! * an **expectation** — a registered post-run assertion
//!   ([`ExpectationSpec`]) wired to the existing envelope and chaos
//!   oracles, so a spec that runs without its expectation firing fails
//!   loudly rather than vacuously.
//!
//! Specs are plain data. Build them with the fluent combinators:
//!
//! ```
//! use rtf_scenarios::dsl::{ExpectationSpec, FaultField, ScenarioSpec, ShapeSpec, FaultKnob};
//! use rtf_scenarios::Scenario;
//!
//! let spec = ScenarioSpec::new("wave-demo")
//!     .with_summary("dropout oscillates across the horizon")
//!     .with_protocol(600, 32, 3, 1.0, 0.05)
//!     .with_seed(7)
//!     .with_faults(Scenario::honest().with_dropout(0.1))
//!     .with_shape(ShapeSpec::Wave {
//!         knob: FaultKnob::Dropout,
//!         amplitude: 0.8,
//!         period: 16,
//!         phase: 0.0,
//!     })
//!     .with_expectation(ExpectationSpec::Envelope {
//!         z: 6.0,
//!         require: vec![FaultField::Dropped],
//!     });
//! let compiled = spec.compile().expect("spec is valid");
//! assert!(!compiled.timeline.is_constant());
//! ```
//!
//! or load them from TOML ([`ScenarioSpec::from_toml`] — the committed
//! files under `workloads/` are the reference corpus), mutate nothing,
//! and [`ScenarioSpec::compile`] them into the engine-level objects: a
//! [`FaultTimeline`], a live [`LiveConfig`], and [`rtf_core::params::ProtocolParams`].
//! Every parse or validation failure is a typed [`SpecError`] carrying
//! the line and field it arose from — specs never panic the parser.
//!
//! The DSL adds no execution path of its own: compiled specs run through
//! the same three engines as hand-built scenarios, and
//! [`registry::assert_spec_agreement`] pins sequential ≡ batched ≡ live
//! for every spec.

pub mod expect;
pub mod registry;
pub mod toml;

pub use expect::{check_expectation, ExpectationReport, ExpectationSpec, FaultField};
pub use registry::{
    assert_spec_agreement, list_workloads, load_workload, resolve_workload, verify_workload,
    workload_dir, WORKLOAD_DIR_ENV,
};

use crate::config::{DelayLaw, FaultTimeline, Scenario};
use rand::rngs::StdRng;
use rtf_core::params::ProtocolParams;
use rtf_primitives::seeding::SeedSequence;
use rtf_runtime::ingest::LiveConfig;
use rtf_streams::generator::{
    BurstyChanges, PeriodicToggle, StaticPopulation, UniformChanges, WaveTrend,
};
use rtf_streams::population::Population;
use std::fmt;

/// Label of the population RNG stream: a spec's population is drawn from
/// `SeedSequence(seed).child(POP_STREAM)`, disjoint from every per-user
/// protocol stream (`u32` labels) and from the fault plan's subtree
/// (`FAULT_STREAM` in the crate's `plan` module).
pub(crate) const POP_STREAM: u64 = 0x5EED_FACE_0000_0002;

/// Where a [`SpecError`] arose, when known: the 1-based TOML line and the
/// dotted field path (`"faults.dropout"`). Builder-side validation
/// produces errors with a field but no line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecContext {
    /// 1-based line in the TOML source, if the error came from a file.
    pub line: Option<u32>,
    /// Dotted field path, e.g. `"protocol.n"` or `"shape[1].knob"`.
    pub field: Option<String>,
}

/// What went wrong with a spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecErrorKind {
    /// The TOML text is not well-formed (unterminated string, bad
    /// escape, malformed table header, …).
    Syntax(String),
    /// A required key is absent.
    MissingField,
    /// A key the schema does not define — the DSL rejects unknown keys
    /// so typos fail loudly instead of silently defaulting.
    UnknownField,
    /// A value has the wrong TOML type.
    Type {
        /// The type the schema wanted.
        expected: &'static str,
        /// A rendering of what was found.
        found: String,
    },
    /// A value parsed but lies outside its legal range.
    Range(String),
    /// The protocol dimensions are rejected by
    /// [`ProtocolParams::new`].
    Params(String),
    /// The expectation cannot fire (or is inconsistent with the fault
    /// mix) — running it would be vacuously green, which the DSL treats
    /// as an authoring error.
    Expectation(String),
    /// An I/O failure while loading a workload file.
    Io(String),
}

/// A typed spec failure with line/field context.
///
/// ```
/// use rtf_scenarios::dsl::ScenarioSpec;
/// let err = ScenarioSpec::from_toml("name = 42\n").unwrap_err();
/// assert_eq!(err.context.line, Some(1));
/// assert_eq!(err.context.field.as_deref(), Some("name"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// Where the error arose.
    pub context: SpecContext,
    /// What the error is.
    pub kind: SpecErrorKind,
}

impl SpecError {
    pub(crate) fn new(kind: SpecErrorKind) -> Self {
        SpecError {
            context: SpecContext {
                line: None,
                field: None,
            },
            kind,
        }
    }

    pub(crate) fn in_field(mut self, field: impl Into<String>) -> Self {
        self.context.field = Some(field.into());
        self
    }

    pub(crate) fn at_line(mut self, line: u32) -> Self {
        self.context.line = Some(line);
        self
    }

    pub(crate) fn range(msg: impl Into<String>) -> Self {
        SpecError::new(SpecErrorKind::Range(msg.into()))
    }

    pub(crate) fn expectation(msg: impl Into<String>) -> Self {
        SpecError::new(SpecErrorKind::Expectation(msg.into()))
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error")?;
        if let Some(line) = self.context.line {
            write!(f, " at line {line}")?;
        }
        if let Some(field) = &self.context.field {
            write!(f, " in `{field}`")?;
        }
        write!(f, ": ")?;
        match &self.kind {
            SpecErrorKind::Syntax(msg) => write!(f, "syntax: {msg}"),
            SpecErrorKind::MissingField => write!(f, "required field is missing"),
            SpecErrorKind::UnknownField => write!(f, "unknown field (typo?)"),
            SpecErrorKind::Type { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            SpecErrorKind::Range(msg) => write!(f, "out of range: {msg}"),
            SpecErrorKind::Params(msg) => write!(f, "invalid protocol params: {msg}"),
            SpecErrorKind::Expectation(msg) => write!(f, "expectation: {msg}"),
            SpecErrorKind::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The protocol dimensions and the run seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolSpec {
    /// Number of clients.
    pub n: usize,
    /// Horizon length (must be a power of two).
    pub d: u64,
    /// Sparsity bound: each client changes at most `k` times.
    pub k: usize,
    /// Privacy budget per report.
    pub epsilon: f64,
    /// Failure probability of the utility bound.
    pub beta: f64,
    /// Master seed: protocol randomness, the fault plan's keys, and the
    /// population draw all derive from it (on disjoint subtrees).
    pub seed: u64,
}

/// Which population generator draws the client streams. Dimensions
/// (`n`, `d`, `k`) come from the [`ProtocolSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PopulationSpec {
    /// [`UniformChanges`]: change times scattered uniformly.
    Uniform {
        /// Per-change retention probability; `1.0` pins exactly `k` changes.
        density: f64,
    },
    /// [`BurstyChanges`]: all changes inside one short window.
    Bursty {
        /// Window length in periods.
        burst_len: u64,
    },
    /// [`PeriodicToggle`]: regular toggling at a fixed period.
    Periodic {
        /// The toggling period.
        period: u64,
    },
    /// [`StaticPopulation`]: one initial draw, never changes.
    Static {
        /// Probability of holding value 1.
        p_one: f64,
    },
    /// [`WaveTrend`]: the population tracks a sinusoidal trend.
    WaveTrend {
        /// Trough of the trend curve.
        low: f64,
        /// Crest of the trend curve.
        high: f64,
        /// Oscillation period of the trend.
        wave_period: u64,
    },
}

/// The five per-report fault knobs a shape may modulate.
/// `byzantine_frac` is deliberately absent: it is a per-client trait
/// drawn once before period 1 and cannot vary over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKnob {
    /// `Scenario::drop_prob`.
    Dropout,
    /// `Scenario::churn_prob` (per-period hazard when shaped).
    Churn,
    /// `Scenario::straggle_prob`.
    Straggle,
    /// `Scenario::duplicate_prob`.
    Duplicate,
    /// `Scenario::malformed_prob`.
    Malformed,
}

impl FaultKnob {
    /// Every shapeable knob, in declaration order.
    pub const ALL: [FaultKnob; 5] = [
        FaultKnob::Dropout,
        FaultKnob::Churn,
        FaultKnob::Straggle,
        FaultKnob::Duplicate,
        FaultKnob::Malformed,
    ];

    /// The knob's TOML name.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKnob::Dropout => "dropout",
            FaultKnob::Churn => "churn",
            FaultKnob::Straggle => "straggle",
            FaultKnob::Duplicate => "duplicate",
            FaultKnob::Malformed => "malformed",
        }
    }

    /// Parses a TOML knob name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "dropout" => FaultKnob::Dropout,
            "churn" => FaultKnob::Churn,
            "straggle" => FaultKnob::Straggle,
            "duplicate" => FaultKnob::Duplicate,
            "malformed" => FaultKnob::Malformed,
            _ => return None,
        })
    }

    fn get(&self, s: &Scenario) -> f64 {
        match self {
            FaultKnob::Dropout => s.drop_prob,
            FaultKnob::Churn => s.churn_prob,
            FaultKnob::Straggle => s.straggle_prob,
            FaultKnob::Duplicate => s.duplicate_prob,
            FaultKnob::Malformed => s.malformed_prob,
        }
    }

    fn set(&self, s: &mut Scenario, v: f64) {
        match self {
            FaultKnob::Dropout => s.drop_prob = v,
            FaultKnob::Churn => s.churn_prob = v,
            FaultKnob::Straggle => s.straggle_prob = v,
            FaultKnob::Duplicate => s.duplicate_prob = v,
            FaultKnob::Malformed => s.malformed_prob = v,
        }
    }
}

/// One traffic shape applied to one fault knob. Shapes compose in the
/// order they are listed, and the resulting per-period rate is clamped
/// to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShapeSpec {
    /// Multiplies the knob's base rate by
    /// `1 + amplitude · sin(2π (t - 1 + phase) / period)` — an
    /// oscillating load wave.
    Wave {
        /// Which rate oscillates.
        knob: FaultKnob,
        /// Relative swing, in `[0, 1]`.
        amplitude: f64,
        /// Oscillation period, ≥ 1.
        period: u64,
        /// Phase offset in periods.
        phase: f64,
    },
    /// Multiplies the knob's base rate by `scale` within
    /// `from ..= until` — a flash crowd or blackout window.
    Pulse {
        /// Which rate pulses.
        knob: FaultKnob,
        /// First period of the window (1-based).
        from: u64,
        /// Last period of the window (inclusive).
        until: u64,
        /// Multiplier, ≥ 0.
        scale: f64,
    },
    /// Interpolates the knob linearly from its base rate at `t = 1` to
    /// `to` at `t = d` — gradual onset or decay.
    Ramp {
        /// Which rate ramps.
        knob: FaultKnob,
        /// The rate at the end of the horizon.
        to: f64,
    },
}

impl ShapeSpec {
    /// The shape's TOML `kind` name.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ShapeSpec::Wave { .. } => "wave",
            ShapeSpec::Pulse { .. } => "pulse",
            ShapeSpec::Ramp { .. } => "ramp",
        }
    }

    /// The knob the shape modulates.
    pub fn knob(&self) -> FaultKnob {
        match self {
            ShapeSpec::Wave { knob, .. }
            | ShapeSpec::Pulse { knob, .. }
            | ShapeSpec::Ramp { knob, .. } => *knob,
        }
    }

    fn validate(&self, index: usize, d: u64, base: &Scenario) -> Result<(), SpecError> {
        let field = |part: &str| format!("shape[{index}].{part}");
        match *self {
            ShapeSpec::Wave {
                knob,
                amplitude,
                period,
                phase,
            } => {
                if !(0.0..=1.0).contains(&amplitude) || !amplitude.is_finite() {
                    return Err(SpecError::range(format!(
                        "wave amplitude {amplitude} must be in [0, 1]"
                    ))
                    .in_field(field("amplitude")));
                }
                if period < 1 {
                    return Err(SpecError::range("wave period must be ≥ 1".to_string())
                        .in_field(field("period")));
                }
                if !phase.is_finite() {
                    return Err(SpecError::range("wave phase must be finite".to_string())
                        .in_field(field("phase")));
                }
                if knob.get(base) == 0.0 {
                    return Err(SpecError::expectation(format!(
                        "wave multiplies `{}` whose base rate is 0 — it can never fire; \
                         set a nonzero base rate in [faults]",
                        knob.name()
                    ))
                    .in_field(field("knob")));
                }
            }
            ShapeSpec::Pulse {
                knob,
                from,
                until,
                scale,
            } => {
                if from < 1 || until < from || until > d {
                    return Err(SpecError::range(format!(
                        "pulse window {from}..={until} must satisfy 1 ≤ from ≤ until ≤ d = {d}"
                    ))
                    .in_field(field("from")));
                }
                if !(scale >= 0.0 && scale.is_finite()) {
                    return Err(SpecError::range(format!(
                        "pulse scale {scale} must be finite and ≥ 0"
                    ))
                    .in_field(field("scale")));
                }
                if knob.get(base) == 0.0 {
                    return Err(SpecError::expectation(format!(
                        "pulse multiplies `{}` whose base rate is 0 — it can never fire; \
                         set a nonzero base rate in [faults]",
                        knob.name()
                    ))
                    .in_field(field("knob")));
                }
            }
            ShapeSpec::Ramp { to, .. } => {
                if !(0.0..=1.0).contains(&to) || !to.is_finite() {
                    return Err(
                        SpecError::range(format!("ramp target {to} must be in [0, 1]"))
                            .in_field(field("to")),
                    );
                }
            }
        }
        Ok(())
    }

    /// The effective multiplier/override at period `t` (1-based).
    fn apply(&self, base: &Scenario, t: u64, d: u64, row: &mut Scenario) {
        match *self {
            ShapeSpec::Wave {
                knob,
                amplitude,
                period,
                phase,
            } => {
                let angle = 2.0 * std::f64::consts::PI * ((t - 1) as f64 + phase) / period as f64;
                let factor = 1.0 + amplitude * angle.sin();
                knob.set(row, (knob.get(row) * factor).clamp(0.0, 1.0));
            }
            ShapeSpec::Pulse {
                knob,
                from,
                until,
                scale,
            } => {
                if (from..=until).contains(&t) {
                    knob.set(row, (knob.get(row) * scale).clamp(0.0, 1.0));
                }
            }
            ShapeSpec::Ramp { knob, to } => {
                let frac = if d <= 1 {
                    1.0
                } else {
                    (t - 1) as f64 / (d - 1) as f64
                };
                let start = knob.get(base);
                // Ramps override rather than multiply — interpolating from
                // the *base* rate, so they compose with earlier shapes by
                // replacing their value at this knob.
                knob.set(row, (start + (to - start) * frac).clamp(0.0, 1.0));
            }
        }
    }
}

/// Kill/restart chaos for the live engine — the spec-level mirror of a
/// [`LiveConfig`]'s fault lists. Empty by default; ignored by the offline
/// engines (recovery is exact, so chaos is invisible in every outcome
/// field, which is precisely what the differential oracle checks).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosSpec {
    /// `(worker, period)` kills: the worker dies after intake, before
    /// the period's close, and is journal-replayed.
    pub kills: Vec<(usize, u64)>,
    /// Whole-service snapshot/restarts in the middle of these periods.
    pub mid_restarts: Vec<u64>,
    /// Whole-service snapshot/restarts after these periods close.
    pub between_restarts: Vec<u64>,
}

impl ChaosSpec {
    /// Whether no chaos is configured.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.mid_restarts.is_empty() && self.between_restarts.is_empty()
    }

    /// Lowers the spec onto `config`: its kills, then its mid-period and
    /// between-period restarts.
    pub fn configure(&self, mut config: LiveConfig) -> LiveConfig {
        for &(worker, period) in &self.kills {
            config = config.with_kill(worker, period);
        }
        for &p in &self.mid_restarts {
            config = config.with_restart(p);
        }
        for &p in &self.between_restarts {
            config = config.with_restart_after(p);
        }
        config
    }

    fn validate(&self, d: u64) -> Result<(), SpecError> {
        for (i, &(_, period)) in self.kills.iter().enumerate() {
            if !(1..=d).contains(&period) {
                return Err(SpecError::range(format!(
                    "kill period {period} outside horizon 1..={d}"
                ))
                .in_field(format!("chaos.kill[{i}].period")));
            }
        }
        for (name, list) in [
            ("mid_restarts", &self.mid_restarts),
            ("between_restarts", &self.between_restarts),
        ] {
            for (i, &p) in list.iter().enumerate() {
                if !(1..=d).contains(&p) {
                    return Err(SpecError::range(format!(
                        "restart period {p} outside horizon 1..={d}"
                    ))
                    .in_field(format!("chaos.{name}[{i}]")));
                }
            }
        }
        Ok(())
    }
}

/// A complete, declarative scenario: workload + faults + expectation.
///
/// Plain data — build with the combinators or parse with
/// [`ScenarioSpec::from_toml`], then [`compile`](Self::compile) into the
/// engine-level objects. `to_toml ∘ from_toml` is the identity on every
/// valid spec (property-tested).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The workload's registry name (kebab-case by convention).
    pub name: String,
    /// One-line human description.
    pub summary: String,
    /// Protocol dimensions and master seed.
    pub protocol: ProtocolSpec,
    /// Which generator draws the client streams.
    pub population: PopulationSpec,
    /// The base fault rate mix (the whole schedule if no shapes).
    pub faults: Scenario,
    /// The straggler delay distribution.
    pub delay_law: DelayLaw,
    /// Traffic shapes, applied in order to the base rates.
    pub shapes: Vec<ShapeSpec>,
    /// Kill/restart chaos for the live engine.
    pub chaos: ChaosSpec,
    /// The registered post-run assertion.
    pub expectation: ExpectationSpec,
}

impl ScenarioSpec {
    /// A minimal valid spec: a small uniform population, no faults, the
    /// exact-honest expectation.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioSpec {
            name: name.into(),
            summary: String::new(),
            protocol: ProtocolSpec {
                n: 1000,
                d: 32,
                k: 3,
                epsilon: 1.0,
                beta: 0.05,
                seed: 42,
            },
            population: PopulationSpec::Uniform { density: 0.8 },
            faults: Scenario::honest(),
            delay_law: DelayLaw::Uniform,
            shapes: Vec::new(),
            chaos: ChaosSpec::default(),
            expectation: ExpectationSpec::ExactHonest,
        }
    }

    /// Sets the one-line description.
    pub fn with_summary(mut self, summary: impl Into<String>) -> Self {
        self.summary = summary.into();
        self
    }

    /// Sets the protocol dimensions.
    pub fn with_protocol(mut self, n: usize, d: u64, k: usize, epsilon: f64, beta: f64) -> Self {
        self.protocol = ProtocolSpec {
            n,
            d,
            k,
            epsilon,
            beta,
            seed: self.protocol.seed,
        };
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.protocol.seed = seed;
        self
    }

    /// Sets the population generator.
    pub fn with_population(mut self, population: PopulationSpec) -> Self {
        self.population = population;
        self
    }

    /// Sets the base fault mix.
    pub fn with_faults(mut self, faults: Scenario) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the straggler delay distribution.
    pub fn with_delay_law(mut self, law: DelayLaw) -> Self {
        self.delay_law = law;
        self
    }

    /// Appends a traffic shape.
    pub fn with_shape(mut self, shape: ShapeSpec) -> Self {
        self.shapes.push(shape);
        self
    }

    /// Adds a worker kill to the chaos plan.
    pub fn with_chaos_kill(mut self, worker: usize, period: u64) -> Self {
        self.chaos.kills.push((worker, period));
        self
    }

    /// Adds a mid-period service restart to the chaos plan.
    pub fn with_chaos_mid_restart(mut self, period: u64) -> Self {
        self.chaos.mid_restarts.push(period);
        self
    }

    /// Adds a between-period service restart to the chaos plan.
    pub fn with_chaos_between_restart(mut self, period: u64) -> Self {
        self.chaos.between_restarts.push(period);
        self
    }

    /// Sets the registered expectation.
    pub fn with_expectation(mut self, expectation: ExpectationSpec) -> Self {
        self.expectation = expectation;
        self
    }

    /// Parses a spec from TOML text. See the authoring guide
    /// (`docs/authoring-scenarios.md`) for the schema; every failure is
    /// a typed [`SpecError`] with line/field context, never a panic.
    pub fn from_toml(text: &str) -> Result<Self, SpecError> {
        toml::parse_spec(text)
    }

    /// Emits the spec as canonical TOML. `from_toml(to_toml(s)) == s`
    /// for every valid spec (property-tested), so committed workload
    /// files can be regenerated from code without drift.
    pub fn to_toml(&self) -> String {
        toml::emit_spec(self)
    }

    /// Builds the effective per-period fault schedule (without the full
    /// protocol validation [`compile`](Self::compile) performs).
    fn build_timeline(&self) -> FaultTimeline {
        let d = self.protocol.d;
        if self.shapes.is_empty() {
            return FaultTimeline::constant(self.faults).with_delay_law(self.delay_law);
        }
        let rows: Vec<Scenario> = (1..=d)
            .map(|t| {
                let mut row = self.faults;
                for shape in &self.shapes {
                    shape.apply(&self.faults, t, d, &mut row);
                }
                row
            })
            .collect();
        FaultTimeline::shaped(self.faults, rows).with_delay_law(self.delay_law)
    }

    /// Validates the whole spec and lowers it to engine-level objects.
    ///
    /// Checks, in order: protocol dimensions ([`ProtocolParams::new`]),
    /// fault rates, the delay law, the population generator's
    /// constraints, every shape, the chaos plan's horizon, and the
    /// expectation's consistency (a required fault that can never fire
    /// is an [`SpecErrorKind::Expectation`] error — specs must not be
    /// vacuously green).
    pub fn compile(&self) -> Result<CompiledSpec, SpecError> {
        let p = &self.protocol;
        let params = ProtocolParams::new(p.n, p.d, p.k, p.epsilon, p.beta).map_err(|e| {
            SpecError::new(SpecErrorKind::Params(format!("{e:?}"))).in_field("protocol")
        })?;

        // Fault rates: the typed mirror of Scenario::validate.
        for (name, v) in [
            ("dropout", self.faults.drop_prob),
            ("churn", self.faults.churn_prob),
            ("straggle", self.faults.straggle_prob),
            ("duplicate", self.faults.duplicate_prob),
            ("byzantine", self.faults.byzantine_frac),
            ("malformed", self.faults.malformed_prob),
        ] {
            if !((0.0..=1.0).contains(&v) && v.is_finite()) {
                return Err(
                    SpecError::range(format!("{v} is not a probability in [0, 1]"))
                        .in_field(format!("faults.{name}")),
                );
            }
        }
        if self.faults.max_delay < 1 {
            return Err(
                SpecError::range("max_delay must be ≥ 1".to_string()).in_field("faults.max_delay")
            );
        }
        if let DelayLaw::Zipf { alpha } = self.delay_law {
            if !(alpha.is_finite() && alpha > 0.0) {
                return Err(SpecError::range(format!(
                    "zipf alpha {alpha} must be positive and finite"
                ))
                .in_field("faults.zipf_alpha"));
            }
        }

        // Population constraints (the generators' panics, typed).
        match self.population {
            PopulationSpec::Uniform { density } => {
                if !((0.0..=1.0).contains(&density) && density.is_finite()) {
                    return Err(
                        SpecError::range(format!("density {density} must be in [0, 1]"))
                            .in_field("population.density"),
                    );
                }
            }
            PopulationSpec::Bursty { burst_len } => {
                if burst_len > p.d || (p.k as u64) > burst_len {
                    return Err(SpecError::range(format!(
                        "burst_len {burst_len} must satisfy k = {} ≤ burst_len ≤ d = {}",
                        p.k, p.d
                    ))
                    .in_field("population.burst_len"));
                }
            }
            PopulationSpec::Periodic { period } => {
                if period < 1 {
                    return Err(SpecError::range("period must be ≥ 1".to_string())
                        .in_field("population.period"));
                }
            }
            PopulationSpec::Static { p_one } => {
                if !((0.0..=1.0).contains(&p_one) && p_one.is_finite()) {
                    return Err(SpecError::range(format!("p_one {p_one} must be in [0, 1]"))
                        .in_field("population.p_one"));
                }
            }
            PopulationSpec::WaveTrend {
                low,
                high,
                wave_period,
            } => {
                if !((0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high) && low <= high) {
                    return Err(SpecError::range(format!(
                        "wave bounds must satisfy 0 ≤ low ≤ high ≤ 1, got [{low}, {high}]"
                    ))
                    .in_field("population.low"));
                }
                if wave_period < 1 {
                    return Err(SpecError::range("wave_period must be ≥ 1".to_string())
                        .in_field("population.wave_period"));
                }
            }
        }

        for (i, shape) in self.shapes.iter().enumerate() {
            shape.validate(i, p.d, &self.faults)?;
        }
        self.chaos.validate(p.d)?;

        let timeline = self.build_timeline();
        expect::validate_expectation(&self.expectation, self, &timeline)?;

        Ok(CompiledSpec {
            params,
            seed: p.seed,
            timeline,
            chaos: self.chaos.configure(
                LiveConfig::new(registry::AGREEMENT_WORKERS)
                    .with_mailbox_cap(2)
                    .with_chunk_rows(7),
            ),
            expectation: self.expectation.clone(),
            population: self.population,
        })
    }
}

/// The engine-level lowering of a valid [`ScenarioSpec`]: everything the
/// runners need, with validation already done.
#[derive(Debug, Clone)]
pub struct CompiledSpec {
    /// Validated protocol dimensions.
    pub params: ProtocolParams,
    /// The master seed.
    pub seed: u64,
    /// The per-period fault schedule.
    pub timeline: FaultTimeline,
    /// The live leg's service: the spec's kills and restarts on a
    /// deliberately hostile shape (3 workers, 2-batch mailboxes, 7-row
    /// chunks). No kill or restart = no chaos.
    pub chaos: LiveConfig,
    /// The registered assertion to run post-run.
    pub expectation: ExpectationSpec,
    population: PopulationSpec,
}

impl CompiledSpec {
    /// Draws the spec's population deterministically from the spec seed
    /// (stream `POP_STREAM`, disjoint from all protocol and fault
    /// randomness).
    pub fn population(&self) -> Population {
        let mut rng: StdRng = SeedSequence::new(self.seed).child(POP_STREAM).rng();
        self.population_with(&mut rng)
    }

    fn population_with(&self, rng: &mut StdRng) -> Population {
        let (n, d, k) = (self.params.n(), self.params.d(), self.params.k());
        match self.population {
            PopulationSpec::Uniform { density } => {
                Population::generate(&UniformChanges::new(d, k, density), n, rng)
            }
            PopulationSpec::Bursty { burst_len } => {
                Population::generate(&BurstyChanges::new(d, k, burst_len), n, rng)
            }
            PopulationSpec::Periodic { period } => {
                Population::generate(&PeriodicToggle::new(d, k, period), n, rng)
            }
            PopulationSpec::Static { p_one } => {
                Population::generate(&StaticPopulation::new(d, p_one), n, rng)
            }
            PopulationSpec::WaveTrend {
                low,
                high,
                wave_period,
            } => Population::generate(&WaveTrend::new(d, k, low, high, wave_period), n, rng),
        }
    }
}
