//! The one run seam: [`run`] executes a [`RunSpec`] — params,
//! population, seed, an [`Engine`] and a [`Mode`] — and returns one
//! [`Outcome`].
//!
//! Every engine body sits behind this seam: the event engine's
//! sequential and batched bodies (`rtf_sim::engine`), the checked
//! engine's (`crate::engine`) and both live drivers (`crate::live`). The
//! grid of engine × mode is enumerable, so every agreement check of the
//! [`oracle`](crate::oracle) is a loop over specs compared with
//! [`Outcome::assert_values_eq`].

use crate::config::{FaultTimeline, Scenario};
use crate::{engine, live};
use rtf_core::params::ProtocolParams;
use rtf_core::protocol::check_population;
use rtf_core::server::check_settings;
use rtf_runtime::ingest::LiveConfig;
use rtf_runtime::ExecMode;
use rtf_sim::Outcome;
use rtf_streams::population::Population;

/// Which engine runs the protocol.
#[derive(Debug, Clone)]
pub enum Engine {
    /// The trusted event engine: every client is honest and every report
    /// is delivered on time, exactly once.
    Event,
    /// The checked engine: every report passes the fault layer under this
    /// timeline, and the server classifies every delivered frame through
    /// its checked ingestion path.
    Checked(FaultTimeline),
}

/// How the engine executes. Every mode publishes the same values.
#[derive(Debug, Clone)]
pub enum Mode {
    /// The single-threaded reference schedule with per-report framing.
    Sequential,
    /// The batched pipeline over this many workers (0 clamps to 1).
    Batched(usize),
    /// The streaming ingestion service under this configuration.
    Live(LiveConfig),
}

impl Mode {
    /// The mode `RTF_WORKERS` selects ([`ExecMode::from_env`]): unset,
    /// unparsable or `0` is [`Mode::Sequential`], `w ≥ 1` is
    /// [`Mode::Batched`]`(w)`. CI sets it to run the whole test pyramid
    /// through the batched pipeline.
    pub fn from_env() -> Self {
        ExecMode::from_env().into()
    }
}

impl From<ExecMode> for Mode {
    fn from(mode: ExecMode) -> Self {
        match mode {
            ExecMode::Sequential => Mode::Sequential,
            ExecMode::Parallel(w) => Mode::Batched(w),
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::Sequential => write!(f, "sequential"),
            Mode::Batched(w) => write!(f, "batched({w})"),
            Mode::Live(config) => write!(f, "live({})", config.workers),
        }
    }
}

/// One run: what to run it on, which engine, and how.
#[derive(Clone)]
pub struct RunSpec<'a> {
    /// The protocol's dimensions.
    pub params: ProtocolParams,
    /// The users' data streams; must match `params`.
    pub population: &'a Population,
    /// The master seed of all client and fault randomness.
    pub seed: u64,
    /// The engine.
    pub engine: Engine,
    /// The execution mode.
    pub mode: Mode,
}

impl<'a> RunSpec<'a> {
    /// The event engine on `population` under `seed`, in `mode`.
    pub fn new(params: &ProtocolParams, population: &'a Population, seed: u64, mode: Mode) -> Self {
        RunSpec {
            params: *params,
            population,
            seed,
            engine: Engine::Event,
            mode,
        }
    }

    /// The same run on the checked engine under `timeline`.
    pub fn with_timeline(mut self, timeline: FaultTimeline) -> Self {
        self.engine = Engine::Checked(timeline);
        self
    }

    /// The same run on the checked engine under `scenario` in every
    /// period.
    pub fn with_scenario(self, scenario: &Scenario) -> Self {
        self.with_timeline(FaultTimeline::constant(*scenario))
    }

    /// The same run in `mode`.
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }
}

/// Runs `spec`: checks its inputs, then calls the one engine body it
/// names (the event engine's two bodies are public and repeat the
/// settings and population checks). Every [`Outcome`] value field is identical across the modes
/// of one engine, for every worker count, mailbox capacity, chunk size
/// and injected kill or restart.
///
/// # Panics
/// Panics if `RTF_BACKEND` or `RTF_SEED_SCHEMA` names a removed setting,
/// if the population does not match the params (`n`, `d`, `k`-sparsity),
/// if the timeline is malformed for the horizon, or if a live fault is
/// scheduled outside `1..=d` (it could never fire).
pub fn run(spec: &RunSpec) -> Outcome {
    let (params, population, seed) = (&spec.params, spec.population, spec.seed);
    check_settings();
    check_population(params, population);
    if let Engine::Checked(timeline) = &spec.engine {
        timeline.validate(params.d());
    }
    if let Mode::Live(config) = &spec.mode {
        config.validate_for_horizon(params.d());
    }
    match (&spec.engine, &spec.mode) {
        (Engine::Event, Mode::Sequential) => rtf_sim::engine::sequential(params, population, seed),
        (Engine::Event, Mode::Batched(w)) => {
            rtf_sim::engine::batched(params, population, seed, (*w).max(1))
        }
        (Engine::Event, Mode::Live(config)) => live::event(params, population, seed, config),
        (Engine::Checked(timeline), Mode::Sequential) => {
            engine::sequential(params, population, seed, timeline)
        }
        (Engine::Checked(timeline), Mode::Batched(w)) => {
            engine::batched(params, population, seed, timeline, (*w).max(1)).0
        }
        (Engine::Checked(timeline), Mode::Live(config)) => {
            live::checked(params, population, seed, timeline, config)
        }
    }
}
