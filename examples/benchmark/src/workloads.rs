//! The batch workloads (`event-1m`, `scenario-1m-storm`, `scenario-flood`)
//! and what every workload shares: the run configuration, set-up timing,
//! and the per-period check against the sequential reference.

use crate::adapter::{self, EngineRun, FaultMix, PeriodDelivery, Population, ProtocolParams};
use crate::redrive;
use crate::stats;
use crate::trace::{self, Span, Tracer, ROOT};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Workers of every parallel engine's pool. Fixed, not derived from the
/// machine, so results compare across hosts.
pub const WORKERS: usize = 2;
/// Set-up passes per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 5;
/// An honest estimate further than this many predicted standard
/// deviations from the truth fails its period.
const Z_LIMIT: f64 = 6.0;

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test hook: corrupt the benchmark's own copy of the reference.
    pub corrupt: bool,
}

#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<(&'static str, f64)>,
    /// Numbers printed but not in the result line: the latency tail, and
    /// in traced runs the workload-specific layers.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Published periods checked against the reference.
    pub attempted: u64,
    /// Checked periods that failed.
    pub failed: u64,
    /// Broken invariants other than failed periods.
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
}

/// The sequential reference a workload's published periods are checked
/// against.
pub struct Reference {
    pub estimates: Vec<f64>,
    pub delivery: Vec<PeriodDelivery>,
    /// `(truth, sigma)` per period on the honest workloads.
    pub envelope: Option<(Vec<f64>, Vec<f64>)>,
}

impl Reference {
    pub fn honest_envelope(
        params: &ProtocolParams,
        population: &Population,
    ) -> (Vec<f64>, Vec<f64>) {
        (
            population.true_counts().to_vec(),
            adapter::predicted_sigma(params, population),
        )
    }

    /// Damages one estimate and one delivery row of the benchmark's own
    /// copy, so a correct run must now fail.
    pub fn corrupt(&mut self) {
        let mid = self.estimates.len() / 2;
        self.estimates[mid] += 1.0;
        if let Some(row) = self.delivery.get_mut(mid) {
            row.accepted += 1;
        }
    }

    /// Periods of one published horizon that differ from the reference,
    /// fall outside the envelope, or never published.
    pub fn failed_periods(&self, estimates: &[f64], delivery: &[PeriodDelivery]) -> u64 {
        let d = self.estimates.len();
        (0..d)
            .filter(|&i| {
                let Some(&e) = estimates.get(i) else {
                    return true;
                };
                let row_bad =
                    !self.delivery.is_empty() && delivery.get(i) != Some(&self.delivery[i]);
                let z_bad = self
                    .envelope
                    .as_ref()
                    .is_some_and(|(truth, sigma)| ((e - truth[i]) / sigma[i]).abs() > Z_LIMIT);
                e.to_bits() != self.estimates[i].to_bits() || row_bad || z_bad
            })
            .count() as u64
    }
}

/// Runs `setup` `reps` times, keeping only the last result alive at any
/// moment, and returns it with the median set-up time.
pub fn setup_median<S>(reps: usize, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut kept = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (
        kept.expect("at least one set-up pass"),
        stats::median(&times),
    )
}

pub fn setup_reps(cfg: &Config) -> usize {
    if cfg.trace {
        1
    } else {
        SETUP_REPS
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Reports per second over a set of timed repetitions, `(reports, wall)`:
/// the whole work over the whole time. On a shared machine repetitions run
/// up to 1.5x slower while a neighbour is busy; this total moves smoothly
/// with the share of time that happens, where any one percentile of the
/// per-repetition rates jumps between the fast and the slow mode.
pub fn throughput(reps: impl Iterator<Item = (u64, f64)>) -> f64 {
    let (reports, wall) = reps.fold((0.0, 0.0), |(n, w), (r, s)| (n + r as f64, w + s));
    reports / wall
}

/// Counts of the traced run's single-threaded re-drive.
#[derive(Debug, Clone, Copy)]
pub struct ProbeCounts {
    pub reports: u64,
    pub acc_bytes: u64,
}

/// Per-layer metrics every workload reports, from the traced run's spans.
pub fn layer_metrics(
    out: &mut Outcome,
    spans: &[Span],
    probe: ProbeCounts,
    accept_ratio: f64,
    reference_s: f64,
    overhead: f64,
) {
    let own = trace::self_by_name(spans);
    let s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    out.metrics.extend([
        (
            "streams.population.generate_s",
            s("streams.population.generate"),
        ),
        (
            "sim.engine.build_order_groups_s",
            s("sim.engine.build_order_groups"),
        ),
        (
            "core.randomizer.emit_span_s",
            s("core.randomizer.emit_span"),
        ),
        ("core.randomizer.reports", probe.reports as f64),
        (
            "core.accumulator.span_fold_s",
            s("core.accumulator.span_fold"),
        ),
        ("core.accumulator.acc_bytes", probe.acc_bytes as f64),
        ("core.server.absorb_shard_s", s("core.server.absorb_shard")),
        (
            "core.server.end_of_period_s",
            s("core.server.end_of_period"),
        ),
        (
            "core.server.ingest_checked_s",
            s("core.server.ingest_checked"),
        ),
        ("core.server.accept_ratio", accept_ratio),
        ("reference_s", reference_s),
        ("trace.overhead_frac", overhead),
        ("trace.coverage_frac", trace::coverage(spans)),
    ]);
}

/// A batch workload: one engine call publishes a whole horizon.
#[derive(Debug, Clone, Copy)]
pub struct Batch {
    pub n: usize,
    pub d: u64,
    /// `None` runs the honest event engine.
    pub faults: Option<FaultMix>,
}

pub const EVENT_1M: Batch = Batch {
    n: 1_000_000,
    d: 64,
    faults: None,
};

/// The fault mix of the throughput experiment.
pub const STORM: Batch = Batch {
    n: 1_000_000,
    d: 64,
    faults: Some(FaultMix {
        dropout: 0.02,
        duplicates: 0.02,
        byzantine: 0.0,
        stragglers: 0.05,
        max_delay: 2,
    }),
};

pub const FLOOD: Batch = Batch {
    n: 200_000,
    d: 64,
    faults: Some(FaultMix {
        dropout: 0.05,
        duplicates: 0.5,
        byzantine: 0.05,
        stragglers: 0.2,
        max_delay: 3,
    }),
};

/// One engine call inside a span; a panic publishes nothing.
fn engine_call(
    b: &Batch,
    params: &ProtocolParams,
    pop: &Population,
    seed: u64,
    tr: &mut Tracer,
) -> Option<EngineRun> {
    let call = || {
        catch_unwind(AssertUnwindSafe(|| match b.faults {
            None => adapter::event_engine(params, pop, seed, WORKERS),
            Some(mix) => adapter::scenario_engine(params, pop, seed, mix, WORKERS),
        }))
        .ok()
    };
    match b.faults {
        None => tr.span("sim.engine.run_event_driven", 0, call),
        Some(_) => {
            tr.enter("scenarios.engine.run_scenario_batched", 0);
            let run = call();
            if let Some((e, m, i)) = run.as_ref().and_then(|r| r.stages) {
                tr.stages(&[
                    ("scenarios.engine.emission", e),
                    ("scenarios.engine.merge", m),
                    ("scenarios.engine.ingest", i),
                ]);
            }
            tr.exit();
            run
        }
    }
}

pub fn run_batch(cfg: &Config, b: &Batch) -> Outcome {
    let params = adapter::params(b.n, b.d);
    let mut tr = Tracer::new(cfg.trace);
    let mut off = Tracer::new(false);
    let mut out = Outcome::default();

    tr.enter(ROOT, 0);
    let (pop, setup_s) = setup_median(setup_reps(cfg), || {
        tr.span("streams.population.generate", 0, || {
            adapter::population(&params, cfg.seed)
        })
    });
    tr.exit();

    // Warm-up: first-touch page faults and lazy set-up stay out of timing.
    let _ = engine_call(b, &params, &pop, cfg.seed, &mut off);

    // Timed repetitions; a traced run alternates untraced and traced ones
    // so drift cancels out of the overhead.
    let mut runs: Vec<(Option<EngineRun>, f64, bool)> = Vec::new();
    let start = Instant::now();
    while runs.len() < MIN_REPS || start.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && runs.len() % 2 == 1;
        let t = if traced { &mut tr } else { &mut off };
        t.enter(ROOT, 0);
        let t0 = Instant::now();
        let run = engine_call(b, &params, &pop, cfg.seed, t);
        let wall = t0.elapsed().as_secs_f64();
        t.exit();
        runs.push((run, wall, traced));
    }
    let peak_rss = peak_rss_mb();

    let probe = cfg.trace.then(|| {
        tr.enter(ROOT, 0);
        let p = redrive::honest_probe(params, &pop, cfg.seed, &mut tr);
        tr.exit();
        p
    });

    tr.enter(ROOT, 0);
    let t0 = Instant::now();
    let reference_run = match b.faults {
        None => tr.span("sim.engine.run_sequential", 0, || {
            adapter::event_reference(&params, &pop, cfg.seed)
        }),
        Some(mix) => tr.span("scenarios.engine.run_sequential", 0, || {
            adapter::scenario_reference(&params, &pop, cfg.seed, mix)
        }),
    };
    let reference_s = t0.elapsed().as_secs_f64();
    let mut reference = Reference {
        estimates: reference_run.estimates,
        delivery: reference_run.delivery,
        envelope: b
            .faults
            .is_none()
            .then(|| Reference::honest_envelope(&params, &pop)),
    };
    if cfg.corrupt {
        reference.corrupt();
    }
    tr.span("bench.check", 0, || {
        for (run, _, _) in &runs {
            out.attempted += b.d;
            out.failed += match run {
                Some(r) => reference.failed_periods(&r.estimates, &r.delivery),
                None => b.d,
            };
        }
    });
    tr.exit();

    let ok: Vec<(&EngineRun, f64, bool)> = runs
        .iter()
        .filter_map(|(r, w, traced)| r.as_ref().map(|r| (r, *w, *traced)))
        .collect();
    if ok.is_empty() {
        out.problems.push("no engine call published".into());
        return out;
    }
    let rate = |traced: bool| {
        throughput(
            ok.iter()
                .filter(|r| r.2 == traced)
                .map(|(r, w, _)| (r.reports, *w)),
        )
    };

    let walls_ms: Vec<f64> = ok.iter().map(|r| r.1 * 1e3).collect();
    out.extra.push((
        "engine.horizon_ms.max",
        stats::percentile(&walls_ms, 1.0),
        "ms",
    ));
    if !cfg.trace {
        out.metrics = vec![
            ("reports_per_s", rate(false)),
            (
                "latency_ms",
                walls_ms.iter().sum::<f64>() / walls_ms.len() as f64,
            ),
            ("setup_s", setup_s),
            ("peak_rss_mb", peak_rss),
        ];
        return out;
    }

    let (probe, checked_estimates, verdicts) = probe.expect("traced runs re-drive the pipeline");
    let last = ok.last().expect("checked non-empty").0;
    let accept_ratio = match b.faults {
        None => {
            if probe.estimates != last.estimates || checked_estimates != last.estimates {
                out.problems
                    .push("re-driven estimates differ from the engine's".into());
            }
            verdicts.accept_ratio()
        }
        Some(_) => {
            // The honest re-drive emits exactly the reports due each period.
            let due: u64 = last.delivery.iter().map(|r| r.due).sum();
            if probe.reports != due {
                out.problems.push(format!(
                    "re-drive emitted {} reports, {due} were due",
                    probe.reports
                ));
            }
            let stages: Vec<(f64, f64, f64)> = ok
                .iter()
                .filter(|r| r.2)
                .filter_map(|r| r.0.stages)
                .collect();
            scenario_layers(&mut out, &stages, last)
        }
    };
    out.extra
        .push(("engine.traced_reports_per_s", rate(true), "reports/s"));
    out.extra
        .push(("engine.untraced_reports_per_s", rate(false), "reports/s"));
    let spans = tr.into_spans();
    let counts = ProbeCounts {
        reports: probe.reports,
        acc_bytes: probe.acc_bytes,
    };
    layer_metrics(
        &mut out,
        &spans,
        counts,
        accept_ratio,
        reference_s,
        1.0 - rate(true) / rate(false),
    );
    out.spans = spans;
    out
}

/// The scenario engine's stage split (median per traced call) and one
/// horizon's verdict counts; returns accepted over classified frames.
fn scenario_layers(out: &mut Outcome, stages: &[(f64, f64, f64)], last: &EngineRun) -> f64 {
    let stage =
        |f: fn(&(f64, f64, f64)) -> f64| stats::median(&stages.iter().map(f).collect::<Vec<_>>());
    let sum = |f: fn(&PeriodDelivery) -> u64| last.delivery.iter().map(f).sum::<u64>();
    let accepted = sum(|r| r.accepted);
    let classified =
        accepted + sum(|r| r.duplicate) + sum(|r| r.late) + sum(PeriodDelivery::rejected);
    out.extra.extend([
        ("scenarios.engine.emission_s", stage(|s| s.0), "s"),
        ("scenarios.engine.merge_s", stage(|s| s.1), "s"),
        ("scenarios.engine.ingest_s", stage(|s| s.2), "s"),
        ("core.server.accepted", accepted as f64, "count"),
        (
            "core.server.duplicate",
            sum(|r| r.duplicate) as f64,
            "count",
        ),
        ("core.server.late", sum(|r| r.late) as f64, "count"),
        (
            "core.server.rejected",
            sum(PeriodDelivery::rejected) as f64,
            "count",
        ),
        (
            "scenarios.engine.faulted_frac",
            1.0 - (accepted - last.byzantine_accepted) as f64 / last.reports as f64,
            "ratio",
        ),
    ]);
    accepted as f64 / classified as f64
}
