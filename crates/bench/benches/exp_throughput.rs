//! T20 — end-to-end throughput of the execution pipeline.
//!
//! ROADMAP's north star is serving millions of users as fast as the
//! hardware allows; the LDP benchmarking literature (Cormode–Maddock–
//! Maple 2021) stresses that protocol comparisons at realistic `n` live
//! or die on simulation throughput. This experiment measures reports/sec
//! and wall time at `n ∈ {10⁵, 10⁶}` through every execution mode — the
//! sequential reference engine (per-report byte framing) and the
//! batched pipeline at 1/2/4/8 workers — on **both** mode-carrying
//! engines: the honest event-driven schedule and the fault-injected
//! scenario engine (whose batched path additionally pays the
//! frame-provenance merge).
//!
//! Every row runs once untimed (a warm-up: page faults, allocator
//! arenas and worker threads settle) and then [`REPEATS`] times timed,
//! and records the median repetition — its `elapsed_s` and its stage
//! fields together, so the stages still add up to the recorded wall
//! time — plus `repeats` and `elapsed_spread_s` (slowest minus fastest
//! repetition). Every run, warm-up included, is asserted
//! **value-for-value identical** to its engine's sequential baseline
//! before its timing is accepted — a throughput number for a wrong
//! answer is worthless.
//!
//! Every scenario row — sequential included — decomposes into per-stage
//! wall clock (`stage_emit_s` / `stage_merge_s` / `stage_ingest_s`, from
//! the outcome's stage timings; validated by `scripts/perf_gate.py`). That decomposition is what
//! attributed the historical `parallel(2)`-slower-than-`parallel(1)`
//! anomaly at `n = 10⁶` to the emission stage: the old per-report fault
//! layer walked every client's ~150-byte state machine every period, so
//! on the single-hardware-thread bench box two half-population shards
//! interleaved with the largest possible per-thread working set and
//! every scheduler quantum evicted the other worker's clients. The
//! span-native emission layer replaced that loop with one linear fault
//! pre-walk plus packed sign-word span folds per contiguous client
//! block — per-shard state is a few packed lanes, not the client array —
//! which removes the thrash (and with it the anomaly) instead of merely
//! diagnosing it.
//!
//! The streaming ingestion service is measured alongside the offline
//! modes (`"mode": "live"` rows): the same schedule served through
//! bounded per-worker mailboxes with period-close flushes — the
//! intake-pipeline overhead the service pays over the offline batched
//! fold.
//!
//! Machine-readable output: `BENCH_throughput.json` at the repository
//! root, seeding the perf trajectory (validated by the CI smoke step
//! and enforced as a baseline by the CI perf-regression gate,
//! `scripts/perf_gate.py`).
//!
//! Run with `cargo bench --bench exp_throughput` (full) or
//! `cargo bench --bench exp_throughput -- --smoke` (CI-sized: the
//! `n = 10⁵` slice of the full grid, so every smoke row is directly
//! comparable against the committed full-mode baseline).

use rtf_bench::{banner, Table};
use rtf_core::params::ProtocolParams;
use rtf_primitives::seeding::SeedSequence;
use rtf_runtime::ingest::LiveConfig;
use rtf_scenarios::config::Scenario;
use rtf_scenarios::{run, Mode, RunSpec};
use rtf_sim::{Outcome, StageTimings};
use rtf_streams::generator::UniformChanges;
use rtf_streams::population::Population;
use std::time::Instant;

/// Worker counts the parallel pipeline is measured at.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Timed repetitions per row, after one untimed warm-up.
const REPEATS: usize = 3;

struct Measurement {
    engine: &'static str,
    n: usize,
    d: u64,
    /// JSON mode label: `sequential`, `parallel`, or `live`.
    mode: &'static str,
    /// Worker count (0 for the sequential reference).
    workers: usize,
    /// Wall time of the median repetition.
    elapsed_s: f64,
    /// Slowest minus fastest repetition.
    elapsed_spread_s: f64,
    reports: u64,
    reports_per_s: f64,
    /// Per-stage wall clock of the median repetition (checked engine's
    /// sequential and batched modes).
    stages: Option<StageTimings>,
}

/// Times `spec` (one warm-up, then [`REPEATS`] timed runs) and returns
/// the median repetition's measurement and outcome. Every run must equal
/// `baseline` value for value; `None` makes the warm-up the baseline
/// (the sequential reference row).
fn measure(
    engine: &'static str,
    spec: &RunSpec,
    baseline: Option<&Outcome>,
) -> (Measurement, Outcome) {
    let warm = run(spec);
    let reference = baseline.unwrap_or(&warm);
    let label = format!(
        "{engine} {} must match sequential before its timing counts",
        spec.mode
    );
    warm.assert_values_eq(reference, &label);
    let mut reps: Vec<(f64, Outcome)> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            let out = run(spec);
            let elapsed_s = start.elapsed().as_secs_f64().max(1e-9);
            out.assert_values_eq(reference, &label);
            (elapsed_s, out)
        })
        .collect();
    reps.sort_by(|a, b| a.0.total_cmp(&b.0));
    let elapsed_spread_s = reps[REPEATS - 1].0 - reps[0].0;
    let (elapsed_s, out) = reps.swap_remove(REPEATS / 2);
    let (mode, workers) = match &spec.mode {
        Mode::Sequential => ("sequential", 0),
        Mode::Batched(w) => ("parallel", *w),
        Mode::Live(config) => ("live", config.workers),
    };
    let reports = out.wire.payload_bits;
    let m = Measurement {
        engine,
        n: spec.params.n(),
        d: spec.params.d(),
        mode,
        workers,
        elapsed_s,
        elapsed_spread_s,
        reports,
        reports_per_s: reports as f64 / elapsed_s,
        stages: out.stages,
    };
    (m, out)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("RTF_THROUGHPUT_SMOKE").is_ok_and(|v| v == "1");
    // Smoke runs the n = 1e5 slice of the full grid — same schema, and
    // every smoke row has a directly comparable committed-baseline row
    // for the CI perf-regression gate to difference against.
    let sizes: &[usize] = if smoke {
        &[100_000]
    } else {
        &[100_000, 1_000_000]
    };
    let d = 64u64;
    let k = 4usize;

    banner(
        "T20",
        &format!(
            "pipeline throughput (d={d}, k={k}, workers {WORKER_COUNTS:?}{})",
            if smoke { ", SMOKE" } else { "" }
        ),
        "the batched parallel pipeline multiplies reports/sec over the framed sequential engine, \
         on the honest and the fault-injected schedule alike",
    );

    // A light fault mix for the scenario engine: enough to exercise the
    // fault layer and the provenance merge, not enough to change the
    // report volume materially.
    let storm = Scenario::honest()
        .with_dropout(0.02)
        .with_stragglers(0.05, 2)
        .with_duplicates(0.02);

    let table = Table::new(&[
        ("engine", 9),
        ("n", 9),
        ("mode", 12),
        ("wall s", 9),
        ("reports", 10),
        ("Mrep/s", 9),
        ("speedup", 8),
    ]);

    let mut rows: Vec<(Measurement, f64)> = Vec::new();
    let print_row = |m: &Measurement, speedup: f64| {
        table.row(&[
            m.engine.into(),
            format!("{}", m.n),
            if m.workers == 0 {
                m.mode.to_string()
            } else {
                format!("{}({})", m.mode, m.workers)
            },
            format!("{:.2}", m.elapsed_s),
            format!("{}", m.reports),
            format!("{:.2}", m.reports_per_s / 1e6),
            format!("{speedup:.2}x"),
        ]);
    };
    for &n in sizes {
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).expect("valid parameters");
        let mut rng = SeedSequence::new(7_000 + n as u64).rng();
        let population = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);

        // The honest event engine, then the fault-injected engine: the
        // batched and live paths emit whole counter words straight into
        // packed report lanes, and the checked engine's batched path rides
        // the same span-native emission. The live rows serve the event
        // schedule through the streaming ingestion service: what
        // per-period mailbox intake + period-close flushes cost over the
        // offline batched fold. Every checked row (sequential included)
        // carries the per-stage decomposition.
        let event = RunSpec::new(&params, &population, 42, Mode::Sequential);
        let checked = event.clone().with_scenario(&storm);
        for (engine, spec, live) in [("event", event, true), ("scenario", checked, false)] {
            let (seq, baseline) = measure(engine, &spec, None);
            let seq_rate = seq.reports_per_s;
            let mut record = |m: Measurement| {
                let speedup = m.reports_per_s / seq_rate;
                print_row(&m, speedup);
                if let Some(s) = &m.stages {
                    println!(
                        "    stages: emission {:.2}s, merge {:.2}s, ingest {:.2}s",
                        s.emission_s, s.merge_s, s.ingest_s
                    );
                }
                rows.push((m, speedup));
            };
            record(seq);
            let mut modes: Vec<Mode> = WORKER_COUNTS.map(Mode::Batched).to_vec();
            if live {
                modes.extend(WORKER_COUNTS.map(|w| Mode::Live(LiveConfig::new(w))));
            }
            for mode in modes {
                record(measure(engine, &spec.clone().with_mode(mode), Some(&baseline)).0);
            }
        }
    }

    // Machine-readable perf trajectory at the repository root.
    let hardware_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"exp_throughput\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str(&format!("  \"hardware_threads\": {hardware_threads},\n"));
    json.push_str("  \"results\": [\n");
    for (i, (m, speedup)) in rows.iter().enumerate() {
        let stage_fields = match &m.stages {
            Some(s) => format!(
                ", \"stage_emit_s\": {:.6}, \"stage_merge_s\": {:.6}, \"stage_ingest_s\": {:.6}",
                s.emission_s, s.merge_s, s.ingest_s
            ),
            None => String::new(),
        };
        json.push_str(&format!(
            "    {{\"engine\": \"{}\", \"n\": {}, \"d\": {}, \"mode\": \"{}\", \"workers\": {}, \
             \"elapsed_s\": {:.6}, \"repeats\": {REPEATS}, \"elapsed_spread_s\": {:.6}, \
             \"reports\": {}, \"reports_per_s\": {:.1}, \"speedup_vs_sequential\": {:.4}{}}}{}\n",
            m.engine,
            m.n,
            m.d,
            m.mode,
            m.workers,
            m.elapsed_s,
            m.elapsed_spread_s,
            m.reports,
            m.reports_per_s,
            speedup,
            stage_fields,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    std::fs::write(path, &json).expect("write BENCH_throughput.json");

    let best = rows
        .iter()
        .map(|(_, s)| *s)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "\nresult: every parallel run reproduced the sequential estimates exactly; best \
         throughput {best:.2}x sequential. wrote BENCH_throughput.json. PASS"
    );
}
