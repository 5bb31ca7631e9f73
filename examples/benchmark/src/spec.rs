//! The workloads and metrics this program measures, and the checks that
//! `BENCHMARK.json` and the benchmark's own build agree with it.

use crate::json::{quote, squeeze};
use std::path::Path;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// How the benchmark is run, from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "examples/benchmark/Cargo.toml",
    "--",
];

/// The directories that hold the benchmark.
pub const PATHS: &[&str] = &["examples/benchmark"];

/// Seconds one run measures when `--seconds` is not given.
pub const RUN_SECONDS: u32 = 20;

pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "event-1m",
        "trusted honest event engine, n=1e6 d=64, 2 workers: client word-fill and span fold only; bypasses frames and checked ingest",
    ),
    (
        "scenario-1m-storm",
        "batched scenario engine, n=1e6 d=64, light faults: packed fast path plus a small faulted residue and a serial checked-ingest tail",
    ),
    (
        "scenario-flood",
        "same engine, n=2e5 d=64, heavy duplicates, Byzantine and stragglers: the per-frame merge and checked ladder dominate",
    ),
    (
        "live-frames",
        "untrusted frames through IngestService, n=5e4 d=1024, open loop at a frozen 4M frames/s: close lag shows speed; reports_per_s is the offered rate, fixed unless the service falls behind",
    ),
];

pub const END_TO_END: &[Metric] = &[
    e2e("reports_per_s", "reports/s", "higher", 0.25),
    e2e("latency_ms", "ms", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.1),
];

pub const PER_LAYER: &[Metric] = &[
    layer("streams.population.generate_s", "s", "lower"),
    layer("sim.engine.build_order_groups_s", "s", "lower"),
    layer("core.randomizer.emit_span_s", "s", "lower"),
    layer("core.randomizer.reports", "count", "higher"),
    layer("core.accumulator.span_fold_s", "s", "lower"),
    layer("core.accumulator.acc_bytes", "bytes", "lower"),
    layer("core.server.absorb_shard_s", "s", "lower"),
    layer("core.server.end_of_period_s", "s", "lower"),
    layer("core.server.ingest_checked_s", "s", "lower"),
    layer("core.server.accept_ratio", "ratio", "higher"),
    layer("reference_s", "s", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("trace.coverage_frac", "ratio", "higher"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// `BENCHMARK.json` as this program's constants spell it.
pub fn benchmark_json() -> String {
    let strings = |v: &[&str]| v.iter().map(|s| quote(s)).collect::<Vec<_>>().join(", ");
    let list = |items: Vec<String>| items.join(",\n    ");
    let metric = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            quote(m.name),
            quote(m.unit),
            quote(m.better)
        )
    };
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("{{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        strings(COMMAND),
        strings(PATHS),
        list(workloads),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Checks that `BENCHMARK.json` says exactly what [`benchmark_json`] does,
/// up to whitespace: the same workloads, metrics, units, directions,
/// bounds, paths, command and run length.
pub fn check_benchmark_json(path: &Path) -> Result<(), String> {
    let expected = benchmark_json();
    if squeeze(&read(path)?) == squeeze(&expected) {
        Ok(())
    } else {
        Err(format!(
            "{} disagrees with the workloads and metrics this program measures; it should read:\n{expected}",
            path.display()
        ))
    }
}

/// The settings under `[profile.release]`, one trimmed line each.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// Checks that the benchmark's package builds with the repository's
/// release profile, so it measures the program as the repository builds it.
pub fn check_release_profile(repository: &Path, benchmark: &Path) -> Result<(), String> {
    let (a, b) = (read(repository)?, read(benchmark)?);
    if release_profile(&a) == release_profile(&b) {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] of {} is {:?} but {} builds with {:?}; copy the repository's",
            repository.display(),
            release_profile(&a),
            benchmark.display(),
            release_profile(&b)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_repository_files_agree_with_the_program() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        check_benchmark_json(&here.join("../../BENCHMARK.json")).unwrap();
        check_release_profile(&here.join("../../Cargo.toml"), &here.join("Cargo.toml")).unwrap();
    }

    #[test]
    fn a_changed_profile_is_caught() {
        let a = "[package]\nname = \"x\"\n\n[profile.release]\nlto = \"thin\"\n\n[profile.bench]\ndebug = true\n";
        assert_eq!(release_profile(a), ["lto = \"thin\""]);
        assert_ne!(
            release_profile(a),
            release_profile("[profile.release]\nlto = \"fat\"\n")
        );
    }
}
