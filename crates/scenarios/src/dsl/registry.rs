//! The named workload library: discovery of committed `workloads/*.toml`
//! specs and the spec-level differential oracle.
//!
//! Workloads live in a directory (default `workloads/`, overridable via
//! the `RTF_WORKLOAD_DIR` environment variable) and are addressed by
//! their file stem: `resolve_workload("flash-crowd")` loads
//! `<dir>/flash-crowd.toml`. [`assert_spec_agreement`] is the oracle
//! every committed workload is pinned by in CI: one spec, one seed,
//! sequential ≡ batched ≡ live, value-for-value, fault counts included.

use super::expect::check_expectation;
use super::{ScenarioSpec, SpecError, SpecErrorKind};
use crate::engine::{run_scenario_timeline, ScenarioOutcome};
use crate::live::run_scenario_live_timeline;
use rtf_runtime::ingest::IngestStats;
use rtf_runtime::ExecMode;
use std::path::{Path, PathBuf};

/// Environment variable overriding the workload directory.
pub const WORKLOAD_DIR_ENV: &str = "RTF_WORKLOAD_DIR";

/// The directory workloads are resolved from: `$RTF_WORKLOAD_DIR` if
/// set, else `workloads` relative to the current directory.
pub fn workload_dir() -> PathBuf {
    std::env::var_os(WORKLOAD_DIR_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("workloads"))
}

/// Lists every `.toml` file in the workload directory, sorted by name.
pub fn list_workloads() -> Result<Vec<PathBuf>, SpecError> {
    let dir = workload_dir();
    let entries = std::fs::read_dir(&dir).map_err(|e| {
        SpecError::new(SpecErrorKind::Io(format!("reading {}: {e}", dir.display())))
    })?;
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry
            .map_err(|e| SpecError::new(SpecErrorKind::Io(format!("listing workloads: {e}"))))?;
        let path = entry.path();
        if path.extension().is_some_and(|ext| ext == "toml") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Loads and parses one workload file.
pub fn load_workload(path: &Path) -> Result<ScenarioSpec, SpecError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        SpecError::new(SpecErrorKind::Io(format!(
            "reading {}: {e}",
            path.display()
        )))
    })?;
    ScenarioSpec::from_toml(&text)
}

/// Resolves a name-or-path to a spec: an existing path is loaded
/// directly, anything else is looked up as `<workload_dir>/<name>.toml`.
pub fn resolve_workload(name_or_path: &str) -> Result<(PathBuf, ScenarioSpec), SpecError> {
    let direct = PathBuf::from(name_or_path);
    let path = if direct.is_file() {
        direct
    } else {
        workload_dir().join(format!("{name_or_path}.toml"))
    };
    let spec = load_workload(&path)?;
    Ok((path, spec))
}

/// Worker counts exercised on the batched and live legs.
const AGREEMENT_WORKERS: usize = 3;

/// The spec-level differential oracle: runs the spec through all three
/// engines and asserts value-for-value agreement, with the sequential run
/// as the reference.
///
/// * sequential ≡ batched, fault counts included (the pre-walk found
///   exactly the faults the sequential engine met report by report);
/// * live ≡ sequential, under a deliberately hostile ingestion shape
///   (mailbox capacity 2, chunked resubmission) and the spec's full
///   chaos plan — so for chaos specs the differential identity *is* the
///   recovery proof.
///
/// Panics on any divergence (test-harness style). Returns the reference
/// outcome and the live ledger for [`check_expectation`].
pub fn assert_spec_agreement(spec: &ScenarioSpec) -> (ScenarioOutcome, IngestStats) {
    let compiled = spec
        .compile()
        .unwrap_or_else(|e| panic!("workload `{}` failed to compile: {e}", spec.name));
    let population = compiled.population();
    let params = &compiled.params;
    let timeline = &compiled.timeline;
    let seed = compiled.seed;

    let reference =
        run_scenario_timeline(params, &population, seed, timeline, ExecMode::Sequential);

    let batched = run_scenario_timeline(
        params,
        &population,
        seed,
        timeline,
        ExecMode::Parallel(AGREEMENT_WORKERS),
    );
    assert_outcome_eq(&reference, &batched, spec, "batched");

    let config = compiled
        .chaos
        .configure(AGREEMENT_WORKERS)
        .with_mailbox_cap(2)
        .with_chunk_rows(7);
    let (live, ledger) = run_scenario_live_timeline(params, &population, seed, timeline, &config);
    assert_outcome_eq(&reference, &live, spec, "live");

    (reference, ledger)
}

/// Convenience wrapper: agreement plus the spec's registered
/// expectation. This is what the CI workload sweep runs per committed
/// file.
pub fn verify_workload(spec: &ScenarioSpec) -> super::ExpectationReport {
    let compiled = spec
        .compile()
        .unwrap_or_else(|e| panic!("workload `{}` failed to compile: {e}", spec.name));
    let (outcome, stats) = assert_spec_agreement(spec);
    let population = compiled.population();
    check_expectation(
        &compiled,
        &population,
        &outcome,
        Some((&stats, &compiled.chaos)),
    )
}

/// Field-by-field equality of two outcomes, with a labelled panic.
fn assert_outcome_eq(a: &ScenarioOutcome, b: &ScenarioOutcome, spec: &ScenarioSpec, leg: &str) {
    let name = &spec.name;
    assert_eq!(
        a.estimates, b.estimates,
        "workload `{name}`: estimates diverged on {leg}"
    );
    assert_eq!(
        a.group_sizes, b.group_sizes,
        "workload `{name}`: group sizes diverged on {leg}"
    );
    assert_eq!(
        a.wire, b.wire,
        "workload `{name}`: wire stats diverged on {leg}"
    );
    assert_eq!(
        a.delivery, b.delivery,
        "workload `{name}`: delivery rows diverged on {leg}"
    );
    assert_eq!(
        a.faults, b.faults,
        "workload `{name}`: fault counts diverged on {leg}"
    );
    assert_eq!(
        a.byzantine_accepted_by_period, b.byzantine_accepted_by_period,
        "workload `{name}`: per-period Byzantine ledger diverged on {leg}"
    );
}
