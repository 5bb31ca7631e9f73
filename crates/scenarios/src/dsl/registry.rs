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
use crate::run_spec::{run, Mode, RunSpec};
use rtf_sim::Outcome;
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

/// Worker count of the batched and live legs.
pub(crate) const AGREEMENT_WORKERS: usize = 3;

/// The spec-level differential oracle: runs the spec through all three
/// modes of the checked engine and asserts value-for-value agreement,
/// with the sequential run as the reference.
///
/// * sequential ≡ batched, fault counts included (the pre-walk found
///   exactly the faults the sequential engine met report by report);
/// * live ≡ sequential, under the spec's [`CompiledSpec::chaos`]: a
///   deliberately hostile ingestion shape (mailbox capacity 2, chunked
///   resubmission) and the spec's full chaos — so for chaos specs the
///   differential identity *is* the recovery proof.
///
/// Panics on any divergence (test-harness style). Returns the live
/// outcome, whose ledger [`check_expectation`] reads.
///
/// [`CompiledSpec::chaos`]: super::CompiledSpec::chaos
pub fn assert_spec_agreement(spec: &ScenarioSpec) -> Outcome {
    let compiled = spec
        .compile()
        .unwrap_or_else(|e| panic!("workload `{}` failed to compile: {e}", spec.name));
    let population = compiled.population();
    let run_spec = RunSpec::new(
        &compiled.params,
        &population,
        compiled.seed,
        Mode::Sequential,
    )
    .with_timeline(compiled.timeline.clone());
    let reference = run(&run_spec);
    let batched = run(&run_spec.clone().with_mode(Mode::Batched(AGREEMENT_WORKERS)));
    batched.assert_values_eq(&reference, &format!("workload `{}`, batched", spec.name));
    let live = run(&run_spec.with_mode(Mode::Live(compiled.chaos.clone())));
    live.assert_values_eq(&reference, &format!("workload `{}`, live", spec.name));
    live
}

/// Convenience wrapper: agreement plus the spec's registered
/// expectation. This is what the CI workload sweep runs per committed
/// file.
pub fn verify_workload(spec: &ScenarioSpec) -> super::ExpectationReport {
    let compiled = spec
        .compile()
        .unwrap_or_else(|e| panic!("workload `{}` failed to compile: {e}", spec.name));
    let live = assert_spec_agreement(spec);
    check_expectation(&compiled, &compiled.population(), &live)
}
