//! The committed workload library is pinned end to end.
//!
//! Every `workloads/*.toml` file must parse, compile (which includes
//! naming a registered, non-vacuous expectation), roundtrip through the
//! emitter, match its file stem, and — the expensive part — run
//! value-identically through sequential ≡ batched ≡ live with its
//! expectation actually firing.

use randomize_future::scenarios::dsl::{
    list_workloads, load_workload, resolve_workload, verify_workload, ScenarioSpec,
};
use std::collections::BTreeSet;

/// The workloads this repo commits to shipping; the directory must
/// contain exactly these.
const EXPECTED: [&str; 8] = [
    "byzantine-burst",
    "churn-storm",
    "duplicate-flood",
    "flash-crowd",
    "oscillating-wave",
    "quiet-baseline",
    "straggler-train",
    "zipf-arrival",
];

#[test]
fn the_committed_library_is_complete() {
    let names: BTreeSet<String> = list_workloads()
        .expect("workloads/ exists")
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    let expected: BTreeSet<String> = EXPECTED.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        names, expected,
        "workloads/ drifted from the documented library"
    );
}

#[test]
fn every_workload_parses_compiles_and_roundtrips() {
    for path in list_workloads().expect("workloads/ exists") {
        let spec = load_workload(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let stem = path.file_stem().unwrap().to_string_lossy();
        assert_eq!(
            spec.name,
            stem,
            "{}: name must match the file stem",
            path.display()
        );
        assert!(
            !spec.summary.is_empty(),
            "{}: summary required",
            path.display()
        );
        spec.compile()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let reparsed = ScenarioSpec::from_toml(&spec.to_toml()).unwrap();
        assert_eq!(
            reparsed,
            spec,
            "{}: emitter/parser roundtrip drifted",
            path.display()
        );
    }
}

#[test]
fn resolve_finds_workloads_by_name_and_by_path() {
    let (by_name_path, by_name) = resolve_workload("quiet-baseline").unwrap();
    let (_, by_path) = resolve_workload(by_name_path.to_str().unwrap()).unwrap();
    assert_eq!(by_name, by_path);
    assert!(resolve_workload("no-such-workload").is_err());
}

/// The full differential oracle + registered expectation, per file, on
/// the client counter stream (seed schema v2, the only one). This is
/// what CI's workload sweep runs.
#[test]
fn every_workload_is_green_through_all_engines_v2() {
    for path in list_workloads().expect("workloads/ exists") {
        let spec = load_workload(&path).unwrap();
        let report = verify_workload(&spec);
        assert!(report.checks > 0, "{}: vacuous expectation", path.display());
    }
}
