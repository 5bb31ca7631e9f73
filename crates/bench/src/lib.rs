//! Shared harness utilities for the experiment benches.
//!
//! Every `exp_*` bench target regenerates one of the paper's claims (the
//! "tables and figures" of this theory paper; each target's module doc
//! names its claim) and prints a self-describing table: the paper's
//! claim, the measured series, and the shape diagnostics (log-log
//! slopes, ratios). FutureRand's trials run through [`future_rand`], on
//! the engine the differential oracle proves.
//!
//! Sizing: experiment benches honour the `RTF_BENCH_TRIALS` environment
//! variable (default per-bench) so CI can shrink or enlarge them without
//! code changes.

#![warn(missing_docs)]
#![warn(clippy::all)]

use rtf_core::composed::RandomizerTable;
use rtf_core::params::ProtocolParams;
use rtf_core::protocol::ProtocolOutcome;
use rtf_scenarios::{run, Mode, RunSpec};
use rtf_sim::runner::{run_trials, TrialPlan, TrialResults};
use rtf_streams::generator::StreamGenerator;
use rtf_streams::population::Population;

/// Reads the trial count from `RTF_BENCH_TRIALS`, defaulting to
/// `default`.
pub fn trials_from_env(default: usize) -> usize {
    std::env::var("RTF_BENCH_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
        .max(2)
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, title: &str, claim: &str) {
    println!("\n================================================================================");
    println!("{id}: {title}");
    println!("paper claim: {claim}");
    println!("================================================================================");
}

/// The ℓ∞-error metric used by all accuracy experiments.
pub fn linf_metric(outcome: &ProtocolOutcome, population: &Population) -> f64 {
    rtf_analysis::metrics::linf_error(outcome.estimates(), population.true_counts())
}

/// One FutureRand trial under `table`: [`run`] on the batched event
/// engine with one worker (the trials already fill the pool).
pub fn future_rand(
    table: RandomizerTable,
) -> impl Fn(&ProtocolParams, &Population, u64) -> ProtocolOutcome + Sync + Copy {
    move |params: &ProtocolParams, population: &Population, seed: u64| {
        let spec = RunSpec::new(params, population, seed, Mode::Batched(1));
        run(&spec.with_table(table)).into()
    }
}

/// Repeated-trial measurement of a protocol's mean ℓ∞ error (and its
/// sample std) on freshly generated populations.
pub fn measure_linf<G, E>(
    params: ProtocolParams,
    generator: &G,
    trials: usize,
    master_seed: u64,
    execute: E,
) -> TrialResults
where
    G: StreamGenerator + Sync,
    E: Fn(&ProtocolParams, &Population, u64) -> ProtocolOutcome + Sync,
{
    let plan = TrialPlan::new(params, trials, master_seed);
    run_trials(&plan, generator, execute, linf_metric)
}

/// Least-squares slope of `ln y` against `ln x` — the shape diagnostic
/// ("error ∝ k^slope").
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two points for a slope");
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let mx = lx.iter().sum::<f64>() / lx.len() as f64;
    let my = ly.iter().sum::<f64>() / ly.len() as f64;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx).powi(2)).sum();
    cov / var
}

/// A fixed-width row printer for experiment tables.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Creates a table and prints its header.
    pub fn new(columns: &[(&str, usize)]) -> Self {
        let mut header = String::new();
        for (name, w) in columns {
            header.push_str(&format!("{name:>w$} ", w = *w));
        }
        println!("{header}");
        println!("{}", "-".repeat(header.len()));
        Table {
            widths: columns.iter().map(|(_, w)| *w).collect(),
        }
    }

    /// Prints one row of already-formatted cells.
    pub fn row(&self, cells: &[String]) {
        assert_eq!(cells.len(), self.widths.len(), "column count mismatch");
        let mut line = String::new();
        for (cell, w) in cells.iter().zip(&self.widths) {
            line.push_str(&format!("{cell:>w$} ", w = *w));
        }
        println!("{line}");
    }
}

/// Formats a float with magnitude-appropriate precision.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let a = v.abs();
    if a >= 10_000.0 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_recovers_power_laws() {
        let xs = [1.0f64, 2.0, 4.0, 8.0, 16.0];
        let sqrt: Vec<f64> = xs.iter().map(|x| 3.0 * x.sqrt()).collect();
        let lin: Vec<f64> = xs.iter().map(|x| 0.5 * x).collect();
        assert!((loglog_slope(&xs, &sqrt) - 0.5).abs() < 1e-12);
        assert!((loglog_slope(&xs, &lin) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fmt_magnitudes() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(123456.0), "123456");
        assert_eq!(fmt(123.456), "123.5");
        assert_eq!(fmt(1.23456), "1.235");
        assert_eq!(fmt(0.012345), "0.01235");
    }

    #[test]
    fn trials_env_default() {
        assert!(trials_from_env(10) >= 2);
    }
}
