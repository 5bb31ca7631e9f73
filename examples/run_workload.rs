//! Runs a named workload (or any spec file) through the scenario
//! engines and its registered expectation.
//!
//! ```text
//! cargo run --release --example run_workload -- --list
//! cargo run --release --example run_workload -- --spec flash-crowd
//! cargo run --release --example run_workload -- --spec workloads/churn-storm.toml --engine live
//! ```
//!
//! Flags:
//!
//! * `--spec <name|path>` — workload name (resolved against the
//!   workload directory, `$RTF_WORKLOAD_DIR` or `workloads/`) or a
//!   direct path to a `.toml` spec. Repeatable.
//! * `--all` — run every committed workload in the directory.
//! * `--engine seq|batched|live|all` — which engine(s) to run (default
//!   `all`: the full differential oracle, sequential ≡ batched ≡ live,
//!   plus the expectation with the live ledger).
//! * `--workers <w>` — worker count for batched/live (default 3).
//! * `--list` — list the workload directory and exit.

use randomize_future::runtime::ingest::LiveConfig;
use randomize_future::scenarios::dsl::{
    check_expectation, list_workloads, resolve_workload, verify_workload, workload_dir,
    ExpectationReport, ScenarioSpec,
};
use randomize_future::scenarios::{run, Mode, RunSpec};
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Seq,
    Batched,
    Live,
    All,
}

struct Args {
    specs: Vec<String>,
    all: bool,
    engine: Engine,
    workers: usize,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        specs: Vec::new(),
        all: false,
        engine: Engine::All,
        workers: 3,
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--spec" => args.specs.push(value("--spec")?),
            "--all" => args.all = true,
            "--list" => args.list = true,
            "--engine" => {
                args.engine = match value("--engine")?.as_str() {
                    "seq" | "sequential" => Engine::Seq,
                    "batched" => Engine::Batched,
                    "live" => Engine::Live,
                    "all" => Engine::All,
                    other => return Err(format!("unknown engine `{other}`")),
                }
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            other => return Err(format!("unknown flag `{other}` (see the file header)")),
        }
    }
    Ok(args)
}

fn run_one(spec: &ScenarioSpec, args: &Args) -> ExpectationReport {
    let compiled = spec
        .compile()
        .unwrap_or_else(|e| panic!("workload `{}` failed to compile: {e}", spec.name));
    let mode = match args.engine {
        Engine::All => return verify_workload(spec),
        Engine::Seq => Mode::Sequential,
        Engine::Batched => Mode::Batched(args.workers),
        Engine::Live => Mode::Live(LiveConfig {
            workers: args.workers,
            ..compiled.chaos.clone()
        }),
    };
    let population = compiled.population();
    let run_spec = RunSpec::new(&compiled.params, &population, compiled.seed, mode)
        .with_timeline(compiled.timeline.clone());
    check_expectation(&compiled, &population, &run(&run_spec))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.list {
        match list_workloads() {
            Ok(paths) => {
                println!("workload directory: {}", workload_dir().display());
                for path in paths {
                    match randomize_future::scenarios::dsl::load_workload(&path) {
                        Ok(spec) => println!(
                            "  {:<20} {}",
                            spec.name,
                            if spec.summary.is_empty() {
                                "(no summary)"
                            } else {
                                &spec.summary
                            }
                        ),
                        Err(e) => println!("  {:<20} INVALID: {e}", path.display()),
                    }
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut targets: Vec<(String, ScenarioSpec)> = Vec::new();
    if args.all {
        let paths = match list_workloads() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        for path in paths {
            match randomize_future::scenarios::dsl::load_workload(&path) {
                Ok(spec) => targets.push((path.display().to_string(), spec)),
                Err(e) => {
                    eprintln!("error: {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    for name in &args.specs {
        match resolve_workload(name) {
            Ok((path, spec)) => targets.push((path.display().to_string(), spec)),
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if targets.is_empty() {
        eprintln!("error: nothing to run — pass --spec <name>, --all, or --list");
        return ExitCode::FAILURE;
    }

    for (origin, spec) in &targets {
        println!("── {} ({origin})", spec.name);
        if !spec.summary.is_empty() {
            println!("   {}", spec.summary);
        }
        let report = run_one(spec, &args);
        println!(
            "   expectation `{}` passed: {} check(s)",
            report.label, report.checks
        );
        for line in &report.details {
            println!("     · {line}");
        }
    }
    println!("{} workload(s) green", targets.len());
    ExitCode::SUCCESS
}
