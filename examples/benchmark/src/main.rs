//! The repository benchmark. See README.md in this directory.
//!
//! ```text
//! rtf-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rtf-benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>]   every workload, one child each
//! rtf-benchmark --self-test
//! rtf-benchmark --stability [--seed <n>] [--seconds <s>] [--workload <name>]
//! ```
//!
//! A run prints its metrics by name with their units, and as its last line
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. It exits
//! non-zero when any published period differs from the sequential
//! reference or any other check fails.

mod adapter;
mod json;
mod live;
mod redrive;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Config, Outcome};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Runs per set in `--stability`.
const STABILITY_RUNS: usize = 5;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn out_dir() -> PathBuf {
    repo_root().join("target/benchmark")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
    self_test: bool,
    stability: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        corrupt: false,
        self_test: false,
        stability: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--corrupt" => a.corrupt = true,
            "--self-test" => a.self_test = true,
            "--stability" => a.stability = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if !spec::WORKLOADS.iter().any(|(name, _)| name == w) {
            return Err(format!("unknown workload {w}"));
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    // A stray RTF_BACKEND or RTF_SEED_SCHEMA would silently change what
    // is measured: the benchmark runs the program defaults only.
    let stray: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("RTF_"))
        .collect();
    if !stray.is_empty() {
        eprintln!(
            "refusing to run with {} set; unset every RTF_* variable",
            stray.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let own_manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    if let Err(e) = spec::check_benchmark_json(&repo_root().join("BENCHMARK.json"))
        .and_then(|()| spec::check_release_profile(&repo_root().join("Cargo.toml"), &own_manifest))
    {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    let ok = if args.self_test {
        self_test(&args)
    } else if args.stability {
        stability(&args)
    } else if let Some(w) = &args.workload {
        run_one(w, &args)
    } else {
        run_all(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn meta(workload: &str, args: &Args) -> String {
    let (backend, schema) = adapter::defaults();
    let fields = [
        ("workload", workload.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("commit", git_commit()),
        ("rustc", rustc_version()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(0, |p| p.get())
                .to_string(),
        ),
        ("cpu", cpu_model()),
        ("workers", workloads::WORKERS.to_string()),
        ("backend", backend),
        ("seed_schema", schema),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), json::quote(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The commit of the checkout, read from `.git` directly; a source tree
/// without `.git` reports `unknown`.
fn git_commit() -> String {
    let git = repo_root().join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn run_workload(workload: &str, cfg: &Config) -> Outcome {
    match workload {
        "event-1m" => workloads::run_batch(cfg, &workloads::EVENT_1M),
        "scenario-1m-storm" => workloads::run_batch(cfg, &workloads::STORM),
        "scenario-flood" => workloads::run_batch(cfg, &workloads::FLOOD),
        "live-frames" => live::run(cfg),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Layer self times must cover this share of a traced run's wall time.
const MIN_COVERAGE: f64 = 0.9;

fn run_one(workload: &str, args: &Args) -> bool {
    println!("meta {}", meta(workload, args));
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        corrupt: args.corrupt,
    };
    let mut out = run_workload(workload, &cfg);
    let expected = if args.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
    let wanted: Vec<&str> = expected.iter().map(|m| m.name).collect();
    // After another problem the metrics may be incomplete; report those.
    if out.problems.is_empty() && names != wanted {
        out.problems
            .push(format!("metrics {names:?} are not the declared {wanted:?}"));
    }
    if args.trace {
        let coverage = trace::coverage(&out.spans);
        if coverage < MIN_COVERAGE {
            out.problems.push(format!(
                "layer spans cover {coverage:.3} of the traced wall time"
            ));
        }
        trace::print_table(&out.spans);
        let path = out_dir().join(format!("{workload}.trace.jsonl"));
        match trace::write_jsonl(&path, workload, &out.spans) {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => out
                .problems
                .push(format!("writing {}: {e}", path.display())),
        }
    }
    for (name, value, unit) in &out.extra {
        println!("extra {name:<44} {value:>18.6} {unit}");
    }
    for (name, value) in &out.metrics {
        if !value.is_finite() {
            out.problems.push(format!("{name} is not a number"));
        }
        let unit = spec::unit_of(name);
        println!("metric {name:<44} {value:>18.6} {unit}");
    }
    for p in &out.problems {
        println!("problem {p}");
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    println!(
        "checked {} periods, {} failed{}",
        out.attempted,
        out.failed,
        if correct { "" } else { "; INCORRECT" }
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value)| {
            let v = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json::quote(name),
                json::quote(spec::unit_of(name))
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    correct
}

/// A finished child run: its exit status, metrics and failed periods,
/// read from its `metric` and `checked` lines.
struct Child {
    ok: bool,
    metrics: Vec<(String, f64)>,
    failed: Option<u64>,
    stdout: String,
}

impl Child {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }
}

fn child(workload: &str, seed: u64, seconds: f64, trace: bool, corrupt: bool) -> Child {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if corrupt {
        cmd.arg("--corrupt");
    }
    let output = cmd.output().expect("spawn a benchmark child");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let mut metrics = Vec::new();
    let mut failed = None;
    for line in stdout.lines() {
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            ["metric", name, value, ..] => {
                if let Ok(v) = value.parse() {
                    metrics.push((name.to_string(), v));
                }
            }
            ["checked", _, "periods,", f, ..] => failed = f.parse().ok(),
            _ => {}
        }
    }
    Child {
        ok: output.status.success(),
        metrics,
        failed,
        stdout,
    }
}

fn run_all(args: &Args) -> bool {
    let mut ok = true;
    for (workload, _) in spec::WORKLOADS {
        let c = child(workload, args.seed, args.seconds, args.trace, false);
        print!("{}", c.stdout);
        ok &= c.ok;
    }
    ok
}

/// Checks that the checker catches a wrong reference and that the coverage
/// check catches a trace with a layer missing.
fn self_test(args: &Args) -> bool {
    let w = "scenario-flood";
    let mut ok = true;
    let mut check = |what: &str, pass: bool| {
        println!("self-test {what}: {}", if pass { "ok" } else { "FAILED" });
        ok &= pass;
    };

    let clean = child(w, args.seed, 1.0, false, false);
    check("an honest run passes", clean.ok && clean.failed == Some(0));
    let bad = child(w, args.seed, 1.0, false, true);
    check(
        "a corrupted reference estimate and delivery row fail the run",
        !bad.ok && bad.failed.is_some_and(|f| f > 0),
    );

    let cfg = Config {
        seed: args.seed,
        seconds: 1.0,
        trace: true,
        corrupt: false,
    };
    let spans = run_workload(w, &cfg).spans;
    let full = trace::coverage(&spans);
    check(
        &format!("the full trace covers {full:.3} of its wall time"),
        full >= MIN_COVERAGE,
    );
    let layer = trace::largest_layer(&spans);
    let damaged = trace::coverage(&trace::without_layer(&spans, layer));
    check(
        &format!("without layer {layer} the trace covers {damaged:.3} and fails"),
        damaged < MIN_COVERAGE,
    );
    ok
}

/// Two sets of runs of the same build on the same seed. Per metric: each
/// set's median and quartiles, the spread `(q3 - q1) / median`, whether
/// both spreads are within the bound (resolved), and whether the second
/// set's median is within the bound of the first (agree).
fn stability(args: &Args) -> bool {
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => spec::WORKLOADS.iter().map(|(w, _)| *w).collect(),
    };
    let mut ok = true;
    let mut rows = Vec::new();
    for w in workloads {
        let mut sets: [Vec<Child>; 2] = Default::default();
        for set in &mut sets {
            for _ in 0..STABILITY_RUNS {
                let c = child(w, args.seed, args.seconds, false, false);
                ok &= c.ok;
                if c.ok {
                    set.push(c);
                } else {
                    eprintln!("{w}: run failed\n{}", c.stdout);
                }
            }
        }
        for m in spec::END_TO_END {
            let values = |set: &[Child]| -> Vec<f64> {
                set.iter().filter_map(|c| c.metric(m.name)).collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            if a.len() < 2 || b.len() < 2 {
                ok = false;
                continue;
            }
            let summary = |v: &[f64]| {
                let (q1, q3) = stats::quartiles(v);
                let med = stats::median(v);
                (med, q1, q3, (q3 - q1) / med)
            };
            let (sa, sb) = (summary(&a), summary(&b));
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let worse = if m.better == "higher" {
                (sa.0 - sb.0) / sa.0
            } else {
                (sb.0 - sa.0) / sa.0
            };
            let resolved = sa.3 <= bound && sb.3 <= bound;
            let agree = worse <= bound;
            ok &= resolved && agree;
            println!(
                "stability {w:<18} {:<16} set1 {:>14.4} [{:.4}, {:.4}] spread {:.4} | set2 {:>14.4} [{:.4}, {:.4}] spread {:.4} | bound {bound} {}",
                m.name,
                sa.0, sa.1, sa.2, sa.3, sb.0, sb.1, sb.2, sb.3,
                match (agree, resolved) {
                    (false, _) => "DISAGREE",
                    (true, false) => "UNRESOLVED",
                    (true, true) => "agree",
                }
            );
            rows.push(format!(
                "{{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"bound\": {bound}, \"sets\": [{}], \"second_worse_by\": {worse}, \"resolved\": {resolved}, \"agree\": {agree}}}",
                json::quote(w),
                json::quote(m.name),
                json::quote(m.unit),
                [sa, sb]
                    .iter()
                    .map(|s| format!("{{\"median\": {}, \"q1\": {}, \"q3\": {}, \"spread\": {}}}", s.0, s.1, s.2, s.3))
                    .collect::<Vec<_>>()
                    .join(", "),
            ));
        }
    }
    let doc = format!(
        "{{\"meta\": {}, \"runs_per_set\": {STABILITY_RUNS}, \"seconds\": {}, \"rows\": [\n  {}\n]}}\n",
        meta("all", args),
        args.seconds,
        rows.join(",\n  ")
    );
    let path = out_dir().join("stability.json");
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc)) {
        eprintln!("writing {}: {e}", path.display());
        return false;
    }
    println!(
        "stability {} ({})",
        path.display(),
        if ok {
            "all resolved and agree"
        } else {
            "NOT STABLE"
        }
    );
    ok
}
