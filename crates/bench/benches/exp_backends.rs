//! T21 — the accumulator layer's throughput and memory grid.
//!
//! The server of Algorithm 2 is a running ±1 sum per open dyadic
//! interval, stored in one dense `f64` lane per order
//! (`rtf_core::accumulator`). This experiment runs the batched pipeline
//! on one worker over an `(n, d)` grid that includes a large-`log d`
//! regime, recording wall time and the resident bytes of the pipeline's
//! accumulation state.
//!
//! The run also measures the **bit-packed sign-lane fold**
//! (`ReportBatch::fold_into`: word-at-a-time popcounts over `SignLane`
//! runs vs one decoded sign per row), asserted bit-identical to the row
//! reference first and recorded under `fold_packed`.
//!
//! Machine-readable output: `BENCH_backends.json` at the repository
//! root (validated by the CI smoke step and enforced as a baseline by
//! the CI perf-regression gate, `scripts/perf_gate.py`).
//!
//! Run with `cargo bench --bench exp_backends` (full) or
//! `cargo bench --bench exp_backends -- --smoke` (same grid — the grid
//! is already CI-sized — so every smoke row is directly comparable
//! against the committed baseline; only the fold micro-bench shrinks).

use rtf_bench::{banner, Table};
use rtf_core::accumulator::{Accumulator, DenseAccumulator};
use rtf_core::params::ProtocolParams;
use rtf_primitives::seeding::SeedSequence;
use rtf_primitives::sign::Sign;
use rtf_runtime::{ReportBatch, SignLane};
use rtf_scenarios::{run, Mode, RunSpec};
use rtf_streams::generator::UniformChanges;
use rtf_streams::population::Population;
use std::time::Instant;

struct Row {
    n: usize,
    d: u64,
    elapsed_s: f64,
    reports: u64,
    reports_per_s: f64,
    acc_bytes: u64,
}

fn measure(params: &ProtocolParams, population: &Population, seed: u64) -> Row {
    // Parallel(1): the batched pipeline on one worker — the per-period
    // shard accumulators, with no threading noise.
    let start = Instant::now();
    let outcome = run(&RunSpec::new(params, population, seed, Mode::Batched(1)));
    let elapsed_s = start.elapsed().as_secs_f64().max(1e-9);
    let reports = outcome.wire.payload_bits;
    Row {
        n: params.n(),
        d: params.d(),
        elapsed_s,
        reports,
        reports_per_s: reports as f64 / elapsed_s,
        acc_bytes: outcome.acc_bytes,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("RTF_BACKENDS_SMOKE").is_ok_and(|v| v == "1");
    // A throughput-shaped regime (modest d, large n) and a large-log d
    // regime (d = 4096 ⇒ 13 orders). The grid is cheap enough to run
    // whole in CI, so smoke keeps it — every smoke row differences
    // exactly against the committed baseline.
    let grid: &[(usize, u64)] = &[(100_000, 64), (4_000, 4_096)];
    let fold_repeats: usize = if smoke { 50 } else { 400 };
    let k = 4usize;

    banner(
        "T21",
        &format!(
            "dense accumulator grid (k={k}, grid {grid:?}{})",
            if smoke { ", SMOKE" } else { "" }
        ),
        "the batched pipeline's accumulation state: throughput and resident bytes per shape, \
         plus the packed sign-lane fold against the per-row reference",
    );

    let table = Table::new(&[
        ("n", 8),
        ("d", 6),
        ("wall s", 9),
        ("Mrep/s", 9),
        ("acc KiB", 9),
    ]);

    let mut rows: Vec<Row> = Vec::new();
    for &(n, d) in grid {
        let params = ProtocolParams::new(n, d, k, 1.0, 0.05).expect("valid parameters");
        let mut rng = SeedSequence::new(21_000 + n as u64).rng();
        let population = Population::generate(&UniformChanges::new(d, k, 0.8), n, &mut rng);
        let row = measure(&params, &population, 42);
        table.row(&[
            format!("{n}"),
            format!("{d}"),
            format!("{:.2}", row.elapsed_s),
            format!("{:.2}", row.reports_per_s / 1e6),
            format!("{:.1}", row.acc_bytes as f64 / 1024.0),
        ]);
        rows.push(row);
    }

    // The bit-packed sign-lane fold: `fold_into` run-detects order runs
    // and popcounts the packed sign words (64 signs per load), where the
    // row reference decodes one sign per row. The batch is built
    // order-major through `extend_packed` — the shape the span-batched
    // client emission actually produces (one order per bulk append),
    // where runs are long enough for word ops to pay. Equivalence first,
    // then the before/after timing.
    let fold_rows = 8_192usize;
    let fold_orders = 13u8; // the d = 4096 regime: 13 orders
    let mut lane = SignLane::new();
    for i in 0..fold_rows {
        lane.push(if i % 3 == 0 { Sign::Minus } else { Sign::Plus });
    }
    let users: Vec<u32> = (0..fold_rows as u32).collect();
    let mut packed_batch = ReportBatch::with_capacity(fold_rows);
    let mut at = 0usize;
    for h in 0..fold_orders {
        // Order h carries ~2^-(h+1) of the traffic, like a dyadic period.
        let span = ((fold_rows - at) / 2).max(1).min(fold_rows - at);
        packed_batch.extend_packed(&users[at..at + span], h, &lane, at..at + span);
        at += span;
        if at == fold_rows {
            break;
        }
    }
    packed_batch.extend_packed(&users[at..], 0, &lane, at..fold_rows);
    // A speedup for a wrong answer is worthless.
    let mut fast = DenseAccumulator::new(fold_orders as usize);
    let mut slow = DenseAccumulator::new(fold_orders as usize);
    packed_batch.fold_into(&mut fast);
    packed_batch.fold_into_rows(&mut slow);
    assert_eq!(fast, slow, "packed fold paths diverge");
    let time_packed = |packed: bool| -> f64 {
        let start = Instant::now();
        for _ in 0..fold_repeats {
            let mut acc = DenseAccumulator::new(fold_orders as usize);
            if packed {
                packed_batch.fold_into(&mut acc);
            } else {
                packed_batch.fold_into_rows(&mut acc);
            }
            assert_eq!(acc.reports(), fold_rows as u64);
        }
        start.elapsed().as_secs_f64().max(1e-9)
    };
    let packed_row_s = time_packed(false);
    let packed_word_s = time_packed(true);
    let packed_speedup = packed_row_s / packed_word_s;
    println!(
        "\npacked sign-lane folds ({fold_rows} rows x {fold_repeats} folds): \
         per-row {packed_row_s:.4}s vs word-at-a-time {packed_word_s:.4}s => {packed_speedup:.2}x"
    );

    // Machine-readable output at the repository root.
    let hardware_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"exp_backends\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str(&format!("  \"hardware_threads\": {hardware_threads},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"backend\": \"dense\", \"n\": {}, \"d\": {}, \"log_d\": {}, \
             \"elapsed_s\": {:.6}, \"reports\": {}, \"reports_per_s\": {:.1}, \
             \"acc_bytes\": {}}}{}\n",
            r.n,
            r.d,
            r.d.ilog2(),
            r.elapsed_s,
            r.reports,
            r.reports_per_s,
            r.acc_bytes,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"fold_packed\": {{\"backend\": \"dense\", \"rows\": {fold_rows}, \
         \"orders\": {fold_orders}, \"repeats\": {fold_repeats}, \
         \"per_row_s\": {packed_row_s:.6}, \"word_s\": {packed_word_s:.6}, \
         \"speedup\": {packed_speedup:.4}}}\n"
    ));
    json.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_backends.json");
    std::fs::write(path, &json).expect("write BENCH_backends.json");

    println!("\nresult: wrote BENCH_backends.json. PASS");
}
