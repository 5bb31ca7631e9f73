//! P2 — client and server hot paths.
//!
//! * client: one `observe` step (per-period work on every device);
//! * server: one `ingest` (per report) and one `end_of_period`
//!   (per period, includes finalising completed intervals and the
//!   frontier prefix query).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rtf_core::client::Client;
use rtf_core::composed::ComposedRandomizer;
use rtf_core::params::ProtocolParams;
use rtf_core::randomizer::FutureRand;
use rtf_core::server::Server;
use rtf_primitives::sign::{Sign, Ternary};
use std::hint::black_box;

fn bench_client(c: &mut Criterion) {
    let mut group = c.benchmark_group("client");
    group.sample_size(30);
    let d = 1024u64;
    let params = ProtocolParams::new(1000, d, 8, 1.0, 0.05).unwrap();
    let composed = ComposedRandomizer::for_protocol(8, 1.0);
    group.bench_function("observe_full_horizon_order0", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        b.iter(|| {
            let m = FutureRand::init(d as usize, &composed, &mut rng);
            let mut client = Client::new(&params, 0, m);
            let mut acc = 0i64;
            for t in 1..=d {
                // All-zero derivative: every period emits a uniform bit.
                if let Some(r) = client.observe(t, Ternary::Zero) {
                    acc += i64::from(r.bit.value());
                }
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_server(c: &mut Criterion) {
    let mut group = c.benchmark_group("server");
    group.sample_size(30);
    let d = 1024u64;
    let params = ProtocolParams::new(100_000, d, 8, 1.0, 0.05).unwrap();
    group.bench_function("ingest_100k_reports", |b| {
        b.iter(|| {
            let mut server = Server::for_future_rand(params);
            for _ in 0..100_000u32 {
                server.ingest(0, Sign::Plus);
            }
            black_box(server.reports_ingested())
        });
    });
    group.bench_function("full_horizon_periods", |b| {
        b.iter(|| {
            let mut server = Server::for_future_rand(params);
            let mut last = 0.0;
            for t in 1..=d {
                server.ingest(0, Sign::Minus);
                last = server.end_of_period(t);
            }
            black_box(last)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_client, bench_server);
criterion_main!(benches);
