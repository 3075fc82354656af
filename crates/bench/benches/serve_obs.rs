//! Criterion microbenchmarks for the observability layer: warm session
//! latency with tracing off vs on (the overhead the `obsfig` figure
//! bounds at 2%), the raw cost of the hot-path primitives (histogram
//! record, inert vs live span), and the Chrome
//! export render+validate pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fast::{FastConfig, ShardPlanner, Variant};
use graph_core::benchmark_query;
use graph_core::generators::{generate_ldbc, LdbcParams};
use serve::{FastService, ServeConfig};
use std::hint::black_box;
use std::sync::Arc;

fn config() -> ServeConfig {
    let mut fast = FastConfig::test_small(Variant::Sep);
    fast.shard_planner = ShardPlanner::Auto;
    ServeConfig {
        fast,
        devices: 2,
        workers: 1,
        cache_capacity: 16,
        max_in_flight: 4,
        ..ServeConfig::default()
    }
}

/// Warm end-to-end session latency, obs off vs obs on: the price of the
/// session/build/execute spans per session.
fn bench_traced_session(c: &mut Criterion) {
    let g = Arc::new(generate_ldbc(&LdbcParams::with_scale_factor(0.05), 42));
    let mut group = c.benchmark_group("serve/obs_session");
    group.sample_size(10);
    for traced in [false, true] {
        obs::reset();
        if traced {
            obs::enable();
        } else {
            obs::disable();
        }
        let service = FastService::new(Arc::clone(&g), config());
        // Prime the warm tiers so every measured iteration is pure
        // dispatch + kernel (+ spans).
        service.submit(benchmark_query(1)).wait().expect("prime");
        let label = if traced { "obs-on" } else { "obs-off" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter(|| {
                let report = service
                    .submit(benchmark_query(1))
                    .wait()
                    .expect("session completes");
                black_box(report.embeddings)
            });
        });
        service.shutdown();
        obs::disable();
        obs::reset();
    }
    group.finish();
}

/// The hot-path primitives in isolation: one histogram record, one inert
/// span open/close, one live span.
fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/primitives");
    let mut hist = obs::Histogram::new();
    group.bench_function("hist_record", |b| {
        let mut x = 1.0f64;
        b.iter(|| {
            hist.record(black_box(x));
            x *= 1.0000001;
        });
    });
    black_box(hist.count());
    obs::reset();
    obs::disable();
    group.bench_function("span_inert", |b| {
        b.iter(|| {
            let _s = obs::span("bench");
        });
    });
    obs::enable();
    group.bench_function("span_live", |b| {
        b.iter(|| {
            let mut s = obs::span("bench");
            s.arg_u64("i", 1);
        });
    });
    obs::disable();
    obs::reset();
    group.finish();
}

/// Chrome export: render + self-validate a trace of ~10k spans.
fn bench_chrome_export(c: &mut Criterion) {
    obs::reset();
    obs::enable();
    for i in 0..10_000u64 {
        let _g = obs::set_track(obs::session_track(i % 64));
        let mut s = obs::span_cat("session", "serve");
        s.arg_u64("i", i);
    }
    obs::disable();
    let mut group = c.benchmark_group("obs/chrome_export");
    group.sample_size(10);
    group.bench_function("render_validate_10k", |b| {
        b.iter(|| {
            let doc = obs::chrome_trace_json();
            let stats = obs::chrome::validate(&doc).expect("export self-validates");
            black_box(stats.events)
        });
    });
    group.finish();
    obs::reset();
}

criterion_group!(
    benches,
    bench_traced_session,
    bench_primitives,
    bench_chrome_export
);
criterion_main!(benches);
