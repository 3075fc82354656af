//! Criterion microbenchmarks for the shard planner (`cst::planner`):
//! the probe (one top-down pass + non-tree sampling), per-planner
//! boundary search, and the planned sharded build against the blind
//! contiguous baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cst::{
    build_cst_sharded, plan_shards, CstOptions, PipelineOptions, PlannerConfig, RootProfile,
    ShardPlanner,
};
use graph_core::generators::{generate_ldbc, LdbcParams};
use graph_core::{benchmark_query, select_root, BfsTree};
use std::hint::black_box;

/// The probe is the planner's fixed cost: one filtered top-down scan of
/// the tree-edge candidate space plus the sampled non-tree edge count.
/// q0 and q3 revisit the same hub neighbourhoods most often, so they show
/// any regression of the once-per-vertex filter memo first.
fn bench_probe(c: &mut Criterion) {
    let g = generate_ldbc(&LdbcParams::with_scale_factor(0.5), 1);
    let mut group = c.benchmark_group("cst_shard_planner/probe");
    group.sample_size(20);
    for qi in [0usize, 1, 2, 3, 8] {
        let q = benchmark_query(qi);
        let root = select_root(&q, &g);
        let tree = BfsTree::new(&q, root);
        let roots = cst::root_candidates(&q, &g, &tree, CstOptions::default());
        group.bench_with_input(BenchmarkId::from_parameter(format!("q{qi}")), &qi, |b, _| {
            b.iter(|| {
                black_box(RootProfile::probe(
                    &q,
                    &g,
                    &tree,
                    CstOptions::default(),
                    &roots,
                ))
            });
        });
    }
    group.finish();
}

/// Boundary search and auto shard-count selection on a probed profile —
/// the marginal cost per candidate plan (mask propagation sweeps).
fn bench_planning(c: &mut Criterion) {
    let g = generate_ldbc(&LdbcParams::with_scale_factor(0.5), 1);
    let q = benchmark_query(1); // the hub-dominated, root-rich query
    let root = select_root(&q, &g);
    let tree = BfsTree::new(&q, root);
    let roots = cst::root_candidates(&q, &g, &tree, CstOptions::default());
    let profile = RootProfile::probe(&q, &g, &tree, CstOptions::default(), &roots);
    let mut group = c.benchmark_group("cst_shard_planner/plan");
    group.sample_size(20);
    for planner in [
        ShardPlanner::WorkloadBalanced,
        ShardPlanner::OverlapAware,
        ShardPlanner::Auto,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(planner.to_string()),
            &planner,
            |b, &planner| {
                b.iter(|| {
                    black_box(plan_shards(planner, &profile, 16, &PlannerConfig::default()))
                });
            },
        );
    }
    group.finish();
}

/// End-to-end planned sharded build: the duplication the planner removes
/// shows up directly as build work (single worker — pure work, no
/// parallel noise).
fn bench_planned_build(c: &mut Criterion) {
    let g = generate_ldbc(&LdbcParams::with_scale_factor(0.5), 1);
    let q = benchmark_query(1);
    let root = select_root(&q, &g);
    let tree = BfsTree::new(&q, root);
    let mut group = c.benchmark_group("cst_shard_planner/build16");
    group.sample_size(10);
    for planner in [
        ShardPlanner::Contiguous,
        ShardPlanner::WorkloadBalanced,
        ShardPlanner::OverlapAware,
        ShardPlanner::Auto,
    ] {
        let opts = PipelineOptions {
            threads: 1,
            shards: Some(16),
            planner,
            cst: CstOptions::default(),
            ..PipelineOptions::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(planner.to_string()),
            &planner,
            |b, _| {
                b.iter(|| black_box(build_cst_sharded(&q, &g, &tree, &opts).0));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_probe, bench_planning, bench_planned_build);
criterion_main!(benches);
