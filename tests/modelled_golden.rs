//! Golden pins of every *modelled* quantity the one-shot drivers report.
//!
//! `run_fast` and `run_multi_fpga` feed the Fig. 7–17 reproduction, whose
//! modelled columns must not drift when the host-side flow is restructured.
//! Each case below renders the deterministic fields of one report — floats
//! as `f64::to_bits`, so equality is bit-exact — and compares the rendering
//! against constants recorded from the reference implementation. Measured
//! wall times are deliberately absent: they vary run to run.
//!
//! Coverage: all five variants × `host_threads` {1, 4} × planners
//! {`Contiguous`, `Auto`} on three seeded graphs, FAST-SHARE at δ = 0.25
//! (whose steal hook must fire at least once), and the multi-FPGA extension
//! on 1, 2 and 4 cards.

use fast::{run_fast, run_multi_fpga, FastConfig, FastReport, ShardPlanner, Variant};
use graph_core::generators::random_labelled_graph;
use graph_core::{Graph, Label, QueryGraph};

/// The three (query, graph) pairs every case runs on.
fn workloads() -> Vec<(QueryGraph, Graph)> {
    let l = Label::new;
    vec![
        (
            QueryGraph::new(vec![l(0), l(1), l(2)], &[(0, 1), (1, 2)]).unwrap(),
            random_labelled_graph(1200, 0.03, 3, 1200),
        ),
        (
            QueryGraph::new(vec![l(0), l(1), l(1)], &[(0, 1), (1, 2), (0, 2)]).unwrap(),
            random_labelled_graph(900, 0.04, 2, 1201),
        ),
        (
            QueryGraph::new(
                vec![l(0), l(1), l(0), l(1)],
                &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
            )
            .unwrap(),
            random_labelled_graph(700, 0.04, 2, 1200),
        ),
    ]
}

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Every modelled (deterministic) quantity of a report, in a fixed order.
fn render(r: &FastReport) -> String {
    format!(
        "total={} build={} par={} fill={} part={} cpu={} plan={} overhead={} \
         cycles={} ktime={} xfer={} xbytes={} n={} m={} fpga={} cpu_parts={} stolen={} \
         forced={} wcpu={} wfpga={} shards={} seeded={} topdown={} cst_bytes={} rounds={} \
         reads={} writes={} emb={}",
        bits(r.modeled_total_sec()),
        bits(r.modeled_build_sec),
        bits(r.modeled_build_parallel_sec),
        bits(r.modeled_fill_sec),
        bits(r.modeled_partition_sec),
        bits(r.modeled_cpu_match_sec),
        bits(r.modeled_plan_sec),
        bits(r.modeled_plan_overhead_sec()),
        r.kernel_cycles,
        bits(r.kernel_time_sec),
        bits(r.transfer_time_sec),
        r.transfer_bytes,
        r.counts.n,
        r.counts.m,
        r.fpga_partitions,
        r.cpu_partitions,
        r.stolen,
        r.forced,
        bits(r.workload_cpu),
        bits(r.workload_fpga),
        r.pipeline_shards,
        r.seeded_shards,
        r.build_topdown_entries,
        r.cst_bytes_total,
        r.rounds,
        r.cst_reads,
        r.buffer_writes,
        r.embeddings,
    )
}

/// Renders every `run_fast` case: the variant grid, then FAST-SHARE at
/// δ = 0.25. Also returns the total number of stolen CSTs.
fn fast_rows() -> (Vec<String>, usize) {
    let mut rows = Vec::new();
    let mut stolen = 0;
    for (gi, (q, g)) in workloads().iter().enumerate() {
        let mut configs: Vec<(String, FastConfig)> = Variant::ALL
            .iter()
            .map(|&v| (v.to_string(), FastConfig::test_small(v)))
            .collect();
        let mut share = FastConfig::test_small(Variant::Share);
        share.delta = 0.25;
        configs.push(("FAST-SHARE d0.25".to_string(), share));
        for (name, base) in &configs {
            for threads in [1, 4] {
                for planner in [ShardPlanner::Contiguous, ShardPlanner::Auto] {
                    let mut config = base.clone();
                    config.host_threads = threads;
                    config.shard_planner = planner;
                    let report = run_fast(q, g, &config).unwrap();
                    stolen += report.stolen;
                    rows.push(format!(
                        "g{gi} {name} T{threads} {planner:?}: {}",
                        render(&report)
                    ));
                }
            }
        }
    }
    (rows, stolen)
}

/// Renders the multi-FPGA extension's per-card split for 1, 2 and 4 cards.
fn multi_fpga_rows() -> Vec<String> {
    let mut rows = Vec::new();
    for (gi, (q, g)) in workloads().iter().enumerate() {
        let config = FastConfig::test_small(Variant::Sep);
        for cards in [1, 2, 4] {
            let r = run_multi_fpga(q, g, &config, cards).unwrap();
            let workloads: Vec<String> = r.per_card_workload.iter().map(|&w| bits(w)).collect();
            rows.push(format!(
                "g{gi} cards={cards}: cycles={:?} partitions={:?} workload={:?} makespan={} \
                 single={} emb={}",
                r.per_card_cycles,
                r.per_card_partitions,
                workloads,
                r.makespan_cycles,
                r.single_card_cycles,
                r.embeddings,
            ));
        }
    }
    rows
}

/// Compares rendered rows against the golden table, naming the first drift.
fn assert_golden(actual: &[String], golden: &[&str]) {
    for (i, (a, e)) in actual.iter().zip(golden).enumerate() {
        assert_eq!(a, e, "row {i} drifted");
    }
    assert_eq!(actual.len(), golden.len(), "row count drifted");
}

#[test]
fn run_fast_modelled_quantities_are_pinned() {
    let (rows, stolen) = fast_rows();
    assert_golden(&rows, RUN_FAST_GOLDEN);
    assert!(stolen > 0, "no case exercised FAST-SHARE's steal hook");
}

#[test]
fn multi_fpga_split_is_pinned() {
    assert_golden(&multi_fpga_rows(), MULTI_FPGA_GOLDEN);
}

const RUN_FAST_GOLDEN: &[&str] = &[
    "g0 FAST-DRAM T1 Contiguous: total=3f80272ea0afebf4 build=3f4945f73022b288 par=3f4945f73022b288 fill=3f4945f73022b288 part=3f474c8d4c5949f4 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=2102375 ktime=3f7cb4554e57c37d xfer=3f1c524340ef8688 xbytes=94804 n=65380 m=0 fpga=2 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=1 seeded=0 topdown=28218 cst_bytes=94804 rounds=1068 reads=71111 writes=5243 emb=60137",
    "g0 FAST-DRAM T1 Auto: total=3f80272ea0afebf4 build=3f4945f73022b288 par=3f4945f73022b288 fill=3f4945f73022b288 part=3f474c8d4c5949f4 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=2102375 ktime=3f7cb4554e57c37d xfer=3f1c524340ef8688 xbytes=94804 n=65380 m=0 fpga=2 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=1 seeded=0 topdown=28218 cst_bytes=94804 rounds=1068 reads=71111 writes=5243 emb=60137",
    "g0 FAST-DRAM T4 Contiguous: total=3f7dd4810762b10c build=3f4945f73022b288 par=3f386e4cd0aa12fa fill=3ef86e4cd0aa12fa part=3f50d3c28a53ab79 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=2102367 ktime=3f7cb44e25d2cd6d xfer=3f307c494bf398b9 xbytes=136940 n=65380 m=0 fpga=16 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=16 seeded=0 topdown=28218 cst_bytes=136940 rounds=1083 reads=71106 writes=5243 emb=60137",
    "g0 FAST-DRAM T4 Auto: total=3f7d97b17eaf4f2a build=3f4945f73022b288 par=3f386e4cd0aa12fa fill=3f086e4cd0aa12fa part=3f4dc87d5ccd0a8b cpu=0000000000000000 plan=3f3bbd4aceb051c2 overhead=0000000000000000 cycles=2102373 ktime=3f7cb453843685f9 xfer=3f26502c1aeea166 xbytes=121188 n=65380 m=0 fpga=8 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=8 seeded=8 topdown=0 cst_bytes=121188 rounds=1070 reads=71103 writes=5243 emb=60137",
    "g0 FAST-BASIC T1 Contiguous: total=3f5d3f413ef00b4c build=3f4945f73022b288 par=3f4945f73022b288 fill=3f4945f73022b288 part=3f474c8d4c5949f4 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=271735 ktime=3f4dae42e59f733f xfer=3f1c524340ef8688 xbytes=94804 n=65380 m=0 fpga=2 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=1 seeded=0 topdown=28218 cst_bytes=94804 rounds=1068 reads=71111 writes=5243 emb=60137",
    "g0 FAST-BASIC T1 Auto: total=3f5d3f413ef00b4c build=3f4945f73022b288 par=3f4945f73022b288 fill=3f4945f73022b288 part=3f474c8d4c5949f4 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=271735 ktime=3f4dae42e59f733f xfer=3f1c524340ef8688 xbytes=94804 n=65380 m=0 fpga=2 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=1 seeded=0 topdown=28218 cst_bytes=94804 rounds=1068 reads=71111 writes=5243 emb=60137",
    "g0 FAST-BASIC T4 Contiguous: total=3f5357d056fb6fd9 build=3f4945f73022b288 par=3f386e4cd0aa12fa fill=3ef86e4cd0aa12fa part=3f50d3c28a53ab79 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=271727 ktime=3f4dae09a177c2be xfer=3f307c494bf398b9 xbytes=136940 n=65380 m=0 fpga=16 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=16 seeded=0 topdown=28218 cst_bytes=136940 rounds=1083 reads=71106 writes=5243 emb=60137",
    "g0 FAST-BASIC T4 Auto: total=3f526492342de854 build=3f4945f73022b288 par=3f386e4cd0aa12fa fill=3f086e4cd0aa12fa part=3f4dc87d5ccd0a8b cpu=0000000000000000 plan=3f3bbd4aceb051c2 overhead=0000000000000000 cycles=271733 ktime=3f4dae349495871f xfer=3f26502c1aeea166 xbytes=121188 n=65380 m=0 fpga=8 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=8 seeded=8 topdown=0 cst_bytes=121188 rounds=1070 reads=71103 writes=5243 emb=60137",
    "g0 FAST-TASK T1 Contiguous: total=3f591e5c33afacff build=3f4945f73022b288 par=3f4945f73022b288 fill=3f4945f73022b288 part=3f474c8d4c5949f4 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=196140 ktime=3f456c78cf1eb6a5 xfer=3f1c524340ef8688 xbytes=94804 n=65380 m=0 fpga=2 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=1 seeded=0 topdown=28218 cst_bytes=94804 rounds=1068 reads=71111 writes=5243 emb=60137",
    "g0 FAST-TASK T1 Auto: total=3f591e5c33afacff build=3f4945f73022b288 par=3f4945f73022b288 fill=3f4945f73022b288 part=3f474c8d4c5949f4 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=196140 ktime=3f456c78cf1eb6a5 xfer=3f1c524340ef8688 xbytes=94804 n=65380 m=0 fpga=2 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=1 seeded=0 topdown=28218 cst_bytes=94804 rounds=1068 reads=71111 writes=5243 emb=60137",
    "g0 FAST-TASK T4 Contiguous: total=3f51357bbd9653c5 build=3f4945f73022b288 par=3f386e4cd0aa12fa fill=3ef86e4cd0aa12fa part=3f50d3c28a53ab79 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=196140 ktime=3f456c78cf1eb6a5 xfer=3f307c494bf398b9 xbytes=136940 n=65380 m=0 fpga=16 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=16 seeded=0 topdown=28218 cst_bytes=136940 rounds=1083 reads=71106 writes=5243 emb=60137",
    "g0 FAST-TASK T4 Auto: total=3f4f4f6229d7abbb build=3f4945f73022b288 par=3f386e4cd0aa12fa fill=3f086e4cd0aa12fa part=3f4dc87d5ccd0a8b cpu=0000000000000000 plan=3f3bbd4aceb051c2 overhead=0000000000000000 cycles=196140 ktime=3f456c78cf1eb6a5 xfer=3f26502c1aeea166 xbytes=121188 n=65380 m=0 fpga=8 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=8 seeded=8 topdown=0 cst_bytes=121188 rounds=1070 reads=71103 writes=5243 emb=60137",
    "g0 FAST-SEP T1 Contiguous: total=3f5849423e3dfe3e build=3f4945f73022b288 par=3f4945f73022b288 fill=3f4945f73022b288 part=3f474c8d4c5949f4 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=130760 ktime=3f3c90a11428f386 xfer=3f1c524340ef8688 xbytes=94804 n=65380 m=0 fpga=2 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=1 seeded=0 topdown=28218 cst_bytes=94804 rounds=1068 reads=71111 writes=5243 emb=60137",
    "g0 FAST-SEP T1 Auto: total=3f5849423e3dfe3e build=3f4945f73022b288 par=3f4945f73022b288 fill=3f4945f73022b288 part=3f474c8d4c5949f4 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=130760 ktime=3f3c90a11428f386 xfer=3f1c524340ef8688 xbytes=94804 n=65380 m=0 fpga=2 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=1 seeded=0 topdown=28218 cst_bytes=94804 rounds=1068 reads=71111 writes=5243 emb=60137",
    "g0 FAST-SEP T4 Contiguous: total=3f51357bbd9653c5 build=3f4945f73022b288 par=3f386e4cd0aa12fa fill=3ef86e4cd0aa12fa part=3f50d3c28a53ab79 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=130760 ktime=3f3c90a11428f386 xfer=3f307c494bf398b9 xbytes=136940 n=65380 m=0 fpga=16 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=16 seeded=0 topdown=28218 cst_bytes=136940 rounds=1083 reads=71106 writes=5243 emb=60137",
    "g0 FAST-SEP T4 Auto: total=3f4f4f6229d7abbb build=3f4945f73022b288 par=3f386e4cd0aa12fa fill=3f086e4cd0aa12fa part=3f4dc87d5ccd0a8b cpu=0000000000000000 plan=3f3bbd4aceb051c2 overhead=0000000000000000 cycles=130760 ktime=3f3c90a11428f386 xfer=3f26502c1aeea166 xbytes=121188 n=65380 m=0 fpga=8 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=8 seeded=8 topdown=0 cst_bytes=121188 rounds=1070 reads=71103 writes=5243 emb=60137",
    "g0 FAST-SHARE T1 Contiguous: total=3f5849423e3dfe3e build=3f4945f73022b288 par=3f4945f73022b288 fill=3f4945f73022b288 part=3f474c8d4c5949f4 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=130760 ktime=3f3c90a11428f386 xfer=3f1c524340ef8688 xbytes=94804 n=65380 m=0 fpga=2 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=1 seeded=0 topdown=28218 cst_bytes=94804 rounds=1068 reads=71111 writes=5243 emb=60137",
    "g0 FAST-SHARE T1 Auto: total=3f5849423e3dfe3e build=3f4945f73022b288 par=3f4945f73022b288 fill=3f4945f73022b288 part=3f474c8d4c5949f4 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=130760 ktime=3f3c90a11428f386 xfer=3f1c524340ef8688 xbytes=94804 n=65380 m=0 fpga=2 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=1 seeded=0 topdown=28218 cst_bytes=94804 rounds=1068 reads=71111 writes=5243 emb=60137",
    "g0 FAST-SHARE T4 Contiguous: total=3f532a5f101cc49e build=3f4945f73022b288 par=3f386e4cd0aa12fa fill=3ef86e4cd0aa12fa part=3f5064467b8f6d71 cpu=3f2322fb0a557708 plan=0000000000000000 overhead=0000000000000000 cycles=123638 ktime=3f3b02568e1dd71d xfer=3f2f929d2bd01838 xbytes=128924 n=61819 m=0 fpga=15 cpu_parts=1 stolen=0 forced=0 wcpu=40a97e0000000000 wfpga=40ebc54000000000 shards=16 seeded=0 topdown=28218 cst_bytes=128924 rounds=1024 reads=67224 writes=4945 emb=60137",
    "g0 FAST-SHARE T4 Auto: total=3f532c323ae88c1e build=3f4945f73022b288 par=3f386e4cd0aa12fa fill=3f086e4cd0aa12fa part=3f4c9638bc09302b cpu=3f30768dd97a8dc3 plan=3f3bbd4aceb051c2 overhead=0000000000000000 cycles=118506 ktime=3f39e355fb343e4b xfer=3f24dea327d19a00 xbytes=109032 n=59253 m=0 fpga=7 cpu_parts=1 stolen=0 forced=0 wcpu=40b60b0000000000 wfpga=40ea9bc000000000 shards=8 seeded=8 topdown=0 cst_bytes=109032 rounds=969 reads=64445 writes=4759 emb=60137",
    "g0 FAST-SHARE d0.25 T1 Contiguous: total=3f5849423e3dfe3e build=3f4945f73022b288 par=3f4945f73022b288 fill=3f4945f73022b288 part=3f474c8d4c5949f4 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=130760 ktime=3f3c90a11428f386 xfer=3f1c524340ef8688 xbytes=94804 n=65380 m=0 fpga=2 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=1 seeded=0 topdown=28218 cst_bytes=94804 rounds=1068 reads=71111 writes=5243 emb=60137",
    "g0 FAST-SHARE d0.25 T1 Auto: total=3f5849423e3dfe3e build=3f4945f73022b288 par=3f4945f73022b288 fill=3f4945f73022b288 part=3f474c8d4c5949f4 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=130760 ktime=3f3c90a11428f386 xfer=3f1c524340ef8688 xbytes=94804 n=65380 m=0 fpga=2 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=40ed5d2000000000 shards=1 seeded=0 topdown=28218 cst_bytes=94804 rounds=1068 reads=71111 writes=5243 emb=60137",
    "g0 FAST-SHARE d0.25 T4 Contiguous: total=3f57c394087f9fe8 build=3f4945f73022b288 par=3f386e4cd0aa12fa fill=3ef86e4cd0aa12fa part=3f4ef3f6875b538e cpu=3f3f9f7e463d3754 plan=0000000000000000 overhead=0000000000000000 cycles=107222 ktime=3f376c49f1d83bb3 xfer=3f2cc362c9567e46 xbytes=111708 n=53611 m=0 fpga=13 cpu_parts=3 stolen=0 forced=0 wcpu=40c52c8000000000 wfpga=40e8120000000000 shards=16 seeded=0 topdown=28218 cst_bytes=111708 rounds=889 reads=58334 writes=4315 emb=60137",
    "g0 FAST-SHARE d0.25 T4 Auto: total=3f56d9bab894ce20 build=3f4945f73022b288 par=3f386e4cd0aa12fa fill=3f086e4cd0aa12fa part=3f4b6637ed5730ea cpu=3f40c658b6c7ca25 plan=3f3bbd4aceb051c2 overhead=0000000000000000 cycles=105788 ktime=3f371c1800438e67 xfer=3f236c82734b6542 xbytes=96664 n=52894 m=0 fpga=6 cpu_parts=2 stolen=0 forced=0 wcpu=40c6740000000000 wfpga=40e7c02000000000 shards=8 seeded=8 topdown=0 cst_bytes=96664 rounds=864 reads=57537 writes=4253 emb=60137",
    "g1 FAST-DRAM T1 Contiguous: total=3f9d167cb2f2cad2 build=3f603d0eff215dc9 par=3f603d0eff215dc9 fill=3f603d0eff215dc9 part=3f76461288eea692 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=7844300 ktime=3f9ac67434ccd7fc xfer=3f3219a79071c737 xbytes=725056 n=165420 m=157047 fpga=19 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41032bb800000000 shards=1 seeded=0 topdown=29902 cst_bytes=725056 rounds=2673 reads=332778 writes=8373 emb=5766",
    "g1 FAST-DRAM T1 Auto: total=3f9d167cb2f2cad2 build=3f603d0eff215dc9 par=3f603d0eff215dc9 fill=3f603d0eff215dc9 part=3f76461288eea692 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=7844300 ktime=3f9ac67434ccd7fc xfer=3f3219a79071c737 xbytes=725056 n=165420 m=157047 fpga=19 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41032bb800000000 shards=1 seeded=0 topdown=29902 cst_bytes=725056 rounds=2673 reads=332778 writes=8373 emb=5766",
    "g1 FAST-DRAM T4 Contiguous: total=3f9b38516c1a4669 build=3f794f316b87e364 par=3f6877384e58b124 fill=3f2877384e58b124 part=3f76d4121078c915 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=7844302 ktime=3f9ac674a755275d xfer=3f303b950a1b6a73 xbytes=743112 n=165420 m=157047 fpga=16 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41032bb800000000 shards=16 seeded=0 topdown=29902 cst_bytes=743112 rounds=2666 reads=332769 writes=8373 emb=5766",
    "g1 FAST-DRAM T4 Auto: total=3f9c19fba6d20e7e build=3f66021fead6f8f6 par=3f60df7edeb5e101 fill=3f50df7edeb5e101 part=3f75f83f415e6f22 cpu=0000000000000000 plan=3f46f81ee014fe14 overhead=0000000000000000 cycles=7844297 ktime=3f9ac673890060eb xfer=3f31640bf993e0a9 xbytes=715160 n=165420 m=157047 fpga=18 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41032bb800000000 shards=2 seeded=2 topdown=0 cst_bytes=715160 rounds=2671 reads=332777 writes=8373 emb=5766",
    "g1 FAST-BASIC T1 Contiguous: total=3f7e649a087f5576 build=3f603d0eff215dc9 par=3f603d0eff215dc9 fill=3f603d0eff215dc9 part=3f76461288eea692 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=1013882 ktime=3f6baf8c8369e5b0 xfer=3f3219a79071c737 xbytes=725056 n=165420 m=157047 fpga=19 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41032bb800000000 shards=1 seeded=0 topdown=29902 cst_bytes=725056 rounds=2673 reads=332778 writes=8373 emb=5766",
    "g1 FAST-BASIC T1 Auto: total=3f7e649a087f5576 build=3f603d0eff215dc9 par=3f603d0eff215dc9 fill=3f603d0eff215dc9 part=3f76461288eea692 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=1013882 ktime=3f6baf8c8369e5b0 xfer=3f3219a79071c737 xbytes=725056 n=165420 m=157047 fpga=19 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41032bb800000000 shards=1 seeded=0 topdown=29902 cst_bytes=725056 rounds=2673 reads=332778 writes=8373 emb=5766",
    "g1 FAST-BASIC T4 Contiguous: total=3f7797cbd2eb8e9e build=3f794f316b87e364 par=3f6877384e58b124 fill=3f2877384e58b124 part=3f76d4121078c915 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=1013884 ktime=3f6baf9017ac60b8 xfer=3f303b950a1b6a73 xbytes=743112 n=165420 m=157047 fpga=16 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41032bb800000000 shards=16 seeded=0 topdown=29902 cst_bytes=743112 rounds=2666 reads=332769 writes=8373 emb=5766",
    "g1 FAST-BASIC T4 Auto: total=3f7a301ef90be762 build=3f66021fead6f8f6 par=3f60df7edeb5e101 fill=3f50df7edeb5e101 part=3f75f83f415e6f22 cpu=0000000000000000 plan=3f46f81ee014fe14 overhead=0000000000000000 cycles=1013879 ktime=3f6baf8725062d24 xfer=3f31640bf993e0a9 xbytes=715160 n=165420 m=157047 fpga=18 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41032bb800000000 shards=2 seeded=2 topdown=0 cst_bytes=715160 rounds=2671 reads=332777 writes=8373 emb=5766",
    "g1 FAST-TASK T1 Contiguous: total=3f7e649a087f5576 build=3f603d0eff215dc9 par=3f603d0eff215dc9 fill=3f603d0eff215dc9 part=3f76461288eea692 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=496260 ktime=3f5b1a37b9aab119 xfer=3f3219a79071c737 xbytes=725056 n=165420 m=157047 fpga=19 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41032bb800000000 shards=1 seeded=0 topdown=29902 cst_bytes=725056 rounds=2673 reads=332778 writes=8373 emb=5766",
    "g1 FAST-TASK T1 Auto: total=3f7e649a087f5576 build=3f603d0eff215dc9 par=3f603d0eff215dc9 fill=3f603d0eff215dc9 part=3f76461288eea692 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=496260 ktime=3f5b1a37b9aab119 xfer=3f3219a79071c737 xbytes=725056 n=165420 m=157047 fpga=19 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41032bb800000000 shards=1 seeded=0 topdown=29902 cst_bytes=725056 rounds=2673 reads=332778 writes=8373 emb=5766",
    "g1 FAST-TASK T4 Contiguous: total=3f7797cbd2eb8e9e build=3f794f316b87e364 par=3f6877384e58b124 fill=3f2877384e58b124 part=3f76d4121078c915 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=496260 ktime=3f5b1a37b9aab119 xfer=3f303b950a1b6a73 xbytes=743112 n=165420 m=157047 fpga=16 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41032bb800000000 shards=16 seeded=0 topdown=29902 cst_bytes=743112 rounds=2666 reads=332769 writes=8373 emb=5766",
    "g1 FAST-TASK T4 Auto: total=3f7a301ef90be762 build=3f66021fead6f8f6 par=3f60df7edeb5e101 fill=3f50df7edeb5e101 part=3f75f83f415e6f22 cpu=0000000000000000 plan=3f46f81ee014fe14 overhead=0000000000000000 cycles=496260 ktime=3f5b1a37b9aab119 xfer=3f31640bf993e0a9 xbytes=715160 n=165420 m=157047 fpga=18 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41032bb800000000 shards=2 seeded=2 topdown=0 cst_bytes=715160 rounds=2671 reads=332777 writes=8373 emb=5766",
    "g1 FAST-SEP T1 Contiguous: total=3f7e649a087f5576 build=3f603d0eff215dc9 par=3f603d0eff215dc9 fill=3f603d0eff215dc9 part=3f76461288eea692 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=330840 ktime=3f52117a7bc720bb xfer=3f3219a79071c737 xbytes=725056 n=165420 m=157047 fpga=19 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41032bb800000000 shards=1 seeded=0 topdown=29902 cst_bytes=725056 rounds=2673 reads=332778 writes=8373 emb=5766",
    "g1 FAST-SEP T1 Auto: total=3f7e649a087f5576 build=3f603d0eff215dc9 par=3f603d0eff215dc9 fill=3f603d0eff215dc9 part=3f76461288eea692 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=330840 ktime=3f52117a7bc720bb xfer=3f3219a79071c737 xbytes=725056 n=165420 m=157047 fpga=19 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41032bb800000000 shards=1 seeded=0 topdown=29902 cst_bytes=725056 rounds=2673 reads=332778 writes=8373 emb=5766",
    "g1 FAST-SEP T4 Contiguous: total=3f7797cbd2eb8e9e build=3f794f316b87e364 par=3f6877384e58b124 fill=3f2877384e58b124 part=3f76d4121078c915 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=330840 ktime=3f52117a7bc720bb xfer=3f303b950a1b6a73 xbytes=743112 n=165420 m=157047 fpga=16 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41032bb800000000 shards=16 seeded=0 topdown=29902 cst_bytes=743112 rounds=2666 reads=332769 writes=8373 emb=5766",
    "g1 FAST-SEP T4 Auto: total=3f7a301ef90be762 build=3f66021fead6f8f6 par=3f60df7edeb5e101 fill=3f50df7edeb5e101 part=3f75f83f415e6f22 cpu=0000000000000000 plan=3f46f81ee014fe14 overhead=0000000000000000 cycles=330840 ktime=3f52117a7bc720bb xfer=3f31640bf993e0a9 xbytes=715160 n=165420 m=157047 fpga=18 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41032bb800000000 shards=2 seeded=2 topdown=0 cst_bytes=715160 rounds=2671 reads=332777 writes=8373 emb=5766",
    "g1 FAST-SHARE T1 Contiguous: total=3f7fb5db1028e473 build=3f603d0eff215dc9 par=3f603d0eff215dc9 fill=3f603d0eff215dc9 part=3f75e6611d7c3cbd cpu=3f3b0f2731bf8d16 plan=0000000000000000 overhead=0000000000000000 cycles=304380 ktime=3f509f8a7462a86c xfer=3f3075d52a7a8e22 xbytes=664776 n=152190 m=144509 fpga=17 cpu_parts=2 stolen=0 forced=0 wcpu=40c87d0000000000 wfpga=4101a3e800000000 shards=1 seeded=0 topdown=29902 cst_bytes=664776 rounds=2460 reads=306165 writes=7681 emb=5766",
    "g1 FAST-SHARE T1 Auto: total=3f7fb5db1028e473 build=3f603d0eff215dc9 par=3f603d0eff215dc9 fill=3f603d0eff215dc9 part=3f75e6611d7c3cbd cpu=3f3b0f2731bf8d16 plan=0000000000000000 overhead=0000000000000000 cycles=304380 ktime=3f509f8a7462a86c xfer=3f3075d52a7a8e22 xbytes=664776 n=152190 m=144509 fpga=17 cpu_parts=2 stolen=0 forced=0 wcpu=40c87d0000000000 wfpga=4101a3e800000000 shards=1 seeded=0 topdown=29902 cst_bytes=664776 rounds=2460 reads=306165 writes=7681 emb=5766",
    "g1 FAST-SHARE T4 Contiguous: total=3f78b8ff431f4218 build=3f794f316b87e364 par=3f6877384e58b124 fill=3f2877384e58b124 part=3f7699bfaf2cfebc cpu=3f35b85d17f7dd35 plan=0000000000000000 overhead=0000000000000000 cycles=312940 ktime=3f511737e35486f9 xfer=3f2eb205e027dc7d xbytes=701056 n=156470 m=148579 fpga=15 cpu_parts=1 stolen=0 forced=0 wcpu=40c08a0000000000 wfpga=4102231800000000 shards=16 seeded=0 topdown=29902 cst_bytes=701056 rounds=2521 reads=314770 writes=7891 emb=5766",
    "g1 FAST-SHARE T4 Auto: total=3f7b01b4a4d19fdf build=3f66021fead6f8f6 par=3f60df7edeb5e101 fill=3f50df7edeb5e101 part=3f75c3c6bec0c583 cpu=3f3060e2e63621c7 plan=3f46f81ee014fe14 overhead=0000000000000000 cycles=314324 ktime=3f512a916abdaab8 xfer=3f308c33c9fb80b4 xbytes=680776 n=157162 m=149194 fpga=17 cpu_parts=1 stolen=0 forced=0 wcpu=40bead0000000000 wfpga=4102365000000000 shards=2 seeded=2 topdown=0 cst_bytes=680776 rounds=2536 reads=316159 writes=7968 emb=5766",
    "g1 FAST-SHARE d0.25 T1 Contiguous: total=3f817b70b9a67f5c build=3f603d0eff215dc9 par=3f603d0eff215dc9 fill=3f603d0eff215dc9 part=3f7540f20da4027f cpu=3f565d9f9861354f plan=0000000000000000 overhead=0000000000000000 cycles=252314 ktime=3f4b8f35f6c04995 xfer=3f2bb2bbd75ef9e4 xbytes=546652 n=126157 m=119836 fpga=14 cpu_parts=5 stolen=0 forced=0 wcpu=40e22b6000000000 wfpga=40fd41c000000000 shards=1 seeded=0 topdown=29902 cst_bytes=546652 rounds=2037 reads=253797 writes=6321 emb=5766",
    "g1 FAST-SHARE d0.25 T1 Auto: total=3f817b70b9a67f5c build=3f603d0eff215dc9 par=3f603d0eff215dc9 fill=3f603d0eff215dc9 part=3f7540f20da4027f cpu=3f565d9f9861354f plan=0000000000000000 overhead=0000000000000000 cycles=252314 ktime=3f4b8f35f6c04995 xfer=3f2bb2bbd75ef9e4 xbytes=546652 n=126157 m=119836 fpga=14 cpu_parts=5 stolen=0 forced=0 wcpu=40e22b6000000000 wfpga=40fd41c000000000 shards=1 seeded=0 topdown=29902 cst_bytes=546652 rounds=2037 reads=253797 writes=6321 emb=5766",
    "g1 FAST-SHARE d0.25 T4 Contiguous: total=3f7cefb05196f67c build=3f794f316b87e364 par=3f6877384e58b124 fill=3f2877384e58b124 part=3f75df2cf6ae1cb4 cpu=3f59332661d850fd plan=0000000000000000 overhead=0000000000000000 cycles=249098 ktime=3f4b3548f06d1e4a xfer=3f2935ab57d751b1 xbytes=558820 n=124549 m=118249 fpga=12 cpu_parts=4 stolen=0 forced=0 wcpu=40e2f1c000000000 wfpga=40fcde9000000000 shards=16 seeded=0 topdown=29902 cst_bytes=558820 rounds=2005 reads=250557 writes=6300 emb=5766",
    "g1 FAST-SHARE d0.25 T4 Auto: total=3f7e2271191cdc85 build=3f66021fead6f8f6 par=3f60df7edeb5e101 fill=3f50df7edeb5e101 part=3f752327cd4e7ce6 cpu=3f531da650839d7b plan=3f46f81ee014fe14 overhead=0000000000000000 cycles=263208 ktime=3f4cbfd440df6e3a xfer=3f2bece7ecb03966 xbytes=567456 n=131604 m=124970 fpga=14 cpu_parts=4 stolen=0 forced=0 wcpu=40df534000000000 wfpga=40fe82a000000000 shards=2 seeded=2 topdown=0 cst_bytes=567456 rounds=2124 reads=264747 writes=6634 emb=5766",
    "g2 FAST-DRAM T1 Contiguous: total=3f95e155ac152d76 build=3f60878ca6c1f62f par=3f60878ca6c1f62f fill=3f60878ca6c1f62f part=3f76490785db4bc1 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=5714155 ktime=3f93811ad5fd8662 xfer=3f33d2504fda1368 xbytes=725432 n=120413 m=114574 fpga=22 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41300ec200000000 shards=1 seeded=0 topdown=31233 cst_bytes=725432 rounds=2514 reads=244526 writes=8713 emb=1500",
    "g2 FAST-DRAM T1 Auto: total=3f95e155ac152d76 build=3f60878ca6c1f62f par=3f60878ca6c1f62f fill=3f60878ca6c1f62f part=3f76490785db4bc1 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=5714155 ktime=3f93811ad5fd8662 xfer=3f33d2504fda1368 xbytes=725432 n=120413 m=114574 fpga=22 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41300ec200000000 shards=1 seeded=0 topdown=31233 cst_bytes=725432 rounds=2514 reads=244526 writes=8713 emb=1500",
    "g2 FAST-DRAM T4 Contiguous: total=3f93fc474442b08a build=3f796c0cc387d4a1 par=3f68931d67adf835 fill=3f28931d67adf835 part=3f76fd57af137e62 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=5719560 ktime=3f9385d3e9f77fff xfer=3f315347def526c2 xbytes=748360 n=120525 m=114686 fpga=18 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=4130177100000000 shards=16 seeded=0 topdown=31233 cst_bytes=748360 rounds=2507 reads=244742 writes=8713 emb=1500",
    "g2 FAST-DRAM T4 Auto: total=3f94ea067fb2230e build=3f66e4481395083b par=3f618ce1ece130fa fill=3f518ce1ece130fa part=3f7637ba567d9024 cpu=0000000000000000 plan=3f48a674c9559eee overhead=0000000000000000 cycles=5718159 ktime=3f93849a83fa4b0a xfer=3f3327773a713d2d xbytes=723232 n=120496 m=114657 fpga=21 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=4130148c00000000 shards=2 seeded=2 topdown=0 cst_bytes=723232 rounds=2517 reads=244694 writes=8713 emb=1500",
    "g2 FAST-BASIC T1 Contiguous: total=3f7e8ccdd93c46d8 build=3f60878ca6c1f62f par=3f60878ca6c1f62f fill=3f60878ca6c1f62f part=3f76490785db4bc1 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=738555 ktime=3f642adfa79ae41d xfer=3f33d2504fda1368 xbytes=725432 n=120413 m=114574 fpga=22 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41300ec200000000 shards=1 seeded=0 topdown=31233 cst_bytes=725432 rounds=2514 reads=244526 writes=8713 emb=1500",
    "g2 FAST-BASIC T1 Auto: total=3f7e8ccdd93c46d8 build=3f60878ca6c1f62f par=3f60878ca6c1f62f fill=3f60878ca6c1f62f part=3f76490785db4bc1 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=738555 ktime=3f642adfa79ae41d xfer=3f33d2504fda1368 xbytes=725432 n=120413 m=114574 fpga=22 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41300ec200000000 shards=1 seeded=0 topdown=31233 cst_bytes=725432 rounds=2514 reads=244526 writes=8713 emb=1500",
    "g2 FAST-BASIC T4 Contiguous: total=3f77c1f09a50ee24 build=3f796c0cc387d4a1 par=3f68931d67adf835 fill=3f28931d67adf835 part=3f76fd57af137e62 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=739256 ktime=3f642fc624a056b1 xfer=3f315347def526c2 xbytes=748360 n=120525 m=114686 fpga=18 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=4130177100000000 shards=16 seeded=0 topdown=31233 cst_bytes=748360 rounds=2507 reads=244742 writes=8713 emb=1500",
    "g2 FAST-BASIC T4 Auto: total=3f7a9af2d1b5dc62 build=3f66e4481395083b par=3f618ce1ece130fa fill=3f518ce1ece130fa part=3f7637ba567d9024 cpu=0000000000000000 plan=3f48a674c9559eee overhead=0000000000000000 cycles=739073 ktime=3f642e7ea6dd5d4c xfer=3f3327773a713d2d xbytes=723232 n=120496 m=114657 fpga=21 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=4130148c00000000 shards=2 seeded=2 topdown=0 cst_bytes=723232 rounds=2517 reads=244694 writes=8713 emb=1500",
    "g2 FAST-TASK T1 Contiguous: total=3f7e8ccdd93c46d8 build=3f60878ca6c1f62f par=3f60878ca6c1f62f fill=3f60878ca6c1f62f part=3f76490785db4bc1 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=361239 ktime=3f53ba7cbe16a68b xfer=3f33d2504fda1368 xbytes=725432 n=120413 m=114574 fpga=22 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41300ec200000000 shards=1 seeded=0 topdown=31233 cst_bytes=725432 rounds=2514 reads=244526 writes=8713 emb=1500",
    "g2 FAST-TASK T1 Auto: total=3f7e8ccdd93c46d8 build=3f60878ca6c1f62f par=3f60878ca6c1f62f fill=3f60878ca6c1f62f part=3f76490785db4bc1 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=361239 ktime=3f53ba7cbe16a68b xfer=3f33d2504fda1368 xbytes=725432 n=120413 m=114574 fpga=22 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41300ec200000000 shards=1 seeded=0 topdown=31233 cst_bytes=725432 rounds=2514 reads=244526 writes=8713 emb=1500",
    "g2 FAST-TASK T4 Contiguous: total=3f77c1f09a50ee24 build=3f796c0cc387d4a1 par=3f68931d67adf835 fill=3f28931d67adf835 part=3f76fd57af137e62 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=361575 ktime=3f53bf2f55582129 xfer=3f315347def526c2 xbytes=748360 n=120525 m=114686 fpga=18 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=4130177100000000 shards=16 seeded=0 topdown=31233 cst_bytes=748360 rounds=2507 reads=244742 writes=8713 emb=1500",
    "g2 FAST-TASK T4 Auto: total=3f7a9af2d1b5dc62 build=3f66e4481395083b par=3f618ce1ece130fa fill=3f518ce1ece130fa part=3f7637ba567d9024 cpu=0000000000000000 plan=3f48a674c9559eee overhead=0000000000000000 cycles=361488 ktime=3f53bdf7f2c05169 xfer=3f3327773a713d2d xbytes=723232 n=120496 m=114657 fpga=21 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=4130148c00000000 shards=2 seeded=2 topdown=0 cst_bytes=723232 rounds=2517 reads=244694 writes=8713 emb=1500",
    "g2 FAST-SEP T1 Contiguous: total=3f7e8ccdd93c46d8 build=3f60878ca6c1f62f par=3f60878ca6c1f62f fill=3f60878ca6c1f62f part=3f76490785db4bc1 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=240826 ktime=3f4a4dfba81e3364 xfer=3f33d2504fda1368 xbytes=725432 n=120413 m=114574 fpga=22 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41300ec200000000 shards=1 seeded=0 topdown=31233 cst_bytes=725432 rounds=2514 reads=244526 writes=8713 emb=1500",
    "g2 FAST-SEP T1 Auto: total=3f7e8ccdd93c46d8 build=3f60878ca6c1f62f par=3f60878ca6c1f62f fill=3f60878ca6c1f62f part=3f76490785db4bc1 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=240826 ktime=3f4a4dfba81e3364 xfer=3f33d2504fda1368 xbytes=725432 n=120413 m=114574 fpga=22 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=41300ec200000000 shards=1 seeded=0 topdown=31233 cst_bytes=725432 rounds=2514 reads=244526 writes=8713 emb=1500",
    "g2 FAST-SEP T4 Contiguous: total=3f77c1f09a50ee24 build=3f796c0cc387d4a1 par=3f68931d67adf835 fill=3f28931d67adf835 part=3f76fd57af137e62 cpu=0000000000000000 plan=0000000000000000 overhead=0000000000000000 cycles=241050 ktime=3f4a543f1c75818d xfer=3f315347def526c2 xbytes=748360 n=120525 m=114686 fpga=18 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=4130177100000000 shards=16 seeded=0 topdown=31233 cst_bytes=748360 rounds=2507 reads=244742 writes=8713 emb=1500",
    "g2 FAST-SEP T4 Auto: total=3f7a9af2d1b5dc62 build=3f66e4481395083b par=3f618ce1ece130fa fill=3f518ce1ece130fa part=3f7637ba567d9024 cpu=0000000000000000 plan=3f48a674c9559eee overhead=0000000000000000 cycles=240992 ktime=3f4a529fee55c1e2 xfer=3f3327773a713d2d xbytes=723232 n=120496 m=114657 fpga=21 cpu_parts=0 stolen=0 forced=0 wcpu=0000000000000000 wfpga=4130148c00000000 shards=2 seeded=2 topdown=0 cst_bytes=723232 rounds=2517 reads=244694 writes=8713 emb=1500",
    "g2 FAST-SHARE T1 Contiguous: total=3f7f25f3c954b701 build=3f60878ca6c1f62f par=3f60878ca6c1f62f fill=3f60878ca6c1f62f part=3f75e9f72a188258 cpu=3f2f06c97b67321b plan=0000000000000000 overhead=0000000000000000 cycles=223922 ktime=3f4875501c8656d5 xfer=3f323d3608166b99 xbytes=675680 n=111961 m=106530 fpga=20 cpu_parts=2 stolen=0 forced=0 wcpu=40f1f8d000000000 wfpga=412dde6a00000000 shards=1 seeded=0 topdown=31233 cst_bytes=675680 rounds=2337 reads=227363 writes=8101 emb=1500",
    "g2 FAST-SHARE T1 Auto: total=3f7f25f3c954b701 build=3f60878ca6c1f62f par=3f60878ca6c1f62f fill=3f60878ca6c1f62f part=3f75e9f72a188258 cpu=3f2f06c97b67321b plan=0000000000000000 overhead=0000000000000000 cycles=223922 ktime=3f4875501c8656d5 xfer=3f323d3608166b99 xbytes=675680 n=111961 m=106530 fpga=20 cpu_parts=2 stolen=0 forced=0 wcpu=40f1f8d000000000 wfpga=412dde6a00000000 shards=1 seeded=0 topdown=31233 cst_bytes=675680 rounds=2337 reads=227363 writes=8101 emb=1500",
    "g2 FAST-SHARE T4 Contiguous: total=3f78d3c3b41c79dc build=3f796c0cc387d4a1 par=3f68931d67adf835 fill=3f28931d67adf835 part=3f768b677cbbe84e cpu=3f383c34c2321cba plan=0000000000000000 overhead=0000000000000000 cycles=219658 ktime=3f47fe1535e3d94b xfer=3f2f46d35f494ce1 xbytes=679464 n=109829 m=104547 fpga=16 cpu_parts=2 stolen=0 forced=0 wcpu=40f6bbd000000000 wfpga=412d576800000000 shards=16 seeded=0 topdown=31233 cst_bytes=679464 rounds=2287 reads=223044 writes=7912 emb=1500",
    "g2 FAST-SHARE T4 Auto: total=3f7b395597979743 build=3f66e4481395083b par=3f618ce1ece130fa fill=3f518ce1ece130fa part=3f75d584ac4ca49f cpu=3f300987012a664a plan=3f48a674c9559eee overhead=0000000000000000 cycles=223752 ktime=3f48708f343af016 xfer=3f318e3c62d15009 xbytes=670528 n=111876 m=106447 fpga=19 cpu_parts=2 stolen=0 forced=0 wcpu=40f246b000000000 wfpga=412de04200000000 shards=2 seeded=2 topdown=0 cst_bytes=670528 rounds=2337 reads=227184 writes=8092 emb=1500",
    "g2 FAST-SHARE d0.25 T1 Contiguous: total=3f7f9e6cbd17a30a build=3f60878ca6c1f62f par=3f60878ca6c1f62f fill=3f60878ca6c1f62f part=3f74133d1e99732e cpu=3f4a3b4a58e9a621 plan=0000000000000000 overhead=0000000000000000 cycles=189144 ktime=3f44a8d97d8a4467 xfer=3f2e2fc3bfe0ae03 xbytes=579664 n=94572 m=89959 fpga=16 cpu_parts=5 stolen=1 forced=0 wcpu=410c7b7000000000 wfpga=4129038000000000 shards=1 seeded=0 topdown=31233 cst_bytes=579664 rounds=1969 reads=192059 writes=6891 emb=1500",
    "g2 FAST-SHARE d0.25 T1 Auto: total=3f7f9e6cbd17a30a build=3f60878ca6c1f62f par=3f60878ca6c1f62f fill=3f60878ca6c1f62f part=3f74133d1e99732e cpu=3f4a3b4a58e9a621 plan=0000000000000000 overhead=0000000000000000 cycles=189144 ktime=3f44a8d97d8a4467 xfer=3f2e2fc3bfe0ae03 xbytes=579664 n=94572 m=89959 fpga=16 cpu_parts=5 stolen=1 forced=0 wcpu=410c7b7000000000 wfpga=4129038000000000 shards=1 seeded=0 topdown=31233 cst_bytes=579664 rounds=1969 reads=192059 writes=6891 emb=1500",
    "g2 FAST-SHARE d0.25 T4 Contiguous: total=3f7970fb2bc6c436 build=3f796c0cc387d4a1 par=3f68931d67adf835 fill=3f28931d67adf835 part=3f750c10da6dca33 cpu=3f4d028b30dc520c plan=0000000000000000 overhead=0000000000000000 cycles=194978 ktime=3f454bfae399d130 xfer=3f2be8db67e1d83f xbytes=611200 n=97489 m=92765 fpga=14 cpu_parts=3 stolen=1 forced=0 wcpu=4108524000000000 wfpga=412a1be800000000 shards=16 seeded=0 topdown=31233 cst_bytes=611200 rounds=2027 reads=197948 writes=7034 emb=1500",
    "g2 FAST-SHARE d0.25 T4 Auto: total=3f7bd71324a2cf7c build=3f66e4481395083b par=3f618ce1ece130fa fill=3f518ce1ece130fa part=3f73f900dd4a9e5f cpu=3f4bd6ce60ff26ef plan=3f48a674c9559eee overhead=0000000000000000 cycles=188318 ktime=3f4491c0c0885430 xfer=3f2cc198a818fa39 xbytes=568712 n=94159 m=89637 fpga=15 cpu_parts=5 stolen=1 forced=0 wcpu=410b5b6000000000 wfpga=4129524000000000 shards=2 seeded=2 topdown=0 cst_bytes=568712 rounds=1964 reads=191185 writes=6740 emb=1500",
];

const MULTI_FPGA_GOLDEN: &[&str] = &[
    "g0 cards=1: cycles=[130760] partitions=[2] workload=[\"40ed5d2000000000\"] makespan=130760 single=130760 emb=60137",
    "g0 cards=2: cycles=[63752, 67008] partitions=[1, 1] workload=[\"40dca38000000000\", \"40de16c000000000\"] makespan=67008 single=130760 emb=60137",
    "g0 cards=4: cycles=[63752, 67008, 0, 0] partitions=[1, 1, 0, 0] workload=[\"40dca38000000000\", \"40de16c000000000\", \"0000000000000000\", \"0000000000000000\"] makespan=67008 single=130760 emb=60137",
    "g1 cards=1: cycles=[330840] partitions=[19] workload=[\"41032bb800000000\"] makespan=330840 single=330840 emb=5766",
    "g1 cards=2: cycles=[170486, 160354] partitions=[10, 9] workload=[\"40f3c68000000000\", \"40f290f000000000\"] makespan=170486 single=330840 emb=5766",
    "g1 cards=4: cycles=[83266, 85408, 81390, 80776] partitions=[5, 5, 5, 4] workload=[\"40e34bc000000000\", \"40e3d28000000000\", \"40e2daa000000000\", \"40e2b60000000000\"] makespan=85408 single=330840 emb=5766",
    "g2 cards=1: cycles=[240826] partitions=[22] workload=[\"41300ec200000000\"] makespan=240826 single=240826 emb=1500",
    "g2 cards=2: cycles=[119238, 121588] partitions=[9, 13] workload=[\"411f8abc00000000\", \"4120582600000000\"] makespan=121588 single=240826 emb=1500",
    "g2 cards=4: cycles=[60340, 63384, 55652, 61450] partitions=[7, 5, 4, 6] workload=[\"41103ee800000000\", \"41115d0000000000\", \"410cc30000000000\", \"41103da000000000\"] makespan=63384 single=240826 emb=1500",
];
