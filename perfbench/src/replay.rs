//! Isolated layer replay for the traced run.
//!
//! One thread replays what a session does, calling each layer's public
//! functions in the order the service calls them and wrapping every call
//! in a span:
//!
//! * `graph_core.order` — `select_root`, `BfsTree::new`,
//!   `path_based_order`, `KernelPlan::new`;
//! * `cst.plan` — `root_candidates` + `plan_pipeline_shards` (skipped on a
//!   tier-2 replay, as in the service);
//! * `fast.prepare` — `prepare_partitions` (build + partition, or the
//!   tier-2 artifact's replay);
//! * `fast.kernel` — `FpgaBackend::run` per partition.
//!
//! The session span's self time is the residual the layer spans do not
//! cover.

use crate::load::Inputs;
use crate::trace::{self_times, Span, Trace};
use fast::{prepare_partitions, CollectMode, FastConfig, FpgaBackend, KernelPlan, PreparedCsts};
use graph_core::{path_based_order, select_root, BfsTree, Graph};
use std::sync::Arc;
use std::time::Duration;

/// Work counts of one replay pass. They depend only on the inputs, so
/// every pass of every run must produce the same values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub probe_entries: u64,
    pub build_entries: u64,
    pub partitions: u64,
    pub kernel_cycles: u64,
    /// `N + M`: partial results plus edge-validation tasks.
    pub kernel_tasks: u64,
    /// `N`: partial results generated (expansions).
    pub expansions: u64,
    /// Expansions rejected by visited or edge validation.
    pub rejections: u64,
}

/// Per-session layer times of one pass, in seconds, summed over the
/// pass's sessions.
#[derive(Debug, Clone, Default)]
pub struct PassTimes {
    pub sessions: usize,
    pub session: f64,
    pub order: f64,
    pub plan: f64,
    pub build: f64,
    pub partition: f64,
    pub kernel: f64,
    /// Per session: (query index, wall, residual) in seconds.
    pub per_session: Vec<(usize, f64, f64)>,
}

pub struct Pass {
    pub times: PassTimes,
    pub counters: Counters,
    /// Sessions whose count differed from the oracle.
    pub mismatched: u64,
}

/// Replays the input sequence once. `artifacts[qi]`, when present, is the tier-2
/// artifact the session replays instead of planning and building.
pub fn replay_pass(
    trace: &Trace,
    g: &Graph,
    config: &FastConfig,
    inputs: &Inputs<'_>,
    artifacts: Option<&[Arc<PreparedCsts>]>,
    session_base: u64,
) -> Pass {
    let backend = FpgaBackend::from_config(config);
    let mut counters = Counters::default();
    let mut mismatched = 0;
    let first_span = trace.len();
    let mut sessions = Vec::new();
    for (k, &qi) in inputs.sequence.iter().enumerate() {
        let q = &inputs.queries[qi];
        let sid = session_base + k as u64;
        let root = trace.begin("session", None, sid);
        let (tree, order, kernel_plan) = trace.scope("graph_core.order", Some(root), sid, |_| {
            let tree = BfsTree::new(q, select_root(q, g));
            let order = path_based_order(q, &tree, g);
            let kernel_plan = KernelPlan::new(q, &order, &tree).expect("benchmark query plans");
            (tree, order, kernel_plan)
        });
        let mut cfg = config.clone();
        match artifacts {
            Some(a) => cfg.prepared = Some(Arc::clone(&a[qi])),
            None => {
                let opts = cfg.pipeline_options(q.vertex_count());
                let plan = trace.scope("cst.plan", Some(root), sid, |_| {
                    let roots = cst::root_candidates(q, g, &tree, opts.cst);
                    cst::plan_pipeline_shards(q, g, &tree, &opts, &roots)
                });
                counters.probe_entries += plan.probe_entries as u64;
                cfg.shard_plan = Some(Arc::new(plan));
            }
        }
        let mut jobs = Vec::new();
        let prep = trace.scope("fast.prepare", Some(root), sid, |_| {
            prepare_partitions(q, g, &cfg, &tree, &order, &mut |job| jobs.push(job))
        });
        counters.build_entries += prep.build_entries as u64;
        counters.partitions += prep.partitions as u64;
        let mut embeddings = 0;
        for job in &jobs {
            let out = trace.scope("fast.kernel", Some(root), sid, |_| {
                backend.run(&job.cst, &kernel_plan, CollectMode::CountOnly)
            });
            embeddings += out.embeddings;
            counters.kernel_cycles += backend.price_cycles(out.counts);
            counters.kernel_tasks += out.counts.n + out.counts.m;
            counters.expansions += out.counts.n;
            counters.rejections += out.visited_rejections + out.edge_rejections;
        }
        trace.end(root);
        let expected = inputs.expected[qi];
        if embeddings != expected {
            eprintln!("replay count mismatch: q{qi} gave {embeddings}, oracle {expected}");
            mismatched += 1;
        }
        sessions.push((qi, prep.partition_time));
    }
    Pass {
        times: pass_times(&trace.spans_from(first_span), first_span, &sessions),
        counters,
        mismatched,
    }
}

/// Folds one pass's spans into layer times. Layer spans have no children,
/// so a session span's self time is its residual. `first` is the id of
/// the pass's first span; `sessions` holds each session's query and the
/// partitioning share `prepare_partitions` reported.
fn pass_times(spans: &[Span], first: usize, sessions: &[(usize, Duration)]) -> PassTimes {
    let mut t = PassTimes {
        sessions: sessions.len(),
        ..PassTimes::default()
    };
    let mut next = sessions.iter();
    for (s, own) in spans.iter().zip(self_times(spans, first)) {
        let d = (s.end_ns - s.start_ns) as f64 * 1e-9;
        match s.name {
            "session" => {
                let &(qi, partition) = next.next().expect("one entry per session");
                t.session += d;
                t.partition += partition.as_secs_f64();
                t.per_session.push((qi, d, own as f64 * 1e-9));
            }
            "graph_core.order" => t.order += d,
            "cst.plan" => t.plan += d,
            "fast.prepare" => t.build += d,
            "fast.kernel" => t.kernel += d,
            _ => {}
        }
    }
    // `prepare_partitions` reports the partitioning share of its own wall;
    // the rest of the call is the build.
    t.build -= t.partition;
    t
}
