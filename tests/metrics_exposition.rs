//! The Prometheus exposition is derived from one store: every quantity is
//! exported under exactly one metric family with one help text, and a
//! service exports its own sessions only — even with a second service
//! running in the same process.

use fast::{FastConfig, FaultPlan, ShardPlanner, Variant};
use graph_core::generators::random_labelled_graph;
use graph_core::{Label, QueryGraph};
use serve::{DeviceKind, FastService, FaultPolicy, HealthState, ServeConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A faulty card first in line (dispatch ties go to the lowest index)
/// that dies on its first call: the failed attempt retries, fails over to
/// the healthy card, and evicts it.
fn config() -> ServeConfig {
    let mut fast = FastConfig::test_small(Variant::Sep);
    fast.shard_planner = ShardPlanner::Auto;
    let fpga = DeviceKind::Fpga(fast.spec.clone());
    ServeConfig {
        fast,
        devices: 0,
        extra_devices: vec![
            DeviceKind::Faulty {
                inner: Box::new(fpga.clone()),
                plan: FaultPlan {
                    permanent_after: Some(0),
                    ..FaultPlan::default()
                },
            },
            fpga,
        ],
        workers: 1,
        max_in_flight: 4,
        fault: FaultPolicy {
            backoff: Duration::ZERO,
            ..FaultPolicy::default()
        },
        ..ServeConfig::default()
    }
}

fn triangle() -> QueryGraph {
    QueryGraph::new(
        vec![Label::new(0), Label::new(1), Label::new(1)],
        &[(0, 1), (1, 2), (0, 2)],
    )
    .unwrap()
}

/// Asserts every family is declared once with a help text no other family
/// shares, and returns every sample value keyed by name and labels.
fn parse_exposition(text: &str) -> HashMap<String, f64> {
    let mut families: HashMap<&str, usize> = HashMap::new();
    let mut helps: HashMap<&str, usize> = HashMap::new();
    let mut samples = HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split_whitespace().next().unwrap();
            *families.entry(name).or_default() += 1;
        } else if let Some(rest) = line.strip_prefix("# HELP ") {
            let (_, help) = rest.split_once(' ').unwrap();
            *helps.entry(help).or_default() += 1;
        } else {
            let (name, value) = line.split_once(' ').unwrap();
            samples.insert(name.to_string(), value.parse().unwrap());
        }
    }
    for (name, n) in &families {
        assert_eq!(*n, 1, "metric family {name} exported {n} times:\n{text}");
    }
    for (help, n) in &helps {
        assert_eq!(*n, 1, "help text {help:?} used by {n} families:\n{text}");
    }
    assert_eq!(families.len(), helps.len(), "every family carries one help text");
    samples
}

#[test]
fn each_quantity_has_one_name_and_one_service() {
    let g = Arc::new(random_labelled_graph(60, 0.2, 2, 42));
    let a = FastService::new(Arc::clone(&g), config());
    let b = FastService::new(Arc::clone(&g), config());
    let serve = |s: &FastService, n: usize| {
        for h in (0..n).map(|_| s.submit(triangle())).collect::<Vec<_>>() {
            h.wait().expect("a healthy card remains");
        }
    };
    serve(&a, 6);
    serve(&b, 3);

    for (service, sessions) in [(&a, 6), (&b, 3)] {
        let report = service.report();
        assert_eq!(report.completed, sessions);
        assert!(report.retries > 0 && report.failovers > 0, "{report:?}");
        assert_eq!(report.devices[0].health, HealthState::Evicted);

        let samples = parse_exposition(&service.prometheus_text());
        let value = |name: &str| samples[name];
        assert_eq!(
            value("serve_sessions_completed_total"),
            report.completed as f64,
            "a service exports its own sessions only"
        );
        assert_eq!(value("serve_retries_total"), report.retries as f64);
        assert_eq!(value("serve_device_evictions_total"), 1.0);
        let partitions: u64 = report.devices.iter().map(|d| d.partitions).sum();
        assert_eq!(
            value("serve_partitions_total{backend=\"fpga\"}"),
            partitions as f64
        );
        assert_eq!(value("serve_partitions_total{backend=\"cpu\"}"), 0.0);
        // A waiter can wake before its session releases its permit.
        assert!(value("serve_in_flight") <= value("serve_max_in_flight"));
    }
    a.shutdown();
    b.shutdown();
}
