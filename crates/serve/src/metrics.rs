//! Service-level metrics: the per-tenant `MetricsState` (the only
//! store of session metrics), the [`ServeReport`] derived from it, its
//! per-tenant [`TenantSummary`] slices, and the Prometheus text
//! rendering.
//!
//! Latency-shaped sample sets are held as streaming log-bucketed
//! [`obs::Histogram`]s rather than raw sample vectors: constant memory
//! regardless of session count, exact mergeable counters (so service
//! totals are the merge of the tenant states and rolling windows are
//! true deltas of the lifetime state), and nearest-rank quantiles read
//! straight from the bucket counts — one pass per report instead of one
//! sort per percentile call.

use crate::cache::CacheStats;
use crate::devices::{DeviceStats, HealthState};
use crate::tenant::TenantId;
use fast::BackendClass;
use obs::Histogram;
use std::time::Instant;

/// Nearest-rank percentile of an already **sorted** slice (`q` in
/// `[0, 1]`); 0.0 for an empty slice — the sort-once path for call
/// sites that need several quantiles of the same sample set.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize)
        .clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One tenant's session metrics. Every session outcome is folded into
/// exactly one of these (its tenant's); service-wide totals are the
/// [`merge`](Self::merge) of all of them, so a report's totals equal the
/// sum of its tenant slices by construction.
///
/// Histogram bucket counts are exact and mergeable, so
/// [`FastService::report_window`](crate::FastService::report_window)
/// deltas reconcile bit-exactly against the lifetime report on every
/// integer counter, and quantiles are read without any per-report sort.
#[derive(Debug, Default, Clone)]
pub(crate) struct MetricsState {
    pub(crate) submitted: u64,
    pub(crate) completed: u64,
    pub(crate) failed: u64,
    pub(crate) total_embeddings: u64,
    pub(crate) retries: u64,
    pub(crate) failovers: u64,
    pub(crate) corruption_catches: u64,
    pub(crate) deadline_misses: u64,
    pub(crate) degraded_sec: f64,
    pub(crate) latencies: Histogram,
    pub(crate) queue_waits: Histogram,
    pub(crate) device_queues: Histogram,
    pub(crate) plan_hits: Histogram,
    pub(crate) plan_misses: Histogram,
    pub(crate) build_hits: Histogram,
    pub(crate) build_misses: Histogram,
    pub(crate) first_submit: Option<Instant>,
    pub(crate) last_done: Option<Instant>,
}

impl MetricsState {
    /// Adds `other`'s counters and histogram buckets to `self`; the
    /// serving wall widens to span both (earliest submit, latest done).
    pub(crate) fn merge(&mut self, other: &MetricsState) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.total_embeddings += other.total_embeddings;
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.corruption_catches += other.corruption_catches;
        self.deadline_misses += other.deadline_misses;
        self.degraded_sec += other.degraded_sec;
        self.latencies.merge(&other.latencies);
        self.queue_waits.merge(&other.queue_waits);
        self.device_queues.merge(&other.device_queues);
        self.plan_hits.merge(&other.plan_hits);
        self.plan_misses.merge(&other.plan_misses);
        self.build_hits.merge(&other.build_hits);
        self.build_misses.merge(&other.build_misses);
        self.first_submit = self.first_submit.into_iter().chain(other.first_submit).min();
        self.last_done = self.last_done.max(other.last_done);
    }

    /// Counters accumulated since `base` was captured — the rolling-window
    /// delta. Integer counters and histogram bucket counts subtract
    /// exactly; the f64 sums (`degraded_sec`, histogram sums) subtract in
    /// floating point and are clamped non-negative.
    pub(crate) fn delta(&self, base: &MetricsState) -> MetricsState {
        MetricsState {
            submitted: self.submitted.saturating_sub(base.submitted),
            completed: self.completed.saturating_sub(base.completed),
            failed: self.failed.saturating_sub(base.failed),
            total_embeddings: self.total_embeddings.saturating_sub(base.total_embeddings),
            retries: self.retries.saturating_sub(base.retries),
            failovers: self.failovers.saturating_sub(base.failovers),
            corruption_catches: self
                .corruption_catches
                .saturating_sub(base.corruption_catches),
            deadline_misses: self.deadline_misses.saturating_sub(base.deadline_misses),
            degraded_sec: (self.degraded_sec - base.degraded_sec).max(0.0),
            latencies: self.latencies.delta(&base.latencies),
            queue_waits: self.queue_waits.delta(&base.queue_waits),
            device_queues: self.device_queues.delta(&base.device_queues),
            plan_hits: self.plan_hits.delta(&base.plan_hits),
            plan_misses: self.plan_misses.delta(&base.plan_misses),
            build_hits: self.build_hits.delta(&base.build_hits),
            build_misses: self.build_misses.delta(&base.build_misses),
            first_submit: self.first_submit,
            last_done: self.last_done,
        }
    }

    /// Serving wall: first submission → last completion (0 before any).
    pub(crate) fn wall_sec(&self) -> f64 {
        match (self.first_submit, self.last_done) {
            (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Completed sessions per second of serving wall. Degenerate walls
    /// never surface NaN/inf: a state with no completion has no wall at
    /// all, and a single session can complete within one clock tick
    /// (`wall == 0.0` with `completed > 0`). Both collapse to 0.
    pub(crate) fn qps(&self) -> f64 {
        let wall = self.wall_sec();
        if wall > 0.0 {
            self.completed as f64 / wall
        } else {
            0.0
        }
    }
}

/// Cumulative state captured in one pass over the service's locks — the
/// single input every report is derived from. A tenant's snapshot holds
/// its metrics and cache partitions; the service's is the
/// [`absorb`](Self::absorb) of every tenant's plus the pool and gate.
#[derive(Debug, Default, Clone)]
pub(crate) struct Snapshot {
    pub(crate) metrics: MetricsState,
    pub(crate) cache: CacheStats,
    pub(crate) cst_cache: CacheStats,
    /// Point-in-time.
    pub(crate) cst_resident_bytes: usize,
    /// Monotone counters plus point-in-time health and outstanding work.
    pub(crate) devices: Vec<DeviceStats>,
    /// Point-in-time.
    pub(crate) in_flight: usize,
    /// Lifetime high-water mark.
    pub(crate) max_in_flight: usize,
}

impl Snapshot {
    /// Folds a tenant's snapshot into the service-wide one.
    pub(crate) fn absorb(&mut self, tenant: &Snapshot) {
        self.metrics.merge(&tenant.metrics);
        self.cache.absorb(&tenant.cache);
        self.cst_cache.absorb(&tenant.cst_cache);
        self.cst_resident_bytes += tenant.cst_resident_bytes;
    }

    /// Monotone state accumulated since `base`; point-in-time fields are
    /// carried over from `self`.
    pub(crate) fn delta(&self, base: &Snapshot) -> Snapshot {
        Snapshot {
            metrics: self.metrics.delta(&base.metrics),
            cache: self.cache.delta(&base.cache),
            cst_cache: self.cst_cache.delta(&base.cst_cache),
            devices: self
                .devices
                .iter()
                .enumerate()
                .map(|(i, d)| base.devices.get(i).map_or(*d, |b| d.delta(b)))
                .collect(),
            cst_resident_bytes: self.cst_resident_bytes,
            in_flight: self.in_flight,
            max_in_flight: self.max_in_flight,
        }
    }
}

/// Fleet aggregates over a device-stats vector (lifetime counters for a
/// lifetime report, window deltas for a window report).
struct PoolView {
    makespan_sec: f64,
    busy_sec: f64,
    imbalance: f64,
}

impl PoolView {
    fn from_stats(stats: &[DeviceStats]) -> PoolView {
        let max = stats.iter().map(|d| d.total_workload).fold(0.0, f64::max);
        let mean = if stats.is_empty() {
            0.0
        } else {
            stats.iter().map(|d| d.total_workload).sum::<f64>() / stats.len() as f64
        };
        PoolView {
            makespan_sec: stats.iter().map(|d| d.busy_sec).fold(0.0, f64::max),
            busy_sec: stats.iter().map(|d| d.busy_sec).sum(),
            imbalance: if mean == 0.0 { 1.0 } else { max / mean },
        }
    }
}

/// Identifies a rolling-window report (see
/// [`FastService::report_window`](crate::FastService::report_window)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowInfo {
    /// Window sequence number: 0 for the first window after service
    /// start, incrementing on every `report_window` call.
    pub seq: u64,
    /// Wall seconds the window spans (previous `report_window` call —
    /// or service start — to this one).
    pub wall_sec: f64,
}

/// Aggregate view of a service's lifetime (or a rolling window of it):
/// produced by [`FastService::report`](crate::FastService::report),
/// [`FastService::report_window`](crate::FastService::report_window) and
/// [`FastService::shutdown`](crate::FastService::shutdown).
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// `None` for a lifetime report; window identity for a delta report.
    pub window: Option<WindowInfo>,
    /// Sessions admitted.
    pub submitted: u64,
    /// Sessions completed successfully.
    pub completed: u64,
    /// Sessions that failed (e.g. query exceeds the kernel register budget,
    /// or a partition exhausted its retry budget).
    pub failed: u64,
    /// Sessions shed past their deadline
    /// ([`ServeError::DeadlineExceeded`](crate::ServeError::DeadlineExceeded));
    /// counted separately from
    /// [`failed`](Self::failed) — a shed session was dropped by policy,
    /// not broken.
    pub deadline_misses: u64,
    /// Failed execution attempts that were retried on another admission.
    /// Reconciles exactly against Σ `DeviceStats::failures` over
    /// [`devices`](Self::devices) — every device failure is retried
    /// exactly once (the exactly-once accounting the chaos tests assert).
    pub retries: u64,
    /// Retries that rerouted to a *different* device than the one that
    /// failed.
    pub failovers: u64,
    /// Times any device entered quarantine (Σ `DeviceStats::quarantines`).
    pub quarantines: u64,
    /// Corrupted outputs the cross-check caught and outvoted
    /// (Σ `DeviceStats::corruptions` as attributed by the service).
    pub corruption_catches: u64,
    /// Wall seconds spent executing on the emergency CPU fallback because
    /// the whole pool was quarantined or evicted (degraded mode).
    pub degraded_sec: f64,
    /// Total embeddings across completed sessions.
    pub total_embeddings: u64,
    /// Tier-1 plan-cache counters (hit rate, evictions).
    pub cache: CacheStats,
    /// Tier-2 shard-CST cache counters (hit rate, evictions, rejections).
    pub cst_cache: CacheStats,
    /// Resident payload bytes across every tenant's tier-2 partition at
    /// report time — always ≤ the sum of configured byte budgets.
    pub cst_resident_bytes: usize,
    /// Sustained throughput: completed sessions per second of serving wall
    /// time (first submission → last completion; for a window report, the
    /// window wall).
    pub qps: f64,
    /// Serving wall time the QPS is normalised by.
    pub wall_sec: f64,
    /// Session latency distribution (seconds): measured submit→done wall
    /// **plus** each session's modelled device queueing delay
    /// (`QueryReport::device_queue_sec`) — device-faithful at high
    /// concurrency, where the inline emulated kernels hide the contention
    /// on the modelled cards. Bucket counts are exact and mergeable;
    /// quantiles below read from it (bucket-midpoint representatives,
    /// ≤ ~6% relative error by construction).
    pub latency_hist: Histogram,
    /// Admission-queue wait distribution (seconds): submit → worker pickup.
    pub queue_wait_hist: Histogram,
    /// Modelled device queueing delay distribution (seconds): per session,
    /// the worst outstanding booked work its partitions joined behind at
    /// admission (`DevicePool::admit`). The component of the latency
    /// distribution above that the host wall cannot see.
    pub device_queue_hist: Histogram,
    /// Session latency quantiles/mean (seconds), read from
    /// [`latency_hist`](Self::latency_hist).
    pub latency_p50: f64,
    pub latency_p99: f64,
    pub latency_mean: f64,
    /// Admission-queue wait quantiles (seconds), read from
    /// [`queue_wait_hist`](Self::queue_wait_hist).
    pub queue_wait_p50: f64,
    pub queue_wait_p99: f64,
    /// Device queueing delay quantiles/mean (seconds), read from
    /// [`device_queue_hist`](Self::device_queue_hist).
    pub device_queue_p50: f64,
    pub device_queue_p99: f64,
    pub device_queue_mean: f64,
    /// Mean shard-planning wall per session, split by cache outcome. A
    /// working cache shows `plan_hit_mean_sec` ≈ 0.
    pub plan_hit_mean_sec: f64,
    pub plan_miss_mean_sec: f64,
    /// Mean CST build wall per session (refinement + materialisation +
    /// partitioning), split by tier-2 outcome: a warm serve builds nothing,
    /// so `build_hit_mean_sec` is exactly 0 — the timing claim the
    /// `cstcache` figure asserts.
    pub build_hit_mean_sec: f64,
    pub build_miss_mean_sec: f64,
    /// Per-device counters (partitions, modelled cycles, booked workload).
    /// In a window report the monotone counters are deltas over the
    /// window; `outstanding_workload` and `health` are point-in-time.
    pub devices: Vec<DeviceStats>,
    /// The busiest device's modelled execution seconds.
    pub device_makespan_sec: f64,
    /// Total modelled device-seconds across the pool.
    pub device_busy_sec: f64,
    /// Max/mean booked workload across devices (1.0 = perfectly balanced).
    pub device_imbalance: f64,
    /// High-water mark of concurrently admitted sessions (lifetime, even
    /// in window reports).
    pub max_in_flight: usize,
    /// Sessions holding an execution permit at report time
    /// (point-in-time, also in window reports).
    pub in_flight: usize,
    /// Per-tenant slices, ordered by tenant id (the default tenant first).
    /// Empty in window reports — windows slice time, not tenants.
    pub tenants: Vec<TenantSummary>,
}

/// One tenant's slice of the service report.
#[derive(Debug, Clone)]
pub struct TenantSummary {
    /// The tenant the slice describes.
    pub tenant: TenantId,
    /// Fair-share weight of the admission round-robin.
    pub quota: u32,
    /// Current graph epoch (bumps invalidate the tenant's cached plans).
    pub epoch: u64,
    /// Sessions this tenant submitted.
    pub submitted: u64,
    /// Sessions completed for this tenant.
    pub completed: u64,
    /// Sessions failed for this tenant.
    pub failed: u64,
    /// Sessions of this tenant shed past their deadline.
    pub deadline_misses: u64,
    /// Failed execution attempts retried on this tenant's behalf.
    pub retries: u64,
    /// Retries that rerouted to a different device.
    pub failovers: u64,
    /// Corrupted outputs the cross-check caught for this tenant.
    pub corruption_catches: u64,
    /// Wall seconds this tenant's sessions spent on the CPU fallback.
    pub degraded_sec: f64,
    /// Embeddings across the tenant's completed sessions.
    pub total_embeddings: u64,
    /// Completed sessions per second of the tenant's serving wall (its own
    /// first submission → its own last completion).
    pub qps: f64,
    /// Tenant latency quantiles (seconds), same definition as the
    /// service-wide ones (histogram nearest-rank, no per-report sort).
    pub latency_p50: f64,
    pub latency_p99: f64,
    /// Hit rate of the tenant's plan-cache partition.
    pub hit_rate: f64,
    /// Hit rate of the tenant's tier-2 shard-CST cache partition.
    pub cst_hit_rate: f64,
    /// Resident payload bytes of the tenant's tier-2 partition.
    pub cst_resident_bytes: usize,
}

impl ServeReport {
    /// Derives a report from a snapshot: counters copy over, quantiles
    /// and means read from the histograms (which are kept on the report
    /// so window deltas and exports can reuse the exact bucket counts),
    /// and the fleet aggregates come from the device stats.
    pub(crate) fn from_snapshot(s: &Snapshot, tenants: Vec<TenantSummary>) -> ServeReport {
        let m = &s.metrics;
        let pool = PoolView::from_stats(&s.devices);
        let report = ServeReport {
            window: None,
            submitted: m.submitted,
            completed: m.completed,
            failed: m.failed,
            deadline_misses: m.deadline_misses,
            retries: m.retries,
            failovers: m.failovers,
            // Quarantines live on the devices, not the sessions: the pool
            // snapshot is their ground truth.
            quarantines: s.devices.iter().map(|d| d.quarantines).sum(),
            corruption_catches: m.corruption_catches,
            degraded_sec: m.degraded_sec,
            total_embeddings: m.total_embeddings,
            cache: s.cache,
            cst_cache: s.cst_cache,
            cst_resident_bytes: s.cst_resident_bytes,
            qps: m.qps(),
            wall_sec: m.wall_sec(),
            latency_p50: m.latencies.quantile(0.50),
            latency_p99: m.latencies.quantile(0.99),
            latency_mean: m.latencies.mean(),
            queue_wait_p50: m.queue_waits.quantile(0.50),
            queue_wait_p99: m.queue_waits.quantile(0.99),
            device_queue_p50: m.device_queues.quantile(0.50),
            device_queue_p99: m.device_queues.quantile(0.99),
            device_queue_mean: m.device_queues.mean(),
            plan_hit_mean_sec: m.plan_hits.mean(),
            plan_miss_mean_sec: m.plan_misses.mean(),
            build_hit_mean_sec: m.build_hits.mean(),
            build_miss_mean_sec: m.build_misses.mean(),
            latency_hist: m.latencies.clone(),
            queue_wait_hist: m.queue_waits.clone(),
            device_queue_hist: m.device_queues.clone(),
            devices: s.devices.clone(),
            device_makespan_sec: pool.makespan_sec,
            device_busy_sec: pool.busy_sec,
            device_imbalance: pool.imbalance,
            max_in_flight: s.max_in_flight,
            in_flight: s.in_flight,
            tenants,
        };
        debug_assert!(report.is_finite(), "report must never surface NaN/inf");
        report
    }

    /// Whether every derived rate/percentile field is finite — the
    /// degenerate-report guard (zero wall, empty sample sets, idle
    /// devices must all surface zeros, never NaN/inf).
    pub fn is_finite(&self) -> bool {
        [
            self.qps,
            self.wall_sec,
            self.latency_p50,
            self.latency_p99,
            self.latency_mean,
            self.queue_wait_p50,
            self.queue_wait_p99,
            self.device_queue_p50,
            self.device_queue_p99,
            self.device_queue_mean,
            self.plan_hit_mean_sec,
            self.plan_miss_mean_sec,
            self.build_hit_mean_sec,
            self.build_miss_mean_sec,
            self.device_makespan_sec,
            self.device_busy_sec,
            self.device_imbalance,
            self.degraded_sec,
            self.cache.hit_rate(),
            self.cst_cache.hit_rate(),
            self.latency_hist.mean(),
            self.latency_hist.sum(),
            self.queue_wait_hist.mean(),
            self.queue_wait_hist.sum(),
            self.device_queue_hist.mean(),
            self.device_queue_hist.sum(),
            self.window.map_or(0.0, |w| w.wall_sec),
        ]
        .iter()
        .all(|v| v.is_finite())
    }

    /// Renders the report as Prometheus text exposition lines: the
    /// `serve_*` families, one name per quantity, plus a cumulative
    /// latency histogram. This is the whole service-level exposition
    /// ([`FastService::prometheus_text`](crate::FastService::prometheus_text)),
    /// so two services in one process never export each other's sessions.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut c = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        c("serve_sessions_submitted_total", "Sessions admitted", self.submitted);
        c("serve_sessions_completed_total", "Sessions completed", self.completed);
        c("serve_sessions_failed_total", "Sessions failed", self.failed);
        c(
            "serve_deadline_misses_total",
            "Sessions shed past their deadline",
            self.deadline_misses,
        );
        c("serve_retries_total", "Failed attempts retried", self.retries);
        c(
            "serve_failovers_total",
            "Retries rerouted to a different device",
            self.failovers,
        );
        c(
            "serve_quarantines_total",
            "Device quarantine entries",
            self.quarantines,
        );
        c(
            "serve_corruption_catches_total",
            "Corrupted outputs outvoted by the cross-check",
            self.corruption_catches,
        );
        c(
            "serve_embeddings_total",
            "Embeddings across completed sessions",
            self.total_embeddings,
        );
        c("serve_plan_cache_hits_total", "Tier-1 plan cache hits", self.cache.hits);
        c(
            "serve_plan_cache_misses_total",
            "Tier-1 plan cache misses",
            self.cache.misses,
        );
        c(
            "serve_cst_cache_hits_total",
            "Tier-2 shard-CST cache hits",
            self.cst_cache.hits,
        );
        c(
            "serve_cst_cache_misses_total",
            "Tier-2 shard-CST cache misses",
            self.cst_cache.misses,
        );
        c(
            "serve_device_evictions_total",
            "Devices permanently evicted from the pool",
            self.devices
                .iter()
                .filter(|d| d.health == HealthState::Evicted)
                .count() as u64,
        );
        let partitions = |class: BackendClass| -> u64 {
            self.devices
                .iter()
                .filter(|d| d.class == class)
                .map(|d| d.partitions)
                .sum()
        };
        let name = "serve_partitions_total";
        out.push_str(&format!(
            "# HELP {name} Partitions executed on pool devices, by backend\n\
             # TYPE {name} counter\n\
             {name}{{backend=\"fpga\"}} {}\n\
             {name}{{backend=\"cpu\"}} {}\n",
            partitions(BackendClass::Fpga),
            partitions(BackendClass::Cpu),
        ));
        let mut g = |name: &str, help: &str, v: f64| {
            let v = if v.is_finite() { v } else { 0.0 };
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        g("serve_qps", "Completed sessions per second of serving wall", self.qps);
        g(
            "serve_degraded_seconds",
            "Wall seconds on the CPU fallback",
            self.degraded_sec,
        );
        g(
            "serve_cst_resident_bytes",
            "Resident tier-2 payload bytes",
            self.cst_resident_bytes as f64,
        );
        g(
            "serve_max_in_flight",
            "High-water mark of concurrent sessions",
            self.max_in_flight as f64,
        );
        g(
            "serve_in_flight",
            "Sessions holding an execution permit",
            self.in_flight as f64,
        );
        // Cumulative Prometheus histogram of session latency.
        let name = "serve_latency_seconds";
        out.push_str(&format!(
            "# HELP {name} Session latency (submit to done plus modelled device queueing)\n\
             # TYPE {name} histogram\n"
        ));
        for (le, cum) in self.latency_hist.cumulative() {
            let le = if le.is_finite() {
                format!("{le}")
            } else {
                "+Inf".to_string()
            };
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
        }
        let sum = self.latency_hist.sum();
        let sum = if sum.is_finite() { sum } else { 0.0 };
        out.push_str(&format!("{name}_sum {sum}\n"));
        out.push_str(&format!("{name}_count {}\n", self.latency_hist.count()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        // Unsorted input is sorted once by the caller.
        let mut u = [3.0, 1.0, 2.0];
        u.sort_by(f64::total_cmp);
        assert_eq!(percentile_sorted(&u, 0.5), 2.0);
    }

    fn hist_of(samples: &[f64]) -> Histogram {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    #[test]
    fn aggregate_fills_fields() {
        let s = Snapshot {
            metrics: MetricsState {
                latencies: hist_of(&[1.0, 2.0, 3.0]),
                queue_waits: hist_of(&[0.5]),
                device_queues: hist_of(&[0.1, 0.3]),
                plan_hits: hist_of(&[0.0, 0.0]),
                plan_misses: hist_of(&[1.0]),
                build_hits: hist_of(&[0.0]),
                build_misses: hist_of(&[2.0, 4.0]),
                ..MetricsState::default()
            },
            ..Snapshot::default()
        };
        let r = ServeReport::from_snapshot(&s, Vec::new());
        // Histogram quantiles are bucket-midpoint representatives:
        // assert within the documented ~6% relative error.
        let close = |got: f64, want: f64| (got - want).abs() <= 0.07 * want.max(1e-9);
        assert!(close(r.latency_p50, 2.0), "p50 {}", r.latency_p50);
        assert!((r.latency_mean - 2.0).abs() < 1e-12);
        assert!(close(r.queue_wait_p99, 0.5), "qw p99 {}", r.queue_wait_p99);
        assert!(close(r.device_queue_p99, 0.3), "dq p99 {}", r.device_queue_p99);
        assert!((r.device_queue_mean - 0.2).abs() < 1e-12);
        assert_eq!(r.plan_hit_mean_sec, 0.0);
        assert_eq!(r.plan_miss_mean_sec, 1.0);
        assert_eq!(r.build_hit_mean_sec, 0.0);
        assert_eq!(r.build_miss_mean_sec, 3.0);
        assert_eq!(r.latency_hist.count(), 3);
        assert!(r.is_finite());
    }

    #[test]
    fn empty_aggregate_is_finite() {
        let mut r = ServeReport::from_snapshot(&Snapshot::default(), Vec::new());
        assert!(r.is_finite());
        assert_eq!(r.latency_p99, 0.0);
        assert_eq!(r.device_queue_p50, 0.0);
        assert_eq!(r.device_imbalance, 1.0, "idle pool is balanced by definition");
        r.window = Some(WindowInfo { seq: 3, wall_sec: 0.0 });
        assert!(r.is_finite());
    }

    #[test]
    fn merge_sums_counters_and_spans_walls() {
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_secs(1);
        let t2 = t0 + std::time::Duration::from_secs(2);
        let a = MetricsState {
            submitted: 2,
            completed: 1,
            latencies: hist_of(&[0.1]),
            first_submit: Some(t1),
            last_done: Some(t1),
            ..MetricsState::default()
        };
        let b = MetricsState {
            submitted: 3,
            completed: 3,
            latencies: hist_of(&[0.2, 0.3, 0.4]),
            first_submit: Some(t0),
            last_done: Some(t2),
            ..MetricsState::default()
        };
        let mut m = MetricsState::default();
        m.merge(&a);
        m.merge(&b);
        assert_eq!((m.submitted, m.completed), (5, 4));
        assert_eq!(m.latencies.count(), 4);
        assert_eq!((m.first_submit, m.last_done), (Some(t0), Some(t2)));
        assert_eq!(m.wall_sec(), 2.0);
        assert_eq!(m.qps(), 2.0);
        // A lone instantaneous session has zero wall: QPS 0, not inf.
        assert_eq!(a.qps(), 0.0);
        assert_eq!(m.delta(&m).submitted, 0);
    }

    #[test]
    fn prometheus_text_renders_counters_and_histogram() {
        let s = Snapshot {
            metrics: MetricsState {
                submitted: 5,
                completed: 4,
                latencies: hist_of(&[0.001, 0.002, 0.004]),
                ..MetricsState::default()
            },
            ..Snapshot::default()
        };
        let text = ServeReport::from_snapshot(&s, Vec::new()).prometheus_text();
        assert!(text.contains("serve_sessions_submitted_total 5"));
        assert!(text.contains("# TYPE serve_latency_seconds histogram"));
        assert!(text.contains("serve_latency_seconds_count 3"));
        assert!(text.contains("le=\"+Inf\""));
        // Every line is a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split_whitespace().count() == 2,
                "malformed line: {line}"
            );
        }
    }
}
