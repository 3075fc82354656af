//! Load generators: a closed loop and a sliding session window.
//!
//! Every generator drives `serve::FastService` through its public
//! `submit`/`wait` API, checks each session's count against the oracle,
//! and records wall-clock samples. Nothing here reads modelled time: a
//! `QueryReport::latency` folds in modelled device queueing and is never
//! used.

use crate::stats::cpu_seconds;
use crate::trace::Trace;
use serve::{FastService, QueryReport, ServeError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How load arrives at the service.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// `clients` callers, each submitting its next session only after the
    /// previous one returned.
    Closed { clients: usize },
    /// One load thread keeping `outstanding` sessions in flight with
    /// non-blocking `submit`, waiting on the oldest when the window is full.
    Window { outstanding: usize },
}

/// What the generators send: the query set, the oracle count per query,
/// and the seeded order in which queries are drawn.
pub struct Inputs<'a> {
    pub queries: &'a [graph_core::QueryGraph],
    pub expected: &'a [u64],
    pub sequence: &'a [usize],
    /// Sessions per block of `sequence`; a closed loop stops on a block
    /// boundary so every run serves the mix exactly.
    pub block: usize,
}

/// One completed session with the right count.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall seconds measured by the load generator from `submit` to the
    /// return of `wait`.
    pub latency: f64,
    /// Wall seconds the `submit` call took.
    pub submit: f64,
    pub queue_wait: f64,
    pub service: f64,
    pub plan: f64,
    pub build: f64,
    pub tier2_hit: bool,
    pub plan_hit: bool,
}

/// Samples a phase keeps. Past this many completions it keeps a uniform
/// random subset (reservoir sampling), so the benchmark's own memory does not
/// grow with throughput and show in the peak RSS the run reports.
const RESERVOIR: usize = 1 << 16;

#[derive(Debug, Default)]
pub struct Phase {
    /// Completed sessions with the right count, or a uniform subset of
    /// them once there are more than `RESERVOIR`.
    pub samples: Vec<Sample>,
    pub completed: u64,
    pub attempted: u64,
    /// Sessions that failed, were shed, or returned a wrong count.
    pub failed: u64,
    pub mismatched: u64,
    /// Wall seconds from the first submission to the last completion.
    pub wall: f64,
    /// Process CPU seconds spent over the phase.
    pub cpu: f64,
}

impl Phase {
    /// Merges a closed-loop client's phase; closed loops stay far below
    /// the reservoir, so their samples are simply pooled.
    fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.completed += other.completed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
    }

    fn record(
        &mut self,
        expected: u64,
        result: Result<QueryReport, ServeError>,
        latency: f64,
        submit: f64,
    ) {
        self.attempted += 1;
        let report = match result {
            Ok(r) if r.embeddings == expected => r,
            Ok(r) => {
                eprintln!(
                    "count mismatch: session {} returned {} embeddings, oracle {expected}",
                    r.id, r.embeddings
                );
                self.mismatched += 1;
                self.failed += 1;
                return;
            }
            Err(e) => {
                eprintln!("session failed: {e}");
                self.failed += 1;
                return;
            }
        };
        self.keep(Sample {
            latency,
            submit,
            queue_wait: report.queue_wait.as_secs_f64(),
            service: report.service_time.as_secs_f64(),
            plan: report.plan_time.as_secs_f64(),
            build: report.build_time.as_secs_f64(),
            tier2_hit: report.cst_cache_hit,
            plan_hit: report.cache_hit && !report.cst_cache_hit,
        });
    }

    fn keep(&mut self, sample: Sample) {
        self.completed += 1;
        if self.samples.len() < RESERVOIR {
            self.samples.push(sample);
            return;
        }
        // SplitMix64 of the completion count stands in for a random draw.
        let mut z = self.completed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let slot = ((z ^ (z >> 31)) % self.completed) as usize;
        if slot < RESERVOIR {
            self.samples[slot] = sample;
        }
    }
}

/// Runs `f` inside a span when tracing.
fn traced<T>(
    trace: Option<&Trace>,
    name: &'static str,
    parent: Option<usize>,
    session: u64,
    f: impl FnOnce() -> T,
) -> T {
    match trace {
        Some(tr) => tr.scope(name, parent, session, |_| f()),
        None => f(),
    }
}

/// A session sent to the service and not collected yet.
struct Sent {
    qi: usize,
    sid: u64,
    sent: Instant,
    submit: f64,
    root: Option<usize>,
    handle: serve::SessionHandle,
}

/// Sends session `k` of the sequence.
fn send(svc: &FastService, inputs: &Inputs<'_>, k: usize, trace: Option<&Trace>) -> Sent {
    let qi = inputs.sequence[k % inputs.sequence.len()];
    let sid = k as u64;
    let root = trace.map(|tr| tr.begin("serve.session", None, sid));
    let sent = Instant::now();
    let handle = traced(trace, "serve.submit", root, sid, || {
        svc.submit(inputs.queries[qi].clone())
    });
    Sent {
        qi,
        sid,
        sent,
        submit: sent.elapsed().as_secs_f64(),
        root,
        handle,
    }
}

impl Sent {
    /// Waits for the session, records it and returns when `wait` returned.
    fn collect(self, phase: &mut Phase, expected: &[u64], trace: Option<&Trace>) -> Instant {
        let result = traced(trace, "serve.wait", self.root, self.sid, || {
            self.handle.wait()
        });
        let done = Instant::now();
        if let (Some(tr), Some(id)) = (trace, self.root) {
            tr.end(id);
        }
        let latency = done.duration_since(self.sent).as_secs_f64();
        phase.record(expected[self.qi], result, latency, self.submit);
        done
    }
}

/// Drives `load` for `seconds`, then waits for every session sent.
pub fn drive(
    svc: &FastService,
    inputs: &Inputs<'_>,
    load: Load,
    seconds: f64,
    trace: Option<&Trace>,
) -> Phase {
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (mut phase, last_done) = match load {
        Load::Closed { clients } => closed(svc, inputs, clients, deadline, trace),
        Load::Window { outstanding } => window(svc, inputs, outstanding, deadline, trace),
    };
    phase.wall = last_done.duration_since(start).as_secs_f64();
    phase.cpu = cpu_seconds() - cpu0;
    phase
}

fn closed(
    svc: &FastService,
    inputs: &Inputs<'_>,
    clients: usize,
    deadline: Instant,
    trace: Option<&Trace>,
) -> (Phase, Instant) {
    let next = AtomicUsize::new(0);
    // The first session index past the deadline rounded up to a block
    // boundary: sessions below it are served, none from it on.
    let stop = AtomicUsize::new(usize::MAX);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut phase = Phase::default();
                    let mut last_done = deadline;
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if Instant::now() >= deadline {
                            stop.fetch_min(k.next_multiple_of(inputs.block), Ordering::Relaxed);
                        }
                        if k >= stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let s = send(svc, inputs, k, trace);
                        last_done = s.collect(&mut phase, inputs.expected, trace);
                    }
                    (phase, last_done)
                })
            })
            .collect();
        let mut total = Phase::default();
        let mut last_done = deadline;
        for w in workers {
            let (phase, done) = w.join().expect("client thread panicked");
            total.absorb(phase);
            last_done = last_done.max(done);
        }
        (total, last_done)
    })
}

fn window(
    svc: &FastService,
    inputs: &Inputs<'_>,
    outstanding: usize,
    deadline: Instant,
    trace: Option<&Trace>,
) -> (Phase, Instant) {
    let mut phase = Phase::default();
    let mut in_flight = VecDeque::with_capacity(outstanding);
    let mut last_done = deadline;
    let mut k = 0;
    while Instant::now() < deadline {
        if in_flight.len() == outstanding {
            let oldest: Sent = in_flight.pop_front().expect("full window");
            last_done = oldest.collect(&mut phase, inputs.expected, trace);
        }
        in_flight.push_back(send(svc, inputs, k, trace));
        k += 1;
    }
    for s in in_flight {
        last_done = s.collect(&mut phase, inputs.expected, trace);
    }
    (phase, last_done)
}
