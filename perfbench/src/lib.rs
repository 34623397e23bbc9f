//! End-to-end and per-layer benchmark of the clustered-VLIW modulo-scheduling
//! pipeline.
//!
//! Three workloads, each a closed loop with one client on one thread:
//!
//! | workload | jobs | dominant layer |
//! |----------|------|----------------|
//! | `fig8_sweep` | (loop, cell) jobs of the paper's Figure-8 grid through `vliw_bench::schedule_loop`, then IPC and code-size accounting | `sched` on large unrolled bodies |
//! | `ladder_stream` | fuzz cases through `ResilientScheduler` under a tight per-rung fuel budget, then a `vliw_sim` replay | per-loop fixed costs, ladder descents |
//! | `audit_campaign` | fuzz cases through `vliw_verify::check_case` | the exact solver |
//!
//! A run builds its inputs from the seed (repeated in-process, the median
//! reported as `setup_s`), times passes over the job list for the requested
//! window, checks every output outside the timed calls, and reports the
//! end-to-end metrics — or, in trace mode, the per-layer metrics from spans
//! the benchmark records around its own calls into each crate.

#![forbid(unsafe_code)]

pub mod audit;
pub mod fig8;
pub mod ladder;
pub mod runner;
pub mod stats;
pub mod tally;
pub mod trace;

use runner::{measure, Measurement, Workload};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// SplitMix64: a small seeded generator for shuffling job lists.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Figure-8 grid.
    Fig8Sweep,
    /// Fuzz cases through the degradation ladder.
    LadderStream,
    /// Fuzz cases through the six-oracle case check.
    AuditCampaign,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 3] = [Kind::Fig8Sweep, Kind::LadderStream, Kind::AuditCampaign];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig8Sweep => "fig8_sweep",
            Kind::LadderStream => "ladder_stream",
            Kind::AuditCampaign => "audit_campaign",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// How many times set-up runs in-process; its median is `setup_s`.
    fn setup_reps(self) -> usize {
        match self {
            Kind::Fig8Sweep => 15,
            Kind::LadderStream => 7,
            Kind::AuditCampaign => 9,
        }
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub window: Duration,
    /// Report per-layer metrics from a traced pass instead of end-to-end ones.
    pub trace: bool,
    /// Cap on the jobs in one pass (tests use a handful); `None` for the
    /// benchmark's own sizes.
    pub jobs: Option<usize>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The outcome of a run.
#[derive(Debug)]
pub struct Report {
    /// Timed job executions.
    pub attempted: usize,
    /// Checker failures and drifts, described.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable detail: provenance, the tail rule and, when traced,
    /// the "where the time goes" table.
    pub detail: String,
}

impl Report {
    /// Whether every output passed its checks.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len()
        )
    }
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM reported in kB");
    kb / 1024.0
}

/// Busy-spin until the processor runs at a steady speed.
///
/// A vCPU that was idle runs slower for up to a second or so after it wakes;
/// timed set-up would otherwise land in that ramp.  Spins fixed-size chunks
/// until the last [`SPIN_WINDOW`] agree within 3% (at least 0.5 s, at most 3 s).
pub fn spin_up() {
    let start = Instant::now();
    let mut rng = SplitMix::new(0);
    let mut chunks: Vec<f64> = Vec::new();
    loop {
        let t = Instant::now();
        let mut x = 0u64;
        for _ in 0..200_000 {
            x ^= rng.next_u64();
        }
        std::hint::black_box(x);
        chunks.push(t.elapsed().as_secs_f64());
        let elapsed = start.elapsed().as_secs_f64();
        let recent = &chunks[chunks.len().saturating_sub(SPIN_WINDOW)..];
        let (lo, hi) = recent
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        let steady = recent.len() == SPIN_WINDOW && hi <= 1.03 * lo;
        if elapsed >= 3.0 || (elapsed >= 0.5 && steady) {
            return;
        }
    }
}

/// Chunks of [`spin_up`] that must agree.
const SPIN_WINDOW: usize = 20;

/// Run the configured workload.
pub fn run(cfg: &Config) -> Report {
    let seed = cfg.seed;
    match cfg.kind {
        Kind::Fig8Sweep => bench(cfg, || fig8::Fig8::setup(seed, cfg.jobs)),
        Kind::LadderStream => bench(cfg, || {
            ladder::Ladder::setup(seed, cfg.jobs.unwrap_or(ladder::CASES))
        }),
        Kind::AuditCampaign => bench(cfg, || {
            audit::Audit::setup(seed, cfg.jobs.unwrap_or(audit::CASES))
        }),
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

fn bench<W: Workload>(cfg: &Config, setup: impl Fn() -> (W, f64)) -> Report {
    let mut setup_s = Vec::new();
    let mut generate_ms = Vec::new();
    let mut inputs = None;
    for _ in 0..cfg.kind.setup_reps() {
        // Drop the previous repetition's inputs first, so every repetition
        // allocates into the same heap state.
        drop(inputs.take());
        let start = Instant::now();
        let (w, gen) = setup();
        setup_s.push(start.elapsed().as_secs_f64());
        generate_ms.push(gen);
        inputs = Some(w);
    }
    let w = inputs.expect("at least one set-up repetition");
    let m = measure(&w, cfg.window, cfg.trace);

    let mut sorted = m.job_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    let tail = stats::tail(&sorted);
    let busy_ms: f64 = m.job_ms.iter().sum();
    let t = &m.tally;

    let mut detail = String::new();
    let _ = writeln!(
        detail,
        "{}: seed {}, {} jobs/pass, {} passes, {} timed runs, tail = p{} with {} of {} jobs beyond, \
         one client thread, available_parallelism {}",
        cfg.kind.name(),
        cfg.seed,
        w.jobs(),
        m.passes,
        m.untraced_runs,
        tail.percentile,
        tail.beyond,
        sorted.len(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let passes: Vec<String> = m
        .pass_busy
        .iter()
        .map(|(jobs, ms)| format!("{jobs} jobs in {ms:.1} ms"))
        .collect();
    let _ = writeln!(detail, "untraced passes: {}", passes.join(", "));
    let reps: Vec<String> = setup_s.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
    let _ = writeln!(detail, "set-up repetitions (ms): {}", reps.join(", "));
    let mut failures = m.failures.clone();
    let metrics = if cfg.trace {
        per_layer(
            &m,
            tail,
            stats::median(&generate_ms),
            &mut detail,
            &mut failures,
        )
    } else {
        vec![
            metric("setup_s", stats::median(&setup_s), "s"),
            metric("loops_per_s", 1e3 * sorted.len() as f64 / busy_ms, "1/s"),
            metric("latency_p50_ms", stats::median(&sorted), "ms"),
            metric("latency_tail_ms", tail.value, "ms"),
            metric("ipc", t.ipc(), "ops/cycle"),
            metric("slots_per_op", t.slots_per_op(), "slots/op"),
            metric("mii_frac", t.mii_frac(), "fraction"),
            metric("ok_frac", t.ok_frac(), "fraction"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    };
    Report {
        attempted: m.untraced_runs + m.traced.as_ref().map_or(0, |t| t.runs),
        failures,
        metrics,
        detail,
    }
}

/// Least share of a traced pass's wall time that spans must cover.
pub const MIN_COVERAGE: f64 = 0.95;

/// Span names whose self time is reported, with their metric names.
const LAYER_TIMES: [(&str, &str); 11] = [
    ("sched.bsa", "sched.bsa_us"),
    ("sched.ne", "sched.ne_us"),
    ("sched.unified", "sched.unified_us"),
    ("sched.rr", "sched.rr_us"),
    ("sched.lb", "sched.lb_us"),
    ("sched.ladder", "sched.ladder_us"),
    ("ddg.unroll", "ddg.unroll_us"),
    ("lint.solve", "lint.solve_us"),
    ("sim.replay", "sim.replay_us"),
    ("verify.audit", "verify.audit_us"),
    ("metrics.account", "metrics.account_us"),
];

/// Winning ladder rungs, in descent order.
const RUNGS: [&str; 4] = ["bsa", "unified-sms", "load-balanced", "sequential"];

fn per_layer(
    m: &Measurement,
    tail: stats::Tail,
    generate_ms: f64,
    detail: &mut String,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let traced = m.traced.as_ref().expect("trace mode records a traced pass");
    let b = &traced.breakdown;
    detail.push_str(&b.table("traced passes"));
    if b.coverage() < MIN_COVERAGE {
        failures.push(format!(
            "spans cover {:.2}% of traced wall time, below {:.0}%",
            100.0 * b.coverage(),
            100.0 * MIN_COVERAGE
        ));
    }
    let t = &m.tally;
    let runs = traced.runs as f64;
    let mut out = vec![metric("workloads.generate_ms", generate_ms, "ms")];
    for (span, name) in LAYER_TIMES {
        out.push(metric(name, b.self_ns(span) as f64 / 1e3 / runs, "us/loop"));
    }
    out.extend([
        metric("ddg.kernel_nodes", t.kernel_nodes(), "nodes"),
        metric("core.unrolled_frac", t.share(t.unrolled), "fraction"),
        metric("core.descent_frac", t.share(t.descents), "fraction"),
        metric("core.typed_failures", t.typed_failures as f64, "count"),
    ]);
    for rung in RUNGS {
        let n = t.rungs.get(rung).copied().unwrap_or(0);
        out.push(metric(&format!("core.rung.{rung}"), n as f64, "count"));
    }
    let untraced_ms: f64 = m.job_ms.iter().sum();
    let traced_ms: f64 = traced.job_ms.iter().sum();
    out.extend([
        metric("sms.probes", t.probes as f64, "count"),
        metric("sms.attempts", t.attempts as f64, "count"),
        metric("sms.ii_steps", t.ii_steps as f64, "count"),
        metric("sms.first_try_frac", t.first_try_frac(), "fraction"),
        metric("sms.comms", t.comms as f64, "count"),
        metric("lint.solver_probes", t.solver_probes as f64, "count"),
        metric("lint.exact_frac", t.exact_frac(), "fraction"),
        metric(
            "bench.self_frac",
            b.self_ns("bench") as f64 / b.wall_ns as f64,
            "fraction",
        ),
        metric("bench.span_coverage", b.coverage(), "fraction"),
        metric("bench.trace_overhead", traced_ms / untraced_ms, "x"),
        metric("bench.tail_percentile", f64::from(tail.percentile), "pct"),
        metric("bench.tail_beyond", tail.beyond as f64, "count"),
        metric("bench.jobs", m.job_ms.len() as f64, "count"),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffling_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        SplitMix::new(8).shuffle(&mut c);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let r = Report {
            attempted: 3,
            failures: vec![],
            metrics: vec![
                metric("latency_p50_ms", 1.25, "ms"),
                metric("ipc", 2.0, "ops/cycle"),
            ],
            detail: String::new(),
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"ipc\": {\"value\": 2, \"unit\": \"ops/cycle\"}}}"
        );
    }
}
