//! The closed-loop runner shared by every workload.
//!
//! One client, one thread: job `j + 1` starts when job `j` returns.  The
//! first pass times every job and then, outside the timed window, checks its
//! output and folds it into the deterministic [`Tally`].  Later passes repeat
//! the same job list until the measurement window closes and compare every
//! output's fingerprint with the first pass's, so a drift fails the run.  In
//! trace mode the passes after the first alternate traced and untraced, and
//! the first traced pass always runs to the end.

use crate::tally::Tally;
use crate::trace::{Breakdown, Tracer};
use std::fmt::{self, Debug, Write as _};
use std::time::{Duration, Instant};

/// A list of jobs the runner can time, check and fingerprint.
pub trait Workload {
    /// What a job needs, prepared outside the timed window.
    type Input;
    /// What a timed job returns.
    type Output;

    /// Number of jobs in one pass.
    fn jobs(&self) -> usize;
    /// Prepare job `job` (untimed).
    fn input(&self, job: usize) -> Self::Input;
    /// The timed call; spans around each layer call go to `tr`.
    fn run(&self, input: Self::Input, tr: &mut Tracer) -> Self::Output;
    /// Check one output with an independent checker and account it into
    /// `tally` (first pass only, untimed).
    fn check(&self, job: usize, out: &Self::Output, tally: &mut Tally) -> Result<(), String>;
    /// Identity of an output, compared across passes.
    fn fingerprint(&self, out: &Self::Output) -> u64;
    /// Counting work done only in trace mode, after the passes.
    fn trace_counts(&self, _tally: &mut Tally) {}
}

/// FNV-1a over the `Debug` rendering of a value, streamed without allocating.
pub fn fingerprint<T: Debug + ?Sized>(value: &T) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("writing to a hasher cannot fail");
    h.0
}

/// What the runner measured.
#[derive(Debug)]
pub struct Measurement {
    /// Per job, the median of its untraced latencies, milliseconds.
    pub job_ms: Vec<f64>,
    /// Untraced timed job executions.
    pub untraced_runs: usize,
    /// Full or partial passes made, the first included.
    pub passes: usize,
    /// Per untraced pass: jobs run and their summed latency, milliseconds.
    pub pass_busy: Vec<(usize, f64)>,
    /// Deterministic counts from the first pass.
    pub tally: Tally,
    /// Checker failures and drifts.
    pub failures: Vec<String>,
    /// Trace mode only.
    pub traced: Option<Traced>,
}

/// The traced part of a trace-mode run.
#[derive(Debug)]
pub struct Traced {
    /// Where the traced passes' wall time went.
    pub breakdown: Breakdown,
    /// Traced job executions.
    pub runs: usize,
    /// Per job, the median of its traced latencies, milliseconds.
    pub job_ms: Vec<f64>,
}

fn medians(samples: &[Vec<f64>]) -> Vec<f64> {
    samples.iter().map(|s| crate::stats::median(s)).collect()
}

/// Run `w` for `window` (at least one full pass, plus one full traced pass in
/// trace mode).
pub fn measure<W: Workload>(w: &W, window: Duration, trace: bool) -> Measurement {
    let n = w.jobs();
    assert!(n > 0, "a workload needs at least one job");
    let deadline = Instant::now() + window;
    let mut untraced: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut traced: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut prints = Vec::with_capacity(n);
    let mut tally = Tally::default();
    let mut failures = Vec::new();
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    let mut traced_wall = Duration::ZERO;
    let mut traced_runs = 0;
    let mut pass_busy = Vec::new();

    let mut busy = 0.0;
    for (job, samples) in untraced.iter_mut().enumerate() {
        let input = w.input(job);
        let start = Instant::now();
        let out = w.run(input, &mut off);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        busy += ms;
        samples.push(ms);
        prints.push(w.fingerprint(&out));
        if let Err(e) = w.check(job, &out, &mut tally) {
            failures.push(format!("job {job}: {e}"));
        }
    }

    pass_busy.push((n, busy));
    let mut passes = 1;
    loop {
        let tracing = trace && passes % 2 == 1;
        let must_finish = tracing && passes == 1;
        if !must_finish && Instant::now() >= deadline {
            break;
        }
        let pass_start = Instant::now();
        let (mut done, mut busy) = (0, 0.0);
        for job in 0..n {
            if !must_finish && Instant::now() >= deadline {
                break;
            }
            let input = w.input(job);
            let tr = if tracing { &mut on } else { &mut off };
            tr.set_job(job);
            let start = Instant::now();
            let root = tr.enter("bench");
            let out = w.run(input, tr);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            // Outside the timed latency, inside the harness's own span.
            let same = w.fingerprint(&out) == prints[job];
            drop(out);
            tr.exit(root);
            if tracing {
                traced[job].push(ms);
                traced_runs += 1;
            } else {
                untraced[job].push(ms);
                done += 1;
                busy += ms;
            }
            if !same {
                failures.push(format!("job {job}: output drifted in pass {passes}"));
            }
        }
        if tracing {
            traced_wall += pass_start.elapsed();
        } else {
            pass_busy.push((done, busy));
        }
        passes += 1;
    }

    let traced = trace.then(|| {
        w.trace_counts(&mut tally);
        let wall_ns = u64::try_from(traced_wall.as_nanos()).expect("pass shorter than 584 years");
        // The first traced pass is complete, so every job has a sample.
        Traced {
            breakdown: Breakdown::of(on.spans(), wall_ns),
            runs: traced_runs,
            job_ms: medians(&traced),
        }
    });
    Measurement {
        untraced_runs: untraced.iter().map(Vec::len).sum(),
        job_ms: medians(&untraced),
        passes,
        pass_busy,
        tally,
        failures,
        traced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squares its job index; job `drift_at` answers differently after the
    /// first pass.
    struct Squares {
        drift_at: Option<usize>,
        calls: std::cell::Cell<usize>,
    }

    impl Workload for Squares {
        type Input = usize;
        type Output = usize;
        fn jobs(&self) -> usize {
            4
        }
        fn input(&self, job: usize) -> usize {
            job
        }
        fn run(&self, job: usize, tr: &mut Tracer) -> usize {
            let calls = self.calls.get();
            self.calls.set(calls + 1);
            let drift = self.drift_at == Some(job) && calls >= self.jobs();
            tr.span("sched.bsa", || job * job + usize::from(drift))
        }
        fn check(&self, job: usize, out: &usize, tally: &mut Tally) -> Result<(), String> {
            tally.jobs += 1;
            if *out == job * job {
                tally.ok += 1;
                Ok(())
            } else {
                Err("wrong square".into())
            }
        }
        fn fingerprint(&self, out: &usize) -> u64 {
            fingerprint(out)
        }
    }

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        assert_eq!(fingerprint(&(1, "a")), fingerprint(&(1, "a")));
        assert_ne!(fingerprint(&(1, "a")), fingerprint(&(1, "b")));
    }

    #[test]
    fn a_zero_window_still_makes_one_checked_pass() {
        let w = Squares {
            drift_at: None,
            calls: Default::default(),
        };
        let m = measure(&w, Duration::ZERO, false);
        assert_eq!((m.passes, m.untraced_runs, m.job_ms.len()), (1, 4, 4));
        assert_eq!((m.tally.jobs, m.tally.ok), (4, 4));
        assert!(m.failures.is_empty() && m.traced.is_none());
    }

    #[test]
    fn trace_mode_makes_one_full_traced_pass_with_covering_spans() {
        let w = Squares {
            drift_at: None,
            calls: Default::default(),
        };
        let m = measure(&w, Duration::ZERO, true);
        let t = m.traced.expect("trace mode");
        assert_eq!((m.passes, t.runs, t.job_ms.len()), (2, 4, 4));
        assert_eq!(t.breakdown.layers["bench"].calls, 4);
        assert_eq!(t.breakdown.layers["sched.bsa"].calls, 4);
        assert!(t.breakdown.coverage() > 0.0 && t.breakdown.coverage() <= 1.0);
    }

    #[test]
    fn a_drifting_output_is_a_failure() {
        let w = Squares {
            drift_at: Some(2),
            calls: Default::default(),
        };
        let m = measure(&w, Duration::ZERO, true);
        assert_eq!(
            m.failures,
            vec!["job 2: output drifted in pass 1".to_string()]
        );
    }
}
