//! In-memory spans around the benchmark's calls into each layer, and the
//! self-time arithmetic behind the "where the time goes" table.
//!
//! A span is opened with [`Tracer::enter`] and closed with [`Tracer::exit`];
//! the innermost open span is the parent of the next one.  Every span carries
//! the index of the job it belongs to.  A disabled tracer records nothing, so
//! untraced passes pay one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `sched.bsa`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end: u64,
    /// Index (into the span list) of the enclosing span.
    pub parent: Option<usize>,
    /// The job the span was recorded for.
    pub job: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[must_use = "an entered span must be exited"]
#[derive(Debug)]
pub struct Open(Option<usize>);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    job: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans when `enabled`, and otherwise does nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            job: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Attribute the spans that follow to `job`.
    pub fn set_job(&mut self, job: usize) {
        self.job = job;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let end = self.now();
        assert_eq!(self.stack.pop(), Some(index), "spans must nest");
        self.spans[index].end = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per-name totals of a traced pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under this name.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Where a traced pass's wall time went.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Per span name, summed self time.
    pub layers: BTreeMap<&'static str, LayerTime>,
    /// Wall time of the traced pass, nanoseconds.
    pub wall_ns: u64,
    /// Time covered by top-level spans, nanoseconds.
    pub covered_ns: u64,
}

impl Breakdown {
    /// Summarize `spans` recorded during a pass that took `wall_ns`.
    pub fn of(spans: &[Span], wall_ns: u64) -> Self {
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let entry = layers.entry(s.name).or_default();
            entry.calls += 1;
            entry.self_ns += own;
        }
        let covered_ns = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration)
            .sum();
        Self {
            layers,
            wall_ns,
            covered_ns,
        }
    }

    /// Summed self time of `name`, nanoseconds (0 when never entered).
    pub fn self_ns(&self, name: &str) -> u64 {
        self.layers.get(name).map_or(0, |l| l.self_ns)
    }

    /// Share of the wall time that top-level spans cover.
    pub fn coverage(&self) -> f64 {
        self.covered_ns as f64 / self.wall_ns as f64
    }

    /// The "where the time goes" table, largest self time first.
    pub fn table(&self, title: &str) -> String {
        let mut rows: Vec<(&&str, &LayerTime)> = self.layers.iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let mut out = format!(
            "where the time goes: {title} (traced wall {:.1} ms, spans cover {:.2}%)\n",
            self.wall_ns as f64 / 1e6,
            100.0 * self.coverage()
        );
        out.push_str(&format!(
            "  {:<18} {:>9} {:>12} {:>8}\n",
            "span", "calls", "self ms", "share"
        ));
        for (name, l) in rows {
            out.push_str(&format!(
                "  {:<18} {:>9} {:>12.3} {:>7.2}%\n",
                name,
                l.calls,
                l.self_ns as f64 / 1e6,
                100.0 * l.self_ns as f64 / self.wall_ns as f64
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("bench", 0, 100, None),
            span("sched.bsa", 10, 40, Some(0)),
            span("sim.replay", 50, 90, Some(0)),
            span("inner", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 60, 65, Some(0)),
        ];
        // Children cover [10, 70): 60 ns.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn breakdown_sums_self_time_per_name_and_measures_coverage() {
        let spans = [
            span("bench", 0, 100, None),
            span("sched.bsa", 10, 40, Some(0)),
            span("bench", 150, 200, None),
            span("sched.bsa", 150, 190, Some(2)),
        ];
        let b = Breakdown::of(&spans, 250);
        assert_eq!(b.self_ns("bench"), 70 + 10);
        assert_eq!(b.self_ns("sched.bsa"), 70);
        assert_eq!(b.self_ns("lint.solve"), 0);
        assert_eq!(b.layers["sched.bsa"].calls, 2);
        assert!((b.coverage() - 0.6).abs() < 1e-12);
        let total: u64 = b.layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total, b.covered_ns);
        assert!(b.table("t").contains("sched.bsa"));
    }

    #[test]
    fn recorded_spans_nest_and_a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.set_job(3);
        let outer = tr.enter("bench");
        let x = tr.span("sched.bsa", || 7);
        tr.exit(outer);
        assert_eq!(x, 7);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[1].parent, s[1].job), (Some(0), 3));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);

        let mut off = Tracer::new(false);
        let o = off.enter("bench");
        off.span("sched.bsa", || ());
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}
