//! IPC accounting over a corpus of scheduled loops.

use serde::{Deserialize, Serialize};
use vliw_sms::ModuloSchedule;

/// The contribution of one scheduled loop to a benchmark's totals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopContribution {
    /// Loop name.
    pub name: String,
    /// Initiation interval of the schedule.
    pub ii: u32,
    /// Stage count of the schedule.
    pub stage_count: u32,
    /// Iterations of the *scheduled* body per invocation (already divided by the
    /// unroll factor when the loop was unrolled).
    pub scheduled_iterations: u64,
    /// Useful operations of the *original* body executed per invocation.
    pub useful_ops_per_invocation: u64,
    /// Number of invocations.
    pub invocations: u64,
    /// Unroll factor that was applied (1 = none).
    pub unroll_factor: u32,
    /// Cycles per invocation spent in the remainder epilogue (0 unless the loop was
    /// unrolled under the exact iteration model by a factor that does not divide
    /// `NITER`; see `ClusterSchedule::remainder` in `cvliw_core`).
    pub epilogue_cycles: u64,
}

impl LoopContribution {
    /// Build a contribution from a schedule plus the original-loop accounting data.
    pub fn new(
        schedule: &ModuloSchedule,
        scheduled_iterations: u64,
        original_ops: usize,
        original_iterations: u64,
        invocations: u64,
        unroll_factor: u32,
    ) -> Self {
        Self {
            name: schedule.loop_name.clone(),
            ii: schedule.ii(),
            stage_count: schedule.stage_count(),
            scheduled_iterations,
            useful_ops_per_invocation: original_ops as u64 * original_iterations,
            invocations,
            unroll_factor,
            epilogue_cycles: 0,
        }
    }

    /// Attach the remainder-epilogue cycles of an exactly-unrolled loop.
    pub fn with_epilogue_cycles(mut self, epilogue_cycles: u64) -> Self {
        self.epilogue_cycles = epilogue_cycles;
        self
    }

    /// Cycles per invocation: `(NITER + SC − 1) · II` of the scheduled kernel, plus
    /// the remainder epilogue's cycles when the exact unrolling model left one.
    pub fn cycles_per_invocation(&self) -> u64 {
        (self.scheduled_iterations + self.stage_count as u64 - 1) * self.ii as u64
            + self.epilogue_cycles
    }

    /// Total cycles across all invocations.
    pub fn total_cycles(&self) -> u64 {
        self.cycles_per_invocation() * self.invocations
    }

    /// Total useful operations across all invocations.
    pub fn total_ops(&self) -> u64 {
        self.useful_ops_per_invocation * self.invocations
    }
}

/// A borrowed, allocation-free view over a slice of [`LoopContribution`]s: the
/// benchmark-level IPC and its totals.
///
/// Collect the contributions into a `Vec` (or keep them wherever they already
/// live, e.g. a stored corpus result) and aggregate through a view.
#[derive(Debug, Clone, Copy)]
pub struct IpcView<'a> {
    contributions: &'a [LoopContribution],
}

impl<'a> IpcView<'a> {
    /// A view over `contributions`.
    pub fn new(contributions: &'a [LoopContribution]) -> Self {
        Self { contributions }
    }

    /// The contributions behind the view.
    pub fn contributions(&self) -> &'a [LoopContribution] {
        self.contributions
    }

    /// Total cycles over all loops and invocations.
    pub fn total_cycles(&self) -> u64 {
        self.contributions
            .iter()
            .map(LoopContribution::total_cycles)
            .sum()
    }

    /// Total useful operations over all loops and invocations.
    pub fn total_ops(&self) -> u64 {
        self.contributions
            .iter()
            .map(LoopContribution::total_ops)
            .sum()
    }

    /// Instructions (useful operations) per cycle.
    pub fn ipc(&self) -> f64 {
        let cycles = self.total_cycles();
        if cycles == 0 {
            return 0.0;
        }
        self.total_ops() as f64 / cycles as f64
    }

    /// IPC of `self` relative to `baseline` (the unified configuration in the paper's
    /// figures).
    pub fn relative_to(&self, baseline: &IpcView<'_>) -> f64 {
        let base = baseline.ipc();
        if base == 0.0 {
            return 0.0;
        }
        self.ipc() / base
    }

    /// Number of loops accounted.
    pub fn len(&self) -> usize {
        self.contributions.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.contributions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contribution(ii: u32, sc: u32, iters: u64, ops: u64, invocations: u64) -> LoopContribution {
        LoopContribution {
            name: format!("loop-ii{ii}"),
            ii,
            stage_count: sc,
            scheduled_iterations: iters,
            useful_ops_per_invocation: ops * iters,
            invocations,
            unroll_factor: 1,
            epilogue_cycles: 0,
        }
    }

    #[test]
    fn single_loop_ipc_matches_hand_computation() {
        // II=2, SC=3, 100 iterations, 6 ops per iteration, 10 invocations.
        let loops = [contribution(2, 3, 100, 6, 10)];
        let view = IpcView::new(&loops);
        let cycles = (100 + 3 - 1) * 2 * 10;
        let ops = 6 * 100 * 10;
        assert_eq!(view.total_cycles(), cycles);
        assert_eq!(view.total_ops(), ops);
        assert!((view.ipc() - ops as f64 / cycles as f64).abs() < 1e-12);
    }

    #[test]
    fn epilogue_cycles_are_charged_per_invocation() {
        let plain = contribution(2, 3, 100, 6, 10);
        let with_epilogue = contribution(2, 3, 100, 6, 10).with_epilogue_cycles(7);
        assert_eq!(
            with_epilogue.cycles_per_invocation(),
            plain.cycles_per_invocation() + 7
        );
        assert_eq!(with_epilogue.total_cycles(), plain.total_cycles() + 7 * 10);
        assert_eq!(with_epilogue.total_ops(), plain.total_ops());
    }

    #[test]
    fn invocation_weighting_shifts_the_aggregate() {
        // A fast loop executed rarely and a slow loop executed often: the aggregate
        // must sit near the slow loop's IPC.
        let loops = [
            contribution(1, 2, 100, 8, 1),   // IPC ~ 8
            contribution(8, 2, 100, 8, 100), // IPC ~ 1
        ];
        assert!(IpcView::new(&loops).ipc() < 1.5);
    }

    #[test]
    fn relative_ipc_is_one_for_identical_accountants() {
        let a = vec![contribution(3, 2, 50, 5, 7)];
        let b = a.clone();
        assert!((IpcView::new(&a).relative_to(&IpcView::new(&b)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prologue_epilogue_overhead_shows_up_for_short_loops() {
        // Same loop body, 1000 vs 8 iterations: the short loop pays proportionally more
        // prologue/epilogue and must have lower IPC.
        let long = [contribution(2, 5, 1000, 6, 1)];
        let short = [contribution(2, 5, 8, 6, 1)];
        assert!(IpcView::new(&short).ipc() < IpcView::new(&long).ipc());
    }

    #[test]
    fn view_matches_accountant_without_cloning() {
        // The view's totals are the per-loop totals summed by hand.
        let loops = [contribution(2, 3, 100, 6, 10), contribution(5, 2, 40, 3, 2)];
        let view = IpcView::new(&loops);
        let cycles: u64 = loops.iter().map(LoopContribution::total_cycles).sum();
        let ops: u64 = loops.iter().map(LoopContribution::total_ops).sum();
        assert_eq!(view.total_cycles(), cycles);
        assert_eq!(view.total_ops(), ops);
        assert_eq!(view.ipc(), ops as f64 / cycles as f64);
        assert_eq!(view.contributions(), &loops);
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
        assert!((view.relative_to(&view) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_accountant_reports_zero() {
        let view = IpcView::new(&[]);
        assert!(view.is_empty());
        assert_eq!(view.ipc(), 0.0);
        assert_eq!(view.relative_to(&IpcView::new(&[])), 0.0);
    }

    #[test]
    fn unrolled_loops_do_not_inflate_ops() {
        // An unrolled loop halves the scheduled iterations but keeps the original
        // useful-op count; IPC must be computed from the original ops.
        let plain = LoopContribution {
            name: "x".into(),
            ii: 2,
            stage_count: 2,
            scheduled_iterations: 100,
            useful_ops_per_invocation: 600,
            invocations: 1,
            unroll_factor: 1,
            epilogue_cycles: 0,
        };
        let unrolled = LoopContribution {
            name: "x".into(),
            ii: 4,
            stage_count: 2,
            scheduled_iterations: 50,
            useful_ops_per_invocation: 600,
            invocations: 1,
            unroll_factor: 2,
            epilogue_cycles: 0,
        };
        assert_eq!(plain.total_ops(), unrolled.total_ops());
        // Cycles are also nearly identical (same work per original iteration).
        let diff = plain.total_cycles() as i64 - unrolled.total_cycles() as i64;
        assert!(diff.abs() <= plain.ii as i64 * 2);
    }
}
