//! Deterministic counts folded from the first pass's checked outputs.  Every
//! field is an exact integer, so two runs of one seed must agree bit for bit.

use std::collections::BTreeMap;
use vliw_metrics::CodeSizeReport;
use vliw_sms::ScheduleDiagnostics;

/// Counts over one pass of a job list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Scheduling requests attempted (a loop, or one policy on one case).
    pub jobs: u64,
    /// Requests that produced a schedule which passed its checks.
    pub ok: u64,
    /// Schedules produced.
    pub schedules: u64,
    /// Summed operations of the scheduled bodies (after unrolling).
    pub kernel_ops: u64,
    /// Summed initiation intervals of those schedules.
    pub kernel_ii: u64,
    /// Schedules at II = MII.
    pub at_mii: u64,
    /// Useful operations in the code-size model's accounting.
    pub useful_ops: u64,
    /// Instruction slots in the code-size model's accounting.
    pub slots: u64,
    /// Loops scheduled as an unrolled body.
    pub unrolled: u64,
    /// Ladder requests that left the first rung.
    pub descents: u64,
    /// Ladder requests that ended in a typed error.
    pub typed_failures: u64,
    /// Winning ladder rung counts.
    pub rungs: BTreeMap<String, u64>,
    /// Placement probes from fuel receipts.
    pub probes: u64,
    /// Ordering attempts of the II search.
    pub attempts: u64,
    /// II increments above MII.
    pub ii_steps: u64,
    /// Inter-cluster transfers in the final schedules.
    pub comms: u64,
    /// Solver certificates attached to schedules.
    pub certificates: u64,
    /// Of those, certificates that pin the optimum exactly.
    pub exact: u64,
    /// Probes the exact solver spent, once per distinct solve.
    pub solver_probes: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Tally {
    /// Account one produced schedule of a body with `ops` operations.
    pub fn schedule(&mut self, ops: usize, d: &ScheduleDiagnostics) {
        self.schedule_ii(ops, d.ii, d.mii);
        self.attempts += u64::from(d.attempts());
        self.comms += d.n_comms as u64;
        if let Some(fuel) = d.fuel {
            self.probes += fuel.probes;
        }
    }

    /// Account a schedule known only by its II and MII.
    pub fn schedule_ii(&mut self, ops: usize, ii: u32, mii: u32) {
        self.schedules += 1;
        self.kernel_ops += ops as u64;
        self.kernel_ii += u64::from(ii);
        self.at_mii += u64::from(ii == mii);
        self.ii_steps += u64::from(ii.saturating_sub(mii));
    }

    /// Account the code-size model's report for one loop.
    pub fn code_size(&mut self, size: CodeSizeReport) {
        self.useful_ops += size.useful_ops;
        self.slots += size.total_slots;
    }

    /// Kernel operations per cycle.
    pub fn ipc(&self) -> f64 {
        ratio(self.kernel_ops, self.kernel_ii)
    }

    /// Instruction slots per useful operation.
    pub fn slots_per_op(&self) -> f64 {
        ratio(self.slots, self.useful_ops)
    }

    /// Share of schedules at II = MII.
    pub fn mii_frac(&self) -> f64 {
        ratio(self.at_mii, self.schedules)
    }

    /// Share of attempted requests scheduled and passing their checks.
    pub fn ok_frac(&self) -> f64 {
        self.share(self.ok)
    }

    /// `n` as a share of the attempted requests.
    pub fn share(&self, n: u64) -> f64 {
        ratio(n, self.jobs)
    }

    /// Share of solver certificates that pin the optimum exactly.
    pub fn exact_frac(&self) -> f64 {
        ratio(self.exact, self.certificates)
    }

    /// Mean operations per scheduled body.
    pub fn kernel_nodes(&self) -> f64 {
        ratio(self.kernel_ops, self.schedules)
    }

    /// Schedules per ordering attempt: 1.0 when every search succeeded on its
    /// first ordering at its first II.
    pub fn first_try_frac(&self) -> f64 {
        ratio(self.schedules, self.attempts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_follow_their_definitions() {
        let mut t = Tally::default();
        t.schedule_ii(12, 4, 4);
        t.schedule_ii(8, 6, 4);
        t.code_size(CodeSizeReport {
            useful_ops: 20,
            total_slots: 50,
        });
        t.jobs = 4;
        t.ok = 2;
        assert_eq!(t.ipc(), 2.0);
        assert_eq!(t.slots_per_op(), 2.5);
        assert_eq!(t.mii_frac(), 0.5);
        assert_eq!(t.ok_frac(), 0.5);
        assert_eq!(t.kernel_nodes(), 10.0);
        assert_eq!(t.ii_steps, 2);
        assert_eq!(Tally::default().ipc(), 0.0);
    }
}
