//! Static code-size model (Figure 10 of the paper).
//!
//! The VLIW code of a software-pipelined loop consists of a prologue of `(SC − 1)·II`
//! instructions, a kernel of `II` instructions and an epilogue of `(SC − 1)·II`
//! instructions.  Each instruction carries one operation slot per functional unit of
//! every cluster, so the *raw* size in operation slots is
//!
//! ```text
//!   slots = (2·(SC − 1) + 1) · II · total_issue_width
//! ```
//!
//! of which `useful` slots hold real operations — the kernel issues every (possibly
//! unrolled) body operation once, the prologue and epilogue together issue each
//! operation `SC − 1` more times — and the rest are NOPs.  The paper reports both
//! counts (white = total including NOPs, black = useful only), normalised to the
//! unified configuration without unrolling; this module reproduces that accounting
//! without having to expand every loop's code explicitly (an expansion-based
//! cross-check lives in the tests).

use serde::{Deserialize, Serialize};
use vliw_arch::MachineConfig;
use vliw_sms::ModuloSchedule;

/// Code-size of one scheduled loop, in operation slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodeSizeReport {
    /// Slots holding useful operations (kernel + prologue + epilogue).
    pub useful_ops: u64,
    /// Total slots including NOPs.
    pub total_slots: u64,
}

impl CodeSizeReport {
    /// NOP slots.
    pub fn nops(&self) -> u64 {
        self.total_slots - self.useful_ops
    }

    /// Add another loop's report.
    pub fn accumulate(&mut self, other: CodeSizeReport) {
        self.useful_ops += other.useful_ops;
        self.total_slots += other.total_slots;
    }

    /// An all-zero report.
    pub fn zero() -> Self {
        Self {
            useful_ops: 0,
            total_slots: 0,
        }
    }
}

/// Computes static code sizes of modulo-scheduled loops on a given machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodeSizeModel {
    machine: MachineConfig,
}

impl CodeSizeModel {
    /// A code-size model for `machine`.
    pub fn new(machine: &MachineConfig) -> Self {
        Self {
            machine: machine.clone(),
        }
    }

    /// The code size of one scheduled loop.
    ///
    /// `scheduled_ops` is the number of operations in the scheduled (possibly
    /// unrolled) body — i.e. the number of useful operations the kernel issues per
    /// kernel iteration.
    pub fn loop_size(&self, schedule: &ModuloSchedule, scheduled_ops: usize) -> CodeSizeReport {
        let ii = schedule.ii() as u64;
        let sc = schedule.stage_count() as u64;
        let width = self.machine.total_issue_width() as u64;
        // prologue (SC-1 stages) + kernel (1 stage) + epilogue (SC-1 stages)
        let instructions = (2 * (sc - 1) + 1) * ii;
        let total_slots = instructions * width;
        // The kernel contains each operation once; the prologue and epilogue together
        // replay each operation SC-1 times (stage k of the body appears in prologue
        // copies k+1..SC and epilogue copies 1..=k, totalling SC-1).
        let useful_ops = scheduled_ops as u64 * sc;
        // Useful slots can never exceed the total: the kernel holds at most
        // `II·width` operations, so `ops·SC ≤ II·width·SC ≤ (2(SC−1)+1)·II·width`
        // for any SC ≥ 1.  (A clamp here would only ever mask a caller passing an
        // op count that was never scheduled into the kernel.)
        debug_assert!(
            useful_ops <= total_slots,
            "useful_ops {useful_ops} > total_slots {total_slots}: \
             scheduled_ops {scheduled_ops} exceeds the kernel capacity II·width = {}",
            ii * width
        );
        CodeSizeReport {
            useful_ops,
            total_slots,
        }
    }

    /// Aggregate code size over many loops (already computed reports).
    pub fn aggregate(reports: impl IntoIterator<Item = CodeSizeReport>) -> CodeSizeReport {
        let mut acc = CodeSizeReport::zero();
        for r in reports {
            acc.accumulate(r);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vliw_arch::{MachineConfig, OpClass};
    use vliw_ddg::GraphBuilder;
    use vliw_sms::IiSearchDriver;

    /// The unified-machine SMS reference schedule of `g`.
    fn sms(machine: &MachineConfig, g: &vliw_ddg::DepGraph) -> ModuloSchedule {
        IiSearchDriver::new(machine)
            .schedule_unified(g)
            .unwrap()
            .schedule
    }

    fn saxpy() -> vliw_ddg::DepGraph {
        GraphBuilder::new("saxpy")
            .iterations(100)
            .node("lx", OpClass::Load)
            .node("ly", OpClass::Load)
            .node("mul", OpClass::FpMul)
            .node("add", OpClass::FpAdd)
            .node("st", OpClass::Store)
            .flow("lx", "mul")
            .flow("mul", "add")
            .flow("ly", "add")
            .flow("add", "st")
            .build()
    }

    #[test]
    fn loop_size_matches_the_closed_form() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = sms(&machine, &g);
        let report = CodeSizeModel::new(&machine).loop_size(&sched, g.n_nodes());
        let ii = sched.ii() as u64;
        let sc = sched.stage_count() as u64;
        assert_eq!(report.total_slots, (2 * (sc - 1) + 1) * ii * 12);
        assert_eq!(report.useful_ops, g.n_nodes() as u64 * sc);
        assert_eq!(report.nops(), report.total_slots - report.useful_ops);
    }

    #[test]
    fn useful_ops_cross_check_against_expanded_code() {
        // Expanding the schedule over SC iterations produces exactly the
        // prologue + one kernel iteration + epilogue; its useful-op count must match
        // the closed form.
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = sms(&machine, &g);
        let sc = sched.stage_count() as u64;
        let expanded = sched.expanded_program(&g, &machine, sc);
        let report = CodeSizeModel::new(&machine).loop_size(&sched, g.n_nodes());
        assert_eq!(expanded.useful_ops() as u64, report.useful_ops);
    }

    #[test]
    fn larger_ii_means_more_nops() {
        // The same loop scheduled on a narrower machine (higher II) wastes more slots
        // per useful op relative to the machine width.
        let unified = MachineConfig::unified();
        let g = saxpy();
        let sched_wide = sms(&unified, &g);
        let wide = CodeSizeModel::new(&unified).loop_size(&sched_wide, g.n_nodes());

        let narrow_machine = MachineConfig::new(
            "narrow",
            1,
            vliw_arch::ClusterConfig::new(1, 1, 1, 64),
            vliw_arch::BusConfig::none(),
            vliw_arch::LatencyModel::table1(),
        );
        let sched_narrow = sms(&narrow_machine, &g);
        let narrow = CodeSizeModel::new(&narrow_machine).loop_size(&sched_narrow, g.n_nodes());

        let wide_nop_ratio = wide.nops() as f64 / wide.total_slots as f64;
        let narrow_nop_ratio = narrow.nops() as f64 / narrow.total_slots as f64;
        // The 12-wide machine has far more empty slots per instruction.
        assert!(wide_nop_ratio > narrow_nop_ratio);
    }

    #[test]
    fn unrolling_multiplies_the_kernel_ops() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let unrolled = vliw_ddg::unroll(&g, 2);
        let sched = sms(&machine, &unrolled);
        let report = CodeSizeModel::new(&machine).loop_size(&sched, unrolled.n_nodes());
        assert_eq!(
            report.useful_ops,
            unrolled.n_nodes() as u64 * sched.stage_count() as u64
        );
        assert!(report.useful_ops >= g.n_nodes() as u64 * 2);
    }

    /// The invariant behind dropping the historical `useful_ops.min(total_slots)`
    /// clamp: a kernel of `II` instructions on a `width`-wide machine holds at most
    /// `II·width` operations, so `ops·SC ≤ II·width·SC ≤ (2(SC−1)+1)·II·width` for
    /// every SC ≥ 1 — useful slots can never exceed total slots for any real
    /// schedule, at any unroll factor.
    #[test]
    fn useful_ops_never_exceed_total_slots() {
        for machine in [
            MachineConfig::unified(),
            MachineConfig::two_cluster(1, 1),
            MachineConfig::four_cluster(1, 2),
        ] {
            let model = CodeSizeModel::new(&machine);
            let unified = machine.unified_counterpart();
            for factor in 1..=6u32 {
                let unrolled = vliw_ddg::unroll(&saxpy(), factor);
                let sched = sms(&unified, &unrolled);
                let report = model.loop_size(&sched, unrolled.n_nodes());
                assert!(
                    report.useful_ops <= report.total_slots,
                    "{} x{}: {} > {}",
                    machine.name,
                    factor,
                    report.useful_ops,
                    report.total_slots
                );
                // The algebraic chain, term by term.
                let ii = sched.ii() as u64;
                let sc = sched.stage_count() as u64;
                let width = machine.total_issue_width() as u64;
                assert!(unrolled.n_nodes() as u64 <= ii * width);
                assert!(report.useful_ops <= ii * width * sc);
                assert!(ii * width * sc <= (2 * (sc - 1) + 1) * ii * width);
            }
        }
    }

    #[test]
    fn aggregation_sums_reports() {
        let a = CodeSizeReport {
            useful_ops: 10,
            total_slots: 100,
        };
        let b = CodeSizeReport {
            useful_ops: 5,
            total_slots: 50,
        };
        let sum = CodeSizeModel::aggregate([a, b]);
        assert_eq!(sum.useful_ops, 15);
        assert_eq!(sum.total_slots, 150);
        assert_eq!(sum.nops(), 135);
    }
}
