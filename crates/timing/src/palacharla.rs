//! The Palacharla-style delay models.
//!
//! Two structures bound the cycle time of the modelled VLIW machines (the paper's
//! Table 2 uses exactly these two):
//!
//! * **Bypass network** — the result buses that forward a functional unit's output to
//!   the inputs of every other unit of the same cluster.  Its delay is dominated by the
//!   wire: `T_bypass = 0.5 · R_metal · C_metal · L²`, with the wire length `L`
//!   proportional to the number of functional units spanned (each unit adds a fixed
//!   height).
//! * **Register file** — modelled as `T_rf = T_fixed + k_reg · R + k_port · P +
//!   k_wire · (R · P²)^(1/2)·scale`, an analytic fit of the decoder + word-line +
//!   bit-line + sense-amp chain in which the word-line length grows with the number of
//!   ports `P` (each port adds a cell width) and the bit-line length grows with the
//!   number of registers `R`.
//!
//! The constants below are calibrated for a 0.18 µm process so that the resulting
//! cycle-time *ratios* between the unified, 2-cluster and 4-cluster configurations of
//! Table 1 land where the paper's Table 2 puts them (the 4-cluster machine ends up
//! roughly 3.5–4× faster per cycle than the unified one, which combined with IPC parity
//! yields the reported average speed-up of ≈3.6).  Absolute picoseconds are indicative.

use serde::{Deserialize, Serialize};
use vliw_arch::MachineConfig;

/// Analytic delay model (see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PalacharlaModel {
    /// Fixed logic overhead of any pipeline stage, in ps (latches, clock skew).
    pub stage_overhead_ps: f64,
    /// Bypass wire delay coefficient, in ps per (functional unit)²: the quadratic wire
    /// term of `0.5·R·C·L²` with `L` measured in FU heights.
    pub bypass_ps_per_fu2: f64,
    /// Register-file delay per register, in ps (bit-line capacitance).
    pub rf_ps_per_reg: f64,
    /// Register-file delay per port, in ps (word-line capacitance).
    pub rf_ps_per_port: f64,
    /// Register-file wire term, in ps per sqrt(registers · ports²).
    pub rf_wire_ps: f64,
    /// Fixed register-file overhead, in ps (decoder + sense amplifier).
    pub rf_fixed_ps: f64,
}

impl Default for PalacharlaModel {
    fn default() -> Self {
        Self::technology_180nm()
    }
}

impl PalacharlaModel {
    /// The 0.18 µm calibration used for Table 2.
    pub fn technology_180nm() -> Self {
        Self {
            stage_overhead_ps: 80.0,
            bypass_ps_per_fu2: 11.0,
            rf_ps_per_reg: 3.0,
            rf_ps_per_port: 9.0,
            rf_wire_ps: 4.5,
            rf_fixed_ps: 150.0,
        }
    }

    /// Bypass delay of one cluster with `fus` functional units, in ps.
    pub fn bypass_delay_ps(&self, fus: usize) -> f64 {
        self.stage_overhead_ps + self.bypass_ps_per_fu2 * (fus as f64) * (fus as f64)
    }

    /// Register-file access time for `registers` registers with `read_ports` +
    /// `write_ports` ports, in ps.
    pub fn register_file_ps(&self, registers: usize, read_ports: usize, write_ports: usize) -> f64 {
        let ports = (read_ports + write_ports) as f64;
        let regs = registers as f64;
        self.rf_fixed_ps
            + self.rf_ps_per_reg * regs
            + self.rf_ps_per_port * ports
            + self.rf_wire_ps * (regs * ports * ports).sqrt()
    }

    /// Cycle time of `machine`, in ps: the maximum of the per-cluster bypass delay and
    /// the per-cluster register-file access time (the paper's Table 2 rule).
    pub fn cycle_time_ps(&self, machine: &MachineConfig) -> f64 {
        let fus = machine.cluster.issue_width();
        let (rd, wr) = machine.register_file_ports();
        let bypass = self.bypass_delay_ps(fus);
        let rf = self.register_file_ps(machine.cluster.registers, rd, wr);
        bypass.max(rf)
    }
}

/// Cycle times of a set of machine configurations (Table 2 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CycleTimeModel {
    model: PalacharlaModel,
}

impl CycleTimeModel {
    /// A cycle-time model using the default 0.18 µm calibration.
    pub fn new() -> Self {
        Self {
            model: PalacharlaModel::technology_180nm(),
        }
    }

    /// The underlying delay model.
    pub fn model(&self) -> &PalacharlaModel {
        &self.model
    }

    /// Cycle time of `machine` in picoseconds.
    pub fn cycle_time_ps(&self, machine: &MachineConfig) -> f64 {
        self.model.cycle_time_ps(machine)
    }

    /// The rows of Table 2: `(name, cycle time in ps)` for the unified, 2-cluster and
    /// 4-cluster configurations with the given number of buses.
    pub fn table2(&self, n_buses: usize, bus_latency: u32) -> Vec<(String, f64)> {
        let configs = [
            MachineConfig::unified(),
            MachineConfig::two_cluster(n_buses, bus_latency),
            MachineConfig::four_cluster(n_buses, bus_latency),
        ];
        configs
            .iter()
            .map(|m| (m.name.clone(), self.cycle_time_ps(m)))
            .collect()
    }
}

impl Default for CycleTimeModel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bypass_delay_grows_quadratically_with_issue_width() {
        let m = PalacharlaModel::technology_180nm();
        let d3 = m.bypass_delay_ps(3) - m.stage_overhead_ps;
        let d6 = m.bypass_delay_ps(6) - m.stage_overhead_ps;
        let d12 = m.bypass_delay_ps(12) - m.stage_overhead_ps;
        assert!((d6 / d3 - 4.0).abs() < 1e-9);
        assert!((d12 / d6 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn register_file_delay_increases_with_regs_and_ports() {
        let m = PalacharlaModel::technology_180nm();
        assert!(m.register_file_ps(64, 24, 12) > m.register_file_ps(32, 12, 6));
        assert!(m.register_file_ps(32, 12, 6) > m.register_file_ps(16, 8, 5));
    }

    #[test]
    fn unified_machine_is_the_slowest_per_cycle() {
        let model = CycleTimeModel::new();
        let unified = model.cycle_time_ps(&MachineConfig::unified());
        let two = model.cycle_time_ps(&MachineConfig::two_cluster(1, 1));
        let four = model.cycle_time_ps(&MachineConfig::four_cluster(1, 1));
        assert!(unified > two);
        assert!(two > four);
    }

    #[test]
    fn cycle_time_ratio_matches_the_papers_ballpark() {
        // The paper's headline: with IPC parity, the 4-cluster/1-bus machine is ~3.6x
        // faster overall, so its cycle time must be roughly 3-4.5x shorter than the
        // unified machine's.
        let model = CycleTimeModel::new();
        let unified = model.cycle_time_ps(&MachineConfig::unified());
        let four = model.cycle_time_ps(&MachineConfig::four_cluster(1, 1));
        let ratio = unified / four;
        assert!(
            (3.0..=4.5).contains(&ratio),
            "unified/4-cluster cycle-time ratio {ratio:.2} outside the expected band"
        );
        let two = model.cycle_time_ps(&MachineConfig::two_cluster(1, 1));
        let ratio2 = unified / two;
        assert!(
            (1.5..=3.0).contains(&ratio2),
            "unified/2-cluster cycle-time ratio {ratio2:.2} outside the expected band"
        );
    }

    #[test]
    fn extra_buses_increase_the_clustered_cycle_time_slightly() {
        // Each bus adds register-file ports, so 2-bus configurations pay a small
        // cycle-time penalty; they must never get faster.
        let model = CycleTimeModel::new();
        for n in [2usize, 4] {
            let one = model.cycle_time_ps(&MachineConfig::clustered(n, 1, 1));
            let two = model.cycle_time_ps(&MachineConfig::clustered(n, 2, 1));
            assert!(two >= one);
        }
    }

    #[test]
    fn table2_lists_three_configurations() {
        let rows = CycleTimeModel::new().table2(1, 1);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].0.contains("unified"));
        assert!(rows[0].1 > rows[2].1);
    }
}
