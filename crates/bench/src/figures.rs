//! The figure pipelines: each of the paper's data figures as a plain function from
//! benchmark corpora to the serialisable rows its binary prints and writes to
//! `results/<name>.json`.
//!
//! All pipelines declare their cells on the [`Sweep`] runner, so the expensive
//! unified-machine baselines are scheduled once per (corpus, machine structure,
//! policy) instead of once per cell, and the whole cross-product runs rayon-parallel.
//! The row orders and numeric values of the paper figures are byte-identical to the
//! historical per-binary loops (guarded by `tests/golden.rs`): scheduling is
//! deterministic and the means are taken over the same values in the same order.
//!
//! [`fig_unroll`] goes beyond the paper: where Figure 8 evaluates unrolling only at
//! the single point `U = n_clusters`, the factor-exploration pipeline sweeps
//! `U ∈ 1..=8` (exact remainder accounting) on the Table-1 clustered machines and
//! adds an `Explore` row — the code-size-budgeted winner across all factors.

use crate::sweep::{Baseline, Sweep};
use crate::{mean, Algorithm, CellId};
use cvliw_core::UnrollPolicy;
use serde::Serialize;
use vliw_arch::MachineConfig;
use vliw_timing::{speedup, CycleTimeModel};
use vliw_workloads::LoopCorpus;

/// One point of Figure 4: average relative IPC of a clustered configuration.
#[derive(Debug, Serialize)]
pub struct Fig4Point {
    /// Number of clusters.
    pub clusters: usize,
    /// Number of buses.
    pub buses: usize,
    /// Bus latency in cycles.
    pub latency: u32,
    /// Algorithm label (`BSA` or `N&E`).
    pub algorithm: String,
    /// IPC relative to the unified counterpart, averaged over the benchmarks.
    pub relative_ipc: f64,
}

/// One row of the Figure 4 motivation check: BSA vs N&E at the configurations N&E
/// evaluated (bus latency 1).
#[derive(Debug, Serialize)]
pub struct Fig4Motivation {
    /// Number of clusters.
    pub clusters: usize,
    /// Number of buses.
    pub buses: usize,
    /// BSA's average relative IPC.
    pub bsa: f64,
    /// N&E's average relative IPC.
    pub ne: f64,
}

/// The Figure 4 pipeline output.
#[derive(Debug)]
pub struct Fig4Output {
    /// The figure's points (serialized to `results/fig4.json`).
    pub points: Vec<Fig4Point>,
    /// The motivation-section comparison rows.
    pub motivation: Vec<Fig4Motivation>,
}

/// Figure 4 grid cell: `(clusters, buses, latency, algorithm, cell)`.
type Fig4Cell = (usize, usize, u32, Algorithm, CellId);
/// Figure 4 motivation pair: `(clusters, buses, no-unroll cell, unrolled cell)`.
type Fig4MotivationCell = (usize, usize, CellId, CellId);

/// Declare Figure 4's cells on `sweep`, returning the grid cells and the
/// motivation-check cells.  Shared between [`fig4`] and
/// [`crate::lint_audit::figure_jobs`].
pub(crate) fn declare_fig4(sweep: &mut Sweep) -> (Vec<Fig4Cell>, Vec<Fig4MotivationCell>) {
    let bus_counts = [1usize, 2, 3, 4, 6, 8, 12];
    let latencies = [1u32, 2];
    let algorithms = [Algorithm::Bsa, Algorithm::NystromEichenberger];

    let mut point_cells: Vec<(usize, usize, u32, Algorithm, CellId)> = Vec::new();
    for &clusters in &[2usize, 4] {
        for &alg in &algorithms {
            for &lat in &latencies {
                for &buses in &bus_counts {
                    let machine = MachineConfig::clustered(clusters, buses, lat);
                    let id = sweep.cell_vs(
                        machine,
                        alg,
                        UnrollPolicy::None,
                        Baseline::UnifiedCounterpart,
                    );
                    point_cells.push((clusters, buses, lat, alg, id));
                }
            }
        }
    }
    // Motivation check cells ((2,2) and (4,4) at latency 1) are already part of the
    // grid above; the runner deduplicates them, so declaring them again costs
    // nothing and keeps the lookup simple.
    let mut motivation_cells: Vec<(usize, usize, CellId, CellId)> = Vec::new();
    for (clusters, buses) in [(2usize, 2usize), (4, 4)] {
        let machine = MachineConfig::clustered(clusters, buses, 1);
        let bsa = sweep.cell_vs(
            machine.clone(),
            Algorithm::Bsa,
            UnrollPolicy::None,
            Baseline::UnifiedCounterpart,
        );
        let ne = sweep.cell_vs(
            machine,
            Algorithm::NystromEichenberger,
            UnrollPolicy::None,
            Baseline::UnifiedCounterpart,
        );
        motivation_cells.push((clusters, buses, bsa, ne));
    }
    (point_cells, motivation_cells)
}

/// Figure 4 — relative performance (IPC of the clustered machine / IPC of the unified
/// machine with the same resources) as a function of the number of buses, for the
/// paper's single-pass scheduler (BSA) and the two-phase baseline (N&E), with bus
/// latencies of 1 and 2 cycles, on the 2-cluster and 4-cluster configurations.
/// No unrolling is applied (this figure motivates the unrolling technique).
pub fn fig4(corpora: &[LoopCorpus]) -> Fig4Output {
    let mut sweep = Sweep::new();
    let (point_cells, motivation_cells) = declare_fig4(&mut sweep);
    let results = sweep.run(corpora);
    let points = point_cells
        .into_iter()
        .map(|(clusters, buses, latency, alg, id)| Fig4Point {
            clusters,
            buses,
            latency,
            algorithm: alg.label().to_string(),
            relative_ipc: results.mean_relative_ipc(id),
        })
        .collect();
    let motivation = motivation_cells
        .into_iter()
        .map(|(clusters, buses, bsa, ne)| Fig4Motivation {
            clusters,
            buses,
            bsa: results.mean_relative_ipc(bsa),
            ne: results.mean_relative_ipc(ne),
        })
        .collect();
    Fig4Output { points, motivation }
}

/// One bar of Figure 8: IPC of one benchmark on one clustered configuration under one
/// unrolling policy, with its unified reference.
#[derive(Debug, Serialize)]
pub struct Fig8Bar {
    /// Benchmark name.
    pub benchmark: String,
    /// Number of clusters.
    pub clusters: usize,
    /// Unrolling-policy label.
    pub policy: String,
    /// Number of buses.
    pub buses: usize,
    /// Bus latency in cycles.
    pub latency: u32,
    /// IPC of the clustered configuration.
    pub ipc: f64,
    /// IPC of the paper's unified configuration under the same policy.
    pub unified_ipc: f64,
    /// `ipc / unified_ipc`.
    pub relative_ipc: f64,
    /// Loops the policy unrolled on the clustered machine.
    pub unrolled_loops: usize,
}

/// Declare Figure 8's cells on `sweep`.  Shared between [`fig8`] and
/// [`crate::lint_audit::figure_jobs`].
pub(crate) fn declare_fig8(sweep: &mut Sweep) -> Vec<(usize, UnrollPolicy, usize, u32, CellId)> {
    let bus_latencies = [1u32, 2, 4];
    let bus_counts = [1usize, 2];
    let unified = MachineConfig::unified();

    let mut cells: Vec<(usize, UnrollPolicy, usize, u32, CellId)> = Vec::new();
    for &clusters in &[2usize, 4] {
        for policy in UnrollPolicy::ALL {
            for &buses in &bus_counts {
                for &lat in &bus_latencies {
                    let machine = MachineConfig::clustered(clusters, buses, lat);
                    let id = sweep.cell_vs(
                        machine,
                        Algorithm::Bsa,
                        policy,
                        Baseline::Machine(unified.clone()),
                    );
                    cells.push((clusters, policy, buses, lat, id));
                }
            }
        }
    }
    cells
}

/// Figure 8 — IPC of every SPECfp95 benchmark on the unified and clustered
/// configurations, for the three unrolling policies (No unrolling / Unrolling /
/// Selective unrolling), with 1 or 2 buses and bus latencies of 1, 2 and 4 cycles.
pub fn fig8(corpora: &[LoopCorpus]) -> Vec<Fig8Bar> {
    let bus_latencies = [1u32, 2, 4];
    let bus_counts = [1usize, 2];
    let mut sweep = Sweep::new();
    let cells = declare_fig8(&mut sweep);
    let results = sweep.run(corpora);

    // Historical bar order: clusters → benchmark → policy → buses → latency.
    let mut bars = Vec::with_capacity(cells.len() * corpora.len());
    for &clusters in &[2usize, 4] {
        for (corpus_idx, corpus) in corpora.iter().enumerate() {
            for policy in UnrollPolicy::ALL {
                for &buses in &bus_counts {
                    for &lat in &bus_latencies {
                        let &(.., id) = cells
                            .iter()
                            .find(|&&(c, p, b, l, _)| {
                                c == clusters && p == policy && b == buses && l == lat
                            })
                            .expect("cell declared above");
                        let outcome = &results.cell(id)[corpus_idx];
                        bars.push(Fig8Bar {
                            benchmark: corpus.benchmark.name().to_string(),
                            clusters,
                            policy: policy.label(),
                            buses,
                            latency: lat,
                            ipc: outcome.result.ipc,
                            unified_ipc: outcome.baseline.ipc,
                            relative_ipc: outcome.relative_ipc,
                            unrolled_loops: outcome.result.unrolled_loops,
                        });
                    }
                }
            }
        }
    }
    bars
}

/// One bar of Figure 9: cycle-time-aware speed-up of a clustered configuration.
#[derive(Debug, Serialize)]
pub struct Fig9Bar {
    /// Number of clusters.
    pub clusters: usize,
    /// Number of buses.
    pub buses: usize,
    /// Policy label (`NU` = no unrolling, `SU` = selective unrolling).
    pub policy: String,
    /// Average IPC relative to the unified configuration.
    pub relative_ipc: f64,
    /// Cycle time of the unified machine over the clustered machine's (Palacharla
    /// model).
    pub cycle_time_ratio: f64,
    /// `relative_ipc × cycle_time_ratio`.
    pub speedup: f64,
}

/// Declare Figure 9's cells on `sweep`.  Shared between [`fig9`] and
/// [`crate::lint_audit::figure_jobs`].
pub(crate) fn declare_fig9(
    sweep: &mut Sweep,
) -> Vec<(usize, usize, &'static str, MachineConfig, CellId)> {
    let unified = MachineConfig::unified();
    let mut cells: Vec<(usize, usize, &'static str, MachineConfig, CellId)> = Vec::new();
    for &clusters in &[2usize, 4] {
        for &buses in &[1usize, 2] {
            let machine = MachineConfig::clustered(clusters, buses, 1);
            for (policy, label) in [(UnrollPolicy::None, "NU"), (UnrollPolicy::Selective, "SU")] {
                let id = sweep.cell_vs(
                    machine.clone(),
                    Algorithm::Bsa,
                    policy,
                    Baseline::Machine(unified.clone()),
                );
                cells.push((clusters, buses, label, machine.clone(), id));
            }
        }
    }
    cells
}

/// Figure 9 — speed-up of the clustered configurations over the unified one when the
/// cycle time (Table 2 / Palacharla model) is taken into account, for the No-unrolling
/// (NU) and Selective-unrolling (SU) policies with 1 or 2 buses (bus latency 1).
pub fn fig9(corpora: &[LoopCorpus]) -> Vec<Fig9Bar> {
    let model = CycleTimeModel::new();
    let unified = MachineConfig::unified();

    let mut sweep = Sweep::new();
    let cells = declare_fig9(&mut sweep);
    let results = sweep.run(corpora);

    cells
        .into_iter()
        .map(|(clusters, buses, label, machine, id)| {
            // Figure 9 historically skipped corpora whose unified baseline had zero
            // IPC (Figure 4 instead counts them as 0.0, via mean_relative_ipc).
            let rel = mean(&results.relative_ipcs(id));
            // speedup() wants absolute IPCs; feed the ratio directly.
            let row = speedup(&model, &unified, &machine, 1.0, rel);
            Fig9Bar {
                clusters,
                buses,
                policy: label.to_string(),
                relative_ipc: rel,
                cycle_time_ratio: row.cycle_time_ratio,
                speedup: row.speedup,
            }
        })
        .collect()
}

/// One bar of Figure 10: code size of a configuration normalised to the unified
/// machine without unrolling.
#[derive(Debug, Serialize)]
pub struct Fig10Bar {
    /// Number of clusters.
    pub clusters: usize,
    /// Unrolling-policy label.
    pub policy: String,
    /// Number of buses.
    pub buses: usize,
    /// Bus latency in cycles.
    pub latency: u32,
    /// Total operation slots (useful + NOP), normalised.
    pub normalized_total: f64,
    /// Useful operations only, normalised.
    pub normalized_useful: f64,
}

/// Declare Figure 10's cells on `sweep`, returning the unified baseline cell and
/// the grid cells.  Shared between [`fig10`] and
/// [`crate::lint_audit::figure_jobs`].
/// Figure 10 grid cell: `(clusters, policy, buses, latency, cell)`.
type Fig10Cell = (usize, UnrollPolicy, usize, u32, CellId);

pub(crate) fn declare_fig10(sweep: &mut Sweep) -> (CellId, Vec<Fig10Cell>) {
    let unified = MachineConfig::unified();
    let base_id = sweep.cell(unified, Algorithm::UnifiedSms, UnrollPolicy::None);
    let mut cells: Vec<(usize, UnrollPolicy, usize, u32, CellId)> = Vec::new();
    for &clusters in &[2usize, 4] {
        for policy in UnrollPolicy::ALL {
            for &buses in &[1usize, 2] {
                for &lat in &[1u32, 2, 4] {
                    let machine = MachineConfig::clustered(clusters, buses, lat);
                    let id = sweep.cell(machine, Algorithm::Bsa, policy);
                    cells.push((clusters, policy, buses, lat, id));
                }
            }
        }
    }
    (base_id, cells)
}

/// Figure 10 — impact of loop unrolling on code size: total operation slots (useful +
/// NOP) and useful operations only, normalised to the unified configuration without
/// unrolling, for the same scenarios as Figure 8.
pub fn fig10(corpora: &[LoopCorpus]) -> Vec<Fig10Bar> {
    let mut sweep = Sweep::new();
    let (base_id, cells) = declare_fig10(&mut sweep);
    let results = sweep.run(corpora);

    // Baseline: unified configuration, no unrolling, summed over all benchmarks.
    let (base_total, base_useful) = results.cell(base_id).iter().fold((0u64, 0u64), |acc, o| {
        (
            acc.0 + o.result.code_size.total_slots,
            acc.1 + o.result.code_size.useful_ops,
        )
    });

    cells
        .into_iter()
        .map(|(clusters, policy, buses, latency, id)| {
            let (total, useful) = results.cell(id).iter().fold((0u64, 0u64), |acc, o| {
                (
                    acc.0 + o.result.code_size.total_slots,
                    acc.1 + o.result.code_size.useful_ops,
                )
            });
            Fig10Bar {
                clusters,
                policy: policy.label(),
                buses,
                latency,
                normalized_total: total as f64 / base_total as f64,
                normalized_useful: useful as f64 / base_useful as f64,
            }
        })
        .collect()
}

/// One machine-configuration row of Table 1 (serialized into `results/table1.json`).
#[derive(Debug, Serialize)]
pub struct Table1Config {
    /// Configuration name.
    pub configuration: String,
    /// Number of clusters.
    pub clusters: usize,
    /// Integer units per cluster.
    pub int_per_cluster: usize,
    /// FP units per cluster.
    pub fp_per_cluster: usize,
    /// Memory units per cluster.
    pub mem_per_cluster: usize,
    /// Registers per cluster.
    pub regs_per_cluster: usize,
    /// Total issue width.
    pub total_issue: usize,
    /// Total registers.
    pub total_regs: usize,
}

/// One latency row of Table 1.
#[derive(Debug, Serialize)]
pub struct Table1Latency {
    /// Operation-class mnemonic.
    pub class: String,
    /// Result latency in cycles.
    pub latency: u32,
}

/// The Table 1 pipeline output: the evaluated machine configurations and the
/// operation latencies.
#[derive(Debug, Serialize)]
pub struct Table1Output {
    /// Table 1a — machine configurations.
    pub configurations: Vec<Table1Config>,
    /// Table 1b — operation latencies.
    pub latencies: Vec<Table1Latency>,
}

/// Table 1 — the evaluated machine configurations and the operation latencies.
pub fn table1() -> Table1Output {
    use vliw_arch::{FuKind, OpClass};
    let configs = [
        MachineConfig::unified(),
        MachineConfig::two_cluster(1, 1),
        MachineConfig::four_cluster(1, 1),
    ];
    let configurations = configs
        .iter()
        .map(|m| Table1Config {
            configuration: m.name.clone(),
            clusters: m.n_clusters,
            int_per_cluster: m.cluster.fu_count(FuKind::Int),
            fp_per_cluster: m.cluster.fu_count(FuKind::Fp),
            mem_per_cluster: m.cluster.fu_count(FuKind::Mem),
            regs_per_cluster: m.cluster.registers,
            total_issue: m.total_issue_width(),
            total_regs: m.total_registers(),
        })
        .collect();
    let machine = MachineConfig::unified();
    let latencies = OpClass::ALL
        .into_iter()
        .map(|class| Table1Latency {
            class: class.mnemonic().to_string(),
            latency: machine.latency(class),
        })
        .collect();
    Table1Output {
        configurations,
        latencies,
    }
}

/// One row of Table 2: `(configuration, bypass ps, register-file ps, cycle-time ps)`
/// (serialized as a tuple to keep `results/table2.json` byte-identical to the
/// historical binary output).
pub type Table2Row = (String, f64, f64, f64);

/// Table 2 — cycle times of the evaluated configurations (Palacharla delay model).
pub fn table2() -> Vec<Table2Row> {
    let model = CycleTimeModel::new();
    let configs = [
        MachineConfig::unified(),
        MachineConfig::two_cluster(1, 1),
        MachineConfig::two_cluster(2, 1),
        MachineConfig::four_cluster(1, 1),
        MachineConfig::four_cluster(2, 1),
    ];
    configs
        .iter()
        .map(|m| {
            let (rd, wr) = m.register_file_ports();
            let bypass = model.model().bypass_delay_ps(m.cluster.issue_width());
            let rf = model.model().register_file_ps(m.cluster.registers, rd, wr);
            let ct = model.cycle_time_ps(m);
            (m.name.clone(), bypass, rf, ct)
        })
        .collect()
}

/// One point of the unroll-factor exploration sweep (`fig_unroll`): one machine,
/// one unrolling policy (an explicit factor or the `Explore` winner), aggregated
/// over every benchmark corpus.
#[derive(Debug, Serialize)]
pub struct FigUnrollPoint {
    /// Machine name.
    pub machine: String,
    /// Number of clusters.
    pub clusters: usize,
    /// Number of buses.
    pub buses: usize,
    /// Bus latency in cycles.
    pub latency: u32,
    /// Unrolling-policy label (`Unroll xU` or `Explore <=xU`).
    pub policy: String,
    /// The swept unroll factor (for the `Explore` row: its `max_factor`).
    pub factor: u32,
    /// Aggregate IPC over all benchmarks (total useful ops / total cycles).
    pub ipc: f64,
    /// `ipc` relative to the same machine's factor-1 point.
    pub ipc_vs_no_unrolling: f64,
    /// Loops the policy actually unrolled.
    pub unrolled_loops: usize,
    /// Loops that could not be scheduled at all.
    pub failed_loops: usize,
    /// Loops whose II was pushed above MII by register pressure — the binding
    /// constraint as the factor grows.
    pub register_limited_loops: usize,
    /// Loops whose II was pushed above MII by bus saturation.
    pub bus_limited_loops: usize,
    /// The largest per-cluster `MaxLive` seen in any schedule.
    pub max_register_pressure: u32,
    /// Useful operation slots (kernel + remainder loops), summed over all loops.
    pub useful_ops: u64,
    /// Total operation slots including NOPs.
    pub total_slots: u64,
    /// `total_slots` relative to the same machine's factor-1 point.
    pub code_size_vs_no_unrolling: f64,
}

/// Aggregates of one `fig_unroll` cell over every corpus.
struct UnrollCellAggregate {
    ops: u64,
    cycles: u64,
    unrolled: usize,
    failed: usize,
    register_limited: usize,
    bus_limited: usize,
    max_pressure: u32,
    useful_ops: u64,
    total_slots: u64,
}

impl UnrollCellAggregate {
    fn of(outcomes: &[crate::CellOutcome]) -> Self {
        let mut agg = UnrollCellAggregate {
            ops: 0,
            cycles: 0,
            unrolled: 0,
            failed: 0,
            register_limited: 0,
            bus_limited: 0,
            max_pressure: 0,
            useful_ops: 0,
            total_slots: 0,
        };
        for o in outcomes {
            let r = &o.result;
            agg.ops += r.ipc_view().total_ops();
            agg.cycles += r.ipc_view().total_cycles();
            agg.unrolled += r.unrolled_loops;
            agg.failed += r.failed_loops;
            agg.register_limited += r.diagnostics.register_limited;
            agg.bus_limited += r.diagnostics.bus_limited;
            agg.max_pressure = agg.max_pressure.max(r.diagnostics.max_register_pressure);
            agg.useful_ops += r.code_size.useful_ops;
            agg.total_slots += r.code_size.total_slots;
        }
        agg
    }

    fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ops as f64 / self.cycles as f64
        }
    }
}

/// Declare the factor-exploration sweep's cells on `sweep`.  Shared between
/// [`fig_unroll`] and [`crate::lint_audit::figure_jobs`].
pub(crate) fn declare_fig_unroll(
    sweep: &mut Sweep,
) -> Vec<(MachineConfig, UnrollPolicy, u32, CellId)> {
    const MAX_FACTOR: u32 = 8;
    let machines = [
        MachineConfig::two_cluster(1, 1),
        MachineConfig::four_cluster(1, 1),
    ];

    let mut cells: Vec<(MachineConfig, UnrollPolicy, u32, CellId)> = Vec::new();
    for machine in &machines {
        for factor in 1..=MAX_FACTOR {
            let policy = UnrollPolicy::Fixed(factor);
            let id = sweep.cell(machine.clone(), Algorithm::Bsa, policy);
            cells.push((machine.clone(), policy, factor, id));
        }
        let policy = UnrollPolicy::Explore {
            max_factor: MAX_FACTOR,
        };
        let id = sweep.cell(machine.clone(), Algorithm::Bsa, policy);
        cells.push((machine.clone(), policy, MAX_FACTOR, id));
    }
    cells
}

/// The factor-exploration figure — IPC and code size as a function of the unroll
/// factor `U ∈ 1..=8` on the Table-1 clustered machines (exact remainder
/// accounting, BSA), plus one `Explore` row per machine: the best factor under the
/// default code-size budget.  The paper's Figure 8 only ever evaluates
/// `U = n_clusters`; this sweep exposes the structure across the whole factor axis
/// (register pressure taking over as the binding constraint as `U` grows).
pub fn fig_unroll(corpora: &[LoopCorpus]) -> Vec<FigUnrollPoint> {
    let mut sweep = Sweep::new();
    let cells = declare_fig_unroll(&mut sweep);
    let results = sweep.run(corpora);

    // Per-machine baseline: the factor-1 cell (identical to no unrolling).
    let mut points = Vec::with_capacity(cells.len());
    let mut baseline: Option<(String, f64, u64)> = None;
    for (machine, policy, factor, id) in cells {
        let agg = UnrollCellAggregate::of(results.cell(id));
        if baseline
            .as_ref()
            .is_none_or(|(name, _, _)| *name != machine.name)
        {
            debug_assert_eq!(factor, 1, "the first cell of every machine is factor 1");
            baseline = Some((machine.name.clone(), agg.ipc(), agg.total_slots));
        }
        let (_, base_ipc, base_slots) = baseline.as_ref().expect("baseline set above");
        points.push(FigUnrollPoint {
            machine: machine.name.clone(),
            clusters: machine.n_clusters,
            buses: machine.buses.count,
            latency: machine.buses.latency,
            policy: policy.label(),
            factor,
            ipc: agg.ipc(),
            ipc_vs_no_unrolling: if *base_ipc > 0.0 {
                agg.ipc() / base_ipc
            } else {
                0.0
            },
            unrolled_loops: agg.unrolled,
            failed_loops: agg.failed,
            register_limited_loops: agg.register_limited,
            bus_limited_loops: agg.bus_limited,
            max_register_pressure: agg.max_pressure,
            useful_ops: agg.useful_ops,
            total_slots: agg.total_slots,
            code_size_vs_no_unrolling: if *base_slots > 0 {
                agg.total_slots as f64 / *base_slots as f64
            } else {
                0.0
            },
        });
    }
    points
}

/// Average relative IPC per `(policy, buses, latency)` over the bars of one cluster
/// count — the AVERAGE panel of Figure 8 (used by the `fig8` binary's report).
pub fn fig8_averages(bars: &[Fig8Bar], clusters: usize) -> Vec<(String, usize, u32, f64)> {
    let mut rows = Vec::new();
    for policy in UnrollPolicy::ALL {
        for &buses in &[1usize, 2] {
            for &lat in &[1u32, 2, 4] {
                let rels: Vec<f64> = bars
                    .iter()
                    .filter(|b| {
                        b.clusters == clusters
                            && b.policy == policy.label()
                            && b.buses == buses
                            && b.latency == lat
                    })
                    .map(|b| b.relative_ipc)
                    .collect();
                rows.push((policy.label(), buses, lat, mean(&rels)));
            }
        }
    }
    rows
}
