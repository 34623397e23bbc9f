//! Loop-unrolling policies (Section 5.2 and Figure 6 of the paper), generalized to a
//! factor-parameterized policy space.
//!
//! Three policies are evaluated in the paper's Figure 8:
//!
//! * **No unrolling** ([`UnrollPolicy::None`]) — schedule the loop body as-is;
//! * **Unrolling** ([`UnrollPolicy::ByClusters`]) — unroll *every* loop by the number
//!   of clusters before scheduling;
//! * **Selective unrolling** ([`UnrollPolicy::Selective`]) — schedule the original
//!   body first and unroll (by the number of clusters) only when (a) the schedule was
//!   limited by the communication buses and (b) a quick analytical estimate says the
//!   communications of the unrolled body fit inside its initiation interval
//!   (Figure 6).
//!
//! The paper only ever answers its titular question at the single point
//! `U = n_clusters`.  Two additional policies open the factor dimension:
//!
//! * [`UnrollPolicy::Fixed`]`(u)` — unroll every loop by an explicit factor `u`,
//!   under the **exact** iteration model ([`vliw_ddg::unroll_exact`]): the kernel
//!   covers `⌊NITER/u⌋` iterations and the leftover `NITER mod u` iterations run as
//!   a remainder epilogue (the original body's schedule).  This is the sweep axis of
//!   the `fig_unroll` experiment.
//! * [`UnrollPolicy::Explore`]`{ max_factor }` — schedule every candidate factor
//!   `1..=max_factor` and keep the best IPC whose static code size stays within a
//!   budget (a multiple of the non-unrolled loop's code, see
//!   [`SelectiveUnroller::with_explore_code_growth`]).  The engine's
//!   [`ScheduleDiagnostics`](vliw_sms::ScheduleDiagnostics) prune the search: once a
//!   candidate is register-limited and fails to win, larger factors are not tried —
//!   `MaxLive` pressure only grows with the factor.
//!
//! `ByClusters` and `Selective` deliberately keep the paper's iteration model
//! ([`vliw_ddg::unroll`](fn@vliw_ddg::unroll), `⌈NITER/U⌉` kernel iterations with the overshoot charged
//! to the kernel): the committed figure artifacts reproduce the paper's published
//! accounting byte-for-byte.  The factor-exploration policies use the exact model.
//!
//! The estimate of Figure 6 works as follows.  Unrolling by `U = n_clusters` and
//! scheduling one copy of the body per cluster leaves only the loop-carried
//! dependences whose distance is not a multiple of `U` crossing clusters; each such
//! dependence crosses once per copy, so `comneeded = NDepsNotMult(G, U) × U`
//! transfers are needed per unrolled iteration, taking
//! `cycneeded = ⌈comneeded / nbuses⌉ × latbus` bus cycles.  If `cycneeded` is below
//! the initiation interval of the (non-unrolled) schedule, unrolling is worthwhile.
//! The predicate is **strict** (`cycneeded < II`): at equality the transfers exactly
//! fill the window and unrolling buys nothing, so the original schedule is kept
//! (pinned by a boundary test below).

use crate::result::{ClusterSchedule, LoopScheduler, RemainderEpilogue};
use serde::{Deserialize, Serialize};
use vliw_ddg::{unroll, unroll_exact, unroll_exact_with, DepGraph, UnrollScratch};
use vliw_metrics::CodeSizeModel;
use vliw_sms::{LimitingResource, ScheduleError};

/// Which unrolling policy to apply before scheduling a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnrollPolicy {
    /// Schedule the original loop body.
    None,
    /// Unroll every loop by an explicit factor, with exact remainder accounting.
    Fixed(u32),
    /// Unroll every loop by the number of clusters (the paper's "Unrolling" bars).
    ByClusters,
    /// Unroll only bus-limited loops, by the number of clusters (Figure 6).
    Selective,
    /// Schedule candidate factors `1..=max_factor` and keep the best admissible one.
    Explore {
        /// The largest unroll factor to try.
        max_factor: u32,
    },
}

impl UnrollPolicy {
    /// The paper's three policies, in the order Figure 8 presents them.
    pub const ALL: [UnrollPolicy; 3] = [
        UnrollPolicy::None,
        UnrollPolicy::ByClusters,
        UnrollPolicy::Selective,
    ];

    /// Human-readable label; the paper policies keep the labels of the paper's
    /// figures (the committed artifacts key on them).
    pub fn label(self) -> String {
        match self {
            UnrollPolicy::None => "No unrolling".to_string(),
            UnrollPolicy::Fixed(factor) => format!("Unroll x{factor}"),
            UnrollPolicy::ByClusters => "Unrolling".to_string(),
            UnrollPolicy::Selective => "Selective unrolling".to_string(),
            UnrollPolicy::Explore { max_factor } => format!("Explore <=x{max_factor}"),
        }
    }
}

impl std::fmt::Display for UnrollPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Default [`SelectiveUnroller::with_explore_code_growth`] budget: an explored
/// winner may spend at most this multiple of the non-unrolled loop's static code.
pub const DEFAULT_EXPLORE_CODE_GROWTH: f64 = 4.0;

/// The unrolling driver: the selective algorithm of Figure 6 plus the generalized
/// factor policies, generic over the underlying scheduler (BSA in the paper; the
/// N&E baseline and the unified scheduler are also accepted so ablations can be
/// run).
#[derive(Debug, Clone)]
pub struct SelectiveUnroller<S> {
    scheduler: S,
    explore_code_growth: f64,
}

impl<S: LoopScheduler> SelectiveUnroller<S> {
    /// Wrap `scheduler` with the unrolling policies.
    pub fn new(scheduler: S) -> Self {
        Self {
            scheduler,
            explore_code_growth: DEFAULT_EXPLORE_CODE_GROWTH,
        }
    }

    /// The wrapped scheduler.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Set the [`UnrollPolicy::Explore`] code-size budget: a candidate factor is
    /// admissible only while its static code (kernel + remainder loop) stays within
    /// `ratio ×` the non-unrolled loop's code.  Defaults to
    /// [`DEFAULT_EXPLORE_CODE_GROWTH`].
    pub fn with_explore_code_growth(mut self, ratio: f64) -> Self {
        self.explore_code_growth = ratio;
        self
    }

    /// Schedule `graph` with the given policy.
    pub fn schedule_with_policy(
        &self,
        graph: &DepGraph,
        policy: UnrollPolicy,
    ) -> Result<ClusterSchedule, ScheduleError> {
        match policy {
            UnrollPolicy::None => self.schedule_original(graph),
            UnrollPolicy::Fixed(factor) => self.schedule_fixed(graph, factor),
            UnrollPolicy::ByClusters => self.schedule_unrolled(graph),
            UnrollPolicy::Selective => self.schedule_selective(graph),
            UnrollPolicy::Explore { max_factor } => self.schedule_explore(graph, max_factor),
        }
    }

    /// Schedule the original body.
    pub fn schedule_original(&self, graph: &DepGraph) -> Result<ClusterSchedule, ScheduleError> {
        let scheduled = self.scheduler.schedule_loop(graph)?;
        Ok(ClusterSchedule::from_original(graph, scheduled))
    }

    /// Unroll by the number of clusters unconditionally, then schedule (the paper's
    /// iteration model).
    ///
    /// If the unrolled body cannot be scheduled at all (e.g. the per-cluster register
    /// file cannot hold its live values at any initiation interval), the original body
    /// is scheduled instead — a compiler would never trade a working loop for an
    /// unschedulable one.
    pub fn schedule_unrolled(&self, graph: &DepGraph) -> Result<ClusterSchedule, ScheduleError> {
        let factor = self.unroll_factor();
        if factor <= 1 {
            return self.schedule_original(graph);
        }
        let unrolled = unroll(graph, factor);
        match self.scheduler.schedule_loop(&unrolled) {
            Ok(scheduled) => Ok(ClusterSchedule::from_unrolled(
                graph, unrolled, scheduled, factor,
            )),
            Err(_) => self.schedule_original(graph),
        }
    }

    /// Unroll by an explicit `factor` under the exact iteration model: the kernel
    /// covers `⌊NITER/factor⌋` iterations; the leftover `NITER mod factor`
    /// iterations are drained by a remainder epilogue running the *original* body's
    /// schedule.
    ///
    /// Falls back to the original body when the factor is trivial, exceeds the trip
    /// count (the kernel would never run), or the unrolled kernel cannot be
    /// scheduled.
    ///
    /// When the factor does not divide the trip count, producing the epilogue costs
    /// one scheduling of the original body on top of the kernel's.  A sweep over
    /// many factors of the same loop pays that per factor — sweep cells are
    /// independent by design; [`Self::schedule_explore`] is the entry point that
    /// shares the original-body schedule across all candidate factors.
    pub fn schedule_fixed(
        &self,
        graph: &DepGraph,
        factor: u32,
    ) -> Result<ClusterSchedule, ScheduleError> {
        if factor <= 1 || factor as u64 > graph.iterations {
            return self.schedule_original(graph);
        }
        let unrolled = unroll_exact(graph, factor);
        match self.scheduler.schedule_loop(&unrolled.kernel) {
            Ok(scheduled) => {
                let remainder = self.remainder_epilogue(graph, unrolled.remainder_iterations)?;
                Ok(ClusterSchedule::from_unrolled_exact(
                    graph,
                    unrolled.kernel,
                    scheduled,
                    factor,
                    remainder,
                ))
            }
            Err(_) => self.schedule_original(graph),
        }
    }

    /// Schedule every candidate factor `1..=max_factor` and keep the best one.
    ///
    /// The winner maximizes IPC (exact remainder accounting included) among the
    /// candidates whose static code size — kernel plus remainder loop, from the
    /// machine's [`CodeSizeModel`] — stays within the
    /// [`SelectiveUnroller::with_explore_code_growth`] budget.  The factor-1
    /// schedule is always a candidate, so `Explore` never returns a schedule worse
    /// than [`UnrollPolicy::None`]; it is computed once and reused both as the
    /// fallback winner and as every candidate's remainder epilogue.  Candidate
    /// factors that cannot be scheduled are skipped; the engine's diagnostics cut
    /// the search short once a register-limited candidate fails to win (register
    /// pressure only grows with the factor).
    pub fn schedule_explore(
        &self,
        graph: &DepGraph,
        max_factor: u32,
    ) -> Result<ClusterSchedule, ScheduleError> {
        let base = self.schedule_original(graph)?;
        if max_factor <= 1 {
            return Ok(base);
        }
        let model = CodeSizeModel::new(self.scheduler.machine());
        let budget = base.code_size(&model).total_slots as f64 * self.explore_code_growth;
        // The factor-1 schedule doubles as every candidate's remainder epilogue.
        let base_schedule = base.schedule.clone();
        let mut best_ipc = base.ipc();
        let mut best = base;
        // One allocation arena for the whole sweep: every candidate kernel draws its
        // adjacency storage from the scratch and donates it back when it loses.
        let mut scratch = UnrollScratch::new();
        for factor in 2..=max_factor {
            if factor as u64 > graph.iterations {
                break;
            }
            let unrolled = unroll_exact_with(&mut scratch, graph, factor);
            let Ok(scheduled) = self.scheduler.schedule_loop(&unrolled.kernel) else {
                // Unschedulable at this factor (typically the register file); larger
                // factors may still differ, so keep scanning within the budget.
                scratch.recycle(unrolled.kernel);
                continue;
            };
            let remainder = (unrolled.remainder_iterations > 0).then(|| RemainderEpilogue {
                schedule: base_schedule.clone(),
                iterations: unrolled.remainder_iterations,
            });
            let candidate = ClusterSchedule::from_unrolled_exact(
                graph,
                unrolled.kernel,
                scheduled,
                factor,
                remainder,
            );
            let register_limited =
                matches!(candidate.diagnostics.limiting, LimitingResource::Registers);
            let within_budget = candidate.code_size(&model).total_slots as f64 <= budget;
            let ipc = candidate.ipc();
            if within_budget && ipc > best_ipc {
                best_ipc = ipc;
                scratch.recycle(std::mem::replace(&mut best, candidate).scheduled_graph);
            } else {
                scratch.recycle(candidate.scheduled_graph);
                if register_limited {
                    break;
                }
            }
        }
        Ok(best)
    }

    /// The selective-unrolling algorithm of Figure 6.
    pub fn schedule_selective(&self, graph: &DepGraph) -> Result<ClusterSchedule, ScheduleError> {
        // (1) Compute the schedule of the original graph.
        let scheduled = self.scheduler.schedule_loop(graph)?;
        // (2) Only bus-limited schedules are candidates for unrolling.  The predicate
        // comes from the engine's structured diagnostics: the II search had to leave
        // MII behind because of bus saturation (`LimitingResource::Bus`).
        if !scheduled.diagnostics.limited_by_bus() {
            return Ok(ClusterSchedule::from_original(graph, scheduled));
        }
        let machine = self.scheduler.machine();
        let ufactor = self.unroll_factor();
        if ufactor <= 1 || machine.buses.count == 0 {
            return Ok(ClusterSchedule::from_original(graph, scheduled));
        }
        // (4)-(5) The analytical estimate of the unrolled body's bus traffic.
        let cycneeded = self.fig6_cycneeded(graph, ufactor);
        // (6) Unroll only if the communications fit *strictly* under the current II
        // (at equality the transfers exactly fill the window — nothing is gained).
        // Keep the original schedule when the unrolled body turns out to be
        // unschedulable.
        if cycneeded < scheduled.schedule.ii() as u64 {
            let unrolled = unroll(graph, ufactor);
            if let Ok(unrolled_sched) = self.scheduler.schedule_loop(&unrolled) {
                return Ok(ClusterSchedule::from_unrolled(
                    graph,
                    unrolled,
                    unrolled_sched,
                    ufactor,
                ));
            }
        }
        Ok(ClusterSchedule::from_original(graph, scheduled))
    }

    /// The Figure-6 estimate of the bus cycles one unrolled iteration needs:
    /// `comneeded = NDepsNotMult(G, U) × U` transfers over the machine's buses,
    /// `cycneeded = ⌈comneeded / nbuses⌉ × latbus`.  On a machine without buses the
    /// estimate is 0 when no transfer is needed and `u64::MAX` (never fits) otherwise.
    pub fn fig6_cycneeded(&self, graph: &DepGraph, ufactor: u32) -> u64 {
        let machine = self.scheduler.machine();
        let comneeded = graph.deps_not_multiple_of(ufactor) as u64 * ufactor as u64;
        if machine.buses.count == 0 {
            return if comneeded == 0 { 0 } else { u64::MAX };
        }
        comneeded.div_ceil(machine.buses.count as u64) * machine.buses.latency as u64
    }

    /// The unroll factor used by the cluster-count policies: the number of clusters
    /// (Figure 6, line 3).
    pub fn unroll_factor(&self) -> u32 {
        self.scheduler.machine().n_clusters as u32
    }

    /// Schedule the remainder epilogue (the original body, `r` iterations), or
    /// `None` when there is nothing left over.
    fn remainder_epilogue(
        &self,
        graph: &DepGraph,
        r: u64,
    ) -> Result<Option<RemainderEpilogue>, ScheduleError> {
        if r == 0 {
            return Ok(None);
        }
        let original = self.scheduler.schedule_loop(graph)?;
        Ok(Some(RemainderEpilogue {
            schedule: original.schedule,
            iterations: r,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Policy, Scheduler};
    use vliw_arch::{BusConfig, MachineConfig, OpClass};
    use vliw_ddg::GraphBuilder;
    use vliw_sms::{ModuloSchedule, ScheduleDiagnostics, ScheduledLoop};

    /// A loop body with plenty of intra-iteration value traffic but no loop-carried
    /// dependences: the classic case where unrolling lets each cluster run its own
    /// iteration.
    fn parallel_loop() -> DepGraph {
        GraphBuilder::new("parallel")
            .iterations(400)
            .node("l0", OpClass::Load)
            .node("l1", OpClass::Load)
            .node("m0", OpClass::FpMul)
            .node("a0", OpClass::FpAdd)
            .node("a1", OpClass::FpAdd)
            .node("s0", OpClass::Store)
            .flow("l0", "m0")
            .flow("l1", "a0")
            .flow("m0", "a0")
            .flow("a0", "a1")
            .flow("m0", "a1")
            .flow("a1", "s0")
            .build()
    }

    #[test]
    fn policy_labels_match_the_paper() {
        assert_eq!(UnrollPolicy::None.label(), "No unrolling");
        assert_eq!(UnrollPolicy::ByClusters.label(), "Unrolling");
        assert_eq!(UnrollPolicy::Selective.label(), "Selective unrolling");
        assert_eq!(UnrollPolicy::Fixed(3).label(), "Unroll x3");
        assert_eq!(
            UnrollPolicy::Explore { max_factor: 8 }.label(),
            "Explore <=x8"
        );
        assert_eq!(UnrollPolicy::ALL.len(), 3);
    }

    #[test]
    fn no_unrolling_keeps_factor_one() {
        let machine = MachineConfig::two_cluster(1, 1);
        let driver = SelectiveUnroller::new(Scheduler::new(Policy::Bsa, &machine));
        let g = parallel_loop();
        let r = driver.schedule_with_policy(&g, UnrollPolicy::None).unwrap();
        assert_eq!(r.unroll_factor, 1);
        assert_eq!(r.scheduled_graph.n_nodes(), g.n_nodes());
        assert!(r.remainder.is_none());
    }

    #[test]
    fn by_clusters_policy_unrolls_by_cluster_count() {
        let machine = MachineConfig::four_cluster(1, 1);
        let driver = SelectiveUnroller::new(Scheduler::new(Policy::Bsa, &machine));
        let g = parallel_loop();
        let r = driver
            .schedule_with_policy(&g, UnrollPolicy::ByClusters)
            .unwrap();
        assert_eq!(r.unroll_factor, 4);
        assert_eq!(r.scheduled_graph.n_nodes(), g.n_nodes() * 4);
        // Accounting still refers to the original loop.
        assert_eq!(r.original_ops, g.n_nodes());
        assert_eq!(r.original_iterations, 400);
    }

    #[test]
    fn by_clusters_policy_on_unified_machine_is_a_no_op() {
        let machine = MachineConfig::unified();
        let driver = SelectiveUnroller::new(Scheduler::new(Policy::UnifiedSms, &machine));
        let g = parallel_loop();
        let r = driver
            .schedule_with_policy(&g, UnrollPolicy::ByClusters)
            .unwrap();
        assert_eq!(r.unroll_factor, 1);
    }

    #[test]
    fn selective_policy_skips_loops_that_are_not_bus_limited() {
        // With 2 buses of latency 1 the parallel loop is not bus limited, so the
        // selective policy must not unroll it.
        let machine = MachineConfig::two_cluster(2, 1);
        let driver = SelectiveUnroller::new(Scheduler::new(Policy::Bsa, &machine));
        let g = parallel_loop();
        let r = driver
            .schedule_with_policy(&g, UnrollPolicy::Selective)
            .unwrap();
        assert_eq!(r.unroll_factor, 1);
    }

    #[test]
    fn selective_policy_never_loses_to_no_unrolling_by_much() {
        // On a bus-starved machine the selective policy must perform at least as well
        // as never unrolling (same loop, same scheduler).
        let machine = MachineConfig::four_cluster(1, 2);
        let driver = SelectiveUnroller::new(Scheduler::new(Policy::Bsa, &machine));
        let g = parallel_loop();
        let none = driver.schedule_with_policy(&g, UnrollPolicy::None).unwrap();
        let sel = driver
            .schedule_with_policy(&g, UnrollPolicy::Selective)
            .unwrap();
        assert!(
            sel.ipc() + 1e-9 >= none.ipc() * 0.99,
            "selective {} vs none {}",
            sel.ipc(),
            none.ipc()
        );
    }

    #[test]
    fn unroll_factor_tracks_cluster_count() {
        for n in [2usize, 4] {
            let machine = MachineConfig::clustered(n, 1, 1);
            let driver = SelectiveUnroller::new(Scheduler::new(Policy::Bsa, &machine));
            assert_eq!(driver.unroll_factor(), n as u32);
        }
    }

    /// The remainder-accounting bugfix, pinned: `NITER = 100`, `U = 3` must execute
    /// 33 kernel iterations of the unrolled body plus exactly one epilogue iteration
    /// of the original body — not 34 kernel iterations charging a phantom
    /// 2-iteration overshoot.
    #[test]
    fn fixed_policy_models_the_remainder_exactly() {
        let machine = MachineConfig::two_cluster(2, 1);
        let driver = SelectiveUnroller::new(Scheduler::new(Policy::Bsa, &machine));
        let g = parallel_loop().with_iterations(100);
        let r = driver
            .schedule_with_policy(&g, UnrollPolicy::Fixed(3))
            .unwrap();
        assert_eq!(r.unroll_factor, 3);
        assert_eq!(r.scheduled_graph.iterations, 33);
        let rem = r.remainder.as_ref().expect("3 does not divide 100");
        assert_eq!(rem.iterations, 1);

        // Cross-check the pinned accounting against independently produced
        // schedules of the kernel and the original body (scheduling is
        // deterministic): cycles = (33 + SC_k − 1)·II_k + (1 + SC_o − 1)·II_o,
        // useful ops = the original 6 ops × 100 iterations.
        let scheduler = Scheduler::new(Policy::Bsa, &machine);
        let kernel = scheduler
            .schedule_loop(&vliw_ddg::unroll_exact(&g, 3).kernel)
            .unwrap();
        let original = scheduler.schedule_loop(&g).unwrap();
        let expected_cycles = kernel.schedule.cycles_for(33) + original.schedule.cycles_for(1);
        assert_eq!(r.cycles_per_invocation(), expected_cycles);
        assert_eq!(
            r.epilogue_cycles_per_invocation(),
            original.schedule.cycles_for(1)
        );
        assert_eq!(r.total_useful_ops(), 6 * 100);
        let expected_ipc = 600.0 / expected_cycles as f64;
        assert!((r.ipc() - expected_ipc).abs() < 1e-12);
    }

    #[test]
    fn fixed_policy_with_a_dividing_factor_has_no_epilogue() {
        let machine = MachineConfig::two_cluster(2, 1);
        let driver = SelectiveUnroller::new(Scheduler::new(Policy::Bsa, &machine));
        let g = parallel_loop(); // 400 iterations
        let r = driver
            .schedule_with_policy(&g, UnrollPolicy::Fixed(4))
            .unwrap();
        assert_eq!(r.unroll_factor, 4);
        assert_eq!(r.scheduled_graph.iterations, 100);
        assert!(r.remainder.is_none());
    }

    #[test]
    fn fixed_policy_degenerate_factors_fall_back_to_the_original() {
        let machine = MachineConfig::two_cluster(2, 1);
        let driver = SelectiveUnroller::new(Scheduler::new(Policy::Bsa, &machine));
        let g = parallel_loop().with_iterations(5);
        for factor in [0u32, 1, 6, 100] {
            let r = driver
                .schedule_with_policy(&g, UnrollPolicy::Fixed(factor))
                .unwrap();
            assert_eq!(r.unroll_factor, 1, "factor {factor}");
            assert!(r.remainder.is_none());
        }
    }

    #[test]
    fn explore_picks_a_factor_no_worse_than_none() {
        for machine in [
            MachineConfig::two_cluster(1, 1),
            MachineConfig::four_cluster(1, 2),
        ] {
            let driver = SelectiveUnroller::new(Scheduler::new(Policy::Bsa, &machine));
            let g = parallel_loop();
            let none = driver.schedule_with_policy(&g, UnrollPolicy::None).unwrap();
            let explored = driver
                .schedule_with_policy(&g, UnrollPolicy::Explore { max_factor: 6 })
                .unwrap();
            assert!(
                explored.ipc() >= none.ipc(),
                "{}: explore {} < none {}",
                machine.name,
                explored.ipc(),
                none.ipc()
            );
            assert!(explored.unroll_factor >= 1);
            assert!(explored.unroll_factor <= 6);
        }
    }

    #[test]
    fn explore_respects_the_code_size_budget() {
        // A zero budget rules every unrolled candidate out: the winner must be the
        // factor-1 schedule no matter how profitable unrolling would be.
        let machine = MachineConfig::four_cluster(1, 1);
        let driver = SelectiveUnroller::new(Scheduler::new(Policy::Bsa, &machine))
            .with_explore_code_growth(0.0);
        let g = parallel_loop();
        let r = driver
            .schedule_with_policy(&g, UnrollPolicy::Explore { max_factor: 8 })
            .unwrap();
        assert_eq!(r.unroll_factor, 1);
    }

    #[test]
    fn explore_with_trivial_max_factor_is_none() {
        let machine = MachineConfig::two_cluster(1, 1);
        let driver = SelectiveUnroller::new(Scheduler::new(Policy::Bsa, &machine));
        let g = parallel_loop();
        let none = driver.schedule_with_policy(&g, UnrollPolicy::None).unwrap();
        let r = driver
            .schedule_with_policy(&g, UnrollPolicy::Explore { max_factor: 1 })
            .unwrap();
        assert_eq!(r.unroll_factor, 1);
        assert_eq!(r.ipc(), none.ipc());
    }

    /// A canned scheduler that reports a fixed II with bus-limited diagnostics, so
    /// the Figure-6 decision can be pinned at the exact boundary `cycneeded == II`.
    struct StubScheduler {
        machine: MachineConfig,
        ii: u32,
    }

    impl LoopScheduler for StubScheduler {
        fn machine(&self) -> &MachineConfig {
            &self.machine
        }

        fn schedule_loop(&self, graph: &DepGraph) -> Result<ScheduledLoop, ScheduleError> {
            Ok(ScheduledLoop {
                schedule: ModuloSchedule::new(&graph.name, graph.n_nodes(), self.ii, 1),
                diagnostics: ScheduleDiagnostics {
                    ii: self.ii,
                    mii: 1,
                    res_mii: 1,
                    rec_mii: 1,
                    limiting: LimitingResource::Bus,
                    ii_trajectory: Vec::new(),
                    n_comms: 0,
                    max_live_per_cluster: vec![0; self.machine.n_clusters],
                    fuel: None,
                    rung: None,
                },
            })
        }
    }

    /// One loop-carried flow dependence at odd distance on a 2-cluster, 1-bus,
    /// latency-1 machine: `comneeded = 1 × 2`, `cycneeded = ⌈2/1⌉ × 1 = 2`.
    fn boundary_graph() -> DepGraph {
        let mut g = DepGraph::new("boundary");
        let a = g.add_named_node(OpClass::FpAdd, Some("a"));
        let b = g.add_named_node(OpClass::FpMul, Some("b"));
        g.add_edge(a, b, 1, 0, vliw_ddg::DepKind::Flow);
        g.add_edge(b, a, 1, 1, vliw_ddg::DepKind::Flow);
        g.with_iterations(64)
    }

    /// A machine without buses has no transfer capacity: the estimate is 0 only when
    /// the unrolled body needs no transfer at all.
    #[test]
    fn fig6_cycneeded_without_buses_does_not_divide_by_zero() {
        let mut machine = MachineConfig::two_cluster(1, 1);
        machine.buses = BusConfig::none();
        let unroller = SelectiveUnroller::new(StubScheduler { machine, ii: 2 });
        assert_eq!(unroller.fig6_cycneeded(&boundary_graph(), 2), u64::MAX);
        // Factor 1 splits no dependence, so nothing needs to cross a bus.
        assert_eq!(unroller.fig6_cycneeded(&boundary_graph(), 1), 0);
    }

    /// Figure-6 boundary: the predicate is strictly `cycneeded < II`, so a
    /// bus-limited schedule whose II *equals* the estimated bus cycles must NOT be
    /// unrolled — and one cycle of headroom must flip the decision.
    #[test]
    fn selective_predicate_is_strict_at_the_boundary() {
        let machine = MachineConfig::two_cluster(1, 1);
        let g = boundary_graph();
        let at_boundary = SelectiveUnroller::new(StubScheduler {
            machine: machine.clone(),
            ii: 2,
        });
        assert_eq!(at_boundary.fig6_cycneeded(&g, 2), 2);
        let r = at_boundary
            .schedule_with_policy(&g, UnrollPolicy::Selective)
            .unwrap();
        assert_eq!(r.unroll_factor, 1, "cycneeded == II must keep the original");

        let above_boundary = SelectiveUnroller::new(StubScheduler { machine, ii: 3 });
        let r = above_boundary
            .schedule_with_policy(&g, UnrollPolicy::Selective)
            .unwrap();
        assert_eq!(r.unroll_factor, 2, "cycneeded < II must unroll");
    }
}
