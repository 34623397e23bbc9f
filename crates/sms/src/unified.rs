#[cfg(test)]
mod tests {
    use crate::{IiSearchDriver, ModuloSchedule, ScheduleError};
    use vliw_arch::{MachineConfig, OpClass};
    use vliw_ddg::{mii, DepGraph, DepKind, GraphBuilder};

    fn sms(machine: &MachineConfig, g: &DepGraph) -> Result<ModuloSchedule, ScheduleError> {
        IiSearchDriver::new(machine)
            .schedule_unified(g)
            .map(|out| out.schedule)
    }

    fn saxpy() -> DepGraph {
        GraphBuilder::new("saxpy")
            .iterations(1000)
            .node("lx", OpClass::Load)
            .node("ly", OpClass::Load)
            .node("mul", OpClass::FpMul)
            .node("add", OpClass::FpAdd)
            .node("st", OpClass::Store)
            .node("ix", OpClass::IntAlu)
            .flow("lx", "mul")
            .flow("mul", "add")
            .flow("ly", "add")
            .flow("add", "st")
            .flow_at("ix", "ix", 1)
            .flow("ix", "lx")
            .flow("ix", "ly")
            .flow("ix", "st")
            .build()
    }

    /// Check that a schedule respects every dependence: for each edge u -> v,
    /// t(v) >= t(u) + latency - II * distance.
    fn assert_dependences_hold(graph: &DepGraph, sched: &ModuloSchedule) {
        for e in graph.edges() {
            let tu = sched.placement(e.src).unwrap().cycle;
            let tv = sched.placement(e.dst).unwrap().cycle;
            assert!(
                tv >= tu + e.latency as i64 - sched.ii() as i64 * e.distance as i64,
                "dependence {:?} violated: t({})={} t({})={} II={}",
                e.kind,
                graph.node(e.src).label(),
                tu,
                graph.node(e.dst).label(),
                tv,
                sched.ii()
            );
        }
    }

    /// Check that no functional unit is used twice in the same kernel row.
    fn assert_no_resource_conflicts(sched: &ModuloSchedule) {
        use std::collections::HashSet;
        let mut used = HashSet::new();
        for p in sched.placements() {
            let key = (p.fu, p.cycle.rem_euclid(sched.ii() as i64));
            assert!(used.insert(key), "functional unit {:?} overbooked", p.fu);
        }
    }

    #[test]
    fn saxpy_schedules_at_mii_on_unified_machine() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = sms(&machine, &g).unwrap();
        assert!(sched.is_complete());
        assert_eq!(sched.ii(), mii(&g, &machine));
        assert_dependences_hold(&g, &sched);
        assert_no_resource_conflicts(&sched);
    }

    #[test]
    fn resource_bound_loops_reach_res_mii() {
        // 9 independent loads on a machine with 4 memory units: II must be 3.
        let machine = MachineConfig::unified();
        let mut b = GraphBuilder::new("loads");
        for i in 0..9 {
            b = b.node(&format!("l{i}"), OpClass::Load);
        }
        let g = b.build();
        let sched = sms(&machine, &g).unwrap();
        assert_eq!(sched.ii(), 3);
        assert_no_resource_conflicts(&sched);
    }

    #[test]
    fn recurrence_bound_loops_reach_rec_mii() {
        let machine = MachineConfig::unified();
        let g = GraphBuilder::new("acc")
            .node("add", OpClass::FpAdd)
            .node("ld", OpClass::Load)
            .node("st", OpClass::Store)
            .flow("ld", "add")
            .flow_at("add", "add", 1)
            .flow("add", "st")
            .build();
        let sched = sms(&machine, &g).unwrap();
        assert_eq!(sched.ii(), 3); // fadd latency over distance 1
        assert_dependences_hold(&g, &sched);
    }

    #[test]
    fn narrow_machine_forces_larger_ii() {
        // The same saxpy body on a 1-FU-per-kind machine: ResMII grows.
        let machine = MachineConfig::new(
            "narrow",
            1,
            vliw_arch::ClusterConfig::new(1, 1, 1, 64),
            vliw_arch::BusConfig::none(),
            vliw_arch::LatencyModel::table1(),
        );
        let g = saxpy();
        let sched = sms(&machine, &g).unwrap();
        assert_eq!(sched.ii(), mii(&g, &machine));
        assert!(sched.ii() >= 3); // 3 memory operations on one memory unit
        assert_no_resource_conflicts(&sched);
        assert_dependences_hold(&g, &sched);
    }

    #[test]
    fn stage_count_reflects_pipeline_depth() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = sms(&machine, &g).unwrap();
        // The critical path (load 2 + fmul 4 + fadd 3 + store) is ~10 cycles, so with a
        // small II several stages must overlap.
        assert!(sched.stage_count() >= 3, "SC = {}", sched.stage_count());
    }

    #[test]
    fn cycles_follow_the_paper_formula() {
        let machine = MachineConfig::unified();
        let g = saxpy();
        let sched = sms(&machine, &g).unwrap();
        let niter = 1000;
        assert_eq!(
            sched.cycles_for(niter),
            (niter + sched.stage_count() as u64 - 1) * sched.ii() as u64
        );
    }

    #[test]
    fn register_check_can_raise_ii() {
        // A machine with a tiny register file forces a larger II (longer lifetimes per
        // row are spread over more rows, lowering MaxLive).
        let tiny = MachineConfig::new(
            "tiny-regs",
            1,
            vliw_arch::ClusterConfig::new(4, 4, 4, 2),
            vliw_arch::BusConfig::none(),
            vliw_arch::LatencyModel::table1(),
        );
        let g = saxpy();
        let mut roomy = tiny.clone();
        roomy.cluster.registers = 1 << 20;
        let relaxed_sched = sms(&roomy, &g).unwrap();
        match sms(&tiny, &g) {
            Ok(s) => assert!(s.ii() >= relaxed_sched.ii()),
            Err(ScheduleError::MaxIiExceeded { .. }) => {} // also acceptable: never fits
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn invalid_graph_is_rejected() {
        let machine = MachineConfig::unified();
        let mut g = DepGraph::new("bad");
        let a = g.add_node(OpClass::IntAlu);
        g.add_edge(a, a, 1, 0, DepKind::Flow);
        let err = sms(&machine, &g).unwrap_err();
        assert!(matches!(err, ScheduleError::InvalidGraph(_)));
    }

    #[test]
    fn empty_graph_schedules_trivially() {
        let machine = MachineConfig::unified();
        let g = DepGraph::new("empty");
        let sched = sms(&machine, &g).unwrap();
        assert!(sched.is_complete());
        assert_eq!(sched.ii(), 1);
    }

    #[test]
    fn every_spec_like_shape_schedules() {
        // A few structurally different loop shapes, all must schedule without panics
        // and respect dependences.
        let machine = MachineConfig::unified();
        let shapes = vec![
            GraphBuilder::new("reduction")
                .node("l", OpClass::Load)
                .node("m", OpClass::FpMul)
                .node("a", OpClass::FpAdd)
                .flow("l", "m")
                .flow("m", "a")
                .flow_at("a", "a", 1)
                .build(),
            GraphBuilder::new("stencil")
                .node("l0", OpClass::Load)
                .node("l1", OpClass::Load)
                .node("l2", OpClass::Load)
                .node("a0", OpClass::FpAdd)
                .node("a1", OpClass::FpAdd)
                .node("m", OpClass::FpMul)
                .node("s", OpClass::Store)
                .flow("l0", "a0")
                .flow("l1", "a0")
                .flow("a0", "a1")
                .flow("l2", "a1")
                .flow("a1", "m")
                .flow("m", "s")
                .build(),
            GraphBuilder::new("divider")
                .node("l", OpClass::Load)
                .node("d", OpClass::FpDiv)
                .node("s", OpClass::Store)
                .flow("l", "d")
                .flow("d", "s")
                .build(),
        ];
        for g in shapes {
            let sched = sms(&machine, &g).unwrap();
            assert_dependences_hold(&g, &sched);
            assert_no_resource_conflicts(&sched);
        }
    }
}
