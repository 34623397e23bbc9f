//! Seeded generation of one fuzz case: a random machine and a random loop.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vliw_arch::{MachineConfig, MachineSampler, MachineSpace};
use vliw_ddg::DepGraph;
use vliw_workloads::{GeneratorProfile, LoopGenerator};

/// One `(machine, loop)` pair of a campaign, reproducible from `seed` alone.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Position of the case in its campaign.
    pub index: u64,
    /// The case's own seed (derived from the campaign seed and `index`).
    pub seed: u64,
    /// The sampled machine configuration (always satisfies
    /// [`MachineConfig::validate`]).
    pub machine: MachineConfig,
    /// The generated loop body; its edge latencies follow `machine`'s latency model.
    pub graph: DepGraph,
    /// The sampled unroll factor (2–8, clamped to the loop's trip count) whose
    /// exactly-unrolled kernel the oracle additionally audits; a value below 2
    /// (degenerate trip count) opts the case out of the unroll audit.
    pub unroll_factor: u32,
}

/// SplitMix64 — the standard seed mixer; keeps per-case streams statistically
/// independent even though case indices are consecutive.  The fault planner
/// salts the same mixer.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generate case `index` of the campaign seeded with `campaign_seed`, drawing the
/// machine from `space`.  Deterministic: the same arguments always produce the same
/// pair, and each case is derived independently of every other (so campaigns can be
/// generated in parallel and any single case re-generated in isolation).
pub fn generate_case(campaign_seed: u64, index: u64, space: &MachineSpace) -> FuzzCase {
    let seed = mix(campaign_seed ^ mix(index));
    let machine = MachineSampler::new(space.clone(), seed).sample(format!("fuzz{index}"));
    let mut profile_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0050_F11E);
    let profile = GeneratorProfile::fuzz(&mut profile_rng);
    let graph = LoopGenerator::new(profile, seed ^ 0x100F)
        .with_latencies(machine.latencies.clone())
        .generate(&format!("fuzz{index}"));
    // Every case also carries a sampled unroll factor so the oracle can audit one
    // exactly-unrolled kernel per case.  Two clamps keep the audit sound and cheap:
    // a factor above NITER would leave the kernel with zero iterations (nothing to
    // audit), and a factor that blows a large body past ~96 kernel nodes buys no
    // coverage the small bodies don't already provide while making the II search
    // and replay disproportionately expensive — big bodies are audited at small
    // factors, small bodies across the whole 2..=8 axis.
    const MAX_UNROLLED_KERNEL_NODES: usize = 96;
    let sampled = 2 + (mix(seed ^ 0x006_FAC7) % 7) as u32;
    let size_cap = (MAX_UNROLLED_KERNEL_NODES / graph.n_nodes().max(1)).max(2) as u32;
    let unroll_factor = sampled.min(size_cap).min(graph.iterations as u32);
    FuzzCase {
        index,
        seed,
        machine,
        graph,
        unroll_factor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_and_valid() {
        let space = MachineSpace::default();
        for index in 0..40 {
            let a = generate_case(42, index, &space);
            let b = generate_case(42, index, &space);
            assert_eq!(a.machine, b.machine);
            assert_eq!(a.graph, b.graph);
            assert_eq!(a.unroll_factor, b.unroll_factor);
            a.machine.validate().expect("sampled machine is valid");
            a.graph.validate().expect("generated loop is valid");
        }
    }

    #[test]
    fn unroll_factors_are_in_range_and_cover_the_axis() {
        let space = MachineSpace::default();
        let mut seen = std::collections::BTreeSet::new();
        for index in 0..60 {
            let case = generate_case(42, index, &space);
            assert!(case.unroll_factor as u64 <= case.graph.iterations);
            assert!(case.unroll_factor <= 8);
            seen.insert(case.unroll_factor);
        }
        // The sampler must exercise most of the 2..=8 axis over 60 cases.
        assert!(seen.len() >= 5, "factors seen: {seen:?}");
    }

    #[test]
    fn different_campaign_seeds_or_indices_give_different_cases() {
        let space = MachineSpace::default();
        let a = generate_case(1, 0, &space);
        let b = generate_case(2, 0, &space);
        let c = generate_case(1, 1, &space);
        assert!(a.graph != b.graph || a.machine != b.machine);
        assert!(a.graph != c.graph || a.machine != c.machine);
    }

    #[test]
    fn loop_edge_latencies_follow_the_sampled_machine() {
        let space = MachineSpace::default();
        for index in 0..60 {
            let case = generate_case(7, index, &space);
            for e in case.graph.edges() {
                assert_eq!(
                    e.latency,
                    case.machine.latency(case.graph.node(e.src).class),
                    "case {index}: edge latency diverges from the machine model"
                );
            }
        }
    }
}
