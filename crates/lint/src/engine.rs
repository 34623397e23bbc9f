//! The kernel dataflow engine: gen/kill fixpoint over the `II` rows of a modulo
//! schedule.
//!
//! A software-pipelined kernel is a *ring* of `II` rows — row `II − 1` feeds back
//! into row `0` of the next kernel iteration — so every dataflow problem over it is
//! a fixpoint over a single-cycle CFG, in the style of rustc's MIR dataflow layer:
//! an analysis supplies a transfer function per row, the engine iterates sweeps
//! around the ring until no boundary state changes.  Every analysis here is
//! *backward* (facts flow against execution, as in liveness): row `r` feeds row
//! `(r − 1) mod II`.  Loop-carried dependences need no special casing — a fact
//! generated early in the kernel simply propagates across the wraparound into the
//! late rows, which is exactly how a value produced in stage `s` stays live until
//! its use in stage `s + d`.
//!
//! Convergence is guaranteed for monotone transfer functions because the domain is
//! a finite powerset lattice ([`BitSet`]) joined by union: every sweep that changes
//! anything strictly grows some boundary set, so at most `universe · rows` sweeps
//! can change anything.  The driver enforces that bound and panics past it, turning
//! an accidentally non-monotone transfer function into a loud failure instead of a
//! hang.

use crate::domain::BitSet;

/// One backward dataflow problem over the kernel rows of a modulo schedule.
pub trait KernelAnalysis {
    /// Number of kernel rows (the schedule's `II`).
    fn rows(&self) -> usize;

    /// Size of the bit universe (lattice width).
    fn universe(&self) -> usize;

    /// Apply row `row`'s transfer function to `state` in place: `state` is the
    /// exit (live-out) state of the row and becomes its entry (live-in) state.
    fn transfer(&self, row: usize, state: &mut BitSet);
}

/// Solve `analysis` to fixpoint; returns one boundary state per row: the state
/// *leaving* row `r` (the live-out set, including facts that crossed the
/// wraparound from row `0` into row `II − 1`).
///
/// The complementary state of a row is obtained by applying
/// [`KernelAnalysis::transfer`] to a clone of its boundary state.
pub fn fixpoint<A: KernelAnalysis + ?Sized>(analysis: &A) -> Vec<BitSet> {
    let rows = analysis.rows();
    let universe = analysis.universe();
    let mut boundary: Vec<BitSet> = (0..rows).map(|_| BitSet::new(universe)).collect();
    if rows == 0 || universe == 0 {
        return boundary;
    }
    // Each sweep that reports a change grew at least one boundary set by at least
    // one bit, so `universe · rows` changing sweeps exhaust the lattice.
    let cap = universe * rows + 1;
    let mut scratch = BitSet::new(universe);
    for sweep in 0.. {
        assert!(
            sweep <= cap,
            "dataflow fixpoint did not converge after {cap} sweeps: \
             a transfer function is not monotone"
        );
        let mut changed = false;
        for r in (0..rows).rev() {
            scratch.clear();
            scratch.union_with(&boundary[r]);
            analysis.transfer(r, &mut scratch);
            changed |= boundary[(r + rows - 1) % rows].union_with(&scratch);
        }
        if !changed {
            break;
        }
    }
    boundary
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy backward analysis: bit `b` is generated (used) at row `b` and killed
    /// (defined) at row `(b − k) mod rows`, i.e. each value is live for the `k`
    /// rows before its use.
    struct UseAfterDef {
        rows: usize,
        lifetime: usize,
    }

    impl KernelAnalysis for UseAfterDef {
        fn rows(&self) -> usize {
            self.rows
        }
        fn universe(&self) -> usize {
            self.rows
        }
        fn transfer(&self, row: usize, state: &mut BitSet) {
            // Kill before gen so a value defined and used in one row stays live-in.
            let defined = (row + self.lifetime) % self.rows;
            state.remove(defined);
            state.insert(row);
        }
    }

    #[test]
    fn backward_facts_wrap_around_the_kernel() {
        // 5 rows, lifetime 2: live-out of row r must hold exactly the values used
        // in the next 2 rows (the uses in rows 0 and 1 wrap back past row II − 1).
        let a = UseAfterDef {
            rows: 5,
            lifetime: 2,
        };
        let states = fixpoint(&a);
        for (r, s) in states.iter().enumerate() {
            let mut got: Vec<usize> = s.iter().collect();
            got.sort_unstable();
            let mut want = vec![(r + 1) % 5, (r + 2) % 5];
            want.sort_unstable();
            assert_eq!(got, want, "live-out state of row {r}");
        }
    }

    #[test]
    fn backward_mirrors_forward() {
        struct Live {
            rows: usize,
        }
        impl KernelAnalysis for Live {
            fn rows(&self) -> usize {
                self.rows
            }
            fn universe(&self) -> usize {
                1
            }
            fn transfer(&self, row: usize, state: &mut BitSet) {
                // Value defined at row 0, used at row 2: live-in of rows 1..=2.
                if row == 0 {
                    state.remove(0);
                }
                if row == 2 {
                    state.insert(0);
                }
            }
        }
        let states = fixpoint(&Live { rows: 4 });
        // Boundary = live-out per row: live-out of rows 0 and 1 (the value is on
        // its way to the use in row 2), dead after its use and across the wrap.
        assert!(states[0].contains(0));
        assert!(states[1].contains(0));
        assert!(!states[2].contains(0));
        assert!(!states[3].contains(0));
    }

    #[test]
    fn empty_problem_converges_immediately() {
        struct Empty;
        impl KernelAnalysis for Empty {
            fn rows(&self) -> usize {
                3
            }
            fn universe(&self) -> usize {
                0
            }
            fn transfer(&self, _row: usize, _state: &mut BitSet) {}
        }
        let states = fixpoint(&Empty);
        assert_eq!(states.len(), 3);
        assert!(states.iter().all(BitSet::is_empty));
    }
}
