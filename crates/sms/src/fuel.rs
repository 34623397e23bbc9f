//! Deterministic fuel budgets for the II search.
//!
//! A [`FuelBudget`] bounds the *counted work* of one [`crate::IiSearchDriver`] run —
//! its placement probes — so a pathological loop cannot burn unbounded time inside
//! a sweep or a scheduling service; ordering attempts and II steps are counted
//! next to the probes.  Because the units are counters of deterministic engine
//! events (never wall clock), a budgeted run spends
//! exactly the same fuel on every machine, at every thread count, on every repeat:
//! budgeted results are bit-reproducible.  An *optional* wall-clock [`Deadline`] can
//! be layered on top for service deployments that need a hard latency bound and are
//! willing to give up reproducibility when it fires.
//!
//! The driver threads a [`FuelMeter`] through the search; when the probe budget
//! runs out the search stops with
//! [`crate::ScheduleError::BudgetExhausted`] carrying the exact [`FuelSpent`]
//! counters, which also surface in
//! [`crate::ScheduleDiagnostics::fuel`] on success.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// A wall-clock deadline (service use only — *not* deterministic).
///
/// Checked once per II step, the coarsest metering point, so the common fast path
/// never reads the clock more than a handful of times per loop.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Self {
            at: Instant::now() + timeout,
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// Limits on the counted work of one scheduling run: a probe cap and an optional
/// deadline, both `None` (unlimited) by default.  Attempts and II steps are
/// counted in [`FuelSpent`] but not capped.
#[derive(Debug, Clone, Copy, Default)]
pub struct FuelBudget {
    /// Maximum number of placement probes ([`crate::EngineView::probe`] calls)
    /// across the whole search.
    pub max_probes: Option<u64>,
    /// Optional wall-clock deadline (see [`Deadline`] for the determinism caveat).
    pub deadline: Option<Deadline>,
}

impl FuelBudget {
    /// The unlimited budget (no probe cap, no deadline).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A probe-bounded budget — the finest-grained and most useful single knob:
    /// probes dominate engine work, so this caps total effort roughly uniformly
    /// across loop shapes.
    pub fn probes(n: u64) -> Self {
        Self {
            max_probes: Some(n),
            ..Self::default()
        }
    }

    /// Attach a wall-clock deadline `timeout` from now.
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Deadline::after(timeout));
        self
    }
}

/// The fuel actually consumed by a scheduling run, in the same units as
/// [`FuelBudget`].  Deterministic: identical inputs and budget produce identical
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FuelSpent {
    /// Placement probes evaluated.
    pub probes: u64,
    /// Scheduling attempts (orderings) started.
    pub attempts: u64,
    /// Candidate IIs explored.
    pub ii_steps: u64,
}

impl FuelSpent {
    /// Accumulate another run's counters (the ladder sums its rungs).
    pub fn absorb(&mut self, other: FuelSpent) {
        self.probes += other.probes;
        self.attempts += other.attempts;
        self.ii_steps += other.ii_steps;
    }

    /// Total counted events across all dimensions.
    pub fn total(&self) -> u64 {
        self.probes + self.attempts + self.ii_steps
    }
}

/// Why a meter stopped granting fuel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuelStop {
    /// The probe budget ran out.
    Exhausted,
    /// The wall-clock deadline expired.
    DeadlineExpired,
}

/// The running meter the driver threads through one search: counts events against a
/// [`FuelBudget`] and remembers why it first refused.
#[derive(Debug, Clone)]
pub struct FuelMeter {
    budget: FuelBudget,
    spent: FuelSpent,
    stop: Option<FuelStop>,
}

impl FuelMeter {
    /// A meter over `budget`.
    pub fn new(budget: FuelBudget) -> Self {
        Self {
            budget,
            spent: FuelSpent::default(),
            stop: None,
        }
    }

    /// Charge one placement probe; `false` once the probe budget is exhausted.
    #[inline]
    pub fn spend_probe(&mut self) -> bool {
        if self.stop.is_some() {
            return false;
        }
        if let Some(max) = self.budget.max_probes {
            if self.spent.probes >= max {
                self.stop = Some(FuelStop::Exhausted);
                return false;
            }
        }
        self.spent.probes += 1;
        true
    }

    /// Charge one scheduling attempt; `false` once the meter has stopped.
    pub fn spend_attempt(&mut self) -> bool {
        if self.stop.is_some() {
            return false;
        }
        self.spent.attempts += 1;
        true
    }

    /// Charge one II step (also the deadline checkpoint); `false` once the meter
    /// has stopped or the deadline has expired.
    pub fn spend_ii_step(&mut self) -> bool {
        if self.stop.is_some() {
            return false;
        }
        if let Some(deadline) = self.budget.deadline {
            if deadline.expired() {
                self.stop = Some(FuelStop::DeadlineExpired);
                return false;
            }
        }
        self.spent.ii_steps += 1;
        true
    }

    /// The first refusal cause, if the meter has stopped.
    pub fn stopped(&self) -> Option<FuelStop> {
        self.stop
    }

    /// The counters so far.
    pub fn spent(&self) -> FuelSpent {
        self.spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_refuses() {
        let mut m = FuelMeter::new(FuelBudget::unlimited());
        for _ in 0..10_000 {
            assert!(m.spend_probe());
        }
        assert!(m.spend_attempt());
        assert!(m.spend_ii_step());
        assert_eq!(m.stopped(), None);
        assert_eq!(m.spent().probes, 10_000);
        assert_eq!(m.spent().total(), 10_002);
    }

    #[test]
    fn probe_budget_exhausts_exactly_at_the_limit() {
        let mut m = FuelMeter::new(FuelBudget::probes(3));
        assert!(m.spend_probe());
        assert!(m.spend_probe());
        assert!(m.spend_probe());
        assert!(!m.spend_probe());
        assert_eq!(m.stopped(), Some(FuelStop::Exhausted));
        assert_eq!(m.spent().probes, 3);
        // Once stopped, every dimension refuses.
        assert!(!m.spend_attempt());
        assert!(!m.spend_ii_step());
        assert_eq!(m.spent().attempts, 0);
    }

    #[test]
    fn expired_deadline_reports_deadline_stop() {
        let mut m = FuelMeter::new(FuelBudget::unlimited().with_deadline(Duration::ZERO));
        assert!(!m.spend_ii_step());
        assert_eq!(m.stopped(), Some(FuelStop::DeadlineExpired));
    }

    #[test]
    fn fuel_spent_absorbs_and_roundtrips() {
        let mut a = FuelSpent {
            probes: 5,
            attempts: 2,
            ii_steps: 1,
        };
        a.absorb(FuelSpent {
            probes: 1,
            attempts: 1,
            ii_steps: 1,
        });
        assert_eq!(a.probes, 6);
        assert_eq!(a.total(), 11);
        let json = serde_json::to_string(&a).unwrap();
        let back: FuelSpent = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    fn budget_constructors_compose() {
        let b = FuelBudget::probes(10).with_deadline(Duration::from_secs(60));
        assert_eq!(b.max_probes, Some(10));
        assert!(b.deadline.is_some_and(|d| !d.expired()));
        let unlimited = FuelBudget::unlimited();
        assert!(unlimited.max_probes.is_none() && unlimited.deadline.is_none());
    }
}
