//! Cooperative work budgets for long-running kernels.
//!
//! A [`Budget`] is threaded by reference through the hot paths of the
//! workspace (embedding layers, incremental refreshes, the OP-insertion
//! flow). Each path *charges* the budget for the work it is about to do,
//! in **embedding-row units** (one unit = one embedding row computed at
//! one GCN layer: a full pass charges the node count per layer, a
//! dirty-halo patch or a filtered cascade stage only the rows it
//! recomputes), and the charge fails once the cap is spent — turning an
//! unbounded computation into one that stops at a well-defined checkpoint
//! with a typed error instead of blowing a wall-clock deadline from the
//! inside.
//!
//! Two properties make the unit deliberate:
//!
//! * **Deterministic.** Row counts do not depend on machine load, so a
//!   budgeted run is exactly reproducible — the serving layer's
//!   degradation decisions (and their tests) stay bit-stable.
//! * **Proportional.** Rows are the dominant cost of every inference
//!   path, so a row cap tracks wall-clock time closely enough for
//!   admission control; callers translate deadlines into row caps.
//!
//! The `cost_multiplier` exists for fault injection: a serving layer
//! under test can make every unit of work "cost" 10× to simulate a
//! machine running 10× slow, without sleeping.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{Result, TensorError};

/// A cooperative work budget: a cap on embedding-row units. Cheap to
/// probe; shared by reference.
#[derive(Debug)]
pub struct Budget {
    /// Maximum units chargeable; `None` = unlimited.
    cap: Option<u64>,
    /// Units charged so far (after the multiplier).
    spent: AtomicU64,
    /// Every charged unit costs this many budget units (fault injection:
    /// a slow machine is simulated by a multiplier > 1).
    cost_multiplier: u64,
}

impl Budget {
    /// A budget that never runs out.
    pub fn unlimited() -> Self {
        Budget {
            cap: None,
            spent: AtomicU64::new(0),
            cost_multiplier: 1,
        }
    }

    /// A budget capped at `cap` embedding-row units.
    pub fn with_cap(cap: u64) -> Self {
        Budget {
            cap: Some(cap),
            ..Budget::unlimited()
        }
    }

    /// Makes every charged unit cost `multiplier` budget units
    /// (clamped to at least 1). Used by fault injection to simulate an
    /// `N`× slower machine deterministically.
    pub fn with_cost_multiplier(mut self, multiplier: u64) -> Self {
        self.cost_multiplier = multiplier.max(1);
        self
    }

    /// Units charged so far (after the cost multiplier).
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// Units still chargeable; `None` for an unlimited budget.
    pub fn remaining(&self) -> Option<u64> {
        self.cap.map(|c| c.saturating_sub(self.spent()))
    }

    /// Whether `units` of work (scaled by the cost multiplier) still fit
    /// under the cap — always true for an unlimited budget. Spends nothing.
    /// A caller that knows a step's whole cost up front asks this instead
    /// of charging its way into the overrun, so the budget stays intact
    /// for a cheaper alternative.
    pub fn can_afford(&self, units: u64) -> bool {
        self.remaining()
            .is_none_or(|left| units.saturating_mul(self.cost_multiplier) <= left)
    }

    /// Charges `units` of work (scaled by the cost multiplier) against
    /// the budget. `charge(0)` is a pure checkpoint probe: it still
    /// observes an already-spent cap.
    ///
    /// The charge is best-effort precise: the work is charged *before*
    /// it happens, so a path that checks its budget between layers stops
    /// at the layer boundary that would overrun, not after it.
    ///
    /// # Errors
    ///
    /// [`TensorError::BudgetExceeded`] if the charge overruns the cap.
    pub fn charge(&self, units: u64) -> Result<()> {
        let cost = units.saturating_mul(self.cost_multiplier);
        let before = self.spent.fetch_add(cost, Ordering::Relaxed);
        if let Some(cap) = self.cap {
            let after = before.saturating_add(cost);
            if after > cap || (cost == 0 && before >= cap) {
                gcnt_obs::global().incr(gcnt_obs::counters::TENSOR_BUDGET_STOPS);
                return Err(TensorError::BudgetExceeded { spent: after, cap });
            }
        }
        Ok(())
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_fails() {
        let b = Budget::unlimited();
        for _ in 0..100 {
            b.charge(u64::MAX / 200).unwrap();
        }
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn capped_budget_fails_at_the_boundary() {
        let b = Budget::with_cap(10);
        b.charge(6).unwrap();
        b.charge(4).unwrap();
        assert_eq!(b.remaining(), Some(0));
        let err = b.charge(1).unwrap_err();
        assert!(matches!(err, TensorError::BudgetExceeded { cap: 10, .. }));
        // A zero-cost probe on a spent budget also fails.
        assert!(matches!(
            b.charge(0),
            Err(TensorError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn zero_probe_passes_while_budget_remains() {
        let b = Budget::with_cap(5);
        b.charge(0).unwrap();
        b.charge(4).unwrap();
        b.charge(0).unwrap();
    }

    #[test]
    fn overrunning_charge_is_rejected_before_the_work() {
        let b = Budget::with_cap(10);
        b.charge(8).unwrap();
        assert!(matches!(
            b.charge(5),
            Err(TensorError::BudgetExceeded { spent: 13, cap: 10 })
        ));
    }

    #[test]
    fn can_afford_compares_without_spending() {
        assert!(Budget::unlimited().can_afford(u64::MAX));
        let b = Budget::with_cap(100).with_cost_multiplier(10);
        b.charge(4).unwrap();
        // 60 units left: six rows fit at 10x, seven do not.
        assert!(b.can_afford(6));
        assert!(!b.can_afford(7));
        assert!(!b.can_afford(u64::MAX), "the scaled cost saturates");
        assert_eq!(b.spent(), 40, "asking costs nothing");
        b.charge(6).unwrap();
        assert!(b.can_afford(0) && !b.can_afford(1));
    }

    #[test]
    fn cost_multiplier_scales_charges() {
        let b = Budget::with_cap(100).with_cost_multiplier(10);
        b.charge(9).unwrap();
        assert_eq!(b.spent(), 90);
        assert!(matches!(
            b.charge(2),
            Err(TensorError::BudgetExceeded { .. })
        ));
    }
}
