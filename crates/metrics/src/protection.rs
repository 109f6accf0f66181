//! Protection-plane accounting, from one router to a whole campaign.
//!
//! Protection mode trades standing state (precomputed backup plans kept
//! warm on every on-tree node) for restoration speed (activation instead
//! of on-demand search). [`ProtectionHealth`] counts that trade — per
//! router, per group and, merged, per campaign slice: how many plans the
//! fleet held, how many activations actually fired, and how many plans
//! were discarded as stale — the counter that proves the safety property
//! "an activated plan is never used against a topology it was not
//! computed for" is doing work.

use serde::{Deserialize, Serialize};

/// Protection-plane counters of one router (or, after merging, one group,
/// run or campaign slice).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtectionHealth {
    /// Backup plans held across the fleet at capture time — the state
    /// overhead of keeping the protection plane warm. Zero for reactive
    /// runs.
    pub plans_held: u64,
    /// Cached plans executed (each counts one graft initiated from a
    /// plan cache, in either mode).
    pub activations: u64,
    /// Plans discarded because their path crossed a component presumed
    /// dead: each is a graft into a dead topology that did *not* happen.
    pub stale_discards: u64,
}

impl ProtectionHealth {
    /// Accumulates `other` into `self`. `plans_held` is a gauge summed
    /// across routers (total standing state), like the counters.
    pub fn merge(&mut self, other: &ProtectionHealth) {
        self.plans_held += other.plans_held;
        self.activations += other.activations;
        self.stale_discards += other.stale_discards;
    }

    /// Merges an iterator of slices into one aggregate.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a ProtectionHealth>) -> ProtectionHealth {
        let mut total = ProtectionHealth::default();
        for p in parts {
            total.merge(p);
        }
        total
    }

    /// Whether nothing at all was recorded (reactive run that never
    /// touched a plan cache).
    pub fn is_quiet(&self) -> bool {
        *self == ProtectionHealth::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = ProtectionHealth {
            plans_held: 5,
            activations: 1,
            stale_discards: 0,
        };
        a.merge(&ProtectionHealth {
            plans_held: 3,
            activations: 2,
            stale_discards: 1,
        });
        assert_eq!(a.plans_held, 8);
        assert_eq!(a.activations, 3);
        assert_eq!(a.stale_discards, 1);
        assert!(!a.is_quiet());
        assert!(ProtectionHealth::default().is_quiet());
    }

    #[test]
    fn merged_rolls_up_slices() {
        let a = ProtectionHealth {
            plans_held: 2,
            ..ProtectionHealth::default()
        };
        let b = ProtectionHealth {
            activations: 4,
            stale_discards: 1,
            ..ProtectionHealth::default()
        };
        let total = ProtectionHealth::merged([&a, &b]);
        assert_eq!(total.plans_held, 2);
        assert_eq!(total.activations, 4);
        assert_eq!(total.stale_discards, 1);
        assert!(ProtectionHealth::merged([]).is_quiet());
    }

    #[test]
    fn serializes_stably() {
        let h = ProtectionHealth {
            plans_held: 7,
            activations: 2,
            stale_discards: 1,
        };
        let json = serde_json::to_string(&h).unwrap();
        let back: ProtectionHealth = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
