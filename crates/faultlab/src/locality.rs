//! Per-recovery-domain counters for hierarchical campaigns.
//!
//! N-level hierarchical recovery (§3.3.3 generalized) promises failure
//! *confinement*: a failure owned by one recovery domain is repaired with
//! control traffic that never leaves that domain. [`DomainRollup`]
//! accumulates, per domain, what each failure case cost — affected
//! members and aggregated receiver populations, restorations, control
//! messages, elections — and, crucially, how many control messages were
//! observed crossing the domain's border ([`DomainRollup::border_crossings`]).
//! A healthy hierarchical campaign rolls up to zero crossings everywhere;
//! any nonzero value is a confinement violation, not a tuning problem.

use serde::{Deserialize, Serialize};

/// Accumulated counters for one recovery domain across a campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DomainRollup {
    /// The domain's id within its topology.
    pub domain: u32,
    /// The domain's depth in the hierarchy (0 = root).
    pub level: u32,
    /// Cases whose failure this domain owned and repaired.
    pub cases_owned: u64,
    /// Real members that lost service across this domain's cases.
    pub affected_members: u64,
    /// Total receivers (members plus aggregated populations) that lost
    /// service across this domain's cases.
    pub affected_population: u64,
    /// Affected members that regained service within the run.
    pub restored_members: u64,
    /// Control messages this domain's session lanes sent across the
    /// campaign (all cases, owned or not — steady state included).
    pub control_messages: u64,
    /// Control messages of this domain's session observed on a link with
    /// an endpoint outside the domain's session node set. Must be zero:
    /// the DomainLocality invariant.
    pub border_crossings: u64,
    /// New-agent elections performed when this domain's border attachment
    /// died and a backup gateway took over.
    pub elections: u64,
    /// Cases owned by this domain that no in-domain detour (nor backup
    /// gateway) could repair.
    pub unrepairable: u64,
}

impl DomainRollup {
    /// A fresh rollup for `domain` at `level`.
    pub(crate) fn new(domain: u32, level: u32) -> Self {
        DomainRollup {
            domain,
            level,
            ..DomainRollup::default()
        }
    }
}

/// Campaign-level locality verdict over every domain's rollup.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalityHealth {
    /// Control messages observed crossing any domain border, summed.
    pub border_crossings: u64,
    /// Cases audited against the locality invariant.
    pub cases_audited: u64,
    /// Cases whose trace overflowed its buffer before the audit ran; the
    /// verdict for those is *unknown*, and a healthy campaign has none.
    pub cases_unaudited: u64,
}

impl LocalityHealth {
    /// Whether every audited case stayed confined and every case was
    /// audited.
    pub(crate) fn is_clean(&self) -> bool {
        self.border_crossings == 0 && self.cases_unaudited == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_health_gates_on_crossings_and_coverage() {
        let mut h = LocalityHealth {
            border_crossings: 0,
            cases_audited: 10,
            cases_unaudited: 0,
        };
        assert!(h.is_clean());
        h.border_crossings = 2;
        assert!(!h.is_clean());
        let partial = LocalityHealth {
            border_crossings: 0,
            cases_audited: 3,
            cases_unaudited: 1,
        };
        assert!(!partial.is_clean());
    }

    #[test]
    fn serializes_stably() {
        let r = DomainRollup {
            domain: 2,
            level: 1,
            cases_owned: 4,
            affected_members: 6,
            affected_population: 1_000_000,
            restored_members: 6,
            control_messages: 1234,
            border_crossings: 0,
            elections: 1,
            unrepairable: 0,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: DomainRollup = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
