//! Control-plane health counters for lossy-channel campaigns.
//!
//! When `smrp-faultlab` runs scenarios over a degraded channel, "the tree
//! was restored" is only half the story — the other half is what it cost
//! the control plane to get there: how many retransmissions the reliable
//! layer fired, how many duplicates it suppressed, whether any message ran
//! out of retry budget (the one condition that can silently strand a
//! member), and what the channel actually ate, per message class.
//! [`ControlHealth`] aggregates those counters across every router in a
//! run and merges across scenarios into campaign reports.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Aggregated control-plane health for one run (or, after merging, one
/// campaign slice).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlHealth {
    /// Reliable-layer retransmissions fired.
    pub retransmits: u64,
    /// Duplicate reliable messages suppressed at receivers.
    pub dup_drops: u64,
    /// Reliable messages abandoned after exhausting their retry budget.
    /// Nonzero values mean the reliability layer gave up somewhere — the
    /// campaign treats this as a failure signal.
    pub retry_exhaustions: u64,
    /// Acks delivered back to senders.
    pub acks: u64,
    /// Always 0: the simulator's channel only loses messages, it never
    /// copies one. The field stays because pinned campaign reports
    /// serialize it; it leaves when `ControlHealth` moves out of this
    /// crate.
    pub channel_dupes: u64,
    /// Always 0: the channel never reorders a message. Kept, like
    /// [`channel_dupes`](Self::channel_dupes), for the pinned report
    /// bytes.
    pub channel_reorders: u64,
    /// Messages the channel lost, keyed by message class (`"setup"`,
    /// `"refresh"`, `"hello"`, `"data"`, ...).
    pub loss_by_class: BTreeMap<String, u64>,
}

impl ControlHealth {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &ControlHealth) {
        self.retransmits += other.retransmits;
        self.dup_drops += other.dup_drops;
        self.retry_exhaustions += other.retry_exhaustions;
        self.acks += other.acks;
        self.channel_dupes += other.channel_dupes;
        self.channel_reorders += other.channel_reorders;
        for (class, n) in &other.loss_by_class {
            *self.loss_by_class.entry(class.clone()).or_insert(0) += n;
        }
    }

    /// Merges an iterator of health slices into one aggregate — the
    /// multi-session roll-up: per-group lane counters combine into one
    /// router-process view, per-group views into one campaign view.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a ControlHealth>) -> ControlHealth {
        let mut total = ControlHealth::default();
        for p in parts {
            total.merge(p);
        }
        total
    }

    /// Absorbs one reliable-delivery endpoint's counters (a router lane's
    /// view of retransmits, suppressed duplicates, exhausted retries and
    /// acks it sent). Every host of the router — the simulator's report
    /// builder and the daemon's introspection dump — rolls lanes up
    /// through this one definition, so their health numbers agree
    /// field-for-field.
    pub fn absorb_lane(&mut self, retransmits: u64, dup_drops: u64, exhaustions: u64, acks: u64) {
        self.retransmits += retransmits;
        self.dup_drops += dup_drops;
        self.retry_exhaustions += exhaustions;
        self.acks += acks;
    }

    /// Total messages lost by the channel across all classes.
    pub fn total_lost(&self) -> u64 {
        self.loss_by_class.values().sum()
    }

    /// Whether nothing at all was recorded (clean lossless run).
    pub fn is_quiet(&self) -> bool {
        *self == ControlHealth::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_everything() {
        let mut a = ControlHealth {
            retransmits: 3,
            dup_drops: 1,
            retry_exhaustions: 0,
            acks: 40,
            channel_dupes: 2,
            channel_reorders: 5,
            loss_by_class: [("setup".to_string(), 2), ("hello".to_string(), 7)]
                .into_iter()
                .collect(),
        };
        let b = ControlHealth {
            retransmits: 1,
            dup_drops: 0,
            retry_exhaustions: 1,
            acks: 10,
            channel_dupes: 0,
            channel_reorders: 1,
            loss_by_class: [("setup".to_string(), 1), ("data".to_string(), 4)]
                .into_iter()
                .collect(),
        };
        a.merge(&b);
        assert_eq!(a.retransmits, 4);
        assert_eq!(a.retry_exhaustions, 1);
        assert_eq!(a.acks, 50);
        assert_eq!(a.loss_by_class["setup"], 3);
        assert_eq!(a.loss_by_class["data"], 4);
        assert_eq!(a.total_lost(), 14);
        assert!(!a.is_quiet());
        assert!(ControlHealth::default().is_quiet());
    }

    #[test]
    fn merged_rolls_up_slices() {
        let a = ControlHealth {
            retransmits: 2,
            loss_by_class: [("hello".to_string(), 1)].into_iter().collect(),
            ..ControlHealth::default()
        };
        let b = ControlHealth {
            retransmits: 3,
            acks: 4,
            ..ControlHealth::default()
        };
        let total = ControlHealth::merged([&a, &b]);
        assert_eq!(total.retransmits, 5);
        assert_eq!(total.acks, 4);
        assert_eq!(total.total_lost(), 1);
        assert!(ControlHealth::merged([]).is_quiet());
    }

    #[test]
    fn serializes_stably() {
        let h = ControlHealth {
            retransmits: 2,
            loss_by_class: [("refresh".to_string(), 1)].into_iter().collect(),
            ..ControlHealth::default()
        };
        let json = serde_json::to_string(&h).unwrap();
        let back: ControlHealth = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
