//! Degraded-channel model: seeded per-link loss, duplication, reordering
//! and latency jitter.
//!
//! The engine's baseline channel is perfect — a message crossing a usable
//! link always arrives, exactly once, after the link's propagation delay.
//! Real control planes are not so lucky, least of all *during* the failure
//! events that restoration protocols exist to survive. A [`ChannelModel`]
//! sits between [`crate::Ctx::send`] and the event queue and, per
//! transmission, may:
//!
//! * **lose** the message (probability `loss`),
//! * **duplicate** it (probability `duplicate`; the copy takes an
//!   independent jitter draw, so duplicates arrive at distinct times),
//! * **delay** it by uniform jitter in `[0, jitter_ms)`,
//! * **reorder** it (probability `reorder`) by an extra uniform hold of up
//!   to `reorder_window_ms` — enough to land it behind later sends.
//!
//! All draws come from one [`SmallRng`] seeded by [`ChannelSpec::seed`],
//! consumed in event order, so a campaign case replays bit-identically for
//! any worker count. Per-link overrides model *gray* links — interfaces
//! that stay "up" while discarding a large fraction of traffic.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use smrp_net::LinkId;

/// Per-link degradation knobs. All probabilities are in `[0, 1]`; the
/// default is a perfect channel (all zeros).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelParams {
    /// Probability that a transmission is silently lost.
    pub loss: f64,
    /// Probability that a delivered transmission is duplicated once.
    pub duplicate: f64,
    /// Probability that a delivered transmission is held back long enough
    /// to arrive behind later traffic.
    pub reorder: f64,
    /// Maximum extra hold applied to reordered messages (milliseconds).
    pub reorder_window_ms: f64,
    /// Maximum uniform latency jitter added to every delivery
    /// (milliseconds).
    pub jitter_ms: f64,
}

impl ChannelParams {
    /// A perfect channel: nothing lost, duplicated, reordered or jittered.
    pub const PERFECT: ChannelParams = ChannelParams {
        loss: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        reorder_window_ms: 0.0,
        jitter_ms: 0.0,
    };

    /// Uniform loss at probability `p`, everything else perfect.
    pub fn lossy(p: f64) -> Self {
        ChannelParams {
            loss: p,
            ..ChannelParams::PERFECT
        }
    }

    /// Whether this is the perfect channel (lets the engine skip RNG draws
    /// entirely on clean links).
    pub(crate) fn is_perfect(&self) -> bool {
        *self == ChannelParams::PERFECT
    }

    fn validate(&self) {
        for (name, p) in [
            ("loss", self.loss),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "channel {name} probability out of range: {p}"
            );
        }
        assert!(self.reorder_window_ms >= 0.0 && self.jitter_ms >= 0.0);
    }
}

impl Default for ChannelParams {
    fn default() -> Self {
        ChannelParams::PERFECT
    }
}

/// A single-link override inside a [`ChannelSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkDegrade {
    /// The degraded link.
    pub link: LinkId,
    /// Its channel parameters (replacing the spec default entirely).
    pub params: ChannelParams,
}

/// Serializable description of a degraded channel: a default applied to
/// every link, per-link overrides for gray links, and the RNG seed.
///
/// A spec is an *address*, not an artifact — reconstructing a
/// [`ChannelModel`] from the same spec replays the same loss pattern, which
/// is what lets faultlab reproducers capture lossy cases exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelSpec {
    /// Parameters applied to links without an override.
    pub default: ChannelParams,
    /// Gray-link overrides.
    pub overrides: Vec<LinkDegrade>,
    /// Seed for the channel's RNG.
    pub seed: u64,
}

impl ChannelSpec {
    /// A perfect channel (no loss anywhere).
    pub fn perfect() -> Self {
        ChannelSpec {
            default: ChannelParams::PERFECT,
            overrides: Vec::new(),
            seed: 0,
        }
    }

    /// Uniform loss at probability `p` on every link.
    pub fn uniform_loss(p: f64, seed: u64) -> Self {
        ChannelSpec {
            default: ChannelParams::lossy(p),
            overrides: Vec::new(),
            seed,
        }
    }

    /// Whether the spec degrades nothing (perfect default, no overrides).
    pub fn is_perfect(&self) -> bool {
        self.default.is_perfect() && self.overrides.iter().all(|o| o.params.is_perfect())
    }
}

impl Default for ChannelSpec {
    fn default() -> Self {
        ChannelSpec::perfect()
    }
}

/// Counters of everything the channel did to traffic, split by message
/// class (see [`crate::NodeBehavior::classify`]) for losses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages lost, keyed by the sender-declared message class.
    pub lost_by_class: BTreeMap<&'static str, u64>,
    /// Extra copies injected.
    pub duplicated: u64,
    /// Messages held past their natural arrival order.
    pub reordered: u64,
}

/// The runtime channel: spec + RNG + stats.
#[derive(Debug, Clone)]
pub struct ChannelModel {
    default: ChannelParams,
    overrides: BTreeMap<LinkId, ChannelParams>,
    rng: SmallRng,
    stats: ChannelStats,
}

/// Outcome of pushing one message through the channel: the extra delay
/// (beyond link propagation) of each copy to deliver, held by value. No
/// copies means lost; two mean a duplicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transmit {
    delays_ms: [f64; 2],
    copies: u8,
}

impl Transmit {
    /// One copy, no extra delay: what a perfect link does.
    pub(crate) const PERFECT: Transmit = Transmit {
        delays_ms: [0.0; 2],
        copies: 1,
    };

    const LOST: Transmit = Transmit {
        delays_ms: [0.0; 2],
        copies: 0,
    };

    /// Extra delay in milliseconds for each delivered copy, in delivery
    /// scheduling order.
    pub(crate) fn delays_ms(&self) -> &[f64] {
        &self.delays_ms[..usize::from(self.copies)]
    }
}

impl ChannelModel {
    /// Builds the runtime model from a spec.
    ///
    /// # Panics
    ///
    /// Panics if any probability lies outside `[0, 1]` or any window is
    /// negative.
    pub fn new(spec: &ChannelSpec) -> Self {
        spec.default.validate();
        let mut overrides = BTreeMap::new();
        for o in &spec.overrides {
            o.params.validate();
            overrides.insert(o.link, o.params);
        }
        ChannelModel {
            default: spec.default,
            overrides,
            rng: SmallRng::seed_from_u64(spec.seed),
            stats: ChannelStats::default(),
        }
    }

    /// Parameters in effect on `link`.
    pub(crate) fn params_for(&self, link: LinkId) -> ChannelParams {
        self.overrides.get(&link).copied().unwrap_or(self.default)
    }

    /// What happened so far.
    pub(crate) fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Pushes one `class`-tagged message through `link`, drawing loss,
    /// jitter, reorder and duplication in that fixed order.
    pub fn transmit(&mut self, link: LinkId, class: &'static str) -> Transmit {
        let p = self.params_for(link);
        if p.is_perfect() {
            return Transmit::PERFECT;
        }
        if p.loss > 0.0 && self.rng.gen_bool(p.loss) {
            *self.stats.lost_by_class.entry(class).or_insert(0) += 1;
            return Transmit::LOST;
        }
        let mut first = self.draw_jitter(p.jitter_ms);
        if p.reorder > 0.0 && self.rng.gen_bool(p.reorder) {
            first += self.draw_jitter(p.reorder_window_ms);
            self.stats.reordered += 1;
        }
        let mut out = Transmit {
            delays_ms: [first, 0.0],
            copies: 1,
        };
        if p.duplicate > 0.0 && self.rng.gen_bool(p.duplicate) {
            out.delays_ms[1] = self.draw_jitter(p.jitter_ms.max(p.reorder_window_ms));
            out.copies = 2;
            self.stats.duplicated += 1;
        }
        out
    }

    fn draw_jitter(&mut self, window_ms: f64) -> f64 {
        if window_ms > 0.0 {
            self.rng.gen_range(0.0..window_ms)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(i: usize) -> LinkId {
        LinkId::new(i)
    }

    #[test]
    fn perfect_channel_passes_everything_untouched() {
        let mut ch = ChannelModel::new(&ChannelSpec::perfect());
        for _ in 0..100 {
            assert_eq!(ch.transmit(link(0), "m").delays_ms(), [0.0]);
        }
        assert!(ch.stats().lost_by_class.is_empty());
    }

    #[test]
    fn uniform_loss_drops_roughly_p() {
        let mut ch = ChannelModel::new(&ChannelSpec::uniform_loss(0.2, 7));
        let lost = (0..10_000)
            .filter(|_| ch.transmit(link(0), "m").delays_ms().is_empty())
            .count();
        assert!((1_600..=2_400).contains(&lost), "lost {lost} of 10000");
        assert_eq!(ch.stats().lost_by_class.get("m"), Some(&(lost as u64)));
    }

    #[test]
    fn same_seed_same_pattern() {
        let spec = ChannelSpec::uniform_loss(0.5, 42);
        let mut a = ChannelModel::new(&spec);
        let mut b = ChannelModel::new(&spec);
        for _ in 0..500 {
            assert_eq!(a.transmit(link(3), "x"), b.transmit(link(3), "x"));
        }
    }

    #[test]
    fn overrides_apply_per_link() {
        let spec = ChannelSpec {
            default: ChannelParams::PERFECT,
            overrides: vec![LinkDegrade {
                link: link(1),
                params: ChannelParams::lossy(1.0),
            }],
            seed: 0,
        };
        let mut ch = ChannelModel::new(&spec);
        assert_eq!(ch.transmit(link(0), "m").delays_ms().len(), 1);
        assert!(ch.transmit(link(1), "m").delays_ms().is_empty());
    }

    #[test]
    fn duplication_and_jitter_produce_extra_copies() {
        let spec = ChannelSpec {
            default: ChannelParams {
                loss: 0.0,
                duplicate: 1.0,
                reorder: 0.0,
                reorder_window_ms: 0.0,
                jitter_ms: 2.0,
            },
            overrides: Vec::new(),
            seed: 9,
        };
        let mut ch = ChannelModel::new(&spec);
        let t = ch.transmit(link(0), "m");
        assert_eq!(t.delays_ms().len(), 2);
        assert!(t.delays_ms().iter().all(|&d| (0.0..2.0).contains(&d)));
        assert_eq!(ch.stats().duplicated, 1);
    }

    #[test]
    fn reorder_holds_within_window() {
        let spec = ChannelSpec {
            default: ChannelParams {
                loss: 0.0,
                duplicate: 0.0,
                reorder: 1.0,
                reorder_window_ms: 10.0,
                jitter_ms: 0.0,
            },
            overrides: Vec::new(),
            seed: 11,
        };
        let mut ch = ChannelModel::new(&spec);
        let t = ch.transmit(link(0), "m");
        assert_eq!(t.delays_ms().len(), 1);
        assert!((0.0..10.0).contains(&t.delays_ms()[0]));
        assert_eq!(ch.stats().reordered, 1);
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = ChannelSpec {
            default: ChannelParams::lossy(0.1),
            overrides: vec![LinkDegrade {
                link: link(4),
                params: ChannelParams {
                    loss: 0.4,
                    duplicate: 0.05,
                    reorder: 0.1,
                    reorder_window_ms: 5.0,
                    jitter_ms: 1.0,
                },
            }],
            seed: 123,
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: ChannelSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn invalid_probability_panics() {
        let _ = ChannelModel::new(&ChannelSpec::uniform_loss(1.5, 0));
    }
}
