//! Degraded-channel model: seeded per-link message loss.
//!
//! The engine's baseline channel is perfect — a message crossing a usable
//! link always arrives, exactly once, after the link's propagation delay.
//! Real control planes are not so lucky, least of all *during* the failure
//! events that restoration protocols exist to survive. A [`ChannelModel`]
//! sits between [`crate::Ctx::send`] and the event queue and, per
//! transmission, decides one fate: the message is lost (with the link's
//! loss probability) or it arrives as on a perfect channel. The channel
//! never duplicates, reorders or delays a message; duplicates and
//! out-of-order arrivals still reach the protocol's reliable layer, from
//! its own retransmissions.
//!
//! All draws come from one [`SmallRng`] seeded by [`ChannelSpec::seed`],
//! consumed in event order, one `gen_bool(loss)` per transmission over a
//! lossy link and none over a clean one, so a campaign case replays
//! bit-identically for any worker count. Per-link overrides model *gray*
//! links — interfaces that stay "up" while discarding a large fraction of
//! traffic.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use smrp_net::LinkId;

/// Serializable description of a degraded channel: a loss probability
/// applied to every link, per-link overrides for gray links, and the RNG
/// seed.
///
/// A spec is an *address*, not an artifact — reconstructing a
/// [`ChannelModel`] from the same spec replays the same loss pattern, which
/// is what lets faultlab reproducers capture lossy cases exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelSpec {
    /// Loss probability, in `[0, 1]`, on links without an override.
    pub loss: f64,
    /// Gray links: `(link, loss)`, the loss replacing [`loss`](Self::loss)
    /// on that link.
    pub overrides: Vec<(LinkId, f64)>,
    /// Seed for the channel's RNG.
    pub seed: u64,
}

impl ChannelSpec {
    /// A perfect channel (no loss anywhere).
    pub fn perfect() -> Self {
        ChannelSpec::uniform_loss(0.0, 0)
    }

    /// Uniform loss at probability `p` on every link.
    pub fn uniform_loss(p: f64, seed: u64) -> Self {
        ChannelSpec {
            loss: p,
            overrides: Vec::new(),
            seed,
        }
    }

    /// Whether the spec loses nothing on any link.
    pub fn is_perfect(&self) -> bool {
        self.loss == 0.0 && self.overrides.iter().all(|&(_, p)| p == 0.0)
    }
}

/// The runtime channel: per-link loss, the RNG, and what it lost.
#[derive(Debug)]
pub struct ChannelModel {
    loss: f64,
    overrides: BTreeMap<LinkId, f64>,
    rng: SmallRng,
    lost_by_class: BTreeMap<&'static str, u64>,
}

impl ChannelModel {
    /// Builds the runtime model from a spec.
    ///
    /// # Panics
    ///
    /// Panics if any loss probability lies outside `[0, 1]`.
    pub fn new(spec: &ChannelSpec) -> Self {
        let overrides: BTreeMap<LinkId, f64> = spec.overrides.iter().copied().collect();
        for p in std::iter::once(spec.loss).chain(overrides.values().copied()) {
            assert!(
                (0.0..=1.0).contains(&p),
                "channel loss probability out of range: {p}"
            );
        }
        ChannelModel {
            loss: spec.loss,
            overrides,
            rng: SmallRng::seed_from_u64(spec.seed),
            lost_by_class: BTreeMap::new(),
        }
    }

    /// Messages lost so far, keyed by the sender-declared message class
    /// (see [`crate::NodeBehavior::classify`]).
    pub(crate) fn lost_by_class(&self) -> &BTreeMap<&'static str, u64> {
        &self.lost_by_class
    }

    /// Pushes one `class`-tagged message through `link`; `true` if it
    /// survives. A lossy link takes one `gen_bool(loss)` draw, a clean
    /// link none.
    pub fn transmit(&mut self, link: LinkId, class: &'static str) -> bool {
        let loss = self.overrides.get(&link).copied().unwrap_or(self.loss);
        if loss > 0.0 && self.rng.gen_bool(loss) {
            *self.lost_by_class.entry(class).or_insert(0) += 1;
            return false;
        }
        true
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
            assert!(ch.transmit(link(0), "m"));
        }
        assert!(ch.lost_by_class().is_empty());
    }

    #[test]
    fn uniform_loss_drops_roughly_p() {
        let mut ch = ChannelModel::new(&ChannelSpec::uniform_loss(0.2, 7));
        let lost = (0..10_000).filter(|_| !ch.transmit(link(0), "m")).count();
        assert!((1_600..=2_400).contains(&lost), "lost {lost} of 10000");
        assert_eq!(ch.lost_by_class().get("m"), Some(&(lost as u64)));
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
            overrides: vec![(link(1), 1.0)],
            ..ChannelSpec::perfect()
        };
        let mut ch = ChannelModel::new(&spec);
        assert!(ch.transmit(link(0), "m"));
        assert!(!ch.transmit(link(1), "m"));
    }

    /// The draw discipline every pinned lossy output rests on: a lossy
    /// link consumes exactly one `gen_bool(p)` of the seeded stream and a
    /// perfect link consumes nothing, whatever the mix of links.
    #[test]
    fn transmit_is_the_reference_gen_bool_sequence() {
        let seed = 0x5EED_CAFE;
        // Links 0..4 follow the default (10 % loss), except gray link 2
        // (40 %) and perfect overrides 1 and 3; link 4 is lossy too.
        let spec = ChannelSpec {
            loss: 0.1,
            overrides: vec![(link(1), 0.0), (link(2), 0.4), (link(3), 0.0)],
            seed,
        };
        let loss_of = |l: usize| match l {
            1 | 3 => 0.0,
            2 => 0.4,
            _ => 0.1,
        };
        let mut ch = ChannelModel::new(&spec);
        let mut reference = SmallRng::seed_from_u64(seed);
        let mut lost = 0;
        for i in 0..5_000usize {
            let l = (i * 7 + i / 3) % 5;
            let p = loss_of(l);
            let expected = p == 0.0 || !reference.gen_bool(p);
            assert_eq!(
                ch.transmit(link(l), "m"),
                expected,
                "transmission {i} on link {l}"
            );
            lost += u64::from(!expected);
        }
        // Both streams stand at the same place: nothing was drawn for the
        // perfect links.
        assert_eq!(ch.rng.gen::<u64>(), reference.gen::<u64>());
        assert_eq!(ch.lost_by_class().get("m"), Some(&lost));

        // A perfect channel draws nothing at all.
        let mut clean = ChannelModel::new(&ChannelSpec {
            seed,
            ..ChannelSpec::perfect()
        });
        for i in 0..100 {
            assert!(clean.transmit(link(i % 5), "m"));
        }
        assert_eq!(
            clean.rng.gen::<u64>(),
            SmallRng::seed_from_u64(seed).gen::<u64>()
        );
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = ChannelSpec {
            loss: 0.1,
            overrides: vec![(link(4), 0.4)],
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
