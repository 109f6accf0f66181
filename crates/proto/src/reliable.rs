//! Reliable delivery for tree-mutating control messages.
//!
//! SMRP's soft state is self-healing against *stale* information — a lost
//! `Refresh` is covered by the next one — but not against unlucky streaks:
//! over a degraded channel (see `smrp_sim::channel`) a run of lost
//! refreshes expires live branches, a lost recovery `Setup` strands a
//! member until starvation kicks in, and a retransmitted copy, or a
//! retransmission landing behind later traffic, can replay a
//! `Setup`/`LeaveReq` pair into state the tree oracle rejects. This
//! module adds the standard cure, scoped to the three tree-mutating
//! messages (`Setup`, `LeaveReq`, `Refresh`):
//!
//! * **per-neighbor sequence numbers** — each `(sender, receiver)` pair
//!   has its own monotone lane;
//! * **acks + retransmission** — every envelope is acked individually;
//!   unacked envelopes are retransmitted with exponential backoff
//!   (×1.5 per attempt) starting from an adaptive RTO (≈4× the one-way
//!   link delay, floored at 15 ms) up to 8 retries;
//! * **duplicate suppression + in-order release** — receivers ack every
//!   copy but deliver each sequence number exactly once, in sequence
//!   order, buffering gaps; re-applied control traffic therefore cannot
//!   corrupt SHR/N bookkeeping (the property test in
//!   `tests/reliable_prop.rs` pins this down);
//! * **a bounded retry budget** — a sender that gives up records a
//!   *retry exhaustion*, which lossy campaigns treat as a failure signal.
//!   Envelopes addressed to a neighbor the router has since declared dead
//!   are *abandoned* instead (not exhaustion: giving up on a corpse is
//!   correct behavior);
//! * **gap skipping via a lane base** — every envelope carries the
//!   sender's lane *base*: the lowest sequence number still pending toward
//!   that receiver (or the next unused one if nothing is pending). An
//!   abandoned or exhausted envelope leaves a hole the receiver would
//!   otherwise wait on forever, wedging the lane and silently burying all
//!   later traffic from that neighbor. Seeing `base` beyond its cursor,
//!   the receiver releases anything it had buffered below it (those were
//!   received and acked — the sender moved on *because* of the acks) and
//!   advances to `base`, unwedging the lane;
//! * **dead-neighbor garbage collection** — when the router declares a
//!   neighbor dead (`ReliableEndpoint::gc_peer`) its receive lane and
//!   pending envelopes are dropped wholesale, so long lossy campaigns
//!   with churn stay bounded. The *transmit* sequence counter survives:
//!   a neighbor declared dead by mistake still holds our old receive
//!   cursor, and restarting at seq 0 would make it drop everything we
//!   send as duplicates forever.
//!
//! State lives in a struct-of-arrays neighbor arena: `peers[slot]` names
//! the neighbor, and parallel vectors carry that slot's tx counter,
//! pending envelopes and receive lane. Node degree is small, so slot
//! lookup is a linear scan over a few `NodeId`s — cheaper and far more
//! cache-friendly than the `BTreeMap<(NodeId, u64), _>` walks it
//! replaces.
//!
//! With the default budget (8 retries) the probability that uniform 10%
//! loss defeats one envelope is `0.1^9 = 1e-9` — a 1000-scenario campaign
//! sees none.

use smrp_net::NodeId;
use smrp_sim::{SimTime, TimerToken};

use crate::messages::ProtoMsg;

/// Minimum retransmission timeout. The effective RTO per neighbor is
/// `max(RTO_FLOOR, 4 × one-way link delay)` — Waxman links in this
/// workspace carry tens of milliseconds of propagation delay, so a fixed
/// RTO would retransmit spuriously on long links.
pub(crate) const RTO_FLOOR: SimTime = SimTime::from_ns(15_000_000);
/// Multiplier applied to the RTO after each retransmission.
const BACKOFF: f64 = 1.5;
/// Retransmissions allowed before the sender gives up (the envelope is
/// sent `1 + MAX_RETRIES` times in total). With the 15 ms floor and ×1.5
/// backoff this survives 10% uniform loss with failure probability 1e-9
/// per envelope, and gives up on a neighbor that never acks about 1.1 s
/// after the first copy (the last copy goes out at ≈0.74 s).
const MAX_RETRIES: u32 = 8;

/// Retransmission delay before attempt `attempts + 1`, given the
/// neighbor's base RTO.
fn delay_for_attempt(base_rto: SimTime, attempts: u32) -> SimTime {
    SimTime::from_ms(base_rto.as_ms() * BACKOFF.powi(attempts as i32))
}

/// What the reliable layer has done so far on one router.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityCounters {
    /// Envelopes registered for first transmission.
    pub sent: u64,
    /// Retransmissions fired.
    pub retransmits: u64,
    /// Duplicate envelopes suppressed on receive.
    pub dup_drops: u64,
    /// Envelopes given up on after exhausting the retry budget.
    pub retry_exhaustions: u64,
    /// Envelopes abandoned because the neighbor was declared dead.
    pub abandoned: u64,
    /// Acks sent back to envelope senders.
    pub acks_sent: u64,
    /// Acks received for pending envelopes.
    pub acks_received: u64,
}

#[derive(Debug, Clone)]
struct PendingTx {
    seq: u64,
    msg: ProtoMsg,
    attempts: u32,
    /// Engine token of the armed retransmission timer, so acks and
    /// abandonment can cancel it instead of letting a dead entry fire.
    token: Option<TimerToken>,
}

/// Outcome of a retransmission-timer firing.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RetransmitAction {
    /// Send this copy again, then re-arm after the given delay.
    Retry {
        /// The envelope payload to resend.
        msg: ProtoMsg,
        /// Backoff delay until the *next* retransmission check.
        delay: SimTime,
    },
    /// The retry budget is exhausted; the envelope was dropped and
    /// counted. The caller should surface this through health reporting.
    Exhausted,
    /// The envelope was acked or abandoned meanwhile: nothing to do.
    Done,
}

/// Per-router reliable-delivery state: tx lanes, rx lanes, counters, laid
/// out as a struct-of-arrays neighbor arena (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ReliableEndpoint {
    /// `peers[slot]` is the neighbor owning that slot. Slots are created
    /// on first contact and never removed (bounded by node degree).
    peers: Vec<NodeId>,
    /// Next transmit sequence number per slot. Survives [`Self::gc_peer`].
    next_tx: Vec<u64>,
    /// Unacked envelopes per slot, ascending by `seq` (registration
    /// order; sequence numbers are monotone, so pushes keep it sorted).
    pending: Vec<Vec<PendingTx>>,
    /// Receive cursor per slot: lowest sequence number not yet released.
    rx_next: Vec<u64>,
    /// Out-of-order arrivals per slot, ascending by sequence number.
    rx_buffered: Vec<Vec<(u64, ProtoMsg)>>,
    /// Whether the slot's receive lane holds live state (cleared by GC).
    rx_active: Vec<bool>,
    counters: ReliabilityCounters,
}

impl ReliableEndpoint {
    /// Counter snapshot.
    pub(crate) fn counters(&self) -> ReliabilityCounters {
        self.counters
    }

    /// The arena slot of `peer`, if one exists. Linear scan: the arena
    /// holds at most one slot per neighbor, and node degree is small.
    fn slot(&self, peer: NodeId) -> Option<usize> {
        self.peers.iter().position(|&p| p == peer)
    }

    fn slot_or_insert(&mut self, peer: NodeId) -> usize {
        if let Some(s) = self.slot(peer) {
            return s;
        }
        self.peers.push(peer);
        self.next_tx.push(0);
        self.pending.push(Vec::new());
        self.rx_next.push(0);
        self.rx_buffered.push(Vec::new());
        self.rx_active.push(false);
        self.peers.len() - 1
    }

    /// Number of neighbor lanes currently holding state: a receive lane
    /// that saw traffic (and was not garbage-collected) or at least one
    /// pending envelope. Campaign audits use this to check that lanes to
    /// dead neighbors are reclaimed.
    pub(crate) fn lane_count(&self) -> usize {
        (0..self.peers.len())
            .filter(|&s| self.rx_active[s] || !self.pending[s].is_empty())
            .count()
    }

    /// Registers `msg` for reliable delivery to `to` and returns the
    /// sequence number to stamp on the envelope. The caller performs the
    /// actual send, arms the first retransmission timer and records its
    /// token via `Self::set_retransmit_token`.
    pub fn register(&mut self, to: NodeId, msg: ProtoMsg) -> u64 {
        let s = self.slot_or_insert(to);
        let assigned = self.next_tx[s];
        self.next_tx[s] += 1;
        self.pending[s].push(PendingTx {
            seq: assigned,
            msg,
            attempts: 0,
            token: None,
        });
        self.counters.sent += 1;
        assigned
    }

    /// Records the engine token of the retransmission timer currently
    /// armed for `(to, seq)`, returning the replaced one (if any) so the
    /// caller can cancel it. A no-op returning `None` when the envelope is
    /// no longer pending.
    pub(crate) fn set_retransmit_token(
        &mut self,
        to: NodeId,
        seq: u64,
        token: TimerToken,
    ) -> Option<TimerToken> {
        let s = self.slot(to)?;
        let i = self.pending[s].binary_search_by_key(&seq, |p| p.seq).ok()?;
        self.pending[s][i].token.replace(token)
    }

    /// Notes that `from` acked sequence `seq`. Returns the token of the
    /// now-obsolete retransmission timer, for the caller to cancel.
    pub fn on_ack(&mut self, from: NodeId, seq: u64) -> Option<TimerToken> {
        let s = self.slot(from)?;
        let i = self.pending[s].binary_search_by_key(&seq, |p| p.seq).ok()?;
        let entry = self.pending[s].remove(i);
        self.counters.acks_received += 1;
        entry.token
    }

    /// Notes that an ack is being sent (bookkeeping only).
    pub(crate) fn note_ack_sent(&mut self) {
        self.counters.acks_sent += 1;
    }

    /// The lane base to stamp on an envelope toward `to`: the lowest
    /// sequence number still pending, or the next unused number if nothing
    /// is pending. Everything below the base is settled from the sender's
    /// point of view — acked, abandoned, or exhausted.
    pub(crate) fn base_for(&self, to: NodeId) -> u64 {
        match self.slot(to) {
            Some(s) => self.pending[s].first().map_or(self.next_tx[s], |p| p.seq),
            None => 0,
        }
    }

    /// Whether the envelope `(to, seq)` is still awaiting an ack (i.e. not
    /// yet acked, abandoned, or exhausted).
    pub(crate) fn is_pending(&self, to: NodeId, seq: u64) -> bool {
        self.slot(to).is_some_and(|s| {
            self.pending[s]
                .binary_search_by_key(&seq, |p| p.seq)
                .is_ok()
        })
    }

    /// Processes a received envelope `(seq, base, inner)` from `from` and
    /// returns the payloads now releasable *in sequence order* (empty for
    /// duplicates and out-of-order arrivals that still have a gap ahead).
    ///
    /// A `base` beyond the lane cursor means the gap in between was
    /// abandoned by the sender and will never be retried: buffered
    /// payloads below `base` release immediately (they *were* delivered
    /// and acked — the sender's base moved past them because of those
    /// acks) and the cursor jumps to `base`.
    pub fn on_receive(
        &mut self,
        from: NodeId,
        seq: u64,
        base: u64,
        inner: ProtoMsg,
    ) -> Vec<ProtoMsg> {
        let s = self.slot_or_insert(from);
        self.rx_active[s] = true;
        let mut released = Vec::new();
        if base > self.rx_next[s] {
            let below = self.rx_buffered[s].partition_point(|&(q, _)| q < base);
            for (_, msg) in self.rx_buffered[s].drain(..below) {
                released.push(msg);
            }
            self.rx_next[s] = base;
        }
        if seq < self.rx_next[s] || self.rx_buffered[s].iter().any(|&(q, _)| q == seq) {
            self.counters.dup_drops += 1;
            return released;
        }
        let at = self.rx_buffered[s].partition_point(|&(q, _)| q < seq);
        self.rx_buffered[s].insert(at, (seq, inner));
        while self.rx_buffered[s].first().map(|&(q, _)| q) == Some(self.rx_next[s]) {
            let (_, msg) = self.rx_buffered[s].remove(0);
            released.push(msg);
            self.rx_next[s] += 1;
        }
        released
    }

    /// Decides what to do when the retransmission timer for `(to, seq)`
    /// fires.
    pub(crate) fn on_retransmit_timer(
        &mut self,
        to: NodeId,
        seq: u64,
        base_rto: SimTime,
    ) -> RetransmitAction {
        let Some(s) = self.slot(to) else {
            return RetransmitAction::Done;
        };
        let Ok(i) = self.pending[s].binary_search_by_key(&seq, |p| p.seq) else {
            return RetransmitAction::Done;
        };
        let entry = &mut self.pending[s][i];
        if entry.attempts >= MAX_RETRIES {
            self.pending[s].remove(i);
            self.counters.retry_exhaustions += 1;
            return RetransmitAction::Exhausted;
        }
        entry.attempts += 1;
        let attempts = entry.attempts;
        let msg = entry.msg.clone();
        self.counters.retransmits += 1;
        RetransmitAction::Retry {
            msg,
            delay: delay_for_attempt(base_rto, attempts),
        }
    }

    /// Drops every pending envelope addressed to `peer` without counting
    /// exhaustion — called when the router declares `peer` dead (upstream
    /// failure detection) or re-points its upstream elsewhere. Returns the
    /// tokens of the dropped entries' retransmission timers, for the
    /// caller to cancel.
    pub(crate) fn abandon(&mut self, peer: NodeId) -> Vec<TimerToken> {
        let Some(s) = self.slot(peer) else {
            return Vec::new();
        };
        let dropped = std::mem::take(&mut self.pending[s]);
        self.counters.abandoned += dropped.len() as u64;
        dropped.into_iter().filter_map(|p| p.token).collect()
    }

    /// Garbage-collects every lane toward `peer` after the router declares
    /// it dead: pending envelopes are abandoned (as [`Self::abandon`]) and
    /// the receive lane — cursor and gap buffer — is reclaimed, so long
    /// campaigns with churn don't accumulate state for corpses. The
    /// transmit sequence counter deliberately survives; see the module
    /// docs for why restarting it would wedge a falsely-declared-dead
    /// neighbor's receive lane.
    ///
    /// Returns the retransmission-timer tokens to cancel.
    pub(crate) fn gc_peer(&mut self, peer: NodeId) -> Vec<TimerToken> {
        let tokens = self.abandon(peer);
        if let Some(s) = self.slot(peer) {
            self.rx_next[s] = 0;
            self.rx_buffered[s].clear();
            self.rx_buffered[s].shrink_to_fit();
            self.rx_active[s] = false;
        }
        tokens
    }

    /// Pending `(neighbor, seq)` pairs, ascending — used by `on_reboot` to
    /// re-arm retransmission timers that died with the node.
    pub(crate) fn pending_keys(&self) -> Vec<(NodeId, u64)> {
        let mut keys: Vec<(NodeId, u64)> = (0..self.peers.len())
            .flat_map(|s| self.pending[s].iter().map(move |p| (self.peers[s], p.seq)))
            .collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn sequences_are_per_neighbor() {
        let mut ep = ReliableEndpoint::default();
        assert_eq!(ep.register(n(1), ProtoMsg::Refresh), 0);
        assert_eq!(ep.register(n(1), ProtoMsg::Refresh), 1);
        assert_eq!(ep.register(n(2), ProtoMsg::Refresh), 0);
        assert_eq!(ep.counters().sent, 3);
    }

    #[test]
    fn ack_clears_pending() {
        let mut ep = ReliableEndpoint::default();
        let seq = ep.register(n(1), ProtoMsg::LeaveReq);
        ep.on_ack(n(1), seq);
        assert_eq!(ep.counters().acks_received, 1);
        let act = ep.on_retransmit_timer(n(1), seq, RTO_FLOOR);
        assert_eq!(act, RetransmitAction::Done);
    }

    #[test]
    fn unacked_envelope_retries_on_the_protocol_schedule_then_exhausts() {
        let mut ep = ReliableEndpoint::default();
        let seq = ep.register(n(1), ProtoMsg::Refresh);
        // Eight retries, each ×1.5 the last, from the 15 ms floor.
        let schedule = [
            22.5,
            33.75,
            50.625,
            75.9375,
            113.90625,
            170.859375,
            256.2890625,
            384.43359375,
        ];
        let mut fired_at = RTO_FLOOR;
        for (attempt, ms) in schedule.into_iter().enumerate() {
            match ep.on_retransmit_timer(n(1), seq, RTO_FLOOR) {
                RetransmitAction::Retry { delay, .. } => {
                    assert_eq!(delay, SimTime::from_ms(ms), "retry {}", attempt + 1);
                    fired_at += delay;
                }
                other => panic!("expected retry {}, got {other:?}", attempt + 1),
            }
        }
        assert_eq!(
            ep.on_retransmit_timer(n(1), seq, RTO_FLOOR),
            RetransmitAction::Exhausted
        );
        // A neighbor that never acks is given up on about 1.1 s after the
        // first copy went out.
        assert_eq!(fired_at, SimTime::from_ns(1_123_300_782));
        assert_eq!(ep.counters().retransmits, 8);
        assert_eq!(ep.counters().retry_exhaustions, 1);
        // The entry is gone; a late timer is a no-op.
        assert_eq!(
            ep.on_retransmit_timer(n(1), seq, RTO_FLOOR),
            RetransmitAction::Done
        );
    }

    #[test]
    fn receiver_releases_in_order_and_drops_dups() {
        let mut ep = ReliableEndpoint::default();
        // seq 1 arrives first: buffered, nothing released.
        assert!(ep.on_receive(n(3), 1, 0, ProtoMsg::LeaveReq).is_empty());
        // seq 0 fills the gap: both release, in order.
        let released = ep.on_receive(n(3), 0, 0, ProtoMsg::Refresh);
        assert_eq!(released, vec![ProtoMsg::Refresh, ProtoMsg::LeaveReq]);
        // Retransmitted copies of both are suppressed.
        assert!(ep.on_receive(n(3), 0, 0, ProtoMsg::Refresh).is_empty());
        assert!(ep.on_receive(n(3), 1, 0, ProtoMsg::LeaveReq).is_empty());
        assert_eq!(ep.counters().dup_drops, 2);
    }

    #[test]
    fn buffered_duplicate_is_suppressed_too() {
        let mut ep = ReliableEndpoint::default();
        assert!(ep.on_receive(n(3), 2, 0, ProtoMsg::Refresh).is_empty());
        assert!(ep.on_receive(n(3), 2, 0, ProtoMsg::Refresh).is_empty());
        assert_eq!(ep.counters().dup_drops, 1);
    }

    #[test]
    fn base_unwedges_lane_after_abandoned_gap() {
        let mut ep = ReliableEndpoint::default();
        // Sender side: seq 0 is lost in flight and then abandoned (e.g.
        // the sender declared this hop's upstream dead); seq 1 and 2 are
        // registered afterwards.
        let mut tx = ReliableEndpoint::default();
        assert_eq!(tx.register(n(3), ProtoMsg::LeaveReq), 0);
        tx.abandon(n(3));
        assert_eq!(tx.register(n(3), ProtoMsg::Refresh), 1);
        assert_eq!(tx.base_for(n(3)), 1);
        // Receiver: seq 1 stamped with base 1 releases immediately — the
        // lane skips the abandoned seq 0 instead of waiting forever.
        let released = ep.on_receive(n(3), 1, tx.base_for(n(3)), ProtoMsg::Refresh);
        assert_eq!(released, vec![ProtoMsg::Refresh]);
        // With nothing pending, the base is the next unused number, so a
        // retransmitted copy of seq 1 is still recognized as a duplicate.
        tx.on_ack(n(3), 1);
        assert_eq!(tx.base_for(n(3)), 2);
        assert!(ep
            .on_receive(n(3), 1, tx.base_for(n(3)), ProtoMsg::Refresh)
            .is_empty());
        assert_eq!(ep.counters().dup_drops, 1);
    }

    #[test]
    fn base_jump_releases_acked_buffered_payloads() {
        let mut ep = ReliableEndpoint::default();
        // seq 1 arrived (and was acked) but seq 0 never did; it buffers.
        assert!(ep.on_receive(n(3), 1, 0, ProtoMsg::LeaveReq).is_empty());
        // The sender abandons seq 0; its next envelope carries base 2
        // (seq 1 was acked, nothing pending). The buffered seq 1 must be
        // *applied*, not discarded — the sender believes it was delivered.
        let released = ep.on_receive(n(3), 2, 2, ProtoMsg::Refresh);
        assert_eq!(released, vec![ProtoMsg::LeaveReq, ProtoMsg::Refresh]);
    }

    #[test]
    fn abandon_drops_only_that_peer() {
        let mut ep = ReliableEndpoint::default();
        let s1 = ep.register(n(1), ProtoMsg::Refresh);
        let s2 = ep.register(n(2), ProtoMsg::Refresh);
        ep.abandon(n(1));
        assert_eq!(ep.counters().abandoned, 1);
        assert_eq!(
            ep.on_retransmit_timer(n(1), s1, RTO_FLOOR),
            RetransmitAction::Done
        );
        assert!(matches!(
            ep.on_retransmit_timer(n(2), s2, RTO_FLOOR),
            RetransmitAction::Retry { .. }
        ));
        assert_eq!(ep.pending_keys(), vec![(n(2), s2)]);
    }

    #[test]
    fn gc_reclaims_rx_lane_and_pending_but_not_tx_sequence() {
        let mut ep = ReliableEndpoint::default();
        // Build up state toward n(1): a pending envelope and a receive
        // lane with a buffered gap.
        let s0 = ep.register(n(1), ProtoMsg::Refresh);
        assert_eq!(s0, 0);
        assert!(ep.on_receive(n(1), 1, 0, ProtoMsg::LeaveReq).is_empty());
        assert_eq!(ep.lane_count(), 1);

        ep.gc_peer(n(1));
        assert_eq!(ep.lane_count(), 0, "lane reclaimed after death");
        assert_eq!(ep.counters().abandoned, 1);
        assert!(!ep.is_pending(n(1), s0));

        // The tx sequence survives: the next envelope continues the lane
        // instead of restarting at 0, so a falsely-declared-dead neighbor
        // (whose receive cursor is still beyond 0) does not dup-drop
        // everything we send forever.
        assert_eq!(ep.register(n(1), ProtoMsg::Refresh), 1);
    }

    #[test]
    fn lane_count_counts_each_neighbor_once() {
        let mut ep = ReliableEndpoint::default();
        ep.register(n(1), ProtoMsg::Refresh);
        ep.on_receive(n(1), 0, 0, ProtoMsg::Refresh);
        ep.register(n(2), ProtoMsg::Refresh);
        assert_eq!(ep.lane_count(), 2);
        // Acking n(2)'s envelope empties its pending lane; it never had
        // receive state, so it stops counting.
        ep.on_ack(n(2), 0);
        assert_eq!(ep.lane_count(), 1);
    }

    #[test]
    fn ack_and_abandon_surrender_retransmit_tokens() {
        // Fake tokens by arming through a real context is engine-level;
        // here we only check the plumbing: a token recorded for a pending
        // envelope comes back from the ack (or abandon) that retires it.
        let mut ep = ReliableEndpoint::default();
        let seq = ep.register(n(1), ProtoMsg::Refresh);
        assert_eq!(ep.on_ack(n(1), seq), None, "no token recorded yet");
        let seq2 = ep.register(n(1), ProtoMsg::Refresh);
        // set_retransmit_token on an unknown key is a no-op.
        ep.set_retransmit_token(n(9), 0, fake_token());
        ep.set_retransmit_token(n(1), seq2, fake_token());
        assert!(ep.on_ack(n(1), seq2).is_some());
        let seq3 = ep.register(n(1), ProtoMsg::Refresh);
        ep.set_retransmit_token(n(1), seq3, fake_token());
        assert_eq!(ep.abandon(n(1)).len(), 1);
    }

    /// Builds a real token through a throwaway simulation context.
    fn fake_token() -> TimerToken {
        use smrp_net::Graph;
        use smrp_sim::{Ctx, NetSim, NodeBehavior};
        struct Noop;
        impl NodeBehavior for Noop {
            type Msg = ();
            type Timer = ();
            fn on_message(&mut self, _: &mut Ctx<'_, Self>, _: NodeId, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, Self>, _: ()) {}
        }
        let g = Graph::with_nodes(1);
        let mut sim = NetSim::new(&g, vec![Noop]);
        let mut token = None;
        sim.with_node(g.node_ids().next().unwrap(), |_, ctx| {
            token = Some(ctx.set_timer(SimTime::from_ms(1.0), ()));
        });
        token.unwrap()
    }
}
