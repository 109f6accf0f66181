//! Typed simulation events and the log that receives them.
//!
//! The engine describes every send, delivery, drop and timer firing as a
//! [`TraceEvent`] carrying a fixed-size [`Descriptor`] and hands it to the
//! installed [`TraceLog`] the moment it happens: either a bounded buffer
//! (tests, golden transcripts) or an observer closure that consumes the
//! stream without retaining it (the DomainLocality audit). Building and
//! delivering an event formats nothing and allocates nothing.

use smrp_net::{GroupId, NodeId};

use crate::time::SimTime;

/// What a traced message or timer was, as a small `Copy` value.
///
/// Filled in by the behaviour through [`crate::NodeBehavior::describe`]
/// and [`crate::NodeBehavior::describe_timer`]; fields a message does not
/// have stay `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// The message class, in the vocabulary of
    /// [`crate::NodeBehavior::classify`] (split further where `classify`
    /// lumps distinct messages together) — or, for timers, the timer kind.
    pub class: &'static str,
    /// The session the message or timer belongs to, when the behaviour
    /// multiplexes several.
    pub group: Option<GroupId>,
    /// The sequence number it carries: a data packet's, an ack's, a
    /// retransmission timer's, or the reliable envelope's around a
    /// control message.
    pub seq: Option<u64>,
    /// Whether the message travels in a reliable-delivery envelope.
    pub reliable: bool,
    /// For source-routed state installation, the route being installed.
    pub setup: Option<SetupRoute>,
}

impl Descriptor {
    /// A descriptor carrying only a class.
    pub const fn of_class(class: &'static str) -> Self {
        Descriptor {
            class,
            group: None,
            seq: None,
            reliable: false,
            setup: None,
        }
    }
}

/// Renders as `[g<group> ]<class>[ reliable][ #<seq>][ <origin>=><attach>@<hop>]`,
/// the stable one-line form golden transcripts pin.
impl std::fmt::Display for Descriptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(g) = self.group {
            write!(f, "{g} ")?;
        }
        f.write_str(self.class)?;
        if self.reliable {
            f.write_str(" reliable")?;
        }
        if let Some(seq) = self.seq {
            write!(f, " #{seq}")?;
        }
        if let Some(s) = self.setup {
            write!(f, " {}=>{}@{}", s.origin, s.attach, s.hop)?;
        }
        Ok(())
    }
}

/// The identifying part of a source-routed `Setup`: where the route
/// starts, where it attaches, and which hop of it this copy addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetupRoute {
    /// The initiating node (first node of the path).
    pub origin: NodeId,
    /// The attach point (last node of the path).
    pub attach: NodeId,
    /// Index of the receiving hop within the path.
    pub hop: u32,
}

/// One traced occurrence in the simulation.
///
/// `W` is the description attached to messages and timers. The engine
/// produces [`Descriptor`]s; the parameter exists so tools can log events
/// with a payload of their own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent<W = Descriptor> {
    /// A message left a node toward a neighbor.
    Sent {
        /// Departure time.
        time: SimTime,
        /// Sending node.
        from: NodeId,
        /// Receiving neighbor.
        to: NodeId,
        /// Description of the message.
        what: W,
    },
    /// A message arrived and was processed.
    Delivered {
        /// Arrival time.
        time: SimTime,
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Description of the message.
        what: W,
    },
    /// A message was dropped.
    Dropped {
        /// Time of the drop.
        time: SimTime,
        /// Sending node.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Why the message was dropped.
        reason: DropReason,
    },
    /// A node-local timer fired.
    TimerFired {
        /// Firing time.
        time: SimTime,
        /// Owning node.
        node: NodeId,
        /// Description of the timer.
        what: W,
    },
}

/// Why a message never reached its receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The link between sender and receiver has failed.
    LinkDown,
    /// The receiving node has failed.
    NodeDown,
    /// The sending node has failed (a dead router emits nothing).
    SenderDown,
    /// Sender and receiver are not adjacent in the topology.
    NotAdjacent,
    /// The degraded channel lost the message (see [`crate::ChannelModel`]).
    ChannelLoss,
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DropReason::LinkDown => "link down",
            DropReason::NodeDown => "receiver down",
            DropReason::SenderDown => "sender down",
            DropReason::NotAdjacent => "nodes not adjacent",
            DropReason::ChannelLoss => "lost by channel",
        };
        f.write_str(s)
    }
}

/// Where the engine's events go: a bounded in-memory buffer (entries past
/// the cap are discarded and counted), an observer that sees each event
/// as it happens and keeps nothing, or nowhere.
pub struct TraceLog<'o, W = Descriptor> {
    entries: Vec<TraceEvent<W>>,
    capacity: usize,
    discarded: u64,
    observer: Option<Observer<'o, W>>,
}

type Observer<'o, W> = Box<dyn FnMut(&TraceEvent<W>) + 'o>;

impl<'o, W> TraceLog<'o, W> {
    /// Creates a log that retains the first `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceLog {
            entries: Vec::new(),
            capacity,
            discarded: 0,
            observer: None,
        }
    }

    /// Creates a disabled log: the engine never pushes to it, and it
    /// retains and counts nothing.
    pub fn disabled() -> Self {
        TraceLog::new(0)
    }

    /// Creates a log that hands every event to `observe` as it happens
    /// and retains none — for consumers that need the whole stream of a
    /// run but only a summary of it.
    pub fn observer(observe: impl FnMut(&TraceEvent<W>) + 'o) -> Self {
        TraceLog {
            observer: Some(Box::new(observe)),
            ..TraceLog::new(0)
        }
    }

    /// Whether this log receives events at all. The engine skips
    /// describing events entirely for disabled logs.
    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.capacity > 0 || self.observer.is_some()
    }

    /// Records an event. A no-op on a disabled log.
    pub fn push(&mut self, event: TraceEvent<W>) {
        if let Some(observe) = &mut self.observer {
            observe(&event);
        } else if self.entries.len() < self.capacity {
            self.entries.push(event);
        } else if self.capacity > 0 {
            self.discarded += 1;
        }
    }

    /// Retained entries, oldest first (always empty for an observer).
    pub fn entries(&self) -> &[TraceEvent<W>] {
        &self.entries
    }

    /// How many events were discarded after the cap was hit.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<W> std::fmt::Debug for TraceLog<'_, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLog")
            .field("retained", &self.entries.len())
            .field("capacity", &self.capacity)
            .field("discarded", &self.discarded)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ms: f64) -> TraceEvent {
        TraceEvent::TimerFired {
            time: SimTime::from_ms(ms),
            node: NodeId::new(0),
            what: Descriptor::of_class("t"),
        }
    }

    #[test]
    fn records_until_capacity() {
        let mut log = TraceLog::new(2);
        log.push(ev(1.0));
        log.push(ev(2.0));
        log.push(ev(3.0));
        assert_eq!(log.len(), 2);
        assert_eq!(log.discarded(), 1);
        assert_eq!(log.entries()[0], ev(1.0));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::disabled();
        assert!(!log.is_enabled());
        log.push(ev(1.0));
        assert!(log.is_empty());
        assert_eq!(log.discarded(), 0);
    }

    #[test]
    fn observer_sees_every_event_and_retains_none() {
        let mut seen = Vec::new();
        let mut log = TraceLog::observer(|e: &TraceEvent| seen.push(*e));
        assert!(log.is_enabled());
        log.push(ev(1.0));
        log.push(ev(2.0));
        assert!(log.is_empty());
        assert_eq!(log.discarded(), 0);
        drop(log);
        assert_eq!(seen, [ev(1.0), ev(2.0)]);
    }

    #[test]
    fn descriptor_rendering_tells_setups_apart() {
        let setup = |origin: usize, attach: usize, hop| Descriptor {
            group: Some(GroupId::new(2)),
            seq: Some(5),
            reliable: true,
            setup: Some(SetupRoute {
                origin: NodeId::new(origin),
                attach: NodeId::new(attach),
                hop,
            }),
            ..Descriptor::of_class("setup")
        };
        assert_eq!(setup(4, 3, 1).to_string(), "g2 setup reliable #5 n4=>n3@1");
        assert_ne!(setup(4, 3, 1).to_string(), setup(4, 3, 2).to_string());
        assert_ne!(setup(4, 3, 1).to_string(), setup(4, 5, 1).to_string());
        assert_ne!(setup(4, 3, 1).to_string(), setup(2, 3, 1).to_string());
        assert_eq!(Descriptor::of_class("hello").to_string(), "hello");
    }

    #[test]
    fn drop_reason_display() {
        assert_eq!(DropReason::LinkDown.to_string(), "link down");
        assert_eq!(DropReason::NotAdjacent.to_string(), "nodes not adjacent");
    }
}
