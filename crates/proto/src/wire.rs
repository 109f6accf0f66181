//! Versioned binary wire codec for SMRP control messages.
//!
//! Inside the simulator, [`GroupMsg`] values travel as Rust values; on a
//! real transport they need bytes. The codec here is hand-rolled rather
//! than derived because the format is part of the protocol's compatibility
//! surface: every frame starts with a version byte, every variant has a
//! fixed tag, and all integers are little-endian, so two daemons built
//! from different checkouts either interoperate or fail loudly with
//! [`WireError::UnknownVersion`].
//!
//! Two framings share one body encoding:
//!
//! * [`encode_msg`]/[`decode_msg`] — `[version][body]`, for transports
//!   that preserve message boundaries and carry the sender out of band;
//! * [`encode_datagram`]/[`decode_datagram`] — `[version][sender][body]`,
//!   for UDP where the protocol-level sender identity must ride in the
//!   packet (socket addresses are transport trivia, not node ids).
//!
//! The byte-exact fixtures in `tests/wire_snapshot.rs` pin the layout of
//! every [`ProtoMsg`] variant; changing any of them requires bumping
//! [`WIRE_VERSION`].

use smrp_net::{GroupId, NodeId};

use crate::messages::{GroupMsg, ProtoMsg};

/// Current wire-format version, the first byte of every encoded message.
pub const WIRE_VERSION: u8 = 1;

/// Maximum [`ProtoMsg::Reliable`] nesting depth the decoder accepts.
///
/// The protocol itself nests exactly once (an envelope around a plain
/// control message); the bound exists so malformed or hostile input cannot
/// recurse the decoder off the stack.
pub const MAX_NESTING: usize = 4;

/// Maximum element count the decoder accepts for any length-prefixed
/// sequence. Paths are bounded by the network diameter; anything beyond
/// this is a corrupt or hostile length field, rejected before allocation.
pub(crate) const MAX_SEQ_LEN: u32 = 1 << 16;

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The leading version byte is not [`WIRE_VERSION`].
    UnknownVersion(u8),
    /// A variant tag byte matched no known [`ProtoMsg`] variant.
    UnknownTag(u8),
    /// The input ended before the message did.
    Truncated,
    /// The message ended before the input did (this many bytes left over).
    TrailingBytes(usize),
    /// A length prefix exceeded `MAX_SEQ_LEN`.
    OversizedSequence(u32),
    /// [`ProtoMsg::Reliable`] envelopes nested deeper than [`MAX_NESTING`].
    TooDeep,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnknownVersion(v) => {
                write!(f, "unknown wire version {v} (expected {WIRE_VERSION})")
            }
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::Truncated => write!(f, "truncated message"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::OversizedSequence(n) => {
                write!(f, "sequence length {n} exceeds limit {MAX_SEQ_LEN}")
            }
            WireError::TooDeep => write!(f, "reliable envelopes nested deeper than {MAX_NESTING}"),
        }
    }
}

impl std::error::Error for WireError {}

// Variant tags. Append-only: tags are wire-stable and never reassigned.
const TAG_SETUP: u8 = 0;
const TAG_LEAVE_REQ: u8 = 1;
const TAG_REFRESH: u8 = 2;
const TAG_HELLO: u8 = 3;
const TAG_DATA: u8 = 4;
const TAG_QUERY: u8 = 5;
const TAG_QUERY_RESP: u8 = 6;
const TAG_RELIABLE: u8 = 7;
const TAG_ACK: u8 = 8;

/// Encodes a group-tagged message as `[version][group][body]`.
pub fn encode_msg(msg: &GroupMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.push(WIRE_VERSION);
    put_u32(&mut out, msg.group.index() as u32);
    put_proto(&mut out, &msg.inner);
    out
}

/// Decodes a message produced by [`encode_msg`], rejecting unknown
/// versions, unknown tags, truncation and trailing bytes.
pub fn decode_msg(bytes: &[u8]) -> Result<GroupMsg, WireError> {
    let mut r = Reader::new(bytes);
    r.expect_version()?;
    let msg = take_group_msg(&mut r)?;
    r.finish()?;
    Ok(msg)
}

/// Encodes a datagram as `[version][sender][group][body]` — the framing
/// UDP transports exchange, carrying the protocol-level sender identity
/// inside the packet.
pub fn encode_datagram(from: NodeId, msg: &GroupMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(20);
    out.push(WIRE_VERSION);
    put_u32(&mut out, from.index() as u32);
    put_u32(&mut out, msg.group.index() as u32);
    put_proto(&mut out, &msg.inner);
    out
}

/// Decodes a datagram produced by [`encode_datagram`].
pub fn decode_datagram(bytes: &[u8]) -> Result<(NodeId, GroupMsg), WireError> {
    let mut r = Reader::new(bytes);
    r.expect_version()?;
    let from = NodeId::new(r.take_u32()? as usize);
    let msg = take_group_msg(&mut r)?;
    r.finish()?;
    Ok((from, msg))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_nodes(out: &mut Vec<u8>, nodes: &[NodeId]) {
    put_u32(out, nodes.len() as u32);
    for n in nodes {
        put_u32(out, n.index() as u32);
    }
}

fn put_proto(out: &mut Vec<u8>, msg: &ProtoMsg) {
    match msg {
        ProtoMsg::Setup { path, idx } => {
            out.push(TAG_SETUP);
            put_nodes(out, path);
            put_u32(out, *idx as u32);
        }
        ProtoMsg::LeaveReq => out.push(TAG_LEAVE_REQ),
        ProtoMsg::Refresh => out.push(TAG_REFRESH),
        ProtoMsg::Hello => out.push(TAG_HELLO),
        ProtoMsg::Data { seq } => {
            out.push(TAG_DATA);
            put_u64(out, *seq);
        }
        ProtoMsg::Query {
            origin,
            path,
            delay,
        } => {
            out.push(TAG_QUERY);
            put_u32(out, origin.index() as u32);
            put_nodes(out, path);
            put_f64(out, *delay);
        }
        ProtoMsg::QueryResp {
            approach,
            approach_delay,
            shr,
            tree_delay,
            idx,
        } => {
            out.push(TAG_QUERY_RESP);
            put_nodes(out, approach);
            put_f64(out, *approach_delay);
            put_u32(out, *shr);
            put_f64(out, *tree_delay);
            put_u32(out, *idx as u32);
        }
        ProtoMsg::Reliable { seq, base, inner } => {
            out.push(TAG_RELIABLE);
            put_u64(out, *seq);
            put_u64(out, *base);
            put_proto(out, inner);
        }
        ProtoMsg::Ack { seq } => {
            out.push(TAG_ACK);
            put_u64(out, *seq);
        }
    }
}

struct Reader<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    fn new(bytes: &'b [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn expect_version(&mut self) -> Result<(), WireError> {
        match self.take_u8()? {
            WIRE_VERSION => Ok(()),
            other => Err(WireError::UnknownVersion(other)),
        }
    }

    fn take_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn take_exact<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let end = self.pos.checked_add(N).ok_or(WireError::Truncated)?;
        let slice = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(slice.try_into().expect("slice length matches N"))
    }

    fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_exact::<4>()?))
    }

    fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_exact::<8>()?))
    }

    fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take_exact::<8>()?))
    }

    fn take_nodes(&mut self) -> Result<Vec<NodeId>, WireError> {
        let len = self.take_u32()?;
        if len > MAX_SEQ_LEN {
            return Err(WireError::OversizedSequence(len));
        }
        let mut nodes = Vec::with_capacity(len as usize);
        for _ in 0..len {
            nodes.push(NodeId::new(self.take_u32()? as usize));
        }
        Ok(nodes)
    }

    fn finish(self) -> Result<(), WireError> {
        let left = self.bytes.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(left))
        }
    }
}

fn take_group_msg(r: &mut Reader<'_>) -> Result<GroupMsg, WireError> {
    let group = GroupId::new(r.take_u32()? as usize);
    let inner = take_proto(r, 0)?;
    Ok(GroupMsg { group, inner })
}

fn take_proto(r: &mut Reader<'_>, depth: usize) -> Result<ProtoMsg, WireError> {
    if depth > MAX_NESTING {
        return Err(WireError::TooDeep);
    }
    match r.take_u8()? {
        TAG_SETUP => {
            let path = r.take_nodes()?;
            let idx = r.take_u32()? as usize;
            Ok(ProtoMsg::Setup { path, idx })
        }
        TAG_LEAVE_REQ => Ok(ProtoMsg::LeaveReq),
        TAG_REFRESH => Ok(ProtoMsg::Refresh),
        TAG_HELLO => Ok(ProtoMsg::Hello),
        TAG_DATA => Ok(ProtoMsg::Data { seq: r.take_u64()? }),
        TAG_QUERY => {
            let origin = NodeId::new(r.take_u32()? as usize);
            let path = r.take_nodes()?;
            let delay = r.take_f64()?;
            Ok(ProtoMsg::Query {
                origin,
                path,
                delay,
            })
        }
        TAG_QUERY_RESP => {
            let approach = r.take_nodes()?;
            let approach_delay = r.take_f64()?;
            let shr = r.take_u32()?;
            let tree_delay = r.take_f64()?;
            let idx = r.take_u32()? as usize;
            Ok(ProtoMsg::QueryResp {
                approach,
                approach_delay,
                shr,
                tree_delay,
                idx,
            })
        }
        TAG_RELIABLE => {
            let seq = r.take_u64()?;
            let base = r.take_u64()?;
            let inner = Box::new(take_proto(r, depth + 1)?);
            Ok(ProtoMsg::Reliable { seq, base, inner })
        }
        TAG_ACK => Ok(ProtoMsg::Ack { seq: r.take_u64()? }),
        other => Err(WireError::UnknownTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gm(inner: ProtoMsg) -> GroupMsg {
        GroupMsg {
            group: GroupId::new(3),
            inner,
        }
    }

    #[test]
    fn datagram_round_trips_with_sender() {
        let msg = gm(ProtoMsg::Data { seq: 99 });
        let from = NodeId::new(7);
        let bytes = encode_datagram(from, &msg);
        assert_eq!(decode_datagram(&bytes).unwrap(), (from, msg));
    }

    #[test]
    fn deep_reliable_nesting_is_rejected() {
        let mut inner = ProtoMsg::Hello;
        for _ in 0..(MAX_NESTING + 2) {
            inner = ProtoMsg::Reliable {
                seq: 0,
                base: 0,
                inner: Box::new(inner),
            };
        }
        let bytes = encode_msg(&gm(inner));
        assert_eq!(decode_msg(&bytes), Err(WireError::TooDeep));
    }

    /// One representative value per [`ProtoMsg`] variant, exercising every
    /// field the codec serializes (empty and non-empty sequences, nesting,
    /// floats, zero and large integers).
    fn every_variant() -> Vec<ProtoMsg> {
        vec![
            ProtoMsg::Setup {
                path: vec![NodeId::new(0), NodeId::new(5), NodeId::new(2)],
                idx: 2,
            },
            ProtoMsg::Setup {
                path: Vec::new(),
                idx: 0,
            },
            ProtoMsg::LeaveReq,
            ProtoMsg::Refresh,
            ProtoMsg::Hello,
            ProtoMsg::Data { seq: 0 },
            ProtoMsg::Data { seq: u64::MAX },
            ProtoMsg::Query {
                origin: NodeId::new(9),
                path: vec![NodeId::new(9), NodeId::new(4)],
                delay: 3.25,
            },
            ProtoMsg::QueryResp {
                approach: vec![NodeId::new(9), NodeId::new(4), NodeId::new(1)],
                approach_delay: 0.5,
                shr: 7,
                tree_delay: 12.75,
                idx: 1,
            },
            ProtoMsg::Reliable {
                seq: 42,
                base: 40,
                inner: Box::new(ProtoMsg::Setup {
                    path: vec![NodeId::new(3)],
                    idx: 0,
                }),
            },
            ProtoMsg::Ack { seq: 42 },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for msg in every_variant() {
            let wrapped = gm(msg);
            let bytes = encode_msg(&wrapped);
            assert_eq!(decode_msg(&bytes).as_ref(), Ok(&wrapped), "{wrapped:?}");
            let datagram = encode_datagram(NodeId::new(11), &wrapped);
            assert_eq!(
                decode_datagram(&datagram),
                Ok((NodeId::new(11), wrapped.clone())),
                "{wrapped:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected_for_every_variant() {
        for msg in every_variant() {
            let wrapped = gm(msg);
            let mut bytes = encode_msg(&wrapped);
            bytes.push(0xAB);
            assert_eq!(
                decode_msg(&bytes),
                Err(WireError::TrailingBytes(1)),
                "{wrapped:?}"
            );
        }
    }

    #[test]
    fn oversized_path_length_is_rejected_before_allocation() {
        let mut bytes = vec![WIRE_VERSION];
        bytes.extend_from_slice(&0u32.to_le_bytes()); // group
        bytes.push(TAG_SETUP);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd path len
        assert_eq!(
            decode_msg(&bytes),
            Err(WireError::OversizedSequence(u32::MAX))
        );
    }
}
