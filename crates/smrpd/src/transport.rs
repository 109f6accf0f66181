//! Datagram transports for the daemon.
//!
//! A [`Transport`] moves opaque wire frames (see [`smrp_proto::wire`])
//! between router nodes. Two backends ship:
//!
//! * [`ChannelTransport`] — an in-process fabric of `std::sync::mpsc`
//!   channels, one receiver per node. Zero syscalls, useful for tests
//!   and for running many daemon instances inside one process.
//! * [`UdpTransport`] — one loopback UDP socket per node. This is the
//!   "real wire": frames actually leave the process boundary, the OS
//!   may reorder or (under load) drop them, and the conformance suite
//!   must still converge to the simulator's digest.
//!
//! Both are *unreliable* by design: the SMRP reliable lane
//! ([`smrp_proto::reliable`]) sits above the transport, exactly as it
//! sits above the simulator's lossy channel.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

use smrp_net::NodeId;

/// An unreliable, unordered datagram fabric endpoint owned by one node.
///
/// Implementations must be [`Send`] so each node's runtime can run on
/// its own thread.
pub trait Transport: Send {
    /// The node this endpoint belongs to.
    fn local_node(&self) -> NodeId;

    /// Fire-and-forget a frame towards `to`. Losing the frame is
    /// allowed (the protocol's soft state and reliable lane absorb it);
    /// only genuine I/O faults should surface as errors.
    fn send(&self, to: NodeId, frame: &[u8]) -> io::Result<()>;

    /// Blocks up to `timeout` for one inbound frame.
    ///
    /// Returns `Ok(None)` on timeout — the runtime uses that as its
    /// timer-driven heartbeat, so a timeout is the *common* path, not
    /// an error.
    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>>;
}

/// In-process transport: every node holds a `Sender` clone for every
/// peer and its own `Receiver`.
pub struct ChannelTransport {
    me: NodeId,
    peers: Vec<Sender<Vec<u8>>>,
    inbox: Receiver<Vec<u8>>,
}

impl ChannelTransport {
    /// Builds a fully-connected fabric of `n` endpoints, index `i`
    /// serving node `i`.
    pub fn fabric(n: usize) -> Vec<ChannelTransport> {
        let mut senders = Vec::with_capacity(n);
        let mut inboxes = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            inboxes.push(rx);
        }
        inboxes
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| ChannelTransport {
                me: NodeId::new(i),
                peers: senders.clone(),
                inbox,
            })
            .collect()
    }
}

impl Transport for ChannelTransport {
    fn local_node(&self) -> NodeId {
        self.me
    }

    fn send(&self, to: NodeId, frame: &[u8]) -> io::Result<()> {
        match self.peers.get(to.index()) {
            // A hung-up peer (its runtime already exited) is equivalent
            // to a lossy wire, not an error.
            Some(tx) => {
                let _ = tx.send(frame.to_vec());
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such node {to}"),
            )),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        match self.inbox.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            // Every sender dropped: all peers shut down. Treat like a
            // silent wire so the runtime can finish its own horizon.
            Err(RecvTimeoutError::Disconnected) => {
                std::thread::sleep(timeout);
                Ok(None)
            }
        }
    }
}

/// Loopback UDP transport: one `UdpSocket` per node, bound to an
/// ephemeral 127.0.0.1 port; the address map is exchanged at build time.
pub struct UdpTransport {
    me: NodeId,
    socket: UdpSocket,
    peers: Vec<SocketAddr>,
    buf: Box<[u8; 64 * 1024]>,
}

impl UdpTransport {
    /// Binds `n` loopback sockets and wires the shared address map.
    pub fn fabric(n: usize) -> io::Result<Vec<UdpTransport>> {
        let sockets: Vec<UdpSocket> = (0..n)
            .map(|_| UdpSocket::bind("127.0.0.1:0"))
            .collect::<io::Result<_>>()?;
        let peers: Vec<SocketAddr> = sockets
            .iter()
            .map(|s| s.local_addr())
            .collect::<io::Result<_>>()?;
        sockets
            .into_iter()
            .enumerate()
            .map(|(i, socket)| {
                Ok(UdpTransport {
                    me: NodeId::new(i),
                    socket,
                    peers: peers.clone(),
                    buf: Box::new([0u8; 64 * 1024]),
                })
            })
            .collect()
    }
}

impl Transport for UdpTransport {
    fn local_node(&self) -> NodeId {
        self.me
    }

    fn send(&self, to: NodeId, frame: &[u8]) -> io::Result<()> {
        let addr = self
            .peers
            .get(to.index())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no such node {to}")))?;
        // Kernel-side drops (full socket buffers under burst load) are
        // the wire being lossy, which the protocol tolerates.
        match self.socket.send_to(frame, addr) {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        // set_read_timeout(Some(ZERO)) is an error on every platform;
        // clamp to the smallest meaningful wait.
        let timeout = timeout.max(Duration::from_micros(50));
        self.socket.set_read_timeout(Some(timeout))?;
        match self.socket.recv_from(&mut self.buf[..]) {
            Ok((len, _from)) => Ok(Some(self.buf[..len].to_vec())),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_fabric_routes_between_endpoints() {
        let mut fabric = ChannelTransport::fabric(3);
        let c = fabric.pop().unwrap();
        let mut b = fabric.pop().unwrap();
        let a = fabric.pop().unwrap();
        assert_eq!(a.local_node(), NodeId::new(0));
        a.send(NodeId::new(1), b"hi").unwrap();
        c.send(NodeId::new(1), b"yo").unwrap();
        let first = b.recv_timeout(Duration::from_millis(100)).unwrap();
        let second = b.recv_timeout(Duration::from_millis(100)).unwrap();
        assert_eq!(first.as_deref(), Some(&b"hi"[..]));
        assert_eq!(second.as_deref(), Some(&b"yo"[..]));
        assert_eq!(b.recv_timeout(Duration::from_millis(5)).unwrap(), None);
    }

    #[test]
    fn udp_fabric_routes_over_loopback() {
        let mut fabric = UdpTransport::fabric(2).unwrap();
        let mut b = fabric.pop().unwrap();
        let a = fabric.pop().unwrap();
        a.send(NodeId::new(1), b"frame").unwrap();
        let mut got = None;
        for _ in 0..50 {
            if let Some(f) = b.recv_timeout(Duration::from_millis(20)).unwrap() {
                got = Some(f);
                break;
            }
        }
        assert_eq!(got.as_deref(), Some(&b"frame"[..]));
    }
}
