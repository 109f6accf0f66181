//! Minimal HTTP/1.1 introspection server.
//!
//! Serves JSON views of the [`StatusBoard`] a running daemon's nodes
//! publish into. Deliberately tiny — a hand-rolled request-line parser
//! over `TcpListener`, `Connection: close` on every response — because
//! the build environment has no async runtime or HTTP stack, and four
//! read-only GET routes don't justify one:
//!
//! | route | body |
//! |---|---|
//! | `GET /status` | every node's [`NodeStatus`] (null until first publish) |
//! | `GET /nodes/<id>` | one node's [`NodeStatus`] |
//! | `GET /groups/<id>/tree` | the group's tree, one row per participating node |
//! | `GET /health` | fleet-merged [`ControlHealth`] plus down/published counts |

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use smrp_metrics::ControlHealth;

use crate::status::{NodeStatus, StatusBoard};

/// Body of `GET /status`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatusView {
    /// Slot per node; `null` until that node first publishes.
    pub nodes: Vec<Option<NodeStatus>>,
}

/// One node's row in a `GET /groups/<g>/tree` view.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeRow {
    /// Node id.
    pub node: u32,
    /// Whether the node is currently failed.
    pub down: bool,
    /// Forwarding state for the group.
    pub on_tree: bool,
    /// Member subscription.
    pub member: bool,
    /// Parent on the tree.
    pub upstream: Option<u32>,
    /// Children on the tree, sorted.
    pub downstream: Vec<u32>,
    /// Advertised Sub-tree Height Rank.
    pub shr: u32,
    /// Local-detour recovery in flight.
    pub recovering: bool,
    /// Data packets delivered to the member application.
    pub deliveries: u64,
}

/// Body of `GET /groups/<g>/tree`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeView {
    /// Group id.
    pub group: u32,
    /// Rows for every published node participating in the group.
    pub rows: Vec<TreeRow>,
}

/// Body of `GET /health`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthView {
    /// Total node slots.
    pub nodes: usize,
    /// Nodes that have published at least once.
    pub published: usize,
    /// Nodes currently down.
    pub down: usize,
    /// Reliable-lane health merged across the fleet.
    pub health: ControlHealth,
}

/// Handle to the background server thread.
pub(crate) struct Introspector {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl Introspector {
    /// The bound listening address (useful with a `:0` bind).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the server thread and waits for it to exit.
    pub(crate) fn stop(self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
    }
}

/// Starts serving `board` on `bind` (use port 0 for an ephemeral port).
pub(crate) fn serve(board: Arc<StatusBoard>, bind: SocketAddr) -> io::Result<Introspector> {
    let listener = TcpListener::bind(bind)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = thread::Builder::new()
        .name("smrpd-introspect".into())
        .spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = handle_connection(stream, &board);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        })?;
    Ok(Introspector {
        addr,
        shutdown,
        handle,
    })
}

fn handle_connection(mut stream: TcpStream, board: &StatusBoard) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut request_line = String::new();
    BufReader::new(&stream).read_line(&mut request_line)?;
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (code, body) = if method != "GET" {
        (405, "{\"error\":\"method not allowed\"}".to_string())
    } else {
        route(path, board)
    };
    let reason = match code {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

/// Resolves a request path to `(status code, JSON body)`.
fn route(path: &str, board: &StatusBoard) -> (u16, String) {
    let not_found = || (404, "{\"error\":\"not found\"}".to_string());
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    match segments.as_slice() {
        ["status"] => {
            let view = StatusView {
                nodes: board.snapshot(),
            };
            (200, serde_json::to_string(&view).expect("view serializes"))
        }
        ["health"] => {
            let snapshot = board.snapshot();
            let mut health = ControlHealth::default();
            let mut published = 0;
            let mut down = 0;
            for status in snapshot.iter().flatten() {
                published += 1;
                down += usize::from(status.down);
                health.merge(&status.health);
            }
            let view = HealthView {
                nodes: board.len(),
                published,
                down,
                health,
            };
            (200, serde_json::to_string(&view).expect("view serializes"))
        }
        ["nodes", id] => match id.parse::<usize>().ok().and_then(|i| board.node(i)) {
            Some(status) => (
                200,
                serde_json::to_string(&status).expect("status serializes"),
            ),
            None => not_found(),
        },
        ["groups", id, "tree"] => {
            let Ok(group) = id.parse::<u32>() else {
                return not_found();
            };
            let mut rows = Vec::new();
            for status in board.snapshot().into_iter().flatten() {
                if let Some(g) = status.groups.iter().find(|g| g.group == group) {
                    rows.push(TreeRow {
                        node: status.node,
                        down: status.down,
                        on_tree: g.on_tree,
                        member: g.member,
                        upstream: g.upstream,
                        downstream: g.downstream.clone(),
                        shr: g.shr,
                        recovering: g.recovering,
                        deliveries: g.deliveries,
                    });
                }
            }
            if rows.is_empty() {
                return not_found();
            }
            let view = TreeView { group, rows };
            (200, serde_json::to_string(&view).expect("view serializes"))
        }
        _ => not_found(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::NodeStatus;

    #[test]
    fn health_keeps_serving_over_a_poisoned_slot() {
        let board = StatusBoard::new(2);
        board.publish(NodeStatus {
            node: 0,
            down: false,
            now_ns: 7,
            groups: Vec::new(),
            health: ControlHealth::default(),
        });
        board.poison_slot_for_test(0);
        let (code, body) = route("/health", &board);
        assert_eq!(code, 200, "a dead publisher must not take down /health");
        let view: HealthView = serde_json::from_str(&body).unwrap();
        assert_eq!(view.nodes, 2);
        assert_eq!(view.published, 1);
        // The other endpoints cross the same lock and must survive too.
        assert_eq!(route("/status", &board).0, 200);
        assert_eq!(route("/nodes/0", &board).0, 200);
    }
}
