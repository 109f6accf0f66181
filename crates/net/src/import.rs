//! Real-topology import (the paper's stated future work: "we are
//! collecting Internet's topology to evaluate SMRP's applicability to real
//! networks").
//!
//! Two pieces:
//!
//! * `parse_edge_list` — a plain-text edge-list loader
//!   (`u v delay [cost]` per line, `#` comments), the lingua franca of
//!   topology datasets (Rocketfuel, Internet Topology Zoo exports);
//! * bundled reference backbones — [`abilene`] (the Internet2/Abilene
//!   research backbone, 11 PoPs) and [`geant`] (a GÉANT-like European
//!   research backbone, 23 PoPs) with delays proportional to great-circle
//!   distances, so the experiments run on *real* router-level structure
//!   out of the box.

use crate::error::NetError;
use crate::graph::{Graph, LinkWeights};
use crate::ids::NodeId;

/// Parses a whitespace-separated edge list into a graph.
///
/// Each non-empty, non-comment line is `u v delay [cost]` with `u`/`v`
/// dense non-negative node indices. Nodes are created up to the largest
/// index seen. When `cost` is omitted it defaults to `1` (unit cost, the
/// convention of the bundled experiments).
///
/// # Errors
///
/// Returns [`NetError::InvalidParameter`] on malformed lines and the usual
/// graph errors on duplicate links, self-loops or bad weights.
pub(crate) fn parse_edge_list(text: &str) -> Result<Graph, NetError> {
    let mut edges: Vec<(usize, usize, f64, f64)> = Vec::new();
    let mut max_node = 0usize;
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if !(3..=4).contains(&fields.len()) {
            return Err(NetError::InvalidParameter {
                name: "edge_list",
                reason: "each line must be `u v delay [cost]`",
            });
        }
        let parse_idx = |s: &str| {
            s.parse::<usize>().map_err(|_| NetError::InvalidParameter {
                name: "edge_list",
                reason: "node indices must be non-negative integers",
            })
        };
        let parse_w = |s: &str| {
            s.parse::<f64>().map_err(|_| NetError::InvalidParameter {
                name: "edge_list",
                reason: "weights must be numbers",
            })
        };
        let u = parse_idx(fields[0])?;
        let v = parse_idx(fields[1])?;
        let delay = parse_w(fields[2])?;
        let cost = if fields.len() == 4 {
            parse_w(fields[3])?
        } else {
            1.0
        };
        max_node = max_node.max(u).max(v);
        edges.push((u, v, delay, cost));
    }
    let mut graph = Graph::with_nodes(max_node + 1);
    for (u, v, delay, cost) in edges {
        graph.add_link_weighted(NodeId::new(u), NodeId::new(v), LinkWeights { delay, cost })?;
    }
    Ok(graph)
}

/// The Abilene (Internet2) research backbone: 11 PoPs, 14 links.
///
/// Delays are propagation estimates in milliseconds from PoP great-circle
/// distances; costs are unit. Node order: 0 Seattle, 1 Sunnyvale,
/// 2 Los Angeles, 3 Denver, 4 Kansas City, 5 Houston, 6 Chicago,
/// 7 Indianapolis, 8 Atlanta, 9 Washington DC, 10 New York.
pub fn abilene() -> Graph {
    parse_edge_list(
        "\
        # Abilene backbone (delays ~ propagation ms, unit cost)\n\
        0 1 5.4   # Seattle - Sunnyvale\n\
        0 3 8.2   # Seattle - Denver\n\
        1 2 2.6   # Sunnyvale - Los Angeles\n\
        1 3 7.6   # Sunnyvale - Denver\n\
        2 5 11.1  # Los Angeles - Houston\n\
        3 4 4.5   # Denver - Kansas City\n\
        4 5 5.9   # Kansas City - Houston\n\
        4 7 3.5   # Kansas City - Indianapolis\n\
        5 8 5.7   # Houston - Atlanta\n\
        6 7 1.3   # Chicago - Indianapolis\n\
        6 10 5.7  # Chicago - New York\n\
        7 8 3.4   # Indianapolis - Atlanta\n\
        8 9 4.3   # Atlanta - Washington DC\n\
        9 10 1.6  # Washington DC - New York\n",
    )
    .expect("bundled topology is well-formed")
}

/// A GÉANT-like European research backbone: 23 PoPs, 38 links.
///
/// Delays are propagation estimates in milliseconds; costs are unit.
/// Node order: 0 London, 1 Paris, 2 Amsterdam, 3 Brussels, 4 Frankfurt,
/// 5 Geneva, 6 Madrid, 7 Lisbon, 8 Milan, 9 Vienna, 10 Prague,
/// 11 Berlin, 12 Copenhagen, 13 Stockholm, 14 Helsinki, 15 Warsaw,
/// 16 Budapest, 17 Zagreb, 18 Rome, 19 Athens, 20 Dublin, 21 Oslo,
/// 22 Bucharest.
pub fn geant() -> Graph {
    parse_edge_list(
        "\
        # GEANT-like European backbone\n\
        0 1 1.7    # London - Paris\n\
        0 2 1.8    # London - Amsterdam\n\
        0 20 2.3   # London - Dublin\n\
        20 1 3.0   # Dublin - Paris\n\
        0 4 3.2    # London - Frankfurt\n\
        1 3 1.3    # Paris - Brussels\n\
        1 5 2.0    # Paris - Geneva\n\
        1 6 5.3    # Paris - Madrid\n\
        2 3 0.9    # Amsterdam - Brussels\n\
        2 4 1.8    # Amsterdam - Frankfurt\n\
        2 12 3.1   # Amsterdam - Copenhagen\n\
        3 4 1.6    # Brussels - Frankfurt\n\
        4 5 2.3    # Frankfurt - Geneva\n\
        4 10 2.1   # Frankfurt - Prague\n\
        4 11 2.2   # Frankfurt - Berlin\n\
        4 16 4.1   # Frankfurt - Budapest\n\
        5 8 1.7    # Geneva - Milan\n\
        5 6 5.1    # Geneva - Madrid\n\
        6 7 2.5    # Madrid - Lisbon\n\
        7 0 7.9    # Lisbon - London\n\
        8 9 3.1    # Milan - Vienna\n\
        8 18 2.4   # Milan - Rome\n\
        9 10 1.3   # Vienna - Prague\n\
        9 16 1.1   # Vienna - Budapest\n\
        9 17 1.4   # Vienna - Zagreb\n\
        10 11 1.4  # Prague - Berlin\n\
        10 15 2.6  # Prague - Warsaw\n\
        11 12 1.8  # Berlin - Copenhagen\n\
        11 15 2.6  # Berlin - Warsaw\n\
        12 13 2.6  # Copenhagen - Stockholm\n\
        12 21 2.4  # Copenhagen - Oslo\n\
        13 14 2.0  # Stockholm - Helsinki\n\
        13 21 2.1  # Stockholm - Oslo\n\
        14 15 4.6  # Helsinki - Warsaw\n\
        16 22 3.2  # Budapest - Bucharest\n\
        17 18 2.6  # Zagreb - Rome\n\
        18 19 5.3  # Rome - Athens\n\
        19 22 3.7  # Athens - Bucharest\n",
    )
    .expect("bundled topology is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    #[test]
    fn parses_minimal_edge_list() {
        let g = parse_edge_list("0 1 2.0\n").unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.link_count(), 1);
        let l = g.link(g.link_ids().next().unwrap());
        assert_eq!(l.delay(), 2.0);
        assert_eq!(l.cost(), 1.0);
    }

    #[test]
    fn explicit_cost_is_honored() {
        let g = parse_edge_list("0 1 2.0 7.5\n").unwrap();
        let l = g.link(g.link_ids().next().unwrap());
        assert_eq!(l.cost(), 7.5);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let g = parse_edge_list("# header\n\n0 1 1.0 # trailing comment\n\n").unwrap();
        assert_eq!(g.link_count(), 1);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_edge_list("0 1\n").is_err());
        assert!(parse_edge_list("0 1 2.0 3.0 4.0\n").is_err());
        assert!(parse_edge_list("a b 1.0\n").is_err());
        assert!(parse_edge_list("0 1 zebra\n").is_err());
        // Self-loop via the graph layer.
        assert!(parse_edge_list("1 1 1.0\n").is_err());
        // Duplicate link via the graph layer.
        assert!(parse_edge_list("0 1 1.0\n1 0 2.0\n").is_err());
    }

    #[test]
    fn isolated_high_index_creates_nodes() {
        let g = parse_edge_list("0 5 1.0\n").unwrap();
        assert_eq!(g.node_count(), 6);
    }

    #[test]
    fn abilene_shape() {
        let g = abilene();
        assert_eq!(g.node_count(), 11);
        assert_eq!(g.link_count(), 14);
        assert!(is_connected(&g));
        // Every PoP has degree >= 2 (it is a resilient backbone).
        for n in g.node_ids() {
            assert!(g.degree(n) >= 2, "{n} has degree {}", g.degree(n));
        }
    }

    #[test]
    fn geant_shape() {
        let g = geant();
        assert_eq!(g.node_count(), 23);
        assert_eq!(g.link_count(), 38);
        assert!(is_connected(&g));
        for n in g.node_ids() {
            assert!(g.degree(n) >= 2, "{n} has degree {}", g.degree(n));
        }
    }
}
