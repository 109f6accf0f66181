//! Graphviz (DOT) export for multicast trees.
//!
//! Renders the topology with the multicast tree overlaid: tree links are
//! drawn bold, the source as a double circle, members filled, relays
//! hollow, and (optionally) a failed component in red with the restoration
//! path dashed. Handy for debugging path selection and for documentation
//! figures — `dot -Tsvg` turns the output into exactly the kind of picture
//! the paper's Figures 1–5 show.

use std::fmt::Write as _;

use smrp_net::{FailureScenario, Graph, Path};

use crate::tree::MulticastTree;

/// Builder for a DOT rendering of a tree over its topology.
#[derive(Debug, Clone)]
pub struct DotExport<'a> {
    graph: &'a Graph,
    tree: &'a MulticastTree,
    failures: Option<&'a FailureScenario>,
    restoration: Option<&'a Path>,
}

impl<'a> DotExport<'a> {
    /// Starts an export of `tree` over `graph`.
    pub fn new(graph: &'a Graph, tree: &'a MulticastTree) -> Self {
        DotExport {
            graph,
            tree,
            failures: None,
            restoration: None,
        }
    }

    /// Highlights failed components in red.
    pub fn failures(mut self, scenario: &'a FailureScenario) -> Self {
        self.failures = Some(scenario);
        self
    }

    /// Draws a restoration path as a dashed overlay.
    pub fn restoration(mut self, path: &'a Path) -> Self {
        self.restoration = Some(path);
        self
    }

    /// Renders the DOT document.
    pub fn render(&self) -> String {
        let mut out = String::from("graph smrp {\n  layout=neato;\n  overlap=false;\n");
        for n in self.graph.node_ids() {
            let mut attrs: Vec<String> = Vec::new();
            if let Some(p) = self.graph.position(n) {
                attrs.push(format!("pos=\"{:.3},{:.3}\"", p.x * 10.0, p.y * 10.0));
            }
            if n == self.tree.source() {
                attrs.push("shape=doublecircle".into());
                attrs.push("style=filled".into());
                attrs.push("fillcolor=gold".into());
            } else if self.tree.is_member(n) {
                attrs.push("shape=circle".into());
                attrs.push("style=filled".into());
                attrs.push("fillcolor=lightblue".into());
            } else if self.tree.is_on_tree(n) {
                attrs.push("shape=circle".into());
            } else {
                attrs.push("shape=point".into());
            }
            if self.failures.is_some_and(|f| !f.node_usable(n)) {
                attrs.push("color=red".into());
            }
            let _ = writeln!(out, "  \"{n}\" [{}];", attrs.join(", "));
        }

        let tree_links = self.tree.links(self.graph);
        let restoration_links = self
            .restoration
            .map(|p| p.links(self.graph))
            .unwrap_or_default();
        for l in self.graph.link_ids() {
            let link = self.graph.link(l);
            let mut attrs = vec![
                format!("label=\"{:.1}\"", link.delay()),
                "fontsize=8".into(),
            ];
            let failed = self.failures.is_some_and(|f| !f.link_usable(self.graph, l));
            if failed {
                attrs.push("color=red".into());
                attrs.push("penwidth=2".into());
                attrs.push("style=dotted".into());
            } else if restoration_links.contains(&l) {
                attrs.push("color=forestgreen".into());
                attrs.push("penwidth=2.5".into());
                attrs.push("style=dashed".into());
            } else if tree_links.contains(&l) {
                attrs.push("penwidth=2.5".into());
            } else {
                attrs.push("color=gray70".into());
            }
            let _ = writeln!(
                out,
                "  \"{}\" -- \"{}\" [{}];",
                link.a(),
                link.b(),
                attrs.join(", ")
            );
        }
        out.push_str("}\n");
        out
    }
}

impl std::fmt::Display for DotExport<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use crate::recovery::{self, DetourKind};

    #[test]
    fn renders_figure1_with_roles() {
        let (g, tree, n) = paper::figure1();
        let dot = DotExport::new(&g, &tree).render();
        assert!(dot.starts_with("graph smrp {"));
        assert!(dot.ends_with("}\n"));
        // Source styled gold, members lightblue, off-tree B is a point.
        assert!(dot.contains("doublecircle"));
        assert_eq!(dot.matches("lightblue").count(), 2);
        assert!(dot.contains(&format!("\"{}\" [shape=point];", n.b)));
        // Tree links are bold; there are exactly 3 of them.
        assert_eq!(dot.matches("penwidth=2.5").count(), 3);
    }

    #[test]
    fn failure_and_restoration_overlays() {
        let (g, tree, n) = paper::figure1();
        let l_ad = g.link_between(n.a, n.d).unwrap();
        let fail = FailureScenario::link(l_ad);
        let rec = recovery::recover(&g, &tree, &fail, n.d, DetourKind::Local).unwrap();
        let dot = DotExport::new(&g, &tree)
            .failures(&fail)
            .restoration(rec.restoration_path())
            .render();
        assert!(dot.contains("color=red"));
        assert!(dot.contains("forestgreen"));
    }

    #[test]
    fn display_matches_render() {
        let (g, tree, _) = paper::figure1();
        let e = DotExport::new(&g, &tree);
        assert_eq!(e.to_string(), e.render());
    }
}
