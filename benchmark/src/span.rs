//! In-memory spans around the calls the benchmark makes into the crates.
//!
//! A span is named `<layer>.<call>` where the layer is the crate the call
//! enters (`net`, `core`, `sim`, `proto`, `faultlab`, `smrpd`); any other
//! name is the harness's own time. Spans nest by call order on one
//! thread, so a span's self time is its duration minus its children's.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The crates a span can be attributed to, in ledger order.
pub const LAYERS: [&str; 6] = ["net", "core", "sim", "proto", "faultlab", "smrpd"];

/// Layer name for time spent in the benchmark's own code.
pub const HARNESS: &str = "harness";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub rep: u32,
    pub case: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The crate this span's self time belongs to.
    pub fn layer(&self) -> &'static str {
        let prefix = self.name.split('.').next().unwrap_or("");
        LAYERS
            .iter()
            .copied()
            .find(|&l| l == prefix)
            .unwrap_or(HARNESS)
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Records spans when enabled; a disabled tracer reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
    case: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            case: 0,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (a traced run measures some units
    /// untraced to price the tracing itself).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggle tracing between spans only");
        self.enabled = enabled;
    }

    /// Labels subsequent spans with the rep and case they belong to.
    pub fn label(&mut self, rep: u32, case: u32) {
        self.rep = rep;
        self.case = case;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
            case: self.case,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Times one call as a span.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\
                 \"workload\":\"{}\",\"rep\":{},\"case\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, workload, s.rep, s.case
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.duration_ns();
        }
    }
    own
}

/// What a set of root spans (and everything beneath them) adds up to.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Summed duration of the root spans.
    pub total_ns: u64,
    /// Summed duration of the roots' direct children ÷ `total_ns`: how
    /// much of each unit of work the spans beneath it account for.
    pub coverage: f64,
    /// Self time by layer over the roots and all their descendants.
    pub self_ns_by_layer: BTreeMap<&'static str, u64>,
    /// Summed duration and call count by span name.
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
}

impl Breakdown {
    /// Share of the roots' time that is self time of `layer`.
    pub fn share(&self, layer: &str) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.self_ns_by_layer.get(layer).copied().unwrap_or(0) as f64 / self.total_ns as f64
    }

    /// Mean duration of spans named `name`, in nanoseconds.
    pub fn mean_ns(&self, name: &str) -> Option<f64> {
        self.by_name
            .get(name)
            .filter(|(_, calls)| *calls > 0)
            .map(|(ns, calls)| *ns as f64 / *calls as f64)
    }
}

/// Breaks down every span tree whose root is named `root`.
pub fn breakdown(spans: &[Span], root: &str) -> Breakdown {
    let own = self_times_ns(spans);
    // Parents precede children, so one forward pass marks whole subtrees.
    let mut under_root = vec![false; spans.len()];
    let mut total_ns = 0;
    let mut children_ns = 0;
    let mut self_ns_by_layer = BTreeMap::new();
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let parent_in = s.parent.is_some_and(|p| under_root[p as usize]);
        let is_root = !parent_in && s.name == root;
        under_root[i] = parent_in || is_root;
        if !under_root[i] {
            continue;
        }
        if is_root {
            total_ns += s.duration_ns();
        } else if s.parent.is_some_and(|p| spans[p as usize].name == root) {
            children_ns += s.duration_ns();
        }
        *self_ns_by_layer.entry(s.layer()).or_insert(0) += own[i];
        let e = by_name.entry(s.name).or_insert((0, 0));
        e.0 += s.duration_ns();
        e.1 += 1;
    }
    Breakdown {
        total_ns,
        coverage: if total_ns == 0 {
            0.0
        } else {
            children_ns as f64 / total_ns as f64
        },
        self_ns_by_layer,
        by_name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
            case: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("proto.plan", 10, 30, Some(0)),
            span("proto.run", 30, 90, Some(0)), // adjacent to the first child
            span("sim.step", 40, 70, Some(2)),  // nested in the second
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 30, 30]);
    }

    #[test]
    fn breakdown_sums_to_the_whole() {
        let spans = vec![
            span("setup", 0, 50, None),
            span("unit", 50, 150, None),
            span("net.dijkstra", 60, 100, Some(1)),
            span("core.join", 100, 140, Some(1)),
            span("net.dijkstra", 110, 120, Some(3)),
            span("unit", 150, 170, None),
        ];
        let b = breakdown(&spans, "unit");
        assert_eq!(b.total_ns, 120);
        assert_eq!(b.coverage, 80.0 / 120.0);
        assert_eq!(b.self_ns_by_layer[HARNESS], 40);
        assert_eq!(b.self_ns_by_layer["net"], 50);
        assert_eq!(b.self_ns_by_layer["core"], 30);
        let parts: u64 = b.self_ns_by_layer.values().sum();
        assert_eq!(parts, b.total_ns);
        assert_eq!(b.by_name["net.dijkstra"], (50, 2));
        assert_eq!(b.mean_ns("net.dijkstra"), Some(25.0));
        assert!((b.share("net") - 50.0 / 120.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("net.x");
        t.exit(id);
        assert_eq!(t.call("core.y", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let mut t = Tracer::new(true);
        t.label(2, 5);
        let outer = t.enter("unit");
        t.call("net.a", || ());
        t.call("core.b", || ());
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!((s[0].rep, s[0].case), (2, 5));
        assert!(s[0].end_ns >= s[2].end_ns);
        assert_eq!(s[1].layer(), "net");
        assert_eq!(s[0].layer(), HARNESS);
    }
}
