//! In-memory spans recorded around the benchmark's own calls into each
//! crate, written out when the run ends.

use crate::json::J;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    /// Spans of one request (or one problem) share this id.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. When disabled every call is a no-op, so untraced runs
/// pay one branch per call site.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, t0: Instant) -> Tracer {
        Tracer {
            on,
            t0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`, nested under the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, req: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            req,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f();
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Record a finished span with explicit bounds (used for request
    /// spans measured on load-generator threads).
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            req,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        Some(id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0) += t;
    }
    out
}

pub fn spans_json(spans: &[Span]) -> J {
    J::Arr(
        spans
            .iter()
            .map(|s| {
                J::obj([
                    ("id", J::Int(s.id as i64)),
                    ("parent", s.parent.map_or(J::Null, |p| J::Int(p as i64))),
                    ("name", J::str(s.name.clone())),
                    ("req", J::Int(s.req as i64)),
                    ("start_ns", J::Int(s.start_ns as i64)),
                    ("end_ns", J::Int(s.end_ns as i64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            // Two overlapping children cover 10..50 once: 40 ns.
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50),
            // A disjoint child covers 60..70.
            span(3, Some(0), 60, 70),
            // A grandchild is charged to its own parent only.
            span(4, Some(3), 62, 68),
            // A child that leaks past its parent is clipped.
            span(5, Some(1), 35, 45),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 100 - 40 - 10);
        assert_eq!(t[1], 30 - 5);
        assert_eq!(t[2], 20);
        assert_eq!(t[3], 10 - 6);
        assert_eq!(t[4], 6);
        assert_eq!(t[5], 10);
    }

    #[test]
    fn nested_closure_spans_link_parents() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", 1, || {});
        let run = t.span("run", 2, || 7);
        let id = t.record("request", None, 3, 10, 90);
        let inner = t.record("server", id, 3, 40, 90);
        let s = t.spans();
        assert_eq!(run, 7);
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(inner, Some(3));
        assert_eq!(self_time_by_name(s)["request"], 30);
        let off = Tracer::new(false, Instant::now());
        assert!(off.spans().is_empty());
    }
}
