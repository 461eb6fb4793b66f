//! In-memory spans around calls into the program's public functions.
//!
//! The benchmark measures layers from outside: each call into a crate is
//! wrapped in a span (name, start, end, parent, op id, item count). A
//! layer's self time is its span minus the part its children cover.
//! Spans stay in memory during the run and are written out once at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Operation the span belongs to (plan index, batch number, ...).
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Items handled inside the span (requests in a batch); 1 for a call.
    pub count: u32,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            // Room for a traced run up front: growing the vector inside a
            // block would stall the load generator for milliseconds.
            spans: Vec::with_capacity(1 << 21),
            stack: Vec::new(),
        }
    }

    /// The instant span timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            count: 1,
        });
        self.stack.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Time one call as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Record an interval the caller timed itself (a syscall, a batch of
    /// `count` encodes) as a child of the innermost open span.
    pub fn leaf(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64, count: u32) {
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            count,
        });
    }

    /// Self time per span: duration minus the part of the interval its
    /// direct children cover (children are clipped to the parent, and
    /// overlapping siblings are not counted twice).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(cursor, s.end_ns);
                    let b = b.clamp(cursor, s.end_ns);
                    covered += b - a;
                    cursor = b;
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Per span name: (spans, items, total duration ns, total self ns).
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.items += u64::from(s.count);
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self_ns;
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per line, in recording order; `parent` is the
    /// line index of the enclosing span or -1.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"count\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, parent, s.count
            )?;
        }
        w.flush()
    }
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    pub spans: u64,
    pub items: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, u32)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name,
                op: 0,
                start_ns,
                end_ns,
                parent,
                count: 1,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let t = tracer_with(&[
            ("root", 0, 100, NO_PARENT),
            ("a", 10, 40, 0),
            // Overlaps `a` for 10 ns and overruns the parent by 20 ns:
            // only [40, 100) is newly covered.
            ("b", 30, 120, 0),
            ("a.inner", 15, 20, 1),
        ]);
        assert_eq!(t.self_ns(), vec![10, 25, 90, 5]);
        let totals = t.totals();
        assert_eq!(totals["root"].self_ns, 10);
        assert_eq!(totals["a"].total_ns, 30);
    }

    #[test]
    fn enter_exit_nest_and_leaf_attaches_to_the_open_span() {
        let mut t = Tracer::new();
        let root = t.enter("root", 7);
        let v = t.time("child", 7, || 41 + 1);
        assert_eq!(v, 42);
        t.leaf("syscall", 7, 1, 2, 16);
        t.exit(root);
        assert_eq!(t.len(), 3);
        assert_eq!(t.spans[1].parent, root);
        assert_eq!(t.spans[2].parent, root);
        assert_eq!(t.totals()["syscall"].items, 16);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }
}
