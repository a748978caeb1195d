//! In-memory spans recorded from the benchmark's side of every call into a
//! crate. Spans *inside* the crates are a later change (ROADMAP item 4).
//!
//! A span is `(id, name, start, end, parent, request)`; `name` is
//! `<layer>.<call>`. Self time (span minus children) is folded into a
//! per-name table as each span closes, so a long run needs no more memory
//! than the first [`SPAN_CAP`] raw spans it keeps for the output file.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::report::J;

/// Raw spans kept for `out/<workload>.spans.json`; the self-time table and
/// the counts always cover every span.
pub const SPAN_CAP: usize = 20_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u32,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    id: u32,
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
    request: u32,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: u32,
    open: Vec<Open>,
    spans: Vec<Span>,
    table: BTreeMap<&'static str, SelfTime>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
            table: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A tracer for another thread that shares this one's clock origin.
    pub fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            ..Tracer::new(self.enabled)
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between windows (the traced run
    /// alternates to measure its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggle only between spans");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, request: u32) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.now_ns();
        self.open.push(Open {
            id,
            name,
            start_ns,
            children_ns: 0,
            request,
        });
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let Some(open) = self.open.pop() else {
            return;
        };
        let total = end_ns - open.start_ns;
        let entry = self.table.entry(open.name).or_default();
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total.saturating_sub(open.children_ns);
        let parent = self.open.last_mut().map(|p| {
            p.children_ns += total;
            p.id
        });
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                id: open.id,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                parent,
                request: open.request,
            });
        }
    }

    /// A leaf (or parent) span around `f`.
    pub fn span<R>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> R) -> R {
        self.enter(name, request);
        let out = f();
        self.exit();
        out
    }

    /// A count taken at the same boundary as a span.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_default() += n;
        }
    }

    pub fn self_time(&self, name: &str) -> SelfTime {
        self.table.get(name).copied().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Folds another thread's tracer into this one. Span ids are rebased so
    /// they stay unique; parents keep pointing at the right span.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.next_id;
        self.next_id += other.next_id;
        for (name, st) in other.table {
            let e = self.table.entry(name).or_default();
            e.count += st.count;
            e.total_ns += st.total_ns;
            e.self_ns += st.self_ns;
        }
        for (name, n) in other.counts {
            *self.counts.entry(name).or_default() += n;
        }
        for mut s in other.spans {
            if self.spans.len() >= SPAN_CAP {
                break;
            }
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// The `spans.json` document: per-name and per-layer self time, the
    /// counts, and the first [`SPAN_CAP`] raw spans.
    pub fn to_json(&self, workload: &str) -> J {
        let ms = |ns: u64| J::Num(ns as f64 / 1e6);
        let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
        let mut names = Vec::new();
        for (name, st) in &self.table {
            let layer = name.split('.').next().unwrap_or(name);
            *layers.entry(layer).or_default() += st.self_ns;
            names.push(J::obj([
                ("name", J::str(*name)),
                ("layer", J::str(layer)),
                ("count", J::Int(st.count as i64)),
                ("total_ms", ms(st.total_ns)),
                ("self_ms", ms(st.self_ns)),
            ]));
        }
        let all: u64 = layers.values().sum();
        let layer_rows = layers
            .iter()
            .map(|(layer, &ns)| {
                J::obj([
                    ("layer", J::str(*layer)),
                    ("self_ms", ms(ns)),
                    (
                        "share",
                        J::Num(if all == 0 {
                            0.0
                        } else {
                            ns as f64 / all as f64
                        }),
                    ),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                J::obj([
                    ("id", J::Int(s.id as i64)),
                    ("name", J::str(s.name)),
                    ("start_ns", J::Int(s.start_ns as i64)),
                    ("end_ns", J::Int(s.end_ns as i64)),
                    ("parent", s.parent.map_or(J::Null, |p| J::Int(p as i64))),
                    ("request", J::Int(s.request as i64)),
                ])
            })
            .collect();
        J::obj([
            ("workload", J::str(workload)),
            ("spans_recorded", J::Int(self.next_id as i64)),
            ("spans_kept", J::Int(self.spans.len() as i64)),
            ("layer_self_time", J::Arr(layer_rows)),
            ("self_time", J::Arr(names)),
            (
                "counts",
                J::Obj(
                    self.counts
                        .iter()
                        .map(|(k, &v)| (k.to_string(), J::Int(v as i64)))
                        .collect(),
                ),
            ),
            ("spans", J::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        t.enter("bench.request", 7);
        t.span("planner.plan", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("planner.execute", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.exit();
        let req = t.self_time("bench.request");
        let kids = t.self_time("planner.plan").total_ns + t.self_time("planner.execute").total_ns;
        assert_eq!(req.count, 1);
        assert_eq!(req.self_ns, req.total_ns - kids);
        assert!(req.total_ns >= 5_000_000);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, Some(t.spans[2].id));
        assert_eq!(t.spans[2].parent, None);
        assert!(t.spans.iter().all(|s| s.request == 7));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("core.group_by", 0, || ());
        t.count("pager.disk_reads", 5);
        assert_eq!(t.self_time("core.group_by").count, 0);
        assert_eq!(t.counter("pager.disk_reads"), 0);
    }

    #[test]
    fn merge_rebases_ids() {
        let mut a = Tracer::new(true);
        a.span("x.a", 0, || ());
        let mut b = a.fork();
        b.enter("x.outer", 1);
        b.span("x.inner", 1, || ());
        b.exit();
        a.merge(b);
        assert_eq!(a.spans.len(), 3);
        let inner = a.spans.iter().find(|s| s.name == "x.inner").unwrap();
        let outer = a.spans.iter().find(|s| s.name == "x.outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_ne!(outer.id, a.spans[0].id);
    }
}
