//! Spans recorded around the benchmark's calls into each layer.
//!
//! Spans are held in memory while a workload runs and written to
//! `trace.json` when the benchmark ends. A span's self time is its
//! duration minus the part of it that its child spans cover.

use std::time::Instant;

use crate::json::Json;

/// One timed interval; `parent` indexes the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records nested spans against one clock origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span named `name`, nested in whichever span
    /// is open. Returns the body's result and the span's duration in
    /// seconds.
    pub fn span<T>(&mut self, name: &str, body: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = body(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the span. Overlapping children
/// are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// `trace.json` rows for one workload's spans.
pub fn to_json(spans: &[Span], workload: &str) -> Vec<Json> {
    let self_ns = self_times_ns(spans);
    spans
        .iter()
        .zip(self_ns)
        .map(|(span, self_ns)| {
            Json::obj([
                ("name", Json::from(span.name.as_str())),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("workload", Json::from(workload)),
                ("self_ns", Json::Num(self_ns as f64)),
            ])
        })
        .collect()
}

/// Reads spans back from the rows [`to_json`] wrote (the child process
/// reports its spans to the parent this way).
pub fn from_json(rows: &[Json]) -> Vec<Span> {
    rows.iter()
        .filter_map(|row| {
            Some(Span {
                name: row.get("name")?.as_str()?.to_string(),
                start_ns: row.get("start_ns")?.as_f64()? as u64,
                end_ns: row.get("end_ns")?.as_f64()? as u64,
                parent: row.get("parent")?.as_f64().map(|p| p as usize),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            // Overlaps `a` on 30..40 and runs past the root's end.
            span("b", 30, 120, Some(0)),
            span("c", 50, 60, Some(0)),
            // Outside its parent altogether: covers nothing.
            span("stray", 200, 300, Some(1)),
        ];
        let self_ns = self_times_ns(&spans);
        // Root: children cover 10..100 once, so 10 ns are its own.
        assert_eq!(self_ns, vec![10, 20, 10, 90, 10, 100]);
    }

    #[test]
    fn tracer_nests_spans_and_reports_their_duration() {
        let mut tracer = Tracer::new();
        let ((), outer_s) = tracer.span("outer", |t| {
            let (value, _) = t.span("inner", |_| 7);
            assert_eq!(value, 7);
        });
        tracer.span("sibling", |_| ());
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(outer_s, (spans[0].end_ns - spans[0].start_ns) as f64 / 1e9);
    }

    #[test]
    fn spans_survive_the_json_round_trip() {
        let spans = vec![span("root", 5, 50, None), span("leaf", 6, 9, Some(0))];
        let rows = to_json(&spans, "w");
        assert_eq!(rows[1].get("workload").and_then(Json::as_str), Some("w"));
        assert_eq!(rows[0].get("self_ns").and_then(Json::as_f64), Some(42.0));
        let text = Json::Arr(rows).render();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(from_json(back.as_arr()), spans);
    }
}
