//! Spans recorded around the calls the benchmark makes into each layer.
//! They are kept in memory during the traced pass and written as JSON
//! lines when it ends; nothing inside the simulated system is touched.

use std::io::{self, Write};
use std::time::Instant;

/// One recorded interval. `trace` groups the spans of one request: the
/// measured query's index, or [`RUN_TRACE`] for spans of the run itself
/// (set-up, replay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub trace: u64,
    pub span: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub name: &'static str,
    pub wall_start_ns: u64,
    pub wall_end_ns: u64,
    /// Simulated time the call accounted for (0 where it has none).
    pub sim_ns: u64,
    pub class: &'static str,
}

/// `trace` of spans that belong to no single query.
pub const RUN_TRACE: u64 = u64::MAX;

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.wall_end_ns - self.wall_start_ns
    }
}

/// A span's self time: its duration minus its children's. The benchmark
/// is one thread, so children never overlap and their durations add up
/// to the interval they cover. A shadow child (the repeated top-K call)
/// runs right *after* its parent rather than inside it; subtracting its
/// duration is then the estimate of what the same call cost inside.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let covered: u64 = children.iter().map(|c| c.wall_ns()).sum();
    span.wall_ns().saturating_sub(covered)
}

/// How `execute` served a query, from the result-cache counters around
/// the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    ResultMemHit,
    ResultSsdHit,
    Computed,
}

impl QueryClass {
    pub fn label(self) -> &'static str {
        match self {
            QueryClass::ResultMemHit => "result_mem_hit",
            QueryClass::ResultSsdHit => "result_ssd_hit",
            QueryClass::Computed => "computed",
        }
    }
}

/// The per-query spans in compact form (a traced pass can hold millions):
/// the root `engine.execute` span and, for a computed query, its shadow
/// `searchidx.topk` child, which starts when `execute` returns.
#[derive(Debug, Clone, Copy)]
pub struct QuerySpans {
    pub start_ns: u64,
    pub execute_ns: u32,
    pub topk_ns: u32,
    pub sim_ns: u64,
    pub class: QueryClass,
}

/// Written query traces are capped so a multi-million-query pass does not
/// leave a gigabyte of JSON lines; every span still counts in the metrics.
pub const WRITTEN_QUERY_TRACES: usize = 50_000;

/// The in-memory span store of one traced pass.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    /// Run-level and per-operation spans, in recording order.
    pub spans: Vec<Span>,
    /// One entry per measured query, in stream order.
    pub queries: Vec<QuerySpans>,
    next_id: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            queries: Vec::new(),
            next_id: 0,
        }
    }
}

impl SpanLog {
    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span that began at `started` and took `wall_ns`. The layer
    /// is the name's prefix.
    pub fn record(
        &mut self,
        trace: u64,
        name: &'static str,
        class: &'static str,
        started: Instant,
        wall_ns: u64,
    ) {
        let wall_start_ns = started.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            trace,
            span: self.next_id,
            parent: None,
            layer: name.split('.').next().unwrap_or(name),
            name,
            wall_start_ns,
            wall_end_ns: wall_start_ns + wall_ns,
            sim_ns: 0,
            class,
        });
        self.next_id += 1;
    }

    /// Spans held in memory: the recorded ones plus one `execute` span
    /// per query and one `topk` span per computed query.
    pub fn span_count(&self) -> u64 {
        let shadows = self
            .queries
            .iter()
            .filter(|q| q.class == QueryClass::Computed)
            .count();
        (self.spans.len() + self.queries.len() + shadows) as u64
    }

    /// Expand query `index` into its `execute` span and optional shadow
    /// child. Span ids continue after the recorded spans.
    pub fn query_spans(&self, index: usize) -> (Span, Option<Span>) {
        let q = &self.queries[index];
        let id = self.next_id + 2 * index as u64;
        let execute = Span {
            trace: index as u64,
            span: id,
            parent: None,
            layer: "engine",
            name: "engine.execute",
            wall_start_ns: q.start_ns,
            wall_end_ns: q.start_ns + q.execute_ns as u64,
            sim_ns: q.sim_ns,
            class: q.class.label(),
        };
        let shadow = (q.class == QueryClass::Computed).then(|| Span {
            trace: index as u64,
            span: id + 1,
            parent: Some(id),
            layer: "searchidx",
            name: "searchidx.topk",
            wall_start_ns: execute.wall_end_ns,
            wall_end_ns: execute.wall_end_ns + q.topk_ns as u64,
            sim_ns: 0,
            class: "shadow",
        });
        (execute, shadow)
    }

    /// Write the spans as JSON lines: every recorded span, then the spans
    /// of the first [`WRITTEN_QUERY_TRACES`] queries.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            write_span(out, s)?;
        }
        for index in 0..self.queries.len().min(WRITTEN_QUERY_TRACES) {
            let (execute, shadow) = self.query_spans(index);
            write_span(out, &execute)?;
            if let Some(shadow) = shadow {
                write_span(out, &shadow)?;
            }
        }
        Ok(())
    }
}

fn write_span(out: &mut impl Write, s: &Span) -> io::Result<()> {
    let trace = match s.trace {
        RUN_TRACE => "null".to_string(),
        t => t.to_string(),
    };
    let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
    // Layer, name and class are identifiers from this crate: no escaping.
    writeln!(
        out,
        "{{\"trace\":{trace},\"span\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\
         \"wall_start_ns\":{},\"wall_end_ns\":{},\"sim_ns\":{},\"class\":\"{}\"}}",
        s.span, s.layer, s.name, s.wall_start_ns, s.wall_end_ns, s.sim_ns, s.class
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn span(start: u64, end: u64) -> Span {
        Span {
            trace: 0,
            span: 0,
            parent: None,
            layer: "engine",
            name: "engine.execute",
            wall_start_ns: start,
            wall_end_ns: end,
            sim_ns: 0,
            class: "computed",
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let parent = span(100, 200);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        let (a, b) = (span(110, 140), span(150, 160));
        assert_eq!(self_time_ns(&parent, &[&a, &b]), 60);
        // A shadow child runs after its parent; its duration still counts.
        let shadow = span(200, 293);
        assert_eq!(self_time_ns(&parent, &[&shadow]), 7);
        // A shadow slower than the call it repeats cannot make self time
        // negative.
        let slow = span(200, 350);
        assert_eq!(self_time_ns(&parent, &[&slow]), 0);
    }

    #[test]
    fn query_spans_expand_with_parent_links_and_parse_as_json() {
        let mut log = SpanLog::default();
        log.record(RUN_TRACE, "engine.new", "run", Instant::now(), 3_000);
        assert_eq!(log.spans[0].layer, "engine");
        assert_eq!(log.spans[0].wall_ns(), 3_000);
        log.queries.push(QuerySpans {
            start_ns: 1_000,
            execute_ns: 500,
            topk_ns: 400,
            sim_ns: 20_000_000,
            class: QueryClass::Computed,
        });
        log.queries.push(QuerySpans {
            start_ns: 2_000,
            execute_ns: 50,
            topk_ns: 0,
            sim_ns: 502_000,
            class: QueryClass::ResultMemHit,
        });
        assert_eq!(log.span_count(), 4);
        let (execute, shadow) = log.query_spans(0);
        let shadow = shadow.expect("computed queries have a shadow");
        assert_eq!(shadow.parent, Some(execute.span));
        assert_eq!(shadow.wall_start_ns, execute.wall_end_ns);
        assert_eq!(self_time_ns(&execute, &[&shadow]), 100);
        assert!(log.query_spans(1).1.is_none());

        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<_> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].get("trace"), Some(&json::Value::Null));
        assert_eq!(lines[2].get("parent").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            lines[3].get("class").unwrap().as_str(),
            Some("result_mem_hit")
        );
    }
}
