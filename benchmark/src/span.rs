//! In-memory spans recorded by the traced run around calls into each
//! layer. Spans carry the id of the span that caused them and an op id
//! shared by everything one operation did; they are written as
//! Chrome-trace JSON when the run ends.

use std::time::Instant;

use gnnmark_telemetry::export::json_escape;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.what`, the layer being the crate the call goes into.
    pub name: String,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Microseconds since the tracer was created.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation the span belongs to, e.g. `STGCN/2`.
    pub op: String,
}

impl Span {
    /// Wall time covered, seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Collects spans for one traced run; disabled tracers record nothing so
/// the same driver code serves the untraced run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span and returns its result with the seconds it
    /// took (measured whether or not the tracer records).
    pub fn span<T>(&mut self, name: &str, op: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = self.now_us();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_us: start,
                end_us: start,
                parent: self.open.last().copied(),
                op: op.to_string(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = self.now_us();
        if let Some(id) = id {
            self.spans[id].end_us = end;
            self.open.pop();
        }
        (out, (end - start) / 1e6)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, parent and op ids in `args`.
    pub fn to_chrome_json(&self, workload: &str) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\
                     \"op\":\"{}\",\"self_us\":{:.3}}}}}",
                    json_escape(&s.name),
                    json_escape(s.name.split('.').next().unwrap_or("")),
                    s.start_us,
                    s.end_us - s.start_us,
                    json_escape(&s.op),
                    self_time_us(&self.spans, id),
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"workload\":\"{}\"}},\
             \"traceEvents\":[\n{}\n]}}\n",
            json_escape(workload),
            events.join(",\n")
        )
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover (children of one parent never overlap: the tracer is a stack).
pub fn self_time_us(spans: &[Span], id: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| s.end_us - s.start_us)
        .sum();
    (spans[id].end_us - spans[id].start_us - children).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: "t.x".into(),
            start_us,
            end_us,
            parent,
            op: "op/0".into(),
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children() {
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 30.0, Some(0)),
            span(40.0, 90.0, Some(0)),
        ];
        assert_eq!(self_time_us(&spans, 0), 30.0);
        assert_eq!(self_time_us(&spans, 1), 20.0);
    }

    #[test]
    fn self_time_subtracts_only_direct_children_when_nested() {
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 70.0, Some(0)),
            span(20.0, 50.0, Some(1)),
        ];
        assert_eq!(self_time_us(&spans, 0), 40.0);
        assert_eq!(self_time_us(&spans, 1), 30.0);
        assert_eq!(self_time_us(&spans, 2), 30.0);
    }

    #[test]
    fn tracer_links_parents_and_ops() {
        let mut t = Tracer::new(true);
        t.span("a.outer", "K/1", |t| {
            t.span("b.inner", "K/1", |_| ());
            t.span("b.inner", "K/1", |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|s| s.op == "K/1"));
        let json = t.to_chrome_json("w");
        gnnmark_telemetry::export::parse_json(&json).expect("chrome trace is valid JSON");
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let ((), secs) = t.span("a.b", "op", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert!(t.spans().is_empty());
    }
}
