//! Exporters: JSON metrics snapshot, Prometheus text format, the run
//! manifest, and a dependency-free JSON validator shared by tests and the
//! CI smoke checks.
//!
//! The merged Chrome/Perfetto trace exporter lives in `gnnmark-profiler`
//! (it needs [`WorkloadProfile`]'s kernel records); this module covers the
//! purely host-side artifacts.

use std::fmt::Write as _;

use crate::metrics::MetricValue;

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON-safe number (JSON has no NaN/Infinity).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders a metrics snapshot as a pretty-printed JSON object keyed by
/// metric name. Counters become integers, gauges numbers, histograms
/// `{count, sum, min, max}` objects.
pub fn metrics_json(snapshot: &[(String, MetricValue)]) -> String {
    let mut out = String::from("{\n");
    for (i, (name, value)) in snapshot.iter().enumerate() {
        let _ = write!(out, "  \"{}\": ", json_escape(name));
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "{v}");
            }
            MetricValue::Gauge(v) => out.push_str(&json_number(*v)),
            MetricValue::Histogram {
                count,
                sum,
                min,
                max,
            } => {
                let _ = write!(
                    out,
                    "{{\"count\": {count}, \"sum\": {}, \"min\": {}, \"max\": {}}}",
                    json_number(*sum),
                    json_number(*min),
                    json_number(*max)
                );
            }
            MetricValue::Buckets { .. } => {
                let (bounds, counts, count, sum) = value.as_buckets().expect("buckets variant");
                let _ = write!(
                    out,
                    "{{\"count\": {count}, \"sum\": {}, \"le\": [",
                    json_number(sum)
                );
                for (i, b) in bounds.iter().enumerate() {
                    let _ = write!(out, "{}{}", if i > 0 { ", " } else { "" }, json_number(*b));
                }
                out.push_str("], \"buckets\": [");
                for (i, c) in counts.iter().enumerate() {
                    let _ = write!(out, "{}{c}", if i > 0 { ", " } else { "" });
                }
                out.push_str("]}");
            }
        }
        out.push_str(if i + 1 < snapshot.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Splits `gnnmark_foo{label="x"}` into its base name and the braced
/// label suffix (empty when unlabelled).
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// Renders a metrics snapshot in the Prometheus text exposition format.
/// Labelled series (`name{worker="3"}`) share one `# TYPE` line per base
/// name; histograms expand to `_count`/`_sum`/`_min`/`_max` series.
pub fn metrics_prometheus(snapshot: &[(String, MetricValue)]) -> String {
    let mut out = String::new();
    let mut last_typed = String::new();
    for (name, value) in snapshot {
        let (base, labels) = split_labels(name);
        match value {
            MetricValue::Counter(v) => {
                if base != last_typed {
                    let _ = writeln!(out, "# TYPE {base} counter");
                    last_typed = base.to_string();
                }
                let _ = writeln!(out, "{base}{labels} {v}");
            }
            MetricValue::Gauge(v) => {
                if base != last_typed {
                    let _ = writeln!(out, "# TYPE {base} gauge");
                    last_typed = base.to_string();
                }
                let _ = writeln!(out, "{base}{labels} {v}");
            }
            MetricValue::Histogram {
                count,
                sum,
                min,
                max,
            } => {
                if base != last_typed {
                    let _ = writeln!(out, "# TYPE {base} summary");
                    last_typed = base.to_string();
                }
                let _ = writeln!(out, "{base}_count{labels} {count}");
                let _ = writeln!(out, "{base}_sum{labels} {sum}");
                let _ = writeln!(out, "{base}_min{labels} {min}");
                let _ = writeln!(out, "{base}_max{labels} {max}");
            }
            MetricValue::Buckets { .. } => {
                let (bounds, counts, count, sum) = value.as_buckets().expect("buckets variant");
                if base != last_typed {
                    let _ = writeln!(out, "# TYPE {base} histogram");
                    last_typed = base.to_string();
                }
                let mut cumulative = 0u64;
                for (i, c) in counts.iter().enumerate() {
                    cumulative += c;
                    let le = if i < bounds.len() {
                        format!("{}", bounds[i])
                    } else {
                        "+Inf".to_string()
                    };
                    let le_labels = merge_le_label(labels, &le);
                    let _ = writeln!(out, "{base}_bucket{le_labels} {cumulative}");
                }
                let _ = writeln!(out, "{base}_sum{labels} {sum}");
                let _ = writeln!(out, "{base}_count{labels} {count}");
            }
        }
    }
    out
}

/// Splices an `le="…"` label into an existing (possibly empty) label set:
/// `` + `0.5` → `{le="0.5"}`, `{route="/jobs"}` + `0.5` →
/// `{route="/jobs",le="0.5"}`.
fn merge_le_label(labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
    }
}

/// One workload's row in the run manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestWorkload {
    /// Workload label (`"STGCN"`, `"PSAGE-MVL"`, …).
    pub name: String,
    /// Terminal status string (`"completed"`, `"failed"`, …).
    pub status: String,
    /// Host wall-clock time, milliseconds.
    pub wall_ms: f64,
    /// Modeled-GPU time, milliseconds (0 when the run produced no profile).
    pub modeled_ms: f64,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
}

/// The run manifest written next to the CSVs: enough provenance to
/// reproduce or compare a run without parsing its logs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// CLI target that produced this run (`"stgcn"`, `"all"`, …).
    pub target: String,
    /// RNG seed the suite ran with.
    pub seed: u64,
    /// Scale name (`"test"`, `"small"`, `"paper"`).
    pub scale: String,
    /// Tensor-kernel thread count in effect.
    pub threads: usize,
    /// Modeled device name (e.g. `"V100"`).
    pub device: String,
    /// Parameter/activation storage precision (`"fp32"`, `"fp16"`, `"bf16"`).
    pub precision: String,
    /// Training-mode key (`"fullgraph"` or `"minibatch-b<batch>-f<fanouts>"`).
    pub mode: String,
    /// Per-workload outcomes.
    pub workloads: Vec<ManifestWorkload>,
    /// Overall status: `"ok"` when every workload completed.
    pub status: String,
}

impl RunManifest {
    /// Serializes the manifest as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"target\": \"{}\",", json_escape(&self.target));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"scale\": \"{}\",", json_escape(&self.scale));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"device\": \"{}\",", json_escape(&self.device));
        let _ = writeln!(
            out,
            "  \"precision\": \"{}\",",
            json_escape(&self.precision)
        );
        let _ = writeln!(out, "  \"mode\": \"{}\",", json_escape(&self.mode));
        out.push_str("  \"workloads\": [");
        for (i, w) in self.workloads.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"status\": \"{}\", \"wall_ms\": {}, \
                 \"modeled_ms\": {}, \"attempts\": {}}}",
                json_escape(&w.name),
                json_escape(&w.status),
                json_number(w.wall_ms),
                json_number(w.modeled_ms),
                w.attempts
            );
        }
        if !self.workloads.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        let _ = writeln!(out, "  \"status\": \"{}\"", json_escape(&self.status));
        out.push_str("}\n");
        out
    }
}

/// Validates that `s` is one complete, well-formed JSON value: a full
/// [`parse_json`], not just brace balancing. Returns a position-annotated
/// message on the first error. Shared by the trace regression tests and
/// the CI smoke check so "the artifact parses" means the same thing
/// everywhere.
pub fn validate_json(s: &str) -> Result<(), String> {
    parse_json(s).map(drop)
}

/// Routes a hand-built JSON document through [`validate_json`] before it
/// leaves the producer: in debug/test builds a malformed document panics
/// with `context` naming the writer (the trailing-comma class of bug the
/// trace exporter once shipped); release builds pass the string through
/// untouched. Writers return the validated string, so call sites read as
/// `debug_validated("suite status", out)`.
#[must_use]
pub fn debug_validated(context: &str, json: String) -> String {
    debug_assert!(
        validate_json(&json).is_ok(),
        "{context} produced invalid JSON ({}): {json}",
        validate_json(&json).unwrap_err(),
    );
    json
}

/// A parsed JSON value — the read side of the dependency-free JSON
/// toolkit (the write side being the exporters above). Used by the serve
/// subsystem to parse campaign specs and job submissions; [`validate_json`]
/// is this parse with the tree dropped.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order (duplicate keys keep the last value on
    /// lookup, like every mainstream parser).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (last occurrence wins); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => {
                fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a `u64` (rejects negatives and fractions).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON document into a [`JsonValue`] tree by
/// recursive descent. Returns a position-annotated message on the first
/// error.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.i;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.i += 1;
            }
            p.i > s
        };
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !digits(self) {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        debug_assert!(self.i > start);
        Ok(())
    }

    fn string(&mut self) -> Result<(), String> {
        self.i += 1; // opening quote
        while let Some(c) = self.peek() {
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(());
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                if !self.peek().is_some_and(|h| h.is_ascii_hexdigit()) {
                                    return Err(self.err("bad \\u escape"));
                                }
                                self.i += 1;
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => self.i += 1,
            }
        }
        Err(self.err("unterminated string"))
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => {
                self.literal("true")?;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') => {
                self.literal("false")?;
                Ok(JsonValue::Bool(false))
            }
            Some(b'n') => {
                self.literal("null")?;
                Ok(JsonValue::Null)
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.i;
                self.number()?;
                std::str::from_utf8(&self.b[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(JsonValue::Number)
                    .ok_or_else(|| self.err("unparseable number"))
            }
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Like [`Parser::string`] but decodes the content (escapes resolved).
    fn parse_string(&mut self) -> Result<String, String> {
        let start = self.i;
        self.string()?;
        // The validated span includes both quotes; decode the body.
        let body = &self.b[start + 1..self.i - 1];
        let mut out = String::with_capacity(body.len());
        let mut k = 0;
        while k < body.len() {
            if body[k] == b'\\' {
                k += 1;
                match body[k] {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = std::str::from_utf8(&body[k + 1..k + 5])
                            .map_err(|_| self.err("bad \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        k += 4;
                    }
                    _ => unreachable!("`string` rejected unknown escapes"),
                }
                k += 1;
            } else {
                // Copy a raw (already UTF-8-valid) run up to the next escape.
                let run_end = body[k..]
                    .iter()
                    .position(|&c| c == b'\\')
                    .map_or(body.len(), |p| k + p);
                out.push_str(
                    std::str::from_utf8(&body[k..run_end])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
                k = run_end;
            }
        }
        Ok(out)
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.i += 1; // '['
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                    self.skip_ws();
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.i += 1; // '{'
        self.skip_ws();
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.parse_string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:`"));
            }
            self.i += 1;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Vec<(String, MetricValue)> {
        vec![
            ("gnnmark_pool_hit_rate".into(), MetricValue::Gauge(0.5)),
            ("gnnmark_pool_hits_total".into(), MetricValue::Counter(42)),
            (
                "gnnmark_epoch_wall_ms".into(),
                MetricValue::Histogram {
                    count: 2,
                    sum: 30.0,
                    min: 10.0,
                    max: 20.0,
                },
            ),
            (
                "gnnmark_par_worker_busy_ms{worker=\"0\"}".into(),
                MetricValue::Gauge(12.5),
            ),
            (
                "gnnmark_par_worker_busy_ms{worker=\"1\"}".into(),
                MetricValue::Gauge(11.0),
            ),
        ]
    }

    #[test]
    fn metrics_json_is_valid_and_complete() {
        let json = metrics_json(&sample_snapshot());
        validate_json(&json).expect("snapshot JSON parses");
        assert!(json.contains("\"gnnmark_pool_hits_total\": 42"));
        assert!(json.contains("\"count\": 2"));
    }

    #[test]
    fn empty_snapshot_is_valid_json() {
        validate_json(&metrics_json(&[])).expect("empty snapshot parses");
    }

    #[test]
    fn prometheus_dump_has_one_type_line_per_base_name() {
        let text = metrics_prometheus(&sample_snapshot());
        let type_lines: Vec<_> = text
            .lines()
            .filter(|l| l.contains("gnnmark_par_worker_busy_ms") && l.starts_with("# TYPE"))
            .collect();
        assert_eq!(type_lines, ["# TYPE gnnmark_par_worker_busy_ms gauge"]);
        assert!(text.contains("gnnmark_par_worker_busy_ms{worker=\"0\"} 12.5"));
        assert!(text.contains("gnnmark_epoch_wall_ms_count 2"));
        assert!(text.contains("gnnmark_epoch_wall_ms_sum 30"));
    }

    fn bucket_value() -> MetricValue {
        static BOUNDS: &[f64] = &[0.1, 0.5];
        let mut counts = [0u64; crate::metrics::MAX_BUCKETS + 1];
        counts[0] = 3;
        counts[1] = 1;
        counts[2] = 2;
        MetricValue::Buckets {
            bounds: BOUNDS,
            counts,
            count: 6,
            sum: 11.0,
        }
    }

    #[test]
    fn prometheus_renders_cumulative_buckets() {
        let snap = vec![(
            "gnnmark_serve_route_seconds{route=\"/jobs\"}".to_string(),
            bucket_value(),
        )];
        let text = metrics_prometheus(&snap);
        assert!(text.contains("# TYPE gnnmark_serve_route_seconds histogram"));
        assert!(
            text.contains("gnnmark_serve_route_seconds_bucket{route=\"/jobs\",le=\"0.1\"} 3"),
            "{text}"
        );
        assert!(text.contains("gnnmark_serve_route_seconds_bucket{route=\"/jobs\",le=\"0.5\"} 4"));
        assert!(text.contains("gnnmark_serve_route_seconds_bucket{route=\"/jobs\",le=\"+Inf\"} 6"));
        assert!(text.contains("gnnmark_serve_route_seconds_sum{route=\"/jobs\"} 11"));
        assert!(text.contains("gnnmark_serve_route_seconds_count{route=\"/jobs\"} 6"));
        // Unlabelled series get a bare {le="…"} set.
        let text = metrics_prometheus(&[("plain_seconds".to_string(), bucket_value())]);
        assert!(
            text.contains("plain_seconds_bucket{le=\"+Inf\"} 6"),
            "{text}"
        );
    }

    #[test]
    fn json_renders_buckets_validly() {
        let snap = vec![("plain_seconds".to_string(), bucket_value())];
        let json = metrics_json(&snap);
        validate_json(&json).expect("bucket JSON parses");
        assert!(json.contains("\"le\": [0.1, 0.5]"), "{json}");
        assert!(json.contains("\"buckets\": [3, 1, 2"), "{json}");
    }

    #[test]
    fn manifest_serializes_to_valid_json() {
        let m = RunManifest {
            target: "stgcn".into(),
            seed: 42,
            scale: "test".into(),
            threads: 4,
            device: "V100".into(),
            precision: "fp32".into(),
            mode: "fullgraph".into(),
            workloads: vec![ManifestWorkload {
                name: "STGCN".into(),
                status: "completed".into(),
                wall_ms: 123.4,
                modeled_ms: 56.7,
                attempts: 1,
            }],
            status: "ok".into(),
        };
        let json = m.to_json();
        validate_json(&json).expect("manifest parses");
        assert!(json.contains("\"seed\": 42"));
        assert!(json.contains("\"scale\": \"test\""));
        assert!(json.contains("\"attempts\": 1"));
    }

    #[test]
    fn manifest_with_no_workloads_is_valid() {
        let m = RunManifest {
            target: "table1".into(),
            seed: 0,
            scale: "test".into(),
            threads: 1,
            device: "V100".into(),
            precision: "fp16".into(),
            mode: "minibatch-b32-f10x5".into(),
            workloads: vec![],
            status: "ok".into(),
        };
        validate_json(&m.to_json()).expect("empty-workloads manifest parses");
    }

    #[test]
    fn parse_json_builds_values() {
        let v = parse_json(
            "{\"name\": \"gcn\\n\", \"seed\": 42, \"ratio\": 2.5, \"ok\": true, \
             \"none\": null, \"xs\": [1, 2, 3], \"nested\": {\"k\": \"v\"}}",
        )
        .expect("parses");
        assert_eq!(v.get("name").and_then(JsonValue::as_str), Some("gcn\n"));
        assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(v.get("ratio").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        let xs = v.get("xs").and_then(JsonValue::as_array).unwrap();
        assert_eq!(xs.len(), 3);
        assert_eq!(xs[0].as_u64(), Some(1));
        let nested = v.get("nested").unwrap();
        assert_eq!(nested.get("k").and_then(JsonValue::as_str), Some("v"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_json_handles_escapes_and_rejects_bad_input() {
        let v = parse_json("\"a\\u0041\\t\\\\b\"").unwrap();
        assert_eq!(v.as_str(), Some("aA\t\\b"));
        assert!(parse_json("{\"a\": 1,}").is_err());
        assert!(parse_json("[1 2]").is_err());
        assert!(parse_json("").is_err());
        assert!(parse_json("{\"a\": 1} x").is_err());
        // as_u64 rejects negatives and fractions.
        assert_eq!(parse_json("-3").unwrap().as_u64(), None);
        assert_eq!(parse_json("1.5").unwrap().as_u64(), None);
        assert_eq!(parse_json("7").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn json_escape_round_trips_through_parse_json() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        let raw = "q\"b\\s\n\t\r\u{1}é";
        let doc = format!("\"{}\"", json_escape(raw));
        assert_eq!(parse_json(&doc).unwrap().as_str(), Some(raw));
    }

    #[test]
    fn debug_validated_passes_through_valid_json() {
        let s = debug_validated("test", "{\"a\": 1}".to_string());
        assert_eq!(s, "{\"a\": 1}");
    }

    #[test]
    fn validator_accepts_good_and_rejects_bad_json() {
        validate_json("{\"a\": [1, 2.5, -3e2, \"x\\n\", true, null]}").unwrap();
        assert!(validate_json("").is_err());
        assert!(
            validate_json("{\"a\": 1,}").is_err(),
            "trailing comma in object"
        );
        assert!(validate_json("[1, 2,]").is_err(), "trailing comma in array");
        assert!(validate_json("[1, 2, ,]").is_err());
        assert!(validate_json("{\"a\" 1}").is_err());
        assert!(validate_json("[1] junk").is_err());
        assert!(validate_json("\"unterminated").is_err());
    }
}
