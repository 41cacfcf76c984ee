//! The append-only perf-history store: `results/perf_history.jsonl`.
//!
//! One line per recorded point — a commit, a source tag (`bench-check`,
//! `suite`, or `seed`), optional suite wall time and cache hit rate, and
//! a list of `(bench name, median ns)` pairs. `bench-check --record` is
//! the one writer; `gnnmark report` reads the rows back into its trend
//! panel, which also prints the regression verdict of the two newest
//! comparable rows. Malformed lines are skipped on load so a torn append
//! never bricks the trend panel.

use std::fs;
use std::io::Write as _;
use std::path::Path;

use gnnmark_telemetry::export::{json_escape, parse_json, JsonValue};

/// The default store location, relative to the repo root.
pub const DEFAULT_HISTORY_PATH: &str = "results/perf_history.jsonl";

/// One recorded perf-history point.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRow {
    /// Git commit (short hash) or `"unknown"`.
    pub commit: String,
    /// What recorded the row: `"bench-check"`, `"suite"`, or `"seed"`.
    pub source: String,
    /// Caller-provided wall-clock milliseconds since the epoch (0 when
    /// unknown). Stamped by the *writer*, never inside report rendering,
    /// so rendering stays deterministic.
    pub unix_ms: u64,
    /// Whole-suite wall time, seconds.
    pub suite_wall_s: Option<f64>,
    /// Tensor-pool (or replay-cache) hit rate in `[0, 1]`.
    pub cache_hit_rate: Option<f64>,
    /// Per-kernel medians: `(bench name, median ns)`.
    pub benches: Vec<(String, f64)>,
}

impl HistoryRow {
    /// Serializes the row as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"commit\": \"{}\", \"source\": \"{}\", \"unix_ms\": {}",
            json_escape(&self.commit),
            json_escape(&self.source),
            self.unix_ms,
        );
        if let Some(w) = self.suite_wall_s {
            if w.is_finite() {
                out.push_str(&format!(", \"suite_wall_s\": {w}"));
            }
        }
        if let Some(r) = self.cache_hit_rate {
            if r.is_finite() {
                out.push_str(&format!(", \"cache_hit_rate\": {r}"));
            }
        }
        out.push_str(", \"benches\": [");
        for (i, (name, ns)) in self.benches.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"median_ns\": {ns}}}",
                json_escape(name)
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parses one row from a JSON value; `None` when required fields are
    /// missing or mistyped.
    pub fn from_json(v: &JsonValue) -> Option<HistoryRow> {
        let commit = v.get("commit")?.as_str()?.to_string();
        let source = v.get("source")?.as_str()?.to_string();
        let unix_ms = v.get("unix_ms").and_then(JsonValue::as_u64).unwrap_or(0);
        let suite_wall_s = v.get("suite_wall_s").and_then(JsonValue::as_f64);
        let cache_hit_rate = v.get("cache_hit_rate").and_then(JsonValue::as_f64);
        let mut benches = Vec::new();
        if let Some(arr) = v.get("benches").and_then(JsonValue::as_array) {
            for b in arr {
                if let (Some(name), Some(ns)) = (
                    b.get("name").and_then(JsonValue::as_str),
                    b.get("median_ns").and_then(JsonValue::as_f64),
                ) {
                    benches.push((name.to_string(), ns));
                }
            }
        }
        Some(HistoryRow {
            commit,
            source,
            unix_ms,
            suite_wall_s,
            cache_hit_rate,
            benches,
        })
    }
}

/// Parses a JSONL body, skipping blank and malformed lines.
pub fn parse_history(text: &str) -> Vec<HistoryRow> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| parse_json(l).ok())
        .filter_map(|v| HistoryRow::from_json(&v))
        .collect()
}

/// Loads the history file; an absent or unreadable file is an empty
/// history, not an error (a fresh checkout has no trend yet).
pub fn load_history(path: &Path) -> Vec<HistoryRow> {
    fs::read_to_string(path)
        .map(|s| parse_history(&s))
        .unwrap_or_default()
}

/// Appends one row, creating the file and parent directory on first use.
///
/// # Errors
/// Propagates filesystem errors.
pub fn append_row(path: &Path, row: &HistoryRow) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut f = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", row.to_json_line())
}

/// The regression verdict between the two most recent rows that share
/// bench names.
#[derive(Debug, Clone)]
pub struct TrendVerdict {
    /// `true` when no shared bench regressed beyond `max_ratio`.
    pub ok: bool,
    /// Benches that regressed: `(name, previous ns, latest ns)`.
    pub regressions: Vec<(String, f64, f64)>,
    /// Human-readable one-line summary.
    pub summary: String,
}

/// Compares the latest row against the most recent earlier row with
/// overlapping benches; a bench regresses when `latest > previous *
/// max_ratio`. With fewer than two comparable rows the verdict is a
/// trivially-ok "no baseline".
pub fn regression_verdict(rows: &[HistoryRow], max_ratio: f64) -> TrendVerdict {
    let latest = rows.iter().rev().find(|r| !r.benches.is_empty());
    let baseline = latest.and_then(|l| {
        rows.iter()
            .rev()
            .filter(|r| !std::ptr::eq(*r, l))
            .find(|r| {
                r.benches
                    .iter()
                    .any(|(n, _)| l.benches.iter().any(|(m, _)| m == n))
            })
    });
    let (Some(latest), Some(baseline)) = (latest, baseline) else {
        return TrendVerdict {
            ok: true,
            regressions: Vec::new(),
            summary: "no baseline to compare against yet".to_string(),
        };
    };
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for (name, new_ns) in &latest.benches {
        if let Some((_, old_ns)) = baseline.benches.iter().find(|(n, _)| n == name) {
            compared += 1;
            if *new_ns > *old_ns * max_ratio {
                regressions.push((name.clone(), *old_ns, *new_ns));
            }
        }
    }
    let ok = regressions.is_empty();
    let summary = if ok {
        format!(
            "ok — {compared} benches within {:.2}x of {} ({})",
            max_ratio, baseline.commit, baseline.source
        )
    } else {
        format!(
            "{} of {compared} benches regressed beyond {:.2}x vs {} ({})",
            regressions.len(),
            max_ratio,
            baseline.commit,
            baseline.source
        )
    };
    TrendVerdict {
        ok,
        regressions,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(commit: &str, benches: &[(&str, f64)]) -> HistoryRow {
        HistoryRow {
            commit: commit.to_string(),
            source: "bench-check".to_string(),
            unix_ms: 1000,
            suite_wall_s: Some(5.5),
            cache_hit_rate: Some(0.75),
            benches: benches.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn rows_roundtrip_through_jsonl() {
        let r = row(
            "abc1234",
            &[("tensor_ops/gemm_256", 912913.0), ("spmm", 5.5)],
        );
        let line = r.to_json_line();
        gnnmark_telemetry::export::validate_json(&line).expect("row is valid JSON");
        let parsed = parse_history(&line);
        assert_eq!(parsed, vec![r]);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let body = format!(
            "{}\nnot json at all\n{{\"source\": \"x\"}}\n\n{}\n",
            row("a", &[("k", 1.0)]).to_json_line(),
            row("b", &[("k", 2.0)]).to_json_line()
        );
        let rows = parse_history(&body);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].commit, "b");
    }

    #[test]
    fn append_creates_and_extends_the_file() {
        let dir = std::env::temp_dir().join(format!("gnnmark-hist-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("perf_history.jsonl");
        append_row(&path, &row("a", &[("k", 1.0)])).unwrap();
        append_row(&path, &row("b", &[("k", 2.0)])).unwrap();
        let rows = load_history(&path);
        assert_eq!(rows.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verdict_flags_regressions_and_tolerates_missing_baseline() {
        let rows = vec![
            row("old", &[("k", 100.0), ("j", 50.0)]),
            row("new", &[("k", 300.0), ("j", 51.0)]),
        ];
        let v = regression_verdict(&rows, 1.5);
        assert!(!v.ok);
        assert_eq!(v.regressions, vec![("k".to_string(), 100.0, 300.0)]);
        let v = regression_verdict(&rows[1..], 1.5);
        assert!(v.ok, "single row has no baseline: {}", v.summary);
        let v = regression_verdict(&[], 1.5);
        assert!(v.ok);
    }

    #[test]
    fn missing_history_file_loads_empty() {
        assert!(load_history(Path::new("/nonexistent/x.jsonl")).is_empty());
    }
}
