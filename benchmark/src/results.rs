//! JSON in and out: the line a child process reports its [`Outcome`] on,
//! the `results.json` ledger, and the one-line result the acceptance
//! driver reads. Written by hand, read back with the repo's own parser.

use std::collections::BTreeMap;

use gnnmark_telemetry::export::{json_escape, parse_json, JsonValue};

use crate::common::Outcome;
use crate::spec;

/// A finite JSON number with all its digits (non-finite reads as 0; the
/// caller has already counted whatever produced it as a failed check).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn object<V>(map: &BTreeMap<String, V>, value: impl Fn(&V) -> String) -> String {
    let fields: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", json_escape(k), value(v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn strings(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", json_escape(s)))
        .collect();
    format!("[{}]", quoted.join(","))
}

/// One outcome as a single-line JSON object.
pub fn outcome_json(o: &Outcome) -> String {
    let metrics: BTreeMap<String, String> = o
        .metrics
        .iter()
        .map(|(name, &value)| {
            let mut m = format!(
                "{{\"value\":{},\"unit\":\"{}\"",
                num(value),
                spec::unit_of(name)
            );
            if let Some(n) = o.samples.get(name) {
                m.push_str(&format!(",\"samples\":{n}"));
            }
            if let Some(s) = o.spread.get(name) {
                m.push_str(&format!(",\"spread\":{}", num(*s)));
            }
            m.push('}');
            (name.clone(), m)
        })
        .collect();
    format!(
        "{{\"ops\":{},\"failed_ops\":{},\"check_failures\":{},\"metrics\":{},\"notes\":{}}}",
        o.ops,
        o.failed_ops,
        o.check_failures,
        object(&metrics, String::clone),
        strings(&o.notes),
    )
}

fn fields(v: &JsonValue) -> &[(String, JsonValue)] {
    match v {
        JsonValue::Object(f) => f,
        _ => &[],
    }
}

/// Reads back what [`outcome_json`] wrote.
pub fn outcome_from(v: &JsonValue) -> Result<Outcome, String> {
    let count = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing count \"{key}\""))
    };
    let mut o = Outcome {
        ops: count("ops")?,
        failed_ops: count("failed_ops")?,
        check_failures: count("check_failures")?,
        ..Outcome::default()
    };
    for (name, m) in fields(v.get("metrics").ok_or("missing \"metrics\"")?) {
        let value = m
            .get("value")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("metric \"{name}\" has no value"))?;
        o.metrics.insert(name.clone(), value);
        if let Some(n) = m.get("samples").and_then(JsonValue::as_u64) {
            o.samples.insert(name.clone(), n);
        }
        if let Some(s) = m.get("spread").and_then(JsonValue::as_f64) {
            o.spread.insert(name.clone(), s);
        }
    }
    if let Some(notes) = v.get("notes").and_then(JsonValue::as_array) {
        o.notes = notes
            .iter()
            .filter_map(|n| n.as_str().map(str::to_string))
            .collect();
    }
    Ok(o)
}

/// One workload's two runs in the ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadResult {
    /// Untraced run: the end-to-end metrics.
    pub end_to_end: Outcome,
    /// Traced run: the per-layer metrics.
    pub per_layer: Outcome,
}

impl WorkloadResult {
    pub fn ops(&self) -> u64 {
        self.end_to_end.ops + self.per_layer.ops
    }

    pub fn failed_ops(&self) -> u64 {
        self.end_to_end.failed_ops + self.per_layer.failed_ops
    }

    pub fn failed_share(&self) -> f64 {
        if self.ops() == 0 {
            1.0
        } else {
            self.failed_ops() as f64 / self.ops() as f64
        }
    }

    pub fn check_failures(&self) -> u64 {
        self.end_to_end.check_failures + self.per_layer.check_failures
    }
}

/// The `results.json` ledger of one full benchmark run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    pub seed: u64,
    pub seconds: f64,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

impl Ledger {
    pub fn to_json(&self) -> String {
        let workloads = object(&self.workloads, |w| {
            format!(
                "{{\"ops\":{},\"failed_ops\":{},\"failed_share\":{},\"check_failures\":{},\
                 \"end_to_end\":{},\"per_layer\":{}}}",
                w.ops(),
                w.failed_ops(),
                num(w.failed_share()),
                w.check_failures(),
                outcome_json(&w.end_to_end),
                outcome_json(&w.per_layer),
            )
        });
        format!(
            "{{\"benchmark\":\"gnnmark\",\"seed\":{},\"seconds\":{},\"kernel_threads\":{},\
             \"available_parallelism\":{},\"simulated_accuracy\":\"unvalidated\",\"workloads\":{}}}\n",
            self.seed,
            num(self.seconds),
            spec::KERNEL_THREADS,
            std::thread::available_parallelism().map_or(0, usize::from),
            workloads,
        )
    }

    pub fn parse(text: &str) -> Result<Ledger, String> {
        let v = parse_json(text)?;
        let mut ledger = Ledger {
            seed: v
                .get("seed")
                .and_then(JsonValue::as_u64)
                .ok_or("missing \"seed\"")?,
            seconds: v
                .get("seconds")
                .and_then(JsonValue::as_f64)
                .ok_or("missing \"seconds\"")?,
            workloads: BTreeMap::new(),
        };
        for (name, w) in fields(v.get("workloads").ok_or("missing \"workloads\"")?) {
            let part = |key: &str| {
                outcome_from(
                    w.get(key)
                        .ok_or_else(|| format!("{name}: missing \"{key}\""))?,
                )
            };
            ledger.workloads.insert(
                name.clone(),
                WorkloadResult {
                    end_to_end: part("end_to_end")?,
                    per_layer: part("per_layer")?,
                },
            );
        }
        Ok(ledger)
    }
}

/// The acceptance driver's result line: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding exactly `declared`.
pub fn contract_line(o: &Outcome, declared: &[&str]) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|name| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                num(o.metrics.get(*name).copied().unwrap_or(0.0)),
                spec::unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.check_failures == 0 && o.ops > 0,
        o.ops.max(1),
        o.failed_ops,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_outcome() -> Outcome {
        let mut o = Outcome {
            ops: 27,
            failed_ops: 1,
            check_failures: 2,
            ..Outcome::default()
        };
        o.set_median("wall_s", &[3.25, 3.5, 3.125]);
        o.set("kernels_per_s", 123456.789);
        o.set("gpusim.class_s.gemm", 1.0e-7);
        o.notes
            .push("failed op: \"GW\": non-finite loss\n".to_string());
        o
    }

    #[test]
    fn outcome_round_trips_through_the_repo_parser() {
        let o = sample_outcome();
        let line = outcome_json(&o);
        assert!(!line.contains('\n'), "a child reports on one line");
        let back = outcome_from(&parse_json(&line).expect("valid JSON")).expect("well-formed");
        assert_eq!(back, o);
    }

    #[test]
    fn ledger_round_trips_through_the_repo_parser() {
        let mut ledger = Ledger {
            seed: 7,
            seconds: 10.0,
            workloads: BTreeMap::new(),
        };
        ledger.workloads.insert(
            "train_full".to_string(),
            WorkloadResult {
                end_to_end: sample_outcome(),
                per_layer: Outcome::default(),
            },
        );
        let back = Ledger::parse(&ledger.to_json()).expect("ledger parses");
        assert_eq!(back, ledger);
        assert_eq!(back.workloads["train_full"].failed_share(), 1.0 / 27.0);
    }

    #[test]
    fn contract_line_has_exactly_the_declared_metrics() {
        let o = sample_outcome();
        let line = contract_line(&o, &["wall_s", "setup_s"]);
        let v = parse_json(&line).expect("valid JSON");
        let keys: Vec<&str> = fields(&v).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(27));
        let metrics = v.get("metrics").expect("metrics");
        assert_eq!(fields(metrics).len(), 2);
        assert_eq!(
            metrics
                .get("wall_s")
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64),
            Some(3.25)
        );
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("unit"))
                .and_then(JsonValue::as_str),
            Some("s")
        );
    }

    #[test]
    fn emitted_names_equal_the_declared_sets() {
        let e2e: Vec<&str> = spec::E2E.iter().map(|m| m.name).collect();
        let layers: Vec<&str> = spec::LAYERS.iter().map(|m| m.name).collect();
        for declared in [&e2e, &layers] {
            let v = parse_json(&contract_line(&Outcome::default(), declared)).expect("valid JSON");
            let emitted: Vec<&str> = fields(v.get("metrics").expect("metrics"))
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(&emitted, declared);
        }
    }
}
