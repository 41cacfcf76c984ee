//! Compares two `CRITERION_JSON` reports and fails on perf regressions.
//!
//! ```text
//! bench-check <baseline.json> <new.json> [--max-ratio 2.0]
//!             [--record [--history results/perf_history.jsonl]]
//! ```
//!
//! Both files are the `{"benches": [{"name": ..., "median_ns": ...}]}`
//! format the vendored criterion harness writes. For every benchmark
//! present in *both* files, the new/baseline median ratio must stay at or
//! below the threshold: `--max-ratio` if given, else 2.0 (generous on
//! purpose, since CI machines are noisy and the smoke run uses few
//! samples). A failing run names every offending benchmark in the summary
//! line. Benchmarks only present on one side are reported but never
//! fatal, so adding or retiring a bench doesn't require regenerating the
//! baseline in the same commit.
//!
//! Within the *new* report alone, every `par_kernels/<kernel>_tN` median
//! must also stay within 15 % of the same kernel's `_t1`: a parallel leg
//! may not lose to inline execution, whatever the baseline says.
//!
//! Large *improvements* (ratio below `1/max_ratio`) are flagged as
//! `IMPROVED` and summarized as a stale-baseline warning — never fatal,
//! but a >2x win usually means the baseline predates an optimization
//! (e.g. the SIMD lane) and should be regenerated, or the comparison is
//! silently more forgiving than intended.
//!
//! With `--record`, the *new* report's medians are appended as one row to
//! the append-only perf-history store (`--history` path, default
//! `results/perf_history.jsonl`) after the comparison — pass or fail —
//! so the HTML report's trend panel sees every data point. The commit
//! column comes from `GNNMARK_COMMIT`, else `git rev-parse --short HEAD`,
//! else `"unknown"`.
//!
//! Exit codes: 0 = ok, 1 = regression, 2 = usage/parse error.

use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use gnnmark_bench::flags::Flags;
use gnnmark_report::{append_row, HistoryRow, DEFAULT_HISTORY_PATH};
use gnnmark_telemetry::export::{parse_json, JsonValue};

/// One `{"name": ..., "median_ns": ...}` entry.
#[derive(Debug, Clone, PartialEq)]
struct BenchEntry {
    name: String,
    median_ns: f64,
}

/// Reads the `{"benches": [{"name": ..., "median_ns": ...}]}` report.
fn parse_report(text: &str) -> Result<Vec<BenchEntry>, String> {
    let doc = parse_json(text).map_err(|e| format!("malformed report: {e}"))?;
    let benches = doc
        .get("benches")
        .and_then(JsonValue::as_array)
        .unwrap_or_default();
    let entries = benches
        .iter()
        .map(|b| {
            let name = b
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("malformed report: a bench without a string `name`")?;
            let median_ns = b
                .get("median_ns")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("malformed report: `{name}` has no numeric median_ns"))?;
            Ok(BenchEntry {
                name: name.to_string(),
                median_ns,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if entries.is_empty() {
        return Err("no benchmark entries found".to_string());
    }
    Ok(entries)
}

/// How far a `par_kernels/*_tN` median may exceed its own `_t1`.
const MAX_PARALLEL_LOSS: f64 = 1.15;

/// The `par_kernels` legs of `report` that lose to their own `_t1` leg by
/// more than [`MAX_PARALLEL_LOSS`].
fn parallel_losers(report: &[BenchEntry]) -> Vec<String> {
    let mut losers = Vec::new();
    for entry in report {
        let Some((stem, threads)) = entry.name.rsplit_once("_t") else {
            continue;
        };
        if !stem.starts_with("par_kernels/") || threads == "1" || threads.parse::<u32>().is_err() {
            continue;
        }
        let inline = format!("{stem}_t1");
        let Some(t1) = report.iter().find(|e| e.name == inline) else {
            continue;
        };
        if t1.median_ns > 0.0 && entry.median_ns > t1.median_ns * MAX_PARALLEL_LOSS {
            losers.push(format!(
                "{} ({:.2}x its _t1)",
                entry.name,
                entry.median_ns / t1.median_ns
            ));
        }
    }
    losers
}

/// Compares the two reports; returns the offending benchmark names
/// (empty = pass) and the stale-baseline suspects (improved past
/// `1/max_ratio`; informational only).
fn run(
    baseline_path: &str,
    new_path: &str,
    max_ratio: f64,
) -> Result<(Vec<String>, Vec<String>), String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let baseline = parse_report(&read(baseline_path)?)?;
    let fresh = parse_report(&read(new_path)?)?;

    let mut offenders: Vec<String> = Vec::new();
    let mut improved: Vec<String> = Vec::new();
    let mut compared = 0usize;
    for new_entry in &fresh {
        let Some(base) = baseline.iter().find(|b| b.name == new_entry.name) else {
            println!(
                "  new      {:<44} {:>12.0} ns (no baseline)",
                new_entry.name, new_entry.median_ns
            );
            continue;
        };
        compared += 1;
        // A zero-ns baseline (sub-ns noop) can't regress meaningfully.
        let ratio = if base.median_ns > 0.0 {
            new_entry.median_ns / base.median_ns
        } else {
            1.0
        };
        let verdict = if ratio > max_ratio {
            "REGRESSED"
        } else if ratio < 1.0 / max_ratio {
            "IMPROVED"
        } else {
            "ok"
        };
        println!(
            "  {verdict:<8} {:<44} {:>12.0} ns vs {:>12.0} ns  ({ratio:.2}x)",
            new_entry.name, new_entry.median_ns, base.median_ns
        );
        if ratio > max_ratio {
            offenders.push(format!("{} ({ratio:.2}x)", new_entry.name));
        } else if ratio < 1.0 / max_ratio {
            improved.push(format!("{} ({ratio:.2}x)", new_entry.name));
        }
    }
    for base in &baseline {
        if !fresh.iter().any(|n| n.name == base.name) {
            println!("  gone     {:<44} (in baseline only)", base.name);
        }
    }
    if compared == 0 {
        return Err("no benchmarks in common between the two reports".to_string());
    }
    for loser in parallel_losers(&fresh) {
        println!("  LOSES    {loser}");
        offenders.push(loser);
    }
    if !improved.is_empty() {
        println!(
            "bench-check: warning: {} improved past {:.2}x — the baseline looks \
             stale, consider regenerating it: {}",
            improved.len(),
            1.0 / max_ratio,
            improved.join(", ")
        );
    }
    if offenders.is_empty() {
        println!("bench-check: {compared} compared, threshold {max_ratio:.2}x — PASS");
    } else {
        println!(
            "bench-check: {compared} compared, threshold {max_ratio:.2}x — FAIL: {}",
            offenders.join(", ")
        );
    }
    Ok((offenders, improved))
}

/// The commit label for a recorded row: `GNNMARK_COMMIT` wins (CI knows
/// its SHA without a checkout), then `git rev-parse --short HEAD`, then
/// `"unknown"`.
fn commit_label() -> String {
    if let Ok(c) = std::env::var("GNNMARK_COMMIT") {
        if !c.trim().is_empty() {
            return c.trim().to_string();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Appends the new report's medians to the perf-history store.
fn record_history(new_path: &str, history_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(new_path).map_err(|e| format!("read {new_path}: {e}"))?;
    let entries = parse_report(&text)?;
    let row = HistoryRow {
        commit: commit_label(),
        source: "bench-check".to_string(),
        unix_ms: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64),
        suite_wall_s: None,
        cache_hit_rate: None,
        benches: entries.into_iter().map(|e| (e.name, e.median_ns)).collect(),
    };
    append_row(std::path::Path::new(history_path), &row)
        .map_err(|e| format!("append {history_path}: {e}"))?;
    println!(
        "bench-check: recorded {} bench(es) to {history_path}",
        row.benches.len()
    );
    Ok(())
}

const USAGE: &str =
    "usage: bench-check <baseline.json> <new.json> [--max-ratio 2.0] [--record [--history PATH]]";

fn main() -> ExitCode {
    let mut files = Vec::new();
    let mut max_ratio = 2.0f64;
    let mut record = false;
    let mut history_path = DEFAULT_HISTORY_PATH.to_string();
    let parsed = Flags::new(std::env::args().skip(1)).each(|flag, f| {
        match flag {
            "--max-ratio" => {
                max_ratio = f.parse(flag)?;
                if !(max_ratio > 0.0 && max_ratio.is_finite()) {
                    return Err("--max-ratio must be a positive number".to_string());
                }
            }
            "--record" => record = true,
            "--history" => history_path = f.value(flag)?,
            file if !file.starts_with('-') => files.push(file.to_string()),
            _ => return Ok(false),
        }
        Ok(true)
    });
    let parsed = parsed.and_then(|()| match files.len() {
        2 => Ok(()),
        _ => Err("bench-check needs two reports".to_string()),
    });
    if let Err(e) = parsed {
        eprintln!("error: {e}");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let (baseline, fresh) = (&files[0], &files[1]);
    let outcome = run(baseline, fresh, max_ratio);
    // Record pass or fail: the trend panel should see regressions too.
    if record && outcome.is_ok() {
        if let Err(e) = record_history(fresh, &history_path) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    match outcome {
        Ok((offenders, _)) if offenders.is_empty() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
  "benches": [
    {"name": "tensor_ops/gemm_256", "median_ns": 1200000},
    {"name": "par_kernels/spmm_4k_32knnz_t4", "median_ns": 3400500}
  ]
}"#;

    #[test]
    fn parses_the_report_shape() {
        let entries = parse_report(REPORT).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "tensor_ops/gemm_256");
        assert_eq!(entries[0].median_ns, 1_200_000.0);
        assert_eq!(entries[1].name, "par_kernels/spmm_4k_32knnz_t4");
        assert_eq!(entries[1].median_ns, 3_400_500.0);
    }

    #[test]
    fn rejects_empty_and_malformed_reports() {
        assert!(parse_report("{}").is_err());
        assert!(parse_report("{\"benches\": [{\"name\": \"x\"}]}").is_err());
    }

    #[test]
    fn run_flags_regressions_past_the_ratio() {
        let dir = std::env::temp_dir().join("bench_check_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let slow = dir.join("slow.json");
        std::fs::write(
            &base,
            "{\"benches\": [{\"name\": \"a\", \"median_ns\": 100}]}",
        )
        .unwrap();
        std::fs::write(
            &slow,
            "{\"benches\": [{\"name\": \"a\", \"median_ns\": 250}]}",
        )
        .unwrap();
        let (offenders, _) = run(base.to_str().unwrap(), slow.to_str().unwrap(), 2.0).unwrap();
        assert_eq!(offenders.len(), 1);
        assert!(
            offenders[0].starts_with("a ("),
            "names the offender: {offenders:?}"
        );
        assert!(run(base.to_str().unwrap(), slow.to_str().unwrap(), 3.0)
            .unwrap()
            .0
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_parallel_leg_may_not_lose_to_its_inline_leg() {
        let entry = |name: &str, median_ns: f64| BenchEntry {
            name: name.to_string(),
            median_ns,
        };
        let report = [
            entry("par_kernels/scatter_add_32k_t1", 454_121.0),
            entry("par_kernels/scatter_add_32k_t2", 470_000.0),
            entry("par_kernels/scatter_add_32k_t4", 550_937.0),
            entry("par_kernels/relu_1m_t4", 9e9), // no `_t1` to compare with
            entry("simd_lanes/gemm_256_t4", 9e9), // not a par_kernels leg
        ];
        let losers = parallel_losers(&report);
        assert_eq!(losers.len(), 1, "{losers:?}");
        assert!(losers[0].starts_with("par_kernels/scatter_add_32k_t4 (1.21x"));
    }

    #[test]
    fn large_improvements_warn_but_pass() {
        let dir = std::env::temp_dir().join("bench_check_improved");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let fast = dir.join("fast.json");
        // 3.2x faster than baseline: a stale-baseline suspect, not a failure.
        std::fs::write(&base, "{\"benches\": [{\"name\": \"a\", \"median_ns\": 320}, {\"name\": \"b\", \"median_ns\": 100}]}").unwrap();
        std::fs::write(&fast, "{\"benches\": [{\"name\": \"a\", \"median_ns\": 100}, {\"name\": \"b\", \"median_ns\": 110}]}").unwrap();
        let (offenders, improved) =
            run(base.to_str().unwrap(), fast.to_str().unwrap(), 2.0).unwrap();
        assert!(offenders.is_empty(), "improvements are never fatal");
        assert_eq!(
            improved.len(),
            1,
            "only the >2x win is flagged: {improved:?}"
        );
        assert!(improved[0].starts_with("a ("));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_appends_a_history_row() {
        let dir = std::env::temp_dir().join(format!("bench_check_record_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let report = dir.join("new.json");
        std::fs::write(&report, REPORT).unwrap();
        let history = dir.join("hist/perf_history.jsonl");
        std::env::set_var("GNNMARK_COMMIT", "cafef00d");
        record_history(report.to_str().unwrap(), history.to_str().unwrap()).unwrap();
        record_history(report.to_str().unwrap(), history.to_str().unwrap()).unwrap();
        let rows = gnnmark_report::load_history(&history);
        assert_eq!(rows.len(), 2, "append-only: one row per record");
        assert_eq!(rows[0].commit, "cafef00d");
        assert_eq!(rows[0].source, "bench-check");
        assert_eq!(rows[0].benches.len(), 2);
        assert_eq!(rows[0].benches[0].0, "tensor_ops/gemm_256");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disjoint_reports_error_instead_of_passing() {
        let dir = std::env::temp_dir().join("bench_check_disjoint");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.json");
        let new = dir.join("new.json");
        std::fs::write(
            &base,
            "{\"benches\": [{\"name\": \"a\", \"median_ns\": 100}]}",
        )
        .unwrap();
        std::fs::write(
            &new,
            "{\"benches\": [{\"name\": \"b\", \"median_ns\": 100}]}",
        )
        .unwrap();
        assert!(run(base.to_str().unwrap(), new.to_str().unwrap(), 2.0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
