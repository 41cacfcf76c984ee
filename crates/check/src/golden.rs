//! Golden snapshots of per-workload op streams and figure tables.
//!
//! Two snapshot families live under `results/golden/`:
//!
//! * `opstream/<LABEL>.csv` — one line per launched kernel
//!   (`kernel,class,flops,iops,threads`) for each workload at the test
//!   scale. These fields are independent of host thread count and of the
//!   modeled device clock, so the stream is stable anywhere the run is
//!   deterministic.
//! * `figures.csv` — an FNV-1a digest of every figure table's CSV
//!   rendering, one `digest<TAB>title` line per table.
//! * `report.csv` — an FNV-1a digest of every section of the HTML
//!   characterization report (`gnnmark report`) rendered from the same
//!   suite runs, one `digest<TAB>section` line per section. This is what
//!   makes the report's byte-determinism an enforced property instead of
//!   a convention.
//!
//! `verify_*` compares current output against the checked-in files and
//! names the first diverging line; `--bless` regenerates the files after
//! an intentional change.

use std::fs;
use std::path::Path;

use gnnmark::figures;
use gnnmark::suite::RunArtifacts;
use gnnmark_gpusim::stream::fnv1a_64;
use gnnmark_profiler::{Table, WorkloadProfile};
use gnnmark_tensor::TensorError;

use crate::Result;

/// Default snapshot directory, relative to the repo root.
pub const GOLDEN_DIR: &str = "results/golden";

/// Outcome of one snapshot comparison (or regeneration).
#[derive(Debug, Clone)]
pub struct GoldenReport {
    /// Snapshot name (workload label or `figures`).
    pub name: String,
    /// Whether the snapshot matched (always true after a bless).
    pub ok: bool,
    /// True when the file was (re)generated rather than compared.
    pub blessed: bool,
    /// Failure description (empty when ok).
    pub detail: String,
}

impl GoldenReport {
    /// One status line for the CLI report.
    pub fn line(&self) -> String {
        if self.blessed {
            format!("ok   golden `{}` blessed", self.name)
        } else if self.ok {
            format!("ok   golden `{}` matches", self.name)
        } else {
            format!("FAIL golden `{}` — {}", self.name, self.detail)
        }
    }
}

fn io_err(op: &'static str, e: &std::io::Error, path: &Path) -> TensorError {
    TensorError::InvalidArgument {
        op,
        reason: format!("{}: {e}", path.display()),
    }
}

/// The op-stream snapshot lines for one profiled workload.
pub fn opstream_lines(profile: &WorkloadProfile) -> Vec<String> {
    let mut lines = vec!["kernel,class,flops,iops,threads".to_string()];
    lines.extend(profile.kernels.iter().map(|k| {
        format!(
            "{},{:?},{},{},{}",
            k.kernel, k.class, k.flops, k.iops, k.threads
        )
    }));
    lines
}

/// Every figure table the CLI can render, built from full-suite artifacts.
/// Mirrors the target table in `gnnmark-bench` (which depends on this
/// crate's consumers and so cannot be called from here).
pub fn all_figure_tables(runs: &[RunArtifacts]) -> Vec<Table> {
    let profiles: Vec<_> = runs.iter().map(|r| r.profile.clone()).collect();
    let mut tables = vec![
        figures::table1(),
        figures::fig2_time_breakdown(&profiles),
        figures::fig3_instruction_mix(&profiles),
        figures::fig4_throughput(&profiles),
        figures::fig4_per_op_throughput(&profiles),
        figures::fig5_stalls(&profiles),
        figures::fig5_per_op_stalls(&profiles),
        figures::fig6_caches(&profiles),
        figures::fig6_per_op_caches(&profiles),
        figures::fig7_sparsity(&profiles),
    ];
    for prefix in ["PSAGE", "ARGA"] {
        if let Some(p) = profiles.iter().find(|p| p.name.starts_with(prefix)) {
            tables.push(figures::fig8_sparsity_series(p, 24));
        }
    }
    tables.push(figures::fig9_scaling(runs));
    tables.push(figures::fig_roofline(&profiles));
    tables.push(figures::fig_convergence(runs));
    tables.push(figures::suite_summary(runs));
    tables
}

/// The figure-digest snapshot lines: `digest<TAB>title` per table.
pub fn figure_digest_lines(runs: &[RunArtifacts]) -> Vec<String> {
    all_figure_tables(runs)
        .iter()
        .map(|t| format!("{:016x}\t{}", fnv1a_64(t.to_csv().as_bytes()), t.title()))
        .collect()
}

fn compare(name: &str, unit: &str, golden: &[&str], current: &[String]) -> GoldenReport {
    for (i, (g, c)) in golden.iter().zip(current.iter()).enumerate() {
        if *g != c.as_str() {
            return GoldenReport {
                name: name.to_string(),
                ok: false,
                blessed: false,
                detail: format!("first divergence at {unit} #{i}: golden `{g}` vs current `{c}`"),
            };
        }
    }
    if golden.len() != current.len() {
        return GoldenReport {
            name: name.to_string(),
            ok: false,
            blessed: false,
            detail: format!(
                "{unit} count changed: golden has {}, current has {}",
                golden.len(),
                current.len()
            ),
        };
    }
    GoldenReport {
        name: name.to_string(),
        ok: true,
        blessed: false,
        detail: String::new(),
    }
}

fn check_lines(
    name: &str,
    unit: &str,
    path: &Path,
    current: &[String],
    bless: bool,
) -> Result<GoldenReport> {
    if bless {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| io_err("golden_bless", &e, parent))?;
        }
        let mut body = current.join("\n");
        body.push('\n');
        fs::write(path, body).map_err(|e| io_err("golden_bless", &e, path))?;
        return Ok(GoldenReport {
            name: name.to_string(),
            ok: true,
            blessed: true,
            detail: String::new(),
        });
    }
    let golden = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            return Ok(GoldenReport {
                name: name.to_string(),
                ok: false,
                blessed: false,
                detail: format!(
                    "missing snapshot {} ({e}); run `gnnmark check --bless` to create it",
                    path.display()
                ),
            })
        }
    };
    let golden_lines: Vec<&str> = golden.lines().collect();
    Ok(compare(name, unit, &golden_lines, current))
}

/// Verifies (or blesses) one workload's op-stream snapshot under
/// `<dir>/opstream/<LABEL>.csv`. On mismatch, the report names the first
/// diverging kernel line.
///
/// # Errors
/// Fails only on filesystem errors while blessing; a missing or diverging
/// snapshot is reported in the returned [`GoldenReport`] instead.
pub fn check_opstream(profile: &WorkloadProfile, dir: &Path, bless: bool) -> Result<GoldenReport> {
    check_opstream_in(profile, dir, "opstream", bless)
}

/// Subdirectory under the golden root holding minibatch-mode op-stream
/// snapshots (the sampled-training counterpart of `opstream/`).
pub const MINIBATCH_OPSTREAM_DIR: &str = "opstream-minibatch";

/// Subdirectory under the golden root holding forward-only inference
/// op-stream snapshots (see `crate::infer`).
pub const INFER_OPSTREAM_DIR: &str = "opstream-infer";

/// Verifies (or blesses) one workload's op-stream snapshot under an
/// explicit snapshot family `<dir>/<subdir>/<LABEL>.csv`, so alternate
/// training modes keep their own goldens (see [`MINIBATCH_OPSTREAM_DIR`]).
///
/// # Errors
/// Fails only on filesystem errors while blessing.
pub fn check_opstream_in(
    profile: &WorkloadProfile,
    dir: &Path,
    subdir: &str,
    bless: bool,
) -> Result<GoldenReport> {
    let path = dir.join(subdir).join(format!("{}.csv", profile.name));
    let name = if subdir == "opstream" {
        profile.name.clone()
    } else {
        format!("{subdir}/{}", profile.name)
    };
    let current = opstream_lines(profile);
    check_lines(&name, "kernel line", &path, &current, bless)
}

/// Verifies (or blesses) the figure-digest snapshot at `<dir>/figures.csv`.
/// On mismatch, the report names the first diverging table by title.
///
/// # Errors
/// Fails only on filesystem errors while blessing.
pub fn check_figures(runs: &[RunArtifacts], dir: &Path, bless: bool) -> Result<GoldenReport> {
    let current = figure_digest_lines(runs);
    check_lines(
        "figures",
        "table digest",
        &dir.join("figures.csv"),
        &current,
        bless,
    )
}

/// The runs-only HTML report the golden layer gates: every suite
/// workload, no metrics snapshot and no perf history — those panels
/// render live data and are deliberately outside the digest.
pub fn report_for_runs(runs: &[RunArtifacts]) -> gnnmark_report::Report {
    let mut report = gnnmark_report::Report::new("GNNMark golden report");
    for art in runs {
        let mut run = gnnmark_report::ReportRun::new(art.profile.name.clone(), art.profile.clone());
        run.losses = art.losses.clone();
        run.steps_per_epoch = art.steps_per_epoch;
        run.quality = art.quality.map(|(n, v)| (n.to_string(), v));
        report.add_run(run);
    }
    report
}

/// Verifies (or blesses) the HTML-report section digests at
/// `<dir>/report.csv`. On mismatch, the report names the first diverging
/// section id — so a moved digest points straight at the panel that
/// changed.
///
/// # Errors
/// Fails only on filesystem errors while blessing.
pub fn check_report(runs: &[RunArtifacts], dir: &Path, bless: bool) -> Result<GoldenReport> {
    let current = report_for_runs(runs).digest_lines();
    check_lines(
        "report",
        "section digest",
        &dir.join("report.csv"),
        &current,
        bless,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark::suite::{run_workload_full, SuiteConfig};
    use gnnmark_workloads::WorkloadKind;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("gnnmark-golden-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn bless_then_verify_roundtrips() {
        let cfg = SuiteConfig::test();
        let art = run_workload_full(WorkloadKind::Tlstm, &cfg).unwrap();
        let dir = tmp_dir("roundtrip");

        let blessed = check_opstream(&art.profile, &dir, true).unwrap();
        assert!(blessed.ok && blessed.blessed);
        let verified = check_opstream(&art.profile, &dir, false).unwrap();
        assert!(verified.ok, "{}", verified.detail);

        let runs = [art];
        let blessed = check_figures(&runs, &dir, true).unwrap();
        assert!(blessed.ok && blessed.blessed);
        let verified = check_figures(&runs, &dir, false).unwrap();
        assert!(verified.ok, "{}", verified.detail);

        let blessed = check_report(&runs, &dir, true).unwrap();
        assert!(blessed.ok && blessed.blessed);
        let verified = check_report(&runs, &dir, false).unwrap();
        assert!(verified.ok, "{}", verified.detail);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_digest_is_stable_across_renders() {
        let cfg = SuiteConfig::test();
        let art = run_workload_full(WorkloadKind::Tlstm, &cfg).unwrap();
        let runs = [art];
        let a = report_for_runs(&runs).digest_lines();
        let b = report_for_runs(&runs).digest_lines();
        assert!(!a.is_empty());
        assert_eq!(a, b, "report digests must be deterministic");
    }

    #[test]
    fn corrupted_snapshot_names_the_first_diverging_kernel() {
        let cfg = SuiteConfig::test();
        let art = run_workload_full(WorkloadKind::Tlstm, &cfg).unwrap();
        let dir = tmp_dir("corrupt");
        check_opstream(&art.profile, &dir, true).unwrap();

        let path = dir
            .join("opstream")
            .join(format!("{}.csv", art.profile.name));
        let mut body = fs::read_to_string(&path).unwrap();
        // Corrupt the flops column of the first kernel line (line index 1).
        let lines: Vec<&str> = body.lines().collect();
        let mut corrupted: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        corrupted[1] = corrupted[1].replace(',', ",9");
        body = corrupted.join("\n");
        fs::write(&path, body).unwrap();

        let report = check_opstream(&art.profile, &dir, false).unwrap();
        assert!(!report.ok);
        assert!(
            report.detail.contains("kernel line #1"),
            "detail should name the diverging line: {}",
            report.detail
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_snapshot_suggests_bless() {
        let cfg = SuiteConfig::test();
        let art = run_workload_full(WorkloadKind::Tlstm, &cfg).unwrap();
        let report = check_opstream(&art.profile, &tmp_dir("missing"), false).unwrap();
        assert!(!report.ok);
        assert!(report.detail.contains("--bless"), "{}", report.detail);
    }
}
