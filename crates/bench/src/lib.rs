//! # gnnmark-bench
//!
//! The benchmark harness of the GNNMark reproduction:
//!
//! * the `gnnmark` CLI binary regenerates every table and figure of the
//!   paper (`gnnmark all`, `gnnmark fig2`, …) as text tables and CSV;
//! * suite-backed targets run under the resilience layer
//!   ([`gnnmark::resilience`]): per-workload panic isolation, deadlines,
//!   retries, checkpoint/resume — with `--keep-going`, figures degrade
//!   gracefully and missing workloads render as explicit `—` rows;
//! * the Criterion benches (`cargo bench`) time one regeneration target
//!   per table/figure so regressions in the substrate show up as bench
//!   deltas.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod flags;
pub mod infer_cli;
pub mod report_cli;

use gnnmark::resilience::{run_suite_resilient, ResilienceConfig, SuiteReport};
use gnnmark::suite::{run_workload_captured, RunArtifacts, SuiteConfig};
use gnnmark::{figures, Result, Table, WorkloadKind, WorkloadProfile};

/// Every figure target the CLI and benches expose, plus one
/// single-workload target per paper workload (lower-cased label, e.g.
/// `gnnmark stgcn`) for focused profiling/observability runs.
pub const TARGETS: [&str; 32] = [
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "roofline",
    "convergence",
    "summary",
    "suite",
    "ablations",
    "modecmp",
    "check",
    "all",
    "list",
    "serve",
    "sweep",
    "report",
    "infer",
    "loadtest",
    "psage-mvl",
    "psage-nwp",
    "stgcn",
    "dgcn",
    "gw",
    "kgnnl",
    "kgnnh",
    "arga",
    "tlstm",
];

/// Resolves a single-workload CLI target (`"stgcn"`, `"psage-mvl"`, …) to
/// its [`WorkloadKind`]; `None` for figure/table targets.
pub fn workload_for_target(target: &str) -> Option<WorkloadKind> {
    WorkloadKind::ALL
        .iter()
        .copied()
        .find(|k| k.label().to_ascii_lowercase() == target)
}

/// A figure target's renderer.
type Render = fn(&[RunArtifacts]) -> Vec<Table>;

/// The renderer of one figure target, `None` for a name that is not one.
fn figure(target: &str) -> Option<Render> {
    fn profiles(runs: &[RunArtifacts]) -> Vec<WorkloadProfile> {
        runs.iter().map(|r| r.profile.clone()).collect()
    }
    Some(match target {
        "table1" => |_| vec![figures::table1()],
        "fig2" => |runs| vec![figures::fig2_time_breakdown(&profiles(runs))],
        "fig3" => |runs| vec![figures::fig3_instruction_mix(&profiles(runs))],
        "fig4" => |runs| {
            let profiles = profiles(runs);
            vec![
                figures::fig4_throughput(&profiles),
                figures::fig4_per_op_throughput(&profiles),
            ]
        },
        "fig5" => |runs| {
            let profiles = profiles(runs);
            vec![
                figures::fig5_stalls(&profiles),
                figures::fig5_per_op_stalls(&profiles),
            ]
        },
        "fig6" => |runs| {
            let profiles = profiles(runs);
            vec![
                figures::fig6_caches(&profiles),
                figures::fig6_per_op_caches(&profiles),
            ]
        },
        "fig7" => |runs| vec![figures::fig7_sparsity(&profiles(runs))],
        "fig8" => |runs| {
            // The paper plots representative workloads; show one dense and
            // one sparse-transfer workload. Either may be missing from a
            // degraded run — render the ones that are present.
            let mut series = Vec::new();
            for prefix in ["PSAGE", "ARGA"] {
                match runs.iter().find(|r| r.profile.name.starts_with(prefix)) {
                    Some(r) => series.push(figures::fig8_sparsity_series(&r.profile, 24)),
                    None => {
                        let mut t = Table::new(format!(
                            "Figure 8 — transfer sparsity over time ({prefix}: unavailable)"
                        ));
                        t.header(["Transfer #", "Sparsity (%)", ""]);
                        t.row([figures::MISSING_MARKER; 3]);
                        series.push(t);
                    }
                }
            }
            series
        },
        "fig9" => |runs| vec![figures::fig9_scaling(runs)],
        "roofline" => |runs| vec![figures::fig_roofline(&profiles(runs))],
        // `suite` is the timing-oriented alias: run every workload, report
        // the per-workload summary (the wall-clock benchmark entry point).
        "summary" | "suite" => |runs| vec![figures::suite_summary(runs)],
        "convergence" => |runs| vec![figures::fig_convergence(runs)],
        _ => return None,
    })
}

/// Prints each table to stdout and, with `csv_dir`, writes it to
/// `<csv_dir>/<slug>.csv`, the slug being the lower-cased title with every
/// run of non-alphanumerics collapsed to one `_`.
///
/// # Errors
/// Propagates directory-creation and file-write failures.
pub fn emit(tables: &[Table], csv_dir: Option<&str>) -> std::io::Result<()> {
    for t in tables {
        println!("{t}");
        println!();
        if let Some(dir) = csv_dir {
            std::fs::create_dir_all(dir)?;
            let slug: String = t
                .title()
                .chars()
                .map(|c| {
                    if c.is_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect::<String>()
                .split('_')
                .filter(|s| !s.is_empty())
                .collect::<Vec<_>>()
                .join("_");
            let path = format!("{dir}/{slug}.csv");
            std::fs::write(&path, t.to_csv())?;
            eprintln!("wrote {path}");
        }
    }
    Ok(())
}

/// Runs the suite once under the resilience layer and renders one figure
/// target. The suite always completes; what happens to failures depends on
/// `keep_going`:
///
/// * `keep_going == true` — failed/timed-out/panicked workloads render as
///   explicit `—` rows and the call succeeds with partial figures;
/// * `keep_going == false` — the first failure is returned as an error,
///   but retries, deadlines and checkpointing still apply.
///
/// `report_cache` lets callers reuse one resilient suite run (and its
/// per-workload status) across several targets, the ablations included.
///
/// # Errors
/// Unknown targets; workload failures when `keep_going` is off.
pub fn render_target_resilient(
    target: &str,
    cfg: &SuiteConfig,
    rcfg: &ResilienceConfig,
    keep_going: bool,
    report_cache: &mut Option<SuiteReport>,
) -> Result<Vec<Table>> {
    // Single-workload targets train just that workload (still resilient)
    // and report the per-workload summary table.
    let single = workload_for_target(target);
    let render = match target {
        // Not a figure: the ablations read the runs and train captures.
        "ablations" => None,
        _ => Some(figure(single.map_or(target, |_| "summary")).ok_or_else(|| {
            gnnmark_tensor::TensorError::InvalidArgument {
                op: "render_target_resilient",
                reason: format!("unknown target `{target}`"),
            }
        })?),
    };
    if let (Some(render), "table1") = (render, target) {
        return Ok(render(&[]));
    }
    let report = report_cache.get_or_insert_with(|| match single {
        Some(kind) => SuiteReport {
            outcomes: vec![gnnmark::resilience::run_workload_resilient(kind, cfg, rcfg)],
        },
        None => run_suite_resilient(cfg, rcfg),
    });
    let runs = report.runs(keep_going)?;
    let Some(render) = render else {
        return render_ablations(cfg, rcfg, &runs);
    };
    let mut tables = render(&runs);
    let missing = report.missing();
    for t in &mut tables {
        figures::append_missing_rows(t, &missing);
    }
    Ok(tables)
}

/// Runs the suite under both training modes and renders the full-graph vs
/// mini-batch characterization figure (op mix + transfer sparsity per
/// workload). When the caller's config already selects a minibatch mode
/// (via `--mode`/`--batch-size`/`--fanout`), that configuration is the
/// minibatch arm; otherwise the default fanout config is compared.
///
/// # Errors
/// Propagates workload failures from either arm.
pub fn render_mode_comparison(cfg: &SuiteConfig) -> Result<Vec<Table>> {
    use gnnmark::TrainMode;
    let full_cfg = cfg.clone().with_mode(TrainMode::FullGraph);
    let mini_mode = match &cfg.mode {
        TrainMode::Minibatch(mb) => TrainMode::Minibatch(mb.clone()),
        TrainMode::FullGraph => TrainMode::Minibatch(Default::default()),
    };
    let mini_cfg = cfg.clone().with_mode(mini_mode);
    let rcfg = ResilienceConfig {
        parallel: true,
        ..ResilienceConfig::default()
    };
    let full = run_suite_resilient(&full_cfg, &rcfg).runs(false)?;
    let mini = run_suite_resilient(&mini_cfg, &rcfg).runs(false)?;
    Ok(vec![figures::fig_mode_comparison(&full, &mini)])
}

/// Renders the nine ablation studies. The device what-ifs replay one
/// captured run each of ARGA and DGCN, the workload tables read the
/// suite's `runs` (a listed workload they lack is a `—` row), and only the
/// fp16/bf16 rows and the models outside the suite train. Under
/// `--checkpoint D` the captures come from `D`, where the suite stored
/// them, so they train only if `D` lacks them.
///
/// # Errors
/// Propagates workload failures.
fn render_ablations(
    cfg: &SuiteConfig,
    rcfg: &ResilienceConfig,
    runs: &[RunArtifacts],
) -> Result<Vec<Table>> {
    use gnnmark::ablations::*;
    use gnnmark::cache::{CacheKey, StreamCache};
    let capture = |kind| match &rcfg.checkpoint_dir {
        Some(dir) => StreamCache::new(dir)
            .fetch(&CacheKey::for_training(kind, cfg))
            .map(|(run, _)| run),
        None => run_workload_captured(kind, cfg).map(|(_, run)| run),
    };
    let arga = capture(WorkloadKind::ArgaCora)?;
    let dgcn = capture(WorkloadKind::Dgcn)?;
    Ok(vec![
        ablation_l1_size(&arga, cfg),
        ablation_feature_width(cfg)?,
        ablation_nvlink_bandwidth(&dgcn, cfg),
        ablation_half_precision(WorkloadKind::ArgaCora, &arga, cfg)?,
        ablation_inference_vs_training(cfg)?,
        ablation_weak_scaling(runs, cfg),
        ablation_arga_datasets(&SuiteConfig {
            seed: cfg.seed,
            ..SuiteConfig::test()
        })?,
        ablation_sparsity_compression(runs),
        ablation_device_comparison(&dgcn, cfg),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark::resilience::{Fault, FaultPlan};

    #[test]
    fn table1_needs_no_suite() {
        let mut cache = None;
        let rcfg = ResilienceConfig::default();
        let t = render_target_resilient("table1", &SuiteConfig::test(), &rcfg, false, &mut cache)
            .unwrap();
        assert_eq!(t.len(), 1);
        assert!(cache.is_none());
    }

    #[test]
    fn unknown_target_is_an_error() {
        // The name is rejected before the suite trains.
        let mut cache = None;
        let rcfg = ResilienceConfig::default();
        assert!(
            render_target_resilient("fig99", &SuiteConfig::test(), &rcfg, false, &mut cache)
                .is_err()
        );
        assert!(cache.is_none());
    }

    #[test]
    fn single_workload_target_renders_summary() {
        let cfg = SuiteConfig::test();
        let rcfg = ResilienceConfig::default();
        let mut cache = None;
        let tables = render_target_resilient("tlstm", &cfg, &rcfg, false, &mut cache).unwrap();
        assert_eq!(tables.len(), 1);
        assert!(tables[0].to_string().contains("TLSTM"), "{}", tables[0]);
        let report = cache.expect("report cached");
        assert_eq!(report.outcomes.len(), 1, "only the named workload ran");
        assert!(workload_for_target("psage-mvl").is_some());
        assert!(workload_for_target("fig4").is_none());
    }

    #[test]
    fn resilient_render_degrades_gracefully() {
        let cfg = SuiteConfig::test();
        let rcfg =
            ResilienceConfig::default().with_faults(FaultPlan::none().inject("GW", Fault::Panic));
        let mut cache = None;
        // Fail-fast mode surfaces the injected failure.
        let err = render_target_resilient("fig4", &cfg, &rcfg, false, &mut cache)
            .expect_err("fault must surface without --keep-going");
        assert!(err.to_string().starts_with("GW: "), "{err}");
        // Keep-going mode renders the other workloads plus a `—` row.
        let tables = render_target_resilient("fig4", &cfg, &rcfg, true, &mut cache)
            .expect("keep-going renders");
        let s = tables[0].to_string();
        assert!(s.contains("TLSTM"), "{s}");
        assert!(s.contains(gnnmark::figures::MISSING_MARKER), "{s}");
        // 8 completed workloads + the MEAN row + one `—` row for GW.
        assert_eq!(
            tables[0].num_rows(),
            WorkloadKind::ALL.len() + 1,
            "every workload gets a row"
        );
    }
}
