//! Generators for every table and figure of the GNNMark paper.
//!
//! Each function renders the corresponding result as a [`Table`] (pretty
//! text via `Display`, CSV via [`Table::to_csv`]). Shape targets from the
//! paper are documented per function and checked by the integration suite.

use gnnmark_gpusim::{DdpModel, StallReason};
use gnnmark_profiler::{FigureCategory, Table, WorkloadProfile};

use crate::suite::RunArtifacts;

pub(crate) fn pct(v: f64) -> String {
    format!("{:.1}", v * 100.0)
}

/// Table I: the benchmark suite inventory.
pub fn table1() -> Table {
    let mut t = Table::new("Table I — GNNMark benchmark suite");
    t.header([
        "Abbrev",
        "Model",
        "Framework",
        "Domain",
        "Dataset",
        "Graph type",
    ]);
    for r in gnnmark_workloads::table_one() {
        t.row([
            r.abbrev,
            r.model,
            r.framework,
            r.domain,
            r.dataset,
            r.graph_type,
        ]);
    }
    t
}

/// Figure 2: execution-time breakdown by operation class (% of kernel
/// time), one row per workload plus the suite mean.
///
/// Paper shape targets: STGCN dominated by Conv2D (~60 %); DGCN
/// element-wise heavy (~31 %); GEMM+SpMM only ~25 % of suite time;
/// PSAGE's element-wise share far higher on NWP than MVL.
pub fn fig2_time_breakdown(profiles: &[WorkloadProfile]) -> Table {
    let mut t = Table::new("Figure 2 — Execution-time breakdown by operation (%)");
    let mut header = vec!["Workload".to_string()];
    header.extend(FigureCategory::ALL.iter().map(|c| c.label().to_string()));
    t.header(header);
    let mut sums = vec![0.0f64; FigureCategory::ALL.len()];
    for p in profiles {
        let mut row = vec![p.name.clone()];
        for (i, &cat) in FigureCategory::ALL.iter().enumerate() {
            let share = p.time_share(cat);
            sums[i] += share;
            row.push(pct(share));
        }
        t.row(row);
    }
    if !profiles.is_empty() {
        let mut row = vec!["MEAN".to_string()];
        for s in &sums {
            row.push(pct(s / profiles.len() as f64));
        }
        t.row(row);
    }
    t
}

/// Figure 3: dynamic instruction mix (% of arithmetic instructions).
///
/// Paper shape targets: int32 ≈ 64 % / fp32 ≈ 28.7 % on average, with GW
/// the only fp32-dominant workload.
pub fn fig3_instruction_mix(profiles: &[WorkloadProfile]) -> Table {
    let mut t = Table::new("Figure 3 — Dynamic instruction mix (%)");
    t.header(["Workload", "int32", "fp32", "other", "ld/st per arith"]);
    let (mut int_sum, mut fp_sum) = (0.0, 0.0);
    for p in profiles {
        let int = p.instr.int_share();
        let fp = p.instr.fp_share();
        int_sum += int;
        fp_sum += fp;
        let arith = (p.instr.fp32 + p.instr.int32 + p.instr.control).max(1);
        t.row([
            p.name.clone(),
            pct(int),
            pct(fp),
            pct(1.0 - int - fp),
            format!("{:.2}", p.instr.ldst as f64 / arith as f64),
        ]);
    }
    if !profiles.is_empty() {
        let n = profiles.len() as f64;
        t.row([
            "MEAN".to_string(),
            pct(int_sum / n),
            pct(fp_sum / n),
            pct(1.0 - int_sum / n - fp_sum / n),
            String::new(),
        ]);
    }
    t
}

/// Figure 4: achieved GFLOPS / GIOPS and IPC per workload.
///
/// Paper shape targets: suite mean ≈ 214 GFLOPS / 705 GIOPS; GW the
/// clear GFLOPS leader; TLSTM near the bottom; mean IPC ≈ 0.55 — all far
/// below the V100's 14 TFLOPS peak.
pub fn fig4_throughput(profiles: &[WorkloadProfile]) -> Table {
    let mut t = Table::new("Figure 4 — Achieved throughput");
    t.header(["Workload", "GFLOPS", "GIOPS", "IPC"]);
    let (mut gf, mut gi, mut ipc) = (0.0, 0.0, 0.0);
    for p in profiles {
        gf += p.gflops();
        gi += p.giops();
        ipc += p.ipc();
        t.row([
            p.name.clone(),
            format!("{:.0}", p.gflops()),
            format!("{:.0}", p.giops()),
            format!("{:.2}", p.ipc()),
        ]);
    }
    if !profiles.is_empty() {
        let n = profiles.len() as f64;
        t.row([
            "MEAN".to_string(),
            format!("{:.0}", gf / n),
            format!("{:.0}", gi / n),
            format!("{:.2}", ipc / n),
        ]);
    }
    t
}

/// Per-operation throughput across the suite (the paper's §V-B per-op
/// comparison: GEMM fastest, reductions/scatters/gathers ~100).
pub fn fig4_per_op_throughput(profiles: &[WorkloadProfile]) -> Table {
    let mut t = Table::new("Figure 4 (per-op) — Throughput by operation class");
    t.header(["Operation", "GFLOPS", "GIOPS", "Time share (%)", "Launches"]);
    let mut total_time = 0.0;
    for p in profiles {
        total_time += p.total_kernel_time_ns();
    }
    for cat in FigureCategory::ALL {
        let (mut flops, mut iops, mut time, mut launches) = (0u64, 0u64, 0.0f64, 0u64);
        for p in profiles {
            if let Some(s) = p.per_class.get(&cat) {
                flops += s.flops;
                iops += s.iops;
                time += s.time_ns;
                launches += s.launches;
            }
        }
        if launches == 0 {
            continue;
        }
        t.row([
            cat.label().to_string(),
            format!("{:.0}", flops as f64 / time.max(1.0)),
            format!("{:.0}", iops as f64 / time.max(1.0)),
            pct(time / total_time.max(1.0)),
            launches.to_string(),
        ]);
    }
    t
}

/// Figure 5: issue-stall breakdown per workload (%).
///
/// Paper shape targets: memory dependency ≈ 34.3 %, execution dependency
/// ≈ 29.5 %, instruction fetch ≈ 21.6 % on average.
pub fn fig5_stalls(profiles: &[WorkloadProfile]) -> Table {
    let mut t = Table::new("Figure 5 — Stall breakdown (%)");
    let mut header = vec!["Workload".to_string()];
    header.extend(StallReason::ALL.iter().map(|r| r.label().to_string()));
    t.header(header);
    let mut sums = vec![0.0f64; StallReason::ALL.len()];
    for p in profiles {
        let stalls = p.stalls();
        let mut row = vec![p.name.clone()];
        for (i, &r) in StallReason::ALL.iter().enumerate() {
            let share = stalls.share(r);
            sums[i] += share;
            row.push(pct(share));
        }
        t.row(row);
    }
    if !profiles.is_empty() {
        let mut row = vec!["MEAN".to_string()];
        for s in &sums {
            row.push(pct(s / profiles.len() as f64));
        }
        t.row(row);
    }
    t
}

/// Figure 5 (per-op view): stall breakdown by operation class across the
/// suite; scatter/gather/index-selection stall more on memory than GEMM.
pub fn fig5_per_op_stalls(profiles: &[WorkloadProfile]) -> Table {
    let mut t = Table::new("Figure 5 (per-op) — Stalls by operation class (%)");
    let mut header = vec!["Operation".to_string()];
    header.extend(StallReason::ALL.iter().map(|r| r.label().to_string()));
    t.header(header);
    for cat in FigureCategory::ALL {
        let mut acc = Vec::new();
        for p in profiles {
            if let Some(s) = p.per_class.get(&cat) {
                acc.push((s.stalls(), s.cycles));
            }
        }
        if acc.is_empty() {
            continue;
        }
        let merged = gnnmark_gpusim::StallBreakdown::weighted_merge(&acc);
        let mut row = vec![cat.label().to_string()];
        for &r in &StallReason::ALL {
            row.push(pct(merged.share(r)));
        }
        t.row(row);
    }
    t
}

/// Figure 6: cache hit rates and divergence per workload.
///
/// Paper shape targets: L1 ≈ 15 % on average (GEMM/SpMM below 10 %),
/// L2 ≈ 70 %, divergent loads ≈ 32.5 %.
pub fn fig6_caches(profiles: &[WorkloadProfile]) -> Table {
    let mut t = Table::new("Figure 6 — Cache hit rates and memory divergence (%)");
    t.header(["Workload", "L1 hit", "L2 hit", "Divergent loads"]);
    let (mut l1, mut l2, mut div) = (0.0, 0.0, 0.0);
    for p in profiles {
        l1 += p.l1_hit_rate();
        l2 += p.l2_hit_rate();
        div += p.divergence();
        t.row([
            p.name.clone(),
            pct(p.l1_hit_rate()),
            pct(p.l2_hit_rate()),
            pct(p.divergence()),
        ]);
    }
    if !profiles.is_empty() {
        let n = profiles.len() as f64;
        t.row(["MEAN".to_string(), pct(l1 / n), pct(l2 / n), pct(div / n)]);
    }
    t
}

/// Figure 6 (per-op view): locality by operation class.
pub fn fig6_per_op_caches(profiles: &[WorkloadProfile]) -> Table {
    let mut t = Table::new("Figure 6 (per-op) — Locality by operation class (%)");
    t.header(["Operation", "L1 hit", "L2 hit", "Divergence"]);
    for cat in FigureCategory::ALL {
        let (mut l1h, mut l1a, mut l2h, mut l2a, mut dw, mut w) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        for p in profiles {
            if let Some(s) = p.per_class.get(&cat) {
                l1h += s.l1_hits;
                l1a += s.l1_accesses;
                l2h += s.l2_hits;
                l2a += s.l2_accesses;
                dw += s.divergent_warp_ops;
                w += s.warp_ops;
            }
        }
        if l1a == 0 {
            continue;
        }
        t.row([
            cat.label().to_string(),
            pct(l1h as f64 / l1a as f64),
            pct(l2h as f64 / l2a.max(1) as f64),
            pct(dw as f64 / w.max(1) as f64),
        ]);
    }
    t
}

/// Figure 7: mean CPU→GPU transfer sparsity per workload.
///
/// Paper shape targets: suite mean ≈ 43.2 %; PSAGE MVL sparser than NWP;
/// ReLU/PReLU models (GW, DGCN, ARGA) highly sparse.
pub fn fig7_sparsity(profiles: &[WorkloadProfile]) -> Table {
    let mut t = Table::new("Figure 7 — Mean H2D transfer sparsity (%)");
    t.header(["Workload", "Sparsity", "Transfers"]);
    let mut sum = 0.0;
    for p in profiles {
        sum += p.mean_sparsity;
        t.row([
            p.name.clone(),
            pct(p.mean_sparsity),
            p.sparsity_series.len().to_string(),
        ]);
    }
    if !profiles.is_empty() {
        t.row([
            "MEAN".to_string(),
            pct(sum / profiles.len() as f64),
            String::new(),
        ]);
    }
    t
}

/// Figure 8: per-transfer sparsity over training order for one workload
/// (the paper shows a clear periodic pattern).
pub fn fig8_sparsity_series(profile: &WorkloadProfile, max_points: usize) -> Table {
    let mut t = Table::new(format!(
        "Figure 8 — H2D sparsity over training ({})",
        profile.name
    ));
    t.header(["Transfer #", "Sparsity (%)", ""]);
    let series = &profile.sparsity_series;
    let step = (series.len() / max_points.max(1)).max(1);
    for (i, s) in series.iter().enumerate().step_by(step) {
        let bar_len = (s * 40.0).round() as usize;
        t.row([i.to_string(), pct(*s), "#".repeat(bar_len)]);
    }
    t
}

/// Figure 9: strong scaling of time-per-epoch on 1/2/4 modeled V100s.
///
/// Paper shape targets: DGCN/STGCN/GW speed up; TLSTM stays flat; PSAGE
/// *degrades*; ARGA is excluded.
pub fn fig9_scaling(runs: &[RunArtifacts]) -> Table {
    let mut t =
        Table::new("Figure 9 — Multi-GPU strong scaling (time per epoch, speedup vs 1 GPU)");
    t.header(["Workload", "1 GPU (ms)", "2 GPUs (×)", "4 GPUs (×)"]);
    for art in runs {
        let Some(behavior) = art.scaling else {
            t.row([
                art.profile.name.clone(),
                "excluded".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
            continue;
        };
        let ddp = DdpModel::new(art.profile.spec.clone());
        let epochs = art.losses.len().max(1) as f64;
        let epoch_ns = art.profile.total_time_ns() / epochs;
        let steps = art.steps_per_epoch;
        let t1 = ddp.epoch_time_ns(epoch_ns, steps, art.grad_bytes, behavior, 1);
        let s2 = ddp.speedup(epoch_ns, steps, art.grad_bytes, behavior, 2);
        let s4 = ddp.speedup(epoch_ns, steps, art.grad_bytes, behavior, 4);
        t.row([
            art.profile.name.clone(),
            format!("{:.2}", t1 / 1e6),
            format!("{s2:.2}"),
            format!("{s4:.2}"),
        ]);
    }
    t
}

/// Extra analysis: roofline classification per workload (time-weighted
/// shares of memory-/compute-/overhead-bound kernels). The paper's
/// memory-boundedness finding (§V-B) in roofline terms.
pub fn fig_roofline(profiles: &[WorkloadProfile]) -> Table {
    let mut t = Table::new("Roofline — time share by binding roof (%)");
    t.header([
        "Workload",
        "Memory-bound",
        "Compute-bound",
        "Overhead-bound",
    ]);
    for p in profiles {
        let (m, c, o) = gnnmark_gpusim::roofline::bound_shares(&p.spec, &p.kernels);
        t.row([p.name.clone(), pct(m), pct(c), pct(o)]);
    }
    t
}

/// Extra analysis: per-epoch training losses (TBD/MLPerf-style
/// convergence view of the profiled runs).
pub fn fig_convergence(runs: &[RunArtifacts]) -> Table {
    let mut t = Table::new("Convergence — mean training loss per epoch");
    let max_epochs = runs.iter().map(|r| r.losses.len()).max().unwrap_or(0);
    let mut header = vec!["Workload".to_string()];
    header.extend((0..max_epochs).map(|e| format!("epoch {e}")));
    t.header(header);
    for r in runs {
        let mut row = vec![r.profile.name.clone()];
        for e in 0..max_epochs {
            row.push(r.losses.get(e).map_or(String::new(), |l| format!("{l:.4}")));
        }
        t.row(row);
    }
    t
}

/// Summary of the profiled runs: kernel counts, modeled times and model
/// sizes — the bookkeeping table characterization reports lead with.
pub fn suite_summary(runs: &[RunArtifacts]) -> Table {
    let mut t = Table::new("Suite summary (per profiled run)");
    t.header([
        "Workload",
        "Epochs",
        "Steps/epoch",
        "Kernels",
        "Kernel time (ms)",
        "Transfer time (ms)",
        "Params (KB)",
        "Final loss",
        "Quality",
    ]);
    for r in runs {
        let p = &r.profile;
        t.row([
            p.name.clone(),
            r.losses.len().to_string(),
            r.steps_per_epoch.to_string(),
            p.kernels.len().to_string(),
            format!("{:.2}", p.total_kernel_time_ns() / 1e6),
            format!("{:.2}", p.transfer_time_ns / 1e6),
            format!("{:.0}", r.grad_bytes as f64 / 1024.0),
            r.losses.last().map_or(String::new(), |l| format!("{l:.4}")),
            r.quality
                .map_or(String::new(), |(name, v)| format!("{name} = {v:.3}")),
        ]);
    }
    t
}

/// Full-graph vs mini-batch characterization: per workload, how the
/// operation mix and transfer behavior shift when training moves from
/// whole-graph epochs to fanout-sampled minibatches — the suite-level
/// summary of the neighbor-sampling mode. Sampled paths shed dense
/// decoder work and gain gather/index traffic; the H2D sparsity column
/// shows how much of each mode's feature payload is zeros.
pub fn fig_mode_comparison(fullgraph: &[RunArtifacts], minibatch: &[RunArtifacts]) -> Table {
    let mut t = Table::new("Mode comparison — full-graph vs mini-batch sampling");
    t.header([
        "Workload",
        "Kernel ms (full)",
        "Kernel ms (mb)",
        "Gather+Index % (full)",
        "Gather+Index % (mb)",
        "Top op (full)",
        "Top op (mb)",
        "H2D sparsity % (full)",
        "H2D sparsity % (mb)",
    ]);
    let gather_share = |p: &WorkloadProfile| {
        p.time_share(FigureCategory::Gather) + p.time_share(FigureCategory::IndexSelect)
    };
    let top_op = |p: &WorkloadProfile| {
        FigureCategory::ALL
            .iter()
            .max_by(|a, b| {
                p.time_share(**a)
                    .partial_cmp(&p.time_share(**b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map_or_else(String::new, |c| c.label().to_string())
    };
    for full in fullgraph {
        let name = &full.profile.name;
        let Some(mb) = minibatch.iter().find(|r| &r.profile.name == name) else {
            continue;
        };
        t.row([
            name.clone(),
            format!("{:.2}", full.profile.total_kernel_time_ns() / 1e6),
            format!("{:.2}", mb.profile.total_kernel_time_ns() / 1e6),
            pct(gather_share(&full.profile)),
            pct(gather_share(&mb.profile)),
            top_op(&full.profile),
            top_op(&mb.profile),
            pct(full.profile.mean_sparsity),
            pct(mb.profile.mean_sparsity),
        ]);
    }
    t
}

/// Marker used for workloads absent from a figure (failed, timed out,
/// panicked or interrupted).
pub const MISSING_MARKER: &str = "—";

/// Appends one explicit `—` row per missing workload to a workload-keyed
/// table (first header cell `"Workload"`), so degraded suite runs render
/// every workload rather than silently dropping rows. Tables keyed by
/// anything else (per-operation breakdowns, sparsity series) are left
/// untouched.
pub fn append_missing_rows(t: &mut Table, missing: &[gnnmark_workloads::WorkloadKind]) {
    if t.header_cells().first().map(String::as_str) != Some("Workload") {
        return;
    }
    let cols = t.num_cols();
    for kind in missing {
        let mut row = vec![kind.label().to_string()];
        row.extend(std::iter::repeat_n(
            MISSING_MARKER.to_string(),
            cols.saturating_sub(1),
        ));
        t.row(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{run_workload_full, SuiteConfig};
    use gnnmark_workloads::WorkloadKind;

    fn sample_profiles() -> Vec<RunArtifacts> {
        let cfg = SuiteConfig::test();
        vec![
            run_workload_full(WorkloadKind::Tlstm, &cfg).unwrap(),
            run_workload_full(WorkloadKind::ArgaCora, &cfg).unwrap(),
        ]
    }

    #[test]
    fn missing_rows_are_explicit_dashes() {
        let runs = sample_profiles();
        let profiles: Vec<_> = runs.iter().map(|r| r.profile.clone()).collect();
        let mut t = fig4_throughput(&profiles);
        let before = t.num_rows();
        append_missing_rows(&mut t, &[WorkloadKind::Gw, WorkloadKind::Dgcn]);
        assert_eq!(t.num_rows(), before + 2);
        let s = t.to_string();
        assert!(s.contains("GW") && s.contains(MISSING_MARKER), "{s}");
        // Non-workload-keyed tables are untouched.
        let mut per_op = fig4_per_op_throughput(&profiles);
        let before = per_op.num_rows();
        append_missing_rows(&mut per_op, &[WorkloadKind::Gw]);
        assert_eq!(per_op.num_rows(), before);
    }

    #[test]
    fn missing_rows_edge_cases() {
        let runs = sample_profiles();
        let profiles: Vec<_> = runs.iter().map(|r| r.profile.clone()).collect();

        // Empty `missing` is a no-op.
        let mut t = fig4_throughput(&profiles);
        let before = t.num_rows();
        append_missing_rows(&mut t, &[]);
        assert_eq!(t.num_rows(), before);

        // Appended rows are full-width: the label plus a marker for every
        // remaining column, so CSV field counts stay rectangular.
        append_missing_rows(&mut t, &[WorkloadKind::Stgcn]);
        let csv = t.to_csv();
        let header_fields = csv.lines().next().unwrap().split(',').count();
        let last = csv.lines().last().unwrap();
        assert_eq!(last.split(',').count(), header_fields, "{csv}");
        assert!(last.starts_with("STGCN"), "{csv}");
        for field in last.split(',').skip(1) {
            assert_eq!(field, MISSING_MARKER, "{csv}");
        }

        // A headerless table (no "Workload" first column) is untouched.
        let mut bare = Table::new("bare");
        bare.row(["a", "b"]);
        append_missing_rows(&mut bare, &[WorkloadKind::Gw]);
        assert_eq!(bare.num_rows(), 1);
    }

    #[test]
    fn table1_has_all_rows() {
        let t = table1();
        assert_eq!(t.num_rows(), 8);
        assert!(t.to_string().contains("PinSAGE"));
        assert!(t.to_csv().contains("Tree-LSTM"));
    }

    #[test]
    fn figures_render_for_profiles() {
        let runs = sample_profiles();
        let profiles: Vec<_> = runs.iter().map(|r| r.profile.clone()).collect();
        let figs = [
            fig2_time_breakdown(&profiles),
            fig3_instruction_mix(&profiles),
            fig4_throughput(&profiles),
            fig4_per_op_throughput(&profiles),
            fig5_stalls(&profiles),
            fig5_per_op_stalls(&profiles),
            fig6_caches(&profiles),
            fig7_sparsity(&profiles),
            fig6_per_op_caches(&profiles),
        ];
        for f in &figs {
            assert!(f.num_rows() > 0, "{} empty", f.title());
            assert!(!f.to_string().is_empty());
        }
        // Fig 2 rows include the MEAN row.
        assert_eq!(figs[0].num_rows(), profiles.len() + 1);
    }

    #[test]
    fn fig8_renders_series() {
        let runs = sample_profiles();
        let t = fig8_sparsity_series(&runs[1].profile, 16);
        assert!(t.num_rows() > 0);
        assert!(t.title().contains("ARGA"));
    }

    #[test]
    fn fig8_truncates_long_series_to_max_points() {
        let runs = sample_profiles();
        let mut profile = runs[1].profile.clone();
        profile.sparsity_series = (0..1000).map(|i| (i % 100) as f64 / 100.0).collect();

        // A long series is strided down: at most 2·max_points rows (the
        // stride is the floor of len/max_points), and the stride keeps the
        // original transfer indices.
        let t = fig8_sparsity_series(&profile, 24);
        assert!(
            t.num_rows() <= 48 && t.num_rows() >= 24,
            "rows {}",
            t.num_rows()
        );
        let csv = t.to_csv();
        let first_indices: Vec<&str> = csv
            .lines()
            .skip(1)
            .take(3)
            .map(|l| l.split(',').next().unwrap())
            .collect();
        assert_eq!(first_indices, ["0", "41", "82"], "{csv}");

        // A series already within budget is rendered in full.
        profile.sparsity_series = (0..10).map(|i| i as f64 / 10.0).collect();
        assert_eq!(fig8_sparsity_series(&profile, 24).num_rows(), 10);

        // Degenerate budgets must not panic or divide by zero: a zero
        // budget is clamped to one point.
        profile.sparsity_series = (0..5).map(|i| i as f64 / 5.0).collect();
        assert_eq!(fig8_sparsity_series(&profile, 0).num_rows(), 1);
        profile.sparsity_series.clear();
        assert_eq!(fig8_sparsity_series(&profile, 24).num_rows(), 0);
    }

    #[test]
    fn fig9_excludes_arga_and_ranks_scaling() {
        let runs = sample_profiles();
        let t = fig9_scaling(&runs);
        let text = t.to_string();
        assert!(text.contains("excluded")); // ARGA row
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn roofline_and_convergence_render() {
        let runs = sample_profiles();
        let profiles: Vec<_> = runs.iter().map(|r| r.profile.clone()).collect();
        let roof = fig_roofline(&profiles);
        assert_eq!(roof.num_rows(), 2);
        // Shares per row form a distribution.
        for line in roof.to_csv().lines().skip(1) {
            let total: f64 = line
                .split(',')
                .skip(1)
                .map(|v| v.parse::<f64>().unwrap())
                .sum();
            assert!((total - 100.0).abs() < 0.3, "{line}");
        }
        let conv = fig_convergence(&runs);
        assert_eq!(conv.num_rows(), 2);
        assert!(conv.to_string().contains("epoch 0"));
    }

    #[test]
    fn suite_summary_renders() {
        let runs = sample_profiles();
        let t = suite_summary(&runs);
        assert_eq!(t.num_rows(), 2);
        let txt = t.to_string();
        assert!(txt.contains("TLSTM"));
        assert!(txt.contains("Kernel time"));
    }
}
