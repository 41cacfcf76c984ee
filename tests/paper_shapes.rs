//! Headline shape assertions from the paper, checked at Small scale
//! (realistic tensor sizes; Test-scale tensors are launch-bound and hide
//! these effects). These are the claims DESIGN.md §4 commits to.

use gnnmark::suite::{run_workload_full, SuiteConfig};
use gnnmark::WorkloadKind;
use gnnmark_gpusim::StallReason;
use gnnmark_profiler::FigureCategory;

fn small() -> SuiteConfig {
    SuiteConfig {
        epochs: 1,
        ..SuiteConfig::small()
    }
}

#[test]
fn stgcn_is_convolution_dominated() {
    let art = run_workload_full(WorkloadKind::Stgcn, &small()).unwrap();
    let p = &art.profile;
    let conv = p.time_share(FigureCategory::Conv2d);
    for cat in FigureCategory::ALL {
        if cat != FigureCategory::Conv2d {
            assert!(
                conv >= p.time_share(cat),
                "{cat:?} ({:.3}) exceeds Conv2D ({conv:.3})",
                p.time_share(cat)
            );
        }
    }
    assert!(conv > 0.3, "conv share {conv} too small (paper: ~60%)");
}

#[test]
fn dgcn_is_elementwise_dominated_with_irregular_aggregation() {
    let art = run_workload_full(WorkloadKind::Dgcn, &small()).unwrap();
    let p = &art.profile;
    let ele = p.time_share(FigureCategory::ElementWise);
    assert!(
        ele >= p.time_share(FigureCategory::Gemm),
        "DGCN must be element-wise dominated: ele {ele:.3} vs gemm {:.3}",
        p.time_share(FigureCategory::Gemm)
    );
    // PyG's softmax aggregation shows up as scatter+gather kernels.
    let irregular = p.time_share(FigureCategory::Scatter) + p.time_share(FigureCategory::Gather);
    assert!(irregular > 0.05, "scatter+gather share {irregular:.3}");
}

#[test]
fn arga_reduces_heavily_and_ships_sparse_data() {
    let art = run_workload_full(WorkloadKind::ArgaCora, &small()).unwrap();
    let p = &art.profile;
    // BCE over the n² reconstruction keeps reductions prominent.
    assert!(
        p.time_share(FigureCategory::Reduction) > 0.04,
        "reduction share {:.3}",
        p.time_share(FigureCategory::Reduction)
    );
    // PReLU + near-empty bag-of-words features → very sparse transfers.
    assert!(
        p.mean_sparsity > 0.8,
        "ARGA sparsity {:.3}",
        p.mean_sparsity
    );
    // Misaligned 1433-float rows make its loads divergent (paper: 32.5 %
    // suite average; ARGA is our closest analogue of that mechanism).
    assert!(
        p.divergence() > 0.15,
        "ARGA divergence {:.3}",
        p.divergence()
    );
}

#[test]
fn stall_ordering_matches_paper_mean() {
    // Memory dependency, execution dependency and instruction fetch are
    // the top three reasons (paper: 34.3/29.5/21.6), in that general
    // order, for an irregular workload.
    let art = run_workload_full(WorkloadKind::Dgcn, &small()).unwrap();
    let stalls = art.profile.stalls();
    let mem = stalls.share(StallReason::MemoryDependency);
    let exec = stalls.share(StallReason::ExecutionDependency);
    let ifetch = stalls.share(StallReason::InstructionFetch);
    for minor in [
        StallReason::Synchronization,
        StallReason::PipeBusy,
        StallReason::Other,
    ] {
        assert!(mem > stalls.share(minor));
        assert!(exec > stalls.share(minor));
        assert!(ifetch > stalls.share(minor));
    }
    assert!(
        mem > 0.2 && exec > 0.15 && ifetch > 0.12,
        "{mem} {exec} {ifetch}"
    );
}

#[test]
fn l2_serves_what_l1_cannot() {
    // Paper: L1 ~15 % vs L2 ~70 % — the L2 must do far better than L1.
    for kind in [WorkloadKind::Dgcn, WorkloadKind::Tlstm] {
        let art = run_workload_full(kind, &small()).unwrap();
        let p = &art.profile;
        assert!(
            p.l2_hit_rate() > p.l1_hit_rate(),
            "{}: L1 {:.3} vs L2 {:.3}",
            p.name,
            p.l1_hit_rate(),
            p.l2_hit_rate()
        );
    }
    // At realistic working-set sizes (DGCN batches), L1 stays well below
    // 50 % (paper: ~15 % average). TLSTM's Small-scale state table is tiny
    // enough to cache, so the bound is asserted only where the working set
    // exceeds L1.
    let dgcn = run_workload_full(WorkloadKind::Dgcn, &small()).unwrap();
    assert!(
        dgcn.profile.l1_hit_rate() < 0.5,
        "DGCN L1 suspiciously high: {:.3}",
        dgcn.profile.l1_hit_rate()
    );
}

#[test]
fn throughput_is_far_below_peak() {
    // The paper's central §V-B finding.
    for kind in [WorkloadKind::Tlstm, WorkloadKind::KgnnL] {
        let art = run_workload_full(kind, &small()).unwrap();
        let p = &art.profile;
        assert!(
            p.gflops() < 0.15 * p.spec.peak_gflops(),
            "{}: {:.0} GFLOPS vs peak {:.0}",
            p.name,
            p.gflops(),
            p.spec.peak_gflops()
        );
    }
}
