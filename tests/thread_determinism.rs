//! End-to-end thread-count determinism: training is bit-identical under
//! `--threads 1`, `--threads 4` and `--threads 8`.
//!
//! The parallel kernel layer promises that partitioning only changes *who*
//! computes each output element, never the floating-point order — so a full
//! 2-epoch KGNN (low-feature) run must produce identical loss curves AND an
//! identical profiler op stream (same kernels, in the same order, with the
//! same modeled work) at every thread count. The 8-thread leg oversubscribes
//! the tiny test tensors (most kernels have fewer rows than workers). Every
//! kernel at this scale is below `par`'s grain, so the multi-thread legs run
//! under `par::force_split` and assert that regions really went to the pool.

use gnnmark::suite::{run_workload_full, SuiteConfig};
use gnnmark::WorkloadKind;
use gnnmark_gpusim::KernelMetrics;

/// The op-stream fields that must match exactly across thread counts.
fn op_key(k: &KernelMetrics) -> (&'static str, String, u64, u64, u64, u64) {
    (
        k.kernel,
        format!("{:?}", k.class),
        k.flops,
        k.iops,
        k.threads,
        k.time_ns.to_bits(),
    )
}

#[test]
fn kgnn_low_is_bit_identical_across_thread_counts() {
    let base = SuiteConfig {
        epochs: 2,
        ..SuiteConfig::test()
    };
    let one = run_workload_full(WorkloadKind::KgnnL, &base.clone().with_threads(1))
        .expect("kgnn_low trains at 1 thread");
    for threads in [4usize, 8] {
        let (pooled_before, _) = gnnmark_tensor::par::regions();
        let multi = gnnmark_tensor::par::force_split(|| {
            run_workload_full(WorkloadKind::KgnnL, &base.clone().with_threads(threads))
        })
        .unwrap_or_else(|e| panic!("kgnn_low trains at {threads} threads: {e}"));
        assert!(
            gnnmark_tensor::par::regions().0 > pooled_before,
            "no kernel ran pooled at {threads} threads: the comparison is vacuous"
        );

        // Loss curves: bit-identical, not merely close.
        assert_eq!(one.losses.len(), 2);
        for (a, b) in one.losses.iter().zip(&multi.losses) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "loss diverged at {threads} threads: {a} vs {b}"
            );
        }

        // Op streams: same kernels in the same order with the same modeled
        // flop/iop/thread counts and modeled times.
        assert_eq!(
            one.profile.kernels.len(),
            multi.profile.kernels.len(),
            "kernel count diverged at {threads} threads"
        );
        for (i, (a, b)) in one
            .profile
            .kernels
            .iter()
            .zip(&multi.profile.kernels)
            .enumerate()
        {
            assert_eq!(
                op_key(a),
                op_key(b),
                "op stream diverged at kernel {i} ({threads} threads)"
            );
        }
    }
    // Restore the default so later tests in this binary are unaffected.
    gnnmark_tensor::par::set_threads(1);
}
