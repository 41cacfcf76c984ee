//! Inference verification (check layer 6).
//!
//! A workload has one forward; [`Workload::infer`] is that forward entered
//! under a [`gnnmark_autograd::NoGradGuard`], which makes autograd record
//! nothing (see `gnnmark_autograd::nograd`). That inference computes what training
//! computes is therefore structural, and the per-op half of it — every
//! op's guarded value bit-equals its taped value — is checked in layer 1
//! ([`crate::gradcheck::grad_check`]). The end-to-end half — every
//! workload's guarded forward returns the loss bits of its taped
//! [`Workload::probe`], and its kernel stream is the prefix of `probe`'s,
//! in both modes at `Test` and `Small` scale — is the integration test
//! `tests/infer_stream_prefix.rs`. Two check families remain here:
//!
//! * **Thread parity** — the inference loss is bit-identical at 1 and 4
//!   tensor-kernel threads, extending the suite's thread-count
//!   determinism guarantee to the inference path.
//! * **Golden op streams** — forward-only kernel streams of every
//!   workload are snapshotted under `results/golden/opstream-infer/`;
//!   shape-derived, so identical across SIMD lanes.

use gnnmark::infer::{run_infer_workload, InferConfig};
use gnnmark::suite::SuiteConfig;
use gnnmark_profiler::WorkloadProfile;
use gnnmark_workloads::{InferBatch, Scale, TrainMode, Workload, WorkloadKind};

use crate::minibatch::ParityReport;
use crate::Result;

/// Builds one workload in full-graph mode at fp32.
fn build(kind: WorkloadKind, scale: Scale, seed: u64) -> Result<Box<dyn Workload>> {
    kind.build_mode(scale, seed, &TrainMode::FullGraph)
}

/// Thread-count parity: the inference loss is bit-identical at 1 and 4
/// tensor-kernel threads. Check-scale kernels are all below `par`'s grain,
/// so the 4-thread leg runs under `par::force_split` and fails if no region
/// went to the pool. Restores the entering thread count.
///
/// # Errors
/// Propagates workload construction or forward errors.
pub fn thread_parity_reports(scale: Scale, seed: u64) -> Result<Vec<ParityReport>> {
    use gnnmark_tensor::par;
    let entering = par::threads();
    let run_at = |threads: usize, kind: WorkloadKind| -> Result<f64> {
        par::set_threads(threads);
        build(kind, scale, seed)?.infer(InferBatch::Full)
    };
    let inner = || -> Result<Vec<ParityReport>> {
        let mut out = Vec::with_capacity(WorkloadKind::ALL.len());
        for kind in WorkloadKind::ALL {
            let one = run_at(1, kind)?;
            let (pooled_before, _) = par::regions();
            let four = par::force_split(|| run_at(4, kind))?;
            let pooled = par::regions().0 > pooled_before;
            let ok = pooled && one.to_bits() == four.to_bits();
            out.push(ParityReport {
                name: format!("infer-threads/{}", kind.label()),
                ok,
                detail: if ok {
                    String::new()
                } else if !pooled {
                    "no kernel ran pooled at 4 threads".to_string()
                } else {
                    format!("loss at 1 thread {one:?} != at 4 threads {four:?}")
                },
            });
        }
        Ok(out)
    };
    let out = inner();
    par::set_threads(entering);
    out
}

/// Forward-only profiles of every workload for the inference golden
/// op-stream gate (snapshot family `opstream-infer/`).
///
/// # Errors
/// Propagates workload construction or forward errors.
pub fn golden_profiles(seed: u64) -> Result<Vec<WorkloadProfile>> {
    let mut suite = SuiteConfig::test();
    suite.seed = seed;
    let mut cfg = InferConfig::new(suite);
    cfg.batch1_steps = 1;
    cfg.batched_steps = 1;
    WorkloadKind::ALL
        .iter()
        .map(|&k| Ok(run_infer_workload(k, &cfg)?.profile))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_profiles_cover_every_workload() {
        let profiles = golden_profiles(42).unwrap();
        assert_eq!(profiles.len(), WorkloadKind::ALL.len());
        for p in &profiles {
            assert!(!p.kernels.is_empty(), "{}: empty inference stream", p.name);
        }
    }
}
