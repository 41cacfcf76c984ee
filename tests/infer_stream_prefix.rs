//! `Workload::infer(Full)` is the forward of `Workload::probe`: its kernel
//! stream (name, flops, iops, threads of every kernel, in order) is exactly
//! the prefix of `probe`'s stream — what follows is the backward pass — and
//! the two losses are bit-equal, for all nine kinds in both training modes
//! at `Scale::Test` and `Scale::Small`.
//!
//! The `opstream-infer/` goldens pin the inference stream at `Test` scale,
//! full-graph only, and against a recording; this holds it to the training
//! forward itself, so a workload whose `infer` stops calling the forward
//! `probe` calls fails here whatever the goldens say.

use gnnmark::WorkloadKind;
use gnnmark_autograd::NoGradGuard;
use gnnmark_tensor::record;
use gnnmark_workloads::{InferBatch, MinibatchConfig, Scale, TrainMode};

type Kernel = (&'static str, u64, u64, u64);

fn recorded(run: impl FnOnce() -> f64) -> (f64, Vec<Kernel>) {
    record::start_recording();
    let loss = run();
    let kernels = record::stop_recording()
        .iter()
        .map(|e| (e.kernel, e.flops, e.iops, e.threads))
        .collect();
    (loss, kernels)
}

#[test]
fn infer_full_is_the_prefix_of_probe_in_every_mode_and_scale() {
    let modes = [
        TrainMode::FullGraph,
        TrainMode::Minibatch(MinibatchConfig::default()),
    ];
    for scale in [Scale::Test, Scale::Small] {
        for mode in &modes {
            for kind in WorkloadKind::ALL {
                let what = format!("{} {} {}", kind.label(), mode.label(), scale.label());
                let build = || kind.build_mode(scale, 42, mode).expect("workload builds");
                let (probe_loss, probe) = recorded(|| build().probe().expect("probe runs"));
                let (infer_loss, infer) = recorded(|| {
                    let _guard = NoGradGuard::new();
                    build().infer(InferBatch::Full).expect("infer runs")
                });
                assert_eq!(
                    probe_loss.to_bits(),
                    infer_loss.to_bits(),
                    "{what}: probe loss {probe_loss:?} != infer loss {infer_loss:?}"
                );
                assert!(
                    !infer.is_empty() && infer.len() < probe.len(),
                    "{what}: {} inference kernels, {} probe kernels",
                    infer.len(),
                    probe.len()
                );
                if let Some(at) = (0..infer.len()).find(|&i| infer[i] != probe[i]) {
                    panic!(
                        "{what}: kernel {at} differs: infer {:?}, probe {:?}",
                        infer[at], probe[at]
                    );
                }
            }
        }
    }
}
