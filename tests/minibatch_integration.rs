//! End-to-end mini-batch training mode: every workload trains with
//! finite losses under `--mode minibatch`, sampled training is
//! bit-identical across thread counts, and the serve replay cache keys
//! full-graph and minibatch runs separately.

use gnnmark::resilience::{run_suite_resilient, ResilienceConfig};
use gnnmark::suite::{run_workload_full, SuiteConfig};
use gnnmark::{MinibatchConfig, TrainMode, WorkloadKind};

fn minibatch_mode() -> TrainMode {
    TrainMode::Minibatch(MinibatchConfig {
        batch_size: 8,
        fanouts: vec![4, 3],
    })
}

#[test]
fn every_workload_trains_minibatch_with_finite_losses() {
    let cfg = SuiteConfig::test().with_mode(minibatch_mode());
    let rcfg = ResilienceConfig {
        parallel: true,
        ..ResilienceConfig::default()
    };
    let runs = run_suite_resilient(&cfg, &rcfg)
        .runs(false)
        .expect("suite trains in minibatch mode");
    assert_eq!(runs.len(), WorkloadKind::ALL.len());
    for run in &runs {
        assert!(
            !run.losses.is_empty(),
            "{} recorded no losses",
            run.profile.name
        );
        assert!(
            run.losses.iter().all(|l| l.is_finite()),
            "{} produced non-finite losses: {:?}",
            run.profile.name,
            run.losses
        );
        assert!(
            run.profile.kernels.len() > 10,
            "{} launched kernels",
            run.profile.name
        );
    }
}

#[test]
fn minibatch_training_is_thread_count_invariant() {
    let base = SuiteConfig::test().with_mode(minibatch_mode());
    let one = run_workload_full(WorkloadKind::ArgaCora, &base.clone().with_threads(1))
        .expect("ARGA minibatch trains at 1 thread");
    let four = run_workload_full(WorkloadKind::ArgaCora, &base.with_threads(4))
        .expect("ARGA minibatch trains at 4 threads");
    assert_eq!(one.losses.len(), four.losses.len());
    for (a, b) in one.losses.iter().zip(&four.losses) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "minibatch loss diverged: {a} vs {b}"
        );
    }
    assert_eq!(one.profile.kernels.len(), four.profile.kernels.len());
}

#[test]
fn replay_cache_keys_fullgraph_and_minibatch_separately() {
    use gnnmark_serve::CacheKey;
    use gnnmark_workloads::Scale;
    let full = CacheKey {
        workload: WorkloadKind::ArgaCora,
        scale: Scale::Test,
        seed: 42,
        epochs: 2,
        precision: gnnmark_tensor::half::Precision::Fp32,
        mode: TrainMode::FullGraph,
        phase: gnnmark::infer::ExecPhase::Train,
    };
    let mini = CacheKey {
        mode: minibatch_mode(),
        ..full.clone()
    };
    assert_ne!(
        full.id(),
        mini.id(),
        "mode must be part of the cache identity"
    );
    let mini2 = CacheKey {
        mode: minibatch_mode(),
        ..full.clone()
    };
    assert_eq!(mini.id(), mini2.id(), "same mode hashes identically");
}
