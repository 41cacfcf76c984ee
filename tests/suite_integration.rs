//! Cross-crate integration tests: every workload runs end-to-end through
//! the full stack (datasets → layers → autograd → op events → GPU model →
//! profile) and the profiles obey the model's invariants.

use gnnmark::resilience::{run_suite_resilient, ResilienceConfig};
use gnnmark::suite::{run_workload_full, RunArtifacts, SuiteConfig};
use gnnmark::WorkloadKind;
use gnnmark_gpusim::StallReason;
use gnnmark_profiler::FigureCategory;

/// Every workload's artifacts, failing on the first workload failure.
fn run_suite(cfg: &SuiteConfig, parallel: bool) -> Vec<RunArtifacts> {
    let rcfg = ResilienceConfig {
        parallel,
        ..ResilienceConfig::default()
    };
    run_suite_resilient(cfg, &rcfg)
        .runs(false)
        .expect("suite runs")
}

#[test]
fn every_workload_runs_and_produces_consistent_profiles() {
    let cfg = SuiteConfig::test();
    let runs = run_suite(&cfg, false);
    assert_eq!(runs.len(), WorkloadKind::ALL.len());
    for art in &runs {
        let p = &art.profile;
        assert!(!p.kernels.is_empty(), "{}: no kernels", p.name);
        assert!(
            art.losses.iter().all(|l| l.is_finite()),
            "{}: non-finite loss",
            p.name
        );
        // Time shares form a distribution.
        let share_sum: f64 = FigureCategory::ALL.iter().map(|&c| p.time_share(c)).sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "{}: shares {share_sum}",
            p.name
        );
        // Stall shares form a distribution.
        let stall_sum: f64 = StallReason::ALL.iter().map(|&r| p.stall_share(r)).sum();
        assert!(
            (stall_sum - 1.0).abs() < 1e-9,
            "{}: stalls {stall_sum}",
            p.name
        );
        // Cache rates and divergence are probabilities.
        for v in [
            p.l1_hit_rate(),
            p.l2_hit_rate(),
            p.divergence(),
            p.mean_sparsity,
        ] {
            assert!((0.0..=1.0).contains(&v), "{}: metric {v}", p.name);
        }
        // Throughput below hardware peak.
        assert!(p.gflops() <= p.spec.peak_gflops(), "{}", p.name);
        assert!(p.ipc() <= p.spec.schedulers_per_sm as f64, "{}", p.name);
        // Every kernel is accounted in per-class stats.
        let launches: u64 = p.per_class.values().map(|s| s.launches).sum();
        assert_eq!(launches as usize, p.kernels.len(), "{}", p.name);
    }
}

#[test]
fn workloads_train_losses_decrease_at_test_scale() {
    // Multi-epoch training sanity for a representative subset (the full
    // per-workload convergence checks live in each workload's unit tests).
    for kind in [
        WorkloadKind::Dgcn,
        WorkloadKind::Tlstm,
        WorkloadKind::ArgaCora,
    ] {
        let cfg = SuiteConfig {
            epochs: 6,
            ..SuiteConfig::test()
        };
        let art = run_workload_full(kind, &cfg).expect("runs");
        let first = art.losses.first().unwrap();
        let last = art.losses.last().unwrap();
        assert!(last < first, "{}: loss {first} → {last}", kind.label());
    }
}

#[test]
fn half_precision_suite_trains_with_finite_losses_and_half_footprint() {
    use gnnmark_tensor::half::Precision;
    // Every workload must survive real reduced-precision storage: finite
    // losses throughout, and the parameter payload (reported per-step
    // gradient bytes) at exactly half the fp32 figure.
    let fp32 = SuiteConfig::test();
    for precision in [Precision::Fp16, Precision::Bf16] {
        let half = SuiteConfig {
            precision,
            ..SuiteConfig::test()
        };
        for kind in WorkloadKind::ALL {
            let base = run_workload_full(kind, &fp32).expect("fp32 runs");
            let art = run_workload_full(kind, &half).expect("half runs");
            assert!(
                art.losses.iter().all(|l| l.is_finite()),
                "{} {}: non-finite loss {:?}",
                kind.label(),
                precision.as_str(),
                art.losses
            );
            assert_eq!(
                art.grad_bytes,
                base.grad_bytes / 2,
                "{} {}: parameter footprint not halved",
                kind.label(),
                precision.as_str()
            );
        }
    }
}

#[test]
fn deterministic_given_seed() {
    let cfg = SuiteConfig::test();
    let a = run_workload_full(WorkloadKind::KgnnL, &cfg).unwrap();
    let b = run_workload_full(WorkloadKind::KgnnL, &cfg).unwrap();
    assert_eq!(a.profile.kernels.len(), b.profile.kernels.len());
    assert_eq!(a.losses, b.losses);
    assert_eq!(a.grad_bytes, b.grad_bytes);
    assert!((a.profile.mean_sparsity - b.profile.mean_sparsity).abs() < 1e-12);
}

#[test]
fn training_improves_task_quality() {
    // DGCN's accuracy after several epochs must beat its untrained self.
    let before = {
        let mut w = WorkloadKind::Dgcn.build(gnnmark::Scale::Test, 9).unwrap();
        w.quality().unwrap().expect("DGCN defines accuracy").1
    };
    let cfg = SuiteConfig {
        epochs: 8,
        seed: 9,
        ..SuiteConfig::test()
    };
    let art = run_workload_full(WorkloadKind::Dgcn, &cfg).unwrap();
    let (name, after) = art.quality.expect("DGCN defines accuracy");
    assert_eq!(name, "train accuracy");
    assert!(
        after > before,
        "accuracy did not improve: {before:.3} → {after:.3}"
    );
    assert!(after > 0.5, "worse than chance after training: {after:.3}");
}

#[test]
fn every_quality_metric_is_finite() {
    let cfg = SuiteConfig::test();
    for kind in WorkloadKind::ALL {
        let art = run_workload_full(kind, &cfg).unwrap();
        if let Some((name, v)) = art.quality {
            assert!(v.is_finite(), "{kind:?} {name} = {v}");
        }
    }
}

#[test]
fn higher_order_kgnn_costs_more_per_graph() {
    // The paper includes KGNNL and KGNNH precisely to study how cost grows
    // with the k-GNN dimension: the hierarchical variant must spend more
    // modeled GPU time per epoch than the low-order one, on datasets built
    // from the *smaller* graphs KGNNH is restricted to.
    let cfg = SuiteConfig::test();
    let low = run_workload_full(WorkloadKind::KgnnL, &cfg).unwrap();
    let high = run_workload_full(WorkloadKind::KgnnH, &cfg).unwrap();
    assert!(
        high.profile.total_kernel_time_ns() > low.profile.total_kernel_time_ns(),
        "KGNNH {} ns vs KGNNL {} ns",
        high.profile.total_kernel_time_ns(),
        low.profile.total_kernel_time_ns()
    );
    assert!(high.profile.kernels.len() > low.profile.kernels.len());
}

#[test]
fn parallel_suite_matches_serial_suite() {
    let cfg = SuiteConfig::test();
    let serial = run_suite(&cfg, false);
    let parallel = run_suite(&cfg, true);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.profile.name, b.profile.name);
        assert_eq!(a.profile.kernels.len(), b.profile.kernels.len());
        assert_eq!(a.losses, b.losses);
        assert!((a.profile.total_kernel_time_ns() - b.profile.total_kernel_time_ns()).abs() < 1e-6);
    }
}

#[test]
fn sparsity_series_repeats_with_epoch_period() {
    // Figure 8's claim: the H2D sparsity sequence shows a periodic
    // pattern across epochs. With a deterministic eval-order workload
    // (ARGA uploads the same graph each epoch), consecutive epochs must
    // produce identical sparsity sub-sequences.
    let cfg = SuiteConfig {
        epochs: 3,
        ..SuiteConfig::test()
    };
    let art = run_workload_full(WorkloadKind::ArgaCora, &cfg).unwrap();
    let series = &art.profile.sparsity_series;
    assert!(series.len() >= 6, "{} transfers", series.len());
    let per_epoch = series.len() / 3;
    for i in 0..per_epoch {
        assert!(
            (series[i] - series[i + per_epoch]).abs() < 1e-9,
            "transfer {i} differs across epochs"
        );
    }
}

mod resilience {
    //! Resilient-suite integration: injected faults are contained to their
    //! workload, the suite always completes, and checkpointed runs resume
    //! without re-training.

    use std::time::Duration;

    use gnnmark::resilience::{
        run_suite_resilient, Fault, FaultPlan, ResilienceConfig, WorkloadStatus,
    };
    use gnnmark::suite::SuiteConfig;
    use gnnmark::WorkloadKind;

    fn fast() -> ResilienceConfig {
        let mut r = ResilienceConfig::default();
        r.retry.backoff_base = Duration::ZERO;
        r
    }

    /// Asserts the report covers every workload, `faulted` has the expected
    /// status, and all others completed.
    fn assert_contained(
        report: &gnnmark::resilience::SuiteReport,
        faulted: WorkloadKind,
        expect: fn(&WorkloadStatus) -> bool,
    ) {
        assert_eq!(report.outcomes.len(), WorkloadKind::ALL.len());
        let mut completed = 0;
        for o in &report.outcomes {
            if o.kind == faulted {
                assert!(expect(&o.status), "{faulted:?}: {:?}", o.status);
            } else {
                assert!(
                    matches!(o.status, WorkloadStatus::Completed(_)),
                    "{:?} should be untouched, got {:?}",
                    o.kind,
                    o.status
                );
                completed += 1;
            }
        }
        assert_eq!(completed, WorkloadKind::ALL.len() - 1);
        assert_eq!(report.missing(), vec![faulted]);
    }

    #[test]
    fn injected_panic_leaves_other_workloads_completed() {
        let cfg = SuiteConfig::test();
        let rcfg = fast().with_faults(FaultPlan::none().inject("GW", Fault::Panic));
        let report = run_suite_resilient(&cfg, &rcfg);
        assert_contained(&report, WorkloadKind::Gw, |s| {
            matches!(s, WorkloadStatus::Panicked { .. })
        });
    }

    #[test]
    fn injected_nan_leaves_other_workloads_completed() {
        let cfg = SuiteConfig::test();
        let rcfg = fast().with_faults(FaultPlan::none().inject(
            "DGCN",
            Fault::NanLoss {
                epoch: 0,
                failures: usize::MAX,
            },
        ));
        let report = run_suite_resilient(&cfg, &rcfg);
        assert_contained(&report, WorkloadKind::Dgcn, |s| {
            matches!(s, WorkloadStatus::Failed { error }
                if matches!(error.root_cause(),
                    gnnmark_tensor::TensorError::NumericAnomaly { .. }))
        });
    }

    #[test]
    fn injected_stall_times_out_and_leaves_others_completed() {
        let cfg = SuiteConfig::test();
        let rcfg =
            fast()
                .with_timeout(Duration::from_secs(30))
                .with_faults(FaultPlan::none().inject(
                    "TLSTM",
                    Fault::Stall {
                        duration: Duration::from_secs(60),
                    },
                ));
        let report = run_suite_resilient(&cfg, &rcfg);
        assert_contained(&report, WorkloadKind::Tlstm, |s| {
            matches!(s, WorkloadStatus::TimedOut { .. })
        });
    }

    #[test]
    fn transient_fault_is_retried_and_suite_fully_succeeds() {
        let cfg = SuiteConfig::test();
        let rcfg = fast()
            .with_retries(1)
            .with_faults(FaultPlan::none().inject("ARGA", Fault::TransientError { failures: 1 }));
        let report = run_suite_resilient(&cfg, &rcfg);
        assert!(report.all_succeeded());
        let arga = report
            .outcomes
            .iter()
            .find(|o| o.kind == WorkloadKind::ArgaCora)
            .unwrap();
        assert_eq!(arga.attempts, 2);
        assert!(report.missing().is_empty());
    }

    #[test]
    fn checkpointed_run_resumes_without_retraining() {
        let dir = std::env::temp_dir().join(format!("gnnmark_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SuiteConfig::test();

        // First run is "interrupted": TLSTM panics, everything else
        // completes and is checkpointed.
        let rcfg = fast()
            .with_checkpoint_dir(&dir)
            .with_faults(FaultPlan::none().inject("TLSTM", Fault::Panic));
        let first = run_suite_resilient(&cfg, &rcfg);
        assert!(!first.all_succeeded());

        // Second run, fault cleared: completed workloads are restored from
        // checkpoint (attempts == 0, i.e. not re-trained); only TLSTM runs.
        let rcfg = fast().with_checkpoint_dir(&dir);
        let second = run_suite_resilient(&cfg, &rcfg);
        assert!(second.all_succeeded());
        for o in &second.outcomes {
            if o.kind == WorkloadKind::Tlstm {
                assert!(
                    matches!(o.status, WorkloadStatus::Completed(_)),
                    "{:?}",
                    o.status
                );
                assert_eq!(o.attempts, 1);
            } else {
                match &o.status {
                    WorkloadStatus::Restored(art) => {
                        assert_eq!(art.profile.name, o.kind.label());
                        assert_eq!(art.losses.len(), cfg.epochs);
                        assert_eq!(o.attempts, 0, "restored workloads never re-train");
                    }
                    other => panic!("{:?} not restored: {other:?}", o.kind),
                }
            }
        }

        // A different seed invalidates every checkpoint: nothing restores.
        let other_cfg = SuiteConfig {
            seed: cfg.seed + 1,
            ..cfg
        };
        let third = run_suite_resilient(&other_cfg, &fast().with_checkpoint_dir(&dir));
        assert!(third
            .outcomes
            .iter()
            .all(|o| matches!(o.status, WorkloadStatus::Completed(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_is_not_restored_across_training_modes() {
        let dir = std::env::temp_dir().join(format!("gnnmark_resume_mode_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rcfg = fast().with_checkpoint_dir(&dir);
        let full = run_suite_resilient(&SuiteConfig::test(), &rcfg);
        assert!(full.all_succeeded());

        // Same directory, other mode: the full-graph streams describe
        // different runs, so every workload trains.
        let minibatch =
            SuiteConfig::test().with_mode(gnnmark::TrainMode::Minibatch(Default::default()));
        let second = run_suite_resilient(&minibatch, &rcfg);
        for o in &second.outcomes {
            assert!(
                matches!(o.status, WorkloadStatus::Completed(_)),
                "{:?}: {:?}",
                o.kind,
                o.status
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restored_summary_matches_original_run() {
        // The checkpoint round-trip preserves the run exactly: the restored
        // artifacts' losses and modeled time equal the live run's.
        let dir = std::env::temp_dir().join(format!("gnnmark_roundtrip_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SuiteConfig::test();
        let rcfg = fast().with_checkpoint_dir(&dir);
        let live = run_suite_resilient(&cfg, &rcfg);
        let resumed = run_suite_resilient(&cfg, &rcfg);
        for (a, b) in live.outcomes.iter().zip(&resumed.outcomes) {
            let (WorkloadStatus::Completed(art), WorkloadStatus::Restored(restored)) =
                (&a.status, &b.status)
            else {
                panic!("{:?}: {:?} / {:?}", a.kind, a.status, b.status);
            };
            assert_eq!(art.losses, restored.losses, "{:?}", a.kind);
            assert_eq!(
                art.profile.total_time_ns().to_bits(),
                restored.profile.total_time_ns().to_bits(),
                "{:?}",
                a.kind
            );
            assert_eq!(art.steps_per_epoch, restored.steps_per_epoch);
            assert_eq!(art.grad_bytes, restored.grad_bytes);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn table_one_matches_workload_metadata() {
    let table = gnnmark_workloads::table_one();
    for kind in WorkloadKind::ALL {
        let w = kind.build(gnnmark::Scale::Test, 1).expect("builds");
        let info = w.info();
        assert!(
            table.iter().any(|r| r.abbrev == info.abbrev),
            "{} missing from Table I",
            info.abbrev
        );
        assert!(w.name().starts_with(info.abbrev) || info.abbrev.starts_with(&w.name()[..2]));
    }
}
