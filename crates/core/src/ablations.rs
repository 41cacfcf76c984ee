//! Ablation studies beyond the paper's figures, covering the design
//! discussions in its takeaways: L1 capacity (cache-bypass discussion),
//! feature width (the MVL→NWP 10× observation, swept continuously),
//! interconnect bandwidth (scaling), and half-precision training (the
//! paper's future-work proposal).
//!
//! A device what-if trains nothing: it replays one captured run (see
//! [`crate::suite::run_workload_captured`]) on each device variant. The
//! default-configuration tables read the suite's own runs.

use gnnmark_autograd::{Adam, Optimizer, Tape};
use gnnmark_gpusim::stream::CapturedRun;
use gnnmark_gpusim::{DdpModel, DeviceSpec, ScalingBehavior};
use gnnmark_graph::datasets::recommendation_with_width;
use gnnmark_nn::{Module, PinSageConv};
use gnnmark_profiler::{FigureCategory, ProfileSession, Table};
use gnnmark_tensor::IntTensor;
use gnnmark_workloads::WorkloadKind;

use crate::figures::{append_missing_rows, pct};
use crate::suite::{artifacts_from_replay, run_workload_full, RunArtifacts, SuiteConfig};
use crate::Result;

/// The artifacts a live run of `cfg` on `device` would produce, replayed
/// from `run`, a capture of `cfg`'s training. The replay device is the one
/// that live run would model, so a reduced precision halves its elements.
fn replay_on(run: &CapturedRun, cfg: &SuiteConfig, device: DeviceSpec) -> RunArtifacts {
    artifacts_from_replay(run, &cfg.clone().with_device(device).modeled_device())
}

/// The suite run of `kind` among `runs`, if it has one.
fn suite_run(runs: &[RunArtifacts], kind: WorkloadKind) -> Option<&RunArtifacts> {
    runs.iter().find(|r| r.profile.name == kind.label())
}

/// Sweeps L1 capacity for the workload `run` captured under `cfg`,
/// reporting hit rate and epoch time.
///
/// The paper's takeaway: GNN training's L1 hit rates are so low that
/// larger L1s (or bypassing) are worth exploring.
pub fn ablation_l1_size(run: &CapturedRun, cfg: &SuiteConfig) -> Table {
    let mut t = Table::new(format!(
        "Ablation — L1 capacity sweep ({})",
        run.meta.workload
    ));
    t.header([
        "L1 size (KB)",
        "L1 hit (%)",
        "L2 hit (%)",
        "Epoch time (ms)",
    ]);
    for kb in [32u64, 64, 128, 256, 512] {
        let p = replay_on(run, cfg, cfg.device.clone().with_l1_bytes(kb * 1024)).profile;
        t.row([
            kb.to_string(),
            pct(p.l1_hit_rate()),
            pct(p.l2_hit_rate()),
            format!("{:.2}", p.total_time_ns() / 1e6),
        ]);
    }
    t
}

/// Sweeps PSAGE-style item feature width, reporting the element-wise time
/// share — the continuous version of the paper's MVL (36 %) → NWP (78 %)
/// observation.
///
/// # Errors
/// Propagates training failures.
pub fn ablation_feature_width(cfg: &SuiteConfig) -> Result<Table> {
    let seed = cfg.seed;
    let mut t = Table::new("Ablation — Element-wise share vs item feature width (PSAGE-style)");
    t.header(["Feature width", "ElemWise (%)", "GEMM (%)", "Sort (%)"]);
    for width in [32usize, 64, 128, 256, 640] {
        let data = recommendation_with_width(width, 0.5, seed)?;
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let conv = PinSageConv::new("ablate", width, 32, &mut rng)?;
        let sampler = gnnmark_graph::sampler::RandomWalkSampler::new(16, 3, 6);
        let mut opt = Adam::new(1e-3);
        let mut session = ProfileSession::new("psage-width", cfg.device.clone());
        let n_items = data.num_nodes();
        for _ in 0..4 {
            let seeds: Vec<i64> = (0..64).map(|i| (i * 5 % n_items) as i64).collect();
            let seeds = IntTensor::from_vec(&[64], seeds)?;
            let hoods = sampler.sample(&data, &seeds, &mut rng);
            let (agg, agg_t, idx) = PinSageConv::build_batch(&hoods, n_items)?;
            conv.params().zero_grad();
            session.begin_step();
            // Sampler bookkeeping sort, as in the full workload.
            let mut ids: Vec<i64> = hoods.iter().flat_map(|h| h.neighbors.clone()).collect();
            ids.extend(seeds.as_slice());
            let ids_len = ids.len();
            let _ = IntTensor::from_vec(&[ids_len], ids)?.argsort()?;
            let tape = Tape::new();
            let feats = tape.constant(data.features().clone());
            let feats = feats.dropout(0.1, &mut rng)?;
            let norm = feats.square().sum_rows()?.add_scalar(1e-12).sqrt().recip();
            let feats = feats.scale_rows(&norm)?;
            let emb = conv.forward(&tape, &feats, &agg, &agg_t, &idx)?;
            let loss = emb.square().mean_all();
            tape.backward(&loss)?;
            opt.step(&conv.params())?;
            session.end_step();
        }
        let p = session.finish();
        t.row([
            width.to_string(),
            pct(p.time_share(FigureCategory::ElementWise)),
            pct(p.time_share(FigureCategory::Gemm)),
            pct(p.time_share(FigureCategory::Sort)),
        ]);
    }
    Ok(t)
}

/// Sweeps NVLink bandwidth, reporting 4-GPU speedup of the data-parallel
/// workload `run` captured under `cfg` — how much the paper's scaling
/// results owe to the fast interconnect.
pub fn ablation_nvlink_bandwidth(run: &CapturedRun, cfg: &SuiteConfig) -> Table {
    let mut t = Table::new(format!(
        "Ablation — 4-GPU speedup vs interconnect bandwidth ({})",
        run.meta.workload
    ));
    t.header(["Link bandwidth (GB/s)", "4-GPU speedup (×)"]);
    let art = replay_on(run, cfg, cfg.device.clone());
    let epochs = art.losses.len().max(1) as f64;
    let epoch_ns = art.profile.total_time_ns() / epochs;
    let behavior = art.scaling.unwrap_or(ScalingBehavior::DataParallel);
    for gbps in [12.0f64, 50.0, 100.0, 300.0, 600.0] {
        let ddp = DdpModel::new(cfg.device.clone().with_nvlink_gbps(gbps));
        let s = ddp.speedup(epoch_ns, art.steps_per_epoch, art.grad_bytes, behavior, 4);
        t.row([format!("{gbps:.0}"), format!("{s:.2}")]);
    }
    t
}

/// Compares fp32 against *measured* f16/bf16 mixed-precision training (the
/// paper's future-work direction): parameters and activations stored at
/// 16 bits with dynamic loss scaling, the forward computed in f32. Under
/// fp32 the legacy modeled row (fp32 numerics on a 2-byte-element device)
/// is kept last for comparison against the measured runs; under a 16-bit
/// `cfg` that row would replay the measured row's run on the same device,
/// so it is left out.
///
/// `run` is a capture of `kind` under `cfg`: the row of `cfg`'s precision
/// and the modeled row replay it, the other precisions train.
///
/// # Errors
/// Propagates workload failures.
pub fn ablation_half_precision(
    kind: WorkloadKind,
    run: &CapturedRun,
    cfg: &SuiteConfig,
) -> Result<Table> {
    use gnnmark_tensor::half::Precision;

    let mut t = Table::new(format!(
        "Ablation — fp32 vs fp16/bf16 storage ({})",
        kind.label()
    ));
    t.header([
        "Precision",
        "Epoch time (ms)",
        "L1 hit (%)",
        "DRAM GB moved",
        "Param KB",
        "Final loss",
    ]);
    let mut measured = |name: &str, art: &crate::suite::RunArtifacts| {
        let p = &art.profile;
        let dram: u64 = p.kernels.iter().map(|k| k.memory.dram_bytes).sum();
        t.row([
            name.to_string(),
            format!("{:.2}", p.total_time_ns() / 1e6),
            pct(p.l1_hit_rate()),
            format!("{:.3}", dram as f64 / 1e9),
            format!("{:.1}", art.grad_bytes as f64 / 1024.0),
            format!("{:.4}", art.losses.last().copied().unwrap_or(f64::NAN)),
        ]);
    };
    for precision in [Precision::Fp32, Precision::Fp16, Precision::Bf16] {
        let art = if precision == cfg.precision {
            replay_on(run, cfg, cfg.device.clone())
        } else {
            run_workload_full(kind, &cfg.clone().with_precision(precision))?
        };
        measured(precision.as_str(), &art);
    }
    if cfg.precision == Precision::Fp32 {
        let art = replay_on(run, cfg, cfg.device.clone().with_half_precision());
        measured("fp16 (modeled)", &art);
    }
    Ok(t)
}

/// Compares GNN *inference* against *training* on the same GCN model —
/// the paper's §V-A observation that inference is GEMM-dominated (prior
/// work measured >50 %) while training is not, because backward passes
/// and optimizers add irregular and element-wise kernels.
///
/// Both arms run the same [`gnnmark_nn::GcnConv::forward`]. The inference
/// arm is *measured*, not modeled: it enters that forward under a
/// [`gnnmark_autograd::NoGradGuard`], so nothing is taped and the session
/// records exactly the kernels a forward-only deployment executes.
///
/// # Errors
/// Propagates training failures.
pub fn ablation_inference_vs_training(cfg: &SuiteConfig) -> Result<Table> {
    use gnnmark_graph::datasets::{citation, CitationKind};
    use gnnmark_nn::gcn::NormAdj;
    use gnnmark_nn::{losses, GcnConv};

    let seed = cfg.seed;
    let graph = citation(CitationKind::Cora, 0.25, seed)?;
    let labels = graph.labels().expect("labels").clone();
    let adj = NormAdj::new_symmetric(graph.normalized_adjacency()?);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let conv1 = GcnConv::new("inf.gcn1", graph.feature_dim(), 32, &mut rng)?;
    let conv2 = GcnConv::new("inf.gcn2", 32, 7, &mut rng)?;
    let mut params = conv1.params();
    params.extend(&conv2.params());
    let mut opt = Adam::new(5e-3);

    let infer = {
        let _guard = gnnmark_autograd::NoGradGuard::new();
        let mut session = ProfileSession::new("gcn-infer", cfg.device.clone());
        for _ in 0..4 {
            session.begin_step();
            let tape = Tape::new();
            let x = tape.constant(graph.features().clone());
            let h = conv1.forward(&tape, &adj, &x)?.relu();
            let logits = conv2.forward(&tape, &adj, &h)?;
            let _ = logits.value().argmax_rows()?;
            session.end_step();
        }
        session.finish()
    };
    let train = {
        let mut session = ProfileSession::new("gcn-train", cfg.device.clone());
        for _ in 0..4 {
            params.zero_grad();
            session.begin_step();
            let tape = Tape::new();
            let x = tape.constant(graph.features().clone());
            let h = conv1.forward(&tape, &adj, &x)?.relu();
            let logits = conv2.forward(&tape, &adj, &h)?;
            let loss = losses::cross_entropy(&logits, &labels)?;
            tape.backward(&loss)?;
            opt.step(&params)?;
            session.end_step();
        }
        session.finish()
    };
    let mut t = Table::new("Ablation — Inference vs training operation mix (2-layer GCN)");
    t.header([
        "Phase",
        "GEMM+SpMM (%)",
        "ElemWise (%)",
        "Irregular (%)",
        "Kernels",
    ]);
    for p in [&infer, &train] {
        let matmul = p.time_share(FigureCategory::Gemm) + p.time_share(FigureCategory::Spmm);
        let irregular = p.time_share(FigureCategory::Scatter)
            + p.time_share(FigureCategory::Gather)
            + p.time_share(FigureCategory::Reduction)
            + p.time_share(FigureCategory::IndexSelect)
            + p.time_share(FigureCategory::Sort);
        t.row([
            p.name.clone(),
            pct(matmul),
            pct(p.time_share(FigureCategory::ElementWise)),
            pct(irregular),
            p.kernels.len().to_string(),
        ]);
    }
    Ok(t)
}

/// Weak-scaling projection (the paper's future-work direction): per-GPU
/// work held constant while GPUs are added; reports efficiency per
/// workload on 1/2/4 GPUs, from the suite's `runs` under `cfg`. A listed
/// workload the suite lacks renders as a `—` row.
pub fn ablation_weak_scaling(runs: &[RunArtifacts], cfg: &SuiteConfig) -> Table {
    let mut t = Table::new("Ablation — Weak-scaling efficiency (constant per-GPU work)");
    t.header(["Workload", "2 GPUs", "4 GPUs"]);
    for kind in [
        WorkloadKind::Dgcn,
        WorkloadKind::Stgcn,
        WorkloadKind::Tlstm,
        WorkloadKind::PsageMvl,
    ] {
        let Some(art) = suite_run(runs, kind) else {
            append_missing_rows(&mut t, &[kind]);
            continue;
        };
        let Some(behavior) = art.scaling else {
            continue;
        };
        let ddp = DdpModel::new(cfg.device.clone());
        let epoch_ns = art.profile.total_time_ns() / art.losses.len().max(1) as f64;
        let e2 = ddp.weak_efficiency(epoch_ns, art.steps_per_epoch, art.grad_bytes, behavior, 2);
        let e4 = ddp.weak_efficiency(epoch_ns, art.steps_per_epoch, art.grad_bytes, behavior, 4);
        t.row([
            kind.label().to_string(),
            format!("{:.0}%", e2 * 100.0),
            format!("{:.0}%", e4 * 100.0),
        ]);
    }
    t
}

/// Profiles ARGA across its three citation datasets — the paper's
/// takeaway that *"a single GNN model can exhibit different
/// characteristics based on the input graph"*, and Table I's listing of
/// Cora/CiteSeer/PubMed for ARGA.
///
/// # Errors
/// Propagates training failures.
pub fn ablation_arga_datasets(cfg: &SuiteConfig) -> Result<Table> {
    use gnnmark_graph::datasets::CitationKind;
    use gnnmark_workloads::arga::Arga;
    use gnnmark_workloads::Workload;

    let mut t = Table::new("Ablation — ARGA across citation datasets");
    t.header([
        "Dataset",
        "Nodes",
        "Feat width",
        "GEMM (%)",
        "SpMM (%)",
        "Reduction (%)",
        "H2D sparsity (%)",
    ]);
    for kind in [
        CitationKind::Cora,
        CitationKind::CiteSeer,
        CitationKind::PubMed,
    ] {
        let mut w = Arga::new(kind, cfg.scale, cfg.seed)?;
        let nodes = w.graph().num_nodes();
        let width = w.graph().feature_dim();
        let mut session = ProfileSession::new(w.name(), cfg.device.clone());
        for _ in 0..cfg.epochs {
            w.run_epoch(&mut session)?;
        }
        let p = session.finish();
        t.row([
            kind.name().to_string(),
            nodes.to_string(),
            width.to_string(),
            pct(p.time_share(FigureCategory::Gemm)),
            pct(p.time_share(FigureCategory::Spmm)),
            pct(p.time_share(FigureCategory::Reduction)),
            pct(p.mean_sparsity),
        ]);
    }
    Ok(t)
}

/// Models the paper's headline proposal (§V-D and future work): compress
/// CPU→GPU transfers using the measured zero-value sparsity, and report
/// the payload reduction per workload of the suite's `runs`. A listed
/// workload the suite lacks renders as a `—` row.
pub fn ablation_sparsity_compression(runs: &[RunArtifacts]) -> Table {
    let mut t = Table::new("Ablation — Zero-value compression of H2D transfers");
    t.header([
        "Workload",
        "Sparsity (%)",
        "H2D (KB)",
        "Compressed (KB)",
        "Saved (%)",
    ]);
    for kind in [
        WorkloadKind::PsageMvl,
        WorkloadKind::Stgcn,
        WorkloadKind::Dgcn,
        WorkloadKind::Gw,
        WorkloadKind::ArgaCora,
        WorkloadKind::Tlstm,
    ] {
        let Some(art) = suite_run(runs, kind) else {
            append_missing_rows(&mut t, &[kind]);
            continue;
        };
        let p = &art.profile;
        t.row([
            kind.label().to_string(),
            pct(p.mean_sparsity),
            format!("{:.0}", p.h2d_bytes as f64 / 1024.0),
            format!("{:.0}", p.h2d_compressed_bytes as f64 / 1024.0),
            pct(p.compression_savings()),
        ]);
    }
    t
}

/// Cross-device study: the workload `run` captured under `cfg` on its
/// modeled device (a V100) vs an A100 — does a newer GPU's extra
/// bandwidth, L2 and SM count move GNN training, given the paper's finding
/// that these workloads barely utilize the V100?
pub fn ablation_device_comparison(run: &CapturedRun, cfg: &SuiteConfig) -> Table {
    let mut t = Table::new(format!("Ablation — V100 vs A100 ({})", run.meta.workload));
    t.header(["Device", "Epoch (ms)", "GFLOPS", "L1 hit (%)", "L2 hit (%)"]);
    for device in [cfg.device.clone(), DeviceSpec::a100()] {
        let art = replay_on(run, cfg, device);
        let p = &art.profile;
        t.row([
            p.spec.name.clone(),
            format!(
                "{:.2}",
                p.total_time_ns() / art.losses.len().max(1) as f64 / 1e6
            ),
            format!("{:.0}", p.gflops()),
            pct(p.l1_hit_rate()),
            pct(p.l2_hit_rate()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::run_workload_captured;
    use gnnmark_tensor::half::Precision;

    fn captured(kind: WorkloadKind, cfg: &SuiteConfig) -> CapturedRun {
        run_workload_captured(kind, cfg).unwrap().1
    }

    /// The reference the replayed device ablations must equal: one live
    /// training per device, as the ablations ran before they replayed.
    mod trained {
        use super::*;

        fn on(kind: WorkloadKind, cfg: &SuiteConfig, device: DeviceSpec) -> RunArtifacts {
            run_workload_full(kind, &cfg.clone().with_device(device)).unwrap()
        }

        pub fn l1_size(kind: WorkloadKind, cfg: &SuiteConfig) -> Table {
            let mut t = Table::new(format!("Ablation — L1 capacity sweep ({})", kind.label()));
            t.header([
                "L1 size (KB)",
                "L1 hit (%)",
                "L2 hit (%)",
                "Epoch time (ms)",
            ]);
            for kb in [32u64, 64, 128, 256, 512] {
                let p = on(kind, cfg, DeviceSpec::v100().with_l1_bytes(kb * 1024)).profile;
                t.row([
                    kb.to_string(),
                    pct(p.l1_hit_rate()),
                    pct(p.l2_hit_rate()),
                    format!("{:.2}", p.total_time_ns() / 1e6),
                ]);
            }
            t
        }

        pub fn device_comparison(kind: WorkloadKind, cfg: &SuiteConfig) -> Table {
            let mut t = Table::new(format!("Ablation — V100 vs A100 ({})", kind.label()));
            t.header(["Device", "Epoch (ms)", "GFLOPS", "L1 hit (%)", "L2 hit (%)"]);
            for device in [DeviceSpec::v100(), DeviceSpec::a100()] {
                let art = on(kind, cfg, device);
                let p = &art.profile;
                t.row([
                    p.spec.name.clone(),
                    format!(
                        "{:.2}",
                        p.total_time_ns() / art.losses.len().max(1) as f64 / 1e6
                    ),
                    format!("{:.0}", p.gflops()),
                    pct(p.l1_hit_rate()),
                    pct(p.l2_hit_rate()),
                ]);
            }
            t
        }

        pub fn half_precision(kind: WorkloadKind, cfg: &SuiteConfig) -> Table {
            let mut t = Table::new(format!(
                "Ablation — fp32 vs fp16/bf16 storage ({})",
                kind.label()
            ));
            t.header([
                "Precision",
                "Epoch time (ms)",
                "L1 hit (%)",
                "DRAM GB moved",
                "Param KB",
                "Final loss",
            ]);
            let mut measured = |name: &str, art: RunArtifacts| {
                let p = &art.profile;
                let dram: u64 = p.kernels.iter().map(|k| k.memory.dram_bytes).sum();
                t.row([
                    name.to_string(),
                    format!("{:.2}", p.total_time_ns() / 1e6),
                    pct(p.l1_hit_rate()),
                    format!("{:.3}", dram as f64 / 1e9),
                    format!("{:.1}", art.grad_bytes as f64 / 1024.0),
                    format!("{:.4}", art.losses.last().copied().unwrap_or(f64::NAN)),
                ]);
            };
            for precision in [Precision::Fp32, Precision::Fp16, Precision::Bf16] {
                let cfg = cfg.clone().with_precision(precision);
                measured(precision.as_str(), on(kind, &cfg, DeviceSpec::v100()));
            }
            if cfg.precision == Precision::Fp32 {
                measured(
                    "fp16 (modeled)",
                    on(kind, cfg, DeviceSpec::v100().with_half_precision()),
                );
            }
            t
        }
    }

    fn replays_equal_one_training_per_device(precision: Precision) {
        let cfg = SuiteConfig::test().with_precision(precision);
        let arga = captured(WorkloadKind::ArgaCora, &cfg);
        let dgcn = captured(WorkloadKind::Dgcn, &cfg);
        let half = ablation_half_precision(WorkloadKind::ArgaCora, &arga, &cfg).unwrap();
        // Under fp16 or bf16 the modeled row would repeat a measured row.
        assert_eq!(
            half.to_string().contains("fp16 (modeled)"),
            precision == Precision::Fp32,
            "{precision:?}"
        );
        for (replayed, reference) in [
            (
                ablation_l1_size(&arga, &cfg),
                trained::l1_size(WorkloadKind::ArgaCora, &cfg),
            ),
            (
                ablation_device_comparison(&dgcn, &cfg),
                trained::device_comparison(WorkloadKind::Dgcn, &cfg),
            ),
            (half, trained::half_precision(WorkloadKind::ArgaCora, &cfg)),
        ] {
            assert_eq!(replayed.to_string(), reference.to_string(), "{precision:?}");
        }
    }

    #[test]
    fn replayed_device_ablations_equal_one_training_per_device() {
        replays_equal_one_training_per_device(Precision::Fp32);
    }

    #[test]
    fn replayed_device_ablations_equal_one_training_per_device_at_fp16() {
        replays_equal_one_training_per_device(Precision::Fp16);
    }

    #[test]
    fn replayed_device_ablations_equal_one_training_per_device_at_bf16() {
        replays_equal_one_training_per_device(Precision::Bf16);
    }

    #[test]
    fn l1_sweep_produces_monotone_hit_rates() {
        let cfg = SuiteConfig::test();
        let t = ablation_l1_size(&captured(WorkloadKind::Tlstm, &cfg), &cfg);
        assert_eq!(t.num_rows(), 5);
    }

    #[test]
    fn feature_width_sweep_raises_elementwise_share() {
        let t = ablation_feature_width(&SuiteConfig {
            seed: 3,
            ..SuiteConfig::test()
        })
        .unwrap();
        assert_eq!(t.num_rows(), 5);
        // Parse first and last ElemWise share from CSV.
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let share = |row: &str| -> f64 { row.split(',').nth(1).unwrap().parse().unwrap() };
        // Compare the paper's MVL/NWP pair: width 64 vs width 640.
        assert!(
            share(rows[4]) > share(rows[1]),
            "wider features must raise element-wise share: {csv}"
        );
    }

    #[test]
    fn nvlink_sweep_is_monotone() {
        let cfg = SuiteConfig::test();
        let t = ablation_nvlink_bandwidth(&captured(WorkloadKind::Dgcn, &cfg), &cfg);
        let csv = t.to_csv();
        let speedups: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|r| r.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(speedups.windows(2).all(|w| w[1] >= w[0] - 1e-9), "{csv}");
    }

    #[test]
    fn half_precision_helps() {
        let cfg = SuiteConfig::test();
        let arga = captured(WorkloadKind::ArgaCora, &cfg);
        let t = ablation_half_precision(WorkloadKind::ArgaCora, &arga, &cfg).unwrap();
        assert_eq!(t.num_rows(), 4, "fp32, fp16, bf16 measured + modeled row");
        let csv = t.to_csv();
        let col = |row: &str, i: usize| -> f64 { row.split(',').nth(i).unwrap().parse().unwrap() };
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        // Modeled epoch time at the tiny scale is latency- rather than
        // bandwidth-dominated, so only guard against a real slowdown...
        let times: Vec<f64> = rows.iter().map(|r| col(r, 1)).collect();
        assert!(times[1] <= times[0] * 1.15, "fp16 markedly slower: {csv}");
        // ...but the DRAM traffic reduction is unconditional...
        let dram: Vec<f64> = rows.iter().map(|r| col(r, 3)).collect();
        assert!(dram[1] < dram[0], "fp16 must move less DRAM: {csv}");
        // ...and measured 16-bit storage must halve the parameter payload...
        let params: Vec<f64> = rows.iter().map(|r| col(r, 4)).collect();
        assert!(
            (params[1] - params[0] / 2.0).abs() < 1e-6,
            "fp16 params should be half of fp32: {csv}"
        );
        assert!((params[2] - params[1]).abs() < 1e-6, "bf16 == fp16 bytes");
        // ...while training still converges to a finite loss in every mode.
        for r in &rows {
            assert!(col(r, 5).is_finite(), "non-finite final loss: {csv}");
        }
    }

    #[test]
    fn inference_is_more_matmul_dominated_than_training() {
        let t = ablation_inference_vs_training(&SuiteConfig {
            seed: 5,
            ..SuiteConfig::test()
        })
        .unwrap();
        let csv = t.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        let matmul = |row: &str| -> f64 { row.split(',').nth(1).unwrap().parse().unwrap() };
        assert!(
            matmul(rows[0]) > matmul(rows[1]),
            "inference must be more GEMM/SpMM dominated: {csv}"
        );
    }

    #[test]
    fn weak_scaling_table_renders() {
        let cfg = SuiteConfig::test();
        let runs: Vec<RunArtifacts> =
            [WorkloadKind::Dgcn, WorkloadKind::Stgcn, WorkloadKind::Tlstm]
                .into_iter()
                .map(|kind| run_workload_full(kind, &cfg).unwrap())
                .collect();
        let t = ablation_weak_scaling(&runs, &cfg);
        assert_eq!(t.num_rows(), 4, "three runs and a `—` row for PSAGE-MVL");
        let csv = t.to_csv();
        assert!(csv.contains("TLSTM"), "{csv}");
        assert!(
            csv.ends_with(&format!(
                "PSAGE-MVL,{0},{0}\n",
                crate::figures::MISSING_MARKER
            )),
            "{csv}"
        );
    }

    #[test]
    fn arga_dataset_ablation_covers_three_graphs() {
        let t = ablation_arga_datasets(&SuiteConfig::test()).unwrap();
        assert_eq!(t.num_rows(), 3);
        let txt = t.to_string();
        assert!(txt.contains("Cora") && txt.contains("CiteSeer") && txt.contains("PubMed"));
    }

    #[test]
    fn compression_savings_track_sparsity() {
        let cfg = SuiteConfig::test();
        let arga = run_workload_full(WorkloadKind::ArgaCora, &cfg).unwrap();
        let stgcn = run_workload_full(WorkloadKind::Stgcn, &cfg).unwrap();
        // ARGA ships near-empty bag-of-words features; STGCN ships dense
        // traffic signals — compression must separate them sharply.
        assert!(
            arga.profile.compression_savings() > 0.7,
            "ARGA savings {}",
            arga.profile.compression_savings()
        );
        assert!(
            stgcn.profile.compression_savings() < 0.2,
            "STGCN savings {}",
            stgcn.profile.compression_savings()
        );
        // The four listed workloads these runs lack render as `—` rows.
        let t = ablation_sparsity_compression(&[arga, stgcn]);
        assert_eq!(t.num_rows(), 6);
        let missing = t
            .to_csv()
            .lines()
            .filter(|r| r.ends_with(crate::figures::MISSING_MARKER))
            .count();
        assert_eq!(missing, 4, "{t}");
    }

    #[test]
    fn a100_is_not_slower_than_v100() {
        let cfg = SuiteConfig::test();
        let t = ablation_device_comparison(&captured(WorkloadKind::ArgaCora, &cfg), &cfg);
        let csv = t.to_csv();
        // Device names contain commas (quoted in CSV); index from the right.
        let times: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|r| r.rsplit(',').nth(3).unwrap().parse().unwrap())
            .collect();
        assert!(
            times[1] <= times[0] * 1.02,
            "A100 {} vs V100 {}",
            times[1],
            times[0]
        );
    }
}
