//! Project multi-GPU DDP scaling for the suite (the paper's Figure 9
//! methodology): profile each workload on one modeled V100, then project
//! 2- and 4-GPU epoch times through the ring-all-reduce DDP model —
//! including PSAGE's sampler-replication pathology and TLSTM's host
//! bottleneck.
//!
//! ```text
//! cargo run --release --example multi_gpu_scaling
//! ```

use gnnmark::suite::{run_workload_full, SuiteConfig};
use gnnmark::WorkloadKind;
use gnnmark_gpusim::{DdpModel, DeviceSpec};

fn main() -> gnnmark::Result<()> {
    let cfg = SuiteConfig::test(); // keep the demo fast; use small()/paper() for figures
    let ddp = DdpModel::new(DeviceSpec::v100());
    println!(
        "{:<11} {:>12} {:>8} {:>8}  behavior",
        "workload", "1-GPU (ms)", "2 GPUs", "4 GPUs"
    );
    for kind in [
        WorkloadKind::Dgcn,
        WorkloadKind::Stgcn,
        WorkloadKind::Gw,
        WorkloadKind::KgnnL,
        WorkloadKind::Tlstm,
        WorkloadKind::PsageMvl,
        WorkloadKind::ArgaCora,
    ] {
        let art = run_workload_full(kind, &cfg)?;
        let epoch_ns = art.profile.total_time_ns() / art.losses.len().max(1) as f64;
        match art.scaling {
            None => {
                println!(
                    "{:<11} {:>12.2} {:>8} {:>8}  excluded (full-graph, as in the paper)",
                    kind.label(),
                    epoch_ns / 1e6,
                    "-",
                    "-"
                );
            }
            Some(behavior) => {
                let s2 = ddp.speedup(epoch_ns, art.steps_per_epoch, art.grad_bytes, behavior, 2);
                let s4 = ddp.speedup(epoch_ns, art.steps_per_epoch, art.grad_bytes, behavior, 4);
                println!(
                    "{:<11} {:>12.2} {:>7.2}× {:>7.2}×  {:?}",
                    kind.label(),
                    epoch_ns / 1e6,
                    s2,
                    s4,
                    behavior
                );
            }
        }
    }
    println!();
    println!("takeaway (paper §V-E): compute-rich models scale; TLSTM stays flat;");
    println!("PSAGE degrades because DDP replicates its sampled data; ARGA is excluded.");
    Ok(())
}
