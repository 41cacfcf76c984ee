//! Prints a workload's modeled work per kernel name: run one workload at a
//! chosen scale, then list each kernel's call count, modeled flops and
//! modeled DRAM bytes, sorted by flops, under the run's total wall-clock
//! and the model's construction time. It does not time kernels on the
//! host; EXPERIMENTS.md, "Host time by kernel", gives the method for that.
//!
//! ```text
//! cargo run --release --example op_hotspots [workload] [scale]
//! ```

use std::collections::HashMap;
use std::time::Instant;

use gnnmark::suite::{run_workload_full, SuiteConfig};
use gnnmark::{Scale, WorkloadKind};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "STGCN".to_string());
    let scale = args
        .next()
        .as_deref()
        .and_then(Scale::parse)
        .unwrap_or(Scale::Small);
    let kind = WorkloadKind::ALL
        .into_iter()
        .find(|k| format!("{k:?}").eq_ignore_ascii_case(&name))
        .unwrap_or(WorkloadKind::Stgcn);
    let cfg = SuiteConfig {
        scale,
        ..SuiteConfig::small()
    };
    let build_start = Instant::now();
    drop(kind.build(scale, cfg.seed).expect("workload builds"));
    let build = build_start.elapsed();
    let start = Instant::now();
    let run = run_workload_full(kind, &cfg).expect("workload runs");
    let wall = start.elapsed();
    println!("construction alone: {build:.2?}");

    // (count, flops, bytes) per kernel name.
    let mut agg: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for k in &run.profile.kernels {
        let e = agg.entry(k.kernel).or_default();
        e.0 += 1;
        e.1 += k.flops;
        e.2 += k.memory.dram_bytes;
    }
    let mut rows: Vec<_> = agg.into_iter().collect();
    rows.sort_by_key(|(_, (_, flops, _))| std::cmp::Reverse(*flops));
    println!(
        "{kind:?} @ {scale:?}: wall {wall:.2?}, {} kernels",
        run.profile.kernels.len()
    );
    println!(
        "{:<28} {:>8} {:>14} {:>14}",
        "kernel", "count", "flops", "dram bytes"
    );
    for (name, (count, flops, bytes)) in rows {
        println!("{name:<28} {count:>8} {flops:>14} {bytes:>14}");
    }
}
