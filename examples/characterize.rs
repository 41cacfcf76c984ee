//! Characterize one workload like the paper does: run it under the
//! profiler and print every per-workload metric GNNMark reports —
//! operation breakdown, instruction mix, throughput, stalls, caches,
//! transfer sparsity — plus the projected multi-GPU scaling.
//!
//! ```text
//! cargo run --release --example characterize -- TLSTM
//! cargo run --release --example characterize -- DGCN
//! ```

use gnnmark::figures;
use gnnmark::suite::{run_workload_full, SuiteConfig};
use gnnmark::WorkloadKind;

fn main() -> gnnmark::Result<()> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "TLSTM".to_string());
    let kind = WorkloadKind::ALL
        .into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(&name))
        .unwrap_or_else(|| {
            eprintln!("unknown workload `{name}`; choose from:");
            for k in WorkloadKind::ALL {
                eprintln!("  {}", k.label());
            }
            std::process::exit(2);
        });

    let cfg = SuiteConfig::small();
    eprintln!("training + profiling {} …", kind.label());
    let art = run_workload_full(kind, &cfg)?;
    let profiles = [art.profile.clone()];

    println!("{}", figures::fig2_time_breakdown(&profiles));
    println!("{}", figures::fig3_instruction_mix(&profiles));
    println!("{}", figures::fig4_throughput(&profiles));
    println!("{}", figures::fig5_stalls(&profiles));
    println!("{}", figures::fig6_caches(&profiles));
    println!("{}", figures::fig7_sparsity(&profiles));
    println!("{}", figures::fig9_scaling(std::slice::from_ref(&art)));

    println!("top kernels by time:");
    for (name, launches, share) in art.profile.top_kernels(8) {
        println!(
            "  {name:<24} {launches:>6} launches  {:>5.1}%",
            share * 100.0
        );
    }

    // Kernel timeline for chrome://tracing or ui.perfetto.dev.
    let trace_path = format!("{}.trace.json", kind.label().to_lowercase());
    std::fs::write(&trace_path, gnnmark_profiler::to_chrome_trace(&art.profile))
        .expect("trace file is writable");
    println!();
    println!("kernel timeline written to {trace_path} (open in ui.perfetto.dev)");
    Ok(())
}
