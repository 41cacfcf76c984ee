//! The `gnnmark infer` subcommand: forward-only inference
//! characterization (see `docs/INFERENCE.md`).
//!
//! Runs every selected workload's forward under a `NoGradGuard`
//! ([`gnnmark::infer`]), asserts zero autograd tape allocations across
//! the whole run, prints the batch-1 latency / batched-throughput JSON,
//! and — unless `--no-figures` — trains the same workloads to render the
//! three measured inference-vs-training figures (operation mix,
//! instruction mix, cache behavior).

use gnnmark::infer::{
    infer_vs_train_cache_behavior, infer_vs_train_instruction_mix, infer_vs_train_op_mix,
    run_infer_workload, InferArtifacts, InferConfig,
};
use gnnmark::suite::{run_workload_full, SuiteConfig};
use gnnmark::WorkloadKind;

use crate::flags::parse_suite_args;

/// One workload's inference metrics as a JSON object body.
fn artifact_json(kind: WorkloadKind, art: &InferArtifacts) -> String {
    let ms = |q| art.batch1_percentile_ns(q) / 1e6;
    format!(
        "{{\"workload\":\"{}\",\"batch1\":{{\"requests\":{},\"mean_ms\":{:.6},\
         \"p50_ms\":{:.6},\"p95_ms\":{:.6},\"p99_ms\":{:.6},\"max_ms\":{:.6}}},\
         \"batched\":{{\"steps\":{},\"items_per_step\":{},\
         \"throughput_items_per_s\":{:.3}}},\"tape_nodes\":{}}}",
        kind.label(),
        art.batch1_latency_ns.len(),
        art.batch1_mean_ns() / 1e6,
        ms(0.50),
        ms(0.95),
        ms(0.99),
        ms(1.0),
        art.batched_step_ns.len(),
        art.batched_items,
        art.batched_throughput(),
        art.tape_nodes,
    )
}

/// A parsed `gnnmark infer` invocation.
#[derive(Debug, Clone)]
pub struct InferArgs {
    /// The suite configuration every selected workload runs under.
    pub suite: SuiteConfig,
    /// The workloads to run (`--target`; every workload by default).
    pub kinds: Vec<WorkloadKind>,
    /// Batch-1 latency requests per workload.
    pub requests: usize,
    /// Batched throughput steps per workload.
    pub batched_steps: usize,
    /// Whether to train the same workloads and render the
    /// inference-vs-training figures.
    pub figures: bool,
    /// Where to write the JSON document.
    pub out_file: Option<String>,
    /// Where to write the figures' CSVs.
    pub csv_dir: Option<String>,
}

/// Parses the `gnnmark infer` flag set.
///
/// # Errors
/// A human-readable message naming the offending flag.
pub fn parse_infer_args(argv: impl IntoIterator<Item = String>) -> Result<InferArgs, String> {
    let mut targets: Option<String> = None;
    let mut args = InferArgs {
        suite: SuiteConfig::small(),
        kinds: WorkloadKind::ALL.to_vec(),
        requests: 32,
        batched_steps: 8,
        figures: true,
        out_file: None,
        csv_dir: None,
    };
    args.suite = parse_suite_args(argv, args.suite.clone(), |flag, f| {
        match flag {
            "--target" => targets = Some(f.value(flag)?),
            "--requests" => args.requests = f.count(flag)?,
            "--batched-steps" => args.batched_steps = f.count(flag)?,
            "--no-figures" => args.figures = false,
            "--out" => args.out_file = Some(f.value(flag)?),
            "--csv" => args.csv_dir = Some(f.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if let Some(list) = targets.filter(|t| t != "all") {
        args.kinds = list
            .split(',')
            .map(|label| {
                WorkloadKind::parse(label.trim())
                    .ok_or_else(|| format!("unknown workload `{label}`"))
            })
            .collect::<Result<_, _>>()?;
    }
    Ok(args)
}

/// Runs `gnnmark infer`; returns the process exit code.
pub fn run_infer(args: &InferArgs) -> i32 {
    let (suite, kinds) = (&args.suite, &args.kinds);
    let mut cfg = InferConfig::new(suite.clone());
    cfg.batch1_steps = args.requests;
    cfg.batched_steps = args.batched_steps;

    let started = std::time::Instant::now();
    let mut rows = Vec::with_capacity(kinds.len());
    let mut artifacts = Vec::with_capacity(kinds.len());
    for &kind in kinds {
        match run_infer_workload(kind, &cfg) {
            Ok(art) => {
                rows.push(artifact_json(kind, &art));
                artifacts.push((kind, art));
            }
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    }
    // The zero-tape assertion of the acceptance gate: a pure-inference
    // process must never have recorded an autograd node — a workload whose
    // `infer` forgot its `NoGradGuard` would tape its forward and still
    // return the right loss; this is where that shows.
    let tape_nodes: u64 = artifacts.iter().map(|(_, a)| a.tape_nodes).sum();
    if tape_nodes != 0 {
        eprintln!("error: inference run recorded {tape_nodes} autograd tape node(s)");
        return 1;
    }
    let json = format!(
        "{{\"kind\":\"infer\",\"scale\":\"{}\",\"mode\":\"{}\",\"precision\":\"{}\",\
         \"seed\":{},\"tape_nodes\":{tape_nodes},\"workloads\":[{}]}}",
        suite.scale.label(),
        suite.mode.key(),
        suite.precision.as_str(),
        suite.seed,
        rows.join(","),
    );
    println!("{json}");
    if let Some(path) = &args.out_file {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error writing {path}: {e}");
            return 1;
        }
        eprintln!("wrote {path}");
    }

    if args.figures {
        // The measured inference-vs-training contrast (paper §V-A): train
        // the same workloads under the same config and put the two
        // profile populations side by side.
        let mut train_profiles = Vec::with_capacity(artifacts.len());
        for &(kind, _) in &artifacts {
            match run_workload_full(kind, suite) {
                Ok(art) => train_profiles.push(art.profile),
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            }
        }
        let infer_profiles: Vec<_> = artifacts.iter().map(|(_, a)| a.profile.clone()).collect();
        let tables = vec![
            infer_vs_train_op_mix(&infer_profiles, &train_profiles),
            infer_vs_train_instruction_mix(&infer_profiles, &train_profiles),
            infer_vs_train_cache_behavior(&infer_profiles, &train_profiles),
        ];
        if let Err(e) = crate::emit(&tables, args.csv_dir.as_deref()) {
            eprintln!("error writing CSVs: {e}");
            return 1;
        }
    }
    eprintln!(
        "infer: {} workload(s), 0 tape nodes, in {:.1}s",
        kinds.len(),
        started.elapsed().as_secs_f64()
    );
    0
}
