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
use gnnmark::suite::{run_workload, SuiteConfig};
use gnnmark::{Scale, WorkloadKind};

const USAGE: &str = "usage: gnnmark infer [--target LABEL|all] \
[--scale tiny|test|small|paper] [--seed S] [--epochs N] [--threads N] \
[--precision fp32|fp16|bf16] [--mode fullgraph|minibatch] [--batch-size N] \
[--fanout F1,F2,...] [--requests N] [--batched-steps N] [--no-figures] \
[--out FILE] [--csv DIR]";

fn usage_err(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    2
}

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

/// Entry point of `gnnmark infer`; returns the process exit code.
#[allow(clippy::too_many_lines)]
pub fn run_infer_cli(mut args: std::env::Args) -> i32 {
    let mut suite = SuiteConfig::small();
    let mut targets: Option<String> = None;
    let mut requests: usize = 32;
    let mut batched_steps: usize = 8;
    let mut figures = true;
    let mut out_file: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut mode: Option<String> = None;
    let mut batch_size: Option<usize> = None;
    let mut fanouts: Option<Vec<usize>> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--target" => match args.next() {
                Some(v) => targets = Some(v),
                None => return usage_err("--target needs a workload label or `all`"),
            },
            "--scale" => match args.next().as_deref() {
                Some("test" | "tiny") => suite.scale = Scale::Test,
                Some("small") => suite.scale = Scale::Small,
                Some("paper") => suite.scale = Scale::Paper,
                Some(other) => return usage_err(&format!("unknown scale `{other}`")),
                None => return usage_err("--scale needs a value"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(s) => suite.seed = s,
                None => return usage_err("--seed needs a number"),
            },
            "--epochs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(e) => suite.epochs = e,
                None => return usage_err("--epochs needs a count"),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => suite.threads = Some(n),
                _ => return usage_err("--threads needs a count >= 1"),
            },
            "--precision" => match args
                .next()
                .and_then(|v| gnnmark_tensor::half::Precision::parse(&v))
            {
                Some(p) => suite.precision = p,
                None => return usage_err("--precision needs fp32|fp16|bf16"),
            },
            "--mode" => match args.next().as_deref() {
                Some(v @ ("fullgraph" | "minibatch")) => mode = Some(v.to_string()),
                Some(other) => {
                    return usage_err(&format!("unknown mode `{other}` (fullgraph|minibatch)"))
                }
                None => return usage_err("--mode needs a value"),
            },
            "--batch-size" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => batch_size = Some(n),
                _ => return usage_err("--batch-size needs a count >= 1"),
            },
            "--fanout" => {
                let Some(v) = args.next() else {
                    return usage_err("--fanout needs a comma-separated list");
                };
                match v.split(',').map(|s| s.trim().parse::<usize>()).collect() {
                    Ok(f) => fanouts = Some(f),
                    Err(e) => return usage_err(&format!("bad fanout list `{v}`: {e}")),
                }
            }
            "--requests" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => requests = n,
                _ => return usage_err("--requests needs a count >= 1"),
            },
            "--batched-steps" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => batched_steps = n,
                _ => return usage_err("--batched-steps needs a count >= 1"),
            },
            "--no-figures" => figures = false,
            "--out" => match args.next() {
                Some(v) => out_file = Some(v),
                None => return usage_err("--out needs a file path"),
            },
            "--csv" => match args.next() {
                Some(v) => csv_dir = Some(v),
                None => return usage_err("--csv needs a directory"),
            },
            other => return usage_err(&format!("unknown infer flag `{other}`")),
        }
    }
    // Same mode-resolution rule as the training CLI: batching flags imply
    // minibatch unless fullgraph was forced, where they'd be dead knobs.
    let wants_minibatch = batch_size.is_some() || fanouts.is_some();
    match mode.as_deref() {
        Some("fullgraph") if wants_minibatch => {
            return usage_err("--batch-size/--fanout only apply to --mode minibatch");
        }
        Some("minibatch") | None if wants_minibatch || mode.is_some() => {
            let mut mb = gnnmark::MinibatchConfig::default();
            if let Some(b) = batch_size {
                mb.batch_size = b;
            }
            if let Some(f) = fanouts {
                mb.fanouts = f;
            }
            suite.mode = gnnmark::TrainMode::Minibatch(mb);
        }
        _ => {}
    }
    let kinds: Vec<WorkloadKind> = match targets.as_deref() {
        None | Some("all") => WorkloadKind::ALL.to_vec(),
        Some(list) => {
            let mut kinds = Vec::new();
            for label in list.split(',') {
                match WorkloadKind::parse(label.trim()) {
                    Some(k) => kinds.push(k),
                    None => return usage_err(&format!("unknown workload `{label}`")),
                }
            }
            kinds
        }
    };

    let mut cfg = InferConfig::new(suite.clone());
    cfg.batch1_steps = requests;
    cfg.batched_steps = batched_steps;

    let started = std::time::Instant::now();
    let mut rows = Vec::with_capacity(kinds.len());
    let mut artifacts = Vec::with_capacity(kinds.len());
    for &kind in &kinds {
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
    if let Some(path) = &out_file {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error writing {path}: {e}");
            return 1;
        }
        eprintln!("wrote {path}");
    }

    if figures {
        // The measured inference-vs-training contrast (paper §V-A): train
        // the same workloads under the same config and put the two
        // profile populations side by side.
        let mut train_profiles = Vec::with_capacity(artifacts.len());
        for &(kind, _) in &artifacts {
            match run_workload(kind, &suite) {
                Ok(p) => train_profiles.push(p),
                Err(e) => {
                    eprintln!("error: {e}");
                    return 1;
                }
            }
        }
        let infer_profiles: Vec<_> =
            artifacts.iter().map(|(_, a)| a.profile.clone()).collect();
        let tables = vec![
            infer_vs_train_op_mix(&infer_profiles, &train_profiles),
            infer_vs_train_instruction_mix(&infer_profiles, &train_profiles),
            infer_vs_train_cache_behavior(&infer_profiles, &train_profiles),
        ];
        if let Err(e) = crate::emit(&tables, csv_dir.as_deref()) {
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
