//! The `gnnmark` CLI: regenerates the paper's tables and figures.
//!
//! ```text
//! gnnmark <target> [--scale tiny|test|small|paper] [--epochs N] [--seed S] [--csv DIR]
//!                  [--threads N] [--precision fp32|fp16|bf16]
//!                  [--mode fullgraph|minibatch] [--batch-size N] [--fanout F1,F2,...]
//!                  [--parallel] [--keep-going] [--timeout SECS]
//!                  [--retries N] [--checkpoint DIR] [--bless] [--golden DIR]
//!                  [--trace FILE] [--metrics FILE] [--progress]
//!
//! targets: table1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9
//!          roofline convergence summary suite ablations modecmp check all list
//!          psage-mvl psage-nwp stgcn dgcn gw kgnnl kgnnh arga tlstm
//!
//! gnnmark sweep <spec.json> [--cache DIR] [--out DIR] [--workers N]
//! gnnmark serve [--addr HOST:PORT] [--cache DIR] [--out DIR] [--workers N]
//!               [--store DIR] [--worker-id ID] [--lease-ttl SECS]
//! gnnmark loadtest [--addr HOST:PORT] [--path P] [--rps R] [--concurrency N]
//!                  [--duration SECS] [--error-budget F] [--saturation-probe SECS]
//!                  [--out FILE] [--csv FILE] [--submit JSON]
//!                  [--chaos [--store DIR] [--cache DIR] [--kill-after SECS]]
//! gnnmark infer [--target LABEL[,LABEL]|all] [--scale S] [--seed S] [--epochs N]
//!               [--threads N] [--precision P] [--mode M] [--batch-size N]
//!               [--fanout F1,F2,...] [--requests N] [--batched-steps N]
//!               [--no-figures] [--out FILE] [--csv DIR]
//! gnnmark report [STREAM.stream ...] [--out FILE] [--device v100|a100]
//!                [--scale tiny|test|small|paper] [--epochs N] [--seed S]
//!                [--precision fp32|fp16|bf16] [--mode fullgraph|minibatch]
//!                [--threads N] [--history PATH | --no-history] [--max-ratio R]
//! ```
//!
//! `sweep` runs a declarative device-ablation campaign through the
//! op-stream replay cache (train once per workload, replay under every
//! device config); `serve` exposes the same engine as an HTTP daemon
//! backed by a crash-recoverable WAL job store — point several daemons at
//! the same `--store` directory to scale out, with lease-arbitrated
//! claims and exactly-once completion. `loadtest` drives the daemon's
//! HTTP API open- or closed-loop and reports p50/p95/p99 latency,
//! saturation RPS and the error budget; `--chaos` SIGKILLs and restarts
//! a worker mid-run to measure recovery time; `--submit JSON` first
//! POSTs a job (e.g. `{"workload":"TLSTM","kind":"infer"}`) and then
//! drives its status endpoint, passing only if the job completes. See
//! `docs/SERVING.md` and `docs/INFERENCE.md`.
//!
//! `infer` is the forward-only characterization suite and the one
//! measurement of the modeled inference SLO: every workload runs its
//! training forward under a `NoGradGuard` (zero autograd allocations,
//! asserted), emitting batch-1 latency percentiles / batched-throughput
//! JSON (deterministic in modeled time, so `--out` doubles as a baseline)
//! and the measured inference-vs-training figures. See `docs/INFERENCE.md`.
//! `report` renders a deterministic single-file HTML characterization
//! report (roofline, stalls, caches, per-step timeline, comparison, perf
//! trend) from captured `.stream` files or a live suite run; see
//! `docs/OBSERVABILITY.md`.
//!
//! `--threads N` (or `GNNMARK_THREADS=N`) sets the CPU thread count of the
//! tensor kernels. Losses, profiles and figures are bit-identical at every
//! thread count; only wall-clock changes.
//!
//! `GNNMARK_SIMD={auto,avx2,scalar}` clamps the kernels' SIMD dispatch
//! lane, scalar or AVX2+FMA (default `auto` = AVX2+FMA when the host has
//! it, else scalar). The scalar lane is byte-identical to the historic
//! kernels; the AVX2 lane is deterministic but differs from scalar by
//! ULPs (FMA, reassociated reductions). See docs/VERIFICATION.md.
//!
//! `--mode minibatch` trains every workload through the mini-batch
//! neighbor-sampling path: the graph workloads (PSAGE, ARGA) sample
//! layer-wise fanout neighborhoods over their CSR adjacency, the batched
//! workloads honor the configured batch size. `--batch-size N` (default
//! 32) and `--fanout F1,F2,...` (default `10,5`; `0` = unlimited at that
//! level) tune the sampler. `modecmp` runs the suite under both modes and
//! renders the op-mix/transfer-sparsity comparison figure. See
//! `EXPERIMENTS.md` ("Mini-batch sampling").
//!
//! `--precision fp16|bf16` trains with real reduced-precision storage:
//! parameters and tape activations are stored at 16 bits (f32 compute,
//! round-on-store), dynamic loss scaling guards f16 gradient underflow, and
//! the modeled device switches to 2-byte elements. The default is fp32.
//!
//! Suite-backed targets run under the resilience layer: every workload is
//! panic-isolated on its own thread, optionally deadline-bounded
//! (`--timeout`) and retried (`--retries`). With `--keep-going`, one
//! failing workload no longer aborts the run — its figures render as `—`
//! rows and a per-workload status table (plus a JSON summary on stderr) is
//! appended. `--checkpoint DIR` saves each completed workload so an
//! interrupted run resumes without re-training. The `GNNMARK_FAULT`
//! environment variable (e.g. `panic:TLSTM`, `nan:GW@0`, `stall:DGCN@500ms`)
//! injects deterministic faults for drills and tests.
//!
//! Observability (all off by default; see `docs/OBSERVABILITY.md`):
//! `--trace FILE` writes a merged Chrome/Perfetto trace — host-side spans
//! (build/epoch/step/forward/backward/optimizer/simulate, one lane per
//! thread) interleaved with the modeled V100 kernel lanes. `--metrics FILE`
//! snapshots the metrics registry (tensor-pool hit rates, per-worker busy
//! time, autograd tape nodes, transfer bytes, resilience retries) as JSON,
//! plus a Prometheus text dump beside it at `FILE.prom`. Either flag also
//! drops a `manifest.json` (seed, scale, threads, device, per-workload
//! status) next to the CSVs, or beside the metrics/trace file. `--progress`
//! prints a live per-epoch line (loss, wall ms, modeled ms, pool hit rate)
//! to stderr. The single-workload targets (`gnnmark stgcn`, …) pair
//! naturally with these flags for focused profiling runs.
//!
//! `gnnmark check` runs the three-layer verification subsystem
//! (`gnnmark-check`): finite-difference gradient checks of every op and
//! workload, golden op-stream/figure snapshots under `results/golden/`
//! (regenerate intentionally with `--bless`, redirect with `--golden DIR`),
//! and gpusim accounting invariants. The CI gate runs
//! `gnnmark check --scale tiny`. See `docs/VERIFICATION.md`.

use std::time::Duration;

use gnnmark::resilience::{FaultPlan, ResilienceConfig, SuiteReport};
use gnnmark::suite::SuiteConfig;
use gnnmark::{shutdown, Scale, Table};
use gnnmark_bench::{emit, render_ablations, render_target_resilient, TARGETS};
use gnnmark_serve::campaign::CampaignOptions;
use gnnmark_serve::loadtest::ChaosOptions;
use gnnmark_serve::{
    run_campaign, run_loadtest, serve, CampaignSpec, LoadtestOptions, ServeConfig, StreamCache,
};

const USAGE: &str = "usage: gnnmark <target> [--scale tiny|test|small|paper] [--epochs N] \
[--seed S] [--csv DIR] [--threads N] [--precision fp32|fp16|bf16] \
[--mode fullgraph|minibatch] [--batch-size N] [--fanout F1,F2,...] \
[--parallel] [--keep-going] \
[--timeout SECS] [--retries N] \
[--checkpoint DIR] [--bless] [--golden DIR] [--trace FILE] [--metrics FILE] [--progress]
       gnnmark sweep <spec.json> [--cache DIR] [--out DIR] [--workers N]
       gnnmark serve [--addr HOST:PORT] [--cache DIR] [--out DIR] [--workers N] \
[--store DIR] [--worker-id ID] [--lease-ttl SECS]
       gnnmark loadtest [--addr HOST:PORT] [--path P] [--rps R] [--concurrency N] \
[--duration SECS] [--error-budget F] [--saturation-probe SECS] [--out FILE] [--csv FILE] \
[--submit JSON] [--chaos [--store DIR] [--cache DIR] [--kill-after SECS]]
       gnnmark infer [--target LABEL[,LABEL]|all] [--scale tiny|test|small|paper] \
[--seed S] [--epochs N] [--threads N] [--precision fp32|fp16|bf16] \
[--mode fullgraph|minibatch] [--batch-size N] [--fanout F1,F2,...] \
[--requests N] [--batched-steps N] [--no-figures] [--out FILE] [--csv DIR]
       gnnmark report [STREAM.stream ...] [--out FILE] [--device v100|a100] \
[--scale tiny|test|small|paper] [--epochs N] [--seed S] [--precision fp32|fp16|bf16] \
[--mode fullgraph|minibatch] [--threads N] [--history PATH | --no-history] [--max-ratio R]";

struct Args {
    target: String,
    cfg: SuiteConfig,
    csv_dir: Option<String>,
    rcfg: ResilienceConfig,
    keep_going: bool,
    bless: bool,
    golden_dir: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let target = args.next().unwrap_or_else(|| "list".to_string());
    let mut cfg = SuiteConfig::small();
    let mut csv_dir = None;
    let mut rcfg = ResilienceConfig::default();
    let mut keep_going = false;
    let mut bless = false;
    let mut golden_dir = None;
    let mut trace = None;
    let mut metrics = None;
    let mut progress = false;
    let mut mode: Option<String> = None;
    let mut batch_size: Option<usize> = None;
    let mut fanouts: Option<Vec<usize>> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                cfg.scale = match v.as_str() {
                    // `tiny` is the check-gate spelling of the test scale.
                    "test" | "tiny" => Scale::Test,
                    "small" => Scale::Small,
                    "paper" => Scale::Paper,
                    other => return Err(format!("unknown scale `{other}`")),
                };
            }
            "--epochs" => {
                cfg.epochs = args
                    .next()
                    .ok_or("--epochs needs a value")?
                    .parse()
                    .map_err(|e| format!("bad epoch count: {e}"))?;
            }
            "--seed" => {
                cfg.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--csv" => {
                csv_dir = Some(args.next().ok_or("--csv needs a directory")?);
            }
            "--precision" => {
                let v = args.next().ok_or("--precision needs a value")?;
                cfg.precision = gnnmark_tensor::half::Precision::parse(&v)
                    .ok_or_else(|| format!("unknown precision `{v}` (fp32|fp16|bf16)"))?;
            }
            "--threads" => {
                let n: usize = args
                    .next()
                    .ok_or("--threads needs a count")?
                    .parse()
                    .map_err(|e| format!("bad thread count: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                cfg.threads = Some(n);
                // Apply immediately so every code path (including table1,
                // which skips the suite) sees the setting.
                gnnmark_tensor::par::set_threads(n);
            }
            "--mode" => {
                let v = args.next().ok_or("--mode needs a value")?;
                match v.as_str() {
                    "fullgraph" | "minibatch" => mode = Some(v),
                    other => {
                        return Err(format!("unknown mode `{other}` (fullgraph|minibatch)"))
                    }
                }
            }
            "--batch-size" => {
                let n: usize = args
                    .next()
                    .ok_or("--batch-size needs a count")?
                    .parse()
                    .map_err(|e| format!("bad batch size: {e}"))?;
                if n == 0 {
                    return Err("--batch-size must be at least 1".to_string());
                }
                batch_size = Some(n);
            }
            "--fanout" => {
                let v = args.next().ok_or("--fanout needs a comma-separated list")?;
                let parsed: Result<Vec<usize>, _> =
                    v.split(',').map(|s| s.trim().parse::<usize>()).collect();
                let parsed = parsed.map_err(|e| format!("bad fanout list `{v}`: {e}"))?;
                if parsed.is_empty() {
                    return Err("--fanout needs at least one level".to_string());
                }
                fanouts = Some(parsed);
            }
            "--parallel" => rcfg.parallel = true,
            "--keep-going" => keep_going = true,
            "--timeout" => {
                let secs: f64 = args
                    .next()
                    .ok_or("--timeout needs seconds")?
                    .parse()
                    .map_err(|e| format!("bad timeout: {e}"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--timeout must be a positive number of seconds".to_string());
                }
                rcfg.timeout = Some(Duration::from_secs_f64(secs));
            }
            "--retries" => {
                rcfg.retry.max_retries = args
                    .next()
                    .ok_or("--retries needs a count")?
                    .parse()
                    .map_err(|e| format!("bad retry count: {e}"))?;
            }
            "--checkpoint" => {
                rcfg.checkpoint_dir =
                    Some(args.next().ok_or("--checkpoint needs a directory")?.into());
            }
            "--bless" => bless = true,
            "--golden" => {
                golden_dir = Some(args.next().ok_or("--golden needs a directory")?);
            }
            "--trace" => {
                trace = Some(args.next().ok_or("--trace needs a file path")?);
            }
            "--metrics" => {
                metrics = Some(args.next().ok_or("--metrics needs a file path")?);
            }
            "--progress" => progress = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    // Telemetry stays compiled-out-cheap unless an artifact was requested;
    // the recorded spans/counters never feed back into training math, so
    // enabling them cannot perturb op-streams or losses.
    if trace.is_some() || metrics.is_some() {
        gnnmark_telemetry::set_enabled(true);
        gnnmark_tensor::par::set_worker_tracking(true);
    }
    if progress {
        gnnmark_telemetry::set_progress(true);
    }
    // Resolve the training mode. `--batch-size`/`--fanout` imply minibatch
    // unless `--mode fullgraph` was given explicitly, where they'd be
    // silently ignored — make that an error instead.
    let wants_minibatch = batch_size.is_some() || fanouts.is_some();
    match mode.as_deref() {
        Some("fullgraph") if wants_minibatch => {
            return Err(
                "--batch-size/--fanout only apply to --mode minibatch".to_string()
            );
        }
        Some("minibatch") | None if wants_minibatch || mode.is_some() => {
            let mut mb = gnnmark::MinibatchConfig::default();
            if let Some(b) = batch_size {
                mb.batch_size = b;
            }
            if let Some(f) = fanouts {
                mb.fanouts = f;
            }
            cfg.mode = gnnmark::TrainMode::Minibatch(mb);
        }
        _ => {}
    }
    // Diverged workloads get one clipped retry by default; the threshold is
    // generous enough to be inert on healthy runs.
    rcfg.grad_clip_fallback = Some(10.0);
    rcfg.faults = FaultPlan::from_env();
    Ok(Args {
        target,
        cfg,
        csv_dir,
        rcfg,
        keep_going,
        bless,
        golden_dir,
        trace,
        metrics,
    })
}

/// Runs the three-layer verification gate; returns the process exit code.
fn run_check_gate(args: &Args) -> i32 {
    let ccfg = gnnmark_check::CheckConfig {
        scale: args.cfg.scale,
        seed: args.cfg.seed,
        tol: 1e-3,
        golden_dir: args
            .golden_dir
            .clone()
            .unwrap_or_else(|| gnnmark_check::golden::GOLDEN_DIR.to_string())
            .into(),
        bless: args.bless,
    };
    match gnnmark_check::run_check(&ccfg) {
        Ok(out) => {
            for line in &out.lines {
                println!("{line}");
            }
            println!();
            println!(
                "check: {} check(s), {} failure(s)",
                out.checks, out.failures
            );
            i32::from(!out.passed())
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// `gnnmark sweep <spec.json> [--cache DIR] [--out DIR] [--workers N]`:
/// one-shot offline campaign — capture (train-or-load) every workload
/// stream once, replay it under every device config, write the merged
/// JSON and per-config figure CSVs.
fn run_sweep(mut args: std::env::Args) -> i32 {
    let mut spec_path = None;
    let mut cache_dir = "results/serve/cache".to_string();
    let mut out_dir = "results/serve".to_string();
    let mut workers = 2usize;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--cache" => match args.next() {
                Some(v) => cache_dir = v,
                None => return usage_err("--cache needs a directory"),
            },
            "--out" => match args.next() {
                Some(v) => out_dir = v,
                None => return usage_err("--out needs a directory"),
            },
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => workers = n,
                _ => return usage_err("--workers needs a count >= 1"),
            },
            other if spec_path.is_none() && !other.starts_with('-') => {
                spec_path = Some(other.to_string());
            }
            other => return usage_err(&format!("unknown sweep flag `{other}`")),
        }
    }
    let Some(spec_path) = spec_path else {
        return usage_err("sweep needs a spec: gnnmark sweep <spec.json>");
    };
    let text = match std::fs::read_to_string(&spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {spec_path}: {e}");
            return 1;
        }
    };
    let spec = match CampaignSpec::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {spec_path}: {e}");
            return 2;
        }
    };
    shutdown::install();
    let started = std::time::Instant::now();
    let cache = StreamCache::new(&cache_dir);
    let mut opts = CampaignOptions {
        workers,
        ..CampaignOptions::default()
    };
    // `GNNMARK_FAULT` drills the sweep path like any suite run.
    opts.resilience = opts.resilience.with_faults(FaultPlan::from_env());
    match run_campaign(&spec, &cache, &opts) {
        Ok(out) => {
            match out.write_to(std::path::Path::new(&out_dir)) {
                Ok(root) => eprintln!("wrote {}", root.display()),
                Err(e) => {
                    eprintln!("error writing results: {e}");
                    return 1;
                }
            }
            eprintln!(
                "sweep {}: {} configs x {} workloads, {} training(s), {} cache hit(s), \
                 {} replay(s) in {:.1}s",
                spec.name,
                spec.configs.len(),
                spec.workloads.len(),
                out.trainings,
                out.cache_hits,
                out.results.len(),
                started.elapsed().as_secs_f64()
            );
            for f in &out.failures {
                eprintln!("  failed: {f}");
            }
            if shutdown::requested() {
                return shutdown::EXIT_INTERRUPTED;
            }
            i32::from(!out.complete())
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// `gnnmark serve [--addr A] [--cache DIR] [--out DIR] [--workers N]
/// [--store DIR] [--worker-id ID] [--lease-ttl SECS]`: the
/// benchmark-as-a-service daemon over the durable job store (see
/// `docs/SERVING.md`). Several daemons sharing one `--store` directory
/// form a worker pool.
fn run_serve(mut args: std::env::Args) -> i32 {
    let mut cfg = ServeConfig::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => match args.next() {
                Some(v) => cfg.addr = v,
                None => return usage_err("--addr needs host:port"),
            },
            "--cache" => match args.next() {
                Some(v) => cfg.cache_dir = v.into(),
                None => return usage_err("--cache needs a directory"),
            },
            "--out" => match args.next() {
                Some(v) => cfg.results_dir = v.into(),
                None => return usage_err("--out needs a directory"),
            },
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => cfg.workers = n,
                _ => return usage_err("--workers needs a count >= 1"),
            },
            "--store" => match args.next() {
                Some(v) => cfg.store_dir = v.into(),
                None => return usage_err("--store needs a directory"),
            },
            "--worker-id" => match args.next() {
                Some(v) => cfg.worker_id = v,
                None => return usage_err("--worker-id needs an identifier"),
            },
            "--lease-ttl" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 && s.is_finite() => {
                    cfg.lease_ttl = Duration::from_secs_f64(s);
                }
                _ => return usage_err("--lease-ttl needs positive seconds"),
            },
            other => return usage_err(&format!("unknown serve flag `{other}`")),
        }
    }
    match serve(&cfg) {
        Ok(()) => {
            if shutdown::requested() {
                shutdown::EXIT_INTERRUPTED
            } else {
                0
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// `gnnmark loadtest [...]`: the SLO load harness. Exit code 0 when the
/// error budget held, 1 on budget overrun or harness failure.
fn run_loadtest_cli(mut args: std::env::Args) -> i32 {
    let mut opts = LoadtestOptions::default();
    let mut out_file: Option<String> = None;
    let mut csv_file: Option<String> = None;
    let mut chaos = false;
    let mut kill_after = 3.0f64;
    let mut store_dir = "results/serve/chaos/store".to_string();
    let mut cache_dir = "results/serve/cache".to_string();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--submit" => match args.next() {
                Some(v) => opts.submit = Some(v),
                None => return usage_err("--submit needs a JSON job body"),
            },
            "--addr" => match args.next() {
                Some(v) => opts.addr = v,
                None => return usage_err("--addr needs host:port"),
            },
            "--path" => match args.next() {
                Some(v) => opts.path = v,
                None => return usage_err("--path needs a request path"),
            },
            "--rps" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(r) if r >= 0.0 && r.is_finite() => opts.rps = r,
                _ => return usage_err("--rps needs a non-negative rate"),
            },
            "--concurrency" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => opts.concurrency = n,
                _ => return usage_err("--concurrency needs a count >= 1"),
            },
            "--duration" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 && s.is_finite() => {
                    opts.duration = Duration::from_secs_f64(s);
                }
                _ => return usage_err("--duration needs positive seconds"),
            },
            "--error-budget" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(b) if (0.0..=1.0).contains(&b) => opts.error_budget = b,
                _ => return usage_err("--error-budget needs a ratio in [0, 1]"),
            },
            "--saturation-probe" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 && s.is_finite() => {
                    opts.saturation_probe = Some(Duration::from_secs_f64(s));
                }
                _ => return usage_err("--saturation-probe needs positive seconds"),
            },
            "--out" => match args.next() {
                Some(v) => out_file = Some(v),
                None => return usage_err("--out needs a file path"),
            },
            "--csv" => match args.next() {
                Some(v) => csv_file = Some(v),
                None => return usage_err("--csv needs a file path"),
            },
            "--chaos" => chaos = true,
            "--kill-after" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 && s.is_finite() => kill_after = s,
                _ => return usage_err("--kill-after needs positive seconds"),
            },
            "--store" => match args.next() {
                Some(v) => store_dir = v,
                None => return usage_err("--store needs a directory"),
            },
            "--cache" => match args.next() {
                Some(v) => cache_dir = v,
                None => return usage_err("--cache needs a directory"),
            },
            other => return usage_err(&format!("unknown loadtest flag `{other}`")),
        }
    }
    if chaos {
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: cannot locate own binary for chaos drill: {e}");
                return 1;
            }
        };
        // Short lease TTL so the killed worker's jobs requeue within the
        // run, making recovery measurable instead of TTL-bound.
        opts.chaos = Some(ChaosOptions {
            exe,
            args: vec![
                "serve".into(),
                "--addr".into(),
                opts.addr.clone(),
                "--store".into(),
                store_dir.clone(),
                "--cache".into(),
                cache_dir.clone(),
                "--out".into(),
                format!("{store_dir}/out"),
                "--lease-ttl".into(),
                "2".into(),
            ],
            kill_after: Duration::from_secs_f64(kill_after),
        });
    }
    match run_loadtest(&opts) {
        Ok(report) => {
            let json = report.to_json();
            println!("{json}");
            for (path, body) in [(&out_file, &json), (&csv_file, &report.to_figure_csv())] {
                if let Some(path) = path {
                    if let Some(dir) = std::path::Path::new(path).parent() {
                        let _ = std::fs::create_dir_all(dir);
                    }
                    if let Err(e) = std::fs::write(path, body) {
                        eprintln!("error writing {path}: {e}");
                        return 1;
                    }
                    eprintln!("wrote {path}");
                }
            }
            if !report.error_budget_ok {
                eprintln!(
                    "error budget overrun: {}/{} requests failed (budget {})",
                    report.errors, report.requests, report.error_budget
                );
            }
            i32::from(!report.error_budget_ok)
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

fn usage_err(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    2
}

fn main() {
    // `serve` and `sweep` own their flag sets; dispatch before the
    // figure-target parser sees them.
    {
        let mut argv = std::env::args();
        let _bin = argv.next();
        match argv.next().as_deref() {
            Some("sweep") => std::process::exit(run_sweep(argv)),
            Some("serve") => std::process::exit(run_serve(argv)),
            Some("loadtest") => std::process::exit(run_loadtest_cli(argv)),
            Some("infer") => {
                shutdown::install();
                std::process::exit(gnnmark_bench::infer_cli::run_infer_cli(argv));
            }
            Some("report") => {
                shutdown::install();
                std::process::exit(gnnmark_bench::report_cli::run_report(argv));
            }
            _ => {}
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    // Graceful shutdown: SIGINT/SIGTERM lets the in-flight workload finish,
    // skips the rest, and still flushes checkpoints, figures-so-far and the
    // observability artifacts before exiting with code 130.
    shutdown::install();
    if args.target == "list" {
        println!("targets:");
        for t in TARGETS {
            println!("  {t}");
        }
        return;
    }
    if !TARGETS.contains(&args.target.as_str()) {
        eprintln!("error: unknown target `{}`", args.target);
        eprintln!("valid targets: {}", TARGETS.join(" "));
        std::process::exit(2);
    }
    if args.target == "check" {
        std::process::exit(run_check_gate(&args));
    }
    let started = std::time::Instant::now();
    let mut report: Option<SuiteReport> = None;
    let result = (|| -> gnnmark::Result<Vec<Table>> {
        match args.target.as_str() {
            "all" => {
                let mut tables = Vec::new();
                for target in [
                    "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                    "fig9", "roofline", "convergence", "summary",
                ] {
                    tables.extend(render_target_resilient(
                        target,
                        &args.cfg,
                        &args.rcfg,
                        args.keep_going,
                        &mut report,
                    )?);
                }
                tables.extend(render_ablations(&args.cfg)?);
                Ok(tables)
            }
            "ablations" => render_ablations(&args.cfg),
            "modecmp" => gnnmark_bench::render_mode_comparison(&args.cfg),
            target => render_target_resilient(
                target,
                &args.cfg,
                &args.rcfg,
                args.keep_going,
                &mut report,
            ),
        }
    })();
    // Per-workload status, whenever a suite actually ran: the table when
    // anything is notable (non-completed workloads), the JSON line always.
    if let Some(report) = &report {
        if !report.all_succeeded() || report.outcomes.iter().any(|o| o.attempts > 1) {
            eprintln!("{}", report.status_table());
        }
        eprintln!("suite status: {}", report.to_json());
        let paths = gnnmark::observability::ExportPaths {
            trace: args.trace.as_ref().map(std::path::PathBuf::from),
            metrics: args.metrics.as_ref().map(std::path::PathBuf::from),
            csv_dir: args.csv_dir.as_ref().map(std::path::PathBuf::from),
        };
        if !paths.is_empty() {
            match gnnmark::observability::export_artifacts(
                &args.target,
                &args.cfg,
                report,
                &paths,
            ) {
                Ok(written) => {
                    for p in &written {
                        eprintln!("wrote {}", p.display());
                    }
                }
                Err(e) => {
                    eprintln!("error writing observability artifacts: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    match result {
        Ok(tables) => {
            if let Err(e) = emit(&tables, args.csv_dir.as_deref()) {
                eprintln!("error writing output: {e}");
                std::process::exit(1);
            }
            eprintln!(
                "done: {} table(s) in {:.1}s",
                tables.len(),
                started.elapsed().as_secs_f64()
            );
            if shutdown::requested() {
                eprintln!("interrupted: remaining workloads were skipped");
                std::process::exit(shutdown::EXIT_INTERRUPTED);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
