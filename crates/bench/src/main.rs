//! The `gnnmark` CLI: regenerates the paper's tables and figures.
//!
//! The flag grammar of every command is the `USAGE` string below, which
//! the binary prints with any usage error (exit code 2). Every command
//! reads its argv through [`gnnmark_bench::flags`]; the suite flags mean
//! the same thing for `<target>`, `infer` and `report`.
//!
//! `sweep` runs a declarative device-ablation campaign through the
//! op-stream replay cache (train once per workload, replay under every
//! device config); `serve` exposes the same engine as an HTTP daemon
//! backed by a crash-recoverable WAL job store — point several daemons at
//! the same `--store` directory to scale out, with lease-arbitrated
//! claims and exactly-once completion. `loadtest` drives the daemon's
//! HTTP API open- or closed-loop and reports p50/p95/p99 latency,
//! saturation RPS and the error budget; `--submit JSON` first
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
//! appended. `--checkpoint DIR` is a replay-cache directory (the one
//! `sweep --cache` writes): each workload that trains stores its captured
//! op stream there, and a rerun rebuilds every stored workload's profile
//! and figures from its stream instead of re-training. The `GNNMARK_FAULT`
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
//! `gnnmark check` runs the six-layer verification subsystem
//! (`gnnmark-check`): finite-difference gradient checks of every op and
//! workload, golden op-stream/figure snapshots under `results/golden/`
//! (regenerate intentionally with `--bless`, redirect with `--golden DIR`),
//! gpusim accounting invariants, the mini-batch sampling path, report
//! rendering and inference. It reads only `--scale`, `--seed`,
//! `--threads` and `--progress` of the suite and observability flags,
//! and refuses the others. The CI gate runs
//! `gnnmark check --scale tiny`. See `docs/VERIFICATION.md`.

use std::path::{Path, PathBuf};

use gnnmark::resilience::{FaultPlan, ResilienceConfig, SuiteReport};
use gnnmark::suite::SuiteConfig;
use gnnmark::{shutdown, Table};
use gnnmark_bench::flags::{parse_suite_args, Flags};
use gnnmark_bench::{emit, infer_cli, render_target_resilient, report_cli, TARGETS};
use gnnmark_serve::campaign::CampaignOptions;
use gnnmark_serve::{
    run_campaign, run_loadtest, serve, CampaignSpec, LoadtestOptions, ServeConfig, StreamCache,
};

const USAGE: &str = "usage: gnnmark <target> [SUITE FLAGS] [--csv DIR] [--parallel] \
[--keep-going] [--timeout SECS] [--retries N] [--checkpoint DIR] [--bless] [--golden DIR] \
[--trace FILE] [--metrics FILE] [--progress]
       gnnmark sweep <spec.json> [--cache DIR] [--out DIR] [--workers N]
       gnnmark serve [--addr HOST:PORT] [--cache DIR] [--out DIR] [--workers N] \
[--store DIR] [--worker-id ID] [--lease-ttl SECS]
       gnnmark loadtest [--addr HOST:PORT] [--path P] [--rps R] [--concurrency N] \
[--duration SECS] [--error-budget F] [--saturation-probe SECS] [--out FILE] [--csv FILE] \
[--submit JSON]
       gnnmark infer [--target LABEL[,LABEL]|all] [SUITE FLAGS] \
[--requests N] [--batched-steps N] [--no-figures] [--out FILE] [--csv DIR]
       gnnmark report [STREAM.stream ...] [--out FILE] [--device v100|a100] [SUITE FLAGS] \
[--history PATH | --no-history] [--max-ratio R]

SUITE FLAGS, the same for <target>, infer and report: [--scale tiny|test|small|paper] \
[--epochs N] [--seed S] [--threads N] [--precision fp32|fp16|bf16] \
[--mode fullgraph|minibatch] [--batch-size N] [--fanout F1,F2,...]
--bless and --golden are for `check` only; `check` and `modecmp` take none of \
--parallel --keep-going --timeout --retries --checkpoint, and `check` takes none of --csv \
--epochs --precision --mode --batch-size --fanout --trace --metrics
targets: `gnnmark list` prints them";

/// A parsed `gnnmark <target>` invocation.
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
    progress: bool,
}

/// The flags `target` would read and then ignore; it refuses them.
/// `modecmp` runs outside the resilience layer, `check` writes no tables,
/// trains its own fixed configurations and records no telemetry, and only
/// `check` reads goldens.
fn ignored_flags(target: &str) -> &'static [&'static str] {
    match target {
        "modecmp" => &[
            "--parallel",
            "--keep-going",
            "--timeout",
            "--retries",
            "--checkpoint",
        ],
        "check" => &[
            "--csv",
            "--parallel",
            "--keep-going",
            "--timeout",
            "--retries",
            "--checkpoint",
            "--epochs",
            "--precision",
            "--mode",
            "--batch-size",
            "--fanout",
            "--trace",
            "--metrics",
        ],
        _ => &["--bless", "--golden"],
    }
}

/// Parses `gnnmark <target> [flags]`.
fn parse_args(target: String, argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    if !TARGETS.contains(&target.as_str()) {
        return Err(format!(
            "unknown target `{target}`\nvalid targets: {}",
            TARGETS.join(" ")
        ));
    }
    // Before the suite flags, which `parse_suite_args` consumes itself.
    let argv: Vec<String> = argv.into_iter().collect();
    if let Some(flag) = argv
        .iter()
        .find(|a| ignored_flags(&target).contains(&a.as_str()))
    {
        return Err(format!("`{flag}` does not apply to `{target}`"));
    }
    let mut args = Args {
        target,
        cfg: SuiteConfig::small(),
        csv_dir: None,
        // Diverged workloads get one clipped retry by default; the
        // threshold is generous enough to be inert on healthy runs.
        rcfg: ResilienceConfig {
            grad_clip_fallback: Some(10.0),
            faults: FaultPlan::from_env(),
            ..ResilienceConfig::default()
        },
        keep_going: false,
        bless: false,
        golden_dir: None,
        trace: None,
        metrics: None,
        progress: false,
    };
    args.cfg = parse_suite_args(argv, args.cfg.clone(), |flag, f| {
        match flag {
            "--csv" => args.csv_dir = Some(f.value(flag)?),
            "--parallel" => args.rcfg.parallel = true,
            "--keep-going" => args.keep_going = true,
            "--timeout" => args.rcfg.timeout = Some(f.secs(flag)?),
            "--retries" => args.rcfg.retry.max_retries = f.parse(flag)?,
            "--checkpoint" => args.rcfg.checkpoint_dir = Some(f.value(flag)?.into()),
            "--bless" => args.bless = true,
            "--golden" => args.golden_dir = Some(f.value(flag)?),
            "--trace" => args.trace = Some(f.value(flag)?),
            "--metrics" => args.metrics = Some(f.value(flag)?),
            "--progress" => args.progress = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(args)
}

/// Runs the six-layer verification gate; returns the process exit code.
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

/// `gnnmark <target>`: renders a figure target (or runs the check gate);
/// returns the process exit code.
fn run_target(args: &Args) -> i32 {
    if args.target == "list" {
        println!("targets:");
        for t in TARGETS {
            println!("  {t}");
        }
        return 0;
    }
    // Telemetry stays compiled-out-cheap unless an artifact was requested;
    // the recorded spans/counters never feed back into training math, so
    // enabling them cannot perturb op-streams or losses.
    if args.trace.is_some() || args.metrics.is_some() {
        gnnmark_telemetry::set_enabled(true);
        gnnmark_tensor::par::set_worker_tracking(true);
    }
    if args.progress {
        gnnmark_telemetry::set_progress(true);
    }
    if args.target == "check" {
        return run_check_gate(args);
    }
    let started = std::time::Instant::now();
    let mut report: Option<SuiteReport> = None;
    let mut render = |target: &str| {
        render_target_resilient(target, &args.cfg, &args.rcfg, args.keep_going, &mut report)
    };
    let result = (|| -> gnnmark::Result<Vec<Table>> {
        match args.target.as_str() {
            "all" => {
                let mut tables = Vec::new();
                for target in [
                    "table1",
                    "fig2",
                    "fig3",
                    "fig4",
                    "fig5",
                    "fig6",
                    "fig7",
                    "fig8",
                    "fig9",
                    "roofline",
                    "convergence",
                    "summary",
                    "ablations",
                ] {
                    tables.extend(render(target)?);
                }
                Ok(tables)
            }
            "modecmp" => gnnmark_bench::render_mode_comparison(&args.cfg),
            target => render(target),
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
            trace: args.trace.as_ref().map(PathBuf::from),
            metrics: args.metrics.as_ref().map(PathBuf::from),
            csv_dir: args.csv_dir.as_ref().map(PathBuf::from),
        };
        if !paths.is_empty() {
            match gnnmark::observability::export_artifacts(&args.target, &args.cfg, report, &paths)
            {
                Ok(written) => {
                    for p in &written {
                        eprintln!("wrote {}", p.display());
                    }
                }
                Err(e) => {
                    eprintln!("error writing observability artifacts: {e}");
                    return 1;
                }
            }
        }
    }
    match result {
        Ok(tables) => {
            if let Err(e) = emit(&tables, args.csv_dir.as_deref()) {
                eprintln!("error writing output: {e}");
                return 1;
            }
            eprintln!(
                "done: {} table(s) in {:.1}s",
                tables.len(),
                started.elapsed().as_secs_f64()
            );
            if shutdown::requested() {
                eprintln!("interrupted: remaining workloads were skipped");
                return shutdown::EXIT_INTERRUPTED;
            }
            0
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// A parsed `gnnmark sweep` invocation.
struct SweepArgs {
    spec_path: String,
    cache_dir: String,
    out_dir: String,
    workers: usize,
}

fn parse_sweep(argv: impl IntoIterator<Item = String>) -> Result<SweepArgs, String> {
    let mut spec_path = None;
    let mut args = SweepArgs {
        spec_path: String::new(),
        cache_dir: "results/serve/cache".to_string(),
        out_dir: "results/serve".to_string(),
        workers: 2,
    };
    Flags::new(argv).each(|flag, f| {
        match flag {
            "--cache" => args.cache_dir = f.value(flag)?,
            "--out" => args.out_dir = f.value(flag)?,
            "--workers" => args.workers = f.count(flag)?,
            path if spec_path.is_none() && !path.starts_with('-') => {
                spec_path = Some(path.to_string());
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    args.spec_path = spec_path.ok_or("sweep needs a spec: gnnmark sweep <spec.json>")?;
    Ok(args)
}

/// `gnnmark sweep`: one-shot offline campaign — capture (train-or-load)
/// every workload stream once, replay it under every device config, write
/// the merged JSON and per-config figure CSVs.
fn run_sweep(args: &SweepArgs) -> i32 {
    let spec_path = &args.spec_path;
    let text = match std::fs::read_to_string(spec_path) {
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
    let cache = StreamCache::new(&args.cache_dir);
    let mut opts = CampaignOptions {
        workers: args.workers,
        ..CampaignOptions::default()
    };
    // `GNNMARK_FAULT` drills the sweep path like any suite run.
    opts.resilience = opts.resilience.with_faults(FaultPlan::from_env());
    match run_campaign(&spec, &cache, &opts) {
        Ok(out) => {
            match out.write_to(Path::new(&args.out_dir)) {
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

fn parse_serve(argv: impl IntoIterator<Item = String>) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig::default();
    Flags::new(argv).each(|flag, f| {
        match flag {
            "--addr" => cfg.addr = f.value(flag)?,
            "--cache" => cfg.cache_dir = f.value(flag)?.into(),
            "--out" => cfg.results_dir = f.value(flag)?.into(),
            "--workers" => cfg.workers = f.count(flag)?,
            "--store" => cfg.store_dir = f.value(flag)?.into(),
            "--worker-id" => cfg.worker_id = f.value(flag)?,
            "--lease-ttl" => cfg.lease_ttl = f.secs(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(cfg)
}

/// `gnnmark serve`: the benchmark-as-a-service daemon over the durable job
/// store (see `docs/SERVING.md`). Several daemons sharing one `--store`
/// directory form a worker pool.
fn run_serve(cfg: &ServeConfig) -> i32 {
    match serve(cfg) {
        Ok(()) if shutdown::requested() => shutdown::EXIT_INTERRUPTED,
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// A parsed `gnnmark loadtest` invocation.
struct LoadtestArgs {
    opts: LoadtestOptions,
    out_file: Option<String>,
    csv_file: Option<String>,
}

fn parse_loadtest(argv: impl IntoIterator<Item = String>) -> Result<LoadtestArgs, String> {
    let mut args = LoadtestArgs {
        opts: LoadtestOptions::default(),
        out_file: None,
        csv_file: None,
    };
    let opts = &mut args.opts;
    Flags::new(argv).each(|flag, f| {
        match flag {
            "--submit" => opts.submit = Some(f.value(flag)?),
            "--addr" => opts.addr = f.value(flag)?,
            "--path" => opts.path = f.value(flag)?,
            "--rps" => {
                opts.rps = f.parse(flag)?;
                if !(opts.rps >= 0.0 && opts.rps.is_finite()) {
                    return Err("--rps needs a non-negative rate".to_string());
                }
            }
            "--concurrency" => opts.concurrency = f.count(flag)?,
            "--duration" => opts.duration = f.secs(flag)?,
            "--error-budget" => {
                opts.error_budget = f.parse(flag)?;
                if !(0.0..=1.0).contains(&opts.error_budget) {
                    return Err("--error-budget needs a ratio in [0, 1]".to_string());
                }
            }
            "--saturation-probe" => opts.saturation_probe = Some(f.secs(flag)?),
            "--out" => args.out_file = Some(f.value(flag)?),
            "--csv" => args.csv_file = Some(f.value(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(args)
}

/// `gnnmark loadtest`: the SLO load harness. Exit code 0 when the error
/// budget held, 1 on budget overrun or harness failure.
fn run_loadtest_cli(args: &LoadtestArgs) -> i32 {
    match run_loadtest(&args.opts) {
        Ok(report) => {
            let json = report.to_json();
            println!("{json}");
            for (path, body) in [
                (&args.out_file, &json),
                (&args.csv_file, &report.to_figure_csv()),
            ] {
                if let Some(path) = path {
                    if let Some(dir) = Path::new(path).parent() {
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

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_else(|| "list".to_string());
    // Graceful shutdown: SIGINT/SIGTERM lets the in-flight workload finish,
    // skips the rest, and still flushes checkpoints, figures-so-far and the
    // observability artifacts before exiting with code 130. `sweep` and
    // `serve` install it themselves.
    let code = match command.as_str() {
        "sweep" => parse_sweep(argv).map(|a| run_sweep(&a)),
        "serve" => parse_serve(argv).map(|c| run_serve(&c)),
        "loadtest" => parse_loadtest(argv).map(|a| run_loadtest_cli(&a)),
        "infer" => infer_cli::parse_infer_args(argv).map(|a| {
            shutdown::install();
            infer_cli::run_infer(&a)
        }),
        "report" => report_cli::parse_report_args(argv).map(|o| {
            shutdown::install();
            report_cli::run_report(&o)
        }),
        _ => parse_args(command, argv).map(|a| {
            shutdown::install();
            run_target(&a)
        }),
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnmark_bench::infer_cli::parse_infer_args;
    use gnnmark_bench::report_cli::parse_report_args;

    /// The suite config each suite-backed command reads from `argv`.
    fn suite_configs(argv: &[&str]) -> [Result<SuiteConfig, String>; 3] {
        let argv = || argv.iter().map(|s| s.to_string());
        [
            parse_args("summary".to_string(), argv()).map(|a| a.cfg),
            parse_infer_args(argv()).map(|a| a.suite),
            parse_report_args(argv()).map(|o| o.cfg),
        ]
    }

    #[test]
    fn one_argv_means_one_suite_config_on_every_command() {
        let argv = [
            "--scale",
            "tiny",
            "--epochs",
            "2",
            "--seed",
            "7",
            "--threads",
            "2",
            "--precision",
            "fp16",
            "--batch-size",
            "16",
            "--fanout",
            "6,4",
        ];
        let [target, infer, report] = suite_configs(&argv).map(|c| format!("{:?}", c.unwrap()));
        assert_eq!(target, infer);
        assert_eq!(target, report);
        assert!(target.contains("epochs: 2"), "{target}");
        for bad in [
            &["--epochs", "0"][..],
            &["--threads", "0"],
            &["--fanout", "4,"],
            &["--mode", "fullgraph", "--fanout", "3"],
            &["--scale", "huge"],
            &["--batch-size", "0"],
            &["--mode", "sampled"],
            &["--precision", "fp8"],
            &["--seed", "-1"],
            &["--seed"],
            &["--bogus"],
        ] {
            for parsed in suite_configs(bad) {
                assert!(parsed.is_err(), "{bad:?} must be rejected");
            }
        }
    }

    #[test]
    fn command_flags_parse() {
        let args = parse_args(
            "fig4".to_string(),
            [
                "--timeout",
                "1.5",
                "--retries",
                "3",
                "--keep-going",
                "--csv",
                "out",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(
            args.rcfg.timeout,
            Some(std::time::Duration::from_millis(1500))
        );
        assert_eq!(args.rcfg.retry.max_retries, 3);
        assert!(args.keep_going);
        assert_eq!(args.csv_dir.as_deref(), Some("out"));
        assert!(parse_args("fig99".to_string(), []).is_err());

        let sweep = parse_sweep(["spec.json", "--workers", "3"].map(String::from)).unwrap();
        assert_eq!((sweep.spec_path.as_str(), sweep.workers), ("spec.json", 3));
        assert!(parse_sweep(["--workers", "3"].map(String::from)).is_err());

        let serve =
            parse_serve(["--lease-ttl", "2", "--worker-id", "w1"].map(String::from)).unwrap();
        assert_eq!(serve.lease_ttl, std::time::Duration::from_secs(2));
        assert_eq!(serve.worker_id, "w1");

        let lt =
            parse_loadtest(["--rps", "100", "--saturation-probe", "2"].map(String::from)).unwrap();
        assert_eq!(lt.opts.rps, 100.0);
        for bad in [&["--chaos"][..], &["--rps", "-1"], &["--error-budget", "2"]] {
            assert!(
                parse_loadtest(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }
}
