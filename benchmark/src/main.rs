//! The repo's performance benchmark: five named workloads, end-to-end
//! metrics from untraced runs, per-layer metrics from traced runs, output
//! checks, and a comparison tool. See `benchmark/README.md`.
//!
//! ```text
//! benchmark [all] [--seed N] [--seconds S] [--quick]   every workload, untraced then traced
//! benchmark run <workload> [...]                       one workload, end-to-end metrics
//! benchmark trace <workload> [...]                     one workload, per-layer metrics + trace
//! benchmark compare <a.json> <b.json>                  do two ledgers agree within the bounds?
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//! ```
//!
//! Every workload runs in a child process of its own, so peak RSS and
//! pool / thread warm-up are per workload and a hung or crashed workload
//! cannot take the others down.

mod common;
mod compare;
mod live;
mod probes;
mod replay;
mod results;
mod serve;
mod span;
mod spec;
mod stats;

use std::io::Read;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use common::{Outcome, Params, ScratchDir, OUT_DIR};
use gnnmark_telemetry::export::parse_json;
use live::Live;
use results::{Ledger, WorkloadResult};
use span::Tracer;

/// Flags shared by every run mode.
#[derive(Debug, Clone)]
struct Flags {
    seed: u64,
    seconds: f64,
    quick: bool,
    traced: bool,
    setup_only: bool,
    workload: Option<String>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        seed: spec::DEFAULT_SEED,
        seconds: spec::DEFAULT_SECONDS,
        quick: false,
        traced: false,
        setup_only: false,
        workload: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--seed" => {
                f.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                f.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(f.seconds > 0.0 && f.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                f.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--workload" => f.workload = Some(value("--workload")?.clone()),
            "--quick" => f.quick = true,
            "--setup-only" => f.setup_only = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => f.positional.push(arg.clone()),
        }
    }
    Ok(f)
}

fn workload_arg(f: &Flags) -> Result<String, String> {
    let name = f
        .workload
        .clone()
        .or_else(|| f.positional.first().cloned())
        .ok_or("which workload?")?;
    if spec::is_workload(&name) {
        Ok(name)
    } else {
        Err(format!(
            "unknown workload \"{name}\" (one of {})",
            spec::WORKLOADS.join(", ")
        ))
    }
}

/// Runs one workload in this process and prints its outcome as the last
/// line of stdout. Only ever invoked by [`spawn_child`].
fn child(f: &Flags, started: Instant) -> Result<(), String> {
    let name = workload_arg(f)?;
    let p = Params {
        seed: f.seed,
        seconds: f.seconds,
        quick: f.quick,
        setup_only: f.setup_only,
        started,
    };
    let live = match name.as_str() {
        "train_full" => Some(Live::TrainFull),
        "train_minibatch" => Some(Live::TrainMinibatch),
        "infer_fwd" => Some(Live::InferFwd),
        _ => None,
    };
    // Cache, store and results of the replay and serve workloads.
    let dir = ScratchDir::new().map_err(|e| format!("scratch dir: {e}"))?;
    let mut tracer = Tracer::new(f.traced);
    let mut outcome = match (live, name.as_str(), f.traced) {
        (Some(live), _, false) => live::run(live, &p),
        (Some(live), _, true) => live::trace(live, &p, &mut tracer),
        (None, "replay_sweep", false) => replay::run(&p, &dir),
        (None, "replay_sweep", true) => replay::trace(&p, &dir, &mut tracer),
        (None, _, false) => serve::run(&p, &dir),
        (None, _, true) => serve::trace(&p, &dir, &mut tracer),
    };
    drop(dir);
    let undeclared: Vec<String> = outcome
        .metrics
        .keys()
        .filter(|m| spec::describe(m).is_none())
        .cloned()
        .collect();
    outcome.check(undeclared.is_empty(), || {
        format!("metrics BENCHMARK.json does not declare: {undeclared:?}")
    });
    if f.traced {
        // A layer the workload bypasses did no work: its metrics read 0.
        for layer in &spec::LAYERS {
            outcome.metrics.entry(layer.name.to_string()).or_insert(0.0);
        }
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, tracer.to_chrome_json(&name)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", results::outcome_json(&outcome));
    Ok(())
}

/// Runs one workload in a fresh child process and reads its outcome back.
/// A child that crashes, hangs past the deadline or reports nothing
/// becomes one failed op.
fn spawn_child(name: &str, f: &Flags, traced: bool, setup_only: bool) -> Outcome {
    let failed = |why: String| {
        let mut o = Outcome::default();
        o.op(false, || format!("{name}: {why}"));
        o
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("current_exe: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .arg(name)
        .args([
            "--seed",
            &f.seed.to_string(),
            "--seconds",
            &f.seconds.to_string(),
        ])
        .stdout(Stdio::piped());
    // Nothing outside decides thread count, SIMD lanes, cache keys or
    // faults. (Telemetry has no switch out here: only the CLI turns it on.)
    for var in [
        "GNNMARK_THREADS",
        "GNNMARK_SIMD",
        "GNNMARK_CACHE_SALT",
        "GNNMARK_FAULT",
    ] {
        cmd.env_remove(var);
    }
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    for (flag, on) in [("--quick", f.quick), ("--setup-only", setup_only)] {
        if on {
            cmd.arg(flag);
        }
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return failed(format!("spawn: {e}")),
    };
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + Duration::from_secs(spec::CHILD_DEADLINE_S);
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("killed after {} s", spec::CHILD_DEADLINE_S));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => break Err(format!("wait: {e}")),
        }
    };
    let text = reader.join().unwrap_or_default();
    // The child removes its own scratch directory; one that was killed or
    // aborted could not.
    let _ = std::fs::remove_dir_all(ScratchDir::path_of(child.id()));
    let status = match status {
        Ok(s) => s,
        Err(why) => return failed(why),
    };
    if !status.success() {
        return failed(format!("child exited with {status}"));
    }
    let Some(line) = text.lines().rev().find(|l| !l.trim().is_empty()) else {
        return failed("child printed no result".to_string());
    };
    match parse_json(line).and_then(|v| results::outcome_from(&v)) {
        Ok(o) => o,
        Err(e) => failed(format!("unreadable result: {e}")),
    }
}

/// The untraced run of one workload. Set-up is timed in
/// [`spec::SETUP_SAMPLES`] fresh processes (the measuring one included)
/// and the median reported, so lazily built state is paid every time.
fn run_untraced(name: &str, f: &Flags) -> Outcome {
    let extra = if f.quick { 0 } else { spec::SETUP_SAMPLES - 1 };
    let mut setup = Vec::new();
    let mut early = Outcome::default();
    for _ in 0..extra {
        let o = spawn_child(name, f, false, true);
        setup.extend(o.metrics.get("setup_s"));
        early.failed_ops += o.failed_ops;
        early.check_failures += o.check_failures;
        early.notes.extend(o.notes);
    }
    let mut o = spawn_child(name, f, false, false);
    setup.extend(o.metrics.get("setup_s"));
    o.set_median("setup_s", &setup);
    // A set-up-only child attempts no op of its own; a crash counts as one.
    o.ops += early.failed_ops;
    o.failed_ops += early.failed_ops;
    o.check_failures += early.check_failures;
    o.notes.extend(early.notes);
    o
}

fn print_outcome(name: &str, o: &Outcome, comparable: bool) {
    let tag = if comparable {
        ""
    } else {
        "  [--quick: not comparable]"
    };
    for (metric, value) in &o.metrics {
        let mut about = Vec::new();
        if let Some(n) = o.samples.get(metric) {
            about.push(format!("n={n}"));
            if metric == "req_p95_ms" {
                // p95 is reported as measured; say how far up the tail the
                // sample count actually resolves.
                about.push(match stats::highest_resolved_percentile(*n as usize) {
                    Some(q) => {
                        format!("{} samples lie beyond p{:.0}", stats::MIN_BEYOND, q * 100.0)
                    }
                    None => format!("fewer than {} samples beyond p75", stats::MIN_BEYOND),
                });
            }
        }
        if let Some((_, better)) = spec::describe(metric) {
            about.push(format!("{} is better", better.as_str()));
        }
        if let Some(m) = spec::e2e(metric) {
            about.push(format!("bound {:.0} %", m.bound * 100.0));
        }
        let about = if about.is_empty() {
            String::new()
        } else {
            format!("  ({})", about.join("; "))
        };
        println!(
            "{name}.{metric} = {value} {}{about}{tag}",
            spec::unit_of(metric)
        );
    }
    let share = if o.ops == 0 {
        1.0
    } else {
        o.failed_ops as f64 / o.ops as f64
    };
    println!("{name}.ops = {} count", o.ops);
    println!(
        "{name}.failed_share = {share} ratio  ({} of {})",
        o.failed_ops, o.ops
    );
    println!("{name}.check_failures = {} count", o.check_failures);
    for note in &o.notes {
        println!("{name}: {note}");
    }
}

fn sound(o: &Outcome) -> bool {
    o.ops > 0 && o.failed_ops == 0 && o.check_failures == 0
}

/// Every workload untraced, then every workload traced.
fn all(f: &Flags) -> Result<bool, String> {
    let mut ledger = Ledger {
        seed: f.seed,
        seconds: f.seconds,
        ..Ledger::default()
    };
    let mut ok = true;
    for name in spec::WORKLOADS {
        eprintln!("[benchmark] {name}: untraced");
        let o = run_untraced(name, f);
        print_outcome(name, &o, !f.quick);
        ok &= sound(&o);
        ledger.workloads.insert(
            name.to_string(),
            WorkloadResult {
                end_to_end: o,
                ..Default::default()
            },
        );
    }
    for name in spec::WORKLOADS {
        eprintln!("[benchmark] {name}: traced");
        let o = spawn_child(name, f, true, false);
        print_outcome(name, &o, !f.quick);
        ok &= sound(&o);
        ledger
            .workloads
            .get_mut(name)
            .expect("inserted above")
            .per_layer = o;
    }
    println!("simulated accuracy: unvalidated (no reference results in the repo); simulated statistics are reported as exact-repeat values instead");
    if f.quick {
        println!("--quick: numbers above are not comparable and results.json is left untouched");
    } else {
        let path = Path::new(OUT_DIR).join("results.json");
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, ledger.to_json()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "wrote {} and {OUT_DIR}/trace-<workload>.json",
            path.display()
        );
    }
    Ok(ok)
}

fn run_compare(f: &Flags) -> Result<bool, String> {
    let [a, b] = f.positional.as_slice() else {
        return Err("compare takes two results.json files".to_string());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| Ledger::parse(&t).map_err(|e| format!("{path}: {e}")))
    };
    Ok(compare::compare(&load(a)?, &load(b)?))
}

/// One run for the acceptance driver: the last stdout line is its result.
fn contract(f: &Flags) -> Result<bool, String> {
    let name = workload_arg(f)?;
    let (o, declared): (Outcome, Vec<&str>) = if f.traced {
        (
            spawn_child(&name, f, true, false),
            spec::LAYERS.iter().map(|m| m.name).collect(),
        )
    } else {
        (
            run_untraced(&name, f),
            spec::E2E.iter().map(|m| m.name).collect(),
        )
    };
    for note in &o.notes {
        eprintln!("{name}: {note}");
    }
    if declared.iter().any(|m| !o.metrics.contains_key(*m)) {
        return Err(format!("{name}: the run produced no complete result"));
    }
    println!("{}", results::contract_line(&o, &declared));
    Ok(true)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("all" | "run" | "trace" | "compare" | "child")) => (c, &args[1..]),
        _ => ("", &args[..]),
    };
    let result = parse_flags(rest).and_then(|mut f| match command {
        "child" => child(&f, started).map(|()| true),
        "compare" => run_compare(&f),
        "run" | "trace" => {
            f.traced = command == "trace";
            let name = workload_arg(&f)?;
            let o = if f.traced {
                spawn_child(&name, &f, true, false)
            } else {
                run_untraced(&name, &f)
            };
            print_outcome(&name, &o, !f.quick);
            Ok(sound(&o))
        }
        "" if f.workload.is_some() => contract(&f),
        _ => all(&f),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
