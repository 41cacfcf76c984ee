//! The campaign engine: expand a [`CampaignSpec`] into a two-phase job
//! DAG and execute it on a bounded worker pool.
//!
//! * **Phase 1 — capture.** One stream per workload (the replay-cache key
//!   space of the campaign). A cache hit loads on the calling thread; a
//!   miss, or a workload a fault drill names, is a job that loads or
//!   trains it ([`StreamCache::fetch`]) under the suite's resilient
//!   task runner (retries, deadline, panic isolation). Only misses train.
//! * **Phase 2 — replay.** One job per (config × workload): the captured
//!   stream replays through a fresh gpusim model built from the config's
//!   [`DeviceSpec`](gnnmark_gpusim::DeviceSpec). Replay is pure
//!   simulation — milliseconds, not minutes.
//!
//! Every job writes its result into a pre-sized slot indexed by its
//! position in the expanded job list, and the merged output is rendered
//! by iterating those slots in order — so the merged JSON and the figure
//! CSVs are byte-identical across runs and worker counts, and contain no
//! wall-clock values.
//!
//! Memory: the thread that keeps a result allocates it. The calling
//! thread decodes the hits and allocates every replay's kernel metrics
//! before the workers run, so the blocks a campaign keeps, and frees when
//! it returns, live in that thread's allocator arena instead of in the
//! arenas of short-lived worker threads, which keep freed memory resident.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gnnmark::resilience::{run_task_resilient, Fault, ResilienceConfig};
use gnnmark::suite::RunArtifacts;
use gnnmark::{figures, shutdown};
use gnnmark_gpusim::{CapturedRun, DdpModel, KernelMetrics};
use gnnmark_profiler::replay_profile_into;
use gnnmark_telemetry::export::{debug_validated, json_escape};

use crate::spec::{CampaignSpec, DeviceConfig};
use crate::{CacheKey, StreamCache};

/// Progress sink called with short human-readable messages as phases
/// advance. The daemon persists these into the durable job store.
pub type ProgressSink = Arc<dyn Fn(&str) + Send + Sync>;

/// Execution knobs for a campaign (none of these affect the merged
/// output bytes, only how fast they are produced).
#[derive(Clone)]
pub struct CampaignOptions {
    /// Worker threads for the job queue (clamped to at least 1).
    pub workers: usize,
    /// Retry/timeout policy applied to each capture (training) job. Its
    /// [`FaultPlan`](gnnmark::resilience::FaultPlan) is honored inside
    /// the capture closure, so daemon job workers are drillable via
    /// `GNNMARK_FAULT` exactly like suite runs.
    pub resilience: ResilienceConfig,
    /// Where to send progress messages; `None` keeps campaigns silent.
    pub progress: Option<ProgressSink>,
}

impl std::fmt::Debug for CampaignOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignOptions")
            .field("workers", &self.workers)
            .field("resilience", &self.resilience)
            .field("progress", &self.progress.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            workers: 2,
            resilience: ResilienceConfig::default().with_retries(1),
            progress: None,
        }
    }
}

impl CampaignOptions {
    fn report(&self, msg: &str) {
        if let Some(progress) = &self.progress {
            progress(msg);
        }
    }
}

/// One replayed (config × workload) cell of the campaign.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Config name (from the spec).
    pub config: String,
    /// Workload label.
    pub workload: String,
    /// The replayed artifacts under the config's device.
    pub artifacts: RunArtifacts,
    /// Modeled DDP epoch time for the config's GPU count (ns), when the
    /// workload participates in multi-GPU scaling and `gpus > 1`.
    pub ddp_epoch_ns: Option<f64>,
}

/// The result of a completed campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The spec that ran.
    pub spec: CampaignSpec,
    /// Captures that were already present in the cache.
    pub cache_hits: usize,
    /// Captures that had to train.
    pub trainings: usize,
    /// Every successful replay, in deterministic (config, workload) order.
    pub results: Vec<ReplayResult>,
    /// One line per failed or skipped job, in deterministic order.
    pub failures: Vec<String>,
    /// Resilient-runner attempts consumed by the capture phase (1 per
    /// workload when nothing fails; more under injected/transient faults).
    pub attempts: u64,
    /// Deterministic faults injected into capture jobs (chaos drills).
    pub faults_injected: u64,
    /// Deterministic merged result document (validated JSON; no
    /// wall-clock values).
    pub merged_json: String,
}

impl CampaignOutcome {
    /// `true` when every expanded job produced a result.
    pub fn complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// Per-config figure tables as `(config, file_name, csv)` triples, in
    /// deterministic order.
    pub fn figure_csvs(&self) -> Vec<(String, String, String)> {
        let mut out = Vec::new();
        for cfg in &self.spec.configs {
            let runs: Vec<RunArtifacts> = self
                .results
                .iter()
                .filter(|r| r.config == cfg.name)
                .map(|r| r.artifacts.clone())
                .collect();
            if runs.is_empty() {
                continue;
            }
            let profiles: Vec<_> = runs.iter().map(|r| r.profile.clone()).collect();
            let tables = [
                ("summary.csv", figures::suite_summary(&runs)),
                (
                    "fig2_time_breakdown.csv",
                    figures::fig2_time_breakdown(&profiles),
                ),
                ("fig4_throughput.csv", figures::fig4_throughput(&profiles)),
                ("fig9_scaling.csv", figures::fig9_scaling(&runs)),
                ("convergence.csv", figures::fig_convergence(&runs)),
            ];
            for (file, table) in tables {
                out.push((cfg.name.clone(), file.to_string(), table.to_csv()));
            }
        }
        out
    }

    /// Writes `merged.json` plus per-config figure CSVs under `dir`
    /// (`<dir>/<campaign>/merged.json`, `<dir>/<campaign>/<config>/*.csv`).
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let root = dir.join(&self.spec.name);
        std::fs::create_dir_all(&root)?;
        std::fs::write(root.join("merged.json"), &self.merged_json)?;
        for (config, file, csv) in self.figure_csvs() {
            let cfg_dir = root.join(&config);
            std::fs::create_dir_all(&cfg_dir)?;
            std::fs::write(cfg_dir.join(file), csv)?;
        }
        Ok(root)
    }
}

/// Runs `job` once per input on `workers` threads (inline when that is
/// one), each result written into the slot of its input — results are
/// position-stable regardless of which worker ran which job. Inputs are
/// built by the caller, so whatever a job fills in for the caller to keep
/// is allocated on the caller's thread. Checks the process shutdown flag
/// between jobs.
fn run_jobs<I: Send, T: Send>(
    inputs: Vec<I>,
    workers: usize,
    job: impl Fn(I) -> T + Sync,
) -> Vec<Option<T>> {
    let n_jobs = inputs.len();
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n_jobs).map(|_| None).collect());
    let queue = Mutex::new(inputs.into_iter().enumerate());
    let workers = workers.clamp(1, n_jobs.max(1));
    let work = || loop {
        if shutdown::requested() {
            return;
        }
        let next = queue
            .lock()
            .expect("no job runs while the queue is locked")
            .next();
        let Some((i, input)) = next else {
            return;
        };
        let out = job(input);
        slots.lock().unwrap()[i] = Some(out);
    };
    if workers == 1 {
        work(); // a served single job pays no spawn (and no arena) per phase
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(work);
            }
        });
    }
    slots.into_inner().unwrap()
}

/// Deterministic JSON float: plain `{}` formatting (shortest-roundtrip)
/// with NaN/inf mapped to `null` so the document always validates.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders the merged campaign document. Deliberately excluded: wall
/// clock, worker count, and cache hit/miss tallies — everything here is
/// a pure function of the spec and the captured streams, so a replayed
/// campaign is byte-identical to a from-scratch one.
fn merged_json(spec: &CampaignSpec, results: &[ReplayResult], failures: &[String]) -> String {
    let mut s = String::with_capacity(4096);
    s.push('{');
    s.push_str(&format!("\"campaign\":\"{}\",", json_escape(&spec.name)));
    s.push_str(&format!("\"scale\":\"{}\",", spec.scale.label()));
    s.push_str(&format!("\"seed\":{},", spec.seed));
    s.push_str(&format!("\"epochs\":{},", spec.epochs));
    s.push_str("\"configs\":[");
    for (ci, cfg) in spec.configs.iter().enumerate() {
        if ci > 0 {
            s.push(',');
        }
        s.push('{');
        s.push_str(&format!("\"name\":\"{}\",", json_escape(&cfg.name)));
        s.push_str(&format!("\"device\":\"{}\",", json_escape(&cfg.base)));
        s.push_str(&format!("\"gpus\":{},", cfg.gpus));
        s.push_str("\"workloads\":[");
        let mut first = true;
        for r in results.iter().filter(|r| r.config == cfg.name) {
            if !first {
                s.push(',');
            }
            first = false;
            let p = &r.artifacts.profile;
            s.push('{');
            s.push_str(&format!("\"workload\":\"{}\",", json_escape(&r.workload)));
            s.push_str(&format!("\"kernels\":{},", p.kernels.len()));
            s.push_str(&format!(
                "\"kernel_time_ms\":{},",
                json_f64(p.total_kernel_time_ns() / 1e6)
            ));
            s.push_str(&format!(
                "\"transfer_time_ms\":{},",
                json_f64(p.transfer_time_ns / 1e6)
            ));
            s.push_str(&format!(
                "\"total_time_ms\":{},",
                json_f64(p.total_time_ns() / 1e6)
            ));
            s.push_str(&format!(
                "\"final_loss\":{},",
                r.artifacts
                    .losses
                    .last()
                    .map_or("null".to_string(), |l| json_f64(*l))
            ));
            match r.artifacts.quality {
                Some((name, v)) => s.push_str(&format!(
                    "\"quality\":{{\"metric\":\"{}\",\"value\":{}}},",
                    json_escape(name),
                    json_f64(v)
                )),
                None => s.push_str("\"quality\":null,"),
            }
            s.push_str(&format!(
                "\"ddp_epoch_ms\":{}",
                r.ddp_epoch_ns
                    .map_or("null".to_string(), |ns| json_f64(ns / 1e6))
            ));
            s.push('}');
        }
        s.push_str("]}");
    }
    s.push_str("],\"failures\":[");
    for (i, f) in failures.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\"", json_escape(f)));
    }
    s.push_str("]}");
    debug_validated("campaign merged.json", s)
}

/// Applies an injected fault inside a capture closure. The
/// `run_task_resilient` path wraps an arbitrary closure (no training
/// loop of its own), so the serving tier injects here, honoring the same
/// `GNNMARK_FAULT` grammar as suite runs. `NanLoss` is approximated as a
/// transient error: the daemon cannot reach into the cached training
/// loop to flip a loss value, but the retry/requeue behavior under
/// drill is identical.
fn apply_capture_fault(
    label: &str,
    fault: &Fault,
    attempt: usize,
    injected: &AtomicU64,
) -> gnnmark::Result<()> {
    match fault {
        Fault::Panic => {
            injected.fetch_add(1, Ordering::SeqCst);
            gnnmark_telemetry::mark("fault:injected", "serve");
            panic!("injected panic in capture {label}");
        }
        Fault::TransientError { failures } | Fault::NanLoss { failures, .. }
            if attempt <= *failures =>
        {
            injected.fetch_add(1, Ordering::SeqCst);
            gnnmark_telemetry::mark("fault:injected", "serve");
            Err(gnnmark_tensor::TensorError::InvalidArgument {
                op: "fault_injection",
                reason: format!("injected transient error in capture {label} (attempt {attempt})"),
            })
        }
        Fault::Stall { duration } => {
            injected.fetch_add(1, Ordering::SeqCst);
            gnnmark_telemetry::mark("fault:injected", "serve");
            std::thread::sleep(*duration);
            Ok(())
        }
        _ => Ok(()),
    }
}

/// [`artifacts_from_replay`](gnnmark::suite::artifacts_from_replay) with
/// the kernel metrics written into `kernels`, which the campaign thread
/// allocated.
fn replay_one(
    cfg: &DeviceConfig,
    workload_label: &str,
    run: &CapturedRun,
    kernels: Vec<KernelMetrics>,
) -> Result<ReplayResult, String> {
    let device = cfg.to_device_spec()?;
    let artifacts = RunArtifacts {
        profile: replay_profile_into(
            run.meta.workload.clone(),
            device.clone(),
            &run.stream,
            kernels,
        ),
        losses: run.meta.losses.clone(),
        steps_per_epoch: run.meta.steps_per_epoch,
        grad_bytes: run.meta.grad_bytes,
        scaling: run.meta.scaling,
        quality: run.meta.quality,
    };
    let ddp_epoch_ns = match (cfg.gpus > 1, artifacts.scaling) {
        (true, Some(behavior)) => {
            let epochs = run.meta.epochs.max(1) as f64;
            let single_epoch_ns = artifacts.profile.total_time_ns() / epochs;
            Some(DdpModel::new(device).epoch_time_ns(
                single_epoch_ns,
                artifacts.steps_per_epoch,
                artifacts.grad_bytes,
                behavior,
                cfg.gpus,
            ))
        }
        _ => None,
    };
    Ok(ReplayResult {
        config: cfg.name.clone(),
        workload: workload_label.to_string(),
        artifacts,
        ddp_epoch_ns,
    })
}

/// Executes a campaign: capture phase (train-or-load every workload's
/// stream), then replay phase (every config × workload), then the
/// deterministic merge.
///
/// # Errors
/// Only campaign-level failures (e.g. every capture failed) are errors;
/// individual job failures are recorded in the outcome's `failures`.
pub fn run_campaign(
    spec: &CampaignSpec,
    cache: &StreamCache,
    opts: &CampaignOptions,
) -> Result<CampaignOutcome, String> {
    let _span =
        gnnmark_telemetry::Span::enter_cat(format!("campaign:{}", spec.name), "serve-campaign");

    // Phase 1 — capture. The replays read every stream and this thread
    // frees them, so this thread allocates them: a hit loads and decodes
    // here. Only a miss, or a workload a fault drill names, becomes a job
    // under the resilient runner, and that job reports whether it trained
    // (the process-wide counters are shared with other in-process work, so
    // they can't attribute per campaign).
    let keys: Vec<CacheKey> = spec.workloads.iter().map(|&w| spec.cache_key(w)).collect();
    let report_capture = |label: &str, ok: bool| {
        opts.report(&format!(
            "capture {label}: {}",
            if ok { "ok" } else { "failed" }
        ));
    };
    let faults: Vec<Option<Fault>> = spec
        .workloads
        .iter()
        .map(|w| opts.resilience.faults.fault_for(w.label()).cloned())
        .collect();
    let mut captures: Vec<Option<Result<(CapturedRun, bool), String>>> = (0..keys.len())
        .map(|i| {
            if faults[i].is_some() || shutdown::requested() {
                return None;
            }
            let run = cache.lookup(&keys[i])?;
            report_capture(spec.workloads[i].label(), true);
            Some(Ok((run, false)))
        })
        .collect();
    // A hit counts as the one attempt it took.
    let hits = captures.iter().flatten().count() as u64;
    let pending: Vec<usize> = (0..keys.len()).filter(|&i| captures[i].is_none()).collect();

    let faults_injected = Arc::new(AtomicU64::new(0));
    let total_attempts = AtomicU64::new(hits);
    let attempted = run_jobs(pending.clone(), opts.workers, |i| {
        let key = keys[i].clone();
        let label = spec.workloads[i].label();
        let cache = cache.clone();
        let fault = faults[i].clone();
        let injected = Arc::clone(&faults_injected);
        let outcome = run_task_resilient(
            &format!("capture:{}", key.id()),
            &opts.resilience,
            Arc::new(move |attempt| {
                if let Some(fault) = &fault {
                    apply_capture_fault(label, fault, attempt, &injected)?;
                }
                cache.fetch(&key)
            }),
        );
        total_attempts.fetch_add(outcome.attempts as u64, Ordering::SeqCst);
        let res = match outcome.status {
            gnnmark::resilience::TaskStatus::Completed(fetched) => Ok(fetched),
            _ => Err(outcome
                .failure()
                .unwrap_or_else(|| "unknown failure".to_string())),
        };
        report_capture(label, res.is_ok());
        res
    });
    for (i, cap) in pending.into_iter().zip(attempted) {
        captures[i] = cap;
    }

    let mut failures = Vec::new();
    let mut streams: Vec<Option<CapturedRun>> = Vec::with_capacity(keys.len());
    let mut cache_hits = 0usize;
    let mut trainings = 0usize;
    for (i, cap) in captures.into_iter().enumerate() {
        let label = spec.workloads[i].label();
        match cap {
            Some(Ok((run, trained))) => {
                if trained {
                    trainings += 1;
                } else {
                    cache_hits += 1;
                }
                streams.push(Some(run));
            }
            Some(Err(e)) => {
                failures.push(format!("capture {label}: {e}"));
                streams.push(None);
            }
            None => {
                failures.push(format!("capture {label}: skipped (shutdown requested)"));
                streams.push(None);
            }
        }
    }
    if streams.iter().all(Option::is_none) {
        return Err(format!(
            "campaign {}: every capture failed: {}",
            spec.name,
            failures.join("; ")
        ));
    }

    // Phase 2 — replay. Jobs expand config-major so per-config results are
    // contiguous; each job owns slot (ci * workloads + wi). Each job's
    // kernel metrics, the bulk of what this thread keeps, are allocated
    // here at their final size and filled by the worker.
    let n_workloads = spec.workloads.len();
    let n_jobs = spec.configs.len() * n_workloads;
    opts.report(&format!("replay: {n_jobs} jobs"));
    let inputs: Vec<(usize, Vec<KernelMetrics>)> = (0..n_jobs)
        .map(|i| {
            let events = streams[i % n_workloads]
                .as_ref()
                .map_or(0, |run| run.stream.events.len());
            (i, Vec::with_capacity(events))
        })
        .collect();
    let replays: Vec<Option<Result<ReplayResult, String>>> =
        run_jobs(inputs, opts.workers, |(i, kernels)| {
            let cfg = &spec.configs[i / n_workloads];
            let wi = i % n_workloads;
            match &streams[wi] {
                Some(run) => replay_one(cfg, spec.workloads[wi].label(), run, kernels),
                None => Err("capture unavailable".to_string()),
            }
        });

    let mut results = Vec::new();
    for (i, rep) in replays.into_iter().enumerate() {
        let cfg = &spec.configs[i / n_workloads];
        let label = spec.workloads[i % n_workloads].label();
        match rep {
            Some(Ok(r)) => results.push(r),
            Some(Err(e)) => failures.push(format!("replay {}/{label}: {e}", cfg.name)),
            None => failures.push(format!(
                "replay {}/{label}: skipped (shutdown requested)",
                cfg.name
            )),
        }
    }

    let merged = merged_json(spec, &results, &failures);
    Ok(CampaignOutcome {
        spec: spec.clone(),
        cache_hits,
        trainings,
        results,
        failures,
        attempts: total_attempts.into_inner(),
        faults_injected: faults_injected.load(Ordering::SeqCst),
        merged_json: merged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    fn tiny_spec(name: &str) -> CampaignSpec {
        CampaignSpec::parse(&format!(
            r#"{{"name":"{name}","scale":"test","seed":42,"epochs":1,
                "workloads":["TLSTM"],
                "configs":[{{"name":"v100","device":"v100"}},
                           {{"name":"a100","device":"a100"}},
                           {{"name":"v100-ddp4","device":"v100","gpus":4}}]}}"#
        ))
        .unwrap()
    }

    /// One workload on one device: the cheapest campaign that trains.
    fn tlstm_spec(name: &str, seed: u64) -> CampaignSpec {
        CampaignSpec::parse(&format!(
            r#"{{"name":"{name}","scale":"test","seed":{seed},"epochs":1,
                "workloads":["TLSTM"],
                "configs":[{{"name":"v100","device":"v100"}}]}}"#
        ))
        .unwrap()
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gnnmark_campaign_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn campaign_trains_once_and_replays_everywhere() {
        let dir = tmp_dir("once");
        let cache = StreamCache::new(&dir);
        let spec = tiny_spec("c1");
        let out = run_campaign(&spec, &cache, &CampaignOptions::default()).unwrap();
        assert!(out.complete(), "failures: {:?}", out.failures);
        assert_eq!(out.trainings, 1, "one workload trains exactly once");
        assert_eq!(out.cache_hits, 0);
        assert_eq!(out.results.len(), 3, "one result per config");
        // The DDP config has a modeled epoch time; single-GPU ones do not.
        assert!(out.results.iter().any(|r| r.ddp_epoch_ns.is_some()));
        // Second run of the same campaign: pure cache.
        let out2 = run_campaign(&spec, &cache, &CampaignOptions::default()).unwrap();
        assert_eq!(out2.trainings, 0);
        assert_eq!(out2.cache_hits, 1);
        assert_eq!(out2.attempts, 1, "a hit is one attempt");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merged_output_is_byte_identical_across_worker_counts() {
        let dir = tmp_dir("det");
        let cache = StreamCache::new(&dir);
        let spec = tiny_spec("c2");
        let mut blobs = Vec::new();
        for workers in [1, 4] {
            let opts = CampaignOptions {
                workers,
                ..CampaignOptions::default()
            };
            let out = run_campaign(&spec, &cache, &opts).unwrap();
            assert!(out.complete());
            blobs.push((out.merged_json.clone(), out.figure_csvs()));
        }
        assert_eq!(blobs[0].0, blobs[1].0, "merged JSON differs by workers");
        assert_eq!(blobs[0].1, blobs[1].1, "figure CSVs differ by workers");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_transient_fault_is_retried_and_counted() {
        use gnnmark::resilience::FaultPlan;
        let dir = tmp_dir("fault");
        let cache = StreamCache::new(&dir);
        let spec = tlstm_spec("flt", 42);
        let messages = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&messages);
        let opts = CampaignOptions {
            resilience: ResilienceConfig::default().with_retries(2).with_faults(
                FaultPlan::none().inject("TLSTM", Fault::TransientError { failures: 1 }),
            ),
            progress: Some(Arc::new(move |msg: &str| {
                sink.lock().unwrap().push(msg.to_string())
            })),
            ..CampaignOptions::default()
        };
        let out = run_campaign(&spec, &cache, &opts).unwrap();
        assert!(out.complete(), "failures: {:?}", out.failures);
        assert_eq!(out.faults_injected, 1, "first attempt injects");
        assert_eq!(out.attempts, 2, "transient fault costs one retry");
        let msgs = messages.lock().unwrap();
        assert!(
            msgs.iter().any(|m| m.contains("capture TLSTM: ok")),
            "{msgs:?}"
        );
        assert!(msgs.iter().any(|m| m.starts_with("replay:")), "{msgs:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_broken_entry_is_retrained_and_counted_as_a_training() {
        let dir = tmp_dir("broken");
        let cache = StreamCache::new(&dir);
        let spec = tlstm_spec("broken", 11);
        let key = spec.cache_key(spec.workloads[0]);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(cache.path_for(&key), b"definitely not a stream").unwrap();
        let out = run_campaign(&spec, &cache, &CampaignOptions::default()).unwrap();
        assert!(out.complete(), "failures: {:?}", out.failures);
        assert_eq!(out.trainings, 1, "the garbage entry was retrained");
        assert_eq!(out.cache_hits, 0, "a garbage entry is not a hit");
        assert_eq!(out.attempts, 1);
        assert!(cache.load(&key).is_some(), "retraining repaired it");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fault_drill_still_fires_on_a_warm_cache() {
        use gnnmark::resilience::FaultPlan;
        let dir = tmp_dir("warmfault");
        let cache = StreamCache::new(&dir);
        let spec = tlstm_spec("warmfault", 12);
        let cold = run_campaign(&spec, &cache, &CampaignOptions::default()).unwrap();
        assert_eq!((cold.trainings, cold.attempts), (1, 1));
        let opts = CampaignOptions {
            resilience: ResilienceConfig::default().with_retries(2).with_faults(
                FaultPlan::none().inject("TLSTM", Fault::TransientError { failures: 2 }),
            ),
            ..CampaignOptions::default()
        };
        let out = run_campaign(&spec, &cache, &opts).unwrap();
        assert!(out.complete(), "failures: {:?}", out.failures);
        assert_eq!(out.faults_injected, 2, "both planned failures fire");
        assert_eq!(out.attempts, 3, "two failures, then the hit");
        assert_eq!((out.trainings, out.cache_hits), (0, 1));
        assert_eq!(out.merged_json, cold.merged_json);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outputs_write_to_disk() {
        let dir = tmp_dir("write");
        let cache = StreamCache::new(dir.join("cache"));
        let spec = tiny_spec("c3");
        let out = run_campaign(&spec, &cache, &CampaignOptions::default()).unwrap();
        let root = out.write_to(&dir.join("results")).unwrap();
        assert!(root.join("merged.json").is_file());
        assert!(root.join("v100").join("summary.csv").is_file());
        assert!(root.join("a100").join("fig4_throughput.csv").is_file());
        let merged = std::fs::read_to_string(root.join("merged.json")).unwrap();
        let v = gnnmark_telemetry::export::parse_json(&merged).unwrap();
        assert_eq!(v.get("campaign").and_then(|x| x.as_str()), Some("c3"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
