//! End-to-end tests of the serving subsystem: replay-cache reuse,
//! campaign determinism across worker counts, the HTTP daemon over a
//! real loopback socket, and graceful shutdown draining.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::RwLock;
use std::time::{Duration, Instant};

use gnnmark_serve::campaign::CampaignOptions;
use gnnmark_serve::{
    client, run_campaign, serve, CacheKey, CampaignSpec, ServeConfig, StreamCache,
};

/// The shutdown flag is process-wide and campaigns skip their remaining
/// jobs once it is set: campaign tests hold this for reading, the daemon
/// test — which requests shutdown to stop its daemon — for writing.
static SHUTDOWN_FLAG: RwLock<()> = RwLock::new(());

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnnmark_serveit_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ablation_spec(name: &str) -> CampaignSpec {
    CampaignSpec::parse(&format!(
        r#"{{"name":"{name}","scale":"test","seed":42,"epochs":1,
            "workloads":["TLSTM","ARGA"],
            "configs":[
                {{"name":"v100","device":"v100"}},
                {{"name":"a100","device":"a100"}},
                {{"name":"v100-l1-64k","device":"v100","l1_kb":64}},
                {{"name":"v100-nvl-150","device":"v100","nvlink_gbps":150}},
                {{"name":"a100-fp16","device":"a100","half_precision":true}},
                {{"name":"v100-ddp4","device":"v100","gpus":4}}
            ]}}"#
    ))
    .unwrap()
}

/// A second identical submission is a pure cache hit: no stream is
/// stored again and the merged output is unchanged.
#[test]
fn resubmitted_campaign_never_retrains() {
    let _flag = SHUTDOWN_FLAG.read().unwrap_or_else(|e| e.into_inner());
    let dir = tmp("resubmit");
    let cache = StreamCache::new(dir.join("cache"));
    let spec = ablation_spec("resubmit");
    let opts = CampaignOptions::default();

    let first = run_campaign(&spec, &cache, &opts).unwrap();
    assert!(first.complete(), "failures: {:?}", first.failures);
    assert_eq!(first.trainings, 2, "two workloads train on a cold cache");
    assert_eq!(first.results.len(), 12, "6 configs x 2 workloads");

    // Judged by this cache's own entries: the process-wide training
    // counter also moves when the daemon test next door trains.
    let entries = || -> Vec<(PathBuf, std::time::SystemTime)> {
        let mut files = Vec::new();
        collect_files(cache.dir(), &mut files);
        files.sort();
        files
            .into_iter()
            .map(|p| {
                let modified = std::fs::metadata(&p).unwrap().modified().unwrap();
                (p, modified)
            })
            .collect()
    };
    let stored = entries();
    assert_eq!(stored.len(), 2, "one stream per workload");
    let second = run_campaign(&spec, &cache, &opts).unwrap();
    assert_eq!(entries(), stored, "resubmission must not retrain");
    assert_eq!(second.trainings, 0);
    assert_eq!(second.cache_hits, 2);
    assert_eq!(
        first.merged_json, second.merged_json,
        "replayed output must be byte-identical to the from-scratch run"
    );
    assert_eq!(first.figure_csvs(), second.figure_csvs());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm-cache campaign with no fault drill loads its streams on the
/// calling thread: no capture attempt (span or worker thread) is started,
/// and the output is byte-identical to the cold run's.
#[test]
fn warm_campaign_starts_no_capture_attempt() {
    let _flag = SHUTDOWN_FLAG.read().unwrap_or_else(|e| e.into_inner());
    let dir = tmp("warm");
    let cache = StreamCache::new(dir.join("cache"));
    // A seed no other test here uses, so the key ids below are ours even
    // though spans from concurrently running tests land in the same sink.
    let spec = CampaignSpec::parse(
        r#"{"name":"warm","scale":"test","seed":4242,"epochs":1,
            "workloads":["TLSTM","ARGA"],
            "configs":[{"name":"v100","device":"v100"},{"name":"a100","device":"a100"}]}"#,
    )
    .unwrap();
    let ids: Vec<String> = spec
        .workloads
        .iter()
        .map(|&workload| {
            CacheKey {
                workload,
                scale: spec.scale,
                seed: spec.seed,
                epochs: spec.epochs,
                precision: spec.precision,
                mode: spec.mode.clone(),
                phase: spec.phase,
            }
            .id()
        })
        .collect();
    let opts = CampaignOptions::default();
    let cold = run_campaign(&spec, &cache, &opts).unwrap();
    assert_eq!(cold.trainings, 2, "failures: {:?}", cold.failures);

    gnnmark_telemetry::set_enabled(true);
    let _ = gnnmark_telemetry::take_host_trace();
    let warm = run_campaign(&spec, &cache, &opts);
    let trace = gnnmark_telemetry::take_host_trace();
    gnnmark_telemetry::set_enabled(false);
    let warm = warm.unwrap();
    assert_eq!((warm.trainings, warm.cache_hits, warm.attempts), (0, 2, 2));
    assert_eq!(warm.merged_json, cold.merged_json, "warm output differs");

    for id in &ids {
        let attempt = format!("attempt:capture:{id}#");
        assert!(
            !trace.events.iter().any(|e| e.name.starts_with(&attempt)),
            "a warm hit started a capture attempt for {id}"
        );
        let loads = trace.named(&format!("load:{id}"));
        assert_eq!(loads.len(), 1, "one load of {id}");
        let thread = trace.lanes.iter().find(|l| l.lane == loads[0].lane);
        let thread = thread.map_or("", |l| l.thread.as_str());
        assert!(
            !thread.starts_with("gnnmark-task-capture:"),
            "{id} was decoded on capture worker {thread}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same spec at different worker counts produces byte-identical
/// merged JSON and figure CSVs on disk.
#[test]
fn campaign_output_is_worker_count_invariant() {
    let _flag = SHUTDOWN_FLAG.read().unwrap_or_else(|e| e.into_inner());
    let dir = tmp("workers");
    let cache = StreamCache::new(dir.join("cache"));
    let spec = ablation_spec("workers");
    let mut written: Vec<Vec<(PathBuf, Vec<u8>)>> = Vec::new();
    for workers in [1, 3, 8] {
        let opts = CampaignOptions {
            workers,
            ..CampaignOptions::default()
        };
        let out = run_campaign(&spec, &cache, &opts).unwrap();
        assert!(out.complete(), "failures: {:?}", out.failures);
        let root = out.write_to(&dir.join(format!("w{workers}"))).unwrap();
        let mut files = Vec::new();
        collect_files(&root, &mut files);
        files.sort();
        written.push(
            files
                .into_iter()
                .map(|p| {
                    let rel = p.strip_prefix(&root).unwrap().to_path_buf();
                    (rel, std::fs::read(&p).unwrap())
                })
                .collect(),
        );
    }
    assert_eq!(written[0], written[1], "1 vs 3 workers");
    assert_eq!(written[1], written[2], "3 vs 8 workers");
    let _ = std::fs::remove_dir_all(&dir);
}

fn collect_files(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let p = entry.unwrap().path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// Full daemon lifecycle on a loopback socket: submit a job over raw
/// HTTP, poll to completion, fetch artifacts and metrics, then shut down
/// gracefully via the shutdown flag (the signal handler's code path).
#[test]
fn daemon_serves_jobs_and_drains_on_shutdown() {
    let _flag = SHUTDOWN_FLAG.write().unwrap_or_else(|e| e.into_inner());
    let dir = tmp("daemon");
    // Port 0 would be ideal but the daemon prints, not returns, its bound
    // address — derive a port from the pid to avoid collisions instead.
    let addr = format!("127.0.0.1:{}", 20000 + std::process::id() % 20000);
    let cfg = ServeConfig {
        addr: addr.clone(),
        cache_dir: dir.join("cache"),
        results_dir: dir.join("results"),
        workers: 2,
        store_dir: dir.join("store"),
        worker_id: "it-worker".to_string(),
        ..ServeConfig::default()
    };
    let server = {
        let cfg = cfg.clone();
        std::thread::spawn(move || serve(&cfg))
    };

    // Wait for the listener.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if TcpStream::connect(&addr).is_ok() {
            break;
        }
        assert!(Instant::now() < deadline, "daemon never bound {addr}");
        std::thread::sleep(Duration::from_millis(20));
    }

    let (st, body) = client::get(&addr, "/healthz").unwrap();
    assert_eq!((st, body.trim()), (200, "ok"));

    let job = r#"{"workload":"TLSTM","device":"a100"}"#;
    let (st, body) = client::post(&addr, "/jobs", job).unwrap();
    assert_eq!(st, 202, "{body}");
    assert!(body.contains("\"id\":0"));

    // Poll until the job finishes (a Test-scale TLSTM run is fast).
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (st, body) = client::get(&addr, "/jobs/0").unwrap();
        assert_eq!(st, 200);
        if body.contains("\"state\":\"done\"") {
            break;
        }
        assert!(!body.contains("\"state\":\"failed\""), "job failed: {body}");
        assert!(Instant::now() < deadline, "job never finished: {body}");
        std::thread::sleep(Duration::from_millis(50));
    }

    let (st, listing) = client::get(&addr, "/jobs/0/artifacts").unwrap();
    assert_eq!(st, 200);
    assert!(listing.contains("merged.json"), "{listing}");
    let (st, merged) = client::get(&addr, "/jobs/0/artifacts/merged.json").unwrap();
    assert_eq!(st, 200);
    let v = gnnmark_telemetry::export::parse_json(&merged).unwrap();
    assert_eq!(v.get("campaign").and_then(|x| x.as_str()), Some("job-0"));
    let (st, csv) = client::get(&addr, "/jobs/0/artifacts/a100/summary.csv").unwrap();
    assert_eq!(st, 200);
    assert!(csv.contains("TLSTM"), "{csv}");

    let (st, metrics) = client::get(&addr, "/metrics").unwrap();
    assert_eq!(st, 200);
    assert!(!metrics.trim().is_empty(), "metrics exposition is empty");
    assert!(
        metrics.contains("gnnmark_serve_jobs_finished_total"),
        "{metrics}"
    );

    // The WAL store behind the daemon is readable out-of-process: the
    // submit and done transitions above are durable records by now.
    let store = gnnmark_serve::JobStore::open(dir.join("store")).unwrap();
    let job = store.job(0).unwrap();
    assert_eq!(job.state, gnnmark_serve::JobState::Done, "{job:?}");
    assert_eq!(job.worker.as_deref(), Some("it-worker"));
    assert!(job.artifacts.iter().any(|a| a == "merged.json"), "{job:?}");
    drop(store);

    // SLO smoke against the live daemon: a short closed-loop run on
    // /healthz must stay inside a generous error budget.
    let report = gnnmark_serve::run_loadtest(&gnnmark_serve::LoadtestOptions {
        addr: addr.clone(),
        concurrency: 2,
        duration: Duration::from_millis(500),
        error_budget: 0.05,
        ..gnnmark_serve::LoadtestOptions::default()
    })
    .unwrap();
    assert!(report.requests > 0, "loadtest sent no requests");
    assert!(
        report.error_budget_ok,
        "error budget blown against a healthy daemon: {}",
        report.to_json()
    );
    assert!(report.p99_ms >= report.p50_ms);

    // Graceful shutdown: same flag the SIGINT/SIGTERM handler sets.
    gnnmark::shutdown::request();
    server.join().unwrap().unwrap();
    assert!(
        cfg.results_dir.join("final_metrics.prom").is_file(),
        "drain must flush a final metrics snapshot"
    );
    gnnmark::shutdown::reset_for_tests();
    let _ = std::fs::remove_dir_all(&dir);
}
