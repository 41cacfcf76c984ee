//! Crash-recovery drills against the real `gnnmark serve` binary.
//!
//! These tests SIGKILL a daemon mid-campaign and assert the durability
//! contract: a restarted daemon (or a peer sharing the `--store`
//! directory) finishes the interrupted job without retraining cached
//! workloads, exactly once, byte-identical to an uninterrupted run.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gnnmark_serve::{client, JobStore};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gnnmark_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn port(offset: u32) -> String {
    format!("127.0.0.1:{}", 40000 + std::process::id() % 10000 + offset)
}

fn gnnmark() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gnnmark"))
}

fn spawn_daemon(addr: &str, store: &Path, cache: &Path, worker_id: &str) -> Command {
    let mut cmd = gnnmark();
    cmd.args([
        "serve",
        "--addr",
        addr,
        "--store",
        &store.display().to_string(),
        "--cache",
        &cache.display().to_string(),
        "--out",
        &store.join("out").display().to_string(),
        "--worker-id",
        worker_id,
        "--lease-ttl",
        "2",
    ])
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    cmd
}

fn wait_healthy(addr: &str, child: &mut Child, secs: u64) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Ok((200, _)) = client::get(addr, "/healthz") {
            return;
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("daemon on {addr} exited early: {status}");
        }
        assert!(Instant::now() < deadline, "daemon on {addr} never healthy");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Reads a counter out of the Prometheus exposition; 0 when absent.
fn metric(addr: &str, name: &str) -> u64 {
    let Ok((200, body)) = client::get(addr, "/metrics") else {
        return 0;
    };
    body.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0, |v| v as u64)
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let p = entry.unwrap().path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

/// Relative path → bytes for every file under `root`.
fn snapshot(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    collect_files(root, &mut files);
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(root).unwrap().to_path_buf();
            (rel, std::fs::read(&p).unwrap())
        })
        .collect()
}

const SPEC: &str = r#"{"name":"crashdrill","scale":"test","seed":7,"epochs":1,
    "workloads":["TLSTM","ARGA"],
    "configs":[{"name":"v100","device":"v100"},{"name":"a100","device":"a100"}]}"#;

/// SIGKILL a daemon mid-campaign, restart it on the same store, and
/// assert the job finishes with no retraining of already-captured
/// workloads and output byte-identical to an uninterrupted control run.
#[test]
fn killed_daemon_recovers_without_retraining() {
    let dir = tmp("recover");
    std::fs::create_dir_all(&dir).unwrap();

    // Control: the same campaign run uninterrupted, on its own cache.
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, SPEC).unwrap();
    let control = gnnmark()
        .args([
            "sweep",
            &spec_path.display().to_string(),
            "--cache",
            &dir.join("control-cache").display().to_string(),
            "--out",
            &dir.join("control").display().to_string(),
        ])
        .output()
        .expect("control sweep runs");
    assert!(
        control.status.success(),
        "control sweep failed: {}",
        String::from_utf8_lossy(&control.stderr)
    );
    let reference = snapshot(&dir.join("control").join("crashdrill"));
    assert!(!reference.is_empty(), "control produced no files");

    let addr = port(0);
    let store = dir.join("store");
    let cache = dir.join("cache");

    // Daemon 1 runs with an injected 8 s stall on the ARGA capture: a wide,
    // deterministic window in which TLSTM is already trained and cached but
    // the campaign is not finished.
    let mut d1 = spawn_daemon(&addr, &store, &cache, "crash-w1")
        .env("GNNMARK_FAULT", "stall:ARGA@8000ms")
        .spawn()
        .expect("daemon 1 spawns");
    wait_healthy(&addr, &mut d1, 30);

    let (st, body) = client::post(&addr, "/campaigns", SPEC).expect("submit reaches daemon");
    assert_eq!(st, 202, "{body}");

    // Kill as soon as the first workload has trained — ARGA is still inside
    // its stall, so its stream is not yet cached.
    let deadline = Instant::now() + Duration::from_secs(60);
    while metric(&addr, "gnnmark_serve_trainings_total") < 1 {
        assert!(Instant::now() < deadline, "daemon 1 never started training");
        std::thread::sleep(Duration::from_millis(100));
    }
    d1.kill().expect("SIGKILL daemon 1");
    let _ = d1.wait();

    // Daemon 2: same store and cache, no fault plan. The lease (2 s TTL)
    // expires, the job re-queues, and the cached TLSTM stream is reused.
    let mut d2 = spawn_daemon(&addr, &store, &cache, "crash-w2")
        .spawn()
        .expect("daemon 2 spawns");
    wait_healthy(&addr, &mut d2, 30);

    let deadline = Instant::now() + Duration::from_secs(180);
    loop {
        let (st, body) = client::get(&addr, "/jobs/0").expect("status poll");
        assert_eq!(st, 200, "{body}");
        if body.contains("\"state\":\"done\"") {
            assert!(
                body.contains("\"requeues\":1") || body.contains("\"requeues\":2"),
                "recovered job must record its requeue: {body}"
            );
            break;
        }
        assert!(!body.contains("\"state\":\"failed\""), "job failed: {body}");
        assert!(Instant::now() < deadline, "job never recovered: {body}");
        std::thread::sleep(Duration::from_millis(100));
    }

    // Daemon 2 trained at most the workload that was mid-capture when the
    // kill landed; the other came from daemon 1's cache entry.
    assert!(
        metric(&addr, "gnnmark_serve_trainings_total") <= 1,
        "daemon 2 retrained a cached workload"
    );
    assert!(
        metric(&addr, "gnnmark_serve_cache_hits_total") >= 1,
        "daemon 2 never hit the shared cache"
    );

    // The recovered output is byte-identical to the uninterrupted control.
    // The daemon keeps a job's files as one bundle; `sweep --out` writes
    // the same names as a tree.
    let served = JobStore::open(&store).expect("store opens");
    let job = served.job(0).expect("job 0 is in the store");
    let mut recovered: Vec<(PathBuf, Vec<u8>)> = served
        .artifacts(&job)
        .into_iter()
        .map(|(name, body)| (PathBuf::from(name), body.into_bytes()))
        .collect();
    recovered.sort();
    assert_eq!(
        reference, recovered,
        "recovered campaign output differs from the control run"
    );

    let _ = d2.kill();
    let _ = d2.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two daemons sharing one `--store` split a batch of jobs between them,
/// and the WAL shows exactly one `done` record per job id.
#[test]
fn two_workers_share_a_store_with_exactly_once_completion() {
    let dir = tmp("pair");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");
    let cache = dir.join("cache");
    let (addr_a, addr_b) = (port(1), port(2));

    let mut da = spawn_daemon(&addr_a, &store, &cache, "pair-a")
        .spawn()
        .expect("daemon A spawns");
    wait_healthy(&addr_a, &mut da, 30);
    let mut db = spawn_daemon(&addr_b, &store, &cache, "pair-b")
        .spawn()
        .expect("daemon B spawns");
    wait_healthy(&addr_b, &mut db, 30);

    // Three single jobs, submitted to A only; claims are arbitrated
    // through the shared store so either worker may take any of them.
    for device in ["v100", "a100", "v100"] {
        let body = format!(r#"{{"workload":"TLSTM","device":"{device}","seed":11}}"#);
        let (st, resp) = client::post(&addr_a, "/jobs", &body).expect("submit");
        assert_eq!(st, 202, "{resp}");
    }

    let deadline = Instant::now() + Duration::from_secs(180);
    'wait: loop {
        assert!(Instant::now() < deadline, "jobs never drained");
        // Either daemon's view works: both fold the same WAL.
        if let Ok((200, body)) = client::get(&addr_b, "/jobs") {
            let done = body.matches("\"state\":\"done\"").count();
            let failed = body.matches("\"state\":\"failed\"").count();
            assert_eq!(failed, 0, "a job failed: {body}");
            if done == 3 {
                break 'wait;
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    let _ = da.kill();
    let _ = da.wait();
    let _ = db.kill();
    let _ = db.wait();

    // Exactly-once: one `done` record per id across the whole log, and
    // both submitted workers appear in claim records (the batch really
    // was shared, not serviced by a single daemon).
    let records = gnnmark_serve::JobStore::dump_raw_records(&store).unwrap();
    for id in 0..3u64 {
        let done = records
            .iter()
            .filter(|r| r.contains("\"type\":\"done\"") && r.contains(&format!("\"id\":{id},")))
            .count();
        assert_eq!(
            done, 1,
            "job {id} must complete exactly once:\n{records:#?}"
        );
    }
    let claimed_by_a = records
        .iter()
        .any(|r| r.contains("\"type\":\"claim\"") && r.contains("pair-a"));
    let claimed_by_b = records
        .iter()
        .any(|r| r.contains("\"type\":\"claim\"") && r.contains("pair-b"));
    assert!(
        claimed_by_a || claimed_by_b,
        "no claim records in the WAL:\n{records:#?}"
    );

    let store_handle = gnnmark_serve::JobStore::open(&store).unwrap();
    for id in 0..3u64 {
        let job = store_handle.job(id).unwrap();
        assert_eq!(job.state, gnnmark_serve::JobState::Done, "{job:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
