//! The daemon wakes instead of sleeping: completion is recorded the
//! moment a campaign returns, shutdown and peer submissions are noticed
//! within one timed wait, and the accept loop sheds load by itself.
//!
//! Every test here runs a real `serve()` and stops it through the
//! process-wide shutdown flag, so they take turns on [`DAEMON`].

use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gnnmark_serve::{
    client, serve, CacheKey, CampaignSpec, JobState, JobStore, ServeConfig, StreamCache,
};

static DAEMON: Mutex<()> = Mutex::new(());

const JOB: &str = r#"{"workload":"TLSTM","scale":"test","seed":42,"epochs":1,"device":"a100"}"#;
/// [`JOB`] as the campaign spec the daemon expands it to.
const SPEC: &str = r#"{"name":"spec","scale":"test","seed":42,"epochs":1,"workloads":["TLSTM"],
                      "configs":[{"name":"a100","device":"a100"}]}"#;

/// Polls `probe` every few milliseconds until it yields a value.
fn wait_for<T>(what: &str, limit: Duration, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

struct Daemon {
    addr: String,
    dir: PathBuf,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Starts a daemon on a free port over a replay cache that already
    /// holds [`JOB`]'s stream, so jobs only replay.
    fn start(tag: &str, lease_ttl: Duration) -> Daemon {
        let dir = std::env::temp_dir().join(format!("gnnmark_wake_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = CampaignSpec::parse(SPEC).unwrap();
        StreamCache::new(dir.join("cache"))
            .fetch(&CacheKey {
                workload: spec.workloads[0],
                scale: spec.scale,
                seed: spec.seed,
                epochs: spec.epochs,
                precision: spec.precision,
                mode: spec.mode.clone(),
                phase: spec.phase,
            })
            .unwrap();
        // A free port: bind to 0, read it back, release it for the daemon.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .to_string();
        let cfg = ServeConfig {
            addr: addr.clone(),
            cache_dir: dir.join("cache"),
            results_dir: dir.join("results"),
            workers: 1,
            store_dir: dir.join("store"),
            worker_id: "wake".to_string(),
            lease_ttl,
        };
        let thread = std::thread::spawn(move || serve(&cfg));
        wait_for("the daemon to answer", Duration::from_secs(10), || {
            client::get(&addr, "/healthz").ok().filter(|r| r.0 == 200)
        });
        Daemon {
            addr,
            dir,
            thread: Some(thread),
        }
    }

    fn store_dir(&self) -> PathBuf {
        self.dir.join("store")
    }

    fn submit(&self, body: &str) -> u64 {
        let (status, text) = client::post(&self.addr, "/jobs", body).unwrap();
        assert_eq!(status, 202, "{text}");
        let id = text.rsplit_once("\"id\":").unwrap().1;
        id.trim_end_matches('}').parse().unwrap()
    }

    fn state(&self, id: u64) -> String {
        let (status, text) = client::get(&self.addr, &format!("/jobs/{id}")).unwrap();
        assert_eq!(status, 200, "{text}");
        let state = text.split_once("\"state\":\"").unwrap().1;
        state.split_once('"').unwrap().0.to_string()
    }

    /// Requests shutdown and returns how long `serve()` took to return.
    fn stop(&mut self) -> Duration {
        let asked = Instant::now();
        gnnmark::shutdown::request();
        self.thread.take().unwrap().join().unwrap().unwrap();
        asked.elapsed()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        gnnmark::shutdown::request();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        gnnmark::shutdown::reset_for_tests();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn done_records(store: &Path, id: u64) -> usize {
    JobStore::dump_raw_records(store)
        .unwrap()
        .iter()
        .filter(|r| r.contains("\"type\":\"done\"") && r.contains(&format!("\"id\":{id},")))
        .count()
}

#[test]
fn replay_job_is_done_without_waiting_for_a_heartbeat_tick() {
    let _turn = DAEMON.lock().unwrap_or_else(|e| e.into_inner());
    // Default TTL: the heartbeat ticks every 3.3 s.
    let daemon = Daemon::start("done", ServeConfig::default().lease_ttl);
    let submitted = Instant::now();
    let id = daemon.submit(JOB);
    wait_for("the job to finish", Duration::from_secs(30), || {
        (daemon.state(id) == "done").then_some(())
    });
    let took = submitted.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "replay-only job took {took:?}"
    );
    assert_eq!(done_records(&daemon.store_dir(), id), 1);
}

#[test]
fn long_job_still_heartbeats_and_keeps_its_lease() {
    let _turn = DAEMON.lock().unwrap_or_else(|e| e.into_inner());
    // TTL 450 ms ⇒ a tick every 150 ms; the capture stalls for 500 ms,
    // longer than the TTL, so only heartbeats keep the lease alive.
    std::env::set_var("GNNMARK_FAULT", "stall:TLSTM@500ms");
    let daemon = Daemon::start("stall", Duration::from_millis(450));
    std::env::remove_var("GNNMARK_FAULT");
    let id = daemon.submit(JOB);
    // Each heartbeat rewrites the lease file with a later expiry.
    let lock = daemon
        .store_dir()
        .join("locks")
        .join(format!("job-{id}.lock"));
    let mut expiries = Vec::new();
    wait_for("the stalled job to finish", Duration::from_secs(30), || {
        if let Ok(text) = std::fs::read_to_string(&lock) {
            if let Some(expiry) = text.lines().nth(1).and_then(|l| l.parse::<u64>().ok()) {
                if expiries.last() != Some(&expiry) {
                    expiries.push(expiry);
                }
            }
        }
        let s = daemon.state(id);
        (s != "running" && s != "queued").then_some(())
    });
    assert_eq!(daemon.state(id), "done", "the lease was held to the end");
    assert!(
        expiries.len() >= 3,
        "the claim plus at least two heartbeats, saw expiries {expiries:?}"
    );
    assert_eq!(done_records(&daemon.store_dir(), id), 1);
    let job = JobStore::open(daemon.store_dir()).unwrap().job(id).unwrap();
    assert_eq!(job.worker.as_deref(), Some("wake"));
    assert_eq!(job.faults_injected, 1);
}

#[test]
fn idle_daemon_returns_promptly_on_shutdown() {
    let _turn = DAEMON.lock().unwrap_or_else(|e| e.into_inner());
    let mut daemon = Daemon::start("idle", ServeConfig::default().lease_ttl);
    let took = daemon.stop();
    assert!(
        took < Duration::from_millis(250),
        "serve() returned after {took:?}"
    );
    let metrics = daemon.dir.join("results").join("final_metrics.prom");
    assert!(metrics.is_file(), "the drain still ran");
}

#[test]
fn peer_submission_is_found_by_the_timed_wait() {
    let _turn = DAEMON.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = Daemon::start("peer", ServeConfig::default().lease_ttl);
    // A second handle on the store is what a peer daemon's submission
    // looks like: a WAL record and no wake-up.
    let peer = JobStore::open(daemon.store_dir()).unwrap();
    let id = peer
        .submit_with(|_| ("spec".to_string(), SPEC.to_string()))
        .unwrap();
    let submitted = Instant::now();
    wait_for("the claim", Duration::from_secs(10), || {
        peer.refresh().unwrap();
        (peer.job(id).unwrap().state != JobState::Queued).then_some(())
    });
    let took = submitted.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "claimed after {took:?}, two idle waits are 50 ms"
    );
    wait_for("the peer's job to finish", Duration::from_secs(30), || {
        (daemon.state(id) == "done").then_some(())
    });
}

#[test]
fn accept_loop_refuses_connections_above_the_cap() {
    let _turn = DAEMON.lock().unwrap_or_else(|e| e.into_inner());
    let daemon = Daemon::start("cap", ServeConfig::default().lease_ttl);
    // 64 clients that connect and say nothing each pin a handler thread.
    let idle: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(&daemon.addr).unwrap())
        .collect();
    let refused = wait_for("a refusal", Duration::from_secs(5), || {
        client::get_headers(&daemon.addr, "/healthz")
            .ok()
            .filter(|r| r.0 == 503)
    });
    assert!(refused.1.contains("Retry-After: "), "{}", refused.1);
    // Their slots come back when they hang up.
    drop(idle);
    wait_for("service to resume", Duration::from_secs(5), || {
        client::get(&daemon.addr, "/healthz")
            .ok()
            .filter(|r| r.0 == 200)
    });
    let (_, metrics) = client::get(&daemon.addr, "/metrics").unwrap();
    assert!(
        metrics.contains("gnnmark_serve_connections_refused_total"),
        "{metrics}"
    );
}
