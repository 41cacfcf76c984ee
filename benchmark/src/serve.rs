//! `serve_jobs`: closed-loop jobs against the in-process daemon with its
//! default timings. One client, a new connection per request. A job is
//! `POST /jobs` → poll `GET /jobs/<id>` (alternating with `GET /healthz`)
//! until `done` → `GET /jobs/<id>/artifacts/merged.json`; every job after
//! the cold one in set-up replays a cached stream, so the daemon's HTTP,
//! store and lease code is all that takes time.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gnnmark_serve::{serve, JobStore, LeaseManager, ServeConfig};
use gnnmark_telemetry::export::{parse_json, JsonValue};

use crate::common::{peak_rss_mb, Outcome, Params, ScratchDir};
use crate::span::Tracer;
use crate::spec::{DAEMON_WORKERS, KERNEL_THREADS};
use crate::stats;

/// Devices the replay-only jobs alternate between.
const DEVICES: [&str; 2] = ["v100", "a100"];
/// A job not `done` after this long is a failed op.
const JOB_DEADLINE: Duration = Duration::from_secs(60);
/// Timed window of `--quick`.
const QUICK_WINDOW_S: f64 = 2.0;
/// Appends / claims timed by the store and lease probes.
const STORE_PROBE_REPS: usize = 200;

fn request(addr: &str, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

/// The in-process daemon; stopped and joined on drop.
struct Daemon {
    addr: String,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(dir: &ScratchDir) -> std::io::Result<Daemon> {
        // A free port: bind to 0, read it back, release it for the daemon.
        let addr = TcpListener::bind("127.0.0.1:0")?.local_addr()?.to_string();
        let cfg = ServeConfig {
            addr: addr.clone(),
            cache_dir: dir.path().join("cache"),
            results_dir: dir.path().join("results"),
            workers: DAEMON_WORKERS,
            store_dir: dir.path().join("store"),
            worker_id: "bench".to_string(),
            ..ServeConfig::default()
        };
        let thread = std::thread::spawn(move || serve(&cfg));
        let daemon = Daemon {
            addr,
            thread: Some(thread),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while request(&daemon.addr, "GET", "/healthz", "").map_or(true, |(s, _)| s != 200) {
            if Instant::now() > deadline {
                return Err(std::io::Error::other("daemon did not answer /healthz"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(daemon)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        gnnmark::shutdown::request();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Client-side latencies of one window of jobs.
#[derive(Default)]
struct Window {
    job_s: Vec<f64>,
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    healthz_ms: Vec<f64>,
    artifact_ms: Vec<f64>,
    polls: Vec<f64>,
    kernels: u64,
    seconds: f64,
}

impl Window {
    fn request_ms(&self) -> Vec<f64> {
        [
            &self.submit_ms,
            &self.status_ms,
            &self.healthz_ms,
            &self.artifact_ms,
        ]
        .into_iter()
        .flatten()
        .copied()
        .collect()
    }
}

struct Client<'a> {
    addr: &'a str,
    seed: u64,
    jobs: usize,
}

impl Client<'_> {
    /// One request as an op — a `POST` when it has a body — giving its
    /// latency in ms and the response body on a 2xx.
    fn call(
        &self,
        out: &mut Outcome,
        tracer: &mut Tracer,
        op: &str,
        route: &str,
        path: &str,
        body: &str,
    ) -> (f64, Option<String>) {
        let method = if body.is_empty() { "GET" } else { "POST" };
        let (result, secs) = tracer.span(route, op, |_| request(self.addr, method, path, body));
        let body = match result {
            Ok((status, body)) if (200..300).contains(&status) => Ok(body),
            Ok((status, _)) => Err(format!("status {status}")),
            Err(e) => Err(e.to_string()),
        };
        out.op(body.is_ok(), || {
            format!("{op}: {method} {path}: {}", body.as_ref().unwrap_err())
        });
        (secs * 1e3, body.ok())
    }

    /// Submits one job and follows it to `done`; returns false if it
    /// never got there.
    fn job(&mut self, out: &mut Outcome, tracer: &mut Tracer, w: &mut Window) -> bool {
        let op = format!("job/{}", self.jobs);
        let device = DEVICES[self.jobs % DEVICES.len()];
        self.jobs += 1;
        let spec = format!(
            "{{\"workload\":\"KGNNL\",\"scale\":\"test\",\"seed\":{},\"device\":\"{device}\"}}",
            self.seed
        );
        let (done, _) = tracer.span("bench.op", &op, |tracer| {
            let started = Instant::now();
            let (ms, body) = self.call(out, tracer, &op, "serve.http.submit", "/jobs", &spec);
            w.submit_ms.push(ms);
            let id = body
                .and_then(|b| parse_json(&b).ok())
                .and_then(|v| v.get("id").and_then(JsonValue::as_u64));
            let Some(id) = id else {
                out.op(false, || format!("{op}: submission returned no id"));
                return false;
            };
            let status_path = format!("/jobs/{id}");
            let mut polls = 0.0;
            loop {
                let (ms, body) = self.call(out, tracer, &op, "serve.http.status", &status_path, "");
                w.status_ms.push(ms);
                polls += 1.0;
                let state = body.and_then(|b| parse_json(&b).ok()).and_then(|v| {
                    v.get("state")
                        .and_then(JsonValue::as_str)
                        .map(str::to_string)
                });
                match state.as_deref() {
                    Some("done") => break,
                    Some("queued" | "running") if started.elapsed() < JOB_DEADLINE => {}
                    other => {
                        out.op(false, || format!("{op}: ended in state {other:?}"));
                        return false;
                    }
                }
                let (ms, _) = self.call(out, tracer, &op, "serve.http.healthz", "/healthz", "");
                w.healthz_ms.push(ms);
            }
            w.job_s.push(started.elapsed().as_secs_f64());
            w.polls.push(polls);
            out.op(true, String::new);

            let artifact = format!("/jobs/{id}/artifacts/merged.json");
            let (ms, body) = self.call(out, tracer, &op, "serve.http.artifact", &artifact, "");
            w.artifact_ms.push(ms);
            let kernels = body
                .and_then(|b| parse_json(&b).ok())
                .and_then(|v| merged_kernels(&v));
            out.check(kernels.is_some(), || {
                format!("{op}: merged.json does not parse")
            });
            w.kernels += kernels.unwrap_or(0);
            true
        });
        done
    }

    /// Jobs back to back for `window_s` seconds (at least one).
    fn window(&mut self, out: &mut Outcome, tracer: &mut Tracer, window_s: f64) -> Window {
        let mut w = Window::default();
        let timed = Instant::now();
        while w.job_s.is_empty() || timed.elapsed().as_secs_f64() < window_s {
            if !self.job(out, tracer, &mut w) {
                break;
            }
        }
        w.seconds = timed.elapsed().as_secs_f64();
        w
    }
}

/// Kernel events the job simulated, summed over `configs[].workloads[]`.
fn merged_kernels(merged: &JsonValue) -> Option<u64> {
    let mut kernels = 0;
    for config in merged.get("configs")?.as_array()? {
        for workload in config.get("workloads")?.as_array()? {
            kernels += workload.get("kernels")?.as_u64()?;
        }
    }
    Some(kernels)
}

/// Set-up: daemon start plus one cold job that trains and fills the cache.
fn set_up(p: &Params, dir: &ScratchDir, out: &mut Outcome) -> Option<Daemon> {
    // Only the cold job's training runs kernels; pin its thread count too.
    gnnmark_tensor::par::set_threads(KERNEL_THREADS);
    let daemon = match Daemon::start(dir) {
        Ok(d) => d,
        Err(e) => {
            out.check(false, || format!("daemon start: {e}"));
            return None;
        }
    };
    let mut cold = Outcome::default();
    let mut client = Client {
        addr: &daemon.addr,
        seed: p.seed,
        jobs: 0,
    };
    let done = client.job(&mut cold, &mut Tracer::new(false), &mut Window::default());
    out.check(
        done && cold.failed_ops == 0 && cold.check_failures == 0,
        || format!("cold job failed: {:?}", cold.notes),
    );
    Some(daemon)
}

fn window_seconds(p: &Params) -> f64 {
    if p.quick {
        QUICK_WINDOW_S
    } else {
        p.seconds
    }
}

/// The untraced run: the end-to-end metrics.
pub fn run(p: &Params, dir: &ScratchDir) -> Outcome {
    let mut out = Outcome::default();
    let Some(daemon) = set_up(p, dir, &mut out) else {
        return out;
    };
    out.set("setup_s", p.started.elapsed().as_secs_f64());
    if p.setup_only {
        return out;
    }
    let mut client = Client {
        addr: &daemon.addr,
        seed: p.seed,
        jobs: 1,
    };
    let w = client.window(&mut out, &mut Tracer::new(false), window_seconds(p));
    out.set_median("wall_s", &w.job_s);
    out.set("kernels_per_s", w.kernels as f64 / w.seconds);
    out.set_request_latency(&w.request_ms());
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// The traced run: per-route latencies from spans, then the store and
/// lease probes on a scratch store with no daemon attached.
pub fn trace(p: &Params, dir: &ScratchDir, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let Some(daemon) = set_up(p, dir, &mut out) else {
        return out;
    };

    let mut client = Client {
        addr: &daemon.addr,
        seed: p.seed,
        jobs: 1,
    };
    let half = window_seconds(p) / 2.0;
    let plain = client.window(&mut out, &mut Tracer::new(false), half);
    let traced = client.window(&mut out, tracer, half);
    drop(daemon);

    out.set_median("serve.http_healthz_p50_ms", &traced.healthz_ms);
    out.set_median("serve.http_status_p50_ms", &traced.status_ms);
    out.set_median("serve.http_submit_p50_ms", &traced.submit_ms);
    out.set_median("serve.job_polls", &traced.polls);
    let (plain_s, traced_s) = (stats::median(&plain.job_s), stats::median(&traced.job_s));
    if plain_s > 0.0 {
        out.set(
            "bench.trace_overhead_pct",
            (traced_s - plain_s) / plain_s * 100.0,
        );
    }

    let store_dir = dir.path().join("probe-store");
    match JobStore::open(&store_dir) {
        Ok(store) => {
            let mut append_ms = Vec::with_capacity(STORE_PROBE_REPS);
            for _ in 0..STORE_PROBE_REPS {
                let (id, secs) = tracer.span("serve.wal_append", "probe", |_| {
                    store.submit_with(|id| (format!("probe-{id}"), "{}".to_string()))
                });
                out.check(id.is_ok(), || "WAL append failed".to_string());
                append_ms.push(secs * 1e3);
            }
            out.set_median("serve.wal_append_ms", &append_ms);
        }
        Err(e) => out.check(false, || format!("probe store: {e}")),
    }
    let leases = LeaseManager::new(&store_dir, "probe", Duration::from_secs(10));
    let mut claim_ms = Vec::with_capacity(STORE_PROBE_REPS);
    for job_id in 0..STORE_PROBE_REPS as u64 {
        let (claimed, secs) = tracer.span("serve.lease_claim", "probe", |_| {
            leases
                .try_claim(job_id)
                .map(|lease| lease.map(|l| l.release()).is_some())
        });
        out.check(matches!(claimed, Ok(true)), || {
            format!("lease claim {job_id} failed")
        });
        claim_ms.push(secs * 1e3);
    }
    out.set_median("serve.lease_claim_ms", &claim_ms);
    out
}
