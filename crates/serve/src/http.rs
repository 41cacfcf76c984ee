//! Dependency-free HTTP/1.1 serving front-end over the durable job
//! store.
//!
//! A single-threaded accept loop on `std::net::TcpListener` plus one
//! background worker that claims jobs out of the WAL-backed
//! [`JobStore`] via lock-file [leases](crate::lease). Nothing on the
//! request, claim or completion path sleeps: the accept loop blocks in
//! `poll(2)` on the listener, a submission signals the idle worker's
//! condvar, and a finished job stops its heartbeat thread through a
//! channel — the timeouts on those waits only bound how late a peer's
//! submission or a shutdown request is noticed. Any number of
//! `gnnmark serve --store <dir>` processes may share one store: job ids
//! are allocated under the store's cross-process mutex, claims are
//! arbitrated by lease files, and a worker that stops heartbeating loses
//! its lease so the job is re-queued and retried elsewhere.
//!
//! | Method | Path                        | Meaning                                  |
//! |--------|-----------------------------|------------------------------------------|
//! | GET    | `/healthz`                  | liveness probe (`ok`)                    |
//! | GET    | `/metrics`                  | Prometheus text exposition               |
//! | GET    | `/dashboard`                | live HTML fleet dashboard                |
//! | GET    | `/jobs`                     | resident jobs by id + archived count     |
//! | POST   | `/jobs`                     | submit one replay job (JSON body)        |
//! | POST   | `/campaigns`                | submit a campaign spec (JSON body)       |
//! | GET    | `/jobs/<id>`                | job status JSON                          |
//! | GET    | `/jobs/<id>/report`         | HTML characterization report             |
//! | GET    | `/jobs/<id>/artifacts`      | artifact name list JSON                  |
//! | GET    | `/jobs/<id>/artifacts/<n>`  | one artifact body (CSV or JSON)          |
//!
//! A single job body is a one-workload, one-config campaign written
//! flat: `{"workload": "TLSTM", "scale": "test", "seed": 42,
//! "epochs": 1, "device": "v100", "l1_kb": 64, ...}` — it goes through
//! the same replay cache, so resubmitting an identical job never
//! retrains.
//!
//! On SIGINT/SIGTERM (`gnnmark::shutdown`) the daemon keeps serving
//! reads — status polls, artifact fetches, `/healthz`, `/metrics` — but
//! answers new submissions with `503` + `Retry-After` while the worker
//! finishes its in-flight job. Still-queued jobs stay `queued` in the
//! durable store and are picked up by a peer or the next restart; the
//! drain hook compacts the WAL and a final metrics snapshot is written
//! next to the results before the daemon returns.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gnnmark::shutdown;
use gnnmark_telemetry::export::{json_escape, metrics_prometheus, parse_json, JsonValue};
use gnnmark_telemetry::metrics;

use crate::campaign::{run_campaign, CampaignOptions};
use crate::lease::{Lease, LeaseManager};
use crate::spec::CampaignSpec;
use crate::store::{JobStore, StoredJob};
use crate::StreamCache;

/// Times a worker-killed job may be re-queued before failing terminally.
const MAX_REQUEUES: u64 = 3;
/// In-flight connection threads above which the accept loop answers
/// `503` itself instead of spawning another handler.
const MAX_CONNECTIONS: usize = 64;
/// How long an idle worker waits for a local submission before it looks
/// at the store again for jobs a peer daemon submitted.
const IDLE_WAIT: Duration = Duration::from_millis(25);
/// How long the accept loop blocks on the listener before it re-checks
/// the shutdown flag and the worker thread.
const ACCEPT_WAIT: Duration = Duration::from_millis(50);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:8642`.
    pub addr: String,
    /// Replay-cache directory.
    pub cache_dir: PathBuf,
    /// Directory the shutdown metrics snapshot is written under.
    pub results_dir: PathBuf,
    /// Worker threads per campaign.
    pub workers: usize,
    /// Durable job store directory (WAL, snapshot, leases, artifacts).
    /// Point several daemons at the same directory to scale out.
    pub store_dir: PathBuf,
    /// Worker identity for lease claims; empty = `worker-<pid>`.
    pub worker_id: String,
    /// Lease TTL: a worker that misses heartbeats for this long loses
    /// its in-flight job to a peer (or its own restart).
    pub lease_ttl: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8642".to_string(),
            cache_dir: PathBuf::from("results/serve/cache"),
            results_dir: PathBuf::from("results/serve"),
            workers: 2,
            store_dir: PathBuf::from("results/serve/store"),
            worker_id: String::new(),
            lease_ttl: Duration::from_secs(10),
        }
    }
}

struct Daemon {
    store: Arc<JobStore>,
    leases: LeaseManager,
    cache: StreamCache,
    opts: CampaignOptions,
    /// Set once shutdown is requested: submissions get `503 Retry-After`
    /// while reads keep flowing.
    draining: AtomicBool,
    /// "A job was submitted through this daemon since the worker last
    /// looked": set by the submit handlers, cleared by the idle worker.
    submitted: Mutex<bool>,
    wake: Condvar,
    /// `handle_connection` threads currently alive.
    connections: AtomicUsize,
}

impl Daemon {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || shutdown::requested()
    }

    /// Validates and durably submits a campaign spec body. The spec text
    /// itself is what's persisted — recovery re-parses it.
    fn submit_campaign(&self, body: &str) -> Result<u64, String> {
        let spec = CampaignSpec::parse(body)?;
        let id = self
            .store
            .submit_with(|_id| (spec.name.clone(), body.to_string()))
            .map_err(|e| format!("store append failed: {e}"))?;
        self.wake_worker();
        Ok(id)
    }

    /// Validates and durably submits a flat single-job body.
    fn submit_single(&self, v: &JsonValue) -> Result<u64, String> {
        single_job_spec(v, 0)?; // validate before allocating an id
        let id = self
            .store
            .submit_with(|id| {
                let text = single_job_spec_json(v, id);
                (format!("job-{id}"), text)
            })
            .map_err(|e| format!("store append failed: {e}"))?;
        self.wake_worker();
        Ok(id)
    }

    fn wake_worker(&self) {
        *self.submitted.lock().expect("submitted flag poisoned") = true;
        self.wake.notify_one();
    }

    /// Blocks the worker until a local submission signals it or `timeout`
    /// passes — the timed wait is what finds a peer daemon's submissions
    /// to a shared store, and what bounds how late shutdown is noticed.
    fn idle(&self, timeout: Duration) {
        let mut submitted = self.submitted.lock().expect("submitted flag poisoned");
        if !*submitted {
            submitted = self
                .wake
                .wait_timeout(submitted, timeout)
                .expect("submitted flag poisoned")
                .0;
        }
        *submitted = false;
    }

    /// Worker loop: recover dead peers' jobs, claim the next queued job
    /// under a lease, run it, and durably record the outcome. Exits once
    /// shutdown is requested and the in-flight job (if any) finished.
    fn work(&self) {
        loop {
            if shutdown::requested() {
                return;
            }
            let _ = self.store.refresh();
            let _ = self
                .store
                .recover_dead(MAX_REQUEUES, |id| self.leases.is_dead(id));
            let Some(job) = self.store.next_queued() else {
                self.idle(IDLE_WAIT);
                continue;
            };
            match self.leases.try_claim(job.id) {
                Ok(Some(lease)) => {
                    if self
                        .store
                        .record_claim(job.id, self.leases.worker_id())
                        .is_err()
                    {
                        lease.release();
                        continue;
                    }
                    self.run_job(&job, lease);
                }
                // Lost the claim race (or a transient fs error): another
                // worker owns it; wait for the claim record to land.
                _ => self.idle(Duration::from_millis(10)),
            }
        }
    }

    /// Runs one claimed job under a heartbeat thread and records the
    /// outcome — but only if the lease is still ours, so a worker that
    /// stalled past its TTL defers to whichever peer stole the job.
    fn run_job(&self, job: &StoredJob, lease: Lease) {
        metrics::counter_add("gnnmark_serve_jobs_started_total", 1);
        let worker = self.leases.worker_id().to_string();
        let id = job.id;
        let spec = match CampaignSpec::parse(&job.spec_json) {
            Ok(spec) => spec,
            Err(e) => {
                let _ = self.store.record_failed(
                    id,
                    &worker,
                    &format!("invalid stored spec: {e}"),
                    0,
                    0,
                );
                lease.release();
                return;
            }
        };

        let lease = Arc::new(lease);
        // The heartbeat thread ticks on `recv_timeout`: dropping `stop_hb`
        // ends it at once, so completion is recorded the moment the
        // campaign returns instead of after the current tick.
        let (stop_hb, stopped) = mpsc::channel::<()>();
        let hb = {
            let lease = Arc::clone(&lease);
            let tick = (self.leases.ttl() / 3).max(Duration::from_millis(50));
            std::thread::spawn(move || {
                while stopped.recv_timeout(tick) == Err(RecvTimeoutError::Timeout) {
                    if !lease.heartbeat().unwrap_or(false) {
                        return; // lease lost — the thief owns the job now
                    }
                }
            })
        };

        let mut opts = self.opts.clone();
        {
            let store = Arc::clone(&self.store);
            opts.progress = Some(Arc::new(move |msg: &str| {
                let _ = store.record_progress(id, msg);
            }));
        }
        let result = run_campaign(&spec, &self.cache, &opts);
        drop(stop_hb);
        let _ = hb.join();

        match result {
            Ok(out) => {
                // Named as `CampaignOutput::write_to` names the same
                // bodies under `<out>/<campaign>/`.
                let mut files = vec![("merged.json".to_string(), out.merged_json.clone())];
                for (config, file, csv) in out.figure_csvs() {
                    files.push((format!("{config}/{file}"), csv));
                }
                let written = self.store.write_artifacts(id, &files);
                let artifacts: Vec<String> = files.into_iter().map(|(name, _)| name).collect();
                if !lease.still_held() {
                    // Stolen mid-run: the thief records completion; ours
                    // would be dropped by first-done-wins anyway.
                    metrics::counter_add("gnnmark_serve_jobs_abandoned_total", 1);
                } else {
                    let _ = match written {
                        Ok(bundle) if out.complete() => self.store.record_done(
                            id,
                            &worker,
                            &bundle,
                            &artifacts,
                            out.attempts,
                            out.faults_injected,
                        ),
                        Ok(_) => self.store.record_failed(
                            id,
                            &worker,
                            &out.failures.join("; "),
                            out.attempts,
                            out.faults_injected,
                        ),
                        Err(e) => self.store.record_failed(
                            id,
                            &worker,
                            &format!("writing artifacts failed: {e}"),
                            out.attempts,
                            out.faults_injected,
                        ),
                    };
                }
            }
            Err(e) => {
                if lease.still_held() {
                    let _ = self.store.record_failed(id, &worker, &e, 0, 0);
                }
            }
        }
        if let Ok(lease) = Arc::try_unwrap(lease) {
            lease.release();
        }
        metrics::counter_add("gnnmark_serve_jobs_finished_total", 1);
    }
}

struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
    /// `Retry-After` seconds (drain-mode 503s).
    retry_after: Option<u64>,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            retry_after: None,
        }
    }

    fn html(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/html; charset=utf-8",
            body,
            retry_after: None,
        }
    }

    fn error(status: u16, msg: &str) -> Response {
        Self::json(
            status,
            format!("{{\"error\":\"{}\"}}", msg.replace('"', "'")),
        )
    }

    /// Drain-mode refusal for new submissions: clients should retry
    /// against a peer worker or after the restart.
    fn unavailable() -> Response {
        let mut r = Self::error(503, "draining: submissions refused, retry later");
        r.retry_after = Some(5);
        r
    }
}

/// The flat single-job body expanded into campaign-spec JSON text (this
/// exact text is persisted in the job store and re-parsed on recovery).
fn single_job_spec_json(v: &JsonValue, id: u64) -> String {
    let workload = v.get("workload").and_then(|x| x.as_str()).unwrap_or("");
    let scale = v.get("scale").and_then(|x| x.as_str()).unwrap_or("test");
    let seed = v.get("seed").and_then(|x| x.as_u64()).unwrap_or(42);
    let epochs = v.get("epochs").and_then(|x| x.as_u64()).unwrap_or(1);
    // Execution phase: `"kind":"infer"` submits a forward-only inference
    // job (the spec parser validates the value; `epochs` then doubles as
    // the batched-step count).
    let kind = v
        .get("kind")
        .and_then(|x| x.as_str())
        .map(|k| format!(",\"kind\":\"{k}\""))
        .unwrap_or_default();
    let device = v.get("device").and_then(|x| x.as_str()).unwrap_or("v100");
    let mut cfg = format!("{{\"name\":\"{device}\",\"device\":\"{device}\"");
    for key in ["l1_kb", "nvlink_gbps", "gpus"] {
        if let Some(x) = v.get(key).and_then(|x| x.as_f64()) {
            cfg.push_str(&format!(",\"{key}\":{x}"));
        }
    }
    if let Some(true) = v.get("half_precision").and_then(|x| x.as_bool()) {
        cfg.push_str(",\"half_precision\":true");
    }
    cfg.push('}');
    format!(
        r#"{{"name":"job-{id}","scale":"{scale}","seed":{seed},"epochs":{epochs}{kind},
            "workloads":["{workload}"],"configs":[{cfg}]}}"#
    )
}

/// Turns a flat single-job JSON body into a one-config campaign spec.
fn single_job_spec(v: &JsonValue, id: u64) -> Result<CampaignSpec, String> {
    if v.get("workload").and_then(|x| x.as_str()).is_none() {
        return Err("missing field \"workload\"".to_string());
    }
    CampaignSpec::parse(&single_job_spec_json(v, id))
}

fn job_status_json(job: &StoredJob) -> String {
    let detail = if job.detail.is_empty() {
        String::new()
    } else {
        format!(",\"detail\":\"{}\"", json_escape(&job.detail))
    };
    let worker = job
        .worker
        .as_deref()
        .map_or("null".to_string(), |w| format!("\"{}\"", json_escape(w)));
    format!(
        "{{\"id\":{},\"campaign\":\"{}\",\"state\":\"{}\",\"artifacts\":{},\
         \"worker\":{worker},\"attempts\":{},\"requeues\":{},\"faults\":{},\
         \"progress\":\"{}\"{detail}}}",
        job.id,
        json_escape(&job.name),
        job.state.label(),
        job.artifacts.len(),
        job.attempts,
        job.requeues,
        job.faults_injected,
        json_escape(&job.progress),
    )
}

fn handle(daemon: &Daemon, method: &str, path: &str, body: &str) -> Response {
    match (method, path) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/metrics") => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4",
            body: metrics_prometheus(&metrics::snapshot()),
            retry_after: None,
        },
        ("GET", "/dashboard") => {
            let _ = daemon.store.refresh();
            Response::html(
                200,
                crate::dashboard::dashboard_page(
                    &daemon.store.jobs(),
                    daemon.store.archived_jobs(),
                    daemon.draining(),
                    daemon.leases.worker_id(),
                ),
            )
        }
        ("GET", "/jobs") => {
            let _ = daemon.store.refresh();
            let rows: Vec<String> = daemon.store.jobs().iter().map(job_status_json).collect();
            Response::json(
                200,
                format!(
                    "{{\"archived\":{},\"jobs\":[{}]}}",
                    daemon.store.archived_jobs(),
                    rows.join(",")
                ),
            )
        }
        ("POST", "/jobs") => {
            if daemon.draining() {
                return Response::unavailable();
            }
            let v = match parse_json(body) {
                Ok(v) => v,
                Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
            };
            match daemon.submit_single(&v) {
                Ok(id) => Response::json(202, format!("{{\"id\":{id}}}")),
                Err(e) => Response::error(400, &e),
            }
        }
        ("POST", "/campaigns") => {
            if daemon.draining() {
                return Response::unavailable();
            }
            match daemon.submit_campaign(body) {
                Ok(id) => Response::json(202, format!("{{\"id\":{id}}}")),
                Err(e) => Response::error(400, &e),
            }
        }
        ("GET", p) if p.starts_with("/jobs/") => {
            let rest = &p["/jobs/".len()..];
            let (id_s, tail) = match rest.find('/') {
                Some(i) => (&rest[..i], &rest[i + 1..]),
                None => (rest, ""),
            };
            let Ok(id) = id_s.parse::<u64>() else {
                return Response::error(400, "job id must be an integer");
            };
            let _ = daemon.store.refresh();
            let Some(job) = daemon.store.job(id) else {
                return Response::error(404, "no such job");
            };
            match tail {
                "" => Response::json(200, job_status_json(&job)),
                "report" => match crate::dashboard::job_report_page(&job, &daemon.cache) {
                    Ok(html) => Response::html(200, html),
                    Err(e) => Response::error(500, &e),
                },
                "artifacts" => {
                    let names: Vec<String> = job
                        .artifacts
                        .iter()
                        .map(|n| format!("\"{}\"", json_escape(n)))
                        .collect();
                    Response::json(200, format!("[{}]", names.join(",")))
                }
                name => {
                    let name = name.strip_prefix("artifacts/").unwrap_or(name);
                    // Only names the completing worker recorded are
                    // servable — the WAL record is the whitelist, so no
                    // request path ever escapes the store directory.
                    if !job.artifacts.iter().any(|n| n == name) {
                        return Response::error(404, "no such artifact");
                    }
                    let stored = daemon.store.artifacts(&job);
                    match stored.into_iter().find(|(n, _)| n == name) {
                        Some((_, body)) => Response {
                            status: 200,
                            content_type: if name.ends_with(".json") {
                                "application/json"
                            } else {
                                "text/csv"
                            },
                            body,
                            retry_after: None,
                        },
                        None => Response::error(404, "artifact missing on disk"),
                    }
                }
            }
        }
        _ => Response::error(404, "unknown route"),
    }
}

/// Collapses a request path onto a fixed route label so the per-route
/// latency histograms stay bounded-cardinality no matter what ids or
/// artifact names clients ask for.
fn route_label(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("GET", "/healthz") => "GET /healthz",
        ("GET", "/metrics") => "GET /metrics",
        ("GET", "/dashboard") => "GET /dashboard",
        ("GET", "/jobs") => "GET /jobs",
        ("POST", "/jobs") => "POST /jobs",
        ("POST", "/campaigns") => "POST /campaigns",
        ("GET", p) if p.starts_with("/jobs/") => {
            let rest = &p["/jobs/".len()..];
            match rest.find('/').map(|i| &rest[i + 1..]) {
                None => "GET /jobs/:id",
                Some("report") => "GET /jobs/:id/report",
                Some("artifacts") => "GET /jobs/:id/artifacts",
                Some(_) => "GET /jobs/:id/artifacts/:name",
            }
        }
        _ => "other",
    }
}

/// Reads one HTTP/1.1 request: `(method, path, body)`.
fn read_request(stream: &mut TcpStream) -> std::io::Result<(String, String, String)> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h)? == 0 {
            break;
        }
        let h = h.trim();
        if h.is_empty() {
            break;
        }
        if let Some(v) = h
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
            .and_then(|v| v.parse::<usize>().ok())
        {
            content_length = v.min(4 << 20); // 4 MiB request cap
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((method, path, String::from_utf8_lossy(&body).into_owned()))
}

fn write_response(stream: &mut TcpStream, r: &Response) -> std::io::Result<()> {
    let reason = match r.status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let retry = r
        .retry_after
        .map_or(String::new(), |s| format!("Retry-After: {s}\r\n"));
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n{}",
        r.status,
        reason,
        r.content_type,
        r.body.len(),
        retry,
        r.body
    )?;
    stream.flush()
}

/// One accepted connection: enforce read/write deadlines so a stalled
/// client can't pin a server thread, answer `408` when the request never
/// arrives, and record per-status counters plus a latency histogram.
fn handle_connection(daemon: &Daemon, stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let started = Instant::now();
    let (route, resp) = match read_request(stream) {
        Ok((method, path, body)) => (
            route_label(&method, &path),
            handle(daemon, &method, &path, &body),
        ),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            metrics::counter_add("gnnmark_serve_read_timeouts_total", 1);
            ("timeout", Response::error(408, "timed out reading request"))
        }
        Err(_) => return, // client went away mid-request
    };
    metrics::counter_add(
        &format!(
            "gnnmark_serve_responses_total{{status=\"{}\"}}",
            resp.status
        ),
        1,
    );
    metrics::observe(
        "gnnmark_serve_request_seconds",
        started.elapsed().as_secs_f64(),
    );
    // Fixed-boundary per-route histogram: the dashboard's SLO panel and
    // `gnnmark loadtest` quantiles both read these exact buckets.
    metrics::observe_bucketed(
        &format!("gnnmark_serve_route_seconds{{route=\"{route}\"}}"),
        started.elapsed().as_secs_f64(),
        metrics::LATENCY_BUCKETS_S,
    );
    let _ = write_response(stream, &resp);
}

/// Over-capacity refusal written from the accept loop itself: no handler
/// thread, no request read. The write deadline keeps a client that never
/// reads from pinning the loop (the response fits any socket buffer).
fn refuse_connection(stream: &mut TcpStream) {
    metrics::counter_add("gnnmark_serve_connections_refused_total", 1);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let mut resp = Response::error(503, "too many connections, retry later");
    resp.retry_after = Some(1);
    let _ = write_response(stream, &resp);
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// One unit of [`MAX_CONNECTIONS`], held by a connection thread and
/// returned when it ends, however it ends.
struct ConnectionSlot(Arc<Daemon>);

impl ConnectionSlot {
    fn take(daemon: &Arc<Daemon>) -> ConnectionSlot {
        daemon.connections.fetch_add(1, Ordering::SeqCst);
        ConnectionSlot(Arc::clone(daemon))
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Blocks until the (non-blocking) listener has a connection to accept
/// or `timeout` passes.
#[cfg(unix)]
fn wait_readable(listener: &TcpListener, timeout: Duration) {
    use std::ffi::{c_int, c_short};
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    #[cfg(target_os = "linux")]
    type NfdsT = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::ffi::c_uint;
    // `std` already links libc; declaring the one call we need keeps the
    // crate dependency-free (as `gnnmark::shutdown` does for `signal`).
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }
    const POLLIN: c_short = 0x001;

    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let millis = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `fd` is one valid, exclusively borrowed `pollfd` (the
    // `repr(C)` layout POSIX specifies) and `nfds` is 1; the descriptor
    // stays open for the call because `listener` is borrowed. Every
    // outcome — ready, timeout, `EINTR` — just returns to the caller's
    // `accept`, so the return value carries nothing we need.
    unsafe {
        poll(&mut fd, 1, millis);
    }
}

#[cfg(not(unix))]
fn wait_readable(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_millis(20)));
}

/// Keeps large allocations `mmap`-backed for the life of the process.
///
/// Every replay builds a simulator whose L2 tag array is 0.4–2.6 MB,
/// zeroed by `calloc` and freed microseconds later. glibc starts by
/// `mmap`ing such blocks (never touched unless written, unmapped on
/// free), but the first free raises its *dynamic* mmap threshold above
/// them: from then on they are carved out of arena heaps, `calloc` has to
/// memset (touch) all of it, and every thread's arena retains its copy —
/// a daemon serving hundreds of jobs a second ends up with the tag arrays
/// resident several times over. Setting the threshold explicitly (to its
/// own default) turns the dynamic adjustment off.
///
/// The tag arrays are not what makes a campaign's memory depend on thread
/// scheduling: with `mmap`-backed tag arrays and nothing else changed, the
/// `replay_sweep` benchmark still read 161–218 MiB. That came from the
/// decoded streams and per-replay kernel metrics being allocated on
/// short-lived threads, which the campaign engine avoids by allocating
/// them on the campaign thread (see `campaign`'s module docs). This pin
/// stays a daemon-only setting: it is process-wide, and in `replay_sweep`
/// it costs 4–12 % of wall time.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` only updates allocator tunables under the
    // allocator's own lock; it is safe to call at any time from any thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

/// Runs the daemon until SIGINT/SIGTERM (or [`shutdown::request`] from
/// another thread, which is how tests stop it). On startup, replays the
/// store's WAL and re-queues jobs whose workers died mid-flight.
///
/// # Errors
/// Propagates socket errors from binding the listen address and
/// filesystem errors from opening the store.
pub fn serve(cfg: &ServeConfig) -> std::io::Result<()> {
    shutdown::install();
    pin_mmap_threshold();
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;

    let store = Arc::new(JobStore::open(&cfg.store_dir)?);
    let worker_id = if cfg.worker_id.is_empty() {
        format!("worker-{}", std::process::id())
    } else {
        cfg.worker_id.clone()
    };
    let leases = LeaseManager::new(&cfg.store_dir, worker_id, cfg.lease_ttl);
    let recovered = store.recover_dead(MAX_REQUEUES, |id| leases.is_dead(id))?;
    if !recovered.is_empty() {
        eprintln!(
            "gnnmark-serve: re-queued {} job(s) from dead workers: {recovered:?}",
            recovered.len()
        );
    }
    {
        // Final WAL flush on drain: fold the log into a fresh snapshot so
        // the next open replays nothing.
        let store = Arc::clone(&store);
        shutdown::on_drain(move || {
            let _ = store.compact();
        });
    }

    let daemon = Arc::new(Daemon {
        store,
        leases,
        cache: StreamCache::new(&cfg.cache_dir),
        opts: {
            let mut opts = CampaignOptions {
                workers: cfg.workers,
                ..CampaignOptions::default()
            };
            // `GNNMARK_FAULT` drills daemon job workers like any suite run;
            // injected faults are counted into the durable job record.
            opts.resilience = opts
                .resilience
                .clone()
                .with_faults(gnnmark::resilience::FaultPlan::from_env());
            opts
        },
        draining: AtomicBool::new(false),
        submitted: Mutex::new(false),
        wake: Condvar::new(),
        connections: AtomicUsize::new(0),
    });
    let worker = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || daemon.work())
    };
    eprintln!(
        "gnnmark-serve [{}] listening on http://{local} (store: {})",
        daemon.leases.worker_id(),
        cfg.store_dir.display()
    );

    // Refused connections stay open, write side shut, for one more
    // `ACCEPT_WAIT`: closing with the request still unread (or still on
    // its way) resets the connection, which can take the 503 with it.
    let mut refused: VecDeque<(Instant, TcpStream)> = VecDeque::new();

    // Accept loop. Once shutdown is requested, reads keep being served
    // (and submissions 503) until the worker's in-flight job completes.
    loop {
        while refused.len() > MAX_CONNECTIONS
            || refused
                .front()
                .is_some_and(|(at, _)| at.elapsed() >= ACCEPT_WAIT)
        {
            refused.pop_front();
        }
        if shutdown::requested() {
            if !daemon.draining.swap(true, Ordering::SeqCst) {
                eprintln!("gnnmark-serve: shutdown requested, draining");
            }
            if worker.is_finished() {
                break;
            }
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                if daemon.connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                    refuse_connection(&mut stream);
                    refused.push_back((Instant::now(), stream));
                    continue;
                }
                let slot = ConnectionSlot::take(&daemon);
                // One thread per connection; requests are tiny and
                // Connection: close keeps lifetimes bounded.
                std::thread::spawn(move || {
                    handle_connection(&slot.0, &mut stream);
                    drop(slot);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                wait_readable(&listener, ACCEPT_WAIT);
            }
            Err(e) => return Err(e),
        }
    }

    let _ = worker.join();
    shutdown::run_drain_hooks();
    std::fs::create_dir_all(&cfg.results_dir)?;
    std::fs::write(
        cfg.results_dir.join("final_metrics.prom"),
        metrics_prometheus(&metrics::snapshot()),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_daemon(tag: &str) -> Daemon {
        let root =
            std::env::temp_dir().join(format!("gnnmark_http_unit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store_dir = root.join("store");
        Daemon {
            store: Arc::new(JobStore::open(&store_dir).unwrap()),
            leases: LeaseManager::new(&store_dir, "unit", Duration::from_secs(10)),
            cache: StreamCache::new(root.join("cache")),
            opts: CampaignOptions::default(),
            draining: AtomicBool::new(false),
            submitted: Mutex::new(false),
            wake: Condvar::new(),
            connections: AtomicUsize::new(0),
        }
    }

    #[test]
    fn routes_respond() {
        let daemon = test_daemon("routes");
        assert_eq!(handle(&daemon, "GET", "/healthz", "").status, 200);
        assert_eq!(handle(&daemon, "GET", "/metrics", "").status, 200);
        assert_eq!(handle(&daemon, "GET", "/nope", "").status, 404);
        assert_eq!(handle(&daemon, "GET", "/jobs/0", "").status, 404);
        assert_eq!(handle(&daemon, "POST", "/jobs", "not json").status, 400);
        assert_eq!(
            handle(&daemon, "POST", "/jobs", r#"{"workload":"NOPE"}"#).status,
            400
        );
        assert_eq!(
            handle(&daemon, "POST", "/campaigns", r#"{"name":"x"}"#).status,
            400
        );
        // A valid submission is durably queued (no worker runs here, so
        // it stays queued — status is readable immediately).
        let r = handle(&daemon, "POST", "/jobs", r#"{"workload":"TLSTM"}"#);
        assert_eq!(r.status, 202);
        assert!(r.body.contains("\"id\":0"));
        let st = handle(&daemon, "GET", "/jobs/0", "");
        assert_eq!(st.status, 200);
        assert!(st.body.contains("\"state\":\"queued\""), "{}", st.body);
        let listing = handle(&daemon, "GET", "/jobs", "");
        assert_eq!(listing.status, 200);
        assert!(
            listing
                .body
                .starts_with("{\"archived\":0,\"jobs\":[{\"id\":0,"),
            "{}",
            listing.body
        );
        let _ = std::fs::remove_dir_all(daemon.store.dir().parent().unwrap());
    }

    #[test]
    fn job_kind_field_selects_the_inference_phase() {
        let daemon = test_daemon("kind");
        // Unknown kinds are rejected at submission, not at run time.
        assert_eq!(
            handle(
                &daemon,
                "POST",
                "/jobs",
                r#"{"workload":"TLSTM","kind":"predict"}"#
            )
            .status,
            400
        );
        let r = handle(
            &daemon,
            "POST",
            "/jobs",
            r#"{"workload":"TLSTM","kind":"infer"}"#,
        );
        assert_eq!(r.status, 202);
        let job = daemon.store.job(0).unwrap();
        assert!(
            job.spec_json.contains("\"kind\":\"infer\""),
            "{}",
            job.spec_json
        );
        let spec = CampaignSpec::parse(&job.spec_json).unwrap();
        assert_eq!(spec.phase, gnnmark::infer::ExecPhase::Infer);
        let _ = std::fs::remove_dir_all(daemon.store.dir().parent().unwrap());
    }

    #[test]
    fn submissions_survive_a_new_store_handle() {
        let daemon = test_daemon("durable");
        let r = handle(
            &daemon,
            "POST",
            "/jobs",
            r#"{"workload":"TLSTM","device":"a100"}"#,
        );
        assert_eq!(r.status, 202);
        // A second handle on the same directory — the restart code path —
        // sees the job without any in-memory state.
        let reopened = JobStore::open(daemon.store.dir()).unwrap();
        let job = reopened.job(0).expect("job must be durable");
        assert_eq!(job.name, "job-0");
        assert!(job.spec_json.contains("\"workloads\":[\"TLSTM\"]"));
        let _ = std::fs::remove_dir_all(daemon.store.dir().parent().unwrap());
    }

    #[test]
    fn draining_rejects_submissions_but_serves_reads() {
        let daemon = test_daemon("drain");
        let r = handle(&daemon, "POST", "/jobs", r#"{"workload":"TLSTM"}"#);
        assert_eq!(r.status, 202);
        daemon.draining.store(true, Ordering::SeqCst);
        let refused = handle(&daemon, "POST", "/jobs", r#"{"workload":"TLSTM"}"#);
        assert_eq!(refused.status, 503);
        assert_eq!(refused.retry_after, Some(5), "503 must carry Retry-After");
        assert_eq!(
            handle(&daemon, "POST", "/campaigns", "{}").status,
            503,
            "campaign submissions are refused too"
        );
        // Reads keep working for clients polling in-flight jobs.
        assert_eq!(handle(&daemon, "GET", "/healthz", "").status, 200);
        assert_eq!(handle(&daemon, "GET", "/jobs/0", "").status, 200);
        assert_eq!(handle(&daemon, "GET", "/jobs", "").status, 200);
        assert_eq!(handle(&daemon, "GET", "/metrics", "").status, 200);
        // The dashboard keeps serving too, and shows the drain state.
        let dash = handle(&daemon, "GET", "/dashboard", "");
        assert_eq!(dash.status, 200);
        assert!(
            dash.body.contains("draining"),
            "dashboard surfaces drain state"
        );
        assert_eq!(handle(&daemon, "GET", "/jobs/0/report", "").status, 200);
        let _ = std::fs::remove_dir_all(daemon.store.dir().parent().unwrap());
    }

    #[test]
    fn dashboard_and_job_report_routes_serve_html() {
        let daemon = test_daemon("dash");
        let dash = handle(&daemon, "GET", "/dashboard", "");
        assert_eq!(dash.status, 200);
        assert_eq!(dash.content_type, "text/html; charset=utf-8");
        assert!(dash.body.starts_with("<!DOCTYPE html>"));
        assert!(dash.body.contains("No jobs submitted yet"));
        // A report on a job that does not exist is a 404, not a blank page.
        assert_eq!(handle(&daemon, "GET", "/jobs/0/report", "").status, 404);
        assert_eq!(
            handle(&daemon, "POST", "/jobs", r#"{"workload":"TLSTM"}"#).status,
            202
        );
        let rep = handle(&daemon, "GET", "/jobs/0/report", "");
        assert_eq!(rep.status, 200);
        assert_eq!(rep.content_type, "text/html; charset=utf-8");
        assert!(rep.body.contains("id=\"sec-job\""), "{}", rep.body);
        // The fleet table now links to the job's report.
        let dash = handle(&daemon, "GET", "/dashboard", "");
        assert!(dash.body.contains("href=\"/jobs/0/report\""));
        let _ = std::fs::remove_dir_all(daemon.store.dir().parent().unwrap());
    }

    #[test]
    fn content_types_match_bodies() {
        let daemon = test_daemon("ctype");
        let expect = [
            ("/healthz", "text/plain; charset=utf-8"),
            ("/metrics", "text/plain; version=0.0.4"),
            ("/jobs", "application/json"),
            ("/dashboard", "text/html; charset=utf-8"),
        ];
        for (path, ctype) in expect {
            assert_eq!(
                handle(&daemon, "GET", path, "").content_type,
                ctype,
                "{path}"
            );
        }
        // Errors are JSON envelopes.
        assert_eq!(
            handle(&daemon, "GET", "/nope", "").content_type,
            "application/json"
        );
        let _ = std::fs::remove_dir_all(daemon.store.dir().parent().unwrap());
    }

    #[test]
    fn route_labels_collapse_ids_and_names() {
        assert_eq!(route_label("GET", "/jobs/17"), "GET /jobs/:id");
        assert_eq!(
            route_label("GET", "/jobs/17/report"),
            "GET /jobs/:id/report"
        );
        assert_eq!(
            route_label("GET", "/jobs/17/artifacts"),
            "GET /jobs/:id/artifacts"
        );
        assert_eq!(
            route_label("GET", "/jobs/17/artifacts/v100/figure7.csv"),
            "GET /jobs/:id/artifacts/:name"
        );
        assert_eq!(route_label("GET", "/dashboard"), "GET /dashboard");
        assert_eq!(route_label("DELETE", "/jobs/17"), "other");
    }

    #[test]
    fn single_job_body_expands_to_one_config_campaign() {
        let v =
            parse_json(r#"{"workload":"TLSTM","device":"a100","gpus":4,"half_precision":true}"#)
                .unwrap();
        let spec = single_job_spec(&v, 7).unwrap();
        assert_eq!(spec.name, "job-7");
        assert_eq!(spec.workloads.len(), 1);
        assert_eq!(spec.configs.len(), 1);
        assert_eq!(spec.configs[0].gpus, 4);
        assert!(spec.configs[0].half_precision);
    }
}
