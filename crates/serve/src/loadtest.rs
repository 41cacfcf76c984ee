//! Open/closed-loop load generator for the serving daemon's HTTP API.
//!
//! * **Closed loop** (`rps = 0`): `concurrency` workers issue requests
//!   back-to-back for the duration. The achieved request rate *is* the
//!   saturation throughput of the daemon at that concurrency.
//! * **Open loop** (`rps > 0`): arrivals are scheduled on a fixed grid
//!   (`i / rps`), and each request's latency is measured from its
//!   *scheduled* start — so a daemon that falls behind accumulates
//!   queueing delay in the percentiles instead of silently back-pressuring
//!   the generator (the coordinated-omission trap).
//!
//! The report carries p50/p95/p99/max latency, achieved RPS and the error
//! budget verdict. Output renders as validated JSON plus a figure CSV of
//! the latency quantiles.
//!
//! Served inference (see `docs/INFERENCE.md`): [`LoadtestOptions::submit`]
//! POSTs a job body to `/jobs` first (e.g.
//! `{"workload":"TLSTM","kind":"infer"}`), then drives that job's status
//! endpoint; the run fails the error budget unless the job reaches `done`.
//! The modeled inference SLO itself (batch-1 latency percentiles, batched
//! throughput) is `gnnmark infer`'s output.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gnnmark_telemetry::export::{debug_validated, parse_json, JsonValue};
use gnnmark_telemetry::metrics::{self, percentile};

use crate::client;

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadtestOptions {
    /// Target daemon address (`host:port`).
    pub addr: String,
    /// Request path to drive (default `/healthz`).
    pub path: String,
    /// Open-loop arrival rate; `0` selects the closed loop.
    pub rps: f64,
    /// Concurrent generator workers.
    pub concurrency: usize,
    /// Main measurement window.
    pub duration: Duration,
    /// Highest tolerable `errors / requests` ratio.
    pub error_budget: f64,
    /// After an open-loop run, also probe saturation with a short closed
    /// loop of this length.
    pub saturation_probe: Option<Duration>,
    /// JSON body to `POST /jobs` before the run. The returned job id's
    /// status endpoint becomes the driven path, and the run only passes
    /// its error budget if the job reaches `done` by the end.
    pub submit: Option<String>,
}

impl Default for LoadtestOptions {
    fn default() -> Self {
        LoadtestOptions {
            addr: "127.0.0.1:8642".to_string(),
            path: "/healthz".to_string(),
            rps: 0.0,
            concurrency: 4,
            duration: Duration::from_secs(10),
            error_budget: 0.01,
            saturation_probe: None,
            submit: None,
        }
    }
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadtestReport {
    /// `"open"` or `"closed"`.
    pub mode: &'static str,
    /// Requests issued in the measurement window.
    pub requests: u64,
    /// Non-2xx responses plus transport failures.
    pub errors: u64,
    /// Wall time of the measurement window (seconds).
    pub duration_s: f64,
    /// Completed requests per second.
    pub achieved_rps: f64,
    /// Latency percentiles (milliseconds). Open-loop latencies include
    /// schedule slip (queueing delay).
    pub p50_ms: f64,
    /// 95th percentile latency (ms).
    pub p95_ms: f64,
    /// 99th percentile latency (ms).
    pub p99_ms: f64,
    /// Worst observed latency (ms).
    pub max_ms: f64,
    /// Closed-loop saturation throughput (the run itself when closed,
    /// the trailing probe when open, absent otherwise).
    pub saturation_rps: Option<f64>,
    /// Error budget from the options, echoed for the report.
    pub error_budget: f64,
    /// Whether `errors / requests` stayed within the budget (and, for a
    /// submitted job, whether it reached `done`).
    pub error_budget_ok: bool,
    /// Job id when [`LoadtestOptions::submit`] was used.
    pub job_id: Option<u64>,
    /// Final observed state of the submitted job.
    pub job_state: Option<String>,
}

impl LoadtestReport {
    /// The report as validated JSON.
    pub fn to_json(&self) -> String {
        fn opt(v: Option<f64>) -> String {
            v.map_or("null".to_string(), |x| format!("{x:.3}"))
        }
        let job = match (self.job_id, &self.job_state) {
            (Some(id), Some(state)) => {
                format!(",\"job\":{{\"id\":{id},\"state\":\"{state}\"}}")
            }
            (Some(id), None) => format!(",\"job\":{{\"id\":{id}}}"),
            _ => String::new(),
        };
        let s = format!(
            "{{\"mode\":\"{}\",\"requests\":{},\"errors\":{},\"duration_s\":{:.3},\
             \"achieved_rps\":{:.1},\"latency_ms\":{{\"p50\":{:.3},\"p95\":{:.3},\
             \"p99\":{:.3},\"max\":{:.3}}},\"saturation_rps\":{},\
             \"error_budget\":{},\"error_budget_ok\":{}{job}}}",
            self.mode,
            self.requests,
            self.errors,
            self.duration_s,
            self.achieved_rps,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.max_ms,
            opt(self.saturation_rps),
            self.error_budget,
            self.error_budget_ok,
        );
        debug_validated("loadtest report", s)
    }

    /// Figure CSV of the latency quantiles.
    pub fn to_figure_csv(&self) -> String {
        format!(
            "quantile,latency_ms\n0.50,{:.3}\n0.95,{:.3}\n0.99,{:.3}\n1.00,{:.3}\n",
            self.p50_ms, self.p95_ms, self.p99_ms, self.max_ms
        )
    }
}

/// One `GET`'s status, or `Err` on any transport failure.
fn one_request(addr: &str, path: &str) -> std::io::Result<u16> {
    client::get(addr, path).map(|(status, _)| status)
}

/// A top-level field of a JSON response body.
fn json_field(body: &str, key: &str) -> Option<JsonValue> {
    parse_json(body).ok()?.get(key).cloned()
}

struct Tally {
    requests: AtomicU64,
    errors: AtomicU64,
    latencies_ms: Mutex<Vec<f64>>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latencies_ms: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, latency_ms: f64, ok: bool) {
        self.requests.fetch_add(1, Ordering::SeqCst);
        if !ok {
            self.errors.fetch_add(1, Ordering::SeqCst);
        }
        self.latencies_ms.lock().unwrap().push(latency_ms);
        metrics::counter_add("gnnmark_loadtest_requests_total", 1);
        if !ok {
            metrics::counter_add("gnnmark_loadtest_errors_total", 1);
        }
        metrics::observe("gnnmark_loadtest_latency_seconds", latency_ms / 1e3);
        // Same fixed boundaries as the server-side per-route histograms,
        // so client-observed and server-observed quantiles line up on the
        // dashboard's SLO panel.
        metrics::observe_bucketed(
            "gnnmark_loadtest_latency_bucketed_seconds",
            latency_ms / 1e3,
            metrics::LATENCY_BUCKETS_S,
        );
    }
}

/// Closed loop: `concurrency` workers hammer back-to-back for `duration`.
fn run_closed(opts: &LoadtestOptions, duration: Duration, tally: &Tally) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..opts.concurrency.max(1) {
            s.spawn(|| {
                while t0.elapsed() < duration {
                    let start = Instant::now();
                    let ok = matches!(one_request(&opts.addr, &opts.path), Ok(s) if (200..300).contains(&s));
                    tally.record(start.elapsed().as_secs_f64() * 1e3, ok);
                }
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

/// Open loop: arrivals on the `i / rps` grid, latency measured from the
/// scheduled arrival so queueing delay is charged to the daemon.
fn run_open(opts: &LoadtestOptions, tally: &Tally) -> f64 {
    let t0 = Instant::now();
    let next = AtomicU64::new(0);
    let interval = 1.0 / opts.rps.max(1e-9);
    std::thread::scope(|s| {
        for _ in 0..opts.concurrency.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let scheduled = i as f64 * interval;
                if scheduled >= opts.duration.as_secs_f64() {
                    return;
                }
                let now = t0.elapsed().as_secs_f64();
                if scheduled > now {
                    std::thread::sleep(Duration::from_secs_f64(scheduled - now));
                }
                let ok =
                    matches!(one_request(&opts.addr, &opts.path), Ok(s) if (200..300).contains(&s));
                let latency = t0.elapsed().as_secs_f64() - scheduled;
                tally.record(latency * 1e3, ok);
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

/// Runs the load test.
///
/// # Errors
/// Only a refused or unparseable job submission is an error; request
/// failures are tallied into the report.
pub fn run_loadtest(opts: &LoadtestOptions) -> Result<LoadtestReport, String> {
    // Submit-then-drive mode: the run measures the daemon while it serves
    // the submitted job, polling its status endpoint.
    let mut opts = opts.clone();
    let mut job_id = None;
    if let Some(body) = opts.submit.clone() {
        let (status, resp) = client::post(&opts.addr, "/jobs", &body)
            .map_err(|e| format!("submitting job to {}: {e}", opts.addr))?;
        if status != 202 {
            return Err(format!("job submission refused: HTTP {status}: {resp}"));
        }
        let id = json_field(&resp, "id")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("unparseable submission response: {resp}"))?;
        opts.path = format!("/jobs/{id}");
        job_id = Some(id);
    }
    let opts = &opts;

    let tally = Tally::new();
    let (elapsed, mode) = if opts.rps > 0.0 {
        (run_open(opts, &tally), "open")
    } else {
        (run_closed(opts, opts.duration, &tally), "closed")
    };
    // A submitted job only counts as served once it reaches a terminal
    // state: keep polling briefly after the measurement window (the
    // daemon may still be training/replaying when the window closes).
    let mut job_state = None;
    if let Some(id) = job_id {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let state = client::get(&opts.addr, &format!("/jobs/{id}"))
                .ok()
                .filter(|(s, _)| *s == 200)
                .and_then(|(_, body)| json_field(&body, "state")?.as_str().map(str::to_string));
            let terminal = matches!(state.as_deref(), Some("done" | "failed"));
            if terminal || Instant::now() >= deadline {
                job_state = state;
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    let requests = tally.requests.load(Ordering::SeqCst);
    let errors = tally.errors.load(Ordering::SeqCst);
    let mut lat = tally.latencies_ms.into_inner().unwrap();
    lat.sort_by(|a, b| a.total_cmp(b));
    let achieved_rps = if elapsed > 0.0 {
        requests as f64 / elapsed
    } else {
        0.0
    };

    let saturation_rps = if mode == "closed" {
        Some(achieved_rps)
    } else if let Some(probe) = opts.saturation_probe {
        let probe_tally = Tally::new();
        let probe_s = run_closed(opts, probe, &probe_tally);
        let n = probe_tally.requests.load(Ordering::SeqCst);
        (probe_s > 0.0).then(|| n as f64 / probe_s)
    } else {
        None
    };

    Ok(LoadtestReport {
        mode,
        requests,
        errors,
        duration_s: elapsed,
        achieved_rps,
        p50_ms: percentile(&lat, 0.50),
        p95_ms: percentile(&lat, 0.95),
        p99_ms: percentile(&lat, 0.99),
        max_ms: lat.last().copied().unwrap_or(0.0),
        saturation_rps,
        error_budget: opts.error_budget,
        error_budget_ok: errors as f64 <= opts.error_budget * requests as f64
            && (job_id.is_none() || job_state.as_deref() == Some("done")),
        job_id,
        job_state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;

    /// A minimal in-test HTTP server answering every request with the
    /// given status line.
    fn stub_server(status: &'static str) -> (String, std::sync::Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        listener.set_nonblocking(true).unwrap();
        std::thread::spawn(move || {
            while !flag.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((mut s, _)) => {
                        let mut buf = [0u8; 1024];
                        let _ = s.read(&mut buf);
                        let _ = s.write_all(
                            format!(
                                "HTTP/1.1 {status}\r\nContent-Length: 2\r\n\
                                 Connection: close\r\n\r\nok"
                            )
                            .as_bytes(),
                        );
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        });
        (addr, stop)
    }

    fn quick_opts(addr: &str) -> LoadtestOptions {
        LoadtestOptions {
            addr: addr.to_string(),
            concurrency: 2,
            duration: Duration::from_millis(250),
            ..LoadtestOptions::default()
        }
    }

    #[test]
    fn closed_loop_measures_a_healthy_server() {
        let (addr, stop) = stub_server("200 OK");
        let report = run_loadtest(&quick_opts(&addr)).unwrap();
        stop.store(true, Ordering::SeqCst);
        assert_eq!(report.mode, "closed");
        assert!(report.requests > 0, "no requests completed");
        assert_eq!(report.errors, 0, "healthy server produced errors");
        assert!(report.error_budget_ok);
        assert!(report.achieved_rps > 0.0);
        assert_eq!(report.saturation_rps, Some(report.achieved_rps));
        assert!(report.p50_ms <= report.p95_ms && report.p95_ms <= report.max_ms);
        // The report renders as valid JSON and a well-formed CSV.
        let json = report.to_json();
        let v = gnnmark_telemetry::export::parse_json(&json).unwrap();
        assert_eq!(v.get("mode").and_then(|x| x.as_str()), Some("closed"));
        assert!(v.get("latency_ms").and_then(|x| x.get("p99")).is_some());
        assert!(report.to_figure_csv().starts_with("quantile,latency_ms\n"));
    }

    #[test]
    fn open_loop_paces_arrivals_and_counts_failures() {
        let (addr, stop) = stub_server("500 Internal Server Error");
        let mut opts = quick_opts(&addr);
        opts.rps = 40.0;
        opts.duration = Duration::from_millis(300);
        let report = run_loadtest(&opts).unwrap();
        stop.store(true, Ordering::SeqCst);
        assert_eq!(report.mode, "open");
        // 40 rps over 0.3 s schedules 12 arrivals.
        assert_eq!(report.requests, 12, "open loop must honor the schedule");
        assert_eq!(report.errors, 12, "every 500 is an error");
        assert!(!report.error_budget_ok);
    }

    /// A stub daemon with job routes: `POST /jobs` → 202 `{"id":7}`,
    /// `GET /jobs/7` → 200 with the given state.
    fn stub_job_server(state: &'static str) -> (String, std::sync::Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        listener.set_nonblocking(true).unwrap();
        std::thread::spawn(move || {
            while !flag.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((mut s, _)) => {
                        let mut buf = [0u8; 2048];
                        let n = s.read(&mut buf).unwrap_or(0);
                        let req = String::from_utf8_lossy(&buf[..n]).to_string();
                        let (status, body) = if req.starts_with("POST /jobs") {
                            ("202 Accepted", "{\"id\":7}".to_string())
                        } else {
                            ("200 OK", format!("{{\"id\":7,\"state\":\"{state}\"}}"))
                        };
                        let _ = s.write_all(
                            format!(
                                "HTTP/1.1 {status}\r\nContent-Length: {}\r\n\
                                 Connection: close\r\n\r\n{body}",
                                body.len()
                            )
                            .as_bytes(),
                        );
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        });
        (addr, stop)
    }

    #[test]
    fn json_field_reads_numbers_and_strings() {
        let body = r#"{"id":12,"state":"done","x":-3.5}"#;
        assert_eq!(json_field(body, "id").and_then(|v| v.as_u64()), Some(12));
        assert_eq!(json_field(body, "state").unwrap().as_str(), Some("done"));
        assert_eq!(json_field(body, "x").and_then(|v| v.as_f64()), Some(-3.5));
        assert_eq!(json_field(body, "nope"), None);
        // Top-level only: a nested key of the same name is not the field.
        let nested = r#"{"job":{"id":3},"id":12}"#;
        assert_eq!(json_field(nested, "id").and_then(|v| v.as_u64()), Some(12));
    }

    #[test]
    fn submit_mode_drives_the_job_and_requires_completion() {
        let (addr, stop) = stub_job_server("done");
        let mut opts = quick_opts(&addr);
        opts.submit = Some(r#"{"workload":"TLSTM","kind":"infer"}"#.to_string());
        let report = run_loadtest(&opts).unwrap();
        stop.store(true, Ordering::SeqCst);
        assert_eq!(report.job_id, Some(7));
        assert_eq!(report.job_state.as_deref(), Some("done"));
        assert!(report.requests > 0, "status polls drive the load");
        assert!(report.error_budget_ok);
        assert!(report
            .to_json()
            .contains("\"job\":{\"id\":7,\"state\":\"done\"}"));
    }

    #[test]
    fn submit_mode_fails_the_budget_when_the_job_fails() {
        let (addr, stop) = stub_job_server("failed");
        let mut opts = quick_opts(&addr);
        opts.submit = Some(r#"{"workload":"TLSTM"}"#.to_string());
        let report = run_loadtest(&opts).unwrap();
        stop.store(true, Ordering::SeqCst);
        assert_eq!(report.job_state.as_deref(), Some("failed"));
        assert_eq!(report.errors, 0, "polls succeeded; the job did not");
        assert!(!report.error_budget_ok);
    }

    #[test]
    fn transport_failures_count_against_the_budget() {
        // Nothing listens here: every connect fails fast.
        let mut opts = quick_opts("127.0.0.1:1");
        opts.rps = 50.0;
        opts.duration = Duration::from_millis(100);
        let report = run_loadtest(&opts).unwrap();
        assert!(report.requests > 0);
        assert_eq!(report.errors, report.requests);
        assert!(!report.error_budget_ok);
    }
}
