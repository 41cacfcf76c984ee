//! HTML pages the daemon serves: the live fleet dashboard
//! (`GET /dashboard`) and per-job characterization reports
//! (`GET /jobs/<id>/report`).
//!
//! Both pages are rendered through [`gnnmark_report::Report`], so they
//! are single self-contained HTML files — inline CSS and SVG, no
//! scripts, no external assets. The dashboard prepends a fleet section
//! (queue depth by state, drain flag, worker identity) and attaches the
//! *live* metrics snapshot: it intentionally shows wall-clock and
//! scheduling-dependent values, so unlike `gnnmark report` output it is
//! not byte-deterministic — it is a dashboard, not a golden artifact.
//!
//! A job report replays the job's cached op streams (one per workload)
//! through every device config in its campaign spec — the same
//! 1×train + N×simulate economics as the campaign runner — and renders
//! the full panel set (roofline, stalls, timeline, caches, comparison).
//! Streams not yet in the cache (job still queued or training) are
//! listed as pending rather than failing the page.

use gnnmark::suite::artifacts_from_replay;
use gnnmark_report::{esc, html_table, Report, ReportRun};
use gnnmark_telemetry::metrics;

use crate::spec::CampaignSpec;
use crate::store::{JobState, StoredJob};
use crate::StreamCache;

/// The fleet-view section body: queue depth by state, drain status, and
/// a per-job table with report links. `jobs` are the store's resident
/// jobs; `archived` older terminal ones are counted, not listed.
fn fleet_section(jobs: &[StoredJob], archived: usize, draining: bool, worker_id: &str) -> String {
    let count = |s: JobState| jobs.iter().filter(|j| j.state == s).count();
    let mut out = format!(
        "<p>Worker <code>{}</code> — {}</p>\n",
        esc(worker_id),
        if draining {
            "<span class=\"fail\">draining: submissions refused</span>"
        } else {
            "<span class=\"ok\">accepting submissions</span>"
        },
    );
    out.push_str(&html_table(
        &["queued", "running", "done", "failed", "archived", "total"],
        &[vec![
            count(JobState::Queued).to_string(),
            count(JobState::Running).to_string(),
            count(JobState::Done).to_string(),
            count(JobState::Failed).to_string(),
            archived.to_string(),
            (jobs.len() + archived).to_string(),
        ]],
    ));
    if archived > 0 {
        out.push_str(
            "<p class=\"note\">Archived jobs are finished jobs older than the ones listed; \
             <code>/jobs/&lt;id&gt;</code> and <code>/jobs/&lt;id&gt;/report</code> still \
             answer for them.</p>\n",
        );
    }
    if jobs.is_empty() {
        out.push_str("<p class=\"note\">No jobs submitted yet.</p>\n");
        return out;
    }
    // Hand-rolled rows: the job column is a live link into the per-job
    // report, which `html_table` would escape away.
    out.push_str(
        "<table>\n<thead><tr><th>job</th><th>campaign</th><th>state</th>\
         <th>worker</th><th>attempts</th><th>requeues</th><th>progress</th>\
         </tr></thead>\n<tbody>\n",
    );
    for j in jobs {
        let state_class = match j.state {
            JobState::Failed => "fail",
            JobState::Done => "ok",
            _ => "note",
        };
        out.push_str(&format!(
            "<tr><th><a href=\"/jobs/{0}/report\">job {0}</a></th><td>{1}</td>\
             <td><span class=\"{2}\">{3}</span></td><td>{4}</td><td>{5}</td>\
             <td>{6}</td><td>{7}</td></tr>\n",
            j.id,
            esc(&j.name),
            state_class,
            j.state.label(),
            esc(j.worker.as_deref().unwrap_or("—")),
            j.attempts,
            j.requeues,
            esc(&j.progress),
        ));
    }
    out.push_str("</tbody>\n</table>\n");
    out
}

/// Renders the auto-refreshing fleet dashboard. The metrics snapshot is
/// taken live, so the SLO panel shows the per-route latency histograms
/// accumulated by this process.
pub(crate) fn dashboard_page(
    jobs: &[StoredJob],
    archived: usize,
    draining: bool,
    worker_id: &str,
) -> String {
    let mut report = Report::new("GNNMark fleet dashboard");
    report
        .subtitle(format!("serve daemon · worker {worker_id}"))
        .auto_refresh(5)
        .add_section(
            "fleet",
            "Fleet",
            fleet_section(jobs, archived, draining, worker_id),
        )
        .set_metrics(metrics::snapshot());
    report.render()
}

/// The job-status section body shown at the top of a job report.
fn job_section(job: &StoredJob) -> String {
    let mut out = html_table(
        &["field", "value"],
        &[
            vec!["state".to_string(), job.state.label().to_string()],
            vec![
                "worker".to_string(),
                job.worker.clone().unwrap_or_else(|| "—".to_string()),
            ],
            vec!["attempts".to_string(), job.attempts.to_string()],
            vec!["requeues".to_string(), job.requeues.to_string()],
            vec![
                "faults injected".to_string(),
                job.faults_injected.to_string(),
            ],
            vec!["artifacts".to_string(), job.artifacts.len().to_string()],
        ],
    );
    if !job.progress.is_empty() {
        out.push_str(&format!("<p class=\"note\">{}</p>\n", esc(&job.progress)));
    }
    if !job.detail.is_empty() {
        out.push_str(&format!("<p class=\"fail\">{}</p>\n", esc(&job.detail)));
    }
    out
}

/// Renders one job's characterization report by replaying its cached
/// streams through every device config in the spec.
///
/// # Errors
/// The stored spec no longer parses (version skew in a hand-edited
/// store) — the caller maps this to a 500.
pub(crate) fn job_report_page(job: &StoredJob, cache: &StreamCache) -> Result<String, String> {
    let spec = CampaignSpec::parse(&job.spec_json)
        .map_err(|e| format!("stored spec no longer parses: {e}"))?;
    let mut report = Report::new(format!("Job {}: {}", job.id, spec.name));
    report.subtitle(format!(
        "scale {} · seed {} · epochs {} · {} · {}",
        spec.scale.label(),
        spec.seed,
        spec.epochs,
        spec.precision.as_str(),
        spec.mode.key(),
    ));
    report.add_section("job", "Job status", job_section(job));

    let mut pending = Vec::new();
    for &workload in &spec.workloads {
        let Some(run) = cache.load(&spec.cache_key(workload)) else {
            pending.push(workload.label());
            continue;
        };
        for cfg in &spec.configs {
            let Ok(device) = cfg.to_device_spec() else {
                // The spec validated at submission; an unknown base here
                // means the device table shrank — skip, don't 500.
                continue;
            };
            let art = artifacts_from_replay(&run, &device);
            let mut rr = ReportRun::new(format!("{}@{}", workload.label(), cfg.name), art.profile);
            rr.losses = art.losses;
            rr.steps_per_epoch = art.steps_per_epoch;
            rr.quality = art.quality.map(|(n, v)| (n.to_string(), v));
            rr.meta = vec![
                ("config".to_string(), cfg.name.clone()),
                ("device".to_string(), cfg.base.clone()),
                ("gpus".to_string(), cfg.gpus.to_string()),
                ("mode".to_string(), spec.mode.key()),
                ("phase".to_string(), spec.phase.to_string()),
                ("precision".to_string(), spec.precision.as_str().to_string()),
            ];
            if spec.phase == gnnmark::infer::ExecPhase::Infer {
                // Infer-job stream layout: the key's `epochs` is the
                // batched-step count, leading steps are batch-1 samples.
                rr.infer = Some(gnnmark_report::InferStats {
                    batch1_steps: (rr.steps_per_epoch as usize).saturating_sub(spec.epochs),
                    items_per_step: 0,
                });
            }
            report.add_run(rr);
        }
    }
    if !pending.is_empty() {
        report.add_section(
            "pending",
            "Pending workloads",
            format!(
                "<p class=\"note\">Not yet captured (job {}): {}. \
                 Panels below cover cached streams only.</p>",
                esc(job.state.label()),
                esc(&pending.join(", ")),
            ),
        );
    }
    Ok(report.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheKey;
    use gnnmark::infer::ExecPhase;
    use gnnmark_tensor::half::Precision;
    use gnnmark_workloads::{Scale, TrainMode, WorkloadKind};

    fn stored_job(state: JobState) -> StoredJob {
        let mut job = StoredJob::new(
            3,
            "unit".to_string(),
            r#"{"name":"unit","scale":"test","seed":42,"epochs":1,
                "workloads":["TLSTM"],
                "configs":[{"name":"v100","device":"v100"},
                           {"name":"a100","device":"a100"}]}"#
                .to_string(),
        );
        job.state = state;
        job
    }

    #[test]
    fn dashboard_lists_jobs_and_states() {
        let jobs = vec![stored_job(JobState::Queued), {
            let mut j = stored_job(JobState::Done);
            j.id = 4;
            j
        }];
        let html = dashboard_page(&jobs, 7, true, "worker-test");
        assert!(html.contains("id=\"sec-fleet\""));
        assert!(
            html.contains("<td>7</td><td>9</td>"),
            "archived and total counts"
        );
        assert!(html.contains("draining: submissions refused"));
        assert!(html.contains("worker-test"));
        assert!(html.contains("href=\"/jobs/3/report\""));
        assert!(html.contains("href=\"/jobs/4/report\""));
        assert!(
            html.contains("http-equiv=\"refresh\""),
            "dashboard auto-refreshes"
        );
        assert!(!html.contains("<script"));
    }

    #[test]
    fn job_report_without_cached_streams_lists_pending() {
        let cache = StreamCache::new(
            std::env::temp_dir().join(format!("gnnmark_dash_nocache_{}", std::process::id())),
        );
        let html = job_report_page(&stored_job(JobState::Queued), &cache).unwrap();
        assert!(html.contains("id=\"sec-job\""));
        assert!(html.contains("id=\"sec-pending\""));
        assert!(html.contains("TLSTM"));
        // No cached stream → no profiled runs → no roofline.
        assert!(!html.contains("id=\"sec-roofline\""));
    }

    #[test]
    fn infer_job_report_renders_the_inference_panel() {
        let dir = std::env::temp_dir().join(format!("gnnmark_dash_infer_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = StreamCache::new(&dir);
        let key = CacheKey {
            workload: WorkloadKind::Tlstm,
            scale: Scale::Test,
            seed: 42,
            epochs: 1,
            precision: Precision::Fp32,
            mode: TrainMode::FullGraph,
            phase: ExecPhase::Infer,
        };
        cache.fetch(&key).unwrap();
        let mut job = stored_job(JobState::Done);
        job.spec_json = r#"{"name":"unit","scale":"test","seed":42,"epochs":1,
            "kind":"infer","workloads":["TLSTM"],
            "configs":[{"name":"v100","device":"v100"}]}"#
            .to_string();
        let html = job_report_page(&job, &cache).unwrap();
        assert!(
            html.contains("id=\"sec-inference\""),
            "inference panel present"
        );
        assert!(html.contains("TLSTM@v100"));
        assert!(!html.contains("id=\"sec-pending\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_report_replays_cached_streams_per_config() {
        let dir = std::env::temp_dir().join(format!("gnnmark_dash_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = StreamCache::new(&dir);
        let key = CacheKey {
            workload: WorkloadKind::Tlstm,
            scale: Scale::Test,
            seed: 42,
            epochs: 1,
            precision: Precision::Fp32,
            mode: TrainMode::FullGraph,
            phase: ExecPhase::Train,
        };
        cache.fetch(&key).unwrap();
        let html = job_report_page(&stored_job(JobState::Done), &cache).unwrap();
        // Two configs replay the one stream: comparison panel appears.
        assert!(html.contains("TLSTM@v100"));
        assert!(html.contains("TLSTM@a100"));
        assert!(html.contains("id=\"sec-roofline\""));
        assert!(html.contains("id=\"sec-comparison\""));
        assert!(!html.contains("id=\"sec-pending\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
