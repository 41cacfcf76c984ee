//! End-to-end determinism of the HTML characterization report.
//!
//! The report is a golden-gated artifact (`results/golden/report.csv`),
//! which only holds if rendering is byte-deterministic: the same suite
//! runs must produce the same HTML regardless of host thread count, and
//! replaying a captured op stream must render identically every time.

use gnnmark::resilience::{run_suite_resilient, ResilienceConfig};
use gnnmark::suite::{artifacts_from_replay, run_workload_captured, RunArtifacts, SuiteConfig};
use gnnmark::WorkloadKind;
use gnnmark_gpusim::stream::CapturedRun;
use gnnmark_gpusim::DeviceSpec;
use gnnmark_report::{Report, ReportRun};

/// Builds a runs-only report (no live metrics, no history) — the same
/// shape the check gate digests.
fn report_for(runs: &[RunArtifacts]) -> Report {
    let mut report = Report::new("integration report");
    for art in runs {
        let mut run = ReportRun::new(art.profile.name.clone(), art.profile.clone());
        run.losses = art.losses.clone();
        run.steps_per_epoch = art.steps_per_epoch;
        run.quality = art.quality.map(|(n, v)| (n.to_string(), v));
        report.add_run(run);
    }
    report
}

#[test]
fn suite_report_is_byte_identical_across_thread_counts() {
    let base = SuiteConfig::test();
    let rcfg = ResilienceConfig {
        parallel: true,
        ..ResilienceConfig::default()
    };
    let one = run_suite_resilient(&base.clone().with_threads(1), &rcfg)
        .runs(false)
        .expect("suite at 1 thread");
    let four = run_suite_resilient(&base.clone().with_threads(4), &rcfg)
        .runs(false)
        .expect("suite at 4 threads");
    gnnmark_tensor::par::set_threads(1);

    let html_one = report_for(&one).render();
    let html_four = report_for(&four).render();
    assert!(html_one.starts_with("<!DOCTYPE html>"));
    assert!(html_one.contains("sec-roofline"), "roofline panel renders");
    assert_eq!(
        html_one, html_four,
        "report HTML must be byte-identical across thread counts"
    );
}

#[test]
fn replayed_stream_renders_identically_every_time() {
    let cfg = SuiteConfig::test();
    let (_, captured) = run_workload_captured(WorkloadKind::Tlstm, &cfg).expect("tlstm trains");

    // Round-trip through the on-disk stream format, then render the same
    // bytes twice — both the decode and the render must be deterministic.
    let bytes = captured.to_bytes();
    let render = || {
        let run = CapturedRun::from_bytes(&bytes).expect("stream decodes");
        let art = artifacts_from_replay(&run, &DeviceSpec::v100());
        report_for(std::slice::from_ref(&art)).render()
    };
    let a = render();
    let b = render();
    assert!(a.contains("TLSTM"), "replayed run is labeled");
    assert_eq!(a, b, "replay rendering must be byte-identical");

    // Replay on a different device changes the modeled profile but must
    // stay deterministic too.
    let run = CapturedRun::from_bytes(&bytes).expect("stream decodes");
    let art = artifacts_from_replay(&run, &DeviceSpec::a100());
    let c = report_for(std::slice::from_ref(&art)).render();
    assert_eq!(c, report_for(std::slice::from_ref(&art)).render());
}

#[test]
fn report_digest_lines_track_section_content() {
    let cfg = SuiteConfig::test();
    let (art, _) = run_workload_captured(WorkloadKind::Tlstm, &cfg).expect("tlstm trains");
    let runs = [art];

    let digests = report_for(&runs).digest_lines();
    assert!(
        digests.iter().any(|l| l.ends_with("\troofline")),
        "digest lines name sections: {digests:?}"
    );
    // Digests are stable across renders…
    assert_eq!(digests, report_for(&runs).digest_lines());
    // …and move when the content moves.
    let mut retitled = report_for(&runs);
    retitled.add_section("extra", "Extra", "<p>injected</p>".to_string());
    assert_ne!(digests, retitled.digest_lines());
}
