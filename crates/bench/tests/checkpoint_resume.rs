//! Checkpoint/resume drill: a suite interrupted by an injected fault must,
//! after a resume, print exactly what an uninterrupted run prints and end
//! up with the same checkpoint entries.
//!
//! Run 1 trains the suite with `GNNMARK_FAULT=panic:GW` and `--keep-going`,
//! so every workload except GW completes and its captured stream is
//! stored. Run 2 resumes from the same `--checkpoint` directory without the
//! fault: the completed workloads are restored from their streams (not
//! re-trained) and only GW runs. A control run in a fresh directory never
//! sees a fault. Training is deterministic, so the resumed run's tables
//! and stream entries must be byte-identical to the control's.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn gnnmark() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gnnmark"))
}

fn run_summary(checkpoint: &Path, fault: Option<&str>) -> std::process::Output {
    let mut cmd = gnnmark();
    cmd.args([
        "summary",
        "--scale",
        "test",
        "--epochs",
        "1",
        "--keep-going",
        "--checkpoint",
        checkpoint.to_str().unwrap(),
    ]);
    // The fault plan is inherited from this test runner's environment
    // otherwise; set or clear it explicitly.
    match fault {
        Some(f) => cmd.env("GNNMARK_FAULT", f),
        None => cmd.env_remove("GNNMARK_FAULT"),
    };
    cmd.output().expect("binary runs")
}

/// All checkpoint files in `dir`, keyed by file name.
fn snapshots(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("checkpoint dir exists")
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn resumed_suite_matches_uninterrupted_run() {
    let base = std::env::temp_dir().join(format!("gnnmark-ckpt-{}", std::process::id()));
    let interrupted = base.join("interrupted");
    let control = base.join("control");
    let _ = std::fs::remove_dir_all(&base);

    // Run 1: GW panics mid-suite; everything else completes + checkpoints.
    let out1 = run_summary(&interrupted, Some("panic:GW"));
    assert!(
        out1.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out1.stderr)
    );
    let after_fault = snapshots(&interrupted);
    assert!(
        !after_fault.keys().any(|name| name.starts_with("GW-"))
            && after_fault.keys().all(|name| name.ends_with(".stream"))
            && after_fault.len() == 8,
        "faulted workload must not be checkpointed: {:?}",
        after_fault.keys().collect::<Vec<_>>()
    );

    // Run 2: resume without the fault — restores the finished workloads,
    // trains only GW.
    let out2 = run_summary(&interrupted, None);
    assert!(
        out2.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out2.stderr)
    );
    let stderr2 = String::from_utf8_lossy(&out2.stderr);
    assert!(
        stderr2.contains("checkpoint"),
        "resume must report restored workloads:\n{stderr2}"
    );

    // Control: one uninterrupted run in a fresh directory.
    let out3 = run_summary(&control, None);
    assert!(
        out3.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out3.stderr)
    );

    // The resumed run prints what the uninterrupted one prints: every
    // restored workload renders its figures, none a `—` row.
    assert_eq!(
        String::from_utf8_lossy(&out2.stdout),
        String::from_utf8_lossy(&out3.stdout),
        "resumed tables diverged from the control run"
    );
    assert!(!String::from_utf8_lossy(&out2.stdout).contains('—'));

    // The merged (resumed) suite state equals the uninterrupted one,
    // byte for byte, for every workload.
    let resumed = snapshots(&interrupted);
    let uninterrupted = snapshots(&control);
    assert_eq!(
        resumed.keys().collect::<Vec<_>>(),
        uninterrupted.keys().collect::<Vec<_>>(),
        "workload coverage diverged"
    );
    for (name, bytes) in &uninterrupted {
        assert_eq!(
            bytes, &resumed[name],
            "checkpoint `{name}` diverged between resumed and control runs"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}
