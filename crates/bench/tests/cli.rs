//! End-to-end tests of the `gnnmark` CLI binary.

use std::process::Command;

fn gnnmark() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gnnmark"))
}

#[test]
fn list_prints_all_targets() {
    let out = gnnmark().arg("list").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for target in gnnmark_bench::TARGETS {
        assert!(stdout.contains(target), "missing `{target}` in list output");
    }
}

#[test]
fn table1_renders_without_training() {
    let out = gnnmark().arg("table1").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("PinSAGE"));
    assert!(stdout.contains("Tree-LSTM"));
    assert!(stdout.contains("DGL"));
}

#[test]
fn unknown_target_fails_cleanly() {
    let out = gnnmark().arg("fig99").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("fig99"));
    // The error names every valid target so the user can self-correct.
    for target in gnnmark_bench::TARGETS {
        assert!(stderr.contains(target), "missing `{target}` in {stderr}");
    }
}

#[test]
fn injected_fault_with_keep_going_degrades_gracefully() {
    let out = gnnmark()
        .args(["fig4", "--scale", "test", "--epochs", "1", "--keep-going"])
        .env("GNNMARK_FAULT", "panic:GW")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The healthy workloads rendered; the faulted one is an explicit dash.
    assert!(stdout.contains("TLSTM"), "{stdout}");
    assert!(stdout.contains("—"), "no missing-row marker:\n{stdout}");
    // Per-workload status is reported, including the panic.
    assert!(stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("\"workload\":\"GW\""), "{stderr}");
}

#[test]
fn injected_fault_without_keep_going_fails_naming_the_workload() {
    let out = gnnmark()
        .args(["fig4", "--scale", "test", "--epochs", "1"])
        .env("GNNMARK_FAULT", "panic:GW")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("GW"), "{stderr}");
    assert!(stderr.contains("panic"), "{stderr}");
}

#[test]
fn bad_flag_shows_usage() {
    let out = gnnmark()
        .args(["fig2", "--bogus"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"));
}

#[test]
fn flags_a_target_would_ignore_are_usage_errors() {
    for (argv, flag) in [
        (
            &["modecmp", "--scale", "test", "--keep-going"][..],
            "--keep-going",
        ),
        (&["check", "--scale", "tiny", "--csv", "out"], "--csv"),
        (&["check", "--scale", "tiny", "--epochs", "3"], "--epochs"),
        (&["check", "--scale", "tiny", "--metrics", "F"], "--metrics"),
        (&["fig2", "--scale", "tiny", "--bless"], "--bless"),
    ] {
        // The fault would make a run that ignored the flag exit 0 or 1.
        let out = gnnmark()
            .args(argv)
            .env("GNNMARK_FAULT", "panic:GW")
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("`{flag}` does not apply to `{}`", argv[0])),
            "{stderr}"
        );
        assert!(stderr.contains("usage:"), "{stderr}");
    }

    // `ablations` reads the resilient suite, so it takes those flags: a
    // faulted workload is a `—` row of the compression table it lists, and
    // without --keep-going the run fails naming it.
    let dir = std::env::temp_dir().join(format!("gnnmark_cli_abl_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ablations = |keep_going: bool| {
        let mut cmd = gnnmark();
        cmd.args(["ablations", "--scale", "test", "--checkpoint"])
            .arg(&dir)
            .env("GNNMARK_FAULT", "panic:GW");
        if keep_going {
            cmd.arg("--keep-going");
        }
        cmd.output().expect("binary runs")
    };
    let out = ablations(true);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let compression = stdout
        .split("Ablation — Zero-value compression")
        .nth(1)
        .expect("compression table");
    assert!(
        compression
            .lines()
            .any(|l| l.starts_with("GW ") && l.contains("—")),
        "{stdout}"
    );
    let out = ablations(false);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: GW: "), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_trains_each_configuration_once() {
    // The suite's 9 workloads, then the ablations' ARGA capture, its fp16
    // and bf16 runs, and the DGCN capture; every device variant replays.
    let out = gnnmark()
        .args(["all", "--scale", "test", "--epochs", "1", "--progress"])
        .env_remove("GNNMARK_FAULT")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert_eq!(stderr.matches("epoch 1/1").count(), 13, "{stderr}");
}

#[test]
fn single_workload_target_restores_from_its_checkpoint() {
    let dir = std::env::temp_dir().join(format!("gnnmark_cli_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || {
        let out = gnnmark()
            .args(["stgcn", "--scale", "test", "--epochs", "1", "--checkpoint"])
            .arg(&dir)
            .env_remove("GNNMARK_FAULT")
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    };
    let first = run();
    let second = run();
    let stderr = String::from_utf8_lossy(&second.stderr);
    assert!(String::from_utf8_lossy(&first.stderr).contains("\"restored\":0"));
    assert!(stderr.contains("\"restored\":1"), "{stderr}");
    assert_eq!(
        first.stdout, second.stdout,
        "a restored run renders the same table"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ablations_read_their_captures_from_the_checkpoint() {
    let dir = std::env::temp_dir().join(format!("gnnmark_cli_abl_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || {
        let out = gnnmark()
            .args([
                "ablations",
                "--scale",
                "test",
                "--epochs",
                "1",
                "--progress",
            ])
            .arg("--checkpoint")
            .arg(&dir)
            .env_remove("GNNMARK_FAULT")
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "stderr: {stderr}");
        (out.stdout, stderr.matches("epoch 1/1").count())
    };
    // The suite's 9 workloads and the fp16 and bf16 runs; the ARGA and
    // DGCN captures are the suite's own, read back from the checkpoint.
    let (first, first_trained) = run();
    assert_eq!(first_trained, 11);
    // The rerun restores the suite and trains only the 16-bit rows.
    let (second, second_trained) = run();
    assert_eq!(second_trained, 2);
    assert_eq!(first, second, "a restored run renders the same tables");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_epochs_is_a_usage_error() {
    for argv in [
        &["tlstm", "--scale", "tiny", "--epochs", "0"][..],
        &["infer", "--scale", "tiny", "--epochs", "0"],
    ] {
        let out = gnnmark().args(argv).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--epochs must be at least 1"), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
}

#[test]
fn observability_flags_write_trace_metrics_and_manifest() {
    let dir = std::env::temp_dir().join(format!("gnnmark_cli_obs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("t.json");
    let metrics = dir.join("m.json");
    let out = gnnmark()
        .args([
            "stgcn",
            "--scale",
            "tiny",
            "--epochs",
            "1",
            "--progress",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    // --progress printed a live per-epoch line.
    assert!(stderr.contains("[STGCN] epoch 1/1:"), "{stderr}");

    // Merged trace: valid JSON, host spans plus modeled device lanes.
    let trace_json = std::fs::read_to_string(&trace).expect("trace written");
    gnnmark_telemetry::export::validate_json(&trace_json).expect("trace is valid JSON");
    // `simulate` runs on the session's simulator thread, a lane of its own.
    for needle in [
        "\"host\"",
        "\"forward\"",
        "\"backward\"",
        "\"simulate\"",
        "\"gnnmark-sim\"",
        "(modeled ",
    ] {
        assert!(trace_json.contains(needle), "missing {needle} in trace");
    }

    // Metrics snapshot: valid JSON with the headline gauges/counters, and
    // a Prometheus dump beside it.
    let metrics_json = std::fs::read_to_string(&metrics).expect("metrics written");
    gnnmark_telemetry::export::validate_json(&metrics_json).expect("metrics are valid JSON");
    for needle in [
        "gnnmark_tensor_buffers_total",
        "gnnmark_kernels_recorded_total",
        "gnnmark_resilience_retries_total",
    ] {
        assert!(metrics_json.contains(needle), "missing {needle} in metrics");
    }
    let prom = std::fs::read_to_string(dir.join("m.json.prom")).expect("prom written");
    assert!(
        prom.contains("# TYPE gnnmark_tensor_buffers_total counter"),
        "{prom}"
    );

    // Manifest beside the metrics file.
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
    gnnmark_telemetry::export::validate_json(&manifest).expect("manifest is valid JSON");
    for needle in ["\"target\": \"stgcn\"", "\"scale\": \"test\"", "\"STGCN\""] {
        assert!(manifest.contains(needle), "missing {needle} in {manifest}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The buffer counter is process-global, so each run gets a process of its
/// own: sibling tests in this binary would bump an in-process counter.
#[test]
fn tensor_buffer_count_repeats_exactly_across_processes() {
    let dir = std::env::temp_dir().join(format!("gnnmark_cli_buffers_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("m.json");
    let count = || {
        let out = gnnmark()
            .args(["tlstm", "--scale", "tiny", "--epochs", "1", "--metrics"])
            .arg(&metrics)
            .env_remove("GNNMARK_FAULT")
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read_to_string(&metrics).expect("metrics written");
        gnnmark_telemetry::export::parse_json(&json)
            .expect("metrics are valid JSON")
            .get("gnnmark_tensor_buffers_total")
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("no integer buffer counter in {json}"))
    };
    let (first, second) = (count(), count());
    assert!(first > 0, "a training run allocates kernel outputs");
    assert_eq!(first, second, "the same run allocates the same buffers");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_tables_are_byte_identical_to_serial() {
    let summary = |extra: &[&str]| {
        let out = gnnmark()
            .args(["summary", "--scale", "test", "--epochs", "1"])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let serial = summary(&[]);
    assert!(!serial.is_empty());
    assert_eq!(serial, summary(&["--parallel"]));
}

#[test]
fn infer_output_is_deterministic_with_one_row_per_target() {
    let dir = std::env::temp_dir().join(format!("gnnmark_cli_infer_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let infer = |name: &str| {
        let path = dir.join(name);
        let out = gnnmark()
            .args([
                "infer",
                "--target",
                "TLSTM,ARGA",
                "--scale",
                "tiny",
                "--no-figures",
            ])
            .arg("--out")
            .arg(&path)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&path).expect("--out written")
    };
    let first = infer("a.json");
    // Modeled time, not wall time: a second run writes the same bytes.
    assert_eq!(first, infer("b.json"));
    assert!(first.contains("\"tape_nodes\":0"), "{first}");
    let v = gnnmark_telemetry::export::parse_json(&first).expect("valid JSON");
    let labels: Vec<_> = v
        .get("workloads")
        .and_then(|w| w.as_array())
        .expect("workloads array")
        .iter()
        .map(|w| {
            w.get("workload")
                .and_then(|l| l.as_str())
                .unwrap_or_default()
        })
        .collect();
    assert_eq!(labels, ["TLSTM", "ARGA"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig9_runs_at_test_scale_and_writes_csv() {
    let dir = std::env::temp_dir().join(format!("gnnmark_cli_test_{}", std::process::id()));
    let out = gnnmark()
        .args([
            "fig9",
            "--scale",
            "test",
            "--epochs",
            "1",
            "--csv",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("excluded"), "ARGA row missing");
    // CSV file landed.
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("csv dir exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert!(
        entries
            .iter()
            .any(|f| f.contains("figure_9") && f.ends_with(".csv")),
        "{entries:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
