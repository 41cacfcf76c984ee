//! `replay_sweep`: a device-ablation campaign on a warm replay cache plus
//! the characterization report. No tensor or autograd work is timed —
//! `StreamCache::load` → `replay_profile` → figures → report is all there
//! is, so this is gpusim's "replay" use beside `train_full`'s "live" use.

use std::hint::black_box;
use std::time::Instant;

use gnnmark::figures;
use gnnmark::infer::ExecPhase;
use gnnmark::suite::{run_workload_captured, RunArtifacts};
use gnnmark::{TrainMode, WorkloadKind};
use gnnmark_report::{Report, ReportRun};
use gnnmark_serve::campaign::CampaignOptions;
use gnnmark_serve::{run_campaign, CacheKey, CampaignSpec, DeviceConfig, StreamCache};
use gnnmark_tensor::half::Precision;

use crate::common::{KernelRates, Outcome, Params, ScratchDir};
use crate::probes::{self, SimTotals};
use crate::span::Tracer;
use crate::spec::{CAMPAIGN_WORKERS, KERNEL_THREADS};
use crate::stats;

const EPOCHS: usize = 2;
/// The config that simulates the capture-time device.
const BASELINE_CONFIG: &str = "v100";

fn device(name: &str, base: &str, l1_kb: Option<u64>, half_precision: bool) -> DeviceConfig {
    DeviceConfig {
        name: name.to_string(),
        base: base.to_string(),
        l1_kb,
        nvlink_gbps: None,
        half_precision,
        gpus: 1,
    }
}

fn baseline_device() -> DeviceConfig {
    device(BASELINE_CONFIG, "v100", None, false)
}

/// Four devices that differ where the simulator branches: SM count and
/// bandwidths, element size, and L1 capacity.
fn sweep_configs() -> Vec<DeviceConfig> {
    vec![
        baseline_device(),
        device("a100", "a100", None, false),
        device("v100-fp16", "v100", None, true),
        device("v100-l1-64k", "v100", Some(64), false),
    ]
}

struct Sweep {
    cache: StreamCache,
    kinds: Vec<(WorkloadKind, CacheKey)>,
    /// Total modeled ns of each kind's live capture-time profile.
    live_total_ns: Vec<f64>,
    /// Merged JSON of each kind's first campaign.
    first_merged: Vec<Option<String>>,
}

impl Sweep {
    /// The campaign whose one workload resolves to `key`'s cache entry.
    fn spec(key: &CacheKey, configs: Vec<DeviceConfig>) -> CampaignSpec {
        CampaignSpec {
            name: format!("sweep-{}", key.workload.label()),
            scale: key.scale,
            seed: key.seed,
            epochs: key.epochs,
            precision: key.precision,
            mode: key.mode.clone(),
            phase: key.phase,
            workloads: vec![key.workload],
            configs,
        }
    }

    /// Set-up: train and capture every kind once into the cache, then one
    /// untimed single-config campaign pass to warm the replay path.
    fn set_up(p: &Params, dir: &ScratchDir, out: &mut Outcome) -> Sweep {
        let mut sweep = Sweep {
            cache: StreamCache::new(dir.path().join("cache")),
            kinds: Vec::new(),
            live_total_ns: Vec::new(),
            first_merged: Vec::new(),
        };
        for kind in WorkloadKind::ALL {
            let key = CacheKey {
                workload: kind,
                scale: p.scale(),
                seed: p.seed,
                epochs: EPOCHS,
                precision: Precision::Fp32,
                mode: TrainMode::FullGraph,
                phase: ExecPhase::Train,
            };
            let cfg = key.suite_config().with_threads(KERNEL_THREADS);
            match run_workload_captured(kind, &cfg) {
                Ok((art, run)) => {
                    let stored = sweep.cache.store(&key, &run);
                    out.check(stored.is_ok(), || {
                        format!("{}: cache store failed", kind.label())
                    });
                    sweep.live_total_ns.push(art.profile.total_time_ns());
                }
                Err(e) => {
                    out.check(false, || format!("capture {}: {e}", kind.label()));
                    sweep.live_total_ns.push(f64::NAN);
                }
            }
            sweep.kinds.push((kind, key));
            sweep.first_merged.push(None);
        }
        let opts = options();
        for (kind, key) in &sweep.kinds {
            let warm = Sweep::spec(key, vec![baseline_device()]);
            if let Err(e) = run_campaign(&warm, &sweep.cache, &opts) {
                out.check(false, || format!("warm-up campaign {}: {e}", kind.label()));
            }
        }
        sweep
    }

    /// One pass: a four-config campaign per kind, then the report over the
    /// baseline-device profiles. Returns seconds, the baseline artefacts
    /// (for the figure probe) and the page.
    fn pass(
        &mut self,
        out: &mut Outcome,
        rates: &mut KernelRates,
        tracer: &mut Tracer,
        round: usize,
    ) -> (f64, Vec<RunArtifacts>, String) {
        let opts = options();
        let pass = Instant::now();
        let mut baseline = Vec::new();
        for slot in 0..self.kinds.len() {
            let (kind, key) = &self.kinds[slot];
            let op = format!("{}/{round}", kind.label());
            let spec = Sweep::spec(key, sweep_configs());
            let (result, secs) = tracer.span("serve.campaign", &op, |_| {
                run_campaign(&spec, &self.cache, &opts)
            });
            let outcome = match result {
                Ok(o) => o,
                Err(e) => {
                    for _ in 0..spec.configs.len() {
                        out.op(false, || format!("{op}: {e}"));
                    }
                    continue;
                }
            };
            for r in &outcome.results {
                out.op(r.artifacts.losses.iter().all(|l| l.is_finite()), || {
                    format!("{op}/{}: non-finite loss", r.config)
                });
            }
            let kernels = outcome
                .results
                .iter()
                .map(|r| r.artifacts.profile.kernels.len() as u64);
            rates.add(slot, kernels.sum(), secs);
            for f in &outcome.failures {
                out.op(false, || format!("{op}: {f}"));
            }
            out.check(outcome.trainings == 0, || {
                format!("{op}: warm cache retrained {} time(s)", outcome.trainings)
            });
            match &self.first_merged[slot] {
                Some(first) => out.check(*first == outcome.merged_json, || {
                    format!("{op}: merged JSON differs from the first pass")
                }),
                None => self.first_merged[slot] = Some(outcome.merged_json.clone()),
            }
            if let Some(r) = outcome
                .results
                .into_iter()
                .find(|r| r.config == BASELINE_CONFIG)
            {
                let (replayed, live) = (
                    r.artifacts.profile.total_time_ns(),
                    self.live_total_ns[slot],
                );
                out.check(replayed.to_bits() == live.to_bits(), || {
                    format!("{op}: replay on the capture device models {replayed} ns, live {live}")
                });
                baseline.push(r.artifacts);
            }
        }
        let op = format!("report/{round}");
        let (html, _) = tracer.span("report.render", &op, |_| render(&baseline));
        out.op(html.len() > 1024 && html.contains("</html>"), || {
            format!("{op}: report is not a page")
        });
        (pass.elapsed().as_secs_f64(), baseline, html)
    }
}

fn options() -> CampaignOptions {
    CampaignOptions {
        workers: CAMPAIGN_WORKERS,
        ..CampaignOptions::default()
    }
}

fn render(baseline: &[RunArtifacts]) -> String {
    let mut report = Report::new("replay_sweep");
    for art in baseline {
        let mut run = ReportRun::new(art.profile.name.clone(), art.profile.clone());
        run.losses = art.losses.clone();
        run.steps_per_epoch = art.steps_per_epoch;
        report.add_run(run);
    }
    report.render()
}

/// Resets this process's peak-RSS mark so `peak_rss_mb` reads the replay
/// path's memory, not the training done once in set-up. Without it (older
/// kernels) the figure includes the capture and is still comparable
/// between commits on one box.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The untraced run: the end-to-end metrics.
pub fn run(p: &Params, dir: &ScratchDir) -> Outcome {
    gnnmark_tensor::par::set_threads(KERNEL_THREADS);
    let mut out = Outcome::default();
    let mut sweep = Sweep::set_up(p, dir, &mut out);
    out.set("setup_s", p.started.elapsed().as_secs_f64());
    if p.setup_only {
        return out;
    }
    reset_peak_rss();

    let mut tracer = Tracer::new(false);
    let (mut passes, mut rates) = (Vec::new(), KernelRates::new(WorkloadKind::ALL.len()));
    let timed = Instant::now();
    while p.keep_going(passes.len(), timed, p.seconds) {
        passes.push(
            sweep
                .pass(&mut out, &mut rates, &mut tracer, passes.len())
                .0,
        );
    }
    out.set_pass_metrics(&passes, rates.per_second());
    out
}

/// The traced run: the per-layer metrics and the span list.
pub fn trace(p: &Params, dir: &ScratchDir, tracer: &mut Tracer) -> Outcome {
    gnnmark_tensor::par::set_threads(KERNEL_THREADS);
    let mut out = Outcome::default();
    let mut sweep = Sweep::set_up(p, dir, &mut out);

    let mut off = Tracer::new(false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut rates = KernelRates::new(WorkloadKind::ALL.len());
    // Set-up warms one config; the first four-config pass still pays the
    // page faults for four profiles' memory. With one round to compare,
    // that would read as negative tracing overhead, so it runs untimed.
    sweep.pass(&mut out, &mut rates, &mut off, 0);
    let (mut campaign_s, mut render_s) = (Vec::new(), Vec::new());
    let mut last = None;
    let timed = Instant::now();
    while p.keep_going(traced.len(), timed, p.seconds / 2.0) {
        let round = traced.len();
        plain.push(sweep.pass(&mut out, &mut rates, &mut off, round).0);
        let spans_before = tracer.spans().len();
        let (secs, baseline, html) = sweep.pass(&mut out, &mut rates, tracer, round);
        traced.push(secs);
        let spans = &tracer.spans()[spans_before..];
        let sum = |name: &str| {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.seconds())
                .sum::<f64>()
        };
        campaign_s.push(sum("serve.campaign"));
        render_s.push(sum("report.render"));
        last = Some((baseline, html));
    }
    let plain_s = stats::median(&plain);
    out.set("report.render_s", stats::median(&render_s));
    out.set(
        "core.suite_overhead_s",
        (plain_s - stats::median(&campaign_s) - stats::median(&render_s)).max(0.0),
    );
    out.set(
        "bench.trace_overhead_pct",
        (stats::median(&traced) - plain_s) / plain_s * 100.0,
    );

    if let Some((baseline, html)) = last {
        out.set("report.kb", html.len() as f64 / 1024.0);
        let profiles: Vec<_> = baseline.iter().map(|a| a.profile.clone()).collect();
        let ((), secs) = tracer.span("core.figures", "figures/0", |_| {
            for table in [
                figures::fig2_time_breakdown(&profiles),
                figures::fig3_instruction_mix(&profiles),
                figures::fig4_throughput(&profiles),
                figures::fig5_stalls(&profiles),
                figures::fig6_caches(&profiles),
                figures::fig7_sparsity(&profiles),
                figures::fig_roofline(&profiles),
                figures::suite_summary(&baseline),
            ] {
                black_box(table.to_string());
            }
        });
        out.set("core.figures_s", secs);
    }

    // Layer probes on every cached stream; the store probe writes to a
    // second cache so the swept one keeps its entries.
    let mut totals = SimTotals::default();
    let probe_cache = StreamCache::new(dir.path().join("probe-cache"));
    for (slot, (kind, key)) in sweep.kinds.iter().enumerate() {
        let op = format!("{}/probe", kind.label());
        let Some(run) = sweep.cache.load(key) else {
            out.check(false, || {
                format!("{op}: captured run missing from the cache")
            });
            continue;
        };
        probes::stream_cache(&mut out, tracer, &op, &probe_cache, key, &run);
        out.add("workloads.steps", run.stream.steps() as f64);
        out.add("workloads.kernels", run.stream.events.len() as f64);
        let replayed = probes::simulate_stream(
            &mut out,
            &mut totals,
            tracer,
            &op,
            kind.label(),
            &run.stream,
        );
        let live = sweep.live_total_ns[slot];
        out.check(replayed.to_bits() == live.to_bits(), || {
            format!("{op}: replay models {replayed} ns, live {live}")
        });
    }
    totals.finish(&mut out);
    out
}
