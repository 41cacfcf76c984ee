//! The three workloads that run the tensor / autograd / gpusim stack
//! live: `train_full`, `train_minibatch` and `infer_fwd`.
//!
//! A pass calls the suite's public entry point once per workload kind.
//! The traced run alternates such plain passes with decomposed passes
//! that drive the same public calls the entry point makes — build,
//! session, epochs, finish — with a span at each boundary, and probes the
//! layers on what the first decomposed pass produced.

use std::time::Instant;

use gnnmark::infer::{run_infer_workload, InferConfig};
use gnnmark::suite::{run_workload_full, SuiteConfig};
use gnnmark::{ProfileSession, TrainMode, Workload, WorkloadKind};
use gnnmark_autograd::{
    activation_bytes_peak, reset_activation_peak, tape_nodes_recorded, NoGradGuard,
};
use gnnmark_gpusim::stream::CapturedStream;
use gnnmark_gpusim::DeviceSpec;
use gnnmark_tensor::pool;
use gnnmark_workloads::{InferBatch, MinibatchConfig};

use crate::common::{same_bits, KernelRates, Outcome, Params};
use crate::probes::{self, SimTotals};
use crate::span::Tracer;
use crate::spec::KERNEL_THREADS;
use crate::stats;

/// Epochs of a timed pass.
const EPOCHS: usize = 2;
/// The warm-up pass builds the same datasets and touches the same shapes;
/// its second epoch would warm nothing the first did not.
const WARMUP_EPOCHS: usize = 1;
/// Repetitions of the forward and forward+backward probes per kind.
const PROBE_REPS: usize = 3;
/// ARGA's citation-graph scale at `Scale::Small` / `Scale::Test`.
const ARGA_GRAPH_SCALE: (f64, f64) = (0.25, 0.05);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Live {
    TrainFull,
    TrainMinibatch,
    InferFwd,
}

impl Live {
    fn kinds(self) -> Vec<WorkloadKind> {
        WorkloadKind::ALL
            .into_iter()
            // STGCN's minibatch pass alone takes four times the other
            // eight together; it would be the whole workload.
            .filter(|&k| !(self == Live::TrainMinibatch && k == WorkloadKind::Stgcn))
            .collect()
    }

    fn suite(self, p: &Params, epochs: usize) -> SuiteConfig {
        let mode = match self {
            Live::TrainMinibatch => TrainMode::Minibatch(MinibatchConfig::default()),
            Live::TrainFull | Live::InferFwd => TrainMode::FullGraph,
        };
        let mut cfg = SuiteConfig::small()
            .with_threads(KERNEL_THREADS)
            .with_mode(mode);
        cfg.scale = p.scale();
        cfg.seed = p.seed;
        cfg.epochs = epochs;
        cfg
    }
}

/// What one workload-kind run hands back for checking.
struct KindRun {
    losses: Vec<f64>,
    kernels: u64,
    tape_nodes: u64,
}

/// One kind through the suite's public entry point.
fn plain_op(live: Live, kind: WorkloadKind, cfg: &SuiteConfig) -> gnnmark::Result<KindRun> {
    match live {
        Live::TrainFull | Live::TrainMinibatch => {
            let art = run_workload_full(kind, cfg)?;
            Ok(KindRun {
                losses: art.losses,
                kernels: art.profile.kernels.len() as u64,
                tape_nodes: 0,
            })
        }
        Live::InferFwd => {
            let art = run_infer_workload(kind, &InferConfig::new(cfg.clone()))?;
            Ok(KindRun {
                losses: art.losses,
                kernels: art.profile.kernels.len() as u64,
                tape_nodes: art.tape_nodes,
            })
        }
    }
}

/// Checks one kind's result against the first timed pass and counts it.
struct Checker {
    live: Live,
    first: Vec<Option<Vec<f64>>>,
}

impl Checker {
    fn record(
        &mut self,
        out: &mut Outcome,
        slot: usize,
        kind: WorkloadKind,
        run: gnnmark::Result<KindRun>,
    ) -> u64 {
        let label = kind.label();
        match run {
            Err(e) => {
                out.op(false, || format!("{label}: {e}"));
                0
            }
            Ok(run) => {
                out.op(run.losses.iter().all(|l| l.is_finite()), || {
                    format!("{label}: non-finite loss {:?}", run.losses)
                });
                if self.live == Live::InferFwd {
                    out.check(run.tape_nodes == 0, || {
                        format!("{label}: inference recorded {} tape nodes", run.tape_nodes)
                    });
                }
                match &self.first[slot] {
                    Some(first) => out.check(same_bits(first, &run.losses), || {
                        format!("{label}: losses differ from the first pass")
                    }),
                    None => self.first[slot] = Some(run.losses),
                }
                run.kernels
            }
        }
    }
}

/// One plain pass; returns the seconds it took.
fn plain_pass(
    live: Live,
    kinds: &[WorkloadKind],
    cfg: &SuiteConfig,
    checker: &mut Checker,
    out: &mut Outcome,
    rates: &mut KernelRates,
) -> f64 {
    let pass = Instant::now();
    for (slot, &kind) in kinds.iter().enumerate() {
        let t0 = Instant::now();
        let run = plain_op(live, kind, cfg);
        let secs = t0.elapsed().as_secs_f64();
        rates.add(slot, checker.record(out, slot, kind, run), secs);
    }
    pass.elapsed().as_secs_f64()
}

fn warm_up(live: Live, kinds: &[WorkloadKind], p: &Params, out: &mut Outcome) {
    let cfg = live.suite(p, WARMUP_EPOCHS);
    for &kind in kinds {
        if let Err(e) = plain_op(live, kind, &cfg) {
            out.check(false, || format!("warm-up {}: {e}", kind.label()));
        }
    }
}

/// The untraced run: the end-to-end metrics.
pub fn run(live: Live, p: &Params) -> Outcome {
    gnnmark_tensor::par::set_threads(KERNEL_THREADS);
    let mut out = Outcome::default();
    let kinds = live.kinds();
    warm_up(live, &kinds, p, &mut out);
    out.set("setup_s", p.started.elapsed().as_secs_f64());
    if p.setup_only {
        return out;
    }

    let cfg = live.suite(p, EPOCHS);
    let mut checker = Checker {
        live,
        first: vec![None; kinds.len()],
    };
    let mut rates = KernelRates::new(kinds.len());
    let mut passes = Vec::new();
    let timed = Instant::now();
    while p.keep_going(passes.len(), timed, p.seconds) {
        passes.push(plain_pass(
            live,
            &kinds,
            &cfg,
            &mut checker,
            &mut out,
            &mut rates,
        ));
    }
    out.set_pass_metrics(&passes, rates.per_second());
    out
}

/// Seconds spent in each named part of one decomposed pass.
#[derive(Debug, Default, Clone, Copy)]
struct Parts {
    build: f64,
    epochs: f64,
    finish: f64,
    /// The enclosing op spans, i.e. the parts plus span bookkeeping.
    total: f64,
}

/// What a decomposed op leaves behind for the probes.
struct Produced {
    workload: Box<dyn Workload>,
    stream: CapturedStream,
    live_total_ns: f64,
}

/// One kind through the same public calls `run_workload_full` /
/// `run_infer_workload` make, with a span at each boundary.
fn traced_op(
    live: Live,
    kind: WorkloadKind,
    cfg: &SuiteConfig,
    tracer: &mut Tracer,
    op: &str,
    parts: &mut Parts,
) -> gnnmark::Result<(KindRun, Produced)> {
    let (result, total) = tracer.span("bench.op", op, |tracer| {
        let (built, secs) = tracer.span("graph.build", op, |_| {
            kind.build_mode(cfg.scale, cfg.seed, &cfg.mode)
        });
        parts.build += secs;
        let mut w = built?;
        let mut session = ProfileSession::new(kind.label(), DeviceSpec::v100());
        session.enable_capture();
        let nodes_before = tape_nodes_recorded();
        let mut losses = Vec::new();
        if live == Live::InferFwd {
            let icfg = InferConfig::new(cfg.clone());
            let _no_grad = NoGradGuard::new();
            let (res, secs) = tracer.span("workloads.epoch", op, |_| -> gnnmark::Result<()> {
                let steps = std::iter::repeat_n(InferBatch::Single, icfg.batch1_steps)
                    .chain(std::iter::repeat_n(InferBatch::Full, icfg.batched_steps));
                for batch in steps {
                    session.begin_step();
                    let loss = w.infer(batch);
                    session.end_step();
                    losses.push(loss?);
                }
                Ok(())
            });
            parts.epochs += secs;
            res?;
        } else {
            for _ in 0..cfg.epochs {
                let (loss, secs) =
                    tracer.span("workloads.epoch", op, |_| w.run_epoch(&mut session));
                parts.epochs += secs;
                losses.push(loss?);
            }
        }
        let tape_nodes = match live {
            Live::InferFwd => tape_nodes_recorded().saturating_sub(nodes_before),
            _ => 0,
        };
        let ((profile, stream), secs) = tracer.span("profiler.finish", op, |_| {
            if live != Live::InferFwd {
                // `run_workload_full` evaluates task quality before it
                // finishes the session; it is part of the pass.
                let _ = w.quality();
            }
            session.finish_captured()
        });
        parts.finish += secs;
        Ok((
            KindRun {
                losses,
                kernels: profile.kernels.len() as u64,
                tape_nodes,
            },
            Produced {
                workload: w,
                stream,
                live_total_ns: profile.total_time_ns(),
            },
        ))
    });
    parts.total += total;
    result
}

/// Forward, forward+backward and simulator probes on one kind's artefacts.
fn probe_kind(
    live: Live,
    kind: WorkloadKind,
    mut made: Produced,
    out: &mut Outcome,
    totals: &mut SimTotals,
    tracer: &mut Tracer,
    op: &str,
) {
    let label = kind.label();
    let w = &mut made.workload;

    let mut forward = Vec::new();
    {
        let _no_grad = NoGradGuard::new();
        for _ in 0..PROBE_REPS {
            let (loss, secs) = tracer.span("nn.forward", op, |_| w.infer(InferBatch::Full));
            out.check(loss.is_ok(), || format!("{label}: forward probe failed"));
            forward.push(secs);
        }
    }
    let forward_s = stats::median(&forward);
    out.add("nn.forward_s", forward_s);

    if live != Live::InferFwd {
        let nodes_before = tape_nodes_recorded();
        reset_activation_peak();
        let mut fwd_bwd = Vec::new();
        for _ in 0..PROBE_REPS {
            let (loss, secs) = tracer.span("autograd.fwd_bwd", op, |_| w.probe());
            out.check(loss.is_ok(), || {
                format!("{label}: forward+backward probe failed")
            });
            fwd_bwd.push(secs);
        }
        let fwd_bwd_s = stats::median(&fwd_bwd);
        out.add("autograd.fwd_bwd_s", fwd_bwd_s);
        out.add("autograd.tape_bwd_s", fwd_bwd_s - forward_s);
        out.add(
            "autograd.tape_nodes",
            ((tape_nodes_recorded() - nodes_before) / PROBE_REPS as u64) as f64,
        );
        let peak_mb = activation_bytes_peak() as f64 / (1024.0 * 1024.0);
        let so_far = out
            .metrics
            .get("autograd.activation_peak_mb")
            .copied()
            .unwrap_or(0.0);
        out.set("autograd.activation_peak_mb", so_far.max(peak_mb));
    }

    out.add("workloads.steps", made.stream.steps() as f64);
    out.add("workloads.kernels", made.stream.events.len() as f64);
    let replayed_ns = probes::simulate_stream(out, totals, tracer, op, label, &made.stream);
    out.check(
        replayed_ns.to_bits() == made.live_total_ns.to_bits(),
        || {
            format!(
                "{label}: replay on the capture device models {replayed_ns} ns, live {}",
                made.live_total_ns
            )
        },
    );
}

/// The traced run: the per-layer metrics and the span list.
pub fn trace(live: Live, p: &Params, tracer: &mut Tracer) -> Outcome {
    gnnmark_tensor::par::set_threads(KERNEL_THREADS);
    let mut out = Outcome::default();
    let kinds = live.kinds();
    warm_up(live, &kinds, p, &mut out);

    let cfg = live.suite(p, EPOCHS);
    let mut checker = Checker {
        live,
        first: vec![None; kinds.len()],
    };
    let mut totals = SimTotals::default();
    let mut rates = KernelRates::new(kinds.len());
    let (mut plain, mut rounds) = (Vec::new(), Vec::<Parts>::new());
    let timed = Instant::now();
    // Probes take a fixed time on top of the passes, so passes get half.
    while p.keep_going(rounds.len(), timed, p.seconds / 2.0) {
        let round = rounds.len();
        plain.push(plain_pass(
            live,
            &kinds,
            &cfg,
            &mut checker,
            &mut out,
            &mut rates,
        ));

        let mut parts = Parts::default();
        let mut pool_delta = pool::PoolStats::default();
        for (slot, &kind) in kinds.iter().enumerate() {
            let op = format!("{}/{round}", kind.label());
            let before = pool::global_stats();
            let result = traced_op(live, kind, &cfg, tracer, &op, &mut parts);
            let after = pool::global_stats().since(&before);
            pool_delta.hits += after.hits;
            pool_delta.misses += after.misses;
            let (run, made) = match result {
                Ok((run, made)) => (Ok(run), Some(made)),
                Err(e) => (Err(e), None),
            };
            checker.record(&mut out, slot, kind, run);
            if let (0, Some(made)) = (round, made) {
                probe_kind(live, kind, made, &mut out, &mut totals, tracer, &op);
            }
        }
        if round == 0 {
            out.set("tensor.pool_hit_pct", pool_delta.hit_rate() * 100.0);
            out.set("tensor.pool_misses", pool_delta.misses as f64);
        }
        rounds.push(parts);
    }

    let column = |f: fn(&Parts) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<f64>>());
    let (build, epochs, finish) = (
        column(|r| r.build),
        column(|r| r.epochs),
        column(|r| r.finish),
    );
    let plain_s = stats::median(&plain);
    out.set("graph.build_s", build);
    out.set("workloads.epoch_s", epochs);
    out.samples
        .insert("workloads.epoch_s".to_string(), rounds.len() as u64);
    totals.finish(&mut out);
    out.set(
        "workloads.host_compute_s",
        epochs - out.metrics.get("gpusim.execute_s").copied().unwrap_or(0.0),
    );
    out.set(
        "core.suite_overhead_s",
        (plain_s - (build + epochs + finish)).max(0.0),
    );
    out.set(
        "bench.trace_overhead_pct",
        (column(|r| r.total) - plain_s) / plain_s * 100.0,
    );

    probes::tensor_kernels(&mut out);
    if live == Live::TrainMinibatch {
        let scale = if p.quick {
            ARGA_GRAPH_SCALE.1
        } else {
            ARGA_GRAPH_SCALE.0
        };
        if let Err(e) = probes::graph_sample(&mut out, scale, p.seed) {
            out.check(false, || format!("sampler probe: {e}"));
        }
    }
    out
}
