//! The report's panels: each function renders one `<section>` body from
//! profiles, the metrics registry snapshot, or the perf history, and
//! returns an empty string when it has nothing to show (the section is
//! then skipped entirely).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gnnmark_gpusim::roofline::{self, Bound};
use gnnmark_gpusim::StallReason;
use gnnmark_profiler::FigureCategory;
use gnnmark_telemetry::metrics::{percentile, MetricValue};

use crate::history::{regression_verdict, HistoryRow};
use crate::html::{esc, html_table};
use crate::svg::{
    fmt_bytes, fmt_ms, fmt_pct, fmt_sig, line_chart, px, stacked_bar, LogScale, PALETTE,
};
use crate::ReportRun;

fn bound_color(b: Bound) -> &'static str {
    match b {
        Bound::Memory => "#4e79a7",
        Bound::Compute => "#e15759",
        Bound::Overhead => "#bab0ab",
    }
}

fn stall_color(r: StallReason) -> &'static str {
    match r {
        StallReason::MemoryDependency => "#4e79a7",
        StallReason::ExecutionDependency => "#f28e2b",
        StallReason::InstructionFetch => "#e15759",
        StallReason::Synchronization => "#76b7b2",
        StallReason::PipeBusy => "#59a14f",
        StallReason::Other => "#bab0ab",
    }
}

fn category_color(i: usize) -> &'static str {
    PALETTE[i % PALETTE.len()]
}

/// Sums a series down to at most `buckets` points (each point the sum of
/// its slice), so long trainings stay renderable.
fn downsample_sum(vals: &[f64], buckets: usize) -> Vec<f64> {
    if vals.len() <= buckets {
        return vals.to_vec();
    }
    let mut out = Vec::with_capacity(buckets);
    for i in 0..buckets {
        let lo = i * vals.len() / buckets;
        let hi = ((i + 1) * vals.len() / buckets).max(lo + 1).min(vals.len());
        out.push(vals[lo..hi].iter().sum());
    }
    out
}

/// Means a series down to at most `buckets` points.
fn downsample_mean(vals: &[f64], buckets: usize) -> Vec<f64> {
    if vals.len() <= buckets {
        return vals.to_vec();
    }
    downsample_sum(vals, buckets)
        .into_iter()
        .zip((0..buckets).map(|i| {
            let lo = i * vals.len() / buckets;
            let hi = ((i + 1) * vals.len() / buckets).max(lo + 1).min(vals.len());
            (hi - lo) as f64
        }))
        .map(|(sum, n)| sum / n)
        .collect()
}

// ---------------------------------------------------------------- overview

pub(crate) fn overview(runs: &[ReportRun]) -> String {
    if runs.is_empty() {
        return String::new();
    }
    let headers = [
        "run",
        "device",
        "steps",
        "kernels",
        "modeled",
        "transfer",
        "GFLOPS",
        "IPC",
        "L1",
        "L2",
        "diverg.",
        "final loss",
        "quality",
    ];
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let p = &r.profile;
            vec![
                r.label.clone(),
                p.spec.name.clone(),
                p.steps.to_string(),
                p.kernels.len().to_string(),
                fmt_ms(p.total_kernel_time_ns()),
                fmt_ms(p.transfer_time_ns),
                fmt_sig(p.gflops()),
                fmt_sig(p.ipc()),
                fmt_pct(p.l1_hit_rate()),
                fmt_pct(p.l2_hit_rate()),
                fmt_pct(p.divergence()),
                r.losses.last().map_or("—".to_string(), |l| fmt_sig(*l)),
                r.quality
                    .as_ref()
                    .map_or("—".to_string(), |(n, v)| format!("{n} {}", fmt_sig(*v))),
            ]
        })
        .collect();
    let mut out = html_table(&headers, &rows);
    let metas: Vec<&ReportRun> = runs.iter().filter(|r| !r.meta.is_empty()).collect();
    if !metas.is_empty() {
        let rows: Vec<Vec<String>> = metas
            .iter()
            .map(|r| {
                let mut row = vec![r.label.clone()];
                row.push(
                    r.meta
                        .iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join("  "),
                );
                row
            })
            .collect();
        out.push_str(&html_table(&["run", "configuration"], &rows));
    }
    out
}

// ---------------------------------------------------------------- roofline

/// Per-kernel-name aggregate used by the roofline scatter: one point per
/// kernel name instead of one per launch keeps a 100k-launch training
/// readable while preserving the classification (reusing
/// [`roofline::classify`] per launch, the dominant bound by time wins).
struct RooflineAgg {
    ops: f64,
    dram: f64,
    time_ns: f64,
    bound_time: [f64; 3],
}

fn bound_index(b: Bound) -> usize {
    match b {
        Bound::Memory => 0,
        Bound::Compute => 1,
        Bound::Overhead => 2,
    }
}

const BOUNDS: [Bound; 3] = [Bound::Memory, Bound::Compute, Bound::Overhead];

pub(crate) fn roofline_panel(runs: &[ReportRun]) -> String {
    let mut figures = Vec::new();
    for run in runs {
        let p = &run.profile;
        if p.kernels.is_empty() {
            continue;
        }
        let spec = &p.spec;
        let mut agg: BTreeMap<&'static str, RooflineAgg> = BTreeMap::new();
        for k in &p.kernels {
            let pt = roofline::classify(spec, k);
            let e = agg.entry(k.kernel).or_insert(RooflineAgg {
                ops: 0.0,
                dram: 0.0,
                time_ns: 0.0,
                bound_time: [0.0; 3],
            });
            e.ops += (k.flops + k.iops) as f64;
            e.dram += k.memory.dram_bytes.max(1) as f64;
            e.time_ns += k.time_ns;
            e.bound_time[bound_index(pt.bound)] += k.time_ns;
        }
        let peak = spec.peak_gflops();
        let ridge = roofline::ridge_point(spec);
        let points: Vec<(&'static str, f64, f64, Bound, f64)> = agg
            .iter()
            .filter(|(_, a)| a.time_ns > 0.0)
            .map(|(name, a)| {
                let bi = (0..3).max_by(|&i, &j| {
                    a.bound_time[i]
                        .partial_cmp(&a.bound_time[j])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                (
                    *name,
                    a.ops / a.dram.max(1.0),
                    a.ops / a.time_ns,
                    BOUNDS[bi.unwrap_or(0)],
                    a.time_ns / p.total_kernel_time_ns().max(1.0),
                )
            })
            .collect();
        if points.is_empty() {
            continue;
        }
        let xmin = points.iter().map(|p| p.1).fold(ridge, f64::min).max(1e-4) / 2.0;
        let xmax = points.iter().map(|p| p.1).fold(ridge, f64::max) * 2.0;
        let ymin = points.iter().map(|p| p.2).fold(peak, f64::min).max(1e-4) / 2.0;
        let ymax = peak.max(points.iter().map(|p| p.2).fold(0.0, f64::max)) * 1.5;

        let (w, h) = (430.0, 300.0);
        let (ml, mr, mt, mb) = (50.0, 10.0, 12.0, 30.0);
        let xs = LogScale::new(xmin, xmax, ml, w - mr);
        let ys = LogScale::new(ymin, ymax, h - mb, mt);
        let mut svg = format!(
            "<svg width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\" \
             xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">\n"
        );
        // Decade grid.
        let dec0 = xmin.log10().floor() as i32;
        let dec1 = xmax.log10().ceil() as i32;
        for d in dec0..=dec1 {
            let v = 10f64.powi(d);
            if v < xmin || v > xmax {
                continue;
            }
            let x = xs.map(v);
            let _ = writeln!(
                svg,
                "<line x1=\"{0}\" y1=\"{1}\" x2=\"{0}\" y2=\"{2}\" stroke=\"#eef1f5\"/>\
                 <text x=\"{0}\" y=\"{3}\" font-size=\"9\" fill=\"#5b6b7c\" \
                 text-anchor=\"middle\">{4}</text>",
                px(x),
                px(mt),
                px(h - mb),
                px(h - mb + 12.0),
                esc(&fmt_sig(v)),
            );
        }
        let dec0 = ymin.log10().floor() as i32;
        let dec1 = ymax.log10().ceil() as i32;
        for d in dec0..=dec1 {
            let v = 10f64.powi(d);
            if v < ymin || v > ymax {
                continue;
            }
            let y = ys.map(v);
            let _ = writeln!(
                svg,
                "<line x1=\"{0}\" y1=\"{2}\" x2=\"{1}\" y2=\"{2}\" stroke=\"#eef1f5\"/>\
                 <text x=\"{3}\" y=\"{4}\" font-size=\"9\" fill=\"#5b6b7c\" \
                 text-anchor=\"end\">{5}</text>",
                px(ml),
                px(w - mr),
                px(y),
                px(ml - 4.0),
                px(y + 3.0),
                esc(&fmt_sig(v)),
            );
        }
        // Roofs: memory slope up to the ridge, compute roof beyond it.
        let roof_x0 = xmin.max(ymin / spec.hbm_gbps);
        let _ = writeln!(
            svg,
            "<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"#1c2733\" \
             stroke-width=\"1.4\"/>\
             <line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"#1c2733\" \
             stroke-width=\"1.4\"/>\
             <line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"#9aa5b1\" \
             stroke-dasharray=\"4 3\"/>",
            px(xs.map(roof_x0)),
            px(ys.map(spec.hbm_gbps * roof_x0)),
            px(xs.map(ridge)),
            px(ys.map(peak)),
            px(xs.map(ridge)),
            px(ys.map(peak)),
            px(xs.map(xmax)),
            px(ys.map(peak)),
            px(xs.map(ridge)),
            px(mt),
            px(xs.map(ridge)),
            px(h - mb),
        );
        let _ = writeln!(
            svg,
            "<text x=\"{}\" y=\"{}\" font-size=\"9\" fill=\"#44556a\">ridge {} op/B · \
             peak {} Gop/s</text>",
            px(ml + 4.0),
            px(mt + 9.0),
            esc(&fmt_sig(ridge)),
            esc(&fmt_sig(peak)),
        );
        // Axis captions.
        let _ = writeln!(
            svg,
            "<text x=\"{}\" y=\"{}\" font-size=\"10\" fill=\"#44556a\" \
             text-anchor=\"middle\">arithmetic intensity (op/B)</text>",
            px((ml + w - mr) / 2.0),
            px(h - 4.0),
        );
        for (name, ix, gops, bound, share) in &points {
            let _ = writeln!(
                svg,
                "<circle cx=\"{}\" cy=\"{}\" r=\"3.5\" fill=\"{}\" fill-opacity=\"0.85\">\
                 <title>{}: {} op/B, {} Gop/s, {}, {} of kernel time</title></circle>",
                px(xs.map(*ix)),
                px(ys.map(*gops)),
                bound_color(*bound),
                esc(name),
                esc(&fmt_sig(*ix)),
                esc(&fmt_sig(*gops)),
                bound.label(),
                fmt_pct(*share),
            );
        }
        svg.push_str("</svg>\n");

        let (mem, comp, over) = roofline::bound_shares(spec, &p.kernels);
        let bar = stacked_bar(
            &[
                (
                    mem,
                    bound_color(Bound::Memory),
                    format!("memory {}", fmt_pct(mem)),
                ),
                (
                    comp,
                    bound_color(Bound::Compute),
                    format!("compute {}", fmt_pct(comp)),
                ),
                (
                    over,
                    bound_color(Bound::Overhead),
                    format!("overhead {}", fmt_pct(over)),
                ),
            ],
            430.0,
            16.0,
        );
        figures.push(format!(
            "<figure style=\"margin:0\"><h3>{}</h3>{svg}{bar}\
             <div class=\"note\">time-weighted bound shares</div></figure>",
            esc(&run.label)
        ));
    }
    if figures.is_empty() {
        return String::new();
    }
    let legend = format!(
        "<div class=\"legend\"><span><span class=\"swatch\" \
         style=\"background:{}\"></span>memory-bound</span><span><span class=\"swatch\" \
         style=\"background:{}\"></span>compute-bound</span><span><span class=\"swatch\" \
         style=\"background:{}\"></span>overhead-bound</span></div>",
        bound_color(Bound::Memory),
        bound_color(Bound::Compute),
        bound_color(Bound::Overhead),
    );
    format!("{legend}<div class=\"row\">{}</div>", figures.join("\n"))
}

// ------------------------------------------------------------------ stalls

pub(crate) fn stalls_panel(runs: &[ReportRun]) -> String {
    let mut figures = Vec::new();
    for run in runs {
        let p = &run.profile;
        let total_cycles: f64 = p.per_class.values().map(|s| s.cycles).sum();
        if total_cycles <= 0.0 {
            continue;
        }
        let (w, row_h, gap) = (860.0, 26.0, 3.0);
        let h = row_h * 3.0 + gap * 2.0 + 14.0;
        let mut svg = format!(
            "<svg width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\" \
             xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">\n"
        );
        // Row 1: whole-run cycle-weighted stall mix.
        let all = p.stalls();
        let mut x = 0.0;
        for r in StallReason::ALL {
            let share = all.share(r);
            let seg = share * w;
            if seg <= 0.0 {
                continue;
            }
            let _ = writeln!(
                svg,
                "<rect x=\"{}\" y=\"0\" width=\"{}\" height=\"{row_h}\" fill=\"{}\">\
                 <title>all kernels · {}: {}</title></rect>",
                px(x),
                px(seg),
                stall_color(r),
                r.label(),
                fmt_pct(share),
            );
            if seg > 64.0 {
                let _ = writeln!(
                    svg,
                    "<text x=\"{}\" y=\"{}\" font-size=\"10\" fill=\"#fff\" \
                     text-anchor=\"middle\">{} {}</text>",
                    px(x + seg / 2.0),
                    px(row_h / 2.0 + 3.5),
                    r.label(),
                    fmt_pct(share),
                );
            }
            x += seg;
        }
        // Row 2: cycles per op category; row 3: stall split inside each.
        let y1 = row_h + gap;
        let y2 = y1 + row_h + gap;
        let mut x = 0.0;
        for (ci, cat) in FigureCategory::ALL.iter().enumerate() {
            let Some(stats) = p.per_class.get(cat) else {
                continue;
            };
            let share = stats.cycles / total_cycles;
            let seg = share * w;
            if seg <= 0.0 {
                continue;
            }
            let _ = writeln!(
                svg,
                "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{row_h}\" fill=\"{}\">\
                 <title>{}: {} of cycles, {} launches</title></rect>",
                px(x),
                px(y1),
                px(seg),
                category_color(ci),
                cat.label(),
                fmt_pct(share),
                stats.launches,
            );
            if seg > 54.0 {
                let _ = writeln!(
                    svg,
                    "<text x=\"{}\" y=\"{}\" font-size=\"10\" fill=\"#fff\" \
                     text-anchor=\"middle\">{}</text>",
                    px(x + seg / 2.0),
                    px(y1 + row_h / 2.0 + 3.5),
                    cat.label(),
                );
            }
            let stalls = stats.stalls();
            let mut sx = x;
            for r in StallReason::ALL {
                let sshare = stalls.share(r);
                let sseg = sshare * seg;
                if sseg <= 0.0 {
                    continue;
                }
                let _ = writeln!(
                    svg,
                    "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{row_h}\" fill=\"{}\" \
                     fill-opacity=\"0.9\"><title>{} · {}: {}</title></rect>",
                    px(sx),
                    px(y2),
                    px(sseg),
                    stall_color(r),
                    cat.label(),
                    r.label(),
                    fmt_pct(sshare),
                );
                sx += sseg;
            }
            x += seg;
        }
        svg.push_str("</svg>\n");
        figures.push(format!(
            "<h3>{}</h3>{svg}<div class=\"note\">top: cycle-weighted stall mix of every \
             kernel · middle: cycles per op category · bottom: stall split within each \
             category</div>",
            esc(&run.label)
        ));
    }
    if figures.is_empty() {
        return String::new();
    }
    let legend: String = StallReason::ALL
        .iter()
        .map(|r| {
            format!(
                "<span><span class=\"swatch\" style=\"background:{}\"></span>{}</span>",
                stall_color(*r),
                r.label()
            )
        })
        .collect();
    format!("<div class=\"legend\">{legend}</div>{}", figures.join("\n"))
}

// ---------------------------------------------------------------- timeline

pub(crate) fn timeline_panel(runs: &[ReportRun]) -> String {
    let series: Vec<(String, Vec<f64>)> = runs
        .iter()
        .filter(|r| !r.profile.step_kernels.is_empty())
        .map(|r| {
            let ms: Vec<f64> = r
                .profile
                .step_times_ns()
                .iter()
                .map(|ns| ns / 1e6)
                .collect();
            (r.label.clone(), downsample_sum(&ms, 160))
        })
        .filter(|(_, v)| v.len() >= 2)
        .collect();
    if series.is_empty() {
        return String::new();
    }
    let chart = line_chart(&series, 860.0, 200.0, "modeled ms / step", "training step");
    let notes: Vec<String> = runs
        .iter()
        .filter(|r| r.steps_per_epoch > 0)
        .map(|r| format!("{}: {} steps/epoch", r.label, r.steps_per_epoch))
        .collect();
    let note = if notes.is_empty() {
        String::new()
    } else {
        format!("<div class=\"note\">{}</div>", esc(&notes.join(" · ")))
    };
    format!(
        "{chart}{note}<div class=\"note\">per-step modeled kernel time (steps beyond 160 \
         are bucketed)</div>"
    )
}

// ------------------------------------------------------------------ caches

pub(crate) fn caches_panel(runs: &[ReportRun]) -> String {
    if runs.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    // Hierarchy service shares: where accesses are satisfied.
    for run in runs {
        let p = &run.profile;
        let (mut l1a, mut l1h, mut l2a, mut l2h) = (0u64, 0u64, 0u64, 0u64);
        let mut dram = 0u64;
        for k in &p.kernels {
            l1a += k.memory.l1_accesses;
            l1h += k.memory.l1_hits;
            l2a += k.memory.l2_accesses;
            l2h += k.memory.l2_hits;
            dram += k.memory.dram_bytes;
        }
        if l1a == 0 {
            continue;
        }
        let l1_share = l1h as f64 / l1a as f64;
        let l2_share = (1.0 - l1_share)
            * if l2a == 0 {
                0.0
            } else {
                l2h as f64 / l2a as f64
            };
        let dram_share = (1.0 - l1_share - l2_share).max(0.0);
        let bar = stacked_bar(
            &[
                (l1_share, "#59a14f", format!("L1 {}", fmt_pct(l1_share))),
                (l2_share, "#edc948", format!("L2 {}", fmt_pct(l2_share))),
                (
                    dram_share,
                    "#e15759",
                    format!("DRAM {}", fmt_pct(dram_share)),
                ),
            ],
            560.0,
            18.0,
        );
        let _ = write!(
            out,
            "<h3>{} — access service levels · {} DRAM traffic</h3>{bar}",
            esc(&run.label),
            fmt_bytes(dram),
        );
    }
    // Per-category detail table per run.
    for run in runs {
        let p = &run.profile;
        let rows: Vec<Vec<String>> = FigureCategory::ALL
            .iter()
            .filter_map(|cat| p.per_class.get(cat).map(|s| (cat, s)))
            .map(|(cat, s)| {
                vec![
                    cat.label().to_string(),
                    s.launches.to_string(),
                    fmt_pct(p.time_share(*cat)),
                    fmt_sig(s.gflops()),
                    fmt_pct(s.l1_hit_rate()),
                    fmt_pct(s.l2_hit_rate()),
                    fmt_pct(s.divergence()),
                ]
            })
            .collect();
        if rows.is_empty() {
            continue;
        }
        let _ = write!(
            out,
            "<h3>{} — per-category cache behavior</h3>{}",
            esc(&run.label),
            html_table(
                &["category", "launches", "time", "GFLOPS", "L1 hit", "L2 hit", "diverg."],
                &rows
            )
        );
    }
    out
}

// --------------------------------------------------------------- transfers

pub(crate) fn transfers_panel(runs: &[ReportRun]) -> String {
    let with_data: Vec<&ReportRun> = runs.iter().filter(|r| r.profile.h2d_bytes > 0).collect();
    if with_data.is_empty() {
        return String::new();
    }
    let rows: Vec<Vec<String>> = with_data
        .iter()
        .map(|r| {
            let p = &r.profile;
            vec![
                r.label.clone(),
                fmt_bytes(p.h2d_bytes),
                fmt_bytes(p.h2d_compressed_bytes),
                fmt_pct(p.compression_savings()),
                fmt_ms(p.transfer_time_ns),
                fmt_pct(p.mean_sparsity),
            ]
        })
        .collect();
    let table = html_table(
        &[
            "run",
            "H2D bytes",
            "compressed",
            "savings",
            "transfer time",
            "mean sparsity",
        ],
        &rows,
    );
    let series: Vec<(String, Vec<f64>)> = with_data
        .iter()
        .filter(|r| r.profile.sparsity_series.len() >= 2)
        .map(|r| {
            (
                r.label.clone(),
                downsample_mean(&r.profile.sparsity_series, 160),
            )
        })
        .collect();
    let chart = line_chart(
        &series,
        860.0,
        160.0,
        "H2D sparsity",
        "transfer (training order)",
    );
    format!("{table}{chart}")
}

// ---------------------------------------------------- convergence & memory

pub(crate) fn convergence_panel(runs: &[ReportRun]) -> String {
    let series: Vec<(String, Vec<f64>)> = runs
        .iter()
        .filter(|r| r.losses.len() >= 2)
        .map(|r| (r.label.clone(), r.losses.clone()))
        .collect();
    if series.is_empty() {
        return String::new();
    }
    line_chart(&series, 560.0, 200.0, "training loss", "epoch")
}

/// Renders one metric value as a table cell.
fn metric_cell(v: &MetricValue) -> String {
    match v {
        MetricValue::Counter(c) => c.to_string(),
        MetricValue::Gauge(g) => fmt_sig(*g),
        MetricValue::Histogram {
            count,
            sum,
            min,
            max,
        } => format!(
            "n={count} mean={} min={} max={}",
            fmt_sig(if *count == 0 {
                0.0
            } else {
                sum / *count as f64
            }),
            fmt_sig(*min),
            fmt_sig(*max),
        ),
        MetricValue::Buckets { .. } => {
            let (_, _, count, sum) = v.as_buckets().expect("buckets variant");
            format!(
                "n={count} mean={} p50={} p99={}",
                fmt_sig(if count == 0 { 0.0 } else { sum / count as f64 }),
                v.bucket_quantile(0.5).map_or("—".to_string(), fmt_sig),
                v.bucket_quantile(0.99).map_or("—".to_string(), fmt_sig),
            )
        }
    }
}

fn metric_table(metrics: &[(String, MetricValue)], keep: &dyn Fn(&str) -> bool) -> String {
    let rows: Vec<Vec<String>> = metrics
        .iter()
        .filter(|(k, _)| keep(k))
        .map(|(k, v)| vec![k.clone(), metric_cell(v)])
        .collect();
    if rows.is_empty() {
        String::new()
    } else {
        html_table(&["metric", "value"], &rows)
    }
}

pub(crate) fn amp_panel(metrics: &[(String, MetricValue)]) -> String {
    metric_table(metrics, &|k: &str| {
        k.starts_with("gnnmark_amp_")
            || k.starts_with("gnnmark_activation_")
            || k.starts_with("gnnmark_autograd_")
            || k == "gnnmark_param_bytes_total"
    })
}

pub(crate) fn minibatch_panel(runs: &[ReportRun], metrics: &[(String, MetricValue)]) -> String {
    let table = metric_table(metrics, &|k: &str| {
        k.starts_with("gnnmark_pool_")
            || k.starts_with("gnnmark_stream_")
            || k.starts_with("gnnmark_sampler_")
            || k.starts_with("gnnmark_minibatch_")
    });
    let modes: Vec<Vec<String>> = runs
        .iter()
        .filter_map(|r| {
            r.meta
                .iter()
                .find(|(k, _)| k == "mode")
                .filter(|(_, v)| v != "fullgraph")
                .map(|(_, v)| vec![r.label.clone(), v.clone()])
        })
        .collect();
    let mode_table = if modes.is_empty() {
        String::new()
    } else {
        html_table(&["run", "sampling mode"], &modes)
    };
    if table.is_empty() && mode_table.is_empty() {
        String::new()
    } else {
        format!("{mode_table}{table}")
    }
}

// -------------------------------------------------------------- comparison

pub(crate) fn comparison_panel(runs: &[ReportRun]) -> String {
    if runs.len() < 2 {
        return String::new();
    }
    type Extract = (&'static str, fn(&ReportRun) -> f64, fn(f64) -> String);
    let metrics: Vec<Extract> = vec![
        (
            "modeled kernel ms",
            |r| r.profile.total_kernel_time_ns() / 1e6,
            fmt_sig,
        ),
        ("transfer ms", |r| r.profile.transfer_time_ns / 1e6, fmt_sig),
        ("GFLOPS", |r| r.profile.gflops(), fmt_sig),
        ("GIOPS", |r| r.profile.giops(), fmt_sig),
        ("IPC", |r| r.profile.ipc(), fmt_sig),
        ("L1 hit rate", |r| r.profile.l1_hit_rate(), fmt_pct),
        ("L2 hit rate", |r| r.profile.l2_hit_rate(), fmt_pct),
        ("divergence", |r| r.profile.divergence(), fmt_pct),
        (
            "MemDep stall share",
            |r| r.profile.stall_share(StallReason::MemoryDependency),
            fmt_pct,
        ),
    ];
    let mut headers: Vec<String> = vec!["metric".to_string()];
    headers.extend(runs.iter().map(|r| r.label.clone()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = metrics
        .iter()
        .map(|(name, f, fmt)| {
            let base = f(&runs[0]);
            let mut row = vec![name.to_string()];
            for (i, r) in runs.iter().enumerate() {
                let v = f(r);
                if i == 0 || base <= 0.0 {
                    row.push(fmt(v));
                } else {
                    row.push(format!("{} ({}x)", fmt(v), fmt_sig(v / base)));
                }
            }
            row
        })
        .collect();
    format!(
        "{}<div class=\"note\">ratios are relative to `{}`</div>",
        html_table(&header_refs, &rows),
        esc(&runs[0].label)
    )
}

// --------------------------------------------------------------------- SLO

/// Forward-only runs: batch-1 modeled latency percentiles and the
/// batched-throughput saturation rate, read off the profile's per-step
/// times using each run's [`crate::InferStats`] shape.
pub(crate) fn inference_panel(runs: &[ReportRun]) -> String {
    let rows: Vec<Vec<String>> = runs
        .iter()
        .filter_map(|r| r.infer.as_ref().map(|s| (r, s)))
        .map(|(r, stats)| {
            let step_ms: Vec<f64> = r
                .profile
                .step_times_ns()
                .iter()
                .map(|ns| ns / 1e6)
                .collect();
            let split = stats.batch1_steps.min(step_ms.len());
            let (batch1, batched) = step_ms.split_at(split);
            let q = |p: f64| format!("{} ms", fmt_sig(percentile(batch1, p)));
            let batched_ms: f64 = batched.iter().sum();
            let throughput = if batched_ms <= 0.0 {
                "—".to_string()
            } else if stats.items_per_step > 0 {
                let items = stats.items_per_step * batched.len() as u64;
                format!("{} items/s", fmt_sig(items as f64 / (batched_ms / 1e3)))
            } else {
                format!(
                    "{} steps/s",
                    fmt_sig(batched.len() as f64 / (batched_ms / 1e3))
                )
            };
            vec![
                r.label.clone(),
                batch1.len().to_string(),
                q(0.5),
                q(0.95),
                q(0.99),
                format!("{} ms", fmt_sig(percentile(batch1, 1.0))),
                batched.len().to_string(),
                throughput,
            ]
        })
        .collect();
    if rows.is_empty() {
        return String::new();
    }
    let table = html_table(
        &[
            "run",
            "batch-1 requests",
            "p50",
            "p95",
            "p99",
            "max",
            "batched steps",
            "saturation",
        ],
        &rows,
    );
    format!(
        "{table}<div class=\"note\">modeled-time latency of forward-only (tape-free) \
         streams; batch-1 steps score one item, batched steps the training batch \
         size — see docs/INFERENCE.md</div>"
    )
}

/// Quantile table of every fixed-bucket histogram in the snapshot — the
/// dashboard's SLO view, fed by the same counters `gnnmark loadtest`
/// observes into.
pub(crate) fn slo_panel(metrics: &[(String, MetricValue)]) -> String {
    let rows: Vec<Vec<String>> = metrics
        .iter()
        .filter_map(|(k, v)| v.as_buckets().map(|(_, _, count, sum)| (k, v, count, sum)))
        .map(|(k, v, count, sum)| {
            let q = |p: f64| {
                v.bucket_quantile(p)
                    .map_or("—".to_string(), |s| format!("{} ms", fmt_sig(s * 1e3)))
            };
            vec![
                k.clone(),
                count.to_string(),
                format!(
                    "{} ms",
                    fmt_sig(if count == 0 {
                        0.0
                    } else {
                        sum / count as f64 * 1e3
                    })
                ),
                q(0.5),
                q(0.9),
                q(0.99),
            ]
        })
        .collect();
    if rows.is_empty() {
        String::new()
    } else {
        html_table(
            &["latency histogram", "count", "mean", "p50", "p90", "p99"],
            &rows,
        )
    }
}

// ----------------------------------------------------------------- history

pub(crate) fn history_panel(rows: &[HistoryRow], max_ratio: f64) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let verdict = regression_verdict(rows, max_ratio);
    let verdict_html = format!(
        "<p class=\"{}\">regression verdict: {}</p>",
        if verdict.ok { "ok" } else { "fail" },
        esc(&verdict.summary)
    );
    let reg_table = if verdict.regressions.is_empty() {
        String::new()
    } else {
        html_table(
            &["bench", "baseline ns", "latest ns", "ratio"],
            &verdict
                .regressions
                .iter()
                .map(|(n, old, new)| {
                    vec![
                        n.clone(),
                        fmt_sig(*old),
                        fmt_sig(*new),
                        format!("{}x", fmt_sig(new / old)),
                    ]
                })
                .collect::<Vec<_>>(),
        )
    };

    // Trend chart: geometric-mean bench ratio vs the first bench-bearing
    // row, plus suite wall time where recorded.
    let base = rows.iter().find(|r| !r.benches.is_empty());
    let mut ratio_series = Vec::new();
    if let Some(base) = base {
        for r in rows.iter().filter(|r| !r.benches.is_empty()) {
            let mut log_sum = 0.0;
            let mut n = 0usize;
            for (name, ns) in &r.benches {
                if let Some((_, base_ns)) = base.benches.iter().find(|(m, _)| m == name) {
                    if *base_ns > 0.0 && *ns > 0.0 {
                        log_sum += (ns / base_ns).ln();
                        n += 1;
                    }
                }
            }
            if n > 0 {
                ratio_series.push((log_sum / n as f64).exp());
            }
        }
    }
    let wall_series: Vec<f64> = rows.iter().filter_map(|r| r.suite_wall_s).collect();
    let mut series = Vec::new();
    if ratio_series.len() >= 2 {
        series.push(("geomean bench ratio".to_string(), ratio_series));
    }
    if wall_series.len() >= 2 {
        series.push(("suite wall s".to_string(), wall_series));
    }
    let chart = line_chart(
        &series,
        560.0,
        180.0,
        "vs first recorded row",
        "recorded row",
    );

    let tail: Vec<&HistoryRow> = rows.iter().rev().take(10).rev().collect();
    let table = html_table(
        &[
            "commit",
            "source",
            "benches",
            "suite wall",
            "cache hit rate",
        ],
        &tail
            .iter()
            .map(|r| {
                vec![
                    r.commit.clone(),
                    r.source.clone(),
                    r.benches.len().to_string(),
                    r.suite_wall_s
                        .map_or("—".to_string(), |w| format!("{} s", fmt_sig(w))),
                    r.cache_hit_rate.map_or("—".to_string(), fmt_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    format!("{verdict_html}{reg_table}{chart}{table}")
}
