//! Inline-SVG chart primitives shared by the report panels.
//!
//! All coordinates and data values are formatted through the fixed-width
//! helpers here so a rendered chart is byte-identical for identical
//! inputs on every platform — the property the golden digest in
//! `gnnmark check` gates.

use std::fmt::Write as _;

use crate::html::esc;

/// Categorical color palette (ColorBrewer-ish, 11 entries to cover the
/// figure categories; panels index modulo the length).
pub(crate) const PALETTE: [&str; 11] = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1", "#ff9da7",
    "#9c755f", "#bab0ab", "#86bcb6",
];

/// Compact deterministic number: 3–4 significant digits, no scientific
/// notation in the ranges the report shows.
pub(crate) fn fmt_sig(v: f64) -> String {
    let a = v.abs();
    if !v.is_finite() {
        "—".to_string()
    } else if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else if a == 0.0 {
        "0".to_string()
    } else {
        format!("{v:.4}")
    }
}

/// Nanoseconds rendered at millisecond granularity.
pub(crate) fn fmt_ms(ns: f64) -> String {
    format!("{} ms", fmt_sig(ns / 1e6))
}

/// `[0, 1]` share rendered as a percentage.
pub(crate) fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Byte count with a binary unit.
pub(crate) fn fmt_bytes(b: u64) -> String {
    let bf = b as f64;
    if bf >= 1024.0 * 1024.0 * 1024.0 {
        format!("{} GiB", fmt_sig(bf / (1024.0 * 1024.0 * 1024.0)))
    } else if bf >= 1024.0 * 1024.0 {
        format!("{} MiB", fmt_sig(bf / (1024.0 * 1024.0)))
    } else if bf >= 1024.0 {
        format!("{} KiB", fmt_sig(bf / 1024.0))
    } else {
        format!("{b} B")
    }
}

/// One pixel coordinate, fixed to a tenth of a pixel.
pub(crate) fn px(v: f64) -> String {
    format!("{v:.1}")
}

/// Maps a data range onto a pixel range.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinScale {
    pub d0: f64,
    pub d1: f64,
    pub p0: f64,
    pub p1: f64,
}

impl LinScale {
    pub fn map(&self, v: f64) -> f64 {
        if (self.d1 - self.d0).abs() < f64::EPSILON {
            return self.p0;
        }
        self.p0 + (v - self.d0) / (self.d1 - self.d0) * (self.p1 - self.p0)
    }
}

/// Log-10 scale over a positive data range.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogScale {
    pub lin: LinScale,
}

impl LogScale {
    pub fn new(d0: f64, d1: f64, p0: f64, p1: f64) -> Self {
        LogScale {
            lin: LinScale {
                d0: d0.max(1e-12).log10(),
                d1: d1.max(1e-12).log10(),
                p0,
                p1,
            },
        }
    }

    pub fn map(&self, v: f64) -> f64 {
        self.lin.map(v.max(1e-12).log10())
    }
}

/// A multi-series line chart with a zero-based y axis, y-grid lines, and
/// a compact legend. `series` pairs a label with its samples (x is the
/// sample index). Returns an empty string when no series has ≥ 2 points.
pub(crate) fn line_chart(
    series: &[(String, Vec<f64>)],
    w: f64,
    h: f64,
    y_label: &str,
    x_label: &str,
) -> String {
    let n = series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    if n < 2 {
        return String::new();
    }
    let (ml, mr, mt, mb) = (52.0, 12.0, 18.0, 30.0);
    let y_max = series
        .iter()
        .flat_map(|(_, v)| v.iter())
        .fold(0.0f64, |m, &v| m.max(v))
        .max(1e-12)
        * 1.05;
    let xs = LinScale {
        d0: 0.0,
        d1: (n - 1) as f64,
        p0: ml,
        p1: w - mr,
    };
    let ys = LinScale {
        d0: 0.0,
        d1: y_max,
        p0: h - mb,
        p1: mt,
    };
    let mut out = format!(
        "<svg width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">\n"
    );
    // Grid + y ticks.
    for i in 0..=4 {
        let v = y_max * i as f64 / 4.0;
        let y = ys.map(v);
        let _ = writeln!(
            out,
            "<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"#e8ecf1\"/>\
             <text x=\"{}\" y=\"{}\" font-size=\"10\" fill=\"#5b6b7c\" \
             text-anchor=\"end\">{}</text>",
            px(ml),
            px(y),
            px(w - mr),
            px(y),
            px(ml - 5.0),
            px(y + 3.0),
            esc(&fmt_sig(v)),
        );
    }
    // Axes labels.
    let _ = writeln!(
        out,
        "<text x=\"{}\" y=\"12\" font-size=\"10\" fill=\"#44556a\">{}</text>\
         <text x=\"{}\" y=\"{}\" font-size=\"10\" fill=\"#44556a\" \
         text-anchor=\"middle\">{}</text>",
        px(ml),
        esc(y_label),
        px((ml + w - mr) / 2.0),
        px(h - 6.0),
        esc(x_label),
    );
    for (si, (label, vals)) in series.iter().enumerate() {
        if vals.len() < 2 {
            continue;
        }
        let color = PALETTE[si % PALETTE.len()];
        let mut d = String::new();
        for (i, &v) in vals.iter().enumerate() {
            let _ = write!(
                d,
                "{}{},{}",
                if i == 0 { "M" } else { " L" },
                px(xs.map(i as f64)),
                px(ys.map(v))
            );
        }
        let _ = writeln!(
            out,
            "<path d=\"{d}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.6\"/>"
        );
        let _ = writeln!(
            out,
            "<text x=\"{}\" y=\"{}\" font-size=\"10\" fill=\"{color}\" \
             text-anchor=\"end\">{}</text>",
            px(w - mr - 2.0),
            px(mt + 12.0 * si as f64 + 4.0),
            esc(label),
        );
    }
    out.push_str("</svg>\n");
    out
}

/// One horizontal stacked bar of labeled shares (`share` in `[0, 1]`,
/// rendered proportionally across `w`). Labels are drawn inside segments
/// wide enough to hold them; every segment carries a `<title>` tooltip.
pub(crate) fn stacked_bar(segments: &[(f64, &str, String)], w: f64, h: f64) -> String {
    let mut out = format!(
        "<svg width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\" \
         xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">\n"
    );
    let mut x = 0.0;
    for (share, color, label) in segments {
        let seg_w = share.max(0.0) * w;
        if seg_w <= 0.0 {
            continue;
        }
        let _ = writeln!(
            out,
            "<g><rect x=\"{}\" y=\"0\" width=\"{}\" height=\"{h}\" fill=\"{color}\">\
             <title>{}</title></rect>",
            px(x),
            px(seg_w),
            esc(label),
        );
        if seg_w > 56.0 {
            let _ = writeln!(
                out,
                "<text x=\"{}\" y=\"{}\" font-size=\"10\" fill=\"#fff\" \
                 text-anchor=\"middle\">{}</text>",
                px(x + seg_w / 2.0),
                px(h / 2.0 + 3.5),
                esc(label),
            );
        }
        out.push_str("</g>\n");
        x += seg_w;
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_formats_are_compact_and_stable() {
        assert_eq!(fmt_sig(1234.5), "1234");
        assert_eq!(fmt_sig(123.45), "123.5");
        assert_eq!(fmt_sig(12.345), "12.35");
        assert_eq!(fmt_sig(0.12345), "0.1235");
        assert_eq!(fmt_sig(0.0), "0");
        assert_eq!(fmt_pct(0.1234), "12.3%");
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
    }

    #[test]
    fn line_chart_renders_each_series_once() {
        let series = vec![
            ("a".to_string(), vec![1.0, 2.0, 3.0]),
            ("b".to_string(), vec![3.0, 2.0, 1.0]),
        ];
        let svg = line_chart(&series, 400.0, 160.0, "ms", "step");
        assert_eq!(svg.matches("<path").count(), 2);
        assert!(svg.contains(">a</text>") && svg.contains(">b</text>"));
        // Too few points → no chart.
        assert!(line_chart(&[("a".to_string(), vec![1.0])], 400.0, 160.0, "", "").is_empty());
    }

    #[test]
    fn stacked_bar_skips_zero_segments() {
        let segs = vec![
            (0.6, "#111111", "big 60%".to_string()),
            (0.0, "#222222", "gone".to_string()),
            (0.4, "#333333", "rest 40%".to_string()),
        ];
        let svg = stacked_bar(&segs, 300.0, 20.0);
        assert_eq!(svg.matches("<rect").count(), 2);
        assert!(!svg.contains("gone"));
    }
}
