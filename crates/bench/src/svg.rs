//! Minimal hand-rolled SVG charts (no plotting dependency): line series and
//! bar charts with axes, ticks and a legend — enough to render every figure
//! `repro` regenerates into `results/*.svg`.

use std::fmt::Write as _;

/// One named line series.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
    /// Stroke color (any SVG color).
    pub color: String,
}

impl Series {
    /// Convenience constructor.
    pub(crate) fn new(label: &str, color: &str, points: Vec<(f64, f64)>) -> Self {
        Series { label: label.to_string(), color: color.to_string(), points }
    }
}

/// Chart geometry.
const W: f64 = 760.0;
const H: f64 = 440.0;
const ML: f64 = 70.0; // margins
const MR: f64 = 20.0;
const MT: f64 = 40.0;
const MB: f64 = 60.0;

fn nice_ticks(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    if hi <= lo || hi.is_nan() || lo.is_nan() {
        return vec![lo];
    }
    let span = hi - lo;
    let raw = span / n as f64;
    let mag = 10f64.powf(raw.log10().floor());
    let step = [1.0, 2.0, 2.5, 5.0, 10.0]
        .iter()
        .map(|m| m * mag)
        .find(|s| span / s <= n as f64)
        .unwrap_or(mag * 10.0);
    let start = (lo / step).ceil() * step;
    let mut out = Vec::new();
    let mut t = start;
    while t <= hi + 1e-9 * span {
        out.push(t);
        t += step;
    }
    out
}

fn fmt_num(v: f64) -> String {
    if v.abs() >= 1000.0 || v.fract().abs() < 1e-9 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Render a multi-series line chart.
pub(crate) fn line_chart(title: &str, x_label: &str, y_label: &str, series: &[Series]) -> String {
    let xs: Vec<f64> = series.iter().flat_map(|s| s.points.iter().map(|p| p.0)).collect();
    let ys: Vec<f64> = series.iter().flat_map(|s| s.points.iter().map(|p| p.1)).collect();
    let (x_lo, x_hi) = bounds(&xs);
    let (mut y_lo, mut y_hi) = bounds(&ys);
    if (y_hi - y_lo).abs() < 1e-12 {
        y_lo -= 1.0;
        y_hi += 1.0;
    }
    // Pad y range 5%.
    let pad = (y_hi - y_lo) * 0.05;
    let (y_lo, y_hi) = (y_lo - pad, y_hi + pad);

    let sx = |x: f64| ML + (x - x_lo) / (x_hi - x_lo).max(1e-12) * (W - ML - MR);
    let sy = |y: f64| H - MB - (y - y_lo) / (y_hi - y_lo).max(1e-12) * (H - MT - MB);

    let mut svg = header(title);
    axes(&mut svg, x_label, y_label);
    // Ticks.
    for t in nice_ticks(x_lo, x_hi, 8) {
        let x = sx(t);
        let _ = write!(
            svg,
            r##"<line x1="{x:.1}" y1="{}" x2="{x:.1}" y2="{}" stroke="#ccc"/><text x="{x:.1}" y="{}" text-anchor="middle" font-size="11">{}</text>"##,
            MT,
            H - MB,
            H - MB + 16.0,
            fmt_num(t)
        );
    }
    for t in nice_ticks(y_lo, y_hi, 6) {
        let y = sy(t);
        let _ = write!(
            svg,
            r##"<line x1="{}" y1="{y:.1}" x2="{}" y2="{y:.1}" stroke="#eee"/><text x="{}" y="{:.1}" text-anchor="end" font-size="11">{}</text>"##,
            ML,
            W - MR,
            ML - 6.0,
            y + 4.0,
            fmt_num(t)
        );
    }
    // Series.
    for s in series {
        if s.points.is_empty() {
            continue;
        }
        let path: String = s
            .points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| {
                format!("{}{:.1},{:.1}", if i == 0 { "M" } else { "L" }, sx(x), sy(y))
            })
            .collect();
        let _ = write!(
            svg,
            r##"<path d="{path}" fill="none" stroke="{}" stroke-width="1.8"/>"##,
            s.color
        );
    }
    legend(&mut svg, series);
    svg.push_str("</svg>\n");
    svg
}

/// Render a bar chart with per-bar labels.
pub(crate) fn bar_chart(title: &str, y_label: &str, bars: &[(String, f64, String)]) -> String {
    let ys: Vec<f64> = bars.iter().map(|b| b.1).collect();
    let (mut y_lo, mut y_hi) = bounds(&ys);
    y_lo = y_lo.min(0.0);
    y_hi = y_hi.max(0.0);
    if (y_hi - y_lo).abs() < 1e-12 {
        y_hi = y_lo + 1.0;
    }
    let pad = (y_hi - y_lo) * 0.08;
    let (y_lo, y_hi) = (y_lo - pad, y_hi + pad);
    let sy = |y: f64| H - MB - (y - y_lo) / (y_hi - y_lo) * (H - MT - MB);

    let n = bars.len().max(1) as f64;
    let slot = (W - ML - MR) / n;
    let bw = slot * 0.62;

    let mut svg = header(title);
    axes(&mut svg, "", y_label);
    for t in nice_ticks(y_lo, y_hi, 6) {
        let y = sy(t);
        let _ = write!(
            svg,
            r##"<line x1="{}" y1="{y:.1}" x2="{}" y2="{y:.1}" stroke="#eee"/><text x="{}" y="{:.1}" text-anchor="end" font-size="11">{}</text>"##,
            ML,
            W - MR,
            ML - 6.0,
            y + 4.0,
            fmt_num(t)
        );
    }
    let zero = sy(0.0);
    let _ = write!(
        svg,
        r##"<line x1="{}" y1="{zero:.1}" x2="{}" y2="{zero:.1}" stroke="#888"/>"##,
        ML,
        W - MR
    );
    for (i, (label, v, color)) in bars.iter().enumerate() {
        let x = ML + slot * (i as f64 + 0.5) - bw / 2.0;
        let y = sy(*v);
        let (top, height) = if *v >= 0.0 { (y, zero - y) } else { (zero, y - zero) };
        let _ = write!(
            svg,
            r##"<rect x="{x:.1}" y="{top:.1}" width="{bw:.1}" height="{height:.1}" fill="{color}"/>"##
        );
        let _ = write!(
            svg,
            r##"<text x="{:.1}" y="{}" text-anchor="middle" font-size="11">{label}</text>"##,
            x + bw / 2.0,
            H - MB + 16.0
        );
        let _ = write!(
            svg,
            r##"<text x="{:.1}" y="{:.1}" text-anchor="middle" font-size="10">{}</text>"##,
            x + bw / 2.0,
            if *v >= 0.0 { top - 4.0 } else { top + height + 12.0 },
            fmt_num(*v)
        );
    }
    svg.push_str("</svg>\n");
    svg
}

fn bounds(v: &[f64]) -> (f64, f64) {
    let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if lo.is_finite() && hi.is_finite() {
        (lo, hi)
    } else {
        (0.0, 1.0)
    }
}

fn header(title: &str) -> String {
    format!(
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}" font-family="sans-serif">
<rect width="{W}" height="{H}" fill="white"/>
<text x="{}" y="24" text-anchor="middle" font-size="15" font-weight="bold">{title}</text>
"##,
        W / 2.0
    )
}

fn axes(svg: &mut String, x_label: &str, y_label: &str) {
    let _ = write!(
        svg,
        r##"<line x1="{ML}" y1="{MT}" x2="{ML}" y2="{}" stroke="#444"/><line x1="{ML}" y1="{}" x2="{}" y2="{}" stroke="#444"/>"##,
        H - MB,
        H - MB,
        W - MR,
        H - MB
    );
    if !x_label.is_empty() {
        let _ = write!(
            svg,
            r##"<text x="{}" y="{}" text-anchor="middle" font-size="12">{x_label}</text>"##,
            (ML + W - MR) / 2.0,
            H - 16.0
        );
    }
    if !y_label.is_empty() {
        let _ = write!(
            svg,
            r##"<text x="16" y="{}" text-anchor="middle" font-size="12" transform="rotate(-90 16 {})">{y_label}</text>"##,
            (MT + H - MB) / 2.0,
            (MT + H - MB) / 2.0
        );
    }
}

fn legend(svg: &mut String, series: &[Series]) {
    for (i, s) in series.iter().enumerate() {
        let y = MT + 6.0 + i as f64 * 16.0;
        let _ = write!(
            svg,
            r##"<line x1="{}" y1="{y:.1}" x2="{}" y2="{y:.1}" stroke="{}" stroke-width="2"/><text x="{}" y="{:.1}" font-size="11">{}</text>"##,
            ML + 10.0,
            ML + 34.0,
            s.color,
            ML + 40.0,
            y + 4.0,
            s.label
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_chart_is_valid_svg_with_all_series() {
        let s = vec![
            Series::new("a", "#1f77b4", vec![(0.0, 1.0), (1.0, 2.0), (2.0, 1.5)]),
            Series::new("b", "#d62728", vec![(0.0, 2.0), (2.0, 0.5)]),
        ];
        let svg = line_chart("t", "x", "y", &s);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<path").count(), 2);
        assert!(svg.contains(">a<") && svg.contains(">b<"));
    }

    #[test]
    fn bar_chart_handles_negative_values() {
        let bars = vec![
            ("up".to_string(), 5.0, "#2ca02c".to_string()),
            ("down".to_string(), -3.0, "#d62728".to_string()),
        ];
        let svg = bar_chart("t", "y", &bars);
        assert_eq!(svg.matches("<rect").count(), 3); // background + 2 bars
        assert!(svg.contains("down"));
    }

    #[test]
    fn ticks_are_monotone_and_cover_range() {
        let t = nice_ticks(0.0, 10.0, 6);
        assert!(t.len() >= 3);
        assert!(t.windows(2).all(|w| w[1] > w[0]));
        assert!(*t.first().unwrap() >= 0.0 && *t.last().unwrap() <= 10.0 + 1e-9);
    }

    #[test]
    fn degenerate_ranges_do_not_panic() {
        let s = vec![Series::new("flat", "#000", vec![(0.0, 1.0), (1.0, 1.0)])];
        let svg = line_chart("t", "x", "y", &s);
        assert!(svg.contains("<path"));
        let _ = nice_ticks(5.0, 5.0, 4);
    }
}
