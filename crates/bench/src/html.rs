//! Self-contained HTML forensics report for `mmaes explain --report`.
//!
//! One file, no external assets, no timestamps: the document embeds its
//! CSS and renders leakage trajectories as inline SVG polylines, so
//! identical campaigns produce byte-identical reports (the same
//! determinism contract the JSON evidence bundles carry).

use mmaes_leakage::{EvidenceBundle, LeakageReport, ProbeResult};
use mmaes_telemetry::json::number;
use mmaes_telemetry::RunRecord;

/// Escapes text for HTML element and attribute context.
fn escape(text: &str) -> String {
    let mut escaped = String::with_capacity(text.len());
    for character in text.chars() {
        match character {
            '&' => escaped.push_str("&amp;"),
            '<' => escaped.push_str("&lt;"),
            '>' => escaped.push_str("&gt;"),
            '"' => escaped.push_str("&quot;"),
            '\'' => escaped.push_str("&#39;"),
            other => escaped.push(other),
        }
    }
    escaped
}

const STYLE: &str = "\
body{font-family:system-ui,sans-serif;margin:2rem auto;max-width:60rem;\
padding:0 1rem;color:#1a1a2e}\
h1{font-size:1.5rem}h2{font-size:1.15rem;margin-top:2.5rem;\
border-top:2px solid #1a1a2e;padding-top:1rem}\
table{border-collapse:collapse;margin:.75rem 0;font-size:.85rem}\
th,td{border:1px solid #bbb;padding:.25rem .6rem;text-align:left}\
th{background:#eef}td.num{text-align:right;font-variant-numeric:tabular-nums}\
.leak{color:#b00020;font-weight:bold}.clean{color:#007a3d;font-weight:bold}\
.hint{background:#fff3cd;border-left:4px solid #b00020;padding:.5rem .75rem;\
margin:.75rem 0}\
pre{background:#f4f4f8;padding:.75rem;overflow-x:auto;font-size:.75rem}\
svg{background:#f4f4f8;margin:.5rem 0}";

/// The leakage trajectory as an inline SVG polyline, with the decision
/// threshold drawn as a dashed reference line.
fn trajectory_svg(result: &ProbeResult, threshold: f64) -> String {
    if result.trajectory.is_empty() {
        return String::new();
    }
    let (width, height, pad) = (420.0f64, 130.0f64, 10.0f64);
    let max_x = result
        .trajectory
        .iter()
        .map(|&(traces, _)| traces)
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let max_y = result
        .trajectory
        .iter()
        .map(|&(_, value)| value)
        .fold(threshold, f64::max)
        .max(1.0);
    let x = |traces: u64| pad + (traces as f64 / max_x) * (width - 2.0 * pad);
    let y = |value: f64| height - pad - (value.max(0.0) / max_y) * (height - 2.0 * pad);
    let points: Vec<String> = result
        .trajectory
        .iter()
        .map(|&(traces, value)| format!("{:.1},{:.1}", x(traces), y(value)))
        .collect();
    format!(
        "<svg viewBox=\"0 0 {width:.0} {height:.0}\" width=\"{width:.0}\" \
         height=\"{height:.0}\" role=\"img\" aria-label=\"leakage trajectory\">\
         <line x1=\"{pad:.1}\" y1=\"{ty:.1}\" x2=\"{tx:.1}\" y2=\"{ty:.1}\" \
         stroke=\"#b00020\" stroke-dasharray=\"4 3\"/>\
         <polyline points=\"{points}\" fill=\"none\" stroke=\"#1a1a2e\" \
         stroke-width=\"1.5\"/></svg>",
        ty = y(threshold),
        tx = width - pad,
        points = points.join(" "),
    )
}

fn bundle_section(bundle: &EvidenceBundle, result: Option<&ProbeResult>, threshold: f64) -> String {
    use std::fmt::Write as _;
    let mut section = String::new();
    let _ = write!(
        section,
        "<h2>{}</h2>\
         <p class=\"hint\">{}</p>\
         <p>-log10(p) = <b>{:.2}</b>, G = {:.2}, df = {}, samples = {}</p>\
         <p>probed wires: {}</p>",
        escape(&bundle.label),
        escape(&bundle.hint),
        bundle.minus_log10_p,
        bundle.g_statistic,
        bundle.df,
        bundle.samples,
        escape(&bundle.probes.join(", ")),
    );
    if let Some(result) = result {
        section.push_str(&trajectory_svg(result, threshold));
    }
    if !bundle.reuse.is_empty() {
        section.push_str(
            "<h3>Randomness reuse</h3><table><tr><th>pair</th><th>shared bit</th>\
             <th>same physical bit</th><th>witnesses</th></tr>",
        );
        for pair in &bundle.reuse {
            let _ = write!(
                section,
                "<tr><td>{} = {}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                escape(&pair.first),
                escape(&pair.second),
                escape(&pair.shared_bit),
                if pair.same_physical_bit { "yes" } else { "no" },
                escape(&pair.witnesses.join(", ")),
            );
        }
        section.push_str("</table>");
    }
    if let Some(exact) = &bundle.exact {
        let _ = write!(
            section,
            "<h3>Exact cross-check</h3><p>verdict: <b>{}</b> \
             ({} support bits)</p>",
            escape(&exact.verdict),
            exact.support_bits,
        );
        if !exact.secret_bits.is_empty() {
            let _ = write!(
                section,
                "<p>joint distribution depends on unmasked <b>{}</b>: \
                 distinguishes <code>{}</code> from <code>{}</code></p>",
                escape(&exact.secret_bits.join(", ")),
                escape(&exact.conditioning_a),
                escape(&exact.conditioning_b),
            );
        }
    }
    section.push_str(
        "<h3>Extended probe set</h3><table><tr><th>wire</th><th>role</th>\
         <th>extension rule</th></tr>",
    );
    for wire in &bundle.extended {
        let _ = write!(
            section,
            "<tr><td>{}</td><td>{}</td><td>{}</td></tr>",
            escape(&wire.name),
            escape(&wire.role),
            escape(&wire.rule),
        );
    }
    section.push_str("</table>");
    if !bundle.cells.is_empty() {
        let _ = write!(
            section,
            "<h3>Contingency table (top {} of {} cells by G contribution)</h3>\
             <table><tr><th>observation</th><th>fixed</th><th>random</th>\
             <th>G contribution</th></tr>",
            bundle.cells.len(),
            bundle.total_cells,
        );
        for cell in &bundle.cells {
            let _ = write!(
                section,
                "<tr><td>{:#x}</td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td><td class=\"num\">{:.2}</td></tr>",
                cell.key, cell.fixed, cell.random, cell.contribution,
            );
        }
        let _ = write!(
            section,
            "<tr><td>pooled rare events</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{:.2}</td></tr></table>",
            bundle.pooled[0], bundle.pooled[1], bundle.pooled_contribution,
        );
    }
    let _ = write!(
        section,
        "<h3>Implicated subcircuit</h3>\
         <details><summary>DOT (render with Graphviz)</summary>\
         <pre>{}</pre></details>\
         <details><summary>Verilog</summary><pre>{}</pre></details>",
        escape(&bundle.dot),
        escape(&bundle.verilog),
    );
    section
}

/// Renders the forensics report: campaign summary, the ranked probe
/// table, and one evidence section per flagged probing set. The header
/// renders the campaign's final `record` — traces, wall time,
/// throughput, max `-log10(p)`, leaking sets and verdict — so it reads
/// what the summary line, `status.json` and `/metrics` read.
pub fn render_report(
    report: &LeakageReport,
    record: &RunRecord,
    bundles: &[EvidenceBundle],
    spec: &str,
    schedule: &str,
) -> String {
    use std::fmt::Write as _;
    let mut document = String::with_capacity(16 * 1024);
    let verdict = if record.interrupted {
        "<span class=\"hint\">interrupted — partial statistics</span>"
    } else if record.passed {
        "<span class=\"clean\">no leakage detected</span>"
    } else {
        "<span class=\"leak\">leakage detected</span>"
    };
    let _ = write!(
        document,
        "<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>mmaes forensics — {design}</title><style>{STYLE}</style></head>\
         <body><h1>Leakage forensics: {design}</h1>\
         <p>design <code>{spec}</code>, schedule <code>{schedule}</code>, \
         {model} model, order {order}, threshold -log10(p) &gt; {threshold:.1} — {verdict}</p>\
         <p>{traces} traces per population in {wall_ms} ms ({rate} traces/s); \
         max -log10(p) {max}, {leaking} leaking set(s)</p>",
        design = escape(&report.design),
        spec = escape(spec),
        schedule = escape(schedule),
        model = escape(report.model.name()),
        order = report.order,
        threshold = report.threshold,
        traces = record.traces,
        wall_ms = record.wall_ms,
        rate = number(record.traces_per_sec()),
        max = number(record.max_minus_log10_p),
        leaking = record.leaking,
    );
    document.push_str(
        "<h2>Ranked probing sets</h2><table><tr><th>probing set</th>\
         <th>-log10(p)</th><th>G</th><th>df</th><th>pooled</th>\
         <th>slope/Mtrace</th><th>detect@</th><th>verdict</th></tr>",
    );
    for result in &report.results {
        // The convergence diagnostics the live-status health block
        // carries, recomputed from the trajectory so older campaign
        // artifacts (no health events) still get the columns.
        let mut points = result.trajectory.clone();
        if points.last().map(|&(traces, _)| traces) != Some(report.traces) {
            points.push((report.traces, result.minus_log10_p));
        }
        let (slope, detect) = mmaes_leakage::health::convergence(&points, report.threshold);
        let _ = write!(
            document,
            "<tr><td>{}</td><td class=\"num\">{:.2}</td>\
             <td class=\"num\">{:.2}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{:.0}%</td><td class=\"num\">{:.1}</td>\
             <td class=\"num\">{}</td><td>{}</td></tr>",
            escape(&result.label),
            result.minus_log10_p,
            result.g_statistic,
            result.df,
            100.0 * result.pooled_fraction,
            slope,
            if detect.is_finite() {
                format!("{detect:.0}")
            } else {
                "never".to_owned()
            },
            if result.leaking {
                "<span class=\"leak\">LEAK</span>"
            } else if result.testable {
                "<span class=\"clean\">ok</span>"
            } else {
                "untestable"
            },
        );
    }
    document.push_str("</table>");
    let untestable = report
        .results
        .iter()
        .filter(|result| !result.testable)
        .count();
    let heavily_pooled = report
        .results
        .iter()
        .filter(|result| result.testable && result.pooled_fraction > 0.5)
        .count();
    if untestable > 0 || heavily_pooled > 0 {
        let _ = write!(
            document,
            "<p class=\"hint\">Statistical-power caveat: {untestable} set(s) \
             untestable and {heavily_pooled} set(s) with over half their sample \
             mass pooled into the rare-events bucket — a clean verdict on those \
             sets carries little evidence at this trace count.</p>",
        );
    }
    if bundles.is_empty() {
        document.push_str("<p>No probing set crossed the threshold — nothing to explain.</p>");
    }
    for bundle in bundles {
        let result = report
            .results
            .iter()
            .find(|result| result.label == bundle.label);
        document.push_str(&bundle_section(bundle, result, report.threshold));
    }
    document.push_str("</body></html>");
    document
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmaes_leakage::{ProbeModel, StatisticKind};

    fn sample_report() -> LeakageReport {
        LeakageReport {
            design: "toy<design>".to_owned(),
            model: ProbeModel::Glitch,
            order: 1,
            traces: 1000,
            threshold: 5.0,
            statistic: StatisticKind::GTest,
            probe_sets_truncated: false,
            early_stopped: false,
            interrupted: false,
            cell_evals: 0,
            table_bytes: 0,
            results: vec![ProbeResult {
                label: "probe \"a\" & b".to_owned(),
                probe_count: 1,
                cone_size: 2,
                samples: 2000,
                distinct_keys: 4,
                pooled_columns: 1,
                pooled_fraction: 0.1,
                g_statistic: 123.4,
                df: 3.0,
                minus_log10_p: 25.0,
                testable: true,
                leaking: true,
                trajectory: vec![(500, 12.0), (1000, 25.0)],
            }],
        }
    }

    fn sample_record() -> RunRecord {
        RunRecord {
            traces: 1000,
            wall_ms: 8,
            max_minus_log10_p: 25.0,
            leaking: 1,
            finished: true,
            ..RunRecord::default()
        }
    }

    #[test]
    fn header_renders_the_run_record() {
        let html = render_report(&sample_report(), &sample_record(), &[], "toy", "none");
        assert!(
            html.contains(
                "1000 traces per population in 8 ms (125000 traces/s); \
                 max -log10(p) 25, 1 leaking set(s)"
            ),
            "{html}"
        );
        assert!(html.contains("leakage detected"), "{html}");
    }

    #[test]
    fn report_escapes_markup_and_embeds_the_trajectory() {
        let report = sample_report();
        let html = render_report(&report, &sample_record(), &[], "toy", "none");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("toy&lt;design&gt;"));
        assert!(html.contains("probe &quot;a&quot; &amp; b"));
        assert!(!html.contains("toy<design>"));
        assert!(html.contains("nothing to explain"));
    }

    #[test]
    fn ranked_table_carries_the_health_columns() {
        let report = sample_report();
        let html = render_report(&report, &sample_record(), &[], "toy", "none");
        assert!(html.contains("<th>pooled</th>"));
        assert!(html.contains("<th>slope/Mtrace</th>"));
        assert!(html.contains("<th>detect@</th>"));
        // 10% pooled mass, and a leaking set reports its observed
        // crossing (the 500-trace checkpoint already exceeds 5.0).
        assert!(html.contains("10%"), "{html}");
        assert!(html.contains("<td class=\"num\">500</td>"), "{html}");
    }

    #[test]
    fn trajectory_svg_draws_the_threshold_and_the_polyline() {
        let report = sample_report();
        let svg = trajectory_svg(&report.results[0], report.threshold);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("stroke-dasharray"));
        assert!(svg.contains("polyline"));
        // Two trajectory checkpoints become two polyline points.
        assert!(svg.matches(',').count() >= 2);
    }

    #[test]
    fn rendering_is_deterministic() {
        let report = sample_report();
        let first = render_report(&report, &sample_record(), &[], "toy", "none");
        let second = render_report(&report, &sample_record(), &[], "toy", "none");
        assert_eq!(first, second);
    }
}
