//! Per-probe-set convergence diagnostics (DESIGN.md § Campaign
//! health).
//!
//! Müller & Moradi's G-test methodology degrades *silently* when
//! contingency cells are under-sampled: the χ² approximation loses
//! calibration, pooling absorbs the sparse mass, and a wide cone
//! simply never accumulates evidence — the campaign reports "no leak
//! found" with a statistic that never had the power to find one. An
//! evaluation tool should report that condition, not hide it. This
//! module turns the campaign's existing contingency tables and
//! checkpoint trajectories into health verdicts:
//!
//! * **under-sampling** — how much mass [`crate::stats::g_test`]
//!   pooling discarded and the minimum expected cell count afterwards
//!   (Cochran's rule: expected counts below ~5 break the χ²
//!   approximation);
//! * **effect size** — the `-log10(p)` slope over the recent
//!   checkpoint trajectory, in units per million traces;
//! * **traces-to-detection** — for a leaking set, the observed
//!   crossing point; for a converging set, a linear projection to the
//!   threshold; infinity when the trajectory is flat or receding;
//! * **randomness accounting** — fresh bits the schedule draws per
//!   trace, so randomness cost sits next to statistical power.
//!
//! Everything derives from deterministic campaign state (tables,
//! trajectories, batch counts) — never from wall clocks — so health
//! payloads are byte-identical across `--threads`, like every other
//! campaign artifact.

use mmaes_telemetry::{HealthCheckpoint, ProbeHealth};

use crate::stats::{PoolingSummary, StatisticKind};

/// Minimum expected cell count below which the χ² approximation of
/// the G statistic is considered unreliable (Cochran's rule).
pub const MIN_EXPECTED_FLOOR: f64 = 5.0;

/// How many trailing trajectory points the slope estimate uses. Short
/// on purpose: the early trajectory of a leaking set is flat (the
/// statistic sits at the null) and would dilute the recent slope.
const SLOPE_WINDOW: usize = 5;

/// The `-log10(p)` slope and threshold projection over a checkpoint
/// trajectory. `points` is the trajectory *including* the current
/// `(traces, minus_log10_p)` point; see [`probe_health`] for the
/// packaged form.
///
/// Returns `(slope_per_mtrace, traces_to_detection)`.
pub fn convergence(points: &[(u64, f64)], threshold: f64) -> (f64, f64) {
    let Some(&(last_traces, last_value)) = points.last() else {
        return (0.0, f64::INFINITY);
    };
    // Slope over the trailing window, anchored at the origin when the
    // trajectory is a single point (the statistic started at 0).
    let window_start = points.len().saturating_sub(SLOPE_WINDOW);
    let (first_traces, first_value) = if points.len() >= 2 {
        points[window_start]
    } else {
        (0, 0.0)
    };
    let span = last_traces.saturating_sub(first_traces);
    let slope_per_trace = if span > 0 {
        (last_value - first_value) / span as f64
    } else {
        0.0
    };
    let traces_to_detection = if last_value > threshold {
        // Already leaking: report the observed crossing point, which
        // is finite by construction.
        points
            .iter()
            .find(|&&(_, value)| value > threshold)
            .map(|&(traces, _)| traces as f64)
            .unwrap_or(last_traces as f64)
    } else if slope_per_trace > 0.0 {
        last_traces as f64 + (threshold - last_value) / slope_per_trace
    } else {
        f64::INFINITY
    };
    (slope_per_trace * 1e6, traces_to_detection)
}

/// Diagnoses one probing set from its pooling summary and checkpoint
/// trajectory. `trajectory` holds the points recorded so far;
/// `minus_log10_p` and `traces` are the current values and are
/// appended as the trajectory's effective last point when not already
/// present (the final sweep runs after the last recorded checkpoint).
pub fn probe_health(
    label: &str,
    summary: &PoolingSummary,
    minus_log10_p: f64,
    trajectory: &[(u64, f64)],
    traces: u64,
    threshold: f64,
) -> ProbeHealth {
    let mut points: Vec<(u64, f64)> = trajectory.to_vec();
    if points.last().map(|&(t, _)| t) != Some(traces) {
        points.push((traces, minus_log10_p));
    }
    let (slope_per_mtrace, traces_to_detection) = convergence(&points, threshold);
    let pooled_fraction = if summary.total_mass > 0 {
        summary.pooled_mass as f64 / summary.total_mass as f64
    } else {
        0.0
    };
    ProbeHealth {
        label: label.to_owned(),
        minus_log10_p,
        leaking: minus_log10_p > threshold,
        tested_columns: summary.tested_columns,
        pooled_columns: summary.pooled_columns,
        pooled_fraction,
        min_expected: summary.min_expected,
        undersampled: !summary.testable || summary.min_expected < MIN_EXPECTED_FLOOR,
        slope_per_mtrace,
        traces_to_detection,
    }
}

/// Aggregates per-set diagnostics into one campaign-wide health
/// checkpoint. `probes` comes in probing-set enumeration order and is
/// cut to the top `top` sets by `-log10(p)` plus every leaking set
/// (the same cut as checkpoint events); aggregate counts cover *all*
/// sets. `testable_sets` counts sets whose pooled table supports a
/// test at all (`min_expected > 0`, see
/// [`crate::stats::PoolingSummary::testable`]).
pub fn assess(
    probes: Vec<ProbeHealth>,
    traces: u64,
    traces_target: u64,
    threshold: f64,
    fresh_bits_per_trace: u64,
    statistic: StatisticKind,
    top: usize,
) -> HealthCheckpoint {
    let probe_sets = probes.len() as u64;
    let testable_sets = probes.iter().filter(|p| p.min_expected > 0.0).count() as u64;
    let undersampled_sets = probes.iter().filter(|p| p.undersampled).count() as u64;
    let leaking_sets = probes.iter().filter(|p| p.leaking).count() as u64;
    let mut ranked = probes;
    // Stable sort: ties (0.0 floors, 308.0 saturation) keep
    // enumeration order, preserving byte-identity across threads.
    ranked.sort_by(|a, b| {
        b.minus_log10_p
            .partial_cmp(&a.minus_log10_p)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let keep = ranked
        .iter()
        .enumerate()
        .take_while(|&(rank, probe)| rank < top || probe.leaking)
        .count();
    ranked.truncate(keep);
    HealthCheckpoint {
        traces,
        traces_target,
        threshold,
        // Event schema v8: the statistic name rides along so health
        // consumers know which test produced the -log10(p) values.
        statistic: statistic.name().to_owned(),
        probe_sets,
        testable_sets,
        undersampled_sets,
        leaking_sets,
        fresh_bits_per_trace,
        fresh_bits_total: fresh_bits_per_trace * traces,
        probes: ranked,
        // Fault containment (event schema v7): subsystems that fell
        // back to in-memory operation. Empty on a clean run, so the
        // payload stays deterministic across `--threads`.
        degraded: mmaes_telemetry::degraded::snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::pooling_summary;

    fn summary_for(columns: &[(u64, u64)]) -> PoolingSummary {
        pooling_summary(columns.iter().copied())
    }

    #[test]
    fn leaking_sets_report_the_observed_crossing() {
        let trajectory = [(1000, 1.0), (2000, 4.0), (3000, 8.0), (4000, 12.0)];
        let (slope, ttd) = convergence(&trajectory, 5.0);
        assert_eq!(ttd, 3000.0, "first point over the threshold");
        assert!(slope > 0.0);
    }

    #[test]
    fn converging_sets_project_linearly() {
        // 1.0 per 1000 traces, currently at 3.0 of 5.0: two more
        // thousand traces to go.
        let trajectory = [(1000, 1.0), (2000, 2.0), (3000, 3.0)];
        let (slope, ttd) = convergence(&trajectory, 5.0);
        assert!((slope - 1000.0).abs() < 1e-6, "{slope}");
        assert!((ttd - 5000.0).abs() < 1e-6, "{ttd}");
    }

    #[test]
    fn flat_and_receding_trajectories_never_detect() {
        let flat = [(1000, 0.5), (2000, 0.5), (3000, 0.5)];
        assert_eq!(convergence(&flat, 5.0).1, f64::INFINITY);
        let receding = [(1000, 2.0), (2000, 1.0)];
        assert_eq!(convergence(&receding, 5.0).1, f64::INFINITY);
        assert_eq!(convergence(&[], 5.0), (0.0, f64::INFINITY));
    }

    #[test]
    fn slope_uses_the_trailing_window_only() {
        // Flat for a long prefix, then climbing: the window must see
        // the climb, not average it away over the whole run.
        let mut trajectory: Vec<(u64, f64)> = (1..=20).map(|i| (i * 1000, 0.1)).collect();
        trajectory.extend([(21_000, 2.0), (22_000, 4.0)]);
        let (slope, _) = convergence(&trajectory, 5.0);
        assert!(slope > 500.0, "window slope, not lifetime slope: {slope}");
    }

    #[test]
    fn undersampled_tables_are_flagged() {
        // A sparse table: every column pools, nothing testable.
        let sparse = summary_for(&[(3, 2), (1, 4), (2, 2)]);
        let health = probe_health("g/v1", &sparse, 0.0, &[], 1000, 5.0);
        assert!(health.undersampled);
        assert_eq!(health.tested_columns, 0);
        assert!(health.pooled_fraction > 0.99);
        // A dense table passes.
        let dense = summary_for(&[(500, 480), (510, 530)]);
        let health = probe_health("g/v1", &dense, 1.0, &[], 1000, 5.0);
        assert!(!health.undersampled);
        assert_eq!(health.pooled_fraction, 0.0);
    }

    #[test]
    fn final_sweep_appends_the_current_point() {
        // The trajectory stops before the end; the current value must
        // still shape the verdict — here it crosses the threshold.
        let trajectory = [(1000, 2.0), (2000, 4.0)];
        let dense = summary_for(&[(500, 480), (510, 530)]);
        let health = probe_health("g/v1", &dense, 7.0, &trajectory, 3000, 5.0);
        assert!(health.leaking);
        assert_eq!(health.traces_to_detection, 3000.0);
    }

    #[test]
    fn assess_counts_and_cuts_deterministically() {
        let dense = summary_for(&[(500, 480), (510, 530)]);
        let sparse = summary_for(&[(3, 2), (1, 4)]);
        let probes = vec![
            probe_health("a", &dense, 1.0, &[], 1000, 5.0),
            probe_health("b", &sparse, 0.0, &[], 1000, 5.0),
            probe_health("c", &dense, 9.0, &[(500, 6.0)], 1000, 5.0),
        ];
        let health = assess(probes, 1000, 2000, 5.0, 24, StatisticKind::GTest, 2);
        assert_eq!(health.statistic, "gtest");
        assert_eq!(health.probe_sets, 3);
        assert_eq!(health.testable_sets, 2);
        assert_eq!(health.undersampled_sets, 1);
        assert_eq!(health.leaking_sets, 1);
        assert_eq!(health.fresh_bits_total, 24_000);
        // Top-2 cut, ranked by -log10(p): c then a.
        assert_eq!(health.probes.len(), 2);
        assert_eq!(health.probes[0].label, "c");
        assert!(health.probes[0].traces_to_detection.is_finite());
    }
}
