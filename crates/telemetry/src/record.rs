//! The run record: the one source of every figure a surface shows.
//!
//! A campaign builds one [`RunRecord`] at each checkpoint and one at
//! exit; the summary line, `status.json`, `/metrics`, the progress
//! line and the HTML report render that record and derive nothing of
//! their own. Throughput and ETA are methods here, so every surface
//! reading the same record prints the same rate.

use crate::perf::PerfSnapshot;

/// Where a run stands: its identity, its progress against the trace
/// budget, its wall time on the producer's single stopwatch, and its
/// verdict so far.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Design under evaluation.
    pub design: String,
    /// Probing model name.
    pub model: String,
    /// Probing order (0 = not applicable).
    pub order: usize,
    /// Probing sets under test.
    pub probe_sets: usize,
    /// Traces accumulated so far (the whole budget's worth on a
    /// resumed run, including earlier legs).
    pub traces: u64,
    /// The part of `traces` restored from an earlier leg's snapshot,
    /// which this leg's stopwatch never timed.
    pub resumed_traces: u64,
    /// The trace budget.
    pub traces_target: u64,
    /// Wall time since the producer's stopwatch started, milliseconds.
    pub wall_ms: u64,
    /// Maximum `-log10(p)` over all probing sets.
    pub max_minus_log10_p: f64,
    /// Label of the probing set attaining the maximum.
    pub worst_label: String,
    /// Probing sets over the decision threshold.
    pub leaking: usize,
    /// The verdict: no probing set ended over the threshold. Only a
    /// final record can pass; checkpoint records carry `false`.
    pub passed: bool,
    /// The campaign stopped on a decisive verdict before its budget.
    pub early_stopped: bool,
    /// The run was interrupted (SIGINT/SIGTERM or a batch cap) and
    /// stopped cooperatively; its statistics are partial.
    pub interrupted: bool,
    /// This is the run's final record, not a checkpoint's.
    pub finished: bool,
    /// Combinational cell evaluations so far.
    pub cell_evals: u64,
    /// Resident contingency-table bytes.
    pub table_bytes: u64,
    /// Per-phase timings, when `--perf` (or `--trace`) is on.
    pub perf: Option<PerfSnapshot>,
}

impl RunRecord {
    /// This leg's throughput: the traces it ran (`traces` less
    /// `resumed_traces`) per second of `wall_ms` (0 before a millisecond
    /// has passed).
    pub fn traces_per_sec(&self) -> f64 {
        if self.wall_ms > 0 {
            self.traces.saturating_sub(self.resumed_traces) as f64 * 1000.0 / self.wall_ms as f64
        } else {
            0.0
        }
    }

    /// Seconds until the budget is spent at the current throughput;
    /// infinity (rendered as JSON `null`) once finished or before any
    /// throughput is measured.
    pub fn eta_seconds(&self) -> f64 {
        let rate = self.traces_per_sec();
        if self.finished || rate <= 0.0 {
            return f64::INFINITY;
        }
        self.traces_target.saturating_sub(self.traces) as f64 / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_and_eta_derive_from_traces_and_wall() {
        let mut record = RunRecord {
            traces: 3_000,
            traces_target: 9_000,
            wall_ms: 1_500,
            ..RunRecord::default()
        };
        assert_eq!(record.traces_per_sec(), 2_000.0);
        assert_eq!(record.eta_seconds(), 3.0);
        record.finished = true;
        assert_eq!(record.eta_seconds(), f64::INFINITY);
        // No measurable wall time yet: no rate, no ETA, no division.
        let fresh = RunRecord {
            traces: 64,
            traces_target: 128,
            ..RunRecord::default()
        };
        assert_eq!(fresh.traces_per_sec(), 0.0);
        assert_eq!(fresh.eta_seconds(), f64::INFINITY);
    }

    #[test]
    fn a_resumed_leg_rates_only_the_traces_it_ran() {
        // 6,000 of 7,000 traces came from the snapshot; this leg ran
        // 1,000 in half a second and has 2,000 left.
        let record = RunRecord {
            traces: 7_000,
            resumed_traces: 6_000,
            traces_target: 9_000,
            wall_ms: 500,
            ..RunRecord::default()
        };
        assert_eq!(record.traces_per_sec(), 2_000.0);
        assert_eq!(record.eta_seconds(), 1.0);
    }
}
