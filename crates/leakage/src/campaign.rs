//! The fixed-vs-random sampling campaign (the heart of the evaluator).
//!
//! Two populations are simulated, interleaved lane-by-lane in the
//! 64-wide simulator: in the *fixed* population every cycle's unshared
//! secret equals a chosen constant (the paper uses 0 — the zero-value
//! case — for the full S-box, and a non-zero constant for the reduced
//! design); in the *random* population it is uniform. Both populations
//! draw fresh sharing and fresh masks every cycle. After a pipeline
//! warm-up, every probing set's extended observation is sampled once per
//! lane and accumulated into a contingency table; the configured
//! [`crate::stats::Statistic`] (the PROLEAD-style G-test by default)
//! decides, at `-log10(p) > 5`, whether the observation distinguishes
//! the populations — i.e. whether the probe leaks.
//!
//! This module holds the configuration surface (re-exported from
//! [`crate::config`]), the [`FixedVsRandom`] builder API and the report
//! assembly; the staged scheduler that runs the campaign and sweeps its
//! tables into verdicts lives in `engine.rs`.

use mmaes_netlist::{Netlist, SecretId, StableCones, WireId};
use mmaes_sim::LANES;
use mmaes_telemetry::degraded::{self, retry, RETRY_ATTEMPTS};
use mmaes_telemetry::{Event, Observer, RunRecord, Stopwatch};

pub use crate::config::{
    CampaignMode, Durability, EvaluationConfig, SecretDomain, DECISIVE_MARGIN,
};
use crate::engine::{CampaignState, Engine};
pub use crate::error::CampaignError;
use crate::probe::{enumerate_probe_sets, ProbeSet};
use crate::report::{LeakageReport, ProbeResult};
use crate::snapshot::{self, SnapshotError};
use crate::stats::g_columns;
use crate::tabulate::{Columns, Table};

/// FNV-1a over the canonical description of every sampling-relevant
/// configuration field — the snapshot compatibility fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The final contingency table of one probing set, keyed by observation
/// value, as returned by [`FixedVsRandom::try_run_with_tables`].
///
/// Unlike the `(fixed, random)` column pairs fed to the statistic, this
/// keeps the observation keys, so forensic consumers can attribute each
/// column back to a concrete stable-signal valuation. Columns are
/// sorted by key; the overflow bucket (observations past
/// [`EvaluationConfig::max_table_keys`]) is carried separately.
#[derive(Debug, Clone)]
pub struct ProbeTable {
    /// The probing set's label ([`ProbeSet::label`]).
    pub label: String,
    /// The probing set itself (wires + glitch-extended observation).
    pub set: ProbeSet,
    /// `(observation key, [fixed count, random count])`, sorted by key.
    pub columns: Vec<(u128, [u64; 2])>,
    /// `[fixed, random]` counts absorbed after the table hit its key
    /// cap.
    pub overflow: [u64; 2],
    /// Total samples tabulated (both populations).
    pub samples: u64,
}

impl ProbeTable {
    /// The `(fixed, random)` columns exactly as the campaign's final
    /// G-test sweep consumed them: key-sorted counts, then the overflow
    /// bucket if any — `g_test(table.g_columns())` reproduces the
    /// reported statistic.
    pub fn g_columns(&self) -> Vec<(u64, u64)> {
        g_columns(Columns::from(self.columns.as_slice()), self.overflow).collect()
    }
}

/// A fixed-vs-random leakage evaluation bound to one netlist.
///
/// # Example
///
/// ```no_run
/// use mmaes_circuits::build_kronecker;
/// use mmaes_leakage::{EvaluationConfig, FixedVsRandom};
/// use mmaes_masking::KroneckerRandomness;
///
/// let circuit = build_kronecker(&KroneckerRandomness::de_meyer_eq6())?;
/// let report = FixedVsRandom::new(&circuit.netlist, EvaluationConfig::default()).try_run()?;
/// assert!(!report.passed()); // Eq. 6 leaks — the paper's finding
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FixedVsRandom<'a> {
    netlist: &'a Netlist,
    config: EvaluationConfig,
    nonzero_byte_buses: Vec<Vec<WireId>>,
    control_schedules: Vec<(WireId, Vec<bool>)>,
    observer: Observer,
}

impl<'a> FixedVsRandom<'a> {
    /// Creates an evaluation over `netlist`. Inputs are driven according
    /// to their [`mmaes_netlist::SignalRole`]s: shares re-randomized
    /// every cycle around the (fixed or random) secret, masks uniform
    /// every cycle, controls held at 0.
    pub fn new(netlist: &'a Netlist, config: EvaluationConfig) -> Self {
        FixedVsRandom {
            netlist,
            config,
            nonzero_byte_buses: Vec::new(),
            control_schedules: Vec::new(),
            observer: Observer::null(),
        }
    }

    /// Attaches a telemetry observer. The campaign emits lifecycle
    /// events plus one [`Event::CampaignCheckpoint`] (and one
    /// [`Event::SimProgress`]) per configured checkpoint.
    pub fn with_observer(mut self, observer: Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Schedules a control input per cycle within each trace: cycle `c`
    /// gets `pattern[min(c, len-1)]` (the last value is held). Controls
    /// without a schedule stay at 0. Used e.g. to pulse a cipher core's
    /// `load` on cycle 0.
    pub fn schedule_control(mut self, wire: WireId, pattern: Vec<bool>) -> Self {
        assert!(
            !pattern.is_empty(),
            "control schedules need at least one value"
        );
        self.control_schedules.push((wire, pattern));
        self
    }

    /// Declares a mask byte-bus that must be sampled from GF(2⁸)\\{0}
    /// (the S-box's B2M mask `R`). Wires on such buses are excluded from
    /// the generic uniform-mask driving.
    pub fn require_nonzero_bus(mut self, bus: Vec<WireId>) -> Self {
        assert_eq!(bus.len(), 8, "non-zero buses are byte buses");
        self.nonzero_byte_buses.push(bus);
        self
    }

    /// The campaign's snapshot-compatibility fingerprint: every
    /// sampling-relevant configuration field plus the probing-set list.
    /// The statistic is appended only when non-default, so every
    /// pre-existing G-test snapshot keeps its fingerprint — and a
    /// campaign can never silently resume under a different test.
    fn fingerprint(&self, probe_sets: &[ProbeSet]) -> u64 {
        use std::fmt::Write as _;
        let config = &self.config;
        let mut canonical = String::new();
        let _ = write!(
            canonical,
            "{}|{}|{}|{}|{}|{:?}|{:?}|{}|{:016x}|{:016x}|{}|{:?}|{}|{}|{}",
            self.netlist.name(),
            config.model.name(),
            config.order,
            config.traces,
            config.fixed_secret,
            config.secret_domain,
            config.mode,
            config.warmup_cycles,
            config.threshold.to_bits(),
            config.seed,
            config.max_probe_sets,
            config.probe_scope_filter,
            config.max_table_keys,
            config.checkpoints,
            config.early_stop,
        );
        if config.statistic != crate::stats::StatisticKind::GTest {
            let _ = write!(canonical, "|statistic={}", config.statistic.name());
        }
        for set in probe_sets {
            canonical.push('|');
            canonical.push_str(&set.label);
        }
        fnv1a(canonical.as_bytes())
    }

    /// Runs the campaign and produces a report, with crash-safety: when
    /// [`Durability::snapshot_path`] is set the complete campaign state
    /// is persisted atomically at every checkpoint and on exit, and
    /// [`Durability::resume`] continues a previous run bit-identically.
    ///
    /// # Errors
    ///
    /// * [`CampaignError::Netlist`] — the netlist fails
    ///   [`Netlist::validate`] (checked before any simulation).
    /// * [`CampaignError::NoSecretShares`] — nothing to fix vs randomize.
    /// * [`CampaignError::Snapshot`] — the snapshot file is corrupt,
    ///   version-mismatched, taken under a different configuration, or
    ///   unwritable.
    /// * [`CampaignError::Worker`] — a batch exhausted the supervisor's
    ///   retry budget (see [`crate::supervisor`]).
    pub fn try_run(&self) -> Result<LeakageReport, CampaignError> {
        self.try_run_recorded(false).map(|(report, ..)| report)
    }

    /// Like [`FixedVsRandom::try_run`], but additionally returns the
    /// final keyed contingency table of every probing set, in
    /// enumeration order.
    ///
    /// The forensics layer needs the tables themselves — not just the
    /// aggregate statistic each one produced — to decompose a finding
    /// into per-cell contributions ([`crate::stats::g_breakdown`]) and
    /// to render the fixed-vs-random distributions in evidence bundles.
    /// Table columns come out sorted by observation key, exactly the
    /// order the final statistic sweep consumed, so bundles derived from
    /// them inherit the campaign's byte-identity across thread counts
    /// and evaluators.
    ///
    /// # Errors
    ///
    /// Identical to [`FixedVsRandom::try_run`].
    pub fn try_run_with_tables(&self) -> Result<(LeakageReport, Vec<ProbeTable>), CampaignError> {
        self.try_run_recorded(true)
            .map(|(report, tables, _)| (report, tables))
    }

    /// Like [`FixedVsRandom::try_run`], but also returns the
    /// campaign's final [`RunRecord`] — the figures the observer saw in
    /// `campaign_finished`, built even with no observer attached — and,
    /// when `keep_tables` is set, the tables of
    /// [`FixedVsRandom::try_run_with_tables`] (empty otherwise). A
    /// command-line verb reads its summary's wall time and throughput
    /// from this record, so the summary agrees with every other surface.
    ///
    /// # Errors
    ///
    /// Identical to [`FixedVsRandom::try_run`].
    pub fn try_run_recorded(
        &self,
        keep_tables: bool,
    ) -> Result<(LeakageReport, Vec<ProbeTable>, RunRecord), CampaignError> {
        let config = &self.config;
        let watch = Stopwatch::start();
        let perf = self.observer.perf();
        self.netlist.validate()?;
        let cones = StableCones::new(self.netlist);
        // One set past the cap tells a truncated enumeration from one
        // that exactly fills it.
        let mut probe_sets = enumerate_probe_sets(
            self.netlist,
            &cones,
            config.order,
            config.probe_scope_filter.as_deref(),
            config.max_probe_sets.saturating_add(1),
        );
        let truncated = probe_sets.len() > config.max_probe_sets;
        probe_sets.truncate(config.max_probe_sets);

        // Secret share structure: per secret, shares[share][bit] wires.
        // `validate` rejects a sparse share × bit matrix and duplicate
        // roles, so the sorted triples fill the matrix share by share.
        let secrets: Vec<(SecretId, Vec<Vec<WireId>>)> = self
            .netlist
            .secrets()
            .into_iter()
            .map(|secret| {
                let triples = self.netlist.shares_of(secret);
                let shares = triples
                    .chunk_by(|a, b| a.0 == b.0)
                    .map(|bus| bus.iter().map(|&(.., wire)| wire).collect())
                    .collect();
                (secret, shares)
            })
            .collect();
        if secrets.is_empty() {
            return Err(CampaignError::NoSecretShares);
        }

        // Mask inputs not covered by a non-zero bus.
        let nonzero_wires: std::collections::HashSet<WireId> =
            self.nonzero_byte_buses.iter().flatten().copied().collect();
        let free_masks: Vec<WireId> = self
            .netlist
            .mask_inputs()
            .into_iter()
            .filter(|wire| !nonzero_wires.contains(wire))
            .collect();
        let controls = self.netlist.control_inputs();

        let batches = config.traces.div_ceil(LANES as u64);
        let durability = &config.durability;
        let fingerprint = self.fingerprint(&probe_sets);
        let mut state = CampaignState::new(&probe_sets, config);
        // A crash between tmp-write and rename leaves a stale `.tmp`
        // sibling; reap it before touching the snapshot so a torn file
        // can never be mistaken for (or block) campaign state.
        if let Some(path) = &durability.snapshot_path {
            degraded::reap_tmp(path);
        }
        let resume_from = durability.snapshot_path.as_ref();
        if let Some(path) = resume_from.filter(|path| durability.resume && path.exists()) {
            let saved = snapshot::load(path)?;
            if saved.config_fingerprint != fingerprint
                || saved.total_batches != batches
                || saved.tables.len() != probe_sets.len()
            {
                return Err(SnapshotError::ConfigMismatch {
                    found: saved.config_fingerprint,
                    expected: fingerprint,
                }
                .into());
            }
            state.batches_done = saved.batches_done.min(batches);
            state.prior_batches = state.batches_done;
            state.prior_cell_evals = saved.cell_evals;
            for (index, table) in saved.tables.into_iter().enumerate() {
                state.flagged[index] = table.flagged;
                state.trajectories[index] = table.trajectory;
                state.tables[index].restore(table.counts, table.overflow, table.samples);
            }
        }
        if self.observer.enabled() {
            self.observer.emit(&Event::CampaignStarted {
                design: self.netlist.name().to_owned(),
                model: config.model.name().to_owned(),
                order: config.order,
                probe_sets: probe_sets.len(),
                traces_target: batches * LANES as u64,
            });
        }
        let engine = Engine {
            netlist: self.netlist,
            config,
            probe_sets: &probe_sets,
            secrets: &secrets,
            free_masks: &free_masks,
            controls: &controls,
            nonzero_byte_buses: &self.nonzero_byte_buses,
            control_schedules: &self.control_schedules,
            observer: &self.observer,
            watch,
            fingerprint,
            batches,
            // Interim statistics every `checkpoint_every` batches; 0 =
            // never, keeping the sampling loop on the uninstrumented
            // fast path.
            checkpoint_every: batches
                .checked_div(config.checkpoints)
                .map_or(0, |every| every.max(1)),
        };
        let run_result = engine.run(&mut state);

        // Final snapshot: covers interruption, early stop, normal
        // completion (resuming a completed snapshot reproduces the
        // final report without re-simulating) — and, when the run
        // itself failed, an emergency flush of the contiguous folded
        // prefix before the error propagates, so the traces already
        // simulated are never lost.
        let final_save = durability.snapshot_path.as_ref().map(|path| {
            engine.save_snapshot(&state, |bytes| {
                retry(RETRY_ATTEMPTS, || snapshot::save_bytes(bytes, path))
            })
        });
        if let Some(Err(error)) = final_save {
            if run_result.is_ok() {
                // A healthy run whose final state cannot be persisted
                // is a typed error: the caller asked for durability and
                // did not get it.
                return Err(error.into());
            }
            // The run error is the root cause and wins; record the
            // failed emergency flush alongside it.
            degraded::mark("snapshot", &format!("emergency flush failed: {error}"));
        }
        run_result?;

        let final_sweep = perf.span("g_test");
        let mut sweep = engine.sweep(&state);
        let results: Vec<ProbeResult> = sweep
            .ranked
            .iter()
            .map(|&(index, minus_log10_p)| {
                let (set, table) = (&probe_sets[index], &state.tables[index]);
                let outcome = sweep.outcomes[index];
                ProbeResult {
                    label: set.label.clone(),
                    probe_count: set.wires.len(),
                    cone_size: set.observed.len(),
                    samples: table.samples(),
                    distinct_keys: table.distinct_keys(),
                    pooled_columns: sweep.summaries[index].pooled_columns,
                    pooled_fraction: sweep.summaries[index].pooled_fraction(),
                    g_statistic: outcome.map_or(0.0, |test| test.statistic),
                    df: outcome.map_or(0.0, |test| test.df),
                    minus_log10_p,
                    testable: outcome.is_some(),
                    leaking: outcome.is_some() && minus_log10_p > config.threshold,
                    trajectory: std::mem::take(&mut state.trajectories[index]),
                }
            })
            .collect();
        drop(final_sweep);

        if perf.is_enabled() {
            let dense_tables = state.tables.iter().filter(|table| table.is_dense()).count();
            let keys_tabulated = state.tables.iter().map(Table::samples).sum();
            perf.add("traces", sweep.traces);
            perf.add("cell_evals", state.cell_evals());
            perf.add("keys_tabulated", keys_tabulated);
            perf.add("dense_tables", dense_tables as u64);
            perf.add("hashed_tables", (state.tables.len() - dense_tables) as u64);
        }
        let mut record = RunRecord {
            finished: true,
            ..engine.record(&state, &sweep)
        };
        let report = LeakageReport {
            design: self.netlist.name().to_owned(),
            model: config.model,
            order: config.order,
            traces: record.traces,
            threshold: config.threshold,
            statistic: config.statistic,
            probe_sets_truncated: truncated,
            early_stopped: state.early_stopped,
            interrupted: state.interrupted,
            cell_evals: record.cell_evals,
            // Resident table bytes from the tables' logical content —
            // deterministic, so it survives the byte-identity contract.
            table_bytes: record.table_bytes,
            results,
        };
        record.passed = report.passed();
        if self.observer.enabled() {
            if let Some(snapshot) = &record.perf {
                self.observer.emit(&Event::PerfSnapshot {
                    scope: "campaign".to_owned(),
                    snapshot: snapshot.clone(),
                });
            }
            self.observer
                .emit(&Event::HealthSummary(engine.assess(&mut sweep)));
            self.observer.emit(&Event::CampaignFinished(record.clone()));
        }
        // A sorted table hands over its column vector, and a flat one is
        // dropped as soon as its columns are collected, so the hand-back
        // never holds a second copy of every table.
        let tables = if !keep_tables {
            Vec::new()
        } else {
            probe_sets
                .iter()
                .zip(std::mem::take(&mut state.tables))
                .map(|(set, table)| ProbeTable {
                    label: set.label.clone(),
                    set: set.clone(),
                    overflow: table.overflow(),
                    samples: table.samples(),
                    columns: table.into_columns(),
                })
                .collect()
        };
        Ok((report, tables, record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ProbeModel;
    use mmaes_netlist::{NetlistBuilder, SignalRole};
    use mmaes_telemetry::failpoint::{self, ScopedFailpoints};

    /// Holds the failpoint gate with no schedule installed. Every batch
    /// passes the `worker` site of the process-global registry, so a
    /// campaign running beside a fault test would consume that test's
    /// hits (`worker=panic@3x2` in `supervisor::tests`).
    fn no_failpoints() -> ScopedFailpoints {
        failpoint::scoped("")
    }

    fn share_role(share: u8) -> SignalRole {
        SignalRole::Share {
            secret: SecretId(0),
            share,
            bit: 0,
        }
    }

    /// An unmasked design: the secret bit goes straight to a register.
    /// Fixed-vs-random must flag it instantly.
    fn blatantly_leaky() -> Netlist {
        let mut builder = NetlistBuilder::new("leaky");
        let share0 = builder.input("s0", share_role(0));
        let share1 = builder.input("s1", share_role(1));
        let secret = builder.xor2(share0, share1); // recombines the secret!
        let q = builder.register(secret);
        let out = builder.buf(q);
        builder.output("out", out);
        builder.build().expect("valid")
    }

    /// A properly masked pass-through: each share is registered
    /// independently; no wire depends on both shares.
    fn properly_masked() -> Netlist {
        let mut builder = NetlistBuilder::new("masked");
        let share0 = builder.input("s0", share_role(0));
        let share1 = builder.input("s1", share_role(1));
        let q0 = builder.register(share0);
        let q1 = builder.register(share1);
        builder.output("q0", q0);
        builder.output("q1", q1);
        builder.build().expect("valid")
    }

    fn config(traces: u64) -> EvaluationConfig {
        EvaluationConfig {
            traces,
            warmup_cycles: 3,
            ..EvaluationConfig::default()
        }
    }

    #[test]
    fn unmasked_recombination_is_flagged() {
        let _failpoints = no_failpoints();
        let netlist = blatantly_leaky();
        let report = FixedVsRandom::new(&netlist, config(20_000))
            .try_run()
            .expect("campaign");
        assert!(!report.passed(), "{report}");
        assert!(report.worst().expect("results").minus_log10_p > 50.0);
    }

    #[test]
    fn independent_shares_pass() {
        let _failpoints = no_failpoints();
        let netlist = properly_masked();
        let report = FixedVsRandom::new(&netlist, config(20_000))
            .try_run()
            .expect("campaign");
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn retained_tables_reproduce_the_reported_statistics() {
        let _failpoints = no_failpoints();
        let netlist = blatantly_leaky();
        let (report, tables) = FixedVsRandom::new(&netlist, config(20_000))
            .try_run_with_tables()
            .expect("valid campaign");
        assert_eq!(report.results.len(), tables.len());
        for table in &tables {
            let result = report
                .results
                .iter()
                .find(|result| result.label == table.label)
                .expect("every table matches a result");
            assert_eq!(result.samples, table.samples);
            assert_eq!(result.distinct_keys, table.columns.len());
            let tabulated: u64 = table
                .columns
                .iter()
                .map(|&(_, cell)| cell[0] + cell[1])
                .sum::<u64>()
                + table.overflow[0]
                + table.overflow[1];
            assert_eq!(tabulated, table.samples);
            match crate::stats::g_test(table.g_columns()) {
                Some(test) => {
                    assert_eq!(test.statistic, result.g_statistic, "{}", table.label);
                    assert_eq!(test.df, result.df);
                    assert_eq!(test.minus_log10_p, result.minus_log10_p);
                }
                None => assert!(!result.testable),
            }
        }
    }

    #[test]
    fn first_order_masked_and_gate_without_refresh_leaks_through_glitches() {
        let _failpoints = no_failpoints();
        // A "masked" AND computed combinationally in one step:
        // out = (s0 & t0) ⊕ ... — probe on out sees all four share inputs
        // under glitch extension → distribution depends on the secrets.
        let mut builder = NetlistBuilder::new("glitchy_and");
        let s0 = builder.input("s0", share_role(0));
        let s1 = builder.input("s1", share_role(1));
        let mask = builder.input("m", SignalRole::Mask);
        // Unmasked product of the recombined secret with a mask — the
        // cone of `out` contains both shares.
        let x = builder.xor2(s0, s1);
        let out = builder.and2(x, mask);
        let q = builder.register(out);
        builder.output("q", q);
        let netlist = builder.build().expect("valid");
        let report = FixedVsRandom::new(&netlist, config(20_000))
            .try_run()
            .expect("campaign");
        assert!(!report.passed(), "{report}");
    }

    #[test]
    fn transition_model_catches_cross_cycle_recombination() {
        let _failpoints = no_failpoints();
        // share0 of the *same* secret is emitted in consecutive cycles
        // while share1 changes: under transitions a probe on the register
        // output sees (share0(t-1), share0(t)); with a fixed secret and
        // fresh sharing each cycle these are two fresh one-time-pad draws
        // → secure. But a design that registers the unshared secret every
        // other cycle leaks under both; here we check the transition
        // evaluator at least *runs* and produces doubled observation bits.
        let netlist = properly_masked();
        let glitch = FixedVsRandom::new(
            &netlist,
            EvaluationConfig {
                traces: 10_000,
                warmup_cycles: 3,
                ..Default::default()
            },
        )
        .try_run()
        .expect("campaign");
        let transition = FixedVsRandom::new(
            &netlist,
            EvaluationConfig {
                model: ProbeModel::GlitchTransition,
                traces: 10_000,
                warmup_cycles: 3,
                ..Default::default()
            },
        )
        .try_run()
        .expect("campaign");
        assert!(glitch.passed());
        assert!(transition.passed(), "{transition}");
    }

    #[test]
    fn fixed_secret_value_is_respected() {
        let _failpoints = no_failpoints();
        // Fixing a non-zero secret in a design that leaks δ(x)=(x==0)
        // only when x can be zero: out = NOR of all shares recombined...
        // Simpler: recombined secret registered — fixed=1 vs random still
        // differs, so it must leak for any fixed value.
        let netlist = blatantly_leaky();
        let report = FixedVsRandom::new(
            &netlist,
            EvaluationConfig {
                fixed_secret: 1,
                traces: 20_000,
                warmup_cycles: 3,
                ..Default::default()
            },
        )
        .try_run()
        .expect("campaign");
        assert!(!report.passed());
    }

    #[test]
    fn report_metadata_is_populated() {
        let _failpoints = no_failpoints();
        let netlist = properly_masked();
        let report = FixedVsRandom::new(&netlist, config(1_000))
            .try_run()
            .expect("campaign");
        assert_eq!(report.design, "masked");
        assert!(report.traces >= 1_000);
        assert!(report.probe_set_count() > 0);
        assert!(!report.to_string().is_empty());
    }

    #[test]
    fn retained_tables_are_identical_across_thread_counts() {
        let _failpoints = no_failpoints();
        let netlist = blatantly_leaky();
        let run = |threads: usize| {
            let (_, tables) = FixedVsRandom::new(
                &netlist,
                EvaluationConfig {
                    threads,
                    ..config(20_000)
                },
            )
            .try_run_with_tables()
            .expect("valid campaign");
            tables
        };
        let single = run(1);
        let sharded = run(2);
        assert_eq!(single.len(), sharded.len());
        for (a, b) in single.iter().zip(&sharded) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.columns, b.columns);
            assert_eq!(a.overflow, b.overflow);
            assert_eq!(a.samples, b.samples);
        }
    }

    #[test]
    fn checkpoints_record_trajectories_and_emit_events() {
        use mmaes_telemetry::MemorySink;
        let _failpoints = no_failpoints();
        let netlist = blatantly_leaky();
        let sink = MemorySink::new();
        let collected = sink.events();
        let report = FixedVsRandom::new(
            &netlist,
            EvaluationConfig {
                traces: 20_000,
                warmup_cycles: 3,
                checkpoints: 4,
                ..EvaluationConfig::default()
            },
        )
        .with_observer(Observer::single(sink))
        .try_run()
        .expect("campaign");

        let worst = report.worst().expect("results");
        assert!(worst.trajectory.len() >= 2, "{:?}", worst.trajectory);
        for pair in worst.trajectory.windows(2) {
            assert!(pair[0].0 < pair[1].0, "trace counts must increase");
        }
        assert!(worst.trajectory.last().expect("points").0 <= report.traces);

        let events = collected.lock().unwrap();
        assert!(matches!(
            events.first(),
            Some(Event::CampaignStarted { .. })
        ));
        assert!(events
            .iter()
            .any(|event| matches!(event, Event::CampaignCheckpoint(_))));
        assert!(events
            .iter()
            .any(|event| matches!(event, Event::ProbeFlagged { .. })));
        assert!(events
            .iter()
            .any(|event| matches!(event, Event::SimProgress { .. })));
        assert!(matches!(
            events.last(),
            Some(Event::CampaignFinished(RunRecord {
                passed: false,
                finished: true,
                ..
            }))
        ));
    }

    #[test]
    fn early_stop_cuts_the_trace_budget_on_decisive_leak() {
        let _failpoints = no_failpoints();
        let netlist = blatantly_leaky();
        let report = FixedVsRandom::new(
            &netlist,
            EvaluationConfig {
                traces: 64_000,
                warmup_cycles: 3,
                checkpoints: 16,
                early_stop: true,
                ..EvaluationConfig::default()
            },
        )
        .try_run()
        .expect("campaign");
        assert!(!report.passed());
        assert!(report.early_stopped);
        assert!(
            report.traces < 64_000,
            "stopped at {} traces",
            report.traces
        );
    }

    #[test]
    fn default_config_keeps_the_fast_path_trajectory_free() {
        let _failpoints = no_failpoints();
        let netlist = properly_masked();
        let report = FixedVsRandom::new(&netlist, config(1_000))
            .try_run()
            .expect("campaign");
        assert!(report
            .results
            .iter()
            .all(|result| result.trajectory.is_empty()));
        assert!(!report.early_stopped);
    }

    #[test]
    fn trajectory_of_a_strong_leak_is_monotone_for_a_deterministic_seed() {
        let _failpoints = no_failpoints();
        // The G statistic of a genuine leak accumulates with the sample
        // count, so the running -log10(p) of the worst probe must grow
        // checkpoint over checkpoint (the seed fixes the sampling, so
        // this is exact, not probabilistic).
        let netlist = blatantly_leaky();
        let report = FixedVsRandom::new(
            &netlist,
            EvaluationConfig {
                traces: 32_000,
                warmup_cycles: 3,
                checkpoints: 8,
                ..EvaluationConfig::default()
            },
        )
        .try_run()
        .expect("campaign");
        let worst = report.worst().expect("results");
        assert!(worst.trajectory.len() >= 4, "{:?}", worst.trajectory);
        for pair in worst.trajectory.windows(2) {
            assert!(pair[0].0 < pair[1].0, "trace counts must increase");
            assert!(
                pair[1].1 >= pair[0].1,
                "-log10(p) regressed: {:?}",
                worst.trajectory
            );
        }
        assert!(worst.trajectory.last().expect("points").1 <= worst.minus_log10_p);
    }

    #[test]
    fn tiny_table_cap_pools_overflow_without_losing_the_leak() {
        let _failpoints = no_failpoints();
        // max_table_keys bounds per-probe memory; once the cap is hit,
        // further keys land in the overflow bucket. The bucket is one
        // more contingency column, so a blatant leak survives even an
        // absurdly small cap.
        let netlist = blatantly_leaky();
        let report = FixedVsRandom::new(
            &netlist,
            EvaluationConfig {
                traces: 20_000,
                warmup_cycles: 3,
                max_table_keys: 1,
                ..EvaluationConfig::default()
            },
        )
        .try_run()
        .expect("campaign");
        assert!(!report.passed(), "{report}");
        for result in &report.results {
            assert!(result.distinct_keys <= 1, "cap violated: {result:?}");
        }
    }

    #[test]
    fn sharded_campaign_is_byte_identical_to_single_threaded() {
        let _failpoints = no_failpoints();
        let netlist = blatantly_leaky();
        let base = EvaluationConfig {
            traces: 20_000,
            warmup_cycles: 3,
            checkpoints: 4,
            ..EvaluationConfig::default()
        };
        let single = FixedVsRandom::new(&netlist, base.clone())
            .try_run()
            .expect("campaign");
        let sharded = FixedVsRandom::new(&netlist, EvaluationConfig { threads: 4, ..base })
            .try_run()
            .expect("campaign");
        assert_eq!(single.results, sharded.results);
        assert_eq!(single.traces, sharded.traces);
        assert_eq!(single.cell_evals, sharded.cell_evals);
        assert_eq!(single.to_csv(), sharded.to_csv());
    }

    #[test]
    fn sharded_overflow_tables_match_single_threaded() {
        let _failpoints = no_failpoints();
        // With a one-key cap every table overflows. A sorted table
        // keeps the smallest key whatever order the shards finish in,
        // so the overflowing tables match too.
        let netlist = blatantly_leaky();
        let base = EvaluationConfig {
            traces: 20_000,
            warmup_cycles: 3,
            max_table_keys: 1,
            ..EvaluationConfig::default()
        };
        let single = FixedVsRandom::new(&netlist, base.clone())
            .try_run()
            .expect("campaign");
        let sharded = FixedVsRandom::new(&netlist, EvaluationConfig { threads: 3, ..base })
            .try_run()
            .expect("campaign");
        assert_eq!(single.results, sharded.results);
    }

    #[test]
    fn sharded_early_stop_matches_single_threaded() {
        let _failpoints = no_failpoints();
        // Early stop is decided at a fold-side checkpoint, so the
        // stopping batch — and therefore the reported trace count — is
        // identical no matter how many workers were still simulating.
        let netlist = blatantly_leaky();
        let base = EvaluationConfig {
            traces: 64_000,
            warmup_cycles: 3,
            checkpoints: 16,
            early_stop: true,
            ..EvaluationConfig::default()
        };
        let single = FixedVsRandom::new(&netlist, base.clone())
            .try_run()
            .expect("campaign");
        let sharded = FixedVsRandom::new(&netlist, EvaluationConfig { threads: 4, ..base })
            .try_run()
            .expect("campaign");
        assert!(sharded.early_stopped);
        assert_eq!(single.traces, sharded.traces);
        assert_eq!(single.results, sharded.results);
    }

    #[test]
    fn ttest_statistic_produces_a_report_across_thread_counts() {
        use crate::stats::StatisticKind;
        let _failpoints = no_failpoints();
        let netlist = blatantly_leaky();
        let base = EvaluationConfig {
            statistic: StatisticKind::TTest,
            traces: 20_000,
            warmup_cycles: 3,
            checkpoints: 4,
            ..EvaluationConfig::default()
        };
        let single = FixedVsRandom::new(&netlist, base.clone())
            .try_run()
            .expect("campaign");
        // The recombined secret shifts the mean Hamming weight of the
        // observed cone between populations — the t-test must see it.
        assert!(!single.passed(), "{single}");
        let sharded = FixedVsRandom::new(&netlist, EvaluationConfig { threads: 4, ..base })
            .try_run()
            .expect("campaign");
        assert_eq!(single.results, sharded.results);
        assert_eq!(single.to_csv(), sharded.to_csv());
        // And a sound design stays clean under the t-test.
        let clean = FixedVsRandom::new(
            &properly_masked(),
            EvaluationConfig {
                statistic: StatisticKind::TTest,
                ..config(20_000)
            },
        )
        .try_run()
        .expect("campaign");
        assert!(clean.passed(), "{clean}");
    }
}
