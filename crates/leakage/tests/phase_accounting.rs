//! The engine's perf phases against the campaign's wall time, at one
//! thread: phases must never add up to more than the wall they ran in.
//!
//! Interim snapshots are written inside their checkpoint's `g_test`
//! span and the final snapshot after the final `g_test` span, so with a
//! snapshot the phases are summed the way perfbench's `--trace 1`
//! accounting sums them (`perfbench/src/layers.rs`): the nested interim
//! saves, taken as all snapshot spans but the longest, come off
//! `g_test`. Each save ends in an fsync, whose jitter can make an
//! interim save the longest; that sum then counts the gap between the
//! two saves twice, at most the longest minus the shortest save, so the
//! bound is checked with that spread taken off.
//!
//! There is no lower bound (perfbench reads 97–100% coverage on its
//! workloads): at test size, set-up outside any span (probe
//! enumeration, simulator lowering, table allocation) is a large and
//! noisy share of a few-millisecond wall.

use mmaes_circuits::build_kronecker;
use mmaes_leakage::{EvaluationConfig, FixedVsRandom};
use mmaes_masking::KroneckerRandomness;
use mmaes_telemetry::{Observer, PerfRecorder, PerfSnapshot, RunRecord};

/// Batches in the budget; `CHECKPOINTS` divides it, so the last
/// checkpoint falls on the end and only the others are interim.
const BATCHES: u64 = 400;
const CHECKPOINTS: u64 = 4;

/// A phase's completed spans and total nanoseconds, zeros when the run
/// never entered it.
fn phase(snapshot: &PerfSnapshot, name: &str) -> (u64, u64) {
    snapshot
        .phase(name)
        .map_or((0, 0), |phase| (phase.count, phase.total_ns))
}

/// Runs the Eq. 6 Kronecker campaign at one thread with perf on and
/// returns its final record.
fn run(snapshot: Option<std::path::PathBuf>) -> RunRecord {
    let _failpoints = mmaes_telemetry::failpoint::scoped("");
    let circuit = build_kronecker(&KroneckerRandomness::de_meyer_eq6()).expect("valid netlist");
    let mut config = EvaluationConfig {
        traces: BATCHES * 64,
        warmup_cycles: 6,
        checkpoints: CHECKPOINTS,
        threads: 1,
        ..EvaluationConfig::default()
    };
    config.durability.snapshot_path = snapshot;
    let (_, _, record) = FixedVsRandom::new(&circuit.netlist, config)
        .with_observer(Observer::null().with_perf(PerfRecorder::enabled()))
        .try_run_recorded(false)
        .expect("campaign runs");
    record
}

/// The wall time, in nanoseconds, that the phases may fill: the record
/// truncates it to whole milliseconds.
fn wall_bound_ns(record: &RunRecord) -> u64 {
    (record.wall_ms + 1) * 1_000_000
}

#[test]
fn phases_without_a_snapshot_sum_to_at_most_the_wall() {
    let record = run(None);
    let perf = record.perf.as_ref().expect("perf is on");
    assert_eq!(
        phase(perf, "g_test").0,
        CHECKPOINTS,
        "three interim sweeps and the final"
    );
    assert_eq!(phase(perf, "merge").0, 0, "one thread merges nothing");
    assert_eq!(phase(perf, "snapshot").0, 0);
    let phases: u64 = perf.phases.iter().map(|phase| phase.total_ns).sum();
    assert!(
        phases <= wall_bound_ns(&record),
        "phases {phases} ns exceed the {} ms wall: {:?}",
        record.wall_ms,
        perf.phases
    );
}

#[test]
fn phases_with_a_snapshot_sum_to_at_most_the_wall() {
    let path = std::env::temp_dir().join(format!(
        "mmaes-phase-accounting-{}.snapshot",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let record = run(Some(path.clone()));
    let _ = std::fs::remove_file(&path);
    let perf = record.perf.as_ref().expect("perf is on");
    let (g_tests, g_test) = phase(perf, "g_test");
    let saves = perf.phase("snapshot").expect("snapshots were saved");
    assert_eq!(g_tests, CHECKPOINTS, "three interim sweeps and the final");
    assert_eq!(
        saves.count, CHECKPOINTS,
        "three interim saves and the final"
    );
    let nested = saves.total_ns - saves.max_ns;
    assert!(nested <= g_test, "interim saves run inside g_test");
    let covered = phase(perf, "simulate").1
        + phase(perf, "tabulate").1
        + phase(perf, "merge").1
        + (g_test - nested)
        + saves.total_ns;
    let spread = saves.max_ns - saves.min_ns;
    assert!(
        covered - spread <= wall_bound_ns(&record),
        "covered {covered} ns less the {spread} ns spread of the saves exceeds the {} ms \
         wall: {:?}",
        record.wall_ms,
        perf.phases
    );
}
