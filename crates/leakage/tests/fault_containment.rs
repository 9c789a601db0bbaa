//! Fault-containment checks on the campaign under deterministic
//! injected faults: supervised workers retry panicked batches without
//! perturbing the report, exhausted retry budgets surface as typed
//! errors, checkpoint-snapshot write failures degrade (rather than
//! abort) the campaign, and stale temp files from a crashed writer are
//! reaped at startup.
//!
//! These live in their own integration binary because the failpoint
//! registry is process-global: every test serializes on the
//! [`mmaes_telemetry::failpoint::scoped`] gate, and sharing a binary
//! with fault-free tests would force that gate on them too.

use std::path::{Path, PathBuf};

use mmaes_circuits::build_kronecker;
use mmaes_leakage::{
    snapshot, CampaignError, Durability, EvaluationConfig, FixedVsRandom, LeakageReport,
    TabulatorMode,
};
use mmaes_masking::KroneckerRandomness;
use mmaes_telemetry::{degraded, failpoint};

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mmaes-fault-containment-{}-{name}",
        std::process::id()
    ))
}

/// A small Eq. 6 campaign: 2048 traces = 32 batches, so the scripted
/// faults at batches 3 and 5 land well inside the run, with interim
/// checkpoints for the snapshot-fault tests.
fn run_eq6(threads: usize, snapshot_path: Option<&Path>) -> Result<LeakageReport, CampaignError> {
    run_eq6_with(threads, TabulatorMode::Dense, snapshot_path)
}

fn run_eq6_with(
    threads: usize,
    tabulator: TabulatorMode,
    snapshot_path: Option<&Path>,
) -> Result<LeakageReport, CampaignError> {
    let circuit = build_kronecker(&KroneckerRandomness::de_meyer_eq6()).expect("valid circuit");
    let config = EvaluationConfig {
        traces: 2048,
        threads,
        warmup_cycles: 6,
        checkpoints: 4,
        tabulator,
        durability: Durability {
            snapshot_path: snapshot_path.map(PathBuf::from),
            ..Durability::default()
        },
        ..EvaluationConfig::default()
    };
    FixedVsRandom::new(&circuit.netlist, config).try_run()
}

#[test]
fn worker_panics_leave_the_report_byte_identical_at_every_thread_count() {
    let baseline = {
        let _guard = failpoint::scoped("");
        run_eq6(1, None).expect("fault-free campaign")
    };
    // Both table stores retry panicked batches mid-chunk without
    // perturbing the statistics: the attempt re-runs in place on a
    // rebuilt simulator, and nothing is absorbed until it succeeds.
    for tabulator in [TabulatorMode::Dense, TabulatorMode::Hashed] {
        for threads in [1usize, 2, 4] {
            let _guard = failpoint::scoped("worker=panic@3x2;worker=stall(20)@5");
            let faulted = run_eq6_with(threads, tabulator, None).expect("faults must be contained");
            assert_eq!(
                faulted.to_csv(),
                baseline.to_csv(),
                "threads={threads} tabulator={}: retried batches perturbed the report",
                tabulator.name()
            );
        }
    }
}

#[test]
fn overflowing_hashed_tables_survive_worker_panics_byte_identically() {
    // A 16-key cap makes the wide cones' hashed tables overflow, so
    // which keys they retain must not depend on the order batches are
    // absorbed in. Retried batches at any thread count must leave both
    // the CSV and the final snapshot untouched.
    let run = |threads: usize, path: &Path| {
        let circuit = build_kronecker(&KroneckerRandomness::de_meyer_eq6()).expect("valid circuit");
        let config = EvaluationConfig {
            traces: 2048,
            threads,
            warmup_cycles: 6,
            checkpoints: 4,
            max_table_keys: 16,
            durability: Durability {
                snapshot_path: Some(path.to_path_buf()),
                ..Durability::default()
            },
            ..EvaluationConfig::default()
        };
        let report = FixedVsRandom::new(&circuit.netlist, config)
            .try_run()
            .expect("faults must be contained");
        let snapshot = std::fs::read(path).expect("snapshot written");
        let _ = std::fs::remove_file(path);
        (report.to_csv(), snapshot)
    };
    let path = temp_path("overflow.snapshot");
    let baseline = {
        let _guard = failpoint::scoped("");
        run(1, &path)
    };
    for threads in [1usize, 2, 4] {
        let _guard = failpoint::scoped("worker=panic@3x2");
        assert!(
            run(threads, &path) == baseline,
            "threads={threads}: retried batches perturbed an overflowing campaign"
        );
    }
}

#[test]
fn exhausted_retry_budget_is_a_typed_worker_error() {
    for threads in [1usize, 2] {
        let _guard = failpoint::scoped("worker=panic@3x*");
        match run_eq6(threads, None) {
            Err(CampaignError::Worker {
                batch,
                attempts,
                message,
            }) => {
                assert_eq!(batch, 3);
                assert_eq!(attempts, 4, "the full retry budget must be spent");
                assert!(message.contains("injected panic"), "{message}");
            }
            other => panic!("threads={threads}: expected a Worker error, got {other:?}"),
        }
    }
}

#[test]
fn checkpoint_snapshot_faults_degrade_but_the_final_snapshot_lands() {
    let path = temp_path("degraded.snapshot");
    let _ = std::fs::remove_file(&path);
    // Three injected errors exhaust the first checkpoint's entire retry
    // budget; the final flush is healthy again.
    let _guard = failpoint::scoped("snapshot.save=ioerr x3");
    let report = run_eq6(1, Some(&path)).expect("a degraded snapshot must not abort the run");
    assert!(!report.interrupted);
    let marks = degraded::snapshot();
    assert!(
        marks.iter().any(|entry| entry.subsystem == "snapshot"),
        "snapshot degradation must be recorded: {marks:?}"
    );
    let saved = snapshot::load(&path).expect("the final snapshot must still be written");
    assert_eq!(
        saved.batches_done,
        2048 / 64,
        "final state, not a checkpoint"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn campaign_startup_reaps_a_stale_tmp_from_a_crashed_writer() {
    let path = temp_path("reap.snapshot");
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, b"torn half-write from a crashed process").expect("plant tmp");
    // Every save is forced to fail before touching the filesystem, so
    // startup reaping is the only thing that can remove the planted
    // file — the atomic rename never gets a chance to.
    let _guard = failpoint::scoped("snapshot.save=ioerr x*");
    let result = run_eq6(1, Some(&path));
    assert!(
        matches!(result, Err(CampaignError::Snapshot(_))),
        "an unrecoverable final save must propagate: {result:?}"
    );
    assert!(
        !tmp.exists(),
        "the stale .tmp must be reaped at campaign startup"
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&tmp);
}

#[test]
fn stalled_workers_are_flagged_advisory_without_touching_the_report() {
    let baseline = {
        let _guard = failpoint::scoped("");
        run_eq6(1, None).expect("fault-free campaign")
    };
    // The watchdog threshold is env-tunable; drop it below the injected
    // stall so the heartbeat monitor actually fires during the test. The
    // gate is taken first: a sibling test holding it may be reading the
    // variable, and it is removed again before the gate is released.
    let _guard = failpoint::scoped("worker=stall(400)@3");
    std::env::set_var("MMAES_STALL_TIMEOUT_MS", "50");
    let report = run_eq6(2, None).expect("a stall is advisory, never fatal");
    std::env::remove_var("MMAES_STALL_TIMEOUT_MS");
    assert_eq!(
        report.to_csv(),
        baseline.to_csv(),
        "a stalled batch must not perturb the report"
    );
    let marks = degraded::snapshot();
    assert!(
        marks.iter().any(|entry| entry.subsystem == "worker"),
        "the watchdog must record the stalled worker: {marks:?}"
    );
}
