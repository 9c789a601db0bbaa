//! Crash-safety integration tests: an interrupted campaign resumed from
//! its snapshot must be *bit-identical* to an uninterrupted run — same
//! checkpoint trajectories (to the last f64 bit), same final statistics,
//! same verdict. Also covers the failure modes: corrupt snapshots,
//! version mismatches, configuration mismatches and missing files.

use std::collections::BTreeMap;
use std::path::PathBuf;

use mmaes_circuits::build_kronecker;
use mmaes_leakage::{
    snapshot, CampaignError, Durability, EvaluationConfig, FixedVsRandom, LeakageReport,
    SnapshotError,
};
use mmaes_masking::KroneckerRandomness;
use mmaes_netlist::{Netlist, NetlistBuilder, SecretId, SignalRole};
use proptest::prelude::*;

fn share_role(share: u8) -> SignalRole {
    SignalRole::Share {
        secret: SecretId(0),
        share,
        bit: 0,
    }
}

/// An unmasked recombination — leaks hard, so trajectories are rich.
fn leaky_design() -> Netlist {
    let mut builder = NetlistBuilder::new("resume_leaky");
    let s0 = builder.input("s0", share_role(0));
    let s1 = builder.input("s1", share_role(1));
    let secret = builder.xor2(s0, s1);
    let q = builder.register(secret);
    builder.output("q", q);
    builder.build().expect("valid")
}

/// A clean two-share pass-through — exercises the PASS path.
fn clean_design() -> Netlist {
    let mut builder = NetlistBuilder::new("resume_clean");
    let s0 = builder.input("s0", share_role(0));
    let s1 = builder.input("s1", share_role(1));
    let q0 = builder.register(s0);
    let q1 = builder.register(s1);
    builder.output("q0", q0);
    builder.output("q1", q1);
    builder.build().expect("valid")
}

fn config(traces: u64) -> EvaluationConfig {
    EvaluationConfig {
        traces,
        warmup_cycles: 3,
        checkpoints: 5,
        ..EvaluationConfig::default()
    }
}

/// A fresh snapshot path under the system temp dir, unique per call.
fn snapshot_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mmaes-resume-{}-{tag}-{unique}.snapshot",
        std::process::id()
    ))
}

/// Trajectory points plus final `-log10(p)` bits and sample count.
type ProbeFingerprint = (Vec<(u64, u64)>, u64, u64);

/// Per-probe state keyed by label, with floats as raw bits so equality
/// is byte-exact, not approximate.
fn fingerprint_report(report: &LeakageReport) -> BTreeMap<String, ProbeFingerprint> {
    report
        .results
        .iter()
        .map(|result| {
            let trajectory: Vec<(u64, u64)> = result
                .trajectory
                .iter()
                .map(|&(traces, value)| (traces, value.to_bits()))
                .collect();
            (
                result.label.clone(),
                (trajectory, result.minus_log10_p.to_bits(), result.samples),
            )
        })
        .collect()
}

/// Runs to completion in two legs (interrupt after `stop_after` batches,
/// then resume) and checks the result against one uninterrupted run.
fn assert_resume_is_bit_identical(netlist: &Netlist, traces: u64, stop_after: u64) {
    let path = snapshot_path("leg");
    let reference = FixedVsRandom::new(netlist, config(traces))
        .try_run()
        .expect("campaign");

    let mut interrupted_config = config(traces);
    interrupted_config.durability = Durability {
        snapshot_path: Some(path.clone()),
        resume: false,
        interrupt: None,
        stop_after_batches: Some(stop_after),
    };
    let first_leg = FixedVsRandom::new(netlist, interrupted_config)
        .try_run()
        .expect("first leg");
    assert!(first_leg.interrupted, "cap must interrupt the campaign");
    assert!(first_leg.traces < reference.traces);
    assert!(path.exists(), "interrupted leg must leave a snapshot");

    let mut resumed_config = config(traces);
    resumed_config.durability = Durability {
        snapshot_path: Some(path.clone()),
        resume: true,
        interrupt: None,
        stop_after_batches: None,
    };
    let second_leg = FixedVsRandom::new(netlist, resumed_config)
        .try_run()
        .expect("resume leg");
    let _ = std::fs::remove_file(&path);

    assert!(!second_leg.interrupted);
    assert_eq!(second_leg.traces, reference.traces);
    assert_eq!(second_leg.passed(), reference.passed());
    assert_eq!(
        fingerprint_report(&second_leg),
        fingerprint_report(&reference),
        "resumed campaign diverged from the uninterrupted reference"
    );
}

#[test]
fn resumed_leaky_campaign_matches_uninterrupted_run_exactly() {
    assert_resume_is_bit_identical(&leaky_design(), 12_800, 80);
}

#[test]
fn resumed_clean_campaign_matches_uninterrupted_run_exactly() {
    assert_resume_is_bit_identical(&clean_design(), 12_800, 120);
}

#[test]
fn resume_with_missing_snapshot_starts_fresh() {
    let netlist = leaky_design();
    let path = snapshot_path("missing");
    assert!(!path.exists());
    let mut with_resume = config(6_400);
    with_resume.durability = Durability {
        snapshot_path: Some(path.clone()),
        resume: true,
        interrupt: None,
        stop_after_batches: None,
    };
    let resumed = FixedVsRandom::new(&netlist, with_resume)
        .try_run()
        .expect("missing snapshot starts fresh");
    let _ = std::fs::remove_file(&path);
    let reference = FixedVsRandom::new(&netlist, config(6_400))
        .try_run()
        .expect("campaign");
    assert_eq!(fingerprint_report(&resumed), fingerprint_report(&reference));
}

#[test]
fn resuming_a_completed_snapshot_reproduces_the_final_report() {
    let netlist = leaky_design();
    let path = snapshot_path("completed");
    let mut first = config(6_400);
    first.durability = Durability {
        snapshot_path: Some(path.clone()),
        resume: false,
        interrupt: None,
        stop_after_batches: None,
    };
    let completed = FixedVsRandom::new(&netlist, first)
        .try_run()
        .expect("complete run");
    assert!(!completed.interrupted);

    let mut again = config(6_400);
    again.durability = Durability {
        snapshot_path: Some(path.clone()),
        resume: true,
        interrupt: None,
        stop_after_batches: None,
    };
    let replayed = FixedVsRandom::new(&netlist, again)
        .try_run()
        .expect("replay");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        fingerprint_report(&replayed),
        fingerprint_report(&completed)
    );
}

#[test]
fn corrupt_snapshot_is_a_typed_error() {
    let netlist = leaky_design();
    let path = snapshot_path("corrupt");
    std::fs::write(&path, "mmaes-campaign-snapshot v1\ngarbage here\n").expect("write");
    let mut corrupted = config(6_400);
    corrupted.durability = Durability {
        snapshot_path: Some(path.clone()),
        resume: true,
        interrupt: None,
        stop_after_batches: None,
    };
    let error = FixedVsRandom::new(&netlist, corrupted)
        .try_run()
        .expect_err("corrupt snapshot must not run");
    let _ = std::fs::remove_file(&path);
    assert!(
        matches!(
            error,
            CampaignError::Snapshot(SnapshotError::Corrupt { .. })
        ),
        "{error:?}"
    );
}

#[test]
fn version_mismatched_snapshot_is_a_typed_error() {
    let netlist = leaky_design();
    let path = snapshot_path("version");
    std::fs::write(&path, "mmaes-campaign-snapshot v999\n").expect("write");
    let mut mismatched = config(6_400);
    mismatched.durability = Durability {
        snapshot_path: Some(path.clone()),
        resume: true,
        interrupt: None,
        stop_after_batches: None,
    };
    let error = FixedVsRandom::new(&netlist, mismatched)
        .try_run()
        .expect_err("future snapshot version must not load");
    let _ = std::fs::remove_file(&path);
    assert!(
        matches!(
            error,
            CampaignError::Snapshot(SnapshotError::VersionMismatch { found: 999 })
        ),
        "{error:?}"
    );
}

#[test]
fn snapshot_from_a_different_configuration_is_rejected() {
    let netlist = leaky_design();
    let path = snapshot_path("config");
    let mut seed_a = config(6_400);
    seed_a.seed = 1;
    seed_a.durability = Durability {
        snapshot_path: Some(path.clone()),
        resume: false,
        interrupt: None,
        stop_after_batches: Some(40),
    };
    FixedVsRandom::new(&netlist, seed_a)
        .try_run()
        .expect("first leg");

    let mut seed_b = config(6_400);
    seed_b.seed = 2;
    seed_b.durability = Durability {
        snapshot_path: Some(path.clone()),
        resume: true,
        interrupt: None,
        stop_after_batches: None,
    };
    let error = FixedVsRandom::new(&netlist, seed_b)
        .try_run()
        .expect_err("different seed must not resume");
    let _ = std::fs::remove_file(&path);
    assert!(
        matches!(
            error,
            CampaignError::Snapshot(SnapshotError::ConfigMismatch { .. })
        ),
        "{error:?}"
    );
}

#[test]
fn interrupt_flag_stops_the_campaign_cooperatively() {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    let netlist = leaky_design();
    let flag = Arc::new(AtomicBool::new(true)); // pre-signalled
    let mut interruptible = config(12_800);
    interruptible.durability = Durability {
        snapshot_path: None,
        resume: false,
        interrupt: Some(flag),
        stop_after_batches: None,
    };
    let report = FixedVsRandom::new(&netlist, interruptible)
        .try_run()
        .expect("interrupted run");
    assert!(report.interrupted);
    assert_eq!(report.traces, 64, "stops after the first batch");
}

/// A campaign writes its snapshots straight from its live tables;
/// `CampaignSnapshot::to_text` renders a loaded one. Both must be the
/// same encoder: every file on disk equals `load(path).to_text()` byte
/// for byte. The Eq. 6 core under a 16-key cap mixes dense tables with
/// overflowing hashed ones; each thread count writes an interrupted
/// snapshot (the frontier a `stop_after_batches` cap leaves) and a
/// completed one.
#[test]
fn snapshots_on_disk_are_what_to_text_renders() {
    let circuit = build_kronecker(&KroneckerRandomness::de_meyer_eq6()).expect("valid circuit");
    for threads in [1usize, 2] {
        for stop_after_batches in [Some(20), None] {
            let path = snapshot_path("encoder");
            let config = EvaluationConfig {
                traces: 2048,
                threads,
                warmup_cycles: 6,
                checkpoints: 4,
                max_table_keys: 16,
                durability: Durability {
                    snapshot_path: Some(path.clone()),
                    resume: false,
                    interrupt: None,
                    stop_after_batches,
                },
                ..EvaluationConfig::default()
            };
            let report = FixedVsRandom::new(&circuit.netlist, config)
                .try_run()
                .expect("campaign");
            assert_eq!(report.interrupted, stop_after_batches.is_some());
            let on_disk = std::fs::read(&path).expect("snapshot written");
            let loaded = snapshot::load(&path).expect("snapshot loads");
            let _ = std::fs::remove_file(&path);
            assert!(
                loaded.tables.iter().any(|table| table.overflow != [0, 0]),
                "the narrow cap must leave overflowing hashed tables"
            );
            assert!(
                on_disk == loaded.to_text().into_bytes(),
                "threads={threads}, stop_after_batches={stop_after_batches:?}: \
                 the campaign's snapshot differs from its to_text rendering"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Resume is exact no matter where the interruption lands.
    #[test]
    fn resume_is_exact_at_any_stop_point(stop_after in 1u64..100) {
        assert_resume_is_bit_identical(&leaky_design(), 6_400, stop_after);
    }
}
