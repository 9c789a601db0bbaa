//! Differential tests for the two contingency-table modes, driven
//! through [`EvaluationConfig::tabulator`]: dense tables and capped
//! sorted tables on every set must produce byte-identical reports,
//! CSVs and trajectories — across thread counts, across a resume leg
//! that switches stores mid-campaign, and in mixed campaigns where a
//! narrow key cap sends only some probing sets down the dense path and
//! makes the hashed tables overflow.

use std::path::PathBuf;

use mmaes_circuits::build_kronecker;
use mmaes_leakage::{Durability, EvaluationConfig, FixedVsRandom, LeakageReport, TabulatorMode};
use mmaes_masking::KroneckerRandomness;
use mmaes_netlist::{Netlist, NetlistBuilder, SecretId, SignalRole};

fn share_role(share: u8) -> SignalRole {
    SignalRole::Share {
        secret: SecretId(0),
        share,
        bit: 0,
    }
}

/// An unmasked recombination — leaks hard, so trajectories are rich.
fn leaky_design() -> Netlist {
    let mut builder = NetlistBuilder::new("tabulator_leaky");
    let s0 = builder.input("s0", share_role(0));
    let s1 = builder.input("s1", share_role(1));
    let secret = builder.xor2(s0, s1);
    let q = builder.register(secret);
    builder.output("q", q);
    builder.build().expect("valid")
}

fn eq6_config(threads: usize, tabulator: TabulatorMode) -> EvaluationConfig {
    EvaluationConfig {
        traces: 2048,
        threads,
        warmup_cycles: 6,
        checkpoints: 4,
        tabulator,
        ..EvaluationConfig::default()
    }
}

fn run_eq6(config: EvaluationConfig) -> LeakageReport {
    let circuit = build_kronecker(&KroneckerRandomness::de_meyer_eq6()).expect("valid circuit");
    FixedVsRandom::new(&circuit.netlist, config)
        .try_run()
        .expect("campaign")
}

/// The full user-visible surface: CSV (with trajectories) plus the
/// rendered report. `table_bytes` is deliberately excluded — it is
/// memory accounting and legitimately differs between the stores.
fn surface(report: &LeakageReport) -> (String, String) {
    (report.to_csv(), report.to_string())
}

#[test]
fn dense_and_hashed_reports_are_byte_identical_across_thread_counts() {
    let reference = run_eq6(eq6_config(1, TabulatorMode::Dense));
    for tabulator in [TabulatorMode::Dense, TabulatorMode::Hashed] {
        for threads in [1usize, 2] {
            let report = run_eq6(eq6_config(threads, tabulator));
            assert_eq!(
                surface(&report),
                surface(&reference),
                "threads={threads} tabulator={} diverged",
                tabulator.name()
            );
        }
    }
}

/// The Eq. 6 campaign with a 16-key cap, snapshotting to `path`:
/// probing sets observing ≤4 bits qualify for the dense store, wider
/// cones fall back to hashed tables — and those overflow.
fn narrow_cap_run(
    threads: usize,
    tabulator: TabulatorMode,
    path: &PathBuf,
    durability: Durability,
) -> (LeakageReport, Vec<u8>) {
    let mut config = eq6_config(threads, tabulator);
    config.max_table_keys = 16;
    config.durability = Durability {
        snapshot_path: Some(path.clone()),
        ..durability
    };
    let report = run_eq6(config);
    let snapshot = std::fs::read(path).expect("snapshot written");
    (report, snapshot)
}

#[test]
fn a_narrow_key_cap_mixes_stores_without_changing_the_statistics() {
    let circuit = build_kronecker(&KroneckerRandomness::de_meyer_eq6()).expect("valid circuit");
    let (_, tables) = FixedVsRandom::new(
        &circuit.netlist,
        EvaluationConfig {
            max_table_keys: 16,
            ..eq6_config(1, TabulatorMode::Dense)
        },
    )
    .try_run_with_tables()
    .expect("campaign");
    assert!(
        tables.iter().any(|table| table.overflow != [0, 0]),
        "the narrow cap must make some hashed tables overflow"
    );

    // A capped sorted table keeps its 16 smallest keys whatever
    // order batches arrive in, so neither the store mix, the thread
    // count nor an interrupt at 4 threads resumed at 1 may change a
    // byte of the CSV or the snapshot.
    let path = resume_path("narrow-cap");
    let _ = std::fs::remove_file(&path);
    let (reference, reference_snapshot) =
        narrow_cap_run(1, TabulatorMode::Hashed, &path, Durability::default());
    assert!(reference.table_bytes > 0);
    for threads in [1usize, 2, 4] {
        let _ = std::fs::remove_file(&path);
        let (report, snapshot) =
            narrow_cap_run(threads, TabulatorMode::Dense, &path, Durability::default());
        assert!(report.table_bytes > 0);
        assert_eq!(
            surface(&report),
            surface(&reference),
            "threads={threads}: mixed-store campaign diverged from all-hashed"
        );
        assert_eq!(
            snapshot, reference_snapshot,
            "threads={threads}: snapshot bytes diverged"
        );
    }

    let _ = std::fs::remove_file(&path);
    let interrupted = Durability {
        stop_after_batches: Some(13),
        ..Durability::default()
    };
    let (first_leg, _) = narrow_cap_run(4, TabulatorMode::Dense, &path, interrupted);
    assert!(first_leg.interrupted);
    let resume = Durability {
        resume: true,
        ..Durability::default()
    };
    let (resumed, resumed_snapshot) = narrow_cap_run(1, TabulatorMode::Dense, &path, resume);
    let _ = std::fs::remove_file(&path);
    assert!(!resumed.interrupted);
    assert_eq!(
        surface(&resumed),
        surface(&reference),
        "interrupted at 4 threads and resumed at 1, the campaign diverged"
    );
    assert_eq!(
        resumed_snapshot, reference_snapshot,
        "the resumed final snapshot diverged"
    );
}

fn resume_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mmaes-tabulator-resume-{}-{tag}.snapshot",
        std::process::id()
    ))
}

/// Interrupt a campaign under `first`, resume it under `second`, and
/// demand the stitched run matches an uninterrupted reference byte for
/// byte. The snapshot stores plain sorted (key, counts) columns, so the
/// store that wrote it places no constraint on the store that restores
/// it — switching tabulators across a resume leg is supported exactly
/// like switching `--threads`.
fn assert_resume_switches_stores(first: TabulatorMode, second: TabulatorMode) {
    let netlist = leaky_design();
    let config = |tabulator: TabulatorMode| EvaluationConfig {
        traces: 12_800,
        warmup_cycles: 3,
        checkpoints: 5,
        tabulator,
        ..EvaluationConfig::default()
    };
    let reference = FixedVsRandom::new(&netlist, config(first))
        .try_run()
        .expect("reference");

    let path = resume_path(&format!("{}-{}", first.name(), second.name()));
    let mut interrupted = config(first);
    interrupted.durability = Durability {
        snapshot_path: Some(path.clone()),
        stop_after_batches: Some(80),
        ..Durability::default()
    };
    let first_leg = FixedVsRandom::new(&netlist, interrupted)
        .try_run()
        .expect("first leg");
    assert!(first_leg.interrupted);

    let mut resumed = config(second);
    resumed.durability = Durability {
        snapshot_path: Some(path.clone()),
        resume: true,
        ..Durability::default()
    };
    let second_leg = FixedVsRandom::new(&netlist, resumed)
        .try_run()
        .expect("resume leg");
    let _ = std::fs::remove_file(&path);

    assert!(!second_leg.interrupted);
    assert_eq!(
        surface(&second_leg),
        surface(&reference),
        "{}→{} resume diverged from the uninterrupted reference",
        first.name(),
        second.name()
    );
}

#[test]
fn a_snapshot_written_dense_resumes_hashed_bit_identically() {
    assert_resume_switches_stores(TabulatorMode::Dense, TabulatorMode::Hashed);
}

#[test]
fn a_snapshot_written_hashed_resumes_dense_bit_identically() {
    assert_resume_switches_stores(TabulatorMode::Hashed, TabulatorMode::Dense);
}
