//! End-to-end CLI tests for the crash-safety surface of `mmaes
//! evaluate`: exit-code discipline, `--snapshot`/`--resume`, and the
//! `--stop-after-batches` deterministic interruption hook (the same
//! path a SIGTERM takes, minus the signal).

use std::path::PathBuf;
use std::process::{Command, Output};

fn mmaes(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mmaes"))
        .args(args)
        .output()
        .expect("spawn mmaes")
}

fn unique_path(tag: &str, extension: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mmaes-cli-{}-{tag}-{unique}.{extension}",
        std::process::id()
    ))
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// The JSON summary is always the last stdout line.
fn summary_line(output: &Output) -> String {
    stdout(output)
        .lines()
        .last()
        .expect("stdout has a summary line")
        .to_owned()
}

#[test]
fn interrupted_run_resumes_to_the_same_verdict_and_csv() {
    let snapshot = unique_path("resume", "snapshot");
    let reference_csv = unique_path("reference", "csv");
    let resumed_csv = unique_path("resumed", "csv");
    let design = "kronecker:de-meyer-eq6";
    let common = ["evaluate", design, "--traces", "12800", "--quiet"];

    // Uninterrupted reference run.
    let reference = mmaes(&[&common[..], &["--csv", reference_csv.to_str().unwrap()]].concat());
    assert_eq!(
        reference.status.code(),
        Some(1),
        "eq6 must be flagged leaky: {}",
        String::from_utf8_lossy(&reference.stderr)
    );

    // Leg 1: stop after 80 of 200 batches — exit 3, snapshot on disk.
    let first = mmaes(
        &[
            &common[..],
            &[
                "--snapshot",
                snapshot.to_str().unwrap(),
                "--stop-after-batches",
                "80",
            ],
        ]
        .concat(),
    );
    assert_eq!(
        first.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    assert!(summary_line(&first).contains("\"interrupted\":true"));
    assert!(snapshot.exists());

    // Leg 2: resume to completion — same verdict, byte-identical CSV.
    let second = mmaes(
        &[
            &common[..],
            &[
                "--snapshot",
                snapshot.to_str().unwrap(),
                "--resume",
                "--csv",
                resumed_csv.to_str().unwrap(),
            ],
        ]
        .concat(),
    );
    assert_eq!(
        second.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&second.stderr)
    );
    assert!(summary_line(&second).contains("\"interrupted\":false"));

    let reference_rows = std::fs::read(&reference_csv).expect("reference csv");
    let resumed_rows = std::fs::read(&resumed_csv).expect("resumed csv");
    let _ = std::fs::remove_file(&snapshot);
    let _ = std::fs::remove_file(&reference_csv);
    let _ = std::fs::remove_file(&resumed_csv);
    assert_eq!(
        reference_rows, resumed_rows,
        "resumed campaign CSV diverged from the uninterrupted reference"
    );
}

#[test]
fn four_thread_interrupt_resumes_on_one_thread_to_the_reference_csv() {
    // Thread count is deliberately excluded from the snapshot
    // fingerprint: a campaign interrupted under `--threads 4` must
    // resume on a single thread (or any other count) to the same bytes.
    let snapshot = unique_path("threads-resume", "snapshot");
    let reference_csv = unique_path("threads-reference", "csv");
    let resumed_csv = unique_path("threads-resumed", "csv");
    let design = "kronecker:de-meyer-eq6";
    let common = ["evaluate", design, "--traces", "12800", "--quiet"];

    // Single-threaded uninterrupted reference.
    let reference = mmaes(&[&common[..], &["--csv", reference_csv.to_str().unwrap()]].concat());
    assert_eq!(reference.status.code(), Some(1));

    // Leg 1: four workers, stopped after 80 of 200 batches.
    let first = mmaes(
        &[
            &common[..],
            &[
                "--threads",
                "4",
                "--snapshot",
                snapshot.to_str().unwrap(),
                "--stop-after-batches",
                "80",
            ],
        ]
        .concat(),
    );
    assert_eq!(
        first.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    assert!(summary_line(&first).contains("\"threads\":4"));
    assert!(snapshot.exists());

    // Leg 2: resume on the default single thread.
    let second = mmaes(
        &[
            &common[..],
            &[
                "--snapshot",
                snapshot.to_str().unwrap(),
                "--resume",
                "--csv",
                resumed_csv.to_str().unwrap(),
            ],
        ]
        .concat(),
    );
    assert_eq!(
        second.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&second.stderr)
    );

    let reference_rows = std::fs::read(&reference_csv).expect("reference csv");
    let resumed_rows = std::fs::read(&resumed_csv).expect("resumed csv");
    let _ = std::fs::remove_file(&snapshot);
    let _ = std::fs::remove_file(&reference_csv);
    let _ = std::fs::remove_file(&resumed_csv);
    assert_eq!(
        reference_rows, resumed_rows,
        "1-thread resume of a 4-thread run diverged from the reference"
    );
}

#[test]
fn corrupt_snapshot_exits_invalid_input() {
    let snapshot = unique_path("corrupt", "snapshot");
    std::fs::write(&snapshot, "mmaes-campaign-snapshot v1\nnot a snapshot\n").expect("write");
    let output = mmaes(&[
        "evaluate",
        "kronecker:proposed-eq9",
        "--traces",
        "6400",
        "--quiet",
        "--snapshot",
        snapshot.to_str().unwrap(),
        "--resume",
    ]);
    let _ = std::fs::remove_file(&snapshot);
    assert_eq!(
        output.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stderr).contains("snapshot"));
}

#[test]
fn clean_design_exits_zero_and_unknown_flag_exits_two() {
    let clean = mmaes(&[
        "evaluate",
        "kronecker:proposed-eq9",
        "--traces",
        "6400",
        "--quiet",
    ]);
    assert_eq!(
        clean.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&clean.stderr)
    );

    let bad_flag = mmaes(&["evaluate", "kronecker", "--no-such-flag"]);
    assert_eq!(bad_flag.status.code(), Some(2));

    let bad_value = mmaes(&["evaluate", "kronecker", "--traces", "many"]);
    assert_eq!(bad_value.status.code(), Some(2));

    for bad_input in [
        &["verify", "kronecker", "--max-bits", "many"][..],
        &["evaluate", "kronecker", "--order", "0"],
        &["evaluate", "kronecker", "--order", "3"],
        &["explain", "kronecker", "--order", "3"],
        &["bench"],
    ] {
        let output = mmaes(bad_input);
        assert_eq!(output.status.code(), Some(2), "{bad_input:?}: {output:?}");
    }

    let resume_without_snapshot = mmaes(&["evaluate", "kronecker", "--resume"]);
    assert_eq!(resume_without_snapshot.status.code(), Some(2));

    let unknown_design = mmaes(&["evaluate", "definitely-not-a-design"]);
    assert_eq!(unknown_design.status.code(), Some(2));
}

#[test]
fn selftest_detects_planted_faults_quickly() {
    // A scaled-down selftest: one mutant per fault kind, enough traces
    // that the Eq. 6 leak is decisive but CI time stays low.
    let output = mmaes(&["selftest", "--traces", "30000", "--per-kind", "1"]);
    let summary = summary_line(&output);
    assert_eq!(
        output.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        stdout(&output),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(summary.contains("\"tool\":\"mmaes selftest\""), "{summary}");
    assert!(summary.contains("\"passed\":true"), "{summary}");
}
