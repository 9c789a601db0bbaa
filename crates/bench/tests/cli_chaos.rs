//! End-to-end checks of the chaos harness surface: the `mmaes chaos`
//! verb contains its default fault schedule and still exits with the
//! Eq. 6 finding, `evaluate --failpoints` injects without perturbing
//! the report, and malformed schedules (flag or `MMAES_FAILPOINTS`)
//! are rejected as invalid input.

use std::process::Command;

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mmaes-cli-chaos-{}-{name}", std::process::id()))
}

#[test]
fn chaos_verb_contains_faults_and_exits_with_the_finding() {
    let output = Command::new(env!("CARGO_BIN_EXE_mmaes"))
        .args(["chaos", "--traces", "8000"])
        .output()
        .expect("mmaes runs");
    // Exit 1 is the Eq. 6 finding surviving the chaos — exit 2 would
    // mean a containment failure, exit 0 a lost finding.
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(
        stdout.contains("report byte-identical to baseline"),
        "{stdout}"
    );
    // One faulted leg per thread count (1 and the default 2), and no
    // other-store leg.
    assert!(stdout.contains("under faults, threads=1:"), "{stdout}");
    assert!(stdout.contains("under faults, threads=2:"), "{stdout}");
    assert!(!stdout.contains("tabulator="), "{stdout}");
    assert!(
        stdout.contains("\"containment_failures\":\"0\""),
        "{stdout}"
    );
    // The summary's degraded block must carry the injected snapshot
    // and status-file write failures.
    assert!(stdout.contains("\"subsystem\":\"snapshot\""), "{stdout}");
    assert!(stdout.contains("\"subsystem\":\"status-file\""), "{stdout}");
    assert!(stdout.contains("chaos passed"), "{stdout}");
}

#[test]
fn evaluate_failpoints_do_not_perturb_the_report() {
    let clean_csv = temp_path("clean.csv");
    let faulted_csv = temp_path("faulted.csv");
    let mut codes = Vec::new();
    for (csv, failpoints) in [(&clean_csv, None), (&faulted_csv, Some("worker=panic@2x2"))] {
        let mut arguments = vec![
            "evaluate".to_owned(),
            "kronecker:de-meyer-eq6".to_owned(),
            "--traces".to_owned(),
            "8000".to_owned(),
            "--quiet".to_owned(),
            "--csv".to_owned(),
            csv.to_str().unwrap().to_owned(),
        ];
        if let Some(spec) = failpoints {
            arguments.push("--failpoints".to_owned());
            arguments.push(spec.to_owned());
        }
        let output = Command::new(env!("CARGO_BIN_EXE_mmaes"))
            .args(&arguments)
            .output()
            .expect("mmaes runs");
        codes.push(output.status.code());
    }
    assert_eq!(codes, vec![Some(1), Some(1)], "Eq. 6 leaks in both runs");
    let clean = std::fs::read_to_string(&clean_csv).expect("clean csv");
    let faulted = std::fs::read_to_string(&faulted_csv).expect("faulted csv");
    assert_eq!(clean, faulted, "retried batches perturbed the CSV");
    let _ = std::fs::remove_file(&clean_csv);
    let _ = std::fs::remove_file(&faulted_csv);
}

#[test]
fn malformed_failpoint_schedules_are_invalid_input() {
    let output = Command::new(env!("CARGO_BIN_EXE_mmaes"))
        .args(["evaluate", "kronecker", "--failpoints", "not-a-spec"])
        .output()
        .expect("mmaes runs");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("--failpoints"), "{stderr}");

    // The environment variable path rejects before any subcommand runs.
    let output = Command::new(env!("CARGO_BIN_EXE_mmaes"))
        .env("MMAES_FAILPOINTS", "worker=explode")
        .args(["stats", "kronecker"])
        .output()
        .expect("mmaes runs");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("MMAES_FAILPOINTS"), "{stderr}");
}
