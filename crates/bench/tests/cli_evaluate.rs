//! End-to-end checks of the `mmaes` CLI: the CSV export carries the
//! checkpoint trajectories, `--metrics` records the event stream, and
//! stdout ends with the machine-readable summary line.

use std::process::Command;

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mmaes-cli-test-{}-{name}", std::process::id()))
}

#[test]
fn evaluate_writes_trajectory_csv_metrics_jsonl_and_summary_line() {
    let csv_path = temp_path("report.csv");
    let jsonl_path = temp_path("run.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_mmaes"))
        .args([
            "evaluate",
            "kronecker:demeyer-eq6", // normalized to de-meyer-eq6
            "--traces",
            "20000",
            "--quiet",
            "--csv",
            csv_path.to_str().unwrap(),
            "--metrics",
            jsonl_path.to_str().unwrap(),
        ])
        .output()
        .expect("mmaes runs");
    // Eq. 6 leaks, so the exit status signals failure by design.
    assert_eq!(output.status.code(), Some(1), "{output:?}");

    // stdout: `--quiet` leaves exactly the one-line JSON summary.
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    let summary = stdout.trim();
    assert_eq!(summary.lines().count(), 1, "{stdout}");
    assert!(summary.starts_with("{\"type\":\"summary\""), "{summary}");
    assert!(
        summary.contains("\"schedule\":\"de-meyer-eq6\""),
        "{summary}"
    );
    assert!(summary.contains("\"passed\":false"), "{summary}");
    assert!(summary.contains("\"wall_ms\":"), "{summary}");

    // CSV: long format with interim checkpoint rows per probing set plus
    // one final row, all with the same column count.
    let csv = std::fs::read_to_string(&csv_path).expect("csv written");
    let _ = std::fs::remove_file(&csv_path);
    let mut lines = csv.lines();
    let header = lines.next().expect("header");
    assert!(header.contains("kind"), "{header}");
    assert!(header.contains("minus_log10_p"), "{header}");
    let columns = header.split(',').count();
    let mut checkpoint_rows = 0usize;
    let mut final_rows = 0usize;
    for line in lines {
        assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
        if line.contains(",checkpoint,") {
            checkpoint_rows += 1;
        } else if line.contains(",final,") {
            final_rows += 1;
        }
    }
    assert!(checkpoint_rows >= 2, "no trajectory rows:\n{csv}");
    assert!(final_rows >= 1, "no final rows:\n{csv}");

    // JSONL: campaign lifecycle with at least two interim checkpoints,
    // flagged probes, and the trailing summary event.
    let jsonl = std::fs::read_to_string(&jsonl_path).expect("metrics written");
    let _ = std::fs::remove_file(&jsonl_path);
    let count = |tag: &str| {
        jsonl
            .lines()
            .filter(|line| line.contains(&format!("\"type\":\"{tag}\"")))
            .count()
    };
    assert_eq!(count("campaign_started"), 1, "{jsonl}");
    assert!(count("checkpoint") >= 2, "{jsonl}");
    assert!(count("probe_flagged") >= 1, "{jsonl}");
    assert_eq!(count("campaign_finished"), 1, "{jsonl}");
    assert_eq!(count("summary"), 1, "{jsonl}");
    assert!(
        jsonl
            .lines()
            .all(|line| line.starts_with('{') && line.ends_with('}')),
        "non-JSON line in metrics file"
    );
}

#[test]
fn evaluate_passes_a_secure_schedule_and_reports_success() {
    let output = Command::new(env!("CARGO_BIN_EXE_mmaes"))
        .args([
            "evaluate",
            "kronecker:full-7",
            "--traces",
            "10000",
            "--quiet",
            "--checkpoints",
            "0",
        ])
        .output()
        .expect("mmaes runs");
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.trim().contains("\"passed\":true"), "{stdout}");
}

#[test]
fn evaluate_with_perf_records_a_snapshot_and_keeps_the_summary_last() {
    let jsonl_path = temp_path("perf.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_mmaes"))
        .args([
            "evaluate",
            "kronecker:proposed-eq9",
            "--traces",
            "5000",
            "--perf",
            "--metrics",
            jsonl_path.to_str().unwrap(),
        ])
        .output()
        .expect("mmaes runs");
    assert_eq!(output.status.code(), Some(0), "{output:?}");

    // The summary (with the v2 perf fields) is the last stdout line even
    // without --quiet, i.e. after the prose report.
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    let last = stdout.trim().lines().last().expect("nonempty stdout");
    assert!(last.starts_with("{\"type\":\"summary\""), "{last}");
    assert!(last.contains("\"elapsed_ms\":"), "{last}");
    assert!(last.contains("\"traces_per_sec\":"), "{last}");
    assert!(last.contains("\"cell_evals\":"), "{last}");

    // --perf routes a campaign-scoped snapshot into the event stream and
    // a phase table onto stderr.
    let jsonl = std::fs::read_to_string(&jsonl_path).expect("metrics written");
    let _ = std::fs::remove_file(&jsonl_path);
    let snapshot = jsonl
        .lines()
        .find(|line| line.contains("\"type\":\"perf_snapshot\""))
        .expect("perf_snapshot event recorded");
    assert!(snapshot.contains("\"scope\":\"campaign\""), "{snapshot}");
    assert!(snapshot.contains("\"phases\":["), "{snapshot}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("g_test"), "{stderr}");
}

/// FNV-1a (64-bit) of `bytes`: a compact pin for files too large to
/// commit as goldens.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `mmaes evaluate` with `args` (which must leak, exit 1) and
/// returns the FNV-1a digests of the files it wrote to `outputs`.
fn evaluate_digests(args: &[&str], outputs: &[&std::path::Path]) -> Vec<u64> {
    let output = Command::new(env!("CARGO_BIN_EXE_mmaes"))
        .arg("evaluate")
        .args(args)
        .arg("--quiet")
        .output()
        .expect("mmaes runs");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    outputs
        .iter()
        .map(|path| {
            let bytes = std::fs::read(path).expect("output written");
            let _ = std::fs::remove_file(path);
            fnv1a(&bytes)
        })
        .collect()
}

/// The trace stream is a pure function of `(seed, batch)`, so a CSV or
/// snapshot's bytes change only when the stream, the counting or the
/// encoders do. These digests pin the dense-only E2 path and the mixed
/// dense/hashed store (with interim snapshots) at one and two threads.
#[test]
fn evaluate_csv_and_snapshot_bytes_are_pinned() {
    let csv = temp_path("pinned-e2.csv");
    let digests = evaluate_digests(
        &[
            "sbox:de-meyer-eq6",
            "--traces",
            "12800",
            "--checkpoints",
            "4",
            "--csv",
            csv.to_str().unwrap(),
        ],
        &[&csv],
    );
    assert_eq!(digests, [0x2d9002be41909758], "E2 CSV digest");

    for threads in ["1", "2"] {
        let csv = temp_path(&format!("pinned-mixed-{threads}.csv"));
        let snapshot = temp_path(&format!("pinned-mixed-{threads}.snap"));
        let digests = evaluate_digests(
            &[
                "sbox:proposed-eq9",
                "--model",
                "transition",
                "--traces",
                "6400",
                "--checkpoints",
                "2",
                "--threads",
                threads,
                "--snapshot",
                snapshot.to_str().unwrap(),
                "--csv",
                csv.to_str().unwrap(),
            ],
            &[&csv, &snapshot],
        );
        assert_eq!(
            digests,
            [0x6dc97cfa54a62afe, 0x3c4b2758cbada223],
            "mixed-store CSV and snapshot digests, threads {threads}"
        );
    }
}
