//! End-to-end determinism checks for the multi-threaded campaign
//! driver: `--threads N` must change nothing but wall time — the
//! per-probe CSV (and, for the mixed-store campaign, the snapshot file)
//! is compared byte for byte and the JSON summary field by field
//! (excluding the timing fields and the `threads` echo, which
//! legitimately differ).

use std::path::PathBuf;
use std::process::{Command, Output};

use mmaes_telemetry::json::{parse, JsonValue};

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
        "mmaes-threads-{}-{tag}-{unique}.{extension}",
        std::process::id()
    ))
}

/// The JSON summary is always the last stdout line.
fn summary(output: &Output) -> JsonValue {
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let line = stdout.lines().last().expect("stdout has a summary line");
    parse(line).expect("summary is valid JSON")
}

/// Asserts two summaries agree on every statistics field; only timing
/// and the `threads` echo may differ between the runs.
fn assert_same_statistics(a: &JsonValue, b: &JsonValue) {
    for key in ["traces", "cell_evals", "order"] {
        assert_eq!(
            a.get(key).and_then(JsonValue::as_u64),
            b.get(key).and_then(JsonValue::as_u64),
            "summaries disagree on {key}"
        );
    }
    assert_eq!(
        a.get("max_minus_log10_p").and_then(JsonValue::as_f64),
        b.get("max_minus_log10_p").and_then(JsonValue::as_f64),
        "summaries disagree on max_minus_log10_p"
    );
    for key in ["passed", "interrupted"] {
        assert_eq!(
            a.get(key).and_then(JsonValue::as_bool),
            b.get(key).and_then(JsonValue::as_bool),
            "summaries disagree on {key}"
        );
    }
}

/// Runs one evaluation writing its CSV, returning (exit code, summary,
/// CSV bytes).
fn evaluate(design: &str, extra: &[&str]) -> (Option<i32>, JsonValue, Vec<u8>) {
    let csv = unique_path("csv", "csv");
    let mut args = vec![
        "evaluate",
        design,
        "--traces",
        "12800",
        "--quiet",
        "--csv",
        csv.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let output = mmaes(&args);
    let rows = std::fs::read(&csv).unwrap_or_else(|error| {
        panic!(
            "no csv at {}: {error}; stderr: {}",
            csv.display(),
            String::from_utf8_lossy(&output.stderr)
        )
    });
    let _ = std::fs::remove_file(&csv);
    (output.status.code(), summary(&output), rows)
}

#[test]
fn four_threads_produce_byte_identical_output_to_one_thread() {
    let design = "kronecker:de-meyer-eq6";
    let (code_one, summary_one, csv_one) = evaluate(design, &[]);
    let (code_four, summary_four, csv_four) = evaluate(design, &["--threads", "4"]);

    assert_eq!(code_one, Some(1), "eq6 must be flagged leaky");
    assert_eq!(code_one, code_four, "verdicts differ across thread counts");
    assert_eq!(
        summary_one.get("threads").and_then(JsonValue::as_u64),
        Some(1)
    );
    assert_eq!(
        summary_four.get("threads").and_then(JsonValue::as_u64),
        Some(4)
    );
    assert_same_statistics(&summary_one, &summary_four);
    assert_eq!(
        csv_one, csv_four,
        "per-probe CSV diverged between 1 and 4 threads"
    );
}

/// The glitch+transition Eq. 9 S-box campaign has 670 dense and 35
/// hashed tables, so it drives both stores through the one driver —
/// with a snapshot at each of its 4 checkpoints.
#[test]
fn a_mixed_store_campaign_is_byte_identical_across_thread_counts() {
    let mut snapshots: Vec<Vec<u8>> = Vec::new();
    let mut csvs: Vec<Vec<u8>> = Vec::new();
    let mut summaries: Vec<JsonValue> = Vec::new();
    for threads in ["1", "2"] {
        let snapshot = unique_path("snapshot", "snapshot");
        let (code, summary, csv) = evaluate(
            "sbox:proposed-eq9",
            &[
                "--model",
                "transition",
                "--checkpoints",
                "4",
                "--threads",
                threads,
                "--snapshot",
                snapshot.to_str().unwrap(),
            ],
        );
        assert_eq!(code, Some(1), "eq9 under transitions must be flagged");
        snapshots.push(std::fs::read(&snapshot).expect("snapshot written"));
        let _ = std::fs::remove_file(&snapshot);
        csvs.push(csv);
        summaries.push(summary);
    }
    assert_eq!(
        csvs[0], csvs[1],
        "per-probe CSV diverged between 1 and 2 threads"
    );
    assert_eq!(
        snapshots[0], snapshots[1],
        "snapshot file diverged between 1 and 2 threads"
    );
    assert_same_statistics(&summaries[0], &summaries[1]);
}

/// The differential oracles are test-only hooks, not product options:
/// their old flags fail like any unknown flag.
#[test]
fn removed_oracle_flags_are_unknown_flags() {
    for verb in ["evaluate", "explain"] {
        for flag in [["--tabulator", "hashed"], ["--evaluator", "interpreted"]] {
            let output = mmaes(&[
                verb,
                "kronecker:proposed-eq9",
                "--traces",
                "6400",
                flag[0],
                flag[1],
            ]);
            assert_eq!(output.status.code(), Some(2), "{verb} {}", flag[0]);
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(stderr.contains("unknown flag"), "{verb}: {stderr}");
        }
    }
}
