//! End-to-end checks of `mmaes bench`: the quick matrix emits a
//! schema-valid `BENCH_*.json`, the same document ends stdout, `--perf`
//! snapshots reach the metrics stream, and `--baseline` turns an
//! injected slowdown into a non-zero exit.

use std::process::Command;

use mmaes_telemetry::json::{parse, JsonValue};

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mmaes-bench-test-{}-{name}", std::process::id()))
}

fn run_quick_bench(out: &std::path::Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mmaes"))
        .args(["bench", "--quick", "--label", "citest", "--quiet", "--out"])
        .arg(out)
        .args(extra)
        .output()
        .expect("mmaes runs")
}

#[test]
fn bench_quick_emits_a_schema_valid_record_and_matching_stdout() {
    let out_path = temp_path("bench.json");
    let output = run_quick_bench(&out_path, &[]);
    assert_eq!(output.status.code(), Some(0), "{output:?}");

    let record = std::fs::read_to_string(&out_path).expect("record written");
    let _ = std::fs::remove_file(&out_path);
    let document = parse(record.trim()).expect("valid JSON");

    // Schema: versioned envelope…
    assert_eq!(
        document.get("type").and_then(JsonValue::as_str),
        Some("bench")
    );
    assert_eq!(
        document.get("schema_version").and_then(JsonValue::as_u64),
        Some(mmaes_bench::bench::BENCH_SCHEMA_VERSION)
    );
    assert_eq!(
        document.get("label").and_then(JsonValue::as_str),
        Some("citest")
    );

    // …over the full 3-schedule × 3-workload matrix, every entry
    // carrying the throughput fields and a per-phase breakdown.
    let workloads = document
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads array");
    assert_eq!(workloads.len(), 9, "{record}");
    let mut schedules = std::collections::BTreeSet::new();
    let mut kinds = std::collections::BTreeSet::new();
    for entry in workloads {
        schedules.insert(entry.get("schedule").and_then(JsonValue::as_str).unwrap());
        kinds.insert(entry.get("workload").and_then(JsonValue::as_str).unwrap());
        for removed in ["evaluator", "tabulator"] {
            assert!(entry.get(removed).is_none(), "{removed}: {record}");
        }
        for key in ["wall_ms", "traces", "cell_evals", "table_bytes", "threads"] {
            assert!(
                entry.get(key).and_then(JsonValue::as_u64).is_some(),
                "missing {key}: {record}"
            );
        }
        for key in ["traces_per_sec", "cell_evals_per_sec", "keys_per_sec"] {
            assert!(
                entry.get(key).and_then(JsonValue::as_f64).is_some(),
                "missing {key}: {record}"
            );
        }
        let phases = entry
            .get("phases")
            .and_then(JsonValue::as_array)
            .expect("phases");
        assert!(!phases.is_empty(), "{record}");
        for phase in phases {
            assert!(phase.get("name").and_then(JsonValue::as_str).is_some());
            let buckets = phase
                .get("buckets")
                .and_then(JsonValue::as_array)
                .expect("buckets");
            assert_eq!(buckets.len(), 16);
        }
    }
    assert!(schedules.contains("de-meyer-eq6"), "{schedules:?}");
    assert!(schedules.contains("proposed-eq9"), "{schedules:?}");
    assert!(
        schedules.contains("de-meyer-13-order2-reconstruction"),
        "{schedules:?}"
    );
    assert_eq!(
        kinds,
        ["campaign", "exact", "simulate"].into_iter().collect(),
        "no interpreted or hashed legs in v5"
    );

    // The envelope carries the threads and statistic knobs, and (v5)
    // neither the tabulator knob nor the oracle speedup maps.
    assert_eq!(document.get("threads").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(
        document.get("statistic").and_then(JsonValue::as_str),
        Some("gtest")
    );
    for removed in ["tabulator", "compiled_speedup", "tabulation_speedup"] {
        assert!(document.get(removed).is_none(), "{removed}: {record}");
    }

    // The last stdout line is the same document.
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    let last = stdout.trim().lines().last().expect("stdout ends with JSON");
    assert_eq!(last, record.trim(), "summary line differs from the record");
}

#[test]
fn bench_baseline_flags_an_injected_regression_with_nonzero_exit() {
    // A baseline claiming absurd throughput: every current measurement
    // is far more than 25% below it, so the run must fail.
    let out_path = temp_path("bench-reg.json");
    let baseline_path = temp_path("baseline.json");
    let baseline = format!(
        r#"{{"type":"bench","schema_version":{},"label":"synthetic","quick":true,"workloads":[
            {{"schedule":"de-meyer-eq6","workload":"simulate","traces_per_sec":1e15}},
            {{"schedule":"proposed-eq9","workload":"campaign","traces_per_sec":1e15}}
        ]}}"#,
        mmaes_bench::bench::BENCH_SCHEMA_VERSION
    );
    std::fs::write(&baseline_path, baseline).expect("baseline written");

    let output = run_quick_bench(&out_path, &["--baseline", baseline_path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&out_path);
    let _ = std::fs::remove_file(&baseline_path);
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("REGRESSION"), "{stderr}");
    assert!(stderr.contains("de-meyer-eq6/simulate"), "{stderr}");
}

#[test]
fn bench_rejects_a_baseline_from_another_schema_version() {
    let out_path = temp_path("bench-ver.json");
    let baseline_path = temp_path("baseline-ver.json");
    std::fs::write(
        &baseline_path,
        r#"{"type":"bench","schema_version":999,"workloads":[]}"#,
    )
    .expect("baseline written");
    let output = run_quick_bench(&out_path, &["--baseline", baseline_path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&out_path);
    let _ = std::fs::remove_file(&baseline_path);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
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
