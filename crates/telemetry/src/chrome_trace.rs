//! Chrome-trace export (`chrome://tracing` / Perfetto JSON) for
//! [`PerfSnapshot`]s.
//!
//! A [`crate::PerfRecorder`] keeps *aggregates* — per-phase counts,
//! totals, and log₂ histograms — not individual span timestamps, so a
//! campaign sharded across worker threads stays cheap to instrument.
//! This module renders those aggregates into the Trace Event Format
//! that `chrome://tracing`, Perfetto, and `speedscope` all read, so a
//! sharded campaign's phase breakdown becomes visually inspectable.
//!
//! Because only aggregates exist, the exporter *synthesizes* a
//! deterministic timeline: within the run's scope (one trace "thread"),
//! phases are laid end to end in name order, each as one complete
//! (`"ph":"X"`) event whose duration is the phase's total time and
//! whose `args` carry the real statistics (count, min/max/mean).
//! Counters become `"ph":"C"` counter samples at the scope origin.
//! Nothing reads a wall clock, so the same snapshot always renders to
//! the same bytes — trace exports are diffable and reproducible.

use crate::json::{array, JsonObject};
use crate::perf::PerfSnapshot;

/// Renders one snapshot as a complete trace document with a single
/// trace thread named `scope` (`mmaes evaluate --perf --trace FILE`).
/// Phases (already sorted by name) are laid end to end; counters sample
/// at the scope origin.
pub fn chrome_trace(scope: &str, snapshot: &PerfSnapshot) -> String {
    const TID: u64 = 1;
    let mut events = vec![
        JsonObject::new()
            .string("name", "process_name")
            .string("ph", "M")
            .unsigned("pid", 1)
            .raw("args", &JsonObject::new().string("name", "mmaes").finish())
            .finish(),
        JsonObject::new()
            .string("name", "thread_name")
            .string("ph", "M")
            .unsigned("pid", 1)
            .unsigned("tid", TID)
            .raw("args", &JsonObject::new().string("name", scope).finish())
            .finish(),
    ];
    let mut offset_us = 0.0f64;
    for phase in &snapshot.phases {
        let duration_us = phase.total_ns as f64 / 1e3;
        events.push(
            JsonObject::new()
                .string("name", &phase.name)
                .string("cat", scope)
                .string("ph", "X")
                .unsigned("pid", 1)
                .unsigned("tid", TID)
                .float("ts", offset_us)
                .float("dur", duration_us)
                .raw(
                    "args",
                    &JsonObject::new()
                        .unsigned("count", phase.count)
                        .unsigned("total_ns", phase.total_ns)
                        .unsigned("min_ns", phase.min_ns)
                        .unsigned("max_ns", phase.max_ns)
                        .float("mean_us", phase.mean_ns() / 1e3)
                        .finish(),
                )
                .finish(),
        );
        offset_us += duration_us;
    }
    for (name, value) in &snapshot.counters {
        events.push(
            JsonObject::new()
                .string("name", name)
                .string("ph", "C")
                .unsigned("pid", 1)
                .unsigned("tid", TID)
                .float("ts", 0.0)
                .raw("args", &JsonObject::new().unsigned(name, *value).finish())
                .finish(),
        );
    }
    JsonObject::new()
        .raw("traceEvents", &array(events))
        .string("displayTimeUnit", "ms")
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};
    use crate::perf::{PerfRecorder, PhaseStats};
    use std::time::Duration;

    fn sample_snapshot() -> PerfSnapshot {
        let recorder = PerfRecorder::enabled();
        recorder.record_duration("simulate", Duration::from_micros(800));
        recorder.record_duration("simulate", Duration::from_micros(200));
        recorder.record_duration("tabulate", Duration::from_micros(50));
        recorder.add("traces", 128);
        recorder.snapshot().expect("enabled")
    }

    #[test]
    fn trace_parses_and_carries_every_phase_and_counter() {
        let trace = chrome_trace("campaign", &sample_snapshot());
        let parsed = parse(&trace).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        let names: Vec<&str> = events
            .iter()
            .filter_map(|event| event.get("name").and_then(JsonValue::as_str))
            .collect();
        assert!(names.contains(&"simulate"), "{names:?}");
        assert!(names.contains(&"tabulate"), "{names:?}");
        assert!(names.contains(&"traces"), "{names:?}");
        assert!(names.contains(&"thread_name"), "{names:?}");
    }

    #[test]
    fn phases_are_laid_end_to_end_in_name_order() {
        let trace = chrome_trace("campaign", &sample_snapshot());
        let parsed = parse(&trace).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(JsonValue::as_array);
        let complete: Vec<&JsonValue> = events
            .expect("array")
            .iter()
            .filter(|event| event.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        let first_ts = complete[0].get("ts").and_then(JsonValue::as_f64).unwrap();
        let first_dur = complete[0].get("dur").and_then(JsonValue::as_f64).unwrap();
        let second_ts = complete[1].get("ts").and_then(JsonValue::as_f64).unwrap();
        assert_eq!(first_ts, 0.0);
        assert!((second_ts - first_dur).abs() < 1e-6);
        // The synthetic durations reflect the recorded totals: 1000 µs
        // of `simulate`, 50 µs of `tabulate`.
        assert!((first_dur - 1000.0).abs() < 1e-6, "{first_dur}");
    }

    #[test]
    fn export_matches_the_golden_document() {
        let phase = |name: &str, count, total_ns, min_ns, max_ns| PhaseStats {
            name: name.to_owned(),
            count,
            total_ns,
            min_ns,
            max_ns,
            buckets: [0; crate::perf::BUCKET_COUNT],
        };
        let snapshot = PerfSnapshot {
            phases: vec![
                phase("g_test", 3, 1_000_500, 200_000, 500_500),
                phase("simulate", 1, 2_500, 2_500, 2_500),
            ],
            counters: vec![("traces".to_owned(), 12_800)],
        };
        let golden = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"process_name","ph":"M","pid":1,"args":{"name":"mmaes"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"campaign"}},"#,
            r#"{"name":"g_test","cat":"campaign","ph":"X","pid":1,"tid":1,"ts":0,"dur":1000.5000,"#,
            r#""args":{"count":3,"total_ns":1000500,"min_ns":200000,"max_ns":500500,"mean_us":333.5000}},"#,
            r#"{"name":"simulate","cat":"campaign","ph":"X","pid":1,"tid":1,"ts":1000.5000,"dur":2.5000,"#,
            r#""args":{"count":1,"total_ns":2500,"min_ns":2500,"max_ns":2500,"mean_us":2.5000}},"#,
            r#"{"name":"traces","ph":"C","pid":1,"tid":1,"ts":0,"args":{"traces":12800}}],"#,
            r#""displayTimeUnit":"ms"}"#,
        );
        assert_eq!(chrome_trace("campaign", &snapshot), golden);
    }

    #[test]
    fn export_is_deterministic_for_equal_snapshots() {
        let snapshot = sample_snapshot();
        assert_eq!(
            chrome_trace("campaign", &snapshot),
            chrome_trace("campaign", &snapshot)
        );
    }

    #[test]
    fn empty_snapshot_still_renders_a_valid_document() {
        let trace = chrome_trace("empty", &PerfSnapshot::default());
        let parsed = parse(&trace).expect("valid JSON");
        assert!(parsed.get("traceEvents").is_some());
    }
}
