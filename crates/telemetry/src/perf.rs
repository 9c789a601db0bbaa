//! Performance observability: scoped timers, perf counters, and
//! fixed-bucket duration histograms.
//!
//! Simulation-based leakage verification is throughput-bound: gate-level
//! simulation cost dominates masked-hardware evaluation, so before any
//! sharding or batching work we need to know *where* the time goes. The
//! [`PerfRecorder`] answers that with per-phase wall-time accounting
//! cheap enough to leave compiled into the hot paths:
//!
//! * a **disabled** recorder (the default) makes [`PerfRecorder::span`]
//!   a single `Option` check — no clock read, no allocation, no lock —
//!   so uninstrumented runs pay nothing measurable;
//! * an **enabled** recorder accumulates, per phase name, the call
//!   count, total/min/max duration, and a 16-bucket log₂ histogram of
//!   microsecond durations (bucket `i ≥ 1` holds durations in
//!   `[2^(i-1), 2^i)` µs; bucket 0 is sub-microsecond; the last bucket
//!   is open-ended).
//!
//! Spans nest freely — each phase accumulates independently, so an
//! outer `campaign` span can contain thousands of inner `simulate`
//! spans. Named monotonic counters ([`PerfRecorder::add`]) ride along
//! for throughput numerators (traces, cell evaluations).
//!
//! [`PerfRecorder::snapshot`] freezes everything into a
//! [`PerfSnapshot`], which serializes into the `perf_snapshot` event
//! (see `DESIGN.md § Observability`) and renders as a Chrome trace
//! ([`crate::chrome_trace()`]).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::json::{array, JsonObject};

/// Number of histogram buckets per phase.
pub const BUCKET_COUNT: usize = 16;

/// The histogram bucket for a duration: 0 for sub-microsecond, else
/// `1 + floor(log2(µs))`, clamped to the open-ended last bucket.
pub fn bucket_index(duration: Duration) -> usize {
    let micros = duration.as_micros();
    if micros == 0 {
        0
    } else {
        let log2 = 128 - 1 - micros.leading_zeros() as usize;
        (log2 + 1).min(BUCKET_COUNT - 1)
    }
}

/// The inclusive lower bound of a bucket, in microseconds.
pub fn bucket_lower_bound_us(bucket: usize) -> u128 {
    if bucket == 0 {
        0
    } else {
        1u128 << (bucket - 1)
    }
}

/// Accumulated timing for one phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStats {
    /// The phase name (the string passed to [`PerfRecorder::span`]).
    pub name: String,
    /// Completed spans.
    pub count: u64,
    /// Total time in the phase, nanoseconds.
    pub total_ns: u64,
    /// Shortest span, nanoseconds.
    pub min_ns: u64,
    /// Longest span, nanoseconds.
    pub max_ns: u64,
    /// Log₂ histogram of span durations (see [`bucket_index`]).
    pub buckets: [u64; BUCKET_COUNT],
}

impl PhaseStats {
    /// Total time in the phase, fractional milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Mean span duration in nanoseconds (0 when no spans completed).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Renders the phase as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("name", &self.name)
            .unsigned("count", self.count)
            .unsigned("total_ns", self.total_ns)
            .unsigned("min_ns", self.min_ns)
            .unsigned("max_ns", self.max_ns)
            .raw(
                "buckets",
                &array(self.buckets.iter().map(|count| count.to_string())),
            )
            .finish()
    }
}

/// A frozen view of a [`PerfRecorder`]: every phase plus every counter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfSnapshot {
    /// Per-phase timing, sorted by phase name.
    pub phases: Vec<PhaseStats>,
    /// Named monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl PerfSnapshot {
    /// Looks up a phase by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseStats> {
        self.phases.iter().find(|phase| phase.name == name)
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(counter, _)| counter == name)
            .map(|&(_, value)| value)
    }

    /// Total recorded time across all phases, fractional milliseconds.
    /// Phases overlap when spans nest, so this can exceed wall time.
    pub fn total_ms(&self) -> f64 {
        self.phases.iter().map(PhaseStats::total_ms).sum()
    }

    /// Renders the snapshot's payload fields into an object under way.
    pub(crate) fn fill_json(&self, object: JsonObject) -> JsonObject {
        let mut counters = JsonObject::new();
        for (name, value) in &self.counters {
            counters = counters.unsigned(name, *value);
        }
        object
            .raw(
                "phases",
                &array(self.phases.iter().map(PhaseStats::to_json)),
            )
            .raw("counters", &counters.finish())
    }
}

#[derive(Debug, Default)]
struct PhaseAccum {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    buckets: [u64; BUCKET_COUNT],
}

impl PhaseAccum {
    fn record(&mut self, duration: Duration) {
        let nanos = duration.as_nanos().min(u64::MAX as u128) as u64;
        if self.count == 0 || nanos < self.min_ns {
            self.min_ns = nanos;
        }
        if nanos > self.max_ns {
            self.max_ns = nanos;
        }
        self.count += 1;
        self.total_ns += nanos;
        self.buckets[bucket_index(duration)] += 1;
    }
}

#[derive(Debug, Default)]
struct PerfInner {
    phases: Mutex<BTreeMap<&'static str, PhaseAccum>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

/// A cloneable handle for per-phase wall-time accounting.
///
/// Clones share storage, so a recorder handed to a campaign and kept by
/// the CLI both see the same data. The disabled recorder (the
/// [`Default`]) records nothing and never reads the clock.
#[derive(Debug, Clone, Default)]
pub struct PerfRecorder {
    inner: Option<Arc<PerfInner>>,
}

impl PerfRecorder {
    /// The disabled recorder: spans are no-ops, snapshots are `None`.
    pub fn disabled() -> Self {
        PerfRecorder { inner: None }
    }

    /// An enabled recorder with empty storage.
    pub fn enabled() -> Self {
        PerfRecorder {
            inner: Some(Arc::new(PerfInner::default())),
        }
    }

    /// Whether spans and counters are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a scoped timer for `phase`; the span records its duration
    /// when dropped. On a disabled recorder this is a single `None`
    /// check — no clock read.
    ///
    /// Phase names are `&'static str` by design: the hot paths pass
    /// literals, so recording never allocates.
    pub fn span(&self, phase: &'static str) -> Span {
        Span {
            active: self
                .inner
                .as_ref()
                .map(|inner| (Arc::clone(inner), phase, Instant::now())),
        }
    }

    /// Records an already-measured duration for `phase`: the tests' way
    /// to build a recorder with known totals.
    #[cfg(test)]
    pub(crate) fn record_duration(&self, phase: &'static str, duration: Duration) {
        if let Some(inner) = &self.inner {
            inner
                .phases
                .lock()
                .unwrap()
                .entry(phase)
                .or_default()
                .record(duration);
        }
    }

    /// Adds `amount` to the named monotonic counter.
    pub fn add(&self, counter: &'static str, amount: u64) {
        if let Some(inner) = &self.inner {
            *inner.counters.lock().unwrap().entry(counter).or_insert(0) += amount;
        }
    }

    /// Merges another recorder's accumulated phases and counters into
    /// this one: counts, totals and histogram buckets add; min/max
    /// combine. Used by parallel campaigns to fold each worker thread's
    /// private recorder into the coordinator's — per-phase totals then
    /// sum *CPU* time across threads, so they can exceed wall time.
    ///
    /// A disabled recorder on either side makes this a no-op.
    pub fn absorb(&self, other: &PerfRecorder) {
        let (Some(inner), Some(other_inner)) = (&self.inner, &other.inner) else {
            return;
        };
        let mut phases = inner.phases.lock().unwrap();
        for (&name, accum) in other_inner.phases.lock().unwrap().iter() {
            let merged = phases.entry(name).or_default();
            if merged.count == 0 || (accum.count > 0 && accum.min_ns < merged.min_ns) {
                merged.min_ns = accum.min_ns;
            }
            if accum.max_ns > merged.max_ns {
                merged.max_ns = accum.max_ns;
            }
            merged.count += accum.count;
            merged.total_ns += accum.total_ns;
            for (bucket, count) in merged.buckets.iter_mut().zip(accum.buckets) {
                *bucket += count;
            }
        }
        drop(phases);
        let mut counters = inner.counters.lock().unwrap();
        for (&name, &value) in other_inner.counters.lock().unwrap().iter() {
            *counters.entry(name).or_insert(0) += value;
        }
    }

    /// Freezes the current state, or `None` on a disabled recorder.
    pub fn snapshot(&self) -> Option<PerfSnapshot> {
        let inner = self.inner.as_ref()?;
        let phases = inner
            .phases
            .lock()
            .unwrap()
            .iter()
            .map(|(&name, accum)| PhaseStats {
                name: name.to_owned(),
                count: accum.count,
                total_ns: accum.total_ns,
                min_ns: accum.min_ns,
                max_ns: accum.max_ns,
                buckets: accum.buckets,
            })
            .collect();
        let counters = inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(&name, &value)| (name.to_owned(), value))
            .collect();
        Some(PerfSnapshot { phases, counters })
    }

    /// A human-readable per-phase breakdown (for `--perf` stderr
    /// output), or an empty string on a disabled recorder.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let Some(snapshot) = self.snapshot() else {
            return String::new();
        };
        let mut table = String::new();
        let _ = writeln!(
            table,
            "{:<24} {:>10} {:>12} {:>12} {:>12}",
            "phase", "count", "total ms", "mean µs", "max µs"
        );
        for phase in &snapshot.phases {
            let _ = writeln!(
                table,
                "{:<24} {:>10} {:>12.2} {:>12.2} {:>12.2}",
                phase.name,
                phase.count,
                phase.total_ms(),
                phase.mean_ns() / 1e3,
                phase.max_ns as f64 / 1e3,
            );
        }
        for (name, value) in &snapshot.counters {
            let _ = writeln!(table, "{name:<24} {value:>10}");
        }
        table
    }
}

/// A scoped timer returned by [`PerfRecorder::span`]; records its
/// duration into the recorder when dropped.
#[derive(Debug)]
#[must_use = "a span records on drop — binding it to `_` drops it immediately"]
pub struct Span {
    active: Option<(Arc<PerfInner>, &'static str, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((inner, phase, started)) = self.active.take() {
            let elapsed = started.elapsed();
            inner
                .phases
                .lock()
                .unwrap()
                .entry(phase)
                .or_default()
                .record(elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let recorder = PerfRecorder::disabled();
        assert!(!recorder.is_enabled());
        {
            let _span = recorder.span("anything");
        }
        recorder.add("traces", 100);
        assert!(recorder.snapshot().is_none());
        assert!(recorder.render_table().is_empty());
    }

    #[test]
    fn spans_accumulate_count_and_total() {
        let recorder = PerfRecorder::enabled();
        for _ in 0..3 {
            let _span = recorder.span("simulate");
        }
        recorder.record_duration("simulate", Duration::from_micros(500));
        let snapshot = recorder.snapshot().expect("enabled");
        let phase = snapshot.phase("simulate").expect("recorded");
        assert_eq!(phase.count, 4);
        assert!(phase.total_ns >= 500_000);
        assert!(phase.min_ns <= phase.max_ns);
        assert_eq!(phase.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn nested_spans_record_into_their_own_phases() {
        let recorder = PerfRecorder::enabled();
        {
            let _outer = recorder.span("outer");
            for _ in 0..2 {
                let _inner = recorder.span("inner");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let snapshot = recorder.snapshot().expect("enabled");
        let outer = snapshot.phase("outer").expect("outer recorded");
        let inner = snapshot.phase("inner").expect("inner recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        // The outer span contains both inner spans, so its total covers
        // at least the inner total.
        assert!(
            outer.total_ns >= inner.total_ns,
            "outer {} < inner {}",
            outer.total_ns,
            inner.total_ns
        );
    }

    #[test]
    fn clones_share_storage() {
        let recorder = PerfRecorder::enabled();
        let clone = recorder.clone();
        {
            let _span = clone.span("shared");
        }
        clone.add("traces", 64);
        let snapshot = recorder.snapshot().expect("enabled");
        assert_eq!(snapshot.phase("shared").expect("shared").count, 1);
        assert_eq!(snapshot.counter("traces"), Some(64));
    }

    #[test]
    fn absorb_merges_phases_and_counters_across_recorders() {
        let main = PerfRecorder::enabled();
        main.record_duration("simulate", Duration::from_micros(10));
        main.add("traces", 64);
        let worker = PerfRecorder::enabled();
        worker.record_duration("simulate", Duration::from_micros(2));
        worker.record_duration("tabulate", Duration::from_micros(5));
        worker.add("traces", 128);
        main.absorb(&worker);
        let snapshot = main.snapshot().expect("enabled");
        let simulate = snapshot.phase("simulate").expect("merged");
        assert_eq!(simulate.count, 2);
        assert_eq!(simulate.min_ns, 2_000);
        assert_eq!(simulate.max_ns, 10_000);
        assert_eq!(simulate.total_ns, 12_000);
        assert_eq!(simulate.buckets.iter().sum::<u64>(), 2);
        assert_eq!(snapshot.phase("tabulate").expect("new phase").count, 1);
        assert_eq!(snapshot.counter("traces"), Some(192));
        // Disabled on either side: a no-op, not a panic.
        PerfRecorder::disabled().absorb(&main);
        main.absorb(&PerfRecorder::disabled());
        assert_eq!(
            main.snapshot().expect("still enabled").counter("traces"),
            Some(192)
        );
    }

    #[test]
    fn histogram_bucketing_is_log2_in_microseconds() {
        assert_eq!(bucket_index(Duration::from_nanos(300)), 0);
        assert_eq!(bucket_index(Duration::from_micros(1)), 1);
        assert_eq!(bucket_index(Duration::from_micros(2)), 2);
        assert_eq!(bucket_index(Duration::from_micros(3)), 2);
        assert_eq!(bucket_index(Duration::from_micros(4)), 3);
        assert_eq!(bucket_index(Duration::from_micros(1000)), 10);
        // Way past the last bucket boundary: clamped, not dropped.
        assert_eq!(bucket_index(Duration::from_secs(60)), BUCKET_COUNT - 1);
        // Bounds are consistent with the index function.
        for bucket in 1..BUCKET_COUNT - 1 {
            let lower = bucket_lower_bound_us(bucket);
            assert_eq!(bucket_index(Duration::from_micros(lower as u64)), bucket);
            assert_eq!(
                bucket_index(Duration::from_micros((2 * lower - 1) as u64)),
                bucket
            );
        }
    }

    #[test]
    fn bucket_counts_land_where_the_index_says() {
        let recorder = PerfRecorder::enabled();
        recorder.record_duration("phase", Duration::from_nanos(100));
        recorder.record_duration("phase", Duration::from_micros(1));
        recorder.record_duration("phase", Duration::from_micros(9));
        let snapshot = recorder.snapshot().expect("enabled");
        let phase = snapshot.phase("phase").expect("phase");
        assert_eq!(phase.buckets[0], 1);
        assert_eq!(phase.buckets[1], 1);
        assert_eq!(phase.buckets[bucket_index(Duration::from_micros(9))], 1);
        assert_eq!(phase.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn counters_are_monotonic_and_sorted() {
        let recorder = PerfRecorder::enabled();
        recorder.add("traces", 10);
        recorder.add("cell_evals", 1000);
        recorder.add("traces", 5);
        let snapshot = recorder.snapshot().expect("enabled");
        assert_eq!(snapshot.counter("traces"), Some(15));
        assert_eq!(snapshot.counter("cell_evals"), Some(1000));
        let names: Vec<&str> = snapshot
            .counters
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let recorder = PerfRecorder::enabled();
        recorder.record_duration("g_test", Duration::from_micros(42));
        recorder.add("traces", 7);
        let snapshot = recorder.snapshot().expect("enabled");
        let json = snapshot.fill_json(JsonObject::new()).finish();
        assert!(json.contains("\"phases\":[{\"name\":\"g_test\""), "{json}");
        assert!(json.contains("\"counters\":{\"traces\":7}"), "{json}");
        assert!(json.contains("\"buckets\":["), "{json}");
    }
}
