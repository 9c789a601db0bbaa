//! Event sinks: where the instrumented stack's events go.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::event::Event;

/// Receives telemetry events.
///
/// Sinks must tolerate any event ordering — instrumented code may emit
/// progress without a preceding "started" event (e.g. a bare simulator
/// loop), and multiple campaigns may run back to back on one sink.
pub trait Sink: Send {
    /// Handles one event.
    fn on_event(&mut self, event: &Event);

    /// Flushes any buffered output (end of run).
    fn flush(&mut self) {}
}

/// Writes one JSON object per line — a replayable run record
/// (`--metrics FILE.jsonl`).
///
/// Resilient: a failed line write is retried with bounded backoff;
/// once the budget is exhausted the sink degrades to an in-memory
/// buffer (bounded, newest lines kept) and records itself in the
/// [`crate::degraded`] registry instead of silently dropping records.
/// [`Sink::flush`] makes one last attempt to land the buffered tail.
#[derive(Debug)]
pub struct JsonlSink {
    writer: BufWriter<File>,
    /// In-memory fallback once writes stop succeeding.
    buffered: Vec<String>,
    degraded: bool,
}

/// Cap on lines the degraded in-memory buffer retains (oldest dropped
/// first): enough for the tail of a long campaign — the part an
/// analyst actually wants after an outage — without unbounded growth.
const DEGRADED_BUFFER_LINES: usize = 4096;

impl JsonlSink {
    /// Creates (truncating) the record file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
            buffered: Vec::new(),
            degraded: false,
        })
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        crate::failpoint::inject_io("metrics.write", None)?;
        writeln!(self.writer, "{line}")
    }

    fn buffer(&mut self, line: String) {
        if self.buffered.len() >= DEGRADED_BUFFER_LINES {
            self.buffered.remove(0);
        }
        self.buffered.push(line);
    }
}

impl Sink for JsonlSink {
    fn on_event(&mut self, event: &Event) {
        let line = event.to_json_line();
        if self.degraded {
            self.buffer(line);
            return;
        }
        if let Err(error) = crate::degraded::retry(|| self.write_line(&line)) {
            self.degraded = true;
            crate::degraded::mark("metrics", &format!("event record: {error}"));
            self.buffer(line);
        }
    }

    fn flush(&mut self) {
        if self.degraded && !self.buffered.is_empty() {
            // Best effort: if the disk recovered, the buffered tail
            // still lands in order before the final flush.
            let pending = std::mem::take(&mut self.buffered);
            for line in pending {
                if writeln!(self.writer, "{line}").is_err() {
                    break;
                }
            }
        }
        let _ = self.writer.flush();
    }
}

/// Live progress on stderr: traces/s, ETA, running max `-log10(p)`.
///
/// Checkpoint lines are throttled (default 200 ms) so a fast campaign
/// doesn't flood the terminal; lifecycle events always print.
#[derive(Debug)]
pub struct HumanProgressSink {
    last_line: Option<Instant>,
    min_interval: Duration,
}

impl HumanProgressSink {
    /// A sink with the default 200 ms throttle.
    pub fn new() -> Self {
        HumanProgressSink {
            last_line: None,
            min_interval: Duration::from_millis(200),
        }
    }

    fn throttled(&mut self) -> bool {
        let now = Instant::now();
        if let Some(last) = self.last_line {
            if now.duration_since(last) < self.min_interval {
                return true;
            }
        }
        self.last_line = Some(now);
        false
    }
}

impl Default for HumanProgressSink {
    fn default() -> Self {
        HumanProgressSink::new()
    }
}

impl Sink for HumanProgressSink {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::CampaignStarted {
                design,
                model,
                order,
                probe_sets,
                traces_target,
            } => eprintln!(
                "[campaign] {design}: {probe_sets} probing sets, \
                 order-{order} {model} model, {traces_target} traces"
            ),
            Event::CampaignCheckpoint(checkpoint) => {
                if self.throttled() {
                    return;
                }
                let record = &checkpoint.record;
                let eta = record.eta_seconds();
                let eta = if eta.is_finite() {
                    format!("{eta:.0}s")
                } else {
                    "?".to_owned()
                };
                eprintln!(
                    "[{:>3.0}%] {} traces  {:>8.0} traces/s  eta {}  \
                     max -log10(p) {:.2} ({})",
                    100.0 * record.traces as f64 / record.traces_target.max(1) as f64,
                    record.traces,
                    record.traces_per_sec(),
                    eta,
                    record.max_minus_log10_p,
                    record.worst_label,
                );
            }
            Event::ProbeFlagged {
                label,
                minus_log10_p,
                traces,
            } => eprintln!(
                "[flag] {label} crossed the threshold at {traces} traces \
                 (-log10(p) = {minus_log10_p:.2})"
            ),
            Event::CampaignFinished(record) => {
                let verdict = if record.interrupted {
                    "interrupted, partial statistics"
                } else if record.passed {
                    "no leakage detected"
                } else {
                    "LEAKAGE"
                };
                let stop = if record.early_stopped {
                    ", early stop"
                } else {
                    ""
                };
                eprintln!(
                    "[done] {}: {verdict} — {} leaking sets, \
                     max -log10(p) {:.2}, {} traces in {:.1}s{stop}",
                    record.design,
                    record.leaking,
                    record.max_minus_log10_p,
                    record.traces,
                    record.wall_ms as f64 / 1000.0,
                );
            }
            Event::SimProgress { .. } => {}
            Event::EnumerationStarted { design, probe_sets } => {
                eprintln!("[exact] {design}: enumerating {probe_sets} probing sets");
            }
            Event::EnumerationProgress {
                done,
                total,
                elapsed_ms,
            } => {
                if self.throttled() {
                    return;
                }
                eprintln!(
                    "[exact] {done}/{total} sets verified ({:.1}s)",
                    *elapsed_ms as f64 / 1000.0
                );
            }
            Event::CounterexampleFound { label, elapsed_ms } => eprintln!(
                "[exact] counterexample for {label} after {:.2}s",
                *elapsed_ms as f64 / 1000.0
            ),
            Event::EnumerationFinished {
                design,
                secure,
                leaky,
                too_wide,
                wall_ms,
            } => eprintln!(
                "[exact] {design}: {secure} secure, {leaky} leaky, \
                 {too_wide} too wide in {:.1}s",
                *wall_ms as f64 / 1000.0
            ),
            Event::PerfSnapshot { scope, snapshot } => {
                let phases: Vec<String> = snapshot
                    .phases
                    .iter()
                    .map(|phase| format!("{} {:.0}ms", phase.name, phase.total_ms()))
                    .collect();
                eprintln!("[perf] {scope}: {}", phases.join(", "));
            }
            Event::Finding {
                label,
                minus_log10_p,
                hint,
                ..
            } => eprintln!("[finding] {label} (-log10(p) = {minus_log10_p:.2}): {hint}"),
            // Checkpoint health rides along silently (the checkpoint
            // line above already prints); the final summary gets one
            // digest line so undersampled tests are never invisible.
            Event::Health(_) => {}
            Event::HealthSummary(health) => {
                eprintln!(
                    "[health] {}/{} sets testable, {} undersampled, \
                     {} leaking; {} fresh bits/trace",
                    health.testable_sets,
                    health.probe_sets,
                    health.undersampled_sets,
                    health.leaking_sets,
                    health.fresh_bits_per_trace,
                );
                for entry in &health.degraded {
                    eprintln!(
                        "[degraded] {}: {} ({} incident{})",
                        entry.subsystem,
                        entry.detail,
                        entry.incidents,
                        if entry.incidents == 1 { "" } else { "s" },
                    );
                }
            }
            Event::RunSummary(_) => {}
        }
    }
}

/// Collects events in memory — the test sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A handle to the collected events; stays valid after the sink is
    /// moved into an observer.
    pub fn events(&self) -> Arc<Mutex<Vec<Event>>> {
        Arc::clone(&self.events)
    }
}

impl Sink for MemorySink {
    fn on_event(&mut self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_handle_survives_the_move() {
        let sink = MemorySink::new();
        let handle = sink.events();
        let mut boxed: Box<dyn Sink> = Box::new(sink);
        boxed.on_event(&Event::CounterexampleFound {
            label: "v1".into(),
            elapsed_ms: 3,
        });
        assert_eq!(handle.lock().unwrap().len(), 1);
    }

    #[test]
    fn jsonl_sink_buffers_in_memory_once_degraded() {
        let _guard = crate::failpoint::scoped("metrics.write=ioerr x*");
        let path = std::env::temp_dir().join(format!(
            "mmaes-telemetry-jsonl-degraded-test-{}.jsonl",
            std::process::id()
        ));
        let mut sink = JsonlSink::create(&path).unwrap();
        for index in 0..3 {
            sink.on_event(&Event::CounterexampleFound {
                label: format!("v{index}"),
                elapsed_ms: index,
            });
        }
        assert!(sink.degraded);
        assert_eq!(sink.buffered.len(), 3, "records held in memory");
        let entries = crate::degraded::snapshot();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].subsystem, "metrics");
        // Flush drains the buffer once real writes work again (the
        // injected fault only guards on_event's path).
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 3, "buffered tail landed in order");
        assert!(text.lines().next().unwrap().contains("\"v0\""));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let _guard = crate::failpoint::scoped("");
        let path = std::env::temp_dir().join("mmaes-telemetry-jsonl-test.jsonl");
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.on_event(&Event::EnumerationStarted {
                design: "demo".into(),
                probe_sets: 2,
            });
            sink.on_event(&Event::CounterexampleFound {
                label: "v1".into(),
                elapsed_ms: 1,
            });
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"enumeration_started\""));
        assert!(lines[1].contains("\"type\":\"counterexample_found\""));
    }
}
