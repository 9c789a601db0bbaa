//! Live campaign status: a crash-safe `--status-file` rewritten at
//! every checkpoint through the one durable write under the one degrade
//! rule ([`crate::degraded`]), and the shared model behind the
//! `/status` exposition endpoint (documented in DESIGN.md § Campaign
//! health).
//!
//! The status document is split into two parts by determinism. Every
//! top-level field derives from the deterministic event stream
//! (contingency tables, trajectories, health verdicts) and is
//! byte-identical across `--threads`; everything wall-clock-dependent
//! — elapsed time, rates, ETA, thread count, `PerfRecorder`
//! utilization — lives under the single `runtime` key, so consumers
//! comparing runs drop one key instead of maintaining a field list.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::degraded::{reap_tmp, write_atomic, Degraded};
use crate::event::{Event, HealthCheckpoint, EVENT_SCHEMA_VERSION};
use crate::json::{array, number, JsonObject};
use crate::record::RunRecord;
use crate::sink::Sink;

/// Version of the `--status-file` document. Independent of the event
/// schema: the status file is a point-in-time projection, not a log.
pub const STATUS_SCHEMA_VERSION: u64 = 1;

/// Cap on tracked trajectory labels. Checkpoints carry the top sets
/// plus every leaking set, so a pathological campaign with thousands
/// of flagged sets must not grow the status document without bound.
const MAX_TRACKED_LABELS: usize = 128;

/// One probing set's presence in the latest checkpoint, with its
/// accumulated trajectory.
#[derive(Debug, Clone)]
struct TrackedProbe {
    minus_log10_p: f64,
    leaking: bool,
}

/// Accumulates the event stream into a renderable status document.
///
/// Sinks must tolerate any event ordering (see [`crate::Sink`]);
/// the model starts empty and fills in whatever the stream provides.
#[derive(Debug, Default)]
pub struct StatusModel {
    /// The latest run record: identity, progress, verdict and every
    /// wall-clock figure the document shows.
    record: RunRecord,
    /// The latest checkpoint's probe cut, in checkpoint order.
    top: Vec<(String, TrackedProbe)>,
    /// Accumulated `(traces, -log10(p))` trajectories per label.
    trajectories: BTreeMap<String, Vec<(u64, f64)>>,
    health: Option<HealthCheckpoint>,
    /// Worker threads of the producing run, rendered under `runtime`.
    threads: u64,
}

impl StatusModel {
    /// An empty model. `threads` is the worker-thread count of the
    /// producing run (0 when unknown); it only ever appears under the
    /// wall-clock `runtime` key, never in the deterministic body.
    pub fn new(threads: u64) -> Self {
        StatusModel {
            threads,
            ..StatusModel::default()
        }
    }

    /// Folds one event into the model. Returns `true` when the event
    /// marks a checkpoint or terminal state worth persisting — the
    /// file sink rewrites its document exactly then.
    pub fn absorb(&mut self, event: &Event) -> bool {
        match event {
            Event::CampaignStarted {
                design,
                model,
                order,
                probe_sets,
                traces_target,
            } => {
                self.record = RunRecord {
                    design: design.clone(),
                    model: model.clone(),
                    order: *order,
                    probe_sets: *probe_sets,
                    traces_target: *traces_target,
                    ..RunRecord::default()
                };
                true
            }
            Event::CampaignCheckpoint(checkpoint) => {
                self.record = checkpoint.record.clone();
                self.top = checkpoint
                    .probes
                    .iter()
                    .map(|probe| {
                        (
                            probe.label.clone(),
                            TrackedProbe {
                                minus_log10_p: probe.minus_log10_p,
                                leaking: probe.leaking,
                            },
                        )
                    })
                    .collect();
                for probe in &checkpoint.probes {
                    if self.trajectories.len() >= MAX_TRACKED_LABELS
                        && !self.trajectories.contains_key(&probe.label)
                    {
                        continue;
                    }
                    self.trajectories
                        .entry(probe.label.clone())
                        .or_default()
                        .push((checkpoint.record.traces, probe.minus_log10_p));
                }
                // The paired health event follows and triggers the
                // write; checkpoints alone persist too in case the
                // producer has health computation disabled.
                true
            }
            Event::Health(health) | Event::HealthSummary(health) => {
                self.health = Some(health.clone());
                true
            }
            Event::CampaignFinished(record) => {
                self.record = record.clone();
                true
            }
            _ => false,
        }
    }

    /// Renders the status document as one JSON object.
    pub fn render(&self) -> String {
        let top = array(self.top.iter().map(|(label, probe)| {
            let trajectory = self
                .trajectories
                .get(label)
                .map(|points| {
                    array(
                        points
                            .iter()
                            .map(|(traces, value)| format!("[{},{}]", traces, number(*value))),
                    )
                })
                .unwrap_or_else(|| "[]".to_owned());
            JsonObject::new()
                .string("label", label)
                .float("minus_log10_p", probe.minus_log10_p)
                .boolean("leaking", probe.leaking)
                .raw("trajectory", &trajectory)
                .finish()
        }));
        let record = &self.record;
        let mut runtime = JsonObject::new()
            .unsigned("threads", self.threads)
            .unsigned("elapsed_ms", record.wall_ms)
            .float("traces_per_sec", record.traces_per_sec())
            .float("eta_seconds", record.eta_seconds());
        if let Some(perf) = &record.perf {
            runtime = runtime.raw("utilization", &perf.fill_json(JsonObject::new()).finish());
        }
        let mut object = JsonObject::new()
            .string("type", "status")
            .unsigned("status_schema", STATUS_SCHEMA_VERSION)
            .unsigned("event_schema", EVENT_SCHEMA_VERSION)
            .string("design", &record.design)
            .string("model", &record.model)
            .unsigned("order", record.order as u64)
            .unsigned("probe_sets", record.probe_sets as u64)
            .unsigned("traces", record.traces)
            .unsigned("traces_target", record.traces_target)
            .boolean("finished", record.finished)
            .boolean("passed", record.passed)
            .boolean("early_stopped", record.early_stopped)
            .boolean("interrupted", record.interrupted)
            .unsigned("leaking", record.leaking as u64)
            .float("max_minus_log10_p", record.max_minus_log10_p)
            .string("worst_label", &record.worst_label)
            .raw("top", &top)
            // Fault containment (event schema v7): subsystems that
            // exhausted their write-retry budget and fell back to
            // in-memory operation. Rendered live from the process-wide
            // registry; `[]` on a clean run, so the deterministic body
            // stays byte-identical across `--threads`.
            .raw(
                "degraded",
                &crate::degraded::to_json(&crate::degraded::snapshot()),
            );
        if let Some(health) = &self.health {
            object = object.raw("health", &health.to_json());
        }
        object.raw("runtime", &runtime.finish()).finish()
    }
}

/// A sink that maintains a crash-safe live status file
/// (`--status-file status.json`), atomically rewritten at every
/// checkpoint and on campaign completion.
#[derive(Debug)]
pub struct StatusFileSink {
    model: StatusModel,
    path: PathBuf,
    /// Checkpoint rewrites under the degrade rule: once degraded, the
    /// model keeps accumulating in memory and only [`Sink::flush`]
    /// makes a last best-effort write.
    degraded: Degraded,
}

impl StatusFileSink {
    /// A sink writing to `path`. `threads` is the producing run's
    /// worker-thread count (0 when unknown), reported under the
    /// status document's `runtime` key. Reaps a stale sibling `.tmp`
    /// file left behind by a crash mid-rename in a previous run.
    pub fn create(path: impl Into<PathBuf>, threads: u64) -> Self {
        let path = path.into();
        reap_tmp(&path);
        StatusFileSink {
            model: StatusModel::new(threads),
            path,
            degraded: Degraded::new("status-file"),
        }
    }

    /// Writes the document under the degrade rule, or, once degraded
    /// (only [`Sink::flush`] gets here then), in one best-effort attempt:
    /// if the disk recovered, the final document still lands.
    fn persist(&mut self) {
        let document = self.model.render() + "\n";
        let path = &self.path;
        let write = || write_atomic("status.write", path, document.as_bytes());
        if !self.degraded {
            // Status is advisory; a full disk must not kill a
            // multi-hour campaign the way a final-snapshot failure
            // would.
            self.degraded
                .write(write, |(_, error)| format!("{}: {error}", path.display()));
        } else {
            let _ = write();
        }
    }
}

impl Sink for StatusFileSink {
    fn on_event(&mut self, event: &Event) {
        if self.model.absorb(event) && !self.degraded {
            self.persist();
        }
    }

    fn flush(&mut self) {
        self.persist();
    }
}

#[cfg(test)]
mod tests {
    use std::fs;

    use super::*;
    use crate::event::{Checkpoint, ProbeHealth, ProbePoint};

    fn checkpoint(traces: u64, value: f64) -> Event {
        Event::CampaignCheckpoint(Checkpoint {
            record: RunRecord {
                traces,
                traces_target: 1000,
                wall_ms: 17,
                max_minus_log10_p: value,
                worst_label: "g/v1".into(),
                ..RunRecord::default()
            },
            probes: vec![ProbePoint {
                label: "g/v1".into(),
                minus_log10_p: value,
                leaking: value > 5.0,
            }],
        })
    }

    fn health(traces: u64) -> Event {
        Event::Health(HealthCheckpoint {
            traces,
            traces_target: 1000,
            threshold: 5.0,
            statistic: "gtest".into(),
            probe_sets: 3,
            testable_sets: 2,
            undersampled_sets: 1,
            leaking_sets: 1,
            fresh_bits_per_trace: 24,
            fresh_bits_total: 24 * traces,
            probes: vec![ProbeHealth {
                label: "g/v1".into(),
                minus_log10_p: 6.0,
                leaking: true,
                tested_columns: 4,
                pooled_columns: 0,
                pooled_fraction: 0.0,
                min_expected: 62.5,
                undersampled: false,
                slope_per_mtrace: 12_000.0,
                traces_to_detection: 500.0,
            }],
            degraded: Vec::new(),
        })
    }

    #[test]
    fn model_accumulates_trajectories_and_health() {
        let mut model = StatusModel::new(2);
        assert!(model.absorb(&checkpoint(500, 3.0)));
        assert!(model.absorb(&checkpoint(1000, 6.0)));
        assert!(model.absorb(&health(1000)));
        let parsed = crate::json::parse(&model.render()).expect("status parses");
        assert_eq!(parsed.get("traces").and_then(|v| v.as_u64()), Some(1000));
        let top = parsed.get("top").and_then(|v| v.as_array()).unwrap();
        let trajectory = top[0].get("trajectory").and_then(|v| v.as_array()).unwrap();
        assert_eq!(trajectory.len(), 2, "both checkpoints accumulated");
        assert_eq!(
            parsed
                .get("health")
                .and_then(|h| h.get("leaking_sets"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(
            parsed
                .get("runtime")
                .and_then(|r| r.get("threads"))
                .and_then(|v| v.as_u64()),
            Some(2)
        );
    }

    #[test]
    fn wall_clock_fields_stay_inside_runtime() {
        let mut model = StatusModel::new(4);
        model.absorb(&checkpoint(500, 3.0));
        let rendered = model.render();
        let parsed = crate::json::parse(&rendered).expect("status parses");
        // elapsed/rate appear under `runtime` and nowhere at top level.
        assert!(parsed.get("elapsed_ms").is_none());
        assert!(parsed.get("traces_per_sec").is_none());
        let runtime = parsed.get("runtime").expect("runtime key");
        assert_eq!(runtime.get("elapsed_ms").and_then(|v| v.as_u64()), Some(17));
        assert!(runtime.get("traces_per_sec").is_some());
    }

    #[test]
    fn file_sink_rewrites_atomically_on_checkpoints() {
        // Hold the failpoint gate so a concurrently running fault test
        // cannot inject errors into this sink's writes.
        let _guard = crate::failpoint::scoped("");
        let path =
            std::env::temp_dir().join(format!("mmaes-status-test-{}.json", std::process::id()));
        let mut sink = StatusFileSink::create(&path, 1);
        sink.on_event(&checkpoint(500, 3.0));
        let first = fs::read_to_string(&path).expect("status written");
        crate::json::parse(first.trim()).expect("first write parses");
        sink.on_event(&Event::CampaignFinished(RunRecord {
            design: "g".into(),
            traces: 1000,
            wall_ms: 99,
            max_minus_log10_p: 6.0,
            leaking: 1,
            finished: true,
            ..RunRecord::default()
        }));
        let last = fs::read_to_string(&path).expect("status rewritten");
        let parsed = crate::json::parse(last.trim()).expect("final write parses");
        assert_eq!(parsed.get("finished").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(parsed.get("passed").and_then(|v| v.as_bool()), Some(false));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn file_sink_degrades_after_exhausting_the_retry_budget() {
        let _guard = crate::failpoint::scoped("status.write=ioerr x*");
        let path = std::env::temp_dir().join(format!(
            "mmaes-status-degraded-test-{}.json",
            std::process::id()
        ));
        let _ = fs::remove_file(&path);
        let mut sink = StatusFileSink::create(&path, 1);
        sink.on_event(&checkpoint(500, 3.0));
        assert!(sink.degraded, "retry budget exhausted");
        assert!(!path.exists(), "no document written under injected ioerr");
        let entries = crate::degraded::snapshot();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].subsystem, "status-file");
        assert_eq!(
            entries[0].incidents, 1,
            "one degradation, not one per retry"
        );
        // Later checkpoints stay in memory without further incidents.
        sink.on_event(&checkpoint(1000, 6.0));
        assert_eq!(crate::degraded::snapshot()[0].incidents, 1);
        // The model itself now renders the degraded block.
        let rendered = sink.model.render();
        assert!(rendered.contains("\"degraded\":[{"), "{rendered}");
    }

    #[test]
    fn truncated_writes_never_tear_the_published_document() {
        let _guard = crate::failpoint::scoped("status.write=truncate@1");
        let path = std::env::temp_dir().join(format!(
            "mmaes-status-truncate-test-{}.json",
            std::process::id()
        ));
        let _ = fs::remove_file(&path);
        let mut sink = StatusFileSink::create(&path, 1);
        // Hit 1 truncates mid-write; the retry (hit 2) succeeds. The
        // published path must only ever hold the complete document.
        sink.on_event(&checkpoint(500, 3.0));
        assert!(!sink.degraded, "retry recovered");
        let document = fs::read_to_string(&path).expect("status written on retry");
        crate::json::parse(document.trim()).expect("published document is whole");
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(path.with_extension("tmp"));
    }

    #[test]
    fn create_reaps_a_stale_tmp_from_a_prior_crash() {
        let path = std::env::temp_dir().join(format!(
            "mmaes-status-reap-test-{}.json",
            std::process::id()
        ));
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, "{\"type\":\"status\",\"trunca").expect("plant stale tmp");
        let _sink = StatusFileSink::create(&path, 1);
        assert!(!tmp.exists(), "stale tmp reaped on startup");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn trajectory_label_tracking_is_bounded() {
        let mut model = StatusModel::new(1);
        for wave in 0..4 {
            let probes: Vec<ProbePoint> = (0..50)
                .map(|index| ProbePoint {
                    label: format!("g/v{}", wave * 50 + index),
                    minus_log10_p: 1.0,
                    leaking: false,
                })
                .collect();
            model.absorb(&Event::CampaignCheckpoint(Checkpoint {
                record: RunRecord {
                    traces: 100 * (wave + 1),
                    traces_target: 1000,
                    wall_ms: 1,
                    max_minus_log10_p: 1.0,
                    worst_label: "g/v0".into(),
                    ..RunRecord::default()
                },
                probes,
            }));
        }
        assert!(model.trajectories.len() <= MAX_TRACKED_LABELS);
    }
}
