//! A metrics registry with Prometheus text exposition and an optional
//! scrape server (documented in DESIGN.md § Campaign health).
//!
//! The registry is deliberately boring: counters, gauges, and duration
//! histograms over the same log2-µs buckets as [`crate::perf`], behind
//! one short-lived mutex. Updates arrive at checkpoint cadence (not
//! per-trace), so the lock is never contended on the hot path; the
//! expensive rendering happens only when a scraper asks.
//!
//! Exposition is the Prometheus text format, rendered deterministically
//! (metrics sorted by name, stable float formatting) so two runs of the
//! same campaign produce diffable `/metrics` bodies modulo wall-clock
//! values. The bundled [`MetricsServer`] is a minimal HTTP/1.1 loop on
//! `std::net::TcpListener` — no new dependencies — serving `/metrics`
//! (text exposition) and `/status` (the latest status JSON, the same
//! document `--status-file` writes).

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::event::Event;
use crate::perf::{bucket_lower_bound_us, PhaseStats, BUCKET_COUNT};
use crate::record::RunRecord;
use crate::sink::Sink;
use crate::status::StatusModel;

/// A duration histogram over the perf layer's log2-µs buckets.
#[derive(Debug, Clone, Default)]
struct Histogram {
    buckets: [u64; BUCKET_COUNT],
    count: u64,
    sum_us: u128,
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Restricts a metric name to the Prometheus charset
/// (`[a-zA-Z0-9_:]`); anything else becomes `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Formats a gauge value for exposition: integers without a fraction,
/// everything else with four decimals, non-finite as Prometheus spells
/// them (`+Inf`, `-Inf`, `NaN`).
fn format_value(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_owned()
    } else if value.is_infinite() {
        if value > 0.0 { "+Inf" } else { "-Inf" }.to_owned()
    } else if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value:.4}")
    }
}

/// A shareable, thread-safe metrics registry.
///
/// Cloning shares the underlying storage — hand clones to sinks, the
/// exposition server, and instrumented code alike.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    registry: Mutex<Registry>,
    status: Mutex<String>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to a monotonic counter, creating it at zero.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut registry = self.inner.registry.lock().unwrap();
        *registry.counters.entry(sanitize(name)).or_insert(0) += delta;
    }

    /// The current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        let registry = self.inner.registry.lock().unwrap();
        registry.counters.get(&sanitize(name)).copied().unwrap_or(0)
    }

    /// Sets a gauge to `value`, creating it as needed.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut registry = self.inner.registry.lock().unwrap();
        registry.gauges.insert(sanitize(name), value);
    }

    /// The current value of a gauge, when set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let registry = self.inner.registry.lock().unwrap();
        registry.gauges.get(&sanitize(name)).copied()
    }

    /// Folds a frozen perf phase into a histogram named
    /// `{prefix}_{phase}_duration_us` — the bucket layouts are
    /// identical, so the merge is exact.
    pub fn absorb_phase(&self, prefix: &str, phase: &PhaseStats) {
        let name = sanitize(&format!("{prefix}_{}_duration_us", phase.name));
        let mut registry = self.inner.registry.lock().unwrap();
        let histogram = registry.histograms.entry(name).or_default();
        for (slot, observed) in histogram.buckets.iter_mut().zip(phase.buckets.iter()) {
            *slot += observed;
        }
        histogram.count += phase.count;
        histogram.sum_us += (phase.total_ns / 1_000) as u128;
    }

    /// Sets the progress gauges from a run record: traces, throughput
    /// and the running maximum `-log10(p)`.
    fn record_gauges(&self, record: &RunRecord) {
        self.gauge_set("mmaes_traces", record.traces as f64);
        self.gauge_set("mmaes_traces_per_sec", record.traces_per_sec());
        self.gauge_set("mmaes_max_minus_log10_p", record.max_minus_log10_p);
    }

    /// Publishes the latest status document (served at `/status`).
    pub fn set_status(&self, status: String) {
        *self.inner.status.lock().unwrap() = status;
    }

    /// The latest status document (`"{}"` before the first publish).
    pub fn status(&self) -> String {
        let status = self.inner.status.lock().unwrap();
        if status.is_empty() {
            "{}".to_owned()
        } else {
            status.clone()
        }
    }

    /// Renders the registry in the Prometheus text exposition format,
    /// deterministically: metrics sorted by name, histograms as
    /// cumulative `_bucket{le="…"}` series in microseconds.
    pub fn render_prometheus(&self) -> String {
        let registry = self.inner.registry.lock().unwrap();
        let mut out = String::new();
        for (name, value) in &registry.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &registry.gauges {
            out.push_str(&format!(
                "# TYPE {name} gauge\n{name} {}\n",
                format_value(*value)
            ));
        }
        for (name, histogram) in &registry.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (bucket, observed) in histogram.buckets.iter().enumerate() {
                cumulative += observed;
                if bucket + 1 < BUCKET_COUNT {
                    // Bucket `i` holds durations below 2^i µs — its
                    // inclusive upper bound is the next lower bound.
                    let le = bucket_lower_bound_us(bucket + 1);
                    out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
                histogram.count, histogram.sum_us, histogram.count
            ));
        }
        out
    }
}

/// A sink that feeds a [`MetricsRegistry`] from the event stream and
/// keeps the registry's `/status` document current.
///
/// All metric names carry the `mmaes_` prefix; counters end in
/// `_total` per Prometheus convention.
#[derive(Debug)]
pub struct MetricsSink {
    registry: MetricsRegistry,
    model: StatusModel,
}

impl MetricsSink {
    /// A sink feeding `registry`. `threads` is the producing run's
    /// worker-thread count (0 when unknown), reported in the status
    /// document's `runtime` section.
    pub fn new(registry: MetricsRegistry, threads: u64) -> Self {
        MetricsSink {
            registry,
            model: StatusModel::new(threads),
        }
    }
}

impl Sink for MetricsSink {
    fn on_event(&mut self, event: &Event) {
        let registry = &self.registry;
        match event {
            Event::CampaignStarted {
                probe_sets,
                traces_target,
                ..
            } => {
                registry.counter_add("mmaes_campaigns_started_total", 1);
                registry.gauge_set("mmaes_probe_sets", *probe_sets as f64);
                registry.gauge_set("mmaes_traces_target", *traces_target as f64);
            }
            Event::CampaignCheckpoint(checkpoint) => {
                registry.counter_add("mmaes_checkpoints_total", 1);
                registry.record_gauges(&checkpoint.record);
            }
            Event::ProbeFlagged { .. } => {
                registry.counter_add("mmaes_probes_flagged_total", 1);
            }
            Event::SimProgress {
                cycles,
                cell_evals,
                lane_utilization,
                cell_evals_per_sec,
                ..
            } => {
                registry.gauge_set("mmaes_sim_cycles", *cycles as f64);
                registry.gauge_set("mmaes_sim_cell_evals", *cell_evals as f64);
                registry.gauge_set("mmaes_sim_lane_utilization", *lane_utilization);
                registry.gauge_set("mmaes_sim_cell_evals_per_sec", *cell_evals_per_sec);
            }
            Event::Health(health) | Event::HealthSummary(health) => {
                registry.gauge_set("mmaes_health_testable_sets", health.testable_sets as f64);
                registry.gauge_set(
                    "mmaes_health_undersampled_sets",
                    health.undersampled_sets as f64,
                );
                registry.gauge_set("mmaes_health_leaking_sets", health.leaking_sets as f64);
                registry.gauge_set(
                    "mmaes_health_fresh_bits_per_trace",
                    health.fresh_bits_per_trace as f64,
                );
            }
            Event::CampaignFinished(record) => {
                registry.counter_add("mmaes_campaigns_finished_total", 1);
                registry.gauge_set("mmaes_campaign_passed", f64::from(u8::from(record.passed)));
                registry.record_gauges(record);
            }
            Event::PerfSnapshot { snapshot, .. } => {
                for phase in &snapshot.phases {
                    registry.absorb_phase("mmaes_phase", phase);
                }
            }
            _ => {}
        }
        if self.model.absorb(event) {
            registry.set_status(self.model.render());
        }
    }

    fn flush(&mut self) {
        self.registry.set_status(self.model.render());
    }
}

/// A minimal HTTP/1.1 exposition server on [`std::net::TcpListener`].
///
/// Serves `GET /metrics` (Prometheus text exposition) and
/// `GET /status` (the latest status JSON). One request per connection,
/// handled sequentially on a single background thread — a scrape
/// target, not a web server. Shuts down (and joins the thread) on
/// drop.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving `registry` on a background thread.
    pub fn serve(addr: &str, registry: MetricsRegistry) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("mmaes-metrics".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        let _ = handle_request(stream, &registry);
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The actually bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Reads one request head and answers it. Only the request line
/// matters; headers are drained and ignored.
fn handle_request(mut stream: TcpStream, registry: &MetricsRegistry) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 256];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let request_line = String::from_utf8_lossy(&head);
    let path = request_line
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/")
        .to_owned();
    let (status, content_type, body) = match path.as_str() {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            registry.render_prometheus(),
        ),
        "/status" => ("200 OK", "application/json", registry.status()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "try /metrics or /status\n".to_owned(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Checkpoint, ProbePoint};
    use crate::perf::bucket_lower_bound_us;

    #[test]
    fn rendering_is_deterministic_and_sorted() {
        let registry = MetricsRegistry::new();
        registry.gauge_set("zzz", 1.5);
        registry.counter_add("aaa_total", 2);
        registry.gauge_set("mmm", f64::INFINITY);
        let body = registry.render_prometheus();
        assert_eq!(body, registry.render_prometheus());
        let aaa = body.find("aaa_total 2").expect("counter rendered");
        let mmm = body.find("mmm +Inf").expect("gauge rendered");
        let zzz = body.find("zzz 1.5000").expect("float gauge rendered");
        assert!(aaa < mmm && mmm < zzz, "{body}");
        assert!(body.contains("# TYPE aaa_total counter"));
        assert!(body.contains("# TYPE zzz gauge"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_bounded_like_perf() {
        let recorder = crate::PerfRecorder::enabled();
        recorder.record_duration("latency", Duration::from_micros(3));
        recorder.record_duration("latency", Duration::from_micros(3));
        recorder.record_duration("latency", Duration::from_secs(40));
        let snapshot = recorder.snapshot().expect("enabled");
        let registry = MetricsRegistry::new();
        registry.absorb_phase("t", snapshot.phase("latency").expect("recorded"));
        let body = registry.render_prometheus();
        // 3 µs lands in the bucket whose upper bound is the first
        // lower bound above 3; the 40 s outlier only shows at +Inf.
        let bound = (0..BUCKET_COUNT)
            .map(bucket_lower_bound_us)
            .find(|&lower| lower > 3)
            .unwrap();
        assert!(
            body.contains(&format!("t_latency_duration_us_bucket{{le=\"{bound}\"}} 2")),
            "{body}"
        );
        assert!(
            body.contains("t_latency_duration_us_bucket{le=\"+Inf\"} 3"),
            "{body}"
        );
        assert!(body.contains("t_latency_duration_us_count 3"), "{body}");
        assert!(
            body.contains(&format!("t_latency_duration_us_sum {}", 6 + 40_000_000)),
            "{body}"
        );
    }

    #[test]
    fn metric_names_are_sanitized() {
        let registry = MetricsRegistry::new();
        registry.counter_add("weird name/with-chars", 1);
        assert_eq!(registry.counter("weird name/with-chars"), 1);
        assert!(registry
            .render_prometheus()
            .contains("weird_name_with_chars 1"));
    }

    #[test]
    fn sink_tracks_campaign_events() {
        let registry = MetricsRegistry::new();
        let mut sink = MetricsSink::new(registry.clone(), 1);
        sink.on_event(&Event::CampaignStarted {
            design: "g".into(),
            model: "glitch".into(),
            order: 1,
            probe_sets: 3,
            traces_target: 1000,
        });
        sink.on_event(&Event::CampaignCheckpoint(Checkpoint {
            record: RunRecord {
                traces: 640,
                traces_target: 1000,
                wall_ms: 5,
                max_minus_log10_p: 4.2,
                worst_label: "g/v1".into(),
                ..RunRecord::default()
            },
            probes: vec![ProbePoint {
                label: "g/v1".into(),
                minus_log10_p: 4.2,
                leaking: false,
            }],
        }));
        assert_eq!(registry.counter("mmaes_campaigns_started_total"), 1);
        assert_eq!(registry.gauge("mmaes_traces"), Some(640.0));
        // The /status document tracks the same checkpoint.
        let status = crate::json::parse(&registry.status()).expect("status parses");
        assert_eq!(status.get("traces").and_then(|v| v.as_u64()), Some(640));
    }

    #[test]
    fn progress_gauges_are_exported_without_checkpoints() {
        // `--checkpoints 0`: the campaign goes straight from started to
        // finished, and the final record alone must set the gauges.
        let registry = MetricsRegistry::new();
        let mut sink = MetricsSink::new(registry.clone(), 1);
        sink.on_event(&Event::CampaignStarted {
            design: "g".into(),
            model: "glitch".into(),
            order: 1,
            probe_sets: 3,
            traces_target: 64_000,
        });
        let record = RunRecord {
            design: "g".into(),
            traces: 64_000,
            traces_target: 64_000,
            wall_ms: 31,
            max_minus_log10_p: 25.7328,
            leaking: 2,
            finished: true,
            ..RunRecord::default()
        };
        sink.on_event(&Event::CampaignFinished(record.clone()));
        assert_eq!(registry.counter("mmaes_checkpoints_total"), 0);
        assert_eq!(registry.gauge("mmaes_traces"), Some(64_000.0));
        assert_eq!(
            registry.gauge("mmaes_traces_per_sec"),
            Some(record.traces_per_sec())
        );
        assert_eq!(registry.gauge("mmaes_max_minus_log10_p"), Some(25.7328));
        let body = registry.render_prometheus();
        assert!(body.contains("mmaes_traces 64000\n"), "{body}");
        assert!(
            body.contains(&format!(
                "mmaes_traces_per_sec {}\n",
                format_value(record.traces_per_sec())
            )),
            "{body}"
        );
        assert!(body.contains("mmaes_max_minus_log10_p 25.7328\n"), "{body}");
    }

    #[test]
    fn server_serves_metrics_and_status() {
        let registry = MetricsRegistry::new();
        registry.counter_add("mmaes_test_total", 7);
        registry.set_status("{\"traces\":1}".to_owned());
        let server = MetricsServer::serve("127.0.0.1:0", registry).expect("bind");
        let get = |path: &str| {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read");
            response
        };
        let metrics = get("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("mmaes_test_total 7"), "{metrics}");
        let status = get("/status");
        assert!(status.contains("application/json"), "{status}");
        assert!(status.ends_with("{\"traces\":1}"), "{status}");
        let missing = get("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        drop(server); // joins the accept thread
    }
}
