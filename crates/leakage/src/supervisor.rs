//! Worker supervision for campaigns (DESIGN.md § Fault containment).
//!
//! A multi-hour campaign must not lose its statistics to one worker
//! thread dying mid-batch. This module wraps batch execution in a
//! panic boundary with a typed [`WorkerFault`] taxonomy, sets the budget
//! ([`MAX_ATTEMPTS`]) of the in-place retries of a faulted batch, and
//! tracks per-worker heartbeats so the coordinator can flag a stalled
//! shard.
//!
//! Crucially, none of this can perturb the report: every batch's
//! randomness is a pure function of `(seed, batch)` (see
//! [`crate::campaign`]), so a retried batch reproduces the exact
//! outcome the faulted attempt would have produced, and a panicked
//! attempt commits nothing — the campaign's tables see each batch
//! exactly once. Reports therefore stay byte-identical across thread
//! counts *and* injected faults. Stall detection is the one
//! wall-clock-based diagnostic here, which is why it is advisory only:
//! it lands in the [`mmaes_telemetry::degraded`] registry, never in the
//! report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mmaes_telemetry::failpoint::{self, Fault};

/// Total attempts a batch gets before its fault becomes fatal: the
/// first run plus three retries.
pub const MAX_ATTEMPTS: u32 = 4;

/// Default stalled-shard threshold: a batch in flight longer than this
/// is flagged (advisory) in the degraded registry.
pub const DEFAULT_STALL_TIMEOUT_MS: u64 = 2000;

/// Environment override for the stall threshold (milliseconds) —
/// chaos tests shrink it so scripted stalls trip the watchdog fast.
pub const STALL_TIMEOUT_ENV: &str = "MMAES_STALL_TIMEOUT_MS";

/// A contained fault from one batch attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerFault {
    /// The batch closure panicked; `message` is the stringified payload.
    Panic {
        /// The batch index that was in flight.
        batch: u64,
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
    /// The heartbeat watchdog saw a batch in flight past the threshold.
    /// Advisory: the batch may still complete and fold normally.
    Stall {
        /// The batch index that was in flight.
        batch: u64,
        /// How long the batch had been in flight when flagged.
        waited_ms: u64,
    },
}

impl std::fmt::Display for WorkerFault {
    fn fmt(&self, formatter: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerFault::Panic { batch, message } => {
                write!(formatter, "batch {batch} panicked: {message}")
            }
            WorkerFault::Stall { batch, waited_ms } => {
                write!(formatter, "batch {batch} stalled for {waited_ms} ms")
            }
        }
    }
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_owned()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one batch attempt inside the panic boundary, honoring the
/// `worker` failpoint keyed by batch index (`worker=panic@3` panics
/// batch 3's next attempt; `worker=stall(250)@5` delays batch 5 by
/// 250 ms and then runs it normally).
pub fn supervised<T>(batch: u64, work: impl FnOnce() -> T) -> Result<T, WorkerFault> {
    let attempt = move || {
        if failpoint::active() {
            match failpoint::check_at("worker", batch) {
                Some(Fault::Panic) => panic!("injected panic (failpoint worker, batch {batch})"),
                Some(Fault::Stall(ms)) => {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
                // I/O faults make no sense inside a pure compute batch;
                // treat them as panics so a misconfigured schedule is
                // loud rather than silently ignored.
                Some(Fault::Io) | Some(Fault::Truncate) => {
                    panic!("injected fault (failpoint worker, batch {batch})")
                }
                None => {}
            }
        }
        work()
    };
    // AssertUnwindSafe: on a caught panic the campaign never reuses the
    // possibly-torn simulator — the retry path rebuilds it from the
    // netlist, and batch outcomes are pure functions of (seed, batch).
    catch_unwind(AssertUnwindSafe(attempt)).map_err(|payload| WorkerFault::Panic {
        batch,
        message: panic_message(payload),
    })
}

/// The configured stall threshold: [`STALL_TIMEOUT_ENV`] when set and
/// parseable, [`DEFAULT_STALL_TIMEOUT_MS`] otherwise.
pub fn stall_timeout_ms() -> u64 {
    std::env::var(STALL_TIMEOUT_ENV)
        .ok()
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or(DEFAULT_STALL_TIMEOUT_MS)
}

/// Sentinel heartbeat value: the worker is idle (between batches).
const IDLE: u64 = u64::MAX;

/// Per-worker heartbeats for the coordinator's stall watchdog. A worker
/// stamps the batch start time (milliseconds since the pool's epoch);
/// the coordinator flags workers whose in-flight batch is older than
/// the threshold. Wall-clock-based and therefore advisory only.
#[derive(Debug)]
pub struct Heartbeats {
    epoch: Instant,
    /// Per worker: batch start in ms since epoch, or [`IDLE`].
    started_ms: Vec<AtomicU64>,
    /// Per worker: the batch index in flight (valid while not idle).
    batch: Vec<AtomicU64>,
}

impl Heartbeats {
    /// Heartbeat slots for `workers` workers, all idle.
    pub fn new(workers: usize) -> Self {
        Heartbeats {
            epoch: Instant::now(),
            started_ms: (0..workers).map(|_| AtomicU64::new(IDLE)).collect(),
            batch: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Stamps worker `worker` as starting `batch` now.
    pub fn start(&self, worker: usize, batch: u64) {
        self.batch[worker].store(batch, Ordering::Relaxed);
        self.started_ms[worker].store(self.now_ms(), Ordering::Release);
    }

    /// Stamps worker `worker` as idle (batch delivered or worker done).
    pub fn idle(&self, worker: usize) {
        self.started_ms[worker].store(IDLE, Ordering::Release);
    }

    /// Workers whose in-flight batch started more than `threshold_ms`
    /// ago, as [`WorkerFault::Stall`] entries paired with the worker
    /// index.
    pub fn stalled(&self, threshold_ms: u64) -> Vec<(usize, WorkerFault)> {
        let now = self.now_ms();
        self.started_ms
            .iter()
            .enumerate()
            .filter_map(|(worker, started)| {
                let started = started.load(Ordering::Acquire);
                if started == IDLE {
                    return None;
                }
                let waited_ms = now.saturating_sub(started);
                (waited_ms > threshold_ms).then(|| {
                    (
                        worker,
                        WorkerFault::Stall {
                            batch: self.batch[worker].load(Ordering::Relaxed),
                            waited_ms,
                        },
                    )
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supervised_contains_panics_as_typed_faults() {
        let _guard = failpoint::scoped("");
        let ok = supervised(0, || 41 + 1);
        assert_eq!(ok, Ok(42));
        let fault = supervised(7, || -> u32 { panic!("boom") });
        assert_eq!(
            fault,
            Err(WorkerFault::Panic {
                batch: 7,
                message: "boom".to_owned()
            })
        );
    }

    #[test]
    fn worker_failpoint_is_keyed_by_batch_index() {
        let _guard = failpoint::scoped("worker=panic@3x2");
        assert!(supervised(2, || ()).is_ok(), "other batches untouched");
        assert!(supervised(3, || ()).is_err(), "first attempt fires");
        assert!(supervised(3, || ()).is_err(), "second attempt fires");
        assert!(supervised(3, || ()).is_ok(), "budget of 2 exhausted");
    }

    #[test]
    fn heartbeats_flag_only_overdue_inflight_batches() {
        let beats = Heartbeats::new(2);
        assert!(beats.stalled(0).is_empty(), "idle workers never stall");
        beats.start(0, 9);
        std::thread::sleep(std::time::Duration::from_millis(15));
        let stalls = beats.stalled(5);
        assert_eq!(stalls.len(), 1);
        assert!(matches!(
            stalls[0],
            (0, WorkerFault::Stall { batch: 9, .. })
        ));
        beats.idle(0);
        assert!(beats.stalled(0).is_empty(), "delivered batch clears it");
    }
}
