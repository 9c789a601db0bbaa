//! The degraded-subsystem registry (DESIGN.md § Fault containment).
//!
//! When a resilient sink exhausts its retry budget — the snapshot file
//! hits ENOSPC, the status file's directory goes away, the metrics
//! JSONL stream breaks — the campaign does not die: the sink degrades
//! to in-memory operation and records the failure here. The registry
//! is the single source of truth for the `degraded` block surfaced in
//! `status.json`, the `/status` endpoint, `health` events, and the
//! final `summary` line, so an analyst finding an otherwise-healthy
//! report can see exactly which artifacts stopped persisting and why.
//!
//! Entries are keyed by subsystem name and deterministic given the
//! same fault sequence: a clean run renders `"degraded":[]`
//! byte-identically at any `--threads` count.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::json::{array, JsonObject};

/// One subsystem operating in degraded mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedEntry {
    /// The degraded subsystem: `"snapshot"`, `"status-file"`,
    /// `"metrics"`, or `"worker"` (stalled shards).
    pub subsystem: String,
    /// The most recent failure, human-readable.
    pub detail: String,
    /// How many incidents the subsystem has recorded.
    pub incidents: u64,
}

impl DegradedEntry {
    /// Renders the entry as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("subsystem", &self.subsystem)
            .string("detail", &self.detail)
            .unsigned("incidents", self.incidents)
            .finish()
    }
}

/// Renders a list of entries as the `degraded` JSON array (empty —
/// `[]` — on a clean run).
pub fn to_json(entries: &[DegradedEntry]) -> String {
    array(entries.iter().map(DegradedEntry::to_json))
}

/// Retry budget for resilient artifact writes: one initial attempt
/// plus two retries.
pub const RETRY_ATTEMPTS: u32 = 3;

/// Base backoff between attempts, in milliseconds, doubling per retry.
/// Deliberately tiny: artifact writes sit on the checkpoint path, and
/// the budget exists to absorb transient hiccups, not to wait out a
/// full disk.
pub const RETRY_BACKOFF_MS: u64 = 2;

/// Runs `operation` up to [`RETRY_ATTEMPTS`] times with bounded
/// doubling backoff, returning the first success or the last error.
/// Callers that exhaust the budget are expected to [`mark`] their
/// subsystem and fall back to in-memory operation.
pub fn retry<T, E>(mut operation: impl FnMut() -> Result<T, E>) -> Result<T, E> {
    let mut attempt = 0;
    loop {
        match operation() {
            Ok(value) => return Ok(value),
            Err(error) => {
                attempt += 1;
                if attempt >= RETRY_ATTEMPTS {
                    return Err(error);
                }
                std::thread::sleep(std::time::Duration::from_millis(
                    RETRY_BACKOFF_MS << (attempt - 1),
                ));
            }
        }
    }
}

fn registry() -> MutexGuard<'static, BTreeMap<String, (String, u64)>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, (String, u64)>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Records an incident for `subsystem`, keeping the latest detail and
/// bumping its incident count.
pub fn mark(subsystem: &str, detail: &str) {
    let mut registry = registry();
    let entry = registry
        .entry(subsystem.to_owned())
        .or_insert_with(|| (String::new(), 0));
    entry.0 = detail.to_owned();
    entry.1 += 1;
}

/// The current degraded subsystems, sorted by name (deterministic).
pub fn snapshot() -> Vec<DegradedEntry> {
    registry()
        .iter()
        .map(|(subsystem, (detail, incidents))| DegradedEntry {
            subsystem: subsystem.clone(),
            detail: detail.clone(),
            incidents: *incidents,
        })
        .collect()
}

/// Clears the registry. Called by CLI entry points before a run and by
/// [`crate::failpoint::scoped`] test guards; the registry is
/// process-global, so long-lived embedders should clear between
/// campaigns they want reported independently.
pub fn clear() {
    registry().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_accumulate_and_render_deterministically() {
        let _guard = crate::failpoint::scoped("");
        assert_eq!(to_json(&snapshot()), "[]");
        mark("status-file", "create /tmp/x.tmp: full");
        mark("snapshot", "write eq6.tmp: full");
        mark("snapshot", "rename eq6.tmp: full");
        let entries = snapshot();
        assert_eq!(entries.len(), 2);
        // BTreeMap keys: "snapshot" sorts before "status-file".
        assert_eq!(entries[0].subsystem, "snapshot");
        assert_eq!(entries[0].incidents, 2);
        assert_eq!(entries[0].detail, "rename eq6.tmp: full", "latest kept");
        assert_eq!(entries[1].incidents, 1);
        let json = to_json(&entries);
        assert!(json.starts_with("[{"), "{json}");
        crate::json::parse(&json).expect("degraded block parses");
        clear();
        assert_eq!(to_json(&snapshot()), "[]");
    }

    #[test]
    fn retry_returns_first_success_or_last_error() {
        let mut calls = 0;
        let result: Result<u32, &str> = retry(|| {
            calls += 1;
            if calls < 3 {
                Err("transient")
            } else {
                Ok(7)
            }
        });
        assert_eq!(result, Ok(7));
        assert_eq!(calls, 3, "succeeds on the last budgeted attempt");
        let mut calls = 0;
        let result: Result<u32, String> = retry(|| {
            calls += 1;
            Err(format!("attempt {calls} failed"))
        });
        assert_eq!(result, Err("attempt 3 failed".into()));
    }
}
