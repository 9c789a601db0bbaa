//! Fault containment for artifacts (DESIGN.md § Fault containment):
//! how an artifact reaches disk, and what happens when it cannot.
//!
//! * [`write_atomic`] is the one durable write. Snapshots and
//!   `status.json` both go through it, so a reader (or a crash) never
//!   observes a torn file; [`reap_tmp`] removes the `.tmp` sibling a
//!   crashed writer left behind.
//! * [`retry`] is the one retry loop, with one doubling backoff; the
//!   caller passes the attempt budget ([`RETRY_ATTEMPTS`] for artifact
//!   writes, the supervisor's for campaign batches).
//! * [`Degraded`] is the one degrade rule. When an artifact write
//!   exhausts its budget — the snapshot file hits ENOSPC, the status
//!   file's directory goes away, the metrics JSONL stream breaks — the
//!   campaign does not die: the subsystem is marked once in the
//!   registry and stops trying, while the run carries on in memory.
//!
//! The registry is the single source of truth for the `degraded` block
//! surfaced in `status.json`, the `/status` endpoint, `health` events,
//! and the final `summary` line, so an analyst finding an
//! otherwise-healthy report can see exactly which artifacts stopped
//! persisting and why.
//!
//! Entries are keyed by subsystem name and deterministic given the
//! same fault sequence: a clean run renders `"degraded":[]`
//! byte-identically at any `--threads` count.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

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

/// Retry budget for artifact writes: one initial attempt plus two
/// retries.
pub const RETRY_ATTEMPTS: u32 = 3;

/// Base backoff between attempts, in milliseconds, doubling per retry.
/// Deliberately tiny: artifact writes and batch retries sit on the
/// campaign's path, and the budget exists to absorb transient hiccups,
/// not to wait out a full disk.
pub const RETRY_BACKOFF_MS: u64 = 2;

/// Runs `operation` up to `attempts` times with bounded doubling
/// backoff (at most 64× the base), returning the first success or the
/// last error.
pub fn retry<T, E>(attempts: u32, mut operation: impl FnMut() -> Result<T, E>) -> Result<T, E> {
    for attempt in 0..attempts.saturating_sub(1) {
        if let done @ Ok(_) = operation() {
            return done;
        }
        std::thread::sleep(Duration::from_millis(RETRY_BACKOFF_MS << attempt.min(6)));
    }
    operation()
}

/// A failed [`write_atomic`]: the failing step — `"write"` (an injected
/// fault counts as one), `"create"`, `"fsync"` or `"rename"` — and its
/// error.
pub type WriteError = (&'static str, io::Error);

/// Atomically replaces `path` with `bytes`: consults the failpoint
/// `site` (whose `truncate` leaves half of `bytes` in the `.tmp`
/// sibling), creates, writes and fsyncs the sibling, renames it over
/// `path`, then syncs the parent directory (best effort) so the rename
/// itself is durable. A crash at any point leaves either the previous
/// file or a `.tmp` leftover — never a torn file.
pub fn write_atomic(site: &str, path: &Path, bytes: &[u8]) -> Result<(), WriteError> {
    let tmp = path.with_extension("tmp");
    crate::failpoint::inject_io(site, Some((&tmp, bytes))).map_err(|error| ("write", error))?;
    let mut file = fs::File::create(&tmp).map_err(|error| ("create", error))?;
    file.write_all(bytes).map_err(|error| ("write", error))?;
    file.sync_all().map_err(|error| ("fsync", error))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|error| ("rename", error))?;
    if let Some(directory) = path.parent().and_then(|parent| fs::File::open(parent).ok()) {
        let _ = directory.sync_all();
    }
    Ok(())
}

/// Removes the `.tmp` sibling that a crash mid-write (or an injected
/// truncation) left next to `path` in a previous run. Called when a
/// campaign or a status file starts; best effort, as [`write_atomic`]
/// never reads a `.tmp` file.
pub fn reap_tmp(path: &Path) {
    let _ = fs::remove_file(path.with_extension("tmp"));
}

/// The degrade rule for one artifact stream. A write goes through
/// [`retry`] with [`RETRY_ATTEMPTS`]; the first to exhaust the budget
/// marks the subsystem once, and later writes are skipped (the disk is
/// not coming back mid-run). Final writes keep their own policies.
/// `!degraded` holds while the subsystem still writes.
#[derive(Debug, Clone, Copy)]
pub struct Degraded {
    subsystem: &'static str,
    degraded: bool,
}

impl Degraded {
    /// A healthy subsystem, registered as `subsystem` once it degrades.
    pub const fn new(subsystem: &'static str) -> Self {
        Degraded {
            subsystem,
            degraded: false,
        }
    }

    /// Runs `write` through [`retry`] unless the subsystem has
    /// degraded. On exhaustion, degrades it and [`mark`]s it with
    /// `detail` of the last error. Returns whether the write landed.
    pub fn write<E>(
        &mut self,
        write: impl FnMut() -> Result<(), E>,
        detail: impl FnOnce(E) -> String,
    ) -> bool {
        if self.degraded {
            return false;
        }
        match retry(RETRY_ATTEMPTS, write) {
            Ok(()) => true,
            Err(error) => {
                self.degraded = true;
                mark(self.subsystem, &detail(error));
                false
            }
        }
    }
}

impl std::ops::Not for Degraded {
    type Output = bool;

    fn not(self) -> bool {
        !self.degraded
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
        let result: Result<u32, &str> = retry(RETRY_ATTEMPTS, || {
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
        let result: Result<u32, String> = retry(RETRY_ATTEMPTS, || {
            calls += 1;
            Err(format!("attempt {calls} failed"))
        });
        assert_eq!(result, Err("attempt 3 failed".into()));
    }
}
