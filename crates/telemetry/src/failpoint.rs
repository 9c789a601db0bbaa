//! Deterministic fault injection (DESIGN.md § Fault containment).
//!
//! Long campaigns die in boring ways — a full disk mid-snapshot, a
//! worker panic three hours in, a shard that stops making progress —
//! and none of those conditions appear in an ordinary test run. This
//! module lets the test suite, the `mmaes chaos` verb, and CI *script*
//! those conditions deterministically: a registry of named failpoints
//! that instrumented code consults at the exact places real faults
//! would strike.
//!
//! Design constraints:
//!
//! * **No-op when inactive.** Instrumented hot paths pay one relaxed
//!   atomic load and a predictable branch; the registry lock is only
//!   taken while a spec is installed. Production binaries never
//!   activate it unless `MMAES_FAILPOINTS` / `--failpoints` is set.
//! * **Deterministic.** Triggers key off hit counters or batch
//!   indices — never wall clocks — so a fault schedule reproduces the
//!   same fault sequence at any `--threads` count, and chaos runs can
//!   assert byte-identical reports.
//!
//! # Spec grammar
//!
//! A spec is a `;`- or `,`-separated list of entries (whitespace is
//! ignored):
//!
//! ```text
//! site=action[@WHEN][xCOUNT]
//! ```
//!
//! * `site` — where to strike: `worker`, `snapshot.save`,
//!   `status.write`, `metrics.write` (any string; unknown sites are
//!   simply never consulted).
//! * `action` — `ioerr` (the write fails), `truncate` (a partial
//!   `.tmp` is left behind and the write fails), `panic` (the worker
//!   panics), `stall` / `stall(MS)` (the worker sleeps `MS`
//!   milliseconds, default 100).
//! * `@WHEN` — fire only at one point: for I/O sites the 1-based hit
//!   index, for the `worker` site the batch index (so the schedule is
//!   independent of which thread claims the batch). `@*` (the
//!   default) fires at every eligible hit.
//! * `xCOUNT` — fire at most `COUNT` times (default 1); `x*` is
//!   unlimited. [`crate::degraded::retry`] re-consults the failpoint
//!   at every attempt, so `x3` makes exactly three attempts fail.
//!
//! Example: `worker=panic@3x2;snapshot.save=ioerr x3` panics batch 3
//! twice (recovering on the second retry) and fails the first three
//! snapshot-save attempts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Environment variable consulted by [`configure_from_env`]; the CLI
/// `--failpoints` flag overrides it.
pub const ENV_VAR: &str = "MMAES_FAILPOINTS";

/// A fault an instrumented site must inject, as returned by [`check`]
/// / [`check_at`]. How each action manifests is the site's contract:
/// I/O sites turn `Io`/`Truncate` into write errors, worker sites turn
/// `Panic` into a real `panic!` and `Stall` into a sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the operation with an injected I/O error.
    Io,
    /// Write a truncated temporary file, then fail the operation —
    /// models a crash (or ENOSPC) mid-write, before the atomic rename.
    Truncate,
    /// Panic at the site (contained by the worker supervisor).
    Panic,
    /// Sleep this many milliseconds before proceeding (trips the
    /// heartbeat watchdog when it exceeds the stall timeout).
    Stall(u64),
}

impl Fault {
    /// The injected [`std::io::Error`] for `Io`/`Truncate` faults at
    /// the named site.
    pub fn as_io_error(&self, site: &str) -> std::io::Error {
        let detail = match self {
            Fault::Truncate => "injected truncated write",
            _ => "injected I/O error",
        };
        std::io::Error::other(format!("{detail} (failpoint {site})"))
    }
}

/// When a registered entry fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// Every eligible hit (up to the fire budget).
    Always,
    /// Only when the hit counter (I/O sites) or batch index (`worker`)
    /// equals this value.
    At(u64),
}

#[derive(Debug, Clone)]
struct Entry {
    site: String,
    fault: Fault,
    trigger: Trigger,
    /// Remaining fire budget; `None` is unlimited.
    remaining: Option<u64>,
    /// Hits observed so far (1-based after the first check).
    hits: u64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Vec<Entry>> {
    static REGISTRY: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_registry() -> MutexGuard<'static, Vec<Entry>> {
    registry().lock().unwrap_or_else(|poisoned| {
        // Failpoint tests panic on purpose; a poisoned registry lock
        // carries no broken invariant worth propagating.
        poisoned.into_inner()
    })
}

fn parse_count(text: &str) -> Result<Option<u64>, String> {
    if text == "*" {
        return Ok(None);
    }
    text.parse::<u64>()
        .map(Some)
        .map_err(|_| format!("invalid count {text:?} (expected a number or '*')"))
}

fn parse_action(text: &str) -> Result<Fault, String> {
    match text {
        "ioerr" => Ok(Fault::Io),
        "truncate" => Ok(Fault::Truncate),
        "panic" => Ok(Fault::Panic),
        "stall" => Ok(Fault::Stall(100)),
        _ => {
            if let Some(ms) = text
                .strip_prefix("stall(")
                .and_then(|rest| rest.strip_suffix(')'))
            {
                let ms = ms
                    .parse::<u64>()
                    .map_err(|_| format!("invalid stall duration {ms:?}"))?;
                return Ok(Fault::Stall(ms));
            }
            Err(format!(
                "unknown action {text:?} (expected ioerr, truncate, panic, or stall[(MS)])"
            ))
        }
    }
}

fn parse_entry(entry: &str) -> Result<Entry, String> {
    let (site, rest) = entry
        .split_once('=')
        .ok_or_else(|| format!("missing '=' in failpoint entry {entry:?}"))?;
    if site.is_empty() {
        return Err(format!("empty site in failpoint entry {entry:?}"));
    }
    // Split off the suffixes in order: action [@WHEN] [xCOUNT].
    let (rest, count) = match rest.split_once('x') {
        Some((head, count)) => (head, Some(parse_count(count)?)),
        None => (rest, None),
    };
    let (action, trigger) = match rest.split_once('@') {
        Some((head, "*")) => (head, Trigger::Always),
        Some((head, at)) => {
            let at: u64 = at
                .parse()
                .map_err(|_| format!("invalid '@' index {at:?} (expected a number or '*')"))?;
            (head, Trigger::At(at))
        }
        None => (rest, Trigger::Always),
    };
    Ok(Entry {
        site: site.to_owned(),
        fault: parse_action(action)?,
        trigger,
        remaining: count.unwrap_or(Some(1)),
        hits: 0,
    })
}

/// Installs a fault schedule, replacing any previous one. An empty (or
/// all-whitespace) spec clears the registry and deactivates the fast
/// path. Returns a description of the first malformed entry on error,
/// leaving the previous schedule in place.
pub fn configure(spec: &str) -> Result<(), String> {
    let normalized: String = spec.chars().filter(|c| !c.is_whitespace()).collect();
    let entries: Vec<Entry> = normalized
        .split([';', ','])
        .filter(|entry| !entry.is_empty())
        .map(parse_entry)
        .collect::<Result<_, _>>()?;
    let mut registry = lock_registry();
    ACTIVE.store(!entries.is_empty(), Ordering::Release);
    *registry = entries;
    Ok(())
}

/// Reads [`ENV_VAR`] and installs its schedule. Returns `Ok(true)`
/// when a schedule was installed, `Ok(false)` when the variable is
/// unset or empty.
pub fn configure_from_env() -> Result<bool, String> {
    match std::env::var(ENV_VAR) {
        Ok(spec) if !spec.trim().is_empty() => {
            configure(&spec).map_err(|error| format!("{ENV_VAR}: {error}"))?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Clears the registry and deactivates the fast path.
pub fn clear() {
    ACTIVE.store(false, Ordering::Release);
    lock_registry().clear();
}

/// Whether any failpoints are installed — the no-op fast path.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

fn consult(site: &str, index_of: impl Fn(u64) -> u64) -> Option<Fault> {
    if !active() {
        return None;
    }
    let mut registry = lock_registry();
    for entry in registry.iter_mut() {
        if entry.site != site {
            continue;
        }
        entry.hits += 1;
        let eligible = match entry.trigger {
            Trigger::Always => true,
            Trigger::At(at) => at == index_of(entry.hits),
        };
        let budgeted = entry.remaining != Some(0);
        if eligible && budgeted {
            if let Some(remaining) = &mut entry.remaining {
                *remaining -= 1;
            }
            return Some(entry.fault);
        }
    }
    None
}

/// Consults the registry at an I/O site, keyed by the site's own
/// 1-based hit counter. Returns the fault to inject, if any.
pub fn check(site: &str) -> Option<Fault> {
    consult(site, |hits| hits)
}

/// Consults the registry at an indexed site — the `worker` site passes
/// the batch number, so `worker=panic@3` strikes batch 3 regardless of
/// which thread claims it (and strikes its retries, until the fire
/// budget runs out).
pub fn check_at(site: &str, index: u64) -> Option<Fault> {
    consult(site, |_| index)
}

/// Applies any injected fault at an I/O site, in one call instrumented
/// writers place before their real work: `Io` returns the injected
/// error; `Truncate` writes the first half of `payload` to `tmp`
/// (modelling a crash or ENOSPC mid-write, before the atomic rename)
/// and returns the injected error; `Panic` panics; `Stall` sleeps,
/// then lets the write proceed. Returns `Ok(())` — at one atomic load
/// of cost — when no failpoint fires.
pub fn inject_io(
    site: &str,
    truncate_target: Option<(&std::path::Path, &[u8])>,
) -> std::io::Result<()> {
    let Some(fault) = check(site) else {
        return Ok(());
    };
    match fault {
        Fault::Io => Err(fault.as_io_error(site)),
        Fault::Truncate => {
            if let Some((tmp, payload)) = truncate_target {
                let _ = std::fs::write(tmp, &payload[..payload.len() / 2]);
            }
            Err(fault.as_io_error(site))
        }
        Fault::Panic => panic!("injected panic (failpoint {site})"),
        Fault::Stall(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
    }
}

/// A test guard from [`scoped`]: holds a process-wide gate so
/// failpoint tests serialize, and clears the registry (and the
/// [`crate::degraded`] registry) when dropped.
pub struct ScopedFailpoints {
    _gate: MutexGuard<'static, ()>,
}

impl Drop for ScopedFailpoints {
    fn drop(&mut self) {
        clear();
        crate::degraded::clear();
    }
}

/// Installs a schedule for the duration of the returned guard. The
/// registry is process-global state; tests that inject faults must
/// hold this guard so `cargo test`'s parallel threads cannot observe
/// each other's schedules. Entering the guard clears any degraded-sink
/// marks left by a previous test.
///
/// # Panics
///
/// Panics when `spec` is malformed — test schedules are written by
/// hand and a typo should fail loudly.
pub fn scoped(spec: &str) -> ScopedFailpoints {
    static GATE: Mutex<()> = Mutex::new(());
    let gate = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    crate::degraded::clear();
    configure(spec).expect("valid failpoint spec");
    ScopedFailpoints { _gate: gate }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_registry_is_a_no_op() {
        let _guard = scoped("");
        assert!(!active());
        assert_eq!(check("snapshot.save"), None);
        assert_eq!(check_at("worker", 3), None);
    }

    #[test]
    fn single_shot_entries_fire_once() {
        let _guard = scoped("snapshot.save=ioerr");
        assert!(active());
        assert_eq!(check("snapshot.save"), Some(Fault::Io));
        assert_eq!(check("snapshot.save"), None, "budget exhausted");
        assert_eq!(check("status.write"), None, "other sites untouched");
    }

    #[test]
    fn hit_indexed_and_counted_entries_compose() {
        let _guard = scoped("status.write=truncate@2 x2");
        assert_eq!(check("status.write"), None, "hit 1");
        assert_eq!(check("status.write"), Some(Fault::Truncate), "hit 2");
        assert_eq!(check("status.write"), None, "hit 3 is past '@2'");
    }

    #[test]
    fn worker_entries_key_off_the_batch_index() {
        let _guard = scoped("worker=panic@3x2");
        assert_eq!(check_at("worker", 0), None);
        assert_eq!(check_at("worker", 3), Some(Fault::Panic));
        assert_eq!(check_at("worker", 3), Some(Fault::Panic), "first retry");
        assert_eq!(check_at("worker", 3), None, "budget spent: retry succeeds");
    }

    #[test]
    fn unlimited_budgets_and_stall_durations_parse() {
        let _guard = scoped("worker=stall(250)@*x*; metrics.write=ioerr x*");
        for batch in 0..4 {
            assert_eq!(check_at("worker", batch), Some(Fault::Stall(250)));
        }
        for _ in 0..4 {
            assert_eq!(check("metrics.write"), Some(Fault::Io));
        }
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _guard = scoped("");
        for spec in [
            "worker",
            "=panic",
            "worker=explode",
            "worker=panic@x",
            "worker=panic@2~0.5:1",
            "worker=stall(fast)",
            "worker=panic~2:1",
            "worker=panic~0.5",
            "metrics.write=ioerr x*~0.5:7",
        ] {
            assert!(configure(spec).is_err(), "{spec:?} must be rejected");
        }
        // A failed configure leaves the previous (empty) schedule.
        assert!(!active());
    }

    #[test]
    fn faults_render_as_io_errors() {
        let error = Fault::Io.as_io_error("snapshot.save");
        assert!(error.to_string().contains("snapshot.save"), "{error}");
        let error = Fault::Truncate.as_io_error("status.write");
        assert!(error.to_string().contains("truncated"), "{error}");
    }
}
