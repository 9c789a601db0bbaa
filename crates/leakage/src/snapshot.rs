//! Crash-safe campaign snapshots.
//!
//! A long fixed-vs-random campaign is a pure fold over batches: all of
//! its state is the per-probing-set contingency tables plus the batch
//! counter (the RNG is re-derived per batch from the seed, see
//! `batch_rng` in the campaign module). This module serializes exactly
//! that state so an interrupted campaign can resume bit-identically.
//!
//! # Format
//!
//! A line-based text format, deliberately free of external
//! dependencies and byte-deterministic (table keys are written in
//! sorted order, floats as IEEE-754 bit patterns):
//!
//! ```text
//! mmaes-campaign-snapshot v2
//! config <fingerprint-hex>
//! statistic <gtest|ttest>
//! progress <batches_done> <total_batches>
//! cell_evals <n>
//! table <index> <samples> <overflow0> <overflow1> <flagged>
//! k <key-hex> <count0> <count1>
//! traj <traces> <minus_log10_p as f64 bits, hex>
//! end
//! ```
//!
//! The trailing `end` line detects truncated writes; [`save`] writes to
//! a temporary file, fsyncs and renames, so a crash mid-write leaves
//! either the previous snapshot or a `.tmp` file — never a torn one.
//!
//! # Versioning
//!
//! v2 added the `statistic` record. A G-test campaign serializes in the
//! v1 layout (header `v1`, no `statistic` line) — **byte-identical** to
//! snapshots written before v2 existed — and every v1 file loads as a
//! G-test snapshot, so pre-existing snapshots remain resumable and the
//! G-test byte-identity contract is untouched. Only a non-default
//! statistic opts a file into the v2 layout.
//!
//! The snapshot schema is versioned independently of the telemetry
//! event schema ([`mmaes_telemetry::EVENT_SCHEMA_VERSION`]); a version
//! or config-fingerprint mismatch is a typed error, not a panic, so
//! CLIs can refuse with exit code 2.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::stats::StatisticKind;

/// Newest version of the snapshot file format. Bumped on any layout
/// change; [`load`] accepts every version up to this one and rejects
/// newer ones with [`SnapshotError::VersionMismatch`].
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 2;

const MAGIC: &str = "mmaes-campaign-snapshot";

/// Serialized state of one probing set's contingency table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableSnapshot {
    /// Observations recorded (including overflow).
    pub samples: u64,
    /// Pooled counts beyond the key cap, per population.
    pub overflow: [u64; 2],
    /// Whether this probing set already crossed the threshold (so the
    /// `probe_flagged` event is not re-emitted after resume).
    pub flagged: bool,
    /// Contingency cells, sorted by key for byte-determinism.
    pub counts: Vec<(u128, [u64; 2])>,
    /// Checkpoint trajectory recorded so far: (traces, -log10(p)).
    pub trajectory: Vec<(u64, f64)>,
}

impl TableSnapshot {
    /// Builds a snapshot from a live count map (sorts by key).
    pub fn from_counts(
        counts: &HashMap<u128, [u64; 2]>,
        overflow: [u64; 2],
        samples: u64,
        flagged: bool,
        trajectory: &[(u64, f64)],
    ) -> Self {
        let mut sorted: Vec<(u128, [u64; 2])> =
            counts.iter().map(|(&key, &cell)| (key, cell)).collect();
        sorted.sort_unstable_by_key(|&(key, _)| key);
        TableSnapshot {
            samples,
            overflow,
            flagged,
            counts: sorted,
            trajectory: trajectory.to_vec(),
        }
    }

    /// Builds a snapshot from already-sorted columns (as
    /// [`crate::tabulate::Table::sorted_columns`] memoizes them), so a
    /// checkpoint's G-test sweep and its snapshot share one sort.
    pub fn from_sorted(
        counts: Vec<(u128, [u64; 2])>,
        overflow: [u64; 2],
        samples: u64,
        flagged: bool,
        trajectory: &[(u64, f64)],
    ) -> Self {
        debug_assert!(counts.windows(2).all(|pair| pair[0].0 < pair[1].0));
        TableSnapshot {
            samples,
            overflow,
            flagged,
            counts,
            trajectory: trajectory.to_vec(),
        }
    }
}

/// The complete serialized state of a paused campaign.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignSnapshot {
    /// Fingerprint of every sampling-relevant configuration field (and
    /// the probing-set list); [`load`] refuses a snapshot whose
    /// fingerprint differs from the resuming campaign's.
    pub config_fingerprint: u64,
    /// The detection statistic the campaign runs under. v1 files carry
    /// no statistic record and load as [`StatisticKind::GTest`].
    pub statistic: StatisticKind,
    /// Batches folded into the tables so far.
    pub batches_done: u64,
    /// The campaign's total batch count.
    pub total_batches: u64,
    /// Cumulative simulator cell evaluations (across all resumed legs).
    pub cell_evals: u64,
    /// One entry per probing set, in enumeration order.
    pub tables: Vec<TableSnapshot>,
}

/// Error loading or saving a [`CampaignSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Filesystem error (message includes the path).
    Io(String),
    /// The file is not a parsable snapshot.
    Corrupt {
        /// 1-based line number of the first offending line.
        line: usize,
        /// What went wrong there.
        reason: String,
    },
    /// The file is a snapshot of an unsupported schema version.
    VersionMismatch {
        /// The version found in the file.
        found: u64,
    },
    /// The snapshot was taken under a different campaign configuration.
    ConfigMismatch {
        /// Fingerprint stored in the file.
        found: u64,
        /// Fingerprint of the resuming campaign.
        expected: u64,
    },
    /// The file ends before the `end` marker (torn write).
    Truncated,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(message) => write!(formatter, "snapshot I/O error: {message}"),
            SnapshotError::Corrupt { line, reason } => {
                write!(formatter, "corrupt snapshot at line {line}: {reason}")
            }
            SnapshotError::VersionMismatch { found } => write!(
                formatter,
                "snapshot schema version {found} is not supported (newest supported: {SNAPSHOT_SCHEMA_VERSION})"
            ),
            SnapshotError::ConfigMismatch { found, expected } => write!(
                formatter,
                "snapshot was taken under a different configuration \
                 (fingerprint {found:016x}, campaign has {expected:016x})"
            ),
            SnapshotError::Truncated => {
                write!(formatter, "snapshot is truncated (missing `end` marker)")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl CampaignSnapshot {
    /// Renders the snapshot in the versioned text format. A G-test
    /// snapshot serializes in the v1 layout (no `statistic` record), so
    /// its bytes are identical to pre-v2 snapshots; a non-default
    /// statistic opts into v2.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.statistic == StatisticKind::GTest {
            out.push_str(&format!("{MAGIC} v1\n"));
            out.push_str(&format!("config {:016x}\n", self.config_fingerprint));
        } else {
            out.push_str(&format!("{MAGIC} v{SNAPSHOT_SCHEMA_VERSION}\n"));
            out.push_str(&format!("config {:016x}\n", self.config_fingerprint));
            out.push_str(&format!("statistic {}\n", self.statistic.name()));
        }
        out.push_str(&format!(
            "progress {} {}\n",
            self.batches_done, self.total_batches
        ));
        out.push_str(&format!("cell_evals {}\n", self.cell_evals));
        for (index, table) in self.tables.iter().enumerate() {
            out.push_str(&format!(
                "table {index} {} {} {} {}\n",
                table.samples,
                table.overflow[0],
                table.overflow[1],
                u8::from(table.flagged)
            ));
            for &(key, cell) in &table.counts {
                out.push_str(&format!("k {key:x} {} {}\n", cell[0], cell[1]));
            }
            for &(traces, value) in &table.trajectory {
                out.push_str(&format!("traj {traces} {:016x}\n", value.to_bits()));
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parses the text format.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`], [`SnapshotError::VersionMismatch`] or
    /// [`SnapshotError::Truncated`] as appropriate.
    pub fn from_text(text: &str) -> Result<Self, SnapshotError> {
        let corrupt = |line: usize, reason: &str| SnapshotError::Corrupt {
            line,
            reason: reason.to_owned(),
        };
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or(SnapshotError::Truncated)?;
        let version = header
            .strip_prefix(MAGIC)
            .and_then(|rest| rest.trim().strip_prefix('v'))
            .ok_or_else(|| corrupt(1, "missing snapshot header"))?
            .parse::<u64>()
            .map_err(|_| corrupt(1, "unparsable version"))?;
        if version == 0 || version > SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::VersionMismatch { found: version });
        }
        let mut snapshot = CampaignSnapshot::default();
        let mut saw_end = false;
        for (index, line) in lines {
            let number = index + 1;
            let mut fields = line.split_ascii_whitespace();
            match fields.next() {
                Some("config") => {
                    snapshot.config_fingerprint = fields
                        .next()
                        .and_then(|value| u64::from_str_radix(value, 16).ok())
                        .ok_or_else(|| corrupt(number, "bad config fingerprint"))?;
                }
                Some("statistic") => {
                    snapshot.statistic = fields
                        .next()
                        .and_then(StatisticKind::parse)
                        .ok_or_else(|| corrupt(number, "unknown statistic"))?;
                }
                Some("progress") => {
                    snapshot.batches_done = fields
                        .next()
                        .and_then(|value| value.parse().ok())
                        .ok_or_else(|| corrupt(number, "bad batches_done"))?;
                    snapshot.total_batches = fields
                        .next()
                        .and_then(|value| value.parse().ok())
                        .ok_or_else(|| corrupt(number, "bad total_batches"))?;
                }
                Some("cell_evals") => {
                    snapshot.cell_evals = fields
                        .next()
                        .and_then(|value| value.parse().ok())
                        .ok_or_else(|| corrupt(number, "bad cell_evals"))?;
                }
                Some("table") => {
                    let expected_index: usize = fields
                        .next()
                        .and_then(|value| value.parse().ok())
                        .ok_or_else(|| corrupt(number, "bad table index"))?;
                    if expected_index != snapshot.tables.len() {
                        return Err(corrupt(number, "table index out of order"));
                    }
                    let mut parse = |what: &str| {
                        fields
                            .next()
                            .and_then(|value| value.parse::<u64>().ok())
                            .ok_or_else(|| corrupt(number, what))
                    };
                    let samples = parse("bad samples")?;
                    let overflow0 = parse("bad overflow")?;
                    let overflow1 = parse("bad overflow")?;
                    let flagged = parse("bad flagged")?;
                    snapshot.tables.push(TableSnapshot {
                        samples,
                        overflow: [overflow0, overflow1],
                        flagged: flagged != 0,
                        counts: Vec::new(),
                        trajectory: Vec::new(),
                    });
                }
                Some("k") => {
                    let table = snapshot
                        .tables
                        .last_mut()
                        .ok_or_else(|| corrupt(number, "count before any table"))?;
                    let key = fields
                        .next()
                        .and_then(|value| u128::from_str_radix(value, 16).ok())
                        .ok_or_else(|| corrupt(number, "bad key"))?;
                    let count0 = fields
                        .next()
                        .and_then(|value| value.parse().ok())
                        .ok_or_else(|| corrupt(number, "bad count"))?;
                    let count1 = fields
                        .next()
                        .and_then(|value| value.parse().ok())
                        .ok_or_else(|| corrupt(number, "bad count"))?;
                    table.counts.push((key, [count0, count1]));
                }
                Some("traj") => {
                    let table = snapshot
                        .tables
                        .last_mut()
                        .ok_or_else(|| corrupt(number, "trajectory before any table"))?;
                    let traces = fields
                        .next()
                        .and_then(|value| value.parse().ok())
                        .ok_or_else(|| corrupt(number, "bad trajectory traces"))?;
                    let bits = fields
                        .next()
                        .and_then(|value| u64::from_str_radix(value, 16).ok())
                        .ok_or_else(|| corrupt(number, "bad trajectory value"))?;
                    table.trajectory.push((traces, f64::from_bits(bits)));
                }
                Some("end") => {
                    saw_end = true;
                    break;
                }
                Some(other) => {
                    return Err(corrupt(number, &format!("unknown record `{other}`")));
                }
                None => {} // blank line
            }
        }
        if !saw_end {
            return Err(SnapshotError::Truncated);
        }
        Ok(snapshot)
    }
}

/// Writes the snapshot atomically: temporary file in the same
/// directory, fsync, rename over the destination, best-effort directory
/// sync. A crash at any point leaves either the old snapshot or a
/// `.tmp` leftover — never a torn file.
///
/// # Errors
///
/// [`SnapshotError::Io`] with the failing path in the message.
pub fn save(snapshot: &CampaignSnapshot, path: &Path) -> Result<(), SnapshotError> {
    let io_error = |context: &str, error: std::io::Error| {
        SnapshotError::Io(format!("{context} {}: {error}", path.display()))
    };
    let tmp = path.with_extension("tmp");
    // Deterministic fault injection (`--failpoints snapshot.save=...`):
    // the chaos harness strikes here, before the real write, so an
    // injected ENOSPC or truncation never corrupts the destination.
    // Guarded on `active()` so the inactive fast path never pays for
    // the serialized payload.
    if mmaes_telemetry::failpoint::active() {
        mmaes_telemetry::failpoint::inject_io(
            "snapshot.save",
            Some((&tmp, snapshot.to_text().as_bytes())),
        )
        .map_err(|error| io_error("write", error))?;
    }
    {
        let mut file = fs::File::create(&tmp).map_err(|error| io_error("create", error))?;
        file.write_all(snapshot.to_text().as_bytes())
            .map_err(|error| io_error("write", error))?;
        file.sync_all().map_err(|error| io_error("fsync", error))?;
    }
    fs::rename(&tmp, path).map_err(|error| io_error("rename", error))?;
    if let Some(parent) = path.parent() {
        // Durability of the rename itself; non-fatal where unsupported.
        if let Ok(directory) = fs::File::open(parent) {
            let _ = directory.sync_all();
        }
    }
    Ok(())
}

/// [`save`] with the bounded retry-with-backoff budget of
/// [`mmaes_telemetry::degraded::retry`]: transient failures (or a
/// bounded fault schedule) recover invisibly; persistent ones surface
/// the last error so the caller can degrade or propagate.
pub fn save_with_retry(snapshot: &CampaignSnapshot, path: &Path) -> Result<(), SnapshotError> {
    mmaes_telemetry::degraded::retry(|| save(snapshot, path))
}

/// Removes a stale `.tmp` sibling left next to `path` by a crash
/// mid-rename (or an injected truncation) in a previous run. Called on
/// campaign startup; best-effort, the atomic-rename discipline never
/// reads `.tmp` files.
pub fn reap_stale_tmp(path: &Path) {
    let tmp = path.with_extension("tmp");
    if tmp.exists() {
        let _ = fs::remove_file(&tmp);
    }
}

/// Loads and parses a snapshot file.
///
/// # Errors
///
/// [`SnapshotError::Io`] if the file cannot be read, otherwise the
/// parse errors of [`CampaignSnapshot::from_text`].
pub fn load(path: &Path) -> Result<CampaignSnapshot, SnapshotError> {
    let text = fs::read_to_string(path)
        .map_err(|error| SnapshotError::Io(format!("read {}: {error}", path.display())))?;
    CampaignSnapshot::from_text(&text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignSnapshot {
        CampaignSnapshot {
            config_fingerprint: 0xdead_beef_0123_4567,
            batches_done: 42,
            total_batches: 100,
            cell_evals: 1_234_567,
            statistic: StatisticKind::GTest,
            tables: vec![
                TableSnapshot {
                    samples: 2688,
                    overflow: [3, 5],
                    flagged: true,
                    counts: vec![(0, [100, 90]), (1, [1200, 1298]), (u128::MAX, [0, 7])],
                    trajectory: vec![(640, 0.5), (1280, 17.25)],
                },
                TableSnapshot::default(),
            ],
        }
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let snapshot = sample();
        let text = snapshot.to_text();
        let parsed = CampaignSnapshot::from_text(&text).expect("parses");
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn serialization_is_byte_deterministic() {
        // Same logical content through a HashMap must serialize
        // identically regardless of hash iteration order.
        let mut counts = HashMap::new();
        counts.insert(7u128, [1u64, 2u64]);
        counts.insert(3u128, [5u64, 6u64]);
        let a = TableSnapshot::from_counts(&counts, [0, 0], 14, false, &[]);
        assert_eq!(a.counts, vec![(3, [5, 6]), (7, [1, 2])]);
        let snapshot = CampaignSnapshot {
            tables: vec![a],
            ..CampaignSnapshot::default()
        };
        assert_eq!(snapshot.to_text(), snapshot.clone().to_text());
    }

    #[test]
    fn gtest_snapshots_keep_the_v1_byte_layout() {
        // The byte-identity contract: a default-statistic snapshot must
        // serialize exactly as it did before the v2 schema existed.
        let snapshot = sample();
        assert_eq!(snapshot.statistic, StatisticKind::GTest);
        let text = snapshot.to_text();
        assert!(text.starts_with("mmaes-campaign-snapshot v1\n"), "{text}");
        assert!(!text.contains("statistic"), "{text}");
        let parsed = CampaignSnapshot::from_text(&text).expect("v1 parses");
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn ttest_snapshots_roundtrip_through_the_v2_layout() {
        let snapshot = CampaignSnapshot {
            statistic: StatisticKind::TTest,
            ..sample()
        };
        let text = snapshot.to_text();
        assert!(text.starts_with("mmaes-campaign-snapshot v2\n"), "{text}");
        assert!(text.contains("statistic ttest\n"), "{text}");
        let parsed = CampaignSnapshot::from_text(&text).expect("v2 parses");
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn v2_rejects_an_unknown_statistic() {
        let text = CampaignSnapshot {
            statistic: StatisticKind::TTest,
            ..sample()
        }
        .to_text()
        .replace("statistic ttest", "statistic chi2");
        let error = CampaignSnapshot::from_text(&text).expect_err("rejects");
        assert!(matches!(error, SnapshotError::Corrupt { .. }), "{error}");
    }

    #[test]
    fn version_mismatch_is_typed() {
        let text = sample().to_text().replace("snapshot v1", "snapshot v99");
        assert_eq!(
            CampaignSnapshot::from_text(&text),
            Err(SnapshotError::VersionMismatch { found: 99 })
        );
    }

    #[test]
    fn truncation_is_detected() {
        let text = sample().to_text();
        let cut = &text[..text.len() - 5]; // drop the `end` marker
        assert_eq!(
            CampaignSnapshot::from_text(cut),
            Err(SnapshotError::Truncated)
        );
    }

    #[test]
    fn garbage_is_corrupt_not_a_panic() {
        let error = CampaignSnapshot::from_text("not a snapshot\n").expect_err("rejects");
        assert!(
            matches!(error, SnapshotError::Corrupt { line: 1, .. }),
            "{error}"
        );
        let bad_record = format!("{MAGIC} v1\nwat 3\nend\n");
        let error = CampaignSnapshot::from_text(&bad_record).expect_err("rejects");
        assert!(
            matches!(error, SnapshotError::Corrupt { line: 2, .. }),
            "{error}"
        );
    }

    #[test]
    fn save_and_load_through_a_file() {
        // Hold the failpoint gate: the fault tests below share this
        // process and must not inject into this save.
        let _guard = mmaes_telemetry::failpoint::scoped("");
        let directory = std::env::temp_dir().join("mmaes-snapshot-test");
        fs::create_dir_all(&directory).expect("mkdir");
        let path = directory.join("roundtrip.snapshot");
        let snapshot = sample();
        save(&snapshot, &path).expect("saves");
        let loaded = load(&path).expect("loads");
        assert_eq!(loaded, snapshot);
        // Overwrite is atomic: saving again leaves no .tmp behind.
        save(&snapshot, &path).expect("saves again");
        assert!(!path.with_extension("tmp").exists());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_enospc_fails_cleanly_and_leaves_no_file() {
        // A persistent I/O failure (modelling ENOSPC) must exhaust the
        // retry budget, surface a typed error, and leave nothing — no
        // destination, no `.tmp` — behind.
        let _guard = mmaes_telemetry::failpoint::scoped("snapshot.save=ioerr x*");
        let directory = std::env::temp_dir().join("mmaes-snapshot-enospc-test");
        fs::create_dir_all(&directory).expect("mkdir");
        let path = directory.join("full-disk.snapshot");
        let error = save_with_retry(&sample(), &path).expect_err("injected ENOSPC");
        assert!(matches!(error, SnapshotError::Io(_)), "{error}");
        assert!(error.to_string().contains("injected"), "{error}");
        assert!(!path.exists(), "no snapshot file under persistent ENOSPC");
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn bounded_faults_recover_within_the_retry_budget() {
        // Two injected failures, a budget of three attempts: the
        // campaign never notices.
        let _guard = mmaes_telemetry::failpoint::scoped("snapshot.save=ioerr x2");
        let directory = std::env::temp_dir().join("mmaes-snapshot-retry-test");
        fs::create_dir_all(&directory).expect("mkdir");
        let path = directory.join("transient.snapshot");
        save_with_retry(&sample(), &path).expect("third attempt lands");
        assert_eq!(load(&path).expect("loads"), sample());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_writes_leave_the_previous_snapshot_intact() {
        // `@2`: the first save succeeds, the second is torn mid-write.
        let _guard = mmaes_telemetry::failpoint::scoped("snapshot.save=truncate@2");
        let directory = std::env::temp_dir().join("mmaes-snapshot-truncate-test");
        fs::create_dir_all(&directory).expect("mkdir");
        let path = directory.join("torn.snapshot");
        save(&sample(), &path).expect("first save lands");
        let error = save(&sample(), &path).expect_err("second save is torn");
        assert!(matches!(error, SnapshotError::Io(_)), "{error}");
        // The torn bytes sit in `.tmp`; the published path still holds
        // the complete previous snapshot.
        let tmp = path.with_extension("tmp");
        assert!(tmp.exists(), "torn write leaves a .tmp leftover");
        assert!(
            CampaignSnapshot::from_text(&fs::read_to_string(&tmp).unwrap()).is_err(),
            "the leftover really is torn"
        );
        assert_eq!(load(&path).expect("previous snapshot intact"), sample());
        // Startup reaping clears the leftover.
        reap_stale_tmp(&path);
        assert!(!tmp.exists(), "stale tmp reaped");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn unwritable_directory_is_a_typed_error_not_a_panic() {
        // A snapshot path whose directory does not exist (the portable
        // stand-in for a read-only directory — these tests may run as
        // root, where permission bits do not bite) must fail typed
        // through the whole retry budget. Its saves pass through the
        // process-global failpoint registry, so hold the gate: otherwise
        // they would consume the hit counts of a concurrent fault test.
        let _guard = mmaes_telemetry::failpoint::scoped("");
        let path = std::env::temp_dir()
            .join("mmaes-snapshot-missing-dir-test")
            .join("nonexistent")
            .join("x.snapshot");
        let error = save_with_retry(&sample(), &path).expect_err("unwritable directory");
        assert!(matches!(error, SnapshotError::Io(_)), "{error}");
        assert!(error.to_string().contains("create"), "{error}");
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let error = load(Path::new("/nonexistent/mmaes.snapshot")).expect_err("missing");
        assert!(matches!(error, SnapshotError::Io(_)), "{error}");
    }

    #[test]
    fn nan_trajectories_roundtrip_bit_exactly() {
        let snapshot = CampaignSnapshot {
            tables: vec![TableSnapshot {
                trajectory: vec![(64, f64::NAN), (128, f64::INFINITY)],
                ..TableSnapshot::default()
            }],
            ..CampaignSnapshot::default()
        };
        let parsed = CampaignSnapshot::from_text(&snapshot.to_text()).expect("parses");
        let trajectory = &parsed.tables[0].trajectory;
        assert_eq!(trajectory[0].1.to_bits(), f64::NAN.to_bits());
        assert_eq!(trajectory[1].1, f64::INFINITY);
    }
}
