//! Crash-safe campaign snapshots.
//!
//! A long fixed-vs-random campaign is a pure fold over batches: all of
//! its state is the per-probing-set contingency tables plus the batch
//! counter (the RNG is re-derived per batch from the seed, see
//! `batch_rng` in the engine module). This module serializes exactly
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
//! One encoder renders the format: it appends every record into one
//! byte buffer, formatting the numbers by hand. A running campaign
//! encodes straight from its live tables, walking each table's settled
//! columns in key order in place (no [`CampaignSnapshot`] in between),
//! and then writes those bytes, so a retried save rewrites the same
//! buffer; [`CampaignSnapshot::to_text`] and [`save`] render a
//! materialized snapshot through the same encoder. [`load`] parses the
//! file's bytes directly, reading numbers exactly as `str::parse` and
//! `from_str_radix` read them.
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

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::stats::StatisticKind;
use crate::tabulate::Columns;

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

/// The campaign-level records ahead of the tables.
pub(crate) struct Header {
    pub(crate) config_fingerprint: u64,
    pub(crate) statistic: StatisticKind,
    pub(crate) batches_done: u64,
    pub(crate) total_batches: u64,
    pub(crate) cell_evals: u64,
}

/// One table's state as the encoder reads it. Borrowed, so a campaign
/// encodes straight from its live tables' columns without copying them
/// into a [`TableSnapshot`] first.
pub(crate) struct TableView<'a> {
    pub(crate) samples: u64,
    pub(crate) overflow: [u64; 2],
    pub(crate) flagged: bool,
    /// Sorted by key.
    pub(crate) counts: Columns<'a>,
    pub(crate) trajectory: &'a [(u64, f64)],
}

/// Columns the encoder gathers from a table before formatting any of
/// them. A dense table's occupied cells lie far apart, so reading each
/// one misses the cache; a tight gathering loop overlaps those misses,
/// where the formatting between them would serialize them.
const GATHER: usize = 64;

/// Renders the versioned text format into one byte buffer, formatting
/// every number by hand: the format's only encoder. A G-test snapshot
/// serializes in the v1 layout (no `statistic` record), so its bytes
/// are identical to pre-v2 snapshots; a non-default statistic opts
/// into v2.
pub(crate) fn encode(header: &Header, tables: &[TableView<'_>]) -> Vec<u8> {
    // Generous for the typical line; pages the estimate overshoots are
    // never touched. A dense table's column count is its bitmap's
    // popcount.
    let capacity = 128
        + tables
            .iter()
            .map(|table| 64 + 24 * table.counts.len() + 48 * table.trajectory.len())
            .sum::<usize>();
    let mut out = Vec::with_capacity(capacity);
    out.extend_from_slice(MAGIC.as_bytes());
    if header.statistic == StatisticKind::GTest {
        out.extend_from_slice(b" v1\nconfig ");
        push_hex(&mut out, header.config_fingerprint.into(), 16);
    } else {
        out.extend_from_slice(b" v");
        push_decimal(&mut out, SNAPSHOT_SCHEMA_VERSION);
        out.extend_from_slice(b"\nconfig ");
        push_hex(&mut out, header.config_fingerprint.into(), 16);
        out.extend_from_slice(b"\nstatistic ");
        out.extend_from_slice(header.statistic.name().as_bytes());
    }
    out.extend_from_slice(b"\nprogress ");
    push_decimal(&mut out, header.batches_done);
    out.push(b' ');
    push_decimal(&mut out, header.total_batches);
    out.extend_from_slice(b"\ncell_evals ");
    push_decimal(&mut out, header.cell_evals);
    out.push(b'\n');
    for (index, table) in tables.iter().enumerate() {
        out.extend_from_slice(b"table ");
        push_decimal(&mut out, index as u64);
        for value in [table.samples, table.overflow[0], table.overflow[1]] {
            out.push(b' ');
            push_decimal(&mut out, value);
        }
        out.extend_from_slice(if table.flagged { b" 1\n" } else { b" 0\n" });
        // `for_each`, so the walk dispatches on its store once.
        let mut gathered = [(0u128, [0u64; 2]); GATHER];
        let mut filled = 0;
        table.counts.clone().for_each(|column| {
            gathered[filled] = column;
            filled += 1;
            if filled == GATHER {
                push_columns(&mut out, &gathered);
                filled = 0;
            }
        });
        push_columns(&mut out, &gathered[..filled]);
        for &(traces, value) in table.trajectory {
            out.extend_from_slice(b"traj ");
            push_decimal(&mut out, traces);
            out.push(b' ');
            push_hex(&mut out, value.to_bits().into(), 16);
            out.push(b'\n');
        }
    }
    out.extend_from_slice(b"end\n");
    out
}

/// Appends one `k <key> <fixed> <random>` line per column.
fn push_columns(out: &mut Vec<u8>, columns: &[(u128, [u64; 2])]) {
    for &(key, cell) in columns {
        out.extend_from_slice(b"k ");
        push_hex(out, key, 1);
        out.push(b' ');
        push_decimal(out, cell[0]);
        out.push(b' ');
        push_decimal(out, cell[1]);
        out.push(b'\n');
    }
}

/// Appends `value` in decimal (as `{}` formats it).
fn push_decimal(out: &mut Vec<u8>, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Appends `value` in lower-case hex, zero-padded to at least
/// `min_digits` digits (as `{:x}` formats it for 1, `{:016x}` for 16).
fn push_hex(out: &mut Vec<u8>, value: u128, min_digits: usize) {
    const NIBBLES: &[u8; 16] = b"0123456789abcdef";
    let significant = (128 - value.leading_zeros() as usize).div_ceil(4);
    let mut digits = [0u8; 32];
    let count = significant.max(min_digits);
    for (place, digit) in digits[..count].iter_mut().rev().enumerate() {
        *digit = NIBBLES[(value >> (4 * place)) as usize & 0xf];
    }
    out.extend_from_slice(&digits[..count]);
}

impl TableSnapshot {
    fn view(&self) -> TableView<'_> {
        TableView {
            samples: self.samples,
            overflow: self.overflow,
            flagged: self.flagged,
            counts: Columns::from(self.counts.as_slice()),
            trajectory: &self.trajectory,
        }
    }
}

impl CampaignSnapshot {
    /// The snapshot in the versioned text format, as bytes.
    fn encode(&self) -> Vec<u8> {
        let header = Header {
            config_fingerprint: self.config_fingerprint,
            statistic: self.statistic,
            batches_done: self.batches_done,
            total_batches: self.total_batches,
            cell_evals: self.cell_evals,
        };
        let tables: Vec<TableView<'_>> = self.tables.iter().map(TableSnapshot::view).collect();
        encode(&header, &tables)
    }

    /// Renders the snapshot in the versioned text format. A G-test
    /// snapshot serializes in the v1 layout (no `statistic` record), so
    /// its bytes are identical to pre-v2 snapshots; a non-default
    /// statistic opts into v2.
    pub fn to_text(&self) -> String {
        String::from_utf8(self.encode()).expect("the snapshot format is ASCII")
    }

    /// Parses the text format.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`], [`SnapshotError::VersionMismatch`] or
    /// [`SnapshotError::Truncated`] as appropriate.
    pub fn from_text(text: &str) -> Result<Self, SnapshotError> {
        parse(text.as_bytes())
    }
}

/// A [`SnapshotError::Corrupt`] at 1-based `line`.
fn corrupt(line: usize, reason: &str) -> SnapshotError {
    SnapshotError::Corrupt {
        line,
        reason: reason.to_owned(),
    }
}

/// A read position in the snapshot bytes: the current line's number
/// and the next unread byte. Records are lines; fields are separated by
/// ASCII whitespace, as `split_ascii_whitespace` separates them.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    /// The current line's next field, if it has one.
    fn field(&mut self) -> Option<&'a [u8]> {
        let separator = |byte: &u8| *byte != b'\n' && byte.is_ascii_whitespace();
        while self.bytes.get(self.at).is_some_and(separator) {
            self.at += 1;
        }
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|byte| !byte.is_ascii_whitespace())
        {
            self.at += 1;
        }
        (self.at > start).then(|| &self.bytes[start..self.at])
    }

    /// Skips the rest of the current line; `false` when no line follows
    /// (as `str::lines` sees it: a final newline starts no new line).
    fn next_line(&mut self) -> bool {
        match self.bytes[self.at..].iter().position(|&byte| byte == b'\n') {
            Some(offset) => {
                self.at += offset + 1;
                self.line += 1;
                self.at < self.bytes.len()
            }
            None => {
                self.at = self.bytes.len();
                false
            }
        }
    }

    /// The next field as a decimal `u64`, or `Corrupt` saying `what`.
    fn decimal(&mut self, what: &str) -> Result<u64, SnapshotError> {
        self.field()
            .and_then(parse_decimal)
            .ok_or_else(|| corrupt(self.line, what))
    }

    /// The next field as a hex `u128`, or `Corrupt` saying `what`.
    fn hex(&mut self, what: &str) -> Result<u128, SnapshotError> {
        self.field()
            .and_then(parse_hex)
            .ok_or_else(|| corrupt(self.line, what))
    }

    /// The next field as a hex `u64`, or `Corrupt` saying `what`.
    fn hex_u64(&mut self, what: &str) -> Result<u64, SnapshotError> {
        u64::try_from(self.hex(what)?).map_err(|_| corrupt(self.line, what))
    }
}

/// Digit values by byte (`0`–`9`, `a`–`f`, `A`–`F`); `0xff` marks a
/// byte that is no digit.
const HEX_DIGITS: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut digit = 0;
    while digit < 16 {
        table[b"0123456789abcdef"[digit] as usize] = digit as u8;
        table[b"0123456789ABCDEF"[digit] as usize] = digit as u8;
        digit += 1;
    }
    table
};

/// A decimal `u64` as `str::parse` reads one: an optional `+`, then at
/// least one digit, without overflow.
fn parse_decimal(field: &[u8]) -> Option<u64> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |value, &byte| {
        let digit = HEX_DIGITS[usize::from(byte)];
        if digit >= 10 {
            return None;
        }
        value.checked_mul(10)?.checked_add(u64::from(digit))
    })
}

/// A hex `u128` as `u128::from_str_radix(_, 16)` reads one: an optional
/// `+`, then at least one digit of either case, without overflow. The
/// first 16 digits accumulate in a `u64`: `u128` arithmetic per digit
/// was the parser's largest cost, and every dense-table key fits.
fn parse_hex(field: &[u8]) -> Option<u128> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    if digits.is_empty() {
        return None;
    }
    let (head, tail) = digits.split_at(digits.len().min(16));
    let head = head.iter().try_fold(0u64, |value, &byte| {
        let digit = HEX_DIGITS[usize::from(byte)];
        (digit < 16).then(|| value << 4 | u64::from(digit))
    })?;
    tail.iter().try_fold(u128::from(head), |value, &byte| {
        let digit = HEX_DIGITS[usize::from(byte)];
        (digit < 16 && value >> 124 == 0).then(|| value << 4 | u128::from(digit))
    })
}

/// Parses the text format straight from its bytes. Numbers read as
/// `str::parse` and `from_str_radix` read them, so every file the
/// format admits parses as it always has; a byte that belongs to no
/// valid field — a non-ASCII one included — makes its line corrupt.
fn parse(bytes: &[u8]) -> Result<CampaignSnapshot, SnapshotError> {
    if bytes.is_empty() {
        return Err(SnapshotError::Truncated);
    }
    let header_end = bytes
        .iter()
        .position(|&byte| byte == b'\n')
        .unwrap_or(bytes.len());
    let version = std::str::from_utf8(&bytes[..header_end])
        .ok()
        .and_then(|header| header.strip_prefix(MAGIC))
        .and_then(|rest| rest.trim().strip_prefix('v'))
        .ok_or_else(|| corrupt(1, "missing snapshot header"))?
        .parse::<u64>()
        .map_err(|_| corrupt(1, "unparsable version"))?;
    if version == 0 || version > SNAPSHOT_SCHEMA_VERSION {
        return Err(SnapshotError::VersionMismatch { found: version });
    }
    let mut snapshot = CampaignSnapshot::default();
    let mut saw_end = false;
    let mut cursor = Cursor {
        bytes,
        at: 0,
        line: 1,
    };
    while cursor.next_line() {
        let number = cursor.line;
        match cursor.field() {
            Some(b"k") => {
                let table = snapshot
                    .tables
                    .last_mut()
                    .ok_or_else(|| corrupt(number, "count before any table"))?;
                let key = cursor.hex("bad key")?;
                let count0 = cursor.decimal("bad count")?;
                let count1 = cursor.decimal("bad count")?;
                table.counts.push((key, [count0, count1]));
            }
            Some(b"traj") => {
                let table = snapshot
                    .tables
                    .last_mut()
                    .ok_or_else(|| corrupt(number, "trajectory before any table"))?;
                let traces = cursor.decimal("bad trajectory traces")?;
                let bits = cursor.hex_u64("bad trajectory value")?;
                table.trajectory.push((traces, f64::from_bits(bits)));
            }
            Some(b"table") => {
                let expected_index = cursor.decimal("bad table index")?;
                if expected_index != snapshot.tables.len() as u64 {
                    return Err(corrupt(number, "table index out of order"));
                }
                let samples = cursor.decimal("bad samples")?;
                let overflow0 = cursor.decimal("bad overflow")?;
                let overflow1 = cursor.decimal("bad overflow")?;
                let flagged = cursor.decimal("bad flagged")?;
                snapshot.tables.push(TableSnapshot {
                    samples,
                    overflow: [overflow0, overflow1],
                    flagged: flagged != 0,
                    counts: Vec::new(),
                    trajectory: Vec::new(),
                });
            }
            Some(b"config") => {
                snapshot.config_fingerprint = cursor.hex_u64("bad config fingerprint")?;
            }
            Some(b"statistic") => {
                snapshot.statistic = cursor
                    .field()
                    .and_then(|name| std::str::from_utf8(name).ok())
                    .and_then(StatisticKind::parse)
                    .ok_or_else(|| corrupt(number, "unknown statistic"))?;
            }
            Some(b"progress") => {
                snapshot.batches_done = cursor.decimal("bad batches_done")?;
                snapshot.total_batches = cursor.decimal("bad total_batches")?;
            }
            Some(b"cell_evals") => {
                snapshot.cell_evals = cursor.decimal("bad cell_evals")?;
            }
            Some(b"end") => {
                saw_end = true;
                break;
            }
            Some(other) => {
                return Err(corrupt(
                    number,
                    &format!("unknown record `{}`", String::from_utf8_lossy(other)),
                ));
            }
            None => {} // blank line
        }
    }
    if !saw_end {
        return Err(SnapshotError::Truncated);
    }
    Ok(snapshot)
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
    save_bytes(&snapshot.encode(), path)
}

/// [`save`] for already-encoded bytes: what a running campaign writes
/// after encoding straight from its tables.
pub(crate) fn save_bytes(bytes: &[u8], path: &Path) -> Result<(), SnapshotError> {
    let io_error = |context: &str, error: std::io::Error| {
        SnapshotError::Io(format!("{context} {}: {error}", path.display()))
    };
    let tmp = path.with_extension("tmp");
    // Deterministic fault injection (`--failpoints snapshot.save=...`):
    // the chaos harness strikes here, before the real write, so an
    // injected ENOSPC or truncation never corrupts the destination.
    mmaes_telemetry::failpoint::inject_io("snapshot.save", Some((&tmp, bytes)))
        .map_err(|error| io_error("write", error))?;
    {
        let mut file = fs::File::create(&tmp).map_err(|error| io_error("create", error))?;
        file.write_all(bytes)
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

/// [`save_bytes`] with the bounded retry-with-backoff budget of
/// [`mmaes_telemetry::degraded::retry`]: transient failures (or a
/// bounded fault schedule) recover invisibly; persistent ones surface
/// the last error so the caller can degrade or propagate. Every attempt
/// writes the same bytes; nothing is re-encoded.
pub(crate) fn save_bytes_with_retry(bytes: &[u8], path: &Path) -> Result<(), SnapshotError> {
    mmaes_telemetry::degraded::retry(|| save_bytes(bytes, path))
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
    let bytes = fs::read(path)
        .map_err(|error| SnapshotError::Io(format!("read {}: {error}", path.display())))?;
    parse(&bytes)
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

    /// Edge values for the golden layout test: a fingerprint with
    /// leading zero nibbles, `u64::MAX` counts, keys `0` and
    /// `u128::MAX`, a key past 64 bits, zero, negative-zero and
    /// infinite trajectory values, and an empty table.
    fn edge_values(statistic: StatisticKind) -> CampaignSnapshot {
        CampaignSnapshot {
            config_fingerprint: 0x0000_0abc_0000_0001,
            statistic,
            batches_done: 3,
            total_batches: u64::MAX,
            cell_evals: u64::MAX,
            tables: vec![
                TableSnapshot {
                    samples: u64::MAX,
                    overflow: [0, u64::MAX],
                    flagged: true,
                    counts: vec![
                        (0, [u64::MAX, 0]),
                        (0xff, [1, 2]),
                        (u128::MAX, [3, u64::MAX]),
                    ],
                    trajectory: vec![(64, 0.0), (128, 1.5), (u64::MAX, f64::INFINITY)],
                },
                TableSnapshot::default(),
                TableSnapshot {
                    samples: 10,
                    overflow: [0, 0],
                    flagged: false,
                    counts: vec![(1 << 64, [4, 6])],
                    trajectory: vec![(0, -0.0)],
                },
            ],
        }
    }

    /// The tables of [`edge_values`], as the format renders them.
    const GOLDEN_TABLES: &str = "\
progress 3 18446744073709551615
cell_evals 18446744073709551615
table 0 18446744073709551615 0 18446744073709551615 1
k 0 18446744073709551615 0
k ff 1 2
k ffffffffffffffffffffffffffffffff 3 18446744073709551615
traj 64 0000000000000000
traj 128 3ff8000000000000
traj 18446744073709551615 7ff0000000000000
table 1 0 0 0 0
table 2 10 0 0 0
k 10000000000000000 4 6
traj 0 8000000000000000
end
";

    #[test]
    fn to_text_matches_the_golden_bytes_in_both_layouts() {
        let v1 = edge_values(StatisticKind::GTest);
        let expected_v1 =
            format!("mmaes-campaign-snapshot v1\nconfig 00000abc00000001\n{GOLDEN_TABLES}");
        assert_eq!(v1.to_text(), expected_v1);
        assert_eq!(CampaignSnapshot::from_text(&expected_v1), Ok(v1));

        let v2 = edge_values(StatisticKind::TTest);
        let expected_v2 = format!(
            "mmaes-campaign-snapshot v2\nconfig 00000abc00000001\nstatistic ttest\n{GOLDEN_TABLES}"
        );
        assert_eq!(v2.to_text(), expected_v2);
        assert_eq!(CampaignSnapshot::from_text(&expected_v2), Ok(v2));
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
        let error = save_bytes_with_retry(&sample().encode(), &path).expect_err("injected ENOSPC");
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
        save_bytes_with_retry(&sample().encode(), &path).expect("third attempt lands");
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
        let error =
            save_bytes_with_retry(&sample().encode(), &path).expect_err("unwritable directory");
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

    #[test]
    fn lines_and_fields_split_as_str_lines_splits_them() {
        // CRLF endings, blank lines, extra fields, runs of separators,
        // signs, upper-case hex and a missing final newline all read
        // as `str::lines` + `split_ascii_whitespace` + `parse` read them.
        let canonical = edge_values(StatisticKind::TTest);
        let text = canonical.to_text();
        let variants = [
            text.replace('\n', "\r\n"),
            text.replace("\ntable", "\n\n  \t\ntable"),
            text.replace("k ff 1 2", "k\t+FF  +1\x0c2 trailing fields"),
            text.trim_end().to_owned(),
            format!("{text}garbage after the end marker\n"),
        ];
        for variant in variants {
            assert_eq!(
                CampaignSnapshot::from_text(&variant),
                Ok(canonical.clone()),
                "{variant:?}"
            );
        }
    }

    #[test]
    fn a_non_ascii_byte_makes_its_line_corrupt() {
        let mut bytes = sample().to_text().into_bytes();
        let at = bytes
            .windows(4)
            .position(|window| window == b"k 1 ")
            .expect("a k line");
        bytes[at + 2] = 0xff;
        assert!(
            matches!(parse(&bytes), Err(SnapshotError::Corrupt { line: 7, .. })),
            "{:?}",
            parse(&bytes)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn encoded_numbers_match_format(
            halves in (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            small in 0u64..70_000,
        ) {
            let wide = u128::from(halves.0) << 64 | u128::from(halves.1);
            for number in [halves.0, halves.1, small] {
                let mut out = Vec::new();
                push_decimal(&mut out, number);
                proptest::prop_assert_eq!(out, number.to_string().into_bytes());
                let mut out = Vec::new();
                push_hex(&mut out, number.into(), 16);
                proptest::prop_assert_eq!(out, format!("{number:016x}").into_bytes());
            }
            for key in [wide, wide >> 64, small.into()] {
                let mut out = Vec::new();
                push_hex(&mut out, key, 1);
                proptest::prop_assert_eq!(out, format!("{key:x}").into_bytes());
            }
        }

        /// Fields parse as `str::parse` and `from_str_radix` parse them:
        /// plain decimal, plain hex and mixed fields, at lengths around
        /// the `u64` head of the hex parser and the overflow lengths.
        #[test]
        fn fields_parse_as_std_parses_them(
            kind in 0usize..3,
            length in 0usize..12,
            picks in proptest::prelude::prop::collection::vec(0usize..20, 33),
        ) {
            const ALPHABET: &[u8; 20] = b"0123456789abcdefA-F+";
            const LENGTHS: [usize; 12] = [1, 2, 3, 15, 16, 17, 18, 19, 20, 21, 32, 33];
            let modulus = [10, 16, 20][kind];
            let field: String = picks[..LENGTHS[length]]
                .iter()
                .map(|&pick| char::from(ALPHABET[pick % modulus]))
                .collect();
            let line = format!("x {field} {field}\n");
            let mut cursor = Cursor { bytes: line.as_bytes(), at: 0, line: 1 };
            cursor.field();
            proptest::prop_assert_eq!(cursor.decimal("decimal").ok(), field.parse::<u64>().ok());
            proptest::prop_assert_eq!(
                cursor.hex("hex").ok(),
                u128::from_str_radix(&field, 16).ok()
            );
        }
    }
}
