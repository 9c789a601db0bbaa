//! Contingency-table tabulation engines (DESIGN.md §5a).
//!
//! A fixed-vs-random campaign spends most of its time turning
//! observations into contingency-table counts, kept in one [`Table`]
//! type with two layouts:
//!
//! * **Flat** — every cell of a dense key space, a `Vec<[u64; 2]>`
//!   indexed by the packed observation key. A set's key space is dense
//!   when its exact width fits (`2^width ≤ max_table_keys`, width ≤
//!   [`MAX_DENSE_WIDTH`]), and flat when it also holds at most
//!   [`DENSE_CELLS_PER_TRACE`] cells per trace the table can receive
//!   (`Table::dense_for_traces`): absorption is an array add.
//! * **Sorted** — the columns seen, as a key-sorted
//!   `Vec<(u128, [u64; 2])>`, plus an append-only log of the lanes
//!   absorbed since the table was last settled; for every other set.
//!   Absorbing a batch appends its keys to the log, and
//!   [`Table::settle`] sorts the log, run-length counts it and merges it
//!   into the columns in one linear pass.
//!
//! A sorted table keeps at most `cap` keys: the **`cap` smallest keys it
//! has seen**, by key value, with every other key's counts pooled into
//! one overflow bucket. Settling applies the rule by truncation, which
//! is exact: a key outside the `cap` smallest of a set of keys stays
//! outside for every superset, so the final state depends only on the
//! multiset of observations — not on arrival order, settle points or
//! sharding. On a dense key space `cap = 2^width`: the table never
//! overflows and stays a dense table ([`Table::is_dense`]). The log is
//! bounded without a knob: a batch that would take it past
//! `max(columns, LOG_FLOOR)` entries settles it first, so each settle
//! sorts about as many lanes as its merge rewrites columns, which keeps
//! a campaign without checkpoints amortised `O(n log n)` and within
//! about twice its columns of memory.
//!
//! Batches arrive in one of three forms, picked by the set's width.
//! Dense sets at most [`MAX_MINTERM_WIDTH`] bits wide (always flat) hand
//! over bit-planes ([`Table::absorb_planes`]): a shared AND tree
//! ([`for_each_minterm`]) splits the 64 lanes by key, and each cell grows
//! by two popcounts. Wider dense sets hand over per-lane `u32` indices,
//! built by two 32×32 bit-matrix transposes of the planes
//! ([`Table::absorb_indices`]); the rest, per-lane `u128` keys
//! ([`Table::absorb_keys`]). All three count the same cells, and both
//! layouts absorb **commutatively**, so workers absorb into their own
//! shard tables and [`Table::merge_from`] folds them under the same rule.
//!
//! Byte-identity across the layouts is structural: a dense-eligible set
//! never overflows, and keys are packed with bit `i` of the observation
//! at key bit `i`, so flat index order *is* sorted-key order. Same
//! cells, same order, same bytes.
//!
//! Readers never copy a table: [`Table::columns`] walks it in place, in
//! key order, for the statistic sweeps, the snapshot encoder and the
//! final hand-back. A flat table's walk reads its occupancy bitmap, set
//! by every writer exactly when a cell becomes non-zero, one word per
//! 64 keys and then only the occupied cells; a sorted table's walk is a
//! slice. A sorted table must be settled before it is read: the campaign
//! engine settles every table at each window end, and reading one with
//! unsettled lanes panics.

use mmaes_sim::LANES;

/// Widest packed observation a dense table will direct-index: the
/// packed key must fit a `u32` (the per-lane index type). The memory
/// gate is [`EvaluationConfig::max_table_keys`](crate::EvaluationConfig::max_table_keys),
/// which bounds `2^width` keys per table.
pub const MAX_DENSE_WIDTH: usize = 32;

/// Widest observation counted by minterm popcount
/// ([`Table::absorb_planes`], [`for_each_minterm`]) instead of by
/// visiting lanes: a batch then costs `2^width` minterms, each two ANDs
/// and two popcounts, against `64 · width` bit gathers plus 64 scattered
/// increments. DESIGN.md §5a records how the cut-over was measured.
pub const MAX_MINTERM_WIDTH: usize = 6;

/// Cells per receivable trace up to which a dense table is flat
/// (`Table::dense_for_traces`): a `2^width`-key table stays a flat
/// array while `2^width ≤ DENSE_CELLS_PER_TRACE · traces`, and keeps
/// only its seen cells, sorted, beyond that. At 4, every table of E2's
/// paper and default budgets stays flat, while the sparse 16–20-bit
/// tables of a short glitch+transition run are sorted. DESIGN.md §5a
/// records the factors 2, 4 and 8 that chose it.
pub const DENSE_CELLS_PER_TRACE: u64 = 4;

/// Log entries a sorted table may hold whatever its column count: a
/// batch that would take the log past `max(columns, LOG_FLOOR)` settles
/// it first. 4,096 packed lanes are 32 KiB, a sort that stays in cache,
/// and 64 batches, more than a checkpoint window of a short campaign.
const LOG_FLOOR: usize = 4096;

/// Fixed per-table bookkeeping bytes (struct header, overflow, log
/// header) counted by [`Table::resident_bytes`].
const TABLE_OVERHEAD_BYTES: u64 = 48;

/// Bytes per flat cell: one `[u64; 2]`.
const DENSE_CELL_BYTES: u64 = 16;

/// Bytes per sorted column: a `u128` key and a `[u64; 2]` cell.
const SORTED_COLUMN_BYTES: u64 = 32;

/// Which contingency-table store a campaign uses.
///
/// Not a user option: campaigns run [`TabulatorMode::Dense`], and
/// `Hashed` is the hook the campaign-level differential suites use to
/// force the sorted store, with the cap of a set too wide to be dense,
/// on every probing set. Both produce byte-identical reports, CSVs,
/// trajectories and snapshots whenever no table overflows its cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TabulatorMode {
    /// Dense tables (flat or sorted by the trace budget) for every set
    /// that fits the selection rule, capped sorted tables for the rest.
    /// The default.
    #[default]
    Dense,
    /// Capped sorted tables for every set.
    Hashed,
}

impl TabulatorMode {
    /// Lower-case name, for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            TabulatorMode::Dense => "dense",
            TabulatorMode::Hashed => "hashed",
        }
    }
}

/// The two table layouts.
#[derive(Debug, Clone)]
enum Store {
    Flat(Flat),
    Sorted(Sorted),
}

/// The flat layout: every cell of the key space, and an occupancy
/// bitmap whose bit `i` is set exactly when cell `i` is non-zero (counts
/// only ever increment, so those are the keys seen).
#[derive(Debug, Clone)]
struct Flat {
    cells: Vec<[u64; 2]>,
    occupied: Vec<u64>,
}

impl Flat {
    fn new(len: usize) -> Self {
        Flat {
            cells: vec![[0, 0]; len],
            occupied: vec![0; len.div_ceil(64)],
        }
    }

    /// Adds `cell` at `index`.
    fn add(&mut self, index: usize, cell: [u64; 2]) {
        if cell[0] | cell[1] == 0 {
            return;
        }
        add(&mut self.cells[index], cell);
        mark(&mut self.occupied, index);
    }

    /// Counts one batch of per-lane indices.
    fn absorb_indices(&mut self, indices: &[u32; LANES], lane_groups: u64) {
        for (lane, &index) in indices.iter().enumerate() {
            self.cells[index as usize][((lane_groups >> lane) & 1) as usize] += 1;
            mark(&mut self.occupied, index as usize);
        }
    }

    /// Moves every cell of `from`, which must have the same key space,
    /// into this store, leaving `from` empty.
    fn merge_from(&mut self, from: &mut Flat) {
        assert_eq!(
            self.cells.len(),
            from.cells.len(),
            "mismatched dense widths"
        );
        // Only the source's occupied cells are non-zero.
        for (word, (into_bits, from_bits)) in
            self.occupied.iter_mut().zip(&mut from.occupied).enumerate()
        {
            let mut bits = std::mem::take(from_bits);
            *into_bits |= bits;
            while bits != 0 {
                let index = word * 64 + bits.trailing_zeros() as usize;
                let cell = std::mem::take(&mut from.cells[index]);
                add(&mut self.cells[index], cell);
                bits &= bits - 1;
            }
        }
    }

    /// Replaces the contents with `counts`, whose keys must all lie in
    /// the key space; zero-count entries are unseen keys and skipped.
    fn restore(&mut self, counts: Vec<(u128, [u64; 2])>) {
        self.occupied.fill(0);
        self.cells.fill([0, 0]);
        for (key, cell) in counts {
            self.add(key as usize, cell);
        }
    }

    /// Walks the occupied cells in index order.
    fn columns(&self) -> Columns<'_> {
        Columns(Walk::Flat {
            cells: &self.cells,
            bits: Occupied::new(&self.occupied),
        })
    }
}

/// Sets bit `index` of an occupancy bitmap.
#[inline]
fn mark(occupied: &mut [u64], index: usize) {
    occupied[index / 64] |= 1 << (index % 64);
}

/// The sorted layout: the settled columns in key order, at most `cap`
/// of them, and the lanes absorbed since.
#[derive(Debug, Clone)]
struct Sorted {
    columns: Vec<(u128, [u64; 2])>,
    log: Log,
    cap: usize,
    /// Laid out for a dense key space of `cap` keys, which it never
    /// overflows.
    dense: bool,
}

/// The lanes a sorted table absorbed since it was last settled, each
/// with its population, in the narrowest form the table's key width
/// allows (DESIGN.md §5a measures the two).
#[derive(Debug, Clone)]
enum Log {
    /// Keys below `2^63`, packed as `key << 1 | random`: one `u64` sort
    /// groups each key's lanes.
    Narrow(Vec<u64>),
    /// Any key, beside its population (`1` = random).
    Wide(Vec<(u128, u8)>),
}

impl Sorted {
    /// An empty table over `width`-bit keys keeping at most `cap` of
    /// them.
    fn new(width: usize, cap: usize, dense: bool) -> Self {
        Sorted {
            columns: Vec::new(),
            log: if width < 64 {
                Log::Narrow(Vec::new())
            } else {
                Log::Wide(Vec::new())
            },
            cap,
            dense,
        }
    }

    /// An empty table with this one's key width, cap and density.
    fn empty_like(&self) -> Self {
        let log = match self.log {
            Log::Narrow(_) => Log::Narrow(Vec::new()),
            Log::Wide(_) => Log::Wide(Vec::new()),
        };
        Sorted {
            columns: Vec::new(),
            log,
            ..*self
        }
    }

    fn log_len(&self) -> usize {
        match &self.log {
            Log::Narrow(log) => log.len(),
            Log::Wide(log) => log.len(),
        }
    }

    /// The columns, which must be settled.
    fn settled(&self) -> &[(u128, [u64; 2])] {
        assert!(
            self.log_len() == 0,
            "a sorted table read before it was settled"
        );
        &self.columns
    }

    /// Logs one batch of per-lane keys (lane populations as in
    /// [`Table::absorb_keys`]), settling first if the batch would take
    /// the log past `max(columns, LOG_FLOOR)` entries.
    fn append(
        &mut self,
        keys: impl Iterator<Item = u128>,
        lane_groups: u64,
        overflow: &mut [u64; 2],
    ) {
        if self.log_len() + LANES > self.columns.len().max(LOG_FLOOR) {
            self.settle(overflow);
        }
        let random = |lane: usize| (lane_groups >> lane) & 1;
        match &mut self.log {
            Log::Narrow(log) => log.extend(
                keys.enumerate()
                    .map(|(lane, key)| (key as u64) << 1 | random(lane)),
            ),
            Log::Wide(log) => log.extend(
                keys.enumerate()
                    .map(|(lane, key)| (key, random(lane) as u8)),
            ),
        }
    }

    /// Sorts the log, run-length counts it and merges it into the
    /// columns.
    fn settle(&mut self, overflow: &mut [u64; 2]) {
        let runs = match &mut self.log {
            Log::Narrow(log) => {
                run_lengths(log, |entry| (u128::from(entry >> 1), (entry & 1) as usize))
            }
            Log::Wide(log) => run_lengths(log, |(key, random)| (key, usize::from(random))),
        };
        self.merge(&runs, overflow);
    }

    /// Merges `runs`, distinct keys in ascending order, into the columns
    /// in one backward pass, then pools every column past the `cap`
    /// smallest into `overflow`.
    fn merge(&mut self, runs: &[(u128, [u64; 2])], overflow: &mut [u64; 2]) {
        let columns = &mut self.columns;
        let mut read = columns.len();
        columns.resize(read + runs.len(), (0, [0, 0]));
        let mut write = columns.len();
        for &(key, cell) in runs.iter().rev() {
            while read > 0 && columns[read - 1].0 > key {
                read -= 1;
                write -= 1;
                columns[write] = columns[read];
            }
            write -= 1;
            columns[write] = if read > 0 && columns[read - 1].0 == key {
                read -= 1;
                let mut sum = columns[read].1;
                add(&mut sum, cell);
                (key, sum)
            } else {
                (key, cell)
            };
        }
        // Each run that met a settled key left one slot empty.
        if write > read {
            columns.copy_within(write.., read);
            columns.truncate(columns.len() - (write - read));
        }
        if columns.len() > self.cap {
            for (_, cell) in columns.drain(self.cap..) {
                add(overflow, cell);
            }
        }
    }

    /// Replaces the contents with `counts`, adopting them as they are
    /// when already sorted.
    fn restore(&mut self, mut counts: Vec<(u128, [u64; 2])>, overflow: &mut [u64; 2]) {
        if !counts.is_sorted_by(|a, b| a.0 < b.0) {
            counts.sort_unstable_by_key(|&(key, _)| key);
            counts.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                if same {
                    add(&mut kept.1, next.1);
                }
                same
            });
        }
        *self = Sorted {
            columns: counts,
            ..self.empty_like()
        };
        self.merge(&[], overflow);
    }
}

/// Sorts `log` and drains it into `(key, [fixed, random])` runs in key
/// order; `split` unpacks an entry into its key and population.
fn run_lengths<E: Ord + Copy>(
    log: &mut Vec<E>,
    split: impl Fn(E) -> (u128, usize),
) -> Vec<(u128, [u64; 2])> {
    log.sort_unstable();
    let mut runs: Vec<(u128, [u64; 2])> = Vec::new();
    for entry in log.drain(..) {
        let (key, random) = split(entry);
        match runs.last_mut() {
            Some((last, cell)) if *last == key => cell[random] += 1,
            _ => {
                let mut cell = [0, 0];
                cell[random] = 1;
                runs.push((key, cell));
            }
        }
    }
    runs
}

/// A contingency table over observation keys for one probing set:
/// `[fixed, random]` counts per key, and an overflow bucket past the key
/// cap (sorted layout only — dense tables cannot overflow).
#[derive(Debug, Clone)]
pub struct Table {
    store: Store,
    overflow: [u64; 2],
    samples: u64,
}

impl Table {
    fn with_store(store: Store) -> Self {
        Table {
            store,
            overflow: [0, 0],
            samples: 0,
        }
    }

    /// An empty sorted table over `width`-bit keys retaining at most
    /// `cap` of them.
    pub fn sorted(width: usize, cap: usize) -> Self {
        Table::with_store(Store::Sorted(Sorted::new(width, cap, false)))
    }

    /// An empty flat dense table of `2^width` cells.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds [`MAX_DENSE_WIDTH`] — callers gate on
    /// the selection rule first.
    pub fn dense(width: usize) -> Self {
        assert!(width <= MAX_DENSE_WIDTH, "dense width {width} too wide");
        Table::with_store(Store::Flat(Flat::new(1 << width)))
    }

    /// An empty dense table over `2^width` keys, laid out for a campaign
    /// of `traces` traces: flat when `2^width ≤`
    /// [`DENSE_CELLS_PER_TRACE`] `×` the traces it can receive, sorted
    /// with a cap of `2^width` otherwise. A campaign absorbs whole
    /// batches of [`LANES`] traces, so a table receives `traces` rounded
    /// up to a batch, and one of at most [`MAX_MINTERM_WIDTH`] bits is
    /// always flat.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds [`MAX_DENSE_WIDTH`] — callers gate on
    /// the selection rule first.
    pub(crate) fn dense_for_traces(width: usize, traces: u64) -> Self {
        assert!(width <= MAX_DENSE_WIDTH, "dense width {width} too wide");
        let receivable = traces
            .max(1)
            .div_ceil(LANES as u64)
            .saturating_mul(LANES as u64);
        if 1u64 << width <= DENSE_CELLS_PER_TRACE.saturating_mul(receivable) {
            return Table::dense(width);
        }
        Table::with_store(Store::Sorted(Sorted::new(width, 1 << width, true)))
    }

    /// An empty table with this table's layout — a worker's shard.
    pub fn empty_like(&self) -> Self {
        Table::with_store(match &self.store {
            Store::Flat(flat) => Store::Flat(Flat::new(flat.cells.len())),
            Store::Sorted(sorted) => Store::Sorted(sorted.empty_like()),
        })
    }

    /// Whether this is a dense table: laid out for a key space it can
    /// never overflow (flat, or sorted with the key space as its cap).
    pub fn is_dense(&self) -> bool {
        match &self.store {
            Store::Flat(_) => true,
            Store::Sorted(sorted) => sorted.dense,
        }
    }

    /// Total samples absorbed (both populations, overflow included).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// `[fixed, random]` counts pooled past the key cap.
    pub fn overflow(&self) -> [u64; 2] {
        self.overflow
    }

    /// Adds `cell` to `key`'s counts — on a sorted table by merging it
    /// straight into the columns, under the smallest-keys rule (see the
    /// module docs). A zero cell is no observation.
    ///
    /// # Panics
    ///
    /// Panics if `key` lies outside a flat table's key space.
    pub fn absorb(&mut self, key: u128, cell: [u64; 2]) {
        if cell == [0, 0] {
            return;
        }
        self.samples += cell[0] + cell[1];
        match &mut self.store {
            Store::Flat(flat) => {
                let index = usize::try_from(key)
                    .ok()
                    .filter(|&index| index < flat.cells.len())
                    .expect("dense key");
                flat.add(index, cell);
            }
            Store::Sorted(sorted) => sorted.merge(&[(key, cell)], &mut self.overflow),
        }
    }

    /// Absorbs one batch of per-lane observation keys: lane `i` belongs
    /// to the random population when bit `i` of `lane_groups` is set. A
    /// sorted table only logs them, until [`Table::settle`].
    ///
    /// # Panics
    ///
    /// Panics if a key lies outside a flat table's key space.
    pub fn absorb_keys(&mut self, keys: &[u128; LANES], lane_groups: u64) {
        match &mut self.store {
            Store::Flat(_) => {
                let indices = keys.map(|key| u32::try_from(key).expect("dense key"));
                self.absorb_indices(&indices, lane_groups);
            }
            Store::Sorted(sorted) => {
                self.samples += LANES as u64;
                sorted.append(keys.iter().copied(), lane_groups, &mut self.overflow);
            }
        }
    }

    /// Absorbs one batch of per-lane packed indices — the dense path:
    /// [`LANES`] increments of a flat table, or [`LANES`] log entries of
    /// a sorted one. Lane populations as in [`Table::absorb_keys`].
    ///
    /// # Panics
    ///
    /// Panics if an index exceeds a flat table's width — an internal
    /// invariant violation, since indices are packed from exactly the
    /// bits the width was computed from.
    pub fn absorb_indices(&mut self, indices: &[u32; LANES], lane_groups: u64) {
        self.samples += LANES as u64;
        match &mut self.store {
            Store::Flat(flat) => flat.absorb_indices(indices, lane_groups),
            Store::Sorted(sorted) => sorted.append(
                indices.iter().map(|&index| u128::from(index)),
                lane_groups,
                &mut self.overflow,
            ),
        }
    }

    /// Absorbs one batch given as bit-planes — the narrow dense path:
    /// `planes[i]` holds observed bit `i` of every lane
    /// ([`ProbeSet::observation_planes`](crate::ProbeSet::observation_planes)),
    /// and each key's cell grows by the popcounts of its minterm split
    /// by population, so no lane is visited. Lane populations as in
    /// [`Table::absorb_keys`].
    ///
    /// # Panics
    ///
    /// Panics on a sorted table (a dense table this narrow is always
    /// flat), if the table is not `2^planes.len()` cells, or if `planes`
    /// is wider than [`MAX_MINTERM_WIDTH`].
    pub fn absorb_planes(&mut self, planes: &[u64], lane_groups: u64) {
        let Store::Flat(Flat { cells, occupied }) = &mut self.store else {
            unreachable!("absorb_planes on a sorted table");
        };
        assert_eq!(cells.len(), 1 << planes.len(), "plane count != width");
        self.samples += LANES as u64;
        // At most 2^MAX_MINTERM_WIDTH = 64 cells: one bitmap word.
        let mut seen = 0u64;
        for_each_minterm(planes, u64::MAX, |key, lanes| {
            let random = u64::from((lanes & lane_groups).count_ones());
            let cell = &mut cells[key];
            cell[0] += u64::from(lanes.count_ones()) - random;
            cell[1] += random;
            seen |= u64::from(lanes != 0) << key;
        });
        occupied[0] |= seen;
    }

    /// Merges the lanes a sorted table logged since it was last settled
    /// into its columns, pooling past-cap keys into overflow. Every
    /// reader needs it; it is a no-op on a flat or settled table.
    pub fn settle(&mut self) {
        if let Store::Sorted(sorted) = &mut self.store {
            sorted.settle(&mut self.overflow);
        }
    }

    /// Folds `other` into `self` and drains `other` back to empty — the
    /// merge a multi-threaded campaign runs once per checkpoint window
    /// over each worker's shard tables. Both tables are settled first,
    /// and sorted tables merge under the smallest-keys rule, so the
    /// result equals absorbing both observation streams into one table,
    /// in any order.
    ///
    /// # Panics
    ///
    /// Panics if the two tables' layouts differ (shards are built with
    /// [`Table::empty_like`]).
    pub fn merge_from(&mut self, other: &mut Table) {
        self.settle();
        other.settle();
        self.samples += std::mem::take(&mut other.samples);
        add(&mut self.overflow, std::mem::take(&mut other.overflow));
        match (&mut self.store, &mut other.store) {
            (Store::Flat(into), Store::Flat(from)) => into.merge_from(from),
            (Store::Sorted(into), Store::Sorted(from)) => {
                into.merge(&from.columns, &mut self.overflow);
                from.columns.clear();
            }
            _ => panic!("merge_from requires matching table layouts"),
        }
    }

    /// Restores serialized state (`(key, cell)` pairs, overflow,
    /// samples) into this table — the resume path. A sorted table adopts
    /// already-sorted pairs as its columns without copying them, sorts
    /// any other input, and pools keys past its cap into overflow. A
    /// dense table skips zero-count entries, which are unseen keys there;
    /// one whose key space cannot hold a key (a foreign or hand-edited
    /// snapshot) falls back to a sorted table capped at that key space
    /// rather than failing.
    pub fn restore(&mut self, mut counts: Vec<(u128, [u64; 2])>, overflow: [u64; 2], samples: u64) {
        self.overflow = overflow;
        self.samples = samples;
        if let Store::Flat(flat) = &mut self.store {
            if counts
                .iter()
                .all(|&(key, _)| key < flat.cells.len() as u128)
            {
                flat.restore(counts);
                return;
            }
            // Its observations still fit the dense key space.
            self.store = Store::Sorted(Sorted::new(MAX_DENSE_WIDTH, flat.cells.len(), false));
        }
        let Store::Sorted(sorted) = &mut self.store else {
            unreachable!("flat handled above");
        };
        sorted.dense &= counts.iter().all(|&(key, _)| key < sorted.cap as u128);
        if sorted.dense {
            counts.retain(|&(_, cell)| cell != [0, 0]);
        }
        sorted.restore(counts, &mut self.overflow);
    }

    /// The `(key, cell)` columns in sorted key order, read in place. The
    /// G statistic is a float sum, so a deterministic column order is
    /// what makes checkpoint trajectories byte-identical across runs and
    /// resume legs; for a flat table the walk over the occupancy bitmap
    /// *is* sorted-key order, because the packed index equals the key.
    ///
    /// # Panics
    ///
    /// Panics on a sorted table with lanes not yet settled
    /// ([`Table::settle`]).
    pub fn columns(&self) -> Columns<'_> {
        match &self.store {
            Store::Flat(flat) => flat.columns(),
            Store::Sorted(sorted) => Columns::from(sorted.settled()),
        }
    }

    /// The columns of [`Table::columns`], collected: a sorted table
    /// hands over its column vector.
    ///
    /// # Panics
    ///
    /// As [`Table::columns`].
    pub fn into_columns(self) -> Vec<(u128, [u64; 2])> {
        match self.store {
            Store::Flat(flat) => flat.columns().collect(),
            Store::Sorted(sorted) => {
                sorted.settled();
                sorted.columns
            }
        }
    }

    /// Distinct observation keys retained (the overflow bucket excluded):
    /// for a flat table, its bitmap's popcount.
    ///
    /// # Panics
    ///
    /// As [`Table::columns`].
    pub fn distinct_keys(&self) -> usize {
        self.columns().len()
    }

    /// Resident bytes of the table store, from its logical content, never
    /// from allocator state or vector capacity, so the figure is
    /// deterministic across thread counts and resume legs.
    ///
    /// * Flat: the cell array, fully allocated up front. Its occupancy
    ///   bitmap (one bit per 16-byte cell, 1/128 more) is not counted,
    ///   so the figure stays the one perfbench checks for E2's tables
    ///   (35,884,144 bytes) until the benchmark's expectation changes.
    /// * Sorted: 32 bytes per settled column. The log is empty whenever
    ///   the table may be read, so it is not counted.
    ///
    /// # Panics
    ///
    /// As [`Table::columns`].
    pub fn resident_bytes(&self) -> u64 {
        TABLE_OVERHEAD_BYTES
            + match &self.store {
                Store::Flat(flat) => DENSE_CELL_BYTES * flat.cells.len() as u64,
                Store::Sorted(sorted) => SORTED_COLUMN_BYTES * sorted.settled().len() as u64,
            }
    }
}

fn add(into: &mut [u64; 2], cell: [u64; 2]) {
    into[0] += cell[0];
    into[1] += cell[1];
}

/// A table's `(key, [fixed, random])` columns in ascending key order,
/// read in place ([`Table::columns`]), or a borrowed sorted slice
/// (`Columns::from`). A clone is a second, independent walk from the
/// same position, which is what lets a statistic take two passes over
/// one table without collecting it.
#[derive(Debug, Clone)]
pub struct Columns<'a>(Walk<'a>);

#[derive(Debug, Clone)]
enum Walk<'a> {
    /// A flat table's occupied cells.
    Flat {
        cells: &'a [[u64; 2]],
        bits: Occupied<'a>,
    },
    /// Entries already sorted by key.
    Sorted(std::slice::Iter<'a, (u128, [u64; 2])>),
}

/// The set bits of an occupancy bitmap, in ascending order: `bits`
/// holds the unvisited bits of the word covering keys `base..base + 64`,
/// and `words` the words after it.
#[derive(Debug, Clone)]
struct Occupied<'a> {
    words: std::slice::Iter<'a, u64>,
    base: usize,
    bits: u64,
}

impl<'a> Occupied<'a> {
    fn new(occupied: &'a [u64]) -> Self {
        let mut words = occupied.iter();
        let bits = words.next().copied().unwrap_or(0);
        Occupied {
            words,
            base: 0,
            bits,
        }
    }

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *self.words.next()?;
            self.base += 64;
        }
        let index = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(index)
    }

    /// The bits left.
    fn len(&self) -> usize {
        self.bits.count_ones() as usize
            + self
                .words
                .as_slice()
                .iter()
                .map(|word| word.count_ones() as usize)
                .sum::<usize>()
    }
}

impl<'a> From<&'a [(u128, [u64; 2])]> for Columns<'a> {
    /// Walks `entries`, which must be sorted by key.
    fn from(entries: &'a [(u128, [u64; 2])]) -> Self {
        Columns(Walk::Sorted(entries.iter()))
    }
}

impl Iterator for Columns<'_> {
    type Item = (u128, [u64; 2]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            Walk::Sorted(entries) => entries.next().copied(),
            Walk::Flat { cells, bits } => {
                let index = bits.next()?;
                Some((index as u128, cells[index]))
            }
        }
    }

    /// Dispatches on the walk once, not per column, so that the loops of
    /// `for_each`, `sum` and the other folding consumers are specialized
    /// to one layout.
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Self::Item) -> B,
    {
        match self.0 {
            Walk::Sorted(entries) => entries.copied().fold(init, f),
            Walk::Flat { cells, mut bits } => {
                let mut acc = init;
                while let Some(index) = bits.next() {
                    acc = f(acc, (index as u128, cells[index]));
                }
                acc
            }
        }
    }

    /// Exact: a flat walk counts the bits left in its bitmap.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = match &self.0 {
            Walk::Sorted(entries) => entries.len(),
            Walk::Flat { bits, .. } => bits.len(),
        };
        (len, Some(len))
    }
}

impl ExactSizeIterator for Columns<'_> {}

/// Calls `visit(key, minterm)` for every key of a `planes.len()`-bit
/// observation, in ascending key order, where `minterm` masks the lanes
/// among `lanes` whose observation equals `key` (bit `i` of a lane's
/// key is that lane's bit in `planes[i]`). The `2^width` minterms come
/// from a shared AND tree over the planes: each plane splits every
/// minterm built so far into its 0 and 1 halves.
///
/// # Panics
///
/// Panics if `planes` is wider than [`MAX_MINTERM_WIDTH`].
pub fn for_each_minterm(planes: &[u64], lanes: u64, mut visit: impl FnMut(usize, u64)) {
    assert!(planes.len() <= MAX_MINTERM_WIDTH, "{} planes", planes.len());
    let mut minterms = [0u64; 1 << MAX_MINTERM_WIDTH];
    minterms[0] = lanes;
    for (bit, &plane) in planes.iter().enumerate() {
        let (zeros, ones) = minterms.split_at_mut(1 << bit);
        for (zero, one) in zeros.iter_mut().zip(ones.iter_mut()) {
            *one = *zero & plane;
            *zero &= !plane;
        }
    }
    for (key, &minterm) in minterms[..1 << planes.len()].iter().enumerate() {
        visit(key, minterm);
    }
}

/// Packs up to 32 bit-planes into per-lane `u32` indices (bit `i` of
/// lane `l`'s index is bit `l` of `planes[i]`): the 32×64 bit matrix is
/// transposed as two 32×32 blocks, lanes 0–31 and 32–63 (Hacker's
/// Delight §7-3), which costs the same at every width instead of a
/// shift and OR per lane per plane.
pub(crate) fn planes_to_indices(planes: &[u64; MAX_DENSE_WIDTH], indices: &mut [u32; LANES]) {
    let (low, high) = indices.split_at_mut(32);
    for ((low, high), &plane) in low.iter_mut().zip(high.iter_mut()).zip(planes) {
        *low = plane as u32;
        *high = (plane >> 32) as u32;
    }
    transpose32(low.try_into().expect("32 rows"));
    transpose32(high.try_into().expect("32 rows"));
}

/// Transposes a 32×32 bit matrix in place: bit `j` of row `i` swaps
/// with bit `i` of row `j`. Each round swaps the off-diagonal blocks of
/// every `2·width`-square, halving `width` from 16 to 1.
fn transpose32(rows: &mut [u32; 32]) {
    let mut width = 16;
    let mut mask: u32 = 0x0000_ffff;
    while width != 0 {
        let mut row = 0;
        while row < 32 {
            let swap = ((rows[row] >> width) ^ rows[row + width]) & mask;
            rows[row + width] ^= swap;
            rows[row] ^= swap << width;
            row = (row + width + 1) & !width;
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::g_columns;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The table's columns, collected.
    fn collected(table: &Table) -> Vec<(u128, [u64; 2])> {
        table.columns().collect()
    }

    /// Whether `table` is a flat table.
    fn is_flat(table: &Table) -> bool {
        matches!(table.store, Store::Flat(_))
    }

    /// The table's `(fixed, random)` G-test columns, collected.
    fn g_pairs(table: &Table) -> Vec<(u64, u64)> {
        g_columns(table.columns(), table.overflow()).collect()
    }

    /// Absorbs a stream of `(key, population)` observations one by one.
    fn absorb_all(table: &mut Table, keys: &[(u128, usize)]) {
        for &(key, group) in keys {
            let mut cell = [0, 0];
            cell[group] = 1;
            table.absorb(key, cell);
        }
    }

    /// A deterministic permutation of `items` drawn from `seed`
    /// (Fisher–Yates over a splitmix64 stream).
    fn permuted<T: Clone>(items: &[T], mut seed: u64) -> Vec<T> {
        let mut out = items.to_vec();
        for index in (1..out.len()).rev() {
            out.swap(index, (splitmix(&mut seed) % (index as u64 + 1)) as usize);
        }
        out
    }

    /// The next word of a splitmix64 stream.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut mixed = *state;
        mixed = (mixed ^ (mixed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        mixed = (mixed ^ (mixed >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        mixed ^ (mixed >> 31)
    }

    /// Counts one batch of lanes into an oracle of every observation.
    fn observe_batch(
        oracle: &mut BTreeMap<u128, [u64; 2]>,
        keys: &[u128; LANES],
        lane_groups: u64,
    ) {
        for (lane, &key) in keys.iter().enumerate() {
            oracle.entry(key).or_default()[((lane_groups >> lane) & 1) as usize] += 1;
        }
    }

    /// The smallest-keys rule by definition: the oracle's `cap` smallest
    /// keys with their counts, and every other key's counts pooled.
    fn smallest_keys(
        oracle: &BTreeMap<u128, [u64; 2]>,
        cap: usize,
    ) -> (Vec<(u128, [u64; 2])>, [u64; 2]) {
        let kept = oracle
            .iter()
            .take(cap)
            .map(|(&key, &cell)| (key, cell))
            .collect();
        let mut pooled = [0, 0];
        for &cell in oracle.values().skip(cap) {
            add(&mut pooled, cell);
        }
        (kept, pooled)
    }

    #[test]
    fn the_log_never_outgrows_its_columns_or_the_floor() {
        // Distinct keys grow the columns as fast as the log; five
        // repeated keys keep the columns tiny, so the floor bounds it.
        for distinct in [true, false] {
            let mut table = Table::sorted(40, usize::MAX);
            for batch in 0..400u128 {
                let keys = std::array::from_fn(|lane| {
                    if distinct {
                        batch * 64 + lane as u128
                    } else {
                        lane as u128 % 5
                    }
                });
                table.absorb_keys(&keys, batch as u64);
                let Store::Sorted(sorted) = &table.store else {
                    unreachable!("built sorted");
                };
                let bound = sorted.columns.len().max(LOG_FLOOR);
                assert!(sorted.log_len() <= bound, "{} > {bound}", sorted.log_len());
                assert!(sorted.log_len() > 0);
            }
            table.settle();
            assert_eq!(table.samples(), 400 * 64);
            assert_eq!(table.distinct_keys(), if distinct { 25_600 } else { 5 });
        }
    }

    #[test]
    #[should_panic(expected = "read before it was settled")]
    fn reading_an_unsettled_table_panics() {
        let mut table = Table::dense_for_traces(16, 64);
        table.absorb_indices(&[7; LANES], 0);
        let _ = table.columns();
    }

    #[test]
    fn dense_and_hashed_agree_on_a_fixed_stream() {
        let mut dense = Table::dense(4);
        let mut hashed = Table::sorted(4, 16);
        let keys = [(3, 0), (3, 1), (15, 1), (0, 0), (3, 0)];
        absorb_all(&mut dense, &keys);
        absorb_all(&mut hashed, &keys);
        assert_eq!(collected(&dense), collected(&hashed));
        assert_eq!(g_pairs(&dense), g_pairs(&hashed));
        assert_eq!(dense.samples(), hashed.samples());
        assert_eq!(dense.distinct_keys(), 3);
        assert_eq!(dense.overflow(), [0, 0]);
    }

    /// Lane `lane`'s observation packed bit by bit: bit `i` from
    /// `planes[i]` — the reference every absorption form must match.
    fn lane_key(planes: &[u64], lane: usize) -> u128 {
        planes.iter().enumerate().fold(0, |key, (bit, &plane)| {
            key | (((plane >> lane) & 1) as u128) << bit
        })
    }

    #[test]
    fn transpose32_matches_the_naive_transpose() {
        let mut state = 7;
        let rows: [u32; 32] = std::array::from_fn(|_| splitmix(&mut state) as u32);
        let mut transposed = rows;
        transpose32(&mut transposed);
        for (column, &row) in transposed.iter().enumerate() {
            for (bit, &source) in rows.iter().enumerate() {
                assert_eq!(
                    (row >> bit) & 1,
                    (source >> column) & 1,
                    "({bit}, {column})"
                );
            }
        }
    }

    #[test]
    fn planes_to_indices_matches_per_lane_packing_at_every_width() {
        let mut state = 11;
        for width in 0..=MAX_DENSE_WIDTH {
            let mut planes = [0u64; MAX_DENSE_WIDTH];
            for plane in &mut planes[..width] {
                *plane = splitmix(&mut state);
            }
            let mut indices = [u32::MAX; LANES];
            planes_to_indices(&planes, &mut indices);
            for (lane, &index) in indices.iter().enumerate() {
                assert_eq!(
                    u128::from(index),
                    lane_key(&planes[..width], lane),
                    "width {width}"
                );
            }
        }
    }

    #[test]
    fn minterms_partition_the_lanes_by_key() {
        let planes = [0xdead_beef_0bad_f00d, 0x0123_4567_89ab_cdef, u64::MAX, 0];
        let lanes = 0x0000_ffff_ffff_0f0f;
        let mut seen = 0u64;
        let mut keys = Vec::new();
        for_each_minterm(&planes, lanes, |key, minterm| {
            keys.push(key);
            assert_eq!(seen & minterm, 0, "minterms overlap");
            seen |= minterm;
            for lane in (0..LANES).filter(|&lane| (minterm >> lane) & 1 == 1) {
                assert_eq!(lane_key(&planes, lane), key as u128);
            }
        });
        assert_eq!(seen, lanes, "minterms cover exactly the given lanes");
        assert_eq!(keys, (0..16).collect::<Vec<_>>(), "ascending key order");
    }

    #[test]
    fn absorb_indices_matches_absorb_keys() {
        let lane_groups = 0xdead_beef_0bad_f00du64;
        let mut indices = [0u32; LANES];
        let mut keys = [0u128; LANES];
        for lane in 0..LANES {
            indices[lane] = (lane % 7) as u32;
            keys[lane] = (lane % 7) as u128;
        }
        let mut direct = Table::dense(3);
        direct.absorb_indices(&indices, lane_groups);
        let mut dense = Table::dense(3);
        dense.absorb_keys(&keys, lane_groups);
        let mut hashed = Table::sorted(3, 8);
        hashed.absorb_keys(&keys, lane_groups);
        hashed.settle();
        assert_eq!(collected(&direct), collected(&dense));
        assert_eq!(collected(&direct), collected(&hashed));
        assert_eq!(direct.samples(), LANES as u64);
    }

    #[test]
    fn merge_from_is_commutative_and_drains_the_source() {
        let keys_a = [(1, 0), (2, 1), (2, 1)];
        let keys_b = [(2, 0), (7, 1)];
        let mut ab = Table::dense(3);
        absorb_all(&mut ab, &keys_a);
        let mut b = Table::dense(3);
        absorb_all(&mut b, &keys_b);
        ab.merge_from(&mut b);
        let mut ba = Table::dense(3);
        absorb_all(&mut ba, &keys_b);
        let mut a = ba.empty_like();
        absorb_all(&mut a, &keys_a);
        ba.merge_from(&mut a);
        assert_eq!(collected(&ab), collected(&ba));
        assert_eq!(ab.samples(), ba.samples());
        assert_eq!(b.samples(), 0, "merge drains the source");
        assert_eq!(b.columns().len(), 0);
    }

    #[test]
    fn columns_follow_every_writer_on_both_stores() {
        for empty in [
            Table::dense(2),
            Table::dense_for_traces(9, 1),
            Table::sorted(2, 4),
        ] {
            let mut table = empty.clone();
            absorb_all(&mut table, &[(1, 0)]);
            assert_eq!(table.columns().len(), 1);
            absorb_all(&mut table, &[(2, 1)]);
            assert_eq!(table.columns().len(), 2, "stale columns after absorb");
            table.absorb_keys(&[0u128; LANES], 0);
            table.settle();
            assert_eq!(table.columns().len(), 3, "stale columns after a batch");
            let mut other = table.empty_like();
            absorb_all(&mut other, &[(3, 0)]);
            table.merge_from(&mut other);
            assert_eq!(table.columns().len(), 4, "stale columns after merge");
            assert_eq!(other.columns().len(), 0, "merge drains the source");
        }
    }

    #[test]
    fn columns_survive_a_save_restore_round_trip() {
        // The snapshot encoder walks `columns()`, then `restore()`
        // repopulates the store on resume — on a fresh table and, after
        // a ConfigMismatch retry, on one that already served columns. A
        // stale memo or bitmap bit at any of these points would silently
        // corrupt every post-resume checkpoint.
        for empty in [
            Table::dense(3),
            Table::dense_for_traces(9, 1),
            Table::sorted(3, 8),
        ] {
            let mut table = empty.clone();
            absorb_all(&mut table, &[(1, 0), (5, 1)]);
            let saved = collected(&table);

            let mut resumed = empty.clone();
            absorb_all(&mut resumed, &[(2, 0)]);
            assert_eq!(resumed.columns().len(), 1);
            resumed.restore(saved.clone(), table.overflow(), table.samples());
            assert_eq!(collected(&resumed), saved, "stale columns after restore");
            assert_eq!(resumed.samples(), table.samples());

            // Absorption after the restore must show too, so the first
            // post-resume checkpoint sees the merged counts.
            absorb_all(&mut resumed, &[(2, 1)]);
            assert_eq!(collected(&resumed), [(1, [1, 0]), (2, [0, 1]), (5, [0, 1])]);
            assert_eq!(g_pairs(&resumed).len(), saved.len() + 1);
        }

        // A sorted table adopts sorted columns as they are, without a
        // copy.
        let mut adopted = Table::dense_for_traces(9, 1);
        let saved = vec![(1, [1, 0]), (3, [2, 2]), (5, [0, 1])];
        let address = saved.as_ptr();
        adopted.restore(saved, [0, 0], 6);
        let Store::Sorted(sorted) = &adopted.store else {
            panic!("a sparse dense table is sorted");
        };
        assert_eq!(
            sorted.columns.as_ptr(),
            address,
            "restore copied the columns"
        );

        // A foreign file's columns out of order are sorted, on every
        // layout, and later batches land on the right keys.
        let unsorted = vec![(5, [0, 1]), (1, [1, 0]), (3, [2, 2])];
        for empty in [
            Table::dense(3),
            Table::dense_for_traces(9, 1),
            Table::sorted(3, 8),
        ] {
            let mut table = empty.clone();
            table.restore(unsorted.clone(), [0, 0], 6);
            assert_eq!(collected(&table), [(1, [1, 0]), (3, [2, 2]), (5, [0, 1])]);
            table.absorb_keys(&[3; LANES], 0);
            table.settle();
            assert_eq!(collected(&table)[1], (3, [66, 2]));
            assert_eq!(table.samples(), 70);
        }

        // Past its cap, a sorted table pools the largest keys, sorted
        // input or not, and a pooled key that arrives again stays pooled.
        for input in [unsorted.clone(), collected(&adopted)] {
            let mut capped = Table::sorted(3, 2);
            capped.restore(input, [1, 0], 7);
            assert_eq!(collected(&capped), [(1, [1, 0]), (3, [2, 2])]);
            assert_eq!(capped.overflow(), [1, 1]);
            capped.absorb_keys(&[5; LANES], u64::MAX);
            capped.settle();
            assert_eq!(collected(&capped), [(1, [1, 0]), (3, [2, 2])]);
            assert_eq!(capped.overflow(), [1, 65]);
        }
    }

    #[test]
    fn restoring_a_zero_count_entry_yields_no_dense_column() {
        // A hand-edited `k 5 0 0` snapshot line names a key never seen.
        let mut table = Table::dense(3);
        table.restore(vec![(1, [2, 3]), (5, [0, 0])], [0, 0], 5);
        assert!(table.is_dense());
        assert_eq!(collected(&table), [(1, [2, 3])]);
        assert_eq!(table.distinct_keys(), 1);
    }

    #[test]
    fn dense_columns_walk_every_bitmap_word() {
        // Keys at both ends of several 64-cell words, out of order.
        let keys = [
            (700, 1),
            (0, 0),
            (63, 1),
            (64, 0),
            (1023, 1),
            (127, 0),
            (128, 1),
        ];
        let mut dense = Table::dense(10);
        absorb_all(&mut dense, &keys);
        let walked: Vec<u128> = dense.columns().map(|(key, _)| key).collect();
        assert_eq!(walked, [0, 63, 64, 127, 128, 700, 1023]);
        let mut columns = dense.columns();
        columns.next();
        assert_eq!(columns.len(), 6, "exact size after a step");
        assert_eq!(dense.distinct_keys(), 7);
    }

    #[test]
    fn hashed_overflow_pools_past_the_cap_deterministically() {
        // The larger keys arrive first and are evicted by the smaller
        // ones: the table keeps the cap smallest keys, whatever the
        // arrival order.
        let mut table = Table::sorted(3, 2);
        absorb_all(&mut table, &[(4, 1), (3, 1), (1, 0), (3, 0), (2, 0)]);
        assert_eq!(collected(&table), &[(1u128, [1u64, 0u64]), (2, [1, 0])]);
        assert_eq!(table.overflow(), [1, 2], "keys 3 and 4 pooled");
        assert_eq!(g_pairs(&table).len(), 3, "overflow is one more column");
        assert_eq!(table.samples(), 5);
        // A pooled key that arrives again stays pooled.
        absorb_all(&mut table, &[(4, 0)]);
        assert_eq!(table.overflow(), [2, 2]);
        assert_eq!(table.distinct_keys(), 2);
    }

    #[test]
    fn restore_falls_back_to_hashed_when_keys_exceed_the_dense_layout() {
        let mut table = Table::dense(2);
        table.restore(vec![(1, [5, 6]), (999, [1, 2])], [0, 0], 14);
        assert!(!table.is_dense(), "foreign snapshot forces the fallback");
        assert_eq!(collected(&table), &[(1u128, [5u64, 6u64]), (999, [1, 2])]);
        let mut sparse = Table::dense_for_traces(9, 1);
        sparse.restore(vec![(1, [5, 6]), (999, [1, 2])], [0, 0], 14);
        assert!(!sparse.is_dense(), "the sorted layout falls back too");
        assert_eq!(collected(&sparse), collected(&table));
        let mut fits = Table::dense(2);
        fits.restore(vec![(1, [5, 6]), (3, [1, 2])], [0, 0], 14);
        assert!(fits.is_dense());
        assert_eq!(collected(&fits), &[(1u128, [5u64, 6u64]), (3, [1, 2])]);
    }

    #[test]
    fn restore_pools_keys_past_the_hashed_cap() {
        let mut table = Table::sorted(4, 1);
        table.restore(vec![(1, [5, 6]), (9, [1, 2])], [1, 0], 15);
        assert_eq!(collected(&table), &[(1u128, [5u64, 6u64])]);
        assert_eq!(table.overflow(), [2, 2]);
        assert_eq!(table.samples(), 15);
    }

    #[test]
    fn resident_bytes_track_the_store() {
        let dense = Table::dense(4);
        assert_eq!(dense.resident_bytes(), 48 + 16 * 16);
        let mut capped = Table::sorted(40, 8);
        assert_eq!(capped.resident_bytes(), 48);
        absorb_all(&mut capped, &[(1, 0), (2, 1)]);
        assert_eq!(capped.resident_bytes(), 48 + 2 * 32);
        // A sorted table counts 32 bytes per settled column, whatever
        // capacity its vectors grew to: a table merged from a shard that
        // once held many keys reads like one absorbed directly.
        let mut sparse = Table::dense_for_traces(16, 12_800);
        assert!(!is_flat(&sparse));
        assert_eq!(sparse.resident_bytes(), 48);
        absorb_all(&mut sparse, &[(1, 0), (2, 1), (2, 0)]);
        assert_eq!(sparse.resident_bytes(), 48 + 2 * 32);
        let mut shard = sparse.empty_like();
        for batch in 0..80 {
            shard.absorb_keys(&std::array::from_fn(|lane| batch * 64 + lane as u128), 0);
        }
        let mut grown = sparse.empty_like();
        grown.merge_from(&mut shard);
        assert_eq!(grown.resident_bytes(), 48 + 5_120 * 32);
        absorb_all(&mut shard, &[(1, 0), (2, 1), (2, 0)]);
        let mut merged = sparse.empty_like();
        merged.merge_from(&mut shard);
        assert_eq!(merged.resident_bytes(), sparse.resident_bytes());
        assert_eq!(collected(&merged), collected(&sparse));
    }

    #[test]
    fn dense_layout_follows_the_trace_budget() {
        // sbox-eq9-trans: 12,800 traces fill at most 1.2% of a 20-bit
        // table, so its 16–20-bit tables are sorted and 15 bits stay flat.
        for (width, traces, flat) in [
            (15, 12_800, true),
            (16, 12_800, false),
            (20, 12_800, false),
            // E2 at its benchmark budget and at the paper's.
            (18, 128_000, true),
            (18, 4_000_000, true),
            (20, 4_000_000, true),
            // The boundary: 2^18 = 4 × 65,536 cells per receivable trace.
            (18, 65_536, true),
            (18, 65_536 - 64, false),
            // A batch is received whole: one trace counts as 64.
            (8, 1, true),
            (9, 1, false),
            (9, 128, true),
            (MAX_MINTERM_WIDTH, 0, true),
            (12, u64::MAX, true),
        ] {
            let table = Table::dense_for_traces(width, traces);
            assert!(table.is_dense());
            assert_eq!(is_flat(&table), flat, "{width} bits at {traces} traces");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The differential property behind [`TabulatorMode`]: on any
        /// key stream, a dense table and a capacity-matched hashed table
        /// produce identical G-test columns — including at the
        /// `2^width == max_table_keys` boundary, where the hashed
        /// store's cap is exactly the dense key space.
        #[test]
        fn dense_matches_hashed_on_random_key_streams(
            width in 1usize..=10,
            raw in prop::collection::vec((any::<u64>(), any::<bool>()), 1..200),
        ) {
            let cap = 1usize << width; // the exact 2^width == cap boundary
            let keys: Vec<(u128, usize)> = raw
                .iter()
                .map(|&(key, group)| ((key as u128) & (cap as u128 - 1), group as usize))
                .collect();
            let mut dense = Table::dense(width);
            let mut hashed = Table::sorted(width, cap);
            absorb_all(&mut dense, &keys);
            absorb_all(&mut hashed, &keys);
            prop_assert_eq!(g_pairs(&dense), g_pairs(&hashed));
            prop_assert_eq!(collected(&dense), collected(&hashed));
            prop_assert_eq!(dense.samples(), hashed.samples());
            prop_assert_eq!(dense.overflow(), [0, 0]);
            prop_assert_eq!(hashed.overflow(), [0, 0]);
        }

        /// The three absorption forms count the same batch identically:
        /// minterm popcounts over bit-planes, transposed `u32` indices
        /// and per-lane `u128` keys (on both layouts), for every narrow
        /// width and for all-fixed, all-random and mixed populations.
        #[test]
        fn plane_index_and_key_absorption_agree(
            width in 1usize..=MAX_MINTERM_WIDTH,
            batches in prop::collection::vec(
                (prop::collection::vec(any::<u64>(), MAX_MINTERM_WIDTH), any::<u64>()),
                1..4,
            ),
        ) {
            for population in [Some(0), Some(u64::MAX), None] {
                let mut by_planes = Table::dense(width);
                let mut by_indices = Table::dense(width);
                let mut by_keys = Table::dense(width);
                let mut hashed = Table::sorted(width, 1 << width);
                let mut sorted_indices = Table::sorted(width, 1 << width);
                for (planes, random_groups) in &batches {
                    let lane_groups = population.unwrap_or(*random_groups);
                    let planes = &planes[..width];
                    by_planes.absorb_planes(planes, lane_groups);
                    let mut padded = [0u64; MAX_DENSE_WIDTH];
                    padded[..width].copy_from_slice(planes);
                    let mut indices = [0u32; LANES];
                    planes_to_indices(&padded, &mut indices);
                    by_indices.absorb_indices(&indices, lane_groups);
                    sorted_indices.absorb_indices(&indices, lane_groups);
                    let keys: [u128; LANES] = std::array::from_fn(|lane| lane_key(planes, lane));
                    by_keys.absorb_keys(&keys, lane_groups);
                    hashed.absorb_keys(&keys, lane_groups);
                }
                let expected = by_keys.columns().collect::<Vec<_>>();
                for table in [&mut by_planes, &mut by_indices, &mut hashed, &mut sorted_indices] {
                    table.settle();
                    prop_assert_eq!(collected(table), expected.as_slice());
                    prop_assert_eq!(table.samples(), (LANES * batches.len()) as u64);
                    prop_assert_eq!(table.overflow(), [0, 0]);
                }
            }
        }

        /// Every writer against the smallest-keys rule, on both layouts:
        /// a dense table laid out for a budget of `2^budget` traces, an
        /// uncapped sorted table and one capped at 1–8 keys are fed a
        /// random mix of single observations, plane batches, index
        /// batches, shard merges and save/restore round trips, and
        /// settled at random points. Whenever they are settled, the
        /// dense table walks exactly the uncapped table's columns, and
        /// both equal a `BTreeMap` oracle of every observation; the
        /// capped table holds the oracle's `cap` smallest keys and pools
        /// the rest into overflow; and `distinct_keys()` and `samples()`
        /// count them. Widths up to 12 span several bitmap words and, at
        /// small budgets, give sorted dense tables from 9 bits up; plane
        /// batches run where the width allows them (always on a flat
        /// table) and fall back to index batches elsewhere.
        #[test]
        fn dense_column_walk_matches_hashed_sorted_columns(
            width in 1usize..=12,
            budget in 0u32..12,
            cap in 1usize..=8,
            steps in prop::collection::vec((0u8..5, any::<u64>(), any::<bool>()), 1..24),
        ) {
            let mask = (1u64 << width) - 1;
            let traces = 1u64 << budget;
            let mut dense = Table::dense_for_traces(width, traces);
            let flat = is_flat(&dense);
            let receivable = traces.div_ceil(LANES as u64) * LANES as u64;
            prop_assert_eq!(flat, 1u64 << width <= DENSE_CELLS_PER_TRACE * receivable);
            prop_assert!(flat || width > MAX_MINTERM_WIDTH, "a narrow table is sorted");
            let mut hashed = Table::sorted(width, 1 << width);
            let mut capped = Table::sorted(width, cap);
            let mut oracle = BTreeMap::new();
            for (step, &(writer, seed, settle)) in steps.iter().enumerate() {
                let mut state = seed;
                let lane_groups = splitmix(&mut state);
                // Sparse planes: each observed bit is set in ~1/4 of the
                // lanes, so wide tables stay mostly empty.
                let planes: Vec<u64> = (0..width)
                    .map(|_| splitmix(&mut state) & splitmix(&mut state))
                    .collect();
                let keys: [u128; LANES] = std::array::from_fn(|lane| lane_key(&planes, lane));
                let mut padded = [0u64; MAX_DENSE_WIDTH];
                padded[..width].copy_from_slice(&planes);
                let mut indices = [0u32; LANES];
                planes_to_indices(&padded, &mut indices);
                if (1..=3).contains(&writer) {
                    observe_batch(&mut oracle, &keys, lane_groups);
                }
                match writer {
                    0 => {
                        let key = u128::from(seed & mask);
                        let cell = [seed >> 60, ((seed >> 56) & 0xf) + 1];
                        add(oracle.entry(key).or_default(), cell);
                        for table in [&mut dense, &mut hashed, &mut capped] {
                            table.absorb(key, cell);
                        }
                    }
                    1 if flat && width <= MAX_MINTERM_WIDTH => {
                        dense.absorb_planes(&planes, lane_groups);
                        hashed.absorb_keys(&keys, lane_groups);
                        capped.absorb_keys(&keys, lane_groups);
                    }
                    1 | 2 => {
                        dense.absorb_indices(&indices, lane_groups);
                        hashed.absorb_indices(&indices, lane_groups);
                        capped.absorb_keys(&keys, lane_groups);
                    }
                    3 => {
                        for table in [&mut dense, &mut hashed, &mut capped] {
                            let mut shard = table.empty_like();
                            shard.absorb_keys(&keys, lane_groups);
                            if settle {
                                shard.settle();
                            }
                            table.merge_from(&mut shard);
                            prop_assert_eq!(shard.columns().len(), 0);
                            prop_assert_eq!(shard.samples(), 0);
                        }
                    }
                    _ => {
                        for table in [&mut dense, &mut hashed, &mut capped] {
                            table.settle();
                            let mut restored = table.empty_like();
                            restored.restore(collected(table), table.overflow(), table.samples());
                            *table = restored;
                        }
                    }
                }
                prop_assert!(dense.is_dense());
                prop_assert_eq!(is_flat(&dense), flat, "a writer changed the layout");
                if !settle && step + 1 < steps.len() {
                    continue;
                }
                for table in [&mut dense, &mut hashed, &mut capped] {
                    table.settle();
                }
                let walked = collected(&dense);
                prop_assert_eq!(&walked, &collected(&hashed));
                prop_assert_eq!(&walked, &smallest_keys(&oracle, usize::MAX).0);
                prop_assert_eq!(dense.columns().len(), walked.len());
                // `fold` dispatches once per walk; from a partly
                // consumed walk it must yield the rest, on both layouts.
                for table in [&dense, &hashed] {
                    let mut columns = table.columns();
                    let skipped = usize::from(columns.next().is_some());
                    let rest = columns.fold(Vec::new(), |mut rest, column| {
                        rest.push(column);
                        rest
                    });
                    prop_assert_eq!(rest.as_slice(), &walked[skipped..]);
                }
                prop_assert_eq!(dense.distinct_keys(), walked.len());
                prop_assert!(walked.iter().all(|&(_, cell)| cell[0] | cell[1] != 0));
                prop_assert_eq!(dense.samples(), hashed.samples());
                prop_assert_eq!(dense.overflow(), [0, 0]);
                let (kept, pooled) = smallest_keys(&oracle, cap);
                prop_assert_eq!(collected(&capped), kept);
                prop_assert_eq!(capped.overflow(), pooled);
                prop_assert_eq!(capped.samples(), dense.samples());
            }
        }

        /// Below the dense threshold a sorted table pools overflow:
        /// mass is conserved and the bucket is one extra column.
        #[test]
        fn hashed_overflow_conserves_mass(
            raw in prop::collection::vec((any::<u64>(), any::<bool>()), 1..200),
            cap in 1usize..8,
        ) {
            let keys: Vec<(u128, usize)> = raw
                .iter()
                .map(|&(key, group)| ((key as u128) & 0xff, group as usize))
                .collect();
            let mut table = Table::sorted(8, cap);
            absorb_all(&mut table, &keys);
            prop_assert!(table.distinct_keys() <= cap);
            let tallied: u64 = g_pairs(&table)
                .iter()
                .map(|&(fixed, random)| fixed + random)
                .sum();
            prop_assert_eq!(tallied, keys.len() as u64);
            prop_assert_eq!(table.samples(), keys.len() as u64);
        }

        /// A sorted table's final state depends only on the multiset of
        /// observations: any arrival order, any settle points, and any
        /// split into shards folded by `merge_from` in any order give the
        /// columns and overflow of a `BTreeMap` oracle of the
        /// smallest-keys rule — with caps of 1–8 both below and above
        /// the number of distinct keys, and with narrow and wide
        /// (`u128`-logged) keys.
        #[test]
        fn hashed_tables_do_not_depend_on_order_or_sharding(
            batches in prop::collection::vec((0u8..3, any::<u64>()), 1..40),
            range in 1u64..16,
            cap in 1usize..=8,
            wide in any::<bool>(),
            seed in any::<u64>(),
            shards in 1usize..6,
        ) {
            let (width, base) = if wide { (128, 1u128 << 100) } else { (4, 0) };
            let batches: Vec<(u8, [u128; LANES], u64)> = batches
                .iter()
                .map(|&(mode, batch_seed)| {
                    let mut state = batch_seed;
                    let keys = std::array::from_fn(|_| base + u128::from(splitmix(&mut state) % range));
                    (mode, keys, splitmix(&mut state))
                })
                .collect();
            let mut oracle = BTreeMap::new();
            for (_, keys, lane_groups) in &batches {
                observe_batch(&mut oracle, keys, *lane_groups);
            }
            let (kept, pooled) = smallest_keys(&oracle, cap);

            // Mode 0 logs a batch, 1 logs and settles, 2 absorbs its
            // lanes one by one.
            let feed = |table: &mut Table, batches: &[(u8, [u128; LANES], u64)]| {
                for &(mode, keys, lane_groups) in batches {
                    if mode == 2 {
                        for (lane, &key) in keys.iter().enumerate() {
                            let mut cell = [0, 0];
                            cell[((lane_groups >> lane) & 1) as usize] = 1;
                            table.absorb(key, cell);
                        }
                    } else {
                        table.absorb_keys(&keys, lane_groups);
                    }
                    if mode == 1 {
                        table.settle();
                    }
                }
            };
            let mut reference = Table::sorted(width, cap);
            feed(&mut reference, &batches);

            let shuffled = permuted(&batches, seed);
            let mut reordered = Table::sorted(width, cap);
            feed(&mut reordered, &shuffled);

            let mut locals: Vec<Table> = (0..shards)
                .map(|shard| {
                    let mut local = reference.empty_like();
                    let part: Vec<_> = shuffled.iter().skip(shard).step_by(shards).copied().collect();
                    feed(&mut local, &part);
                    local
                })
                .collect();
            let mut merged = Table::sorted(width, cap);
            for shard in permuted(&(0..shards).collect::<Vec<_>>(), seed ^ 1) {
                merged.merge_from(&mut locals[shard]);
                prop_assert_eq!(locals[shard].samples(), 0);
                prop_assert_eq!(locals[shard].columns().len(), 0);
            }

            for table in [&mut reference, &mut reordered, &mut merged] {
                table.settle();
                prop_assert_eq!(collected(table), kept.as_slice());
                prop_assert_eq!(table.overflow(), pooled);
                prop_assert_eq!(table.samples(), (LANES * batches.len()) as u64);
                prop_assert!(table.distinct_keys() <= cap);
            }
        }
    }
}
