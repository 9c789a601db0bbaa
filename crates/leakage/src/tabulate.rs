//! Contingency-table tabulation engines (DESIGN.md §5a).
//!
//! A fixed-vs-random campaign spends most of its time turning
//! observations into contingency-table counts. This module provides two
//! table stores behind one [`Table`] type:
//!
//! * **Dense** — cells indexed by the packed observation key. Selected
//!   per probing set when the set's exact key-space width fits
//!   (`2^width ≤ max_table_keys`, width ≤ [`MAX_DENSE_WIDTH`]):
//!   absorption needs no key comparison, no sorting and no per-batch
//!   allocation, and the table can never overflow its cap. A dense
//!   table has one of two layouts, chosen once from the campaign's trace
//!   budget (`Table::dense_for_traces`). It is **flat**, a
//!   `Vec<[u64; 2]>` of every cell, when the key space holds at most
//!   [`DENSE_CELLS_PER_TRACE`] cells per trace the table can receive;
//!   otherwise it is **mapped**, a hash map from `u32` index to cell
//!   holding only the cells seen, since a budget of `n` traces can fill
//!   at most `n` of them.
//! * **Hashed** — a `HashMap<u128, [u64; 2]>` for sets wider than the
//!   dense rule admits. It keeps at most `cap` keys: the **`cap`
//!   smallest keys it has seen**, by key value, with every other key's
//!   counts pooled into one overflow bucket. An arriving key larger than every retained key
//!   of a full table goes to overflow; a smaller one evicts the largest
//!   retained key, whose counts move to overflow. A key in the `cap`
//!   smallest is therefore never pooled, and any other key ends up
//!   pooled, so the final state depends only on the multiset of
//!   observations — not on arrival order, batching or sharding.
//!
//! Both hash maps use `KeyHash`, a fixed multiplicative hash: keys are
//! simulated observations, not attacker input, so a keyed SipHash buys
//! nothing and costs most of a probe. The one outside source of keys is
//! a snapshot being resumed; a crafted one could make its own resume
//! slow, never its counts wrong.
//!
//! A dense table absorbs a batch in one of two forms, picked by width.
//! Sets at most [`MAX_MINTERM_WIDTH`] bits wide hand over the
//! observation's bit-planes ([`Table::absorb_planes`]): a shared AND tree
//! ([`for_each_minterm`]) splits the 64 lanes by key, and each cell grows
//! by two popcounts, so no lane is visited. Such tables are always flat.
//! Wider dense sets hand over per-lane `u32` indices, built by two 32×32
//! bit-matrix transposes of the planes ([`Table::absorb_indices`]),
//! which pick the layout once per batch. Hashed tables take per-lane
//! `u128` keys ([`Table::absorb_keys`]). All three forms count exactly
//! the same cells, since a minterm's popcount is the number of lanes
//! whose packed key is that minterm's key.
//!
//! Both stores absorb **commutatively**, which is what lets the campaign
//! engine run one windowed driver: workers absorb into their own shard
//! tables and [`Table::merge_from`] folds them under the same rule.
//!
//! Byte-identity across the two stores is structural, not statistical:
//! a dense-eligible set has at most `2^width ≤ max_table_keys` distinct
//! keys, so the hashed store never overflows on it either, and because
//! keys are packed with bit `i` of the observation at key bit `i`, the
//! dense index order *is* the sorted-u128-key order the hashed store
//! serializes in. Same cells, same order, same bytes — in either dense
//! layout.
//!
//! Readers never copy a table: [`Table::columns`] walks it in place, in
//! key order, and the statistic sweeps, the snapshot encoder and the
//! final hand-back all consume that walk. A dense table keeps an
//! occupancy bitmap, one bit per key, which every writer sets exactly
//! when a cell becomes non-zero, so the walk reads one bitmap word per
//! 64 keys and then only the occupied cells (`trailing_zeros`), from the
//! flat array or the map: a wide table holding few keys is cheap to
//! read. A hashed table memoizes its sorted entries until the next
//! absorption, so a checkpoint's statistic sweep, its snapshot and the
//! final report share one sort.

use std::cell::OnceCell;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasher, Hasher};

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
/// only its seen cells in a map beyond that. At 4, every table of E2's
/// paper and default budgets stays flat, while the sparse 16–20-bit
/// tables of a short glitch+transition run become maps. DESIGN.md §5a
/// records the factors 2, 4 and 8 that chose it.
pub const DENSE_CELLS_PER_TRACE: u64 = 4;

/// Fixed per-table bookkeeping bytes (struct header, overflow, memo
/// slot) counted by [`Table::resident_bytes`].
const TABLE_OVERHEAD_BYTES: u64 = 48;

/// Bytes per flat dense cell: one `[u64; 2]`.
const DENSE_CELL_BYTES: u64 = 16;

/// Estimated resident bytes per mapped dense entry: 24 bytes of payload
/// (`u32` index + `[u64; 2]` cell, aligned) plus hash-table bucket
/// overhead, at the same 1.5× as [`HASHED_ENTRY_BYTES`].
const MAPPED_ENTRY_BYTES: u64 = 36;

/// Estimated resident bytes per hashed entry: 32 bytes of payload
/// (`u128` key + `[u64; 2]` cell) plus hash-table bucket overhead.
const HASHED_ENTRY_BYTES: u64 = 48;

/// Which contingency-table store a campaign uses.
///
/// Not a user option: campaigns run [`TabulatorMode::Dense`], and
/// `Hashed` is the hook the campaign-level differential suites use to
/// force the sparse store on every probing set. Both produce
/// byte-identical reports, CSVs, trajectories and snapshots whenever no
/// table overflows its cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TabulatorMode {
    /// Direct-indexed flat tables for every set that fits the selection
    /// rule, the hashed store for the rest. The default.
    #[default]
    Dense,
    /// The hashed store for every set.
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

/// The tables' hash: a fixed folded multiply (the 128-bit product of
/// the key's two halves, each xored with a constant, with its halves
/// xored together), so every key bit reaches both the low bits that
/// pick a bucket and the high bits that tag it.
#[derive(Debug, Clone, Copy, Default)]
struct KeyHash;

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(0)
    }
}

/// The state of one [`KeyHash`] hash.
#[derive(Debug, Clone, Copy)]
struct KeyHasher(u64);

impl KeyHasher {
    const LOW: u64 = 0x243f_6a88_85a3_08d3;
    const HIGH: u64 = 0x1319_8a2e_0370_7344;
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.0 = folded_multiply(self.0 ^ value ^ Self::LOW, Self::HIGH);
    }

    #[inline]
    fn write_u128(&mut self, value: u128) {
        self.0 = folded_multiply(
            self.0 ^ value as u64 ^ Self::LOW,
            (value >> 64) as u64 ^ Self::HIGH,
        );
    }
}

/// The full product of `a` and `b`, its high half xored into its low.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    full as u64 ^ (full >> 64) as u64
}

/// The two table stores.
#[derive(Debug, Clone)]
enum Store {
    Hashed(Sparse),
    Dense(Dense),
}

/// The dense store: cells indexed by the packed observation key, and an
/// occupancy bitmap whose bit `i` is set exactly when cell `i` is
/// non-zero (counts only ever increment, so those are the keys seen).
#[derive(Debug, Clone)]
struct Dense {
    /// The key space, `2^width`.
    len: usize,
    cells: Cells,
    occupied: Vec<u64>,
}

/// A dense table's cells, in the layout its budget chose.
#[derive(Debug, Clone)]
enum Cells {
    /// Every cell of the key space.
    Flat(Vec<[u64; 2]>),
    /// Only the non-zero cells, by index.
    Mapped(HashMap<u32, [u64; 2], KeyHash>),
}

impl Dense {
    fn new(len: usize, flat: bool) -> Self {
        Dense {
            len,
            cells: if flat {
                Cells::Flat(vec![[0, 0]; len])
            } else {
                Cells::Mapped(HashMap::default())
            },
            occupied: vec![0; len.div_ceil(64)],
        }
    }

    /// An empty store with this one's key space and layout.
    fn empty_like(&self) -> Self {
        Dense::new(self.len, matches!(self.cells, Cells::Flat(_)))
    }

    /// Adds `cell` at `index`.
    fn add(&mut self, index: usize, cell: [u64; 2]) {
        if cell[0] | cell[1] == 0 {
            return;
        }
        match &mut self.cells {
            Cells::Flat(cells) => add(&mut cells[index], cell),
            Cells::Mapped(cells) => add(cells.entry(index as u32).or_default(), cell),
        }
        mark(&mut self.occupied, index);
    }

    /// Counts one batch of per-lane indices, choosing the layout once.
    fn absorb_indices(&mut self, indices: &[u32; LANES], lane_groups: u64) {
        let occupied = &mut self.occupied;
        match &mut self.cells {
            Cells::Flat(cells) => {
                for (lane, &index) in indices.iter().enumerate() {
                    cells[index as usize][((lane_groups >> lane) & 1) as usize] += 1;
                    mark(occupied, index as usize);
                }
            }
            Cells::Mapped(cells) => {
                // A mapped key space is wider than 8 bits, so a whole
                // number of bitmap words: marking first bounds-checks.
                for (lane, &index) in indices.iter().enumerate() {
                    mark(occupied, index as usize);
                    cells.entry(index).or_default()[((lane_groups >> lane) & 1) as usize] += 1;
                }
            }
        }
    }

    /// Moves every cell of `from`, which must have the same key space
    /// and layout, into this store, leaving `from` empty.
    fn merge_from(&mut self, from: &mut Dense) {
        assert_eq!(self.len, from.len, "mismatched dense widths");
        match (&mut self.cells, &mut from.cells) {
            (Cells::Flat(into), Cells::Flat(cells)) => {
                // Only the source's occupied cells are non-zero.
                for (word, (into_bits, from_bits)) in
                    self.occupied.iter_mut().zip(&mut from.occupied).enumerate()
                {
                    let mut bits = std::mem::take(from_bits);
                    *into_bits |= bits;
                    while bits != 0 {
                        let index = word * 64 + bits.trailing_zeros() as usize;
                        add(&mut into[index], std::mem::take(&mut cells[index]));
                        bits &= bits - 1;
                    }
                }
            }
            (Cells::Mapped(into), Cells::Mapped(cells)) => {
                for (index, cell) in cells.drain() {
                    add(into.entry(index).or_default(), cell);
                    mark(&mut self.occupied, index as usize);
                    from.occupied[index as usize / 64] = 0;
                }
            }
            _ => panic!("merge_from requires matching dense layouts"),
        }
    }

    /// Replaces the contents with `counts`, whose keys must all lie in
    /// the key space; zero-count entries are unseen keys and skipped.
    fn restore(&mut self, counts: Vec<(u128, [u64; 2])>) {
        self.occupied.fill(0);
        match &mut self.cells {
            Cells::Flat(cells) => cells.fill([0, 0]),
            Cells::Mapped(cells) => {
                *cells = HashMap::with_capacity_and_hasher(counts.len(), KeyHash);
            }
        }
        for (key, cell) in counts {
            self.add(key as usize, cell);
        }
    }

    /// Walks the occupied cells in index order.
    fn columns(&self) -> Columns<'_> {
        let bits = Occupied::new(&self.occupied);
        Columns(match &self.cells {
            Cells::Flat(cells) => Walk::Flat { cells, bits },
            Cells::Mapped(cells) => Walk::Mapped { cells, bits },
        })
    }

    /// See [`Table::resident_bytes`].
    fn resident_bytes(&self) -> u64 {
        match &self.cells {
            Cells::Flat(cells) => DENSE_CELL_BYTES * cells.len() as u64,
            Cells::Mapped(cells) => {
                MAPPED_ENTRY_BYTES * cells.len() as u64 + 8 * self.occupied.len() as u64
            }
        }
    }
}

/// Sets bit `index` of an occupancy bitmap.
#[inline]
fn mark(occupied: &mut [u64], index: usize) {
    occupied[index / 64] |= 1 << (index % 64);
}

/// The hashed store: the `cap` smallest keys seen, with their counts.
#[derive(Debug, Clone)]
struct Sparse {
    counts: HashMap<u128, [u64; 2], KeyHash>,
    cap: usize,
    /// Max-heap over the retained keys, built the first time the table
    /// is full and kept in step with `counts` from then on. Empty until
    /// then, so a table that never reaches its cap pays nothing for the
    /// eviction order.
    retained: BinaryHeap<u128>,
    /// The `(key, cell)` entries sorted by key, memoized until the next
    /// absorption. Every writer drops it once per call.
    sorted: OnceCell<Vec<(u128, [u64; 2])>>,
}

impl Sparse {
    fn new(cap: usize) -> Self {
        Sparse {
            counts: HashMap::default(),
            cap,
            retained: BinaryHeap::new(),
            sorted: OnceCell::new(),
        }
    }

    /// The smallest-keys rule: adds `cell` to `key` while keeping at
    /// most `cap` keys, and returns the counts that must be pooled into
    /// overflow instead (the arriving cell, or the evicted largest
    /// key's cell). The caller drops the sorted memo.
    #[inline]
    fn absorb(&mut self, key: u128, cell: [u64; 2]) -> Option<[u64; 2]> {
        if self.counts.len() < self.cap {
            add(self.counts.entry(key).or_default(), cell);
            return None;
        }
        if let Some(slot) = self.counts.get_mut(&key) {
            add(slot, cell);
            return None;
        }
        if self.retained.is_empty() {
            self.retained.extend(self.counts.keys().copied());
        }
        match self.retained.peek() {
            Some(&largest) if key < largest => {
                self.retained.pop();
                self.retained.push(key);
                let evicted = self
                    .counts
                    .remove(&largest)
                    .expect("heap mirrors the table");
                self.counts.insert(key, cell);
                Some(evicted)
            }
            _ => Some(cell),
        }
    }

    /// Walks the retained entries in key order, sorting them once per
    /// absorption.
    fn columns(&self) -> Columns<'_> {
        let sorted = self.sorted.get_or_init(|| {
            let mut entries: Vec<(u128, [u64; 2])> = self
                .counts
                .iter()
                .map(|(&key, &cell)| (key, cell))
                .collect();
            entries.sort_unstable_by_key(|&(key, _)| key);
            entries
        });
        Columns::from(sorted.as_slice())
    }
}

/// A contingency table over observation keys for one probing set:
/// `[fixed, random]` counts per key, and an overflow bucket past the key
/// cap (hashed store only — dense tables cannot overflow).
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

    /// An empty hashed table retaining at most `cap` keys.
    pub fn hashed(cap: usize) -> Self {
        Table::with_store(Store::Hashed(Sparse::new(cap)))
    }

    /// An empty flat dense table of `2^width` cells.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds [`MAX_DENSE_WIDTH`] — callers gate on
    /// the selection rule first.
    pub fn dense(width: usize) -> Self {
        assert!(width <= MAX_DENSE_WIDTH, "dense width {width} too wide");
        Table::with_store(Store::Dense(Dense::new(1usize << width, true)))
    }

    /// An empty dense table over `2^width` keys, laid out for a campaign
    /// of `traces` traces: flat when `2^width ≤`
    /// [`DENSE_CELLS_PER_TRACE`] `×` the traces it can receive, mapped
    /// otherwise. A campaign absorbs whole batches of [`LANES`] traces,
    /// so a table receives `traces` rounded up to a batch, and one of at
    /// most [`MAX_MINTERM_WIDTH`] bits is always flat.
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
        Table::with_store(Store::Dense(Dense::new(1usize << width, false)))
    }

    /// An empty table with this table's store layout — a worker's shard.
    pub fn empty_like(&self) -> Self {
        match &self.store {
            Store::Hashed(sparse) => Table::hashed(sparse.cap),
            Store::Dense(dense) => Table::with_store(Store::Dense(dense.empty_like())),
        }
    }

    /// Whether this table uses the dense direct-indexed store (in either
    /// layout).
    pub fn is_dense(&self) -> bool {
        matches!(self.store, Store::Dense(_))
    }

    /// Total samples absorbed (both populations, overflow included).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// `[fixed, random]` counts pooled past the key cap.
    pub fn overflow(&self) -> [u64; 2] {
        self.overflow
    }

    /// Adds `cell` to `key`'s counts — on the hashed store under the
    /// smallest-keys rule (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `key` lies outside a dense table's key space.
    pub fn absorb(&mut self, key: u128, cell: [u64; 2]) {
        self.samples += cell[0] + cell[1];
        match &mut self.store {
            Store::Dense(dense) => {
                let index = usize::try_from(key)
                    .ok()
                    .filter(|&index| index < dense.len)
                    .expect("dense key");
                dense.add(index, cell);
            }
            Store::Hashed(sparse) => {
                sparse.sorted.take();
                if let Some(pooled) = sparse.absorb(key, cell) {
                    add(&mut self.overflow, pooled);
                }
            }
        }
    }

    /// Absorbs one batch of per-lane observation keys: lane `i` belongs
    /// to the random population when bit `i` of `lane_groups` is set.
    ///
    /// # Panics
    ///
    /// Panics if a key lies outside a dense table's key space.
    pub fn absorb_keys(&mut self, keys: &[u128; LANES], lane_groups: u64) {
        match &mut self.store {
            Store::Dense(_) => {
                let indices = keys.map(|key| u32::try_from(key).expect("dense key"));
                self.absorb_indices(&indices, lane_groups);
            }
            Store::Hashed(sparse) => {
                self.samples += LANES as u64;
                sparse.sorted.take();
                for (lane, &key) in keys.iter().enumerate() {
                    let mut cell = [0, 0];
                    cell[((lane_groups >> lane) & 1) as usize] = 1;
                    if let Some(pooled) = sparse.absorb(key, cell) {
                        add(&mut self.overflow, pooled);
                    }
                }
            }
        }
    }

    /// Absorbs one batch of per-lane packed indices directly — the
    /// dense fast path: [`LANES`] increments, in the layout chosen once
    /// for the batch. Lane populations as in [`Table::absorb_keys`].
    ///
    /// # Panics
    ///
    /// Panics on a hashed table, or if an index exceeds the table's
    /// width — an internal invariant violation, since indices are
    /// packed from exactly the bits the width was computed from.
    pub fn absorb_indices(&mut self, indices: &[u32; LANES], lane_groups: u64) {
        let Store::Dense(dense) = &mut self.store else {
            unreachable!("absorb_indices on a hashed table");
        };
        self.samples += LANES as u64;
        dense.absorb_indices(indices, lane_groups);
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
    /// Panics on a hashed or mapped table (a dense table this narrow is
    /// always flat), if the table is not `2^planes.len()` cells, or if
    /// `planes` is wider than [`MAX_MINTERM_WIDTH`].
    pub fn absorb_planes(&mut self, planes: &[u64], lane_groups: u64) {
        let Store::Dense(Dense {
            cells: Cells::Flat(cells),
            occupied,
            ..
        }) = &mut self.store
        else {
            unreachable!("absorb_planes on a hashed or mapped table");
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

    /// Folds `other` into `self` and drains `other` back to empty — the
    /// merge a multi-threaded campaign runs once per checkpoint window
    /// over each worker's shard tables. Hashed tables merge under the
    /// smallest-keys rule, so the result equals absorbing both
    /// observation streams into one table, in any order.
    ///
    /// # Panics
    ///
    /// Panics if the two tables' store layouts differ (shards are built
    /// with [`Table::empty_like`]).
    pub fn merge_from(&mut self, other: &mut Table) {
        self.samples += std::mem::take(&mut other.samples);
        add(&mut self.overflow, std::mem::take(&mut other.overflow));
        match (&mut self.store, &mut other.store) {
            (Store::Dense(into), Store::Dense(from)) => into.merge_from(from),
            (Store::Hashed(into), Store::Hashed(from)) => {
                let from = std::mem::replace(from, Sparse::new(from.cap));
                into.sorted.take();
                for (key, cell) in from.counts {
                    if let Some(pooled) = into.absorb(key, cell) {
                        add(&mut self.overflow, pooled);
                    }
                }
            }
            _ => panic!("merge_from requires matching table layouts"),
        }
    }

    /// Restores serialized state (sorted `(key, cell)` pairs, overflow,
    /// samples) into this table — the resume path. A dense table whose
    /// key space cannot hold a key (a foreign or hand-edited snapshot)
    /// falls back to a hashed store with the dense key space as its cap
    /// rather than failing; a hashed table past its cap pools its
    /// largest keys into overflow. A dense table keeps its layout and
    /// skips zero-count entries, which are unseen keys there.
    pub fn restore(&mut self, mut counts: Vec<(u128, [u64; 2])>, overflow: [u64; 2], samples: u64) {
        self.overflow = overflow;
        self.samples = samples;
        if let Store::Dense(dense) = &mut self.store {
            if counts.iter().all(|&(key, _)| key < dense.len as u128) {
                dense.restore(counts);
                return;
            }
            self.store = Store::Hashed(Sparse::new(dense.len));
        }
        let Store::Hashed(sparse) = &mut self.store else {
            unreachable!("dense handled above");
        };
        *sparse = Sparse::new(sparse.cap);
        counts.sort_unstable_by_key(|&(key, _)| key);
        let kept = counts.len().min(sparse.cap);
        for &(_, cell) in &counts[kept..] {
            add(&mut self.overflow, cell);
        }
        sparse.counts = counts.into_iter().take(kept).collect();
    }

    /// The `(key, cell)` columns in sorted key order, read in place. The
    /// G statistic is a float sum, so a deterministic column order is
    /// what makes checkpoint trajectories byte-identical across runs and
    /// resume legs; for the dense store the walk over the occupancy
    /// bitmap *is* sorted-key order, because the packed index equals the
    /// key.
    pub fn columns(&self) -> Columns<'_> {
        match &self.store {
            Store::Dense(dense) => dense.columns(),
            Store::Hashed(sparse) => sparse.columns(),
        }
    }

    /// Distinct observation keys retained (the overflow bucket excluded):
    /// for a dense table, its bitmap's popcount.
    pub fn distinct_keys(&self) -> usize {
        match &self.store {
            Store::Dense(dense) => dense.columns().len(),
            Store::Hashed(sparse) => sparse.counts.len(),
        }
    }

    /// Resident bytes of the table store, from its logical content, never
    /// from allocator state or hash-map capacity, so the figure is
    /// deterministic across thread counts and resume legs.
    ///
    /// * Flat dense: the cell array, fully allocated up front. Its
    ///   occupancy bitmap (one bit per 16-byte cell, 1/128 more) is not
    ///   counted, so the figure stays the one perfbench checks for E2's
    ///   tables (35,884,144 bytes) until the benchmark's expectation
    ///   changes.
    /// * Mapped dense: a per-entry estimate including bucket overhead,
    ///   plus the occupancy bitmap, which is most of a sparse table.
    /// * Hashed: a per-entry estimate including bucket overhead; the
    ///   sorted memo is not counted.
    pub fn resident_bytes(&self) -> u64 {
        TABLE_OVERHEAD_BYTES
            + match &self.store {
                Store::Dense(dense) => dense.resident_bytes(),
                Store::Hashed(sparse) => HASHED_ENTRY_BYTES * sparse.counts.len() as u64,
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
    /// A flat dense store's occupied cells.
    Flat {
        cells: &'a [[u64; 2]],
        bits: Occupied<'a>,
    },
    /// A mapped dense store's cells, looked up in bitmap order.
    Mapped {
        cells: &'a HashMap<u32, [u64; 2], KeyHash>,
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
            Walk::Mapped { cells, bits } => {
                let index = bits.next()?;
                Some((index as u128, cells[&(index as u32)]))
            }
        }
    }

    /// Dispatches on the walk once, not per column, so that the loops of
    /// `for_each`, `sum` and the other folding consumers are specialized
    /// to one store.
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
            Walk::Mapped { cells, mut bits } => {
                let mut acc = init;
                while let Some(index) = bits.next() {
                    acc = f(acc, (index as u128, cells[&(index as u32)]));
                }
                acc
            }
        }
    }

    /// Exact: a dense walk counts the bits left in its bitmap.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = match &self.0 {
            Walk::Sorted(entries) => entries.len(),
            Walk::Flat { bits, .. } | Walk::Mapped { bits, .. } => bits.len(),
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

    /// The table's columns, collected.
    fn collected(table: &Table) -> Vec<(u128, [u64; 2])> {
        table.columns().collect()
    }

    /// Whether `table` is a flat dense table.
    fn is_flat(table: &Table) -> bool {
        matches!(
            table.store,
            Store::Dense(Dense {
                cells: Cells::Flat(_),
                ..
            })
        )
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

    #[test]
    fn dense_and_hashed_agree_on_a_fixed_stream() {
        let mut dense = Table::dense(4);
        let mut hashed = Table::hashed(16);
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
        let mut hashed = Table::hashed(8);
        hashed.absorb_keys(&keys, lane_groups);
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
            Table::hashed(4),
        ] {
            let mut table = empty.clone();
            absorb_all(&mut table, &[(1, 0)]);
            assert_eq!(table.columns().len(), 1);
            absorb_all(&mut table, &[(2, 1)]);
            assert_eq!(table.columns().len(), 2, "stale columns after absorb");
            table.absorb_keys(&[0u128; LANES], 0);
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
            Table::hashed(8),
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
        let mut table = Table::hashed(2);
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
        let mut fits = Table::dense(2);
        fits.restore(vec![(1, [5, 6]), (3, [1, 2])], [0, 0], 14);
        assert!(fits.is_dense());
        assert_eq!(collected(&fits), &[(1u128, [5u64, 6u64]), (3, [1, 2])]);
    }

    #[test]
    fn restore_pools_keys_past_the_hashed_cap() {
        let mut table = Table::hashed(1);
        table.restore(vec![(1, [5, 6]), (9, [1, 2])], [1, 0], 15);
        assert_eq!(collected(&table), &[(1u128, [5u64, 6u64])]);
        assert_eq!(table.overflow(), [2, 2]);
        assert_eq!(table.samples(), 15);
    }

    #[test]
    fn resident_bytes_track_the_store() {
        let dense = Table::dense(4);
        assert_eq!(dense.resident_bytes(), 48 + 16 * 16);
        let mut hashed = Table::hashed(8);
        assert_eq!(hashed.resident_bytes(), 48);
        absorb_all(&mut hashed, &[(1, 0), (2, 1)]);
        assert_eq!(hashed.resident_bytes(), 48 + 2 * 48);
        // A mapped table counts its entries and its 2^16-bit bitmap,
        // whatever capacity its map grew to: a table merged from a shard
        // that once held many keys reads like one absorbed directly.
        let mut mapped = Table::dense_for_traces(16, 12_800);
        assert!(!is_flat(&mapped));
        assert_eq!(mapped.resident_bytes(), 48 + 8192);
        absorb_all(&mut mapped, &[(1, 0), (2, 1), (2, 0)]);
        assert_eq!(mapped.resident_bytes(), 48 + 2 * 36 + 8192);
        let mut shard = mapped.empty_like();
        let many: Vec<(u128, usize)> = (0..5_000).map(|key| (key, 0)).collect();
        absorb_all(&mut shard, &many);
        let mut grown = mapped.empty_like();
        grown.merge_from(&mut shard);
        absorb_all(&mut shard, &[(1, 0), (2, 1), (2, 0)]);
        let mut merged = mapped.empty_like();
        merged.merge_from(&mut shard);
        assert_eq!(merged.resident_bytes(), mapped.resident_bytes());
        assert_eq!(collected(&merged), collected(&mapped));
    }

    #[test]
    fn dense_layout_follows_the_trace_budget() {
        // sbox-eq9-trans: 12,800 traces fill at most 1.2% of a 20-bit
        // table, so its 16–20-bit tables are mapped and 15 bits stay flat.
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
            let mut hashed = Table::hashed(cap);
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
        /// and per-lane `u128` keys (on both stores), for every narrow
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
                let mut hashed = Table::hashed(1 << width);
                for (planes, random_groups) in &batches {
                    let lane_groups = population.unwrap_or(*random_groups);
                    let planes = &planes[..width];
                    by_planes.absorb_planes(planes, lane_groups);
                    let mut padded = [0u64; MAX_DENSE_WIDTH];
                    padded[..width].copy_from_slice(planes);
                    let mut indices = [0u32; LANES];
                    planes_to_indices(&padded, &mut indices);
                    by_indices.absorb_indices(&indices, lane_groups);
                    let keys: [u128; LANES] = std::array::from_fn(|lane| lane_key(planes, lane));
                    by_keys.absorb_keys(&keys, lane_groups);
                    hashed.absorb_keys(&keys, lane_groups);
                }
                let expected = by_keys.columns().collect::<Vec<_>>();
                for table in [&mut by_planes, &mut by_indices, &mut hashed] {
                    prop_assert_eq!(collected(table), expected.as_slice());
                    prop_assert_eq!(table.samples(), (LANES * batches.len()) as u64);
                    prop_assert_eq!(table.overflow(), [0, 0]);
                }
            }
        }

        /// The occupancy bitmap against every writer, in both dense
        /// layouts: a dense table laid out for a budget of `2^budget`
        /// traces and fed a random mix of single observations, plane
        /// batches, index batches, shard merges and save/restore round
        /// trips walks exactly the columns a capacity-matched hashed
        /// table sorts, and `distinct_keys()` and `samples()` count
        /// them. Widths up to 12 span several bitmap words and, at small
        /// budgets, give mapped tables from 9 bits up; plane batches run
        /// where the width allows them (always on a flat table) and fall
        /// back to index batches elsewhere.
        #[test]
        fn dense_column_walk_matches_hashed_sorted_columns(
            width in 1usize..=12,
            budget in 0u32..12,
            steps in prop::collection::vec((0u8..5, any::<u64>()), 1..24),
        ) {
            let mask = (1u64 << width) - 1;
            let traces = 1u64 << budget;
            let mut dense = Table::dense_for_traces(width, traces);
            let flat = is_flat(&dense);
            let receivable = traces.div_ceil(LANES as u64) * LANES as u64;
            prop_assert_eq!(flat, 1u64 << width <= DENSE_CELLS_PER_TRACE * receivable);
            prop_assert!(flat || width > MAX_MINTERM_WIDTH, "a narrow table is mapped");
            let mut hashed = Table::hashed(1 << width);
            for &(writer, seed) in &steps {
                let mut state = seed;
                let lane_groups = splitmix(&mut state);
                // Sparse planes: each observed bit is set in ~1/4 of the
                // lanes, so wide tables stay mostly empty.
                let planes: Vec<u64> = (0..width)
                    .map(|_| splitmix(&mut state) & splitmix(&mut state))
                    .collect();
                let keys: [u128; LANES] = std::array::from_fn(|lane| lane_key(&planes, lane));
                match writer {
                    0 => {
                        let key = u128::from(seed & mask);
                        let cell = [seed >> 60, ((seed >> 56) & 0xf) + 1];
                        dense.absorb(key, cell);
                        hashed.absorb(key, cell);
                    }
                    1 if width <= MAX_MINTERM_WIDTH => {
                        dense.absorb_planes(&planes, lane_groups);
                        hashed.absorb_keys(&keys, lane_groups);
                    }
                    1 | 2 => {
                        let mut padded = [0u64; MAX_DENSE_WIDTH];
                        padded[..width].copy_from_slice(&planes);
                        let mut indices = [0u32; LANES];
                        planes_to_indices(&padded, &mut indices);
                        dense.absorb_indices(&indices, lane_groups);
                        hashed.absorb_keys(&keys, lane_groups);
                    }
                    3 => {
                        let mut dense_shard = dense.empty_like();
                        let mut hashed_shard = hashed.empty_like();
                        dense_shard.absorb_keys(&keys, lane_groups);
                        hashed_shard.absorb_keys(&keys, lane_groups);
                        dense.merge_from(&mut dense_shard);
                        hashed.merge_from(&mut hashed_shard);
                        prop_assert_eq!(dense_shard.columns().len(), 0);
                    }
                    _ => {
                        let mut restored = Table::dense_for_traces(width, traces);
                        restored.restore(collected(&dense), dense.overflow(), dense.samples());
                        dense = restored;
                        hashed.restore(collected(&hashed), hashed.overflow(), hashed.samples());
                    }
                }
                prop_assert!(dense.is_dense());
                prop_assert_eq!(is_flat(&dense), flat, "a writer changed the layout");
                let walked = collected(&dense);
                let sorted = collected(&hashed);
                prop_assert_eq!(&walked, &sorted);
                prop_assert_eq!(dense.columns().len(), walked.len());
                // `fold` dispatches once per walk; from a partly
                // consumed walk it must yield the rest, on both stores.
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
            }
        }

        /// Below the dense threshold the hashed store pools overflow:
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
            let mut table = Table::hashed(cap);
            absorb_all(&mut table, &keys);
            prop_assert!(table.distinct_keys() <= cap);
            let tallied: u64 = g_pairs(&table)
                .iter()
                .map(|&(fixed, random)| fixed + random)
                .sum();
            prop_assert_eq!(tallied, keys.len() as u64);
            prop_assert_eq!(table.samples(), keys.len() as u64);
        }

        /// The hashed store's final state depends only on the multiset
        /// of observations: any arrival order, and any split into
        /// shards joined by `merge_from`, gives the same table — with
        /// caps both below and above the number of distinct keys.
        #[test]
        fn hashed_tables_do_not_depend_on_order_or_sharding(
            raw in prop::collection::vec((0u64..48, any::<bool>()), 1..300),
            cap in 1usize..64,
            seed in any::<u64>(),
            shards in 1usize..6,
        ) {
            let keys: Vec<(u128, usize)> = raw
                .iter()
                .map(|&(key, group)| (key as u128, group as usize))
                .collect();
            let mut reference = Table::hashed(cap);
            absorb_all(&mut reference, &keys);
            prop_assert!(reference.distinct_keys() <= cap);

            let shuffled = permuted(&keys, seed);
            let mut reordered = Table::hashed(cap);
            absorb_all(&mut reordered, &shuffled);

            let mut merged = Table::hashed(cap);
            for shard in 0..shards {
                let mut local = merged.empty_like();
                let part: Vec<(u128, usize)> =
                    shuffled.iter().skip(shard).step_by(shards).copied().collect();
                absorb_all(&mut local, &part);
                prop_assert!(local.distinct_keys() <= cap);
                merged.merge_from(&mut local);
                prop_assert_eq!(local.samples(), 0);
            }

            for table in [&mut reordered, &mut merged] {
                prop_assert_eq!(collected(table), collected(&reference));
                prop_assert_eq!(table.overflow(), reference.overflow());
                prop_assert_eq!(table.samples(), reference.samples());
            }
        }
    }
}
