//! Contingency-table tabulation engines (DESIGN.md §5a).
//!
//! A fixed-vs-random campaign spends most of its time turning
//! observations into contingency-table counts. This module provides two
//! table stores behind one [`Table`] type:
//!
//! * **Dense** — a flat `Vec<[u64; 2]>` directly indexed by the packed
//!   observation key. Selected per probing set when the set's exact
//!   key-space width fits (`2^width ≤ max_table_keys`, width ≤
//!   [`MAX_DENSE_WIDTH`]): absorption is then a bounds-checked array
//!   increment — no lookup, no sorting, no per-batch allocation — and
//!   the table can never overflow its cap.
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
//! Both stores absorb **commutatively**, which is what lets the campaign
//! engine run one windowed driver: workers absorb into their own shard
//! tables and [`Table::merge_from`] folds them under the same rule.
//!
//! Byte-identity across the two stores is structural, not statistical:
//! a dense-eligible set has at most `2^width ≤ max_table_keys` distinct
//! keys, so the hashed store never overflows on it either, and because
//! keys are packed with bit `i` of the observation at key bit `i`, the
//! dense index order *is* the sorted-u128-key order the hashed store
//! serializes in. Same cells, same order, same bytes.
//!
//! [`Table::sorted_columns`] memoizes the sorted snapshot (invalidated
//! by any absorption), so a checkpoint's G-test sweep, its snapshot
//! serialization and the final report all share one collection pass
//! instead of re-collecting per consumer.

use std::collections::{BinaryHeap, HashMap};

use mmaes_sim::LANES;

/// Widest packed observation a dense table will direct-index: the
/// packed key must fit a `u32` (the per-lane index type). The memory
/// gate is [`EvaluationConfig::max_table_keys`](crate::EvaluationConfig::max_table_keys),
/// which bounds `2^width` cells of 16 bytes each.
pub const MAX_DENSE_WIDTH: usize = 32;

/// Fixed per-table bookkeeping bytes (struct header, overflow, cache
/// slot) counted by [`Table::resident_bytes`].
const TABLE_OVERHEAD_BYTES: u64 = 48;

/// Bytes per dense cell: one `[u64; 2]`.
const DENSE_CELL_BYTES: u64 = 16;

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

/// The two table stores. Dense cells are indexed by the packed
/// observation key; a cell of `[0, 0]` means the key was never seen
/// (counts only ever increment, so zero cells are exactly the unseen
/// keys).
#[derive(Debug, Clone)]
enum Store {
    Hashed(Sparse),
    Dense(Vec<[u64; 2]>),
}

/// The hashed store: the `cap` smallest keys seen, with their counts.
#[derive(Debug, Clone)]
struct Sparse {
    counts: HashMap<u128, [u64; 2]>,
    cap: usize,
    /// Max-heap over the retained keys, built the first time the table
    /// is full and kept in step with `counts` from then on. Empty until
    /// then, so a table that never reaches its cap pays nothing for the
    /// eviction order.
    retained: BinaryHeap<u128>,
}

impl Sparse {
    fn new(cap: usize) -> Self {
        Sparse {
            counts: HashMap::new(),
            cap,
            retained: BinaryHeap::new(),
        }
    }

    /// The smallest-keys rule: adds `cell` to `key` while keeping at
    /// most `cap` keys, and returns the counts that must be pooled into
    /// overflow instead (the arriving cell, or the evicted largest
    /// key's cell).
    fn absorb(&mut self, key: u128, cell: [u64; 2]) -> Option<[u64; 2]> {
        if let Some(slot) = self.counts.get_mut(&key) {
            add(slot, cell);
            return None;
        }
        if self.counts.len() < self.cap {
            self.counts.insert(key, cell);
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
}

/// A contingency table over observation keys for one probing set:
/// `[fixed, random]` counts per key, an overflow bucket past the key
/// cap (hashed store only — dense tables cannot overflow), and a
/// memoized sorted snapshot of the columns.
#[derive(Debug, Clone)]
pub struct Table {
    store: Store,
    overflow: [u64; 2],
    samples: u64,
    /// Sorted `(key, cell)` snapshot, memoized until the next
    /// absorption. Serves the checkpoint G-test sweep, snapshot
    /// serialization and report assembly from one pass.
    sorted: Option<Vec<(u128, [u64; 2])>>,
}

impl Table {
    fn with_store(store: Store) -> Self {
        Table {
            store,
            overflow: [0, 0],
            samples: 0,
            sorted: None,
        }
    }

    /// An empty hashed table retaining at most `cap` keys.
    pub fn hashed(cap: usize) -> Self {
        Table::with_store(Store::Hashed(Sparse::new(cap)))
    }

    /// An empty dense table of `2^width` cells.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds [`MAX_DENSE_WIDTH`] — callers gate on
    /// the selection rule first.
    pub fn dense(width: usize) -> Self {
        assert!(width <= MAX_DENSE_WIDTH, "dense width {width} too wide");
        Table::with_store(Store::Dense(vec![[0, 0]; 1usize << width]))
    }

    /// An empty table with this table's store layout — a worker's shard.
    pub fn empty_like(&self) -> Self {
        match &self.store {
            Store::Hashed(sparse) => Table::hashed(sparse.cap),
            Store::Dense(cells) => Table::with_store(Store::Dense(vec![[0, 0]; cells.len()])),
        }
    }

    /// Whether this table uses the dense direct-indexed store.
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
        self.sorted = None;
        self.samples += cell[0] + cell[1];
        match &mut self.store {
            Store::Dense(cells) => add(&mut cells[usize::try_from(key).expect("dense key")], cell),
            Store::Hashed(sparse) => {
                if let Some(pooled) = sparse.absorb(key, cell) {
                    add(&mut self.overflow, pooled);
                }
            }
        }
    }

    /// Absorbs one batch of per-lane observation keys: lane `i` belongs
    /// to the random population when bit `i` of `lane_groups` is set.
    pub fn absorb_keys(&mut self, keys: &[u128; LANES], lane_groups: u64) {
        for (lane, &key) in keys.iter().enumerate() {
            let mut cell = [0, 0];
            cell[((lane_groups >> lane) & 1) as usize] = 1;
            self.absorb(key, cell);
        }
    }

    /// Absorbs one batch of per-lane packed indices directly — the
    /// dense fast path: [`LANES`] bounds-checked increments, nothing
    /// else. Lane populations as in [`Table::absorb_keys`].
    ///
    /// # Panics
    ///
    /// Panics on a hashed table, or if an index exceeds the table's
    /// width — an internal invariant violation, since indices are
    /// packed from exactly the bits the width was computed from.
    pub fn absorb_indices(&mut self, indices: &[u32; LANES], lane_groups: u64) {
        let Store::Dense(cells) = &mut self.store else {
            unreachable!("absorb_indices on a hashed table");
        };
        self.sorted = None;
        self.samples += LANES as u64;
        for (lane, &index) in indices.iter().enumerate() {
            cells[index as usize][((lane_groups >> lane) & 1) as usize] += 1;
        }
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
        self.sorted = None;
        other.sorted = None;
        self.samples += std::mem::take(&mut other.samples);
        add(&mut self.overflow, std::mem::take(&mut other.overflow));
        match (&mut self.store, &mut other.store) {
            (Store::Dense(into), Store::Dense(from)) => {
                assert_eq!(into.len(), from.len(), "mismatched dense widths");
                for (into, from) in into.iter_mut().zip(from.iter_mut()) {
                    add(into, std::mem::take(from));
                }
            }
            (Store::Hashed(into), Store::Hashed(from)) => {
                let from = std::mem::replace(from, Sparse::new(from.cap));
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
    /// layout cannot hold a key (a foreign or hand-edited snapshot)
    /// falls back to a hashed store with the dense key space as its cap
    /// rather than failing; a hashed table past its cap pools its
    /// largest keys into overflow.
    pub fn restore(&mut self, mut counts: Vec<(u128, [u64; 2])>, overflow: [u64; 2], samples: u64) {
        self.sorted = None;
        self.overflow = overflow;
        self.samples = samples;
        if let Store::Dense(cells) = &mut self.store {
            if counts.iter().all(|&(key, _)| key < cells.len() as u128) {
                cells.fill([0, 0]);
                for (key, cell) in counts {
                    cells[key as usize] = cell;
                }
                return;
            }
            self.store = Store::Hashed(Sparse::new(cells.len()));
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

    /// The `(key, cell)` columns in sorted key order, memoized until
    /// the next absorption. The G statistic is a float sum, so a
    /// deterministic column order is what makes checkpoint trajectories
    /// byte-identical across runs and resume legs; for the dense store
    /// the linear scan of non-zero cells *is* sorted-key order, because
    /// the packed index equals the key.
    pub fn sorted_columns(&mut self) -> &[(u128, [u64; 2])] {
        self.sorted.get_or_insert_with(|| match &self.store {
            Store::Hashed(sparse) => {
                let mut entries: Vec<(u128, [u64; 2])> = sparse
                    .counts
                    .iter()
                    .map(|(&key, &cell)| (key, cell))
                    .collect();
                entries.sort_unstable_by_key(|&(key, _)| key);
                entries
            }
            Store::Dense(cells) => cells
                .iter()
                .enumerate()
                .filter(|&(_, cell)| cell[0] | cell[1] != 0)
                .map(|(index, &cell)| (index as u128, cell))
                .collect(),
        })
    }

    /// The `(fixed, random)` columns exactly as the G-test consumes
    /// them: key-sorted counts, then the overflow bucket if any.
    pub fn g_columns(&mut self) -> Vec<(u64, u64)> {
        let overflow = self.overflow;
        let mut columns: Vec<(u64, u64)> = self
            .sorted_columns()
            .iter()
            .map(|&(_, cell)| (cell[0], cell[1]))
            .collect();
        if overflow[0] + overflow[1] > 0 {
            columns.push((overflow[0], overflow[1]));
        }
        columns
    }

    /// Distinct observation keys retained (the overflow bucket excluded).
    pub fn distinct_keys(&mut self) -> usize {
        self.sorted_columns().len()
    }

    /// Actual resident bytes of the table store: exact for dense (the
    /// cell array is fully allocated up front), a per-entry estimate
    /// including bucket overhead for hashed. Deterministic across thread
    /// counts and resume legs (it depends on logical content, never on
    /// allocator state).
    pub fn resident_bytes(&self) -> u64 {
        match &self.store {
            Store::Dense(cells) => TABLE_OVERHEAD_BYTES + DENSE_CELL_BYTES * cells.len() as u64,
            Store::Hashed(sparse) => {
                TABLE_OVERHEAD_BYTES + HASHED_ENTRY_BYTES * sparse.counts.len() as u64
            }
        }
    }
}

fn add(into: &mut [u64; 2], cell: [u64; 2]) {
    into[0] += cell[0];
    into[1] += cell[1];
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut mixed = seed;
            mixed = (mixed ^ (mixed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            mixed = (mixed ^ (mixed >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            out.swap(
                index,
                ((mixed ^ (mixed >> 31)) % (index as u64 + 1)) as usize,
            );
        }
        out
    }

    #[test]
    fn dense_and_hashed_agree_on_a_fixed_stream() {
        let mut dense = Table::dense(4);
        let mut hashed = Table::hashed(16);
        let keys = [(3, 0), (3, 1), (15, 1), (0, 0), (3, 0)];
        absorb_all(&mut dense, &keys);
        absorb_all(&mut hashed, &keys);
        assert_eq!(dense.sorted_columns(), hashed.sorted_columns());
        assert_eq!(dense.g_columns(), hashed.g_columns());
        assert_eq!(dense.samples(), hashed.samples());
        assert_eq!(dense.distinct_keys(), 3);
        assert_eq!(dense.overflow(), [0, 0]);
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
        assert_eq!(direct.sorted_columns(), dense.sorted_columns());
        assert_eq!(direct.sorted_columns(), hashed.sorted_columns());
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
        assert_eq!(ab.sorted_columns(), ba.sorted_columns());
        assert_eq!(ab.samples(), ba.samples());
        assert_eq!(b.samples(), 0, "merge drains the source");
        assert!(b.sorted_columns().is_empty());
    }

    #[test]
    fn cached_columns_invalidate_on_absorption() {
        let mut table = Table::dense(2);
        absorb_all(&mut table, &[(1, 0)]);
        assert_eq!(table.sorted_columns().len(), 1);
        absorb_all(&mut table, &[(2, 1)]);
        assert_eq!(table.sorted_columns().len(), 2, "stale cache served");
        table.absorb_indices(&[0u32; LANES], 0);
        assert_eq!(table.sorted_columns().len(), 3);
        let mut other = table.empty_like();
        absorb_all(&mut other, &[(3, 0)]);
        table.merge_from(&mut other);
        assert_eq!(table.sorted_columns().len(), 4, "stale cache after merge");
    }

    #[test]
    fn cached_columns_survive_an_absorb_save_restore_round_trip() {
        // The snapshot path reads `sorted_columns()` to serialize (which
        // memoizes), then `restore()` repopulates the store on resume —
        // both on a fresh table and, after a ConfigMismatch retry, on
        // one that already served columns. A stale memo at any of these
        // points would silently corrupt every post-resume checkpoint.
        let mut table = Table::dense(3);
        absorb_all(&mut table, &[(1, 0), (5, 1)]);
        let saved = table.sorted_columns().to_vec(); // memoizes
        let overflow = table.overflow();
        let samples = table.samples();

        // Resume into a table that has already memoized different
        // contents: restore must drop that memo.
        let mut resumed = Table::dense(3);
        absorb_all(&mut resumed, &[(2, 0)]);
        assert_eq!(resumed.sorted_columns().len(), 1); // memoizes
        resumed.restore(saved.clone(), overflow, samples);
        assert_eq!(resumed.sorted_columns(), saved.as_slice(), "stale memo");
        assert_eq!(resumed.samples(), samples);

        // And absorption after the restore must invalidate again, so
        // the first post-resume checkpoint sees the merged counts.
        absorb_all(&mut resumed, &[(2, 1)]);
        assert_eq!(resumed.sorted_columns().len(), saved.len() + 1);
        assert_eq!(resumed.g_columns().len(), saved.len() + 1);
    }

    #[test]
    fn hashed_overflow_pools_past_the_cap_deterministically() {
        // The larger keys arrive first and are evicted by the smaller
        // ones: the table keeps the cap smallest keys, whatever the
        // arrival order.
        let mut table = Table::hashed(2);
        absorb_all(&mut table, &[(4, 1), (3, 1), (1, 0), (3, 0), (2, 0)]);
        assert_eq!(
            table.sorted_columns(),
            &[(1u128, [1u64, 0u64]), (2, [1, 0])]
        );
        assert_eq!(table.overflow(), [1, 2], "keys 3 and 4 pooled");
        assert_eq!(table.g_columns().len(), 3, "overflow is one more column");
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
        assert_eq!(
            table.sorted_columns(),
            &[(1u128, [5u64, 6u64]), (999, [1, 2])]
        );
        let mut fits = Table::dense(2);
        fits.restore(vec![(1, [5, 6]), (3, [1, 2])], [0, 0], 14);
        assert!(fits.is_dense());
        assert_eq!(fits.sorted_columns(), &[(1u128, [5u64, 6u64]), (3, [1, 2])]);
    }

    #[test]
    fn restore_pools_keys_past_the_hashed_cap() {
        let mut table = Table::hashed(1);
        table.restore(vec![(1, [5, 6]), (9, [1, 2])], [1, 0], 15);
        assert_eq!(table.sorted_columns(), &[(1u128, [5u64, 6u64])]);
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
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The differential property behind [`TabulatorMode`]: on any
        /// key stream, a dense table and a capacity-matched hashed table
        /// produce identical `g_columns()` — including at the
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
            prop_assert_eq!(dense.g_columns(), hashed.g_columns());
            prop_assert_eq!(dense.sorted_columns(), hashed.sorted_columns());
            prop_assert_eq!(dense.samples(), hashed.samples());
            prop_assert_eq!(dense.overflow(), [0, 0]);
            prop_assert_eq!(hashed.overflow(), [0, 0]);
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
            let tallied: u64 = table
                .g_columns()
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
                prop_assert_eq!(table.sorted_columns(), reference.sorted_columns());
                prop_assert_eq!(table.overflow(), reference.overflow());
                prop_assert_eq!(table.samples(), reference.samples());
            }
        }
    }
}
