//! The candidate-pair store: which `(u, v) ∈ V1 × V2` pairs are maintained
//! (Algorithm 1, Line 1) and how their scores are indexed.

use crate::operators::ScoreLookup;
use fsim_graph::{pair_key, FxHashMap, NodeId};
use std::ops::Range;

/// Index from a pair `(u, v)` to its slot in the score buffers.
///
/// Slots follow the store's pair order, which is sorted by `(u, v)`, so
/// every row `u` owns one contiguous slot range. Neither variant hashes.
#[derive(Debug, Clone)]
pub enum PairIndex {
    /// All `|V1| × |V2|` pairs are maintained; slot = `u · |V2| + v`.
    /// Used by the default configuration (θ = 0, no pruning).
    Dense {
        /// `|V2|`.
        n2: u32,
    },
    /// Pruned candidate set: row offsets over the sorted pair list
    /// (see [`RowIndex`]).
    Sparse(RowIndex),
}

impl PairIndex {
    /// The row-offset index over `pairs`, which must be strictly
    /// ascending in `(u, v)` order — the order every store keeps its
    /// pairs in. Restore validates that order before it builds one.
    pub fn sparse(pairs: &[(NodeId, NodeId)]) -> Self {
        PairIndex::Sparse(RowIndex::new(pairs))
    }

    /// Row `u` of the index, for resolving many `v` against one `u`.
    #[inline]
    pub(crate) fn row(&self, u: NodeId) -> IndexRow<'_> {
        match self {
            PairIndex::Dense { n2 } => IndexRow::Dense {
                start: u as usize * *n2 as usize,
                n2: *n2,
            },
            PairIndex::Sparse(rows) => rows.row(u),
        }
    }

    /// Slot of `(u, v)` if maintained.
    ///
    /// A `v ≥ n2` dense lookup is `None` (the row-major formula would
    /// otherwise alias another row's slot); `u` overruns surface as slots
    /// past the score buffer, which callers reject via `slice::get`.
    #[inline]
    pub fn get(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.row(u).get(v)
    }

    /// The slot range holding row `u`'s maintained pairs, in `v` order.
    /// Like [`get`](Self::get), a dense `u` past the last row yields a
    /// range past the score buffer; read it through `slice::get`.
    #[inline]
    pub(crate) fn row_range(&self, u: NodeId) -> Range<usize> {
        self.row(u).slots()
    }
}

/// Row-offset index over a `(u, v)`-sorted pair list: row `u` holds the
/// slots `starts[u]..starts[u + 1]`, and `cols` repeats each slot's `v`,
/// so a lookup is a binary search over `v` within one row. Built in
/// `O(rows + |H|)`; rows past the last maintained `u` are empty.
#[derive(Debug, Clone)]
pub struct RowIndex {
    /// `rows + 1` slot offsets, `rows` = last maintained `u` + 1.
    starts: Vec<u32>,
    /// `v` of every slot, ascending within each row.
    cols: Vec<NodeId>,
}

impl RowIndex {
    fn new(pairs: &[(NodeId, NodeId)]) -> Self {
        // A misordered list would not fail lookups, only mis-resolve them.
        assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "pairs must be strictly ascending"
        );
        let len = u32::try_from(pairs.len()).expect("store slots fit in u32");
        let rows = pairs.last().map_or(0, |&(u, _)| u as usize + 1);
        let mut starts = Vec::with_capacity(rows + 1);
        let mut cols = Vec::with_capacity(pairs.len());
        for (slot, &(u, v)) in (0..len).zip(pairs) {
            while starts.len() <= u as usize {
                starts.push(slot);
            }
            cols.push(v);
        }
        starts.push(len);
        RowIndex { starts, cols }
    }

    #[inline]
    fn row(&self, u: NodeId) -> IndexRow<'_> {
        let u = u as usize;
        match self.starts.get(u..u + 2) {
            Some(&[lo, hi]) => IndexRow::Sparse {
                start: lo as usize,
                cols: &self.cols[lo as usize..hi as usize],
            },
            _ => IndexRow::Sparse {
                start: self.cols.len(),
                cols: &[],
            },
        }
    }

    /// Heap bytes of the index: one `u32` per row offset and per slot.
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.starts.len() + self.cols.len()) * std::mem::size_of::<u32>()
    }
}

/// One row `u` of a [`PairIndex`]: resolves `v` to the slot of `(u, v)`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum IndexRow<'a> {
    /// Dense row: slot = `start + v` for `v < n2`.
    Dense {
        /// Slot of `(u, 0)`.
        start: usize,
        /// `|V2|`.
        n2: u32,
    },
    /// Sparse row: `cols` are the row's sorted `v`s, from slot `start`.
    Sparse {
        /// Slot of the row's first pair.
        start: usize,
        /// The row's `v`s, ascending.
        cols: &'a [NodeId],
    },
}

impl IndexRow<'_> {
    /// Slot of `(u, v)` if maintained.
    #[inline]
    pub(crate) fn get(&self, v: NodeId) -> Option<usize> {
        match *self {
            IndexRow::Dense { start, n2 } => (v < n2).then(|| start + v as usize),
            IndexRow::Sparse { start, cols } => cols.binary_search(&v).ok().map(|k| start + k),
        }
    }

    /// The row's slot range.
    #[inline]
    pub(crate) fn slots(&self) -> Range<usize> {
        match *self {
            IndexRow::Dense { start, n2 } => start..start + n2 as usize,
            IndexRow::Sparse { start, cols } => start..start + cols.len(),
        }
    }
}

/// What a lookup of a *non-maintained* pair returns.
#[derive(Debug, Clone)]
pub enum Fallback {
    /// θ-pruned pairs never contribute (§4.1 "Computation").
    Zero,
    /// Upper-bound pruning (§3.4): `α × ub(x, y)` for pruned pairs.
    /// The map is empty when `α = 0` (nothing needs storing).
    AlphaUb(FxHashMap<u64, f32>),
}

impl Fallback {
    /// The constant a lookup of the non-maintained pair `(x, y)` serves.
    #[inline]
    pub(crate) fn value(&self, x: NodeId, y: NodeId) -> f64 {
        match self {
            Fallback::Zero => 0.0,
            Fallback::AlphaUb(map) => map.get(&pair_key(x, y)).map_or(0.0, |&v| v as f64),
        }
    }
}

/// How a pair's previous-iteration score is obtained: from a maintained
/// slot, or as the pruning fallback constant. Resolved once per pair at
/// session-prepare time by the dependency-CSR builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairRef {
    /// The pair is maintained at this score-buffer slot.
    Slot(usize),
    /// The pair is pruned; every lookup serves this constant
    /// (`0` under θ-pruning, `α·ub` under upper-bound pruning).
    Absent(f64),
}

/// The maintained pairs, their slot index and the fallback for the rest.
///
/// `pairs` is strictly ascending in `(u, v)` order; both index variants
/// depend on it (a row is one contiguous slot range).
#[derive(Debug, Clone)]
pub struct PairStore {
    /// Maintained pairs in slot order.
    pub pairs: Vec<(NodeId, NodeId)>,
    /// Pair → slot index, built over `pairs`.
    pub index: PairIndex,
    /// Fallback for absent pairs.
    pub fallback: Fallback,
}

impl PairStore {
    /// Resolves `(x, y)` to its slot or its constant fallback value —
    /// exactly the semantics of a [`ScoreView`] lookup, factored out so
    /// iteration-invariant structure can be materialized once.
    pub fn resolve(&self, x: NodeId, y: NodeId) -> PairRef {
        self.row(x).resolve(y)
    }

    /// Row `x` of the store, for resolving many `y` against one `x`.
    #[inline]
    pub(crate) fn row(&self, x: NodeId) -> StoreRow<'_> {
        StoreRow {
            x,
            slots: self.index.row(x),
            fallback: &self.fallback,
        }
    }

    /// Number of maintained pairs (`|H|` in the cost analysis).
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// A read view over a score buffer for operator lookups.
    pub fn view<'a>(&'a self, scores: &'a [f64]) -> ScoreView<'a> {
        debug_assert_eq!(scores.len(), self.pairs.len());
        ScoreView {
            index: &self.index,
            fallback: &self.fallback,
            scores,
        }
    }
}

/// One row `x` of a [`PairStore`] (see [`PairStore::row`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StoreRow<'a> {
    x: NodeId,
    slots: IndexRow<'a>,
    fallback: &'a Fallback,
}

impl StoreRow<'_> {
    /// [`PairStore::resolve`] of `(x, y)` for this row's `x`.
    #[inline]
    pub(crate) fn resolve(&self, y: NodeId) -> PairRef {
        match self.slots.get(y) {
            Some(i) => PairRef::Slot(i),
            None => PairRef::Absent(self.fallback.value(self.x, y)),
        }
    }
}

/// Read-only score accessor handed to the mapping operators.
#[derive(Debug, Clone, Copy)]
pub struct ScoreView<'a> {
    index: &'a PairIndex,
    fallback: &'a Fallback,
    scores: &'a [f64],
}

impl ScoreLookup for ScoreView<'_> {
    #[inline]
    fn get(&self, x: NodeId, y: NodeId) -> f64 {
        match self.index.get(x, y) {
            Some(i) => self.scores[i],
            None => self.fallback.value(x, y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn dense_store(n1: u32, n2: u32) -> PairStore {
        let pairs: Vec<_> = (0..n1).flat_map(|u| (0..n2).map(move |v| (u, v))).collect();
        PairStore {
            pairs,
            index: PairIndex::Dense { n2 },
            fallback: Fallback::Zero,
        }
    }

    #[test]
    fn dense_index_is_row_major() {
        let s = dense_store(3, 4);
        for (slot, &(u, v)) in s.pairs.iter().enumerate() {
            assert_eq!(s.index.get(u, v), Some(slot));
        }
    }

    #[test]
    fn dense_index_rejects_out_of_range_columns() {
        let s = dense_store(3, 4);
        // v ≥ n2 must not alias the next row's slot.
        assert_eq!(s.index.get(0, 4), None);
        assert_eq!(s.index.get(1, 100), None);
    }

    #[test]
    fn sparse_index_misses_return_fallback() {
        let pairs = vec![(0, 1), (2, 3)];
        let store = PairStore {
            index: PairIndex::sparse(&pairs),
            pairs,
            fallback: Fallback::Zero,
        };
        let scores = vec![0.5, 0.7];
        let view = store.view(&scores);
        assert_eq!(view.get(0, 1), 0.5);
        assert_eq!(view.get(2, 3), 0.7);
        assert_eq!(view.get(1, 1), 0.0);
    }

    #[test]
    fn resolve_matches_view_semantics() {
        let mut ub = FxHashMap::default();
        ub.insert(pair_key(5, 5), 0.25f32);
        let store = PairStore {
            pairs: vec![(0, 0)],
            index: PairIndex::sparse(&[(0, 0)]),
            fallback: Fallback::AlphaUb(ub),
        };
        let scores = vec![0.75];
        let view = store.view(&scores);
        for (x, y) in [(0, 0), (5, 5), (9, 9)] {
            let via_resolve = match store.resolve(x, y) {
                PairRef::Slot(i) => scores[i],
                PairRef::Absent(c) => c,
            };
            assert_eq!(via_resolve.to_bits(), view.get(x, y).to_bits());
        }
    }

    #[test]
    fn alpha_ub_fallback_is_served() {
        let mut ub = FxHashMap::default();
        ub.insert(pair_key(5, 5), 0.25f32);
        let store = PairStore {
            pairs: vec![(0, 0)],
            index: PairIndex::sparse(&[(0, 0)]),
            fallback: Fallback::AlphaUb(ub),
        };
        let scores = vec![1.0];
        let view = store.view(&scores);
        assert_eq!(view.get(0, 0), 1.0);
        assert!((view.get(5, 5) - 0.25).abs() < 1e-6);
        assert_eq!(view.get(9, 9), 0.0);
    }

    /// A random strictly ascending store over `n1 × n2`: each pair kept
    /// with probability `density`, so some rows come out empty.
    fn random_sorted_pairs(
        rng: &mut ChaCha8Rng,
        n1: u32,
        n2: u32,
        density: f64,
    ) -> Vec<(u32, u32)> {
        (0..n1)
            .flat_map(|u| (0..n2).map(move |v| (u, v)))
            .filter(|_| rng.gen_bool(density))
            .collect()
    }

    #[test]
    fn sparse_index_get_matches_linear_scan() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        for _ in 0..200 {
            let n1 = rng.gen_range(0..12u32);
            let n2 = rng.gen_range(1..12u32);
            let density = rng.gen_range(0.0..1.0);
            let pairs = random_sorted_pairs(&mut rng, n1, n2, density);
            let index = PairIndex::sparse(&pairs);
            // Every (u, v) in range, plus v ≥ n2 and u past the last row.
            for u in 0..n1 + 3 {
                for v in 0..n2 + 3 {
                    let scan = pairs.iter().position(|&p| p == (u, v));
                    assert_eq!(index.get(u, v), scan, "({u}, {v}) in {pairs:?}");
                }
            }
            assert_eq!(index.get(u32::MAX, 0), None);
            assert_eq!(index.get(0, u32::MAX), None);
        }
    }

    #[test]
    fn row_range_covers_exactly_the_row() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..50 {
            let (n1, n2) = (rng.gen_range(1..10u32), rng.gen_range(1..10u32));
            let pairs = random_sorted_pairs(&mut rng, n1, n2, 0.4);
            let sparse = PairIndex::sparse(&pairs);
            let dense = dense_store(n1, n2);
            for u in 0..n1 + 2 {
                let want: Vec<_> = pairs.iter().filter(|p| p.0 == u).collect();
                let got: Vec<_> = pairs[sparse.row_range(u)].iter().collect();
                assert_eq!(got, want, "sparse row {u} of {pairs:?}");
                let want: Vec<_> = dense.pairs.iter().filter(|p| p.0 == u).collect();
                let got: Vec<_> = dense
                    .pairs
                    .get(dense.index.row_range(u))
                    .unwrap_or_default()
                    .iter()
                    .collect();
                assert_eq!(got, want, "dense row {u} of {n1} × {n2}");
            }
        }
    }
}
