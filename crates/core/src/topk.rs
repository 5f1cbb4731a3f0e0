//! Top-k fractional-simulation search — the future-work direction named in
//! the paper's conclusion ("end-users are also interested in the top-k
//! similarity search").
//!
//! The static upper bound of §3.4 makes a sound pruning scheme possible:
//! any pair whose Equation-6 bound is below the k-th best *converged* score
//! can never enter the top-k. [`top_k_search`] runs the engine under
//! iteratively loosened β-pruning until the result is *certified*: the
//! k-th best maintained score dominates the bound of every pruned pair.

use crate::config::{FsimConfig, UpperBoundPruning};
use crate::engine::FsimEngine;
use crate::result::FsimResult;
use crate::store::PairStore;
use fsim_graph::{Graph, NodeId};

/// Result of a certified top-k search.
#[derive(Debug, Clone)]
pub struct TopK {
    /// The `k` best pairs `(u, v, score)`, descending by score
    /// (ties broken by `(u, v)`).
    pub pairs: Vec<(NodeId, NodeId, f64)>,
    /// Whether the answer is certified optimal (always true when the
    /// search terminates via the β-certificate or an unpruned run).
    pub certified: bool,
    /// Number of engine passes executed.
    pub passes: usize,
}

/// Extracts the global top-k pairs of a finished result.
///
/// `exclude_identity` drops `(u, u)` pairs — useful for single-graph
/// similarity search where self-similarity is trivially 1.
pub fn top_k_pairs(
    result: &FsimResult,
    k: usize,
    exclude_identity: bool,
) -> Vec<(NodeId, NodeId, f64)> {
    top_k_from_iter(result.iter_pairs(), k, exclude_identity)
}

/// A pair ranked for top-k selection: greater = better. Total order via
/// `total_cmp` (no NaN panic path), descending score with ties broken by
/// ascending `(u, v)`.
struct Ranked {
    u: NodeId,
    v: NodeId,
    score: f64,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| (other.u, other.v).cmp(&(self.u, self.v)))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Ranked {}

/// Shared top-k extraction over any `(u, v, score)` stream (used by both
/// [`top_k_pairs`] and [`FsimEngine::top_k`]): a bounded min-heap of the
/// current k best — `O(P log k)` instead of sorting all `P` pairs.
pub(crate) fn top_k_from_iter<I>(
    pairs: I,
    k: usize,
    exclude_identity: bool,
) -> Vec<(NodeId, NodeId, f64)>
where
    I: Iterator<Item = (NodeId, NodeId, f64)>,
{
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    if k == 0 {
        return Vec::new();
    }
    // `Reverse` turns the max-heap into a min-heap: the worst kept pair
    // sits at the top, ready to be displaced.
    let mut heap: BinaryHeap<Reverse<Ranked>> = BinaryHeap::with_capacity(k + 1);
    for (u, v, score) in pairs {
        if exclude_identity && u == v {
            continue;
        }
        let cand = Ranked { u, v, score };
        if heap.len() < k {
            heap.push(Reverse(cand));
        } else if cand > heap.peek().expect("non-empty heap").0 {
            heap.pop();
            heap.push(Reverse(cand));
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|Reverse(r)| (r.u, r.v, r.score))
        .collect()
}

/// The `k` best-scoring right-nodes of left node `u`, descending by
/// score (ties broken by node id). Reads only row `u`'s slot range; a
/// `u` with no maintained pair (or past `|V1|`) yields an empty list.
pub(crate) fn top_k_in_row(
    store: &PairStore,
    scores: &[f64],
    u: NodeId,
    k: usize,
) -> Vec<(NodeId, f64)> {
    let range = store.index.row_range(u);
    let (Some(pairs), Some(scores)) = (store.pairs.get(range.clone()), scores.get(range)) else {
        return Vec::new();
    };
    let row = pairs.iter().zip(scores).map(|(&(u, v), &s)| (u, v, s));
    top_k_from_iter(row, k, false)
        .into_iter()
        .map(|(_, v, s)| (v, s))
        .collect()
}

/// Certified top-k search: runs the engine with upper-bound pruning,
/// halving β until the k-th best maintained score is at least β (at which
/// point no pruned pair can displace the answer), or until β reaches 0
/// (equivalent to an unpruned run).
///
/// Keeps the caller's θ / weights / variant; overrides the upper-bound
/// setting. Cost: usually a single pass over a small maintained set.
/// Successive passes share one [`FsimEngine`] session, so label alignment
/// and the prepared label evaluation are built once for the whole search.
pub fn top_k_search(
    g1: &Graph,
    g2: &Graph,
    cfg: &FsimConfig,
    k: usize,
    exclude_identity: bool,
) -> TopK {
    assert!(k > 0, "k must be positive");
    let mut beta = 0.8f64;
    let mut pass_cfg = cfg.clone();
    pass_cfg.upper_bound = Some(UpperBoundPruning { alpha: 0.0, beta });
    let mut engine = FsimEngine::new(g1, g2, &pass_cfg).expect("valid top-k configuration");
    engine.run();
    let mut passes = 1usize;
    loop {
        let pairs = engine.top_k(k, exclude_identity);
        let kth = pairs.last().map(|&(_, _, s)| s).unwrap_or(0.0);
        // Certificate: every pruned pair has ub ≤ beta; if the k-th kept
        // score reaches beta, nothing pruned can beat it.
        if beta <= 0.0 || (pairs.len() == k && kth >= beta) {
            return TopK {
                pairs,
                certified: true,
                passes,
            };
        }
        beta = if beta > 0.1 { beta / 2.0 } else { 0.0 };
        let next_bound = if beta > 0.0 {
            Some(UpperBoundPruning { alpha: 0.0, beta })
        } else {
            None
        };
        engine
            .rerun(|c| c.upper_bound = next_bound)
            .expect("valid top-k configuration");
        passes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::engine::compute;
    use fsim_graph::graph_from_parts;
    use fsim_labels::LabelFn;

    fn cfg() -> FsimConfig {
        FsimConfig::new(Variant::Bijective).label_fn(LabelFn::Indicator)
    }

    fn sample_graph() -> fsim_graph::Graph {
        graph_from_parts(
            &["a", "a", "b", "b", "c", "a"],
            &[(0, 2), (1, 3), (2, 4), (3, 4), (5, 4), (0, 3)],
        )
    }

    #[test]
    fn top_k_pairs_sorted_and_truncated() {
        let g = sample_graph();
        let r = compute(&g, &g, &cfg()).unwrap();
        let top = top_k_pairs(&r, 5, true);
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
        assert!(top.iter().all(|&(u, v, _)| u != v));
    }

    #[test]
    fn top_k_from_iter_with_nan_scores_is_deterministic() {
        // NaN-bearing streams must not panic and must order the same way
        // regardless of input order (+NaN ranks above every finite score
        // in the total order).
        let a = [
            (0u32, 0u32, 0.5),
            (0, 1, f64::NAN),
            (1, 0, 0.9),
            (1, 1, 0.1),
        ];
        let mut b = a;
        b.reverse();
        let ta = top_k_from_iter(a.iter().copied(), 3, false);
        let tb = top_k_from_iter(b.iter().copied(), 3, false);
        let keys_a: Vec<_> = ta.iter().map(|&(u, v, _)| (u, v)).collect();
        let keys_b: Vec<_> = tb.iter().map(|&(u, v, _)| (u, v)).collect();
        assert_eq!(keys_a, keys_b);
        assert_eq!(keys_a, vec![(0, 1), (1, 0), (0, 0)]);
        assert!(ta[0].2.is_nan());
    }

    #[test]
    fn search_matches_exhaustive_answer() {
        let g = sample_graph();
        let full = compute(&g, &g, &cfg()).unwrap();
        let expected = top_k_pairs(&full, 4, true);
        let got = top_k_search(&g, &g, &cfg(), 4, true);
        assert!(got.certified);
        assert_eq!(got.pairs.len(), expected.len());
        for (a, b) in got.pairs.iter().zip(&expected) {
            assert_eq!(
                (a.0, a.1),
                (b.0, b.1),
                "pair mismatch: {:?} vs {:?}",
                got.pairs,
                expected
            );
            assert!((a.2 - b.2).abs() < 1e-12);
        }
    }

    #[test]
    fn search_with_identity_included_finds_diagonal() {
        let g = sample_graph();
        let got = top_k_search(&g, &g, &cfg(), 3, false);
        // Self pairs score 1.0 and must dominate.
        assert!(got.pairs.iter().all(|&(_, _, s)| (s - 1.0).abs() < 1e-9));
    }

    #[test]
    fn k_larger_than_pair_count_degrades_gracefully() {
        let g = graph_from_parts(&["a"], &[]);
        let got = top_k_search(&g, &g, &cfg(), 10, true);
        assert!(got.certified);
        assert!(got.pairs.is_empty());
    }

    #[test]
    fn pruned_first_pass_is_usually_enough() {
        let g = sample_graph();
        let got = top_k_search(&g, &g, &cfg(), 2, false);
        assert!(
            got.passes <= 2,
            "expected early certification, took {} passes",
            got.passes
        );
    }
}
