//! Seeded inputs: the graphs as text and the stationary edit stream.
//!
//! Every workload reads the NELL surrogate of `fsim-datasets` at generator
//! seed [`BASE_SEED`] (the graph the `BENCH_*.json` records use), with
//! its node ids permuted by the benchmark seed. Each seed therefore
//! hands the program a different input text, label interning order and
//! memory layout, while the work (pairs, dependency entries, iterations)
//! stays that of one graph, so runs with different seeds are comparable.

use fsim_core::{GraphEdit, GraphSide};
use fsim_datasets::DatasetSpec;
use fsim_graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

/// Generator seed of the base graph.
pub const BASE_SEED: u64 = 42;

/// The NELL surrogate at `scale`, node ids permuted by `seed`, in the
/// text format `fsim_graph::io::from_text` reads.
pub fn graph_text(scale: f64, seed: u64) -> String {
    let g = DatasetSpec::by_name("NELL")
        .expect("the NELL surrogate is a built-in dataset")
        .generate_scaled(scale, BASE_SEED);
    permuted_text(&g, seed)
}

/// `g` as text with node `u` renamed `perm[u]` for a `seed`-shuffled
/// permutation `perm`.
pub fn permuted_text(g: &Graph, seed: u64) -> String {
    let n = g.node_count();
    let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
    perm.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    let mut old_of = vec![0 as NodeId; n];
    for (old, &new) in perm.iter().enumerate() {
        old_of[new as usize] = old as NodeId;
    }
    let mut s = String::new();
    for (new, &old) in old_of.iter().enumerate() {
        let _ = writeln!(s, "n {new} {}", g.label_str(old));
    }
    for (u, v) in g.edges() {
        let _ = writeln!(s, "e {} {}", perm[u as usize], perm[v as usize]);
    }
    s
}

/// A seeded stream of right-side edge-flip batches, each paired with the
/// batch that reverts it. Batches are drawn against a fixed base graph,
/// so applying every batch followed by its revert keeps the graph
/// stationary: the work per batch does not drift as the stream runs.
pub struct EditStream {
    rng: ChaCha8Rng,
    sizes: Vec<usize>,
    next: usize,
}

impl EditStream {
    /// A stream whose batch sizes cycle through `sizes`.
    pub fn new(seed: u64, sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty(), "at least one batch size");
        EditStream {
            rng: ChaCha8Rng::seed_from_u64(seed),
            sizes: sizes.to_vec(),
            next: 0,
        }
    }

    /// The next batch — distinct right-side `(u, v)` flips: remove the
    /// edge if `base` has it, add it otherwise — and its revert.
    pub fn next_pair(&mut self, base: &Graph) -> (Vec<GraphEdit>, Vec<GraphEdit>) {
        let size = self.sizes[self.next % self.sizes.len()];
        self.next += 1;
        let n = base.node_count() as NodeId;
        let mut picked: Vec<(NodeId, NodeId)> = Vec::with_capacity(size);
        while picked.len() < size {
            let e = (self.rng.gen_range(0..n), self.rng.gen_range(0..n));
            if !picked.contains(&e) {
                picked.push(e);
            }
        }
        let flip = |&(u, v): &(NodeId, NodeId), present: bool| {
            if present {
                GraphEdit::remove_edge(GraphSide::Right, u, v)
            } else {
                GraphEdit::add_edge(GraphSide::Right, u, v)
            }
        };
        let forward = picked
            .iter()
            .map(|e| flip(e, base.has_edge(e.0, e.1)))
            .collect();
        let revert = picked
            .iter()
            .rev()
            .map(|e| flip(e, !base.has_edge(e.0, e.1)))
            .collect();
        (forward, revert)
    }
}

/// The JSON body of `POST /edits` for a batch of edge edits.
pub fn edits_body(batch: &[GraphEdit]) -> String {
    let items: Vec<String> = batch
        .iter()
        .map(|e| {
            let (op, src, dst) = match e {
                GraphEdit::AddEdge { src, dst, .. } => ("add_edge", src, dst),
                GraphEdit::RemoveEdge { src, dst, .. } => ("remove_edge", src, dst),
                GraphEdit::RelabelNode { .. } => unreachable!("the stream only flips edges"),
            };
            format!("{{\"op\":\"{op}\",\"side\":\"right\",\"src\":{src},\"dst\":{dst}}}")
        })
        .collect();
    format!("{{\"edits\":[{}]}}", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsim_graph::io::{from_text, to_text};

    /// Applies right-side edge edits to `g` the way a session patches
    /// its right graph.
    fn apply(g: &Graph, batch: &[GraphEdit]) -> Graph {
        let mut adds = Vec::new();
        let mut removes = Vec::new();
        for e in batch {
            match *e {
                GraphEdit::AddEdge { src, dst, .. } => adds.push((src, dst)),
                GraphEdit::RemoveEdge { src, dst, .. } => removes.push((src, dst)),
                GraphEdit::RelabelNode { .. } => unreachable!(),
            }
        }
        g.with_edits(&adds, &removes, &[])
    }

    fn small_base() -> Graph {
        from_text(&graph_text(0.05, 3)).expect("generated text parses")
    }

    #[test]
    fn apply_then_revert_restores_the_graph_bitwise() {
        let base = small_base();
        let base_text = to_text(&base);
        let mut stream = EditStream::new(11, &[1, 4, 16]);
        for _ in 0..30 {
            let (forward, revert) = stream.next_pair(&base);
            let edited = apply(&base, &forward);
            assert_ne!(
                to_text(&edited),
                base_text,
                "a flip batch changes the graph"
            );
            let restored = apply(&edited, &revert);
            assert_eq!(to_text(&restored), base_text);
            assert_eq!(restored.csr_parts(), base.csr_parts());
        }
    }

    #[test]
    fn a_session_is_back_at_its_base_graph_after_each_revert() {
        use fsim_core::{FsimConfig, FsimEngine, Variant};
        let base = small_base();
        let base_text = to_text(&base);
        let cfg = FsimConfig::new(Variant::Bijective).theta(0.9);
        let mut e = FsimEngine::new(&base, &base, &cfg).expect("valid config");
        e.run();
        let mut stream = EditStream::new(4, &[1, 4, 16]);
        for _ in 0..6 {
            let (forward, revert) = stream.next_pair(&base);
            e.apply_edits(&forward).expect("in-range edits");
            e.apply_edits(&revert).expect("in-range edits");
            assert_eq!(to_text(e.graphs().1), base_text);
        }
    }

    #[test]
    fn batch_sizes_cycle_and_flips_are_distinct() {
        let base = small_base();
        let mut stream = EditStream::new(5, &[1, 4, 16]);
        for expect in [1, 4, 16, 1, 4, 16] {
            let (forward, revert) = stream.next_pair(&base);
            assert_eq!(forward.len(), expect);
            assert_eq!(revert.len(), expect);
            for (i, e) in forward.iter().enumerate() {
                assert!(!forward[i + 1..].contains(e), "{e:?} drawn twice");
            }
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(graph_text(0.05, 9), graph_text(0.05, 9));
        assert_ne!(graph_text(0.05, 9), graph_text(0.05, 10));
        let base = small_base();
        let draw = || EditStream::new(2, &[4]).next_pair(&base);
        assert_eq!(draw(), draw());
    }

    #[test]
    fn permutation_keeps_the_graph_shape() {
        let g = DatasetSpec::by_name("NELL")
            .expect("spec")
            .generate_scaled(0.05, BASE_SEED);
        let p = from_text(&permuted_text(&g, 77)).expect("parses");
        assert_eq!(p.node_count(), g.node_count());
        assert_eq!(p.edge_count(), g.edge_count());
        let degrees = |g: &Graph| {
            let mut d: Vec<(usize, usize)> = g
                .nodes()
                .map(|u| (g.out_degree(u), g.in_degree(u)))
                .collect();
            d.sort_unstable();
            d
        };
        assert_eq!(degrees(&p), degrees(&g));
    }
}
