//! `ConvergenceMode::Auto`'s per-iteration choice between a dense sweep
//! and the dirty worklist, on stores above the size floor where the
//! choice is live. Two session shapes pin both sides of the rule: the
//! θ=0.6 simple session, whose changed frontier covers nearly the whole
//! dependency CSR (`Auto` sweeps), and the θ=0.9 bijective session, whose
//! frontier stays well below the crossover (`Auto` keeps the worklist).
//! On both, `Auto` must stay bitwise identical to the other exact modes,
//! report the same per-iteration counts at any thread or shard count,
//! and keep the restore and edit-replay contracts.

use fsim::prelude::*;
use fsim_core::{FsimEngine, GraphEdit, GraphSide, ShardSpec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn nell() -> Graph {
    fsim::datasets::DatasetSpec::by_name("NELL")
        .expect("NELL spec")
        .generate_scaled(0.15, 42)
}

fn simple_theta06() -> FsimConfig {
    FsimConfig::new(Variant::Simple)
        .label_fn(LabelFn::JaroWinkler)
        .theta(0.6)
}

fn bijective_theta09() -> FsimConfig {
    FsimConfig::new(Variant::Bijective)
        .label_fn(LabelFn::JaroWinkler)
        .theta(0.9)
}

fn run(g: &Graph, cfg: &FsimConfig) -> FsimEngine<'static> {
    let mut e = FsimEngine::new_owned(g.clone(), g.clone(), cfg).expect("valid config");
    e.run();
    e
}

/// Iterations after the first that evaluated every pair.
fn dense_iterations(e: &FsimEngine<'_>) -> usize {
    e.pairs_evaluated()[1..]
        .iter()
        .filter(|&&p| p == e.pair_count())
        .count()
}

/// Scores, iteration count and final delta agree bit for bit.
fn assert_same_result(a: &FsimEngine<'_>, b: &FsimEngine<'_>, what: &str) {
    assert_eq!(a.pair_count(), b.pair_count(), "{what}: pair count");
    for ((u1, v1, x), (u2, v2, y)) in a.iter_pairs().zip(b.iter_pairs()) {
        assert_eq!((u1, v1), (u2, v2), "{what}: pair order");
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: score at ({u1},{v1})");
    }
    assert_eq!(a.iterations(), b.iterations(), "{what}: iterations");
    assert_eq!(
        a.final_delta().to_bits(),
        b.final_delta().to_bits(),
        "{what}: final delta"
    );
}

/// Checks every `Auto` contract on one session shape; returns the `Auto`
/// session's dense-iteration count.
fn check_session(g: &Graph, cfg: &FsimConfig, what: &str) -> usize {
    let auto = run(g, cfg);
    assert!(
        auto.pair_count() >= 2048,
        "{what}: the store ({} pairs) must sit above the dense floor",
        auto.pair_count()
    );
    assert!(
        auto.dep_entry_count().is_some(),
        "{what}: Auto holds the CSR"
    );

    // The exact modes agree.
    for mode in [ConvergenceMode::FullSweep, ConvergenceMode::DeltaDriven] {
        let other = run(g, &cfg.clone().convergence(mode));
        assert_same_result(&auto, &other, &format!("{what}: Auto vs {mode:?}"));
    }

    // Thread and shard counts change neither bits nor per-iteration counts.
    for (variant_cfg, tag) in [
        (cfg.clone().threads(2), "threads 2"),
        (cfg.clone().shards(ShardSpec::Fixed(3)), "Fixed(3) shards"),
        (
            cfg.clone().threads(2).shards(ShardSpec::Fixed(3)),
            "threads 2 + Fixed(3) shards",
        ),
    ] {
        let other = run(g, &variant_cfg);
        assert_same_result(&auto, &other, &format!("{what}: {tag}"));
        assert_eq!(
            auto.pairs_evaluated(),
            other.pairs_evaluated(),
            "{what}: per-iteration counts under {tag}"
        );
    }

    // Snapshot → restore → rerun equals the original session's rerun.
    let dir = std::env::temp_dir().join(format!(
        "fsim-auto-schedule-{}-{}",
        std::process::id(),
        what.replace(' ', "_")
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("session.fsnp");
    let mut original = run(g, cfg);
    original.write_snapshot(&path).expect("write snapshot");
    let mut restored = FsimEngine::restore(&path).expect("restore snapshot");
    std::fs::remove_dir_all(&dir).ok();
    original.rerun(|c| c.w_out = 0.3).expect("rerun");
    restored.rerun(|c| c.w_out = 0.3).expect("rerun");
    assert_same_result(&original, &restored, &format!("{what}: restored rerun"));
    assert_eq!(
        original.pairs_evaluated(),
        restored.pairs_evaluated(),
        "{what}: restored rerun counts"
    );

    // An edit chain matches a cold engine on the edited graphs.
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let mut session = run(g, cfg);
    let n = g.node_count() as u32;
    for batch in 0..3 {
        let edits: Vec<GraphEdit> = (0..2)
            .map(|_| {
                let side = if rng.gen_bool(0.5) {
                    GraphSide::Left
                } else {
                    GraphSide::Right
                };
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if rng.gen_bool(0.5) {
                    GraphEdit::add_edge(side, u, v)
                } else {
                    GraphEdit::remove_edge(side, u, v)
                }
            })
            .collect();
        session.apply_edits(&edits).expect("in-range edits");
        let (g1, g2) = session.graphs();
        let mut cold = FsimEngine::new(g1, g2, session.config()).expect("valid config");
        cold.run();
        assert_same_result(&session, &cold, &format!("{what}: edit batch {batch}"));
        assert_eq!(session.converged(), cold.converged(), "{what}: convergence");
    }

    dense_iterations(&auto)
}

#[test]
fn auto_sweeps_when_the_frontier_covers_the_csr() {
    let g = nell();
    let dense = check_session(&g, &simple_theta06(), "s theta 0.6");
    assert!(
        dense >= 1,
        "Auto must take dense iterations on this session"
    );
}

#[test]
fn auto_keeps_the_worklist_below_the_crossover() {
    let g = nell();
    let dense = check_session(&g, &bijective_theta09(), "bj theta 0.9");
    assert_eq!(dense, 0, "Auto must never sweep on this session");
}
