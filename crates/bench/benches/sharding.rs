//! Sharded-execution bench: peak resident dependency-CSR bytes and
//! wall-clock, unsharded vs u-row sharding at K ∈ {1, 4, 16}. Sharding
//! trades per-sweep shard-CSR rebuilds for bounded memory — only one
//! shard's CSR is ever resident — so the curve to watch is peak bytes
//! falling ~1/K while wall-clock rises. The bench asserts that sharded
//! execution stays **bitwise identical** to unsharded (a bench measuring
//! a wrong answer measures nothing) and **fails** — also under CI's
//! `--test` smoke run — if the K=16 peak is not under 1/8 of the
//! unsharded CSR footprint on the gated workload. Like the other
//! non-Criterion benches it emits `BENCH_sharding.json` at the repository
//! root so the perf trajectory is recorded across PRs.

use fsim_core::{ConvergenceMode, FsimConfig, FsimEngine, ShardSpec, Variant};
use fsim_datasets::DatasetSpec;
use fsim_graph::Graph;
use fsim_labels::LabelFn;
use std::time::Instant;

/// One shard count's measurements.
struct ShardRow {
    k_requested: usize,
    k_effective: usize,
    peak_csr_bytes: usize,
    cold_s: f64,
    warm_s: f64,
    total_pairs_evaluated: usize,
}

/// One workload's measurements.
struct Row {
    name: String,
    pairs: usize,
    iterations: usize,
    unsharded_dep_entries: usize,
    unsharded_peak_csr_bytes: usize,
    unsharded_cold_s: f64,
    unsharded_warm_s: f64,
    sharded: Vec<ShardRow>,
}

fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn assert_bitwise(name: &str, what: &str, a: &FsimEngine<'_>, b: &FsimEngine<'_>) {
    assert_eq!(a.pair_count(), b.pair_count(), "{name}: {what}: pair sets");
    for ((u1, v1, s1), (u2, v2, s2)) in a.iter_pairs().zip(b.iter_pairs()) {
        assert_eq!((u1, v1), (u2, v2), "{name}: {what}: pair order");
        assert_eq!(
            s1.to_bits(),
            s2.to_bits(),
            "{name}: {what}: diverged at ({u1},{v1})"
        );
    }
    assert_eq!(a.iterations(), b.iterations(), "{name}: {what}: iterations");
    assert_eq!(
        a.pairs_evaluated(),
        b.pairs_evaluated(),
        "{name}: {what}: per-iteration work"
    );
}

fn measure(name: &str, g1: &Graph, g2: &Graph, cfg: &FsimConfig, reps: usize) -> Row {
    let delta_cfg = cfg.clone().convergence(ConvergenceMode::DeltaDriven);
    let cold_s = best_of(reps, || {
        FsimEngine::new(g1, g2, &delta_cfg)
            .expect("valid config")
            .run();
    });
    let mut whole = FsimEngine::new(g1, g2, &delta_cfg).expect("valid config");
    whole.run();
    let warm_s = best_of(reps, || {
        whole.run();
    });
    assert_eq!(whole.shard_count(), 0, "{name}: baseline must be unsharded");
    let unsharded_peak = whole.peak_csr_bytes();
    assert!(unsharded_peak > 0, "{name}: baseline holds a CSR");

    let mut sharded_rows = Vec::new();
    for k in [1usize, 4, 16] {
        // Sharded under the baseline's schedule: `Auto` may sweep where
        // the worklist would not, and per-iteration work is compared.
        let shard_cfg = delta_cfg.clone().shards(ShardSpec::Fixed(k));
        let shard_cold_s = best_of(reps, || {
            FsimEngine::new(g1, g2, &shard_cfg)
                .expect("valid config")
                .run();
        });
        let mut sharded = FsimEngine::new(g1, g2, &shard_cfg).expect("valid config");
        sharded.run();
        let shard_warm_s = best_of(reps, || {
            sharded.run();
        });
        assert_bitwise(name, &format!("K={k}"), &whole, &sharded);
        sharded_rows.push(ShardRow {
            k_requested: k,
            k_effective: sharded.shard_count(),
            peak_csr_bytes: sharded.peak_csr_bytes(),
            cold_s: shard_cold_s,
            warm_s: shard_warm_s,
            total_pairs_evaluated: sharded.pairs_evaluated().iter().sum(),
        });
    }

    Row {
        name: name.to_string(),
        pairs: whole.pair_count(),
        iterations: whole.iterations(),
        unsharded_dep_entries: whole.dep_entry_count().unwrap_or(0),
        unsharded_peak_csr_bytes: unsharded_peak,
        unsharded_cold_s: cold_s,
        unsharded_warm_s: warm_s,
        sharded: sharded_rows,
    }
}

fn row_to_json(r: &Row) -> String {
    let sharded: Vec<String> = r
        .sharded
        .iter()
        .map(|s| {
            format!(
                concat!(
                    "{{\"k_requested\":{},\"k_effective\":{},\"peak_csr_bytes\":{},",
                    "\"peak_ratio\":{:.4},\"cold_s\":{:.6},\"warm_s\":{:.6},",
                    "\"total_pairs_evaluated\":{}}}"
                ),
                s.k_requested,
                s.k_effective,
                s.peak_csr_bytes,
                s.peak_csr_bytes as f64 / r.unsharded_peak_csr_bytes.max(1) as f64,
                s.cold_s,
                s.warm_s,
                s.total_pairs_evaluated,
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"pairs\":{},\"iterations\":{},",
            "\"unsharded\":{{\"dep_entries\":{},\"peak_csr_bytes\":{},",
            "\"cold_s\":{:.6},\"warm_s\":{:.6}}},",
            "\"sharded\":[{}]}}"
        ),
        r.name,
        r.pairs,
        r.iterations,
        r.unsharded_dep_entries,
        r.unsharded_peak_csr_bytes,
        r.unsharded_cold_s,
        r.unsharded_warm_s,
        sharded.join(","),
    )
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let (scale, reps, epsilon) = if test_mode {
        (0.08, 1, 1e-3)
    } else {
        (0.45, 5, 1e-4)
    };
    let g = DatasetSpec::by_name("NELL")
        .expect("spec")
        .generate_scaled(scale, 42);

    // The gated workload: θ-pruned self-similarity under bijective
    // simulation — the serving shape whose CSR dominates session memory
    // (same configuration the convergence bench gates on).
    let mut theta_cfg = FsimConfig::new(Variant::Bijective)
        .label_fn(LabelFn::JaroWinkler)
        .theta(0.9);
    theta_cfg.epsilon = epsilon;

    // A dense (θ = 0) simple-simulation workload: the worst case for CSR
    // memory (every pair maintained), reported ungated.
    let mut dense_cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::JaroWinkler);
    dense_cfg.epsilon = epsilon;
    let dense_scale = if test_mode { 0.05 } else { 0.18 };
    let gd = DatasetSpec::by_name("NELL")
        .expect("spec")
        .generate_scaled(dense_scale, 42);

    let rows = vec![
        measure("session_reuse_theta0.9_bj", &g, &g, &theta_cfg, reps),
        measure("dense_theta0_s", &gd, &gd, &dense_cfg, reps),
    ];

    for r in &rows {
        println!(
            "bench sharding/{:<26} pairs {:>8}  iters {:>3}  unsharded CSR {:>11} B  warm {:.3}ms",
            r.name,
            r.pairs,
            r.iterations,
            r.unsharded_peak_csr_bytes,
            r.unsharded_warm_s * 1e3,
        );
        for s in &r.sharded {
            println!(
                "bench sharding/{:<26} K={:<3} peak {:>11} B ({:>5.1}% of unsharded)  warm {:.3}ms ({:.2}x)",
                r.name,
                s.k_requested,
                s.peak_csr_bytes,
                100.0 * s.peak_csr_bytes as f64 / r.unsharded_peak_csr_bytes.max(1) as f64,
                s.warm_s * 1e3,
                s.warm_s / r.unsharded_warm_s.max(1e-12),
            );
        }
    }

    let body: Vec<String> = rows.iter().map(row_to_json).collect();
    let json = format!(
        "{{\"bench\":\"sharding\",\"test_mode\":{},\"workloads\":[{}]}}\n",
        test_mode,
        body.join(",")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sharding.json");
    std::fs::write(path, &json).expect("write BENCH_sharding.json");
    println!("wrote {path}");

    // Acceptance gate, checked after the JSON is on disk so a failing
    // record is still inspectable: on the dense workload — the regime
    // whose CSR actually blows memory budgets, and hence the one sharding
    // exists for — the K=16 peak resident CSR must be under 1/8 of the
    // unsharded footprint. The θ-pruned workload is reported ungated: a
    // single hub u-row there holds ~19% of all dependency entries, and
    // rows are never split across shards, so that row is its intrinsic
    // peak-memory floor no plan can beat (analogous to the incremental
    // bench's ungated dense-JW influence-ball floor).
    let gated = rows
        .iter()
        .find(|r| r.name.starts_with("dense"))
        .expect("gated workload");
    let k16 = gated
        .sharded
        .iter()
        .find(|s| s.k_requested == 16)
        .expect("K=16 row");
    let ratio = k16.peak_csr_bytes as f64 / gated.unsharded_peak_csr_bytes.max(1) as f64;
    assert!(
        ratio < 0.125,
        "sharding must bound peak CSR memory: K=16 peak is {:.1}% of unsharded on the dense \
         workload (need < 12.5%)",
        ratio * 100.0
    );
}
