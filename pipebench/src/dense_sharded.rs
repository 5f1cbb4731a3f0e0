//! The `dense_sharded` leg of `cold_pipeline`: θ = 0 simple simulation
//! on 16 fixed u-row shards with shard-CSR spill files: parse → new →
//! cold run (writes the spills) → top_k → warm run (maps them back).

use crate::report::{CountGuard, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{hash, overhead_ratio, ColdRun, Ctx};
use fsim_core::{FsimConfig, FsimEngine, ShardSpec, Variant};
use fsim_graph::io;
use fsim_labels::LabelFn;
use std::path::Path;

const SCALE: f64 = 0.18;
const K: usize = 100;
const SHARDS: usize = 16;

/// One engine thread, as in `edit_stream`: each of the 16 shards'
/// sweeps is a few thousand pairs, so with two threads every sweep is
/// one more cross-CPU wake-up, and under host steal those moved the
/// pass time by up to 2× from run to run.
fn config() -> FsimConfig {
    let mut cfg = FsimConfig::new(Variant::Simple)
        .label_fn(LabelFn::JaroWinkler)
        .threads(1);
    cfg.epsilon = 1e-4;
    cfg
}

#[derive(Default)]
struct Pass {
    setup: f64,
    to_topk: f64,
    warm: f64,
    warm_iter: f64,
    total: f64,
    traced: bool,
}

/// Bytes of the regular files under `dir`, recursively.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

pub struct DenseSharded {
    text: String,
    cfg: FsimConfig,
    /// Hash and dependency entries of the unsharded reference run.
    reference: u64,
    unsharded_deps: u64,
    tr: Tracer,
    guard: CountGuard,
    passes: Vec<Pass>,
    cold: Vec<ColdRun>,
    shard_count: usize,
    spill_bytes: u64,
}

impl DenseSharded {
    /// Generates the input and computes the output reference: the same
    /// workload unsharded.
    pub fn new(ctx: &Ctx) -> Self {
        let text = crate::inputs::graph_text(SCALE, ctx.seed);
        let cfg = config();
        let (reference, unsharded_deps) = {
            let g = io::from_text(&text).expect("generated graph text parses");
            let mut e =
                FsimEngine::new(&g, &g, &cfg.clone().shards(ShardSpec::Off)).expect("valid config");
            e.run();
            (hash(&e), e.dep_entry_count().unwrap_or(0) as u64)
        };
        DenseSharded {
            text,
            cfg,
            reference,
            unsharded_deps,
            tr: ctx.tracer(),
            guard: CountGuard::new(),
            passes: Vec::new(),
            cold: Vec::new(),
            shard_count: 0,
            spill_bytes: 0,
        }
    }

    /// One pass; returns its seconds, or `None` when a call failed.
    pub fn pass(&mut self, ctx: &Ctx, out: &mut Outcome, p: u64) -> Option<f64> {
        let spill = ctx.tmp.join(format!("spill-{p}"));
        let cfg = self
            .cfg
            .clone()
            .shards(ShardSpec::Fixed(SHARDS))
            .spill_dir(&spill);
        let tr = &mut self.tr;
        tr.set_on(ctx.traced(p));
        let mut s = Pass {
            traced: tr.is_on(),
            ..Pass::default()
        };
        let pass = tr.begin("pass", p);
        let (g, parse_s) = tr.timed("io.parse", p, || io::from_text(&self.text));
        let g = out.op("io::from_text", g)?;
        let (e, new_s) = tr.timed("session.new", p, || FsimEngine::new(&g, &g, &cfg));
        let mut e = out.op("FsimEngine::new", e)?;
        let (_, run_s) = tr.timed("session.run", p, || {
            e.run();
        });
        let (top, topk_s) = tr.timed("topk.top_k", p, || e.top_k(K, false));
        let mut c = ColdRun::of(&e, new_s, run_s);
        let cold_hash = hash(&e);
        let (_, warm_s) = tr.timed("session.run(warm)", p, || {
            e.run();
        });
        tr.end(pass);
        out.ok(3);
        s.setup = parse_s + new_s;
        s.to_topk = s.setup + run_s + topk_s;
        s.warm = warm_s;
        s.warm_iter = e.iteration_seconds().iter().sum();
        s.total = s.to_topk + warm_s;

        let reference = self.reference;
        out.check(cold_hash == reference, || {
            format!("pass {p}: sharded cold run differs from unsharded")
        });
        out.check(hash(&e) == reference, || {
            format!("pass {p}: sharded warm run differs from unsharded")
        });
        out.check(top.len() == K && top == e.top_k(K, false), || {
            format!("pass {p}: top_k changed across runs")
        });
        // A sharded session holds no full CSR; its entry count is that
        // of the unsharded reference, whose CSR the shards partition.
        c.deps = self.unsharded_deps;
        let bytes = dir_bytes(&spill);
        let mut counts = c.counts();
        counts.insert("shards.count", e.shard_count() as u64);
        counts.insert("spill.bytes", bytes);
        self.guard.observe(out, p, counts);
        self.shard_count = e.shard_count();
        self.spill_bytes = bytes;
        drop(e);
        let _ = std::fs::remove_dir_all(&spill);
        self.cold.push(c);
        let total = s.total;
        self.passes.push(s);
        Some(total)
    }

    /// Checks the counts across runs and prints the leg's figures.
    pub fn finish(self, ctx: &Ctx, out: &mut Outcome) {
        self.guard
            .across_runs(out, &ctx.state, "dense_sharded", ctx.seed);
        let passes = &self.passes;
        let med = |f: fn(&Pass) -> f64| {
            median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        let cold_med = |f: fn(&ColdRun) -> f64| {
            median(&self.cold.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        out.figure("dense.passes", passes.len() as f64, "count");
        out.figure("dense.setup_s", med(|s| s.setup), "s");
        out.figure("dense.time_to_topk_s", med(|s| s.to_topk), "s");
        out.figure("warm_run_s", med(|s| s.warm), "s");
        out.figure("shards.count", self.shard_count as f64, "count");
        out.figure("shards.cold_run_s", cold_med(|c| c.run_s), "s");
        out.figure("shards.warm_iter_s", med(|s| s.warm_iter), "s");
        out.figure(
            "shards.peak_csr_bytes",
            cold_med(|c| c.peak_csr_bytes as f64),
            "bytes",
        );
        out.figure("spill.bytes", self.spill_bytes as f64, "bytes");
        out.figure(
            "dense.trace_overhead_ratio",
            overhead_ratio(passes, |s| s.traced, |s| s.total),
            "ratio",
        );
        out.spans("dense_sharded", self.tr.into_spans());
    }
}
