//! The `score_cold` leg of `cold_pipeline`: the `fsim score` / Fig. 7
//! pipeline, cold, pass after pass: parse → new → run → top_k → rerun →
//! snapshot → restore → top_k.

use crate::report::{CountGuard, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{cold_layers, hash, overhead_ratio, ColdRun, Ctx};
use fsim_core::{ConvergenceMode, FsimConfig, FsimEngine, Variant};
use fsim_graph::io;
use fsim_labels::LabelFn;
use std::collections::BTreeMap;
use std::path::PathBuf;

const SCALE: f64 = 0.45;
const K: usize = 100;
const RERUN_W_OUT: f64 = 0.3;

fn config() -> FsimConfig {
    let mut cfg = FsimConfig::new(Variant::Simple)
        .label_fn(LabelFn::JaroWinkler)
        .theta(0.6)
        .threads(2);
    cfg.epsilon = 1e-4;
    cfg
}

#[derive(Default)]
struct Pass {
    setup: f64,
    to_topk: f64,
    rerun: f64,
    rerun_iter: f64,
    write: f64,
    restore: f64,
    topk: f64,
    roundtrip: f64,
    total: f64,
    traced: bool,
}

pub struct ScoreCold {
    text: String,
    cfg: FsimConfig,
    /// Full-sweep hashes after `run()` and after the rerun.
    ref_run: u64,
    ref_rerun: u64,
    snap: PathBuf,
    tr: Tracer,
    guard: CountGuard,
    passes: Vec<Pass>,
    cold: Vec<ColdRun>,
    snapshot_bytes: u64,
}

impl ScoreCold {
    /// Generates the input and computes the output references, once
    /// under the full sweep (bitwise identical to every exact mode by
    /// contract).
    pub fn new(ctx: &Ctx) -> Self {
        let text = crate::inputs::graph_text(SCALE, ctx.seed);
        let cfg = config();
        let (ref_run, ref_rerun) = {
            let g = io::from_text(&text).expect("generated graph text parses");
            let sweep = cfg.clone().convergence(ConvergenceMode::FullSweep);
            let mut e = FsimEngine::new(&g, &g, &sweep).expect("valid config");
            e.run();
            let a = hash(&e);
            e.rerun(|c| c.w_out = RERUN_W_OUT).expect("valid config");
            (a, hash(&e))
        };
        ScoreCold {
            text,
            cfg,
            ref_run,
            ref_rerun,
            snap: ctx.tmp.join("score_cold.fsnp"),
            tr: ctx.tracer(),
            guard: CountGuard::new(),
            passes: Vec::new(),
            cold: Vec::new(),
            snapshot_bytes: 0,
        }
    }

    /// One pass; returns its seconds, or `None` when a call failed.
    pub fn pass(&mut self, ctx: &Ctx, out: &mut Outcome, p: u64) -> Option<f64> {
        let tr = &mut self.tr;
        tr.set_on(ctx.traced(p));
        let mut s = Pass {
            traced: tr.is_on(),
            ..Pass::default()
        };
        let pass = tr.begin("pass", p);
        let (g, parse_s) = tr.timed("io.parse", p, || io::from_text(&self.text));
        let g = out.op("io::from_text", g)?;
        let (e, new_s) = tr.timed("session.new", p, || FsimEngine::new(&g, &g, &self.cfg));
        let mut e = out.op("FsimEngine::new", e)?;
        let (_, run_s) = tr.timed("session.run", p, || {
            e.run();
        });
        let (top, topk_s) = tr.timed("topk.top_k", p, || e.top_k(K, false));
        out.ok(2);
        s.setup = parse_s + new_s;
        s.to_topk = s.setup + run_s + topk_s;
        let c = ColdRun::of(&e, new_s, run_s);
        out.check(hash(&e) == self.ref_run, || {
            format!("pass {p}: run() differs from the full-sweep reference")
        });

        let (r, rerun_s) = tr.timed("session.rerun", p, || {
            e.rerun(|c| c.w_out = RERUN_W_OUT).map(|_| ())
        });
        out.op("FsimEngine::rerun", r);
        s.rerun = rerun_s;
        s.rerun_iter = e.iteration_seconds().iter().sum();
        let rerun_hash = hash(&e);
        out.check(rerun_hash == self.ref_rerun, || {
            format!("pass {p}: rerun() differs from the full-sweep reference")
        });

        let snap = &self.snap;
        let (w, write_s) = tr.timed("persist.write", p, || e.write_snapshot(snap));
        out.op("FsimEngine::write_snapshot", w);
        let (restored, restore_s) = tr.timed("persist.restore", p, || FsimEngine::restore(snap));
        let (restored_top, topk2_s) = match out.op("FsimEngine::restore", restored) {
            Some(r) => {
                let (t, secs) = tr.timed("topk.top_k", p, || r.top_k(K, false));
                out.ok(1);
                out.check(hash(&r) == rerun_hash, || {
                    format!("pass {p}: restored scores differ")
                });
                (t, secs)
            }
            None => (Vec::new(), 0.0),
        };
        tr.end(pass);
        let rerun_top = e.top_k(K, false);
        out.check(top.len() == K && restored_top == rerun_top, || {
            format!("pass {p}: restored top_k differs")
        });
        s.write = write_s;
        s.restore = restore_s;
        s.topk = topk_s;
        s.roundtrip = write_s + restore_s + topk2_s;
        s.total = s.to_topk + rerun_s + s.roundtrip;
        let bytes = std::fs::metadata(snap).map(|m| m.len()).unwrap_or(0);
        self.snapshot_bytes = bytes;

        let mut counts: BTreeMap<&'static str, u64> = c.counts();
        counts.insert("persist.snapshot_bytes", bytes);
        self.guard.observe(out, p, counts);
        self.cold.push(c);
        let total = s.total;
        self.passes.push(s);
        Some(total)
    }

    /// Checks the counts across runs and reports the leg: `setup_s`,
    /// `time_to_topk_s`, `warm_op_p50_ms` (the rerun), the per-layer
    /// metrics and the leg's named figures.
    pub fn finish(self, ctx: &Ctx, out: &mut Outcome) {
        let _ = std::fs::remove_file(&self.snap);
        self.guard
            .across_runs(out, &ctx.state, "score_cold", ctx.seed);
        let passes = &self.passes;
        let med = |f: fn(&Pass) -> f64| {
            median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        out.metric("setup_s", med(|s| s.setup), "s");
        out.metric("time_to_topk_s", med(|s| s.to_topk), "s");
        out.metric("warm_op_p50_ms", med(|s| s.rerun) * 1e3, "ms");
        out.figure("passes", passes.len() as f64, "count");
        out.figure("rerun_s", med(|s| s.rerun), "s");
        out.figure("snapshot_roundtrip_s", med(|s| s.roundtrip), "s");

        let cold = &self.cold;
        cold_layers(out, cold, overhead_ratio(passes, |s| s.traced, |s| s.total));
        let run_outside = median(&cold.iter().map(|c| c.run_s - c.iter_s).collect::<Vec<_>>())
            .unwrap_or(f64::NAN);
        let rerun_outside = med(|s| s.rerun - s.rerun_iter);
        out.figure("iterate.rerun_iter_s", med(|s| s.rerun_iter), "s");
        out.figure("session.rerun_outside_iter_s", rerun_outside, "s");
        // Derived, not measured: the cold run's time outside the iteration
        // timers minus the rerun's (which rebuilds no CSR) leaves the
        // dependency-CSR build.
        out.figure("deps.build_s_derived", run_outside - rerun_outside, "s");
        out.figure("topk.top_k_s", med(|s| s.topk), "s");
        out.figure("persist.write_s", med(|s| s.write), "s");
        out.figure("persist.restore_s", med(|s| s.restore), "s");
        out.figure(
            "persist.snapshot_bytes",
            self.snapshot_bytes as f64,
            "bytes",
        );
        out.spans("score_cold", self.tr.into_spans());
    }
}
