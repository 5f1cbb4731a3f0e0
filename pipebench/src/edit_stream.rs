//! The `edit_stream` leg of `warm_session`: the `fsimd` writer's path
//! without HTTP. A converged session takes a seeded stream of
//! right-side edge-flip batches, each followed by its exact revert,
//! through `apply_edits` + `top_k`.

use crate::inputs::EditStream;
use crate::report::{CountGuard, Outcome};
use crate::stats::{median, quantile, reportable, sorted, tail};
use crate::trace::Tracer;
use crate::{cold_layers, hash, overhead_ratio, ColdRun, Ctx};
use fsim_core::{FsimConfig, FsimEngine, Variant};
use fsim_graph::{io, Graph};
use fsim_labels::LabelFn;

const SCALE: f64 = 0.45;
const K: usize = 10;
/// Batch sizes, cycled.
const BATCH_SIZES: [usize; 3] = [1, 4, 16];
/// Applies whose evaluation counts are compared across runs.
const GUARDED_APPLIES: usize = 30;

/// The session shape `edit_stream` and `serve_mixed` share: the `fsimd`
/// writer's session. It runs on one engine thread: with two, every
/// replay iteration wakes a worker on the other CPU, and on a shared
/// two-vCPU host that wake-up cost moved the apply p50 by up to 50 %
/// from run to run, against about 20 % on one thread.
pub fn config() -> FsimConfig {
    let mut cfg = FsimConfig::new(Variant::Bijective)
        .label_fn(LabelFn::JaroWinkler)
        .theta(0.9)
        .threads(1);
    cfg.epsilon = 1e-4;
    cfg
}

struct Apply {
    secs: f64,
    replay: f64,
    evaluated: u64,
    share: f64,
    topk: f64,
    traced: bool,
}

/// Figures of one set-up repetition.
struct Setup {
    engine: FsimEngine<'static>,
    setup: f64,
    to_topk: f64,
    cold: ColdRun,
}

/// One set-up repetition: parse → new → run → top_k.
fn set_up(out: &mut Outcome, tr: &mut Tracer, text: &str, cfg: &FsimConfig, rep: u64) -> Setup {
    let span = tr.begin("setup", rep);
    let (g, parse_s) = tr.timed("io.parse", rep, || io::from_text(text));
    let g = out
        .op("io::from_text", g)
        .expect("generated graph text parses");
    let (e, new_s) = tr.timed("session.new", rep, || {
        FsimEngine::new_owned(g.clone(), g, cfg)
    });
    let mut e = out.op("FsimEngine::new", e).expect("valid config");
    let (_, run_s) = tr.timed("session.run", rep, || {
        e.run();
    });
    let (_, topk_s) = tr.timed("topk.top_k", rep, || e.top_k(K, false));
    tr.end(span);
    out.ok(2);
    Setup {
        setup: parse_s + new_s,
        to_topk: parse_s + new_s + run_s + topk_s,
        cold: ColdRun::of(&e, new_s, run_s),
        engine: e,
    }
}

pub struct EditStreamLeg {
    text: String,
    cfg: FsimConfig,
    tr: Tracer,
    guard: CountGuard,
    /// Per set-up repetition: parse + new, and parse → top_k.
    setup: Vec<f64>,
    to_topk: Vec<f64>,
    cold: Vec<ColdRun>,
    /// The session that takes the edit stream, and its first scores.
    engine: FsimEngine<'static>,
    initial: u64,
    /// Its right graph and shape before any edit.
    base: Graph,
    base_shape: (usize, Option<usize>, usize),
    stream: EditStream,
    applies: Vec<Apply>,
    batches: u64,
}

impl EditStreamLeg {
    /// Sets up the session that takes the edit stream (set-up
    /// repetition 0).
    pub fn new(ctx: &Ctx, out: &mut Outcome) -> Self {
        let text = crate::inputs::graph_text(SCALE, ctx.seed);
        let cfg = config();
        let mut tr = ctx.tracer();
        tr.set_on(ctx.traced(0));
        let first = set_up(out, &mut tr, &text, &cfg, 0);
        let mut guard = CountGuard::new();
        guard.observe(out, 0, first.cold.counts());
        let e = first.engine;
        out.check(e.can_replay_edits(), || {
            "the converged session recorded no trajectory to replay".into()
        });
        EditStreamLeg {
            initial: hash(&e),
            base: e.graphs().1.clone(),
            base_shape: (e.pair_count(), e.dep_entry_count(), e.iterations()),
            text,
            cfg,
            tr,
            guard,
            setup: vec![first.setup],
            to_topk: vec![first.to_topk],
            cold: vec![first.cold],
            engine: e,
            stream: EditStream::new(ctx.seed, &BATCH_SIZES),
            applies: Vec::new(),
            batches: 0,
        }
    }

    /// One more set-up repetition, checked against the first.
    pub fn setup_rep(&mut self, ctx: &Ctx, out: &mut Outcome) {
        let rep = self.setup.len() as u64;
        self.tr.set_on(ctx.traced(rep));
        let r = set_up(out, &mut self.tr, &self.text, &self.cfg, rep);
        let initial = self.initial;
        out.check(hash(&r.engine) == initial, || {
            format!("set-up {rep}: scores differ from the first set-up")
        });
        self.guard.observe(out, rep, r.cold.counts());
        self.setup.push(r.setup);
        self.to_topk.push(r.to_topk);
        self.cold.push(r.cold);
    }

    /// One batch and its revert, each through `apply_edits` + `top_k`.
    pub fn batch(&mut self, ctx: &Ctx, out: &mut Outcome) {
        let b = self.batches;
        let (tr, e) = (&mut self.tr, &mut self.engine);
        tr.set_on(ctx.traced(b));
        let (forward, revert) = self.stream.next_pair(&self.base);
        for (batch, is_revert) in [(forward, false), (revert, true)] {
            let span = tr.begin("batch", b);
            let (r, secs) = tr.timed("edits.apply", b, || e.apply_edits(&batch));
            let (_, topk) = tr.timed("topk.top_k", b, || e.top_k(K, false));
            tr.end(span);
            out.op("FsimEngine::apply_edits", r.map(drop));
            out.ok(1);
            let evaluated = e.pairs_evaluated().iter().sum::<usize>() as u64;
            self.applies.push(Apply {
                secs,
                replay: e.iteration_seconds().iter().sum(),
                evaluated,
                share: evaluated as f64 / (e.pair_count() * e.iterations()).max(1) as f64,
                topk,
                traced: tr.is_on(),
            });
            if is_revert {
                let shape = (e.pair_count(), e.dep_entry_count(), e.iterations());
                out.check(
                    e.graphs().1.edge_count() == self.base.edge_count() && shape == self.base_shape,
                    || format!("batch {b}: the revert did not restore the baseline shape"),
                );
            }
        }
        self.batches += 1;
    }

    /// Runs the output gates and reports the leg: `setup_s`,
    /// `time_to_topk_s`, `warm_op_p50_ms` (the apply p50), the
    /// per-layer metrics and the leg's named figures.
    pub fn finish(mut self, ctx: &Ctx, out: &mut Outcome) {
        // Output gate: the edited-and-reverted session equals a cold
        // session on its current graphs, and both equal the initial
        // scores.
        let e = &self.engine;
        let (g1, g2) = e.graphs();
        let mut fresh = FsimEngine::new(g1, g2, &self.cfg).expect("valid config");
        fresh.run();
        let now = hash(e);
        out.check(now == hash(&fresh), || {
            "the edited session differs from a cold session on its graphs".into()
        });
        out.check(now == self.initial, || {
            "the reverted session differs from its initial scores".into()
        });
        let applies = &self.applies;
        if applies.len() >= GUARDED_APPLIES {
            let evaluated = applies[..GUARDED_APPLIES].iter().map(|a| a.evaluated).sum();
            self.guard
                .observe_extra("edits.pairs_evaluated_first_30", evaluated);
        }
        self.guard
            .across_runs(out, &ctx.state, "edit_stream", ctx.seed);

        let secs = sorted(&applies.iter().map(|a| a.secs).collect::<Vec<_>>());
        let p50 = quantile(&secs, 0.5).unwrap_or(f64::NAN);
        let busy: f64 = applies.iter().map(|a| a.secs + a.topk).sum();
        out.metric("setup_s", median(&self.setup).unwrap_or(f64::NAN), "s");
        out.metric(
            "time_to_topk_s",
            median(&self.to_topk).unwrap_or(f64::NAN),
            "s",
        );
        out.metric("warm_op_p50_ms", p50 * 1e3, "ms");
        out.figure("setups", self.setup.len() as f64, "count");

        out.figure("applies", applies.len() as f64, "count");
        out.figure("applies_per_s", applies.len() as f64 / busy, "1/s");
        out.figure("edit_p50_ms", p50 * 1e3, "ms");
        if let Some(p90) = reportable(&secs, 0.9) {
            out.figure("edit_p90_ms", p90 * 1e3, "ms");
        }
        if let Some((name, v)) = tail(&secs).filter(|&(name, _)| name != "p90") {
            out.figure(&format!("edit_{name}_ms"), v * 1e3, "ms");
        }

        cold_layers(
            out,
            &self.cold,
            overhead_ratio(applies, |a| a.traced, |a| a.secs + a.topk),
        );
        let med = |f: fn(&Apply) -> f64| {
            median(&applies.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        out.figure("edits.replay_iter_ms", med(|a| a.replay) * 1e3, "ms");
        out.figure("edits.repair_ms", med(|a| a.secs - a.replay) * 1e3, "ms");
        out.figure(
            "edits.pairs_evaluated",
            med(|a| a.evaluated as f64),
            "count",
        );
        out.figure("edits.eval_share", med(|a| a.share), "ratio");
        out.figure("topk.top_k_ms", med(|a| a.topk) * 1e3, "ms");
        out.spans("edit_stream", self.tr.into_spans());
    }
}
