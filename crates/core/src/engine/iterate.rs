//! The per-iteration update of Equation 3 and the convergence loop
//! (Algorithm 1 lines 2–7, Theorem 1 / Corollary 1).
//!
//! One driver, [`converge`], runs every unsharded schedule; each of its
//! iterations evaluates either **every slot** (dense) or the **dirty
//! worklist** — the dependents, per the reverse
//! [`PairDepCsr`](super::deps::PairDepCsr), of the slots whose score
//! changed bitwise in the previous iteration. A clean slot's update is a
//! pure function of inputs that did not change, so the two choices give
//! the same bits and the driver may switch between them per iteration:
//! * `FullSweep` is dense every iteration (Algorithm 1 as written);
//! * `DeltaDriven` takes the worklist after the first iteration;
//! * `Auto` decides per iteration, before building the worklist, with
//!   Beamer's direction-optimizing edge test ([`dense_pays`]): dense once
//!   the changed set's reverse dependencies cover most of the CSR, where
//!   a streamed pass beats a scattered worklist;
//! * the **approximate** (ε-aware) schedule additionally suppresses pairs
//!   whose accumulated incoming-delta bound ([`ApproxState`]) stays below
//!   `tolerance·ε/(w⁺+w⁻)` — not bitwise, but certified: suppressed
//!   deltas accumulate until a re-evaluation, so the final accumulators
//!   bound the distance to the exact result (Theorem 2's contraction).
//!
//! The **sharded** driver ([`super::shards`]) applies the same rules over
//! transient per-u-row-shard CSRs with boundary exchange, and the edit
//! path's **trajectory replay** ([`run_replay`]) re-evaluates only what an
//! edit can reach — both bitwise identical to the unsharded driver.

use super::deps::PairDepCsr;
use super::parallel::{chunk_size, dispatch, IterationOutcome, Runtime, SharedScores, WorkerState};
use crate::config::{FsimConfig, InitScheme};
use crate::operators::{OpCtx, OpScratch, Operator, ScoreLookup};
use crate::store::PairStore;
use fsim_graph::{Graph, NodeId};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Slots per worker below which coordination overhead dominates
/// ([`effective_threads`]); also the smallest store on which
/// [`dense_pays`] may pick a dense iteration — below it an iteration is
/// too short for its schedule to matter.
pub(crate) const WORKER_FLOOR: usize = 2048;

/// The worker count actually used for a worklist: auto-degraded so each
/// worker owns at least a few thousand pairs (below that, coordination
/// overhead dominates). Hoisted out of the iteration loop — the seed
/// recomputed this, through a full `FsimConfig` clone, on every iteration.
pub(crate) fn effective_threads(cfg_threads: usize, worklist: usize) -> usize {
    cfg_threads.min((worklist / WORKER_FLOOR).max(1))
}

/// Budget-gated trajectory recorder: snapshots every iterate of a run
/// until the accumulated size would exceed the byte budget, then abandons
/// (and frees) the recording — the engine then falls back to a cold
/// re-iteration on the next edit instead of a replay. Gating on actual
/// bytes rather than the worst-case Corollary-1 iteration bound keeps
/// recording alive for runs that converge far earlier than the bound.
///
/// `history` may arrive holding the previous run's iterates: their
/// buffers are overwritten in place (a fresh multi-megabyte allocation
/// per iterate costs more in page faults than the copy itself), and
/// dropping the recorder truncates `history` to this run's iterates.
pub(crate) struct Recorder<'a> {
    history: &'a mut Vec<Vec<f64>>,
    /// Iterates recorded by this run (a prefix of `history`).
    len: usize,
    budget: usize,
    bytes: usize,
    abandoned: bool,
}

impl<'a> Recorder<'a> {
    pub(crate) fn new(history: &'a mut Vec<Vec<f64>>, budget: usize) -> Self {
        Self {
            history,
            len: 0,
            budget,
            bytes: 0,
            abandoned: false,
        }
    }

    /// Records one iterate (or gives up for the rest of the run).
    pub(crate) fn push(&mut self, iterate: &[f64]) {
        if self.abandoned {
            return;
        }
        self.bytes += std::mem::size_of_val(iterate);
        if self.bytes > self.budget {
            self.history.clear();
            self.history.shrink_to_fit();
            self.abandoned = true;
            return;
        }
        match self.history.get_mut(self.len) {
            Some(buf) => {
                buf.clear();
                buf.extend_from_slice(iterate);
            }
            None => self.history.push(iterate.to_vec()),
        }
        self.len += 1;
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        self.history.truncate(self.len);
    }
}

/// Per-slot error accounting for **ε-aware approximate scheduling**
/// ([`ConvergenceMode::Approximate`](crate::config::ConvergenceMode)).
///
/// `acc[s]` is an upper bound on how far slot `s`'s inputs have drifted
/// (sup norm) since `s` was last evaluated: each iteration adds, per
/// slot, the **maximum** delta among its changed dependencies (per-slot
/// max within an iteration, summed across iterations — exactly the
/// triangle inequality over the drift path). Because Equation 3 is
/// `(w⁺+w⁻)`-Lipschitz in its score inputs (Theorem 2; exact for the
/// row-max and Hungarian mapping operators), a slot whose `acc` stays
/// at or below `threshold = tolerance·ε/(w⁺+w⁻)` is certified to sit
/// within `tolerance·ε` of what re-evaluating it would produce — so the
/// scheduler may skip it. Accumulators are **reset only on evaluation**;
/// at termination `max(acc)` therefore certifies the whole run:
///
/// `max |score − exact| ≤ (w⁺+w⁻)·(max(acc) + ε) / (1 − (w⁺+w⁻))`.
///
/// The state survives a run (the engine keeps it) so graph edits can
/// **warm-restart**: carried accumulators stay valid for every slot
/// whose update function and dependencies the edit did not touch.
pub(crate) struct ApproxState {
    /// Skip threshold `τ = tolerance·ε/(w⁺+w⁻)`.
    pub(crate) threshold: f64,
    /// Approximate stopping delta `ε·(1 + tolerance)`: a slot woken by a
    /// threshold crossing jumps by up to `(w⁺+w⁻)·τ = tolerance·ε`, so
    /// under the exact criterion (`Δ < ε`) the run would chase its own
    /// suppression noise — each wake re-raises the delta above ε — all
    /// the way to the iteration cap, evaluating a long trickle tail that
    /// does not improve the certified bound. An iteration whose max delta
    /// sits below the suppression noise floor plus ε is declared
    /// converged; the accumulators certify the result at *any* stopping
    /// point. Reduces to the exact criterion as `tolerance → 0`.
    pub(crate) stop_delta: f64,
    /// Per-slot accumulated incoming-delta bound.
    pub(crate) acc: Vec<f64>,
    /// This-iteration max incoming delta per slot (epoch-stamped).
    pend: Vec<f64>,
    pend_mark: Vec<u64>,
    epoch: u64,
    /// Slots with a pending contribution this iteration.
    touched: Vec<u32>,
}

impl ApproxState {
    /// Fresh state for a cold run of `cfg` (first iteration evaluates
    /// every slot, after which zero accumulators are exact).
    pub(crate) fn cold(n: usize, cfg: &FsimConfig, tolerance: f64) -> Self {
        Self::warm(vec![0.0; n], cfg, tolerance)
    }

    /// State carrying accumulators from a previous run (edit warm
    /// restart). Slots whose update function changed must carry
    /// `f64::INFINITY` *and* sit on the initial worklist.
    ///
    /// The skip threshold is `τ = tolerance·ε/(w⁺+w⁻)`, never negative —
    /// a non-positive ε disables skipping, degrading to the exact delta
    /// schedule.
    pub(crate) fn warm(acc: Vec<f64>, cfg: &FsimConfig, tolerance: f64) -> Self {
        let n = acc.len();
        Self {
            threshold: (tolerance * cfg.epsilon / (cfg.w_out + cfg.w_in)).max(0.0),
            stop_delta: cfg.epsilon * (1.0 + tolerance),
            acc,
            pend: vec![0.0; n],
            pend_mark: vec![0; n],
            epoch: 0,
            touched: Vec::new(),
        }
    }

    /// Starts an iteration's propagation pass.
    pub(crate) fn begin(&mut self) {
        self.epoch += 1;
        self.touched.clear();
    }

    /// Records that dependency of `dep` changed by `delta` this iteration
    /// (kept as a per-slot max).
    #[inline]
    pub(crate) fn bump(&mut self, dep: u32, delta: f64) {
        let d = dep as usize;
        if self.pend_mark[d] != self.epoch {
            self.pend_mark[d] = self.epoch;
            self.pend[d] = delta;
            self.touched.push(dep);
        } else if delta > self.pend[d] {
            self.pend[d] = delta;
        }
    }

    /// Folds the iteration's pending contributions into the accumulators,
    /// invoking `on_cross` for every slot whose accumulator now exceeds
    /// the threshold (each touched slot is reported at most once).
    pub(crate) fn commit(&mut self, mut on_cross: impl FnMut(u32)) {
        for &t in &self.touched {
            let i = t as usize;
            self.acc[i] += self.pend[i];
            if self.acc[i] > self.threshold {
                on_cross(t);
            }
        }
    }

    /// The largest accumulator — the residual term of the certified
    /// error bound at termination.
    pub(crate) fn max_acc(&self) -> f64 {
        self.acc.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// The certified error bound vs an exact run of the same
    /// configuration (see the type docs; `0` when the state never
    /// suppressed anything *and* ε-slack is excluded — callers report
    /// this only for approximate runs).
    pub(crate) fn error_bound(&self, cfg: &FsimConfig) -> f64 {
        let c = cfg.w_out + cfg.w_in;
        c * (self.max_acc() + cfg.epsilon.max(0.0)) / (1.0 - c)
    }
}

/// `FSim⁰(u, v)` (§3.3) for one pair, with the pair's cached label term.
pub(crate) fn init_score(
    cfg: &FsimConfig,
    g1: &Graph,
    g2: &Graph,
    u: NodeId,
    v: NodeId,
    label: f64,
) -> f64 {
    match cfg.init {
        InitScheme::LabelSim => label,
        InitScheme::Identity => {
            if u == v {
                1.0
            } else {
                0.0
            }
        }
        InitScheme::OutDegreeRatio => {
            let (a, b) = (g1.out_degree(u), g2.out_degree(v));
            let (lo, hi) = (a.min(b), a.max(b));
            if hi == 0 {
                1.0
            } else {
                lo as f64 / hi as f64
            }
        }
        InitScheme::Constant(c) => c,
    }
}

/// Writes `FSim⁰` (§3.3) for every maintained pair into `scores`.
/// `label_terms` is the per-slot cache of `L(ℓ1(u), ℓ2(v))`.
pub(crate) fn initialize(
    store: &PairStore,
    cfg: &FsimConfig,
    g1: &Graph,
    g2: &Graph,
    label_terms: &[f64],
    scores: &mut Vec<f64>,
) {
    debug_assert_eq!(label_terms.len(), store.len());
    scores.clear();
    scores.extend(
        store
            .pairs
            .iter()
            .enumerate()
            .map(|(slot, &(u, v))| init_score(cfg, g1, g2, u, v, label_terms[slot])),
    );
}

/// Equation 3 for a single pair, with the (iteration-constant) label term
/// supplied by the caller — from the per-slot cache inside the convergence
/// loops, or computed on the fly for one-off queries.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pair_update_with_label<O: Operator, S: ScoreLookup>(
    g1: &Graph,
    g2: &Graph,
    ctx: &OpCtx<'_>,
    cfg: &FsimConfig,
    op: &O,
    u: NodeId,
    v: NodeId,
    prev: &S,
    scratch: &mut OpScratch,
    label: f64,
) -> f64 {
    if cfg.pin_identical && u == v {
        return 1.0;
    }
    let out = op.term(ctx, g1.out_neighbors(u), g2.out_neighbors(v), prev, scratch);
    let inn = op.term(ctx, g1.in_neighbors(u), g2.in_neighbors(v), prev, scratch);
    let score = cfg.w_out * out + cfg.w_in * inn + cfg.w_label() * label;
    // Scores are mathematically confined to [0, 1]; clamp floating drift.
    score.clamp(0.0, 1.0)
}

/// Equation 3 for a single pair (label term evaluated on the fly — the
/// one-off query path; the convergence loops use the per-slot cache).
#[allow(clippy::too_many_arguments)]
pub(crate) fn pair_update<O: Operator, S: ScoreLookup>(
    g1: &Graph,
    g2: &Graph,
    ctx: &OpCtx<'_>,
    cfg: &FsimConfig,
    op: &O,
    u: NodeId,
    v: NodeId,
    prev: &S,
    scratch: &mut OpScratch,
) -> f64 {
    let label = ctx.label_sim(u, v);
    pair_update_with_label(g1, g2, ctx, cfg, op, u, v, prev, scratch, label)
}

/// `γ` of [`dense_pays`]: the share of the reverse-CSR entries the changed
/// frontier must cover before a dense iteration beats the worklist.
/// Chosen from measurement (`docs/INTERNALS.md` records the crossover):
/// the θ=0.6 and θ=0 simple sessions sit at 0.96–0.97, where the sweep
/// wins by 2–4×; the θ=0.9 bijective session sits at 0.55–0.71, where
/// the two tie.
const DENSE_SHARE: f64 = 0.8;

/// Beamer's edge test (direction-optimizing BFS, SC'12) applied to
/// Equation 3: a dense pass over all `n` slots pays once the previous
/// iteration's changed set `C_{k−1}` reaches at least `γ` of the `entries`
/// reverse dependencies — `frontier_entries = Σ_{c∈C_{k−1}} rdeg(c)` —
/// because its worklist then holds most slots in scattered order, while
/// the dense pass streams them in slot order with no worklist to build.
/// A deterministic function of counts, so thread and shard counts cannot
/// change the choice.
pub(crate) fn dense_pays(n: usize, frontier_entries: usize, entries: usize) -> bool {
    n >= WORKER_FLOOR
        && frontier_entries > 0
        && frontier_entries as f64 >= DENSE_SHARE * entries as f64
}

/// The reverse dependency CSR: the slots whose update reads slot `c` are
/// `deps[offsets[c]..offsets[c + 1]]` (duplicates allowed — the
/// drivers' epoch marks deduplicate).
#[derive(Clone, Copy)]
pub(crate) struct Rdeps<'a> {
    pub(crate) offsets: &'a [usize],
    pub(crate) deps: &'a [u32],
}

impl<'a> Rdeps<'a> {
    /// The dependents of slot `c`.
    #[inline]
    pub(crate) fn of(&self, c: u32) -> &'a [u32] {
        &self.deps[self.offsets[c as usize]..self.offsets[c as usize + 1]]
    }

    /// `Σ rdeg(c)` over `frontier` — `O(|frontier|)` offset reads.
    fn entries_of(&self, frontier: &[u32]) -> usize {
        frontier
            .iter()
            .map(|&c| self.offsets[c as usize + 1] - self.offsets[c as usize])
            .sum()
    }
}

/// Which slots each iteration of a [`converge`] run evaluates.
#[derive(Clone, Copy)]
pub(crate) enum Schedule<'a> {
    /// Every slot, every iteration (Algorithm 1 as written).
    Sweep,
    /// After the first iteration, only the dirty worklist `D_k`: the
    /// dependents of the slots whose bits changed in iteration `k−1`.
    Worklist(Rdeps<'a>),
    /// Per iteration, whichever of the two [`dense_pays`] picks.
    Auto(Rdeps<'a>),
}

/// Iterates Equation 3 to convergence (Algorithm 1 lines 2–7): the one
/// driver behind the sweep, the dirty worklist, `Auto`'s per-iteration
/// choice and the ε-aware approximate schedule.
///
/// `prev` holds `FSim⁰` (or, warm-started, a carried iterate) on entry
/// and the final scores on exit; `cur` is the reusable double buffer.
/// `update` maps `(slot, prev_scores, scratch) → new score` and must be a
/// pure function of its inputs. Each iteration runs as one job on the
/// session's [`Runtime`], or inline without one (see
/// [`dispatch`](super::parallel::dispatch)).
///
/// Every iteration evaluates either **every slot** (dense) or the
/// **worklist** `D_k`. Iteration 1 is dense unless `initial_worklist`
/// warm-starts the run (slots outside it keep their incoming scores).
/// Skipping a clean slot is exact: a slot outside `D_k` had no input
/// change since it was last evaluated, so re-evaluating it reproduces its
/// bits — which is why the exact schedules, and `Auto`'s switching between
/// them, are bitwise identical. `approx` (only with
/// [`Schedule::Worklist`]) switches on ε-aware scheduling: the next
/// worklist holds only dependents whose accumulated incoming-delta bound
/// crossed the [`ApproxState`] threshold — no longer bitwise; the state's
/// final accumulators certify the error.
///
/// `record` receives the initial buffer and every iterate. Each
/// `iter_seconds` entry covers its whole iteration: the schedule choice,
/// the worklist build, the evaluation, recording and the approximate
/// accounting.
#[allow(clippy::too_many_arguments)]
pub(crate) fn converge<U>(
    rt: Option<&Runtime>,
    schedule: Schedule<'_>,
    max_iters: usize,
    epsilon: f64,
    prev: &mut Vec<f64>,
    cur: &mut Vec<f64>,
    mut record: Option<&mut Recorder<'_>>,
    initial_worklist: Option<Vec<u32>>,
    mut approx: Option<&mut ApproxState>,
    update: U,
) -> IterationOutcome
where
    U: Fn(usize, &[f64], &mut OpScratch) -> f64 + Sync,
{
    let n = prev.len();
    let rdeps = match schedule {
        Schedule::Sweep => None,
        Schedule::Worklist(r) | Schedule::Auto(r) => Some(r),
    };
    debug_assert!(approx.is_none() || matches!(schedule, Schedule::Worklist(_)));
    if let Some(h) = record.as_deref_mut() {
        h.push(prev);
    }
    let mut dense = initial_worklist.is_none();
    // Warm start: slots outside the worklist must read through the double
    // buffer as-is.
    match &initial_worklist {
        Some(_) => cur.clone_from(prev),
        None => {
            cur.clear();
            cur.resize(n, 0.0);
        }
    }
    // D_k, when the iteration is not dense.
    let mut worklist: Vec<u32> = initial_worklist.unwrap_or_default();
    // C_{k−1}: slots whose score changed last iteration (tracked only
    // when a schedule reads it).
    let track = rdeps.is_some();
    let mut changed: Vec<u32> = Vec::new();
    // Worklist-membership marks: mark[s] == epoch ⇔ s ∈ current D_k.
    let mut mark: Vec<u64> = vec![0; if track { n } else { 0 }];
    let mut epoch = 0u64;
    let mut local = WorkerState::new();
    let threads = rt.map_or(1, Runtime::threads);
    let buffers = [SharedScores::new(prev), SharedScores::new(cur)];
    let cursor = AtomicUsize::new(0);
    let deltas: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let changed_sink: Mutex<Vec<u32>> = Mutex::new(Vec::new());

    let mut out = IterationOutcome::empty();
    let mut read = 0usize;
    while out.iterations < max_iters {
        let t0 = Instant::now();
        if out.iterations > 0 {
            dense = match (schedule, approx.is_some()) {
                (Schedule::Sweep, _) => true,
                (Schedule::Auto(r), false) => dense_pays(n, r.entries_of(&changed), r.deps.len()),
                _ => false,
            };
            // The approximate schedule built D_k at the end of the last
            // iteration; the exact worklist is the dependents of C_{k−1}.
            if let (false, None, Some(r)) = (dense, approx.as_ref(), rdeps) {
                epoch += 1;
                worklist.clear();
                for &c in &changed {
                    for &dep in r.of(c) {
                        if mark[dep as usize] != epoch {
                            mark[dep as usize] = epoch;
                            worklist.push(dep);
                        }
                    }
                }
            }
        }
        if !dense {
            // Repair C_{k−1} \ D_k: a slot that changed last iteration but
            // is not re-evaluated now still holds its two-iterations-old
            // value in the write buffer; copy the current value forward.
            // SAFETY: no dispatch is in flight; the coordinator has
            // exclusive access to both buffers.
            let read_buf = unsafe { buffers[read].as_read_slice() };
            for &s in &changed {
                if mark[s as usize] != epoch {
                    // SAFETY: same window, and `changed` slots are
                    // distinct, so this is the sole writer of `s`.
                    unsafe { buffers[1 - read].write(s as usize, read_buf[s as usize]) };
                }
            }
        }
        let len = if dense { n } else { worklist.len() };
        let chunk = chunk_size(len, threads);
        let wl = &worklist;
        cursor.store(0, Ordering::Relaxed);
        dispatch(rt, &mut local, &|wid, ws| {
            // SAFETY: this iteration only reads `buffers[read]` and writes
            // disjoint slots of `buffers[1 - read]` (the coordinator wrote
            // only non-worklist slots, before the dispatch).
            let read_buf = unsafe { buffers[read].as_read_slice() };
            let write = &buffers[1 - read];
            let mut local_delta = 0.0f64;
            let WorkerState { scratch, changed } = ws;
            changed.clear();
            let mut eval = |id: u32| {
                let slot = id as usize;
                let score = update(slot, read_buf, scratch);
                let d = (score - read_buf[slot]).abs();
                if d > local_delta {
                    local_delta = d;
                }
                if track && score.to_bits() != read_buf[slot].to_bits() {
                    changed.push(id);
                }
                // SAFETY: the cursor hands out disjoint ranges.
                unsafe { write.write(slot, score) };
            };
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= len {
                    break;
                }
                let end = (start + chunk).min(len);
                if dense {
                    let id = |i: usize| u32::try_from(i).expect("slot ids fit in u32");
                    (id(start)..id(end)).for_each(&mut eval);
                } else {
                    wl[start..end].iter().for_each(|&s| eval(s));
                }
            }
            deltas[wid].store(local_delta.to_bits(), Ordering::Relaxed);
            if !changed.is_empty() {
                changed_sink
                    .lock()
                    .expect("changed sink")
                    .extend_from_slice(changed);
            }
        });
        out.final_delta = deltas
            .iter()
            .map(|d| f64::from_bits(d.load(Ordering::Relaxed)))
            .fold(0.0, f64::max);
        out.pairs_evaluated.push(len);
        out.iterations += 1;
        read = 1 - read;
        changed.clear();
        std::mem::swap(
            &mut changed,
            &mut *changed_sink.lock().expect("changed sink"),
        );
        if let Some(h) = record.as_deref_mut() {
            // SAFETY: no dispatch is in flight; the written buffer is
            // stable.
            h.push(unsafe { buffers[read].as_read_slice() });
        }
        if let (Some(ap), Some(r)) = (approx.as_deref_mut(), rdeps) {
            // Evaluated slots are exact w.r.t. the iterate they read;
            // reset their drift *before* folding in this iteration's
            // changes (which postdate the reads), then gate the next
            // worklist on the threshold. Runs even on the converging
            // iteration so the final accumulators certify the returned
            // scores. Per-slot max folds are order-independent, so the
            // worker count cannot change the schedule.
            if dense {
                ap.acc.fill(0.0);
            } else {
                for &s in &worklist {
                    ap.acc[s as usize] = 0.0;
                }
            }
            // SAFETY: no dispatch is in flight; both buffers are stable.
            let (new_buf, old_buf) = unsafe {
                (
                    buffers[read].as_read_slice(),
                    buffers[1 - read].as_read_slice(),
                )
            };
            ap.begin();
            for &c in &changed {
                let d = (new_buf[c as usize] - old_buf[c as usize]).abs();
                for &dep in r.of(c) {
                    ap.bump(dep, d);
                }
            }
            epoch += 1;
            worklist.clear();
            ap.commit(|t| {
                if mark[t as usize] != epoch {
                    mark[t as usize] = epoch;
                    worklist.push(t);
                }
            });
        }
        out.iter_seconds.push(t0.elapsed().as_secs_f64());
        let stop = approx.as_deref().map_or(epsilon, |ap| ap.stop_delta);
        if out.final_delta < stop {
            out.converged = true;
            break;
        }
    }

    // The last-written buffer alternates; normalize so `prev` holds the
    // final scores.
    if out.iterations % 2 == 1 {
        std::mem::swap(prev, cur);
    }
    out
}

/// Iterates Equation 3 by full sweep **without** a dependency CSR: each
/// evaluation enumerates neighbors on the fly and looks scores up through
/// the store (the path of operators without a slot-based evaluation, and
/// of stores whose CSR does not fit the budget under `ShardSpec::Off`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_to_convergence<O: Operator>(
    g1: &Graph,
    g2: &Graph,
    ctx: &OpCtx<'_>,
    cfg: &FsimConfig,
    op: &O,
    store: &PairStore,
    label_terms: &[f64],
    scores: &mut Vec<f64>,
    cur: &mut Vec<f64>,
    rt: Option<&Runtime>,
) -> IterationOutcome {
    debug_assert_eq!(scores.len(), store.len());
    converge(
        rt,
        Schedule::Sweep,
        cfg.effective_max_iters(),
        cfg.epsilon,
        scores,
        cur,
        None,
        None,
        None,
        |slot: usize, prev: &[f64], scratch: &mut OpScratch| {
            let (u, v) = store.pairs[slot];
            let view = store.view(prev);
            pair_update_with_label(
                g1,
                g2,
                ctx,
                cfg,
                op,
                u,
                v,
                &view,
                scratch,
                label_terms[slot],
            )
        },
    )
}

/// **Trajectory replay**: converges on an *edited* graph by replaying the
/// previous run's iterate history, bitwise identical to a cold run on the
/// edited graph while re-evaluating only the slots the edit can reach.
///
/// Invariant: at the end of replay iteration `k`, the score buffer equals
/// iterate `k` of a cold run on the edited graph. A slot is copied from
/// `old_traj[k]` — the matching iterate of the *pre-edit* run — whenever
/// (a) its dependency structure and label term survived the edit
/// (`s ∉ always_dirty`) and (b) none of its inputs diverged from the old
/// trajectory at `k − 1`; the Jacobi update is a pure function of those
/// inputs, so the copied value is exactly what re-evaluation would
/// produce. Divergence is tracked against the old trajectory (not between
/// consecutive iterates), and the next worklist is the dependents of the
/// diverged slots plus `always_dirty`.
///
/// When the old trajectory is exhausted before `Δ < ε` (the edited system
/// needs more iterations than the previous run), the loop degrades to the
/// standard dirty-worklist iteration of [`converge`], seeded from the
/// last two iterates.
///
/// `scores` holds the edited run's `FSim⁰` on entry; `record` receives
/// the edited run's full trajectory (enabling the *next* edit batch to
/// replay again), budget-gated like any other run's recording.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_replay<O: Operator>(
    cfg: &FsimConfig,
    op: &O,
    store: &PairStore,
    csr: &PairDepCsr,
    label_terms: &[f64],
    old_traj: &[Vec<f64>],
    always_dirty: &[u32],
    scores: &mut Vec<f64>,
    cur: &mut Vec<f64>,
    mut record: Option<&mut Recorder<'_>>,
) -> IterationOutcome {
    let n = store.len();
    debug_assert_eq!(scores.len(), n);
    debug_assert!(old_traj.len() >= 2, "replay needs at least one iterate");
    debug_assert!(old_traj.iter().all(|it| it.len() == n));
    cur.clear();
    cur.resize(n, 0.0);
    let max_iters = cfg.effective_max_iters();
    let (r, fwd) = (csr.reverse(), csr.forward());
    let mut scratch = OpScratch::new();
    let mut iterations = 0usize;
    let mut converged = false;
    let mut final_delta = f64::INFINITY;
    let mut pairs_evaluated = Vec::new();
    let mut iter_seconds = Vec::new();
    if let Some(h) = record.as_deref_mut() {
        h.push(scores);
    }

    let mut mark: Vec<u64> = vec![0; n];
    let mut epoch = 1u64;
    let mut worklist: Vec<u32> = Vec::new();
    let seed = |worklist: &mut Vec<u32>, mark: &mut Vec<u64>, epoch: u64| {
        for &s in always_dirty {
            if mark[s as usize] != epoch {
                mark[s as usize] = epoch;
                worklist.push(s);
            }
        }
    };
    // W_1: dependents of every slot whose FSim⁰ diverged, plus the
    // structurally dirty slots.
    seed(&mut worklist, &mut mark, epoch);
    for s in 0..n {
        if scores[s].to_bits() != old_traj[0][s].to_bits() {
            for &dep in r.of(s as u32) {
                if mark[dep as usize] != epoch {
                    mark[dep as usize] = epoch;
                    worklist.push(dep);
                }
            }
        }
    }

    // Phase A: replay along the recorded trajectory.
    let hist_iters = old_traj.len() - 1;
    let mut changed: Vec<u32> = Vec::new();
    let mut k = 1usize;
    while iterations < max_iters && k <= hist_iters {
        let t0 = Instant::now();
        let hist = &old_traj[k];
        cur.copy_from_slice(hist);
        for &slot_id in &worklist {
            let slot = slot_id as usize;
            cur[slot] = fwd.eval_slot(
                cfg,
                op,
                store,
                slot,
                scores,
                &mut scratch,
                label_terms[slot],
            );
        }
        pairs_evaluated.push(worklist.len());
        let mut delta = 0.0f64;
        changed.clear();
        for s in 0..n {
            let d = (cur[s] - scores[s]).abs();
            if d > delta {
                delta = d;
            }
            if cur[s].to_bits() != hist[s].to_bits() {
                changed.push(s as u32);
            }
        }
        std::mem::swap(scores, cur);
        if let Some(h) = record.as_deref_mut() {
            h.push(scores);
        }
        final_delta = delta;
        iterations += 1;
        k += 1;
        iter_seconds.push(t0.elapsed().as_secs_f64());
        if delta < cfg.epsilon {
            converged = true;
            break;
        }
        epoch += 1;
        worklist.clear();
        seed(&mut worklist, &mut mark, epoch);
        for &c in &changed {
            for &dep in r.of(c) {
                if mark[dep as usize] != epoch {
                    mark[dep as usize] = epoch;
                    worklist.push(dep);
                }
            }
        }
    }

    // Phase B: history exhausted — continue with the standard dirty
    // worklist (structure is now self-consistent; no always-dirty seed).
    if !converged && iterations < max_iters {
        changed.clear();
        for s in 0..n {
            if scores[s].to_bits() != cur[s].to_bits() {
                changed.push(s as u32);
            }
        }
        epoch += 1;
        worklist.clear();
        for &c in &changed {
            for &dep in r.of(c) {
                if mark[dep as usize] != epoch {
                    mark[dep as usize] = epoch;
                    worklist.push(dep);
                }
            }
        }
        while iterations < max_iters {
            let t0 = Instant::now();
            for &s in &changed {
                if mark[s as usize] != epoch {
                    cur[s as usize] = scores[s as usize];
                }
            }
            changed.clear();
            let mut delta = 0.0f64;
            for &slot_id in &worklist {
                let slot = slot_id as usize;
                let s = fwd.eval_slot(
                    cfg,
                    op,
                    store,
                    slot,
                    scores,
                    &mut scratch,
                    label_terms[slot],
                );
                let d = (s - scores[slot]).abs();
                if d > delta {
                    delta = d;
                }
                if s.to_bits() != scores[slot].to_bits() {
                    changed.push(slot_id);
                }
                cur[slot] = s;
            }
            pairs_evaluated.push(worklist.len());
            std::mem::swap(scores, cur);
            if let Some(h) = record.as_deref_mut() {
                h.push(scores);
            }
            final_delta = delta;
            iterations += 1;
            iter_seconds.push(t0.elapsed().as_secs_f64());
            if delta < cfg.epsilon {
                converged = true;
                break;
            }
            epoch += 1;
            worklist.clear();
            for &c in &changed {
                for &dep in r.of(c) {
                    if mark[dep as usize] != epoch {
                        mark[dep as usize] = epoch;
                        worklist.push(dep);
                    }
                }
            }
        }
    }
    IterationOutcome {
        iterations,
        converged,
        final_delta,
        pairs_evaluated,
        iter_seconds,
    }
}
