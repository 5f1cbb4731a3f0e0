//! The persistent parallel runtime of §3.4.
//!
//! The seed implementation spawned a fresh `crossbeam::scope` with a
//! `Mutex<Vec>` work queue on **every iteration** of Algorithm 1, and its
//! first replacement still spawned a `std::thread::scope` pool on every
//! *run* — four separate spawn sites across the sweep, delta, replay and
//! shard drivers. This module replaces all of them with a single
//! [`Runtime`]: a worker pool spawned **once per engine session** (the
//! only `thread::spawn` call in the crate — `tests/spawn_sites.rs` pins
//! that). Workers park on a condition variable between dispatches and
//! live until the engine is dropped, so per-worker state — the
//! [`OpScratch`] buffers and the dirty-set staging vector in
//! [`WorkerState`] — survives across iterations, runs, reruns and shard
//! visits instead of being reallocated per run.
//!
//! The iteration drivers (the convergence driver in
//! [`super::iterate`], the sharded driver and the parallel replay below)
//! are plain sequential coordinators that dispatch one job per iteration
//! (the first two through [`dispatch`], which runs the job inline when
//! the session has no pool): workers pull disjoint slot ranges via a
//! lock-free atomic cursor (chunk
//! size scaled to the worklist length by [`chunk_size`]), and
//! [`Runtime::run`] blocks until every worker has finished, which both
//! publishes the workers' writes and keeps the borrows captured by the
//! job alive for exactly as long as they are used.
//!
//! The bitwise sequential ≡ parallel guarantee is preserved: each slot's
//! new score is a pure function of the previous iteration's buffer (which
//! no worker writes), the cursor hands out disjoint write ranges, and the
//! convergence metric is an order-independent max-reduction.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use super::iterate::Rdeps;
use crate::operators::OpScratch;

/// What a (sequential or parallel) run of the iteration loop reports.
#[derive(Debug, Clone)]
pub(crate) struct IterationOutcome {
    /// Iterations executed.
    pub iterations: usize,
    /// Whether `Δ < ε` was reached before the cap.
    pub converged: bool,
    /// The final `Δ = max |FSim^k − FSim^{k−1}|` (∞ if no iteration ran).
    pub final_delta: f64,
    /// Pairs re-evaluated per iteration (`|H|` for a dense iteration;
    /// the dirty-worklist length otherwise).
    pub pairs_evaluated: Vec<usize>,
    /// Wall-clock seconds per iteration, aligned with `pairs_evaluated`
    /// (the per-iteration pairs-per-second metric is their ratio).
    pub iter_seconds: Vec<f64>,
}

impl IterationOutcome {
    /// An outcome for a run that executed no iterations.
    pub(crate) fn empty() -> Self {
        Self {
            iterations: 0,
            converged: false,
            final_delta: f64::INFINITY,
            pairs_evaluated: Vec::new(),
            iter_seconds: Vec::new(),
        }
    }
}

/// The cursor chunk for a worklist of `len` slots split over `threads`
/// workers: each pull should own enough pairs to amortize the atomic, but
/// stay fine-grained enough to balance skewed per-pair costs. Scales with
/// the worklist instead of a fixed constant so the late, short iterations
/// of a delta run are not handed out in one oversized piece (the
/// before/after numbers are recorded in `docs/BENCHMARKS.md`).
pub(crate) fn chunk_size(len: usize, threads: usize) -> usize {
    (len / (threads.max(1) * 8)).max(64)
}

/// Live worker threads across all [`Runtime`]s in the process. Spawn
/// increments before the worker parks, exit decrements after shutdown;
/// [`Runtime`]'s `Drop` joins its workers, so after an engine drop the
/// counter observably returns to its prior value
/// (`tests/runtime_shutdown.rs`).
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// The number of parked-or-running runtime worker threads currently alive
/// in the process (diagnostic; see [`FsimEngine`](crate::FsimEngine) for
/// the runtime's lifecycle).
pub fn live_runtime_workers() -> usize {
    LIVE_WORKERS.load(Ordering::SeqCst)
}

/// State a worker owns for its whole lifetime — created when the
/// [`Runtime`] spawns it and reused across every iteration, run and shard
/// visit the session dispatches.
pub(crate) struct WorkerState {
    /// Operator scratch buffers (matcher state, gather values, …).
    pub scratch: OpScratch,
    /// Staging buffer for the slots this worker changed in the current
    /// iteration (drained into the coordinator's sink once per dispatch).
    pub changed: Vec<u32>,
}

impl WorkerState {
    pub(crate) fn new() -> Self {
        Self {
            scratch: OpScratch::new(),
            changed: Vec::new(),
        }
    }
}

/// A job dispatched to the pool: invoked once per worker with the
/// worker's index and its persistent state.
pub(crate) type Job<'a> = dyn Fn(usize, &mut WorkerState) + Sync + 'a;

/// Type-erased pointer to the current dispatch's job. The coordinator
/// blocks in [`Runtime::run`] until every worker has finished, so the
/// pointee outlives every dereference despite the `'static` cast.
#[derive(Clone, Copy)]
struct JobPtr(*const Job<'static>);

// SAFETY: the pointer is only dereferenced by workers while the
// dispatching thread is blocked keeping the pointee alive (see
// `Runtime::run`).
unsafe impl Send for JobPtr {}

/// Dispatch gate shared between the coordinator and the workers.
struct Gate {
    /// Bumped once per dispatch; a worker runs the job iff it has not
    /// seen the current generation yet.
    generation: u64,
    /// The current dispatch's job (valid while `running > 0`).
    job: Option<JobPtr>,
    /// Workers still executing the current generation.
    running: usize,
    /// First panic payload out of the current generation's workers.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Set once by `Drop`; workers exit at the next wake-up.
    shutdown: bool,
}

struct Shared {
    gate: Mutex<Gate>,
    /// Workers park here between dispatches.
    go: Condvar,
    /// The coordinator parks here until `running` returns to zero.
    done: Condvar,
}

/// The session-persistent worker pool. Spawned once (lazily, at the first
/// parallel run) and owned by the engine; the configured thread count is
/// a session property — reconfiguring it replaces the runtime.
pub(crate) struct Runtime {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Runtime {
    /// Spawns `threads` parked workers (the crate's only spawn site).
    pub(crate) fn new(threads: usize) -> Self {
        assert!(threads >= 2, "a runtime below two workers is pointless");
        let shared = Arc::new(Shared {
            gate: Mutex::new(Gate {
                generation: 0,
                job: None,
                running: 0,
                panic: None,
                shutdown: false,
            }),
            go: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|wid| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared, wid))
            })
            .collect();
        Self { shared, handles }
    }

    /// The pool's worker count.
    pub(crate) fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Runs `job` once on every worker and blocks until all of them have
    /// finished. The blocking is what makes the borrow-erasure sound: the
    /// job (and everything it captures) outlives every worker's use of
    /// it. A panic inside any worker is re-raised here after the
    /// remaining workers finish the dispatch.
    pub(crate) fn run(&self, job: &Job<'_>) {
        // SAFETY (cast): fat-pointer lifetime erasure only; the pointee
        // is kept alive by this frame until `running == 0` below.
        let ptr =
            JobPtr(unsafe { std::mem::transmute::<*const Job<'_>, *const Job<'static>>(job) });
        {
            let mut g = self.shared.gate.lock().expect("runtime gate");
            debug_assert_eq!(g.running, 0, "overlapping dispatch");
            g.generation += 1;
            g.job = Some(ptr);
            g.running = self.handles.len();
        }
        self.shared.go.notify_all();
        let mut g = self.shared.gate.lock().expect("runtime gate");
        while g.running > 0 {
            g = self.shared.done.wait(g).expect("runtime gate");
        }
        g.job = None;
        if let Some(payload) = g.panic.take() {
            drop(g);
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        {
            let mut g = self.shared.gate.lock().expect("runtime gate");
            g.shutdown = true;
        }
        self.shared.go.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, wid: usize) {
    LIVE_WORKERS.fetch_add(1, Ordering::SeqCst);
    let mut state = WorkerState::new();
    let mut seen = 0u64;
    loop {
        let job = {
            let mut g = shared.gate.lock().expect("runtime gate");
            loop {
                if g.shutdown {
                    drop(g);
                    LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
                if g.generation != seen {
                    seen = g.generation;
                    break g.job.expect("job set for generation");
                }
                g = shared.go.wait(g).expect("runtime gate");
            }
        };
        // SAFETY: the dispatching thread blocks in `Runtime::run` until
        // `running` returns to zero, keeping the pointee alive.
        let job_ref: &Job<'static> = unsafe { &*job.0 };
        // A panicking job must still complete the dispatch or the
        // coordinator deadlocks; the payload is carried back and
        // re-raised there.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job_ref(wid, &mut state)));
        let mut g = shared.gate.lock().expect("runtime gate");
        if let Err(payload) = result {
            if g.panic.is_none() {
                g.panic = Some(payload);
            }
        }
        g.running -= 1;
        if g.running == 0 {
            shared.done.notify_all();
        }
    }
}

/// A score buffer shared with the worker pool.
///
/// Workers read the *previous* buffer (never written during an iteration)
/// and write disjoint slot ranges of the *current* buffer, so no location
/// is ever accessed mutably by two parties. `UnsafeCell` expresses exactly
/// that hand-verified aliasing discipline; the dispatch gate's mutex at
/// each iteration boundary publishes the writes.
pub(crate) struct SharedScores<'a> {
    cells: &'a [UnsafeCell<f64>],
}

// SAFETY: all concurrent access follows the disjoint-range discipline
// documented above; `f64` needs no drop or validity bookkeeping.
unsafe impl Sync for SharedScores<'_> {}

impl<'a> SharedScores<'a> {
    pub(crate) fn new(buf: &'a mut [f64]) -> Self {
        let ptr = buf as *mut [f64] as *const [UnsafeCell<f64>];
        // SAFETY: `UnsafeCell<f64>` is `repr(transparent)` over `f64`, and
        // we hold the unique `&mut` borrow for `'a`.
        Self {
            cells: unsafe { &*ptr },
        }
    }

    /// The buffer as a plain slice.
    ///
    /// # Safety
    /// Caller must guarantee no concurrent writes for the borrow's
    /// lifetime (true for the read buffer within one iteration).
    pub(crate) unsafe fn as_read_slice(&self) -> &[f64] {
        std::slice::from_raw_parts(self.cells.as_ptr() as *const f64, self.cells.len())
    }

    /// Writes one slot.
    ///
    /// # Safety
    /// Caller must be the only writer of `slot` this iteration.
    #[inline]
    pub(crate) unsafe fn write(&self, slot: usize, value: f64) {
        *self.cells[slot].get() = value;
    }

    /// Overwrites the whole buffer from `src`.
    ///
    /// # Safety
    /// Caller must guarantee no concurrent access at all (true for the
    /// coordinator between dispatches).
    unsafe fn copy_from(&self, src: &[f64]) {
        debug_assert_eq!(src.len(), self.cells.len());
        let dst = std::slice::from_raw_parts_mut(self.cells.as_ptr() as *mut f64, self.cells.len());
        dst.copy_from_slice(src);
    }
}

/// Runs `job` once per worker on the session's [`Runtime`], or — when
/// there is none — once inline on the calling thread as worker 0 with
/// `local` as its state. The drivers hand both paths the same job, so the
/// worker count cannot change a bit of the outcome.
pub(crate) fn dispatch(rt: Option<&Runtime>, local: &mut WorkerState, job: &Job<'_>) {
    match rt {
        Some(rt) => rt.run(job),
        None => job(0, local),
    }
}

/// Evaluates an explicit worklist against a read-only previous-iteration
/// buffer, writing `out[i]` for `worklist[i]`, on the pool or inline (see
/// [`dispatch`]). Used by the sharded driver ([`super::shards`]): each
/// slot's value is a pure function of `prev` (Jacobi) and the caller folds
/// the results back in worklist order, so the outcome is bitwise
/// identical regardless of the worker count.
pub(crate) fn eval_worklist<U>(
    rt: Option<&Runtime>,
    local: &mut WorkerState,
    worklist: &[u32],
    prev: &[f64],
    out: &mut [f64],
    update: U,
) where
    U: Fn(usize, &[f64], &mut OpScratch) -> f64 + Sync,
{
    debug_assert_eq!(worklist.len(), out.len());
    let n = worklist.len();
    let chunk = chunk_size(n, rt.map_or(1, Runtime::threads));
    let shared_out = SharedScores::new(out);
    let cursor = AtomicUsize::new(0);
    dispatch(rt, local, &|_wid, ws| loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + chunk).min(n);
        for (i, &slot) in worklist.iter().enumerate().take(end).skip(start) {
            let v = update(slot as usize, prev, &mut ws.scratch);
            // SAFETY: cursor ranges are disjoint across workers.
            unsafe { shared_out.write(i, v) };
        }
    });
}

/// Parallel **trajectory replay** (see
/// [`run_replay`](super::iterate::run_replay) for the algorithm and the
/// bitwise-identity argument). The worker pool evaluates the per-iteration
/// worklists; the coordinator pre-fills each iteration's write buffer from
/// the recorded trajectory before the dispatch, then scans the completed
/// buffer for the convergence delta and the divergence set between
/// dispatches.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_parallel_replay<U>(
    rt: &Runtime,
    max_iters: usize,
    epsilon: f64,
    old_traj: &[Vec<f64>],
    always_dirty: &[u32],
    rdeps: Rdeps<'_>,
    prev: &mut Vec<f64>,
    cur: &mut Vec<f64>,
    mut record: Option<&mut super::iterate::Recorder<'_>>,
    update: U,
) -> IterationOutcome
where
    U: Fn(usize, &[f64], &mut OpScratch) -> f64 + Sync,
{
    let n = prev.len();
    debug_assert_eq!(n, cur.len());
    debug_assert!(old_traj.len() >= 2, "replay needs at least one iterate");
    if let Some(h) = record.as_deref_mut() {
        h.push(prev);
    }

    let mut mark: Vec<u64> = vec![0; n];
    let mut epoch = 1u64;
    let mut worklist: Vec<u32> = Vec::new();
    for &s in always_dirty {
        if mark[s as usize] != epoch {
            mark[s as usize] = epoch;
            worklist.push(s);
        }
    }
    for s in 0..n {
        if prev[s].to_bits() != old_traj[0][s].to_bits() {
            for &dep in rdeps.of(s as u32) {
                if mark[dep as usize] != epoch {
                    mark[dep as usize] = epoch;
                    worklist.push(dep);
                }
            }
        }
    }

    let buffers = [SharedScores::new(prev), SharedScores::new(cur)];
    let cursor = AtomicUsize::new(0);
    let deltas: Vec<AtomicU64> = (0..rt.threads()).map(|_| AtomicU64::new(0)).collect();
    let changed_sink: Mutex<Vec<u32>> = Mutex::new(Vec::new());

    // One dispatch: evaluate the current worklist against `buffers[read]`,
    // writing into `buffers[1 - read]`.
    let eval_worklist = |read: usize, wl: &[u32]| {
        cursor.store(0, Ordering::Relaxed);
        let chunk = chunk_size(wl.len(), rt.threads());
        rt.run(&|wid, ws| {
            // SAFETY: this iteration only reads `buffers[read]` and
            // writes disjoint worklist slots of `buffers[1 - read]`.
            let read_buf = unsafe { buffers[read].as_read_slice() };
            let write = &buffers[1 - read];
            let mut local_delta = 0.0f64;
            ws.changed.clear();
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= wl.len() {
                    break;
                }
                let end = (start + chunk).min(wl.len());
                for &slot_id in &wl[start..end] {
                    let slot = slot_id as usize;
                    let score = update(slot, read_buf, &mut ws.scratch);
                    let d = (score - read_buf[slot]).abs();
                    if d > local_delta {
                        local_delta = d;
                    }
                    if score.to_bits() != read_buf[slot].to_bits() {
                        ws.changed.push(slot_id);
                    }
                    // SAFETY: worklist slots are handed out disjointly by
                    // the cursor.
                    unsafe { write.write(slot, score) };
                }
            }
            deltas[wid].store(local_delta.to_bits(), Ordering::Relaxed);
            if !ws.changed.is_empty() {
                changed_sink
                    .lock()
                    .expect("changed sink")
                    .extend_from_slice(&ws.changed);
            }
        });
    };

    let mut out = IterationOutcome::empty();
    let mut read = 0usize;
    let hist_iters = old_traj.len() - 1;
    let mut changed: Vec<u32> = Vec::new();

    // Phase A: replay along the recorded trajectory. The coordinator
    // pre-fills the write buffer from history between dispatches; worker
    // writes of worklist slots land on top.
    let mut k = 1usize;
    while out.iterations < max_iters && k <= hist_iters {
        let t0 = Instant::now();
        let hist = &old_traj[k];
        // SAFETY: no dispatch is in flight.
        unsafe { buffers[1 - read].copy_from(hist) };
        let wl_len = worklist.len();
        eval_worklist(read, &worklist);
        out.pairs_evaluated.push(wl_len);
        // Full scan between dispatches: the convergence delta over all
        // slots, and divergence from the old trajectory for worklist
        // propagation. Worker-local deltas and changed sets are ignored
        // in this phase (they compare against the previous iterate, not
        // the trajectory).
        changed_sink.lock().expect("changed sink").clear();
        // SAFETY: no dispatch is in flight; both buffers are stable.
        let prev_buf = unsafe { buffers[read].as_read_slice() };
        // SAFETY: as above — both reads share the quiescent window.
        let cur_buf = unsafe { buffers[1 - read].as_read_slice() };
        let mut delta = 0.0f64;
        changed.clear();
        for s in 0..n {
            let d = (cur_buf[s] - prev_buf[s]).abs();
            if d > delta {
                delta = d;
            }
            if cur_buf[s].to_bits() != hist[s].to_bits() {
                changed.push(s as u32);
            }
        }
        if let Some(h) = record.as_deref_mut() {
            h.push(cur_buf);
        }
        out.final_delta = delta;
        out.iter_seconds.push(t0.elapsed().as_secs_f64());
        out.iterations += 1;
        k += 1;
        read = 1 - read;
        if delta < epsilon {
            out.converged = true;
            break;
        }
        epoch += 1;
        worklist.clear();
        for &s in always_dirty {
            if mark[s as usize] != epoch {
                mark[s as usize] = epoch;
                worklist.push(s);
            }
        }
        for &c in &changed {
            for &dep in rdeps.of(c) {
                if mark[dep as usize] != epoch {
                    mark[dep as usize] = epoch;
                    worklist.push(dep);
                }
            }
        }
    }

    // Phase B: history exhausted — standard dirty-worklist iteration
    // (the mechanics of `converge`), seeded from the last
    // two iterates.
    if !out.converged && out.iterations < max_iters {
        // SAFETY: no dispatch is in flight; both buffers are stable.
        let prev_buf = unsafe { buffers[1 - read].as_read_slice() };
        // SAFETY: as above — both reads share the quiescent window.
        let cur_buf = unsafe { buffers[read].as_read_slice() };
        let mut prev_changed: Vec<u32> = Vec::new();
        for s in 0..n {
            if cur_buf[s].to_bits() != prev_buf[s].to_bits() {
                prev_changed.push(s as u32);
            }
        }
        epoch += 1;
        worklist.clear();
        for &c in &prev_changed {
            for &dep in rdeps.of(c) {
                if mark[dep as usize] != epoch {
                    mark[dep as usize] = epoch;
                    worklist.push(dep);
                }
            }
        }
        changed_sink.lock().expect("changed sink").clear();
        while out.iterations < max_iters {
            let t0 = Instant::now();
            {
                // Repair C_{k−1} \ D_k before the dispatch (disjoint
                // slots — see `converge`).
                // SAFETY: no dispatch is in flight.
                let read_buf = unsafe { buffers[read].as_read_slice() };
                let write = &buffers[1 - read];
                for &s in &prev_changed {
                    if mark[s as usize] != epoch {
                        // SAFETY: same window — no dispatch in flight,
                        // and `prev_changed` slots are distinct, so this
                        // is the sole writer of `s`.
                        unsafe { write.write(s as usize, read_buf[s as usize]) };
                    }
                }
            }
            let wl_len = worklist.len();
            eval_worklist(read, &worklist);
            out.final_delta = deltas
                .iter()
                .map(|d| f64::from_bits(d.load(Ordering::Relaxed)))
                .fold(0.0, f64::max);
            out.pairs_evaluated.push(wl_len);
            out.iter_seconds.push(t0.elapsed().as_secs_f64());
            out.iterations += 1;
            read = 1 - read;
            if let Some(h) = record.as_deref_mut() {
                // SAFETY: no dispatch is in flight; the written buffer is
                // stable.
                h.push(unsafe { buffers[read].as_read_slice() });
            }
            if out.final_delta < epsilon {
                out.converged = true;
                break;
            }
            prev_changed.clear();
            std::mem::swap(
                &mut prev_changed,
                &mut *changed_sink.lock().expect("changed sink"),
            );
            epoch += 1;
            worklist.clear();
            for &c in &prev_changed {
                for &dep in rdeps.of(c) {
                    if mark[dep as usize] != epoch {
                        mark[dep as usize] = epoch;
                        worklist.push(dep);
                    }
                }
            }
        }
    }

    if out.iterations % 2 == 1 {
        std::mem::swap(prev, cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::iterate::{converge, Recorder, Schedule};
    use super::*;

    /// The unsharded driver on the toy system, cold, without recording.
    fn drive(
        rt: Option<&Runtime>,
        schedule: Schedule<'_>,
        max_iters: usize,
        epsilon: f64,
        prev: &mut Vec<f64>,
        cur: &mut Vec<f64>,
        record: Option<&mut Recorder<'_>>,
    ) -> IterationOutcome {
        converge(
            rt, schedule, max_iters, epsilon, prev, cur, record, None, None, toy,
        )
    }

    fn run_seq(
        scores: &mut [f64],
        cur: &mut [f64],
        max_iters: usize,
        epsilon: f64,
        update: impl Fn(usize, &[f64]) -> f64,
    ) -> IterationOutcome {
        let mut out = IterationOutcome::empty();
        while out.iterations < max_iters {
            let mut delta = 0.0f64;
            for slot in 0..scores.len() {
                let s = update(slot, scores);
                delta = delta.max((s - scores[slot]).abs());
                cur[slot] = s;
            }
            scores.copy_from_slice(cur);
            out.final_delta = delta;
            out.pairs_evaluated.push(scores.len());
            out.iter_seconds.push(0.0);
            out.iterations += 1;
            if delta < epsilon {
                out.converged = true;
                break;
            }
        }
        out
    }

    /// A toy contraction: each slot averages itself with its neighbors,
    /// decayed — converges geometrically like the engine's update.
    fn toy_update(slot: usize, prev: &[f64]) -> f64 {
        let n = prev.len();
        let left = prev[(slot + n - 1) % n];
        let right = prev[(slot + 1) % n];
        0.8 * (left + right + prev[slot]) / 3.0
    }

    fn toy(slot: usize, prev: &[f64], _scratch: &mut OpScratch) -> f64 {
        toy_update(slot, prev)
    }

    #[test]
    fn parallel_matches_sequential_bitwise_on_toy_system() {
        let n = 4096;
        let init: Vec<f64> = (0..n).map(|i| (i % 97) as f64 / 97.0).collect();
        let mut seq = init.clone();
        let mut seq_cur = vec![0.0; n];
        let seq_out = run_seq(&mut seq, &mut seq_cur, 25, 1e-6, toy_update);

        let rt = Runtime::new(4);
        let mut par = init.clone();
        let mut par_cur = vec![0.0; n];
        let par_out = drive(
            Some(&rt),
            Schedule::Sweep,
            25,
            1e-6,
            &mut par,
            &mut par_cur,
            None,
        );

        assert_eq!(seq_out.iterations, par_out.iterations);
        assert_eq!(seq_out.converged, par_out.converged);
        assert_eq!(seq_out.final_delta.to_bits(), par_out.final_delta.to_bits());
        assert_eq!(par_out.iter_seconds.len(), par_out.iterations);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.to_bits(), b.to_bits(), "parallel diverged");
        }
    }

    #[test]
    fn zero_max_iters_is_a_no_op() {
        let rt = Runtime::new(2);
        let mut prev = vec![0.5; 600];
        let original = prev.clone();
        let mut cur = vec![0.0; 600];
        let out = drive(
            Some(&rt),
            Schedule::Sweep,
            0,
            1e-3,
            &mut prev,
            &mut cur,
            None,
        );
        assert_eq!(out.iterations, 0);
        assert!(!out.converged);
        assert_eq!(prev, original);
    }

    #[test]
    fn odd_iteration_counts_land_in_prev() {
        let n = 1000;
        let init: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let rt = Runtime::new(3);
        for cap in 1..=3 {
            let mut seq = init.clone();
            let mut seq_cur = vec![0.0; n];
            run_seq(&mut seq, &mut seq_cur, cap, 0.0, toy_update);
            let mut par = init.clone();
            let mut par_cur = vec![0.0; n];
            let out = drive(
                Some(&rt),
                Schedule::Sweep,
                cap,
                0.0,
                &mut par,
                &mut par_cur,
                None,
            );
            assert_eq!(out.iterations, cap);
            assert_eq!(seq, par, "cap={cap}");
        }
    }

    /// Ring dependency structure of [`toy_update`]: slot `s` is read by
    /// `s − 1`, `s` and `s + 1` (mod n).
    fn toy_rdeps(n: usize) -> (Vec<usize>, Vec<u32>) {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut rdeps = Vec::with_capacity(3 * n);
        offsets.push(0);
        for s in 0..n {
            for d in [(s + n - 1) % n, s, (s + 1) % n] {
                rdeps.push(d as u32);
            }
            offsets.push(rdeps.len());
        }
        (offsets, rdeps)
    }

    #[test]
    fn parallel_delta_matches_sequential_bitwise_on_toy_system() {
        let n = 4096;
        // A locally-perturbed start: most slots begin at the fixpoint-ish
        // plateau so the dirty worklist actually shrinks.
        let init: Vec<f64> = (0..n)
            .map(|i| if i % 511 == 0 { 1.0 } else { 0.0 })
            .collect();
        let mut seq = init.clone();
        let mut seq_cur = vec![0.0; n];
        let seq_out = run_seq(&mut seq, &mut seq_cur, 30, 1e-9, toy_update);

        let (offsets, deps) = toy_rdeps(n);
        let rdeps = Rdeps {
            offsets: &offsets,
            deps: &deps,
        };
        let rt = Runtime::new(4);
        for (rt, schedule) in [
            (Some(&rt), Schedule::Worklist(rdeps)),
            (None, Schedule::Worklist(rdeps)),
            (Some(&rt), Schedule::Auto(rdeps)),
        ] {
            let mut par = init.clone();
            let mut par_cur = vec![0.0; n];
            let mut history: Vec<Vec<f64>> = Vec::new();
            let mut recorder = Recorder::new(&mut history, usize::MAX);
            let par_out = drive(
                rt,
                schedule,
                30,
                1e-9,
                &mut par,
                &mut par_cur,
                Some(&mut recorder),
            );
            drop(recorder);

            assert_eq!(seq_out.iterations, par_out.iterations);
            assert_eq!(seq_out.converged, par_out.converged);
            assert_eq!(seq_out.final_delta.to_bits(), par_out.final_delta.to_bits());
            assert_eq!(par_out.pairs_evaluated.len(), par_out.iterations);
            assert_eq!(par_out.iter_seconds.len(), par_out.iterations);
            assert_eq!(par_out.pairs_evaluated[0], n, "first iteration is full");
            // The frontier stays far below the crossover, so `Auto` keeps
            // the worklist too.
            assert!(
                par_out.pairs_evaluated[1..].iter().all(|&p| p < n),
                "dirty scheduling must skip clean slots on this workload"
            );
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "delta runner diverged");
            }
            // The recorded trajectory covers init plus every iterate.
            assert_eq!(history.len(), par_out.iterations + 1);
            assert_eq!(history[0], init);
            assert_eq!(history.last().unwrap(), &par);
        }
    }

    #[test]
    fn auto_goes_dense_when_the_frontier_covers_the_csr() {
        let n = 4096;
        // Every slot changes every iteration: the frontier's dependents
        // are the whole reverse CSR.
        let init: Vec<f64> = (0..n).map(|i| (i % 97) as f64 / 97.0).collect();
        let mut seq = init.clone();
        let mut seq_cur = vec![0.0; n];
        let seq_out = run_seq(&mut seq, &mut seq_cur, 12, 1e-6, toy_update);
        let (offsets, deps) = toy_rdeps(n);
        let rdeps = Rdeps {
            offsets: &offsets,
            deps: &deps,
        };
        let rt = Runtime::new(2);
        let mut counts = Vec::new();
        for (rt, schedule) in [
            (None, Schedule::Auto(rdeps)),
            (Some(&rt), Schedule::Auto(rdeps)),
            (Some(&rt), Schedule::Worklist(rdeps)),
        ] {
            let mut par = init.clone();
            let mut par_cur = vec![0.0; n];
            let out = drive(rt, schedule, 12, 1e-6, &mut par, &mut par_cur, None);
            assert_eq!(out.iterations, seq_out.iterations);
            assert_eq!(out.final_delta.to_bits(), seq_out.final_delta.to_bits());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "schedule diverged");
            }
            counts.push(out.pairs_evaluated);
        }
        // Dense iterations report every slot, the same at any thread
        // count; the worklist lists the same slots, in scattered order.
        assert!(counts[0].iter().all(|&p| p == n));
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0], counts[2]);
    }

    #[test]
    fn parallel_replay_matches_cold_run_on_edited_system() {
        let n = 4096;
        let init: Vec<f64> = (0..n).map(|i| (i % 193) as f64 / 193.0).collect();
        // Record the original system's trajectory.
        let mut base = init.clone();
        let mut base_cur = vec![0.0; n];
        let (offsets, deps) = toy_rdeps(n);
        let rdeps = Rdeps {
            offsets: &offsets,
            deps: &deps,
        };
        let rt = Runtime::new(4);
        let mut history: Vec<Vec<f64>> = Vec::new();
        let mut recorder = Recorder::new(&mut history, usize::MAX);
        drive(
            Some(&rt),
            Schedule::Worklist(rdeps),
            40,
            1e-9,
            &mut base,
            &mut base_cur,
            Some(&mut recorder),
        );
        drop(recorder);
        // "Edit": slot 777's update function changes.
        let edited_update = |slot: usize, prev: &[f64]| {
            if slot == 777 {
                0.5 * toy_update(slot, prev)
            } else {
                toy_update(slot, prev)
            }
        };
        let mut cold = init.clone();
        let mut cold_cur = vec![0.0; n];
        let cold_out = run_seq(&mut cold, &mut cold_cur, 40, 1e-9, edited_update);

        let mut warm = init.clone();
        let mut warm_cur = vec![0.0; n];
        let mut new_traj: Vec<Vec<f64>> = Vec::new();
        let mut new_rec = Recorder::new(&mut new_traj, usize::MAX);
        let warm_out = run_parallel_replay(
            &rt,
            40,
            1e-9,
            &history,
            &[777],
            rdeps,
            &mut warm,
            &mut warm_cur,
            Some(&mut new_rec),
            |slot, prev, _s| edited_update(slot, prev),
        );
        drop(new_rec);
        assert_eq!(warm_out.iterations, cold_out.iterations);
        assert_eq!(warm_out.converged, cold_out.converged);
        assert_eq!(
            warm_out.final_delta.to_bits(),
            cold_out.final_delta.to_bits()
        );
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.to_bits(), b.to_bits(), "replay diverged from cold run");
        }
        // The replay evaluates far fewer slots than the cold run.
        assert!(
            warm_out.pairs_evaluated.iter().sum::<usize>()
                < cold_out.pairs_evaluated.iter().sum::<usize>() / 2,
            "replay must skip most of the work"
        );
        // The new trajectory chains: it matches the edited system's run.
        assert_eq!(new_traj.len(), warm_out.iterations + 1);
        assert_eq!(new_traj.last().unwrap(), &warm);
    }

    #[test]
    fn eval_worklist_matches_sequential_order() {
        let n = 5000;
        let prev: Vec<f64> = (0..n).map(|i| (i % 31) as f64 / 31.0).collect();
        let worklist: Vec<u32> = (0..n as u32).step_by(3).collect();
        let mut seq = vec![0.0; worklist.len()];
        for (i, &s) in worklist.iter().enumerate() {
            seq[i] = toy_update(s as usize, &prev);
        }
        for threads in [1, 2, 3, 7] {
            let rt = (threads > 1).then(|| Runtime::new(threads));
            let mut par = vec![0.0; worklist.len()];
            let mut local = WorkerState::new();
            eval_worklist(rt.as_ref(), &mut local, &worklist, &prev, &mut par, toy);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn worker_state_persists_across_dispatches_and_runs() {
        let rt = Runtime::new(3);
        // First dispatch stamps each worker's persistent staging buffer…
        rt.run(&|wid, ws| {
            ws.changed.clear();
            ws.changed.push(wid as u32);
        });
        // …a full iteration run happens in between (its workers clear and
        // refill `changed`, proving it is the same buffer)…
        let mut prev = vec![0.9; 2000];
        let mut cur = vec![0.0; 2000];
        let out = converge(
            Some(&rt),
            Schedule::Sweep,
            10,
            1e-9,
            &mut prev,
            &mut cur,
            None,
            None,
            None,
            |_, p, _| p[0] * 0.5,
        );
        assert!(out.iterations > 1, "toy system should iterate");
        // …and the scratch allocations observed afterwards are the ones
        // from before: no per-run reallocation means capacity is retained.
        let retained = AtomicUsize::new(0);
        rt.run(&|_wid, ws| {
            if ws.changed.capacity() > 0 || !ws.changed.is_empty() {
                retained.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(
            retained.load(Ordering::Relaxed) >= 1,
            "per-worker state must survive across dispatches"
        );
    }

    #[test]
    fn runtime_repanics_worker_panics() {
        let rt = Runtime::new(2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(&|wid, _ws| {
                if wid == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "worker panic must surface on dispatch");
        // The pool survives a panicking job: later dispatches still work.
        let count = AtomicUsize::new(0);
        rt.run(&|_wid, _ws| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn chunk_size_scales_with_worklist() {
        assert_eq!(chunk_size(100, 4), 64, "short worklists keep the floor");
        assert!(chunk_size(1_000_000, 4) > chunk_size(10_000, 4));
        // Every slot is covered: threads × chunk ≥ len is not required
        // (workers loop on the cursor), but chunk must never be zero.
        assert!(chunk_size(0, 8) > 0);
    }
}
