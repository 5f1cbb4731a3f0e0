//! The pair-dependency CSR: the iteration-invariant structure of
//! Equation 3, materialized once per candidate store.
//!
//! The inputs a pair `(u, v)`'s update reads — which neighbor pairs
//! `(x, y)` with `L(x, y) ≥ θ` its mapping operators consult, which score
//! slot (or pruning-fallback constant) each of those resolves to, and the
//! pair's own label term — are fixed across iterations. [`PairDepCsr`]
//! flattens all of it into contiguous arrays at session-prepare time, so
//! the hot loop is pure index arithmetic: no `PairIndex` lookups, no
//! `ctx.eligible` re-filtering, no hashed fallback probes.
//!
//! The reverse CSR (for each slot, the slots whose update reads it) drives
//! **dirty-pair scheduling**: iteration `k` re-evaluates a slot only if one
//! of its dependencies changed in iteration `k−1`. Because the Jacobi
//! update is a pure function of its inputs, a slot with unchanged inputs
//! reproduces its previous score bit for bit — so sparse iteration is
//! bitwise identical to the full sweep (`tests/delta_convergence.rs`
//! property-checks this across variants, θ, pruning and thread counts).

use super::iterate::Rdeps;
use super::parallel::{dispatch, Runtime, WorkerState};
use crate::candidates::{dep_bounds, NO_SLOT};
use crate::config::FsimConfig;
use crate::operators::{DepEntry, OpCtx, OpScratch, Operator};
use crate::store::{PairRef, PairStore};
use fsim_graph::{Graph, NodeId};
use fsim_snapshot::SnapshotError;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::{atomic::AtomicUsize, atomic::Ordering, Mutex};

/// Rough per-entry footprint in bytes (one [`DepEntry`] plus its reverse
/// edge), used with [`crate::candidates::estimated_dep_entries`] to check
/// the CSR against the configured memory budget before building.
pub(crate) const BYTES_PER_ENTRY: u128 = (std::mem::size_of::<DepEntry>() + 4) as u128;

/// Rough per-slot footprint in bytes: offsets into three entry arrays plus
/// the stored neighborhood dimensions.
pub(crate) const BYTES_PER_SLOT: u128 = 48;

/// Chunks per runtime worker in [`DepSource::fill_rows`]: enough for the
/// atomic cursor to even out bounds that overstate entries unevenly.
const CHUNKS_PER_WORKER: usize = 4;

/// The flattened, θ-prefiltered dependency structure of a candidate store
/// (see the module docs). Valid exactly as long as the store it was built
/// from: the entries depend on the candidate set, the eligibility
/// constraint and the pruning fallback — all of which change only when the
/// store is rebuilt.
#[derive(Debug, PartialEq)]
pub(crate) struct PairDepCsr {
    /// Every slot's forward dependency lists (`base == 0`).
    rows: RowCols,
    /// Slot → range of `rdeps` (length `n + 1`).
    rdep_offsets: Vec<usize>,
    /// Reverse CSR: for each slot, the slots whose update reads it. May
    /// contain duplicates (a source feeding both directions of one pair);
    /// the scheduler's epoch marks deduplicate for free.
    rdeps: Vec<u32>,
}

/// The forward dependency columns of the contiguous slot range
/// `base..base + dims.len()`: what an owned [`ShardCsr`] holds, and the
/// forward half of a [`PairDepCsr`] (with `base == 0`).
#[derive(Debug, PartialEq)]
struct RowCols {
    /// First global slot of the range.
    base: usize,
    /// Local slot → range of `out_entries` (length `rows + 1`).
    out_offsets: Vec<usize>,
    /// Local slot → range of `in_entries` (length `rows + 1`).
    in_offsets: Vec<usize>,
    /// Out-neighbor-pair dependencies, `(i, j)`-sorted per slot.
    out_entries: Vec<DepEntry>,
    /// In-neighbor-pair dependencies, `(i, j)`-sorted per slot.
    in_entries: Vec<DepEntry>,
    /// Local slot → `[|N⁺(u)|, |N⁺(v)|, |N⁻(u)|, |N⁻(v)|]` (drive `Ω` /
    /// vacuity).
    dims: Vec<[u32; 4]>,
}

impl RowCols {
    /// Appends one slot's lists, copied from other columns with every
    /// slot reference renumbered through `renumber`.
    #[inline]
    fn push_row(&mut self, from: CsrCols<'_>, local: usize, renumber: impl Fn(u32) -> u32) {
        let remap = |e: &DepEntry| {
            let mut e = *e;
            if e.slot != DepEntry::CONST {
                e.slot = renumber(e.slot);
                debug_assert_ne!(e.slot, NO_SLOT, "clean slot reads a removed pair");
            }
            e
        };
        let (out, inn) = from.lists(local);
        self.out_entries.extend(out.iter().map(remap));
        self.in_entries.extend(inn.iter().map(remap));
        self.out_offsets.push(self.out_entries.len());
        self.in_offsets.push(self.in_entries.len());
        self.dims.push(from.dims[local]);
    }

    #[inline]
    fn cols(&self) -> CsrCols<'_> {
        CsrCols {
            base: self.base,
            out_offsets: &self.out_offsets,
            in_offsets: &self.in_offsets,
            out_entries: &self.out_entries,
            in_entries: &self.in_entries,
            dims: &self.dims,
        }
    }
}

/// One chunk's region of an entry column: entries land at `buf[..len]`
/// in order; overrunning it (a degree bound that does not hold) panics.
struct RegionSink<'a> {
    buf: &'a mut [MaybeUninit<DepEntry>],
    len: usize,
}

impl RegionSink<'_> {
    #[inline]
    fn push(&mut self, e: DepEntry) {
        self.buf[self.len].write(e);
        self.len += 1;
    }
}

/// One chunk of [`DepSource::fill_rows`]: slots and column pieces.
struct ChunkJob<'a> {
    rows: Range<usize>,
    out: RegionSink<'a>,
    inn: RegionSink<'a>,
    out_offsets: &'a mut [usize],
    in_offsets: &'a mut [usize],
    dims: &'a mut [[u32; 4]],
}

/// Splits the first `len` elements off `rest`.
fn split_off<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// What a slot's dependency lists are derived from: the graphs, the
/// evaluation context, the store, and the operator's entry policy.
struct DepSource<'a> {
    g1: &'a Graph,
    g2: &'a Graph,
    ctx: &'a OpCtx<'a>,
    store: &'a PairStore,
    /// [`Operator::reads_ineligible_pairs`].
    all_pairs: bool,
    /// [`Operator::fold_const_rows`] (eligible-only operators).
    fold_consts: bool,
}

impl<'a> DepSource<'a> {
    fn new<O: Operator>(
        g1: &'a Graph,
        g2: &'a Graph,
        ctx: &'a OpCtx<'a>,
        store: &'a PairStore,
        op: &O,
    ) -> Self {
        Self {
            g1,
            g2,
            ctx,
            store,
            all_pairs: op.reads_ineligible_pairs(),
            fold_consts: !op.reads_ineligible_pairs() && op.fold_const_rows(),
        }
    }

    /// The dependency lists of `pairs` (store pairs, in the order given),
    /// on `rt`'s workers when given; the full build, the shard build and
    /// a repair's dirty slots all derive their lists here. Chunks of the range ([`plan_chunks`])
    /// fill regions, sized by their degree-product bounds, of columns
    /// allocated on this thread (memory a worker allocated would stay in
    /// its allocator arena after being freed); the stitch then closes the
    /// gaps in slot order, so the columns are identical for every worker
    /// count (`docs/INTERNALS.md` §2).
    fn fill_rows(&self, pairs: &[(NodeId, NodeId)], rt: Option<&Runtime>) -> RowCols {
        let n = pairs.len();
        let parts = rt.map_or(1, |rt| CHUNKS_PER_WORKER * rt.threads());
        let chunks = plan_chunks(self.g1, self.g2, pairs, parts);
        let mut out_entries = Vec::with_capacity(chunks.iter().map(|c| c.1).sum());
        let mut in_entries = Vec::with_capacity(chunks.iter().map(|c| c.2).sum());
        let (mut out_offsets, mut in_offsets) = (vec![0; n + 1], vec![0; n + 1]);
        let mut dims = vec![[0; 4]; n];
        let lens: Vec<(usize, usize)> = {
            let mut oe = out_entries.spare_capacity_mut();
            let mut ie = in_entries.spare_capacity_mut();
            let (mut oo, mut io) = (&mut out_offsets[1..], &mut in_offsets[1..]);
            let mut dm = &mut dims[..];
            let sink = |buf| RegionSink { buf, len: 0 };
            let jobs: Vec<Mutex<ChunkJob<'_>>> = chunks
                .iter()
                .map(|(local, out_bound, in_bound)| {
                    Mutex::new(ChunkJob {
                        rows: local.clone(),
                        out: sink(split_off(&mut oe, *out_bound)),
                        inn: sink(split_off(&mut ie, *in_bound)),
                        out_offsets: split_off(&mut oo, local.len()),
                        in_offsets: split_off(&mut io, local.len()),
                        dims: split_off(&mut dm, local.len()),
                    })
                })
                .collect();
            let cursor = AtomicUsize::new(0);
            dispatch(rt, &mut WorkerState::new(), &|_wid, _ws| {
                let mut const_buf = Vec::new();
                while let Some(job) = jobs.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let job = &mut *job.lock().expect("chunk job lock poisoned");
                    // One row per slot; offsets are relative to the
                    // chunk's regions until the stitch.
                    for (k, &(u, v)) in pairs[job.rows.clone()].iter().enumerate() {
                        let (s1, s2) = (self.g1.out_neighbors(u), self.g2.out_neighbors(v));
                        let (t1, t2) = (self.g1.in_neighbors(u), self.g2.in_neighbors(v));
                        self.push_direction(&mut job.out, s1, s2, &mut const_buf);
                        self.push_direction(&mut job.inn, t1, t2, &mut const_buf);
                        (job.out_offsets[k], job.in_offsets[k]) = (job.out.len, job.inn.len);
                        job.dims[k] = [s1, s2, t1, t2]
                            .map(|s| u32::try_from(s.len()).expect("degree fits u32"));
                    }
                }
            });
            jobs.into_iter()
                .map(|j| j.into_inner().expect("chunk job lock poisoned"))
                .map(|j| (j.out.len, j.inn.len))
                .collect()
        };
        // Stitch: move each chunk's entries down to where the previous
        // chunk's end, and shift its offsets by the same amount.
        let (mut out_len, mut in_len, mut out_at, mut in_at) = (0, 0, 0, 0);
        for ((local, out_bound, in_bound), (ol, il)) in chunks.into_iter().zip(lens) {
            if (out_at, in_at) != (out_len, in_len) {
                let oe = out_entries.spare_capacity_mut();
                oe.copy_within(out_at..out_at + ol, out_len);
                let ie = in_entries.spare_capacity_mut();
                ie.copy_within(in_at..in_at + il, in_len);
            }
            for k in local {
                out_offsets[k + 1] += out_len;
                in_offsets[k + 1] += in_len;
            }
            (out_len, in_len) = (out_len + ol, in_len + il);
            (out_at, in_at) = (out_at + out_bound, in_at + in_bound);
        }
        // SAFETY: chunk `c`'s sink wrote the first `len_c` slots of its
        // region `at_c..` (in order, bounds-checked); the loop above moved
        // them, chunk by chunk, to `end_c..end_c + len_c` with
        // `end_c <= at_c`, and `end_c + len_c <= at_{c+1}`, so no move
        // clobbered an unmoved chunk: `0..out_len` / `0..in_len` are set.
        unsafe {
            out_entries.set_len(out_len);
            in_entries.set_len(in_len);
        }
        // Give back the bound's unused (never touched) address space.
        out_entries.shrink_to_fit();
        in_entries.shrink_to_fit();
        RowCols {
            base: 0,
            out_offsets,
            in_offsets,
            out_entries,
            in_entries,
            dims,
        }
    }

    /// Appends one direction's dependency list for a pair: eligible neighbor
    /// pairs in `(i, j)` order, resolved to slots or fallback constants.
    /// Zero-valued constants are omitted (they cannot influence any operator).
    ///
    /// For operators that only read eligible pairs (the variant operators),
    /// each row group is **partitioned**: slot-backed entries first (still in
    /// `j` order, hence ascending slot — store rows are `v`-sorted), fallback
    /// constants after, buffered through `const_buf`. The kernels' row
    /// reductions are order-independent within a row (max / deterministic
    /// matcher sort), so the partition cannot change any bit; what it buys is
    /// a branch-free vectorizable prefix of pure score-buffer loads per row.
    /// Operators that read ineligible pairs ([`SimRankOp`] — an
    /// order-sensitive *sum* keyed by logical position) keep the raw
    /// interleaved `(i, j)` order.
    ///
    /// When `fold_consts` is set, the
    /// buffered constant run of each row is collapsed to the single entry
    /// attaining the maximum constant (first winner on ties — deterministic,
    /// so repaired and fresh builds agree entry for entry). The fold is
    /// pre-computing the only thing a per-row max can ever extract from the
    /// run; `f32` maxima are order-insensitive and exact under the `f64`
    /// widening, so evaluation stays bitwise identical while the row shrinks
    /// to its slot-backed prefix plus one bias entry.
    ///
    /// [`SimRankOp`]: crate::operators::SimRankOp
    fn push_direction(
        &self,
        entries: &mut RegionSink<'_>,
        s1: &[NodeId],
        s2: &[NodeId],
        const_buf: &mut Vec<DepEntry>,
    ) {
        for (i, &x) in (0u32..).zip(s1) {
            const_buf.clear();
            let row = self.store.row(x);
            for (j, &y) in (0u32..).zip(s2) {
                if !self.all_pairs && !self.ctx.eligible(x, y) {
                    continue;
                }
                match row.resolve(y) {
                    PairRef::Slot(s) => entries.push(DepEntry {
                        i,
                        j,
                        slot: u32::try_from(s).expect("store slot fits u32"),
                        cval: 0.0,
                    }),
                    PairRef::Absent(c) => {
                        if c != 0.0 {
                            let e = DepEntry {
                                i,
                                j,
                                slot: DepEntry::CONST,
                                cval: c as f32,
                            };
                            if self.all_pairs {
                                entries.push(e);
                            } else {
                                const_buf.push(e);
                            }
                        }
                    }
                }
            }
            if self.fold_consts && const_buf.len() > 1 {
                let mut best = const_buf[0];
                for e in &const_buf[1..] {
                    if e.cval > best.cval {
                        best = *e;
                    }
                }
                entries.push(best);
            } else {
                const_buf.iter().for_each(|&e| entries.push(e));
            }
        }
    }
}

/// Cuts `pairs` into at most `parts` contiguous ranges of about equal
/// degree-product bound (the per-pair bound
/// [`crate::candidates::estimated_dep_entries`] sums) and returns each
/// range with its out- and in-direction bounds.
fn plan_chunks(
    g1: &Graph,
    g2: &Graph,
    pairs: &[(NodeId, NodeId)],
    parts: usize,
) -> Vec<(Range<usize>, usize, usize)> {
    let bounds = || pairs.iter().map(|&(u, v)| dep_bounds(g1, g2, u, v));
    let total: usize = bounds().map(|(o, i)| o + i).sum();
    let target = total.div_ceil(parts).max(1);
    let mut chunks = Vec::with_capacity(parts);
    let (mut lo, mut out_b, mut in_b, mut seen) = (0, 0, 0, 0);
    for (k, (o, i)) in bounds().enumerate() {
        (out_b, in_b, seen) = (out_b + o, in_b + i, seen + o + i);
        if chunks.len() + 1 < parts && seen >= target * (chunks.len() + 1) {
            chunks.push((lo..k + 1, out_b, in_b));
            (lo, out_b, in_b) = (k + 1, 0, 0);
        }
    }
    chunks.push((lo..pairs.len(), out_b, in_b));
    chunks
}

impl PairDepCsr {
    /// Materializes the dependency structure of `store` under the
    /// session's evaluation context, on `rt`'s workers when given (see
    /// [`DepSource::fill_rows`]; the result is identical either way).
    pub(crate) fn build<O: Operator>(
        g1: &Graph,
        g2: &Graph,
        ctx: &OpCtx<'_>,
        store: &PairStore,
        op: &O,
        rt: Option<&Runtime>,
    ) -> Self {
        Self::with_reverse(DepSource::new(g1, g2, ctx, store, op).fill_rows(&store.pairs, rt))
    }

    /// Completes a set of forward columns with the reverse CSR, built by
    /// counting sort: dependents of each source slot, in ascending
    /// dependent order (deterministic — the scheduler's worklists are
    /// order-insensitive, but determinism keeps debugging sane).
    fn with_reverse(rows: RowCols) -> Self {
        let n = rows.dims.len();
        let mut counts = vec![0usize; n + 1];
        for e in rows.out_entries.iter().chain(&rows.in_entries) {
            if e.slot != DepEntry::CONST {
                counts[e.slot as usize + 1] += 1;
            }
        }
        for k in 1..=n {
            counts[k] += counts[k - 1];
        }
        let mut cursor = counts[..n].to_vec();
        let rdep_offsets = counts;
        let mut rdeps = vec![0u32; *rdep_offsets.last().unwrap_or(&0)];
        let cols = rows.cols();
        for (slot, local) in (0u32..).zip(0..n) {
            let (out, inn) = cols.lists(local);
            for e in out.iter().chain(inn) {
                if e.slot != DepEntry::CONST {
                    let src = e.slot as usize;
                    rdeps[cursor[src]] = slot;
                    cursor[src] += 1;
                }
            }
        }
        Self {
            rows,
            rdep_offsets,
            rdeps,
        }
    }

    /// Incrementally repairs the CSR after a graph edit: slots outside
    /// `entry_dirty` copy their old dependency lists verbatim (with slots
    /// renumbered through `old_to_new`); dirty slots — and pairs that just
    /// entered the store — re-derive theirs from the edited graphs
    /// (one [`DepSource::fill_rows`] pass over all of them). The expensive
    /// per-entry work (eligibility filtering, pair resolution, fallback
    /// probing) is therefore proportional to the edit's dirty frontier,
    /// not to the store; only the reverse-CSR counting sort and the entry
    /// copy remain `O(total entries)` — branch-free linear passes.
    ///
    /// `store` is the repaired store; `old_to_new` / `new_to_old` come
    /// from [`crate::candidates::repair_candidates`]; `entry_dirty` is
    /// indexed by *new* slot and must cover every slot whose dependency
    /// list could have changed (a superset is safe).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn repaired<O: Operator>(
        &self,
        g1: &Graph,
        g2: &Graph,
        ctx: &OpCtx<'_>,
        store: &PairStore,
        op: &O,
        old_to_new: &[u32],
        new_to_old: &[u32],
        entry_dirty: &[bool],
    ) -> Self {
        let src = DepSource::new(g1, g2, ctx, store, op);
        let n = store.len();
        debug_assert_eq!(entry_dirty.len(), n);
        let clean = |slot: usize| new_to_old[slot] != NO_SLOT && !entry_dirty[slot];
        let dirty: Vec<_> = (0..n)
            .filter(|&s| !clean(s))
            .map(|s| store.pairs[s])
            .collect();
        let (fresh, mut next) = (src.fill_rows(&dirty, None), 0);
        let mut rows = src.fill_rows(&[], None);
        rows.out_offsets.reserve(n);
        rows.in_offsets.reserve(n);
        rows.dims.reserve(n);
        rows.out_entries.reserve(self.rows.out_entries.len());
        rows.in_entries.reserve(self.rows.in_entries.len());
        let (old_cols, fresh_cols) = (self.rows.cols(), fresh.cols());
        for (slot, &old_slot) in new_to_old.iter().enumerate() {
            if clean(slot) {
                rows.push_row(old_cols, old_slot as usize, |s| old_to_new[s as usize]);
            } else {
                rows.push_row(fresh_cols, next, |s| s);
                next += 1;
            }
        }
        Self::with_reverse(rows)
    }

    /// Total dependency entries across both directions (diagnostics).
    pub(crate) fn entry_count(&self) -> usize {
        self.rows.out_entries.len() + self.rows.in_entries.len()
    }

    /// Resident heap footprint in bytes (entries, reverse CSR, offsets,
    /// dims) — the "peak CSR memory" the sharded driver is bounded
    /// against.
    pub(crate) fn bytes(&self) -> usize {
        self.rows.cols().bytes()
            + std::mem::size_of_val(self.rdeps.as_slice())
            + std::mem::size_of_val(self.rdep_offsets.as_slice())
    }

    /// The reverse dependents CSR (for the dirty scheduler).
    pub(crate) fn reverse(&self) -> Rdeps<'_> {
        Rdeps {
            offsets: &self.rdep_offsets,
            deps: &self.rdeps,
        }
    }

    /// The forward columns, which the drivers evaluate through and the
    /// snapshot codec persists — with [`reverse`](Self::reverse): a
    /// restore should not redo the counting sort.
    pub(crate) fn forward(&self) -> CsrCols<'_> {
        self.rows.cols()
    }

    /// Rebuilds a CSR from deserialized columns, validating every
    /// structural invariant `eval_slot` and the dirty scheduler index
    /// with — offset monotonicity and terminals, slot bounds — so a
    /// checksum-valid but logically inconsistent snapshot cannot cause
    /// a panic later.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_raw_parts(
        out_offsets: Vec<usize>,
        in_offsets: Vec<usize>,
        out_entries: Vec<DepEntry>,
        in_entries: Vec<DepEntry>,
        dims: Vec<[u32; 4]>,
        rdep_offsets: Vec<usize>,
        rdeps: Vec<u32>,
        n_slots: usize,
    ) -> Result<PairDepCsr, String> {
        check_offsets("out_offsets", &out_offsets, n_slots, out_entries.len())?;
        check_offsets("in_offsets", &in_offsets, n_slots, in_entries.len())?;
        check_offsets("rdep_offsets", &rdep_offsets, n_slots, rdeps.len())?;
        if dims.len() != n_slots {
            return Err(format!("dims has {} rows, store has {n_slots}", dims.len()));
        }
        check_entry_slots("out_entries", &out_entries, n_slots)?;
        check_entry_slots("in_entries", &in_entries, n_slots)?;
        if let Some(&bad) = rdeps.iter().find(|&&s| s as usize >= n_slots) {
            return Err(format!("rdep slot {bad} out of range ({n_slots} slots)"));
        }
        Ok(PairDepCsr {
            rows: RowCols {
                base: 0,
                out_offsets,
                in_offsets,
                out_entries,
                in_entries,
                dims,
            },
            rdep_offsets,
            rdeps,
        })
    }
}

/// Validates a deserialized offset column: length `n + 1`, starts at 0,
/// non-decreasing, ends exactly at `terminal`.
fn check_offsets(name: &str, offsets: &[usize], n: usize, terminal: usize) -> Result<(), String> {
    if offsets.len() != n + 1 {
        return Err(format!(
            "{name} has {} entries, expected {}",
            offsets.len(),
            n + 1
        ));
    }
    if offsets[0] != 0 {
        return Err(format!("{name} must start at 0, found {}", offsets[0]));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("{name} is not non-decreasing"));
    }
    if offsets[n] != terminal {
        return Err(format!(
            "{name} ends at {}, entry array has {terminal}",
            offsets[n]
        ));
    }
    Ok(())
}

/// Validates deserialized dependency entries: every non-constant entry's
/// score slot must be in range (constants carry [`DepEntry::CONST`]).
fn check_entry_slots(name: &str, entries: &[DepEntry], n_slots: usize) -> Result<(), String> {
    for e in entries {
        if e.slot != DepEntry::CONST && e.slot as usize >= n_slots {
            return Err(format!(
                "{name} references slot {} out of range ({n_slots} slots)",
                e.slot
            ));
        }
    }
    Ok(())
}

/// The dependency lists of one **u-row shard** of the candidate store —
/// the slots `base..base + len` — built transiently for a single sweep of
/// the sharded driver ([`super::shards`]) and dropped before the next
/// shard is touched, so peak resident CSR memory is one shard's worth.
///
/// Entries are produced by the same [`DepSource::fill_rows`] pass as
/// [`PairDepCsr::build`], and evaluation is the same [`CsrCols`] code, so
/// evaluating a slot through a `ShardCsr` is bitwise identical to
/// evaluating it through the full CSR. No reverse CSR is materialized:
/// the sharded driver schedules by scanning each slot's forward entries
/// against the previous iteration's changed-slot frontier instead (the
/// boundary exchange).
pub(crate) struct ShardCsr {
    repr: ShardRepr,
}

/// Where a [`ShardCsr`]'s columns live.
enum ShardRepr {
    /// Freshly built, columns on the heap.
    Owned(RowCols),
    /// Backed by a retained spill mapping ([`MappedShardCsr`]),
    /// shared with the session's spill cache.
    Mapped(std::sync::Arc<MappedShardCsr>),
}

/// Borrowed view of one slot range's CSR columns — the common shape
/// every backing lowers to, so evaluation is one code path (and
/// therefore bitwise identical) regardless of where the bytes live.
#[derive(Clone, Copy)]
pub(crate) struct CsrCols<'a> {
    base: usize,
    pub(crate) out_offsets: &'a [usize],
    pub(crate) in_offsets: &'a [usize],
    pub(crate) out_entries: &'a [DepEntry],
    pub(crate) in_entries: &'a [DepEntry],
    pub(crate) dims: &'a [[u32; 4]],
}

impl<'a> CsrCols<'a> {
    /// The out- and in-direction lists of a **local** slot.
    #[inline]
    fn lists(&self, local: usize) -> (&'a [DepEntry], &'a [DepEntry]) {
        (
            &self.out_entries[self.out_offsets[local]..self.out_offsets[local + 1]],
            &self.in_entries[self.in_offsets[local]..self.in_offsets[local + 1]],
        )
    }

    /// Column footprint in bytes.
    fn bytes(&self) -> usize {
        std::mem::size_of_val(self.out_entries)
            + std::mem::size_of_val(self.in_entries)
            + std::mem::size_of_val(self.out_offsets)
            + std::mem::size_of_val(self.in_offsets)
            + std::mem::size_of_val(self.dims)
    }

    /// Equation 3 for one **global** slot of the range, evaluated from
    /// the prepared dependency lists and the cached label term — bitwise
    /// identical to [`pair_update`](super::iterate::pair_update) on the
    /// same inputs, whichever CSR backs the view.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn eval_slot<O: Operator>(
        &self,
        cfg: &FsimConfig,
        op: &O,
        store: &PairStore,
        slot: usize,
        prev: &[f64],
        scratch: &mut OpScratch,
        label: f64,
    ) -> f64 {
        let (u, v) = store.pairs[slot];
        if cfg.pin_identical && u == v {
            return 1.0;
        }
        let local = slot - self.base;
        let [o1, o2, i1, i2] = self.dims[local];
        let (out_list, in_list) = self.lists(local);
        let out = op.term_slots(out_list, o1 as usize, o2 as usize, prev, scratch);
        let inn = op.term_slots(in_list, i1 as usize, i2 as usize, prev, scratch);
        let score = cfg.w_out * out + cfg.w_in * inn + cfg.w_label() * label;
        // Scores are mathematically confined to [0, 1]; clamp floating
        // drift (identically to `pair_update`).
        score.clamp(0.0, 1.0)
    }
}

impl ShardCsr {
    /// The shard's columns, wherever they live.
    #[inline]
    pub(crate) fn cols(&self) -> CsrCols<'_> {
        match &self.repr {
            ShardRepr::Owned(o) => o.cols(),
            ShardRepr::Mapped(m) => m.cols(),
        }
    }

    /// Wraps a retained spill mapping (shared with the spill cache).
    pub(crate) fn from_mapped(m: std::sync::Arc<MappedShardCsr>) -> Self {
        Self {
            repr: ShardRepr::Mapped(m),
        }
    }

    /// Materializes the dependency structure of slots `lo..hi` of `store`
    /// under the session's evaluation context: one
    /// [`DepSource::fill_rows`] pass on the calling thread.
    pub(crate) fn build<O: Operator>(
        g1: &Graph,
        g2: &Graph,
        ctx: &OpCtx<'_>,
        store: &PairStore,
        op: &O,
        lo: usize,
        hi: usize,
    ) -> Self {
        debug_assert!(lo <= hi && hi <= store.len());
        let mut cols = DepSource::new(g1, g2, ctx, store, op).fill_rows(&store.pairs[lo..hi], None);
        cols.base = lo;
        Self {
            repr: ShardRepr::Owned(cols),
        }
    }

    /// Both directions' dependency entries of a **global** slot.
    #[inline]
    pub(crate) fn deps_of(&self, slot: usize) -> impl Iterator<Item = &DepEntry> {
        let c = self.cols();
        let (out, inn) = c.lists(slot - c.base);
        out.iter().chain(inn)
    }

    /// Resident column footprint in bytes (for a mapped shard, the
    /// page-cache-resident spill bytes the columns view).
    pub(crate) fn bytes(&self) -> usize {
        self.cols().bytes()
    }

    /// Writes this shard's dependency lists to `path` as a one-section
    /// `FSNP` spill file (atomic temp-and-rename, FNV-1a checksummed),
    /// so later sweeps re-map the lists instead of re-deriving them.
    pub(crate) fn write_spill(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        use fsim_snapshot::writer::{put_usize, SnapshotBuilder};
        let c = self.cols();
        let mut b = SnapshotBuilder::new();
        let buf = b.section(SPILL_SECTION);
        put_usize(buf, c.base);
        put_usize(buf, c.dims.len());
        fsim_snapshot::cursor::put_usize_slice(buf, c.out_offsets);
        fsim_snapshot::cursor::put_usize_slice(buf, c.in_offsets);
        put_dep_entries(buf, c.out_entries);
        put_dep_entries(buf, c.in_entries);
        put_usize(buf, c.dims.len());
        for d in c.dims {
            for &v in d {
                fsim_snapshot::writer::put_u32(buf, v);
            }
        }
        b.write_atomic(path)
    }
}

/// A shard spill file retained as a live mapping. [`MappedShardCsr::map`]
/// opens, checksums and structurally validates the file exactly once;
/// the session's spill cache then keeps the result across sweeps, so a
/// warm sweep reborrows the CSR columns instead of re-reading,
/// re-checksumming and re-decoding the file (the cost that previously
/// made spilled sweeps slower than rebuilding).
///
/// The small columns (offsets, dims) are decoded into owned buffers at
/// map time; the dependency-entry columns — the bulk of the bytes — are
/// reborrowed in place from the mapping on little-endian targets, where
/// the wire format (LE `u32`/`f32` words, 16 bytes per entry) coincides
/// with `repr(C)` [`DepEntry`]'s in-memory layout.
pub(crate) struct MappedShardCsr {
    /// Owns the mapping (or fallback read buffer) the `Raw` entry
    /// columns point into; never touched again after `map` returns.
    _file: fsim_snapshot::SnapshotFile,
    base: usize,
    out_offsets: Vec<usize>,
    in_offsets: Vec<usize>,
    out_entries: EntryCol,
    in_entries: EntryCol,
    dims: Vec<[u32; 4]>,
}

// SAFETY: the `Raw` columns point into `_file`'s buffer, which is
// owned by this same struct, read-only for its whole life and freed
// only on drop — sharing `&self` across the parallel sweep's threads
// is reads of immutable memory.
unsafe impl Send for MappedShardCsr {}
// SAFETY: as above — every access path is `&self` reads.
unsafe impl Sync for MappedShardCsr {}

/// One dependency-entry column of a retained spill.
enum EntryCol {
    /// Reborrowed in place from the mapping (little-endian targets
    /// whose section bytes landed `DepEntry`-aligned).
    #[cfg(target_endian = "little")]
    Raw { ptr: *const DepEntry, len: usize },
    /// Decoded copy — big-endian targets, or an unaligned column.
    Owned(Vec<DepEntry>),
}

impl EntryCol {
    #[inline]
    fn as_slice(&self) -> &[DepEntry] {
        match self {
            #[cfg(target_endian = "little")]
            // SAFETY: `ptr`/`len` were carved out of the owning
            // `MappedShardCsr`'s `_file` buffer by `entry_col`, which
            // proved alignment and `len * 16` bytes in bounds; the
            // buffer is immutable and outlives `self`, and every
            // 16-byte pattern is a valid `DepEntry` (plain `u32`s and
            // an `f32` accepting all bit patterns).
            EntryCol::Raw { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            EntryCol::Owned(v) => v,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }
}

/// Reads one entry column off `cur`: zero-copy where the layout
/// allows, decoded otherwise.
fn entry_col(cur: &mut fsim_snapshot::Cursor<'_>) -> Result<EntryCol, SnapshotError> {
    #[cfg(target_endian = "little")]
    {
        let len = cur.checked_len(std::mem::size_of::<DepEntry>())?;
        let raw = cur.take(len * std::mem::size_of::<DepEntry>())?;
        if (raw.as_ptr() as usize) % std::mem::align_of::<DepEntry>() == 0 {
            return Ok(EntryCol::Raw {
                ptr: raw.as_ptr().cast(),
                len,
            });
        }
        // Sections are 8-byte aligned and every preceding field is a
        // multiple of 8 bytes, so this fallback should be unreachable;
        // decoding the already-taken bytes keeps it correct anyway.
        Ok(EntryCol::Owned(decode_dep_entries(raw)))
    }
    #[cfg(not(target_endian = "little"))]
    Ok(EntryCol::Owned(read_dep_entries(cur)?))
}

impl MappedShardCsr {
    /// Opens and validates the spill at `path`, verifying it covers
    /// exactly the slot range `lo..hi` of the current plan and that
    /// every offset column is structurally sound — a stale or
    /// mismatched spill returns an error (the caller rebuilds) rather
    /// than evaluating garbage. The validated mapping is the returned
    /// value's backing store: drop it last.
    pub(crate) fn map(
        path: &std::path::Path,
        lo: usize,
        hi: usize,
    ) -> Result<MappedShardCsr, SnapshotError> {
        let file = fsim_snapshot::SnapshotFile::open(path, SPILL_KNOWN)?;
        let mut cur = fsim_snapshot::Cursor::new("shard-csr", file.section(SPILL_SECTION)?);
        let base = cur.usize64()?;
        let len = cur.usize64()?;
        let out_offsets = cur.usize_vec()?;
        let in_offsets = cur.usize_vec()?;
        let out_entries = entry_col(&mut cur)?;
        let in_entries = entry_col(&mut cur)?;
        let dims_len = cur.checked_len(16)?;
        let mut dims = Vec::with_capacity(dims_len);
        for _ in 0..dims_len {
            dims.push([cur.u32()?, cur.u32()?, cur.u32()?, cur.u32()?]);
        }
        cur.finish()?;
        let malformed = |detail: String| SnapshotError::Malformed {
            section: "shard-csr",
            detail,
        };
        if base != lo || len != hi - lo {
            return Err(malformed(format!(
                "spill covers slots {base}..{}, plan wants {lo}..{hi}",
                base + len
            )));
        }
        if dims.len() != len {
            return Err(malformed(format!(
                "{} dim rows for {len} slots",
                dims.len()
            )));
        }
        check_offsets("out_offsets", &out_offsets, len, out_entries.len())
            .and_then(|()| check_offsets("in_offsets", &in_offsets, len, in_entries.len()))
            .map_err(malformed)?;
        Ok(MappedShardCsr {
            _file: file,
            base,
            out_offsets,
            in_offsets,
            out_entries,
            in_entries,
            dims,
        })
    }

    /// Whether this mapping still describes the plan range `lo..hi`.
    pub(crate) fn covers(&self, lo: usize, hi: usize) -> bool {
        self.base == lo && self.dims.len() == hi - lo
    }

    #[inline]
    fn cols(&self) -> CsrCols<'_> {
        CsrCols {
            base: self.base,
            out_offsets: &self.out_offsets,
            in_offsets: &self.in_offsets,
            out_entries: self.out_entries.as_slice(),
            in_entries: self.in_entries.as_slice(),
            dims: &self.dims,
        }
    }
}

/// The single section id of a shard spill file.
const SPILL_SECTION: u32 = 1;
/// Known-section registry for spill files.
const SPILL_KNOWN: &[(u32, &str)] = &[(SPILL_SECTION, "shard-csr")];

/// Encodes a [`DepEntry`] slice: count, then 16 bytes per entry
/// (`i`, `j`, `slot` as LE `u32`, `cval` as LE `f32` bits).
pub(crate) fn put_dep_entries(buf: &mut Vec<u8>, entries: &[DepEntry]) {
    fsim_snapshot::cursor::put_records(buf, entries, |e| {
        let mut record = [0; 16];
        for (dst, word) in record
            .chunks_exact_mut(4)
            .zip([e.i, e.j, e.slot, e.cval.to_bits()])
        {
            dst.copy_from_slice(&word.to_le_bytes());
        }
        record
    });
}

/// Decodes a [`put_dep_entries`] slice with a bounds-proven count.
pub(crate) fn read_dep_entries(
    cur: &mut fsim_snapshot::Cursor<'_>,
) -> Result<Vec<DepEntry>, SnapshotError> {
    let checked_n = cur.checked_len(16)?;
    Ok(decode_dep_entries(cur.take(checked_n * 16)?))
}

/// Decodes whole 16-byte [`put_dep_entries`] records.
fn decode_dep_entries(raw: &[u8]) -> Vec<DepEntry> {
    raw.chunks_exact(16)
        .map(|c| DepEntry {
            i: u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
            j: u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
            slot: u32::from_le_bytes([c[8], c[9], c[10], c[11]]),
            cval: f32::from_bits(u32::from_le_bytes([c[12], c[13], c[14], c[15]])),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FsimConfig, Variant};
    use crate::operators::VariantOp;
    use fsim_graph::graph_from_parts;
    use fsim_labels::LabelFn;

    fn setup() -> (Graph, Graph, FsimConfig) {
        let g1 = graph_from_parts(&["a", "b", "a"], &[(0, 1), (1, 2), (2, 0)]);
        let g2 = graph_from_parts(&["a", "b", "b", "a"], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let cfg = FsimConfig::new(Variant::Simple).label_fn(LabelFn::Indicator);
        (g1, g2, cfg)
    }

    #[test]
    fn eval_slot_matches_pair_update_bitwise() {
        let (g1raw, g2raw, base) = setup();
        for theta in [0.0, 1.0] {
            let cfg = base.clone().theta(theta);
            let aligned = super::super::session::AlignedLabels::new(&g1raw, &g2raw);
            let eval = super::super::session::build_label_eval(&cfg, &aligned.interner);
            let ctx = OpCtx {
                labels1: &aligned.labels1,
                labels2: &aligned.labels2,
                label_eval: &eval,
                theta: cfg.theta,
            };
            let op = VariantOp::new(cfg.variant);
            let store = crate::candidates::enumerate_candidates(&g1raw, &g2raw, &ctx, &cfg, &op);
            let csr = PairDepCsr::build(&g1raw, &g2raw, &ctx, &store, &op, None);
            // Arbitrary (deterministic) score buffer.
            let scores: Vec<f64> = (0..store.len()).map(|i| (i % 13) as f64 / 13.0).collect();
            let view = store.view(&scores);
            let mut scratch = OpScratch::new();
            for (slot, &(u, v)) in store.pairs.iter().enumerate() {
                let direct = super::super::iterate::pair_update(
                    &g1raw,
                    &g2raw,
                    &ctx,
                    &cfg,
                    &op,
                    u,
                    v,
                    &view,
                    &mut scratch,
                );
                let label = ctx.label_sim(u, v);
                let via_csr =
                    csr.forward()
                        .eval_slot(&cfg, &op, &store, slot, &scores, &mut scratch, label);
                assert_eq!(
                    direct.to_bits(),
                    via_csr.to_bits(),
                    "theta={theta} slot {slot} ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn shard_csr_matches_full_csr_bitwise() {
        let (g1, g2, base) = setup();
        for theta in [0.0, 1.0] {
            let cfg = base.clone().theta(theta);
            let aligned = super::super::session::AlignedLabels::new(&g1, &g2);
            let eval = super::super::session::build_label_eval(&cfg, &aligned.interner);
            let ctx = OpCtx {
                labels1: &aligned.labels1,
                labels2: &aligned.labels2,
                label_eval: &eval,
                theta: cfg.theta,
            };
            let op = VariantOp::new(cfg.variant);
            let store = crate::candidates::enumerate_candidates(&g1, &g2, &ctx, &cfg, &op);
            let csr = PairDepCsr::build(&g1, &g2, &ctx, &store, &op, None);
            let scores: Vec<f64> = (0..store.len()).map(|i| (i % 7) as f64 / 7.0).collect();
            let mut scratch = OpScratch::new();
            // Split the store anywhere (including degenerate empty shards)
            // and check every slot evaluates identically through its shard.
            for cut in [0, store.len() / 2, store.len()] {
                for (lo, hi) in [(0, cut), (cut, store.len())] {
                    let shard = ShardCsr::build(&g1, &g2, &ctx, &store, &op, lo, hi);
                    assert!(shard.bytes() <= csr.bytes());
                    for slot in lo..hi {
                        let label = ctx.label_sim(store.pairs[slot].0, store.pairs[slot].1);
                        let full = csr.forward().eval_slot(
                            &cfg,
                            &op,
                            &store,
                            slot,
                            &scores,
                            &mut scratch,
                            label,
                        );
                        let via_shard = shard.cols().eval_slot(
                            &cfg,
                            &op,
                            &store,
                            slot,
                            &scores,
                            &mut scratch,
                            label,
                        );
                        assert_eq!(
                            full.to_bits(),
                            via_shard.to_bits(),
                            "theta={theta} slot {slot}"
                        );
                        // The shard's forward entries name exactly the
                        // dependencies the full CSR holds for the slot.
                        let full_deps: Vec<DepEntry> = csr.rows.out_entries
                            [csr.rows.out_offsets[slot]..csr.rows.out_offsets[slot + 1]]
                            .iter()
                            .chain(
                                &csr.rows.in_entries
                                    [csr.rows.in_offsets[slot]..csr.rows.in_offsets[slot + 1]],
                            )
                            .copied()
                            .collect();
                        let shard_deps: Vec<DepEntry> = shard.deps_of(slot).copied().collect();
                        assert_eq!(full_deps, shard_deps, "theta={theta} slot {slot}");
                    }
                }
            }
        }
    }

    #[test]
    fn mapped_spill_matches_the_built_shard_bitwise() {
        let (g1, g2, base) = setup();
        let cfg = base.clone().theta(0.0);
        let aligned = super::super::session::AlignedLabels::new(&g1, &g2);
        let eval = super::super::session::build_label_eval(&cfg, &aligned.interner);
        let ctx = OpCtx {
            labels1: &aligned.labels1,
            labels2: &aligned.labels2,
            label_eval: &eval,
            theta: cfg.theta,
        };
        let op = VariantOp::new(cfg.variant);
        let store = crate::candidates::enumerate_candidates(&g1, &g2, &ctx, &cfg, &op);
        let dir = std::env::temp_dir().join(format!("fsim-deps-spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.fsnp");
        let (lo, hi) = (0, store.len());
        let built = ShardCsr::build(&g1, &g2, &ctx, &store, &op, lo, hi);
        built.write_spill(&path).unwrap();
        let mapped = ShardCsr::from_mapped(std::sync::Arc::new(
            MappedShardCsr::map(&path, lo, hi).unwrap(),
        ));
        let scores: Vec<f64> = (0..store.len()).map(|i| (i % 5) as f64 / 5.0).collect();
        let mut scratch = OpScratch::new();
        for slot in lo..hi {
            let label = ctx.label_sim(store.pairs[slot].0, store.pairs[slot].1);
            let a = built
                .cols()
                .eval_slot(&cfg, &op, &store, slot, &scores, &mut scratch, label);
            let b = mapped
                .cols()
                .eval_slot(&cfg, &op, &store, slot, &scores, &mut scratch, label);
            assert_eq!(a.to_bits(), b.to_bits(), "slot {slot}");
            let da: Vec<DepEntry> = built.deps_of(slot).copied().collect();
            let db: Vec<DepEntry> = mapped.deps_of(slot).copied().collect();
            assert_eq!(da, db, "slot {slot}");
        }
        assert_eq!(built.bytes(), mapped.bytes());
        // A mapping is pinned to its plan range: a range mismatch is a
        // structured error (the caller rebuilds), never garbage.
        assert!(MappedShardCsr::map(&path, lo, hi + 1).is_err());
        assert!(MappedShardCsr::map(&path, 1, hi).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repaired_with_identity_remap_matches_fresh_build() {
        let (g1, g2, cfg) = setup();
        let aligned = super::super::session::AlignedLabels::new(&g1, &g2);
        let eval = super::super::session::build_label_eval(&cfg, &aligned.interner);
        let ctx = OpCtx {
            labels1: &aligned.labels1,
            labels2: &aligned.labels2,
            label_eval: &eval,
            theta: cfg.theta,
        };
        let op = VariantOp::new(cfg.variant);
        let store = crate::candidates::enumerate_candidates(&g1, &g2, &ctx, &cfg, &op);
        let csr = PairDepCsr::build(&g1, &g2, &ctx, &store, &op, None);
        let identity: Vec<u32> = (0..store.len() as u32).collect();
        // Edit the graph (add an edge), mark the touched rows dirty, and
        // check the repair equals a fresh build on the edited graph.
        let g1b = g1.with_edits(&[(0, 2)], &[], &[]);
        let dirty: Vec<bool> = store.pairs.iter().map(|&(u, _)| u == 0 || u == 2).collect();
        let repaired = csr.repaired(&g1b, &g2, &ctx, &store, &op, &identity, &identity, &dirty);
        let fresh = PairDepCsr::build(&g1b, &g2, &ctx, &store, &op, None);
        assert_eq!(repaired, fresh);
        // All-clean repair reproduces the original bit for bit.
        let clean = vec![false; store.len()];
        let same = csr.repaired(&g1, &g2, &ctx, &store, &op, &identity, &identity, &clean);
        assert_eq!(same, csr);
    }

    #[test]
    fn reverse_csr_covers_every_slot_dependency() {
        let (g1, g2, cfg) = setup();
        let aligned = super::super::session::AlignedLabels::new(&g1, &g2);
        let eval = super::super::session::build_label_eval(&cfg, &aligned.interner);
        let ctx = OpCtx {
            labels1: &aligned.labels1,
            labels2: &aligned.labels2,
            label_eval: &eval,
            theta: cfg.theta,
        };
        let op = VariantOp::new(cfg.variant);
        let store = crate::candidates::enumerate_candidates(&g1, &g2, &ctx, &cfg, &op);
        let csr = PairDepCsr::build(&g1, &g2, &ctx, &store, &op, None);
        for slot in 0..store.len() {
            let entries = csr.rows.out_entries
                [csr.rows.out_offsets[slot]..csr.rows.out_offsets[slot + 1]]
                .iter()
                .chain(
                    &csr.rows.in_entries[csr.rows.in_offsets[slot]..csr.rows.in_offsets[slot + 1]],
                );
            for e in entries {
                if e.slot != DepEntry::CONST {
                    let src = e.slot as usize;
                    let deps = &csr.rdeps[csr.rdep_offsets[src]..csr.rdep_offsets[src + 1]];
                    assert!(
                        deps.contains(&(slot as u32)),
                        "slot {slot} missing from dependents of {src}"
                    );
                }
            }
        }
    }

    /// Builds the CSR of `cfg`'s store inline and on every runtime in
    /// `rts`, and asserts the builds are identical.
    fn assert_builds_agree<O: Operator>(
        g1: &Graph,
        g2: &Graph,
        cfg: &FsimConfig,
        op: &O,
        rts: &[Runtime],
        what: &str,
    ) {
        let aligned = super::super::session::AlignedLabels::new(g1, g2);
        let eval = super::super::session::build_label_eval(cfg, &aligned.interner);
        let ctx = OpCtx {
            labels1: &aligned.labels1,
            labels2: &aligned.labels2,
            label_eval: &eval,
            theta: cfg.theta,
        };
        let store = crate::candidates::enumerate_candidates(g1, g2, &ctx, cfg, op);
        let inline = PairDepCsr::build(g1, g2, &ctx, &store, op, None);
        for rt in rts {
            let pooled = PairDepCsr::build(g1, g2, &ctx, &store, op, Some(rt));
            assert!(pooled == inline, "{what}: {} workers differ", rt.threads());
        }
    }

    #[test]
    fn pooled_build_matches_inline_build() {
        use crate::operators::SimRankOp;
        use fsim_graph::generate::{gnm, GeneratorConfig};
        use rand::SeedableRng;
        let rts = [Runtime::new(2), Runtime::new(3)];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(14);
        // Stores from a few hundred to ~10k slots (both sides of the
        // worker floor); fewer edges than nodes leave isolated nodes, so
        // rows without entries fall on chunk edges.
        for (nodes, edges) in [(15, 12), (40, 30), (100, 260)] {
            let g1 = gnm(&GeneratorConfig::new(nodes, edges, 4), &mut rng);
            let g2 = gnm(&GeneratorConfig::new(nodes, edges, 4), &mut rng);
            for variant in [
                Variant::Simple,
                Variant::Bi,
                Variant::DegreePreserving,
                Variant::Bijective,
            ] {
                for theta in [0.0, 0.6] {
                    for ub in [None, Some((0.5, 0.4))] {
                        let mut cfg = FsimConfig::new(variant).theta(theta);
                        if let Some((alpha, beta)) = ub {
                            cfg = cfg.upper_bound(alpha, beta);
                        }
                        let what = format!("n={nodes} {variant:?} theta={theta} ub={ub:?}");
                        assert_builds_agree(&g1, &g2, &cfg, &VariantOp::new(variant), &rts, &what);
                    }
                }
            }
            let cfg = FsimConfig::new(Variant::Simple);
            assert_builds_agree(
                &g1,
                &g2,
                &cfg,
                &SimRankOp,
                &rts,
                &format!("n={nodes} simrank"),
            );
        }
    }
}
