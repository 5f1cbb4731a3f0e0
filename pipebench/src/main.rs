//! `pipebench`: the repository benchmark of the fsim pipeline — parse,
//! session set-up, convergence, edits, top-k, snapshot, restore and
//! serving — end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run measures one workload for
//! about `--seconds`, checks every output against a reference, prints
//! the named figures it measured and, as its last line, one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Scratch files and the span trace live under
//! `.pipebench/`. `workloads.json` next to this package records each
//! workload's shape and which end-to-end metric each layer should move.
//!
//! A workload is made of legs that take turns over the whole run:
//! `cold_pipeline` runs a `score_cold` pass and a `dense_sharded` pass
//! in turn, `warm_session` gives time slices to `edit_stream` and
//! `serve_mixed` in turn. So each leg's samples spread over the whole
//! run rather than one stretch of it, and with two workloads each run
//! can be long (see `workloads.json`).

mod dense_sharded;
mod edit_stream;
mod inputs;
mod report;
mod score_cold;
mod serve_mixed;
mod stats;
mod trace;
mod workloads;

use fsim_core::FsimEngine;
use report::Outcome;
use stats::median;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: pipebench --workload <cold_pipeline|warm_session> --seed <n> --seconds <s> --trace <0|1>";

/// Fewest measured passes a run makes, however short `--seconds` is.
const MIN_PASSES: u64 = 3;

type Workload = fn(&Ctx) -> Outcome;

const WORKLOADS: [(&str, Workload); 2] = [
    ("cold_pipeline", workloads::cold_pipeline),
    ("warm_session", workloads::warm_session),
];

/// What every workload is handed.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Per-process scratch directory, removed when the run ends.
    pub tmp: PathBuf,
    /// State kept across runs (the exact-count records).
    pub state: PathBuf,
    /// Common time origin of every thread's spans.
    pub origin: Instant,
}

impl Ctx {
    /// A tracer for one thread of this run.
    pub fn tracer(&self) -> trace::Tracer {
        trace::Tracer::new(self.trace, self.origin)
    }

    /// Whether pass `p` is traced: every other pass of a traced run, so
    /// the untraced passes in between measure the tracing overhead.
    pub fn traced(&self, p: u64) -> bool {
        self.trace && p.is_multiple_of(2)
    }

    /// Whether a measurement loop that started at `started` and made
    /// `passes` passes has measured long enough.
    pub fn done(&self, started: Instant, passes: u64) -> bool {
        passes >= MIN_PASSES && started.elapsed().as_secs_f64() >= self.seconds
    }
}

/// The layer figures of one cold `FsimEngine::new` + `run`.
pub struct ColdRun {
    pub new_s: f64,
    pub run_s: f64,
    /// Σ `iteration_seconds()`: the time inside the iteration driver.
    pub iter_s: f64,
    pub iterations: u64,
    pub evaluated: u64,
    pub pairs: u64,
    /// Entries of the full dependency CSR (0 when none is held).
    pub deps: u64,
    pub peak_csr_bytes: u64,
}

impl ColdRun {
    pub fn of(e: &FsimEngine<'_>, new_s: f64, run_s: f64) -> Self {
        ColdRun {
            new_s,
            run_s,
            iter_s: e.iteration_seconds().iter().sum(),
            iterations: e.iterations() as u64,
            evaluated: e.pairs_evaluated().iter().sum::<usize>() as u64,
            pairs: e.pair_count() as u64,
            deps: e.dep_entry_count().unwrap_or(0) as u64,
            peak_csr_bytes: e.peak_csr_bytes() as u64,
        }
    }

    /// The counts that must repeat exactly.
    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        BTreeMap::from([
            ("store.pairs", self.pairs),
            ("iterate.iterations", self.iterations),
            ("iterate.pairs_evaluated", self.evaluated),
            ("deps.entries", self.deps),
        ])
    }
}

/// Sets the per-layer metrics every workload reports from its cold runs.
pub fn cold_layers(out: &mut Outcome, runs: &[ColdRun], overhead: f64) {
    let med = |f: &dyn Fn(&ColdRun) -> f64| {
        median(&runs.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let first = |f: fn(&ColdRun) -> u64| runs.first().map_or(f64::NAN, |c| f(c) as f64);
    out.metric("session.new_s", med(&|c| c.new_s), "s");
    out.metric("session.run_s", med(&|c| c.run_s), "s");
    out.metric("iterate.iter_s", med(&|c| c.iter_s), "s");
    out.metric("iterate.iterations", first(|c| c.iterations), "count");
    out.metric("iterate.pairs_evaluated", first(|c| c.evaluated), "count");
    out.metric(
        "iterate.eval_share",
        first(|c| c.evaluated) / (first(|c| c.pairs) * first(|c| c.iterations)),
        "ratio",
    );
    out.metric(
        "iterate.pairs_per_s",
        med(&|c| c.evaluated as f64 / c.iter_s),
        "1/s",
    );
    out.metric("store.pairs", first(|c| c.pairs), "count");
    out.metric("deps.entries", first(|c| c.deps), "count");
    out.metric("deps.peak_csr_bytes", first(|c| c.peak_csr_bytes), "bytes");
    out.metric("trace.overhead_ratio", overhead, "ratio");
}

/// Median latency of traced samples over that of untraced ones (NaN
/// unless the run traced some samples and not others).
pub fn overhead_ratio<T>(samples: &[T], traced: fn(&T) -> bool, secs: fn(&T) -> f64) -> f64 {
    let pick = |on: bool| {
        let xs: Vec<f64> = samples
            .iter()
            .filter(|s| traced(s) == on)
            .map(secs)
            .collect();
        median(&xs).unwrap_or(f64::NAN)
    };
    pick(true) / pick(false)
}

/// Sets `peak_rss_mb` from the process's `VmHWM`.
pub fn rss_metric(out: &mut Outcome) {
    match report::peak_rss_mb() {
        Some(mb) => out.metric("peak_rss_mb", mb, "MB"),
        None => out.problem("cannot read VmHWM from /proc/self/status".into()),
    }
}

/// FNV-1a fingerprint of a session's `(u, v, score-bits)` stream.
pub fn hash(e: &FsimEngine<'_>) -> u64 {
    fsim_core::score_hash(e.iter_pairs())
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, f)| f)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let state = PathBuf::from(".pipebench");
    let tmp = state.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("pipebench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        tmp,
        state,
        origin: Instant::now(),
    };
    let outcome = (args.workload)(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    let trace_path = ctx
        .state
        .join(format!("trace-{}-{}.json", args.name, args.seed));
    if outcome.print(&args.name, args.trace, &trace_path) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
