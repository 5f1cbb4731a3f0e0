//! What a run reports: operation counts, the checked outputs, the
//! metrics of the result line and the named figures printed above it.

use crate::trace::{self, Span};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The end-to-end metrics every workload reports with tracing off, in
/// `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("time_to_topk_s", "s"),
    ("warm_op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with tracing on, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 11] = [
    ("session.new_s", "s"),
    ("session.run_s", "s"),
    ("iterate.iter_s", "s"),
    ("iterate.iterations", "count"),
    ("iterate.pairs_evaluated", "count"),
    ("iterate.eval_share", "ratio"),
    ("iterate.pairs_per_s", "1/s"),
    ("store.pairs", "count"),
    ("deps.entries", "count"),
    ("deps.peak_csr_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
];

/// One workload run's outcome.
#[derive(Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
    /// Workload-specific figures, printed by name above the result line.
    figures: Vec<(String, f64, &'static str)>,
    spans: Vec<(&'static str, Vec<Span>)>,
}

impl Outcome {
    /// Counts one call into the program; an `Err` counts as failed.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(x) => Some(x),
            Err(e) => {
                self.failed += 1;
                self.problem(format!("{what} failed: {e}"));
                None
            }
        }
    }

    /// Counts `n` calls into the program that cannot fail.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed call (e.g. an HTTP error status).
    pub fn failed_op(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problem(what);
    }

    /// Records an output-gate or count-guard mismatch: the run fails.
    pub fn problem(&mut self, what: String) {
        // Keep the report readable when one defect repeats every pass.
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Checks a gate, recording `what()` when it does not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problem(what());
        }
    }

    /// Sets a metric of the result line (end-to-end or per-layer).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
        self.figure(name, value, unit);
    }

    /// Records a named figure that is printed but not part of the
    /// result line.
    pub fn figure(&mut self, name: &str, value: f64, unit: &'static str) {
        self.figures.push((name.to_string(), value, unit));
    }

    /// Keeps one thread's spans for the trace file and self-time table.
    pub fn spans(&mut self, thread: &'static str, spans: Vec<Span>) {
        self.spans.push((thread, spans));
    }

    /// Whether every output matched and nothing failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Prints the report and, last, the one-line JSON result with the
    /// end-to-end (`trace` off) or per-layer (`trace` on) metrics. The
    /// spans go to `trace_path` when there are any. Returns whether the
    /// run was correct.
    pub fn print(mut self, workload: &str, trace: bool, trace_path: &Path) -> bool {
        let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for &(name, unit) in names {
            match self.metrics.get(name) {
                None => self
                    .problems
                    .push(format!("metric {name} was not measured")),
                Some(&(v, u)) => {
                    if u != unit || !v.is_finite() {
                        self.problems
                            .push(format!("metric {name} = {v} {u} is malformed"));
                    }
                }
            }
        }
        for (name, value, unit) in &self.figures {
            println!("{workload:<14} {name:<36} {value:>16.6} {unit}");
        }
        let span_count: usize = self.spans.iter().map(|(_, s)| s.len()).sum();
        if span_count > 0 {
            // Each set holds one leg's (or one thread's) spans, which
            // never parent another set's, so each reduces on its own.
            println!(
                "{workload:<14} {:<36} {:>8} {:>12} {:>12}",
                "span", "count", "total_s", "self_s"
            );
            for (set, spans) in &self.spans {
                for (name, t) in trace::self_times(spans) {
                    println!(
                        "{workload:<14} {:<36} {:>8} {:>12.6} {:>12.6}",
                        format!("{set}:{name}"),
                        t.count,
                        t.total,
                        t.own
                    );
                }
            }
            let sets: Vec<(&str, &[Span])> =
                self.spans.iter().map(|(t, s)| (*t, s.as_slice())).collect();
            match std::fs::write(trace_path, trace::to_json(&sets)) {
                Ok(()) => println!(
                    "{workload:<14} wrote {span_count} spans to {}",
                    trace_path.display()
                ),
                Err(e) => eprintln!("pipebench: cannot write {}: {e}", trace_path.display()),
            }
        }
        for p in &self.problems {
            eprintln!("pipebench: {workload}: {p}");
        }
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for &(name, unit) in names {
            if let Some(&(v, _)) = self.metrics.get(name) {
                if v.is_finite() {
                    if !first {
                        line.push(',');
                    }
                    first = false;
                    let _ = write!(line, "\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}");
                }
            }
        }
        line.push_str("}}");
        println!("{line}");
        self.correct()
    }
}

/// Exact counts that must repeat across passes of a run and across
/// runs of one build with one seed.
pub struct CountGuard {
    first: Option<BTreeMap<&'static str, u64>>,
}

impl CountGuard {
    pub fn new() -> Self {
        CountGuard { first: None }
    }

    /// Compares a pass's counts with the first pass's.
    pub fn observe(&mut self, out: &mut Outcome, pass: u64, counts: BTreeMap<&'static str, u64>) {
        match &self.first {
            None => self.first = Some(counts),
            Some(first) => {
                if *first != counts {
                    out.problem(format!(
                        "exact counts drifted in pass {pass}: {} vs first pass {}",
                        fmt_counts(&counts),
                        fmt_counts(first)
                    ));
                }
            }
        }
    }

    /// Adds a whole-run count to the record compared across runs.
    pub fn observe_extra(&mut self, key: &'static str, value: u64) {
        self.first
            .get_or_insert_with(BTreeMap::new)
            .insert(key, value);
    }

    /// Compares the run's counts with those an earlier run of the same
    /// executable and seed left in `dir`, or leaves them there.
    pub fn across_runs(&self, out: &mut Outcome, dir: &Path, workload: &str, seed: u64) {
        let Some(counts) = &self.first else { return };
        let text = fmt_counts(counts);
        let file = dir.join(format!(
            "counts-{workload}-{seed}-{:016x}.txt",
            exe_fingerprint()
        ));
        match std::fs::read_to_string(&file) {
            Ok(earlier) => out.check(earlier.trim() == text, || {
                format!(
                    "exact counts drifted across runs: {text} vs earlier run {}",
                    earlier.trim()
                )
            }),
            Err(_) => {
                if let Err(e) = std::fs::write(&file, &text) {
                    eprintln!("pipebench: cannot write {}: {e}", file.display());
                }
            }
        }
    }
}

fn fmt_counts(c: &BTreeMap<&'static str, u64>) -> String {
    let items: Vec<String> = c.iter().map(|(k, v)| format!("{k}={v}")).collect();
    items.join(" ")
}

/// FNV-1a of the running executable, so a rebuilt program starts a new
/// count record instead of being compared with another build's.
fn exe_fingerprint() -> u64 {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut h = 0xcbf29ce484222325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists the program prints are the ones `BENCHMARK.json`
    /// declares.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().expect("closing quote"))
            .collect();
        let printed: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        for name in &printed {
            assert!(declared.contains(name), "{name} is not declared");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} is declared with another unit"
            );
        }
    }

    #[test]
    fn count_guard_flags_drift() {
        let mut out = Outcome::default();
        let mut g = CountGuard::new();
        let counts = |p: u64| BTreeMap::from([("store.pairs", 10u64), ("iterate.iterations", p)]);
        g.observe(&mut out, 0, counts(3));
        g.observe(&mut out, 1, counts(3));
        assert!(out.correct());
        g.observe(&mut out, 2, counts(4));
        assert!(!out.correct());
    }
}
