//! The `serve_mixed` leg of `warm_session`: an in-process `fsimd` daemon
//! over loopback HTTP. In each of the leg's time slices one closed-loop
//! reader sends 90 % `GET /score` and 10 % `GET /top_k?u=`, and one
//! editor posts single-edge toggles on an open-loop 20/s schedule and
//! polls until each is visible.

use crate::edit_stream::config;
use crate::inputs::{edits_body, EditStream};
use crate::report::{CountGuard, Outcome};
use crate::stats::{median, Hist};
use crate::trace::Tracer;
use crate::{ColdRun, Ctx};
use fsim_core::{FsimConfig, FsimEngine, GraphEdit};
use fsim_graph::{io, Graph, NodeId};
use fsim_serve::client::{HttpClient, HttpResponse};
use fsim_serve::json::Json;
use fsim_serve::{Daemon, ServerConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SCALE: f64 = 0.45;
const NS: &str = "bench";
/// The editor's open-loop schedule: one edit per interval (20/s).
const EDIT_INTERVAL: Duration = Duration::from_millis(50);
const POLL_INTERVAL: Duration = Duration::from_micros(500);
/// One read in this many is a `GET /top_k?u=`; the rest are `/score`.
const TOP_K_EVERY: u32 = 10;
const READ_SALT: u64 = 0x7265_6164;
const EDIT_SALT: u64 = 0x6564_6974;

#[derive(Default)]
struct EditorLog {
    /// Edits attempted, over every slice (the edits' span ids).
    edits: u64,
    /// Due time to visible, seconds.
    visible: Vec<f64>,
    /// 202 to visible, seconds.
    lag: Vec<f64>,
    post: Vec<f64>,
    /// How late each post went out against its due time, seconds.
    late: Vec<f64>,
    posted: u64,
    requests: u64,
    polls: u64,
    failures: Vec<String>,
}

fn ok_status(r: std::io::Result<HttpResponse>, want: u16) -> Result<HttpResponse, String> {
    match r {
        Ok(resp) if resp.status == want => Ok(resp),
        Ok(resp) => Err(format!("status {}: {}", resp.status, resp.text())),
        Err(e) => Err(e.to_string()),
    }
}

fn body_u64(resp: &HttpResponse, key: &str) -> Option<u64> {
    Json::parse(&resp.text()).ok()?.get(key)?.as_u64()
}

/// Posts seeded single-edge toggles (each flip followed by its revert)
/// on a fixed schedule from now until `stop` is set and no revert is
/// owed, and polls after each post until the writer has applied it.
fn editor(
    addr: std::net::SocketAddr,
    stop: &AtomicBool,
    log: &mut EditorLog,
    stream: &mut EditStream,
    base: &Graph,
    tr: &mut Tracer,
    trace: bool,
) {
    let mut client = match HttpClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.failures.push(format!("editor connect: {e}"));
            return;
        }
    };
    let mut owed: Option<Vec<GraphEdit>> = None;
    let poll_path = format!("/score?ns={NS}&u=0&v=0");
    let start = Instant::now();
    'edits: for k in 0u32.. {
        if stop.load(Ordering::SeqCst) && owed.is_none() {
            break;
        }
        let due = start + EDIT_INTERVAL * k;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let batch = match owed.take() {
            Some(revert) => revert,
            None => {
                let (forward, revert) = stream.next_pair(base);
                owed = Some(revert);
                forward
            }
        };
        let i = log.edits;
        log.edits += 1;
        tr.set_on(trace && i.is_multiple_of(2));
        let span = tr.begin("edit", i);
        log.late.push(due.elapsed().as_secs_f64());
        let body = edits_body(&batch);
        let (r, post) = tr.timed("http.edits_post", i, || {
            client.post(&format!("/edits?ns={NS}"), &body)
        });
        log.requests += 1;
        if let Err(e) = ok_status(r, 202) {
            log.failures.push(format!("POST /edits: {e}"));
            break;
        }
        log.posted += 1;
        let acked = Instant::now();
        let poll = tr.begin("namespace.visible", i);
        loop {
            let r = ok_status(client.get(&poll_path), 200);
            log.requests += 1;
            log.polls += 1;
            match r.map(|resp| body_u64(&resp, "batches_applied")) {
                Ok(Some(applied)) if applied >= log.posted => break,
                Ok(Some(_)) => std::thread::sleep(POLL_INTERVAL),
                Ok(None) => {
                    log.failures
                        .push("GET /score: no batches_applied field".into());
                    break 'edits;
                }
                Err(e) => {
                    log.failures.push(format!("GET /score: {e}"));
                    break 'edits;
                }
            }
        }
        tr.end(poll);
        tr.end(span);
        log.visible.push(due.elapsed().as_secs_f64());
        log.lag.push(acked.elapsed().as_secs_f64());
        log.post.push(post);
    }
}

/// A daemon up to its first epoch and first top-k answer.
struct Setup {
    daemon: Daemon,
    client: HttpClient,
    /// The first epoch's `x-fsim-score-hash`.
    hash: u64,
    setup: f64,
    to_topk: f64,
    cold: ColdRun,
}

/// One set-up repetition: parse → session → converge → daemon with the
/// namespace at its first epoch → first `GET /top_k` answer.
fn set_up(out: &mut Outcome, tr: &mut Tracer, text: &str, cfg: &FsimConfig, rep: u64) -> Setup {
    let span = tr.begin("setup", rep);
    let t0 = Instant::now();
    let (g, _) = tr.timed("io.parse", rep, || io::from_text(text));
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
    out.ok(1);
    let cold = ColdRun::of(&e, new_s, run_s);
    let (d, _) = tr.timed("namespace.start", rep, || {
        Daemon::bind("127.0.0.1:0", ServerConfig::default()).inspect(|d| d.add_namespace(NS, e))
    });
    let daemon = out.op("Daemon::bind", d).expect("loopback bind");
    let setup = t0.elapsed().as_secs_f64();
    let mut client = out
        .op("HttpClient::connect", HttpClient::connect(daemon.addr()))
        .expect("loopback connect");
    let (r, _) = tr.timed("http.top_k", rep, || {
        client.get(&format!("/top_k?ns={NS}&k=10"))
    });
    let to_topk = t0.elapsed().as_secs_f64();
    tr.end(span);
    let hash = out
        .op("GET /top_k", ok_status(r, 200))
        .and_then(|resp| score_hash_header(&resp))
        .unwrap_or(0);
    Setup {
        daemon,
        client,
        hash,
        setup,
        to_topk,
        cold,
    }
}

fn score_hash_header(resp: &HttpResponse) -> Option<u64> {
    let h = resp.header("x-fsim-score-hash")?;
    u64::from_str_radix(h.trim_start_matches("0x"), 16).ok()
}

pub struct ServeLeg {
    text: String,
    cfg: FsimConfig,
    base: Graph,
    guard: CountGuard,
    /// Per set-up repetition: up to the first epoch, and up to the
    /// first `GET /top_k` answer.
    setup: Vec<f64>,
    to_topk: Vec<f64>,
    /// The daemon the slices load, its reader connection and the first
    /// epoch's score hash.
    daemon: Daemon,
    client: HttpClient,
    initial: u64,
    read_rng: ChaCha8Rng,
    reader_tr: Tracer,
    all: Hist,
    by_route: [Hist; 2],
    by_trace: [Hist; 2],
    /// The reader's wall clock over every slice.
    read_wall: f64,
    edit_stream: EditStream,
    editor_tr: Tracer,
    log: EditorLog,
}

impl ServeLeg {
    /// Sets up the daemon the slices load (set-up repetition 0).
    pub fn new(ctx: &Ctx, out: &mut Outcome) -> Self {
        let text = crate::inputs::graph_text(SCALE, ctx.seed);
        let base = io::from_text(&text).expect("generated graph text parses");
        let cfg = config();
        let mut reader_tr = ctx.tracer();
        reader_tr.set_on(ctx.traced(0));
        let first = set_up(out, &mut reader_tr, &text, &cfg, 0);
        let mut guard = CountGuard::new();
        guard.observe(out, 0, first.cold.counts());
        out.check(first.hash != 0, || {
            "the first epoch carries no score hash".into()
        });
        ServeLeg {
            text,
            cfg,
            base,
            guard,
            setup: vec![first.setup],
            to_topk: vec![first.to_topk],
            daemon: first.daemon,
            client: first.client,
            initial: first.hash,
            read_rng: ChaCha8Rng::seed_from_u64(ctx.seed ^ READ_SALT),
            reader_tr,
            all: Hist::new(),
            by_route: [Hist::new(), Hist::new()],
            by_trace: [Hist::new(), Hist::new()],
            read_wall: 0.0,
            edit_stream: EditStream::new(ctx.seed ^ EDIT_SALT, &[1]),
            editor_tr: ctx.tracer(),
            log: EditorLog::default(),
        }
    }

    /// One more set-up repetition on a daemon of its own, checked
    /// against the first and shut down again.
    pub fn setup_rep(&mut self, ctx: &Ctx, out: &mut Outcome) {
        let rep = self.setup.len() as u64;
        self.reader_tr.set_on(ctx.traced(rep));
        let mut r = set_up(out, &mut self.reader_tr, &self.text, &self.cfg, rep);
        let initial = self.initial;
        out.check(r.hash == initial, || {
            format!(
                "set-up {rep}: first epoch hash {:#x} differs from {initial:#x}",
                r.hash
            )
        });
        self.guard.observe(out, rep, r.cold.counts());
        self.setup.push(r.setup);
        self.to_topk.push(r.to_topk);
        drop(r.client);
        r.daemon.shutdown();
    }

    /// Loads the daemon until `until`: the reader on this thread, the
    /// editor beside it, which then drains its owed revert.
    pub fn slice(&mut self, ctx: &Ctx, out: &mut Outcome, until: Instant) {
        let n = self.base.node_count() as NodeId;
        let stop = AtomicBool::new(false);
        let addr = self.daemon.addr();
        let (log, stream, base, editor_tr) = (
            &mut self.log,
            &mut self.edit_stream,
            &self.base,
            &mut self.editor_tr,
        );
        let (stop, trace) = (&stop, ctx.trace);
        std::thread::scope(|s| {
            let editor = s.spawn(move || editor(addr, stop, log, stream, base, editor_tr, trace));
            let started = Instant::now();
            loop {
                let rng = &mut self.read_rng;
                let top_k = rng.gen_range(0..TOP_K_EVERY) == 0;
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let path = if top_k {
                    format!("/top_k?ns={NS}&u={u}&k=10")
                } else {
                    format!("/score?ns={NS}&u={u}&v={v}")
                };
                let i = self.all.len() as u64;
                let tr = &mut self.reader_tr;
                tr.set_on(ctx.traced(i));
                let name = if top_k { "http.top_k" } else { "http.score" };
                let client = &mut self.client;
                let (r, secs) = tr.timed(name, i, || client.get(&path));
                out.op(name, ok_status(r, 200));
                self.all.add(secs);
                self.by_route[top_k as usize].add(secs);
                self.by_trace[tr.is_on() as usize].add(secs);
                if Instant::now() >= until {
                    break;
                }
            }
            self.read_wall += started.elapsed().as_secs_f64();
            stop.store(true, Ordering::SeqCst);
            editor.join().expect("editor thread");
        });
    }

    /// Runs the output gates and reports the leg: `ops_per_s` (the
    /// reads per second of the reader's wall clock) and the leg's named
    /// figures.
    pub fn finish(mut self, ctx: &Ctx, out: &mut Outcome) {
        // Output gates: the toggles cancel, so the drained namespace
        // serves the initial scores; every read the clients sent was
        // counted.
        self.reader_tr.set_on(false);
        let (initial, log) = (self.initial, &self.log);
        let client = &mut self.client;
        let final_read = out.op(
            "GET /score",
            ok_status(client.get(&format!("/score?ns={NS}&u=0&v=0")), 200),
        );
        let served = final_read.as_ref().and_then(score_hash_header);
        out.check(served == Some(initial), || {
            format!(
                "served score hash {served:x?} differs from the initial {initial:#x} after the toggles"
            )
        });
        let stats = out.op(
            "GET /stats",
            ok_status(client.get(&format!("/stats?ns={NS}")), 200),
        );
        let stat = |key: &str| {
            stats
                .as_ref()
                .and_then(|r| body_u64(r, key))
                .map_or(f64::NAN, |v| v as f64)
        };
        // The set-up top-k, the measured reads, the editor's polls and
        // the final read all count as reads.
        let all = &self.all;
        let client_reads = 1 + all.len() as u64 + log.polls + 1;
        out.check(stat("reads") == client_reads as f64, || {
            format!(
                "the daemon counted {} reads, the clients sent {client_reads}",
                stat("reads")
            )
        });
        out.check(stat("batches_applied") == log.posted as f64, || {
            format!(
                "{} edits posted, {} applied",
                log.posted,
                stat("batches_applied")
            )
        });
        for f in &log.failures {
            out.failed_op(f.clone());
        }
        out.ok(log.requests.saturating_sub(log.failures.len() as u64));
        drop(self.client);
        self.daemon.shutdown();
        self.guard
            .across_runs(out, &ctx.state, "serve_mixed", ctx.seed);

        let p50 = all.quantile(0.5).unwrap_or(f64::NAN);
        let med = |h: &Hist| h.quantile(0.5).unwrap_or(f64::NAN);
        let qps = all.len() as f64 / self.read_wall;
        out.metric("ops_per_s", qps, "1/s");
        out.figure("serve.setups", self.setup.len() as f64, "count");
        out.figure(
            "serve.setup_s",
            median(&self.setup).unwrap_or(f64::NAN),
            "s",
        );
        out.figure(
            "serve.time_to_topk_s",
            median(&self.to_topk).unwrap_or(f64::NAN),
            "s",
        );
        out.figure("read_qps", qps, "1/s");
        out.figure("read_p50_us", p50 * 1e6, "us");
        if let Some(p99) = all.reportable(0.99) {
            out.figure("read_p99_us", p99 * 1e6, "us");
        }
        if let Some((name, v)) = all.tail().filter(|&(name, _)| name == "p99.9") {
            out.figure(&format!("read_{name}_us"), v * 1e6, "us");
        }
        out.figure("edits_visible", log.visible.len() as f64, "count");
        out.figure(
            "edit_visible_p50_ms",
            median(&log.visible).unwrap_or(f64::NAN) * 1e3,
            "ms",
        );
        out.figure(
            "edits.gen_late_max_ms",
            log.late.iter().copied().fold(0.0, f64::max) * 1e3,
            "ms",
        );
        out.figure(
            "serve.trace_overhead_ratio",
            med(&self.by_trace[1]) / med(&self.by_trace[0]),
            "ratio",
        );
        out.figure("http.score_us", med(&self.by_route[0]) * 1e6, "us");
        out.figure("http.top_k_us", med(&self.by_route[1]) * 1e6, "us");
        out.figure(
            "http.edits_post_us",
            median(&log.post).unwrap_or(f64::NAN) * 1e6,
            "us",
        );
        out.figure(
            "namespace.publish_lag_ms",
            median(&log.lag).unwrap_or(f64::NAN) * 1e3,
            "ms",
        );
        for (key, name) in [
            ("epochs_published", "namespace.epochs_published"),
            ("batches_applied", "namespace.batches_applied"),
            ("batches_rejected_full", "namespace.batches_rejected_429"),
            ("reads", "namespace.reads"),
        ] {
            out.figure(name, stat(key), "count");
        }
        out.spans("serve_reader", self.reader_tr.into_spans());
        out.spans("serve_editor", self.editor_tr.into_spans());
    }
}
