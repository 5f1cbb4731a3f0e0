//! The two workloads, each made of legs that take turns over the run.

use crate::dense_sharded::DenseSharded;
use crate::edit_stream::EditStreamLeg;
use crate::report::Outcome;
use crate::score_cold::ScoreCold;
use crate::serve_mixed::ServeLeg;
use crate::Ctx;
use std::time::{Duration, Instant};

/// Length of one `warm_session` time slice, seconds (shortened so that
/// a run holds a whole, even number of slices).
const SLICE_S: f64 = 2.5;
/// `edit_stream` set-up repetitions at the start of each of its slices.
const EDIT_SETUPS_PER_SLICE: usize = 16;
/// `serve_mixed` set-up repetitions at the start of each of its slices.
const SERVE_SETUPS_PER_SLICE: usize = 2;

/// `cold_pipeline`: one `score_cold` pass, then one `dense_sharded`
/// pass, until the run has measured long enough. The end-to-end
/// timings are `score_cold`'s; `ops_per_s` counts pipeline passes (both
/// legs) per second of their time.
pub fn cold_pipeline(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut score = ScoreCold::new(ctx);
    let mut dense = DenseSharded::new(ctx);
    let started = Instant::now();
    let (mut p, mut busy) = (0u64, 0.0);
    while !ctx.done(started, p) {
        let Some(a) = score.pass(ctx, &mut out, p) else {
            break;
        };
        let Some(b) = dense.pass(ctx, &mut out, p) else {
            break;
        };
        busy += a + b;
        p += 1;
    }
    score.finish(ctx, &mut out);
    dense.finish(ctx, &mut out);
    out.metric("ops_per_s", p as f64 / busy, "1/s");
    crate::rss_metric(&mut out);
    out
}

/// `warm_session`: time slices alternate between `edit_stream` (set-up
/// repetitions, then flip batches and their reverts) and `serve_mixed`
/// (set-up repetitions, then the reader and the editor). `setup_s`,
/// `time_to_topk_s` and `warm_op_p50_ms` are `edit_stream`'s;
/// `ops_per_s` is `serve_mixed`'s read rate.
pub fn warm_session(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut edits = EditStreamLeg::new(ctx, &mut out);
    let mut serve = ServeLeg::new(ctx, &mut out);
    let slices = 2 * (ctx.seconds / (2.0 * SLICE_S)).ceil().max(1.0) as u32;
    let slice = Duration::from_secs_f64(ctx.seconds / slices as f64);
    let started = Instant::now();
    for k in 0..slices {
        let until = started + slice * (k + 1);
        if k % 2 == 0 {
            for _ in 0..EDIT_SETUPS_PER_SLICE {
                edits.setup_rep(ctx, &mut out);
            }
            loop {
                edits.batch(ctx, &mut out);
                if Instant::now() >= until {
                    break;
                }
            }
        } else {
            for _ in 0..SERVE_SETUPS_PER_SLICE {
                serve.setup_rep(ctx, &mut out);
            }
            serve.slice(ctx, &mut out, until);
        }
    }
    edits.finish(ctx, &mut out);
    serve.finish(ctx, &mut out);
    crate::rss_metric(&mut out);
    out
}
