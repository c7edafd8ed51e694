//! `offline_unique`: one caller in a closed loop sends large batches of
//! unique random tokens at the flagship shape through `Session::run` on a
//! two-worker functional backend. No repeats, no queue, no pipeline: the
//! kernel, backend and session layers set the pace, and cache, pool and
//! pipeline work should leave it unchanged.

use crate::common::*;
use maddpipe_core::batched::BatchedProgram;
use maddpipe_core::config::MacroConfig;
use maddpipe_core::macro_rtl::MacroProgram;
use maddpipe_runtime::prelude::*;
use std::time::{Duration, Instant};

/// Tokens per `Session::run` call.
const BATCH: usize = 4096;
/// Distinct batches cycled through; 128 Ki unique tokens in all.
const POOL_BATCHES: usize = 32;
/// Batches each ladder trial runs through every rung.
const LADDER_BATCHES: usize = 2;
/// Two worker threads share the host's two vCPUs, so the fastest windows
/// swing with how the scheduler places them: the median window is the
/// steadier reading.
const READING: Reading = Reading::Median;

const KERNEL: &str = "ladder:core::batched::BatchedProgram::evaluate_into";
const REFERENCE: &str = "ladder:core::macro_rtl::MacroProgram::reference_output";
const BACKEND: &str = "ladder:runtime::functional::FunctionalBackend::run_batch";
const SESSION: &str = "ladder:runtime::session::Session::run";

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx.trace);
    let cfg = MacroConfig::paper_flagship();
    let program = MacroProgram::random(cfg.ndec, cfg.ns, ctx.seed);
    let (batch, pool) = if ctx.short {
        (256, 2)
    } else {
        (BATCH, POOL_BATCHES)
    };
    let mut rng = Rng::new(ctx.seed, 1);
    let batches: Vec<TokenBatch> = (0..pool)
        .map(|_| {
            TokenBatch::new((0..batch).map(|_| rng.token(cfg.ns)).collect()).expect("non-empty")
        })
        .collect();
    let mut expected: Vec<Vec<i16>> = batches
        .iter()
        .map(|b| reference(&program, b.tokens()))
        .collect();
    if ctx.wrong_expected {
        expected[0][0] = expected[0][0].wrapping_add(1);
    }
    let repeated = repeated_share(batches.iter().flat_map(|b| b.tokens()));
    out.set_layer("input.repeated_token_share", repeated);
    out.note("input.repeated_token_share", repeated);
    out.note("input.tokens_per_call", batch);

    let kind = BackendKind::Functional { workers: 2 };
    let build = || {
        Session::builder(cfg.clone())
            .program(program.clone())
            .backend(kind)
            .build()
            .expect("a random program fits its own shape")
    };
    let mut setup = SetupTimer::default();
    let mut session = setup.block(5, Duration::ZERO, build, drop);

    // Warm-up, then the measured closed loop.
    let mut call = 0usize;
    let warm_end = Instant::now() + ctx.warmup();
    while Instant::now() < warm_end {
        let b = call % pool;
        let ok = session
            .run(&batches[b])
            .is_ok_and(|r| outputs_match(&r.tokens, &expected[b]));
        out.check(ok);
        call += 1;
    }
    let phase = if ctx.trace {
        ctx.seconds * 0.5
    } else {
        ctx.seconds
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(phase);
    let mut windows = Windows::new(start, ctx.window(phase));
    let mut latencies = Vec::new();
    loop {
        let mut t0 = Instant::now();
        if t0 >= end {
            break;
        }
        if setup.once_per_window(windows.index(t0), build) {
            t0 = Instant::now();
        }
        let b = call % pool;
        let result = session.run(&batches[b]);
        let t1 = Instant::now();
        let traced = traced_window(ctx.trace, windows.index(t0));
        out.tracer.enabled = traced;
        out.tracer
            .record("runtime::session::Session::run", t0, t1, None, call as u64);
        out.check(result.is_ok_and(|r| outputs_match(&r.tokens, &expected[b])));
        windows.add(t1, batch as f64, t1 - t0);
        if !traced {
            latencies.push(ms(t1 - t0));
        }
        call += 1;
    }
    out.latencies(&latencies, READING);
    out.rate_from_latency(batch);

    if ctx.trace {
        let plain = windows.busy_rate(end, READING, |i| !traced_window(true, i));
        let traced = windows.busy_rate(end, READING, |i| traced_window(true, i));
        out.set_layer("trace.overhead_share", 1.0 - traced / plain);
        out.tracer.enabled = true;
        ladder(ctx, &mut out, &program, &mut session, &batches, &expected);
    }
    setup.block(5, Duration::ZERO, build, drop);
    out.e2e.insert("setup_s", setup.median());
    out
}

/// The rungs kernel → backend → session, plus the scalar spec they
/// replace, as interleaved trials on the same batches. Each rung's rate
/// comes from its spans; each ratio is a rung over the rung below.
fn ladder(
    ctx: &Ctx,
    out: &mut Outcome,
    program: &MacroProgram,
    session: &mut Session,
    batches: &[TokenBatch],
    expected: &[Vec<i16>],
) {
    let mut compile = SetupTimer::default();
    let view: BatchedProgram =
        compile.block(5, Duration::from_millis(100), || program.batched(), drop);
    out.set_layer("setup.batched_s", compile.median());
    let mut backend = FunctionalBackend::with_workers(program.clone(), 2);
    let n = LADDER_BATCHES.min(batches.len());
    let mut buf = vec![0i16; batches[0].len() * program.ndec()];
    let end = Instant::now() + Duration::from_secs_f64(ctx.seconds * 0.5);
    let mut trial = 0u64;
    while Instant::now() < end {
        for (b, (batch, want)) in batches.iter().zip(expected).take(n).enumerate() {
            let request = trial * n as u64 + b as u64;
            let t0 = Instant::now();
            let flat = reference(program, batch.tokens());
            let t1 = Instant::now();
            view.evaluate_into(batch.tokens(), &mut buf);
            let t2 = Instant::now();
            let from_backend = backend.run_batch(batch);
            let t3 = Instant::now();
            let from_session = session.run(batch);
            let t4 = Instant::now();
            out.tracer.record(REFERENCE, t0, t1, None, request);
            out.tracer.record(KERNEL, t1, t2, None, request);
            out.tracer.record(BACKEND, t2, t3, None, request);
            out.tracer.record(SESSION, t3, t4, None, request);
            out.check(flat == *want);
            out.check(buf == *want);
            out.check(from_backend.is_ok_and(|r| outputs_match(&r.tokens, want)));
            out.check(from_session.is_ok_and(|r| outputs_match(&r.tokens, want)));
        }
        trial += 1;
    }
    let tokens = batches[0].len() as f64;
    let rate = |name: &str| tokens / median(&out.tracer.durations(name));
    let (reference, kernel, backend, session) =
        (rate(REFERENCE), rate(KERNEL), rate(BACKEND), rate(SESSION));
    out.set_layer("reference.tokens_per_s", reference);
    out.set_layer("kernel.tokens_per_s", kernel);
    out.set_layer("kernel.over_reference", kernel / reference);
    out.set_layer("backend.tokens_per_s", backend);
    out.set_layer("backend.over_kernel", backend / kernel);
    out.set_layer("session.tokens_per_s", session);
    out.set_layer("session.over_backend", session / backend);
    out.note("ladder_trials", trial);
}
