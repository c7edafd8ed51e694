//! `rtl_fig6`: batches of random tokens through the event-driven netlist
//! of the paper's Fig. 6 macro (4 decoder chains × 4 stages), one token
//! at a time through its self-synchronous accumulation pipeline
//! (`Fidelity::Sequential`). This is the only workload through
//! `sim::engine` and `runtime::rtl`. Its simulated figures are
//! measured on a fixed probe batch on a freshly built netlist, so they
//! are bit-identical across runs and seeds: a host-speed change must
//! leave them untouched.
//!
//! The flagship 16×32 netlist is not used: its working set of about
//! 80 MB makes its host speed swing by a third from run to run on a
//! shared 2-vCPU host, as other tenants contend for memory, while the
//! Fig. 6 netlist stays within about a tenth.
//!
//! Streamed tokens (`Fidelity::Pipelined`) are not used: about one token
//! in 30 000 random ones comes out of the streamed netlist different from
//! the spec when it follows certain other tokens (program seed 7, token
//! seed 99 999: batch 82, its first two tokens alone reproduce it), so a
//! run over seed-drawn tokens fails on some seeds. Sequential runs of the
//! same tokens match the spec.

use crate::common::*;
use maddpipe_core::config::MacroConfig;
use maddpipe_core::macro_rtl::{AcceleratorRtl, MacroProgram};
use maddpipe_runtime::prelude::*;
use std::time::{Duration, Instant};

/// The design under test is fixed; only the streamed tokens follow the
/// seed.
const PROGRAM_SEED: u64 = 7;
/// Tokens per `Session::run` call.
const BATCH: usize = 8;
/// Distinct tokens cycled through, in batches of [`BATCH`]: enough
/// batches that the spread of per-call work does not hang on the seed.
const TOKEN_POOL: usize = 1024;
/// The probe batch the simulated figures are measured on.
const PROBE_TOKENS: usize = 8;
const PROBE_SEED: u64 = 20_250_807;
/// One thread simulates, so other tenants only ever slow it down: the
/// quietest windows are the steadier reading.
const READING: Reading = Reading::Quiet;

fn build(cfg: &MacroConfig, program: &MacroProgram) -> Session {
    Session::builder(cfg.clone())
        .program(program.clone())
        .backend(BackendKind::Rtl {
            fidelity: Fidelity::Sequential,
        })
        .build()
        .expect("a random program fits its own shape")
}

/// Simulated figures of one probe run on a fresh netlist, per token.
#[derive(Debug, Clone, PartialEq)]
struct Probe {
    ns: f64,
    pj: f64,
    events: f64,
    evals: f64,
    transitions: f64,
    stale: f64,
    deltas: f64,
    max_queue: f64,
}

impl Probe {
    fn fields(&self) -> [(&'static str, f64); 8] {
        [
            ("sim.ns_per_token", self.ns),
            ("sim.pj_per_token", self.pj),
            ("sim.events_per_token", self.events),
            ("sim.evals_per_token", self.evals),
            ("sim.transitions_per_token", self.transitions),
            ("sim.stale_per_token", self.stale),
            ("sim.delta_cycles_per_token", self.deltas),
            ("sim.max_queue", self.max_queue),
        ]
    }

    /// One line per figure, every digit kept, for the record on disk.
    fn render(&self) -> String {
        self.fields()
            .iter()
            .map(|(name, v)| format!("{name} {v:?}\n"))
            .collect()
    }
}

/// Runs the probe batch on `session`'s fresh netlist; `None` when the
/// netlist errs or its outputs differ from the spec.
fn probe(session: &mut Session, batch: &TokenBatch, expected: &[i16]) -> Option<Probe> {
    let before = session.rtl()?.simulator().stats();
    let result = session.run(batch).ok()?;
    let after = session.rtl()?.simulator().stats();
    if !outputs_match(&result.tokens, expected) {
        return None;
    }
    let n = batch.len() as f64;
    let per = |a: u64, b: u64| (a - b) as f64 / n;
    Some(Probe {
        ns: result.makespan?.0 * 1e9 / n,
        pj: result.energy?.0 * 1e12 / n,
        events: per(after.events_popped, before.events_popped),
        evals: per(after.evals, before.evals),
        transitions: per(after.transitions, before.transitions),
        stale: per(after.events_stale, before.events_stale),
        deltas: per(after.delta_cycles, before.delta_cycles),
        max_queue: after.max_queue as f64,
    })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx.trace);
    let cfg = MacroConfig::fig6();
    let program = MacroProgram::random(cfg.ndec, cfg.ns, PROGRAM_SEED);
    let mut rng = Rng::new(ctx.seed, 4);
    let (batch, pool) = if ctx.short {
        (2, 2)
    } else {
        (BATCH, TOKEN_POOL / BATCH)
    };
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
    let probe_n = if ctx.short { 2 } else { PROBE_TOKENS };
    let mut probe_rng = Rng::new(PROBE_SEED, 0);
    let probe_batch = TokenBatch::new((0..probe_n).map(|_| probe_rng.token(cfg.ns)).collect())
        .expect("non-empty");
    let probe_expected = reference(&program, probe_batch.tokens());

    let (reps, budget) = if ctx.short {
        (2, Duration::ZERO)
    } else {
        (5, Duration::from_millis(300))
    };
    let mut setup = SetupTimer::default();
    let mut session = setup.block(reps, Duration::ZERO, || build(&cfg, &program), drop);

    // The simulated figures: the probe on two fresh netlists must agree
    // bit for bit, and with the record an earlier run left, if any.
    let t0 = Instant::now();
    let first = probe(&mut session, &probe_batch, &probe_expected);
    let t1 = Instant::now();
    let second = probe(&mut build(&cfg, &program), &probe_batch, &probe_expected);
    out.tracer
        .record("runtime::session::Session::run(probe)", t0, t1, None, 0);
    let record = ctx.out.join(format!(
        "rtl_probe.{}x{}.seed{PROGRAM_SEED}.{probe_n}tokens.txt",
        cfg.ndec, cfg.ns
    ));
    let earlier = std::fs::read_to_string(&record).ok();
    match (first, second) {
        (Some(a), Some(b)) if a == b => {
            let rendered = a.render();
            let repeats = earlier.as_ref().is_none_or(|e| *e == rendered);
            out.check(repeats);
            if !repeats {
                out.note("probe", format!("differs from {}", record.display()));
            } else if earlier.is_none() {
                if let Err(e) = std::fs::create_dir_all(&ctx.out)
                    .and_then(|()| std::fs::write(&record, &rendered))
                {
                    out.note("probe_record", format!("not written: {e}"));
                }
            }
            for (name, value) in a.fields() {
                out.set_layer(name, value);
                out.note(name, value);
            }
        }
        _ => {
            out.check(false);
            out.note("probe", "the two fresh netlists disagree or err");
        }
    }

    let mut call = 0usize;
    let warm_end = Instant::now() + ctx.warmup();
    while Instant::now() < warm_end {
        let b = call % batches.len();
        out.check(
            session
                .run(&batches[b])
                .is_ok_and(|r| outputs_match(&r.tokens, &expected[b])),
        );
        call += 1;
    }
    let events_popped = |s: &Session| s.rtl().map_or(0, |r| r.simulator().stats().events_popped);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(ctx.seconds);
    let mut windows = Windows::new(start, ctx.window(ctx.seconds));
    let (mut latencies, mut events, mut busy) = (Vec::new(), 0u64, 0.0);
    loop {
        let mut t0 = Instant::now();
        if t0 >= end {
            break;
        }
        if setup.once_per_window(windows.index(t0), || build(&cfg, &program)) {
            t0 = Instant::now();
        }
        let b = call % batches.len();
        let e0 = events_popped(&session);
        let result = session.run(&batches[b]);
        let t1 = Instant::now();
        events += events_popped(&session) - e0;
        busy += (t1 - t0).as_secs_f64();
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
        out.set_layer("sim.events_per_s", events as f64 / busy);
        let mut netlist = SetupTimer::default();
        let built = netlist.block(reps, budget, || AcceleratorRtl::build(&cfg, &program), drop);
        drop(built);
        out.set_layer("setup.rtl_build_s", netlist.median());
    }
    drop(session);
    setup.block(reps, Duration::ZERO, || build(&cfg, &program), drop);
    out.e2e.insert("setup_s", setup.median());
    out
}
