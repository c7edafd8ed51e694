//! `serve_repeat`: one generator thread offers 64-token flagship requests
//! on a fixed schedule (an open loop) to a two-replica `ReplicaPool` of
//! cached functional backends. Nine tokens in ten come from a hot set of
//! 256 patches and the rest are fresh; each replica's store is bounded
//! well below the fresh working set, so hits, misses, inserts and
//! evictions all occur. This is the only workload through the pool's
//! admission, coalescing and tickets and through the result cache; the
//! kernel runs on about one token in ten.

use crate::common::*;
use maddpipe_core::config::MacroConfig;
use maddpipe_core::macro_rtl::MacroProgram;
use maddpipe_runtime::prelude::*;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load, requests per second: about half of what the pool
/// serves on a 2-vCPU host, so the queue stays short and latency, not
/// capacity, is what moves.
const RATE_RPS: f64 = 8000.0;
const TOKENS_PER_REQUEST: usize = 64;
const HOT_TOKENS: usize = 256;
const HOT_SHARE: f64 = 0.9;
/// Distinct requests cycled through: about 13 Ki fresh tokens per pass,
/// far above what one store holds.
const REQUEST_POOL: usize = 2048;
/// Entries per replica's result store.
const STORE_ENTRIES: usize = 1024;
/// Latency is read from the median slice of the run.
const READING: Reading = Reading::Median;

const HIT: &str = "ladder:runtime::cache::CachedBackend::run_batch(all hits)";
const MISS: &str = "ladder:runtime::cache::CachedBackend::run_batch(fresh store)";
const UNCACHED: &str = "ladder:runtime::session::Session::run(uncached)";

fn kind() -> BackendKind {
    BackendKind::Cached {
        cache: CacheConfig::default().with_max_entries(STORE_ENTRIES),
        inner: CachedKind::Functional { workers: 1 },
    }
}

/// What the collector saw of one request.
struct Reply {
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    wait_start: Instant,
    seen: Instant,
    ok: bool,
    queue_wait: Duration,
    service: Duration,
    coalesced: usize,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx.trace);
    let cfg = MacroConfig::paper_flagship();
    let program = MacroProgram::random(cfg.ndec, cfg.ns, ctx.seed);
    let pool_size = if ctx.short { 32 } else { REQUEST_POOL };
    let mut rng = Rng::new(ctx.seed, 2);
    let hot: Vec<Token> = (0..HOT_TOKENS).map(|_| rng.token(cfg.ns)).collect();
    let requests: Vec<Vec<Token>> = (0..pool_size)
        .map(|_| {
            (0..TOKENS_PER_REQUEST)
                .map(|_| {
                    if rng.unit() < HOT_SHARE {
                        hot[rng.below(HOT_TOKENS)].clone()
                    } else {
                        rng.token(cfg.ns)
                    }
                })
                .collect()
        })
        .collect();
    let mut expected: Vec<Vec<i16>> = requests.iter().map(|r| reference(&program, r)).collect();
    if ctx.wrong_expected {
        expected[0][0] = expected[0][0].wrapping_add(1);
    }
    let repeated = repeated_share(requests.iter().flatten());
    out.set_layer("input.repeated_token_share", repeated);
    out.note("input.repeated_token_share", repeated);
    out.note("input.offered_rps", RATE_RPS);

    let policy = ServePolicy::default().with_replicas(2).with_queue(
        QueuePolicy::default()
            .with_max_batch(256)
            .with_max_linger(Duration::from_micros(100)),
    );
    let build = || {
        Session::builder(cfg.clone())
            .program(program.clone())
            .backend(kind())
            .into_pool(policy.clone())
            .expect("the pool comes up")
    };
    let discard = |pool: ReplicaPool| {
        pool.shutdown();
    };
    let mut setup = SetupTimer::default();
    let pool = setup.block(5, Duration::from_millis(300), build, discard);

    // The schedule: request k is due at `origin + k / RATE_RPS`; the
    // measured phase starts after the warm-up.
    let phase = if ctx.trace {
        ctx.seconds * 0.6
    } else {
        ctx.seconds
    };
    let warm = ctx.warmup().as_secs_f64();
    let rate = if ctx.short { RATE_RPS / 8.0 } else { RATE_RPS };
    let count = ((warm + phase) * rate) as usize;
    let origin = Instant::now() + Duration::from_millis(1);
    let due = |k: usize| origin + Duration::from_secs_f64(k as f64 / rate);
    let start = origin + Duration::from_secs_f64(warm);
    let end = start + Duration::from_secs_f64(phase);

    let mut refused = 0u64;
    let replies: Vec<(usize, Reply)> = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, Instant, BatchTicket)>();
        let expected = &expected;
        let collector = scope.spawn(move || {
            let mut replies = Vec::with_capacity(count);
            for (k, due, submit_start, submit_end, ticket) in rx {
                let wait_start = Instant::now();
                let reply = ticket.wait();
                let seen = Instant::now();
                let want = &expected[k % expected.len()];
                let (ok, queue_wait, service, coalesced) = match reply {
                    Ok(r) => (
                        outputs_match(&r.result.tokens, want),
                        r.queue_wait,
                        r.service,
                        r.coalesced_tokens,
                    ),
                    Err(_) => (false, Duration::ZERO, Duration::ZERO, 0),
                };
                replies.push((
                    k,
                    Reply {
                        due,
                        submit_start,
                        submit_end,
                        wait_start,
                        seen,
                        ok,
                        queue_wait,
                        service,
                        coalesced,
                    },
                ));
            }
            replies
        });
        let mut next = TokenBatch::new(requests[0].clone()).expect("non-empty");
        for k in 0..count {
            let due_k = due(k);
            let now = Instant::now();
            if due_k > now {
                std::thread::sleep(due_k - now);
            }
            let submit_start = Instant::now();
            let submitted = pool.submit(next);
            let submit_end = Instant::now();
            match submitted {
                Ok(ticket) => tx
                    .send((k, due_k, submit_start, submit_end, ticket))
                    .expect("the collector outlives the generator"),
                Err(_) => refused += 1,
            }
            next = TokenBatch::new(requests[(k + 1) % requests.len()].clone()).expect("non-empty");
        }
        drop(tx);
        collector.join().expect("the collector does not panic")
    });
    let stats = pool.shutdown();
    discard(setup.block(5, Duration::from_millis(300), build, discard));
    out.e2e.insert("setup_s", setup.median());
    out.set_layer("setup.pool_s", setup.median());

    for (_, r) in &replies {
        out.check(r.ok);
    }
    for _ in 0..refused {
        out.refused();
    }
    // Goodput: tokens served correctly for the requests due in the
    // measured phase, over the time until the last of them was answered.
    let windows = Windows::new(start, ctx.window(phase));
    let (mut served, mut last_seen) = (0.0, start);
    let (mut latency, mut traced_latency) = (Vec::new(), Vec::new());
    let (mut submit, mut wait, mut service, mut handoff, mut lag, mut coalesced) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for (k, r) in &replies {
        if r.due < start || r.due >= end {
            continue;
        }
        let traced = traced_window(ctx.trace, windows.index(r.due));
        let due_to_reply = ms(r.seen - r.due);
        if traced {
            traced_latency.push(due_to_reply);
            let root = out.tracer.record("request", r.due, r.seen, None, *k as u64);
            out.tracer.record(
                "runtime::pool::ReplicaPool::submit",
                r.submit_start,
                r.submit_end,
                root,
                *k as u64,
            );
            out.tracer.record(
                "runtime::queue::BatchTicket::wait",
                r.wait_start,
                r.seen,
                root,
                *k as u64,
            );
        } else {
            latency.push(due_to_reply);
        }
        if r.ok {
            served += TOKENS_PER_REQUEST as f64;
            last_seen = last_seen.max(r.seen);
        }
        lag.push(ms(r.submit_start - r.due));
        submit.push(us(r.submit_end - r.submit_start));
        wait.push(us(r.queue_wait));
        service.push(us(r.service));
        handoff.push(us(r.seen - r.submit_start) - us(r.queue_wait) - us(r.service));
        coalesced.push(r.coalesced as f64);
    }
    out.e2e
        .insert("tokens_per_s", served / (last_seen - start).as_secs_f64());
    out.latencies(&latency, READING);
    out.note("refused", refused);
    out.note("gen.lag_ms.p99", quantile(&lag, 0.99));

    let cache = stats.cache();
    let lookups = (cache.hits + cache.misses + cache.dedup).max(1) as f64;
    out.note("cache.hit_share", cache.hits as f64 / lookups);
    if ctx.trace {
        let traced_p50 = quantile(&traced_latency, 0.5);
        out.set_layer(
            "trace.overhead_share",
            traced_p50 / quantile(&latency, 0.5) - 1.0,
        );
        out.set_layer("gen.lag_ms.p99", quantile(&lag, 0.99));
        out.set_layer("pool.submit_us.p50", median(&submit));
        out.set_layer("pool.queue_wait_us.p50", median(&wait));
        out.set_layer("pool.queue_wait_us.p99", quantile(&wait, 0.99));
        out.set_layer("pool.service_us.p50", median(&service));
        out.set_layer("pool.handoff_us.p50", median(&handoff));
        out.set_layer("pool.coalesced_tokens.mean", mean(&coalesced));
        out.set_layer(
            "pool.replica_busy_share",
            mean(&stats.replica_utilisation()),
        );
        out.set_layer("pool.retries", stats.retries() as f64);
        out.set_layer("pool.refused", refused as f64);
        out.set_layer("cache.hit_share", cache.hits as f64 / lookups);
        out.set_layer("cache.dedup_share", cache.dedup as f64 / lookups);
        out.set_layer("cache.evictions", cache.evictions as f64);
        let fresh: Vec<Token> = (0..HOT_TOKENS).map(|_| rng.token(cfg.ns)).collect();
        cache_ladder(ctx, &mut out, &cfg, &program, hot, fresh);
    }
    out
}

/// The cache rung against the session rung below it, as interleaved
/// trials: the same hot tokens through an uncached session and through a
/// warm store (all hits), and fresh tokens through a fresh store (all
/// misses).
fn cache_ladder(
    ctx: &Ctx,
    out: &mut Outcome,
    cfg: &MacroConfig,
    program: &MacroProgram,
    hot: Vec<Token>,
    fresh: Vec<Token>,
) {
    let session = |kind: BackendKind| {
        Session::builder(cfg.clone())
            .program(program.clone())
            .backend(kind)
            .build()
            .expect("a random program fits its own shape")
    };
    let (want_hot, want_fresh) = (reference(program, &hot), reference(program, &fresh));
    let hot = TokenBatch::new(hot).expect("non-empty");
    let fresh = TokenBatch::new(fresh).expect("non-empty");
    let mut uncached = session(BackendKind::Functional { workers: 1 });
    let mut warm = session(kind());
    out.check(
        warm.run(&hot)
            .is_ok_and(|r| outputs_match(&r.tokens, &want_hot)),
    );
    let end = Instant::now() + Duration::from_secs_f64(ctx.seconds * 0.4);
    let mut trial = 0u64;
    while Instant::now() < end {
        let mut cold = session(kind());
        let t0 = Instant::now();
        let a = uncached.run(&hot);
        let t1 = Instant::now();
        let b = warm.run(&hot);
        let t2 = Instant::now();
        let c = cold.run(&fresh);
        let t3 = Instant::now();
        out.tracer.record(UNCACHED, t0, t1, None, trial);
        out.tracer.record(HIT, t1, t2, None, trial);
        out.tracer.record(MISS, t2, t3, None, trial);
        out.check(a.is_ok_and(|r| outputs_match(&r.tokens, &want_hot)));
        out.check(b.is_ok_and(|r| outputs_match(&r.tokens, &want_hot)));
        out.check(c.is_ok_and(|r| outputs_match(&r.tokens, &want_fresh)));
        trial += 1;
    }
    let tokens = hot.len() as f64;
    let rate = |name: &str| tokens / median(&out.tracer.durations(name));
    let (uncached, hit, miss) = (rate(UNCACHED), rate(HIT), rate(MISS));
    out.set_layer("cache.hit_tokens_per_s", hit);
    out.set_layer("cache.miss_tokens_per_s", miss);
    out.set_layer("cache.hit_over_session", hit / uncached);
    out.note("cache_ladder_trials", trial);
}
