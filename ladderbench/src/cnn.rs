//! `cnn_stream`: one caller keeps a fixed window of images in flight
//! through the demo CNN lowered onto functional pipeline stages. About 80
//! tokens per image, so stage hand-off, stage pools and host layers set
//! the pace and the kernel barely matters. This is the only workload
//! through the pipeline and `nn::network`.

use crate::common::*;
use maddpipe_nn::network::Network;
use maddpipe_runtime::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Images in flight.
const WINDOW: usize = 16;
/// Distinct images cycled through.
const IMAGES: usize = 1024;
/// Images per ladder trial.
const TRIAL_IMAGES: usize = 256;
/// Stage threads outnumber the host's vCPUs, so the fastest windows
/// swing with how the scheduler places them: the median window is the
/// steadier reading.
const READING: Reading = Reading::Median;

const FORWARD: &str = "ladder:nn::network::Network::forward";
const PIPELINE: &str = "ladder:runtime::pipeline::PipelineGraph";

fn deploy(spec: PipelineSpec) -> PipelineGraph {
    PipelineGraph::build(spec, PipelinePolicy::default().with_capacity(32)).expect("graph deploys")
}

fn spec(net: &Network) -> PipelineSpec {
    net.to_pipeline_spec(
        BackendKind::Functional { workers: 1 },
        &StagePolicy::default().with_replicas(2),
    )
    .expect("the demo network lowers")
}

fn same_logits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Counts the tokens a macro stage's backend is asked to run.
struct Counting {
    inner: Box<dyn MacroBackend>,
    tokens: Arc<AtomicU64>,
}

impl MacroBackend for Counting {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
        self.tokens.fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.inner.run_batch(batch)
    }
}

/// Macro tokens one image costs, counted on a separate copy of the graph
/// whose stage backends are wrapped in [`Counting`].
fn tokens_per_image(net: &Network, images: &[Vec<f32>]) -> f64 {
    let tokens = Arc::new(AtomicU64::new(0));
    let mut counted = PipelineSpec::new();
    for stage in spec(net).stages() {
        counted.push(match stage.clone() {
            StageSpec::Macro(m) => {
                let tokens = Arc::clone(&tokens);
                StageSpec::Macro(m.map_recipe(move |recipe| {
                    Arc::new(move || {
                        let tokens = Arc::clone(&tokens);
                        recipe().map(|inner| {
                            Box::new(Counting { inner, tokens }) as Box<dyn MacroBackend>
                        })
                    })
                }))
            }
            host => host,
        });
    }
    let graph = deploy(counted);
    for img in images {
        graph
            .submit(img.clone())
            .expect("within capacity")
            .wait()
            .expect("served");
    }
    graph.shutdown();
    tokens.load(Ordering::Relaxed) as f64 / images.len() as f64
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx.trace);
    let net = Network::demo(42);
    let n = if ctx.short { 32 } else { IMAGES };
    let mut rng = Rng::new(ctx.seed, 3);
    let images: Vec<Vec<f32>> = (0..n)
        .map(|_| Network::demo_image(rng.next_u64(), net.input_len()))
        .collect();
    let mut expected: Vec<Vec<f32>> = images
        .iter()
        .map(|img| net.forward(img).expect("host forward"))
        .collect();
    if ctx.wrong_expected {
        expected[0][0] += 1.0;
    }
    let per_image = tokens_per_image(&net, &images[..4.min(n)]);
    out.set_layer("input.tokens_per_image", per_image);
    out.note("input.tokens_per_image", per_image);

    let build = || deploy(spec(&net));
    let discard = |graph: PipelineGraph| {
        graph.shutdown();
    };
    let mut setup = SetupTimer::default();
    let graph = setup.block(5, Duration::from_millis(300), build, discard);

    let feed = Feed {
        graph: &graph,
        images: &images,
        expected: &expected,
    };
    let warm_end = Instant::now() + ctx.warmup();
    feed.stream(ctx, &mut out, warm_end, usize::MAX, None);
    let phase = if ctx.trace {
        ctx.seconds * 0.6
    } else {
        ctx.seconds
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(phase);
    let mut windows = Windows::new(start, ctx.window(phase));
    let latency = feed.stream(ctx, &mut out, end, usize::MAX, Some(&mut windows));
    let images_per_s = windows.rate(end, READING, |i| !traced_window(ctx.trace, i));
    out.e2e.insert("tokens_per_s", images_per_s * per_image);
    out.latencies(&latency, READING);
    out.note("images_per_s", images_per_s);

    if ctx.trace {
        let traced = windows.rate(end, READING, |i| traced_window(true, i));
        out.set_layer("trace.overhead_share", 1.0 - traced / images_per_s);
        out.tracer.enabled = true;
        ladder(ctx, &mut out, &net, &feed);
    }
    let stats = graph.shutdown();
    discard(setup.block(5, Duration::from_millis(300), build, discard));
    out.e2e.insert("setup_s", setup.median());
    out.set_layer("setup.pipeline_s", setup.median());
    if ctx.trace {
        for (profile, occupancy) in stats.stage_profiles().iter().zip(stats.stage_occupancy()) {
            let name = profile.name();
            out.set_layer(format!("stage.{name}.occupancy"), occupancy);
            out.set_layer(
                format!("stage.{name}.residence_us.p99"),
                profile.p99_residence().map_or(0.0, us),
            );
            out.set_layer(
                format!("stage.{name}.queue_high_water"),
                profile.queue_high_water() as f64,
            );
        }
    }
    out
}

/// A deployed graph with the images to feed it and their expected logits.
struct Feed<'a> {
    graph: &'a PipelineGraph,
    images: &'a [Vec<f32>],
    expected: &'a [Vec<f32>],
}

impl Feed<'_> {
    /// Streams images with [`WINDOW`] in flight until `end` or until
    /// `limit` images were submitted, then drains. With `windows`,
    /// credits completions, records spans in traced windows and returns
    /// the submit-to-reply latencies (ms) of untraced windows.
    fn stream(
        &self,
        ctx: &Ctx,
        out: &mut Outcome,
        end: Instant,
        limit: usize,
        mut windows: Option<&mut Windows>,
    ) -> Vec<f64> {
        let mut latency = Vec::new();
        let mut inflight = VecDeque::with_capacity(WINDOW);
        let mut k = 0usize;
        loop {
            while inflight.len() < WINDOW && k < limit && Instant::now() < end {
                let submit_start = Instant::now();
                match self
                    .graph
                    .submit(self.images[k % self.images.len()].clone())
                {
                    Ok(ticket) => inflight.push_back((k, submit_start, Instant::now(), ticket)),
                    Err(_) => out.refused(),
                }
                k += 1;
            }
            let Some((k, submit_start, submit_end, ticket)) = inflight.pop_front() else {
                break;
            };
            let wait_start = Instant::now();
            let reply = ticket.wait();
            let seen = Instant::now();
            let want = &self.expected[k % self.expected.len()];
            out.check(reply.is_ok_and(|r| same_logits(&r.outputs, want)));
            let Some(windows) = windows.as_deref_mut() else {
                continue;
            };
            if seen >= end {
                continue;
            }
            windows.add(seen, 1.0, Duration::ZERO);
            if traced_window(ctx.trace, windows.index(submit_start)) {
                out.tracer.enabled = true;
                let root = out
                    .tracer
                    .record("image", submit_start, seen, None, k as u64);
                out.tracer.record(
                    "runtime::pipeline::PipelineGraph::submit",
                    submit_start,
                    submit_end,
                    root,
                    k as u64,
                );
                out.tracer.record(
                    "runtime::pipeline::PipelineTicket::wait",
                    wait_start,
                    seen,
                    root,
                    k as u64,
                );
            } else {
                latency.push(ms(seen - submit_start));
            }
        }
        latency
    }
}

/// The pipeline against the single-thread host forward it reproduces,
/// as interleaved trials on the same images.
fn ladder(ctx: &Ctx, out: &mut Outcome, net: &Network, feed: &Feed) {
    let n = TRIAL_IMAGES.min(feed.images.len());
    let trial_feed = Feed {
        graph: feed.graph,
        images: &feed.images[..n],
        expected: &feed.expected[..n],
    };
    let end = Instant::now() + Duration::from_secs_f64(ctx.seconds * 0.4);
    let mut trial = 0u64;
    while Instant::now() < end {
        let t0 = Instant::now();
        let logits: Vec<_> = trial_feed
            .images
            .iter()
            .map(|img| net.forward(img))
            .collect();
        let t1 = Instant::now();
        trial_feed.stream(ctx, out, t1 + Duration::from_secs(3600), n, None);
        let t2 = Instant::now();
        out.tracer.record(FORWARD, t0, t1, None, trial);
        out.tracer.record(PIPELINE, t1, t2, None, trial);
        for (got, want) in logits.iter().zip(trial_feed.expected) {
            out.check(got.as_ref().is_ok_and(|g| same_logits(g, want)));
        }
        trial += 1;
    }
    let rate = |name: &str| n as f64 / median(&out.tracer.durations(name));
    let (forward, pipeline) = (rate(FORWARD), rate(PIPELINE));
    out.set_layer("forward.images_per_s", forward);
    out.set_layer("pipeline.over_forward", pipeline / forward);
    out.note("ladder_trials", trial);
}
