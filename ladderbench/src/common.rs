//! Shared plumbing of the four workloads: the run context, seeded input
//! generation, output checks, sample statistics, set-up repetition and
//! the in-memory span recorder.

use maddpipe_runtime::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Wall-clock budget of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs for the benchmark's own tests.
    pub short: bool,
    /// Corrupt one expected output, to prove the checks fire.
    pub wrong_expected: bool,
    /// Where run records go.
    pub out: std::path::PathBuf,
}

impl Ctx {
    /// Share of the budget before the measured phase that lets caches
    /// fill and lazy set-up finish.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.1).min(1.0))
    }

    /// Width of one throughput window: about a hundred windows per phase
    /// of `phase` seconds, never under a tenth of a second (except in
    /// short mode, where phases are tiny).
    pub fn window(&self, phase: f64) -> Duration {
        let floor = if self.short { 0.01 } else { 0.1 };
        Duration::from_secs_f64((phase / 100.0).max(floor))
    }
}

/// splitmix64: a tiny deterministic generator, so inputs depend on the
/// seed alone and cost nothing to draw.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One random INT8 token for an `ns`-stage macro.
    pub fn token(&mut self, ns: usize) -> Token {
        (0..ns)
            .map(|_| {
                let lo = self.next_u64().to_le_bytes();
                let hi = (self.next_u64() >> 56) as u8;
                std::array::from_fn(|i| lo.get(i).copied().unwrap_or(hi) as i8)
            })
            .collect()
    }
}

/// Expected outputs of a token list under the scalar spec, flattened
/// token-major (`ndec` values per token).
pub fn reference(program: &maddpipe_core::macro_rtl::MacroProgram, tokens: &[Token]) -> Vec<i16> {
    tokens
        .iter()
        .flat_map(|t| program.reference_output(t))
        .collect()
}

/// Whether every observation equals its expected row.
pub fn outputs_match(observed: &[TokenObservation], expected: &[i16]) -> bool {
    let ndec = if observed.is_empty() {
        0
    } else {
        expected.len() / observed.len()
    };
    observed.len() * ndec == expected.len()
        && observed
            .iter()
            .zip(expected.chunks(ndec.max(1)))
            .all(|(o, e)| o.outputs == e)
}

/// Share of tokens whose exact bytes occur earlier in the list.
pub fn repeated_share<'a>(tokens: impl Iterator<Item = &'a Token>) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let (mut total, mut repeats) = (0usize, 0usize);
    for t in tokens {
        total += 1;
        if !seen.insert(t) {
            repeats += 1;
        }
    }
    repeats as f64 / total.max(1) as f64
}

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples
/// (0 for an empty set).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Which stretch of a run its rates and latencies are read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reading {
    /// The median window or slice: one burst of interference from another
    /// tenant then moves the stretches it hits, not the reported figure.
    Median,
    /// The quietest twentieth of the windows or slices. On a shared host,
    /// other tenants slow a single-threaded loop down by a quarter or more
    /// for seconds at a time and never speed it up, so its quietest
    /// stretches track the code and its median stretch the neighbours.
    Quiet,
}

impl Reading {
    /// Quantile over windows of a rate (higher is quieter).
    fn rate_quantile(self) -> f64 {
        match self {
            Reading::Median => 0.5,
            Reading::Quiet => 0.95,
        }
    }
}

/// Quantile `q` of samples in time order, taken in each of up to a
/// hundred consecutive slices of at least 100 samples and read over the
/// slices as `reading` says. With fewer than 200 samples there is one
/// slice.
pub fn sliced_quantile(samples: &[f64], q: f64, reading: Reading) -> f64 {
    let slices = (samples.len() / 100).clamp(1, 100);
    let per = samples.len().div_ceil(slices).max(1);
    let values: Vec<f64> = samples.chunks(per).map(|c| quantile(c, q)).collect();
    quantile(&values, 1.0 - reading.rate_quantile())
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of samples (0 for an empty set).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Work completed over time, cut into fixed windows so a throughput is
/// read from the windows as a [`Reading`] says, not from the whole run.
#[derive(Debug)]
pub struct Windows {
    start: Instant,
    width: Duration,
    /// Per window: units completed and seconds spent inside the calls
    /// that completed them.
    cells: Vec<(f64, f64)>,
}

impl Windows {
    /// Windows of `width` starting at `start`.
    pub fn new(start: Instant, width: Duration) -> Windows {
        Windows {
            start,
            width,
            cells: Vec::new(),
        }
    }

    /// Index of the window `at` falls in.
    pub fn index(&self, at: Instant) -> usize {
        (at.saturating_duration_since(self.start).as_secs_f64() / self.width.as_secs_f64()) as usize
    }

    /// Credits `units` of work completed at `at` by a call that took
    /// `busy`.
    pub fn add(&mut self, at: Instant, units: f64, busy: Duration) {
        let idx = self.index(at);
        if self.cells.len() <= idx {
            self.cells.resize(idx + 1, (0.0, 0.0));
        }
        self.cells[idx].0 += units;
        self.cells[idx].1 += busy.as_secs_f64();
    }

    /// Units completed per second of wall time, read as `reading` says
    /// over the windows closed before `end` that `keep` selects by index
    /// (traced runs alternate traced and untraced windows) — the rate of a
    /// loop whose calls overlap.
    pub fn rate(&self, end: Instant, reading: Reading, keep: impl Fn(usize) -> bool) -> f64 {
        let width = self.width.as_secs_f64();
        self.read(end, reading, keep, |(units, _)| units / width)
    }

    /// Like [`Windows::rate`], but units per second spent inside the
    /// calls — the rate of one caller whose calls run back to back,
    /// without the time the benchmark spends checking outputs between
    /// them.
    pub fn busy_rate(&self, end: Instant, reading: Reading, keep: impl Fn(usize) -> bool) -> f64 {
        self.read(end, reading, keep, |(units, busy)| {
            if busy > 0.0 {
                units / busy
            } else {
                0.0
            }
        })
    }

    fn read(
        &self,
        end: Instant,
        reading: Reading,
        keep: impl Fn(usize) -> bool,
        rate: impl Fn((f64, f64)) -> f64,
    ) -> f64 {
        let closed = self.index(end).max(1);
        let rates: Vec<f64> = (0..closed)
            .filter(|&i| keep(i))
            .map(|i| rate(self.cells.get(i).copied().unwrap_or((0.0, 0.0))))
            .collect();
        quantile(&rates, reading.rate_quantile())
    }
}

/// Which windows a traced run records spans in: every other one, so the
/// untraced windows between them give the overhead of tracing.
pub fn traced_window(trace: bool, index: usize) -> bool {
    trace && index % 2 == 1
}

/// Set-up timing. A deployment is built repeatedly, and the reported
/// time is the median over every build. Workloads time one block of
/// builds before their measured phase (keeping its last build to serve)
/// and one after it. A single caller whose set-up takes a few
/// milliseconds or less also builds once per window of the measured
/// phase, between its calls, so the figure samples the host across the
/// whole run rather than at two moments.
#[derive(Debug, Default)]
pub struct SetupTimer {
    times: Vec<f64>,
    last_window: Option<usize>,
}

impl SetupTimer {
    /// Builds at least `min_reps` times and for at least `budget` (at
    /// most 400 builds), so short set-ups are timed many times; returns
    /// the last build and passes the others to `discard`.
    pub fn block<T>(
        &mut self,
        min_reps: usize,
        budget: Duration,
        mut build: impl FnMut() -> T,
        mut discard: impl FnMut(T),
    ) -> T {
        let begin = Instant::now();
        let mut reps = 0;
        loop {
            let t0 = Instant::now();
            let built = build();
            self.times.push(t0.elapsed().as_secs_f64());
            reps += 1;
            if reps >= min_reps && (begin.elapsed() >= budget || reps >= 400) {
                return built;
            }
            discard(built);
        }
    }

    /// Times one build, dropped at once, if this is the first call in
    /// `window`; returns whether it built.
    pub fn once_per_window<T>(&mut self, window: usize, build: impl FnOnce() -> T) -> bool {
        if self.last_window == Some(window) {
            return false;
        }
        self.last_window = Some(window);
        let t0 = Instant::now();
        let built = build();
        self.times.push(t0.elapsed().as_secs_f64());
        drop(built);
        true
    }

    /// Median build time in seconds.
    pub fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// Microseconds of a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One recorded span: a call from the benchmark into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer function called (`module::function`).
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request (or trial) every span of one operation shares.
    pub request: u64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans kept in memory while the workload runs and written out at the
/// end; recording is off in untraced runs and windows.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Whether [`Tracer::record`] keeps spans right now.
    pub enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records a span when enabled; returns its index for children.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (calls, requests or images).
    pub attempted: u64,
    /// Refused, errored and wrong-output operations.
    pub failed: u64,
    /// Wrong outputs, or simulated figures that did not repeat; any
    /// makes the run incorrect.
    pub mismatches: u64,
    /// End-to-end metrics by name (peak memory is added by the caller).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs).
    pub layer: BTreeMap<String, f64>,
    /// Facts worth a line of output that are not metrics.
    pub notes: Vec<(String, String)>,
    /// The span recorder of the run.
    pub tracer: Tracer,
}

impl Outcome {
    /// An empty outcome recording spans when `trace` is set.
    pub fn new(trace: bool) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            mismatches: 0,
            e2e: BTreeMap::new(),
            layer: BTreeMap::new(),
            notes: Vec::new(),
            tracer: Tracer::new(trace),
        }
    }

    /// Counts one operation and whether it produced the expected output.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches += 1;
        }
    }

    /// Counts one operation that was refused or returned an error.
    pub fn refused(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Sets a per-layer metric.
    pub fn set_layer(&mut self, name: impl Into<String>, value: f64) {
        self.layer.insert(name.into(), value);
    }

    /// Records per-operation latencies (ms, in time order), sliced and
    /// read as `reading` says: the p50 as an end-to-end metric; the p90,
    /// the p99 and the sample count as notes. The tail is not gated: on a
    /// shared 2-vCPU host it mostly measures how often other tenants stall
    /// the process.
    pub fn latencies(&mut self, samples: &[f64], reading: Reading) {
        self.e2e
            .insert("latency_p50_ms", sliced_quantile(samples, 0.50, reading));
        self.note("latency_p90_ms", sliced_quantile(samples, 0.90, reading));
        self.note("latency_p99_ms", quantile(samples, 0.99));
        self.note("latency_samples", samples.len());
    }

    /// Sets `tokens_per_s` of one caller whose calls run back to back:
    /// the tokens of one call over the p50 call time, so a call the host
    /// stalls counts as one slow sample, not as lost throughput. Call
    /// after [`Outcome::latencies`].
    pub fn rate_from_latency(&mut self, tokens_per_call: usize) {
        let p50_s = self.e2e["latency_p50_ms"] * 1e-3;
        self.e2e
            .insert("tokens_per_s", tokens_per_call as f64 / p50_s);
    }

    /// Adds a free-form note.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}
