//! The maddpipe benchmark: one command runs one named workload through
//! the public API, checks every output against the scalar spec, and
//! prints its metrics by name and unit, ending with one JSON line.
//!
//! ```text
//! ladderbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!             [--short] [--wrong-expected] [--out <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured untraced.
//! `--trace 1` is the separate traced run: it records spans around the
//! benchmark's calls into each layer, derives the per-layer metrics from
//! them, and writes the spans out at the end. `--short` runs the workload
//! at tiny size (the benchmark's own tests); `--wrong-expected` corrupts
//! one expected output so the tests can see the checks fire. Run records
//! go to `--out`, by default `ladderbench/runs` under the current
//! directory. The exit code is 0 only when every output was correct.

mod cnn;
mod common;
mod offline;
mod rtl;
mod serve;

use common::{Ctx, Outcome};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// A workload: builds its deployment, drives it and checks its outputs.
type Workload = fn(&Ctx) -> Outcome;

/// The workloads, by name.
const WORKLOADS: &[(&str, Workload)] = &[
    ("offline_unique", offline::run),
    ("serve_repeat", serve::run),
    ("cnn_stream", cnn::run),
    ("rtl_fig6", rtl::run),
];

/// End-to-end metrics every workload reports, with their units.
const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tokens_per_s", "tokens/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every traced run reports, with their units. A
/// workload that does not pass through a layer reports 0 for it.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("kernel.tokens_per_s", "tokens/s"),
    ("reference.tokens_per_s", "tokens/s"),
    ("kernel.over_reference", "ratio"),
    ("backend.tokens_per_s", "tokens/s"),
    ("backend.over_kernel", "ratio"),
    ("session.tokens_per_s", "tokens/s"),
    ("session.over_backend", "ratio"),
    ("cache.hit_share", "share"),
    ("cache.dedup_share", "share"),
    ("cache.evictions", "count"),
    ("cache.hit_tokens_per_s", "tokens/s"),
    ("cache.miss_tokens_per_s", "tokens/s"),
    ("cache.hit_over_session", "ratio"),
    ("pool.submit_us.p50", "us"),
    ("pool.queue_wait_us.p50", "us"),
    ("pool.queue_wait_us.p99", "us"),
    ("pool.service_us.p50", "us"),
    ("pool.handoff_us.p50", "us"),
    ("pool.coalesced_tokens.mean", "tokens"),
    ("pool.replica_busy_share", "share"),
    ("pool.retries", "count"),
    ("pool.refused", "count"),
    ("pipeline.over_forward", "ratio"),
    ("stage.0-conv.occupancy", "share"),
    ("stage.0-conv.residence_us.p99", "us"),
    ("stage.0-conv.queue_high_water", "count"),
    ("stage.1-relu.occupancy", "share"),
    ("stage.1-relu.residence_us.p99", "us"),
    ("stage.1-relu.queue_high_water", "count"),
    ("stage.2-pool.occupancy", "share"),
    ("stage.2-pool.residence_us.p99", "us"),
    ("stage.2-pool.queue_high_water", "count"),
    ("stage.3-conv.occupancy", "share"),
    ("stage.3-conv.residence_us.p99", "us"),
    ("stage.3-conv.queue_high_water", "count"),
    ("stage.4-relu.occupancy", "share"),
    ("stage.4-relu.residence_us.p99", "us"),
    ("stage.4-relu.queue_high_water", "count"),
    ("stage.5-pool.occupancy", "share"),
    ("stage.5-pool.residence_us.p99", "us"),
    ("stage.5-pool.queue_high_water", "count"),
    ("stage.6-affine.occupancy", "share"),
    ("stage.6-affine.residence_us.p99", "us"),
    ("stage.6-affine.queue_high_water", "count"),
    ("stage.7-linear.occupancy", "share"),
    ("stage.7-linear.residence_us.p99", "us"),
    ("stage.7-linear.queue_high_water", "count"),
    ("forward.images_per_s", "images/s"),
    ("sim.events_per_s", "events/s"),
    ("sim.events_per_token", "events/token"),
    ("sim.evals_per_token", "evals/token"),
    ("sim.transitions_per_token", "edges/token"),
    ("sim.stale_per_token", "events/token"),
    ("sim.delta_cycles_per_token", "deltas/token"),
    ("sim.max_queue", "events"),
    ("sim.ns_per_token", "sim_ns/token"),
    ("sim.pj_per_token", "sim_pJ/token"),
    ("setup.batched_s", "s"),
    ("setup.pool_s", "s"),
    ("setup.pipeline_s", "s"),
    ("setup.rtl_build_s", "s"),
    ("gen.lag_ms.p99", "ms"),
    ("input.repeated_token_share", "share"),
    ("input.tokens_per_image", "tokens"),
    ("trace.overhead_share", "share"),
];

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut short, mut wrong_expected, mut out) = (false, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--short" => short = true,
            "--wrong-expected" => wrong_expected = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let out = match out {
        Some(dir) => dir,
        None => std::env::current_dir()
            .map_err(|e| format!("no current directory: {e}"))?
            .join("ladderbench")
            .join("runs"),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            short,
            wrong_expected,
            out,
        },
    })
}

/// Peak resident memory of this process, from the kernel's high-water
/// mark.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// A JSON number with every digit `{}` prints (non-finite values are not
/// JSON; they become 0 and are flagged by the caller's checks).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Writes the run record and (traced runs) the spans under `dir`.
fn write_records(
    dir: &std::path::Path,
    args: &Args,
    outcome: &Outcome,
    e2e: &[(&str, f64, &str)],
    layer: &[(&str, f64, &str)],
) -> std::io::Result<()> {
    use std::io::Write as _;
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}{}.trace{}",
        args.workload,
        if args.ctx.short { ".short" } else { "" },
        u8::from(args.ctx.trace)
    );
    let notes: Vec<String> = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{\"available_parallelism\": {}, \"functional_kernel\": {}, \"rustc\": {}}}, \"attempted\": {}, \"failed\": {}, \"mismatches\": {}, \"notes\": {{{}}}, \"end_to_end\": {}, \"per_layer\": {}}}\n",
        json_str(&args.workload),
        args.ctx.seed,
        num(args.ctx.seconds),
        u8::from(args.ctx.trace),
        host_parallelism(),
        json_str(&format!("{:?}", maddpipe_runtime::FunctionalKernel::default())),
        json_str(env!("LADDERBENCH_RUSTC_VERSION")),
        outcome.attempted,
        outcome.failed,
        outcome.mismatches,
        notes.join(", "),
        metrics_json(e2e),
        metrics_json(layer),
    );
    std::fs::write(dir.join(format!("{stem}.json")), record)?;
    if args.ctx.trace {
        let file = std::fs::File::create(dir.join(format!("{stem}.spans.jsonl")))?;
        let mut w = std::io::BufWriter::new(file);
        for (i, s) in outcome.tracer.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        w.flush()?;
    }
    Ok(())
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Steal and total CPU ticks of the host so far, from `/proc/stat`: the
/// time the hypervisor ran other guests on this machine's vCPUs. A run
/// whose steal share is high measured the neighbours as much as the code.
fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ladderbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, run)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "ladderbench: unknown workload {:?}; choose one of {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "host available_parallelism={} functional_kernel={:?} rustc={:?}",
        host_parallelism(),
        maddpipe_runtime::FunctionalKernel::default(),
        env!("LADDERBENCH_RUSTC_VERSION")
    );
    let ticks_before = host_ticks();
    let mut outcome = run(&args.ctx);
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, host_ticks()) {
        let share = s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64;
        outcome.note("host.steal_share", share);
    }
    let rss = match peak_rss_mb() {
        Ok(mb) => mb,
        Err(e) => {
            eprintln!("ladderbench: {e}");
            return ExitCode::from(2);
        }
    };
    outcome.e2e.insert("peak_rss_mb", rss);
    for name in outcome.layer.keys() {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not declared"
        );
    }
    let e2e: Vec<_> = E2E_METRICS
        .iter()
        .map(|&(name, unit)| (name, outcome.e2e.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    let layer: Vec<_> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, outcome.layer.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    let finite = e2e.iter().chain(&layer).all(|(_, v, _)| v.is_finite());
    let correct = outcome.mismatches == 0 && outcome.attempted > 0 && finite;

    for (key, value) in &outcome.notes {
        println!("note {key} = {value}");
    }
    for (name, value, unit) in &e2e {
        println!("end_to_end {name} = {value} {unit}");
    }
    if args.ctx.trace {
        for (name, value, unit) in &layer {
            println!("per_layer {name} = {value} {unit}");
        }
        println!("spans recorded = {}", outcome.tracer.spans().len());
    }
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "attempted = {} failed = {} failed_share = {failed_share} mismatches = {}",
        outcome.attempted, outcome.failed, outcome.mismatches
    );
    if let Err(e) = write_records(&args.ctx.out, &args, &outcome, &e2e, &layer) {
        eprintln!(
            "ladderbench: cannot write records under {}: {e}",
            args.ctx.out.display()
        );
        return ExitCode::from(2);
    }
    let shown = if args.ctx.trace { &layer } else { &e2e };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(shown)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
