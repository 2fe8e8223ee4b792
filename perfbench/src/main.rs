//! The slpwlo compiler benchmark.
//!
//! ```text
//! taskset -c 0 cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-compile|dse-sweep|exact-modulo> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one caller, closed loop: serial `Optimizer` calls, one
//! after another, with no threads beyond the compiler's own gain
//! workers. `taskset` pins the run to one CPU, so those workers share one
//! core (`host.nproc` reads 1): on a shared 2-vCPU VM, a second worker
//! thread makes set-up times swing 2.5× with the other vCPU's load.
//! Untraced times are reported at a fixed reference host speed (see
//! [`speed`]), with the wall-clock figures printed beside them.
//! `--trace 0` times the ops and prints the end-to-end metrics;
//! `--trace 1` runs each op twice — untraced and through the traced,
//! hand-assembled path — asserts both give bitwise-equal reports, and
//! prints the per-layer metrics. Every run checks its outputs: repeats
//! of a point must be bitwise identical, and the noise each returned
//! spec produces when simulated bit-accurately on the seeded signal must
//! not exceed the point's constraint (margin 0 dB). The last stdout line
//! is the JSON result; host metadata, per-point rows and every failing
//! point are printed before it and written to `.perfbench-out/`.

mod grid;
mod host;
mod speed;
mod stats;
mod trace;

use grid::{fingerprint, Bench, Kind};
use slpwlo_accuracy::measure_noise;
use slpwlo_core::Prepared;
use slpwlo_driver::Report;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{OpArgs, Tracer};

/// Timed samples a run gathers at least, so `compile_ms_p90` has ten
/// samples beyond it.
const MIN_SAMPLES: usize = 100;

/// A run stops adding passes after this long even when short of
/// [`MIN_SAMPLES`] (and then refuses to report the p90).
const MAX_LOOP: Duration = Duration::from_secs(120);

/// Where results and traces are written, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench-out";

/// End-to-end metrics a `--trace 0` run prints, in `BENCHMARK.json` order.
const E2E_METRICS: [&str; 8] = [
    "compile_ms_p50",
    "compile_ms_p90",
    "compile_ms_geomean",
    "compiles_per_s",
    "setup_s",
    "peak_rss_mib",
    "cycles_per_act_geomean",
    "pass_rate",
];

/// Per-layer metrics a `--trace 1` run prints, in `BENCHMARK.json` order.
const LAYER_METRICS: [&str; 26] = [
    "ir.cone_build_ms",
    "fixedpoint.range_ms",
    "accuracy.gains_ms",
    "accuracy.trials",
    "accuracy.trial_us",
    "core.flow_ms",
    "core.flow_self_ms",
    "core.wlo_slp_search_ms",
    "core.tabu_ms",
    "slp.extract_ms",
    "core.sched_guard_ms",
    "core.lower_scalar_ms",
    "core.portfolio_ms",
    "driver.price_ms",
    "driver.run_ms",
    "driver.self_ms",
    "slp.select.rounds",
    "slp.select.improved",
    "slp.select.budget_fallbacks",
    "slp.select.veto_fallbacks",
    "slp.select.portfolio_fallbacks",
    "core.groups",
    "accuracy.noise_violations",
    "accuracy.pred_minus_measured_db_p50",
    "trace.ops",
    "trace.overhead_pct",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::from_name(&value)
                        .ok_or_else(|| bad("one of cold-compile, dse-sweep, exact-modulo"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| (1..=600).contains(&s))
                        .ok_or_else(|| bad("whole seconds in 1..=600"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Quotes a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
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

/// Per-point bookkeeping shared by both runs.
#[derive(Default)]
struct PointLog {
    /// Fingerprint of the point's reference report.
    reference: Option<u64>,
    /// Cycles per activation of the reference report.
    cycles_per_act: f64,
    /// Predicted and measured output noise (dB) of the reference spec.
    predicted_db: f64,
    measured_db: f64,
    /// Measured noise exceeds the constraint.
    violates: bool,
    /// Timed latencies (ms); on the untraced run at the reference host
    /// speed (see [`speed`]), on the traced run as measured.
    samples: Vec<f64>,
    /// The untraced run's timed latencies as measured (ms).
    wall: Vec<f64>,
    /// Ops of this point that failed for a reason other than the noise
    /// contract (error, repeat mismatch, trace or replay mismatch).
    broken_ops: usize,
    /// First message of each distinct breakage.
    problems: Vec<String>,
}

impl PointLog {
    fn problem(&mut self, msg: String) {
        if !self.problems.contains(&msg) {
            self.problems.push(msg);
        }
    }

    /// Records one op's problems; the op fails once however many it
    /// has. Returns `true` when it has none.
    fn settle(&mut self, problems: Vec<String>) -> bool {
        if problems.is_empty() {
            return true;
        }
        self.broken_ops += 1;
        for p in problems {
            self.problem(p);
        }
        false
    }

    /// The point failed: an op of it broke, or its spec breaks the noise
    /// contract.
    fn failed(&self) -> bool {
        self.violates || !self.problems.is_empty()
    }
}

/// What a run prints last. `attempted` and `failed` count grid points,
/// not ops: every op of a point is checked and one failing op fails the
/// point, so the counts (and `pass_rate`) depend only on the seed, never
/// on how many repeats the run length allowed.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// Ops run, every one checked.
    ops: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Grid points failed, of those run.
fn failed_points(logs: &[PointLog]) -> usize {
    logs.iter().filter(|l| l.failed()).count()
}

fn run(args: &Args) -> Result<(), String> {
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let host = host::Host::probe(&root, args.seed);
    println!("host {}", host.to_json());
    let (outcome, logs, labels, spans) = if args.trace {
        traced_run(args)?
    } else {
        let (o, l, b) = timed_run(args)?;
        (o, l, b, Vec::new())
    };
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    let expected: &[&str] = if args.trace {
        &LAYER_METRICS
    } else {
        &E2E_METRICS
    };
    assert_eq!(
        names, expected,
        "a run prints exactly its BENCHMARK.json metrics"
    );
    if let Some((name, value, _)) = outcome.metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is not a finite number ({value})"));
    }
    report_points(&logs, &labels);
    let fail_rate = outcome.failed as f64 / outcome.attempted as f64;
    println!(
        "fail_rate = {fail_rate:.6} ({} of {} grid points; {} ops checked, {} broke; noise margin 0 dB)",
        outcome.failed,
        outcome.attempted,
        outcome.ops,
        logs.iter().map(|l| l.broken_ops).sum::<usize>()
    );
    let metrics_json = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    write_artifacts(args, &host, &logs, &labels, &spans, &result)?;
    println!("{result}");
    Ok(())
}

/// Prints one row per grid point and every failing point by name.
fn report_points(logs: &[PointLog], labels: &[String]) {
    for (log, label) in logs.iter().zip(labels) {
        println!(
            "point {label}: p50 {:.3} ms (n={}), {:.2} cycles/act, predicted {:.2} dB, measured {:.2} dB{}",
            stats::median(&log.samples).unwrap_or(f64::NAN),
            log.samples.len(),
            log.cycles_per_act,
            log.predicted_db,
            log.measured_db,
            if log.violates { ", VIOLATES constraint" } else { "" },
        );
    }
    for (log, label) in logs.iter().zip(labels) {
        if log.violates {
            println!(
                "failing point {label}: measured {:.2} dB exceeds the constraint (predicted {:.2} dB)",
                log.measured_db, log.predicted_db
            );
        }
        for p in &log.problems {
            println!("failing point {label}: {p}");
        }
    }
}

/// Writes the result, host metadata, per-point rows and (traced runs)
/// every span to one JSON file under [`OUT_DIR`].
fn write_artifacts(
    args: &Args,
    host: &host::Host,
    logs: &[PointLog],
    labels: &[String],
    spans: &[trace::Span],
    result: &str,
) -> Result<(), String> {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": {}, \"trace\": {}, \"host\": {}, \"result\": {result},\n\"points\": [",
        json_str(args.kind.name()),
        args.trace,
        host.to_json()
    );
    for (i, (log, label)) in logs.iter().zip(labels).enumerate() {
        let _ = write!(
            s,
            "{}\n {{\"point\": {}, \"samples\": {}, \"p50_ms\": {}, \"cycles_per_act\": {}, \"predicted_db\": {}, \"measured_db\": {}, \"violates\": {}, \"problems\": [{}], \"samples_ms\": [{}], \"wall_ms\": [{}]}}",
            if i == 0 { "" } else { "," },
            json_str(label),
            log.samples.len(),
            json_num(stats::median(&log.samples).unwrap_or(f64::NAN)),
            json_num(log.cycles_per_act),
            json_num(log.predicted_db),
            json_num(log.measured_db),
            log.violates,
            log.problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(", "),
            log.samples.iter().map(|&x| json_num(x)).collect::<Vec<_>>().join(", "),
            log.wall.iter().map(|&x| json_num(x)).collect::<Vec<_>>().join(", ")
        );
    }
    s.push_str("],\n\"spans\": [");
    for (i, sp) in spans.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n {{\"op\": {}, \"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            if i == 0 { "" } else { "," },
            sp.op,
            sp.id,
            sp.parent.map_or("null".into(), |p| p.to_string()),
            json_str(sp.name),
            sp.start_ns,
            sp.end_ns
        );
    }
    s.push_str("]}\n");
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(&path, s).map_err(|e| format!("{path}: {e}"))
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        x.to_string()
    } else {
        "null".into()
    }
}

/// Records a point's reference report: fingerprint, cycles and the
/// bit-accurate noise check of its spec on the seeded signal.
fn record_reference(log: &mut PointLog, report: &Report, db: f64, inputs: &[Vec<f64>]) {
    log.reference = Some(fingerprint(report));
    log.cycles_per_act = report.cycles_simd as f64 / report.activations as f64;
    log.predicted_db = report.noise_db.unwrap_or(f64::NAN);
    match report.spec.as_ref() {
        Some(spec) => {
            log.measured_db = measure_noise(&report.kernel, spec, inputs).db;
            log.violates = log.measured_db > db;
        }
        None => log.problem("report carries no fixed-point spec".into()),
    }
}

/// Why a repeat of a point does not reproduce its reference report, if
/// it does not.
fn repeat_problem(reference: Option<u64>, report: Result<&Report, String>) -> Option<String> {
    match report {
        Err(e) => Some(format!("compile failed: {e}")),
        Ok(r) if reference == Some(fingerprint(r)) => None,
        Ok(_) => Some("report differs from an earlier run of the same point".into()),
    }
}

/// Set-up repetitions per run (the median is reported): many for the
/// sub-millisecond cold set-up, enough for the ~0.1 s warm ones to shrug
/// off a few contended repetitions.
fn setup_reps(kind: Kind) -> usize {
    if kind.is_cold() {
        51
    } else {
        15
    }
}

fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The untraced run: set-up (repeated, median reported), one untimed
/// reference pass that warms caches and records each point's reference
/// report and noise check, then whole timed passes over the grid until
/// the run length has elapsed and at least [`MIN_SAMPLES`] ops ran.
fn timed_run(args: &Args) -> Result<(Outcome, Vec<PointLog>, Vec<String>), String> {
    let mut setup_wall = Vec::new();
    let mut setup_probe = Vec::new();
    let mut bench = None;
    for _ in 0..setup_reps(args.kind) {
        drop(bench.take());
        setup_probe.push(speed::probe().as_nanos() as f64);
        let t0 = Instant::now();
        let b = Bench::setup(args.kind, args.seed).map_err(|e| format!("set-up: {e}"))?;
        setup_wall.push(t0.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let setup: Vec<f64> = setup_wall
        .iter()
        .zip(speed::factors(&setup_probe))
        .map(|(s, f)| s / f)
        .collect();
    let mut bench = bench.expect("at least one set-up repetition");
    for d in &bench.dropped {
        println!("dropped {d}: below the kernel's noise floor");
    }
    let signals = grid::signals(&bench.subjects, args.seed);
    let points = bench.points.clone();
    let labels: Vec<String> = points.iter().map(|p| bench.label(p)).collect();
    let mut logs: Vec<PointLog> = points.iter().map(|_| PointLog::default()).collect();
    let mut correct = true;

    for (p, log) in points.iter().zip(&mut logs) {
        match bench.run(p).1 {
            Ok(r) => record_reference(log, &r, p.db, &signals[p.subject]),
            Err(e) => {
                correct = false;
                log.problem(format!("compile failed: {e}"));
            }
        }
    }

    // Untimed points (generated kernels) get one checked repeat.
    let mut extra = 0;
    for (p, log) in points.iter().zip(&mut logs).filter(|(p, _)| !p.timed) {
        extra += 1;
        let report = bench.run(p).1;
        let problem = repeat_problem(log.reference, report.as_ref().map_err(ToString::to_string));
        correct &= log.settle(problem.into_iter().collect());
    }

    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    // (point, wall ms, probe ns taken right before) of each timed op, in
    // run order.
    let mut timed: Vec<(usize, f64, f64)> = Vec::new();
    while timed.len() < MIN_SAMPLES || t0.elapsed() < budget {
        if t0.elapsed() > MAX_LOOP {
            break;
        }
        for (i, (p, log)) in points.iter().zip(&mut logs).enumerate() {
            if !p.timed {
                continue;
            }
            let probe_ns = speed::probe().as_nanos() as f64;
            let (dt, report) = bench.run(p);
            timed.push((i, dt.as_secs_f64() * 1e3, probe_ns));
            let problem =
                repeat_problem(log.reference, report.as_ref().map_err(ToString::to_string));
            correct &= log.settle(problem.into_iter().collect());
        }
    }
    let rss = peak_rss_mib().ok_or("peak RSS unavailable (/proc/self/status)")?;

    let probes: Vec<f64> = timed.iter().map(|t| t.2).collect();
    let factors = speed::factors(&probes);
    for (&(i, ms, _), f) in timed.iter().zip(&factors) {
        logs[i].wall.push(ms);
        logs[i].samples.push(ms / f);
    }
    // Throughput of each whole pass; the median is reported, so one pass
    // caught in a burst of host contention does not set the figure.
    let per_pass = points.iter().filter(|p| p.timed).count();
    let mut pass_rates = Vec::new();
    let mut wall_rates = Vec::new();
    for (pass, f) in timed.chunks(per_pass).zip(factors.chunks(per_pass)) {
        let wall_ms: f64 = pass.iter().map(|t| t.1).sum();
        let ms: f64 = pass.iter().zip(f).map(|(t, f)| t.1 / f).sum();
        pass_rates.push(per_pass as f64 * 1e3 / ms);
        wall_rates.push(per_pass as f64 * 1e3 / wall_ms);
        println!(
            "pass {}: {:.4} s wall, host speed factor {:.3}, {:.4} compiles/s",
            pass_rates.len(),
            wall_ms / 1e3,
            stats::median(f).expect("passes are whole"),
            pass_rates[pass_rates.len() - 1]
        );
    }

    let [p50, p90, geo] = latency_figures(logs.iter().map(|l| &l.samples[..]))?;
    let [wall_p50, wall_p90, wall_geo] = latency_figures(logs.iter().map(|l| &l.wall[..]))?;
    let cycles: Vec<f64> = points
        .iter()
        .zip(&logs)
        .filter(|(p, l)| p.timed && l.reference.is_some())
        .map(|(_, l)| l.cycles_per_act)
        .collect();
    let cycles_geo = stats::geomean(&cycles).ok_or("no point produced cycles")?;
    let attempted = logs.len();
    let failed = failed_points(&logs);
    let setup_s = stats::median(&setup).expect("set-up ran");
    let n = timed.len();
    println!(
        "timing host speed factor = {:.4} (median over ops; wall figures divided by it op by op)",
        stats::median(&factors).expect("timed loop ran")
    );
    println!("timing compile_ms_p50 = {p50:.4} ms (n={n}; wall {wall_p50:.4} ms)");
    println!(
        "timing compile_ms_p90 = {p90:.4} ms (n={n}, {} beyond; wall {wall_p90:.4} ms)",
        n - (0.9 * n as f64).ceil() as usize
    );
    println!(
        "timing compile_ms_geomean = {geo:.4} ms ({per_pass} points, per-point medians; wall {wall_geo:.4} ms)"
    );
    let compiles_per_s = stats::median(&pass_rates).expect("timed loop ran");
    println!(
        "timing compiles_per_s = {compiles_per_s:.4} 1/s (median of {} passes, n={n} ops; wall {:.4} 1/s)",
        pass_rates.len(),
        stats::median(&wall_rates).expect("timed loop ran")
    );
    println!(
        "timing setup_s = {setup_s:.6} s (n={}, median; wall {:.6} s)",
        setup.len(),
        stats::median(&setup_wall).expect("set-up ran")
    );
    let outcome = Outcome {
        correct,
        attempted,
        failed,
        ops: points.len() + n + extra,
        metrics: vec![
            ("compile_ms_p50", p50, "ms"),
            ("compile_ms_p90", p90, "ms"),
            ("compile_ms_geomean", geo, "ms"),
            ("compiles_per_s", compiles_per_s, "1/s"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mib", rss, "MiB"),
            ("cycles_per_act_geomean", cycles_geo, "cycles"),
            ("pass_rate", 1.0 - failed as f64 / attempted as f64, "ratio"),
        ],
    };
    Ok((outcome, logs, labels))
}

/// `compile_ms_{p50,p90,geomean}` of per-point latency samples (points
/// without samples are skipped). Percentiles are taken over the ops with
/// each op's latency read as its point's median: the grid repeats a few
/// dozen distinct points, so a percentile often falls between two
/// points, where raw samples would report one noisy extreme repeat
/// instead of a point's latency.
fn latency_figures<'a>(points: impl Iterator<Item = &'a [f64]>) -> Result<[f64; 3], String> {
    let mut per_op = Vec::new();
    let mut per_point = Vec::new();
    for samples in points {
        if let Some(m) = stats::median(samples) {
            per_op.extend(std::iter::repeat_n(m, samples.len()));
            per_point.push(m);
        }
    }
    let p50 =
        stats::percentile(&per_op, 0.5).map_err(|e| format!("compile_ms_p50 refused: {e}"))?;
    let p90 =
        stats::percentile(&per_op, 0.9).map_err(|e| format!("compile_ms_p90 refused: {e}"))?;
    let geo = stats::geomean(&per_point).ok_or("no positive per-point latency")?;
    Ok([p50, p90, geo])
}

type TracedRun = (Outcome, Vec<PointLog>, Vec<String>, Vec<trace::Span>);

/// The traced run: every op runs untraced (the `Optimizer` path, timed
/// as a whole) and traced (hand-assembled `Prepared`, callback-driven
/// flow, spans), alternating which goes first, and the two reports must
/// be bitwise equal. The first pass also replays each point's search
/// over a counting evaluator and runs the noise check.
fn traced_run(args: &Args) -> Result<TracedRun, String> {
    let mut bench = Bench::setup(args.kind, args.seed).map_err(|e| format!("set-up: {e}"))?;
    let (benefit, sched) = args.kind.strategy();
    let mut tr = Tracer::new();
    let mut op: u32 = 0;
    // The warm workloads share one hand-assembled `Prepared` per kernel,
    // built (and traced) once as their set-up.
    let mut preps: Vec<Prepared> = Vec::new();
    let mut floors: Vec<Vec<f64>> = Vec::new();
    if !args.kind.is_cold() {
        for s in &bench.subjects {
            let root = tr.open(op, None, "setup.prepare");
            let prep = trace::assemble(&mut tr, op, Some(root), s.kernel.clone());
            tr.close(root);
            op += 1;
            floors.push(
                bench
                    .targets
                    .iter()
                    .map(|t| trace::noise_floor_db(&prep, t))
                    .collect(),
            );
            preps.push(prep);
        }
    }
    let signals = grid::signals(&bench.subjects, args.seed);
    let points = bench.points.clone();
    let labels: Vec<String> = points.iter().map(|p| bench.label(p)).collect();
    let mut logs: Vec<PointLog> = points.iter().map(|_| PointLog::default()).collect();
    let mut correct = true;
    let mut untraced_ms = 0.0;
    let mut traced_ops = 0usize;
    let mut trials = 0u64;
    let mut trial_ns = 0u64;
    let mut select = slpwlo_driver::SelectStats::default();
    let mut groups = 0u64;
    let mut untimed_ops = Vec::new();

    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut pass = 0usize;
    while pass == 0 || t0.elapsed() < budget {
        if t0.elapsed() > MAX_LOOP {
            break;
        }
        for (p, log) in points
            .iter()
            .zip(&mut logs)
            .filter(|(p, _)| pass == 0 || p.timed)
        {
            // Owned copies, so the untraced `bench.run` may borrow the
            // bench mutably while the traced op holds its inputs.
            let target = bench.targets[p.target].clone();
            let kernel = bench.subjects[p.subject].kernel.clone();
            let a = OpArgs {
                target: &target,
                flow: p.flow,
                db: p.db,
                benefit,
                sched,
                activations: bench.subjects[p.subject].activations,
            };
            let traced = |tr: &mut Tracer| match preps.get(p.subject) {
                Some(prep) => trace::traced_warm(tr, op, prep, floors[p.subject][p.target], &a),
                None => trace::traced_cold(tr, op, kernel.clone(), &a),
            };
            let (plain, traced) = if pass.is_multiple_of(2) {
                let plain = bench.run(p);
                (plain, traced(&mut tr))
            } else {
                let traced = traced(&mut tr);
                (bench.run(p), traced)
            };
            op += 1;
            if p.timed {
                traced_ops += 1;
                untraced_ms += plain.0.as_secs_f64() * 1e3;
            } else {
                untimed_ops.push(op - 1);
            }
            log.samples.push(plain.0.as_secs_f64() * 1e3);
            let mut problems = Vec::new();
            match plain.1 {
                Err(e) => problems.push(format!("compile failed: {e}")),
                Ok(plain) => {
                    if pass == 0 {
                        record_reference(log, &plain, p.db, &signals[p.subject]);
                        select.rounds += plain.select.rounds;
                        select.improved += plain.select.improved;
                        select.budget_fallbacks += plain.select.budget_fallbacks;
                        select.veto_fallbacks += plain.select.veto_fallbacks;
                        select.portfolio_fallbacks += plain.select.portfolio_fallbacks;
                        groups += plain.group_count as u64;
                        let cold_prep;
                        let prep = match preps.get(p.subject) {
                            Some(prep) => prep,
                            None => {
                                cold_prep = slpwlo_core::prepare(kernel.clone());
                                &cold_prep
                            }
                        };
                        let r = trace::replay(prep, &a, &plain);
                        trials += r.trials;
                        trial_ns += r.trial_ns;
                        if !r.spec_matches {
                            problems.push(
                                "counting-evaluator replay spec differs from the flow's".into(),
                            );
                        }
                    }
                    // Both paths must reproduce the reference: the traced
                    // one to measure the same program, the untraced one to
                    // stay deterministic run after run.
                    let traced = traced.as_ref().map_err(Clone::clone);
                    problems.extend(repeat_problem(log.reference, traced));
                    problems.extend(repeat_problem(log.reference, Ok(&plain)));
                }
            }
            correct &= log.settle(problems);
        }
        pass += 1;
    }

    let ops = traced_ops as f64;
    // Layer figures explain the end-to-end ones, so they cover the same
    // (timed) points; untimed points were still checked above.
    let spans: Vec<trace::Span> = tr
        .spans
        .iter()
        .filter(|s| untimed_ops.binary_search(&s.op).is_err())
        .cloned()
        .collect();
    let layer = layer_times(&spans);
    let per_op = |name: &str| layer.get(name).map_or(0.0, |t| t.total_ms) / ops;
    let per_prepare = |name: &str| layer.get(name).map_or(0.0, |t| t.total_ms / t.count as f64);
    let run_ms = per_op("driver.run");
    let self_ms = self_time(&tr.spans, &spans, "driver.run") / ops;
    let flow_self_ms = self_time(&tr.spans, &spans, "core.flow") / ops;
    let mut gaps: Vec<f64> = logs
        .iter()
        .map(|l| l.predicted_db - l.measured_db)
        .filter(|g| g.is_finite())
        .collect();
    gaps.sort_by(f64::total_cmp);
    let violations = logs.iter().filter(|l| l.violates).count();
    let overhead = (run_ms * ops - untraced_ms) / untraced_ms * 100.0;
    for name in ["ir.cone_build", "fixedpoint.range", "accuracy.gains"] {
        let n = layer.get(name).map_or(0, |t| t.count);
        println!(
            "layer {name}_ms = {:.4} ms per preparation (n={n})",
            per_prepare(name)
        );
    }
    for name in LAYER_SPANS {
        let n = layer.get(name).map_or(0, |t| t.count);
        println!(
            "layer {name}_ms = {:.4} ms per op (n={traced_ops} ops, {n} spans)",
            per_op(name)
        );
    }
    println!("layer driver.self_ms = {self_ms:.4} ms per op (n={traced_ops})");
    println!(
        "layer trace.overhead_pct = {overhead:.3} % (traced {:.3} ms vs untraced {:.3} ms per op)",
        run_ms,
        untraced_ms / ops
    );

    let outcome = Outcome {
        correct,
        attempted: logs.len(),
        failed: failed_points(&logs),
        ops: logs.iter().map(|l| l.samples.len()).sum(),
        metrics: vec![
            ("ir.cone_build_ms", per_prepare("ir.cone_build"), "ms"),
            ("fixedpoint.range_ms", per_prepare("fixedpoint.range"), "ms"),
            ("accuracy.gains_ms", per_prepare("accuracy.gains"), "ms"),
            ("accuracy.trials", trials as f64, "count"),
            (
                "accuracy.trial_us",
                trial_ns as f64 / 1e3 / trials.max(1) as f64,
                "us",
            ),
            ("core.flow_ms", per_op("core.flow"), "ms"),
            ("core.flow_self_ms", flow_self_ms, "ms"),
            (
                "core.wlo_slp_search_ms",
                per_op("core.wlo_slp_search"),
                "ms",
            ),
            ("core.tabu_ms", per_op("core.tabu"), "ms"),
            ("slp.extract_ms", per_op("slp.extract"), "ms"),
            ("core.sched_guard_ms", per_op("core.sched_guard"), "ms"),
            ("core.lower_scalar_ms", per_op("core.lower_scalar"), "ms"),
            ("core.portfolio_ms", per_op("core.portfolio"), "ms"),
            ("driver.price_ms", per_op("driver.price"), "ms"),
            ("driver.run_ms", run_ms, "ms"),
            ("driver.self_ms", self_ms, "ms"),
            ("slp.select.rounds", select.rounds as f64, "count"),
            ("slp.select.improved", select.improved as f64, "count"),
            (
                "slp.select.budget_fallbacks",
                select.budget_fallbacks as f64,
                "count",
            ),
            (
                "slp.select.veto_fallbacks",
                select.veto_fallbacks as f64,
                "count",
            ),
            (
                "slp.select.portfolio_fallbacks",
                select.portfolio_fallbacks as f64,
                "count",
            ),
            ("core.groups", groups as f64, "count"),
            ("accuracy.noise_violations", violations as f64, "count"),
            (
                "accuracy.pred_minus_measured_db_p50",
                stats::median(&gaps).unwrap_or(f64::NAN),
                "dB",
            ),
            ("trace.ops", ops, "count"),
            ("trace.overhead_pct", overhead, "%"),
        ],
    };
    Ok((outcome, logs, labels, tr.spans))
}

/// Op-level spans whose per-op means are reported.
const LAYER_SPANS: [&str; 9] = [
    "core.flow",
    "core.wlo_slp_search",
    "core.tabu",
    "slp.extract",
    "core.sched_guard",
    "core.lower_scalar",
    "core.portfolio",
    "driver.price",
    "driver.run",
];

struct LayerTime {
    total_ms: f64,
    count: usize,
}

fn layer_times(spans: &[trace::Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert(LayerTime {
            total_ms: 0.0,
            count: 0,
        });
        e.total_ms += s.ms();
        e.count += 1;
    }
    out
}

/// Total time of the spans of `spans` named `name` not covered by their
/// direct children in `all` (children of one span never overlap: they are sequential
/// steps of one caller).
fn self_time(all: &[trace::Span], spans: &[trace::Span], name: &str) -> f64 {
    let mut children = vec![0.0; all.len()];
    for s in all {
        if let Some(p) = s.parent {
            children[p] += s.ms();
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ms() - children[s.id])
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
    const PREDICTIONS: &str = include_str!("../predictions.json");

    /// The `"name"` values of one top-level array of `BENCHMARK.json`.
    fn names_in(key: &str) -> Vec<String> {
        let from = BENCHMARK.find(&format!("\"{key}\"")).expect("key present");
        let rest = &BENCHMARK[from..];
        let body = &rest[rest.find('[').expect("array")..rest.find(']').expect("array end")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("closing quote").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        assert_eq!(names_in("end_to_end"), E2E_METRICS);
        assert_eq!(names_in("per_layer"), LAYER_METRICS);
    }

    #[test]
    fn benchmark_json_lists_every_workload() {
        let names = names_in("workloads");
        let kinds: Vec<&str> = names
            .iter()
            .map(|n| Kind::from_name(n).expect("known workload").name())
            .collect();
        assert_eq!(kinds, ["cold-compile", "dse-sweep", "exact-modulo"]);
    }

    #[test]
    fn every_layer_and_workload_has_a_recorded_prediction() {
        for name in LAYER_METRICS
            .iter()
            .chain(&["cold-compile", "dse-sweep", "exact-modulo"])
        {
            assert!(
                PREDICTIONS.contains(&format!("\"{name}\":")),
                "predictions.json has no entry for {name}"
            );
        }
        for name in E2E_METRICS {
            if name != "setup_s" && name != "peak_rss_mib" {
                assert!(
                    PREDICTIONS.contains(&format!("\"{name}\"")),
                    "no layer is predicted to move {name}"
                );
            }
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
