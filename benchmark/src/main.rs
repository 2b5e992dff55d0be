//! End-to-end benchmark of the plan doctor (see `NOTES.md`).
//!
//! ```text
//! foss-e2e-bench --workload <serve-warm|serve-exec|serve-wire|train>
//!                --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! Untraced, it prints every end-to-end metric; traced, the per-layer
//! split. The last line of standard output is one JSON object. It exits 1
//! when an output check fails and 2 on bad arguments.

mod serve;
mod setup;
mod stats;
mod trace;

use std::fmt;
use std::time::Instant;

use foss_executor::CachingExecutor;
use foss_harness::{evaluate_on, FossAdapter};
use foss_service::QueryRequest;

use foss_harness::percentile as pct;
use serve::{run_phase, Phase};
use setup::{SetupTimes, Spec, Stack};
use stats::Served;
use trace::SpanLog;

/// A run that cannot produce a result.
#[derive(Debug)]
pub struct Failure(String);

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<String> for Failure {
    fn from(s: String) -> Self {
        Self(s)
    }
}

impl From<foss_common::FossError> for Failure {
    fn from(e: foss_common::FossError) -> Self {
        Self(e.to_string())
    }
}

pub type Res<T> = Result<T, Failure>;

/// Set-ups per run; `setup_s` and `train_s` report their median.
const SETUPS: usize = 3;

/// Timed segments per run, an equal share after each set-up; the
/// throughput and latency metrics report their median.
const SEGMENTS: usize = 6;

/// Planning times per distinct query behind WRL (submits on the serving
/// workloads, whole `evaluate_on` passes on `train`); WRL uses their median.
const QUALITY_REPEATS: usize = 3;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = setup::SPECS.iter().map(|s| s.name).collect();
    let workload = workload.ok_or("--workload is required")?;
    let spec = setup::spec(&workload)
        .ok_or_else(|| format!("unknown workload `{workload}`; valid: {}", names.join(", ")))?;
    let seconds = seconds.unwrap_or(10.0);
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        spans,
    })
}

/// One reported metric, with the sample it came from.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    sample: String,
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    checks: Vec<String>,
}

fn metric(name: &'static str, value: f64, unit: &'static str, sample: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        sample: sample.into(),
    }
}

fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    pct(&xs.into_iter().collect::<Vec<_>>(), 50.0)
}

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Restart the process's peak-resident-set count from the current resident
/// set (Linux: `5` to `/proc/self/clear_refs`); a no-op where unsupported.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output checks that do not depend on timing: each distinct query's served
/// plan returns the expert plan's rows.
fn check_rows(stack: &Stack) -> Res<(usize, usize)> {
    let wl = &stack.exp.workload;
    let fresh = CachingExecutor::new(wl.db.clone(), *wl.optimizer.cost_model());
    let mut equal = 0;
    for (q, r) in stack.pool.iter().zip(&stack.reference) {
        let expert = wl.optimizer.optimize(q)?;
        if fresh.execute(q, &r.plan, None)?.rows == fresh.execute(q, &expert, None)?.rows {
            equal += 1;
        }
    }
    Ok((equal, stack.pool.len()))
}

/// WRL/GMRL of the served decisions against the expert, one measurement
/// per distinct query, outside the timed phase.
fn serving_quality(stack: &Stack) -> Res<(f64, f64, u64)> {
    let wl = &stack.exp.workload;
    let mut served = Vec::with_capacity(stack.pool.len());
    let mut mismatches = 0;
    for (q, r) in stack.pool.iter().zip(&stack.reference) {
        let mut planning = Vec::with_capacity(QUALITY_REPEATS);
        let mut expert_planning = Vec::with_capacity(QUALITY_REPEATS);
        let mut latency = 0.0;
        let mut expert_plan = None;
        for _ in 0..QUALITY_REPEATS {
            let d = stack.doctor.submit(QueryRequest::new(q.clone()))?;
            mismatches += u64::from(!r.matches(&d));
            planning.push(d.planning_us);
            latency = d.latency;
            let t = Instant::now();
            expert_plan = Some(wl.optimizer.optimize(q)?);
            expert_planning.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let expert_plan = expert_plan.expect("QUALITY_REPEATS > 0");
        let expert = stack.exp.executor.execute(q, &expert_plan, None)?;
        served.push(Served {
            latency,
            planning_us: median(planning),
            expert_latency: expert.latency,
            expert_planning_us: median(expert_planning),
        });
    }
    let (wrl, gmrl) = stats::wrl_gmrl(&served);
    Ok((wrl, gmrl, mismatches))
}

fn run(args: &Args, origin: Instant) -> Res<Report> {
    let spec = &args.spec;
    let mut setup_log = SpanLog::new(origin);
    let mut times: Vec<SetupTimes> = Vec::with_capacity(SETUPS);
    let mut segments: Vec<Phase> = Vec::with_capacity(SEGMENTS);
    // Peak resident set of each set-up. The timed segments are left out: on
    // serve-exec their peak depends on which heavy executions the two
    // clients happen to overlap.
    let mut peaks = Vec::with_capacity(SETUPS);
    let mut plan: Option<(usize, usize, Vec<Vec<usize>>)> = None;
    let mut stack = None;
    for k in 0..SETUPS {
        // Free the previous set-up before building the next.
        drop(stack.take());
        reset_peak_rss();
        let since = if k == 0 { origin } else { Instant::now() };
        let (s, t) = setup::set_up(spec, since, args.trace.then_some(&mut setup_log))?;
        times.push(t);
        peaks.push(peak_rss_mb());
        let (pool, per_segment, seqs) = plan.get_or_insert_with(|| {
            let pool = s.pool.len();
            let per_segment = setup::passes_per_segment(spec, pool, args.seconds, SEGMENTS);
            (
                pool,
                per_segment,
                setup::sequences(args.seed, pool, SEGMENTS * per_segment),
            )
        });
        if !args.trace {
            // Timed segments follow each set-up, so that set-ups and
            // segments alike are spread over the whole run and their
            // medians do not hang on one stretch of a busy machine.
            let len = *per_segment * *pool;
            for j in 0..SEGMENTS / SETUPS {
                let i = k * (SEGMENTS / SETUPS) + j;
                let chunk: Vec<&[usize]> =
                    seqs.iter().map(|q| &q[i * len..(i + 1) * len]).collect();
                segments.push(run_phase(&s, s.wire_client(), &chunk, false, origin));
            }
        }
        stack = Some(s);
    }
    let mut stack = stack.expect("SETUPS > 0");
    let (pool, per_segment, seqs) = plan.expect("SETUPS > 0");
    let wire = stack.wire_client();

    let mut checks = Vec::new();
    let mut metrics = Vec::new();
    let (attempted, failed, mismatches): (u64, u64, u64);
    if !args.trace {
        let mut summaries = Vec::with_capacity(SEGMENTS);
        for seg in &segments {
            let (p50, p99) = stats::latency_summary(&seg.latencies_us)?;
            let throughput = (seg.attempted - seg.failed) as f64 / seg.wall_s;
            summaries.push((throughput, p50, p99));
        }
        let (wrl, gmrl, quality_mismatches) = if spec.held_out_quality {
            let foss = stack.foss.take().expect("the trainer is used once");
            let adapter = FossAdapter::new(foss);
            let mut wrl = Vec::with_capacity(QUALITY_REPEATS);
            let mut gmrl = 0.0;
            for _ in 0..QUALITY_REPEATS {
                let eval = evaluate_on(&stack.exp, &adapter, &stack.exp.workload.test)?;
                wrl.push(eval.wrl);
                gmrl = eval.gmrl;
            }
            (median(wrl), gmrl, 0)
        } else {
            serving_quality(&stack)?
        };
        let per = per_segment * pool * setup::CLIENTS;
        let n_min = segments
            .iter()
            .map(|s| s.latencies_us.len())
            .min()
            .unwrap_or(0);
        let segs = format!(
            "median of {SEGMENTS} segments of {per} requests ({} clients x {per_segment} passes x {pool} queries)",
            setup::CLIENTS
        );
        let setups = format!("median of {SETUPS} set-ups");
        metrics.push(metric(
            "setup_s",
            median(times.iter().map(|t| t.setup_s)),
            "s",
            setups.clone(),
        ));
        metrics.push(metric(
            "throughput_rps",
            median(summaries.iter().map(|s| s.0)),
            "1/s",
            segs.clone(),
        ));
        metrics.push(metric(
            "latency_p50_us",
            median(summaries.iter().map(|s| s.1)),
            "us",
            segs.clone(),
        ));
        metrics.push(metric(
            "latency_p99_us",
            median(summaries.iter().map(|s| s.2)),
            "us",
            format!("{segs}, >= {} beyond", stats::beyond(n_min, 99.0)),
        ));
        let distinct = if spec.held_out_quality {
            stack.exp.workload.test.len()
        } else {
            pool
        };
        metrics.push(metric(
            "wrl",
            wrl,
            "ratio",
            format!("n={distinct} distinct queries"),
        ));
        metrics.push(metric(
            "gmrl",
            gmrl,
            "ratio",
            format!("n={distinct} distinct queries"),
        ));
        metrics.push(metric(
            "train_s",
            median(times.iter().map(|t| t.train_s)),
            "s",
            setups.clone(),
        ));
        metrics.push(metric(
            "peak_rss_mb",
            median(peaks),
            "MB",
            format!("{setups}, VmHWM of each"),
        ));
        attempted = segments.iter().map(|s| s.attempted).sum();
        failed = segments.iter().map(|s| s.failed).sum();
        mismatches = segments.iter().map(|s| s.mismatches).sum::<u64>() + quality_mismatches;
        let rates: Vec<String> = summaries.iter().map(|s| format!("{:.0}", s.0)).collect();
        checks.push(format!(
            "segment throughputs (1/s, in run order): {}",
            rates.join(" ")
        ));
        // Reported, but not a bounded metric: its expected value is 0.
        checks.push(format!(
            "error_rate {} ({failed} failed / {attempted} attempted)",
            failed as f64 / attempted.max(1) as f64
        ));
    } else {
        let half = SEGMENTS / 2 * per_segment * pool;
        let first: Vec<&[usize]> = seqs.iter().map(|s| &s[..half]).collect();
        let second: Vec<&[usize]> = seqs.iter().map(|s| &s[half..]).collect();
        // Traced first, while the replay's shadow cache and tier still match
        // the doctor's from the warm-up pass.
        let cache_before = stack.doctor.metrics().cache;
        let traced = run_phase(&stack, wire, &first, true, origin);
        let cache = stack.doctor.metrics().cache.since(&cache_before);
        let untraced = run_phase(&stack, wire, &second, false, origin);
        metrics = layer_metrics(&stack, &times, &setup_log, &untraced, &traced, cache);
        let mut spans = setup_log;
        spans.absorb(traced.log);
        metrics.push(metric(
            "trace.spans",
            spans.spans.len() as f64,
            "count",
            "n=1",
        ));
        if let Some(path) = &args.spans {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?;
            let mut out = std::io::BufWriter::new(file);
            spans
                .write_tsv(&mut out)
                .and_then(|()| std::io::Write::flush(&mut out))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            checks.push(format!("spans written to {path}"));
        }
        attempted = untraced.attempted + traced.attempted;
        failed = untraced.failed + traced.failed;
        mismatches = untraced.mismatches + traced.mismatches;
    }

    let (rows_equal, distinct) = check_rows(&stack)?;
    checks.push(format!(
        "served rows equal expert rows on {rows_equal}/{distinct} distinct queries"
    ));
    checks.push(format!(
        "{mismatches} answers disagreed with the warm-up reference or the replay"
    ));
    for m in &metrics {
        assert!(
            stats::valid_metric_name(m.name),
            "bad metric name {}",
            m.name
        );
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        checks.push("a metric is not a finite number".into());
    }
    Ok(Report {
        correct: rows_equal == distinct && mismatches == 0 && finite,
        attempted,
        failed,
        metrics,
        checks,
    })
}

fn layer_metrics(
    stack: &Stack,
    times: &[SetupTimes],
    setup_log: &SpanLog,
    untraced: &Phase,
    traced: &Phase,
    cache: foss_executor::CacheStats,
) -> Vec<Metric> {
    let last = times.last().expect("at least one set-up");
    let records = &traced.records;
    let n = records.len().max(1) as f64;
    let log = &traced.log;
    let mut expert_plan = setup_log.durations("optimizer.expert_plan");
    expert_plan.extend(log.durations("optimizer.expert_plan"));
    let infer = log.durations("core.infer");
    let execute = log.durations("executor.execute");
    let submit = log.durations("service.submit");
    let roundtrip = log.durations("http.roundtrip");
    let wire = !roundtrip.is_empty();
    let iterations: Vec<f64> = times
        .iter()
        .flat_map(|t| t.iteration_s.iter().copied())
        .collect();
    let service = stack.doctor.metrics();
    let tier = stack.doctor.tier().stats();
    let traced_p50 = if wire {
        pct(&roundtrip, 50.0)
    } else {
        pct(&submit, 50.0)
    };
    let untraced_p50 = pct(&untraced.latencies_us, 50.0);
    let req = format!("n={} traced requests", records.len());
    let setups = format!("n={} set-ups", times.len());
    let na = |on: bool, s: &str| {
        if on {
            s.to_string()
        } else {
            "n/a on this workload".to_string()
        }
    };
    vec![
        metric(
            "workloads.build_s",
            median(times.iter().map(|t| t.build_s)),
            "s",
            setups.clone(),
        ),
        metric(
            "core.bootstrap_s",
            median(times.iter().map(|t| t.bootstrap_s)),
            "s",
            setups.clone(),
        ),
        metric(
            "core.train_iteration_p50_s",
            pct(&iterations, 50.0),
            "s",
            format!("n={} iterations", iterations.len()),
        ),
        metric(
            "core.plans_executed",
            last.last_report.plans_executed as f64,
            "count",
            "last set-up",
        ),
        metric(
            "core.buffer_plans",
            last.last_report.buffer_plans as f64,
            "count",
            "last set-up",
        ),
        metric(
            "core.aam_accuracy",
            f64::from(last.last_report.aam_accuracy),
            "ratio",
            "last set-up",
        ),
        metric(
            "core.train_hit_rate",
            last.train_cache.hit_rate(),
            "ratio",
            "last set-up's training schedule",
        ),
        metric(
            "optimizer.expert_plan_p50_us",
            pct(&expert_plan, 50.0),
            "us",
            format!("n={} calls, warm-up included", expert_plan.len()),
        ),
        metric(
            "core.infer_p50_us",
            pct(&infer, 50.0),
            "us",
            format!("n={} calls", infer.len()),
        ),
        metric(
            "core.infer_p99_us",
            pct(&infer, 99.0),
            "us",
            format!("n={} calls", infer.len()),
        ),
        metric(
            "core.doctored_share",
            records.iter().filter(|r| r.selected_step != 0).count() as f64 / n,
            "ratio",
            req.clone(),
        ),
        metric(
            "core.candidates_per_req",
            mean(records.iter().map(|r| r.candidates as f64)),
            "count",
            req.clone(),
        ),
        metric(
            "executor.execute_p50_us",
            pct(&execute, 50.0),
            "us",
            format!("n={} calls", execute.len()),
        ),
        metric(
            "executor.execute_p99_us",
            pct(&execute, 99.0),
            "us",
            format!("n={} calls", execute.len()),
        ),
        metric(
            "executor.calls_per_req",
            execute.len() as f64 / n,
            "count",
            req.clone(),
        ),
        metric(
            "executor.hit_rate",
            cache.hit_rate(),
            "ratio",
            "doctor's cache, traced phase",
        ),
        metric(
            "executor.executions",
            cache.executions as f64,
            "count",
            "doctor's cache, traced phase",
        ),
        metric(
            "executor.evictions",
            cache.evictions as f64,
            "count",
            "doctor's cache, traced phase",
        ),
        metric(
            "executor.work_units_per_req",
            mean(records.iter().map(|r| r.work_units)),
            "units",
            req.clone(),
        ),
        metric("tier.hits", tier.hits as f64, "count", "doctor's lifetime"),
        metric(
            "tier.compiles",
            tier.compiles as f64,
            "count",
            "doctor's lifetime",
        ),
        metric(
            "tier.fallbacks",
            tier.fallbacks as f64,
            "count",
            "doctor's lifetime",
        ),
        metric(
            "service.submit_p50_us",
            pct(&submit, 50.0),
            "us",
            format!("n={} calls", submit.len()),
        ),
        metric(
            "service.self_p50_us",
            pct(
                &records
                    .iter()
                    .map(|r| r.submit_us - r.layers_us)
                    .collect::<Vec<_>>(),
                50.0,
            ),
            "us",
            req.clone(),
        ),
        metric(
            "service.inflight_hwm",
            service.in_flight_high_water as f64,
            "count",
            "doctor's lifetime",
        ),
        metric(
            "service.fallback_rate",
            service.fallback_rate,
            "ratio",
            "doctor's lifetime",
        ),
        metric(
            "http.roundtrip_p50_us",
            pct(&roundtrip, 50.0),
            "us",
            na(wire, &format!("n={} calls", roundtrip.len())),
        ),
        metric(
            "http.roundtrip_p99_us",
            pct(&roundtrip, 99.0),
            "us",
            na(wire, &format!("n={} calls", roundtrip.len())),
        ),
        metric(
            "http.overhead_p50_us",
            pct(
                &records
                    .iter()
                    .filter_map(|r| r.roundtrip_us.map(|rt| rt - r.submit_us))
                    .collect::<Vec<_>>(),
                50.0,
            ),
            "us",
            na(wire, &req),
        ),
        metric(
            "trace.overhead_p50_pct",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
            "%",
            format!("traced p50 vs n={} untraced", untraced.latencies_us.len()),
        ),
        metric("trace.coverage", coverage(log), "ratio", req.clone()),
        metric(
            "trace.accounted_share",
            records.iter().map(|r| r.layers_us).sum::<f64>()
                / records.iter().map(|r| r.submit_us).sum::<f64>(),
            "ratio",
            req,
        ),
    ]
}

/// Share of the replay root spans' time that their layer calls cover: the
/// rest is the benchmark's own glue between the calls.
fn coverage(log: &SpanLog) -> f64 {
    let own = log.self_times();
    let (mut glue, mut total) = (0.0, 0.0);
    for (s, own) in log.spans.iter().zip(own) {
        if s.layer == "replay" {
            glue += own;
            total += s.us();
        }
    }
    1.0 - glue / total
}

fn json_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("foss-e2e-bench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&args, origin) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("foss-e2e-bench: {} failed: {e}", args.spec.name);
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} trace {} clients {}",
        args.spec.name,
        args.seed,
        u8::from(args.trace),
        setup::CLIENTS
    );
    for m in &report.metrics {
        println!(
            "  {:<30} {:>16.4} {:<6} ({})",
            m.name, m.value, m.unit, m.sample
        );
    }
    for c in &report.checks {
        println!("  check: {c}");
    }
    println!("{}", json_line(&report));
    if !report.correct {
        std::process::exit(1);
    }
}
