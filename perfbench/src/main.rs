//! Benchmark runner.
//!
//! ```text
//! perfbench --workload <search-dram|race-screened|daemon-journal|all>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of an untraced
//! run; with `--trace 1`, the per-layer metrics of a traced run (the
//! first half of the time runs untraced, for the tracing overhead).
//! The last line of standard output is one JSON object. Any failed
//! correctness check exits with code 1.

use archgym_core::executor::Executor;
use archgym_perfbench::harness::{peak_rss_mib, Limit, Phase, Progress, RSS_AT_UNITS};
use archgym_perfbench::layers::{self, Metric, TracedPhase};
use archgym_perfbench::stats::{beyond, percentile};
use archgym_perfbench::{search_dram, trace, traced_phase, Workload, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Fresh processes that each repeat the set-up, besides the run's own.
const SETUP_CHILDREN: usize = 100;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "usage: perfbench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1>",
            WORKLOADS.join("|")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "all" {
        run_all(&args)
    } else if args.setup_only {
        setup_only(&args, process_start)
    } else if args.trace {
        traced(&args)
    } else {
        untraced(&args, process_start)
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run every workload, each in a fresh process, forwarding the output.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let mut code = ExitCode::SUCCESS;
    for workload in WORKLOADS {
        let mut child = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
        child.args(["--workload", workload]);
        child.args(["--seed", &args.seed.to_string()]);
        child.args(["--seconds", &args.seconds.to_string()]);
        child.args(["--trace", if args.trace { "1" } else { "0" }]);
        let status = child.status().map_err(|e| e.to_string())?;
        if !status.success() {
            code = ExitCode::FAILURE;
        }
    }
    Ok(code)
}

/// Child mode: set up once, print the seconds since process start, and
/// exit without running a unit.
fn setup_only(args: &Args, process_start: Instant) -> Result<ExitCode, String> {
    let workload = Workload::setup(&args.workload, args.seed, false).map_err(|e| e.to_string())?;
    let setup_s = process_start.elapsed().as_secs_f64();
    workload.abandon();
    println!("{setup_s}");
    Ok(ExitCode::SUCCESS)
}

/// Set-up seconds of one fresh process.
fn child_setup_s(args: &Args) -> Result<f64, String> {
    let out = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--setup-only")
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse::<f64>()) {
        (true, Ok(s)) => Ok(s),
        _ => Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Units the traced half runs at most, so that its spans fit in memory
/// and on disk (a daemon job records about 300 spans, a search 2400).
const TRACED_UNITS: u64 = 2000;

/// The untraced run: set-up, the timed closed loop, the checks and the
/// end-to-end metrics.
fn untraced(args: &Args, process_start: Instant) -> Result<ExitCode, String> {
    let workload = Workload::setup(&args.workload, args.seed, false).map_err(|e| e.to_string())?;
    let mut setups = vec![process_start.elapsed().as_secs_f64()];
    for _ in 0..SETUP_CHILDREN {
        setups.push(child_setup_s(args)?);
    }
    let progress = Progress::default();
    let phase = workload.run(Limit::seconds(args.seconds as f64), &progress);
    workload.teardown().map_err(|e| e.to_string())?;

    let times: Vec<f64> = phase.units.iter().map(|u| u.secs).collect();
    let attempted = phase.units.len();
    let failed = phase.failed();
    let metrics = vec![
        metric("samples_per_s", phase.samples_per_s(), "1/s"),
        metric("run_p50_s", percentile(&times, 0.5).unwrap_or(0.0), "s"),
        metric("run_p90_s", percentile(&times, 0.9).unwrap_or(0.0), "s"),
        metric(
            "ok_frac",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("setup_s", percentile(&setups, 0.5).unwrap_or(0.0), "s"),
        metric("peak_rss_mib", phase.rss_mib, "MiB"),
    ];
    describe(args, &phase, "untraced");
    println!(
        "run_p90_s over {attempted} units, {} beyond it; setup_s is the median of {} fresh processes: {:?}",
        beyond(&times, 0.9),
        setups.len(),
        setups
    );
    println!(
        "peak_rss_mib: VmHWM after {} units ({:.1} MiB at the end); failed_frac {}",
        RSS_AT_UNITS.min(attempted as u64),
        peak_rss_mib(),
        failed as f64 / attempted.max(1) as f64
    );
    report(failed == 0, attempted, failed, &metrics)
}

/// The traced run: half the time untraced (for the overhead), half
/// traced; prints the per-layer metrics.
fn traced(args: &Args) -> Result<ExitCode, String> {
    let half = args.seconds as f64 / 2.0;
    let plain = {
        let workload =
            Workload::setup(&args.workload, args.seed, false).map_err(|e| e.to_string())?;
        let phase = workload.run(Limit::seconds(half), &Progress::default());
        workload.teardown().map_err(|e| e.to_string())?;
        phase
    };
    let traced_limit = Limit {
        seconds: half,
        units: TRACED_UNITS,
    };
    let traced =
        traced_phase(&args.workload, args.seed, traced_limit).map_err(|e| e.to_string())?;
    describe(args, &plain, "untraced half");
    describe(args, &traced.phase, "traced half");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/traces")
        .join(format!("{}-seed{}.tsv", args.workload, args.seed));
    match trace::write_tsv(&path, &traced.spans) {
        Ok(()) => println!("{} spans written to {}", traced.spans.len(), path.display()),
        Err(e) => println!("spans not written ({}): {e}", path.display()),
    }

    let metrics = layers::per_layer(&TracedPhase {
        phase: &traced.phase,
        spans: &traced.spans,
        proposals: traced.proposals,
        append_bytes: traced.append_bytes,
        pool_jobs: search_dram::JOBS,
        untraced_samples_per_s: plain.samples_per_s(),
    });
    let (holds, detail) = layers::reason(&args.workload, &metrics);
    println!(
        "reason {}: {detail}",
        if holds { "holds" } else { "does NOT hold" }
    );

    // Wrapping must not change a result: units run in both halves agree.
    let plain_results: BTreeMap<u64, u64> = plain.units.iter().map(|u| (u.id, u.result)).collect();
    let mismatched = traced
        .phase
        .units
        .iter()
        .filter(|u| plain_results.get(&u.id).is_some_and(|&r| r != u.result))
        .count();
    let degraded = traced
        .phase
        .counts
        .get("degraded_samples")
        .copied()
        .unwrap_or(0);
    if mismatched > 0 || degraded > 0 {
        println!("FAIL: {mismatched} units differ traced vs untraced; {degraded} degraded samples");
    }
    let attempted = plain.units.len() + traced.phase.units.len();
    let failed = plain.failed() + traced.phase.failed();
    report(
        failed == 0 && mismatched == 0 && degraded == 0,
        attempted,
        failed,
        &metrics,
    )
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// Human-readable lines about a phase, before the JSON line.
fn describe(args: &Args, phase: &Phase, what: &str) {
    let samples: u64 = phase.units.iter().map(|u| u.samples).sum();
    println!(
        "{} seed {} ({what}): {} units, {samples} samples in {:.3} s, digest {:016x}, {} cores",
        args.workload,
        args.seed,
        phase.units.len(),
        phase.wall_s,
        phase.digest(),
        Executor::available_parallelism()
    );
    if args.workload == "daemon-journal" {
        println!("daemon state: memory-backed StoreIo (no disk)");
    }
    for unit in phase.units.iter().filter(|u| u.error.is_some()).take(5) {
        println!(
            "FAIL unit {}: {}",
            unit.id,
            unit.error.as_deref().unwrap_or_default()
        );
    }
}

/// Print the result line; a failed check exits with code 1.
fn report(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Result<ExitCode, String> {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(if correct && attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
