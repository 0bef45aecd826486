//! End-to-end and per-layer benchmark of the PIM data-scheduling system.
//!
//! ```text
//! perfbench --workload <bulk|bounded|paper|serve-churn> --seed N --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! One workload per process. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`; the untraced
//! run (`--trace 0`) reports the end-to-end metrics, the traced run the
//! per-layer ones. See `README.md` next to this package.

mod bounded;
mod bulk;
mod churn;
mod common;
mod paper;
mod sim;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use common::{median, timed, Opts, Outcome};

/// Pool threads: fixed, and never more than the host has.
const MAX_THREADS: usize = 2;

/// End-to-end metrics, printed by every untraced run.
const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("sim_s", "s"),
    ("peak_rss_mb", "MB"),
    ("schedule_cost", "hops"),
    ("sim_cycles", "cycles"),
];

/// Per-layer metrics, printed by every traced run (0 where a workload
/// does not exercise the layer).
const LAYERS: [(&str, &str); 41] = [
    ("host.copy_gbps", "GB/s"),
    ("trace.pimb_load_s", "s"),
    ("trace.pimb_open_s", "s"),
    ("trace.build_s", "s"),
    ("trace.load_gbps", "GB/s"),
    ("trace.refs", "count"),
    ("trace.bytes", "bytes"),
    ("workloads.gen_s", "s"),
    ("sched.scds_s", "s"),
    ("sched.lomcds_s", "s"),
    ("sched.gomcds_s", "s"),
    ("sched.cost_fold_s", "s"),
    ("sched.cache_build_s", "s"),
    ("sched.replay_s", "s"),
    ("sched.displaced_data", "count"),
    ("sched.classic_scds_s", "s"),
    ("sched.classic_lomcds_s", "s"),
    ("sched.classic_gomcds_s", "s"),
    ("sched.grouped_lomcds_s", "s"),
    ("sched.grouped_gomcds_s", "s"),
    ("sched.grouping_s", "s"),
    ("sched.cache_hit_ratio", "ratio"),
    ("incremental.apply_ms", "ms"),
    ("incremental.resolve_ms", "ms"),
    ("incremental.fallbacks", "count"),
    ("par.threads", "count"),
    ("par.lomcds_speedup", "ratio"),
    ("sim.flit_hops", "count"),
    ("sim.ns_per_flit_hop", "ns"),
    ("serve.edit_p50_ms", "ms"),
    ("serve.edit_p90_ms", "ms"),
    ("serve.schedule_p50_ms", "ms"),
    ("serve.ops_per_s", "1/s"),
    ("serve.parse_ms", "ms"),
    ("serve.handle_edit_ms", "ms"),
    ("serve.handle_schedule_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.engine_reuse_ratio", "ratio"),
    ("metrics.overhead_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.failed_frac", "ratio"),
];

const WORKLOADS: [&str; 4] = ["bulk", "bounded", "paper", "serve-churn"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--tiny]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, Opts), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, false, false);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS);
    Ok((
        workload,
        Opts {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace,
            tiny,
            pool: pim_par::Pool::with_threads(threads),
        },
    ))
}

/// Size of the largest CPU cache level, bytes (0 if unknown).
fn llc_bytes() -> u64 {
    let dir = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut best = (0u32, 0u64);
    for e in entries.flatten() {
        let read = |f: &str| std::fs::read_to_string(e.path().join(f)).unwrap_or_default();
        let level = read("level").trim().parse().unwrap_or(0);
        let size = read("size");
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) << 10,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        best = best.max((level, bytes));
    }
    best.1
}

/// Copy bandwidth of this host, GB/s: half of an array at least four
/// times the last-level cache copied onto its other half (median of 3).
/// Returns the rate and the array size.
fn copy_gbps(tiny: bool) -> (f64, usize) {
    let len = if tiny {
        64 << 20
    } else {
        (4 * llc_bytes() as usize).max(256 << 20)
    };
    let mut buf = vec![1u8; len];
    let half = len / 2;
    let rates: Vec<f64> = (0..3)
        .map(|i| {
            buf[i] = i as u8;
            let secs = timed(|| buf.copy_within(..half, half)).0;
            std::hint::black_box(&buf);
            half as f64 / secs / 1e9
        })
        .collect();
    (median(&rates), len)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Render `metrics` as the result object's `metrics` member.
fn render(metrics: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut out: Outcome = match workload.as_str() {
        "bulk" => bulk::run(&opts),
        "bounded" => bounded::run(&opts),
        "paper" => paper::run(&opts),
        _ => churn::run(&opts),
    };

    let (copy, copy_len) = copy_gbps(opts.tiny);
    let threads = opts.pool.threads();
    println!(
        r#"host: {{"nproc": {}, "cpu": "{}", "rustc": "{}", "threads": {threads}, "seed": {}, "copy_gbps": {copy}, "copy_array_bytes": {copy_len}, "llc_bytes": {}}}"#,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        pim_trace::json::escape(&cpu_model()),
        pim_trace::json::escape(&rustc_version()),
        opts.seed,
        llc_bytes(),
    );

    // Every end-to-end metric is a positive, finite measurement.
    for (name, _) in E2E {
        let v = out.e2e.get(name).copied().unwrap_or(0.0);
        out.checks.check(v.is_finite() && v > 0.0, || {
            format!("{name} = {v}, expected > 0")
        });
    }
    let (attempted, failed) = (out.checks.attempted, out.checks.failed);
    println!(
        "workload {workload}: {:.1} s wall",
        started.elapsed().as_secs_f64()
    );
    let metrics = if opts.trace {
        println!("end-to-end (traced run): {}", render(&E2E, &out.e2e));
        out.layer("host.copy_gbps", copy);
        out.layer("par.threads", threads as f64);
        out.layer("bench.failed_frac", failed as f64 / attempted.max(1) as f64);
        render(&LAYERS, &out.layers)
    } else {
        render(&E2E, &out.e2e)
    };
    println!(
        r#"{{"correct": {}, "attempted": {attempted}, "failed": {failed}, "metrics": {metrics}}}"#,
        failed == 0
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
