//! `serve-churn`: an in-process `pim-serve` TCP daemon under closed-loop
//! clients that each edit their own resident trace and re-read its cost.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use pim_array::grid::Grid;
use pim_bench::scale::{synthetic_flat, Rng64};
use pim_sched::schedule::Schedule;
use pim_sched::{flat_lomcds, flat_total_cost, IncrementalRun, MemoryPolicy, Method};
use pim_serve::{proto, Client, ServeConfig, ServeCore, Server};
use pim_trace::binfmt::{self, BinTrace};
use pim_trace::flat::FlatTrace;
use pim_trace::ids::DataId;
use pim_trace::json::{self, Value};
use pim_trace::window::WindowedTrace;
use pim_trace::{EditableTrace, TraceDelta};

use crate::bulk::WINDOWS;
use crate::common::{
    median, peak_rss_mb, quantile, reset_peak_rss, timed, Checks, Opts, Outcome, TempFile,
    MIN_PASSES,
};
use crate::sim::{simulate_checked, SimTotals};

const CLIENTS: usize = 2;
/// Daemon start-ups (with both loads and cold schedules) for `setup_s`.
const SETUP_REPS: usize = 9;
/// Simulation repetitions for `sim_s`, half before the closed loop and
/// half after it.
const SIM_REPS: usize = 16;
/// Sampling interval of the peak resident set during the closed loop.
const RSS_INTERVAL: Duration = Duration::from_millis(500);
/// Calls per direct layer probe in the traced run.
const PROBE_REPS: usize = 40;
const SCHEDULE: &str = r#""op":"schedule","method":"lomcds""#;

/// One client's input: its trace file and its repeated delta.
struct Input {
    file: TempFile,
    base: FlatTrace,
    delta: TraceDelta,
}

fn input(grid: Grid, num_data: usize, seed: u64, tag: &str) -> Input {
    let base = synthetic_flat(grid, WINDOWS, num_data, seed);
    let file = TempFile::new(tag);
    binfmt::pack_file(&base, file.path()).expect("write the .pimb input");
    // 1% of the data, one `SetRun` each. The same delta is sent every
    // time, so the edited trace (and its cost) does not depend on how
    // many edits a run manages.
    let mut rng = Rng64::new(seed ^ 0x5eed_5eed);
    let mut delta = TraceDelta::new();
    for _ in 0..(num_data / 100).max(1) {
        let d = DataId(rng.below(num_data as u64) as u32);
        let w = rng.below(WINDOWS as u64) as u32;
        let p = grid.proc_xy(
            rng.below(grid.width() as u64) as u32,
            rng.below(grid.height() as u64) as u32,
        );
        delta.set_run(d, w, [(p, 1 + rng.below(4) as u32)]);
    }
    Input { file, base, delta }
}

/// The from-scratch answer for an edited trace: `flat_lomcds`, its
/// cost, and the nested trace the schedule is simulated on.
fn oracle(input: &Input, pool: pim_par::Pool) -> (Schedule, u64, WindowedTrace) {
    let mut edited = EditableTrace::new(input.base.clone());
    edited
        .apply(&input.delta)
        .expect("the generated delta is in range");
    let edited = edited.materialize();
    let schedule = flat_lomcds(&edited, MemoryPolicy::Unbounded, pool)
        .expect("unbounded LOMCDS cannot exhaust memory");
    let cost = flat_total_cost(&edited, &schedule).total();
    (schedule, cost, edited.to_windowed())
}

fn parse(line: &str) -> Option<Value> {
    json::parse(line).ok()
}

fn is_ok(v: &Option<Value>) -> bool {
    v.as_ref()
        .and_then(|v| v.get("ok"))
        .and_then(Value::as_bool)
        .unwrap_or(false)
}

fn total_cost(v: &Option<Value>) -> Option<u64> {
    v.as_ref()?.get("cost")?.get("total")?.as_u64()
}

/// Send one request, counting it; the parsed response when it is ok.
fn request(client: &mut Client, line: &str, checks: &mut Checks) -> Option<Value> {
    let response = client.request(line);
    let parsed = response.as_ref().ok().and_then(|r| parse(r));
    let ok = is_ok(&parsed);
    checks.check(ok, || format!("request {line:.60}…: {response:?}"));
    parsed.filter(|_| ok)
}

fn edit_line(key: &str, delta: &TraceDelta) -> String {
    format!(
        r#"{{"op":"edit","trace":"{key}","delta":{}}}"#,
        delta.to_json()
    )
}

fn schedule_line(key: &str) -> String {
    format!(r#"{{{SCHEDULE},"trace":"{key}"}}"#)
}

/// Start a daemon, load every input by path and schedule each once
/// (cold). Returns the server and the trace keys.
fn stand_up(config: &ServeConfig, inputs: &[Input], checks: &mut Checks) -> (Server, Vec<String>) {
    let server = Server::start_tcp(config, "127.0.0.1:0").expect("bind a loopback port");
    let addr = server.tcp_addr().expect("a TCP endpoint");
    let mut client = Client::connect_tcp(addr).expect("connect to the daemon");
    let mut keys = Vec::new();
    for input in inputs {
        let path = json::escape(&input.file.path().to_string_lossy());
        let loaded = request(
            &mut client,
            &format!(r#"{{"op":"load","path":"{path}"}}"#),
            checks,
        );
        let key = loaded
            .as_ref()
            .and_then(|v| v.get("trace"))
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        request(&mut client, &schedule_line(&key), checks);
        keys.push(key);
    }
    (server, keys)
}

/// Latencies one closed-loop client saw, seconds.
#[derive(Default)]
struct Loop {
    edit: Vec<f64>,
    schedule: Vec<f64>,
    round: Vec<f64>,
    last_cost: Option<u64>,
    checks: Checks,
}

fn client_loop(addr: SocketAddr, key: &str, delta: &TraceDelta, deadline: Instant) -> Loop {
    let mut out = Loop::default();
    let mut client = Client::connect_tcp(addr).expect("connect to the daemon");
    let (edit, schedule) = (edit_line(key, delta), schedule_line(key));
    // Warm-up round: connection set-up and first-touch costs stay out.
    request(&mut client, &edit, &mut out.checks);
    request(&mut client, &schedule, &mut out.checks);
    while out.round.len() < MIN_PASSES || Instant::now() < deadline {
        let t0 = Instant::now();
        let edited = request(&mut client, &edit, &mut out.checks);
        let t1 = Instant::now();
        let costed = request(&mut client, &schedule, &mut out.checks);
        let t2 = Instant::now();
        if edited.is_none() || costed.is_none() {
            break;
        }
        out.last_cost = total_cost(&costed);
        out.edit.push((t1 - t0).as_secs_f64());
        out.schedule.push((t2 - t1).as_secs_f64());
        out.round.push((t2 - t0).as_secs_f64());
    }
    out
}

/// Run the workload.
pub fn run(opts: &Opts) -> Outcome {
    let (side, num_data) = if opts.tiny { (8, 3000) } else { (16, 100_000) };
    let grid = Grid::new(side, side);
    let pool = opts.pool;
    let mut out = Outcome::default();
    let inputs: Vec<Input> = (0..CLIENTS)
        .map(|c| {
            let seed = opts
                .seed
                .wrapping_mul(CLIENTS as u64)
                .wrapping_add(c as u64 + 1);
            input(grid, num_data, seed, &format!("serve-churn-{c}"))
        })
        .collect();
    let config = ServeConfig {
        workers: CLIENTS,
        queue_capacity: 64,
        cache_bytes: 1 << 30,
        pool_threads: pool.threads(),
    };

    // Simulation of the edited traces' from-scratch schedules, timed in
    // two halves: here, before the daemon starts, and after the closed
    // loop. The host's speed drifts over seconds, so the median then
    // spans the run rather than one stretch of a few seconds. The
    // nested traces are dropped in between, to keep them out of the
    // loop's resident set.
    let mut sim_times = Vec::new();
    let mut sim_totals = SimTotals::default();
    let mut simulate = |oracles: &[(Schedule, u64, WindowedTrace)], checks: &mut Checks| {
        for _ in 0..SIM_REPS / 2 {
            let runs = oracles.iter().map(|(s, c, w)| (w, s, *c));
            let (secs, totals) = timed(|| simulate_checked(runs, pool, checks, "serve-churn"));
            eprintln!("sim rep: {secs:.4} s");
            sim_times.push(secs);
            sim_totals = totals;
        }
    };
    let oracles: Vec<_> = inputs.iter().map(|i| oracle(i, pool)).collect();
    simulate(&oracles, &mut out.checks);
    drop(oracles);

    // Set-up: daemon start, both loads and each trace's cold schedule.
    // The repeats come after the closed loop, so the loop's resident set
    // holds one daemon's history only.
    let (secs, (server, keys)) = timed(|| stand_up(&config, &inputs, &mut out.checks));
    let mut setups = vec![secs];
    let addr = server.tcp_addr().expect("a TCP endpoint");

    // Closed loop: each client edits, then schedules, until the deadline.
    // Meanwhile this thread samples the peak resident set per interval.
    let deadline = opts.deadline();
    let started = Instant::now();
    let mut rss = Vec::new();
    let loops: Vec<Loop> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .iter()
            .zip(&keys)
            .map(|(input, key)| scope.spawn(move || client_loop(addr, key, &input.delta, deadline)))
            .collect();
        loop {
            reset_peak_rss(&mut out.checks);
            std::thread::sleep(RSS_INTERVAL);
            rss.push(peak_rss_mb());
            if handles.iter().all(|h| h.is_finished()) {
                break;
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let mut stats_client = Client::connect_tcp(addr).expect("connect to the daemon");
    let stats = request(&mut stats_client, r#"{"op":"stats"}"#, &mut out.checks);
    drop(stats_client);
    server.shutdown();
    for _ in 1..SETUP_REPS {
        let (secs, (server, _)) = timed(|| stand_up(&config, &inputs, &mut out.checks));
        setups.push(secs);
        server.shutdown();
    }

    let oracles: Vec<_> = inputs.iter().map(|i| oracle(i, pool)).collect();
    let (mut edits, mut schedules, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let mut cost = 0u64;
    for (lp, (_, want, _)) in loops.into_iter().zip(&oracles) {
        out.checks.attempted += lp.checks.attempted;
        out.checks.failed += lp.checks.failed;
        out.checks.equal(
            "serve-churn cost vs from-scratch",
            lp.last_cost,
            Some(*want),
        );
        cost += want;
        edits.extend(lp.edit);
        schedules.extend(lp.schedule);
        rounds.extend(lp.round);
    }

    simulate(&oracles, &mut out.checks);

    out.e2e("setup_s", median(&setups));
    out.e2e("solve_s", median(&rounds));
    out.e2e("sim_s", median(&sim_times));
    out.e2e("peak_rss_mb", median(&rss));
    out.e2e("schedule_cost", cost as f64);
    out.e2e("sim_cycles", sim_totals.cycles as f64);

    if opts.trace {
        let server_stats = stats.as_ref().and_then(|v| v.get("server"));
        let count = |k: &str| {
            server_stats
                .and_then(|s| s.get(k))
                .and_then(Value::as_u64)
                .unwrap_or(0) as f64
        };
        let reuse = count("engine_reuses") / (count("engine_reuses") + count("engine_builds"));
        let edit_p50 = median(&edits);
        out.layer("serve.edit_p50_ms", edit_p50 * 1e3);
        out.layer("serve.edit_p90_ms", quantile(&edits, 0.9) * 1e3);
        out.layer("serve.schedule_p50_ms", median(&schedules) * 1e3);
        out.layer(
            "serve.ops_per_s",
            (edits.len() + schedules.len()) as f64 / elapsed,
        );
        out.layer("serve.engine_reuse_ratio", reuse);
        layer_probes(&inputs[0], &config, edit_p50, &mut out);
        let open: Vec<f64> = (0..3)
            .map(|_| timed(|| BinTrace::open(inputs[0].file.path()).expect("open .pimb")).0)
            .collect();
        out.layer("trace.pimb_open_s", median(&open));
        out.layer(
            "trace.refs",
            inputs.iter().map(|i| i.base.num_refs()).sum::<usize>() as f64,
        );
        out.layer(
            "trace.bytes",
            inputs
                .iter()
                .map(|i| std::fs::metadata(i.file.path()).map_or(0, |m| m.len()))
                .sum::<u64>() as f64,
        );
        out.layer("sim.flit_hops", sim_totals.flit_hops as f64);
        out.layer(
            "sim.ns_per_flit_hop",
            median(&sim_times) * 1e9 / sim_totals.flit_hops as f64,
        );
    }
    out
}

/// Direct calls into the incremental engine and the daemon core with the
/// first client's delta: no transport, no queue.
fn layer_probes(input: &Input, config: &ServeConfig, client_edit_p50: f64, out: &mut Outcome) {
    let pool = pim_par::Pool::with_threads(config.pool_threads);
    let mut engine = IncrementalRun::new(
        input.base.clone(),
        Method::Lomcds,
        MemoryPolicy::Unbounded,
        pool,
    )
    .expect("unbounded LOMCDS cannot exhaust memory");
    let (mut apply, mut resolve) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        let (a, applied) = timed(|| engine.apply(&input.delta));
        let (r, resolved) = timed(|| engine.resolve());
        out.checks.check(applied.is_ok() && resolved.is_ok(), || {
            "incremental engine refused the delta".to_string()
        });
        apply.push(a);
        resolve.push(r);
    }
    out.layer("incremental.apply_ms", median(&apply) * 1e3);
    out.layer("incremental.resolve_ms", median(&resolve) * 1e3);
    out.layer("incremental.fallbacks", engine.fallbacks() as f64);

    let core = ServeCore::new(config);
    let path = json::escape(&input.file.path().to_string_lossy());
    let loaded = core.handle_line(&format!(r#"{{"op":"load","path":"{path}"}}"#), (0, 0));
    let key = parse(&loaded)
        .and_then(|v| v.get("trace").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_default();
    let (edit, schedule) = (edit_line(&key, &input.delta), schedule_line(&key));
    core.handle_line(&schedule, (0, 0));
    let (mut parse_s, mut edit_s, mut schedule_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        let (p, (_, parsed)) = timed(|| proto::parse_request(&edit));
        out.checks
            .check(parsed.is_ok(), || "edit line failed to parse".to_string());
        parse_s.push(p);
        let (e, r) = timed(|| core.handle_line(&edit, (0, 0)));
        out.checks
            .check(is_ok(&parse(&r)), || format!("direct edit: {r}"));
        edit_s.push(e);
        let (s, r) = timed(|| core.handle_line(&schedule, (0, 0)));
        out.checks
            .check(is_ok(&parse(&r)), || format!("direct schedule: {r}"));
        schedule_s.push(s);
    }
    out.layer("serve.parse_ms", median(&parse_s) * 1e3);
    out.layer("serve.handle_edit_ms", median(&edit_s) * 1e3);
    out.layer("serve.handle_schedule_ms", median(&schedule_s) * 1e3);
    out.layer(
        "serve.transport_ms",
        (client_edit_p50 - median(&edit_s)) * 1e3,
    );
}
