//! `bulk`: the flat SCDS and LOMCDS paths on a trace far larger than the
//! last-level cache, loaded from a `.pimb` file, with unbounded memory.

use pim_array::grid::Grid;
use pim_bench::scale::synthetic_records;
use pim_sched::schedule::Schedule;
use pim_sched::{
    flat_lomcds, flat_scds, flat_total_cost, stream_total_cost, MemoryPolicy, Method, StreamConfig,
};
use pim_trace::binfmt::{self, BinTrace};
use pim_trace::flat::FlatTrace;
use pim_trace::ids::DataId;

use crate::common::{median, run_passes, timed, Opts, Outcome, Spans, TempFile};
use crate::sim::{simulate_checked, SimTotals};

/// Windows of every synthetic instance.
pub const WINDOWS: usize = 32;
/// Windows cycle-simulated per schedule. The generator draws windows
/// uniformly, so the first few stand for all of them, and a nested copy
/// of all 32 windows of 1M data would take over a gigabyte.
const SIM_WINDOWS: usize = 4;
/// Times the `.pimb` load is repeated for `setup_s`.
const SETUP_REPS: usize = 8;
const POLICY: MemoryPolicy = MemoryPolicy::Unbounded;

/// One pass: flat SCDS and LOMCDS, each costed. Returns the schedules
/// and their total costs, in that order.
fn solve(flat: &FlatTrace, pool: pim_par::Pool, spans: &mut Spans) -> (Vec<Schedule>, Vec<u64>) {
    let scds = spans
        .span("sched.scds_s", || flat_scds(flat, POLICY, pool))
        .expect("unbounded SCDS cannot exhaust memory");
    let scds_cost = spans.span("sched.cost_fold_s", || flat_total_cost(flat, &scds));
    let lomcds = spans
        .span("sched.lomcds_s", || flat_lomcds(flat, POLICY, pool))
        .expect("unbounded LOMCDS cannot exhaust memory");
    let lomcds_cost = spans.span("sched.cost_fold_s", || flat_total_cost(flat, &lomcds));
    (
        vec![scds, lomcds],
        vec![scds_cost.total(), lomcds_cost.total()],
    )
}

/// `schedule` cut to its first `windows` windows.
fn head_of(schedule: &Schedule, windows: usize) -> Schedule {
    let rows = (0..schedule.num_data())
        .map(|d| schedule.centers_of(DataId(d as u32))[..windows].to_vec())
        .collect();
    Schedule::new(schedule.grid(), rows)
}

/// Run the workload.
pub fn run(opts: &Opts) -> Outcome {
    let (side, num_data) = if opts.tiny {
        (8, 4000)
    } else {
        (32, 1_000_000)
    };
    let grid = Grid::new(side, side);
    let pool = opts.pool;
    let mut out = Outcome::default();

    // Input: the synthetic trace, packed once to a `.pimb` file, and its
    // first windows as a trace of their own (flat, and nested for the
    // simulator).
    let records = synthetic_records(grid, WINDOWS, num_data, opts.seed);
    let head = records
        .iter()
        .filter(|r| (r.window as usize) < SIM_WINDOWS)
        .copied();
    let head = FlatTrace::from_records(grid, SIM_WINDOWS, num_data, head)
        .expect("the generator emits only in-range records");
    let head_windowed = head.to_windowed();
    let (build_s, flat) = timed(|| FlatTrace::from_records(grid, WINDOWS, num_data, records));
    let flat = flat.expect("the generator emits only in-range records");
    let file = TempFile::new("bulk");
    let bytes = binfmt::pack_file(&flat, file.path()).expect("write the .pimb input");
    drop(flat);

    // Set-up: load the file into memory, several times, before the
    // passes only. Loads re-timed after a pass ran up to twice as fast as
    // these in some processes and not in others, as freed memory came
    // back already touched or not, so they would make `setup_s` bimodal.
    let mut loads = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        drop(loaded.take());
        let (secs, flat) = timed(|| binfmt::load_flat(file.path()));
        eprintln!("setup load: {secs:.4} s");
        loads.push(secs);
        loaded = Some(flat.expect("load the .pimb input"));
    }
    let flat = loaded.expect("at least one load");

    let mut spans = Spans::default();
    let mut first_cost = None;
    let mut sim_totals = SimTotals::default();
    let passes = run_passes(
        opts,
        &mut spans,
        &mut out.checks,
        |_| {},
        |spans, checks| {
            let (solve_s, (schedules, costs)) = timed(|| solve(&flat, pool, spans));
            let want = first_cost.get_or_insert_with(|| costs.clone()).clone();
            checks.equal("bulk pass costs", costs, want);
            // Each schedule's analytic cost over the simulated windows, from
            // the flat cost fold rather than from the simulator's messages.
            let head_costs: Vec<u64> = schedules
                .iter()
                .map(|s| flat_total_cost(&head, &head_of(s, SIM_WINDOWS)).total())
                .collect();
            let runs = schedules
                .iter()
                .zip(head_costs)
                .map(|(s, c)| (&head_windowed, s, c));
            let (sim_s, totals) = timed(|| simulate_checked(runs, pool, checks, "bulk"));
            sim_totals = totals;
            (solve_s, sim_s)
        },
    );
    let costs = first_cost.expect("at least one pass");
    let setup_s = median(&loads);

    // Each flat cost must equal the out-of-core pipeline's over the file.
    for (method, &cost) in [Method::Scds, Method::Lomcds].into_iter().zip(&costs) {
        match stream_total_cost(file.path(), method, POLICY, pool, StreamConfig::default()) {
            Ok(c) => out
                .checks
                .equal("bulk flat vs stream cost", cost, c.total()),
            Err(e) => out
                .checks
                .check(false, || format!("bulk stream {method}: {e}")),
        }
    }
    let cost: u64 = costs.iter().sum();

    out.e2e("setup_s", setup_s);
    out.e2e("solve_s", median(&passes.solve));
    out.e2e("sim_s", median(&passes.sim));
    out.e2e("peak_rss_mb", median(&passes.rss));
    out.e2e("schedule_cost", cost as f64);
    out.e2e("sim_cycles", sim_totals.cycles as f64);

    if opts.trace {
        let open: Vec<f64> = (0..3)
            .map(|_| timed(|| BinTrace::open(file.path()).expect("open the .pimb input")).0)
            .collect();
        let serial: Vec<f64> = (0..3)
            .map(|_| timed(|| flat_lomcds(&flat, POLICY, pim_par::Pool::serial())).0)
            .collect();
        let sim_s = median(&passes.sim);
        out.layer("trace.pimb_load_s", setup_s);
        out.layer("trace.pimb_open_s", median(&open));
        out.layer("trace.build_s", build_s);
        out.layer("trace.load_gbps", bytes as f64 / setup_s / 1e9);
        out.layer("trace.refs", flat.num_refs() as f64);
        out.layer("trace.bytes", bytes as f64);
        out.layer("sched.scds_s", spans.median("sched.scds_s"));
        out.layer("sched.lomcds_s", spans.median("sched.lomcds_s"));
        out.layer("sched.cost_fold_s", spans.median("sched.cost_fold_s"));
        out.layer(
            "par.lomcds_speedup",
            median(&serial) / spans.median("sched.lomcds_s"),
        );
        out.layer("sim.flit_hops", sim_totals.flit_hops as f64);
        out.layer(
            "sim.ns_per_flit_hop",
            sim_s * 1e9 / sim_totals.flit_hops as f64,
        );
        out.layer("bench.trace_overhead_frac", passes.overhead_frac());
    }
    out
}
