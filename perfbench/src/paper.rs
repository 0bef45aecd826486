//! `paper`: the paper's five benchmarks through the classic nested-trace
//! `Run` (Table 1 and 2 columns), then the cycle simulator on every
//! schedule.

use pim_array::grid::Grid;
use pim_sched::schedule::Schedule;
use pim_sched::{MemoryPolicy, Metrics, Run};
use pim_trace::flat::FlatTrace;
use pim_trace::window::WindowedTrace;
use pim_workloads::{windowed, Benchmark};

use crate::common::{median, run_passes, timed, Checks, Opts, Outcome, Spans};
use crate::sim::{simulate_checked, SimTotals};

/// Generations of all 15 cells per `setup_s` sample (~0.5 s, so that a
/// sample averages over the host's fast and slow modes).
const GENS_PER_SAMPLE: usize = 4;
/// `setup_s` samples taken before the passes and after each one.
const SAMPLES_PER_POINT: usize = 2;
/// Passes per side when comparing metrics-enabled with disabled runs.
const METRICS_REPS: usize = 3;
const STEPS_PER_WINDOW: usize = 2;
const POLICY: MemoryPolicy = MemoryPolicy::ScaledMinimum { factor: 2 };

/// The Table 1 and 2 columns, with the span each is timed under.
const COLUMNS: [(&str, &str); 5] = [
    ("scds", "sched.classic_scds_s"),
    ("lomcds", "sched.classic_lomcds_s"),
    ("gomcds", "sched.classic_gomcds_s"),
    ("grouped-lomcds", "sched.grouped_lomcds_s"),
    ("grouped-gomcds", "sched.grouped_gomcds_s"),
];

/// Every (benchmark, size) cell of the tables.
fn generate(grid: Grid, sizes: [u32; 3], seed: u64) -> Vec<WindowedTrace> {
    let mut cells = Vec::new();
    for bench in Benchmark::paper_set() {
        for n in sizes {
            cells.push(windowed(bench, grid, n, STEPS_PER_WINDOW, seed).0);
        }
    }
    cells
}

/// One pass: every column on every cell, each schedule costed. Returns
/// `(cell, schedule, total cost)` in cell-major order.
fn solve(
    cells: &[WindowedTrace],
    pool: pim_par::Pool,
    metrics: &Metrics,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Vec<(usize, Schedule, u64)> {
    let mut out = Vec::new();
    for (i, trace) in cells.iter().enumerate() {
        let mut run = Run::new(trace)
            .policy(POLICY)
            .parallel(pool)
            .metrics(metrics.clone());
        for (column, span) in COLUMNS {
            match spans.span(span, || run.run_named(column)) {
                Ok(s) => {
                    let cost = s.evaluate(trace).total();
                    out.push((i, s, cost));
                }
                Err(e) => checks.check(false, || format!("paper cell {i} {column}: {e}")),
            }
        }
    }
    out
}

/// Run the workload.
pub fn run(opts: &Opts) -> Outcome {
    let sizes = if opts.tiny { [8, 12, 16] } else { [32, 48, 64] };
    let grid = Grid::new(8, 8);
    let pool = opts.pool;
    let mut out = Outcome::default();

    // Set-up: generate and window every cell, several times here and
    // again after each pass; `setup_s` is the median over every time.
    let resetup = |samples: &mut Vec<f64>| {
        for _ in 0..SAMPLES_PER_POINT {
            let secs = timed(|| {
                for _ in 0..GENS_PER_SAMPLE {
                    generate(grid, sizes, opts.seed);
                }
            })
            .0;
            samples.push(secs / GENS_PER_SAMPLE as f64);
        }
    };
    let mut gens = Vec::new();
    resetup(&mut gens);
    let cells = generate(grid, sizes, opts.seed);

    let mut spans = Spans::default();
    let mut first_costs: Option<Vec<u64>> = None;
    let mut sim_totals = SimTotals::default();
    let off = Metrics::disabled();
    let passes = run_passes(
        opts,
        &mut spans,
        &mut out.checks,
        resetup,
        |spans, checks| {
            let (solve_s, results) = timed(|| solve(&cells, pool, &off, spans, checks));
            let costs: Vec<u64> = results.iter().map(|r| r.2).collect();
            let want = first_costs.get_or_insert_with(|| costs.clone()).clone();
            checks.equal("paper pass costs", costs, want);
            let runs = results.iter().map(|(i, s, c)| (&cells[*i], s, *c));
            let (sim_s, totals) = timed(|| simulate_checked(runs, pool, checks, "paper"));
            sim_totals = totals;
            (solve_s, sim_s)
        },
    );
    let cost: u64 = first_costs.expect("at least one pass").iter().sum();
    gens.extend_from_slice(&passes.setup);
    let setup_s = median(&gens);

    out.e2e("setup_s", setup_s);
    out.e2e("solve_s", median(&passes.solve));
    out.e2e("sim_s", median(&passes.sim));
    out.e2e("peak_rss_mb", median(&passes.rss));
    out.e2e("schedule_cost", cost as f64);
    out.e2e("sim_cycles", sim_totals.cycles as f64);

    if opts.trace {
        // Metrics overhead: alternate enabled and disabled passes; the
        // last enabled sink gives the cache hit ratio.
        let mut quiet = Spans::default();
        let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
        let mut report = None;
        for _ in 0..METRICS_REPS {
            let on = Metrics::enabled();
            on_s.push(timed(|| solve(&cells, pool, &on, &mut quiet, &mut out.checks)).0);
            off_s.push(timed(|| solve(&cells, pool, &off, &mut quiet, &mut out.checks)).0);
            report = Some(on.report());
        }
        let cache = report.expect("at least one enabled pass").cache;
        let queries = cache.prefix_hits + cache.raw_serves;
        let cells_n = cells.len();
        let column = |name: &str| spans.median_per_pass(name, cells_n);
        let refs: usize = cells
            .iter()
            .map(|t| FlatTrace::from_trace(t).num_refs())
            .sum();
        out.layer("trace.refs", refs as f64);
        out.layer("workloads.gen_s", setup_s);
        for (_, span) in COLUMNS {
            out.layer(span, column(span));
        }
        out.layer(
            "sched.grouping_s",
            column("sched.grouped_lomcds_s") - column("sched.classic_lomcds_s")
                + column("sched.grouped_gomcds_s")
                - column("sched.classic_gomcds_s"),
        );
        out.layer(
            "sched.cache_hit_ratio",
            cache.prefix_hits as f64 / queries.max(1) as f64,
        );
        out.layer(
            "metrics.overhead_frac",
            median(&on_s) / median(&off_s) - 1.0,
        );
        out.layer("sim.flit_hops", sim_totals.flit_hops as f64);
        out.layer(
            "sim.ns_per_flit_hop",
            median(&passes.sim) * 1e9 / sim_totals.flit_hops as f64,
        );
        out.layer("bench.trace_overhead_frac", passes.overhead_frac());
    }
    out
}
