//! `bounded`: the flat SCDS, LOMCDS and GOMCDS paths under the tightest
//! memory rule, so capacity replay sits on the critical path.

use pim_array::grid::Grid;
use pim_bench::scale::synthetic_records;
use pim_sched::schedule::Schedule;
use pim_sched::{
    flat_gomcds, flat_lomcds, flat_scds, flat_total_cost, CostCache, MemoryPolicy, SchedError,
};
use pim_trace::flat::FlatTrace;
use pim_trace::ids::DataId;

use crate::bulk::WINDOWS;
use crate::common::{median, run_passes, timed, Opts, Outcome, Spans};
use crate::sim::{simulate_checked, SimTotals};

/// CSR builds per timed batch.
const BATCH_BUILDS: usize = 32;
const POLICY: MemoryPolicy = MemoryPolicy::ScaledMinimum { factor: 1 };

type FlatFn = fn(&FlatTrace, MemoryPolicy, pim_par::Pool) -> Result<Schedule, SchedError>;

/// The three flat schedulers, with the span each is timed under.
const METHODS: [(&str, &str, FlatFn); 3] = [
    ("scds", "sched.scds_s", flat_scds::<FlatTrace>),
    ("lomcds", "sched.lomcds_s", flat_lomcds::<FlatTrace>),
    ("gomcds", "sched.gomcds_s", flat_gomcds::<FlatTrace>),
];

/// Run the workload.
pub fn run(opts: &Opts) -> Outcome {
    let (side, num_data) = if opts.tiny { (8, 3000) } else { (16, 20_000) };
    let grid = Grid::new(side, side);
    let pool = opts.pool;
    let mut out = Outcome::default();

    // Set-up: build the CSR trace from its record stream, in batches of
    // builds. The host's speed flips between a fast and a slow mode about
    // every 0.1-1 s, so a batch lasts ~0.4 s rather than one build's
    // ~13 ms, and its time per build averages over both modes. Each build
    // drops the one before, so later builds reuse freed memory. The
    // passes time another batch after each pass; `setup_s` is the median
    // over batches of the time per build.
    let records = synthetic_records(grid, WINDOWS, num_data, opts.seed);
    let batch = || {
        let (secs, last) = timed(|| {
            let mut last = None;
            for _ in 0..BATCH_BUILDS {
                let input = records.iter().copied();
                last = Some(FlatTrace::from_records(grid, WINDOWS, num_data, input));
            }
            last.expect("a non-empty batch")
        });
        eprintln!("setup batch: {secs:.4} s for {BATCH_BUILDS} builds");
        let flat = last.expect("the generator emits only in-range records");
        (secs / BATCH_BUILDS as f64, flat)
    };
    let (first_batch, flat) = batch();
    let windowed = flat.to_windowed();

    let mut spans = Spans::default();
    let mut first_costs: Option<Vec<u64>> = None;
    let mut sim_totals = SimTotals::default();
    let mut schedules = Vec::new();
    let resetup = |samples: &mut Vec<f64>| samples.push(batch().0);
    let passes = run_passes(
        opts,
        &mut spans,
        &mut out.checks,
        resetup,
        |spans, checks| {
            let (solve_s, costs) = timed(|| {
                schedules.clear();
                let mut costs = Vec::new();
                for (name, span, f) in METHODS {
                    match spans.span(span, || f(&flat, POLICY, pool)) {
                        Ok(s) => {
                            let cost =
                                spans.span("sched.cost_fold_s", || flat_total_cost(&flat, &s));
                            costs.push(cost.total());
                            schedules.push(s);
                        }
                        Err(e) => checks.check(false, || format!("bounded {name}: {e}")),
                    }
                }
                costs
            });
            let want = first_costs.get_or_insert_with(|| costs.clone()).clone();
            checks.equal("bounded pass costs", costs.clone(), want);
            let runs = schedules
                .iter()
                .zip(&costs)
                .map(|(s, &c)| (&windowed, s, c));
            let (sim_s, totals) = timed(|| simulate_checked(runs, pool, checks, "bounded"));
            sim_totals = totals;
            (solve_s, sim_s)
        },
    );
    let cost: u64 = first_costs.expect("at least one pass").iter().sum();
    let setup_s = median(&[&passes.setup[..], &[first_batch]].concat());

    out.e2e("setup_s", setup_s);
    out.e2e("solve_s", median(&passes.solve));
    out.e2e("sim_s", median(&passes.sim));
    out.e2e("peak_rss_mb", median(&passes.rss));
    out.e2e("schedule_cost", cost as f64);
    out.e2e("sim_cycles", sim_totals.cycles as f64);

    if opts.trace {
        // Replay: each bounded call minus the same call unbounded.
        let mut replay_s = 0.0;
        let mut displaced = 0u64;
        for ((_, span, f), bounded) in METHODS.into_iter().zip(&schedules) {
            let mut times = Vec::new();
            let mut free = None;
            for _ in 0..3 {
                let (secs, s) = timed(|| f(&flat, MemoryPolicy::Unbounded, pool));
                times.push(secs);
                free = Some(s.expect("unbounded scheduling cannot exhaust memory"));
            }
            let free = free.expect("at least one run");
            replay_s += spans.median(span) - median(&times);
            displaced += (0..flat.num_data() as u32)
                .filter(|&d| bounded.centers_of(DataId(d)) != free.centers_of(DataId(d)))
                .count() as u64;
        }
        let cache: Vec<f64> = (0..3)
            .map(|_| timed(|| CostCache::build_flat(&flat).num_data()).0)
            .collect();
        let serial: Vec<f64> = (0..3)
            .map(|_| timed(|| flat_lomcds(&flat, POLICY, pim_par::Pool::serial())).0)
            .collect();
        out.layer("trace.build_s", setup_s);
        out.layer("trace.refs", flat.num_refs() as f64);
        out.layer("sched.scds_s", spans.median("sched.scds_s"));
        out.layer("sched.lomcds_s", spans.median("sched.lomcds_s"));
        out.layer("sched.gomcds_s", spans.median("sched.gomcds_s"));
        out.layer("sched.cost_fold_s", spans.median("sched.cost_fold_s"));
        out.layer("sched.cache_build_s", median(&cache));
        out.layer("sched.replay_s", replay_s);
        out.layer("sched.displaced_data", displaced as f64);
        out.layer(
            "par.lomcds_speedup",
            median(&serial) / spans.median("sched.lomcds_s"),
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
