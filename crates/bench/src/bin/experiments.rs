//! Every paper table and ablation experiment, behind one binary:
//!
//! ```text
//! cargo run --release -p pim-bench --bin experiments -- <name> [--csv]
//! ```
//!
//! With no name it prints the experiment names, one per line. `--csv`
//! swaps the aligned text table for machine-readable CSV.

use pim_array::grid::{Grid, ProcId};
use pim_array::layout::Layout;
use pim_array::memory::MemorySpec;
use pim_bench::experiments::{paper_config, run_table};
use pim_bench::table::{self, pct, Cell, Table};
use pim_sched::gomcds::Solver;
use pim_sched::schedule::improvement_pct;
use pim_sched::{registry, MemoryPolicy, Method, Run, Schedule};
use pim_trace::ids::DataId;
use pim_trace::window::WindowedTrace;
use pim_workloads::{windowed, Benchmark, DataSpace};
use std::process::ExitCode;

/// An experiment: prints its table, as CSV when the flag is set.
type Experiment = fn(bool);

/// Every experiment, by command-line name.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", table1),
    ("table2", table2),
    ("figure1", figure1),
    ("sweep_window", sweep_window),
    ("sweep_memory", sweep_memory),
    ("sweep_array", sweep_array),
    ("sweep_movement", sweep_movement),
    ("sweep_online", sweep_online),
    ("sweep_iteration", sweep_iteration),
    ("sweep_adaptive", sweep_adaptive),
    ("sweep_topology", sweep_topology),
    ("sweep_granularity", sweep_granularity),
    ("ablation_solver", ablation_solver),
    ("ablation_grouping", ablation_grouping),
    ("ablation_refine", ablation_refine),
    ("ablation_replication", ablation_replication),
    ("coopt_lu", coopt_lu),
];

fn main() -> ExitCode {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == "--csv");
    let csv = !flags.is_empty();
    match &names[..] {
        [] => {
            for (name, _) in EXPERIMENTS {
                println!("{name}");
            }
            ExitCode::SUCCESS
        }
        [name] => match EXPERIMENTS.iter().find(|(n, _)| n == name) {
            Some((_, run)) => {
                run(csv);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown experiment '{name}'; expected one of:");
                for (name, _) in EXPERIMENTS {
                    eprintln!("  {name}");
                }
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("usage: experiments [<name>] [--csv]");
            ExitCode::FAILURE
        }
    }
}

/// Print one table row; each cell converts through [`Cell::from`].
macro_rules! row {
    ($table:expr, $($cell:expr),+ $(,)?) => {
        $table.row(&[$(Cell::from($cell)),+])
    };
}

/// The data matrix side of every experiment but Tables 1–2 and Figure 1.
const N: u32 = 16;
/// The workload seed of the paper tables.
const SEED: u64 = 1998;

/// The paper's 4×4 array.
fn grid4() -> Grid {
    Grid::new(4, 4)
}

/// A paper benchmark on the 4×4 array, two steps per window.
fn trace16(bench: Benchmark) -> (WindowedTrace, DataSpace) {
    windowed(bench, grid4(), N, 2, SEED)
}

/// The schedule `method` gives `trace` under `policy`.
fn schedule(trace: &WindowedTrace, method: Method, policy: MemoryPolicy) -> Schedule {
    let run = Run::new(trace).policy(policy).run_method(method);
    run.unwrap_or_else(|e| panic!("{method}: {e}"))
}

/// Total cost of `method` on `trace` under `policy`.
fn cost(trace: &WindowedTrace, method: Method, policy: MemoryPolicy) -> u64 {
    schedule(trace, method, policy).evaluate(trace).total()
}

/// Total cost of the row-wise straight-forward distribution.
fn straightforward(space: &DataSpace, trace: &WindowedTrace) -> u64 {
    space
        .straightforward(trace, Layout::RowWise)
        .evaluate(trace)
        .total()
}

/// Percentage by which `cost` exceeds `base`.
fn gap_pct(cost: u64, base: u64) -> f64 {
    (cost as f64 - base as f64) / base as f64 * 100.0
}

/// **Table 1**: total communication cost of the straight-forward
/// distribution vs SCDS, LOMCDS and GOMCDS (before window grouping), on a
/// 4×4 PIM array with memory twice the balanced minimum.
fn table1(csv: bool) {
    paper_table(
        csv,
        "Table 1: total communication cost before grouping (4x4 array, memory = 2x minimum)",
        &["scds", "lomcds", "gomcds"],
    );
}

/// **Table 2**: total communication cost *after* the execution-window
/// optimization (Algorithm 3, grouping decided with LOMCDS-computed
/// centers), same setup as Table 1. SCDS is unchanged by grouping (a single
/// center is insensitive to window boundaries) and is reported for
/// reference; LOMCDS and GOMCDS run on the grouped windows.
fn table2(csv: bool) {
    paper_table(
        csv,
        "Table 2: total communication cost after grouping (Algorithm 3 with LOMCDS centers)",
        &["scds", "grouped-lomcds", "grouped-gomcds"],
    );
}

/// One of the paper's tables, in its own layout.
fn paper_table(csv: bool, title: &str, methods: &[&str]) {
    let rows = run_table(&paper_config(), &registry::schedulers(methods));
    if csv {
        print!("{}", table::render_csv(&rows));
    } else {
        print!("{}", table::render(title, &rows));
    }
}

/// **Figure 1 / Section 3.3**: the worked example of the three schedulers
/// on one datum `D` over a 4×4 array and four execution windows. Prints the
/// per-window reference counts, each scheduler's center sequence and total
/// cost, and the centers stated in the paper's prose. Text only.
fn figure1(_csv: bool) {
    use pim_workloads::paper_example::{expectation, figure1_trace, grid};
    let (trace, _) = figure1_trace();
    let g = grid();
    let exp = expectation();

    println!("Figure 1: processor references for data D (4x4 array, 4 windows)\n");
    for w in 0..trace.num_windows() {
        println!("execution window {w}:");
        for y in 0..g.height() {
            let mut line = String::from("  ");
            for x in 0..g.width() {
                let v = trace.refs(DataId(0)).window(w).volume_at(g.proc_xy(x, y));
                line.push_str(&format!("{v:>3}"));
            }
            println!("{line}");
        }
    }
    println!();

    for method in [Method::Scds, Method::Lomcds, Method::Gomcds] {
        let s = schedule(&trace, method, MemoryPolicy::Unbounded);
        let centers: Vec<String> = (0..trace.num_windows())
            .map(|w| {
                let p = g.point_of(s.center(DataId(0), w));
                format!("({},{})", p.x, p.y)
            })
            .collect();
        println!(
            "{:<7} centers: {}  total cost: {}",
            method.name(),
            centers.join(" "),
            s.evaluate(&trace).total()
        );
    }

    println!(
        "\npaper prose: SCDS center (1,0); LOMCDS (1,0) (1,3) (1,0) (1,1); \
         GOMCDS (1,0) (1,0) (1,0) (1,1)"
    );
    println!(
        "reconstructed costs: SCDS {}, LOMCDS {}, GOMCDS {} (GOMCDS < LOMCDS < SCDS: {})",
        exp.scds_cost,
        exp.lomcds_cost,
        exp.gomcds_cost,
        exp.gomcds_cost < exp.lomcds_cost && exp.lomcds_cost < exp.scds_cost
    );
}

/// The four methods the window and memory sweeps report.
const SWEEP_METHODS: [Method; 4] = [
    Method::Scds,
    Method::Lomcds,
    Method::Gomcds,
    Method::GroupedLocal,
];

/// **Ablation B**: execution-window size vs total communication cost.
/// Section 4 of the paper motivates window grouping with the observation
/// that windows that are too small make inter-center movement dominate;
/// this sweep quantifies it per benchmark.
fn sweep_window(csv: bool) {
    let t = Table::new(
        csv,
        &format!("Window-size sweep: benchmark x steps/window (4x4 array, {N}x{N} data)"),
        "bench,steps_per_window,windows,sf,scds,lomcds,gomcds,grouped",
        "{bench:<6} {steps/win:>9} {windows:>8} {S.F.:>10} \
         {SCDS:>10} {LOMCDS:>10} {GOMCDS:>10} {Grouped:>10}",
    );
    let memory = MemoryPolicy::ScaledMinimum { factor: 2 };
    for bench in Benchmark::paper_set() {
        for steps in [1usize, 2, 4, 8, 16, 32] {
            let (trace, space) = windowed(bench, grid4(), N, steps, SEED);
            let [sc, lo, go, gr] = SWEEP_METHODS.map(|m| cost(&trace, m, memory));
            let sf = straightforward(&space, &trace);
            row!(
                t,
                bench.label(),
                steps,
                trace.num_windows(),
                sf,
                sc,
                lo,
                go,
                gr
            );
        }
        t.gap();
    }
}

/// **Ablation C**: memory pressure vs total communication cost. The tables
/// fix per-processor memory at twice the balanced minimum; this sweep
/// varies the factor from 1× (no slack) to 4× and unbounded.
fn sweep_memory(csv: bool) {
    let t = Table::new(
        csv,
        &format!("Memory-pressure sweep (4x4 array, {N}x{N} data, 2 steps/window)"),
        "bench,memory,sf,scds,lomcds,gomcds,grouped",
        "{bench:<6} {memory:>10} {S.F.:>10} {SCDS:>10} {LOMCDS:>10} {GOMCDS:>10} {Grouped:>10}",
    );
    for bench in Benchmark::paper_set() {
        let (trace, space) = trace16(bench);
        let sf = straightforward(&space, &trace);
        for (label, policy) in [
            ("1x", MemoryPolicy::ScaledMinimum { factor: 1 }),
            ("2x", MemoryPolicy::ScaledMinimum { factor: 2 }),
            ("3x", MemoryPolicy::ScaledMinimum { factor: 3 }),
            ("4x", MemoryPolicy::ScaledMinimum { factor: 4 }),
            ("unbounded", MemoryPolicy::Unbounded),
        ] {
            let [sc, lo, go, gr] = SWEEP_METHODS.map(|m| cost(&trace, m, policy));
            row!(t, bench.label(), label, sf, sc, lo, go, gr);
        }
        t.gap();
    }
}

/// **Ablation D**: processor-array size vs GOMCDS's improvement, from a
/// 2×2 array to 16×16 (PetaFlop-era designs contemplated far larger PIM
/// meshes than the paper's 4×4 testbed).
fn sweep_array(csv: bool) {
    let t = Table::new(
        csv,
        &format!("Array-size sweep ({N}x{N} data, 2 steps/window, memory 2x)"),
        "bench,grid,sf,gomcds,improvement_pct",
        "{bench:<6} {grid:>7} {S.F.:>12} {GOMCDS:>12} {%:>8}",
    );
    let memory = MemoryPolicy::ScaledMinimum { factor: 2 };
    for bench in [Benchmark::Lu, Benchmark::MatMul] {
        for dim in [2u32, 4, 8, 16] {
            let (trace, space) = windowed(bench, Grid::new(dim, dim), N, 2, SEED);
            let sf = straightforward(&space, &trace);
            let go = cost(&trace, Method::Gomcds, memory);
            let gain = pct(improvement_pct(sf, go));
            row!(t, bench.label(), format!("{dim}x{dim}"), sf, go, gain);
        }
        t.gap();
    }
}

/// **Ablation F**: movement-cost crossover. Scales the per-hop movement
/// charge (`move_weight` = datum transfer volume): GOMCDS, re-solved with
/// the weighted cost graph, moves less and less until it degenerates into
/// SCDS, while LOMCDS — which ignores movement when picking centers —
/// falls behind SCDS.
fn sweep_movement(csv: bool) {
    use pim_sched::gomcds::gomcds_path_weighted;
    let bench = Benchmark::CodeReverse;
    let t = Table::new(
        csv,
        &format!(
            "Movement-cost crossover on benchmark {} ({N}x{N}, 4x4 array, unbounded memory)",
            bench.label()
        ),
        "move_weight,scds,lomcds,gomcds,gomcds_moves",
        "{move_weight:>11} {SCDS:>10} {LOMCDS:>10} {GOMCDS:>10} {GOMCDS moves:>13}",
    );
    let (trace, _) = trace16(bench);
    // Weight-independent schedules, evaluated under each weight.
    let scds = schedule(&trace, Method::Scds, MemoryPolicy::Unbounded);
    let lomcds = schedule(&trace, Method::Lomcds, MemoryPolicy::Unbounded);
    for weight in [1u64, 2, 4, 8, 16, 32, 64, 128] {
        // Re-solve GOMCDS against the weighted cost graph.
        let centers: Vec<Vec<ProcId>> = (0..trace.num_data() as u32)
            .map(|d| {
                let refs = trace.refs(DataId(d));
                gomcds_path_weighted(&grid4(), refs, Solver::DistanceTransform, weight).0
            })
            .collect();
        let gomcds = Schedule::new(grid4(), centers);
        let [sc, lo, go] =
            [&scds, &lomcds, &gomcds].map(|s| s.evaluate_weighted(&trace, weight).total());
        assert!(go <= sc && go <= lo, "weighted GOMCDS must stay optimal");
        row!(t, weight, sc, lo, go, gomcds.num_moves());
    }
    t.note(
        "\nSCDS is weight-invariant (it never moves). As movement gets\n\
         expensive GOMCDS sheds its moves and converges to SCDS from\n\
         below; LOMCDS, blind to movement cost, crosses above SCDS.",
    );
}

/// **Ablation I**: online scheduling vs the clairvoyant offline optimum.
/// Runs the online keep-or-move policy across hysteresis thresholds and
/// reports the competitive gap to offline GOMCDS — how much of the paper's
/// gain survives without knowing the future windows.
fn sweep_online(csv: bool) {
    use pim_sched::online::{online_schedule, OnlinePolicy};
    let t = Table::new(
        csv,
        &format!("Online-vs-offline sweep ({N}x{N} data, 4x4 array, unbounded memory)"),
        "bench,threshold,online,offline_gomcds,gap_pct",
        "{bench:<6} {threshold:>10} {online:>10} {offline GOMCDS:>14} {gap:>8}",
    );
    for bench in Benchmark::paper_set() {
        let (trace, _) = trace16(bench);
        let offline = cost(&trace, Method::Gomcds, MemoryPolicy::Unbounded);
        for threshold in [0.0f64, 0.5, 1.0, 2.0, 4.0, 1e9] {
            let spec = MemorySpec::unbounded();
            let online = online_schedule(&trace, OnlinePolicy { threshold, spec })
                .expect("unbounded policy is always feasible")
                .evaluate(&trace)
                .total();
            let label = if threshold >= 1e9 {
                "inf".to_string()
            } else {
                format!("{threshold}")
            };
            let gap = pct(gap_pct(online, offline));
            row!(t, bench.label(), label, online, offline, gap);
        }
        t.gap();
    }
}

/// **Ablation J**: iteration-partition sensitivity. Varies how loop
/// iterations are mapped to processors and re-runs the schedulers, checking
/// that the data-scheduling gains are not an artifact of one iteration
/// layout.
fn sweep_iteration(csv: bool) {
    let t = Table::new(
        csv,
        &format!("Iteration-partition sweep ({N}x{N} data, 4x4 array, memory 2x)"),
        "bench,iter_layout,sf,scds,gomcds,gomcds_gain_pct",
        "{bench:<6} {iter layout:<12} {S.F.:>10} {SCDS:>10} {GOMCDS:>10} {gain:>8}",
    );
    let memory = MemoryPolicy::ScaledMinimum { factor: 2 };
    for bench in [Benchmark::Lu, Benchmark::MatMul, Benchmark::LuCode] {
        for layout in [
            Layout::Block2D,
            Layout::RowWise,
            Layout::ColumnWise,
            Layout::Cyclic,
            Layout::Snake,
            Layout::Diagonal,
        ] {
            let (steps, space) = bench.generate_with_layout(grid4(), N, SEED, layout);
            let trace = steps.window_fixed(2);
            let sf = straightforward(&space, &trace);
            let [sc, go] = [Method::Scds, Method::Gomcds].map(|m| cost(&trace, m, memory));
            let gain = pct(improvement_pct(sf, go));
            row!(t, bench.label(), layout.name(), sf, sc, go, gain);
        }
        t.gap();
    }
}

/// **Ablation K**: fixed vs adaptive windowing (cut on reference-centroid
/// drift), tuned to comparable window counts, under GOMCDS.
fn sweep_adaptive(csv: bool) {
    use pim_trace::adaptive::{window_adaptive, AdaptiveParams};
    let t = Table::new(
        csv,
        &format!("Fixed vs adaptive windowing ({N}x{N} data, 4x4 array, GOMCDS, unbounded)"),
        "bench,windowing,windows,gomcds",
        "{bench:<6} {windowing:<22} {windows:>8} {GOMCDS:>10}",
    );
    for bench in Benchmark::paper_set() {
        let (steps, _) = bench.generate(grid4(), N, SEED);
        let fixed = [1usize, 2, 4].map(|spw| (format!("fixed({spw})"), steps.window_fixed(spw)));
        let adaptive = [0.5f64, 1.0, 2.0].map(|drift_threshold| {
            let params = AdaptiveParams {
                drift_threshold,
                max_steps: 8,
            };
            let (trace, _) = window_adaptive(&steps, params);
            (format!("adaptive(d={drift_threshold})"), trace)
        });
        for (name, trace) in fixed.into_iter().chain(adaptive) {
            let go = cost(&trace, Method::Gomcds, MemoryPolicy::Unbounded);
            row!(t, bench.label(), name, trace.num_windows(), go);
        }
        t.gap();
    }
}

/// **Ablation L**: open mesh vs torus. Reruns the paper's benchmarks with
/// the topology-generic schedulers on a torus of the same dimensions.
fn sweep_topology(csv: bool) {
    use pim_array::topology::Topology;
    use pim_array::torus::Torus;
    use pim_sched::generic::{evaluate_generic, gomcds_generic, scds_generic, striped_generic};
    /// Striped-baseline, SCDS and GOMCDS totals on one topology.
    fn costs<T: Topology>(topo: &T, trace: &WindowedTrace) -> [u64; 3] {
        [
            evaluate_generic(topo, trace, &striped_generic(topo, trace)),
            evaluate_generic(topo, trace, &scds_generic(topo, trace)),
            evaluate_generic(topo, trace, &gomcds_generic(topo, trace)),
        ]
    }
    let t = Table::new(
        csv,
        &format!("Mesh vs torus ({N}x{N} data, 4x4 array, unbounded memory)"),
        "bench,topology,striped,scds,gomcds,gain_pct",
        "{bench:<6} {topo:<7} {striped:>10} {SCDS:>10} {GOMCDS:>10} {gain:>8}",
    );
    for bench in Benchmark::paper_set() {
        let (trace, _) = trace16(bench);
        let mesh = costs(&grid4(), &trace);
        let torus = costs(&Torus::new(4, 4), &trace);
        for (topo, [base, sc, go]) in [("mesh", mesh), ("torus", torus)] {
            row!(
                t,
                bench.label(),
                topo,
                base,
                sc,
                go,
                pct(improvement_pct(base, go))
            );
        }
        t.gap();
    }
}

/// **Ablation M**: element vs row granularity. Re-expresses each benchmark
/// with whole matrix rows as the distribution unit (moving a datum costs
/// `row_length` per hop) and runs the volume-aware GOMCDS.
fn sweep_granularity(csv: bool) {
    use pim_sched::gomcds::gomcds_schedule_volumes;
    use pim_workloads::granularity::rows_of;
    let t = Table::new(
        csv,
        &format!("Element vs row granularity ({N}x{N} data, 4x4 array, unbounded memory)"),
        "bench,granularity,sf,scds,gomcds,gomcds_gain_pct,moves",
        "{bench:<6} {unit:<9} {S.F.:>10} {SCDS:>10} {GOMCDS:>10} {gain:>8} {moves:>8}",
    );
    for bench in Benchmark::paper_set() {
        let (steps, space) = bench.generate(grid4(), N, SEED);

        // element granularity (the paper's model)
        let trace = steps.window_fixed(2);
        let sf = straightforward(&space, &trace);
        let sc = cost(&trace, Method::Scds, MemoryPolicy::Unbounded);
        let go_s = schedule(&trace, Method::Gomcds, MemoryPolicy::Unbounded);
        let go = go_s.evaluate(&trace).total();
        let gain = pct(improvement_pct(sf, go));
        row!(
            t,
            bench.label(),
            "element",
            sf,
            sc,
            go,
            gain,
            go_s.num_moves()
        );

        // row granularity: per-datum volumes = row length
        let rt = rows_of(&steps, &space);
        let trace = rt.steps.window_fixed(2);
        let weigh = |s: &Schedule| s.evaluate_volumes(&trace, &rt.volumes).total();
        let sf = weigh(&rt.space.straightforward(&trace, Layout::RowWise));
        let sc = weigh(&schedule(&trace, Method::Scds, MemoryPolicy::Unbounded));
        let go_s = gomcds_schedule_volumes(&trace, &rt.volumes);
        let go = weigh(&go_s);
        let gain = pct(improvement_pct(sf, go));
        row!(t, bench.label(), "row", sf, sc, go, gain, go_s.num_moves());
        t.gap();
    }
    t.note(
        "Row-level movement is 16x heavier per hop, so GOMCDS moves far\n\
         less — yet still beats both the static baseline and SCDS: good\n\
         placement carries the day; movement is the (cheap) icing.",
    );
}

/// **Ablation A**: naive `O(m²)` cost-graph relaxation vs the `O(m)`
/// distance-transform solver inside GOMCDS. Verifies the two produce
/// identical schedules on every paper benchmark, then times both on
/// growing arrays (wall-clock; see `benches/gomcds_solvers.rs` for the
/// Criterion version).
fn ablation_solver(csv: bool) {
    use std::time::Instant;
    let memory = MemoryPolicy::ScaledMinimum { factor: 2 };
    let mut title =
        String::from("GOMCDS solver ablation: naive O(m^2) vs distance-transform O(m)\n");
    // 1. bit-identical results on the paper set (reported in text mode)
    for bench in Benchmark::paper_set() {
        let (trace, _) = trace16(bench);
        let mut run = Run::new(&trace).policy(memory);
        let a = run.run_named("GOMCDS-naive").unwrap();
        let b = run.run_named("GOMCDS").unwrap();
        assert_eq!(a, b, "solver divergence on benchmark {}", bench.label());
        let cost = a.evaluate(&trace).total();
        title += &format!(
            "\nbenchmark {}: schedules identical (cost {cost})",
            bench.label()
        );
    }

    // 2. scaling with array size
    let t = Table::new(
        csv,
        &title,
        "grid,naive,dt,speedup",
        "{grid:>7} {naive:>12} {dt:>12} {speedup:>8}",
    );
    for dim in [4u32, 8, 16, 24] {
        let (trace, _) = windowed(Benchmark::MatMul, Grid::new(dim, dim), N, 2, SEED);
        let timed = |name| {
            let t0 = Instant::now();
            let s = Run::new(&trace).run_named(name).unwrap();
            (s, t0.elapsed())
        };
        let (a, naive) = timed("GOMCDS-naive");
        let (b, dt) = timed("GOMCDS");
        assert_eq!(a, b);
        let speedup = naive.as_secs_f64() / dt.as_secs_f64().max(1e-9);
        let grid = format!("{dim}x{dim}");
        row!(
            t,
            grid,
            format!("{naive:.2?}"),
            format!("{dt:.2?}"),
            format!("{speedup:.1}x")
        );
    }
}

/// **Ablation E**: greedy window grouping (the paper's Algorithm 3) vs the
/// exact DP-optimal grouping, per datum: how often the greedy matches the
/// optimum and the aggregate optimality gap.
fn ablation_grouping(csv: bool) {
    use pim_sched::grouping::{cost_of_grouping, greedy_grouping, optimal_grouping, GroupMethod};
    let t = Table::new(
        csv,
        "Grouping ablation: greedy (Algorithm 3) vs DP-optimal, per datum",
        "bench,data,greedy,optimal,matched_pct,gap_pct",
        "{bench:<6} {data:>6} {greedy:>12} {optimal:>12} {matched:>9} {gap:>10}",
    );
    let grid = grid4();
    for bench in Benchmark::paper_set() {
        let (trace, _) = trace16(bench);
        let (mut greedy_total, mut optimal_total, mut matched) = (0u64, 0u64, 0usize);
        for d in 0..trace.num_data() {
            let rs = trace.refs(DataId(d as u32));
            let groups = greedy_grouping(&grid, rs, GroupMethod::LocalCenters);
            let g_cost = cost_of_grouping(&grid, rs, &groups, GroupMethod::LocalCenters);
            let (_, o_cost) = optimal_grouping(&grid, rs);
            assert!(
                o_cost <= g_cost,
                "optimal exceeded greedy on datum {d} of benchmark {}",
                bench.label()
            );
            greedy_total += g_cost;
            optimal_total += o_cost;
            matched += usize::from(g_cost == o_cost);
        }
        let gap = if optimal_total > 0 {
            gap_pct(greedy_total, optimal_total)
        } else {
            0.0
        };
        let data = trace.num_data();
        let matched = pct(matched as f64 / data as f64 * 100.0);
        let gap = Cell::Pct(gap, 2);
        row!(
            t,
            bench.label(),
            data,
            greedy_total,
            optimal_total,
            matched,
            gap
        );
    }
}

/// **Ablation G**: local-search refinement vs the exact schedulers.
/// Hill-climbs from the straightforward baseline, SCDS and LOMCDS, reports
/// how much of the gap to GOMCDS each start closes, and confirms that
/// refinement cannot improve GOMCDS itself.
fn ablation_refine(csv: bool) {
    use pim_sched::refine::refine;
    let t = Table::new(
        csv,
        &format!("Refinement ablation ({N}x{N} data, 4x4 array, unbounded memory)"),
        "bench,start,before,after,sweeps,vs_gomcds_pct",
        "{bench:<6} {start:>12} {before:>12} {after:>12} {sweeps:>8} {vs GOMCDS:>10}",
    );
    let policy = MemoryPolicy::Unbounded;
    for bench in Benchmark::paper_set() {
        let (trace, space) = trace16(bench);
        let gomcds = cost(&trace, Method::Gomcds, policy);
        let starts = [
            ("row-wise", space.straightforward(&trace, Layout::RowWise)),
            ("SCDS", schedule(&trace, Method::Scds, policy)),
            ("LOMCDS", schedule(&trace, Method::Lomcds, policy)),
            ("GOMCDS", schedule(&trace, Method::Gomcds, policy)),
        ];
        for (name, mut s) in starts {
            let before = s.evaluate(&trace).total();
            let stats = refine(&trace, &mut s, MemorySpec::unbounded(), 100);
            let after = s.evaluate(&trace).total();
            if name == "GOMCDS" {
                assert_eq!(stats.moves_applied, 0, "GOMCDS must be locally optimal");
            }
            assert!(
                after >= gomcds,
                "local search cannot beat the global optimum"
            );
            let vs = pct(gap_pct(after, gomcds));
            row!(
                t,
                bench.label(),
                name,
                before,
                after,
                u64::from(stats.sweeps),
                vs
            );
        }
        t.gap();
    }
}

/// **Ablation H**: the read-replication extension (two and three copies
/// per datum) vs single-copy GOMCDS, per benchmark and memory budget
/// (secondaries only materialize into free slots).
fn ablation_replication(csv: bool) {
    use pim_sched::kcopy::kcopy_schedule;
    use pim_sched::replicate::replicated_schedule;
    let t = Table::new(
        csv,
        &format!("Replication ablation ({N}x{N} data, 4x4 array)"),
        "bench,memory,one_copy,two_copy,three_copy,gain_pct,secondaries",
        "{bench:<6} {memory:>10} {1-copy:>12} {2-copy:>12} {3-copy:>12} \
         {gain:>8} {secondaries:>12}",
    );
    for bench in Benchmark::paper_set() {
        let (trace, _) = trace16(bench);
        for (label, policy) in [
            ("2x", MemoryPolicy::ScaledMinimum { factor: 2 }),
            ("4x", MemoryPolicy::ScaledMinimum { factor: 4 }),
            ("unbounded", MemoryPolicy::Unbounded),
        ] {
            let spec = policy.resolve(&trace);
            let single = cost(&trace, Method::Gomcds, policy);
            let repl = replicated_schedule(&trace, spec);
            let dual = repl.evaluate(&trace).total();
            let triple = kcopy_schedule(&trace, spec, 3).evaluate(&trace).total();
            let gain = pct(improvement_pct(single, dual));
            let slots = repl.secondary_slots();
            row!(t, bench.label(), label, single, dual, triple, gain, slots);
        }
        t.gap();
    }
}

/// **Ablation N**: co-optimizing the iteration partition with the data
/// schedule on LU. With an owner-computes rule the two stages feed back
/// into each other; this alternates them to a fixed point and reports the
/// cost per round.
fn coopt_lu(csv: bool) {
    use pim_workloads::coopt::lu_owner_computes;
    use pim_workloads::lu::{lu_trace, LuParams};
    let t = Table::new(
        csv,
        &format!("LU iteration/data co-optimization ({N}x{N}, 4x4 array, GOMCDS)"),
        "round,total,vs_round0_pct",
        "{round:<28} {total:>10} {vs round 0:>10}",
    );
    let spw = 2usize;
    let memory = MemoryPolicy::Unbounded;

    // Round 0: static block iteration partition (the paper's setup).
    let (steps, space) = lu_trace(grid4(), LuParams::new(N));
    let mut trace = steps.window_fixed(spw);
    let mut sched = schedule(&trace, Method::Gomcds, memory);
    let round0 = sched.evaluate(&trace).total();
    row!(t, "0 (static partition)", round0, pct(0.0));
    let sf = straightforward(&space, &trace);

    let mut prev = round0;
    for round in 1..=6 {
        // Regenerate the trace with iterations following the previous
        // round's data placement (owner computes), then reschedule.
        let (steps, _) = lu_owner_computes(grid4(), N, spw, |d: DataId, w| {
            sched.center(d, w.min(sched.num_windows() - 1))
        });
        trace = steps.window_fixed(spw);
        sched = schedule(&trace, Method::Gomcds, memory);
        let cost = sched.evaluate(&trace).total();
        let gain = pct(improvement_pct(round0, cost));
        row!(t, format!("{round} (owner-computes)"), cost, gain);
        if cost == prev {
            t.note(&format!("fixed point after round {round}"));
            break;
        }
        prev = cost;
    }

    t.note(&format!(
        "\nbaselines: row-wise S.F. {sf}; two-stage GOMCDS {round0}.\n\
         Letting iterations follow the data removes every write fetch and\n\
         re-centers the reads — cost the two-stage pipeline cannot reach."
    ));
}
