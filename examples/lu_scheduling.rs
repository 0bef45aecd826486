//! LU factorization — the paper's benchmark 1, end to end.
//!
//! Generates the LU reference trace on a 4×4 array, runs the straight-
//! forward row-wise baseline and every scheduler, and shows how the
//! shrinking active region of LU rewards data movement.
//!
//! ```text
//! cargo run --release -p pim-cli --example lu_scheduling
//! ```

use pim_array::grid::Grid;
use pim_array::layout::Layout;
use pim_sched::schedule::improvement_pct;
use pim_sched::{MemoryPolicy, Method, Run};
use pim_trace::stats::trace_stats;
use pim_workloads::{windowed, Benchmark};

fn main() {
    let grid = Grid::new(4, 4);
    let n = 16;
    let (trace, space) = windowed(Benchmark::Lu, grid, n, 2, 0);

    let stats = trace_stats(&trace);
    println!("LU factorization of a {n}x{n} matrix on a {grid}");
    println!(
        "{} data, {} windows, {} references, hot-set drift {:.2} hops/window\n",
        stats.num_data, stats.num_windows, stats.total_volume, stats.mean_drift
    );

    let memory = MemoryPolicy::ScaledMinimum { factor: 2 };
    let sf = space
        .straightforward(&trace, Layout::RowWise)
        .evaluate(&trace)
        .total();
    println!("{:<16} {:>10} {:>8}", "placement", "comm", "gain");
    println!("{:<16} {:>10} {:>8}", "row-wise (S.F.)", sf, "-");

    // Also show the other static layouts for context.
    for layout in [Layout::ColumnWise, Layout::Block2D, Layout::Cyclic] {
        let cost = space
            .straightforward(&trace, layout)
            .evaluate(&trace)
            .total();
        println!(
            "{:<16} {:>10} {:>7.1}%",
            layout.name(),
            cost,
            improvement_pct(sf, cost)
        );
    }
    for method in [
        Method::Scds,
        Method::Lomcds,
        Method::Gomcds,
        Method::GroupedLocal,
    ] {
        let s = Run::new(&trace).policy(memory).run_method(method).unwrap();
        let cost = s.evaluate(&trace);
        println!(
            "{:<16} {:>10} {:>7.1}%   ({} moves)",
            method.name(),
            cost.total(),
            improvement_pct(sf, cost.total()),
            s.num_moves()
        );
    }

    println!(
        "\nAs elimination proceeds the active submatrix shrinks toward one\n\
         corner; the multiple-center schedules follow it, the static ones\n\
         keep paying full-distance fetches."
    );
}
