//! Network view: route every transfer hop by hop and inspect what the
//! mesh actually carries under each scheduler.
//!
//! Demonstrates `pim-sim`: the simulated hop-volume must equal the
//! analytic cost (asserted), and the per-link statistics show that the
//! schedulers don't just shrink traffic — they also relieve the hottest
//! link and the idealized completion-time bound.
//!
//! ```text
//! cargo run --release -p pim-cli --example network_view
//! ```

use pim_array::grid::Grid;
use pim_array::layout::Layout;
use pim_par::Pool;
use pim_sched::{MemoryPolicy, Method, Run};
use pim_workloads::{windowed, Benchmark};

fn main() {
    let grid = Grid::new(4, 4);
    let n = 16;
    let (trace, space) = windowed(Benchmark::MatMulCode, grid, n, 2, 1998);
    let memory = MemoryPolicy::ScaledMinimum { factor: 2 };

    println!("matmul+CODE (benchmark 4), {n}x{n} data on {grid}\n");
    println!(
        "{:<16} {:>11} {:>12} {:>11} {:>11} {:>10}",
        "schedule", "hop-volume", "hottest link", "T (bound)", "T (cycles)", "imbalance"
    );

    let baseline = space.straightforward(&trace, Layout::RowWise);
    let mut rows = vec![("row-wise (S.F.)".to_string(), baseline)];
    for method in [Method::Scds, Method::Lomcds, Method::Gomcds] {
        rows.push((
            method.name().to_string(),
            Run::new(&trace).policy(memory).run_method(method).unwrap(),
        ));
    }

    for (name, sched) in rows {
        let report = pim_sim::simulate(&trace, &sched, Pool::auto());
        let analytic = sched.evaluate(&trace).total();
        assert_eq!(
            report.total_hop_volume(),
            analytic,
            "simulator must agree with the analytic model"
        );
        let hottest = report
            .hottest_link()
            .map(|(_, v)| v.to_string())
            .unwrap_or_else(|| "-".into());
        let cycles: u64 = pim_sim::cycle::simulate_cycles(&trace, &sched, Pool::auto())
            .expect("benchmark windows fit the safety valve")
            .iter()
            .map(|r| r.completion_cycle)
            .sum();
        assert!(
            cycles >= report.total_completion_time(),
            "clocked time must respect the lower bound"
        );
        println!(
            "{:<16} {:>11} {:>12} {:>11} {:>11} {:>9.2}x",
            name,
            report.total_hop_volume(),
            hottest,
            report.total_completion_time(),
            cycles,
            report.link_imbalance()
        );
    }

    println!(
        "\nEvery row's hop-volume equals the analytic Manhattan-distance cost\n\
         — the simulator cross-checks the paper's cost model end to end."
    );
}
