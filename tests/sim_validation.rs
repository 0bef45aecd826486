//! The simulator cross-check: hop-by-hop routed volume must equal the
//! analytic Manhattan-distance cost for every scheduler on every
//! benchmark, regardless of thread count.

use pim_array::grid::Grid;
use pim_par::Pool;
use pim_sched::{MemoryPolicy, Method, Run};
use pim_sim::simulate;
use pim_workloads::{windowed, Benchmark};

#[test]
fn simulated_hops_equal_analytic_cost_everywhere() {
    let grid = Grid::new(4, 4);
    let memory = MemoryPolicy::ScaledMinimum { factor: 2 };
    for bench in Benchmark::paper_set() {
        let (trace, _) = windowed(bench, grid, 8, 2, 1998);
        for method in [
            Method::Scds,
            Method::Lomcds,
            Method::Gomcds,
            Method::GroupedLocal,
        ] {
            let s = Run::new(&trace).policy(memory).run_method(method).unwrap();
            let analytic = s.evaluate(&trace);
            let report = simulate(&trace, &s, Pool::serial());
            assert_eq!(
                report.total_fetch_hop_volume(),
                analytic.reference,
                "{bench}/{method} fetch"
            );
            assert_eq!(
                report.total_move_hop_volume(),
                analytic.movement,
                "{bench}/{method} move"
            );
        }
    }
}

#[test]
fn parallel_simulation_matches_serial() {
    let grid = Grid::new(4, 4);
    let (trace, _) = windowed(Benchmark::MatMulCode, grid, 16, 2, 1998);
    let s = Run::new(&trace).run_method(Method::Gomcds).unwrap();
    let serial = simulate(&trace, &s, Pool::serial());
    for threads in [2, 4, 8] {
        let par = simulate(&trace, &s, Pool::with_threads(threads));
        assert_eq!(serial, par, "threads={threads}");
    }
}

#[test]
fn better_schedules_relieve_the_network_too() {
    let grid = Grid::new(4, 4);
    let (trace, space) = windowed(Benchmark::MatMulCode, grid, 16, 2, 1998);
    let baseline = space.straightforward(&trace, pim_array::layout::Layout::RowWise);
    let mut run = Run::new(&trace).policy(MemoryPolicy::ScaledMinimum { factor: 2 });
    let gomcds = run.run_method(Method::Gomcds).unwrap();

    let r_base = simulate(&trace, &baseline, Pool::auto());
    let r_go = simulate(&trace, &gomcds, Pool::auto());

    assert!(r_go.total_hop_volume() < r_base.total_hop_volume());
    // the completion-time lower bound should not get worse
    assert!(
        r_go.total_completion_time() <= r_base.total_completion_time(),
        "GOMCDS bound {} vs baseline {}",
        r_go.total_completion_time(),
        r_base.total_completion_time()
    );
}

#[test]
fn window_stats_sum_to_totals() {
    let grid = Grid::new(4, 4);
    let (trace, _) = windowed(Benchmark::Lu, grid, 8, 2, 0);
    let s = Run::new(&trace).run_method(Method::Lomcds).unwrap();
    let report = simulate(&trace, &s, Pool::auto());
    assert_eq!(report.windows().len(), trace.num_windows());
    let sum: u64 = report.windows().iter().map(|w| w.total_hop_volume()).sum();
    assert_eq!(sum, report.total_hop_volume());
    // link volumes also sum to total hop volume (each hop crosses one link)
    let link_sum: u64 = report.link_volume().iter().sum();
    assert_eq!(link_sum, report.total_hop_volume());
}
