//! Property tests over randomly generated traces: optimality orderings,
//! solver agreement, parallel determinism, and cost-model self-consistency.

use pim_array::grid::{Grid, ProcId};
use pim_par::Pool;
use pim_sched::cost::{cost_at, cost_table, cost_table_naive, optimal_center};
use pim_sched::median::median_center;
use pim_sched::{MemoryPolicy, Method, Run};
use pim_trace::window::{WindowRefs, WindowedTrace};
use proptest::prelude::*;

/// Random grid up to 6×6.
fn arb_grid() -> impl Strategy<Value = Grid> {
    (1u32..=6, 1u32..=6).prop_map(|(w, h)| Grid::new(w, h))
}

/// Random reference string over a grid (possibly empty).
fn arb_refs(grid: Grid) -> impl Strategy<Value = WindowRefs> {
    let m = grid.num_procs() as u32;
    proptest::collection::vec((0..m, 1u32..6), 0..6).prop_map(move |pairs| {
        WindowRefs::from_pairs(pairs.into_iter().map(|(p, n)| (ProcId(p), n)))
    })
}

/// Random windowed trace: up to 4 data × up to 6 windows.
fn arb_trace() -> impl Strategy<Value = WindowedTrace> {
    arb_grid().prop_flat_map(|grid| {
        (1usize..=4, 1usize..=6).prop_flat_map(move |(nd, nw)| {
            proptest::collection::vec(proptest::collection::vec(arb_refs(grid), nw..=nw), nd..=nd)
                .prop_map(move |per_data| WindowedTrace::from_parts(grid, per_data))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gomcds_never_worse_unbounded(trace in arb_trace()) {
        let mut run = Run::new(&trace);
        let mut total = |m| run.run_method(m).unwrap().evaluate(&trace).total();
        let go = total(Method::Gomcds);
        for other in [Method::Scds, Method::Lomcds, Method::GroupedLocal, Method::GroupedGomcds] {
            let cost = total(other);
            prop_assert!(go <= cost, "GOMCDS {go} > {other} {cost}");
        }
    }

    #[test]
    fn naive_and_dt_gomcds_agree(trace in arb_trace()) {
        let mut run = Run::new(&trace);
        let a = run.run_method(Method::Gomcds).unwrap();
        let b = run.run_method(Method::GomcdsNaive).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn naive_and_dt_agree_under_capacity(trace in arb_trace()) {
        // capacity: enough room overall, tight per processor
        let cap = (trace.num_data() as u32).div_ceil(trace.grid().num_procs() as u32) + 1;
        let mut run = Run::new(&trace).policy(MemoryPolicy::Capacity(cap));
        let a = run.run_method(Method::Gomcds).unwrap();
        let b = run.run_method(Method::GomcdsNaive).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn parallel_equals_sequential(trace in arb_trace()) {
        for method in [Method::Scds, Method::Lomcds, Method::Gomcds, Method::GroupedLocal] {
            let seq = Run::new(&trace).run_method(method).unwrap();
            let pool = Pool::with_threads(4);
            let par = Run::new(&trace).parallel(pool).run_method(method).unwrap();
            prop_assert_eq!(seq, par, "method {}", method);
        }
    }

    #[test]
    fn scds_is_single_window_optimal(trace in arb_trace()) {
        // SCDS cost equals the optimum of the collapsed (single-window)
        // problem, which is GOMCDS on the collapsed trace.
        let collapsed = trace.collapsed();
        let scds = Run::new(&trace).run_method(Method::Scds).unwrap();
        let opt = Run::new(&collapsed).run_method(Method::Gomcds).unwrap();
        prop_assert_eq!(scds.evaluate(&trace).total(), opt.evaluate(&collapsed).total());
    }

    #[test]
    fn cost_tables_agree(grid in arb_grid(), seed in 0u64..500) {
        let m = grid.num_procs() as u32;
        let refs = WindowRefs::from_pairs(
            (0..seed % 7).map(|i| (ProcId((seed.wrapping_mul(i + 3) % m as u64) as u32), (i % 4 + 1) as u32)),
        );
        let mut a = Vec::new();
        let mut b = Vec::new();
        cost_table_naive(&grid, &refs, &mut a);
        cost_table(&grid, &refs, &mut b);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn median_solver_matches_table_solver(grid in arb_grid(), seed in 0u64..500) {
        let m = grid.num_procs() as u32;
        let refs = WindowRefs::from_pairs(
            (0..seed % 8).map(|i| (ProcId((seed.wrapping_mul(i + 11) % m as u64) as u32), (i % 3 + 1) as u32)),
        );
        let (c_table, best) = optimal_center(&grid, &refs);
        let c_median = median_center(&grid, &refs);
        prop_assert_eq!(cost_at(&grid, &refs, c_median), best);
        prop_assert_eq!(c_median, c_table);
    }

    #[test]
    fn evaluate_is_additive_over_data(trace in arb_trace()) {
        let s = Run::new(&trace).run_method(Method::Lomcds).unwrap();
        let total = s.evaluate(&trace);
        let mut sum = pim_sched::CostBreakdown::default();
        for d in 0..trace.num_data() {
            sum.add(s.evaluate_data(&trace, pim_trace::ids::DataId(d as u32)));
        }
        prop_assert_eq!(total, sum);
    }

    #[test]
    fn simulator_always_matches_analytic(trace in arb_trace()) {
        let s = Run::new(&trace).run_method(Method::Gomcds).unwrap();
        let report = pim_sim::simulate(&trace, &s, Pool::serial());
        prop_assert_eq!(report.total_hop_volume(), s.evaluate(&trace).total());
    }
}
