//! Brute-force optimal scheduling for tiny instances.
//!
//! Enumerates *every* center sequence for each datum and keeps the
//! cheapest. Exponential (`m^n` per datum), usable only for tests — which
//! is exactly its job: certifying that GOMCDS's layered shortest path
//! really is the per-datum optimum, independent of the DP's correctness
//! arguments.

use crate::cost::cost_at;
use crate::schedule::Schedule;
use pim_array::grid::{Grid, ProcId};
use pim_trace::window::{DataRefString, WindowedTrace};

/// The minimum achievable cost and one sequence achieving it (the
/// lexicographically smallest among minimizers, for determinism).
pub fn optimal_path_exhaustive(grid: &Grid, rs: &DataRefString) -> (Vec<ProcId>, u64) {
    let m = grid.num_procs();
    let nw = rs.num_windows();
    assert!(
        (m as f64).powi(nw as i32) <= 5e7,
        "exhaustive search infeasible: {m}^{nw} sequences"
    );
    // Precompute per-window cost tables.
    let tables: Vec<Vec<u64>> = (0..nw)
        .map(|w| {
            let mut t = Vec::new();
            crate::cost::cost_table(grid, rs.window(w), &mut t);
            t
        })
        .collect();

    let mut best_cost = u64::MAX;
    let mut best_seq: Vec<usize> = vec![0; nw];
    let mut seq = vec![0usize; nw];
    loop {
        // evaluate
        let mut cost = 0u64;
        for w in 0..nw {
            cost += tables[w][seq[w]];
            if w > 0 {
                cost += grid.dist(ProcId(seq[w - 1] as u32), ProcId(seq[w] as u32));
            }
        }
        if cost < best_cost {
            best_cost = cost;
            best_seq.copy_from_slice(&seq);
        }
        // next sequence (counting with most-significant digit first so the
        // first minimum found is lexicographically smallest)
        let mut i = nw;
        loop {
            if i == 0 {
                return (
                    best_seq.into_iter().map(|k| ProcId(k as u32)).collect(),
                    best_cost,
                );
            }
            i -= 1;
            seq[i] += 1;
            if seq[i] < m {
                break;
            }
            seq[i] = 0;
        }
    }
}

/// Brute-force optimal schedule for a whole (tiny) trace, unconstrained
/// memory.
pub fn exhaustive_schedule(trace: &WindowedTrace) -> Schedule {
    let grid = trace.grid();
    let centers = trace
        .iter_data()
        .map(|(_, rs)| optimal_path_exhaustive(&grid, rs).0)
        .collect();
    Schedule::new(grid, centers)
}

/// Verify one datum's cost for a given center sequence (helper shared by
/// tests).
pub fn path_cost(grid: &Grid, rs: &DataRefString, path: &[ProcId]) -> u64 {
    assert_eq!(path.len(), rs.num_windows());
    let mut cost = 0u64;
    for (w, refs) in rs.windows().enumerate() {
        cost += cost_at(grid, refs, path[w]);
    }
    for pair in path.windows(2) {
        cost += grid.dist(pair[0], pair[1]);
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gomcds::{gomcds_path, Solver};
    use pim_trace::window::WindowRefs;

    #[test]
    fn gomcds_matches_exhaustive_on_small_grids() {
        let grid = Grid::new(3, 2);
        let cases: Vec<Vec<WindowRefs>> = vec![
            vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2)]),
                WindowRefs::from_pairs([(grid.proc_xy(2, 1), 1)]),
                WindowRefs::from_pairs([(grid.proc_xy(0, 1), 3)]),
            ],
            vec![
                WindowRefs::from_pairs([(grid.proc_xy(1, 0), 1), (grid.proc_xy(2, 0), 2)]),
                WindowRefs::new(),
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]),
                WindowRefs::from_pairs([(grid.proc_xy(2, 1), 4)]),
            ],
            vec![WindowRefs::new(), WindowRefs::new()],
        ];
        for windows in cases {
            let rs = DataRefString::new(windows);
            let (ex_path, ex_cost) = optimal_path_exhaustive(&grid, &rs);
            let (go_path, go_cost) = gomcds_path(&grid, &rs, Solver::DistanceTransform);
            assert_eq!(go_cost, ex_cost, "cost mismatch");
            assert_eq!(path_cost(&grid, &rs, &go_path), go_cost);
            assert_eq!(path_cost(&grid, &rs, &ex_path), ex_cost);
        }
    }

    #[test]
    fn exhaustive_schedule_matches_gomcds_totals() {
        let grid = Grid::new(2, 2);
        let trace = WindowedTrace::from_parts(
            grid,
            vec![
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]),
                    WindowRefs::from_pairs([(grid.proc_xy(1, 1), 2)]),
                ],
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(1, 0), 3)]),
                    WindowRefs::from_pairs([(grid.proc_xy(0, 1), 1)]),
                ],
            ],
        );
        let ex = exhaustive_schedule(&trace).evaluate(&trace).total();
        let go = crate::Run::new(&trace)
            .run_named("GOMCDS")
            .unwrap()
            .evaluate(&trace)
            .total();
        assert_eq!(ex, go);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn refuses_explosive_instances() {
        let grid = Grid::new(8, 8);
        let rs = DataRefString::new(vec![WindowRefs::new(); 12]);
        optimal_path_exhaustive(&grid, &rs);
    }
}
