//! Lower-bound certificates.
//!
//! GOMCDS is provably optimal per datum, but "provably" lives in the code
//! of one DP. These bounds are computed by *different, simpler* reasoning
//! and sandwich every schedule from below, giving the test suite an
//! independent certificate:
//!
//! * [`reference_lower_bound`] — movement is free, every window served
//!   from its own local optimum: no schedule (with any number of moves)
//!   can have lower *reference* cost, and since movement cost ≥ 0, no
//!   schedule can have lower total cost either.
//! * [`single_center_lower_bound`] — the SCDS optimum, which lower-bounds
//!   every *static* schedule.
//!
//! Tests assert `reference_lower_bound ≤ GOMCDS ≤ everything else`, and
//! that the bound is tight exactly when GOMCDS never pays for movement it
//! can't amortize.

use crate::cost::optimal_center;
use pim_array::grid::Grid;
use pim_trace::window::WindowedTrace;

/// Σ over data and windows of the window's minimum possible reference
/// cost. A valid lower bound on the total cost of **any single-copy**
/// schedule, movement included (movement only adds cost, and no center
/// can serve a window cheaper than the window's own optimum). Replicated
/// schedules can go below it — nearest-replica serving beats any single
/// center — which is exactly how `tests/extensions.rs` separates the two
/// regimes.
pub fn reference_lower_bound(trace: &WindowedTrace) -> u64 {
    let grid: Grid = trace.grid();
    let mut total = 0u64;
    for (_, rs) in trace.iter_data() {
        for refs in rs.windows() {
            if !refs.is_empty() {
                total += optimal_center(&grid, refs).1;
            }
        }
    }
    total
}

/// Σ over data of the merged-window optimum — the unconstrained SCDS
/// cost, which lower-bounds every static (never-moving) schedule.
pub fn single_center_lower_bound(trace: &WindowedTrace) -> u64 {
    let grid: Grid = trace.grid();
    trace
        .iter_data()
        .map(|(_, rs)| optimal_center(&grid, &rs.merged_all()).1)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::random_schedule;
    use crate::{Method, Run};
    use pim_trace::window::{WindowRefs, WindowedTrace};

    fn sample() -> WindowedTrace {
        let grid = Grid::new(4, 4);
        WindowedTrace::from_parts(
            grid,
            vec![
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(0, 0), 3)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 3), 2), (grid.proc_xy(2, 3), 1)]),
                ],
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(1, 2), 1)]),
                    WindowRefs::new(),
                ],
            ],
        )
    }

    /// Unbounded total cost of `method` on `trace`.
    fn total(trace: &WindowedTrace, method: Method) -> u64 {
        let s = Run::new(trace).run_method(method).unwrap();
        s.evaluate(trace).total()
    }

    #[test]
    fn sandwich_holds() {
        let trace = sample();
        let lb = reference_lower_bound(&trace);
        let go = total(&trace, Method::Gomcds);
        assert!(lb <= go, "lower bound {lb} exceeds optimum {go}");
        for m in [Method::Scds, Method::Lomcds, Method::GroupedLocal] {
            assert!(go <= total(&trace, m));
        }
        // a random schedule sits far above the bound
        let rnd = random_schedule(&trace, 7).evaluate(&trace).total();
        assert!(rnd >= lb);
    }

    #[test]
    fn static_bound_is_scds() {
        let trace = sample();
        assert_eq!(
            single_center_lower_bound(&trace),
            total(&trace, Method::Scds)
        );
    }

    #[test]
    fn bound_is_tight_when_movement_is_free_to_avoid() {
        let grid = Grid::new(4, 4);
        // references never change location → zero movement needed, bound
        // achieved exactly
        let win = || WindowRefs::from_pairs([(grid.proc_xy(1, 1), 2), (grid.proc_xy(2, 1), 1)]);
        let trace = WindowedTrace::from_parts(grid, vec![vec![win(), win(), win()]]);
        assert_eq!(total(&trace, Method::Gomcds), reference_lower_bound(&trace));
    }

    #[test]
    fn empty_trace_bounds_zero() {
        let grid = Grid::new(2, 2);
        let trace = WindowedTrace::from_parts(grid, vec![vec![WindowRefs::new()]]);
        assert_eq!(reference_lower_bound(&trace), 0);
        assert_eq!(single_center_lower_bound(&trace), 0);
    }
}
