//! Topology-generic scheduling.
//!
//! The main schedulers exploit the 2-D mesh's L1 separability (prefix-sum
//! cost tables, two-pass distance transform). This module provides
//! reference implementations over *any* [`Topology`] — notably the torus
//! ([`pim_array::torus::Torus`]), whose wrap-around links break the open
//! mesh's separability tricks but not the problem structure:
//!
//! * [`cost_table_generic`] — `O(m · r)` per window;
//! * [`optimal_center_generic`] — argmin with the usual lowest-id tie-break;
//! * [`gomcds_path_generic`] — layered DP with `O(m²)` relaxation;
//! * [`scds_generic`] / [`lomcds_generic`] / [`gomcds_generic`] —
//!   unconstrained whole-trace schedulers returning plain center matrices;
//! * [`evaluate_generic`] — cost of a center matrix under the topology.
//!
//! On a `Grid` these produce exactly the same results as the optimized
//! paths (property-tested), which certifies both sides; on a torus they
//! power the `sweep_topology` ablation quantifying what wrap-around links
//! buy the data scheduler.

use pim_array::grid::ProcId;
use pim_array::topology::Topology;
use pim_trace::window::{DataRefString, WindowRefs, WindowedTrace};

/// `out[p] = Σ volume · dist(p, referencing proc)` for every processor.
pub fn cost_table_generic<T: Topology + ?Sized>(topo: &T, refs: &WindowRefs, out: &mut Vec<u64>) {
    out.clear();
    out.extend((0..topo.num_procs() as u32).map(|k| {
        refs.iter()
            .map(|r| r.count as u64 * topo.dist(ProcId(k), r.proc))
            .sum::<u64>()
    }));
}

/// The minimum-cost processor (ties to the lowest id) and its cost.
pub fn optimal_center_generic<T: Topology + ?Sized>(topo: &T, refs: &WindowRefs) -> (ProcId, u64) {
    let mut table = Vec::new();
    cost_table_generic(topo, refs, &mut table);
    let (idx, &cost) = table
        .iter()
        .enumerate()
        .min_by_key(|&(i, &c)| (c, i))
        .expect("topology has processors");
    (ProcId(idx as u32), cost)
}

/// Layered shortest path (GOMCDS) over an arbitrary topology, `O(n·m²)`.
pub fn gomcds_path_generic<T: Topology + ?Sized>(
    topo: &T,
    rs: &DataRefString,
) -> (Vec<ProcId>, u64) {
    let m = topo.num_procs();
    let nw = rs.num_windows();
    let mut dp = vec![vec![0u64; m]; nw];
    let mut node = Vec::new();
    for w in 0..nw {
        cost_table_generic(topo, rs.window(w), &mut node);
        if w == 0 {
            dp[0].copy_from_slice(&node);
        } else {
            for k in 0..m {
                let best = (0..m)
                    .map(|j| dp[w - 1][j] + topo.dist(ProcId(j as u32), ProcId(k as u32)))
                    .min()
                    .expect("non-empty");
                dp[w][k] = best + node[k];
            }
        }
    }
    let (mut k, &best) = dp[nw - 1]
        .iter()
        .enumerate()
        .min_by_key(|&(i, &c)| (c, i))
        .expect("non-empty");
    let mut path = vec![ProcId(0); nw];
    path[nw - 1] = ProcId(k as u32);
    for w in (1..nw).rev() {
        cost_table_generic(topo, rs.window(w), &mut node);
        let need = dp[w][k] - node[k];
        let kk = ProcId(k as u32);
        k = (0..m)
            .find(|&j| dp[w - 1][j] + topo.dist(ProcId(j as u32), kk) == need)
            .expect("backtrack predecessor exists");
        path[w - 1] = ProcId(k as u32);
    }
    (path, best)
}

/// SCDS over any topology (unconstrained memory): one merged-window center
/// per datum.
pub fn scds_generic<T: Topology + ?Sized>(topo: &T, trace: &WindowedTrace) -> Vec<Vec<ProcId>> {
    trace
        .iter_data()
        .map(|(_, rs)| {
            let c = optimal_center_generic(topo, &rs.merged_all()).0;
            vec![c; trace.num_windows()]
        })
        .collect()
}

/// LOMCDS over any topology (unconstrained): per-window local optimum,
/// empty windows carrying the previous center.
pub fn lomcds_generic<T: Topology + ?Sized>(topo: &T, trace: &WindowedTrace) -> Vec<Vec<ProcId>> {
    trace
        .iter_data()
        .map(|(_, rs)| {
            let mut centers: Vec<Option<ProcId>> = rs
                .windows()
                .map(|w| (!w.is_empty()).then(|| optimal_center_generic(topo, w).0))
                .collect();
            crate::lomcds::resolve_gaps(&mut centers);
            centers
                .into_iter()
                .map(|c| c.unwrap_or(ProcId(0)))
                .collect()
        })
        .collect()
}

/// GOMCDS over any topology (unconstrained).
pub fn gomcds_generic<T: Topology + ?Sized>(topo: &T, trace: &WindowedTrace) -> Vec<Vec<ProcId>> {
    trace
        .iter_data()
        .map(|(_, rs)| gomcds_path_generic(topo, rs).0)
        .collect()
}

/// Evaluate a center matrix under a topology (reference + movement).
pub fn evaluate_generic<T: Topology + ?Sized>(
    topo: &T,
    trace: &WindowedTrace,
    centers: &[Vec<ProcId>],
) -> u64 {
    assert_eq!(centers.len(), trace.num_data(), "data count mismatch");
    let mut total = 0u64;
    for (d, rs) in trace.iter_data() {
        let cs = &centers[d.index()];
        assert_eq!(cs.len(), rs.num_windows(), "window mismatch for {d}");
        for (w, refs) in rs.windows().enumerate() {
            total += refs
                .iter()
                .map(|r| r.count as u64 * topo.dist(cs[w], r.proc))
                .sum::<u64>();
        }
        for pair in cs.windows(2) {
            total += topo.dist(pair[0], pair[1]);
        }
    }
    total
}

/// Static row-wise-style baseline over any topology: datum `d` on processor
/// `d % m` (the straight-forward striping when no data shape is known).
pub fn striped_generic<T: Topology + ?Sized>(topo: &T, trace: &WindowedTrace) -> Vec<Vec<ProcId>> {
    let m = topo.num_procs() as u32;
    (0..trace.num_data() as u32)
        .map(|d| vec![ProcId(d % m); trace.num_windows()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gomcds::{gomcds_path, Solver};
    use pim_array::grid::Grid;
    use pim_array::torus::Torus;

    fn sample_trace(grid: Grid) -> WindowedTrace {
        WindowedTrace::from_parts(
            grid,
            vec![
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2), (grid.proc_xy(3, 1), 1)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 3), 4)]),
                    WindowRefs::new(),
                    WindowRefs::from_pairs([(grid.proc_xy(1, 2), 2)]),
                ],
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(2, 0), 1)]),
                    WindowRefs::from_pairs([(grid.proc_xy(2, 3), 3)]),
                    WindowRefs::from_pairs([(grid.proc_xy(2, 0), 1)]),
                    WindowRefs::new(),
                ],
            ],
        )
    }

    #[test]
    fn generic_matches_optimized_on_grid() {
        let grid = Grid::new(4, 4);
        let trace = sample_trace(grid);
        // cost tables
        for (_, rs) in trace.iter_data() {
            for w in rs.windows() {
                let mut generic = Vec::new();
                let mut fast = Vec::new();
                cost_table_generic(&grid, w, &mut generic);
                crate::cost::cost_table(&grid, w, &mut fast);
                assert_eq!(generic, fast);
            }
            // paths
            let (gp, gc) = gomcds_path_generic(&grid, rs);
            let (fp, fc) = gomcds_path(&grid, rs, Solver::DistanceTransform);
            assert_eq!(gc, fc);
            assert_eq!(gp, fp);
        }
        // whole-trace schedulers
        let mut run = crate::Run::new(&trace);
        let go = run.run_named("GOMCDS").unwrap();
        let centers = gomcds_generic(&grid, &trace);
        assert_eq!(
            evaluate_generic(&grid, &trace, &centers),
            go.evaluate(&trace).total()
        );
        let sc = run.run_named("SCDS").unwrap();
        assert_eq!(
            evaluate_generic(&grid, &trace, &scds_generic(&grid, &trace)),
            sc.evaluate(&trace).total()
        );
        let lo = run.run_named("LOMCDS").unwrap();
        assert_eq!(
            evaluate_generic(&grid, &trace, &lomcds_generic(&grid, &trace)),
            lo.evaluate(&trace).total()
        );
    }

    #[test]
    fn torus_never_worse_than_mesh() {
        let grid = Grid::new(4, 4);
        let torus = Torus::new(4, 4);
        let trace = sample_trace(grid);
        // torus distances ≤ mesh distances pointwise, so the torus optimum
        // can't be worse
        let mesh = evaluate_generic(&grid, &trace, &gomcds_generic(&grid, &trace));
        let tor = evaluate_generic(&torus, &trace, &gomcds_generic(&torus, &trace));
        assert!(tor <= mesh, "torus {tor} > mesh {mesh}");
    }

    #[test]
    fn generic_ordering_holds_on_torus() {
        let torus = Torus::new(4, 4);
        let grid = Grid::new(4, 4); // only used to build the trace
        let trace = sample_trace(grid);
        let go = evaluate_generic(&torus, &trace, &gomcds_generic(&torus, &trace));
        let lo = evaluate_generic(&torus, &trace, &lomcds_generic(&torus, &trace));
        let sc = evaluate_generic(&torus, &trace, &scds_generic(&torus, &trace));
        let st = evaluate_generic(&torus, &trace, &striped_generic(&torus, &trace));
        assert!(go <= lo && go <= sc && go <= st);
    }

    #[test]
    fn striped_baseline_shape() {
        let grid = Grid::new(2, 2);
        let trace = sample_trace(Grid::new(4, 4));
        let centers = striped_generic(&grid, &trace);
        assert_eq!(centers.len(), 2);
        assert_eq!(centers[1][0], ProcId(1));
        assert!(centers.iter().all(|cs| cs.len() == trace.num_windows()));
    }
}
