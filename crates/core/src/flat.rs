//! Scheduling straight off a flat CSR trace — the big-instance fast path.
//!
//! The registry schedulers consume a [`pim_trace::window::WindowedTrace`];
//! at millions of data the nested representation's allocation count and
//! pointer chasing dominate the runtime before any scheduling math runs.
//! The entry points here drive SCDS, LOMCDS and GOMCDS directly from the
//! flat CSR layout. They are generic over [`FlatView`], so the same code
//! runs against an owned in-memory [`pim_trace::flat::FlatTrace`] or a zero-copy
//! memory-mapped [`pim_trace::binfmt::BinTrace`] — scheduling straight off
//! file bytes:
//!
//! * center selection uses the incremental weighted medians of
//!   [`crate::median::MedianState`] wherever the classic path's full cost
//!   table is only read at its argmin (SCDS always; every unconstrained
//!   LOMCDS window) — `O(span + width + height)` per datum instead of
//!   `O(windows · (width + height))` table sweeps;
//! * per-datum work is sharded over the [`pim_par`] pool in contiguous
//!   chunks sized by [`pim_par::auto_chunk`], so workers stream adjacent
//!   spans of the shared `refs` array;
//! * bounded-capacity runs keep the two-phase shape of the classic
//!   schedulers and call the very same capacity replays
//!   (`scds::ScdsReplay`, `lomcds::lomcds_assign`,
//!   `gomcds::gomcds_replay`).
//!
//! Every entry point is **bit-identical** to the classic scheduler on the
//! equivalent nested trace (property-tested in
//! `tests/cache_equivalence.rs`): the weighted median with
//! smallest-coordinate tie-break equals the cost table's lowest-id argmin
//! (see [`crate::median`]), and capacity resolution replays the same
//! decisions in the same order.

use crate::cache::CostCache;
use crate::cost::AxisScratch;
use crate::error::{ensure_feasible, SchedError};
use crate::gomcds::{gomcds_path_cached, gomcds_replay, Solver};
use crate::median::MedianState;
use crate::pipeline::MemoryPolicy;
use crate::scds::ScdsReplay;
use crate::schedule::{CostBreakdown, Schedule};
use crate::workspace::{per_datum, Workspace};
use pim_array::grid::{Grid, ProcId};
use pim_metrics::Metrics;
use pim_par::Pool;
use pim_trace::flat::{span_window_runs, FlatRef, FlatView};
use pim_trace::ids::DataId;

/// Full-span cost table of one datum (merged over all windows), built from
/// the flat refs — the spill path when a median center has no room.
/// Shared with the out-of-core pipeline and the incremental engine.
pub(crate) fn span_full_table(
    grid: &Grid,
    span: &[FlatRef],
    axes: &mut AxisScratch,
    out: &mut Vec<u64>,
) {
    axes.reset_weights(grid);
    for r in span {
        axes.wx[r.x as usize] += r.count as u64;
        axes.wy[r.y as usize] += r.count as u64;
    }
    axes.sweep_into(grid, out);
}

/// The merged-window weighted median of one span — SCDS's pure per-datum
/// phase. Shared with the out-of-core pipeline and the incremental engine.
pub(crate) fn span_merged_median(grid: &Grid, span: &[FlatRef], med: &mut MedianState) -> ProcId {
    med.reset(grid);
    for r in span {
        med.add(r.x, r.y, r.count as u64);
    }
    med.center(grid)
}

/// SCDS on a flat trace: one merged-window median per datum, capacity
/// resolved by `ScdsReplay` in ascending datum order. Bit-identical to
/// [`crate::scds::scds_schedule_parallel`] on the equivalent nested trace —
/// the merged median *is* the head of the merged processor list, and a
/// datum only needs the rest of that list when its median is full.
pub fn flat_scds<V: FlatView + ?Sized>(
    flat: &V,
    policy: MemoryPolicy,
    pool: Pool,
) -> Result<Schedule, SchedError> {
    let grid = flat.grid();
    let nd = flat.num_data();
    let nw = flat.num_windows();
    let spec = policy.resolve_parts(&grid, nd);
    ensure_feasible(&grid, spec, nd)?;

    let medians = per_datum(pool, nd, |med, d| {
        span_merged_median(&grid, flat.span(d), med)
    });
    if spec.capacity_per_proc == u32::MAX {
        return Ok(Schedule::static_placement(grid, medians, nw));
    }
    let mut replay = ScdsReplay::new(&grid, spec, Metrics::disabled());
    let mut axes = AxisScratch::default();
    let mut placement = Vec::with_capacity(nd);
    for (i, c) in medians.into_iter().enumerate() {
        let d = DataId(i as u32);
        placement.push(replay.place(d, c, |t| span_full_table(&grid, flat.span(d), &mut axes, t))?);
    }
    Ok(Schedule::static_placement(grid, placement, nw))
}

/// The unconstrained LOMCDS center sequence of one datum from its flat
/// span: per-window incremental medians with carry-forward / backfill gap
/// resolution — `lomcds_centers_unconstrained` without a cost table.
/// Shared with the out-of-core pipeline and the incremental engine.
pub(crate) fn span_lomcds_centers(
    grid: &Grid,
    span: &[FlatRef],
    nw: usize,
    med: &mut MedianState,
) -> Vec<ProcId> {
    let mut centers: Vec<Option<ProcId>> = vec![None; nw];
    med.reset(grid);
    for (w, run) in span_window_runs(span) {
        for r in run {
            med.add(r.x, r.y, r.count as u64);
        }
        centers[w as usize] = Some(med.center(grid));
        for r in run {
            med.remove(r.x, r.y, r.count as u64);
        }
    }
    crate::lomcds::resolve_gaps(&mut centers);
    centers
        .into_iter()
        .map(|c| c.unwrap_or(ProcId(0)))
        .collect()
}

/// The LOMCDS window-0 anchor of one flat span: the median of its first
/// referenced window, `P0` when it is never referenced. Shared with the
/// incremental engine.
pub(crate) fn span_lomcds_anchor(grid: &Grid, span: &[FlatRef], med: &mut MedianState) -> ProcId {
    match span_window_runs(span).next() {
        Some((_, run)) => {
            med.reset(grid);
            for r in run {
                med.add(r.x, r.y, r.count as u64);
            }
            med.center(grid)
        }
        None => ProcId(0),
    }
}

/// LOMCDS on a flat trace. Unbounded runs are pure per-datum median
/// sweeps (fully parallel, no capacity state); bounded runs compute the
/// per-datum anchors in parallel and replay the classic window-major
/// capacity loop over a flat-backed cost cache. Bit-identical to
/// [`crate::lomcds::lomcds_schedule_parallel`] on the equivalent nested
/// trace.
pub fn flat_lomcds<V: FlatView + ?Sized>(
    flat: &V,
    policy: MemoryPolicy,
    pool: Pool,
) -> Result<Schedule, SchedError> {
    let grid = flat.grid();
    let nd = flat.num_data();
    let nw = flat.num_windows();
    let spec = policy.resolve_parts(&grid, nd);
    ensure_feasible(&grid, spec, nd)?;

    if spec.capacity_per_proc == u32::MAX {
        let centers = per_datum(pool, nd, |med, d| {
            span_lomcds_centers(&grid, flat.span(d), nw, med)
        });
        return Ok(Schedule::new(grid, centers));
    }
    let anchors = per_datum(pool, nd, |med, d| {
        span_lomcds_anchor(&grid, flat.span(d), med)
    });
    let cache = CostCache::build_flat(flat);
    let mut ws = Workspace::new();
    crate::lomcds::lomcds_assign(grid, nw, spec, &cache, &mut ws, &anchors)
}

/// GOMCDS (distance-transform solver) on a flat trace: per-datum layered
/// shortest paths served from a flat-backed cost cache, then
/// `gomcds_replay` for bounded runs. Bit-identical to
/// [`crate::gomcds::gomcds_schedule_parallel`] on the equivalent nested
/// trace — the cache serves identical tables from either backing.
pub fn flat_gomcds<V: FlatView + ?Sized>(
    flat: &V,
    policy: MemoryPolicy,
    pool: Pool,
) -> Result<Schedule, SchedError> {
    let grid = flat.grid();
    let nd = flat.num_data();
    let spec = policy.resolve_parts(&grid, nd);
    ensure_feasible(&grid, spec, nd)?;
    let cache = CostCache::build_flat(flat);
    let solver = Solver::DistanceTransform;

    let paths = per_datum(pool, nd, |ws, d| {
        gomcds_path_cached(&grid, cache.datum(d), solver, ws).0
    });
    if spec.capacity_per_proc == u32::MAX {
        return Ok(Schedule::new(grid, paths));
    }
    let mut ws = Workspace::new();
    let nw = flat.num_windows();
    gomcds_replay(&grid, nw, spec, solver, &cache, paths, &mut ws).map(|(s, _)| s)
}

/// Evaluate a schedule against a flat trace: volume-weighted reference
/// distances plus inter-window movement, exactly as
/// [`Schedule::evaluate`] charges them on the nested representation.
///
/// # Panics
/// Panics when the schedule shape (grid, data count, window count) does
/// not match the trace.
pub fn flat_total_cost<V: FlatView + ?Sized>(flat: &V, schedule: &Schedule) -> CostBreakdown {
    let grid = flat.grid();
    assert_eq!(grid, schedule.grid(), "schedule/trace grid mismatch");
    assert_eq!(flat.num_data(), schedule.num_data(), "data count mismatch");
    assert_eq!(
        flat.num_windows(),
        schedule.num_windows(),
        "window count mismatch"
    );
    let mut cost = CostBreakdown::default();
    for d in 0..flat.num_data() {
        let d = DataId(d as u32);
        let centers = schedule.centers_of(d);
        for r in flat.span(d) {
            let c = grid.point_of(centers[r.window as usize]);
            let dist =
                (r.x as i64 - c.x as i64).unsigned_abs() + (r.y as i64 - c.y as i64).unsigned_abs();
            cost.reference += r.count as u64 * dist;
        }
        for pair in centers.windows(2) {
            cost.movement += grid.dist(pair[0], pair[1]);
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Method, Run};
    use pim_array::grid::Grid;
    use pim_trace::flat::FlatTrace;
    use pim_trace::window::{WindowRefs, WindowedTrace};

    fn sample_trace() -> WindowedTrace {
        let grid = Grid::new(4, 4);
        WindowedTrace::from_parts(
            grid,
            vec![
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2), (grid.proc_xy(1, 0), 1)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 3), 4)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 2), 2)]),
                ],
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(2, 2), 1)]),
                    WindowRefs::new(),
                    WindowRefs::from_pairs([(grid.proc_xy(2, 2), 3)]),
                ],
                vec![WindowRefs::new(), WindowRefs::new(), WindowRefs::new()],
            ],
        )
    }

    #[test]
    fn flat_paths_match_classic_schedulers() {
        let trace = sample_trace();
        let flat = FlatTrace::from_trace(&trace);
        let pool = Pool::with_threads(2);
        for policy in [
            MemoryPolicy::Unbounded,
            MemoryPolicy::ScaledMinimum { factor: 2 },
            MemoryPolicy::Capacity(1),
        ] {
            let mut run = Run::new(&trace).policy(policy);
            let mut classic = |m| run.run_method(m).unwrap();
            assert_eq!(
                flat_scds(&flat, policy, pool).unwrap(),
                classic(Method::Scds),
                "SCDS {policy:?}"
            );
            assert_eq!(
                flat_lomcds(&flat, policy, pool).unwrap(),
                classic(Method::Lomcds),
                "LOMCDS {policy:?}"
            );
            assert_eq!(
                flat_gomcds(&flat, policy, pool).unwrap(),
                classic(Method::Gomcds),
                "GOMCDS {policy:?}"
            );
        }
    }

    #[test]
    fn flat_cost_matches_schedule_evaluate() {
        let trace = sample_trace();
        let flat = FlatTrace::from_trace(&trace);
        for m in [Method::Scds, Method::Lomcds, Method::Gomcds] {
            let s = Run::new(&trace).run_method(m).unwrap();
            assert_eq!(flat_total_cost(&flat, &s), s.evaluate(&trace), "{m}");
        }
    }

    #[test]
    fn flat_infeasible_errors() {
        let grid = Grid::new(2, 1);
        let trace = WindowedTrace::from_parts(grid, vec![vec![WindowRefs::new()]; 3]);
        let flat = FlatTrace::from_trace(&trace);
        let pool = Pool::serial();
        type FlatFn = fn(&FlatTrace, MemoryPolicy, Pool) -> Result<Schedule, SchedError>;
        let fns: [FlatFn; 3] = [flat_scds, flat_lomcds, flat_gomcds];
        for f in fns {
            let err = f(&flat, MemoryPolicy::Capacity(1), pool).unwrap_err();
            assert!(matches!(err, SchedError::CapacityExhausted { .. }));
        }
    }
}
