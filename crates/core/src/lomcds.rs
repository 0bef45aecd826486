//! Local-Optimal Multiple-Center Data Scheduling.
//!
//! Each execution window is optimized in isolation: the datum sits at the
//! window's local optimal center (Algorithm 1 applied per window), moving
//! between windows at run time. Movement cost is *not* considered when
//! choosing centers — that is exactly the weakness GOMCDS fixes.
//!
//! The paper does not specify where a datum lives during windows that never
//! reference it; this implementation keeps it where it already is (zero
//! movement, zero reference cost — no other choice does better), and for
//! empty *leading* windows places it at the first referenced window's
//! center so no pre-use move is needed.

use crate::cache::{CostCache, DatumCostCache};
use crate::capacity::ProcessorList;
use crate::cost::{cost_table, optimal_center};
use crate::error::{ensure_feasible, exhausted, SchedError};
use crate::schedule::Schedule;
use crate::workspace::{per_datum, Workspace};
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::{MemoryMap, MemorySpec};
use pim_par::Pool;
use pim_trace::ids::DataId;
use pim_trace::window::{DataRefString, WindowedTrace};

/// The unconstrained LOMCDS center sequence for one datum: the local
/// optimal center of every window, with empty windows resolved by
/// carry-forward (and backward fill for leading empties).
pub fn lomcds_centers_unconstrained(grid: &Grid, rs: &DataRefString) -> Vec<ProcId> {
    let nw = rs.num_windows();
    let mut centers: Vec<Option<ProcId>> = vec![None; nw];
    for (w, refs) in rs.windows().enumerate() {
        if !refs.is_empty() {
            centers[w] = Some(optimal_center(grid, refs).0);
        }
    }
    resolve_gaps(&mut centers);
    centers
        .into_iter()
        .map(|c| c.unwrap_or(ProcId(0)))
        .collect()
}

/// [`lomcds_centers_unconstrained`] served from a per-datum cost cache and
/// reusable workspace: each window's center is its weighted median
/// ([`DatumCostCache::range_median`], the cost table's lowest-id argmin
/// without building the table), with no allocation once warm (beyond the
/// returned vector).
pub fn lomcds_centers_unconstrained_cached(
    cache: &DatumCostCache,
    ws: &mut Workspace,
) -> Vec<ProcId> {
    let nw = cache.num_windows();
    let mut centers: Vec<Option<ProcId>> = vec![None; nw];
    for (w, slot) in centers.iter_mut().enumerate() {
        if !cache.range_is_empty(w, w + 1) {
            *slot = Some(cache.range_median(w, w + 1, &mut ws.axes));
        }
    }
    resolve_gaps(&mut centers);
    centers
        .into_iter()
        .map(|c| c.unwrap_or(ProcId(0)))
        .collect()
}

/// Fill `None` slots: carry the previous center forward; leading `None`s
/// take the first known center. All-`None` stays `None` (caller defaults).
pub(crate) fn resolve_gaps(centers: &mut [Option<ProcId>]) {
    let first_known = centers.iter().flatten().next().copied();
    let mut prev = first_known;
    for slot in centers.iter_mut() {
        match slot {
            Some(c) => prev = Some(*c),
            None => *slot = prev,
        }
    }
}

/// LOMCDS served from a shared per-trace cost cache.
///
/// Capacity conflicts are resolved per window in ascending datum order with
/// the processor list: a referenced window falls back through ascending
/// reference cost; an unreferenced window falls back through ascending
/// distance from its anchor (previous actual center), keeping movement
/// minimal.
///
/// Phase 1 runs over `pool`. With unbounded memory it computes every
/// datum's gap-resolved local-center row
/// ([`lomcds_centers_unconstrained_cached`]) and that is the schedule —
/// the window-major loop would place every datum at exactly those
/// centers. Under a bounded policy it computes only each datum's window-0
/// anchor: the capacity loop consults the unconstrained sequence nowhere
/// else (later windows anchor on the *actual* previous center). Phase 2
/// is then the sequential window-major replay, `lomcds_assign`. Any pool
/// width, [`Pool::serial`] included, gives the same schedule.
pub fn lomcds_schedule_parallel(
    trace: &WindowedTrace,
    spec: MemorySpec,
    cache: &CostCache<'_>,
    pool: Pool,
    ws: &mut Workspace,
) -> Result<Schedule, SchedError> {
    let grid = trace.grid();
    let nd = trace.num_data();
    ensure_feasible(&grid, spec, nd)?;
    let metrics = ws.metrics.clone();
    if spec.capacity_per_proc == u32::MAX {
        let _t = metrics.phase("LOMCDS/phase1-centers");
        let centers = per_datum(pool, nd, |w, d| {
            lomcds_centers_unconstrained_cached(cache.datum(d), w)
        });
        return Ok(Schedule::new(grid, centers));
    }
    let anchors = {
        let _t = metrics.phase("LOMCDS/phase1-anchors");
        per_datum(pool, nd, |w, d| first_anchor(cache.datum(d), w))
    };
    let _t = metrics.phase("LOMCDS/phase2-replay");
    lomcds_assign(grid, trace.num_windows(), spec, cache, ws, &anchors)
}

/// The anchor a datum uses at window 0: the local optimal center of its
/// first referenced window (`P0` when it is never referenced) — exactly
/// `lomcds_centers_unconstrained[0]`, since gap resolution backfills
/// leading empties with the first known center.
pub(crate) fn first_anchor(cache: &DatumCostCache, ws: &mut Workspace) -> ProcId {
    for w in 0..cache.num_windows() {
        if !cache.range_is_empty(w, w + 1) {
            return cache
                .optimal_center_range(w, w + 1, &mut ws.axes, &mut ws.table)
                .0;
        }
    }
    ProcId(0)
}

/// Window-major capacity assignment shared by the classic and flat-trace
/// paths. Takes the grid and window count directly so any trace
/// representation backing `cache` can drive it.
pub(crate) fn lomcds_assign(
    grid: Grid,
    nw: usize,
    spec: MemorySpec,
    cache: &CostCache,
    ws: &mut Workspace,
    anchors: &[ProcId],
) -> Result<Schedule, SchedError> {
    lomcds_assign_observed(grid, nw, spec, cache, ws, anchors, &mut |_, _, _| {})
}

/// [`lomcds_assign`] with an observer: `observe(d, w, rank0)` fires once
/// per placement, `rank0` meaning the datum landed on its *unconstrained*
/// desired processor (window median when referenced, anchor when not).
/// The incremental engine's fallback replay records these flags to decide
/// whether future edits may be patched in place; `lomcds_assign` delegates
/// here with a no-op observer so both paths are the same code.
pub(crate) fn lomcds_assign_observed(
    grid: Grid,
    nw: usize,
    spec: MemorySpec,
    cache: &CostCache,
    ws: &mut Workspace,
    anchors: &[ProcId],
    observe: &mut dyn FnMut(DataId, usize, bool),
) -> Result<Schedule, SchedError> {
    let nd = cache.num_data();
    ensure_feasible(&grid, spec, nd)?;
    let metrics = ws.metrics.clone();

    let mut centers = vec![vec![ProcId(0); nw]; nd];
    for w in 0..nw {
        let mut mem = MemoryMap::new(&grid, spec);
        for d in 0..nd {
            let dc = cache.datum(DataId(d as u32));
            let anchor = if w == 0 {
                anchors[d]
            } else {
                centers[d][w - 1]
            };
            let p = if dc.range_is_empty(w, w + 1) {
                let p = nearest_free(&grid, anchor, &mut mem)
                    .ok_or_else(|| exhausted(DataId(d as u32), Some(w)))?;
                observe(DataId(d as u32), w, p == anchor);
                p
            } else {
                // Median-first: the window's weighted-median center is the
                // head of its processor list (lowest-id argmin), so when it
                // still has room `assign_ranked` would return it at rank 0
                // — skip building and sorting the full table. Only a full
                // median (capacity conflict) pays for the list.
                let m = dc.range_median(w, w + 1, &mut ws.axes);
                if mem.has_room(m) {
                    mem.allocate(m)
                        .map_err(|_| exhausted(DataId(d as u32), Some(w)))?;
                    metrics.record_placement(0);
                    observe(DataId(d as u32), w, true);
                    m
                } else {
                    dc.window_table(w, &mut ws.axes, &mut ws.table);
                    let (p, rank) = ProcessorList::from_cost_table(&ws.table)
                        .assign_ranked(&mut mem)
                        .ok_or_else(|| exhausted(DataId(d as u32), Some(w)))?;
                    metrics.record_placement(rank);
                    observe(DataId(d as u32), w, rank == 0);
                    p
                }
            };
            centers[d][w] = p;
        }
    }
    Ok(Schedule::new(grid, centers))
}

/// Pre-cache reference implementation of [`lomcds_schedule_parallel`] — walks every
/// window's reference list directly. Bit-identical; kept for the
/// equivalence property tests and benches.
pub fn lomcds_schedule_uncached(
    trace: &WindowedTrace,
    spec: MemorySpec,
) -> Result<Schedule, SchedError> {
    let grid = trace.grid();
    let nd = trace.num_data();
    let nw = trace.num_windows();
    ensure_feasible(&grid, spec, nd)?;

    let desired: Vec<Vec<ProcId>> = (0..nd)
        .map(|d| lomcds_centers_unconstrained(&grid, trace.refs(DataId(d as u32))))
        .collect();

    let mut centers = vec![vec![ProcId(0); nw]; nd];
    let mut table = Vec::new();
    for w in 0..nw {
        let mut mem = MemoryMap::new(&grid, spec);
        for d in 0..nd {
            let refs = trace.refs(DataId(d as u32)).window(w);
            let anchor = if w == 0 {
                desired[d][0]
            } else {
                centers[d][w - 1]
            };
            let p = if refs.is_empty() {
                nearest_free(&grid, anchor, &mut mem)
                    .ok_or_else(|| exhausted(DataId(d as u32), Some(w)))?
            } else {
                cost_table(&grid, refs, &mut table);
                ProcessorList::from_cost_table(&table)
                    .assign(&mut mem)
                    .ok_or_else(|| exhausted(DataId(d as u32), Some(w)))?
            };
            centers[d][w] = p;
        }
    }
    Ok(Schedule::new(grid, centers))
}

/// Claim the free processor nearest to `anchor` (ties by ascending id);
/// `None` when every processor is full.
pub(crate) fn nearest_free(grid: &Grid, anchor: ProcId, mem: &mut MemoryMap) -> Option<ProcId> {
    // The anchor is the unique distance-0 candidate, so when it has room
    // the full (distance, id)-minimum scan below could only return it —
    // answer in O(1). Carry-forward keeps most anchors stable, making this
    // the common case on big instances.
    if mem.has_room(anchor) {
        mem.allocate(anchor).ok()?;
        return Some(anchor);
    }
    let a = grid.point_of(anchor);
    let p = grid
        .procs()
        .filter(|&p| mem.has_room(p))
        .min_by_key(|&p| (grid.point_of(p).l1_dist(a), p.0))?;
    mem.allocate(p).ok()?;
    Some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{MemoryPolicy, Method, Run};
    use pim_trace::window::WindowRefs;

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    fn lomcds(trace: &WindowedTrace, policy: MemoryPolicy) -> Schedule {
        Run::new(trace)
            .policy(policy)
            .run_method(Method::Lomcds)
            .unwrap()
    }

    #[test]
    fn centers_follow_each_window() {
        let grid = g();
        let trace = WindowedTrace::from_parts(
            grid,
            vec![vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 3)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 3), 1)]),
            ]],
        );
        let s = lomcds(&trace, MemoryPolicy::Unbounded);
        assert_eq!(s.center(DataId(0), 0), grid.proc_xy(0, 0));
        assert_eq!(s.center(DataId(0), 1), grid.proc_xy(3, 3));
        // ref cost 0, movement 6
        let cost = s.evaluate(&trace);
        assert_eq!(cost.reference, 0);
        assert_eq!(cost.movement, 6);
    }

    #[test]
    fn empty_windows_carry_forward() {
        let grid = g();
        let trace = WindowedTrace::from_parts(
            grid,
            vec![vec![
                WindowRefs::new(),
                WindowRefs::from_pairs([(grid.proc_xy(2, 2), 1)]),
                WindowRefs::new(),
                WindowRefs::from_pairs([(grid.proc_xy(3, 0), 1)]),
            ]],
        );
        let s = lomcds(&trace, MemoryPolicy::Unbounded);
        let cs = s.centers_of(DataId(0));
        // leading empty anchors on first referenced center → no pre-move
        assert_eq!(cs[0], grid.proc_xy(2, 2));
        assert_eq!(cs[1], grid.proc_xy(2, 2));
        // trailing empty between refs stays put
        assert_eq!(cs[2], grid.proc_xy(2, 2));
        assert_eq!(cs[3], grid.proc_xy(3, 0));
        assert_eq!(s.evaluate(&trace).movement, 3);
    }

    #[test]
    fn capacity_conflict_in_window_spills() {
        let grid = g();
        let want = |p| vec![WindowRefs::from_pairs([(p, 1)])];
        let trace = WindowedTrace::from_parts(
            grid,
            vec![want(grid.proc_xy(2, 2)), want(grid.proc_xy(2, 2))],
        );
        let s = lomcds(&trace, MemoryPolicy::Capacity(1));
        assert_eq!(s.center(DataId(0), 0), grid.proc_xy(2, 2));
        assert_ne!(s.center(DataId(1), 0), grid.proc_xy(2, 2));
        // spill lands at distance 1
        assert_eq!(grid.dist(s.center(DataId(1), 0), grid.proc_xy(2, 2)), 1);
        assert_eq!(s.max_occupancy(), 1);
    }

    #[test]
    fn resolve_gaps_behaviour() {
        let mut v = vec![None, Some(ProcId(3)), None, Some(ProcId(5)), None];
        resolve_gaps(&mut v);
        assert_eq!(
            v,
            vec![
                Some(ProcId(3)),
                Some(ProcId(3)),
                Some(ProcId(3)),
                Some(ProcId(5)),
                Some(ProcId(5))
            ]
        );
        let mut all_none: Vec<Option<ProcId>> = vec![None, None];
        resolve_gaps(&mut all_none);
        assert_eq!(all_none, vec![None, None]);
    }

    #[test]
    fn never_referenced_datum_costs_nothing() {
        let grid = g();
        let trace =
            WindowedTrace::from_parts(grid, vec![vec![WindowRefs::new(), WindowRefs::new()]]);
        let s = lomcds(&trace, MemoryPolicy::Unbounded);
        assert_eq!(s.evaluate(&trace).total(), 0);
        assert!(!s.has_movement());
    }
}
