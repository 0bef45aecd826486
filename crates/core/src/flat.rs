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
//! * bounded-capacity runs keep the exact two-phase scheme of the classic
//!   schedulers (parallel pure phase, sequential capacity replay in datum
//!   order), reusing the same replay code where it exists.
//!
//! Every entry point is **bit-identical** to the classic scheduler on the
//! equivalent nested trace (property-tested in
//! `tests/cache_equivalence.rs`): the weighted median with
//! smallest-coordinate tie-break equals the cost table's lowest-id argmin
//! (see [`crate::median`]), and capacity resolution replays the same
//! decisions in the same order.

use crate::cache::CostCache;
use crate::capacity::ProcessorList;
use crate::cost::AxisScratch;
use crate::error::{ensure_feasible, exhausted, SchedError};
use crate::gomcds::{gomcds_path_cached, solve_masked_path_cached, Solver};
use crate::median::MedianState;
use crate::pipeline::MemoryPolicy;
use crate::schedule::{CostBreakdown, Schedule};
use crate::workspace::Workspace;
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::MemoryMap;
use pim_par::Pool;
use pim_trace::flat::{span_window_runs, FlatRef, FlatView};
use pim_trace::ids::DataId;

/// Per-worker scratch for the median-driven phases. Shared with the
/// out-of-core pipeline in [`crate::stream`].
#[derive(Default)]
pub(crate) struct FlatScratch {
    pub(crate) med: MedianState,
    axes: AxisScratch,
    table: Vec<u64>,
}

/// The datum ids `0..nd` (the shard items for every phase-1 fan-out).
fn datum_ids(nd: usize) -> Vec<DataId> {
    (0..nd as u32).map(DataId).collect()
}

/// Full-span cost table of one datum (merged over all windows), built from
/// the flat refs — the spill path when a median center has no room. Shared
/// with the incremental engine's SCDS fallback replay.
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
/// phase. Shared with the out-of-core pipeline in [`crate::stream`].
pub(crate) fn span_merged_median(grid: &Grid, span: &[FlatRef], med: &mut MedianState) -> ProcId {
    med.reset(grid);
    for r in span {
        med.add(r.x, r.y, r.count as u64);
    }
    med.center(grid)
}

/// SCDS's sequential capacity replay: medians are offered in ascending
/// datum order, and a datum whose median is full falls back to its full
/// (cost, id)-ordered processor list — exactly the classic scheduler's
/// decisions. Factored into a state object so [`crate::stream`] can feed
/// it chunk by chunk and stay bit-identical to [`flat_scds`].
pub(crate) struct ScdsReplay {
    mem: MemoryMap,
    scratch: FlatScratch,
}

impl ScdsReplay {
    pub(crate) fn new(grid: &Grid, spec: pim_array::memory::MemorySpec) -> ScdsReplay {
        ScdsReplay {
            mem: MemoryMap::new(grid, spec),
            scratch: FlatScratch::default(),
        }
    }

    /// Place datum `d` (with precomputed merged median `c`), mutating the
    /// shared capacity state. Must be called in ascending datum order.
    pub(crate) fn place(
        &mut self,
        grid: &Grid,
        d: DataId,
        span: &[FlatRef],
        c: ProcId,
    ) -> Result<ProcId, SchedError> {
        if self.mem.has_room(c) {
            self.mem.allocate(c).map_err(|_| exhausted(d, None))?;
            return Ok(c);
        }
        // The median (= list head) is full: fall back to the full
        // (cost, id)-ordered list, exactly as the classic path does.
        span_full_table(grid, span, &mut self.scratch.axes, &mut self.scratch.table);
        ProcessorList::from_cost_table(&self.scratch.table)
            .assign(&mut self.mem)
            .ok_or_else(|| exhausted(d, None))
    }
}

/// SCDS on a flat trace: one merged-window median per datum, capacity
/// resolved in ascending datum order. Bit-identical to
/// [`crate::scds::scds_schedule_cached`] on the equivalent nested trace —
/// the merged median *is* the head of the merged processor list, and a
/// datum only needs the rest of that list when its median is full.
pub fn flat_scds<V: FlatView + ?Sized>(
    flat: &V,
    policy: MemoryPolicy,
    pool: Pool,
) -> Result<Schedule, SchedError> {
    let grid = flat.grid();
    let nd = flat.num_data();
    let spec = policy.resolve_parts(&grid, nd);
    ensure_feasible(&grid, spec, nd)?;

    let ids = datum_ids(nd);
    let medians = pim_par::parallel_map_with_chunked(
        pool,
        &ids,
        pim_par::auto_chunk(nd, pool.threads()),
        FlatScratch::default,
        |s, _, &d| span_merged_median(&grid, flat.span(d), &mut s.med),
    );

    let mut replay = ScdsReplay::new(&grid, spec);
    let mut placement = Vec::with_capacity(nd);
    for (d, &c) in ids.iter().zip(&medians) {
        placement.push(replay.place(&grid, *d, flat.span(*d), c)?);
    }
    Ok(Schedule::static_placement(
        grid,
        placement,
        flat.num_windows(),
    ))
}

/// The unconstrained LOMCDS center sequence of one datum from its flat
/// span: per-window incremental medians with carry-forward / backfill gap
/// resolution — `lomcds_centers_unconstrained` without a cost table.
/// Shared with the out-of-core pipeline in [`crate::stream`].
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
    crate::lomcds::resolve_gaps_pub(&mut centers);
    centers
        .into_iter()
        .map(|c| c.unwrap_or(ProcId(0)))
        .collect()
}

/// LOMCDS on a flat trace. Unbounded runs are pure per-datum median
/// sweeps (fully parallel, no capacity state); bounded runs compute the
/// per-datum anchors in parallel and replay the classic window-major
/// capacity loop over a flat-backed cost cache. Bit-identical to
/// [`crate::lomcds::lomcds_schedule_cached`] on the equivalent nested
/// trace: with unbounded memory the classic loop's `nearest_free(anchor)`
/// returns the anchor and its processor-list head is the window median, so
/// the whole loop degenerates to exactly the gap-resolved median sequence.
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
    let ids = datum_ids(nd);
    let chunk = pim_par::auto_chunk(nd, pool.threads());

    if spec.capacity_per_proc == u32::MAX {
        let centers = pim_par::parallel_map_with_chunked(
            pool,
            &ids,
            chunk,
            FlatScratch::default,
            |s, _, &d| span_lomcds_centers(&grid, flat.span(d), nw, &mut s.med),
        );
        return Ok(Schedule::new(grid, centers));
    }

    // Bounded: anchors in parallel (datum `d`'s window-0 anchor is the
    // median of its first referenced window), then the classic sequential
    // window-major replay over a flat-backed cache.
    let anchors =
        pim_par::parallel_map_with_chunked(pool, &ids, chunk, FlatScratch::default, |s, _, &d| {
            match span_window_runs(flat.span(d)).next() {
                Some((_, run)) => {
                    s.med.reset(&grid);
                    for r in run {
                        s.med.add(r.x, r.y, r.count as u64);
                    }
                    s.med.center(&grid)
                }
                None => ProcId(0),
            }
        });
    let cache = CostCache::build_flat(flat);
    let mut ws = Workspace::new();
    crate::lomcds::lomcds_assign(grid, nw, spec, &cache, &mut ws, &anchors)
}

/// GOMCDS (distance-transform solver) on a flat trace: per-datum layered
/// shortest paths served from a flat-backed cost cache, with the classic
/// two-phase capacity replay for bounded runs. Bit-identical to
/// [`crate::gomcds::gomcds_schedule_cached`] on the equivalent nested
/// trace — the cache serves identical tables from either backing.
pub fn flat_gomcds<V: FlatView + ?Sized>(
    flat: &V,
    policy: MemoryPolicy,
    pool: Pool,
) -> Result<Schedule, SchedError> {
    let grid = flat.grid();
    let nd = flat.num_data();
    let nw = flat.num_windows();
    let spec = policy.resolve_parts(&grid, nd);
    ensure_feasible(&grid, spec, nd)?;
    let cache = CostCache::build_flat(flat);
    let ids = datum_ids(nd);

    let paths = pim_par::parallel_map_with_chunked(
        pool,
        &ids,
        pim_par::auto_chunk(nd, pool.threads()),
        Workspace::new,
        |ws, _, &d| gomcds_path_cached(&grid, cache.datum(d), Solver::DistanceTransform, ws).0,
    );
    if spec.capacity_per_proc == u32::MAX {
        return Ok(Schedule::new(grid, paths));
    }

    // Sequential replay in datum order: a path that is still free in every
    // window is what the masked DP would return (masking raises no cost
    // along it); anything else re-solves against the current masks.
    let mut ws = Workspace::new();
    let mut masks: Vec<MemoryMap> = (0..nw).map(|_| MemoryMap::new(&grid, spec)).collect();
    let mut centers = Vec::with_capacity(nd);
    for (d, unconstrained) in ids.into_iter().zip(paths) {
        let free = unconstrained
            .iter()
            .enumerate()
            .all(|(w, &p)| masks[w].has_room(p));
        let path = if free {
            unconstrained
        } else {
            solve_masked_path_cached(&grid, cache.datum(d), &masks, &mut ws)
                .ok_or_else(|| exhausted(d, None))?
        };
        for (w, &p) in path.iter().enumerate() {
            masks[w].allocate(p).map_err(|_| exhausted(d, Some(w)))?;
        }
        centers.push(path);
    }
    Ok(Schedule::new(grid, centers))
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
