//! Global-Optimal Multiple-Center Data Scheduling (paper Algorithm 2).
//!
//! For each datum the paper builds an edge-weighted DAG — the *cost
//! graph* — with one node per (window, processor) pair, a pseudo source and
//! sink, and edge weights combining the reference cost of storing the datum
//! at a processor during a window with the movement cost between
//! consecutive windows' processors. The shortest s→d path is the globally
//! optimal center sequence.
//!
//! The graph is layered, so the shortest path is a dynamic program:
//!
//! ```text
//! dp[0][k]   = refcost(0, k)
//! dp[w][k]   = refcost(w, k) + min_j ( dp[w−1][j] + dist(j, k) )
//! answer     = min_k dp[n−1][k]
//! ```
//!
//! Two solvers compute the inner minimum:
//!
//! * [`Solver::Naive`] — the literal `O(m²)` scan per window (the paper's
//!   formulation; `m` = processors).
//! * [`Solver::DistanceTransform`] — the `O(m)` two-pass L1 distance
//!   transform from [`crate::dt`], giving `O(n·m)` per datum.
//!
//! Node costs (the per-window reference cost tables) are needed twice per
//! window — once in the forward pass, once during backtracking — so the
//! entry points route them through a [`DatumCostCache`], which serves any
//! window (or grouped window range) in `O(width + height + m)` from prefix
//! sums. The pre-cache implementations survive as `*_uncached` references,
//! property-tested bit-identical to the cached paths.
//!
//! Both solvers produce bit-identical schedules (shared tie-breaking,
//! verified by tests and the `ablation_solver` bench). Memory capacity is
//! honoured by masking full (window, processor) slots with [`INF`] node
//! cost and re-running nothing: data are processed in ascending id order,
//! each allocating its path's slots before the next datum solves.

use crate::cache::{CostCache, DatumCostCache};
use crate::cost::{cost_table_with, AxisScratch, INF};
use crate::error::{ensure_feasible, exhausted, SchedError};
use crate::schedule::Schedule;
use crate::workspace::Workspace;
use core::ops::Range;
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::{MemoryMap, MemorySpec};
use pim_trace::window::{DataRefString, WindowedTrace};

/// Inner-minimum strategy for the layered shortest path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// `O(m²)` per window — the paper's literal cost-graph relaxation.
    Naive,
    /// `O(m)` per window via the L1 distance transform.
    DistanceTransform,
}

/// Where the DP gets its per-window node costs from.
enum NodeSource<'a> {
    /// Walk the raw reference string each time (pre-cache reference path).
    Raw(&'a DataRefString),
    /// Serve each window from the datum's prefix-sum cache.
    Cached(&'a DatumCostCache<'a>),
    /// Serve grouped window ranges from the cache — layer `g` of the DP is
    /// the merged range `ranges[g]` (grouping's regrouped string, without
    /// materializing it).
    CachedRanges(&'a DatumCostCache<'a>, &'a [Range<usize>]),
}

impl NodeSource<'_> {
    fn num_layers(&self) -> usize {
        match self {
            NodeSource::Raw(rs) => rs.num_windows(),
            NodeSource::Cached(c) => c.num_windows(),
            NodeSource::CachedRanges(_, ranges) => ranges.len(),
        }
    }

    /// Node costs of layer `w`: the reference cost table with full
    /// processors masked to [`INF`].
    fn node_costs(
        &self,
        grid: &Grid,
        masks: Option<&[MemoryMap]>,
        w: usize,
        axes: &mut AxisScratch,
        out: &mut Vec<u64>,
    ) {
        match self {
            NodeSource::Raw(rs) => cost_table_with(grid, rs.window(w), axes, out),
            NodeSource::Cached(c) => c.window_table(w, axes, out),
            NodeSource::CachedRanges(c, ranges) => {
                c.range_table(ranges[w].start, ranges[w].end, axes, out)
            }
        }
        if let Some(maps) = masks {
            for (k, slot) in out.iter_mut().enumerate() {
                if !maps[w].has_room(ProcId(k as u32)) {
                    *slot = INF;
                }
            }
        }
    }
}

/// The unconstrained optimal center sequence and its cost for one datum.
///
/// ```
/// use pim_array::grid::Grid;
/// use pim_trace::window::{DataRefString, WindowRefs};
/// use pim_sched::gomcds::{gomcds_path, Solver};
///
/// let grid = Grid::new(4, 4);
/// let rs = DataRefString::new(vec![
///     WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]),
///     WindowRefs::from_pairs([(grid.proc_xy(3, 3), 10)]),
/// ]);
/// let (path, cost) = gomcds_path(&grid, &rs, Solver::DistanceTransform);
/// // moving once (6 hops) beats serving 10 remote references
/// assert_eq!(path, vec![grid.proc_xy(0, 0), grid.proc_xy(3, 3)]);
/// assert_eq!(cost, 6);
/// ```
pub fn gomcds_path(grid: &Grid, rs: &DataRefString, solver: Solver) -> (Vec<ProcId>, u64) {
    gomcds_path_weighted(grid, rs, solver, 1)
}

/// [`gomcds_path`] served from a prebuilt per-datum cache and a reusable
/// workspace — the hot-path form used by the pipeline.
pub fn gomcds_path_cached(
    grid: &Grid,
    cache: &DatumCostCache,
    solver: Solver,
    ws: &mut Workspace,
) -> (Vec<ProcId>, u64) {
    solve_layered(grid, &NodeSource::Cached(cache), None, solver, ws, 1)
        .expect("unconstrained path always feasible")
}

/// Optimal center sequence over *grouped* windows: layer `g` of the DP is
/// the merged range `groups[g]`. Equivalent to
/// `gomcds_path(grid, &rs.regrouped(groups), solver)` without building the
/// regrouped string.
pub fn gomcds_path_ranges(
    grid: &Grid,
    cache: &DatumCostCache,
    groups: &[Range<usize>],
    ws: &mut Workspace,
) -> (Vec<ProcId>, u64) {
    solve_layered(
        grid,
        &NodeSource::CachedRanges(cache, groups),
        None,
        Solver::DistanceTransform,
        ws,
        1,
    )
    .expect("unconstrained path always feasible")
}

/// Like [`gomcds_path`] but charging `move_weight` per hop of data
/// movement — the datum's transfer volume. The paper's model is
/// `move_weight = 1`; the `sweep_movement` ablation studies how the
/// optimal policy collapses toward SCDS as data get heavier.
pub fn gomcds_path_weighted(
    grid: &Grid,
    rs: &DataRefString,
    solver: Solver,
    move_weight: u64,
) -> (Vec<ProcId>, u64) {
    let mut ws = Workspace::new();
    solve_layered(
        grid,
        &NodeSource::Raw(rs),
        None,
        solver,
        &mut ws,
        move_weight,
    )
    .expect("unconstrained path always feasible")
}

/// GOMCDS with per-datum movement volumes (unconstrained memory): datum
/// `d`'s moves cost `volumes[d]` per hop. Each datum's path is exactly
/// optimal for its own volume.
///
/// # Panics
/// Panics when `volumes.len() != trace.num_data()`.
pub fn gomcds_schedule_volumes(trace: &WindowedTrace, volumes: &[u64]) -> Schedule {
    assert_eq!(volumes.len(), trace.num_data(), "volumes length mismatch");
    let grid = trace.grid();
    let mut ws = Workspace::new();
    let centers = trace
        .iter_data()
        .map(|(d, rs)| {
            solve_layered(
                &grid,
                &NodeSource::Raw(rs),
                None,
                Solver::DistanceTransform,
                &mut ws,
                volumes[d.index()].max(1),
            )
            .expect("unconstrained path always feasible")
            .0
        })
        .collect();
    Schedule::new(grid, centers)
}

/// Capacity-masked optimal center sequence (one [`MemoryMap`] per window);
/// `None` when some window has no free processor. Used by the grouping
/// pipeline's fragmentation fallback.
pub(crate) fn solve_masked_path(
    grid: &Grid,
    rs: &DataRefString,
    masks: &[MemoryMap],
) -> Option<Vec<ProcId>> {
    let mut ws = Workspace::new();
    solve_layered(
        grid,
        &NodeSource::Raw(rs),
        Some(masks),
        Solver::DistanceTransform,
        &mut ws,
        1,
    )
    .map(|(path, _)| path)
}

/// Cache-served masked path over single windows.
pub(crate) fn solve_masked_path_cached(
    grid: &Grid,
    cache: &DatumCostCache,
    masks: &[MemoryMap],
    ws: &mut Workspace,
) -> Option<Vec<ProcId>> {
    solve_layered(
        grid,
        &NodeSource::Cached(cache),
        Some(masks),
        Solver::DistanceTransform,
        ws,
        1,
    )
    .map(|(path, _)| path)
}

/// Cache-served masked path over grouped window ranges (`masks[g]` masks
/// group `g`).
pub(crate) fn solve_masked_ranges(
    grid: &Grid,
    cache: &DatumCostCache,
    groups: &[Range<usize>],
    masks: &[MemoryMap],
    ws: &mut Workspace,
) -> Option<Vec<ProcId>> {
    solve_layered(
        grid,
        &NodeSource::CachedRanges(cache, groups),
        Some(masks),
        Solver::DistanceTransform,
        ws,
        1,
    )
    .map(|(path, _)| path)
}

/// Solve one datum's layered shortest path. `masks` (one map per layer)
/// marks full processors; `move_weight` is the per-hop movement charge;
/// returns `None` when no feasible path exists.
fn solve_layered(
    grid: &Grid,
    src: &NodeSource<'_>,
    masks: Option<&[MemoryMap]>,
    solver: Solver,
    ws: &mut Workspace,
    move_weight: u64,
) -> Option<(Vec<ProcId>, u64)> {
    let m = grid.num_procs();
    let nw = src.num_layers();
    let Workspace {
        axes,
        dp,
        node,
        relaxed,
        nodes_all,
        ..
    } = ws;
    dp.clear();
    dp.reserve(nw * m);
    // Cache-served node rows are memoized during the forward pass so the
    // backtrack reads them instead of re-deriving each window. The raw
    // source skips this: it is the frozen pre-cache reference whose
    // two-walk behaviour the cached-vs-uncached bench measures.
    let memoize = !matches!(src, NodeSource::Raw(_));
    nodes_all.clear();
    if memoize {
        nodes_all.reserve(nw * m);
    }

    for w in 0..nw {
        src.node_costs(grid, masks, w, axes, node);
        if memoize {
            nodes_all.extend_from_slice(node);
        }
        if w == 0 {
            dp.extend_from_slice(node);
        } else {
            {
                let prev = &dp[(w - 1) * m..w * m];
                match solver {
                    Solver::Naive => {
                        crate::dt::l1_relax_naive_weighted(grid, prev, move_weight, relaxed)
                    }
                    Solver::DistanceTransform => {
                        crate::dt::l1_relax_weighted(grid, prev, move_weight, relaxed)
                    }
                }
            }
            for k in 0..m {
                let v = relaxed[k].saturating_add(node[k]);
                dp.push(v);
            }
        }
    }

    // Select the sink predecessor: lowest-id argmin of the last row.
    let last = &dp[(nw - 1) * m..nw * m];
    let (mut k, &best) = last
        .iter()
        .enumerate()
        .min_by_key(|&(i, &c)| (c, i))
        .expect("non-empty grid");
    if best >= INF {
        return None;
    }

    // Backtrack: find the lowest-id predecessor achieving each dp value.
    let mut path = vec![ProcId(0); nw];
    path[nw - 1] = ProcId(k as u32);
    for w in (1..nw).rev() {
        let noderow: &[u64] = if memoize {
            &nodes_all[w * m..(w + 1) * m]
        } else {
            src.node_costs(grid, masks, w, axes, node);
            node
        };
        let need = dp[w * m + k] - noderow[k];
        let prev_row = &dp[(w - 1) * m..w * m];
        let kp = grid.point_of(ProcId(k as u32));
        let mut found = None;
        for j in 0..m {
            let hop = move_weight.saturating_mul(grid.point_of(ProcId(j as u32)).l1_dist(kp));
            if prev_row[j].saturating_add(hop) == need {
                found = Some(j);
                break;
            }
        }
        k = found.expect("dp backtrack must find a predecessor");
        path[w - 1] = ProcId(k as u32);
    }
    Some((path, best))
}

/// A saved DP prefix of one datum's unconstrained layered solve: forward
/// rows `0..layers` of `dp` and the memoized node rows, each `layers × m`.
/// Because row `w` is a pure function of the node rows `0..=w`, a
/// checkpoint whose prefix windows are unedited resumes bit-identically —
/// the incremental engine truncates `layers` to the first dirty window on
/// every edit and [`gomcds_path_resumable`] recomputes only from there
/// ("first dirty layer" resume).
#[derive(Debug, Default, Clone)]
pub(crate) struct DpCheckpoint {
    /// Number of valid leading DP layers (windows).
    pub layers: usize,
    /// Row-major `layers × m` forward DP values.
    pub dp: Vec<u64>,
    /// Row-major `layers × m` node-cost rows.
    pub nodes: Vec<u64>,
}

impl DpCheckpoint {
    /// Invalidate every layer from `first_dirty` on.
    pub fn truncate(&mut self, first_dirty: usize, m: usize) {
        if self.layers > first_dirty {
            self.layers = first_dirty;
            self.dp.truncate(first_dirty * m);
            self.nodes.truncate(first_dirty * m);
        }
    }
}

/// [`gomcds_path_cached`] for the unconstrained distance-transform case,
/// resuming from (and optionally saving) a [`DpCheckpoint`]. Bit-identical
/// to a from-scratch [`gomcds_path_cached`] call as long as the
/// checkpoint's `layers` prefix predates every edited window — guaranteed
/// by the engine's truncate-on-edit discipline (unit-tested below).
pub(crate) fn gomcds_path_resumable(
    grid: &Grid,
    cache: &DatumCostCache,
    ws: &mut Workspace,
    resume: Option<&DpCheckpoint>,
    save: Option<&mut DpCheckpoint>,
) -> (Vec<ProcId>, u64) {
    let m = grid.num_procs();
    let nw = cache.num_windows();
    let Workspace {
        axes,
        dp,
        node,
        relaxed,
        nodes_all,
        ..
    } = ws;
    dp.clear();
    dp.reserve(nw * m);
    nodes_all.clear();
    nodes_all.reserve(nw * m);
    let start = resume.map_or(0, |c| c.layers.min(nw));
    if let Some(c) = resume {
        dp.extend_from_slice(&c.dp[..start * m]);
        nodes_all.extend_from_slice(&c.nodes[..start * m]);
    }

    for w in start..nw {
        cache.window_table(w, axes, node);
        nodes_all.extend_from_slice(node);
        if w == 0 {
            dp.extend_from_slice(node);
        } else {
            {
                let prev = &dp[(w - 1) * m..w * m];
                crate::dt::l1_relax_weighted(grid, prev, 1, relaxed);
            }
            for k in 0..m {
                dp.push(relaxed[k].saturating_add(node[k]));
            }
        }
    }

    if let Some(out) = save {
        out.layers = nw;
        out.dp.clear();
        out.dp.extend_from_slice(dp);
        out.nodes.clear();
        out.nodes.extend_from_slice(nodes_all);
    }

    // Sink and backtrack exactly as `solve_layered` (lowest-id argmin,
    // lowest-id predecessor) so resumed paths tie-break identically.
    let last = &dp[(nw - 1) * m..nw * m];
    let (mut k, &best) = last
        .iter()
        .enumerate()
        .min_by_key(|&(i, &c)| (c, i))
        .expect("non-empty grid");
    let mut path = vec![ProcId(0); nw];
    path[nw - 1] = ProcId(k as u32);
    for w in (1..nw).rev() {
        let noderow = &nodes_all[w * m..(w + 1) * m];
        let need = dp[w * m + k] - noderow[k];
        let prev_row = &dp[(w - 1) * m..w * m];
        let kp = grid.point_of(ProcId(k as u32));
        let mut found = None;
        for j in 0..m {
            let hop = grid.point_of(ProcId(j as u32)).l1_dist(kp);
            if prev_row[j].saturating_add(hop) == need {
                found = Some(j);
                break;
            }
        }
        k = found.expect("dp backtrack must find a predecessor");
        path[w - 1] = ProcId(k as u32);
    }
    (path, best)
}

/// Compute the GOMCDS schedule with the distance-transform solver.
pub fn gomcds_schedule(trace: &WindowedTrace, spec: MemorySpec) -> Schedule {
    gomcds_schedule_with(trace, spec, Solver::DistanceTransform)
}

/// Compute the GOMCDS schedule with an explicit solver. Builds a per-datum
/// [`DatumCostCache`] so each window's cost table is derived from prefix
/// sums (and reused by the backtrack) instead of walking the reference
/// string twice.
///
/// # Panics
/// Panics if the array's total memory cannot hold every datum. Use the
/// [`crate::Run`] pipeline (or [`gomcds_schedule_cached`]) for a typed
/// [`SchedError`] instead.
pub fn gomcds_schedule_with(trace: &WindowedTrace, spec: MemorySpec, solver: Solver) -> Schedule {
    let cache = CostCache::build(trace);
    let mut ws = Workspace::new();
    gomcds_schedule_cached(trace, spec, solver, &cache, &mut ws).unwrap_or_else(|e| panic!("{e}"))
}

/// Pre-cache reference implementation: identical output, node costs walked
/// from the raw reference strings each time. Kept for the equivalence
/// property tests and the cached-vs-uncached bench.
pub fn gomcds_schedule_with_uncached(
    trace: &WindowedTrace,
    spec: MemorySpec,
    solver: Solver,
) -> Result<Schedule, SchedError> {
    let mut ws = Workspace::new();
    gomcds_schedule_driver(trace, spec, solver, &mut ws, None)
}

/// [`gomcds_schedule_with`] served from a shared per-trace cost cache and
/// caller-owned workspace (no per-call allocation once warm).
pub fn gomcds_schedule_cached(
    trace: &WindowedTrace,
    spec: MemorySpec,
    solver: Solver,
    cache: &CostCache,
    ws: &mut Workspace,
) -> Result<Schedule, SchedError> {
    gomcds_schedule_driver(trace, spec, solver, ws, Some(cache))
}

/// Two-phase parallel GOMCDS under a bounded memory policy, bit-identical
/// to the sequential [`gomcds_schedule_cached`].
///
/// Phase 1 solves every datum's *unconstrained* shortest path in parallel
/// (pure, order-independent). Phase 2 replays capacity assignment
/// sequentially in datum-id order: when a datum's unconstrained path still
/// has room in every window, the masked DP the sequential run would solve
/// returns exactly that path (masking only raises node costs, and it
/// raises none along a free path, so the DP values, the lowest-index sink
/// argmin, and every lowest-index backtrack step are unchanged) — the path
/// is allocated directly. Only data whose unconstrained path hits a full
/// slot re-solve the masked DP, exactly as the sequential driver does.
pub fn gomcds_schedule_parallel(
    trace: &WindowedTrace,
    spec: MemorySpec,
    solver: Solver,
    cache: &CostCache<'_>,
    pool: pim_par::Pool,
    ws: &mut Workspace,
) -> Result<Schedule, SchedError> {
    let grid = trace.grid();
    let nd = trace.num_data();
    let nw = trace.num_windows();
    ensure_feasible(&grid, spec, nd)?;
    let metrics = ws.metrics.clone();

    let ids: Vec<_> = trace.iter_data().map(|(d, _)| d).collect();
    let paths = {
        let _t = metrics.phase("GOMCDS/phase1-paths");
        pim_par::parallel_map_with_chunked(
            pool,
            &ids,
            pim_par::auto_chunk(ids.len(), pool.threads()),
            Workspace::new,
            |w, _, &d| gomcds_path_cached(&grid, cache.datum(d), solver, w).0,
        )
    };

    let _t = metrics.phase("GOMCDS/phase2-replay");
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
            solve_layered(
                &grid,
                &NodeSource::Cached(cache.datum(d)),
                Some(&masks),
                solver,
                ws,
                1,
            )
            .ok_or_else(|| exhausted(d, None))?
            .0
        };
        for (w, &p) in path.iter().enumerate() {
            masks[w].allocate(p).map_err(|_| exhausted(d, Some(w)))?;
        }
        centers.push(path);
    }
    Ok(Schedule::new(grid, centers))
}

fn gomcds_schedule_driver(
    trace: &WindowedTrace,
    spec: MemorySpec,
    solver: Solver,
    ws: &mut Workspace,
    cache: Option<&CostCache>,
) -> Result<Schedule, SchedError> {
    let grid = trace.grid();
    let nd = trace.num_data();
    let nw = trace.num_windows();
    ensure_feasible(&grid, spec, nd)?;

    let bounded = spec.capacity_per_proc != u32::MAX;
    let mut masks: Vec<MemoryMap> = if bounded {
        (0..nw).map(|_| MemoryMap::new(&grid, spec)).collect()
    } else {
        Vec::new()
    };

    let mut centers = Vec::with_capacity(nd);
    for (d, rs) in trace.iter_data() {
        let mask_ref = bounded.then_some(masks.as_slice());
        let (path, _) = match cache {
            Some(c) => solve_layered(
                &grid,
                &NodeSource::Cached(c.datum(d)),
                mask_ref,
                solver,
                ws,
                1,
            ),
            None => solve_layered(&grid, &NodeSource::Raw(rs), mask_ref, solver, ws, 1),
        }
        .ok_or_else(|| exhausted(d, None))?;
        if bounded {
            for (w, &p) in path.iter().enumerate() {
                masks[w].allocate(p).map_err(|_| exhausted(d, Some(w)))?;
            }
        }
        centers.push(path);
    }
    Ok(Schedule::new(grid, centers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lomcds::lomcds_schedule;
    use crate::scds::scds_schedule;
    use pim_trace::ids::DataId;
    use pim_trace::window::{WindowRefs, WindowedTrace};

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    #[test]
    fn stays_put_when_movement_too_expensive() {
        let grid = g();
        // A brief, light excursion of references: moving out and back would
        // cost more than serving remotely.
        let trace = WindowedTrace::from_parts(
            grid,
            vec![vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 5)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 0), 1)]),
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 5)]),
            ]],
        );
        let s = gomcds_schedule(&trace, MemorySpec::unbounded());
        let cs = s.centers_of(DataId(0));
        assert_eq!(cs, &[grid.proc_xy(0, 0); 3]);
        assert_eq!(s.evaluate(&trace).total(), 3);
    }

    #[test]
    fn moves_when_references_shift_for_good() {
        let grid = g();
        let trace = WindowedTrace::from_parts(
            grid,
            vec![vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 3), 10)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 3), 10)]),
            ]],
        );
        let s = gomcds_schedule(&trace, MemorySpec::unbounded());
        let cs = s.centers_of(DataId(0));
        assert_eq!(cs[0], grid.proc_xy(0, 0));
        assert_eq!(cs[1], grid.proc_xy(3, 3));
        assert_eq!(cs[2], grid.proc_xy(3, 3));
        // move cost 6, ref cost 0
        assert_eq!(s.evaluate(&trace).total(), 6);
    }

    #[test]
    fn naive_and_dt_agree_exactly() {
        let grid = Grid::new(5, 4);
        let trace = WindowedTrace::from_parts(
            grid,
            vec![
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2), (grid.proc_xy(4, 3), 1)]),
                    WindowRefs::from_pairs([(grid.proc_xy(2, 2), 3)]),
                    WindowRefs::new(),
                    WindowRefs::from_pairs([(grid.proc_xy(4, 0), 1), (grid.proc_xy(0, 3), 1)]),
                ],
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(1, 1), 1)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 2), 2)]),
                    WindowRefs::from_pairs([(grid.proc_xy(1, 3), 4)]),
                    WindowRefs::new(),
                ],
            ],
        );
        for spec in [MemorySpec::unbounded(), MemorySpec::uniform(1)] {
            let a = gomcds_schedule_with(&trace, spec, Solver::Naive);
            let b = gomcds_schedule_with(&trace, spec, Solver::DistanceTransform);
            assert_eq!(a, b, "spec {spec:?}");
        }
    }

    #[test]
    fn cached_matches_uncached() {
        let grid = Grid::new(5, 4);
        let trace = WindowedTrace::from_parts(
            grid,
            vec![
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2), (grid.proc_xy(4, 3), 1)]),
                    WindowRefs::new(),
                    WindowRefs::from_pairs([(grid.proc_xy(2, 2), 3)]),
                ],
                vec![
                    WindowRefs::from_pairs([(grid.proc_xy(1, 1), 1)]),
                    WindowRefs::from_pairs([(grid.proc_xy(3, 2), 2)]),
                    WindowRefs::from_pairs([(grid.proc_xy(1, 3), 4)]),
                ],
            ],
        );
        for spec in [MemorySpec::unbounded(), MemorySpec::uniform(1)] {
            for solver in [Solver::Naive, Solver::DistanceTransform] {
                assert_eq!(
                    gomcds_schedule_with(&trace, spec, solver),
                    gomcds_schedule_with_uncached(&trace, spec, solver).unwrap(),
                    "spec {spec:?} solver {solver:?}"
                );
            }
        }
    }

    #[test]
    fn path_ranges_matches_regrouped_path() {
        let grid = g();
        let rs = DataRefString::new(vec![
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2)]),
            WindowRefs::from_pairs([(grid.proc_xy(1, 0), 1)]),
            WindowRefs::from_pairs([(grid.proc_xy(3, 3), 6)]),
            WindowRefs::new(),
        ]);
        let groups = vec![0..2, 2..4];
        let cache = DatumCostCache::build(&grid, &rs);
        let mut ws = Workspace::new();
        let via_ranges = gomcds_path_ranges(&grid, &cache, &groups, &mut ws);
        let via_regroup = gomcds_path(&grid, &rs.regrouped(&groups), Solver::DistanceTransform);
        assert_eq!(via_ranges, via_regroup);
    }

    #[test]
    fn never_beaten_by_scds_or_lomcds_unconstrained() {
        let grid = g();
        let trace = WindowedTrace::from_parts(
            grid,
            vec![vec![
                WindowRefs::from_pairs([(grid.proc_xy(1, 0), 2), (grid.proc_xy(2, 1), 1)]),
                WindowRefs::from_pairs([(grid.proc_xy(1, 3), 3)]),
                WindowRefs::from_pairs([(grid.proc_xy(1, 0), 2)]),
                WindowRefs::from_pairs([(grid.proc_xy(2, 1), 2)]),
            ]],
        );
        let unb = MemorySpec::unbounded();
        let go = gomcds_schedule(&trace, unb).evaluate(&trace).total();
        let lo = lomcds_schedule(&trace, unb).evaluate(&trace).total();
        let sc = scds_schedule(&trace, unb).evaluate(&trace).total();
        assert!(go <= lo, "GOMCDS {go} must be ≤ LOMCDS {lo}");
        assert!(go <= sc, "GOMCDS {go} must be ≤ SCDS {sc}");
    }

    #[test]
    fn path_cost_matches_schedule_evaluation() {
        let grid = g();
        let rs_windows = vec![
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 1)]),
            WindowRefs::from_pairs([(grid.proc_xy(3, 3), 2)]),
        ];
        let trace = WindowedTrace::from_parts(grid, vec![rs_windows]);
        let (path, cost) = gomcds_path(&grid, trace.refs(DataId(0)), Solver::DistanceTransform);
        let s = Schedule::new(grid, vec![path]);
        assert_eq!(s.evaluate(&trace).total(), cost);
    }

    #[test]
    fn capacity_masking_respected() {
        let grid = g();
        let want = |p| {
            vec![
                WindowRefs::from_pairs([(p, 3)]),
                WindowRefs::from_pairs([(p, 3)]),
            ]
        };
        let trace = WindowedTrace::from_parts(
            grid,
            vec![want(grid.proc_xy(2, 2)), want(grid.proc_xy(2, 2))],
        );
        let s = gomcds_schedule(&trace, MemorySpec::uniform(1));
        assert_eq!(s.max_occupancy(), 1);
        assert_eq!(s.center(DataId(0), 0), grid.proc_xy(2, 2));
        assert_ne!(s.center(DataId(1), 0), grid.proc_xy(2, 2));
    }

    #[test]
    fn resumable_solve_matches_cached_from_every_layer() {
        let grid = Grid::new(5, 4);
        let rs = DataRefString::new(vec![
            WindowRefs::from_pairs([(grid.proc_xy(0, 0), 2), (grid.proc_xy(4, 3), 1)]),
            WindowRefs::new(),
            WindowRefs::from_pairs([(grid.proc_xy(2, 2), 3)]),
            WindowRefs::from_pairs([(grid.proc_xy(4, 0), 1), (grid.proc_xy(0, 3), 1)]),
            WindowRefs::from_pairs([(grid.proc_xy(1, 3), 4)]),
        ]);
        let cache = DatumCostCache::build(&grid, &rs);
        let mut ws = Workspace::new();
        let expect = gomcds_path_cached(&grid, &cache, Solver::DistanceTransform, &mut ws);

        // Save a full checkpoint, then resume from every truncation point
        // (0 = cold, nw = fully warm): all must be bit-identical.
        let mut ckpt = DpCheckpoint::default();
        let saved = gomcds_path_resumable(&grid, &cache, &mut ws, None, Some(&mut ckpt));
        assert_eq!(saved, expect);
        assert_eq!(ckpt.layers, rs.num_windows());
        let m = grid.num_procs();
        for cut in 0..=rs.num_windows() {
            let mut c = ckpt.clone();
            c.truncate(cut, m);
            assert_eq!(c.layers, cut);
            let got = gomcds_path_resumable(&grid, &cache, &mut ws, Some(&c), None);
            assert_eq!(got, expect, "resume from layer {cut}");
        }
    }

    #[test]
    fn single_window_gomcds_equals_scds_placement() {
        let grid = g();
        let trace = WindowedTrace::from_parts(
            grid,
            vec![vec![WindowRefs::from_pairs([
                (grid.proc_xy(3, 1), 2),
                (grid.proc_xy(0, 2), 1),
            ])]],
        );
        let unb = MemorySpec::unbounded();
        assert_eq!(gomcds_schedule(&trace, unb), scds_schedule(&trace, unb));
    }
}
