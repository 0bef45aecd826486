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
use crate::workspace::{per_datum, Workspace};
use core::ops::Range;
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::{MemoryMap, MemorySpec};
use pim_par::Pool;
use pim_trace::ids::DataId;
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
    let nw = src.num_layers();
    ws.dp.clear();
    ws.nodes_all.clear();
    forward(grid, src, masks, solver, move_weight, 0, ws);
    if matches!(src, NodeSource::Raw(_)) {
        // The raw source is the frozen pre-cache reference: it walks the
        // reference string a second time for the backtrack instead of
        // memoizing the forward pass — the behaviour the cached-vs-uncached
        // bench measures.
        for w in 0..nw {
            src.node_costs(grid, masks, w, &mut ws.axes, &mut ws.node);
            ws.nodes_all.extend_from_slice(&ws.node);
        }
    }
    backtrack(grid, &ws.dp, &ws.nodes_all, move_weight)
}

/// The forward pass over layers `start..`: appends each layer's DP row to
/// `ws.dp`, which must already hold rows `0..start`. Cache-served node
/// rows are also appended to `ws.nodes_all` so the backtrack reads them
/// instead of re-deriving each window.
fn forward(
    grid: &Grid,
    src: &NodeSource<'_>,
    masks: Option<&[MemoryMap]>,
    solver: Solver,
    move_weight: u64,
    start: usize,
    ws: &mut Workspace,
) {
    let m = grid.num_procs();
    let nw = src.num_layers();
    let memoize = !matches!(src, NodeSource::Raw(_));
    let Workspace {
        axes,
        dp,
        node,
        relaxed,
        nodes_all,
        ..
    } = ws;
    dp.reserve((nw - start) * m);
    if memoize {
        nodes_all.reserve((nw - start) * m);
    }
    for w in start..nw {
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
                dp.push(relaxed[k].saturating_add(node[k]));
            }
        }
    }
}

/// Select the sink predecessor — the lowest-id argmin of the last DP row —
/// then backtrack to the lowest-id predecessor achieving each DP value.
/// `nodes` holds every layer's node-cost row. `None` when the best cost is
/// [`INF`] (no feasible path).
fn backtrack(
    grid: &Grid,
    dp: &[u64],
    nodes: &[u64],
    move_weight: u64,
) -> Option<(Vec<ProcId>, u64)> {
    let m = grid.num_procs();
    let nw = dp.len() / m;
    let last = &dp[(nw - 1) * m..nw * m];
    let (mut k, &best) = last
        .iter()
        .enumerate()
        .min_by_key(|&(i, &c)| (c, i))
        .expect("non-empty grid");
    if best >= INF {
        return None;
    }
    let mut path = vec![ProcId(0); nw];
    path[nw - 1] = ProcId(k as u32);
    for w in (1..nw).rev() {
        let need = dp[w * m + k] - nodes[w * m + k];
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
    ws.dp.clear();
    ws.nodes_all.clear();
    let start = resume.map_or(0, |c| c.layers.min(nw));
    if let Some(c) = resume {
        ws.dp.extend_from_slice(&c.dp[..start * m]);
        ws.nodes_all.extend_from_slice(&c.nodes[..start * m]);
    }
    let src = NodeSource::Cached(cache);
    forward(grid, &src, None, Solver::DistanceTransform, 1, start, ws);
    if let Some(out) = save {
        out.layers = nw;
        out.dp.clone_from(&ws.dp);
        out.nodes.clone_from(&ws.nodes_all);
    }
    backtrack(grid, &ws.dp, &ws.nodes_all, 1).expect("unconstrained path always feasible")
}

/// Pre-cache reference implementation: node costs walked from the raw
/// reference strings each time, data solved one by one against the
/// capacity masks. Bit-identical to [`gomcds_schedule_parallel`]; kept for
/// the equivalence property tests and the cached-vs-uncached bench.
pub fn gomcds_schedule_with_uncached(
    trace: &WindowedTrace,
    spec: MemorySpec,
    solver: Solver,
) -> Result<Schedule, SchedError> {
    let grid = trace.grid();
    let nw = trace.num_windows();
    ensure_feasible(&grid, spec, trace.num_data())?;

    let bounded = spec.capacity_per_proc != u32::MAX;
    let mut masks: Vec<MemoryMap> = if bounded {
        (0..nw).map(|_| MemoryMap::new(&grid, spec)).collect()
    } else {
        Vec::new()
    };
    let mut ws = Workspace::new();
    let mut centers = Vec::with_capacity(trace.num_data());
    for (d, rs) in trace.iter_data() {
        let mask_ref = bounded.then_some(masks.as_slice());
        let (path, _) = solve_layered(&grid, &NodeSource::Raw(rs), mask_ref, solver, &mut ws, 1)
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

/// GOMCDS served from a shared per-trace cost cache. Phase 1 solves every
/// datum's *unconstrained* shortest path over `pool` (pure,
/// order-independent); with unbounded memory those paths are the schedule.
/// Under a bounded policy phase 2 is `gomcds_replay`. Any pool width,
/// [`Pool::serial`] included, gives the same schedule.
pub fn gomcds_schedule_parallel(
    trace: &WindowedTrace,
    spec: MemorySpec,
    solver: Solver,
    cache: &CostCache<'_>,
    pool: Pool,
    ws: &mut Workspace,
) -> Result<Schedule, SchedError> {
    let grid = trace.grid();
    ensure_feasible(&grid, spec, trace.num_data())?;
    let metrics = ws.metrics.clone();
    let paths = {
        let _t = metrics.phase("GOMCDS/phase1-paths");
        per_datum(pool, trace.num_data(), |w, d| {
            gomcds_path_cached(&grid, cache.datum(d), solver, w).0
        })
    };
    if spec.capacity_per_proc == u32::MAX {
        return Ok(Schedule::new(grid, paths));
    }
    let _t = metrics.phase("GOMCDS/phase2-replay");
    gomcds_replay(&grid, trace.num_windows(), spec, solver, cache, paths, ws).map(|(s, _)| s)
}

/// GOMCDS's capacity replay, shared by every driver (classic, flat,
/// incremental): data claim slots in ascending id order, each along the
/// masked layered shortest path against the slots claimed before it.
/// `paths` holds every datum's unconstrained path. When one still has room
/// in every window it is exactly what the masked DP returns — masking only
/// raises node costs, and it raises none along a free path, so the DP
/// values, the lowest-index sink argmin and every lowest-index backtrack
/// step are unchanged — and it is allocated as is. Only data whose path
/// hits a full slot re-solve. Returns the schedule and how many data
/// re-solved.
pub(crate) fn gomcds_replay(
    grid: &Grid,
    nw: usize,
    spec: MemorySpec,
    solver: Solver,
    cache: &CostCache<'_>,
    paths: Vec<Vec<ProcId>>,
    ws: &mut Workspace,
) -> Result<(Schedule, usize), SchedError> {
    let mut masks: Vec<MemoryMap> = (0..nw).map(|_| MemoryMap::new(grid, spec)).collect();
    let mut spilled = 0usize;
    let mut centers = Vec::with_capacity(paths.len());
    for (i, unconstrained) in paths.into_iter().enumerate() {
        let d = DataId(i as u32);
        let free = unconstrained
            .iter()
            .enumerate()
            .all(|(w, &p)| masks[w].has_room(p));
        let path = if free {
            unconstrained
        } else {
            spilled += 1;
            let src = NodeSource::Cached(cache.datum(d));
            solve_layered(grid, &src, Some(&masks), solver, ws, 1)
                .ok_or_else(|| exhausted(d, None))?
                .0
        };
        for (w, &p) in path.iter().enumerate() {
            masks[w].allocate(p).map_err(|_| exhausted(d, Some(w)))?;
        }
        centers.push(path);
    }
    Ok((Schedule::new(*grid, centers), spilled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{MemoryPolicy, Run};
    use pim_trace::ids::DataId;
    use pim_trace::window::{WindowRefs, WindowedTrace};

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    /// The registered scheduler `name` on `trace` under `policy`.
    fn run(trace: &WindowedTrace, policy: MemoryPolicy, name: &str) -> Schedule {
        Run::new(trace).policy(policy).run_named(name).unwrap()
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
        let s = run(&trace, MemoryPolicy::Unbounded, "GOMCDS");
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
        let s = run(&trace, MemoryPolicy::Unbounded, "GOMCDS");
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
        for policy in [MemoryPolicy::Unbounded, MemoryPolicy::Capacity(1)] {
            let a = run(&trace, policy, "GOMCDS-naive");
            let b = run(&trace, policy, "GOMCDS");
            assert_eq!(a, b, "policy {policy:?}");
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
        let cache = CostCache::build(&trace);
        let mut ws = Workspace::new();
        for spec in [MemorySpec::unbounded(), MemorySpec::uniform(1)] {
            for solver in [Solver::Naive, Solver::DistanceTransform] {
                assert_eq!(
                    gomcds_schedule_parallel(&trace, spec, solver, &cache, Pool::serial(), &mut ws)
                        .unwrap(),
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
        let total = |name| {
            run(&trace, MemoryPolicy::Unbounded, name)
                .evaluate(&trace)
                .total()
        };
        let (go, lo, sc) = (total("GOMCDS"), total("LOMCDS"), total("SCDS"));
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
        let s = run(&trace, MemoryPolicy::Capacity(1), "GOMCDS");
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
        assert_eq!(
            run(&trace, MemoryPolicy::Unbounded, "GOMCDS"),
            run(&trace, MemoryPolicy::Unbounded, "SCDS")
        );
    }
}
