//! Single-Center Data Scheduling (paper Algorithm 1).
//!
//! All execution windows are merged into one; each datum gets the single
//! center minimizing its total reference cost, and never moves. Memory
//! conflicts are resolved with the processor list (first available
//! processor in ascending cost order), processing data in ascending id
//! order — the paper's "foreach data i do".

use crate::cache::CostCache;
use crate::capacity::ProcessorList;
use crate::cost::cost_table;
use crate::error::{ensure_feasible, exhausted, SchedError};
use crate::schedule::Schedule;
use crate::workspace::{per_datum, Workspace};
use pim_array::grid::{Grid, ProcId};
use pim_array::memory::{MemoryMap, MemorySpec};
use pim_metrics::Metrics;
use pim_par::Pool;
use pim_trace::ids::DataId;
use pim_trace::window::WindowedTrace;

/// SCDS served from a shared per-trace cost cache. Phase 1 computes every
/// datum's merged-window weighted median over `pool`
/// ([`crate::cache::DatumCostCache::range_median`], the head of its
/// processor list, without building the list); phase 2 offers the medians
/// to `ScdsReplay` in ascending datum order, and is skipped when memory
/// is unbounded. Any pool width, [`Pool::serial`] included, gives the same
/// schedule.
///
/// Returns [`SchedError::CapacityExhausted`] when the memory spec cannot
/// hold every datum.
pub fn scds_schedule_parallel(
    trace: &WindowedTrace,
    spec: MemorySpec,
    cache: &CostCache<'_>,
    pool: Pool,
    ws: &mut Workspace,
) -> Result<Schedule, SchedError> {
    let grid = trace.grid();
    let nw = trace.num_windows();
    ensure_feasible(&grid, spec, trace.num_data())?;
    let metrics = ws.metrics.clone();
    let medians = {
        let _t = metrics.phase("SCDS/phase1-medians");
        per_datum(pool, trace.num_data(), |w: &mut Workspace, d| {
            cache.datum(d).range_median(0, nw, &mut w.axes)
        })
    };
    if spec.capacity_per_proc == u32::MAX {
        return Ok(Schedule::static_placement(grid, medians, nw));
    }
    let _t = metrics.phase("SCDS/phase2-replay");
    let mut replay = ScdsReplay::new(&grid, spec, metrics.clone());
    let mut placement = Vec::with_capacity(medians.len());
    for (i, c) in medians.into_iter().enumerate() {
        let d = DataId(i as u32);
        placement.push(replay.place(d, c, |t| cache.datum(d).full_table(&mut ws.axes, t))?);
    }
    Ok(Schedule::static_placement(grid, placement, nw))
}

/// SCDS's capacity replay, shared by every driver (classic, flat, stream,
/// incremental): merged medians are offered in ascending datum order, and
/// a datum whose median is full falls back to its full (cost, id)-ordered
/// processor list. The median is the list head (lowest-id argmin), so this
/// makes exactly the decisions of assigning every datum through its list.
pub(crate) struct ScdsReplay {
    mem: MemoryMap,
    table: Vec<u64>,
    metrics: Metrics,
    spilled: usize,
}

impl ScdsReplay {
    pub(crate) fn new(grid: &Grid, spec: MemorySpec, metrics: Metrics) -> ScdsReplay {
        ScdsReplay {
            mem: MemoryMap::new(grid, spec),
            table: Vec::new(),
            metrics,
            spilled: 0,
        }
    }

    /// Place datum `d` with merged median `median`. Only when the median
    /// is full does `fill_table` run, writing `d`'s merged cost table.
    /// Must be called in ascending datum order.
    pub(crate) fn place(
        &mut self,
        d: DataId,
        median: ProcId,
        fill_table: impl FnOnce(&mut Vec<u64>),
    ) -> Result<ProcId, SchedError> {
        if self.mem.has_room(median) {
            self.mem.allocate(median).map_err(|_| exhausted(d, None))?;
            self.metrics.record_placement(0);
            return Ok(median);
        }
        self.spilled += 1;
        fill_table(&mut self.table);
        let (p, rank) = ProcessorList::from_cost_table(&self.table)
            .assign_ranked(&mut self.mem)
            .ok_or_else(|| exhausted(d, None))?;
        self.metrics.record_placement(rank);
        Ok(p)
    }

    /// How many data so far landed off their median.
    pub(crate) fn spilled(&self) -> usize {
        self.spilled
    }
}

/// Pre-cache reference implementation (merges each reference string and
/// runs [`cost_table`] directly). Bit-identical to
/// [`scds_schedule_parallel`];
/// kept for the equivalence property tests and benches.
pub fn scds_schedule_uncached(
    trace: &WindowedTrace,
    spec: MemorySpec,
) -> Result<Schedule, SchedError> {
    let grid = trace.grid();
    ensure_feasible(&grid, spec, trace.num_data())?;
    let mut mem = MemoryMap::new(&grid, spec);
    let mut table = Vec::new();
    let mut placement = Vec::with_capacity(trace.num_data());
    for (d, rs) in trace.iter_data() {
        let merged = rs.merged_all();
        cost_table(&grid, &merged, &mut table);
        let list = ProcessorList::from_cost_table(&table);
        let p = list.assign(&mut mem).ok_or_else(|| exhausted(d, None))?;
        placement.push(p);
    }
    Ok(Schedule::static_placement(
        grid,
        placement,
        trace.num_windows(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{MemoryPolicy, Method, Run};
    use pim_array::grid::Grid;
    use pim_trace::ids::DataId;
    use pim_trace::window::{WindowRefs, WindowedTrace};

    fn g() -> Grid {
        Grid::new(4, 4)
    }

    fn scds(trace: &WindowedTrace, policy: MemoryPolicy) -> Result<Schedule, SchedError> {
        Run::new(trace).policy(policy).run_method(Method::Scds)
    }

    #[test]
    fn single_datum_goes_to_merged_median() {
        let grid = g();
        // window 0: heavy at (0,0); window 1: light at (3,3)
        let trace = WindowedTrace::from_parts(
            grid,
            vec![vec![
                WindowRefs::from_pairs([(grid.proc_xy(0, 0), 3)]),
                WindowRefs::from_pairs([(grid.proc_xy(3, 3), 1)]),
            ]],
        );
        let s = scds(&trace, MemoryPolicy::Unbounded).unwrap();
        assert_eq!(s.center(DataId(0), 0), grid.proc_xy(0, 0));
        assert_eq!(s.center(DataId(0), 1), grid.proc_xy(0, 0));
        assert!(!s.has_movement());
        assert_eq!(s.evaluate(&trace).total(), 6);
    }

    #[test]
    fn capacity_spills_to_next_cheapest() {
        let grid = g();
        // two data both want (1,1)
        let refs = || vec![WindowRefs::from_pairs([(grid.proc_xy(1, 1), 2)])];
        let trace = WindowedTrace::from_parts(grid, vec![refs(), refs()]);
        let s = scds(&trace, MemoryPolicy::Capacity(1)).unwrap();
        assert_eq!(s.center(DataId(0), 0), grid.proc_xy(1, 1));
        // datum 1 spills to the distance-1 neighbour with lowest id: (1,0)
        assert_eq!(s.center(DataId(1), 0), grid.proc_xy(1, 0));
        assert_eq!(s.max_occupancy(), 1);
    }

    #[test]
    fn unreferenced_data_parks_deterministically() {
        let grid = g();
        let trace =
            WindowedTrace::from_parts(grid, vec![vec![WindowRefs::new()], vec![WindowRefs::new()]]);
        let s = scds(&trace, MemoryPolicy::Capacity(1)).unwrap();
        // zero cost everywhere → list sorted by id → data scatter over
        // lowest-id processors
        assert_eq!(s.center(DataId(0), 0), grid.proc_xy(0, 0));
        assert_eq!(s.center(DataId(1), 0), grid.proc_xy(1, 0));
        assert_eq!(s.evaluate(&trace).total(), 0);
    }

    #[test]
    fn infeasible_capacity_errors_through_cached_entry() {
        let grid = Grid::new(2, 1);
        let trace = WindowedTrace::from_parts(grid, vec![vec![WindowRefs::new()]; 3]);
        let cache = CostCache::build(&trace);
        let mut ws = Workspace::new();
        let err = scds_schedule_parallel(
            &trace,
            MemorySpec::uniform(1),
            &cache,
            Pool::serial(),
            &mut ws,
        )
        .expect_err("3 data cannot fit 2 slots");
        assert!(matches!(err, SchedError::CapacityExhausted { .. }));
    }
}
