//! Per-processor data reference strings — the paper's Definition 2.
//!
//! The scheduler-facing view ([`crate::window`]) is datum-major; this
//! module provides the transposed, processor-major view: for each
//! processor and window, which data it references and how often. It backs
//! locality diagnostics (what fraction of a processor's references its own
//! memory could serve) and the per-processor working-set statistics used
//! when sizing local memories.

use crate::ids::DataId;
use crate::window::WindowedTrace;
use pim_array::grid::ProcId;

/// One processor's references within one window: sorted, aggregated
/// `(datum, count)` pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcWindowRefs {
    refs: Vec<(DataId, u32)>,
}

impl ProcWindowRefs {
    /// Number of distinct data referenced.
    pub fn num_data(&self) -> usize {
        self.refs.len()
    }

    /// Total reference volume.
    pub fn total_volume(&self) -> u64 {
        self.refs.iter().map(|&(_, n)| n as u64).sum()
    }

    /// Volume for one datum (0 when absent).
    pub fn volume_of(&self, d: DataId) -> u32 {
        self.refs
            .binary_search_by_key(&d, |&(x, _)| x)
            .map(|i| self.refs[i].1)
            .unwrap_or(0)
    }

    /// Iterate `(datum, count)` in ascending datum order.
    pub fn iter(&self) -> impl Iterator<Item = (DataId, u32)> + '_ {
        self.refs.iter().copied()
    }

    fn add(&mut self, d: DataId, n: u32) {
        match self.refs.binary_search_by_key(&d, |&(x, _)| x) {
            Ok(i) => self.refs[i].1 += n,
            Err(i) => self.refs.insert(i, (d, n)),
        }
    }
}

/// The processor-major view of a windowed trace.
///
/// ```
/// use pim_array::grid::{Grid, ProcId};
/// use pim_trace::ids::DataId;
/// use pim_trace::perproc::ProcView;
/// use pim_trace::window::{WindowRefs, WindowedTrace};
///
/// let grid = Grid::new(2, 2);
/// let trace = WindowedTrace::from_parts(
///     grid,
///     vec![vec![WindowRefs::from_pairs([(ProcId(2), 5)])]],
/// );
/// let view = ProcView::build(&trace);
/// assert_eq!(view.refs(ProcId(2), 0).volume_of(DataId(0)), 5);
/// assert_eq!(view.proc_volume(ProcId(0)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcView {
    num_windows: usize,
    /// `per_proc[p][w]`.
    per_proc: Vec<Vec<ProcWindowRefs>>,
}

impl ProcView {
    /// Transpose a windowed trace into the processor-major view.
    pub fn build(trace: &WindowedTrace) -> Self {
        let nprocs = trace.grid().num_procs();
        let nw = trace.num_windows();
        let mut per_proc = vec![vec![ProcWindowRefs::default(); nw]; nprocs];
        for (d, rs) in trace.iter_data() {
            for (w, refs) in rs.windows().enumerate() {
                for r in refs.iter() {
                    per_proc[r.proc.index()][w].add(d, r.count);
                }
            }
        }
        ProcView {
            num_windows: nw,
            per_proc,
        }
    }

    /// Number of windows.
    pub fn num_windows(&self) -> usize {
        self.num_windows
    }

    /// One processor's references in one window.
    pub fn refs(&self, p: ProcId, w: usize) -> &ProcWindowRefs {
        &self.per_proc[p.index()][w]
    }

    /// A processor's total reference volume across the run.
    pub fn proc_volume(&self, p: ProcId) -> u64 {
        self.per_proc[p.index()]
            .iter()
            .map(ProcWindowRefs::total_volume)
            .sum()
    }

    /// The largest per-window working set (distinct data) of any processor
    /// — a lower bound on the local memory each processor needs to serve
    /// all of its *own* references locally.
    pub fn max_working_set(&self) -> usize {
        self.per_proc
            .iter()
            .flatten()
            .map(ProcWindowRefs::num_data)
            .max()
            .unwrap_or(0)
    }

    /// Volume-weighted load imbalance: the busiest processor's volume over
    /// the mean (1.0 = even).
    pub fn load_imbalance(&self) -> f64 {
        let vols: Vec<u64> = (0..self.per_proc.len())
            .map(|i| self.proc_volume(ProcId(i as u32)))
            .collect();
        let total: u64 = vols.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / vols.len() as f64;
        *vols.iter().max().expect("non-empty") as f64 / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{WindowRefs, WindowedTrace};
    use pim_array::grid::Grid;

    fn sample() -> WindowedTrace {
        let g = Grid::new(2, 2);
        WindowedTrace::from_parts(
            g,
            vec![
                vec![
                    WindowRefs::from_pairs([(ProcId(0), 2), (ProcId(3), 1)]),
                    WindowRefs::from_pairs([(ProcId(0), 1)]),
                ],
                vec![WindowRefs::from_pairs([(ProcId(0), 4)]), WindowRefs::new()],
            ],
        )
    }

    #[test]
    fn transpose_is_consistent() {
        let t = sample();
        let v = ProcView::build(&t);
        assert_eq!(v.num_windows(), 2);
        // proc 0, window 0: datum 0 ×2 and datum 1 ×4
        let r = v.refs(ProcId(0), 0);
        assert_eq!(r.num_data(), 2);
        assert_eq!(r.volume_of(DataId(0)), 2);
        assert_eq!(r.volume_of(DataId(1)), 4);
        assert_eq!(r.total_volume(), 6);
        // proc 3, window 0: datum 0 only
        assert_eq!(v.refs(ProcId(3), 0).volume_of(DataId(0)), 1);
        assert_eq!(v.refs(ProcId(3), 0).volume_of(DataId(1)), 0);
        // total volume preserved
        let total: u64 = (0..4).map(|p| v.proc_volume(ProcId(p))).sum();
        assert_eq!(total, t.total_volume());
    }

    #[test]
    fn working_set_and_imbalance() {
        let t = sample();
        let v = ProcView::build(&t);
        assert_eq!(v.max_working_set(), 2);
        // proc 0 carries 7 of 8 volume units
        assert!(v.load_imbalance() > 3.0);
    }

    #[test]
    fn empty_trace() {
        let g = Grid::new(2, 2);
        let t = WindowedTrace::from_parts(g, vec![vec![WindowRefs::new()]]);
        let v = ProcView::build(&t);
        assert_eq!(v.max_working_set(), 0);
        assert_eq!(v.load_imbalance(), 0.0);
        assert_eq!(v.refs(ProcId(1), 0).iter().count(), 0);
    }
}
