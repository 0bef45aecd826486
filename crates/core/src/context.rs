//! Shared execution context for pluggable schedulers.
//!
//! A [`SchedContext`] bundles everything a [`crate::registry::Scheduler`]
//! needs beyond the trace itself: the grid view, the memory policy and its
//! resolved [`MemorySpec`], the shared per-trace [`CostCache`], a reusable
//! [`Workspace`], and a [`Pool`] for per-datum work. The context — not the
//! scheduler — decides the *execution mode*, one of two:
//!
//! * **cached over a pool** (the default): the context owns a
//!   [`CostCache`] and every scheduler serves its cost tables from it.
//!   Each of SCDS, LOMCDS, GOMCDS and the grouped schedulers has one body:
//!   phase 1 computes the pure, order-independent per-datum quantities
//!   (medians, center paths, groupings) over the pool; phase 2 replays
//!   capacity assignment sequentially in datum order, and is skipped when
//!   memory is unbounded. Without an attached pool the context hands out
//!   [`Pool::serial`], which runs phase 1 on the calling thread; any width
//!   gives the same schedule bit for bit.
//! * **uncached**: no cache is built and schedulers fall back to the
//!   pre-cache reference implementations (the bit-identity oracles). They
//!   ignore the pool.
//!
//! Both modes, at several pool widths, are property-tested bit-identical
//! for every registered scheduler × every memory policy in
//! `tests/cache_equivalence.rs`.

use crate::cache::CostCache;
use crate::pipeline::MemoryPolicy;
use crate::workspace::Workspace;
use pim_array::grid::Grid;
use pim_array::memory::MemorySpec;
use pim_metrics::Metrics;
use pim_par::Pool;
use pim_trace::dag::TaskDag;
use pim_trace::window::WindowedTrace;

/// Whether (and how) task precedence constrains a scheduling run.
///
/// The default is [`PrecedencePolicy::None`]: every scheduler behaves
/// exactly as the precedence-free paper model. Attaching a DAG lets the
/// precedence-aware schedulers (`list-scds`, `edf-scds`) weight and order
/// their placement decisions by task priority; precedence-oblivious
/// schedulers simply ignore it.
#[derive(Debug, Clone, Copy, Default)]
pub enum PrecedencePolicy<'t> {
    /// No precedence constraints: the all-ready-at-window-start model.
    #[default]
    None,
    /// Placement is informed by this task DAG.
    Dag(&'t TaskDag),
}

impl<'t> PrecedencePolicy<'t> {
    /// The attached DAG, if any.
    pub fn dag(&self) -> Option<&'t TaskDag> {
        match self {
            PrecedencePolicy::None => None,
            PrecedencePolicy::Dag(dag) => Some(dag),
        }
    }
}

/// Execution context owned by one scheduling run and shared across any
/// number of schedulers (the cache and workspace amortize across calls).
/// The lifetime ties the context to the trace whose reference strings the
/// (lazy) [`CostCache`] serves from.
#[derive(Debug)]
pub struct SchedContext<'t> {
    grid: Grid,
    policy: MemoryPolicy,
    spec: MemorySpec,
    cache: Option<CostCache<'t>>,
    ws: Workspace,
    pool: Option<Pool>,
    metrics: Metrics,
    precedence: PrecedencePolicy<'t>,
}

impl<'t> SchedContext<'t> {
    /// Cached context: wraps the trace in a (lazy) per-trace [`CostCache`].
    pub fn new(trace: &'t WindowedTrace, policy: MemoryPolicy) -> Self {
        SchedContext::with_cache(trace, policy, CostCache::build(trace))
    }

    /// Cached context around a prebuilt cost cache (shares the cache — and
    /// any prefix tables it has already built — with other users of the
    /// same trace).
    pub fn with_cache(
        trace: &'t WindowedTrace,
        policy: MemoryPolicy,
        cache: CostCache<'t>,
    ) -> Self {
        SchedContext {
            grid: trace.grid(),
            policy,
            spec: policy.resolve(trace),
            cache: Some(cache),
            ws: Workspace::new(),
            pool: None,
            metrics: Metrics::disabled(),
            precedence: PrecedencePolicy::None,
        }
    }

    /// Uncached reference context: schedulers re-walk raw reference strings
    /// exactly as the seed implementation did.
    pub fn uncached(trace: &'t WindowedTrace, policy: MemoryPolicy) -> Self {
        SchedContext {
            grid: trace.grid(),
            policy,
            spec: policy.resolve(trace),
            cache: None,
            ws: Workspace::new(),
            pool: None,
            metrics: Metrics::disabled(),
            precedence: PrecedencePolicy::None,
        }
    }

    /// Attach a worker pool for per-datum parallelism.
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attach a precedence policy (a task DAG). Precedence-aware
    /// schedulers read it through [`SchedContext::dag`]; everything else
    /// ignores it, so attaching a DAG never perturbs oblivious schedulers.
    pub fn with_precedence(mut self, precedence: PrecedencePolicy<'t>) -> Self {
        self.precedence = precedence;
        self
    }

    /// Attach a metrics sink. An enabled sink is installed into the owned
    /// cost cache (cache-behavior counters) and the workspace (capacity
    /// displacement); schedulers record into it but never read from it, so
    /// the schedule stays bit-identical with metrics on or off.
    pub fn with_metrics(mut self, metrics: Metrics) -> Self {
        if let (Some(stats), Some(cache)) = (metrics.cache_stats(), self.cache.as_mut()) {
            cache.set_stats(&stats);
        }
        self.ws.metrics = metrics.clone();
        self.metrics = metrics;
        self
    }

    /// The metrics sink of this run (disabled by default).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The processor grid of the trace this context was built for.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// The memory policy this run schedules under.
    pub fn policy(&self) -> MemoryPolicy {
        self.policy
    }

    /// The policy resolved against the trace.
    pub fn spec(&self) -> MemorySpec {
        self.spec
    }

    /// The precedence policy of this run.
    pub fn precedence(&self) -> PrecedencePolicy<'t> {
        self.precedence
    }

    /// The attached task DAG, when precedence applies.
    pub fn dag(&self) -> Option<&'t TaskDag> {
        self.precedence.dag()
    }

    /// The shared cost cache, when this is a cached context.
    pub fn cache(&self) -> Option<&CostCache<'t>> {
        self.cache.as_ref()
    }

    /// The pool per-datum work runs on: the attached one, else
    /// [`Pool::serial`].
    pub fn pool(&self) -> Pool {
        self.pool.unwrap_or_else(Pool::serial)
    }

    /// Split-borrow what the cached scheduler bodies take — the cost
    /// cache, the pool and the workspace; `None` for an uncached context.
    pub fn cached_parts(&mut self) -> Option<(&CostCache<'t>, Pool, &mut Workspace)> {
        let pool = self.pool();
        let cache = self.cache.as_ref()?;
        Some((cache, pool, &mut self.ws))
    }

    /// The reusable scratch workspace.
    pub fn workspace(&mut self) -> &mut Workspace {
        &mut self.ws
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_trace::window::{WindowRefs, WindowedTrace};

    fn trace() -> WindowedTrace {
        let grid = Grid::new(3, 3);
        WindowedTrace::from_parts(grid, vec![vec![WindowRefs::new(); 2]; 2])
    }

    #[test]
    fn cached_context_owns_cache() {
        let t = trace();
        let ctx = SchedContext::new(&t, MemoryPolicy::Unbounded);
        assert!(ctx.cache().is_some());
        assert_eq!(ctx.grid(), t.grid());
        assert_eq!(ctx.spec().capacity_per_proc, u32::MAX);
    }

    #[test]
    fn uncached_context_has_no_cache() {
        let t = trace();
        let ctx = SchedContext::uncached(&t, MemoryPolicy::Capacity(4));
        assert!(ctx.cache().is_none());
        assert_eq!(ctx.spec().capacity_per_proc, 4);
    }

    #[test]
    fn precedence_defaults_to_none() {
        let t = trace();
        let ctx = SchedContext::new(&t, MemoryPolicy::Unbounded);
        assert!(ctx.dag().is_none());
        let dag = pim_trace::dag::TaskDag::new(2, vec![], vec![]).unwrap();
        let ctx = SchedContext::new(&t, MemoryPolicy::Unbounded)
            .with_precedence(PrecedencePolicy::Dag(&dag));
        assert_eq!(ctx.dag().map(|d| d.num_windows()), Some(2));
    }

    #[test]
    fn pool_defaults_to_serial() {
        let t = trace();
        let mut ctx = SchedContext::new(&t, MemoryPolicy::Unbounded);
        assert_eq!(ctx.pool().threads(), 1);
        assert!(ctx.cached_parts().is_some());
        let pool = Pool::with_threads(3);
        let ctx = SchedContext::new(&t, MemoryPolicy::Capacity(2)).with_pool(pool);
        assert_eq!(ctx.pool().threads(), 3);
        // Uncached runs reproduce the seed implementations: no cached parts.
        let mut uncached = SchedContext::uncached(&t, MemoryPolicy::Unbounded).with_pool(pool);
        assert!(uncached.cached_parts().is_none());
    }
}
