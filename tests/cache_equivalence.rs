//! Bit-identity of the cached scheduling path.
//!
//! The shared cost-table cache ([`pim_sched::CostCache`]), the reusable
//! [`pim_sched::Workspace`], and the persistent `pim-par` worker pool are
//! pure performance work: every schedule they produce must be *bit
//! identical* to the pre-cache reference implementations (`*_uncached`)
//! across random traces, degenerate and non-square grids, and every memory
//! policy. These properties are what licenses deleting nothing: the old
//! code survives as the oracle.
//!
//! Since the `Scheduler`-trait refactor this doubles as the registry-wide
//! conformance suite: `registry_conformance_across_wrappers` drives every
//! *registered* strategy — including `baseline`/`online`/`kcopy`/
//! `replicate`, which have no `Method` variant — through the cached,
//! uncached, and parallel execution wrappers of [`pim_sched::Run`] and
//! requires all three to agree exactly. The same discipline covers the
//! observability layer: `metrics_never_change_a_schedule_bit` proves that
//! attaching an enabled [`pim_sched::Metrics`] sink is pure observation.

use pim_array::grid::{Grid, ProcId};
use pim_par::Pool;
use pim_sched::{
    flat_gomcds, flat_lomcds, flat_scds, flat_total_cost, CostCache, MemoryPolicy, Method, Run,
    SchedContext, Schedule, Workspace,
};
use pim_trace::flat::FlatTrace;
use pim_trace::window::{WindowRefs, WindowedTrace};
use proptest::prelude::*;

/// Grids the cache must handle: degenerate 1×n row, the paper's square
/// array, a non-square 7×3, and random small shapes.
fn arb_grid() -> impl Strategy<Value = Grid> {
    prop_oneof![
        Just(Grid::new(1, 7)),
        Just(Grid::new(7, 1)),
        Just(Grid::new(4, 4)),
        Just(Grid::new(7, 3)),
        (1u32..=6, 1u32..=6).prop_map(|(w, h)| Grid::new(w, h)),
    ]
}

/// Random reference string over a grid (possibly empty).
fn arb_refs(grid: Grid) -> impl Strategy<Value = WindowRefs> {
    let m = grid.num_procs() as u32;
    proptest::collection::vec((0..m, 1u32..6), 0..6).prop_map(move |pairs| {
        WindowRefs::from_pairs(pairs.into_iter().map(|(p, n)| (ProcId(p), n)))
    })
}

/// Random windowed trace: up to 4 data × up to 6 windows. One arm in two
/// is a hot spot instead: every reference of every datum on one
/// processor, so under the tight policy every median collides and every
/// capacity replay takes its fallback.
fn arb_trace() -> impl Strategy<Value = WindowedTrace> {
    let random = arb_grid().prop_flat_map(|grid| {
        (1usize..=4, 1usize..=6).prop_flat_map(move |(nd, nw)| {
            proptest::collection::vec(proptest::collection::vec(arb_refs(grid), nw..=nw), nd..=nd)
                .prop_map(move |per_data| WindowedTrace::from_parts(grid, per_data))
        })
    });
    let hot_spot = arb_grid().prop_flat_map(|grid| {
        (0..grid.num_procs() as u32, 1usize..=4, 1usize..=6).prop_flat_map(move |(hot, nd, nw)| {
            proptest::collection::vec(proptest::collection::vec(1u32..6, nw..=nw), nd..=nd)
                .prop_map(move |counts| {
                    let at_hot = |n| WindowRefs::from_pairs([(ProcId(hot), n)]);
                    let per_data = counts
                        .into_iter()
                        .map(|row| row.into_iter().map(at_hot).collect())
                        .collect();
                    WindowedTrace::from_parts(grid, per_data)
                })
        })
    });
    prop_oneof![random, hot_spot]
}

/// Memory policies to cross with every method: unconstrained, the paper's
/// doubled balanced minimum, and the tightest uniform capacity that still
/// fits every datum.
fn policies(trace: &WindowedTrace) -> [MemoryPolicy; 3] {
    let tight = (trace.num_data() as u32).div_ceil(trace.grid().num_procs() as u32);
    [
        MemoryPolicy::Unbounded,
        MemoryPolicy::ScaledMinimum { factor: 2 },
        MemoryPolicy::Capacity(tight.max(1)),
    ]
}

/// Unbounded schedule of `trace` from a prebuilt cache, run through a
/// caller-owned workspace that keeps whatever state the run leaves in it.
fn schedule_through<'t>(
    method: Method,
    trace: &'t WindowedTrace,
    cache: &CostCache<'t>,
    ws: &mut Workspace,
) -> Schedule {
    let mut ctx = SchedContext::with_cache(trace, MemoryPolicy::Unbounded, cache.clone());
    std::mem::swap(ctx.workspace(), ws);
    let sched = method.scheduler().schedule(&mut ctx, trace).unwrap();
    std::mem::swap(ctx.workspace(), ws);
    sched
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole invariant: for every method and policy, the cached
    /// dispatch produces exactly the schedule the uncached reference does —
    /// same centers, not just same cost.
    #[test]
    fn cached_schedules_bit_identical_to_uncached(trace in arb_trace()) {
        for method in Method::ALL {
            for policy in policies(&trace) {
                let cached = Run::new(&trace).policy(policy).run_method(method).unwrap();
                let mut uncached = Run::new(&trace).policy(policy).cached(false);
                let reference = uncached.run_method(method).unwrap();
                prop_assert_eq!(
                    &cached, &reference,
                    "{} under {:?} diverged from reference", method, policy
                );
            }
        }
    }

    /// A dirty workspace must not leak state between runs: scheduling a
    /// second unrelated trace through the same cache+workspace pair gives
    /// the same result as a fresh workspace.
    #[test]
    fn workspace_reuse_does_not_leak_state(a in arb_trace(), b in arb_trace()) {
        let mut ws = Workspace::new();
        let cache_a = CostCache::build(&a);
        let cache_b = CostCache::build(&b);
        for method in Method::ALL {
            // warm (and dirty) the workspace on trace `a`...
            let _ = schedule_through(method, &a, &cache_a, &mut ws);
            // ...then `b` through the dirty workspace must match a cold run
            let warm = schedule_through(method, &b, &cache_b, &mut ws);
            let cold = Run::new(&b).run_method(method).unwrap();
            prop_assert_eq!(&warm, &cold, "{} leaked workspace state", method);
        }
    }

    /// Persistent-pool determinism: any pool width produces the serial
    /// schedule, for every method (index-ordered output contract).
    #[test]
    fn persistent_pool_matches_serial(trace in arb_trace(), threads in 2usize..=8) {
        for method in Method::ALL {
            let serial = Run::new(&trace).parallel(Pool::serial()).run_method(method).unwrap();
            let pool = Pool::with_threads(threads);
            let parallel = Run::new(&trace).parallel(pool).run_method(method).unwrap();
            prop_assert_eq!(
                &serial, &parallel,
                "{} with {} threads diverged from serial", method, threads
            );
            // and the parallel (unconstrained) path agrees with `schedule`
            let seq = Run::new(&trace).run_method(method).unwrap();
            prop_assert_eq!(&seq, &parallel, "{} parallel != sequential", method);
        }
    }

    /// Registry-wide conformance: every registered scheduler × every memory
    /// policy is bit-identical across the plain (cached), uncached, and
    /// parallel execution wrappers. For bounded policies the parallel
    /// wrapper runs the two-phase scheme (parallel per-datum computation,
    /// sequential capacity replay in datum order), so this pins that the
    /// two-phase replay reproduces the sequential capacity resolution
    /// exactly — not merely the same cost.
    #[test]
    fn registry_conformance_across_wrappers(trace in arb_trace(), threads in 2usize..=8) {
        for scheduler in pim_sched::registry().iter() {
            for policy in policies(&trace) {
                let cached = Run::new(&trace).policy(policy).run(scheduler);
                let uncached = Run::new(&trace).policy(policy).cached(false).run(scheduler);
                prop_assert_eq!(
                    &cached, &uncached,
                    "{} under {:?}: cached != uncached", scheduler.name(), policy
                );
                let parallel = Run::new(&trace)
                    .policy(policy)
                    .parallel(Pool::with_threads(threads))
                    .run(scheduler);
                prop_assert_eq!(
                    &cached, &parallel,
                    "{} under {:?}: parallel != cached", scheduler.name(), policy
                );
            }
        }
    }

    /// Metrics collection is pure observation: for every registered
    /// scheduler × policy × {sequential, parallel} wrapper, a run with an
    /// enabled metrics sink produces exactly the schedule the metrics-free
    /// run does — same centers, not just same cost.
    #[test]
    fn metrics_never_change_a_schedule_bit(trace in arb_trace(), threads in 2usize..=4) {
        for scheduler in pim_sched::registry().iter() {
            for policy in policies(&trace) {
                let plain = Run::new(&trace).policy(policy).run(scheduler);
                let metrics = pim_sched::Metrics::enabled();
                let observed = Run::new(&trace)
                    .policy(policy)
                    .metrics(metrics.clone())
                    .run(scheduler);
                prop_assert_eq!(
                    &plain, &observed,
                    "{} under {:?}: metrics changed the sequential schedule",
                    scheduler.name(), policy
                );
                let par_metrics = pim_sched::Metrics::enabled();
                let par_observed = Run::new(&trace)
                    .policy(policy)
                    .parallel(Pool::with_threads(threads))
                    .metrics(par_metrics.clone())
                    .run(scheduler);
                prop_assert_eq!(
                    &plain, &par_observed,
                    "{} under {:?}: metrics changed the parallel schedule",
                    scheduler.name(), policy
                );
                // the observed runs actually recorded something observable
                prop_assert!(metrics.report().enabled);
                prop_assert!(par_metrics.report().enabled);
            }
        }
    }

    /// Without an attached DAG the precedence-aware strategies *are*
    /// GOMCDS, bit for bit, across every execution wrapper — the
    /// precedence layer is invisible until `Run::dag` opts in.
    #[test]
    fn precedence_schedulers_without_a_dag_are_gomcds(
        trace in arb_trace(),
        threads in 2usize..=4,
    ) {
        for policy in policies(&trace) {
            let gomcds = Run::new(&trace).policy(policy).run_named("GOMCDS");
            for name in ["list-scds", "edf-scds"] {
                for cached in [true, false] {
                    let s = Run::new(&trace).policy(policy).cached(cached).run_named(name);
                    match (&gomcds, &s) {
                        (Ok(a), Ok(b)) => prop_assert_eq!(
                            a, b, "{} (cached={}) under {:?}", name, cached, policy
                        ),
                        (Err(_), Err(_)) => {}
                        _ => prop_assert!(
                            false,
                            "{} under {:?}: feasibility diverged from GOMCDS", name, policy
                        ),
                    }
                }
                let par = Run::new(&trace)
                    .policy(policy)
                    .parallel(Pool::with_threads(threads))
                    .run_named(name);
                match (&gomcds, &par) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(
                        a, b, "{} (parallel) under {:?}", name, policy
                    ),
                    (Err(_), Err(_)) => {}
                    _ => prop_assert!(
                        false,
                        "{} (parallel) under {:?}: feasibility diverged", name, policy
                    ),
                }
            }
        }
    }

    /// The SoA trace layout is a pure representation change: a cost cache
    /// built from the flat CSR refs drives every registered scheduler ×
    /// policy to exactly the schedule the nested-trace cache produces.
    #[test]
    fn flat_backed_cache_bit_identical(trace in arb_trace()) {
        let flat = FlatTrace::from_trace(&trace);
        for scheduler in pim_sched::registry().iter() {
            for policy in policies(&trace) {
                let classic = Run::new(&trace).policy(policy).run(scheduler);
                let cache = CostCache::build_flat(&flat);
                let mut ctx = SchedContext::with_cache(&trace, policy, cache);
                let flat_backed = scheduler.schedule(&mut ctx, &trace);
                prop_assert_eq!(
                    &classic, &flat_backed,
                    "{} under {:?}: flat-backed cache diverged", scheduler.name(), policy
                );
            }
        }
    }

    /// The flat fast paths (incremental medians + chunk-sharded fan-out +
    /// capacity replay) are bit-identical to the classic schedulers for
    /// every policy, and `flat_total_cost` charges exactly what
    /// `Schedule::evaluate` does.
    #[test]
    fn flat_fast_paths_bit_identical(trace in arb_trace(), threads in 1usize..=4) {
        let flat = FlatTrace::from_trace(&trace);
        let pool = Pool::with_threads(threads);
        for policy in policies(&trace) {
            for (method, fast) in [
                (Method::Scds, flat_scds as fn(&FlatTrace, MemoryPolicy, Pool) -> _),
                (Method::Lomcds, flat_lomcds),
                (Method::Gomcds, flat_gomcds),
            ] {
                let classic = Run::new(&trace).policy(policy).run_method(method).unwrap();
                let fast = fast(&flat, policy, pool)
                    .unwrap_or_else(|e| panic!("{method} {policy:?}: {e}"));
                prop_assert_eq!(
                    &classic, &fast,
                    "flat {} under {:?} diverged", method, policy
                );
                prop_assert_eq!(
                    flat_total_cost(&flat, &fast),
                    classic.evaluate(&trace),
                    "flat cost model diverged for {} under {:?}", method, policy
                );
            }
        }
    }

    /// Incremental window medians equal the scan-based center selection on
    /// random traces: sliding per-window sweeps and extending merged
    /// prefixes both match `median_center`, and the cache's table-free
    /// `range_median` matches the cost-table argmin it replaces.
    #[test]
    fn incremental_medians_match_scan_selection(trace in arb_trace()) {
        let grid = trace.grid();
        let cache = CostCache::build(&trace);
        let mut st = pim_sched::median::MedianState::default();
        let mut axes = Default::default();
        let mut table = Vec::new();
        for (d, rs) in trace.iter_data() {
            let dc = cache.datum(d);
            // Sliding single-window sweep.
            st.reset(&grid);
            for w in 0..trace.num_windows() {
                let refs = rs.window(w);
                for r in refs.iter() {
                    let p = grid.point_of(r.proc);
                    st.add(p.x, p.y, r.count as u64);
                }
                prop_assert_eq!(
                    st.center(&grid),
                    pim_sched::median::median_center(&grid, refs),
                    "datum {:?} window {}: sliding median diverged", d, w
                );
                prop_assert_eq!(
                    dc.range_median(w, w + 1, &mut axes),
                    dc.optimal_center_range(w, w + 1, &mut axes, &mut table).0,
                    "datum {:?} window {}: range_median != table argmin", d, w
                );
                for r in refs.iter() {
                    let p = grid.point_of(r.proc);
                    st.remove(p.x, p.y, r.count as u64);
                }
            }
            // Extending merged prefix (the SCDS shape).
            st.reset(&grid);
            for hi in 1..=trace.num_windows() {
                for r in rs.window(hi - 1).iter() {
                    let p = grid.point_of(r.proc);
                    st.add(p.x, p.y, r.count as u64);
                }
                prop_assert_eq!(
                    st.center(&grid),
                    pim_sched::median::median_center(&grid, &rs.merged_range(0, hi)),
                    "datum {:?} prefix 0..{}: extending median diverged", d, hi
                );
            }
        }
    }

    /// The pool helpers themselves: per-worker state plus repeated reuse of
    /// the long-lived workers never change the output.
    #[test]
    fn parallel_map_with_deterministic(items in proptest::collection::vec(0u64..1000, 0..200)) {
        let expect: Vec<u64> = items.iter().enumerate()
            .map(|(i, &x)| x.wrapping_mul(31).wrapping_add(i as u64))
            .collect();
        for pool in [Pool::serial(), Pool::with_threads(4), Pool::with_threads(8)] {
            let got = pim_par::parallel_map_with(
                pool,
                &items,
                Vec::<u64>::new,
                |scratch, i, &x| {
                    scratch.push(x); // per-worker state, grows across items
                    x.wrapping_mul(31).wrapping_add(i as u64)
                },
            );
            prop_assert_eq!(&got, &expect);
        }
    }
}
