//! Cycle simulation of a pass's schedules, with the flit-hop parity check
//! every workload shares.

use pim_sched::schedule::Schedule;
use pim_trace::window::WindowedTrace;

use crate::common::Checks;

/// Totals of one simulated schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimTotals {
    /// Completion cycles summed over the simulated windows.
    pub cycles: u64,
    /// Flit-hops the simulator delivered.
    pub flit_hops: u64,
}

/// Clock every window of each `(trace, schedule, analytic cost)` through
/// `pim_sim::simulate_cycles`, check that the flit-hops delivered equal
/// the analytic cost, and sum the totals. The schedule may cover more
/// windows than the trace; only the trace's windows are simulated.
pub fn simulate_checked<'a>(
    runs: impl IntoIterator<Item = (&'a WindowedTrace, &'a Schedule, u64)>,
    pool: pim_par::Pool,
    checks: &mut Checks,
    what: &str,
) -> SimTotals {
    let mut totals = SimTotals::default();
    for (trace, schedule, cost) in runs {
        match pim_sim::simulate_cycles(trace, schedule, pool) {
            Ok(windows) => {
                let hops: u64 = windows.iter().map(|r| r.flit_hops).sum();
                checks.check(hops == cost, || {
                    format!("{what}: simulated {hops} flit-hops, analytic {cost}")
                });
                totals.cycles += windows.iter().map(|r| r.completion_cycle).sum::<u64>();
                totals.flit_hops += hops;
            }
            Err(e) => checks.check(false, || format!("{what} simulation: {e}")),
        }
    }
    totals
}
