//! Criterion bench: hop-by-hop simulation throughput, serial vs parallel
//! window processing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pim_array::grid::Grid;
use pim_par::Pool;
use pim_sched::{MemoryPolicy, Method, Run};
use pim_workloads::{windowed, Benchmark};
use std::hint::black_box;

fn bench_simulator(c: &mut Criterion) {
    let grid = Grid::new(4, 4);
    let (trace, _) = windowed(Benchmark::MatMulCode, grid, 16, 2, 1998);
    let mut run = Run::new(&trace).policy(MemoryPolicy::ScaledMinimum { factor: 2 });
    let sched = run.run_method(Method::Gomcds).unwrap();
    let mut group = c.benchmark_group("simulate");
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let pool = Pool::with_threads(threads);
                b.iter(|| {
                    black_box(pim_sim::simulate(
                        black_box(&trace),
                        black_box(&sched),
                        pool,
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
