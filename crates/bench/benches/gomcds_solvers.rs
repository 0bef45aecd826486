//! Criterion bench for ablation A: the naive `O(m²)` cost-graph relaxation
//! vs the `O(m)` L1 distance-transform inside GOMCDS, as the processor
//! array grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pim_array::grid::Grid;
use pim_sched::Run;
use pim_workloads::{windowed, Benchmark};
use std::hint::black_box;

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("gomcds_solver");
    group.sample_size(15);
    for dim in [4u32, 8, 16] {
        let grid = Grid::new(dim, dim);
        let (trace, _) = windowed(Benchmark::MatMul, grid, 16, 2, 1998);
        for (id, name) in [("naive", "GOMCDS-naive"), ("dt", "GOMCDS")] {
            group.bench_with_input(BenchmarkId::new(id, dim), &trace, |b, trace| {
                b.iter(|| black_box(Run::new(black_box(trace)).run_named(name).unwrap()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
