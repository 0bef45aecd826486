//! Benchmark traces round-trip through the `.pimb` binary container,
//! including truncation detection.

use pim_array::grid::Grid;
use pim_trace::binfmt::{encode_flat, read_flat, BinError};
use pim_trace::flat::FlatTrace;
use pim_trace::window::WindowedTrace;
use pim_workloads::{windowed, Benchmark};

/// Windowed → flat → `.pimb` bytes.
fn encode(trace: &WindowedTrace) -> Vec<u8> {
    encode_flat(&FlatTrace::from_trace(trace))
}

/// `.pimb` bytes → flat → windowed.
fn decode(bytes: &[u8]) -> Result<WindowedTrace, BinError> {
    read_flat(bytes).map(|flat| flat.to_windowed())
}

#[test]
fn every_benchmark_roundtrips() {
    let grid = Grid::new(4, 4);
    for bench in Benchmark::paper_set() {
        let (trace, _) = windowed(bench, grid, 8, 2, 1998);
        let back = decode(&encode(&trace)).unwrap_or_else(|e| panic!("{bench}: {e}"));
        assert_eq!(back, trace, "{bench}");
    }
}

#[test]
fn truncation_is_detected_not_misparsed() {
    let grid = Grid::new(4, 4);
    let (trace, _) = windowed(Benchmark::Lu, grid, 8, 2, 0);
    let buf = encode(&trace);
    // cut at several interior offsets
    for frac in [1usize, 3, 10, 2] {
        let cut = buf.len() * frac / 11;
        match decode(&buf[..cut.min(buf.len() - 1)]) {
            Err(BinError::Length { .. }) => {}
            other => panic!("cut at {cut}: expected a length error, got {other:?}"),
        }
    }
}

#[test]
fn schedules_survive_trace_roundtrip() {
    use pim_sched::{Method, Run};
    let grid = Grid::new(4, 4);
    let (trace, _) = windowed(Benchmark::CodeReverse, grid, 8, 2, 5);
    let restored = decode(&encode(&trace)).unwrap();
    // scheduling the restored trace gives bit-identical results
    let a = Run::new(&trace).run_method(Method::Gomcds).unwrap();
    let b = Run::new(&restored).run_method(Method::Gomcds).unwrap();
    assert_eq!(a, b);
}
