//! Tiny-size smoke test: every workload runs, checks its own output, and
//! prints every metric `BENCHMARK.json` names, with its unit.

use std::process::Command;

use pim_trace::json::{self, Value};

fn names(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric() {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(spec_path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
                .args(["--trace", trace, "--tiny"])
                .current_dir(env!("CARGO_TARGET_TMPDIR"))
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(
                output.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let last = stdout.lines().last().expect("some output");
            let result = json::parse(last).unwrap_or_else(|e| panic!("{e}: {last}"));
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64) > Some(0));
            let metrics = result.get("metrics").expect("metrics object");
            let wanted = names(&spec, key);
            assert_eq!(
                metrics.as_obj().map(<[_]>::len),
                Some(wanted.len()),
                "{workload} --trace {trace}: {last}"
            );
            for (name, unit) in wanted {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
            }
        }
    }
}
