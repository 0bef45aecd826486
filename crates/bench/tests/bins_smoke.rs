//! Smoke tests for the reproduction entry point: the `experiments`
//! binary's table and figure experiments must run, print the paper's
//! layout, and satisfy the headline orderings — so a broken experiment
//! harness fails CI, not the reader.

use std::process::{Command, Output};

fn spawn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("experiments {args:?} failed to spawn: {e}"))
}

fn run(args: &[&str]) -> String {
    let out = spawn(args);
    assert!(out.status.success(), "experiments {args:?} exited nonzero");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn figure1_matches_paper_prose() {
    let out = run(&["figure1"]);
    assert!(out.contains("SCDS"));
    assert!(out.contains("(1,0) (1,3) (1,0) (1,1)"), "{out}");
    assert!(out.contains("(1,0) (1,0) (1,0) (1,1)"), "{out}");
    assert!(out.contains("GOMCDS < LOMCDS < SCDS: true"), "{out}");
}

#[test]
fn table1_csv_is_well_formed_and_ordered() {
    let out = run(&["table1", "--csv"]);
    let mut lines = out.lines();
    assert_eq!(
        lines.next(),
        Some("bench,size,sf,method,comm,improvement_pct")
    );
    let mut rows = 0;
    for line in lines {
        let cols: Vec<&str> = line.split(',').collect();
        assert_eq!(cols.len(), 6, "bad row {line}");
        let sf: u64 = cols[2].parse().unwrap();
        let comm: u64 = cols[4].parse().unwrap();
        assert!(comm <= sf, "scheduler worse than baseline in {line}");
        rows += 1;
    }
    // 5 benchmarks × 3 sizes × 3 methods
    assert_eq!(rows, 45);
}

#[test]
fn table2_csv_shape() {
    let out = run(&["table2", "--csv"]);
    assert!(out.starts_with("bench,size,sf,method,comm,improvement_pct"));
    assert_eq!(out.lines().count(), 46);
    assert!(out.contains("Grouped-LOMCDS"));
}

#[test]
fn unknown_name_fails_and_lists_the_experiments() {
    let out = spawn(&["table9"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment 'table9'"), "{stderr}");
    for name in run(&[]).lines() {
        assert!(stderr.contains(name), "{name} missing from:\n{stderr}");
    }
}
