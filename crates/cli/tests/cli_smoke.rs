//! End-to-end smoke tests of the `pim-cli` binary itself (spawned as a
//! process via `CARGO_BIN_EXE_pim-cli`), covering every subcommand and the
//! error paths.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pim-cli"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn compare_prints_the_paper_table_shape() {
    let (ok, stdout, _) = run(&["compare", "--bench", "1", "--size", "8"]);
    assert!(ok);
    assert!(stdout.contains("S.F."));
    assert!(stdout.contains("SCDS"));
    assert!(stdout.contains("GOMCDS"));
    assert!(stdout.contains('%'));
}

#[test]
fn run_reports_cost_breakdown() {
    let (ok, stdout, _) = run(&[
        "run",
        "--bench",
        "2",
        "--size",
        "8",
        "--method",
        "gomcds",
        "--memory",
        "unbounded",
    ]);
    assert!(ok);
    assert!(stdout.contains("GOMCDS: total"));
    assert!(stdout.contains("moves:"));
}

#[test]
fn stats_and_windows_and_explain() {
    for cmd in ["stats", "windows", "explain"] {
        let (ok, stdout, stderr) = run(&[cmd, "--bench", "5", "--size", "8"]);
        assert!(ok, "{cmd} failed: {stderr}");
        assert!(!stdout.is_empty(), "{cmd} printed nothing");
    }
}

#[test]
fn simulate_asserts_model_agreement_and_draws_heatmap() {
    let (ok, stdout, _) = run(&["simulate", "--bench", "1", "--size", "8"]);
    assert!(ok);
    assert!(stdout.contains("matches analytic cost"));
    assert!(stdout.contains("link utilization"));
}

/// A path for `name` in the tests' shared scratch directory.
fn scratch(name: &str) -> String {
    let dir = std::env::temp_dir().join("pim_cli_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_owned()
}

/// The figure after `SCDS: total` in a `run --method scds` report.
fn scds_total(stdout: &str) -> &str {
    let rest = stdout
        .split("SCDS: total ")
        .nth(1)
        .expect("an SCDS cost line");
    rest.split(' ').next().unwrap()
}

#[test]
fn export_then_reload_roundtrip() {
    let path = &scratch("trace.pimb");

    let generate = ["--bench", "3", "--size", "8"];
    let (ok, stdout, stderr) = run(&[&["export"], &generate[..], &["--out", path]].concat());
    assert!(ok, "{stderr}");
    assert!(stdout.contains("binary flat trace"), "{stdout}");

    let (ok, generated, stderr) = run(&[&["run"], &generate[..], &["--method", "scds"]].concat());
    assert!(ok, "{stderr}");
    let (ok, reloaded, stderr) = run(&["run", "--trace", path, "--method", "scds"]);
    assert!(ok, "{stderr}");
    assert!(reloaded.contains("loaded trace from"));
    assert_eq!(scds_total(&reloaded), scds_total(&generated));
    // `--flat` schedules the same file zero-copy off the mapped view.
    let (ok, mapped, stderr) = run(&["run", "--flat", "--trace", path, "--method", "scds"]);
    assert!(ok, "{stderr}");
    assert_eq!(scds_total(&mapped), scds_total(&generated));
}

#[test]
fn legacy_pimt_trace_is_rejected() {
    let path = scratch("legacy.pimt");
    let mut bytes = b"PIMT".to_vec();
    bytes.extend_from_slice(&[1, 0, 0, 0]);
    bytes.resize(64, 0);
    std::fs::write(&path, bytes).unwrap();

    let (ok, _, stderr) = run(&["run", "--trace", &path]);
    assert!(!ok);
    assert!(stderr.contains("bad magic"), "{stderr}");
}

#[test]
fn huge_window_count_is_refused_not_allocated() {
    let path = &scratch("huge_windows.pimb");
    let (ok, _, stderr) = run(&["export", "--bench", "3", "--size", "8", "--out", path]);
    assert!(ok, "{stderr}");
    // The window count sits at bytes 16..24 of the header, outside the
    // checksummed payload, so the patched file still decodes.
    let mut bytes = std::fs::read(path).unwrap();
    bytes[16..24].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
    std::fs::write(path, bytes).unwrap();
    // A typed refusal, not an allocation abort: on the classic load and
    // on the flat path that schedules the mapped file directly.
    for args in [
        &["stats", "--trace", path][..],
        &["run", "--flat", "--trace", path, "--method", "lomcds"],
    ] {
        let (ok, _, stderr) = run(args);
        assert!(!ok, "{args:?}");
        assert!(
            stderr.contains("cannot read") && stderr.contains("too sparse"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn error_paths_fail_cleanly() {
    // unknown command
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
    // bad flag value
    let (ok, _, stderr) = run(&["run", "--grid", "zero"]);
    assert!(!ok);
    assert!(stderr.contains("bad grid"));
    // export without --out
    let (ok, _, stderr) = run(&["export"]);
    assert!(!ok);
    assert!(stderr.contains("--out"));
    // compare from a trace file is rejected with an explanation
    let (ok, _, stderr) = run(&["compare", "--trace", "/nonexistent.pimb"]);
    assert!(!ok);
    assert!(stderr.contains("compare"));
    // unreadable trace file
    let (ok, _, stderr) = run(&["stats", "--trace", "/nonexistent.pimb"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn list_methods_shows_the_registry() {
    let (ok, stdout, _) = run(&["list-methods"]);
    assert!(ok);
    for name in pim_sched::registry().names() {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn list_methods_marks_parallelizable_schedulers() {
    let (ok, stdout, _) = run(&["list-methods"]);
    assert!(ok);
    assert!(stdout.contains("[parallel]"), "{stdout}");
    // the streaming policy cannot fan out — its line carries no tag
    let online = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("online"))
        .expect("online listed");
    assert!(!online.contains("[parallel]"), "{online}");
    let gomcds = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("GOMCDS "))
        .expect("GOMCDS listed");
    assert!(gomcds.contains("[parallel]"), "{gomcds}");
}

#[test]
fn threads_flag_matches_sequential_output() {
    let base = [
        "run", "--bench", "3", "--size", "8", "--method", "gomcds", "--memory", "2x",
    ];
    let (ok, sequential, stderr) = run(&base);
    assert!(ok, "{stderr}");
    let mut with_threads = base.to_vec();
    with_threads.extend_from_slice(&["--threads", "2"]);
    let (ok, parallel, stderr) = run(&with_threads);
    assert!(ok, "{stderr}");
    assert_eq!(sequential, parallel, "--threads changed the schedule");

    // compare under a bounded policy exercises the two-phase path for
    // every comparison-set scheduler
    let (ok, seq_table, stderr) = run(&["compare", "--bench", "1", "--size", "8"]);
    assert!(ok, "{stderr}");
    let (ok, par_table, stderr) =
        run(&["compare", "--bench", "1", "--size", "8", "--threads", "4"]);
    assert!(ok, "{stderr}");
    assert_eq!(seq_table, par_table, "--threads changed the compare table");
}

#[test]
fn run_accepts_any_registered_method() {
    for method in ["baseline", "online", "kcopy", "replicate", "gomcds-naive"] {
        let (ok, stdout, stderr) = run(&[
            "run",
            "--bench",
            "1",
            "--size",
            "8",
            "--method",
            method,
            "--memory",
            "unbounded",
        ]);
        assert!(ok, "{method} failed: {stderr}");
        assert!(stdout.contains("total"), "{method}: {stdout}");
    }
}

#[test]
fn unknown_method_error_names_the_value_and_options() {
    let (ok, _, stderr) = run(&["run", "--method", "magic"]);
    assert!(!ok);
    assert!(stderr.contains("unknown method 'magic'"), "{stderr}");
    assert!(stderr.contains("list-methods"), "{stderr}");
}
