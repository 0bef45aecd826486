//! Shared plumbing: run options, span timers, medians, correctness
//! bookkeeping and the scratch directory for generated input files.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Shrink every instance to a few thousand data (smoke test only).
    pub tiny: bool,
    /// The pinned scheduling pool every layer runs on.
    pub pool: pim_par::Pool,
}

impl Opts {
    /// Deadline of the measured phase, starting now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Median of `xs` (mean of the middle pair for even lengths; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Named span timers around calls into each layer. A disabled tracer
/// (the default) runs the closure and records nothing, so the untraced
/// run pays no clock reads inside a pass.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// Turn recording on or off (samples already taken are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Run `f`, recording its wall time under `name` when enabled.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let (secs, out) = timed(f);
        self.samples.entry(name).or_default().push(secs);
        out
    }

    /// Median of the samples recorded under `name` (0 when none).
    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }

    /// Sum over spans of `name` within each pass, as a median per pass:
    /// `per_pass` is the number of samples each pass records.
    pub fn median_per_pass(&self, name: &str, per_pass: usize) -> f64 {
        let Some(v) = self.samples.get(name) else {
            return 0.0;
        };
        let sums: Vec<f64> = v.chunks(per_pass.max(1)).map(|c| c.iter().sum()).collect();
        median(&sums)
    }
}

/// Correctness bookkeeping: every checked operation is attempted once
/// and failed at most once. A failure message goes to stderr.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (scheduling calls, requests, parity checks).
    pub attempted: u64,
    /// Operations that failed, were refused or failed a check.
    pub failed: u64,
}

impl Checks {
    /// Count one operation; a false `ok` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Count one operation whose expected value is known.
    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        let ok = got == want;
        self.check(ok, || format!("{what}: got {got:?}, want {want:?}"));
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics by name (untraced run).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced run); absent names print 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Correctness bookkeeping.
    pub checks: Checks,
}

impl Outcome {
    /// Set an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}

/// Peak resident set (`VmHWM`) of this process, MB (0 if unreadable).
pub fn peak_rss_mb() -> f64 {
    pim_bench::timing::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Restart the `VmHWM` high-water mark from the current resident set, so
/// a later [`peak_rss_mb`] covers only what ran in between. A failed
/// reset is a failed check: the next reading would then include
/// everything since the process started.
pub fn reset_peak_rss(checks: &mut Checks) {
    let reset = std::fs::write("/proc/self/clear_refs", "5");
    checks.check(reset.is_ok(), || {
        format!("reset VmHWM through /proc/self/clear_refs: {reset:?}")
    });
}

/// A generated input file under the checkout's scratch directory,
/// removed when dropped.
pub struct TempFile {
    path: PathBuf,
}

impl TempFile {
    /// A fresh path named after `tag` and this process.
    pub fn new(tag: &str) -> TempFile {
        let dir = PathBuf::from(".perfbench_tmp");
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        TempFile {
            path: dir.join(format!("{tag}-{}.pimb", std::process::id())),
        }
    }

    /// The file's path, relative to the working directory.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        // Succeeds once the last file is gone.
        if let Some(dir) = self.path.parent() {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// Fewest measured passes a run takes, however long they are.
pub const MIN_PASSES: usize = 3;

/// Per-pass samples of the measured phase.
#[derive(Debug, Default)]
pub struct Passes {
    /// Set-up samples retaken after each pass, seconds.
    pub setup: Vec<f64>,
    /// Solve time of each untraced pass, seconds.
    pub solve: Vec<f64>,
    /// Simulation time of each untraced pass, seconds.
    pub sim: Vec<f64>,
    /// Solve time of each traced pass, seconds (traced run only).
    pub traced_solve: Vec<f64>,
    /// Peak resident set within each untraced pass, MB.
    pub rss: Vec<f64>,
}

impl Passes {
    /// Traced over untraced median solve time, minus one.
    pub fn overhead_frac(&self) -> f64 {
        median(&self.traced_solve) / median(&self.solve) - 1.0
    }
}

/// One untimed warm-up pass, then passes until the deadline (at least
/// [`MIN_PASSES`] untraced ones). `pass` returns its solve and simulation
/// seconds. In the traced run every second pass records spans, so the
/// untraced passes in between give the tracing overhead.
///
/// After every pass, `resetup` times the workload's set-up again and
/// pushes its samples. The host's speed drifts over seconds, so set-up
/// samples spread over the whole run give a steadier median than the
/// same number taken back to back before the passes.
pub fn run_passes(
    opts: &Opts,
    spans: &mut Spans,
    checks: &mut Checks,
    mut resetup: impl FnMut(&mut Vec<f64>),
    mut pass: impl FnMut(&mut Spans, &mut Checks) -> (f64, f64),
) -> Passes {
    let mut passes = Passes::default();
    spans.set_enabled(false);
    pass(spans, checks);
    resetup(&mut passes.setup);
    let deadline = opts.deadline();
    let mut i = 0;
    while passes.solve.len() < MIN_PASSES || Instant::now() < deadline {
        let traced = opts.trace && i % 2 == 1;
        spans.set_enabled(traced);
        reset_peak_rss(checks);
        let (solve, sim) = pass(spans, checks);
        eprintln!("pass {i}: solve {solve:.4} s, sim {sim:.4} s, traced {traced}");
        if traced {
            passes.traced_solve.push(solve);
        } else {
            passes.solve.push(solve);
            passes.sim.push(sim);
            passes.rss.push(peak_rss_mb());
        }
        resetup(&mut passes.setup);
        i += 1;
    }
    spans.set_enabled(opts.trace);
    passes
}
