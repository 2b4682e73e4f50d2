//! The four workloads. Each one generates its inputs from the seed in
//! set-up, runs against the public APIs of the layers, checks its
//! outputs, and returns every metric of the run's mode by name.

pub mod edge;
pub mod fresh;
pub mod ingest;
pub mod serve;

use crate::metrics::{self, MetricDef};
use crate::sizes::Sizes;

/// What one invocation asks for.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase the sizes are scaled to.
    pub seconds: u64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Work sizes ([`crate::sizes::FULL`] outside tests).
    pub sizes: Sizes,
    /// Directory for the files a traced run leaves behind (span dumps,
    /// the checkpoint probe's log); created on demand.
    pub scratch: std::path::PathBuf,
}

impl RunSpec {
    /// Length of the measured phase in milliseconds.
    pub fn phase_ms(&self) -> u64 {
        self.seconds * self.sizes.ms_per_second
    }

    /// Amount of work for the measured phase at `per_second`.
    pub fn scaled(&self, per_second: u64) -> u64 {
        per_second * self.phase_ms() / 1_000
    }
}

/// What one invocation found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (actions, probes, requests or tuples).
    pub attempted: u64,
    /// Operations that failed (never acked, not reflected in time, shed,
    /// expired, errored or timed out).
    pub failed: u64,
    /// The mode's metrics: all of [`metrics::END_TO_END`] untraced, all
    /// of [`metrics::PER_LAYER`] traced.
    pub metrics: Vec<(&'static str, f64)>,
    /// Why `correct` is false, one line per failed check.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The table this outcome's mode must fill.
    pub fn table(traced: bool) -> &'static [MetricDef] {
        if traced {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        }
    }
}

/// Collects a run's checks and metrics.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    problems: Vec<String>,
}

impl Report {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Closes the report. A traced report is padded with 0 for every
    /// per-layer metric the workload does not touch; an untraced one must
    /// already be complete.
    pub fn finish(mut self, traced: bool, attempted: u64, failed: u64) -> Outcome {
        if traced {
            for def in metrics::PER_LAYER {
                if !self.metrics.iter().any(|(n, _)| *n == def.name) {
                    self.metrics.push((def.name, 0.0));
                }
            }
        }
        if let Err(e) = metrics::check_complete(Outcome::table(traced), &self.metrics) {
            self.problems.push(e);
        }
        for (name, value) in &self.metrics {
            if !value.is_finite() {
                self.problems.push(format!("metric {name} is not finite"));
            }
        }
        Outcome {
            correct: self.problems.is_empty(),
            attempted,
            failed,
            metrics: self.metrics,
            problems: self.problems,
        }
    }
}

/// Runs `set_up` `times` times (at least once), tearing down every
/// result but the last, and returns the last with the seconds each run
/// took: `setup_s` is their median, so one slow set-up does not move it.
pub fn repeat_set_up<T>(
    times: usize,
    mut set_up: impl FnMut() -> T,
    mut tear_down: impl FnMut(T),
) -> (T, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..times.max(1) {
        if let Some(previous) = last.take() {
            tear_down(previous);
        }
        let t0 = std::time::Instant::now();
        last = Some(set_up());
        seconds.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("set up at least once"), seconds)
}

/// Runs `workload`; `None` for an unknown name.
pub fn run(workload: &str, spec: RunSpec) -> Option<Outcome> {
    Some(match workload {
        "ingest_broad" => ingest::run(spec),
        "fresh_hot" => fresh::run(spec),
        "serve_mixed" => serve::run(spec),
        "cluster_edge" => edge::run(spec),
        _ => return None,
    })
}

/// The scratch directory of a command-line run:
/// `<CARGO_TARGET_DIR or target>/tbench`, inside the checkout and ignored
/// by git.
pub fn default_scratch() -> std::path::PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::PathBuf::from(base).join("tbench")
}

/// Writes a traced run's spans to `trace-<workload>.json` in `scratch`.
pub fn write_trace(scratch: &std::path::Path, workload: &str, spans: &[crate::trace::Span]) {
    /// Plain call spans kept in the file; probe spans are all kept.
    const MAX_CALL_SPANS: usize = 100_000;
    let path = scratch.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(scratch)
        .and_then(|()| std::fs::write(&path, crate::trace::spans_to_json(spans, MAX_CALL_SPANS)));
    if let Err(e) = written {
        eprintln!("tbench: could not write {}: {e}", path.display());
    }
}
