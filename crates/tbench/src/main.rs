//! `tbench`: one command runs a workload and prints every metric of the
//! run's mode as one JSON object on the last line of standard output.
//!
//! ```text
//! tbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! tbench --validate
//! tbench --compare a.json b.json
//! ```

use std::path::Path;
use std::process::ExitCode;
use tbench::json::Json;
use tbench::workloads::{self, Outcome, RunSpec};
use tbench::{compare, manifest, metrics, sizes};

const USAGE: &str = "usage: tbench --workload <ingest_broad|fresh_hot|serve_mixed|cluster_edge> \
                     [--seed <u64>] [--seconds <1..60>] [--trace <0|1>]\n       \
                     tbench --validate\n       \
                     tbench --compare <a.json> <b.json>";

fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let table = Outcome::table(traced);
    let metrics = table.iter().map(|def| {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == def.name)
            .map_or(0.0, |(_, v)| *v);
        (
            def.name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(def.unit.into())),
            ]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .emit()
    .map_err(|e| e.to_string())
}

fn run_workload(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (1u64, sizes::RUN_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    let workload = workload.ok_or("no --workload given")?;
    let spec = RunSpec {
        seed,
        seconds,
        traced,
        sizes: sizes::FULL,
        scratch: workloads::default_scratch(),
    };
    let outcome =
        workloads::run(&workload, spec).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    for problem in &outcome.problems {
        eprintln!("tbench: {workload}: check failed: {problem}");
    }
    println!("{}", result_line(&outcome, traced)?);
    // A failed output check makes the run invalid, not a number.
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn validate() -> Result<ExitCode, String> {
    let m = manifest::load(Path::new("."))?;
    println!(
        "BENCHMARK.json ok: {} workloads, {} end-to-end and {} per-layer metrics, {} s per run",
        m.workloads.len(),
        m.end_to_end.len(),
        metrics::PER_LAYER.len(),
        m.run_seconds
    );
    Ok(ExitCode::SUCCESS)
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let m = manifest::load(Path::new("."))?;
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&m, &read(a)?, &read(b)?)?;
    print!("{}", compare::render(&rows));
    Ok(
        if rows.iter().any(|r| r.verdict == compare::Verdict::Worse) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        },
    )
}

fn main() -> ExitCode {
    // `cluster_edge` re-executes this binary as its workers: that role is
    // dispatched before anything else looks at the command line.
    if tcluster::maybe_run_worker(workloads::edge::app) {
        unreachable!("maybe_run_worker exits the process in worker mode");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("--validate") if args.len() == 1 => validate(),
        Some("--compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        Some(_) => run_workload(&args),
        None => Err("no arguments".into()),
    };
    done.unwrap_or_else(|e| {
        eprintln!("tbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
