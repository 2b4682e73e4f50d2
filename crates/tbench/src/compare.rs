//! `tbench --compare a.json b.json`: applies the manifest's bounds to two
//! result files (as `run.sh` writes them), metric by metric and workload
//! by workload.

use crate::json::Json;
use crate::manifest::Manifest;
use crate::stats::{median_of, spread};

/// Below this many runs per side the run-to-run spread is unknown.
const MIN_RUNS_FOR_SPREAD: usize = 4;
/// `failed ÷ attempted` may rise by this much (absolute) before it
/// counts as worse.
const FAILED_SHARE_SLACK: f64 = 0.001;

/// The verdict on one workload × metric pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is within the bound of `a`'s.
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// The runs of one side spread wider than the bound: no verdict.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (`failed_share` for the failure row).
    pub metric: String,
    /// Median of the first file's runs.
    pub a: f64,
    /// Median of the second file's runs.
    pub b: f64,
    /// How much worse `b` is, as a share of `a` (negative = better); for
    /// `failed_share`, the absolute difference.
    pub worse_by: f64,
    /// The bound applied.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The untraced results of `workload` in a results document.
fn untraced<'a>(doc: &'a Json, workload: &str) -> Vec<&'a Json> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|r| r.get("result"))
        .collect()
}

fn values(results: &[&Json], metric: &str) -> Vec<f64> {
    results
        .iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn failed_share(results: &[&Json]) -> Option<f64> {
    let sum = |key: &str| -> f64 {
        results
            .iter()
            .filter_map(|r| r.get(key).and_then(Json::as_f64))
            .sum()
    };
    let attempted = sum("attempted");
    (attempted > 0.0).then(|| sum("failed") / attempted)
}

/// Compares two result documents under `manifest`'s bounds. A pairing
/// missing from either file is an error: a comparison that silently
/// skips a metric would read as "no regression".
pub fn compare(manifest: &Manifest, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in &manifest.workloads {
        let (ra, rb) = (untraced(a, workload), untraced(b, workload));
        if ra.is_empty() || rb.is_empty() {
            return Err(format!("no untraced run of {workload} in one of the files"));
        }
        for m in &manifest.end_to_end {
            let (va, vb) = (values(&ra, &m.name), values(&rb, &m.name));
            if va.len() != ra.len() || vb.len() != rb.len() {
                return Err(format!("{workload}: a run does not report {}", m.name));
            }
            let (ma, mb) = (median_of(&va), median_of(&vb));
            if ma == 0.0 {
                return Err(format!("{workload}: {} is 0 in the base file", m.name));
            }
            let worse_by = if m.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let wide = |v: &[f64]| {
                v.len() >= MIN_RUNS_FOR_SPREAD && spread(v).is_some_and(|s| s > m.bound)
            };
            let verdict = if wide(&va) || wide(&vb) {
                Verdict::Unresolved
            } else if worse_by > m.bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                a: ma,
                b: mb,
                worse_by,
                bound: m.bound,
                verdict,
            });
        }
        let (fa, fb) = (failed_share(&ra), failed_share(&rb));
        let (Some(fa), Some(fb)) = (fa, fb) else {
            return Err(format!("{workload}: a run attempted nothing"));
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: "failed_share".into(),
            a: fa,
            b: fb,
            worse_by: fb - fa,
            bound: FAILED_SHARE_SLACK,
            verdict: if fb - fa > FAILED_SHARE_SLACK {
                Verdict::Worse
            } else {
                Verdict::Ok
            },
        });
    }
    Ok(rows)
}

/// One line per row, aligned.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<13} {:<15} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<13} {:<15} {:>14.4} {:>14.4} {:>+8.1}% {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::BoundedMetric;

    fn manifest() -> Manifest {
        Manifest {
            workloads: vec!["w".into()],
            end_to_end: vec![
                BoundedMetric {
                    name: "ops_per_s".into(),
                    higher_is_better: true,
                    bound: 0.1,
                },
                BoundedMetric {
                    name: "latency_p50_us".into(),
                    higher_is_better: false,
                    bound: 0.1,
                },
            ],
            run_seconds: 10,
        }
    }

    fn doc(runs: &[(f64, f64, u64)]) -> Json {
        Json::obj([(
            "runs",
            Json::Arr(
                runs.iter()
                    .map(|&(ops, lat, failed)| {
                        let value = |v: f64| Json::obj([("value", Json::Num(v))]);
                        Json::obj([
                            ("workload", Json::Str("w".into())),
                            ("trace", Json::Num(0.0)),
                            (
                                "result",
                                Json::obj([
                                    ("attempted", Json::Num(1000.0)),
                                    ("failed", Json::Num(failed as f64)),
                                    (
                                        "metrics",
                                        Json::obj([
                                            ("ops_per_s", value(ops)),
                                            ("latency_p50_us", value(lat)),
                                        ]),
                                    ),
                                ]),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    fn verdicts(a: &[(f64, f64, u64)], b: &[(f64, f64, u64)]) -> Vec<Verdict> {
        compare(&manifest(), &doc(a), &doc(b))
            .unwrap()
            .iter()
            .map(|r| r.verdict)
            .collect()
    }

    #[test]
    fn bounds_apply_in_the_metric_s_direction() {
        use Verdict::*;
        // Same numbers: ok everywhere.
        assert_eq!(
            verdicts(&[(100.0, 10.0, 0)], &[(100.0, 10.0, 0)]),
            [Ok, Ok, Ok]
        );
        // Throughput down 20%: worse. Latency down 20%: better, so ok.
        assert_eq!(
            verdicts(&[(100.0, 10.0, 0)], &[(80.0, 8.0, 0)]),
            [Worse, Ok, Ok]
        );
        // Throughput up, latency up 20%: worse on latency only.
        assert_eq!(
            verdicts(&[(100.0, 10.0, 0)], &[(120.0, 12.0, 0)]),
            [Ok, Worse, Ok]
        );
        // Within the bound either way.
        assert_eq!(
            verdicts(&[(100.0, 10.0, 0)], &[(95.0, 10.5, 0)]),
            [Ok, Ok, Ok]
        );
        // Failures: 2 in 1000 more is over the 0.001 slack.
        assert_eq!(
            verdicts(&[(100.0, 10.0, 0)], &[(100.0, 10.0, 2)]),
            [Ok, Ok, Worse]
        );
        assert_eq!(
            verdicts(&[(100.0, 10.0, 0)], &[(100.0, 10.0, 1)]),
            [Ok, Ok, Ok]
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_unchanged() {
        let steady = [(100.0, 10.0, 0); 5];
        let noisy = [
            (60.0, 10.0, 0),
            (80.0, 10.0, 0),
            (100.0, 10.0, 0),
            (120.0, 10.0, 0),
            (140.0, 10.0, 0),
        ];
        assert_eq!(
            verdicts(&steady, &noisy),
            [Verdict::Unresolved, Verdict::Ok, Verdict::Ok]
        );
        // Fewer than four runs: spread unknown, the medians decide.
        assert_eq!(
            verdicts(&steady[..1], &noisy[..3]),
            [Verdict::Worse, Verdict::Ok, Verdict::Ok]
        );
    }

    #[test]
    fn a_missing_pairing_is_an_error() {
        let empty = Json::obj([("runs", Json::Arr(vec![]))]);
        assert!(compare(&manifest(), &doc(&[(1.0, 1.0, 0)]), &empty).is_err());
        let text =
            render(&compare(&manifest(), &doc(&[(1.0, 1.0, 0)]), &doc(&[(1.0, 1.0, 0)])).unwrap());
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("failed_share"));
    }
}
