//! `BENCHMARK.json`: parsing and the self-check behind `tbench
//! --validate`. The rules are the driver's contract; a manifest outside
//! them is refused before a single run, so they are checked here first.

use crate::json::Json;
use crate::metrics::{self, MetricDef};
use std::path::Path;

/// Largest manifest the driver accepts.
pub const MAX_MANIFEST_BYTES: usize = 64 * 1024;
/// Largest regression bound the driver accepts.
pub const MAX_BOUND: f64 = 0.25;

/// One end-to-end metric as the manifest declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedMetric {
    /// Metric name.
    pub name: String,
    /// `true` when larger is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The parts of a validated manifest the rest of the crate uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics with their bounds.
    pub end_to_end: Vec<BoundedMetric>,
    /// Length of one measured run.
    pub run_seconds: u64,
}

/// A name: starts with a letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphanumeric())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// A unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

fn valid_path(path: &str) -> bool {
    (1..=200).contains(&path.len())
        && !path.starts_with('/')
        && path
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-' | b'/'))
        && path.split('/').all(|part| part != "..")
}

fn exact_keys(v: &Json, keys: &[&str], what: &str) -> Result<(), String> {
    let members = v
        .as_obj()
        .ok_or_else(|| format!("{what} is not an object"))?;
    for k in keys {
        if members.iter().filter(|(m, _)| m == k).count() != 1 {
            return Err(format!("{what} must have exactly one key {k:?}"));
        }
    }
    match members.iter().find(|(m, _)| !keys.contains(&m.as_str())) {
        Some((extra, _)) => Err(format!("{what} has an unknown key {extra:?}")),
        None => Ok(()),
    }
}

fn str_of<'a>(v: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{what}.{key} is not a string"))
}

fn list_of<'a>(
    doc: &'a Json,
    key: &str,
    range: std::ops::RangeInclusive<usize>,
) -> Result<&'a [Json], String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{key} is not an array"))?;
    if !range.contains(&items.len()) {
        return Err(format!(
            "{key} has {} entries, allowed {}..={}",
            items.len(),
            range.start(),
            range.end()
        ));
    }
    Ok(items)
}

fn metric_head(v: &Json, what: &str) -> Result<(String, String, bool), String> {
    let name = str_of(v, "name", what)?;
    if !valid_name(name) {
        return Err(format!("{what}: bad name {name:?}"));
    }
    let unit = str_of(v, "unit", what)?;
    if !valid_unit(unit) {
        return Err(format!("{what}: bad unit {unit:?}"));
    }
    let higher = match str_of(v, "better", what)? {
        "higher" => true,
        "lower" => false,
        other => return Err(format!("{what}: better is {other:?}")),
    };
    Ok((name.to_string(), unit.to_string(), higher))
}

fn same_as_table(
    declared: &[(String, String, bool)],
    table: &[MetricDef],
    what: &str,
) -> Result<(), String> {
    for def in table {
        match declared.iter().find(|(n, _, _)| n == def.name) {
            None => {
                return Err(format!(
                    "{what}: the benchmark prints {} but the manifest does not declare it",
                    def.name
                ))
            }
            Some((_, unit, higher)) => {
                if unit != def.unit || *higher != (def.better == metrics::Better::Higher) {
                    return Err(format!(
                        "{what}: {} is declared as {unit}/{} but printed as {}/{}",
                        def.name,
                        if *higher { "higher" } else { "lower" },
                        def.unit,
                        def.better.as_str()
                    ));
                }
            }
        }
    }
    match declared
        .iter()
        .find(|(n, _, _)| !table.iter().any(|d| d.name == n))
    {
        Some((extra, _, _)) => Err(format!(
            "{what}: the manifest declares {extra} but the benchmark does not print it"
        )),
        None => Ok(()),
    }
}

/// Validates manifest `text` against the contract and against the
/// metric tables compiled into this binary. `root`, when given, is where
/// the manifest's `paths` must exist.
pub fn validate(text: &str, root: Option<&Path>) -> Result<Manifest, String> {
    if text.len() > MAX_MANIFEST_BYTES {
        return Err(format!("manifest is {} bytes, over 64 KiB", text.len()));
    }
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    exact_keys(
        &doc,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "manifest",
    )?;

    let paths = list_of(&doc, "paths", 1..=16)?;
    for p in paths {
        let p = p.as_str().ok_or("paths entry is not a string")?;
        if !valid_path(p) {
            return Err(format!("bad path {p:?}"));
        }
        if let Some(root) = root {
            if !root.join(p).is_dir() {
                return Err(format!("path {p:?} is not a directory"));
            }
        }
    }
    let command = list_of(&doc, "command", 1..=32)?;
    for arg in command {
        let arg = arg.as_str().ok_or("command entry is not a string")?;
        if arg.len() > 200 || arg.starts_with('/') || arg.split('/').any(|part| part == "..") {
            return Err(format!("bad command argument {arg:?}"));
        }
    }
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
        .ok_or("run_seconds is not a whole number from 1 to 60")? as u64;

    let mut names: Vec<String> = Vec::new();
    let mut workloads = Vec::new();
    for w in list_of(&doc, "workloads", 2..=8)? {
        exact_keys(w, &["name", "why"], "workload")?;
        let name = str_of(w, "name", "workload")?;
        if !valid_name(name) {
            return Err(format!("bad workload name {name:?}"));
        }
        let why = str_of(w, "why", "workload")?;
        if why.is_empty() || why.chars().count() > 200 || why.contains('\n') {
            return Err(format!(
                "workload {name}: why must be one line of at most 200 characters"
            ));
        }
        names.push(name.to_string());
        workloads.push(name.to_string());
    }
    if workloads != metrics::WORKLOADS {
        return Err(format!(
            "manifest workloads {workloads:?} differ from the benchmark's {:?}",
            metrics::WORKLOADS
        ));
    }

    let mut end_to_end = Vec::new();
    let mut declared = Vec::new();
    for e in list_of(&doc, "end_to_end", 1..=16)? {
        exact_keys(e, &["name", "unit", "better", "bound"], "end_to_end metric")?;
        let head = metric_head(e, "end_to_end metric")?;
        let bound = e
            .get("bound")
            .and_then(Json::as_f64)
            .filter(|b| *b > 0.0 && *b <= MAX_BOUND)
            .ok_or_else(|| format!("{}: bound must be in (0, {MAX_BOUND}]", head.0))?;
        names.push(head.0.clone());
        end_to_end.push(BoundedMetric {
            name: head.0.clone(),
            higher_is_better: head.2,
            bound,
        });
        declared.push(head);
    }
    if !declared
        .iter()
        .any(|(n, u, higher)| n == "setup_s" && u == "s" && !higher)
    {
        return Err("end_to_end must hold setup_s with unit s, better lower".into());
    }
    same_as_table(&declared, metrics::END_TO_END, "end_to_end")?;

    let mut declared = Vec::new();
    for p in list_of(&doc, "per_layer", 1..=128)? {
        exact_keys(p, &["name", "unit", "better"], "per_layer metric")?;
        let head = metric_head(p, "per_layer metric")?;
        names.push(head.0.clone());
        declared.push(head);
    }
    same_as_table(&declared, metrics::PER_LAYER, "per_layer")?;

    names.sort_unstable();
    if let Some(pair) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("name {} is used twice", pair[0]));
    }
    Ok(Manifest {
        workloads,
        end_to_end,
        run_seconds,
    })
}

/// Reads and validates `BENCHMARK.json` in `root`.
pub fn load(root: &Path) -> Result<Manifest, String> {
    let path = root.join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    validate(&text, Some(root))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Better;

    /// A manifest generated from the tables: what `BENCHMARK.json` must
    /// look like, through the crate's own emitter.
    fn manifest_from_tables() -> Json {
        let metric = |d: &MetricDef, bound: Option<f64>| {
            let mut members = vec![
                ("name", Json::Str(d.name.into())),
                ("unit", Json::Str(d.unit.into())),
                ("better", Json::Str(d.better.as_str().into())),
            ];
            if let Some(b) = bound {
                members.push(("bound", Json::Num(b)));
            }
            Json::obj(members)
        };
        Json::obj([
            (
                "command",
                Json::Arr(vec![Json::Str("cargo".into()), Json::Str("run".into())]),
            ),
            ("paths", Json::Arr(vec![Json::Str("crates/tbench".into())])),
            ("run_seconds", Json::Num(10.0)),
            (
                "workloads",
                Json::Arr(
                    metrics::WORKLOADS
                        .iter()
                        .map(|w| {
                            Json::obj([
                                ("name", Json::Str((*w).into())),
                                ("why", Json::Str("because \"quotes\" work".into())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(
                    metrics::END_TO_END
                        .iter()
                        .map(|d| metric(d, Some(0.1)))
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Arr(metrics::PER_LAYER.iter().map(|d| metric(d, None)).collect()),
            ),
        ])
    }

    fn with(doc: &Json, key: &str, value: Json) -> String {
        let Json::Obj(members) = doc else {
            unreachable!()
        };
        Json::Obj(
            members
                .iter()
                .map(|(k, v)| (k.clone(), if k == key { value.clone() } else { v.clone() }))
                .collect(),
        )
        .emit()
        .unwrap()
    }

    #[test]
    fn emitted_manifest_round_trips_through_validate() {
        let doc = manifest_from_tables();
        let m = validate(&doc.emit().unwrap(), None).expect("generated manifest validates");
        assert_eq!(m.workloads, metrics::WORKLOADS);
        assert_eq!(m.run_seconds, 10);
        assert_eq!(m.end_to_end.len(), metrics::END_TO_END.len());
        let ops = &m.end_to_end[0];
        assert_eq!(
            (ops.name.as_str(), ops.higher_is_better, ops.bound),
            ("ops_per_s", true, 0.1)
        );
    }

    #[test]
    fn validate_refuses_what_the_contract_refuses() {
        let doc = manifest_from_tables();
        let bad = [
            with(&doc, "run_seconds", Json::Num(0.0)),
            with(&doc, "run_seconds", Json::Num(2.5)),
            with(&doc, "run_seconds", Json::Num(61.0)),
            with(&doc, "paths", Json::Arr(vec![])),
            with(&doc, "paths", Json::Arr(vec![Json::Str("/abs".into())])),
            with(&doc, "paths", Json::Arr(vec![Json::Str("a/../b".into())])),
            with(&doc, "paths", Json::Arr(vec![Json::Str("a b".into())])),
            with(&doc, "command", Json::Arr(vec![Json::Str("../x".into())])),
            with(
                &doc,
                "command",
                Json::Arr(vec![Json::Str("/bin/sh".into())]),
            ),
            with(&doc, "workloads", Json::Arr(vec![])),
            with(&doc, "per_layer", Json::Arr(vec![])),
            with(&doc, "end_to_end", Json::Arr(vec![])),
        ];
        for text in &bad {
            assert!(validate(text, None).is_err(), "accepted: {text}");
        }
        // An unknown top-level key, and a missing one.
        let Json::Obj(mut members) = doc.clone() else {
            unreachable!()
        };
        members.push(("extra".into(), Json::Null));
        assert!(validate(&Json::Obj(members.clone()).emit().unwrap(), None).is_err());
        members.truncate(3);
        assert!(validate(&Json::Obj(members).emit().unwrap(), None).is_err());
        // Over 64 KiB.
        let padded = doc.emit().unwrap() + &" ".repeat(MAX_MANIFEST_BYTES);
        assert!(validate(&padded, None).is_err());
    }

    #[test]
    fn validate_ties_the_manifest_to_the_printed_metrics() {
        let doc = manifest_from_tables();
        let e2e = |f: &dyn Fn(&mut Vec<Json>)| {
            let mut items = doc.get("end_to_end").unwrap().as_arr().unwrap().to_vec();
            f(&mut items);
            with(&doc, "end_to_end", Json::Arr(items))
        };
        let metric = |name: &str, unit: &str, better: Better, bound: f64| {
            Json::obj([
                ("name", Json::Str(name.into())),
                ("unit", Json::Str(unit.into())),
                ("better", Json::Str(better.as_str().into())),
                ("bound", Json::Num(bound)),
            ])
        };
        // Missing metric, extra metric, wrong unit, wrong direction,
        // bound over the cap, setup_s gone, a name used twice.
        let cases = [
            e2e(&|items| {
                items.remove(0);
            }),
            e2e(&|items| items.push(metric("extra_metric", "ms", Better::Lower, 0.1))),
            e2e(&|items| items[0] = metric("ops_per_s", "ms", Better::Higher, 0.1)),
            e2e(&|items| items[0] = metric("ops_per_s", "1/s", Better::Lower, 0.1)),
            e2e(&|items| items[0] = metric("ops_per_s", "1/s", Better::Higher, 0.3)),
            e2e(&|items| items.retain(|m| m.get("name").unwrap().as_str() != Some("setup_s"))),
            e2e(&|items| items.push(items[0].clone())),
        ];
        for text in &cases {
            assert!(validate(text, None).is_err(), "accepted: {text}");
        }
    }

    #[test]
    fn names_and_units_follow_the_contract() {
        for ok in [
            "a",
            "9lives",
            "tstorm.spout-pretreatment.wait_p50_us",
            "A_b.c-d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_a", ".a", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "1/s", "MiB/s", "%", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn committed_manifest_validates() {
        // The crate lives at <root>/crates/tbench.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let m = load(&root).expect("BENCHMARK.json at the repo root validates");
        assert_eq!(m.run_seconds, crate::sizes::RUN_SECONDS);
    }
}
