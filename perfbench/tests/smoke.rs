//! Runs every workload at a tiny scale through the one benchmark command
//! (`python3 perfbench/run.py`, which builds what it runs) and checks the
//! result contract: every metric `BENCHMARK.json` names is reported with
//! its unit, no verdict is wrong, and the deterministic counters of two
//! runs with the same seed are identical.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::{parse_json, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn spec_metrics(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = parse_json(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = spec.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn last_line(text: &str) -> Json {
    let line = text.lines().last().expect("some output");
    parse_json(line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

/// One run; returns the printed result and the `--out` record.
fn run(workload: &str, trace: &str, out: &Path) -> (Json, Json) {
    let _ = std::fs::remove_file(out);
    let output = Command::new("python3")
        .arg("perfbench/run.py")
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .args(["--scale", "0.02", "--out"])
        .arg(out)
        .current_dir(repo_root())
        .output()
        .expect("python3 runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let record = last_line(&std::fs::read_to_string(out).expect("--out written"));
    (last_line(&stdout), record)
}

fn check(workload: &str) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (first, first_record) = run(workload, trace, &dir.join("a.jsonl"));
        let (second, second_record) = run(workload, trace, &dir.join("b.jsonl"));
        for result in [&first, &second] {
            let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(
                result.get("failed").and_then(Json::num),
                Some(0.0),
                "{workload}"
            );
            assert!(result
                .get("attempted")
                .and_then(Json::num)
                .is_some_and(|n| n >= 1.0));
            let metrics = result.get("metrics").expect("metrics");
            for (name, unit) in spec_metrics(list) {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"));
                assert_eq!(
                    m.get("unit").and_then(Json::str),
                    Some(unit.as_str()),
                    "{workload}: {name}"
                );
                assert!(
                    m.get("value").and_then(Json::num).is_some(),
                    "{workload}: {name}"
                );
            }
            assert_eq!(
                metrics.fields().len(),
                spec_metrics(list).len(),
                "{workload}: extra metrics"
            );
        }
        let counters = |record: &Json| record.get("counters").cloned().expect("counters");
        assert!(!counters(&first_record).fields().is_empty());
        assert_eq!(
            counters(&first_record),
            counters(&second_record),
            "{workload} --trace {trace}: deterministic counters differ between runs of one seed"
        );
    }
}

#[test]
fn corpus_skip() {
    check("corpus_skip");
}

#[test]
fn corpus_values() {
    check("corpus_values");
}

#[test]
fn corpus_warm() {
    check("corpus_warm");
}

#[test]
fn schema_evolution() {
    check("schema_evolution");
}

#[test]
fn edit_scripts() {
    check("edit_scripts");
}
