//! `benchmark compare A.jsonl B.jsonl`: judges B against A, per workload
//! and end-to-end metric, with the bounds and directions `BENCHMARK.json`
//! fixes.
//!
//! Each file holds the `--out` lines of several runs (ideally ten or
//! more, on different seeds). For each metric the verdict is one of:
//!
//! * `REGRESSED` — B's median is worse than A's by more than the bound;
//! * `UNRESOLVED` — the run-to-run spread (interquartile range over
//!   median) of either side is wider than the bound, and not every B run
//!   beats every A run;
//! * `within bound` — otherwise.
//!
//! With ten or more runs on each side, runs are paired in file order and
//! B is reported as a gain only if it wins at least nine tenths of the
//! pairs and the medians differ by more than A's interquartile range.
//! Runs of the same workload and seed must also report identical
//! deterministic counters.

use crate::json::{parse_json, Json};
use crate::median;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The first and third quartiles as Python's
/// `statistics.quantiles(values, n=4)` computes them.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n < 2 {
        let v = d.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

struct Spec {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_spec(path: &str) -> Result<Vec<Spec>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Json::Arr(metrics)) = json.get("end_to_end") else {
        return Err(format!("{path}: no end_to_end list"));
    };
    metrics
        .iter()
        .map(|m| {
            Ok(Spec {
                name: m
                    .get("name")
                    .and_then(Json::str)
                    .ok_or("metric without a name")?
                    .to_owned(),
                lower_is_better: m.get("better").and_then(Json::str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::num)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// One end-to-end run from an `--out` file.
struct Run {
    workload: String,
    seed: u64,
    metrics: BTreeMap<String, f64>,
    counters: Vec<(String, Json)>,
}

fn read_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let json = parse_json(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if json.get("trace").and_then(Json::num) != Some(0.0) {
            continue;
        }
        let field = |key: &str| {
            json.get(key)
                .ok_or_else(|| format!("{path}:{}: no {key:?}", n + 1))
        };
        runs.push(Run {
            workload: field("workload")?.str().unwrap_or_default().to_owned(),
            seed: field("seed")?.num().unwrap_or(0.0) as u64,
            metrics: field("metrics")?
                .fields()
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.num()?)))
                .collect(),
            counters: field("counters")?.fields().to_vec(),
        });
    }
    Ok(runs)
}

pub fn main(mut args: impl Iterator<Item = String>) -> ExitCode {
    let (Some(a), Some(b)) = (args.next(), args.next()) else {
        eprintln!("usage: benchmark compare A.jsonl B.jsonl [--spec BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let spec_path = match (args.next().as_deref(), args.next()) {
        (None, _) => "BENCHMARK.json".to_owned(),
        (Some("--spec"), Some(p)) => p,
        _ => {
            eprintln!("usage: benchmark compare A.jsonl B.jsonl [--spec BENCHMARK.json]");
            return ExitCode::from(2);
        }
    };
    match compare(&a, &b, &spec_path) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Prints the comparison; returns whether nothing regressed, nothing was
/// unresolved, and every counter matched.
fn compare(a_path: &str, b_path: &str, spec_path: &str) -> Result<bool, String> {
    let spec = read_spec(spec_path)?;
    let (a_runs, b_runs) = (read_runs(a_path)?, read_runs(b_path)?);
    let mut workloads: Vec<&str> = a_runs.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut clean = true;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B better", "A iqr", "B iqr"
    );
    for workload in workloads {
        let a: Vec<&Run> = a_runs.iter().filter(|r| r.workload == workload).collect();
        let b: Vec<&Run> = b_runs.iter().filter(|r| r.workload == workload).collect();
        if b.is_empty() {
            println!("{workload:<18} (no runs in {b_path})");
            clean = false;
            continue;
        }
        for m in &spec {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&m.name).copied())
                    .collect()
            };
            let (av, bv) = (values(&a), values(&b));
            if av.is_empty() || bv.is_empty() {
                println!("{workload:<18} {:<12} missing", m.name);
                clean = false;
                continue;
            }
            let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
            let (ma, mb) = (median(&av), median(&bv));
            let worse_by = if m.lower_is_better {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let (sa, sb) = (spread(&av), spread(&bv));
            let b_always_better = bv.iter().all(|&y| av.iter().all(|&x| better(y, x)));
            let mut verdict = if worse_by > m.bound {
                clean = false;
                "REGRESSED".to_owned()
            } else if sa.max(sb) > m.bound && !b_always_better {
                clean = false;
                "UNRESOLVED".to_owned()
            } else {
                "within bound".to_owned()
            };
            let pairs = av.len().min(bv.len());
            if pairs >= 10 {
                let wins = av.iter().zip(&bv).filter(|(&x, &y)| better(y, x)).count();
                let (q1, q3) = quartiles(&av);
                let gain = wins * 10 >= pairs * 9 && better(mb, ma) && (mb - ma).abs() > q3 - q1;
                let _ = std::fmt::Write::write_fmt(
                    &mut verdict,
                    format_args!(
                        "; B won {wins}/{pairs} pairs{}",
                        if gain { ", a gain" } else { "" }
                    ),
                );
            }
            println!(
                "{workload:<18} {:<12} {ma:>14.6} {mb:>14.6} {:>+7.1}% {:>7.1}% {:>7.1}%  {verdict}",
                m.name,
                -100.0 * worse_by,
                100.0 * sa,
                100.0 * sb
            );
        }
        for ra in &a {
            for rb in b.iter().filter(|rb| rb.seed == ra.seed) {
                if ra.counters != rb.counters {
                    println!(
                        "{workload:<18} seed {}: deterministic counters differ",
                        ra.seed
                    );
                    clean = false;
                }
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn parses_result_lines() {
        let j = parse_json(r#"{"a": [1, -2.5e3, "x\"y"], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(
            j.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Str("x\"y".into())
            ]))
        );
        assert_eq!(j.get("b").and_then(|b| b.get("c")), Some(&Json::Bool(true)));
        assert!(parse_json("{\"a\": 1} x").is_err());
    }
}
