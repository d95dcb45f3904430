//! `benchmark` — the one-command end-to-end benchmark of schemacast.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//!           [--scale F] [--work DIR] [--out FILE] [--repo DIR]
//! benchmark compare A.jsonl B.jsonl [--spec BENCHMARK.json]
//! ```
//!
//! A run generates the workload's inputs from the seed, runs them, checks
//! every verdict against the known answer, and prints the metrics; the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` measures the
//! end-to-end metrics with tracing off; `--trace 1` runs the traced
//! single-thread pass instead and prints the per-layer metrics, writing
//! the spans under `--work`. `--out` appends the run, with its
//! descriptors and deterministic counters, as one JSON line; `compare`
//! reads two such files. Corpus workloads run the `schemacast` CLI found
//! next to this executable, one child process at a time.
//!
//! Exit codes: 0 after a run (even one with wrong verdicts, which the
//! result reports), 1 when `compare` finds a regression, 2 on usage or
//! I/O errors.

mod compare;
mod inputs;
mod json;
mod layers;
mod measure;
mod trace;
mod xsd;

use inputs::{Docs, Inputs, WarmCache, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Verdicts checked and verdicts wrong (or missing) over a run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Deterministic counters: the same seed gives the same values.
pub type Counters = BTreeMap<&'static str, f64>;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// The `p`-quantile of sorted values, interpolating between closest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let rank = p * (n - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    work: PathBuf,
    out: Option<PathBuf>,
    repo: PathBuf,
}

const USAGE: &str = "usage:\n  benchmark --workload NAME --seed N --seconds S --trace 0|1 \
                     [--scale F] [--work DIR] [--out FILE] [--repo DIR]\n  \
                     benchmark compare A.jsonl B.jsonl [--spec BENCHMARK.json]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut parsed = Args {
        workload: Workload::CorpusSkip,
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: 1.0,
        work: PathBuf::from(".bench_build/perfbench"),
        out: None,
        repo: PathBuf::from("."),
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad(&format!("one of {names:?}")))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0);
                seconds.ok_or_else(|| bad("a number of seconds in (0, 600]"))?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--scale" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                parsed.scale = Some(s)
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 10.0)
                    .ok_or_else(|| bad("a scale in (0, 10]"))?;
            }
            "--work" => parsed.work = PathBuf::from(value),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            "--repo" => parsed.repo = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    parsed.seed = seed.ok_or("--seed is required")?;
    parsed.seconds = seconds.ok_or("--seconds is required")?;
    parsed.trace = trace.ok_or("--trace is required")?;
    Ok(parsed)
}

/// Removes a run's generated inputs however the run ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `corpus_warm`'s untimed preparation: a cold `--cache` run over the
/// corpus, then a seeded share of the files rewritten, then a pristine
/// copy of the cache file to restore before each warm run.
fn prepare_warm(
    cli: &Path,
    inputs: &mut Inputs,
    seed: u64,
    dir: &Path,
    workers: usize,
    tally: &mut Tally,
) -> Result<WarmCache, String> {
    let Docs::Corpus(corpus) = &mut inputs.docs else {
        unreachable!("corpus_warm has a corpus");
    };
    let warm = WarmCache {
        path: dir.join("verdicts.scvc"),
        pristine: dir.join("verdicts.pristine.scvc"),
    };
    let args = measure::batch_args(&inputs.pair, corpus, workers, Some(&warm.path));
    measure::run_cli(cli, &args, corpus, tally)?;
    inputs::rewrite_share(corpus, seed).map_err(|e| format!("rewriting the corpus: {e}"))?;
    std::fs::copy(&warm.path, &warm.pristine).map_err(|e| format!("copying the cache: {e}"))?;
    Ok(warm)
}

/// Non-blank, non-comment lines of the library crates' sources, up to
/// each file's test module: a size descriptor recorded with each run.
fn library_loc(repo: &Path) -> u64 {
    fn walk(dir: &Path, total: &mut u64) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, total);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                *total += text
                    .lines()
                    .map(str::trim)
                    .take_while(|l| !l.starts_with("#[cfg(test)]"))
                    .filter(|l| !l.is_empty() && !l.starts_with("//"))
                    .count() as u64;
            }
        }
    }
    let mut total = 0;
    walk(&repo.join("src"), &mut total);
    for entry in std::fs::read_dir(repo.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
    {
        if entry.file_name() != "bench" {
            walk(&entry.path().join("src"), &mut total);
        }
    }
    total
}

fn commit(repo: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(repo)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// A number as JSON: every digit Rust prints, never NaN or infinity.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn run(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let cli = exe.with_file_name("schemacast");
    if !cli.is_file() {
        return Err(format!(
            "the schemacast CLI is not built next to this executable ({})",
            cli.display()
        ));
    }
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let name = args.workload.name();
    let dir = args
        .work
        .join(format!("{name}-{}-{}", args.seed, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let _cleanup = RemoveOnDrop(dir.clone());

    let mut inputs = inputs::generate(args.workload, args.seed, args.scale, &dir)
        .map_err(|e| format!("generating inputs: {e}"))?;
    let mut tally = Tally::default();
    let mut counters = Counters::new();
    let warm = match args.workload {
        Workload::CorpusWarm => Some(prepare_warm(
            &cli,
            &mut inputs,
            args.seed,
            &dir,
            workers,
            &mut tally,
        )?),
        _ => None,
    };
    let documents = match &inputs.docs {
        Docs::Corpus(c) => {
            counters.insert("bytes", c.bytes as f64);
            counters.insert(
                "expected_invalid",
                c.expected.iter().filter(|&&v| !v).count() as f64,
            );
            c.files.len()
        }
        Docs::Edits(e) => {
            counters.insert(
                "expected_invalid",
                e.expected.iter().filter(|&&v| !v).count() as f64,
            );
            counters.insert(
                "edits",
                e.items.iter().map(|(_, s)| s.len()).sum::<usize>() as f64,
            );
            e.items.len()
        }
    };
    counters.insert("documents", documents as f64);

    let metrics = if args.trace {
        let trace_out = args
            .work
            .join(format!("{name}-seed{}.trace.json", args.seed));
        let m = layers::per_layer(
            &inputs,
            warm.as_ref(),
            workers,
            &dir,
            &trace_out,
            (name, args.seed),
            &mut tally,
            &mut counters,
        )?;
        println!("spans written to {}", trace_out.display());
        m
    } else {
        measure::end_to_end(
            &inputs,
            warm.as_ref(),
            &cli,
            workers,
            args.seconds,
            &mut tally,
            &mut counters,
        )?
    };

    println!(
        "{name}: seed {} · {documents} documents · {workers} worker(s) · {} verdicts checked, {} wrong",
        args.seed, tally.attempted, tally.failed
    );
    for m in &metrics {
        println!(
            "  {:<26} {:>16.6} {:<8} ({} samples)",
            m.name, m.value, m.unit, m.samples
        );
    }

    let mut metrics_json = String::new();
    let mut detailed_json = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = json_num(m.value);
        let _ = write!(
            metrics_json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
        let _ = write!(
            detailed_json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\", \"samples\": {}}}",
            m.name, m.unit, m.samples
        );
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    if let Some(out) = &args.out {
        let counters_json: Vec<String> = counters
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_num(*v)))
            .collect();
        let line = format!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"scale\": {}, \
             \"commit\": \"{}\", \"nproc\": {workers}, \"workers\": {workers}, \"library_loc\": {}, \
             \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{detailed_json}}}, \
             \"counters\": {{{}}}}}\n",
            args.seed,
            u8::from(args.trace),
            args.seconds,
            args.scale,
            commit(&args.repo),
            library_loc(&args.repo),
            tally.attempted,
            tally.failed,
            counters_json.join(", ")
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        tally.attempted, tally.failed
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("compare") {
        args.next();
        return compare::main(args);
    }
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
