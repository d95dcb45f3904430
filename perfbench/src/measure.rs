//! End-to-end measurement with tracing off: CLI runs timed from process
//! start to exit, set-up repetitions, and single-thread per-document
//! latency. Every verdict any of them produces is checked against the
//! generator's known answer.

use crate::inputs::{Corpus, Docs, Inputs, Pair, WarmCache};
use crate::{median, percentile, Counters, Metric, Tally};
use schemacast_core::{CastContext, StreamScratch, StreamingCast, ValidationStats};
use schemacast_engine::{content_hash, BatchEngine, VerdictCache};
use schemacast_schema::Session;
use std::collections::HashMap;
use std::ffi::OsString;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often the CLI's peak resident set is sampled.
const RSS_POLL: Duration = Duration::from_millis(5);

/// One CLI run: wall time and peak resident set.
pub struct CliRun {
    pub elapsed: Duration,
    pub peak_kb: u64,
}

/// The `schemacast batch` arguments for a corpus, with `--cache` for the
/// warm workload.
pub fn batch_args(
    pair: &Pair,
    corpus: &Corpus,
    workers: usize,
    cache: Option<&Path>,
) -> Vec<OsString> {
    let mut args: Vec<OsString> = vec![
        "batch".into(),
        "--source".into(),
        pair.source_path.clone().into(),
        "--target".into(),
        pair.target_path.clone().into(),
        "--dir".into(),
        corpus.dir.clone().into(),
        "--threads".into(),
        workers.to_string().into(),
    ];
    if let Some(cache) = cache {
        args.extend(["--cache".into(), cache.as_os_str().to_owned()]);
    }
    args
}

/// The peak resident set (`VmHWM`) of a live process, in KiB.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs the CLI once and checks every verdict it prints. The child's
/// output is drained on its own thread and its `VmHWM` sampled on
/// another while this thread waits, so the wall time ends at exit.
pub fn run_cli(
    cli: &Path,
    args: &[OsString],
    corpus: &Corpus,
    tally: &mut Tally,
) -> Result<CliRun, String> {
    let started = Instant::now();
    let mut child = Command::new(cli)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
    let pid = child.id().to_string();
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let exited = AtomicBool::new(false);
    let (status, elapsed, out, err, peak_kb) = std::thread::scope(|scope| {
        let out = scope.spawn(move || {
            let mut buf = Vec::new();
            let _ = stdout.read_to_end(&mut buf);
            buf
        });
        let err = scope.spawn(move || {
            let mut buf = String::new();
            let _ = stderr.read_to_string(&mut buf);
            buf
        });
        let exited = &exited;
        let pid = &pid;
        let peak = scope.spawn(move || {
            let mut peak = 0;
            // ordering: SeqCst; the flag publishes nothing but itself.
            while !exited.load(Ordering::SeqCst) {
                peak = peak.max(vm_hwm_kb(pid).unwrap_or(0));
                std::thread::sleep(RSS_POLL);
            }
            peak
        });
        let status = child.wait();
        let elapsed = started.elapsed();
        exited.store(true, Ordering::SeqCst);
        (
            status,
            elapsed,
            out.join().expect("stdout reader does not panic"),
            err.join().expect("stderr reader does not panic"),
            peak.join().expect("RSS sampler does not panic"),
        )
    });
    let status = status.map_err(|e| format!("waiting for the CLI: {e}"))?;
    let n = corpus.files.len() as u64;
    tally.attempted += n;
    let any_invalid = corpus.expected.iter().any(|&v| !v);
    if status.code() != Some(i32::from(any_invalid)) {
        // A crash, a usage error, or the wrong overall verdict: no
        // document of this run counts as correct.
        eprintln!("CLI exited with {status}: {}", err.trim());
        tally.failed += n;
        return Ok(CliRun { elapsed, peak_kb });
    }
    tally.failed += check_cli_verdicts(&String::from_utf8_lossy(&out), corpus);
    Ok(CliRun { elapsed, peak_kb })
}

/// Number of corpus files whose printed verdict is missing or wrong.
fn check_cli_verdicts(stdout: &str, corpus: &Corpus) -> u64 {
    let index: HashMap<&str, usize> = corpus
        .files
        .iter()
        .enumerate()
        .map(|(i, p)| (p.to_str().expect("generated paths are UTF-8"), i))
        .collect();
    let mut seen = vec![false; corpus.files.len()];
    let mut failed = 0;
    for line in stdout.lines() {
        let Some((path, verdict)) = line.split_once(": ") else {
            continue;
        };
        let Some(&i) = index.get(path) else {
            continue;
        };
        let ok = match verdict {
            "valid" => corpus.expected[i],
            "INVALID" => !corpus.expected[i],
            _ => false,
        };
        failed += u64::from(!ok || seen[i]);
        seen[i] = true;
    }
    failed + seen.iter().filter(|&&s| !s).count() as u64
}

/// One set-up: compile both schemas, compute the relations, fingerprint
/// the context — what every CLI run does before its first document.
fn setup_once(pair: &Pair) -> f64 {
    let started = Instant::now();
    let mut session = Session::new();
    let source = session
        .parse_xsd(&pair.source)
        .expect("generated source XSD compiles");
    let target = session
        .parse_xsd(&pair.target)
        .expect("generated target XSD compiles");
    let ctx = CastContext::new(&source, &target, &session.alphabet);
    std::hint::black_box(ctx.fingerprint(&session.alphabet));
    started.elapsed().as_secs_f64()
}

/// Repeats `f` at least once, and again while another repetition of the
/// average length still fits in `budget`.
fn repeat<T>(budget: Duration, mut f: impl FnMut() -> Result<T, String>) -> Result<Vec<T>, String> {
    let started = Instant::now();
    let mut out = vec![f()?];
    while started.elapsed() * (out.len() as u32 + 1) / out.len() as u32 <= budget {
        out.push(f()?);
    }
    Ok(out)
}

/// Rounds a run is cut into. Every round spends its slices of `--seconds`
/// on set-up repetitions, timed runs and latency passes, so each
/// statistic samples the whole run rather than one stretch of it.
const ROUNDS: usize = 8;
/// Shares of `--seconds` given to set-up repetitions, timed runs and
/// latency passes.
const SETUP_SHARE: f64 = 0.3;
const THROUGHPUT_SHARE: f64 = 0.45;
const LATENCY_SHARE: f64 = 0.25;

/// Raw samples of one run.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    docs_per_s: Vec<f64>,
    peak_mb: Vec<f64>,
    /// One latency sample per document per pass, in document order.
    passes: Vec<Vec<f64>>,
}

fn rounds(
    pair: &Pair,
    seconds: f64,
    tally: &mut Tally,
    mut throughput: impl FnMut(&mut Tally) -> Result<(f64, f64), String>,
    mut latency: impl FnMut(&mut Tally, bool) -> Result<Vec<f64>, String>,
) -> Result<Samples, String> {
    let slice = |share: f64| Duration::from_secs_f64(seconds * share / ROUNDS as f64);
    let mut samples = Samples::default();
    let mut first_pass = true;
    for _ in 0..ROUNDS {
        samples
            .setup_s
            .extend(repeat(slice(SETUP_SHARE), || Ok(setup_once(pair)))?);
        for (rate, peak) in repeat(slice(THROUGHPUT_SHARE), || throughput(tally))? {
            samples.docs_per_s.push(rate);
            samples.peak_mb.push(peak);
        }
        samples.passes.extend(repeat(slice(LATENCY_SHARE), || {
            let pass = latency(tally, first_pass);
            first_pass = false;
            pass
        })?);
    }
    Ok(samples)
}

/// Measures every end-to-end metric of one workload.
pub fn end_to_end(
    inputs: &Inputs,
    warm: Option<&WarmCache>,
    cli: &Path,
    workers: usize,
    seconds: f64,
    tally: &mut Tally,
    counters: &mut Counters,
) -> Result<Vec<Metric>, String> {
    let samples = match &inputs.docs {
        Docs::Corpus(corpus) => {
            let args = batch_args(
                &inputs.pair,
                corpus,
                workers,
                warm.map(|w| w.path.as_path()),
            );
            let n = corpus.files.len() as f64;
            let run = |tally: &mut Tally| {
                if let Some(w) = warm {
                    std::fs::copy(&w.pristine, &w.path)
                        .map_err(|e| format!("restoring the cache: {e}"))?;
                }
                let run = run_cli(cli, &args, corpus, tally)?;
                Ok((n / run.elapsed.as_secs_f64(), run.peak_kb as f64 / 1024.0))
            };
            // One untimed run settles the page cache.
            run(tally)?;

            let mut session = Session::new();
            let source = session
                .parse_xsd(&inputs.pair.source)
                .expect("generated source XSD compiles");
            let target = session
                .parse_xsd(&inputs.pair.target)
                .expect("generated target XSD compiles");
            let alphabet = &session.alphabet;
            let ctx = CastContext::new(&source, &target, alphabet);
            let cache = warm.map(|w| VerdictCache::load(&w.pristine, ctx.fingerprint(alphabet), 0));
            let stream = StreamingCast::new(&ctx);
            let mut scratch = StreamScratch::default();
            let mut buf = Vec::new();
            // Single-thread latency from in-memory bytes to verdict. Cold
            // corpora time `validate_str_with` with one reused scratch;
            // the warm corpus times what a warm run does per file: hash,
            // cache lookup, and validation on a miss. Reading the file is
            // not timed.
            let latency = |tally: &mut Tally, first: bool| {
                let mut samples = Vec::with_capacity(corpus.files.len());
                for (i, path) in corpus.files.iter().enumerate() {
                    buf.clear();
                    std::fs::File::open(path)
                        .and_then(|mut f| f.read_to_end(&mut buf))
                        .map_err(|e| format!("reading {}: {e}", path.display()))?;
                    let started = Instant::now();
                    let hit = cache
                        .as_ref()
                        .and_then(|c| c.get(content_hash(&buf)))
                        .map(|entry| entry.replay().0.is_valid());
                    let verdict = match hit {
                        Some(valid) => Ok((valid, None)),
                        None => std::str::from_utf8(&buf)
                            .map_err(|e| e.to_string())
                            .and_then(|text| {
                                stream
                                    .validate_str_with(text, alphabet, &mut scratch)
                                    .map(|(out, stats)| (out.is_valid(), Some(stats)))
                                    .map_err(|e| e.to_string())
                            }),
                    };
                    samples.push(started.elapsed().as_secs_f64() * 1e6);
                    tally.attempted += 1;
                    let (valid, stats) = verdict.map_err(|e| format!("{}: {e}", path.display()))?;
                    tally.failed += u64::from(valid != corpus.expected[i]);
                    if first {
                        *counters.entry("cache_hits").or_insert(0.0) +=
                            f64::from(u8::from(hit.is_some()));
                        if let Some(stats) = stats {
                            add_stats(counters, &stats);
                        }
                    }
                }
                Ok(samples)
            };
            rounds(&inputs.pair, seconds, tally, run, latency)?
        }
        Docs::Edits(edits) => {
            let ctx = CastContext::new(&edits.source, &edits.target, &edits.session.alphabet);
            let engine = BatchEngine::with_workers(&ctx, workers);
            let n = edits.items.len() as f64;
            let run = |tally: &mut Tally| {
                let started = Instant::now();
                let report = engine.validate_edited(&edits.items);
                let rate = n / started.elapsed().as_secs_f64();
                tally.attempted += edits.items.len() as u64;
                tally.failed += report
                    .items
                    .iter()
                    .zip(&edits.expected)
                    .filter(|(item, &valid)| item.outcome.is_valid() != valid)
                    .count() as u64;
                // In process: the peak is this process's own.
                Ok((rate, vm_hwm_kb("self").unwrap_or(0) as f64 / 1024.0))
            };
            // A one-item batch at one worker runs inline: single-thread
            // latency of each item through every edit-verdict tier.
            let one = BatchEngine::with_workers(&ctx, 1);
            let latency = |tally: &mut Tally, first: bool| {
                let mut samples = Vec::with_capacity(edits.items.len());
                for (item, &want) in edits.items.iter().zip(&edits.expected) {
                    let started = Instant::now();
                    let report = one.validate_edited(std::slice::from_ref(item));
                    samples.push(started.elapsed().as_secs_f64() * 1e6);
                    tally.attempted += 1;
                    tally.failed += u64::from(report.items[0].outcome.is_valid() != want);
                    if first {
                        add_stats(counters, &report.totals);
                    }
                }
                Ok(samples)
            };
            rounds(&inputs.pair, seconds, tally, run, latency)?
        }
    };

    // On a shared VM, neighbours slow the cores by up to 2x for
    // seconds at a time, and interference only ever adds time. So each
    // timing reports the undisturbed end of its samples: the fastest run,
    // the fastest tenth of set-ups, and each document's fastest pass (the
    // passes are spread over all rounds); the latency percentiles are then
    // taken across documents.
    let docs = samples.passes[0].len();
    let latency_samples = docs * samples.passes.len();
    let mut best: Vec<f64> = (0..docs)
        .map(|i| {
            samples
                .passes
                .iter()
                .map(|p| p[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    best.sort_by(f64::total_cmp);
    let mut setup = samples.setup_s;
    setup.sort_by(f64::total_cmp);
    let fastest_run = samples.docs_per_s.iter().copied().fold(0.0, f64::max);
    Ok(vec![
        Metric::new(
            "docs_per_s",
            "docs/s",
            fastest_run,
            samples.docs_per_s.len(),
        ),
        Metric::new("setup_s", "s", percentile(&setup, 0.10), setup.len()),
        Metric::new("doc_p50_us", "us", percentile(&best, 0.50), latency_samples),
        Metric::new("doc_p99_us", "us", percentile(&best, 0.99), latency_samples),
        Metric::new(
            "peak_rss_mb",
            "MB",
            median(&samples.peak_mb),
            samples.peak_mb.len(),
        ),
    ])
}

/// Folds the deterministic validator counters into `counters`.
fn add_stats(counters: &mut Counters, stats: &ValidationStats) {
    for (name, value) in [
        ("nodes_visited", stats.nodes_visited),
        ("value_checks", stats.value_checks),
        ("subsumed_skips", stats.subsumed_skips),
        ("disjoint_rejects", stats.disjoint_rejects),
        ("ida_early_rejects", stats.ida_early_rejects),
        ("bytes_skipped", stats.bytes_skipped),
        ("tape_skip_hops", stats.tape_skip_hops),
        ("static_decided", stats.static_rejects + stats.static_skips),
        ("script_decided", stats.script_rejects + stats.script_skips),
    ] {
        *counters.entry(name).or_insert(0.0) += value as f64;
    }
}
