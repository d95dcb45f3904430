//! Corpus pipeline + verdict cache integration: incremental re-runs touch
//! exactly the edited files, every invalidation path goes cold, and the
//! streamed report is deterministic across worker counts and sources.

use schemacast_core::{certification_digest, CastContext, CastOptions};
use schemacast_engine::{
    BatchEngine, CacheLoad, ColdReason, CorpusOptions, CorpusSource, ItemOutcome, VerdictCache,
};
use schemacast_schema::{AbstractSchema, Session};
use schemacast_workload::purchase_order as po;
use std::path::{Path, PathBuf};

fn fixture() -> (Session, AbstractSchema, AbstractSchema) {
    let mut session = Session::new();
    let source = session.parse_xsd(&po::source_xsd()).expect("source");
    let target = session.parse_xsd(&po::target_xsd()).expect("target");
    (session, source, target)
}

/// A fresh scratch directory under the system temp dir (the workspace has
/// no tempfile dependency; names carry the pid + test name so concurrent
/// test binaries never collide).
fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("schemacast-corpus-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes `n` purchase-order documents with pairwise-distinct bytes (a
/// trailing comment embeds the index, so equal-shaped documents still get
/// distinct content hashes).
fn write_corpus(dir: &Path, session: &mut Session, n: usize) -> Vec<PathBuf> {
    (0..n)
        .map(|i| {
            let xml = po::document_xml(&mut session.alphabet, 1 + i % 7);
            let path = dir.join(format!("doc{i:04}.xml"));
            std::fs::write(&path, format!("{xml}<!-- doc {i} -->")).expect("write doc");
            path
        })
        .collect()
}

fn run(
    engine: &BatchEngine<'_, '_>,
    session: &Session,
    source: &CorpusSource,
    cache: Option<&mut VerdictCache>,
) -> schemacast_engine::BatchReport {
    engine
        .validate_corpus(source, &session.alphabet, cache, &CorpusOptions::default())
        .expect("corpus run")
}

#[test]
fn warm_rerun_validates_exactly_the_edited_files() {
    let (mut session, source, target) = fixture();
    let dir = tmpdir("incremental");
    let n = 20;
    let paths = write_corpus(&dir, &mut session, n);
    let ctx = CastContext::new(&source, &target, &session.alphabet);
    let engine = BatchEngine::with_workers(&ctx, 4);
    let fp = ctx.fingerprint(&session.alphabet);
    let cache_path = dir.join("verdicts.scvc");

    // Cold: every file is a miss, and the cache persists every verdict.
    let mut cache = VerdictCache::load(&cache_path, fp, 0);
    assert_eq!(cache.load_status(), &CacheLoad::Cold(ColdReason::NoFile));
    let cold = run(
        &engine,
        &session,
        &CorpusSource::Dir(dir.clone()),
        Some(&mut cache),
    );
    assert_eq!(cold.items.len(), n);
    assert_eq!((cold.cache_hits, cold.cache_misses), (0, n));
    assert!(cold.valid > 0, "fixture must produce real verdicts");
    cache.save(&cache_path).expect("save");

    // Edit exactly k files (distinct content, same verdict class).
    let k = 3;
    assert!(
        k > 0 && k < n,
        "anti-vacuity: the edit set must be a proper subset"
    );
    for (i, path) in paths.iter().take(k).enumerate() {
        let xml = po::document_xml(&mut session.alphabet, 2 + i);
        std::fs::write(path, format!("{xml}<!-- edited {i} -->")).expect("rewrite");
    }

    // Warm: exactly k misses, n-k hits, and the merged report matches a
    // cacheless rerun item for item.
    let mut cache = VerdictCache::load(&cache_path, fp, 0);
    assert!(matches!(cache.load_status(), CacheLoad::Warm { .. }));
    let warm = run(
        &engine,
        &session,
        &CorpusSource::Dir(dir.clone()),
        Some(&mut cache),
    );
    assert_eq!((warm.cache_hits, warm.cache_misses), (n - k, k));
    let fresh = run(&engine, &session, &CorpusSource::Dir(dir.clone()), None);
    assert_eq!((fresh.cache_hits, fresh.cache_misses), (0, n));
    for (w, f) in warm.items.iter().zip(&fresh.items) {
        assert_eq!(w.path, f.path);
        assert_eq!(w.outcome, f.outcome, "{}", w.path.display());
        assert_eq!(
            w.stats.without_clocks(),
            f.stats.without_clocks(),
            "{}",
            w.path.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One panicking document must cost one item, not the corpus: the worker
/// catches the unwind, reports the file as a per-item failure, replaces
/// its scratch state, and keeps draining the queue. Before the catch was
/// added, the panic killed the worker, poisoned the shared receiver lock,
/// and took the whole run down with it. The injected fault (a marker the
/// validator panics on before hashing) exists only in debug builds, so
/// this regression test is debug-only too.
#[cfg(debug_assertions)]
#[test]
fn panicking_validator_costs_one_item_not_the_corpus() {
    let (mut session, source, target) = fixture();
    let dir = tmpdir("panic-drain");
    let n = 12;
    let paths = write_corpus(&dir, &mut session, n);
    let victim = 5;
    assert!(victim > 0 && victim < n - 1, "fault must sit mid-corpus");
    std::fs::write(&paths[victim], "<!--corpus-panic-inject-->").expect("inject fault");

    let ctx = CastContext::new(&source, &target, &session.alphabet);
    let engine = BatchEngine::with_workers(&ctx, 4);
    let report = run(&engine, &session, &CorpusSource::Dir(dir.clone()), None);

    assert_eq!(report.items.len(), n, "the run must survive the panic");
    assert_eq!(report.read_failed, 1);
    for (i, item) in report.items.iter().enumerate() {
        assert_eq!(item.path, paths[i], "input order must be preserved");
        if i == victim {
            match &item.outcome {
                ItemOutcome::ReadFailed(msg) => assert!(
                    msg.contains("validator panicked") && msg.contains("injected corpus fault"),
                    "victim message: {msg}"
                ),
                other => panic!("victim reported {other:?}"),
            }
            assert_eq!(item.bytes, 0, "no content-derived data for the victim");
        } else {
            assert!(
                !matches!(item.outcome, ItemOutcome::ReadFailed(_)),
                "{} must get a real verdict",
                item.path.display()
            );
        }
    }

    // The panic item is transient, never cached: a warm rerun records
    // verdicts for everything else and re-hits the fault.
    let fp = ctx.fingerprint(&session.alphabet);
    let cache_path = dir.join("verdicts.scvc");
    let mut cache = VerdictCache::load(&cache_path, fp, 0);
    let cold = run(
        &engine,
        &session,
        &CorpusSource::Dir(dir.clone()),
        Some(&mut cache),
    );
    assert_eq!((cold.cache_hits, cold.cache_misses), (0, n - 1));
    cache.save(&cache_path).expect("save");
    let mut cache = VerdictCache::load(&cache_path, fp, 0);
    let warm = run(
        &engine,
        &session,
        &CorpusSource::Dir(dir.clone()),
        Some(&mut cache),
    );
    assert_eq!((warm.cache_hits, warm.cache_misses), (n - 1, 0));
    assert_eq!(warm.read_failed, 1, "the fault re-fires on the warm run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn context_change_flushes_everything() {
    let (mut session, source, target) = fixture();
    let dir = tmpdir("flush");
    let n = 8;
    write_corpus(&dir, &mut session, n);
    let ctx = CastContext::new(&source, &target, &session.alphabet);
    let engine = BatchEngine::with_workers(&ctx, 2);
    let fp = ctx.fingerprint(&session.alphabet);
    let cache_path = dir.join("verdicts.scvc");

    let mut cache = VerdictCache::load(&cache_path, fp, 0);
    run(
        &engine,
        &session,
        &CorpusSource::Dir(dir.clone()),
        Some(&mut cache),
    );
    cache.save(&cache_path).expect("save");

    // Same schemas, different cast options ⇒ different fingerprint ⇒ the
    // whole file is cold and every document revalidates.
    let ablated = CastContext::with_options(
        &source,
        &target,
        &session.alphabet,
        CastOptions {
            use_ida: false,
            ..CastOptions::default()
        },
    );
    let fp2 = ablated.fingerprint(&session.alphabet);
    assert_ne!(fp, fp2);
    let mut cache = VerdictCache::load(&cache_path, fp2, 0);
    assert_eq!(
        cache.load_status(),
        &CacheLoad::Cold(ColdReason::ContextChanged)
    );
    let engine2 = BatchEngine::with_workers(&ablated, 2);
    let rerun = run(
        &engine2,
        &session,
        &CorpusSource::Dir(dir.clone()),
        Some(&mut cache),
    );
    assert_eq!((rerun.cache_hits, rerun.cache_misses), (0, n));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn certified_runs_reject_uncertified_caches() {
    let (mut session, source, target) = fixture();
    let dir = tmpdir("certify");
    write_corpus(&dir, &mut session, 4);
    let ctx = CastContext::new(&source, &target, &session.alphabet);
    let engine = BatchEngine::with_workers(&ctx, 2);
    let fp = ctx.fingerprint(&session.alphabet);
    let cache_path = dir.join("verdicts.scvc");

    // Record verdicts under an *uncertified* run (digest 0).
    let mut cache = VerdictCache::load(&cache_path, fp, 0);
    run(
        &engine,
        &session,
        &CorpusSource::Dir(dir.clone()),
        Some(&mut cache),
    );
    cache.save(&cache_path).expect("save");

    // A --certify run computes its digest from a fresh certification and
    // must refuse the uncertified file outright.
    let cert = engine.certify();
    assert!(cert.all_certified());
    let digest = certification_digest(fp, &cert);
    assert_ne!(digest, 0);
    let certified = VerdictCache::load(&cache_path, fp, digest);
    assert_eq!(
        certified.load_status(),
        &CacheLoad::Cold(ColdReason::NotCertified)
    );

    // Once saved under the certified digest, a later identical certified
    // run warms — and corrupting a single byte makes it cold again.
    let mut cache = VerdictCache::load(&cache_path, fp, digest);
    run(
        &engine,
        &session,
        &CorpusSource::Dir(dir.clone()),
        Some(&mut cache),
    );
    cache.save(&cache_path).expect("save");
    assert!(matches!(
        VerdictCache::load(&cache_path, fp, digest).load_status(),
        CacheLoad::Warm { .. }
    ));
    let mut bytes = std::fs::read(&cache_path).expect("read cache");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&cache_path, &bytes).expect("corrupt");
    assert!(matches!(
        VerdictCache::load(&cache_path, fp, digest).load_status(),
        CacheLoad::Cold(_)
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reports_are_deterministic_across_workers_and_sources() {
    let (mut session, source, target) = fixture();
    let dir = tmpdir("determinism");
    let n = 17;
    let paths = write_corpus(&dir, &mut session, n);
    // A malformed document and a subdirectory exercise the walk order.
    let sub = dir.join("sub");
    std::fs::create_dir_all(&sub).expect("mkdir");
    std::fs::write(sub.join("bad.xml"), "<oops").expect("write");
    let ctx = CastContext::new(&source, &target, &session.alphabet);

    let baseline = run(
        &BatchEngine::with_workers(&ctx, 1),
        &session,
        &CorpusSource::Dir(dir.clone()),
        None,
    );
    assert_eq!(baseline.items.len(), n + 1);
    assert_eq!(baseline.malformed, 1);
    // Input order is the sorted walk, so the report is path-sorted here.
    let mut sorted: Vec<PathBuf> = baseline.items.iter().map(|i| i.path.clone()).collect();
    let walked = sorted.clone();
    sorted.sort();
    assert_eq!(walked, sorted);

    for workers in [2, 3, 8] {
        let report = run(
            &BatchEngine::with_workers(&ctx, workers),
            &session,
            &CorpusSource::Dir(dir.clone()),
            None,
        );
        assert_eq!(
            report.deterministic_view(),
            baseline.deterministic_view(),
            "dir walk differs between 1 and {workers} workers"
        );
    }

    // A manifest naming the same files (relative paths, comments, blank
    // lines) yields the same verdicts in manifest order.
    let manifest_path = dir.join("files.txt");
    let mut manifest = String::from("# corpus manifest\n\n");
    for path in paths.iter().rev() {
        manifest.push_str(&format!(
            "{}\n",
            path.file_name().expect("name").to_string_lossy()
        ));
    }
    std::fs::write(&manifest_path, manifest).expect("write manifest");
    let via_manifest = run(
        &BatchEngine::with_workers(&ctx, 4),
        &session,
        &CorpusSource::Manifest(manifest_path),
        None,
    );
    assert_eq!(via_manifest.items.len(), n);
    let manifest_order: Vec<PathBuf> = via_manifest.items.iter().map(|i| i.path.clone()).collect();
    let expected: Vec<PathBuf> = paths.iter().rev().cloned().collect();
    assert_eq!(manifest_order, expected, "manifest order is line order");
    for item in &via_manifest.items {
        let in_dir = baseline
            .items
            .iter()
            .find(|b| b.path == item.path)
            .expect("same file");
        assert_eq!(item.outcome, in_dir.outcome);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn read_failures_are_per_item_and_never_cached() {
    let (mut session, source, target) = fixture();
    let dir = tmpdir("readfail");
    let mut paths = write_corpus(&dir, &mut session, 3);
    paths.insert(1, dir.join("missing.xml")); // never written
    let ctx = CastContext::new(&source, &target, &session.alphabet);
    let engine = BatchEngine::with_workers(&ctx, 2);
    let fp = ctx.fingerprint(&session.alphabet);

    let mut cache = VerdictCache::empty(fp, 0);
    let report = run(
        &engine,
        &session,
        &CorpusSource::Paths(paths.clone()),
        Some(&mut cache),
    );
    assert_eq!(
        report.items.len(),
        4,
        "a missing file must not abort the run"
    );
    assert_eq!(report.read_failed, 1);
    assert!(matches!(
        report.items[1].outcome,
        ItemOutcome::ReadFailed(_)
    ));
    // Read failures are transient: they are neither hits nor misses, and
    // the cache records only the three content-derived verdicts.
    assert_eq!((report.cache_hits, report.cache_misses), (0, 3));
    assert_eq!(cache.len(), 3);

    // On a warm rerun the failure repeats (still uncached) while the
    // other three replay from the cache.
    let warm = run(
        &engine,
        &session,
        &CorpusSource::Paths(paths),
        Some(&mut cache),
    );
    assert_eq!((warm.cache_hits, warm.cache_misses), (3, 0));
    assert_eq!(warm.read_failed, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_root_is_an_error_not_an_empty_report() {
    let (session, source, target) = fixture();
    let ctx = CastContext::new(&source, &target, &session.alphabet);
    let engine = BatchEngine::new(&ctx);
    let nowhere = std::env::temp_dir().join("schemacast-no-such-corpus-dir");
    let _ = std::fs::remove_dir_all(&nowhere);
    assert!(engine
        .validate_corpus(
            &CorpusSource::Dir(nowhere.clone()),
            &session.alphabet,
            None,
            &CorpusOptions::default(),
        )
        .is_err());
    assert!(engine
        .validate_corpus(
            &CorpusSource::Manifest(nowhere.join("files.txt")),
            &session.alphabet,
            None,
            &CorpusOptions::default(),
        )
        .is_err());
}
