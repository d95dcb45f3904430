//! The engine's core guarantee: scheduling never leaks into results.
//!
//! The same corpus must produce identical outcomes, identical per-item
//! stats, and identical totals at every worker count — plus a stress shape
//! (many small documents over many type pairs) that hammers the context's
//! pair table from all workers at once.

use schemacast_core::{CastContext, CastOptions};
use schemacast_engine::{BatchEngine, BatchReport, CorpusOptions, CorpusSource, ItemOutcome};
use schemacast_regex::Alphabet;
use schemacast_schema::{AbstractSchema, SchemaBuilder, Session, SimpleType};
use schemacast_tree::Doc;
use schemacast_workload::purchase_order as po;
use std::path::{Path, PathBuf};

/// Purchase-order schema pair plus a mixed batch: serialized documents
/// (every third one without the `billTo` the target requires), generated
/// XML, and two malformed texts.
fn po_fixture() -> (
    Session,
    AbstractSchema,
    AbstractSchema,
    Vec<Doc>,
    Vec<String>,
) {
    let mut session = Session::new();
    let source = session.parse_xsd(&po::source_xsd()).expect("source");
    let target = session.parse_xsd(&po::target_xsd()).expect("target");
    let docs: Vec<Doc> = (0..40)
        .map(|i| po::generate_document(&mut session.alphabet, 1 + i % 17, i % 3 != 2))
        .collect();
    let mut texts: Vec<String> = (0..20)
        .map(|i| po::document_xml(&mut session.alphabet, 1 + i % 9))
        .collect();
    texts.push("<purchaseOrder><shipTo></purchaseOrder>".to_string()); // malformed
    texts.push("not xml at all".to_string());
    (session, source, target, docs, texts)
}

/// A fresh scratch directory under the system temp dir; the pid and test
/// name keep concurrent test binaries apart.
fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "schemacast-determinism-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Writes each text as `dir/docNNNNN.xml`, so the sorted walk order is
/// the input order.
fn write_corpus<S: AsRef<str>>(dir: &Path, texts: &[S]) -> CorpusSource {
    for (i, text) in texts.iter().enumerate() {
        std::fs::write(dir.join(format!("doc{i:05}.xml")), text.as_ref()).expect("write doc");
    }
    CorpusSource::Dir(dir.to_path_buf())
}

fn serialize(doc: &Doc, ab: &Alphabet) -> String {
    schemacast_xml::to_string(&doc.to_xml(ab))
}

fn run(ctx: &CastContext<'_>, workers: usize, source: &CorpusSource, ab: &Alphabet) -> BatchReport {
    BatchEngine::with_workers(ctx, workers)
        .validate_corpus(source, ab, None, &CorpusOptions::default())
        .expect("corpus run")
}

#[test]
fn identical_reports_across_worker_counts() {
    let (session, source, target, docs, texts) = po_fixture();
    let ctx = CastContext::new(&source, &target, &session.alphabet);
    let dir = tmpdir("workers");
    let mixed: Vec<String> = docs
        .iter()
        .map(|d| serialize(d, &session.alphabet))
        .chain(texts)
        .collect();
    let corpus = write_corpus(&dir, &mixed);

    let baseline = run(&ctx, 1, &corpus, &session.alphabet);
    assert_eq!(baseline.items.len(), mixed.len());
    // The fixture mixes valid, invalid, and malformed inputs.
    assert!(baseline.valid > 0 && baseline.invalid > 0);
    assert_eq!(baseline.malformed, 2);

    for workers in [2, 3, 4, 8, 16] {
        let run = run(&ctx, workers, &corpus, &session.alphabet);
        assert_eq!(
            run.deterministic_view(),
            baseline.deterministic_view(),
            "results differ between 1 and {workers} workers"
        );
    }

    // Determinism also holds run-to-run at a fixed worker count.
    let again = run(&ctx, 4, &corpus, &session.alphabet);
    let once = run(&ctx, 4, &corpus, &session.alphabet);
    assert_eq!(again.deterministic_view(), once.deterministic_view());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn per_item_verdicts_match_direct_validation() {
    let (session, source, target, docs, _) = po_fixture();
    let ctx = CastContext::new(&source, &target, &session.alphabet);
    let dir = tmpdir("direct");
    let texts: Vec<String> = docs
        .iter()
        .map(|d| serialize(d, &session.alphabet))
        .collect();
    let report = run(&ctx, 0, &write_corpus(&dir, &texts), &session.alphabet);
    assert_eq!(report.items.len(), docs.len());
    for (doc, item) in docs.iter().zip(&report.items) {
        assert_eq!(item.outcome.is_valid(), ctx.validate(doc).is_valid());
        assert_eq!(item.outcome.is_valid(), target.accepts_document(doc));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Builds a schema with `n` distinct complex record types (each rooted at
/// its own label). With `wide = true` every record's `extra` child is
/// optional; the target requires it — so no record pair is subsumed or
/// disjoint and every pair needs its own product IDA.
fn many_type_schema(ab: &mut Alphabet, n: usize, wide: bool) -> AbstractSchema {
    let mut b = SchemaBuilder::new(ab);
    let text = b.simple("Text", SimpleType::string()).expect("simple");
    for i in 0..n {
        let rec = b.declare(&format!("Rec{i}")).expect("declare");
        let model = if wide {
            "(key, extra?)"
        } else {
            "(key, extra)"
        };
        b.complex(rec, model, &[("key", text), ("extra", text)])
            .expect("complex");
        b.root(&format!("rec{i}"), rec);
    }
    b.finish().expect("schema")
}

#[test]
fn stress_many_small_docs_many_type_pairs() {
    const TYPES: usize = 24;
    const DOCS: usize = 600;

    let mut ab = Alphabet::new();
    let source = many_type_schema(&mut ab, TYPES, true);
    let target = many_type_schema(&mut ab, TYPES, false);

    // Half the documents carry the `extra` child (target-valid), half do
    // not (target-invalid); they cycle through every record type so all
    // worker threads demand-build IDAs for all pairs concurrently.
    let texts: Vec<String> = (0..DOCS)
        .map(|i| {
            let extra = if i % 2 == 0 { "<extra>w</extra>" } else { "" };
            format!("<rec{0}><key>v</key>{extra}</rec{0}>", i % TYPES)
        })
        .collect();
    let dir = tmpdir("stress");
    let corpus = write_corpus(&dir, &texts);

    let ctx = CastContext::new(&source, &target, &ab);
    let report = run(&ctx, 16, &corpus, &ab);
    for (i, item) in report.items.iter().enumerate() {
        let expect = i % 2 == 0;
        assert_eq!(
            item.outcome.is_valid(),
            expect,
            "doc {i} (rec{}, extra={})",
            i % TYPES,
            expect
        );
    }
    assert_eq!(report.valid, DOCS / 2);
    assert_eq!(report.invalid, DOCS / 2);

    // Every record pair was demand-built under contention — exactly once
    // per pair observable (the pair table never republishes).
    assert_eq!(ctx.cached_ida_count(), TYPES);

    // A single-threaded rerun agrees bit for bit.
    let single = run(&ctx, 1, &corpus, &ab);
    assert_eq!(single.deterministic_view(), report.deterministic_view());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_up_precomputes_reachable_pairs_in_parallel() {
    const TYPES: usize = 24;
    let mut ab = Alphabet::new();
    let source = many_type_schema(&mut ab, TYPES, true);
    let target = many_type_schema(&mut ab, TYPES, false);
    let ctx = CastContext::new(&source, &target, &ab);
    let engine = BatchEngine::with_workers(&ctx, 8);

    assert_eq!(ctx.cached_ida_count(), 0);
    let built = engine.warm_up();
    assert_eq!(built, TYPES);
    assert_eq!(ctx.cached_ida_count(), TYPES);
    // Idempotent, and cheap the second time (all hits).
    assert_eq!(engine.warm_up(), built);
    assert_eq!(ctx.cached_ida_count(), TYPES);

    // Warm-up is disabled along with the IDA option.
    let cold = CastContext::with_options(
        &source,
        &target,
        &ab,
        CastOptions {
            use_ida: false,
            ..Default::default()
        },
    );
    assert_eq!(BatchEngine::new(&cold).warm_up(), 0);
    assert_eq!(cold.cached_ida_count(), 0);
}

#[test]
fn streaming_and_tree_agree_in_batch() {
    let (session, source, target, _, texts) = po_fixture();
    let ctx = CastContext::new(&source, &target, &session.alphabet);
    let dir = tmpdir("tree");
    let report = run(&ctx, 4, &write_corpus(&dir, &texts), &session.alphabet);
    assert_eq!(report.items.len(), texts.len());
    for (text, item) in texts.iter().zip(&report.items) {
        match &item.outcome {
            ItemOutcome::MalformedXml(_) => {
                assert!(schemacast_xml::parse_document(text).is_err());
            }
            outcome => {
                let xml = schemacast_xml::parse_document(text).expect("well-formed");
                let mut ab = session.alphabet.clone();
                let doc = Doc::from_xml(&xml.root, &mut ab, schemacast_tree::WhitespaceMode::Trim);
                assert_eq!(outcome.is_valid(), target.accepts_document(&doc));
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn certify_validates_the_preprocessing() {
    let (session, source, target, _, _) = po_fixture();
    let ctx = CastContext::new(&source, &target, &session.alphabet);
    let engine = BatchEngine::with_workers(&ctx, 4);
    let run = engine.certify();
    assert!(run.all_certified(), "diagnostics: {:#?}", run.diagnostics);
    assert!(run.report.all_valid());
    assert!(run.certs_emitted > 0);
    // The counters fold into batch-style stats totals.
    let mut totals = schemacast_core::ValidationStats::default();
    totals += run.stats();
    assert_eq!(totals.certs_emitted, run.certs_emitted);
    assert_eq!(totals.certs_checked, run.certs_checked);
    // Certification and warm-up share the pair table: re-certifying after
    // warm-up gives the same bundle.
    engine.warm_up();
    let rerun = engine.certify();
    assert_eq!(rerun.bundle, run.bundle);
}
