//! Batch revalidation throughput at 1, 2, 4, and max worker threads.
//!
//! Two workloads:
//!
//! * **Plain batch** — the paper's Experiment 1 shape: an on-disk corpus
//!   of purchase-order documents, each valid for the Figure 1a source
//!   schema (`billTo` optional), revalidated against the Figure 2 target
//!   (`billTo` required) through one shared [`CastContext`] by the corpus
//!   pipeline. On multicore hardware the 4-thread run should exceed 2x
//!   the 1-thread run.
//! * **Edit-heavy batch** — every document arrives with an edit script
//!   (note inserts/deletes under a feed-style `(entry | note)*` model,
//!   all statically decidable), so no item applies its edits or runs the
//!   Δ-revalidation walk.
//!
//! Throughput is reported in documents per second.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use schemacast_core::CastContext;
use schemacast_engine::{default_workers, BatchEngine, CorpusOptions, CorpusSource};
use schemacast_regex::Alphabet;
use schemacast_schema::{AbstractSchema, SchemaBuilder, Session, SimpleType};
use schemacast_tree::{Doc, Edit};
use schemacast_workload::purchase_order as po;
use std::hint::black_box;

const BATCH: usize = 500;
const ITEMS_PER_DOC: usize = 40;

fn thread_counts() -> Vec<usize> {
    let max = default_workers().get();
    let mut counts = vec![1, 2, 4, max];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Root "feed" with `(entry | note)*`: entry requires a title, note is
/// simple text. Inserting or deleting a `note` anywhere is statically
/// `Safe` when both schemas use this model.
fn feed_schema(ab: &mut Alphabet) -> AbstractSchema {
    let mut b = SchemaBuilder::new(ab);
    let text = b.simple("Text", SimpleType::string()).expect("simple");
    let entry = b.declare("Entry").expect("declare");
    b.complex(entry, "(title)", &[("title", text)])
        .expect("entry model");
    let feed = b.declare("Feed").expect("declare");
    b.complex(feed, "(entry | note)*", &[("entry", entry), ("note", text)])
        .expect("feed model");
    b.root("feed", feed);
    b.finish().expect("schema")
}

/// A batch of feed documents, each paired with a statically decidable edit
/// script (alternating note inserts and note deletes).
fn edited_batch(ab: &mut Alphabet, n: usize, entries: usize) -> Vec<(Doc, Vec<Edit>)> {
    let feed = ab.intern("feed");
    let entry = ab.intern("entry");
    let title = ab.intern("title");
    let note = ab.intern("note");
    (0..n)
        .map(|i| {
            let mut doc = Doc::new(feed);
            for _ in 0..entries {
                let e = doc.add_element(doc.root(), entry);
                let t = doc.add_element(e, title);
                doc.add_text(t, "hello");
            }
            let first_note = doc.add_element(doc.root(), note);
            let edits = if i % 2 == 0 {
                vec![Edit::InsertElement {
                    parent: doc.root(),
                    position: i % entries,
                    label: note,
                }]
            } else {
                vec![Edit::DeleteLeaf { node: first_note }]
            };
            (doc, edits)
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut session = Session::new();
    let source = session.parse_xsd(&po::source_xsd()).expect("source schema");
    let target = session.parse_xsd(&po::target_xsd()).expect("target schema");
    let dir = std::env::temp_dir().join(format!("schemacast-bench-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("corpus dir");
    for i in 0..BATCH {
        let doc = po::generate_document(&mut session.alphabet, ITEMS_PER_DOC, i % 3 != 0);
        let xml = schemacast_xml::to_string(&doc.to_xml(&session.alphabet));
        std::fs::write(dir.join(format!("doc{i:05}.xml")), xml).expect("write doc");
    }
    let corpus = CorpusSource::Dir(dir.clone());
    let ctx = CastContext::new(&source, &target, &session.alphabet);
    // Pay the one-off product-IDA construction outside the timed region.
    BatchEngine::new(&ctx).warm_up();

    let mut group = c.benchmark_group("batch_throughput");
    group.throughput(Throughput::Elements(BATCH as u64));
    for workers in thread_counts() {
        let engine = BatchEngine::with_workers(&ctx, workers);
        group.bench_with_input(BenchmarkId::new("corpus", workers), &corpus, |b, corpus| {
            b.iter(|| {
                black_box(
                    engine
                        .validate_corpus(corpus, &session.alphabet, None, &CorpusOptions::default())
                        .expect("corpus run"),
                )
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);

    // Edit-heavy workload: every item carries an edit script the static
    // analyzer fully decides.
    let mut ab = Alphabet::new();
    let feed_source = feed_schema(&mut ab);
    let feed_target = feed_schema(&mut ab);
    let edited = edited_batch(&mut ab, BATCH, ITEMS_PER_DOC);
    let feed_ctx = CastContext::new(&feed_source, &feed_target, &ab);
    BatchEngine::new(&feed_ctx).warm_up();
    // The workload is meaningless if the analyzer doesn't actually decide
    // the scripts — pin that before timing anything.
    let probe = BatchEngine::new(&feed_ctx).validate_edited(&edited);
    assert_eq!(
        probe.totals.static_skips,
        edited.len(),
        "edit-heavy workload must be fully statically decided"
    );

    let mut group = c.benchmark_group("batch_throughput_edited");
    group.throughput(Throughput::Elements(BATCH as u64));
    for workers in thread_counts() {
        let engine = BatchEngine::with_workers(&feed_ctx, workers);
        group.bench_with_input(
            BenchmarkId::new("static_fastpath", workers),
            &edited,
            |b, items| b.iter(|| black_box(engine.validate_edited(items))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
