//! Corpus-scale streaming batch: cold vs warm throughput.
//!
//! Three series over one on-disk purchase-order corpus:
//!
//! * `cold_stream_no_cache` — the bounded-memory corpus pipeline: paths
//!   streamed through the queue, documents mmap'd, every file validated.
//! * `warm_all_hits` — the same corpus with a fully populated verdict
//!   cache: every document is hashed and replayed, none validated.
//! * `warm_after_1pct_edits` — the incremental headline: the persisted
//!   cache is reloaded each iteration after 1% of the corpus was edited,
//!   so exactly that 1% revalidates (cache load + hash + k validations).
//!
//! Throughput is documents per second; `warm_after_1pct_edits` should sit
//! close to `warm_all_hits` and far above `cold_stream_no_cache`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use schemacast_core::CastContext;
use schemacast_engine::{BatchEngine, CorpusOptions, CorpusSource, VerdictCache};
use schemacast_schema::Session;
use schemacast_workload::purchase_order as po;
use std::hint::black_box;
use std::path::PathBuf;

const DOCS: usize = 400;
/// 1% of the corpus is edited for the incremental series.
const EDITED: usize = DOCS / 100;

fn doc_name(i: usize) -> String {
    format!("doc{i:05}.xml")
}

fn build_corpus(session: &mut Session) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("schemacast-bench-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("corpus dir");
    for i in 0..DOCS {
        let xml = po::document_xml(&mut session.alphabet, 1 + i % 13);
        std::fs::write(dir.join(doc_name(i)), format!("{xml}<!-- doc {i} -->")).expect("write doc");
    }
    dir
}

fn bench(c: &mut Criterion) {
    let mut session = Session::new();
    let source = session.parse_xsd(&po::source_xsd()).expect("source schema");
    let target = session.parse_xsd(&po::target_xsd()).expect("target schema");
    let dir = build_corpus(&mut session);
    let ctx = CastContext::new(&source, &target, &session.alphabet);
    let engine = BatchEngine::new(&ctx);
    engine.warm_up();
    let fp = ctx.fingerprint(&session.alphabet);
    let corpus = CorpusSource::Dir(dir.clone());
    let opts = CorpusOptions::default();

    let mut group = c.benchmark_group("batch_corpus");
    group.throughput(Throughput::Elements(DOCS as u64));
    group.bench_function("cold_stream_no_cache", |b| {
        b.iter(|| {
            black_box(
                engine
                    .validate_corpus(&corpus, &session.alphabet, None, &opts)
                    .expect("cold run"),
            )
        })
    });

    // Populate once; every later pass over the unchanged corpus is hits.
    let mut cache = VerdictCache::empty(fp, 0);
    let populate = engine
        .validate_corpus(&corpus, &session.alphabet, Some(&mut cache), &opts)
        .expect("populate");
    assert_eq!(populate.cache_misses, DOCS);
    let check = engine
        .validate_corpus(&corpus, &session.alphabet, Some(&mut cache), &opts)
        .expect("warm run");
    assert_eq!(check.cache_hits, DOCS);
    group.bench_function("warm_all_hits", |b| {
        b.iter(|| {
            black_box(
                engine
                    .validate_corpus(&corpus, &session.alphabet, Some(&mut cache), &opts)
                    .expect("warm run"),
            )
        })
    });

    // Persist the cache, edit 1% of the corpus, and measure the realistic
    // incremental loop: load cache from disk, revalidate exactly the
    // edited files, replay the rest.
    let cache_path = dir.join("verdicts.scvc");
    cache.save(&cache_path).expect("save cache");
    for i in 0..EDITED {
        let xml = po::document_xml(&mut session.alphabet, 2 + i);
        std::fs::write(dir.join(doc_name(i)), format!("{xml}<!-- edited {i} -->"))
            .expect("rewrite doc");
    }
    let incremental = || {
        let mut cache = VerdictCache::load(&cache_path, fp, 0);
        engine
            .validate_corpus(&corpus, &session.alphabet, Some(&mut cache), &opts)
            .expect("incremental run")
    };
    assert_eq!(incremental().cache_misses, EDITED);
    group.bench_function("warm_after_1pct_edits", |b| {
        b.iter(|| black_box(incremental()))
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench);
criterion_main!(benches);
