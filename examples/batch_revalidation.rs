//! Batch revalidation with the parallel engine.
//!
//! Builds the paper's purchase-order schema pair (billTo optional →
//! billTo required), writes a mixed corpus of documents to a temporary
//! directory, and revalidates it through the corpus pipeline on 1 worker
//! and on all available cores — showing that the verdicts are identical
//! while the wall-clock drops.
//!
//! Run with: `cargo run --release --example batch_revalidation`

use schemacast::core::CastContext;
use schemacast::engine::{BatchEngine, CorpusOptions, CorpusSource};
use schemacast::schema::Session;
use schemacast::workload::purchase_order as po;

fn main() {
    let mut session = Session::new();
    let source = session.parse_xsd(&po::source_xsd()).expect("source schema");
    let target = session.parse_xsd(&po::target_xsd()).expect("target schema");

    // 2000 documents, each valid for the source schema; every third one
    // omits billTo, which the target requires.
    let dir = std::env::temp_dir().join(format!("schemacast-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("corpus dir");
    for i in 0..2000 {
        let doc = po::generate_document(&mut session.alphabet, 20 + i % 80, i % 3 != 0);
        let xml = schemacast::xml::to_string(&doc.to_xml(&session.alphabet));
        std::fs::write(dir.join(format!("po{i:05}.xml")), xml).expect("write document");
    }
    let corpus = CorpusSource::Dir(dir.clone());

    // One shared context: relations and product IDAs are computed once and
    // reused by every worker.
    let ctx = CastContext::new(&source, &target, &session.alphabet);
    let run = |engine: &BatchEngine<'_, '_>| {
        engine
            .validate_corpus(&corpus, &session.alphabet, None, &CorpusOptions::default())
            .expect("corpus directory exists")
    };

    let report1 = run(&BatchEngine::with_workers(&ctx, 1));
    println!(
        "1 worker : {} docs in {:?}  ({:.0} docs/sec)  valid {} / invalid {}",
        report1.items.len(),
        report1.elapsed,
        report1.docs_per_sec(),
        report1.valid,
        report1.invalid,
    );

    let wide = BatchEngine::new(&ctx);
    wide.warm_up(); // precompute all reachable product IDAs in parallel
    let report_n = run(&wide);
    println!(
        "{} workers: {} docs in {:?}  ({:.0} docs/sec)  valid {} / invalid {}",
        report_n.workers,
        report_n.items.len(),
        report_n.elapsed,
        report_n.docs_per_sec(),
        report_n.valid,
        report_n.invalid,
    );

    assert_eq!(report1.deterministic_view(), report_n.deterministic_view());
    println!(
        "identical verdicts and stats at both worker counts; speedup {:.2}x",
        report_n.docs_per_sec() / report1.docs_per_sec()
    );
    std::fs::remove_dir_all(&dir).expect("remove corpus");
}
