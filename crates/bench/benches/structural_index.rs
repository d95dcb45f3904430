//! Stage-1 structural indexer and pull-parser microbenchmarks (MB/s) —
//! the components behind the `stream_throughput` numbers, measured in
//! isolation.
//!
//! * `build` — one SWAR classification pass producing the structural tape
//!   (a reused [`StructuralIndex`], so this is the steady-state cost: zero
//!   allocation). No validation path builds the tape; it is the reference
//!   the pull parser's skip is tested against.
//! * `pull_parse` — full tokenization through [`PullParser`], which lexes
//!   each event on demand (as `validate_str` does).
//! * `scalar_parse` — the preserved per-byte reference lexer
//!   ([`ScalarParser`]) over the same bytes; the gap to `pull_parse` is
//!   what the SWAR scans and the single-pass start tag buy the tokenizer.
//! * `pull_skip` — parse the root, then [`PullParser::skip_subtree`] every
//!   child: each skip is one depth-counting scan that stores nothing, so
//!   this approaches a single classification pass over the bytes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use schemacast_regex::Alphabet;
use schemacast_workload::purchase_order as po;
use schemacast_xml::pull::PullEvent;
use schemacast_xml::{PullParser, ScalarParser, StructuralIndex};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut alphabet = Alphabet::new();
    let n = 1000usize;
    let text = po::document_xml(&mut alphabet, n);

    let mut group = c.benchmark_group("structural_index");
    group.throughput(Throughput::Bytes(text.len() as u64));

    let mut tape = StructuralIndex::build(&text);
    assert!(tape.error().is_none(), "corpus must be well-formed");
    group.bench_with_input(BenchmarkId::new("build", n), &text, |b, t| {
        b.iter(|| {
            tape.rebuild(black_box(t));
            black_box(tape.len())
        })
    });

    group.bench_with_input(BenchmarkId::new("pull_parse", n), &text, |b, t| {
        b.iter(|| {
            let mut events = 0usize;
            for ev in PullParser::new(black_box(t)) {
                ev.expect("well-formed");
                events += 1;
            }
            black_box(events)
        })
    });

    group.bench_with_input(BenchmarkId::new("scalar_parse", n), &text, |b, t| {
        b.iter(|| {
            let mut events = 0usize;
            for ev in ScalarParser::new(black_box(t)) {
                ev.expect("well-formed");
                events += 1;
            }
            black_box(events)
        })
    });

    group.bench_with_input(BenchmarkId::new("pull_skip", n), &text, |b, t| {
        b.iter(|| {
            let mut parser = PullParser::new(black_box(t));
            let mut skipped = 0usize;
            while let Some(ev) = parser.next() {
                if matches!(ev.expect("well-formed"), PullEvent::Start { .. }) && parser.depth() > 1
                {
                    skipped += parser.skip_subtree().expect("well-formed").hops;
                }
            }
            black_box(skipped)
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
