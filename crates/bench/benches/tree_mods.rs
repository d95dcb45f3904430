//! §3.3 at tree level: revalidation cost after point edits to a large
//! document, against full revalidation of the edited tree. The with-mods
//! validator touches the edit path plus one subsumption check per sibling;
//! full revalidation re-walks everything.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use schemacast_bench::Experiment1;
use schemacast_core::{CastOptions, FullValidator, ModsValidator};
use schemacast_tree::{DeltaDoc, Edit};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let fixture = Experiment1::fixture();
    let ctx = fixture.context(CastOptions::default());
    let mods = ModsValidator::new(&ctx);
    let full = FullValidator::new(&fixture.target);

    let mut group = c.benchmark_group("tree_mods");
    for &n in &[100usize, 1000] {
        let base = &fixture
            .docs
            .iter()
            .find(|(count, _)| *count == n)
            .expect("fixture size")
            .1;

        // One value edit deep inside the document.
        let mut dd = DeltaDoc::new(base);
        let root = dd.root();
        let items = dd.children(root)[2];
        let mid_item = dd.children(items)[n / 2];
        let qty = dd.children(mid_item)[1];
        let qty_text = dd.children(qty)[0];
        dd.apply(&Edit::SetText {
            node: qty_text,
            text: "7".into(),
        })
        .expect("edit applies");
        assert!(mods.validate(&dd).is_valid());

        group.bench_with_input(BenchmarkId::new("mods_validator", n), &dd, |b, dd| {
            b.iter(|| black_box(mods.validate(dd)))
        });
        let committed = dd.committed();
        assert!(full.validate(&committed).is_valid());
        group.bench_with_input(
            BenchmarkId::new("full_revalidation", n),
            &committed,
            |b, doc| b.iter(|| black_box(full.validate(doc))),
        );
        // The materialization cost itself, for context.
        group.bench_with_input(BenchmarkId::new("commit_tree", n), &dd, |b, dd| {
            b.iter(|| black_box(dd.committed()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
