//! Edited-batch revalidation: the static update-safety fast path must be
//! invisible in verdicts (identical to the dynamic path and to a
//! full-revalidation oracle) and visible in stats (`static_skips` /
//! `static_rejects` > 0 on workloads it can decide).

use schemacast_core::{CastContext, ModsValidator};
use schemacast_engine::{BatchEngine, ItemOutcome};
use schemacast_regex::Alphabet;
use schemacast_schema::{AbstractSchema, SchemaBuilder, Session, SimpleType};
use schemacast_tree::{DeltaDoc, Doc, Edit, NodeId};
use schemacast_workload::purchase_order as po;

/// Root "feed" with `(entry | note)*`; entry requires a title, note is
/// simple text. With `allow_note = false` the model is `entry*`.
fn feed_schema(ab: &mut Alphabet, allow_note: bool) -> AbstractSchema {
    let mut b = SchemaBuilder::new(ab);
    let text = b.simple("Text", SimpleType::string()).expect("simple");
    let entry = b.declare("Entry").expect("declare");
    b.complex(entry, "(title)", &[("title", text)])
        .expect("entry model");
    let feed = b.declare("Feed").expect("declare");
    if allow_note {
        b.complex(feed, "(entry | note)*", &[("entry", entry), ("note", text)])
            .expect("feed model");
    } else {
        b.complex(feed, "entry*", &[("entry", entry)])
            .expect("feed model");
    }
    b.root("feed", feed);
    b.finish().expect("schema")
}

fn feed_doc(ab: &mut Alphabet, entries: usize) -> Doc {
    let feed = ab.intern("feed");
    let entry = ab.intern("entry");
    let title = ab.intern("title");
    let mut doc = Doc::new(feed);
    for _ in 0..entries {
        let e = doc.add_element(doc.root(), entry);
        let t = doc.add_element(e, title);
        doc.add_text(t, "hello");
    }
    doc
}

/// A batch of note insert/delete scripts, all statically decidable when
/// source and target both allow notes.
fn note_batch(ab: &mut Alphabet, n: usize) -> Vec<(Doc, Vec<Edit>)> {
    let note = ab.intern("note");
    (0..n)
        .map(|i| {
            let doc = feed_doc(ab, 1 + i % 5);
            let edits = vec![Edit::InsertElement {
                parent: doc.root(),
                position: i % 2,
                label: note,
            }];
            (doc, edits)
        })
        .collect()
}

/// The dynamic path alone, as `validate_edited` runs it for scripts no
/// static tier decides: apply the script as an overlay on the document,
/// then run the schema-cast-with-modifications validator over the
/// Δ-encoded result.
fn dynamic_path(ctx: &CastContext<'_>, doc: &Doc, edits: &[Edit]) -> ItemOutcome {
    let mut dd = DeltaDoc::new(doc);
    if let Err(e) = dd.apply_all(edits) {
        return ItemOutcome::EditFailed(e.to_string());
    }
    if ModsValidator::new(ctx)
        .validate_with_stats(&dd)
        .0
        .is_valid()
    {
        ItemOutcome::Valid
    } else {
        ItemOutcome::Invalid
    }
}

/// Ground truth: apply the script and fully validate against the target.
fn oracle(target: &AbstractSchema, doc: &Doc, edits: &[Edit]) -> Option<bool> {
    let mut dd = DeltaDoc::new(doc);
    dd.apply_all(edits).ok()?;
    Some(target.accepts_document(&dd.committed()))
}

#[test]
fn safe_scripts_skip_statically_and_match_oracle() {
    let mut ab = Alphabet::new();
    let source = feed_schema(&mut ab, true);
    let target = feed_schema(&mut ab, true);
    let items = note_batch(&mut ab, 24);
    let ctx = CastContext::new(&source, &target, &ab);

    let fast = BatchEngine::with_workers(&ctx, 4).validate_edited(&items);
    assert_eq!(fast.totals.static_skips, items.len());
    assert_eq!(fast.totals.static_rejects, 0);
    assert!(fast.all_valid());

    for ((doc, edits), f) in items.iter().zip(&fast.items) {
        let slow = dynamic_path(&ctx, doc, edits);
        assert_eq!(f.outcome, slow, "fast path changed a verdict");
        assert_eq!(
            Some(f.outcome.is_valid()),
            oracle(&target, doc, edits),
            "fast path disagrees with apply-and-revalidate"
        );
    }
}

#[test]
fn unsafe_scripts_reject_statically() {
    let mut ab = Alphabet::new();
    let source = feed_schema(&mut ab, true);
    let target = feed_schema(&mut ab, false); // note dropped from target
    let items = note_batch(&mut ab, 12);
    let ctx = CastContext::new(&source, &target, &ab);

    let report = BatchEngine::with_workers(&ctx, 2).validate_edited(&items);
    assert_eq!(report.totals.static_rejects, items.len());
    assert_eq!(report.invalid, items.len());
    for (doc, edits) in &items {
        assert_eq!(oracle(&target, doc, edits), Some(false));
    }
}

#[test]
fn undecidable_scripts_fall_back_to_dynamic_path() {
    // billTo optional in the source, required in the target: inserting
    // billTo is position-dependent, so the analyzer must defer.
    let mut ab = Alphabet::new();
    let mk = |ab: &mut Alphabet, optional: bool| {
        let mut b = SchemaBuilder::new(ab);
        let text = b.simple("Text", SimpleType::string()).expect("simple");
        let po = b.declare("PO").expect("declare");
        let model = if optional {
            "(shipTo, billTo?, items)"
        } else {
            "(shipTo, billTo, items)"
        };
        b.complex(
            po,
            model,
            &[("shipTo", text), ("billTo", text), ("items", text)],
        )
        .expect("model");
        b.root("po", po);
        b.finish().expect("schema")
    };
    let source = mk(&mut ab, true);
    let target = mk(&mut ab, false);
    let po = ab.intern("po");
    let ship = ab.intern("shipTo");
    let bill = ab.intern("billTo");
    let items_l = ab.intern("items");

    let mut items: Vec<(Doc, Vec<Edit>)> = Vec::new();
    for good_position in [true, false] {
        let mut doc = Doc::new(po);
        for l in [ship, items_l] {
            let e = doc.add_element(doc.root(), l);
            doc.add_text(e, "v");
        }
        let position = if good_position { 1 } else { 0 };
        let edits = vec![Edit::InsertElement {
            parent: doc.root(),
            position,
            label: bill,
        }];
        items.push((doc, edits));
    }
    let ctx = CastContext::new(&source, &target, &ab);
    let report = BatchEngine::with_workers(&ctx, 2).validate_edited(&items);
    assert_eq!(report.totals.static_skips, 0);
    assert_eq!(report.totals.static_rejects, 0);
    assert_eq!(report.valid, 1);
    assert_eq!(report.invalid, 1);
    for ((doc, edits), item) in items.iter().zip(&report.items) {
        assert_eq!(Some(item.outcome.is_valid()), oracle(&target, doc, edits));
    }
}

#[test]
fn failing_scripts_become_edit_failed_items() {
    let mut ab = Alphabet::new();
    let source = feed_schema(&mut ab, true);
    let target = feed_schema(&mut ab, true);
    let doc = feed_doc(&mut ab, 2);
    // SetText on an element node fails at apply time; the shape extractor
    // refuses text edits, so the dynamic path reports the error.
    let root = doc.root();
    let items = vec![(
        doc,
        vec![Edit::SetText {
            node: root,
            text: "oops".into(),
        }],
    )];
    let ctx = CastContext::new(&source, &target, &ab);
    let report = BatchEngine::new(&ctx).validate_edited(&items);
    assert_eq!(report.edit_failed, 1);
    assert!(matches!(
        report.items[0].outcome,
        ItemOutcome::EditFailed(_)
    ));
}

#[test]
fn edited_reports_are_deterministic_across_worker_counts() {
    let mut ab = Alphabet::new();
    let source = feed_schema(&mut ab, true);
    let target = feed_schema(&mut ab, false);
    let items = note_batch(&mut ab, 30);
    let ctx = CastContext::new(&source, &target, &ab);
    let baseline = BatchEngine::with_workers(&ctx, 1).validate_edited(&items);
    for workers in [2, 4, 8] {
        let run = BatchEngine::with_workers(&ctx, workers).validate_edited(&items);
        assert_eq!(
            run.deterministic_view(),
            baseline.deterministic_view(),
            "results differ between 1 and {workers} workers"
        );
    }
}

/// Purchase orders with one script each, cycling through the three
/// edit-verdict tiers: a stray `ghost` child of an item (each edit alone is
/// unsafe, so the per-edit tier rejects), an insert into an item that the
/// same script deletes again (only the script tier sees them cancel), and
/// a new quantity (value-dependent, so both static tiers defer to Δ
/// revalidation).
fn three_tier_batch(ab: &mut Alphabet, n: usize) -> Vec<(Doc, Vec<Edit>)> {
    let ghost = ab.intern("ghost");
    (0..n)
        .map(|i| {
            let doc =
                po::generate_document_with(ab, 2 + i % 4, true, |j| 1 + ((i + j) % 98) as u32);
            // purchaseOrder → (shipTo, billTo, items); items → item*;
            // item → (productName, quantity, USPrice, shipDate?).
            let items = doc.children(doc.children(doc.root())[2]);
            let item = items[i % items.len()];
            let edits = match i % 3 {
                0 => vec![Edit::InsertElement {
                    parent: item,
                    position: 0,
                    label: ghost,
                }],
                1 => vec![
                    Edit::InsertElement {
                        parent: item,
                        position: 1,
                        label: ghost,
                    },
                    // The insert takes the next arena slot.
                    Edit::DeleteLeaf {
                        node: NodeId(doc.node_count() as u32),
                    },
                ],
                _ => vec![Edit::SetText {
                    node: doc.children(doc.children(item)[1])[0],
                    text: (40 + 20 * (i % 5)).to_string(),
                }],
            };
            (doc, edits)
        })
        .collect()
}

#[test]
fn first_use_under_contention_is_deterministic_across_worker_counts() {
    let mut session = Session::new();
    let source = session
        .parse_xsd(&po::source_maxex200_xsd())
        .expect("source");
    let target = session.parse_xsd(&po::target_xsd()).expect("target");
    let items = three_tier_batch(&mut session.alphabet, 48);
    // A fresh context per run, so every product IDA, string cast and
    // safety analysis the batch needs is first published by that run's
    // workers, racing each other.
    let run = |workers: usize| {
        let ctx = CastContext::new(&source, &target, &session.alphabet);
        let report = BatchEngine::with_workers(&ctx, workers).validate_edited(&items);
        (report, ctx.cached_ida_count())
    };
    let (baseline, idas) = run(1);

    let totals = &baseline.totals;
    assert!(
        totals.static_rejects > 0,
        "the per-edit tier decided nothing"
    );
    assert!(totals.script_skips > 0, "the script tier decided nothing");
    let dynamic = baseline
        .items
        .iter()
        .filter(|item| {
            let s = &item.stats;
            s.static_skips + s.static_rejects + s.script_skips + s.script_rejects == 0
        })
        .count();
    assert!(dynamic > 0, "no script fell back to Δ revalidation");
    assert!(baseline.valid > 0 && baseline.invalid > 0);
    for ((doc, edits), item) in items.iter().zip(&baseline.items) {
        assert_eq!(Some(item.outcome.is_valid()), oracle(&target, doc, edits));
    }

    for workers in [2, 8] {
        let (report, built) = run(workers);
        assert_eq!(
            report.deterministic_view(),
            baseline.deterministic_view(),
            "results differ between 1 and {workers} workers"
        );
        assert_eq!(built, idas, "IDAs built differ at {workers} workers");
    }
}
