//! Coverage for two schema shapes outside the paper's experiments:
//!
//! * **Recursive types** (document outlines: `section(title, section*)`) —
//!   the fixpoints must converge and deep documents must validate. Deep
//!   documents, and long runs of comments or PIs, must never consume one
//!   call-stack frame per level or per construct.
//! * **1-ambiguous content models** — XML forbids them, but the abstract
//!   formalism doesn't; the paper notes the techniques still apply (only
//!   the optimality claim needs determinism). We determinize via subset
//!   construction and everything works.

use schemacast::core::{
    explain, CastContext, DtdCastValidator, FailureKind, FullValidator, LabelIndex, ModsValidator,
    StreamingCast,
};
use schemacast::engine::{BatchEngine, ItemOutcome};
use schemacast::regex::Alphabet;
use schemacast::schema::{AbstractSchema, SchemaBuilder, SimpleType};
use schemacast::tree::{DeltaDoc, Doc, Edit, NodeId};
use schemacast::xml::{PullParser, ScalarParser};

fn outline_schema(ab: &mut Alphabet, max_depth_note: bool) -> AbstractSchema {
    let mut b = SchemaBuilder::new(ab);
    let text = b.simple("Text", SimpleType::string()).unwrap();
    let section = b.declare("Section").unwrap();
    // v2 additionally allows a note at the end of every section.
    let model = if max_depth_note {
        "(title, section*, note?)"
    } else {
        "(title, section*)"
    };
    b.complex(
        section,
        model,
        &[("title", text), ("section", section), ("note", text)],
    )
    .unwrap();
    b.root("doc", section);
    b.finish().unwrap()
}

fn deep_outline(ab: &mut Alphabet, depth: usize, fanout: usize) -> Doc {
    let doc_l = ab.intern("doc");
    let section = ab.intern("section");
    let title = ab.intern("title");
    let mut d = Doc::new(doc_l);
    let t = d.add_element(d.root(), title);
    d.add_text(t, "root");
    let mut cur = d.root();
    for i in 0..depth {
        let s = d.add_element(cur, section);
        let t = d.add_element(s, title);
        d.add_text(t, format!("level {i}"));
        for _ in 0..fanout {
            let leaf = d.add_element(s, section);
            let lt = d.add_element(leaf, title);
            d.add_text(lt, "leaf");
        }
        cur = s;
    }
    d
}

#[test]
fn recursive_schema_cast_and_subsumption() {
    let mut ab = Alphabet::new();
    let v1 = outline_schema(&mut ab, false);
    let v2 = outline_schema(&mut ab, true);
    let doc = deep_outline(&mut ab, 40, 2);
    assert!(v1.accepts_document(&doc));

    // v1 ⊆ v2 (note is optional): the whole cast is one subsumption skip.
    let ctx = CastContext::new(&v1, &v2, &ab);
    let (out, stats) = ctx.validate_with_stats(&doc);
    assert!(out.is_valid());
    assert_eq!(stats.nodes_visited, 1);

    // The reverse direction requires checking (notes may be present) but
    // still accepts note-free documents.
    let ctx_rev = CastContext::new(&v2, &v1, &ab);
    assert!(ctx_rev.validate(&doc).is_valid());
}

#[test]
fn deep_documents_validate_without_issue() {
    let mut ab = Alphabet::new();
    let v1 = outline_schema(&mut ab, false);
    let v2 = outline_schema(&mut ab, true);
    // 20,000 levels deep: the full and cast validators are iterative, so
    // document depth never consumes call-stack frames.
    let doc = deep_outline(&mut ab, 20_000, 0);
    assert!(FullValidator::new(&v1).validate(&doc).is_valid());
    let ctx = CastContext::new(&v2, &v1, &ab);
    assert!(ctx.validate(&doc).is_valid());
    // A deep failure is found too (break the innermost title).
    let mut broken = deep_outline(&mut ab, 20_000, 0);
    let bogus = ab.intern("bogus");
    // Walk to the deepest section and relabel its title.
    let mut cur = broken.root();
    loop {
        let next = broken
            .children(cur)
            .iter()
            .copied()
            .find(|&c| broken.label(c) == ab.lookup("section"));
        match next {
            Some(n) => cur = n,
            None => break,
        }
    }
    let title = broken.children(cur)[0];
    broken.set_label(title, bogus);
    assert!(!FullValidator::new(&v1).validate(&broken).is_valid());
    assert!(!ctx.validate(&broken).is_valid());
}

/// The deepest `section` of a `deep_outline(.., depth, 0)` document.
fn deepest_section(doc: &Doc) -> NodeId {
    let mut cur = doc.root();
    while let Some(&next) = doc.children(cur).get(1) {
        cur = next;
    }
    cur
}

#[test]
fn every_tree_entry_point_answers_at_depth_100_000() {
    const DEPTH: usize = 100_000;
    let mut ab = Alphabet::new();
    let v1 = outline_schema(&mut ab, false);
    let v2 = outline_schema(&mut ab, true);
    let doc = deep_outline(&mut ab, DEPTH, 0);
    let deepest = deepest_section(&doc);

    assert!(FullValidator::new(&v1).validate(&doc).is_valid());
    let ctx = CastContext::new(&v1, &v2, &ab);
    assert!(ctx.validate(&doc).is_valid());
    let ctx_rev = CastContext::new(&v2, &v1, &ab);
    assert!(ctx_rev.validate(&doc).is_valid());

    assert_eq!(explain(&ctx_rev, &doc, &ab), Ok(()));
    let mut broken = doc.clone();
    let bogus = ab.intern("bogus");
    broken.set_label(broken.children(deepest)[0], bogus);
    let err = explain(&ctx_rev, &broken, &ab).unwrap_err();
    assert!(
        matches!(err.kind, FailureKind::ContentModel { .. }),
        "{err}"
    );
    assert_eq!(err.path, format!("/doc{}", "/section[1]".repeat(DEPTH)));

    let dtd = DtdCastValidator::new(&ctx_rev, ab.len()).expect("outline schemas are DTD-style");
    assert!(dtd.validate(&doc, &LabelIndex::build(&doc)).is_valid());

    let title_text = doc.children(doc.children(deepest)[0])[0];
    let edits = vec![Edit::SetText {
        node: title_text,
        text: "renamed".into(),
    }];
    let mut dd = DeltaDoc::new(doc.clone());
    dd.apply_all(&edits).expect("the edit applies");
    assert!(ModsValidator::new(&ctx_rev).validate(&dd).is_valid());
    assert_eq!(dd.committed().node_count(), dd.doc().node_count());
    let report = BatchEngine::with_workers(&ctx_rev, 1).validate_edited(&[(doc, edits)]);
    assert!(matches!(report.items[0].outcome, ItemOutcome::Valid));
}

#[test]
fn subtree_size_answers_at_depth_100_000() {
    let mut ab = Alphabet::new();
    let doc = deep_outline(&mut ab, 100_000, 0);
    assert_eq!(doc.subtree_size(doc.root()), doc.node_count());
    // The deepest section holds its title and the title's text.
    assert_eq!(doc.subtree_size(deepest_section(&doc)), 3);
}

#[test]
fn a_delta_doc_clone_at_depth_100_000_validates_like_the_original() {
    let mut ab = Alphabet::new();
    let v1 = outline_schema(&mut ab, false);
    let v2 = outline_schema(&mut ab, true);
    let doc = deep_outline(&mut ab, 100_000, 0);
    let deepest = deepest_section(&doc);
    let title_text = doc.children(doc.children(deepest)[0])[0];
    let mut dd = DeltaDoc::new(doc);
    dd.apply_all(&[Edit::SetText {
        node: title_text,
        text: "renamed".into(),
    }])
    .expect("the edit applies");
    let copy = dd.clone();
    let path = copy.doc().dewey(title_text);
    assert!(copy.trie().subtree_modified(&path));
    let ctx = CastContext::new(&v2, &v1, &ab);
    let validator = ModsValidator::new(&ctx);
    assert!(validator.validate(&dd).is_valid());
    assert!(validator.validate(&copy).is_valid());
}

/// Wraps a run of `n` copies of `markup` once in validated content and once
/// inside a skipped subtree: a cast from the outline schema with notes to
/// the one without checks the root's content but skips every `title`,
/// whose (text, text) pair is subsumed.
fn markup_runs(markup: &str, n: usize) -> [String; 2] {
    let run = markup.repeat(n);
    [
        format!("<doc><title>t</title>{run}<section><title>s</title></section></doc>"),
        format!("<doc><title>t{run}</title></doc>"),
    ]
}

#[test]
fn a_million_consecutive_comments_or_pis_cost_no_stack() {
    let mut ab = Alphabet::new();
    let v1 = outline_schema(&mut ab, false);
    let v2 = outline_schema(&mut ab, true);
    let ctx = CastContext::new(&v2, &v1, &ab);
    let cast = StreamingCast::new(&ctx);
    for markup in ["<!---->", "<?p?>"] {
        let [validated, skipped] = markup_runs(markup, 1_000_000);
        for (doc, in_skipped_subtree) in [(&validated, false), (&skipped, true)] {
            let (outcome, stats) = cast.validate_str(doc, &ab).expect("well-formed");
            assert!(outcome.is_valid(), "{markup} run");
            assert_eq!(
                stats.bytes_skipped > 1_000_000,
                in_skipped_subtree,
                "{markup} run skipped {} bytes",
                stats.bytes_skipped
            );
            let pull: Vec<_> = PullParser::new(doc).collect();
            let scalar: Vec<_> = ScalarParser::new(doc).collect();
            assert_eq!(pull, scalar, "{markup} run");
        }
    }
}

#[test]
fn ambiguous_content_models_are_supported() {
    // (a, c) | (a, d): 1-ambiguous (two a-positions reachable first) —
    // illegal in real XML/DTD, fine for the abstract formalism.
    let mut ab = Alphabet::new();
    let mk = |ab: &mut Alphabet, with_d: bool| {
        let mut b = SchemaBuilder::new(ab);
        let text = b.simple("Text", SimpleType::string()).unwrap();
        let root = b.declare("Root").unwrap();
        let model = if with_d { "(a, c) | (a, d)" } else { "(a, c)" };
        b.complex(root, model, &[("a", text), ("c", text), ("d", text)])
            .unwrap();
        b.root("r", root);
        b.finish().unwrap()
    };
    let source = mk(&mut ab, true);
    let target = mk(&mut ab, false);

    // The compiled type is flagged non-deterministic but fully functional.
    let root_ty = source.type_by_name("Root").unwrap();
    assert!(!source.type_def(root_ty).as_complex().unwrap().deterministic);

    let r = ab.lookup("r").unwrap();
    let a = ab.lookup("a").unwrap();
    let c = ab.lookup("c").unwrap();
    let d = ab.lookup("d").unwrap();
    let build = |labels: &[schemacast::regex::Sym], ab: &Alphabet| {
        let _ = ab;
        let mut doc = Doc::new(r);
        for &l in labels {
            let e = doc.add_element(doc.root(), l);
            doc.add_text(e, "v");
        }
        doc
    };
    let ac = build(&[a, c], &ab);
    let ad = build(&[a, d], &ab);
    assert!(source.accepts_document(&ac));
    assert!(source.accepts_document(&ad));

    let ctx = CastContext::new(&source, &target, &ab);
    assert!(ctx.validate(&ac).is_valid());
    assert!(!ctx.validate(&ad).is_valid());
    // And the decisions agree with ground truth.
    assert!(target.accepts_document(&ac));
    assert!(!target.accepts_document(&ad));
}
