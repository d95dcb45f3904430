//! Property tests: the schema-cast validators agree with ground truth
//! (full validation per Definition 1) on randomly generated schema pairs,
//! documents, and edit scripts.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use schemacast::core::{
    explain, validate_explained, CastContext, CastOptions, DtdCastValidator, FullValidator,
    LabelIndex, ModsValidator,
};
use schemacast::regex::Alphabet;
use schemacast::tree::{DeltaDoc, Doc};
use schemacast::workload::synth::{
    random_edits, random_schema, sample_document, SynthConfig, SynthSchema,
};

/// Builds (source, evolved target, alphabet, source-valid doc) from seeds.
fn scenario(
    schema_seed: u64,
    evolve_steps: usize,
    doc_seed: u64,
) -> Option<(
    schemacast::schema::AbstractSchema,
    schemacast::schema::AbstractSchema,
    Alphabet,
    schemacast::tree::Doc,
)> {
    let mut rng = SmallRng::seed_from_u64(schema_seed);
    let mut synth = random_schema(&SynthConfig::default(), &mut rng);
    let original: SynthSchema = synth.clone();
    for _ in 0..evolve_steps {
        synth.evolve(&mut rng);
    }
    let mut ab = Alphabet::new();
    let source = original.build(&mut ab);
    let target = synth.build(&mut ab);
    let mut doc_rng = SmallRng::seed_from_u64(doc_seed);
    let doc = sample_document(&source, &mut ab, &mut doc_rng, 5)?;
    Some((source, target, ab, doc))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The §3.2 cast validator agrees with full validation, under every
    /// ablation configuration; `explain` walks the same tree walk, and
    /// with every pruning off the cast costs what full validation costs.
    #[test]
    fn cast_equals_full_validation(
        schema_seed in 0u64..5000,
        evolve_steps in 0usize..4,
        doc_seed in 0u64..5000,
    ) {
        let Some((source, target, ab, doc)) = scenario(schema_seed, evolve_steps, doc_seed)
        else { return Ok(()); };
        prop_assert!(source.accepts_document(&doc));
        let want = target.accepts_document(&doc);
        for opts in [
            CastOptions::default(),
            CastOptions::paper_prototype(),
            CastOptions::baseline(),
        ] {
            let ctx = CastContext::with_options(&source, &target, &ab, opts);
            let (out, stats) = ctx.validate_with_stats(&doc);
            prop_assert_eq!(out.is_valid(), want, "options {:?}", opts);
            prop_assert_eq!(explain(&ctx, &doc, &ab).is_ok(), want, "options {:?}", opts);
            match validate_explained(&ctx, &doc, &ab) {
                Ok(explained) => prop_assert_eq!(explained, stats, "options {:?}", opts),
                Err(failure) => prop_assert!(
                    resolves_to_element(&doc, &ab, &failure.path),
                    "options {:?}: path {}", opts, failure.path
                ),
            }
            if opts == CastOptions::baseline() {
                let (_, mut full) = FullValidator::new(&target).validate_with_stats(&doc);
                full.full_validations = stats.full_validations;
                prop_assert_eq!(full, stats);
            }
        }
    }

    /// The §3.3 with-modifications validator agrees with full validation of
    /// the materialized edited tree.
    #[test]
    fn mods_equals_full_validation_of_committed_tree(
        schema_seed in 0u64..5000,
        evolve_steps in 0usize..3,
        doc_seed in 0u64..5000,
        edit_seed in 0u64..5000,
        n_edits in 0usize..8,
    ) {
        let Some((source, target, mut ab, doc)) = scenario(schema_seed, evolve_steps, doc_seed)
        else { return Ok(()); };
        let ctx = CastContext::new(&source, &target, &ab);
        let mv = ModsValidator::new(&ctx);
        let mut dd = DeltaDoc::new(doc);
        let mut rng = SmallRng::seed_from_u64(edit_seed);
        random_edits(&mut dd, &mut ab, &mut rng, n_edits);
        let want = target.accepts_document(&dd.committed());
        prop_assert_eq!(mv.validate(&dd).is_valid(), want);
    }

    /// Subsumption skipping never changes the verdict, only the work:
    /// with skipping on, visits are never more than with skipping off.
    #[test]
    fn skipping_reduces_work_monotonically(
        schema_seed in 0u64..3000,
        doc_seed in 0u64..3000,
    ) {
        let Some((source, target, ab, doc)) = scenario(schema_seed, 1, doc_seed)
        else { return Ok(()); };
        let on = CastContext::new(&source, &target, &ab);
        let off = CastContext::with_options(&source, &target, &ab, CastOptions::baseline());
        let (out_on, stats_on) = on.validate_with_stats(&doc);
        let (out_off, stats_off) = off.validate_with_stats(&doc);
        prop_assert_eq!(out_on, out_off);
        prop_assert!(stats_on.nodes_visited <= stats_off.nodes_visited);
    }
}

/// Whether a failure path `/root/label[i]/…` names an element of `doc`:
/// each `label[i]` is the parent's `i`-th validation child, labelled `label`.
fn resolves_to_element(doc: &Doc, ab: &Alphabet, path: &str) -> bool {
    let mut segments = path.strip_prefix('/').unwrap_or_default().split('/');
    let label_is = |node, name: &str| doc.label(node).is_some_and(|l| ab.name(l) == name);
    let mut cur = doc.root();
    if !segments.next().is_some_and(|root| label_is(cur, root)) {
        return false;
    }
    for segment in segments {
        let Some((name, index)) = segment.strip_suffix(']').and_then(|s| s.split_once('[')) else {
            return false;
        };
        let child = index
            .parse::<usize>()
            .ok()
            .and_then(|i| doc.validation_children(cur).nth(i));
        match child {
            Some(child) if label_is(child, name) => cur = child,
            _ => return false,
        }
    }
    true
}

/// DTD-style pairs: the label-indexed validator (§3.4) agrees with the
/// top-down one. (Deterministic seeds; DTD-ness requires a dedicated
/// generator, so we use fixed DTDs with varying documents.)
#[test]
fn dtd_cast_agrees_with_tree_cast() {
    let src_dtd = r#"
        <!ELEMENT root (a*, b?)>
        <!ELEMENT a (c, d?)>
        <!ELEMENT b (#PCDATA)>
        <!ELEMENT c (#PCDATA)>
        <!ELEMENT d (#PCDATA)>
    "#;
    let tgt_dtd = r#"
        <!ELEMENT root (a+, b?)>
        <!ELEMENT a (c, d)>
        <!ELEMENT b (#PCDATA)>
        <!ELEMENT c (#PCDATA)>
        <!ELEMENT d (#PCDATA)>
    "#;
    let mut ab = Alphabet::new();
    let source = schemacast::schema::parse_dtd(src_dtd, Some("root"), &mut ab).expect("src");
    let target = schemacast::schema::parse_dtd(tgt_dtd, Some("root"), &mut ab).expect("tgt");
    let ctx = CastContext::new(&source, &target, &ab);
    let dtd = DtdCastValidator::new(&ctx, ab.len()).expect("DTD style");

    for doc_seed in 0..200u64 {
        let mut rng = SmallRng::seed_from_u64(doc_seed);
        // Sample documents from the *source* schema.
        let root = ab.lookup("root").unwrap();
        let Some(doc) = sample_document_rooted(&source, root, &ab, &mut rng) else {
            continue;
        };
        assert!(source.accepts_document(&doc), "seed {doc_seed}");
        let via_tree = ctx.validate(&doc).is_valid();
        let via_index = dtd.validate(&doc, &LabelIndex::build(&doc)).is_valid();
        let truth = target.accepts_document(&doc);
        assert_eq!(via_tree, truth, "tree cast, seed {doc_seed}");
        assert_eq!(via_index, truth, "label index, seed {doc_seed}");
    }
}

/// Root-label-parameterized document sampler (the synth sampler assumes a
/// "root" label; here we pass it explicitly for DTD schemas).
fn sample_document_rooted(
    schema: &schemacast::schema::AbstractSchema,
    root: schemacast::regex::Sym,
    ab: &Alphabet,
    rng: &mut SmallRng,
) -> Option<schemacast::tree::Doc> {
    use schemacast::schema::TypeDef;
    use schemacast::workload::strings::sample_member;
    use schemacast::workload::synth::sample_simple_value;

    fn fill(
        schema: &schemacast::schema::AbstractSchema,
        doc: &mut schemacast::tree::Doc,
        node: schemacast::tree::NodeId,
        t: schemacast::schema::TypeId,
        rng: &mut SmallRng,
    ) -> Option<()> {
        match schema.type_def(t) {
            TypeDef::Simple(s) => {
                let v = sample_simple_value(s, rng)?;
                if !v.is_empty() {
                    doc.add_text(node, v);
                }
                Some(())
            }
            TypeDef::Complex(c) => {
                let labels = sample_member(&c.dfa, rng, 3)?;
                for l in labels {
                    let ct = c.child_type(l)?;
                    let child = doc.add_element(node, l);
                    fill(schema, doc, child, ct, rng)?;
                }
                Some(())
            }
        }
    }
    let t = schema.root_type(root)?;
    let mut doc = schemacast::tree::Doc::new(root);
    let r = doc.root();
    fill(schema, &mut doc, r, t, rng)?;
    let _ = ab;
    Some(doc)
}
