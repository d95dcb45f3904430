//! Soundness of the static update-safety verdicts, checked against dynamic
//! revalidation on randomly generated (schema pair, document, edit script)
//! triples:
//!
//! * a `Safe` verdict must imply the edited document revalidates OK,
//! * an `Unsafe` verdict must imply it fails,
//! * the engine's static fast path must be verdict-identical to the
//!   dynamic Δ-revalidation path on whole batches.
//!
//! Any disagreement is a test failure — `Dynamic` and `Inapplicable` are
//! the only verdicts allowed to defer to runtime data.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use schemacast_core::{CastContext, ModsValidator, Verdict};
use schemacast_engine::{BatchEngine, ItemOutcome};
use schemacast_regex::Alphabet;
use schemacast_schema::AbstractSchema;
use schemacast_tree::{DeltaDoc, Doc, Edit, NodeId};
use schemacast_workload::synth::{random_schema, sample_document, SynthConfig, SynthSchema};

/// Builds (source, evolved target, alphabet, source-valid doc) from seeds.
fn scenario(
    schema_seed: u64,
    evolve_steps: usize,
    doc_seed: u64,
) -> Option<(AbstractSchema, AbstractSchema, Alphabet, Doc)> {
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

/// One random structural edit against the *original* document (not
/// applied): insert / delete-leaf / relabel with labels drawn from the
/// shared alphabet. May produce edits the analyzer refuses or that fail to
/// apply — both paths must handle them identically.
fn random_edit(doc: &Doc, ab: &Alphabet, rng: &mut SmallRng) -> Option<Edit> {
    let nodes: Vec<NodeId> = doc.preorder_iter().collect();
    let node = nodes[rng.gen_range(0..nodes.len())];
    let label = ab.symbols().nth(rng.gen_range(0..ab.len()))?;
    match rng.gen_range(0..3) {
        0 => Some(Edit::InsertElement {
            parent: node,
            position: rng.gen_range(0..=doc.children(node).len()),
            label,
        }),
        1 => Some(Edit::DeleteLeaf { node }),
        _ => Some(Edit::Relabel { node, label }),
    }
}

/// The dynamic path alone, as `validate_edited` runs it for scripts no
/// static tier decides: apply the script to a copy, then run the
/// schema-cast-with-modifications validator over the Δ-encoded result.
fn dynamic_path(ctx: &CastContext<'_>, doc: &Doc, edits: &[Edit]) -> ItemOutcome {
    let mut dd = DeltaDoc::new(doc.clone());
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

/// The property tests above are only meaningful if decided verdicts
/// actually occur; this sweep pins that the generators produce both.
#[test]
fn generators_produce_decided_verdicts() {
    let (mut safe, mut unsafe_) = (0usize, 0usize);
    for seed in 0..200u64 {
        let Some((source, target, ab, doc)) = scenario(seed, (seed % 4) as usize, seed * 31) else {
            continue;
        };
        let ctx = CastContext::new(&source, &target, &ab);
        let mut rng = SmallRng::seed_from_u64(seed * 7);
        for _ in 0..8 {
            let Some(edit) = random_edit(&doc, &ab, &mut rng) else {
                continue;
            };
            match ctx.edit_verdict(&doc, &edit) {
                Some(Verdict::Safe) => safe += 1,
                Some(Verdict::Unsafe) => unsafe_ += 1,
                _ => {}
            }
        }
    }
    assert!(
        safe > 0,
        "no Safe verdict across the sweep — tests are vacuous"
    );
    assert!(
        unsafe_ > 0,
        "no Unsafe verdict across the sweep — tests are vacuous"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-edit soundness: `Safe` ⇒ the edited document is target-valid,
    /// `Unsafe` ⇒ it is not, with the materialized edited tree as oracle.
    #[test]
    fn decided_verdicts_never_contradict_dynamic_revalidation(
        schema_seed in 0u64..5000,
        evolve_steps in 0usize..4,
        doc_seed in 0u64..5000,
        edit_seed in 0u64..5000,
    ) {
        let Some((source, target, ab, doc)) = scenario(schema_seed, evolve_steps, doc_seed)
        else { return Ok(()); };
        prop_assert!(source.accepts_document(&doc));
        let ctx = CastContext::new(&source, &target, &ab);
        let mut rng = SmallRng::seed_from_u64(edit_seed);
        for _ in 0..12 {
            let Some(edit) = random_edit(&doc, &ab, &mut rng) else { continue };
            let verdict = ctx.edit_verdict(&doc, &edit);
            if !matches!(verdict, Some(Verdict::Safe) | Some(Verdict::Unsafe)) {
                continue;
            }
            // A decided verdict implies the analyzer vouched for the edit's
            // applicability: applying it must succeed.
            let mut dd = DeltaDoc::new(doc.clone());
            prop_assert!(
                dd.apply(&edit).is_ok(),
                "decided verdict {verdict:?} for inapplicable edit {edit:?}"
            );
            let valid = target.accepts_document(&dd.committed());
            match verdict {
                Some(Verdict::Safe) => prop_assert!(
                    valid,
                    "Safe verdict but dynamic revalidation fails for {edit:?}"
                ),
                Some(Verdict::Unsafe) => prop_assert!(
                    !valid,
                    "Unsafe verdict but dynamic revalidation passes for {edit:?}"
                ),
                _ => unreachable!(),
            }
        }
    }

    /// Whole-script soundness through the engine: the static fast path
    /// must produce the same outcome as the dynamic path and as the
    /// apply-and-fully-revalidate oracle, on random multi-edit scripts.
    #[test]
    fn engine_fast_path_is_verdict_identical_to_dynamic_path(
        schema_seed in 0u64..5000,
        evolve_steps in 0usize..4,
        doc_seed in 0u64..5000,
        edit_seed in 0u64..5000,
        n_edits in 0usize..5,
    ) {
        let Some((source, target, ab, doc)) = scenario(schema_seed, evolve_steps, doc_seed)
        else { return Ok(()); };
        let mut rng = SmallRng::seed_from_u64(edit_seed);
        let edits: Vec<Edit> = (0..n_edits)
            .filter_map(|_| random_edit(&doc, &ab, &mut rng))
            .collect();
        let ctx = CastContext::new(&source, &target, &ab);
        let items = vec![(doc.clone(), edits.clone())];

        let fast = BatchEngine::with_workers(&ctx, 1).validate_edited(&items);
        let slow = dynamic_path(&ctx, &doc, &edits);
        prop_assert_eq!(
            &fast.items[0].outcome,
            &slow,
            "fast path changed the verdict for {:?}",
            &edits
        );

        let mut dd = DeltaDoc::new(doc);
        if dd.apply_all(&edits).is_ok() {
            let want = target.accepts_document(&dd.committed());
            prop_assert_eq!(
                fast.items[0].outcome.is_valid(),
                want,
                "engine disagrees with apply-and-revalidate for {:?}",
                &edits
            );
        }
    }
}
