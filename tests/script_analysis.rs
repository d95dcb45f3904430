//! Whole-script static analysis against the apply-then-revalidate oracle.
//!
//! Two layers: named edge cases for every normalization rule the analyzer
//! claims (cancellation, overwrite collapse, commutation, empty script,
//! per-edit agreement), and a randomized multi-edit sweep proving the
//! script analyzer decides a strict superset of the per-edit fast path —
//! with anti-vacuity floors so the sweep cannot pass by deciding nothing.

use schemacast::core::{CastContext, CastOutcome, ScriptVerdict, SiteDecision};
use schemacast::regex::Alphabet;
use schemacast::schema::{AbstractSchema, SchemaBuilder, SimpleType};
use schemacast::tree::{DeltaDoc, Doc, Edit, NodeId};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `po -> (shipTo, billTo?, items)` (optional) or `(shipTo, billTo, items)`
/// (required); every child is simple text, so child subtrees are
/// subsumption-stable and the action is entirely in the root's child word.
fn po_schema(ab: &mut Alphabet, bill_optional: bool) -> AbstractSchema {
    let mut b = SchemaBuilder::new(ab);
    let text = b.simple("Text", SimpleType::string()).unwrap();
    let po = b.declare("PO").unwrap();
    let model = if bill_optional {
        "(shipTo, billTo?, items)"
    } else {
        "(shipTo, billTo, items)"
    };
    b.complex(
        po,
        model,
        &[("shipTo", text), ("billTo", text), ("items", text)],
    )
    .unwrap();
    b.root("po", po);
    b.finish().unwrap()
}

fn po_doc(ab: &mut Alphabet, with_bill: bool) -> Doc {
    let po = ab.intern("po");
    let mut doc = Doc::new(po);
    doc.add_element(doc.root(), ab.intern("shipTo"));
    if with_bill {
        doc.add_element(doc.root(), ab.intern("billTo"));
    }
    doc.add_element(doc.root(), ab.intern("items"));
    doc
}

/// Apply the script for real and revalidate against the target — the
/// ground truth every static verdict must agree with. `None` when the
/// script is not applicable to the document.
fn oracle(target: &AbstractSchema, doc: &Doc, edits: &[Edit]) -> Option<bool> {
    let mut dd = DeltaDoc::new(doc);
    dd.apply_all(edits).ok()?;
    Some(target.accepts_document(&dd.committed()))
}

#[test]
fn empty_script_is_statically_accepted() {
    let mut ab = Alphabet::new();
    let source = po_schema(&mut ab, true);
    let target = po_schema(&mut ab, false);
    let doc = po_doc(&mut ab, true);
    let ctx = CastContext::new(&source, &target, &ab);

    let analysis = ctx.script_analysis(&doc, &[]).expect("analyzable");
    assert_eq!(analysis.verdict, ScriptVerdict::Accept);
    assert!(analysis.sites.is_empty());
    // The oracle agrees: an unedited source-valid doc with billTo present
    // is target-valid.
    assert_eq!(oracle(&target, &doc, &[]), Some(true));
}

#[test]
fn single_edit_agrees_with_the_per_edit_verdict() {
    let mut ab = Alphabet::new();
    let ghost = ab.intern("ghost");
    let source = po_schema(&mut ab, true);
    let target = po_schema(&mut ab, false);
    let doc = po_doc(&mut ab, true);
    let ctx = CastContext::new(&source, &target, &ab);

    // Inserting a label outside the content model is per-edit Unsafe at
    // every position. The script path must reach the same verdict through
    // the net-word run.
    let edits = [Edit::InsertElement {
        parent: doc.root(),
        position: 1,
        label: ghost,
    }];
    let per_edit = ctx
        .validate_edited_static(&doc, &edits)
        .expect("per-edit path decides this");
    assert_eq!(per_edit.0, CastOutcome::Invalid);

    let analysis = ctx.script_analysis(&doc, &edits).expect("analyzable");
    assert_eq!(analysis.verdict, ScriptVerdict::Reject);
    let (out, _) = ctx
        .validate_edited_script(&doc, &edits)
        .expect("script path decides this");
    assert_eq!(out, CastOutcome::Invalid);
    assert_eq!(oracle(&target, &doc, &edits), Some(false));
}

#[test]
fn insert_then_delete_cancels_to_identity() {
    let mut ab = Alphabet::new();
    let source = po_schema(&mut ab, true);
    let target = po_schema(&mut ab, false);
    let doc = po_doc(&mut ab, true);
    let ghost = ab.intern("ghost");
    let ctx = CastContext::new(&source, &target, &ab);

    // The inserted node's id is the next arena slot.
    let inserted = NodeId(doc.node_count() as u32);
    let edits = [
        Edit::InsertElement {
            parent: doc.root(),
            position: 1,
            label: ghost,
        },
        Edit::DeleteLeaf { node: inserted },
    ];
    // Per-edit analysis cannot resolve the not-yet-existing node.
    assert!(ctx.validate_edited_static(&doc, &edits).is_none());

    let analysis = ctx.script_analysis(&doc, &edits).expect("analyzable");
    assert_eq!(analysis.verdict, ScriptVerdict::Accept);
    assert!(
        analysis.normalized(),
        "cancellation must appear in the trace"
    );
    assert!(analysis
        .sites
        .iter()
        .all(|s| s.decision == SiteDecision::Identity));
    assert_eq!(oracle(&target, &doc, &edits), Some(true));
}

#[test]
fn two_same_position_overwrites_collapse_to_the_last() {
    let mut ab = Alphabet::new();
    let source = po_schema(&mut ab, true);
    let target = po_schema(&mut ab, false);
    let doc = po_doc(&mut ab, true);
    let ghost = ab.intern("ghost");
    let ctx = CastContext::new(&source, &target, &ab);
    let bill_node = doc.children(doc.root())[1];
    let bill = ab.lookup("billTo").unwrap();

    // billTo -> ghost -> billTo: the second relabel overwrites the first
    // and cancels it; the net effect is the identity even though the
    // intermediate word (shipTo, ghost, items) is invalid in both schemas.
    let edits = [
        Edit::Relabel {
            node: bill_node,
            label: ghost,
        },
        Edit::Relabel {
            node: bill_node,
            label: bill,
        },
    ];
    let analysis = ctx.script_analysis(&doc, &edits).expect("analyzable");
    assert_eq!(analysis.verdict, ScriptVerdict::Accept);
    assert!(analysis.normalized(), "overwrite collapse must be traced");
    assert_eq!(oracle(&target, &doc, &edits), Some(true));

    // Overwrite that does NOT cancel: billTo -> ghost -> shipTo judges
    // only the final word (shipTo, shipTo, items), which is invalid.
    let edits = [
        Edit::Relabel {
            node: bill_node,
            label: ghost,
        },
        Edit::Relabel {
            node: bill_node,
            label: ab.lookup("shipTo").unwrap(),
        },
    ];
    let analysis = ctx.script_analysis(&doc, &edits).expect("analyzable");
    assert_eq!(analysis.verdict, ScriptVerdict::Reject);
    assert_eq!(oracle(&target, &doc, &edits), Some(false));
}

#[test]
fn position_disjoint_edits_commute() {
    let mut ab = Alphabet::new();
    let source = po_schema(&mut ab, true);
    let target = po_schema(&mut ab, false);
    let doc = po_doc(&mut ab, false);
    let bill = ab.lookup("billTo").unwrap();
    let ship = ab.lookup("shipTo").unwrap();
    let ctx = CastContext::new(&source, &target, &ab);
    let ship_node = doc.children(doc.root())[0];

    // Two edits at disjoint positions: insert billTo at 1, and relabel
    // position 0 to itself-after-roundtrip. Run the script in both orders;
    // the net effect — hence the verdict — must be identical.
    let forward = [
        Edit::InsertElement {
            parent: doc.root(),
            position: 1,
            label: bill,
        },
        Edit::Relabel {
            node: ship_node,
            label: ship,
        },
    ];
    let swapped = [
        Edit::Relabel {
            node: ship_node,
            label: ship,
        },
        Edit::InsertElement {
            parent: doc.root(),
            position: 1,
            label: bill,
        },
    ];
    let a1 = ctx.script_analysis(&doc, &forward).expect("analyzable");
    let a2 = ctx.script_analysis(&doc, &swapped).expect("analyzable");
    assert_eq!(a1.verdict, a2.verdict);
    assert_eq!(a1.verdict, ScriptVerdict::Accept);
    assert_eq!(
        oracle(&target, &doc, &forward),
        oracle(&target, &doc, &swapped)
    );
    assert_eq!(oracle(&target, &doc, &forward), Some(true));
}

/// One randomly generated structural script over the root child word.
/// Tracks the simulated child list (placeholder-inclusive, exactly the
/// DeltaDoc coordinate system) so generated positions are always legal.
fn random_script(doc: &Doc, ab: &Alphabet, rng: &mut SmallRng) -> Vec<Edit> {
    #[derive(Clone, Copy)]
    struct Entry {
        id: NodeId,
        inserted: bool,
        deleted: bool,
    }
    let labels: Vec<_> = ["shipTo", "billTo", "items", "ghost"]
        .iter()
        .map(|n| ab.lookup(n).unwrap())
        .collect();
    let mut entries: Vec<Entry> = doc
        .children(doc.root())
        .iter()
        .map(|&id| Entry {
            id,
            inserted: false,
            deleted: false,
        })
        .collect();
    let mut next_id = doc.node_count() as u32;
    let mut edits = Vec::new();
    let n_edits = rng.gen_range(1..=5);
    for _ in 0..n_edits {
        match rng.gen_range(0..3) {
            0 => {
                let pos = rng.gen_range(0..=entries.len());
                let label = labels[rng.gen_range(0..labels.len())];
                edits.push(Edit::InsertElement {
                    parent: doc.root(),
                    position: pos,
                    label,
                });
                entries.insert(
                    pos,
                    Entry {
                        id: NodeId(next_id),
                        inserted: true,
                        deleted: false,
                    },
                );
                next_id += 1;
            }
            1 => {
                let live: Vec<usize> = (0..entries.len())
                    .filter(|&i| !entries[i].deleted)
                    .collect();
                if live.is_empty() {
                    continue;
                }
                let i = live[rng.gen_range(0..live.len())];
                edits.push(Edit::DeleteLeaf {
                    node: entries[i].id,
                });
                if entries[i].inserted {
                    entries.remove(i);
                } else {
                    entries[i].deleted = true;
                }
            }
            _ => {
                let live: Vec<usize> = (0..entries.len())
                    .filter(|&i| !entries[i].deleted)
                    .collect();
                if live.is_empty() {
                    continue;
                }
                let i = live[rng.gen_range(0..live.len())];
                let label = labels[rng.gen_range(0..labels.len())];
                edits.push(Edit::Relabel {
                    node: entries[i].id,
                    label,
                });
            }
        }
    }
    edits
}

/// The acceptance property: over randomized multi-edit scripts the script
/// analyzer (a) agrees with the oracle whenever it decides, (b) decides
/// everything the per-edit fast path decides, with the same outcome, and
/// (c) decides strictly more — including scripts only normalization can
/// settle. Floors make (c) non-vacuous.
#[test]
fn randomized_scripts_decide_a_strict_superset_of_the_per_edit_path() {
    let mut ab = Alphabet::new();
    ab.intern("ghost");
    let source = po_schema(&mut ab, true);
    let target = po_schema(&mut ab, false);
    let ctx = CastContext::new(&source, &target, &ab);
    let mut rng = SmallRng::seed_from_u64(0x5c21);

    let mut script_decided = 0usize;
    let mut per_edit_decided = 0usize;
    let mut script_only = 0usize;
    let mut normalized_decided = 0usize;
    let mut applicable = 0usize;

    for trial in 0..600 {
        let doc = po_doc(&mut ab.clone(), trial % 2 == 0);
        let edits = random_script(&doc, &ab, &mut rng);
        let truth = oracle(&target, &doc, &edits);
        if truth.is_some() {
            applicable += 1;
        }

        let per_edit = ctx.validate_edited_static(&doc, &edits);
        // The full script-path outcome: the static verdict at the edited
        // sites plus the exemption walk over everything else. This is what
        // the engine consults, and what must agree with the oracle.
        let script = ctx.validate_edited_script(&doc, &edits);
        let script_verdict = script.as_ref().map(|(out, _)| out.is_valid());

        if let Some(valid) = script_verdict {
            script_decided += 1;
            assert_eq!(
                Some(valid),
                truth,
                "trial {trial}: script verdict disagrees with oracle for {edits:?}"
            );
            let analysis = ctx.script_analysis(&doc, &edits);
            if analysis.as_ref().is_some_and(|a| a.normalized()) {
                normalized_decided += 1;
            }
        }
        if let Some((out, _)) = &per_edit {
            per_edit_decided += 1;
            assert_eq!(
                Some(out.is_valid()),
                truth,
                "trial {trial}: per-edit verdict disagrees with oracle for {edits:?}"
            );
            // Strict-superset inclusion: everything the per-edit path
            // decides, the script path also decides, identically.
            assert_eq!(
                script_verdict,
                Some(out.is_valid()),
                "trial {trial}: script path failed to cover a per-edit decision for {edits:?}"
            );
        } else if script_verdict.is_some() {
            script_only += 1;
        }
    }

    // Anti-vacuity floors: the sweep must actually exercise every claim.
    assert!(applicable > 300, "only {applicable} applicable scripts");
    assert!(
        per_edit_decided >= 20,
        "only {per_edit_decided} per-edit decisions"
    );
    assert!(
        script_only >= 20,
        "only {script_only} scripts decided exclusively at the script level"
    );
    assert!(
        normalized_decided >= 10,
        "only {normalized_decided} decided scripts involved a normalization rewrite"
    );
    assert!(script_decided > per_edit_decided, "not a strict superset");
}
