//! Chain-composition soundness properties: on randomly generated
//! evolution chains, the one-pass composed verdict must agree with the
//! sequential hop-by-hop apply-then-revalidate oracle, every composed
//! relation must be confirmed by the endpoint pair's exact relations, and
//! every composed tuple must decompose into per-hop facts (`sub*` for
//! subsumption, `sub*·dis` for disjointness).
//!
//! An explicit anti-vacuity sweep keeps the properties honest: across the
//! seed range both composition-decided *and* fallback-only chains must
//! occur, and migration scripts must both survive and break.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use schemacast::core::SchemaChain;
use schemacast::engine::{ChainEngine, ItemOutcome};
use schemacast::regex::Alphabet;
use schemacast::schema::AbstractSchema;
use schemacast::tree::{DeltaDoc, Doc, Edit, NodeId};
use schemacast::workload::synth::{random_schema, sample_document, SynthConfig};

/// Builds `versions` progressively evolved schema snapshots sharing one
/// alphabet.
fn chain_versions(schema_seed: u64, versions: usize) -> (Vec<AbstractSchema>, Alphabet) {
    let mut rng = SmallRng::seed_from_u64(schema_seed);
    let mut synth = random_schema(&SynthConfig::default(), &mut rng);
    let mut ab = Alphabet::new();
    let mut out = vec![synth.build(&mut ab)];
    for _ in 1..versions {
        synth.evolve(&mut rng);
        out.push(synth.build(&mut ab));
    }
    (out, ab)
}

/// A small random edit batch against the *current* document state. Edits
/// reference concrete [`NodeId`]s, so replaying the batch on a clone of
/// the same tree is deterministic.
fn random_batch(doc: &Doc, ab: &Alphabet, rng: &mut SmallRng, n: usize) -> Vec<Edit> {
    let nodes: Vec<NodeId> = doc.preorder_iter().collect();
    let mut edits = Vec::new();
    for _ in 0..n {
        let node = nodes[rng.gen_range(0..nodes.len())];
        let label = ab.symbols().nth(rng.gen_range(0..ab.len()));
        match rng.gen_range(0..4) {
            0 if doc.text(node).is_some() => edits.push(Edit::SetText {
                node,
                text: rng.gen_range(0i64..300).to_string(),
            }),
            1 if doc.label(node).is_some() && doc.parent(node).is_some() => {
                if let Some(label) = label {
                    edits.push(Edit::Relabel { node, label });
                }
            }
            2 if doc.parent(node).is_some() => edits.push(Edit::DeleteLeaf { node }),
            _ if doc.label(node).is_some() => {
                if let Some(label) = label {
                    edits.push(Edit::InsertElement {
                        parent: node,
                        position: 0,
                        label,
                    });
                }
            }
            _ => {}
        }
    }
    edits
}

/// The reference semantics of a migration script: apply each hop's batch
/// to a materialized tree and fully revalidate against the next version.
/// Returns the generated scripts plus the first failing hop (`true` =
/// the batch itself failed to apply).
fn scripted_oracle(
    schemas: &[AbstractSchema],
    doc: &Doc,
    ab: &Alphabet,
    rng: &mut SmallRng,
    per_hop: usize,
) -> (Vec<Vec<Edit>>, Option<(usize, bool)>) {
    let mut current = doc.clone();
    let mut scripts = Vec::new();
    let mut breaking = None;
    for i in 0..schemas.len() - 1 {
        let edits = random_batch(&current, ab, rng, per_hop);
        scripts.push(edits.clone());
        if breaking.is_some() {
            continue; // verify_script stops here; later batches are inert.
        }
        let mut dd = DeltaDoc::new(&current);
        match dd.apply_all(&edits) {
            Err(_) => breaking = Some((i, true)),
            Ok(()) => {
                let committed = dd.committed();
                if schemas[i + 1].accepts_document(&committed) {
                    current = committed;
                } else {
                    breaking = Some((i, false));
                }
            }
        }
    }
    (scripts, breaking)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every relation the composition pass derives is confirmed by the
    /// endpoint `(v_1, v_N)` pair's exact relations, and its middle-type
    /// tuple decomposes into per-hop facts: all-subsumption steps for a
    /// composed subsumption, subsumption steps with a final disjoint step
    /// for a composed disjointness.
    #[test]
    fn composed_relations_are_sound_and_tuples_decompose(
        schema_seed in 0u64..3000,
        versions in 3usize..5,
    ) {
        let (schemas, ab) = chain_versions(schema_seed, versions);
        let chain = SchemaChain::new(&schemas, &ab).expect("chain");
        let rel = chain.endpoint().relations();
        for s in schemas[0].type_ids() {
            for t in schemas[versions - 1].type_ids() {
                if let Some(tuple) = chain.sub_tuple(s, t) {
                    prop_assert!(rel.subsumed(s, t), "composed sub not exact: {s:?} {t:?}");
                    prop_assert_eq!(tuple.len(), versions);
                    prop_assert_eq!((tuple[0], tuple[versions - 1]), (s, t));
                    for (i, hop) in chain.hops().iter().enumerate() {
                        prop_assert!(
                            hop.relations().subsumed(tuple[i], tuple[i + 1]),
                            "sub tuple step {i} unsupported"
                        );
                    }
                }
                if let Some(tuple) = chain.dis_tuple(s, t) {
                    prop_assert!(rel.disjoint(s, t), "composed dis not exact: {s:?} {t:?}");
                    prop_assert_eq!(tuple.len(), versions);
                    prop_assert_eq!((tuple[0], tuple[versions - 1]), (s, t));
                    for (i, hop) in chain.hops().iter().enumerate() {
                        if i + 2 == versions {
                            prop_assert!(
                                hop.relations().disjoint(tuple[i], tuple[i + 1]),
                                "dis tuple final step unsupported"
                            );
                        } else {
                            prop_assert!(
                                hop.relations().subsumed(tuple[i], tuple[i + 1]),
                                "dis tuple sub step {i} unsupported"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The one-pass chain verdict on an unedited `v_1`-valid document
    /// equals full validation against `v_N`.
    #[test]
    fn one_pass_verdict_matches_endpoint_ground_truth(
        schema_seed in 0u64..3000,
        versions in 3usize..5,
        doc_seed in 0u64..3000,
    ) {
        let (schemas, mut ab) = chain_versions(schema_seed, versions);
        let mut rng = SmallRng::seed_from_u64(doc_seed);
        let Some(doc) = sample_document(&schemas[0], &mut ab, &mut rng, 5) else {
            return Ok(());
        };
        let chain = SchemaChain::new(&schemas, &ab).expect("chain");
        prop_assert_eq!(
            chain.validate(&doc).is_valid(),
            schemas[versions - 1].accepts_document(&doc)
        );
    }

    /// `verify_script` agrees with the sequential apply-then-revalidate
    /// oracle hop for hop: same overall verdict, same breaking hop, and
    /// the breaking hop's verdict kind matches (apply failure vs invalid).
    #[test]
    fn verify_script_matches_sequential_oracle(
        schema_seed in 0u64..3000,
        versions in 3usize..5,
        doc_seed in 0u64..3000,
        edit_seed in 0u64..3000,
        per_hop in 0usize..5,
    ) {
        let (schemas, mut ab) = chain_versions(schema_seed, versions);
        let mut rng = SmallRng::seed_from_u64(doc_seed);
        let Some(doc) = sample_document(&schemas[0], &mut ab, &mut rng, 5) else {
            return Ok(());
        };
        let chain = SchemaChain::new(&schemas, &ab).expect("chain");
        let mut rng = SmallRng::seed_from_u64(edit_seed);
        let (scripts, breaking) = scripted_oracle(&schemas, &doc, &ab, &mut rng, per_hop);
        let report = chain.verify_script(&doc, &scripts);
        prop_assert_eq!(report.ok(), breaking.is_none(), "{report:?} vs {breaking:?}");
        prop_assert_eq!(report.breaking_hop, breaking.map(|(h, _)| h));
        if let Some((hop, edit_failed)) = breaking {
            prop_assert_eq!(report.hops.len(), hop + 1);
            let last = &report.hops[hop];
            prop_assert_eq!(
                matches!(last.verdict, schemacast::core::HopVerdict::EditFailed(_)),
                edit_failed,
                "verdict {:?}", last.verdict
            );
        } else {
            prop_assert_eq!(report.hops.len(), chain.hop_count());
            prop_assert!(report.hops.iter().all(|h| h.verdict.is_ok()));
        }
    }
}

/// Anti-vacuity sweep: the properties above are only meaningful if the
/// random chains actually exercise both sides of every branch. Across a
/// fixed seed range we require composition-decided facts, fallback-only
/// facts (the endpoint knows a relation the hop-wise composition cannot
/// derive), surviving scripts, and breaking scripts — and that the
/// parallel [`ChainEngine`] migration path reproduces `verify_script`
/// verdicts deterministically at any worker count.
#[test]
fn sweep_hits_both_composition_and_fallback_and_both_script_verdicts() {
    let (mut composed, mut fallback) = (0usize, 0usize);
    let (mut ok_scripts, mut broken_scripts) = (0u32, 0u32);
    for seed in 0..48u64 {
        let versions = 3 + (seed % 2) as usize;
        let (schemas, mut ab) = chain_versions(seed, versions);
        let chain = match SchemaChain::new(&schemas, &ab) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let stats = chain.composition_stats();
        composed += stats.composed_sub + stats.composed_dis;
        fallback += stats.fallback_sub + stats.fallback_dis;

        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
        let Some(doc) = sample_document(&schemas[0], &mut ab, &mut rng, 5) else {
            continue;
        };
        let mut items = Vec::new();
        for k in 0..4usize {
            let mut rng = SmallRng::seed_from_u64(seed * 31 + k as u64);
            let (scripts, breaking) = scripted_oracle(&schemas, &doc, &ab, &mut rng, k);
            match breaking {
                None => ok_scripts += 1,
                Some(_) => broken_scripts += 1,
            }
            items.push((doc.clone(), scripts));
        }
        // Engine determinism: the pooled migration path must report the
        // same per-item outcomes at any worker count, in input order.
        let one = ChainEngine::with_workers(&chain, 1).validate_migrations(&items);
        let many = ChainEngine::with_workers(&chain, 4).validate_migrations(&items);
        assert_eq!(one.items, many.items, "seed {seed}: outcome order diverged");
        for (item, (doc, scripts)) in one.items.iter().zip(&items) {
            let want = chain.verify_script(doc, scripts);
            match (&item.outcome, want.breaking_hop) {
                (ItemOutcome::Valid, None) => {}
                (ItemOutcome::ChainBroken { hop }, Some(h)) => assert_eq!(*hop, h),
                (ItemOutcome::EditFailed(_), Some(_)) => {}
                other => panic!("seed {seed}: engine/oracle mismatch: {other:?}"),
            }
        }
    }
    assert!(composed > 0, "no composition-decided facts in the sweep");
    assert!(
        fallback > 0,
        "no fallback-only facts in the sweep (composed={composed}) — the \
         composition/fallback split is vacuous"
    );
    assert!(
        ok_scripts > 0,
        "no surviving migration scripts in the sweep"
    );
    assert!(
        broken_scripts > 0,
        "no breaking migration scripts in the sweep"
    );
}
