//! Property tests: the modification trie agrees with a naive recomputation
//! of `modified(v)` from the Δ-states, across random edit scripts — the
//! key data-structure invariant behind §3.3.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use schemacast_regex::{Alphabet, Sym};
use schemacast_tree::{DeltaDoc, DeltaState, Doc, Edit, NodeId};

/// Builds a random tree with `n` elements.
fn random_tree(seed: u64, n: usize) -> (Doc, Alphabet) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ab = Alphabet::new();
    let labels: Vec<Sym> = (0..4).map(|i| ab.intern(&format!("l{i}"))).collect();
    let mut doc = Doc::new(labels[0]);
    let mut nodes = vec![doc.root()];
    for _ in 1..n {
        let parent = nodes[rng.gen_range(0..nodes.len())];
        // Only elements can have children.
        if doc.label(parent).is_none() {
            continue;
        }
        if rng.gen_bool(0.2) {
            doc.add_text(parent, "v");
        } else {
            let id = doc.add_element(parent, labels[rng.gen_range(0..labels.len())]);
            nodes.push(id);
        }
    }
    (doc, ab)
}

/// Applies `k` random edits; returns the DeltaDoc.
fn random_deltadoc(seed: u64, n: usize, k: usize) -> (DeltaDoc<'static>, Alphabet) {
    let (doc, mut ab) = random_tree(seed, n);
    let mut dd = DeltaDoc::new(doc);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xDEAD);
    let extra = ab.intern("new");
    for _ in 0..k {
        let all: Vec<NodeId> = dd
            .preorder_iter()
            .filter(|&x| !matches!(dd.delta(x), DeltaState::Deleted))
            .collect();
        let node = all[rng.gen_range(0..all.len())];
        let edit = match rng.gen_range(0..4) {
            0 if dd.label(node).is_some() => Edit::Relabel { node, label: extra },
            1 if dd.text(node).is_some() => Edit::SetText {
                node,
                text: "x".into(),
            },
            2 if dd.parent(node).is_some() && dd.new_children(node).next().is_none() => {
                Edit::DeleteLeaf { node }
            }
            _ if dd.label(node).is_some() => Edit::InsertElement {
                parent: node,
                position: rng.gen_range(0..=dd.children(node).len()),
                label: extra,
            },
            _ => continue,
        };
        let _ = dd.apply(&edit);
    }
    (dd, ab)
}

/// Naive `modified(v)`: any node in the subtree has a non-Unchanged state.
fn naive_modified(dd: &DeltaDoc, node: NodeId) -> bool {
    if dd.delta(node) != DeltaState::Unchanged {
        return true;
    }
    dd.children(node).iter().any(|&c| naive_modified(dd, c))
}

/// The property's case count: `PROPTEST_CASES` when it is set (the CI
/// fuzz job raises it), otherwise `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    #[test]
    fn trie_matches_naive_modified(seed in 0u64..5_000, n in 2usize..30, k in 0usize..12) {
        let (dd, _ab) = random_deltadoc(seed, n, k);
        let mut dewey = Vec::new();
        for node in dd.preorder_iter() {
            dd.dewey_into(node, &mut dewey);
            let via_trie = dd.trie().subtree_modified(&dewey);
            let via_naive = naive_modified(&dd, node);
            prop_assert_eq!(
                via_trie, via_naive,
                "node {:?} (dewey {:?}): trie {} vs naive {}",
                node, dewey, via_trie, via_naive
            );
        }
    }

    /// The committed tree equals the new-view of the Δ-doc.
    #[test]
    fn committed_matches_new_view(seed in 0u64..5_000, n in 2usize..25, k in 0usize..10) {
        let (dd, _ab) = random_deltadoc(seed, n, k);
        let committed = dd.committed();
        // Node counts: live nodes in the delta view.
        fn live_count(dd: &DeltaDoc, node: NodeId) -> usize {
            if matches!(dd.delta(node), DeltaState::Deleted) {
                return 0;
            }
            1 + dd
                .children(node)
                .iter()
                .map(|&c| live_count(dd, c))
                .sum::<usize>()
        }
        prop_assert_eq!(committed.node_count(), live_count(&dd, dd.root()));
    }

    /// Proj_old reconstructs the original label multiset of unedited docs.
    #[test]
    fn no_edits_means_no_modifications(seed in 0u64..5_000, n in 2usize..25) {
        let (doc, _ab) = random_tree(seed, n);
        let dd = DeltaDoc::new(&doc);
        prop_assert!(!dd.any_modifications());
        let mut dewey = Vec::new();
        for node in doc.preorder_iter() {
            doc.dewey_into(node, &mut dewey);
            prop_assert!(!dd.trie().subtree_modified(&dewey));
        }
        prop_assert_eq!(dd.committed().node_count(), doc.node_count());
    }
}
