//! The Δ overlay held to the clone-and-mutate Δ-document it replaced.
//!
//! `CopyDeltaDoc` below is that document: it owns a copy of the base and
//! applies each edit with `Doc`'s own mutators, so it shares no code with
//! the overlay's edit path. Random scripts over random trees and purchase
//! orders mix valid and failing edits: inserts then deletes of the same
//! node, edits under and of inserted nodes (cancelled ones included),
//! deleting a node after its children, out-of-range positions, and edits
//! of deleted nodes. After every edit both documents must return the same
//! `Result`, give the same view of every node id, answer the trie the same
//! on every live node's Dewey path, and commit equal documents; the base
//! must be untouched. On the Experiment 2 pair, `ModsValidator` over the
//! overlay must give `FullValidator`'s verdict on the committed copy.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use schemacast::core::{CastContext, FullValidator, ModsValidator};
use schemacast::regex::{Alphabet, Sym};
use schemacast::schema::{AbstractSchema, Session};
use schemacast::tree::{
    DeltaDoc, DeltaState, Doc, Edit, EditError, ModTrie, NodeId, NodeKind, ProjLabel,
};
use schemacast::workload::purchase_order::{
    generate_document_with, source_maxex200_xsd, target_xsd,
};

/// A Δ-encoded edited document that owns a copy of the base and edits it
/// in place: the library's `DeltaDoc` before it became an overlay, with
/// one fix both now share. An edit naming an insertion that a delete
/// cancelled fails as an edit of a deleted node; before, it was applied to
/// the detached node at a Dewey path relative to it, which marked and
/// shifted the trie at the wrong place.
struct CopyDeltaDoc {
    doc: Doc,
    base_count: usize,
    delta: Vec<DeltaState>,
    trie: ModTrie,
}

enum Insertion {
    Element(Sym),
    Text(String),
}

impl CopyDeltaDoc {
    fn new(doc: Doc) -> CopyDeltaDoc {
        let delta = vec![DeltaState::Unchanged; doc.node_count()];
        CopyDeltaDoc {
            base_count: doc.node_count(),
            doc,
            delta,
            trie: ModTrie::new(),
        }
    }

    /// A deleted placeholder, or a cancelled insertion: detached from the
    /// tree by `remove_leaf`.
    fn is_removed(&self, id: NodeId) -> bool {
        match self.delta(id) {
            DeltaState::Deleted => true,
            DeltaState::Inserted => id.index() >= self.base_count && self.doc.parent(id).is_none(),
            _ => false,
        }
    }

    fn mark_node(&mut self, node: NodeId) {
        let path = self.doc.dewey(node);
        self.trie.mark(&path);
    }

    fn delta(&self, id: NodeId) -> DeltaState {
        self.delta
            .get(id.index())
            .copied()
            .unwrap_or(DeltaState::Unchanged)
    }

    fn proj_new(&self, id: NodeId) -> Option<ProjLabel> {
        if matches!(self.delta(id), DeltaState::Deleted) {
            return None;
        }
        Some(match self.doc.kind(id) {
            NodeKind::Element(s) => ProjLabel::Elem(*s),
            NodeKind::Text(_) => ProjLabel::Chi,
        })
    }

    fn proj_old(&self, id: NodeId) -> Option<ProjLabel> {
        match self.delta(id) {
            DeltaState::Inserted => None,
            DeltaState::Relabeled { old } => Some(ProjLabel::Elem(old)),
            _ => Some(match self.doc.kind(id) {
                NodeKind::Element(s) => ProjLabel::Elem(*s),
                NodeKind::Text(_) => ProjLabel::Chi,
            }),
        }
    }

    fn new_children(&self, id: NodeId) -> Vec<NodeId> {
        self.doc
            .children(id)
            .iter()
            .copied()
            .filter(|&c| !matches!(self.delta(c), DeltaState::Deleted))
            .collect()
    }

    fn old_children(&self, id: NodeId) -> Vec<NodeId> {
        self.doc
            .children(id)
            .iter()
            .copied()
            .filter(|&c| !matches!(self.delta(c), DeltaState::Inserted))
            .collect()
    }

    fn apply(&mut self, edit: &Edit) -> Result<(), EditError> {
        match edit {
            Edit::Relabel { node, label } => self.relabel(*node, *label),
            Edit::InsertElement {
                parent,
                position,
                label,
            } => self.insert(*parent, *position, Insertion::Element(*label)),
            Edit::InsertText {
                parent,
                position,
                text,
            } => self.insert(*parent, *position, Insertion::Text(text.clone())),
            Edit::DeleteLeaf { node } => self.delete(*node),
            Edit::SetText { node, text } => self.set_text(*node, text.clone()),
        }
    }

    fn relabel(&mut self, node: NodeId, label: Sym) -> Result<(), EditError> {
        if self.is_removed(node) {
            return Err(EditError::EditDeleted(node));
        }
        let old = match self.doc.kind(node) {
            NodeKind::Element(s) => *s,
            NodeKind::Text(_) => return Err(EditError::RelabelText(node)),
        };
        self.doc.set_label(node, label);
        self.delta[node.index()] = match self.delta(node) {
            DeltaState::Inserted => DeltaState::Inserted,
            DeltaState::Relabeled { old: orig } => DeltaState::Relabeled { old: orig },
            _ => DeltaState::Relabeled { old },
        };
        self.mark_node(node);
        Ok(())
    }

    fn set_text(&mut self, node: NodeId, text: String) -> Result<(), EditError> {
        if self.is_removed(node) {
            return Err(EditError::EditDeleted(node));
        }
        if !matches!(self.doc.kind(node), NodeKind::Text(_)) {
            return Err(EditError::SetTextOnElement(node));
        }
        self.doc.set_text(node, text);
        if !matches!(self.delta(node), DeltaState::Inserted) {
            self.delta[node.index()] = DeltaState::TextChanged;
        }
        self.mark_node(node);
        Ok(())
    }

    fn insert(
        &mut self,
        parent: NodeId,
        position: usize,
        what: Insertion,
    ) -> Result<(), EditError> {
        if self.is_removed(parent) {
            return Err(EditError::DeletedParent(parent));
        }
        if !matches!(self.doc.kind(parent), NodeKind::Element(_)) {
            return Err(EditError::TextParent(parent));
        }
        let len = self.doc.children(parent).len();
        if position > len {
            return Err(EditError::PositionOutOfRange {
                parent,
                position,
                len,
            });
        }
        let parent_path = self.doc.dewey(parent);
        self.trie.shift_children(&parent_path, position as u32, 1);
        let id = match what {
            Insertion::Element(label) => self.doc.insert_element(parent, position, label),
            Insertion::Text(text) => self.doc.insert_text(parent, position, text),
        };
        if id.index() >= self.delta.len() {
            self.delta.resize(id.index() + 1, DeltaState::Unchanged);
        }
        self.delta[id.index()] = DeltaState::Inserted;
        let mut path = parent_path;
        path.push(position as u32);
        self.trie.mark(&path);
        Ok(())
    }

    fn delete(&mut self, node: NodeId) -> Result<(), EditError> {
        if self.is_removed(node) {
            return Err(EditError::EditDeleted(node));
        }
        if self.doc.parent(node).is_none() {
            return Err(EditError::DeleteRoot);
        }
        if !self.new_children(node).is_empty() {
            return Err(EditError::DeleteNonLeaf(node));
        }
        if matches!(self.delta(node), DeltaState::Inserted) {
            // Insert-then-delete cancels out: physically remove the node.
            let parent_path = self.doc.dewey(self.doc.parent(node).expect("not root"));
            let pos = self.doc.child_index(node) as u32;
            let mut node_path = parent_path.clone();
            node_path.push(pos);
            self.trie.unmark(&node_path);
            let subtree = self.subtree_nodes(node);
            for &desc in &subtree {
                let path = self.doc.dewey(desc);
                self.trie.unmark(&path);
            }
            for &n in subtree.iter().rev() {
                self.doc.remove_leaf(n);
            }
            self.trie.shift_children(&parent_path, pos + 1, -1);
            return Ok(());
        }
        self.delta[node.index()] = DeltaState::Deleted;
        self.mark_node(node);
        Ok(())
    }

    fn subtree_nodes(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.doc.children(n).iter().copied());
        }
        out
    }

    fn committed(&self) -> Doc {
        let root = self.doc.root();
        let mut out = Doc::new(self.doc.label(root).expect("root is an element"));
        let mut work: Vec<(NodeId, NodeId)> = Vec::new();
        let live_children = |from: NodeId, to: NodeId| {
            self.doc
                .children(from)
                .iter()
                .rev()
                .filter(|&&c| !matches!(self.delta(c), DeltaState::Deleted))
                .map(move |&c| (c, to))
        };
        work.extend(live_children(root, out.root()));
        while let Some((node, parent)) = work.pop() {
            match self.doc.kind(node) {
                NodeKind::Element(s) => {
                    let id = out.add_element(parent, *s);
                    work.extend(live_children(node, id));
                }
                NodeKind::Text(t) => {
                    out.add_text(parent, t.clone());
                }
            }
        }
        out
    }
}

/// The property's case count: `PROPTEST_CASES` when it is set (the CI
/// fuzz job raises it), otherwise `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or(default)
}

/// A random tree with about `n` nodes, as `trie_consistency.rs` builds
/// them.
fn random_tree(seed: u64, n: usize, ab: &mut Alphabet) -> Doc {
    let mut rng = SmallRng::seed_from_u64(seed);
    let labels: Vec<Sym> = (0..4).map(|i| ab.intern(&format!("l{i}"))).collect();
    let mut doc = Doc::new(labels[0]);
    let mut nodes = vec![doc.root()];
    for _ in 1..n {
        let parent = nodes[rng.gen_range(0..nodes.len())];
        if rng.gen_bool(0.2) {
            doc.add_text(parent, "v");
        } else {
            let id = doc.add_element(parent, labels[rng.gen_range(0..labels.len())]);
            nodes.push(id);
        }
    }
    doc
}

/// What a script may write: element labels and text values.
struct Vocabulary {
    labels: Vec<Sym>,
    texts: Vec<&'static str>,
}

/// A node id to edit, read from the copy's current state: usually a node
/// in the tree (deleted placeholders included), often an inserted one
/// (cancelled ones included), sometimes any id.
fn pick_node(rng: &mut SmallRng, copy: &CopyDeltaDoc, base_count: usize) -> NodeId {
    let count = copy.doc.node_count();
    match rng.gen_range(0..4) {
        0 | 1 => {
            let in_tree: Vec<NodeId> = copy.doc.preorder_iter().collect();
            in_tree[rng.gen_range(0..in_tree.len())]
        }
        2 if count > base_count => NodeId(rng.gen_range(base_count..count) as u32),
        _ => NodeId(rng.gen_range(0..count) as u32),
    }
}

/// The next step of a random script: one edit, or a run of them.
fn next_step(
    rng: &mut SmallRng,
    copy: &CopyDeltaDoc,
    base_count: usize,
    vocab: &Vocabulary,
) -> Vec<Edit> {
    let node = pick_node(rng, copy, base_count);
    let label = vocab.labels[rng.gen_range(0..vocab.labels.len())];
    let text = vocab.texts[rng.gen_range(0..vocab.texts.len())].to_string();
    let len = copy.doc.children(node).len();
    // Mostly in range; now and then one or two past the end.
    let position = if rng.gen_bool(0.1) {
        len + rng.gen_range(1..3)
    } else {
        rng.gen_range(0..=len)
    };
    match rng.gen_range(0..8) {
        0 => vec![Edit::Relabel { node, label }],
        1 => vec![Edit::SetText { node, text }],
        2 => vec![Edit::InsertElement {
            parent: node,
            position,
            label,
        }],
        3 => vec![Edit::InsertText {
            parent: node,
            position,
            text,
        }],
        4 => vec![Edit::DeleteLeaf { node }],
        // Insert, then delete the node just inserted.
        5 => vec![
            Edit::InsertElement {
                parent: node,
                position,
                label,
            },
            Edit::DeleteLeaf {
                node: NodeId(copy.doc.node_count() as u32),
            },
        ],
        // Delete a subtree bottom-up: every node after its children.
        6 => {
            let mut order = Vec::new();
            let mut stack = vec![node];
            while let Some(n) = stack.pop() {
                order.push(n);
                stack.extend(copy.doc.children(n).iter().copied());
            }
            order
                .into_iter()
                .rev()
                .map(|node| Edit::DeleteLeaf { node })
                .collect()
        }
        // Build under a node: insert an element, then text under it.
        _ => {
            let child = NodeId(copy.doc.node_count() as u32);
            vec![
                Edit::InsertElement {
                    parent: node,
                    position,
                    label,
                },
                Edit::InsertText {
                    parent: child,
                    position: 0,
                    text,
                },
            ]
        }
    }
}

/// Whether the overlay and the copy agree on everything they expose.
fn assert_same_state(overlay: &DeltaDoc<'_>, copy: &CopyDeltaDoc) -> Result<(), TestCaseError> {
    let doc = &copy.doc;
    prop_assert_eq!(overlay.node_count(), doc.node_count());
    prop_assert_eq!(overlay.root(), doc.root());
    for id in (0..doc.node_count() as u32).map(NodeId) {
        prop_assert_eq!(overlay.kind(id), doc.kind(id), "kind of {:?}", id);
        prop_assert_eq!(overlay.parent(id), doc.parent(id), "parent of {:?}", id);
        prop_assert_eq!(
            overlay.children(id),
            doc.children(id),
            "children of {:?}",
            id
        );
        prop_assert_eq!(overlay.delta(id), copy.delta(id), "Δ-state of {:?}", id);
        prop_assert_eq!(
            overlay.proj_old(id),
            copy.proj_old(id),
            "Proj_old of {:?}",
            id
        );
        prop_assert_eq!(
            overlay.proj_new(id),
            copy.proj_new(id),
            "Proj_new of {:?}",
            id
        );
        prop_assert_eq!(
            overlay.new_children(id).collect::<Vec<_>>(),
            copy.new_children(id)
        );
        prop_assert_eq!(
            overlay.old_children(id).collect::<Vec<_>>(),
            copy.old_children(id)
        );
        prop_assert_eq!(overlay.is_ignorable_ws(id), doc.is_ignorable_ws(id));
    }
    let live: Vec<NodeId> = doc.preorder_iter().collect();
    prop_assert_eq!(&overlay.preorder_iter().collect::<Vec<_>>(), &live);
    let mut path = Vec::new();
    for &id in &live {
        doc.dewey_into(id, &mut path);
        prop_assert_eq!(&overlay.dewey(id), &path, "Dewey number of {:?}", id);
        prop_assert_eq!(
            overlay.trie().subtree_modified(&path),
            copy.trie.subtree_modified(&path),
            "modified({:?}) at {:?}",
            id,
            &path
        );
    }
    prop_assert_eq!(overlay.any_modifications(), !copy.trie.is_empty());
    prop_assert_eq!(overlay.committed(), copy.committed());
    Ok(())
}

/// The Experiment 2 pair: target `quantity` below 100, source below 200.
struct Exp2 {
    session: Session,
    source: AbstractSchema,
    target: AbstractSchema,
}

fn exp2() -> Exp2 {
    let mut session = Session::new();
    let source = session
        .parse_xsd(&source_maxex200_xsd())
        .expect("source XSD");
    let target = session.parse_xsd(&target_xsd()).expect("target XSD");
    Exp2 {
        session,
        source,
        target,
    }
}

/// Runs `steps` random steps over `base` on the overlay and on the copy,
/// comparing them after every edit; with `pair`, also compares
/// `ModsValidator` over the overlay with `FullValidator` on the committed
/// copy.
fn run_script(
    base: &Doc,
    seed: u64,
    steps: usize,
    vocab: &Vocabulary,
    pair: Option<(&CastContext<'_>, &AbstractSchema)>,
) -> Result<(), TestCaseError> {
    let before = base.clone();
    let mut rng = SmallRng::seed_from_u64(seed);
    // Both ways into the one constructor: a borrowed and an owned base.
    let mut overlay = if seed % 2 == 0 {
        DeltaDoc::new(base)
    } else {
        DeltaDoc::new(base.clone())
    };
    let mut copy = CopyDeltaDoc::new(base.clone());
    assert_same_state(&overlay, &copy)?;
    let mut script = Vec::new();
    for _ in 0..steps {
        for edit in next_step(&mut rng, &copy, base.node_count(), vocab) {
            script.push(edit.clone());
            let want = copy.apply(&edit);
            let got = overlay.apply(&edit);
            prop_assert_eq!(&got, &want, "{:?}", edit);
            assert_same_state(&overlay, &copy)?;
            if let Some((ctx, target)) = pair {
                let mods = ModsValidator::new(ctx).validate(&overlay);
                let full = FullValidator::new(target).validate(&copy.committed());
                prop_assert_eq!(mods.is_valid(), full.is_valid(), "after {:?}", script);
            }
            // A step's later edits name the node its first one inserts.
            if want.is_err() {
                break;
            }
        }
    }
    prop_assert_eq!(overlay.base(), &before);
    prop_assert_eq!(base, &before);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(96)))]

    #[test]
    fn overlay_matches_the_copy_on_random_trees(
        seed in any::<u64>(),
        n in 1usize..30,
        steps in 0usize..16,
    ) {
        let mut ab = Alphabet::new();
        let base = random_tree(seed, n, &mut ab);
        let vocab = Vocabulary {
            labels: vec![ab.intern("l1"), ab.intern("new")],
            texts: vec!["v", " ", "x"],
        };
        run_script(&base, seed, steps, &vocab, None)?;
    }

    #[test]
    fn overlay_matches_the_copy_and_full_validation_on_purchase_orders(
        seed in any::<u64>(),
        items in 0usize..4,
        steps in 0usize..10,
    ) {
        let mut pair = exp2();
        let mut rng = SmallRng::seed_from_u64(seed);
        let base = generate_document_with(&mut pair.session.alphabet, items, true, |_| {
            rng.gen_range(1..200)
        });
        let ab = &mut pair.session.alphabet;
        let vocab = Vocabulary {
            labels: ["item", "quantity", "productName", "billTo", "shipDate", "bogus"]
                .iter()
                .map(|l| ab.intern(l))
                .collect(),
            texts: vec!["7", "99", "150", "", " ", "Lamp"],
        };
        let ctx = CastContext::new(&pair.source, &pair.target, &pair.session.alphabet);
        run_script(&base, seed, steps, &vocab, Some((&ctx, &pair.target)))?;
    }
}
