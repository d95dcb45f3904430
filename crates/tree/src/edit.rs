//! Edits and the Δ-encoded tree of §3.3.
//!
//! The paper's update model: relabel a node, insert a new leaf, delete a
//! leaf. Updates are encoded *in place*: a [`DeltaDoc`] is the edited tree
//! `T'` where each node carries a [`DeltaState`] playing the role of the
//! `Δ_b^a` labels — `Relabeled{old: a}` is `Δ_b^a`, `Inserted` is `Δ_b^ε`,
//! `Deleted` is `Δ_ε^a`. Deleted leaves stay in the child list (they
//! contribute to `Proj_old`); discarding them and dropping the Δ marks
//! yields the post-edit document.
//!
//! Every edit is simultaneously recorded in a [`ModTrie`] keyed by Dewey
//! numbers, giving the validator its `modified(v)` oracle.

use crate::modtrie::ModTrie;
use crate::tree::{Doc, NodeId, NodeKind};
use schemacast_regex::Sym;
use std::fmt;

/// One update operation on an ordered labeled tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// Replace the element tag of `node` with `label` (the paper's "modify
    /// the label of a specified node").
    Relabel {
        /// The element to relabel.
        node: NodeId,
        /// The new tag.
        label: Sym,
    },
    /// Insert a new element leaf at `position` within `parent`'s child list
    /// (covers the paper's insert-before / insert-after / first-child).
    InsertElement {
        /// Parent element.
        parent: NodeId,
        /// Index in the current child list (deleted placeholders included).
        position: usize,
        /// Tag of the new leaf.
        label: Sym,
    },
    /// Insert a new text (χ) leaf.
    InsertText {
        /// Parent element.
        parent: NodeId,
        /// Index in the current child list.
        position: usize,
        /// The simple value.
        text: String,
    },
    /// Delete a leaf (or a node whose remaining children are all already
    /// deleted).
    DeleteLeaf {
        /// The node to delete.
        node: NodeId,
    },
    /// Replace the payload of a text node (a `Δ_χ^χ` modification).
    SetText {
        /// The text node.
        node: NodeId,
        /// The new simple value.
        text: String,
    },
}

/// Per-node Δ-state of an edited tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaState {
    /// Untouched by any edit (its *subtree* may still contain edits).
    #[default]
    Unchanged,
    /// `Δ_b^a`: label changed; `old` is the original tag.
    Relabeled {
        /// The pre-edit tag.
        old: Sym,
    },
    /// `Δ_b^ε`: node did not exist in the original tree.
    Inserted,
    /// `Δ_ε^a`: node removed; retained as a placeholder.
    Deleted,
    /// A text node whose value changed (`Δ_χ^χ`).
    TextChanged,
}

/// The projection of a node label into the old or new document
/// (the paper's `Proj_old` / `Proj_new`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjLabel {
    /// An element tag from Σ.
    Elem(Sym),
    /// The χ label of character data.
    Chi,
}

/// An error applying an [`Edit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// Deleting a node that still has live (non-deleted) children.
    DeleteNonLeaf(NodeId),
    /// Deleting the document root.
    DeleteRoot,
    /// Relabeling a text node (use [`Edit::SetText`]).
    RelabelText(NodeId),
    /// Setting text on an element node.
    SetTextOnElement(NodeId),
    /// Editing a node that was already deleted.
    EditDeleted(NodeId),
    /// Insert position past the end of the child list.
    PositionOutOfRange {
        /// Target parent.
        parent: NodeId,
        /// Requested position.
        position: usize,
        /// Current child count.
        len: usize,
    },
    /// Inserting under a text node.
    TextParent(NodeId),
    /// Inserting under a deleted node.
    DeletedParent(NodeId),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::DeleteNonLeaf(n) => {
                write!(f, "node {n:?} has live children and cannot be deleted")
            }
            EditError::DeleteRoot => write!(f, "the document root cannot be deleted"),
            EditError::RelabelText(n) => write!(f, "node {n:?} is a text node; use SetText"),
            EditError::SetTextOnElement(n) => write!(f, "node {n:?} is an element, not text"),
            EditError::EditDeleted(n) => write!(f, "node {n:?} was already deleted"),
            EditError::PositionOutOfRange {
                parent,
                position,
                len,
            } => write!(
                f,
                "position {position} out of range for parent {parent:?} with {len} children"
            ),
            EditError::TextParent(n) => write!(f, "text node {n:?} cannot have children"),
            EditError::DeletedParent(n) => write!(f, "deleted node {n:?} cannot receive children"),
        }
    }
}

impl std::error::Error for EditError {}

/// A Δ-encoded edited document: the tree `T'`, per-node Δ-states, and the
/// modification trie.
#[derive(Debug, Clone)]
pub struct DeltaDoc {
    doc: Doc,
    delta: Vec<DeltaState>,
    trie: ModTrie,
    /// Reusable Dewey-path buffer: edits mark the trie by path, and a long
    /// script would otherwise allocate one `Vec` per edit.
    path_buf: Vec<u32>,
}

impl DeltaDoc {
    /// Starts an edit session over a document (takes ownership; the
    /// original can be kept by cloning first).
    pub fn new(doc: Doc) -> DeltaDoc {
        let delta = vec![DeltaState::Unchanged; doc.node_count()];
        DeltaDoc {
            doc,
            delta,
            trie: ModTrie::new(),
            path_buf: Vec::new(),
        }
    }

    /// Marks `node`'s Dewey path in the trie through the reusable buffer.
    fn mark_node(&mut self, node: NodeId) {
        self.doc.dewey_into(node, &mut self.path_buf);
        self.trie.mark(&self.path_buf);
    }

    /// The edited tree (deleted placeholders included).
    pub fn doc(&self) -> &Doc {
        &self.doc
    }

    /// The modification trie (`modified(v)` oracle).
    pub fn trie(&self) -> &ModTrie {
        &self.trie
    }

    /// The Δ-state of a node.
    pub fn delta(&self, id: NodeId) -> DeltaState {
        self.delta
            .get(id.index())
            .copied()
            .unwrap_or(DeltaState::Unchanged)
    }

    /// Whether any edit was recorded anywhere.
    pub fn any_modifications(&self) -> bool {
        !self.trie.is_empty()
    }

    /// `Proj_new`: the node's label in the edited document, or `None` if the
    /// node was deleted.
    pub fn proj_new(&self, id: NodeId) -> Option<ProjLabel> {
        if matches!(self.delta(id), DeltaState::Deleted) {
            return None;
        }
        Some(match self.doc.kind(id) {
            NodeKind::Element(s) => ProjLabel::Elem(*s),
            NodeKind::Text(_) => ProjLabel::Chi,
        })
    }

    /// `Proj_old`: the node's label in the original document, or `None` if
    /// the node was inserted by an edit.
    pub fn proj_old(&self, id: NodeId) -> Option<ProjLabel> {
        match self.delta(id) {
            DeltaState::Inserted => None,
            DeltaState::Relabeled { old } => Some(ProjLabel::Elem(old)),
            _ => Some(match self.doc.kind(id) {
                NodeKind::Element(s) => ProjLabel::Elem(*s),
                NodeKind::Text(_) => ProjLabel::Chi,
            }),
        }
    }

    /// Children as they stand in the edited document (deleted placeholders
    /// filtered out).
    pub fn new_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.doc
            .children(id)
            .iter()
            .copied()
            .filter(|&c| !matches!(self.delta(c), DeltaState::Deleted))
    }

    /// Children as they stood in the original document (inserted nodes
    /// filtered out).
    pub fn old_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.doc
            .children(id)
            .iter()
            .copied()
            .filter(|&c| !matches!(self.delta(c), DeltaState::Inserted))
    }

    /// Applies one edit, updating tree, Δ-states, and trie.
    pub fn apply(&mut self, edit: &Edit) -> Result<(), EditError> {
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

    /// Applies a whole script, stopping at the first failure.
    pub fn apply_all(&mut self, edits: &[Edit]) -> Result<(), EditError> {
        for e in edits {
            self.apply(e)?;
        }
        Ok(())
    }

    fn relabel(&mut self, node: NodeId, label: Sym) -> Result<(), EditError> {
        if self.delta(node) == DeltaState::Deleted {
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
        if self.delta(node) == DeltaState::Deleted {
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
        if self.delta(parent) == DeltaState::Deleted {
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
        // Later siblings' Dewey numbers shift up by one.
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
        if self.delta(node) == DeltaState::Deleted {
            return Err(EditError::EditDeleted(node));
        }
        if self.doc.parent(node).is_none() {
            return Err(EditError::DeleteRoot);
        }
        // The paper deletes *leaves*; we additionally allow a node whose
        // remaining children are all deleted placeholders (the natural state
        // after deleting its children one by one).
        if self.new_children(node).next().is_some() {
            return Err(EditError::DeleteNonLeaf(node));
        }
        if matches!(self.delta(node), DeltaState::Inserted) {
            // Insert-then-delete cancels out: physically remove the node.
            let parent_path = self.doc.dewey(self.doc.parent(node).expect("not root"));
            let pos = self.doc.child_index(node) as u32;
            // Drop every mark recorded at or under the node, then shift.
            let mut node_path = parent_path.clone();
            node_path.push(pos);
            self.trie.unmark(&node_path);
            // Descendant marks of an inserted leaf subtree: unmark those too
            // by removing the subtree's trie branch (all its nodes are
            // Inserted and physically removed below).
            let subtree = self.subtree_nodes(node);
            for &desc in &subtree {
                self.doc.dewey_into(desc, &mut self.path_buf);
                self.trie.unmark(&self.path_buf);
            }
            // Its nodes are inserted leaves-at-insertion-time: detach them
            // bottom-up, each after all of its descendants.
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

    /// Materializes the post-edit document: deleted placeholders dropped,
    /// Δ-states forgotten. Nodes are numbered in document order.
    pub fn committed(&self) -> Doc {
        let root = self.doc.root();
        let root_label = self.doc.label(root).expect("root is an element");
        let mut out = Doc::new(root_label);
        // (node of the edited tree, its parent in `out`), next in document
        // order on top.
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

enum Insertion {
    Element(Sym),
    Text(String),
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_regex::Alphabet;

    fn sample() -> (DeltaDoc, Alphabet, Vec<NodeId>) {
        let mut ab = Alphabet::new();
        let po = ab.intern("po");
        let item = ab.intern("item");
        let mut doc = Doc::new(po);
        let i0 = doc.add_element(doc.root(), item);
        let i1 = doc.add_element(doc.root(), item);
        let i2 = doc.add_element(doc.root(), item);
        let nodes = vec![doc.root(), i0, i1, i2];
        (DeltaDoc::new(doc), ab, nodes)
    }

    #[test]
    fn relabel_records_old_label() {
        let (mut dd, mut ab, nodes) = sample();
        let gift = ab.intern("gift");
        dd.apply(&Edit::Relabel {
            node: nodes[1],
            label: gift,
        })
        .unwrap();
        assert_eq!(
            dd.delta(nodes[1]),
            DeltaState::Relabeled {
                old: ab.lookup("item").unwrap()
            }
        );
        assert_eq!(dd.proj_new(nodes[1]), Some(ProjLabel::Elem(gift)));
        assert_eq!(
            dd.proj_old(nodes[1]),
            Some(ProjLabel::Elem(ab.lookup("item").unwrap()))
        );
        assert!(dd.trie().subtree_modified(&[0]));
        assert!(!dd.trie().subtree_modified(&[1]));

        // Relabeling again keeps the *original* old label.
        let other = ab.intern("other");
        dd.apply(&Edit::Relabel {
            node: nodes[1],
            label: other,
        })
        .unwrap();
        assert_eq!(
            dd.delta(nodes[1]),
            DeltaState::Relabeled {
                old: ab.lookup("item").unwrap()
            }
        );
    }

    #[test]
    fn delete_keeps_placeholder() {
        let (mut dd, _ab, nodes) = sample();
        dd.apply(&Edit::DeleteLeaf { node: nodes[2] }).unwrap();
        assert_eq!(dd.delta(nodes[2]), DeltaState::Deleted);
        assert_eq!(dd.proj_new(nodes[2]), None);
        assert!(dd.proj_old(nodes[2]).is_some());
        // new view: two items; old view: three.
        assert_eq!(dd.new_children(dd.doc().root()).count(), 2);
        assert_eq!(dd.old_children(dd.doc().root()).count(), 3);
        // committed document drops the placeholder.
        assert_eq!(dd.committed().children(NodeId(0)).len(), 2);
    }

    #[test]
    fn insert_shifts_sibling_marks() {
        let (mut dd, mut ab, nodes) = sample();
        let gift = ab.intern("gift");
        // Mark item at position 2 (relabel), then insert at position 0.
        dd.apply(&Edit::Relabel {
            node: nodes[3],
            label: gift,
        })
        .unwrap();
        assert!(dd.trie().subtree_modified(&[2]));
        dd.apply(&Edit::InsertElement {
            parent: nodes[0],
            position: 0,
            label: gift,
        })
        .unwrap();
        // The relabeled node now sits at position 3.
        assert!(dd.trie().subtree_modified(&[3]));
        assert!(!dd.trie().subtree_modified(&[2]));
        assert!(dd.trie().subtree_modified(&[0])); // the insertion itself
        assert_eq!(dd.new_children(nodes[0]).count(), 4);
        assert_eq!(dd.old_children(nodes[0]).count(), 3);
    }

    #[test]
    fn insert_then_delete_cancels() {
        let (mut dd, mut ab, nodes) = sample();
        let gift = ab.intern("gift");
        dd.apply(&Edit::InsertElement {
            parent: nodes[0],
            position: 1,
            label: gift,
        })
        .unwrap();
        let inserted = dd.doc().children(nodes[0])[1];
        dd.apply(&Edit::DeleteLeaf { node: inserted }).unwrap();
        assert!(!dd.any_modifications());
        assert_eq!(dd.doc().children(nodes[0]).len(), 3);
        assert_eq!(dd.committed().children(NodeId(0)).len(), 3);
    }

    #[test]
    fn delete_errors() {
        let (mut dd, _ab, nodes) = sample();
        assert_eq!(
            dd.apply(&Edit::DeleteLeaf { node: nodes[0] }),
            Err(EditError::DeleteRoot)
        );
        dd.apply(&Edit::DeleteLeaf { node: nodes[1] }).unwrap();
        assert_eq!(
            dd.apply(&Edit::DeleteLeaf { node: nodes[1] }),
            Err(EditError::EditDeleted(nodes[1]))
        );
    }

    #[test]
    fn delete_parent_after_children() {
        let mut ab = Alphabet::new();
        let a = ab.intern("a");
        let b = ab.intern("b");
        let mut doc = Doc::new(a);
        let child = doc.add_element(doc.root(), b);
        let grand = doc.add_element(child, b);
        let mut dd = DeltaDoc::new(doc);
        // Parent with a live child cannot be deleted…
        assert_eq!(
            dd.apply(&Edit::DeleteLeaf { node: child }),
            Err(EditError::DeleteNonLeaf(child))
        );
        // …but after the child is deleted, it can.
        dd.apply(&Edit::DeleteLeaf { node: grand }).unwrap();
        dd.apply(&Edit::DeleteLeaf { node: child }).unwrap();
        assert_eq!(dd.new_children(dd.doc().root()).count(), 0);
        assert_eq!(dd.committed().node_count(), 1);
    }

    #[test]
    fn set_text_marks_chi_change() {
        let mut ab = Alphabet::new();
        let q = ab.intern("quantity");
        let mut doc = Doc::new(q);
        let t = doc.add_text(doc.root(), "42");
        let mut dd = DeltaDoc::new(doc);
        dd.apply(&Edit::SetText {
            node: t,
            text: "199".into(),
        })
        .unwrap();
        assert_eq!(dd.delta(t), DeltaState::TextChanged);
        assert_eq!(dd.proj_new(t), Some(ProjLabel::Chi));
        assert_eq!(dd.proj_old(t), Some(ProjLabel::Chi));
        assert_eq!(dd.doc().text(t), Some("199"));
        assert!(dd.trie().subtree_modified(&[]));
    }

    #[test]
    fn committed_round_trip_no_edits() {
        let (dd, _ab, _) = sample();
        let out = dd.committed();
        assert_eq!(out.node_count(), 4);
        assert_eq!(out.children(out.root()).len(), 3);
    }
}
