//! Edits and the Δ-encoded tree of §3.3.
//!
//! The paper's update model: relabel a node, insert a new leaf, delete a
//! leaf. A [`DeltaDoc`] records an edit script as an overlay on the
//! original tree `T`, which it borrows (or owns) and never copies or
//! changes. Its read accessors answer for the edited tree `T'`, where each
//! node carries a [`DeltaState`] playing the role of the `Δ_b^a` labels —
//! `Relabeled{old: a}` is `Δ_b^a`, `Inserted` is `Δ_b^ε`, `Deleted` is
//! `Δ_ε^a`. Deleted nodes stay in their parent's child list (they
//! contribute to `Proj_old`); [`DeltaDoc::committed`] discards them and the
//! Δ marks to give the post-edit document.
//!
//! The overlay keeps one `Copy` slot per node id, the Δ-state and where
//! the node's overlay entry is, so every question the §3.3 loop asks about
//! a node costs one array load. An overlay entry holds what the edits
//! changed: a new label or text, an inserted node's kind and parent, and
//! the child list of a parent whose children changed. Inserted nodes are
//! numbered from the base's node count, in insertion order. Everything
//! else is read from the base, so applying a script copies no node data.
//!
//! Every edit is also recorded in a [`ModTrie`] keyed by Dewey numbers,
//! giving the validator its `modified(v)` oracle.

use crate::modtrie::ModTrie;
use crate::tree::{Doc, NodeId, NodeKind};
use schemacast_regex::Sym;
use schemacast_xml::is_ignorable_whitespace;
use std::borrow::Cow;
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
    /// Editing a node that was already deleted (a deleted placeholder, or
    /// an inserted node whose insertion a delete cancelled).
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
    /// Inserting under a deleted node (as for [`EditError::EditDeleted`]).
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

/// A Δ-encoded edited document: an overlay of edits on a base document,
/// with per-node Δ-states and the modification trie.
///
/// The read accessors ([`kind`](Self::kind), [`children`](Self::children),
/// [`parent`](Self::parent), ...) answer for the edited tree, deleted
/// placeholders included; [`base`](Self::base) is the unedited document.
#[derive(Debug, Clone)]
pub struct DeltaDoc<'d> {
    base: Cow<'d, Doc>,
    /// One slot per node id: the base's nodes, then inserted nodes.
    slots: Vec<Slot>,
    /// What the edits changed, for the nodes whose slot points here.
    overlays: Vec<Overlay>,
    trie: ModTrie,
    /// Reusable Dewey-path buffer: edits mark the trie by path, and a long
    /// script would otherwise allocate one `Vec` per edit.
    path_buf: Vec<u32>,
}

/// A node's Δ-state and the index of its overlay entry.
#[derive(Debug, Clone, Copy)]
struct Slot {
    delta: DeltaState,
    /// Index into `DeltaDoc::overlays`, or [`NO_OVERLAY`].
    overlay: u32,
}

/// The overlay index of a node no edit has touched.
const NO_OVERLAY: u32 = u32::MAX;

/// What the edits changed about one node.
#[derive(Debug, Clone, Default)]
struct Overlay {
    /// The node's kind in the edited tree, once an edit set it: a new
    /// label or text, or an inserted node's kind.
    kind: Option<NodeKind>,
    /// An inserted node's parent, `None` once its insertion is cancelled.
    /// Base nodes keep their base parent.
    parent: Option<NodeId>,
    /// The child list, once an insertion under the node changed it.
    children: Option<Vec<NodeId>>,
}

/// The overlay entry of `id`, made empty on first use. A free function so
/// that callers can hold the base document borrowed meanwhile.
fn overlay_entry<'o>(
    slots: &mut [Slot],
    overlays: &'o mut Vec<Overlay>,
    id: NodeId,
) -> &'o mut Overlay {
    let slot = &mut slots[id.index()];
    if slot.overlay == NO_OVERLAY {
        slot.overlay = overlays.len() as u32;
        overlays.push(Overlay::default());
    }
    &mut overlays[slot.overlay as usize]
}

impl<'d> DeltaDoc<'d> {
    /// Starts an edit session over `base`, borrowed (`&Doc`) or owned
    /// (`Doc`). The base is read through, never copied or changed.
    pub fn new(base: impl Into<Cow<'d, Doc>>) -> DeltaDoc<'d> {
        let base = base.into();
        let unchanged = Slot {
            delta: DeltaState::Unchanged,
            overlay: NO_OVERLAY,
        };
        DeltaDoc {
            slots: vec![unchanged; base.node_count()],
            base,
            overlays: Vec::new(),
            trie: ModTrie::new(),
            path_buf: Vec::new(),
        }
    }

    /// The unedited document the overlay reads through.
    pub fn base(&self) -> &Doc {
        &self.base
    }

    /// The modification trie (`modified(v)` oracle).
    pub fn trie(&self) -> &ModTrie {
        &self.trie
    }

    /// The Δ-state of a node.
    pub fn delta(&self, id: NodeId) -> DeltaState {
        self.slots
            .get(id.index())
            .map_or(DeltaState::Unchanged, |slot| slot.delta)
    }

    /// Whether any edit was recorded anywhere.
    pub fn any_modifications(&self) -> bool {
        !self.trie.is_empty()
    }

    fn overlay(&self, id: NodeId) -> Option<&Overlay> {
        self.overlays.get(self.slots[id.index()].overlay as usize)
    }

    fn overlay_mut(&mut self, id: NodeId) -> &mut Overlay {
        overlay_entry(&mut self.slots, &mut self.overlays, id)
    }

    /// Whether `id` numbers a node an edit inserted (cancelled or not).
    fn is_inserted_id(&self, id: NodeId) -> bool {
        id.index() >= self.base.node_count()
    }

    /// Whether `id` names a node that edits removed: a deleted
    /// placeholder, or an insertion that a delete cancelled, which left
    /// the tree. No further edit may name it.
    fn is_removed(&self, id: NodeId) -> bool {
        match self.delta(id) {
            DeltaState::Deleted => true,
            DeltaState::Inserted => self.parent(id).is_none(),
            _ => false,
        }
    }

    /// The root of the edited tree: the base's root, which no edit removes.
    pub fn root(&self) -> NodeId {
        self.base.root()
    }

    /// Number of node ids: the base's nodes and every inserted node,
    /// cancelled insertions included.
    pub fn node_count(&self) -> usize {
        self.slots.len()
    }

    /// The node's kind in the edited tree.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        match self.overlay(id).and_then(|o| o.kind.as_ref()) {
            Some(kind) => kind,
            None => self.base.kind(id),
        }
    }

    /// The element label in the edited tree, or `None` for text nodes.
    pub fn label(&self, id: NodeId) -> Option<Sym> {
        match self.kind(id) {
            NodeKind::Element(s) => Some(*s),
            NodeKind::Text(_) => None,
        }
    }

    /// The text payload in the edited tree, or `None` for elements.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match self.kind(id) {
            NodeKind::Text(t) => Some(t),
            NodeKind::Element(_) => None,
        }
    }

    /// The node's parent (`None` for the root and for a cancelled
    /// insertion).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        if self.is_inserted_id(id) {
            self.overlay(id).and_then(|o| o.parent)
        } else {
            self.base.parent(id)
        }
    }

    /// The node's children in the edited tree, deleted placeholders
    /// included.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        match self.overlay(id).and_then(|o| o.children.as_deref()) {
            Some(children) => children,
            None if self.is_inserted_id(id) => &[],
            None => self.base.children(id),
        }
    }

    /// Whether the node is a whitespace-only text node in the edited tree.
    pub fn is_ignorable_ws(&self, id: NodeId) -> bool {
        matches!(self.kind(id), NodeKind::Text(t) if is_ignorable_whitespace(t))
    }

    /// The position of `id` among its parent's children. The root, and a
    /// cancelled insertion, have index 0.
    fn child_index(&self, id: NodeId) -> usize {
        match self.parent(id) {
            None => 0,
            Some(p) => self
                .children(p)
                .iter()
                .position(|&c| c == id)
                .expect("child listed under parent"),
        }
    }

    /// The Dewey number of a node in the edited tree.
    pub fn dewey(&self, id: NodeId) -> Vec<u32> {
        let mut path = Vec::new();
        self.dewey_into(id, &mut path);
        path
    }

    /// [`dewey`](Self::dewey) into a caller-provided buffer (cleared
    /// first).
    pub fn dewey_into(&self, id: NodeId, path: &mut Vec<u32>) {
        path.clear();
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            path.push(self.child_index(cur) as u32);
            cur = p;
        }
        path.reverse();
    }

    /// Lazy pre-order traversal of the edited tree from the root, deleted
    /// placeholders included (O(depth × fanout) state).
    pub fn preorder_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut stack = vec![self.root()];
        std::iter::from_fn(move || {
            let id = stack.pop()?;
            stack.extend(self.children(id).iter().rev());
            Some(id)
        })
    }

    /// `Proj_new`: the node's label in the edited document, or `None` if the
    /// node was deleted.
    pub fn proj_new(&self, id: NodeId) -> Option<ProjLabel> {
        if matches!(self.delta(id), DeltaState::Deleted) {
            return None;
        }
        Some(match self.kind(id) {
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
            _ => Some(match self.kind(id) {
                NodeKind::Element(s) => ProjLabel::Elem(*s),
                NodeKind::Text(_) => ProjLabel::Chi,
            }),
        }
    }

    /// Children as they stand in the edited document (deleted placeholders
    /// filtered out).
    pub fn new_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id)
            .iter()
            .copied()
            .filter(|&c| !matches!(self.delta(c), DeltaState::Deleted))
    }

    /// Children as they stood in the original document (inserted nodes
    /// filtered out).
    pub fn old_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id)
            .iter()
            .copied()
            .filter(|&c| !matches!(self.delta(c), DeltaState::Inserted))
    }

    /// Applies one edit, updating the overlay, Δ-states, and trie.
    pub fn apply(&mut self, edit: &Edit) -> Result<(), EditError> {
        match edit {
            Edit::Relabel { node, label } => self.relabel(*node, *label),
            Edit::InsertElement {
                parent,
                position,
                label,
            } => self.insert(*parent, *position, NodeKind::Element(*label)),
            Edit::InsertText {
                parent,
                position,
                text,
            } => self.insert(*parent, *position, NodeKind::Text(text.clone())),
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

    /// Marks `node`'s Dewey path in the trie through the reusable buffer.
    fn mark_node(&mut self, node: NodeId) {
        let mut path = std::mem::take(&mut self.path_buf);
        self.dewey_into(node, &mut path);
        self.trie.mark(&path);
        self.path_buf = path;
    }

    /// The child list of `id` in the overlay, copied from the base on
    /// first change.
    fn children_mut(&mut self, id: NodeId) -> &mut Vec<NodeId> {
        let base: &Doc = &self.base;
        let inherited = id.index() < base.node_count();
        overlay_entry(&mut self.slots, &mut self.overlays, id)
            .children
            .get_or_insert_with(|| {
                if inherited {
                    base.children(id).to_vec()
                } else {
                    Vec::new()
                }
            })
    }

    fn relabel(&mut self, node: NodeId, label: Sym) -> Result<(), EditError> {
        if self.is_removed(node) {
            return Err(EditError::EditDeleted(node));
        }
        let delta = self.delta(node);
        let NodeKind::Element(old) = *self.kind(node) else {
            return Err(EditError::RelabelText(node));
        };
        self.overlay_mut(node).kind = Some(NodeKind::Element(label));
        self.slots[node.index()].delta = match delta {
            DeltaState::Inserted | DeltaState::Relabeled { .. } => delta,
            _ => DeltaState::Relabeled { old },
        };
        self.mark_node(node);
        Ok(())
    }

    fn set_text(&mut self, node: NodeId, text: String) -> Result<(), EditError> {
        if self.is_removed(node) {
            return Err(EditError::EditDeleted(node));
        }
        if !matches!(self.kind(node), NodeKind::Text(_)) {
            return Err(EditError::SetTextOnElement(node));
        }
        self.overlay_mut(node).kind = Some(NodeKind::Text(text));
        if self.delta(node) != DeltaState::Inserted {
            self.slots[node.index()].delta = DeltaState::TextChanged;
        }
        self.mark_node(node);
        Ok(())
    }

    fn insert(&mut self, parent: NodeId, position: usize, kind: NodeKind) -> Result<(), EditError> {
        if self.is_removed(parent) {
            return Err(EditError::DeletedParent(parent));
        }
        if !matches!(self.kind(parent), NodeKind::Element(_)) {
            return Err(EditError::TextParent(parent));
        }
        let len = self.children(parent).len();
        if position > len {
            return Err(EditError::PositionOutOfRange {
                parent,
                position,
                len,
            });
        }
        let mut path = std::mem::take(&mut self.path_buf);
        self.dewey_into(parent, &mut path);
        // Later siblings' Dewey numbers shift up by one.
        self.trie.shift_children(&path, position as u32, 1);
        path.push(position as u32);
        self.trie.mark(&path);
        self.path_buf = path;
        let id = NodeId(self.slots.len() as u32);
        self.slots.push(Slot {
            delta: DeltaState::Inserted,
            overlay: self.overlays.len() as u32,
        });
        self.overlays.push(Overlay {
            kind: Some(kind),
            parent: Some(parent),
            children: None,
        });
        self.children_mut(parent).insert(position, id);
        Ok(())
    }

    fn delete(&mut self, node: NodeId) -> Result<(), EditError> {
        if self.is_removed(node) {
            return Err(EditError::EditDeleted(node));
        }
        let delta = self.delta(node);
        let Some(parent) = self.parent(node) else {
            return Err(EditError::DeleteRoot);
        };
        // The paper deletes *leaves*; we additionally allow a node whose
        // remaining children are all deleted placeholders (the natural state
        // after deleting its children one by one).
        if self.new_children(node).next().is_some() {
            return Err(EditError::DeleteNonLeaf(node));
        }
        if delta != DeltaState::Inserted {
            self.slots[node.index()].delta = DeltaState::Deleted;
            self.mark_node(node);
            return Ok(());
        }
        // Insert-then-delete cancels out. An inserted node's children are
        // inserted too, and deleting one cancels it, so the node is a leaf
        // here: detach it, drop its mark, and shift its later siblings'
        // marks down.
        let pos = self.child_index(node);
        let mut path = std::mem::take(&mut self.path_buf);
        self.dewey_into(parent, &mut path);
        path.push(pos as u32);
        self.trie.unmark(&path);
        path.pop();
        self.trie.shift_children(&path, pos as u32 + 1, -1);
        self.path_buf = path;
        self.children_mut(parent).remove(pos);
        self.overlay_mut(node).parent = None;
        Ok(())
    }

    /// Materializes the post-edit document: deleted placeholders dropped,
    /// Δ-states forgotten. Nodes are numbered in document order.
    pub fn committed(&self) -> Doc {
        let root = self.root();
        let root_label = self.label(root).expect("root is an element");
        let mut out = Doc::new(root_label);
        // (node of the edited tree, its parent in `out`), next in document
        // order on top.
        let mut work: Vec<(NodeId, NodeId)> = Vec::new();
        let live_children = |from: NodeId, to: NodeId| {
            self.children(from)
                .iter()
                .rev()
                .filter(|&&c| !matches!(self.delta(c), DeltaState::Deleted))
                .map(move |&c| (c, to))
        };
        work.extend(live_children(root, out.root()));
        while let Some((node, parent)) = work.pop() {
            match self.kind(node) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_regex::Alphabet;

    fn sample() -> (DeltaDoc<'static>, Alphabet, Vec<NodeId>) {
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
        assert_eq!(dd.new_children(dd.root()).count(), 2);
        assert_eq!(dd.old_children(dd.root()).count(), 3);
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
        let inserted = dd.children(nodes[0])[1];
        dd.apply(&Edit::DeleteLeaf { node: inserted }).unwrap();
        assert!(!dd.any_modifications());
        assert_eq!(dd.children(nodes[0]).len(), 3);
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
        assert_eq!(dd.new_children(dd.root()).count(), 0);
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
        assert_eq!(dd.text(t), Some("199"));
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
