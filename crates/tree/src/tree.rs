//! Ordered labeled trees — the paper's document abstraction.
//!
//! A [`Doc`] is an arena of nodes: elements carry an interned label from Σ,
//! text nodes are the χ-labeled leaves of Definition 1. Conversion to and
//! from the `schemacast-xml` DOM handles whitespace policy: the paper's
//! experiment documents are indented, and Xerces-style validators skip (but
//! still *touch*) ignorable whitespace, which matters when reproducing the
//! node-visit counts of Table 3. What counts as ignorable is
//! [`schemacast_xml::is_ignorable_whitespace`], the streaming validator's
//! rule too.

use schemacast_regex::{Alphabet, Sym};
use schemacast_xml::{is_ignorable_whitespace, XmlElement, XmlNode};
use std::borrow::Cow;

/// Index of a node within a [`Doc`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Dense index of the node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a node is: an element (Σ-labeled) or character data (a χ leaf).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// An element with an interned tag.
    Element(Sym),
    /// Character data. The paper's χ label; the payload is the simple value.
    Text(String),
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    kind: NodeKind,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// How to treat whitespace-only text when importing XML.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WhitespaceMode {
    /// Drop whitespace-only text nodes that sit between elements (the
    /// standard "ignorable whitespace" policy).
    #[default]
    Trim,
    /// Keep every text node, mirroring a raw DOM — used to reproduce the
    /// paper's node-visit accounting, where indentation text is real.
    Preserve,
}

/// An ordered labeled tree over a shared [`Alphabet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Doc {
    nodes: Vec<Node>,
    root: NodeId,
}

impl Doc {
    /// Creates a document whose root element has label `root_label`.
    pub fn new(root_label: Sym) -> Doc {
        Doc {
            nodes: vec![Node {
                kind: NodeKind::Element(root_label),
                parent: None,
                children: Vec::new(),
            }],
            root: NodeId(0),
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Total number of nodes (elements and text).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of element nodes.
    pub fn element_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Element(_)))
            .count()
    }

    /// The node's kind.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.index()].kind
    }

    /// The element label, or `None` for text nodes.
    pub fn label(&self, id: NodeId) -> Option<Sym> {
        match self.nodes[id.index()].kind {
            NodeKind::Element(s) => Some(s),
            NodeKind::Text(_) => None,
        }
    }

    /// The text payload, or `None` for elements.
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match &self.nodes[id.index()].kind {
            NodeKind::Text(t) => Some(t.as_str()),
            NodeKind::Element(_) => None,
        }
    }

    /// The node's parent (`None` for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// The node's children, in order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Whether `id` has no children.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.nodes[id.index()].children.is_empty()
    }

    /// Whether the node is a text node of ignorable whitespace
    /// ([`is_ignorable_whitespace`]).
    pub fn is_ignorable_ws(&self, id: NodeId) -> bool {
        matches!(&self.nodes[id.index()].kind,
                 NodeKind::Text(t) if is_ignorable_whitespace(t))
    }

    /// Children relevant for validation: elements and non-whitespace text.
    /// (Indentation whitespace is ignorable in element content.)
    pub fn validation_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id)
            .iter()
            .copied()
            .filter(move |&c| !self.is_ignorable_ws(c))
    }

    /// The position of `id` among its parent's children. Root has index 0.
    pub fn child_index(&self, id: NodeId) -> usize {
        match self.parent(id) {
            None => 0,
            Some(p) => self
                .children(p)
                .iter()
                .position(|&c| c == id)
                .expect("child listed under parent"),
        }
    }

    /// The Dewey decimal number of a node: the child-index path from the
    /// root (the root's number is the empty path).
    pub fn dewey(&self, id: NodeId) -> Vec<u32> {
        let mut path = Vec::new();
        self.dewey_into(id, &mut path);
        path
    }

    /// [`dewey`](Self::dewey) into a caller-provided buffer (cleared
    /// first), so hot loops can compute many paths with one allocation.
    pub fn dewey_into(&self, id: NodeId, path: &mut Vec<u32>) {
        path.clear();
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            path.push(self.child_index(cur) as u32);
            cur = p;
        }
        path.reverse();
    }

    /// Appends a child element to `parent`, returning its id.
    pub fn add_element(&mut self, parent: NodeId, label: Sym) -> NodeId {
        let len = self.children(parent).len();
        self.insert_element(parent, len, label)
    }

    /// Inserts a child element at `position` within `parent`'s child list.
    ///
    /// # Panics
    /// Panics if `position` exceeds the current number of children or
    /// `parent` is a text node.
    pub fn insert_element(&mut self, parent: NodeId, position: usize, label: Sym) -> NodeId {
        assert!(
            matches!(self.nodes[parent.index()].kind, NodeKind::Element(_)),
            "text nodes cannot have children"
        );
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Element(label),
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.insert(position, id);
        id
    }

    /// Appends a text child to `parent`.
    pub fn add_text(&mut self, parent: NodeId, text: impl Into<String>) -> NodeId {
        let len = self.children(parent).len();
        self.insert_text(parent, len, text)
    }

    /// Inserts a text child at `position`.
    pub fn insert_text(
        &mut self,
        parent: NodeId,
        position: usize,
        text: impl Into<String>,
    ) -> NodeId {
        assert!(
            matches!(self.nodes[parent.index()].kind, NodeKind::Element(_)),
            "text nodes cannot have children"
        );
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Text(text.into()),
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.index()].children.insert(position, id);
        id
    }

    /// Changes an element's label. Panics on text nodes.
    pub fn set_label(&mut self, id: NodeId, label: Sym) {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Element(s) => *s = label,
            NodeKind::Text(_) => panic!("cannot relabel a text node"),
        }
    }

    /// Replaces a text node's payload. Panics on elements.
    pub fn set_text(&mut self, id: NodeId, text: impl Into<String>) {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Text(t) => *t = text.into(),
            NodeKind::Element(_) => panic!("cannot set text of an element"),
        }
    }

    /// Detaches a leaf from its parent. The arena slot is retained (ids stay
    /// stable) but the node is no longer reachable.
    ///
    /// # Panics
    /// Panics if the node has children or is the root.
    pub fn remove_leaf(&mut self, id: NodeId) {
        assert!(self.is_leaf(id), "only leaves may be removed");
        let parent = self.parent(id).expect("cannot remove the root");
        let idx = self.child_index(id);
        self.nodes[parent.index()].children.remove(idx);
        self.nodes[id.index()].parent = None;
    }

    /// Pre-order traversal from the root, materialized.
    ///
    /// Prefer [`preorder_iter`](Self::preorder_iter) where the ids are only
    /// walked once — it visits lazily with O(depth) state instead of
    /// allocating an O(n) buffer.
    pub fn preorder(&self) -> Vec<NodeId> {
        self.preorder_iter().collect()
    }

    /// Lazy pre-order traversal from the root (O(depth) state, no O(n)
    /// buffer).
    pub fn preorder_iter(&self) -> Preorder<'_> {
        Preorder {
            doc: self,
            stack: vec![self.root],
        }
    }

    /// Number of nodes in the subtree rooted at `id` (inclusive). Walks an
    /// explicit stack, so depth never consumes call-stack frames.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        let mut size = 0;
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            size += 1;
            stack.extend_from_slice(self.children(n));
        }
        size
    }

    /// Imports an XML element tree, interning labels into `alphabet`.
    /// Nodes are numbered in document order. Walks an explicit stack, so
    /// depth never consumes call-stack frames.
    pub fn from_xml(root: &XmlElement, alphabet: &mut Alphabet, ws: WhitespaceMode) -> Doc {
        let mut doc = Doc::new(alphabet.intern(&root.name));
        let trim = ws == WhitespaceMode::Trim;
        let mut stack = vec![import_frame(doc.root, root, trim)];
        while let Some((parent, rest, drop_whitespace)) = stack.last_mut() {
            let parent = *parent;
            match rest.next() {
                Some(XmlNode::Element(e)) => {
                    let id = doc.add_element(parent, alphabet.intern(&e.name));
                    stack.push(import_frame(id, e, trim));
                }
                Some(XmlNode::Text(t)) => {
                    if !(*drop_whitespace && is_ignorable_whitespace(t)) {
                        doc.add_text(parent, t.clone());
                    }
                }
                None => {
                    stack.pop();
                }
            }
        }
        doc
    }

    /// Exports back to the XML DOM, resolving labels through `alphabet`.
    /// Walks an explicit stack, so depth never consumes call-stack frames.
    pub fn to_xml(&self, alphabet: &Alphabet) -> XmlElement {
        let open = |id: NodeId, label: Sym| {
            (
                XmlElement::new(alphabet.name(label)),
                self.children(id).iter(),
            )
        };
        let root_label = self.label(self.root).expect("the root is an element");
        let (mut element, mut rest) = open(self.root, root_label);
        // The open ancestors of `element`, each with its children still to
        // export.
        let mut ancestors = Vec::new();
        loop {
            match rest.next() {
                Some(&c) => match self.kind(c) {
                    NodeKind::Element(label) => {
                        let (child, child_rest) = open(c, *label);
                        ancestors.push((
                            std::mem::replace(&mut element, child),
                            std::mem::replace(&mut rest, child_rest),
                        ));
                    }
                    NodeKind::Text(t) => element.children.push(XmlNode::Text(t.clone())),
                },
                None => match ancestors.pop() {
                    Some((parent, parent_rest)) => {
                        let done = std::mem::replace(&mut element, parent);
                        element.children.push(XmlNode::Element(done));
                        rest = parent_rest;
                    }
                    None => return element,
                },
            }
        }
    }
}

/// Lazy pre-order traversal over a [`Doc`], from
/// [`Doc::preorder_iter`]. Holds a stack of pending siblings (O(depth ×
/// fanout) worst case, O(depth) typical) instead of materializing all ids.
pub struct Preorder<'d> {
    doc: &'d Doc,
    stack: Vec<NodeId>,
}

impl Iterator for Preorder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        for &c in self.doc.children(id).iter().rev() {
            self.stack.push(c);
        }
        Some(id)
    }
}

/// A frame of [`Doc::from_xml`]'s stack, one per open element: its node,
/// its XML children still to import, and whether whitespace-only text
/// among them is dropped (under `trim`, when it sits between elements).
fn import_frame(
    id: NodeId,
    element: &XmlElement,
    trim: bool,
) -> (NodeId, std::slice::Iter<'_, XmlNode>, bool) {
    let drop_whitespace = trim
        && element
            .children
            .iter()
            .any(|c| matches!(c, XmlNode::Element(_)));
    (id, element.children.iter(), drop_whitespace)
}

impl From<Doc> for Cow<'_, Doc> {
    fn from(doc: Doc) -> Self {
        Cow::Owned(doc)
    }
}

impl<'d> From<&'d Doc> for Cow<'d, Doc> {
    fn from(doc: &'d Doc) -> Self {
        Cow::Borrowed(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_xml::parse_document;

    fn sample() -> (Doc, Alphabet) {
        let mut ab = Alphabet::new();
        let po = ab.intern("po");
        let item = ab.intern("item");
        let qty = ab.intern("qty");
        let mut doc = Doc::new(po);
        let i1 = doc.add_element(doc.root(), item);
        let q1 = doc.add_element(i1, qty);
        doc.add_text(q1, "3");
        let i2 = doc.add_element(doc.root(), item);
        let q2 = doc.add_element(i2, qty);
        doc.add_text(q2, "5");
        (doc, ab)
    }

    #[test]
    fn construction_and_navigation() {
        let (doc, ab) = sample();
        assert_eq!(doc.node_count(), 7);
        assert_eq!(doc.element_count(), 5);
        let root = doc.root();
        assert_eq!(ab.name(doc.label(root).unwrap()), "po");
        let items = doc.children(root);
        assert_eq!(items.len(), 2);
        assert_eq!(doc.parent(items[0]), Some(root));
        assert_eq!(doc.child_index(items[1]), 1);
    }

    #[test]
    fn dewey_numbers() {
        let (doc, _) = sample();
        let root = doc.root();
        assert_eq!(doc.dewey(root), Vec::<u32>::new());
        let i2 = doc.children(root)[1];
        let q2 = doc.children(i2)[0];
        let t2 = doc.children(q2)[0];
        assert_eq!(doc.dewey(t2), vec![1, 0, 0]);
    }

    #[test]
    fn preorder_visits_all_nodes_parent_first() {
        let (doc, _) = sample();
        let order = doc.preorder();
        assert_eq!(order.len(), doc.node_count());
        assert_eq!(order[0], doc.root());
        // Every node appears after its parent.
        for (i, &id) in order.iter().enumerate() {
            if let Some(p) = doc.parent(id) {
                let pi = order.iter().position(|&x| x == p).unwrap();
                assert!(pi < i);
            }
        }
    }

    #[test]
    fn preorder_iter_matches_materialized_order() {
        let (doc, _) = sample();
        let lazy: Vec<NodeId> = doc.preorder_iter().collect();
        assert_eq!(lazy, doc.preorder());
        // And it is restartable/independent per call.
        assert_eq!(doc.preorder_iter().count(), doc.node_count());
    }

    #[test]
    fn dewey_into_reuses_buffer() {
        let (doc, _) = sample();
        let mut buf = vec![9, 9, 9, 9];
        for id in doc.preorder_iter() {
            doc.dewey_into(id, &mut buf);
            assert_eq!(buf, doc.dewey(id), "node {id:?}");
        }
    }

    #[test]
    fn xml_round_trip_trims_whitespace() {
        let mut ab = Alphabet::new();
        let xml = parse_document("<a>\n  <b>text</b>\n  <c/>\n</a>").unwrap();
        let doc = Doc::from_xml(&xml.root, &mut ab, WhitespaceMode::Trim);
        // a, b, "text", c — indentation dropped.
        assert_eq!(doc.node_count(), 4);
        let back = doc.to_xml(&ab);
        assert_eq!(back.child_elements().count(), 2);
    }

    #[test]
    fn xml_import_preserve_keeps_whitespace() {
        let mut ab = Alphabet::new();
        let xml = parse_document("<a>\n  <b>text</b>\n  <c/>\n</a>").unwrap();
        let doc = Doc::from_xml(&xml.root, &mut ab, WhitespaceMode::Preserve);
        // a, ws, b, "text", ws, c, ws.
        assert_eq!(doc.node_count(), 7);
        let root = doc.root();
        assert_eq!(doc.validation_children(root).count(), 2);
    }

    #[test]
    fn edits_on_arena() {
        let (mut doc, mut ab) = sample();
        let comment = ab.intern("comment");
        let root = doc.root();
        let c = doc.insert_element(root, 0, comment);
        assert_eq!(doc.child_index(c), 0);
        assert_eq!(doc.dewey(doc.children(root)[1]), vec![1]);
        doc.remove_leaf(c);
        assert_eq!(doc.children(root).len(), 2);

        let q1 = doc.children(doc.children(root)[0])[0];
        let t = doc.children(q1)[0];
        doc.set_text(t, "9");
        assert_eq!(doc.text(t), Some("9"));
    }

    #[test]
    fn subtree_size() {
        let (doc, _) = sample();
        assert_eq!(doc.subtree_size(doc.root()), 7);
        let i1 = doc.children(doc.root())[0];
        assert_eq!(doc.subtree_size(i1), 3);
    }

    #[test]
    #[should_panic(expected = "only leaves")]
    fn remove_non_leaf_panics() {
        let (mut doc, _) = sample();
        let i1 = doc.children(doc.root())[0];
        doc.remove_leaf(i1);
    }
}
