//! The modification trie of §3.3.
//!
//! The paper implements `modified(v)` — "has any part of the subtree rooted
//! at `v` been modified?" — by keeping every updated node in a trie indexed
//! by its Dewey decimal number, navigated *in parallel* with the XML tree
//! during validation. [`ModTrie`] is that structure; [`TrieCursor`] is the
//! parallel-navigation handle.
//!
//! Because edits shift the positions of later siblings, the trie supports
//! in-place key shifting ([`ModTrie::shift_children`]) so that recorded
//! paths always refer to positions in the *current* tree.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Default)]
struct TrieNode {
    marked: bool,
    children: BTreeMap<u32, TrieNode>,
}

impl TrieNode {
    fn is_empty(&self) -> bool {
        !self.marked && self.children.is_empty()
    }
}

impl Drop for TrieNode {
    /// Drops the branches below through an explicit stack: the derived drop
    /// would use one call-stack frame per trie level, and a trie is as deep
    /// as the deepest edit.
    fn drop(&mut self) {
        let mut stack: Vec<TrieNode> = std::mem::take(&mut self.children).into_values().collect();
        while let Some(mut node) = stack.pop() {
            stack.extend(std::mem::take(&mut node.children).into_values());
        }
    }
}

/// A trie over Dewey decimal numbers recording which nodes were modified.
#[derive(Debug, Clone, Default)]
pub struct ModTrie {
    root: TrieNode,
}

impl ModTrie {
    /// An empty trie (nothing modified).
    pub fn new() -> ModTrie {
        ModTrie::default()
    }

    /// Whether no modifications are recorded at all.
    pub fn is_empty(&self) -> bool {
        self.root.is_empty()
    }

    /// Records a modification at the node with Dewey number `path`.
    pub fn mark(&mut self, path: &[u32]) {
        let mut node = &mut self.root;
        for &step in path {
            node = node.children.entry(step).or_default();
        }
        node.marked = true;
    }

    /// Removes a mark (used when an inserted node is deleted again). Prunes
    /// now-empty trie branches.
    pub fn unmark(&mut self, path: &[u32]) {
        // The shallowest depth from which every node down to `path` would be
        // left empty: that branch is cut off whole.
        let mut cut: Option<usize> = None;
        let mut node = &self.root;
        for (depth, &step) in path.iter().enumerate() {
            let Some(child) = node.children.get(&step) else {
                return;
            };
            let emptied = if depth + 1 == path.len() {
                child.children.is_empty()
            } else {
                !child.marked && child.children.len() == 1
            };
            if emptied {
                cut.get_or_insert(depth);
            } else {
                cut = None;
            }
            node = child;
        }
        let mut node = &mut self.root;
        for step in &path[..cut.unwrap_or(path.len())] {
            let Some(child) = node.children.get_mut(step) else {
                return;
            };
            node = child;
        }
        match cut {
            Some(depth) => {
                node.children.remove(&path[depth]);
            }
            None => node.marked = false,
        }
    }

    /// `modified(v)` for the node with Dewey number `path`: whether any mark
    /// exists at `path` or below it.
    pub fn subtree_modified(&self, path: &[u32]) -> bool {
        let mut node = &self.root;
        for &step in path {
            match node.children.get(&step) {
                Some(child) => node = child,
                None => return false,
            }
        }
        node.marked || !node.children.is_empty()
    }

    /// Shifts the child keys of the trie node at `parent_path`: keys
    /// `≥ from_index` move by `delta`. Call with `delta = 1` after an
    /// insertion at `from_index` in the tree, `delta = -1` after a removal.
    pub fn shift_children(&mut self, parent_path: &[u32], from_index: u32, delta: i64) {
        let mut node = &mut self.root;
        for &step in parent_path {
            match node.children.get_mut(&step) {
                Some(child) => node = child,
                None => return, // nothing recorded below: nothing to shift
            }
        }
        if delta == 0 {
            return;
        }
        let moved: Vec<(u32, TrieNode)> = node
            .children
            .keys()
            .copied()
            .filter(|&k| k >= from_index)
            .collect::<Vec<_>>()
            .into_iter()
            .map(|k| (k, node.children.remove(&k).expect("key present")))
            .collect();
        for (k, v) in moved {
            let nk = (k as i64 + delta)
                .try_into()
                .expect("shift produced a negative child index");
            node.children.insert(nk, v);
        }
    }

    /// A cursor positioned at the trie root, for navigation in parallel
    /// with a tree traversal.
    pub fn cursor(&self) -> TrieCursor<'_> {
        TrieCursor {
            node: Some(&self.root),
        }
    }
}

/// A position in the trie mirroring a position in the document tree.
///
/// A cursor may be *vacant* (no trie node exists for the tree position),
/// meaning nothing below the current tree node was modified.
#[derive(Debug, Clone, Copy)]
pub struct TrieCursor<'a> {
    node: Option<&'a TrieNode>,
}

impl<'a> TrieCursor<'a> {
    /// Descends to child `index`, mirroring a descent in the tree.
    pub fn child(&self, index: u32) -> TrieCursor<'a> {
        TrieCursor {
            node: self.node.and_then(|n| n.children.get(&index)),
        }
    }

    /// `modified(v)` at the mirrored tree node: a mark here or below.
    pub fn subtree_modified(&self) -> bool {
        self.node
            .is_some_and(|n| n.marked || !n.children.is_empty())
    }

    /// Whether the mirrored node itself was modified.
    pub fn self_modified(&self) -> bool {
        self.node.is_some_and(|n| n.marked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_and_query() {
        let mut t = ModTrie::new();
        assert!(t.is_empty());
        t.mark(&[0, 2, 1]);
        assert!(t.subtree_modified(&[]));
        assert!(t.subtree_modified(&[0]));
        assert!(t.subtree_modified(&[0, 2]));
        assert!(t.subtree_modified(&[0, 2, 1]));
        assert!(!t.subtree_modified(&[1]));
        assert!(!t.subtree_modified(&[0, 1]));
        // A *descendant* of a marked node counts as unmodified (marks apply
        // to the node itself, not below it).
        assert!(!t.subtree_modified(&[0, 2, 1, 0]));
    }

    #[test]
    fn root_mark() {
        let mut t = ModTrie::new();
        t.mark(&[]);
        assert!(t.subtree_modified(&[]));
        assert!(!t.subtree_modified(&[0]));
    }

    #[test]
    fn unmark_prunes() {
        let mut t = ModTrie::new();
        t.mark(&[1, 1]);
        t.mark(&[1, 2]);
        t.unmark(&[1, 1]);
        assert!(!t.subtree_modified(&[1, 1]));
        assert!(t.subtree_modified(&[1, 2]));
        t.unmark(&[1, 2]);
        assert!(t.is_empty());
    }

    #[test]
    fn deep_paths_unmark_and_drop_without_recursion() {
        let deep = vec![0u32; 100_000];
        let mut t = ModTrie::new();
        t.mark(&[0]);
        t.mark(&deep);
        assert!(t.subtree_modified(&deep));
        t.unmark(&deep);
        // The branch below the marked ancestor is cut; the ancestor stays.
        assert!(t.subtree_modified(&[0]));
        assert!(!t.subtree_modified(&[0, 0]));
        t.mark(&deep);
        drop(t);
    }

    #[test]
    fn shift_on_insert_and_remove() {
        let mut t = ModTrie::new();
        t.mark(&[0, 3]);
        t.mark(&[0, 5]);
        t.mark(&[0, 1]);
        // Insert at position 2 under [0]: keys ≥ 2 shift up.
        t.shift_children(&[0], 2, 1);
        assert!(t.subtree_modified(&[0, 1]));
        assert!(!t.subtree_modified(&[0, 3]));
        assert!(t.subtree_modified(&[0, 4]));
        assert!(t.subtree_modified(&[0, 6]));
        // Remove at position 4: keys ≥ 5 shift down.
        t.shift_children(&[0], 5, -1);
        assert!(t.subtree_modified(&[0, 5]));
        assert!(!t.subtree_modified(&[0, 6]));
    }

    #[test]
    fn shift_missing_path_is_noop() {
        let mut t = ModTrie::new();
        t.mark(&[2]);
        t.shift_children(&[0, 1], 0, 1);
        assert!(t.subtree_modified(&[2]));
    }

    #[test]
    fn cursor_parallel_navigation() {
        let mut t = ModTrie::new();
        t.mark(&[1, 0]);
        let c = t.cursor();
        assert!(c.subtree_modified());
        assert!(!c.self_modified());
        let c0 = c.child(0);
        assert!(!c0.subtree_modified());
        let c1 = c.child(1);
        assert!(c1.subtree_modified());
        let c10 = c1.child(0);
        assert!(c10.self_modified());
        assert!(c10.subtree_modified());
        assert!(!c10.child(4).subtree_modified());
    }

    #[test]
    fn cursor_matches_path_queries() {
        let mut t = ModTrie::new();
        for path in [vec![0u32, 1], vec![2], vec![2, 3, 4]] {
            t.mark(&path);
        }
        // Exhaustively compare cursor vs. subtree_modified on shallow paths.
        for a in 0..4u32 {
            for b in 0..5u32 {
                let by_path = t.subtree_modified(&[a, b]);
                let by_cursor = t.cursor().child(a).child(b).subtree_modified();
                assert_eq!(by_path, by_cursor, "path [{a},{b}]");
            }
        }
    }
}
