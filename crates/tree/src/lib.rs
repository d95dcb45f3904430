#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Ordered labeled trees, Dewey numbers, edits, and Δ-encoding.
//!
//! The document side of the revalidation system:
//!
//! * [`tree::Doc`] — an arena DOM over a shared label [`Alphabet`]
//!   (re-exported from `schemacast-regex`), with XML import/export.
//! * [`modtrie::ModTrie`] — the Dewey-number trie implementing the paper's
//!   `modified(v)` oracle (§3.3), navigable in parallel with the tree.
//! * [`edit`] — the update model (relabel / insert leaf / delete leaf /
//!   set text) and the Δ-encoded [`edit::DeltaDoc`], an overlay of edits
//!   on a document it borrows or owns.

pub mod edit;
pub mod modtrie;
pub mod shapes;
pub mod tree;

pub use edit::{DeltaDoc, DeltaState, Edit, EditError, ProjLabel};
pub use modtrie::{ModTrie, TrieCursor};
pub use schemacast_regex::{Alphabet, Sym};
pub use shapes::{extract_shapes, EditShape, EditShapeKind};
pub use tree::{Doc, NodeId, NodeKind, Preorder, WhitespaceMode};
