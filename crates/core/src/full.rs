//! The baseline full validator (the paper's unmodified-Xerces comparator).
//!
//! Implements the `validate`/`doValidate` pseudocode of §3 directly: visit
//! every node top-down, run the content-model DFA over every element's
//! children, check every simple value. It is the crate's one tree walk
//! ([`crate::cast`]) with no source side, so it is instrumented with the
//! same [`ValidationStats`] as the cast validator and Figure 3 / Table 3
//! compare like for like.

use crate::cast::Walk;
use crate::stats::{CastOutcome, ValidationStats};
use schemacast_schema::{AbstractSchema, TypeId};
use schemacast_tree::{Doc, NodeId};

/// A full (non-incremental) validator for one schema.
#[derive(Debug, Clone, Copy)]
pub struct FullValidator<'a> {
    schema: &'a AbstractSchema,
}

impl<'a> FullValidator<'a> {
    /// Wraps a schema.
    pub fn new(schema: &'a AbstractSchema) -> Self {
        FullValidator { schema }
    }

    /// Validates a document from its root (`doValidate` of §3).
    pub fn validate(&self, doc: &Doc) -> CastOutcome {
        self.validate_with_stats(doc).0
    }

    /// Validates and returns cost counters.
    pub fn validate_with_stats(&self, doc: &Doc) -> (CastOutcome, ValidationStats) {
        let mut stats = ValidationStats::default();
        let ok = match doc.label(doc.root()) {
            Some(label) => match self.schema.root_type(label) {
                Some(t) => self.validate_node(doc, doc.root(), t, &mut stats),
                None => false,
            },
            None => false,
        };
        (CastOutcome::from_bool(ok), stats)
    }

    /// Validates the subtree rooted at `node` against type `t`,
    /// accumulating stats.
    ///
    /// Iterative (explicit work stack): document depth does not consume
    /// call-stack frames, so arbitrarily deep documents are safe.
    pub fn validate_node(
        &self,
        doc: &Doc,
        node: NodeId,
        t: TypeId,
        stats: &mut ValidationStats,
    ) -> bool {
        Walk::full(self.schema)
            .run(doc, node, None, t, stats)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_regex::Alphabet;
    use schemacast_schema::{SchemaBuilder, SimpleType};

    fn schema(ab: &mut Alphabet) -> AbstractSchema {
        let mut b = SchemaBuilder::new(ab);
        let text = b.simple("Text", SimpleType::string()).unwrap();
        let item = b.declare("Item").unwrap();
        b.complex(item, "(sku)", &[("sku", text)]).unwrap();
        let items = b.declare("Items").unwrap();
        b.complex(items, "item*", &[("item", item)]).unwrap();
        b.root("items", items);
        b.finish().unwrap()
    }

    #[test]
    fn agrees_with_reference_semantics() {
        let mut ab = Alphabet::new();
        let s = schema(&mut ab);
        let items = ab.lookup("items").unwrap();
        let item = ab.lookup("item").unwrap();
        let sku = ab.lookup("sku").unwrap();

        let mut doc = Doc::new(items);
        for _ in 0..3 {
            let i = doc.add_element(doc.root(), item);
            let k = doc.add_element(i, sku);
            doc.add_text(k, "x");
        }
        let v = FullValidator::new(&s);
        assert!(v.validate(&doc).is_valid());
        assert_eq!(s.accepts_document(&doc), v.validate(&doc).is_valid());

        // Broken: item without sku.
        let mut bad = Doc::new(items);
        bad.add_element(bad.root(), item);
        assert!(!v.validate(&bad).is_valid());
        assert_eq!(s.accepts_document(&bad), v.validate(&bad).is_valid());
    }

    #[test]
    fn stats_count_every_node() {
        let mut ab = Alphabet::new();
        let s = schema(&mut ab);
        let items = ab.lookup("items").unwrap();
        let item = ab.lookup("item").unwrap();
        let sku = ab.lookup("sku").unwrap();
        let mut doc = Doc::new(items);
        for _ in 0..4 {
            let i = doc.add_element(doc.root(), item);
            let k = doc.add_element(i, sku);
            doc.add_text(k, "x");
        }
        let v = FullValidator::new(&s);
        let (out, stats) = v.validate_with_stats(&doc);
        assert!(out.is_valid());
        // 1 root + 4 item + 4 sku + 4 text nodes.
        assert_eq!(stats.nodes_visited, 13);
        // 4 labels at the root + 1 per item.
        assert_eq!(stats.content_symbols_scanned, 8);
        assert_eq!(stats.value_checks, 4);
    }

    #[test]
    fn unknown_root_label_is_invalid() {
        let mut ab = Alphabet::new();
        let s = schema(&mut ab);
        let other = ab.intern("unrelated");
        let doc = Doc::new(other);
        assert!(!FullValidator::new(&s).validate(&doc).is_valid());
    }
}
