//! DTD-specific cast validation with a label index (§3.4).
//!
//! For DTDs, an element's label determines its type, so top-down typing is
//! unnecessary: with direct access to all instances of each label (a label
//! index, as a database of XML would maintain), only the elements whose
//! (source, target) type pair is neither subsumed nor disjoint need their
//! *immediate* content model checked — each element's descendants are
//! covered by their own labels' verdicts.

use crate::cast::{CastContext, Walk};
use crate::stats::{CastOutcome, ValidationStats};
use schemacast_regex::Sym;
use schemacast_schema::TypeId;
use schemacast_tree::{Doc, NodeId};
use std::collections::HashMap;
use std::fmt;

/// A label → element-nodes index over one document.
#[derive(Debug, Clone, Default)]
pub struct LabelIndex {
    buckets: HashMap<Sym, Vec<NodeId>>,
}

impl LabelIndex {
    /// Builds the index in one pre-order pass.
    pub fn build(doc: &Doc) -> LabelIndex {
        let mut buckets: HashMap<Sym, Vec<NodeId>> = HashMap::new();
        for node in doc.preorder_iter() {
            if let Some(label) = doc.label(node) {
                buckets.entry(label).or_default().push(node);
            }
        }
        LabelIndex { buckets }
    }

    /// All element nodes with the given label.
    pub fn nodes(&self, label: Sym) -> &[NodeId] {
        self.buckets.get(&label).map_or(&[], Vec::as_slice)
    }

    /// Labels occurring in the document.
    pub fn labels(&self) -> impl Iterator<Item = Sym> + '_ {
        self.buckets.keys().copied()
    }

    /// Number of occurrences of a label.
    pub fn count(&self, label: Sym) -> usize {
        self.nodes(label).len()
    }
}

/// What the preprocessed plan says about a label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelPlan {
    /// Type pair subsumed: instances need no checking at all.
    Skip,
    /// Type pair disjoint, or the label is unknown to the target: any
    /// instance makes the document invalid.
    RejectIfPresent,
    /// Neither: each instance's immediate content model (or simple value)
    /// must be verified.
    CheckContent {
        /// Source type of the label (`None` when the label is unknown to
        /// the source — such instances are validated in full).
        source: Option<TypeId>,
        /// Target type of the label.
        target: TypeId,
    },
}

/// Error: the schemas are not DTD-style, so label-driven validation is
/// unsound (a label's type depends on context).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotDtdStyle;

impl fmt::Display for NotDtdStyle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "label-indexed cast validation requires DTD-style schemas (one type per label)"
        )
    }
}

impl std::error::Error for NotDtdStyle {}

/// A label-driven cast validator for DTD-style schema pairs.
pub struct DtdCastValidator<'a, 'b> {
    ctx: &'a CastContext<'b>,
    plan: HashMap<Sym, LabelPlan>,
}

impl<'a, 'b> DtdCastValidator<'a, 'b> {
    /// Preprocesses the label plan.
    ///
    /// # Errors
    /// Fails with [`NotDtdStyle`] if either schema assigns a label more than
    /// one type.
    pub fn new(ctx: &'a CastContext<'b>, alphabet_len: usize) -> Result<Self, NotDtdStyle> {
        if !ctx.source().is_dtd_style() || !ctx.target().is_dtd_style() {
            return Err(NotDtdStyle);
        }
        let mut plan = HashMap::new();
        for idx in 0..alphabet_len {
            let label = Sym(idx as u32);
            let t_type = ctx.target().label_type(label);
            let s_type = ctx.source().label_type(label);
            let entry = match (s_type, t_type) {
                (_, None) => LabelPlan::RejectIfPresent,
                (None, Some(t)) => LabelPlan::CheckContent {
                    source: None,
                    target: t,
                },
                (Some(s), Some(t)) => {
                    // Honor the context's ablation switches so that a
                    // baseline-configured context measures the baseline here
                    // too, not a silently optimized plan.
                    if ctx.options().use_subsumption && ctx.relations().subsumed(s, t) {
                        LabelPlan::Skip
                    } else if ctx.options().use_disjointness && ctx.relations().disjoint(s, t) {
                        LabelPlan::RejectIfPresent
                    } else {
                        LabelPlan::CheckContent {
                            source: Some(s),
                            target: t,
                        }
                    }
                }
            };
            plan.insert(label, entry);
        }
        Ok(DtdCastValidator { ctx, plan })
    }

    /// The plan entry for a label (diagnostics / benchmarks).
    pub fn plan(&self, label: Sym) -> Option<LabelPlan> {
        self.plan.get(&label).copied()
    }

    /// Validates via the label index. The document must be valid with
    /// respect to the source schema (the usual cast precondition).
    pub fn validate(&self, doc: &Doc, index: &LabelIndex) -> CastOutcome {
        self.validate_with_stats(doc, index).0
    }

    /// Like [`DtdCastValidator::validate`], with cost counters.
    pub fn validate_with_stats(
        &self,
        doc: &Doc,
        index: &LabelIndex,
    ) -> (CastOutcome, ValidationStats) {
        let mut stats = ValidationStats::default();
        // Root admissibility.
        let Some(root_label) = doc.label(doc.root()) else {
            return (CastOutcome::Invalid, stats);
        };
        if self.ctx.target().root_type(root_label).is_none() {
            return (CastOutcome::Invalid, stats);
        }
        // Each indexed element gets the tree walk's per-element step: its
        // descendants are covered by their own labels' plans.
        let walk = Walk::cast(self.ctx);
        let mut labels: Vec<Sym> = Vec::new();
        for label in index.labels() {
            match self.plan.get(&label) {
                None | Some(LabelPlan::RejectIfPresent) => {
                    if index.count(label) > 0 {
                        stats.disjoint_rejects += 1;
                        return (CastOutcome::Invalid, stats);
                    }
                }
                Some(LabelPlan::Skip) => {
                    stats.subsumed_skips += 1;
                }
                Some(&LabelPlan::CheckContent { source, target }) => {
                    for &node in index.nodes(label) {
                        stats.nodes_visited += 1;
                        let checked =
                            walk.check_element(doc, node, source, target, &mut labels, &mut stats);
                        if checked.is_err() {
                            return (CastOutcome::Invalid, stats);
                        }
                    }
                }
            }
        }
        (CastOutcome::Valid, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_regex::Alphabet;
    use schemacast_schema::parse_dtd;

    const SRC_DTD: &str = r#"
        <!ELEMENT po (ship, bill?, items)>
        <!ELEMENT ship (name)>
        <!ELEMENT bill (name)>
        <!ELEMENT items (item*)>
        <!ELEMENT item (#PCDATA)>
        <!ELEMENT name (#PCDATA)>
    "#;
    const TGT_DTD: &str = r#"
        <!ELEMENT po (ship, bill, items)>
        <!ELEMENT ship (name)>
        <!ELEMENT bill (name)>
        <!ELEMENT items (item*)>
        <!ELEMENT item (#PCDATA)>
        <!ELEMENT name (#PCDATA)>
    "#;

    fn build_doc(ab: &mut Alphabet, with_bill: bool, items: usize) -> Doc {
        let po = ab.intern("po");
        let ship = ab.intern("ship");
        let bill = ab.intern("bill");
        let items_l = ab.intern("items");
        let item = ab.intern("item");
        let name = ab.intern("name");
        let mut d = Doc::new(po);
        for (l, yes) in [(ship, true), (bill, with_bill)] {
            if !yes {
                continue;
            }
            let a = d.add_element(d.root(), l);
            let n = d.add_element(a, name);
            d.add_text(n, "x");
        }
        let il = d.add_element(d.root(), items_l);
        for _ in 0..items {
            let i = d.add_element(il, item);
            d.add_text(i, "v");
        }
        d
    }

    #[test]
    fn dtd_cast_checks_only_po_elements() {
        let mut ab = Alphabet::new();
        let source = parse_dtd(SRC_DTD, Some("po"), &mut ab).unwrap();
        let target = parse_dtd(TGT_DTD, Some("po"), &mut ab).unwrap();
        let ctx = CastContext::new(&source, &target, &ab);
        let v = DtdCastValidator::new(&ctx, ab.len()).unwrap();

        // Only "po" needs checking; all other labels are subsumed.
        let po = ab.lookup("po").unwrap();
        let ship = ab.lookup("ship").unwrap();
        assert!(matches!(v.plan(po), Some(LabelPlan::CheckContent { .. })));
        assert_eq!(v.plan(ship), Some(LabelPlan::Skip));

        let good = build_doc(&mut ab, true, 50);
        let bad = build_doc(&mut ab, false, 50);
        let gi = LabelIndex::build(&good);
        let bi = LabelIndex::build(&bad);
        let (out, stats) = v.validate_with_stats(&good, &gi);
        assert!(out.is_valid());
        // Exactly one element (the po root) was examined.
        assert_eq!(stats.nodes_visited, 1);
        assert!(!v.validate(&bad, &bi).is_valid());
    }

    #[test]
    fn unknown_label_rejects() {
        let mut ab = Alphabet::new();
        let source = parse_dtd(SRC_DTD, Some("po"), &mut ab).unwrap();
        // Target lacking "bill" entirely.
        let target = parse_dtd(
            r#"<!ELEMENT po (ship, items)>
               <!ELEMENT ship (name)>
               <!ELEMENT items (item*)>
               <!ELEMENT item (#PCDATA)>
               <!ELEMENT name (#PCDATA)>"#,
            Some("po"),
            &mut ab,
        )
        .unwrap();
        let ctx = CastContext::new(&source, &target, &ab);
        let v = DtdCastValidator::new(&ctx, ab.len()).unwrap();
        let with_bill = build_doc(&mut ab, true, 3);
        let without = build_doc(&mut ab, false, 3);
        assert!(!v
            .validate(&with_bill, &LabelIndex::build(&with_bill))
            .is_valid());
        assert!(v
            .validate(&without, &LabelIndex::build(&without))
            .is_valid());
    }

    #[test]
    fn agrees_with_tree_cast_on_value_narrowing() {
        // Source item is plain text, target restricts nothing — but make the
        // target's items require at least one item to exercise CheckContent.
        let mut ab = Alphabet::new();
        let source = parse_dtd(SRC_DTD, Some("po"), &mut ab).unwrap();
        let target = parse_dtd(
            r#"<!ELEMENT po (ship, bill?, items)>
               <!ELEMENT ship (name)>
               <!ELEMENT bill (name)>
               <!ELEMENT items (item+)>
               <!ELEMENT item (#PCDATA)>
               <!ELEMENT name (#PCDATA)>"#,
            Some("po"),
            &mut ab,
        )
        .unwrap();
        let ctx = CastContext::new(&source, &target, &ab);
        let v = DtdCastValidator::new(&ctx, ab.len()).unwrap();
        for (with_bill, items) in [(true, 0), (true, 3), (false, 0), (false, 2)] {
            let doc = build_doc(&mut ab, with_bill, items);
            let idx = LabelIndex::build(&doc);
            let via_index = v.validate(&doc, &idx).is_valid();
            let via_tree = ctx.validate(&doc).is_valid();
            let via_full = target.accepts_document(&doc);
            assert_eq!(via_index, via_full, "bill={with_bill} items={items}");
            assert_eq!(via_tree, via_full, "bill={with_bill} items={items}");
        }
    }

    #[test]
    fn rejects_non_dtd_style() {
        // An XSD-style schema where label x has two types.
        let mut ab = Alphabet::new();
        let source = {
            let mut b = schemacast_schema::SchemaBuilder::new(&mut ab);
            let s1 = b
                .simple("S1", schemacast_schema::SimpleType::string())
                .unwrap();
            let s2 = b
                .simple(
                    "S2",
                    schemacast_schema::SimpleType::of(schemacast_schema::AtomicKind::Integer),
                )
                .unwrap();
            let c1 = b.declare("C1").unwrap();
            b.complex(c1, "(x)", &[("x", s1)]).unwrap();
            let c2 = b.declare("C2").unwrap();
            b.complex(c2, "(x)", &[("x", s2)]).unwrap();
            b.root("c1", c1);
            b.root("c2", c2);
            b.finish().unwrap()
        };
        let target = source.clone();
        let ctx = CastContext::new(&source, &target, &ab);
        let err = DtdCastValidator::new(&ctx, ab.len())
            .err()
            .expect("must fail");
        assert_eq!(err, NotDtdStyle);
    }
}
