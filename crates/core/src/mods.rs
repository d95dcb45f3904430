//! Schema-cast validation *with* modifications (§3.3).
//!
//! Validates a Δ-encoded edited tree `T'` against the target schema,
//! reading it through the [`DeltaDoc`] overlay on the original `T`, and
//! exploiting (a) the `modified(v)` trie to hand each untouched subtree to
//! the plain cast walk, which runs on the base document itself, and (b)
//! the string revalidation-with-modifications machinery of §4.3 for the
//! content models of nodes whose child lists changed: the changed region
//! is scanned with `b_immed` and the unchanged remainder with the product
//! IDA, entering at the state pair obtained from the old and new prefixes
//! (Prop. 2). An inserted subtree has no source typing; its nodes take the
//! changed-node step with no source type, which is full validation.

use crate::cast::{CastContext, Walk};
use crate::stats::{CastOutcome, ValidationStats};
use schemacast_regex::Sym;
use schemacast_schema::{TypeDef, TypeId};
use schemacast_tree::{DeltaDoc, DeltaState, NodeId, ProjLabel};

/// Validator for edited documents over a preprocessed [`CastContext`],
/// whose pair table also holds the string-cast machinery (§4.3) this
/// validator borrows for edited child lists.
pub struct ModsValidator<'a, 'b> {
    ctx: &'a CastContext<'b>,
}

impl<'a, 'b> ModsValidator<'a, 'b> {
    /// Wraps a cast context.
    pub fn new(ctx: &'a CastContext<'b>) -> Self {
        ModsValidator { ctx }
    }

    /// Decides whether the edited document is valid with respect to the
    /// target schema, given that the *original* document was valid with
    /// respect to the source schema.
    pub fn validate(&self, dd: &DeltaDoc<'_>) -> CastOutcome {
        self.validate_with_stats(dd).0
    }

    /// Like [`ModsValidator::validate`], with cost counters.
    pub fn validate_with_stats(&self, dd: &DeltaDoc<'_>) -> (CastOutcome, ValidationStats) {
        let mut stats = ValidationStats::default();
        let root = dd.root();
        let Some(ProjLabel::Elem(new_label)) = dd.proj_new(root) else {
            return (CastOutcome::Invalid, stats);
        };
        let Some(tgt) = self.ctx.target().root_type(new_label) else {
            return (CastOutcome::Invalid, stats);
        };
        let src = match dd.proj_old(root) {
            Some(ProjLabel::Elem(old_label)) => self.ctx.source().root_type(old_label),
            _ => None,
        };
        let ok = self.validate_tree(dd, src, tgt, &mut stats);
        (CastOutcome::from_bool(ok), stats)
    }

    /// The §3.3 case analysis, over an explicit stack of (node, source
    /// type, target type, trie cursor) so that document depth never
    /// consumes call-stack frames.
    fn validate_tree(
        &self,
        dd: &DeltaDoc<'_>,
        src: Option<TypeId>,
        tgt: TypeId,
        stats: &mut ValidationStats,
    ) -> bool {
        let walk = Walk::cast(self.ctx);
        let mut work = vec![(dd.root(), src, tgt, dd.trie().cursor())];
        let mut new_labels: Vec<Sym> = Vec::new();
        let mut old_labels: Vec<Sym> = Vec::new();
        while let Some((node, src, tgt, cursor)) = work.pop() {
            let inserted = matches!(dd.delta(node), DeltaState::Inserted);
            // Case 1, an untouched subtree: a plain §3.2 cast, which the
            // tree walk runs on the base document itself.
            if !inserted && !cursor.subtree_modified() {
                if walk.run(dd.base(), node, src, tgt, stats).is_err() {
                    return false;
                }
                continue;
            }
            // Case 4: node present in both versions, but its label or
            // content (or something below) changed. Case 3, an inserted
            // subtree, holds only inserted nodes, which have no source
            // type: each takes this step as the walk would with none (the
            // value check, the target DFA, typing the children), and the
            // subtree's root counts one full validation, as the walk does.
            stats.nodes_visited += 1;
            stats.full_validations += usize::from(
                inserted
                    && dd
                        .parent(node)
                        .is_some_and(|p| !matches!(dd.delta(p), DeltaState::Inserted)),
            );
            let c_tgt = match self.ctx.target().type_def(tgt) {
                TypeDef::Simple(simple) => {
                    stats.value_checks += 1;
                    // New-view children, ignoring ignorable whitespace.
                    let mut live = dd.new_children(node).filter(|&c| !dd.is_ignorable_ws(c));
                    let ok = match (live.next(), live.next()) {
                        (None, _) => simple.validate(""),
                        (Some(only), None) => {
                            stats.nodes_visited += 1;
                            dd.text(only).is_some_and(|text| simple.validate(text))
                        }
                        (Some(_), Some(_)) => false,
                    };
                    if !ok {
                        return false;
                    }
                    continue;
                }
                TypeDef::Complex(c_tgt) => c_tgt,
            };
            // Proj_new over the live children.
            new_labels.clear();
            for c in dd.new_children(node) {
                if dd.is_ignorable_ws(c) {
                    continue;
                }
                match dd.proj_new(c) {
                    Some(ProjLabel::Elem(l)) => new_labels.push(l),
                    Some(ProjLabel::Chi) => return false, // text in element content
                    None => unreachable!("new_children filters deleted nodes"),
                }
            }
            let src_complex = src.and_then(|s| self.ctx.source().type_def(s).as_complex());
            // Content-model check: the §4.3 machinery when the source
            // content model is available and the old children are all
            // elements, the target DFA otherwise.
            let string_cast = self.ctx.options().use_ida
                && src_complex.is_some()
                && old_word(dd, node, &mut old_labels);
            let accepted = match src {
                Some(s) if string_cast => {
                    let sc = self.ctx.string_cast(s, tgt);
                    let d = sc.revalidate_with_mods(&old_labels, &new_labels);
                    stats.content_symbols_scanned += d.symbols_scanned;
                    d.accepted
                }
                _ => {
                    stats.content_symbols_scanned += new_labels.len();
                    c_tgt.dfa.accepts(&new_labels)
                }
            };
            if !accepted {
                return false;
            }
            // Push the live children, navigating the trie by each child's
            // index in the *full* child list (Dewey coordinates).
            let live = dd.children(node).iter().enumerate().filter(|&(_, &c)| {
                !matches!(dd.delta(c), DeltaState::Deleted) && !dd.is_ignorable_ws(c)
            });
            let base = work.len();
            for ((full_idx, &c), &label) in live.zip(&new_labels) {
                let Some(child_tgt) = c_tgt.child_type_dense(label) else {
                    return false;
                };
                let child_src = match dd.proj_old(c) {
                    Some(ProjLabel::Elem(old_label)) => {
                        src_complex.and_then(|sc| sc.child_type_dense(old_label))
                    }
                    _ => None,
                };
                work.push((c, child_src, child_tgt, cursor.child(full_idx as u32)));
            }
            work[base..].reverse();
        }
        true
    }
}

/// `Proj_old` over `node`'s children, ignorable whitespace aside, into
/// `word`; `false` if one of them was character data.
fn old_word(dd: &DeltaDoc<'_>, node: NodeId, word: &mut Vec<Sym>) -> bool {
    word.clear();
    for c in dd.old_children(node) {
        if dd.is_ignorable_ws(c) {
            continue;
        }
        match dd.proj_old(c) {
            Some(ProjLabel::Elem(l)) => word.push(l),
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_regex::Alphabet;
    use schemacast_schema::{AbstractSchema, SchemaBuilder, SimpleType};
    use schemacast_tree::{Doc, Edit};

    fn schema(ab: &mut Alphabet, bill_optional: bool) -> AbstractSchema {
        let mut b = SchemaBuilder::new(ab);
        let text = b.simple("Text", SimpleType::string()).unwrap();
        let addr = b.declare("USAddress").unwrap();
        b.complex(addr, "(name, city)", &[("name", text), ("city", text)])
            .unwrap();
        let item = b.declare("Item").unwrap();
        b.complex(item, "(sku, qty)", &[("sku", text), ("qty", text)])
            .unwrap();
        let items = b.declare("Items").unwrap();
        b.complex(items, "item*", &[("item", item)]).unwrap();
        let po = b.declare("POType").unwrap();
        let model = if bill_optional {
            "(shipTo, billTo?, items)"
        } else {
            "(shipTo, billTo, items)"
        };
        b.complex(
            po,
            model,
            &[("shipTo", addr), ("billTo", addr), ("items", items)],
        )
        .unwrap();
        b.root("purchaseOrder", po);
        b.finish().unwrap()
    }

    struct Fx {
        source: AbstractSchema,
        target: AbstractSchema,
        ab: Alphabet,
    }

    fn fx() -> Fx {
        let mut ab = Alphabet::new();
        let source = schema(&mut ab, true);
        let target = schema(&mut ab, false);
        Fx { source, target, ab }
    }

    fn doc(ab: &mut Alphabet, with_bill: bool, items: usize) -> Doc {
        let po = ab.intern("purchaseOrder");
        let ship = ab.intern("shipTo");
        let bill = ab.intern("billTo");
        let items_l = ab.intern("items");
        let item = ab.intern("item");
        let sku = ab.intern("sku");
        let qty = ab.intern("qty");
        let name = ab.intern("name");
        let city = ab.intern("city");
        let mut d = Doc::new(po);
        for (label, yes) in [(ship, true), (bill, with_bill)] {
            if !yes {
                continue;
            }
            let a = d.add_element(d.root(), label);
            for l in [name, city] {
                let e = d.add_element(a, l);
                d.add_text(e, "v");
            }
        }
        let il = d.add_element(d.root(), items_l);
        for k in 0..items {
            let i = d.add_element(il, item);
            let e = d.add_element(i, sku);
            d.add_text(e, format!("SKU-{k}"));
            let e = d.add_element(i, qty);
            d.add_text(e, "1");
        }
        d
    }

    /// Ground truth: materialize the edited doc and validate fully.
    fn oracle(f: &Fx, dd: &DeltaDoc<'_>) -> bool {
        f.target.accepts_document(&dd.committed())
    }

    #[test]
    fn no_edits_reduces_to_plain_cast() {
        let mut f = fx();
        let d = doc(&mut f.ab, true, 5);
        let ctx = CastContext::new(&f.source, &f.target, &f.ab);
        let mv = ModsValidator::new(&ctx);
        let dd = DeltaDoc::new(d);
        let (out, stats) = mv.validate_with_stats(&dd);
        assert!(out.is_valid());
        assert!(stats.nodes_visited <= 4);
    }

    #[test]
    fn inserting_billto_fixes_missing_required_element() {
        let mut f = fx();
        let d = doc(&mut f.ab, false, 5);
        assert!(f.source.accepts_document(&d));
        assert!(!f.target.accepts_document(&d));

        let bill = f.ab.lookup("billTo").unwrap();
        let name = f.ab.lookup("name").unwrap();
        let city = f.ab.lookup("city").unwrap();
        let ctx = CastContext::new(&f.source, &f.target, &f.ab);
        let mv = ModsValidator::new(&ctx);

        let mut dd = DeltaDoc::new(d);
        // Without the edit, invalid.
        assert!(!mv.validate(&dd).is_valid());

        // Insert billTo (with its children) after shipTo.
        let root = dd.root();
        dd.apply(&Edit::InsertElement {
            parent: root,
            position: 1,
            label: bill,
        })
        .unwrap();
        let bill_node = dd.children(root)[1];
        dd.apply(&Edit::InsertElement {
            parent: bill_node,
            position: 0,
            label: name,
        })
        .unwrap();
        let name_node = dd.children(bill_node)[0];
        dd.apply(&Edit::InsertText {
            parent: name_node,
            position: 0,
            text: "N".into(),
        })
        .unwrap();
        dd.apply(&Edit::InsertElement {
            parent: bill_node,
            position: 1,
            label: city,
        })
        .unwrap();
        let city_node = dd.children(bill_node)[1];
        dd.apply(&Edit::InsertText {
            parent: city_node,
            position: 0,
            text: "C".into(),
        })
        .unwrap();

        let (out, stats) = mv.validate_with_stats(&dd);
        assert!(out.is_valid());
        assert!(oracle(&f, &dd));
        // The untouched items subtree was never entered: far fewer visits
        // than nodes.
        assert!(stats.nodes_visited < dd.node_count() / 2);
    }

    #[test]
    fn deleting_required_child_is_caught() {
        let mut f = fx();
        let d = doc(&mut f.ab, true, 3);
        let ctx = CastContext::new(&f.source, &f.target, &f.ab);
        let mv = ModsValidator::new(&ctx);
        let mut dd = DeltaDoc::new(d);
        // Delete the qty leaf of item 1.
        let root = dd.root();
        let items = dd.children(root)[2];
        let item1 = dd.children(items)[1];
        let qty = dd.children(item1)[1];
        let qty_text = dd.children(qty)[0];
        dd.apply(&Edit::DeleteLeaf { node: qty_text }).unwrap();
        dd.apply(&Edit::DeleteLeaf { node: qty }).unwrap();
        assert!(!mv.validate(&dd).is_valid());
        assert!(!oracle(&f, &dd));
    }

    #[test]
    fn relabeling_and_value_edits() {
        let mut f = fx();
        let d = doc(&mut f.ab, true, 4);
        let ctx = CastContext::new(&f.source, &f.target, &f.ab);
        let mv = ModsValidator::new(&ctx);

        // Edit a qty value: stays valid (Text type).
        let mut dd = DeltaDoc::new(&d);
        let root = dd.root();
        let items = dd.children(root)[2];
        let item0 = dd.children(items)[0];
        let qty = dd.children(item0)[1];
        let t = dd.children(qty)[0];
        dd.apply(&Edit::SetText {
            node: t,
            text: "999".into(),
        })
        .unwrap();
        assert!(mv.validate(&dd).is_valid());
        assert!(oracle(&f, &dd));

        // Relabel an item to an unknown label: invalid.
        let mut dd2 = DeltaDoc::new(d);
        let root = dd2.root();
        let items = dd2.children(root)[2];
        let item0 = dd2.children(items)[0];
        let bogus = f.ab.intern("bogus");
        dd2.apply(&Edit::Relabel {
            node: item0,
            label: bogus,
        })
        .unwrap();
        assert!(!mv.validate(&dd2).is_valid());
        assert!(!oracle(&f, &dd2));
    }

    #[test]
    fn append_items_validates_with_bounded_scanning() {
        let mut f = fx();
        let d = doc(&mut f.ab, true, 200);
        let ctx = CastContext::new(&f.source, &f.target, &f.ab);
        let mv = ModsValidator::new(&ctx);
        let mut dd = DeltaDoc::new(d);
        let root = dd.root();
        let items = dd.children(root)[2];
        let item = f.ab.lookup("item").unwrap();
        let sku = f.ab.lookup("sku").unwrap();
        let qty = f.ab.lookup("qty").unwrap();
        // Append one item subtree at the end.
        let pos = dd.children(items).len();
        dd.apply(&Edit::InsertElement {
            parent: items,
            position: pos,
            label: item,
        })
        .unwrap();
        let new_item = dd.children(items)[pos];
        for (i, l) in [(0usize, sku), (1, qty)] {
            dd.apply(&Edit::InsertElement {
                parent: new_item,
                position: i,
                label: l,
            })
            .unwrap();
            let e = dd.children(new_item)[i];
            dd.apply(&Edit::InsertText {
                parent: e,
                position: 0,
                text: "v".into(),
            })
            .unwrap();
        }
        let (out, stats) = mv.validate_with_stats(&dd);
        assert!(out.is_valid());
        assert!(oracle(&f, &dd));
        // Each sibling of the edited child list is *entered* once (the §3.3
        // recursion) but immediately skipped by subsumption — so visits are
        // bounded by the sibling count plus the new subtree, far below the
        // ~1800 nodes of the document.
        assert!(
            stats.nodes_visited < 230,
            "visited {} nodes",
            stats.nodes_visited
        );
        assert!(stats.subsumed_skips >= 200);
        // Content model of items: the item* automaton never rescans the
        // unchanged prefix thanks to the backward strategy of §4.3.
        assert!(
            stats.content_symbols_scanned < 30,
            "scanned {} symbols",
            stats.content_symbols_scanned
        );
    }

    #[test]
    fn mods_validator_agrees_with_oracle_on_random_edits() {
        let mut f = fx();
        let base = doc(&mut f.ab, true, 6);
        let ctx = CastContext::new(&f.source, &f.target, &f.ab);
        let mv = ModsValidator::new(&ctx);
        let item = f.ab.lookup("item").unwrap();
        let sku = f.ab.lookup("sku").unwrap();

        // A small battery of edit scripts (some valid, some not).
        let scripts: Vec<Vec<Edit>> = {
            let d = &base;
            let root = d.root();
            let items = d.children(root)[2];
            let item0 = d.children(items)[0];
            let sku0 = d.children(item0)[0];
            let sku0_text = d.children(sku0)[0];
            vec![
                vec![],
                vec![Edit::SetText {
                    node: sku0_text,
                    text: "NEW".into(),
                }],
                // Insert a bare item (missing children): invalid.
                vec![Edit::InsertElement {
                    parent: items,
                    position: 0,
                    label: item,
                }],
                // Relabel sku→sku (no-op relabel still marks): valid.
                vec![Edit::Relabel {
                    node: sku0,
                    label: sku,
                }],
                // Delete a sku text then the sku: invalid (item needs sku).
                vec![
                    Edit::DeleteLeaf { node: sku0_text },
                    Edit::DeleteLeaf { node: sku0 },
                ],
            ]
        };
        for (i, script) in scripts.iter().enumerate() {
            let mut dd = DeltaDoc::new(&base);
            dd.apply_all(script).unwrap();
            let got = mv.validate(&dd).is_valid();
            let want = oracle(&f, &dd);
            assert_eq!(got, want, "script {i}");
        }
    }
}
