//! Schema-cast validation without modifications (§3.2).
//!
//! [`CastContext`] preprocesses a (source, target) schema pair: it computes
//! the [`TypeRelations`] fixpoints and lazily builds one product
//! [immediate decision automaton](schemacast_automata::ProductIda) per
//! encountered type pair for content-model checking (§4 integration — the
//! paper's own Xerces prototype skipped this part "due to the complexity of
//! modifying the Xerces code base"; [`CastOptions::use_ida`] turns it off to
//! reproduce exactly their configuration, and on for the full algorithm).
//!
//! At runtime, [`CastContext::validate`] walks the document validating
//! against both schemas in parallel, skipping every subtree whose type pair
//! is subsumed and failing fast on disjoint pairs.
//!
//! That walk, `Walk`, is the crate's one tree walk: every validator that
//! checks the elements of a [`Doc`] runs it. [`FullValidator`] is the walk
//! with no source side (Definition 1), [`DtdCastValidator`] runs its
//! per-element step on indexed nodes, [`explain`] reports the element it
//! stops at, and [`ModsValidator`] hands it every untouched or inserted
//! subtree.
//!
//! [`FullValidator`]: crate::FullValidator
//! [`DtdCastValidator`]: crate::DtdCastValidator
//! [`explain`]: crate::explain()
//! [`ModsValidator`]: crate::ModsValidator

use crate::labels::LabelTable;
use crate::pairs::{publish, PairTable};
use crate::relations::TypeRelations;
use crate::safety::Exemptions;
use crate::stats::{CastOutcome, ValidationStats};
use schemacast_automata::{Dfa, ProductIda, StringCast};
use schemacast_regex::{Alphabet, Sym};
use schemacast_schema::{AbstractSchema, ComplexType, TypeDef, TypeId};
use schemacast_tree::{Doc, NodeId};

/// Feature toggles for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CastOptions {
    /// Skip subtrees whose type pair is in `R_sub`.
    pub use_subsumption: bool,
    /// Reject immediately on disjoint type pairs.
    pub use_disjointness: bool,
    /// Check content models with the product IDA (early accept/reject)
    /// instead of running the target DFA over all children labels.
    pub use_ida: bool,
}

impl Default for CastOptions {
    fn default() -> Self {
        CastOptions {
            use_subsumption: true,
            use_disjointness: true,
            use_ida: true,
        }
    }
}

impl CastOptions {
    /// The configuration of the paper's modified Xerces: subsumption and
    /// disjointness pruning, but plain DFA content-model checks.
    pub fn paper_prototype() -> CastOptions {
        CastOptions {
            use_ida: false,
            ..Default::default()
        }
    }

    /// Everything off: equivalent to full validation against the target.
    pub fn baseline() -> CastOptions {
        CastOptions {
            use_subsumption: false,
            use_disjointness: false,
            use_ida: false,
        }
    }
}

/// A preprocessed schema pair, ready to revalidate many documents.
///
/// A `&CastContext` is `Sync`. Its per-pair artifacts (product IDAs, string
/// casts, edit-safety analyses) live in one dense table of publish-once
/// slots, built on first use with no lock held and then borrowed for the
/// context's lifetime, so worker threads validating different documents
/// (the batch engine's shape) take no lock and write no shared reference
/// count per element.
pub struct CastContext<'a> {
    source: &'a AbstractSchema,
    target: &'a AbstractSchema,
    relations: TypeRelations,
    options: CastOptions,
    /// The per-pair artifacts, indexed by `s·|T| + t`.
    pub(crate) pairs: PairTable,
    /// The labels of the alphabet the context was built over, for the
    /// streaming validator's start tags.
    pub(crate) labels: LabelTable,
}

impl<'a> CastContext<'a> {
    /// Preprocesses the pair with default options (full algorithm).
    pub fn new(
        source: &'a AbstractSchema,
        target: &'a AbstractSchema,
        alphabet: &Alphabet,
    ) -> CastContext<'a> {
        Self::with_options(source, target, alphabet, CastOptions::default())
    }

    /// Preprocesses the pair with explicit options: the relation fixpoints,
    /// and a read-only table of `alphabet`'s labels that the streaming
    /// validator resolves start tags through.
    pub fn with_options(
        source: &'a AbstractSchema,
        target: &'a AbstractSchema,
        alphabet: &Alphabet,
        options: CastOptions,
    ) -> CastContext<'a> {
        let relations = TypeRelations::compute(source, target, alphabet);
        CastContext {
            source,
            target,
            relations,
            options,
            pairs: PairTable::new(source.type_count(), target.type_count()),
            labels: LabelTable::new(alphabet),
        }
    }

    /// The source schema.
    pub fn source(&self) -> &AbstractSchema {
        self.source
    }

    /// The target schema.
    pub fn target(&self) -> &AbstractSchema {
        self.target
    }

    /// The computed subsumption/disjointness relations.
    pub fn relations(&self) -> &TypeRelations {
        &self.relations
    }

    /// The active options.
    pub fn options(&self) -> CastOptions {
        self.options
    }

    /// §3.2 `doValidate`: decides whether `doc` — known valid with respect
    /// to the source schema — is valid with respect to the target schema.
    ///
    /// If the precondition is broken (the root label is not even in the
    /// source's ℛ), falls back to full validation against the target, so
    /// the answer is correct regardless.
    pub fn validate(&self, doc: &Doc) -> CastOutcome {
        self.validate_with_stats(doc).0
    }

    /// Like [`CastContext::validate`], with cost counters.
    pub fn validate_with_stats(&self, doc: &Doc) -> (CastOutcome, ValidationStats) {
        let mut stats = ValidationStats::default();
        let root = doc.root();
        let Some(label) = doc.label(root) else {
            return (CastOutcome::Invalid, stats);
        };
        let Some(tgt) = self.target.root_type(label) else {
            return (CastOutcome::Invalid, stats);
        };
        let src = self.source.root_type(label);
        let ok = Walk::cast(self).run(doc, root, src, tgt, &mut stats);
        (CastOutcome::from_bool(ok.is_ok()), stats)
    }

    /// The product IDA of a (source, target) complex type pair, built on
    /// first use.
    ///
    /// On a miss the automaton is constructed with no lock held; racing
    /// callers all borrow the one published IDA.
    pub fn product_ida(&self, src: TypeId, tgt: TypeId) -> &ProductIda {
        publish(&self.pairs.entry(src, tgt).ida, || {
            let (a, b) = self.content_dfas(src, tgt);
            ProductIda::new(a, b)
        })
    }

    /// The string cast with reverse automata of a (source, target) complex
    /// type pair, built on first use: revalidates a child list after edits
    /// (§4.3).
    pub(crate) fn string_cast(&self, src: TypeId, tgt: TypeId) -> &StringCast {
        publish(&self.pairs.entry(src, tgt).string_cast, || {
            let (a, b) = self.content_dfas(src, tgt);
            StringCast::new(a.clone(), b.clone()).with_reverse()
        })
    }

    /// The content DFAs of a (source, target) complex type pair.
    fn content_dfas(&self, src: TypeId, tgt: TypeId) -> (&Dfa, &Dfa) {
        let pair = self.source.type_def(src).as_complex();
        let (a, b) = pair
            .zip(self.target.type_def(tgt).as_complex())
            .expect("content automata require a complex type pair");
        (&a.dfa, &b.dfa)
    }

    /// Number of product IDAs built so far.
    pub fn cached_ida_count(&self) -> usize {
        self.pairs.ida_count()
    }

    /// The (source, target) type pairs whose content models the validator
    /// can actually run an IDA over: starting from `(ℛ(σ), ℛ'(σ))` for
    /// every label σ rooted in both schemas, follow matching child labels of
    /// complex pairs that are neither subsumed nor disjoint (others are
    /// never content-checked). Deterministic order.
    pub fn reachable_pairs(&self) -> Vec<(TypeId, TypeId)> {
        let mut seen: std::collections::HashSet<(TypeId, TypeId)> =
            std::collections::HashSet::new();
        let mut stack: Vec<(TypeId, TypeId)> = Vec::new();
        let mut out: Vec<(TypeId, TypeId)> = Vec::new();
        for (label, s) in self.source.roots() {
            if let Some(t) = self.target.root_type(label) {
                if seen.insert((s, t)) {
                    stack.push((s, t));
                }
            }
        }
        while let Some((s, t)) = stack.pop() {
            if self.options.use_subsumption && self.relations.subsumed(s, t) {
                continue;
            }
            if self.options.use_disjointness && self.relations.disjoint(s, t) {
                continue;
            }
            let (Some(cs), Some(ct)) = (
                self.source.type_def(s).as_complex(),
                self.target.type_def(t).as_complex(),
            ) else {
                continue;
            };
            out.push((s, t));
            for (&label, &child_s) in &cs.child_types {
                if let Some(child_t) = ct.child_type(label) {
                    if seen.insert((child_s, child_t)) {
                        stack.push((child_s, child_t));
                    }
                }
            }
        }
        out
    }

    /// Eagerly builds the product IDAs of every type pair *reachable* from
    /// a shared root label (the pairs the validator can actually encounter),
    /// so that no first-validation latency remains. Returns the number of
    /// IDAs materialized. (The batch engine exposes a parallel variant.)
    pub fn warm_up(&self) -> usize {
        if !self.options.use_ida {
            return 0;
        }
        let pairs = self.reachable_pairs();
        for &(s, t) in &pairs {
            let _ = self.product_ida(s, t);
        }
        pairs.len()
    }
}

/// Why the walk rejected an element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reason {
    /// The element's (source, target) type pair is in `R_dis`.
    Disjoint,
    /// A simple type whose content is not a single text node (or nothing).
    NotSimpleContent,
    /// A simple value the target simple type does not admit.
    InvalidValue,
    /// Character data among the children of a complex type.
    TextInElementContent,
    /// A child word outside the target content model, or a child label
    /// the target types nowhere.
    ContentModel,
}

/// The element a walk stopped at: the node, its type pair and the reason.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rejection {
    pub(crate) node: NodeId,
    pub(crate) src: Option<TypeId>,
    pub(crate) tgt: TypeId,
    pub(crate) reason: Reason,
}

/// The §3.2 `validate(τ, τ', e)` walk over a [`Doc`], with an explicit work
/// stack so that document depth never consumes call-stack frames.
///
/// An element with a source type is skipped when its pair is in `R_sub`
/// and rejected when it is in `R_dis` (as [`CastOptions`] allow); every
/// other element gets the per-element step [`Walk::check_element`], and
/// its children are typed and pushed. An element the source does not type
/// starts a full validation of its subtree (counted in
/// [`ValidationStats::full_validations`] when the walk has a source side).
pub(crate) struct Walk<'w> {
    target: &'w AbstractSchema,
    /// The schema pair, when elements carry source types; `None` is full
    /// validation against `target` alone.
    cast: Option<&'w CastContext<'w>>,
    /// Edit sites and their ancestors, for the static edit tiers.
    exemptions: Option<&'w Exemptions>,
}

impl<'w> Walk<'w> {
    /// Full validation against one schema (Definition 1).
    pub(crate) fn full(target: &'w AbstractSchema) -> Walk<'w> {
        Walk {
            target,
            cast: None,
            exemptions: None,
        }
    }

    /// Schema-cast validation over a preprocessed pair.
    pub(crate) fn cast(ctx: &'w CastContext<'w>) -> Walk<'w> {
        Walk {
            target: ctx.target,
            cast: Some(ctx),
            exemptions: None,
        }
    }

    /// [`Walk::cast`] with exemption sets from the static update-safety
    /// analyzer: `skip` subtrees are counted valid without inspection (the
    /// analyzer proved every edited site subtree target-valid), and
    /// `unpruned` nodes — the root→site ancestor paths — run with
    /// subsumption skips *and* disjointness rejects disabled, because their
    /// subtrees contain an edit and are therefore not source-valid, which
    /// is the precondition both prunings rest on. Content-model checks on
    /// unpruned nodes are still sound: an ancestor's own child word is
    /// untouched by edits below it.
    pub(crate) fn exempt(ctx: &'w CastContext<'w>, exemptions: &'w Exemptions) -> Walk<'w> {
        Walk {
            exemptions: Some(exemptions),
            ..Walk::cast(ctx)
        }
    }

    /// Validates the subtree at `node` with source type `src` (none where
    /// the source schema does not type it) and target type `tgt`.
    pub(crate) fn run(
        &self,
        doc: &Doc,
        node: NodeId,
        src: Option<TypeId>,
        tgt: TypeId,
        stats: &mut ValidationStats,
    ) -> Result<(), Rejection> {
        // (node, source type, target type, whether a full validation
        // starts here), children in document order on top.
        let mut work = vec![(node, src, tgt, src.is_none() && self.cast.is_some())];
        let mut labels: Vec<Sym> = Vec::new();
        while let Some((node, src, tgt, full_root)) = work.pop() {
            if self.exemptions.is_some_and(|ex| ex.skip.contains(&node)) {
                continue;
            }
            stats.nodes_visited += 1;
            stats.full_validations += usize::from(full_root);
            let reject = |reason| Rejection {
                node,
                src,
                tgt,
                reason,
            };
            if let (Some(cx), Some(s)) = (self.cast, src) {
                let prune = self
                    .exemptions
                    .is_none_or(|ex| !ex.unpruned.contains(&node));
                if prune && cx.options.use_subsumption && cx.relations.subsumed(s, tgt) {
                    stats.subsumed_skips += 1;
                    continue;
                }
                if prune && cx.options.use_disjointness && cx.relations.disjoint(s, tgt) {
                    stats.disjoint_rejects += 1;
                    return Err(reject(Reason::Disjoint));
                }
            }
            let Some(c_tgt) = self
                .check_element(doc, node, src, tgt, &mut labels, stats)
                .map_err(reject)?
            else {
                continue;
            };
            let src_cx = self.source_complex(src);
            let base = work.len();
            for (child, &label) in doc.validation_children(node).zip(&labels) {
                let Some(child_tgt) = c_tgt.child_type_dense(label) else {
                    return Err(reject(Reason::ContentModel));
                };
                let child_src = src_cx.and_then(|c| c.child_type_dense(label));
                work.push((
                    child,
                    child_src,
                    child_tgt,
                    src.is_some() && child_src.is_none(),
                ));
            }
            work[base..].reverse();
        }
        Ok(())
    }

    /// The per-element step: checks `node`'s own content against `tgt`,
    /// not its descendants. A simple type checks the value. A complex type
    /// checks the child word, left in `labels`: through the product IDA
    /// when the source side is complex and [`CastOptions::use_ida`] is set,
    /// otherwise through the target DFA. Returns the complex target type,
    /// whose children the caller may type next.
    pub(crate) fn check_element(
        &self,
        doc: &Doc,
        node: NodeId,
        src: Option<TypeId>,
        tgt: TypeId,
        labels: &mut Vec<Sym>,
        stats: &mut ValidationStats,
    ) -> Result<Option<&'w ComplexType>, Reason> {
        let c_tgt = match self.target.type_def(tgt) {
            TypeDef::Simple(simple) => {
                stats.value_checks += 1;
                let mut children = doc.validation_children(node);
                let value = match (children.next(), children.next()) {
                    (None, _) => "",
                    (Some(only), None) => {
                        stats.nodes_visited += 1;
                        doc.text(only).ok_or(Reason::NotSimpleContent)?
                    }
                    (Some(_), Some(_)) => return Err(Reason::NotSimpleContent),
                };
                return if simple.validate(value) {
                    Ok(None)
                } else {
                    Err(Reason::InvalidValue)
                };
            }
            TypeDef::Complex(c) => c,
        };
        labels.clear();
        for child in doc.validation_children(node) {
            labels.push(doc.label(child).ok_or(Reason::TextInElementContent)?);
        }
        let ida = match (self.cast, src) {
            (Some(cx), Some(s)) if cx.options.use_ida && self.source_complex(src).is_some() => {
                Some(cx.product_ida(s, tgt))
            }
            _ => None,
        };
        let accepted = match ida {
            Some(ida) => {
                let out = ida.run(labels);
                stats.content_symbols_scanned += out.consumed();
                let early = usize::from(out.early());
                if out.accepted() {
                    stats.ida_early_accepts += early;
                } else {
                    stats.ida_early_rejects += early;
                }
                out.accepted()
            }
            None => {
                stats.content_symbols_scanned += labels.len();
                c_tgt.dfa.accepts(labels)
            }
        };
        if accepted {
            Ok(Some(c_tgt))
        } else {
            Err(Reason::ContentModel)
        }
    }

    /// The complex source type behind `src`, if the walk has a source side.
    fn source_complex(&self, src: Option<TypeId>) -> Option<&'w ComplexType> {
        let (cx, s) = self.cast.zip(src)?;
        cx.source.type_def(s).as_complex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_schema::{AtomicKind, SchemaBuilder, SimpleType};

    /// Figure 1 pair plus documents, shared by the tests.
    struct Fixture {
        source: AbstractSchema,
        target: AbstractSchema,
        alphabet: Alphabet,
    }

    fn po_schema(ab: &mut Alphabet, bill_optional: bool, qty_max: i64) -> AbstractSchema {
        let mut b = SchemaBuilder::new(ab);
        let text = b.simple("Text", SimpleType::string()).unwrap();
        let mut qty_ty = SimpleType::of(AtomicKind::PositiveInteger);
        qty_ty.facets.max_exclusive = Some(schemacast_schema::BoundValue::Num(
            schemacast_schema::Decimal::from_i64(qty_max),
        ));
        let qty = b.simple("Qty", qty_ty).unwrap();
        let addr = b.declare("USAddress").unwrap();
        b.complex(
            addr,
            "(name, street, city)",
            &[("name", text), ("street", text), ("city", text)],
        )
        .unwrap();
        let item = b.declare("Item").unwrap();
        b.complex(
            item,
            "(productName, quantity, USPrice)",
            &[("productName", text), ("quantity", qty), ("USPrice", text)],
        )
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

    fn fixture(bill_optional_src: bool, src_max: i64, tgt_max: i64) -> Fixture {
        let mut alphabet = Alphabet::new();
        let source = po_schema(&mut alphabet, bill_optional_src, src_max);
        let target = po_schema(&mut alphabet, false, tgt_max);
        Fixture {
            source,
            target,
            alphabet,
        }
    }

    fn po_doc(f: &mut Fixture, with_bill: bool, items: usize, qty: &str) -> Doc {
        let ab = &mut f.alphabet;
        let po = ab.intern("purchaseOrder");
        let ship = ab.intern("shipTo");
        let bill = ab.intern("billTo");
        let items_l = ab.intern("items");
        let item = ab.intern("item");
        let pn = ab.intern("productName");
        let q = ab.intern("quantity");
        let price = ab.intern("USPrice");
        let name = ab.intern("name");
        let street = ab.intern("street");
        let city = ab.intern("city");

        let mut doc = Doc::new(po);
        let addr = |doc: &mut Doc, label| {
            let a = doc.add_element(doc.root(), label);
            for l in [name, street, city] {
                let e = doc.add_element(a, l);
                doc.add_text(e, "v");
            }
        };
        addr(&mut doc, ship);
        if with_bill {
            addr(&mut doc, bill);
        }
        let il = doc.add_element(doc.root(), items_l);
        for _ in 0..items {
            let i = doc.add_element(il, item);
            let e = doc.add_element(i, pn);
            doc.add_text(e, "Widget");
            let e = doc.add_element(i, q);
            doc.add_text(e, qty);
            let e = doc.add_element(i, price);
            doc.add_text(e, "9.99");
        }
        doc
    }

    #[test]
    fn experiment1_accepts_with_billto_in_constant_nodes() {
        let mut f = fixture(true, 100, 100);
        let small = po_doc(&mut f, true, 2, "5");
        let large = po_doc(&mut f, true, 200, "5");
        let ctx = CastContext::new(&f.source, &f.target, &f.alphabet);
        let (out_s, stats_s) = ctx.validate_with_stats(&small);
        let (out_l, stats_l) = ctx.validate_with_stats(&large);
        assert!(out_s.is_valid());
        assert!(out_l.is_valid());
        // The hallmark of Experiment 1: node visits do not grow with the
        // document (billTo presence decides everything).
        assert_eq!(stats_s.nodes_visited, stats_l.nodes_visited);
        assert!(
            stats_s.nodes_visited <= 4,
            "visited {}",
            stats_s.nodes_visited
        );
        assert!(stats_l.subsumed_skips >= 1);
    }

    #[test]
    fn experiment1_rejects_missing_billto_immediately() {
        let mut f = fixture(true, 100, 100);
        let doc = po_doc(&mut f, false, 50, "5");
        // Valid per source (billTo optional), invalid per target.
        assert!(f.source.accepts_document(&doc));
        assert!(!f.target.accepts_document(&doc));
        let ctx = CastContext::new(&f.source, &f.target, &f.alphabet);
        let (out, stats) = ctx.validate_with_stats(&doc);
        assert!(!out.is_valid());
        assert!(stats.nodes_visited <= 2, "visited {}", stats.nodes_visited);
    }

    #[test]
    fn experiment2_checks_each_quantity() {
        // Source maxExclusive=200, target=100.
        let mut f = fixture(false, 200, 100);
        let ok = po_doc(&mut f, true, 10, "99");
        let bad = po_doc(&mut f, true, 10, "150");
        assert!(f.source.accepts_document(&ok));
        assert!(f.source.accepts_document(&bad));
        let ctx = CastContext::new(&f.source, &f.target, &f.alphabet);
        let (out_ok, stats_ok) = ctx.validate_with_stats(&ok);
        assert!(out_ok.is_valid());
        assert_eq!(stats_ok.value_checks, 10);
        // Address subtrees were skipped via subsumption.
        assert!(stats_ok.subsumed_skips >= 2);
        let (out_bad, _) = ctx.validate_with_stats(&bad);
        assert!(!out_bad.is_valid());
    }

    #[test]
    fn cast_agrees_with_full_validation_on_all_options() {
        let mut f = fixture(true, 200, 100);
        let docs = [
            po_doc(&mut f, true, 3, "50"),
            po_doc(&mut f, false, 3, "50"),
            po_doc(&mut f, true, 0, "50"),
            po_doc(&mut f, true, 3, "150"),
            po_doc(&mut f, true, 3, "99"),
        ];
        for opts in [
            CastOptions::default(),
            CastOptions::paper_prototype(),
            CastOptions::baseline(),
            CastOptions {
                use_subsumption: true,
                use_disjointness: false,
                use_ida: true,
            },
        ] {
            let ctx = CastContext::with_options(&f.source, &f.target, &f.alphabet, opts);
            for (i, doc) in docs.iter().enumerate() {
                // Precondition: these documents are valid per the source.
                assert!(f.source.accepts_document(doc), "doc {i} source-valid");
                let expect = f.target.accepts_document(doc);
                assert_eq!(
                    ctx.validate(doc).is_valid(),
                    expect,
                    "doc {i} under {opts:?}"
                );
            }
        }
    }

    #[test]
    fn identical_schemas_skip_everything() {
        let mut f = fixture(true, 100, 100);
        let source2 = po_schema(&mut f.alphabet, true, 100);
        let doc = po_doc(&mut f, true, 100, "5");
        let ctx = CastContext::new(&f.source, &source2, &f.alphabet);
        let (out, stats) = ctx.validate_with_stats(&doc);
        assert!(out.is_valid());
        // Root pair subsumed: one node visited, everything else skipped.
        assert_eq!(stats.nodes_visited, 1);
        assert_eq!(stats.subsumed_skips, 1);
    }

    #[test]
    fn warm_up_builds_reachable_idas() {
        let mut f = fixture(true, 200, 100);
        let doc = po_doc(&mut f, true, 5, "50");
        let ctx = CastContext::new(&f.source, &f.target, &f.alphabet);
        let built = ctx.warm_up();
        // The PO pair is the only non-subsumed, non-disjoint complex pair
        // reachable in experiment 2 fixtures… plus Items/Item chains.
        assert!(built >= 1, "built {built}");
        // Verdicts unchanged after warm-up.
        assert!(ctx.validate(&doc).is_valid());
        // Warm-up is idempotent.
        assert_eq!(ctx.warm_up(), built);
    }

    #[test]
    fn root_label_unknown_to_target_is_invalid() {
        let mut f = fixture(true, 100, 100);
        let other = f.alphabet.intern("unknownRoot");
        let doc = Doc::new(other);
        let ctx = CastContext::new(&f.source, &f.target, &f.alphabet);
        assert!(!ctx.validate(&doc).is_valid());
    }

    #[test]
    fn fallback_when_source_precondition_broken() {
        // Root label known to the target but not the source: validate fully.
        let mut alphabet = Alphabet::new();
        let source = {
            let mut b = SchemaBuilder::new(&mut alphabet);
            let t = b.simple("T", SimpleType::string()).unwrap();
            b.root("other", t);
            b.finish().unwrap()
        };
        let target = {
            let mut b = SchemaBuilder::new(&mut alphabet);
            let t = b.simple("T", SimpleType::string()).unwrap();
            b.root("note", t);
            b.finish().unwrap()
        };
        let note = alphabet.lookup("note").unwrap();
        let mut doc = Doc::new(note);
        doc.add_text(doc.root(), "hello");
        let ctx = CastContext::new(&source, &target, &alphabet);
        let (out, stats) = ctx.validate_with_stats(&doc);
        assert!(out.is_valid());
        assert_eq!(stats.full_validations, 1);
    }
}
