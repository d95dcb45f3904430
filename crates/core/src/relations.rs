//! The `R_sub` and `R_dis` relations (§3.2, Definitions 4–5).
//!
//! `R_sub` is computed as a *greatest* fixpoint: start from all type pairs
//! whose content-model languages are included (`L(regexp_τ) ⊆ L(regexp_τ')`,
//! decided on the compiled DFAs) and refine away pairs whose child types
//! break the relation. `R_nondis` is a *least* fixpoint: a pair is
//! non-disjoint once a witness string exists in
//! `L(regexp_τ) ∩ L(regexp_τ') ∩ P*`, where `P` collects the labels whose
//! child-type pairs are already known non-disjoint. `R_dis` is its
//! complement (Theorem 2).
//!
//! Both seeds are pair-graph walks over the content-model DFAs
//! ([`language_subset`], [`intersection_nonempty_restricted`]) that follow
//! only live (non-sink) transitions through a dense visited bitset. The
//! `R_nondis` fixpoint is driven by a worklist rather than repeated sweeps:
//! every complex pair is checked once, and a pair is checked again only
//! when one of its child pairs enters the relation — the only event that
//! can grow its `P`. The order in which pairs enter is recorded
//! ([`TypeRelations::nondis_order`]); each witness rests on strictly
//! earlier pairs, which is the emission order of `R_nondis` certificates.
//!
//! Deviation from the paper's merged-χ exposition (anticipated by its
//! "straightforward extension" remark): simple×simple pairs are seeded with
//! the value-space subsumption/disjointness of `schemacast-schema::simple`
//! rather than unconditionally related — this is what makes Experiment 2
//! (a `maxExclusive` narrowing) force per-value checks. Simple×complex
//! pairs are handled soundly: they are never subsumed, and they are
//! non-disjoint exactly when both accept the childless element (a nullable
//! content model meets a simple type accepting the empty string).

use schemacast_automata::{intersection_nonempty_restricted, language_subset, BitSet};
use schemacast_regex::{Alphabet, Sym};
use schemacast_schema::{AbstractSchema, TypeDef, TypeId};
use std::collections::VecDeque;

/// The precomputed subsumption and (non-)disjointness relations between the
/// types of a source schema and a target schema.
#[derive(Debug, Clone)]
pub struct TypeRelations {
    /// `sub[τ]` = set of target types subsuming source type `τ`.
    sub: Vec<BitSet>,
    /// `nondis[τ]` = set of target types not disjoint from `τ`.
    nondis: Vec<BitSet>,
    /// Insertion order of each nondis pair into the least fixpoint
    /// (flattened `s · target_count + t`; `u32::MAX` = not nondis). The
    /// certificate layer emits `R_nondis` witnesses in this order so every
    /// witness references only strictly earlier pairs — the well-founded
    /// structure the checker enforces.
    nondis_order: Vec<u32>,
    target_count: usize,
}

impl TypeRelations {
    /// Computes both relations for a schema pair over a shared alphabet.
    pub fn compute(
        source: &AbstractSchema,
        target: &AbstractSchema,
        alphabet: &Alphabet,
    ) -> TypeRelations {
        let (n_src, n_tgt) = (source.type_count(), target.type_count());
        let mut sub: Vec<BitSet> = (0..n_src).map(|_| BitSet::new(n_tgt)).collect();
        let mut nondis: Vec<BitSet> = (0..n_src).map(|_| BitSet::new(n_tgt)).collect();
        let mut nondis_order = vec![u32::MAX; n_src * n_tgt];
        let mut order_counter: u32 = 0;

        // ---- R_sub: seed, then refine (greatest fixpoint). ----
        for s in source.type_ids() {
            for t in target.type_ids() {
                let related = match (source.type_def(s), target.type_def(t)) {
                    (TypeDef::Simple(a), TypeDef::Simple(b)) => a.subsumed_by(b),
                    (TypeDef::Complex(a), TypeDef::Complex(b)) => language_subset(&a.dfa, &b.dfa),
                    // Simple vs. complex: never subsumed (see module docs).
                    _ => false,
                };
                if related {
                    sub[s.index()].insert(t.index());
                }
            }
        }
        loop {
            let mut changed = false;
            for s in source.type_ids() {
                let TypeDef::Complex(a) = source.type_def(s) else {
                    continue;
                };
                let candidates: Vec<usize> = sub[s.index()].iter().collect();
                for ti in candidates {
                    let t = TypeId(ti as u32);
                    let TypeDef::Complex(b) = target.type_def(t) else {
                        continue;
                    };
                    let broken = a.child_types.iter().any(|(&label, &child_s)| {
                        match b.child_type(label) {
                            Some(child_t) => !sub[child_s.index()].contains(child_t.index()),
                            // Label has no target child type: conservatively
                            // break the pair.
                            None => true,
                        }
                    });
                    if broken {
                        sub[s.index()].remove(ti);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // ---- R_nondis: least fixpoint. ----
        // The P bitset must have room for every label either schema can
        // mention. Normally `alphabet.len()` covers that, but if the caller
        // hands a stale alphabet snapshot (schemas compiled against a later
        // interning state), sizing from the alphabet alone would drop labels
        // from P — silently shrinking `P*` and over-approximating
        // disjointness into wrong rejections. Size from both sources and
        // assert the invariant instead of skipping.
        let mut label_capacity = alphabet.len();
        for schema in [source, target] {
            for t in schema.type_ids() {
                if let TypeDef::Complex(c) = schema.type_def(t) {
                    for &label in c.child_types.keys() {
                        label_capacity = label_capacity.max(label.index() + 1);
                    }
                }
            }
        }

        // Seed: simple pairs that share a value; simple/complex pairs that
        // share the childless element.
        for s in source.type_ids() {
            for t in target.type_ids() {
                let seeded = match (source.type_def(s), target.type_def(t)) {
                    (TypeDef::Simple(a), TypeDef::Simple(b)) => !a.disjoint_from(b),
                    (TypeDef::Simple(a), TypeDef::Complex(b)) => {
                        a.validate("") && b.regex.nullable()
                    }
                    (TypeDef::Complex(a), TypeDef::Simple(b)) => {
                        a.regex.nullable() && b.validate("")
                    }
                    (TypeDef::Complex(_), TypeDef::Complex(_)) => false,
                };
                if seeded {
                    nondis[s.index()].insert(t.index());
                    nondis_order[s.index() * n_tgt + t.index()] = order_counter;
                    order_counter += 1;
                }
            }
        }

        // Reverse child indexes: when `(cs, ct)` enters the relation, the
        // pairs whose `P` can grow are exactly the `(s, t)` with
        // `s.child(ℓ) = cs` and `t.child(ℓ) = ct` for some label `ℓ`. Lists
        // are sorted so the re-check order — and with it `nondis_order` —
        // does not depend on hash-map iteration order.
        let mut src_parents: Vec<Vec<(Sym, TypeId)>> = vec![Vec::new(); n_src];
        for s in source.type_ids() {
            if let TypeDef::Complex(a) = source.type_def(s) {
                for (&label, &cs) in &a.child_types {
                    src_parents[cs.index()].push((label, s));
                }
            }
        }
        let mut tgt_by_label: Vec<Vec<(TypeId, TypeId)>> = vec![Vec::new(); label_capacity];
        for t in target.type_ids() {
            if let TypeDef::Complex(b) = target.type_def(t) {
                for (&label, &ct) in &b.child_types {
                    tgt_by_label[label.index()].push((ct, t));
                }
            }
        }
        for list in &mut src_parents {
            list.sort_unstable();
        }
        for list in &mut tgt_by_label {
            list.sort_unstable();
        }

        // Worklist: every complex pair once in `(s, t)` order (the first
        // sweep of the round-based formulation), then each pair again only
        // when one of its child pairs enters the relation. `P` is read from
        // the relation at check time, so a witness only rests on pairs with
        // strictly smaller `nondis_order`.
        let mut queue: VecDeque<(TypeId, TypeId)> = VecDeque::new();
        let mut queued = BitSet::new(n_src * n_tgt);
        for s in source.type_ids() {
            if !matches!(source.type_def(s), TypeDef::Complex(_)) {
                continue;
            }
            for t in target.type_ids() {
                if matches!(target.type_def(t), TypeDef::Complex(_)) {
                    queue.push_back((s, t));
                    queued.insert(s.index() * n_tgt + t.index());
                }
            }
        }
        while let Some((s, t)) = queue.pop_front() {
            queued.remove(s.index() * n_tgt + t.index());
            let (TypeDef::Complex(a), TypeDef::Complex(b)) =
                (source.type_def(s), target.type_def(t))
            else {
                continue;
            };
            // P = labels whose child-type pair is already nondis.
            let mut allowed = BitSet::new(label_capacity);
            for (&label, &child_s) in &a.child_types {
                if let Some(child_t) = b.child_type(label) {
                    if nondis[child_s.index()].contains(child_t.index()) {
                        // Checked in release builds too: a label beyond the
                        // bitset would be silently dropped from P, shrinking
                        // `P*` and turning non-disjoint pairs into wrong
                        // rejections (the out-of-range-label regression).
                        // `label_capacity` is sized from both schemas above,
                        // so a violation here is a sizing bug worth an
                        // immediate abort.
                        assert!(
                            label.index() < allowed.capacity(),
                            "label {} outside the sized alphabet ({})",
                            label.index(),
                            allowed.capacity()
                        );
                        allowed.insert(label.index());
                    }
                }
            }
            if !intersection_nonempty_restricted(&a.dfa, &b.dfa, Some(&allowed)) {
                continue;
            }
            nondis[s.index()].insert(t.index());
            nondis_order[s.index() * n_tgt + t.index()] = order_counter;
            order_counter += 1;
            for &(label, ps) in &src_parents[s.index()] {
                for &(ct, pt) in &tgt_by_label[label.index()] {
                    if ct == t
                        && !nondis[ps.index()].contains(pt.index())
                        && queued.insert(ps.index() * n_tgt + pt.index())
                    {
                        queue.push_back((ps, pt));
                    }
                }
            }
        }

        TypeRelations {
            sub,
            nondis,
            nondis_order,
            target_count: n_tgt,
        }
    }

    /// The position at which `(s, t)` entered the `R_nondis` least
    /// fixpoint, or `None` if the pair is disjoint. Monotone over the
    /// fixpoint run: every pair's witness only rests on pairs with smaller
    /// positions, which is the well-founded emission order for `R_nondis`
    /// certificates.
    pub fn nondis_order(&self, s: TypeId, t: TypeId) -> Option<u32> {
        let o = self.nondis_order[s.index() * self.target_count + t.index()];
        (o != u32::MAX).then_some(o)
    }

    /// `τ ≤ τ'`: every tree valid for the source type is valid for the
    /// target type (Definition 2 / Theorem 1).
    pub fn subsumed(&self, s: TypeId, t: TypeId) -> bool {
        debug_assert!(t.index() < self.target_count);
        self.sub[s.index()].contains(t.index())
    }

    /// `τ ⊘ τ'`: no tree is valid for both (Definition 3 / Theorem 2).
    pub fn disjoint(&self, s: TypeId, t: TypeId) -> bool {
        debug_assert!(t.index() < self.target_count);
        !self.nondis[s.index()].contains(t.index())
    }

    /// Number of subsumed pairs (diagnostics).
    pub fn subsumed_pair_count(&self) -> usize {
        self.sub.iter().map(BitSet::count).sum()
    }

    /// Number of disjoint pairs (diagnostics).
    pub fn disjoint_pair_count(&self) -> usize {
        self.sub.len() * self.target_count - self.nondis.iter().map(BitSet::count).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_schema::{SchemaBuilder, SimpleType};

    /// Figure 1: source with optional billTo, target requiring it.
    fn figure1() -> (AbstractSchema, AbstractSchema, Alphabet) {
        let mut ab = Alphabet::new();
        let source = {
            let mut b = SchemaBuilder::new(&mut ab);
            let text = b.simple("Text", SimpleType::string()).unwrap();
            let addr = b.declare("USAddress").unwrap();
            b.complex(
                addr,
                "(name, street, city)",
                &[("name", text), ("street", text), ("city", text)],
            )
            .unwrap();
            let items = b.declare("Items").unwrap();
            b.complex(items, "item*", &[("item", text)]).unwrap();
            let po = b.declare("POType1").unwrap();
            b.complex(
                po,
                "(shipTo, billTo?, items)",
                &[("shipTo", addr), ("billTo", addr), ("items", items)],
            )
            .unwrap();
            b.root("purchaseOrder", po);
            b.finish().unwrap()
        };
        let target = {
            let mut b = SchemaBuilder::new(&mut ab);
            let text = b.simple("Text", SimpleType::string()).unwrap();
            let addr = b.declare("USAddress").unwrap();
            b.complex(
                addr,
                "(name, street, city)",
                &[("name", text), ("street", text), ("city", text)],
            )
            .unwrap();
            let items = b.declare("Items").unwrap();
            b.complex(items, "item*", &[("item", text)]).unwrap();
            let po = b.declare("POType2").unwrap();
            b.complex(
                po,
                "(shipTo, billTo, items)",
                &[("shipTo", addr), ("billTo", addr), ("items", items)],
            )
            .unwrap();
            b.root("purchaseOrder", po);
            b.finish().unwrap()
        };
        (source, target, ab)
    }

    #[test]
    fn figure1_relations() {
        let (source, target, ab) = figure1();
        let rel = TypeRelations::compute(&source, &target, &ab);
        let s_po = source.type_by_name("POType1").unwrap();
        let t_po = target.type_by_name("POType2").unwrap();
        let s_addr = source.type_by_name("USAddress").unwrap();
        let t_addr = target.type_by_name("USAddress").unwrap();
        let s_items = source.type_by_name("Items").unwrap();
        let t_items = target.type_by_name("Items").unwrap();

        // Identical types subsume each other.
        assert!(rel.subsumed(s_addr, t_addr));
        assert!(rel.subsumed(s_items, t_items));
        // The PO types: source NOT subsumed by target (billTo optional vs
        // required), but not disjoint either (documents with billTo).
        assert!(!rel.subsumed(s_po, t_po));
        assert!(!rel.disjoint(s_po, t_po));
        // Address and items are not disjoint from themselves.
        assert!(!rel.disjoint(s_addr, t_addr));
    }

    #[test]
    fn reverse_direction_is_subsumed() {
        let (source, target, ab) = figure1();
        // Casting from the *target* (billTo required) to the source
        // (optional) subsumes: every required-billTo doc is acceptable.
        let rel = TypeRelations::compute(&target, &source, &ab);
        let t_po = target.type_by_name("POType2").unwrap();
        let s_po = source.type_by_name("POType1").unwrap();
        assert!(rel.subsumed(t_po, s_po));
    }

    #[test]
    fn child_type_breakage_propagates() {
        // Same content models, but a child's simple type narrows: the parent
        // pair must leave R_sub even though the regex languages coincide.
        let mut ab = Alphabet::new();
        let mk = |ab: &mut Alphabet, max_len: Option<usize>| {
            let mut b = SchemaBuilder::new(ab);
            let mut st = SimpleType::string();
            st.facets.max_length = max_len;
            let leaf = b.simple("Leaf", st).unwrap();
            let root = b.declare("Root").unwrap();
            b.complex(root, "(x)", &[("x", leaf)]).unwrap();
            b.root("r", root);
            b.finish().unwrap()
        };
        let source = mk(&mut ab, None);
        let target = mk(&mut ab, Some(3));
        let rel = TypeRelations::compute(&source, &target, &ab);
        let s_root = source.type_by_name("Root").unwrap();
        let t_root = target.type_by_name("Root").unwrap();
        assert!(!rel.subsumed(s_root, t_root));
        // Still not disjoint: short strings satisfy both.
        assert!(!rel.disjoint(s_root, t_root));
        // Reverse direction subsumes.
        let rel_rev = TypeRelations::compute(&target, &source, &ab);
        assert!(rel_rev.subsumed(t_root, s_root));
    }

    #[test]
    fn disjoint_content_models() {
        let mut ab = Alphabet::new();
        let mk = |ab: &mut Alphabet, model: &str, kids: &[&str]| {
            let mut b = SchemaBuilder::new(ab);
            let text = b.simple("Text", SimpleType::string()).unwrap();
            let root = b.declare("Root").unwrap();
            let child_types: Vec<(&str, TypeId)> = kids.iter().map(|k| (*k, text)).collect();
            b.complex(root, model, &child_types).unwrap();
            b.root("r", root);
            b.finish().unwrap()
        };
        let source = mk(&mut ab, "(a, a)", &["a"]);
        let target = mk(&mut ab, "(b, b)", &["b"]);
        let rel = TypeRelations::compute(&source, &target, &ab);
        let s = source.type_by_name("Root").unwrap();
        let t = target.type_by_name("Root").unwrap();
        assert!(rel.disjoint(s, t));
        assert!(!rel.subsumed(s, t));
    }

    #[test]
    fn recursive_disjointness_via_child_types() {
        // Content models intersect as string languages ("x" both), but the
        // child types of x are disjoint simple types — so the parents are
        // disjoint too, which only the P*-restricted fixpoint detects.
        let mut ab = Alphabet::new();
        let mk = |ab: &mut Alphabet, kind: schemacast_schema::AtomicKind| {
            let mut b = SchemaBuilder::new(ab);
            let leaf = b.simple("Leaf", SimpleType::of(kind)).unwrap();
            let root = b.declare("Root").unwrap();
            b.complex(root, "(x)", &[("x", leaf)]).unwrap();
            b.root("r", root);
            b.finish().unwrap()
        };
        let source = mk(&mut ab, schemacast_schema::AtomicKind::Date);
        let target = mk(&mut ab, schemacast_schema::AtomicKind::Integer);
        let rel = TypeRelations::compute(&source, &target, &ab);
        let s = source.type_by_name("Root").unwrap();
        let t = target.type_by_name("Root").unwrap();
        assert!(rel.disjoint(s, t));
    }

    #[test]
    fn stale_alphabet_snapshot_does_not_weaken_disjointness() {
        // Regression: the P bitset used to be sized from the caller's
        // alphabet and labels beyond its capacity were silently skipped,
        // which shrank P* and flipped non-disjoint pairs to disjoint. An
        // empty alphabet snapshot is the extreme case: every label would
        // have been dropped.
        let (source, target, full_ab) = figure1();
        let stale_ab = Alphabet::new();
        let fresh = TypeRelations::compute(&source, &target, &full_ab);
        let stale = TypeRelations::compute(&source, &target, &stale_ab);
        for s in source.type_ids() {
            for t in target.type_ids() {
                assert_eq!(
                    fresh.disjoint(s, t),
                    stale.disjoint(s, t),
                    "disjointness of ({s:?}, {t:?}) depends on alphabet snapshot"
                );
                assert_eq!(fresh.subsumed(s, t), stale.subsumed(s, t));
            }
        }
        // And the paper's Figure 1 pair stays correctly non-disjoint.
        let s_po = source.type_by_name("POType1").unwrap();
        let t_po = target.type_by_name("POType2").unwrap();
        assert!(!stale.disjoint(s_po, t_po));
    }

    #[test]
    fn out_of_range_labels_hit_the_checked_guard_not_silent_truncation() {
        // Regression companion to the stale-alphabet test: labels whose
        // indices lie far beyond the caller's alphabet snapshot must still
        // land inside the P bitset (the guard in `compute` is a hard
        // `assert!` now, not a debug-only check). Interning a pile of
        // unrelated symbols first pushes the schema's own labels to high
        // indices; an empty snapshot then maximizes the out-of-range gap.
        let mut ab = Alphabet::new();
        for i in 0..500 {
            ab.intern(&format!("padding{i}"));
        }
        let mut b = SchemaBuilder::new(&mut ab);
        let text = b.simple("Text", SimpleType::string()).unwrap();
        let root = b.declare("Root").unwrap();
        b.complex(root, "(hi, lo?)", &[("hi", text), ("lo", text)])
            .unwrap();
        b.root("r", root);
        let schema = b.finish().unwrap();

        let stale_ab = Alphabet::new();
        let rel = TypeRelations::compute(&schema, &schema, &stale_ab);
        let r = schema.type_by_name("Root").unwrap();
        // With the truncation bug, `hi`/`lo` (indices ≥ 500) fell out of P,
        // P* became empty, and the self-pair flipped to disjoint.
        assert!(!rel.disjoint(r, r));
        assert!(rel.subsumed(r, r));
    }

    #[test]
    fn nondis_order_is_well_founded() {
        let (source, target, ab) = figure1();
        let rel = TypeRelations::compute(&source, &target, &ab);
        for s in source.type_ids() {
            for t in target.type_ids() {
                assert_eq!(rel.nondis_order(s, t).is_some(), !rel.disjoint(s, t));
            }
        }
        // A complex pair enters the fixpoint strictly after the child pairs
        // its witness instantiates.
        let s_po = source.type_by_name("POType1").unwrap();
        let t_po = target.type_by_name("POType2").unwrap();
        let s_addr = source.type_by_name("USAddress").unwrap();
        let t_addr = target.type_by_name("USAddress").unwrap();
        assert!(rel.nondis_order(s_addr, t_addr).unwrap() < rel.nondis_order(s_po, t_po).unwrap());
    }

    #[test]
    fn simple_complex_nondisjoint_only_on_empty() {
        let mut ab = Alphabet::new();
        // Source: simple string type at root label; target: nullable complex.
        let source = {
            let mut b = SchemaBuilder::new(&mut ab);
            let s = b.simple("S", SimpleType::string()).unwrap();
            b.root("r", s);
            b.finish().unwrap()
        };
        let target = {
            let mut b = SchemaBuilder::new(&mut ab);
            let text = b.simple("Text", SimpleType::string()).unwrap();
            let c = b.declare("C").unwrap();
            b.complex(c, "x?", &[("x", text)]).unwrap();
            let d = b.declare("D").unwrap();
            b.complex(d, "(x)", &[("x", text)]).unwrap();
            b.root("r", c);
            b.root("r2", d);
            b.finish().unwrap()
        };
        let rel = TypeRelations::compute(&source, &target, &ab);
        let s = source.type_by_name("S").unwrap();
        let c = target.type_by_name("C").unwrap();
        let d = target.type_by_name("D").unwrap();
        // The childless element <r/> is valid for both S and C…
        assert!(!rel.disjoint(s, c));
        // …but D requires a child element, which S never has.
        assert!(rel.disjoint(s, d));
        // Simple never subsumed by complex.
        assert!(!rel.subsumed(s, c));
    }
}
