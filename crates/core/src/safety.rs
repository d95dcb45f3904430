//! Static update-safety analysis: classify edits as Safe / Unsafe / Dynamic
//! against a schema pair *before* touching any document.
//!
//! The word-level machinery lives in [`schemacast_automata::safety`]: for a
//! `(source, target)` content-model pair, the product IDA's `IA`/`IR` sets
//! decide whether inserting, deleting, or relabelling one symbol always,
//! never, or sometimes preserves membership in the target language. This
//! module lifts those word verdicts to *tree* verdicts over type pairs:
//!
//! * **Insert ℓ** is `Safe` when the word verdict is safe, the target child
//!   type of ℓ accepts a childless leaf (a simple type validating `""`, or
//!   a nullable content model — a freshly inserted element has no
//!   children), and every sibling subtree stays valid
//!   ([`PairSafety::child_sub_stable`]); it is `Unsafe` when the word
//!   verdict is unsafe or the inserted leaf can never be valid.
//! * **Delete ℓ** is `Safe` when the word verdict is safe and siblings are
//!   stable; `Unsafe` when no word survives the deletion.
//! * **Relabel ℓ→m** additionally consults `R_sub`/`R_dis` on the child
//!   type pair `(types_τ(ℓ), types_τ'(m))`: subsumption is required for
//!   `Safe`, disjointness forces `Unsafe` (the kept subtree is source-valid
//!   for ℓ's type, so a disjoint target type can never accept it).
//!
//! `Safe`/`Unsafe` verdicts are *universally* quantified — over every
//! source-valid document and every position the edit shape can apply to —
//! which is what makes the engine's fast path sound: an `Unsafe` edit
//! rejects the document without looking at it, and an all-`Safe` script
//! reduces revalidation to a walk that skips every edited subtree
//! ([`CastContext::validate_with_exemptions`]). Everything else falls back
//! to the dynamic Δ-revalidation path (`Dynamic` is genuinely
//! data-dependent; `Inapplicable` shapes let the runtime surface the edit
//! error).
//!
//! Analyses are built once per type pair into the context's pair table,
//! beside the product IDAs and with the same publish-once discipline, so
//! batch workers borrow them without a lock.

use crate::cast::{CastContext, Walk};
use crate::pairs::publish;
use crate::stats::{CastOutcome, ValidationStats};
use loomlite::sync::Arc;
use schemacast_automata::safety::EditWordAnalysis;
use schemacast_regex::Sym;
use schemacast_schema::{AbstractSchema, TypeDef, TypeId};
use schemacast_tree::shapes::{extract_shapes, EditShape, EditShapeKind};
use schemacast_tree::{Doc, Edit, NodeId};
use std::collections::{HashMap, HashSet};

pub use schemacast_automata::safety::SafetyVerdict as Verdict;

/// Subtrees the exemption-aware cast walk skips or refuses to prune
/// (see [`Walk::exempt`]).
pub(crate) struct Exemptions {
    /// Edited sites: their subtrees are counted valid without inspection.
    pub(crate) skip: HashSet<NodeId>,
    /// Strict ancestors of edited sites: subsumption/disjointness pruning
    /// is disabled because their subtrees are not source-valid post-edit.
    pub(crate) unpruned: HashSet<NodeId>,
}

/// A symbol no schema ever interns: steps every DFA into its sink, standing
/// in for "any label outside both content models".
const FOREIGN: Sym = Sym(u32::MAX);

/// The static edit-safety analysis of one `(source, target)` complex type
/// pair: a verdict per (edit kind, label) over the labels either content
/// model mentions, plus the sibling-stability flag the tree-level verdicts
/// are conditioned on.
#[derive(Debug)]
pub struct PairSafety {
    /// Union of both content models' labels, sorted for deterministic
    /// rendering.
    labels: Vec<Sym>,
    insert: HashMap<Sym, Verdict>,
    delete: HashMap<Sym, Verdict>,
    relabel: HashMap<(Sym, Sym), Verdict>,
    /// Verdict for inserting a label foreign to both models.
    insert_foreign: Verdict,
    /// Per-`from` verdict for relabelling to a foreign label.
    relabel_foreign: HashMap<Sym, Verdict>,
    /// Whether every label that can occur in a source word maps to a
    /// subsumed child type pair — the condition under which untouched
    /// sibling subtrees are guaranteed to stay target-valid.
    child_sub_stable: bool,
}

impl PairSafety {
    /// The labels the analysis covers (union of both content models),
    /// sorted by symbol index.
    pub fn labels(&self) -> &[Sym] {
        &self.labels
    }

    /// Whether untouched child subtrees are guaranteed target-valid: every
    /// label occurring in some source word has child types related by
    /// `R_sub`.
    pub fn child_sub_stable(&self) -> bool {
        self.child_sub_stable
    }

    /// The tree-level verdict for an edit shape under this type pair.
    /// Labels outside both content models resolve to the precomputed
    /// foreign verdicts.
    pub fn verdict(&self, kind: EditShapeKind) -> Verdict {
        match kind {
            EditShapeKind::Insert(l) => self.insert.get(&l).copied().unwrap_or(self.insert_foreign),
            EditShapeKind::Delete(l) => self
                .delete
                .get(&l)
                .copied()
                .unwrap_or(Verdict::Inapplicable),
            EditShapeKind::Relabel { from, to } => {
                self.relabel.get(&(from, to)).copied().unwrap_or_else(|| {
                    self.relabel_foreign
                        .get(&from)
                        .copied()
                        .unwrap_or(Verdict::Inapplicable)
                })
            }
        }
    }

    /// Counts of (safe, unsafe, dynamic, inapplicable) verdicts across all
    /// stored entries (insert + delete + relabel).
    pub fn verdict_counts(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for v in self
            .insert
            .values()
            .chain(self.delete.values())
            .chain(self.relabel.values())
        {
            let i = match v {
                Verdict::Safe => 0,
                Verdict::Unsafe => 1,
                Verdict::Dynamic => 2,
                Verdict::Inapplicable => 3,
            };
            counts[i] += 1;
        }
        counts
    }
}

/// Whether a childless element is valid for `t` in `schema`: a simple type
/// accepting the empty string, or a complex type with a nullable model.
pub(crate) fn accepts_childless(schema: &AbstractSchema, t: TypeId) -> bool {
    match schema.type_def(t) {
        TypeDef::Simple(s) => s.validate(""),
        TypeDef::Complex(c) => c.regex.nullable(),
    }
}

/// One interned safety matrix row: a type pair and its analysis.
#[derive(Debug, Clone)]
pub struct MatrixEntry {
    /// The source type.
    pub source: TypeId,
    /// The target type.
    pub target: TypeId,
    /// The pair's edit-safety analysis.
    pub safety: Arc<PairSafety>,
}

/// The full safety matrix of a schema pair: one row per analyzable
/// (reachable complex × complex) type pair, in deterministic order.
#[derive(Debug, Clone, Default)]
pub struct SafetyMatrix {
    entries: Vec<MatrixEntry>,
}

impl SafetyMatrix {
    /// The rows, sorted by (source, target) type index.
    pub fn entries(&self) -> &[MatrixEntry] {
        &self.entries
    }

    /// Number of analyzed pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no pair was analyzable.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<'a> CastContext<'a> {
    /// Complex type pairs the static analyzer covers: starting from
    /// `(ℛ(σ), ℛ'(σ))` for every label rooted in both schemas, follow
    /// matching child labels of complex pairs — **without** the
    /// subsumption/disjointness pruning of
    /// [`CastContext::reachable_pairs`], because an edit can occur inside a
    /// subtree the validator would prune (the analyzer must still classify
    /// it). Sorted by type index.
    pub fn analyzable_pairs(&self) -> Vec<(TypeId, TypeId)> {
        let mut seen: HashSet<(TypeId, TypeId)> = HashSet::new();
        let mut stack: Vec<(TypeId, TypeId)> = Vec::new();
        let mut out: Vec<(TypeId, TypeId)> = Vec::new();
        for (label, s) in self.source().roots() {
            if let Some(t) = self.target().root_type(label) {
                if seen.insert((s, t)) {
                    stack.push((s, t));
                }
            }
        }
        while let Some((s, t)) = stack.pop() {
            let (Some(cs), Some(ct)) = (
                self.source().type_def(s).as_complex(),
                self.target().type_def(t).as_complex(),
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
        out.sort_unstable_by_key(|&(s, t)| (s.index(), t.index()));
        out
    }

    /// The edit-safety analysis of a complex type pair, built on first use,
    /// or `None` if either side is simple (simple content has no child word
    /// to edit).
    ///
    /// Kept in the context's pair table beside the product IDAs, with the
    /// same publish-once discipline; racing batch workers borrow one
    /// analysis.
    pub fn pair_safety(&self, s: TypeId, t: TypeId) -> Option<&PairSafety> {
        self.shared_pair_safety(s, t).map(|safety| &**safety)
    }

    /// [`CastContext::pair_safety`] as the table holds it, for the matrix
    /// rows that own a share.
    fn shared_pair_safety(&self, s: TypeId, t: TypeId) -> Option<&Arc<PairSafety>> {
        if self.source().type_def(s).as_complex().is_none()
            || self.target().type_def(t).as_complex().is_none()
        {
            return None;
        }
        Some(publish(&self.pairs.entry(s, t).safety, || {
            Arc::new(self.build_pair_safety(s, t))
        }))
    }

    /// The full safety matrix over [`CastContext::analyzable_pairs`].
    pub fn safety_matrix(&self) -> SafetyMatrix {
        let entries = self
            .analyzable_pairs()
            .into_iter()
            .filter_map(|(s, t)| {
                self.shared_pair_safety(s, t).map(|safety| MatrixEntry {
                    source: s,
                    target: t,
                    safety: Arc::clone(safety),
                })
            })
            .collect();
        SafetyMatrix { entries }
    }

    fn build_pair_safety(&self, s: TypeId, t: TypeId) -> PairSafety {
        let cs = self
            .source()
            .type_def(s)
            .as_complex()
            .expect("pair_safety requires complex source");
        let ct = self
            .target()
            .type_def(t)
            .as_complex()
            .expect("pair_safety requires complex target");
        let analysis = EditWordAnalysis::new(&cs.dfa, &ct.dfa, self.product_ida(s, t));

        // Sibling stability: every label occurring in a source word must
        // map to an R_sub-related child type pair (missing target typing is
        // conservatively unstable).
        let child_sub_stable = cs.dfa.useful_symbols().iter().all(|i| {
            let sym = Sym(i as u32);
            match (cs.child_type(sym), ct.child_type(sym)) {
                (Some(a), Some(b)) => self.relations().subsumed(a, b),
                _ => false,
            }
        });

        let mut labels: Vec<Sym> = cs
            .child_types
            .keys()
            .chain(ct.child_types.keys())
            .copied()
            .collect();
        labels.sort_unstable();
        labels.dedup();

        let insert_tree = |label: Sym| -> Verdict {
            match analysis.insert(label) {
                Verdict::Inapplicable => Verdict::Inapplicable,
                Verdict::Unsafe => Verdict::Unsafe,
                word => match ct.child_type(label) {
                    // A fresh element leaf must itself be target-valid.
                    Some(child_t) if !accepts_childless(self.target(), child_t) => Verdict::Unsafe,
                    Some(_) if word == Verdict::Safe && child_sub_stable => Verdict::Safe,
                    // `None` is unreachable in practice: a label outside the
                    // target model makes the word verdict Unsafe already.
                    _ => Verdict::Dynamic,
                },
            }
        };
        let delete_tree = |label: Sym| -> Verdict {
            match analysis.delete(label) {
                Verdict::Safe if child_sub_stable => Verdict::Safe,
                Verdict::Safe => Verdict::Dynamic,
                word => word,
            }
        };
        let relabel_tree = |from: Sym, to: Sym| -> Verdict {
            match analysis.relabel(from, to) {
                Verdict::Inapplicable => Verdict::Inapplicable,
                Verdict::Unsafe => Verdict::Unsafe,
                word => match (cs.child_type(from), ct.child_type(to)) {
                    // The kept subtree is source-valid for `from`'s type; a
                    // disjoint target type can never accept it.
                    (Some(a), Some(b)) if self.relations().disjoint(a, b) => Verdict::Unsafe,
                    (Some(a), Some(b))
                        if word == Verdict::Safe
                            && child_sub_stable
                            && self.relations().subsumed(a, b) =>
                    {
                        Verdict::Safe
                    }
                    _ => Verdict::Dynamic,
                },
            }
        };

        let insert = labels.iter().map(|&l| (l, insert_tree(l))).collect();
        let delete = labels.iter().map(|&l| (l, delete_tree(l))).collect();
        let mut relabel = HashMap::with_capacity(labels.len() * labels.len());
        for &from in &labels {
            for &to in &labels {
                relabel.insert((from, to), relabel_tree(from, to));
            }
        }
        let insert_foreign = match analysis.insert(FOREIGN) {
            // No target typing exists for a foreign label; the word verdict
            // is decisive (Unsafe unless the pair admits no word at all).
            Verdict::Inapplicable => Verdict::Inapplicable,
            _ => Verdict::Unsafe,
        };
        let relabel_foreign = labels
            .iter()
            .map(|&from| (from, analysis.relabel(from, FOREIGN)))
            .collect();

        PairSafety {
            labels,
            insert,
            delete,
            relabel,
            insert_foreign,
            relabel_foreign,
            child_sub_stable,
        }
    }

    /// Packages the certificate trace of one safety-matrix row: the static
    /// facts its Safe/Unsafe verdicts consumed, resolved against the
    /// already-assigned certificate indices. Returns `Err` when a consumed
    /// fact has no certificate to point at — an emission failure the caller
    /// reports as `SC0401` (the verdicts themselves are then uncertified
    /// and `--certify` fails closed).
    pub(crate) fn safety_certificate(
        &self,
        entry: &MatrixEntry,
        ida_ref: u32,
        sub_idx: &HashMap<(TypeId, TypeId), u32>,
        dis_idx: &HashMap<(TypeId, TypeId), u32>,
    ) -> Result<schemacast_certify::SafetyCert, String> {
        use schemacast_certify::{RelabelLink, SafetyCert, SubObligation};
        let (s, t) = (entry.source, entry.target);
        let cs = self
            .source()
            .type_def(s)
            .as_complex()
            .ok_or("safety entry with simple source")?;
        let ct = self
            .target()
            .type_def(t)
            .as_complex()
            .ok_or("safety entry with simple target")?;

        // The stability claim: one R_sub obligation per useful source label.
        let stable = if entry.safety.child_sub_stable() {
            let mut obligations = Vec::new();
            for i in cs.dfa.useful_symbols().iter() {
                let sym = Sym(i as u32);
                let (Some(a), Some(b)) = (cs.child_type(sym), ct.child_type(sym)) else {
                    return Err(format!("stable label {i} lacks child typing"));
                };
                let child_ref = *sub_idx.get(&(a, b)).ok_or_else(|| {
                    format!("stable label {i}: child pair has no sub certificate")
                })?;
                obligations.push(SubObligation {
                    symbol: i as u32,
                    child_source: a.index() as u32,
                    child_target: b.index() as u32,
                    child_ref,
                });
            }
            Some(obligations)
        } else {
            None
        };

        // Every R_sub / R_dis fact a relabel verdict consulted.
        let mut sub_links = Vec::new();
        let mut dis_links = Vec::new();
        for &from in entry.safety.labels() {
            for &to in entry.safety.labels() {
                let (Some(a), Some(b)) = (cs.child_type(from), ct.child_type(to)) else {
                    continue;
                };
                let link = |cert_ref: u32| RelabelLink {
                    from: from.0,
                    to: to.0,
                    child_source: a.index() as u32,
                    child_target: b.index() as u32,
                    cert_ref,
                };
                if self.relations().subsumed(a, b) {
                    let r = *sub_idx
                        .get(&(a, b))
                        .ok_or("relabel pair lacks a sub certificate for its child types")?;
                    sub_links.push(link(r));
                }
                if self.relations().disjoint(a, b) {
                    let r = *dis_idx
                        .get(&(a, b))
                        .ok_or("relabel pair lacks a dis certificate for its child types")?;
                    dis_links.push(link(r));
                }
            }
        }
        Ok(SafetyCert {
            source_type: s.index() as u32,
            target_type: t.index() as u32,
            ida_ref,
            stable,
            sub_links,
            dis_links,
        })
    }

    /// The (source, target) typing of `site` obtained by walking its root
    /// path through both schemas' `ℛ` and `types_τ` maps — the pair the
    /// validator would check the site against. `None` when the path does
    /// not resolve in either schema (no static verdict applies; the dynamic
    /// path decides).
    pub fn site_type_pair(&self, doc: &Doc, site: NodeId) -> Option<(TypeId, TypeId)> {
        let mut path: Vec<Sym> = Vec::new();
        let mut cur = site;
        while let Some(parent) = doc.parent(cur) {
            path.push(doc.label(cur)?);
            cur = parent;
        }
        let root_label = doc.label(cur)?;
        let mut s = self.source().root_type(root_label)?;
        let mut t = self.target().root_type(root_label)?;
        for &label in path.iter().rev() {
            s = self.source().type_def(s).as_complex()?.child_type(label)?;
            t = self.target().type_def(t).as_complex()?.child_type(label)?;
        }
        Some((s, t))
    }

    /// The static verdict for one edit against `doc`, or `None` when the
    /// edit's shape is unsupported or its site's typing does not resolve.
    pub fn edit_verdict(&self, doc: &Doc, edit: &Edit) -> Option<Verdict> {
        let shapes = extract_shapes(doc, std::slice::from_ref(edit))?;
        let shape = shapes.first()?;
        let (s, t) = self.site_type_pair(doc, shape.site)?;
        Some(self.pair_safety(s, t)?.verdict(shape.kind))
    }

    /// Tries to decide an edited document statically, without applying the
    /// script: returns the outcome (plus stats crediting `static_rejects`
    /// or `static_skips`) when every edit is statically decided, `None`
    /// when any edit needs the dynamic Δ-revalidation path.
    ///
    /// Precondition: `doc` (pre-edit) is valid for the source schema — the
    /// same precondition as [`CastContext::validate`].
    ///
    /// * Any `Unsafe` edit ⇒ `Invalid` instantly: its site subtree can
    ///   never be target-valid, and no other (distinct, non-nested) site's
    ///   edit can repair it.
    /// * All edits `Safe` ⇒ the exemption walk: a §3.2 cast of the
    ///   *original* document that skips every edited site subtree (the
    ///   verdicts prove them target-valid post-edit) and disables
    ///   subsumption/disjointness pruning on their ancestor chains (those
    ///   subtrees are no longer source-valid, which both prunings assume).
    pub fn validate_edited_static(
        &self,
        doc: &Doc,
        edits: &[Edit],
    ) -> Option<(CastOutcome, ValidationStats)> {
        let shapes = extract_shapes(doc, edits)?;
        if shapes.is_empty() {
            // Nothing changes: a plain cast of the document is exact.
            return Some(self.validate_with_stats(doc));
        }
        let mut decided: Vec<&EditShape> = Vec::with_capacity(shapes.len());
        for shape in &shapes {
            let (s, t) = self.site_type_pair(doc, shape.site)?;
            match self.pair_safety(s, t)?.verdict(shape.kind) {
                Verdict::Unsafe => {
                    let stats = ValidationStats {
                        static_rejects: 1,
                        ..Default::default()
                    };
                    return Some((CastOutcome::Invalid, stats));
                }
                Verdict::Safe => decided.push(shape),
                Verdict::Dynamic | Verdict::Inapplicable => return None,
            }
        }
        let sites: Vec<NodeId> = decided.iter().map(|s| s.site).collect();
        let (outcome, mut stats) = self.validate_with_exemptions(doc, &sites);
        stats.static_skips += 1;
        Some((outcome, stats))
    }

    /// The exemption walk backing the all-`Safe` fast path: validates `doc`
    /// as in [`CastContext::validate_with_stats`], except that each site in
    /// `exempt_sites` is skipped (counted valid) and pruning is disabled on
    /// every strict ancestor of a site. See
    /// [`CastContext::validate_edited_static`] for the soundness argument.
    pub fn validate_with_exemptions(
        &self,
        doc: &Doc,
        exempt_sites: &[NodeId],
    ) -> (CastOutcome, ValidationStats) {
        let mut skip: HashSet<NodeId> = HashSet::with_capacity(exempt_sites.len());
        let mut unpruned: HashSet<NodeId> = HashSet::new();
        for &site in exempt_sites {
            skip.insert(site);
            let mut cur = site;
            while let Some(parent) = doc.parent(cur) {
                unpruned.insert(parent);
                cur = parent;
            }
        }
        let exemptions = Exemptions { skip, unpruned };

        let mut stats = ValidationStats::default();
        let root = doc.root();
        let Some(label) = doc.label(root) else {
            return (CastOutcome::Invalid, stats);
        };
        let Some(tgt_type) = self.target().root_type(label) else {
            return (CastOutcome::Invalid, stats);
        };
        let Some(src_type) = self.source().root_type(label) else {
            // No source typing: the callers above never get here (site
            // typing resolved through the source), but degrade gracefully.
            return (CastOutcome::Invalid, stats);
        };
        let ok =
            Walk::exempt(self, &exemptions).run(doc, root, Some(src_type), tgt_type, &mut stats);
        (CastOutcome::from_bool(ok.is_ok()), stats)
    }

    /// Tries to decide an edited document via the *script-level* analyzer
    /// ([`CastContext::script_analysis`]): per-site net effects instead of
    /// per-edit universal verdicts. Returns the outcome (crediting
    /// `script_rejects` or `script_skips`) when the whole script is
    /// decided, `None` when any site stays undecided or the script falls
    /// outside the supported shape.
    ///
    /// Same precondition as [`CastContext::validate_edited_static`]; meant
    /// to run *after* it (the per-edit path is cheaper and its counters
    /// keep their meaning) and *before* dynamic Δ-revalidation.
    ///
    /// * Script `Reject` ⇒ `Invalid`: some site's net child word (or a
    ///   child's typing) can never be target-valid, and no other
    ///   (non-nested) site can repair it.
    /// * Script `Accept` ⇒ the same exemption walk as the per-edit path,
    ///   skipping decided non-identity sites; identity-effect sites are
    ///   untouched and validated normally.
    pub fn validate_edited_script(
        &self,
        doc: &Doc,
        edits: &[Edit],
    ) -> Option<(CastOutcome, ValidationStats)> {
        let analysis = self.script_analysis(doc, edits)?;
        match analysis.verdict {
            crate::script::ScriptVerdict::Reject => {
                let stats = ValidationStats {
                    script_rejects: 1,
                    ..Default::default()
                };
                Some((CastOutcome::Invalid, stats))
            }
            crate::script::ScriptVerdict::Accept => {
                let sites = analysis.exempt_sites();
                let (outcome, mut stats) = self.validate_with_exemptions(doc, &sites);
                stats.script_skips += 1;
                Some((outcome, stats))
            }
            crate::script::ScriptVerdict::Undecided => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_regex::Alphabet;
    use schemacast_schema::{SchemaBuilder, SimpleType};
    use schemacast_tree::DeltaDoc;

    /// A feed-like schema: root "feed" with `(entry | note)*`, where entry
    /// requires a title and note is a simple string.
    fn feed_schema(ab: &mut Alphabet, allow_note: bool) -> AbstractSchema {
        let mut b = SchemaBuilder::new(ab);
        let text = b.simple("Text", SimpleType::string()).unwrap();
        let entry = b.declare("Entry").unwrap();
        b.complex(entry, "(title)", &[("title", text)]).unwrap();
        let feed = b.declare("Feed").unwrap();
        if allow_note {
            b.complex(feed, "(entry | note)*", &[("entry", entry), ("note", text)])
                .unwrap();
        } else {
            b.complex(feed, "entry*", &[("entry", entry)]).unwrap();
        }
        b.root("feed", feed);
        b.finish().unwrap()
    }

    fn feed_doc(ab: &mut Alphabet, entries: usize, notes: usize) -> Doc {
        let feed = ab.intern("feed");
        let entry = ab.intern("entry");
        let note = ab.intern("note");
        let title = ab.intern("title");
        let mut doc = Doc::new(feed);
        for i in 0..entries.max(notes) {
            if i < entries {
                let e = doc.add_element(doc.root(), entry);
                let t = doc.add_element(e, title);
                doc.add_text(t, "hello");
            }
            if i < notes {
                let n = doc.add_element(doc.root(), note);
                doc.add_text(n, "a note");
            }
        }
        doc
    }

    #[test]
    fn note_edits_under_same_schema_are_safe() {
        let mut ab = Alphabet::new();
        let source = feed_schema(&mut ab, true);
        let target = feed_schema(&mut ab, true);
        let ctx = CastContext::new(&source, &target, &ab);
        let s = source.type_by_name("Feed").unwrap();
        let t = target.type_by_name("Feed").unwrap();
        let safety = ctx.pair_safety(s, t).expect("complex pair");
        let note = ab.lookup("note").unwrap();
        let entry = ab.lookup("entry").unwrap();
        assert!(safety.child_sub_stable());
        assert_eq!(safety.verdict(EditShapeKind::Insert(note)), Verdict::Safe);
        assert_eq!(safety.verdict(EditShapeKind::Delete(note)), Verdict::Safe);
        // Inserting an *entry* leaf is Unsafe: Entry requires a title child.
        assert_eq!(
            safety.verdict(EditShapeKind::Insert(entry)),
            Verdict::Unsafe
        );
        // Deleting an entry is fine word-wise and tree-wise.
        assert_eq!(safety.verdict(EditShapeKind::Delete(entry)), Verdict::Safe);
    }

    #[test]
    fn note_dropped_from_target_makes_insert_unsafe() {
        let mut ab = Alphabet::new();
        let source = feed_schema(&mut ab, true);
        let target = feed_schema(&mut ab, false);
        let ctx = CastContext::new(&source, &target, &ab);
        let s = source.type_by_name("Feed").unwrap();
        let t = target.type_by_name("Feed").unwrap();
        let safety = ctx.pair_safety(s, t).expect("complex pair");
        let note = ab.lookup("note").unwrap();
        assert_eq!(safety.verdict(EditShapeKind::Insert(note)), Verdict::Unsafe);
        // Deleting one note is data-dependent: other notes may remain in
        // the word, and the target forbids them all.
        assert_eq!(
            safety.verdict(EditShapeKind::Delete(note)),
            Verdict::Dynamic
        );
        assert!(!safety.child_sub_stable());
    }

    #[test]
    fn foreign_labels_resolve_via_fallbacks() {
        let mut ab = Alphabet::new();
        let source = feed_schema(&mut ab, true);
        let target = feed_schema(&mut ab, true);
        let ghost = ab.intern("ghost");
        let ctx = CastContext::new(&source, &target, &ab);
        let s = source.type_by_name("Feed").unwrap();
        let t = target.type_by_name("Feed").unwrap();
        let safety = ctx.pair_safety(s, t).expect("complex pair");
        let note = ab.lookup("note").unwrap();
        assert_eq!(
            safety.verdict(EditShapeKind::Insert(ghost)),
            Verdict::Unsafe
        );
        assert_eq!(
            safety.verdict(EditShapeKind::Delete(ghost)),
            Verdict::Inapplicable
        );
        assert_eq!(
            safety.verdict(EditShapeKind::Relabel {
                from: note,
                to: ghost
            }),
            Verdict::Unsafe
        );
        assert_eq!(
            safety.verdict(EditShapeKind::Relabel {
                from: ghost,
                to: note
            }),
            Verdict::Inapplicable
        );
    }

    #[test]
    fn pair_safety_is_interned() {
        let mut ab = Alphabet::new();
        let source = feed_schema(&mut ab, true);
        let target = feed_schema(&mut ab, true);
        let ctx = CastContext::new(&source, &target, &ab);
        let s = source.type_by_name("Feed").unwrap();
        let t = target.type_by_name("Feed").unwrap();
        let a = ctx.pair_safety(s, t).unwrap();
        let b = ctx.pair_safety(s, t).unwrap();
        assert!(std::ptr::eq(a, b));
        // Simple pairs are not analyzable.
        let text_s = source.type_by_name("Text").unwrap();
        let text_t = target.type_by_name("Text").unwrap();
        assert!(ctx.pair_safety(text_s, text_t).is_none());
    }

    #[test]
    fn matrix_covers_pruned_pairs_too() {
        let mut ab = Alphabet::new();
        let source = feed_schema(&mut ab, true);
        let target = feed_schema(&mut ab, true);
        let ctx = CastContext::new(&source, &target, &ab);
        // Identical schemas: the validator prunes everything by subsumption
        // (reachable_pairs is empty), but the analyzer still needs the
        // pairs — edits occur inside pruned subtrees.
        assert!(ctx.reachable_pairs().is_empty());
        let matrix = ctx.safety_matrix();
        assert_eq!(matrix.len(), 2, "Feed and Entry pairs");
        assert!(!matrix.is_empty());
    }

    #[test]
    fn static_decision_accepts_safe_insert_and_matches_oracle() {
        let mut ab = Alphabet::new();
        let source = feed_schema(&mut ab, true);
        let target = feed_schema(&mut ab, true);
        let doc = feed_doc(&mut ab, 3, 1);
        assert!(source.accepts_document(&doc));
        let ctx = CastContext::new(&source, &target, &ab);
        let note = ab.lookup("note").unwrap();
        let edits = vec![Edit::InsertElement {
            parent: doc.root(),
            position: 1,
            label: note,
        }];
        let (outcome, stats) = ctx
            .validate_edited_static(&doc, &edits)
            .expect("statically decided");
        assert!(outcome.is_valid());
        assert_eq!(stats.static_skips, 1);
        assert_eq!(stats.static_rejects, 0);
        // Oracle: apply and fully validate.
        let mut dd = DeltaDoc::new(&doc);
        dd.apply_all(&edits).unwrap();
        assert!(target.accepts_document(&dd.committed()));
    }

    #[test]
    fn static_decision_rejects_unsafe_insert() {
        let mut ab = Alphabet::new();
        let source = feed_schema(&mut ab, true);
        let target = feed_schema(&mut ab, false);
        let doc = feed_doc(&mut ab, 2, 0);
        assert!(source.accepts_document(&doc));
        let ctx = CastContext::new(&source, &target, &ab);
        let note = ab.lookup("note").unwrap();
        let edits = vec![Edit::InsertElement {
            parent: doc.root(),
            position: 0,
            label: note,
        }];
        let (outcome, stats) = ctx
            .validate_edited_static(&doc, &edits)
            .expect("statically decided");
        assert!(!outcome.is_valid());
        assert_eq!(stats.static_rejects, 1);
        // Oracle agrees.
        let mut dd = DeltaDoc::new(&doc);
        dd.apply_all(&edits).unwrap();
        assert!(!target.accepts_document(&dd.committed()));
    }

    #[test]
    fn dynamic_edits_defer_to_runtime() {
        // billTo optional → required: inserting billTo is position-dependent.
        let mut ab = Alphabet::new();
        let mk = |ab: &mut Alphabet, optional: bool| {
            let mut b = SchemaBuilder::new(ab);
            let text = b.simple("Text", SimpleType::string()).unwrap();
            let po = b.declare("PO").unwrap();
            let model = if optional {
                "(shipTo, billTo?, items)"
            } else {
                "(shipTo, billTo, items)"
            };
            b.complex(
                po,
                model,
                &[("shipTo", text), ("billTo", text), ("items", text)],
            )
            .unwrap();
            b.root("po", po);
            b.finish().unwrap()
        };
        let source = mk(&mut ab, true);
        let target = mk(&mut ab, false);
        let po = ab.lookup("po").unwrap();
        let ship = ab.lookup("shipTo").unwrap();
        let bill = ab.lookup("billTo").unwrap();
        let items = ab.lookup("items").unwrap();
        let mut doc = Doc::new(po);
        for l in [ship, items] {
            let e = doc.add_element(doc.root(), l);
            doc.add_text(e, "v");
        }
        assert!(source.accepts_document(&doc));
        let ctx = CastContext::new(&source, &target, &ab);
        let edit = Edit::InsertElement {
            parent: doc.root(),
            position: 1,
            label: bill,
        };
        assert_eq!(ctx.edit_verdict(&doc, &edit), Some(Verdict::Dynamic));
        assert!(ctx.validate_edited_static(&doc, &[edit]).is_none());
    }

    #[test]
    fn exemption_walk_disables_pruning_on_ancestors_only() {
        let mut ab = Alphabet::new();
        let source = feed_schema(&mut ab, true);
        let target = feed_schema(&mut ab, true);
        let doc = feed_doc(&mut ab, 2, 1);
        let ctx = CastContext::new(&source, &target, &ab);
        // Exempting a deep site forces the walk past the (subsumed) root
        // pair instead of skipping at it.
        let first_entry = doc.children(doc.root())[0];
        let (out, stats) = ctx.validate_with_exemptions(&doc, &[first_entry]);
        assert!(out.is_valid());
        // The root could not be subsumption-skipped (it is an ancestor of
        // the site) but the sibling entry/note subtrees could.
        assert!(stats.subsumed_skips >= 1);
        assert!(stats.nodes_visited >= 1);
        // With no exemptions the walk degenerates to the plain cast.
        let (out_plain, stats_plain) = ctx.validate_with_exemptions(&doc, &[]);
        let (out_ref, stats_ref) = ctx.validate_with_stats(&doc);
        assert_eq!(out_plain.is_valid(), out_ref.is_valid());
        assert_eq!(stats_plain, stats_ref);
    }

    #[test]
    fn multi_site_scripts_mix_into_one_decision() {
        let mut ab = Alphabet::new();
        let source = feed_schema(&mut ab, true);
        let target = feed_schema(&mut ab, true);
        let doc = feed_doc(&mut ab, 2, 2);
        assert!(source.accepts_document(&doc));
        let ctx = CastContext::new(&source, &target, &ab);
        let title = ab.lookup("title").unwrap();
        let note = ab.lookup("note").unwrap();
        // Site 1: insert a note under the root. Site 2: delete a title from
        // an entry (Unsafe: Entry requires its title).
        let entry_node = doc.children(doc.root())[0];
        let title_node = doc.children(entry_node)[0];
        assert_eq!(doc.label(title_node), Some(title));
        let edits = vec![
            Edit::InsertElement {
                parent: doc.root(),
                position: 0,
                label: note,
            },
            Edit::DeleteLeaf { node: title_node },
        ];
        // The title node has a text child, so its shape is unsupported →
        // dynamic. Remove the text first? That nests sites. Either way the
        // static path must decline, not misjudge.
        assert!(ctx.validate_edited_static(&doc, &edits).is_none());
    }
}
