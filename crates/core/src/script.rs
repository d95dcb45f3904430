//! Whole-script static analysis: group a Δ edit script by touched site,
//! normalize each site's effect, and decide the script against the target
//! schema without applying a single edit.
//!
//! The per-edit fast path ([`CastContext::validate_edited_static`]) is
//! universally quantified — a verdict must hold for *every* source word
//! and position — and restricted to one edit per site. This layer lifts
//! both limits. Each touched node's edits are replayed into one
//! [`NetEffect`] (insert/delete cancellation, rename-back cancellation,
//! and overwrite collapse fall out of the replay), and the decision runs
//! over the *concrete* child word the document actually has:
//!
//! * net word ∉ target content model ⇒ the site, hence the document, can
//!   never be target-valid — **reject**;
//! * a fresh (inserted) child whose target type rejects a childless leaf
//!   ⇒ **reject**; one that accepts it needs no further look;
//! * a kept or renamed child is source-valid for its source child type,
//!   so `R_sub` on the `(source child, target child)` pair proves it
//!   stays valid, `R_dis` proves it never can (**reject**), and anything
//!   else sends the script to the dynamic path;
//! * all sites decided ⇒ **accept**, discharged by the same edit-exempt
//!   walk as the per-edit path (identity-effect sites are *not* exempted:
//!   their subtrees are untouched and get checked normally).
//!
//! Grouping is conservative: text edits, root relabels, inserts under
//! inserted nodes, nested sites, unresolvable site typing, and sites with
//! text children all bail to the dynamic Δ-revalidation path (`None`).
//! Node ids of inserted nodes are simulated exactly as
//! [`schemacast_tree::DeltaDoc`] assigns them (sequential arena pushes),
//! so scripts that edit their own insertions resolve without applying
//! anything.

use crate::cast::CastContext;
use crate::safety::accepts_childless;
use schemacast_automata::effect::{EarlySettle, EffectOp, NetEffect, Provenance};
use schemacast_regex::Sym;
use schemacast_schema::TypeId;
use schemacast_tree::{Doc, Edit, NodeId, NodeKind};
use std::collections::{HashMap, HashSet};

/// The justification for rejecting one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The net child word is not in the target content model.
    Membership,
    /// A freshly inserted child's target type rejects a childless leaf.
    FreshInvalid {
        /// Net-word position of the fresh child.
        pos: usize,
    },
    /// A kept/renamed child's `(source, target)` child types are disjoint:
    /// its source-valid subtree can never be target-valid.
    DisjointChild {
        /// Net-word position of the child.
        pos: usize,
    },
}

/// The decision for one touched site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteDecision {
    /// The net effect is the identity — the site is effectively untouched.
    Identity,
    /// The edited site is statically proven target-valid.
    Accept,
    /// The edited site can never be target-valid.
    Reject(RejectReason),
    /// Not statically decidable; the dynamic path must look.
    Undecided,
}

/// One kept/renamed net-word position and the child-type facts consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildCheck {
    /// Net-word position.
    pub pos: usize,
    /// Source child type (of the original label).
    pub source: TypeId,
    /// Target child type (of the current label).
    pub target: TypeId,
    /// Whether the pair is in `R_sub`.
    pub subsumed: bool,
    /// Whether the pair is in `R_dis`.
    pub disjoint: bool,
}

/// One fresh net-word position and the childless-leaf fact consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreshCheck {
    /// Net-word position.
    pub pos: usize,
    /// Target child type of the inserted label, if the target types it.
    pub target: Option<TypeId>,
    /// Whether that type accepts a childless element.
    pub childless_ok: bool,
}

/// The analysis of one touched site: its typing, normalized effect, the
/// per-child facts consulted, and the decision.
#[derive(Debug, Clone)]
pub struct ScriptSite {
    /// The node whose child list the script edits.
    pub site: NodeId,
    /// Source typing of the site.
    pub source_type: TypeId,
    /// Target typing of the site.
    pub target_type: TypeId,
    /// The normalized effect (original word, ops, trace, net word,
    /// provenance).
    pub net: NetEffect,
    /// Kept/renamed-child subsumption/disjointness facts, by net position.
    pub kept: Vec<ChildCheck>,
    /// Fresh-child childless-leaf facts, by net position.
    pub fresh: Vec<FreshCheck>,
    /// How the IDA settled the membership run early, if it did.
    pub early: Option<EarlySettle>,
    /// The site decision.
    pub decision: SiteDecision,
}

/// The script-level verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptVerdict {
    /// Every site decided valid: the edited document is target-valid iff
    /// the edit-exempt walk of the untouched remainder passes.
    Accept,
    /// Some site can never be target-valid: the edited document is
    /// invalid.
    Reject,
    /// At least one site is undecided (and none rejects).
    Undecided,
}

/// The whole-script analysis: per-site decisions and the folded verdict.
#[derive(Debug, Clone)]
pub struct ScriptAnalysis {
    /// One entry per touched site, in first-touch order.
    pub sites: Vec<ScriptSite>,
    /// The folded verdict.
    pub verdict: ScriptVerdict,
}

impl ScriptAnalysis {
    /// Whether any site's trace contains a genuine normalization rewrite
    /// (cancellation or overwrite) — the scripts whose net effect is
    /// smaller than the script.
    pub fn normalized(&self) -> bool {
        self.sites.iter().any(|s| s.net.normalized())
    }

    /// The sites the accept-path exemption walk skips: decided non-identity
    /// sites. Identity-effect sites are untouched and validated normally.
    pub fn exempt_sites(&self) -> Vec<NodeId> {
        self.sites
            .iter()
            .filter(|s| s.decision == SiteDecision::Accept)
            .map(|s| s.site)
            .collect()
    }
}

/// One simulated child-list entry during grouping.
#[derive(Debug, Clone, Copy)]
struct SimChild {
    id: NodeId,
    deleted: bool,
}

/// One site's simulated child list and accumulated effect ops.
struct SiteBuild {
    site: NodeId,
    word: Vec<Sym>,
    entries: Vec<SimChild>,
    ops: Vec<EffectOp>,
}

impl SiteBuild {
    fn index_of(&self, id: NodeId) -> Option<usize> {
        self.entries.iter().position(|e| e.id == id)
    }
}

impl<'a> CastContext<'a> {
    /// Whether `node` exists in `doc` and is an element.
    fn live_element(doc: &Doc, node: NodeId) -> bool {
        node.index() < doc.node_count() && matches!(doc.kind(node), NodeKind::Element(_))
    }

    /// Groups `edits` by touched site, simulating inserted node ids the
    /// way [`schemacast_tree::DeltaDoc`] assigns them. `None` on any
    /// condition the static analysis does not cover (see module docs).
    fn group_script(doc: &Doc, edits: &[Edit]) -> Option<Vec<SiteBuild>> {
        let mut sites: Vec<SiteBuild> = Vec::new();
        let mut by_site: HashMap<NodeId, usize> = HashMap::new();
        // Inserted node id → index of its site.
        let mut inserted_at: HashMap<NodeId, usize> = HashMap::new();
        let mut next_id = doc.node_count() as u32;

        // Lazily opens the view of an original site, capturing its
        // pre-edit child word (all children must be elements).
        fn open_site(
            doc: &Doc,
            sites: &mut Vec<SiteBuild>,
            by_site: &mut HashMap<NodeId, usize>,
            site: NodeId,
        ) -> Option<usize> {
            if let Some(&i) = by_site.get(&site) {
                return Some(i);
            }
            let mut word = Vec::new();
            let mut entries = Vec::new();
            for &c in doc.children(site) {
                word.push(doc.label(c)?); // text child ⇒ bail
                entries.push(SimChild {
                    id: c,
                    deleted: false,
                });
            }
            sites.push(SiteBuild {
                site,
                word,
                entries,
                ops: Vec::new(),
            });
            by_site.insert(site, sites.len() - 1);
            Some(sites.len() - 1)
        }

        for edit in edits {
            match edit {
                Edit::InsertText { .. } | Edit::SetText { .. } => return None,
                Edit::InsertElement {
                    parent,
                    position,
                    label,
                } => {
                    if inserted_at.contains_key(parent) {
                        // Inserting under a node this script inserted:
                        // outside the one-word-per-site model.
                        return None;
                    }
                    if !Self::live_element(doc, *parent) {
                        return None;
                    }
                    let i = open_site(doc, &mut sites, &mut by_site, *parent)?;
                    let view = &mut sites[i];
                    if *position > view.entries.len() {
                        return None;
                    }
                    let id = NodeId(next_id);
                    next_id += 1;
                    view.entries
                        .insert(*position, SimChild { id, deleted: false });
                    view.ops.push(EffectOp::Insert {
                        pos: *position,
                        sym: *label,
                    });
                    inserted_at.insert(id, i);
                }
                Edit::DeleteLeaf { node } => {
                    if let Some(&i) = inserted_at.get(node) {
                        let view = &mut sites[i];
                        let pos = view.index_of(*node)?;
                        view.entries.remove(pos);
                        view.ops.push(EffectOp::Delete { pos });
                        inserted_at.remove(node);
                    } else {
                        // Original node: must be a true element leaf (a
                        // text child would make the dynamic apply fail).
                        if !Self::live_element(doc, *node) || !doc.children(*node).is_empty() {
                            return None;
                        }
                        let site = doc.parent(*node)?;
                        let i = open_site(doc, &mut sites, &mut by_site, site)?;
                        let view = &mut sites[i];
                        let pos = view.index_of(*node)?;
                        if view.entries[pos].deleted {
                            return None;
                        }
                        view.entries[pos].deleted = true;
                        view.ops.push(EffectOp::Delete { pos });
                    }
                }
                Edit::Relabel { node, label } => {
                    if let Some(&i) = inserted_at.get(node) {
                        let view = &mut sites[i];
                        let pos = view.index_of(*node)?;
                        view.ops.push(EffectOp::Relabel { pos, sym: *label });
                    } else {
                        if !Self::live_element(doc, *node) {
                            return None;
                        }
                        // Relabeling the root changes ℛ-typing, not a word.
                        let site = doc.parent(*node)?;
                        let i = open_site(doc, &mut sites, &mut by_site, site)?;
                        let view = &mut sites[i];
                        let pos = view.index_of(*node)?;
                        if view.entries[pos].deleted {
                            return None;
                        }
                        view.ops.push(EffectOp::Relabel { pos, sym: *label });
                    }
                }
            }
        }

        // Non-nested sites: no site strictly inside another site's
        // subtree. (Multiple edits per site are the whole point here, so
        // unlike the per-edit path, duplicates are fine.)
        let site_set: HashSet<NodeId> = sites.iter().map(|s| s.site).collect();
        for view in &sites {
            let mut cur = view.site;
            while let Some(p) = doc.parent(cur) {
                if site_set.contains(&p) {
                    return None;
                }
                cur = p;
            }
        }
        Some(sites)
    }

    /// Analyzes a whole edit script against the schema pair without
    /// applying it: per-site net effects, concrete-word membership with
    /// IA/IR early exit, and child-type facts. `None` when the script
    /// falls outside the supported shape (see module docs) — the dynamic
    /// Δ-revalidation path then decides.
    ///
    /// Precondition: `doc` (pre-edit) is valid for the source schema.
    pub fn script_analysis(&self, doc: &Doc, edits: &[Edit]) -> Option<ScriptAnalysis> {
        let builds = Self::group_script(doc, edits)?;
        let mut out = Vec::with_capacity(builds.len());
        let mut any_reject = false;
        let mut any_undecided = false;
        for b in builds {
            let (s, t) = self.site_type_pair(doc, b.site)?;
            let cs = self.source().type_def(s).as_complex()?;
            let ct = self.target().type_def(t).as_complex()?;
            let net = NetEffect::compose(&b.word, &b.ops)?;

            if net.is_identity() {
                out.push(ScriptSite {
                    site: b.site,
                    source_type: s,
                    target_type: t,
                    net,
                    kept: Vec::new(),
                    fresh: Vec::new(),
                    early: None,
                    decision: SiteDecision::Identity,
                });
                continue;
            }

            let outcome = net.decide(&cs.dfa, &ct.dfa, self.product_ida(s, t));

            // Per-net-position child facts, consulted whether or not the
            // word was accepted: a disjoint kept child rejects on its own,
            // and the certificate records every fact either way.
            let mut kept = Vec::new();
            let mut fresh = Vec::new();
            let mut decision = if outcome.accepted {
                SiteDecision::Accept
            } else {
                SiteDecision::Reject(RejectReason::Membership)
            };
            let mut undecided = false;
            for (pos, (&sym, &prov)) in net.word().iter().zip(net.provenance().iter()).enumerate() {
                match prov {
                    Provenance::Fresh => {
                        let target = ct.child_type(sym);
                        let childless_ok =
                            target.is_some_and(|bt| accepts_childless(self.target(), bt));
                        fresh.push(FreshCheck {
                            pos,
                            target,
                            childless_ok,
                        });
                        match target {
                            Some(_) if childless_ok => {}
                            Some(_) => {
                                // The fresh leaf itself can never be valid.
                                if decision == SiteDecision::Accept {
                                    decision =
                                        SiteDecision::Reject(RejectReason::FreshInvalid { pos });
                                }
                            }
                            // Untyped but word-accepted: should be
                            // unreachable (an untyped label steps the
                            // target DFA to its sink); stay conservative.
                            None => undecided = true,
                        }
                    }
                    Provenance::Kept(o) | Provenance::Renamed(o) => {
                        let (Some(a_c), Some(b_c)) =
                            (cs.child_type(net.orig()[o]), ct.child_type(sym))
                        else {
                            undecided = true;
                            continue;
                        };
                        let subsumed = self.relations().subsumed(a_c, b_c);
                        let disjoint = self.relations().disjoint(a_c, b_c);
                        kept.push(ChildCheck {
                            pos,
                            source: a_c,
                            target: b_c,
                            subsumed,
                            disjoint,
                        });
                        if disjoint {
                            // The kept subtree is source-valid for a_c; a
                            // disjoint target type can never accept it.
                            if decision == SiteDecision::Accept {
                                decision =
                                    SiteDecision::Reject(RejectReason::DisjointChild { pos });
                            }
                        } else if !subsumed {
                            undecided = true;
                        }
                    }
                }
            }
            if undecided && decision == SiteDecision::Accept {
                decision = SiteDecision::Undecided;
            }
            match decision {
                SiteDecision::Reject(_) => any_reject = true,
                SiteDecision::Undecided => any_undecided = true,
                _ => {}
            }
            out.push(ScriptSite {
                site: b.site,
                source_type: s,
                target_type: t,
                net,
                kept,
                fresh,
                early: outcome.early,
                decision,
            });
        }
        let verdict = if any_reject {
            ScriptVerdict::Reject
        } else if any_undecided {
            ScriptVerdict::Undecided
        } else {
            ScriptVerdict::Accept
        };
        Some(ScriptAnalysis {
            sites: out,
            verdict,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_regex::Alphabet;
    use schemacast_schema::{AbstractSchema, SchemaBuilder, SimpleType};
    use schemacast_tree::DeltaDoc;

    fn po_schema(ab: &mut Alphabet, bill_optional: bool) -> AbstractSchema {
        let mut b = SchemaBuilder::new(ab);
        let text = b.simple("Text", SimpleType::string()).unwrap();
        let po = b.declare("PO").unwrap();
        let model = if bill_optional {
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
    }

    fn po_doc(ab: &mut Alphabet, with_bill: bool) -> Doc {
        let po = ab.intern("po");
        let ship = ab.intern("shipTo");
        let bill = ab.intern("billTo");
        let items = ab.intern("items");
        let mut doc = Doc::new(po);
        doc.add_element(doc.root(), ship);
        if with_bill {
            doc.add_element(doc.root(), bill);
        }
        doc.add_element(doc.root(), items);
        doc
    }

    /// Apply-then-revalidate oracle.
    fn oracle(target: &AbstractSchema, doc: &Doc, edits: &[Edit]) -> bool {
        let mut dd = DeltaDoc::new(doc);
        dd.apply_all(edits).expect("oracle apply");
        target.accepts_document(&dd.committed())
    }

    #[test]
    fn concrete_word_decides_what_per_edit_cannot() {
        // billTo optional → required. Per-edit verdict for inserting
        // billTo is Dynamic; the script analyzer sees the concrete word.
        let mut ab = Alphabet::new();
        let source = po_schema(&mut ab, true);
        let target = po_schema(&mut ab, false);
        let doc = po_doc(&mut ab, false);
        assert!(source.accepts_document(&doc));
        let ctx = CastContext::new(&source, &target, &ab);
        let bill = ab.lookup("billTo").unwrap();

        let good = vec![Edit::InsertElement {
            parent: doc.root(),
            position: 1,
            label: bill,
        }];
        assert!(ctx.validate_edited_static(&doc, &good).is_none());
        let an = ctx.script_analysis(&doc, &good).expect("grouped");
        assert_eq!(an.verdict, ScriptVerdict::Accept);
        assert!(oracle(&target, &doc, &good));

        let bad = vec![Edit::InsertElement {
            parent: doc.root(),
            position: 0,
            label: bill,
        }];
        let an = ctx.script_analysis(&doc, &bad).expect("grouped");
        assert_eq!(an.verdict, ScriptVerdict::Reject);
        assert!(matches!(
            an.sites[0].decision,
            SiteDecision::Reject(RejectReason::Membership)
        ));
        assert!(!oracle(&target, &doc, &bad));
    }

    #[test]
    fn insert_then_delete_normalizes_to_identity() {
        let mut ab = Alphabet::new();
        let source = po_schema(&mut ab, true);
        let target = po_schema(&mut ab, false); // would reject most edits
        let doc = po_doc(&mut ab, true);
        let ctx = CastContext::new(&source, &target, &ab);
        let ghost = ab.intern("ghost");
        // Insert a bogus element then delete it: net identity, and the
        // analyzer must see through it (the per-edit path cannot even
        // group two edits on one site).
        let inserted = NodeId(doc.node_count() as u32);
        let edits = vec![
            Edit::InsertElement {
                parent: doc.root(),
                position: 1,
                label: ghost,
            },
            Edit::DeleteLeaf { node: inserted },
        ];
        assert!(ctx.validate_edited_static(&doc, &edits).is_none());
        let an = ctx.script_analysis(&doc, &edits).expect("grouped");
        assert_eq!(an.verdict, ScriptVerdict::Accept);
        assert_eq!(an.sites[0].decision, SiteDecision::Identity);
        assert!(an.normalized());
        assert!(an.exempt_sites().is_empty());
        assert!(oracle(&target, &doc, &edits));
    }

    #[test]
    fn overwritten_relabels_judge_only_the_last() {
        let mut ab = Alphabet::new();
        let source = po_schema(&mut ab, true);
        let target = po_schema(&mut ab, true);
        let doc = po_doc(&mut ab, true);
        let ctx = CastContext::new(&source, &target, &ab);
        let ghost = ab.intern("ghost");
        let bill = ab.lookup("billTo").unwrap();
        let bill_node = doc.children(doc.root())[1];
        // billTo → ghost → billTo: a rename and its rename-back cancel.
        let edits = vec![
            Edit::Relabel {
                node: bill_node,
                label: ghost,
            },
            Edit::Relabel {
                node: bill_node,
                label: bill,
            },
        ];
        let an = ctx.script_analysis(&doc, &edits).expect("grouped");
        assert_eq!(an.verdict, ScriptVerdict::Accept);
        assert_eq!(an.sites[0].decision, SiteDecision::Identity);
        assert!(an.normalized());
        assert!(oracle(&target, &doc, &edits));
    }

    #[test]
    fn unsupported_scripts_bail() {
        let mut ab = Alphabet::new();
        let source = po_schema(&mut ab, true);
        let target = po_schema(&mut ab, true);
        let doc = po_doc(&mut ab, true);
        let ctx = CastContext::new(&source, &target, &ab);
        let x = ab.intern("x");
        // Text edit.
        assert!(ctx
            .script_analysis(
                &doc,
                &[Edit::InsertText {
                    parent: doc.root(),
                    position: 0,
                    text: "t".into()
                }]
            )
            .is_none());
        // Root relabel.
        assert!(ctx
            .script_analysis(
                &doc,
                &[Edit::Relabel {
                    node: doc.root(),
                    label: x
                }]
            )
            .is_none());
        // Insert under an inserted node.
        let inserted = NodeId(doc.node_count() as u32);
        assert!(ctx
            .script_analysis(
                &doc,
                &[
                    Edit::InsertElement {
                        parent: doc.root(),
                        position: 0,
                        label: x
                    },
                    Edit::InsertElement {
                        parent: inserted,
                        position: 0,
                        label: x
                    }
                ]
            )
            .is_none());
        // Nested sites (root and a child of root).
        let ship_node = doc.children(doc.root())[0];
        assert!(ctx
            .script_analysis(
                &doc,
                &[
                    Edit::InsertElement {
                        parent: doc.root(),
                        position: 0,
                        label: x
                    },
                    Edit::InsertElement {
                        parent: ship_node,
                        position: 0,
                        label: x
                    }
                ]
            )
            .is_none());
    }

    #[test]
    fn empty_script_is_accept_with_no_sites() {
        let mut ab = Alphabet::new();
        let source = po_schema(&mut ab, true);
        let target = po_schema(&mut ab, true);
        let doc = po_doc(&mut ab, true);
        let ctx = CastContext::new(&source, &target, &ab);
        let an = ctx.script_analysis(&doc, &[]).expect("grouped");
        assert_eq!(an.verdict, ScriptVerdict::Accept);
        assert!(an.sites.is_empty());
        assert!(!an.normalized());
    }
}
