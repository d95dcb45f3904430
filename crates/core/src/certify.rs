//! Proof-carrying analysis: emit certificates for every static claim of a
//! [`CastContext`] and validate them with the independent checker.
//!
//! [`certify_context`] walks the computed `R_sub` / `R_dis` / `R_nondis`
//! relations, the product IDAs, the difference witnesses, and the safety
//! matrix, packaging each claim as a certificate the `schemacast-certify`
//! crate (which shares no code with any of the producers) can validate
//! locally:
//!
//! * every `(τ, τ') ∈ R_sub` pair → a [`SubCert`]: coinductive simulation +
//!   per-label child obligations covering exactly the useful symbols;
//! * every `(τ, τ') ∈ R_dis` pair → a [`DisCert`]: a closed product-pair
//!   invariant with per-symbol blocking reasons;
//! * every non-disjoint pair → a [`NondisCert`] in the least fixpoint's
//!   insertion order ([`TypeRelations::nondis_order`]), so each witness
//!   references only strictly earlier pairs;
//! * every reachable/analyzable complex pair → an [`IdaCert`] (exact
//!   safe/dead sets with rank functions tying down the published `IA`/`IR`)
//!   and, where inclusion fails, a [`PathCert`] difference witness;
//! * every safety-matrix row → a [`SafetyCert`] tracing the `static_skips` /
//!   `static_rejects` fast-path verdicts to the above.
//!
//! Failures surface as [`Diagnostic`]s in the `SC04xx` namespace: `SC0401`
//! when a claim could not be packaged (emission failure), `SC0402` when the
//! checker rejects an emitted certificate. Either way
//! [`CertificationRun::all_certified`] is false and `--certify` fails
//! closed.

use crate::cast::CastContext;
use crate::diag::{Diagnostic, Severity};
use crate::relations::TypeRelations;
use crate::script::{RejectReason, SiteDecision};
use crate::stats::ValidationStats;
use schemacast_automata::effect::{EffectOp, NormStep, Provenance};
use schemacast_automata::{
    difference_path_cert, ida_cert, raw_dfa, restricted_pair_invariant, shortest_in_both,
    simulation_relation, BitSet,
};
use schemacast_regex::Sym;
use schemacast_schema::{AbstractSchema, TypeDef, TypeId};
use schemacast_tree::{Doc, Edit};
use std::collections::HashMap;
use std::time::Instant;

pub use schemacast_certify::{
    check_bundle, BlockedSymbol, CertBundle, CertKind, CheckFailure, CheckReport, ChildLink,
    DfaRef, DisBody, DisCert, EarlyClaim, FreshLeaf, IdaCert, NondisBody, NondisCert, NondisChild,
    PathCert, RawDfa, RelabelLink, SafetyCert, ScriptCert, ScriptOp, ScriptProv, ScriptSiteCert,
    ScriptStep, SimulationCert, SiteReason, SubBody, SubCert, SubObligation,
};

/// The outcome of certifying one schema pair: the emitted bundle, the
/// independent checker's report, and any failures as `SC04xx` diagnostics.
#[derive(Debug)]
pub struct CertificationRun {
    /// Everything that was emitted.
    pub bundle: CertBundle,
    /// The independent checker's verdicts over `bundle`.
    pub report: CheckReport,
    /// `SC0401` (emission) and `SC0402` (check) failures, in bundle order.
    pub diagnostics: Vec<Diagnostic>,
    /// Certificates emitted (excludes the raw DFA tables).
    pub certs_emitted: usize,
    /// Objects the checker examined (includes the DFA tables).
    pub certs_checked: usize,
    /// Wall-clock microseconds spent inside the checker.
    pub check_micros: usize,
}

impl CertificationRun {
    /// True iff every static claim was packaged and every certificate
    /// passed the independent checker.
    pub fn all_certified(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The certification counters as a stats fragment, for folding into
    /// `cast --stats` / batch report totals.
    pub fn stats(&self) -> ValidationStats {
        ValidationStats {
            certs_emitted: self.certs_emitted,
            certs_checked: self.certs_checked,
            cert_check_micros: self.check_micros,
            ..Default::default()
        }
    }
}

/// Pair-indexed bookkeeping shared by the emission passes.
struct Emitter<'a> {
    source: &'a AbstractSchema,
    target: &'a AbstractSchema,
    relations: &'a TypeRelations,
    bundle: CertBundle,
    diagnostics: Vec<Diagnostic>,
    /// DFA-pool index of each complex type's content model.
    src_dfa: HashMap<TypeId, DfaRef>,
    tgt_dfa: HashMap<TypeId, DfaRef>,
    /// Certificate index of each pair, per relation (assigned before the
    /// bodies are built — `R_sub`/`R_dis` references may be cyclic).
    sub_idx: HashMap<(TypeId, TypeId), u32>,
    dis_idx: HashMap<(TypeId, TypeId), u32>,
    nondis_idx: HashMap<(TypeId, TypeId), u32>,
    ida_idx: HashMap<(TypeId, TypeId), u32>,
}

impl<'a> Emitter<'a> {
    fn emission_failure(&mut self, s: TypeId, t: TypeId, what: &str, why: &str) {
        self.diagnostics.push(
            Diagnostic::new(
                "SC0401",
                Severity::Error,
                format!(
                    "{what} for pair ({}, {}) could not be certified: {why}",
                    self.source.type_name(s),
                    self.target.type_name(t)
                ),
            )
            .with_type_name(self.source.type_name(s)),
        );
    }

    /// Width of the pair alphabet for a complex × complex pair.
    fn pair_width(&self, s: TypeId, t: TypeId) -> usize {
        let cs = self.source.type_def(s).as_complex().expect("complex");
        let ct = self.target.type_def(t).as_complex().expect("complex");
        cs.dfa.alphabet_len().max(ct.dfa.alphabet_len())
    }
}

/// Emits and checks certificates for every static claim of `ctx`. See the
/// module docs for what is covered; the returned run carries the bundle,
/// the check report, and any `SC04xx` diagnostics.
pub fn certify_context(ctx: &CastContext<'_>) -> CertificationRun {
    certify_context_with_scripts(ctx, &[])
}

/// Like [`certify_context`], additionally certifying the *script-level*
/// static decision of each `(document, edit script)` item: every item the
/// analyzer decides (accept or reject) becomes a [`ScriptCert`] — the
/// per-site normalization trace plus its word-run, child-relation, and
/// IA/IR evidence. Items the analyzer cannot decide (dynamic path) make no
/// static claim and emit nothing.
pub fn certify_context_with_scripts(
    ctx: &CastContext<'_>,
    scripts: &[(&Doc, &[Edit])],
) -> CertificationRun {
    let source = ctx.source();
    let target = ctx.target();
    let mut em = Emitter {
        source,
        target,
        relations: ctx.relations(),
        bundle: CertBundle::default(),
        diagnostics: Vec::new(),
        src_dfa: HashMap::new(),
        tgt_dfa: HashMap::new(),
        sub_idx: HashMap::new(),
        dis_idx: HashMap::new(),
        nondis_idx: HashMap::new(),
        ida_idx: HashMap::new(),
    };

    // ---- DFA pool: one raw table per complex content model. ----
    for t in source.type_ids() {
        if let TypeDef::Complex(c) = source.type_def(t) {
            em.src_dfa.insert(t, em.bundle.dfas.len() as DfaRef);
            em.bundle.dfas.push(raw_dfa(&c.dfa));
        }
    }
    for t in target.type_ids() {
        if let TypeDef::Complex(c) = target.type_def(t) {
            em.tgt_dfa.insert(t, em.bundle.dfas.len() as DfaRef);
            em.bundle.dfas.push(raw_dfa(&c.dfa));
        }
    }

    emit_subs(&mut em);
    emit_diss(&mut em);
    emit_nondis(&mut em);
    emit_idas_and_paths(&mut em, ctx);
    emit_safety(&mut em, ctx);
    emit_scripts(&mut em, ctx, scripts);

    let certs_emitted = em.bundle.object_count() - em.bundle.dfas.len();
    let started = Instant::now();
    let report = check_bundle(&em.bundle);
    let check_micros = started.elapsed().as_micros() as usize;

    let mut diagnostics = em.diagnostics;
    for f in &report.failures {
        let pair = failed_pair(&em.bundle, f);
        let loc = match pair {
            Some((s, t)) => format!(
                " for pair ({}, {})",
                source.type_name(TypeId(s)),
                target.type_name(TypeId(t))
            ),
            None => String::new(),
        };
        let mut d = Diagnostic::new(
            "SC0402",
            Severity::Error,
            format!(
                "{} certificate {}{loc} failed validation: {}",
                f.kind.name(),
                f.index,
                f.reason
            ),
        );
        if let Some((s, _)) = pair {
            d = d.with_type_name(source.type_name(TypeId(s)));
        }
        diagnostics.push(d);
    }

    CertificationRun {
        certs_emitted,
        certs_checked: report.checked,
        check_micros,
        bundle: em.bundle,
        report,
        diagnostics,
    }
}

/// The (source, target) type pair a check failure is about, if its
/// certificate kind carries one.
fn failed_pair(bundle: &CertBundle, f: &CheckFailure) -> Option<(u32, u32)> {
    match f.kind {
        CertKind::Dfa => None,
        CertKind::Sub => bundle
            .subs
            .get(f.index)
            .map(|c| (c.source_type, c.target_type)),
        CertKind::Dis => bundle
            .diss
            .get(f.index)
            .map(|c| (c.source_type, c.target_type)),
        CertKind::Nondis => bundle
            .nondis
            .get(f.index)
            .map(|c| (c.source_type, c.target_type)),
        CertKind::Ida => bundle
            .idas
            .get(f.index)
            .map(|c| (c.source_type, c.target_type)),
        CertKind::Path => bundle
            .paths
            .get(f.index)
            .map(|c| (c.source_type, c.target_type)),
        CertKind::Safety => bundle
            .safety
            .get(f.index)
            .map(|c| (c.source_type, c.target_type)),
        // A script certificate spans sites with different type pairs; its
        // failure reasons name the offending site instead.
        CertKind::Script => None,
        // Composition certificates live in a ChainBundle, not a CertBundle;
        // chain certification reports their pairs itself.
        CertKind::Comp => None,
    }
}

/// All `(s, t)` pairs of the two schemas satisfying `keep`, sorted.
fn pairs_where(
    source: &AbstractSchema,
    target: &AbstractSchema,
    keep: impl Fn(TypeId, TypeId) -> bool,
) -> Vec<(TypeId, TypeId)> {
    let mut out = Vec::new();
    for s in source.type_ids() {
        for t in target.type_ids() {
            if keep(s, t) {
                out.push((s, t));
            }
        }
    }
    out
}

/// `R_sub` certificates: indices first (the greatest fixpoint justifies
/// pairs circularly), then bodies.
fn emit_subs(em: &mut Emitter<'_>) {
    let rel = em.relations;
    let pairs = pairs_where(em.source, em.target, |s, t| rel.subsumed(s, t));
    for (i, &(s, t)) in pairs.iter().enumerate() {
        em.sub_idx.insert((s, t), i as u32);
    }
    for (s, t) in pairs {
        let body = match (em.source.type_def(s), em.target.type_def(t)) {
            (TypeDef::Simple(_), TypeDef::Simple(_)) => Some(SubBody::SimpleAxiom),
            (TypeDef::Complex(cs), TypeDef::Complex(ct)) => {
                match simulation_relation(&cs.dfa, &ct.dfa) {
                    None => {
                        em.emission_failure(s, t, "subsumption", "no simulation relation exists");
                        None
                    }
                    Some(relation) => {
                        let mut obligations = Vec::new();
                        let mut ok = true;
                        for i in cs.dfa.useful_symbols().iter() {
                            let sym = Sym(i as u32);
                            let (Some(a), Some(b)) = (cs.child_type(sym), ct.child_type(sym))
                            else {
                                em.emission_failure(
                                    s,
                                    t,
                                    "subsumption",
                                    "useful label lacks child typing",
                                );
                                ok = false;
                                break;
                            };
                            let Some(&child_ref) = em.sub_idx.get(&(a, b)) else {
                                em.emission_failure(
                                    s,
                                    t,
                                    "subsumption",
                                    "child pair left R_sub but the parent survived",
                                );
                                ok = false;
                                break;
                            };
                            obligations.push(SubObligation {
                                symbol: i as u32,
                                child_source: a.index() as u32,
                                child_target: b.index() as u32,
                                child_ref,
                            });
                        }
                        ok.then_some(SubBody::Complex {
                            simulation: SimulationCert {
                                a: em.src_dfa[&s],
                                b: em.tgt_dfa[&t],
                                relation,
                            },
                            obligations,
                        })
                    }
                }
            }
            // Mixed pairs are never subsumed; certifying one would mean the
            // fixpoint itself is broken.
            _ => {
                em.emission_failure(s, t, "subsumption", "mixed simple/complex pair in R_sub");
                None
            }
        };
        // Keep indices aligned even on failure: a placeholder axiom would
        // be unsound, so emit the failing pair as an (invalid) empty
        // complex body only when we have nothing — instead, re-push a
        // SimpleAxiom ONLY for genuinely simple pairs. For failed pairs we
        // still must occupy the slot; use the body we have or a marker that
        // the checker rejects (empty simulation misses the start pair).
        em.bundle.subs.push(SubCert {
            source_type: s.index() as u32,
            target_type: t.index() as u32,
            body: body.unwrap_or(SubBody::Complex {
                simulation: SimulationCert {
                    a: 0,
                    b: 0,
                    relation: Vec::new(),
                },
                obligations: Vec::new(),
            }),
        });
    }
}

/// `R_dis` certificates: indices first (coinductive), then bodies.
fn emit_diss(em: &mut Emitter<'_>) {
    let rel = em.relations;
    let pairs = pairs_where(em.source, em.target, |s, t| rel.disjoint(s, t));
    for (i, &(s, t)) in pairs.iter().enumerate() {
        em.dis_idx.insert((s, t), i as u32);
    }
    for (s, t) in pairs {
        let body = match (em.source.type_def(s), em.target.type_def(t)) {
            (TypeDef::Complex(cs), TypeDef::Complex(ct)) => {
                let width = em.pair_width(s, t);
                // P = labels typed on both sides with a non-disjoint child
                // pair (the least fixpoint's final permitted set); every
                // other symbol is blocked with its soundness reason.
                let mut permitted = BitSet::new(width);
                let mut blocked = Vec::new();
                for i in 0..width {
                    let sym = Sym(i as u32);
                    match (cs.child_type(sym), ct.child_type(sym)) {
                        (Some(a), Some(b)) => {
                            if em.relations.disjoint(a, b) {
                                blocked.push(BlockedSymbol::DisjointChild {
                                    symbol: i as u32,
                                    child_source: a.index() as u32,
                                    child_target: b.index() as u32,
                                    dis_ref: em.dis_idx[&(a, b)],
                                });
                            } else {
                                permitted.insert(i);
                            }
                        }
                        // Untyped on at least one side: absent from that
                        // side's valid trees (builder invariant).
                        _ => blocked.push(BlockedSymbol::Untyped { symbol: i as u32 }),
                    }
                }
                match restricted_pair_invariant(&cs.dfa, &ct.dfa, &permitted) {
                    Some(invariant) => Some(DisBody::Complex {
                        a: em.src_dfa[&s],
                        b: em.tgt_dfa[&t],
                        invariant,
                        blocked,
                    }),
                    None => {
                        em.emission_failure(
                            s,
                            t,
                            "disjointness",
                            "a common word exists over the permitted labels",
                        );
                        None
                    }
                }
            }
            // At least one simple side: value-space / childless-element
            // reasoning, a trusted axiom leaf.
            _ => Some(DisBody::SimpleAxiom),
        };
        em.bundle.diss.push(DisCert {
            source_type: s.index() as u32,
            target_type: t.index() as u32,
            body: body.unwrap_or(DisBody::Complex {
                a: 0,
                b: 0,
                invariant: Vec::new(),
                blocked: Vec::new(),
            }),
        });
    }
}

/// `R_nondis` certificates, emitted in the least fixpoint's insertion
/// order so every witness references strictly earlier pairs.
fn emit_nondis(em: &mut Emitter<'_>) {
    let rel = em.relations;
    let mut pairs: Vec<(u32, TypeId, TypeId)> = Vec::new();
    for s in em.source.type_ids() {
        for t in em.target.type_ids() {
            if let Some(order) = rel.nondis_order(s, t) {
                pairs.push((order, s, t));
            }
        }
    }
    pairs.sort_unstable();
    for (i, &(_, s, t)) in pairs.iter().enumerate() {
        em.nondis_idx.insert((s, t), i as u32);
    }
    for &(order, s, t) in &pairs {
        let body = match (em.source.type_def(s), em.target.type_def(t)) {
            (TypeDef::Complex(cs), TypeDef::Complex(ct)) => {
                let width = em.pair_width(s, t);
                // Only labels whose child pair entered the fixpoint
                // *earlier* may appear in the witness — exactly the set P
                // at this pair's insertion moment, so a witness exists.
                let mut allowed = BitSet::new(width);
                for i in 0..width {
                    let sym = Sym(i as u32);
                    if let (Some(a), Some(b)) = (cs.child_type(sym), ct.child_type(sym)) {
                        if rel.nondis_order(a, b).is_some_and(|o| o < order) {
                            allowed.insert(i);
                        }
                    }
                }
                match shortest_in_both(&cs.dfa, &ct.dfa, Some(&allowed)) {
                    Some(word) => {
                        let mut children = Vec::with_capacity(word.len());
                        for &sym in &word {
                            let (a, b) = (
                                cs.child_type(sym).expect("allowed implies typed"),
                                ct.child_type(sym).expect("allowed implies typed"),
                            );
                            children.push(NondisChild {
                                child_source: a.index() as u32,
                                child_target: b.index() as u32,
                                nondis_ref: em.nondis_idx[&(a, b)],
                            });
                        }
                        Some(NondisBody::Complex {
                            a: em.src_dfa[&s],
                            b: em.tgt_dfa[&t],
                            word: word.iter().map(|s| s.0).collect(),
                            children,
                        })
                    }
                    None => {
                        em.emission_failure(
                            s,
                            t,
                            "non-disjointness",
                            "no witness word exists over earlier labels",
                        );
                        None
                    }
                }
            }
            // A simple side: shared value or shared childless element.
            _ => Some(NondisBody::SimpleAxiom),
        };
        em.bundle.nondis.push(NondisCert {
            source_type: s.index() as u32,
            target_type: t.index() as u32,
            body: body.unwrap_or(NondisBody::Complex {
                a: 0,
                b: 0,
                word: Vec::new(),
                children: vec![NondisChild {
                    child_source: 0,
                    child_target: 0,
                    nondis_ref: u32::MAX,
                }],
            }),
        });
    }
}

/// IDA exactness certificates for every reachable or analyzable complex
/// pair, plus difference paths where inclusion fails.
fn emit_idas_and_paths(em: &mut Emitter<'_>, ctx: &CastContext<'_>) {
    let mut pairs = ctx.reachable_pairs();
    pairs.extend(ctx.analyzable_pairs());
    pairs.sort_unstable_by_key(|&(s, t)| (s.index(), t.index()));
    pairs.dedup();
    for (s, t) in pairs {
        let (Some(cs), Some(ct)) = (
            em.source.type_def(s).as_complex(),
            em.target.type_def(t).as_complex(),
        ) else {
            continue;
        };
        let (a_ref, b_ref) = (em.src_dfa[&s], em.tgt_dfa[&t]);
        match ida_cert(
            &cs.dfa,
            &ct.dfa,
            ctx.product_ida(s, t),
            s.index() as u32,
            t.index() as u32,
            a_ref,
            b_ref,
        ) {
            Some(cert) => {
                em.ida_idx.insert((s, t), em.bundle.idas.len() as u32);
                em.bundle.idas.push(cert);
            }
            None => em.emission_failure(
                s,
                t,
                "immediate-decision sets",
                "product state space is not the pair grid",
            ),
        }
        if let Some(path) = difference_path_cert(
            &cs.dfa,
            &ct.dfa,
            s.index() as u32,
            t.index() as u32,
            a_ref,
            b_ref,
        ) {
            em.bundle.paths.push(path);
        }
    }
}

/// Safety-matrix trace certificates: one per analyzable row.
fn emit_safety(em: &mut Emitter<'_>, ctx: &CastContext<'_>) {
    for entry in ctx.safety_matrix().entries() {
        let (s, t) = (entry.source, entry.target);
        let Some(&ida_ref) = em.ida_idx.get(&(s, t)) else {
            em.emission_failure(s, t, "safety verdicts", "pair has no IDA certificate");
            continue;
        };
        match ctx.safety_certificate(entry, ida_ref, &em.sub_idx, &em.dis_idx) {
            Ok(cert) => em.bundle.safety.push(cert),
            Err(why) => em.emission_failure(s, t, "safety verdicts", &why),
        }
    }
}

/// Whole-script decision certificates: one per statically decided item.
///
/// Accepted scripts emit every non-identity site with full child evidence
/// (`R_sub` links + fresh-leaf axioms); rejected scripts emit only the
/// rejecting sites (one suffices for the verdict, and undecided sites make
/// no checkable claim). Missing relation certificates for a consumed fact
/// are emission failures — the claim exists but cannot be packaged, so
/// `--certify` fails closed.
fn emit_scripts(em: &mut Emitter<'_>, ctx: &CastContext<'_>, scripts: &[(&Doc, &[Edit])]) {
    use crate::script::ScriptVerdict;
    for &(doc, edits) in scripts {
        let Some(analysis) = ctx.script_analysis(doc, edits) else {
            continue; // dynamic path: no static claim
        };
        let accepted = match analysis.verdict {
            ScriptVerdict::Accept => true,
            ScriptVerdict::Reject => false,
            ScriptVerdict::Undecided => continue,
        };
        let mut sites = Vec::new();
        let mut ok = true;
        for site in &analysis.sites {
            let verdict = match site.decision {
                SiteDecision::Identity => continue,
                SiteDecision::Accept => {
                    if !accepted {
                        continue; // rejecting scripts claim only the rejects
                    }
                    true
                }
                SiteDecision::Reject(_) => false,
                SiteDecision::Undecided => continue,
            };
            let (s, t) = (site.source_type, site.target_type);
            let (Some(&a_ref), Some(&b_ref)) = (em.src_dfa.get(&s), em.tgt_dfa.get(&t)) else {
                em.emission_failure(s, t, "script verdict", "site type pair has no content DFA");
                ok = false;
                break;
            };
            let mut kept_links = Vec::new();
            let mut fresh_leaves = Vec::new();
            let mut reject = None;
            if verdict {
                for c in &site.kept {
                    let Some(&sub_ref) = em.sub_idx.get(&(c.source, c.target)) else {
                        em.emission_failure(
                            c.source,
                            c.target,
                            "script verdict",
                            "consumed R_sub fact has no certificate",
                        );
                        ok = false;
                        break;
                    };
                    kept_links.push(ChildLink {
                        pos: c.pos as u32,
                        child_source: c.source.index() as u32,
                        child_target: c.target.index() as u32,
                        sub_ref,
                    });
                }
                if !ok {
                    break;
                }
                for f in &site.fresh {
                    let Some(target) = f.target else {
                        em.emission_failure(
                            s,
                            t,
                            "script verdict",
                            "accepted fresh child lacks target typing",
                        );
                        ok = false;
                        break;
                    };
                    fresh_leaves.push(FreshLeaf {
                        pos: f.pos as u32,
                        child_target: target.index() as u32,
                    });
                }
                if !ok {
                    break;
                }
            } else {
                reject = match site.decision {
                    SiteDecision::Reject(RejectReason::Membership) => Some(SiteReason::Membership),
                    SiteDecision::Reject(RejectReason::FreshInvalid { pos }) => {
                        let Some(f) = site.fresh.iter().find(|f| f.pos == pos) else {
                            em.emission_failure(
                                s,
                                t,
                                "script verdict",
                                "fresh reject lost its fact",
                            );
                            ok = false;
                            break;
                        };
                        let Some(target) = f.target else {
                            em.emission_failure(
                                s,
                                t,
                                "script verdict",
                                "fresh reject lacks typing",
                            );
                            ok = false;
                            break;
                        };
                        Some(SiteReason::FreshInvalid {
                            pos: pos as u32,
                            child_target: target.index() as u32,
                        })
                    }
                    SiteDecision::Reject(RejectReason::DisjointChild { pos }) => {
                        let Some(c) = site.kept.iter().find(|c| c.pos == pos) else {
                            em.emission_failure(
                                s,
                                t,
                                "script verdict",
                                "disjoint reject lost its fact",
                            );
                            ok = false;
                            break;
                        };
                        let Some(&dis_ref) = em.dis_idx.get(&(c.source, c.target)) else {
                            em.emission_failure(
                                c.source,
                                c.target,
                                "script verdict",
                                "consumed R_dis fact has no certificate",
                            );
                            ok = false;
                            break;
                        };
                        Some(SiteReason::DisjointChild {
                            pos: pos as u32,
                            child_source: c.source.index() as u32,
                            child_target: c.target.index() as u32,
                            dis_ref,
                        })
                    }
                    _ => unreachable!("verdict false only on Reject"),
                };
            }
            // An early-settle claim is only attachable when its decision
            // agrees with the site verdict (a rejected-by-child-fact site
            // may still have word-accepted early) and this pair's IDA was
            // certified. It is optional evidence either way.
            let early = site.early.as_ref().and_then(|e| {
                if e.ia != verdict {
                    return None;
                }
                em.ida_idx.get(&(s, t)).map(|&ida_ref| EarlyClaim {
                    ida_ref,
                    pair_a: e.qa,
                    pair_b: e.qb,
                    net_consumed: e.net_consumed as u32,
                    orig_consumed: e.orig_consumed as u32,
                    ia: e.ia,
                })
            });
            sites.push(ScriptSiteCert {
                source_type: s.index() as u32,
                target_type: t.index() as u32,
                a: a_ref,
                b: b_ref,
                word: site.net.orig().iter().map(|s| s.0).collect(),
                ops: site.net.ops().iter().map(script_op).collect(),
                trace: site.net.trace().iter().map(script_step).collect(),
                net: site.net.word().iter().map(|s| s.0).collect(),
                prov: site.net.provenance().iter().map(script_prov).collect(),
                verdict,
                kept_links,
                fresh_leaves,
                reject,
                early,
            });
        }
        if ok {
            em.bundle.scripts.push(ScriptCert { accepted, sites });
        }
    }
}

fn script_op(op: &EffectOp) -> ScriptOp {
    match *op {
        EffectOp::Insert { pos, sym } => ScriptOp::Insert {
            pos: pos as u32,
            sym: sym.0,
        },
        EffectOp::Delete { pos } => ScriptOp::Delete { pos: pos as u32 },
        EffectOp::Relabel { pos, sym } => ScriptOp::Relabel {
            pos: pos as u32,
            sym: sym.0,
        },
    }
}

fn script_step(step: &NormStep) -> ScriptStep {
    match *step {
        NormStep::InsertFresh { pos, sym } => ScriptStep::InsertFresh {
            pos: pos as u32,
            sym: sym.0,
        },
        NormStep::CancelInserted { pos, sym } => ScriptStep::CancelInserted {
            pos: pos as u32,
            sym: sym.0,
        },
        NormStep::DeleteOriginal { pos, origin } => ScriptStep::DeleteOriginal {
            pos: pos as u32,
            origin: origin as u32,
        },
        NormStep::OverwriteInserted { pos, from, to } => ScriptStep::OverwriteInserted {
            pos: pos as u32,
            from: from.0,
            to: to.0,
        },
        NormStep::RenameBack { pos, origin, sym } => ScriptStep::RenameBack {
            pos: pos as u32,
            origin: origin as u32,
            sym: sym.0,
        },
        NormStep::RenameOriginal {
            pos,
            origin,
            from,
            to,
        } => ScriptStep::RenameOriginal {
            pos: pos as u32,
            origin: origin as u32,
            from: from.0,
            to: to.0,
        },
    }
}

fn script_prov(p: &Provenance) -> ScriptProv {
    match *p {
        Provenance::Kept(o) => ScriptProv::Kept { origin: o as u32 },
        Provenance::Renamed(o) => ScriptProv::Renamed { origin: o as u32 },
        Provenance::Fresh => ScriptProv::Fresh,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_regex::Alphabet;
    use schemacast_schema::{SchemaBuilder, SimpleType};

    fn po_schema(ab: &mut Alphabet, optional_bill: bool) -> AbstractSchema {
        let mut b = SchemaBuilder::new(ab);
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
        let po = b.declare("PO").unwrap();
        let model = if optional_bill {
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

    #[test]
    fn figure1_pair_certifies_end_to_end() {
        let mut ab = Alphabet::new();
        let source = po_schema(&mut ab, true);
        let target = po_schema(&mut ab, false);
        let ctx = CastContext::new(&source, &target, &ab);
        let run = certify_context(&ctx);
        assert!(run.all_certified(), "diagnostics: {:#?}", run.diagnostics);
        assert!(run.report.all_valid());
        assert!(run.certs_emitted > 0);
        assert_eq!(run.certs_checked, run.bundle.object_count());
        // The run covers all three relations plus IDAs, paths, and safety.
        assert!(!run.bundle.subs.is_empty(), "USAddress/Items subsumed");
        assert!(!run.bundle.nondis.is_empty());
        assert!(!run.bundle.idas.is_empty());
        assert!(!run.bundle.paths.is_empty(), "PO pair not included");
        assert!(!run.bundle.safety.is_empty());
        // Stats fragment carries the counters.
        let stats = run.stats();
        assert_eq!(stats.certs_emitted, run.certs_emitted);
        assert_eq!(stats.certs_checked, run.certs_checked);
    }

    #[test]
    fn disjoint_pair_emits_checked_dis_certificates() {
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
        let ctx = CastContext::new(&source, &target, &ab);
        let run = certify_context(&ctx);
        assert!(run.all_certified(), "{:#?}", run.diagnostics);
        // The complex Root/Root pair is disjoint and must carry a real
        // invariant certificate (not an axiom).
        let root_s = source.type_by_name("Root").unwrap();
        let root_t = target.type_by_name("Root").unwrap();
        assert!(ctx.relations().disjoint(root_s, root_t));
        let has_complex_dis = run.bundle.diss.iter().any(|c| {
            c.source_type == root_s.index() as u32
                && c.target_type == root_t.index() as u32
                && matches!(c.body, DisBody::Complex { .. })
        });
        assert!(has_complex_dis);
    }

    #[test]
    fn script_decisions_certify_end_to_end() {
        use schemacast_tree::{Doc, Edit};
        let mut ab = Alphabet::new();
        let source = po_schema(&mut ab, true);
        let target = po_schema(&mut ab, false);
        let po = ab.lookup("purchaseOrder").unwrap();
        let ship = ab.lookup("shipTo").unwrap();
        let items = ab.lookup("items").unwrap();
        let item = ab.lookup("item").unwrap();
        let name = ab.lookup("name").unwrap();
        let mut doc = Doc::new(po);
        let ship_el = doc.add_element(doc.root(), ship);
        for part in ["name", "street", "city"] {
            let l = ab.lookup(part).unwrap();
            doc.add_element(ship_el, l);
        }
        let items_el = doc.add_element(doc.root(), items);
        doc.add_element(items_el, item);
        doc.add_element(items_el, item);
        assert!(source.accepts_document(&doc));
        let ctx = CastContext::new(&source, &target, &ab);

        // A third item keeps `item*` happy; a `name` in the item list can
        // never be valid there.
        let good: Vec<Edit> = vec![Edit::InsertElement {
            parent: items_el,
            position: 1,
            label: item,
        }];
        let bad: Vec<Edit> = vec![Edit::InsertElement {
            parent: items_el,
            position: 0,
            label: name,
        }];
        let items_vec: Vec<(&Doc, &[Edit])> = vec![(&doc, &good), (&doc, &bad)];
        let run = certify_context_with_scripts(&ctx, &items_vec);
        assert!(run.all_certified(), "diagnostics: {:#?}", run.diagnostics);
        assert_eq!(run.bundle.scripts.len(), 2);
        assert!(run.bundle.scripts[0].accepted);
        assert!(!run.bundle.scripts[1].accepted);
        // The accepted script's site carries full child evidence.
        let site = &run.bundle.scripts[0].sites[0];
        assert!(site.verdict);
        assert_eq!(site.fresh_leaves.len(), 1);
        assert_eq!(site.kept_links.len(), 2);
    }

    #[test]
    fn corrupting_the_bundle_is_caught_and_reported() {
        let mut ab = Alphabet::new();
        let source = po_schema(&mut ab, true);
        let target = po_schema(&mut ab, false);
        let ctx = CastContext::new(&source, &target, &ab);
        let run = certify_context(&ctx);
        // Flip one IA bit: the pointwise equation against the certified
        // exact sets must catch it, and the diagnostic must carry SC0402.
        let mut bundle = run.bundle.clone();
        let cert = &mut bundle.idas[0];
        cert.ia[0] = !cert.ia[0];
        let report = check_bundle(&bundle);
        assert!(!report.all_valid());
        assert_eq!(report.failures[0].kind, CertKind::Ida);
    }
}
