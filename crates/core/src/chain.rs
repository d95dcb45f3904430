//! Schema-evolution chains: the version-graph registry, composed
//! end-to-end cast relations, one-pass chain validation, and statically
//! verified multi-hop migration scripts.
//!
//! A [`SchemaChain`] holds an ordered chain `v_1 → v_2 → … → v_N` with one
//! [`CastContext`] per hop plus one *endpoint* context over the composed
//! `(v_1, v_N)` pair. Two static layers answer chain questions:
//!
//! * **Composition** ([`schemacast_automata::compose_chain`]): per-hop
//!   `R_sub`/`R_dis` tables joined end to end where the joins are sound —
//!   subsumption composes transitively, disjointness only transports
//!   through a subsumption prefix (`sub* · dis`). A pair decided here comes
//!   with the full middle-type tuple `(τ_1, …, τ_N)`, which is exactly what
//!   a composition certificate ([`certify_chain`]) records.
//! * **Endpoint fallback**: pairs the composition cannot decide fall back
//!   to the exact fixpoints (and, at validation time, the product IDA)
//!   computed directly over the `(v_1, v_N)` pair.
//!
//! One-pass validation of a document against the whole chain is the
//! endpoint context's validation — no per-hop revalidation — and the
//! chain-level [`SafetyMatrix`] is the endpoint's, built in its pair
//! table.
//!
//! [`SchemaChain::verify_script`] checks a whole migration script (one edit
//! batch per hop) against the chain: each hop takes the static fast path
//! where the PR 2 safety analysis decides it (an `Unsafe` edit rejects with
//! no revalidation; all-`Safe` edits get the exemption walk) and falls back
//! to incremental revalidation otherwise, folding per-hop verdicts into a
//! chain verdict that names the first hop that breaks.

use crate::cast::CastContext;
use crate::certify::certify_context;
use crate::diag::{Diagnostic, Severity};
use crate::mods::ModsValidator;
use crate::safety::SafetyMatrix;
use crate::stats::{CastOutcome, ValidationStats};
use schemacast_automata::{compose_chain, BitSet, ComposedLevel, HopRelations, NO_MID};
use schemacast_certify::{
    check_chain_bundle, ChainBundle, ChainCheckReport, CompCert, CompClaim, CompStep,
};
use schemacast_regex::Alphabet;
use schemacast_schema::{AbstractSchema, TypeId};
use schemacast_tree::{DeltaDoc, Doc, Edit};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// Why a chain could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// A chain needs at least two schema versions; this many were given.
    TooShort(usize),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::TooShort(n) => {
                write!(f, "a schema chain needs at least 2 versions, got {n}")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// How a composed end-to-end fact was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComposedVia {
    /// Sound hop-by-hop composition (`sub·sub` / `sub·dis`), with a
    /// middle-type tuple recoverable via [`SchemaChain::sub_tuple`] /
    /// [`SchemaChain::dis_tuple`].
    Composition,
    /// The fallback: the relation computed directly over the composed
    /// `(v_1, v_N)` pair.
    EndpointPair,
}

/// The end-to-end relation of one `(v_1, v_N)` type pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainRelation {
    /// `L(τ_1) ⊆ L(τ_N)`.
    Subsumed(ComposedVia),
    /// `L(τ_1) ∩ L(τ_N) = ∅`.
    Disjoint(ComposedVia),
    /// Neither relation holds.
    Neither,
}

/// How many endpoint-relation pairs the hop-by-hop composition decided
/// versus how many needed the composed-pair fallback.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompositionStats {
    /// Endpoint-subsumed pairs the composition also derives.
    pub composed_sub: usize,
    /// Endpoint-subsumed pairs only the endpoint fixpoint sees.
    pub fallback_sub: usize,
    /// Endpoint-disjoint pairs the composition also derives.
    pub composed_dis: usize,
    /// Endpoint-disjoint pairs only the endpoint fixpoint sees.
    pub fallback_dis: usize,
}

/// An ordered schema-evolution chain with per-hop and endpoint contexts.
///
/// Construction preprocesses every hop pair *and* the `(v_1, v_N)`
/// endpoint pair, then composes the hop relations (see the module docs).
pub struct SchemaChain<'a> {
    schemas: &'a [AbstractSchema],
    hops: Vec<CastContext<'a>>,
    endpoint: CastContext<'a>,
    levels: Vec<ComposedLevel>,
}

impl<'a> SchemaChain<'a> {
    /// Builds the chain over `schemas` in evolution order (`v_1` first).
    pub fn new(
        schemas: &'a [AbstractSchema],
        alphabet: &Alphabet,
    ) -> Result<SchemaChain<'a>, ChainError> {
        if schemas.len() < 2 {
            return Err(ChainError::TooShort(schemas.len()));
        }
        let hops: Vec<CastContext<'a>> = schemas
            .windows(2)
            .map(|w| CastContext::new(&w[0], &w[1], alphabet))
            .collect();
        let endpoint = CastContext::new(
            schemas.first().expect("len >= 2"),
            schemas.last().expect("len >= 2"),
            alphabet,
        );
        let tables: Vec<HopRelations> = hops.iter().map(hop_tables).collect();
        let levels = compose_chain(&tables);
        Ok(SchemaChain {
            schemas,
            hops,
            endpoint,
            levels,
        })
    }

    /// The schema versions, in evolution order.
    pub fn schemas(&self) -> &[AbstractSchema] {
        self.schemas
    }

    /// Number of hops (`versions - 1`).
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// The per-hop contexts, in evolution order.
    pub fn hops(&self) -> &[CastContext<'a>] {
        &self.hops
    }

    /// The composed `(v_1, v_N)` endpoint context — the authority for
    /// one-pass chain validation and the chain-level safety matrix.
    pub fn endpoint(&self) -> &CastContext<'a> {
        &self.endpoint
    }

    /// The end-to-end relation of a `(v_1, v_N)` type pair, preferring the
    /// composed derivation (which carries a certificate-ready tuple) over
    /// the endpoint fallback.
    pub fn composed_relation(&self, s: TypeId, t: TypeId) -> ChainRelation {
        let level = &self.levels[0];
        if level.subsumed(s.0 as usize, t.0 as usize) {
            return ChainRelation::Subsumed(ComposedVia::Composition);
        }
        if level.disjoint(s.0 as usize, t.0 as usize) {
            return ChainRelation::Disjoint(ComposedVia::Composition);
        }
        let rel = self.endpoint.relations();
        if rel.subsumed(s, t) {
            ChainRelation::Subsumed(ComposedVia::EndpointPair)
        } else if rel.disjoint(s, t) {
            ChainRelation::Disjoint(ComposedVia::EndpointPair)
        } else {
            ChainRelation::Neither
        }
    }

    /// The middle-type tuple `(τ_1, τ_2, …, τ_N)` witnessing a composed
    /// subsumption, if the composition derives it.
    pub fn sub_tuple(&self, s: TypeId, t: TypeId) -> Option<Vec<TypeId>> {
        self.tuple(s, t, false)
    }

    /// The tuple witnessing a composed disjointness (`sub* · dis` — the
    /// disjoint step is the final hop), if the composition derives it.
    pub fn dis_tuple(&self, s: TypeId, t: TypeId) -> Option<Vec<TypeId>> {
        self.tuple(s, t, true)
    }

    fn tuple(&self, s: TypeId, t: TypeId, dis: bool) -> Option<Vec<TypeId>> {
        let mut cur = s.0 as usize;
        let col = t.0 as usize;
        let mut out = vec![s];
        for level in &self.levels {
            let q = cur * level.cols + col;
            let (present, mid) = if dis {
                (level.dis[q], level.dis_mid[q])
            } else {
                (level.sub[q], level.sub_mid[q])
            };
            if !present {
                return None;
            }
            if mid == NO_MID {
                out.push(t);
                return Some(out);
            }
            out.push(TypeId(mid));
            cur = mid as usize;
        }
        unreachable!("the last composed level always has NO_MID middles")
    }

    /// One-pass validation of a `v_1`-document against `v_N` — the
    /// endpoint cast, no per-hop revalidation.
    pub fn validate(&self, doc: &Doc) -> CastOutcome {
        self.endpoint.validate(doc)
    }

    /// As [`SchemaChain::validate`], with instrumentation.
    pub fn validate_with_stats(&self, doc: &Doc) -> (CastOutcome, ValidationStats) {
        self.endpoint.validate_with_stats(doc)
    }

    /// The chain-level safety matrix: edit-kind verdicts for every
    /// analyzable `(v_1, v_N)` pair, interned through the endpoint
    /// context's caches.
    pub fn safety_matrix(&self) -> SafetyMatrix {
        self.endpoint.safety_matrix()
    }

    /// Splits the endpoint relations into composition-decided and
    /// fallback-only pairs.
    pub fn composition_stats(&self) -> CompositionStats {
        let rel = self.endpoint.relations();
        let level = &self.levels[0];
        let mut stats = CompositionStats::default();
        for s in self.schemas[0].type_ids() {
            for t in self.schemas[self.schemas.len() - 1].type_ids() {
                let (si, ti) = (s.0 as usize, t.0 as usize);
                if rel.subsumed(s, t) {
                    if level.subsumed(si, ti) {
                        stats.composed_sub += 1;
                    } else {
                        stats.fallback_sub += 1;
                    }
                }
                if rel.disjoint(s, t) {
                    if level.disjoint(si, ti) {
                        stats.composed_dis += 1;
                    } else {
                        stats.fallback_dis += 1;
                    }
                }
            }
        }
        stats
    }

    /// Verifies a whole migration script against the chain: `scripts[i]`
    /// is the edit batch taking a `v_{i+1}`-valid document to `v_{i+2}`.
    ///
    /// Each hop prefers the static path — an `Unsafe` edit shape rejects
    /// with no revalidation ([`HopVerdict::StaticReject`]), all-`Safe`
    /// shapes get the exemption walk — and falls back to incremental
    /// revalidation of the delta document otherwise. The first failing hop
    /// stops the walk and becomes
    /// [`ChainScriptReport::breaking_hop`].
    ///
    /// # Panics
    ///
    /// Panics if `scripts.len() != self.hop_count()`.
    pub fn verify_script(&self, doc: &Doc, scripts: &[Vec<Edit>]) -> ChainScriptReport {
        assert_eq!(
            scripts.len(),
            self.hop_count(),
            "one edit batch per hop required"
        );
        // Each hop's overlay borrows the document the previous hop
        // committed; the first borrows `doc`.
        let mut current = Cow::Borrowed(doc);
        let mut hops = Vec::with_capacity(self.hops.len());
        let mut breaking_hop = None;
        for (i, (ctx, edits)) in self.hops.iter().zip(scripts).enumerate() {
            let mut dd = DeltaDoc::new(&*current);
            if let Err(e) = dd.apply_all(edits) {
                hops.push(HopReport {
                    hop: i,
                    verdict: HopVerdict::EditFailed(e.to_string()),
                    stats: ValidationStats::default(),
                });
                breaking_hop = Some(i);
                break;
            }
            let (outcome, stats) = match ctx.validate_edited_static(&current, edits) {
                Some(static_result) => static_result,
                None => ModsValidator::new(ctx).validate_with_stats(&dd),
            };
            let verdict = if outcome.is_valid() {
                HopVerdict::Valid
            } else if stats.static_rejects > 0 {
                HopVerdict::StaticReject
            } else {
                HopVerdict::Invalid
            };
            let ok = outcome.is_valid();
            hops.push(HopReport {
                hop: i,
                verdict,
                stats,
            });
            if !ok {
                breaking_hop = Some(i);
                break;
            }
            current = Cow::Owned(dd.committed());
        }
        ChainScriptReport { hops, breaking_hop }
    }
}

/// Extracts one hop's `R_sub`/`R_dis` membership into the dense tables the
/// composition pass consumes.
fn hop_tables(ctx: &CastContext<'_>) -> HopRelations {
    let rows = ctx.source().type_count();
    let cols = ctx.target().type_count();
    let rel = ctx.relations();
    let mut sub = vec![BitSet::new(cols); rows];
    let mut dis = vec![BitSet::new(cols); rows];
    for s in ctx.source().type_ids() {
        for t in ctx.target().type_ids() {
            if rel.subsumed(s, t) {
                sub[s.0 as usize].insert(t.0 as usize);
            }
            if rel.disjoint(s, t) {
                dis[s.0 as usize].insert(t.0 as usize);
            }
        }
    }
    HopRelations {
        rows,
        cols,
        sub,
        dis,
    }
}

/// One hop's outcome inside [`ChainScriptReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HopVerdict {
    /// An `Unsafe` edit shape: the edited document is statically known
    /// invalid under the hop target, no revalidation ran.
    StaticReject,
    /// Valid under the hop target (via the exemption walk when every edit
    /// shape was `Safe`, incremental revalidation otherwise).
    Valid,
    /// Invalid under the hop target.
    Invalid,
    /// The edit batch did not apply to the document.
    EditFailed(String),
}

impl HopVerdict {
    /// Stable lowercase name, used in reports and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            HopVerdict::StaticReject => "static-reject",
            HopVerdict::Valid => "valid",
            HopVerdict::Invalid => "invalid",
            HopVerdict::EditFailed(_) => "edit-failed",
        }
    }

    /// Whether this hop kept the migration on the valid path.
    pub fn is_ok(&self) -> bool {
        matches!(self, HopVerdict::Valid)
    }
}

/// One hop's row in a migration-script verification.
#[derive(Debug, Clone)]
pub struct HopReport {
    /// Hop index (0-based: hop `i` casts `v_{i+1}` to `v_{i+2}`).
    pub hop: usize,
    /// The hop verdict.
    pub verdict: HopVerdict,
    /// Instrumentation — `static_rejects`/`static_skips` show whether the
    /// static path fired.
    pub stats: ValidationStats,
}

/// The chain verdict for one migration script: per-hop rows up to and
/// including the first failure.
#[derive(Debug, Clone, Default)]
pub struct ChainScriptReport {
    /// Hop rows, in chain order; stops at the breaking hop.
    pub hops: Vec<HopReport>,
    /// The first hop whose verdict broke the migration, if any.
    pub breaking_hop: Option<usize>,
}

impl ChainScriptReport {
    /// True iff every hop verdict is [`HopVerdict::Valid`].
    pub fn ok(&self) -> bool {
        self.breaking_hop.is_none()
    }

    /// How many hops took a static path (skip or reject).
    pub fn static_hops(&self) -> usize {
        self.hops
            .iter()
            .filter(|h| h.stats.static_skips > 0 || h.stats.static_rejects > 0)
            .count()
    }
}

/// The outcome of [`certify_chain`]: the chain bundle, the independent
/// checker's report, and `SC04xx` diagnostics for anything that failed.
#[derive(Debug)]
pub struct ChainCertificationRun {
    /// Per-hop bundles, the endpoint bundle, and the composition claims.
    pub bundle: ChainBundle,
    /// The independent checker's verdicts.
    pub report: ChainCheckReport,
    /// `SC0401` (emission failure), `SC0402` (per-hop/endpoint certificate
    /// rejected), `SC0403` (composition certificate rejected).
    pub diagnostics: Vec<Diagnostic>,
    /// Certificates emitted across all parts (DFA pool excluded).
    pub certs_emitted: usize,
    /// Objects the checker examined.
    pub certs_checked: usize,
    /// Wall-clock microseconds spent in the chain checker.
    pub check_micros: usize,
}

impl ChainCertificationRun {
    /// True iff every claim of every part was certified and checked.
    pub fn all_certified(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// One-line summary fragment for `--stats` style output.
    pub fn stats(&self) -> String {
        format!(
            "chain certificates: {} emitted, {} checked, {} rejected, {}µs",
            self.certs_emitted,
            self.certs_checked,
            self.diagnostics.len(),
            self.check_micros
        )
    }
}

/// Certifies a whole chain: per-hop bundles and the endpoint bundle via
/// [`certify_context`], plus one composition certificate per
/// composition-decided `(v_1, v_N)` pair, all validated by the independent
/// [`check_chain_bundle`].
pub fn certify_chain(chain: &SchemaChain<'_>) -> ChainCertificationRun {
    let mut bundle = ChainBundle::default();
    let mut diagnostics = Vec::new();
    let mut certs_emitted = 0;

    // Per-hop and endpoint bundles. Keep only emission failures (SC0401)
    // from the per-part runs — check failures are re-derived (with chain
    // context) by check_chain_bundle below.
    for (i, hop) in chain.hops().iter().enumerate() {
        let run = certify_context(hop);
        certs_emitted += run.certs_emitted;
        for d in run.diagnostics {
            if d.rule_id == "SC0401" {
                diagnostics.push(Diagnostic::new(
                    "SC0401",
                    Severity::Error,
                    format!("hop {i}: {}", d.message),
                ));
            }
        }
        bundle.hops.push(run.bundle);
    }
    let endpoint_run = certify_context(chain.endpoint());
    certs_emitted += endpoint_run.certs_emitted;
    for d in endpoint_run.diagnostics {
        if d.rule_id == "SC0401" {
            diagnostics.push(Diagnostic::new(
                "SC0401",
                Severity::Error,
                format!("endpoint pair: {}", d.message),
            ));
        }
    }
    bundle.endpoint = endpoint_run.bundle;

    // Composition certificates: one per composition-decided pair, steps
    // resolved against the hop bundles just emitted.
    let sub_maps: Vec<HashMap<(u32, u32), u32>> = bundle
        .hops
        .iter()
        .map(|b| {
            b.subs
                .iter()
                .enumerate()
                .map(|(i, c)| ((c.source_type, c.target_type), i as u32))
                .collect()
        })
        .collect();
    let dis_maps: Vec<HashMap<(u32, u32), u32>> = bundle
        .hops
        .iter()
        .map(|b| {
            b.diss
                .iter()
                .enumerate()
                .map(|(i, c)| ((c.source_type, c.target_type), i as u32))
                .collect()
        })
        .collect();
    let first = &chain.schemas()[0];
    let last = &chain.schemas()[chain.schemas().len() - 1];
    for s in first.type_ids() {
        for t in last.type_ids() {
            for (claim, tuple) in [
                (CompClaim::Subsumed, chain.sub_tuple(s, t)),
                (CompClaim::Disjoint, chain.dis_tuple(s, t)),
            ] {
                let Some(tuple) = tuple else { continue };
                match comp_steps(claim, &tuple, &sub_maps, &dis_maps) {
                    Some(steps) => bundle.compositions.push(CompCert {
                        source_type: s.0,
                        target_type: t.0,
                        claim,
                        steps,
                    }),
                    None => diagnostics.push(
                        Diagnostic::new(
                            "SC0403",
                            Severity::Error,
                            format!(
                                "composed {} claim for pair ({}, {}) has an uncertified hop step",
                                claim.name(),
                                first.type_name(s),
                                last.type_name(t)
                            ),
                        )
                        .with_type_name(first.type_name(s)),
                    ),
                }
            }
        }
    }
    certs_emitted += bundle.compositions.len();

    let started = Instant::now();
    let report = check_chain_bundle(&bundle);
    let check_micros = started.elapsed().as_micros() as usize;

    for (i, hop_report) in report.hops.iter().enumerate() {
        for f in &hop_report.failures {
            diagnostics.push(Diagnostic::new(
                "SC0402",
                Severity::Error,
                format!(
                    "hop {i}: {} certificate {} failed validation: {}",
                    f.kind.name(),
                    f.index,
                    f.reason
                ),
            ));
        }
    }
    for f in &report.endpoint.failures {
        diagnostics.push(Diagnostic::new(
            "SC0402",
            Severity::Error,
            format!(
                "endpoint pair: {} certificate {} failed validation: {}",
                f.kind.name(),
                f.index,
                f.reason
            ),
        ));
    }
    for f in &report.failures {
        let loc = bundle
            .compositions
            .get(f.index)
            .map(|c| {
                format!(
                    " for pair ({}, {})",
                    first.type_name(TypeId(c.source_type)),
                    last.type_name(TypeId(c.target_type))
                )
            })
            .unwrap_or_default();
        diagnostics.push(Diagnostic::new(
            "SC0403",
            Severity::Error,
            format!(
                "composition certificate {}{loc} failed validation: {}",
                f.index, f.reason
            ),
        ));
    }

    ChainCertificationRun {
        certs_emitted,
        certs_checked: report.checked,
        check_micros,
        bundle,
        report,
        diagnostics,
    }
}

/// Resolves a witness tuple into per-hop certificate references: `R_sub`
/// steps throughout, except the final step of a disjoint claim, which
/// resolves in the last hop's `R_dis` certificates.
fn comp_steps(
    claim: CompClaim,
    tuple: &[TypeId],
    sub_maps: &[HashMap<(u32, u32), u32>],
    dis_maps: &[HashMap<(u32, u32), u32>],
) -> Option<Vec<CompStep>> {
    let hop_count = tuple.len() - 1;
    let mut steps = Vec::with_capacity(hop_count);
    for i in 0..hop_count {
        let pair = (tuple[i].0, tuple[i + 1].0);
        let is_dis_step = claim == CompClaim::Disjoint && i == hop_count - 1;
        let map = if is_dis_step {
            &dis_maps[i]
        } else {
            &sub_maps[i]
        };
        steps.push(CompStep {
            source_type: pair.0,
            target_type: pair.1,
            cert_ref: *map.get(&pair)?,
        });
    }
    Some(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemacast_schema::{SchemaBuilder, SimpleType};

    /// Three versions of the purchase-order schema: v1 requires `billTo`,
    /// v2 makes it optional (v1 ⊑ v2 hop-wise), v3 drops it entirely
    /// (incomparable with v2's optional form but still accepts the
    /// bill-less documents).
    fn chain_schemas(ab: &mut Alphabet) -> Vec<AbstractSchema> {
        [
            "(shipTo, billTo, items)",
            "(shipTo, billTo?, items)",
            "(shipTo, items)",
        ]
        .iter()
        .map(|model| {
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
            b.complex(
                po,
                model,
                &[("shipTo", addr), ("billTo", addr), ("items", items)],
            )
            .unwrap();
            b.root("purchaseOrder", po);
            b.finish().unwrap()
        })
        .collect()
    }

    #[test]
    fn chain_needs_two_versions() {
        let ab = Alphabet::new();
        let schemas: Vec<AbstractSchema> = Vec::new();
        assert_eq!(
            SchemaChain::new(&schemas, &ab).err(),
            Some(ChainError::TooShort(0))
        );
    }

    #[test]
    fn widening_prefix_composes_and_is_sound() {
        let mut ab = Alphabet::new();
        let schemas = chain_schemas(&mut ab);
        // v1 → v2 widens, so the (v1, v2) hop is fully subsumed; the
        // (v2, v3) hop is not. Every composed fact must also hold in the
        // endpoint's exact relations.
        let chain = SchemaChain::new(&schemas[..2], &ab).unwrap();
        let rel = chain.endpoint().relations();
        for s in schemas[0].type_ids() {
            for t in schemas[1].type_ids() {
                match chain.composed_relation(s, t) {
                    ChainRelation::Subsumed(_) => assert!(rel.subsumed(s, t)),
                    ChainRelation::Disjoint(_) => assert!(rel.disjoint(s, t)),
                    ChainRelation::Neither => {
                        assert!(!rel.subsumed(s, t) && !rel.disjoint(s, t));
                    }
                }
            }
        }
    }

    #[test]
    fn tuples_thread_through_the_middle_version() {
        let mut ab = Alphabet::new();
        let schemas = chain_schemas(&mut ab);
        let chain = SchemaChain::new(&schemas, &ab).unwrap();
        // Text ⊑ Text ⊑ Text composes across both hops.
        let s = schemas[0].type_by_name("Text").unwrap();
        let t = schemas[2].type_by_name("Text").unwrap();
        let tuple = chain.sub_tuple(s, t).expect("Text subsumes across hops");
        assert_eq!(tuple.len(), 3);
        assert_eq!(schemas[1].type_name(tuple[1]), "Text");
    }

    #[test]
    fn chain_certifies_end_to_end() {
        let mut ab = Alphabet::new();
        let schemas = chain_schemas(&mut ab);
        let chain = SchemaChain::new(&schemas, &ab).unwrap();
        let run = certify_chain(&chain);
        assert!(run.all_certified(), "diagnostics: {:#?}", run.diagnostics);
        assert!(!run.bundle.compositions.is_empty());
        assert!(run.report.all_valid());
    }

    #[test]
    fn corrupted_composition_is_rejected_via_diagnostics() {
        let mut ab = Alphabet::new();
        let schemas = chain_schemas(&mut ab);
        let chain = SchemaChain::new(&schemas, &ab).unwrap();
        let mut run = certify_chain(&chain);
        run.bundle.compositions[0].steps[0].source_type ^= 1;
        let report = check_chain_bundle(&run.bundle);
        assert!(!report.all_valid());
    }
}
