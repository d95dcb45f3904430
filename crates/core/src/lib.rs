#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Schema-cast revalidation of XML — the paper's core contribution (§3).
//!
//! Given a document known to be valid with respect to a *source* abstract
//! XML Schema, decide whether it is valid with respect to a *target* schema
//! without revalidating everything:
//!
//! * [`relations::TypeRelations`] — the `R_sub` / `R_dis` fixpoints over the
//!   type pairs of the two schemas (Definitions 4–5, Theorems 1–2).
//! * [`cast::CastContext`] — schema-cast validation without modifications
//!   (§3.2), with immediate-decision-automaton content-model checks (§4) and
//!   ablation switches ([`cast::CastOptions`]).
//! * [`mods::ModsValidator`] — schema-cast with modifications (§3.3) over
//!   Δ-encoded edited trees, using the `modified(v)` trie and the
//!   string-revalidation-with-mods machinery (§4.3).
//! * [`safety::PairSafety`] — the static update-safety analysis: per
//!   (type pair, edit kind, label) Safe/Unsafe/Dynamic verdicts computed
//!   from the product IDAs, enabling revalidation that never touches the
//!   document for statically decided edit scripts.
//! * [`dtdcast::DtdCastValidator`] — the label-indexed DTD optimization
//!   (§3.4).
//! * [`certify::certify_context`] — the certifying-analysis layer: every
//!   static claim above (relation memberships, IDA decision sets, safety
//!   verdicts) packaged as a certificate and validated by the independent
//!   `schemacast-certify` checker.
//! * [`script::ScriptAnalysis`] — the whole-script static analyzer: per-site
//!   edit-effect composition and normalization, concrete-word IA/IR
//!   decisions, and certified script-level verdicts.
//! * [`chain::SchemaChain`] — schema-evolution chains: composed end-to-end
//!   relations, one-pass `(v_1, v_N)` validation, migration-script
//!   verification, and composition certificates
//!   ([`chain::certify_chain`]).
//! * [`full::FullValidator`] — the Xerces-style baseline the paper compares
//!   against, instrumented identically.

pub mod cast;
pub mod certify;
pub mod chain;
pub mod diag;
pub mod dtdcast;
pub mod explain;
pub mod fingerprint;
pub mod full;
mod idacache;
pub mod mods;
pub mod relations;
pub mod repair;
pub mod safety;
pub mod script;
pub mod stats;
pub mod stream;
pub mod witness;

pub use cast::{CastContext, CastOptions};
pub use certify::{certify_context, CertificationRun};
pub use chain::{
    certify_chain, ChainCertificationRun, ChainError, ChainRelation, ChainScriptReport,
    ComposedVia, CompositionStats, HopReport, HopVerdict, SchemaChain,
};
pub use diag::{Diagnostic, Severity};
pub use dtdcast::{DtdCastValidator, LabelIndex, LabelPlan, NotDtdStyle};
pub use explain::{explain, validate_explained, FailureKind, ValidationFailure};
pub use fingerprint::{certification_digest, context_fingerprint, schema_fingerprint, Fnv64};
pub use full::FullValidator;
pub use mods::ModsValidator;
pub use relations::TypeRelations;
pub use repair::{RepairAction, RepairError, Repairer};
pub use safety::{MatrixEntry, PairSafety, SafetyMatrix, Verdict};
pub use script::{
    ChildCheck, FreshCheck, RejectReason, ScriptAnalysis, ScriptSite, ScriptVerdict, SiteDecision,
};
pub use stats::{CastOutcome, ValidationStats};
pub use stream::{StreamScratch, StreamingCast};
pub use witness::{
    reachable_pairs_with_paths, DivergenceKind, PairWitness, ReachablePair, WitnessSynth,
};
