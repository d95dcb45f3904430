//! Diagnostic validation: *why* is a document not valid for the target?
//!
//! [`CastContext::validate`] answers yes/no as fast as possible; tooling
//! (the CLI, editors, brokers that log rejects) wants the failing path and
//! reason. [`explain`] runs the same tree walk, under the context's
//! [`CastOptions`](crate::CastOptions), and describes the element it stops
//! at: the first failure in document order.

use crate::cast::{CastContext, Reason, Rejection, Walk};
use crate::diag::{push_segment, root_path, Diagnostic, Severity};
use crate::stats::ValidationStats;
use schemacast_regex::Alphabet;
use schemacast_tree::{Doc, NodeId};
use std::fmt;

/// A validation failure: where and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationFailure {
    /// Slash path (with sibling indices) to the offending element.
    pub path: String,
    /// What went wrong.
    pub kind: FailureKind,
}

/// The reason a subtree fails target validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The root label has no target root type.
    RootNotAllowed {
        /// The root label.
        label: String,
    },
    /// The children labels do not match the content model.
    ContentModel {
        /// Target type name.
        type_name: String,
        /// The children labels found.
        found: Vec<String>,
    },
    /// The source/target types are disjoint: no tree valid for the source
    /// type can satisfy the target type.
    DisjointTypes {
        /// Source type name.
        source_type: String,
        /// Target type name.
        target_type: String,
    },
    /// A simple value violates the target simple type.
    InvalidValue {
        /// Target type name.
        type_name: String,
        /// The offending value.
        value: String,
    },
    /// Character data inside element-only content.
    TextInElementContent,
    /// Simple content with more than one child / an element child.
    NotSimpleContent,
}

impl ValidationFailure {
    /// Stable rule id in the `SC03xx` (document validation) namespace.
    pub fn rule_id(&self) -> &'static str {
        match self.kind {
            FailureKind::RootNotAllowed { .. } => "SC0301",
            FailureKind::ContentModel { .. } => "SC0302",
            FailureKind::DisjointTypes { .. } => "SC0303",
            FailureKind::InvalidValue { .. } => "SC0304",
            FailureKind::TextInElementContent => "SC0305",
            FailureKind::NotSimpleContent => "SC0306",
        }
    }

    /// Converts the failure into the shared [`Diagnostic`] model used by the
    /// lint subsystem, preserving the path and naming the target type.
    pub fn to_diagnostic(&self) -> Diagnostic {
        let d = Diagnostic::new(self.rule_id(), Severity::Error, self.to_string())
            .with_path(self.path.clone());
        match &self.kind {
            FailureKind::ContentModel { type_name, .. }
            | FailureKind::InvalidValue { type_name, .. } => d.with_type_name(type_name.clone()),
            FailureKind::DisjointTypes { target_type, .. } => d.with_type_name(target_type.clone()),
            _ => d,
        }
    }
}

impl fmt::Display for ValidationFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            FailureKind::RootNotAllowed { label } => {
                write!(
                    f,
                    "{}: root element <{label}> is not declared in the target schema",
                    self.path
                )
            }
            FailureKind::ContentModel { type_name, found } => write!(
                f,
                "{}: children ({}) do not match the content model of {type_name}",
                self.path,
                found.join(", ")
            ),
            FailureKind::DisjointTypes {
                source_type,
                target_type,
            } => write!(
                f,
                "{}: source type {source_type} and target type {target_type} are disjoint",
                self.path
            ),
            FailureKind::InvalidValue { type_name, value } => write!(
                f,
                "{}: value {value:?} is not valid for {type_name}",
                self.path
            ),
            FailureKind::TextInElementContent => {
                write!(f, "{}: character data in element-only content", self.path)
            }
            FailureKind::NotSimpleContent => {
                write!(f, "{}: expected simple (text-only) content", self.path)
            }
        }
    }
}

/// Explains the first failure of `doc` against the context's target schema,
/// or returns `Ok(())` if the document is valid.
///
/// Uses the same subsumption skips as the fast validator, so explaining a
/// *valid* document is as cheap as validating it.
pub fn explain(
    ctx: &CastContext<'_>,
    doc: &Doc,
    alphabet: &Alphabet,
) -> Result<(), ValidationFailure> {
    validate_explained(ctx, doc, alphabet).map(drop)
}

/// Convenience: validate and, on failure, explain — one call for tooling.
/// On success the stats are those of [`CastContext::validate_with_stats`].
pub fn validate_explained(
    ctx: &CastContext<'_>,
    doc: &Doc,
    alphabet: &Alphabet,
) -> Result<ValidationStats, ValidationFailure> {
    let root = doc.root();
    let Some(label) = doc.label(root) else {
        return Err(ValidationFailure {
            path: "/".into(),
            kind: FailureKind::RootNotAllowed {
                label: "#text".into(),
            },
        });
    };
    let Some(tgt) = ctx.target().root_type(label) else {
        return Err(ValidationFailure {
            path: root_path(alphabet.name(label)),
            kind: FailureKind::RootNotAllowed {
                label: alphabet.name(label).to_owned(),
            },
        });
    };
    let mut stats = ValidationStats::default();
    let src = ctx.source().root_type(label);
    match Walk::cast(ctx).run(doc, root, src, tgt, &mut stats) {
        Ok(()) => Ok(stats),
        Err(rejection) => Err(describe(ctx, doc, alphabet, rejection)),
    }
}

/// Turns the walk's rejection into a path and a [`FailureKind`].
fn describe(
    ctx: &CastContext<'_>,
    doc: &Doc,
    alphabet: &Alphabet,
    r: Rejection,
) -> ValidationFailure {
    let type_name = || ctx.target().type_name(r.tgt).to_owned();
    let kind = match r.reason {
        Reason::Disjoint => FailureKind::DisjointTypes {
            source_type: r
                .src
                .map_or_else(String::new, |s| ctx.source().type_name(s).to_owned()),
            target_type: type_name(),
        },
        Reason::NotSimpleContent => FailureKind::NotSimpleContent,
        Reason::InvalidValue => FailureKind::InvalidValue {
            type_name: type_name(),
            value: doc
                .validation_children(r.node)
                .find_map(|c| doc.text(c))
                .unwrap_or_default()
                .to_owned(),
        },
        Reason::TextInElementContent => FailureKind::TextInElementContent,
        Reason::ContentModel => FailureKind::ContentModel {
            type_name: type_name(),
            found: doc
                .validation_children(r.node)
                .filter_map(|c| doc.label(c))
                .map(|l| alphabet.name(l).to_owned())
                .collect(),
        },
    };
    ValidationFailure {
        path: path_of(doc, r.node, alphabet),
        kind,
    }
}

/// The `/root/label[i]/…` path of an element, built upwards with
/// [`Doc::parent`]; `i` counts the parent's validation children.
fn path_of(doc: &Doc, node: NodeId, alphabet: &Alphabet) -> String {
    let name = |n: NodeId| doc.label(n).map_or("#text", |l| alphabet.name(l));
    let mut steps: Vec<(NodeId, usize)> = Vec::new();
    let mut cur = node;
    while let Some(parent) = doc.parent(cur) {
        let index = doc.validation_children(parent).position(|c| c == cur);
        steps.push((cur, index.unwrap_or_default()));
        cur = parent;
    }
    let mut path = root_path(name(cur));
    for &(n, index) in steps.iter().rev() {
        push_segment(&mut path, name(n), index);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cast::CastContext;
    use schemacast_schema::{AtomicKind, BoundValue, Decimal, SchemaBuilder, SimpleType};

    fn schemas() -> (
        schemacast_schema::AbstractSchema,
        schemacast_schema::AbstractSchema,
        Alphabet,
    ) {
        let mut ab = Alphabet::new();
        let mk = |ab: &mut Alphabet, optional: bool, max: i64| {
            let mut b = SchemaBuilder::new(ab);
            let text = b.simple("Text", SimpleType::string()).unwrap();
            let mut qt = SimpleType::of(AtomicKind::PositiveInteger);
            qt.facets.max_exclusive = Some(BoundValue::Num(Decimal::from_i64(max)));
            let qty = b.simple("Qty", qt).unwrap();
            let item = b.declare("Item").unwrap();
            b.complex(item, "(sku, qty)", &[("sku", text), ("qty", qty)])
                .unwrap();
            let po = b.declare("PO").unwrap();
            let model = if optional {
                "(item*, note?)"
            } else {
                "(item+, note?)"
            };
            b.complex(po, model, &[("item", item), ("note", text)])
                .unwrap();
            b.root("po", po);
            b.finish().unwrap()
        };
        let source = mk(&mut ab, true, 200);
        let target = mk(&mut ab, false, 100);
        (source, target, ab)
    }

    fn build(ab: &mut Alphabet, qtys: &[&str]) -> Doc {
        let po = ab.intern("po");
        let item = ab.intern("item");
        let sku = ab.intern("sku");
        let qty = ab.intern("qty");
        let mut d = Doc::new(po);
        for q in qtys {
            let i = d.add_element(d.root(), item);
            let s = d.add_element(i, sku);
            d.add_text(s, "S");
            let e = d.add_element(i, qty);
            d.add_text(e, *q);
        }
        d
    }

    #[test]
    fn explains_content_model_violation() {
        let (source, target, mut ab) = schemas();
        let ctx = CastContext::new(&source, &target, &ab);
        let doc = build(&mut ab, &[]); // item+ requires at least one
        let err = explain(&ctx, &doc, &ab).unwrap_err();
        assert_eq!(err.path, "/po");
        assert!(matches!(err.kind, FailureKind::ContentModel { .. }));
        assert!(err.to_string().contains("content model"));
    }

    #[test]
    fn explains_value_violation_with_path() {
        let (source, target, mut ab) = schemas();
        let ctx = CastContext::new(&source, &target, &ab);
        let doc = build(&mut ab, &["50", "150", "20"]);
        let err = explain(&ctx, &doc, &ab).unwrap_err();
        assert_eq!(err.path, "/po/item[1]/qty[1]");
        assert!(matches!(&err.kind, FailureKind::InvalidValue { value, .. } if value == "150"));
    }

    #[test]
    fn explains_unknown_root() {
        let (source, target, mut ab) = schemas();
        let ctx = CastContext::new(&source, &target, &ab);
        let other = ab.intern("unknown");
        let doc = Doc::new(other);
        let err = explain(&ctx, &doc, &ab).unwrap_err();
        assert!(matches!(err.kind, FailureKind::RootNotAllowed { .. }));
    }

    #[test]
    fn valid_documents_explain_ok() {
        let (source, target, mut ab) = schemas();
        let ctx = CastContext::new(&source, &target, &ab);
        let doc = build(&mut ab, &["1", "99"]);
        assert!(explain(&ctx, &doc, &ab).is_ok());
        assert!(validate_explained(&ctx, &doc, &ab).is_ok());
    }

    #[test]
    fn failures_convert_to_shared_diagnostics() {
        let (source, target, mut ab) = schemas();
        let ctx = CastContext::new(&source, &target, &ab);
        let doc = build(&mut ab, &["150"]);
        let err = explain(&ctx, &doc, &ab).unwrap_err();
        let d = err.to_diagnostic();
        assert_eq!(d.rule_id, "SC0304");
        assert_eq!(d.severity, crate::diag::Severity::Error);
        assert_eq!(d.path.as_deref(), Some("/po/item[0]/qty[1]"));
        assert_eq!(d.type_name.as_deref(), Some("Qty"));
    }

    #[test]
    fn explanation_agrees_with_fast_verdict() {
        let (source, target, mut ab) = schemas();
        let ctx = CastContext::new(&source, &target, &ab);
        for qtys in [
            &["1"][..],
            &["199"][..],
            &[][..],
            &["1", "2", "3"][..],
            &["99", "100"][..],
        ] {
            let doc = build(&mut ab, qtys);
            let fast = ctx.validate(&doc).is_valid();
            let explained = explain(&ctx, &doc, &ab).is_ok();
            assert_eq!(fast, explained, "qtys {qtys:?}");
        }
    }
}
