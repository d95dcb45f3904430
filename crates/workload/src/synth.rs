//! Synthetic schema workloads: random abstract schemas, schema *evolutions*
//! (the operations a schema actually undergoes between versions), random
//! valid documents, and random edit scripts.
//!
//! These drive the property tests ("the cast validator agrees with full
//! validation on arbitrary schema pairs and valid documents") and the
//! ablation benchmarks.

use crate::strings::sample_member;
use rand::Rng;
use schemacast_regex::Alphabet;
use schemacast_schema::{
    AbstractSchema, AtomicKind, BoundValue, Decimal, SchemaBuilder, SimpleType, TypeDef, TypeId,
};
use schemacast_tree::{DeltaDoc, Doc, Edit, NodeId};

/// Occurrence decoration of a content-model part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occurs {
    /// Exactly once.
    One,
    /// `?`
    Opt,
    /// `*`
    Star,
    /// `+`
    Plus,
}

impl Occurs {
    fn suffix(self) -> &'static str {
        match self {
            Occurs::One => "",
            Occurs::Opt => "?",
            Occurs::Star => "*",
            Occurs::Plus => "+",
        }
    }
}

/// What a part's label maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChildRef {
    /// Another complex type (by index; always a *later* index — the
    /// generated type graph is acyclic, hence productive).
    Complex(usize),
    /// A simple type (by index into [`SynthSchema::simples`]).
    Simple(usize),
}

/// One part of a content model: a label (or a choice of two labels, each
/// with its own child) plus an occurrence decoration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Part {
    /// `(label, child)` alternatives; one entry = plain element,
    /// two entries = a choice.
    pub alternatives: Vec<(String, ChildRef)>,
    /// Occurrence decoration applied to the part.
    pub occurs: Occurs,
}

/// A complex type: a sequence of parts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SynthComplex {
    /// Sequence of parts.
    pub parts: Vec<Part>,
}

/// A mutable, regenerable description of a schema; compile with
/// [`SynthSchema::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSchema {
    /// Complex types; index 0 is the root type.
    pub complexes: Vec<SynthComplex>,
    /// Simple types.
    pub simples: Vec<SimpleType>,
    /// The root element label.
    pub root_label: String,
}

/// Generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Number of complex types.
    pub n_complex: usize,
    /// Maximum parts per content model.
    pub max_parts: usize,
    /// Probability that a part is a two-way choice.
    pub choice_prob: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            n_complex: 6,
            max_parts: 4,
            choice_prob: 0.25,
        }
    }
}

/// Generates a random schema description.
pub fn random_schema(cfg: &SynthConfig, rng: &mut impl Rng) -> SynthSchema {
    let simples = vec![
        SimpleType::string(),
        SimpleType::of(AtomicKind::Integer),
        SimpleType {
            kind: AtomicKind::PositiveInteger,
            facets: schemacast_schema::Facets {
                max_exclusive: Some(BoundValue::Num(Decimal::from_i64(rng.gen_range(50..500)))),
                ..Default::default()
            },
        },
        SimpleType::of(AtomicKind::Boolean),
    ];
    let mut complexes = Vec::with_capacity(cfg.n_complex);
    let mut label_counter = 0usize;
    for i in 0..cfg.n_complex {
        let n_parts = rng.gen_range(1..=cfg.max_parts);
        let mut parts = Vec::with_capacity(n_parts);
        for _ in 0..n_parts {
            let n_alt = if rng.gen_bool(cfg.choice_prob) { 2 } else { 1 };
            let mut alternatives = Vec::with_capacity(n_alt);
            for _ in 0..n_alt {
                label_counter += 1;
                let label = format!("e{label_counter}");
                let child = if i + 1 < cfg.n_complex && rng.gen_bool(0.4) {
                    ChildRef::Complex(rng.gen_range(i + 1..cfg.n_complex))
                } else {
                    ChildRef::Simple(rng.gen_range(0..simples.len()))
                };
                alternatives.push((label, child));
            }
            let occurs = match rng.gen_range(0..5) {
                0 => Occurs::Opt,
                1 => Occurs::Star,
                2 => Occurs::Plus,
                _ => Occurs::One,
            };
            parts.push(Part {
                alternatives,
                occurs,
            });
        }
        complexes.push(SynthComplex { parts });
    }
    SynthSchema {
        complexes,
        simples,
        root_label: "root".to_owned(),
    }
}

impl SynthSchema {
    /// Compiles the description into an [`AbstractSchema`] over `alphabet`.
    pub fn build(&self, alphabet: &mut Alphabet) -> AbstractSchema {
        let mut b = SchemaBuilder::new(alphabet);
        let simple_ids: Vec<TypeId> = self
            .simples
            .iter()
            .enumerate()
            .map(|(i, s)| b.simple(&format!("S{i}"), s.clone()).expect("unique"))
            .collect();
        let complex_ids: Vec<TypeId> = (0..self.complexes.len())
            .map(|i| b.declare(&format!("C{i}")).expect("unique"))
            .collect();
        for (i, c) in self.complexes.iter().enumerate() {
            let mut model = String::new();
            let mut child_types: Vec<(&str, TypeId)> = Vec::new();
            for (pi, part) in c.parts.iter().enumerate() {
                if pi > 0 {
                    model.push_str(", ");
                }
                if part.alternatives.len() > 1 {
                    model.push('(');
                }
                for (ai, (label, child)) in part.alternatives.iter().enumerate() {
                    if ai > 0 {
                        model.push_str(" | ");
                    }
                    model.push_str(label);
                    let tid = match child {
                        ChildRef::Complex(k) => complex_ids[*k],
                        ChildRef::Simple(k) => simple_ids[*k],
                    };
                    child_types.push((label.as_str(), tid));
                }
                if part.alternatives.len() > 1 {
                    model.push(')');
                }
                model.push_str(part.occurs.suffix());
            }
            if c.parts.is_empty() {
                model.push_str("()");
            }
            b.complex(complex_ids[i], &model, &child_types)
                .expect("generated model is well-formed");
        }
        b.root(&self.root_label, complex_ids[0]);
        b.finish().expect("generated schema assembles")
    }

    /// Applies one random evolution step, returning what changed.
    pub fn evolve(&mut self, rng: &mut impl Rng) -> EvolutionOp {
        for _ in 0..32 {
            let op = match rng.gen_range(0..6) {
                0 => self.try_make_optional(rng),
                1 => self.try_make_required(rng),
                2 => self.try_star_plus_flip(rng),
                3 => self.try_add_optional_part(rng),
                4 => self.try_narrow_simple(rng),
                _ => self.try_widen_simple(rng),
            };
            if let Some(op) = op {
                return op;
            }
        }
        EvolutionOp::NoChange
    }

    fn pick_part(&mut self, rng: &mut impl Rng) -> Option<(usize, usize)> {
        let candidates: Vec<(usize, usize)> = self
            .complexes
            .iter()
            .enumerate()
            .flat_map(|(ci, c)| (0..c.parts.len()).map(move |pi| (ci, pi)))
            .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[rng.gen_range(0..candidates.len())])
        }
    }

    fn try_make_optional(&mut self, rng: &mut impl Rng) -> Option<EvolutionOp> {
        let (ci, pi) = self.pick_part(rng)?;
        let p = &mut self.complexes[ci].parts[pi];
        match p.occurs {
            Occurs::One => {
                p.occurs = Occurs::Opt;
                Some(EvolutionOp::MadeOptional {
                    complex: ci,
                    part: pi,
                })
            }
            Occurs::Plus => {
                p.occurs = Occurs::Star;
                Some(EvolutionOp::MadeOptional {
                    complex: ci,
                    part: pi,
                })
            }
            _ => None,
        }
    }

    fn try_make_required(&mut self, rng: &mut impl Rng) -> Option<EvolutionOp> {
        let (ci, pi) = self.pick_part(rng)?;
        let p = &mut self.complexes[ci].parts[pi];
        match p.occurs {
            Occurs::Opt => {
                p.occurs = Occurs::One;
                Some(EvolutionOp::MadeRequired {
                    complex: ci,
                    part: pi,
                })
            }
            Occurs::Star => {
                p.occurs = Occurs::Plus;
                Some(EvolutionOp::MadeRequired {
                    complex: ci,
                    part: pi,
                })
            }
            _ => None,
        }
    }

    fn try_star_plus_flip(&mut self, rng: &mut impl Rng) -> Option<EvolutionOp> {
        let (ci, pi) = self.pick_part(rng)?;
        let p = &mut self.complexes[ci].parts[pi];
        match p.occurs {
            Occurs::One => {
                p.occurs = Occurs::Plus;
                Some(EvolutionOp::Widened {
                    complex: ci,
                    part: pi,
                })
            }
            _ => None,
        }
    }

    fn try_add_optional_part(&mut self, rng: &mut impl Rng) -> Option<EvolutionOp> {
        let ci = rng.gen_range(0..self.complexes.len());
        let max_label: usize = self
            .complexes
            .iter()
            .flat_map(|c| &c.parts)
            .flat_map(|p| &p.alternatives)
            .filter_map(|(l, _)| l.strip_prefix('e').and_then(|n| n.parse::<usize>().ok()))
            .max()
            .unwrap_or(0);
        let label = format!("e{}", max_label + 1);
        let child = ChildRef::Simple(rng.gen_range(0..self.simples.len()));
        self.complexes[ci].parts.push(Part {
            alternatives: vec![(label, child)],
            occurs: Occurs::Opt,
        });
        Some(EvolutionOp::AddedOptionalPart { complex: ci })
    }

    fn try_narrow_simple(&mut self, rng: &mut impl Rng) -> Option<EvolutionOp> {
        let i = rng.gen_range(0..self.simples.len());
        let s = &mut self.simples[i];
        if !s.kind.is_numeric() {
            return None;
        }
        let cur = match s.facets.max_exclusive {
            Some(BoundValue::Num(d)) => d,
            _ => Decimal::from_i64(1000),
        };
        let halved = Decimal::from_i64(decimal_to_i64(cur) / 2 + 1);
        s.facets.max_exclusive = Some(BoundValue::Num(halved));
        Some(EvolutionOp::NarrowedSimple { simple: i })
    }

    fn try_widen_simple(&mut self, rng: &mut impl Rng) -> Option<EvolutionOp> {
        let i = rng.gen_range(0..self.simples.len());
        let s = &mut self.simples[i];
        if !s.kind.is_numeric() || s.facets.max_exclusive.is_none() {
            return None;
        }
        let cur = match s.facets.max_exclusive {
            Some(BoundValue::Num(d)) => d,
            _ => return None,
        };
        s.facets.max_exclusive = Some(BoundValue::Num(Decimal::from_i64(
            decimal_to_i64(cur).saturating_mul(2),
        )));
        Some(EvolutionOp::WidenedSimple { simple: i })
    }
}

fn decimal_to_i64(d: Decimal) -> i64 {
    // Facet bounds generated here are always small integers.
    d.to_string().parse().unwrap_or(1000)
}

/// What [`SynthSchema::evolve`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvolutionOp {
    /// A required part became optional (source ⊆ target direction widens).
    MadeOptional {
        /// Index of the complex type.
        complex: usize,
        /// Index of the part.
        part: usize,
    },
    /// An optional part became required.
    MadeRequired {
        /// Index of the complex type.
        complex: usize,
        /// Index of the part.
        part: usize,
    },
    /// `One` became `Plus`.
    Widened {
        /// Index of the complex type.
        complex: usize,
        /// Index of the part.
        part: usize,
    },
    /// A new optional element was appended to a content model.
    AddedOptionalPart {
        /// Index of the complex type.
        complex: usize,
    },
    /// A numeric simple type's `maxExclusive` was halved.
    NarrowedSimple {
        /// Index of the simple type.
        simple: usize,
    },
    /// A numeric simple type's `maxExclusive` was doubled.
    WidenedSimple {
        /// Index of the simple type.
        simple: usize,
    },
    /// No applicable mutation was found.
    NoChange,
}

/// Samples a random document valid with respect to `schema`, rooted at
/// `root_label`. `fanout` tunes how long starred content runs get.
pub fn sample_document(
    schema: &AbstractSchema,
    alphabet: &mut Alphabet,
    rng: &mut impl Rng,
    fanout: usize,
) -> Option<Doc> {
    let root_label = alphabet.lookup("root")?;
    let root_type = schema.root_type(root_label)?;
    let mut doc = Doc::new(root_label);
    let root = doc.root();
    fill_node(schema, rng, &mut doc, root, root_type, fanout)?;
    debug_assert!(schema.accepts_document(&doc));
    Some(doc)
}

fn fill_node(
    schema: &AbstractSchema,
    rng: &mut impl Rng,
    doc: &mut Doc,
    node: NodeId,
    t: TypeId,
    fanout: usize,
) -> Option<()> {
    match schema.type_def(t) {
        TypeDef::Simple(s) => {
            let value = sample_simple_value(s, rng)?;
            if !value.is_empty() {
                doc.add_text(node, value);
            }
            Some(())
        }
        TypeDef::Complex(c) => {
            let labels = sample_member(&c.dfa, rng, fanout)?;
            for label in labels {
                let child_type = c.child_type(label)?;
                let child = doc.add_element(node, label);
                fill_node(schema, rng, doc, child, child_type, fanout)?;
            }
            Some(())
        }
    }
}

/// Samples a lexical value valid for a simple type. Supports the kinds and
/// facets the synthetic generator produces (enumerations, numeric ranges,
/// free strings/booleans/dates).
pub fn sample_simple_value(s: &SimpleType, rng: &mut impl Rng) -> Option<String> {
    if let Some(e) = &s.facets.enumeration {
        let valid: Vec<&String> = e.iter().filter(|v| s.validate(v)).collect();
        if valid.is_empty() {
            return None;
        }
        return Some(valid[rng.gen_range(0..valid.len())].clone());
    }
    let candidate = match s.kind {
        AtomicKind::String | AtomicKind::AnySimple => {
            let words = ["alpha", "bravo", "charlie", "delta", "echo"];
            words[rng.gen_range(0..words.len())].to_owned()
        }
        AtomicKind::Boolean => {
            if rng.gen_bool(0.5) {
                "true".into()
            } else {
                "false".into()
            }
        }
        AtomicKind::Date => "2004-03-14".into(),
        _ => {
            // Numeric: find a value inside the facet interval by probing.
            let probes: Vec<i64> = vec![1, 2, 5, 10, 42, 99, 0, -1, 100, 199, 500, 7];
            let mut found = None;
            for p in probes {
                if s.validate(&p.to_string()) {
                    found = Some(p);
                    break;
                }
            }
            let base = found?;
            // Jitter within validity.
            let jittered = base + rng.gen_range(0..5);
            if s.validate(&jittered.to_string()) {
                jittered.to_string()
            } else {
                base.to_string()
            }
        }
    };
    s.validate(&candidate).then_some(candidate)
}

/// Applies `n` random edits to `dd`, preferring structure-preserving ones.
/// Returns the number of edits that actually applied.
pub fn random_edits(
    dd: &mut DeltaDoc<'_>,
    alphabet: &mut Alphabet,
    rng: &mut impl Rng,
    n: usize,
) -> usize {
    let mut applied = 0;
    for _ in 0..n {
        let nodes: Vec<NodeId> = dd
            .preorder_iter()
            .filter(|&id| !matches!(dd.delta(id), schemacast_tree::DeltaState::Deleted))
            .collect();
        if nodes.is_empty() {
            break;
        }
        let node = nodes[rng.gen_range(0..nodes.len())];
        let edit = match rng.gen_range(0..4) {
            0 if dd.text(node).is_some() => Some(Edit::SetText {
                node,
                text: rng.gen_range(0i64..300).to_string(),
            }),
            1 if dd.label(node).is_some() && dd.parent(node).is_some() => {
                // Relabel to an existing label (plausible evolution).
                let target = alphabet.symbols().nth(rng.gen_range(0..alphabet.len()));
                target.map(|label| Edit::Relabel { node, label })
            }
            2 if dd.parent(node).is_some() && dd.new_children(node).next().is_none() => {
                Some(Edit::DeleteLeaf { node })
            }
            _ if dd.label(node).is_some() => {
                let label = alphabet.symbols().nth(rng.gen_range(0..alphabet.len()));
                label.map(|label| Edit::InsertElement {
                    parent: node,
                    position: rng.gen_range(0..=dd.children(node).len()),
                    label,
                })
            }
            _ => None,
        };
        if let Some(e) = edit {
            if dd.apply(&e).is_ok() {
                applied += 1;
            }
        }
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn random_schemas_build_and_are_productive() {
        let mut rng = SmallRng::seed_from_u64(11);
        for seed in 0..20 {
            let mut srng = SmallRng::seed_from_u64(seed);
            let synth = random_schema(&SynthConfig::default(), &mut srng);
            let mut ab = Alphabet::new();
            let schema = synth.build(&mut ab);
            assert!(schema.assert_productive(&ab).is_ok(), "seed {seed}");
            let _ = &mut rng;
        }
    }

    #[test]
    fn sampled_documents_are_valid() {
        for seed in 0..20 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let synth = random_schema(&SynthConfig::default(), &mut rng);
            let mut ab = Alphabet::new();
            let schema = synth.build(&mut ab);
            let doc = sample_document(&schema, &mut ab, &mut rng, 4).expect("sample");
            assert!(schema.accepts_document(&doc), "seed {seed}");
        }
    }

    #[test]
    fn evolution_changes_compile() {
        for seed in 0..20 {
            let mut rng = SmallRng::seed_from_u64(100 + seed);
            let mut synth = random_schema(&SynthConfig::default(), &mut rng);
            let original = synth.clone();
            let op = synth.evolve(&mut rng);
            let mut ab = Alphabet::new();
            let s1 = original.build(&mut ab);
            let s2 = synth.build(&mut ab);
            assert!(s1.assert_productive(&ab).is_ok());
            assert!(s2.assert_productive(&ab).is_ok());
            if op != EvolutionOp::NoChange {
                assert_ne!(original, synth, "op {op:?} changed nothing");
            }
        }
    }

    #[test]
    fn widening_evolutions_keep_documents_valid() {
        for seed in 0..30 {
            let mut rng = SmallRng::seed_from_u64(200 + seed);
            let mut synth = random_schema(&SynthConfig::default(), &mut rng);
            let mut ab = Alphabet::new();
            let source = synth.build(&mut ab);
            let doc = sample_document(&source, &mut ab, &mut rng, 3).expect("sample");
            let op = synth.evolve(&mut rng);
            let widening = matches!(
                op,
                EvolutionOp::MadeOptional { .. }
                    | EvolutionOp::Widened { .. }
                    | EvolutionOp::AddedOptionalPart { .. }
                    | EvolutionOp::WidenedSimple { .. }
            );
            if widening {
                let target = synth.build(&mut ab);
                assert!(
                    target.accepts_document(&doc),
                    "widening op {op:?} rejected a source document (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn random_edits_apply() {
        let mut rng = SmallRng::seed_from_u64(5);
        let synth = random_schema(&SynthConfig::default(), &mut rng);
        let mut ab = Alphabet::new();
        let schema = synth.build(&mut ab);
        let doc = sample_document(&schema, &mut ab, &mut rng, 4).expect("sample");
        let mut dd = DeltaDoc::new(doc);
        let applied = random_edits(&mut dd, &mut ab, &mut rng, 10);
        assert!(applied > 0);
        // The committed document is still a well-formed tree.
        let committed = dd.committed();
        assert!(committed.node_count() >= 1);
    }
}
