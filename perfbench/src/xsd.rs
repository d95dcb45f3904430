//! Writes a [`SynthSchema`] as XSD text.
//!
//! The `schema_evolution` workload runs the real CLI, which reads schemas
//! from `.xsd` files, so the synthetic pair has to exist as XSD. The
//! writer declares every simple type as a named restriction (never a bare
//! built-in reference) and emits types in [`SynthSchema::build`]'s order,
//! so the XSD front-end compiles exactly the types `build` creates: same
//! content models, same facets, same relation counts.

use schemacast_schema::{AtomicKind, BoundValue, SimpleType};
use schemacast_workload::synth::{ChildRef, Occurs, Part, SynthSchema};
use schemacast_xml::escape_attr;
use std::fmt::Write;

/// The XSD text of `schema`.
pub fn synth_to_xsd(schema: &SynthSchema) -> String {
    let mut out = String::from(
        "<?xml version=\"1.0\"?>\n<xsd:schema xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">\n",
    );
    let _ = writeln!(
        out,
        "  <xsd:element name=\"{}\" type=\"C0\"/>",
        escape_attr(&schema.root_label)
    );
    for (i, simple) in schema.simples.iter().enumerate() {
        write_simple(&mut out, i, simple);
    }
    for (i, complex) in schema.complexes.iter().enumerate() {
        if complex.parts.is_empty() {
            let _ = writeln!(out, "  <xsd:complexType name=\"C{i}\"/>");
            continue;
        }
        let _ = writeln!(out, "  <xsd:complexType name=\"C{i}\">\n    <xsd:sequence>");
        for part in &complex.parts {
            write_part(&mut out, part);
        }
        out.push_str("    </xsd:sequence>\n  </xsd:complexType>\n");
    }
    out.push_str("</xsd:schema>\n");
    out
}

fn write_simple(out: &mut String, index: usize, simple: &SimpleType) {
    let base = match simple.kind {
        AtomicKind::String => "string",
        AtomicKind::Boolean => "boolean",
        AtomicKind::Decimal => "decimal",
        AtomicKind::Integer => "integer",
        AtomicKind::NonNegativeInteger => "nonNegativeInteger",
        AtomicKind::PositiveInteger => "positiveInteger",
        AtomicKind::Date => "date",
        AtomicKind::AnySimple => "anySimpleType",
    };
    let _ = writeln!(
        out,
        "  <xsd:simpleType name=\"S{index}\">\n    <xsd:restriction base=\"xsd:{base}\">"
    );
    let f = &simple.facets;
    let bounds = [
        ("minInclusive", &f.min_inclusive),
        ("maxInclusive", &f.max_inclusive),
        ("minExclusive", &f.min_exclusive),
        ("maxExclusive", &f.max_exclusive),
    ];
    for (facet, bound) in bounds {
        let value = match bound {
            Some(BoundValue::Num(d)) => d.to_string(),
            Some(BoundValue::Date(d)) => d.to_string(),
            None => continue,
        };
        let _ = writeln!(out, "      <xsd:{facet} value=\"{value}\"/>");
    }
    let lengths = [
        ("length", f.length),
        ("minLength", f.min_length),
        ("maxLength", f.max_length),
    ];
    for (facet, len) in lengths {
        if let Some(len) = len {
            let _ = writeln!(out, "      <xsd:{facet} value=\"{len}\"/>");
        }
    }
    for value in f.enumeration.iter().flatten() {
        let _ = writeln!(
            out,
            "      <xsd:enumeration value=\"{}\"/>",
            escape_attr(value)
        );
    }
    out.push_str("    </xsd:restriction>\n  </xsd:simpleType>\n");
}

fn write_part(out: &mut String, part: &Part) {
    let occurs = match part.occurs {
        Occurs::One => "",
        Occurs::Opt => " minOccurs=\"0\"",
        Occurs::Star => " minOccurs=\"0\" maxOccurs=\"unbounded\"",
        Occurs::Plus => " maxOccurs=\"unbounded\"",
    };
    let element = |(label, child): &(String, ChildRef), occurs: &str| {
        let ty = match child {
            ChildRef::Complex(k) => format!("C{k}"),
            ChildRef::Simple(k) => format!("S{k}"),
        };
        format!(
            "<xsd:element name=\"{}\" type=\"{ty}\"{occurs}/>",
            escape_attr(label)
        )
    };
    if let [single] = part.alternatives.as_slice() {
        let _ = writeln!(out, "      {}", element(single, occurs));
        return;
    }
    let _ = writeln!(out, "      <xsd:choice{occurs}>");
    for alternative in &part.alternatives {
        let _ = writeln!(out, "        {}", element(alternative, ""));
    }
    out.push_str("      </xsd:choice>\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use schemacast_core::CastContext;
    use schemacast_regex::Alphabet;
    use schemacast_schema::Session;
    use schemacast_tree::{Doc, WhitespaceMode};
    use schemacast_workload::synth::{random_schema, sample_document, SynthConfig};

    /// The XSD round trip compiles to the schema `build` makes: equal
    /// relation counts, and equal source and target verdicts on every
    /// sampled document (at least 200 per case).
    #[test]
    fn xsd_round_trip_matches_build() {
        let mut compared = 0;
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let cfg = SynthConfig {
                n_complex: 14,
                max_parts: 6,
                ..SynthConfig::default()
            };
            let source = random_schema(&cfg, &mut rng);
            let mut target = source.clone();
            for _ in 0..6 {
                target.evolve(&mut rng);
            }

            let mut ab = Alphabet::new();
            let built_source = source.build(&mut ab);
            let built_target = target.build(&mut ab);
            let mut session = Session::new();
            let xsd_source = session
                .parse_xsd(&synth_to_xsd(&source))
                .expect("source XSD compiles");
            let xsd_target = session
                .parse_xsd(&synth_to_xsd(&target))
                .expect("target XSD compiles");
            assert_eq!(built_source.type_count(), xsd_source.type_count());
            assert_eq!(built_target.type_count(), xsd_target.type_count());

            let built_ctx = CastContext::new(&built_source, &built_target, &ab);
            let xsd_ctx = CastContext::new(&xsd_source, &xsd_target, &session.alphabet);
            assert_eq!(
                built_ctx.relations().subsumed_pair_count(),
                xsd_ctx.relations().subsumed_pair_count(),
                "seed {seed}"
            );
            assert_eq!(
                built_ctx.relations().disjoint_pair_count(),
                xsd_ctx.relations().disjoint_pair_count(),
                "seed {seed}"
            );
            drop((built_ctx, xsd_ctx));

            let mut docs = Vec::new();
            while docs.len() < 200 {
                docs.extend(sample_document(&built_source, &mut ab, &mut rng, 3));
            }
            let mut target_valid = 0;
            for doc in &docs {
                let text = schemacast_xml::to_string(&doc.to_xml(&ab));
                let parsed = schemacast_xml::parse_document(&text).expect("reparses");
                let reread =
                    Doc::from_xml(&parsed.root, &mut session.alphabet, WhitespaceMode::Trim);
                assert!(xsd_source.accepts_document(&reread), "seed {seed}: {text}");
                let expected = built_target.accepts_document(doc);
                assert_eq!(
                    expected,
                    xsd_target.accepts_document(&reread),
                    "seed {seed}: {text}"
                );
                target_valid += usize::from(expected);
                compared += 1;
            }
            assert!(target_valid > 0, "seed {seed}: no target-valid document");
        }
        assert!(compared >= 1200);
    }
}
