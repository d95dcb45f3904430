//! Property test: the streaming validator agrees with the tree validator
//! (and with ground truth) on serialized random documents — connecting the
//! pull parser, the serializer, and the O(depth)-memory cast path. Cast
//! from the empty schema, the stream must also agree with full validation
//! against the target: that is how `schemacast validate` runs.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use schemacast::core::{CastContext, FullValidator, StreamingCast};
use schemacast::regex::Alphabet;
use schemacast::schema::SchemaBuilder;
use schemacast::tree::{Doc, WhitespaceMode};
use schemacast::workload::synth::{random_schema, sample_document, SynthConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_equals_tree_validation(
        schema_seed in 0u64..4000,
        evolve_steps in 0usize..3,
        doc_seed in 0u64..4000,
    ) {
        let mut rng = SmallRng::seed_from_u64(schema_seed);
        let mut synth = random_schema(&SynthConfig::default(), &mut rng);
        let original = synth.clone();
        for _ in 0..evolve_steps {
            synth.evolve(&mut rng);
        }
        let mut ab = Alphabet::new();
        let source = original.build(&mut ab);
        let target = synth.build(&mut ab);
        let mut doc_rng = SmallRng::seed_from_u64(doc_seed);
        let Some(doc) = sample_document(&source, &mut ab, &mut doc_rng, 5) else {
            return Ok(());
        };
        let empty = SchemaBuilder::new(&mut ab).finish().expect("empty schema");

        // Serialize (both compact and pretty — the pretty form adds
        // ignorable whitespace the streaming validator must skip).
        let xml = doc.to_xml(&ab);
        let compact = schemacast::xml::to_string(&xml);
        let pretty = schemacast::xml::to_pretty_string(&xml);

        let ctx = CastContext::new(&source, &target, &ab);
        let sc = StreamingCast::new(&ctx);
        let want = target.accepts_document(&doc);

        let (out_compact, _) = sc.validate_str(&compact, &ab).expect("compact well-formed");
        prop_assert_eq!(out_compact.is_valid(), want, "compact form");

        let (out_pretty, _) = sc.validate_str(&pretty, &ab).expect("pretty well-formed");
        prop_assert_eq!(out_pretty.is_valid(), want, "pretty form");

        // And the DOM round trip through the parser agrees too.
        let reparsed = schemacast::xml::parse_document(&compact).expect("parse");
        let doc2 = Doc::from_xml(&reparsed.root, &mut ab, WhitespaceMode::Trim);
        prop_assert_eq!(ctx.validate(&doc2).is_valid(), want, "reparsed tree");

        // `validate --schema T` is the cast from the empty schema to T: no
        // source type subsumes anything, so the stream checks every element
        // against T alone and must agree with full validation.
        let full = FullValidator::new(&target).validate(&doc).is_valid();
        prop_assert_eq!(full, want, "full validation");
        let from_empty = CastContext::new(&empty, &target, &ab);
        let sc = StreamingCast::new(&from_empty);
        for (form, text) in [("compact", &compact), ("pretty", &pretty)] {
            let (out, _) = sc.validate_str(text, &ab).expect("well-formed");
            prop_assert_eq!(out.is_valid(), want, "{} form from the empty schema", form);
        }
    }
}
