//! Property test: the lexical fast path (interned labels + raw-byte
//! subtree skipping) is byte-for-byte equivalent to the generic
//! depth-counting event path on schema-derived documents.
//!
//! `streaming_props.rs` checks the streaming validator against the tree
//! validator; this file checks the two *streaming* implementations against
//! each other — same outcome, same decision counters — with
//! `bytes_skipped` / `events_avoided` as the only permitted difference
//! (the generic path leaves them 0 by construction).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use schemacast::core::{CastContext, StreamingCast};
use schemacast::regex::Alphabet;
use schemacast::workload::synth::{random_schema, sample_document, SynthConfig};
use schemacast::xml::PullParser;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lexical_fast_path_matches_generic_event_path(
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
        let xml = doc.to_xml(&ab);

        let ctx = CastContext::new(&source, &target, &ab);
        let sc = StreamingCast::new(&ctx);

        // Exercise both serializations: the pretty form interleaves
        // ignorable whitespace with the tags the raw-byte scanner jumps
        // over, so a skip that lands even one byte off shows up here.
        for text in [
            schemacast::xml::to_string(&xml),
            schemacast::xml::to_pretty_string(&xml),
        ] {
            let (fast_out, fast_stats) =
                sc.validate_str(&text, &ab).expect("well-formed");
            let (oracle_out, oracle_stats) = sc
                .validate_events(PullParser::new(&text), &ab)
                .expect("well-formed");

            prop_assert_eq!(fast_out, oracle_out, "outcomes diverge");

            // Decision counters must be identical; only the lexical-skip
            // and stage-1 tape telemetry may differ (the oracle never
            // skips lexically and builds no tape).
            let mut fast_stats = fast_stats.without_clocks();
            fast_stats.bytes_skipped = 0;
            fast_stats.events_avoided = 0;
            fast_stats.tape_events = 0;
            fast_stats.tape_skip_hops = 0;
            prop_assert_eq!(oracle_stats.bytes_skipped, 0);
            prop_assert_eq!(oracle_stats.events_avoided, 0);
            prop_assert_eq!(oracle_stats.tape_events, 0);
            prop_assert_eq!(oracle_stats.tape_skip_hops, 0);
            prop_assert_eq!(fast_stats, oracle_stats, "decision stats diverge");
        }
    }
}

/// Anti-vacuity: the equivalence property above is meaningless if no
/// document ever triggers the lexical skip path, so this test runs a
/// deterministic slice of the same kind of corpus (identity casts, where
/// every subtree is subsumed) and demands nonzero skip telemetry.
#[test]
fn skip_machinery_is_exercised_by_the_corpus() {
    let mut bytes = 0usize;
    let mut events = 0usize;
    let mut hops = 0usize;
    for schema_seed in 0..40u64 {
        let mut rng = SmallRng::seed_from_u64(schema_seed);
        let synth = random_schema(&SynthConfig::default(), &mut rng);
        let mut ab = Alphabet::new();
        let source = synth.build(&mut ab);
        let target = synth.build(&mut ab);
        let mut doc_rng = SmallRng::seed_from_u64(schema_seed.wrapping_mul(31));
        let Some(doc) = sample_document(&source, &mut ab, &mut doc_rng, 5) else {
            continue;
        };
        let text = schemacast::xml::to_string(&doc.to_xml(&ab));
        let ctx = CastContext::new(&source, &target, &ab);
        let sc = StreamingCast::new(&ctx);
        let (_, stats) = sc.validate_str(&text, &ab).expect("well-formed");
        bytes += stats.bytes_skipped;
        events += stats.events_avoided;
        hops += stats.tape_skip_hops;
    }
    assert!(
        bytes > 0 && events > 0,
        "identity casts over synth documents never skipped a subtree \
         lexically (bytes={bytes}, events={events}) — the oracle property \
         above would be vacuous"
    );
    assert!(
        hops > 0,
        "no skip was served as an O(1) tape hop (hops={hops}) — the \
         tape-fed skip path is not being exercised"
    );
}
