//! Fuzz smoke: malformed and truncated inputs through the on-demand
//! lexer and its subtree skip.
//!
//! The pull parser lexes each event where its cursor stands, before
//! well-formedness is known, so it must take arbitrary garbage without
//! panicking and reproduce the scalar lexer's behavior **exactly** — same
//! events, then the same error at the same position. Its subtree skip
//! must land exactly where the structural index pairs the skipped
//! element, or fail with the error that pairing implies. Three mutation
//! families drive both checks:
//!
//! * every prefix truncation of a well-formed document (unterminated
//!   tags, comments, CDATA, PIs, DOCTYPE, attribute values — each
//!   truncation point lands inside a different construct);
//! * random single-byte substitutions from the structural byte set
//!   (`< > & " ' ] - / ! ? =` and NUL), the bytes the markup
//!   classification keys on;
//! * random splices of structural fragments into random positions.
//!
//! Every mutated input is pushed through both parsers to completion, and
//! a fork of the pull parser skips at every start tag; the test fails on
//! any panic (it propagates) and on any divergence in the event/error
//! stream or in a skip. UB is out of scope by construction — the crate is
//! `deny(unsafe_code)`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use schemacast_xml::index::{flags, EntryKind};
use schemacast_xml::pull::{PullEvent, PullParser, SubtreeSkip};
use schemacast_xml::{ScalarParser, StructuralIndex, XmlError};

/// Seed documents covering every construct a truncation can bisect.
const SEEDS: &[&str] = &[
    "<po><shipTo country=\"US\"><name>Alice</name></shipTo><items><item part='872-AA'/></items></po>",
    "<?xml version=\"1.0\"?><!DOCTYPE r [ <!ELEMENT r ANY> ]><r a=\"x&amp;y\">t</r>",
    "<r><!-- comment with <fake> --><![CDATA[raw </r> bytes]]><?pi data?><s/></r>",
    "<r>&lt;one&gt; &#65; &#x42;<empty/>  tail  </r>",
    "<a><b><c><d>deep</d></c></b></a>",
];

type Stream<'a> = Vec<Result<PullEvent<'a>, XmlError>>;

fn assert_parity(input: &str) {
    let tape: Stream<'_> = PullParser::new(input).collect();
    let scalar: Stream<'_> = ScalarParser::new(input).collect();
    assert_eq!(tape, scalar, "streams diverge on {input:?}");
}

/// At every `Start` event, a forked parser's `skip_subtree()` must give
/// what the structural index's pairing of that element implies, checked
/// in this order: a paired element resumes past its paired end tag with
/// the paired event count; otherwise the skip fails with the index's
/// recorded scan error; otherwise with end of input at the input's end.
fn assert_skips_match_the_index(input: &str) {
    let index = StructuralIndex::build(input);
    let entries = index.entries();
    let mut parser = PullParser::new(input);
    while let Some(Ok(event)) = parser.next() {
        if !matches!(event, PullEvent::Start { .. }) {
            continue;
        }
        let lt = parser.last_event_offset();
        let open = entries
            .binary_search_by_key(&lt, |e| e.a as usize)
            .map(|i| entries[i])
            .unwrap_or_else(|_| panic!("no tape entry for the start tag at {lt} in {input:?}"));
        assert_eq!(open.kind, EntryKind::Open, "start tag at {lt} in {input:?}");
        let mut fork = parser.clone();
        let before = fork.offset();
        let got = fork
            .skip_subtree()
            .map(|skip| (skip, fork.offset()))
            .map_err(|e| (e.offset, e.message));
        let want = if open.flags & flags::SELF_CLOSING != 0 {
            Ok((SubtreeSkip::default(), before))
        } else if open.c != u32::MAX {
            let resume = entries[open.c as usize - 1].b as usize + 1;
            let skip = SubtreeSkip {
                bytes: resume - before,
                events: open.d as usize,
                hops: 1,
            };
            Ok((skip, resume))
        } else if let Some(e) = index.error() {
            Err((e.offset, e.message.to_owned()))
        } else {
            Err((
                input.len(),
                "unexpected end of input inside element".to_owned(),
            ))
        };
        assert_eq!(got, want, "skip of the element at {lt} in {input:?}");
    }
}

/// Every prefix of every seed, cut at char boundaries.
#[test]
fn truncations_never_panic_and_match_the_scalar_lexer() {
    let mut checked = 0usize;
    for seed in SEEDS {
        for end in 0..=seed.len() {
            if !seed.is_char_boundary(end) {
                continue;
            }
            assert_parity(&seed[..end]);
            assert_skips_match_the_index(&seed[..end]);
            checked += 1;
        }
    }
    assert!(
        checked > 300,
        "truncation sweep collapsed ({checked} cases)"
    );
}

/// Bytes the structural classifier keys on — substitutions land exactly on
/// its decision points.
const STRUCTURAL_BYTES: &[u8] = b"<>&\"']-/!?=\0 ";

fn mutate(seed: &str, rng: &mut SmallRng) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4usize) {
        match rng.gen_range(0..3u32) {
            // Substitute an ASCII position with a structural byte.
            0 => {
                if let Some(at) = (0..bytes.len())
                    .map(|_| rng.gen_range(0..bytes.len()))
                    .find(|&i| bytes[i].is_ascii())
                {
                    bytes[at] = STRUCTURAL_BYTES[rng.gen_range(0..STRUCTURAL_BYTES.len())];
                }
            }
            // Splice a structural fragment at a random boundary.
            1 => {
                let frags: &[&[u8]] = &[
                    b"<!--",
                    b"-->",
                    b"<![CDATA[",
                    b"]]>",
                    b"<?",
                    b"?>",
                    b"</",
                    b"/>",
                    b"<!",
                    b"&#",
                    b"&amp;",
                    b"='",
                    b"=\"",
                ];
                let frag = frags[rng.gen_range(0..frags.len())];
                let at = rng.gen_range(0..=bytes.len());
                bytes.splice(at..at, frag.iter().copied());
            }
            // Delete a short run.
            _ => {
                if !bytes.is_empty() {
                    let at = rng.gen_range(0..bytes.len());
                    let len = rng.gen_range(1..=4usize).min(bytes.len() - at);
                    bytes.drain(at..at + len);
                }
            }
        }
    }
    // Parsers take &str: keep only valid UTF-8 mutants (lossy repair would
    // move bytes around and hide offset bugs).
    String::from_utf8(bytes).unwrap_or_else(|e| {
        let bytes = e.into_bytes();
        let valid_to = std::str::from_utf8(&bytes)
            .err()
            .map_or(bytes.len(), |err| err.valid_up_to());
        String::from_utf8_lossy(&bytes[..valid_to]).into_owned()
    })
}

/// The property's case count: `PROPTEST_CASES` when it is set (the CI
/// fuzz job raises it), otherwise `default`.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(256)))]

    #[test]
    fn random_mutations_never_panic_and_match_the_scalar_lexer(
        seed_ix in 0usize..5,
        rng_seed in 0u64..1_000_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let mutant = mutate(SEEDS[seed_ix], &mut rng);
        assert_parity(&mutant);
        assert_skips_match_the_index(&mutant);
    }
}

/// Anti-vacuity: the mutation engine must actually produce malformed
/// inputs (and some well-formed survivors) — a sweep where everything
/// still parses would test nothing.
#[test]
fn mutation_corpus_contains_malformed_inputs() {
    let mut malformed = 0usize;
    let mut wellformed = 0usize;
    for rng_seed in 0..200u64 {
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let mutant = mutate(SEEDS[(rng_seed % 5) as usize], &mut rng);
        let ok = PullParser::new(&mutant).all(|e| e.is_ok());
        if ok {
            wellformed += 1;
        } else {
            malformed += 1;
        }
    }
    assert!(
        malformed > 20,
        "mutation engine produced only {malformed} malformed inputs"
    );
    assert!(
        wellformed > 0,
        "mutation engine destroyed every input — survivors also matter"
    );
}
