//! Differential properties: the on-demand pull parser ≡ the scalar lexer.
//!
//! [`PullParser`] lexes each event from one byte cursor with SWAR scans
//! and the structural index's markup classification; [`ScalarParser`] is
//! the preserved per-byte reference implementation. These tests demand
//! the two produce **identical** event streams — payloads, interner ids,
//! text-run splits, and (when the document is malformed) the terminal
//! error with its exact position and message — on a randomized corpus
//! whose payloads are chosen to derail a structural classifier: CDATA
//! sections containing `</…>`, comments containing quotes and fake close
//! tags, processing instructions, entity and character references,
//! self-closing tags, and a `DOCTYPE` prolog.
//!
//! An anti-vacuity floor (like `tests/lexical_skip_props.rs` at the
//! workspace root) proves the corpus actually exercises every adversarial
//! construct, so the equivalence above cannot pass by never generating
//! the hard cases.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use schemacast_xml::pull::{PullEvent, PullParser};
use schemacast_xml::{ScalarParser, XmlError};
use std::borrow::Cow;

// ---------------------------------------------------------------------------
// Random document generator with adversarial payloads.
// ---------------------------------------------------------------------------

const LABELS: &[&str] = &["a", "b", "item", "po", "shipTo", "x-y", "ns:tag", "s"];
/// Text payloads chosen to confuse a structural classifier.
const TEXTS: &[&str] = &[
    "plain",
    "  spaced out  ",
    "]]>",
    "a ]] > b",
    "greater > than",
    "quote \" and ' here",
    "&amp; &lt; entity",
    "&#65;&#x41; char refs",
    "mixed &gt; text",
];
const ATTR_VALUES: &[&str] = &[
    "v",
    "a > b",
    "/>",
    "fake/close",
    "x&amp;y",
    "&quot;q&quot;",
    "']]>'",
];
/// Non-element markup whose payloads mimic tags and quotes.
const NOISE: &[&str] = &[
    "<!-- a comment with <child>, \"quotes\", 'more' and ]]> inside -->",
    "<!--- tricky dashes -- >< ---->",
    "<![CDATA[raw <markup> & </fake> here]]>",
    "<![CDATA[]]]><![CDATA[> split sentinel]]>",
    "<?pi data with > and </fake> and \"quotes\" ?>",
    "<?x?>",
];

fn gen_element(rng: &mut SmallRng, depth: usize, out: &mut String) {
    let label = LABELS[rng.gen_range(0..LABELS.len())];
    out.push('<');
    out.push_str(label);
    for i in 0..rng.gen_range(0..3u32) {
        let value = ATTR_VALUES[rng.gen_range(0..ATTR_VALUES.len())];
        let quote = if value.contains('"') { '\'' } else { '"' };
        out.push_str(&format!(" at{i}={quote}{value}{quote}"));
    }
    if depth == 0 || rng.gen_bool(0.3) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for _ in 0..rng.gen_range(0..4u32) {
        match rng.gen_range(0..7u32) {
            0 | 1 => gen_element(rng, depth - 1, out),
            2 | 3 => out.push_str(TEXTS[rng.gen_range(0..TEXTS.len())]),
            _ => out.push_str(NOISE[rng.gen_range(0..NOISE.len())]),
        }
    }
    out.push_str("</");
    out.push_str(label);
    out.push('>');
}

fn gen_document(seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = String::new();
    if rng.gen_bool(0.3) {
        out.push_str("<?xml version=\"1.0\"?>");
    }
    if rng.gen_bool(0.25) {
        out.push_str("<!-- leading comment with <tags> and \"quotes\" -->");
    }
    if rng.gen_bool(0.25) {
        out.push_str("<!DOCTYPE root [ <!ELEMENT a ANY> ]>");
    }
    if rng.gen_bool(0.2) {
        out.push_str("\n  \t ");
    }
    let depth = rng.gen_range(1..5);
    gen_element(&mut rng, depth, &mut out);
    if rng.gen_bool(0.2) {
        out.push_str("<!-- trailing comment -->");
    }
    out
}

// ---------------------------------------------------------------------------
// The differential harness.
// ---------------------------------------------------------------------------

type Stream<'a> = Vec<Result<PullEvent<'a>, XmlError>>;

/// Drains both parsers and demands bit-identical streams: every event
/// (names, interner ids, attributes, text runs and their split points) and,
/// if the document is malformed, the same terminal error at the same
/// offset/line/column with the same message — errors are lazy on both
/// sides, so the events *before* the error must match too.
fn assert_parsers_agree(input: &str) {
    let tape: Stream<'_> = PullParser::new(input).collect();
    let scalar: Stream<'_> = ScalarParser::new(input).collect();
    assert_eq!(tape, scalar, "streams diverge on {input:?}");
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
    #![proptest_config(ProptestConfig::with_cases(cases(192)))]

    #[test]
    fn tape_parser_matches_scalar_reference(seed in 0u64..200_000) {
        assert_parsers_agree(&gen_document(seed));
    }
}

#[test]
fn handcrafted_adversarial_payloads() {
    for doc in [
        // CDATA containing a fake close for the open element.
        "<r><s><![CDATA[</s>]]></s></r>",
        // CDATA whose `]]>` sentinel is split across two sections.
        "<r><![CDATA[a]]]><![CDATA[]>b]]></r>",
        // Comment containing quotes, a fake close, and lone dashes.
        "<r><!-- \"</r>\" 'still - a - comment' --></r>",
        // PI with quotes and markup inside.
        "<r><?target \"</r>\" <fake> ?></r>",
        // Entity and character references, in text and attribute values.
        "<r a=\"x&amp;y&#33;\">one &lt; two &#x41;</r>",
        // Self-closing tags, with and without attributes.
        "<r><a/><b x='1'/><c  /></r>",
        // DOCTYPE with an internal subset containing '>'.
        "<!DOCTYPE r [ <!ELEMENT r ANY> ]><r/>",
        // Whitespace-heavy prolog and epilog.
        "  \n<?xml version=\"1.0\"?>\n  <r/>\n  ",
        // Text runs split by comments and CDATA at every boundary.
        "<r>a<!--x-->b<![CDATA[c]]>d<?p?>e</r>",
        // ']]>' as ordinary element text.
        "<r>]]></r>",
    ] {
        assert_parsers_agree(doc);
    }
}

#[test]
fn malformed_documents_error_identically() {
    for doc in [
        "",
        "   ",
        "no markup at all",
        "<",
        "<r",
        "<r>",
        "<r a=>",
        "<r a='unterminated>",
        "<r></x>",
        "<r></r",
        "<r><!-- unterminated",
        "<r><![CDATA[ unterminated",
        "<![CDATA[outside prolog]]>",
        "<r><?pi unterminated",
        "<!DOCTYPE r",
        "<!DOCTYPE r [ <!ELEMENT r ANY>",
        "<r/><r/>",
        "<r>&unknown;</r>",
        "<r>&#xZZ;</r>",
        "<r>&#1114112;</r>",
        "</orphan>",
        "text<r/>",
        "<r/>trailing",
        "<>",
        "</>",
        "<r><a></r></a>",
    ] {
        assert_parsers_agree(doc);
    }
}

// ---------------------------------------------------------------------------
// Anti-vacuity floor.
// ---------------------------------------------------------------------------

/// The equivalence property is meaningless if the generator never emits
/// the constructs it claims to test, so a deterministic slice of the same
/// corpus must demonstrably contain each of them — and the parser must
/// produce the event shapes they imply (owned text from entity expansion,
/// split text runs from CDATA, start/end pairs from self-closing tags).
#[test]
fn corpus_exercises_every_adversarial_construct() {
    let mut cdata_docs = 0usize;
    let mut comment_docs = 0usize;
    let mut pi_docs = 0usize;
    let mut doctype_events = 0usize;
    let mut owned_text_events = 0usize;
    let mut self_closing = 0usize;
    let mut attr_entities = 0usize;
    for seed in 0..300u64 {
        let doc = gen_document(seed);
        cdata_docs += usize::from(doc.contains("<![CDATA["));
        comment_docs += usize::from(doc.contains("<!--"));
        pi_docs += usize::from(doc.contains("<?pi") || doc.contains("<?x"));
        self_closing += usize::from(doc.contains("/>"));
        for event in PullParser::new(&doc) {
            match event.expect("generated documents are well-formed") {
                PullEvent::Doctype { .. } => doctype_events += 1,
                PullEvent::Text(Cow::Owned(_)) => owned_text_events += 1,
                PullEvent::Start { attributes, .. } => {
                    attr_entities += attributes
                        .iter()
                        .filter(|(_, v)| matches!(v, Cow::Owned(_)))
                        .count();
                }
                _ => {}
            }
        }
    }
    for (what, n) in [
        ("CDATA sections", cdata_docs),
        ("comments", comment_docs),
        ("processing instructions", pi_docs),
        ("DOCTYPE declarations", doctype_events),
        ("entity-expanded text runs", owned_text_events),
        ("self-closing tags", self_closing),
        ("entity-expanded attribute values", attr_entities),
    ] {
        assert!(
            n > 0,
            "corpus never produced {what} — the differential property is \
             vacuous for that construct"
        );
    }
}
