//! Zero-copy and lexical-skip guarantees of the pull parser.
//!
//! Two families of properties over randomly generated documents:
//!
//! 1. **Zero-copy**: on documents without entity references, every event
//!    payload (element name, attribute name/value, text run) is
//!    `Cow::Borrowed` *and* its bytes lie inside the input buffer — i.e.
//!    the no-entity fast path performs zero per-event `String`
//!    allocations. (The workspace denies `unsafe_code`, so instead of a
//!    counting global allocator this asserts borrowed-ness plus pointer
//!    ranges — any allocation would have to produce an owned `Cow` or a
//!    slice outside the input.)
//! 2. **Skip oracle**: forking the parser just after any start tag,
//!    `skip_subtree()` lands at exactly the byte offset where depth-counted
//!    event consumption lands, reports exactly the bytes and tag events the
//!    depth counter saw, and the two forks produce identical event streams
//!    afterwards — including documents with `]]>` inside text, `>` and `/`
//!    inside attribute values, and comments/CDATA containing `<child>`
//!    markup.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use schemacast_xml::pull::{PullEvent, PullParser, SubtreeSkip};
use std::borrow::Cow;

/// Whether `needle`'s bytes lie inside `haystack`'s buffer.
fn is_subslice(haystack: &str, needle: &str) -> bool {
    let h = haystack.as_ptr() as usize;
    let n = needle.as_ptr() as usize;
    n >= h && n + needle.len() <= h + haystack.len()
}

// The whole point is to distinguish Borrowed from Owned, so `&str` can't
// replace the `&Cow` parameter here.
#[allow(clippy::ptr_arg)]
fn assert_borrowed(input: &str, value: &Cow<'_, str>, what: &str) {
    match value {
        Cow::Borrowed(s) => assert!(
            is_subslice(input, s),
            "{what} {s:?} is borrowed but not a subslice of the input"
        ),
        Cow::Owned(s) => panic!("{what} {s:?} was allocated on the no-entity fast path"),
    }
}

// ---------------------------------------------------------------------------
// Random document generator (entity-free unless asked otherwise).
// ---------------------------------------------------------------------------

const LABELS: &[&str] = &["a", "b", "item", "po", "shipTo", "x-y", "ns:tag"];
/// Text payloads chosen to confuse a naive raw-byte scanner.
const TEXTS: &[&str] = &[
    "plain",
    "  spaced out  ",
    "]]>",
    "a ]] > b",
    "greater > than",
    "slash / close",
    "quote \" and ' here",
];
const ATTR_VALUES: &[&str] = &["v", "a > b", "/>", "fake/close", "two  words", "']]>'"];

fn gen_element(rng: &mut SmallRng, depth: usize, out: &mut String) {
    let label = LABELS[rng.gen_range(0..LABELS.len())];
    out.push('<');
    out.push_str(label);
    for i in 0..rng.gen_range(0..3u32) {
        let value = ATTR_VALUES[rng.gen_range(0..ATTR_VALUES.len())];
        // Alternate quote style; pick one that does not occur in the value.
        let quote = if value.contains('"') { '\'' } else { '"' };
        out.push_str(&format!(" at{i}={quote}{value}{quote}"));
    }
    if depth == 0 || rng.gen_bool(0.3) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for _ in 0..rng.gen_range(0..4u32) {
        match rng.gen_range(0..6u32) {
            0 | 1 => gen_element(rng, depth - 1, out),
            2 => out.push_str(TEXTS[rng.gen_range(0..TEXTS.len())]),
            3 => out.push_str("<!-- a comment with <child> and ]]> inside -->"),
            4 => out.push_str("<![CDATA[raw <markup> & </fake> here]]>"),
            _ => out.push_str("<?pi data with > and </fake> ?>"),
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
    if rng.gen_bool(0.2) {
        out.push_str("<!-- leading comment with <tags> -->");
    }
    let depth = rng.gen_range(1..5);
    gen_element(&mut rng, depth, &mut out);
    out
}

// ---------------------------------------------------------------------------
// 1. Zero-copy assertions.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn no_entity_fast_path_is_allocation_free(seed in 0u64..100_000) {
        let input = gen_document(seed);
        for event in PullParser::new(&input) {
            match event.expect("generated documents are well-formed") {
                PullEvent::Start { name, attributes, .. } => {
                    assert!(is_subslice(&input, name), "name {name:?}");
                    for (attr, value) in &attributes {
                        assert!(is_subslice(&input, attr), "attr name {attr:?}");
                        assert_borrowed(&input, &value, "attribute value");
                    }
                }
                PullEvent::End { name, .. } => {
                    assert!(is_subslice(&input, name), "end name {name:?}");
                }
                PullEvent::Text(t) => assert_borrowed(&input, &t, "text"),
                PullEvent::Doctype { name, internal } => {
                    assert!(is_subslice(&input, name));
                    if let Some(i) = internal {
                        assert!(is_subslice(&input, i));
                    }
                }
            }
        }
    }
}

#[test]
fn entities_force_owned_only_where_they_occur() {
    let input = "<r a=\"x&amp;y\" b=\"plain\">one &lt; two<sep/>clean</r>";
    let mut owned = 0;
    let mut borrowed = 0;
    for event in PullParser::new(input) {
        match event.expect("well-formed") {
            PullEvent::Start { attributes, .. } => {
                for (name, value) in &attributes {
                    match (name, value) {
                        ("a", Cow::Owned(v)) => {
                            assert_eq!(v, "x&y");
                            owned += 1;
                        }
                        ("b", Cow::Borrowed(v)) => {
                            assert_eq!(v, "plain");
                            borrowed += 1;
                        }
                        other => panic!("unexpected attribute {other:?}"),
                    }
                }
            }
            PullEvent::Text(Cow::Owned(t)) => {
                assert_eq!(t, "one < two");
                owned += 1;
            }
            PullEvent::Text(Cow::Borrowed(t)) => {
                assert_eq!(t, "clean");
                borrowed += 1;
            }
            _ => {}
        }
    }
    assert_eq!((owned, borrowed), (2, 2));
}

// ---------------------------------------------------------------------------
// 2. Skip oracle: lexical skipping ≡ depth-counted consumption.
// ---------------------------------------------------------------------------

/// For every element in `input`: fork the parser after its start tag, skip
/// lexically on one fork and consume by depth counting on the other, and
/// demand byte-identical landing state and identical tails.
fn check_skip_oracle(input: &str) {
    let mut parser = PullParser::new(input);
    while let Some(event) = parser.next() {
        let event = event.expect("well-formed");
        if !matches!(event, PullEvent::Start { .. }) {
            continue;
        }
        let mut lexical = parser.clone();
        let mut counted = parser.clone();

        let before = lexical.offset();
        let skipped = lexical.skip_subtree().expect("skip succeeds");

        let mut depth = 1usize;
        let mut tag_events = 0usize;
        while depth > 0 {
            match counted
                .next()
                .expect("stream ends only after subtree closes")
                .expect("well-formed")
            {
                PullEvent::Start { .. } => {
                    depth += 1;
                    tag_events += 1;
                }
                PullEvent::End { .. } => {
                    depth -= 1;
                    tag_events += 1;
                }
                _ => {}
            }
        }

        assert_eq!(
            lexical.offset(),
            counted.offset(),
            "skip landed at a different byte offset (input {input:?})"
        );
        assert_eq!(lexical.depth(), counted.depth(), "depth after skip");
        assert_eq!(
            skipped.bytes,
            lexical.offset() - before,
            "reported bytes vs actual scan distance"
        );
        if skipped.bytes == 0 {
            // Self-closing: the End event was already lexed and queued, so
            // nothing was avoided; the depth counter consumed exactly it.
            assert_eq!(skipped.events, 0);
            assert_eq!(tag_events, 1);
        } else {
            assert_eq!(
                skipped.events, tag_events,
                "avoided tag events vs depth-counted tag events"
            );
        }

        // The two forks must agree on everything that follows. Compare
        // modulo `NameId`: ids are parser-local dense indices, and the
        // lexical fork legitimately never interned names that only occur
        // inside the skipped subtree.
        let tail_lexical: Vec<_> = lexical
            .collect::<Result<Vec<_>, _>>()
            .expect("well-formed tail");
        let tail_counted: Vec<_> = counted
            .collect::<Result<Vec<_>, _>>()
            .expect("well-formed tail");
        let strip = |events: Vec<PullEvent<'_>>| -> Vec<String> {
            events
                .into_iter()
                .map(|e| match e {
                    PullEvent::Start {
                        name, attributes, ..
                    } => {
                        format!("start {name} {attributes:?}")
                    }
                    PullEvent::End { name, .. } => format!("end {name}"),
                    PullEvent::Text(t) => format!("text {t}"),
                    PullEvent::Doctype { name, .. } => format!("doctype {name}"),
                })
                .collect()
        };
        assert_eq!(
            strip(tail_lexical),
            strip(tail_counted),
            "event tails diverge"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn skip_subtree_matches_depth_counting(seed in 0u64..100_000) {
        check_skip_oracle(&gen_document(seed));
    }
}

#[test]
fn skip_oracle_on_handcrafted_tricky_payloads() {
    for doc in [
        // ']]>' inside ordinary text.
        "<r><s>a ]]> b</s><t/></r>",
        // '>' inside attribute values, both quote styles.
        "<r><s a='x > y' b=\"m > n\"><u/></s>ok</r>",
        // '/>' inside an attribute value of a non-self-closing tag.
        "<r><s a=\"/>\">body</s><after/></r>",
        // comments containing child markup and a fake close.
        "<r><s><!-- <child></s> --><real/></s><next/></r>",
        // CDATA containing a fake close tag for the skipped element.
        "<r><s><![CDATA[</s>]]><k/></s><z/></r>",
        // processing instruction containing '>' and a fake close.
        "<r><s><?pi > </s> ?><p/></s><q/></r>",
        // nested same-name elements (depth counting must not short-circuit).
        "<r><s><s><s/>text</s>more</s></r>",
        // self-closing skip target with attributes.
        "<r><s a='1' b=\"2\"/><tail>t</tail></r>",
        // entity references inside the skipped region (never resolved).
        "<r><s>&lt;&amp;&gt;<c>&#65;</c></s><d/></r>",
    ] {
        check_skip_oracle(doc);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The unified DOM parser and the raw event stream accept/reject the
    // same documents (one tokenizer, one conformance behavior).
    #[test]
    fn dom_and_pull_agree_on_wellformedness(seed in 0u64..100_000) {
        let input = gen_document(seed);
        let via_dom = schemacast_xml::parse_document(&input);
        let via_pull: Result<Vec<_>, _> = PullParser::new(&input).collect();
        assert_eq!(via_dom.is_ok(), via_pull.is_ok());
    }
}

// ---------------------------------------------------------------------------
// 3. The skip contract on input that is malformed inside the skipped element.
// ---------------------------------------------------------------------------

/// What one `skip_subtree` call returned: the skip and the offset it
/// resumed at, or the error's offset and message.
type SkipResult = Result<(SubtreeSkip, usize), (usize, String)>;

/// Parses `input` up to the first start tag named `s` and skips it.
fn skip_first_s(input: &str) -> SkipResult {
    let mut parser = PullParser::new(input);
    loop {
        match parser.next() {
            Some(Ok(PullEvent::Start { name: "s", .. })) => break,
            Some(Ok(_)) => {}
            other => panic!("no <s> start tag in {input:?}: {other:?}"),
        }
    }
    parser
        .skip_subtree()
        .map(|skip| (skip, parser.offset()))
        .map_err(|e| (e.offset, e.message))
}

fn skipped(bytes: usize, events: usize, resume: usize) -> SkipResult {
    Ok((
        SubtreeSkip {
            bytes,
            events,
            hops: 1,
        },
        resume,
    ))
}

fn skip_error(offset: usize, message: &str) -> SkipResult {
    Err((offset, message.to_owned()))
}

/// `skip_subtree` does not check well-formedness inside the skipped
/// element, so on malformed input its exact answer is a contract of its
/// own: the resume point and counts the structural rules imply, the
/// unterminated-construct error where one opens inside the element, and
/// otherwise "unexpected end of input inside element" at the end of input.
#[test]
fn skip_contract_on_input_malformed_inside_the_skipped_element() {
    const EOF: &str = "unexpected end of input inside element";
    let cases: &[(&str, &str, SkipResult)] = &[
        (
            "unterminated comment",
            "<r><s><!-- x</s></r>",
            skip_error(6, "unterminated comment"),
        ),
        (
            "unterminated CDATA section",
            "<r><s><![CDATA[ x</s></r>",
            skip_error(6, "unterminated CDATA section"),
        ),
        (
            "unterminated processing instruction",
            "<r><s><?pi x</s></r>",
            skip_error(6, "unterminated processing instruction"),
        ),
        (
            "unterminated attribute quote",
            "<r><s><t a=\"x></t></s></r>",
            skip_error(26, EOF),
        ),
        (
            "start tag with no '>'",
            "<r><s><t a='1'",
            skip_error(14, EOF),
        ),
        (
            "'</a' at the end of input",
            "<r><s><a></a",
            skip_error(12, EOF),
        ),
        // The end tag runs to its first '>', the one closing `<b>`.
        ("'</a<b>'", "<r><s><a></a<b></s></r>", skipped(13, 3, 19)),
        (
            "'>' and '/>' inside quoted attribute values",
            "<r><s><t a=\"/>\" b='>'>x</t></s><u/></r>",
            skipped(25, 3, 31),
        ),
        // Outside the prolog `<!DOCTYPE` is a start tag, so `</r>` pairs
        // with `<s>`.
        (
            "'<!DOCTYPE x>' inside the root",
            "<r><s><!DOCTYPE x></s></r>",
            skipped(20, 3, 26),
        ),
        (
            "nested elements with the skipped element's own name",
            "<r><s><s>a</s><s/></s><t/></r>",
            skipped(16, 5, 22),
        ),
        (
            "end of input inside the subtree",
            "<r><s><t>text",
            skip_error(13, EOF),
        ),
        ("'<' at the end of input", "<r><s><", skip_error(7, EOF)),
        (
            "an unterminated comment after the element closes",
            "<r><s><t/></s><!-- x",
            skipped(8, 3, 14),
        ),
        (
            "an unterminated comment after an end tag with no '>'",
            "<r><s></t <!-- x",
            skip_error(16, EOF),
        ),
    ];
    for (what, input, want) in cases {
        assert_eq!(&skip_first_s(input), want, "{what}: {input:?}");
    }
}
