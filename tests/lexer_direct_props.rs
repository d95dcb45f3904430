//! Property test: the streaming fast path hands back to events exactly
//! where its lexer-direct steps must decline.
//!
//! `StreamingCast::validate_pull` passes the whitespace between tags and
//! takes a plain simple value together with its end tag without producing
//! events; everything else arrives as events and is judged as the generic
//! `validate_events` path judges it. Documents here are written so that the
//! steps meet every place where they must hand back:
//!
//! * comments and PIs between tags;
//! * `&#32;`, `&#10;`, U+00A0 and U+3000 inside the whitespace between
//!   tags;
//! * simple values split by an entity reference, a CDATA section or a
//!   comment;
//! * childless elements written `<a></a>` as well as `<a/>`;
//! * end tags written `</a >`.
//!
//! The documents are `sample_document` output over synthetic schema pairs
//! and purchase orders on the Experiment 2 pair, whose `quantity` values
//! are checked on every item. On every variant the fast path must equal the
//! generic path, and both must equal the compact form, in outcome and in
//! decision counters. Truncated and single-byte-mutated pretty forms,
//! validated from the empty source schema so that nothing is skipped, must
//! give both paths the same `Ok` or the same `Err` (offset, line, column
//! and message).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use schemacast::core::{CastContext, CastOutcome, StreamingCast, ValidationStats};
use schemacast::regex::Alphabet;
use schemacast::schema::{AbstractSchema, SchemaBuilder, Session};
use schemacast::workload::purchase_order::{
    generate_document_with, source_maxex200_xsd, target_xsd,
};
use schemacast::workload::synth::{random_schema, sample_document, SynthConfig};
use schemacast::xml::{escape_attr, escape_text, PullParser, XmlElement, XmlError, XmlNode};
use std::fmt::Write as _;

/// How a variant writes the places where the fast path's steps act.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// Indentation between tags, as `to_pretty_string` writes it.
    Pretty,
    /// A comment and a PI inside the whitespace between tags.
    MarkupBetweenTags,
    /// Whitespace between tags holding `&#32;`, `&#10;`, U+00A0 or U+3000.
    EntityAndUnicodeWhitespace,
    /// One character of every simple value written as a character
    /// reference.
    ValueSplitByEntity,
    /// One character of every simple value written as a CDATA section.
    ValueSplitByCdata,
    /// Every simple value split by a comment.
    ValueSplitByComment,
    /// Childless elements written `<a></a>` instead of `<a/>`.
    OpenCloseEmpty,
    /// End tags written `</a >`.
    SpacedEndTags,
}

const VARIANTS: [Variant; 8] = [
    Variant::Pretty,
    Variant::MarkupBetweenTags,
    Variant::EntityAndUnicodeWhitespace,
    Variant::ValueSplitByEntity,
    Variant::ValueSplitByCdata,
    Variant::ValueSplitByComment,
    Variant::OpenCloseEmpty,
    Variant::SpacedEndTags,
];

/// The whitespace runs a variant writes between tags, used in turn. The
/// ASCII runs are ones the whitespace step passes; the others must arrive
/// as text and still be accepted as whitespace.
fn gaps(variant: Variant) -> &'static [&'static str] {
    match variant {
        Variant::MarkupBetweenTags => &[
            "\n  <!-- between tags -->\n  ",
            "<?pi between tags?>",
            "\n  <?pi?>\n  <!---->\n",
        ],
        Variant::EntityAndUnicodeWhitespace => &[
            "\n  ",
            "\n &#32; ",
            "&#10;",
            "\u{a0}",
            " \u{3000}\n",
            "\t&#32;\u{a0}&#10;\u{3000}\r\n",
        ],
        Variant::Pretty
        | Variant::ValueSplitByEntity
        | Variant::ValueSplitByCdata
        | Variant::ValueSplitByComment
        | Variant::OpenCloseEmpty
        | Variant::SpacedEndTags => &["\n  "],
    }
}

/// Writes `root` in `variant`.
fn write_variant(root: &XmlElement, variant: Variant) -> String {
    let mut out = String::new();
    let mut next_gap = 0usize;
    write_element(root, variant, &mut next_gap, &mut out);
    out
}

fn write_element(e: &XmlElement, variant: Variant, next_gap: &mut usize, out: &mut String) {
    out.push('<');
    out.push_str(&e.name);
    for (name, value) in &e.attributes {
        let _ = write!(out, " {name}=\"{}\"", escape_attr(value));
    }
    if e.children.is_empty() && variant != Variant::OpenCloseEmpty {
        out.push_str("/>");
        return;
    }
    out.push('>');
    let element_content =
        !e.children.is_empty() && e.children.iter().all(|c| matches!(c, XmlNode::Element(_)));
    for child in &e.children {
        if element_content {
            write_gap(variant, next_gap, out);
        }
        match child {
            XmlNode::Element(c) => write_element(c, variant, next_gap, out),
            XmlNode::Text(t) => write_value(t, variant, out),
        }
    }
    if element_content {
        write_gap(variant, next_gap, out);
    }
    let _ = write!(out, "</{}", e.name);
    out.push_str(if variant == Variant::SpacedEndTags {
        " >"
    } else {
        ">"
    });
}

/// Writes the next of `variant`'s whitespace runs between tags.
fn write_gap(variant: Variant, next_gap: &mut usize, out: &mut String) {
    let gaps = gaps(variant);
    out.push_str(gaps[*next_gap % gaps.len()]);
    *next_gap += 1;
}

/// Writes character data, split in the middle in the value-split variants.
fn write_value(text: &str, variant: Variant, out: &mut String) {
    let mid = text
        .char_indices()
        .map(|(i, _)| i)
        .nth(text.chars().count() / 2)
        .unwrap_or(text.len());
    let (head, tail) = text.split_at(mid);
    let mut tail_chars = tail.chars();
    let split = tail_chars.next();
    let rest = tail_chars.as_str();
    out.push_str(&escape_text(head));
    match (variant, split) {
        (Variant::ValueSplitByEntity, Some(c)) => {
            let _ = write!(out, "&#{};{}", u32::from(c), escape_text(rest));
        }
        (Variant::ValueSplitByCdata, Some(c)) => {
            let _ = write!(out, "<![CDATA[{c}]]>{}", escape_text(rest));
        }
        (Variant::ValueSplitByComment, _) => {
            let _ = write!(out, "<!-- split -->{}", escape_text(tail));
        }
        _ => out.push_str(&escape_text(tail)),
    }
}

type Verdict = Result<(CastOutcome, ValidationStats), XmlError>;

/// The outcome and decision counters of a run, or its error: clocks and
/// the lexical-skip telemetry, which only the fast path fills, are zeroed.
fn decisions(verdict: Verdict) -> Verdict {
    verdict.map(|(outcome, stats)| {
        let mut stats = stats.without_clocks();
        stats.bytes_skipped = 0;
        stats.events_avoided = 0;
        stats.tape_events = 0;
        stats.tape_skip_hops = 0;
        (outcome, stats)
    })
}

/// The fast path's and the generic path's decisions on `text`.
fn both_paths(ctx: &CastContext<'_>, text: &str, ab: &Alphabet) -> (Verdict, Verdict) {
    let sc = StreamingCast::new(ctx);
    (
        decisions(sc.validate_str(text, ab)),
        decisions(sc.validate_events(PullParser::new(text), ab)),
    )
}

/// Every variant of `root` against `ctx`: the fast path equals the generic
/// path, and both equal the compact form. Returns the compact form's
/// outcome and decision counters.
fn check_variants(
    ctx: &CastContext<'_>,
    root: &XmlElement,
    ab: &Alphabet,
) -> Result<(CastOutcome, ValidationStats), TestCaseError> {
    let compact = schemacast::xml::to_string(root);
    let (want, oracle) = both_paths(ctx, &compact, ab);
    prop_assert_eq!(&want, &oracle, "fast vs event path on the compact form");
    prop_assert!(want.is_ok(), "malformed compact form {}", compact);
    for variant in VARIANTS {
        let text = write_variant(root, variant);
        let (fast, oracle) = both_paths(ctx, &text, ab);
        prop_assert_eq!(
            &fast,
            &oracle,
            "fast vs event path, {:?}: {}",
            variant,
            text
        );
        prop_assert_eq!(&fast, &want, "{:?} vs the compact form: {}", variant, text);
    }
    Ok(want.expect("well-formed, asserted above"))
}

/// Structural and whitespace bytes: substitutions land on the decisions
/// the lexer and both steps make.
const MUTATION_BYTES: &[u8] = b"<>&\"']-/!?=\0 \t\n#;x";

/// Truncations and single-byte substitutions of the pretty form of `root`,
/// against a context that skips nothing: both paths give the same `Ok`, or
/// the same `Err` in offset, line, column and message. Returns how many
/// mutants were malformed.
fn check_malformed(
    full: &CastContext<'_>,
    root: &XmlElement,
    ab: &Alphabet,
    rng: &mut SmallRng,
) -> Result<usize, TestCaseError> {
    let pretty = schemacast::xml::to_pretty_string(root);
    let mut mutants = Vec::new();
    for _ in 0..8 {
        let mut end = rng.gen_range(0..=pretty.len());
        while !pretty.is_char_boundary(end) {
            end -= 1;
        }
        mutants.push(pretty[..end].to_owned());
    }
    for _ in 0..8 {
        let mut bytes = pretty.clone().into_bytes();
        let at = rng.gen_range(0..bytes.len());
        if bytes[at].is_ascii() {
            bytes[at] = MUTATION_BYTES[rng.gen_range(0..MUTATION_BYTES.len())];
        }
        mutants.push(String::from_utf8(bytes).expect("an ASCII byte replaced an ASCII byte"));
    }
    let mut malformed = 0;
    for text in &mutants {
        let (fast, oracle) = both_paths(full, text, ab);
        prop_assert_eq!(&fast, &oracle, "fast vs event path on {:?}", text);
        malformed += usize::from(fast.is_err());
    }
    Ok(malformed)
}

/// A synthetic pair (the source possibly evolved into the target) and a
/// document sampled from the source.
fn synthetic_case(
    schema_seed: u64,
    evolve_steps: usize,
    doc_seed: u64,
) -> Option<(
    Alphabet,
    AbstractSchema,
    AbstractSchema,
    AbstractSchema,
    XmlElement,
)> {
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
    let doc = sample_document(&source, &mut ab, &mut doc_rng, 5)?;
    let empty = SchemaBuilder::new(&mut ab).finish().expect("empty schema");
    let xml = doc.to_xml(&ab);
    Some((ab, source, target, empty, xml))
}

/// The Experiment 2 pair (source `quantity` below 200, target below 100)
/// and a purchase order with `items` items whose quantities are drawn from
/// `1..200`, so some are invalid for the target.
fn purchase_order_case(
    items: usize,
    doc_seed: u64,
) -> (
    Alphabet,
    AbstractSchema,
    AbstractSchema,
    AbstractSchema,
    XmlElement,
) {
    let mut session = Session::new();
    let source = session
        .parse_xsd(&source_maxex200_xsd())
        .expect("source XSD");
    let target = session.parse_xsd(&target_xsd()).expect("target XSD");
    let mut rng = SmallRng::seed_from_u64(doc_seed);
    let doc = generate_document_with(&mut session.alphabet, items, true, |_| {
        rng.gen_range(1..200)
    });
    let empty = SchemaBuilder::new(&mut session.alphabet)
        .finish()
        .expect("empty schema");
    let xml = doc.to_xml(&session.alphabet);
    (session.alphabet, source, target, empty, xml)
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
    #![proptest_config(ProptestConfig::with_cases(cases(64)))]

    #[test]
    fn synthetic_pairs_hand_back_to_events_where_they_must(
        schema_seed in 0u64..4000,
        evolve_steps in 0usize..3,
        doc_seed in 0u64..4000,
    ) {
        let Some((ab, source, target, empty, xml)) =
            synthetic_case(schema_seed, evolve_steps, doc_seed)
        else {
            return Ok(());
        };
        check_variants(&CastContext::new(&source, &target, &ab), &xml, &ab)?;
        let full = CastContext::new(&empty, &target, &ab);
        check_variants(&full, &xml, &ab)?;
        check_malformed(&full, &xml, &ab, &mut SmallRng::seed_from_u64(doc_seed))?;
    }

    #[test]
    fn purchase_orders_hand_back_to_events_where_they_must(
        items in 0usize..8,
        doc_seed in 0u64..100_000,
    ) {
        let (ab, source, target, empty, xml) = purchase_order_case(items, doc_seed);
        check_variants(&CastContext::new(&source, &target, &ab), &xml, &ab)?;
        let full = CastContext::new(&empty, &target, &ab);
        check_variants(&full, &xml, &ab)?;
        check_malformed(&full, &xml, &ab, &mut SmallRng::seed_from_u64(doc_seed))?;
    }
}

/// Anti-vacuity: over purchase orders the properties above see valid and
/// invalid verdicts, values checked on the fast path, and malformed as well
/// as well-formed mutants.
#[test]
fn purchase_order_cases_reach_every_kind_of_verdict() {
    let (mut valid, mut invalid, mut value_checks, mut malformed) = (0, 0, 0, 0);
    for doc_seed in 0..24u64 {
        let (ab, source, target, empty, xml) = purchase_order_case(4, doc_seed);
        let ctx = CastContext::new(&source, &target, &ab);
        let (outcome, stats) = check_variants(&ctx, &xml, &ab).expect("variants agree");
        if outcome.is_valid() {
            valid += 1;
        } else {
            invalid += 1;
        }
        value_checks += stats.value_checks;
        let full = CastContext::new(&empty, &target, &ab);
        malformed += check_malformed(&full, &xml, &ab, &mut SmallRng::seed_from_u64(doc_seed))
            .expect("mutants agree");
    }
    assert!(valid > 0 && invalid > 0, "valid {valid}, invalid {invalid}");
    assert!(value_checks > 0, "no simple value was checked");
    assert!(
        malformed > 0 && malformed < 24 * 16,
        "{malformed} of {} mutants malformed",
        24 * 16
    );
}

/// A label interned after the context was built is not in the context's
/// label table; the fast path must still resolve it through the alphabet.
/// Validated from the empty schema, the root's content model is stepped by
/// the target DFA, so the decision counters tell a known late symbol
/// (stepped once, then rejected) from an unknown label (rejected unread).
#[test]
fn labels_interned_after_the_context_resolve_as_before() {
    let (mut ab, _, target, empty, _) = purchase_order_case(1, 0);
    let ctx = CastContext::new(&empty, &target, &ab);
    let text = "<purchaseOrder><lateLabel/></purchaseOrder>";
    let (unknown, oracle) = both_paths(&ctx, text, &ab);
    assert_eq!(unknown, oracle);
    ab.intern("lateLabel");
    let (late, oracle) = both_paths(&ctx, text, &ab);
    assert_eq!(late, oracle);
    let (unknown, late) = (unknown.expect("well-formed"), late.expect("well-formed"));
    assert!(!unknown.0.is_valid() && !late.0.is_valid());
    assert_eq!(unknown.1.content_symbols_scanned, 0);
    assert_eq!(late.1.content_symbols_scanned, 1);
}
